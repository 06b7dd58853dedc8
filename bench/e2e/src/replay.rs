//! Layer replays: the workload's own generated inputs fed straight into
//! one layer's public function, timed from outside. Run only in the
//! traced run, after the timed phases.

use std::hint::black_box;
use std::time::Instant;

use graphmine_core::{Executor, IncPartMiner, Job, PartMiner, PartMinerConfig};
use graphmine_graph::dfscode::{is_min, min_dfs_code};
use graphmine_graph::{
    intersect_sorted, iso, DbUpdate, DfsCode, EmbeddingList, GraphDb, GraphId, Pattern, PatternSet,
    Support,
};
use graphmine_partition::{Criteria, DbPartition, GraphPart};
use graphmine_storage::{GroupCommitJournal, UpdateJournal};
use graphmine_telemetry::{Counter, JsonValue, Telemetry};

use crate::env::Scratch;
use crate::metrics::Report;
use crate::mine::zero_ufreq;
use crate::stats::median;
use crate::trace;

/// Patterns the graph kernels are replayed over: an even stride through
/// the set in code order, so the sample is the same for the same inputs.
const KERNEL_SAMPLE: usize = 192;

/// Pool pages for replayed journals, as `EngineConfig::default()`.
const POOL_PAGES: usize = 64;

fn sample(patterns: &PatternSet) -> Vec<&Pattern> {
    let mut all: Vec<&Pattern> = patterns.iter().collect();
    all.sort_by(|a, b| a.code.cmp(&b.code));
    let step = all.len().div_ceil(KERNEL_SAMPLE).max(1);
    all.into_iter().step_by(step).collect()
}

/// Nanoseconds per call of `f` over `items`.
fn ns_per_call<T>(items: &[T], mut f: impl FnMut(&T)) -> f64 {
    let t = Instant::now();
    for item in items {
        f(item);
    }
    t.elapsed().as_nanos() as f64 / items.len().max(1) as f64
}

/// The kernels everything bottoms out in, over the workload's own
/// patterns and database.
pub fn graph_kernels(db: &GraphDb, patterns: &PatternSet, report: &mut Report) {
    let picked = sample(patterns);
    if picked.is_empty() {
        return;
    }
    let codes: Vec<&DfsCode> = picked.iter().map(|p| &p.code).collect();
    {
        let _s = trace::span("graph.min_dfs_code");
        let ns = ns_per_call(&picked, |p| {
            black_box(min_dfs_code(black_box(&p.graph)));
        });
        report.set_n("graph.min_dfs_code_ns", ns, picked.len());
    }
    {
        let _s = trace::span("graph.is_min");
        let ns = ns_per_call(&codes, |c| {
            black_box(is_min(black_box(c)));
        });
        report.set_n("graph.is_min_ns", ns, codes.len());
    }
    let mut supporters: Vec<Vec<GraphId>> = Vec::with_capacity(codes.len());
    {
        let _s = trace::span("graph.embed_from_code");
        let mut rows = 0usize;
        let t = Instant::now();
        for c in &codes {
            let list = EmbeddingList::from_code(db, black_box(c));
            rows += list.len();
            supporters.push(list.supporting_gids());
        }
        let ns = t.elapsed().as_nanos() as f64 / rows.max(1) as f64;
        report.set_n("graph.embed_from_code_ns_per_row", ns, rows);
    }
    {
        let _s = trace::span("graph.iso_support");
        let mut exact = true;
        let ns = ns_per_call(&picked, |p| {
            exact &= black_box(iso::support(db, &p.code)) >= p.support;
        });
        report.set_n("graph.iso_support_us", ns / 1e3, picked.len());
        report.check(exact, || "iso::support fell below a mined support".to_string());
    }
    {
        let _s = trace::span("graph.intersect");
        let mut elems = 0usize;
        let t = Instant::now();
        for pair in supporters.windows(2) {
            elems += pair[0].len() + pair[1].len();
            black_box(intersect_sorted(black_box(&pair[0]), black_box(&pair[1])));
        }
        let ns = t.elapsed().as_nanos() as f64 / elems.max(1) as f64;
        report.set_n("graph.intersect_ns_per_elem", ns, elems);
    }
}

/// `DbPartition::build` called directly with the default partitioner and
/// `k`, as a cross-check of `MineStats::partition_time`.
pub fn partition_build(db: &GraphDb, report: &mut Report) {
    let _s = trace::span("partition.build");
    let ufreq = zero_ufreq(db);
    let k = PartMinerConfig::default().k;
    let t = Instant::now();
    let part = DbPartition::build(db, &ufreq, &GraphPart::new(Criteria::COMBINED), k);
    report.set("partition.build_direct_s", t.elapsed().as_secs_f64());
    drop(part);
}

/// What `Executor::map_indexed` costs by itself: batches of empty jobs on
/// a two-thread pool.
pub fn exec_overhead(report: &mut Report) {
    const BATCHES: usize = 200;
    const JOBS: usize = 64;
    let _s = trace::span("exec.map_indexed");
    let exec = Executor::new(2);
    let t = Instant::now();
    for _ in 0..BATCHES {
        let jobs: Vec<Job<'_, usize>> =
            (0..JOBS).map(|i| Job::new("empty", move || black_box(i))).collect();
        black_box(exec.map_indexed(jobs).expect("empty jobs cannot panic"));
    }
    report.set_n("exec.map_overhead_us", t.elapsed().as_secs_f64() * 1e6 / BATCHES as f64, BATCHES);
}

/// The update windows through `DbPartition::apply_update`, one call per
/// op, on a partition of the base database.
pub fn partition_apply(db: &GraphDb, k: usize, windows: &[Vec<DbUpdate>], report: &mut Report) {
    let ufreq = zero_ufreq(db);
    let mut part = DbPartition::build(db, &ufreq, &GraphPart::new(Criteria::COMBINED), k);
    let _s = trace::span("partition.apply_update");
    let ops: Vec<DbUpdate> = windows.iter().flatten().copied().collect();
    let ns = ns_per_call(&ops, |&op| {
        black_box(part.apply_update(op).expect("planned ops apply in order"));
    });
    report.set_n("partition.apply_update_us", ns / 1e3, ops.len());
}

/// The same windows through `IncPartMiner::update_instrumented` on a
/// state mined from the same database and configuration as the engine's,
/// against what mining that database cold costs.
pub fn core_incremental(
    db: &GraphDb,
    cfg: PartMinerConfig,
    min_support: Support,
    windows: &[Vec<DbUpdate>],
    report: &mut Report,
) {
    let ufreq = zero_ufreq(db);
    let (cold_ms, mut state) = {
        let _s = trace::span("core.mine");
        let t = Instant::now();
        let outcome = PartMiner::new(cfg).mine(db, &ufreq, min_support);
        (t.elapsed().as_secs_f64() * 1e3, outcome.state)
    };
    let tel = Telemetry::new();
    let mut times = Vec::with_capacity(windows.len());
    let mut remined = 0usize;
    for w in windows {
        let _s = trace::request("core.inc_update");
        let t = Instant::now();
        let out = IncPartMiner::update_instrumented(&mut state, w, &tel)
            .expect("planned windows apply in order");
        times.push(t.elapsed().as_secs_f64() * 1e3);
        remined += out.stats.units_remined;
    }
    let p50 = median(&times);
    report.set_n("core.inc_update_p50_ms", p50, times.len());
    report.set("core.inc_units_remined", remined as f64);
    report.set("core.inc_prune_set_hits", tel.counters().get(Counter::PruneSetHits) as f64);
    report.set("core.cold_mine_ms", cold_ms);
    report.set("core.inc_over_cold", p50 / cold_ms);
}

/// The windows through `GroupCommitJournal::submit` from one thread, then
/// a raw recovery of the journal they left.
pub fn storage_wal(windows: &[Vec<DbUpdate>], report: &mut Report) {
    let scratch = Scratch::new("wal");
    let path = scratch.path().join("replay.wal");
    let journal =
        GroupCommitJournal::new(UpdateJournal::create(&path, POOL_PAGES).expect("create journal"));
    let mut times = Vec::with_capacity(windows.len());
    for w in windows {
        let _s = trace::request("storage.wal_submit");
        let t = Instant::now();
        journal.submit(w).expect("journal submit");
        times.push(t.elapsed().as_secs_f64() * 1e6);
    }
    report.set_n("storage.wal_submit_p50_us", median(&times), times.len());
    let bytes = journal.close().expect("close journal").len_bytes();
    report.set("storage.wal_bytes_per_window", bytes as f64 / windows.len().max(1) as f64);
}

/// JSON parse and serialize throughput over the request and reply lines
/// the workload put on the wire.
pub fn telemetry_json(lines: &[String], report: &mut Report) {
    const ROUNDS: usize = 5;
    let bytes: usize = lines.iter().map(String::len).sum::<usize>() * ROUNDS;
    if bytes == 0 {
        return;
    }
    let mut parsed = Vec::with_capacity(lines.len());
    {
        let _s = trace::span("telemetry.json_parse");
        let t = Instant::now();
        for _ in 0..ROUNDS {
            parsed.clear();
            for l in lines {
                parsed.push(JsonValue::parse(black_box(l)).expect("recorded line is valid JSON"));
            }
        }
        report.set_n(
            "telemetry.json_parse_mb_s",
            bytes as f64 / 1e6 / t.elapsed().as_secs_f64(),
            bytes,
        );
    }
    {
        let _s = trace::span("telemetry.json_serialize");
        let t = Instant::now();
        for _ in 0..ROUNDS {
            for v in &parsed {
                black_box(black_box(v).to_json());
            }
        }
        report.set_n(
            "telemetry.json_serialize_mb_s",
            bytes as f64 / 1e6 / t.elapsed().as_secs_f64(),
            bytes,
        );
    }
}
