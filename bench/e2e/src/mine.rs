//! `mine-deep` and `mine-wide`: the batch path, input file to flushed
//! pattern file, as `graphmine mine` runs it (`read_db` →
//! `PartMiner::mine_instrumented` with the default configuration →
//! `write_patterns`).
//!
//! Every iteration runs in a process of its own, as a user's `mine` does:
//! iterations repeated inside one process slow down by a third over a
//! dozen runs (allocator state carried from run to run), which would make
//! the median depend on how many iterations fit. The child reports its
//! stage times, counters and peak memory on one line.

use std::collections::BTreeMap;
use std::fs::File;
use std::io::{BufReader, BufWriter, Write};
use std::path::Path;
use std::process::Command;
use std::time::{Duration, Instant};

use graphmine_core::{PartMiner, PartMinerConfig};
use graphmine_graph::{io as gio, pattern_io, GraphDb, PatternSet, Support};
use graphmine_miner::{GSpan, MemoryMiner};
use graphmine_telemetry::{Counter, Telemetry};

use crate::data::family_db;
use crate::env::{self, Scratch};
use crate::metrics::Report;
use crate::stats::{median, summarize};
use crate::{out_of_time, repeated_setup, replay, trace, RunArgs};

/// One of the two batch workloads: the dataset shape and the support
/// threshold are all that differ.
pub struct MineSpec {
    /// `D`: graphs in the database.
    pub d: usize,
    /// `T`: average edges per graph.
    pub t: usize,
    /// Relative minimum support.
    pub minsup: f64,
}

/// D4000 T20 at 2 %: the low-support regime of Fig. 14a, where candidate
/// counting explodes and the merge-join dominates.
pub const DEEP: MineSpec = MineSpec { d: 4000, t: 20, minsup: 0.02 };
/// D20000 T10 at 4 %: many small graphs and few patterns, so parsing,
/// freezing and partitioning dominate and the merge-join is bypassed.
pub const WIDE: MineSpec = MineSpec { d: 20_000, t: 10, minsup: 0.04 };

/// Share of the measuring time spent at threads=1; the rest runs the same
/// path at threads=2.
const T1_SHARE: f64 = 0.5;

/// The hidden first argument that makes the binary run one iteration.
pub const ONCE_FLAG: &str = "--mine-once";

pub fn zero_ufreq(db: &GraphDb) -> Vec<Vec<f64>> {
    db.iter().map(|(_, g)| vec![0.0; g.vertex_count()]).collect()
}

/// Counters an iteration reports, under the names of the metrics table.
const COUNTERS: &[(&str, Counter)] = &[
    ("core.candidates_generated", Counter::CandidatesGenerated),
    ("core.verified_frequent", Counter::VerifiedFrequent),
    ("core.verified_infrequent", Counter::VerifiedInfrequent),
    ("core.bound_shortcut", Counter::BoundShortcut),
    ("core.known_skipped", Counter::KnownSkipped),
    ("miner.extensions", Counter::MinerExtensions),
    ("miner.patterns", Counter::MinerPatterns),
    ("graph.embeddings_extended", Counter::EmbeddingsExtended),
    ("graph.embeddings_spilled", Counter::EmbeddingsSpilled),
    ("graph.search_calls", Counter::SearchCalls),
    ("graph.search_calls_avoided", Counter::SearchCallsAvoided),
    ("graph.iso_tests_run", Counter::IsoTestsRun),
    ("graph.iso_tests_pruned", Counter::IsoTestsPruned),
    ("exec.jobs", Counter::ExecJobs),
    ("exec.steals", Counter::ExecSteals),
    ("exec.queue_peak", Counter::ExecQueuePeak),
];

/// The child side: one file-to-file run. Prints `key=value` pairs on one
/// line: stage times in seconds, peak memory, and the work counters.
pub fn once(args: &[String]) -> Result<(), String> {
    let [input, output, sup, threads] = args else {
        return Err(format!("{ONCE_FLAG} INPUT OUTPUT MIN_SUPPORT THREADS"));
    };
    let sup: Support = sup.parse().map_err(|e| format!("MIN_SUPPORT: {e}"))?;
    let threads: usize = threads.parse().map_err(|e| format!("THREADS: {e}"))?;

    let start = Instant::now();
    let file = File::open(input).map_err(|e| format!("{input}: {e}"))?;
    let db = gio::read_db(BufReader::new(file)).map_err(|e| format!("{input}: {e}"))?;
    let read = start.elapsed();

    let cfg = PartMinerConfig { parallel: threads > 1, threads, ..PartMinerConfig::default() };
    let tel = Telemetry::new();
    let outcome = PartMiner::new(cfg).mine_instrumented(&db, &zero_ufreq(&db), sup, &tel);
    let mined = start.elapsed();

    let file = File::create(output).map_err(|e| format!("{output}: {e}"))?;
    let mut w = BufWriter::new(file);
    pattern_io::write_patterns(&mut w, &outcome.patterns).map_err(|e| format!("{output}: {e}"))?;
    w.flush().map_err(|e| format!("{output}: {e}"))?;
    let wall = start.elapsed();

    let s = &outcome.stats;
    let mut fields: Vec<(&str, f64)> = vec![
        ("wall", wall.as_secs_f64()),
        ("read", read.as_secs_f64()),
        ("write", (wall - mined).as_secs_f64()),
        ("partition", s.partition_time.as_secs_f64()),
        ("unit_sum", s.unit_times.iter().sum::<Duration>().as_secs_f64()),
        ("unit_max", s.unit_times.iter().max().copied().unwrap_or_default().as_secs_f64()),
        ("merge", s.merge_time.as_secs_f64()),
        ("shortcut", s.merge.shortcut as f64),
        ("rss_mb", env::peak_rss_mb()),
    ];
    fields.extend(COUNTERS.iter().map(|&(name, c)| (name, tel.counters().get(c) as f64)));
    let line: Vec<String> = fields.iter().map(|(k, v)| format!("{k}={v}")).collect();
    println!("{}", line.join(" "));
    Ok(())
}

/// What one child reported.
struct Iteration(BTreeMap<String, f64>);

impl Iteration {
    fn get(&self, key: &str) -> f64 {
        *self.0.get(key).unwrap_or_else(|| panic!("the child did not report `{key}`"))
    }
}

fn parse_line(line: &str) -> Iteration {
    let fields = line.split_whitespace().filter_map(|kv| {
        let (k, v) = kv.split_once('=')?;
        Some((k.to_string(), v.parse().ok()?))
    });
    Iteration(fields.collect())
}

/// The parent side: runs one iteration in a child and, when tracing, lays
/// the stages it reported out as spans inside the child's lifetime.
fn iterate(input: &Path, output: &Path, sup: Support, threads: usize) -> Iteration {
    let span = trace::request("bench.mine_iteration");
    let t = Instant::now();
    let out = Command::new(std::env::current_exe().expect("path of the running benchmark"))
        .arg(ONCE_FLAG)
        .args([input, output])
        .args([sup.to_string(), threads.to_string()])
        .output()
        .expect("start a mine child process");
    let spent = t.elapsed();
    assert!(out.status.success(), "mine child failed: {}", String::from_utf8_lossy(&out.stderr));
    let it = parse_line(&String::from_utf8_lossy(&out.stdout));

    let ns = |s: f64| (s * 1e9) as u64;
    // Process start-up precedes the child's clock; its exit follows it.
    let mut at = ns(spent.as_secs_f64()).saturating_sub(ns(it.get("wall"))) / 2;
    let units = if threads > 1 { "unit_max" } else { "unit_sum" };
    for (name, key) in [
        ("graph.read_db", "read"),
        ("partition.build", "partition"),
        ("miner.unit_mine", units),
        ("core.merge_join", "merge"),
        ("graph.write_patterns", "write"),
    ] {
        span.child(name, at, ns(it.get(key)));
        at += ns(it.get(key));
    }
    it
}

/// Runs iterations until `budget_s` is used up ([`out_of_time`]); at least
/// `min` run whatever they cost.
fn timed_iterations(
    budget_s: f64,
    min: usize,
    mut one: impl FnMut() -> Iteration,
) -> Vec<Iteration> {
    let start = Instant::now();
    let mut done: Vec<Iteration> = Vec::new();
    loop {
        done.push(one());
        if out_of_time(start.elapsed().as_secs_f64(), done.len(), min, budget_s) {
            return done;
        }
    }
}

/// The default configuration keeps the unit-local lower bound as the
/// support of a pattern already frequent inside one unit (the paper's
/// shortcut), so the check against gSpan is: the same codes, no support
/// above the exact one, and no more inexact supports than the run says it
/// shortcut.
fn check_against_reference(
    report: &mut Report,
    got: &PatternSet,
    reference: &PatternSet,
    shortcut: usize,
) {
    report.check(got.same_codes(reference), || {
        format!("pattern codes differ from gSpan: {} mined vs {}", got.len(), reference.len())
    });
    let mut inexact = 0usize;
    for p in got.iter() {
        match reference.support(&p.code) {
            Some(exact) if p.support == exact => {}
            Some(exact) if p.support < exact => inexact += 1,
            other => report
                .errors
                .push(format!("support {} of {} exceeds the exact {other:?}", p.support, p.code)),
        }
    }
    report.check(inexact <= shortcut, || {
        format!("{inexact} supports differ from gSpan but only {shortcut} were shortcut")
    });
}

/// Set-up: draw the database, write the input file, run the reference
/// miner. Returns the threshold, gSpan's answer and what gSpan took.
fn set_up(spec: &MineSpec, seed: u64, input: &Path) -> (Support, PatternSet, f64) {
    let db = family_db(spec.d, spec.t, seed);
    let file = File::create(input).expect("create input file");
    let mut w = BufWriter::new(file);
    gio::write_db(&mut w, &db).expect("write input file");
    w.flush().expect("flush input file");
    let sup = db.abs_support(spec.minsup);
    let t = Instant::now();
    let reference = GSpan::new().mine(&db, sup);
    (sup, reference, t.elapsed().as_secs_f64())
}

pub fn run(spec: &MineSpec, args: &RunArgs, report: &mut Report) {
    let scratch = Scratch::new("mine");
    let input = scratch.path().join("input.db");
    let output = scratch.path().join("patterns.pat");

    let ((sup, reference, gspan_ref_s), setup_times) =
        repeated_setup(|| set_up(spec, args.seed, &input));
    report.set_n("setup_s", median(&setup_times), setup_times.len());
    report.set("miner.gspan_ref_s", gspan_ref_s);

    // Warm-up, outside every timed phase; it also pins the expected bytes.
    let first = {
        let _s = trace::span("bench.warmup");
        iterate(&input, &output, sup, 1)
    };
    let expected = std::fs::read(&output).expect("read pattern file back");
    match pattern_io::read_patterns(expected.as_slice()) {
        Ok(got) => {
            check_against_reference(report, &got, &reference, first.get("shortcut") as usize)
        }
        Err(e) => report.errors.push(format!("pattern file does not parse: {e}")),
    }
    let check_bytes = |report: &mut Report, what: &str| {
        let got = std::fs::read(&output).expect("read pattern file back");
        report.attempted += 1;
        if got != expected {
            report.failed += 1;
            report.errors.push(format!("{what}: pattern file differs from the first run's"));
        }
    };

    let t1 = {
        let _s = trace::span("bench.phase.threads1");
        timed_iterations(args.seconds * T1_SHARE, 3, || {
            let it = iterate(&input, &output, sup, 1);
            check_bytes(report, "threads=1");
            it
        })
    };
    let t2 = {
        let _s = trace::span("bench.phase.threads2");
        timed_iterations(args.seconds * (1.0 - T1_SHARE), 2, || {
            let it = iterate(&input, &output, sup, 2);
            check_bytes(report, "threads=2");
            it
        })
    };

    let col =
        |its: &[Iteration], key: &str| -> Vec<f64> { its.iter().map(|i| i.get(key)).collect() };
    let wall = summarize(&col(&t1, "wall"));
    let wall_t2 = summarize(&col(&t2, "wall"));
    report.set_n("op_p50_ms", wall.p50 * 1e3, wall.n);
    report.set_n("alt_p50_ms", wall_t2.p50 * 1e3, wall_t2.n);
    // Graphs taken from file to pattern file per second at threads=1.
    report.set_n("throughput_per_s", spec.d as f64 / wall.p50, wall.n);
    report.set_n("core.mine_wall_s", wall.p50, wall.n);
    report.set_n("exec.mine_t2_wall_s", wall_t2.p50, wall_t2.n);
    report.set("exec.speedup_t2", wall.p50 / wall_t2.p50);
    // One process per iteration: the workload's peak is its largest child.
    let all = || t1.iter().chain(&t2).chain([&first]);
    report.set("peak_rss_mb", all().map(|i| i.get("rss_mb")).fold(0.0, f64::max));

    // Stage times: medians over the threads=1 iterations.
    let stage = |key: &str| median(&col(&t1, key));
    report.set_n("graph.read_db_s", stage("read"), t1.len());
    report.set_n("graph.write_patterns_s", stage("write"), t1.len());
    report.set_n("partition.build_s", stage("partition"), t1.len());
    report.set_n("miner.unit_mine_s", stage("unit_sum"), t1.len());
    report.set_n("core.merge_join_s", stage("merge"), t1.len());
    report.set("core.merge_join_share", stage("merge") / wall.p50);
    let coverages: Vec<f64> = t1
        .iter()
        .map(|i| {
            let stages = ["read", "partition", "unit_sum", "merge", "write"];
            stages.iter().map(|k| i.get(k)).sum::<f64>() / i.get("wall")
        })
        .collect();
    let coverage = median(&coverages);
    report.set("core.stage_coverage", coverage);
    report.check(coverage >= 0.95, || format!("stage coverage {coverage:.3} is below 0.95"));

    // Work counts: the same on every iteration of one thread count.
    for &(name, _) in COUNTERS {
        let from = if name.starts_with("exec.") { &t2[0] } else { &first };
        report.set(name, from.get(name));
    }
    let generated = first.get("core.candidates_generated").max(1.0);
    report.set("core.candidate_yield", first.get("core.verified_frequent") / generated);

    if args.traced {
        let _s = trace::span("bench.replay");
        let file = File::open(&input).expect("open input file");
        let db = gio::read_db(BufReader::new(file)).expect("parse input file");
        replay::partition_build(&db, report);
        replay::graph_kernels(&db, &reference, report);
        replay::exec_overhead(report);
    }
}
