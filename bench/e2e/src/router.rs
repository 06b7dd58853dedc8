//! `router-read`: a three-shard fleet behind `router::start`, two client
//! connections on loopback TCP, closed loop.
//!
//! Phase `cold` goes through a router with `cache_budget: 0`, so every
//! read scatters. Phase `cached` asks the same cycle of a router with the
//! default budget after one warm pass. Phase `mixed` keeps one reader on
//! the cycle while one writer sends `update` windows through the
//! three-phase epoch swap, so the flush on every commit and the 2PC cost
//! are priced against the read gain.

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use graphmine_core::{PartMiner, PartMinerConfig};
use graphmine_graph::{apply_all, DbUpdate, DfsCode, GraphDb, PatternSet};
use graphmine_router::{plan_shards, PlanConfig, Router, RouterConfig, RouterHandle};
use graphmine_serve::protocol::code_from_json;
use graphmine_serve::{start, Client, EngineConfig, ServeEngine, ServerConfig, ServerHandle};
use graphmine_telemetry::{Counter, JsonValue};

use crate::env::Scratch;
use crate::metrics::Report;
use crate::mine::zero_ufreq;
use crate::serving::{
    database, patient_retry, queries, tally, timed_ms, windows, DAEMON_COUNTERS, MINSUP,
};
use crate::stats::{median, summarize, wire_ms};
use crate::{out_of_time, repeated_setup, replay, trace, RunArgs};

const N_SHARDS: usize = 3;
/// Partition units the fleet is planned over.
const PLAN_K: usize = 6;
/// Distinct `support` questions in the cycle, half of them frequent.
const SUPPORT_CODES: usize = 30;
/// `top` that takes the router's untruncated exact-union path.
const ALL_PATTERNS: usize = 1_000_000_000;
/// Shares of the measuring time: cold, cached; the rest is mixed.
const COLD_SHARE: f64 = 0.4;
const CACHED_SHARE: f64 = 0.2;
/// Update windows planned for phase `mixed` (the issue's 20).
const MIXED_WINDOWS: usize = 20;
/// Samples per in-process call kind in the traced replays.
const CALL_SAMPLES: usize = 6;

/// One read of the cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Op {
    Patterns(usize),
    Support(usize),
}

/// The fixed cycle: groups of one `patterns` and two `support` reads;
/// every fifth `patterns` asks for the top 1000 instead of the top 50.
fn cycle(n_codes: usize) -> Vec<Op> {
    (0..n_codes / 2)
        .flat_map(|j| {
            let top = if j % 5 == 4 { 1000 } else { 50 };
            [Op::Patterns(top), Op::Support(2 * j), Op::Support(2 * j + 1)]
        })
        .collect()
}

fn ask(client: &mut Client, op: Op, codes: &[DfsCode]) -> Result<JsonValue, String> {
    match op {
        Op::Patterns(top) => {
            let _r = trace::request("router.front.patterns");
            client.patterns(Some(top), None)
        }
        Op::Support(i) => {
            let _r = trace::request("router.front.support");
            client.support(&codes[i])
        }
    }
}

/// A booted fleet with its two routers.
struct Fleet {
    // Declared in shutdown order: clients of a tier go before the tier.
    cold: RouterHandle,
    cached: RouterHandle,
    shards: Vec<ServerHandle>,
    db: GraphDb,
    reference: PatternSet,
    codes: Vec<DfsCode>,
    windows: Vec<Vec<DbUpdate>>,
    plan_ms: f64,
    boot_ms: Vec<f64>,
    _scratch: Scratch,
}

/// The single-process answer the fleet must reproduce.
fn reference_mine(db: &GraphDb) -> PatternSet {
    let cfg = PartMinerConfig { exact_supports: true, ..PartMinerConfig::with_k(4) };
    PartMiner::new(cfg).mine(db, &zero_ufreq(db), db.abs_support(MINSUP)).patterns
}

fn set_up(seed: u64) -> Fleet {
    let scratch = Scratch::new("fleet");
    let db = database(seed);
    let plan_cfg = PlanConfig {
        k: PLAN_K,
        n_shards: N_SHARDS,
        min_support: db.abs_support(MINSUP),
        ..PlanConfig::default()
    };
    let (plan, plan_ms) = timed_ms(|| {
        let _s = trace::span("router.plan_shards");
        plan_shards(&db, &plan_cfg).expect("plan the fleet")
    });
    let mut topo = plan.topology;
    let mut shards = Vec::with_capacity(N_SHARDS);
    let mut boot_ms = Vec::with_capacity(N_SHARDS);
    for (s, sdb) in plan.shard_dbs.iter().enumerate() {
        let dir = scratch.path().join(format!("shard-{s}"));
        std::fs::create_dir_all(&dir).expect("create a shard directory");
        let cfg = EngineConfig {
            min_support: topo.local_min_support,
            owned: Some(topo.shards[s].owned.clone()),
            ..EngineConfig::default()
        };
        let ((engine, _), ms) = timed_ms(|| {
            let _s = trace::span("serve.boot");
            ServeEngine::boot(Some(sdb), &dir, &cfg).expect("boot a shard")
        });
        boot_ms.push(ms);
        let handle = start(Arc::new(engine), &ServerConfig::default()).expect("start a shard");
        topo.shards[s].replicas = vec![handle.addr().to_string()];
        shards.push(handle);
    }
    let front = |cache_budget: usize| {
        let cfg =
            RouterConfig { cache_budget, retry: patient_retry(seed), ..RouterConfig::default() };
        let router = Router::new(topo.clone(), cfg).expect("build a router");
        graphmine_router::start(Arc::new(router), "127.0.0.1:0").expect("start a router")
    };
    let cold = front(0);
    let cached = front(RouterConfig::default().cache_budget);
    let reference = reference_mine(&db);
    let codes = queries(&reference, SUPPORT_CODES / 2, SUPPORT_CODES / 2);
    let windows = windows(&db, seed, MIXED_WINDOWS);
    Fleet {
        cold,
        cached,
        shards,
        db,
        reference,
        codes,
        windows,
        plan_ms,
        boot_ms,
        _scratch: scratch,
    }
}

fn connect(addr: SocketAddr, seed: u64) -> Client {
    Client::connect(addr).expect("connect to a router").with_retry(patient_retry(seed))
}

/// One answered read.
struct Sample {
    op: Op,
    ms: f64,
    reply: String,
}

/// What one client connection saw.
#[derive(Default)]
struct ClientLog {
    samples: Vec<Sample>,
    attempted: u64,
    failures: Vec<String>,
}

/// Walks the cycle from `offset` over one connection until `stop` says
/// so (it sees the time spent and the reads answered so far).
fn read_loop(
    addr: SocketAddr,
    seed: u64,
    codes: &[DfsCode],
    offset: usize,
    stop: impl Fn(f64, usize) -> bool,
) -> ClientLog {
    let cycle = cycle(codes.len());
    let mut client = connect(addr, seed);
    let mut log = ClientLog::default();
    let start = Instant::now();
    let mut at = offset;
    loop {
        let op = cycle[at % cycle.len()];
        at += 1;
        log.attempted += 1;
        match timed_ms(|| ask(&mut client, op, codes)) {
            (Ok(reply), ms) => {
                if reply.field("partial").is_some() {
                    log.failures.push(format!("{op:?}: reply is partial"));
                }
                log.samples.push(Sample { op, ms, reply: reply.to_json() });
            }
            (Err(e), _) => log.failures.push(format!("{op:?}: {e}")),
        }
        if stop(start.elapsed().as_secs_f64(), log.samples.len()) {
            return log;
        }
    }
}

/// Two connections walking the cycle from opposite points, each until
/// `stop` says so.
fn two_readers(
    name: &'static str,
    addr: SocketAddr,
    fleet: &Fleet,
    seed: u64,
    stop: impl Fn(f64, usize) -> bool + Sync,
    report: &mut Report,
) -> Vec<Sample> {
    let _s = trace::span(name);
    let at = trace::ctx();
    let half = cycle(fleet.codes.len()).len().div_ceil(2);
    let logs: Vec<ClientLog> = std::thread::scope(|s| {
        let clients: Vec<_> = (0..2)
            .map(|c| {
                let (codes, stop) = (&fleet.codes, &stop);
                s.spawn(move || {
                    let _t = trace::enter(at, "bench.client.reader");
                    read_loop(addr, seed + c as u64, codes, c * half, stop)
                })
            })
            .collect();
        clients.into_iter().map(|h| h.join().expect("reader thread")).collect()
    });
    absorb(logs, report)
}

fn absorb(logs: Vec<ClientLog>, report: &mut Report) -> Vec<Sample> {
    let mut samples = Vec::new();
    for log in logs {
        report.attempted += log.attempted;
        report.failed += log.failures.len() as u64;
        report.errors.extend(log.failures);
        samples.extend(log.samples);
    }
    samples
}

fn ms_of(samples: &[Sample], keep: impl Fn(Op) -> bool) -> Vec<f64> {
    samples.iter().filter(|s| keep(s.op)).map(|s| s.ms).collect()
}

/// Every reply to one question must be the same bytes as the first one
/// recorded for it.
fn check_identical(
    seen: &mut BTreeMap<Op, String>,
    samples: &[Sample],
    what: &str,
    report: &mut Report,
) {
    for s in samples {
        let first = seen.entry(s.op).or_insert_with(|| s.reply.clone());
        report.check(*first == s.reply, || {
            format!("{what}: reply to {:?} differs from the first reply to it", s.op)
        });
    }
}

/// The rows of a `patterns` reply, in reply order.
fn reply_rows(reply: &JsonValue) -> Result<Vec<(DfsCode, u64)>, String> {
    let rows = reply.field("patterns").and_then(JsonValue::as_arr).ok_or("no `patterns` array")?;
    rows.iter()
        .map(|row| {
            let code = code_from_json(row.field("code").ok_or("row without a code")?)?;
            let support = row.field("support").and_then(JsonValue::as_num).ok_or("no support")?;
            Ok((code, support))
        })
        .collect()
}

/// A `patterns top=N` answer must be the single-process answer: the
/// first `top` of `expected` by (support desc, code asc), same supports,
/// never partial, and not truncated where the exact path was asked for.
fn check_patterns(
    client: &mut Client,
    top: usize,
    expected: &PatternSet,
    what: &str,
    report: &mut Report,
) {
    let Some(reply) = tally(report, what, client.patterns(Some(top), None)) else {
        return;
    };
    report.check(reply.field("partial").is_none(), || format!("{what}: answer is partial"));
    report.check(top < ALL_PATTERNS || reply.field("truncated").is_none(), || {
        format!("{what}: the exact path answered truncated")
    });
    let mut want: Vec<(DfsCode, u64)> =
        expected.iter().map(|p| (p.code.clone(), u64::from(p.support))).collect();
    want.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    want.truncate(top);
    match reply_rows(&reply) {
        Ok(got) => report.check(got == want, || {
            format!("{what}: {} rows differ from the single process's {}", got.len(), want.len())
        }),
        Err(e) => report.errors.push(format!("{what}: {e}")),
    }
}

pub fn run(args: &RunArgs, report: &mut Report) {
    let mut plans = Vec::new();
    let (fleet, setup_times) = repeated_setup(|| {
        let f = set_up(args.seed);
        plans.push(f.plan_ms);
        f
    });
    report.set_n("setup_s", median(&setup_times), setup_times.len());
    report.set_n("router.plan_shards_ms", median(&plans), plans.len());
    report.set_n("serve.boot_cold_ms", median(&fleet.boot_ms), fleet.boot_ms.len());
    let (cold_addr, cached_addr) = (fleet.cold.addr(), fleet.cached.addr());

    // Warm-up, untimed: connection pools fill, and the fleet's exact
    // answer is checked against the single process.
    {
        let _s = trace::span("bench.warmup");
        let mut client = connect(cold_addr, args.seed);
        check_patterns(&mut client, ALL_PATTERNS, &fleet.reference, "exact path, epoch 0", report);
        check_patterns(&mut client, 1000, &fleet.reference, "top=1000, epoch 0", report);
    }

    let mut seen = BTreeMap::new();

    let within = |budget_s: f64| move |spent: f64, n: usize| out_of_time(spent, n, 3, budget_s);
    let cold = two_readers(
        "bench.phase.cold",
        cold_addr,
        &fleet,
        args.seed,
        within(args.seconds * COLD_SHARE),
        report,
    );
    check_identical(&mut seen, &cold, "cold", report);
    let patterns_cold = summarize(&ms_of(&cold, |op| op == Op::Patterns(50)));
    let support_cold = summarize(&ms_of(&cold, |op| matches!(op, Op::Support(_))));
    report.set_n("op_p50_ms", patterns_cold.p50, patterns_cold.n);
    report.set_n("router.patterns_cold_p50_ms", patterns_cold.p50, patterns_cold.n);
    report.set_n("router.patterns_cold_p90_ms", patterns_cold.p90, patterns_cold.n);
    report.set_n("alt_p50_ms", support_cold.p50, support_cold.n);
    report.set_n("router.support_cold_p50_ms", support_cold.p50, support_cold.n);
    let cold_router = fleet.cold.router();
    let cc = |c: Counter| cold_router.telemetry().counters().get(c) as f64;
    report.set(
        "router.scatter_fanout_per_read",
        cc(Counter::ScatterFanout) / cold.len().max(1) as f64,
    );
    let cold_ratio = cc(Counter::RouterCacheHits)
        / (cc(Counter::RouterCacheHits) + cc(Counter::RouterCacheMisses)).max(1.0);
    report.set("router.cache_hit_ratio_cold", cold_ratio);
    report.check(cold_ratio == 0.0, || format!("cold router hit its cache: ratio {cold_ratio}"));

    // One warm pass over every question of the cycle, then phase `cached`.
    let cached_router = fleet.cached.router();
    let kc = |c: Counter| cached_router.telemetry().counters().get(c) as f64;
    let share = cycle(fleet.codes.len()).len().div_ceil(2);
    let warm =
        two_readers("bench.warmup", cached_addr, &fleet, args.seed, |_, n| n >= share, report);
    check_identical(&mut seen, &warm, "warm pass", report);
    let (hits0, misses0) = (kc(Counter::RouterCacheHits), kc(Counter::RouterCacheMisses));
    let cached = two_readers(
        "bench.phase.cached",
        cached_addr,
        &fleet,
        args.seed,
        within(args.seconds * CACHED_SHARE),
        report,
    );
    check_identical(&mut seen, &cached, "cached", report);
    let read_cached = summarize(&ms_of(&cached, |_| true));
    report.set_n("router.read_cached_p50_ms", read_cached.p50, read_cached.n);
    let (hits, misses) =
        (kc(Counter::RouterCacheHits) - hits0, kc(Counter::RouterCacheMisses) - misses0);
    let hit_ratio = hits / (hits + misses).max(1.0);
    report.set("router.cache_hit_ratio", hit_ratio);
    report.check(hit_ratio >= 0.95, || format!("cached phase hit ratio {hit_ratio} below 0.95"));

    // Phase `mixed`. One untimed window goes first: its commit flushes
    // what phase `cached` left behind, so the reader meets from its first
    // read what it meets for the rest of the phase — a cache that every
    // commit empties — and the median does not sit on the edge between
    // the warm start and that steady state.
    let mixed_budget = args.seconds * (1.0 - COLD_SHARE - CACHED_SHARE);
    let (first_window, timed_windows) = fleet.windows.split_first().expect("planned windows");
    {
        let _s = trace::span("bench.warmup");
        let mut client = connect(cached_addr, args.seed);
        tally(report, "router update before phase mixed", client.update(first_window));
    }
    let done = AtomicBool::new(false);
    let (updates, sent, mixed) = {
        let _s = trace::span("bench.phase.mixed");
        let at = trace::ctx();
        std::thread::scope(|s| {
            let writer = s.spawn(|| {
                let _t = trace::enter(at, "bench.client.writer");
                let mut client = connect(cached_addr, args.seed);
                let mut times = Vec::new();
                let mut failures = Vec::new();
                let start = Instant::now();
                let mut sent = 0usize;
                for ops in timed_windows {
                    let _r = trace::request("router.front.update");
                    let (reply, ms) = timed_ms(|| client.update(ops));
                    sent += 1;
                    match reply {
                        Ok(_) => times.push(ms),
                        Err(e) => failures.push(format!("router update {sent}: {e}")),
                    }
                    if out_of_time(start.elapsed().as_secs_f64(), sent, 3, mixed_budget) {
                        break;
                    }
                }
                done.store(true, Ordering::SeqCst);
                (times, failures, sent)
            });
            let reader = s.spawn(|| {
                let _t = trace::enter(at, "bench.client.reader");
                read_loop(cached_addr, args.seed + 1, &fleet.codes, 0, |_, _| {
                    done.load(Ordering::SeqCst)
                })
            });
            let (times, failures, timed) = writer.join().expect("writer thread");
            report.attempted += timed as u64;
            // The untimed first window went through the same swap.
            let sent = timed + 1;
            report.failed += failures.len() as u64;
            report.errors.extend(failures);
            let log = reader.join().expect("reader thread");
            (times, sent, absorb(vec![log], report))
        })
    };
    let upd = summarize(&updates);
    let rd = summarize(&ms_of(&mixed, |_| true));
    report.set_n("router.update_p50_ms", upd.p50, upd.n);
    // Reads queue behind the epoch swap, so with a dozen samples the
    // mixed-phase numbers repeat within a factor, not within a tenth: they
    // are per-layer metrics only.
    report.set_n("router.read_mixed_p50_ms", rd.p50, rd.n);
    report.set_n("router.read_mixed_p90_ms", rd.p90, rd.n);
    // Reads answered per second by one connection once the cache is warm.
    report.set_n("throughput_per_s", 1e3 / read_cached.p50, read_cached.n);

    // After the epoch swaps the fleet must still give the single-process
    // answer, now for base + every committed window.
    {
        let _s = trace::span("bench.verify");
        let mut expected_db = fleet.db.clone();
        for w in &fleet.windows[..sent] {
            apply_all(&mut expected_db, w).expect("planned windows apply in order");
        }
        let expected = reference_mine(&expected_db);
        let mut client = connect(cached_addr, args.seed);
        check_patterns(&mut client, ALL_PATTERNS, &expected, "exact path after updates", report);
        let epoch = cached_router.global_epoch();
        report.check(epoch == sent as u64, || {
            format!("global epoch {epoch} after {sent} committed windows")
        });
    }

    // Counters of both routers and of the shards behind them.
    let both = |c: Counter| cc(c) + kc(c);
    report.set("router.cache_hits", kc(Counter::RouterCacheHits));
    report.set("router.cache_misses", kc(Counter::RouterCacheMisses));
    report.set("router.cache_evictions", kc(Counter::RouterCacheEvictions));
    report.set("router.phase1_truncated", both(Counter::RouterPhase1Truncated));
    report.set("router.hedged_reads", both(Counter::HedgedReads));
    report.set("router.shard_retries", both(Counter::ShardRetries));
    report.set("router.gather_partial", both(Counter::GatherPartial));
    report.set("router.epoch_2pc_aborts", both(Counter::Epoch2pcAborts));
    report.check(both(Counter::GatherPartial) == 0.0, || "a gather was partial".to_string());
    report.check(both(Counter::Epoch2pcAborts) == 0.0, || "an epoch swap aborted".to_string());
    let shard = |c: Counter| -> f64 {
        fleet.shards.iter().map(|h| h.engine().telemetry().counters().get(c) as f64).sum()
    };
    for &(metric, c) in DAEMON_COUNTERS {
        report.set(metric, shard(c));
    }
    report.check(shard(Counter::ReqErrors) + shard(Counter::ReqOverloaded) == 0.0, || {
        "a shard refused or failed requests".to_string()
    });

    if args.traced {
        let _s = trace::span("bench.replay");
        in_process_calls(&fleet, args.seed, patterns_cold.p50, report);
        let lines: Vec<String> = cold.iter().map(|s| s.reply.clone()).collect();
        replay::telemetry_json(&lines, report);
        replay::graph_kernels(&fleet.db, &fleet.reference, report);
    }
}

/// The same questions without the front socket (`Router::patterns`,
/// `support`, `status` called in-process; the shard sockets stay real)
/// and without the router (one shard asked directly).
fn in_process_calls(fleet: &Fleet, seed: u64, front_patterns_p50: f64, report: &mut Report) {
    let router = fleet.cold.router();
    let time = |name: &'static str, f: &dyn Fn() -> JsonValue| -> f64 {
        let times: Vec<f64> = (0..CALL_SAMPLES)
            .map(|_| {
                let _r = trace::request(name);
                timed_ms(f).1
            })
            .collect();
        median(&times)
    };
    let patterns = time("router.call.patterns", &|| router.patterns(50, None));
    let graph = fleet.codes[0].to_graph();
    let support = time("router.call.support", &|| router.support(&graph));
    let status = time("router.call.status", &|| router.status());
    report.set_n("router.call_ms.patterns", patterns, CALL_SAMPLES);
    report.set_n("router.call_ms.support", support, CALL_SAMPLES);
    report.set_n("router.call_ms.status", status, CALL_SAMPLES);
    report.set("router.front_wire_ms", wire_ms(front_patterns_p50, patterns));

    let mut shard = Client::connect(fleet.shards[0].addr())
        .expect("connect to a shard")
        .with_retry(patient_retry(seed));
    let direct: Vec<f64> = (0..CALL_SAMPLES)
        .map(|_| {
            let _r = trace::request("serve.wire.patterns");
            timed_ms(|| shard.patterns(Some(50), None).expect("shard answers")).1
        })
        .collect();
    report.set_n("router.shard_direct_ms", median(&direct), direct.len());
}
