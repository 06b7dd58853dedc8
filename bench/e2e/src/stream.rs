//! `serve-stream`: one `ServeEngine` behind `serve::start`, driven over
//! loopback TCP with `serve::Client`, closed loop — writes beside reads
//! on the same engine.
//!
//! Phase `visible`: one connection sends windows with `ack: applied`; the
//! sample is send → reply, the moment readers see the window. Phase
//! `stream`: one writer sends windows with `ack: durable` (the last one
//! `applied`, so its reply marks the whole stream visible) while one
//! reader cycles a fixed list of `support` questions with a `patterns
//! top=50` every tenth request.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use graphmine_core::{PartMiner, PartMinerConfig};
use graphmine_graph::{apply_all, DbUpdate, DfsCode, GraphDb};
use graphmine_serve::protocol::{code_to_json, ops_to_json, parse_request};
use graphmine_serve::{
    start, Client, EngineConfig, Request, ServeEngine, ServerConfig, ServerHandle, SupportSource,
};
use graphmine_storage::UpdateJournal;
use graphmine_telemetry::JsonValue;

use crate::env::Scratch;
use crate::metrics::Report;
use crate::mine::zero_ufreq;
use crate::serving::{
    counter, database, patient_retry, queries, tally, timed_ms, windows, DAEMON_COUNTERS, MINSUP,
};
use crate::stats::{median, summarize, wire_ms};
use crate::{out_of_time, repeated_setup, replay, trace, RunArgs};

/// Share of the measuring time given to phase `visible`.
const VISIBLE_SHARE: f64 = 0.45;
/// Windows planned up front; the phases take as many as their time holds.
const PLANNED_WINDOWS: usize = 240;
/// Bounds on the stream length (the issue's 80 is the upper one).
const STREAM_WINDOWS: std::ops::RangeInclusive<usize> = 8..=80;
/// Windows each replay folds (a fold costs as much as a cold mine).
const REPLAY_WINDOWS: usize = 8;

/// A booted daemon and everything generated for it.
struct Fixture {
    // Declared in shutdown order: the daemon goes before its directory.
    server: ServerHandle,
    db: GraphDb,
    cfg: EngineConfig,
    windows: Vec<Vec<DbUpdate>>,
    queries: Vec<DfsCode>,
    boot_ms: f64,
    scratch: Scratch,
}

fn set_up(seed: u64) -> Fixture {
    let scratch = Scratch::new("serve");
    let db = database(seed);
    let cfg = EngineConfig { min_support: db.abs_support(MINSUP), ..EngineConfig::default() };
    let ((engine, _), boot_ms) = timed_ms(|| {
        let _s = trace::span("serve.boot");
        ServeEngine::boot(Some(&db), scratch.path(), &cfg).expect("boot the engine")
    });
    let queries = queries(&engine.current().patterns, 40, 20);
    let server = start(Arc::new(engine), &ServerConfig::default()).expect("start the server");
    let windows = windows(&db, seed, PLANNED_WINDOWS);
    Fixture { scratch, db, cfg, server, windows, queries, boot_ms }
}

fn connect(server: &ServerHandle, seed: u64) -> Client {
    Client::connect(server.addr()).expect("connect to the daemon").with_retry(patient_retry(seed))
}

/// Lines seen on the wire, kept for the parse/serialize replays.
#[derive(Default)]
struct WireLog {
    requests: Vec<String>,
    replies: Vec<String>,
}

const WIRE_LOG_CAP: usize = 256;

impl WireLog {
    fn keep(&mut self, request: &JsonValue, reply: &JsonValue) {
        if self.replies.len() < WIRE_LOG_CAP {
            self.requests.push(request.to_json());
            self.replies.push(reply.to_json());
        }
    }
}

fn support_request(code: &DfsCode) -> JsonValue {
    JsonValue::Obj(vec![
        ("cmd".to_string(), JsonValue::Str("support".to_string())),
        ("code".to_string(), code_to_json(code)),
    ])
}

fn update_request(ops: &[DbUpdate]) -> JsonValue {
    JsonValue::Obj(vec![
        ("cmd".to_string(), JsonValue::Str("update".to_string())),
        ("ops".to_string(), ops_to_json(ops)),
    ])
}

fn patterns_request(top: usize) -> JsonValue {
    JsonValue::Obj(vec![
        ("cmd".to_string(), JsonValue::Str("patterns".to_string())),
        ("top".to_string(), JsonValue::Num(top as u64)),
    ])
}

pub fn run(args: &RunArgs, report: &mut Report) {
    let mut boots = Vec::new();
    let (fx, setup_times) = repeated_setup(|| {
        let f = set_up(args.seed);
        boots.push(f.boot_ms);
        f
    });
    report.set_n("setup_s", median(&setup_times), setup_times.len());
    report.set_n("serve.boot_cold_ms", median(&boots), boots.len());

    let mut log = WireLog::default();
    let mut next_window = 0usize;
    let mut writer = connect(&fx.server, args.seed);

    // Warm-up: one window and one pass over the query list, untimed.
    {
        let _s = trace::span("bench.warmup");
        tally(report, "warm-up update", writer.update(&fx.windows[next_window]));
        next_window += 1;
        let mut reader = connect(&fx.server, args.seed);
        for q in fx.queries.iter().step_by(10) {
            tally(report, "warm-up support", reader.support(q));
        }
    }

    // Phase `visible`.
    let mut visible = Vec::new();
    {
        let _s = trace::span("bench.phase.visible");
        let budget = args.seconds * VISIBLE_SHARE;
        let start = Instant::now();
        loop {
            let request = update_request(&fx.windows[next_window]);
            next_window += 1;
            let (reply, ms) = {
                let _r = trace::request("serve.wire.update_applied");
                timed_ms(|| writer.request(&request))
            };
            if let Some(r) = tally(report, "update (ack applied)", reply) {
                visible.push(ms);
                log.keep(&request, &r);
            }
            if out_of_time(start.elapsed().as_secs_f64(), visible.len(), 5, budget) {
                break;
            }
            if next_window + STREAM_WINDOWS.end() + 2 * REPLAY_WINDOWS >= fx.windows.len() {
                break;
            }
        }
    }
    let vis = summarize(&visible);
    report.set_n("op_p50_ms", vis.p50, vis.n);
    report.set_n("serve.update_visible_p50_ms", vis.p50, vis.n);
    report.set_n("serve.update_visible_p90_ms", vis.p90, vis.n);

    // Phase `stream`: as many windows as the remaining time holds at the
    // rate phase `visible` just measured.
    let stream_budget = args.seconds * (1.0 - VISIBLE_SHARE);
    let n_stream = ((stream_budget * 1e3 / vis.p50) as usize)
        .clamp(*STREAM_WINDOWS.start(), *STREAM_WINDOWS.end());
    let stream = &fx.windows[next_window..next_window + n_stream];
    next_window += n_stream;
    let done = AtomicBool::new(false);
    let (stream_s, reads) = {
        let _s = trace::span("bench.phase.stream");
        let at = trace::ctx();
        std::thread::scope(|s| {
            let writer_thread = s.spawn(|| {
                let _t = trace::enter(at, "bench.client.writer");
                let mut failures = Vec::new();
                let t = Instant::now();
                for (i, ops) in stream.iter().enumerate() {
                    let last = i + 1 == stream.len();
                    let _r = trace::request("serve.wire.update_durable");
                    let reply = if last { writer.update(ops) } else { writer.update_durable(ops) };
                    if let Err(e) = reply {
                        failures.push(format!("stream window {i}: {e}"));
                    }
                }
                let elapsed = t.elapsed().as_secs_f64();
                done.store(true, Ordering::SeqCst);
                (elapsed, failures)
            });
            let reader_thread = s.spawn(|| {
                let _t = trace::enter(at, "bench.client.reader");
                let mut reader = connect(&fx.server, args.seed ^ 1);
                let mut samples = Vec::new();
                let mut seen = WireLog::default();
                let mut failures = Vec::new();
                let mut i = 0usize;
                while !done.load(Ordering::SeqCst) {
                    i += 1;
                    let (request, span) = if i.is_multiple_of(10) {
                        (patterns_request(50), "serve.wire.patterns")
                    } else {
                        (support_request(&fx.queries[i % fx.queries.len()]), "serve.wire.support")
                    };
                    let _r = trace::request(span);
                    match timed_ms(|| reader.request(&request)) {
                        (Ok(r), ms) => {
                            samples.push(ms);
                            seen.keep(&request, &r);
                        }
                        (Err(e), _) => failures.push(format!("read {i}: {e}")),
                    }
                }
                (samples, seen, failures, i)
            });
            let (elapsed, write_failures) = writer_thread.join().expect("writer thread");
            let (samples, seen, read_failures, n_reads) =
                reader_thread.join().expect("reader thread");
            report.attempted += (stream.len() + n_reads) as u64;
            report.failed += (write_failures.len() + read_failures.len()) as u64;
            report.errors.extend(write_failures);
            report.errors.extend(read_failures);
            log.requests.extend(seen.requests);
            log.replies.extend(seen.replies);
            (elapsed, samples)
        })
    };
    let windows_per_s = n_stream as f64 / stream_s;
    report.set_n("throughput_per_s", windows_per_s, n_stream);
    report.set_n("serve.stream_windows_per_s", windows_per_s, n_stream);
    let rd = summarize(&reads);
    report.set_n("alt_p50_ms", rd.p50, rd.n);
    report.set_n("serve.read_p50_ms", rd.p50, rd.n);
    report.set_n("serve.read_p90_ms", rd.p90, rd.n);

    // What the daemon counted, over its own `status`.
    let sent = next_window;
    if let Some(status) = tally(report, "status", writer.status(false)) {
        let c = |name: &str| counter(&status, name);
        for &(metric, c) in DAEMON_COUNTERS {
            report.set(metric, counter(&status, c.name()));
        }
        report.set("serve.ingest_pending_peak", c("ingest_pending_peak"));
        report.set(
            "storage.frames_per_fsync",
            c("wal_group_frames") / c("wal_group_commits").max(1.0),
        );
        let epoch = status.field("epoch").and_then(JsonValue::as_num);
        report.check(epoch == Some(sent as u64), || {
            format!("daemon is at epoch {epoch:?} after {sent} acknowledged windows")
        });
        report.check(c("support_from_embeddings") + c("support_from_search") > 0.0, || {
            "no support question had to be counted".to_string()
        });
        report.check(c("req_errors") + c("req_overloaded") == 0.0, || {
            "the daemon refused or failed requests".to_string()
        });
    }

    if args.traced {
        let _s = trace::span("bench.replay");
        calm_wire_pass(&fx, &mut writer, report);
        replay::telemetry_json(&[log.requests.clone(), log.replies.clone()].concat(), report);
        parse_replay(&log.requests, report);
    }

    verify_and_abort(fx, writer, sent, args, report);
}

/// With nothing else running: the same `support` question over TCP and
/// straight into `ServeEngine::handle`; the difference is the wire.
fn calm_wire_pass(fx: &Fixture, client: &mut Client, report: &mut Report) {
    let engine = fx.server.engine();
    let mut tcp = Vec::new();
    let mut inproc = Vec::new();
    let mut bytes = Vec::new();
    for q in fx.queries.iter().step_by(5) {
        let (reply, ms) = {
            let _r = trace::request("serve.wire.support");
            timed_ms(|| client.support(q))
        };
        if tally(report, "calm support", reply).is_some() {
            tcp.push(ms);
        }
        let req = Request::Support { graph: q.to_graph(), owned: false };
        let _r = trace::request("serve.handle.support");
        let (reply, ms) = timed_ms(|| engine.handle(&req));
        inproc.push(ms);
        bytes.push(reply.to_json().len() as f64);
    }
    report.set_n("serve.handle_us.support", median(&inproc) * 1e3, inproc.len());
    report.set_n("serve.wire_ms", wire_ms(median(&tcp), median(&inproc)), tcp.len());
    report.set_n("serve.reply_bytes", median(&bytes), bytes.len());
}

/// `protocol::parse_request` over the request lines the run sent.
fn parse_replay(lines: &[String], report: &mut Report) {
    let _s = trace::span("serve.parse_request");
    let t = Instant::now();
    for l in lines {
        std::hint::black_box(parse_request(l).expect("a line the client sent parses"));
    }
    let us = t.elapsed().as_secs_f64() * 1e6 / lines.len().max(1) as f64;
    report.set_n("serve.parse_request_us", us, lines.len());
}

/// The engine's mining configuration, as `ServeEngine::boot` derives it.
fn mining_config(cfg: &EngineConfig) -> PartMinerConfig {
    PartMinerConfig {
        parallel: cfg.parallel,
        exact_supports: true,
        embedding_budget_bytes: cfg.embedding_budget,
        ..PartMinerConfig::with_k(cfg.k)
    }
}

/// Correctness of the served result, then the forced abort; in the traced
/// run also the replays that need a daemon of their own.
fn verify_and_abort(fx: Fixture, writer: Client, sent: usize, args: &RunArgs, report: &mut Report) {
    let _s = trace::span("bench.verify");
    let Fixture { scratch, db, cfg, server, windows, queries, .. } = fx;
    drop(writer);
    let served = server.engine().current();

    // The final epoch must equal a from-scratch mine of base + windows.
    let mut expected_db = db.clone();
    for w in &windows[..sent] {
        apply_all(&mut expected_db, w).expect("planned windows apply in order");
    }
    let same_db = expected_db.len() == served.db.len()
        && expected_db.iter().all(|(gid, g)| g == served.db.graph(gid));
    report.check(same_db, || "served database differs from base + every window".to_string());
    let scratch_mine = PartMiner::new(mining_config(&cfg)).mine(
        &expected_db,
        &zero_ufreq(&expected_db),
        cfg.min_support,
    );
    report.check(scratch_mine.patterns.same_codes_and_supports(&served.patterns), || {
        format!(
            "final epoch holds {} patterns, a from-scratch mine {}",
            served.patterns.len(),
            scratch_mine.patterns.len()
        )
    });
    drop(served);

    // Forced abort: no clean stop, so every acknowledged window lives only
    // in the journal, which must replay exactly those.
    server.abort();
    let journal = scratch.path().join("journal.wal");
    let ((_, batches), recover_ms) = timed_ms(|| {
        let _s = trace::span("storage.recover");
        UpdateJournal::recover(&journal, cfg.pool_pages).expect("recover the journal")
    });
    report.set("storage.recover_ms", recover_ms);
    report.check(batches.len() == sent, || {
        format!(
            "{} frames replayed after the abort, {sent} windows were acknowledged",
            batches.len()
        )
    });
    report.check(batches.iter().enumerate().all(|(i, b)| b.seq == i as u64 + 1), || {
        "replayed frames are not the contiguous acknowledged sequence".to_string()
    });
    let mut replayed_db = db.clone();
    let replays = batches.iter().all(|b| apply_all(&mut replayed_db, &b.updates).is_ok());
    let same = replays && replayed_db.iter().all(|(gid, g)| g == expected_db.graph(gid));
    report.check(same, || "replaying the journal does not rebuild the served database".to_string());

    if args.traced {
        let fresh = &windows[sent..];
        twin_replays(&db, &cfg, fresh, &queries, scratch.path(), report);
        let fresh = &fresh[..REPLAY_WINDOWS];
        replay::partition_apply(&db, cfg.k, fresh, report);
        replay::core_incremental(&db, mining_config(&cfg), cfg.min_support, fresh, report);
        replay::storage_wal(&windows[..sent], report);
        replay::graph_kernels(&expected_db, &scratch_mine.patterns, report);
    }
}

/// In-process twins of the wire ops on a second engine over the same
/// base database, then a clean stop and a boot from its snapshot.
fn twin_replays(
    db: &GraphDb,
    cfg: &EngineConfig,
    fresh: &[Vec<DbUpdate>],
    queries: &[DfsCode],
    parent: &Path,
    report: &mut Report,
) {
    let dir = parent.join("twin");
    std::fs::create_dir_all(&dir).expect("create the twin's directory");
    let (engine, _) = ServeEngine::boot(Some(db), &dir, cfg).expect("boot the twin");

    // `support_of` by the source that answered; the memo is cold, so an
    // infrequent code is counted the first time it is asked.
    let ep = engine.current();
    let mut by_source: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for q in queries {
        let g = q.to_graph();
        let _r = trace::request("serve.support_of");
        let ((_, source), ms) = timed_ms(|| engine.support_of(&ep, &g));
        let metric = match source {
            SupportSource::Patterns => "serve.support_of_us.patterns",
            SupportSource::Embeddings => "serve.support_of_us.embeddings",
            SupportSource::Search => "serve.support_of_us.search",
        };
        by_source.entry(metric).or_default().push(ms * 1e3);
    }
    drop(ep);
    for (metric, xs) in &by_source {
        report.set_n(metric, median(xs), xs.len());
    }

    let mut handle_patterns = Vec::new();
    for _ in 0..20 {
        let _r = trace::request("serve.handle.patterns");
        let (_, ms) = timed_ms(|| engine.handle(&Request::Patterns { top: 50, min_support: None }));
        handle_patterns.push(ms * 1e3);
    }
    report.set_n("serve.handle_us.patterns", median(&handle_patterns), handle_patterns.len());

    // The update path in three cuts: durable ack only, durable → visible,
    // and the whole request through `handle`.
    let (mut submit, mut apply, mut handle_update) = (Vec::new(), Vec::new(), Vec::new());
    for (i, ops) in fresh[..2 * REPLAY_WINDOWS].iter().enumerate() {
        if i % 2 == 0 {
            let _r = trace::request("serve.submit_window");
            let t = Instant::now();
            let ack = engine.submit_window(ops).expect("submit to the twin");
            submit.push(t.elapsed().as_secs_f64() * 1e6);
            engine.wait_applied(ack.seq).expect("twin applies the window");
            apply.push(t.elapsed().as_secs_f64() * 1e3);
        } else {
            let req = Request::Update { ops: ops.clone(), ack: Default::default(), dry_run: false };
            let _r = trace::request("serve.handle.update");
            let (_, ms) = timed_ms(|| engine.handle(&req));
            handle_update.push(ms * 1e3);
        }
    }
    report.set_n("serve.submit_window_us", median(&submit), submit.len());
    report.set_n("serve.apply_p50_ms", median(&apply), apply.len());
    report.set_n("serve.handle_us.update", median(&handle_update), handle_update.len());

    engine.clean_stop().expect("clean stop of the twin");
    drop(engine);
    let _s = trace::span("serve.boot");
    let ((_, boot), ms) = timed_ms(|| ServeEngine::boot(None, &dir, cfg).expect("warm boot"));
    report.check(boot.from_snapshot && boot.replayed == 0, || {
        format!("warm boot replayed {} batches, snapshot {}", boot.replayed, boot.from_snapshot)
    });
    report.set("storage.warm_boot_ms", ms);
}
