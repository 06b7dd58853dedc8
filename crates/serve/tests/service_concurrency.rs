//! Concurrency tests for the serving daemon: many client threads
//! reading through an in-flight update, concurrent writers streaming
//! windows through the bounded ingest queue (with `backpressure` sheds
//! reconciled exactly), and counter reconciliation against the exact
//! number of issued requests. (Connection-queue shedding and protocol
//! errors are the server loop's; see `wire_loop.rs`.)

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use graphmine_datagen::{generate, plan_updates, GenParams, UpdateKind, UpdateParams};
use graphmine_graph::{DbUpdate, DfsCode, DfsEdge, GraphDb, GraphUpdate};
use graphmine_serve::{
    start, AckMode, Client, EngineConfig, RetryPolicy, ServeEngine, ServerConfig,
};
use graphmine_telemetry::JsonValue;

fn test_db() -> GraphDb {
    generate(&GenParams::new(24, 6, 4, 4, 3).with_seed(11))
}

fn booted(dir: &std::path::Path) -> Arc<ServeEngine> {
    let db = test_db();
    let cfg = EngineConfig { min_support: db.abs_support(0.3), ..EngineConfig::default() };
    let (engine, _) = ServeEngine::boot(Some(&db), dir, &cfg).unwrap();
    Arc::new(engine)
}

/// Eight reader threads hammer `patterns` and `support` while an update
/// lands mid-flight. Every response must carry a consistent epoch (0 or
/// 1, never going backwards per thread) and the final counters must
/// equal the exact number of requests issued.
#[test]
fn readers_stay_consistent_through_an_inflight_update() {
    const READERS: usize = 8;
    const ROUNDS: usize = 30;

    let dir = tempfile::tempdir().unwrap();
    let engine = booted(dir.path());
    let handle = start(
        engine,
        &ServerConfig { workers: READERS + 2, queue_depth: 64, ..ServerConfig::default() },
    )
    .unwrap();
    let addr = handle.addr();

    let probe = DfsCode(vec![DfsEdge::new(0, 1, 0, 0, 0)]);
    let readers: Vec<_> = (0..READERS)
        .map(|i| {
            let probe = probe.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                let mut last_epoch = 0u64;
                for round in 0..ROUNDS {
                    let resp = if (round + i) % 2 == 0 {
                        client.patterns(Some(1000), None).unwrap()
                    } else {
                        client.support(&probe).unwrap()
                    };
                    let epoch = resp.field("epoch").and_then(JsonValue::as_num).unwrap();
                    assert!(epoch >= last_epoch, "epoch went backwards: {epoch} < {last_epoch}");
                    assert!(epoch <= 1, "only one update is ever applied");
                    last_epoch = epoch;
                    if let Some(patterns) = resp.field("patterns").and_then(JsonValue::as_arr) {
                        let returned = resp.field("returned").and_then(JsonValue::as_num).unwrap();
                        assert_eq!(patterns.len() as u64, returned);
                    }
                }
            })
        })
        .collect();

    // One update lands while the readers are running.
    let db = test_db();
    let ops = plan_updates(&db, &UpdateParams::new(0.25, 2, UpdateKind::Mixed, 4).with_seed(5));
    let mut writer = Client::connect(addr).unwrap();
    let ack = writer.update(&ops).unwrap();
    assert_eq!(ack.field("epoch").and_then(JsonValue::as_num), Some(1));

    for r in readers {
        r.join().expect("reader thread panicked (deadlock or bad response)");
    }

    // Reconcile the counters with exactly what was issued.
    let status = writer.status(false).unwrap();
    let counters = status.field("counters").expect("counters object");
    let get = |name: &str| counters.field(name).and_then(JsonValue::as_num).unwrap();
    let expected_patterns = (READERS * ROUNDS).div_ceil(2) as u64; // per-thread split is exact
    assert_eq!(get("req_patterns"), expected_patterns);
    assert_eq!(get("req_support"), (READERS * ROUNDS) as u64 - expected_patterns);
    assert_eq!(get("req_update"), 1);
    assert_eq!(get("req_status"), 1, "only this reconciliation status");
    assert_eq!(get("req_errors"), 0);
    assert_eq!(get("wal_batches_appended"), 1);
    assert_eq!(get("epoch_swaps"), 1);
    assert_eq!(get("fold_delta") + get("fold_cold"), get("epoch_swaps"), "one fold per swap");
    let graphs: std::collections::BTreeSet<_> = ops.iter().map(|op| op.gid).collect();
    assert_eq!(get("fold_graphs_touched"), graphs.len() as u64, "the graphs the window names");

    writer.shutdown().unwrap();
    handle.wait().unwrap();
}

/// The streaming-ingest stress: N writers racing M readers through a
/// deliberately tiny ingest queue. Writers stream `ack: durable`
/// windows on disjoint graphs, counting every `backpressure` shed they
/// absorb; readers assert per-connection epoch monotonicity and
/// internally consistent responses throughout. Once the pipeline
/// drains, the counters must reconcile *exactly*: every acked window
/// journaled once and applied in one epoch swap, every shed counted on
/// both sides of the wire, and no request errors.
#[test]
fn concurrent_writers_and_readers_reconcile_exactly() {
    const WRITERS: usize = 4;
    const WINDOWS: usize = 6;
    const READERS: usize = 3;

    let dir = tempfile::tempdir().unwrap();
    let db = test_db();
    let mut cfg = EngineConfig { min_support: db.abs_support(0.3), ..EngineConfig::default() };
    cfg.max_pending = 2; // tiny staleness bound: force sheds
    let (engine, _) = ServeEngine::boot(Some(&db), dir.path(), &cfg).unwrap();
    let engine = Arc::new(engine);
    let handle = start(
        Arc::clone(&engine),
        &ServerConfig {
            workers: WRITERS + READERS + 1,
            queue_depth: 64,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = handle.addr();
    let done = Arc::new(AtomicBool::new(false));

    let readers: Vec<_> = (0..READERS)
        .map(|_| {
            let done = Arc::clone(&done);
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                let mut last_epoch = 0u64;
                let mut rounds = 0usize;
                while !done.load(Ordering::Relaxed) {
                    let resp = client.patterns(Some(1000), None).unwrap();
                    let epoch = resp.field("epoch").and_then(JsonValue::as_num).unwrap();
                    assert!(epoch >= last_epoch, "epoch went backwards: {epoch} < {last_epoch}");
                    assert!(epoch <= (WRITERS * WINDOWS) as u64, "epoch beyond the last window");
                    last_epoch = epoch;
                    let returned = resp.field("returned").and_then(JsonValue::as_num).unwrap();
                    let patterns = resp.field("patterns").and_then(JsonValue::as_arr).unwrap();
                    assert_eq!(patterns.len() as u64, returned, "half-assembled response");
                    rounds += 1;
                }
                rounds
            })
        })
        .collect();

    // Writers stream disjoint-graph relabels; any interleaving lands on
    // the same database, so readers can never observe a "wrong" merge.
    let writers: Vec<_> = (0..WRITERS)
        .map(|w| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                let retry = RetryPolicy { attempts: 1, base_ms: 1, cap_ms: 8, seed: w as u64 };
                let mut sheds = 0u64;
                for r in 0..WINDOWS {
                    let ops = vec![DbUpdate {
                        gid: w as u32,
                        update: GraphUpdate::RelabelVertex { v: 0, label: (10 + r) as u32 },
                    }];
                    let mut attempt = 0u32;
                    loop {
                        match client.update_once(&ops, AckMode::Durable) {
                            Ok(resp) => {
                                assert_eq!(
                                    resp.field("durable").and_then(JsonValue::as_num),
                                    Some(1)
                                );
                                break;
                            }
                            Err(e) if e.starts_with("backpressure") => {
                                sheds += 1;
                                std::thread::sleep(retry.backoff(attempt));
                                attempt += 1;
                            }
                            Err(e) => panic!("writer {w} window {r}: {e}"),
                        }
                    }
                }
                sheds
            })
        })
        .collect();

    let total_sheds: u64 = writers.into_iter().map(|h| h.join().unwrap()).sum();
    // Drain: every acked window must be folded in before reconciling.
    while engine.pending_windows() > 0 {
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    done.store(true, Ordering::Relaxed);
    let reader_rounds: usize = readers.into_iter().map(|h| h.join().unwrap()).sum();

    let total = (WRITERS * WINDOWS) as u64;
    assert_eq!(engine.current().epoch, total, "every acked window reached an epoch");
    let mut client = Client::connect(addr).unwrap();
    let status = client.status(false).unwrap();
    assert_eq!(status.field("pending_windows").and_then(JsonValue::as_num), Some(0));
    let counters = status.field("counters").expect("counters object");
    let get = |name: &str| counters.field(name).and_then(JsonValue::as_num).unwrap();
    assert_eq!(get("ingest_windows"), total);
    assert_eq!(get("wal_batches_appended"), total);
    assert_eq!(get("epoch_swaps"), total);
    assert_eq!(get("fold_delta") + get("fold_cold"), get("epoch_swaps"), "one fold per swap");
    assert_eq!(get("req_update"), total, "sheds must not count as served updates");
    assert_eq!(get("ingest_ops_in"), total, "one op per window, sheds admitted nothing");
    assert_eq!(
        get("ingest_backpressure"),
        total_sheds,
        "server-side sheds must match what the writers absorbed"
    );
    assert_eq!(get("req_errors"), 0, "backpressure is shedding, not an error");
    assert_eq!(get("req_patterns"), reader_rounds as u64);
    let peak = get("ingest_pending_peak");
    assert!(
        (1..=cfg.max_pending as u64).contains(&peak),
        "pending peak {peak} escaped the staleness bound {}",
        cfg.max_pending
    );
    assert!(get("wal_group_commits") <= get("wal_group_frames"));
    assert_eq!(get("wal_group_frames"), total, "every window in exactly one group frame");

    client.shutdown().unwrap();
    handle.wait().unwrap();
}
