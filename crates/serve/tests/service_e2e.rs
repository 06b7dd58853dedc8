//! End-to-end durability tests for the serving daemon: an acknowledged
//! update must survive an abrupt kill, a torn journal tail must be
//! ignored, and recovery must land on exactly the state the batch
//! `incremental` pipeline produces for the same updates.

use std::sync::Arc;

use graphmine_core::{IncPartMiner, PartMiner, PartMinerConfig};
use graphmine_datagen::{generate, plan_updates, GenParams, UpdateKind, UpdateParams};
use graphmine_graph::{DbUpdate, GraphDb, PatternSet, Support};
use graphmine_serve::{start, Client, EngineConfig, ServeEngine, ServerConfig};
use graphmine_telemetry::JsonValue;

fn test_db() -> GraphDb {
    // D=24 graphs, T=6 edges avg, N=4 labels, L=4 kernels, I=3 edges.
    generate(&GenParams::new(24, 6, 4, 4, 3).with_seed(11))
}

fn engine_cfg(db: &GraphDb) -> EngineConfig {
    EngineConfig { min_support: db.abs_support(0.3), ..EngineConfig::default() }
}

fn update_plan(db: &GraphDb, seed: u64) -> Vec<DbUpdate> {
    plan_updates(db, &UpdateParams::new(0.25, 2, UpdateKind::Mixed, 4).with_seed(seed))
}

/// Two consecutive batches, the second planned against the database
/// *after* the first (planning both against the original could collide,
/// e.g. re-adding an edge the first batch already added).
fn two_batches(db: &GraphDb, seed: u64) -> (Vec<DbUpdate>, Vec<DbUpdate>) {
    let batch1 = update_plan(db, seed);
    let mut db1 = db.clone();
    graphmine_graph::update::apply_all(&mut db1, &batch1).expect("batch1 applies");
    let batch2 = update_plan(&db1, seed + 1);
    (batch1, batch2)
}

/// The reference result: cold-mine the original database, then fold the
/// same batches in with the batch incremental pipeline (what the CLI's
/// `incremental` command runs).
fn batch_incremental(db: &GraphDb, min_support: Support, batches: &[Vec<DbUpdate>]) -> PatternSet {
    let cfg = PartMinerConfig::with_k(2);
    let mut state = PartMiner::new(cfg).mine(db, &[], min_support).state;
    for batch in batches {
        IncPartMiner::update(&mut state, batch).expect("reference update applies");
    }
    state.patterns().clone()
}

/// Sorted `(support, code-json)` pairs from a `patterns` response — a
/// comparable fingerprint of what the server handed out.
fn response_fingerprint(resp: &JsonValue) -> Vec<(u64, String)> {
    let mut out: Vec<(u64, String)> = resp
        .field("patterns")
        .and_then(JsonValue::as_arr)
        .expect("patterns array")
        .iter()
        .map(|p| {
            (
                p.field("support").and_then(JsonValue::as_num).expect("support"),
                p.field("code").expect("code").to_json(),
            )
        })
        .collect();
    out.sort();
    out
}

fn set_fingerprint(set: &PatternSet) -> Vec<(u64, String)> {
    let mut out: Vec<(u64, String)> = set
        .iter()
        .map(|p| (u64::from(p.support), graphmine_serve::protocol::code_to_json(&p.code).to_json()))
        .collect();
    out.sort();
    out
}

#[test]
fn acked_update_survives_abort_and_matches_batch_incremental() {
    let dir = tempfile::tempdir().unwrap();
    let db = test_db();
    let cfg = engine_cfg(&db);
    let ops = update_plan(&db, 5);
    assert!(!ops.is_empty());

    // Serve, update over the wire, read the post-update patterns.
    let (engine, boot) = ServeEngine::boot(Some(&db), dir.path(), &cfg).unwrap();
    assert_eq!(boot.epoch, 0);
    let handle = start(Arc::new(engine), &ServerConfig::default()).unwrap();
    let addr = handle.addr();
    let mut client = Client::connect(addr).unwrap();
    let ack = client.update(&ops).unwrap();
    assert_eq!(ack.field("epoch").and_then(JsonValue::as_num), Some(1));
    let live = client.patterns(Some(100_000), None).unwrap();
    assert_eq!(live.field("epoch").and_then(JsonValue::as_num), Some(1));
    drop(client);

    // Kill without shutdown: no snapshot refresh, no journal truncation.
    handle.abort();

    // Recover and serve again: the ack must hold.
    let (engine, boot) = ServeEngine::boot(None, dir.path(), &cfg).unwrap();
    assert!(boot.from_snapshot);
    assert_eq!(boot.replayed, 1, "the acked batch is replayed from the journal");
    assert_eq!(boot.epoch, 1);
    let handle = start(Arc::new(engine), &ServerConfig::default()).unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    let recovered = client.patterns(Some(100_000), None).unwrap();
    assert_eq!(recovered.field("epoch").and_then(JsonValue::as_num), Some(1));
    assert_eq!(
        response_fingerprint(&recovered),
        response_fingerprint(&live),
        "recovery serves exactly the acknowledged patterns"
    );

    // And both equal the uninterrupted batch pipeline on the same ops.
    let reference = batch_incremental(&db, cfg.min_support, &[ops]);
    assert_eq!(response_fingerprint(&live), set_fingerprint(&reference));

    client.shutdown().unwrap();
    handle.wait().unwrap();
}

#[test]
fn torn_journal_tail_recovers_to_last_acked_batch() {
    let dir = tempfile::tempdir().unwrap();
    let db = test_db();
    let cfg = engine_cfg(&db);
    let (batch1, batch2) = two_batches(&db, 21);

    // Two acknowledged batches, then a crash that tears the second
    // frame in half on disk. The file is page-padded, so the frame
    // boundaries come from the frame headers, not the file length.
    let wal = dir.path().join("journal.wal");
    {
        let (engine, _) = ServeEngine::boot(Some(&db), dir.path(), &cfg).unwrap();
        engine.apply_update(&batch1).unwrap();
        engine.apply_update(&batch2).unwrap();
    }
    let bytes = std::fs::read(&wal).unwrap();
    let frame_len = |at: usize| u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) as usize;
    let after_first = 8 + frame_len(0);
    let cut = after_first + 8 + frame_len(after_first) / 2;
    assert!(cut < bytes.len());
    std::fs::write(&wal, &bytes[..cut]).unwrap();

    // Only the intact first batch comes back.
    let (engine, boot) = ServeEngine::boot(None, dir.path(), &cfg).unwrap();
    assert_eq!(boot.replayed, 1, "torn second batch is ignored");
    assert_eq!(boot.epoch, 1);
    let reference = batch_incremental(&db, cfg.min_support, std::slice::from_ref(&batch1));
    assert!(engine.current().patterns.same_codes_and_supports(&reference));

    // The journal stays usable: the next update acks as batch 2 again.
    let ack = engine.apply_update(&batch2).unwrap();
    assert_eq!(ack.seq, 2);
    let reference = batch_incremental(&db, cfg.min_support, &[batch1, batch2]);
    assert!(engine.current().patterns.same_codes_and_supports(&reference));
}

/// Group-commit durability end to end: windows streamed concurrently
/// with `ack: durable` share fsync barriers (grouped frames in the WAL),
/// the process dies without a clean stop, and recovery must replay every
/// acked window — the torn-tail contract extended from single
/// `append_batch` frames to grouped ones.
#[test]
fn grouped_durable_acks_survive_abort() {
    let dir = tempfile::tempdir().unwrap();
    let db = test_db();
    let cfg = engine_cfg(&db);

    const WRITERS: usize = 4;
    const WINDOWS: usize = 2;
    // Disjoint relabel targets per writer: any admission order lands on
    // the same final database, so the reference is order-free.
    let window = |w: usize, r: usize| {
        vec![DbUpdate {
            gid: (w * WINDOWS + r) as u32,
            update: graphmine_graph::GraphUpdate::RelabelVertex {
                v: 0,
                label: 100 + (w * WINDOWS + r) as u32,
            },
        }]
    };

    {
        let (engine, _) = ServeEngine::boot(Some(&db), dir.path(), &cfg).unwrap();
        let engine = Arc::new(engine);
        let acked: Vec<u64> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..WRITERS)
                .map(|w| {
                    let engine = Arc::clone(&engine);
                    s.spawn(move || {
                        (0..WINDOWS)
                            .map(|r| engine.submit_window(&window(w, r)).unwrap().seq)
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles.into_iter().flat_map(|h| h.join().unwrap()).collect()
        });
        let mut seqs = acked.clone();
        seqs.sort_unstable();
        assert_eq!(seqs, (1..=(WRITERS * WINDOWS) as u64).collect::<Vec<_>>());
        // Durable acks only — the kill may land before application.
        drop(engine);
    }

    let (engine, boot) = ServeEngine::boot(None, dir.path(), &cfg).unwrap();
    assert_eq!(boot.replayed, WRITERS * WINDOWS, "every durable ack must replay");
    assert_eq!(boot.epoch, (WRITERS * WINDOWS) as u64);
    let all_ops: Vec<DbUpdate> =
        (0..WRITERS).flat_map(|w| (0..WINDOWS).flat_map(move |r| window(w, r))).collect();
    let reference = batch_incremental(&db, cfg.min_support, &[all_ops]);
    assert!(
        engine.current().patterns.same_codes_and_supports(&reference),
        "recovered result diverges from the batch pipeline on the same windows"
    );
}

#[test]
fn clean_shutdown_then_crash_replays_nothing_twice() {
    let dir = tempfile::tempdir().unwrap();
    let db = test_db();
    let cfg = engine_cfg(&db);
    let (batch1, batch2) = two_batches(&db, 31);

    // Batch 1, clean stop (folds it into the snapshot), then batch 2
    // and a kill: recovery must replay batch 2 on top of the batch-1
    // snapshot — once.
    {
        let (engine, _) = ServeEngine::boot(Some(&db), dir.path(), &cfg).unwrap();
        engine.apply_update(&batch1).unwrap();
        engine.clean_stop().unwrap();
    }
    {
        let (engine, boot) = ServeEngine::boot(None, dir.path(), &cfg).unwrap();
        assert_eq!(boot.replayed, 0);
        assert_eq!(boot.epoch, 1);
        engine.apply_update(&batch2).unwrap();
        // Dropped without clean_stop: the kill.
    }
    let (engine, boot) = ServeEngine::boot(None, dir.path(), &cfg).unwrap();
    assert_eq!(boot.replayed, 1);
    assert_eq!(boot.epoch, 2);
    let reference = batch_incremental(&db, cfg.min_support, &[batch1, batch2]);
    assert!(engine.current().patterns.same_codes_and_supports(&reference));
}

#[test]
fn support_queries_agree_with_isomorphism_search_across_updates() {
    let dir = tempfile::tempdir().unwrap();
    let db = test_db();
    let cfg = engine_cfg(&db);
    let (engine, _) = ServeEngine::boot(Some(&db), dir.path(), &cfg).unwrap();
    let handle = start(Arc::new(engine), &ServerConfig::default()).unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();

    let ops = update_plan(&db, 41);
    client.update(&ops).unwrap();

    // Ask for the support of currently frequent patterns and check each
    // against a plain isomorphism count on the updated database.
    let updated = handle.engine().current();
    let mut asked = 0;
    for pattern in updated.patterns.iter().take(20) {
        let resp = client.support(&pattern.code).unwrap();
        let got = resp.field("support").and_then(JsonValue::as_num).unwrap();
        let want = graphmine_graph::iso::support(&updated.db, &pattern.code);
        assert_eq!(got, u64::from(want), "code {:?}", pattern.code);
        assert_eq!(resp.field("source").and_then(JsonValue::as_str), Some("patterns"));
        asked += 1;
    }
    assert!(asked > 0);

    client.shutdown().unwrap();
    handle.wait().unwrap();
}
