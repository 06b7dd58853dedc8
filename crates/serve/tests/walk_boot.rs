//! The daemon mines what it serves with one walk over its database: no
//! partition tree, no unit mines, and a boot that applies the journal as
//! data before mining once.

use std::sync::Arc;

use graphmine_datagen::{generate, plan_updates, GenParams, UpdateKind, UpdateParams};
use graphmine_graph::{apply_all, DbUpdate, GraphUpdate};
use graphmine_miner::{GSpan, MemoryMiner};
use graphmine_serve::{start, EngineConfig, ServeEngine, ServerConfig};
use graphmine_storage::UpdateJournal;
use graphmine_telemetry::{Counter, Telemetry};

/// Walks the telemetry recorded: the walk opens one `check_frequency`
/// span per call.
fn walks(tel: &Telemetry) -> usize {
    tel.spans().iter().filter(|s| s.name == "check_frequency").count()
}

/// At θ = 2 a k = 4 partition tree mines its units at ⌈2/4⌉ = 1, which
/// enumerates every subgraph of every piece (a 32 s, 7.35 GB boot on
/// D1000 T20). The daemon walks the whole database at θ instead: it mines no
/// unit and merges no node, so this fails at a partitioned daemon on a
/// counter, not a clock.
#[test]
fn a_daemon_at_theta_two_mines_no_unit() {
    let dir = tempfile::tempdir().unwrap();
    let db = generate(&GenParams::new(40, 20, 20, 10, 5).with_seed(2));
    let cfg = EngineConfig { min_support: 2, ..EngineConfig::default() };
    let (engine, _) = ServeEngine::boot(Some(&db), dir.path(), &cfg).unwrap();
    let truth = GSpan::new().mine(&db, 2);
    assert!(!truth.is_empty());
    assert!(engine.current().patterns.same_codes_and_supports(&truth));

    let counters = engine.telemetry().counters();
    assert_eq!(counters.get(Counter::UnitsMined), 0);
    assert_eq!(counters.get(Counter::NodesMerged), 0);
    assert_eq!(walks(engine.telemetry()), 1, "one walk at boot");

    // A fold is one walk too, and still no unit.
    let ops = vec![DbUpdate { gid: 0, update: GraphUpdate::RelabelVertex { v: 0, label: 99 } }];
    engine.apply_update(&ops).unwrap();
    assert_eq!(counters.get(Counter::UnitsMined), 0);
    assert_eq!(counters.get(Counter::NodesMerged), 0);
    assert_eq!(walks(engine.telemetry()), 2, "one walk per window");
}

/// Recovery costs N applies plus one mine, not N folds: 50 journaled
/// windows and an abort (no clean stop) boot back to a from-scratch mine
/// of base plus windows, with one walk. A journaled batch that does not
/// apply still fails the boot and names its sequence number.
#[test]
fn boot_replays_the_journal_as_data_then_walks_once() {
    const WINDOWS: usize = 50;
    let dir = tempfile::tempdir().unwrap();
    let db = generate(&GenParams::new(24, 6, 4, 4, 3).with_seed(11));
    let cfg = EngineConfig { min_support: db.abs_support(0.3), ..EngineConfig::default() };

    // Each window is planned against the database the previous ones left.
    let mut expected = db.clone();
    let windows: Vec<Vec<DbUpdate>> = (0..WINDOWS as u64)
        .map(|i| {
            let params = UpdateParams::new(0.1, 1, UpdateKind::Mixed, 4).with_seed(100 + i);
            let w = plan_updates(&expected, &params);
            apply_all(&mut expected, &w).unwrap();
            w
        })
        .collect();

    let (engine, _) = ServeEngine::boot(Some(&db), dir.path(), &cfg).unwrap();
    let handle = start(Arc::new(engine), &ServerConfig::default()).unwrap();
    for w in &windows {
        handle.engine().apply_update(w).unwrap();
    }
    handle.abort();

    let (engine, boot) = ServeEngine::boot(None, dir.path(), &cfg).unwrap();
    assert!(boot.from_snapshot);
    assert_eq!(boot.replayed, WINDOWS);
    assert_eq!(boot.epoch, WINDOWS as u64);
    let served = engine.current();
    assert_eq!(*served.db, expected);
    let truth = GSpan::new().mine(&expected, cfg.min_support);
    assert!(served.patterns.same_codes_and_supports(&truth));
    let tel = engine.telemetry();
    assert_eq!(tel.counters().get(Counter::WalBatchesReplayed), WINDOWS as u64);
    assert_eq!(walks(tel), 1, "{WINDOWS} applies, then one walk");
    drop(served);
    drop(engine);

    // An inapplicable batch lands in the journal behind the good ones.
    let wal = dir.path().join("journal.wal");
    let (mut journal, _) = UpdateJournal::recover(&wal, 64).unwrap();
    let bad = vec![DbUpdate { gid: 999, update: GraphUpdate::RelabelVertex { v: 0, label: 1 } }];
    let seq = journal.append_batch(&bad).unwrap();
    drop(journal);
    let err =
        ServeEngine::boot(None, dir.path(), &cfg).err().expect("the bad batch fails the boot");
    assert!(err.starts_with(&format!("journal replay (batch {seq}): ")), "{err}");
}
