//! The support memo each epoch owns: a reader racing an epoch swap must
//! never be answered from another generation's memo, a superseded epoch's
//! memo is freed with it, and no epoch keeps more than its bound.
//!
//! The database is built so the probe pattern's exact support is a pure
//! function of the epoch (each update batch removes exactly one
//! supporter), which turns every `(epoch, support)` observation into a
//! self-checking assertion: any cross-epoch memo leak shows up as a
//! support that disagrees with the epoch it was reported for.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use graphmine_graph::dfscode::min_dfs_code;
use graphmine_graph::{iso, DbUpdate, Graph, GraphDb, GraphUpdate};
use graphmine_serve::{EngineConfig, ServeEngine};
use graphmine_telemetry::Counter;

/// Six graphs. Edge 0 (`0-1`, label 10) is the probe: present in graphs
/// 0..4 only, so its support starts at 4 and relabeling it in one graph
/// per batch steps the support down 4 → 3 → 2 → 1 as the epoch steps up.
/// Edge `2-3` (label 20) appears in all six graphs, keeping `P(D)`
/// non-empty at `min_support = 6`.
fn stepped_db() -> GraphDb {
    (0..6u32)
        .map(|i| {
            let mut g = Graph::new();
            for l in 0..4 {
                g.add_vertex(l);
            }
            let probe_label = if i < 4 { 10 } else { 99 };
            g.add_edge(0, 1, probe_label).unwrap(); // edge 0: the probe
            g.add_edge(1, 2, 30 + i).unwrap(); // unique filler, support 1
            g.add_edge(2, 3, 20).unwrap(); // frequent everywhere
            g
        })
        .collect()
}

fn probe() -> Graph {
    let mut g = Graph::new();
    g.add_vertex(0);
    g.add_vertex(1);
    g.add_edge(0, 1, 10).unwrap();
    g
}

fn batch(gid: u32) -> Vec<DbUpdate> {
    vec![DbUpdate { gid, update: GraphUpdate::RelabelEdge { e: 0, label: 99 } }]
}

fn boot(dir: &std::path::Path) -> ServeEngine {
    let cfg = EngineConfig { min_support: 6, ..EngineConfig::default() };
    let (engine, _) = ServeEngine::boot(Some(&stepped_db()), dir, &cfg).unwrap();
    engine
}

/// Deterministic white-box interleaving: a reader that grabbed its epoch
/// `Arc` *before* the swap keeps getting the old epoch's answer, and the
/// new epoch's first answer is never satisfied from the old memo.
#[test]
fn reader_holding_old_epoch_is_answered_from_its_own_generation() {
    let dir = tempfile::tempdir().unwrap();
    let engine = boot(dir.path());
    let probe = probe();

    let ep0 = engine.current();
    assert_eq!(ep0.epoch, 0);
    // Prime the memo for epoch 0 (the probe is infrequent at minsup 6).
    assert_eq!(engine.support_of(&ep0, &probe).0, 4);

    // The swap happens while the reader still holds `ep0`.
    engine.apply_update(&batch(0)).unwrap();
    let ep1 = engine.current();
    assert_eq!(ep1.epoch, 1);

    // New epoch: must not see epoch 0's memoized 4.
    assert_eq!(engine.support_of(&ep1, &probe).0, 3);
    // Old epoch Arc: must not see epoch 1's memoized 3.
    assert_eq!(engine.support_of(&ep0, &probe).0, 4);
    // And the memo hits keep both generations separate.
    assert_eq!(engine.support_of(&ep1, &probe).0, 3);
    assert_eq!(engine.support_of(&ep0, &probe).0, 4);
}

/// Each epoch owns its memo, so a superseded epoch's entries go with it:
/// once its last reader lets go and a window applies, nothing holds it.
/// Until then a reader still holding it hits its own memo, and the hit is
/// counted as a hit, not as the source it saved.
#[test]
fn a_superseded_epoch_frees_its_memo() {
    let dir = tempfile::tempdir().unwrap();
    let engine = boot(dir.path());
    let probe = probe();
    let hits = || engine.telemetry().counters().get(Counter::SupportMemoHits);
    let counted = || engine.telemetry().counters().get(Counter::SupportFromEmbeddings);

    let ep0 = engine.current();
    assert_eq!(engine.support_of(&ep0, &probe).0, 4);
    assert_eq!((engine.memo_size(), hits(), counted()), (1, 0, 1));
    engine.apply_update(&batch(0)).unwrap();
    assert_eq!(engine.memo_size(), 0, "the new epoch starts with an empty memo");
    assert_eq!(engine.support_of(&ep0, &probe).0, 4);
    assert_eq!((hits(), counted()), (1, 1), "the old epoch's reader hit its own memo");

    let epoch0 = Arc::downgrade(&ep0);
    drop(ep0);
    engine.apply_update(&batch(1)).unwrap();
    assert!(epoch0.upgrade().is_none(), "epoch 0 and its memo outlived their last reader");
}

/// ROADMAP 26's reproduction: 20,000 distinct codes no graph holds, asked
/// at one epoch. Every one is answered exactly, and the memo keeps no more
/// than its bound (it kept all 20,000 while the memo was engine-wide).
#[test]
fn distinct_misses_past_the_bound_are_answered_not_kept() {
    let dir = tempfile::tempdir().unwrap();
    let engine = boot(dir.path());
    let ep = engine.current();
    let bound = ep.memo_bound;
    assert!(bound > 0 && bound < 100, "bound {bound}");
    for label in 1000..21_000u32 {
        let mut g = Graph::new();
        g.add_vertex(label);
        g.add_vertex(label);
        g.add_edge(0, 1, 7).unwrap();
        let want = iso::support(&ep.db, &min_dfs_code(&g));
        assert_eq!(engine.support_of(&ep, &g).0, want, "label {label}");
    }
    assert_eq!(engine.memo_size(), bound, "the memo filled to its bound and stopped");
    let counters = engine.telemetry().counters();
    assert_eq!(counters.get(Counter::SupportFromEmbeddings), 20_000);
    assert_eq!(counters.get(Counter::SupportMemoHits), 0);
}

/// Reader threads hammer the support path while the main thread applies
/// four epoch-stepping batches. Every observation must satisfy
/// `support == 4 - epoch` — a cross-epoch memo hit breaks the equation.
/// The main thread moves on from an epoch only once a reader has answered
/// at it, so every epoch 0–4 is observed whatever the scheduler does.
#[test]
fn racing_readers_never_see_a_stale_memo() {
    const READERS: usize = 4;

    let dir = tempfile::tempdir().unwrap();
    let engine = Arc::new(boot(dir.path()));
    let stop = Arc::new(AtomicBool::new(false));
    // Bit `e` is set once a reader has answered at epoch `e`.
    let observed = Arc::new(AtomicU64::new(0));

    let readers: Vec<_> = (0..READERS)
        .map(|_| {
            let engine = Arc::clone(&engine);
            let stop = Arc::clone(&stop);
            let observed = Arc::clone(&observed);
            std::thread::spawn(move || {
                let probe = probe();
                let mut observations = 0usize;
                while !stop.load(Ordering::Relaxed) {
                    let ep = engine.current();
                    let (support, _) = engine.support_of(&ep, &probe);
                    assert_eq!(
                        u64::from(support),
                        4 - ep.epoch,
                        "epoch {} answered with support {support}",
                        ep.epoch
                    );
                    observed.fetch_or(1 << ep.epoch, Ordering::Release);
                    observations += 1;
                }
                observations
            })
        })
        .collect();

    let wait_for_answer_at = |epoch: u64| {
        let deadline = Instant::now() + Duration::from_secs(10);
        while observed.load(Ordering::Acquire) & (1 << epoch) == 0 {
            if Instant::now() > deadline {
                stop.store(true, Ordering::Relaxed);
                panic!("no reader answered at epoch {epoch} within 10 s");
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    };
    wait_for_answer_at(0);
    for gid in 0..4 {
        engine.apply_update(&batch(gid)).unwrap();
        wait_for_answer_at(u64::from(gid) + 1);
    }
    stop.store(true, Ordering::Relaxed);
    let total: usize = readers.into_iter().map(|h| h.join().unwrap()).sum();
    assert!(total >= 5, "readers answered {total} times");
    assert_eq!(observed.load(Ordering::Acquire), 0b1_1111, "every epoch 0–4 was observed");
    assert_eq!(engine.current().epoch, 4);
}
