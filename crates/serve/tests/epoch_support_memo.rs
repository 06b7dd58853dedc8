//! Epoch-keyed support memo: a reader racing an epoch swap must never be
//! answered from another generation's memo.
//!
//! The database is built so the probe pattern's exact support is a pure
//! function of the epoch (each update batch removes exactly one
//! supporter), which turns every `(epoch, support)` observation into a
//! self-checking assertion: any cross-epoch memo leak shows up as a
//! support that disagrees with the epoch it was reported for.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use graphmine_graph::{DbUpdate, Graph, GraphDb, GraphUpdate};
use graphmine_serve::{EngineConfig, ServeEngine};

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

/// The `(epoch, code)` memo holds at most two generations — the served
/// epoch plus N-1 for in-flight readers — no matter how many swaps a
/// long-running daemon goes through. Before the swap-time eviction this
/// was an unbounded leak: one entry per probed epoch, forever.
#[test]
fn memo_size_is_pinned_across_a_hundred_swaps() {
    let dir = tempfile::tempdir().unwrap();
    let engine = boot(dir.path());
    let probe = probe();

    // Prime epoch 0, swap once: the N-1 generation must survive the
    // swap so a reader still holding epoch 0's Arc hits its memo.
    let ep0 = engine.current();
    assert_eq!(engine.support_of(&ep0, &probe).0, 4);
    assert_eq!(engine.memo_size(), 1);
    engine.apply_update(&batch(0)).unwrap();
    assert_eq!(engine.memo_size(), 1, "the previous generation survives one swap");
    assert_eq!(engine.support_of(&ep0, &probe).0, 4);

    // A hundred more swaps, probing each epoch: the memo never holds
    // more than the two live generations (one probed code per epoch).
    let relabel =
        |to| vec![DbUpdate { gid: 0, update: GraphUpdate::RelabelEdge { e: 0, label: to } }];
    for i in 0..100u32 {
        let to = if i % 2 == 0 { 10 } else { 99 };
        engine.apply_update(&relabel(to)).unwrap();
        let ep = engine.current();
        let expect = if to == 10 { 4 } else { 3 };
        assert_eq!(engine.support_of(&ep, &probe).0, expect);
        let support_len = engine.memo_size();
        assert!(
            support_len <= 2,
            "support memo leaked: {support_len} entries at epoch {}",
            ep.epoch
        );
    }
    assert_eq!(engine.current().epoch, 101);
}

/// Reader threads hammer the support path while the main thread applies
/// four epoch-stepping batches. Every observation must satisfy
/// `support == 4 - epoch` — a cross-epoch memo hit breaks the equation.
#[test]
fn racing_readers_never_see_a_stale_memo() {
    const READERS: usize = 4;

    let dir = tempfile::tempdir().unwrap();
    let engine = Arc::new(boot(dir.path()));
    let stop = Arc::new(AtomicBool::new(false));

    let readers: Vec<_> = (0..READERS)
        .map(|_| {
            let engine = Arc::clone(&engine);
            let stop = Arc::clone(&stop);
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
                    observations += 1;
                }
                observations
            })
        })
        .collect();

    for gid in 0..4 {
        engine.apply_update(&batch(gid)).unwrap();
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    stop.store(true, Ordering::Relaxed);
    let total: usize = readers.into_iter().map(|h| h.join().unwrap()).sum();
    assert!(total > 0, "readers observed at least one answer");
    assert_eq!(engine.current().epoch, 4);
}
