//! Regression: the parallel merge-join folded `MergeStats` in thread
//! *completion* order and could drop or double-absorb a chunk's counters
//! under racy schedules. The executor now returns per-job results in
//! submission order, so the totals are a pure function of the work list —
//! serial and executor-backed runs must report identical stats, not just
//! identical pattern sets.

use graphmine_core::{merge_join, Executor, MergeContext};
use graphmine_datagen::{generate, GenParams};
use graphmine_graph::GraphDb;
use graphmine_miner::{GSpan, MemoryMiner};
use graphmine_partition::{split_by_sides, Bipartitioner, Criteria, GraphPart};
use graphmine_telemetry::Telemetry;

/// Splits every graph in two with the paper's partitioner, producing the
/// unit databases a 2-unit PartMiner would mine.
fn split_db(db: &GraphDb) -> (GraphDb, GraphDb) {
    let part = GraphPart::new(Criteria::MIN_CONNECTIVITY);
    let mut d0 = GraphDb::new();
    let mut d1 = GraphDb::new();
    for (_, g) in db.iter() {
        let uf = vec![0.0; g.vertex_count()];
        let sides = part.sides(g, &uf);
        let split = split_by_sides(g, &sides);
        d0.push(split.side1.into_graph());
        d1.push(split.side2.into_graph());
    }
    (d0, d1)
}

/// A few-label database mined at low unit support produces hundreds of
/// candidates per level — enough to cross the parallel batching floor so
/// the threaded fold really runs.
#[test]
fn parallel_merge_stats_match_serial_on_a_large_batch() {
    let db = generate(&GenParams::new(24, 9, 3, 8, 4).with_seed(1234));
    let (d0, d1) = split_db(&db);
    let p0 = GSpan::new().mine(&d0, 1);
    let p1 = GSpan::new().mine(&d1, 1);
    assert!(
        p0.len() + p1.len() > 128,
        "workload too small to engage the parallel path: {} + {}",
        p0.len(),
        p1.len()
    );

    let exec = Executor::new(4);
    let run = |executor: Option<&Executor>| {
        let tel = Telemetry::new();
        let ctx = MergeContext {
            db: &db,
            min_support: 2,
            max_edges: Some(4),
            executor,
            telemetry: Some(&tel),
        };
        let (merged, stats) = merge_join(&ctx, &[&p0, &p1]);
        (merged, stats, tel.counters().snapshot())
    };
    let (serial, serial_stats, serial_counts) = run(None);
    let (parallel, parallel_stats, parallel_counts) = run(Some(&exec));
    assert!(
        serial.same_codes_and_supports(&parallel),
        "serial {} vs parallel {} patterns",
        serial.len(),
        parallel.len()
    );
    assert_eq!(serial_stats, parallel_stats, "merge stats diverged");
    assert_eq!(serial_counts, parallel_counts, "counters diverged");
}
