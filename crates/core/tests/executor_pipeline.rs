//! One pool, three call sites: the same [`Executor`] drives a full mine
//! (unit mining + merge verification), an incremental round (touched-unit
//! re-mining), and a standalone merge-join verification batch — in that
//! order, in one run. Every pooled result must match its serial
//! counterpart, and the pool's counters must show it actually ran the
//! jobs. This is the reuse story the ad-hoc crossbeam scopes could not
//! offer: one thread budget resolved once, shared by the whole pipeline.

use graphmine_core::{
    merge_join, Executor, IncPartMiner, MergeContext, PartMiner, PartMinerConfig,
};
use graphmine_datagen::{generate, plan_updates, GenParams, UpdateKind, UpdateParams};
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
        let sides = part.assign(g, &uf);
        let split = split_by_sides(g, &uf, &sides);
        d0.push(split.side1.graph);
        d1.push(split.side2.graph);
    }
    (d0, d1)
}

#[test]
fn one_pool_serves_mining_incremental_and_verification() {
    let db = generate(&GenParams::new(24, 9, 3, 8, 4).with_seed(1234));
    let uf: Vec<Vec<f64>> = db.iter().map(|(_, g)| vec![0.0; g.vertex_count()]).collect();
    let sup = 3;
    let exec = Executor::new(3);

    // Call site 1: unit mining (and the merge verification under it).
    let cfg = PartMinerConfig::with_k(3);
    let miner = PartMiner::new(cfg);
    let serial = miner.mine(&db, &uf, sup);
    let pooled = miner.mine_on(&db, &uf, sup, &exec, &Telemetry::new());
    assert!(
        serial.patterns.same_codes_and_supports(&pooled.patterns),
        "mine: serial {} vs pooled {} patterns",
        serial.patterns.len(),
        pooled.patterns.len()
    );
    assert_eq!(serial.stats.merge, pooled.stats.merge, "mine: merge stats diverged");
    let after_mine = exec.counters();
    assert!(after_mine.jobs >= 3, "the pool never saw the unit-mining jobs");

    // Call site 2: incremental re-mining of touched units, same pool.
    let updates =
        plan_updates(&db, &UpdateParams::new(0.4, 2, UpdateKind::Mixed, 10).with_seed(99));
    assert!(!updates.is_empty(), "the planned batch is empty");
    let mut serial_state = serial.state;
    let mut pooled_state = pooled.state;
    let inc_serial = IncPartMiner::update(&mut serial_state, &updates).expect("applicable batch");
    let inc_pooled = IncPartMiner::update_on(&mut pooled_state, &updates, &exec, &Telemetry::new())
        .expect("applicable batch");
    assert!(
        inc_serial.patterns.same_codes_and_supports(&inc_pooled.patterns),
        "incremental: serial {} vs pooled {} patterns",
        inc_serial.patterns.len(),
        inc_pooled.patterns.len()
    );
    assert_eq!(inc_serial.stats.units_remined, inc_pooled.stats.units_remined);

    // Call site 3: a standalone merge-join verification batch, same pool.
    let (d0, d1) = split_db(&db);
    let p0 = GSpan::new().mine(&d0, 1);
    let p1 = GSpan::new().mine(&d1, 1);
    let run = |executor: Option<&Executor>| {
        let ctx =
            MergeContext { db: &db, min_support: 2, max_edges: Some(4), executor, telemetry: None };
        merge_join(&ctx, &p0, &p1)
    };
    let (merged_serial, stats_serial) = run(None);
    let (merged_pooled, stats_pooled) = run(Some(&exec));
    assert!(
        merged_serial.same_codes_and_supports(&merged_pooled),
        "verify: serial {} vs pooled {} patterns",
        merged_serial.len(),
        merged_pooled.len()
    );
    assert_eq!(stats_serial, stats_pooled, "verify: merge stats diverged");

    // The pool survived all three call sites and kept counting.
    let end = exec.counters();
    assert!(end.jobs > after_mine.jobs, "later call sites never reached the pool");
    assert_eq!(end.panics, 0);
    assert!(end.steals <= end.jobs, "more steals than jobs");
}
