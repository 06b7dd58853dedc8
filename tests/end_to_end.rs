//! End-to-end scenario: the full dynamic-mining lifecycle the paper
//! motivates — generate, partition, mine, stream several update batches,
//! and keep PartMiner/IncPartMiner/ADIMINE consistent throughout.

use graphmine_adimine::{AdiConfig, AdiMine};
use graphmine_core::{IncPartMiner, PartMiner, PartMinerConfig};
use graphmine_datagen::{
    generate, plan_updates, ufreq_from_updates, GenParams, UpdateKind, UpdateParams,
};
use graphmine_graph::update::apply_all;
use graphmine_miner::{GSpan, MemoryMiner};
use graphmine_telemetry::Counters;

#[test]
fn dynamic_lifecycle_stays_consistent_across_batches() {
    let db0 = generate(&GenParams::new(40, 8, 4, 8, 3));
    let sup = db0.abs_support(0.15);

    // Plan three successive update batches against the evolving database.
    let mut mirror = db0.clone();
    let mut batches = Vec::new();
    for round in 0..3u64 {
        let params = UpdateParams::new(0.3, 2, UpdateKind::Mixed, 4).with_seed(round * 7919 + 13);
        let plan = plan_updates(&mirror, &params);
        apply_all(&mut mirror, &plan).unwrap();
        batches.push(plan);
    }
    // ufreq from the first batch (what the partitioner can know up front).
    let ufreq = ufreq_from_updates(&db0, &batches[0]).expect("the plan applies");

    // Initial mining.
    let cfg = PartMinerConfig::with_k(3);
    let outcome = PartMiner::new(cfg).mine(&db0, &ufreq, sup);
    let mut state = outcome.state;

    // ADIMINE lives beside it and is fully rebuilt per batch.
    let dir = tempfile::tempdir().unwrap();
    let mut adi = AdiMine::build(dir.path(), &db0, AdiConfig::default()).unwrap();

    let mut current = db0.clone();
    for (round, plan) in batches.iter().enumerate() {
        apply_all(&mut current, plan).unwrap();
        let inc = IncPartMiner::update(&mut state, plan).unwrap();

        let direct = GSpan::new().mine(&current, sup);
        assert!(
            inc.patterns.same_codes_and_supports(&direct),
            "round {round}: incremental diverged"
        );

        adi.rebuild(&current).unwrap();
        let disk = adi.mine(sup, None, Counters::noop()).unwrap();
        assert!(disk.same_codes_and_supports(&direct), "round {round}: ADIMINE diverged");

        // The incremental round touched strictly fewer units than exist
        // whenever the batch leaves some unit's pieces untouched.
        assert!(inc.stats.units_remined <= state.partition.unit_count());
    }
}

#[test]
fn quickstart_api_surface() {
    // The README's quickstart, as a test: mine, inspect, update, re-mine.
    let db = generate(&GenParams::new(30, 6, 4, 6, 3));
    let sup = db.abs_support(0.2);

    let outcome = PartMiner::new(PartMinerConfig::with_k(2)).mine(&db, &[], sup);
    assert!(!outcome.patterns.is_empty());
    for p in outcome.patterns.iter() {
        assert!(p.support >= sup);
        assert!(p.graph.is_connected());
        assert_eq!(p.graph.edge_count(), p.size());
    }

    let mut state = outcome.state;
    let plan = plan_updates(&db, &UpdateParams::new(0.2, 1, UpdateKind::Relabel, 4));
    let inc = IncPartMiner::update(&mut state, &plan).unwrap();
    // The three classes partition the world.
    assert_eq!(inc.uf.len() + inc.if_new.len(), inc.patterns.len());
}
