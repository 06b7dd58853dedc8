//! Integration: IncPartMiner against full recomputation, on the paper's
//! update workloads (Section 5's three update types, 20%–80% amounts).

use graphmine_core::{IncPartMiner, PartMiner, PartMinerConfig};
use graphmine_datagen::{
    generate, plan_updates, ufreq_from_updates, GenParams, UpdateKind, UpdateParams,
};
use graphmine_graph::update::apply_all;
use graphmine_graph::GraphDb;
use graphmine_miner::{GSpan, MemoryMiner};

fn synthetic_db() -> GraphDb {
    generate(&GenParams::new(40, 8, 4, 8, 3))
}

fn run_workload(kind: UpdateKind, fraction: f64) {
    let db = synthetic_db();
    let params = UpdateParams::new(fraction, 2, kind, 4);
    let plan = plan_updates(&db, &params);
    let ufreq = ufreq_from_updates(&db, &plan).expect("the plan applies");
    let sup = db.abs_support(0.15);

    let cfg = PartMinerConfig::with_k(3);
    let outcome = PartMiner::new(cfg).mine(&db, &ufreq, sup);
    let old = outcome.patterns.clone();
    let mut state = outcome.state;

    let inc = IncPartMiner::update(&mut state, &plan).unwrap();

    let mut db2 = db.clone();
    apply_all(&mut db2, &plan).unwrap();
    let direct = GSpan::new().mine(&db2, sup);

    assert!(
        inc.patterns.same_codes_and_supports(&direct),
        "{kind:?} {fraction}: incremental {} vs direct {}",
        inc.patterns.len(),
        direct.len()
    );

    // Classification semantics.
    for p in inc.if_new.iter() {
        assert!(!old.contains(&p.code) && direct.contains(&p.code));
    }
    for p in inc.fi.iter() {
        assert!(old.contains(&p.code) && !direct.contains(&p.code));
    }
    for p in inc.uf.iter() {
        assert!(old.contains(&p.code) && direct.contains(&p.code));
    }
    assert_eq!(inc.uf.len() + inc.if_new.len(), direct.len());
}

#[test]
fn relabel_workload_20pct() {
    run_workload(UpdateKind::Relabel, 0.2);
}

#[test]
fn relabel_workload_80pct() {
    run_workload(UpdateKind::Relabel, 0.8);
}

#[test]
fn add_structure_workload_20pct() {
    run_workload(UpdateKind::AddStructure, 0.2);
}

#[test]
fn add_structure_workload_80pct() {
    run_workload(UpdateKind::AddStructure, 0.8);
}

#[test]
fn mixed_workload_50pct() {
    run_workload(UpdateKind::Mixed, 0.5);
}

#[test]
fn incremental_work_scales_with_update_amount() {
    let db = synthetic_db();
    let sup = db.abs_support(0.15);
    let mut remined = Vec::new();
    for fraction in [0.2, 0.8] {
        let params = UpdateParams::new(fraction, 2, UpdateKind::Relabel, 4);
        let plan = plan_updates(&db, &params);
        let ufreq = ufreq_from_updates(&db, &plan).expect("the plan applies");
        let cfg = PartMinerConfig::with_k(4);
        let outcome = PartMiner::new(cfg).mine(&db, &ufreq, sup);
        let mut state = outcome.state;
        let inc = IncPartMiner::update(&mut state, &plan).unwrap();
        remined.push(inc.stats.units_remined);
    }
    assert!(remined[0] <= remined[1], "more updates should not touch fewer units: {remined:?}");
}

#[test]
fn ufreq_aware_partitioning_localises_updates() {
    // With Partition3 (ufreq + connectivity), the number of touched units
    // for the planned workload should be no worse than with Partition2
    // (connectivity only), which is the paper's Fig. 13(b) story.
    use graphmine_core::PartitionerKind;
    use graphmine_partition::Criteria;

    let db = synthetic_db();
    let params = UpdateParams::new(0.3, 2, UpdateKind::Relabel, 4);
    let plan = plan_updates(&db, &params);
    let ufreq = ufreq_from_updates(&db, &plan).expect("the plan applies");
    let sup = db.abs_support(0.15);

    let touched_units = |criteria: Criteria| -> usize {
        let mut cfg = PartMinerConfig::with_k(4);
        cfg.partitioner = PartitionerKind::GraphPart(criteria);
        let outcome = PartMiner::new(cfg).mine(&db, &ufreq, sup);
        let mut state = outcome.state;
        let inc = IncPartMiner::update(&mut state, &plan).unwrap();
        inc.stats.units_remined
    };

    let with_ufreq = touched_units(Criteria::COMBINED);
    let connectivity_only = touched_units(Criteria::MIN_CONNECTIVITY);
    assert!(
        with_ufreq <= connectivity_only + 1,
        "Partition3 touched {with_ufreq}, Partition2 touched {connectivity_only}"
    );
}
