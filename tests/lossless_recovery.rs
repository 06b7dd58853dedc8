//! Integration: the lossless-recovery claims of Theorems 1–3.
//!
//! * The partition tree reassembles every graph exactly (Theorem 1's
//!   structural premise);
//! * PartMiner's merge-join recovers precisely the frequent-pattern set of
//!   direct mining, for every partitioner, criteria setting, and unit count
//!   the paper evaluates (Theorem 3).

use graphmine_core::{PartMiner, PartMinerConfig, PartitionerKind};
use graphmine_datagen::{
    generate, plan_updates, ufreq_from_updates, GenParams, UpdateKind, UpdateParams,
};
use graphmine_graph::GraphDb;
use graphmine_miner::{GSpan, MemoryMiner};
use graphmine_partition::{Criteria, DbPartition, GraphPart, MetisLike};

fn synthetic_db() -> GraphDb {
    generate(&GenParams::new(50, 9, 4, 8, 3))
}

fn zero_ufreq(db: &GraphDb) -> Vec<Vec<f64>> {
    db.iter().map(|(_, g)| vec![0.0; g.vertex_count()]).collect()
}

#[test]
fn partition_tree_recovers_graphs_for_every_partitioner() {
    let db = synthetic_db();
    let uf = zero_ufreq(&db);
    let partitioners: Vec<Box<dyn graphmine_partition::Bipartitioner>> = vec![
        Box::new(GraphPart::new(Criteria::ISOLATE_UPDATES)),
        Box::new(GraphPart::new(Criteria::MIN_CONNECTIVITY)),
        Box::new(GraphPart::new(Criteria::COMBINED)),
        Box::new(MetisLike),
    ];
    for p in &partitioners {
        for k in [2, 3, 5] {
            let part = DbPartition::build(&db, &uf, p.as_ref(), k);
            for gid in 0..db.len() as u32 {
                let rec = part.recovered_graph(gid);
                let orig = db.graph(gid);
                assert_eq!(rec.edge_count(), orig.edge_count(), "{} k={k} gid={gid}", p.name());
                for (e, u, v, el) in orig.edges() {
                    assert_eq!(rec.edge(e), (u, v, el), "{} k={k} gid={gid}", p.name());
                }
            }
        }
    }
}

#[test]
fn merge_join_is_lossless_for_all_criteria_and_k() {
    let db = synthetic_db();
    let sup = db.abs_support(0.15);
    let reference = GSpan::new().mine(&db, sup);

    // A realistic ufreq (from a planned update workload) exercises the
    // update-aware criteria.
    let plan = plan_updates(&db, &UpdateParams::new(0.4, 2, UpdateKind::Mixed, 4));
    let ufreq = ufreq_from_updates(&db, &plan);

    let settings = [
        PartitionerKind::GraphPart(Criteria::ISOLATE_UPDATES),
        PartitionerKind::GraphPart(Criteria::MIN_CONNECTIVITY),
        PartitionerKind::GraphPart(Criteria::COMBINED),
        PartitionerKind::Metis,
    ];
    for partitioner in settings {
        for k in [2usize, 3, 6] {
            let mut cfg = PartMinerConfig::with_k(k);
            cfg.partitioner = partitioner;
            let outcome = PartMiner::new(cfg).mine(&db, &ufreq, sup);
            assert!(
                outcome.patterns.same_codes_and_supports(&reference),
                "{} k={k}: {} vs {}",
                partitioner.name(),
                outcome.patterns.len(),
                reference.len()
            );
        }
    }
}

#[test]
fn shortcut_supports_are_sound_lower_bounds() {
    let db = synthetic_db();
    let sup = db.abs_support(0.15);
    let reference = GSpan::new().mine(&db, sup);
    let uf = zero_ufreq(&db);
    let outcome = PartMiner::new(PartMinerConfig::with_k(4)).mine(&db, &uf, sup);
    // A unit result is a lower bound the walk leans on for the canonical
    // test only: what is reported is the exact support.
    assert!(outcome.patterns.same_codes_and_supports(&reference));
    assert!(outcome.stats.merge.shortcut > 0, "{:?}", outcome.stats.merge);
}
