//! Property tests: PartMiner is lossless and IncPartMiner matches a full
//! recompute on random databases and random update batches.

use proptest::prelude::*;

use graphmine_core::{
    merge_join, Executor, IncPartMiner, MergeContext, PartMiner, PartMinerConfig,
};
use graphmine_graph::{DbUpdate, Graph, GraphDb, GraphUpdate};
use graphmine_miner::{GSpan, MemoryMiner};
use graphmine_partition::{split_by_sides, Bipartitioner, Criteria, GraphPart};
use graphmine_telemetry::Telemetry;

fn connected_graph(max_vertices: usize) -> impl Strategy<Value = Graph> {
    (3..=max_vertices).prop_flat_map(move |n| {
        let vl = proptest::collection::vec(0..3u32, n);
        let parents: Vec<BoxedStrategy<usize>> = (1..n).map(|i| (0..i).boxed()).collect();
        let tree_el = proptest::collection::vec(0..2u32, n - 1);
        let extra = proptest::collection::vec((0..n, 0..n, 0..2u32), 0..=2);
        (vl, parents, tree_el, extra).prop_map(move |(vl, parents, tree_el, extra)| {
            let mut g = Graph::new();
            for &l in &vl {
                g.add_vertex(l);
            }
            for (i, (&p, &el)) in parents.iter().zip(tree_el.iter()).enumerate() {
                g.add_edge((i + 1) as u32, p as u32, el).unwrap();
            }
            for &(u, v, el) in &extra {
                if u != v {
                    let _ = g.add_edge(u as u32, v as u32, el);
                }
            }
            g
        })
    })
}

fn db_strategy() -> impl Strategy<Value = GraphDb> {
    proptest::collection::vec(connected_graph(6), 2..6).prop_map(GraphDb::from_graphs)
}

/// Builds a valid update from a pick value, or `None` if the pick lands on
/// an inapplicable shape.
fn decode_update(db: &GraphDb, pick: u64) -> Option<DbUpdate> {
    let gid = (pick % db.len() as u64) as u32;
    let g = db.graph(gid);
    let nv = g.vertex_count() as u32;
    let ne = g.edge_count() as u32;
    let p = pick / db.len() as u64;
    let update = match p % 4 {
        0 => GraphUpdate::RelabelVertex { v: (p as u32 / 4) % nv, label: (p as u32 / 8) % 5 },
        1 if ne > 0 => {
            GraphUpdate::RelabelEdge { e: (p as u32 / 4) % ne, label: (p as u32 / 8) % 5 }
        }
        2 => {
            let u = (p as u32 / 4) % nv;
            let v = (p as u32 / 16) % nv;
            if u == v || g.edge_between(u, v).is_some() {
                return None;
            }
            GraphUpdate::AddEdge { u, v, label: (p as u32 / 32) % 5 }
        }
        _ => GraphUpdate::AddVertex {
            label: (p as u32 / 4) % 5,
            attach_to: (p as u32 / 8) % nv,
            elabel: (p as u32 / 16) % 5,
        },
    };
    Some(DbUpdate { gid, update })
}

/// Splits every graph of `db` in two with the paper's partitioner,
/// producing the two piece databases a 2-unit PartMiner would mine.
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The executor-backed merge-join is a pure scheduling change: it must
    /// produce the same pattern set, the same telemetry counter totals
    /// *and* the same `WalkStats` as the serial run — per-job stats fold
    /// in submission order, so no thread schedule may show through.
    #[test]
    fn parallel_merge_join_matches_serial(
        db in db_strategy(),
        sup in 1u32..4,
    ) {
        let (d0, d1) = split_db(&db);
        let unit_sup = sup.div_ceil(2).max(1);
        let p0 = GSpan::new().mine(&d0, unit_sup);
        let p1 = GSpan::new().mine(&d1, unit_sup);
        let exec = Executor::new(4);
        let run = |executor: &Executor| {
            let tel = Telemetry::new();
            let ctx = MergeContext {
                db: &db,
                min_support: sup,
                max_edges: None,
                executor,
                telemetry: &tel,
            };
            let (merged, stats) = merge_join(&ctx, &[&p0, &p1]);
            (merged, stats, tel.counters().snapshot())
        };
        let (serial, serial_stats, serial_counts) = run(&Executor::new(1));
        let (parallel, parallel_stats, parallel_counts) = run(&exec);
        prop_assert!(
            serial.same_codes_and_supports(&parallel),
            "sup={}: serial {} parallel {}",
            sup, serial.len(), parallel.len()
        );
        prop_assert_eq!(serial_stats, parallel_stats);
        prop_assert_eq!(serial_counts, parallel_counts);
    }

    /// A whole executor-backed run ([`PartMiner::mine_on`]) is a pure
    /// scheduling change over the serial [`PartMiner::mine`]: identical
    /// pattern sets and identical `WalkStats`, whatever the pool size.
    #[test]
    fn executor_backed_mine_matches_serial(
        db in db_strategy(),
        k in 1usize..5,
        sup in 1u32..4,
        threads in 2usize..5,
    ) {
        let cfg = PartMinerConfig::with_k(k);
        let miner = PartMiner::new(cfg);
        let serial = miner.mine(&db, &[], sup);
        let exec = Executor::new(threads);
        let pooled = miner.mine_on(&db, &[], sup, &exec, &Telemetry::new());
        prop_assert!(
            serial.patterns.same_codes_and_supports(&pooled.patterns),
            "k={} sup={} threads={}: serial {} pooled {}",
            k, sup, threads, serial.patterns.len(), pooled.patterns.len()
        );
        prop_assert_eq!(serial.stats.merge, pooled.stats.merge);
    }

    #[test]
    fn partminer_is_lossless_on_random_databases(db in db_strategy(), k in 1usize..5, sup in 1u32..4) {
        let cfg = PartMinerConfig::with_k(k);
        let outcome = PartMiner::new(cfg).mine(&db, &[], sup);
        let direct = GSpan::new().mine(&db, sup);
        prop_assert!(
            outcome.patterns.same_codes_and_supports(&direct),
            "k={} sup={}: partminer {} direct {}",
            k, sup, outcome.patterns.len(), direct.len()
        );
    }

    #[test]
    fn incpartminer_matches_recompute_on_random_updates(
        db in db_strategy(),
        k in 2usize..4,
        picks in proptest::collection::vec(any::<u64>(), 1..8),
    ) {
        let cfg = PartMinerConfig::with_k(k);
        let outcome = PartMiner::new(cfg).mine(&db, &[], 2);
        let mut state = outcome.state;

        // Build a batch of applicable updates against a mirror.
        let mut mirror = db.clone();
        let mut batch = Vec::new();
        for &pick in &picks {
            if let Some(up) = decode_update(&mirror, pick) {
                if up.update.apply(mirror.graph_mut(up.gid)).is_ok() {
                    batch.push(up);
                }
            }
        }
        prop_assume!(!batch.is_empty());

        let inc = IncPartMiner::update(&mut state, &batch).unwrap();
        let direct = GSpan::new().mine(&mirror, 2);
        prop_assert!(
            inc.patterns.same_codes_and_supports(&direct),
            "incremental {} direct {}",
            inc.patterns.len(),
            direct.len()
        );
        // Classification invariants.
        prop_assert_eq!(inc.uf.len() + inc.if_new.len(), direct.len());
        for p in inc.fi.iter() {
            prop_assert!(!direct.contains(&p.code));
        }
    }
}
