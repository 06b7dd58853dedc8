//! One pool, three call sites: the same [`Executor`] drives a full mine
//! (unit mining + merge verification), an incremental round (touched-unit
//! re-mining), and a standalone merge-join verification batch — in that
//! order, in one run. Every pooled result must match its serial
//! counterpart, and the pool's counters must show it actually ran the
//! jobs. This is the reuse story the ad-hoc crossbeam scopes could not
//! offer: one thread budget resolved once, shared by the whole pipeline.
//!
//! The database split is the fourth call site. Its work items are fixed gid
//! ranges, so the tests below hold the tree still while the range size and
//! the runner vary, and read the range off the error of an item that dies.

use graphmine_core::{
    merge_join, Executor, IncPartMiner, MergeContext, PartMiner, PartMinerConfig, PoolRunner,
};
use graphmine_datagen::{generate, plan_updates, GenParams, UpdateKind, UpdateParams};
use graphmine_graph::{Graph, GraphDb};
use graphmine_miner::{GSpan, MemoryMiner};
use graphmine_partition::{
    split_by_sides, AssignScratch, Bipartitioner, Criteria, DbPartition, GraphPart, Inline,
    PartNode, SPLIT_RANGE,
};
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
        merge_join(&ctx, &[&p0, &p1])
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

/// Every field of every node, and the frozen order of every piece graph.
fn assert_same_tree(got: &DbPartition, want: &DbPartition, what: &str) {
    assert_eq!(got.node_count(), want.node_count(), "{what}: node count");
    assert_eq!(got.unit_count(), want.unit_count(), "{what}: unit count");
    for n in 0..want.node_count() {
        let (g, w) = (got.node(n), want.node(n));
        assert_eq!(
            (g.children, g.unit, g.depth),
            (w.children, w.unit, w.depth),
            "{what}: node {n}"
        );
        assert_eq!(g.db, w.db, "{what}: node {n} db");
        for ((gid, gg), (_, wg)) in g.db.iter().zip(w.db.iter()) {
            for v in 0..wg.vertex_count() as u32 {
                assert_eq!(gg.neighbors(v), wg.neighbors(v), "{what}: node {n} gid {gid} run {v}");
            }
            let vertex_map = |node: &PartNode| -> Vec<u32> {
                (0..wg.vertex_count() as u32).map(|v| node.original_vertex(gid, v)).collect()
            };
            let edge_map = |node: &PartNode| -> Vec<u32> {
                (0..wg.edge_count() as u32).map(|e| node.original_edge(gid, e)).collect()
            };
            assert_eq!(vertex_map(g), vertex_map(w), "{what}: node {n} gid {gid} vertex map");
            assert_eq!(edge_map(g), edge_map(w), "{what}: node {n} gid {gid} edge map");
            // The tree keeps the root's table alone; a node's per-vertex
            // frequencies are derived from it through the vertex map.
            let ufreq = |part: &DbPartition, node: &PartNode| -> Vec<f64> {
                vertex_map(node).iter().map(|&v| part.ufreq(gid, v)).collect()
            };
            assert_eq!(ufreq(got, g), ufreq(want, w), "{what}: node {n} gid {gid} ufreq");
        }
    }
    for (gid, g) in want.root().db.iter() {
        for v in 0..g.vertex_count() as u32 {
            assert_eq!(got.ufreq(gid, v), want.ufreq(gid, v), "{what}: gid {gid} root ufreq");
        }
    }
    got.check_invariants().unwrap_or_else(|e| panic!("{what}: {e}"));
}

#[test]
fn one_range_and_many_ranges_build_the_same_tree() {
    let db = generate(&GenParams::new(45, 9, 3, 8, 4).with_seed(77));
    // Uneven update frequencies, so the split is not the zero-ufreq one.
    let uf: Vec<Vec<f64>> = db
        .iter()
        .map(|(gid, g)| (0..g.vertex_count()).map(|v| ((gid as usize + v) % 4) as f64).collect())
        .collect();
    let tel = Telemetry::new();
    let exec = Executor::new(2);
    for partitioner in [Criteria::COMBINED, Criteria::ISOLATE_UPDATES].map(GraphPart::new) {
        for k in [2, 5, 6] {
            let inline = |range| {
                DbPartition::build_with_range(&db, &uf, &partitioner, k, &tel, &Inline, range)
            };
            let pooled = |range| {
                DbPartition::build_with_range(
                    &db,
                    &uf,
                    &partitioner,
                    k,
                    &tel,
                    &PoolRunner(&exec),
                    range,
                )
            };
            let one = inline(usize::MAX);
            assert_eq!(one.unit_count(), k);
            for range in [1, 7, 44, 45] {
                assert_same_tree(&inline(range), &one, &format!("k={k} inline range={range}"));
                assert_same_tree(&pooled(range), &one, &format!("k={k} pooled range={range}"));
            }
            // What everything else calls: the constant, on either runner.
            assert_same_tree(&DbPartition::build(&db, &uf, &partitioner, k), &one, "build");
            let on_pool =
                DbPartition::build_on(&db, &uf, &partitioner, k, &tel, &PoolRunner(&exec));
            assert_same_tree(&on_pool, &one, "build_on");
        }
    }
    assert!(exec.counters().jobs > 0, "the pool never saw a split item");
}

/// A serial run and a pooled run submit the same items: the executor counts
/// one job per range and tree node either way.
#[test]
fn the_split_submits_the_same_items_at_any_budget() {
    let db = generate(&GenParams::new(SPLIT_RANGE + 40, 6, 3, 6, 3).with_seed(5));
    let uf: Vec<Vec<f64>> = db.iter().map(|(_, g)| vec![0.0; g.vertex_count()]).collect();
    for threads in [1, 2] {
        let exec = Executor::new(threads);
        let part = DbPartition::build_on(
            &db,
            &uf,
            &GraphPart::default(),
            4,
            &Telemetry::new(),
            &PoolRunner(&exec),
        );
        assert_eq!(part.unit_count(), 4);
        // Three nodes were split, two ranges each.
        assert_eq!(exec.counters().jobs, 6, "threads={threads}");
    }
}

/// Splits every graph down the middle, except the one it dies on.
struct DiesOn(usize);

impl Bipartitioner for DiesOn {
    fn assign(&self, g: &Graph, _ufreq: &[f64], sides: &mut Vec<bool>, _: &mut AssignScratch) {
        assert_ne!(g.vertex_count(), self.0, "no side for a graph of {} vertices", self.0);
        *sides = (0..g.vertex_count()).map(|v| v % 2 == 0).collect();
    }

    fn name(&self) -> &'static str {
        "DiesOn"
    }
}

/// A path of `n` vertices.
fn path(n: u32) -> Graph {
    let edges: Vec<(u32, u32, u32)> = (1..n).map(|v| (v - 1, v, 0)).collect();
    Graph::from_edges(&vec![0; n as usize], &edges, &mut Default::default()).unwrap()
}

#[test]
fn a_panicking_partitioner_is_reported_under_its_gid_range() {
    // 1100 small paths; the one at gid 700 is the only one 9 vertices long.
    let db: GraphDb = (0..1100).map(|gid| path(if gid == 700 { 9 } else { 3 + gid % 4 })).collect();
    let uf: Vec<Vec<f64>> = db.iter().map(|(_, g)| vec![0.0; g.vertex_count()]).collect();
    for threads in [1, 2] {
        let exec = Executor::new(threads);
        let died = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            DbPartition::build_on(&db, &uf, &DiesOn(9), 2, &Telemetry::new(), &PoolRunner(&exec))
        }));
        let payload = died.expect_err("the partitioner panics on gid 700");
        let message = payload.downcast_ref::<String>().expect("a formatted panic message");
        let range = format!("split:0:{}..{}", SPLIT_RANGE, 2 * SPLIT_RANGE);
        assert!(
            message.contains(&format!("job `{range}` panicked")),
            "threads={threads}: {message}"
        );
        assert!(message.contains("no side for a graph of 9 vertices"), "{message}");
        assert_eq!(exec.counters().panics, 1);
    }
    // Without a pool the panic is the partitioner's own.
    let plain = std::panic::catch_unwind(|| DbPartition::build(&db, &uf, &DiesOn(9), 2));
    assert!(plain.is_err());
}
