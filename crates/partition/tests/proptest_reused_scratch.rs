//! Buffers kept from graph to graph against fresh ones. A database split
//! runs every graph of a work item through the same side vector, the same
//! `AssignScratch` and the same piece builders; whatever one graph leaves in
//! them must not change the next graph's sides or pieces. The reference is
//! a fresh call per graph: `Bipartitioner::sides` for the assignment, and a
//! build whose work items hold one graph each for the pieces.

use proptest::prelude::*;

use graphmine_graph::{CsrScratch, Graph, GraphDb};
use graphmine_partition::{
    AssignScratch, Bipartitioner, Criteria, DbPartition, GraphPart, Inline, PartNode,
};
use graphmine_telemetry::Telemetry;

/// A simple graph of any shape (disconnected, isolated vertices, no edge
/// at all) with a small-integer ufreq per vertex, so ties are common. Most
/// have at most nine vertices; the rest 60–70, on both sides of the 64
/// that `GraphPart` holds in one-word sets, so a sequence switches between
/// the word body and the vector body and back.
fn graph_and_ufreq() -> impl Strategy<Value = (Graph, Vec<f64>)> {
    prop_oneof![3 => 0..=9usize, 1 => 60..=70usize].prop_flat_map(|n| {
        let ids = 0..(n as u32).max(1);
        let vl = proptest::collection::vec(0..3u32, n);
        let uf = proptest::collection::vec(0..4u32, n);
        let raw = proptest::collection::vec((ids.clone(), ids, 0..3u32), 0..=2 * n);
        (vl, uf, raw).prop_map(|(vl, uf, raw)| {
            let n = vl.len() as u32;
            let mut seen = std::collections::BTreeSet::new();
            let edges: Vec<_> = raw
                .into_iter()
                .filter(|&(u, v, _)| u < n && v < n && u != v && seen.insert((u.min(v), u.max(v))))
                .collect();
            let g = Graph::from_edges(&vl, &edges, &mut CsrScratch::default()).expect("simple");
            (g, uf.into_iter().map(f64::from).collect())
        })
    })
}

fn criteria() -> impl Strategy<Value = Criteria> {
    (0..3usize).prop_map(|i| {
        [Criteria::COMBINED, Criteria::ISOLATE_UPDATES, Criteria::MIN_CONNECTIVITY][i]
    })
}

/// Node `n` of both trees, gid by gid: the piece graphs with their sorted
/// runs and exact blocks, and the maps back to the original database.
fn assert_same_node(got: &PartNode, want: &PartNode, n: usize) {
    assert_eq!((got.children, got.unit, got.depth), (want.children, want.unit, want.depth));
    assert_eq!(got.db, want.db, "node {n}");
    for ((gid, gg), (_, wg)) in got.db.iter().zip(want.db.iter()) {
        for v in 0..wg.vertex_count() as u32 {
            assert_eq!(gg.neighbors(v), wg.neighbors(v), "node {n} gid {gid} run {v}");
            assert_eq!(got.original_vertex(gid, v), want.original_vertex(gid, v));
        }
        for e in 0..wg.edge_count() as u32 {
            assert_eq!(got.original_edge(gid, e), want.original_edge(gid, e));
        }
        assert_eq!(gg.check_invariants(), Ok(()), "node {n} gid {gid}");
    }
}

proptest! {
    #[test]
    fn assign_into_reused_buffers_equals_a_fresh_call(
        seq in proptest::collection::vec(graph_and_ufreq(), 1..10),
        c in criteria(),
    ) {
        let part = GraphPart::new(c);
        let (mut sides, mut scratch) = (Vec::new(), AssignScratch::default());
        for (i, (g, uf)) in seq.iter().enumerate() {
            part.assign(g, uf, &mut sides, &mut scratch);
            prop_assert_eq!(&sides, &part.sides(g, uf), "graph {} of the sequence", i);
        }
    }

    #[test]
    fn split_through_reused_buffers_equals_fresh_splits(
        seq in proptest::collection::vec(graph_and_ufreq(), 1..10),
        c in criteria(),
        k in 2usize..6,
    ) {
        let (graphs, ufreq): (Vec<Graph>, Vec<Vec<f64>>) = seq.into_iter().unzip();
        let db = GraphDb::from_graphs(graphs);
        let part = GraphPart::new(c);
        let tel = Telemetry::new();
        let build = |range| DbPartition::build_with_range(&db, &ufreq, &part, k, &tel, &Inline, range);
        let (reused, fresh) = (build(usize::MAX), build(1));
        prop_assert_eq!(reused.node_count(), fresh.node_count());
        for n in 0..fresh.node_count() {
            assert_same_node(reused.node(n), fresh.node(n), n);
        }
    }
}
