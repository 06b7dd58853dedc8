//! The extension kernel against its independent re-derivation.
//!
//! gSpan is the reference of the oracle and of the perf ledger, and since
//! it shares [`rightmost_children`] with PartMiner's merge-join, a defect
//! in the kernel would move reference and subject together. So the kernel
//! itself is held, on random small databases, to the two things it must
//! equal and shares no code with: [`EmbeddingList::extend`] (the child list
//! of one given edge, row for row) and [`iso::support`] (the backtracking
//! search). Completeness is checked the generate-then-test way round:
//! every vocabulary edge in every rightmost position whose `extend` is
//! non-empty must be among the children.

use proptest::prelude::*;

use graphmine_graph::dfscode::is_min;
use graphmine_graph::{iso, DfsCode, DfsEdge, EmbeddingList, Graph, GraphDb};
use graphmine_miner::extend::{rightmost_children, root_lists, EdgeVocab};

/// Strategy: a random connected labeled graph (spanning tree + extra edges)
/// over two vertex and two edge labels, so patterns embed many ways and
/// cycles are common.
fn connected_graph(max_vertices: usize) -> impl Strategy<Value = Graph> {
    (2..=max_vertices).prop_flat_map(move |n| {
        let vl = proptest::collection::vec(0..2u32, n);
        let parents: Vec<BoxedStrategy<usize>> = (1..n).map(|i| (0..i).boxed()).collect();
        let tree_el = proptest::collection::vec(0..2u32, n - 1);
        let extra = proptest::collection::vec((0..n, 0..n, 0..2u32), 0..=n);
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
    proptest::collection::vec(connected_graph(6), 1..5).prop_map(GraphDb::from_graphs)
}

/// Every vocabulary edge in every rightmost position of `code`, whether or
/// not it occurs anywhere: the candidate set a generate-then-test miner
/// would count.
fn vocabulary_extensions(code: &DfsCode, vocab: &EdgeVocab) -> Vec<DfsEdge> {
    let pattern = code.to_graph();
    let path = code.rightmost_path();
    let rm = *path.last().unwrap();
    let floor = code
        .0
        .iter()
        .rev()
        .take_while(|e| !e.is_forward())
        .filter(|e| e.from == rm)
        .map(|e| e.to + 1)
        .max()
        .unwrap_or(0);
    let mut out = Vec::new();
    for &pv in &path[..path.len() - 1] {
        if pv < floor {
            continue;
        }
        for &el in vocab.closable(pattern.vlabel(rm), pattern.vlabel(pv)) {
            out.push(DfsEdge::new(rm, pv, pattern.vlabel(rm), el, pattern.vlabel(pv)));
        }
    }
    let new_vertex = pattern.vertex_count() as u32;
    for &pv in &path {
        for &(el, vl) in vocab.attachable(pattern.vlabel(pv)) {
            out.push(DfsEdge::new(pv, new_vertex, pattern.vlabel(pv), el, vl));
        }
    }
    out
}

/// Checks the kernel at `code` and below, down every minimal child.
fn check_subtree(
    db: &GraphDb,
    vocab: &EdgeVocab,
    code: &mut DfsCode,
    list: &EmbeddingList,
    max_edges: usize,
) {
    let children = rightmost_children(db, code, list, vocab);
    for pair in children.windows(2) {
        prop_assert!(
            pair[0].0.dfs_cmp(&pair[1].0).is_lt(),
            "children of {} are not in strict dfs order: {} then {}",
            code,
            pair[0].0,
            pair[1].0
        );
    }
    for e in vocabulary_extensions(code, vocab) {
        if !list.extend(db, &e).is_empty() {
            prop_assert!(
                children.iter().any(|(edge, _)| *edge == e),
                "extension {} of {} occurs but the kernel did not return it",
                e,
                code
            );
        }
    }
    for (edge, child) in children {
        prop_assert!(
            vocab.contains(edge.from_label, edge.edge_label, edge.to_label),
            "child {} of {} is outside the vocabulary",
            edge,
            code
        );
        prop_assert!(!child.is_empty(), "child {} of {} has no occurrence", edge, code);
        prop_assert_eq!(&child, &list.extend(db, &edge), "child {} of {}", edge, code);
        code.push(edge);
        prop_assert_eq!(child.support(), iso::support(db, code), "support of {}", code);
        if code.len() < max_edges && is_min(code) {
            check_subtree(db, vocab, code, &child, max_edges);
        }
        code.pop();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Threshold 1 makes every edge of the database a vocabulary edge;
    /// threshold 2 leaves some out, so the filter has something to drop.
    #[test]
    fn kernel_agrees_with_extend_and_search(db in db_strategy(), min_support in 1u32..3) {
        let vocab = EdgeVocab::frequent_in(&db, min_support);
        let roots = root_lists(&db, &vocab);
        prop_assert_eq!(roots.len(), vocab.len(), "one root list per vocabulary edge");
        for (edge, list) in roots {
            prop_assert_eq!(&list, &EmbeddingList::roots(&db, &edge), "roots of {}", edge);
            prop_assert_eq!(list.support(), iso::support(&db, &DfsCode(vec![edge])));
            check_subtree(&db, &vocab, &mut DfsCode(vec![edge]), &list, 5);
        }
    }
}
