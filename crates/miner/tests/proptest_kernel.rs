//! The extension kernel against its independent re-derivation.
//!
//! gSpan is the reference of the oracle and of the perf ledger, and since
//! it shares [`EdgeView::project`] with PartMiner's merge-join, a defect in
//! the kernel would move reference and subject together. So the kernel
//! itself is held, on random small databases, to the two things it must
//! equal and shares no code with: [`EmbeddingList::extend`] (the child list
//! of one given edge, row for row) and [`iso::support`] (the backtracking
//! search). Completeness is checked the generate-then-test way round:
//! every vocabulary edge in every rightmost position whose `extend` is
//! non-empty must be among the children. The kernel's lists are links, so
//! the test reads them back through the links itself ([`expand`]), and its
//! counts must hold for the children it lays out no list for, too.

use proptest::prelude::*;

use graphmine_graph::dfscode::{is_min, last_edge_undercuts_first, min_dfs_code};
use graphmine_graph::{iso, DfsCode, DfsEdge, EmbeddingList, Graph, GraphDb, Support};
use graphmine_miner::extend::EdgeVocab;
use graphmine_miner::project::{EdgeView, Occurrences, Scratch};

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

/// The occurrences behind `occ` as full rows, every image read back by
/// following the parent links: a row's vertices are its root row's two,
/// then the new vertex of each forward link below it; its edges one per
/// link.
fn expand(code: &DfsCode, occ: &Occurrences<'_>) -> EmbeddingList {
    let mut list = EmbeddingList::empty(code.vertex_count(), code.len());
    for row in occ.rows {
        let (mut vertices, mut edges) = (Vec::new(), Vec::new());
        let (mut link, mut level) = (*row, occ);
        while let Some(up) = level.up {
            vertices.extend(link.new_vertex());
            edges.push(link.edge);
            (link, level) = (up.rows[link.parent as usize], up);
        }
        vertices.extend([link.vertex, link.parent]);
        edges.push(link.edge);
        vertices.reverse();
        edges.reverse();
        list.push(row.gid, &vertices, &edges);
    }
    list
}

/// Checks the kernel at `code` and below, down every minimal child it kept
/// a list for.
fn check_subtree(
    db: &GraphDb,
    vocab: &EdgeVocab,
    view: &EdgeView,
    code: &mut DfsCode,
    occ: &Occurrences<'_>,
    (theta, max_edges): (Support, usize),
    scratch: &mut Scratch,
) {
    let list = expand(code, occ);
    let children = view.project(code, occ, theta, scratch);
    let edges: Vec<DfsEdge> = children.iter().map(|(c, _)| c.edge).collect();
    for pair in edges.windows(2) {
        prop_assert!(
            pair[0].dfs_cmp(&pair[1]).is_lt(),
            "children of {} are not in strict dfs order: {} then {}",
            code,
            pair[0],
            pair[1]
        );
    }
    for e in vocabulary_extensions(code, vocab) {
        if !list.extend(db, &e).is_empty() {
            prop_assert!(
                edges.contains(&e),
                "extension {} of {} occurs but the kernel did not return it",
                e,
                code
            );
        }
    }
    let mut total_rows = 0;
    for (child, rows) in children.iter() {
        let edge = child.edge;
        prop_assert!(
            vocab.contains(edge.from_label, edge.edge_label, edge.to_label),
            "child {} of {} is outside the vocabulary",
            edge,
            code
        );
        let reference = list.extend(db, &edge);
        prop_assert!(!reference.is_empty(), "child {} of {} has no occurrence", edge, code);
        prop_assert_eq!(
            (child.support, child.rows as usize),
            (reference.support(), reference.len()),
            "counts of child {} of {}",
            edge,
            code
        );
        total_rows += reference.len() as u64;
        prop_assert_eq!(
            rows.is_some(),
            child.support >= theta,
            "child {} of {}: support {} against threshold {}",
            edge,
            code,
            child.support,
            theta
        );
        code.push(edge);
        prop_assert_eq!(child.support, iso::support(db, code), "support of {}", code);
        if let Some(rows) = rows {
            let below = occ.child(rows);
            prop_assert_eq!(&expand(code, &below), &reference, "rows of {}", code);
            if code.len() < max_edges && is_min(code) {
                check_subtree(db, vocab, view, code, &below, (theta, max_edges), scratch);
            }
        }
        code.pop();
    }
    prop_assert_eq!(children.total_rows(), total_rows, "rows over all children of {}", code);
}

/// Every rightmost extension of `code` over `labels` vertex and edge
/// labels, whatever the database: backward edges from the rightmost vertex
/// to the path vertices past the last one it already closed to, forward
/// edges from every path vertex to a new one.
fn rightmost_extensions(code: &DfsCode, labels: u32) -> Vec<DfsEdge> {
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
    let (lrm, new_vertex) = (pattern.vlabel(rm), pattern.vertex_count() as u32);
    let mut out = Vec::new();
    for el in 0..labels {
        for &pv in &path[..path.len() - 1] {
            if pv >= floor && pattern.edge_between(rm, pv).is_none() {
                out.push(DfsEdge::new(rm, pv, lrm, el, pattern.vlabel(pv)));
            }
        }
        for &pv in &path {
            for vl in 0..labels {
                out.push(DfsEdge::new(pv, new_vertex, pattern.vlabel(pv), el, vl));
            }
        }
    }
    out
}

// No explicit case count: `PROPTEST_CASES` sizes the run (CI repeats it at
// 2000 in release).
proptest! {
    /// The walk's O(1) pre-check against the canonical test it runs ahead
    /// of. On every rightmost extension of a minimal code it must fire
    /// exactly when an orientation of some edge of the child's graph sorts
    /// below the first entry — `is_min`'s first step, done on the whole
    /// graph — and a child it fires on must not be minimal.
    #[test]
    fn precheck_rejects_only_non_minimal_children(g in connected_graph(6)) {
        let code = min_dfs_code(&g);
        let f = code.0[0];
        let first = (f.from_label, f.edge_label, f.to_label);
        for e in rightmost_extensions(&code, 2) {
            let mut child = code.clone();
            child.push(e);
            let child_graph = child.to_graph();
            let least = child_graph
                .edges()
                .flat_map(|(_, u, v, el)| {
                    let (lu, lv) = (child_graph.vlabel(u), child_graph.vlabel(v));
                    [(lu, el, lv), (lv, el, lu)]
                })
                .min()
                .expect("a child has edges");
            let undercut = last_edge_undercuts_first(&child);
            prop_assert_eq!(undercut, least < first, "{}", child);
            if undercut {
                prop_assert!(!is_min(&child), "pre-check rejects minimal {}", child);
            }
        }
    }


    /// Vocabulary threshold 1 makes every edge of the database a vocabulary
    /// edge; 2 leaves some out, so the filter has something to drop. The
    /// list threshold `theta` is the walk's own: at 1 every child keeps its
    /// list, at 2 and 3 some are counted only.
    #[test]
    fn kernel_agrees_with_extend_and_search(
        db in db_strategy(),
        min_support in 1u32..3,
        theta in 1u32..4,
    ) {
        let vocab = EdgeVocab::frequent_in(&db, min_support);
        let view = EdgeView::build(&db, &vocab);
        let mut scratch = view.scratch();
        prop_assert_eq!(view.roots().len(), vocab.len(), "one root list per vocabulary edge");
        let roots: Vec<DfsEdge> = view.roots().map(|(c, _)| c.edge).collect();
        for pair in roots.windows(2) {
            prop_assert!(pair[0].dfs_cmp(&pair[1]).is_lt(), "roots {} then {}", pair[0], pair[1]);
        }
        for (root, occ) in view.roots() {
            let code = &mut DfsCode(vec![root.edge]);
            let reference = EmbeddingList::roots(&db, &root.edge);
            prop_assert_eq!(&expand(code, &occ), &reference, "roots of {}", root.edge);
            prop_assert_eq!((root.support, root.rows as usize), (reference.support(), reference.len()));
            prop_assert_eq!(root.support, iso::support(&db, code));
            check_subtree(&db, &vocab, &view, code, &occ, (theta, 5), &mut scratch);
        }
    }
}
