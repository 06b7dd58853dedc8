//! Brute-force connected-subgraph enumeration.
//!
//! This is the correctness *oracle* for every miner in the workspace: it
//! enumerates all connected edge subsets of each graph (each subset exactly
//! once), canonicalises them with the minimum DFS code, and aggregates
//! per-graph distinct patterns into supports. It is exponential and only
//! meant for small graphs in tests; the miners must agree with it exactly.

use rustc_hash::{FxHashMap, FxHashSet};

use crate::dfscode::min_dfs_code;
use crate::{DfsCode, EdgeId, Graph, GraphDb, Pattern, PatternSet, Support};

/// Enumerates the canonical codes of all connected subgraphs of `g` with
/// between 1 and `max_edges` edges. Each distinct pattern appears once.
pub fn connected_subgraph_codes(g: &Graph, max_edges: usize) -> FxHashSet<DfsCode> {
    let mut out = FxHashSet::default();
    if max_edges == 0 {
        return out;
    }
    let m = g.edge_count();
    for start in 0..m as EdgeId {
        // Subsets whose minimum edge id is `start`: edges below `start` are
        // globally excluded, which makes every subset appear exactly once.
        let mut excluded = vec![false; m];
        for e in 0..start {
            excluded[e as usize] = true;
        }
        let mut in_set = vec![false; m];
        in_set[start as usize] = true;
        let mut edges = vec![start];
        emit(g, &edges, &mut out);
        extend(g, &mut edges, &mut in_set, &mut excluded, max_edges, &mut out);
        in_set[start as usize] = false;
    }
    out
}

fn emit(g: &Graph, edges: &[EdgeId], out: &mut FxHashSet<DfsCode>) {
    let (sub, _) = g.edge_subgraph(edges).expect("edge ids are valid by construction");
    out.insert(min_dfs_code(&sub));
}

fn extend(
    g: &Graph,
    edges: &mut Vec<EdgeId>,
    in_set: &mut [bool],
    excluded: &mut [bool],
    max_edges: usize,
    out: &mut FxHashSet<DfsCode>,
) {
    if edges.len() >= max_edges {
        return;
    }
    // Extensions: edges adjacent to the current vertex set, not in the set,
    // not excluded.
    let mut ext: Vec<EdgeId> = Vec::new();
    let mut seen = FxHashSet::default();
    for &eid in edges.iter() {
        let (u, v, _) = g.edge(eid);
        for w in [u, v] {
            for a in g.neighbors(w) {
                if !in_set[a.eid as usize] && !excluded[a.eid as usize] && seen.insert(a.eid) {
                    ext.push(a.eid);
                }
            }
        }
    }
    // Branch on each extension; the "skip" decision excludes the edge from
    // the rest of this subtree so no subset is generated twice.
    for &e in &ext {
        in_set[e as usize] = true;
        edges.push(e);
        emit(g, edges, out);
        extend(g, edges, in_set, excluded, max_edges, out);
        edges.pop();
        in_set[e as usize] = false;
        excluded[e as usize] = true;
    }
    for &e in &ext {
        excluded[e as usize] = false;
    }
}

/// Mines the complete set of frequent connected subgraphs (1..=`max_edges`
/// edges) of `db` by brute force.
///
/// `min_support` is the absolute graph count. This is the reference result
/// the real miners are tested against.
pub fn frequent_bruteforce(db: &GraphDb, min_support: Support, max_edges: usize) -> PatternSet {
    let mut counts: FxHashMap<DfsCode, Support> = FxHashMap::default();
    for (_, g) in db.iter() {
        for code in connected_subgraph_codes(g, max_edges) {
            *counts.entry(code).or_insert(0) += 1;
        }
    }
    counts
        .into_iter()
        .filter(|&(_, sup)| sup >= min_support)
        .map(|(code, sup)| Pattern::from_code(code, sup))
        .collect()
}

/// All connected `(k-1)`-edge subgraphs of `g` obtained by deleting one
/// edge — the parent links along which the correctness oracle asserts
/// support anti-monotonicity, and the "partner" subgraphs the paper-literal
/// join of `repro ablation` checks.
pub fn one_edge_deletions(g: &Graph) -> Vec<DfsCode> {
    let m = g.edge_count();
    let mut out = Vec::new();
    if m < 2 {
        return out;
    }
    for drop in 0..m as EdgeId {
        let keep: Vec<EdgeId> = (0..m as EdgeId).filter(|&e| e != drop).collect();
        let (sub, _) = g.edge_subgraph(&keep).expect("edge ids valid");
        if sub.is_connected() {
            out.push(min_dfs_code(&sub));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle_with_tail() -> Graph {
        let mut g = Graph::new();
        for _ in 0..4 {
            g.add_vertex(0);
        }
        g.add_edge(0, 1, 0).unwrap();
        g.add_edge(1, 2, 0).unwrap();
        g.add_edge(2, 0, 0).unwrap();
        g.add_edge(2, 3, 0).unwrap();
        g
    }

    #[test]
    fn counts_unlabeled_triangle_subgraphs() {
        let mut tri = Graph::new();
        for _ in 0..3 {
            tri.add_vertex(0);
        }
        tri.add_edge(0, 1, 0).unwrap();
        tri.add_edge(1, 2, 0).unwrap();
        tri.add_edge(2, 0, 0).unwrap();
        let codes = connected_subgraph_codes(&tri, 3);
        // Distinct patterns: single edge, 2-path, triangle.
        assert_eq!(codes.len(), 3);
        let capped = connected_subgraph_codes(&tri, 2);
        assert_eq!(capped.len(), 2);
    }

    #[test]
    fn triangle_with_tail_patterns() {
        let codes = connected_subgraph_codes(&triangle_with_tail(), 4);
        // edge, path2, path3, star3(=path3? star with 3 leaves: K1,3),
        // triangle, triangle+tail. Enumerate: sizes 1..4:
        //   1 edge; 2-edge path; 3-edge: path4? no (graph has 4 vertices:
        //   0-1-2 triangle + 2-3 tail) → 3-edge connected subgraphs: the
        //   triangle, and 3-edge trees: {01,12,23}=path, {01,02,23}=path,
        //   {12,02,23}=star(K1,3); 4-edge: whole graph.
        // Distinct canonical forms: edge, path3(2e), triangle, path4(3e),
        // star(3e), whole(4e) = 6.
        assert_eq!(codes.len(), 6);
    }

    #[test]
    fn bruteforce_support_aggregation() {
        let mut edge = Graph::new();
        let a = edge.add_vertex(0);
        let b = edge.add_vertex(0);
        edge.add_edge(a, b, 0).unwrap();
        let db = GraphDb::from_graphs(vec![triangle_with_tail(), edge]);
        let freq = frequent_bruteforce(&db, 2, 4);
        // Only the single edge pattern appears in both graphs.
        assert_eq!(freq.len(), 1);
        assert_eq!(freq.iter().next().unwrap().support, 2);
        let all = frequent_bruteforce(&db, 1, 4);
        assert_eq!(all.len(), 6);
    }

    #[test]
    fn label_sensitivity() {
        let mut g = Graph::new();
        let a = g.add_vertex(0);
        let b = g.add_vertex(1);
        let c = g.add_vertex(0);
        g.add_edge(a, b, 0).unwrap();
        g.add_edge(b, c, 1).unwrap();
        let codes = connected_subgraph_codes(&g, 2);
        // Two distinct single edges + the 2-edge path.
        assert_eq!(codes.len(), 3);
    }

    #[test]
    fn one_edge_deletions_keeps_connected_only() {
        // Path of 3 edges: deleting the middle edge disconnects.
        let mut g = Graph::new();
        for _ in 0..4 {
            g.add_vertex(0);
        }
        g.add_edge(0, 1, 0).unwrap();
        g.add_edge(1, 2, 0).unwrap();
        g.add_edge(2, 3, 0).unwrap();
        let subs = one_edge_deletions(&g);
        assert_eq!(subs.len(), 2);
    }
}
