//! A Gaston-flavoured miner: frequent free trees first, cycles last.
//!
//! Gaston (Nijssen & Kok, KDD 2004) exploits the observation the paper
//! quotes in Section 4.2: most frequent substructures in practice are free
//! trees, and trees admit much cheaper canonical forms than general graphs.
//! This implementation keeps Gaston's architecture —
//!
//! 1. **Tree phase** (covers the paper's *paths* and *trees* branches of
//!    Fig. 7): frequent free trees are enumerated level-wise by *reverse
//!    search*. A candidate tree is accepted only when the tree it was grown
//!    from is its *canonical parent* (the leaf-removal that minimises the
//!    centre-rooted canonical encoding), so each tree is generated from
//!    exactly one parent. Occurrence (embedding) lists are carried along and
//!    filtered, exactly like Gaston's leg lists, so support counting never
//!    runs an isolated isomorphism test.
//! 2. **Cycle phase** (Fig. 7's *cyclic graphs* branch): cyclic patterns are
//!    produced by closing unused edges over the embeddings of already
//!    frequent patterns, breadth-first, deduplicated by minimum DFS code —
//!    the more expensive canonical form is only ever paid for cyclic
//!    patterns, mirroring Gaston's cost profile.
//!
//! The result is exactly the same pattern set as gSpan's; the two miners
//! cross-validate each other in the test suites.

use std::collections::VecDeque;

use rustc_hash::{FxHashMap, FxHashSet};

use graphmine_graph::dfscode::min_dfs_code;
use graphmine_graph::{
    DfsCode, ELabel, EdgeId, EmbeddingList, Graph, GraphDb, Pattern, PatternSet, Support, VLabel,
    VertexId,
};

use graphmine_telemetry::{Counter, Counters};

use crate::{within_cap, MemoryMiner};

/// The Gaston-style miner.
#[derive(Debug, Clone, Default)]
pub struct Gaston {
    /// Optional maximum pattern size in edges.
    pub max_edges: Option<usize>,
}

impl Gaston {
    /// A Gaston miner with no size cap.
    pub fn new() -> Self {
        Self::default()
    }

    /// A Gaston miner that stops at patterns of `max_edges` edges.
    pub fn capped(max_edges: usize) -> Self {
        Gaston { max_edges: Some(max_edges) }
    }
}

/// A frequent pattern in flight: its graph plus its occurrence list — the
/// shared flat-arena [`EmbeddingList`] (pattern vertex -> graph vertex, and
/// pattern edge -> graph edge, per row), Gaston's leg-list analogue.
struct Node {
    graph: Graph,
    occs: EmbeddingList,
}

impl MemoryMiner for Gaston {
    fn mine(&self, db: &GraphDb, min_support: Support) -> PatternSet {
        self.mine_with(db, min_support, Counters::noop())
    }

    fn mine_counted(&self, db: &GraphDb, min_support: Support, counters: &Counters) -> PatternSet {
        self.mine_with(db, min_support, counters)
    }

    fn name(&self) -> &'static str {
        "Gaston"
    }
}

impl Gaston {
    fn mine_with(&self, db: &GraphDb, min_support: Support, counters: &Counters) -> PatternSet {
        if db.is_empty() || min_support == 0 {
            return PatternSet::new();
        }
        // Found out of code order: collected, and sorted once at the end.
        let mut out: Vec<Pattern> = Vec::new();

        // ---- level 1: frequent edges --------------------------------------
        let mut groups: FxHashMap<(VLabel, ELabel, VLabel), EmbeddingList> = FxHashMap::default();
        for (gid, g) in db.iter() {
            for (eid, u, v, el) in g.edges() {
                let (a, b) = if g.vlabel(u) <= g.vlabel(v) { (u, v) } else { (v, u) };
                let key = (g.vlabel(a), el, g.vlabel(b));
                let group = groups.entry(key).or_insert_with(|| EmbeddingList::empty(2, 1));
                group.push(gid, &[a, b], &[eid]);
                if g.vlabel(a) == g.vlabel(b) {
                    group.push(gid, &[b, a], &[eid]);
                }
            }
        }
        counters.add(Counter::MinerExtensions, groups.len() as u64);
        let mut level: Vec<Node> = Vec::new();
        for ((la, el, lb), occs) in groups {
            if occs.support() < min_support {
                continue;
            }
            let mut g = Graph::new();
            let a = g.add_vertex(la);
            let b = g.add_vertex(lb);
            g.add_edge(a, b, el).expect("fresh edge");
            out.push(Pattern::from_code(min_dfs_code(&g), occs.support()));
            level.push(Node { graph: g, occs });
        }

        // Cycle-phase worklist is fed by every frequent tree.
        let mut cycle_queue: VecDeque<Node> = VecDeque::new();

        // ---- tree phase: reverse search over canonical parents ------------
        while !level.is_empty() {
            let mut next: Vec<Node> = Vec::new();
            let mut seen_this_level: FxHashSet<DfsCode> = FxHashSet::default();
            for node in &level {
                let parent_enc = tree_encoding(&node.graph);
                // Group leaf extensions by (attach position, edge label,
                // new vertex label).
                let mut ext: FxHashMap<(u32, ELabel, VLabel), EmbeddingList> = FxHashMap::default();
                let vs = node.occs.vertex_stride();
                let es = node.occs.edge_stride();
                if within_cap(self.max_edges, node.graph.edge_count() + 1) {
                    for row in 0..node.occs.len() {
                        let g = db.graph(node.occs.gid(row));
                        let map = node.occs.vertices(row);
                        for (pos, &gv) in map.iter().enumerate() {
                            for a in g.neighbors(gv) {
                                if node.occs.uses_edge(row, a.eid) || map.contains(&a.to) {
                                    continue;
                                }
                                let key = (pos as u32, a.elabel, g.vlabel(a.to));
                                ext.entry(key)
                                    .or_insert_with(|| EmbeddingList::empty(vs + 1, es + 1))
                                    .push_extended(&node.occs, row, Some(a.to), a.eid);
                            }
                        }
                    }
                }
                counters.add(Counter::MinerExtensions, ext.len() as u64);
                counters
                    .add(Counter::EmbeddingsExtended, ext.values().map(|l| l.len() as u64).sum());
                for ((pos, el, vl), occs) in ext {
                    if occs.support() < min_support {
                        continue;
                    }
                    let mut candidate = node.graph.clone();
                    let leaf = candidate.add_vertex(vl);
                    candidate.add_edge(pos, leaf, el).expect("fresh leaf edge");
                    if canonical_parent_encoding(&candidate) != parent_enc {
                        continue; // grown from a non-canonical parent
                    }
                    let code = min_dfs_code(&candidate);
                    if !seen_this_level.insert(code.clone()) {
                        continue; // automorphic duplicate within this level
                    }
                    out.push(Pattern::from_code(code, occs.support()));
                    next.push(Node { graph: candidate, occs });
                }
            }
            for node in level {
                if node.graph.vertex_count() >= 3 {
                    cycle_queue.push_back(node);
                }
            }
            level = next;
        }

        // ---- cycle phase: close edges over occurrence lists ---------------
        let mut seen_cyclic: FxHashSet<DfsCode> = FxHashSet::default();
        while let Some(node) = cycle_queue.pop_front() {
            if !within_cap(self.max_edges, node.graph.edge_count() + 1) {
                continue;
            }
            let mut ext: FxHashMap<(u32, u32, ELabel), EmbeddingList> = FxHashMap::default();
            let vs = node.occs.vertex_stride();
            let es = node.occs.edge_stride();
            for row in 0..node.occs.len() {
                let g = db.graph(node.occs.gid(row));
                let map = node.occs.vertices(row);
                for (pu, &gu) in map.iter().enumerate() {
                    for a in g.neighbors(gu) {
                        if node.occs.uses_edge(row, a.eid) {
                            continue;
                        }
                        let Some(pv) = map.iter().position(|&x| x == a.to) else {
                            continue;
                        };
                        if pv <= pu {
                            continue; // count each closing pair once
                        }
                        // The pattern must not already have this edge.
                        if node.graph.edge_between(pu as u32, pv as u32).is_some() {
                            continue;
                        }
                        ext.entry((pu as u32, pv as u32, a.elabel))
                            .or_insert_with(|| EmbeddingList::empty(vs, es + 1))
                            .push_extended(&node.occs, row, None, a.eid);
                    }
                }
            }
            counters.add(Counter::MinerExtensions, ext.len() as u64);
            counters.add(Counter::EmbeddingsExtended, ext.values().map(|l| l.len() as u64).sum());
            for ((pu, pv, el), occs) in ext {
                if occs.support() < min_support {
                    continue;
                }
                let mut candidate = node.graph.clone();
                candidate.add_edge(pu, pv, el).expect("closing edge is fresh");
                let code = min_dfs_code(&candidate);
                if !seen_cyclic.insert(code.clone()) {
                    continue;
                }
                out.push(Pattern::from_code(code, occs.support()));
                cycle_queue.push_back(Node { graph: candidate, occs });
            }
        }

        let out: PatternSet = out.into_iter().collect();
        counters.add(Counter::MinerPatterns, out.len() as u64);
        out
    }
}

// --------------------------------------------------------------------------
// Canonical free-tree encodings (labeled AHU with centre rooting)
// --------------------------------------------------------------------------

const OPEN: u64 = 0;
const CLOSE: u64 = 1;

#[inline]
fn tok(label: u32) -> u64 {
    u64::from(label) + 2
}

/// Recursive rooted encoding: `[OPEN, vlabel, (elabel, child)*sorted, CLOSE]`.
fn rooted_encoding(g: &Graph, v: VertexId, parent: Option<VertexId>, out: &mut Vec<u64>) {
    out.push(OPEN);
    out.push(tok(g.vlabel(v)));
    let mut children: Vec<Vec<u64>> = g
        .neighbors(v)
        .iter()
        .filter(|a| Some(a.to) != parent)
        .map(|a| {
            let mut sub = vec![tok(a.elabel)];
            rooted_encoding(g, a.to, Some(v), &mut sub);
            sub
        })
        .collect();
    children.sort();
    for c in children {
        out.extend_from_slice(&c);
    }
    out.push(CLOSE);
}

/// The 1 or 2 centres of a free tree (iterated leaf pruning).
fn tree_centers(g: &Graph) -> Vec<VertexId> {
    let n = g.vertex_count();
    debug_assert!(n >= 1);
    if n == 1 {
        return vec![0];
    }
    let mut degree: Vec<usize> = (0..n).map(|v| g.degree(v as u32)).collect();
    let mut removed = vec![false; n];
    let mut leaves: Vec<VertexId> = (0..n as u32).filter(|&v| degree[v as usize] <= 1).collect();
    let mut remaining = n;
    while remaining > 2 {
        let mut next = Vec::new();
        for &leaf in &leaves {
            removed[leaf as usize] = true;
            remaining -= 1;
            for a in g.neighbors(leaf) {
                if removed[a.to as usize] {
                    continue;
                }
                degree[a.to as usize] -= 1;
                if degree[a.to as usize] == 1 {
                    next.push(a.to);
                }
            }
        }
        leaves = next;
    }
    (0..n as u32).filter(|&v| !removed[v as usize]).collect()
}

/// Canonical encoding of a labeled free tree, invariant under vertex
/// renumbering: root at the centre (or combine the two centre halves in
/// sorted order when the tree is bicentral).
pub(crate) fn tree_encoding(g: &Graph) -> Vec<u64> {
    debug_assert!(
        g.edge_count() + 1 == g.vertex_count() && g.is_connected(),
        "tree_encoding requires a tree"
    );
    let centers = tree_centers(g);
    match centers[..] {
        [c] => {
            let mut out = Vec::new();
            rooted_encoding(g, c, None, &mut out);
            out
        }
        [c1, c2] => {
            let el = {
                let eid = g.edge_between(c1, c2).expect("bicentral centres are adjacent");
                g.edge(eid).2
            };
            let mut h1 = Vec::new();
            rooted_encoding(g, c1, Some(c2), &mut h1);
            let mut h2 = Vec::new();
            rooted_encoding(g, c2, Some(c1), &mut h2);
            let (lo, hi) = if h1 <= h2 { (h1, h2) } else { (h2, h1) };
            let mut out = vec![tok(el)];
            out.extend(lo);
            out.extend(hi);
            out
        }
        _ => unreachable!("a tree has one or two centres"),
    }
}

/// The canonical-parent encoding of a tree with at least 2 edges: the
/// minimal canonical encoding over all single-leaf removals.
fn canonical_parent_encoding(g: &Graph) -> Vec<u64> {
    debug_assert!(g.edge_count() >= 2);
    let mut best: Option<Vec<u64>> = None;
    for v in 0..g.vertex_count() as u32 {
        if g.degree(v) != 1 {
            continue;
        }
        let keep: Vec<EdgeId> =
            g.edges().filter(|&(_, u, w, _)| u != v && w != v).map(|(eid, _, _, _)| eid).collect();
        let (parent, _) = g.edge_subgraph(&keep).expect("edge ids from this graph");
        let enc = tree_encoding(&parent);
        if best.as_ref().is_none_or(|b| enc < *b) {
            best = Some(enc);
        }
    }
    best.expect("a tree with >= 2 edges has a leaf")
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphmine_graph::enumerate::frequent_bruteforce;

    #[test]
    fn tree_encoding_invariant_under_renumbering() {
        // Path a-b-c with labels 0,1,2 built in two different orders.
        let mut g1 = Graph::new();
        let a = g1.add_vertex(0);
        let b = g1.add_vertex(1);
        let c = g1.add_vertex(2);
        g1.add_edge(a, b, 7).unwrap();
        g1.add_edge(b, c, 8).unwrap();
        let mut g2 = Graph::new();
        let c = g2.add_vertex(2);
        let a = g2.add_vertex(0);
        let b = g2.add_vertex(1);
        g2.add_edge(b, c, 8).unwrap();
        g2.add_edge(a, b, 7).unwrap();
        assert_eq!(tree_encoding(&g1), tree_encoding(&g2));
    }

    #[test]
    fn tree_encoding_distinguishes_star_from_path() {
        let mut path = Graph::new();
        for _ in 0..4 {
            path.add_vertex(0);
        }
        path.add_edge(0, 1, 0).unwrap();
        path.add_edge(1, 2, 0).unwrap();
        path.add_edge(2, 3, 0).unwrap();
        let mut star = Graph::new();
        for _ in 0..4 {
            star.add_vertex(0);
        }
        star.add_edge(0, 1, 0).unwrap();
        star.add_edge(0, 2, 0).unwrap();
        star.add_edge(0, 3, 0).unwrap();
        assert_ne!(tree_encoding(&path), tree_encoding(&star));
    }

    #[test]
    fn centers_of_even_path_are_two() {
        let mut g = Graph::new();
        for _ in 0..4 {
            g.add_vertex(0);
        }
        g.add_edge(0, 1, 0).unwrap();
        g.add_edge(1, 2, 0).unwrap();
        g.add_edge(2, 3, 0).unwrap();
        assert_eq!(tree_centers(&g), vec![1, 2]);
    }

    #[test]
    fn matches_bruteforce() {
        let mut graphs = Vec::new();
        for i in 0..5 {
            let mut g = Graph::new();
            for j in 0..5 {
                g.add_vertex(j % 3);
            }
            g.add_edge(0, 1, 0).unwrap();
            g.add_edge(1, 2, 0).unwrap();
            g.add_edge(2, 3, 1).unwrap();
            g.add_edge(3, 4, 0).unwrap();
            if i % 2 == 0 {
                g.add_edge(4, 0, 1).unwrap();
            }
            if i == 4 {
                g.add_edge(1, 3, 0).unwrap();
            }
            graphs.push(g);
        }
        let db = GraphDb::from_graphs(graphs);
        for sup in 1..=5 {
            let mined = Gaston::new().mine(&db, sup);
            let oracle = frequent_bruteforce(&db, sup, 12);
            assert!(
                mined.same_codes_and_supports(&oracle),
                "support {sup}: mined {} oracle {}",
                mined.len(),
                oracle.len()
            );
        }
    }

    #[test]
    fn size_cap() {
        let mut g = Graph::new();
        for _ in 0..4 {
            g.add_vertex(0);
        }
        g.add_edge(0, 1, 0).unwrap();
        g.add_edge(1, 2, 0).unwrap();
        g.add_edge(2, 3, 0).unwrap();
        let db = GraphDb::from_graphs(vec![g]);
        let mined = Gaston::capped(2).mine(&db, 1);
        assert!(mined.iter().all(|p| p.size() <= 2));
        assert!(mined.same_codes_and_supports(&frequent_bruteforce(&db, 1, 2)));
    }

    #[test]
    fn empty_and_trivial_inputs() {
        assert!(Gaston::new().mine(&GraphDb::new(), 1).is_empty());
        let mut lonely = Graph::new();
        lonely.add_vertex(3);
        let db = GraphDb::from_graphs(vec![lonely]);
        assert!(Gaston::new().mine(&db, 1).is_empty());
    }
}
