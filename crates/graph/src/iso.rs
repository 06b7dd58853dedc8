//! Subgraph isomorphism: embedding search and support counting.
//!
//! The paper's `CheckFrequency` step (Sec. 4.3, Fig. 11) must decide, for
//! each candidate pattern, how many database graphs contain it. We embed the
//! pattern's DFS code edge-by-edge with backtracking; processing edges in
//! code order keeps the partial image connected, so candidate vertices are
//! always drawn from the neighbourhood of the current image — the classic
//! cheap-and-effective search order for sparse labeled graphs.
//!
//! [`screened_support`] adds an edge-triple screen (backed by each graph's
//! incrementally-maintained triple index) so that candidates are only
//! matched against graphs that contain every edge triple the pattern needs,
//! and stops once a threshold is out of reach. It is the fallback behind
//! [`crate::EmbeddingStore::support`], which answers from embedding lists
//! whenever they fit its byte budget; [`support`] and [`supporting_gids`]
//! are the plain reference search tests check both against.

use graphmine_telemetry::{Counter, Counters};

use crate::graph::edge_triple;
use crate::{DfsCode, ELabel, Graph, GraphDb, GraphId, Support, VLabel, VertexId};

/// Reusable backtracking-search scratch: one allocation per counting pass
/// instead of one per `contains` call. Every search leaves the buffers
/// all-false (the recursion restores flags on backtrack, seed flags are
/// reset manually), so reuse is a clear-and-resize, not a refill.
#[derive(Debug, Default)]
struct MatchScratch {
    map: Vec<VertexId>,
    mapped: Vec<bool>,
    used: Vec<bool>,
}

impl MatchScratch {
    fn reset_for(&mut self, target: &Graph) {
        self.map.clear();
        self.mapped.clear();
        self.mapped.resize(target.vertex_count(), false);
        self.used.clear();
        self.used.resize(target.edge_count(), false);
    }
}

struct MatchState<'a> {
    target: &'a Graph,
    code: &'a [crate::DfsEdge],
    /// code vertex -> target vertex
    map: &'a mut Vec<VertexId>,
    /// target vertex mapped?
    mapped: &'a mut Vec<bool>,
    /// target edge used?
    used: &'a mut Vec<bool>,
}

impl<'a> MatchState<'a> {
    fn search(&mut self, depth: usize) -> bool {
        let Some(e) = self.code.get(depth) else {
            return true;
        };
        if e.is_forward() {
            let gu = self.map[e.from as usize];
            // This range is exactly the neighbours with the required vertex
            // and edge labels. Iterate indices to sidestep borrowing `self`
            // across recursion.
            for ai in self.target.neighbor_range(gu, e.to_label, e.edge_label) {
                let a = self.target.neighbors(gu)[ai];
                if self.used[a.eid as usize] || self.mapped[a.to as usize] {
                    continue;
                }
                self.map.push(a.to);
                self.mapped[a.to as usize] = true;
                self.used[a.eid as usize] = true;
                if self.search(depth + 1) {
                    return true;
                }
                self.used[a.eid as usize] = false;
                self.mapped[a.to as usize] = false;
                self.map.pop();
            }
            false
        } else {
            let gu = self.map[e.from as usize];
            let gv = self.map[e.to as usize];
            let Some(eid) = self.target.edge_between(gu, gv) else {
                return false;
            };
            if self.used[eid as usize] || self.target.edge(eid).2 != e.edge_label {
                return false;
            }
            self.used[eid as usize] = true;
            if self.search(depth + 1) {
                return true;
            }
            self.used[eid as usize] = false;
            false
        }
    }
}

/// `true` when `target` contains a subgraph isomorphic to the pattern
/// encoded by `code`.
///
/// The code must be a valid DFS code (as produced by [`crate::dfscode`] or
/// by rightmost extension); it does not need to be minimal.
pub fn contains(target: &Graph, code: &DfsCode) -> bool {
    contains_counted(target, code, Counters::noop())
}

/// [`contains`] with telemetry: tallies [`Counter::SearchCalls`] once per
/// seeded backtracking search attempt (each `MatchState::search` entry).
pub fn contains_counted(target: &Graph, code: &DfsCode, counters: &Counters) -> bool {
    contains_with_scratch(target, code, counters, &mut MatchScratch::default())
}

/// [`contains_counted`] over caller-owned scratch buffers, so a batch
/// count ([`screened_support`]) pays one allocation per pass rather than
/// one per tested graph.
fn contains_with_scratch(
    target: &Graph,
    code: &DfsCode,
    counters: &Counters,
    scratch: &mut MatchScratch,
) -> bool {
    if code.is_empty() {
        return target.vertex_count() > 0;
    }
    if code.len() > target.edge_count() || code.vertex_count() > target.vertex_count() {
        return false;
    }
    let first = &code.0[0];
    // One set of scratch buffers reused across seed edges: the recursive
    // search restores every flag it sets on backtrack, so only the seed
    // flags need manual reset between attempts.
    scratch.reset_for(target);
    let MatchScratch { map, mapped, used } = scratch;
    let mut st = MatchState { target, code: &code.0, map, mapped, used };
    for (eid, u, v, el) in target.edges() {
        if el != first.edge_label {
            continue;
        }
        for (a, b) in [(u, v), (v, u)] {
            if target.vlabel(a) != first.from_label || target.vlabel(b) != first.to_label {
                continue;
            }
            st.map.clear();
            st.map.extend_from_slice(&[a, b]);
            st.mapped[a as usize] = true;
            st.mapped[b as usize] = true;
            st.used[eid as usize] = true;
            counters.bump(Counter::SearchCalls);
            let found = st.search(1);
            st.mapped[a as usize] = false;
            st.mapped[b as usize] = false;
            st.used[eid as usize] = false;
            if found {
                return true;
            }
        }
    }
    false
}

/// `true` when `target` contains a subgraph isomorphic to `pattern`
/// (connected, at least one edge).
pub fn contains_graph(target: &Graph, pattern: &Graph) -> bool {
    if pattern.edge_count() == 0 {
        // A single labeled vertex: contained iff some vertex matches.
        return pattern.vlabels().first().is_some_and(|&l| target.vlabels().contains(&l));
    }
    contains(target, &crate::dfscode::min_dfs_code(pattern))
}

/// Counts the support of `code` in `db` by searching every graph: the plain
/// reference count, with no screen and no early stop.
///
/// Counting callers go through [`crate::EmbeddingStore::support`], or
/// [`screened_support`] when they keep no embedding lists.
pub fn support(db: &GraphDb, code: &DfsCode) -> Support {
    db.iter().filter(|(_, g)| contains(g, code)).count() as Support
}

/// The gids of all graphs in `db` containing `code`.
pub fn supporting_gids(db: &GraphDb, code: &DfsCode) -> Vec<GraphId> {
    db.iter().filter(|(_, g)| contains(g, code)).map(|(gid, _)| gid).collect()
}

/// Counts the support of `code` over `over` (every graph of `db` when
/// `None`), screening each graph by its edge-triple index before running
/// the embedding search. Returns the supporters found, in `over`'s order.
///
/// `over` restricts the count to a known superset of the true supporters
/// (a parent pattern's supporter list, support being anti-monotone). With
/// `min_needed > 0` the count stops once `min_needed` is out of reach; a
/// returned support of at least `min_needed` is then still exact, and one
/// below it only a lower bound. Tallies [`Counter::IsoTestsRun`] per search run
/// and [`Counter::IsoTestsPruned`] per graph the screen ruled out.
pub fn screened_support(
    db: &GraphDb,
    over: Option<&[GraphId]>,
    code: &DfsCode,
    min_needed: Support,
    counters: &Counters,
) -> (Support, Vec<GraphId>) {
    match over {
        Some(gids) => screened_core(db, gids.iter().copied(), code, min_needed, counters),
        None => screened_core(db, 0..db.len() as GraphId, code, min_needed, counters),
    }
}

/// [`screened_support`] over any gid sequence, so the whole-database count
/// needs no `0..len` vector.
fn screened_core<I>(
    db: &GraphDb,
    gids: I,
    code: &DfsCode,
    min_needed: Support,
    counters: &Counters,
) -> (Support, Vec<GraphId>)
where
    I: ExactSizeIterator<Item = GraphId>,
{
    // The pattern's required triple multiset, as a small sorted vec —
    // DFS codes have at most a few dozen edges, so this beats hashing.
    let mut needed: Vec<((VLabel, ELabel, VLabel), u32)> = Vec::with_capacity(code.len());
    for e in &code.0 {
        let t = edge_triple(e.from_label, e.edge_label, e.to_label);
        match needed.binary_search_by_key(&t, |&(k, _)| k) {
            Ok(i) => needed[i].1 += 1,
            Err(i) => needed.insert(i, (t, 1)),
        }
    }
    let mut scratch = MatchScratch::default();
    let mut supporters = Vec::new();
    let mut remaining = gids.len() as Support;
    for gid in gids {
        remaining -= 1;
        let g = db.graph(gid);
        let feasible = needed.iter().all(|&((lu, le, lv), n)| g.triple_count(lu, le, lv) >= n);
        if feasible {
            counters.bump(Counter::IsoTestsRun);
            if contains_with_scratch(g, code, counters, &mut scratch) {
                supporters.push(gid);
            }
        } else {
            counters.bump(Counter::IsoTestsPruned);
        }
        if min_needed > 0 && supporters.len() as Support + remaining < min_needed {
            break;
        }
    }
    (supporters.len() as Support, supporters)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dfscode::min_dfs_code;
    use crate::DfsEdge;

    fn path3(labels: [u32; 3], elabels: [u32; 2]) -> Graph {
        let mut g = Graph::new();
        let v: Vec<_> = labels.iter().map(|&l| g.add_vertex(l)).collect();
        g.add_edge(v[0], v[1], elabels[0]).unwrap();
        g.add_edge(v[1], v[2], elabels[1]).unwrap();
        g
    }

    #[test]
    fn contains_single_edge() {
        let g = path3([0, 1, 2], [5, 6]);
        let code = DfsCode(vec![DfsEdge::new(0, 1, 0, 5, 1)]);
        assert!(contains(&g, &code));
        let missing = DfsCode(vec![DfsEdge::new(0, 1, 0, 9, 1)]);
        assert!(!contains(&g, &missing));
    }

    #[test]
    fn contains_respects_edge_multiplicity() {
        // Pattern is a 2-edge path with both edges labeled 5; target has only
        // one edge labeled 5, so the pattern must NOT match even though the
        // triple exists.
        let target = path3([0, 0, 0], [5, 6]);
        let mut pattern = Graph::new();
        let a = pattern.add_vertex(0);
        let b = pattern.add_vertex(0);
        let c = pattern.add_vertex(0);
        pattern.add_edge(a, b, 5).unwrap();
        pattern.add_edge(b, c, 5).unwrap();
        assert!(!contains_graph(&target, &pattern));
    }

    #[test]
    fn contains_triangle_in_triangle_not_in_path() {
        let mut tri = Graph::new();
        for _ in 0..3 {
            tri.add_vertex(0);
        }
        tri.add_edge(0, 1, 0).unwrap();
        tri.add_edge(1, 2, 0).unwrap();
        tri.add_edge(2, 0, 0).unwrap();
        let code = min_dfs_code(&tri);
        assert!(contains(&tri, &code));
        let path = path3([0, 0, 0], [0, 0]);
        assert!(!contains(&path, &code));
        // ... but the path IS contained in the triangle.
        assert!(contains_graph(&tri, &path));
    }

    #[test]
    fn support_counts_graphs_not_embeddings() {
        // The star has many embeddings of an edge pattern but counts once.
        let mut star = Graph::new();
        let c = star.add_vertex(0);
        for _ in 0..4 {
            let leaf = star.add_vertex(1);
            star.add_edge(c, leaf, 7).unwrap();
        }
        let db = GraphDb::from_graphs(vec![star, path3([0, 1, 2], [7, 8])]);
        let code = DfsCode(vec![DfsEdge::new(0, 1, 0, 7, 1)]);
        assert_eq!(support(&db, &code), 2);
        assert_eq!(supporting_gids(&db, &code), vec![0, 1]);
    }

    #[test]
    fn support_index_matches_naive() {
        let db = GraphDb::from_graphs(vec![
            path3([0, 1, 0], [3, 3]),
            path3([0, 1, 2], [3, 4]),
            path3([1, 1, 1], [3, 3]),
        ]);
        let codes = [
            DfsCode(vec![DfsEdge::new(0, 1, 0, 3, 1)]),
            DfsCode(vec![DfsEdge::new(0, 1, 1, 3, 1)]),
            DfsCode(vec![DfsEdge::new(0, 1, 0, 3, 1), DfsEdge::new(1, 2, 1, 3, 0)]),
        ];
        for code in &codes {
            let (sup, gids) = screened_support(&db, None, code, 0, Counters::noop());
            assert_eq!(sup, support(&db, code), "code {code}");
            assert_eq!(gids, supporting_gids(&db, code), "code {code}");
        }
    }

    #[test]
    fn support_bounded_early_abort_is_sound() {
        let db: GraphDb = (0..10).map(|_| path3([0, 1, 2], [3, 4])).collect();
        let bounded = |code: &DfsCode| screened_support(&db, None, code, 5, Counters::noop()).0;
        let code = DfsCode(vec![DfsEdge::new(0, 1, 0, 3, 1)]);
        // Threshold reachable: exact count returned.
        assert_eq!(bounded(&code), 10);
        let rare = DfsCode(vec![DfsEdge::new(0, 1, 9, 9, 9)]);
        // Unreachable threshold: may abort early but must stay below it.
        assert!(bounded(&rare) < 5);
    }

    #[test]
    fn support_over_restricts_to_candidates() {
        let db = GraphDb::from_graphs(vec![
            path3([0, 1, 2], [3, 4]),
            path3([0, 1, 2], [3, 4]),
            path3([0, 1, 2], [3, 4]),
        ]);
        let over = |gids: &[GraphId], code: &DfsCode, min_needed: Support| {
            screened_support(&db, Some(gids), code, min_needed, Counters::noop())
        };
        let code = DfsCode(vec![DfsEdge::new(0, 1, 0, 3, 1)]);
        let (sup, gids) = over(&[0, 2], &code, 0);
        assert_eq!(sup, 2);
        assert_eq!(gids, vec![0, 2]);
        let (sup, gids) = over(&[0, 1, 2], &code, 0);
        assert_eq!(sup, 3);
        assert_eq!(gids, vec![0, 1, 2]);
        // Early abort stays below the threshold.
        let rare = DfsCode(vec![DfsEdge::new(0, 1, 9, 9, 9)]);
        let (sup, _) = over(&[0, 1, 2], &rare, 2);
        assert!(sup < 2);
    }

    #[test]
    fn single_vertex_pattern_containment() {
        let g = path3([0, 1, 2], [0, 0]);
        let mut v = Graph::new();
        v.add_vertex(1);
        assert!(contains_graph(&g, &v));
        let mut w = Graph::new();
        w.add_vertex(9);
        assert!(!contains_graph(&g, &w));
    }
}
