//! Closed and maximal pattern post-processing.
//!
//! The paper's related work discusses CloseGraph (Yan & Han, KDD 2003) and
//! SPIN (Huan et al., KDD 2004), which mine *closed* and *maximal* frequent
//! subgraphs: a frequent pattern is **closed** when no proper frequent
//! supergraph has the same support, and **maximal** when no proper frequent
//! supergraph exists at all. Both are concise lossy/lossless summaries of
//! the full result — maximal ⊆ closed ⊆ all frequent.
//!
//! These filters post-process a complete [`PatternSet`] (from any miner in
//! this crate, or from PartMiner). Candidate supergraph checks are pruned
//! by size stratification: a pattern of size `k` can only be subsumed by
//! patterns of size `> k`, and (for closedness) only by those with equal
//! support.

use graphmine_graph::{iso, Pattern, PatternSet};

/// Filters a complete frequent-pattern set down to the **closed** patterns:
/// those with no proper frequent supergraph of the same support.
pub fn closed_patterns(all: &PatternSet) -> PatternSet {
    filter_subsumed(all, |p, candidate| candidate.support == p.support)
}

/// Filters a complete frequent-pattern set down to the **maximal**
/// patterns: those with no proper frequent supergraph at all.
pub fn maximal_patterns(all: &PatternSet) -> PatternSet {
    filter_subsumed(all, |_, _| true)
}

/// Keeps patterns not subsumed by any *relevant* (per `relevant`) strictly
/// larger pattern containing them.
fn filter_subsumed(all: &PatternSet, relevant: impl Fn(&Pattern, &Pattern) -> bool) -> PatternSet {
    // By size, then code: supergraphs are strictly larger, and the patterns
    // extending `p`'s code, all supergraphs of `p`, sort right after it
    // among those one edge larger, so each scan starts there.
    let mut by_size: Vec<&Pattern> = all.iter().collect();
    by_size.sort_by_key(|p| p.size());
    let subsumed = |p: &Pattern| {
        let larger = by_size.partition_point(|q| q.size() <= p.size());
        let start = by_size.partition_point(|q| (q.size(), &q.code) < (p.size() + 1, &p.code));
        by_size[start..].iter().chain(&by_size[larger..start]).any(|candidate| {
            relevant(p, candidate)
                && candidate.graph.vertex_count() >= p.graph.vertex_count()
                && iso::contains(&candidate.graph, &p.code)
        })
    };
    all.iter().filter(|p| !subsumed(p)).cloned().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GSpan, MemoryMiner};
    use graphmine_graph::{Graph, GraphDb};

    /// Database where every graph is the same labeled 3-path, so the only
    /// closed (and maximal) pattern is the full path.
    fn uniform_paths(n: usize) -> GraphDb {
        (0..n)
            .map(|_| {
                let mut g = Graph::new();
                let a = g.add_vertex(0);
                let b = g.add_vertex(1);
                let c = g.add_vertex(2);
                g.add_edge(a, b, 5).unwrap();
                g.add_edge(b, c, 6).unwrap();
                g
            })
            .collect()
    }

    #[test]
    fn uniform_database_closes_to_the_full_graph() {
        let db = uniform_paths(5);
        let all = GSpan::new().mine(&db, 5);
        assert_eq!(all.len(), 3); // two edges + the path
        let closed = closed_patterns(&all);
        assert_eq!(closed.len(), 1, "only the 2-edge path is closed");
        assert_eq!(closed.iter().next().unwrap().size(), 2);
        let maximal = maximal_patterns(&all);
        assert!(maximal.same_codes(&closed));
    }

    #[test]
    fn closed_keeps_patterns_with_distinct_supports() {
        // 4 graphs contain edge (0)-5-(1); only 2 also extend it to a path.
        let mut graphs = Vec::new();
        for i in 0..4 {
            let mut g = Graph::new();
            let a = g.add_vertex(0);
            let b = g.add_vertex(1);
            g.add_edge(a, b, 5).unwrap();
            if i < 2 {
                let c = g.add_vertex(2);
                g.add_edge(b, c, 6).unwrap();
            }
            graphs.push(g);
        }
        let db = GraphDb::from_graphs(graphs);
        let all = GSpan::new().mine(&db, 2);
        let closed = closed_patterns(&all);
        // The single edge (support 4) is closed because its extension has
        // support 2; the path (support 2) is closed; the 6-edge (support 2)
        // is NOT closed (the path contains it with equal support).
        assert_eq!(closed.len(), 2, "{:?}", closed.codes().collect::<Vec<_>>());
        let maximal = maximal_patterns(&all);
        // Only the path is maximal: the 5-edge has a frequent supergraph.
        assert_eq!(maximal.len(), 1);
        assert_eq!(maximal.iter().next().unwrap().size(), 2);
    }

    #[test]
    fn maximal_is_subset_of_closed_is_subset_of_all() {
        let mut graphs = Vec::new();
        for i in 0..6u32 {
            let mut g = Graph::new();
            for j in 0..5 {
                g.add_vertex(j % 2);
            }
            g.add_edge(0, 1, 0).unwrap();
            g.add_edge(1, 2, 1).unwrap();
            g.add_edge(2, 3, 0).unwrap();
            if i % 2 == 0 {
                g.add_edge(3, 4, 1).unwrap();
            }
            if i % 3 == 0 {
                g.add_edge(4, 0, 0).unwrap();
            }
            graphs.push(g);
        }
        let db = GraphDb::from_graphs(graphs);
        let all = GSpan::new().mine(&db, 2);
        let closed = closed_patterns(&all);
        let maximal = maximal_patterns(&all);
        assert!(!closed.is_empty());
        assert!(maximal.len() <= closed.len());
        assert!(closed.len() <= all.len());
        for p in maximal.iter() {
            assert!(closed.contains(&p.code), "maximal ⊆ closed");
        }
        for p in closed.iter() {
            assert_eq!(all.support(&p.code), Some(p.support), "closed ⊆ all");
        }
        // Definition check against brute force for every pattern.
        for p in all.iter() {
            let has_equal_super = all.iter().any(|q| {
                q.size() > p.size() && q.support == p.support && iso::contains(&q.graph, &p.code)
            });
            assert_eq!(closed.contains(&p.code), !has_equal_super, "{}", p.code);
            let has_any_super =
                all.iter().any(|q| q.size() > p.size() && iso::contains(&q.graph, &p.code));
            assert_eq!(maximal.contains(&p.code), !has_any_super, "{}", p.code);
        }
    }

    #[test]
    fn empty_input() {
        let empty = PatternSet::new();
        assert!(closed_patterns(&empty).is_empty());
        assert!(maximal_patterns(&empty).is_empty());
    }
}
