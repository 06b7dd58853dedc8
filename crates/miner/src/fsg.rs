//! FSG (Kuramochi & Karypis, ICDM 2001): Apriori-style mining with
//! (k−1)-core joins and TID lists.
//!
//! The paper's related work singles out AGM and FSG as the first complete
//! frequent-subgraph miners and notes why they do not scale ("multiple
//! scans of the databases … many candidates"). This implementation follows
//! FSG's actual design, which is instructive next to the plain
//! extension-based [`Apriori`](crate::Apriori):
//!
//! * **candidate generation by core join** — two frequent `k`-edge patterns
//!   are joined only if they share a common `(k−1)`-edge subgraph (a
//!   *core*); the candidate set is the canonical union of their gluings,
//!   realised here as one-edge extensions filtered by "some other
//!   `(k−1)`-subgraph of the candidate is frequent too";
//! * **downward-closure pruning** — every connected `k`-edge subgraph of a
//!   candidate must be frequent, checked before any counting;
//! * **TID lists** — each frequent pattern keeps its supporter list, and a
//!   candidate is counted only against the intersection-bound list of its
//!   parent.
//!
//! Exactness is cross-validated against gSpan/Gaston in the test suites.

use rustc_hash::FxHashMap;

use graphmine_graph::enumerate::one_edge_deletions;
use graphmine_graph::iso::screened_support;
use graphmine_graph::{DfsCode, GraphDb, GraphId, Pattern, PatternSet, Support};
use graphmine_telemetry::Counters;

use crate::extend::{one_edge_extensions, EdgeVocab};
use crate::{within_cap, MemoryMiner};

/// The FSG-style miner.
#[derive(Debug, Clone, Default)]
pub struct Fsg {
    /// Optional maximum pattern size in edges.
    pub max_edges: Option<usize>,
}

impl Fsg {
    /// An FSG miner with no size cap.
    pub fn new() -> Self {
        Self::default()
    }

    /// An FSG miner that stops at patterns of `max_edges` edges.
    pub fn capped(max_edges: usize) -> Self {
        Fsg { max_edges: Some(max_edges) }
    }
}

impl MemoryMiner for Fsg {
    fn mine(&self, db: &GraphDb, min_support: Support) -> PatternSet {
        let mut out = PatternSet::new();
        if db.is_empty() || min_support == 0 {
            return out;
        }

        // F1 with TID lists, off each graph's index of distinct edge triples.
        let mut tids: FxHashMap<DfsCode, Vec<GraphId>> = FxHashMap::default();
        for (gid, g) in db.iter() {
            for &((la, el, lb), _) in g.triples() {
                let code = DfsCode(vec![graphmine_graph::DfsEdge::new(0, 1, la, el, lb)]);
                tids.entry(code).or_default().push(gid);
            }
        }
        tids.retain(|_, g| g.len() as Support >= min_support);
        let vocab = EdgeVocab::from_triples(tids.keys().map(|c| {
            let e = c.0[0];
            (e.from_label, e.edge_label, e.to_label)
        }));

        let mut frontier: Vec<(Pattern, Vec<GraphId>)> = tids
            .into_iter()
            .map(|(code, gids)| (Pattern::from_code(code, gids.len() as Support), gids))
            .collect();
        for (p, _) in &frontier {
            out.insert(p.clone());
        }

        while !frontier.is_empty() {
            let level_size = frontier[0].0.size();
            if !within_cap(self.max_edges, level_size + 1) {
                break;
            }
            // Join phase: one-edge extensions of frequent k-patterns whose
            // *other* (k)-subgraphs include another frequent pattern — the
            // core-join condition. (For k = 1 any extension qualifies: the
            // cores are single vertices.)
            let mut candidates: FxHashMap<DfsCode, Vec<GraphId>> = FxHashMap::default();
            for (p, gids) in &frontier {
                for code in one_edge_extensions(&p.graph, &vocab) {
                    if out.contains(&code) || candidates.contains_key(&code) {
                        continue;
                    }
                    let cand_graph = code.to_graph();
                    // Downward closure: every connected k-subgraph frequent.
                    let dels = one_edge_deletions(&cand_graph);
                    debug_assert!(!dels.is_empty());
                    if !dels.iter().all(|d| out.contains(d)) {
                        continue;
                    }
                    // Core-join condition holds automatically now (the
                    // deletion of the added edge is `p`, and all other
                    // deletions are frequent).
                    candidates.insert(code, gids.clone());
                }
            }
            // Count phase, restricted to the parent TID list.
            let mut next = Vec::new();
            for (code, parent_tids) in candidates {
                let (sup, supporters) =
                    screened_support(db, Some(&parent_tids), &code, min_support, Counters::noop());
                if sup >= min_support {
                    let p = Pattern::from_code(code, sup);
                    out.insert(p.clone());
                    next.push((p, supporters));
                }
            }
            frontier = next;
        }
        out
    }

    fn name(&self) -> &'static str {
        "FSG"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GSpan, MemoryMiner};
    use graphmine_graph::dfscode::min_dfs_code;
    use graphmine_graph::enumerate::frequent_bruteforce;
    use graphmine_graph::Graph;

    fn db() -> GraphDb {
        let mut graphs = Vec::new();
        for i in 0..5u32 {
            let mut g = Graph::new();
            for j in 0..5 {
                g.add_vertex(j % 2);
            }
            g.add_edge(0, 1, 0).unwrap();
            g.add_edge(1, 2, 1).unwrap();
            g.add_edge(2, 3, 0).unwrap();
            g.add_edge(3, 4, 1).unwrap();
            if i % 2 == 0 {
                g.add_edge(4, 0, 0).unwrap();
            }
            if i == 4 {
                g.add_edge(1, 3, 1).unwrap();
            }
            graphs.push(g);
        }
        GraphDb::from_graphs(graphs)
    }

    #[test]
    fn matches_bruteforce_and_gspan() {
        let db = db();
        for sup in 1..=5 {
            let fsg = Fsg::new().mine(&db, sup);
            let oracle = frequent_bruteforce(&db, sup, 12);
            assert!(
                fsg.same_codes_and_supports(&oracle),
                "sup {sup}: fsg {} oracle {}",
                fsg.len(),
                oracle.len()
            );
            let gspan = GSpan::new().mine(&db, sup);
            assert!(fsg.same_codes_and_supports(&gspan));
        }
    }

    #[test]
    fn cap_is_respected() {
        let db = db();
        let fsg = Fsg::capped(3).mine(&db, 1);
        assert!(fsg.max_size() <= 3);
        assert!(fsg.same_codes_and_supports(&frequent_bruteforce(&db, 1, 3)));
    }

    #[test]
    fn downward_closure_prunes_disconnecting_deletions_correctly() {
        // A long path: deleting interior edges disconnects; only pendant
        // deletions count for the closure check, which must not reject the
        // path.
        let mut g = Graph::new();
        for _ in 0..6 {
            g.add_vertex(0);
        }
        for i in 0..5 {
            g.add_edge(i, i + 1, 0).unwrap();
        }
        let db = GraphDb::from_graphs(vec![g.clone(), g]);
        let fsg = Fsg::new().mine(&db, 2);
        assert!(fsg.contains(&min_dfs_code(&db.graph(0).clone())), "full path found");
    }

    #[test]
    fn empty_inputs() {
        assert!(Fsg::new().mine(&GraphDb::new(), 1).is_empty());
        assert!(Fsg::new().mine(&db(), 0).is_empty());
    }
}
