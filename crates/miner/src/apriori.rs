//! A level-wise extend-and-count miner (AGM/FSG family).
//!
//! The paper's related-work section discusses the Apriori-style algorithms
//! AGM and FSG as the first complete graph miners; this module provides that
//! baseline. Candidates at level `k+1` are generated by one-edge extension
//! of every frequent `k`-edge pattern over the frequent-edge vocabulary
//! ([`crate::extend`]), then counted against the database through
//! [`EmbeddingStore::support`] — embedding lists under a byte budget, the
//! triple-screened search on a spill — or, with lists off, through that
//! search alone. It is slower than gSpan/Gaston (it pays an isolated
//! support count per candidate) but structurally simple, which makes it a
//! trustworthy mid-size oracle.

use graphmine_graph::iso::screened_support;
use graphmine_graph::{
    EmbeddingMode, EmbeddingStore, GraphDb, Pattern, PatternSet, Support, DEFAULT_EMBEDDING_BUDGET,
};
use graphmine_telemetry::Counters;

use crate::extend::{canonical_extensions, EdgeVocab};
use crate::{within_cap, MemoryMiner};

/// The Apriori-style level-wise miner.
#[derive(Debug, Clone, Default)]
pub struct Apriori {
    /// Optional maximum pattern size in edges.
    pub max_edges: Option<usize>,
    /// Whether candidate counting keeps embedding lists (defaults to
    /// [`EmbeddingMode::Auto`]) or always re-searches.
    pub embedding_lists: EmbeddingMode,
}

impl Apriori {
    /// An Apriori miner with no size cap.
    pub fn new() -> Self {
        Self::default()
    }

    /// An Apriori miner that stops at patterns of `max_edges` edges.
    pub fn capped(max_edges: usize) -> Self {
        Apriori { max_edges: Some(max_edges), ..Self::default() }
    }
}

impl MemoryMiner for Apriori {
    fn mine(&self, db: &GraphDb, min_support: Support) -> PatternSet {
        self.mine_with(db, min_support, Counters::noop())
    }

    fn mine_counted(&self, db: &GraphDb, min_support: Support, counters: &Counters) -> PatternSet {
        self.mine_with(db, min_support, counters)
    }

    fn name(&self) -> &'static str {
        "Apriori"
    }
}

impl Apriori {
    fn mine_with(&self, db: &GraphDb, min_support: Support, counters: &Counters) -> PatternSet {
        let mut out = PatternSet::new();
        if db.is_empty() || min_support == 0 {
            return out;
        }
        let budget = self.embedding_lists.effective_budget(db, DEFAULT_EMBEDDING_BUDGET);
        let mut store = self.embedding_lists.enabled().then(|| EmbeddingStore::new(db, budget));
        let vocab = EdgeVocab::frequent_in(db, min_support);

        // Level 1: frequent single edges with exact per-graph supports,
        // read straight off each graph's edge-triple index.
        let mut counts: rustc_hash::FxHashMap<(u32, u32, u32), Support> =
            rustc_hash::FxHashMap::default();
        for (_, g) in db.iter() {
            for &(t, _) in g.triples() {
                *counts.entry(t).or_insert(0) += 1;
            }
        }
        let mut frontier: Vec<Pattern> = Vec::new();
        for ((la, el, lb), sup) in counts {
            if sup >= min_support {
                let code =
                    graphmine_graph::DfsCode(vec![graphmine_graph::DfsEdge::new(0, 1, la, el, lb)]);
                let p = Pattern::from_code(code, sup);
                out.insert(p.clone());
                frontier.push(p);
            }
        }

        // Levels k+1: extend, dedupe, count, filter.
        while !frontier.is_empty() {
            let next_size = frontier[0].size() + 1;
            if !within_cap(self.max_edges, next_size) {
                break;
            }
            let mut candidates = PatternSet::new();
            for p in &frontier {
                for code in canonical_extensions(&p.code, &p.graph, &vocab) {
                    if !candidates.contains(&code) && !out.contains(&code) {
                        candidates.insert(Pattern::from_code(code, 0));
                    }
                }
            }
            if let Some(store) = store.as_mut() {
                store.evict_below(next_size.saturating_sub(1));
            }
            let mut next = Vec::new();
            for mut p in candidates.into_patterns() {
                let sup = match store.as_mut() {
                    Some(store) => store.support(&p.code, None, min_support, counters).support,
                    None => screened_support(db, None, &p.code, min_support, counters).0,
                };
                if sup >= min_support {
                    p.support = sup;
                    out.insert(p.clone());
                    next.push(p);
                }
            }
            frontier = next;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphmine_graph::enumerate::frequent_bruteforce;
    use graphmine_graph::Graph;

    #[test]
    fn matches_bruteforce() {
        let mut graphs = Vec::new();
        for i in 0..4 {
            let mut g = Graph::new();
            for j in 0..4 {
                g.add_vertex(j % 2);
            }
            g.add_edge(0, 1, 0).unwrap();
            g.add_edge(1, 2, 1).unwrap();
            g.add_edge(2, 3, 0).unwrap();
            if i % 2 == 1 {
                g.add_edge(3, 0, 1).unwrap();
            }
            graphs.push(g);
        }
        let db = GraphDb::from_graphs(graphs);
        for sup in 1..=4 {
            let mined = Apriori::new().mine(&db, sup);
            let oracle = frequent_bruteforce(&db, sup, 10);
            assert!(
                mined.same_codes_and_supports(&oracle),
                "support {sup}: {} vs {}",
                mined.len(),
                oracle.len()
            );
        }
    }

    #[test]
    fn cap_limits_levels() {
        let mut g = Graph::new();
        for _ in 0..5 {
            g.add_vertex(0);
        }
        for i in 0..4 {
            g.add_edge(i, i + 1, 0).unwrap();
        }
        let db = GraphDb::from_graphs(vec![g]);
        let mined = Apriori::capped(2).mine(&db, 1);
        assert_eq!(mined.max_size(), 2);
    }
}
