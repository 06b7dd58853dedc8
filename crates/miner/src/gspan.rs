//! gSpan: depth-first frequent-subgraph mining by rightmost extension.
//!
//! The search grows DFS codes one edge at a time. Every pattern is reported
//! and expanded only from its *minimum* DFS code
//! ([`graphmine_graph::dfscode::is_min`]), which makes the search space a
//! tree: no pattern is enumerated twice. Support counting piggybacks on the
//! projected occurrence lists carried down the search
//! ([`crate::project`]), so no isolated subgraph-isomorphism test is ever
//! needed. The search is [`crate::walk`], the one PartMiner's merge-join
//! runs too.

use graphmine_graph::{GraphDb, PatternSet, Support};
use graphmine_telemetry::{Counter, Counters};

use crate::extend::EdgeVocab;
use crate::project::EdgeView;
use crate::walk::Walk;
use crate::MemoryMiner;

/// The gSpan miner.
///
/// `max_edges` optionally caps the pattern size (the paper's experiments
/// mine unbounded; tests use small caps to compare against the brute-force
/// oracle).
#[derive(Debug, Clone, Default)]
pub struct GSpan {
    /// Optional maximum pattern size in edges.
    pub max_edges: Option<usize>,
}

impl GSpan {
    /// A gSpan miner with no size cap.
    pub fn new() -> Self {
        Self::default()
    }

    /// A gSpan miner that stops at patterns of `max_edges` edges.
    pub fn capped(max_edges: usize) -> Self {
        GSpan { max_edges: Some(max_edges) }
    }
}

impl MemoryMiner for GSpan {
    fn mine(&self, db: &GraphDb, min_support: Support) -> PatternSet {
        self.mine_with(db, min_support, Counters::noop())
    }

    fn mine_counted(&self, db: &GraphDb, min_support: Support, counters: &Counters) -> PatternSet {
        self.mine_with(db, min_support, counters)
    }

    fn name(&self) -> &'static str {
        "gSpan"
    }
}

impl GSpan {
    /// The [`Walk`] over `db` restricted to its own frequent edges (an
    /// extension over any other edge cannot be frequent), serially, with
    /// nothing known in advance. The roots count as extensions of the empty
    /// pattern.
    fn mine_with(&self, db: &GraphDb, min_support: Support, counters: &Counters) -> PatternSet {
        if db.is_empty() || min_support == 0 {
            return PatternSet::new();
        }
        let view = EdgeView::build(db, &EdgeVocab::frequent_in(db, min_support));
        let walk = Walk { view: &view, min_support, max_edges: self.max_edges, known: None };
        let (out, stats) = walk.subtrees(view.roots());
        counters.add(Counter::MinerExtensions, stats.roots + stats.extensions);
        counters.add(Counter::EmbeddingsExtended, stats.rows);
        counters.add(Counter::MinerPatterns, out.len() as u64);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphmine_graph::enumerate::frequent_bruteforce;
    use graphmine_graph::Graph;

    fn tiny_db() -> GraphDb {
        // Three graphs sharing a labeled path 0-(5)-1-(6)-2; one also has a
        // triangle.
        let mut graphs = Vec::new();
        for extra in 0..3 {
            let mut g = Graph::new();
            let a = g.add_vertex(0);
            let b = g.add_vertex(1);
            let c = g.add_vertex(2);
            g.add_edge(a, b, 5).unwrap();
            g.add_edge(b, c, 6).unwrap();
            if extra == 2 {
                g.add_edge(c, a, 7).unwrap();
            }
            graphs.push(g);
        }
        GraphDb::from_graphs(graphs)
    }

    #[test]
    fn mines_shared_path() {
        let db = tiny_db();
        let result = GSpan::new().mine(&db, 3);
        // Frequent at support 3: both single edges and the 2-edge path.
        assert_eq!(result.len(), 3);
        for p in result.iter() {
            assert_eq!(p.support, 3);
        }
    }

    #[test]
    fn support_one_includes_triangle() {
        let db = tiny_db();
        let result = GSpan::new().mine(&db, 1);
        let oracle = frequent_bruteforce(&db, 1, 10);
        assert!(result.same_codes_and_supports(&oracle));
    }

    #[test]
    fn matches_bruteforce_on_overlapping_squares() {
        let mut graphs = Vec::new();
        for i in 0..4 {
            let mut g = Graph::new();
            for j in 0..4 {
                g.add_vertex((i + j) % 2);
            }
            g.add_edge(0, 1, 0).unwrap();
            g.add_edge(1, 2, 0).unwrap();
            g.add_edge(2, 3, 0).unwrap();
            g.add_edge(3, 0, 0).unwrap();
            if i % 2 == 0 {
                g.add_edge(0, 2, 1).unwrap();
            }
            graphs.push(g);
        }
        let db = GraphDb::from_graphs(graphs);
        for sup in 1..=4 {
            let mined = GSpan::new().mine(&db, sup);
            let oracle = frequent_bruteforce(&db, sup, 10);
            assert!(
                mined.same_codes_and_supports(&oracle),
                "support {sup}: mined {} vs oracle {}",
                mined.len(),
                oracle.len()
            );
        }
    }

    #[test]
    fn size_cap_is_respected() {
        let db = tiny_db();
        let result = GSpan::capped(1).mine(&db, 1);
        assert!(result.iter().all(|p| p.size() == 1));
        let oracle = frequent_bruteforce(&db, 1, 1);
        assert!(result.same_codes_and_supports(&oracle));
    }

    #[test]
    fn empty_database_yields_nothing() {
        assert!(GSpan::new().mine(&GraphDb::new(), 1).is_empty());
    }

    #[test]
    fn threshold_above_database_size_yields_nothing() {
        let db = tiny_db();
        assert!(GSpan::new().mine(&db, 10).is_empty());
    }
}
