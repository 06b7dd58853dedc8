//! The ADI-style edge table.

use rustc_hash::{FxHashMap, FxHashSet};

use graphmine_graph::{ELabel, GraphDb, Support, VLabel};

/// The memory-resident level of the ADI index: for every distinct edge
/// triple `(l_u, l_e, l_v)` (orientation-normalised), the number of graphs
/// containing it. Built by one scan of the database; rebuilding it (plus
/// re-serializing the adjacency pages) is what makes ADIMINE pay for every
/// update. Which graphs hold a triple, and where, is the posting level's
/// ([`crate::postings::EdgePostings`]).
#[derive(Debug, Clone, Default)]
pub(crate) struct AdiIndex {
    table: FxHashMap<(VLabel, ELabel, VLabel), Support>,
}

impl AdiIndex {
    /// Builds the edge table with one database scan.
    pub(crate) fn build(db: &GraphDb) -> Self {
        let mut table: FxHashMap<(VLabel, ELabel, VLabel), Support> = FxHashMap::default();
        for (_, g) in db.iter() {
            let mut seen: FxHashSet<(VLabel, ELabel, VLabel)> = FxHashSet::default();
            for (_, u, v, el) in g.edges() {
                let (a, b) = if g.vlabel(u) <= g.vlabel(v) {
                    (g.vlabel(u), g.vlabel(v))
                } else {
                    (g.vlabel(v), g.vlabel(u))
                };
                if seen.insert((a, el, b)) {
                    *table.entry((a, el, b)).or_default() += 1;
                }
            }
        }
        AdiIndex { table }
    }

    /// All edge triples with support at least `min_support`, sorted.
    pub(crate) fn frequent_edges(
        &self,
        min_support: Support,
    ) -> Vec<((VLabel, ELabel, VLabel), Support)> {
        let mut out: Vec<_> = self
            .table
            .iter()
            .filter(|(_, &support)| support >= min_support)
            .map(|(&t, &support)| (t, support))
            .collect();
        out.sort_unstable();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::postings::EdgePostings;
    use graphmine_graph::Graph;

    /// Three graphs hold `(0)-5-(1)`, the last two `(1)-6-(2)`; graph 1
    /// adds its `5` edge from the label-1 end.
    fn db() -> GraphDb {
        let mut graphs = Vec::new();
        for i in 0..3u32 {
            let mut g = Graph::new();
            let a = g.add_vertex(0);
            let b = g.add_vertex(1);
            let c = g.add_vertex(2);
            if i == 1 {
                g.add_edge(b, a, 5).unwrap();
            } else {
                g.add_edge(a, b, 5).unwrap();
            }
            if i > 0 {
                g.add_edge(b, c, 6).unwrap();
            }
            graphs.push(g);
        }
        GraphDb::from_graphs(graphs)
    }

    #[test]
    fn edge_supports() {
        let idx = AdiIndex::build(&db());
        // Orientation independent: graph 1's `1 -> 0` edge counts under
        // the normalised `(0, 5, 1)`.
        assert_eq!(idx.frequent_edges(1), vec![((0, 5, 1), 3), ((1, 6, 2), 2)]);
    }

    /// The graphs holding a triple come from the posting level.
    #[test]
    fn graphs_with_lists_gids() {
        let dir = tempfile::tempdir().unwrap();
        let postings =
            EdgePostings::build(&dir.path().join("p"), &db(), 8, std::time::Duration::ZERO)
                .unwrap();
        let gids = |lu, le, lv| -> Vec<u32> {
            postings.read(lu, le, lv).unwrap().iter().map(|inst| inst.gid).collect()
        };
        assert_eq!(gids(1, 6, 2), [1, 2]);
        assert_eq!(gids(1, 5, 0), [0, 1, 2]);
    }

    #[test]
    fn frequent_edges_filters_and_sorts() {
        let idx = AdiIndex::build(&db());
        assert_eq!(idx.frequent_edges(3).len(), 1);
        assert_eq!(idx.frequent_edges(2).len(), 2);
        assert_eq!(idx.frequent_edges(4).len(), 0);
    }

    #[test]
    fn duplicate_triples_in_one_graph_count_once() {
        let mut g = Graph::new();
        let a = g.add_vertex(0);
        let b = g.add_vertex(0);
        let c = g.add_vertex(0);
        g.add_edge(a, b, 1).unwrap();
        g.add_edge(b, c, 1).unwrap();
        let idx = AdiIndex::build(&GraphDb::from_graphs(vec![g]));
        assert_eq!(idx.frequent_edges(1), vec![((0, 1, 0), 1)]);
    }
}
