use std::sync::Arc;

use crate::{Graph, Support};

/// Graph identifier within a [`GraphDb`]. Graph ids are stable across
/// partitioning: the `j`-th piece of graph `gid` keeps id `gid` in unit `j`,
/// which is what lets unit-level supports be compared with database-level
/// supports.
pub type GraphId = u32;

/// A transactional graph database: a set of `(gid, G)` tuples.
///
/// The *support* of a pattern is the number of member graphs that contain an
/// isomorphic copy of it (Section 3). Minimum support is usually given as a
/// fraction; [`GraphDb::abs_support`] converts it to the absolute count used
/// by the miners.
///
/// Graphs are shared copy-on-write: [`Clone`] copies one pointer per gid,
/// and [`GraphDb::graph_mut`] copies a graph only while another database
/// still shares it. So a clone that one update batch then edits holds new
/// memory for exactly the graphs the batch touched.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GraphDb {
    graphs: Vec<Arc<Graph>>,
}

impl GraphDb {
    /// Creates an empty database.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a database from pre-built graphs; the graph at index `i`
    /// receives gid `i`.
    pub fn from_graphs(graphs: Vec<Graph>) -> Self {
        GraphDb { graphs: graphs.into_iter().map(Arc::new).collect() }
    }

    /// Appends a graph, returning its gid.
    pub fn push(&mut self, g: Graph) -> GraphId {
        let id = self.graphs.len() as GraphId;
        self.graphs.push(Arc::new(g));
        id
    }

    /// Number of graphs in the database.
    #[inline]
    pub fn len(&self) -> usize {
        self.graphs.len()
    }

    /// `true` when the database holds no graphs.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.graphs.is_empty()
    }

    /// The graph with the given gid.
    ///
    /// # Panics
    ///
    /// Panics if `gid` is out of range.
    #[inline]
    pub fn graph(&self, gid: GraphId) -> &Graph {
        &self.graphs[gid as usize]
    }

    /// Mutable access to the graph with the given gid (update workloads).
    /// Copies the graph first if another database shares it, so only
    /// call it for a graph that is about to change.
    #[inline]
    pub fn graph_mut(&mut self, gid: GraphId) -> &mut Graph {
        Arc::make_mut(&mut self.graphs[gid as usize])
    }

    /// Iterates over `(gid, &Graph)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (GraphId, &Graph)> {
        self.graphs.iter().enumerate().map(|(i, g)| (i as GraphId, &**g))
    }

    /// The graphs `gids` names, sharing them with `self`: the graph at index
    /// `i` of the result is graph `gids[i]` here.
    ///
    /// # Panics
    ///
    /// Panics if a gid is out of range.
    pub fn select(&self, gids: &[GraphId]) -> GraphDb {
        GraphDb { graphs: gids.iter().map(|&gid| Arc::clone(&self.graphs[gid as usize])).collect() }
    }

    /// `true` when `self` and `other` hold graph `gid` in one allocation:
    /// neither has copied it since they last shared it.
    pub fn shares_graph(&self, other: &GraphDb, gid: GraphId) -> bool {
        Arc::ptr_eq(&self.graphs[gid as usize], &other.graphs[gid as usize])
    }

    /// Converts a relative minimum support (e.g. `0.04` for the paper's 4%)
    /// into the absolute graph count used by the miners, rounding up and
    /// clamping to at least 1. A product within a few ulps of an integer is
    /// that integer: in `f64`, `0.07 × 100` is `7.000000000000001`, whose
    /// ceiling would ask for one graph more than ⌈θ·|D|⌉ = 7.
    pub fn abs_support(&self, min_sup: f64) -> Support {
        let exact = min_sup * self.graphs.len() as f64;
        let nearest = exact.round();
        let snapped =
            if (exact - nearest).abs() <= 4.0 * f64::EPSILON * nearest { nearest } else { exact };
        (snapped.ceil() as Support).max(1)
    }

    /// Total number of edges across all member graphs.
    pub fn total_edges(&self) -> usize {
        self.graphs.iter().map(|g| g.edge_count()).sum()
    }
}

impl std::ops::Index<GraphId> for GraphDb {
    type Output = Graph;

    fn index(&self, gid: GraphId) -> &Graph {
        &self.graphs[gid as usize]
    }
}

impl FromIterator<Graph> for GraphDb {
    fn from_iter<T: IntoIterator<Item = Graph>>(iter: T) -> Self {
        GraphDb::from_graphs(iter.into_iter().collect())
    }
}

/// Graphs already shared: gid `i` is the `i`-th, held as it comes.
impl FromIterator<Arc<Graph>> for GraphDb {
    fn from_iter<T: IntoIterator<Item = Arc<Graph>>>(iter: T) -> Self {
        GraphDb { graphs: iter.into_iter().collect() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn edge_graph(vl: (u32, u32), el: u32) -> Graph {
        let mut g = Graph::new();
        let a = g.add_vertex(vl.0);
        let b = g.add_vertex(vl.1);
        g.add_edge(a, b, el).unwrap();
        g
    }

    #[test]
    fn push_and_index() {
        let mut db = GraphDb::new();
        let id0 = db.push(edge_graph((0, 1), 0));
        let id1 = db.push(edge_graph((2, 3), 1));
        assert_eq!((id0, id1), (0, 1));
        assert_eq!(db.len(), 2);
        assert_eq!(db[1].vlabel(0), 2);
        assert_eq!(db.total_edges(), 2);
    }

    #[test]
    fn abs_support_rounds_up_and_clamps() {
        let db: GraphDb = (0..100).map(|i| edge_graph((i, i), 0)).collect();
        assert_eq!(db.abs_support(0.04), 4);
        assert_eq!(db.abs_support(0.041), 5);
        assert_eq!(db.abs_support(0.0), 1);
        assert_eq!(db.abs_support(1.0), 100);
        // Products a rounding error above an integer are that integer.
        assert_eq!(db.abs_support(0.07), 7);
        let sized = |n: u32| -> GraphDb { (0..n).map(|i| edge_graph((i, i), 0)).collect() };
        assert_eq!(sized(50).abs_support(0.14), 7);
        assert_eq!(sized(25).abs_support(0.28), 7);
        assert_eq!(sized(200).abs_support(0.035), 7);
    }

    #[test]
    fn iter_yields_gids_in_order() {
        let db: GraphDb = (0..3).map(|i| edge_graph((i, i), i)).collect();
        let gids: Vec<_> = db.iter().map(|(g, _)| g).collect();
        assert_eq!(gids, vec![0, 1, 2]);
    }
}
