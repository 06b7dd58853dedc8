//! Splitting a graph into two pieces along a side assignment.
//!
//! Following Section 4.1 (Fig. 4), each piece keeps the *connective edges*
//! (edges with one endpoint on each side) so the original graph can be
//! recovered: piece 1 holds the edges inside `V*` plus the connective
//! edges, piece 2 the edges outside `V*` plus the connective edges.
//!
//! A vertex with at least one incident edge always lands in the piece(s)
//! holding its edges. A vertex with *no* incident edge carries no mining
//! information (patterns have at least one edge), but it still has a label
//! that updates and lossless recovery must be able to reach — so isolated
//! vertices are copied into the piece of their assigned side, keeping every
//! parent vertex present in exactly one piece. The vertex/edge maps record
//! where every piece element came from.

#[cfg(feature = "fault-injection")]
use graphmine_graph::fault;
use graphmine_graph::{CsrScratch, EdgeId, Graph, VertexId};

/// One piece of a split graph, with provenance maps back to the parent.
#[derive(Debug, Clone, Default)]
pub struct Piece {
    graph: Graph,
    /// The vertex map (piece vertex -> parent vertex), then the edge map
    /// (piece edge -> parent edge), in one block: it splits at the piece's
    /// vertex count.
    maps: Vec<u32>,
}

impl Piece {
    /// The piece graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The piece graph, without its maps.
    pub fn into_graph(self) -> Graph {
        self.graph
    }

    /// piece vertex -> parent vertex.
    pub fn vertex_map(&self) -> &[VertexId] {
        &self.maps[..self.graph.vertex_count()]
    }

    /// piece edge -> parent edge.
    pub fn edge_map(&self) -> &[EdgeId] {
        &self.maps[self.graph.vertex_count()..]
    }

    /// Finds the piece vertex corresponding to a parent vertex.
    pub fn vertex_of(&self, parent_vertex: VertexId) -> Option<VertexId> {
        self.vertex_map().iter().position(|&v| v == parent_vertex).map(|i| i as VertexId)
    }

    /// Finds the piece edge corresponding to a parent edge.
    pub fn edge_of(&self, parent_edge: EdgeId) -> Option<EdgeId> {
        self.edge_map().iter().position(|&e| e == parent_edge).map(|i| i as EdgeId)
    }

    /// The graph and the maps block, the vertex map first.
    pub(crate) fn into_parts(self) -> (Graph, Vec<u32>) {
        (self.graph, self.maps)
    }
}

/// Result of bi-partitioning one graph.
#[derive(Debug, Clone)]
pub struct Split {
    /// Piece 1 (the side of `V*`), including connective edges.
    pub side1: Piece,
    /// Piece 2, including connective edges.
    pub side2: Piece,
    /// The connective edges, as parent edge ids.
    pub connective: Vec<EdgeId>,
}

/// Splits `g` along `sides` (`true` = `V*`), keeping connective edges in
/// both pieces. The piece graphs are copied from `g`'s sorted runs
/// ([`Graph::subgraph`]).
pub fn split_by_sides(g: &Graph, sides: &[bool]) -> Split {
    let [side1, side2] = Splitter::default().split(g, sides);
    let connective = g
        .edges()
        .filter(|&(_, u, v, _)| sides[u as usize] != sides[v as usize])
        .map(|(eid, ..)| eid)
        .collect();
    Split { side1, side2, connective }
}

/// The two pieces of [`split_by_sides`], with the buffers they are built in
/// kept from one graph to the next: a loop over a database allocates only
/// what the pieces keep.
#[derive(Debug, Default)]
pub(crate) struct Splitter {
    side1: PieceBuilder,
    side2: PieceBuilder,
    csr: CsrScratch,
}

impl Splitter {
    pub(crate) fn split(&mut self, g: &Graph, sides: &[bool]) -> [Piece; 2] {
        assert_eq!(sides.len(), g.vertex_count());
        let Splitter { side1, side2, csr } = self;
        side1.reset(g.vertex_count());
        side2.reset(g.vertex_count());
        #[cfg(feature = "fault-injection")]
        let mut drop_budget = 1usize;
        for (eid, u, v, _) in g.edges() {
            match (sides[u as usize], sides[v as usize]) {
                (true, true) => side1.add_edge(eid, u, v),
                (false, false) => side2.add_edge(eid, u, v),
                _ => {
                    #[cfg(feature = "fault-injection")]
                    if drop_budget > 0 && fault::armed(fault::Fault::DropConnectiveEdge) {
                        // Mutant: the edge is connective but copied into
                        // neither piece, so it vanishes from the units.
                        drop_budget -= 1;
                        continue;
                    }
                    side1.add_edge(eid, u, v);
                    side2.add_edge(eid, u, v);
                }
            }
        }
        // Isolated vertices join the piece of their side: they contribute no
        // patterns, but dropping them would strand their labels outside every
        // unit — relabel updates could not reach them and recovery would lose
        // them.
        for v in 0..g.vertex_count() as VertexId {
            if g.degree(v) == 0 {
                let side = if sides[v as usize] { &mut *side1 } else { &mut *side2 };
                side.vertex(v);
            }
        }
        [side1.finish(g, csr), side2.finish(g, csr)]
    }
}

/// One piece under construction, as the vertex and edge lists
/// [`Graph::subgraph`] takes: a vertex is numbered where it first appears
/// in the parent's edge order, the isolated vertices last.
#[derive(Debug, Default)]
struct PieceBuilder {
    /// parent vertex -> piece vertex (or MAX)
    lookup: Vec<u32>,
    /// piece vertex -> parent vertex
    vertex_map: Vec<VertexId>,
    /// piece edge -> parent edge
    edge_map: Vec<EdgeId>,
}

impl PieceBuilder {
    fn reset(&mut self, parent_vertices: usize) {
        self.lookup.clear();
        self.lookup.resize(parent_vertices, u32::MAX);
        self.vertex_map.clear();
        self.edge_map.clear();
    }

    fn vertex(&mut self, parent_v: VertexId) -> VertexId {
        let slot = &mut self.lookup[parent_v as usize];
        if *slot == u32::MAX {
            *slot = self.vertex_map.len() as VertexId;
            self.vertex_map.push(parent_v);
        }
        *slot
    }

    fn add_edge(&mut self, parent_e: EdgeId, u: VertexId, v: VertexId) {
        self.vertex(u);
        self.vertex(v);
        self.edge_map.push(parent_e);
    }

    fn finish(&mut self, parent: &Graph, csr: &mut CsrScratch) -> Piece {
        let mut maps = Vec::with_capacity(self.vertex_map.len() + self.edge_map.len());
        maps.extend_from_slice(&self.vertex_map);
        maps.extend_from_slice(&self.edge_map);
        let graph = parent.subgraph(&self.vertex_map, &self.edge_map, csr);
        Piece { graph, maps }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A 4-path 0-1-2-3 with distinct labels.
    fn path4() -> Graph {
        let mut g = Graph::new();
        for l in 0..4 {
            g.add_vertex(l);
        }
        g.add_edge(0, 1, 10).unwrap();
        g.add_edge(1, 2, 11).unwrap();
        g.add_edge(2, 3, 12).unwrap();
        g
    }

    #[test]
    fn connective_edge_lands_in_both_pieces() {
        let g = path4();
        let split = split_by_sides(&g, &[true, true, false, false]);
        assert_eq!(split.connective, vec![1]); // edge 1-2
        assert_eq!(split.side1.graph().edge_count(), 2); // 0-1 and 1-2
        assert_eq!(split.side2.graph().edge_count(), 2); // 1-2 and 2-3
                                                         // Edge maps point at the parent edges.
        assert_eq!(split.side1.edge_map(), vec![0, 1]);
        assert_eq!(split.side2.edge_map(), vec![1, 2]);
        // Both pieces carry the boundary vertices of the connective edge.
        assert!(split.side1.vertex_map().contains(&2));
        assert!(split.side2.vertex_map().contains(&1));
    }

    #[test]
    fn labels_are_inherited() {
        let g = path4();
        let split = split_by_sides(&g, &[true, false, false, false]);
        let s2 = &split.side2;
        for (pv, &parent) in s2.vertex_map().iter().enumerate() {
            assert_eq!(s2.graph().vlabel(pv as u32), g.vlabel(parent));
        }
    }

    #[test]
    fn union_of_pieces_recovers_all_edges() {
        let g = path4();
        let split = split_by_sides(&g, &[true, false, true, false]);
        let mut covered: Vec<EdgeId> =
            split.side1.edge_map().iter().chain(split.side2.edge_map()).copied().collect();
        covered.sort_unstable();
        covered.dedup();
        assert_eq!(covered, vec![0, 1, 2]);
    }

    #[test]
    fn all_on_one_side_leaves_other_empty() {
        let g = path4();
        let split = split_by_sides(&g, &[true; 4]);
        assert_eq!(split.side1.graph().edge_count(), 3);
        assert!(split.side2.graph().is_empty());
        assert!(split.connective.is_empty());
    }

    #[test]
    fn isolated_vertices_land_in_their_side_piece() {
        let mut g = Graph::new();
        g.add_vertex(1);
        g.add_vertex(2);
        g.add_edge(0, 1, 5).unwrap();
        let iso1 = g.add_vertex(30); // isolated, side 1
        let iso2 = g.add_vertex(40); // isolated, side 2
        let split = split_by_sides(&g, &[true, true, true, false]);
        assert_eq!(split.side1.vertex_of(iso1), Some(2));
        assert!(split.side2.vertex_of(iso1).is_none());
        assert_eq!(split.side2.vertex_of(iso2), Some(0));
        assert!(split.side1.vertex_of(iso2).is_none());
        // Labels travel with the isolated vertices.
        assert_eq!(split.side1.graph().vlabel(2), 30);
        assert_eq!(split.side2.graph().vlabel(0), 40);
        // The edge-bearing vertices are unaffected.
        assert_eq!(split.side1.graph().edge_count(), 1);
        assert_eq!(split.side2.graph().edge_count(), 0);
    }

    #[test]
    fn piece_lookup_helpers() {
        let g = path4();
        let split = split_by_sides(&g, &[true, true, false, false]);
        let s1 = &split.side1;
        let pv = s1.vertex_of(1).unwrap();
        assert_eq!(s1.graph().vlabel(pv), 1);
        assert!(s1.vertex_of(3).is_none());
        assert_eq!(s1.edge_of(0), Some(0));
        assert!(s1.edge_of(2).is_none());
    }
}
