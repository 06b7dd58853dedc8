//! Update vocabulary for dynamic graph databases.
//!
//! Section 5 of the paper extends the synthetic generator with three kinds
//! of updates: (1) re-labeling vertices/edges with existing or new labels,
//! (2) adding a new edge between existing vertices, and (3) adding a new
//! vertex together with an edge attaching it. [`GraphUpdate`] models those
//! three plus the deletion class the sliding-window serving mode needs
//! (`DeleteEdge`, `DeleteVertex` — the evolving-graph setting of Aslay et
//! al.), and is the unit of communication between the update workload
//! generator, the partition maintenance logic, and IncPartMiner.
//!
//! # Id stability under deletion
//!
//! Vertex and edge ids stay dense across deletions via swap-remove: the
//! highest id is renumbered into the freed slot. Identifiers in an update
//! sequence therefore refer to the graph's state *at the moment that update
//! applies*, including any renumbering performed by earlier deletes in the
//! same sequence.
//!
//! The removal records of [`Graph::delete_edge`] and
//! [`Graph::delete_vertex`] are the one description of how a delete
//! renumbers ids: which edges a cascade removed, in which order, and which
//! ids moved. Whatever follows a graph (the partition tree's pieces, the
//! daemon's window tracker) replays that record rather than re-deriving it.

use crate::{ELabel, EdgeId, Graph, GraphError, GraphId, VLabel, VertexId};

/// One update to a single graph. Identifiers refer to the graph's state at
/// the time the update is applied (updates are applied in sequence).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GraphUpdate {
    /// Update type 1a: re-label vertex `v`.
    RelabelVertex {
        /// Vertex to re-label.
        v: VertexId,
        /// New label (existing or new).
        label: VLabel,
    },
    /// Update type 1b: re-label edge `e`.
    RelabelEdge {
        /// Edge to re-label.
        e: EdgeId,
        /// New label (existing or new).
        label: ELabel,
    },
    /// Update type 2: add an edge between two existing vertices.
    AddEdge {
        /// First endpoint.
        u: VertexId,
        /// Second endpoint.
        v: VertexId,
        /// Label of the new edge.
        label: ELabel,
    },
    /// Update type 3: add a new vertex and an edge attaching it.
    AddVertex {
        /// Label of the new vertex.
        label: VLabel,
        /// Existing vertex the new one attaches to.
        attach_to: VertexId,
        /// Label of the attaching edge.
        elabel: ELabel,
    },
    /// Deletion type 1: delete edge `e`. The highest edge id is renumbered
    /// to `e` (swap-remove).
    DeleteEdge {
        /// Edge to delete.
        e: EdgeId,
    },
    /// Deletion type 2: delete vertex `v`, **cascading** to its incident
    /// edges (each cascade step is an edge swap-remove, highest id first);
    /// the highest vertex id is then renumbered to `v`.
    DeleteVertex {
        /// Vertex to delete.
        v: VertexId,
    },
}

impl GraphUpdate {
    /// Applies the update to `g`. An added vertex or edge takes the next
    /// id (`g.vertex_count() - 1` or `g.edge_count() - 1` immediately
    /// afterwards), stable only until the next `DeleteEdge`/`DeleteVertex`,
    /// which may renumber it via swap-remove (see the module docs).
    ///
    /// # Errors
    ///
    /// Propagates [`GraphError`] for out-of-range ids, self-loops, and
    /// duplicate edges. Failed updates never half-apply.
    pub fn apply(&self, g: &mut Graph) -> Result<(), GraphError> {
        match *self {
            GraphUpdate::RelabelVertex { v, label } => g.set_vlabel(v, label),
            GraphUpdate::RelabelEdge { e, label } => g.set_elabel(e, label),
            GraphUpdate::AddEdge { u, v, label } => g.add_edge(u, v, label).map(drop),
            GraphUpdate::AddVertex { label, attach_to, elabel } => {
                // Pre-check with the same shared bounds check `add_edge`
                // uses, so the vertex push below cannot half-apply (and the
                // reported `len` matches the pre-update graph).
                g.check_vertex(attach_to)?;
                let nv = g.add_vertex(label);
                g.add_edge(attach_to, nv, elabel).map(drop)
            }
            GraphUpdate::DeleteEdge { e } => g.delete_edge(e).map(drop),
            GraphUpdate::DeleteVertex { v } => g.delete_vertex(v).map(drop),
        }
    }

    /// The existing vertices this update touches — the vertices whose
    /// `ufreq` the paper's partitioning criteria track, and the ones used to
    /// locate affected units. Edge-addressed updates resolve their
    /// endpoints against `g` (the pre-update graph), which is why the graph
    /// is a parameter.
    pub fn touched_vertices(&self, g: &Graph) -> Vec<VertexId> {
        match *self {
            GraphUpdate::RelabelVertex { v, .. } => vec![v],
            GraphUpdate::RelabelEdge { e, .. } | GraphUpdate::DeleteEdge { e } => {
                if (e as usize) < g.edge_count() {
                    let (u, v, _) = g.edge(e);
                    vec![u, v]
                } else {
                    vec![]
                }
            }
            GraphUpdate::AddEdge { u, v, .. } => vec![u, v],
            GraphUpdate::AddVertex { attach_to, .. } => vec![attach_to],
            GraphUpdate::DeleteVertex { v } => {
                if (v as usize) < g.vertex_count() {
                    let mut out = vec![v];
                    out.extend(g.neighbors(v).iter().map(|a| a.to));
                    out
                } else {
                    vec![]
                }
            }
        }
    }
}

/// An update addressed to one graph of a database.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DbUpdate {
    /// Target graph.
    pub gid: GraphId,
    /// The update itself.
    pub update: GraphUpdate,
}

/// Applies a batch of updates to a database in order.
///
/// # Errors
///
/// Fails on the first inapplicable update: a bad gid reports
/// [`GraphError::GraphOutOfRange`], anything else propagates the
/// per-graph [`GraphError`].
pub fn apply_all(db: &mut crate::GraphDb, updates: &[DbUpdate]) -> Result<(), GraphError> {
    for u in updates {
        if u.gid as usize >= db.len() {
            return Err(GraphError::GraphOutOfRange { graph: u.gid, len: db.len() as u32 });
        }
        u.update.apply(db.graph_mut(u.gid))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphDb;

    fn base() -> Graph {
        let mut g = Graph::new();
        let a = g.add_vertex(0);
        let b = g.add_vertex(1);
        g.add_edge(a, b, 5).unwrap();
        g
    }

    #[test]
    fn apply_each_kind() {
        let mut g = base();
        GraphUpdate::RelabelVertex { v: 0, label: 9 }.apply(&mut g).unwrap();
        assert_eq!(g.vlabel(0), 9);
        GraphUpdate::RelabelEdge { e: 0, label: 6 }.apply(&mut g).unwrap();
        assert_eq!(g.edge(0).2, 6);
        GraphUpdate::AddVertex { label: 2, attach_to: 1, elabel: 7 }.apply(&mut g).unwrap();
        let nv = g.vertex_count() as VertexId - 1;
        assert_eq!(g.vlabel(nv), 2);
        GraphUpdate::AddEdge { u: 0, v: nv, label: 8 }.apply(&mut g).unwrap();
        assert_eq!(g.edge_count(), 3);
        GraphUpdate::DeleteEdge { e: 1 }.apply(&mut g).unwrap();
        assert_eq!(g.edge_count(), 2);
        GraphUpdate::DeleteVertex { v: 2 }.apply(&mut g).unwrap();
        assert_eq!(g.vertex_count(), 2);
        g.check_invariants().unwrap();
    }

    #[test]
    fn apply_errors_propagate() {
        let mut g = base();
        assert!(GraphUpdate::RelabelVertex { v: 9, label: 0 }.apply(&mut g).is_err());
        assert!(GraphUpdate::AddEdge { u: 0, v: 1, label: 3 }.apply(&mut g).is_err()); // duplicate
        assert!(GraphUpdate::AddVertex { label: 0, attach_to: 42, elabel: 0 }
            .apply(&mut g)
            .is_err());
        assert!(GraphUpdate::DeleteEdge { e: 7 }.apply(&mut g).is_err());
        assert!(GraphUpdate::DeleteVertex { v: 7 }.apply(&mut g).is_err());
        // Failed updates must not half-apply.
        assert_eq!(g.vertex_count(), 2);
        assert_eq!(g.edge_count(), 1);
    }

    /// Every op must report the same error shape for each out-of-range id
    /// position it can carry — the shared `Graph::check_vertex` bounds
    /// check behind all of them (op × bad-id table).
    #[test]
    fn out_of_range_errors_are_consistent_across_ops() {
        let vertex_cases: &[GraphUpdate] = &[
            GraphUpdate::RelabelVertex { v: 9, label: 0 },
            GraphUpdate::AddEdge { u: 9, v: 0, label: 0 },
            GraphUpdate::AddEdge { u: 0, v: 9, label: 0 },
            GraphUpdate::AddVertex { label: 0, attach_to: 9, elabel: 0 },
            GraphUpdate::DeleteVertex { v: 9 },
        ];
        for u in vertex_cases {
            let mut g = base();
            assert_eq!(
                u.apply(&mut g),
                Err(GraphError::VertexOutOfRange { vertex: 9, len: 2 }),
                "wrong error for {u:?}"
            );
            assert_eq!((g.vertex_count(), g.edge_count()), (2, 1), "{u:?} half-applied");
        }
        let edge_cases: &[GraphUpdate] =
            &[GraphUpdate::RelabelEdge { e: 9, label: 0 }, GraphUpdate::DeleteEdge { e: 9 }];
        for u in edge_cases {
            let mut g = base();
            assert_eq!(
                u.apply(&mut g),
                Err(GraphError::EdgeOutOfRange { edge: 9, len: 1 }),
                "wrong error for {u:?}"
            );
            assert_eq!((g.vertex_count(), g.edge_count()), (2, 1), "{u:?} half-applied");
        }
    }

    #[test]
    fn touched_vertices_per_kind() {
        let mut g = base();
        g.add_vertex(2); // vertex 2, isolated
        assert_eq!(GraphUpdate::RelabelVertex { v: 1, label: 0 }.touched_vertices(&g), vec![1]);
        assert_eq!(
            GraphUpdate::RelabelEdge { e: 0, label: 0 }.touched_vertices(&g),
            vec![0, 1],
            "edge relabels touch both endpoints"
        );
        assert_eq!(GraphUpdate::AddEdge { u: 1, v: 2, label: 0 }.touched_vertices(&g), vec![1, 2]);
        assert_eq!(
            GraphUpdate::AddVertex { label: 0, attach_to: 1, elabel: 0 }.touched_vertices(&g),
            vec![1]
        );
        assert_eq!(GraphUpdate::DeleteEdge { e: 0 }.touched_vertices(&g), vec![0, 1]);
        assert_eq!(
            GraphUpdate::DeleteVertex { v: 0 }.touched_vertices(&g),
            vec![0, 1],
            "vertex deletion touches the vertex and its neighbours"
        );
        // Out-of-range edge-addressed updates resolve to nothing rather
        // than panic (they will fail at apply time anyway).
        assert!(GraphUpdate::RelabelEdge { e: 9, label: 0 }.touched_vertices(&g).is_empty());
        assert!(GraphUpdate::DeleteVertex { v: 9 }.touched_vertices(&g).is_empty());
    }

    #[test]
    fn apply_all_batches() {
        let mut db = GraphDb::from_graphs(vec![base(), base()]);
        let updates = [
            DbUpdate { gid: 0, update: GraphUpdate::RelabelVertex { v: 0, label: 7 } },
            DbUpdate {
                gid: 1,
                update: GraphUpdate::AddVertex { label: 3, attach_to: 0, elabel: 2 },
            },
        ];
        apply_all(&mut db, &updates).unwrap();
        assert_eq!(db[0].vlabel(0), 7);
        assert_eq!(db[1].vertex_count(), 3);
        let bad = [DbUpdate { gid: 9, update: GraphUpdate::RelabelVertex { v: 0, label: 0 } }];
        assert_eq!(
            apply_all(&mut db, &bad),
            Err(GraphError::GraphOutOfRange { graph: 9, len: 2 }),
            "a bad gid is a database-level error, not a vertex error"
        );
    }
}
