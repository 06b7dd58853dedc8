//! Copy-on-write databases under random update batches: a clone that
//! `apply_all` edits must leave its source untouched, keep sharing every
//! graph no update addressed, and end up equal to the same batch applied
//! to a deep rebuild that shares nothing. The batches mix all six update
//! kinds over small dense graphs, so vertex deletes cascade through
//! incident edges.

use proptest::prelude::*;

use graphmine_graph::update::apply_all;
use graphmine_graph::{DbUpdate, Graph, GraphDb, GraphId, GraphUpdate};

/// A database of 1–5 graphs, each 0–6 vertices with any subset of the
/// possible edges.
fn database() -> impl Strategy<Value = GraphDb> {
    let graph = (0..=6usize).prop_flat_map(|n| {
        let vl = proptest::collection::vec(0..3u32, n);
        let pairs =
            proptest::collection::vec((0..3u32, any::<bool>()), n * n.saturating_sub(1) / 2);
        (vl, pairs).prop_map(|(vl, pairs)| {
            let mut g = Graph::new();
            for &l in &vl {
                g.add_vertex(l);
            }
            let all =
                (0..vl.len() as u32).flat_map(|u| (u + 1..vl.len() as u32).map(move |v| (u, v)));
            for ((u, v), (el, keep)) in all.zip(pairs) {
                if keep {
                    g.add_edge(u, v, el).unwrap();
                }
            }
            g
        })
    });
    proptest::collection::vec(graph, 1..6).prop_map(GraphDb::from_graphs)
}

/// A copy of `db` that shares no graph with it.
fn deep_rebuild(db: &GraphDb) -> GraphDb {
    db.iter().map(|(_, g)| g.clone()).collect()
}

/// Turns raw draws `(kind, gid, a, b, label)` into a batch that applies in
/// order to `db`, planning each update against the state the earlier ones
/// leave. A draw with no valid target in its graph is dropped.
fn plan(db: &GraphDb, draws: &[(u8, u32, u32, u32, u32)]) -> Vec<DbUpdate> {
    let mut scratch = deep_rebuild(db);
    let mut batch = Vec::new();
    for &(kind, gid, a, b, label) in draws {
        let gid = gid % db.len() as GraphId;
        let g = scratch.graph(gid);
        let (nv, ne) = (g.vertex_count() as u32, g.edge_count() as u32);
        let update = match kind {
            0 if nv > 0 => GraphUpdate::RelabelVertex { v: a % nv, label },
            1 if ne > 0 => GraphUpdate::RelabelEdge { e: a % ne, label },
            2 if nv > 1 => {
                let (u, v) = (a % nv, b % nv);
                if u == v || g.edge_between(u, v).is_some() {
                    continue;
                }
                GraphUpdate::AddEdge { u, v, label }
            }
            3 if nv > 0 => GraphUpdate::AddVertex { label, attach_to: a % nv, elabel: b % 3 },
            4 if ne > 0 => GraphUpdate::DeleteEdge { e: a % ne },
            5 if nv > 0 => GraphUpdate::DeleteVertex { v: a % nv },
            _ => continue,
        };
        update.apply(scratch.graph_mut(gid)).expect("planned against the running state");
        batch.push(DbUpdate { gid, update });
    }
    batch
}

proptest! {
    #[test]
    fn a_clone_copies_only_the_graphs_a_batch_touches(
        source in database(),
        draws in proptest::collection::vec((0..6u8, any::<u32>(), any::<u32>(), any::<u32>(), 0..4u32), 0..24),
    ) {
        let pristine = deep_rebuild(&source);
        let batch = plan(&source, &draws);

        let mut clone = source.clone();
        apply_all(&mut clone, &batch).expect("the batch was planned to apply");
        let mut rebuilt = deep_rebuild(&source);
        apply_all(&mut rebuilt, &batch).expect("the batch was planned to apply");

        prop_assert_eq!(&source, &pristine, "the source database changed");
        prop_assert_eq!(&clone, &rebuilt);
        for (gid, g) in clone.iter() {
            let touched = batch.iter().any(|up| up.gid == gid);
            prop_assert_eq!(clone.shares_graph(&source, gid), !touched, "gid {}", gid);
            let want = rebuilt.graph(gid);
            for v in 0..g.vertex_count() as u32 {
                prop_assert_eq!(g.neighbors(v), want.neighbors(v), "gid {} run {}", gid, v);
            }
            prop_assert_eq!(g.check_invariants(), Ok(()));
        }
    }
}
