//! Property tests: the partition tree reassembles the database exactly and
//! stays consistent under random update sequences.

use proptest::prelude::*;

use graphmine_graph::{DbUpdate, Graph, GraphDb, GraphUpdate};
use graphmine_partition::{Criteria, DbPartition, GraphPart, MetisLike};

fn connected_graph(max_vertices: usize) -> impl Strategy<Value = Graph> {
    (2..=max_vertices).prop_flat_map(move |n| {
        let vl = proptest::collection::vec(0..4u32, n);
        let parents: Vec<BoxedStrategy<usize>> = (1..n).map(|i| (0..i).boxed()).collect();
        let extra = proptest::collection::vec((0..n, 0..n, 0..3u32), 0..=3);
        (vl, parents, extra).prop_map(move |(vl, parents, extra)| {
            let mut g = Graph::new();
            for &l in &vl {
                g.add_vertex(l);
            }
            for (i, &p) in parents.iter().enumerate() {
                g.add_edge((i + 1) as u32, p as u32, 0).unwrap();
            }
            for &(u, v, el) in &extra {
                if u != v {
                    let _ = g.add_edge(u as u32, v as u32, el);
                }
            }
            g
        })
    })
}

fn db_strategy() -> impl Strategy<Value = GraphDb> {
    proptest::collection::vec(connected_graph(7), 1..5).prop_map(GraphDb::from_graphs)
}

/// A random valid update for the given database state.
fn apply_random_update(part: &mut DbPartition, gid: u32, pick: u64) -> bool {
    let g = part.root().db.graph(gid);
    let nv = g.vertex_count() as u32;
    let ne = g.edge_count() as u32;
    if nv == 0 {
        return false;
    }
    let update = match pick % 4 {
        0 => GraphUpdate::RelabelVertex { v: (pick as u32 / 4) % nv, label: (pick as u32 / 8) % 6 },
        1 if ne > 0 => {
            GraphUpdate::RelabelEdge { e: (pick as u32 / 4) % ne, label: (pick as u32 / 8) % 6 }
        }
        2 if nv >= 2 => {
            let u = (pick as u32 / 4) % nv;
            let v = (pick as u32 / 16) % nv;
            if u == v || g.edge_between(u, v).is_some() {
                return false;
            }
            GraphUpdate::AddEdge { u, v, label: (pick as u32 / 32) % 6 }
        }
        _ => GraphUpdate::AddVertex {
            label: (pick as u32 / 4) % 6,
            attach_to: (pick as u32 / 8) % nv,
            elabel: (pick as u32 / 16) % 6,
        },
    };
    part.apply_update(DbUpdate { gid, update }).is_ok()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn recovery_is_exact_for_random_databases(db in db_strategy(), k in 1usize..6) {
        for part in [
            DbPartition::build(&db, &[], &GraphPart::new(Criteria::COMBINED), k),
            DbPartition::build(&db, &[], &MetisLike, k),
        ] {
            for gid in 0..db.len() as u32 {
                let rec = part.recovered_graph(gid);
                let orig = db.graph(gid);
                prop_assert_eq!(rec.edge_count(), orig.edge_count());
                for (e, u, v, el) in orig.edges() {
                    prop_assert_eq!(rec.edge(e), (u, v, el));
                }
                for v in 0..orig.vertex_count() as u32 {
                    if orig.degree(v) > 0 {
                        prop_assert_eq!(rec.vlabel(v), orig.vlabel(v));
                    }
                }
            }
        }
    }

    #[test]
    fn recovery_survives_random_update_sequences(
        db in db_strategy(),
        k in 2usize..5,
        picks in proptest::collection::vec(any::<u64>(), 1..12),
    ) {
        let mut part = DbPartition::build(&db, &[], &GraphPart::new(Criteria::COMBINED), k);
        for (i, &pick) in picks.iter().enumerate() {
            let gid = (pick % db.len() as u64) as u32;
            let _ = apply_random_update(&mut part, gid, pick.wrapping_add(i as u64));
        }
        // After any sequence of applied updates, leaves still reassemble the
        // root exactly.
        for gid in 0..db.len() as u32 {
            let root_g = part.root().db.graph(gid).clone();
            let rec = part.recovered_graph(gid);
            prop_assert_eq!(rec.edge_count(), root_g.edge_count(), "gid {}", gid);
            for (e, u, v, el) in root_g.edges() {
                prop_assert_eq!(rec.edge(e), (u, v, el), "gid {} edge {}", gid, e);
            }
            for v in 0..root_g.vertex_count() as u32 {
                if root_g.degree(v) > 0 {
                    prop_assert_eq!(rec.vlabel(v), root_g.vlabel(v), "gid {} vertex {}", gid, v);
                }
            }
        }
    }

    #[test]
    fn touched_units_contain_the_updated_vertex(db in db_strategy(), k in 2usize..5, seed in any::<u64>()) {
        let mut part = DbPartition::build(&db, &[], &GraphPart::new(Criteria::COMBINED), k);
        let gid = (seed % db.len() as u64) as u32;
        let nv = db.graph(gid).vertex_count() as u32;
        let v = (seed as u32 / 8) % nv;
        let expected = part.units_containing_vertex(gid, v);
        let touched = part
            .apply_update(DbUpdate { gid, update: GraphUpdate::RelabelVertex { v, label: 99 } })
            .unwrap();
        prop_assert_eq!(touched, expected);
    }
}
