//! Property tests: the partition tree reassembles the database exactly and
//! stays consistent under random update sequences.

use proptest::prelude::*;

use graphmine_graph::{apply_all, DbUpdate, Graph, GraphDb, GraphUpdate};
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

/// An update drawn from `pick` against the root's current state: one of the
/// six kinds with its ids in range (an `AddEdge` may still name a self-loop
/// or an edge already there), or one the graph must refuse — an
/// out-of-range id in each position an update carries, a self-loop, a
/// duplicate edge in either orientation, or a gid past the database.
fn random_update(part: &DbPartition, pick: u64) -> DbUpdate {
    let db = &part.root().db;
    let gid = (pick % db.len() as u64) as u32;
    let g = db.graph(gid);
    let (nv, ne) = (g.vertex_count() as u32, g.edge_count() as u32);
    let r = (pick >> 8) as u32;
    let label = (r >> 24) % 6;
    // Ids in range, or 0 when the range is empty (then refused for it).
    let (v, w, e) = (r % nv.max(1), (r >> 12) % nv.max(1), r % ne.max(1));
    let past = r % 3;
    let update = match (pick >> 4) % 16 {
        0 | 1 => GraphUpdate::RelabelVertex { v, label },
        2 => GraphUpdate::RelabelEdge { e, label },
        3 | 4 => GraphUpdate::AddEdge { u: v, v: w, label },
        5..=7 => GraphUpdate::AddVertex { label, attach_to: v, elabel: r % 5 },
        8 | 9 => GraphUpdate::DeleteEdge { e },
        10 => GraphUpdate::DeleteVertex { v },
        11 => match r % 7 {
            0 => GraphUpdate::RelabelVertex { v: nv + past, label },
            1 => GraphUpdate::RelabelEdge { e: ne + past, label },
            2 => GraphUpdate::AddEdge { u: nv + past, v, label },
            3 => GraphUpdate::AddEdge { u: v, v: nv + past, label },
            4 => GraphUpdate::AddVertex { label, attach_to: nv + past, elabel: 0 },
            5 => GraphUpdate::DeleteEdge { e: ne + past },
            _ => GraphUpdate::DeleteVertex { v: nv + past },
        },
        12 => GraphUpdate::AddEdge { u: v, v, label },
        13 | 14 if ne > 0 => {
            let (a, b, _) = g.edge(e);
            let (u, v) = if r & 1 == 0 { (a, b) } else { (b, a) };
            GraphUpdate::AddEdge { u, v, label }
        }
        _ => {
            let update = GraphUpdate::RelabelVertex { v, label };
            return DbUpdate { gid: db.len() as u32 + past, update };
        }
    };
    DbUpdate { gid, update }
}

/// Applies `up` to the tree and holds it to `apply_all` on a copy of the
/// root database. A refused update must give the same error and change no
/// piece, map or ufreq row. An applied one must leave the tree consistent,
/// every graph exactly recoverable from the units, and `ufreq` equal to
/// `model`, which follows the root graph's swap-removes.
fn apply_random_update(part: &mut DbPartition, model: &mut [Vec<f64>], up: DbUpdate) {
    let mut reference = part.root().db.clone();
    if let Err(err) = apply_all(&mut reference, &[up]) {
        let before = format!("{part:?}");
        prop_assert_eq!(part.apply_update(up), Err(err), "{up:?}");
        prop_assert_eq!(format!("{part:?}"), before, "refused {up:?} changed the tree");
        return;
    }
    if let Err(err) = part.apply_update(up) {
        panic!("{up:?} applies to the database but the tree refused it: {err}");
    }
    let row = &mut model[up.gid as usize];
    match up.update {
        GraphUpdate::AddVertex { .. } => row.push(0.0),
        GraphUpdate::DeleteVertex { v } => {
            row.swap_remove(v as usize);
        }
        _ => {}
    }
    if let Err(err) = part.check_invariants() {
        panic!("after {up:?}: {err}");
    }
    for (gid, g) in reference.iter() {
        let root_g = part.root().db.graph(gid);
        prop_assert_eq!(root_g, g, "root of gid {gid} after {up:?}");
        prop_assert_eq!(&part.recovered_graph(gid), g, "recovery of gid {gid} after {up:?}");
        let row = &model[gid as usize];
        prop_assert_eq!(row.len(), g.vertex_count());
        for (v, &f) in row.iter().enumerate() {
            prop_assert_eq!(part.ufreq(gid, v as u32), f, "gid {gid} vertex {v} after {up:?}");
        }
    }
}

/// A ufreq table shaped like `db`, drawn from `seed` (some entries zero).
fn ufreq_table(db: &GraphDb, seed: u64) -> Vec<Vec<f64>> {
    let mut x = seed;
    db.iter()
        .map(|(_, g)| {
            (0..g.vertex_count())
                .map(|_| {
                    x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    [0.0, 0.0, 0.5, 1.0, 3.0][(x >> 33) as usize % 5]
                })
                .collect()
        })
        .collect()
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

// No explicit case count: `PROPTEST_CASES` moves this block.
proptest! {
    #[test]
    fn recovery_survives_random_update_sequences(
        db in db_strategy(),
        k in 1usize..6,
        metis in any::<bool>(),
        with_ufreq in any::<bool>(),
        uf_seed in any::<u64>(),
        picks in proptest::collection::vec(any::<u64>(), 1..24),
    ) {
        let table = if with_ufreq { ufreq_table(&db, uf_seed) } else { Vec::new() };
        let mut part = if metis {
            DbPartition::build(&db, &table, &MetisLike, k)
        } else {
            DbPartition::build(&db, &table, &GraphPart::new(Criteria::COMBINED), k)
        };
        let mut model = if table.is_empty() {
            db.iter().map(|(_, g)| vec![0.0; g.vertex_count()]).collect()
        } else {
            table
        };
        for &pick in &picks {
            let up = random_update(&part, pick);
            apply_random_update(&mut part, &mut model, up);
        }
    }
}
