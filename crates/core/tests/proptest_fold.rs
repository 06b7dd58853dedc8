//! The daemon's delta fold against a cold walk: after every window of a
//! stream, `fold_delta`'s `P(D)` and border must equal what
//! `walk_with_border` returns for the new database, exactly — and where the
//! fold hands a window back, the cold walk it asks for is the answer.

use proptest::prelude::*;

use graphmine_core::{
    fold_delta, touched_graphs, walk_with_border, Border, Executor, MergeContext,
};
use graphmine_graph::{apply_all, DbUpdate, Graph, GraphDb, GraphUpdate, PatternSet, Support};
use graphmine_telemetry::Telemetry;

/// Runs `f` on the uncapped, serial context of `db` at `min_support`.
fn with_ctx<R>(db: &GraphDb, min_support: Support, f: impl FnOnce(&MergeContext<'_>) -> R) -> R {
    let (executor, telemetry) = (&Executor::new(1), &Telemetry::new());
    f(&MergeContext { db, min_support, max_edges: None, executor, telemetry })
}

fn cold(db: &GraphDb, min_support: Support) -> (PatternSet, Border) {
    with_ctx(db, min_support, walk_with_border)
}

/// How a window was folded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Path {
    Delta,
    Cold,
}

/// Folds `db` into `next` from the state `(patterns, border)` of `db`,
/// checks the result against a cold walk of `next` and returns it with the
/// path taken.
fn fold_and_check(
    db: &GraphDb,
    next: &GraphDb,
    min_support: Support,
    patterns: &PatternSet,
    border: Border,
) -> Result<(PatternSet, Border, Path), String> {
    let truth = cold(next, min_support);
    let touched = touched_graphs(db, next);
    let fold = |ctx: &MergeContext<'_>| fold_delta(ctx, db, &touched, patterns, border);
    let Some(folded) = with_ctx(next, min_support, fold) else {
        return Ok((truth.0, truth.1, Path::Cold));
    };
    if !folded.0.iter().eq(truth.0.iter()) {
        return Err(format!(
            "P(D): delta {:?}\ncold {:?}",
            folded.0.iter().map(|p| (p.code.to_string(), p.support)).collect::<Vec<_>>(),
            truth.0.iter().map(|p| (p.code.to_string(), p.support)).collect::<Vec<_>>()
        ));
    }
    if folded.1 != truth.1 {
        return Err(format!("border: delta {:?}\ncold {:?}", folded.1, truth.1));
    }
    Ok((folded.0, folded.1, Path::Delta))
}

fn connected_graph(max_vertices: usize) -> impl Strategy<Value = Graph> {
    (3..=max_vertices).prop_flat_map(move |n| {
        let vl = proptest::collection::vec(0..3u32, n);
        let parents: Vec<BoxedStrategy<usize>> = (1..n).map(|i| (0..i).boxed()).collect();
        let tree_el = proptest::collection::vec(0..2u32, n - 1);
        let extra = proptest::collection::vec((0..n, 0..n, 0..2u32), 0..=2);
        (vl, parents, tree_el, extra).prop_map(move |(vl, parents, tree_el, extra)| {
            let mut g = Graph::new();
            for &l in &vl {
                g.add_vertex(l);
            }
            for (i, (&p, &el)) in parents.iter().zip(tree_el.iter()).enumerate() {
                g.add_edge((i + 1) as u32, p as u32, el).unwrap();
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

/// An update of `db` from a pick value: relabels (to labels the database
/// has and to new ones), edge adds and deletes, vertex adds. `None` when
/// the pick lands on an inapplicable shape.
fn decode_update(db: &GraphDb, pick: u64) -> Option<DbUpdate> {
    let gid = (pick % db.len() as u64) as u32;
    let g = db.graph(gid);
    let (nv, ne) = (g.vertex_count() as u32, g.edge_count() as u32);
    let p = (pick / db.len() as u64) as u32;
    let update = match p % 5 {
        0 => GraphUpdate::RelabelVertex { v: (p / 5) % nv, label: (p / 40) % 4 },
        1 if ne > 0 => GraphUpdate::RelabelEdge { e: (p / 5) % ne, label: (p / 40) % 3 },
        2 => {
            let (u, v) = ((p / 5) % nv, (p / 40) % nv);
            if u == v || g.edge_between(u, v).is_some() {
                return None;
            }
            GraphUpdate::AddEdge { u, v, label: (p / 320) % 3 }
        }
        3 if ne > 1 => GraphUpdate::DeleteEdge { e: (p / 5) % ne },
        _ => GraphUpdate::AddVertex {
            label: (p / 5) % 4,
            attach_to: (p / 20) % nv,
            elabel: (p / 160) % 3,
        },
    };
    Some(DbUpdate { gid, update })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn delta_fold_equals_a_cold_walk_after_every_window(
        graphs in proptest::collection::vec(connected_graph(6), 3..7),
        min_support in 2u32..4,
        windows in proptest::collection::vec(proptest::collection::vec(any::<u64>(), 1..4), 1..7),
    ) {
        let mut db = GraphDb::from_graphs(graphs);
        let (mut patterns, mut border) = cold(&db, min_support);
        for window in &windows {
            let mut next = db.clone();
            for &pick in window {
                if let Some(op) = decode_update(&next, pick) {
                    apply_all(&mut next, &[op]).expect("decoded updates apply");
                }
            }
            let (p, b, _) = fold_and_check(&db, &next, min_support, &patterns, border)
                .unwrap_or_else(|e| panic!("window {window:?} at θ = {min_support}: {e}"));
            (patterns, border, db) = (p, b, next);
        }
    }
}

fn path_graph(labels: &[u32], elabels: &[u32]) -> Graph {
    let mut g = Graph::new();
    for &l in labels {
        g.add_vertex(l);
    }
    for (v, &el) in elabels.iter().enumerate() {
        g.add_edge(v as u32, v as u32 + 1, el).unwrap();
    }
    g
}

fn up(gid: u32, update: GraphUpdate) -> DbUpdate {
    DbUpdate { gid, update }
}

/// One stream through every case the fold tells apart, each window's path
/// pinned: a window that touches no frequent pattern, an edge triple
/// falling under θ and rising back, edge adds and deletes, a relabel that
/// makes an edge symmetric, and a minimal border code reaching θ.
#[test]
fn each_kind_of_window_takes_its_path_and_matches_a_cold_walk() {
    // Four copies of the path (0)-5-(1)-6-(2), and in two of them a pendant
    // (1)-6-(1): every edge is frequent at θ = 2.
    let mut graphs: Vec<Graph> = (0..4).map(|_| path_graph(&[0, 1, 2], &[5, 6])).collect();
    for g in &mut graphs[..2] {
        let v = g.add_vertex(1);
        g.add_edge(1, v, 6).unwrap();
    }
    let mut db = GraphDb::from_graphs(graphs);
    let theta = 2;
    let (mut patterns, mut border) = cold(&db, theta);

    use GraphUpdate::*;
    let stream: Vec<(&str, Vec<DbUpdate>, Path)> = vec![
        (
            "a pendant over labels no other graph has",
            vec![up(3, AddVertex { label: 9, attach_to: 2, elabel: 8 })],
            Path::Delta,
        ),
        (
            "(1)-6-(2) falls under θ: relabelled apart in three graphs",
            vec![
                up(0, RelabelEdge { e: 1, label: 7 }),
                up(1, RelabelEdge { e: 1, label: 8 }),
                up(2, RelabelEdge { e: 1, label: 9 }),
            ],
            Path::Delta,
        ),
        ("(1)-6-(2) rises back to θ", vec![up(0, RelabelEdge { e: 1, label: 6 })], Path::Cold),
        (
            "an edge added and one deleted",
            vec![up(3, AddEdge { u: 0, v: 2, label: 5 }), up(1, DeleteEdge { e: 1 })],
            Path::Delta,
        ),
        (
            "a relabel that makes an edge symmetric: (1)-6-(2) becomes (1)-6-(1), \
             which was frequent already",
            vec![up(3, RelabelVertex { v: 2, label: 1 })],
            Path::Delta,
        ),
        (
            "a minimal border code reaches θ: gid 0 closes the triangle gid 3 holds",
            vec![up(0, AddEdge { u: 0, v: 3, label: 5 })],
            Path::Cold,
        ),
    ];
    for (what, ops, expected) in stream {
        let mut next = db.clone();
        apply_all(&mut next, &ops).unwrap_or_else(|e| panic!("{what}: {e}"));
        let (p, b, path) = fold_and_check(&db, &next, theta, &patterns, border)
            .unwrap_or_else(|e| panic!("{what}: {e}"));
        assert_eq!(path, expected, "{what}");
        (patterns, border, db) = (p, b, next);
    }
}

/// A window that changes nothing a walk reads still folds: it touches no
/// graph at all, and the state comes back as it was.
#[test]
fn an_empty_window_folds_to_the_same_state() {
    let db = GraphDb::from_graphs((0..3).map(|_| path_graph(&[0, 1, 2], &[5, 6])).collect());
    let (patterns, border) = cold(&db, 2);
    let next = db.clone();
    assert!(touched_graphs(&db, &next).is_empty());
    let fold = |ctx: &MergeContext<'_>| fold_delta(ctx, &db, &[], &patterns, border.clone());
    let (p, b) = with_ctx(&next, 2, fold).expect("delta");
    assert!(p.iter().eq(patterns.iter()));
    assert_eq!(b, border);
}
