//! The edge-triple screen in front of the embedding search. On random
//! databases over two vertex labels and two edge labels, where most graphs
//! hold several edges of one triple, `iso::screened_support` must count
//! what the unscreened search counts, graph for graph: the screen may skip
//! a graph only when it lacks an edge the code needs, and it must count a
//! triple as often as the graph holds it, since a code can need it twice.

use proptest::prelude::*;

use graphmine_graph::enumerate::connected_subgraph_codes;
use graphmine_graph::{iso, DfsCode, DfsEdge, Graph, GraphDb, GraphId, Support};
use graphmine_telemetry::{Counter, Counters};

/// A labeled graph on `2..=max_vertices` vertices, not necessarily
/// connected, with any edge set the draws leave simple.
fn graph(max_vertices: usize) -> impl Strategy<Value = Graph> {
    (2..=max_vertices).prop_flat_map(|n| {
        let vl = proptest::collection::vec(0..2u32, n);
        let raw = proptest::collection::vec((0..n as u32, 0..n as u32, 0..2u32), 1..=2 * n);
        (vl, raw).prop_map(|(vl, raw)| {
            let mut g = Graph::new();
            for &l in &vl {
                g.add_vertex(l);
            }
            for (u, v, el) in raw {
                if u != v {
                    let _ = g.add_edge(u, v, el);
                }
            }
            g
        })
    })
}

/// A database and the codes to count over it: every connected subgraph of
/// up to four edges of its first two graphs, so most codes occur somewhere
/// and many repeat a triple.
fn db_and_codes() -> impl Strategy<Value = (GraphDb, Vec<DfsCode>)> {
    proptest::collection::vec(graph(6), 2..7).prop_map(|graphs| {
        let db = GraphDb::from_graphs(graphs);
        let mut codes: Vec<DfsCode> =
            (0..2).flat_map(|gid| connected_subgraph_codes(db.graph(gid), 4)).collect();
        codes.sort();
        codes.dedup();
        (db, codes)
    })
}

proptest! {
    /// Screened and unscreened search agree on support and supporters,
    /// over the whole database and over an explicit gid list, and every
    /// graph is either searched or pruned, once.
    #[test]
    fn screened_support_equals_the_unscreened_search(input in db_and_codes()) {
        let (db, codes) = input;
        let all: Vec<GraphId> = (0..db.len() as GraphId).collect();
        for code in &codes {
            let want = iso::supporting_gids(&db, code);
            let counters = Counters::new();
            let (support, gids) = iso::screened_support(&db, None, code, 0, &counters);
            prop_assert_eq!(support, want.len() as Support, "{}", code);
            prop_assert_eq!(&gids, &want, "{}", code);
            let tried = counters.get(Counter::IsoTestsRun) + counters.get(Counter::IsoTestsPruned);
            prop_assert_eq!(tried, db.len() as u64);
            let over = iso::screened_support(&db, Some(&all), code, 0, Counters::noop());
            prop_assert_eq!(over, (support, gids), "{} over every gid", code);
        }
    }

    /// With a threshold the count may stop early, but a support that
    /// reaches it is exact and one that misses it never overstates.
    #[test]
    fn a_threshold_never_changes_a_support_that_reaches_it(
        input in db_and_codes(),
        min_needed in 1..5 as Support,
    ) {
        let (db, codes) = input;
        for code in &codes {
            let exact = iso::support(&db, code);
            let (support, _) = iso::screened_support(&db, None, code, min_needed, Counters::noop());
            if support >= min_needed {
                prop_assert_eq!(support, exact, "{}", code);
            } else {
                prop_assert!(support <= exact && exact < min_needed, "{}", code);
            }
        }
    }
}

/// A path `0 -5- 0 -5- 0` needs its one triple twice. The graph holding two
/// such edges supports it; the graph holding one must be pruned, and only
/// it.
#[test]
fn a_code_needing_a_triple_twice_is_screened_by_count() {
    let path = |edges: usize| {
        let mut g = Graph::new();
        for _ in 0..=edges {
            g.add_vertex(0);
        }
        for v in 0..edges as u32 {
            g.add_edge(v, v + 1, 5).unwrap();
        }
        g
    };
    let db = GraphDb::from_graphs(vec![path(1), path(2)]);
    let code = DfsCode(vec![DfsEdge::new(0, 1, 0, 5, 0), DfsEdge::new(1, 2, 0, 5, 0)]);
    let counters = Counters::new();
    assert_eq!(iso::screened_support(&db, None, &code, 0, &counters), (1, vec![1]));
    assert_eq!(counters.get(Counter::IsoTestsPruned), 1);
    assert_eq!(counters.get(Counter::IsoTestsRun), 1);
}
