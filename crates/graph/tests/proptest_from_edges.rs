//! The bulk constructor against the incremental one: on random vertex
//! labels and edge lists, `Graph::from_edges` (a counting sort into the
//! arena, then one sort per run) must be the graph that `add_vertex` × n and
//! `add_edge` × m (one sorted insert per half-edge) build — the same edges,
//! the same sorted runs, no word past the edges — and on a list `add_edge`
//! would refuse part-way (duplicate, self-loop, endpoint out of range) it
//! must refuse the same edge with the same error. `Graph::subgraph`, which
//! copies runs out of a built graph instead, must build what
//! `Graph::from_edges` builds from the same lists.

use proptest::prelude::*;

use graphmine_graph::{CsrScratch, Graph, GraphError};

type EdgeList = Vec<(u32, u32, u32)>;

/// The reference: one `add_edge` per list entry, each a sorted insert,
/// stopping at the first refusal.
fn incremental(vlabels: &[u32], edges: &[(u32, u32, u32)]) -> Result<Graph, (usize, GraphError)> {
    let mut g = Graph::new();
    for &l in vlabels {
        g.add_vertex(l);
    }
    for (i, &(u, v, el)) in edges.iter().enumerate() {
        g.add_edge(u, v, el).map_err(|e| (i, e))?;
    }
    Ok(g)
}

/// Vertex labels plus an edge list over them. With `simple`, the list is
/// filtered down to a valid simple graph (any density, isolated vertices,
/// n = 0). Without, it is left as drawn — over at most six vertices most
/// lists repeat a pair, often several — and about one entry in eight is
/// bent into a self-loop or pushed out of range.
fn parts(max_n: usize, simple: bool) -> impl Strategy<Value = (Vec<u32>, EdgeList)> {
    (0..=max_n).prop_flat_map(move |n| {
        let ids = 0..(n as u32).max(1);
        let vl = proptest::collection::vec(0..3u32, n);
        let raw = proptest::collection::vec((ids.clone(), ids, 0..3u32, 0..16u32), 0..=3 * n);
        (vl, raw).prop_map(move |(vl, raw)| {
            let n = vl.len() as u32;
            let mut seen = std::collections::BTreeSet::new();
            let edges = raw
                .into_iter()
                .filter_map(|(u, v, el, bend)| match (simple, bend) {
                    (true, _) => (u < n && v < n && u != v && seen.insert((u.min(v), u.max(v))))
                        .then_some((u, v, el)),
                    (false, 0) => Some((u, u, el)),
                    (false, 1) => Some((u, v + n, el)),
                    (false, _) => Some((u, v, el)),
                })
                .collect();
            (vl, edges)
        })
    })
}

proptest! {
    #[test]
    fn bulk_equals_incremental_on_simple_graphs(input in parts(9, true)) {
        let (vl, edges) = input;
        let want = incremental(&vl, &edges).expect("the strategy filters to simple graphs");
        let got = Graph::from_edges(&vl, &edges, &mut CsrScratch::default())
            .expect("a simple graph is accepted");
        prop_assert_eq!(&got, &want);
        for v in 0..vl.len() as u32 {
            prop_assert_eq!(got.neighbors(v), want.neighbors(v), "run of vertex {}", v);
        }
        prop_assert_eq!(got.check_invariants(), Ok(()));
        prop_assert_eq!(want.check_invariants(), Ok(()));
    }

    /// One scratch across many graphs of different sizes: whatever a build
    /// leaves in it must not pass for a duplicate (or hide one) in the next.
    #[test]
    fn bulk_equals_incremental_on_any_list(
        inputs in proptest::collection::vec(parts(6, false), 1..6),
    ) {
        let mut scratch = CsrScratch::default();
        for (vl, edges) in &inputs {
            let got = Graph::from_edges(vl, edges, &mut scratch);
            match (got, incremental(vl, edges)) {
                (Ok(got), Ok(want)) => {
                    prop_assert_eq!(&got, &want);
                    for v in 0..vl.len() as u32 {
                        prop_assert_eq!(got.neighbors(v), want.neighbors(v), "run of vertex {}", v);
                    }
                    prop_assert_eq!(got.check_invariants(), Ok(()));
                }
                (Err(got), Err(want)) => prop_assert_eq!(got, want, "{:?} over {:?}", edges, vl),
                (got, want) => {
                    prop_assert!(false, "{:?} over {:?}: bulk {:?}, incremental {:?}",
                        edges, vl, got.map(|_| ()), want.map(|_| ()));
                }
            }
        }
    }
}

/// A simple graph with a subgraph of it: a subset of its edges, and a vertex
/// list holding their endpoints and some other vertices, in ascending order
/// (which `subgraph` copies runs in unsorted) or shuffled (which it must
/// mend where neighbours tie on both labels).
fn graph_and_subgraph() -> impl Strategy<Value = ((Vec<u32>, EdgeList), Vec<u32>, Vec<u32>)> {
    parts(9, true).prop_flat_map(|(vl, edges)| {
        let (n, m) = (vl.len(), edges.len());
        let keep_edge = proptest::collection::vec(any::<bool>(), m);
        let keep_vertex = proptest::collection::vec(any::<bool>(), n);
        let keys = proptest::collection::vec(any::<u32>(), n);
        (Just((vl, edges)), keep_edge, keep_vertex, keys, any::<bool>()).prop_map(
            |(parts, keep_edge, keep_vertex, keys, shuffle)| {
                let es: Vec<u32> =
                    (0..keep_edge.len() as u32).filter(|&e| keep_edge[e as usize]).collect();
                let mut listed = keep_vertex;
                for &e in &es {
                    let (u, v, _) = parts.1[e as usize];
                    listed[u as usize] = true;
                    listed[v as usize] = true;
                }
                let mut vs: Vec<u32> =
                    (0..listed.len() as u32).filter(|&v| listed[v as usize]).collect();
                if shuffle {
                    vs.sort_by_key(|&v| keys[v as usize]);
                }
                (parts, vs, es)
            },
        )
    })
}

proptest! {
    /// One scratch across the sequence, as a database split passes it.
    #[test]
    fn subgraph_equals_the_bulk_build_of_its_lists(
        cases in proptest::collection::vec(graph_and_subgraph(), 1..6),
    ) {
        let mut scratch = CsrScratch::default();
        for ((vl, edges), vs, es) in &cases {
            let parent = Graph::from_edges(vl, edges, &mut scratch).expect("simple");
            let got = parent.subgraph(vs, es, &mut scratch);
            let at = |v: u32| vs.iter().position(|&w| w == v).expect("endpoint listed") as u32;
            let labels: Vec<u32> = vs.iter().map(|&v| vl[v as usize]).collect();
            let piece_edges: EdgeList = es
                .iter()
                .map(|&e| edges[e as usize])
                .map(|(u, v, el)| (at(u), at(v), el))
                .collect();
            let want = Graph::from_edges(&labels, &piece_edges, &mut scratch).expect("simple");
            prop_assert_eq!(&got, &want);
            for v in 0..vs.len() as u32 {
                prop_assert_eq!(got.neighbors(v), want.neighbors(v), "run of vertex {}", v);
            }
            prop_assert_eq!(got.check_invariants(), Ok(()));
        }
    }
}

/// A path 0-1-2-3, to take subgraphs of.
fn path4() -> Graph {
    Graph::from_edges(&[0, 1, 2, 3], &[(0, 1, 0), (1, 2, 0), (2, 3, 0)], &mut CsrScratch::default())
        .expect("simple")
}

#[test]
#[should_panic(expected = "vertex 1 listed twice")]
fn subgraph_refuses_a_vertex_listed_twice() {
    path4().subgraph(&[0, 1, 1], &[0], &mut CsrScratch::default());
}

#[test]
#[should_panic(expected = "edge 3 out of range")]
fn subgraph_refuses_an_edge_out_of_range() {
    path4().subgraph(&[0, 1], &[3], &mut CsrScratch::default());
}

#[test]
#[should_panic(expected = "endpoint 2 of edge 1 is not listed")]
fn subgraph_refuses_an_edge_without_its_endpoints() {
    path4().subgraph(&[0, 1], &[0, 1], &mut CsrScratch::default());
}

/// Three copies of one edge, a second repeated pair and a self-loop behind
/// them: the refusal is the *second* copy of the first pair, whichever way
/// round the copies are written and whichever run finds them.
#[test]
fn the_first_refused_copy_is_reported() {
    let vl = [0, 1, 1, 0];
    let edges = [(2, 3, 0), (1, 0, 5), (0, 2, 1), (0, 1, 7), (3, 2, 4), (1, 0, 5), (3, 3, 0)];
    let got = Graph::from_edges(&vl, &edges, &mut CsrScratch::default());
    assert_eq!(got.unwrap_err(), (3, GraphError::DuplicateEdge { u: 0, v: 1 }));
    assert_eq!(
        incremental(&vl, &edges).unwrap_err(),
        (3, GraphError::DuplicateEdge { u: 0, v: 1 })
    );
}
