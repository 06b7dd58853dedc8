//! Structural invariants of the CSR graph core, checked from the public
//! API against linear references: sorted-neighbor order, offset
//! monotonicity, binary-search `edge_between` against a scan of the edge
//! list, exact `neighbor_range` boundaries against a label filter over the
//! whole run (absent labels, single-label graphs, relabels), the
//! intersection kernels against a naive `Vec::retain` reference, and a
//! relabel-storm regression for the sorted-adjacency repair in
//! `set_elabel`/`set_vlabel`.

use graphmine_graph::intersect::{gallop_intersect, intersect_sorted, merge_intersect};
use graphmine_graph::{Graph, VertexId};

/// Deterministic splitmix64 stream for reproducible storms.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// A deterministic pseudo-random simple graph over `n` vertices with
/// `vlabels` vertex labels and `elabels` edge labels, about `edges` edges.
fn random_graph(seed: u64, n: u32, vlabels: u32, elabels: u32, edges: usize) -> Graph {
    let mut s = seed;
    let mut g = Graph::new();
    for _ in 0..n {
        let l = (splitmix(&mut s) % u64::from(vlabels)) as u32;
        g.add_vertex(l);
    }
    let mut added = 0;
    while added < edges {
        let u = (splitmix(&mut s) % u64::from(n)) as u32;
        let v = (splitmix(&mut s) % u64::from(n)) as u32;
        let el = (splitmix(&mut s) % u64::from(elabels)) as u32;
        if u != v && g.add_edge(u, v, el).is_ok() {
            added += 1;
        }
    }
    g
}

/// Every `(to_label, elabel)` pair that could index a neighbor run.
fn label_universe(vlabels: u32, elabels: u32) -> Vec<(u32, u32)> {
    let mut out = Vec::new();
    for vl in 0..vlabels {
        for el in 0..elabels {
            out.push((vl, el));
        }
    }
    // Plus labels outside the generated universe: ranges must come back
    // empty, not wrong.
    out.push((vlabels + 7, 0));
    out.push((0, elabels + 7));
    out
}

/// `neighbor_range` answers must hold exactly the entries a label filter
/// over the whole run selects: every match, and nothing else.
fn assert_ranges_exact(g: &Graph, vlabels: u32, elabels: u32) {
    for v in 0..g.vertex_count() as VertexId {
        let run = g.neighbors(v);
        for &(tl, el) in &label_universe(vlabels, elabels) {
            let range = g.neighbor_range(v, tl, el);
            let expected: Vec<u32> = run
                .iter()
                .filter(|a| g.vlabel(a.to) == tl && a.elabel == el)
                .map(|a| a.eid)
                .collect();
            let got: Vec<u32> = run[range.clone()].iter().map(|a| a.eid).collect();
            assert_eq!(got, expected, "vertex {v} range {range:?} for ({tl},{el})");
        }
    }
}

#[test]
fn frozen_runs_are_sorted_and_offsets_monotone() {
    let g = random_graph(11, 30, 4, 3, 80);
    g.check_invariants().expect("freshly built graph is coherent");
    for v in 0..g.vertex_count() as VertexId {
        let run = g.neighbors(v);
        for w in run.windows(2) {
            let a = (g.vlabel(w[0].to), w[0].elabel, w[0].to);
            let b = (g.vlabel(w[1].to), w[1].elabel, w[1].to);
            assert!(a < b, "vertex {v} run not strictly sorted: {a:?} !< {b:?}");
        }
    }
}

#[test]
fn edge_between_binary_matches_linear_reference() {
    // Dense enough that some runs pass the linear-scan cutoff and
    // `edge_between` binary-searches them.
    for (seed, n, edges) in [(23, 24, 60), (29, 20, 150)] {
        let g = random_graph(seed, n, 3, 4, edges);
        assert_eq!(edges_by_scan(&g), edges_by_lookup(&g), "graph seed {seed}");
    }
}

/// The linear reference: every ordered vertex pair's edge found by
/// scanning the edge list itself.
fn edges_by_scan(g: &Graph) -> Vec<Option<u32>> {
    pairs(g)
        .map(|(u, v)| {
            g.edges()
                .find(|&(_, a, b, _)| (a, b) == (u, v) || (a, b) == (v, u))
                .map(|(eid, ..)| eid)
        })
        .collect()
}

fn edges_by_lookup(g: &Graph) -> Vec<Option<u32>> {
    pairs(g).map(|(u, v)| g.edge_between(u, v)).collect()
}

fn pairs(g: &Graph) -> impl Iterator<Item = (VertexId, VertexId)> {
    let n = g.vertex_count() as VertexId;
    (0..n).flat_map(move |u| (0..n).filter(move |&v| v != u).map(move |v| (u, v)))
}

#[test]
fn neighbor_range_boundaries_hold() {
    for (seed, n, edges) in [(37, 26, 70), (43, 18, 120)] {
        assert_ranges_exact(&random_graph(seed, n, 4, 3, edges), 4, 3);
    }
}

#[test]
fn single_label_graph_ranges_cover_whole_runs() {
    // One vertex label, one edge label: every run is one giant matching
    // block, and any other label must come back empty.
    let g = random_graph(41, 20, 1, 1, 40);
    for v in 0..g.vertex_count() as VertexId {
        assert_eq!(g.neighbor_range(v, 0, 0), 0..g.degree(v), "vertex {v} full run");
        assert!(g.neighbor_range(v, 1, 0).is_empty(), "absent vertex label");
        assert!(g.neighbor_range(v, 0, 1).is_empty(), "absent edge label");
    }
}

#[test]
fn relabel_after_freeze_keeps_ranges_exact() {
    let mut g = random_graph(53, 22, 4, 3, 55);
    g.set_vlabel(3, 9).unwrap();
    g.set_vlabel(7, 0).unwrap();
    let (eid, ..) = g.edges().next().expect("graph has edges");
    g.set_elabel(eid, 8).unwrap();
    g.check_invariants().expect("relabel kept the CSR coherent");
    assert_ranges_exact(&g, 10, 9);
}

/// Regression for the stale-sort bug class `set_elabel` fixes: a storm of
/// incremental relabels must keep every run sorted, and leave the graph
/// whose every query answers as the linear references do.
#[test]
fn relabel_storm_keeps_sorted_adjacency() {
    let mut g = random_graph(67, 28, 4, 3, 70);

    let mut s = 0xC5_u64;
    let edge_count = g.edge_count() as u64;
    let vertex_count = g.vertex_count() as u64;
    for step in 0..200 {
        if splitmix(&mut s) % 2 == 0 {
            let e = (splitmix(&mut s) % edge_count) as u32;
            let el = (splitmix(&mut s) % 6) as u32;
            g.set_elabel(e, el).unwrap();
        } else {
            let v = (splitmix(&mut s) % vertex_count) as u32;
            let vl = (splitmix(&mut s) % 6) as u32;
            g.set_vlabel(v, vl).unwrap();
        }
        g.check_invariants().unwrap_or_else(|e| panic!("storm step {step} broke the CSR: {e}"));
    }

    assert_eq!(edges_by_lookup(&g), edges_by_scan(&g));
    assert_ranges_exact(&g, 6, 6);
}

#[test]
fn pop_edge_and_pop_vertex_undo_additions() {
    let mut g = random_graph(71, 12, 3, 3, 20);
    let snapshot = g.clone();
    let leaf = g.add_vertex(2);
    g.add_edge(0, leaf, 1).unwrap();
    assert_ne!(g, snapshot);
    assert_eq!(g.pop_edge(), Some((0, leaf, 1)));
    assert_eq!(g.pop_vertex(), Some(2));
    assert_eq!(g, snapshot, "undo must restore the graph");
    for v in 0..g.vertex_count() as VertexId {
        assert_eq!(g.neighbors(v), snapshot.neighbors(v), "run of vertex {v}");
    }
    g.check_invariants().expect("undo kept the representation coherent");
}

#[test]
fn intersection_kernels_match_retain_reference() {
    let naive = |a: &[u32], b: &[u32]| {
        let mut out: Vec<u32> = a.to_vec();
        out.retain(|x| b.binary_search(x).is_ok());
        out
    };
    let mut s = 0xABCDu64;
    // Size skews exercise both kernels: balanced (merge) and lopsided
    // (galloping past the adaptivity cutoff).
    for (na, nb) in [(0, 9), (5, 5), (40, 40), (4, 400), (400, 4), (1, 1000)] {
        let mut a: Vec<u32> = (0..na).map(|_| (splitmix(&mut s) % 600) as u32).collect();
        let mut b: Vec<u32> = (0..nb).map(|_| (splitmix(&mut s) % 600) as u32).collect();
        a.sort_unstable();
        a.dedup();
        b.sort_unstable();
        b.dedup();
        let want = naive(&a, &b);
        assert_eq!(merge_intersect(&a, &b), want, "merge {na}x{nb}");
        assert_eq!(intersect_sorted(&a, &b), want, "adaptive {na}x{nb}");
        let (small, large) = if a.len() <= b.len() { (&a, &b) } else { (&b, &a) };
        assert_eq!(gallop_intersect(small, large), want, "gallop {na}x{nb}");
    }
}
