//! `GraphPart::assign` against the body it replaced.
//!
//! The reference below is the quadratic `assign` as it stood before the
//! running cut: every candidate flip scored by a recount over all edges,
//! every DFS start over fresh buffers, every DFS start run. The shipped one
//! must return the same `sides` vector, vertex for vertex — the weights
//! are compared by `>`, so one differently rounded sum, one stale cut or
//! one DFS start skipped that could have won picks another subset or
//! flip. Graphs of up to 64 vertices run on one-word vertex sets and stop
//! the DFS starts early; larger ones do neither, so the sparse graphs drawn
//! here straddle that limit.

use proptest::prelude::*;

use graphmine_graph::Graph;
use graphmine_partition::{Bipartitioner, Criteria, GraphPart};

/// Equation (1) by recount, as shipped before.
fn reference_weight(c: Criteria, g: &Graph, ufreq: &[f64], subset: &[bool], size: usize) -> f64 {
    if size == 0 {
        return f64::NEG_INFINITY;
    }
    let max_uf = ufreq.iter().copied().fold(0.0_f64, f64::max);
    let uf_term = if max_uf > 0.0 {
        let sum: f64 = (0..g.vertex_count()).filter(|&v| subset[v]).map(|v| ufreq[v]).sum();
        (sum / size as f64) / max_uf
    } else {
        0.0
    };
    let cut_term = if g.edge_count() > 0 {
        let cut =
            g.edges().filter(|&(_, u, v, _)| subset[u as usize] != subset[v as usize]).count();
        cut as f64 / g.edge_count() as f64
    } else {
        0.0
    };
    c.lambda1 * uf_term - c.lambda2 * cut_term
}

/// `GraphPart::assign` as shipped before.
fn reference_assign(c: Criteria, g: &Graph, ufreq: &[f64]) -> Vec<bool> {
    let n = g.vertex_count();
    if n < 2 {
        return vec![true; n];
    }
    // Frequencies order by `total_cmp`, as shipped since a NaN made
    // `partial_cmp` non-total: `+0.0` ranks above `-0.0`.
    let mut order: Vec<u32> = (0..n as u32).collect();
    order.sort_by(|&a, &b| ufreq[b as usize].total_cmp(&ufreq[a as usize]).then(a.cmp(&b)));

    let half = (n / 2).max(1);
    let mut best: Option<(f64, Vec<bool>)> = None;
    for &start in order.iter().take(half) {
        let mut in_subset = vec![false; n];
        let mut visited = vec![false; n];
        let mut stack = vec![start];
        visited[start as usize] = true;
        let mut size = 0usize;
        while let Some(v) = stack.pop() {
            if size >= half {
                break;
            }
            in_subset[v as usize] = true;
            size += 1;
            let mut nbrs: Vec<u32> =
                g.neighbors(v).iter().map(|a| a.to).filter(|&w| !visited[w as usize]).collect();
            nbrs.sort_by(|&a, &b| ufreq[a as usize].total_cmp(&ufreq[b as usize]).then(b.cmp(&a)));
            for w in nbrs {
                visited[w as usize] = true;
                stack.push(w);
            }
        }
        let w = reference_weight(c, g, ufreq, &in_subset, size);
        if best.as_ref().is_none_or(|(bw, _)| w > *bw) {
            best = Some((w, in_subset));
        }
    }
    let (mut best_w, mut sides) = best.expect("at least one candidate subset");

    let lo = (n / 4).max(1);
    let hi = n - lo;
    let mut locked = vec![false; n];
    loop {
        let mut step: Option<(f64, usize)> = None;
        let current_size = sides.iter().filter(|&&s| s).count();
        for v in 0..n {
            if locked[v] {
                continue;
            }
            let new_size = if sides[v] { current_size.saturating_sub(1) } else { current_size + 1 };
            if new_size < lo || new_size > hi {
                continue;
            }
            sides[v] = !sides[v];
            let w = reference_weight(c, g, ufreq, &sides, new_size);
            sides[v] = !sides[v];
            if w > best_w && step.is_none_or(|(sw, _)| w > sw) {
                step = Some((w, v));
            }
        }
        let Some((w, v)) = step else { break };
        sides[v] = !sides[v];
        locked[v] = true;
        best_w = w;
    }
    sides
}

/// Any simple graph on up to `max_n` vertices: `density` in sixteenths is
/// the chance each vertex pair is joined, so 0 is edgeless, 16 complete, and
/// nothing keeps it connected.
fn any_graph(max_n: usize) -> impl Strategy<Value = Graph> {
    (0..=max_n, 0..=16u32).prop_flat_map(|(n, density)| {
        proptest::collection::vec(0..16u32, n * n).prop_map(move |coin| {
            let mut g = Graph::new();
            for _ in 0..n {
                g.add_vertex(0);
            }
            for u in 0..n {
                for v in u + 1..n {
                    if coin[u * n + v] < density {
                        g.add_edge(u as u32, v as u32, 0).unwrap();
                    }
                }
            }
            g
        })
    })
}

/// A sparse graph of 60–130 vertices, most often 63, 64 or 65 — around
/// the one-word limit — with up to `2n` random edges: connected when a
/// random spanning tree comes first, and most often not when it does not.
fn sparse_graph() -> impl Strategy<Value = Graph> {
    let n = prop_oneof![Just(63usize), Just(64), Just(65), 60..=130usize];
    (n, any::<bool>()).prop_flat_map(|(n, connected)| {
        let tree = proptest::collection::vec(any::<u32>(), n);
        let extra = proptest::collection::vec((0..n as u32, 0..n as u32), 0..=2 * n);
        (tree, extra).prop_map(move |(tree, extra)| {
            let mut g = Graph::new();
            for _ in 0..n {
                g.add_vertex(0);
            }
            // Vertex v > 0 hangs off one of the vertices before it.
            let tree = (1..n as u32).filter(|_| connected).map(|v| (v, tree[v as usize] % v));
            for (u, v) in tree.chain(extra) {
                if u != v && g.edge_between(u, v).is_none() {
                    g.add_edge(u, v, 0).unwrap();
                }
            }
            g
        })
    })
}

/// Update frequencies of the kinds the pipeline sees: all zero (a static
/// database), drawn from three values (so most weights tie), or spread out
/// over values whose sums round — and the kinds it should survive: one
/// non-zero value everywhere, and zeros of both signs, which `total_cmp`
/// orders but `==` does not tell apart.
fn any_ufreq(n: usize) -> impl Strategy<Value = Vec<f64>> {
    prop_oneof![
        Just(vec![0.0; n]),
        proptest::collection::vec((0..3u32).prop_map(f64::from), n),
        proptest::collection::vec((0..1000u32).prop_map(|x| f64::from(x) / 7.0), n),
        prop_oneof![Just(1.0), Just(2.5), Just(-1.0)].prop_map(move |f| vec![f; n]),
        proptest::collection::vec(prop_oneof![Just(0.0), Just(-0.0)], n),
    ]
}

/// A weighting beside the paper's three: `λ2 = 0` (the cut does not count),
/// `λ2 < 0` (a larger cut scores higher, so no cut is a floor to stop at),
/// and weights other than one.
fn any_criteria() -> impl Strategy<Value = Criteria> {
    let lambda = || prop_oneof![Just(-1.0), Just(0.0), Just(0.5), Just(1.0), Just(3.0)];
    (lambda(), lambda()).prop_map(|(lambda1, lambda2)| Criteria { lambda1, lambda2 })
}

fn any_case() -> impl Strategy<Value = (Graph, Vec<f64>, Criteria)> {
    prop_oneof![3 => any_graph(12), 1 => sparse_graph()].prop_flat_map(|g| {
        let n = g.vertex_count();
        (Just(g), any_ufreq(n), any_criteria())
    })
}

proptest! {
    #[test]
    fn assign_equals_the_quadratic_reference(case in any_case()) {
        let (g, ufreq, drawn) = case;
        for c in [Criteria::ISOLATE_UPDATES, Criteria::MIN_CONNECTIVITY, Criteria::COMBINED, drawn] {
            let got = GraphPart::new(c).sides(&g, &ufreq);
            let want = reference_assign(c, &g, &ufreq);
            prop_assert_eq!(got, want, "{:?} on {:?} with ufreq {:?}", c, g, ufreq);
        }
    }
}
