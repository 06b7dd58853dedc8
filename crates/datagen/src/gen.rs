//! The D/N/T/I/L synthetic database generator (Table 1).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use graphmine_graph::{Graph, GraphDb, VertexId};

/// Parameters of the synthetic data generator, named after Table 1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GenParams {
    /// `D` — the total number of graphs in the data set.
    pub d: usize,
    /// `N` — the number of possible labels (vertex and edge labels are both
    /// drawn from `0..n`).
    pub n: u32,
    /// `T` — the average number of edges in graphs.
    pub t: usize,
    /// `I` — the average number of edges in potentially frequent patterns.
    pub i: usize,
    /// `L` — the number of potentially frequent kernels.
    pub l: usize,
    /// RNG seed (not part of the paper's notation; fixed per experiment for
    /// reproducibility).
    pub seed: u64,
}

impl GenParams {
    /// A convenience constructor in the order the paper writes dataset
    /// names: `DxTxNxLxIx`.
    pub fn new(d: usize, t: usize, n: u32, l: usize, i: usize) -> Self {
        GenParams { d, n, t, i, l, seed: 0x9e3779b97f4a7c15 }
    }

    /// The paper's dataset-name convention, e.g. `D50kT20N20L200I5`.
    pub fn name(&self) -> String {
        let d = if self.d % 1000 == 0 && self.d >= 1000 {
            format!("{}k", self.d / 1000)
        } else {
            self.d.to_string()
        };
        format!("D{d}T{}N{}L{}I{}", self.t, self.n, self.l, self.i)
    }

    /// Returns a copy with a different seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// A clipped integer sample around `mean` (Box-Muller normal with
/// `σ = mean/3`, clamped to at least 1) — the usual shape for "average
/// number of edges" parameters.
fn sample_size(rng: &mut StdRng, mean: usize) -> usize {
    if mean <= 1 {
        return 1;
    }
    let (u1, u2): (f64, f64) = (rng.random::<f64>().max(1e-12), rng.random());
    let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
    let v = mean as f64 + z * (mean as f64 / 3.0);
    v.round().max(1.0) as usize
}

/// A random connected graph with exactly `edges` edges: a random labeled
/// spanning tree plus random closing edges.
fn random_connected(rng: &mut StdRng, edges: usize, n_labels: u32) -> Graph {
    // Vertex count between the path (edges+1) and the densest option.
    let max_v = edges + 1;
    let min_v = ((1.0 + (1.0 + 8.0 * edges as f64).sqrt()) / 2.0).ceil() as usize;
    let nv = rng.random_range(min_v..=max_v).max(2);
    let mut g = Graph::with_capacity(nv, edges);
    for _ in 0..nv {
        g.add_vertex(rng.random_range(0..n_labels));
    }
    // Spanning tree.
    for v in 1..nv as u32 {
        let p = rng.random_range(0..v);
        g.add_edge(v, p, rng.random_range(0..n_labels)).expect("tree edge");
    }
    // Closing edges.
    let mut guard = 0;
    while g.edge_count() < edges && guard < edges * 20 {
        guard += 1;
        let u = rng.random_range(0..nv as u32);
        let v = rng.random_range(0..nv as u32);
        if u != v && g.edge_between(u, v).is_none() {
            g.add_edge(u, v, rng.random_range(0..n_labels)).expect("checked fresh");
        }
    }
    g
}

/// Generates a synthetic database per [`GenParams`].
///
/// Each graph is assembled by planting randomly chosen kernels (copied
/// breadth-first so truncation keeps them connected) and bridging them with
/// random edges until the target size is reached.
pub fn generate(params: &GenParams) -> GraphDb {
    let mut rng = StdRng::seed_from_u64(params.seed);

    // The L potentially frequent kernels, with skewed selection weights.
    let kernels: Vec<Graph> = (0..params.l.max(1))
        .map(|_| {
            let sz = sample_size(&mut rng, params.i);
            random_connected(&mut rng, sz, params.n)
        })
        .collect();
    let weights: Vec<f64> = (0..kernels.len())
        .map(|_| -(rng.random::<f64>().max(1e-12)).ln()) // Exp(1) weights
        .collect();
    let total_w: f64 = weights.iter().sum();

    let mut graphs = Vec::with_capacity(params.d);
    for _ in 0..params.d {
        let target = sample_size(&mut rng, params.t);
        let mut g = Graph::new();
        while g.edge_count() < target {
            // Weighted kernel choice.
            let mut pick = rng.random::<f64>() * total_w;
            let mut ki = 0;
            for (i, w) in weights.iter().enumerate() {
                pick -= w;
                if pick <= 0.0 {
                    ki = i;
                    break;
                }
            }
            plant_kernel(&mut rng, &mut g, &kernels[ki], target, params.n);
        }
        graphs.push(g);
    }
    GraphDb::from_graphs(graphs)
}

/// Copies `kernel` into `g` breadth-first, stopping at the edge budget, and
/// bridges it to the existing part of `g` with one random edge.
fn plant_kernel(rng: &mut StdRng, g: &mut Graph, kernel: &Graph, target: usize, n_labels: u32) {
    let had_vertices = g.vertex_count();
    let mut map: Vec<Option<VertexId>> = vec![None; kernel.vertex_count()];
    // BFS edge order from a random start vertex.
    let start = rng.random_range(0..kernel.vertex_count() as u32);
    let mut queue = std::collections::VecDeque::from([start]);
    let mut seen_edge = vec![false; kernel.edge_count()];
    map[start as usize] = Some(g.add_vertex(kernel.vlabel(start)));
    let mut incident = Vec::new();
    while let Some(v) = queue.pop_front() {
        // Incident edges in edge-id order, not the label order the
        // adjacency run keeps: the copy order (and so every generated
        // database) is fixed by the kernel's edge ids.
        incident.clear();
        incident.extend_from_slice(kernel.neighbors(v));
        incident.sort_unstable_by_key(|a| a.eid);
        for a in &incident {
            if seen_edge[a.eid as usize] {
                continue;
            }
            if g.edge_count() >= target {
                return;
            }
            seen_edge[a.eid as usize] = true;
            if map[a.to as usize].is_none() {
                map[a.to as usize] = Some(g.add_vertex(kernel.vlabel(a.to)));
                queue.push_back(a.to);
            }
            let gu = map[v as usize].expect("mapped by BFS");
            let gv = map[a.to as usize].expect("just mapped");
            if g.edge_between(gu, gv).is_none() {
                g.add_edge(gu, gv, a.elabel).expect("checked fresh");
            }
        }
    }
    // Bridge to the pre-existing part so the graph tends to stay connected.
    if had_vertices > 0 && g.edge_count() < target {
        let u = rng.random_range(0..had_vertices as u32);
        let v = rng.random_range(had_vertices as u32..g.vertex_count() as u32);
        if g.edge_between(u, v).is_none() {
            g.add_edge(u, v, rng.random_range(0..n_labels)).expect("checked fresh");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn name_convention_matches_paper() {
        assert_eq!(GenParams::new(50_000, 20, 20, 200, 5).name(), "D50kT20N20L200I5");
        assert_eq!(GenParams::new(100_000, 20, 20, 200, 9).name(), "D100kT20N20L200I9");
        assert_eq!(GenParams::new(500, 10, 30, 50, 3).name(), "D500T10N30L50I3");
    }

    #[test]
    fn generates_d_graphs_with_average_near_t() {
        let params = GenParams::new(200, 12, 10, 20, 4);
        let db = generate(&params);
        assert_eq!(db.len(), 200);
        let avg = db.total_edges() as f64 / db.len() as f64;
        assert!((avg - 12.0).abs() < 3.0, "average size {avg}");
        for (_, g) in db.iter() {
            assert!(g.edge_count() >= 1);
            for v in 0..g.vertex_count() as u32 {
                assert!(g.vlabel(v) < 10);
            }
            for (_, _, _, el) in g.edges() {
                assert!(el < 10);
            }
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let params = GenParams::new(30, 8, 5, 10, 3);
        let a = generate(&params);
        let b = generate(&params);
        assert_eq!(a.len(), b.len());
        for gid in 0..a.len() as u32 {
            assert_eq!(a.graph(gid), b.graph(gid));
        }
        let c = generate(&params.with_seed(7));
        let same = (0..a.len() as u32).all(|gid| a.graph(gid) == c.graph(gid));
        assert!(!same, "different seeds should differ");
    }

    #[test]
    fn planted_kernels_create_frequent_patterns() {
        // With few kernels and many graphs, some pattern should be very
        // frequent — the premise of the paper's evaluation.
        let params = GenParams::new(80, 10, 8, 4, 4);
        let db = generate(&params);
        let minsup = db.abs_support(0.25);
        let found = graphmine_miner_free::count_frequent_edges(&db, minsup);
        assert!(found > 0, "no frequent edge at 25% support");
    }

    /// Minimal local helper to avoid a dev-dependency cycle with the miner
    /// crate: counts frequent single-edge patterns.
    mod graphmine_miner_free {
        use graphmine_graph::GraphDb;
        use rustc_hash::{FxHashMap, FxHashSet};

        pub fn count_frequent_edges(db: &GraphDb, minsup: u32) -> usize {
            let mut counts: FxHashMap<(u32, u32, u32), u32> = FxHashMap::default();
            for (_, g) in db.iter() {
                let mut seen: FxHashSet<(u32, u32, u32)> = FxHashSet::default();
                for (_, u, v, el) in g.edges() {
                    let (a, b) = if g.vlabel(u) <= g.vlabel(v) {
                        (g.vlabel(u), g.vlabel(v))
                    } else {
                        (g.vlabel(v), g.vlabel(u))
                    };
                    seen.insert((a, el, b));
                }
                for t in seen {
                    *counts.entry(t).or_insert(0) += 1;
                }
            }
            counts.values().filter(|&&c| c >= minsup).count()
        }
    }

    /// The exact text of one tiny seeded database. Kernels are copied by
    /// walking each vertex's incident edges in edge-id order, whatever order
    /// the adjacency runs keep; a drift in that walk (or in the draws) moves
    /// these bytes and fails here by name, not as a golden-pattern mismatch
    /// downstream.
    #[test]
    fn tiny_database_text_is_pinned() {
        const PINNED: &str = "\
t # 0
v 0 0
v 1 0
v 2 1
v 3 3
e 0 1 1
e 0 2 1
e 0 3 3
e 1 3 3
e 1 2 3
e 2 3 1
t # 1
v 0 0
v 1 0
v 2 3
v 3 1
v 4 3
v 5 0
v 6 0
e 0 1 1
e 0 2 3
e 0 3 3
e 1 3 1
e 1 2 3
e 2 3 1
e 4 5 3
e 4 6 3
t # 2
v 0 0
v 1 0
v 2 1
v 3 3
e 0 1 1
e 0 2 1
e 0 3 3
e 1 3 3
e 1 2 3
t # -1
";
        let db = generate(&GenParams::new(3, 8, 4, 2, 6).with_seed(5));
        let mut text = Vec::new();
        graphmine_graph::io::write_db(&mut text, &db).unwrap();
        assert_eq!(String::from_utf8(text).unwrap(), PINNED);
    }

    #[test]
    fn random_connected_is_connected_with_exact_size() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        for edges in 1..20 {
            let g = random_connected(&mut rng, edges, 5);
            assert!(g.is_connected(), "{edges} edges");
            assert_eq!(g.edge_count(), edges);
        }
    }
}
