//! A METIS-style multilevel bisection baseline (Karypis & Kumar).
//!
//! The paper compares `GraphPart` against partitioning the graphs with the
//! METIS package before mining (Fig. 13). This module rebuilds the classic
//! multilevel scheme from scratch:
//!
//! 1. **Coarsening** — heavy-edge matching collapses matched vertex pairs
//!    into supervertices (edge weights accumulate) until the graph is small;
//! 2. **Initial partition** — greedy region growing on the coarsest graph
//!    up to half the total vertex weight;
//! 3. **Uncoarsening** — the assignment is projected back level by level,
//!    with an FM-style boundary refinement pass (positive-gain moves under
//!    a balance constraint) after each projection.

use graphmine_graph::Graph;

use crate::{AssignScratch, Bipartitioner};

/// The multilevel bisection baseline. Ignores update frequencies — it
/// optimises cut size only, which is exactly why it loses to `GraphPart`'s
/// Partition3 on dynamic workloads in Fig. 13(b).
#[derive(Debug, Clone, Default)]
pub struct MetisLike;

/// Weighted working graph used across coarsening levels.
struct Level {
    /// adjacency: vertex -> (neighbour, edge weight)
    adj: Vec<Vec<(u32, u64)>>,
    vweight: Vec<u64>,
    /// fine vertex -> coarse vertex of the *next* level
    project: Vec<u32>,
}

const COARSE_ENOUGH: usize = 24;

impl Bipartitioner for MetisLike {
    /// Builds its levels afresh for every graph: the baseline keeps no
    /// buffers in `scratch`.
    fn assign(&self, g: &Graph, _ufreq: &[f64], sides: &mut Vec<bool>, _: &mut AssignScratch) {
        *sides = Self::bisect(g);
    }

    fn name(&self) -> &'static str {
        "METIS"
    }
}

impl MetisLike {
    /// The multilevel bisection of `g`.
    fn bisect(g: &Graph) -> Vec<bool> {
        let n = g.vertex_count();
        if n < 2 {
            return vec![true; n];
        }

        // Build the finest level from the input graph (unit weights;
        // parallel edges cannot occur in a simple graph).
        let mut adj: Vec<Vec<(u32, u64)>> = vec![Vec::new(); n];
        for (_, u, v, _) in g.edges() {
            adj[u as usize].push((v, 1));
            adj[v as usize].push((u, 1));
        }
        let mut levels: Vec<Level> = vec![Level { adj, vweight: vec![1; n], project: Vec::new() }];

        // ---- coarsening ----------------------------------------------------
        loop {
            let cur = levels.last().unwrap();
            let cn = cur.vweight.len();
            if cn <= COARSE_ENOUGH {
                break;
            }
            let (coarse, project) = heavy_edge_match(cur);
            if coarse.vweight.len() == cn {
                break; // no progress (e.g. no edges left)
            }
            levels.last_mut().unwrap().project = project;
            levels.push(coarse);
        }

        // ---- initial partition on the coarsest level -----------------------
        let coarsest = levels.last().unwrap();
        let mut sides = region_grow(coarsest);
        refine(coarsest, &mut sides);

        // ---- uncoarsen + refine --------------------------------------------
        for li in (0..levels.len() - 1).rev() {
            let fine = &levels[li];
            let mut fine_sides = vec![false; fine.vweight.len()];
            for (v, &cv) in fine.project.iter().enumerate() {
                fine_sides[v] = sides[cv as usize];
            }
            refine(fine, &mut fine_sides);
            sides = fine_sides;
        }

        // Guarantee both sides are non-empty on graphs with >= 2 vertices.
        if sides.iter().all(|&s| s) {
            sides[n - 1] = false;
        } else if sides.iter().all(|&s| !s) {
            sides[0] = true;
        }
        sides
    }
}

/// One round of heavy-edge matching; returns the coarser level and the
/// fine→coarse projection.
fn heavy_edge_match(level: &Level) -> (Level, Vec<u32>) {
    let n = level.vweight.len();
    let mut matched = vec![u32::MAX; n];
    let mut coarse_of = vec![u32::MAX; n];
    let mut next_coarse = 0u32;
    for v in 0..n as u32 {
        if matched[v as usize] != u32::MAX {
            continue;
        }
        // Heaviest unmatched neighbour.
        let mate = level.adj[v as usize]
            .iter()
            .filter(|&&(w, _)| matched[w as usize] == u32::MAX && w != v)
            .max_by_key(|&&(w, wt)| (wt, std::cmp::Reverse(w)))
            .map(|&(w, _)| w);
        match mate {
            Some(w) => {
                matched[v as usize] = w;
                matched[w as usize] = v;
                coarse_of[v as usize] = next_coarse;
                coarse_of[w as usize] = next_coarse;
            }
            None => {
                matched[v as usize] = v;
                coarse_of[v as usize] = next_coarse;
            }
        }
        next_coarse += 1;
    }
    let cn = next_coarse as usize;
    let mut vweight = vec![0u64; cn];
    for v in 0..n {
        vweight[coarse_of[v] as usize] += level.vweight[v];
    }
    // Accumulate edge weights between coarse vertices.
    let mut edge_acc: rustc_hash::FxHashMap<(u32, u32), u64> = rustc_hash::FxHashMap::default();
    for v in 0..n as u32 {
        for &(w, wt) in &level.adj[v as usize] {
            if w <= v {
                continue; // each fine edge once
            }
            let (cv, cw) = (coarse_of[v as usize], coarse_of[w as usize]);
            if cv == cw {
                continue; // collapsed
            }
            let key = if cv < cw { (cv, cw) } else { (cw, cv) };
            *edge_acc.entry(key).or_insert(0) += wt;
        }
    }
    let mut adj: Vec<Vec<(u32, u64)>> = vec![Vec::new(); cn];
    for ((a, b), wt) in edge_acc {
        adj[a as usize].push((b, wt));
        adj[b as usize].push((a, wt));
    }
    (Level { adj, vweight, project: Vec::new() }, coarse_of)
}

/// Greedy BFS region growing to half the total vertex weight.
fn region_grow(level: &Level) -> Vec<bool> {
    let n = level.vweight.len();
    let total: u64 = level.vweight.iter().sum();
    let target = total / 2;
    let mut sides = vec![false; n];
    let mut weight = 0u64;
    let mut visited = vec![false; n];
    // Start from the heaviest vertex for determinism.
    let start = (0..n).max_by_key(|&v| level.vweight[v]).unwrap_or(0);
    let mut queue = std::collections::VecDeque::from([start as u32]);
    visited[start] = true;
    while let Some(v) = queue.pop_front() {
        if weight + level.vweight[v as usize] > target && weight > 0 {
            continue;
        }
        sides[v as usize] = true;
        weight += level.vweight[v as usize];
        for &(w, _) in &level.adj[v as usize] {
            if !visited[w as usize] {
                visited[w as usize] = true;
                queue.push_back(w);
            }
        }
    }
    if weight == 0 && n > 0 {
        sides[start] = true;
    }
    sides
}

/// FM-style refinement: greedily apply positive-gain single-vertex moves
/// while the balance constraint (neither side above ~2/3 of total weight)
/// holds. One pass; each vertex moves at most once.
fn refine(level: &Level, sides: &mut [bool]) {
    let n = level.vweight.len();
    let total: u64 = level.vweight.iter().sum();
    let limit = total * 2 / 3 + 1;
    let mut side_weight = [0u64; 2];
    for v in 0..n {
        side_weight[usize::from(sides[v])] += level.vweight[v];
    }
    let mut locked = vec![false; n];
    loop {
        let mut best: Option<(i64, usize)> = None;
        for v in 0..n {
            if locked[v] {
                continue;
            }
            let from = usize::from(sides[v]);
            let to = 1 - from;
            if side_weight[to] + level.vweight[v] > limit {
                continue;
            }
            // Gain = cut edges removed - cut edges created.
            let mut gain = 0i64;
            for &(w, wt) in &level.adj[v] {
                if sides[w as usize] == sides[v] {
                    gain -= wt as i64;
                } else {
                    gain += wt as i64;
                }
            }
            if gain > 0 && best.is_none_or(|(bg, _)| gain > bg) {
                best = Some((gain, v));
            }
        }
        let Some((_, v)) = best else { break };
        let from = usize::from(sides[v]);
        side_weight[from] -= level.vweight[v];
        side_weight[1 - from] += level.vweight[v];
        sides[v] = !sides[v];
        locked[v] = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cut_size;

    fn clique(g: &mut Graph, vs: &[u32]) {
        for (i, &u) in vs.iter().enumerate() {
            for &v in &vs[i + 1..] {
                g.add_edge(u, v, 0).unwrap();
            }
        }
    }

    #[test]
    fn separates_two_cliques() {
        let mut g = Graph::new();
        for _ in 0..8 {
            g.add_vertex(0);
        }
        clique(&mut g, &[0, 1, 2, 3]);
        clique(&mut g, &[4, 5, 6, 7]);
        g.add_edge(3, 4, 0).unwrap();
        let sides = MetisLike.sides(&g, &[0.0; 8]);
        assert_eq!(cut_size(&g, &sides), 1, "{sides:?}");
    }

    #[test]
    fn coarsening_survives_larger_graphs() {
        // Ring of 64 vertices: any good bisection cuts exactly 2 edges.
        let mut g = Graph::new();
        for _ in 0..64 {
            g.add_vertex(0);
        }
        for i in 0..64u32 {
            g.add_edge(i, (i + 1) % 64, 0).unwrap();
        }
        let sides = MetisLike.sides(&g, &[0.0; 64]);
        let cut = cut_size(&g, &sides);
        assert!((2..=6).contains(&cut), "ring cut {cut}");
        let side1 = sides.iter().filter(|&&s| s).count();
        assert!((16..=48).contains(&side1), "balance {side1}/64");
    }

    #[test]
    fn both_sides_non_empty() {
        let mut g = Graph::new();
        for _ in 0..3 {
            g.add_vertex(0);
        }
        g.add_edge(0, 1, 0).unwrap();
        g.add_edge(1, 2, 0).unwrap();
        let sides = MetisLike.sides(&g, &[0.0; 3]);
        assert!(sides.iter().any(|&s| s) && sides.iter().any(|&s| !s));
    }

    #[test]
    fn single_vertex() {
        let mut g = Graph::new();
        g.add_vertex(0);
        assert_eq!(MetisLike.sides(&g, &[0.0]), vec![true]);
    }
}
