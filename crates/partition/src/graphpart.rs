//! `GraphPart` — the paper's bi-partitioning algorithm (Fig. 5).

use graphmine_graph::Graph;

use crate::Bipartitioner;

/// The working buffers of [`Bipartitioner::assign`], kept by its caller
/// from one graph to the next. Their contents between calls mean nothing.
/// A graph of at most [`WORD`] vertices uses `order` alone; its vertex sets
/// are words on the stack.
#[derive(Debug, Default)]
pub struct AssignScratch {
    /// Vertices by descending update frequency.
    order: Vec<u32>,
    /// The candidate subset being grown.
    in_subset: Vec<bool>,
    /// Vertices the candidate's DFS has reached.
    visited: Vec<bool>,
    /// The candidate's DFS stack.
    stack: Vec<u32>,
    /// One vertex's unvisited neighbours, in push order.
    nbrs: Vec<u32>,
    /// Vertices the refinement has already flipped.
    locked: Vec<bool>,
}

/// The most vertices a graph may have for [`GraphPart`] to hold its vertex
/// sets in one `u64` each — every graph of the benchmark's databases (at
/// most 22 vertices at T10, 39 at T20). A larger graph runs on `bool`
/// vectors, the same steps in the same order.
const WORD: usize = 64;

/// The one-vertex set `{v}`.
#[inline]
fn bit(v: u32) -> u64 {
    1 << v
}

/// The members of `set`, in ascending vertex id.
fn members(mut set: u64) -> impl Iterator<Item = u32> {
    std::iter::from_fn(move || {
        let v = set.trailing_zeros();
        set &= set.wrapping_sub(1);
        (v < u64::BITS).then_some(v)
    })
}

/// Orders `a` before `b` when `a` has the higher update frequency, ties by
/// lower id (line 1 of Fig. 5). `total_cmp` keeps the order total whatever
/// the caller passes; `DbPartition::build` refuses a non-finite frequency
/// before it gets here.
fn hotter_first(ufreq: &[f64], a: u32, b: u32) -> std::cmp::Ordering {
    ufreq[b as usize].total_cmp(&ufreq[a as usize]).then(a.cmp(&b))
}

/// The `(λ1, λ2)` weights of equation (1), controlling the trade-off between
/// isolating frequently-updated vertices (first term) and minimising the
/// connectivity between the two sides (second term).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Criteria {
    /// Weight of the average-update-frequency term.
    pub lambda1: f64,
    /// Weight of the connective-edge-count term.
    pub lambda2: f64,
}

impl Criteria {
    /// *Partition1* (Section 5.1.1): isolate the updated vertices,
    /// `λ1 = 1, λ2 = 0`.
    pub const ISOLATE_UPDATES: Criteria = Criteria { lambda1: 1.0, lambda2: 0.0 };
    /// *Partition2*: minimise the connectivity between the subgraphs,
    /// `λ1 = 0, λ2 = 1`.
    pub const MIN_CONNECTIVITY: Criteria = Criteria { lambda1: 0.0, lambda2: 1.0 };
    /// *Partition3*: both criteria, `λ1 = 1, λ2 = 1` — the paper's best
    /// setting for dynamic databases.
    pub const COMBINED: Criteria = Criteria { lambda1: 1.0, lambda2: 1.0 };
}

impl Default for Criteria {
    fn default() -> Self {
        Criteria::COMBINED
    }
}

/// The `GraphPart` bi-partitioner.
///
/// Vertices are sorted by descending update frequency; a greedy DFS is
/// started from each vertex in the upper half of that order, collecting up
/// to `|V|/2` vertices and always visiting the unvisited neighbour with the
/// highest update frequency first (line 21 of Fig. 5). Each candidate
/// subset is scored with equation (1) and the best one becomes `V*`.
///
/// One deliberate deviation from the pseudo-code: Fig. 5's `DFSScan` pushes
/// only the single best neighbour per visited vertex, so its "scan" can die
/// on a dead end before reaching `|V|/2` vertices. We push *all* unvisited
/// neighbours (best on top), i.e. a genuine depth-first traversal, which is
/// what the prose describes ("we traverse the graph G in depth-first
/// manner").
#[derive(Debug, Clone, Default)]
pub struct GraphPart {
    /// The weight-function setting.
    pub criteria: Criteria,
}

impl GraphPart {
    /// A `GraphPart` with the given criteria.
    pub fn new(criteria: Criteria) -> Self {
        GraphPart { criteria }
    }
}

/// Equation (1) over one graph, with both terms normalised to `[0, 1]`
/// (average update frequency by the graph's maximum ufreq, connectivity by
/// the edge count) so that `λ1 = λ2 = 1` genuinely weighs them equally —
/// with raw counts the cut term numerically swamps the ufreq term and
/// Partition3 degenerates into Partition2, contradicting the behaviour the
/// paper's Fig. 13 reports.
struct Objective<'a> {
    criteria: Criteria,
    ufreq: &'a [f64],
    max_uf: f64,
    edges: usize,
}

impl Objective<'_> {
    /// `w(V1)` for the subset `subset` of `size` vertices cutting `cut`
    /// edges. The caller keeps `size` and `cut` current as vertices move;
    /// the ufreq sum is taken afresh, in vertex-id order, because a running
    /// floating-point sum would round differently from move to move.
    fn weight(&self, subset: &[bool], size: usize, cut: usize) -> f64 {
        self.score(size, cut, || {
            (0..subset.len()).filter(|&v| subset[v]).map(|v| self.ufreq[v]).sum()
        })
    }

    /// `w(V1)`, taking the subset's ufreq sum from `ufreq_sum` only when a
    /// frequency is positive. A one-word subset sums over the same vertices
    /// in the same order as [`Objective::weight`], so it rounds the same.
    fn score(&self, size: usize, cut: usize, ufreq_sum: impl FnOnce() -> f64) -> f64 {
        if size == 0 {
            return f64::NEG_INFINITY;
        }
        let uf_term =
            if self.max_uf > 0.0 { (ufreq_sum() / size as f64) / self.max_uf } else { 0.0 };
        let cut_term = if self.edges > 0 { cut as f64 / self.edges as f64 } else { 0.0 };
        self.criteria.lambda1 * uf_term - self.criteria.lambda2 * cut_term
    }

    /// Whether the weight is a non-increasing function of the cut alone,
    /// `w = λ1·0 − λ2·cut/m`: no update frequency is positive (so the
    /// first term is `λ1·0`, the same `±0` for every subset), `λ1` is
    /// finite (so that product is not NaN), and `0 < λ2 < ∞` (so `λ2·x` is
    /// finite and, rounded, non-decreasing in `x`, as `cut/m` is in `cut`).
    fn falls_with_cut(&self) -> bool {
        let Criteria { lambda1, lambda2 } = self.criteria;
        self.max_uf <= 0.0 && lambda1.is_finite() && lambda2 > 0.0 && lambda2.is_finite()
    }
}

impl Bipartitioner for GraphPart {
    fn assign(&self, g: &Graph, ufreq: &[f64], sides: &mut Vec<bool>, scratch: &mut AssignScratch) {
        let n = g.vertex_count();
        assert_eq!(ufreq.len(), n, "one update frequency per vertex");
        sides.clear();
        if n < 2 {
            sides.resize(n, true);
            return;
        }
        sides.resize(n, false);
        let objective = Objective {
            criteria: self.criteria,
            ufreq,
            max_uf: ufreq.iter().copied().fold(0.0_f64, f64::max),
            edges: g.edge_count(),
        };
        if n <= WORD {
            return assign_on_words(g, &objective, sides, scratch);
        }
        let AssignScratch { order, in_subset, visited, stack, nbrs, locked } = scratch;
        // Line 1: vertices sorted by descending update frequency
        // (ties broken by id for determinism).
        order.clear();
        order.extend(0..n as u32);
        order.sort_by(|&a, &b| hotter_first(ufreq, a, b));

        let half = (n / 2).max(1);
        // Best candidate so far: weight, subset, its size and its cut.
        let mut best_w = f64::NEG_INFINITY;
        let (mut size, mut cut) = (0usize, 0usize);

        // Lines 4-12: one greedy DFS per candidate start vertex in the
        // upper (high-ufreq) half of the order, all over the same buffers.
        for buf in [&mut *in_subset, &mut *visited, &mut *locked] {
            buf.clear();
            buf.resize(n, false);
        }
        for (i, &start) in order.iter().take(half).enumerate() {
            in_subset.fill(false);
            visited.fill(false);
            stack.clear();
            stack.push(start);
            visited[start as usize] = true;
            let (mut cand_size, mut cand_cut) = (0usize, 0usize);
            while let Some(v) = stack.pop() {
                if cand_size >= half {
                    break;
                }
                in_subset[v as usize] = true;
                cand_size += 1;
                // Joining the subset cuts v's edges to the outside and
                // heals its edges to the inside.
                let inside = g.neighbors(v).iter().filter(|a| in_subset[a.to as usize]).count();
                cand_cut = cand_cut + g.degree(v) - 2 * inside;
                // Push unvisited neighbours, highest ufreq on top (line 21).
                nbrs.clear();
                nbrs.extend(g.neighbors(v).iter().map(|a| a.to).filter(|&w| !visited[w as usize]));
                nbrs.sort_by(|&a, &b| hotter_first(ufreq, b, a));
                for &w in nbrs.iter() {
                    visited[w as usize] = true;
                    stack.push(w);
                }
            }
            let w = objective.weight(in_subset, cand_size, cand_cut);
            if i == 0 || w > best_w {
                best_w = w;
                sides.copy_from_slice(in_subset);
                (size, cut) = (cand_size, cand_cut);
            }
        }

        // Local refinement: greedily flip single vertices while that
        // improves the same objective w, keeping both sides within
        // [1/4, 3/4] of the graph. The greedy DFS prefixes above fix the
        // structure of equation (1)'s optimum; this polishes its value —
        // on dense graphs a raw DFS prefix can leave an unnecessarily
        // large cut. A flip of v changes the cut by v's edges alone: those
        // to its own side become connective, those to the other side stop
        // being so.
        let lo = (n / 4).max(1);
        let hi = n - lo;
        loop {
            // Best improving flip of this round: weight, vertex, new cut.
            let mut step: Option<(f64, usize, usize)> = None;
            for v in 0..n {
                if locked[v] {
                    continue;
                }
                let new_size = if sides[v] { size.saturating_sub(1) } else { size + 1 };
                if new_size < lo || new_size > hi {
                    continue;
                }
                let run = g.neighbors(v as u32);
                let same = run.iter().filter(|a| sides[a.to as usize] == sides[v]).count();
                let new_cut = cut + same - (run.len() - same);
                sides[v] = !sides[v];
                let w = objective.weight(sides, new_size, new_cut);
                sides[v] = !sides[v];
                if w > best_w && step.is_none_or(|(sw, ..)| w > sw) {
                    step = Some((w, v, new_cut));
                }
            }
            let Some((w, v, new_cut)) = step else { break };
            size = if sides[v] { size - 1 } else { size + 1 };
            sides[v] = !sides[v];
            locked[v] = true;
            best_w = w;
            cut = new_cut;
        }
    }

    fn name(&self) -> &'static str {
        "GraphPart"
    }
}

/// [`Bipartitioner::assign`] for a graph of `2..=WORD` vertices: the steps
/// of the `bool`-vector body in the same order, on one-word vertex sets.
/// Vertex `v`'s neighbours are the set `adj[v]`, so a vertex's edges into
/// a set are a popcount. Nothing here is quadratic: a graph costs a few
/// 64-word arrays on the stack whatever its size.
///
/// The greedy DFS runs on ranks: rank `r` is vertex `order[r]`, so "highest
/// update frequency first, ties by lower id" — the order of the starts and
/// the pop order among one vertex's pushed neighbours (line 21 of Fig. 5)
/// — is "lowest rank first". A vertex's unvisited neighbours are pushed as
/// one set and popped lowest bit first, which is the order the `bool`-vector
/// body pops them in after sorting. When every vertex has the same update
/// frequency (the same bits, as `total_cmp` orders them) the ranks are the
/// ids and nothing is sorted.
///
/// The DFS starts stop early when the weight falls with the cut alone
/// ([`Objective::falls_with_cut`]) and the best cut so far is the least any
/// candidate can have: 1 if the graph is connected (a candidate holds at
/// least one vertex, its start, and at most `n/2 < n`, so some edge leaves
/// it), 0 otherwise. A later candidate is taken only if its weight is
/// strictly greater; its cut is at least that bound, so its weight is at
/// most the best one, and it would not be taken. The skipped starts would
/// change nothing — not the best subset, its weight, size or cut, which are
/// all the refinement reads. For the same reason the refinement scores no
/// flip that leaves the cut as large or larger.
fn assign_on_words(
    g: &Graph,
    objective: &Objective<'_>,
    sides: &mut [bool],
    scratch: &mut AssignScratch,
) {
    let n = sides.len();
    let ufreq = objective.ufreq;
    let mut adj = [0u64; WORD];
    for (v, set) in (0..n as u32).zip(&mut adj) {
        *set = g.neighbors(v).iter().fold(0, |set, a| set | bit(a.to));
    }
    let degree = |set: &[u64; WORD], v: u32| set[v as usize].count_ones() as usize;
    let order = &mut scratch.order;
    order.clear();
    order.extend(0..n as u32);
    let uniform = ufreq.iter().all(|f| f.to_bits() == ufreq[0].to_bits());
    let mut ranked = adj;
    if !uniform {
        order.sort_by(|&a, &b| hotter_first(ufreq, a, b));
        let mut rank = [0u32; WORD];
        for (r, &v) in (0..n as u32).zip(order.iter()) {
            rank[v as usize] = r;
        }
        for (set, &v) in ranked.iter_mut().zip(order.iter()) {
            *set = members(adj[v as usize]).fold(0, |set, w| set | bit(rank[w as usize]));
        }
    }
    let vertices = |ranks: u64| {
        if uniform {
            ranks
        } else {
            members(ranks).fold(0, |set, r| set | bit(order[r as usize]))
        }
    };
    let falls = objective.falls_with_cut();
    let least_cut = falls.then(|| usize::from(connected(&adj[..n])));

    let half = (n / 2).max(1);
    let mut best_w = f64::NEG_INFINITY;
    let (mut best, mut size, mut cut) = (0u64, 0usize, 0usize);
    // The DFS stack as a stack of sets: one per popped vertex, of the
    // neighbours it pushed, so at most `half + 1` of them.
    let mut pushed = [0u64; WORD];
    for start in 0..half as u32 {
        let (mut subset, mut visited) = (0u64, bit(start));
        pushed[0] = bit(start);
        let mut depth = 1;
        let (mut cand_size, mut cand_cut) = (0usize, 0usize);
        while cand_size < half {
            while depth > 0 && pushed[depth - 1] == 0 {
                depth -= 1;
            }
            if depth == 0 {
                break;
            }
            let top = &mut pushed[depth - 1];
            let v = top.trailing_zeros();
            *top &= *top - 1;
            subset |= bit(v);
            cand_size += 1;
            let inside = (ranked[v as usize] & subset).count_ones() as usize;
            cand_cut = cand_cut + degree(&ranked, v) - 2 * inside;
            let fresh = ranked[v as usize] & !visited;
            visited |= fresh;
            pushed[depth] = fresh;
            depth += 1;
        }
        let w = objective.score(cand_size, cand_cut, || {
            members(vertices(subset)).map(|v| ufreq[v as usize]).sum()
        });
        if start == 0 || w > best_w {
            best_w = w;
            (best, size, cut) = (subset, cand_size, cand_cut);
        }
        if least_cut == Some(cut) {
            break;
        }
    }
    let mut best = vertices(best);

    // The local refinement of the `bool`-vector body, flip for flip.
    let lo = (n / 4).max(1);
    let hi = n - lo;
    let mut locked = 0u64;
    loop {
        let mut step: Option<(f64, u32, usize)> = None;
        for v in 0..n as u32 {
            if locked & bit(v) != 0 {
                continue;
            }
            let on = best & bit(v) != 0;
            let new_size = if on { size.saturating_sub(1) } else { size + 1 };
            if new_size < lo || new_size > hi {
                continue;
            }
            let own_side = if on { best } else { !best };
            let same = (adj[v as usize] & own_side).count_ones() as usize;
            let new_cut = cut + same - (degree(&adj, v) - same);
            if falls && new_cut >= cut {
                continue;
            }
            let w = objective.score(new_size, new_cut, || {
                members(best ^ bit(v)).map(|v| ufreq[v as usize]).sum()
            });
            if w > best_w && step.is_none_or(|(sw, ..)| w > sw) {
                step = Some((w, v, new_cut));
            }
        }
        let Some((w, v, new_cut)) = step else { break };
        size = if best & bit(v) != 0 { size - 1 } else { size + 1 };
        best ^= bit(v);
        locked |= bit(v);
        best_w = w;
        cut = new_cut;
    }
    for (v, side) in (0..n as u32).zip(sides) {
        *side = best & bit(v) != 0;
    }
}

/// Whether the graph whose adjacency sets are `adj` is connected: the
/// vertices reachable from vertex 0 are all of them.
fn connected(adj: &[u64]) -> bool {
    let (mut reached, mut frontier) = (1u64, 1u64);
    while frontier != 0 {
        let next = members(frontier).fold(0, |next, v| next | adj[v as usize]);
        frontier = next & !reached;
        reached |= frontier;
    }
    reached.count_ones() as usize == adj.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cut_size;

    /// Two triangles joined by a single bridge edge; the obvious minimum
    /// cut separates the triangles.
    fn barbell() -> Graph {
        let mut g = Graph::new();
        for _ in 0..6 {
            g.add_vertex(0);
        }
        g.add_edge(0, 1, 0).unwrap();
        g.add_edge(1, 2, 0).unwrap();
        g.add_edge(2, 0, 0).unwrap();
        g.add_edge(3, 4, 0).unwrap();
        g.add_edge(4, 5, 0).unwrap();
        g.add_edge(5, 3, 0).unwrap();
        g.add_edge(2, 3, 0).unwrap(); // bridge
        g
    }

    #[test]
    fn min_connectivity_finds_the_bridge() {
        let g = barbell();
        let sides = GraphPart::new(Criteria::MIN_CONNECTIVITY).sides(&g, &[0.0; 6]);
        assert_eq!(cut_size(&g, &sides), 1, "sides: {sides:?}");
        // Each triangle lands on one side.
        assert_eq!(sides[0], sides[1]);
        assert_eq!(sides[1], sides[2]);
        assert_eq!(sides[3], sides[4]);
        assert_eq!(sides[4], sides[5]);
        assert_ne!(sides[0], sides[3]);
    }

    #[test]
    fn isolate_updates_groups_hot_vertices() {
        // A 4-path where the two hot vertices are adjacent; Partition1 puts
        // them together in V*.
        let mut g = Graph::new();
        for _ in 0..4 {
            g.add_vertex(0);
        }
        g.add_edge(0, 1, 0).unwrap();
        g.add_edge(1, 2, 0).unwrap();
        g.add_edge(2, 3, 0).unwrap();
        let ufreq = [0.0, 5.0, 5.0, 0.0];
        let sides = GraphPart::new(Criteria::ISOLATE_UPDATES).sides(&g, &ufreq);
        assert!(sides[1] && sides[2], "hot vertices in V*: {sides:?}");
        assert!(!sides[0] || !sides[3], "some cold vertex outside V*");
    }

    #[test]
    fn combined_criteria_balances_both() {
        let g = barbell();
        // Hot vertices are one triangle; combined criteria should isolate
        // that triangle AND cut only the bridge.
        let ufreq = [3.0, 3.0, 3.0, 0.0, 0.0, 0.0];
        let sides = GraphPart::new(Criteria::COMBINED).sides(&g, &ufreq);
        assert_eq!(cut_size(&g, &sides), 1);
        assert!(sides[0] && sides[1] && sides[2]);
        assert!(!sides[3] && !sides[4] && !sides[5]);
    }

    #[test]
    fn tiny_graphs() {
        let mut g = Graph::new();
        g.add_vertex(0);
        assert_eq!(GraphPart::default().sides(&g, &[1.0]), vec![true]);
        let empty = Graph::new();
        assert!(GraphPart::default().sides(&empty, &[]).is_empty());
    }

    #[test]
    fn subset_size_is_at_most_half() {
        let g = barbell();
        let sides = GraphPart::default().sides(&g, &[1.0; 6]);
        let side1 = sides.iter().filter(|&&s| s).count();
        assert!((1..=3).contains(&side1), "side1 size {side1}");
    }

    /// A NaN update frequency once made the comparator non-total, and
    /// `sort_by` panicked on most graphs of this size.
    #[test]
    fn nan_ufreq_orders_without_panicking() {
        let mut state = 3u64;
        let mut next = |bound: u32| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) % u64::from(bound)) as u32
        };
        for _ in 0..50 {
            let mut g = Graph::new();
            for _ in 0..40 {
                g.add_vertex(next(5));
            }
            for v in 1..40 {
                g.add_edge(v, next(v), next(3)).unwrap();
            }
            for _ in 0..20 {
                let (u, v) = (next(40), next(40));
                if u != v && g.edge_between(u, v).is_none() {
                    g.add_edge(u, v, next(3)).unwrap();
                }
            }
            let uf: Vec<f64> =
                (0..40).map(|v| if v % 3 == 0 { f64::NAN } else { f64::from(next(7)) }).collect();
            let sides = GraphPart::default().sides(&g, &uf);
            assert_eq!(sides.len(), 40);
        }
    }

    #[test]
    #[should_panic(expected = "one update frequency per vertex")]
    fn ufreq_length_mismatch_panics() {
        let g = barbell();
        GraphPart::default().sides(&g, &[0.0; 2]);
    }
}
