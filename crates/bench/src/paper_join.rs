//! The merge-join exactly as the paper writes it (Section 4.3, Fig. 11):
//! generate-then-test. Candidates come from the joins of Fig. 11, each
//! verified against `S` (`CheckFrequency`) through the embedding-list store
//! or, on a spill, a triple-screened search restricted to the sorted-set
//! intersection of its parents' supporter lists; a pattern already frequent
//! inside one piece skips the check and keeps that piece's support, a
//! lower bound (the paper's "cumulative information").
//!
//! This is not a production path. It is lossy — a pattern whose occurrences
//! only materialise across the cut has no second frequent `k`-subgraph to
//! join with and is never generated (DESIGN.md §3) — and an order of
//! magnitude slower than the projected walk in `graphmine-core`, which is
//! what `repro ablation` keeps it here to show.

use std::sync::Arc;

use rustc_hash::FxHashMap;

use graphmine_core::PartMinerState;
use graphmine_graph::enumerate::one_edge_deletions;
use graphmine_graph::{
    intersect_sorted, Change, DfsCode, EmbeddingMode, EmbeddingStore, GraphDb, GraphId, Pattern,
    PatternSet, Support, DEFAULT_EMBEDDING_BUDGET,
};
use graphmine_miner::extend::{one_edge_extensions, EdgeVocab};
use graphmine_miner::project::EdgeView;
use graphmine_telemetry::Counters;

/// Re-joins the two child results under the root of `state` the paper's
/// way. At `k = 2` the children are the units, so this is the whole of the
/// paper's Phase 2b over the unit results the production run mined.
pub fn paper_join(state: &PartMinerState) -> PatternSet {
    let root = state.partition.node(state.partition.root_id());
    let (a, b) = root.children.expect("a partition tree with at least two units");
    let ctx = JoinContext {
        db: &root.db,
        min_support: state.min_support,
        max_edges: state.config.max_edges,
    };
    join(&ctx, &state.node_results[&a], &state.node_results[&b])
}

/// What one join invocation needs to know about its node.
struct JoinContext<'a> {
    /// The recombined dataset `S`.
    db: &'a GraphDb,
    /// The support threshold `θ`.
    min_support: Support,
    /// Pattern-size cap (edges) the piece results were mined under.
    max_edges: Option<usize>,
}

fn join(ctx: &JoinContext<'_>, p0: &PatternSet, p1: &PatternSet) -> PatternSet {
    // Line 1: frequent 1-edge patterns of S, counted exactly.
    let vocab = EdgeVocab::frequent_in(ctx.db, ctx.min_support);
    let mut out = PatternSet::new();
    for (root, _) in EdgeView::build(ctx.db, &vocab).roots() {
        out.insert(Pattern::from_code(DfsCode(vec![root.edge]), root.support));
    }

    // Piece results with max-support union: the tightest available lower
    // bound on each pattern's support in S.
    let seeds = union_max(p0, p1);

    paper_levels(ctx, &vocab, p0, p1, &seeds, &mut out);
    out
}

/// Both piece results, keeping the larger support where both hold a code:
/// piece supports are lower bounds on the support in `S`.
fn union_max(p0: &PatternSet, p1: &PatternSet) -> PatternSet {
    p0.changes_to(p1)
        .map(|c| match c {
            Change::Unchanged(a, b) => if a.support >= b.support { a } else { b }.clone(),
            Change::Lost(p) | Change::Gained(p) => p.clone(),
        })
        .collect()
}

fn within_cap(ctx: &JoinContext<'_>, size: usize) -> bool {
    ctx.max_edges.is_none_or(|cap| size <= cap)
}

/// A frequent pattern in flight through the level loop, with the
/// superset of gids a child candidate needs to be tested against.
#[derive(Clone)]
struct Live {
    pattern: Pattern,
    /// Superset of the supporting gids (`None` = unknown, i.e. all of `S`).
    supporters: Option<Arc<Vec<GraphId>>>,
}

/// Outcome of verifying one candidate.
enum Verdict {
    /// Counted exactly; the supporter list is exact.
    Counted(Support, Arc<Vec<GraphId>>),
    /// Accepted on a unit support that already reaches the threshold,
    /// reported with that lower bound; the caller keeps the parent's
    /// superset list.
    Bound(Support),
    /// Infrequent.
    Rejected,
}

/// `CheckFrequency`, for every candidate of one invocation: the
/// embedding-list store over `S`.
struct CheckFrequency<'a> {
    estore: EmbeddingStore<'a>,
}

impl<'a> CheckFrequency<'a> {
    fn new(ctx: &JoinContext<'a>) -> Self {
        let budget = EmbeddingMode::Auto.effective_budget(ctx.db, DEFAULT_EMBEDDING_BUDGET);
        CheckFrequency { estore: EmbeddingStore::new(ctx.db, budget) }
    }

    /// Verifies one candidate: the unit-support shortcut, then a count —
    /// from the embedding-list store when the list fits, else the screened
    /// search restricted to the parent's supporter superset. Either way a
    /// count reaching `θ` is exact, and so is its supporter list.
    fn verify(
        &mut self,
        ctx: &JoinContext<'_>,
        seeds: &PatternSet,
        code: &DfsCode,
        restrict: Option<&Arc<Vec<GraphId>>>,
    ) -> Verdict {
        if let Some(lb) = seeds.support(code).filter(|&lb| lb >= ctx.min_support) {
            return Verdict::Bound(lb);
        }
        let over = restrict.map(|list| list.as_slice());
        let count = self.estore.support(code, over, ctx.min_support, Counters::noop());
        if count.support >= ctx.min_support {
            Verdict::Counted(count.support, Arc::new(count.gids))
        } else {
            Verdict::Rejected
        }
    }

    /// `P^k(S0) ∪ P^k(S1)` — the seeds of `k` edges — into `out`, each code
    /// not already there verified against `S`.
    fn piece_level(
        &mut self,
        ctx: &JoinContext<'_>,
        seeds: &PatternSet,
        k: usize,
        out: &mut PatternSet,
    ) {
        for p in seeds.iter().filter(|p| p.size() == k) {
            if !out.contains(&p.code) {
                let verdict = self.verify(ctx, seeds, &p.code, None);
                accept(p.code.clone(), verdict, None, out);
            }
        }
    }
}

/// Records a verified candidate in `out` and returns it as a member of the
/// next `F^k`; one accepted on a bound keeps `inherited` as its supporter
/// superset.
fn accept(
    code: DfsCode,
    verdict: Verdict,
    inherited: Option<Arc<Vec<GraphId>>>,
    out: &mut PatternSet,
) -> Option<Live> {
    let (support, supporters) = match verdict {
        Verdict::Counted(sup, gids) => (sup, Some(gids)),
        Verdict::Bound(sup) => (sup, inherited),
        Verdict::Rejected => return None,
    };
    let pattern = Pattern::from_code(code, support);
    out.insert(pattern.clone());
    Some(Live { pattern, supporters })
}

/// Combines two optional parent supporter lists into the tightest sound
/// restriction for a shared child candidate: their sorted-set intersection.
/// Both lists are supersets of the child's true supporters (support is
/// anti-monotone), so the intersection still is — and it is never longer
/// than either input. Supporter lists are ascending by construction, so the
/// kernels in [`graphmine_graph::intersect`] apply directly.
fn combine_restrict(
    a: Option<Arc<Vec<GraphId>>>,
    b: Option<Arc<Vec<GraphId>>>,
) -> Option<Arc<Vec<GraphId>>> {
    match (a, b) {
        (Some(x), Some(y)) => {
            if Arc::ptr_eq(&x, &y) {
                return Some(x);
            }
            Some(Arc::new(intersect_sorted(&x, &y)))
        }
        (Some(x), None) | (None, Some(x)) => Some(x),
        (None, None) => None,
    }
}

/// The joins exactly as Fig. 11 writes them. Unit-local patterns enter
/// `P^k(S)` directly (verified at `θ`); *new* cross patterns grow only out
/// of the `F^k` chain, seeded by `C^3 = Join(P^2(S0), P^2(S1))`.
fn paper_levels(
    ctx: &JoinContext<'_>,
    vocab: &EdgeVocab,
    p0: &PatternSet,
    p1: &PatternSet,
    seeds: &PatternSet,
    out: &mut PatternSet,
) {
    let mut check = CheckFrequency::new(ctx);
    let max_piece = seeds.max_size();

    // Level 2: P^2(S) = P^2(S0) ∪ P^2(S1), verified against S.
    if within_cap(ctx, 2) {
        check.piece_level(ctx, seeds, 2, out);
    }

    // C^3 = Join(P^2(S0), P^2(S1)): extensions of one side with a partner
    // (one-edge deletion) on the other side.
    let mut f_k: Vec<Live> = Vec::new();
    if within_cap(ctx, 3) {
        let mut c3: FxHashMap<DfsCode, ()> = FxHashMap::default();
        let sides: [(&PatternSet, &PatternSet); 2] = [(p0, p1), (p1, p0)];
        for (mine, other) in sides {
            for p in mine.iter().filter(|p| p.size() == 2) {
                for code in one_edge_extensions(&p.graph, vocab) {
                    if out.contains(&code) || c3.contains_key(&code) {
                        continue;
                    }
                    let has_partner =
                        one_edge_deletions(&code.to_graph()).iter().any(|d| other.contains(d));
                    if has_partner {
                        c3.insert(code, ());
                    }
                }
            }
        }
        for (code, ()) in c3 {
            let verdict = check.verify(ctx, seeds, &code, None);
            f_k.extend(accept(code, verdict, None, out));
        }
    }

    // Levels k >= 3: P^k(S) = P^k(S0) ∪ P^k(S1) ∪ F^k;
    // C^{k+1} = Join(P^k(S0), F^k) ∪ Join(P^k(S1), F^k) ∪ Join(F^k, F^k)
    // — i.e. extensions of the F^k chain only.
    let mut k = 3usize;
    loop {
        if !within_cap(ctx, k) {
            break;
        }
        check.piece_level(ctx, seeds, k, out);

        if f_k.is_empty() && k > max_piece {
            break;
        }
        if !within_cap(ctx, k + 1) {
            break;
        }
        let mut candidates: FxHashMap<DfsCode, Option<Arc<Vec<GraphId>>>> = FxHashMap::default();
        for live in &f_k {
            for code in one_edge_extensions(&live.pattern.graph, vocab) {
                if out.contains(&code) {
                    continue;
                }
                let entry = candidates.entry(code).or_insert_with(|| live.supporters.clone());
                *entry = combine_restrict(entry.take(), live.supporters.clone());
            }
        }
        let mut next_f = Vec::new();
        for (code, restrict) in candidates {
            let verdict = check.verify(ctx, seeds, &code, restrict.as_ref());
            next_f.extend(accept(code, verdict, restrict, out));
        }
        f_k = next_f;
        k += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphmine_core::{PartMiner, PartMinerConfig};
    use graphmine_datagen::{generate, GenParams};
    use graphmine_graph::Graph;
    use graphmine_miner::{GSpan, MemoryMiner};
    use graphmine_partition::{split_by_sides, Bipartitioner, Criteria, GraphPart};

    /// Builds a database, splits every graph in two, and returns the two
    /// piece databases.
    fn split_db(db: &GraphDb) -> (GraphDb, GraphDb) {
        let part = GraphPart::new(Criteria::MIN_CONNECTIVITY);
        let mut d0 = GraphDb::new();
        let mut d1 = GraphDb::new();
        for (_, g) in db.iter() {
            let uf = vec![0.0; g.vertex_count()];
            let sides = part.sides(g, &uf);
            let split = split_by_sides(g, &sides);
            d0.push(split.side1.into_graph());
            d1.push(split.side2.into_graph());
        }
        (d0, d1)
    }

    fn sample_db() -> GraphDb {
        let mut graphs = Vec::new();
        for i in 0..6u32 {
            let mut g = Graph::new();
            for j in 0..6 {
                g.add_vertex(j % 3);
            }
            g.add_edge(0, 1, 0).unwrap();
            g.add_edge(1, 2, 1).unwrap();
            g.add_edge(2, 3, 0).unwrap();
            g.add_edge(3, 4, 1).unwrap();
            g.add_edge(4, 5, 0).unwrap();
            if i % 2 == 0 {
                g.add_edge(5, 0, 1).unwrap();
            }
            if i % 3 == 0 {
                g.add_edge(0, 3, 2).unwrap();
            }
            graphs.push(g);
        }
        GraphDb::from_graphs(graphs)
    }

    /// Soundness: every reported code is genuinely frequent, and its
    /// support is the exact count or a unit's lower bound at or above `θ`.
    fn assert_sound(merged: &PatternSet, direct: &PatternSet, sup: Support) {
        for p in merged.iter() {
            let exact = direct.support(&p.code);
            assert!(
                exact.is_some_and(|exact| sup <= p.support && p.support <= exact),
                "paper join reported {} at {}; exact {exact:?}, threshold {sup}",
                p.code,
                p.support
            );
        }
    }

    #[test]
    fn union_keeps_max_support() {
        let edge = |label: u32, support: Support| {
            let e = graphmine_graph::DfsEdge::new(0, 1, label, 0, label);
            Pattern::from_code(DfsCode(vec![e]), support)
        };
        let a: PatternSet = vec![edge(1, 5), edge(3, 2)].into_iter().collect();
        let b: PatternSet = vec![edge(1, 8), edge(2, 3), edge(3, 1)].into_iter().collect();
        let u = union_max(&a, &b);
        assert_eq!(u.len(), 3);
        assert_eq!(u.support(&edge(1, 0).code), Some(8));
        assert_eq!(u.support(&edge(3, 0).code), Some(2));
    }

    #[test]
    fn paper_policy_is_a_sound_subset() {
        let db = sample_db();
        let (d0, d1) = split_db(&db);
        for sup in 1..=4u32 {
            let unit_sup = sup.div_ceil(2).max(1);
            let p0 = GSpan::new().mine(&d0, unit_sup);
            let p1 = GSpan::new().mine(&d1, unit_sup);
            let ctx = JoinContext { db: &db, min_support: sup, max_edges: None };
            let merged = join(&ctx, &p0, &p1);
            let direct = GSpan::new().mine(&db, sup);
            assert_sound(&merged, &direct, sup);
            assert!(merged.len() <= direct.len());
        }
    }

    #[test]
    fn paper_join_policy_is_sound_and_near_complete() {
        let db = generate(&GenParams::new(50, 9, 4, 8, 3));
        let sup = db.abs_support(0.15);
        let reference = GSpan::new().mine(&db, sup);
        let state = PartMiner::new(PartMinerConfig::with_k(2)).mine(&db, &[], sup).state;
        let joined = paper_join(&state);
        assert_sound(&joined, &reference, sup);
        // The paper's joins may miss cross-only patterns, but must find at
        // least all single edges and the overwhelming majority of the set.
        assert!(
            joined.len() * 10 >= reference.len() * 9,
            "paper join recovered {} of {}",
            joined.len(),
            reference.len()
        );
    }
}
