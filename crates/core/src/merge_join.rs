//! The merge-join operation (Section 4.3, Fig. 11): recovering the frequent
//! subgraphs of a dataset `S` from the frequent subgraphs of its two pieces
//! `S0` and `S1`.
//!
//! The join is the one depth-first projected walk over `S` gSpan runs too
//! ([`Walk`]): a pattern's children are read off its own occurrences, so
//! nothing is generated that `S` does not contain, and every child arrives
//! with its support already counted — the support it is reported with,
//! always. The piece results enter as the walk's [`KnownCodes`], the one
//! verdict that spares the canonical-code test, the **unit-support
//! shortcut**: every occurrence inside a piece is an occurrence in the
//! original graph, so a pattern whose support within one piece already
//! reaches the threshold is frequent in `S`, and the piece results hold
//! canonical codes only, so it is accepted without `is_min`. What is left
//! here is building the view and that lookup, and fanning the walk out.
//!
//! The joins exactly as Fig. 11 writes them (generate-then-test, lossy) are
//! not a production path; `repro ablation` carries them in `crates/bench`.

use graphmine_exec::{Executor, Job};
use graphmine_graph::{DfsCode, GraphDb, PatternSet, Support};
use graphmine_miner::extend::EdgeVocab;
use graphmine_miner::project::{Child, EdgeView, Occurrences};
use graphmine_miner::walk::{KnownCodes, Walk, WalkStats};
use graphmine_telemetry::{Counter, Telemetry};

/// Everything a merge-join invocation needs to know about its node.
pub struct MergeContext<'a> {
    /// The recombined dataset `S` at this node of the partition tree.
    pub db: &'a GraphDb,
    /// The support threshold `θ` at this node (`sup / 2^depth`).
    pub min_support: Support,
    /// Optional pattern-size cap (edges).
    pub max_edges: Option<usize>,
    /// The shared executor the walk fans out on, one job per frequent-edge
    /// subtree (the subtrees are independent); a one-thread budget runs
    /// serially. The budget was resolved once when the executor was built,
    /// never per batch.
    pub executor: &'a Executor,
    /// The telemetry sink: its counters mirror the [`WalkStats`] the walk
    /// returns, and a `check_frequency` span wraps the walk.
    pub telemetry: &'a Telemetry,
}

/// Combines the frequent-pattern sets of the pieces of `ctx.db` into the
/// frequent-pattern set of `ctx.db` itself: the one projected [`Walk`] over
/// `S`, from every frequent edge down, with the piece results as its
/// [`KnownCodes`]. Lossless by gSpan's argument — every frequent pattern's
/// minimum code is a rightmost extension of its frequent, minimal prefix,
/// and the walk reaches every such prefix holding its full occurrence list,
/// so [`EdgeView::project`] returns the pattern's code with its exact
/// support. With no pieces it is the plain walk the serving daemon boots
/// and folds with.
///
/// The frequent-edge subtrees share nothing, so with an executor each is
/// one job. Each job's patterns are one root's subtree in code order, so
/// concatenating them in root order is the serial walk's output, already
/// sorted; the stats fold in the same order.
pub fn merge_join(ctx: &MergeContext<'_>, pieces: &[&PatternSet]) -> (PatternSet, WalkStats) {
    let view = EdgeView::build(ctx.db, &EdgeVocab::frequent_in(ctx.db, ctx.min_support));
    let mut known = KnownCodes::default();
    for p in pieces.iter().flat_map(|s| s.iter()).filter(|p| p.support >= ctx.min_support) {
        let vouched = known.entry(&p.code).or_insert(p.support);
        *vouched = (*vouched).max(p.support);
    }
    let (out, _, stats) = walk_view(ctx, &view, (!known.is_empty()).then_some(&known), false);
    (out, stats)
}

/// The walk of [`merge_join`] over a view of `ctx.db`, fanned out and
/// tallied as it describes; with `border`, also every child it counted and
/// rejected, in code order ([`Walk::subtrees_with_border`]).
pub(crate) fn walk_view(
    ctx: &MergeContext<'_>,
    view: &EdgeView,
    known: Option<&KnownCodes<'_>>,
    border: bool,
) -> (PatternSet, Vec<(DfsCode, Support)>, WalkStats) {
    let walk = Walk { view, min_support: ctx.min_support, max_edges: ctx.max_edges, known };

    // Below the roots the walk checks frequency; a cap of one edge stops it
    // at the roots.
    let deep = ctx.max_edges.is_none_or(|cap| cap >= 2);
    let _check_span = deep.then(|| ctx.telemetry.span("check_frequency"));
    let (out, counted, stats) = if !deep || ctx.executor.threads() == 1 {
        subtrees(&walk, view.roots(), border)
    } else {
        let walk = &walk;
        let jobs: Vec<Job<'_, _>> = view
            .roots()
            .map(|(root, occ)| {
                let subtree = std::iter::once((root, occ));
                Job::new(format!("walk:{}", root.edge), move || subtrees(walk, subtree, border))
            })
            .collect();
        let subtrees = ctx
            .executor
            .map_indexed(jobs)
            .unwrap_or_else(|e| panic!("merge-join walk failed: {e}"));
        let mut stats = WalkStats::default();
        let (mut out, mut counted) = (Vec::new(), Vec::new());
        for (found, rejected, local) in subtrees {
            stats.absorb(local);
            out.extend(found.into_patterns());
            counted.extend(rejected);
        }
        (out.into_iter().collect(), counted, stats)
    };

    let counters = ctx.telemetry.counters();
    // The roots are counted exactly and frequent by construction, so
    // verified_frequent accounts for every pattern in the output.
    counters.add(Counter::VerifiedFrequent, stats.roots + stats.frequent + stats.shortcut);
    counters.add(Counter::VerifiedInfrequent, stats.infrequent);
    counters.add(Counter::BoundShortcut, stats.shortcut);
    counters.add(Counter::CandidatesGenerated, stats.extensions);
    counters.add(Counter::EmbeddingsExtended, stats.rows);
    (out, counted, stats)
}

/// One serial walk from `roots`, with or without its border.
fn subtrees<'v>(
    walk: &Walk<'_>,
    roots: impl IntoIterator<Item = (&'v Child, Occurrences<'v>)>,
    border: bool,
) -> (PatternSet, Vec<(DfsCode, Support)>, WalkStats) {
    if border {
        walk.subtrees_with_border(roots)
    } else {
        let (out, stats) = walk.subtrees(roots);
        (out, Vec::new(), stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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

    #[test]
    fn complete_policy_recovers_gspan_exactly() {
        let db = sample_db();
        let (d0, d1) = split_db(&db);
        for sup in 1..=4u32 {
            let unit_sup = sup.div_ceil(2).max(1);
            let p0 = GSpan::new().mine(&d0, unit_sup);
            let p1 = GSpan::new().mine(&d1, unit_sup);
            let ctx = MergeContext {
                db: &db,
                min_support: sup,
                max_edges: None,
                executor: &Executor::new(1),
                telemetry: &Telemetry::new(),
            };
            let (merged, _) = merge_join(&ctx, &[&p0, &p1]);
            let direct = GSpan::new().mine(&db, sup);
            assert!(
                merged.same_codes_and_supports(&direct),
                "sup {sup}: merged {} direct {}",
                merged.len(),
                direct.len()
            );
        }
    }

    #[test]
    fn shortcut_mode_finds_same_codes() {
        let db = sample_db();
        let (d0, d1) = split_db(&db);
        let sup = 3u32;
        let p0 = GSpan::new().mine(&d0, 2);
        let p1 = GSpan::new().mine(&d1, 2);
        let ctx = MergeContext {
            db: &db,
            min_support: sup,
            max_edges: None,
            executor: &Executor::new(1),
            telemetry: &Telemetry::new(),
        };
        let (merged, stats) = merge_join(&ctx, &[&p0, &p1]);
        let direct = GSpan::new().mine(&db, sup);
        // A shortcut hit spares the canonical test, never the exact support.
        assert!(merged.same_codes_and_supports(&direct));
        assert!(stats.shortcut > 0, "the unit-support shortcut fired: {stats:?}");
    }

    #[test]
    fn max_edges_caps_the_merge() {
        let db = sample_db();
        let (d0, d1) = split_db(&db);
        let p0 = GSpan::capped(2).mine(&d0, 1);
        let p1 = GSpan::capped(2).mine(&d1, 1);
        let ctx = MergeContext {
            db: &db,
            min_support: 2,
            max_edges: Some(2),
            executor: &Executor::new(1),
            telemetry: &Telemetry::new(),
        };
        let (merged, _) = merge_join(&ctx, &[&p0, &p1]);
        assert!(merged.iter().all(|p| p.size() <= 2));
        let direct = GSpan::capped(2).mine(&db, 2);
        assert!(merged.same_codes_and_supports(&direct));
    }

    #[test]
    fn supporter_lists_do_not_change_results() {
        // Equivalence between restricted counting and whole-db counting is
        // implied by the gSpan comparisons above; this additionally checks
        // a database where supporter sets differ per pattern.
        let mut graphs = Vec::new();
        for i in 0..8u32 {
            let mut g = Graph::new();
            let a = g.add_vertex(i % 2);
            let b = g.add_vertex(1);
            let c = g.add_vertex(2);
            g.add_edge(a, b, 0).unwrap();
            g.add_edge(b, c, i % 3).unwrap();
            graphs.push(g);
        }
        let db = GraphDb::from_graphs(graphs);
        let (d0, d1) = split_db(&db);
        for sup in 2..=4 {
            let p0 = GSpan::new().mine(&d0, 1);
            let p1 = GSpan::new().mine(&d1, 1);
            let ctx = MergeContext {
                db: &db,
                min_support: sup,
                max_edges: None,
                executor: &Executor::new(1),
                telemetry: &Telemetry::new(),
            };
            let (merged, _) = merge_join(&ctx, &[&p0, &p1]);
            let direct = GSpan::new().mine(&db, sup);
            assert!(merged.same_codes_and_supports(&direct), "sup {sup}");
        }
    }
}
