//! The merge-join operation (Section 4.3, Fig. 11): recovering the frequent
//! subgraphs of a dataset `S` from the frequent subgraphs of its two pieces
//! `S0` and `S1`.
//!
//! The join is one depth-first projected walk over `S`
//! ([`EdgeView::project`]): a pattern's children are read off its own
//! occurrences, so nothing is generated that `S` does not contain, and
//! every child arrives with its support already counted — the support it is
//! reported with, always. The piece results enter as the one verdict that
//! spares the canonical-code test, the **unit-support shortcut**: every
//! occurrence inside a piece is an occurrence in the original graph, so a
//! pattern whose support within one piece already reaches the threshold is
//! frequent in `S`, and the piece results hold canonical codes only, so it
//! is accepted without `is_min`.
//!
//! The joins exactly as Fig. 11 writes them (generate-then-test, lossy) are
//! not a production path; `repro ablation` carries them in `crates/bench`.

use graphmine_exec::{Executor, Job};
use graphmine_graph::dfscode::is_min;
use graphmine_graph::{DfsCode, GraphDb, Pattern, PatternSet, Support};
use graphmine_miner::extend::EdgeVocab;
use graphmine_miner::project::{EdgeView, Occurrences, Scratch};
use graphmine_telemetry::{Counter, Counters, ReportSource, Telemetry};

/// Everything a merge-join invocation needs to know about its node.
pub struct MergeContext<'a> {
    /// The recombined dataset `S` at this node of the partition tree.
    pub db: &'a GraphDb,
    /// The support threshold `θ` at this node (`sup / 2^depth`).
    pub min_support: Support,
    /// Optional pattern-size cap (edges).
    pub max_edges: Option<usize>,
    /// The shared executor the walk fans out on, one job per frequent-edge
    /// subtree (the subtrees are independent). `None` runs serially; the
    /// thread budget was resolved once when the executor was built, never
    /// per batch.
    pub executor: Option<&'a Executor>,
    /// Optional telemetry sink: counters mirror [`MergeStats`] and a
    /// `check_frequency` span wraps the walk.
    pub telemetry: Option<&'a Telemetry>,
}

impl MergeContext<'_> {
    /// The telemetry counter table, or the shared no-op sink.
    pub fn counters(&self) -> &Counters {
        self.telemetry.map_or(Counters::noop(), Telemetry::counters)
    }
}

/// Work counters of one merge-join invocation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MergeStats {
    /// Candidates generated: the children the walk read off frequent
    /// parents, before the canonical test.
    pub candidates: usize,
    /// Candidates accepted or rejected on their exact support in `S` (and,
    /// when frequent, the canonical test).
    pub counted: usize,
    /// Candidates accepted as frequent and canonical on a unit result's
    /// word, without the canonical test.
    pub shortcut: usize,
}

impl MergeStats {
    /// Accumulates another invocation's counters.
    pub fn absorb(&mut self, other: MergeStats) {
        self.candidates += other.candidates;
        self.counted += other.counted;
        self.shortcut += other.shortcut;
    }
}

impl ReportSource for MergeStats {
    fn counter_totals(&self) -> Vec<(&'static str, u64)> {
        vec![
            (Counter::CandidatesGenerated.name(), self.candidates as u64),
            (Counter::BoundShortcut.name(), self.shortcut as u64),
            ("support_counts", self.counted as u64),
        ]
    }
}

/// Combines the frequent-pattern sets of the two pieces of `ctx.db` into
/// the frequent-pattern set of `ctx.db` itself: a depth-first projected
/// walk over `S`, from every frequent edge down. Lossless by gSpan's
/// argument — every frequent pattern's minimum code is a rightmost
/// extension of its frequent, minimal prefix, and the walk reaches every
/// such prefix holding its full occurrence list, so [`EdgeView::project`]
/// returns the pattern's code with its exact support. Only the lists on the
/// current root-to-leaf path are alive at any time.
///
/// The frequent-edge subtrees share nothing, so with an executor each is
/// one job; folding the jobs' results in submission order makes stats and
/// output identical to the serial walk.
pub fn merge_join(
    ctx: &MergeContext<'_>,
    p0: &PatternSet,
    p1: &PatternSet,
) -> (PatternSet, MergeStats) {
    let mut stats = MergeStats::default();

    // Line 1: frequent 1-edge patterns of S, counted exactly.
    let view = EdgeView::build(ctx.db, &EdgeVocab::frequent_in(ctx.db, ctx.min_support));

    let mut out = PatternSet::new();
    for (root, _) in view.roots() {
        out.insert(Pattern::from_code(DfsCode(vec![root.edge]), root.support));
    }
    // The exact 1-edge base is frequent by construction; tally it so the
    // verified_frequent counter accounts for every pattern in the output.
    ctx.counters().add(Counter::VerifiedFrequent, view.roots().len() as u64);
    if !within_cap(ctx, 2) {
        return (out, stats);
    }

    let _check_span = ctx.telemetry.map(|t| t.span("check_frequency"));
    let walk = Walk { ctx, view: &view, pieces: [p0, p1] };
    let subtrees = view.roots().map(|(root, occ)| (root.edge, occ));
    let Some(exec) = ctx.executor.filter(|exec| exec.threads() > 1) else {
        let mut scratch = view.scratch();
        for (edge, occ) in subtrees {
            walk.grow(&mut DfsCode(vec![edge]), &occ, &mut out, &mut stats, &mut scratch);
        }
        return (out, stats);
    };
    let walk = &walk;
    let jobs: Vec<Job<'_, (PatternSet, MergeStats)>> = subtrees
        .map(|(edge, occ)| {
            Job::new(format!("walk:{edge}"), move || {
                let mut found = PatternSet::new();
                let mut local = MergeStats::default();
                let mut scratch = walk.view.scratch();
                walk.grow(&mut DfsCode(vec![edge]), &occ, &mut found, &mut local, &mut scratch);
                (found, local)
            })
        })
        .collect();
    let subtrees = exec.map_indexed(jobs).unwrap_or_else(|e| panic!("merge-join walk failed: {e}"));
    for (found, local) in subtrees {
        stats.absorb(local);
        for p in found.into_patterns() {
            out.insert(p);
        }
    }
    (out, stats)
}

fn within_cap(ctx: &MergeContext<'_>, size: usize) -> bool {
    ctx.max_edges.is_none_or(|cap| size <= cap)
}

/// What stays fixed down one walk.
struct Walk<'a> {
    ctx: &'a MergeContext<'a>,
    /// `S` restricted to its frequent edges.
    view: &'a EdgeView,
    /// The two piece results. Each holds canonical codes only, with a
    /// support that is a lower bound on the pattern's support in `S`.
    pieces: [&'a PatternSet; 2],
}

impl Walk<'_> {
    /// Reads the children of the frequent, minimal `code` off its
    /// occurrences `occ`, inserts every child the verdicts accept and
    /// recurses into it.
    fn grow(
        &self,
        code: &mut DfsCode,
        occ: &Occurrences<'_>,
        out: &mut PatternSet,
        stats: &mut MergeStats,
        scratch: &mut Scratch,
    ) {
        if !within_cap(self.ctx, code.len() + 1) {
            return;
        }
        let counters = self.ctx.counters();
        let children = self.view.project(code, occ, self.ctx.min_support, scratch);
        stats.candidates += children.len();
        counters.add(Counter::CandidatesGenerated, children.len() as u64);
        counters.add(Counter::EmbeddingsExtended, children.total_rows());
        for (child, rows) in children.iter() {
            code.push(child.edge);
            if let Some(sup) = self.verdict(code, child.support, stats) {
                out.insert(Pattern::from_code(code.clone(), sup));
                // An accepted child has a list unless a unit result vouched
                // for a support `S` does not hold — a piece result that is
                // not one of `S`'s pieces; there is nothing to walk then.
                if let Some(rows) = rows {
                    self.grow(code, &occ.child(rows), out, stats, scratch);
                }
            }
            code.pop();
        }
    }

    /// The support `code` is reported with, or `None` when it is rejected.
    /// A unit support that already reaches the threshold proves the child
    /// frequent and — the piece results hold canonical codes only —
    /// minimal, so it is accepted with `sup`, its exact support in `S`; any
    /// other child is rejected if that support is short of the threshold
    /// and otherwise faces the canonical-code test.
    fn verdict(&self, code: &DfsCode, sup: Support, stats: &mut MergeStats) -> Option<Support> {
        let ctx = self.ctx;
        let counters = ctx.counters();
        let [p0, p1] = self.pieces;
        if let Some(unit) = p0.support(code).max(p1.support(code)).filter(|&u| u >= ctx.min_support)
        {
            stats.shortcut += 1;
            counters.bump(Counter::BoundShortcut);
            counters.bump(Counter::VerifiedFrequent);
            #[cfg(feature = "fault-injection")]
            let report_bound =
                graphmine_graph::fault::armed(graphmine_graph::fault::Fault::ReportUnitBound);
            #[cfg(not(feature = "fault-injection"))]
            let report_bound = false;
            return Some(if report_bound { unit } else { sup });
        }
        if sup < ctx.min_support {
            stats.counted += 1;
            counters.bump(Counter::VerifiedInfrequent);
            return None;
        }
        #[cfg(feature = "fault-injection")]
        let skip_min =
            graphmine_graph::fault::armed(graphmine_graph::fault::Fault::SkipWalkMinCheck);
        #[cfg(not(feature = "fault-injection"))]
        let skip_min = false;
        // A frequent child under a non-minimal code is a duplicate: the
        // walk meets the same pattern under its minimum code elsewhere.
        if !skip_min && !is_min(code) {
            return None;
        }
        stats.counted += 1;
        counters.bump(Counter::VerifiedFrequent);
        Some(sup)
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
            let sides = part.assign(g, &uf);
            let split = split_by_sides(g, &uf, &sides);
            d0.push(split.side1.graph);
            d1.push(split.side2.graph);
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
                executor: None,
                telemetry: None,
            };
            let (merged, _) = merge_join(&ctx, &p0, &p1);
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
            executor: None,
            telemetry: None,
        };
        let (merged, stats) = merge_join(&ctx, &p0, &p1);
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
            executor: None,
            telemetry: None,
        };
        let (merged, _) = merge_join(&ctx, &p0, &p1);
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
                executor: None,
                telemetry: None,
            };
            let (merged, _) = merge_join(&ctx, &p0, &p1);
            let direct = GSpan::new().mine(&db, sup);
            assert!(merged.same_codes_and_supports(&direct), "sup {sup}");
        }
    }
}
