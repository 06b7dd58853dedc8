//! The one projected walk: from every frequent edge down, each accepted
//! pattern's children read off its occurrences ([`EdgeView::project`]) with
//! their exact supports. [`GSpan`](crate::GSpan) — and so every PartMiner
//! unit — runs it with nothing known; PartMiner's merge-join runs it with
//! its piece results as [`KnownCodes`], and the serving daemon runs that
//! merge-join with no pieces. The walk counts nothing itself: each caller
//! tallies the [`WalkStats`] it returns under its own names
//! (docs/ALGORITHMS.md §3, docs/TELEMETRY.md).

use rustc_hash::FxHashMap;

use graphmine_graph::dfscode::is_min;
use graphmine_graph::{DfsCode, Pattern, PatternSet, Support};

use crate::project::{Child, EdgeView, Occurrences, Scratch};
use crate::within_cap;

/// Codes already known to be frequent and canonical, each with the support
/// its source vouches for — the merge-join's unit-support shortcut.
pub type KnownCodes<'a> = FxHashMap<&'a DfsCode, Support>;

/// Work counters of one walk, or of several folded with
/// [`WalkStats::absorb`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WalkStats {
    /// Frequent single edges walked from; each is reported.
    pub roots: u64,
    /// Children read off accepted patterns, before any verdict.
    pub extensions: u64,
    /// Occurrence rows of those children, kept or not.
    pub rows: u64,
    /// Children accepted on their exact support and the canonical test.
    pub frequent: u64,
    /// Children rejected on their exact support.
    pub infrequent: u64,
    /// Children accepted because their code is known.
    pub known: u64,
}

impl WalkStats {
    /// Adds another walk's counters.
    pub fn absorb(&mut self, other: WalkStats) {
        self.roots += other.roots;
        self.extensions += other.extensions;
        self.rows += other.rows;
        self.frequent += other.frequent;
        self.infrequent += other.infrequent;
        self.known += other.known;
    }
}

/// What stays fixed down one walk.
#[derive(Debug, Clone, Copy)]
pub struct Walk<'a> {
    /// The database restricted to its frequent edges.
    pub view: &'a EdgeView,
    /// The threshold θ.
    pub min_support: Support,
    /// Largest pattern reported, in edges; single edges always are.
    pub max_edges: Option<usize>,
    /// Children accepted without the support and canonical tests.
    pub known: Option<&'a KnownCodes<'a>>,
}

impl Walk<'_> {
    /// Every pattern in the given frequent-edge subtrees, in root order:
    /// all of [`EdgeView::roots`], or one root's — the subtrees share
    /// nothing, so each can be its own job.
    pub fn subtrees<'v>(
        &self,
        roots: impl IntoIterator<Item = (&'v Child, Occurrences<'v>)>,
    ) -> (PatternSet, WalkStats) {
        let mut out = PatternSet::new();
        let mut stats = WalkStats::default();
        let mut scratch = self.view.scratch();
        for (root, occ) in roots {
            let mut code = DfsCode(vec![root.edge]);
            out.insert(Pattern::from_code(code.clone(), root.support));
            stats.roots += 1;
            self.descend(&mut code, &occ, &mut out, &mut stats, &mut scratch);
        }
        (out, stats)
    }

    /// Reads the children of the accepted `code` off its occurrences `occ`,
    /// reports every child the verdict accepts and descends into it.
    fn descend(
        &self,
        code: &mut DfsCode,
        occ: &Occurrences<'_>,
        out: &mut PatternSet,
        stats: &mut WalkStats,
        scratch: &mut Scratch,
    ) {
        if !within_cap(self.max_edges, code.len() + 1) {
            return;
        }
        let children = self.view.project(code, occ, self.min_support, scratch);
        stats.extensions += children.len() as u64;
        stats.rows += children.total_rows();
        for (child, rows) in children.iter() {
            code.push(child.edge);
            if let Some(sup) = self.verdict(code, child.support, stats) {
                out.insert(Pattern::from_code(code.clone(), sup));
                // An accepted child has a list unless a known code vouched
                // for a support this database does not hold — a piece
                // result that is not one of its pieces; there is nothing
                // to walk then.
                if let Some(rows) = rows {
                    self.descend(code, &occ.child(rows), out, stats, scratch);
                }
            }
            code.pop();
        }
    }

    /// The support `code` is reported with, or `None` when it is rejected.
    /// A frequent child under a non-minimal code is a duplicate: the walk
    /// meets the pattern under its minimum code elsewhere.
    fn verdict(&self, code: &DfsCode, sup: Support, stats: &mut WalkStats) -> Option<Support> {
        if let Some(&vouched) = self.known.and_then(|known| known.get(code)) {
            stats.known += 1;
            #[cfg(feature = "fault-injection")]
            let report_vouched =
                graphmine_graph::fault::armed(graphmine_graph::fault::Fault::ReportUnitBound);
            #[cfg(not(feature = "fault-injection"))]
            let report_vouched = false;
            return Some(if report_vouched { vouched } else { sup });
        }
        if sup < self.min_support {
            stats.infrequent += 1;
            return None;
        }
        #[cfg(feature = "fault-injection")]
        let skip_min =
            graphmine_graph::fault::armed(graphmine_graph::fault::Fault::SkipWalkMinCheck);
        #[cfg(not(feature = "fault-injection"))]
        let skip_min = false;
        if !skip_min && !is_min(code) {
            return None;
        }
        stats.frequent += 1;
        Some(sup)
    }
}
