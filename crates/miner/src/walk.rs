//! The one projected walk: from every frequent edge down, each accepted
//! pattern's children read off its occurrences ([`EdgeView::project`]) with
//! their exact supports. [`GSpan`](crate::GSpan) — and so every PartMiner
//! unit — runs it with nothing known; PartMiner's merge-join runs it with
//! its piece results as [`KnownCodes`], and the serving daemon runs that
//! merge-join with no pieces. The walk counts nothing itself: each caller
//! tallies the [`WalkStats`] it returns under its own names
//! (docs/ALGORITHMS.md §3, docs/TELEMETRY.md).
//!
//! The daemon's walk also keeps what it counted and rejected, the *border*
//! of `P(D)` ([`Walk::subtrees_with_border`]), and its delta fold re-reads a
//! few graphs down the nodes of `P(D)` alone ([`count_under`]);
//! `graphmine_core::fold` holds both ends.

use rustc_hash::FxHashMap;

use graphmine_graph::dfscode::{is_min, last_edge_undercuts_first};
use graphmine_graph::{DfsCode, DfsEdge, Pattern, PatternSet, Support};

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
    /// Children accepted because their code is known: the merge-join's
    /// unit-support shortcut.
    pub shortcut: u64,
}

impl WalkStats {
    /// Adds another walk's counters.
    pub fn absorb(&mut self, other: WalkStats) {
        self.roots += other.roots;
        self.extensions += other.extensions;
        self.rows += other.rows;
        self.frequent += other.frequent;
        self.infrequent += other.infrequent;
        self.shortcut += other.shortcut;
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
        self.run(roots, None)
    }

    /// [`Walk::subtrees`], also returning every child it counted under an
    /// accepted pattern and rejected — infrequent, or frequent under a
    /// non-minimal code — with its exact support, in code order.
    pub fn subtrees_with_border<'v>(
        &self,
        roots: impl IntoIterator<Item = (&'v Child, Occurrences<'v>)>,
    ) -> (PatternSet, Vec<(DfsCode, Support)>, WalkStats) {
        let mut border = Vec::new();
        let (out, stats) = self.run(roots, Some(&mut border));
        (out, border, stats)
    }

    fn run<'v>(
        &self,
        roots: impl IntoIterator<Item = (&'v Child, Occurrences<'v>)>,
        mut border: Option<&mut Vec<(DfsCode, Support)>>,
    ) -> (PatternSet, WalkStats) {
        let mut out = PatternSet::new();
        let mut stats = WalkStats::default();
        let mut scratch = self.view.scratch();
        for (root, occ) in roots {
            let mut code = DfsCode(vec![root.edge]);
            out.insert(Pattern::from_code(code.clone(), root.support));
            stats.roots += 1;
            self.descend(
                &mut code,
                &occ,
                &mut out,
                &mut stats,
                border.as_deref_mut(),
                &mut scratch,
            );
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
        mut border: Option<&mut Vec<(DfsCode, Support)>>,
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
                    let child_occ = occ.child(rows);
                    self.descend(code, &child_occ, out, stats, border.as_deref_mut(), scratch);
                }
            } else if let Some(border) = border.as_deref_mut() {
                border.push((code.clone(), child.support));
            }
            code.pop();
        }
    }

    /// The support `code` is reported with, or `None` when it is rejected.
    /// A frequent child under a non-minimal code is a duplicate: the walk
    /// meets the pattern under its minimum code elsewhere.
    fn verdict(&self, code: &DfsCode, sup: Support, stats: &mut WalkStats) -> Option<Support> {
        if let Some(&vouched) = self.known.and_then(|known| known.get(code)) {
            stats.shortcut += 1;
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
        // The O(1) pre-check settles most non-minimal children before
        // `is_min` builds the child's graph to search it.
        if !skip_min && (last_edge_undercuts_first(code) || !is_min(code)) {
            return None;
        }
        stats.frequent += 1;
        Some(sup)
    }
}

/// Re-reads the graphs of `view` down the nodes of `tree` alone: calls
/// `met` with every root the view holds and every child
/// [`EdgeView::project`] counts under a node of `tree`, each with its
/// support over the view's graphs and, when `tree` holds it, its index in
/// `tree`, in code order; it descends into the nodes alone. Nothing is
/// decided here: with `tree` the `P(D)` of a database and `view` a few of its
/// graphs over `P(D)`'s vocabulary, these are exactly those graphs' shares of
/// the supports a walk of the whole database counts at the nodes and the
/// border of `P(D)`.
///
/// `tree` must be closed under prefixes, as every `P(D)` is: then it is the
/// code tree's pre-order, a node's subtree is the run after it of longer
/// codes, and its children are found by their last edge alone.
pub fn count_under(
    view: &EdgeView,
    tree: &PatternSet,
    mut met: impl FnMut(&DfsCode, Support, Option<usize>),
) {
    let codes: Vec<&DfsCode> = tree.codes().collect();
    // Per node, the index just past its subtree.
    let mut skip = vec![codes.len(); codes.len()];
    let mut open: Vec<usize> = Vec::new();
    for (j, code) in codes.iter().enumerate() {
        while let Some(&i) = open.last().filter(|&&i| codes[i].len() >= code.len()) {
            skip[i] = j;
            open.pop();
        }
        open.push(j);
    }
    let nodes = Nodes { codes, skip };
    let mut scratch = view.scratch();
    let mut sibling = 0;
    for (root, occ) in view.roots() {
        let mut code = DfsCode(vec![root.edge]);
        let node = nodes.find(&mut sibling, nodes.codes.len(), 0, &root.edge);
        met(&code, root.support, node);
        if let Some(i) = node {
            count_children(view, &nodes, i, &mut code, &occ, &mut met, &mut scratch);
        }
    }
}

/// A prefix-closed code tree in pre-order, with each node's subtree end.
struct Nodes<'a> {
    codes: Vec<&'a DfsCode>,
    skip: Vec<usize>,
}

impl Nodes<'_> {
    /// The sibling in `[*at, end)` whose edge at `depth` is `edge`, moving
    /// `*at` past every sibling before it: children arrive in edge order.
    fn find(&self, at: &mut usize, end: usize, depth: usize, edge: &DfsEdge) -> Option<usize> {
        while *at < end {
            match self.codes[*at].0[depth].dfs_cmp(edge) {
                std::cmp::Ordering::Less => *at = self.skip[*at],
                std::cmp::Ordering::Equal => return Some(*at),
                std::cmp::Ordering::Greater => return None,
            }
        }
        None
    }
}

fn count_children(
    view: &EdgeView,
    nodes: &Nodes<'_>,
    parent: usize,
    code: &mut DfsCode,
    occ: &Occurrences<'_>,
    met: &mut impl FnMut(&DfsCode, Support, Option<usize>),
    scratch: &mut Scratch,
) {
    // Every child occurs at least once, so a threshold of one keeps every
    // list.
    let children = view.project(code, occ, 1, scratch);
    let (depth, end) = (code.len(), nodes.skip[parent]);
    let mut sibling = parent + 1;
    for (child, rows) in children.iter() {
        code.push(child.edge);
        let node = nodes.find(&mut sibling, end, depth, &child.edge);
        met(code, child.support, node);
        if let (Some(i), Some(rows)) = (node, rows) {
            count_children(view, nodes, i, code, &occ.child(rows), met, scratch);
        }
        code.pop();
    }
}
