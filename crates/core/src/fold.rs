//! The serving daemon's fold: `P(D)` kept current by re-reading only the
//! graphs a window touched (docs/ALGORITHMS.md §3, docs/SERVICE.md,
//! "Application").
//!
//! A cold walk ([`walk_with_border`]) returns `P(D)` and its **border**:
//! every child [`EdgeView::project`] counts under a node of `P(D)` without
//! that child being a node — it is infrequent, or frequent under a
//! non-minimal code — with its exact support, plus the support of every
//! edge triple. The invariant, stated once: *after every fold, `P(D)` and
//! the border are exactly what a cold walk of the new database returns.*
//!
//! A window changes the graphs `T` ([`touched_graphs`]); every other graph
//! keeps its occurrences. So [`fold_delta`] re-reads the old and the new
//! copies of `T` down the nodes of `P(D)` only ([`count_under`]) and sets
//! `new = old − occ(T_old) + occ(T_new)` at every node and border entry it
//! meets, which is exact. A node that falls under θ leaves `P(D)` with its
//! subtree and becomes a border entry; an entry that no longer occurs is
//! dropped. Two changes need occurrences outside `T`, and for both the fold
//! hands the window back to the cold walk:
//!
//! * an edge triple rising to θ: the vocabulary grows, and any node may gain
//!   children over the new edge;
//! * a minimal border code reaching θ: an infrequent-to-frequent pattern,
//!   whose own children no walk has counted.

use rustc_hash::FxHashMap;

use graphmine_graph::dfscode::is_min;
use graphmine_graph::{
    edge_triple, DfsCode, ELabel, GraphDb, GraphId, Pattern, PatternSet, Support, VLabel,
};
use graphmine_miner::extend::{triple_supports, EdgeVocab};
use graphmine_miner::project::EdgeView;
use graphmine_miner::walk::count_under;

use crate::merge_join::{walk_view, MergeContext};

/// A normalised edge triple `(l_min, l_e, l_max)`.
type Triple = (VLabel, ELabel, VLabel);

/// What a cold walk counted around `P(D)` without reporting it: the state
/// [`fold_delta`] keeps beside `P(D)`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Border {
    /// Every child counted under a node of `P(D)` that is not a node, with
    /// its exact support, in code order.
    children: Vec<(DfsCode, Support)>,
    /// The support of every edge triple that occurs.
    edges: FxHashMap<Triple, Support>,
}

impl Border {
    /// Every child counted under a node of `P(D)` that is not a node, with
    /// its exact support, in code order.
    pub fn children(&self) -> &[(DfsCode, Support)] {
        &self.children
    }

    /// The support of every edge triple that occurs.
    pub fn edges(&self) -> &FxHashMap<Triple, Support> {
        &self.edges
    }
}

/// `P(ctx.db)` and its border: the walk [`crate::merge_join`] runs with no
/// pieces, keeping what it counted and rejected. `ctx.max_edges` must be
/// `None` for the border to be complete.
pub fn walk_with_border(ctx: &MergeContext<'_>) -> (PatternSet, Border) {
    let edges = triple_supports(ctx.db);
    let view = EdgeView::build(ctx.db, &frequent(&edges, ctx.min_support));
    let (patterns, children, _) = walk_view(ctx, &view, None, true);
    (patterns, Border { children, edges })
}

/// The gids whose graph `new` does not share with `old`: the only graphs
/// whose occurrences a fold from `old` to `new` can change.
pub fn touched_graphs(old: &GraphDb, new: &GraphDb) -> Vec<GraphId> {
    let shared = old.len().min(new.len()) as GraphId;
    (0..old.len().max(new.len()) as GraphId)
        .filter(|&gid| gid >= shared || !new.shares_graph(old, gid))
        .collect()
}

/// Folds the change from `old_db` to `ctx.db`, which differ at most in the
/// graphs `touched`, into `patterns` and `border` — `P(old_db)` at
/// `ctx.min_support` and its border, as [`walk_with_border`] returns them —
/// and returns `P(ctx.db)` with its border, equal to what
/// [`walk_with_border`]`(ctx)` returns. The fold is a walk: it opens one
/// `check_frequency` span on `ctx.telemetry`, and runs serially.
///
/// Returns `None`, having consumed `border`, when the fold needs that cold
/// walk: an edge triple rises to θ, a minimal border code reaches θ, or the
/// databases differ in length. (It also returns `None` on a count the state
/// does not hold, which a border that is a cold walk's never meets.)
pub fn fold_delta(
    ctx: &MergeContext<'_>,
    old_db: &GraphDb,
    touched: &[GraphId],
    patterns: &PatternSet,
    border: Border,
) -> Option<(PatternSet, Border)> {
    let (new_db, min_support) = (ctx.db, ctx.min_support);
    if old_db.len() != new_db.len() {
        return None;
    }
    let _span = ctx.telemetry.span("check_frequency");
    let Border { children, mut edges } = border;
    let theta = i64::from(min_support);
    // Both views are built over today's vocabulary: what the old database's
    // walk counted with, and, unless an edge rises, the new one's too.
    let vocab = frequent(&edges, min_support);
    let (before, after) = (old_db.select(touched), new_db.select(touched));

    let mut shift: FxHashMap<Triple, i64> = FxHashMap::default();
    for (db, sign) in [(&before, -1), (&after, 1)] {
        for (t, support) in triple_supports(db) {
            *shift.entry(t).or_insert(0) += sign * i64::from(support);
        }
    }
    // Edges that leave the vocabulary: no cold walk of the new database
    // counts a child over one.
    let mut fallen = Vec::new();
    for (t, by) in shift.into_iter().filter(|&(_, by)| by != 0) {
        let old = edges.get(&t).map_or(0, |&s| i64::from(s));
        let new = old + by;
        if new < 0 || old < theta && new >= theta {
            return None;
        }
        if old >= theta && new < theta {
            fallen.push(t);
        }
        if new == 0 {
            edges.remove(&t);
        } else {
            edges.insert(t, new as Support);
        }
    }

    #[cfg(feature = "fault-injection")]
    let (stale, skip_expansion) = {
        use graphmine_graph::fault::{armed, Fault};
        (armed(Fault::StaleBorderSupport), armed(Fault::SkipBorderExpansion))
    };
    #[cfg(not(feature = "fault-injection"))]
    let (stale, skip_expansion) = (false, false);

    // Each touched graph's share of every node and border entry, taken out
    // as the old copy counts it and put back as the new one does. Both
    // counts arrive in code order, so each looks its entries up from where
    // the last one was found.
    let mut node_shift = vec![0i64; patterns.len()];
    let mut entry_shift = vec![0i64; children.len()];
    let mut held = true;
    let mut from = 0;
    count_under(&EdgeView::build(&before, &vocab), patterns, |code, sup, node| {
        if let Some(i) = node {
            node_shift[i] -= i64::from(sup);
        } else if let Some(i) = seek(&children, &mut from, code) {
            if !stale {
                entry_shift[i] -= i64::from(sup);
            }
        } else {
            held = false;
        }
    });
    if !held {
        return None;
    }
    let mut fresh: Vec<(DfsCode, Support)> = Vec::new();
    let mut from = 0;
    count_under(&EdgeView::build(&after, &vocab), patterns, |code, sup, node| {
        if let Some(i) = node {
            node_shift[i] += i64::from(sup);
        } else if let Some(i) = seek(&children, &mut from, code) {
            entry_shift[i] += i64::from(sup);
        } else {
            fresh.push((code.clone(), sup));
        }
    });

    // The border's entries and the fresh ones, as one code-ordered list of
    // (code, old support, new support); both inputs are in code order.
    let mut entries = Vec::with_capacity(children.len() + fresh.len());
    let mut fresh = fresh.into_iter().peekable();
    for ((code, old), by) in children.into_iter().zip(entry_shift) {
        while let Some((c, s)) = fresh.next_if(|(c, _)| *c < code) {
            entries.push((c, 0, i64::from(s)));
        }
        entries.push((code, old, i64::from(old) + by));
    }
    entries.extend(fresh.map(|(c, s)| (c, 0, i64::from(s))));

    // One pass over nodes and entries in code order, which is the pre-order
    // of the code tree: a node that falls cuts its subtree, which follows
    // it.
    let counted = |code: &DfsCode, sup: i64| {
        let e = code.0.last().expect("codes are non-empty");
        sup > 0 && !fallen.contains(&edge_triple(e.from_label, e.edge_label, e.to_label))
    };
    let mut nodes = Vec::with_capacity(patterns.len());
    let mut kept = Vec::with_capacity(entries.len());
    let mut cut: Option<&DfsCode> = None;
    let mut node_it = patterns.iter().zip(node_shift).peekable();
    let mut entry_it = entries.into_iter().peekable();
    loop {
        let node_first = match (node_it.peek(), entry_it.peek()) {
            (None, None) => break,
            (Some((p, _)), Some((c, ..))) => p.code < *c,
            (node, _) => node.is_some(),
        };
        let under_cut = |code: &DfsCode| cut.is_some_and(|c| code.0.starts_with(&c.0));
        if node_first {
            let (p, by) = node_it.next()?;
            let sup = i64::from(p.support) + by;
            if sup < 0 {
                return None;
            }
            if under_cut(&p.code) {
                continue;
            }
            if sup >= theta {
                nodes.push(Pattern { support: sup as Support, ..p.clone() });
                continue;
            }
            // A root that falls is an edge leaving the vocabulary: the
            // edge supports hold it, not the border.
            if p.code.len() > 1 && counted(&p.code, sup) {
                kept.push((p.code.clone(), sup as Support));
            }
            cut = Some(&p.code);
        } else {
            let (code, old, sup) = entry_it.next()?;
            if sup < 0 {
                return None;
            }
            if under_cut(&code) || !counted(&code, sup) {
                continue;
            }
            // A border entry at or over θ before is non-minimal; one that
            // reaches θ now is a new pattern if its code is minimal.
            if sup >= theta && i64::from(old) < theta && !skip_expansion && is_min(&code) {
                return None;
            }
            kept.push((code, sup as Support));
        }
    }
    Some((nodes.into_iter().collect(), Border { children: kept, edges }))
}

/// Finds `code` in `entries` at or after `*from`, galloping: a search in
/// code order costs the log of the distance it moves. Leaves `*from` where
/// `code` is or would be.
fn seek(entries: &[(DfsCode, Support)], from: &mut usize, code: &DfsCode) -> Option<usize> {
    let (mut lo, mut step) = (*from, 1);
    while lo + step < entries.len() && entries[lo + step].0 < *code {
        lo += step;
        step *= 2;
    }
    let hi = (lo + step + 1).min(entries.len());
    let found = entries[lo..hi].binary_search_by(|(c, _)| c.cmp(code));
    *from = lo + found.unwrap_or_else(|at| at);
    found.ok().map(|at| lo + at)
}

/// The vocabulary of the edges at or over `min_support`.
fn frequent(edges: &FxHashMap<Triple, Support>, min_support: Support) -> EdgeVocab {
    EdgeVocab::from_triples(edges.iter().filter(|&(_, &s)| s >= min_support).map(|(&t, _)| t))
}
