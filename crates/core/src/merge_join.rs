//! The merge-join operation (Section 4.3, Fig. 11): recovering the frequent
//! subgraphs of a dataset `S` from the frequent subgraphs of its two pieces
//! `S0` and `S1`.
//!
//! Under the default `Complete` policy the join is one depth-first
//! projected walk over `S` ([`rightmost_children`]): a pattern's children
//! are read off its own occurrences, so nothing is generated that `S` does
//! not contain, and every child arrives with its support already counted.
//! The piece results enter as verdicts that spare the canonical-code test
//! and, unless `exact_supports` is set, the exact support:
//!
//! * **unit-support shortcut** — every occurrence inside a piece is an
//!   occurrence in the original graph, so a pattern whose support within
//!   one piece already reaches the threshold is frequent in `S` and is
//!   reported with that lower bound (disabled by `exact_supports`);
//! * **known-pattern skip** (`IncMergeJoin`, Fig. 12 lines 14–17) — during
//!   incremental re-merging, children present in the pruned pre-update
//!   result are moved straight to the frequent set.
//!
//! The paper-faithful `Paper` policy keeps generate-then-test: candidates
//! from the joins of Fig. 11, each verified against `S` (`CheckFrequency`)
//! through the embedding-list store or, on a spill, a triple-screened
//! search restricted to the sorted-set intersection of its parents'
//! supporter lists.

use std::sync::Arc;

use rustc_hash::FxHashMap;

use graphmine_exec::{Executor, Job};
use graphmine_graph::dfscode::is_min;
use graphmine_graph::iso::SupportIndex;
use graphmine_graph::{
    intersect_sorted, DfsCode, DfsEdge, EmbeddingList, EmbeddingMode, EmbeddingStore, GraphDb,
    GraphId, Pattern, PatternSet, Support,
};
use graphmine_miner::extend::{one_edge_extensions, rightmost_children, root_lists, EdgeVocab};
use graphmine_telemetry::{Counter, Counters, ReportSource, Telemetry};

use crate::config::one_edge_deletions;
use crate::JoinPolicy;

/// Everything a merge-join invocation needs to know about its node.
pub struct MergeContext<'a> {
    /// The recombined dataset `S` at this node of the partition tree.
    pub db: &'a GraphDb,
    /// The support threshold `θ` at this node (`sup / 2^depth`).
    pub min_support: Support,
    /// Candidate-generation policy.
    pub policy: JoinPolicy,
    /// Optional pattern-size cap (edges).
    pub max_edges: Option<usize>,
    /// Recount every support exactly (disables the unit-support shortcut).
    pub exact_supports: bool,
    /// IncMergeJoin: the pruned pre-update result. When `trust_known` is
    /// set, members skip support counting entirely.
    pub known: Option<&'a PatternSet>,
    /// Whether `known` members may be accepted without recounting.
    pub trust_known: bool,
    /// The shared executor the `Complete` walk fans out on, one job per
    /// frequent-edge subtree (the subtrees are independent). `None` runs
    /// serially; the thread budget was resolved once when the executor was
    /// built, never per batch.
    pub executor: Option<&'a Executor>,
    /// Whether the `Paper` policy's `CheckFrequency` keeps an embedding-list
    /// store. The `Complete` walk carries its lists down the recursion and
    /// reads neither this nor the budget.
    pub embedding_lists: EmbeddingMode,
    /// Byte budget of that store; a list pushing it over this cap is
    /// spilled and its candidate falls back to the search path.
    pub embedding_budget: usize,
    /// Optional telemetry sink: counters mirror [`MergeStats`] and a
    /// `check_frequency` span wraps the walk (`Complete`) or each
    /// verification batch (`Paper`).
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
    /// parents, before the canonical test (`Complete`), or the join
    /// candidates after canonical dedup (`Paper`).
    pub candidates: usize,
    /// Candidates accepted or rejected on their exact support in `S`.
    pub counted: usize,
    /// Candidates accepted through the unit-support shortcut.
    pub shortcut: usize,
    /// Candidates accepted from the pre-update result without counting.
    pub known_skipped: usize,
}

impl MergeStats {
    /// Accumulates another invocation's counters.
    pub fn absorb(&mut self, other: MergeStats) {
        self.candidates += other.candidates;
        self.counted += other.counted;
        self.shortcut += other.shortcut;
        self.known_skipped += other.known_skipped;
    }
}

impl ReportSource for MergeStats {
    fn counter_totals(&self) -> Vec<(&'static str, u64)> {
        vec![
            (Counter::CandidatesGenerated.name(), self.candidates as u64),
            (Counter::BoundShortcut.name(), self.shortcut as u64),
            (Counter::KnownSkipped.name(), self.known_skipped as u64),
            ("support_counts", self.counted as u64),
        ]
    }
}

/// Combines the frequent-pattern sets of the two pieces of `ctx.db` into
/// the frequent-pattern set of `ctx.db` itself.
pub fn merge_join(
    ctx: &MergeContext<'_>,
    p0: &PatternSet,
    p1: &PatternSet,
) -> (PatternSet, MergeStats) {
    let mut stats = MergeStats::default();

    // Line 1: frequent 1-edge patterns of S, counted exactly.
    let vocab = EdgeVocab::frequent_in(ctx.db, ctx.min_support);
    let roots = root_lists(ctx.db, &vocab);

    // Piece results with max-support union: the tightest available lower
    // bound on each pattern's support in S.
    let mut seeds = p0.clone();
    seeds.union(p1);

    let mut out = PatternSet::new();
    for (edge, list) in &roots {
        out.insert(Pattern::from_code(DfsCode(vec![*edge]), list.support()));
    }
    // The exact 1-edge base is frequent by construction; tally it so the
    // verified_frequent counter accounts for every pattern in the output.
    ctx.counters().add(Counter::VerifiedFrequent, roots.len() as u64);

    match ctx.policy {
        JoinPolicy::Complete => complete_levels(ctx, &vocab, &seeds, roots, &mut out, &mut stats),
        JoinPolicy::Paper => paper_levels(ctx, &vocab, p0, p1, &seeds, &mut out, &mut stats),
    }
    (out, stats)
}

/// The verdicts that need no count: a trusted member of the pre-update
/// result, then a unit support that already reaches the threshold. Both
/// sets hold canonical codes only, so a hit also proves `code` minimal.
fn bound(
    ctx: &MergeContext<'_>,
    seeds: &PatternSet,
    code: &DfsCode,
    stats: &mut MergeStats,
) -> Option<Support> {
    let counters = ctx.counters();
    if ctx.trust_known {
        if let Some(sup) = ctx.known.and_then(|known| known.support(code)) {
            stats.known_skipped += 1;
            counters.bump(Counter::KnownSkipped);
            counters.bump(Counter::VerifiedFrequent);
            return Some(sup);
        }
    }
    if !ctx.exact_supports {
        if let Some(lb) = seeds.support(code).filter(|&lb| lb >= ctx.min_support) {
            stats.shortcut += 1;
            counters.bump(Counter::BoundShortcut);
            counters.bump(Counter::VerifiedFrequent);
            return Some(lb);
        }
    }
    None
}

fn within_cap(ctx: &MergeContext<'_>, size: usize) -> bool {
    ctx.max_edges.is_none_or(|cap| size <= cap)
}

/// `Complete` policy: a depth-first projected walk over `S`, from every
/// frequent edge down. Lossless by gSpan's argument — every frequent
/// pattern's minimum code is a rightmost extension of its frequent,
/// minimal prefix, and the walk reaches every such prefix holding its full
/// occurrence list, so [`rightmost_children`] returns the pattern's code
/// with its exact support. Only the lists on the current root-to-leaf path
/// are alive at any time.
///
/// The frequent-edge subtrees share nothing, so with an executor each is
/// one job; folding the jobs' results in submission order makes stats and
/// output identical to the serial walk.
fn complete_levels(
    ctx: &MergeContext<'_>,
    vocab: &EdgeVocab,
    seeds: &PatternSet,
    roots: Vec<(DfsEdge, EmbeddingList)>,
    out: &mut PatternSet,
    stats: &mut MergeStats,
) {
    if !within_cap(ctx, 2) {
        return;
    }
    let _check_span = ctx.telemetry.map(|t| t.span("check_frequency"));
    let walk = Walk { ctx, vocab, seeds };
    let Some(exec) = ctx.executor.filter(|exec| exec.threads() > 1) else {
        for (edge, list) in roots {
            walk.grow(&mut DfsCode(vec![edge]), &list, out, stats);
        }
        return;
    };
    let walk = &walk;
    let jobs: Vec<Job<'_, (PatternSet, MergeStats)>> = roots
        .into_iter()
        .map(|(edge, list)| {
            Job::new(format!("walk:{edge}"), move || {
                let mut found = PatternSet::new();
                let mut local = MergeStats::default();
                walk.grow(&mut DfsCode(vec![edge]), &list, &mut found, &mut local);
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
}

/// What stays fixed down one `Complete` walk.
struct Walk<'a> {
    ctx: &'a MergeContext<'a>,
    vocab: &'a EdgeVocab,
    seeds: &'a PatternSet,
}

impl Walk<'_> {
    /// Reads the children of the frequent, minimal `code` off its
    /// occurrence `list`, inserts every child the verdicts accept and
    /// recurses into it.
    fn grow(
        &self,
        code: &mut DfsCode,
        list: &EmbeddingList,
        out: &mut PatternSet,
        stats: &mut MergeStats,
    ) {
        if !within_cap(self.ctx, code.len() + 1) {
            return;
        }
        let counters = self.ctx.counters();
        let children = rightmost_children(self.ctx.db, code, list, self.vocab);
        stats.candidates += children.len();
        counters.add(Counter::CandidatesGenerated, children.len() as u64);
        counters
            .add(Counter::EmbeddingsExtended, children.iter().map(|(_, l)| l.len() as u64).sum());
        for (edge, child) in children {
            code.push(edge);
            if let Some(sup) = self.verdict(code, &child, stats) {
                out.insert(Pattern::from_code(code.clone(), sup));
                self.grow(code, &child, out, stats);
            }
            code.pop();
        }
    }

    /// The support `code` is reported with, or `None` when it is rejected:
    /// the countless verdicts of [`bound`] first, then the exact support
    /// the child's `list` already holds, then — only for a child that
    /// counted frequent — the canonical-code test.
    fn verdict(
        &self,
        code: &DfsCode,
        list: &EmbeddingList,
        stats: &mut MergeStats,
    ) -> Option<Support> {
        let ctx = self.ctx;
        if let Some(sup) = bound(ctx, self.seeds, code, stats) {
            return Some(sup);
        }
        let sup = list.support();
        if sup < ctx.min_support {
            stats.counted += 1;
            ctx.counters().bump(Counter::VerifiedInfrequent);
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
        ctx.counters().bump(Counter::VerifiedFrequent);
        Some(sup)
    }
}

/// A frequent pattern in flight through the `Paper` level loop, with the
/// superset of gids a child candidate needs to be tested against.
#[derive(Clone)]
struct Live {
    pattern: Pattern,
    /// Superset of the supporting gids (`None` = unknown, i.e. all of `S`).
    supporters: Option<Arc<Vec<GraphId>>>,
}

/// Outcome of verifying one `Paper` candidate.
enum Verdict {
    /// Counted exactly; the supporter list is exact.
    Counted(Support, Arc<Vec<GraphId>>),
    /// Accepted through a bound (unit shortcut / known skip); the caller
    /// keeps the parent's superset list.
    Bound(Support),
    /// Infrequent.
    Rejected,
}

/// `CheckFrequency` as the `Paper` policy runs it, for every candidate of
/// one invocation: the histogram index over `S` and, when lists are on,
/// the embedding-list store.
struct CheckFrequency<'a> {
    index: SupportIndex,
    estore: Option<EmbeddingStore<'a>>,
}

impl<'a> CheckFrequency<'a> {
    fn new(ctx: &MergeContext<'a>) -> Self {
        let estore = ctx.embedding_lists.enabled().then(|| {
            let budget = ctx.embedding_lists.effective_budget(ctx.db, ctx.embedding_budget);
            EmbeddingStore::new(ctx.db, budget)
        });
        CheckFrequency { index: SupportIndex::build(ctx.db), estore }
    }

    /// Verifies one candidate: the countless verdicts of [`bound`], then an
    /// exact count — answered from the embedding-list store when a list is
    /// available, falling back to the histogram-screened search restricted
    /// to the parent's supporter superset when the list spilled (or lists
    /// are off).
    fn verify(
        &mut self,
        ctx: &MergeContext<'_>,
        seeds: &PatternSet,
        code: &DfsCode,
        restrict: Option<&Arc<Vec<GraphId>>>,
        stats: &mut MergeStats,
    ) -> Verdict {
        let counters = ctx.counters();
        if let Some(sup) = bound(ctx, seeds, code, stats) {
            return Verdict::Bound(sup);
        }
        stats.counted += 1;
        let listed = self.estore.as_mut().and_then(|store| store.support(code, counters));
        let (sup, gids) = match (listed, restrict) {
            (Some(answer), _) => {
                // The list answered: no per-graph search runs for this
                // candidate. The supporter list is exact — tighter than the
                // parent superset the search path would have scanned.
                let replaced = restrict.map_or(ctx.db.len(), |l| l.len());
                counters.add(Counter::SearchCallsAvoided, replaced as u64);
                answer
            }
            (None, Some(list)) => {
                self.index.support_over_counted(ctx.db, list, code, ctx.min_support, counters)
            }
            (None, None) => self.index.support_all_counted(ctx.db, code, ctx.min_support, counters),
        };
        if sup >= ctx.min_support {
            counters.bump(Counter::VerifiedFrequent);
            Verdict::Counted(sup, Arc::new(gids))
        } else {
            counters.bump(Counter::VerifiedInfrequent);
            Verdict::Rejected
        }
    }
}

/// Combines two optional parent supporter lists into the tightest sound
/// restriction for a shared child candidate: their sorted-set intersection.
/// Both lists are supersets of the child's true supporters (support is
/// anti-monotone), so the intersection still is — and it is never longer
/// than either input, where the old heuristic could only pick the shorter
/// list. Supporter lists are ascending by construction, so the kernels in
/// [`graphmine_graph::intersect`] apply directly.
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

/// `Paper` policy: the joins exactly as Fig. 11 writes them. Unit-local
/// patterns enter `P^k(S)` directly (verified at `θ`); *new* cross patterns
/// grow only out of the `F^k` chain, seeded by
/// `C^3 = Join(P^2(S0), P^2(S1))`.
fn paper_levels(
    ctx: &MergeContext<'_>,
    vocab: &EdgeVocab,
    p0: &PatternSet,
    p1: &PatternSet,
    seeds: &PatternSet,
    out: &mut PatternSet,
    stats: &mut MergeStats,
) {
    let mut check = CheckFrequency::new(ctx);
    let max_piece = p0.max_size().max(p1.max_size());

    // Level 2: P^2(S) = P^2(S0) ∪ P^2(S1), verified against S.
    if within_cap(ctx, 2) {
        let _check_span = ctx.telemetry.map(|t| t.span("check_frequency"));
        let mut piece2: Vec<&Pattern> = p0.of_size(2).chain(p1.of_size(2)).collect();
        piece2.sort_by(|a, b| a.code.cmp(&b.code));
        piece2.dedup_by(|a, b| a.code == b.code);
        for p in piece2 {
            if out.contains(&p.code) {
                continue;
            }
            match check.verify(ctx, seeds, &p.code, None, stats) {
                Verdict::Counted(sup, _) | Verdict::Bound(sup) => {
                    out.insert(Pattern::from_code(p.code.clone(), sup));
                }
                Verdict::Rejected => {}
            }
        }
    }

    // C^3 = Join(P^2(S0), P^2(S1)): extensions of one side with a partner
    // (one-edge deletion) on the other side.
    let mut f_k: Vec<Live> = Vec::new();
    if within_cap(ctx, 3) {
        let mut c3: FxHashMap<DfsCode, ()> = FxHashMap::default();
        let sides: [(&PatternSet, &PatternSet); 2] = [(p0, p1), (p1, p0)];
        for (mine, other) in sides {
            for p in mine.of_size(2) {
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
        stats.candidates += c3.len();
        ctx.counters().add(Counter::CandidatesGenerated, c3.len() as u64);
        let _check_span = ctx.telemetry.map(|t| t.span("check_frequency"));
        for (code, ()) in c3 {
            match check.verify(ctx, seeds, &code, None, stats) {
                Verdict::Counted(sup, gids) => {
                    let p = Pattern::from_code(code, sup);
                    out.insert(p.clone());
                    f_k.push(Live { pattern: p, supporters: Some(gids) });
                }
                Verdict::Bound(sup) => {
                    let p = Pattern::from_code(code, sup);
                    out.insert(p.clone());
                    f_k.push(Live { pattern: p, supporters: None });
                }
                Verdict::Rejected => {}
            }
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
        let mut piece_k: Vec<&Pattern> = p0.of_size(k).chain(p1.of_size(k)).collect();
        piece_k.sort_by(|a, b| a.code.cmp(&b.code));
        piece_k.dedup_by(|a, b| a.code == b.code);
        let piece_span = ctx.telemetry.map(|t| t.span("check_frequency"));
        for p in piece_k {
            if out.contains(&p.code) {
                continue;
            }
            match check.verify(ctx, seeds, &p.code, None, stats) {
                Verdict::Counted(sup, _) | Verdict::Bound(sup) => {
                    out.insert(Pattern::from_code(p.code.clone(), sup));
                }
                Verdict::Rejected => {}
            }
        }
        drop(piece_span);

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
        stats.candidates += candidates.len();
        ctx.counters().add(Counter::CandidatesGenerated, candidates.len() as u64);
        let _check_span = ctx.telemetry.map(|t| t.span("check_frequency"));
        let mut next_f = Vec::new();
        for (code, restrict) in candidates {
            match check.verify(ctx, seeds, &code, restrict.as_ref(), stats) {
                Verdict::Counted(sup, gids) => {
                    let p = Pattern::from_code(code, sup);
                    out.insert(p.clone());
                    next_f.push(Live { pattern: p, supporters: Some(gids) });
                }
                Verdict::Bound(sup) => {
                    let p = Pattern::from_code(code, sup);
                    out.insert(p.clone());
                    next_f.push(Live { pattern: p, supporters: restrict });
                }
                Verdict::Rejected => {}
            }
        }
        f_k = next_f;
        k += 1;
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
                policy: JoinPolicy::Complete,
                max_edges: None,
                exact_supports: true,
                known: None,
                trust_known: false,
                executor: None,
                embedding_lists: graphmine_graph::EmbeddingMode::Auto,
                embedding_budget: graphmine_graph::DEFAULT_EMBEDDING_BUDGET,
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
            policy: JoinPolicy::Complete,
            max_edges: None,
            exact_supports: false,
            known: None,
            trust_known: false,
            executor: None,
            embedding_lists: graphmine_graph::EmbeddingMode::Auto,
            embedding_budget: graphmine_graph::DEFAULT_EMBEDDING_BUDGET,
            telemetry: None,
        };
        let (merged, stats) = merge_join(&ctx, &p0, &p1);
        let direct = GSpan::new().mine(&db, sup);
        assert!(merged.same_codes(&direct));
        // Shortcut supports are valid lower bounds above the threshold.
        for p in merged.iter() {
            assert!(p.support >= sup);
            assert!(p.support <= direct.support(&p.code).unwrap());
        }
        assert!(stats.shortcut > 0, "the unit-support shortcut fired: {stats:?}");
    }

    #[test]
    fn paper_policy_is_a_sound_subset() {
        let db = sample_db();
        let (d0, d1) = split_db(&db);
        for sup in 1..=4u32 {
            let unit_sup = sup.div_ceil(2).max(1);
            let p0 = GSpan::new().mine(&d0, unit_sup);
            let p1 = GSpan::new().mine(&d1, unit_sup);
            let ctx = MergeContext {
                db: &db,
                min_support: sup,
                policy: JoinPolicy::Paper,
                max_edges: None,
                exact_supports: true,
                known: None,
                trust_known: false,
                executor: None,
                embedding_lists: graphmine_graph::EmbeddingMode::Auto,
                embedding_budget: graphmine_graph::DEFAULT_EMBEDDING_BUDGET,
                telemetry: None,
            };
            let (merged, _) = merge_join(&ctx, &p0, &p1);
            let direct = GSpan::new().mine(&db, sup);
            for p in merged.iter() {
                assert_eq!(
                    direct.support(&p.code),
                    Some(p.support),
                    "paper policy reported a non-frequent pattern {}",
                    p.code
                );
            }
            assert!(merged.len() <= direct.len());
        }
    }

    #[test]
    fn known_skip_moves_patterns_without_counting() {
        let db = sample_db();
        let (d0, d1) = split_db(&db);
        let sup = 2u32;
        let direct = GSpan::new().mine(&db, sup);
        let p0 = GSpan::new().mine(&d0, 1);
        let p1 = GSpan::new().mine(&d1, 1);
        let ctx = MergeContext {
            db: &db,
            min_support: sup,
            policy: JoinPolicy::Complete,
            max_edges: None,
            exact_supports: false,
            known: Some(&direct),
            trust_known: true,
            executor: None,
            embedding_lists: graphmine_graph::EmbeddingMode::Auto,
            embedding_budget: graphmine_graph::DEFAULT_EMBEDDING_BUDGET,
            telemetry: None,
        };
        let (merged, stats) = merge_join(&ctx, &p0, &p1);
        assert!(merged.same_codes(&direct));
        assert!(stats.known_skipped > 0);
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
            policy: JoinPolicy::Complete,
            max_edges: Some(2),
            exact_supports: true,
            known: None,
            trust_known: false,
            executor: None,
            embedding_lists: graphmine_graph::EmbeddingMode::Auto,
            embedding_budget: graphmine_graph::DEFAULT_EMBEDDING_BUDGET,
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
                policy: JoinPolicy::Complete,
                max_edges: None,
                exact_supports: true,
                known: None,
                trust_known: false,
                executor: None,
                embedding_lists: graphmine_graph::EmbeddingMode::Auto,
                embedding_budget: graphmine_graph::DEFAULT_EMBEDDING_BUDGET,
                telemetry: None,
            };
            let (merged, _) = merge_join(&ctx, &p0, &p1);
            let direct = GSpan::new().mine(&db, sup);
            assert!(merged.same_codes_and_supports(&direct), "sup {sup}");
        }
    }
}
