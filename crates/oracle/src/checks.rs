//! The oracle's check battery.
//!
//! Every check is differential (two independent computations must agree)
//! or metamorphic (a transformed input must produce a predictably
//! transformed output). The full battery for one [`Case`]:
//!
//! 0. **csr-invariants** — every database graph (and the post-update
//!    mirror) passes [`Graph::check_invariants`]: a word block of exactly
//!    the vertices, offsets and edges, CSR offsets monotone and spanning,
//!    per-vertex runs sorted, adjacency mirroring the edge list. Every
//!    later check leans on the sorted-run binary-search contracts, so a
//!    drifted run is caught by name here first.
//! 1. **edge-rejection** — self-loops and duplicate edges are rejected by
//!    the graph, and a rejected update leaves the partition intact.
//! 2. **reference-matrix** — gSpan vs Gaston vs Apriori (embedding lists
//!    off and on) vs brute-force enumeration on small databases.
//! 3. **pattern-invariants** — every prefix of a reported minimum DFS code
//!    is itself minimal, and support is anti-monotone along one-edge
//!    deletion parent links.
//! 4. **partminer-matrix** — PartMiner for `k ∈ {2, 3, 4}` × serial /
//!    parallel against the gSpan reference: the same codes and the same
//!    supports in every cell — a unit result spares a pattern the
//!    canonical test, never the exact support. Serial and parallel merge
//!    stats fold to identical totals. The parallel legs all fan out over
//!    one run-wide work-stealing [`Executor`], so pool reuse across cases
//!    is exercised for free.
//! 5. **partition-invariants** — `DbPartition::check_invariants`, lossless
//!    graph recovery, the one-split law (each edge lands in exactly one
//!    side, or in both sides and the connective set), and the precomputed
//!    unit→node map against a linear scan of the tree.
//! 6. **incremental-verify** — IncPartMiner equals a from-scratch mine of
//!    the mirrored database; the UF/FI/IF classes partition the change
//!    space; the run-report counters reconcile with the returned sets.
//! 7. **coalesce-equivalence** — the serving daemon's ingest coalescer
//!    rewrites the update batch into a minimal window; applying the
//!    window must land on the *identical* database (and the same mined
//!    pattern set) as applying the raw batch, and the window must be
//!    rejected exactly when the raw batch would be.
//! 8. **fold-equivalence** — the serving daemon's delta fold keeps the
//!    border invariant: after the case's batch, and after each of four
//!    planned windows in a row, its `P(D)` and border equal a cold walk's
//!    of the new database exactly; a window the fold hands back is taken
//!    from the cold walk, as the daemon does.
//! 9. **serve** — a booted [`ServeEngine`] serves the reference set,
//!    answers support probes exactly (including from an old epoch's
//!    `Arc` after a swap), and swaps epochs once per batch.
//! 10. **window-equivalence** — a [`ServeEngine`] booted in sliding-window
//!     mode (`window: Some(N)`) and fed `M > N` deterministically planned
//!     update windows serves `patterns` and `support` exactly like a
//!     from-scratch mine of the base database with only the last `N`
//!     windows applied. The served epoch count and the
//!     `ingest_windows_expired` counter pin the expiry machinery itself:
//!     every admitted window and every synthesized expiry frame folds
//!     exactly once.
//! 11. **router-equivalence** — a planned two-shard fleet (real TCP
//!     servers on ephemeral ports) behind a scatter/gather [`Router`]
//!     answers `patterns` and `support` bit-identically to one
//!     single-process server over the whole database, before and after
//!     the case's update window goes through the router's three-phase
//!     epoch swap. A healthy fleet must never tag answers `partial`.

use graphmine_core::{
    fold_delta, touched_graphs, walk_with_border, Border, Executor, IncPartMiner, MergeContext,
    PartMiner, PartMinerConfig,
};
use graphmine_datagen::{plan_windows, UpdateKind, UpdateParams};
use graphmine_graph::{
    enumerate::{frequent_bruteforce, one_edge_deletions},
    iso,
    update::apply_all,
    Change, DfsCode, EmbeddingMode, Graph, GraphDb, GraphUpdate, PatternSet,
};
use graphmine_miner::{Apriori, GSpan, Gaston, MemoryMiner};
use graphmine_partition::{split_by_sides, Bipartitioner, Criteria, DbPartition, GraphPart};
use graphmine_router::{plan_shards, PlanConfig, Router, RouterConfig};
use graphmine_serve::protocol::Request;
use graphmine_serve::{coalesce_window, EngineConfig, ServeEngine, ServerConfig};
use graphmine_telemetry::{Counter, JsonValue, RunReport, Telemetry};

use crate::case::Case;

/// One failed check: which oracle tripped, and a message precise enough to
/// debug from (set sizes, the first disagreeing code, counter values).
#[derive(Debug, Clone)]
pub struct CheckFailure {
    /// Stable check identifier (used in repro files and CI summaries).
    pub check: &'static str,
    /// Human-readable diagnosis.
    pub message: String,
}

fn fail(check: &'static str, message: String) -> CheckFailure {
    CheckFailure { check, message }
}

/// Runs the whole battery on one case. The first failing check aborts the
/// case and is reported; a clean case returns `Ok(())`.
///
/// `exec` is the work-stealing pool the parallel PartMiner legs fan out
/// on; the runner builds one per oracle run and reuses it across every
/// case, so pool reuse itself is under test here.
pub fn run_case(case: &Case, exec: &Executor) -> Result<(), CheckFailure> {
    check_csr_invariants(case)?;
    let reference = GSpan::capped(case.max_edges).mine(&case.db, case.min_support);
    check_edge_rejection(case)?;
    check_reference_matrix(case, &reference)?;
    check_pattern_invariants(case, &reference)?;
    check_partminer_matrix(case, &reference, exec)?;
    check_partition_invariants(case)?;
    check_coalesce_equivalence(case)?;
    let mirror = validated_mirror(case);
    if let Some(mirror) = &mirror {
        check_incremental_verify(case, mirror)?;
    }
    check_fold_equivalence(case, &reference, mirror.as_ref())?;
    check_serve(case, &reference, mirror.as_ref())?;
    check_window_equivalence(case, &reference)?;
    check_router_equivalence(case, &reference, mirror.as_ref())?;
    Ok(())
}

/// The post-update database, or `None` when the batch is empty or not
/// applicable (a planned batch is always applicable; hand-written repro
/// files may carry anything).
fn validated_mirror(case: &Case) -> Option<GraphDb> {
    if case.updates.is_empty() {
        return None;
    }
    let mut mirror = case.db.clone();
    apply_all(&mut mirror, &case.updates).ok().map(|()| mirror)
}

fn zeros(db: &GraphDb) -> Vec<Vec<f64>> {
    db.iter().map(|(_, g)| vec![0.0; g.vertex_count()]).collect()
}

/// First code in `a` missing from `b`, or carrying a different support —
/// the payload of every set-mismatch message.
fn first_disagreement(a: &PatternSet, b: &PatternSet) -> String {
    let first = a.changes_to(b).find_map(|change| match change {
        Change::Unchanged(p, q) if p.support != q.support => {
            Some(format!("support of {:?}: {} vs {}", p.code, p.support, q.support))
        }
        Change::Unchanged(..) => None,
        Change::Lost(p) => {
            Some(format!("{:?} (support {}) missing from the other", p.code, p.support))
        }
        Change::Gained(p) => Some(format!("{:?} only in the other set", p.code)),
    });
    first.unwrap_or_else(|| "sets agree".to_string())
}

fn set_mismatch(
    check: &'static str,
    label: &str,
    got: &PatternSet,
    reference: &PatternSet,
) -> CheckFailure {
    fail(
        check,
        format!(
            "{label}: {} patterns vs reference {}; {}",
            got.len(),
            reference.len(),
            first_disagreement(got, reference)
        ),
    )
}

fn expect_same(
    check: &'static str,
    label: &str,
    got: &PatternSet,
    reference: &PatternSet,
) -> Result<(), CheckFailure> {
    if got.same_codes_and_supports(reference) {
        return Ok(());
    }
    Err(set_mismatch(check, label, got, reference))
}

/// Structural audit of the CSR representation: every database graph
/// (and, when the case carries updates, every post-update graph) must
/// satisfy [`Graph::check_invariants`] — a word block with nothing past
/// the edges, monotone offsets, per-vertex runs strictly sorted by
/// `(vlabel, elabel, to)`, and adjacency/edge mirroring. This is the check
/// that catches representation drift *before* it shows up as a wrong answer
/// in a downstream miner comparison.
fn check_csr_invariants(case: &Case) -> Result<(), CheckFailure> {
    const CHECK: &str = "csr-invariants";
    for (gid, g) in case.db.iter() {
        if let Err(e) = g.check_invariants() {
            return Err(fail(CHECK, format!("graph {gid}: {e}")));
        }
    }
    if let Some(mirror) = validated_mirror(case) {
        for (gid, g) in mirror.iter() {
            if let Err(e) = g.check_invariants() {
                return Err(fail(CHECK, format!("post-update graph {gid}: {e}")));
            }
        }
    }
    Ok(())
}

/// Metamorphic rejection: mutating a graph into a non-simple one must be
/// refused at every layer, and the refusal must not corrupt state.
fn check_edge_rejection(case: &Case) -> Result<(), CheckFailure> {
    const CHECK: &str = "edge-rejection";
    let Some((gid, g)) = case.db.iter().find(|(_, g)| g.edge_count() > 0) else {
        return Ok(());
    };
    let (_, u, v, el) = g.edges().next().expect("graph has an edge");

    let mut copy = g.clone();
    if copy.add_edge(u, u, el).is_ok() {
        return Err(fail(CHECK, format!("graph {gid}: self-loop {u}-{u} was accepted")));
    }
    if copy.add_edge(v, u, el + 1).is_ok() {
        return Err(fail(CHECK, format!("graph {gid}: duplicate edge {v}-{u} was accepted")));
    }

    let uf = zeros(&case.db);
    let mut part = DbPartition::build(&case.db, &uf, &GraphPart::new(Criteria::COMBINED), 2);
    for (what, update) in [
        ("self-loop", GraphUpdate::AddEdge { u, v: u, label: el }),
        ("duplicate edge", GraphUpdate::AddEdge { u: v, v: u, label: el + 1 }),
    ] {
        if part.apply_update(graphmine_graph::DbUpdate { gid, update }).is_ok() {
            return Err(fail(CHECK, format!("partition accepted a {what} update on graph {gid}")));
        }
    }
    part.check_invariants()
        .map_err(|e| fail(CHECK, format!("partition corrupted by rejected updates: {e}")))
}

fn check_reference_matrix(case: &Case, reference: &PatternSet) -> Result<(), CheckFailure> {
    const CHECK: &str = "reference-matrix";
    let (db, sup, cap) = (&case.db, case.min_support, case.max_edges);

    let gaston = Gaston::capped(cap).mine(db, sup);
    expect_same(CHECK, "Gaston vs gSpan", &gaston, reference)?;

    for lists in [EmbeddingMode::Off, EmbeddingMode::On] {
        let apriori = Apriori { max_edges: Some(cap), embedding_lists: lists }.mine(db, sup);
        expect_same(CHECK, &format!("Apriori (lists {lists}) vs gSpan"), &apriori, reference)?;
    }

    if db.len() <= 10 && db.total_edges() <= 60 && sup >= 1 {
        let brute = frequent_bruteforce(db, sup, cap);
        expect_same(CHECK, "brute-force enumeration vs gSpan", &brute, reference)?;
    }
    Ok(())
}

fn check_pattern_invariants(_case: &Case, reference: &PatternSet) -> Result<(), CheckFailure> {
    const CHECK: &str = "pattern-invariants";
    for p in reference.iter() {
        for l in 1..p.code.len() {
            let prefix = DfsCode(p.code.0[..l].to_vec());
            if !graphmine_graph::dfscode::is_min(&prefix) {
                return Err(fail(
                    CHECK,
                    format!("prefix {prefix:?} of minimal code {:?} is not minimal", p.code),
                ));
            }
        }
        // Anti-monotonicity: every connected one-edge-deletion parent is at
        // least as frequent, hence also in the reported set.
        for parent in one_edge_deletions(&p.graph) {
            match reference.support(&parent) {
                None => {
                    return Err(fail(
                        CHECK,
                        format!(
                            "parent {parent:?} of frequent {:?} (support {}) is not reported",
                            p.code, p.support
                        ),
                    ));
                }
                Some(ps) if ps < p.support => {
                    return Err(fail(
                        CHECK,
                        format!(
                            "anti-monotonicity violated: {parent:?} support {ps} < child {:?} \
                             support {}",
                            p.code, p.support
                        ),
                    ));
                }
                Some(_) => {}
            }
        }
    }
    Ok(())
}

fn check_partminer_matrix(
    case: &Case,
    reference: &PatternSet,
    exec: &Executor,
) -> Result<(), CheckFailure> {
    const CHECK: &str = "partminer-matrix";
    let uf = zeros(&case.db);
    for k in [2usize, 3, 4] {
        let miner = || {
            let mut cfg = PartMinerConfig::with_k(k);
            cfg.max_edges = Some(case.max_edges);
            PartMiner::new(cfg)
        };
        let serial = miner().mine(&case.db, &uf, case.min_support);
        // The parallel leg fans out over the run-wide shared pool — the
        // same `Executor` every other case (and every other `k`) uses, so
        // a pool poisoned or corrupted by an earlier batch would surface
        // here.
        let parallel = miner().mine_on(&case.db, &uf, case.min_support, exec, &Telemetry::new());
        for (schedule, outcome) in [("serial", &serial), ("parallel", &parallel)] {
            let label = format!("PartMiner k={k} {schedule} vs gSpan");
            expect_same(CHECK, &label, &outcome.patterns, reference)?;
        }
        if serial.stats.merge != parallel.stats.merge {
            return Err(fail(
                CHECK,
                format!(
                    "PartMiner k={k}: merge stats diverge between schedules: {:?} vs {:?}",
                    serial.stats.merge, parallel.stats.merge
                ),
            ));
        }
    }

    // Counter reconciliation on one instrumented run: the run report must
    // account for exactly one unit mine per partition unit.
    let tel = Telemetry::new();
    let mut cfg = PartMinerConfig::with_k(2);
    cfg.max_edges = Some(case.max_edges);
    let outcome = PartMiner::new(cfg).mine_instrumented(&case.db, &uf, case.min_support, &tel);
    let report = RunReport::capture("oracle-partminer", &tel);
    let units = outcome.state.partition.unit_count() as u64;
    if report.counter(Counter::UnitsMined) != units {
        return Err(fail(
            CHECK,
            format!(
                "run report counts {} unit mines, partition has {units} units",
                report.counter(Counter::UnitsMined)
            ),
        ));
    }
    Ok(())
}

fn check_partition_invariants(case: &Case) -> Result<(), CheckFailure> {
    const CHECK: &str = "partition-invariants";
    let uf = zeros(&case.db);
    let partitioner = GraphPart::new(Criteria::COMBINED);
    for k in [2usize, 3] {
        let part = DbPartition::build(&case.db, &uf, &partitioner, k);
        part.check_invariants().map_err(|e| fail(CHECK, format!("k={k}: {e}")))?;
        for (gid, g) in case.db.iter() {
            let recovered = part.recovered_graph(gid);
            if let Err(e) = same_graph(g, &recovered) {
                return Err(fail(CHECK, format!("k={k} graph {gid} not recovered: {e}")));
            }
        }
        // The O(1) unit→node map must agree with the linear tree scan it
        // replaced in the mining and incremental paths.
        for j in 0..part.unit_count() {
            let scanned = (0..part.node_count()).find(|&n| part.node(n).unit == Some(j));
            if scanned != Some(part.unit_node_id(j)) {
                return Err(fail(
                    CHECK,
                    format!(
                        "k={k}: unit {j} maps to node {}, the tree scan finds {scanned:?}",
                        part.unit_node_id(j)
                    ),
                ));
            }
        }
    }

    // One-split law on the raw bi-partitioner output: every edge is in
    // exactly one side, or in both sides and the connective set.
    for (gid, g) in case.db.iter() {
        let per_graph = &uf[gid as usize];
        let sides = partitioner.sides(g, per_graph);
        let split = split_by_sides(g, &sides);
        for (eid, u, v, _) in g.edges() {
            let in1 = split.side1.edge_map().contains(&eid);
            let in2 = split.side2.edge_map().contains(&eid);
            let conn = split.connective.contains(&eid);
            let ok = if conn { in1 && in2 } else { in1 ^ in2 };
            if !ok {
                return Err(fail(
                    CHECK,
                    format!(
                        "graph {gid} edge {eid} ({u}-{v}): side1={in1} side2={in2} \
                         connective={conn} violates the one-split law"
                    ),
                ));
            }
        }
    }
    Ok(())
}

/// Structural equality on original vertex/edge ids (label-preserving, both
/// edge orientations accepted).
fn same_graph(a: &Graph, b: &Graph) -> Result<(), String> {
    if a.vertex_count() != b.vertex_count() {
        return Err(format!("vertex count {} vs {}", a.vertex_count(), b.vertex_count()));
    }
    if a.edge_count() != b.edge_count() {
        return Err(format!("edge count {} vs {}", a.edge_count(), b.edge_count()));
    }
    for v in 0..a.vertex_count() as u32 {
        if a.vlabel(v) != b.vlabel(v) {
            return Err(format!("vertex {v} label {} vs {}", a.vlabel(v), b.vlabel(v)));
        }
    }
    for (eid, u, v, el) in a.edges() {
        let (bu, bv, bl) = b.edge(eid);
        if bl != el || (bu, bv) != (u, v) && (bv, bu) != (u, v) {
            return Err(format!("edge {eid}: {u}-{v} label {el} vs {bu}-{bv} label {bl}"));
        }
    }
    Ok(())
}

fn check_incremental_verify(case: &Case, mirror: &GraphDb) -> Result<(), CheckFailure> {
    const CHECK: &str = "incremental-verify";
    let uf = graphmine_datagen::ufreq_from_updates(&case.db, &case.updates);
    for k in [2usize, 3] {
        let mut cfg = PartMinerConfig::with_k(k);
        cfg.max_edges = Some(case.max_edges);
        let outcome = PartMiner::new(cfg).mine(&case.db, &uf, case.min_support);
        let old_pd = outcome.patterns;
        let mut state = outcome.state;

        let tel = Telemetry::new();
        let inc = IncPartMiner::update_instrumented(&mut state, &case.updates, &tel)
            .map_err(|e| fail(CHECK, format!("k={k}: applicable batch rejected: {e}")))?;

        let direct = GSpan::capped(case.max_edges).mine(mirror, case.min_support);
        expect_same(CHECK, &format!("k={k} incremental vs from-scratch"), &inc.patterns, &direct)?;

        // UF ∪ IF partitions the new result; FI is exactly the loss.
        let classes_ok = inc.uf.len() + inc.if_new.len() == inc.patterns.len()
            && inc.uf.iter().all(|p| old_pd.contains(&p.code) && inc.patterns.contains(&p.code))
            && inc.if_new.iter().all(|p| !old_pd.contains(&p.code))
            && inc.fi.iter().all(|p| old_pd.contains(&p.code) && !inc.patterns.contains(&p.code))
            && old_pd.difference(&inc.patterns).len() == inc.fi.len();
        if !classes_ok {
            return Err(fail(
                CHECK,
                format!(
                    "k={k}: UF({}) ∪ IF({}) ∪ FI({}) does not partition the change space \
                     (old {} new {})",
                    inc.uf.len(),
                    inc.if_new.len(),
                    inc.fi.len(),
                    old_pd.len(),
                    inc.patterns.len()
                ),
            ));
        }

        // The run report must reconcile with the returned sets.
        let report = RunReport::capture("oracle-incremental", &tel);
        for (counter, expect) in [
            (Counter::IncUnchangedFrequent, inc.uf.len() as u64),
            (Counter::IncFrequentToInfrequent, inc.fi.len() as u64),
            (Counter::IncInfrequentToFrequent, inc.if_new.len() as u64),
            (Counter::UnitsMined, inc.stats.units_remined as u64),
        ] {
            if report.counter(counter) != expect {
                return Err(fail(
                    CHECK,
                    format!(
                        "k={k}: counter {} = {} does not reconcile with returned sets ({expect})",
                        counter.name(),
                        report.counter(counter)
                    ),
                ));
            }
        }
    }
    Ok(())
}

/// Differential check of the ingest coalescer: applying the coalesced
/// window and applying the raw batch must be indistinguishable — same
/// acceptance verdict, identical database graph by graph, and (as a
/// belt-and-braces pass through the mining stack) the same mined
/// pattern set.
fn check_coalesce_equivalence(case: &Case) -> Result<(), CheckFailure> {
    const CHECK: &str = "coalesce-equivalence";
    if case.updates.is_empty() {
        return Ok(());
    }
    let window = coalesce_window(&case.db, &case.updates);
    let mut raw = case.db.clone();
    let raw_verdict = apply_all(&mut raw, &case.updates);
    let mut co = case.db.clone();
    let co_verdict = apply_all(&mut co, &window);
    match (&raw_verdict, &co_verdict) {
        (Ok(()), Ok(())) => {}
        (Err(_), Err(_)) => return Ok(()), // both rejected: verdicts agree
        (Ok(()), Err(e)) => {
            return Err(fail(
                CHECK,
                format!("coalesced window rejected ({e}) but the raw batch applies"),
            ));
        }
        (Err(e), Ok(())) => {
            return Err(fail(
                CHECK,
                format!("raw batch rejected ({e}) but the coalesced window applies"),
            ));
        }
    }
    for (gid, g) in raw.iter() {
        if let Err(e) = same_graph(g, co.graph(gid)) {
            return Err(fail(
                CHECK,
                format!(
                    "graph {gid} diverges after coalescing ({} raw ops -> {} window ops): {e}",
                    case.updates.len(),
                    window.len()
                ),
            ));
        }
    }
    let mined_raw = GSpan::capped(case.max_edges).mine(&raw, case.min_support);
    let mined_co = GSpan::capped(case.max_edges).mine(&co, case.min_support);
    expect_same(CHECK, "mined coalesced-applied vs raw-applied", &mined_co, &mined_raw)
}

/// Differential check of the daemon's delta fold against a cold walk, the
/// border invariant of `graphmine_core::fold`: folded from the base, the
/// case's batch (when it applies) and a stream of four planned windows
/// must each leave `P(D)` and the border exactly as a cold walk of the new
/// database returns them. The windows are planned from the case alone, so
/// a repro file replays them.
fn check_fold_equivalence(
    case: &Case,
    reference: &PatternSet,
    mirror: Option<&GraphDb>,
) -> Result<(), CheckFailure> {
    const CHECK: &str = "fold-equivalence";
    // Same uncapped-walk guards as the serve check.
    if case.min_support < 2
        || case.db.is_empty()
        || case.db.total_edges() > 120
        || reference.max_size() >= case.max_edges
    {
        return Ok(());
    }
    let params = UpdateParams::new(0.3, 2, UpdateKind::Mixed, 6)
        .with_seed(case.seed ^ 0x51ED_270B_27C4_3A5F);
    let mut planned = Vec::new();
    let mut db = case.db.clone();
    for w in plan_windows(&case.db, &params, 4) {
        if apply_all(&mut db, &w).is_err() {
            break;
        }
        planned.push(db.clone());
    }
    let streams = [mirror.into_iter().cloned().collect(), planned];
    let ctx = |db| MergeContext {
        db,
        min_support: case.min_support,
        max_edges: None,
        executor: None,
        telemetry: None,
    };
    let cold = |db| walk_with_border(&ctx(db));
    for (stream, dbs) in ["the case's batch", "planned window"].into_iter().zip(&streams) {
        let (mut prev, (mut patterns, mut border)) = (&case.db, cold(&case.db));
        for (i, next) in dbs.iter().enumerate() {
            let truth = cold(next);
            if truth.0.max_size() >= case.max_edges {
                break; // the cap would bind after this window; stop here
            }
            let touched = touched_graphs(prev, next);
            (patterns, border) = match fold_delta(&ctx(next), prev, &touched, &patterns, border) {
                Some((p, b)) => {
                    let label = format!("{stream} {i}: delta-folded P(D) vs a cold walk");
                    expect_same(CHECK, &label, &p, &truth.0)?;
                    if b != truth.1 {
                        return Err(fail(
                            CHECK,
                            format!(
                                "{stream} {i}: border {}",
                                first_border_disagreement(&b, &truth.1)
                            ),
                        ));
                    }
                    (p, b)
                }
                None => truth,
            };
            prev = next;
        }
    }
    Ok(())
}

/// The first border entry or edge support two borders disagree on.
fn first_border_disagreement(got: &Border, cold: &Border) -> String {
    let entry = got.children().iter().zip(cold.children()).find(|(a, b)| a != b);
    if let Some((a, b)) = entry {
        return format!(
            "entry {:?} (support {}) where a cold walk has {:?} (support {})",
            a.0, a.1, b.0, b.1
        );
    }
    if got.children().len() != cold.children().len() {
        return format!(
            "{} entries where a cold walk has {}",
            got.children().len(),
            cold.children().len()
        );
    }
    let edge = got.edges().iter().find(|&(t, s)| cold.edges().get(t) != Some(s));
    match edge.or_else(|| cold.edges().iter().find(|&(t, _)| !got.edges().contains_key(t))) {
        Some((t, _)) => format!(
            "edge {t:?} at support {:?} where a cold walk has {:?}",
            got.edges().get(t),
            cold.edges().get(t)
        ),
        None => "edge supports agree".to_string(),
    }
}

fn check_serve(
    case: &Case,
    reference: &PatternSet,
    mirror: Option<&GraphDb>,
) -> Result<(), CheckFailure> {
    const CHECK: &str = "serve";
    // The engine walks its database uncapped at θ: only run it where the
    // cap is provably not binding, and not at θ = 1, where the walk itself
    // enumerates every connected subgraph of every graph.
    if case.min_support < 2
        || case.db.is_empty()
        || case.db.total_edges() > 120
        || reference.max_size() >= case.max_edges
    {
        return Ok(());
    }
    let dir = tempfile::tempdir()
        .map_err(|e| fail(CHECK, format!("cannot create a scratch dir: {e}")))?;
    let cfg = EngineConfig { min_support: case.min_support, ..EngineConfig::default() };
    let (engine, boot) = ServeEngine::boot(Some(&case.db), dir.path(), &cfg)
        .map_err(|e| fail(CHECK, format!("boot failed: {e}")))?;
    if boot.epoch != 0 {
        return Err(fail(CHECK, format!("fresh boot starts at epoch {}", boot.epoch)));
    }
    let ep0 = engine.current();
    expect_same(CHECK, "served P(D) vs gSpan", &ep0.patterns, reference)?;

    // Support probes: frequent patterns, and one absent edge.
    for p in reference.iter().take(2) {
        let (support, source) = engine.support_of(&ep0, &p.graph);
        if support != p.support {
            return Err(fail(
                CHECK,
                format!(
                    "support probe for {:?}: served {support} (from {source:?}), mined {}",
                    p.code, p.support
                ),
            ));
        }
    }
    let absent = {
        let mut g = Graph::new();
        g.add_vertex(0);
        g.add_vertex(1);
        g.add_edge(0, 1, 1_000_000).expect("fresh edge");
        g
    };
    let (support, _) = engine.support_of(&ep0, &absent);
    if support != 0 {
        return Err(fail(CHECK, format!("absent pattern served with support {support}")));
    }

    let Some(mirror) = mirror else { return Ok(()) };
    let direct = GSpan::capped(case.max_edges).mine(mirror, case.min_support);
    if direct.max_size() >= case.max_edges {
        return Ok(()); // cap would bind after the update; stop here
    }
    let probe = reference.iter().next().map(|p| (p.graph.clone(), p.support));
    let summary = engine
        .apply_update(&case.updates)
        .map_err(|e| fail(CHECK, format!("applicable batch rejected: {e}")))?;
    if summary.seq != 1 {
        return Err(fail(CHECK, format!("first batch acked with seq {}", summary.seq)));
    }
    let ep1 = engine.current();
    if ep1.epoch != 1 {
        return Err(fail(CHECK, format!("epoch after one batch is {}", ep1.epoch)));
    }
    expect_same(CHECK, "served P(D') vs from-scratch gSpan", &ep1.patterns, &direct)?;
    if summary.pattern_count != ep1.patterns.len() {
        return Err(fail(
            CHECK,
            format!(
                "update summary claims {} patterns, epoch serves {}",
                summary.pattern_count,
                ep1.patterns.len()
            ),
        ));
    }
    let report = RunReport::capture("oracle-serve", engine.telemetry());
    if report.counter(Counter::EpochSwaps) != 1 {
        return Err(fail(
            CHECK,
            format!("{} epoch swaps recorded for one batch", report.counter(Counter::EpochSwaps)),
        ));
    }

    // New-epoch probes answer from the new data; the old epoch's Arc must
    // still answer from its own generation (the memo is epoch-keyed).
    for p in direct.iter().take(2) {
        let (support, _) = engine.support_of(&ep1, &p.graph);
        if support != p.support {
            return Err(fail(
                CHECK,
                format!(
                    "post-update probe for {:?}: served {support}, mined {}",
                    p.code, p.support
                ),
            ));
        }
    }
    if let Some((graph, old_support)) = probe {
        let (support, _) = engine.support_of(&ep0, &graph);
        if support != old_support {
            return Err(fail(
                CHECK,
                format!(
                    "old epoch answered {support} after the swap, its generation had {old_support}"
                ),
            ));
        }
        let code = graphmine_graph::dfscode::min_dfs_code(&graph);
        let truth = iso::support(mirror, &code);
        let (support, _) = engine.support_of(&ep1, &graph);
        if support != truth {
            return Err(fail(
                CHECK,
                format!(
                    "new epoch answered {support} for the probe, isomorphism search says {truth}"
                ),
            ));
        }
    }
    Ok(())
}

/// Differential check of the sliding-window serving mode: a
/// [`ServeEngine`] booted with `window: Some(N)` and fed `M > N` update
/// windows must answer `patterns` and `support` exactly like a
/// from-scratch mine of the base database with only the last `N`
/// windows applied — the older windows have expired past the retention
/// horizon and their effects must be fully unwound.
///
/// The window stream is derived deterministically from the case alone
/// ([`plan_windows`] seeded from `case.seed`; base-entity-only ops), so
/// a repro file replays the identical stream. The expiry machinery
/// itself is pinned twice over: the served epoch must count one fold per
/// admitted window *and* per synthesized expiry frame, and the
/// `ingest_windows_expired` counter must equal `M - N`.
fn check_window_equivalence(case: &Case, reference: &PatternSet) -> Result<(), CheckFailure> {
    const CHECK: &str = "window-equivalence";
    const WINDOWS: usize = 4;
    const RETAIN: usize = 2;
    // Same uncapped-mining guards as the serve check (θ = 1 is the
    // enumerate-everything walk).
    if case.min_support < 2
        || case.db.is_empty()
        || case.db.total_edges() > 120
        || reference.max_size() >= case.max_edges
    {
        return Ok(());
    }
    let params = UpdateParams::new(0.3, 2, UpdateKind::Mixed, 6)
        .with_seed(case.seed ^ 0x9E37_79B9_7F4A_7C15);
    let windows = plan_windows(&case.db, &params, WINDOWS);
    if windows.iter().any(Vec::is_empty) {
        return Ok(()); // degenerate database (all-empty graphs): nothing to stream
    }
    // The expected end state: base plus the last RETAIN windows, in order.
    // Planned windows only target base entities, so any suffix applies
    // cleanly no matter which prefix the server has expired.
    let mut live = case.db.clone();
    for w in &windows[WINDOWS - RETAIN..] {
        apply_all(&mut live, w)
            .map_err(|e| fail(CHECK, format!("planned window does not apply to base: {e}")))?;
    }
    let direct = GSpan::capped(case.max_edges).mine(&live, case.min_support);
    if direct.max_size() >= case.max_edges {
        return Ok(()); // cap would bind on the live set; stop here
    }

    let dir = tempfile::tempdir()
        .map_err(|e| fail(CHECK, format!("cannot create a scratch dir: {e}")))?;
    let cfg = EngineConfig {
        min_support: case.min_support,
        window: Some(RETAIN),
        ..EngineConfig::default()
    };
    let (engine, boot) = ServeEngine::boot(Some(&case.db), dir.path(), &cfg)
        .map_err(|e| fail(CHECK, format!("boot failed: {e}")))?;
    if boot.epoch != 0 {
        return Err(fail(CHECK, format!("fresh boot starts at epoch {}", boot.epoch)));
    }
    for (i, w) in windows.iter().enumerate() {
        engine
            .apply_update(w)
            .map_err(|e| fail(CHECK, format!("window {i} rejected in windowed mode: {e}")))?;
    }
    // Expiry frames fold on the applier thread after the triggering
    // window's ack; drain them before reading the served epoch.
    for _ in 0..1000 {
        if engine.pending_windows() == 0 {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(2));
    }
    if engine.pending_windows() != 0 {
        return Err(fail(CHECK, "expiry frames did not drain".to_string()));
    }
    let ep = engine.current();
    let frames = (WINDOWS + WINDOWS - RETAIN) as u64;
    if ep.epoch != frames {
        return Err(fail(
            CHECK,
            format!(
                "served epoch is {} after {WINDOWS} windows at retention {RETAIN} \
                 ({frames} expected: every admitted window and every expiry frame \
                 folds exactly once)",
                ep.epoch
            ),
        ));
    }
    expect_same(CHECK, "served windowed P vs gSpan over base+last-N", &ep.patterns, &direct)?;
    for p in direct.iter().take(2) {
        let (support, source) = engine.support_of(&ep, &p.graph);
        if support != p.support {
            return Err(fail(
                CHECK,
                format!(
                    "windowed support probe for {:?}: served {support} (from {source:?}), mined {}",
                    p.code, p.support
                ),
            ));
        }
    }
    let report = RunReport::capture("oracle-window", engine.telemetry());
    let expired = report.counter(Counter::IngestWindowsExpired);
    if expired != (WINDOWS - RETAIN) as u64 {
        return Err(fail(
            CHECK,
            format!(
                "{expired} windows expired for a {WINDOWS}-window stream at retention {RETAIN}"
            ),
        ));
    }
    Ok(())
}

/// Differential check of the sharded serving tier: a planned two-shard
/// fleet — real `ServeEngine`s behind real sockets, each holding only its
/// owned graphs and mining them at the pigeonhole-lowered threshold —
/// fronted by a scatter/gather [`Router`] must answer exactly like one
/// single-process server over the whole database. `patterns` (the SON two-phase query)
/// and `support` are compared before and after the case's update window
/// is routed through the three-phase epoch swap; a healthy fleet must
/// never tag an answer `"partial"`.
fn check_router_equivalence(
    case: &Case,
    reference: &PatternSet,
    mirror: Option<&GraphDb>,
) -> Result<(), CheckFailure> {
    const CHECK: &str = "router-equivalence";
    // Same uncapped-mining guards as the serve check, for the shards too:
    // each walks its database at ceil(s / 2), with no further halving, so
    // s >= 3 keeps every shard off the enumerate-everything θ = 1.
    if case.min_support < 3
        || case.db.is_empty()
        || case.db.total_edges() > 120
        || reference.max_size() >= case.max_edges
    {
        return Ok(());
    }

    let plan_cfg = PlanConfig { n_shards: 2, min_support: case.min_support, ..Default::default() };
    let plan =
        plan_shards(&case.db, &plan_cfg).map_err(|e| fail(CHECK, format!("planning: {e}")))?;
    let mut topo = plan.topology;

    // Boot the shards on ephemeral ports and point the topology at them.
    let mut fleet = Vec::with_capacity(topo.n_shards());
    for (s, sdb) in plan.shard_dbs.iter().enumerate() {
        let dir = tempfile::tempdir()
            .map_err(|e| fail(CHECK, format!("cannot create a scratch dir: {e}")))?;
        let cfg = EngineConfig {
            min_support: topo.local_min_support,
            owned: Some(topo.shards[s].owned.clone()),
            ..EngineConfig::default()
        };
        let (engine, _) = ServeEngine::boot(Some(sdb), dir.path(), &cfg)
            .map_err(|e| fail(CHECK, format!("shard {s} boot: {e}")))?;
        let server_cfg = ServerConfig { addr: "127.0.0.1:0".to_string(), ..Default::default() };
        let handle = graphmine_serve::start(std::sync::Arc::new(engine), &server_cfg)
            .map_err(|e| fail(CHECK, format!("shard {s} start: {e}")))?;
        topo.shards[s].replicas = vec![handle.addr().to_string()];
        fleet.push((dir, handle));
    }
    let router =
        Router::new(topo, RouterConfig::default()).map_err(|e| fail(CHECK, e.to_string()))?;

    // The single-process truth: one engine over the whole database at the
    // global threshold.
    let ref_dir = tempfile::tempdir()
        .map_err(|e| fail(CHECK, format!("cannot create a scratch dir: {e}")))?;
    let ref_cfg = EngineConfig { min_support: case.min_support, ..EngineConfig::default() };
    let (ref_engine, _) = ServeEngine::boot(Some(&case.db), ref_dir.path(), &ref_cfg)
        .map_err(|e| fail(CHECK, format!("reference boot: {e}")))?;

    let rows = |reply: &JsonValue| -> Vec<(u64, String)> {
        reply
            .field("patterns")
            .and_then(JsonValue::as_arr)
            .unwrap_or(&[])
            .iter()
            .map(|p| {
                (
                    p.field("support").and_then(JsonValue::as_num).unwrap_or(0),
                    p.field("code").map(JsonValue::to_json).unwrap_or_default(),
                )
            })
            .collect()
    };
    let compare = |phase: &str| -> Result<(), CheckFailure> {
        let got = router.handle(&Request::Patterns { top: usize::MAX, min_support: None });
        if got.field("status").and_then(JsonValue::as_str) != Some("ok") {
            return Err(fail(CHECK, format!("{phase}: router patterns failed: {}", got.to_json())));
        }
        if got.field("partial").is_some() {
            return Err(fail(CHECK, format!("{phase}: healthy fleet tagged patterns partial")));
        }
        // The cache leg: the identical query again must be served from
        // the epoch-keyed result cache, byte-identical to the computed
        // answer (the default RouterConfig runs with the cache on).
        let again = router.handle(&Request::Patterns { top: usize::MAX, min_support: None });
        if again.to_json() != got.to_json() {
            return Err(fail(
                CHECK,
                format!(
                    "{phase}: cached patterns answer diverges from the computed one:\n{}\nvs\n{}",
                    again.to_json(),
                    got.to_json()
                ),
            ));
        }
        let want = ref_engine.handle(&Request::Patterns { top: usize::MAX, min_support: None });
        let (got_rows, want_rows) = (rows(&got), rows(&want));
        if got_rows != want_rows {
            let diverge = got_rows
                .iter()
                .zip(&want_rows)
                .find(|(a, b)| a != b)
                .map(|(a, b)| format!("first divergence {a:?} vs {b:?}"))
                .unwrap_or_else(|| "one is a prefix of the other".to_string());
            return Err(fail(
                CHECK,
                format!(
                    "{phase}: gathered {} patterns, single-process serves {}; {diverge}",
                    got_rows.len(),
                    want_rows.len()
                ),
            ));
        }
        let total = |r: &JsonValue| r.field("total").and_then(JsonValue::as_num);
        if total(&got) != total(&want) {
            return Err(fail(
                CHECK,
                format!("{phase}: totals diverge: {:?} vs {:?}", total(&got), total(&want)),
            ));
        }
        // Support probes through the gather path (sums over the shards).
        for p in reference.iter().take(3) {
            let probe = router.support(&p.graph);
            let got_sup = probe.field("support").and_then(JsonValue::as_num);
            let truth = ref_engine.support_of(&ref_engine.current(), &p.graph).0;
            if probe.field("partial").is_some() || got_sup != Some(u64::from(truth)) {
                return Err(fail(
                    CHECK,
                    format!(
                        "{phase}: gathered support {got_sup:?} for {:?}, single-process says \
                         {truth} ({})",
                        p.code,
                        probe.to_json()
                    ),
                ));
            }
        }
        Ok(())
    };

    compare("fresh fleet")?;
    // Each compare phase repeats the patterns query once, so the cache
    // must have answered at least one hit by now — and every hit above
    // passed the byte-identity gate.
    if router.telemetry().counters().get(Counter::RouterCacheHits) == 0 {
        return Err(fail(CHECK, "repeated patterns query never hit the result cache".to_string()));
    }

    // Route the case's window through the 2PC path and re-compare.
    let Some(mirror) = mirror else { return Ok(()) };
    let direct = GSpan::capped(case.max_edges).mine(mirror, case.min_support);
    if direct.max_size() >= case.max_edges {
        return Ok(()); // cap would bind after the update; stop here
    }
    let reply = router.update(&case.updates, false);
    if reply.field("status").and_then(JsonValue::as_str) != Some("ok") {
        return Err(fail(CHECK, format!("routed update failed: {}", reply.to_json())));
    }
    if reply.field("partial").is_some() || router.global_epoch() != 1 {
        return Err(fail(
            CHECK,
            format!(
                "routed update did not commit cleanly (global epoch {}): {}",
                router.global_epoch(),
                reply.to_json()
            ),
        ));
    }
    ref_engine
        .apply_update(&case.updates)
        .map_err(|e| fail(CHECK, format!("reference rejected the routed window: {e}")))?;
    compare("post-update")
}
