//! Mutation testing of the oracle itself: re-introduce known bug classes
//! at runtime (the `fault-injection` hooks in `graphmine_graph::fault`)
//! and require that the oracle (a) flags each one, (b) writes a repro
//! file, (c) keeps failing when the repro is replayed with the mutant
//! still armed, and (d) passes the very same repro once disarmed.
//!
//! The fault registry is process-global (the mining pipeline spawns
//! threads), so every test takes `FAULT_LOCK` for its whole body.

use std::path::PathBuf;
use std::sync::Mutex;

use graphmine_core::Executor;
use graphmine_graph::fault::{arm, Fault};
use graphmine_graph::{DbUpdate, Graph, GraphDb, GraphUpdate};
use graphmine_oracle::{generate_case, replay_file, run, run_single, Case, OracleConfig};

static FAULT_LOCK: Mutex<()> = Mutex::new(());

/// Arms `fault`, runs a small seeded batch, and requires a detected
/// failure whose repro file fails armed and passes disarmed. Returns the
/// check that tripped first.
fn assert_detected_by_batch(fault: Fault) -> String {
    let _lock = FAULT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let dir = tempfile::tempdir().unwrap();
    let cfg = OracleConfig {
        seed: 42,
        cases: 8,
        quick: true,
        out_dir: Some(dir.path().to_path_buf()),
        ..OracleConfig::default()
    };
    let exec = cfg.executor().expect("default thread budget resolves");

    let guard = arm(fault);
    let summary = run(&cfg);
    assert!(
        !summary.ok(),
        "armed mutant {fault:?} survived {} oracle cases undetected",
        summary.cases
    );
    let repro: PathBuf = summary.failures[0]
        .repro
        .clone()
        .unwrap_or_else(|| panic!("no repro written for {:?}", summary.failures[0]));
    assert!(
        replay_file(&repro, &exec).is_err(),
        "repro {} stopped failing while the mutant is still armed",
        repro.display()
    );
    drop(guard);

    replay_file(&repro, &exec).unwrap_or_else(|f| {
        panic!("repro {} fails disarmed [{}]: {}", repro.display(), f.check, f.message)
    });
    summary.failures[0].check.clone()
}

#[test]
fn dfs_tie_break_mutant_is_detected() {
    assert_detected_by_batch(Fault::DfsTieBreak);
}

#[test]
fn drop_connective_edge_mutant_is_detected() {
    assert_detected_by_batch(Fault::DropConnectiveEdge);
}

/// Representation drift: [`Fault::CsrDrift`] leaves per-vertex CSR runs
/// unsorted where run order is made — the bulk build's per-run sort and
/// the sorted insert behind `add_edge` — silently voiding the
/// binary-search contracts of `edge_between` and `neighbor_range`. Oracle
/// cases are built edge by edge and replayed repros in bulk, so each site
/// is what the batch, and its replay, catch. The `csr-invariants` check
/// must flag it before any miner comparison can be poisoned by it.
#[test]
fn csr_drift_mutant_is_detected() {
    assert_detected_by_batch(Fault::CsrDrift);
}

/// The extension kernel is shared by gSpan — the oracle's reference — and
/// PartMiner's merge-join, so a kernel that drops cycle-closing extensions
/// makes reference and subject wrong *together*. The miners that do not
/// use it (Gaston, search-mode Apriori, brute force) must give it away in
/// `reference-matrix`.
#[test]
fn drop_backward_child_mutant_is_detected() {
    assert_eq!(assert_detected_by_batch(Fault::DropBackwardChild), "reference-matrix");
}

/// The walk must run the canonical-code test on every child it counted
/// frequent; without it patterns are reported again under non-minimal
/// codes. gSpan is that walk, so the reference itself carries the
/// duplicates, and `reference-matrix` sees them as codes Gaston, Apriori
/// and brute force do not have — before `partminer-matrix` compares
/// PartMiner with the equally wrong reference.
#[test]
fn skip_walk_min_check_mutant_is_detected() {
    assert_eq!(assert_detected_by_batch(Fault::SkipWalkMinCheck), "reference-matrix");
}

/// The walk's O(1) pre-check, off by one: it rejects a child whose new
/// edge ties the first edge too, so minimal patterns that repeat their first
/// edge's labels vanish with their subtrees. gSpan loses them as PartMiner
/// does; Gaston, Apriori and brute force do not walk, so `reference-matrix`
/// sees the codes they have and the reference lacks.
#[test]
fn precheck_rejects_minimal_mutant_is_detected() {
    assert_eq!(assert_detected_by_batch(Fault::PrecheckRejectsMinimal), "reference-matrix");
}

/// The edge-triple screen in front of the embedding search, counting each
/// triple at most once per graph: a code that needs two edges of one
/// triple prunes every graph, its supporters included. Search-mode Apriori
/// counts every candidate through that screen, so it loses such patterns
/// while gSpan, Gaston and brute force keep them, and `reference-matrix`
/// sees the difference.
#[test]
fn screen_counts_once_mutant_is_detected() {
    assert_eq!(assert_detected_by_batch(Fault::ScreenCountsOnce), "reference-matrix");
}

/// The removed lower-bound-supports mode, back as a mutant: the walk
/// reports a unit-shortcut hit with the unit's lower bound instead of the
/// exact support it holds. Codes stay right, and gSpan knows no codes in
/// advance, so only `partminer-matrix`'s support comparison against gSpan
/// can see it.
#[test]
fn report_unit_bound_mutant_is_detected() {
    assert_eq!(assert_detected_by_batch(Fault::ReportUnitBound), "partminer-matrix");
}

/// A database engineered so that the path `(0)-5-(1)-6-(2)` sits, three
/// graphs strong, inside unit 0 — at `min_support` 3 that unit's word alone
/// accepts it at the root — and one relabel batch takes it out of two of
/// the three while every 1-edge pattern stays frequent. The chains are
/// long enough that `GraphPart` keeps the relabeled head and its neighbour
/// together, so the batch touches unit 0 only. The path still occurs once,
/// so the root walk meets it and asks the unit results; a unit left
/// un-mined answers "3" for a pattern whose support is now 1.
fn crafted_stale_unit_case() -> Case {
    let mut db = GraphDb::new();
    for _ in 0..3 {
        let mut g = Graph::new();
        for l in [0u32, 1, 2, 3, 3, 3, 3, 3] {
            g.add_vertex(l);
        }
        for (v, el) in [5u32, 6, 7, 7, 7, 7, 7].into_iter().enumerate() {
            g.add_edge(v as u32, v as u32 + 1, el).unwrap();
        }
        db.push(g);
    }
    // Disjoint edges keep the 1-edge patterns frequent, so nothing below
    // the path's own level gives the demotion away.
    for _ in 0..2 {
        let mut g = Graph::new();
        for l in [0u32, 1, 1, 2] {
            g.add_vertex(l);
        }
        g.add_edge(0, 1, 5).unwrap();
        g.add_edge(2, 3, 6).unwrap();
        db.push(g);
    }

    let updates = vec![
        DbUpdate { gid: 0, update: GraphUpdate::RelabelVertex { v: 0, label: 9 } },
        DbUpdate { gid: 1, update: GraphUpdate::RelabelVertex { v: 0, label: 9 } },
    ];
    Case {
        name: "crafted-stale-unit".to_string(),
        seed: 0,
        min_support: 3,
        max_edges: 4,
        db,
        updates,
    }
}

/// A touched unit *must* be re-mined: a unit support at or above θ accepts
/// a child at the root without the canonical test and without comparing
/// its exact support to θ, so a stale unit result is the one way the
/// incremental path can report a pattern that is no longer frequent.
#[test]
fn skip_unit_remine_mutant_is_detected() {
    let _lock = FAULT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let dir = tempfile::tempdir().unwrap();
    let case = crafted_stale_unit_case();
    let exec = Executor::new(2);

    let guard = arm(Fault::SkipUnitRemine);
    let record = run_single(&case, &exec, Some(dir.path()))
        .expect_err("a stale unit result must leave a detectable false positive");
    assert_eq!(record.check, "incremental-verify", "wrong check tripped: {}", record.message);
    let repro = record.repro.clone().expect("repro written");
    assert!(replay_file(&repro, &exec).is_err(), "repro keeps failing while armed");
    drop(guard);

    replay_file(&repro, &exec)
        .unwrap_or_else(|f| panic!("repro fails disarmed [{}]: {}", f.check, f.message));
    run_single(&case, &exec, None).expect("the crafted case is clean without the mutant");
}

/// A relabel chain whose final write matters: `v0: 0 → 7 → 8`. The armed
/// [`Fault::SkipCancelledUpdate`] mutant makes the ingest coalescer treat
/// every superseding relabel as a cancelled chain, dropping the final
/// write — the coalesced window then lands on a different database than
/// the raw batch, which `coalesce-equivalence` must flag.
fn crafted_coalesce_case() -> Case {
    let mut db = GraphDb::new();
    for _ in 0..3 {
        let mut g = Graph::new();
        g.add_vertex(0);
        g.add_vertex(1);
        g.add_vertex(2);
        g.add_edge(0, 1, 5).unwrap();
        g.add_edge(1, 2, 6).unwrap();
        db.push(g);
    }
    let updates = vec![
        DbUpdate { gid: 0, update: GraphUpdate::RelabelVertex { v: 0, label: 7 } },
        DbUpdate { gid: 0, update: GraphUpdate::RelabelVertex { v: 0, label: 8 } },
    ];
    Case {
        name: "crafted-coalesce-chain".to_string(),
        seed: 0,
        min_support: 2,
        max_edges: 3,
        db,
        updates,
    }
}

#[test]
fn skip_cancelled_update_mutant_is_detected() {
    let _lock = FAULT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let dir = tempfile::tempdir().unwrap();
    let case = crafted_coalesce_case();
    let exec = Executor::new(2);

    let guard = arm(Fault::SkipCancelledUpdate);
    let record = run_single(&case, &exec, Some(dir.path()))
        .expect_err("a dropped final relabel must leave a detectable divergence");
    assert_eq!(record.check, "coalesce-equivalence", "wrong check tripped: {}", record.message);
    let repro = record.repro.clone().expect("repro written");
    assert!(replay_file(&repro, &exec).is_err(), "repro keeps failing while armed");
    drop(guard);

    replay_file(&repro, &exec)
        .unwrap_or_else(|f| panic!("repro fails disarmed [{}]: {}", f.check, f.message));
    run_single(&case, &exec, None).expect("the crafted case is clean without the mutant");
}

/// A database every router-equivalence shard owns a slice of: five
/// copies of the path `(0)-5-(1)-6-(2)`, mined at min_support 3. With
/// the armed [`Fault::DropShardReply`] mutant the router's gather phase
/// silently discards shard 0's owner-restricted counts — no error, no
/// `"partial"` tag — so every gathered support is short by shard 0's
/// owned graphs and the scatter/gather answers stop matching the
/// single-process server.
fn crafted_router_case() -> Case {
    let mut db = GraphDb::new();
    for _ in 0..5 {
        let mut g = Graph::new();
        g.add_vertex(0);
        g.add_vertex(1);
        g.add_vertex(2);
        g.add_edge(0, 1, 5).unwrap();
        g.add_edge(1, 2, 6).unwrap();
        db.push(g);
    }
    let updates = vec![DbUpdate { gid: 0, update: GraphUpdate::RelabelVertex { v: 2, label: 4 } }];
    Case {
        name: "crafted-router-gather".to_string(),
        seed: 0,
        min_support: 3,
        max_edges: 3,
        db,
        updates,
    }
}

#[test]
fn drop_shard_reply_mutant_is_detected() {
    let _lock = FAULT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let dir = tempfile::tempdir().unwrap();
    let case = crafted_router_case();
    let exec = Executor::new(2);

    let guard = arm(Fault::DropShardReply);
    let record = run_single(&case, &exec, Some(dir.path()))
        .expect_err("a silently dropped shard reply must break gather exactness");
    assert_eq!(record.check, "router-equivalence", "wrong check tripped: {}", record.message);
    let repro = record.repro.clone().expect("repro written");
    assert!(replay_file(&repro, &exec).is_err(), "repro keeps failing while armed");
    drop(guard);

    replay_file(&repro, &exec)
        .unwrap_or_else(|f| panic!("repro fails disarmed [{}]: {}", f.check, f.message));
    run_single(&case, &exec, None).expect("the crafted case is clean without the mutant");
}

/// The same crafted fleet, attacked through the router's result cache:
/// the armed [`Fault::ServeStaleCache`] mutant is a forgotten
/// invalidation — the cache skips its commit-time flush and drops the
/// global-epoch component from its lookup key — so after the routed
/// update commits, the `patterns` answer cached under epoch 0 keeps
/// being served. The post-update `router-equivalence` compare must catch
/// the stale rows (the relabel drops the probe pattern's support 5 → 4).
#[test]
fn serve_stale_cache_mutant_is_detected() {
    let _lock = FAULT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let dir = tempfile::tempdir().unwrap();
    let case = crafted_router_case();
    let exec = Executor::new(2);

    let guard = arm(Fault::ServeStaleCache);
    let record = run_single(&case, &exec, Some(dir.path()))
        .expect_err("a stale cached answer served across an epoch commit must be detected");
    assert_eq!(record.check, "router-equivalence", "wrong check tripped: {}", record.message);
    let repro = record.repro.clone().expect("repro written");
    assert!(replay_file(&repro, &exec).is_err(), "repro keeps failing while armed");
    drop(guard);

    replay_file(&repro, &exec)
        .unwrap_or_else(|f| panic!("repro fails disarmed [{}]: {}", f.check, f.message));
    run_single(&case, &exec, None).expect("the crafted case is clean without the mutant");
}

/// A fleet in which one shard holds a supporter of a frequent pattern
/// below its local threshold: four graphs weigh the same, so the router's
/// two shards own gids {0, 2} and {1, 3}. The path `(0)-5-(1)-6-(2)` lives
/// in gids 0, 1 and 2 — support 3, frequent at min_support 3 — so shard 0
/// reports it at 2 (its local θ) and shard 1, holding it once, does not.
/// Gid 3 is a path of other labels. With the armed
/// [`Fault::SkipUnreportedRecount`] mutant phase 2 never asks shard 1,
/// the gathered support stops at 2, and the path (with its edges) drops
/// out of the routed `patterns` answer.
fn crafted_unreported_case() -> Case {
    let mut db = GraphDb::new();
    for labels in [[0u32, 1, 2], [0, 1, 2], [0, 1, 2], [7, 8, 9]] {
        let mut g = Graph::new();
        for l in labels {
            g.add_vertex(l);
        }
        g.add_edge(0, 1, 5).unwrap();
        g.add_edge(1, 2, 6).unwrap();
        db.push(g);
    }
    let updates = vec![DbUpdate { gid: 3, update: GraphUpdate::RelabelVertex { v: 0, label: 0 } }];
    Case {
        name: "crafted-unreported-recount".to_string(),
        seed: 0,
        min_support: 3,
        max_edges: 3,
        db,
        updates,
    }
}

#[test]
fn skip_unreported_recount_mutant_is_detected() {
    let _lock = FAULT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let dir = tempfile::tempdir().unwrap();
    let case = crafted_unreported_case();
    let exec = Executor::new(2);

    let guard = arm(Fault::SkipUnreportedRecount);
    let record = run_single(&case, &exec, Some(dir.path()))
        .expect_err("a candidate left uncounted on a shard that holds it must be detected");
    assert_eq!(record.check, "router-equivalence", "wrong check tripped: {}", record.message);
    let repro = record.repro.clone().expect("repro written");
    assert!(replay_file(&repro, &exec).is_err(), "repro keeps failing while armed");
    drop(guard);

    replay_file(&repro, &exec)
        .unwrap_or_else(|f| panic!("repro fails disarmed [{}]: {}", f.check, f.message));
    run_single(&case, &exec, None).expect("the crafted case is clean without the mutant");
}

/// A database the window-equivalence check runs on unguarded: three
/// copies of the path `(0)-5-(1)-6-(2)` at min_support 2. The armed
/// [`Fault::SkipExpiry`] mutant makes the serving engine's applier skip
/// the retention sweep, so windows past the horizon are never unwound:
/// the served epoch count stops matching one-fold-per-frame, zero
/// windows expire, and the served pattern set drifts toward the union of
/// *all* streamed windows instead of the last `N`.
fn crafted_window_case() -> Case {
    let mut db = GraphDb::new();
    for _ in 0..3 {
        let mut g = Graph::new();
        g.add_vertex(0);
        g.add_vertex(1);
        g.add_vertex(2);
        g.add_edge(0, 1, 5).unwrap();
        g.add_edge(1, 2, 6).unwrap();
        db.push(g);
    }
    let updates = vec![DbUpdate { gid: 0, update: GraphUpdate::RelabelVertex { v: 0, label: 7 } }];
    Case {
        name: "crafted-window-expiry".to_string(),
        seed: 0,
        min_support: 2,
        max_edges: 3,
        db,
        updates,
    }
}

#[test]
fn skip_expiry_mutant_is_detected() {
    let _lock = FAULT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let dir = tempfile::tempdir().unwrap();
    let case = crafted_window_case();
    let exec = Executor::new(2);

    let guard = arm(Fault::SkipExpiry);
    let record = run_single(&case, &exec, Some(dir.path()))
        .expect_err("a skipped retention sweep must leave a detectable stale window");
    assert_eq!(record.check, "window-equivalence", "wrong check tripped: {}", record.message);
    let repro = record.repro.clone().expect("repro written");
    assert!(replay_file(&repro, &exec).is_err(), "repro keeps failing while armed");
    drop(guard);

    replay_file(&repro, &exec)
        .unwrap_or_else(|f| panic!("repro fails disarmed [{}]: {}", f.check, f.message));
    run_single(&case, &exec, None).expect("the crafted case is clean without the mutant");
}

/// Arms `fault`, runs the crafted `case` and requires `fold-equivalence` to
/// trip first, with a repro that fails armed and passes disarmed.
fn assert_fold_mutant_detected(fault: Fault, case: &Case) {
    let _lock = FAULT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let dir = tempfile::tempdir().unwrap();
    let exec = Executor::new(2);

    let guard = arm(fault);
    let record = run_single(case, &exec, Some(dir.path()))
        .expect_err("the armed fold mutant must leave a detectable divergence");
    assert_eq!(record.check, "fold-equivalence", "wrong check tripped: {}", record.message);
    let repro = record.repro.clone().expect("repro written");
    assert!(replay_file(&repro, &exec).is_err(), "repro keeps failing while armed");
    drop(guard);

    replay_file(&repro, &exec)
        .unwrap_or_else(|f| panic!("repro fails disarmed [{}]: {}", f.check, f.message));
    run_single(case, &exec, None).expect("the crafted case is clean without the mutant");
}

/// Three copies of the path `(0)-5-(1)-6-(2)` at min_support 2. Under the
/// root `(1)-6-(2)` the walk counts the path again under a non-minimal
/// code: a border entry of support 3. Relabelling gid 0's `(2)` to 9 moves
/// no edge across θ, so the fold is a delta one, and the entry must fall to
/// 2. With [`Fault::StaleBorderSupport`] armed it stays at 3 while `P(D)`
/// is still exact, so only the border comparison sees it.
fn crafted_stale_border_case() -> Case {
    let mut db = GraphDb::new();
    for _ in 0..3 {
        let mut g = Graph::new();
        for l in [0u32, 1, 2] {
            g.add_vertex(l);
        }
        g.add_edge(0, 1, 5).unwrap();
        g.add_edge(1, 2, 6).unwrap();
        db.push(g);
    }
    let updates = vec![DbUpdate { gid: 0, update: GraphUpdate::RelabelVertex { v: 2, label: 9 } }];
    Case {
        name: "crafted-stale-border".to_string(),
        seed: 0,
        min_support: 2,
        max_edges: 3,
        db,
        updates,
    }
}

#[test]
fn stale_border_support_mutant_is_detected() {
    assert_fold_mutant_detected(Fault::StaleBorderSupport, &crafted_stale_border_case());
}

/// The path `(0)-5-(1)-6-(2)` in gid 0, and in gid 1 its two edges apart.
/// At min_support 2 both edges are frequent and the path is a border entry
/// of support 1; an edge in gid 1 that joins its `(1)` to its `(2)` raises
/// the path to θ without moving any edge across it: a minimal border code
/// reaching θ, which only a cold walk can expand. With
/// [`Fault::SkipBorderExpansion`] armed the fold keeps it in the border and
/// `P(D)` misses the path.
fn crafted_border_expansion_case() -> Case {
    let mut db = GraphDb::new();
    let mut g = Graph::new();
    for l in [0u32, 1, 2] {
        g.add_vertex(l);
    }
    g.add_edge(0, 1, 5).unwrap();
    g.add_edge(1, 2, 6).unwrap();
    db.push(g);
    let mut g = Graph::new();
    for l in [0u32, 1, 1, 2] {
        g.add_vertex(l);
    }
    g.add_edge(0, 1, 5).unwrap();
    g.add_edge(2, 3, 6).unwrap();
    db.push(g);
    let updates = vec![DbUpdate { gid: 1, update: GraphUpdate::AddEdge { u: 1, v: 3, label: 6 } }];
    Case {
        name: "crafted-border-expansion".to_string(),
        seed: 0,
        min_support: 2,
        max_edges: 3,
        db,
        updates,
    }
}

#[test]
fn skip_border_expansion_mutant_is_detected() {
    assert_fold_mutant_detected(Fault::SkipBorderExpansion, &crafted_border_expansion_case());
}

/// The labeled-panic path end to end: a panic injected inside one unit's
/// mining job must surface as a failure that names the exact job
/// (`unit-mine:{j}`) and carries the payload — and the unit id in the
/// label must match the one in the payload. Before the shared executor,
/// this was an anonymous `expect` on a poisoned scope.
#[test]
fn unit_miner_panic_carries_the_unit_label() {
    let _lock = FAULT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let case = generate_case(42, 0, true);
    let exec = Executor::new(2);

    let guard = arm(Fault::PanicUnitMiner);
    let record =
        run_single(&case, &exec, None).expect_err("an armed unit-miner panic must fail the case");
    assert_eq!(record.check, "panic", "panics are reported under the `panic` pseudo-check");
    assert!(
        record.message.contains("unit mining failed: job `unit-mine:"),
        "panic lost the job label: {}",
        record.message
    );
    let label_unit = record
        .message
        .split("unit-mine:")
        .nth(1)
        .and_then(|s| s.split('`').next())
        .expect("label names a unit");
    let payload_unit = record
        .message
        .split("injected unit-miner fault in unit ")
        .nth(1)
        .map(str::trim)
        .expect("payload names a unit");
    assert_eq!(label_unit, payload_unit, "label and payload disagree: {}", record.message);
    drop(guard);

    // The pool survives the poisoned batch: the same executor runs the
    // case clean once the fault is disarmed.
    run_single(&case, &exec, None).expect("the case is clean without the mutant");
}
