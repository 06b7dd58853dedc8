//! End-to-end router tests against real shard daemons: gather
//! exactness vs a single-process reference (also for shard files written
//! by older plans), the phase-2 recount count, the 2PC update path, dead
//! shard degradation with `"partial":1`, probe re-admission with epoch
//! republish, and replica failover.

use std::sync::Arc;
use std::time::Duration;

use graphmine_graph::{DbUpdate, Graph, GraphDb, GraphUpdate};
use graphmine_router::{plan_shards, PlanConfig, Router, RouterConfig, ShardTopology};
use graphmine_serve::protocol::Request;
use graphmine_serve::{
    start, Client, EngineConfig, RetryPolicy, ServeEngine, ServerConfig, ServerHandle,
};
use graphmine_telemetry::{Counter, JsonValue};

/// Eight labeled graphs with overlapping substructure so `patterns` at
/// support 3 has something to find.
fn mixed_db() -> GraphDb {
    let mut db = GraphDb::new();
    for i in 0..8usize {
        let mut g = Graph::new();
        let a = g.add_vertex(0);
        let b = g.add_vertex(1);
        g.add_edge(a, b, 5).unwrap();
        if i < 6 {
            let c = g.add_vertex(2);
            g.add_edge(b, c, 6).unwrap();
        }
        if i % 2 == 0 {
            let d = g.add_vertex(3);
            g.add_edge(a, d, 7).unwrap();
        }
        db.push(g);
    }
    db
}

fn quick_router_cfg() -> RouterConfig {
    RouterConfig {
        connect_timeout: Duration::from_millis(500),
        read_timeout: Duration::from_secs(20),
        // Aggressive on purpose: 2PC prepare (fsync group commit) and
        // epoch-commit (window application) on a non-final replica must
        // run under the full read_timeout, not this hedge budget.
        hedge_after: Duration::from_millis(100),
        retry: RetryPolicy { attempts: 3, base_ms: 5, cap_ms: 40, seed: 1 },
        ..RouterConfig::default()
    }
}

/// [`quick_router_cfg`] with the result cache off — for tests that
/// assert on per-request scatter mechanics (partial tags, failover
/// counters), where a cache hit would skip the scatter under test.
fn uncached_router_cfg() -> RouterConfig {
    RouterConfig { cache_budget: 0, ..quick_router_cfg() }
}

struct Fleet {
    topo: ShardTopology,
    handles: Vec<ServerHandle>,
    /// Per-shard sub-databases, kept so a test can re-boot a shard from
    /// its seed state (fresh data dir, unreplayed journal).
    shard_dbs: Vec<GraphDb>,
    _dirs: Vec<tempfile::TempDir>,
}

/// Plans `db` over `n_shards` and boots the plan with [`boot_shards`].
fn boot_fleet(db: &GraphDb, n_shards: usize, min_support: u32) -> Fleet {
    let cfg = PlanConfig { n_shards, min_support, ..PlanConfig::default() };
    let plan = plan_shards(db, &cfg).unwrap();
    boot_shards(plan.topology, plan.shard_dbs)
}

/// Boots one daemon per shard database (single replica) on ephemeral
/// ports, and patches the topology with the real addresses.
fn boot_shards(mut topo: ShardTopology, shard_dbs: Vec<GraphDb>) -> Fleet {
    let mut handles = Vec::new();
    let mut dirs = Vec::new();
    for (spec, sdb) in topo.shards.iter_mut().zip(&shard_dbs) {
        let dir = tempfile::tempdir().unwrap();
        let ecfg = EngineConfig {
            min_support: topo.local_min_support,
            owned: Some(spec.owned.clone()),
            ..EngineConfig::default()
        };
        let (engine, _) = ServeEngine::boot(Some(sdb), dir.path(), &ecfg).unwrap();
        let handle = start(Arc::new(engine), &ServerConfig::default()).unwrap();
        spec.replicas = vec![handle.addr().to_string()];
        handles.push(handle);
        dirs.push(dir);
    }
    Fleet { topo, handles, shard_dbs, _dirs: dirs }
}

/// Extracts the comparable core of a `patterns` reply.
fn pattern_rows(reply: &JsonValue) -> Vec<(u64, u64, String)> {
    reply
        .field("patterns")
        .and_then(JsonValue::as_arr)
        .unwrap()
        .iter()
        .map(|p| {
            (
                p.field("support").and_then(JsonValue::as_num).unwrap(),
                p.field("size").and_then(JsonValue::as_num).unwrap(),
                p.field("code").unwrap().to_json(),
            )
        })
        .collect()
}

fn num(reply: &JsonValue, key: &str) -> u64 {
    reply.field(key).and_then(JsonValue::as_num).unwrap_or(u64::MAX)
}

fn edge_pattern(la: u32, el: u32, lb: u32) -> Graph {
    let mut g = Graph::new();
    let a = g.add_vertex(la);
    let b = g.add_vertex(lb);
    g.add_edge(a, b, el).unwrap();
    g
}

#[test]
fn router_matches_a_single_process_server_across_an_update_window() {
    let db = mixed_db();
    let fleet = boot_fleet(&db, 2, 3);

    // Single-process reference over the whole database.
    let ref_dir = tempfile::tempdir().unwrap();
    let ref_cfg = EngineConfig { min_support: 3, ..EngineConfig::default() };
    let (reference, _) = ServeEngine::boot(Some(&db), ref_dir.path(), &ref_cfg).unwrap();

    let router = Router::new(fleet.topo.clone(), quick_router_cfg()).unwrap();

    // Patterns: totals and every row identical.
    let got = router.patterns(50, None);
    let want = reference.handle(&Request::Patterns { top: 50, min_support: None });
    assert_eq!(num(&got, "total"), num(&want, "total"));
    assert_eq!(pattern_rows(&got), pattern_rows(&want));
    assert!(got.field("partial").is_none());
    assert!(num(&got, "total") >= 2, "fixture should yield several patterns");

    // Spot supports, including an infrequent pattern.
    for pat in [edge_pattern(0, 5, 1), edge_pattern(1, 6, 2), edge_pattern(0, 7, 3)] {
        let got = router.support(&pat);
        let want = reference.handle(&Request::Support { graph: pat.clone(), owned: false });
        assert_eq!(num(&got, "support"), num(&want, "support"));
    }

    // Route an update window touching both shards through 2PC; apply the
    // same window to the reference.
    let gid_a = fleet.topo.shards[0].owned[0];
    let gid_b = fleet.topo.shards[1].owned[0];
    let ops = vec![
        DbUpdate { gid: gid_a, update: GraphUpdate::RelabelVertex { v: 0, label: 9 } },
        DbUpdate { gid: gid_b, update: GraphUpdate::RelabelVertex { v: 1, label: 8 } },
        DbUpdate {
            gid: gid_a,
            update: GraphUpdate::AddVertex { label: 4, attach_to: 1, elabel: 2 },
        },
    ];
    let reply = router.update(&ops, false);
    assert_eq!(reply.field("status").and_then(JsonValue::as_str), Some("ok"), "{reply:?}");
    assert_eq!(num(&reply, "global_epoch"), 1);
    assert_eq!(num(&reply, "touched"), 2);
    reference.apply_update(&ops).unwrap();

    // Identical again across the committed epoch.
    let got = router.patterns(50, None);
    let want = reference.handle(&Request::Patterns { top: 50, min_support: None });
    assert_eq!(num(&got, "total"), num(&want, "total"));
    assert_eq!(pattern_rows(&got), pattern_rows(&want));
    for pat in [edge_pattern(9, 5, 1), edge_pattern(0, 5, 1), edge_pattern(9, 2, 4)] {
        let got = router.support(&pat);
        let want = reference.handle(&Request::Support { graph: pat.clone(), owned: false });
        assert_eq!(num(&got, "support"), num(&want, "support"));
    }

    // Every shard converged on the committed global epoch.
    let status = router.status();
    for shard in status.field("shards").and_then(JsonValue::as_arr).unwrap() {
        assert_eq!(num(shard, "global_epoch"), 1);
    }

    // A dry-run validates without committing a new epoch.
    let dry = router.update(
        &[DbUpdate { gid: gid_a, update: GraphUpdate::RelabelVertex { v: 0, label: 1 } }],
        true,
    );
    assert_eq!(num(&dry, "valid"), 1);
    assert_eq!(router.global_epoch(), 1);

    // An invalid window aborts in the validate phase.
    let bad = router.update(
        &[DbUpdate { gid: gid_a, update: GraphUpdate::RelabelVertex { v: 999, label: 1 } }],
        false,
    );
    assert_eq!(bad.field("status").and_then(JsonValue::as_str), Some("error"));
    assert_eq!(router.global_epoch(), 1, "aborted windows must not advance the epoch");
    assert!(router.telemetry().counters().get(Counter::Epoch2pcAborts) >= 1);
}

/// Phase 2 asks each shard only about the candidates it did not return in
/// phase 1: `router_phase2_recounts` is exactly Σ_s |candidates \ returned_s|.
#[test]
fn phase2_recounts_only_what_each_shard_did_not_return() {
    let db = mixed_db();
    let fleet = boot_fleet(&db, 3, 3);
    let router = Router::new(fleet.topo.clone(), uncached_router_cfg()).unwrap();

    let returned: Vec<Vec<String>> = fleet
        .handles
        .iter()
        .map(|h| {
            let mut shard = Client::connect(h.addr()).unwrap();
            let reply = shard.patterns(Some(1_000_000_000), None).unwrap();
            pattern_rows(&reply).into_iter().map(|(_, _, code)| code).collect()
        })
        .collect();
    let mut candidates: Vec<&String> = returned.iter().flatten().collect();
    candidates.sort();
    candidates.dedup();
    let expected: usize =
        returned.iter().map(|r| candidates.iter().filter(|c| !r.contains(c)).count()).sum();
    assert!(expected > 0, "fixture should leave some shard a candidate to recount");
    assert!(expected < candidates.len() * returned.len(), "nothing spared");

    let got = router.patterns(1_000_000_000, None);
    assert!(got.field("partial").is_none());
    let recounts = router.telemetry().counters().get(Counter::RouterPhase2Recounts);
    assert_eq!(recounts, expected as u64);
}

/// Shard files written by older plans held merged unit pieces — at most
/// the whole graph — in the slots a shard does not own. Booted from such
/// files, a fleet still answers byte-identically to a fleet of today's
/// files and row-identically to one process, because the engine empties
/// those slots at boot.
#[test]
fn a_fleet_from_older_shard_files_answers_like_one_process() {
    let db = mixed_db();
    let plan =
        plan_shards(&db, &PlanConfig { n_shards: 2, min_support: 3, ..PlanConfig::default() })
            .unwrap();
    let older: Vec<GraphDb> = (0..2).map(|_| db.clone()).collect();
    let current = boot_shards(plan.topology.clone(), plan.shard_dbs);
    let old = boot_shards(plan.topology, older);
    let router = |fleet: &Fleet| Router::new(fleet.topo.clone(), uncached_router_cfg()).unwrap();
    let (now, then) = (router(&current), router(&old));

    let ref_dir = tempfile::tempdir().unwrap();
    let ref_cfg = EngineConfig { min_support: 3, ..EngineConfig::default() };
    let (reference, _) = ServeEngine::boot(Some(&db), ref_dir.path(), &ref_cfg).unwrap();
    for top in [1_000_000_000, 50, 2] {
        let got = then.patterns(top, None);
        assert_eq!(got.to_json(), now.patterns(top, None).to_json(), "top {top}");
        let want = reference.handle(&Request::Patterns { top, min_support: None });
        assert_eq!(pattern_rows(&got), pattern_rows(&want), "top {top}");
    }
    for pat in [edge_pattern(0, 5, 1), edge_pattern(1, 6, 2), edge_pattern(0, 7, 3)] {
        let want = reference.handle(&Request::Support { graph: pat.clone(), owned: false });
        assert_eq!(num(&then.support(&pat), "support"), num(&want, "support"));
    }
}

#[test]
fn dead_shard_tags_partial_answers_and_readmits_with_the_epoch() {
    let db = mixed_db();
    let mut fleet = boot_fleet(&db, 2, 3);
    let router = Router::new(fleet.topo.clone(), uncached_router_cfg()).unwrap();

    // Commit one window so there is a non-zero epoch to republish later.
    let gid_a = fleet.topo.shards[0].owned[0];
    let reply = router.update(
        &[DbUpdate { gid: gid_a, update: GraphUpdate::RelabelVertex { v: 0, label: 9 } }],
        false,
    );
    assert_eq!(reply.field("status").and_then(JsonValue::as_str), Some("ok"));
    assert_eq!(router.global_epoch(), 1);

    let full = num(&router.support(&edge_pattern(1, 6, 2)), "support");
    assert!(full >= 2);

    // Kill shard 1 (single replica): answers degrade and say so.
    let dead = fleet.handles.remove(1);
    let addr = dead.addr().to_string();
    let engine = Arc::clone(dead.engine());
    dead.abort();
    let degraded = router.support(&edge_pattern(1, 6, 2));
    assert_eq!(degraded.field("partial").and_then(JsonValue::as_num), Some(1));
    let partial_sum = num(&degraded, "support");
    assert!(partial_sum < full, "lost shard 1's owned graphs: {partial_sum} vs {full}");
    assert!(router.telemetry().counters().get(Counter::GatherPartial) >= 1);
    let status = router.status();
    assert_eq!(status.field("dead").and_then(JsonValue::as_arr).map(<[JsonValue]>::len), Some(1));

    // Restart the shard on the same address: the next request probes,
    // re-admits, and republishes the committed global epoch.
    let revived = start(engine, &ServerConfig { addr, ..ServerConfig::default() }).unwrap();
    let healed = router.support(&edge_pattern(1, 6, 2));
    assert!(healed.field("partial").is_none(), "{healed:?}");
    assert_eq!(num(&healed, "support"), full);
    let status = router.status();
    assert_eq!(status.field("dead").and_then(JsonValue::as_arr).map(<[JsonValue]>::len), Some(0));
    for shard in status.field("shards").and_then(JsonValue::as_arr).unwrap() {
        assert_eq!(num(shard, "global_epoch"), 1, "epoch republish on re-admission");
    }
    drop(revived);
}

#[test]
fn cache_serves_bit_identical_answers_and_flushes_on_commit_and_readmission() {
    let db = mixed_db();
    let mut fleet = boot_fleet(&db, 2, 3);
    // Cache on (the default); a cache-off twin over the same fleet shows
    // what a cold router computes.
    let router = Router::new(fleet.topo.clone(), quick_router_cfg()).unwrap();
    let cold = Router::new(fleet.topo.clone(), uncached_router_cfg()).unwrap();
    let c = router.telemetry().counters();

    // First query computes (miss), second is served from cache; all
    // three byte-identical.
    let computed = router.patterns(10, None).to_json();
    assert_eq!(c.get(Counter::RouterCacheMisses), 1);
    let cached = router.patterns(10, None).to_json();
    assert_eq!(c.get(Counter::RouterCacheHits), 1);
    assert_eq!(cached, computed);
    assert_eq!(cached, cold.patterns(10, None).to_json());
    assert_eq!(cold.telemetry().counters().get(Counter::RouterCacheHits), 0);

    let pat = edge_pattern(1, 6, 2);
    let s_computed = router.support(&pat).to_json();
    let s_cached = router.support(&pat).to_json();
    assert_eq!(s_cached, s_computed);
    assert_eq!(s_cached, cold.support(&pat).to_json());
    assert_eq!(c.get(Counter::RouterCacheHits), 2);

    // A committed epoch invalidates: the same query misses, recomputes
    // under epoch 1, and the recomputed answer caches again.
    let gid_a = fleet.topo.shards[0].owned[0];
    let up = router.update(
        &[DbUpdate { gid: gid_a, update: GraphUpdate::RelabelVertex { v: 0, label: 9 } }],
        false,
    );
    assert_eq!(up.field("status").and_then(JsonValue::as_str), Some("ok"), "{up:?}");
    let post = router.patterns(10, None).to_json();
    assert_eq!(c.get(Counter::RouterCacheHits), 2, "a commit must flush the cache");
    assert_ne!(post, computed, "the recomputed answer describes the new epoch");
    let post_cached = router.patterns(10, None).to_json();
    assert_eq!(post_cached, post);
    assert_eq!(c.get(Counter::RouterCacheHits), 3);

    // Kill shard 1: degraded answers are tagged and never enter the
    // cache — asking twice computes twice.
    let dead = fleet.handles.remove(1);
    let addr = dead.addr().to_string();
    let engine = Arc::clone(dead.engine());
    dead.abort();
    let fresh = edge_pattern(0, 5, 1);
    let degraded = router.support(&fresh);
    assert_eq!(degraded.field("partial").and_then(JsonValue::as_num), Some(1));
    let degraded_again = router.support(&fresh);
    assert_eq!(
        degraded_again.field("partial").and_then(JsonValue::as_num),
        Some(1),
        "a partial answer must never be served from cache"
    );
    assert_eq!(c.get(Counter::RouterCacheHits), 3, "no hit came from a degraded answer");

    // Re-admission flushes again; the healed recompute is byte-identical
    // to the pre-kill answer for the same committed epoch.
    let revived = start(engine, &ServerConfig { addr, ..ServerConfig::default() }).unwrap();
    let healed = router.patterns(10, None).to_json();
    assert_eq!(healed, post, "kill/readmit must not change the committed answer");
    drop(revived);
}

#[test]
fn restarted_shard_stays_dead_until_it_catches_up_to_the_committed_seq() {
    let db = mixed_db();
    let mut fleet = boot_fleet(&db, 2, 3);
    let router = Router::new(fleet.topo.clone(), uncached_router_cfg()).unwrap();

    // Commit a window that lands on shard 1's journal as seq 1.
    let gid_b = fleet.topo.shards[1].owned[0];
    let ops = vec![DbUpdate { gid: gid_b, update: GraphUpdate::RelabelVertex { v: 1, label: 8 } }];
    let up = router.update(&ops, false);
    assert_eq!(up.field("status").and_then(JsonValue::as_str), Some("ok"), "{up:?}");
    assert_eq!(router.global_epoch(), 1);
    let probe = edge_pattern(0, 5, 1);
    let full = num(&router.support(&probe), "support");
    assert!((1..8).contains(&full), "the committed relabel must lower the probe's support");

    // Kill shard 1 and notice the death.
    let dead = fleet.handles.remove(1);
    let addr = dead.addr().to_string();
    dead.abort();
    assert_eq!(router.support(&probe).field("partial").and_then(JsonValue::as_num), Some(1));

    // Restart it from its *seed* database in a fresh data dir: the
    // journal is empty, the committed window is not applied — exactly
    // the restart that used to slip back in and serve the pre-update
    // support 8 untagged (seq-0 republish waits for nothing).
    let dir2 = tempfile::tempdir().unwrap();
    let ecfg = EngineConfig {
        min_support: fleet.topo.local_min_support,
        owned: Some(fleet.topo.shards[1].owned.clone()),
        ..EngineConfig::default()
    };
    let (engine2, _) = ServeEngine::boot(Some(&fleet.shard_dbs[1]), dir2.path(), &ecfg).unwrap();
    let engine2 = Arc::new(engine2);
    let revived =
        start(Arc::clone(&engine2), &ServerConfig { addr, ..ServerConfig::default() }).unwrap();

    // The shard is reachable but lagging: re-admission republishes the
    // committed epoch at seq 1, the fresh journal rejects it, and the
    // shard stays dead — answers stay tagged partial.
    let lagging = router.support(&probe);
    assert_eq!(
        lagging.field("partial").and_then(JsonValue::as_num),
        Some(1),
        "a shard that has not replayed to the committed window must not serve: {lagging:?}"
    );
    assert!(num(&lagging, "support") < full);

    // Apply the missing window (journal seq 1): the next request's
    // catch-up succeeds and answers are exact again.
    engine2.apply_update(&ops).unwrap();
    let healed = router.support(&probe);
    assert!(healed.field("partial").is_none(), "{healed:?}");
    assert_eq!(num(&healed, "support"), full);
    drop(revived);
}

#[test]
fn replica_failover_keeps_reads_exact_and_write_failures_abort() {
    let db = mixed_db();
    // One shard, two replicas booted from the same plan.
    let cfg = PlanConfig { n_shards: 1, min_support: 3, ..PlanConfig::default() };
    let plan = plan_shards(&db, &cfg).unwrap();
    let mut topo = plan.topology;
    let mut handles = Vec::new();
    let mut dirs = Vec::new();
    for _r in 0..2 {
        let dir = tempfile::tempdir().unwrap();
        let ecfg = EngineConfig {
            min_support: topo.local_min_support,
            owned: Some(topo.shards[0].owned.clone()),
            ..EngineConfig::default()
        };
        let (engine, _) = ServeEngine::boot(Some(&plan.shard_dbs[0]), dir.path(), &ecfg).unwrap();
        let handle = start(Arc::new(engine), &ServerConfig::default()).unwrap();
        handles.push(handle);
        dirs.push(dir);
    }
    topo.shards[0].replicas = handles.iter().map(|h| h.addr().to_string()).collect();
    let router = Router::new(topo.clone(), uncached_router_cfg()).unwrap();

    // A write lands durably on both replicas.
    let gid = topo.shards[0].owned[0];
    let reply = router
        .update(&[DbUpdate { gid, update: GraphUpdate::RelabelVertex { v: 0, label: 9 } }], false);
    assert_eq!(reply.field("status").and_then(JsonValue::as_str), Some("ok"), "{reply:?}");
    let full = num(&router.support(&edge_pattern(9, 5, 1)), "support");
    assert!(full >= 1);

    // Kill the primary: reads fail over to replica 1 with no partiality.
    handles.remove(0).abort();
    let read = router.support(&edge_pattern(9, 5, 1));
    assert!(read.field("partial").is_none(), "{read:?}");
    assert_eq!(num(&read, "support"), full);
    let c = router.telemetry().counters();
    assert!(c.get(Counter::ShardRetries) + c.get(Counter::HedgedReads) >= 1);

    // Writes require every replica durable: with one replica down the
    // window aborts and the epoch stays put.
    let epoch = router.global_epoch();
    let aborted = router
        .update(&[DbUpdate { gid, update: GraphUpdate::RelabelVertex { v: 0, label: 3 } }], false);
    assert_eq!(aborted.field("status").and_then(JsonValue::as_str), Some("error"));
    assert_eq!(router.global_epoch(), epoch);
    assert!(c.get(Counter::Epoch2pcAborts) >= 1);
    drop(handles);
}
