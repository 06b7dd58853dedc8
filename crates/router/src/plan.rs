//! Shard planning: from one database to a [`ShardTopology`] plus the
//! per-shard databases the `graphmine shard-plan` subcommand writes out.
//!
//! Every graph gets one owner shard, and a shard database holds exactly
//! what its shard owns. It is **gid-aligned with the root database** —
//! it has `|D|` slots, so update windows route to a shard without any
//! gid renumbering — but only an owned slot holds a graph, a full copy of
//! the root graph; every other slot is an empty graph, which supports
//! nothing. A shard's ordinary counts are therefore counts over its owned
//! graphs, and owner sets are disjoint, so the router sums them exactly.

use graphmine_graph::{Graph, GraphDb, GraphId, Support};

use crate::topology::{local_min_support, ShardSpec, ShardTopology};

/// Knobs for [`plan_shards`].
#[derive(Debug, Clone)]
pub struct PlanConfig {
    /// Read by nothing: placement builds no partition units. Declared
    /// only because `bench/e2e/src/router.rs` names it; the benchmark PR
    /// of ROADMAP 1(a) deletes it.
    #[doc(hidden)]
    pub k: usize,
    /// Number of shards.
    pub n_shards: usize,
    /// Replica processes per shard.
    pub replicas: usize,
    /// Global support threshold the router will answer at.
    pub min_support: Support,
    /// Host the generated addresses live on.
    pub host: String,
    /// The router gets `base_port`; shard `s` replica `r` gets
    /// `base_port + 1 + s * replicas + r`.
    pub base_port: u16,
}

impl Default for PlanConfig {
    fn default() -> Self {
        PlanConfig {
            k: 4,
            n_shards: 2,
            replicas: 1,
            min_support: 2,
            host: "127.0.0.1".to_string(),
            base_port: 7870,
        }
    }
}

/// A finished plan: the topology plus the shard databases, indexed by
/// shard id.
#[derive(Debug)]
pub struct ShardPlan {
    /// The topology to persist and hand to the router and shards.
    pub topology: ShardTopology,
    /// `shard_dbs[s]` — shard `s`'s gid-aligned database.
    pub shard_dbs: Vec<GraphDb>,
}

/// Owner of every gid: greedy min-load by edge count (each gid weighs
/// `edges + 1` so edgeless graphs still spread), iterating gids in
/// ascending order and breaking ties toward the lowest shard id.
/// Deterministic for a given database.
fn greedy_owners(db: &GraphDb, n_shards: usize) -> Vec<usize> {
    let mut load = vec![0u64; n_shards];
    let mut owners = Vec::with_capacity(db.len());
    for (_, g) in db.iter() {
        let s = (0..n_shards).min_by_key(|&s| (load[s], s)).expect("at least one shard");
        load[s] += g.edge_count() as u64 + 1;
        owners.push(s);
    }
    owners
}

/// Assigns every graph an owner shard and materializes the per-shard
/// databases.
///
/// # Errors
///
/// Rejects empty databases, zero shards or replicas, and more planned
/// ports than fit in a `u16`.
pub fn plan_shards(db: &GraphDb, cfg: &PlanConfig) -> Result<ShardPlan, String> {
    if db.is_empty() {
        return Err("cannot shard an empty database".to_string());
    }
    if cfg.n_shards == 0 || cfg.replicas == 0 {
        return Err("need at least one shard and one replica".to_string());
    }
    let ports = 1 + cfg.n_shards * cfg.replicas;
    if u16::try_from(cfg.base_port as usize + ports - 1).is_err() {
        return Err(format!("port range {}+{} overflows", cfg.base_port, ports));
    }

    let owners = greedy_owners(db, cfg.n_shards);
    let mut owned: Vec<Vec<GraphId>> = vec![Vec::new(); cfg.n_shards];
    let mut shard_dbs: Vec<GraphDb> = (0..cfg.n_shards).map(|_| GraphDb::new()).collect();
    for (gid, g) in db.iter() {
        let owner = owners[gid as usize];
        owned[owner].push(gid);
        for (s, sdb) in shard_dbs.iter_mut().enumerate() {
            sdb.push(if s == owner { g.clone() } else { Graph::new() });
        }
    }
    let shards = owned
        .into_iter()
        .enumerate()
        .map(|(s, owned)| {
            let replicas = (0..cfg.replicas)
                .map(|r| {
                    let port = cfg.base_port as usize + 1 + s * cfg.replicas + r;
                    format!("{}:{port}", cfg.host)
                })
                .collect();
            ShardSpec { id: s, owned, replicas, data: format!("shard-{s}.txt") }
        })
        .collect();

    let topology = ShardTopology {
        min_support: cfg.min_support,
        local_min_support: local_min_support(cfg.min_support, cfg.n_shards),
        n_graphs: db.len(),
        router_addr: format!("{}:{}", cfg.host, cfg.base_port),
        shards,
    };
    topology.validate()?;
    Ok(ShardPlan { topology, shard_dbs })
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(crate) fn chain_db(n: usize) -> GraphDb {
        // n small labeled path graphs with some shared structure.
        let mut db = GraphDb::new();
        for i in 0..n {
            let mut g = Graph::new();
            let a = g.add_vertex(0);
            let b = g.add_vertex(1);
            let c = g.add_vertex(2);
            g.add_edge(a, b, 5).unwrap();
            g.add_edge(b, c, 6).unwrap();
            if i % 2 == 0 {
                let d = g.add_vertex(3);
                g.add_edge(c, d, 7).unwrap();
            }
            db.push(g);
        }
        db
    }

    #[test]
    fn plan_produces_aligned_dbs_with_full_owned_copies() {
        let db = chain_db(6);
        let cfg = PlanConfig { n_shards: 2, min_support: 4, ..PlanConfig::default() };
        let plan = plan_shards(&db, &cfg).unwrap();
        assert_eq!(plan.shard_dbs.len(), 2);
        assert_eq!(plan.topology.local_min_support, 2);
        for s in 0..2 {
            let sdb = &plan.shard_dbs[s];
            assert_eq!(sdb.len(), db.len(), "shard dbs stay gid-aligned");
            let owned = &plan.topology.shards[s].owned;
            for (gid, g) in sdb.iter() {
                let root = db.graph(gid);
                if owned.contains(&gid) {
                    assert_eq!(g.vlabels(), root.vlabels());
                    assert_eq!(g.edges().collect::<Vec<_>>(), root.edges().collect::<Vec<_>>());
                } else {
                    assert_eq!((g.vertex_count(), g.edge_count()), (0, 0), "gid {gid} not owned");
                }
            }
        }
        // Owner sets partition the gid space (validate() checked too), and
        // every input edge lands in exactly one shard database.
        let mut all: Vec<_> =
            plan.topology.shards.iter().flat_map(|s| s.owned.iter().copied()).collect();
        all.sort_unstable();
        assert_eq!(all, (0..db.len() as GraphId).collect::<Vec<_>>());
        let edges: usize = plan.shard_dbs.iter().map(GraphDb::total_edges).sum();
        assert_eq!(edges, db.total_edges());
    }

    #[test]
    fn owners_cover_every_gid_once_at_any_shard_count() {
        let db = chain_db(5);
        for n_shards in 1..=7 {
            let cfg = PlanConfig { n_shards, ..PlanConfig::default() };
            let plan = plan_shards(&db, &cfg).unwrap();
            assert_eq!(plan.topology.shards.len(), n_shards);
            let mut all: Vec<GraphId> =
                plan.topology.shards.iter().flat_map(|s| s.owned.iter().copied()).collect();
            all.sort_unstable();
            assert_eq!(all, (0..db.len() as GraphId).collect::<Vec<_>>(), "{n_shards} shards");
            // A shard's database holds a graph exactly where it owns one.
            for (s, spec) in plan.topology.shards.iter().enumerate() {
                let held: Vec<GraphId> = plan.shard_dbs[s]
                    .iter()
                    .filter(|(_, g)| g.vertex_count() > 0)
                    .map(|(gid, _)| gid)
                    .collect();
                assert_eq!(held, spec.owned, "shard {s} of {n_shards}");
            }
        }
    }

    #[test]
    fn greedy_owners_balance_by_edges() {
        // Graph 0 has six edges, graphs 1 and 2 one each: the heaviest goes
        // to shard 0 and the rest pile onto the lighter shard 1.
        let mut db = GraphDb::new();
        let mut star = Graph::new();
        let hub = star.add_vertex(9);
        for i in 0..6 {
            let v = star.add_vertex(i);
            star.add_edge(hub, v, 0).unwrap();
        }
        db.push(star);
        for _ in 0..2 {
            let mut e = Graph::new();
            let (p, q) = (e.add_vertex(4), e.add_vertex(5));
            e.add_edge(p, q, 2).unwrap();
            db.push(e);
        }
        assert_eq!(greedy_owners(&db, 2), vec![0, 1, 1]);
    }

    #[test]
    fn plan_rejects_degenerate_configs() {
        let db = chain_db(3);
        let no_shards = PlanConfig { n_shards: 0, ..PlanConfig::default() };
        assert!(plan_shards(&db, &no_shards).unwrap_err().contains("shard"));
        let no_replicas = PlanConfig { replicas: 0, ..PlanConfig::default() };
        assert!(plan_shards(&db, &no_replicas).unwrap_err().contains("replica"));
        let overflow = PlanConfig { base_port: u16::MAX, ..PlanConfig::default() };
        assert!(plan_shards(&db, &overflow).unwrap_err().contains("overflows"));
        assert!(plan_shards(&GraphDb::new(), &PlanConfig::default()).is_err());
        // More shards than graphs is a plan: the extra shards own nothing.
        let wide = plan_shards(&db, &PlanConfig { n_shards: 5, ..PlanConfig::default() }).unwrap();
        assert_eq!(wide.topology.shards[4].owned, Vec::<GraphId>::new());
    }

    #[test]
    fn planned_addresses_are_dense_and_disjoint() {
        let db = chain_db(4);
        let cfg = PlanConfig { n_shards: 2, replicas: 2, base_port: 9000, ..PlanConfig::default() };
        let plan = plan_shards(&db, &cfg).unwrap();
        assert_eq!(plan.topology.router_addr, "127.0.0.1:9000");
        assert_eq!(plan.topology.shards[0].replicas, vec!["127.0.0.1:9001", "127.0.0.1:9002"]);
        assert_eq!(plan.topology.shards[1].replicas, vec!["127.0.0.1:9003", "127.0.0.1:9004"]);
    }
}
