//! IncPartMiner (Fig. 12): incremental mining under updates.
//!
//! The update batch is propagated through the partition tree; only units
//! whose pieces changed are re-mined, and only tree nodes on the path from
//! a changed piece to the root are re-merged — untouched subtrees reuse
//! their cached results (their databases are bit-identical, so their
//! results are too). The re-merge is the ordinary merge-join, so every
//! support in the new result is counted on the updated data; `UF`/`FI`/`IF`
//! are set differences against the pre-update result. Fig. 12's prune set
//! (lines 1–2, 10, 14–17) is not built: it spares a count the walk has
//! already made by the time it could ask.

use std::time::{Duration, Instant};

use rustc_hash::FxHashSet;

use graphmine_exec::{Executor, Job};
use graphmine_graph::{DbUpdate, GraphError, PatternSet};
use graphmine_miner::{GSpan, MemoryMiner};
use graphmine_partition::NodeId;
use graphmine_telemetry::{Counter, ReportSource, StageTotal, Telemetry};

use crate::merge_join::MergeStats;
use crate::partminer::{
    executor_for, fault_panic_hook, merge_subtree, mirror_exec_counters, PartMinerState,
};
use crate::PartMinerConfig;

/// Work counters of one incremental update round.
#[derive(Debug, Clone, Default)]
pub struct IncStats {
    /// Units whose pieces changed and were re-mined.
    pub units_remined: usize,
    /// Internal tree nodes re-merged.
    pub nodes_remerged: usize,
    /// Time spent re-mining units.
    pub unit_time: Duration,
    /// Time spent re-merging.
    pub merge_time: Duration,
    /// Total elapsed time.
    pub wall: Duration,
    /// Merge-join counters of the re-merged nodes.
    pub merge: MergeStats,
}

impl ReportSource for IncStats {
    fn stage_totals(&self) -> Vec<StageTotal> {
        vec![
            StageTotal {
                name: "inc_remine".into(),
                total_ns: self.unit_time.as_nanos() as u64,
                count: self.units_remined as u64,
            },
            StageTotal {
                name: "merge_join".into(),
                total_ns: self.merge_time.as_nanos() as u64,
                count: self.nodes_remerged as u64,
            },
        ]
    }

    fn counter_totals(&self) -> Vec<(&'static str, u64)> {
        let mut out = self.merge.counter_totals();
        out.push((Counter::UnitsMined.name(), self.units_remined as u64));
        out
    }
}

/// Result of one incremental round: the paper's three pattern classes plus
/// the full post-update result.
pub struct IncOutcome {
    /// `UF` — patterns frequent before and after.
    pub uf: PatternSet,
    /// `FI` — previously frequent patterns that became infrequent.
    pub fi: PatternSet,
    /// `IF` — previously infrequent patterns that became frequent.
    pub if_new: PatternSet,
    /// The complete post-update result `P(D')`.
    pub patterns: PatternSet,
    /// Work counters.
    pub stats: IncStats,
}

/// The incremental extension of PartMiner.
#[derive(Debug, Clone, Copy, Default)]
pub struct IncPartMiner;

impl IncPartMiner {
    /// Applies `updates` to the state's partitioned database and brings the
    /// mining result up to date incrementally.
    ///
    /// # Errors
    ///
    /// Fails on the first inapplicable update; updates up to that point
    /// remain applied (mirror the database you feed updates from, or
    /// validate the batch up front).
    pub fn update(
        state: &mut PartMinerState,
        updates: &[DbUpdate],
    ) -> Result<IncOutcome, GraphError> {
        IncPartMiner::update_instrumented(state, updates, &Telemetry::new())
    }

    /// [`IncPartMiner::update`] recording spans and counters into `tel`:
    /// one `inc_remine` span per re-mined unit, `merge_join` spans for the
    /// re-merged nodes, and the UF/FI/IF tallies.
    pub fn update_instrumented(
        state: &mut PartMinerState,
        updates: &[DbUpdate],
        tel: &Telemetry,
    ) -> Result<IncOutcome, GraphError> {
        let exec = executor_for(&state.config);
        IncPartMiner::update_on(state, updates, &exec, tel)
    }

    /// [`IncPartMiner::update_instrumented`] on a caller-provided
    /// executor: touched-unit re-mining and the merge-join's walk fan
    /// out over `exec`'s budget regardless of `config.parallel`, so one
    /// pool serves initial mining, merging, and update rounds alike.
    pub fn update_on(
        state: &mut PartMinerState,
        updates: &[DbUpdate],
        exec: &Executor,
        tel: &Telemetry,
    ) -> Result<IncOutcome, GraphError> {
        let start = Instant::now();
        let cfg = state.config;
        let exec_before = exec.counters();
        let root = state.partition.root_id();
        let old_pd = state.node_results[&root].clone();

        // 1. Propagate updates, collecting every touched node.
        let mut touched: FxHashSet<NodeId> = FxHashSet::default();
        for up in updates {
            let impact = state.partition.apply_update_impact(*up)?;
            touched.extend(impact.nodes);
        }

        // 2. Re-mine the touched units (lines 3-9) on the shared executor,
        // one labeled job per unit — the same fan-out shape as the initial
        // mining (inline when the budget is a single thread).
        let t_units = Instant::now();
        #[cfg(feature = "fault-injection")]
        let stale = usize::from(graphmine_graph::fault::armed(
            graphmine_graph::fault::Fault::SkipUnitRemine,
        ));
        #[cfg(not(feature = "fault-injection"))]
        let stale = 0;
        let touched_units: Vec<NodeId> = (0..state.partition.unit_count())
            .map(|j| state.partition.unit_node_id(j))
            .filter(|n| touched.contains(n))
            .skip(stale)
            .collect();
        let units_remined = touched_units.len();
        let partition = &state.partition;
        let miner = &GSpan { max_edges: cfg.max_edges };
        let jobs: Vec<Job<'_, PatternSet>> = touched_units
            .iter()
            .map(|&n| {
                let node = partition.node(n);
                let unit = node.unit.expect("leaf");
                let sup = PartMinerConfig::depth_support(state.min_support, node.depth);
                Job::new(format!("inc-remine:{unit}"), move || {
                    let span = tel.span_node("inc_remine", n as u64);
                    fault_panic_hook(unit);
                    let res = miner.mine_counted(&node.db, sup, tel.counters());
                    drop(span);
                    tel.counters().bump(Counter::UnitsMined);
                    res
                })
            })
            .collect();
        let remined =
            exec.map_indexed(jobs).unwrap_or_else(|e| panic!("incremental re-mining failed: {e}"));
        state.node_results.extend(touched_units.into_iter().zip(remined));
        let unit_time = t_units.elapsed();

        // 3. Re-merge the touched internal nodes bottom-up (lines 11-12);
        // untouched subtrees keep their cached results.
        let t_merge = Instant::now();
        let mut merge = MergeStats::default();
        let mut nodes_remerged = 0;
        for &n in &touched {
            if state.partition.node(n).children.is_some() {
                state.node_results.remove(&n);
                nodes_remerged += 1;
            }
        }
        merge_subtree(
            &cfg,
            &state.partition,
            root,
            state.min_support,
            &mut state.node_results,
            &mut merge,
            exec,
            tel,
        );
        let merge_time = t_merge.elapsed();
        mirror_exec_counters(tel, exec, exec_before);

        // 4. Classify (lines 13-15).
        let new_pd = state.node_results[&root].clone();
        let if_new = new_pd.difference(&old_pd);
        let uf = new_pd.difference(&if_new);
        let fi = old_pd.difference(&new_pd);
        tel.counters().add(Counter::IncUnchangedFrequent, uf.len() as u64);
        tel.counters().add(Counter::IncFrequentToInfrequent, fi.len() as u64);
        tel.counters().add(Counter::IncInfrequentToFrequent, if_new.len() as u64);

        let stats = IncStats {
            units_remined,
            nodes_remerged,
            unit_time,
            merge_time,
            wall: start.elapsed(),
            merge,
        };
        Ok(IncOutcome { uf, fi, if_new, patterns: new_pd, stats })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{PartMiner, PartMinerConfig};
    use graphmine_graph::{Graph, GraphDb, GraphUpdate};

    fn sample_db() -> (GraphDb, Vec<Vec<f64>>) {
        let mut graphs = Vec::new();
        for i in 0..6u32 {
            let mut g = Graph::new();
            for j in 0..6 {
                g.add_vertex(j % 2);
            }
            g.add_edge(0, 1, 0).unwrap();
            g.add_edge(1, 2, 1).unwrap();
            g.add_edge(2, 3, 0).unwrap();
            g.add_edge(3, 4, 1).unwrap();
            g.add_edge(4, 5, 0).unwrap();
            if i % 2 == 0 {
                g.add_edge(5, 0, 1).unwrap();
            }
            graphs.push(g);
        }
        // Vertex 5 of every graph is the hot one.
        let ufreq = (0..6).map(|_| vec![0.0, 0.0, 0.0, 0.0, 0.0, 3.0]).collect();
        (GraphDb::from_graphs(graphs), ufreq)
    }

    #[test]
    fn incremental_equals_recompute() {
        let (db, uf) = sample_db();
        let cfg = PartMinerConfig::with_k(3);
        let outcome = PartMiner::new(cfg).mine(&db, &uf, 2);
        let mut state = outcome.state;

        let updates = vec![
            DbUpdate { gid: 0, update: GraphUpdate::RelabelVertex { v: 5, label: 9 } },
            DbUpdate { gid: 1, update: GraphUpdate::AddEdge { u: 1, v: 4, label: 7 } },
            DbUpdate {
                gid: 2,
                update: GraphUpdate::AddVertex { label: 9, attach_to: 5, elabel: 7 },
            },
        ];
        let inc = IncPartMiner::update(&mut state, &updates).unwrap();

        // Recompute from scratch on the updated database.
        let mut db2 = db.clone();
        graphmine_graph::update::apply_all(&mut db2, &updates).unwrap();
        let direct = GSpan::new().mine(&db2, 2);
        assert!(
            inc.patterns.same_codes_and_supports(&direct),
            "incremental {} vs direct {}",
            inc.patterns.len(),
            direct.len()
        );
        assert!(inc.stats.units_remined >= 1);
        assert!(inc.stats.units_remined <= 3);
    }

    #[test]
    fn an_update_copies_only_the_graph_it_touches() {
        let (db, uf) = sample_db();
        let pristine: GraphDb = db.iter().map(|(_, g)| g.clone()).collect();
        let mut state = PartMiner::new(PartMinerConfig::with_k(3)).mine(&db, &uf, 2).state;
        let updates = [DbUpdate { gid: 1, update: GraphUpdate::AddEdge { u: 1, v: 4, label: 7 } }];
        IncPartMiner::update(&mut state, &updates).unwrap();
        let root = &state.partition.root().db;
        for gid in 0..db.len() as u32 {
            assert_eq!(root.shares_graph(&db, gid), gid != 1, "gid {gid}");
        }
        assert_eq!(db, pristine, "the caller's database is unchanged");
        let mut want = pristine;
        graphmine_graph::update::apply_all(&mut want, &updates).unwrap();
        assert_eq!(*root, want);
    }

    #[test]
    fn incremental_handles_deletes() {
        let (db, uf) = sample_db();
        let cfg = PartMinerConfig::with_k(3);
        let outcome = PartMiner::new(cfg).mine(&db, &uf, 2);
        let mut state = outcome.state;
        let mut mirror = db.clone();

        // Shrinking batches: a plain edge delete, a cascade that drops a
        // vertex with two incident edges, and a delete chained after an
        // add in the same batch (ids resolve against the running state).
        let batches: Vec<Vec<DbUpdate>> = vec![
            vec![DbUpdate { gid: 0, update: GraphUpdate::DeleteEdge { e: 1 } }],
            vec![DbUpdate { gid: 1, update: GraphUpdate::DeleteVertex { v: 3 } }],
            vec![
                DbUpdate {
                    gid: 2,
                    update: GraphUpdate::AddVertex { label: 9, attach_to: 0, elabel: 7 },
                },
                DbUpdate { gid: 2, update: GraphUpdate::DeleteVertex { v: 5 } },
            ],
        ];
        for (round, updates) in batches.iter().enumerate() {
            graphmine_graph::update::apply_all(&mut mirror, updates).unwrap();
            let inc = IncPartMiner::update(&mut state, updates).unwrap();
            assert!(inc.stats.units_remined >= 1, "round {round} touched no unit");
            let direct = GSpan::new().mine(&mirror, 2);
            assert!(
                inc.patterns.same_codes_and_supports(&direct),
                "round {round}: incremental {} vs direct {}",
                inc.patterns.len(),
                direct.len()
            );
        }
    }

    #[test]
    fn delete_drops_support_into_fi() {
        // Graphs 0, 2, 4 carry the closing edge (5,0); deleting it from
        // graph 0 drops cycle-dependent patterns' support below their
        // pre-update count, so the re-merge must route them into FI rather
        // than letting stale supports survive.
        let (db, uf) = sample_db();
        let cfg = PartMinerConfig::with_k(3);
        let outcome = PartMiner::new(cfg).mine(&db, &uf, 3);
        let mut state = outcome.state;
        let updates = vec![DbUpdate { gid: 0, update: GraphUpdate::DeleteEdge { e: 5 } }];
        let inc = IncPartMiner::update(&mut state, &updates).unwrap();
        let mut db2 = db.clone();
        graphmine_graph::update::apply_all(&mut db2, &updates).unwrap();
        let direct = GSpan::new().mine(&db2, 3);
        assert!(inc.patterns.same_codes_and_supports(&direct));
        assert!(!inc.fi.is_empty(), "losing a closing edge must demote some pattern");
    }

    #[test]
    fn classification_is_exhaustive_and_disjoint() {
        let (db, uf) = sample_db();
        let cfg = PartMinerConfig::with_k(2);
        let outcome = PartMiner::new(cfg).mine(&db, &uf, 3);
        let old = outcome.patterns.clone();
        let mut state = outcome.state;

        // Heavy relabeling: many patterns change.
        let updates: Vec<DbUpdate> = (0..4)
            .map(|gid| DbUpdate { gid, update: GraphUpdate::RelabelVertex { v: 1, label: 8 } })
            .collect();
        let inc = IncPartMiner::update(&mut state, &updates).unwrap();

        // UF ∪ IF = P(D'), disjoint.
        for p in inc.patterns.iter() {
            let in_uf = inc.uf.contains(&p.code);
            let in_if = inc.if_new.contains(&p.code);
            assert!(in_uf ^ in_if, "{} must be in exactly one of UF/IF", p.code);
        }
        // FI = old \ new.
        for p in old.iter() {
            assert_eq!(inc.fi.contains(&p.code), !inc.patterns.contains(&p.code), "{}", p.code);
        }
        // UF members were frequent before.
        for p in inc.uf.iter() {
            assert!(old.contains(&p.code));
        }
        // IF members were not.
        for p in inc.if_new.iter() {
            assert!(!old.contains(&p.code));
        }
    }

    #[test]
    fn untouched_units_are_not_remined() {
        let (db, uf) = sample_db();
        let cfg = PartMinerConfig::with_k(4);
        let outcome = PartMiner::new(cfg).mine(&db, &uf, 2);
        let mut state = outcome.state;
        // A single vertex relabel touches at most the units holding it.
        let owning = state.partition.units_containing_vertex(0, 2);
        let inc = IncPartMiner::update(
            &mut state,
            &[DbUpdate { gid: 0, update: GraphUpdate::RelabelVertex { v: 2, label: 9 } }],
        )
        .unwrap();
        assert_eq!(inc.stats.units_remined, owning.len());
        assert!(inc.stats.units_remined < 4, "not all units re-mined");
    }

    #[test]
    fn repeated_update_rounds_stay_consistent() {
        let (db, uf) = sample_db();
        let cfg = PartMinerConfig::with_k(3);
        let outcome = PartMiner::new(cfg).mine(&db, &uf, 2);
        let mut state = outcome.state;
        let mut mirror = db.clone();
        for round in 0..3u32 {
            let updates = vec![DbUpdate {
                gid: round,
                update: GraphUpdate::AddVertex { label: round + 10, attach_to: 0, elabel: 5 },
            }];
            graphmine_graph::update::apply_all(&mut mirror, &updates).unwrap();
            let inc = IncPartMiner::update(&mut state, &updates).unwrap();
            let direct = GSpan::new().mine(&mirror, 2);
            assert!(inc.patterns.same_codes_and_supports(&direct), "round {round}");
        }
    }

    #[test]
    fn parallel_incremental_matches_serial() {
        let (db, uf) = sample_db();
        let updates: Vec<DbUpdate> = (0..4)
            .map(|gid| DbUpdate { gid, update: GraphUpdate::RelabelVertex { v: 2, label: 7 } })
            .collect();
        let mut results = Vec::new();
        for parallel in [false, true] {
            let mut cfg = PartMinerConfig::with_k(4);
            cfg.parallel = parallel;
            let outcome = PartMiner::new(cfg).mine(&db, &uf, 2);
            let mut state = outcome.state;
            let inc = IncPartMiner::update(&mut state, &updates).unwrap();
            results.push(inc.patterns);
        }
        assert!(results[0].same_codes_and_supports(&results[1]));
    }

    #[test]
    fn invalid_update_errors() {
        let (db, uf) = sample_db();
        let outcome = PartMiner::new(PartMinerConfig::with_k(2)).mine(&db, &uf, 2);
        let mut state = outcome.state;
        let res = IncPartMiner::update(
            &mut state,
            &[DbUpdate { gid: 99, update: GraphUpdate::RelabelVertex { v: 0, label: 0 } }],
        );
        assert!(res.is_err());
    }
}
