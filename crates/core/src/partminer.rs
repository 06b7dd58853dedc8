//! The PartMiner algorithm (Fig. 11).

use std::time::{Duration, Instant};

use rustc_hash::FxHashMap;

use graphmine_exec::{resolve_threads, ExecCounters, ExecError, Executor, Job};
use graphmine_graph::{GraphDb, PatternSet, Support};
use graphmine_miner::walk::WalkStats;
use graphmine_miner::{GSpan, MemoryMiner};
use graphmine_partition::{BatchRunner, DbPartition, NodeId, WorkItem};
use graphmine_telemetry::{Counter, Telemetry};

use crate::merge_join::{merge_join, MergeContext};
use crate::PartMinerConfig;

/// Oracle mutant hook: a unit-mining job that dies mid-run, proving the
/// executor's labeled panic carries the unit id into the error. Inert (a
/// relaxed atomic load) unless the `fault-injection` feature is on and the
/// fault is armed.
#[inline]
fn fault_panic_hook(unit: usize) {
    #[cfg(feature = "fault-injection")]
    if graphmine_graph::fault::armed(graphmine_graph::fault::Fault::PanicUnitMiner) {
        panic!("injected unit-miner fault in unit {unit}");
    }
    #[cfg(not(feature = "fault-injection"))]
    let _ = unit;
}

/// An [`Executor`] as the partition crate's [`BatchRunner`]: each work item
/// becomes one job under its own label, so the database split shares the
/// pool (and the inline schedule of a one-thread budget) with unit mining
/// and the merge-join.
#[derive(Debug, Clone, Copy)]
pub struct PoolRunner<'e>(pub &'e Executor);

impl BatchRunner for PoolRunner<'_> {
    /// # Panics
    ///
    /// Panics with the [`graphmine_exec::ExecError`] of the first item that
    /// panicked, which names the item.
    fn run_batch(&self, items: Vec<WorkItem<'_>>) {
        let jobs = items.into_iter().map(|item| Job::new(item.label, item.run)).collect();
        self.0.map_indexed(jobs).unwrap_or_else(|e| panic!("database split failed: {e}"));
    }
}

/// Mirrors the executor's scheduling-counter deltas for one run into the
/// telemetry table. The pool may be shared across runs (the oracle reuses
/// one for its whole matrix), so only the delta belongs to this report;
/// the queue peak is a high-water mark and is folded with `max`.
pub(crate) fn mirror_exec_counters(tel: &Telemetry, exec: &Executor, before: ExecCounters) {
    let after = exec.counters();
    let c = tel.counters();
    c.add(Counter::ExecJobs, after.jobs - before.jobs);
    c.add(Counter::ExecPanics, after.panics - before.panics);
    c.max(Counter::ExecQueuePeak, after.queue_peak);
}

/// Timings and work counters of one PartMiner run.
#[derive(Debug, Clone, Default)]
pub struct MineStats {
    /// Phase-1 time (building the partition tree).
    pub partition_time: Duration,
    /// Per-unit mining times, in unit order.
    pub unit_times: Vec<Duration>,
    /// Total merge-join time.
    pub merge_time: Duration,
    /// Actual elapsed wall time of the whole run.
    pub wall: Duration,
    /// The merge-join walks' work, accumulated over all tree nodes.
    pub merge: WalkStats,
}

impl MineStats {
    /// The paper's *serial mode* metric: partitioning plus the **sum** of
    /// unit times plus merging.
    pub fn aggregate_time(&self) -> Duration {
        self.partition_time + self.unit_times.iter().sum::<Duration>() + self.merge_time
    }

    /// The paper's *parallel mode (1 CPU)* metric: partitioning plus the
    /// **maximum** unit time plus merging.
    pub fn parallel_time(&self) -> Duration {
        self.partition_time
            + self.unit_times.iter().max().copied().unwrap_or_default()
            + self.merge_time
    }
}

/// The mining state PartMiner leaves behind: the partition tree and the
/// frequent-pattern set of every tree node. This is exactly what
/// IncPartMiner needs to process updates incrementally.
pub struct PartMinerState {
    /// Configuration the state was produced with.
    pub config: PartMinerConfig,
    /// The (evolving) partition tree.
    pub partition: DbPartition,
    /// Frequent patterns per tree node (units and internal nodes; the root
    /// entry is `P(D)`).
    pub node_results: FxHashMap<NodeId, PatternSet>,
    /// The absolute support threshold the state is maintained at.
    pub min_support: Support,
}

impl PartMinerState {
    /// The current database-level result `P(D)`.
    pub fn patterns(&self) -> &PatternSet {
        &self.node_results[&self.partition.root_id()]
    }
}

/// Result of [`PartMiner::mine`].
pub struct MineOutcome {
    /// The frequent subgraphs of the database.
    pub patterns: PatternSet,
    /// Timings and counters.
    pub stats: MineStats,
    /// Reusable state for incremental updates.
    pub state: PartMinerState,
}

/// The partition-based miner.
#[derive(Debug, Clone, Default)]
pub struct PartMiner {
    /// Pipeline configuration.
    pub config: PartMinerConfig,
}

impl PartMiner {
    /// A PartMiner with the given configuration.
    pub fn new(config: PartMinerConfig) -> Self {
        PartMiner { config }
    }

    /// Mines all frequent subgraphs of `db` at the absolute threshold
    /// `min_support`.
    ///
    /// `ufreq[gid][v]` is the update frequency of each vertex; a static
    /// database passes an empty table (`&[]`).
    ///
    /// # Panics
    ///
    /// Panics if a non-empty `ufreq` is not shaped like `db`, if
    /// `config.k == 0`, or if `config.threads` is above
    /// [`crate::MAX_THREADS`] (the CLI refuses one with [`resolve_threads`]
    /// before anything is loaded).
    pub fn mine(&self, db: &GraphDb, ufreq: &[Vec<f64>], min_support: Support) -> MineOutcome {
        self.mine_instrumented(db, ufreq, min_support, &Telemetry::new())
    }

    /// [`PartMiner::mine`] recording spans and counters into `tel`:
    /// `partition`, one `unit_mine` span per unit, a `merge_join` span per
    /// tree node, and the merge/miner work counters. Runs on an executor of
    /// `config.threads` workers.
    pub fn mine_instrumented(
        &self,
        db: &GraphDb,
        ufreq: &[Vec<f64>],
        min_support: Support,
        tel: &Telemetry,
    ) -> MineOutcome {
        let threads = resolve_threads(self.config.threads)
            .unwrap_or_else(|e| panic!("invalid thread configuration: {e}"));
        self.mine_on(db, ufreq, min_support, &Executor::new(threads), tel)
    }

    /// [`PartMiner::mine_instrumented`] on a caller-provided executor:
    /// unit mining and the merge-join's walk fan out over `exec`'s
    /// workers regardless of `config.threads`, and the same pool can be
    /// shared across runs (the oracle reuses one for its whole PartMiner
    /// matrix) instead of re-resolving a parallelism degree per batch.
    pub fn mine_on(
        &self,
        db: &GraphDb,
        ufreq: &[Vec<f64>],
        min_support: Support,
        exec: &Executor,
        tel: &Telemetry,
    ) -> MineOutcome {
        let start = Instant::now();
        let cfg = &self.config;
        let exec_before = exec.counters();

        // Phase 1: divide the database into units (Fig. 6), each node's
        // split fanned out over the pool in fixed gid ranges.
        let t = Instant::now();
        let span = tel.span("partition");
        let partitioner = cfg.partitioner.build();
        let partition =
            DbPartition::build_on(db, ufreq, partitioner.as_ref(), cfg.k, tel, &PoolRunner(exec));
        drop(span);
        let partition_time = t.elapsed();

        // Phase 2a: mine the units, in unit order, at the reduced support
        // sup/2^depth.
        let unit_nodes: Vec<NodeId> =
            (0..partition.unit_count()).map(|j| partition.unit_node_id(j)).collect();
        let names = ("unit_mine", "unit-mine");
        let mined = mine_units(cfg, &partition, &unit_nodes, min_support, names, exec, tel)
            .unwrap_or_else(|e| panic!("unit mining failed: {e}"));
        let (results, unit_times): (Vec<PatternSet>, Vec<Duration>) = mined.into_iter().unzip();
        let mut node_results: FxHashMap<NodeId, PatternSet> =
            unit_nodes.into_iter().zip(results).collect();

        // Phase 2b: combine bottom-up with the merge-join.
        let t = Instant::now();
        let mut merge = WalkStats::default();
        merge_subtree(
            cfg,
            &partition,
            partition.root_id(),
            min_support,
            &mut node_results,
            &mut merge,
            exec,
            tel,
        );
        let merge_time = t.elapsed();
        mirror_exec_counters(tel, exec, exec_before);

        let patterns = node_results[&partition.root_id()].clone();
        let stats =
            MineStats { partition_time, unit_times, merge_time, wall: start.elapsed(), merge };
        let state = PartMinerState { config: *cfg, partition, node_results, min_support };
        MineOutcome { patterns, stats, state }
    }
}

/// Mines the units backing the tree nodes `nodes`, one executor job each
/// (inline on a single-thread budget): unit `j` at its depth's support, in
/// a `span` span, as the job `{label}:{j}`. Returns each unit's patterns
/// and mining time in `nodes` order, or the first panicking job's error.
pub(crate) fn mine_units(
    cfg: &PartMinerConfig,
    partition: &DbPartition,
    nodes: &[NodeId],
    min_support: Support,
    (span, label): (&'static str, &str),
    exec: &Executor,
    tel: &Telemetry,
) -> Result<Vec<(PatternSet, Duration)>, ExecError> {
    let miner = &GSpan { max_edges: cfg.max_edges };
    let jobs = nodes
        .iter()
        .map(|&n| {
            let node = partition.node(n);
            let unit = node.unit.expect("leaf");
            let sup = PartMinerConfig::depth_support(min_support, node.depth);
            Job::new(format!("{label}:{unit}"), move || {
                let t = Instant::now();
                let span = tel.span_node(span, n as u64);
                fault_panic_hook(unit);
                let res = miner.mine_counted(&node.db, sup, tel.counters());
                drop(span);
                tel.counters().bump(Counter::UnitsMined);
                (res, t.elapsed())
            })
        })
        .collect();
    exec.map_indexed(jobs)
}

/// Post-order merge of a subtree; fills `node_results` for every internal
/// node that does not already have a result.
#[allow(clippy::too_many_arguments)]
pub(crate) fn merge_subtree(
    cfg: &PartMinerConfig,
    partition: &DbPartition,
    node_id: NodeId,
    min_support: Support,
    node_results: &mut FxHashMap<NodeId, PatternSet>,
    stats: &mut WalkStats,
    exec: &Executor,
    tel: &Telemetry,
) {
    if node_results.contains_key(&node_id) {
        return;
    }
    let _span = tel.span_node("merge_join", node_id as u64);
    let (a, b) = partition.node(node_id).children.expect("leaf results are mined, not merged");
    merge_subtree(cfg, partition, a, min_support, node_results, stats, exec, tel);
    merge_subtree(cfg, partition, b, min_support, node_results, stats, exec, tel);
    let node = partition.node(node_id);
    let sup = PartMinerConfig::depth_support(min_support, node.depth);
    let ctx = MergeContext {
        db: &node.db,
        min_support: sup,
        max_edges: cfg.max_edges,
        executor: exec,
        telemetry: tel,
    };
    let (result, mstats) = merge_join(&ctx, &[&node_results[&a], &node_results[&b]]);
    tel.counters().bump(Counter::NodesMerged);
    stats.absorb(mstats);
    node_results.insert(node_id, result);
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphmine_graph::Graph;

    fn sample_db() -> (GraphDb, Vec<Vec<f64>>) {
        let mut graphs = Vec::new();
        for i in 0..8u32 {
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
                g.add_edge(5, 0, 2).unwrap();
            }
            if i % 4 == 0 {
                g.add_edge(1, 4, 2).unwrap();
            }
            graphs.push(g);
        }
        let ufreq = (0..8).map(|_| vec![0.0; 6]).collect();
        (GraphDb::from_graphs(graphs), ufreq)
    }

    #[test]
    fn partminer_equals_gspan_for_all_k() {
        let (db, uf) = sample_db();
        for k in 1..=5 {
            for sup in [2u32, 4] {
                let cfg = PartMinerConfig::with_k(k);
                let outcome = PartMiner::new(cfg).mine(&db, &uf, sup);
                let direct = GSpan::new().mine(&db, sup);
                assert!(
                    outcome.patterns.same_codes_and_supports(&direct),
                    "k={k} sup={sup}: {} vs {}",
                    outcome.patterns.len(),
                    direct.len()
                );
            }
        }
    }

    #[test]
    fn shortcut_mode_same_codes() {
        let (db, uf) = sample_db();
        let cfg = PartMinerConfig::with_k(3);
        let outcome = PartMiner::new(cfg).mine(&db, &uf, 3);
        let direct = GSpan::new().mine(&db, 3);
        assert!(outcome.patterns.same_codes_and_supports(&direct));
    }

    #[test]
    fn parallel_mode_matches_serial() {
        let (db, uf) = sample_db();
        let mut cfg = PartMinerConfig::with_k(4);
        let serial = PartMiner::new(cfg).mine(&db, &uf, 2);
        cfg.threads = 0;
        let parallel = PartMiner::new(cfg).mine(&db, &uf, 2);
        assert!(serial.patterns.same_codes_and_supports(&parallel.patterns));
        assert_eq!(parallel.stats.unit_times.len(), 4);
        // The merge-join walks' stats must not depend on the thread schedule.
        assert_eq!(serial.stats.merge, parallel.stats.merge);
    }

    #[test]
    fn stats_are_populated() {
        let (db, uf) = sample_db();
        let outcome = PartMiner::new(PartMinerConfig::with_k(3)).mine(&db, &uf, 2);
        assert_eq!(outcome.stats.unit_times.len(), 3);
        assert!(outcome.stats.aggregate_time() >= outcome.stats.parallel_time());
        assert_eq!(outcome.state.partition.unit_count(), 3);
        // Every tree node has a result.
        assert_eq!(outcome.state.node_results.len(), outcome.state.partition.node_count());
        assert!(outcome.state.patterns().same_codes(&outcome.patterns));
    }
}
