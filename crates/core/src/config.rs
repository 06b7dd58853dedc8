//! Configuration of the PartMiner pipeline.

use graphmine_graph::{Support, DEFAULT_EMBEDDING_BUDGET};
use graphmine_partition::{Bipartitioner, Criteria, GraphPart, MetisLike};

/// Which bi-partitioner Phase 1 uses.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PartitionerKind {
    /// The paper's `GraphPart` with a `(λ1, λ2)` criteria setting.
    GraphPart(Criteria),
    /// The METIS-style multilevel baseline (Fig. 13's "METIS" series).
    Metis,
}

impl PartitionerKind {
    pub(crate) fn build(&self) -> Box<dyn Bipartitioner> {
        match *self {
            PartitionerKind::GraphPart(c) => Box::new(GraphPart::new(c)),
            PartitionerKind::Metis => Box::new(MetisLike),
        }
    }

    /// Display name for experiment reports.
    pub fn name(&self) -> &'static str {
        match *self {
            PartitionerKind::GraphPart(c) => {
                if c.lambda2 == 0.0 {
                    "Partition1"
                } else if c.lambda1 == 0.0 {
                    "Partition2"
                } else {
                    "Partition3"
                }
            }
            PartitionerKind::Metis => "METIS",
        }
    }
}

/// Full PartMiner configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PartMinerConfig {
    /// Number of units `k` (the paper varies 2–6; determined by available
    /// memory in deployment).
    pub k: usize,
    /// Phase-1 partitioner.
    pub partitioner: PartitionerKind,
    /// Read by nothing: `threads` alone decides the schedule. Declared only
    /// because `bench/e2e` still names it; the benchmark PR of ROADMAP 1(a)
    /// deletes it.
    #[doc(hidden)]
    pub parallel: bool,
    /// Optional pattern-size cap (edges).
    pub max_edges: Option<usize>,
    /// Ignored: supports are always exact. Declared only because
    /// `bench/e2e` still names it; the benchmark PR of ROADMAP 1(a)
    /// deletes it.
    #[doc(hidden)]
    pub exact_supports: bool,
    /// Ignored: the merge-join keeps no embedding store to budget.
    /// Declared only because `bench/e2e` still names it; the benchmark PR
    /// of ROADMAP 1(a) deletes it.
    #[doc(hidden)]
    pub embedding_budget_bytes: usize,
    /// Workers of the run's executor: `1` (the default) runs inline, `n`
    /// runs `n` workers, `0` uses every core. Resolved once per run by
    /// [`resolve_threads`](crate::resolve_threads), never per batch.
    pub threads: usize,
}

impl Default for PartMinerConfig {
    fn default() -> Self {
        PartMinerConfig {
            k: 2,
            partitioner: PartitionerKind::GraphPart(Criteria::COMBINED),
            parallel: false,
            max_edges: None,
            exact_supports: true,
            embedding_budget_bytes: DEFAULT_EMBEDDING_BUDGET,
            threads: 1,
        }
    }
}

impl PartMinerConfig {
    /// A configuration with `k` units and defaults elsewhere.
    pub fn with_k(k: usize) -> Self {
        PartMinerConfig { k, ..Default::default() }
    }

    /// The unit-level support threshold for a node at `depth` in the split
    /// tree: `ceil(minsup / 2^depth)`, clamped to at least 1 — the paper's
    /// `sup/k` (units) and `sup/2^i` (intermediate merges).
    pub fn depth_support(min_support: Support, depth: usize) -> Support {
        let denom = 1u64 << depth.min(31);
        u64::from(min_support).div_ceil(denom).max(1) as Support
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn depth_support_matches_paper_scaling() {
        assert_eq!(PartMinerConfig::depth_support(100, 0), 100);
        assert_eq!(PartMinerConfig::depth_support(100, 1), 50);
        assert_eq!(PartMinerConfig::depth_support(100, 2), 25);
        assert_eq!(PartMinerConfig::depth_support(101, 1), 51, "rounds up");
        assert_eq!(PartMinerConfig::depth_support(1, 5), 1, "clamped to 1");
    }

    #[test]
    fn thread_budget_resolution_order() {
        use crate::{resolve_threads, ThreadsOutOfRange, MAX_THREADS};
        // The default runs inline; an explicit count is taken as given.
        assert_eq!(resolve_threads(PartMinerConfig::default().threads), Ok(1));
        let cfg = PartMinerConfig { threads: 3, ..Default::default() };
        assert_eq!(resolve_threads(cfg.threads), Ok(3));
        assert_eq!(resolve_threads(MAX_THREADS), Ok(MAX_THREADS));

        // Out-of-range budgets are rejected, not clamped or panicked on.
        let cfg = PartMinerConfig { threads: MAX_THREADS + 1, ..Default::default() };
        let err = resolve_threads(cfg.threads).unwrap_err();
        assert_eq!(err, ThreadsOutOfRange { requested: MAX_THREADS + 1 });
        assert_eq!(err.to_string(), "thread budget 1025 exceeds the maximum of 1024");

        // 0 → every core the machine reports.
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        assert_eq!(resolve_threads(0), Ok(cores));
    }

    #[test]
    fn partitioner_names() {
        use graphmine_partition::Criteria;
        assert_eq!(PartitionerKind::GraphPart(Criteria::ISOLATE_UPDATES).name(), "Partition1");
        assert_eq!(PartitionerKind::GraphPart(Criteria::MIN_CONNECTIVITY).name(), "Partition2");
        assert_eq!(PartitionerKind::GraphPart(Criteria::COMBINED).name(), "Partition3");
        assert_eq!(PartitionerKind::Metis.name(), "METIS");
    }
}
