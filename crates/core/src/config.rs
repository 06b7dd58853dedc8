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
    /// Mine units concurrently (the paper's "parallel mode").
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
    /// Thread budget for the shared executor in parallel mode. `0` means
    /// auto: the `GRAPHMINE_THREADS` environment variable if set, else
    /// `std::thread::available_parallelism()`. Resolved once per run via
    /// [`PartMinerConfig::thread_budget`], never per batch.
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
            threads: 0,
        }
    }
}

/// A rejected configuration value, reported instead of panicking deep in
/// the pipeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// `threads` (or `GRAPHMINE_THREADS`) exceeds the sanity cap.
    ThreadsOutOfRange {
        /// The rejected value.
        requested: usize,
        /// The largest accepted budget.
        max: usize,
    },
    /// `GRAPHMINE_THREADS` is set but not a non-negative integer.
    ThreadsEnvInvalid {
        /// The unparsable value.
        value: String,
    },
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::ThreadsOutOfRange { requested, max } => {
                write!(f, "thread budget {requested} exceeds the maximum of {max}")
            }
            ConfigError::ThreadsEnvInvalid { value } => {
                write!(f, "GRAPHMINE_THREADS is not a non-negative integer: `{value}`")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// Sanity cap on the thread budget — anything larger is a unit mix-up
/// (e.g. a byte budget landing in `threads`), not a real machine.
pub const MAX_THREADS: usize = 1024;

impl PartMinerConfig {
    /// A configuration with `k` units and defaults elsewhere.
    pub fn with_k(k: usize) -> Self {
        PartMinerConfig { k, ..Default::default() }
    }

    /// Resolves the executor's thread budget, once per run:
    /// `self.threads` if nonzero, else `GRAPHMINE_THREADS` if set, else
    /// `std::thread::available_parallelism()`, else 1. Rejects budgets
    /// above [`MAX_THREADS`] and unparsable environment values.
    pub fn thread_budget(&self) -> Result<usize, ConfigError> {
        let resolved = if self.threads != 0 {
            self.threads
        } else if let Ok(value) = std::env::var("GRAPHMINE_THREADS") {
            let parsed: usize = value
                .trim()
                .parse()
                .map_err(|_| ConfigError::ThreadsEnvInvalid { value: value.clone() })?;
            if parsed == 0 {
                std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
            } else {
                parsed
            }
        } else {
            std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
        };
        if resolved > MAX_THREADS {
            return Err(ConfigError::ThreadsOutOfRange { requested: resolved, max: MAX_THREADS });
        }
        Ok(resolved)
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
        // Explicit nonzero config wins without consulting the environment.
        let cfg = PartMinerConfig { threads: 3, ..Default::default() };
        assert_eq!(cfg.thread_budget(), Ok(3));

        // Out-of-range budgets are rejected, not clamped or panicked on.
        let cfg = PartMinerConfig { threads: MAX_THREADS + 1, ..Default::default() };
        assert_eq!(
            cfg.thread_budget(),
            Err(ConfigError::ThreadsOutOfRange { requested: MAX_THREADS + 1, max: MAX_THREADS })
        );

        // 0 → auto: env var, then available_parallelism. One test owns the
        // env var to avoid cross-test races.
        let auto = PartMinerConfig::default();
        std::env::set_var("GRAPHMINE_THREADS", "5");
        assert_eq!(auto.thread_budget(), Ok(5));
        std::env::set_var("GRAPHMINE_THREADS", "bogus");
        assert_eq!(
            auto.thread_budget(),
            Err(ConfigError::ThreadsEnvInvalid { value: "bogus".to_string() })
        );
        std::env::set_var("GRAPHMINE_THREADS", "0");
        let detected = auto.thread_budget().unwrap();
        assert!(detected >= 1);
        std::env::remove_var("GRAPHMINE_THREADS");
        assert!(auto.thread_budget().unwrap() >= 1);
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
