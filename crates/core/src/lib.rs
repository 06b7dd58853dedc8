//! PartMiner and IncPartMiner — partition-based (incremental) frequent
//! subgraph mining, the primary contribution of *A Partition-Based Approach
//! to Graph Mining* (Wang, Hsu, Lee, Sheng — ICDE 2006).
//!
//! # Pipeline
//!
//! 1. **Phase 1** ([`graphmine_partition::DbPartition`]): every graph in the
//!    database is recursively bi-partitioned; the `j`-th pieces form unit
//!    `U_j`. The partitioner is pluggable (`GraphPart` with the paper's
//!    three criteria, or the METIS-style baseline).
//! 2. **Phase 2** ([`PartMiner::mine`]): each unit is mined with gSpan at
//!    the reduced support `sup / 2^depth`, serially or in parallel, and the
//!    per-unit results are combined bottom-up with the [`merge_join`]
//!    operation: the same projected walk
//!    ([`graphmine_miner::walk`]) over the recombined data, which reads
//!    every child pattern, with its exact support, off its parent's
//!    occurrences. A pattern already
//!    frequent inside a single unit is accepted on that unit's word as
//!    frequent and canonical — the paper's "cumulative information" —
//!    which spares it the canonical-code test, never the exact support.
//! 3. **Updates** ([`IncPartMiner`]): updates are propagated through the
//!    partition tree; only units whose pieces changed are re-mined, only
//!    the tree nodes above them are re-merged (cached subtree results are
//!    reused for untouched nodes), and the output is the paper's three
//!    classes: `UF` (unchanged), `FI` (frequent→infrequent) and `IF`
//!    (infrequent→frequent). Every support is counted on the updated data;
//!    Fig. 12's prune set, which spares counts the walk makes anyway, is
//!    not built.
//!
//! # One join
//!
//! The merge-join is provably lossless (gSpan's rightmost-extension
//! argument — the property the paper's Theorems 1–3 claim) and every
//! reported support is exact; both are verified against plain gSpan by the
//! integration tests and the oracle. The joins exactly as written in
//! Fig. 11 (`P^k(S0)×F^k`, `P^k(S1)×F^k`, `F^k×F^k`), which can miss
//! patterns whose occurrences only materialise across the cut, are kept
//! outside this crate as the paper-literal join `repro ablation` times;
//! see DESIGN.md.
//!
//! # Example
//!
//! ```
//! use graphmine_core::{IncPartMiner, PartMiner, PartMinerConfig};
//! use graphmine_graph::{DbUpdate, Graph, GraphDb, GraphUpdate};
//!
//! // Three small graphs sharing a labeled path.
//! let db: GraphDb = (0..3)
//!     .map(|i| {
//!         let mut g = Graph::new();
//!         let a = g.add_vertex(0);
//!         let b = g.add_vertex(1);
//!         let c = g.add_vertex(2);
//!         g.add_edge(a, b, 10).unwrap();
//!         g.add_edge(b, c, 11).unwrap();
//!         if i == 0 {
//!             g.add_edge(c, a, 12).unwrap();
//!         }
//!         g
//!     })
//!     .collect();
//!
//! // Mine with 2 units (a static database: no update frequencies);
//! // everything appearing in all 3 graphs is frequent.
//! let outcome = PartMiner::new(PartMinerConfig::with_k(2)).mine(&db, &[], 3);
//! assert_eq!(outcome.patterns.len(), 3); // two edges + the 2-edge path
//!
//! // Update one graph and refresh incrementally.
//! let mut state = outcome.state;
//! let update = DbUpdate { gid: 1, update: GraphUpdate::RelabelVertex { v: 0, label: 9 } };
//! let inc = IncPartMiner::update(&mut state, &[update]).unwrap();
//! // The patterns involving the re-labeled vertex dropped below support 3.
//! assert!(!inc.fi.is_empty());
//! assert_eq!(inc.patterns.len(), inc.uf.len() + inc.if_new.len());
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod config;
mod fold;
mod incremental;
mod merge_join;
mod partminer;

pub use config::{PartMinerConfig, PartitionerKind};
pub use fold::{fold_delta, touched_graphs, walk_with_border, Border};
pub use incremental::{IncOutcome, IncPartMiner, IncStats};
pub use merge_join::{merge_join, MergeContext};
pub use partminer::{MineOutcome, MineStats, PartMiner, PartMinerState, PoolRunner};

// The shared pool and its one `threads` resolver, re-exported so pipeline
// callers (CLI, oracle, serving daemon) can build one pool and lend it to
// [`PartMiner::mine_on`] / [`IncPartMiner::update_on`] / [`MergeContext`],
// which holds it by reference (a one-thread pool walks serially).
pub use graphmine_exec::{
    resolve_threads, ExecCounters, ExecError, Executor, Job, ThreadsOutOfRange, MAX_THREADS,
};
