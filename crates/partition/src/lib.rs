//! Graph and database partitioning (Phase 1 of PartMiner).
//!
//! * [`GraphPart`] — the paper's bi-partitioning algorithm (Fig. 5): a
//!   greedy ufreq-ordered DFS grows candidate vertex subsets, scored with
//!   the weight function `w(V1) = λ1·avg_ufreq(V1) − λ2·|E(V1,V2)|`
//!   (equation 1), trading off isolation of frequently-updated vertices
//!   against cut size. The three λ settings of Section 5.1.1 are provided
//!   as [`Criteria`] constants.
//! * [`MetisLike`] — the METIS baseline: multilevel bisection with
//!   heavy-edge-matching coarsening, greedy region-growing initial
//!   partition, and FM-style boundary refinement.
//! * [`split_by_sides`] — turns a side assignment into two *pieces*, each
//!   keeping the connective (cut) edges so the original graph can be
//!   recovered (Fig. 4), together with vertex/edge maps back to the parent.
//! * [`DbPartition`] — the recursive database partition of Fig. 6
//!   (`DBPartition`): a binary tree whose `k` leaves are the mining units,
//!   gid-aligned with the original database, with incremental update
//!   propagation ([`DbPartition::apply_update`]) that reports which units
//!   an update actually touched — the input IncPartMiner needs.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod dbpart;
mod graphpart;
mod metis;
mod split;

pub use dbpart::{DbPartition, NodeId, PartNode, UpdateImpact, SPLIT_RANGE};
pub use graphpart::{AssignScratch, Criteria, GraphPart};
pub use metis::MetisLike;
pub use split::{split_by_sides, Piece, Split};

use graphmine_graph::Graph;

/// A graph bi-partitioner: assigns every vertex to side 1 (`true`, the
/// paper's `V*`) or side 2 (`false`). Shareable across threads: a database
/// split calls it for many graphs at once, each caller with its own buffers.
pub trait Bipartitioner: Send + Sync {
    /// Writes the side assignment for `g` into `sides`, replacing what it
    /// held; `ufreq[v]` is the update frequency of vertex `v` (ignored by
    /// partitioners that do not use it). `scratch` is working space the
    /// partitioner may reuse: what one call leaves there never changes the
    /// next call's result, so a loop over many graphs passes the same
    /// buffers every time and allocates nothing once they have grown.
    fn assign(&self, g: &Graph, ufreq: &[f64], sides: &mut Vec<bool>, scratch: &mut AssignScratch);

    /// [`Bipartitioner::assign`] into fresh buffers, for a caller that
    /// assigns one graph.
    fn sides(&self, g: &Graph, ufreq: &[f64]) -> Vec<bool> {
        let mut sides = Vec::new();
        self.assign(g, ufreq, &mut sides, &mut AssignScratch::default());
        sides
    }

    /// Human-readable name for reports.
    fn name(&self) -> &'static str;
}

/// One independent piece of work, named for diagnostics. It writes its
/// result where it was told to; nothing comes back.
pub struct WorkItem<'a> {
    /// What the item is, e.g. `split:0:512..1024` — a runner that catches a
    /// panic reports it under this name.
    pub label: String,
    /// The work.
    pub run: Box<dyn FnOnce() + Send + 'a>,
}

/// Whatever runs a batch of independent work items — this crate builds the
/// items and stays ignorant of thread pools; the caller that owns one
/// passes it in behind this trait.
pub trait BatchRunner {
    /// Runs every item to completion, in any order, on any threads.
    fn run_batch(&self, items: Vec<WorkItem<'_>>);
}

/// The runner of a caller without a pool: every item on the calling thread,
/// in order.
#[derive(Debug, Clone, Copy, Default)]
pub struct Inline;

impl BatchRunner for Inline {
    fn run_batch(&self, items: Vec<WorkItem<'_>>) {
        for item in items {
            (item.run)();
        }
    }
}

/// Number of connective (cut) edges under a side assignment.
pub fn cut_size(g: &Graph, sides: &[bool]) -> usize {
    g.edges().filter(|&(_, u, v, _)| sides[u as usize] != sides[v as usize]).count()
}
