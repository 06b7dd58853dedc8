//! Process-global fault registry for oracle mutation testing.
//!
//! The correctness oracle (`graphmine-oracle`) proves its own teeth by
//! arming one of the hand-written mutants and checking that the oracle
//! matrix catches it with a replayable repro. The hooks live in the
//! production crates but compile only under the `fault-injection` cargo
//! feature, and even then stay inert — a single relaxed atomic load —
//! until a test arms one through [`arm`].
//!
//! The registry is process-global (mining fans out over threads, so a
//! thread-local would miss the workers); tests that arm faults must
//! serialize themselves around a shared lock.

use std::sync::atomic::{AtomicU8, Ordering};

/// The hand-written mutants the oracle must be able to catch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Fault {
    /// [`crate::dfscode::min_dfs_code`] returns a valid but non-minimal
    /// DFS code (the canonical-form tie-break is broken).
    DfsTieBreak = 1,
    /// The graph splitter forgets to copy one connective edge into the
    /// pieces (it is recorded as connective but lands in neither side).
    DropConnectiveEdge = 2,
    /// `IncPartMiner` leaves one touched unit's result as it was before
    /// the batch, so the re-merge takes the unit-support shortcut on a
    /// stale word and reports patterns whose support fell below θ.
    SkipUnitRemine = 3,
    /// A unit-mining job panics mid-run — proves the shared executor's
    /// labeled panic (`ExecError { label, .. }`) carries the failing
    /// unit id all the way into the reported error.
    PanicUnitMiner = 4,
    /// Per-vertex CSR runs are left unsorted at both places run order is
    /// made: the bulk build ([`crate::Graph::from_edges`]) reverses the
    /// first run with ≥ 2 entries, and the sorted insert behind every
    /// mutator appends instead. This breaks the binary-search contracts of
    /// `edge_between` and `neighbor_range`.
    CsrDrift = 5,
    /// The serving daemon's ingest coalescer treats every superseding
    /// relabel as a cancelled chain and drops the final write, silently
    /// losing an update that should have landed.
    SkipCancelledUpdate = 6,
    /// The scatter/gather router silently discards one shard's reply
    /// while summing owner-restricted supports, undercounting every
    /// pattern whose supporters include that shard's owned graphs.
    DropShardReply = 7,
    /// The sliding-window serving engine skips synthesizing the inverse
    /// batch for a window past the retention horizon, so expired updates
    /// keep contributing to the served patterns forever.
    SkipExpiry = 8,
    /// The router's result cache ignores the global-epoch component of
    /// its key, serving answers cached under an older epoch after an
    /// update has committed — exactly the staleness the epoch-keyed
    /// design is supposed to make impossible.
    ServeStaleCache = 9,
    /// The extension kernel (`rightmost_children`) skips every backward,
    /// cycle-closing extension. gSpan and PartMiner's merge-join share that
    /// kernel, so reference and subject lose the same cyclic patterns and
    /// agree with each other — only the miners that do not use it (Gaston,
    /// Apriori, brute force) can tell.
    DropBackwardChild = 10,
    /// The projected walk gSpan and the merge-join share accepts a
    /// counted-frequent child without the canonical-code test, so patterns
    /// are reported again under non-minimal codes.
    SkipWalkMinCheck = 11,
    /// The projected walk reports a known code (a unit-shortcut hit) with
    /// the unit's lower bound instead of the exact support its list holds —
    /// what the removed lower-bound-supports mode did by default.
    ReportUnitBound = 12,
    /// The router's SON phase 2 trusts the phase-1 union: it asks no shard
    /// about a candidate that shard did not report, so graphs a shard
    /// holds below its local threshold drop out of the gathered support.
    SkipUnreportedRecount = 13,
    /// The daemon's delta fold adds the touched graphs' new occurrences to
    /// the border but never subtracts their old ones, so border supports
    /// only grow. `P(D)` stays exact in the window it happens; only a check
    /// that compares the border with a cold walk's sees it.
    StaleBorderSupport = 14,
    /// The daemon's delta fold leaves a minimal border code that reaches θ
    /// in the border instead of handing the window to a cold walk, so an
    /// infrequent-to-frequent pattern and its subtree never enter `P(D)`.
    SkipBorderExpansion = 15,
    /// The walk's O(1) minimality pre-check
    /// ([`crate::dfscode::last_edge_undercuts_first`]) rejects a child
    /// whose new edge *ties* the code's first edge as well as one that sorts
    /// below it, so minimal children whose new edge repeats the first
    /// edge's labels are lost, with their subtrees, by every miner that
    /// walks.
    PrecheckRejectsMinimal = 16,
    /// The edge-triple screen in front of the embedding search
    /// ([`crate::iso::screened_support`]) counts each triple at most once
    /// per graph, so a graph holding both edges a code needs with one
    /// triple is pruned as if it held one, and the code's support drops.
    ScreenCountsOnce = 17,
}

static ACTIVE: AtomicU8 = AtomicU8::new(0);

/// Arms `fault` until the returned guard is dropped.
///
/// Only one fault can be armed at a time; arming replaces the previous
/// one. The registry is process-global, so tests arming faults must hold
/// a common mutex for the guard's lifetime.
#[must_use = "the fault is disarmed when the guard drops"]
pub fn arm(fault: Fault) -> FaultGuard {
    ACTIVE.store(fault as u8, Ordering::SeqCst);
    FaultGuard(())
}

/// `true` when `fault` is currently armed.
pub fn armed(fault: Fault) -> bool {
    ACTIVE.load(Ordering::Relaxed) == fault as u8
}

/// RAII guard returned by [`arm`]; disarms the registry on drop.
pub struct FaultGuard(());

impl Drop for FaultGuard {
    fn drop(&mut self) {
        ACTIVE.store(0, Ordering::SeqCst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arming_is_scoped_to_the_guard() {
        assert!(!armed(Fault::DfsTieBreak));
        {
            let _g = arm(Fault::DfsTieBreak);
            assert!(armed(Fault::DfsTieBreak));
            assert!(!armed(Fault::SkipUnitRemine));
        }
        assert!(!armed(Fault::DfsTieBreak));
    }
}
