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
    /// [`crate::Graph::freeze`] leaves one per-vertex CSR run unsorted
    /// (the first run with ≥ 2 entries is reversed), breaking the
    /// binary-search contracts of `edge_between` and `neighbor_range`.
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
    /// The merge-join's walk accepts a counted-frequent child without the
    /// canonical-code test, so patterns are reported again under
    /// non-minimal codes.
    SkipWalkMinCheck = 11,
    /// The merge-join's walk reports a unit-shortcut hit with the unit's
    /// lower bound instead of the exact support its list holds — what the
    /// removed lower-bound-supports mode did by default.
    ReportUnitBound = 12,
    /// The router's SON phase 2 trusts the phase-1 union: it asks no shard
    /// about a candidate that shard did not report, so graphs a shard
    /// holds below its local threshold drop out of the gathered support.
    SkipUnreportedRecount = 13,
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
