//! Relaxed-atomic event counters.
//!
//! A [`Counters`] table is a fixed array of `AtomicU64`s indexed by
//! [`Counter`]; every increment is a single relaxed `fetch_add`, cheap
//! enough to leave enabled in release builds and safe to bump from any
//! number of worker threads concurrently.

use std::sync::atomic::{AtomicU64, Ordering};

/// Names for the counter slots tracked across the pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum Counter {
    /// Join candidates generated during merge-join (both policies).
    CandidatesGenerated,
    /// Exact subgraph-isomorphism support counts actually executed.
    IsoTestsRun,
    /// Isomorphism tests skipped by the edge-histogram screen.
    IsoTestsPruned,
    /// Candidates verified frequent by CheckFrequency.
    VerifiedFrequent,
    /// Candidates verified infrequent by CheckFrequency.
    VerifiedInfrequent,
    /// Always 0: nothing is accepted on a pre-update result's word.
    /// Declared only because `bench/e2e` still names it; the benchmark PR
    /// of ROADMAP 1(a) deletes it.
    KnownSkipped,
    /// Candidates resolved by the support upper bound without counting.
    BoundShortcut,
    /// Always 0: IncPartMiner builds no prune set. Declared only because
    /// `bench/e2e` still names it; the benchmark PR of ROADMAP 1(a)
    /// deletes it.
    PruneSetHits,
    /// Incremental classification: unchanged-frequent patterns (UF).
    IncUnchangedFrequent,
    /// Incremental classification: frequent-to-infrequent patterns (FI).
    IncFrequentToInfrequent,
    /// Incremental classification: infrequent-to-frequent patterns (IF).
    IncInfrequentToFrequent,
    /// Mining units processed (initial mine + incremental re-mines).
    UnitsMined,
    /// Partition-tree nodes merged bottom-up.
    NodesMerged,
    /// Pattern extensions generated inside the unit miners (gSpan/Gaston).
    MinerExtensions,
    /// Frequent patterns emitted by the unit miners.
    MinerPatterns,
    /// Occurrence rows produced by embedding-list extension.
    EmbeddingsExtended,
    /// Embedding lists dropped because they exceeded the memory budget.
    EmbeddingsSpilled,
    /// Backtracking embedding searches actually executed (seeded
    /// `MatchState::search` invocations).
    SearchCalls,
    /// Per-graph embedding searches skipped because an embedding list
    /// answered the support query instead.
    SearchCallsAvoided,
    /// Serve: `status` requests handled.
    ReqStatus,
    /// Serve: `patterns` requests handled.
    ReqPatterns,
    /// Serve: `support` requests handled.
    ReqSupport,
    /// Serve: `update` requests handled (acknowledged batches).
    ReqUpdate,
    /// Serve: `shutdown` requests handled.
    ReqShutdown,
    /// Serve: requests rejected as malformed or failed while handled.
    ReqErrors,
    /// Serve: connections shed with `overloaded` (bounded queue full).
    ReqOverloaded,
    /// Serve: update batches appended (and fsynced) to the WAL.
    WalBatchesAppended,
    /// Serve: journaled batches replayed during startup recovery.
    WalBatchesReplayed,
    /// Serve: support queries answered from the warm result epoch `P(D)`.
    SupportFromPatterns,
    /// Serve: support queries answered by the embedding-list engine.
    SupportFromEmbeddings,
    /// Serve: support queries that fell back to isomorphism search.
    SupportFromSearch,
    /// Serve: result-epoch swaps installed after update re-mines.
    EpochSwaps,
    /// Serve: windows folded by the delta walk over the graphs they
    /// touched (`fold_delta + fold_cold == epoch_swaps`).
    FoldDelta,
    /// Serve: windows folded by a cold walk of the whole database, because
    /// an edge triple rose to θ or a minimal border code reached it.
    FoldCold,
    /// Serve: graphs folds found touched (summed over delta and cold folds).
    FoldGraphsTouched,
    /// Ingest: update windows acknowledged through the streaming
    /// pipeline (admitted, journaled, and made durable).
    IngestWindows,
    /// Ingest: raw update ops received before coalescing.
    IngestOpsIn,
    /// Ingest: ops removed by window coalescing (folded last-writes and
    /// cancelled no-op relabels).
    IngestOpsCoalesced,
    /// Ingest: windows shed with a `backpressure` reply (pending-window
    /// bound hit).
    IngestBackpressure,
    /// Ingest: peak number of acked-but-unapplied windows (a high-water
    /// gauge maintained with [`Counters::max`], not a sum).
    IngestPendingPeak,
    /// Ingest: windows expired past the sliding-window retention horizon
    /// (one synthesized inverse batch journaled and folded per window).
    IngestWindowsExpired,
    /// WAL group commit: fsync barriers executed by the committer.
    WalGroupCommits,
    /// WAL group commit: frames made durable across all barriers.
    WalGroupFrames,
    /// Executor: jobs run through the shared pool.
    ExecJobs,
    /// Bumped by nothing: the pool has one shared queue, so no worker
    /// steals. Declared only because `bench/e2e` still reads it; the
    /// benchmark PR of ROADMAP 1(a) deletes it.
    ExecSteals,
    /// Executor: peak batch size submitted to the pool (a high-water
    /// gauge maintained with [`Counters::max`], not a sum).
    ExecQueuePeak,
    /// Executor: jobs whose closure panicked (surfaced as `ExecError`).
    ExecPanics,
    /// Router: per-shard requests fanned out by scatter/gather reads.
    ScatterFanout,
    /// Router: gathered answers served degraded (at least one dead shard).
    GatherPartial,
    /// Router: per-shard request retries after a transport failure.
    ShardRetries,
    /// Router: reads hedged to a secondary replica after the primary
    /// missed the latency threshold.
    HedgedReads,
    /// Router: two-phase update windows aborted before the global epoch
    /// advanced (prepare failed on some touched shard).
    Epoch2pcAborts,
    /// Router: read answers served from the epoch-keyed result cache.
    RouterCacheHits,
    /// Router: cacheable read answers that had to be computed (not in
    /// the cache for the current global epoch).
    RouterCacheMisses,
    /// Router: cached answers evicted to stay under the byte budget.
    RouterCacheEvictions,
    /// Router: SON phase-1 `patterns` unions cut by the candidate bound
    /// (the answer carries `"truncated":1`).
    RouterPhase1Truncated,
    /// Router: `(candidate, shard)` pairs a SON phase 2 asked for — the
    /// candidates each shard did not return in phase 1, or every
    /// candidate when the shard's epoch moved between the phases.
    RouterPhase2Recounts,
}

impl Counter {
    /// Every counter, in slot order.
    pub const ALL: [Counter; 57] = [
        Counter::CandidatesGenerated,
        Counter::IsoTestsRun,
        Counter::IsoTestsPruned,
        Counter::VerifiedFrequent,
        Counter::VerifiedInfrequent,
        Counter::KnownSkipped,
        Counter::BoundShortcut,
        Counter::PruneSetHits,
        Counter::IncUnchangedFrequent,
        Counter::IncFrequentToInfrequent,
        Counter::IncInfrequentToFrequent,
        Counter::UnitsMined,
        Counter::NodesMerged,
        Counter::MinerExtensions,
        Counter::MinerPatterns,
        Counter::EmbeddingsExtended,
        Counter::EmbeddingsSpilled,
        Counter::SearchCalls,
        Counter::SearchCallsAvoided,
        Counter::ReqStatus,
        Counter::ReqPatterns,
        Counter::ReqSupport,
        Counter::ReqUpdate,
        Counter::ReqShutdown,
        Counter::ReqErrors,
        Counter::ReqOverloaded,
        Counter::WalBatchesAppended,
        Counter::WalBatchesReplayed,
        Counter::SupportFromPatterns,
        Counter::SupportFromEmbeddings,
        Counter::SupportFromSearch,
        Counter::EpochSwaps,
        Counter::FoldDelta,
        Counter::FoldCold,
        Counter::FoldGraphsTouched,
        Counter::IngestWindows,
        Counter::IngestOpsIn,
        Counter::IngestOpsCoalesced,
        Counter::IngestBackpressure,
        Counter::IngestPendingPeak,
        Counter::IngestWindowsExpired,
        Counter::WalGroupCommits,
        Counter::WalGroupFrames,
        Counter::ExecJobs,
        Counter::ExecSteals,
        Counter::ExecQueuePeak,
        Counter::ExecPanics,
        Counter::ScatterFanout,
        Counter::GatherPartial,
        Counter::ShardRetries,
        Counter::HedgedReads,
        Counter::Epoch2pcAborts,
        Counter::RouterCacheHits,
        Counter::RouterCacheMisses,
        Counter::RouterCacheEvictions,
        Counter::RouterPhase1Truncated,
        Counter::RouterPhase2Recounts,
    ];

    /// Stable snake_case identifier used in reports.
    pub const fn name(self) -> &'static str {
        match self {
            Counter::CandidatesGenerated => "candidates_generated",
            Counter::IsoTestsRun => "iso_tests_run",
            Counter::IsoTestsPruned => "iso_tests_pruned",
            Counter::VerifiedFrequent => "verified_frequent",
            Counter::VerifiedInfrequent => "verified_infrequent",
            Counter::KnownSkipped => "known_skipped",
            Counter::BoundShortcut => "bound_shortcut",
            Counter::PruneSetHits => "prune_set_hits",
            Counter::IncUnchangedFrequent => "inc_unchanged_frequent",
            Counter::IncFrequentToInfrequent => "inc_frequent_to_infrequent",
            Counter::IncInfrequentToFrequent => "inc_infrequent_to_frequent",
            Counter::UnitsMined => "units_mined",
            Counter::NodesMerged => "nodes_merged",
            Counter::MinerExtensions => "miner_extensions",
            Counter::MinerPatterns => "miner_patterns",
            Counter::EmbeddingsExtended => "embeddings_extended",
            Counter::EmbeddingsSpilled => "embeddings_spilled",
            Counter::SearchCalls => "search_calls",
            Counter::SearchCallsAvoided => "search_calls_avoided",
            Counter::ReqStatus => "req_status",
            Counter::ReqPatterns => "req_patterns",
            Counter::ReqSupport => "req_support",
            Counter::ReqUpdate => "req_update",
            Counter::ReqShutdown => "req_shutdown",
            Counter::ReqErrors => "req_errors",
            Counter::ReqOverloaded => "req_overloaded",
            Counter::WalBatchesAppended => "wal_batches_appended",
            Counter::WalBatchesReplayed => "wal_batches_replayed",
            Counter::SupportFromPatterns => "support_from_patterns",
            Counter::SupportFromEmbeddings => "support_from_embeddings",
            Counter::SupportFromSearch => "support_from_search",
            Counter::EpochSwaps => "epoch_swaps",
            Counter::FoldDelta => "fold_delta",
            Counter::FoldCold => "fold_cold",
            Counter::FoldGraphsTouched => "fold_graphs_touched",
            Counter::IngestWindows => "ingest_windows",
            Counter::IngestOpsIn => "ingest_ops_in",
            Counter::IngestOpsCoalesced => "ingest_ops_coalesced",
            Counter::IngestBackpressure => "ingest_backpressure",
            Counter::IngestPendingPeak => "ingest_pending_peak",
            Counter::IngestWindowsExpired => "ingest_windows_expired",
            Counter::WalGroupCommits => "wal_group_commits",
            Counter::WalGroupFrames => "wal_group_frames",
            Counter::ExecJobs => "exec_jobs",
            Counter::ExecSteals => "exec_steals",
            Counter::ExecQueuePeak => "exec_queue_peak",
            Counter::ExecPanics => "exec_panics",
            Counter::ScatterFanout => "scatter_fanout",
            Counter::GatherPartial => "gather_partial",
            Counter::ShardRetries => "shard_retries",
            Counter::HedgedReads => "hedged_reads",
            Counter::Epoch2pcAborts => "epoch_2pc_aborts",
            Counter::RouterCacheHits => "router_cache_hits",
            Counter::RouterCacheMisses => "router_cache_misses",
            Counter::RouterCacheEvictions => "router_cache_evictions",
            Counter::RouterPhase1Truncated => "router_phase1_truncated",
            Counter::RouterPhase2Recounts => "router_phase2_recounts",
        }
    }
}

/// A fixed table of relaxed atomic event counters.
#[derive(Debug)]
pub struct Counters {
    slots: [AtomicU64; Counter::ALL.len()],
}

// `[AtomicU64; N]: Default` stops at N = 32, so spell it out.
impl Default for Counters {
    fn default() -> Self {
        Counters::new()
    }
}

/// A point-in-time copy of a [`Counters`] table.
pub type CounterSnapshot = Vec<(&'static str, u64)>;

impl Counters {
    /// A zeroed counter table.
    pub const fn new() -> Self {
        Counters { slots: [const { AtomicU64::new(0) }; Counter::ALL.len()] }
    }

    /// A shared sink that accepts increments and is never read.
    ///
    /// Un-instrumented call paths count into this so the counted and
    /// uncounted variants of a function can share one implementation.
    pub fn noop() -> &'static Counters {
        static NOOP: Counters = Counters::new();
        &NOOP
    }

    /// Adds `n` to a counter (relaxed).
    #[inline]
    pub fn add(&self, c: Counter, n: u64) {
        self.slots[c as usize].fetch_add(n, Ordering::Relaxed);
    }

    /// Increments a counter by one (relaxed).
    #[inline]
    pub fn bump(&self, c: Counter) {
        self.add(c, 1);
    }

    /// Raises a counter to at least `v` (relaxed `fetch_max`), for
    /// high-water gauges like `exec_queue_peak`.
    #[inline]
    pub fn max(&self, c: Counter, v: u64) {
        self.slots[c as usize].fetch_max(v, Ordering::Relaxed);
    }

    /// Reads a counter (relaxed).
    pub fn get(&self, c: Counter) -> u64 {
        self.slots[c as usize].load(Ordering::Relaxed)
    }

    /// Adds every value from `other` into this table.
    pub fn absorb(&self, other: &Counters) {
        for c in Counter::ALL {
            self.add(c, other.get(c));
        }
    }

    /// Copies the current values out, in slot order.
    pub fn snapshot(&self) -> CounterSnapshot {
        Counter::ALL.iter().map(|&c| (c.name(), self.get(c))).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_distinct_and_non_empty() {
        let mut names: Vec<&str> = Counter::ALL.iter().map(|c| c.name()).collect();
        assert!(names.iter().all(|n| !n.is_empty()));
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Counter::ALL.len(), "two counters share a name");
    }

    #[test]
    fn add_get_snapshot() {
        let t = Counters::new();
        t.bump(Counter::IsoTestsRun);
        t.add(Counter::IsoTestsRun, 4);
        t.add(Counter::NodesMerged, 2);
        assert_eq!(t.get(Counter::IsoTestsRun), 5);
        let snap = t.snapshot();
        assert_eq!(snap.len(), Counter::ALL.len());
        assert!(snap.contains(&("iso_tests_run", 5)));
        assert!(snap.contains(&("nodes_merged", 2)));
        assert!(snap.contains(&("candidates_generated", 0)));
    }

    #[test]
    fn max_is_a_high_water_mark() {
        let t = Counters::new();
        t.max(Counter::ExecQueuePeak, 5);
        t.max(Counter::ExecQueuePeak, 3);
        assert_eq!(t.get(Counter::ExecQueuePeak), 5);
        t.max(Counter::ExecQueuePeak, 9);
        assert_eq!(t.get(Counter::ExecQueuePeak), 9);
    }

    #[test]
    fn absorb_sums_tables() {
        let a = Counters::new();
        let b = Counters::new();
        a.add(Counter::UnitsMined, 3);
        b.add(Counter::UnitsMined, 4);
        b.add(Counter::NodesMerged, 1);
        a.absorb(&b);
        assert_eq!(a.get(Counter::UnitsMined), 7);
        assert_eq!(a.get(Counter::NodesMerged), 1);
    }
}
