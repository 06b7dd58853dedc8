//! The serving engine: durable state, epoch-swapped results, a streaming
//! ingest pipeline, and request handling — everything except sockets.
//!
//! # Data directory
//!
//! ```text
//! <dir>/snapshot.<E>.gs    GraphDb snapshot at epoch E (one image)
//! <dir>/journal.wal        group-committed update journal (WAL)
//! <dir>/meta.json          commit record naming the current snapshot
//! ```
//!
//! The **epoch** of a result is the sequence number of the last update
//! window folded into it; epoch 0 is the freshly mined snapshot. On boot
//! the engine reads the snapshot, applies the journal to it as data, mines
//! the result once, and serves from an [`Arc`]-swapped [`ResultEpoch`] —
//! readers grab the current `Arc` and never block behind a writer. No
//! mined result is kept on disk: what a restarted daemon serves is a
//! function of the snapshot and the journal only.
//!
//! The mining state is the published epoch — a database and its `P(D)` —
//! and the border of `P(D)`, which the applier alone keeps. Boot runs one
//! walk over the whole database at θ, [`graphmine_core::merge_join`]'s
//! walk with no piece results, keeping the border; a window then folds by
//! a delta walk over the graphs it touched ([`graphmine_core::fold_delta`]),
//! or by that cold walk where the delta needs occurrences outside them.
//! No partition tree: the paper's fold (Fig. 12) ends with the cold walk,
//! and its unit re-mines at θ/k and node walks at θ/2 only spare
//! canonical-code tests, enumerating every subgraph once θ/2^depth
//! reaches 1.
//!
//! # Streaming ingest
//!
//! Updates flow through a pipeline (see `docs/SERVICE.md`):
//!
//! 1. **Admission** (under the queue lock): the window is
//!    [coalesced](crate::ingest::coalesce_window) and applied, once, to a
//!    copy of the *tail* — the database with every admitted window
//!    applied ([`IngestQueue::stage`]). A rejection drops the copy; an
//!    accepted window is handed to the WAL, and the database it produced
//!    becomes the tail and is queued under its sequence number. Admission
//!    is refused with `backpressure` when `max_pending` windows are
//!    already waiting.
//! 2. **Durability** (outside the lock): the submitter blocks on the
//!    [`GroupCommitJournal`]'s shared fsync barrier; concurrent windows
//!    share one fsync.
//! 3. **Application**: a dedicated applier thread (`crate::applier`) folds
//!    durable windows strictly in sequence order — the delta walk over the
//!    graphs the window's queued database does not share with the served
//!    one, or a cold walk on the shared `graphmine-exec` pool — and swaps
//!    one [`ResultEpoch`] per window, whose `db` is that very database.
//!    Readers are served by the worker pool and never wait on a fold.
//!
//! An `ack: applied` update (the default) is acknowledged after its
//! epoch is visible; an `ack: durable` update is acknowledged at the
//! fsync barrier, with application bounded by `max_pending`. Either
//! way a crash (or [`kill -9`]) after the ack recovers the window:
//! frames are journaled in sequence order, so recovery replays exactly
//! a clean prefix covering every acknowledged window.
//!
//! A clean stop drains the pipeline, folds the journal into a fresh
//! snapshot, and truncates it. The snapshot file is epoch-named and
//! `meta.json` — renamed into place, then made durable by a directory
//! fsync — is the commit point, so a crash *during* the stop boots from
//! either the old snapshot or the new one, never a mixture. Journal
//! batches with `seq <= base_epoch` are already folded into the committed
//! snapshot and are skipped on replay, which makes the journal truncation
//! pure garbage collection.
//!
//! [`kill -9`]: crate::ServerHandle::abort

use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, LockResult, Mutex, PoisonError, RwLock};
use std::thread::JoinHandle;
use std::time::Instant;

use graphmine_core::{resolve_threads, Executor};
use graphmine_graph::dfscode::min_dfs_code;
use graphmine_graph::{
    apply_all, DbUpdate, DfsCode, EmbeddingStore, Graph, GraphDb, GraphId, PatternSet, Support,
    DEFAULT_EMBEDDING_BUDGET,
};
use graphmine_storage::{read_snapshot, write_snapshot, GroupCommitJournal, UpdateJournal};
use graphmine_telemetry::{Counter, JsonValue, RunReport, Telemetry};
use rustc_hash::FxHashMap;

use crate::applier::{applier_loop, walk};
use crate::ingest::{IngestConfig, IngestQueue, WindowTracker};
use crate::protocol::{error_response, ok_response, pattern_to_json, AckMode, Request};

/// Engine configuration. `min_support` is only honored when the data
/// directory is fresh; an existing snapshot pins it (a serving result is
/// only incremental against the threshold it was mined at).
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Absolute minimum support of the maintained result.
    pub min_support: Support,
    /// Read by nothing. Declared only because `bench/e2e/src/stream.rs`
    /// reads `cfg.k`; the benchmark PR of ROADMAP 1(a) deletes it.
    #[doc(hidden)]
    pub k: usize,
    /// Read by nothing: `threads` alone decides the schedule. Declared only
    /// because `bench/e2e/src/stream.rs` reads it; the benchmark PR of
    /// ROADMAP 1(a) deletes it.
    #[doc(hidden)]
    pub parallel: bool,
    /// Workers each walk fans out over, one job per frequent-edge subtree:
    /// `1` (the default) walks inline, `n` runs `n` workers, `0` uses every
    /// core.
    pub threads: usize,
    /// Read by nothing (neither the snapshot nor the journal has a buffer
    /// pool). Declared only because `bench/e2e/src/stream.rs` reads it; the
    /// benchmark PR of ROADMAP 1(a) deletes it.
    #[doc(hidden)]
    pub pool_pages: usize,
    /// Read by nothing (a `support` miss counts under the fixed
    /// [`DEFAULT_EMBEDDING_BUDGET`]). Declared only because
    /// `bench/e2e/src/stream.rs` reads it; the benchmark PR of ROADMAP 1(a)
    /// deletes it.
    #[doc(hidden)]
    pub embedding_budget: usize,
    /// Streaming-ingest knobs (staleness bound, coalescing).
    pub ingest: IngestConfig,
    /// Gids this shard owns (`None` = single-process mode, every gid
    /// owned). Boot empties every other slot of the database, so every
    /// count the engine answers is over owned graphs only — the router's
    /// gathered sums are exact because owner sets are disjoint across
    /// shards.
    pub owned: Option<Vec<GraphId>>,
    /// Sliding-window retention: keep only the newest `N` ingest windows
    /// live; once an older window falls past the horizon the engine
    /// synthesizes its inverse batch, journals it as a tagged WAL frame,
    /// and folds it like any window. `None` = evolving
    /// mode, every admitted window lives forever. Not persisted: a clean
    /// stop freezes the surviving windows into the snapshot (they become
    /// base data) and retention restarts over windows admitted since.
    pub window: Option<usize>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            min_support: 2,
            k: 4,
            parallel: false,
            threads: 1,
            pool_pages: 0,
            embedding_budget: DEFAULT_EMBEDDING_BUDGET,
            ingest: IngestConfig::default(),
            owned: None,
            window: None,
        }
    }
}

/// How a `support` query was answered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SupportSource {
    /// The pattern is frequent: answered from the warm result `P(D)`.
    Patterns,
    /// Counted exactly by the embedding-list engine.
    Embeddings,
    /// Counted exactly by the triple-screened isomorphism search: the
    /// embedding list spilled over its byte budget.
    Search,
}

impl SupportSource {
    /// Stable identifier used on the wire.
    pub fn name(self) -> &'static str {
        match self {
            SupportSource::Patterns => "patterns",
            SupportSource::Embeddings => "embeddings",
            SupportSource::Search => "search",
        }
    }

    fn counter(self) -> Counter {
        match self {
            SupportSource::Patterns => Counter::SupportFromPatterns,
            SupportSource::Embeddings => Counter::SupportFromEmbeddings,
            SupportSource::Search => Counter::SupportFromSearch,
        }
    }
}

/// One immutable generation of serving state. Readers hold an `Arc` to
/// it for the duration of a request, so an update installing the next
/// epoch never invalidates an answer in flight.
pub struct ResultEpoch {
    /// Journal sequence number of the last batch folded in (0 = snapshot).
    pub epoch: u64,
    /// The database at this epoch.
    pub db: Arc<GraphDb>,
    /// `P(D)` at this epoch.
    pub patterns: Arc<PatternSet>,
}

/// What an acknowledged update window did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UpdateSummary {
    /// Durable journal sequence number (= the new epoch).
    pub seq: u64,
    /// Patterns that stayed frequent.
    pub uf: usize,
    /// Patterns that fell out of the frequent set.
    pub fi: usize,
    /// Patterns that became frequent.
    pub if_new: usize,
    /// Size of the new `P(D)`.
    pub pattern_count: usize,
}

/// A durability acknowledgement from [`ServeEngine::submit_window`]: the
/// window survives any crash, but may not be folded into the served
/// epoch yet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamAck {
    /// Durable journal sequence number of the window.
    pub seq: u64,
    /// Windows (including this one) awaiting application at ack time.
    pub pending: usize,
}

/// Why an update window was not acknowledged.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UpdateError {
    /// Shed by the staleness bound: `pending` windows already await
    /// application. Retry after backing off; nothing was admitted.
    Backpressure {
        /// Acked-but-unapplied windows at shed time.
        pending: usize,
    },
    /// The window failed validation; nothing was journaled and the
    /// served state is unchanged.
    Rejected(String),
    /// The pipeline failed (a journal error, or an expiry frame that would
    /// not apply) — the engine no longer accepts updates.
    Failed(String),
}

impl fmt::Display for UpdateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UpdateError::Backpressure { pending } => {
                write!(f, "backpressure: {pending} windows pending")
            }
            UpdateError::Rejected(msg) => write!(f, "{msg}"),
            UpdateError::Failed(msg) => write!(f, "ingest pipeline failed: {msg}"),
        }
    }
}

/// What [`ServeEngine::boot`] found on disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BootReport {
    /// Whether an existing snapshot was loaded (vs a fresh directory).
    pub from_snapshot: bool,
    /// Journal batches replayed on top of the snapshot.
    pub replayed: usize,
    /// The epoch the engine is serving after recovery.
    pub epoch: u64,
}

/// State shared between request workers, the applier thread, and the
/// WAL committer.
pub(crate) struct EngineShared {
    pub(crate) tel: Telemetry,
    started: Instant,
    dir: PathBuf,
    pub(crate) min_support: Support,
    ingest_cfg: IngestConfig,
    /// Sliding-window retention horizon (`None` = evolving mode).
    pub(crate) window: Option<usize>,
    /// The served epoch; written by the applier alone.
    pub(crate) current: RwLock<Arc<ResultEpoch>>,
    /// Memoized exact supports of infrequent query patterns, keyed by
    /// `(epoch, code)`: a reader that grabbed its `Arc<ResultEpoch>`
    /// right before an epoch swap looks up under *its* epoch id and can
    /// never be answered from another generation's memo. Entries of
    /// superseded epochs are evicted on swap.
    pub(crate) support_memo: Mutex<FxHashMap<(u64, DfsCode), (Support, SupportSource)>>,
    /// Graphs this engine holds: the owned gids of a shard, every gid in
    /// single-process mode.
    owned_graphs: usize,
    /// Last router-committed global epoch (0 until a commit arrives).
    /// In-memory only — the router republishes it on re-admission.
    global_epoch: AtomicU64,
    /// The shared pool the walks run on. Sized once at
    /// boot; the applier submits labeled jobs here, so epoch rebuilds
    /// never occupy a request worker.
    pub(crate) exec: Executor,
    /// Group-committing WAL: one fsync barrier covers every window
    /// submitted while the previous barrier was in flight.
    pub(crate) journal: GroupCommitJournal,
    /// Pending-window queue, waited on through the two condition
    /// variables below by the applier and `ack: applied` waiters.
    pub(crate) queue: Mutex<IngestQueue>,
    /// Signals the applier: a window was admitted (or stop was flagged).
    pub(crate) submitted: Condvar,
    /// Signals waiters: a window was applied (or the pipeline failed).
    pub(crate) applied: Condvar,
}

impl EngineShared {
    /// Mirrors the WAL committer's monotone group totals into the
    /// telemetry table (`fetch_max`, so concurrent mirrors are safe).
    fn mirror_group_stats(&self) {
        let stats = self.journal.stats();
        self.tel.counters().max(Counter::WalGroupCommits, stats.groups);
        self.tel.counters().max(Counter::WalGroupFrames, stats.frames);
    }
}

/// The socket-free core of the daemon: owns the group-committed journal,
/// the ingest pipeline, and the current [`ResultEpoch`]; thread-safe
/// throughout.
pub struct ServeEngine {
    shared: Arc<EngineShared>,
    applier: Option<JoinHandle<()>>,
}

impl ServeEngine {
    /// Boots from `dir`, creating it from `initial` on first run.
    ///
    /// With an existing snapshot, `initial` is ignored: the database is
    /// the snapshot plus the replayed journal, and `cfg.min_support` is
    /// overridden by the persisted metadata. Every journaled batch is
    /// applied as data, then the database is mined once; nothing else in
    /// the directory is believed. With `cfg.owned` set, every slot outside
    /// it is emptied first, whatever the snapshot or `initial` holds there.
    ///
    /// # Errors
    ///
    /// Fails on a rejected thread budget (before anything is written), I/O
    /// errors, corrupt metadata, an inapplicable journaled batch, or a
    /// fresh directory without `initial`.
    pub fn boot(
        initial: Option<&GraphDb>,
        dir: &Path,
        cfg: &EngineConfig,
    ) -> Result<(ServeEngine, BootReport), String> {
        let tel = Telemetry::new();
        // One pool for the boot walk and every fold after.
        let threads = resolve_threads(cfg.threads).map_err(|e| format!("threads: {e}"))?;
        let exec = Executor::new(threads);

        let meta_path = dir.join("meta.json");
        let from_snapshot = meta_path.exists();
        let (mut db, min_support, base_epoch) = if from_snapshot {
            let meta = std::fs::read_to_string(&meta_path).map_err(|e| format!("meta: {e}"))?;
            let meta = JsonValue::parse(&meta).map_err(|e| format!("meta: {e}"))?;
            let num = |key: &str| {
                meta.field(key)
                    .and_then(JsonValue::as_num)
                    .ok_or_else(|| format!("meta: missing numeric field `{key}`"))
            };
            let snap_name = meta
                .field("snapshot")
                .and_then(JsonValue::as_str)
                .ok_or("meta: missing string field `snapshot`")?;
            let db = read_snapshot(&dir.join(snap_name)).map_err(|e| format!("snapshot: {e}"))?;
            (db, num("min_support")? as Support, num("base_epoch")?)
        } else {
            let db = initial.cloned().ok_or_else(|| {
                format!("no snapshot in {} and no initial database", dir.display())
            })?;
            (db, cfg.min_support, 0)
        };
        // A shard holds only what it owns. Shard files from older plans
        // carry merged unit pieces in the other slots; they go here, before
        // any count can see them.
        let owned_graphs = match &cfg.owned {
            Some(owned) => hold_only(&mut db, owned),
            None => db.len(),
        };
        if !from_snapshot {
            commit_snapshot(dir, "snapshot.0.gs", &db)?;
            write_meta(dir, min_support, 0, "snapshot.0.gs")?;
        }

        let (mut journal, batches) = UpdateJournal::recover(&dir.join("journal.wal"), 0)
            .map_err(|e| format!("journal: {e}"))?;
        // The journal is replayed as data, then mined once; in windowed
        // mode the tracker applies each batch, rebuilding its bookkeeping.
        // Windows a clean stop folded into the snapshot are base data, so
        // retention restarts over the windows admitted since.
        let mut tracker = cfg.window.map(|_| WindowTracker::new(&db));
        let mut replayed = 0usize;
        for batch in &batches {
            // Batches at or below the committed base epoch are already
            // folded into the snapshot (the journal outlived a clean
            // stop's truncation step); replaying them would double-apply.
            if batch.seq <= base_epoch {
                continue;
            }
            match tracker.as_mut() {
                Some(tr) => tr.replay(batch.seq, &mut db, &batch.updates, batch.expiry),
                None => apply_all(&mut db, &batch.updates),
            }
            .map_err(|e| format!("journal replay (batch {}): {e}", batch.seq))?;
            tel.counters().bump(Counter::WalBatchesReplayed);
            replayed += 1;
        }
        // After a clean stop the journal is empty but the numbering must
        // continue where the snapshot left off.
        journal.set_next_seq(base_epoch + 1);
        // Catch up on retention before serving: a crash after a window
        // fell due but before its expiry frame went durable leaves the
        // replayed state over the horizon. Re-synthesize journal-first,
        // so a crash inside this loop just repeats it next boot —
        // replayed expiry frames above were already applied, so windows
        // can never expire twice.
        if let (Some(n), Some(tr)) = (cfg.window, tracker.as_mut()) {
            while tr.live_count() > n {
                let (expired, ops) = tr.synthesize_expiry();
                let seq = journal
                    .append_unsynced(&ops, Some(expired))
                    .map_err(|e| format!("journal: boot expiry: {e}"))?;
                journal.sync().map_err(|e| format!("journal: boot expiry: {e}"))?;
                tr.replay(seq, &mut db, &ops, Some(expired))
                    .map_err(|e| format!("boot expiry (window {expired}): {e}"))?;
            }
        }
        let epoch = journal.next_seq() - 1;

        let (patterns, border) = walk(&db, min_support, &exec, &tel);
        let patterns = Arc::new(patterns);
        let db = Arc::new(db);
        let queue = IngestQueue::new(Arc::clone(&db), epoch, tracker);
        let shared = Arc::new(EngineShared {
            tel,
            started: Instant::now(),
            dir: dir.to_path_buf(),
            min_support,
            ingest_cfg: cfg.ingest.clone(),
            window: cfg.window,
            current: RwLock::new(Arc::new(ResultEpoch { epoch, db, patterns })),
            support_memo: Mutex::new(FxHashMap::default()),
            owned_graphs,
            global_epoch: AtomicU64::new(0),
            exec,
            journal: GroupCommitJournal::new(journal),
            queue: Mutex::new(queue),
            submitted: Condvar::new(),
            applied: Condvar::new(),
        });
        let applier = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("ingest-applier".to_string())
                .spawn(move || applier_loop(&shared, border))
                .map_err(|e| format!("spawn applier: {e}"))?
        };
        let engine = ServeEngine { shared, applier: Some(applier) };
        Ok((engine, BootReport { from_snapshot, replayed, epoch }))
    }

    /// The epoch currently being served.
    pub fn current(&self) -> Arc<ResultEpoch> {
        entered(self.shared.current.read()).clone()
    }

    /// The engine's telemetry (request counters, mining spans).
    pub fn telemetry(&self) -> &Telemetry {
        &self.shared.tel
    }

    /// The absolute support threshold the result is maintained at.
    pub fn min_support(&self) -> Support {
        self.shared.min_support
    }

    /// Exact support of `pattern` in epoch `ep`, cheapest source first:
    /// `P(D)`, then the support memo, then a count through a fresh
    /// [`EmbeddingStore`] under [`DEFAULT_EMBEDDING_BUDGET`], memoized
    /// engine-wide under the `(epoch, code)` key.
    ///
    /// The caller passes the epoch it is answering from (usually
    /// [`ServeEngine::current`], grabbed once per request), so a reader
    /// racing an epoch swap still gets the answer for the snapshot it
    /// holds — the epoch id in the key makes a cross-generation memo hit
    /// impossible by construction.
    pub fn support_of(&self, ep: &ResultEpoch, pattern: &Graph) -> (Support, SupportSource) {
        self.support_under(ep, pattern, DEFAULT_EMBEDDING_BUDGET)
    }

    /// [`ServeEngine::support_of`] under an embedding-list byte budget of
    /// `budget`, so a test can force the search fallback.
    fn support_under(
        &self,
        ep: &ResultEpoch,
        pattern: &Graph,
        budget: usize,
    ) -> (Support, SupportSource) {
        let counters = self.shared.tel.counters();
        let code = min_dfs_code(pattern);
        if let Some(s) = ep.patterns.support(&code) {
            counters.bump(SupportSource::Patterns.counter());
            return (s, SupportSource::Patterns);
        }
        let key = (ep.epoch, code);
        let cached = entered(self.shared.support_memo.lock()).get(&key).copied();
        let (support, source) = cached.unwrap_or_else(|| {
            let count = EmbeddingStore::new(&ep.db, budget).support(&key.1, None, 0, counters);
            let source =
                if count.listed { SupportSource::Embeddings } else { SupportSource::Search };
            entered(self.shared.support_memo.lock()).insert(key, (count.support, source));
            (count.support, source)
        });
        counters.bump(source.counter());
        (support, source)
    }

    /// Live entry count of the support memo — observability for the
    /// epoch-swap eviction policy (each swap keeps the current and
    /// previous generations only, so it stays bounded under unbounded
    /// streaming ingest).
    pub fn memo_size(&self) -> usize {
        entered(self.shared.support_memo.lock()).len()
    }

    /// The last router-committed global epoch (0 before any commit).
    pub fn global_epoch(&self) -> u64 {
        self.shared.global_epoch.load(Ordering::SeqCst)
    }

    /// 2PC commit: waits until the window acked as local `seq` is folded
    /// into the served epoch (`seq` 0 waits for nothing), then adopts
    /// `global` as the last-committed global epoch (monotone: an older
    /// commit can never roll the epoch back). Returns the resulting
    /// global epoch.
    ///
    /// # Errors
    ///
    /// [`UpdateError::Rejected`] for a `seq` the journal never assigned
    /// (waiting on it would hang forever); [`UpdateError::Failed`] when
    /// the pipeline fails before `seq` applies.
    pub fn commit_epoch(&self, global: u64, seq: u64) -> Result<u64, UpdateError> {
        if seq > 0 {
            if seq >= self.shared.journal.next_seq() {
                return Err(UpdateError::Rejected(format!("unknown seq {seq}")));
            }
            self.wait_applied(seq)?;
        }
        let prev = self.shared.global_epoch.fetch_max(global, Ordering::SeqCst);
        Ok(prev.max(global))
    }

    /// Dry-run validation of a window against the journal tail (2PC
    /// phase 0): the window is staged exactly as
    /// [`ServeEngine::submit_window`] stages it, then dropped, so the
    /// verdict is the same and nothing is admitted, journaled, or served.
    ///
    /// # Errors
    ///
    /// [`UpdateError::Rejected`] with the first failing op,
    /// [`UpdateError::Failed`] on a poisoned pipeline.
    pub fn validate_window(&self, ops: &[DbUpdate]) -> Result<(), UpdateError> {
        let q = self.shared.queue.lock().expect("ingest queue poisoned");
        if let Some(msg) = &q.failed {
            return Err(UpdateError::Failed(msg.clone()));
        }
        let staged = q.stage(self.shared.journal.next_seq(), ops, None);
        staged.map(drop).map_err(UpdateError::Rejected)
    }

    /// Admits one window into the streaming pipeline and blocks until it
    /// is **durable** (its group's fsync barrier passed). Application to
    /// the served epoch happens asynchronously, bounded by the
    /// `max_pending` staleness bound.
    ///
    /// # Errors
    ///
    /// [`UpdateError::Backpressure`] when the staleness bound is hit
    /// (nothing admitted — retry after a backoff);
    /// [`UpdateError::Rejected`] when validation fails (nothing
    /// journaled, served state unchanged); [`UpdateError::Failed`] when
    /// the pipeline is poisoned.
    pub fn submit_window(&self, ops: &[DbUpdate]) -> Result<StreamAck, UpdateError> {
        let shared = &self.shared;
        let counters = shared.tel.counters();
        let (seq, pending) = {
            let mut q = shared.queue.lock().expect("ingest queue poisoned");
            if let Some(msg) = &q.failed {
                return Err(UpdateError::Failed(msg.clone()));
            }
            if q.windows.len() >= shared.ingest_cfg.max_pending.max(1) {
                counters.bump(Counter::IngestBackpressure);
                return Err(UpdateError::Backpressure { pending: q.windows.len() });
            }
            // Only the queue lock's holder enqueues, so this is the seq the
            // journal gives the window: staging, journal and tail order agree.
            let seq = shared.journal.next_seq();
            counters.add(Counter::IngestOpsIn, ops.len() as u64);
            let staged = q.stage(seq, ops, None).map_err(UpdateError::Rejected)?;
            counters.add(Counter::IngestOpsCoalesced, (ops.len() - staged.ops.len()) as u64);
            let enqueued = shared.journal.enqueue(&staged.ops);
            let enqueued = enqueued.map_err(|e| UpdateError::Failed(format!("journal: {e}")))?;
            debug_assert_eq!(enqueued, seq);
            q.push(seq, staged);
            counters.max(Counter::IngestPendingPeak, q.windows.len() as u64);
            (seq, q.windows.len())
        };
        shared.submitted.notify_all();
        // Durability wait happens *outside* the queue lock: the next
        // group forms (and further windows are admitted) while this
        // one's fsync barrier is in flight.
        shared
            .journal
            .wait_durable(seq)
            .map_err(|e| UpdateError::Failed(format!("journal: {e}")))?;
        counters.bump(Counter::WalBatchesAppended);
        counters.bump(Counter::IngestWindows);
        shared.mirror_group_stats();
        Ok(StreamAck { seq, pending })
    }

    /// Blocks until window `seq` is folded into the served epoch and
    /// returns its summary.
    ///
    /// # Errors
    ///
    /// [`UpdateError::Failed`] when the pipeline fails before `seq` is
    /// applied.
    pub fn wait_applied(&self, seq: u64) -> Result<UpdateSummary, UpdateError> {
        let shared = &self.shared;
        let mut q = shared.queue.lock().expect("ingest queue poisoned");
        while q.applied_seq < seq {
            if let Some(msg) = &q.failed {
                return Err(UpdateError::Failed(msg.clone()));
            }
            q = shared.applied.wait(q).expect("ingest queue poisoned");
        }
        Ok(q.summaries.remove(&seq).unwrap_or(UpdateSummary {
            seq,
            uf: 0,
            fi: 0,
            if_new: 0,
            pattern_count: self.current().patterns.len(),
        }))
    }

    /// Validates, journals (group-committed fsync), applies, and waits
    /// for the new epoch: on success the returned sequence number is
    /// durable *and* visible to readers — the synchronous path the
    /// `ack: applied` protocol mode and the CLI use.
    ///
    /// # Errors
    ///
    /// As [`ServeEngine::submit_window`].
    pub fn apply_update(&self, ops: &[DbUpdate]) -> Result<UpdateSummary, UpdateError> {
        let ack = self.submit_window(ops)?;
        self.wait_applied(ack.seq)
    }

    /// Acked-but-unapplied windows right now (the served epoch's
    /// staleness in windows).
    pub fn pending_windows(&self) -> usize {
        self.shared.queue.lock().expect("ingest queue poisoned").windows.len()
    }

    /// Drains the pipeline, folds the journal into a fresh snapshot, and
    /// truncates it. The next boot mines that snapshot.
    ///
    /// Crash-safe: the new snapshot is written under an epoch-suffixed
    /// name (to a temp file renamed over it, so a stop with nothing new
    /// never rewrites the committed file in place), then `meta.json` is
    /// atomically renamed to point at it, and the directory is fsynced
    /// before the journal is truncated. A crash before the rename boots
    /// from the old snapshot (re-replaying the journal); a crash after it
    /// boots from the new one (skipping the already-folded batches).
    ///
    /// # Errors
    ///
    /// Propagates I/O failures and a poisoned pipeline.
    pub fn clean_stop(&self) -> Result<(), String> {
        let shared = &self.shared;
        // Drain: every admitted window must be folded in before the
        // snapshot, or acked windows would be lost with the truncation.
        let mut q = shared.queue.lock().expect("ingest queue poisoned");
        while !q.windows.is_empty() {
            if let Some(msg) = &q.failed {
                return Err(format!("ingest pipeline failed: {msg}"));
            }
            q = shared.applied.wait(q).expect("ingest queue poisoned");
        }
        // Keep holding the queue lock: no window can be admitted while
        // the snapshot is written, and the applier is idle (nothing
        // pending), so the served epoch holds every window.
        let base_epoch = shared.journal.next_seq() - 1;
        let snap_name = format!("snapshot.{base_epoch}.gs");

        let served = self.current();
        commit_snapshot(&shared.dir, &snap_name, &served.db)?;
        // Commit point: once the `meta.json` rename lands, boots use the
        // new snapshot.
        write_meta(&shared.dir, shared.min_support, base_epoch, &snap_name)?;

        // Everything below is garbage collection; the directory is
        // already consistent, and its fsync made the rename durable, so no
        // reordering can leave the truncation on disk without it.
        shared
            .journal
            .with_journal(|j| j.reset())
            .map_err(|e| format!("journal: {e}"))?
            .map_err(|e| format!("journal: {e}"))?;
        if let Ok(entries) = std::fs::read_dir(&shared.dir) {
            for entry in entries.flatten() {
                let name = entry.file_name();
                let name = name.to_string_lossy();
                // Temp files are snapshot writes a crash cut short, pattern
                // files what older daemons left. Nothing reads either.
                let snapshot = name.ends_with(".gs") || name.ends_with(".gs.tmp");
                let stale = name.starts_with("snapshot.") && snapshot && name != snap_name
                    || name.starts_with("patterns.") && name.ends_with(".pat");
                if stale {
                    let _ = std::fs::remove_file(entry.path());
                }
            }
        }
        Ok(())
    }

    /// Handles one non-`shutdown` request and builds its response.
    /// `shutdown` is the server loop's business (it must stop threads).
    pub fn handle(&self, req: &Request) -> JsonValue {
        match req {
            Request::Status { report } => self.handle_status(*report),
            Request::Patterns { top, min_support } => self.handle_patterns(*top, *min_support),
            Request::Support { graph, .. } => self.handle_support(graph),
            Request::SupportBatch { graphs, .. } => self.handle_support_batch(graphs),
            Request::Update { ops, ack, dry_run } => self.handle_update(ops, *ack, *dry_run),
            Request::EpochCommit { global, seq } => self.handle_epoch_commit(*global, *seq),
            Request::Shutdown => {
                self.shared.tel.counters().bump(Counter::ReqShutdown);
                ok_response(vec![("stopping", JsonValue::Num(1))])
            }
        }
    }

    fn handle_epoch_commit(&self, global: u64, seq: u64) -> JsonValue {
        match self.commit_epoch(global, seq) {
            Ok(g) => ok_response(vec![
                ("global_epoch", JsonValue::Num(g)),
                ("epoch", JsonValue::Num(self.current().epoch)),
            ]),
            Err(e) => {
                self.shared.tel.counters().bump(Counter::ReqErrors);
                error_response(&e.to_string())
            }
        }
    }

    fn handle_update(&self, ops: &[DbUpdate], ack: AckMode, dry_run: bool) -> JsonValue {
        let counters = self.shared.tel.counters();
        if dry_run {
            return match self.validate_window(ops) {
                Ok(()) => {
                    counters.bump(Counter::ReqUpdate);
                    ok_response(vec![
                        ("valid", JsonValue::Num(1)),
                        ("epoch", JsonValue::Num(self.current().epoch)),
                    ])
                }
                Err(e) => {
                    counters.bump(Counter::ReqErrors);
                    error_response(&e.to_string())
                }
            };
        }
        let result = match ack {
            AckMode::Applied => self.apply_update(ops).map(|s| {
                ok_response(vec![
                    ("epoch", JsonValue::Num(s.seq)),
                    ("seq", JsonValue::Num(s.seq)),
                    ("uf", JsonValue::Num(s.uf as u64)),
                    ("fi", JsonValue::Num(s.fi as u64)),
                    ("if", JsonValue::Num(s.if_new as u64)),
                    ("pattern_count", JsonValue::Num(s.pattern_count as u64)),
                ])
            }),
            AckMode::Durable => self.submit_window(ops).map(|a| {
                ok_response(vec![
                    ("seq", JsonValue::Num(a.seq)),
                    ("durable", JsonValue::Num(1)),
                    ("pending", JsonValue::Num(a.pending as u64)),
                    ("epoch", JsonValue::Num(self.current().epoch)),
                ])
            }),
        };
        match result {
            Ok(resp) => {
                counters.bump(Counter::ReqUpdate);
                resp
            }
            // Back-pressure is shedding, not failure: it gets its own
            // reply (and its own counter, bumped at the shed site) and
            // does not count as a request error.
            Err(UpdateError::Backpressure { pending }) => JsonValue::Obj(vec![
                ("status".to_string(), JsonValue::Str("error".to_string())),
                ("error".to_string(), JsonValue::Str("backpressure".to_string())),
                ("pending".to_string(), JsonValue::Num(pending as u64)),
            ]),
            Err(e) => {
                counters.bump(Counter::ReqErrors);
                error_response(&e.to_string())
            }
        }
    }

    fn handle_status(&self, report: bool) -> JsonValue {
        let shared = &self.shared;
        shared.tel.counters().bump(Counter::ReqStatus);
        shared.mirror_group_stats();
        let ep = self.current();
        let counters = JsonValue::Obj(
            shared
                .tel
                .counters()
                .snapshot()
                .into_iter()
                .map(|(name, v)| (name.to_string(), JsonValue::Num(v)))
                .collect(),
        );
        let mut fields = vec![
            ("epoch", JsonValue::Num(ep.epoch)),
            ("global_epoch", JsonValue::Num(self.global_epoch())),
            ("uptime_ms", JsonValue::Num(shared.started.elapsed().as_millis() as u64)),
            ("db_graphs", JsonValue::Num(ep.db.len() as u64)),
            ("db_edges", JsonValue::Num(ep.db.total_edges() as u64)),
            ("pattern_count", JsonValue::Num(ep.patterns.len() as u64)),
            ("min_support", JsonValue::Num(u64::from(shared.min_support))),
            ("pending_windows", JsonValue::Num(self.pending_windows() as u64)),
            ("owned_graphs", JsonValue::Num(shared.owned_graphs as u64)),
            ("counters", counters),
        ];
        if report {
            let dump = RunReport::capture("serve", &shared.tel).to_json();
            let parsed = JsonValue::parse(&dump).unwrap_or(JsonValue::Null);
            fields.push(("report", parsed));
        }
        ok_response(fields)
    }

    fn handle_patterns(&self, top: usize, min_support: Option<Support>) -> JsonValue {
        self.shared.tel.counters().bump(Counter::ReqPatterns);
        let ep = self.current();
        let floor = min_support.unwrap_or(0);
        let mut hits: Vec<_> = ep.patterns.iter().filter(|p| p.support >= floor).collect();
        hits.sort_by(|a, b| b.support.cmp(&a.support).then_with(|| a.code.cmp(&b.code)));
        let total = hits.len();
        hits.truncate(top);
        // `sorted:1` attests the candidate-reply contract the router's
        // bounded SON phase 1 relies on: rows ordered by (support desc,
        // code asc), so truncating at `top` keeps exactly the locally
        // best candidates. A shard reply without this marker cannot be
        // safely truncated and the router treats it as lossy.
        ok_response(vec![
            ("epoch", JsonValue::Num(ep.epoch)),
            ("total", JsonValue::Num(total as u64)),
            ("returned", JsonValue::Num(hits.len() as u64)),
            ("sorted", JsonValue::Num(1)),
            ("patterns", JsonValue::Arr(hits.into_iter().map(pattern_to_json).collect())),
        ])
    }

    fn handle_support(&self, pattern: &Graph) -> JsonValue {
        self.shared.tel.counters().bump(Counter::ReqSupport);
        let ep = self.current();
        let (support, source) = self.support_of(&ep, pattern);
        ok_response(vec![
            ("epoch", JsonValue::Num(ep.epoch)),
            ("support", JsonValue::Num(u64::from(support))),
            ("source", JsonValue::Str(source.name().to_string())),
        ])
    }

    fn handle_support_batch(&self, graphs: &[Graph]) -> JsonValue {
        self.shared.tel.counters().bump(Counter::ReqSupport);
        let ep = self.current();
        let supports =
            graphs.iter().map(|g| JsonValue::Num(u64::from(self.support_of(&ep, g).0))).collect();
        ok_response(vec![
            ("epoch", JsonValue::Num(ep.epoch)),
            ("supports", JsonValue::Arr(supports)),
        ])
    }
}

impl Drop for ServeEngine {
    fn drop(&mut self) {
        {
            let mut q = self.shared.queue.lock().expect("ingest queue poisoned");
            q.stop = true;
        }
        self.shared.submitted.notify_all();
        self.shared.applied.notify_all();
        if let Some(h) = self.applier.take() {
            let _ = h.join();
        }
    }
}

/// Empties every slot of `db` whose gid is not in `owned`, keeping the
/// gid alignment (an empty graph supports nothing). Returns how many
/// slots are held.
fn hold_only(db: &mut GraphDb, owned: &[GraphId]) -> usize {
    let mut keep = vec![false; db.len()];
    for &gid in owned {
        if let Some(k) = keep.get_mut(gid as usize) {
            *k = true;
        }
    }
    for (gid, &keep) in keep.iter().enumerate() {
        // `graph_mut` copies a shared graph, so only a slot that changes
        // asks for it.
        if !keep && db.graph(gid as GraphId).vertex_count() > 0 {
            *db.graph_mut(gid as GraphId) = Graph::new();
        }
    }
    keep.into_iter().filter(|&k| k).count()
}

pub(crate) fn fail_pipeline(shared: &EngineShared, msg: String) {
    let mut q = shared.queue.lock().expect("ingest queue poisoned");
    q.failed = Some(msg);
    drop(q);
    shared.applied.notify_all();
}

/// Enters a lock despite poison: no holder leaves its value half updated.
pub(crate) fn entered<G>(lock: LockResult<G>) -> G {
    lock.unwrap_or_else(PoisonError::into_inner)
}

/// Writes `db` to `dir/name.tmp`, then renames it over `name`, so no crash
/// tears a file `meta.json` names. [`write_meta`] orders the rename first.
fn commit_snapshot(dir: &Path, name: &str, db: &GraphDb) -> Result<(), String> {
    let tmp = dir.join(format!("{name}.tmp"));
    write_snapshot(&tmp, db)
        .and_then(|()| Ok(std::fs::rename(&tmp, dir.join(name))?))
        .map_err(|e| format!("snapshot: {e}"))
}

/// Writes the commit record `dir/meta.json`: threshold, folded epoch, and
/// the snapshot to boot from. Written to a temp file and renamed so the
/// swap is atomic. POSIX neither persists nor orders directory operations
/// without a directory fsync: one before the rename puts the snapshot it
/// names on disk first, one after it puts the commit on disk before the
/// caller collects garbage. A `k` left by an older daemon is never read.
fn write_meta(
    dir: &Path,
    min_support: Support,
    base_epoch: u64,
    snapshot: &str,
) -> Result<(), String> {
    let fields = vec![
        ("min_support".to_string(), JsonValue::Num(u64::from(min_support))),
        ("base_epoch".to_string(), JsonValue::Num(base_epoch)),
        ("snapshot".to_string(), JsonValue::Str(snapshot.to_string())),
    ];
    let tmp = dir.join("meta.json.tmp");
    let sync = |path: &Path| std::fs::File::open(path)?.sync_all();
    std::fs::write(&tmp, JsonValue::Obj(fields).to_json())
        .and_then(|()| sync(&tmp))
        .and_then(|()| sync(dir))
        .and_then(|()| std::fs::rename(&tmp, dir.join("meta.json")))
        .and_then(|()| sync(dir))
        .map_err(|e| format!("meta: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphmine_graph::GraphUpdate;

    fn small_db() -> GraphDb {
        (0..4)
            .map(|i| {
                let mut g = Graph::new();
                let a = g.add_vertex(0);
                let b = g.add_vertex(1);
                let c = g.add_vertex(2);
                g.add_edge(a, b, 10).unwrap();
                g.add_edge(b, c, 11).unwrap();
                if i % 2 == 0 {
                    g.add_edge(c, a, 12).unwrap();
                }
                g
            })
            .collect()
    }

    fn cfg() -> EngineConfig {
        EngineConfig { min_support: 4, ..EngineConfig::default() }
    }

    #[test]
    fn boot_serves_the_cold_mine_result() {
        let dir = tempfile::tempdir().unwrap();
        let db = small_db();
        let (engine, boot) = ServeEngine::boot(Some(&db), dir.path(), &cfg()).unwrap();
        assert!(!boot.from_snapshot);
        assert_eq!(boot.epoch, 0);
        let ep = engine.current();
        assert_eq!(ep.epoch, 0);
        // Two edges + the 2-edge path appear in all four graphs.
        assert_eq!(ep.patterns.len(), 3);
    }

    #[test]
    fn update_swaps_the_epoch_and_bad_batches_are_atomic() {
        let dir = tempfile::tempdir().unwrap();
        let db = small_db();
        let (engine, _) = ServeEngine::boot(Some(&db), dir.path(), &cfg()).unwrap();
        // Invalid second op: the whole batch must be rejected untouched.
        let bad = vec![
            DbUpdate { gid: 1, update: GraphUpdate::RelabelVertex { v: 0, label: 7 } },
            DbUpdate { gid: 1, update: GraphUpdate::AddEdge { u: 0, v: 99, label: 1 } },
        ];
        assert!(matches!(engine.apply_update(&bad), Err(UpdateError::Rejected(_))));
        assert_eq!(engine.current().epoch, 0);
        assert_eq!(engine.telemetry().counters().get(Counter::WalBatchesAppended), 0);

        let good = vec![DbUpdate { gid: 1, update: GraphUpdate::RelabelVertex { v: 0, label: 7 } }];
        let summary = engine.apply_update(&good).unwrap();
        assert_eq!(summary.seq, 1);
        let ep = engine.current();
        assert_eq!(ep.epoch, 1);
        assert_eq!(ep.patterns.len(), summary.pattern_count);
        assert!(summary.fi > 0, "relabeling a shared vertex demotes patterns");
        assert_eq!(engine.telemetry().counters().get(Counter::IngestWindows), 1);
        assert_eq!(engine.telemetry().counters().get(Counter::EpochSwaps), 1);
    }

    #[test]
    fn a_fold_copies_only_the_graphs_its_window_touches() {
        let dir = tempfile::tempdir().unwrap();
        let db = small_db();
        let pristine: GraphDb = db.iter().map(|(_, g)| g.clone()).collect();
        let (engine, _) = ServeEngine::boot(Some(&db), dir.path(), &cfg()).unwrap();
        let old = engine.current();
        let window = [DbUpdate { gid: 2, update: GraphUpdate::RelabelVertex { v: 0, label: 7 } }];
        engine.apply_update(&window).unwrap();
        let new = engine.current();
        assert_eq!(new.epoch, 1);
        // The served epoch is the database admission built: the tail itself.
        let tail = Arc::clone(&engine.shared.queue.lock().unwrap().tail);
        assert!(Arc::ptr_eq(&tail, &new.db), "the served epoch is the tail");
        for gid in 0..db.len() as GraphId {
            assert_eq!(new.db.shares_graph(&old.db, gid), gid != 2, "epochs, gid {gid}");
            assert!(old.db.shares_graph(&db, gid), "boot epoch and caller, gid {gid}");
        }
        assert_eq!(*old.db, pristine, "the superseded epoch is unchanged");
        assert_eq!(db, pristine, "the caller's database is unchanged");
        assert_eq!(new.db.graph(2).vlabel(0), 7);
    }

    /// After windows touching different gids (and, under a retention
    /// window, the expiry frames they cause), the caught-up tail and the
    /// served epoch hold one copy of every graph between them.
    #[test]
    fn a_caught_up_tail_and_epoch_share_every_graph() {
        let db = small_db();
        for window in [None, Some(2)] {
            let dir = tempfile::tempdir().unwrap();
            let config = EngineConfig { window, ..cfg() };
            let (engine, _) = ServeEngine::boot(Some(&db), dir.path(), &config).unwrap();
            let boot = engine.current();
            for (round, gid) in [0, 1, 0, 2].into_iter().enumerate() {
                let label = 20 + round as u32;
                let ops = [up(gid, GraphUpdate::RelabelVertex { v: 1, label })];
                engine.submit_window(&ops).unwrap();
            }
            drain(&engine);
            let served = engine.current();
            let tail = Arc::clone(&engine.shared.queue.lock().unwrap().tail);
            assert!(Arc::ptr_eq(&tail, &served.db), "window {window:?}");
            for gid in 0..db.len() as GraphId {
                assert!(tail.shares_graph(&served.db, gid), "window {window:?}, gid {gid}");
                assert_eq!(served.db.shares_graph(&boot.db, gid), gid == 3, "gid {gid}");
            }
        }
    }

    fn up(gid: GraphId, update: GraphUpdate) -> DbUpdate {
        DbUpdate { gid, update }
    }

    /// Every way a window is refused, in both modes and through both entry
    /// points. A refusal names the failing op by its index in the window
    /// the client sent, takes no seq, and moves neither the epoch, the tail
    /// nor the tracker.
    #[test]
    fn rejections_keep_their_verdicts_and_change_nothing() {
        use GraphUpdate::*;
        let rv = |gid, v, label| up(gid, RelabelVertex { v, label });
        let ae = |gid, u, v, label| up(gid, AddEdge { u, v, label });
        let av = |gid, attach_to| up(gid, AddVertex { label: 5, attach_to, elabel: 6 });
        let (de, dv) = (|gid, e| up(gid, DeleteEdge { e }), |gid, v| up(gid, DeleteVertex { v }));
        let earlier = "op 0: windowed mode: vertex 3 belongs to an earlier live window";
        // (window, verdict, windowed mode's verdict where its id rules
        // refuse what plain mode admits); `None` admits.
        let table: Vec<(Vec<DbUpdate>, Option<&str>, Option<&str>)> = vec![
            (vec![rv(9, 0, 1)], Some("op 0: graph 9 out of range (4 graphs)"), None),
            (
                vec![rv(1, 7, 1)],
                Some("op 0: vertex id 7 out of range (graph has 3 vertices)"),
                None,
            ),
            (
                vec![up(1, RelabelEdge { e: 9, label: 1 })],
                Some("op 0: edge id 9 out of range (graph has 2 edges)"),
                None,
            ),
            (vec![ae(1, 0, 0, 1)], Some("op 0: self-loop on vertex 0 is not allowed"), None),
            (vec![ae(1, 0, 1, 5)], Some("op 0: edge (0, 1) already exists"), None),
            (vec![de(1, 5)], Some("op 0: edge id 5 out of range (graph has 2 edges)"), None),
            (
                vec![rv(1, 0, 7), up(2, RelabelEdge { e: 0, label: 3 }), ae(1, 0, 99, 1)],
                Some("op 2: vertex id 99 out of range (graph has 3 vertices)"),
                None,
            ),
            (
                vec![av(1, 0), dv(1, 3), dv(1, 3)],
                Some("op 2: vertex id 3 out of range (graph has 3 vertices)"),
                None,
            ),
            (vec![dv(0, 9)], Some("op 0: vertex id 9 out of range (graph has 4 vertices)"), None),
            (vec![rv(0, 3, 1)], None, Some(earlier)),
            (
                vec![up(0, RelabelEdge { e: 3, label: 1 })],
                None,
                Some("op 0: windowed mode: edge 3 belongs to an earlier live window"),
            ),
            (vec![ae(0, 1, 3, 1)], None, Some(earlier)),
            (vec![av(0, 3)], None, Some(earlier)),
            (vec![de(0, 0)], None, Some("op 0: windowed mode: cannot delete base edge 0")),
            (
                vec![de(0, 3)],
                None,
                Some("op 0: windowed mode: cannot delete edge 3 of an earlier live window"),
            ),
            (vec![dv(0, 1)], None, Some("op 0: windowed mode: cannot delete base vertex 1")),
            (
                vec![dv(0, 3)],
                None,
                Some("op 0: windowed mode: cannot delete vertex 3 of an earlier live window"),
            ),
            (
                vec![rv(0, 3, 1), rv(0, 3, 2)],
                None,
                Some("op 1: windowed mode: vertex 3 belongs to an earlier live window"),
            ),
            // Coalesced to nothing: the dry run admits what submit admits.
            (vec![rv(0, 3, 1), rv(0, 3, 9)], None, None),
        ];
        for window in [None, Some(8)] {
            let dir = tempfile::tempdir().unwrap();
            let config = EngineConfig { window, ..cfg() };
            let (engine, _) = ServeEngine::boot(Some(&small_db()), dir.path(), &config).unwrap();
            // Window 1 grows vertex 3 and edge 3 on graph 0.
            engine
                .apply_update(&[up(0, AddVertex { label: 9, attach_to: 0, elabel: 13 })])
                .unwrap();
            let state = || {
                let q = engine.shared.queue.lock().unwrap();
                let live = q.tracker.as_ref().map(WindowTracker::live_count);
                (
                    engine.shared.journal.next_seq(),
                    engine.current().epoch,
                    Arc::clone(&q.tail),
                    live,
                )
            };
            for (ops, both, windowed) in &table {
                let before = state();
                let verdict = if window.is_some() { windowed.or(*both) } else { *both };
                match verdict {
                    None => assert_eq!(engine.validate_window(ops), Ok(()), "{ops:?}"),
                    Some(msg) => {
                        let refused = Err(UpdateError::Rejected(msg.to_string()));
                        assert_eq!(engine.validate_window(ops), refused, "{ops:?}");
                        assert_eq!(engine.submit_window(ops).map(drop), refused, "{ops:?}");
                    }
                }
                let after = state();
                assert_eq!((after.0, after.1, after.3), (before.0, before.1, before.3), "{ops:?}");
                assert!(Arc::ptr_eq(&after.2, &before.2), "{ops:?}");
            }
        }
    }

    #[test]
    fn coalesced_window_keeps_update_semantics() {
        let dir = tempfile::tempdir().unwrap();
        let db = small_db();
        let (engine, _) = ServeEngine::boot(Some(&db), dir.path(), &cfg()).unwrap();
        // A relabel storm that folds to a single op plus a full cancel.
        let ops = vec![
            DbUpdate { gid: 1, update: GraphUpdate::RelabelVertex { v: 0, label: 5 } },
            DbUpdate { gid: 1, update: GraphUpdate::RelabelVertex { v: 0, label: 7 } },
            DbUpdate { gid: 2, update: GraphUpdate::RelabelVertex { v: 1, label: 9 } },
            DbUpdate { gid: 2, update: GraphUpdate::RelabelVertex { v: 1, label: 1 } },
        ];
        let summary = engine.apply_update(&ops).unwrap();
        assert_eq!(summary.seq, 1);
        let counters = engine.telemetry().counters();
        assert_eq!(counters.get(Counter::IngestOpsIn), 4);
        assert_eq!(counters.get(Counter::IngestOpsCoalesced), 3, "one survivor out of four");
        assert_eq!(engine.current().db.graph(1).vlabel(0), 7);
        assert_eq!(engine.current().db.graph(2).vlabel(1), 1, "cancelled chain left alone");
    }

    #[test]
    fn backpressure_rejects_without_admitting() {
        let dir = tempfile::tempdir().unwrap();
        let db = small_db();
        let mut config = cfg();
        config.ingest.max_pending = 1;
        let (engine, _) = ServeEngine::boot(Some(&db), dir.path(), &config).unwrap();
        // Fill the bound from underneath: park a window in the queue by
        // stopping the applier first.
        {
            let mut q = engine.shared.queue.lock().unwrap();
            let tail = Arc::clone(&q.tail);
            q.windows.insert(1, tail);
        }
        let ops = vec![DbUpdate { gid: 0, update: GraphUpdate::RelabelVertex { v: 0, label: 3 } }];
        match engine.submit_window(&ops) {
            Err(UpdateError::Backpressure { pending }) => assert_eq!(pending, 1),
            other => panic!("expected backpressure, got {other:?}"),
        }
        assert_eq!(engine.telemetry().counters().get(Counter::IngestBackpressure), 1);
        assert_eq!(engine.telemetry().counters().get(Counter::WalBatchesAppended), 0);
        // Unpark and confirm the pipeline still works.
        {
            let mut q = engine.shared.queue.lock().unwrap();
            q.windows.remove(&1);
        }
        let summary = engine.apply_update(&ops).unwrap();
        assert_eq!(summary.seq, 1);
    }

    #[test]
    fn support_path_covers_all_three_sources() {
        let dir = tempfile::tempdir().unwrap();
        let db = small_db();
        let (engine, _) = ServeEngine::boot(Some(&db), dir.path(), &cfg()).unwrap();
        let ep = engine.current();

        // Frequent pattern: answered from P(D).
        let mut frequent = Graph::new();
        let a = frequent.add_vertex(0);
        let b = frequent.add_vertex(1);
        frequent.add_edge(a, b, 10).unwrap();
        assert_eq!(engine.support_of(&ep, &frequent), (4, SupportSource::Patterns));

        // Infrequent but present: the triangle edge, in graphs 0 and 2.
        let mut rare = Graph::new();
        let a = rare.add_vertex(2);
        let b = rare.add_vertex(0);
        rare.add_edge(a, b, 12).unwrap();
        let (s, src) = engine.support_of(&ep, &rare);
        assert_eq!(s, 2);
        assert_eq!(src, SupportSource::Embeddings);
        // The memo keeps the source.
        assert_eq!(engine.support_of(&ep, &rare), (2, src), "memo hit answers identically");

        // Zero embedding budget: the triangle's root edge list has
        // occurrences, so it cannot be admitted and the query falls back
        // to isomorphism search. (An *absent* pattern would not do — its
        // empty list costs zero bytes and fits any budget.)
        let mut tri = Graph::new();
        let a = tri.add_vertex(0);
        let b = tri.add_vertex(1);
        let c = tri.add_vertex(2);
        tri.add_edge(a, b, 10).unwrap();
        tri.add_edge(b, c, 11).unwrap();
        tri.add_edge(c, a, 12).unwrap();
        let (s, src) = engine.support_under(&ep, &tri, 0);
        assert_eq!(s, 2);
        assert_eq!(src, SupportSource::Search);
        // The search answer is screened: graphs 1 and 3 lack the closing
        // edge, so only graphs 0 and 2 are searched.
        let counters = engine.telemetry().counters();
        assert_eq!(counters.get(Counter::IsoTestsRun), 2);
        assert_eq!(counters.get(Counter::IsoTestsPruned), 2);
    }

    #[test]
    fn clean_stop_then_boot_resumes_epoch_and_patterns() {
        let dir = tempfile::tempdir().unwrap();
        let db = small_db();
        let (engine, _) = ServeEngine::boot(Some(&db), dir.path(), &cfg()).unwrap();
        // Close the triangle everywhere so multi-edge patterns stay
        // frequent.
        let up = vec![
            DbUpdate { gid: 1, update: GraphUpdate::AddEdge { u: 2, v: 0, label: 12 } },
            DbUpdate { gid: 3, update: GraphUpdate::AddEdge { u: 2, v: 0, label: 12 } },
        ];
        engine.apply_update(&up).unwrap();
        let served = engine.current();
        engine.clean_stop().unwrap();
        drop(engine);

        // min_support in the boot config is deliberately wrong; the
        // persisted metadata must win.
        let stale = EngineConfig { min_support: 999, ..EngineConfig::default() };
        let (engine, boot) = ServeEngine::boot(None, dir.path(), &stale).unwrap();
        assert!(boot.from_snapshot);
        assert_eq!(boot.replayed, 0, "clean stop folded the journal away");
        assert_eq!(boot.epoch, 1, "numbering continues from the snapshot");
        assert_eq!(engine.min_support(), 4);
        assert!(engine.current().patterns.same_codes_and_supports(&served.patterns));
        // A data directory is the snapshot, the journal and the commit
        // record: no mined result is left on disk.
        let three = ["journal.wal", "meta.json", "snapshot.1.gs"];
        assert_eq!(listing(dir.path()), three);

        // A stop with nothing new names the committed file again. It must
        // replace it by a rename, never rewrite it in place: a hard link
        // to the committed inode keeps its backdated mtime and its bytes.
        // The stop also collects a temp file an earlier crash left.
        let elsewhere = tempfile::tempdir().unwrap();
        let witness = elsewhere.path().join("witness.gs");
        std::fs::hard_link(dir.path().join("snapshot.1.gs"), &witness).unwrap();
        let backdated = std::time::UNIX_EPOCH + std::time::Duration::from_secs(1 << 30);
        let file = std::fs::File::options().write(true).open(&witness).unwrap();
        file.set_modified(backdated).unwrap();
        let bytes = std::fs::read(&witness).unwrap();
        std::fs::write(dir.path().join("snapshot.0.gs.tmp"), &bytes[..100]).unwrap();
        engine.clean_stop().unwrap();
        drop(engine);
        assert_eq!(std::fs::metadata(&witness).unwrap().modified().unwrap(), backdated);
        assert_eq!(std::fs::read(&witness).unwrap(), bytes);
        assert_eq!(std::fs::read(dir.path().join("snapshot.1.gs")).unwrap(), bytes);
        assert_eq!(listing(dir.path()), three);
        let (engine, boot) = ServeEngine::boot(None, dir.path(), &cfg()).unwrap();
        assert_eq!(boot.epoch, 1);
        assert!(engine.current().patterns.same_codes_and_supports(&served.patterns));
    }

    /// The sorted file names in `dir`.
    fn listing(dir: &Path) -> Vec<String> {
        let mut files: Vec<String> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        files.sort();
        files
    }

    /// The commit record names no unit count, and one written by an older
    /// daemon (`"k": 7`, nothing mines with units here) is ignored.
    #[test]
    fn meta_json_has_no_k_and_an_old_k_is_ignored() {
        let dir = tempfile::tempdir().unwrap();
        let db = small_db();
        let (engine, _) = ServeEngine::boot(Some(&db), dir.path(), &cfg()).unwrap();
        let served = engine.current();
        engine.clean_stop().unwrap();
        drop(engine);
        let meta_path = dir.path().join("meta.json");
        let meta = std::fs::read_to_string(&meta_path).unwrap();
        let parsed = JsonValue::parse(&meta).unwrap();
        assert!(parsed.field("k").is_none(), "{meta}");

        let older = meta.replacen('{', r#"{"k":7,"#, 1);
        for record in [older, meta] {
            std::fs::write(&meta_path, &record).unwrap();
            let (engine, boot) = ServeEngine::boot(None, dir.path(), &cfg()).unwrap();
            assert!(boot.from_snapshot, "{record}");
            assert!(engine.current().patterns.same_codes_and_supports(&served.patterns));
        }
    }

    /// What a daemon serves after a restart is a function of the snapshot
    /// and the journal only. A pattern file left by an older daemon — here
    /// with one support raised by hand, then missing, then unparsable — is
    /// never read, whatever `meta.json` says about it.
    #[test]
    fn restart_serves_what_the_snapshot_holds() {
        use graphmine_miner::{GSpan, MemoryMiner};

        let dir = tempfile::tempdir().unwrap();
        let db = small_db();
        let (engine, _) = ServeEngine::boot(Some(&db), dir.path(), &cfg()).unwrap();
        engine.apply_update(&window_stream()[0]).unwrap();
        engine.clean_stop().unwrap();
        let snapshot = engine.current().db.clone();
        drop(engine);
        let truth = GSpan::new().mine(&snapshot, 4);
        let edited = truth.iter().find(|p| p.size() == 2).expect("a 2-edge pattern is frequent");

        // The older daemon's commit record named its pattern file.
        let meta_path = dir.path().join("meta.json");
        let meta = std::fs::read_to_string(&meta_path).unwrap();
        let meta = meta.replacen('}', r#","patterns":"patterns.1.pat"}"#, 1);
        std::fs::write(&meta_path, meta).unwrap();
        let pat_path = dir.path().join("patterns.1.pat");

        let mut raised = truth.clone();
        raised.insert(graphmine_graph::Pattern::from_code(edited.code.clone(), 55));
        let mut tampered = Vec::new();
        graphmine_graph::pattern_io::write_patterns(&mut tampered, &raised).unwrap();
        let leftovers: [Option<&[u8]>; 3] = [Some(&tampered), None, Some(b"55 not a pattern\n")];
        for left in leftovers {
            match left {
                Some(bytes) => std::fs::write(&pat_path, bytes).unwrap(),
                None => std::fs::remove_file(&pat_path).unwrap(),
            }
            let (engine, boot) = ServeEngine::boot(None, dir.path(), &cfg()).unwrap();
            assert!(boot.from_snapshot);
            let ep = engine.current();
            assert!(ep.patterns.same_codes_and_supports(&truth));
            assert_eq!(
                engine.support_of(&ep, &edited.graph),
                (edited.support, SupportSource::Patterns)
            );
        }
    }

    /// Blocks until every pending window (including synthesized expiry
    /// frames) has folded into the served epoch.
    fn drain(engine: &ServeEngine) {
        for _ in 0..1000 {
            if engine.pending_windows() == 0 {
                return;
            }
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        panic!("ingest pipeline failed to drain");
    }

    /// The four windows of the sliding-window tests: an edge + a relabel
    /// that expire, then the same shapes again on other graphs.
    fn window_stream() -> [Vec<DbUpdate>; 4] {
        [
            vec![DbUpdate { gid: 1, update: GraphUpdate::AddEdge { u: 2, v: 0, label: 12 } }],
            vec![DbUpdate { gid: 0, update: GraphUpdate::RelabelVertex { v: 0, label: 5 } }],
            vec![DbUpdate { gid: 3, update: GraphUpdate::AddEdge { u: 2, v: 0, label: 12 } }],
            vec![DbUpdate { gid: 2, update: GraphUpdate::RelabelVertex { v: 0, label: 5 } }],
        ]
    }

    /// Boots a throwaway engine over `db` and returns its mined epoch —
    /// the from-scratch reference a windowed engine must match.
    fn reference_epoch(db: &GraphDb) -> Arc<ResultEpoch> {
        let dir = tempfile::tempdir().unwrap();
        let (engine, _) = ServeEngine::boot(Some(db), dir.path(), &cfg()).unwrap();
        engine.current()
    }

    #[test]
    fn windowed_serving_expires_past_the_horizon() {
        let dir = tempfile::tempdir().unwrap();
        let db = small_db();
        let config = EngineConfig { window: Some(2), ..cfg() };
        let (engine, _) = ServeEngine::boot(Some(&db), dir.path(), &config).unwrap();
        let windows = window_stream();
        for w in &windows {
            engine.apply_update(w).unwrap();
        }
        drain(&engine);
        assert_eq!(engine.telemetry().counters().get(Counter::IngestWindowsExpired), 2);

        // Served state must equal a from-scratch mine of base data plus
        // the two live windows: window 1's edge is gone, window 2's
        // relabel is restored.
        let mut live = db.clone();
        apply_all(&mut live, &windows[2]).unwrap();
        apply_all(&mut live, &windows[3]).unwrap();
        let served = engine.current();
        assert_eq!(*served.db, live, "served tail after two expiries");
        let reference = reference_epoch(&live);
        assert!(
            served.patterns.same_codes_and_supports(&reference.patterns),
            "windowed result diverged from a batch mine of the live windows"
        );
        // The expired edge really stopped counting: graphs 0 and 3 match
        // edge (2)-12-(0) (window 4's relabel takes graph 2 out, window
        // 1's expired copy on graph 1 no longer counts).
        let mut closing = Graph::new();
        let a = closing.add_vertex(2);
        let b = closing.add_vertex(0);
        closing.add_edge(a, b, 12).unwrap();
        assert_eq!(engine.support_of(&served, &closing).0, 2);
    }

    #[test]
    fn windowed_boot_replays_and_catches_up() {
        let dir = tempfile::tempdir().unwrap();
        let db = small_db();
        let config = EngineConfig { window: Some(2), ..cfg() };
        let (engine, _) = ServeEngine::boot(Some(&db), dir.path(), &config).unwrap();
        let windows = window_stream();
        for w in &windows {
            engine.apply_update(w).unwrap();
        }
        drain(&engine);
        drop(engine);

        // Crash-style restart (no clean stop): the journal holds the four
        // windows plus two expiry frames; replay must rebuild the tracker
        // without double-expiring.
        let mut live = db.clone();
        apply_all(&mut live, &windows[2]).unwrap();
        apply_all(&mut live, &windows[3]).unwrap();
        let (engine, boot) = ServeEngine::boot(None, dir.path(), &config).unwrap();
        assert_eq!(boot.replayed, 6, "four windows and two expiry frames");
        assert_eq!(*engine.current().db, live, "replayed windowed tail");
        drop(engine);

        // Rebooting with a tighter horizon expires the overhang at boot,
        // journal-first: the catch-up frame lands before serving starts.
        let shrunk = EngineConfig { window: Some(1), ..cfg() };
        let (engine, boot) = ServeEngine::boot(None, dir.path(), &shrunk).unwrap();
        let mut last = db.clone();
        apply_all(&mut last, &windows[3]).unwrap();
        assert_eq!(*engine.current().db, last, "tail after boot catch-up");
        let reference = reference_epoch(&last);
        assert!(engine.current().patterns.same_codes_and_supports(&reference.patterns));
        assert_eq!(boot.epoch, 7, "the catch-up expiry frame took a seq");

        // Clean stop freezes the surviving window into the snapshot;
        // retention restarts over windows admitted after the restart.
        engine.clean_stop().unwrap();
        drop(engine);
        let (engine, boot) = ServeEngine::boot(None, dir.path(), &shrunk).unwrap();
        assert_eq!(boot.replayed, 0, "clean stop folded the journal away");
        assert_eq!(*engine.current().db, last, "frozen snapshot serves unchanged");
        assert_eq!(
            engine.shared.queue.lock().unwrap().tracker.as_ref().unwrap().live_count(),
            0,
            "frozen windows are base data, not live windows"
        );
    }

    #[test]
    fn windowed_validation_spans_pending_windows() {
        let dir = tempfile::tempdir().unwrap();
        let db = small_db();
        let config = EngineConfig { window: Some(8), ..cfg() };
        let (engine, _) = ServeEngine::boot(Some(&db), dir.path(), &config).unwrap();
        // Window 1 grows a pendant vertex on graph 0 (vertex 3, edge 3).
        engine
            .apply_update(&[DbUpdate {
                gid: 0,
                update: GraphUpdate::AddVertex { label: 9, attach_to: 0, elabel: 13 },
            }])
            .unwrap();
        // A later window may not reference or delete it...
        let cross =
            vec![DbUpdate { gid: 0, update: GraphUpdate::RelabelVertex { v: 3, label: 1 } }];
        match engine.validate_window(&cross) {
            Err(UpdateError::Rejected(msg)) => {
                assert!(msg.contains("belongs to an earlier live window"), "{msg}");
            }
            other => panic!("expected rejection, got {other:?}"),
        }
        let base_delete = vec![DbUpdate { gid: 0, update: GraphUpdate::DeleteEdge { e: 0 } }];
        match engine.validate_window(&base_delete) {
            Err(UpdateError::Rejected(msg)) => {
                assert!(msg.contains("cannot delete base edge"), "{msg}");
            }
            other => panic!("expected rejection, got {other:?}"),
        }
        // ...while deleting its own creations stays legal.
        engine
            .apply_update(&[
                DbUpdate { gid: 1, update: GraphUpdate::AddEdge { u: 2, v: 0, label: 12 } },
                DbUpdate { gid: 1, update: GraphUpdate::DeleteEdge { e: 2 } },
            ])
            .unwrap();
        assert_eq!(engine.current().db.graph(1).edge_count(), 2);
    }

    /// A shard holds only its owned graphs: boot empties the other slots,
    /// so every count — from `P(D)` or not — is an owned count.
    #[test]
    fn owned_support_restricts_to_the_owned_set() {
        let dir = tempfile::tempdir().unwrap();
        let db = small_db();
        let mut config = cfg();
        config.min_support = 2;
        config.owned = Some(vec![3, 1]); // unsorted on purpose
        let (engine, _) = ServeEngine::boot(Some(&db), dir.path(), &config).unwrap();
        let ep = engine.current();
        assert_eq!(ep.db.len(), 4, "gid alignment survives");
        assert_eq!(ep.db.graph(0).vertex_count() + ep.db.graph(2).vertex_count(), 0);
        assert!(ep.db.shares_graph(&db, 1) && ep.db.shares_graph(&db, 3), "owned slots are shared");

        // The (0)-10-(1) edge is in all four graphs; two are owned, and the
        // owned count is frequent at 2, so `P(D)` answers it.
        let mut frequent = Graph::new();
        let a = frequent.add_vertex(0);
        let b = frequent.add_vertex(1);
        frequent.add_edge(a, b, 10).unwrap();
        assert_eq!(engine.support_of(&ep, &frequent), (2, SupportSource::Patterns));

        // The triangle edge lives in gids 0 and 2 — neither owned.
        let mut rare = Graph::new();
        let a = rare.add_vertex(2);
        let b = rare.add_vertex(0);
        rare.add_edge(a, b, 12).unwrap();
        assert_eq!(engine.support_of(&ep, &rare).0, 0);

        let status = engine.handle(&Request::Status { report: false });
        assert_eq!(status.field("owned_graphs").and_then(JsonValue::as_num), Some(2));

        // The slots stay empty across a restart from the snapshot, and a
        // snapshot written before the slots were emptied (an older plan's
        // shard file) is emptied on the way in.
        engine.clean_stop().unwrap();
        drop(engine);
        let (engine, boot) = ServeEngine::boot(None, dir.path(), &config).unwrap();
        assert!(boot.from_snapshot);
        assert_eq!(engine.support_of(&engine.current(), &frequent).0, 2);
        let dir2 = tempfile::tempdir().unwrap();
        ServeEngine::boot(Some(&db), dir2.path(), &cfg()).unwrap().0.clean_stop().unwrap();
        let (older, _) = ServeEngine::boot(None, dir2.path(), &config).unwrap();
        assert_eq!(older.support_of(&older.current(), &rare).0, 0);

        // Single-process mode: no owned set means every gid counts.
        let dir3 = tempfile::tempdir().unwrap();
        let (single, _) = ServeEngine::boot(Some(&db), dir3.path(), &cfg()).unwrap();
        assert_eq!(single.support_of(&single.current(), &frequent).0, 4);
    }

    #[test]
    fn epoch_commit_waits_for_the_seq_and_is_monotone() {
        let dir = tempfile::tempdir().unwrap();
        let db = small_db();
        let (engine, _) = ServeEngine::boot(Some(&db), dir.path(), &cfg()).unwrap();
        assert_eq!(engine.global_epoch(), 0);
        let ops = vec![DbUpdate { gid: 0, update: GraphUpdate::RelabelVertex { v: 0, label: 5 } }];
        let seq = engine.submit_window(&ops).unwrap().seq;
        assert_eq!(engine.commit_epoch(5, seq), Ok(5));
        assert!(engine.current().epoch >= seq, "commit waited for application");
        // An older commit can never roll the epoch back.
        assert_eq!(engine.commit_epoch(3, 0), Ok(5));
        assert_eq!(engine.global_epoch(), 5);
        // A seq the journal never assigned is rejected, not hung on.
        assert!(matches!(engine.commit_epoch(9, 99), Err(UpdateError::Rejected(_))));
        let status = engine.handle(&Request::Status { report: false });
        assert_eq!(status.field("global_epoch").and_then(JsonValue::as_num), Some(5));
    }

    #[test]
    fn dry_run_validates_without_admitting() {
        let dir = tempfile::tempdir().unwrap();
        let db = small_db();
        let (engine, _) = ServeEngine::boot(Some(&db), dir.path(), &cfg()).unwrap();
        let bad = vec![DbUpdate { gid: 1, update: GraphUpdate::AddEdge { u: 0, v: 99, label: 1 } }];
        assert!(matches!(engine.validate_window(&bad), Err(UpdateError::Rejected(_))));
        // An out-of-range gid reports database bounds, not a vertex error.
        let bad_gid =
            vec![DbUpdate { gid: 9, update: GraphUpdate::RelabelVertex { v: 0, label: 7 } }];
        match engine.validate_window(&bad_gid) {
            Err(UpdateError::Rejected(msg)) => {
                assert_eq!(msg, "op 0: graph 9 out of range (4 graphs)");
            }
            other => panic!("expected rejection, got {other:?}"),
        }
        let good = vec![DbUpdate { gid: 1, update: GraphUpdate::RelabelVertex { v: 0, label: 7 } }];
        engine.validate_window(&good).unwrap();
        // Nothing admitted, journaled, or applied by either verdict.
        assert_eq!(engine.current().epoch, 0);
        assert_eq!(engine.telemetry().counters().get(Counter::WalBatchesAppended), 0);
        let resp =
            engine.handle(&Request::Update { ops: good, ack: AckMode::Applied, dry_run: true });
        assert_eq!(resp.field("valid").and_then(JsonValue::as_num), Some(1));
        assert_eq!(engine.current().epoch, 0);
    }

    #[test]
    fn support_batch_answers_in_request_order() {
        let dir = tempfile::tempdir().unwrap();
        let db = small_db();
        let mut config = cfg();
        config.owned = Some(vec![0, 2]);
        let (engine, _) = ServeEngine::boot(Some(&db), dir.path(), &config).unwrap();
        let mut frequent = Graph::new();
        let a = frequent.add_vertex(0);
        let b = frequent.add_vertex(1);
        frequent.add_edge(a, b, 10).unwrap();
        let mut rare = Graph::new();
        let a = rare.add_vertex(2);
        let b = rare.add_vertex(0);
        rare.add_edge(a, b, 12).unwrap();
        // Owned gids are 0 and 2: both hold the frequent edge and both
        // hold the triangle edge. The `owned` flag older routers send
        // changes nothing.
        for owned in [true, false] {
            let graphs = vec![frequent.clone(), rare.clone()];
            let resp = engine.handle(&Request::SupportBatch { graphs, owned });
            let supports: Vec<u64> = resp
                .field("supports")
                .and_then(JsonValue::as_arr)
                .unwrap()
                .iter()
                .map(|v| v.as_num().unwrap())
                .collect();
            assert_eq!(supports, vec![2, 2], "owned: {owned}");
        }
    }

    #[test]
    fn durable_ack_windows_apply_in_order() {
        let dir = tempfile::tempdir().unwrap();
        let db = small_db();
        let (engine, _) = ServeEngine::boot(Some(&db), dir.path(), &cfg()).unwrap();
        let mut seqs = Vec::new();
        for round in 0..3u32 {
            let ops = vec![DbUpdate {
                gid: 0,
                update: GraphUpdate::RelabelVertex { v: 0, label: 20 + round },
            }];
            seqs.push(engine.submit_window(&ops).unwrap().seq);
        }
        assert_eq!(seqs, vec![1, 2, 3]);
        let summary = engine.wait_applied(3).unwrap();
        assert_eq!(summary.seq, 3);
        assert_eq!(engine.current().epoch, 3);
        assert_eq!(engine.current().db.graph(0).vlabel(0), 22);
        let counters = engine.telemetry().counters();
        assert_eq!(counters.get(Counter::EpochSwaps), 3);
        assert_eq!(counters.get(Counter::IngestWindows), 3);
        assert_eq!(counters.get(Counter::WalBatchesAppended), 3);
    }
}
