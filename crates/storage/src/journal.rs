//! Write-ahead journal for database update batches.
//!
//! The serving daemon acknowledges an `update` request only after the batch
//! has reached stable storage. The journal provides that guarantee on top of
//! [`ByteStore`]: each batch is framed as
//!
//! ```text
//! [len: u32 LE] [crc32: u32 LE] [payload: len bytes]
//! payload = [seq: u64 LE] [expiry: u64 LE] [n: u32 LE] [n × op]
//! op      = [gid: u32 LE] [tag: u8] [a: u32 LE] [b: u32 LE] [c: u32 LE]
//! ```
//!
//! `expiry` is `0` for an ordinary batch; a non-zero value marks the frame
//! as the synthesized inverse batch that expires the window whose sequence
//! number it names (window sequence numbers are 1-based, so `0` is never a
//! valid window). Journaling expiry as a normal frame keeps replay
//! deterministic: recovery replays exactly the acked prefix, expiries
//! included, and can never double-expire a window.
//!
//! Frames carry a CRC-32 (IEEE) over the payload. `append_batch` flushes and
//! fsyncs before returning, so a returned sequence number means the batch
//! survives a crash. [`UpdateJournal::recover`] rebuilds the acknowledged
//! prefix by scanning frames and stops at the first zero/oversized length or
//! CRC mismatch — a torn tail from a crash mid-write is zeroed and ignored,
//! never replayed.

use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use graphmine_graph::{DbUpdate, GraphUpdate};

use crate::{ByteStore, StorageError, PAGE_SIZE};

/// Frame header bytes: `len` + `crc32`.
const FRAME_HEADER: usize = 8;
/// Bytes per serialized op: gid + tag + three `u32` arguments.
const OP_BYTES: usize = 17;
/// Upper bound on a sane frame payload; larger lengths are treated as a
/// torn/corrupt tail rather than attempted.
const MAX_FRAME: u32 = 64 << 20;

/// One recovered (or to-be-written) journal entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalBatch {
    /// Monotonic batch sequence number (1-based).
    pub seq: u64,
    /// The updates of the batch, in application order.
    pub updates: Vec<DbUpdate>,
    /// `Some(w)` when this frame is the synthesized inverse batch expiring
    /// window `w` from the sliding window; `None` for an ordinary batch.
    pub expiry: Option<u64>,
}

/// An fsync-before-ack write-ahead log of [`DbUpdate`] batches.
pub struct UpdateJournal {
    store: ByteStore,
    path: PathBuf,
    pool_pages: usize,
    next_seq: u64,
}

impl UpdateJournal {
    /// Creates an empty journal at `path` (truncating any existing file).
    ///
    /// # Errors
    ///
    /// Propagates file-system failures.
    pub fn create(path: &Path, pool_pages: usize) -> Result<Self, StorageError> {
        let store = ByteStore::create(path, pool_pages, Duration::ZERO)?;
        Ok(UpdateJournal { store, path: path.to_path_buf(), pool_pages, next_seq: 1 })
    }

    /// Opens the journal at `path`, replaying every intact frame. Returns
    /// the journal (positioned after the last intact frame) and the
    /// recovered batches in order. A torn tail — a partially written frame
    /// left by a crash during `append_batch` — is zeroed and ignored. A
    /// missing file yields an empty journal.
    ///
    /// # Errors
    ///
    /// Propagates file-system failures.
    pub fn recover(
        path: &Path,
        pool_pages: usize,
    ) -> Result<(Self, Vec<JournalBatch>), StorageError> {
        if !path.exists() {
            return Ok((Self::create(path, pool_pages)?, Vec::new()));
        }
        let bytes = std::fs::read(path)?;
        let (batches, valid_len) = scan_frames(&bytes);
        let padded_len = (valid_len as u64).div_ceil(PAGE_SIZE as u64) * PAGE_SIZE as u64;
        if bytes[valid_len..].iter().any(|&b| b != 0) || bytes.len() as u64 != padded_len {
            // Zero the torn tail so a later scan cannot resurrect it, and
            // restore page alignment for the page file.
            let mut clean = bytes[..valid_len].to_vec();
            clean.resize(padded_len as usize, 0);
            std::fs::write(path, &clean)?;
        }
        let store = ByteStore::open(path, pool_pages, valid_len as u64, Duration::ZERO)?;
        let next_seq = batches.last().map_or(1, |b| b.seq + 1);
        Ok((UpdateJournal { store, path: path.to_path_buf(), pool_pages, next_seq }, batches))
    }

    /// Appends a batch and forces it to stable storage. The returned
    /// sequence number is durable: after `append_batch` returns, a crash
    /// and [`UpdateJournal::recover`] will replay this batch.
    ///
    /// # Errors
    ///
    /// Propagates write and fsync failures.
    pub fn append_batch(&mut self, updates: &[DbUpdate]) -> Result<u64, StorageError> {
        let seq = self.append_unsynced(updates, None)?;
        self.sync()?;
        Ok(seq)
    }

    /// Appends a batch frame *without* forcing it to disk. The returned
    /// sequence number is **not** durable until a following
    /// [`UpdateJournal::sync`] — the group-commit building block: many
    /// frames appended, one shared fsync barrier. A crash before the
    /// barrier leaves a torn tail that recovery drops. A `Some(w)` expiry
    /// marks the frame as the inverse batch expiring window `w`.
    ///
    /// # Errors
    ///
    /// Propagates write failures.
    pub fn append_unsynced(
        &mut self,
        updates: &[DbUpdate],
        expiry: Option<u64>,
    ) -> Result<u64, StorageError> {
        let seq = self.next_seq;
        let payload = encode_payload(seq, updates, expiry);
        let mut frame = Vec::with_capacity(FRAME_HEADER + payload.len());
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&crc32(&payload).to_le_bytes());
        frame.extend_from_slice(&payload);
        self.store.append(&frame)?;
        self.next_seq = seq + 1;
        Ok(seq)
    }

    /// The fsync barrier: forces every frame appended so far to stable
    /// storage. After `sync` returns, all sequence numbers handed out by
    /// [`UpdateJournal::append_unsynced`] are durable.
    ///
    /// # Errors
    ///
    /// Propagates write and fsync failures.
    pub fn sync(&mut self) -> Result<(), StorageError> {
        self.store.flush()
    }

    /// Truncates the journal after its contents have been folded into a
    /// snapshot. The next appended batch continues the sequence numbering.
    ///
    /// # Errors
    ///
    /// Propagates file-system failures.
    pub fn reset(&mut self) -> Result<(), StorageError> {
        self.store = ByteStore::create(&self.path, self.pool_pages, Duration::ZERO)?;
        Ok(())
    }

    /// Sequence number the next batch will receive.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Raises the next sequence number to `seq` (no-op when already higher).
    ///
    /// A snapshot folds the journal away ([`UpdateJournal::reset`]) but the
    /// global batch numbering must keep counting across restarts; after
    /// recovering an empty journal the caller restores the numbering from
    /// its snapshot metadata with this.
    pub fn set_next_seq(&mut self, seq: u64) {
        self.next_seq = self.next_seq.max(seq);
    }

    /// Bytes of journaled frames (excluding page padding).
    pub fn len_bytes(&self) -> u64 {
        self.store.len_bytes()
    }
}

/// Lifetime totals of a [`GroupCommitJournal`]'s committer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GroupStats {
    /// Fsync barriers executed (each covers one commit group).
    pub groups: u64,
    /// Frames made durable across all groups.
    pub frames: u64,
}

/// State shared between submitters and the committer thread.
struct GroupState {
    /// The journal, absent while the committer holds it for an
    /// append+fsync round (so the next group forms during the barrier).
    journal: Option<UpdateJournal>,
    /// Frames assigned a sequence number but not yet durable
    /// (`(seq, updates, expiry)`).
    pending: VecDeque<(u64, Vec<DbUpdate>, Option<u64>)>,
    /// Mirror of the journal's next sequence number, valid even while the
    /// journal is out with the committer.
    next_seq: u64,
    /// Highest sequence number known durable.
    durable_seq: u64,
    /// Sticky first commit failure: once an append or fsync fails the
    /// acked-prefix invariant can no longer be promised, so every waiter
    /// and every later submission gets this error.
    failed: Option<String>,
    stop: bool,
    stats: GroupStats,
}

struct GroupShared {
    state: Mutex<GroupState>,
    /// Wakes the committer: frames pending or stop requested.
    work: Condvar,
    /// Wakes waiters: `durable_seq` advanced, journal returned to its
    /// slot, or the committer failed.
    done: Condvar,
}

/// A group-committing front end over [`UpdateJournal`].
///
/// Concurrently submitted frames are drained by a dedicated committer
/// thread into one append run followed by a **single** fsync barrier;
/// every waiter is acknowledged after the shared barrier. The crash
/// contract is unchanged from `append_batch`: a sequence number returned
/// by [`GroupCommitJournal::submit`] is durable, and recovery replays
/// exactly a clean prefix of the submitted order (frames are written in
/// sequence order, so no later frame can be durable without its
/// predecessors).
pub struct GroupCommitJournal {
    shared: Arc<GroupShared>,
    committer: Option<JoinHandle<()>>,
}

impl GroupCommitJournal {
    /// Wraps `journal` and spawns the committer thread.
    pub fn new(journal: UpdateJournal) -> Self {
        let next_seq = journal.next_seq();
        let shared = Arc::new(GroupShared {
            state: Mutex::new(GroupState {
                journal: Some(journal),
                pending: VecDeque::new(),
                next_seq,
                durable_seq: next_seq - 1,
                failed: None,
                stop: false,
                stats: GroupStats::default(),
            }),
            work: Condvar::new(),
            done: Condvar::new(),
        });
        let committer = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("wal-committer".to_string())
                .spawn(move || committer_loop(&shared))
                .expect("spawn wal-committer")
        };
        GroupCommitJournal { shared, committer: Some(committer) }
    }

    /// Assigns the next sequence number to `updates` and queues the frame
    /// for the committer. Returns immediately — the sequence number is
    /// **not** durable until [`GroupCommitJournal::wait_durable`] returns
    /// for it.
    ///
    /// # Errors
    ///
    /// Fails when a previous commit round failed (sticky).
    pub fn enqueue(&self, updates: &[DbUpdate]) -> Result<u64, StorageError> {
        self.enqueue_frame(updates, None)
    }

    /// Like [`GroupCommitJournal::enqueue`], but marks the frame as the
    /// synthesized inverse batch expiring window `window` — the marker
    /// travels through the WAL so replay expires exactly once.
    ///
    /// # Errors
    ///
    /// Fails when a previous commit round failed (sticky).
    pub fn enqueue_expiry(&self, updates: &[DbUpdate], window: u64) -> Result<u64, StorageError> {
        self.enqueue_frame(updates, Some(window))
    }

    fn enqueue_frame(
        &self,
        updates: &[DbUpdate],
        expiry: Option<u64>,
    ) -> Result<u64, StorageError> {
        let mut st = self.shared.state.lock().expect("journal state poisoned");
        if let Some(msg) = &st.failed {
            return Err(commit_failed(msg));
        }
        let seq = st.next_seq;
        st.next_seq += 1;
        st.pending.push_back((seq, updates.to_vec(), expiry));
        drop(st);
        self.shared.work.notify_one();
        Ok(seq)
    }

    /// Blocks until `seq` is durable (its group's fsync barrier passed).
    ///
    /// # Errors
    ///
    /// Fails when the committer failed before making `seq` durable.
    pub fn wait_durable(&self, seq: u64) -> Result<(), StorageError> {
        let mut st = self.shared.state.lock().expect("journal state poisoned");
        loop {
            if st.durable_seq >= seq {
                return Ok(());
            }
            if let Some(msg) = &st.failed {
                return Err(commit_failed(msg));
            }
            st = self.shared.done.wait(st).expect("journal state poisoned");
        }
    }

    /// Submits a frame and blocks until it is durable — the group-commit
    /// equivalent of [`UpdateJournal::append_batch`]. The returned
    /// sequence number survives a crash.
    ///
    /// # Errors
    ///
    /// Propagates enqueue and commit failures.
    pub fn submit(&self, updates: &[DbUpdate]) -> Result<u64, StorageError> {
        let seq = self.enqueue(updates)?;
        self.wait_durable(seq)?;
        Ok(seq)
    }

    /// Highest sequence number known durable.
    pub fn durable_seq(&self) -> u64 {
        self.shared.state.lock().expect("journal state poisoned").durable_seq
    }

    /// Sequence number the next submitted frame will receive.
    pub fn next_seq(&self) -> u64 {
        self.shared.state.lock().expect("journal state poisoned").next_seq
    }

    /// Lifetime group-commit totals (barriers executed, frames grouped).
    pub fn stats(&self) -> GroupStats {
        self.shared.state.lock().expect("journal state poisoned").stats
    }

    /// Runs `f` with exclusive access to the quiesced inner journal:
    /// waits until every pending frame is durable and the committer has
    /// returned the journal to its slot. Used for maintenance that must
    /// not race a commit round (snapshot-time [`UpdateJournal::reset`],
    /// [`UpdateJournal::set_next_seq`]); the sequence mirror is re-read
    /// from the journal afterwards.
    ///
    /// # Errors
    ///
    /// Fails when the committer failed (the journal may hold a torn
    /// group; maintenance on it would be unsound).
    pub fn with_journal<R>(
        &self,
        f: impl FnOnce(&mut UpdateJournal) -> R,
    ) -> Result<R, StorageError> {
        let mut st = self.shared.state.lock().expect("journal state poisoned");
        loop {
            if let Some(msg) = &st.failed {
                return Err(commit_failed(msg));
            }
            if st.pending.is_empty() && st.journal.is_some() {
                break;
            }
            st = self.shared.done.wait(st).expect("journal state poisoned");
        }
        let journal = st.journal.as_mut().expect("journal in slot");
        let out = f(journal);
        st.next_seq = journal.next_seq();
        st.durable_seq = st.next_seq - 1;
        Ok(out)
    }

    /// Stops the committer (after it drains every pending frame) and
    /// returns the inner journal.
    ///
    /// # Errors
    ///
    /// Propagates a commit failure; the journal is lost with it.
    pub fn close(mut self) -> Result<UpdateJournal, StorageError> {
        self.begin_stop();
        if let Some(h) = self.committer.take() {
            let _ = h.join();
        }
        let mut st = self.shared.state.lock().expect("journal state poisoned");
        if let Some(msg) = &st.failed {
            return Err(commit_failed(msg));
        }
        Ok(st.journal.take().expect("journal in slot after committer exit"))
    }

    fn begin_stop(&self) {
        let mut st = self.shared.state.lock().expect("journal state poisoned");
        st.stop = true;
        drop(st);
        self.shared.work.notify_one();
    }
}

impl Drop for GroupCommitJournal {
    fn drop(&mut self) {
        self.begin_stop();
        if let Some(h) = self.committer.take() {
            let _ = h.join();
        }
    }
}

fn commit_failed(msg: &str) -> StorageError {
    StorageError::Io(std::io::Error::other(format!("group commit failed: {msg}")))
}

/// The committer: drains all pending frames into one append run and one
/// fsync. The state lock is **released** during the append+fsync — the
/// journal travels out of its slot — so the next group forms while the
/// barrier is in flight; that overlap is where the fsync amortization
/// comes from.
fn committer_loop(shared: &GroupShared) {
    loop {
        let (mut journal, group) = {
            let mut st = shared.state.lock().expect("journal state poisoned");
            while st.pending.is_empty() && !st.stop {
                st = shared.work.wait(st).expect("journal state poisoned");
            }
            if st.pending.is_empty() {
                // Stop with nothing left to flush.
                shared.done.notify_all();
                return;
            }
            if st.failed.is_some() {
                // Poisoned: drop the group, tell any waiters.
                st.pending.clear();
                shared.done.notify_all();
                continue;
            }
            let group: Vec<(u64, Vec<DbUpdate>, Option<u64>)> = st.pending.drain(..).collect();
            let journal = st.journal.take().expect("journal in slot");
            (journal, group)
        };

        let mut result = Ok(());
        for (seq, updates, expiry) in &group {
            match journal.append_unsynced(updates, *expiry) {
                Ok(got) => debug_assert_eq!(got, *seq, "frames written in submit order"),
                Err(e) => {
                    result = Err(e);
                    break;
                }
            }
        }
        if result.is_ok() {
            result = journal.sync();
        }

        let mut st = shared.state.lock().expect("journal state poisoned");
        st.journal = Some(journal);
        match result {
            Ok(()) => {
                st.durable_seq = group.last().expect("non-empty group").0;
                st.stats.groups += 1;
                st.stats.frames += group.len() as u64;
            }
            Err(e) => st.failed = Some(e.to_string()),
        }
        drop(st);
        shared.done.notify_all();
    }
}

/// Scans `bytes` for intact frames; returns the decoded batches and the
/// byte length of the valid prefix.
fn scan_frames(bytes: &[u8]) -> (Vec<JournalBatch>, usize) {
    let mut batches = Vec::new();
    let mut pos = 0usize;
    while let Some(header) = bytes.get(pos..pos + FRAME_HEADER) {
        let len = u32::from_le_bytes(header[..4].try_into().expect("4 bytes"));
        let crc = u32::from_le_bytes(header[4..].try_into().expect("4 bytes"));
        if len == 0 || len > MAX_FRAME {
            break;
        }
        let Some(payload) = bytes.get(pos + FRAME_HEADER..pos + FRAME_HEADER + len as usize) else {
            break;
        };
        if crc32(payload) != crc {
            break;
        }
        let Some(batch) = decode_payload(payload) else { break };
        batches.push(batch);
        pos += FRAME_HEADER + len as usize;
    }
    (batches, pos)
}

/// Payload prefix bytes: `seq` + `expiry` + `n`.
const PAYLOAD_PREFIX: usize = 20;

fn encode_payload(seq: u64, updates: &[DbUpdate], expiry: Option<u64>) -> Vec<u8> {
    let mut out = Vec::with_capacity(PAYLOAD_PREFIX + OP_BYTES * updates.len());
    out.extend_from_slice(&seq.to_le_bytes());
    // Window sequence numbers are 1-based, so 0 encodes "no expiry".
    out.extend_from_slice(&expiry.unwrap_or(0).to_le_bytes());
    out.extend_from_slice(&(updates.len() as u32).to_le_bytes());
    for u in updates {
        out.extend_from_slice(&u.gid.to_le_bytes());
        let (tag, a, b, c): (u8, u32, u32, u32) = match u.update {
            GraphUpdate::RelabelVertex { v, label } => (0, v, label, 0),
            GraphUpdate::RelabelEdge { e, label } => (1, e, label, 0),
            GraphUpdate::AddEdge { u, v, label } => (2, u, v, label),
            GraphUpdate::AddVertex { label, attach_to, elabel } => (3, label, attach_to, elabel),
            GraphUpdate::DeleteEdge { e } => (4, e, 0, 0),
            GraphUpdate::DeleteVertex { v } => (5, v, 0, 0),
        };
        out.push(tag);
        out.extend_from_slice(&a.to_le_bytes());
        out.extend_from_slice(&b.to_le_bytes());
        out.extend_from_slice(&c.to_le_bytes());
    }
    out
}

fn decode_payload(payload: &[u8]) -> Option<JournalBatch> {
    if payload.len() < PAYLOAD_PREFIX {
        return None;
    }
    let seq = u64::from_le_bytes(payload[..8].try_into().ok()?);
    let expiry = match u64::from_le_bytes(payload[8..16].try_into().ok()?) {
        0 => None,
        w => Some(w),
    };
    let n = u32::from_le_bytes(payload[16..20].try_into().ok()?) as usize;
    if payload.len() != PAYLOAD_PREFIX + n * OP_BYTES {
        return None;
    }
    let mut updates = Vec::with_capacity(n);
    for i in 0..n {
        let op = &payload[PAYLOAD_PREFIX + i * OP_BYTES..PAYLOAD_PREFIX + (i + 1) * OP_BYTES];
        let gid = u32::from_le_bytes(op[..4].try_into().ok()?);
        let a = u32::from_le_bytes(op[5..9].try_into().ok()?);
        let b = u32::from_le_bytes(op[9..13].try_into().ok()?);
        let c = u32::from_le_bytes(op[13..17].try_into().ok()?);
        let update = match op[4] {
            0 => GraphUpdate::RelabelVertex { v: a, label: b },
            1 => GraphUpdate::RelabelEdge { e: a, label: b },
            2 => GraphUpdate::AddEdge { u: a, v: b, label: c },
            3 => GraphUpdate::AddVertex { label: a, attach_to: b, elabel: c },
            4 => GraphUpdate::DeleteEdge { e: a },
            5 => GraphUpdate::DeleteVertex { v: a },
            _ => return None,
        };
        updates.push(DbUpdate { gid, update });
    }
    Some(JournalBatch { seq, updates, expiry })
}

/// CRC-32 (IEEE 802.3, reflected), computed bitwise — no table, no deps.
pub(crate) fn crc32(bytes: &[u8]) -> u32 {
    let mut crc: u32 = !0;
    for &b in bytes {
        crc ^= u32::from(b);
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_batch() -> Vec<DbUpdate> {
        vec![
            DbUpdate { gid: 3, update: GraphUpdate::RelabelVertex { v: 1, label: 9 } },
            DbUpdate { gid: 0, update: GraphUpdate::RelabelEdge { e: 2, label: 4 } },
            DbUpdate { gid: 7, update: GraphUpdate::AddEdge { u: 0, v: 5, label: 2 } },
            DbUpdate {
                gid: 1,
                update: GraphUpdate::AddVertex { label: 6, attach_to: 2, elabel: 1 },
            },
            DbUpdate { gid: 2, update: GraphUpdate::DeleteEdge { e: 3 } },
            DbUpdate { gid: 4, update: GraphUpdate::DeleteVertex { v: 6 } },
        ]
    }

    #[test]
    fn crc32_known_vector() {
        // The classic check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn append_recover_round_trip() {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("wal.db");
        {
            let mut j = UpdateJournal::create(&path, 4).unwrap();
            assert_eq!(j.append_batch(&sample_batch()).unwrap(), 1);
            assert_eq!(j.append_batch(&sample_batch()[..2]).unwrap(), 2);
        }
        let (j, batches) = UpdateJournal::recover(&path, 4).unwrap();
        assert_eq!(batches.len(), 2);
        assert_eq!(batches[0].seq, 1);
        assert_eq!(batches[0].updates, sample_batch());
        assert_eq!(batches[1].seq, 2);
        assert_eq!(batches[1].updates, sample_batch()[..2]);
        assert_eq!(j.next_seq(), 3);
    }

    #[test]
    fn recover_missing_file_is_empty() {
        let dir = tempfile::tempdir().unwrap();
        let (j, batches) = UpdateJournal::recover(&dir.path().join("none.db"), 4).unwrap();
        assert!(batches.is_empty());
        assert_eq!(j.next_seq(), 1);
    }

    #[test]
    fn torn_tail_is_ignored_and_journal_stays_usable() {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("wal.db");
        let after_first = {
            let mut j = UpdateJournal::create(&path, 4).unwrap();
            j.append_batch(&sample_batch()).unwrap();
            let after_first = j.len_bytes();
            j.append_batch(&sample_batch()).unwrap();
            let full = j.len_bytes();
            drop(j);
            // Simulate a crash mid-write of the second frame: truncate into
            // the middle of its payload, leaving an unaligned raw length —
            // recover must both drop the torn frame and restore alignment.
            let bytes = std::fs::read(&path).unwrap();
            let cut = (after_first + (full - after_first) / 2) as usize;
            std::fs::write(&path, &bytes[..cut]).unwrap();
            after_first
        };
        let (mut j, batches) = UpdateJournal::recover(&path, 4).unwrap();
        assert_eq!(batches.len(), 1, "only the fully written batch survives");
        assert_eq!(batches[0].updates, sample_batch());
        assert_eq!(j.len_bytes(), after_first);
        // The journal keeps working: the next append lands after the intact
        // prefix and recovers cleanly again.
        assert_eq!(j.append_batch(&sample_batch()[..1]).unwrap(), 2);
        drop(j);
        let (_, batches) = UpdateJournal::recover(&path, 4).unwrap();
        assert_eq!(batches.len(), 2);
        assert_eq!(batches[1].seq, 2);
        assert_eq!(batches[1].updates, sample_batch()[..1]);
    }

    #[test]
    fn corrupt_crc_stops_the_scan() {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("wal.db");
        {
            let mut j = UpdateJournal::create(&path, 4).unwrap();
            j.append_batch(&sample_batch()).unwrap();
            j.append_batch(&sample_batch()).unwrap();
        }
        // Flip a payload byte of the SECOND frame.
        let first_len = {
            let mut bytes = std::fs::read(&path).unwrap();
            let first = FRAME_HEADER + PAYLOAD_PREFIX + OP_BYTES * sample_batch().len();
            bytes[first + FRAME_HEADER + 3] ^= 0xFF;
            std::fs::write(&path, &bytes).unwrap();
            first as u64
        };
        let (j, batches) = UpdateJournal::recover(&path, 4).unwrap();
        assert_eq!(batches.len(), 1, "corrupt second frame dropped");
        assert_eq!(j.len_bytes(), first_len);
    }

    #[test]
    fn reset_truncates_but_keeps_sequence() {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("wal.db");
        let mut j = UpdateJournal::create(&path, 4).unwrap();
        j.append_batch(&sample_batch()).unwrap();
        j.reset().unwrap();
        assert_eq!(j.len_bytes(), 0);
        assert_eq!(j.append_batch(&sample_batch()).unwrap(), 2, "numbering continues");
        drop(j);
        let (_, batches) = UpdateJournal::recover(&path, 4).unwrap();
        assert_eq!(batches.len(), 1);
        assert_eq!(batches[0].seq, 2);
    }

    #[test]
    fn unsynced_appends_are_made_durable_by_one_sync() {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("wal.db");
        let mut j = UpdateJournal::create(&path, 4).unwrap();
        assert_eq!(j.append_unsynced(&sample_batch(), None).unwrap(), 1);
        assert_eq!(j.append_unsynced(&sample_batch()[..1], None).unwrap(), 2);
        j.sync().unwrap();
        drop(j);
        let (_, batches) = UpdateJournal::recover(&path, 4).unwrap();
        assert_eq!(batches.len(), 2);
        assert_eq!(batches[1].seq, 2);
    }

    #[test]
    fn group_commit_acks_concurrent_submitters() {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("wal.db");
        let gj =
            std::sync::Arc::new(GroupCommitJournal::new(UpdateJournal::create(&path, 4).unwrap()));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let gj = std::sync::Arc::clone(&gj);
            handles.push(std::thread::spawn(move || {
                (0..5).map(|_| gj.submit(&sample_batch()[..1]).unwrap()).collect::<Vec<u64>>()
            }));
        }
        let mut seqs: Vec<u64> = handles.into_iter().flat_map(|h| h.join().unwrap()).collect();
        seqs.sort_unstable();
        assert_eq!(seqs, (1..=20).collect::<Vec<u64>>());
        // Group commit must group, by count: frames enqueued back to back
        // queue up behind the barrier in flight and share the next one, so
        // a burst nobody waits on until its end takes far fewer fsyncs than
        // frames (this test's 276 took 6 to 16, on disk and tmpfs, on one
        // core and two). A committer that syncs per frame takes as many.
        let mut last = 20;
        for _ in 0..256 {
            last = gj.enqueue(&sample_batch()[..1]).unwrap();
        }
        assert_eq!(last, 20 + 256);
        gj.wait_durable(last).unwrap();
        let stats = gj.stats();
        assert_eq!(stats.frames, last);
        assert!(stats.groups < stats.frames, "{last} frames took {} fsyncs", stats.groups);
        assert_eq!(gj.durable_seq(), last);
        let journal = std::sync::Arc::try_unwrap(gj).ok().unwrap().close().unwrap();
        drop(journal);
        let (_, batches) = UpdateJournal::recover(&path, 4).unwrap();
        assert_eq!(batches.len() as u64, last, "every acked frame replays");
        for (i, b) in batches.iter().enumerate() {
            assert_eq!(b.seq, i as u64 + 1, "clean contiguous prefix");
        }
    }

    #[test]
    fn group_commit_with_journal_quiesces_for_maintenance() {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("wal.db");
        let gj = GroupCommitJournal::new(UpdateJournal::create(&path, 4).unwrap());
        gj.submit(&sample_batch()).unwrap();
        gj.submit(&sample_batch()).unwrap();
        // Snapshot-style maintenance: truncate but keep numbering.
        gj.with_journal(|j| j.reset()).unwrap().unwrap();
        assert_eq!(gj.next_seq(), 3, "numbering continues across reset");
        assert_eq!(gj.submit(&sample_batch()[..2]).unwrap(), 3);
        drop(gj);
        let (_, batches) = UpdateJournal::recover(&path, 4).unwrap();
        assert_eq!(batches.len(), 1);
        assert_eq!(batches[0].seq, 3);
    }

    #[test]
    fn group_commit_drop_flushes_pending_frames() {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("wal.db");
        let gj = GroupCommitJournal::new(UpdateJournal::create(&path, 4).unwrap());
        // Enqueue without waiting: Drop must still drain the group.
        gj.enqueue(&sample_batch()).unwrap();
        gj.enqueue(&sample_batch()[..1]).unwrap();
        drop(gj);
        let (_, batches) = UpdateJournal::recover(&path, 4).unwrap();
        assert_eq!(batches.len(), 2);
    }

    #[test]
    fn empty_batch_is_journalable() {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("wal.db");
        let mut j = UpdateJournal::create(&path, 4).unwrap();
        j.append_batch(&[]).unwrap();
        drop(j);
        let (_, batches) = UpdateJournal::recover(&path, 4).unwrap();
        assert_eq!(batches.len(), 1);
        assert!(batches[0].updates.is_empty());
        assert_eq!(batches[0].expiry, None);
    }

    /// The expiry marker survives the round trip through the group-commit
    /// path and recovery — an expiry frame replays as exactly one expiry.
    #[test]
    fn expiry_marker_round_trips() {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("wal.db");
        let gj = GroupCommitJournal::new(UpdateJournal::create(&path, 4).unwrap());
        gj.submit(&sample_batch()).unwrap();
        let inverse = vec![DbUpdate { gid: 2, update: GraphUpdate::DeleteEdge { e: 0 } }];
        let seq = gj.enqueue_expiry(&inverse, 1).unwrap();
        gj.wait_durable(seq).unwrap();
        drop(gj);
        let (_, batches) = UpdateJournal::recover(&path, 4).unwrap();
        assert_eq!(batches.len(), 2);
        assert_eq!(batches[0].expiry, None);
        assert_eq!(batches[1].seq, 2);
        assert_eq!(batches[1].expiry, Some(1), "expiry frame names the expired window");
        assert_eq!(batches[1].updates, inverse);
    }
}
