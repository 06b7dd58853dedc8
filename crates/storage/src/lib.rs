//! Disk substrate for the ADIMINE baseline, and the serving daemon's files.
//!
//! The authors of the paper ran ADIMINE — a miner for *large, disk-based*
//! graph databases — on a 2.5 GB RAM / 73 GB disk machine. This crate
//! rebuilds the storage layer that role needs; only ADIMINE sits on it:
//!
//! * [`PageFile`] — a page-granular file store (4 KiB pages);
//! * [`BufferPool`] — an LRU buffer pool over a page file with pin-free
//!   closure access, dirty-page write-back, and hit/miss/IO accounting, so
//!   experiments can report both wall-clock time and I/O volume;
//! * [`GraphStore`] — a graph database written through the pool, with
//!   per-graph random access (the access pattern of index-backed mining)
//!   and full scans.
//!
//! The serving daemon's two files are plain files beside that stack:
//!
//! * [`write_snapshot`] / [`read_snapshot`] — the snapshot, the bytes a
//!   [`GraphStore`] holds, written and read as one image;
//! * [`UpdateJournal`] — an fsync-before-ack write-ahead log of update
//!   batches, CRC-framed, with torn-tail recovery;
//! * [`GroupCommitJournal`] — a group-committing front end over the
//!   journal: a committer thread batches concurrently submitted frames
//!   into one fsync barrier and acks every waiter after it, amortizing
//!   the fsync under write load without weakening the crash contract.
//!
//! Everything returns [`StorageError`]; I/O failures are surfaced, never
//! panicked on.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod bytestore;
mod error;
mod file;
mod graphstore;
mod journal;
mod pool;

pub use bytestore::{ByteStore, RecordId};
pub use error::StorageError;
pub use file::{PageFile, PageId, PAGE_SIZE};
pub use graphstore::{read_snapshot, write_snapshot, GraphStore};
pub use journal::{GroupCommitJournal, GroupStats, JournalBatch, UpdateJournal};
pub use pool::{BufferPool, PoolStats};
