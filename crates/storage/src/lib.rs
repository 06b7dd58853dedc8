//! Disk substrate for the ADIMINE baseline, and the serving daemon's WAL.
//!
//! The authors of the paper ran ADIMINE — a miner for *large, disk-based*
//! graph databases — on a 2.5 GB RAM / 73 GB disk machine. This crate
//! rebuilds the storage layer that role needs:
//!
//! * [`PageFile`] — a page-granular file store (4 KiB pages);
//! * [`BufferPool`] — an LRU buffer pool over a page file with pin-free
//!   closure access, dirty-page write-back, and hit/miss/IO accounting, so
//!   experiments can report both wall-clock time and I/O volume;
//! * [`GraphStore`] — a graph-database serialization format over pages,
//!   with per-graph random access (the access pattern of index-backed
//!   mining), full scans, and reopen-from-disk for snapshot recovery;
//! * [`UpdateJournal`] — an fsync-before-ack write-ahead log of update
//!   batches in one plain file (not on the page stack), CRC-framed, with
//!   torn-tail recovery: the durability substrate of the serving daemon;
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
pub use graphstore::GraphStore;
pub use journal::{GroupCommitJournal, GroupStats, JournalBatch, UpdateJournal};
pub use pool::{BufferPool, PoolStats};
