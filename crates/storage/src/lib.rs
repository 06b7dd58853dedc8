//! The serving daemon's files: the snapshot and the update journal.
//!
//! * [`write_snapshot`] / [`read_snapshot`] — the snapshot, a serialized
//!   graph database written and read as one image. Its record codec
//!   ([`encode_graph`], [`decode_graph`], [`snapshot_header`]) is public
//!   because ADIMINE's paged store (`graphmine-adimine`) writes the same
//!   bytes through its buffer pool;
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

mod error;
mod journal;
mod snapshot;

pub use error::StorageError;
pub use journal::{GroupCommitJournal, GroupStats, JournalBatch, UpdateJournal};
pub use snapshot::{decode_graph, encode_graph, read_snapshot, snapshot_header, write_snapshot};

/// Page size in bytes. 4 KiB matches the usual filesystem block size; the
/// journal and the snapshot are whole pages long, and ADIMINE's page file
/// is made of them.
pub const PAGE_SIZE: usize = 4096;
