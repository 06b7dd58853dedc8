//! The ADIMINE baseline: disk-based frequent-subgraph mining over an
//! ADI-style index (Wang, Wang, Pei, Zhu, Shi — SIGKDD 2004).
//!
//! The paper compares PartMiner against ADIMINE, obtained from its authors
//! as a closed executable; this crate rebuilds the published design from
//! scratch, on a simulated 2006 disk of its own:
//!
//! * a **page file and buffer pool**: 4 KiB pages behind an LRU pool with
//!   dirty write-back and hit/miss/I/O accounting ([`PoolStats`]), each
//!   page access charged a simulated latency ([`AdiConfig::io_latency`]),
//!   so experiments report both wall-clock time and I/O volume;
//! * an **ADI-style index**: the memory-resident *edge table* counts the
//!   graphs holding each distinct edge triple, the on-disk *posting
//!   level* lists every occurrence, and the adjacency information of every
//!   graph lives on disk pages in `graphmine-storage`'s snapshot format;
//! * a **disk-backed gSpan-style search** ([`AdiMine::mine`]): pattern
//!   growth identical to the memory miner, but every graph access goes
//!   through a bounded decoded-graph cache backed by the buffer pool, so
//!   the run is charged page I/O exactly where a disk-based miner pays it;
//! * **full rebuild on update** ([`AdiMine::rebuild`]): as Section 2 of the
//!   paper observes, "the ADI structure has to be rebuilt each time the
//!   graph database is being updated" — this is precisely the behaviour the
//!   dynamic experiments (Figs. 13(b), 14(b), 15(b), 17) exploit.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod bytestore;
mod file;
mod graphstore;
mod index;
mod miner;
mod pool;
mod postings;

pub use miner::{AdiConfig, AdiMine};
pub use pool::PoolStats;
