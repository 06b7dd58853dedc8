//! A resident pattern-serving daemon.
//!
//! The paper's incremental miner is built for a *standing* database: mine
//! once, then fold update batches in. This crate turns that into a
//! long-lived service — mine at boot, keep `P(D)` warm in memory, and
//! answer pattern/support queries over a newline-delimited JSON protocol
//! while updates stream in.
//!
//! It mines with one walk over the whole database at boot and folds each
//! window by a delta walk over the graphs it touched, keeping the border
//! of `P(D)` for it; units only spare the walk canonical-code tests, so
//! they do not pay on a path that serves `P(D)`.
//!
//! * [`ServeEngine`] — durable state machine: snapshot + write-ahead
//!   journal on `graphmine-storage`, a boot that applies the journal to
//!   the snapshot and mines once, and epoch-swapped immutable results
//!   ([`ResultEpoch`]) so readers never block behind an update;
//! * [`ingest`] — the streaming update pipeline: window
//!   [coalescing](ingest::coalesce_window), a bounded admission queue
//!   with `backpressure` shedding, group-committed durability, and an
//!   applier thread folding each window into the served epoch;
//! * [`start`] / [`ServerHandle`] — the TCP front end: accept thread,
//!   bounded connection queue with explicit `overloaded` shedding, and
//!   a fixed worker pool (std threads only — no async runtime), generic
//!   over a [`Handler`] so the router's front end is this same loop;
//! * [`protocol`] — the wire format, parsed and encoded;
//! * [`Client`] — a small blocking client for tools and tests, with
//!   jittered-backoff [`RetryPolicy`] retries on `backpressure`.
//!
//! An `update` is acknowledged only after its window is fsynced to the
//! journal (one group-commit barrier covers every concurrent window),
//! so `kill -9` after an ack never loses it: the next boot applies the
//! journal to the snapshot. See `docs/SERVICE.md` for the
//! protocol and operational details.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod applier;
mod client;
mod engine;
pub mod ingest;
pub mod protocol;
mod server;

pub use client::{Client, RetryPolicy};
pub use engine::{
    BootReport, EngineConfig, ResultEpoch, ServeEngine, StreamAck, SupportSource, UpdateError,
    UpdateSummary,
};
pub use ingest::coalesce_window;
pub use protocol::{AckMode, Request};
pub use server::{start, Handler, ServerConfig, ServerHandle, MAX_REQUEST_LINE};
