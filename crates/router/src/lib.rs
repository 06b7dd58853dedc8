//! Sharded serving tier: a scatter/gather router over owner shards.
//!
//! `graphmine shard-plan` gives every graph of a database a unique
//! **owner** shard, balanced by edge load, and writes a [`ShardTopology`]
//! file plus one database per shard that holds only the graphs that shard
//! owns. Each shard is an ordinary `graphmine serve` daemon booted from
//! that file; the [`Router`] is a front-end process that speaks the same
//! NDJSON protocol and fans every request out:
//!
//! * exactness — a shard holds only its owned graphs and owner sets are
//!   disjoint and cover the database, so each shard's ordinary counts sum
//!   to the global count with every graph counted exactly once;
//! * completeness — shards mine at `ceil(s / N)` (the SON/pigeonhole
//!   bound over owner sets), so the phase-1 union of locally frequent
//!   patterns always contains every globally frequent one, and phase 2
//!   asks each shard only about the candidates it did not report;
//! * updates — routed to owner shards under a three-phase epoch swap
//!   built on the serve tier's WAL durable-ack barrier (validate →
//!   prepare-durable-on-every-replica → commit global epoch);
//! * robustness — per-shard timeouts, hedged reads across replicas,
//!   dead-shard failover with `"partial":1`-tagged degraded answers, and
//!   probe-based re-admission gated on a committed-seq catch-up;
//! * hot-path economy — read answers are memoized in an epoch-keyed,
//!   byte-budgeted result cache (flushed on commits and on dead-shard
//!   transitions; a partial answer is never cached), and bounded
//!   `patterns` queries cap the SON phase-1 union with an overprovisioned
//!   cutoff merge (`"truncated":1` when the cap binds).
//!
//! `docs/SHARDING.md` covers the topology format, the 2PC protocol, and
//! the partial-answer contract in operator terms.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod cache;
mod plan;
mod pool;
mod router;
mod topology;

pub use plan::{plan_shards, PlanConfig, ShardPlan};
pub use pool::RouterConfig;
pub use router::{start, Router, RouterHandle};
pub use topology::{local_min_support, ShardSpec, ShardTopology, TOPOLOGY_VERSION};
