//! Sharded serving tier: a scatter/gather router over unit shards.
//!
//! The partition paper's mining units become the placement grain of a
//! small serving fleet: `graphmine shard-plan` splits a database into
//! `k` units ([`graphmine_partition::DbPartition`]), places them on `N`
//! shards under a pluggable [`graphmine_partition::ShardPolicy`], gives
//! every graph a unique **owner** shard, and writes a [`ShardTopology`]
//! file. Each shard is an ordinary `graphmine serve` daemon booted from
//! that file; the [`Router`] is a front-end process that speaks the same
//! NDJSON protocol and fans every request out:
//!
//! * exactness — gathered counts are restricted to each shard's owned
//!   gids, which are disjoint and cover the database, so a cross-unit
//!   pattern is counted exactly once no matter how many shards hold a
//!   piece of it;
//! * completeness — shards mine at `ceil(s / N)` (the SON/pigeonhole
//!   bound over owner sets), so the phase-1 union of locally frequent
//!   patterns always contains every globally frequent one;
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
