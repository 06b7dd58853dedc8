//! Pipeline telemetry for the PartMiner/IncPartMiner stack.
//!
//! Three layers, cheap enough to stay on in release builds:
//!
//! * [`Counters`] — a fixed table of relaxed [`std::sync::atomic::AtomicU64`]
//!   event counters ([`Counter`] names the slots): candidates generated,
//!   isomorphism tests run/pruned, patterns verified frequent/infrequent,
//!   the incremental UF/FI/IF tallies, and friends.
//! * [`Telemetry`] — a per-run handle that owns a [`Counters`] table and
//!   records hierarchical [`SpanRecord`]s (wall time + thread id) through
//!   guard-based [`Telemetry::span`] / [`Telemetry::span_node`] calls.
//!   Nesting is tracked per thread, so spans opened inside worker threads
//!   become that thread's own roots.
//! * [`RunReport`] — a serializable summary built from a [`Telemetry`]
//!   handle: per-stage wall-time totals (from top-level spans), the final
//!   counter table, and the raw span log. [`RunReport::to_json`] emits JSON
//!   with no external dependencies; [`JsonValue::parse`] reads any of it
//!   back.
//!
//! The pipeline's stats structs (`MineStats`, `IncStats`) hold no counter
//! of their own beside this table: the merge-join's counters mirror the
//! walk's `WalkStats` that `MineStats::merge` and `IncStats::merge` keep.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod counters;
mod json;
mod report;
mod spans;

pub use counters::{Counter, CounterSnapshot, Counters};
pub use json::{JsonError, JsonValue};
pub use report::{RunReport, StageTotal};
pub use spans::{SpanGuard, SpanRecord, Telemetry};
