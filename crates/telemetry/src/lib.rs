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
//!   with no external dependencies and [`RunReport::from_json`] parses it
//!   back, so reports round-trip through files and test harnesses.
//!
//! Pipeline stats structs (`MineStats`, `IncStats`, …) expose their totals
//! through the [`ReportSource`] trait so reports and tests can reconcile
//! the ad-hoc per-phase timings against the span log.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod counters;
mod json;
mod report;
mod spans;

pub use counters::{Counter, CounterSnapshot, Counters};
pub use json::{JsonError, JsonValue};
pub use report::{ReportSource, RunReport, StageTotal};
pub use spans::{SpanGuard, SpanRecord, Telemetry};
