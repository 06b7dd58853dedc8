//! What the two serving workloads share: the database, the update
//! windows, the query list, and small helpers around `serve::Client`.

use std::time::Instant;

use graphmine_datagen::{plan_windows, UpdateKind, UpdateParams};
use graphmine_graph::{DbUpdate, DfsCode, GraphDb, PatternSet};
use graphmine_serve::RetryPolicy;
use graphmine_telemetry::{Counter, JsonValue};

use crate::data::family_db;
use crate::metrics::Report;

/// Labels the generator draws from (`N20`).
const N_LABELS: u32 = 20;
/// Ops per update window.
const OPS_PER_WINDOW: usize = 4;
/// Relative support threshold both serving workloads run at.
pub const MINSUP: f64 = 0.04;

/// D1000 T20 N20 L200 I5, the database behind both serving workloads.
pub fn database(seed: u64) -> GraphDb {
    family_db(1000, 20, seed)
}

/// `n` windows of four mixed ops that apply cleanly in order.
pub fn windows(db: &GraphDb, seed: u64, n: usize) -> Vec<Vec<DbUpdate>> {
    let params =
        UpdateParams::new(1.0, OPS_PER_WINDOW, UpdateKind::Mixed, N_LABELS).with_seed(seed);
    plan_windows(db, &params, n)
}

/// A fixed list of `support` questions: `frequent` codes out of `P(D)`
/// (an even stride in code order) answered from the warm result, then
/// `infrequent` one-edge variants — a frequent edge with its edge label
/// moved to one `P(D)` does not hold — that have to be counted.
pub fn queries(patterns: &PatternSet, frequent: usize, infrequent: usize) -> Vec<DfsCode> {
    let codes = patterns.codes_sorted();
    let mut variants = Vec::new();
    for code in codes.iter().filter(|c| c.len() == 1) {
        for shift in 1..N_LABELS {
            let mut v = code.clone();
            v.0[0].edge_label = (v.0[0].edge_label + shift) % N_LABELS;
            if !patterns.contains(&v) {
                variants.push(v);
                break;
            }
        }
    }
    let mut out = evenly(&codes, frequent);
    out.extend(evenly(&variants, infrequent));
    out
}

/// `n` items of `items` at an even stride (all of them when there are
/// fewer).
fn evenly<T: Clone>(items: &[T], n: usize) -> Vec<T> {
    let n = n.min(items.len());
    (0..n).map(|i| items[i * items.len() / n].clone()).collect()
}

/// A writer that keeps retrying `backpressure` for as long as an applier
/// working through a full queue can take; retries are not failures and
/// are counted by the server (`ingest_backpressure`).
pub fn patient_retry(seed: u64) -> RetryPolicy {
    RetryPolicy { attempts: 400, base_ms: 5, cap_ms: 40, seed }
}

/// Runs `f` and returns its result with the milliseconds it took.
pub fn timed_ms<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64() * 1e3)
}

/// A counter out of a `status` reply.
pub fn counter(status: &JsonValue, name: &str) -> f64 {
    status.field("counters").and_then(|c| c.field(name)).and_then(JsonValue::as_num).unwrap_or(0)
        as f64
}

/// Tallies one request into the attempted/failed account and returns the
/// reply when there was one.
pub fn tally(
    report: &mut Report,
    what: &str,
    reply: Result<JsonValue, String>,
) -> Option<JsonValue> {
    report.attempted += 1;
    match reply {
        Ok(r) => Some(r),
        Err(e) => {
            report.failed += 1;
            report.errors.push(format!("{what}: {e}"));
            None
        }
    }
}

/// The daemon counters both serving workloads report, by metric name:
/// read off `status` for one daemon, summed over the shards of a fleet.
pub const DAEMON_COUNTERS: &[(&str, Counter)] = &[
    ("serve.support_from_patterns", Counter::SupportFromPatterns),
    ("serve.support_from_embeddings", Counter::SupportFromEmbeddings),
    ("serve.support_from_search", Counter::SupportFromSearch),
    ("serve.epoch_swaps", Counter::EpochSwaps),
    ("serve.ingest_ops_in", Counter::IngestOpsIn),
    ("serve.ingest_ops_coalesced", Counter::IngestOpsCoalesced),
    ("serve.ingest_backpressure", Counter::IngestBackpressure),
    ("serve.req_errors", Counter::ReqErrors),
    ("serve.req_overloaded", Counter::ReqOverloaded),
    ("storage.group_commits", Counter::WalGroupCommits),
    ("storage.group_frames", Counter::WalGroupFrames),
];
