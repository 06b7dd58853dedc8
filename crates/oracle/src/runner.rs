//! Case loop: generate → check → (on failure) write a repro.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};

use graphmine_core::{resolve_threads, Executor, ThreadsOutOfRange};

use crate::case::{generate_case, Case};
use crate::checks::{run_case, CheckFailure};
use crate::repro::write_repro_file;

/// Configuration of one oracle run.
#[derive(Debug, Clone)]
pub struct OracleConfig {
    /// Base seed every case is derived from.
    pub seed: u64,
    /// Number of cases to generate and check.
    pub cases: usize,
    /// Shrink the generated databases (CI smoke runs).
    pub quick: bool,
    /// Where failing cases are written as repro files (`None` disables).
    pub out_dir: Option<PathBuf>,
    /// Workers of the shared pool the parallel check legs fan out on:
    /// `0` (the default) uses every core, `n` runs `n` workers.
    pub threads: usize,
}

impl Default for OracleConfig {
    fn default() -> Self {
        OracleConfig { seed: 42, cases: 100, quick: false, out_dir: None, threads: 0 }
    }
}

impl OracleConfig {
    /// Builds the run-wide pool. `threads` resolves through
    /// [`resolve_threads`], as every `threads` setting does.
    pub fn executor(&self) -> Result<Executor, ThreadsOutOfRange> {
        Ok(Executor::new(resolve_threads(self.threads)?))
    }
}

/// One failed case of a run.
#[derive(Debug, Clone)]
pub struct FailureRecord {
    /// Name of the failing case.
    pub case_name: String,
    /// Which check tripped (`panic` for a caught panic).
    pub check: String,
    /// The check's diagnosis or the panic payload.
    pub message: String,
    /// The repro file, when an output directory was configured and the
    /// write succeeded.
    pub repro: Option<PathBuf>,
}

/// Result of [`run`].
#[derive(Debug, Clone)]
pub struct RunSummary {
    /// Cases generated and checked.
    pub cases: usize,
    /// Every failure, in case order.
    pub failures: Vec<FailureRecord>,
}

impl RunSummary {
    /// `true` when every case passed.
    pub fn ok(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Runs the full battery over `cfg.cases` generated cases. Panicking
/// checks are caught and reported like failing ones, so a crashing bug
/// still produces a repro file instead of killing the run.
pub fn run(cfg: &OracleConfig) -> RunSummary {
    // One pool for the whole run: every case's parallel legs share it, so
    // state leaking between batches would fail a later case.
    let exec =
        cfg.executor().unwrap_or_else(|e| panic!("invalid oracle thread configuration: {e}"));
    let mut failures = Vec::new();
    for index in 0..cfg.cases {
        let case = generate_case(cfg.seed, index as u64, cfg.quick);
        if let Err(record) = run_single(&case, &exec, cfg.out_dir.as_deref()) {
            failures.push(record);
        }
    }
    RunSummary { cases: cfg.cases, failures }
}

/// Checks one case on the given pool, converting panics into failures and
/// writing a repro into `out_dir` when the case fails.
pub fn run_single(
    case: &Case,
    exec: &Executor,
    out_dir: Option<&Path>,
) -> Result<(), FailureRecord> {
    let failure = match catch_unwind(AssertUnwindSafe(|| run_case(case, exec))) {
        Ok(Ok(())) => return Ok(()),
        Ok(Err(failure)) => failure,
        Err(payload) => CheckFailure { check: "panic", message: panic_message(payload) },
    };
    let repro = out_dir.and_then(|dir| write_repro_file(dir, case, Some(&failure)).ok());
    Err(FailureRecord {
        case_name: case.name.clone(),
        check: failure.check.to_string(),
        message: failure.message,
        repro,
    })
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}
