//! A bounded work-stealing executor for the PartMiner pipeline.
//!
//! The paper's parallel mode treats the `k` units, the merge-join's
//! frequent-edge subtrees (once: its candidate verifications) and the
//! incremental re-mines as independent work items. Before this crate each of those three fan-out sites
//! hand-rolled its own `crossbeam::thread::scope` with a different (and
//! differently buggy) policy: one thread per unit regardless of core
//! count, fixed-size verify chunks that strand workers behind one
//! expensive candidate, and bare `expect` joins that lose all context
//! when a worker panics. [`Executor::map_indexed`] replaces all of them:
//!
//! * **bounded** — at most the configured thread budget runs at once, no
//!   matter how many jobs a batch carries;
//! * **work-stealing** — jobs are dealt round-robin onto per-worker
//!   queues; a worker that drains its own queue steals from the back of
//!   its neighbours', so a skewed batch (one expensive candidate among
//!   hundreds of cheap ones) no longer stalls the whole level;
//! * **deterministic** — results come back in submission order, so a
//!   caller folding per-job statistics in result order observes exactly
//!   the serial schedule (`MergeStats` serial == parallel);
//! * **diagnosable** — every job carries a label; a panicking job
//!   surfaces as [`ExecError`]`{ label, payload }` instead of aborting
//!   the process through an anonymous `join().expect(..)`.
//!
//! The crate is std + the vendored `crossbeam` shim only. Scheduling
//! counters (jobs run, steals, peak queue depth, panics) accumulate on
//! the executor itself; the pipeline mirrors them into its telemetry
//! counters (`exec_jobs`, `exec_steals`, `exec_queue_peak`,
//! `exec_panics`).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use std::collections::VecDeque;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

/// One schedulable unit of work: a label (carried into panic payloads and
/// telemetry) plus the closure to run.
pub struct Job<'a, T> {
    label: String,
    run: Box<dyn FnOnce() -> T + Send + 'a>,
}

impl<'a, T> Job<'a, T> {
    /// A job named `label` running `f`.
    pub fn new(label: impl Into<String>, f: impl FnOnce() -> T + Send + 'a) -> Self {
        Job { label: label.into(), run: Box::new(f) }
    }

    /// The job's label.
    pub fn label(&self) -> &str {
        &self.label
    }
}

impl<T> fmt::Debug for Job<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Job").field("label", &self.label).finish_non_exhaustive()
    }
}

/// A worker panic, surfaced to the caller with the failing job's label
/// and the stringified panic payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecError {
    /// Label of the job whose closure panicked.
    pub label: String,
    /// The panic payload (`&str`/`String` payloads verbatim; anything
    /// else is reported as opaque).
    pub payload: String,
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "job `{}` panicked: {}", self.label, self.payload)
    }
}

impl std::error::Error for ExecError {}

/// Point-in-time copy of an executor's scheduling counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecCounters {
    /// Jobs executed (including jobs that panicked).
    pub jobs: u64,
    /// Jobs a worker took from another worker's queue.
    pub steals: u64,
    /// Largest batch ever submitted (peak pending-queue depth).
    pub queue_peak: u64,
    /// Jobs whose closure panicked.
    pub panics: u64,
}

/// A bounded work-stealing thread pool.
///
/// The thread budget is resolved **once** when the executor is built (the
/// pipeline resolves it from `PartMinerConfig::threads`, the
/// `GRAPHMINE_THREADS` environment variable, or
/// `std::thread::available_parallelism`, in that order) and reused by
/// every batch submitted through [`Executor::map_indexed`] — unit mining,
/// the merge-join's walk and incremental re-mining all share one pool
/// per run instead of re-deriving a parallelism degree per batch.
#[derive(Debug, Default)]
pub struct Executor {
    threads: usize,
    jobs: AtomicU64,
    steals: AtomicU64,
    queue_peak: AtomicU64,
    panics: AtomicU64,
}

impl Executor {
    /// An executor with a budget of `threads` workers (clamped to ≥ 1).
    pub fn new(threads: usize) -> Self {
        Executor { threads: threads.max(1), ..Executor::default() }
    }

    /// The resolved thread budget.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// A snapshot of the cumulative scheduling counters.
    pub fn counters(&self) -> ExecCounters {
        ExecCounters {
            jobs: self.jobs.load(Ordering::Relaxed),
            steals: self.steals.load(Ordering::Relaxed),
            queue_peak: self.queue_peak.load(Ordering::Relaxed),
            panics: self.panics.load(Ordering::Relaxed),
        }
    }

    /// Runs every job and returns their results **in submission order**.
    ///
    /// With a budget of one worker (or a single job) the batch runs
    /// inline on the calling thread — the serial schedule is literally
    /// the parallel one restricted to one worker, so callers need no
    /// separate serial code path.
    ///
    /// On the first job panic the batch is poisoned: workers finish the
    /// job they are on, pending jobs are dropped, and the first panic is
    /// returned as [`ExecError`] with the offending job's label. The
    /// executor itself stays usable for further batches.
    pub fn map_indexed<'a, T: Send + 'a>(
        &self,
        jobs: Vec<Job<'a, T>>,
    ) -> Result<Vec<T>, ExecError> {
        let n = jobs.len();
        if n == 0 {
            return Ok(Vec::new());
        }
        self.queue_peak.fetch_max(n as u64, Ordering::Relaxed);
        let workers = self.threads.min(n);
        if workers <= 1 {
            let mut out = Vec::with_capacity(n);
            for job in jobs {
                self.jobs.fetch_add(1, Ordering::Relaxed);
                out.push(self.run_job(job)?);
            }
            return Ok(out);
        }

        // Deal jobs round-robin onto per-worker queues. Workers pop their
        // own queue from the front and steal from the back of others', so
        // contiguous cheap jobs stay local while an expensive one only
        // ever occupies its own worker.
        let mut queues: Vec<WorkerQueue<'a, T>> = (0..workers)
            .map(|_| Mutex::new(VecDeque::with_capacity(n.div_ceil(workers))))
            .collect();
        for (idx, job) in jobs.into_iter().enumerate() {
            queues[idx % workers].get_mut().expect("fresh queue").push_back((idx, job));
        }
        let queues = &queues;
        let poisoned = &AtomicBool::new(false);
        let first_error: &Mutex<Option<ExecError>> = &Mutex::new(None);

        let per_worker: Vec<Vec<(usize, T)>> = crossbeam::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|me| {
                    scope.spawn(move |_| {
                        let mut local: Vec<(usize, T)> = Vec::new();
                        while !poisoned.load(Ordering::Acquire) {
                            let Some((idx, job)) = self.next_job(me, workers, queues) else {
                                break;
                            };
                            self.jobs.fetch_add(1, Ordering::Relaxed);
                            match self.run_job(job) {
                                Ok(v) => local.push((idx, v)),
                                Err(e) => {
                                    let mut slot = first_error.lock().expect("error slot");
                                    slot.get_or_insert(e);
                                    poisoned.store(true, Ordering::Release);
                                }
                            }
                        }
                        local
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("executor workers catch job panics"))
                .collect()
        })
        .expect("executor scope");

        if let Some(err) = first_error.lock().expect("error slot").take() {
            return Err(err);
        }
        let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
        for (idx, value) in per_worker.into_iter().flatten() {
            debug_assert!(slots[idx].is_none(), "job {idx} executed twice");
            slots[idx] = Some(value);
        }
        Ok(slots.into_iter().map(|s| s.expect("every job ran exactly once")).collect())
    }

    /// Pops the next job: own queue first (front), then a steal sweep
    /// over the other workers' queues (back).
    fn next_job<'a, T>(
        &self,
        me: usize,
        workers: usize,
        queues: &[WorkerQueue<'a, T>],
    ) -> Option<(usize, Job<'a, T>)> {
        if let Some(item) = queues[me].lock().expect("queue lock").pop_front() {
            return Some(item);
        }
        for off in 1..workers {
            let victim = (me + off) % workers;
            if let Some(item) = queues[victim].lock().expect("queue lock").pop_back() {
                self.steals.fetch_add(1, Ordering::Relaxed);
                return Some(item);
            }
        }
        None
    }

    /// Runs one job under `catch_unwind`, converting a panic into a
    /// labeled [`ExecError`].
    fn run_job<'a, T>(&self, job: Job<'a, T>) -> Result<T, ExecError> {
        let Job { label, run } = job;
        catch_unwind(AssertUnwindSafe(run)).map_err(|payload| {
            self.panics.fetch_add(1, Ordering::Relaxed);
            ExecError { label, payload: panic_message(payload) }
        })
    }
}

/// One worker's deque of `(submission index, job)` pairs.
type WorkerQueue<'a, T> = Mutex<VecDeque<(usize, Job<'a, T>)>>;

/// Best-effort stringification of a panic payload.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn empty_batch_is_a_noop() {
        let exec = Executor::new(4);
        let out: Vec<u32> = exec.map_indexed(Vec::new()).unwrap();
        assert!(out.is_empty());
        assert_eq!(exec.counters(), ExecCounters::default());
    }

    #[test]
    fn results_come_back_in_submission_order() {
        let exec = Executor::new(4);
        let jobs: Vec<Job<'_, usize>> =
            (0..64).map(|i| Job::new(format!("j{i}"), move || i * 2)).collect();
        let out = exec.map_indexed(jobs).unwrap();
        assert_eq!(out, (0..64).map(|i| i * 2).collect::<Vec<_>>());
        assert_eq!(exec.counters().jobs, 64);
        assert_eq!(exec.counters().queue_peak, 64);
    }

    #[test]
    fn single_thread_budget_runs_inline() {
        let exec = Executor::new(1);
        let tid = std::thread::current().id();
        let out = exec
            .map_indexed(vec![
                Job::new("a", move || std::thread::current().id() == tid),
                Job::new("b", move || std::thread::current().id() == tid),
            ])
            .unwrap();
        assert_eq!(out, vec![true, true]);
        assert_eq!(exec.counters().steals, 0);
    }

    #[test]
    fn zero_budget_clamps_to_one() {
        let exec = Executor::new(0);
        assert_eq!(exec.threads(), 1);
        assert_eq!(exec.map_indexed(vec![Job::new("x", || 7)]).unwrap(), vec![7]);
    }

    #[test]
    fn bounded_concurrency_never_exceeds_budget() {
        let exec = Executor::new(2);
        let live = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        let live = &live;
        let peak = &peak;
        let jobs: Vec<Job<'_, ()>> = (0..32)
            .map(|i| {
                Job::new(format!("j{i}"), move || {
                    let now = live.fetch_add(1, Ordering::SeqCst) + 1;
                    peak.fetch_max(now, Ordering::SeqCst);
                    std::thread::sleep(std::time::Duration::from_millis(1));
                    live.fetch_sub(1, Ordering::SeqCst);
                })
            })
            .collect();
        exec.map_indexed(jobs).unwrap();
        assert!(peak.load(Ordering::SeqCst) <= 2, "peak {}", peak.load(Ordering::SeqCst));
    }

    #[test]
    fn a_panic_surfaces_the_label_and_payload() {
        let exec = Executor::new(3);
        let jobs: Vec<Job<'_, u32>> = (0..16)
            .map(|i| {
                Job::new(format!("candidate:{i}"), move || {
                    if i == 11 {
                        panic!("boom at {i}");
                    }
                    i
                })
            })
            .collect();
        let err = exec.map_indexed(jobs).unwrap_err();
        assert_eq!(err.label, "candidate:11");
        assert!(err.payload.contains("boom at 11"), "{}", err.payload);
        assert_eq!(exec.counters().panics, 1);
        // The pool survives a poisoned batch.
        assert_eq!(exec.map_indexed(vec![Job::new("next", || 5)]).unwrap(), vec![5]);
    }

    #[test]
    fn counters_accumulate_across_batches() {
        let exec = Executor::new(2);
        for round in 0..3 {
            let jobs: Vec<Job<'_, usize>> =
                (0..8).map(|i| Job::new(format!("r{round}:{i}"), move || i)).collect();
            exec.map_indexed(jobs).unwrap();
        }
        let c = exec.counters();
        assert_eq!(c.jobs, 24);
        assert_eq!(c.queue_peak, 8);
        assert_eq!(c.panics, 0);
    }
}
