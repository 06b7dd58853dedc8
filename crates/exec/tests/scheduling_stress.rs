//! Scheduling-stress suite for the work-stealing executor: submission-order
//! determinism under adversarial job durations, steal-counter sanity, and
//! poisoning behaviour under concurrent panics.

use std::cell::RefCell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use graphmine_exec::{ExecCounters, Executor, Job};

/// A deterministic pseudo-random duration in `0..spread_us` derived from
/// the job index (SplitMix64), so every run sees the same adversarial
/// schedule without real randomness.
fn jitter_us(i: u64, spread_us: u64) -> u64 {
    let mut z = i.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    (z ^ (z >> 31)) % spread_us
}

#[test]
fn ordering_holds_under_adversarial_durations() {
    // Mix of instant jobs, jittered jobs, and a few giant stragglers
    // placed so that naive chunking would reorder or stall.
    for threads in [2, 3, 8] {
        let exec = Executor::new(threads);
        let jobs: Vec<Job<'_, usize>> = (0..200)
            .map(|i| {
                Job::new(format!("adv:{i}"), move || {
                    let us = if i % 37 == 0 { 800 } else { jitter_us(i as u64, 50) };
                    if us > 0 {
                        std::thread::sleep(Duration::from_micros(us));
                    }
                    i * i
                })
            })
            .collect();
        let out = exec.map_indexed(jobs).unwrap();
        assert_eq!(out, (0..200).map(|i| i * i).collect::<Vec<_>>(), "threads={threads}");
        assert_eq!(exec.counters().jobs, 200);
    }
}

#[test]
fn skewed_batch_triggers_steals() {
    // Job 0 is a straggler sitting on worker 0's queue; the rest of
    // worker 0's deal must be stolen by the idle workers, so the steal
    // counter has to move.
    let exec = Executor::new(4);
    let jobs: Vec<Job<'_, u64>> = (0..64)
        .map(|i| {
            Job::new(format!("skew:{i}"), move || {
                if i == 0 {
                    std::thread::sleep(Duration::from_millis(40));
                }
                i
            })
        })
        .collect();
    let out = exec.map_indexed(jobs).unwrap();
    assert_eq!(out, (0..64).collect::<Vec<_>>());
    let c = exec.counters();
    assert!(c.steals > 0, "skewed batch finished without a single steal: {c:?}");
    assert_eq!(c.jobs, 64);
    assert_eq!(c.panics, 0);
}

#[test]
fn steals_never_exceed_jobs() {
    let exec = Executor::new(6);
    for round in 0..10 {
        let jobs: Vec<Job<'_, u64>> = (0..48)
            .map(|i| {
                Job::new(format!("r{round}:{i}"), move || {
                    std::thread::sleep(Duration::from_micros(jitter_us(i ^ (round << 8), 120)));
                    i
                })
            })
            .collect();
        exec.map_indexed(jobs).unwrap();
    }
    let ExecCounters { jobs, steals, queue_peak, panics } = exec.counters();
    assert_eq!(jobs, 480);
    assert!(steals <= jobs, "steals {steals} > jobs {jobs}");
    assert_eq!(queue_peak, 48);
    assert_eq!(panics, 0);
}

#[test]
fn every_job_runs_exactly_once() {
    let exec = Executor::new(5);
    let runs: Vec<AtomicUsize> = (0..300).map(|_| AtomicUsize::new(0)).collect();
    let runs = &runs;
    let jobs: Vec<Job<'_, ()>> = (0..300)
        .map(|i| {
            Job::new(format!("once:{i}"), move || {
                runs[i].fetch_add(1, Ordering::SeqCst);
                std::thread::sleep(Duration::from_micros(jitter_us(i as u64, 30)));
            })
        })
        .collect();
    exec.map_indexed(jobs).unwrap();
    for (i, r) in runs.iter().enumerate() {
        assert_eq!(r.load(Ordering::SeqCst), 1, "job {i} ran a wrong number of times");
    }
}

/// A one-shot gate: `wait` blocks until `open` has been called.
#[derive(Default)]
struct Latch {
    open: Mutex<bool>,
    opened: Condvar,
}

impl Latch {
    fn open(&self) {
        *self.open.lock().unwrap() = true;
        self.opened.notify_all();
    }

    fn wait(&self) {
        let mut open = self.open.lock().unwrap();
        while !*open {
            open = self.opened.wait(open).unwrap();
        }
    }
}

/// Opens its latch when dropped.
struct OpenOnDrop(Arc<Latch>);

impl Drop for OpenOnDrop {
    fn drop(&mut self) {
        self.0.open();
    }
}

thread_local! {
    /// Where the panicking job parks its [`OpenOnDrop`], so that the latch
    /// opens when that worker *thread* exits: after the executor has
    /// caught the panic and poisoned the batch — a point in time no job
    /// can observe from inside its own closure.
    static AT_THREAD_EXIT: RefCell<Option<OpenOnDrop>> = const { RefCell::new(None) };
}

#[test]
fn first_panic_wins_and_pending_work_is_dropped() {
    let exec = Executor::new(2);
    let executed = AtomicUsize::new(0);
    let executed = &executed;
    let poisoned = Arc::new(Latch::default());
    // Two workers, jobs dealt round-robin: worker 1 reaches the panicking
    // job 3 through job 1, while worker 0 sits in job 0 until the batch is
    // known to be poisoned. Whenever either thread is first scheduled,
    // worker 0 then finds the poison flag set and takes nothing more, so
    // the 497 jobs still queued are dropped — no sleep decides it.
    let jobs: Vec<Job<'_, ()>> = (0..500)
        .map(|i| {
            let poisoned = Arc::clone(&poisoned);
            Job::new(format!("poison:{i}"), move || {
                executed.fetch_add(1, Ordering::SeqCst);
                if i == 3 {
                    AT_THREAD_EXIT.with(|slot| *slot.borrow_mut() = Some(OpenOnDrop(poisoned)));
                    panic!("injected failure in job 3");
                }
                if i % 2 == 0 {
                    poisoned.wait();
                }
            })
        })
        .collect();
    let err = exec.map_indexed(jobs).unwrap_err();
    assert_eq!(err.label, "poison:3");
    assert!(err.payload.contains("injected failure"), "{}", err.payload);
    let ran = executed.load(Ordering::SeqCst);
    assert!(ran <= 3, "poisoned batch ran {ran} jobs: pending work was not dropped");
    assert_eq!(exec.counters().panics, 1);

    // The pool stays usable and deterministic after poisoning.
    let jobs: Vec<Job<'_, usize>> =
        (0..32).map(|i| Job::new(format!("after:{i}"), move || i + 1)).collect();
    assert_eq!(exec.map_indexed(jobs).unwrap(), (1..=32).collect::<Vec<_>>());
}

#[test]
fn concurrent_panics_report_a_real_label() {
    // Several jobs panic close together; whichever wins the race, the
    // reported error must be one of the actual panickers.
    let exec = Executor::new(4);
    let jobs: Vec<Job<'_, ()>> = (0..64)
        .map(|i| {
            Job::new(format!("multi:{i}"), move || {
                if i % 8 == 5 {
                    panic!("bad job {i}");
                }
            })
        })
        .collect();
    let err = exec.map_indexed(jobs).unwrap_err();
    let idx: usize = err.label.strip_prefix("multi:").unwrap().parse().unwrap();
    assert_eq!(idx % 8, 5, "reported label {} is not a panicking job", err.label);
    assert!(err.payload.contains(&format!("bad job {idx}")), "{}", err.payload);
    assert!(exec.counters().panics >= 1);
}

#[test]
fn nested_batches_on_worker_threads_do_not_deadlock() {
    // A job may itself own an executor (e.g. the oracle drives mine()
    // from inside its own pool); inner pools are independent.
    let outer = Executor::new(2);
    let jobs: Vec<Job<'_, u64>> = (0..4)
        .map(|i| {
            Job::new(format!("outer:{i}"), move || {
                let inner = Executor::new(2);
                let inner_jobs: Vec<Job<'_, u64>> = (0..8)
                    .map(|j| Job::new(format!("inner:{i}:{j}"), move || i * 10 + j))
                    .collect();
                inner.map_indexed(inner_jobs).unwrap().into_iter().sum()
            })
        })
        .collect();
    let out = outer.map_indexed(jobs).unwrap();
    let expect: Vec<u64> = (0..4).map(|i| (0..8).map(|j| i * 10 + j).sum()).collect();
    assert_eq!(out, expect);
}
