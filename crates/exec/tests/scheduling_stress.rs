//! Scheduling-stress suite for the shared-queue executor: submission-order
//! determinism under adversarial job durations, a straggler that must not
//! strand the jobs queued behind it, counter sanity, and poisoning
//! behaviour under concurrent panics.

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
fn a_straggler_does_not_strand_the_jobs_behind_it() {
    // Job 0 is a straggler: it waits until the other 63 jobs have run.
    // Every other worker must keep taking jobs while it waits, including
    // the ones a scheduler dealing jobs to workers would have queued behind
    // it; otherwise job 0 waits out its bound with jobs still pending.
    let exec = Executor::new(4);
    let left = &(Mutex::new(63usize), Condvar::new());
    let jobs: Vec<Job<'_, Option<u64>>> = (0..64)
        .map(|i| {
            Job::new(format!("skew:{i}"), move || {
                let (count, done) = left;
                let mut count = count.lock().unwrap();
                if i == 0 {
                    let bound = Duration::from_secs(10);
                    let (count, _) = done.wait_timeout_while(count, bound, |n| *n > 0).unwrap();
                    // `None`: the bound ran out with jobs still pending.
                    (*count == 0).then_some(i)
                } else {
                    *count -= 1;
                    if *count == 0 {
                        done.notify_all();
                    }
                    Some(i)
                }
            })
        })
        .collect();
    let out = exec.map_indexed(jobs).unwrap();
    assert_eq!(out, (0..64).map(Some).collect::<Vec<_>>());
    let c = exec.counters();
    assert_eq!(c.jobs, 64);
    assert_eq!(c.panics, 0);
}

#[test]
fn counters_add_up_over_rounds() {
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
        assert_eq!(exec.map_indexed(jobs).unwrap(), (0..48).collect::<Vec<_>>());
    }
    let ExecCounters { jobs, queue_peak, panics } = exec.counters();
    assert_eq!(jobs, 480);
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
    // Two workers, one queue: whichever worker takes job 0 sits in it until
    // the batch is known to be poisoned, so the other takes the panicking
    // job 1. Whenever either thread is first scheduled, the worker in job 0
    // then finds the poison flag set and takes nothing more, so the 498
    // jobs still queued are dropped — no sleep decides it.
    let jobs: Vec<Job<'_, ()>> = (0..500)
        .map(|i| {
            let poisoned = Arc::clone(&poisoned);
            Job::new(format!("poison:{i}"), move || {
                executed.fetch_add(1, Ordering::SeqCst);
                if i == 1 {
                    AT_THREAD_EXIT.with(|slot| *slot.borrow_mut() = Some(OpenOnDrop(poisoned)));
                    panic!("injected failure in job 1");
                }
                if i == 0 {
                    poisoned.wait();
                }
            })
        })
        .collect();
    let err = exec.map_indexed(jobs).unwrap_err();
    assert_eq!(err.label, "poison:1");
    assert!(err.payload.contains("injected failure"), "{}", err.payload);
    let ran = executed.load(Ordering::SeqCst);
    assert_eq!(ran, 2, "poisoned batch ran {ran} jobs: pending work was not dropped");
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
