//! Hierarchical wall-time spans.
//!
//! A [`Telemetry`] handle hands out RAII [`SpanGuard`]s; each records a
//! [`SpanRecord`] (name, optional partition node, thread id, start offset
//! and duration) when dropped. Parent/child nesting is tracked with a
//! per-thread stack, so spans opened on worker threads form their own
//! per-thread trees while spans on the driving thread nest as written.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::counters::Counters;

/// One finished span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Unique id within the run (allocation order, not completion order).
    pub id: u64,
    /// Enclosing span on the same thread, if any.
    pub parent: Option<u64>,
    /// Stage name, e.g. `unit_mine` or `merge_join`.
    pub name: String,
    /// Partition-tree node the span worked on, when applicable.
    pub node: Option<u64>,
    /// Debug identifier of the recording thread.
    pub thread: String,
    /// Start offset from the handle's creation, in nanoseconds.
    pub start_ns: u64,
    /// Wall-clock duration, in nanoseconds.
    pub dur_ns: u64,
}

// Per-thread stack of open spans, tagged with the owning `Telemetry`'s
// address so interleaved handles (e.g. parallel tests) don't adopt each
// other's spans as parents.
thread_local! {
    static OPEN: RefCell<Vec<(usize, u64)>> = const { RefCell::new(Vec::new()) };
}

/// A per-run telemetry handle: one counter table plus a span log.
#[derive(Debug)]
pub struct Telemetry {
    counters: Counters,
    spans: Mutex<Vec<SpanRecord>>,
    next_id: AtomicU64,
    epoch: Instant,
}

impl Default for Telemetry {
    fn default() -> Self {
        Telemetry::new()
    }
}

impl Telemetry {
    /// A fresh handle; the creation instant becomes the span epoch.
    pub fn new() -> Self {
        Telemetry {
            counters: Counters::new(),
            spans: Mutex::new(Vec::new()),
            next_id: AtomicU64::new(0),
            epoch: Instant::now(),
        }
    }

    /// The run's counter table.
    pub fn counters(&self) -> &Counters {
        &self.counters
    }

    /// Nanoseconds since the handle was created.
    pub fn elapsed_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; it is recorded when the returned guard drops.
    pub fn span(&self, name: &'static str) -> SpanGuard<'_> {
        self.open(name, None)
    }

    /// Opens a span tied to a partition-tree node.
    pub fn span_node(&self, name: &'static str, node: u64) -> SpanGuard<'_> {
        self.open(name, Some(node))
    }

    fn open(&self, name: &'static str, node: Option<u64>) -> SpanGuard<'_> {
        let key = self as *const Telemetry as usize;
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = OPEN.with(|stack| {
            let mut stack = stack.borrow_mut();
            let parent = stack.iter().rev().find(|&&(k, _)| k == key).map(|&(_, id)| id);
            stack.push((key, id));
            parent
        });
        SpanGuard { tel: self, id, parent, name, node, start: Instant::now() }
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<SpanRecord> {
        self.spans.lock().unwrap_or_else(|e| e.into_inner()).clone()
    }

    fn record(&self, rec: SpanRecord) {
        self.spans.lock().unwrap_or_else(|e| e.into_inner()).push(rec);
    }
}

/// RAII guard for an open span; records it when dropped.
#[derive(Debug)]
pub struct SpanGuard<'a> {
    tel: &'a Telemetry,
    id: u64,
    parent: Option<u64>,
    name: &'static str,
    node: Option<u64>,
    start: Instant,
}

impl SpanGuard<'_> {
    /// The span's id, usable for manual cross-thread parenting.
    pub fn id(&self) -> u64 {
        self.id
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let dur_ns = self.start.elapsed().as_nanos() as u64;
        let start_ns = self.start.duration_since(self.tel.epoch).as_nanos() as u64;
        let key = self.tel as *const Telemetry as usize;
        OPEN.with(|stack| {
            let mut stack = stack.borrow_mut();
            if let Some(pos) = stack.iter().rposition(|&(k, id)| k == key && id == self.id) {
                stack.remove(pos);
            }
        });
        self.tel.record(SpanRecord {
            id: self.id,
            parent: self.parent,
            name: self.name.to_string(),
            node: self.node,
            thread: format!("{:?}", std::thread::current().id()),
            start_ns,
            dur_ns,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counters::Counter;

    fn by_name<'a>(spans: &'a [SpanRecord], name: &str) -> &'a SpanRecord {
        spans.iter().find(|s| s.name == name).expect("span present")
    }

    #[test]
    fn spans_nest_on_one_thread() {
        let tel = Telemetry::new();
        {
            let _outer = tel.span("mine");
            {
                let _inner = tel.span_node("unit_mine", 3);
            }
            let _sibling = tel.span_node("merge_join", 1);
        }
        let spans = tel.spans();
        assert_eq!(spans.len(), 3);
        let outer = by_name(&spans, "mine");
        let inner = by_name(&spans, "unit_mine");
        let sibling = by_name(&spans, "merge_join");
        assert_eq!(outer.parent, None);
        assert_eq!(inner.parent, Some(outer.id));
        assert_eq!(inner.node, Some(3));
        assert_eq!(sibling.parent, Some(outer.id));
        // Children finish within the parent's window.
        assert!(inner.start_ns >= outer.start_ns);
        assert!(inner.start_ns + inner.dur_ns <= outer.start_ns + outer.dur_ns);
    }

    #[test]
    fn interleaved_handles_do_not_adopt_each_other() {
        let a = Telemetry::new();
        let b = Telemetry::new();
        {
            let _on_a = a.span("outer_a");
            let _on_b = b.span("on_b");
            let _inner_a = a.span("inner_a");
        }
        assert_eq!(by_name(&b.spans(), "on_b").parent, None);
        let spans = a.spans();
        let outer = by_name(&spans, "outer_a");
        assert_eq!(by_name(&spans, "inner_a").parent, Some(outer.id));
    }

    #[test]
    fn worker_thread_spans_root_at_their_thread() {
        let tel = Telemetry::new();
        let _root = tel.span("mine");
        std::thread::scope(|scope| {
            for unit in 0..4u64 {
                let tel = &tel;
                scope.spawn(move || {
                    let _s = tel.span_node("unit_mine", unit);
                    tel.counters().bump(Counter::UnitsMined);
                });
            }
        });
        drop(_root);
        let spans = tel.spans();
        let workers: Vec<_> = spans.iter().filter(|s| s.name == "unit_mine").collect();
        assert_eq!(workers.len(), 4);
        let main_thread = format!("{:?}", std::thread::current().id());
        for w in &workers {
            // Worker spans are their own roots, on a non-main thread.
            assert_eq!(w.parent, None);
            assert_ne!(w.thread, main_thread);
        }
        assert_eq!(tel.counters().get(Counter::UnitsMined), 4);
    }

    #[test]
    fn counters_accumulate_across_threads() {
        let tel = Telemetry::new();
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let tel = &tel;
                scope.spawn(move || {
                    for _ in 0..1000 {
                        tel.counters().bump(Counter::IsoTestsRun);
                    }
                    tel.counters().add(Counter::CandidatesGenerated, 5);
                });
            }
        });
        assert_eq!(tel.counters().get(Counter::IsoTestsRun), 8000);
        assert_eq!(tel.counters().get(Counter::CandidatesGenerated), 40);
    }
}
