//! In-memory span recorder for the traced run.
//!
//! Spans are opened from the benchmark's own files around each call into a
//! layer (`<layer>.<op>`); nothing inside the crates under `crates/` is
//! instrumented. A span records name, start, end, the span that caused it
//! and a request id shared by every span of one operation. Records stay in
//! memory and are written out once, after the last measurement.
//!
//! With tracing off (the run the end-to-end metrics come from) opening a
//! span is one relaxed load.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One finished span. Times are nanoseconds since the recorder's epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: u64,
    /// Id of the causing span, 0 for a root.
    pub parent: u64,
    /// Request id: every span of one operation carries the same value.
    pub rid: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_RID: AtomicU64 = AtomicU64::new(1);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());
static EPOCH: OnceLock<Instant> = OnceLock::new();

thread_local! {
    /// Open spans of this thread, innermost last: `(id, rid)`.
    static STACK: RefCell<Vec<(u64, u64)>> = const { RefCell::new(Vec::new()) };
}

fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

pub fn enable() {
    now_ns();
    ENABLED.store(true, Ordering::Relaxed);
}

pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Where a span opened on another thread hangs: the opener's innermost
/// span and request id.
#[derive(Debug, Clone, Copy, Default)]
pub struct Ctx {
    parent: u64,
    rid: u64,
}

/// The calling thread's innermost open span, to hand to a spawned thread.
pub fn ctx() -> Ctx {
    STACK.with(|s| s.borrow().last().map_or(Ctx::default(), |&(parent, rid)| Ctx { parent, rid }))
}

/// An open span; closing is dropping.
pub struct Guard {
    /// 0 when tracing is off.
    id: u64,
    parent: u64,
    rid: u64,
    name: &'static str,
    start_ns: u64,
}

fn open(name: &'static str, at: Ctx) -> Guard {
    if !enabled() {
        return Guard { id: 0, parent: 0, rid: 0, name, start_ns: 0 };
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    STACK.with(|s| s.borrow_mut().push((id, at.rid)));
    Guard { id, parent: at.parent, rid: at.rid, name, start_ns: now_ns() }
}

/// Opens a span under the thread's innermost open span, in its request.
pub fn span(name: &'static str) -> Guard {
    open(name, ctx())
}

/// Opens a span that starts a new request: it and everything under it
/// share a fresh request id.
pub fn request(name: &'static str) -> Guard {
    let at = ctx();
    let rid = if enabled() { NEXT_RID.fetch_add(1, Ordering::Relaxed) } else { 0 };
    open(name, Ctx { parent: at.parent, rid })
}

/// Opens a thread's first span under a span of the spawning thread.
pub fn enter(at: Ctx, name: &'static str) -> Guard {
    open(name, at)
}

impl Guard {
    /// Records a child the layer reported only as a duration (a stage
    /// time out of `MineStats`), placed `offset_ns` after this span began.
    pub fn child(&self, name: &'static str, offset_ns: u64, dur_ns: u64) {
        if self.id == 0 {
            return;
        }
        let start_ns = self.start_ns + offset_ns;
        SPANS.lock().expect("span log poisoned").push(Span {
            id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
            parent: self.id,
            rid: self.rid,
            name,
            start_ns,
            end_ns: start_ns + dur_ns,
        });
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        if self.id == 0 {
            return;
        }
        let end_ns = now_ns();
        STACK.with(|s| {
            let mut s = s.borrow_mut();
            if let Some(at) = s.iter().rposition(|&(id, _)| id == self.id) {
                s.remove(at);
            }
        });
        SPANS.lock().expect("span log poisoned").push(Span {
            id: self.id,
            parent: self.parent,
            rid: self.rid,
            name: self.name,
            start_ns: self.start_ns,
            end_ns,
        });
    }
}

/// Takes every recorded span out of the log.
pub fn drain() -> Vec<Span> {
    std::mem::take(&mut *SPANS.lock().expect("span log poisoned"))
}

/// Cost of opening, closing and recording one span, in nanoseconds,
/// measured on this machine. Times the recorder on throw-away spans and
/// leaves the log as it found it.
pub fn calibrate_ns_per_span() -> f64 {
    const N: u32 = 20_000;
    let kept = drain();
    let t = Instant::now();
    for _ in 0..N {
        drop(span("bench.calibrate"));
    }
    let per = t.elapsed().as_nanos() as f64 / f64::from(N);
    *SPANS.lock().expect("span log poisoned") = kept;
    per
}

/// Self time per span name, in nanoseconds, such that the values sum to
/// the time covered by any span.
///
/// A span's self time is its duration minus the part its children cover.
/// Client threads overlap, so the sweep charges every instant to the
/// innermost spans open at that instant (open spans none of whose
/// children are open) and splits it evenly among them: on one thread this
/// is exactly "span minus children", and two children overlapping on two
/// threads each get half of the overlap, so a workload's layers plus
/// `unattributed` add up to its wall time and not to its CPU time.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut cuts: Vec<u64> = spans.iter().flat_map(|s| [s.start_ns, s.end_ns]).collect();
    cuts.sort_unstable();
    cuts.dedup();
    let mut by_start: Vec<&Span> = spans.iter().filter(|s| s.end_ns > s.start_ns).collect();
    by_start.sort_by_key(|s| s.start_ns);

    let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut open: Vec<&Span> = Vec::new();
    let mut next = 0;
    for w in cuts.windows(2) {
        let (from, to) = (w[0], w[1]);
        open.retain(|s| s.end_ns > from);
        while next < by_start.len() && by_start[next].start_ns <= from {
            open.push(by_start[next]);
            next += 1;
        }
        let innermost: Vec<&Span> =
            open.iter().copied().filter(|s| !open.iter().any(|c| c.parent == s.id)).collect();
        let share = (to - from) as f64 / innermost.len().max(1) as f64;
        for s in innermost {
            *out.entry(s.name).or_default() += share;
        }
    }
    out.into_iter().map(|(name, ns)| (name, ns.round() as u64)).collect()
}

/// The layer a span name belongs to: the text before the first dot.
pub fn layer_of(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

/// Serializes spans as a JSON array, one object per span.
pub fn to_json(spans: &[Span]) -> String {
    let mut out = String::from("[\n");
    for (i, s) in spans.iter().enumerate() {
        let sep = if i + 1 == spans.len() { "" } else { "," };
        out.push_str(&format!(
            "{{\"id\":{},\"parent\":{},\"rid\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}{sep}\n",
            s.id, s.parent, s.rid, s.name, s.start_ns, s.end_ns
        ));
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(id: u64, parent: u64, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span { id, parent, rid: 1, name, start_ns, end_ns }
    }

    #[test]
    fn self_time_is_the_span_minus_what_its_children_cover() {
        // parent [0,100); children [10,30) and [50,90); grandchild [60,70).
        let spans = [
            sp(1, 0, "bench.run", 0, 100),
            sp(2, 1, "graph.read_db", 10, 30),
            sp(3, 1, "core.mine", 50, 90),
            sp(4, 3, "core.merge_join", 60, 70),
        ];
        let t = self_times(&spans);
        assert_eq!(t["bench.run"], 40);
        assert_eq!(t["graph.read_db"], 20);
        assert_eq!(t["core.mine"], 30);
        assert_eq!(t["core.merge_join"], 10);
        assert_eq!(t.values().sum::<u64>(), 100, "parts sum to the whole");
    }

    #[test]
    fn children_overlapping_on_two_threads_split_the_overlap() {
        // parent [0,10); thread A's child [2,8), thread B's child [4,10).
        let spans = [
            sp(1, 0, "bench.phase", 0, 10),
            sp(2, 1, "serve.update", 2, 8),
            sp(3, 1, "serve.support", 4, 10),
        ];
        let t = self_times(&spans);
        // [0,2) parent alone; [2,4) A alone; [4,8) shared; [8,10) B alone.
        assert_eq!(t["bench.phase"], 2);
        assert_eq!(t["serve.update"], 4);
        assert_eq!(t["serve.support"], 4);
        assert_eq!(t.values().sum::<u64>(), 10, "wall time, not CPU time");
    }

    #[test]
    fn same_name_spans_accumulate_and_zero_length_spans_are_ignored() {
        let spans = [
            sp(1, 0, "bench.run", 0, 30),
            sp(2, 1, "serve.support", 0, 10),
            sp(3, 1, "serve.support", 10, 20),
            sp(4, 1, "serve.noop", 20, 20),
        ];
        let t = self_times(&spans);
        assert_eq!(t["serve.support"], 20);
        assert_eq!(t["bench.run"], 10);
        assert!(!t.contains_key("serve.noop"));
    }

    #[test]
    fn a_child_outliving_its_parent_is_still_charged() {
        // A client thread's span can close after the phase span that
        // spawned it; the tail belongs to the child alone.
        let spans = [sp(1, 0, "bench.phase", 0, 10), sp(2, 1, "router.read", 5, 14)];
        let t = self_times(&spans);
        assert_eq!(t["bench.phase"], 5);
        assert_eq!(t["router.read"], 9);
    }

    #[test]
    fn layers_are_the_prefix_before_the_first_dot() {
        assert_eq!(layer_of("serve.handle.support"), "serve");
        assert_eq!(layer_of("bench"), "bench");
    }

    #[test]
    fn recorder_links_parents_requests_and_threads() {
        enable();
        let root = request("bench.test_root");
        let root_rid = ctx().rid;
        let at = ctx();
        {
            let _inner = span("graph.inner");
        }
        std::thread::scope(|s| {
            s.spawn(move || {
                let _t = enter(at, "bench.client");
                let _r = request("serve.req");
            });
        });
        root.child("core.stage", 5, 7);
        drop(root);
        let spans: Vec<Span> =
            drain().into_iter().filter(|s| s.name != "bench.calibrate").collect();
        let by_name = |n: &str| spans.iter().find(|s| s.name == n).expect(n).clone();
        let root = by_name("bench.test_root");
        assert_eq!(by_name("graph.inner").parent, root.id);
        assert_eq!(by_name("graph.inner").rid, root_rid);
        assert_eq!(by_name("bench.client").parent, root.id);
        let req = by_name("serve.req");
        assert_eq!(req.parent, by_name("bench.client").id);
        assert_ne!(req.rid, root_rid, "a request span starts a new request id");
        let stage = by_name("core.stage");
        assert_eq!((stage.parent, stage.end_ns - stage.start_ns), (root.id, 7));
        assert_eq!(stage.start_ns, root.start_ns + 5);
        let json = to_json(&spans);
        assert!(json.starts_with('[') && json.ends_with(']'));
        assert_eq!(json.matches("\"name\"").count(), spans.len());
    }
}
