//! The allocation budget of `mine`'s front half: parsing a database and
//! splitting it into units allocate, per graph, only what the result keeps.
//!
//! * `read_db` keeps, per graph, the graph's two blocks (one of `u32`
//!   words: labels, offsets and edges back to back; one the
//!   adjacency arena) and its `Arc`: three allocations, plus the database's
//!   vector growing in doublings.
//! * `DbPartition::build` at k = 2 keeps, per graph, two pieces of four
//!   (the graph's two blocks, its `Arc`, and one block holding the vertex
//!   map and then the edge map): eight, plus the buffers each work item
//!   reuses from graph to graph and what each tree node holds. A static
//!   database's all-zero ufreq table is not copied.
//!
//! A counting global allocator tallies the calling thread alone, so the
//! other tests of this binary cannot disturb the count; the split runs on
//! the inline runner, on this thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use graphmine_datagen::{generate, GenParams};
use graphmine_graph::io::{read_db, write_db};
use graphmine_partition::{DbPartition, GraphPart, Inline, SPLIT_RANGE};
use graphmine_telemetry::Telemetry;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// `System`, counting every allocation and reallocation of the thread that
/// asks for it.
struct Counting;

fn count() {
    ALLOCATIONS.with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the count is a `const`-initialised thread-local `Cell`, which
// neither allocates nor registers a destructor.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with
        // `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: as for `dealloc`, and the caller upholds `realloc`'s
        // contract for `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// What `f` returns, and how many allocations this thread made inside it.
fn allocations<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

#[test]
fn the_front_half_allocates_only_what_it_keeps() {
    let db = generate(&GenParams::new(2000, 10, 20, 200, 5).with_seed(2006));
    let d = db.len() as u64;
    let mut text = Vec::new();
    write_db(&mut text, &db).expect("write to memory");

    let (read, n) = allocations(|| read_db(text.as_slice()).expect("own output parses"));
    assert_eq!(read, db);
    // Beyond the graphs: the database's vector doubling, and the reused
    // buffers growing to the largest graph.
    let doublings = u64::from(d.ilog2()) + 1;
    let budget = 3 * d + doublings + 32;
    assert!(n <= budget, "read_db: {n} allocations for {d} graphs, budget {budget}");

    let ufreq: Vec<Vec<f64>> = db.iter().map(|(_, g)| vec![0.0; g.vertex_count()]).collect();
    let partitioner = GraphPart::default();
    let tel = Telemetry::new();
    let (part, n) =
        allocations(|| DbPartition::build_on(&db, &ufreq, &partitioner, 2, &tel, &Inline));
    assert_eq!(part.unit_count(), 2);
    let items = d.div_ceil(SPLIT_RANGE as u64);
    let budget = 8 * d + 64 * items + 64;
    assert!(
        n <= budget,
        "DbPartition::build: {n} allocations for {d} graphs in {items} work items, budget {budget} \
         ({:.1} per graph)",
        n as f64 / d as f64
    );
}
