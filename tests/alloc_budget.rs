//! A site edge costs about one allocation.
//!
//! Heap traffic per created edge is a property of the code, not of the
//! host: it is counted here with a counting global allocator (which is why
//! this is a test binary of its own) and held to a budget on the write
//! paths a build or a restart runs — loading the data graph from DDL,
//! loading it from a store's image, and constructing the site graph. Before
//! the index's extents became lazy and the derivation table flat, a site
//! edge cost 2.1 allocations and ~800 bytes, a data edge 2.0–2.1 and ~715;
//! the site-edge budget sits between that and what the code does now
//! (≈ 0.68 / 440), so the old per-edge index write, or a hash table per
//! `(source, label)`, cannot come back unnoticed. The data-edge budgets are
//! what the batched loads measure plus 5 %: from DDL ≈ 1.19 / 416 (a string
//! per value, an out-list that doubles as the parser meets the edges, the
//! token vector), from an image ≈ 0.89 / 84 (a string per value, an
//! out-list reserved once from the record's count — one that doubles its
//! way up again measured 1.07 / 136 — shows here).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use strudel::synth::news;

/// Counts `alloc` and `realloc` calls and the bytes they ask for, on the
/// threads that switched counting on.
struct Counting;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static CALLS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    if COUNTING.with(Cell::get) {
        CALLS.with(|c| c.set(c.get() + 1));
        BYTES.with(|b| b.set(b.get() + bytes as u64));
    }
}

// SAFETY: every method forwards to `System` with the arguments it was
// given; the counting touches only const-initialized thread-locals without
// destructors, which never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Runs `work` and returns its result with the `(calls, bytes)` it made on
/// this thread.
fn counted<T>(work: impl FnOnce() -> T) -> (T, f64, f64) {
    CALLS.with(|c| c.set(0));
    BYTES.with(|b| b.set(0));
    COUNTING.with(|c| c.set(true));
    let out = work();
    COUNTING.with(|c| c.set(false));
    (
        out,
        CALLS.with(Cell::get) as f64,
        BYTES.with(Cell::get) as f64,
    )
}

/// Per-edge `(allocations, bytes)` of loading the data graph from DDL, of
/// loading it from a store's image, and of `build_site`, for the news site
/// over `articles` articles.
fn per_edge(articles: usize) -> [(f64, f64); 3] {
    let mut s = news::system(articles, 7, false).unwrap();
    let (data_edges, calls, bytes) = counted(|| s.data_graph().unwrap().edge_count() as f64);
    let load = (calls / data_edges, bytes / data_edges);
    let mut image = Vec::new();
    strudel::graph::store::save(s.data_graph().unwrap(), &mut image).unwrap();
    let (decoded, calls, bytes) = counted(|| strudel::graph::store::load_slice(&image).unwrap());
    assert_eq!(decoded.edge_count() as f64, data_edges);
    let decode = (calls / data_edges, bytes / data_edges);
    let (build, calls, bytes) = counted(|| s.build_site().unwrap());
    let site_edges = build
        .stats
        .iter()
        .map(|s| s.construct.edges_created)
        .sum::<u64>() as f64;
    assert!(data_edges > 8.0 * articles as f64 && site_edges > 2.0 * data_edges);
    [load, decode, (calls / site_edges, bytes / site_edges)]
}

// One test: the last assertion needs both sizes.
#[test]
fn an_edge_costs_about_one_allocation_at_any_size() {
    let small = per_edge(2_000);
    let large = per_edge(8_000);
    eprintln!(
        "allocations, bytes per edge (DDL load, image load, build): \
         {small:?} at 2,000; {large:?} at 8,000"
    );
    for [load, decode, build] in [small, large] {
        assert!(load.0 <= 1.25 && load.1 <= 437.0, "data edge: {load:?}");
        assert!(
            decode.0 <= 0.94 && decode.1 <= 89.0,
            "image edge: {decode:?}"
        );
        assert!(build.0 <= 1.4 && build.1 <= 560.0, "site edge: {build:?}");
    }
    // Per edge means per edge: four times the site, the same figures.
    for (small, large) in small.iter().zip(&large) {
        for (small, large) in [(small.0, large.0), (small.1, large.1)] {
            assert!((large / small - 1.0).abs() <= 0.10, "{small} -> {large}");
        }
    }
}
