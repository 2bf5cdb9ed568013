//! A site edge costs about one allocation.
//!
//! Heap traffic per created edge is a property of the code, not of the
//! host: it is counted here with a counting global allocator (which is why
//! this is a test binary of its own) and held to a budget on the write
//! paths a build or a restart runs — loading the data graph from DDL,
//! loading it from a store's image, and constructing the site graph. The
//! site-edge budget holds the construction stage's design: one book per
//! node in one vector, every book's supports in one chunked arena, a hash
//! index only for a hub — ≈ 0.58 allocations and 436 bytes per site edge,
//! the budgets 0.75 and that plus 5 %. A `Vec` of supports per source node
//! measured 0.83–0.85; the flat derivation table before the books 0.66–0.67
//! / 438, and before the index's extents became lazy a site edge cost 2.1
//! and ~800 — so a growable list per source, a hash table per `(source,
//! label)` or a per-edge index write cannot come back unnoticed. The
//! data-edge budgets are what the batched loads measure plus 5 %: from DDL
//! ≈ 0.67 / 132 (one string per distinct text, each object body's edges
//! written in one reservation; a string per value, an out-list that doubled
//! as the parser met the edges and a vector of every token measured 1.19 /
//! 399), from an image ≈ 0.89 / 77 (a string per value, an out-list
//! reserved once from the record's count — one that doubles its way up
//! again measured 1.07 / 136 — shows here). An image is decoded a segment
//! at a time as its nodes are read, so its row is the attach and then a
//! read of every node (the image's bytes are the caller's, moved in, and
//! not counted).
//!
//! The DDL load also has two rows of held bytes, per data edge: the most
//! it holds allocated at once while it runs, 80.2 at 2,000 articles and
//! 79.3 at 8,000 (budget 84.2), and the graph it leaves, 58.8 / 57.9
//! (budget 61.7). With the token vector, a string per value and the
//! doubling out-lists they were 211.5 / 211.6 and 85.4 / 85.5 — so a
//! buffer of the whole source's tokens or a copy per repeated string cannot
//! come back unnoticed.
//!
//! The extents row is what a graph's full index keeps beside the graph: the
//! live bytes, per data edge, that the DDL-loaded graph's first
//! `Graph::index()` leaves allocated. One reverse map from every edge target
//! to the edges onto it measures 41.4 at 2,000 articles and 41.7 at 8,000,
//! the budget 43.8; with a second copy of every edge in a per-label
//! extension beside it the same build left 77.4 / 77.6 — so a second
//! per-edge copy cannot come back unnoticed.
//!
//! Rendering the site has a row of its own, per emitted link
//! (`a_rendered_link_costs_no_more_on_a_larger_site`).
//!
//! So does a click (`a_warm_click_allocates_nothing_to_plan`): one
//! cache-cleared `expand` of an `ArticlePage` and of a `SectionPage` on a
//! news site whose plans are compiled, 144 and 2,155 allocations at 2,000
//! articles, 144 and 8,472 at 8,000, the budgets those plus 5 %. A
//! string-keyed plan cache, whose every hit formatted its conjunction into
//! a key and collected the bound variables into a set, made 155 and 2,161,
//! 155 and 8,478 — over the `ArticlePage` budget, which evaluates two
//! conjunctions, and within the `SectionPage` one, which evaluates one.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use strudel::synth::{news, org};

/// Counts `alloc` and `realloc` calls and the bytes they ask for, on the
/// threads that switched counting on.
struct Counting;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static CALLS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
    static LIVE: Cell<i64> = const { Cell::new(0) };
    static PEAK: Cell<i64> = const { Cell::new(0) };
}

/// One `alloc` or `realloc` asking for `bytes`, of which `grown` are new.
fn count(bytes: usize, grown: i64) {
    if COUNTING.with(Cell::get) {
        CALLS.with(|c| c.set(c.get() + 1));
        BYTES.with(|b| b.set(b.get() + bytes as u64));
        let live = LIVE.with(|l| {
            l.set(l.get() + grown);
            l.get()
        });
        PEAK.with(|p| p.set(p.get().max(live)));
    }
}

fn freed(bytes: usize) {
    if COUNTING.with(Cell::get) {
        LIVE.with(|l| l.set(l.get() - bytes as i64));
    }
}

// SAFETY: every method forwards to `System` with the arguments it was
// given; the counting touches only const-initialized thread-locals without
// destructors, which never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size(), layout.size() as i64);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        freed(layout.size());
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size, new_size as i64 - layout.size() as i64);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Runs `work` and returns its result with the `(calls, bytes)` it made on
/// this thread; [`live`] is then what it allocated and did not free, and
/// [`peak`] the most it held allocated at once.
fn counted<T>(work: impl FnOnce() -> T) -> (T, f64, f64) {
    CALLS.with(|c| c.set(0));
    BYTES.with(|b| b.set(0));
    LIVE.with(|l| l.set(0));
    PEAK.with(|p| p.set(0));
    COUNTING.with(|c| c.set(true));
    let out = work();
    COUNTING.with(|c| c.set(false));
    (
        out,
        CALLS.with(Cell::get) as f64,
        BYTES.with(Cell::get) as f64,
    )
}

/// The bytes the last [`counted`] work left allocated.
fn live() -> f64 {
    LIVE.with(Cell::get) as f64
}

/// The most bytes the last [`counted`] work held allocated at once.
fn peak() -> f64 {
    PEAK.with(Cell::get) as f64
}

/// What the DDL load holds per data edge: the most it held at once while it
/// ran and the graph it left.
#[derive(Debug, Clone, Copy)]
struct Held {
    peak: f64,
    after: f64,
}

/// Per-edge `(allocations, bytes)` of loading the data graph from DDL, of
/// loading it from a store's image and reading every node, and of
/// `build_site`, for the news site over `articles` articles; the live bytes
/// per data edge that the DDL-loaded graph's first `Graph::index()` leaves,
/// which are its extents; and what the DDL load holds per data edge.
fn per_edge(articles: usize) -> ([(f64, f64); 3], f64, Held) {
    let mut s = news::system(articles, 7, false).unwrap();
    let (data_edges, calls, bytes) = counted(|| s.data_graph().unwrap().edge_count() as f64);
    let load = (calls / data_edges, bytes / data_edges);
    let held = Held {
        peak: peak() / data_edges,
        after: live() / data_edges,
    };
    let g = s.data_graph().unwrap();
    assert!(!g.extents_built());
    counted(|| g.index().edge_count());
    let extents = live() / data_edges;
    let mut image = Vec::new();
    strudel::graph::store::save(s.data_graph().unwrap(), &mut image).unwrap();
    let (decoded, calls, bytes) = counted(|| {
        let g = strudel::graph::store::load(image).unwrap();
        let read: usize = {
            let r = g.reader();
            g.nodes().iter().map(|n| r.out(*n).len()).sum()
        };
        assert_eq!(read, g.edge_count());
        g
    });
    assert_eq!(decoded.edge_count() as f64, data_edges);
    let decode = (calls / data_edges, bytes / data_edges);
    let (build, calls, bytes) = counted(|| s.build_site().unwrap());
    let site_edges = build
        .stats
        .iter()
        .map(|s| s.construct.edges_created)
        .sum::<u64>() as f64;
    assert!(data_edges > 8.0 * articles as f64 && site_edges > 2.0 * data_edges);
    let build = (calls / site_edges, bytes / site_edges);
    ([load, decode, build], extents, held)
}

// One test: the last assertion needs both sizes.
#[test]
fn an_edge_costs_about_one_allocation_at_any_size() {
    let small = per_edge(2_000);
    let large = per_edge(8_000);
    eprintln!(
        "allocations, bytes per edge (DDL load, image load, build, extents, DDL held): \
         {small:?} at 2,000; {large:?} at 8,000"
    );
    for ([load, decode, build], extents, held) in [small, large] {
        assert!(load.0 <= 0.70 && load.1 <= 138.0, "data edge: {load:?}");
        assert!(
            decode.0 <= 0.94 && decode.1 <= 89.0,
            "image edge: {decode:?}"
        );
        assert!(build.0 <= 0.75 && build.1 <= 458.0, "site edge: {build:?}");
        assert!(extents <= 43.8, "extents per data edge: {extents}");
        assert!(
            held.peak <= 84.2 && held.after <= 61.7,
            "DDL load held: {held:?}"
        );
    }
    // Per edge means per edge: four times the site, the same figures.
    for (small, large) in small.0.iter().zip(&large.0) {
        for (small, large) in [(small.0, large.0), (small.1, large.1)] {
            assert!((large / small - 1.0).abs() <= 0.10, "{small} -> {large}");
        }
    }
    let held = [(small.2.peak, large.2.peak), (small.2.after, large.2.after)];
    for (small, large) in [(small.1, large.1)].into_iter().chain(held) {
        assert!((large / small - 1.0).abs() <= 0.10, "{small} -> {large}");
    }
}

/// Allocations of one click-time `expand` of `art0`'s `ArticlePage` and of
/// the "world" `SectionPage`, each after `cache_clear`, on a news site over
/// `articles` articles that has expanded both pages once already: every
/// conjunction's plan is compiled and the index built, as on a running
/// server.
fn per_click(articles: usize) -> [u64; 2] {
    use strudel::graph::Value;
    use strudel::site::{DynamicSite, PageRef};
    use strudel::struql::EvalOptions;
    let data = strudel::graph::ddl::parse(&news::generate_ddl(articles, 7)).unwrap();
    let query = strudel::struql::parse_query(news::SITE_QUERY).unwrap();
    let site = DynamicSite::new(&data, &query, EvalOptions::default()).unwrap();
    let page = |skolem: &str, arg| PageRef {
        skolem: skolem.into(),
        args: vec![arg],
    };
    let pages = [
        page("ArticlePage", Value::Node(data.nodes()[0])),
        page("SectionPage", Value::str("world")),
    ];
    for p in &pages {
        assert!(site.expand(p).unwrap().len() > 5, "{p}");
    }
    pages.map(|p| {
        site.cache_clear();
        let (_, calls, _) = counted(|| site.expand(&p).unwrap());
        calls as u64
    })
}

/// A click allocates for its links, not for finding its plans: a warm
/// site's plan slot is one atomic load. The counts are 144 and 2,155 at
/// 2,000 articles, 144 and 8,472 at 8,000; the budgets are those plus 5 %.
#[test]
fn a_warm_click_allocates_nothing_to_plan() {
    let (small, large) = (per_click(2_000), per_click(8_000));
    eprintln!(
        "allocations of a cold ArticlePage, SectionPage click: \
         {small:?} at 2,000; {large:?} at 8,000"
    );
    for (calls, budget) in [small, large]
        .iter()
        .flatten()
        .zip([151, 2_262, 151, 8_895])
    {
        assert!(*calls <= budget, "{small:?} at 2,000; {large:?} at 8,000");
    }
}

/// `(allocations per emitted link, bytes requested per byte of HTML)` of
/// rendering the organization site over `members` members — on one worker,
/// because the counting is per thread.
fn per_link(members: usize) -> (f64, f64) {
    let mut s = org::system(&org::generate(members, 7)).unwrap();
    let build = s.build_site().unwrap();
    let roots = build.pages_of("RootPage");
    let generator = strudel::template::Generator::new(&build.graph, s.templates_mut());
    let (site, calls, bytes) = counted(|| generator.generate(&roots).unwrap());
    let links: usize = (site.pages.values())
        .map(|page| page.matches("<a href=").count())
        .sum();
    assert!(site.pages.len() > 2 * members && links > 10 * site.pages.len());
    (calls / links as f64, bytes / site.total_bytes() as f64)
}

/// Rendering allocates per page, not per link and not per comparison.
///
/// A page is one buffer that doubles its way up, a name, and its places in
/// the site's maps: 7.8 allocations a page at 1,000 members (0.71 per link,
/// 3.66 bytes requested per byte written), 9.4 at 6,000 (0.24, 3.35) — the
/// budgets are those plus 5 %. The generator this one replaced rebuilt both
/// sort keys in every comparison and cloned every value it looked at: 30.9
/// per link and 25.9 per byte at 1,000 members, 32.4 and 32.2 at 6,000,
/// *more* per link on the larger site, whose lists are longer. That is the
/// shape the last assertions keep out: a link of the larger site, which has
/// 38 to a page where the smaller has 11, must come out cheaper.
#[test]
fn a_rendered_link_costs_no_more_on_a_larger_site() {
    let small = per_link(1_000);
    let large = per_link(6_000);
    eprintln!(
        "allocations per link, bytes requested per output byte (render): \
         {small:?} at 1,000 members; {large:?} at 6,000"
    );
    for (per_link, per_byte) in [small, large] {
        assert!(
            per_link <= 0.75 && per_byte <= 3.85,
            "{per_link}, {per_byte}"
        );
    }
    assert!(large.0 <= small.0, "per link: {} -> {}", small.0, large.0);
    assert!(
        (large.1 / small.1 - 1.0).abs() <= 0.10,
        "per byte: {} -> {}",
        small.1,
        large.1
    );
}
