//! Loading a graph, as counts.
//!
//! What a reopen costs is a property of the code before it is a time on
//! some host (the form of `tests/alloc_budget.rs`): which pages `open`
//! reads — the two header slots, the manifest, the preamble and the
//! collections, and not one page of a node segment, where it used to read
//! every page of the file —; what the first read of one node reads and
//! decodes — the pages of its 64-node segment, and that segment plus the
//! segments the log's replay wrote to, where it used to be every segment —;
//! and that an open followed by a read of the whole graph still reads each
//! live page from the file exactly once.
//!
//! One test: the storage counters are the process's, so nothing else in
//! this binary may touch a store meanwhile.

use strudel_graph::pager::PAGE_PAYLOAD;
use strudel_graph::store::{self, PagedStore, WireValue};
use strudel_graph::{storage_stats, Graph, Value};

/// `nodes` nodes in one collection, `fanout` edges each: a number, a
/// reference to the next node and strings long enough that a node record is
/// `fanout` × ~50 bytes.
fn graph(nodes: usize, fanout: usize) -> Graph {
    let mut g = Graph::standalone();
    let members: Vec<_> = (0..nodes)
        .map(|i| g.new_node(Some(&format!("n{i}"))))
        .collect();
    let labels: Vec<_> = (0..fanout).map(|l| g.sym(&format!("attr{l}"))).collect();
    for (i, &n) in members.iter().enumerate() {
        g.add_to_collection_str("Items", Value::Node(n));
        for (l, &label) in labels.iter().enumerate() {
            let to = match l {
                0 => Value::Int(i as i64),
                1 => Value::Node(members[(i + 1) % nodes]),
                _ => Value::str(text(l, i)),
            };
            g.add_edge(n, label, to).unwrap();
        }
    }
    g
}

fn text(label: usize, node: usize) -> String {
    format!("value {label} of the node numbered {node:>12}")
}

/// The pages of node segment `seg` of `graph(nodes, fanout)`'s image: a
/// record is its name, its edge count, and a symbol index and a tagged
/// value per edge.
fn segment_pages(seg: usize, nodes: usize, fanout: usize) -> u64 {
    let record = |i: usize| {
        let edges: usize = (0..fanout)
            .map(|l| match l {
                0 => 4 + 1 + 8,
                1 => 4 + 1 + 4,
                _ => 4 + 1 + 4 + text(l, i).len(),
            })
            .sum();
        1 + 4 + format!("n{i}").len() + 4 + edges
    };
    let bytes: usize = (seg * 64..((seg + 1) * 64).min(nodes)).map(record).sum();
    bytes.div_ceil(PAGE_PAYLOAD) as u64
}

#[test]
fn a_load_reads_each_page_once() {
    let (nodes, fanout) = (20_000, 10);
    let source = graph(nodes, fanout);
    let edges = source.edge_count();
    assert_eq!(edges, nodes * fanout);

    let mut image = Vec::new();
    store::save(&source, &mut image).unwrap();
    let mut loaded = Graph::standalone();
    store::load_into(&mut loaded, image).unwrap();
    assert_eq!((loaded.node_count(), loaded.edge_count()), (nodes, edges));

    let dir = std::env::temp_dir().join(format!("strudel_load_counts_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("graph.pdb");
    let store = PagedStore::import(&path, &source).unwrap();
    // A fresh import has no free pages: every page but the two header
    // slots is live (segment chains and the manifest's).
    let pages = u64::from(store.page_count());
    assert!(pages > 2_000 && store.freelist_len() == 0, "{pages} pages");
    drop(store);

    // The live pages that are not a node segment's: the manifest's, the
    // preamble's and the collections'.
    let seg_pages = |seg: usize| segment_pages(seg, nodes, fanout);
    let node_pages: u64 = (0..nodes.div_ceil(64)).map(seg_pages).sum();
    let head = pages - 2 - node_pages;
    let reads = || storage_stats().page_reads;

    // `open`, then the first graph, one node of it and every edge: the
    // two header slots and the head read by `open`, with the segments the
    // log wrote to (the frames below go to nodes 0, 7, …, 133: segments 0
    // to 2) when `open` replays a 20-frame log; the pages of node 10,000's
    // segment (156) by its first read, which decodes that segment; the
    // other pages by `edges()`; each page once.
    for (frames, replayed) in [(0, 0), (20, 3)] {
        let before = storage_stats();
        let mut store = PagedStore::open(&path).unwrap();
        let log_pages: u64 = (0..replayed).map(seg_pages).sum();
        assert_eq!(
            reads() - before.page_reads,
            2 + head + log_pages,
            "open, {frames} frames"
        );
        let graph = store.graph().unwrap();
        assert_eq!(graph.edge_count(), edges + frames, "counted, not decoded");
        let opened = reads();
        let node = graph.nodes()[10_000];
        assert_eq!(graph.reader().out(node).len(), fanout);
        assert_eq!(
            graph.edge_count(),
            edges + frames,
            "a segment build is not a write"
        );
        assert_eq!(
            reads() - opened,
            seg_pages(156),
            "first read, {frames} frames"
        );
        let after = storage_stats();
        assert_eq!(after.materializations - before.materializations, 1);
        assert_eq!(
            after.segments_decoded - before.segments_decoded,
            1 + replayed as u64,
            "segments decoded, {frames} frames"
        );
        assert_eq!(
            after.materialized_edges - before.materialized_edges,
            (1 + replayed as u64) * 64 * fanout as u64
        );
        assert_eq!(
            after.wal_recovered_frames - before.wal_recovered_frames,
            frames as u64
        );
        let touched = reads();
        assert_eq!(graph.edges().len(), edges + frames);
        assert_eq!(
            reads() - touched,
            node_pages - seg_pages(156) - log_pages,
            "edges(), {frames} frames"
        );
        assert_eq!(reads() - before.page_reads, pages, "{frames} frames");
        graph.check().unwrap();
        if frames == 0 {
            for i in 0..20u32 {
                let mut txn = store.begin();
                txn.add_edge(i * 7, "note", WireValue::Str(format!("frame {i}")));
                txn.commit().unwrap();
            }
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
