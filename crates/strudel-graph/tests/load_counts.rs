//! Loading a graph, as counts.
//!
//! What a reopen costs is a property of the code before it is a time on
//! some host (the form of `tests/alloc_budget.rs`): how often the universe's
//! revision moves — once per batch, where it used to move once per node and
//! once per edge, each move a write lock taken and released —, how often
//! a page is read from the file between `open` and the first graph — once,
//! where past the page cache's 1,024 pages it used to be twice — and how
//! much of the image is decoded before one node has been read: the 64-node
//! segment that holds it and the segments the log's replay wrote to, where
//! it used to be every segment.
//!
//! One test: the storage counters are the process's, so nothing else in
//! this binary may touch a store meanwhile.

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
                _ => Value::str(format!("value {l} of the node numbered {i:>12}")),
            };
            g.add_edge(n, label, to).unwrap();
        }
    }
    g
}

#[test]
fn a_load_moves_the_revision_per_batch_and_reads_each_page_once() {
    let (nodes, fanout) = (20_000, 10);
    let source = graph(nodes, fanout);
    let edges = source.edge_count();
    assert_eq!(edges, nodes * fanout);

    // An image of E edges and N nodes moves the revision by N/64 + a
    // constant at most (one batch per image today; a batch per 64-node
    // segment would still pass, a bump per node or per edge would not).
    let mut image = Vec::new();
    store::save(&source, &mut image).unwrap();
    let mut loaded = Graph::standalone();
    store::load_into(&mut loaded, image).unwrap();
    assert_eq!((loaded.node_count(), loaded.edge_count()), (nodes, edges));
    let moved = loaded.universe().revision();
    assert!(
        moved <= (nodes / 64 + 8) as u64,
        "{moved} revisions for {edges} edges"
    );

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

    // `open`, then the first graph and one node of it: each live page and
    // the two header slots read from the file exactly once, and not at all
    // afterwards; one revision attached; the node's segment decoded, and
    // the segments the log wrote to (the frames below go to nodes 0, 7, …,
    // 133: segments 0 to 2) — with a clean log, and with a 20-frame log
    // that `open` replays. Node 10,000 is in segment 156.
    for (frames, replayed) in [(0, 0), (20, 3)] {
        let before = storage_stats();
        let mut store = PagedStore::open(&path).unwrap();
        let graph = store.graph().unwrap();
        assert_eq!(graph.edge_count(), edges + frames, "counted, not decoded");
        let (node, stamp) = (graph.nodes()[10_000], graph.cache_stamp());
        assert_eq!(graph.reader().out(node).len(), fanout);
        assert_eq!(graph.cache_stamp(), stamp, "a segment build is not a write");
        let moved = graph.universe().revision();
        assert!(
            moved <= (nodes / 64 + 8 + 2 * frames) as u64,
            "{moved} revisions"
        );
        let after = storage_stats();
        assert_eq!(
            after.page_reads - before.page_reads,
            pages,
            "file reads, {frames} frames"
        );
        assert_eq!(after.materializations - before.materializations, 1);
        assert_eq!(
            after.segments_decoded - before.segments_decoded,
            1 + replayed,
            "segments decoded, {frames} frames"
        );
        assert_eq!(
            after.materialized_edges - before.materialized_edges,
            (1 + replayed) * 64 * fanout as u64
        );
        assert_eq!(
            after.wal_recovered_frames - before.wal_recovered_frames,
            frames as u64
        );
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
