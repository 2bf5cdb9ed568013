use super::codec::{decode_op, encode_op, MAGIC};
use super::segments::compose_image;
use super::*;
use crate::error::GraphError;
use crate::wal::{self, Wal};
use crate::{ddl, FileKind, Graph, Value};
use std::path::{Path, PathBuf};

fn sample() -> Graph {
    ddl::parse(
        r#"
collection Publications {
  abstract   text
  postscript ps
  homepage   url
}
object pub1 in Publications {
  title      "Specifying Representations"
  author     "Norman Ramsey"
  year       1997
  score      4.5
  open       true
  abstract   "abstracts/t.txt"
  postscript "papers/t.ps.gz"
  homepage   "http://example.com"
  next       &pub2
}
object pub2 in Publications {
  title "Optimizing"
  next  &pub1
}
"#,
    )
    .unwrap()
}

fn graph_bytes(g: &Graph) -> Vec<u8> {
    let mut b = Vec::new();
    save(g, &mut b).unwrap();
    b
}

/// The store's current revision as a canonical image.
fn image_of(store: &mut PagedStore) -> Vec<u8> {
    graph_bytes(store.graph().unwrap())
}

fn roundtrip(g: &Graph) -> Graph {
    load(graph_bytes(g)).unwrap()
}

#[test]
fn roundtrip_preserves_everything() {
    let g = sample();
    let g2 = roundtrip(&g);
    assert_eq!(g2.node_count(), g.node_count());
    assert_eq!(g2.edge_count(), g.edge_count());
    assert_eq!(g2.collection_str("Publications").unwrap().len(), 2);
    // Values with every tag survive.
    let r = g2.reader();
    let interner = g2.universe().interner();
    let p1 = g2.nodes()[0];
    assert_eq!(g2.node_name(p1).as_deref(), Some("pub1"));
    assert_eq!(
        r.attr(p1, interner.get("year").unwrap()),
        Some(&Value::Int(1997))
    );
    assert_eq!(
        r.attr(p1, interner.get("score").unwrap()),
        Some(&Value::Float(4.5))
    );
    assert_eq!(
        r.attr(p1, interner.get("open").unwrap()),
        Some(&Value::Bool(true))
    );
    assert_eq!(
        r.attr(p1, interner.get("postscript").unwrap()),
        Some(&Value::file(FileKind::PostScript, "papers/t.ps.gz"))
    );
    assert_eq!(
        r.attr(p1, interner.get("homepage").unwrap()),
        Some(&Value::url("http://example.com"))
    );
    // Cyclic node references survive with correct identity.
    let p2 = r
        .attr(p1, interner.get("next").unwrap())
        .unwrap()
        .as_node()
        .unwrap();
    assert_eq!(
        r.attr(p2, interner.get("next").unwrap()),
        Some(&Value::Node(p1))
    );
}

#[test]
fn loaded_graph_is_fully_indexed() {
    let g2 = roundtrip(&sample());
    let year = g2.universe().interner().get("year").unwrap();
    assert_eq!(g2.label_degrees(year), (1, 1));
    assert_eq!(g2.index().edges_to(&Value::Int(1997)).len(), 1);
}

#[test]
fn bad_magic_is_rejected() {
    let mut buf = Vec::new();
    save(&sample(), &mut buf).unwrap();
    buf[0] = b'X';
    assert!(matches!(load(buf), Err(GraphError::StorageCorrupt { .. })));
}

#[test]
fn truncated_input_is_rejected() {
    let mut buf = Vec::new();
    save(&sample(), &mut buf).unwrap();
    for cut in [4usize, 9, buf.len() / 2, buf.len() - 1] {
        assert!(
            matches!(
                load(buf[..cut].to_vec()),
                Err(GraphError::StorageCorrupt { .. })
            ),
            "cut at {cut}"
        );
    }
}

#[test]
fn trailing_garbage_is_rejected() {
    let mut buf = Vec::new();
    save(&sample(), &mut buf).unwrap();
    load(buf.clone()).unwrap();
    for junk in [&b"x"[..], &b"\0\0\0\0"[..], MAGIC] {
        let mut tainted = buf.clone();
        tainted.extend_from_slice(junk);
        let err = load(tainted).unwrap_err();
        assert!(
            matches!(err, GraphError::StorageCorrupt { .. }),
            "junk {junk:?}: {err}"
        );
        assert!(err.to_string().contains("trailing"), "{err}");
    }
}

#[test]
fn io_errors_surface_as_storage() {
    let path = std::env::temp_dir().join("strudel_store_definitely_missing.pdb");
    let err = PagedStore::open(&path).unwrap_err();
    assert!(matches!(err, GraphError::Storage { .. }));
    assert!(err.to_string().starts_with("storage error:"), "{err}");
}

#[test]
fn empty_graph_roundtrips() {
    let g = Graph::standalone();
    let g2 = roundtrip(&g);
    assert_eq!(g2.node_count(), 0);
    assert_eq!(g2.edge_count(), 0);
}

#[test]
fn dangling_reference_rejected_at_save() {
    let g = {
        let mut g = Graph::standalone();
        let n = g.new_node(None);
        // A node allocated in the universe but never adopted.
        let ghost = g.universe().create_node(None);
        g.add_edge_str(n, "to", Value::Node(ghost)).unwrap();
        g
    };
    let mut buf = Vec::new();
    assert!(save(&g, &mut buf).is_err());
}

#[test]
fn queries_work_on_loaded_graphs() {
    // Not just structure: the whole pipeline runs on a loaded graph.
    let g2 = roundtrip(&sample());
    // Collection membership + attribute lookup.
    let pubs = g2.collection_str("Publications").unwrap();
    assert!(pubs.items().iter().all(Value::is_node));
}

// ------------------------------------------------------ paged store ----

fn store_path(tag: &str) -> PathBuf {
    let p = std::env::temp_dir().join(format!("strudel_paged_{tag}_{}.pdb", std::process::id()));
    let _ = std::fs::remove_file(&p);
    let _ = std::fs::remove_file(wal_path(&p));
    p
}

fn cleanup(p: &Path) {
    let _ = std::fs::remove_file(p);
    let _ = std::fs::remove_file(wal_path(p));
}

#[test]
fn paged_commit_and_reopen() {
    let p = store_path("basic");
    {
        let mut store = PagedStore::create(&p).unwrap();
        let mut txn = store.begin();
        let a = txn.add_node(Some("alice"));
        let b = txn.add_node(Some("bob"));
        txn.add_edge(a, "knows", WireValue::Node(b));
        txn.add_edge(a, "age", WireValue::Int(31));
        txn.add_to_collection("People", WireValue::Node(a));
        txn.add_to_collection("People", WireValue::Node(b));
        assert_eq!(txn.commit().unwrap(), 1);
        let mut txn = store.begin();
        txn.remove_edge(0, "age", WireValue::Int(31));
        txn.add_edge(0, "age", WireValue::Int(32));
        assert_eq!(txn.commit().unwrap(), 2);
    }
    let mut store = PagedStore::open(&p).unwrap();
    assert_eq!(store.revision(), 2);
    let g = store.graph().unwrap();
    assert_eq!(g.node_count(), 2);
    assert_eq!(g.collection_str("People").unwrap().len(), 2);
    let age = g.universe().interner().get("age").unwrap();
    assert_eq!(g.reader().attr(g.nodes()[0], age), Some(&Value::Int(32)));
    cleanup(&p);
}

#[test]
fn paged_import_then_delta() {
    let p = store_path("import");
    {
        let mut store = PagedStore::import(&p, &sample()).unwrap();
        assert_eq!(store.revision(), 1);
        let mut txn = store.begin();
        let n = txn.add_node(Some("pub3"));
        txn.add_edge(n, "title", WireValue::Str("Third".into()));
        txn.add_to_collection("Publications", WireValue::Node(n));
        assert_eq!(txn.commit().unwrap(), 2);
    }
    let mut store = PagedStore::open(&p).unwrap();
    assert_eq!(store.revision(), 2);
    assert_eq!(store.graph().unwrap().node_count(), 3);
    assert_eq!(
        store
            .graph()
            .unwrap()
            .collection_str("Publications")
            .unwrap()
            .len(),
        3
    );
    cleanup(&p);
}

/// A graph filled by `materialize_into` is the revision it was filled at:
/// later commits go to the store's working graph, not to it.
#[test]
fn snapshot_isolation_across_commits() {
    let p = store_path("mvcc");
    let mut store = PagedStore::import(&p, &sample()).unwrap();
    let mut before = Graph::standalone();
    store.materialize_into(&mut before).unwrap();
    let mut txn = store.begin();
    let n = txn.add_node(Some("late"));
    txn.add_to_collection("Publications", WireValue::Node(n));
    assert_eq!(txn.commit().unwrap(), 2);
    // The graph filled at revision 1 still holds revision 1.
    assert_eq!(before.node_count(), 2);
    assert_eq!(before.collection_str("Publications").unwrap().len(), 2);
    let mut after = Graph::standalone();
    store.materialize_into(&mut after).unwrap();
    assert_eq!(after.node_count(), 3);
    assert_eq!(graph_bytes(&after), image_of(&mut store));
    cleanup(&p);
}

#[test]
fn checkpoint_folds_wal_and_survives_reopen() {
    let p = store_path("ckpt");
    {
        let mut store = PagedStore::import(&p, &sample()).unwrap();
        let mut txn = store.begin();
        let n = txn.add_node(Some("extra"));
        txn.add_edge(n, "title", WireValue::Str("E".into()));
        txn.commit().unwrap();
        store.checkpoint().unwrap();
        assert_eq!(
            store.wal_size(),
            wal::EMPTY_SIZE,
            "wal reset after checkpoint"
        );
    }
    let mut store = PagedStore::open(&p).unwrap();
    assert_eq!(store.revision(), 2);
    assert_eq!(store.graph().unwrap().node_count(), 3);
    cleanup(&p);
}

#[test]
fn reopened_store_is_byte_identical_to_working_copy() {
    let p = store_path("ident");
    let expected = {
        let mut store = PagedStore::import(&p, &sample()).unwrap();
        let mut txn = store.begin();
        let n = txn.add_node(None);
        txn.add_edge(n, "score", WireValue::Float(2.5));
        txn.add_edge(0, "flag", WireValue::Bool(false));
        txn.commit().unwrap();
        image_of(&mut store)
    };
    let mut store = PagedStore::open(&p).unwrap();
    assert_eq!(image_of(&mut store), expected);
    cleanup(&p);
}

#[test]
fn failed_apply_rolls_back_to_committed_state() {
    let p = store_path("rollback");
    let mut store = PagedStore::import(&p, &sample()).unwrap();
    let expected = image_of(&mut store);
    let err = store
        .commit_ops(&[
            DeltaOp::AddNode { name: None },
            DeltaOp::AddEdge {
                node: 999,
                label: "broken".into(),
                value: WireValue::Int(1),
            },
        ])
        .unwrap_err();
    assert!(matches!(err, GraphError::StorageCorrupt { .. }), "{err}");
    // Fully rolled back — including the AddNode that preceded the bad op.
    assert_eq!(store.revision(), 1);
    assert_eq!(image_of(&mut store), expected);
    // And the store still takes commits.
    let mut txn = store.begin();
    txn.add_node(Some("ok"));
    assert_eq!(txn.commit().unwrap(), 2);
    cleanup(&p);
}

#[test]
fn stale_wal_after_checkpoint_crash_is_discarded() {
    let p = store_path("stale");
    {
        let mut store = PagedStore::import(&p, &sample()).unwrap();
        let mut txn = store.begin();
        txn.add_node(Some("kept"));
        txn.commit().unwrap();
        store.checkpoint().unwrap();
    }
    // Simulate the crash window: checkpoint durable, but the old log
    // (base 1, with the now-folded txn) never got reset.
    {
        let mut old = Wal::create(&wal_path(&p), 1).unwrap();
        old.append_delta(
            &encode_op(&DeltaOp::AddNode {
                name: Some("kept".into()),
            })
            .unwrap(),
        )
        .unwrap();
        old.commit(2).unwrap();
    }
    let mut store = PagedStore::open(&p).unwrap();
    assert_eq!(store.revision(), 2);
    assert_eq!(
        store.graph().unwrap().node_count(),
        3,
        "txn applied exactly once"
    );
    cleanup(&p);
}

#[test]
fn wal_ahead_of_page_file_is_recovery_error() {
    let p = store_path("ahead");
    {
        PagedStore::import(&p, &sample()).unwrap();
    }
    Wal::create(&wal_path(&p), 7).unwrap();
    let err = PagedStore::open(&p).unwrap_err();
    assert!(matches!(err, GraphError::StorageRecovery { .. }), "{err}");
    cleanup(&p);
}

#[test]
fn compact_shrinks_the_file() {
    let p = store_path("compact");
    let mut store = PagedStore::import(&p, &sample()).unwrap();
    // Grow the file: big payloads across several checkpoints.
    for round in 0..6 {
        let mut txn = store.begin();
        let n = txn.add_node(None);
        txn.add_edge(n, "blob", WireValue::Str("x".repeat(20_000)));
        let _ = round;
        txn.commit().unwrap();
        store.checkpoint().unwrap();
    }
    let expected = image_of(&mut store);
    let report = store.compact().unwrap();
    assert!(
        report.pages_after < report.pages_before,
        "compaction should shrink {} -> {}",
        report.pages_before,
        report.pages_after
    );
    assert_eq!(store.leaked_pages(), 0);
    // The compacted store keeps serving without a reopen.
    assert_eq!(image_of(&mut store), expected);
    drop(store);
    let mut store = PagedStore::open(&p).unwrap();
    assert_eq!(image_of(&mut store), expected);
    cleanup(&p);
}

#[test]
fn delta_ops_roundtrip_through_encoding() {
    let ops = vec![
        DeltaOp::AddNode { name: None },
        DeltaOp::AddNode {
            name: Some("x".into()),
        },
        DeltaOp::AddEdge {
            node: 0,
            label: "l".into(),
            value: WireValue::File(FileKind::PostScript, "a.ps".into()),
        },
        DeltaOp::RemoveEdge {
            node: 1,
            label: "m".into(),
            value: WireValue::Url("http://e".into()),
        },
        DeltaOp::EnsureCollection { name: "C".into() },
        DeltaOp::AddToCollection {
            collection: "C".into(),
            value: WireValue::Float(1.5),
        },
        DeltaOp::RemoveFromCollection {
            collection: "C".into(),
            value: WireValue::Bool(true),
        },
    ];
    for op in &ops {
        assert_eq!(&decode_op(&encode_op(op).unwrap()).unwrap(), op);
    }
    assert!(matches!(
        decode_op(&[99]),
        Err(GraphError::StorageCorrupt { .. })
    ));
}

// --------------------------------------------- incremental checkpoint ----

#[test]
fn incremental_checkpoint_touches_only_dirty_segments() {
    let p = store_path("incr");
    let mut store = PagedStore::create(&p).unwrap();
    let mut txn = store.begin();
    for i in 0..1000i64 {
        let n = txn.add_node(None);
        txn.add_edge(n, "v", WireValue::Int(i));
    }
    txn.commit().unwrap();
    store.checkpoint().unwrap();
    let full_pages = store.segs.as_ref().unwrap().all_pages().len();
    assert_eq!(store.dirty_segments(), 0);
    // One new edge dirties one node segment (plus the preamble, since
    // "v2" is a new label) — not the whole image.
    let mut txn = store.begin();
    txn.add_edge(5, "v2", WireValue::Int(7));
    txn.commit().unwrap();
    assert_eq!(store.dirty_segments(), 2, "node segment + preamble");
    assert!(
        store.dirty_pages() < 8,
        "expected a handful of dirty pages, got {} (full image is {full_pages})",
        store.dirty_pages()
    );
    let count_before = store.page_count();
    store.checkpoint().unwrap();
    assert_eq!(store.dirty_segments(), 0);
    assert!(
        store.page_count() <= count_before + 8,
        "checkpoint grew the file by {} pages",
        store.page_count() - count_before
    );
    let expected = image_of(&mut store);
    drop(store);
    let mut reopened = PagedStore::open(&p).unwrap();
    assert_eq!(image_of(&mut reopened), expected);
    cleanup(&p);
}

#[test]
fn import_checkpoint_image_is_canonical() {
    let p = store_path("canon");
    let mut store = PagedStore::import(&p, &sample()).unwrap();
    let canonical = image_of(&mut store);
    let image = compose_image(&mut store.pager, &store.segs).unwrap();
    assert_eq!(image, canonical, "segments concatenate to the flat image");
    cleanup(&p);
}

/// A graph filled by `materialize_into` holds its revision while the page
/// file changes under it.
#[test]
fn snapshot_survives_checkpoint_and_compact() {
    let p = store_path("pin");
    let mut store = PagedStore::import(&p, &sample()).unwrap();
    let mut txn = store.begin();
    let n = txn.add_node(Some("pinned"));
    txn.add_edge(n, "title", WireValue::Str("P".into()));
    txn.commit().unwrap();
    let mut pinned = Graph::standalone();
    store.materialize_into(&mut pinned).unwrap();
    let expected = image_of(&mut store);
    // Mutate, checkpoint, compact: the graph must not move.
    for _ in 0..5 {
        let mut txn = store.begin();
        let m = txn.add_node(None);
        txn.add_edge(m, "blob", WireValue::Str("y".repeat(9000)));
        txn.commit().unwrap();
        store.checkpoint().unwrap();
    }
    store.compact().unwrap();
    assert_eq!(store.revision(), 7);
    assert_eq!(graph_bytes(&pinned), expected);
    cleanup(&p);
}

#[test]
fn clean_open_defers_materialization() {
    let p = store_path("lazy");
    {
        PagedStore::import(&p, &sample()).unwrap();
    }
    let mut store = PagedStore::open(&p).unwrap();
    assert!(store.graph.is_none(), "clean open must not materialize");
    let mut own = Graph::standalone();
    store.materialize_into(&mut own).unwrap();
    assert!(
        store.graph.is_none(),
        "a graph of one's own is not the working graph"
    );
    assert_eq!(own.node_count(), 2);
    assert_eq!(store.graph().unwrap().node_count(), 2);
    cleanup(&p);
}

// ------------------------------------------------------ codec property ----

/// A deterministic LCG, so a failing case replays from its seed.
struct Lcg(u64);

impl Lcg {
    fn below(&mut self, n: usize) -> usize {
        self.0 = (self.0.wrapping_mul(6364136223846793005)).wrapping_add(1442695040888963407);
        ((self.0 >> 33) as usize) % n.max(1)
    }

    /// Any kind of value; node references among `nodes` members.
    fn value(&mut self, nodes: usize) -> WireValue {
        let text = format!("t{}", self.below(4));
        match self.below(if nodes == 0 { 6 } else { 8 }) {
            0 => WireValue::Int(self.below(5) as i64 - 2),
            1 => WireValue::Float(self.below(5) as f64 / 2.0),
            2 => WireValue::Bool(self.below(2) == 0),
            3 => WireValue::Str(text),
            4 => WireValue::Url(text),
            5 => {
                let kind = [
                    FileKind::Text,
                    FileKind::Html,
                    FileKind::Image,
                    FileKind::PostScript,
                ][self.below(4)];
                WireValue::File(kind, text)
            }
            _ => WireValue::Node(self.below(nodes) as u32),
        }
    }

    /// One transaction's worth of ops against `model`, which has
    /// `nodes` members: adds, removals (two in three of an edge or item
    /// that exists), new nodes, new labels and new collections.
    fn ops(&mut self, model: &Graph, nodes: &mut usize) -> Vec<DeltaOp> {
        let mut ops = Vec::new();
        for _ in 0..1 + self.below(6) {
            let mut label = format!("l{}", self.below(7));
            let collection = format!("C{}", self.below(4));
            let node = self.below(*nodes);
            let mut value = self.value(*nodes);
            ops.push(match self.below(if *nodes == 0 { 1 } else { 9 }) {
                0 => {
                    *nodes += 1;
                    let name = (self.below(3) > 0).then(|| format!("n{nodes}"));
                    DeltaOp::AddNode { name }
                }
                1..=3 => DeltaOp::AddEdge {
                    node: node as u32,
                    label,
                    value,
                },
                4 => {
                    let out = (model.nodes().get(node)).map_or(vec![], |n| model.out_edges(*n));
                    if let (Some((l, v)), true) =
                        (out.get(self.below(out.len())), self.below(3) > 0)
                    {
                        (label, value) = (model.resolve(*l).to_string(), wire_of(model, v));
                    }
                    DeltaOp::RemoveEdge {
                        node: node as u32,
                        label,
                        value,
                    }
                }
                5 => DeltaOp::EnsureCollection { name: collection },
                6 | 7 => DeltaOp::AddToCollection { collection, value },
                _ => {
                    let items = model
                        .collection_str(&collection)
                        .map_or(&[][..], |c| c.items());
                    if let (Some(v), true) = (items.get(self.below(items.len())), self.below(3) > 0)
                    {
                        value = wire_of(model, v);
                    }
                    DeltaOp::RemoveFromCollection { collection, value }
                }
            });
        }
        ops
    }
}

fn wire_of(g: &Graph, v: &Value) -> WireValue {
    match v {
        Value::Node(n) => WireValue::Node(g.nodes().iter().position(|m| m == n).unwrap() as u32),
        Value::Int(i) => WireValue::Int(*i),
        Value::Float(f) => WireValue::Float(*f),
        Value::Bool(b) => WireValue::Bool(*b),
        Value::Str(s) => WireValue::Str(s.to_string()),
        Value::Url(s) => WireValue::Url(s.to_string()),
        Value::File(kind, path) => WireValue::File(*kind, path.to_string()),
    }
}

/// The model: the same ops through the graph's public mutators.
fn model_apply(g: &mut Graph, op: &DeltaOp) {
    let val = |g: &Graph, v: &WireValue| {
        v.tagged()
            .into_value(|i| Ok(g.nodes()[i as usize]))
            .unwrap()
    };
    match op {
        DeltaOp::AddNode { name } => drop(g.new_node(name.as_deref())),
        DeltaOp::AddEdge { node, label, value } => {
            let (n, v) = (g.nodes()[*node as usize], val(g, value));
            g.add_edge_str(n, label, v).unwrap();
        }
        DeltaOp::RemoveEdge { node, label, value } => {
            let (n, v) = (g.nodes()[*node as usize], val(g, value));
            g.remove_edge_str(n, label, &v).unwrap();
        }
        DeltaOp::EnsureCollection { name } => drop(g.ensure_collection(name)),
        DeltaOp::AddToCollection { collection, value } => {
            let v = val(g, value);
            g.add_to_collection_str(collection, v);
        }
        DeltaOp::RemoveFromCollection { collection, value } => {
            let v = val(g, value);
            g.ensure_collection(collection);
            g.remove_from_collection_str(collection, &v);
        }
    }
}

/// Over random graphs and random committed op sequences: the segments
/// an import writes concatenate to `save(g)`; a loaded image re-saves
/// to the same bytes; and whatever mix of commits, checkpoints and
/// reopens follows, the store's graph saves to the bytes of a model
/// graph that had the same ops applied in memory.
#[test]
fn codec_property_images_and_replay_match_a_model() {
    let p = store_path("property");
    for seed in 0..48u64 {
        let mut rng = Lcg(seed ^ 0x5354_5255_4445_4c31);
        let (mut model, mut nodes) = (Graph::standalone(), 0);
        for _ in 0..rng.below(5) {
            for op in rng.ops(&model, &mut nodes) {
                model_apply(&mut model, &op);
            }
        }
        let bytes = graph_bytes(&model);
        assert_eq!(
            graph_bytes(&load(bytes.clone()).unwrap()),
            bytes,
            "seed {seed}: reload"
        );
        let mut store = PagedStore::import(&p, &model).unwrap();
        let image = compose_image(&mut store.pager, &store.segs).unwrap();
        assert_eq!(image, bytes, "seed {seed}: imported segments");

        for round in 0..1 + rng.below(6) {
            let ops = rng.ops(&model, &mut nodes);
            ops.iter().for_each(|op| model_apply(&mut model, op));
            store.commit_ops(&ops).unwrap();
            match rng.below(4) {
                0 => store.checkpoint().unwrap(),
                1 => store = PagedStore::open(&p).unwrap(),
                _ => {}
            }
            assert_eq!(store.node_count() as usize, nodes);
            assert_eq!(
                image_of(&mut store),
                graph_bytes(&model),
                "seed {seed} round {round}"
            );
        }
        store.checkpoint().unwrap();
        let image = compose_image(&mut store.pager, &store.segs).unwrap();
        let mut reopened = PagedStore::open(&p).unwrap();
        assert_eq!(image_of(&mut reopened), graph_bytes(&model), "seed {seed}");
        // The checkpointed image itself decodes to the model, even when
        // its symbol table has outlived some labels.
        assert_eq!(
            graph_bytes(&load(image.clone()).unwrap()),
            graph_bytes(&model),
            "seed {seed}: checkpoint image"
        );
    }
    cleanup(&p);
}
