//! The store's byte formats, pinned: the checkpoint image (`STRUDEL1`),
//! the page file (`STRUPGD1` pages holding a `STRUMAN2` manifest) and the
//! write-ahead log (`STRUWAL2`) are digested after a fixed script and held
//! to recorded values — the image and the log since commit ea0fdde, the
//! page file since its manifest became `STRUMAN2`. A store written by any
//! later build therefore opens under any earlier one of the same formats,
//! and the reverse; an earlier manifest version is refused, typed. A
//! digest that moves means a format change: bump the magic, do not
//! re-record.

use std::fs;
use std::path::PathBuf;

use strudel_graph::error::GraphError;
use strudel_graph::pager::Pager;
use strudel_graph::store::{save, wal_path, PagedStore, WireValue};
use strudel_graph::wal::Wal;
use strudel_graph::{FileKind, Graph, Value};

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("strudel_format_{name}_{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

/// Every `Value` kind, all four `FileKind`s, an unnamed node, an empty
/// collection, and a reference to a node that comes later in member order.
fn fixture() -> Graph {
    let mut g = Graph::standalone();
    let a = g.new_node(Some("a"));
    let anon = g.new_node(None);
    let c = g.new_node(Some("c"));
    g.add_edge_str(a, "next", Value::Node(c)).unwrap();
    g.add_edge_str(a, "year", Value::Int(-1997)).unwrap();
    g.add_edge_str(a, "score", Value::Float(4.5)).unwrap();
    g.add_edge_str(a, "open", Value::Bool(true)).unwrap();
    g.add_edge_str(a, "title", Value::str("Strudel")).unwrap();
    g.add_edge_str(a, "home", Value::url("http://example.com/"))
        .unwrap();
    for (label, kind) in [
        ("abstract", FileKind::Text),
        ("body", FileKind::Html),
        ("photo", FileKind::Image),
        ("paper", FileKind::PostScript),
    ] {
        g.add_edge_str(anon, label, Value::file(kind, format!("files/{label}")))
            .unwrap();
    }
    g.add_edge_str(c, "next", Value::Node(a)).unwrap();
    g.add_edge_str(c, "title", Value::str("")).unwrap();
    g.ensure_collection("Empty");
    g.add_to_collection_str("Things", Value::Node(c));
    g.add_to_collection_str("Things", Value::Node(anon));
    g.add_to_collection_str("Things", Value::Int(7));
    g
}

fn image(g: &Graph) -> Vec<u8> {
    let mut buf = Vec::new();
    save(g, &mut buf).unwrap();
    buf
}

/// The log without its creation time (bytes 16..24) and the header
/// checksum that covers it (24..32); every frame checksum is kept.
fn wal_bytes(path: &std::path::Path) -> Vec<u8> {
    let log = fs::read(wal_path(path)).unwrap();
    [&log[..16], &log[32..]].concat()
}

#[test]
fn golden_image() {
    let bytes = image(&fixture());
    assert_eq!(
        (bytes.len(), fnv1a(&bytes)),
        GOLDEN_IMAGE,
        "STRUDEL1 image bytes changed"
    );
}

#[test]
fn golden_page_file_and_log() {
    let dir = scratch("golden");
    let path = dir.join("data.pdb");
    let mut store = PagedStore::import(&path, &fixture()).unwrap();

    let mut txn = store.begin();
    let n = txn.add_node(Some("d"));
    txn.add_edge(n, "cites", WireValue::Node(0));
    txn.add_edge(0, "cited_by", WireValue::Node(n));
    txn.add_to_collection("Late", WireValue::Node(n));
    txn.commit().unwrap();
    let mut txn = store.begin();
    txn.remove_edge(0, "year", WireValue::Int(-1997));
    txn.add_edge(0, "year", WireValue::Float(1997.5));
    txn.add_edge(1, "note", WireValue::File(FileKind::Html, "n.html".into()));
    txn.commit().unwrap();
    let mut txn = store.begin();
    txn.remove_from_collection("Things", WireValue::Int(7));
    txn.add_to_collection("Things", WireValue::Url("http://e/".into()));
    txn.add_edge(2, "flag", WireValue::Bool(false));
    txn.add_node(None);
    txn.ensure_collection("Empty2");
    txn.commit().unwrap();
    let log = wal_bytes(&path);
    assert_eq!(
        (log.len(), fnv1a(&log)),
        GOLDEN_LOG,
        "STRUWAL2 frames changed"
    );

    store.checkpoint().unwrap();
    let pages = fs::read(&path).unwrap();
    assert_eq!(
        (pages.len(), fnv1a(&pages)),
        GOLDEN_CHECKPOINTED,
        "page file after an incremental checkpoint changed"
    );

    let mut txn = store.begin();
    txn.add_edge(3, "title", WireValue::Str("Late".into()));
    txn.commit().unwrap();
    store.compact().unwrap();
    let pages = fs::read(&path).unwrap();
    assert_eq!(
        (pages.len(), fnv1a(&pages)),
        GOLDEN_COMPACTED,
        "page file after compaction changed"
    );
    let log = wal_bytes(&path);
    assert_eq!((log.len(), fnv1a(&log)), GOLDEN_EMPTY_LOG);
    let final_image = image(store.graph().unwrap());
    assert_eq!((final_image.len(), fnv1a(&final_image)), GOLDEN_FINAL_IMAGE);
    fs::remove_dir_all(&dir).unwrap();
}

// (length, FNV-1a) pairs: the image's and the log's recorded at commit
// ea0fdde, the page file's when its manifest became `STRUMAN2`.
const GOLDEN_IMAGE: (usize, u64) = (368, 4307717326986371999);
const GOLDEN_LOG: (usize, u64) = (439, 5274820857347156883);
const GOLDEN_CHECKPOINTED: (usize, u64) = (61440, 4563674867298360876);
const GOLDEN_COMPACTED: (usize, u64) = (40960, 1921831814454184186);
const GOLDEN_EMPTY_LOG: (usize, u64) = (16, 14538280695863736000);
const GOLDEN_FINAL_IMAGE: (usize, u64) = (509, 17994781622079451420);

/// An import that cannot be encoded (an edge to a node the graph does not
/// hold) fails before the first byte of an existing store is replaced.
#[test]
fn failed_import_leaves_an_existing_store_untouched() {
    let dir = scratch("failed_import");
    let path = dir.join("data.pdb");
    let mut store = PagedStore::import(&path, &fixture()).unwrap();
    let mut txn = store.begin();
    txn.add_node(Some("kept"));
    txn.commit().unwrap();
    drop(store);
    let before = (fs::read(&path).unwrap(), fs::read(wal_path(&path)).unwrap());

    let mut bad = Graph::standalone();
    let n = bad.new_node(Some("n"));
    let ghost = bad.universe().create_node(None);
    bad.add_edge_str(n, "to", Value::Node(ghost)).unwrap();
    let err = PagedStore::import(&path, &bad).unwrap_err();
    assert!(matches!(err, GraphError::StorageCorrupt { .. }), "{err}");

    let after = (fs::read(&path).unwrap(), fs::read(wal_path(&path)).unwrap());
    assert!(before == after, "failed import touched the existing store");
    assert_eq!(fs::read_dir(&dir).unwrap().count(), 2, "no litter");
    assert_eq!(PagedStore::open(&path).unwrap().revision(), 2);
    fs::remove_dir_all(&dir).unwrap();
}

/// A page file whose manifest is version 1 (`STRUMAN1`, node segments
/// without their tallies) is refused at open, typed, naming the version:
/// it is not read, and not migrated.
#[test]
fn a_version_1_manifest_is_refused_typed() {
    let dir = scratch("struman1");
    let path = dir.join("data.pdb");
    // An empty graph as version 1 wrote it: the preamble (no symbols, no
    // nodes) and the collection count, each a chain the manifest names.
    let preamble = [&b"STRUDEL1"[..], &0u32.to_le_bytes(), &0u32.to_le_bytes()].concat();
    let count = 0u32.to_le_bytes();
    let blobs: [&[u8]; 2] = [&preamble, &count];
    let manifest = |pages: &[Vec<u32>]| {
        let mut m = b"STRUMAN1".to_vec();
        for (k, blob) in blobs.iter().enumerate() {
            m.extend_from_slice(&1u64.to_le_bytes());
            m.extend_from_slice(&(blob.len() as u64).to_le_bytes());
            m.extend_from_slice(&pages[k][0].to_le_bytes());
            m.extend_from_slice(&1u32.to_le_bytes());
            m.extend_from_slice(&0u32.to_le_bytes()); // no node segments, no collections
        }
        Ok(m)
    };
    let mut pager = Pager::create(&path).unwrap();
    pager
        .commit_segments(&blobs, Vec::new(), 1, manifest)
        .unwrap();
    Wal::create(&wal_path(&path), 1).unwrap();
    match PagedStore::open(&path) {
        Err(e @ GraphError::StorageCorrupt { .. }) => {
            assert!(e.to_string().contains("version 1 (STRUMAN1)"), "{e}")
        }
        other => panic!("a STRUMAN1 manifest opened: {other:?}"),
    }
    fs::remove_dir_all(&dir).unwrap();
}
