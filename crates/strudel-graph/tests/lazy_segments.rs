//! A graph attached to a stored image is the graph the image holds.
//!
//! Attaching reads every record of an image but decodes none; a node's
//! 64-node segment is decoded the first time the node is read or written.
//! Whatever order reads, writes, whole-graph scans, commits, checkpoints,
//! snapshots and reopens come in, every answer is the one an eagerly built
//! reference gives, a segment is decoded at most once — also under
//! concurrent readers — and decoding one moves no cache stamp. An image
//! whose records do not read fails when it is attached, typed, so nothing
//! read afterwards can panic.
//!
//! The storage counters are the process's: the tests of this binary take
//! turns.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use strudel_graph::graph::Universe;
use strudel_graph::pager::Pager;
use strudel_graph::store::{self, wal_path, DeltaOp, PagedStore, WireValue};
use strudel_graph::wal::Wal;
use strudel_graph::{storage_stats, Graph, GraphError, Oid, Value};

static TURN: Mutex<()> = Mutex::new(());

fn turn() -> std::sync::MutexGuard<'static, ()> {
    TURN.lock().unwrap_or_else(|e| e.into_inner())
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("strudel_lazy_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A deterministic LCG, so a failing case replays from its seed.
struct Lcg(u64);

impl Lcg {
    fn below(&mut self, n: usize) -> usize {
        self.0 = (self.0.wrapping_mul(6364136223846793005)).wrapping_add(1442695040888963407);
        ((self.0 >> 33) as usize) % n.max(1)
    }

    fn value(&mut self, nodes: usize) -> WireValue {
        match self.below(3) {
            0 => WireValue::Int(self.below(9) as i64),
            1 => WireValue::Str(format!("text {}", self.below(9))),
            _ => WireValue::Node(self.below(nodes) as u32),
        }
    }

    fn label(&mut self) -> String {
        format!("l{}", self.below(5))
    }
}

/// A node as the reference holds it: name, out-edges in order.
type Node = (Option<String>, Vec<(String, WireValue)>);

/// The reference: every node by its index in member order, built eagerly
/// and written in place.
type Model = BTreeMap<u32, Node>;

/// A graph whose nodes are the consecutive oids from its first member's —
/// every graph a store attaches or a commit grows.
fn wire(g: &Graph, v: &Value) -> WireValue {
    match v {
        Value::Node(n) => WireValue::Node(n.0 - g.nodes()[0].0),
        Value::Int(i) => WireValue::Int(*i),
        Value::Str(s) => WireValue::Str(s.to_string()),
        other => panic!("the generator makes no {other:?}"),
    }
}

fn node_of(g: &Graph, i: u32) -> Node {
    let n = g.nodes()[i as usize];
    let out = g.reader().out(n).to_vec();
    let out = (out.iter()).map(|(l, v)| (g.resolve(*l).to_string(), wire(g, v)));
    (g.node_name(n).map(|s| s.to_string()), out.collect())
}

fn model_of(g: &Graph) -> Model {
    (0..g.node_count() as u32)
        .map(|i| (i, node_of(g, i)))
        .collect()
}

/// A random graph of `nodes` nodes, some named, 0–5 edges each.
fn source(rng: &mut Lcg, nodes: usize) -> Graph {
    let mut g = Graph::standalone();
    let ids: Vec<Oid> = (0..nodes)
        .map(|i| g.new_node((rng.below(3) > 0).then(|| format!("n{i}")).as_deref()))
        .collect();
    for &n in &ids {
        for _ in 0..rng.below(6) {
            let (label, value) = (rng.label(), rng.value(nodes));
            let value = match value {
                WireValue::Node(i) => Value::Node(ids[i as usize]),
                WireValue::Int(i) => Value::Int(i),
                WireValue::Str(s) => Value::str(s),
                _ => unreachable!(),
            };
            g.add_edge_str(n, &label, value).unwrap();
        }
        if rng.below(4) == 0 {
            g.add_to_collection_str("All", Value::Node(n));
        }
    }
    g
}

/// Applies one op to the reference.
fn model_apply(model: &mut Model, op: &DeltaOp) {
    match op {
        DeltaOp::AddNode { name } => drop(model.insert(model.len() as u32, (name.clone(), vec![]))),
        DeltaOp::AddEdge { node, label, value } => {
            model
                .get_mut(node)
                .unwrap()
                .1
                .push((label.clone(), value.clone()));
        }
        DeltaOp::RemoveEdge { node, label, value } => {
            let out = &mut model.get_mut(node).unwrap().1;
            if let Some(at) = out.iter().position(|(l, v)| l == label && v == value) {
                out.remove(at);
            }
        }
        _ => unreachable!("the generator makes only node and edge ops"),
    }
}

/// Applies one op to a graph through its one-at-a-time writers.
fn graph_apply(g: &mut Graph, op: &DeltaOp) {
    let val = |g: &Graph, v: &WireValue| match v {
        WireValue::Node(i) => Value::Node(g.nodes()[*i as usize]),
        WireValue::Int(i) => Value::Int(*i),
        WireValue::Str(s) => Value::str(s.as_str()),
        _ => unreachable!(),
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
        _ => unreachable!(),
    }
}

/// A write: a new node, an edge added, or an edge removed (one in two of
/// them an edge that exists).
fn write_op(rng: &mut Lcg, model: &Model) -> DeltaOp {
    let nodes = model.len();
    let node = rng.below(nodes) as u32;
    match rng.below(5) {
        0 => DeltaOp::AddNode {
            name: (rng.below(2) == 0).then(|| format!("new{nodes}")),
        },
        1 | 2 => DeltaOp::AddEdge {
            node,
            label: rng.label(),
            value: rng.value(nodes),
        },
        _ => {
            let out = &model[&node].1;
            let (label, value) = match out.get(rng.below(out.len())) {
                Some(edge) if rng.below(2) == 0 => edge.clone(),
                _ => (rng.label(), rng.value(nodes)),
            };
            DeltaOp::RemoveEdge { node, label, value }
        }
    }
}

/// Every edge of the reference, in member order, as `(from, label, to)`.
fn edges_of(model: &Model) -> Vec<(u32, String, WireValue)> {
    let each = model
        .iter()
        .flat_map(|(i, (_, out))| out.iter().map(move |e| (*i, e)));
    each.map(|(i, (l, v))| (i, l.clone(), v.clone())).collect()
}

/// One read against the reference — a node, a name, every edge, or the
/// index's label extensions — that moves no cache stamp.
fn read(rng: &mut Lcg, g: &Graph, model: &Model, what: &str) {
    let stamp = g.cache_stamp();
    let i = rng.below(model.len()) as u32;
    match rng.below(8) {
        0..=4 => assert_eq!(node_of(g, i), model[&i], "{what}: node {i}"),
        5 => {
            let name = g.node_name(g.nodes()[i as usize]);
            assert_eq!(name.map(|s| s.to_string()), model[&i].0, "{what}: name {i}");
        }
        6 => {
            let edges: Vec<_> = (g.edges().iter())
                .map(|e| {
                    (
                        e.from.0 - g.nodes()[0].0,
                        g.resolve(e.label).to_string(),
                        wire(g, &e.to),
                    )
                })
                .collect();
            assert_eq!(edges, edges_of(model), "{what}: edges()");
            assert_eq!(g.edge_count(), edges.len(), "{what}: edge count");
        }
        _ => {
            let idx = g.index().unwrap();
            for l in 0..5 {
                let label = format!("l{l}");
                let mut got: Vec<_> = g.universe().interner().get(&label).map_or(vec![], |s| {
                    let ext = idx.edges_with_label(s);
                    ext.iter()
                        .map(|(f, v)| (f.0 - g.nodes()[0].0, wire(g, v)))
                        .collect()
                });
                let mut want: Vec<_> = (edges_of(model).into_iter())
                    .filter(|(_, l, _)| *l == label)
                    .map(|(f, _, v)| (f, v))
                    .collect();
                got.sort_by_key(|e| format!("{e:?}"));
                want.sort_by_key(|e| format!("{e:?}"));
                assert_eq!(got, want, "{what}: extension of {label}");
            }
        }
    }
    assert_eq!(g.cache_stamp(), stamp, "{what}: a read moved the stamp");
}

/// Seeded interleavings of reads and writes over a store's working graph,
/// its snapshots and a graph attached with `load`, against one
/// reference; with commits, checkpoints, snapshots and reopens between.
#[test]
fn a_lazily_attached_graph_equals_an_eager_reference() {
    let _turn = turn();
    let dir = scratch("equivalence");
    let path = dir.join("store.pdb");
    for seed in 0..24u64 {
        let mut rng = Lcg(seed ^ 0x4c41_5a59);
        let nodes = 65 + rng.below(300);
        let source = source(&mut rng, nodes);
        let mut model = model_of(&source);
        let mut image = Vec::new();
        store::save(&source, &mut image).unwrap();
        let mut plain = store::load(image).unwrap();
        let mut store = PagedStore::import(&path, &source).unwrap();
        let mut snapshots: Vec<(store::Snapshot, Model)> = Vec::new();
        for step in 0..48 {
            let what = format!("seed {seed} step {step}");
            match rng.below(12) {
                0..=4 => {
                    read(&mut rng, store.graph().unwrap(), &model, &what);
                    read(&mut rng, &plain, &model, &what);
                }
                5..=7 => {
                    let op = write_op(&mut rng, &model);
                    store.commit_ops(std::slice::from_ref(&op)).unwrap();
                    graph_apply(&mut plain, &op);
                    model_apply(&mut model, &op);
                }
                8 => store.checkpoint().unwrap(),
                9 => snapshots.push((store.snapshot().unwrap(), model.clone())),
                _ => store = PagedStore::open(&path).unwrap(),
            }
        }
        assert_eq!(
            model_of(store.graph().unwrap()),
            model,
            "seed {seed}: store"
        );
        assert_eq!(model_of(&plain), model, "seed {seed}: load");
        for (snap, at) in &snapshots {
            assert_eq!(&model_of(snap.graph()), at, "seed {seed}: snapshot");
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Four threads read random nodes of a freshly opened store, all starting
/// at once on the same node: every read is the reference's, and each
/// segment any of them read is decoded once.
#[test]
fn concurrent_first_reads_decode_each_segment_once() {
    let _turn = turn();
    let dir = scratch("concurrent");
    let path = dir.join("store.pdb");
    let source = source(&mut Lcg(7), 3_000);
    let model = model_of(&source);
    PagedStore::import(&path, &source).unwrap();
    let before = storage_stats();
    let mut store = PagedStore::open(&path).unwrap();
    let graph = store.graph().unwrap();
    let start = std::sync::Barrier::new(4);
    let touched: BTreeSet<usize> = std::thread::scope(|scope| {
        let readers: Vec<_> = (0..4u64)
            .map(|t| {
                let (model, start) = (&model, &start);
                scope.spawn(move || {
                    let mut rng = Lcg(t);
                    let mut touched = BTreeSet::new();
                    start.wait();
                    for k in 0..100 {
                        // Segments 0 to 24 only, so that threads meet on them.
                        let i = if k == 0 { 0 } else { rng.below(1_600) as u32 };
                        assert_eq!(node_of(graph, i), model[&i], "thread {t}, node {i}");
                        touched.insert(i as usize / 64);
                    }
                    touched
                })
            })
            .collect();
        readers
            .into_iter()
            .flat_map(|r| r.join().unwrap())
            .collect()
    });
    let decoded = storage_stats().segments_decoded - before.segments_decoded;
    assert!(
        touched.len() < 3_000usize.div_ceil(64),
        "some segment unread"
    );
    assert_eq!(decoded, touched.len() as u64);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// What a mediator does with a store: `open_into` a graph, then adopt it
/// whole into the data graph. Adopting builds no segment — the log's replay
/// built the only ones — and counts what adopting node by node counts,
/// also where some of the nodes were members already.
#[test]
fn adopting_an_attached_graph_builds_no_segment() {
    let _turn = turn();
    let dir = scratch("adopt");
    let path = dir.join("store.pdb");
    let mut rng = Lcg(11);
    let source = source(&mut rng, 1_000);
    let mut model = model_of(&source);
    let mut store = PagedStore::import(&path, &source).unwrap();
    for _ in 0..6 {
        let op = write_op(&mut rng, &model);
        store.commit_ops(std::slice::from_ref(&op)).unwrap();
        model_apply(&mut model, &op);
    }
    drop(store);
    let universe = Universe::new();
    let mut mounted = Graph::new(Arc::clone(&universe));
    let before = storage_stats().segments_decoded;
    PagedStore::open_into(&path, &mut mounted).unwrap();
    let replayed = storage_stats().segments_decoded - before;
    let mut data = Graph::new(Arc::clone(&universe));
    data.adopt_graph(&mounted).unwrap();
    assert_eq!(storage_stats().segments_decoded - before, replayed);
    assert!(replayed < 1_000 / 64);

    let mut each = Graph::new(Arc::clone(&universe));
    let mut overlapping = Graph::new(Arc::clone(&universe));
    for (k, &n) in mounted.nodes().iter().enumerate() {
        each.adopt_node(n).unwrap();
        if k % 7 == 0 {
            overlapping.adopt_node(n).unwrap();
        }
    }
    overlapping.adopt_graph(&mounted).unwrap();
    let counts = |g: &Graph| {
        let idx = g.index().unwrap();
        let mut labels: Vec<_> = (g.labels().into_iter())
            .map(|l| (g.resolve(l), idx.label_cardinality(l)))
            .collect();
        labels.sort();
        let mut nodes = g.nodes().to_vec();
        nodes.sort();
        (nodes, g.edge_count(), labels)
    };
    assert_eq!(data.nodes(), each.nodes());
    assert_eq!(counts(&data), counts(&each));
    assert_eq!(counts(&overlapping), counts(&each));
    assert_eq!(model_of(&data), model);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Writes a one-node, one-symbol (`l`) store whose node segment is
/// `record`, through the pager, so every page checksum is valid.
fn craft(path: &Path, record: &[u8]) {
    let mut preamble = b"STRUDEL1".to_vec();
    for part in [
        &1u32.to_le_bytes()[..],
        &1u32.to_le_bytes(),
        b"l",
        &1u32.to_le_bytes(),
    ] {
        preamble.extend_from_slice(part);
    }
    let blobs: [&[u8]; 3] = [&preamble, record, &0u32.to_le_bytes()];
    let mut pager = Pager::create(path).unwrap();
    let manifest = |pages: &[Vec<u32>]| {
        let mut m = b"STRUMAN1".to_vec();
        for (k, (blob, pages)) in blobs.iter().zip(pages).enumerate() {
            if k == 1 {
                m.extend_from_slice(&1u32.to_le_bytes()); // one node segment
            }
            m.extend_from_slice(&1u64.to_le_bytes());
            m.extend_from_slice(&(blob.len() as u64).to_le_bytes());
            m.extend_from_slice(&pages[0].to_le_bytes());
            m.extend_from_slice(&(pages.len() as u32).to_le_bytes());
        }
        m.extend_from_slice(&0u32.to_le_bytes()); // no collections
        m
    };
    pager
        .commit_segments(&blobs, Vec::new(), 1, manifest)
        .unwrap();
    Wal::create(&wal_path(path), 1).unwrap();
}

/// A node record: no name, one edge on symbol `sym`, then `value`'s bytes.
fn record(sym: u32, value: &[u8]) -> Vec<u8> {
    let mut r = vec![0];
    r.extend_from_slice(&1u32.to_le_bytes());
    r.extend_from_slice(&sym.to_le_bytes());
    r.extend_from_slice(value);
    r
}

/// Page checksums hold, the records do not: a bad symbol index, a bad node
/// index, invalid UTF-8 in a value or a name. Each fails typed where the
/// image is attached — `open_into`, the first `graph()`, `snapshot()` —
/// and a well-formed record crafted the same way reads back.
#[test]
fn records_that_do_not_read_fail_attach_typed() {
    let _turn = turn();
    let dir = scratch("crafted");
    let path = dir.join("store.pdb");
    let int_one = [&[1u8][..], &1i64.to_le_bytes()].concat(); // tag 1: an integer
    craft(&path, &record(0, &int_one));
    let mut g = Graph::standalone();
    PagedStore::open_into(&path, &mut g).unwrap();
    let l = g.universe().interner().get("l").unwrap();
    assert_eq!(g.reader().out(g.nodes()[0]), &[(l, Value::Int(1))]);

    let bad_utf8 = [&[4u8][..], &2u32.to_le_bytes(), &[0xff, 0xfe]].concat(); // tag 4: text
    let bad_name = [
        &[1u8][..],
        &2u32.to_le_bytes(),
        &[0xc3, 0x28],
        &0u32.to_le_bytes(),
    ]
    .concat();
    let crafted = [
        ("symbol index", record(7, &int_one)),
        (
            "node index",
            record(0, &[&[0u8][..], &5u32.to_le_bytes()].concat()),
        ), // tag 0: a node
        ("UTF-8", record(0, &bad_utf8)),
        ("UTF-8", bad_name),
    ];
    for (what, bytes) in crafted {
        craft(&path, &bytes);
        let typed = |r: Result<(), GraphError>| match r {
            Err(e @ GraphError::StorageCorrupt { .. }) => {
                assert!(e.to_string().contains(what), "{e}")
            }
            other => panic!("{what}: {other:?}"),
        };
        typed(PagedStore::open_into(&path, &mut Graph::standalone()).map(drop));
        // A clean open reads the pages, not the records; what reads them fails.
        let mut store = PagedStore::open(&path).unwrap();
        typed(store.graph().map(drop));
        typed(store.snapshot().map(drop));
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Every single-bit flip of a small image either fails to attach, typed,
/// or attaches a graph every read of which answers without a panic.
#[test]
fn no_read_of_an_attached_image_panics() {
    let _turn = turn();
    let mut image = Vec::new();
    store::save(&source(&mut Lcg(3), 70), &mut image).unwrap();
    for at in 0..image.len() {
        for bit in 0..8 {
            let mut flipped = image.clone();
            flipped[at] ^= 1 << bit;
            let Ok(g) = store::load(flipped) else {
                continue;
            };
            let r = g.reader();
            for &n in g.nodes() {
                let _ = (r.out(n).len(), r.name(n));
            }
            drop(r);
            assert_eq!(g.edges().len(), g.edge_count(), "flip of bit {bit} at {at}");
            assert!(g.index().is_some());
        }
    }
}
