//! A graph attached to a stored image is the graph the image holds.
//!
//! A node's 64-node segment is decoded the first time the node is read or
//! written; a store's working graph reads and checks the segment's pages
//! then too, where an image `load` attaches, a snapshot and `open_into`
//! read and check every record as they attach. Whatever order reads,
//! writes, whole-graph scans, commits, checkpoints, snapshots and reopens
//! come in, every answer is the one an eagerly built reference gives, a
//! segment is decoded at most once — also under concurrent readers — and
//! decoding one moves no cache stamp. Records that do not read fail typed
//! — at the attach, or at the working graph's first read of their segment,
//! which then reads as empty and fails `Graph::check` — and nothing read
//! afterwards can panic.
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
/// graphs filled by `materialize_into` and a graph attached with `load`,
/// against one reference; with commits, checkpoints, fills and reopens
/// between.
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
        let mut filled: Vec<(Graph, Model)> = Vec::new();
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
                9 => {
                    let mut g = Graph::standalone();
                    store.materialize_into(&mut g).unwrap();
                    filled.push((g, model.clone()));
                }
                _ => store = PagedStore::open(&path).unwrap(),
            }
        }
        assert_eq!(
            model_of(store.graph().unwrap()),
            model,
            "seed {seed}: store"
        );
        assert_eq!(model_of(&plain), model, "seed {seed}: load");
        for (g, at) in &filled {
            assert_eq!(&model_of(g), at, "seed {seed}: materialize_into");
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

/// Writes a store of `nodes` unnamed nodes, each with one edge — node `i`
/// has `l` → `i + 1` — and all in a collection `All`, through the pager so
/// that every page checksum holds: a `STRUMAN2` manifest, its node segments
/// with their page lists and tallies. `bad` puts other bytes in place of
/// one node's record, the manifest tallying what the record it replaces
/// holds.
fn craft(path: &Path, nodes: usize, bad: Option<(usize, &[u8])>) {
    let mut preamble = b"STRUDEL1".to_vec();
    for part in [&1u32.to_le_bytes()[..], &1u32.to_le_bytes(), b"l"] {
        preamble.extend_from_slice(part);
    }
    preamble.extend_from_slice(&(nodes as u32).to_le_bytes());
    let records: Vec<Vec<u8>> = (0..nodes)
        .map(|i| match bad {
            Some((at, bytes)) if at == i => bytes.to_vec(),
            _ => record(0, &int(i as i64 + 1)),
        })
        .collect();
    let segments: Vec<Vec<u8>> = records.chunks(64).map(|c| c.concat()).collect();
    let mut all = [
        &3u32.to_le_bytes()[..],
        b"All",
        &(nodes as u32).to_le_bytes(),
    ]
    .concat();
    for i in 0..nodes as u32 {
        all.push(0); // tag 0: a node
        all.extend_from_slice(&i.to_le_bytes());
    }
    let count = 1u32.to_le_bytes();
    let blobs: Vec<&[u8]> = (std::iter::once(&preamble[..]))
        .chain(segments.iter().map(|s| &s[..]))
        .chain([&count[..], &all[..]])
        .collect();
    let manifest = |pages: &[Vec<u32>]| {
        let mut m = b"STRUMAN2".to_vec();
        let u32s = |m: &mut Vec<u8>, values: &[u32]| {
            values
                .iter()
                .for_each(|v| m.extend_from_slice(&v.to_le_bytes()))
        };
        let chained = |m: &mut Vec<u8>, k: usize| {
            m.extend_from_slice(&1u64.to_le_bytes());
            m.extend_from_slice(&(blobs[k].len() as u64).to_le_bytes());
            u32s(m, &[pages[k][0], pages[k].len() as u32]);
        };
        chained(&mut m, 0);
        u32s(&mut m, &[segments.len() as u32]);
        for (j, seg) in segments.iter().enumerate() {
            let edges = records.chunks(64).nth(j).unwrap().len() as u32;
            m.extend_from_slice(&1u64.to_le_bytes());
            m.extend_from_slice(&(seg.len() as u64).to_le_bytes());
            u32s(&mut m, &[pages[1 + j].len() as u32]);
            u32s(&mut m, &pages[1 + j]);
            u32s(&mut m, &[edges, 1, 0, edges]); // one label, symbol 0
        }
        chained(&mut m, blobs.len() - 2);
        u32s(&mut m, &[1]);
        m.extend_from_slice(&[&3u32.to_le_bytes()[..], b"All"].concat());
        chained(&mut m, blobs.len() - 1);
        Ok(m)
    };
    let mut pager = Pager::create(path).unwrap();
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

/// An integer's value bytes (tag 1).
fn int(i: i64) -> Vec<u8> {
    [&[1u8][..], &i.to_le_bytes()].concat()
}

/// Records whose pages check but which do not read, each with the words
/// its error names: a bad symbol index, a bad node index, invalid UTF-8 in
/// a value or a name, and a record that reads but holds other edges than
/// the manifest tallies.
fn bad_records() -> Vec<(&'static str, Vec<u8>)> {
    let bad_utf8 = [&[4u8][..], &2u32.to_le_bytes(), &[0xff, 0xfe]].concat(); // tag 4: text
    let bad_name = [
        &[1u8][..],
        &2u32.to_le_bytes(),
        &[0xc3, 0x28],
        &0u32.to_le_bytes(),
    ]
    .concat();
    let two_edges = [
        &[0u8][..],
        &2u32.to_le_bytes(),
        &0u32.to_le_bytes(),
        &int(1),
    ]
    .concat();
    let two_edges = [&two_edges[..], &0u32.to_le_bytes(), &int(2)].concat();
    vec![
        ("symbol index", record(7, &int(1))),
        (
            "node index",
            record(0, &[&[0u8][..], &500u32.to_le_bytes()].concat()),
        ), // tag 0: a node
        ("UTF-8", record(0, &bad_utf8)),
        ("UTF-8", bad_name),
        ("tally", two_edges),
    ]
}

/// `Err(StorageCorrupt)` whose message names `what`.
fn assert_typed<T>(r: Result<T, GraphError>, what: &str) {
    match r.map(drop) {
        Err(e @ GraphError::StorageCorrupt { .. }) => {
            assert!(e.to_string().contains(what), "{what}: {e}")
        }
        other => panic!("{what}: {other:?}"),
    }
}

/// Page checksums hold, the records do not. A graph that outlives its
/// store — `open_into`, `materialize_into` — reads every segment as it is
/// attached, and fails there, typed; a clean open reads no node segment,
/// and the working graph's first read of the bad one leaves it empty and
/// fails `check()`, typed. A well-formed record crafted the same way reads
/// back.
#[test]
fn records_that_do_not_read_fail_attach_typed() {
    let _turn = turn();
    let dir = scratch("crafted");
    let path = dir.join("store.pdb");
    craft(&path, 1, None);
    let mut g = Graph::standalone();
    PagedStore::open_into(&path, &mut g).unwrap();
    let l = g.universe().interner().get("l").unwrap();
    assert_eq!(g.reader().out(g.nodes()[0]), &[(l, Value::Int(1))]);

    for (what, bytes) in bad_records() {
        craft(&path, 1, Some((0, &bytes)));
        assert_typed(PagedStore::open_into(&path, &mut Graph::standalone()), what);
        let mut store = PagedStore::open(&path).unwrap();
        let graph = store.graph().unwrap();
        graph.check().unwrap();
        assert!(graph.reader().out(graph.nodes()[0]).is_empty(), "{what}");
        assert_typed(graph.check(), what);
        assert_typed(store.materialize_into(&mut Graph::standalone()), what);
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// One bad record in one segment of a six-segment store. The store opens,
/// and the other segments read back; the first read of the bad one leaves
/// its nodes empty, counts it once and fails `check()` typed, naming the
/// cause — and so do a save, a commit that touches it (rolled back) and a
/// checkpoint, so the emptied segment is never written. A store that never
/// reads it commits, checkpoints (recycling freed pages) and compacts, and
/// a segment untouched since the open still reads back.
#[test]
fn a_segment_that_does_not_read_fails_typed_at_its_first_read() {
    let _turn = turn();
    let dir = scratch("bad_segment");
    let path = dir.join("store.pdb");
    let (nodes, bad) = (5 * 64 + 10, 2 * 64 + 5);
    let reads_back = |g: &Graph, segment: usize| {
        let l = g.universe().interner().get("l").unwrap();
        for i in (segment * 64..(segment + 1) * 64).filter(|&i| i < nodes) {
            let want = [(l, Value::Int(i as i64 + 1))];
            assert_eq!(g.reader().out(g.nodes()[i]), &want, "node {i}");
        }
    };
    for (what, bytes) in bad_records() {
        craft(&path, nodes, Some((bad, &bytes)));
        let corrupt = || storage_stats().segments_corrupt;
        let before = corrupt();
        let mut store = PagedStore::open(&path).unwrap();
        let graph = store.graph().unwrap();
        for segment in [0, 1, 3, 4, 5] {
            reads_back(graph, segment);
        }
        graph.check().unwrap();
        assert_eq!(graph.reader().out(graph.nodes()[bad]), &[], "{what}");
        assert_typed(graph.check(), what);
        assert_eq!(graph.reader().out(graph.nodes()[bad - 5]), &[], "{what}");
        assert_eq!(corrupt() - before, 1, "{what}: counted once");
        assert_eq!(graph.edges().len(), nodes - 64, "{what}");
        assert_typed(store::save(graph, &mut Vec::new()), what);
        assert_typed(store.checkpoint(), what);

        // A fresh store's commit is the first read of the segment.
        let mut store = PagedStore::open(&path).unwrap();
        let touch = DeltaOp::AddEdge {
            node: bad as u32,
            label: "l".into(),
            value: WireValue::Int(0),
        };
        let logged = store.wal_size();
        assert_typed(store.commit_ops(&[touch]), what);
        assert_eq!(store.revision(), 1, "{what}: rolled back");
        assert_eq!(store.wal_size(), logged, "{what}: nothing logged");
    }

    let mut store = PagedStore::open(&path).unwrap();
    for round in 0..2 {
        let note = DeltaOp::AddEdge {
            node: 0,
            label: "note".into(),
            value: WireValue::Str(format!("round {round}")),
        };
        store.commit_ops(&[note]).unwrap();
        store.checkpoint().unwrap();
    }
    assert!(store.freelist_len() > 0, "the freed pages are recycled");
    reads_back(store.graph().unwrap(), 4);
    store.compact().unwrap();
    let graph = store.graph().unwrap();
    reads_back(graph, 5);
    graph.check().unwrap();
    assert_eq!(graph.reader().out(graph.nodes()[bad]), &[]);
    assert_typed(graph.check(), "tally");
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
