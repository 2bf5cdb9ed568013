//! A lazily built index is the same index.
//!
//! `Graph` keeps its index's counts on every write and builds the extents
//! (label extensions, global value index, reverse adjacency) the first time
//! a lookup needs them. Whenever that first lookup happens — before the
//! first write, somewhere in the middle, after the last, or never until the
//! final inspection — every observable of the index must be what it is when
//! the extents exist from the start and are maintained edge by edge (the
//! only behaviour there used to be), and what `rebuild_index` computes from
//! scratch.
//!
//! A batch is the same writes. The generator also decides, for every run of
//! consecutive node, edge, adopt and collection writes to one graph, whether
//! the run goes through `Graph`'s one-at-a-time entry points or through one
//! `GraphBatch`; whatever it decides, and whenever the extents are first
//! asked for (a batch straddling that moment is ended there, and the rest
//! of the run is a batch over a graph *with* extents), the graphs come out
//! the same — and a batch moves the graph's `cache_stamp` exactly when it
//! changed something.

use proptest::prelude::*;
use std::collections::HashSet;
use std::sync::Arc;
use strudel_graph::graph::Universe;
use strudel_graph::{ddl, store, Graph, GraphBatch, GraphError, Oid, Sym, Value};

const LABELS: [&str; 4] = ["title", "year", "cites", "author"];
const COLLECTIONS: [&str; 2] = ["Papers", "People"];

/// One mutation, decoded against the current state (`who` picks the graph,
/// the next three fields pick nodes, labels and values modulo what exists;
/// the last says, on the first op of a run of batchable writes, whether the
/// run is one batch).
type Op = (u8, u8, u8, u8, u8, bool);

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    let op = (0..9u8, 0..2u8, 0..32u8, 0..4u8, 0..12u8, any::<bool>());
    proptest::collection::vec(op, 1..80)
}

/// The writes a `GraphBatch` offers: new node, add edge (three kinds, so
/// edges dominate), adopt, add to a collection.
fn batchable(kind: u8) -> bool {
    matches!(kind, 0..=3 | 5 | 7)
}

/// Where a batchable write goes.
enum Writer<'a> {
    One(&'a mut Graph),
    /// A batch, and the members its graph has with the batch's writes.
    Batch(GraphBatch<'a>, HashSet<Oid>),
}

impl Writer<'_> {
    fn contains_node(&self, n: Oid) -> bool {
        match self {
            Writer::One(g) => g.contains_node(n),
            Writer::Batch(_, members) => members.contains(&n),
        }
    }

    fn new_node(&mut self) -> Oid {
        match self {
            Writer::One(g) => g.new_node(None),
            Writer::Batch(b, members) => {
                let n = b.new_node(None);
                members.insert(n);
                n
            }
        }
    }

    fn add_edge(&mut self, from: Oid, label: Sym, to: Value) {
        match self {
            Writer::One(g) => g.add_edge(from, label, to),
            Writer::Batch(b, _) => b.add_edge(from, label, to),
        }
        .unwrap()
    }

    fn adopt(&mut self, n: Oid) {
        match self {
            Writer::One(g) => g.adopt_node(n),
            Writer::Batch(b, members) => {
                members.insert(n);
                b.adopt(n)
            }
        }
        .unwrap()
    }

    fn add_to_collection(&mut self, coll: Sym, v: Value) {
        match self {
            Writer::One(g) => g.add_to_collection(coll, v),
            Writer::Batch(b, _) => b.add_to_collection(coll, v),
        };
    }
}

/// Applies one batchable op through `w`, the writer of the graph the op
/// picked; `other` is the universe's other graph.
fn write(w: &mut Writer<'_>, other: &Graph, nodes: &mut Vec<Oid>, op: Op, syms: (Sym, Sym)) {
    let (kind, _, n, _, v, _) = op;
    let node = (!nodes.is_empty()).then(|| nodes[usize::from(n) % nodes.len().max(1)]);
    match (kind, node) {
        (0, _) => nodes.push(w.new_node()),
        (1..=3, Some(n)) if w.contains_node(n) && !other.contains_node(n) => {
            w.add_edge(n, syms.0, value(v, nodes));
        }
        (5, Some(n)) => w.adopt(n),
        (7, _) => w.add_to_collection(syms.1, value(v, nodes)),
        _ => {}
    }
}

/// How much there is of everything a batch can add to: a batch changed
/// something exactly when one of these grew.
fn extent(g: &Graph) -> [usize; 4] {
    let names = g.collection_names();
    let members = names.iter().map(|c| g.collection(*c).unwrap().len());
    [g.node_count(), g.edge_count(), names.len(), members.sum()]
}

fn value(code: u8, nodes: &[Oid]) -> Value {
    match code % 4 {
        0 => Value::Int(i64::from(code / 4)),
        1 => Value::str(["x", "y", "z"][usize::from(code / 4) % 3]),
        _ if nodes.is_empty() => Value::Bool(true),
        _ => Value::Node(nodes[usize::from(code) % nodes.len()]),
    }
}

/// Runs `ops` over two graphs of one universe, forcing both graphs' extents
/// before op number `force_at` (`None`: never). With `batching`, the runs
/// the generator marked go through one `GraphBatch` each; without, every
/// write is one at a time.
///
/// A graph is not told about edges another graph adds to or removes from a
/// node they share, so incremental maintenance is only defined for edits to
/// nodes the editing graph has to itself: an edge op on a shared node is
/// skipped (the counters' behaviour under such foreign edits has its own
/// unit tests in `graph.rs`).
fn run(ops: &[Op], force_at: Option<usize>, batching: bool) -> (Vec<Oid>, [Graph; 2]) {
    let uni = Universe::new();
    let mut graphs = [Graph::new(Arc::clone(&uni)), Graph::new(Arc::clone(&uni))];
    for name in LABELS.iter().chain(&COLLECTIONS) {
        uni.interner().intern(name);
    }
    // (The interner has a lock of its own: fine inside a batch.)
    let syms = |l: u8| {
        let label = uni.interner().intern(LABELS[usize::from(l)]);
        (
            label,
            uni.interner().intern(COLLECTIONS[usize::from(l) % 2]),
        )
    };
    let mut nodes: Vec<Oid> = Vec::new();
    let mut i = 0;
    while i < ops.len() {
        if force_at == Some(i) {
            graphs.iter().for_each(|g| assert!(g.index().is_some()));
        }
        let (kind, who, n, l, v, batch) = ops[i];
        let (who, other) = (usize::from(who), 1 - usize::from(who));
        // The run this op starts: batchable writes to the same graph, up
        // to the op before which the extents are forced.
        let run = ops[i..].iter().zip(i..).take_while(|(op, at)| {
            batchable(op.0) && usize::from(op.1) == who && (*at == i || force_at != Some(*at))
        });
        let run = run.count();
        let (mine, theirs) = match graphs.split_at_mut(1) {
            (a, b) if who == 0 => (&mut a[0], &b[0]),
            (a, b) => (&mut b[0], &a[0]),
        };
        if batching && batch && run > 0 {
            let before = (mine.cache_stamp(), extent(mine));
            let members = mine.nodes().iter().copied().collect();
            let mut w = Writer::Batch(mine.batch(), members);
            for op in &ops[i..i + run] {
                write(&mut w, theirs, &mut nodes, *op, syms(op.3));
            }
            drop(w);
            let changed = extent(mine) != before.1;
            assert_eq!(
                mine.cache_stamp() != before.0,
                changed,
                "stamp moves iff changed"
            );
            i += run;
            continue;
        }
        i += 1;
        if batchable(kind) {
            write(
                &mut Writer::One(mine),
                theirs,
                &mut nodes,
                ops[i - 1],
                syms(l),
            );
            continue;
        }
        let node = (!nodes.is_empty()).then(|| nodes[usize::from(n) % nodes.len().max(1)]);
        let (label, coll) = syms(l);
        let own = |g: &[Graph; 2], n: Oid| g[who].contains_node(n) && !g[other].contains_node(n);
        match (kind, node) {
            (4, Some(n)) if own(&graphs, n) => {
                // Remove an edge that exists (when one does), else probe a
                // missing one.
                let out = graphs[who].out_edges(n);
                let (l, t) = match out.get(usize::from(v) % out.len().max(1)) {
                    Some(edge) => edge.clone(),
                    None => (label, value(v, &nodes)),
                };
                graphs[who].remove_edge(n, l, &t).unwrap();
            }
            (6, Some(n)) => {
                graphs[who].remove_member(n);
            }
            (8, _) => {
                graphs[who].remove_from_collection(coll, &value(v, &nodes));
            }
            _ => {}
        }
    }
    (nodes, graphs)
}

/// Everything the index answers, with the extents as sorted multisets
/// (incremental maintenance lists a label's edges in the order they were
/// written, a one-pass build in member order).
#[derive(PartialEq, Debug)]
struct Observed {
    labels: Vec<Sym>,
    label_count: usize,
    edge_count: (usize, usize),
    per_label: Vec<PerLabel>,
    collections: Vec<Option<usize>>,
    to_value: Vec<Vec<(Oid, Sym)>>,
    to_node: Vec<Vec<(Oid, Sym)>>,
}

/// A label's cardinality (from the index, from the graph), distinct
/// sources, distinct targets, and sorted extension.
type PerLabel = (usize, Option<usize>, usize, usize, Vec<String>);

fn observe(g: &Graph, nodes: &[Oid]) -> Observed {
    let idx = g.index().expect("indexed");
    assert!(g.extents_built());
    let sorted = |hits: &[(Oid, Sym)]| {
        let mut hits = hits.to_vec();
        hits.sort();
        hits
    };
    Observed {
        labels: g.labels(),
        label_count: idx.label_count(),
        edge_count: (g.edge_count(), idx.edge_count()),
        per_label: LABELS
            .iter()
            .map(|l| {
                let l = g.sym(l);
                let mut ext: Vec<String> = idx
                    .edges_with_label(l)
                    .iter()
                    .map(|(from, to)| format!("{from} {to}"))
                    .collect();
                ext.sort();
                (
                    idx.label_cardinality(l),
                    g.label_cardinality(l),
                    idx.label_distinct_sources(l),
                    idx.label_distinct_targets(l),
                    ext,
                )
            })
            .collect(),
        collections: COLLECTIONS
            .iter()
            .map(|c| idx.collection_cardinality(g.sym(c)))
            .collect(),
        to_value: (0..12u8)
            .map(|v| value(v, &[]))
            .map(|v| sorted(idx.edges_to_value(&v)))
            .collect(),
        to_node: nodes
            .iter()
            .map(|n| sorted(idx.edges_to_node(*n)))
            .collect(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn lazily_built_index_equals_maintained_and_rebuilt(ops in arb_ops(), when in 0..4u8) {
        // The first reverse lookup: never, first, middle, last.
        let force_at = [None, Some(0), Some(ops.len() / 2), Some(ops.len() - 1)][usize::from(when)];
        let (nodes, mut lazy) = run(&ops, force_at, true);
        if force_at.is_none() {
            prop_assert!(lazy.iter().all(|g| !g.extents_built()), "nothing asked for the extents");
        }
        let (_, maintained) = run(&ops, Some(0), true);
        for (lazy, maintained) in lazy.iter_mut().zip(&maintained) {
            // Same index as one whose extents saw every write — label order
            // included: it is kept with the counts, not with the extents.
            let seen = observe(lazy, &nodes);
            prop_assert_eq!(&seen, &observe(maintained, &nodes));
            prop_assert_eq!(seen.edge_count.0, seen.edge_count.1);
            // Same index as a rebuild, up to label order: a rebuild meets
            // the labels in member order, maintenance in write order.
            lazy.rebuild_index();
            let mut rebuilt = observe(lazy, &nodes);
            prop_assert_eq!(sorted_syms(&rebuilt.labels), sorted_syms(&seen.labels));
            rebuilt.labels = seen.labels.clone();
            prop_assert_eq!(&rebuilt, &seen);
        }
    }
}

/// What a graph is apart from its index: members, every out-list, the
/// collections and their members — all in order.
fn contents(g: &Graph) -> impl PartialEq + std::fmt::Debug {
    let outs: Vec<_> = g.nodes().iter().map(|n| g.out_edges(*n)).collect();
    let colls: Vec<_> = (g.collection_names().iter())
        .map(|c| (*c, g.collection(*c).unwrap().items().to_vec()))
        .collect();
    (g.nodes().to_vec(), outs, colls)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn batched_writes_equal_one_at_a_time_writes(ops in arb_ops(), when in 0..4u8) {
        let force_at = [None, Some(0), Some(ops.len() / 2), Some(ops.len() - 1)][usize::from(when)];
        let (nodes, batched) = run(&ops, force_at, true);
        let (same_nodes, single) = run(&ops, force_at, false);
        prop_assert_eq!(&nodes, &same_nodes);
        for (batched, single) in batched.iter().zip(&single) {
            prop_assert_eq!(batched.extents_built(), single.extents_built());
            prop_assert_eq!(batched.extents_built(), force_at.is_some());
            prop_assert!(contents(batched) == contents(single), "{batched:?} / {single:?}");
            // Label order, every count and every reverse lookup.
            prop_assert_eq!(observe(batched, &nodes), observe(single, &nodes));
        }
    }
}

/// `edge_count`, the label counts and a from-scratch recount agree.
fn assert_counts_agree(g: &mut Graph) {
    let counted: usize = (g.labels().iter())
        .map(|l| g.label_cardinality(*l).unwrap())
        .sum();
    let written: usize = g.nodes().iter().map(|n| g.out_edges(*n).len()).sum();
    assert_eq!((g.edge_count(), counted), (written, written));
    let labels = sorted_syms(&g.labels());
    g.rebuild_index();
    assert_eq!(
        (g.edge_count(), sorted_syms(&g.labels())),
        (written, labels)
    );
    assert_eq!(g.index().unwrap().edge_count(), written);
}

/// A batch settles on the error path too: what it wrote before the failure
/// is in the graph *and* in the counts.
#[test]
fn a_batch_that_fails_midway_settles_what_it_wrote() {
    let uni = Universe::new();
    let mut data = Graph::new(Arc::clone(&uni));
    let mut site = Graph::new(Arc::clone(&uni));
    let foreign = data.new_node(None);
    let (year, title) = (site.sym("year"), site.sym("title"));
    let written = |site: &mut Graph, fail: &dyn Fn(&mut GraphBatch<'_>) -> GraphError| {
        let stamp = site.cache_stamp();
        let mut b = site.batch();
        let page = b.new_node(Some("Page()"));
        b.add_edge(page, year, Value::Int(1997)).unwrap();
        b.add_edge(page, title, Value::str("t")).unwrap();
        let err = fail(&mut b);
        drop(b);
        assert_ne!(site.cache_stamp(), stamp);
        assert_counts_agree(site);
        err
    };
    let not_a_member = written(&mut site, &|b| {
        b.add_edge(foreign, year, Value::Int(1)).unwrap_err()
    });
    assert_eq!(not_a_member, GraphError::NotAMember(foreign));
    let unknown = written(&mut site, &|b| b.adopt(Oid(9_999)).unwrap_err());
    assert_eq!(unknown, GraphError::UnknownNode(Oid(9_999)));
    assert_eq!((site.node_count(), site.edge_count()), (2, 4));

    // A node record cut off in the middle of the image: the nodes before
    // it are loaded and counted, the error is typed.
    let source = ddl::parse(
        "object a { year 1997 title \"A\" }\n\
         object b { year 1998 title \"B\" cites &a }\n\
         object c { year 1999 }",
    )
    .unwrap();
    let mut image = Vec::new();
    store::save(&source, &mut image).unwrap();
    let cut = image.windows(1).rposition(|w| w == b"B").unwrap();
    let mut partial = Graph::standalone();
    let err = store::load_into(&mut partial, image[..cut].to_vec()).unwrap_err();
    assert!(matches!(err, GraphError::StorageCorrupt { .. }), "{err}");
    assert!(partial.edge_count() >= 2 && partial.edge_count() < source.edge_count());
    assert_counts_agree(&mut partial);
}

fn sorted_syms(labels: &[Sym]) -> Vec<Sym> {
    let mut labels = labels.to_vec();
    labels.sort();
    labels
}
