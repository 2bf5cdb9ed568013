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

use proptest::prelude::*;
use std::sync::Arc;
use strudel_graph::graph::Universe;
use strudel_graph::{Graph, Oid, Sym, Value};

const LABELS: [&str; 4] = ["title", "year", "cites", "author"];
const COLLECTIONS: [&str; 2] = ["Papers", "People"];

/// One mutation, decoded against the current state (`who` picks the graph,
/// the other fields pick nodes, labels and values modulo what exists).
type Op = (u8, u8, u8, u8, u8);

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec((0..9u8, 0..2u8, 0..32u8, 0..4u8, 0..12u8), 1..80)
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
/// before op number `force_at` (`None`: never).
///
/// A graph is not told about edges another graph adds to or removes from a
/// node they share, so incremental maintenance is only defined for edits to
/// nodes the editing graph has to itself: an edge op on a shared node is
/// skipped (the counters' behaviour under such foreign edits has its own
/// unit tests in `graph.rs`).
fn run(ops: &[Op], force_at: Option<usize>) -> (Vec<Oid>, [Graph; 2]) {
    let uni = Universe::new();
    let mut graphs = [Graph::new(Arc::clone(&uni)), Graph::new(Arc::clone(&uni))];
    for name in LABELS.iter().chain(&COLLECTIONS) {
        uni.interner().intern(name);
    }
    let mut nodes: Vec<Oid> = Vec::new();
    for (i, &(kind, who, n, l, v)) in ops.iter().enumerate() {
        if force_at == Some(i) {
            graphs.iter().for_each(|g| assert!(g.index().is_some()));
        }
        let (who, other) = (usize::from(who), 1 - usize::from(who));
        let node = (!nodes.is_empty()).then(|| nodes[usize::from(n) % nodes.len().max(1)]);
        let label = graphs[who].sym(LABELS[usize::from(l)]);
        let coll = graphs[who].sym(COLLECTIONS[usize::from(l) % 2]);
        let own = |g: &[Graph; 2], n: Oid| g[who].contains_node(n) && !g[other].contains_node(n);
        match (kind, node) {
            (0, _) => nodes.push(graphs[who].new_node(None)),
            (1..=3, Some(n)) if own(&graphs, n) => {
                graphs[who].add_edge(n, label, value(v, &nodes)).unwrap();
            }
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
            (5, Some(n)) => graphs[who].adopt_node(n).unwrap(),
            (6, Some(n)) => {
                graphs[who].remove_member(n);
            }
            (7, _) => {
                graphs[who].add_to_collection(coll, value(v, &nodes));
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
        let (nodes, mut lazy) = run(&ops, force_at);
        if force_at.is_none() {
            prop_assert!(lazy.iter().all(|g| !g.extents_built()), "nothing asked for the extents");
        }
        let (_, maintained) = run(&ops, Some(0));
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

fn sorted_syms(labels: &[Sym]) -> Vec<Sym> {
    let mut labels = labels.to_vec();
    labels.sort();
    labels
}
