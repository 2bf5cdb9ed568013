//! Full indexing of schema and data (§2.2).
//!
//! "Without schema information, we fully index both the schema and the data.
//! For example, one index contains the names of all the collections and
//! attributes in the graph; other indexes contain the extensions for each
//! collection and attribute. In addition, indexes on atomic values are global
//! to the graph, not built per collection or attribute."
//!
//! The index has two halves with different upkeep. The *counts* — which
//! labels exist and in what order they first appeared, how many edges carry
//! each, how many edges there are, how large each collection is — are kept on
//! every write: they are what the *schema* queries (`scan all attribute
//! names`) and the cost-based optimizer's cardinality statistics read, and
//! they cost one small-key hash probe per edge. The *extents* are one reverse
//! map, global to the graph as the paper's value indexes are: every edge
//! target, atomic value or node, to the `(from, label)` of the edges onto it.
//! They cost a clone, a hash probe and most of a write's heap traffic per
//! edge, and only reverse lookups read them; they are built in one pass over
//! the member nodes the first time one is asked for
//! ([`crate::graph::Graph::index`]) and maintained edge by edge from then
//! on. A graph that is only ever written and walked forwards (every site
//! graph during a build) never pays for them. The paper's full indexing is
//! preserved — every lookup has the same answer it would have had with the
//! extents kept from the first write; they are just not built before
//! somebody asks. A label's edges are not kept a second time: the one
//! statistic that needs them, a label's distinct endpoints
//! ([`crate::graph::Graph::label_degrees`]), walks the member out-lists.

use crate::fxhash::FxHashMap;
use crate::graph::NodeId;
use crate::symbol::Sym;
use crate::value::Value;
use parking_lot::Mutex;
use std::sync::OnceLock;
use strudel_obs::trace;

/// The complete index set of one graph.
#[derive(Default, Debug)]
pub struct GraphIndex {
    /// Number of edges carrying each label.
    label_card: FxHashMap<Sym, usize>,
    /// Creation order of labels, for deterministic schema scans.
    label_order: Vec<Sym>,
    /// Schema index: collection name → extent cardinality.
    coll_card: FxHashMap<Sym, usize>,
    edge_count: usize,
    /// The reverse map, unset until the first lookup that needs it.
    extents: OnceLock<Extents>,
    /// Degree statistics per label (see [`LabelDegreeStats`]), materialized
    /// lazily: a label's tallies are first built by walking the member
    /// out-lists when the planner asks for them, and kept up to date under
    /// add/remove from then on (so there are none before there are
    /// extents). Behind a mutex so the read-side accessor can materialize
    /// on a shared reference.
    degree: Mutex<FxHashMap<Sym, LabelDegreeStats>>,
}

/// The reverse map: every edge target to the `(from, label)` of each edge
/// onto it.
#[derive(Default, Debug)]
struct Extents {
    to: FxHashMap<Value, Vec<(NodeId, Sym)>>,
}

impl Extents {
    fn add(&mut self, from: NodeId, label: Sym, to: &Value) {
        self.to.entry(to.clone()).or_default().push((from, label));
    }

    /// Removes one occurrence of an edge, reporting whether the map held it.
    fn remove(&mut self, from: NodeId, label: Sym, to: &Value) -> bool {
        let Some(entries) = self.to.get_mut(to) else {
            return false;
        };
        let Some(pos) = entries.iter().position(|e| *e == (from, label)) else {
            return false;
        };
        entries.remove(pos);
        if entries.is_empty() {
            self.to.remove(to);
        }
        true
    }
}

/// Distinct-endpoint tallies for one label. `srcs.len()` is the label's
/// distinct-source count (`cardinality / distinct_sources` is the average
/// out-degree *among nodes that actually carry the label* — the statistic
/// the cost-based planner uses instead of a whole-graph average degree);
/// `tgts.len()` is the distinct-target count behind the reverse-probe
/// fan-in estimate. Targets are keyed by a 64-bit content fingerprint, not
/// the value itself: maintaining the tally never clones a value or compares
/// string keys, and a (vanishingly unlikely) fingerprint collision merges
/// two targets in the *statistic* only, never in query results.
#[derive(Default, Debug)]
struct LabelDegreeStats {
    srcs: FxHashMap<NodeId, u32>,
    tgts: FxHashMap<u64, u32>,
}

/// The strict-equality content fingerprint used by [`LabelDegreeStats`].
fn value_fingerprint(v: &Value) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = crate::fxhash::FxHasher::default();
    v.hash(&mut h);
    h.finish()
}

/// Decrements a tally, dropping the key at zero.
fn untally<K: std::hash::Hash + Eq>(tally: &mut FxHashMap<K, u32>, key: K) {
    if let Some(n) = tally.get_mut(&key) {
        *n -= 1;
        if *n == 0 {
            tally.remove(&key);
        }
    }
}

impl GraphIndex {
    /// The counts' half of recording `n` edges that carry `label` (a
    /// [`crate::graph::GraphBatch`] tallies a label's edges and comes here
    /// once; the extents, if they exist, are the caller's to keep).
    pub(crate) fn count_label(&mut self, label: Sym, n: usize) {
        match self.label_card.entry(label) {
            std::collections::hash_map::Entry::Occupied(mut e) => *e.get_mut() += n,
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(n);
                self.label_order.push(label);
            }
        }
        self.edge_count += n;
    }

    /// Every label with its edge count, in creation order.
    pub(crate) fn label_counts(&self) -> impl Iterator<Item = (Sym, usize)> + '_ {
        (self.label_order.iter()).map(|l| (*l, self.label_card[l]))
    }

    /// Records one edge: in the counts always, in the extents (and degree
    /// tallies) only once they exist.
    pub(crate) fn index_edge(&mut self, from: NodeId, label: Sym, to: &Value) {
        self.count_label(label, 1);
        if let Some(ext) = self.extents.get_mut() {
            ext.add(from, label, to);
            if let Some(deg) = self.degree.get_mut().get_mut(&label) {
                *deg.srcs.entry(from).or_insert(0) += 1;
                *deg.tgts.entry(value_fingerprint(to)).or_insert(0) += 1;
            }
        }
    }

    /// Removes one occurrence of an edge. The mirror of
    /// [`GraphIndex::index_edge`]; when a label's last edge goes the label is
    /// also dropped from the schema scan order, so that
    /// [`crate::graph::Graph::labels`] lists only labels some edge carries.
    ///
    /// The counts *saturate*: a graph sharing its universe is not told about
    /// edges another graph adds to or removes from a common node, so
    /// [`crate::graph::Graph::remove_member`] can present more edges than
    /// this index ever counted. Tracking exactly which edges were counted
    /// would take a per-graph copy of every member's edge list — the extents,
    /// which this index exists to avoid building — and the counts only feed
    /// the planner's estimates, so a label's count stops at zero (an edge of
    /// a label with no counted edges left is not subtracted anywhere:
    /// `edge_count` stays the sum of the label counts) and
    /// [`crate::graph::Graph::rebuild_index`] is the exact recount.
    pub(crate) fn unindex_edge(&mut self, from: NodeId, label: Sym, to: &Value) {
        if let Some(card) = self.label_card.get_mut(&label) {
            *card -= 1;
            if *card == 0 {
                self.label_card.remove(&label);
                self.label_order.retain(|l| *l != label);
            }
            self.edge_count -= 1;
        }
        let Some(ext) = self.extents.get_mut() else {
            return;
        };
        if ext.remove(from, label, to) {
            let degree = self.degree.get_mut();
            if let Some(deg) = degree.get_mut(&label) {
                untally(&mut deg.srcs, from);
                untally(&mut deg.tgts, value_fingerprint(to));
                if deg.srcs.is_empty() && deg.tgts.is_empty() {
                    degree.remove(&label);
                }
            }
        }
    }

    /// Records (or updates) a collection's cardinality in the schema index.
    pub(crate) fn index_collection(&mut self, name: Sym, cardinality: usize) {
        self.coll_card.insert(name, cardinality);
    }

    /// Whether the extents have been built (by a lookup that needed them or
    /// by [`crate::graph::Graph::rebuild_index`]).
    pub(crate) fn extents_built(&self) -> bool {
        self.extents.get().is_some()
    }

    /// Builds the extents unless they exist. `each_member` feeds the builder
    /// every member node with its out-edges. The one builder: first use and
    /// `rebuild_index` both come here.
    pub(crate) fn ensure_extents(&self, each_member: impl FnOnce(&mut EachEdges)) {
        self.extents.get_or_init(|| {
            let mut tspan = trace::span("graph.extents", trace::Layer::Store);
            let mut ext = Extents::default();
            each_member(&mut |from, out| {
                for (label, to) in out {
                    ext.add(from, *label, to);
                }
            });
            if tspan.is_live() {
                tspan.attr_u64("edges", self.edge_count as u64);
                tspan.attr_u64("values", ext.to.len() as u64);
            }
            ext
        });
    }

    fn extents(&self) -> &Extents {
        self.extents
            .get()
            .expect("Graph::index builds the extents before handing the index out")
    }

    /// All labels appearing in the graph, in first-appearance order
    /// (the schema-scan physical operator reads this).
    pub fn labels(&self) -> Vec<Sym> {
        self.label_order.clone()
    }

    /// Every edge pointing at `v`, node or atomic value: the reverse access
    /// path of a backward step, one probe of the global reverse map.
    pub fn edges_to(&self, v: &Value) -> &[(NodeId, Sym)] {
        let ext = &self.extents().to;
        ext.get(v).map(Vec::as_slice).unwrap_or(&[])
    }

    // ---- statistics for the cost-based optimizer (§2.4, [FLO 97]) ----

    /// Number of edges carrying `label`.
    pub fn label_cardinality(&self, label: Sym) -> usize {
        self.label_card.get(&label).copied().unwrap_or(0)
    }

    /// Cardinality of a collection extent, if known.
    pub fn collection_cardinality(&self, name: Sym) -> Option<usize> {
        self.coll_card.get(&name).copied()
    }

    /// Total number of indexed edges.
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Number of distinct labels (the "schema size" of the graph).
    pub fn label_count(&self) -> usize {
        self.label_order.len()
    }

    /// A label's distinct sources and distinct targets, from its degree
    /// tallies; `each_member` feeds every member node with its out-edges
    /// when the tallies are first built. The extents must exist, so that
    /// [`GraphIndex::index_edge`] keeps the tallies current from here on.
    pub(crate) fn label_degrees(
        &self,
        label: Sym,
        each_member: impl FnOnce(&mut EachEdges),
    ) -> (usize, usize) {
        debug_assert!(self.extents_built());
        let mut deg = self.degree.lock();
        let d = deg.entry(label).or_insert_with(|| {
            let mut d = LabelDegreeStats::default();
            each_member(&mut |from, out| {
                for (_, to) in out.iter().filter(|(l, _)| *l == label) {
                    *d.srcs.entry(from).or_insert(0) += 1;
                    *d.tgts.entry(value_fingerprint(to)).or_insert(0) += 1;
                }
            });
            d
        });
        (d.srcs.len(), d.tgts.len())
    }
}

/// The visitor a member walk feeds: one member node with its out-edges.
pub(crate) type EachEdges<'a> = dyn FnMut(NodeId, &[(Sym, Value)]) + 'a;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;

    fn indexed_graph() -> Graph {
        let mut g = Graph::standalone();
        let a = g.new_node(Some("a"));
        let b = g.new_node(Some("b"));
        g.add_edge_str(a, "knows", Value::Node(b)).unwrap();
        g.add_edge_str(a, "year", 1997i64).unwrap();
        g.add_edge_str(b, "year", 1997i64).unwrap();
        g.add_edge_str(b, "year", 1998i64).unwrap();
        g.add_to_collection_str("People", Value::Node(a));
        g
    }

    #[test]
    fn global_value_index_spans_labels_and_nodes() {
        let g = indexed_graph();
        let hits = g.index().edges_to(&Value::Int(1997));
        assert_eq!(hits.len(), 2);
        let froms: Vec<_> = hits.iter().map(|(f, _)| *f).collect();
        assert!(froms.contains(&g.nodes()[0]) && froms.contains(&g.nodes()[1]));
    }

    #[test]
    fn reverse_index_tracks_node_targets() {
        let g = indexed_graph();
        let b = g.nodes()[1];
        let back = g.index().edges_to(&Value::Node(b));
        assert_eq!(back.len(), 1);
        assert_eq!(back[0].0, g.nodes()[0]);
    }

    #[test]
    fn schema_index_holds_collections_and_labels() {
        let g = indexed_graph();
        let idx = g.index();
        assert_eq!(idx.label_count(), 2);
        let people = g.universe().interner().get("People").unwrap();
        assert_eq!(idx.collection_cardinality(people), Some(1));
        assert_eq!(idx.collection_cardinality(Sym(9999)), None);
    }

    #[test]
    fn missing_label_has_empty_extension() {
        let g = indexed_graph();
        assert_eq!(g.index().label_cardinality(Sym(4242)), 0);
        assert_eq!(g.label_degrees(Sym(4242)), (0, 0));
        assert!(g.index().edges_to(&Value::Int(0)).is_empty());
        assert!(g.index().edges_to(&Value::Node(NodeId(4242))).is_empty());
    }

    #[test]
    fn degree_statistics_track_distinct_endpoints() {
        let g = indexed_graph();
        let year = g.universe().interner().get("year").unwrap();
        // Three `year` edges from two sources onto two distinct values.
        assert_eq!(g.index().label_cardinality(year), 3);
        assert_eq!(g.label_degrees(year), (2, 2));
        let knows = g.universe().interner().get("knows").unwrap();
        assert_eq!(g.label_degrees(knows), (1, 1));
    }

    #[test]
    fn degree_statistics_survive_removal_and_rebuild() {
        let mut g = indexed_graph();
        let b = g.nodes()[1];
        let year = g.universe().interner().get("year").unwrap();
        assert_eq!(g.label_degrees(year), (2, 2));
        g.remove_edge_str(b, "year", &Value::Int(1998)).unwrap();
        assert_eq!(g.label_degrees(year), (2, 1));
        g.remove_edge_str(b, "year", &Value::Int(1997)).unwrap();
        assert_eq!(g.label_degrees(year).0, 1);
        g.rebuild_index();
        assert_eq!(g.label_degrees(year), (1, 1));
    }

    #[test]
    fn rebuild_matches_incremental_maintenance() {
        let mut g = indexed_graph();
        let before = g.index().edges_to(&Value::Int(1997)).to_vec();
        g.rebuild_index();
        assert_eq!(g.index().edges_to(&Value::Int(1997)), before.as_slice());
        assert_eq!(g.index().edge_count(), 4);
    }
}
