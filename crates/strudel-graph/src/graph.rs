//! The labeled directed graph: STRUDEL's only data structure.
//!
//! Both the raw data served by a site (the *data graph*) and the generated
//! site structure (the *site graph*) are represented the same way (§2.1).
//! Node storage lives in a [`Universe`] shared by all graphs of a
//! [`crate::Database`], so graphs may share objects: a site graph may link to
//! nodes of the data graph it was derived from without copying them.
//!
//! A [`Graph`] is a *membership view* over the universe — the set of nodes it
//! contains — plus its own named collections (the query entry points) and,
//! optionally, a full set of indexes over its schema and data ([`crate::index`]).
//!
//! A graph is written two ways. One at a time — [`Graph::new_node`],
//! [`Graph::add_edge`], [`Graph::adopt_node`], [`Graph::add_to_collection`]:
//! each call takes the universe's lock for itself, moves the revisions and
//! brings the counts up to date, which is what a wrapper or a transaction
//! applying a handful of ops wants. Or in bulk, through a [`GraphBatch`] —
//! what decoding a stored image, parsing DDL and a block of LINK
//! construction do: the lock is taken once, held for the batch's lifetime
//! (so its thread may not take it again — the lock rule in the type's
//! documentation), and revisions, edge count, label counts and collection
//! cardinalities are settled once, when the batch is dropped. Both ways go
//! through the same membership, counting and extents code, and a graph
//! cannot tell afterwards which one wrote it
//! (`tests/lazy_index.rs`).
//!
//! A stored image is not written node by node at all: a batch *attaches*
//! it (`GraphBatch::attach`) — its nodes become members at once, their
//! edges counted, and each node's name and out-edges are built by the
//! store's codec with the rest of its 64-node segment the first time
//! anything reads or writes the node — from bytes checked at attach, or
//! read from the page file and checked then. A segment build changes
//! nothing a reader can observe (no revision moves), so every accessor
//! behaves as if the whole image had been decoded up front; a segment
//! whose bytes fail their check is built empty, and the universe keeps
//! the error for [`Graph::check`], so that no read panics and no one acts
//! on the emptied nodes unawares.

use crate::error::{GraphError, Result};
use crate::fxhash::{FxHashMap, FxHashSet};
use crate::index::GraphIndex;
use crate::symbol::{Interner, Sym};
use crate::value::Value;
use parking_lot::{Mutex, RwLock};
use std::cell::Cell;
use std::collections::hash_map::Entry;
use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Once, OnceLock};

/// Allocator for globally unique graph identities (see [`Graph::cache_stamp`]).
static GRAPH_IDS: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// Address of the universe this thread has a [`GraphBatch`] open on
    /// (0: none), for [`Universe::assert_no_batch`].
    static BATCH_ON: Cell<usize> = const { Cell::new(0) };
}

/// An identity + version fingerprint of a graph's queryable state. Two equal
/// stamps guarantee the same graph object with the same nodes, edges,
/// collections, and index state (and an unchanged universe, so edges added
/// to shared nodes through *other* graphs are covered too). Query-result
/// caches key on this to self-invalidate when data changes.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct CacheStamp {
    graph_id: u64,
    graph_revision: u64,
    universe_revision: u64,
}

impl CacheStamp {
    /// Whether two stamps name the same graph object in the same local
    /// state, ignoring the universe revision. Caches whose contents depend
    /// only on the graph's *own* members, edges, collections and index flag
    /// (the query planner's statistics, for example) validate with this:
    /// construction allocating output nodes in the shared universe must not
    /// evict them mid-build.
    pub fn same_graph(&self, other: &CacheStamp) -> bool {
        self.graph_id == other.graph_id && self.graph_revision == other.graph_revision
    }
}

/// A unique object identifier. Oids are allocated by a [`Universe`] and are
/// unique across every graph of a database.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct NodeId(pub u32);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "&{}", self.0)
    }
}

/// A directed, labeled edge.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Edge {
    /// Source node.
    pub from: NodeId,
    /// Edge label (an interned attribute name).
    pub label: Sym,
    /// Target object: a node or an atomic value.
    pub to: Value,
}

/// A node's name and out-edges.
#[derive(Default)]
pub(crate) struct NodeData {
    /// Human-readable provenance: Skolem term (`YearPage(1997)`) or wrapper
    /// object name (`pub1`). Used for display and deterministic file naming.
    pub(crate) name: Option<Arc<str>>,
    pub(crate) out: Vec<(Sym, Value)>,
}

/// A node: its data, set when the node is created — or, for a node of an
/// attached image, by the build of its segment, which a reader under the
/// universe's read lock can run.
struct NodeSlot(OnceLock<NodeData>);

impl NodeSlot {
    fn new(data: NodeData) -> Self {
        NodeSlot(OnceLock::from(data))
    }
}

/// Decodes an attached image's nodes, a segment at a time: the store's
/// codec, which reads and checks a segment's bytes before it decodes them.
pub(crate) trait SegmentSource: Send + Sync {
    /// Hands `put` each node of segment `seg` in order, node references
    /// resolved against the attached nodes, which start at `first`. Fails,
    /// typed, when the segment's bytes do not read or do not check.
    fn decode(&self, seg: usize, first: NodeId, put: &mut dyn FnMut(NodeData)) -> Result<()>;
}

/// The nodes of one attached image still to be built: slots `first..end`,
/// in segments of `per`, each built once on its first read.
struct Attached {
    first: NodeId,
    end: u32,
    per: usize,
    built: Box<[Once]>,
    /// Segments not built yet; the last build drops `source` and with it
    /// the image's bytes.
    left: AtomicUsize,
    source: Mutex<Option<Arc<dyn SegmentSource>>>,
}

impl Attached {
    /// Builds segment `seg` into `slots`. A segment whose source fails
    /// leaves its nodes empty and the failure in `fault`, the first one
    /// there staying: a reader never panics, and [`Graph::check`] fails.
    fn build(&self, seg: usize, slots: &[NodeSlot], fault: &OnceLock<GraphError>) {
        self.built[seg].call_once(|| {
            let source = (self.source.lock().clone())
                .expect("the source stays until the last segment is built, and this one is not");
            let start = self.first.0 as usize + seg * self.per;
            let end = (start + self.per).min(self.end as usize);
            let mut at = start;
            let decoded = source.decode(seg, self.first, &mut |data| {
                if at < end {
                    let set = slots[at].0.set(data);
                    debug_assert!(set.is_ok(), "only the segment's one build fills its slots");
                }
                at += 1;
            });
            if let Err(e) = decoded {
                let _ = fault.set(e);
            }
            for slot in &slots[at.min(end)..end] {
                let _ = slot.0.set(NodeData::default());
            }
            if self.left.fetch_sub(1, Ordering::AcqRel) == 1 {
                self.source.lock().take();
            }
        });
    }
}

/// The node slots of a universe, with the images attached to some of them.
#[derive(Default)]
struct Arena {
    slots: Vec<NodeSlot>,
    /// In oid order: an attachment covers slots after the previous one's.
    attached: Vec<Attached>,
    /// The first segment build that failed: sticky, see [`Graph::check`].
    fault: OnceLock<GraphError>,
}

impl Arena {
    /// Node `n`'s data, its segment built first if it is an attached
    /// node's that no one has read yet.
    #[inline]
    fn data(&self, n: NodeId) -> Option<&NodeData> {
        let slot = self.slots.get(n.0 as usize)?;
        Some(slot.0.get().unwrap_or_else(|| self.build(n)))
    }

    #[cold]
    #[inline(never)]
    fn build(&self, n: NodeId) -> &NodeData {
        let at = (self.attached.iter().rev())
            .find(|a| a.first <= n)
            .expect("a slot without data is an attached node's");
        at.build(
            (n.0 - at.first.0) as usize / at.per,
            &self.slots,
            &self.fault,
        );
        self.slots[n.0 as usize]
            .0
            .get()
            .expect("a segment's build fills each of its slots")
    }

    fn data_mut(&mut self, n: NodeId) -> Option<&mut NodeData> {
        self.data(n)?;
        self.slots[n.0 as usize].0.get_mut()
    }

    /// The out-edges of `n` (none for an unknown node).
    #[inline]
    fn out(&self, n: NodeId) -> &[(Sym, Value)] {
        self.data(n).map_or(&[], |d| &d.out)
    }
}

/// The shared object space of a database: the interner for labels and the
/// arena of all nodes with their outgoing edges.
///
/// Edges are stored in the universe rather than per graph so that a node
/// shared between a data graph and a site graph presents the same attributes
/// in both.
pub struct Universe {
    interner: Interner,
    nodes: RwLock<Arena>,
    /// Bumped on every node or edge mutation anywhere in the universe.
    revision: AtomicU64,
}

impl Universe {
    /// Creates an empty universe.
    pub fn new() -> Arc<Self> {
        Arc::new(Universe::default())
    }

    /// The shared label/collection-name interner.
    pub fn interner(&self) -> &Interner {
        &self.interner
    }

    /// The universe's mutation counter (see [`CacheStamp`]).
    pub fn revision(&self) -> u64 {
        self.revision.load(Ordering::Acquire)
    }

    /// The node arena for reading. Every lock the universe takes goes
    /// through here or [`Universe::write`]: the lock is not reentrant, so a
    /// thread with a [`GraphBatch`] open on this universe would wait for
    /// itself forever — debug builds panic instead.
    fn read(&self) -> parking_lot::RwLockReadGuard<'_, Arena> {
        self.assert_no_batch();
        self.nodes.read()
    }

    fn write(&self) -> parking_lot::RwLockWriteGuard<'_, Arena> {
        self.assert_no_batch();
        self.nodes.write()
    }

    fn assert_no_batch(&self) {
        debug_assert!(
            BATCH_ON.with(Cell::get) != self as *const Universe as usize,
            "a GraphBatch on this universe is open on this thread: taking the \
             universe lock now would deadlock — go through the batch"
        );
    }

    /// Allocates a fresh node, optionally with a provenance name.
    pub fn create_node(&self, name: Option<&str>) -> NodeId {
        self.revision.fetch_add(1, Ordering::AcqRel);
        push_slot(&mut self.write().slots, name)
    }

    /// Total number of nodes ever allocated.
    pub fn node_count(&self) -> usize {
        self.read().slots.len()
    }

    /// The provenance name of a node, if any.
    pub fn node_name(&self, n: NodeId) -> Option<Arc<str>> {
        self.read().data(n).and_then(|d| d.name.clone())
    }

    fn push_edge(&self, from: NodeId, label: Sym, to: Value) -> Result<()> {
        self.revision.fetch_add(1, Ordering::AcqRel);
        let mut nodes = self.write();
        let data = nodes.data_mut(from).ok_or(GraphError::UnknownNode(from))?;
        data.out.push((label, to));
        Ok(())
    }

    /// Removes one occurrence of `from --label--> to`, preserving the order
    /// of the remaining edges. Returns whether an edge was removed.
    fn pop_edge(&self, from: NodeId, label: Sym, to: &Value) -> Result<bool> {
        self.revision.fetch_add(1, Ordering::AcqRel);
        let mut nodes = self.write();
        let data = nodes.data_mut(from).ok_or(GraphError::UnknownNode(from))?;
        match data.out.iter().position(|(l, t)| *l == label && t == to) {
            Some(pos) => {
                data.out.remove(pos);
                Ok(true)
            }
            None => Ok(false),
        }
    }

    /// Clones the outgoing edges of `n`. Prefer [`Graph::reader`] in loops.
    pub fn out_edges(&self, n: NodeId) -> Vec<(Sym, Value)> {
        self.read().out(n).to_vec()
    }
}

impl Default for Universe {
    fn default() -> Self {
        Universe {
            interner: Interner::new(),
            nodes: RwLock::new(Arena::default()),
            revision: AtomicU64::new(0),
        }
    }
}

impl fmt::Debug for Universe {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Universe")
            .field("nodes", &self.node_count())
            .finish()
    }
}

/// Appends a node to the arena: the one place oids are allocated.
fn push_slot(nodes: &mut Vec<NodeSlot>, name: Option<&str>) -> NodeId {
    let id = NodeId(u32::try_from(nodes.len()).expect("oid space exhausted"));
    nodes.push(NodeSlot::new(NodeData {
        name: name.map(Arc::from),
        out: Vec::new(),
    }));
    id
}

/// A named collection: an insertion-ordered set of objects. Its node
/// members are kept in a set of oids, apart from its atomic values: hashing
/// an oid is a fraction of hashing and cloning a [`Value`].
#[derive(Default, Clone, Debug)]
pub struct Collection {
    items: Vec<Value>,
    nodes: FxHashSet<NodeId>,
    atoms: FxHashSet<Value>,
}

impl Collection {
    /// The members in insertion order.
    pub fn items(&self) -> &[Value] {
        &self.items
    }

    /// Whether `v` is a member.
    pub fn contains(&self, v: &Value) -> bool {
        match v {
            Value::Node(n) => self.nodes.contains(n),
            v => self.atoms.contains(v),
        }
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the collection is empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    fn insert(&mut self, v: Value) -> bool {
        let new = match &v {
            Value::Node(n) => self.nodes.insert(*n),
            v => self.atoms.insert(v.clone()),
        };
        if new {
            self.items.push(v);
        }
        new
    }

    fn extend(&mut self, items: Vec<Value>) -> bool {
        let nodes = items.iter().filter(|v| matches!(v, Value::Node(_))).count();
        self.items.reserve(items.len());
        self.nodes.reserve(nodes);
        self.atoms.reserve(items.len() - nodes);
        let before = self.items.len();
        for v in items {
            self.insert(v);
        }
        self.items.len() > before
    }

    fn remove(&mut self, v: &Value) -> bool {
        let removed = match v {
            Value::Node(n) => self.nodes.remove(n),
            v => self.atoms.remove(v),
        };
        if removed {
            if let Some(pos) = self.items.iter().position(|x| x == v) {
                self.items.remove(pos);
            }
            true
        } else {
            false
        }
    }
}

/// A labeled directed graph over a shared [`Universe`].
pub struct Graph {
    universe: Arc<Universe>,
    own: Own,
}

/// What a graph has to itself, beside the universe it shares: a
/// [`GraphBatch`] borrows this next to the universe's write guard.
struct Own {
    members: FxHashSet<NodeId>,
    member_list: Vec<NodeId>,
    collections: FxHashMap<Sym, Collection>,
    collection_order: Vec<Sym>,
    index: Option<GraphIndex>,
    edge_count: usize,
    /// Globally unique identity of this graph object (see [`CacheStamp`]).
    id: u64,
    /// Bumped on every membership/collection/index mutation of this graph.
    revision: u64,
}

impl Graph {
    /// Creates an empty, indexed graph in `universe`.
    pub fn new(universe: Arc<Universe>) -> Self {
        Graph {
            universe,
            own: Own {
                members: FxHashSet::default(),
                member_list: Vec::new(),
                collections: FxHashMap::default(),
                collection_order: Vec::new(),
                index: Some(GraphIndex::default()),
                edge_count: 0,
                id: GRAPH_IDS.fetch_add(1, Ordering::Relaxed),
                revision: 0,
            },
        }
    }

    /// The current identity + version fingerprint of this graph's queryable
    /// state. Any mutation of the graph (or of its universe, through any
    /// graph sharing it) yields a different stamp.
    pub fn cache_stamp(&self) -> CacheStamp {
        CacheStamp {
            graph_id: self.own.id,
            graph_revision: self.own.revision,
            universe_revision: self.universe.revision(),
        }
    }

    /// Creates an empty graph in a fresh private universe. Convenient for
    /// tests and standalone use.
    pub fn standalone() -> Self {
        Graph::new(Universe::new())
    }

    /// The universe this graph lives in.
    pub fn universe(&self) -> &Arc<Universe> {
        &self.universe
    }

    /// Interns a label or collection name.
    pub fn sym(&self, s: &str) -> Sym {
        self.universe.interner.intern(s)
    }

    /// Resolves a symbol to its string.
    pub fn resolve(&self, sym: Sym) -> Arc<str> {
        self.universe.interner.resolve(sym)
    }

    /// Disables or enables index maintenance. Disabling drops the current
    /// index; re-enabling rebuilds it from scratch. Tests evaluate on the
    /// unindexed path as the reference for the indexed one (DESIGN.md §6).
    pub fn set_indexing(&mut self, enabled: bool) {
        self.own.revision += 1;
        match (enabled, self.own.index.is_some()) {
            (true, false) => self.rebuild_index(),
            (false, true) => self.own.index = None,
            _ => {}
        }
    }

    /// Whether this graph maintains indexes.
    pub fn is_indexed(&self) -> bool {
        self.own.index.is_some()
    }

    /// The graph's index, if indexing is enabled — the *full* index: the
    /// extents are built here, in one pass over the member nodes, if no
    /// earlier call built them (see [`crate::index`]). The build takes the
    /// universe's read lock, so do not call this while holding a
    /// [`GraphReader`] of the same universe: a recursive read may deadlock
    /// behind a waiting writer. Planning statistics that only need the
    /// counts — [`Graph::label_cardinality`], [`Graph::label_count`],
    /// [`Graph::labels`], [`Graph::edge_count`] — do not come through here.
    pub fn index(&self) -> Option<&GraphIndex> {
        let idx = self.own.index.as_ref()?;
        idx.ensure_extents(|add| {
            let nodes = self.universe.read();
            for &n in &self.own.member_list {
                add(n, nodes.out(n));
            }
        });
        Some(idx)
    }

    /// Whether the index's extents have been built — by a reverse lookup,
    /// a degree statistic or [`Graph::rebuild_index`]. `false` on a graph
    /// that has only been written, planned against and walked forwards.
    pub fn extents_built(&self) -> bool {
        self.own
            .index
            .as_ref()
            .is_some_and(GraphIndex::extents_built)
    }

    /// Number of edges carrying `label`, from the index's counts (`None`
    /// when unindexed). Never builds the extents.
    pub fn label_cardinality(&self, label: Sym) -> Option<usize> {
        self.own.index.as_ref().map(|i| i.label_cardinality(label))
    }

    /// Number of distinct labels, from the index's counts (`None` when
    /// unindexed). Never builds the extents.
    pub fn label_count(&self) -> Option<usize> {
        self.own.index.as_ref().map(GraphIndex::label_count)
    }

    /// Rebuilds all indexes from the current data: an exact recount of
    /// every per-graph counter (which between rebuilds only saturate, see
    /// [`Graph::remove_member`]), then the extents.
    pub fn rebuild_index(&mut self) {
        self.own.revision += 1;
        let mut idx = GraphIndex::default();
        {
            let nodes = self.universe.read();
            for &n in &self.own.member_list {
                for (label, to) in nodes.out(n) {
                    idx.index_edge(n, *label, to);
                }
            }
        }
        self.own.edge_count = idx.edge_count();
        for (&name, coll) in &self.own.collections {
            idx.index_collection(name, coll.len());
        }
        self.own.index = Some(idx);
        self.index();
    }

    // ---- nodes ----

    /// Creates a fresh node in this graph.
    pub fn new_node(&mut self, name: Option<&str>) -> NodeId {
        self.own.revision += 1;
        let id = self.universe.create_node(name);
        self.own.join(id);
        id
    }

    /// Adopts an existing node of the universe into this graph, making its
    /// current edges visible (and indexed) here. Used when a site graph
    /// references data-graph nodes, and by query composition.
    pub fn adopt_node(&mut self, n: NodeId) -> Result<()> {
        self.own.revision += 1;
        let nodes = self.universe.read();
        let out = &nodes.data(n).ok_or(GraphError::UnknownNode(n))?.out;
        if self.own.join(n) {
            self.own.edge_count += out.len();
            if let Some(idx) = &mut self.own.index {
                for (label, to) in out {
                    idx.index_edge(n, *label, to);
                }
            }
        }
        Ok(())
    }

    /// Adopts every member of `src`, in its order, as [`Graph::adopt_node`]
    /// each — but, while this graph's extents are unbuilt, counts the edges
    /// per label from `src`'s index instead of from each node's out-list,
    /// so no segment of an attached image is built (labels new here follow
    /// `src`'s order). Only the out-lists of nodes already members are read.
    pub fn adopt_graph(&mut self, src: &Graph) -> Result<()> {
        let counts = match (&self.own.index, &src.own.index) {
            (Some(idx), Some(from))
                if !idx.extents_built() && Arc::ptr_eq(&self.universe, &src.universe) =>
            {
                from.label_counts()
            }
            _ => {
                return (src.nodes().iter()).try_for_each(|&n| self.adopt_node(n));
            }
        };
        self.own.revision += 1;
        let mut counts: Vec<(Sym, usize)> = counts.collect();
        let mut edges = src.own.edge_count;
        let nodes = self.universe.read();
        for &n in &src.own.member_list {
            if self.own.join(n) {
                continue;
            }
            // Already counted here: its edges come off `src`'s counts.
            for (label, _) in nodes.out(n) {
                edges = edges.saturating_sub(1);
                if let Some((_, c)) = counts.iter_mut().find(|(l, _)| l == label) {
                    *c = c.saturating_sub(1);
                }
            }
        }
        self.own.edge_count += edges;
        let idx = self.own.index.as_mut().expect("matched above");
        for (label, n) in counts.into_iter().filter(|(_, n)| *n > 0) {
            idx.count_label(label, n);
        }
        Ok(())
    }

    /// Whether `n` is a member of this graph.
    pub fn contains_node(&self, n: NodeId) -> bool {
        self.own.members.contains(&n)
    }

    /// Member nodes in insertion order.
    pub fn nodes(&self) -> &[NodeId] {
        &self.own.member_list
    }

    /// Number of member nodes.
    pub fn node_count(&self) -> usize {
        self.own.member_list.len()
    }

    /// Number of edges out of member nodes.
    pub fn edge_count(&self) -> usize {
        self.own.edge_count
    }

    /// The provenance name of a node.
    pub fn node_name(&self, n: NodeId) -> Option<Arc<str>> {
        self.universe.node_name(n)
    }

    // ---- edges ----

    /// Adds an edge `from --label--> to`. `from` must be a member node.
    pub fn add_edge(&mut self, from: NodeId, label: Sym, to: Value) -> Result<()> {
        self.own.revision += 1;
        self.own.member(from)?;
        self.universe.push_edge(from, label, to.clone())?;
        self.own.edge_count += 1;
        if let Some(idx) = &mut self.own.index {
            idx.index_edge(from, label, &to);
        }
        Ok(())
    }

    /// Convenience: adds an edge with a string label.
    pub fn add_edge_str(&mut self, from: NodeId, label: &str, to: impl Into<Value>) -> Result<()> {
        let l = self.sym(label);
        self.add_edge(from, l, to.into())
    }

    /// Removes one occurrence of the edge `from --label--> to`. `from` must
    /// be a member node. Returns whether an edge was actually removed
    /// (set semantics: removing an absent edge is a no-op, not an error).
    pub fn remove_edge(&mut self, from: NodeId, label: Sym, to: &Value) -> Result<bool> {
        self.own.revision += 1;
        self.own.member(from)?;
        let removed = self.universe.pop_edge(from, label, to)?;
        if removed {
            self.own.edge_count = self.own.edge_count.saturating_sub(1);
            if let Some(idx) = &mut self.own.index {
                idx.unindex_edge(from, label, to);
            }
        }
        Ok(removed)
    }

    /// Convenience: removes an edge by string label. An un-interned label
    /// means no such edge exists anywhere, so this returns `Ok(false)`.
    pub fn remove_edge_str(&mut self, from: NodeId, label: &str, to: &Value) -> Result<bool> {
        match self.universe.interner.get(label) {
            Some(l) => self.remove_edge(from, l, to),
            None => Ok(false),
        }
    }

    /// Whether the edge `from --label--> to` is present (on a member node).
    pub fn has_edge(&self, from: NodeId, label: Sym, to: &Value) -> bool {
        if !self.own.members.contains(&from) {
            return false;
        }
        let nodes = self.universe.read();
        nodes.out(from).iter().any(|(l, t)| *l == label && t == to)
    }

    /// Removes `n` from this graph's membership (the node itself — and edges
    /// *into* it from other members — stay in the universe; its outgoing
    /// edges stop counting toward this graph). Returns whether `n` was a
    /// member. The mirror of [`Graph::adopt_node`].
    ///
    /// The edge counters *saturate*: another graph of the universe may have
    /// added edges to `n` since this one counted it (this graph is not
    /// told), so the node can leave with more edges than it brought. The
    /// counters only feed the planner's estimates and capacity hints, so
    /// they stop at zero rather than track per-node what was counted;
    /// [`Graph::rebuild_index`] recounts exactly.
    pub fn remove_member(&mut self, n: NodeId) -> bool {
        self.own.revision += 1;
        if !self.own.members.remove(&n) {
            return false;
        }
        self.own.member_list.retain(|m| *m != n);
        let nodes = self.universe.read();
        let out = nodes.out(n);
        self.own.edge_count = self.own.edge_count.saturating_sub(out.len());
        if let Some(idx) = &mut self.own.index {
            for (label, to) in out {
                idx.unindex_edge(n, *label, to);
            }
        }
        true
    }

    /// Whether every segment of an attached image built so far in this
    /// graph's universe read and checked. The first that did not — its
    /// nodes then read as empty — fails this call and every later one,
    /// typed: a stored graph whose segments are read on first touch is
    /// checked here by whatever must not act on a wrong graph (a commit, a
    /// checkpoint, a save, a page evaluated for a cache).
    pub fn check(&self) -> Result<()> {
        match self.universe.read().fault.get() {
            Some(e) => Err(e.clone()),
            None => Ok(()),
        }
    }

    /// Clones the outgoing edges of `n`. For bulk traversal use [`Graph::reader`].
    pub fn out_edges(&self, n: NodeId) -> Vec<(Sym, Value)> {
        self.universe.out_edges(n)
    }

    /// Iterates all edges of the graph (cloned), in deterministic order.
    pub fn edges(&self) -> Vec<Edge> {
        let nodes = self.universe.read();
        // Every segment is built before the vector is allocated: the peak is
        // the graph and the vector, not also the bytes the builds free.
        for &n in &self.own.member_list {
            nodes.data(n);
        }
        let mut out = Vec::with_capacity(self.own.edge_count);
        for &n in &self.own.member_list {
            for (label, to) in nodes.out(n) {
                out.push(Edge {
                    from: n,
                    label: *label,
                    to: to.clone(),
                });
            }
        }
        out
    }

    /// A read guard giving borrowed, allocation-free access to edges.
    pub fn reader(&self) -> GraphReader<'_> {
        GraphReader {
            graph: self,
            nodes: self.universe.read(),
        }
    }

    // ---- collections ----

    /// Creates (or gets) a collection by name and returns its symbol.
    pub fn ensure_collection(&mut self, name: &str) -> Sym {
        self.own.revision += 1;
        let sym = self.sym(name);
        self.own.ensure_collection(sym);
        sym
    }

    /// Adds `v` to the named collection, creating the collection if needed.
    /// Returns `true` if the value was newly inserted.
    pub fn add_to_collection(&mut self, name: Sym, v: Value) -> bool {
        self.own.revision += 1;
        let inserted = self.own.collect(name, v);
        self.own.index_collection(name);
        inserted
    }

    /// Convenience: adds to a collection by string name.
    pub fn add_to_collection_str(&mut self, name: &str, v: impl Into<Value>) -> bool {
        let sym = self.sym(name);
        self.add_to_collection(sym, v.into())
    }

    /// Removes `v` from the named collection. Returns whether it was a
    /// member. The (empty) collection itself stays registered.
    pub fn remove_from_collection(&mut self, name: Sym, v: &Value) -> bool {
        self.own.revision += 1;
        let Some(coll) = self.own.collections.get_mut(&name) else {
            return false;
        };
        let removed = coll.remove(v);
        if removed {
            if let Some(idx) = &mut self.own.index {
                let len = self.own.collections[&name].len();
                idx.index_collection(name, len);
            }
        }
        removed
    }

    /// Convenience: removes from a collection by string name.
    pub fn remove_from_collection_str(&mut self, name: &str, v: &Value) -> bool {
        match self.universe.interner.get(name) {
            Some(sym) => self.remove_from_collection(sym, v),
            None => false,
        }
    }

    /// Looks up a collection by symbol.
    pub fn collection(&self, name: Sym) -> Option<&Collection> {
        self.own.collections.get(&name)
    }

    /// Looks up a collection by string name.
    pub fn collection_str(&self, name: &str) -> Option<&Collection> {
        let sym = self.universe.interner.get(name)?;
        self.own.collections.get(&sym)
    }

    /// All collection names, in creation order.
    pub fn collection_names(&self) -> &[Sym] {
        &self.own.collection_order
    }

    // ---- schema queries (the §2.2 schema index fallbacks) ----

    /// All distinct edge labels of the graph. Uses the schema index when
    /// available, otherwise scans.
    pub fn labels(&self) -> Vec<Sym> {
        match &self.own.index {
            Some(idx) => idx.labels(),
            None => self.scan_labels(&self.universe.read()),
        }
    }

    fn scan_labels(&self, nodes: &Arena) -> Vec<Sym> {
        let mut seen = FxHashSet::default();
        let mut out = Vec::new();
        for &n in &self.own.member_list {
            for (label, _) in nodes.out(n) {
                if seen.insert(*label) {
                    out.push(*label);
                }
            }
        }
        out
    }
}

impl Own {
    /// Only a member node can be written to.
    fn member(&self, n: NodeId) -> Result<()> {
        match self.members.contains(&n) {
            true => Ok(()),
            false => Err(GraphError::NotAMember(n)),
        }
    }

    /// Makes `n` a member; whether it was not one already.
    fn join(&mut self, n: NodeId) -> bool {
        let joined = self.members.insert(n);
        if joined {
            self.member_list.push(n);
        }
        joined
    }

    /// Registers the collection `name`; whether it was not there already.
    fn ensure_collection(&mut self, name: Sym) -> bool {
        let Entry::Vacant(new) = self.collections.entry(name) else {
            return false;
        };
        new.insert(Collection::default());
        self.collection_order.push(name);
        self.index_collection(name);
        true
    }

    /// Adds `v` to the collection `name`, registered on first use; whether
    /// `v` was not in it already. The schema index's cardinality is the
    /// caller's to bring up to date ([`Own::index_collection`]).
    fn collect(&mut self, name: Sym, v: Value) -> bool {
        self.ensure_collection(name);
        let coll = self.collections.get_mut(&name);
        coll.expect("ensured above").insert(v)
    }

    /// Brings the schema index's cardinality of `name` up to date.
    fn index_collection(&mut self, name: Sym) {
        if let Some(idx) = &mut self.index {
            idx.index_collection(name, self.collections[&name].len());
        }
    }
}

/// The bulk writer: everything an image decode, a DDL parse or a block of
/// LINK construction does to a graph, under **one** hold of the universe's
/// write lock and one settlement.
///
/// [`Graph::add_edge`] and its siblings pay per call for what a bulk load
/// needs once: the lock, a bump of both revisions, a membership probe, a
/// hash probe into the label counts. A batch takes the lock when it is
/// opened ([`Graph::batch`]), checks membership once per run of edges out
/// of one node, tallies labels in an array, and *settles* when it is
/// dropped — on the error path too, so edges written before a failure are
/// counted: if anything changed, `Graph::revision` and
/// `Universe::revision` move once (before the lock is released, so no
/// reader can see the new edges under an old [`CacheStamp`]), the edge
/// count rises by the edges written, the label counts are merged into the
/// index in first-appearance order (exactly the order one-at-a-time writes
/// would have left) and the touched collections' cardinalities are
/// recorded. A graph whose extents are already built has every edge
/// indexed as it is written instead, as [`Graph::add_edge`] does.
///
/// **Lock rule.** While a batch is open, its thread must not take the
/// universe's lock any other way — not through another graph of the same
/// universe ([`Graph::reader`], [`Graph::index`], [`Graph::out_edges`],
/// [`Graph::adopt_node`], …) nor through the [`Universe`] itself: the lock
/// is not reentrant and the thread would wait for itself. The borrow
/// checker rules out the batch's own graph; for the rest, debug builds
/// panic where a release build would hang:
///
/// ```should_panic
/// use strudel_graph::graph::{Graph, Universe};
/// let universe = Universe::new();
/// let mut site = Graph::new(universe.clone());
/// let batch = site.batch();
/// # if !cfg!(debug_assertions) { panic!("(a release build would hang on the next line)") }
/// universe.node_count(); // debug builds: panics; release builds: deadlocks
/// # drop(batch);
/// ```
pub struct GraphBatch<'g> {
    universe: &'g Universe,
    nodes: parking_lot::RwLockWriteGuard<'g, Arena>,
    own: &'g mut Own,
    /// The node the last edge left: membership is checked once per run.
    run: Option<NodeId>,
    tally: Tally,
    /// Collections whose cardinality is owed to the schema index.
    collected: Vec<Sym>,
    changed: bool,
    /// What `BATCH_ON` held when this batch opened.
    outer_batch: usize,
}

/// What a batch owes the graph's counts for the edges it has written.
#[derive(Default)]
struct Tally {
    /// Whether the index has its extents, so that edges are indexed as
    /// they are written rather than tallied.
    extents: bool,
    /// Edges written or adopted, owed to the graph's edge count.
    edges: usize,
    /// Edges per label (by symbol index) owed to the index's counts, and
    /// those labels in first-appearance order.
    per_label: Vec<usize>,
    seen: Vec<Sym>,
}

impl Tally {
    /// One more edge: indexed now if the extents exist, tallied for the
    /// settlement if only the counts do.
    #[inline]
    fn edge(&mut self, index: &mut Option<GraphIndex>, from: NodeId, label: Sym, to: &Value) {
        match index {
            Some(idx) if self.extents => {
                self.edges += 1;
                idx.index_edge(from, label, to);
            }
            _ => self.count(index.is_some(), label, 1),
        }
    }

    /// `n` more edges carrying `label`, for the counts only.
    #[inline]
    fn count(&mut self, indexed: bool, label: Sym, n: usize) {
        self.edges += n;
        if !indexed || n == 0 {
            return;
        }
        if label.index() >= self.per_label.len() {
            self.per_label.resize(label.index() + 1, 0);
        }
        if self.per_label[label.index()] == 0 {
            self.seen.push(label);
        }
        self.per_label[label.index()] += n;
    }
}

impl Graph {
    /// Opens a [`GraphBatch`] on this graph, taking the universe's write
    /// lock until the batch is dropped.
    pub fn batch(&mut self) -> GraphBatch<'_> {
        let universe: &Universe = &self.universe;
        let nodes = universe.write();
        GraphBatch {
            universe,
            nodes,
            tally: Tally {
                extents: self.own.index.as_ref().is_some_and(|i| i.extents_built()),
                ..Tally::default()
            },
            own: &mut self.own,
            run: None,
            collected: Vec::new(),
            changed: false,
            outer_batch: BATCH_ON.with(|b| b.replace(universe as *const Universe as usize)),
        }
    }
}

impl GraphBatch<'_> {
    /// Interns a label or collection name (the interner has its own lock).
    pub fn sym(&self, s: &str) -> Sym {
        self.universe.interner.intern(s)
    }

    /// Creates a fresh member node.
    pub fn new_node(&mut self, name: Option<&str>) -> NodeId {
        let id = push_slot(&mut self.nodes.slots, name);
        self.own.join(id);
        self.changed = true;
        id
    }

    /// Attaches an image's nodes: `nodes` fresh member nodes with
    /// consecutive oids, of which the first `pending` are `source`'s to
    /// build, `per` to a segment, when one of a segment's nodes is first
    /// read or written (the rest start empty). `labels` are the counts of
    /// the pending nodes' edges, per label in first-appearance order, which
    /// the settlement owes the index — unless the extents exist, which then
    /// index every edge now. Returns the first oid.
    pub(crate) fn attach(
        &mut self,
        nodes: usize,
        pending: usize,
        per: usize,
        source: Arc<dyn SegmentSource>,
        labels: impl IntoIterator<Item = (Sym, usize)>,
    ) -> NodeId {
        let start = self.nodes.slots.len();
        let end = u32::try_from(start + nodes).expect("oid space exhausted");
        let first = NodeId(start as u32);
        let slots = &mut self.nodes.slots;
        slots.extend((0..pending).map(|_| NodeSlot(OnceLock::new())));
        slots.extend((pending..nodes).map(|_| NodeSlot::new(NodeData::default())));
        self.own.members.extend((first.0..end).map(NodeId));
        self.own.member_list.extend((first.0..end).map(NodeId));
        self.changed |= nodes > 0;
        if pending > 0 {
            let segments = pending.div_ceil(per);
            self.nodes.attached.push(Attached {
                first,
                end: first.0 + pending as u32,
                per,
                built: (0..segments).map(|_| Once::new()).collect(),
                left: AtomicUsize::new(segments),
                source: Mutex::new(Some(source)),
            });
        }
        if self.tally.extents {
            for n in (first.0..first.0 + pending as u32).map(NodeId) {
                for (label, to) in self.nodes.out(n) {
                    self.tally.edge(&mut self.own.index, n, *label, to);
                }
            }
        } else {
            let indexed = self.own.index.is_some();
            for (label, n) in labels {
                self.tally.count(indexed, label, n);
            }
        }
        first
    }

    /// Starts (or continues) a run of writes to the member node `n`.
    #[inline]
    fn enter(&mut self, n: NodeId) -> Result<()> {
        if self.run != Some(n) {
            self.own.member(n)?;
            self.run = Some(n);
        }
        Ok(())
    }

    /// Adds the edge `from --label--> to`; `from` must be a member node.
    #[inline]
    pub fn add_edge(&mut self, from: NodeId, label: Sym, to: Value) -> Result<()> {
        self.enter(from)?;
        let data = (self.nodes.data_mut(from)).ok_or(GraphError::UnknownNode(from))?;
        self.changed = true;
        self.tally.edge(&mut self.own.index, from, label, &to);
        data.out.push((label, to));
        Ok(())
    }

    /// Adopts an existing node of the universe, as [`Graph::adopt_node`].
    pub fn adopt(&mut self, n: NodeId) -> Result<()> {
        let out = &self.nodes.data(n).ok_or(GraphError::UnknownNode(n))?.out;
        if self.own.join(n) {
            self.changed = true;
            for (label, to) in out {
                self.tally.edge(&mut self.own.index, n, *label, to);
            }
        }
        Ok(())
    }

    /// Creates (or gets) a collection by name, as [`Graph::ensure_collection`].
    pub fn ensure_collection(&mut self, name: &str) -> Sym {
        let sym = self.sym(name);
        self.changed |= self.own.ensure_collection(sym);
        sym
    }

    /// Adds `v` to the named collection, as [`Graph::add_to_collection`].
    pub fn add_to_collection(&mut self, name: Sym, v: Value) -> bool {
        let inserted = self.own.collect(name, v);
        self.collected(name, inserted);
        inserted
    }

    /// Adds each of `items`, in order, to the named collection (created if
    /// needed), as [`GraphBatch::add_to_collection`] does one at a time but
    /// with the collection looked up once and its sets grown once. Returns
    /// whether any item was new.
    pub(crate) fn extend_collection(&mut self, name: Sym, items: Vec<Value>) -> bool {
        self.changed |= self.own.ensure_collection(name);
        let coll = self.own.collections.get_mut(&name);
        let inserted = coll.expect("ensured above").extend(items);
        self.collected(name, inserted);
        inserted
    }

    /// Owes the schema index the cardinality of `name` if `inserted`.
    fn collected(&mut self, name: Sym, inserted: bool) {
        if inserted {
            self.changed = true;
            if !self.collected.contains(&name) {
                self.collected.push(name);
            }
        }
    }
}

impl Drop for GraphBatch<'_> {
    /// The settlement (see the type's documentation). Runs while the write
    /// guard is still held: fields are dropped after this returns.
    fn drop(&mut self) {
        BATCH_ON.with(|b| b.set(self.outer_batch));
        if !self.changed {
            return;
        }
        self.own.revision += 1;
        self.universe.revision.fetch_add(1, Ordering::AcqRel);
        self.own.edge_count += self.tally.edges;
        if let Some(idx) = &mut self.own.index {
            for &label in &self.tally.seen {
                idx.count_label(label, self.tally.per_label[label.index()]);
            }
        }
        for &name in &self.collected {
            self.own.index_collection(name);
        }
    }
}

impl fmt::Debug for Graph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Graph")
            .field("nodes", &self.node_count())
            .field("edges", &self.own.edge_count)
            .field("collections", &self.own.collection_order.len())
            .field("indexed", &self.own.index.is_some())
            .finish()
    }
}

/// Borrowed, lock-held access to a graph's edges for traversal-heavy code
/// (the query evaluator, the HTML generator). Holding a `GraphReader` blocks
/// writers to the universe; drop it before mutating.
pub struct GraphReader<'g> {
    graph: &'g Graph,
    nodes: parking_lot::RwLockReadGuard<'g, Arena>,
}

impl<'g> GraphReader<'g> {
    /// The outgoing edges of `n`, borrowed.
    #[inline]
    pub fn out(&self, n: NodeId) -> &[(Sym, Value)] {
        self.nodes.out(n)
    }

    /// The values of attribute `label` on node `n`, in insertion order.
    pub fn attr_values<'a>(
        &'a self,
        n: NodeId,
        label: Sym,
    ) -> impl Iterator<Item = &'a Value> + 'a {
        self.out(n)
            .iter()
            .filter(move |(l, _)| *l == label)
            .map(|(_, v)| v)
    }

    /// The first value of attribute `label` on node `n`.
    pub fn attr(&self, n: NodeId, label: Sym) -> Option<&Value> {
        self.attr_values(n, label).next()
    }

    /// Graph membership test.
    #[inline]
    pub fn contains(&self, n: NodeId) -> bool {
        self.graph.contains_node(n)
    }

    /// The provenance name of `n`.
    pub fn name(&self, n: NodeId) -> Option<&str> {
        self.nodes.data(n).and_then(|d| d.name.as_deref())
    }

    /// The underlying graph.
    pub fn graph(&self) -> &'g Graph {
        self.graph
    }

    /// [`Graph::labels`] through the lock this reader already holds (the
    /// unindexed scan there takes it again, which a holder must not do).
    pub fn labels(&self) -> Vec<Sym> {
        match &self.graph.own.index {
            Some(idx) => idx.labels(),
            None => self.graph.scan_labels(&self.nodes),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Graph {
        let mut g = Graph::standalone();
        let pubs = g.ensure_collection("Publications");
        let p1 = g.new_node(Some("pub1"));
        let p2 = g.new_node(Some("pub2"));
        g.add_to_collection(pubs, Value::Node(p1));
        g.add_to_collection(pubs, Value::Node(p2));
        g.add_edge_str(p1, "title", "Specifying Representations")
            .unwrap();
        g.add_edge_str(p1, "year", 1997i64).unwrap();
        g.add_edge_str(p1, "author", "Norman Ramsey").unwrap();
        g.add_edge_str(p1, "author", "Mary Fernandez").unwrap();
        g.add_edge_str(p2, "title", "Optimizing Regular").unwrap();
        g.add_edge_str(p2, "year", 1998i64).unwrap();
        g
    }

    #[test]
    fn nodes_and_edges_accumulate() {
        let g = small();
        assert_eq!(g.node_count(), 2);
        assert_eq!(g.edge_count(), 6);
        assert_eq!(g.edges().len(), 6);
    }

    #[test]
    fn collections_deduplicate() {
        let mut g = small();
        let n = g.nodes()[0];
        let c = g.ensure_collection("Publications");
        assert!(!g.add_to_collection(c, Value::Node(n)));
        assert_eq!(g.collection(c).unwrap().len(), 2);
    }

    #[test]
    fn multi_valued_attributes_preserve_order() {
        let g = small();
        let n = g.nodes()[0];
        let author = g.universe().interner().get("author").unwrap();
        let r = g.reader();
        let authors: Vec<String> = r.attr_values(n, author).map(|v| v.to_string()).collect();
        assert_eq!(authors, vec!["\"Norman Ramsey\"", "\"Mary Fernandez\""]);
    }

    #[test]
    fn irregular_schema_is_allowed() {
        // pub1 has `author`, pub2 does not — no error, just absent.
        let g = small();
        let n2 = g.nodes()[1];
        let author = g.universe().interner().get("author").unwrap();
        assert!(g.reader().attr(n2, author).is_none());
    }

    #[test]
    fn add_edge_to_non_member_fails() {
        let mut g = Graph::standalone();
        let other = g.universe().create_node(None); // allocated but never joined
        let l = g.sym("x");
        assert!(matches!(
            g.add_edge(other, l, Value::Int(1)),
            Err(GraphError::NotAMember(_))
        ));
    }

    #[test]
    fn shared_universe_allows_cross_graph_references() {
        let uni = Universe::new();
        let mut data = Graph::new(Arc::clone(&uni));
        let mut site = Graph::new(Arc::clone(&uni));
        let d = data.new_node(Some("article"));
        data.add_edge_str(d, "headline", "News!").unwrap();
        let s = site.new_node(Some("Page()"));
        site.add_edge_str(s, "Story", Value::Node(d)).unwrap();
        // The site graph can adopt the data node and see its attributes.
        site.adopt_node(d).unwrap();
        let headline = uni.interner().get("headline").unwrap();
        assert_eq!(site.reader().attr(d, headline), Some(&Value::str("News!")));
    }

    #[test]
    fn adopt_is_idempotent() {
        let uni = Universe::new();
        let mut a = Graph::new(Arc::clone(&uni));
        let n = a.new_node(None);
        a.add_edge_str(n, "k", 1i64).unwrap();
        let mut b = Graph::new(Arc::clone(&uni));
        b.adopt_node(n).unwrap();
        b.adopt_node(n).unwrap();
        assert_eq!(b.node_count(), 1);
        assert_eq!(b.edge_count(), 1);
    }

    #[test]
    fn adopt_unknown_node_fails() {
        let mut g = Graph::standalone();
        assert!(g.adopt_node(NodeId(999)).is_err());
    }

    #[test]
    fn labels_with_and_without_index_agree() {
        let mut g = small();
        let mut with: Vec<_> = g
            .labels()
            .iter()
            .map(|s| g.resolve(*s).to_string())
            .collect();
        g.set_indexing(false);
        let mut without: Vec<_> = g
            .labels()
            .iter()
            .map(|s| g.resolve(*s).to_string())
            .collect();
        with.sort();
        without.sort();
        assert_eq!(with, vec!["author", "title", "year"]);
        assert_eq!(with, without);
    }

    #[test]
    fn reindexing_restores_index() {
        let mut g = small();
        g.set_indexing(false);
        assert!(!g.is_indexed());
        g.set_indexing(true);
        assert!(g.is_indexed());
        let year = g.universe().interner().get("year").unwrap();
        assert_eq!(g.index().unwrap().edges_with_label(year).len(), 2);
    }

    #[test]
    fn node_names_survive() {
        let g = small();
        assert_eq!(g.node_name(g.nodes()[0]).as_deref(), Some("pub1"));
        assert_eq!(g.node_name(g.nodes()[1]).as_deref(), Some("pub2"));
    }

    #[test]
    fn remove_edge_updates_counts_and_index() {
        let mut g = small();
        let p1 = g.nodes()[0];
        let year = g.universe().interner().get("year").unwrap();
        let stamp = g.cache_stamp();
        assert!(g.remove_edge(p1, year, &Value::Int(1997)).unwrap());
        assert_ne!(g.cache_stamp(), stamp, "removal must invalidate caches");
        assert_eq!(g.edge_count(), 5);
        assert_eq!(g.index().unwrap().edges_with_label(year).len(), 1);
        assert!(!g.has_edge(p1, year, &Value::Int(1997)));
        // Removing again is a no-op, not an error.
        assert!(!g.remove_edge(p1, year, &Value::Int(1997)).unwrap());
        assert_eq!(g.edge_count(), 5);
    }

    #[test]
    fn remove_edge_drops_emptied_label_from_schema() {
        let mut g = small();
        let p1 = g.nodes()[0];
        let title = g.universe().interner().get("title").unwrap();
        g.remove_edge(p1, title, &Value::str("Specifying Representations"))
            .unwrap();
        // "title" still on pub2, so it survives the schema scan...
        assert!(g.labels().contains(&title));
        let p2 = g.nodes()[1];
        g.remove_edge(p2, title, &Value::str("Optimizing Regular"))
            .unwrap();
        // ...but vanishes once its extension empties, with and without index.
        let mut with: Vec<_> = g.labels();
        g.set_indexing(false);
        let mut without: Vec<_> = g.labels();
        with.sort();
        without.sort();
        assert!(!with.contains(&title));
        assert_eq!(with, without);
    }

    #[test]
    fn remove_edge_only_removes_one_occurrence() {
        let mut g = Graph::standalone();
        let n = g.new_node(None);
        g.add_edge_str(n, "k", 7i64).unwrap();
        g.add_edge_str(n, "k", 7i64).unwrap();
        let k = g.universe().interner().get("k").unwrap();
        assert!(g.remove_edge(n, k, &Value::Int(7)).unwrap());
        assert_eq!(g.edge_count(), 1);
        assert!(g.has_edge(n, k, &Value::Int(7)));
    }

    #[test]
    fn remove_edge_on_non_member_fails() {
        let mut g = Graph::standalone();
        let other = g.universe().create_node(None);
        let l = g.sym("x");
        assert!(matches!(
            g.remove_edge(other, l, &Value::Int(1)),
            Err(GraphError::NotAMember(_))
        ));
        assert!(!g
            .remove_edge_str(other, "never-interned", &Value::Int(1))
            .unwrap());
    }

    #[test]
    fn remove_member_mirrors_adopt() {
        let uni = Universe::new();
        let mut a = Graph::new(Arc::clone(&uni));
        let n = a.new_node(Some("n"));
        a.add_edge_str(n, "k", 1i64).unwrap();
        let mut b = Graph::new(Arc::clone(&uni));
        b.adopt_node(n).unwrap();
        assert_eq!((b.node_count(), b.edge_count()), (1, 1));
        assert!(b.remove_member(n));
        assert!(!b.remove_member(n));
        assert_eq!((b.node_count(), b.edge_count()), (0, 0));
        let k = uni.interner().get("k").unwrap();
        assert!(b.index().unwrap().edges_with_label(k).is_empty());
        // The node and its edges are untouched in the owning graph.
        assert_eq!((a.node_count(), a.edge_count()), (1, 1));
    }

    #[test]
    fn remove_member_after_foreign_adds_does_not_underflow() {
        // The data graph / site graph pair of a build: the site adopts a
        // data node, the data graph keeps writing to it (the site graph is
        // not told), the node leaves the site with more edges than it
        // brought. Used to panic in debug and wrap to 2^64 - 2 in release.
        let uni = Universe::new();
        let mut data = Graph::new(Arc::clone(&uni));
        let mut site = Graph::new(Arc::clone(&uni));
        let n = data.new_node(Some("n"));
        data.add_edge_str(n, "k", 1i64).unwrap();
        site.adopt_node(n).unwrap();
        assert_eq!(site.edge_count(), 1);
        data.add_edge_str(n, "k", 2i64).unwrap();
        data.add_edge_str(n, "k", 3i64).unwrap();
        assert!(site.remove_member(n));
        let k = uni.interner().get("k").unwrap();
        assert_eq!(site.edge_count(), 0);
        assert_eq!(site.label_cardinality(k), Some(0));
        assert_eq!(site.label_count(), Some(0));
        assert_eq!(site.index().unwrap().edge_count(), 0);
        assert_eq!((data.edge_count(), data.label_cardinality(k)), (3, Some(3)));
    }

    #[test]
    fn rebuild_index_recounts_after_a_foreign_remove() {
        // The mirror case: the node leaves with *fewer* edges than this
        // graph counted for it. The counters stay high (never wrap) until
        // `rebuild_index` recounts them exactly.
        let uni = Universe::new();
        let mut data = Graph::new(Arc::clone(&uni));
        let mut site = Graph::new(Arc::clone(&uni));
        let (n, m) = (data.new_node(None), data.new_node(None));
        data.add_edge_str(n, "k", 1i64).unwrap();
        data.add_edge_str(n, "k", 2i64).unwrap();
        data.add_edge_str(m, "k", 3i64).unwrap();
        site.adopt_node(n).unwrap();
        site.adopt_node(m).unwrap();
        assert_eq!(site.edge_count(), 3);
        data.remove_edge_str(n, "k", &Value::Int(2)).unwrap();
        assert!(site.remove_member(n));
        let k = uni.interner().get("k").unwrap();
        assert_eq!((site.edge_count(), site.label_cardinality(k)), (2, Some(2)));
        site.rebuild_index();
        assert_eq!((site.edge_count(), site.label_cardinality(k)), (1, Some(1)));
        assert_eq!(site.index().unwrap().edges_with_label(k).len(), 1);
    }

    #[test]
    fn extents_wait_for_the_first_lookup_that_needs_them() {
        let mut g = small();
        let year = g.universe().interner().get("year").unwrap();
        // Writes, schema scans and the planner's counts do not build them…
        assert_eq!(g.labels().len(), 3);
        assert_eq!(
            (g.label_cardinality(year), g.label_count()),
            (Some(2), Some(3))
        );
        assert!(!g.extents_built());
        // …the full index does, once, and keeps them current afterwards.
        assert_eq!(
            g.index().unwrap().edges_to_value(&Value::Int(1997)).len(),
            1
        );
        assert!(g.extents_built());
        let p2 = g.nodes()[1];
        g.add_edge_str(p2, "year", 1997i64).unwrap();
        assert_eq!(
            g.index().unwrap().edges_to_value(&Value::Int(1997)).len(),
            2
        );
        g.set_indexing(false);
        assert!(!g.extents_built() && g.label_cardinality(year).is_none());
    }

    #[test]
    fn remove_from_collection_keeps_order_and_registration() {
        let mut g = small();
        let pubs = g.universe().interner().get("Publications").unwrap();
        let (p1, p2) = (g.nodes()[0], g.nodes()[1]);
        assert!(g.remove_from_collection(pubs, &Value::Node(p1)));
        assert!(!g.remove_from_collection(pubs, &Value::Node(p1)));
        let coll = g.collection(pubs).unwrap();
        assert_eq!(coll.items(), &[Value::Node(p2)]);
        assert!(!coll.contains(&Value::Node(p1)));
        assert_eq!(g.index().unwrap().collection_cardinality(pubs), Some(1));
        // Emptied collections stay registered (same as ensure_collection).
        assert!(g.remove_from_collection_str("Publications", &Value::Node(p2)));
        assert!(g.collection(pubs).unwrap().is_empty());
        assert!(g.collection_names().contains(&pubs));
        assert!(!g.remove_from_collection_str("NoSuch", &Value::Int(0)));
    }
}
