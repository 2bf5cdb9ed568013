//! The construction stage (§3): `CREATE` / `LINK` / `COLLECT`.
//!
//! "For each row in the relation, first construct all new node oids, as
//! specified in the create clause … By convention, when a Skolem function is
//! applied to the same inputs, it returns the same node oid. Next, construct
//! the new edges, as described in the link clause." Edges and collections
//! have set semantics: emitting the same edge from many rows (which Fig. 3's
//! `PaperPresentation(x) -> "Abstract" -> AbstractPage(x)` does, once per
//! attribute binding of `x`) yields one edge.
//!
//! The [`SkolemTable`] may outlive one query: STRUDEL lets "different
//! queries create different parts of the same site" (§5.2), which works
//! precisely because `F(v)` in a later query resolves to the node `F(v)`
//! created by an earlier one.
//!
//! The table keeps one *book* per output node, in a vector indexed by oid:
//! the node's references, the application that created it, and the
//! derivation counts of the edges out of it. A link's source is always a
//! Skolem term, so every emission lands in a book the table created, and a
//! run of sorted rows out of one `ArticlePage(a)` works on one short list.

use crate::ast::{AggFunc, Block, LabelTerm, SkolemTerm, Term};
use crate::binding::Bindings;
use crate::error::{Result, StruqlError};
use std::fmt::Write as _;
use std::ops::Range;
use std::sync::Arc;
use strudel_graph::fxhash::{FxHashMap, FxHashSet};
use strudel_graph::{Graph, GraphBatch, Oid, Sym, Value};

/// A book's supports are scanned below this many, also indexed from it on:
/// at 16 each organization `PubPage` (~32 edges) grew an index, 1.5× slower.
const SPILL: usize = 64;
/// Supports per arena chunk.
const CHUNK: usize = 8;

/// An edge out of a book's node and the derivations that keep it there.
#[derive(Clone, Debug)]
struct Support {
    label: Sym,
    count: u32,
    to: Value,
}

impl Support {
    fn key(&self) -> (Sym, Value) {
        (self.label, self.to.clone())
    }
}

const VACANT: Support = Support {
    label: Sym(0),
    count: 0,
    to: Value::Bool(false),
};

/// What the table knows about one node of the output graph.
#[derive(Default, Debug)]
struct Book {
    /// One per Skolem resolution, Node-valued emission and Node-valued
    /// collect; the node leaves the graph with the last.
    refs: u32,
    /// The node's supports fill `len` slots, the newest in chunk `head`,
    /// each chunk linking to the one filled before it.
    len: u32,
    head: u32,
    /// The application that created the node (`None`: an adopted data
    /// node) — an index into `functions`, the arguments shared with `map`.
    function: u32,
    args: Option<Arc<[Value]>>,
}

/// The book of `oid`, opened on first use.
fn open(books: &mut Vec<Book>, oid: Oid) -> &mut Book {
    let at = oid.0 as usize;
    if at >= books.len() {
        books.resize_with(at + 1, Book::default);
    }
    &mut books[at]
}

/// The slots holding `book`'s supports, newest chunk first.
fn chunks<'a>(links: &'a [u32], book: &Book) -> impl Iterator<Item = Range<usize>> + 'a {
    let (mut chunk, mut left) = (book.head as usize, book.len as usize);
    std::iter::from_fn(move || {
        (left > 0).then(|| {
            let used = (left - 1) % CHUNK + 1;
            left -= used;
            let start = chunk * CHUNK;
            chunk = links[chunk] as usize;
            start..start + used
        })
    })
}

/// A Skolem function's applications: arguments → node.
type Applications = FxHashMap<Arc<[Value]>, Oid>;

/// The memo table of Skolem-function applications,
/// `(function name, argument values) → node`, and the *derivation counts*
/// behind DRed-style incremental maintenance: every emitted edge,
/// collection member and node reference remembers how many construction-row
/// derivations support it, so retracting a binding only deletes site
/// structure whose support drops to zero. Nested maps (name → args → node)
/// so the hot lookup path hashes the borrowed `&str` and `&[Value]`.
#[derive(Default, Debug)]
pub struct SkolemTable {
    /// Function → (its index in `functions`, its applications).
    map: FxHashMap<Arc<str>, (u32, Applications)>,
    /// Function names in the order of their first application.
    functions: Vec<Arc<str>>,
    books: Vec<Book>,
    /// Every book's supports, in chunks of `CHUNK`; per chunk the next
    /// older chunk of its book; chunks freed, to reuse before `slots` grows.
    slots: Vec<Support>,
    links: Vec<u32>,
    free: Vec<u32>,
    /// `(label, target)` → slot, for each book of `SPILL` supports or more.
    hubs: FxHashMap<Oid, FxHashMap<(Sym, Value), u32>>,
    /// Collection members with derivation counts, keyed by collection.
    collected: FxHashMap<Sym, FxHashMap<Value, u32>>,
}

impl SkolemTable {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of distinct Skolem applications instantiated.
    pub fn len(&self) -> usize {
        self.map.values().map(|function| function.1.len()).sum()
    }

    /// Whether no applications have been instantiated.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Resolves `name(args)` to its node, creating the node in `out` on
    /// first use, and reports whether this call created it. The node's
    /// provenance name is the printed Skolem term (`YearPage(1997)`), which
    /// the HTML generator later uses for stable file names. The call does
    /// *not* take the resolution's node reference: the caller owes one
    /// [`SkolemTable::add_refs`] per use.
    fn resolve_or_create(
        &mut self,
        out: &mut GraphBatch<'_>,
        name: &str,
        args: &[Value],
    ) -> (Oid, bool) {
        if let Some(oid) = self.lookup(name, args) {
            return (oid, false);
        }
        let mut label = String::with_capacity(name.len() + 8);
        let _ = write!(label, "{name}(");
        for (i, a) in args.iter().enumerate() {
            let sep = if i > 0 { "," } else { "" };
            let _ = match a {
                // Strings print unquoted in node names for readability.
                Value::Str(s) => write!(label, "{sep}{s}"),
                other => write!(label, "{sep}{other}"),
            };
        }
        label.push(')');
        let oid = out.new_node(Some(&label));
        if !self.map.contains_key(name) {
            let function = (self.functions.len() as u32, FxHashMap::default());
            self.functions.push(Arc::from(name));
            self.map
                .insert(Arc::clone(&self.functions[function.0 as usize]), function);
        }
        let (function, nodes) = self.map.get_mut(name).expect("registered above");
        let args: Arc<[Value]> = Arc::from(args);
        nodes.insert(Arc::clone(&args), oid);
        let book = open(&mut self.books, oid);
        (book.function, book.args) = (*function, Some(args));
        (oid, true)
    }

    /// Takes `n` references to a site-graph node.
    fn add_refs(&mut self, oid: Oid, n: u32) {
        open(&mut self.books, oid).refs += n;
    }

    /// Looks up an existing application without creating it.
    pub fn lookup(&self, name: &str, args: &[Value]) -> Option<Oid> {
        self.map.get(name).and_then(|(_, f)| f.get(args)).copied()
    }

    /// Iterates all instantiated applications: function by function, in the
    /// order of each function's first application, and each function's
    /// applications in creation order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &[Value], Oid)> {
        let mut live: Vec<(u32, usize)> = (self.books.iter().enumerate())
            .filter(|(_, book)| book.args.is_some())
            .map(|(oid, book)| (book.function, oid))
            .collect();
        // Stable: oid order is creation order.
        live.sort_by_key(|&(function, _)| function);
        live.into_iter().map(|(function, oid)| {
            let args = self.books[oid].args.as_deref().expect("live");
            (&*self.functions[function as usize], args, Oid(oid as u32))
        })
    }

    /// The slot of the support of `from --label--> to`, if it has one.
    fn find(&self, from: Oid, label: Sym, to: &Value) -> Option<usize> {
        let book = self.books.get(from.0 as usize)?;
        if book.len as usize >= SPILL {
            let index = &self.hubs[&from];
            return index.get(&(label, to.clone())).map(|&i| i as usize);
        }
        let slots = &self.slots;
        chunks(&self.links, book)
            .flatten()
            .find(|&i| slots[i].label == label && slots[i].to == *to)
    }

    /// Records the first derivation of `from --label--> to`, an edge the
    /// graph has just accepted.
    fn record(&mut self, from: Oid, label: Sym, to: Value) {
        let book = open(&mut self.books, from);
        let at = book.len as usize % CHUNK;
        if at == 0 {
            let chunk = self.free.pop().unwrap_or_else(|| {
                self.slots.resize(self.slots.len() + CHUNK, VACANT);
                self.links.push(0);
                self.links.len() as u32 - 1
            });
            self.links[chunk as usize] = std::mem::replace(&mut book.head, chunk);
        }
        let slot = book.head as usize * CHUNK + at;
        let count = 1;
        self.slots[slot] = Support { label, count, to };
        book.len += 1;
        let slots = &self.slots;
        if book.len as usize == SPILL {
            let index = chunks(&self.links, book).flatten();
            self.hubs
                .insert(from, index.map(|i| (slots[i].key(), i as u32)).collect());
        } else if book.len as usize > SPILL {
            let index = self.hubs.get_mut(&from).expect("a hub's index");
            index.insert(slots[slot].key(), slot as u32);
        }
    }

    /// Drops the support in `slot` from `from`'s book: the book's newest
    /// support moves into the hole (the graph keeps its own out-list order).
    fn forget(&mut self, from: Oid, slot: usize) {
        let book = &mut self.books[from.0 as usize];
        book.len -= 1;
        let newest = book.head as usize * CHUNK + book.len as usize % CHUNK;
        self.slots.swap(slot, newest);
        let gone = std::mem::replace(&mut self.slots[newest], VACANT);
        if let Some(index) = self.hubs.get_mut(&from) {
            index.remove(&gone.key());
            if slot != newest {
                index.insert(self.slots[slot].key(), slot as u32);
            }
        }
        if (book.len as usize).is_multiple_of(CHUNK) {
            self.free.push(book.head);
            book.head = self.links[book.head as usize];
        }
        if book.len as usize == SPILL - 1 {
            self.hubs.remove(&from);
        }
    }

    fn emit_edge(
        &mut self,
        out: &mut GraphBatch<'_>,
        from: Oid,
        label: Sym,
        to: Value,
    ) -> Result<bool> {
        let target = to.as_node();
        let created = match self.find(from, label, &to) {
            Some(slot) => {
                self.slots[slot].count += 1;
                false
            }
            None => {
                // Linking to an existing node pulls it (and its attributes)
                // into the output graph — graphs of a database share objects.
                if let Some(n) = target {
                    out.adopt(n)?;
                }
                out.add_edge(from, label, to.clone())?;
                self.record(from, label, to);
                true
            }
        };
        if let Some(n) = target {
            self.add_refs(n, 1);
        }
        Ok(created)
    }

    /// Withdraws one derivation of `from --label--> to`; the edge leaves the
    /// graph only when its support count reaches zero. Returns whether the
    /// edge was physically removed. Errors on a derivation that was never
    /// emitted (an over-retraction — the caller's deltas are inconsistent).
    fn retract_edge(&mut self, out: &mut Graph, from: Oid, label: Sym, to: &Value) -> Result<bool> {
        let slot = self
            .find(from, label, to)
            .ok_or_else(|| StruqlError::eval("retraction of an edge that was never derived"))?;
        let support = &mut self.slots[slot];
        support.count -= 1;
        let gone = support.count == 0;
        if gone {
            self.forget(from, slot);
            out.remove_edge(from, label, to)?;
        }
        if let Value::Node(n) = to {
            self.release_node(out, *n)?;
        }
        Ok(gone)
    }

    fn emit_collect(&mut self, out: &mut GraphBatch<'_>, coll: Sym, value: Value) -> Result<bool> {
        if let Value::Node(n) = &value {
            out.adopt(*n)?;
            self.add_refs(*n, 1);
        }
        let support = self.collected.entry(coll).or_default();
        if let Some(n) = support.get_mut(&value) {
            *n += 1;
            return Ok(false);
        }
        support.insert(value.clone(), 1);
        out.add_to_collection(coll, value);
        Ok(true)
    }

    /// Withdraws one derivation of a collection membership; the member is
    /// removed only when its support count reaches zero. Returns whether it
    /// was physically removed.
    fn retract_collect(&mut self, out: &mut Graph, coll: Sym, value: &Value) -> Result<bool> {
        let members = self.collected.entry(coll).or_default();
        let support = members.get_mut(value).ok_or_else(|| {
            StruqlError::eval("retraction of a collection member that was never derived")
        })?;
        *support -= 1;
        let gone = *support == 0;
        if gone {
            members.remove(value);
            out.remove_from_collection(coll, value);
        }
        if let Value::Node(n) = value {
            self.release_node(out, *n)?;
        }
        Ok(gone)
    }

    /// Releases one reference to a site-graph node. When the last reference
    /// goes, the node leaves the graph: a Skolem page is dropped from the
    /// table (so a later re-derivation mints a fresh node) and an adopted
    /// data node merely loses its site membership. Returns whether the node
    /// was removed from the graph.
    fn release_node(&mut self, out: &mut Graph, n: Oid) -> Result<bool> {
        let book = (self.books.get_mut(n.0 as usize))
            .filter(|book| book.refs > 0)
            .ok_or_else(|| StruqlError::eval("node reference underflow during retraction"))?;
        book.refs -= 1;
        if book.refs > 0 {
            return Ok(false);
        }
        // Every support out of the node came with a reference to it.
        debug_assert_eq!(book.len, 0, "supports outlived their source");
        let Book { function, args, .. } = std::mem::take(book);
        if let Some(args) = args {
            let name = &self.functions[function as usize];
            self.map.get_mut(name).expect("applied").1.remove(&args);
        }
        out.remove_member(n);
        Ok(true)
    }
}

/// Counters reported by the construction stage.
#[derive(Default, Clone, Copy, Debug, PartialEq, Eq)]
pub struct ConstructStats {
    /// New nodes created by Skolem instantiation.
    pub nodes_created: u64,
    /// Distinct edges added.
    pub edges_created: u64,
    /// Collection insertions (deduplicated).
    pub collected: u64,
    /// Edges whose support dropped to zero and left the graph.
    pub edges_removed: u64,
    /// Collection members whose support dropped to zero.
    pub collect_removed: u64,
    /// Nodes whose last reference was released.
    pub nodes_removed: u64,
}

/// One *distinct* Skolem term of a block — `(function, argument columns)`,
/// however many clauses mention it — resolved against a bindings schema:
/// argument variables as column indexes, so per-row resolution gathers
/// values without name lookups.
///
/// [`apply_block`] resolves a term through the table at most once per run
/// of rows with equal argument values: `memo` is the row it last resolved
/// (or re-validated) at and the node it got, `uses` the resolutions of that
/// node whose references are still owed to the table. The evaluator sorts
/// relations by variable name, then value, so where a term's arguments lead
/// that order its rows are adjacent; where they do not, the memo misses and
/// costs one comparison.
struct SkTerm<'a> {
    name: &'a str,
    cols: Vec<usize>,
    memo: Option<(usize, Oid)>,
    uses: u32,
}

impl<'a> SkTerm<'a> {
    /// The index of `sk` among `terms`, adding it on first appearance.
    fn index_of(terms: &mut Vec<SkTerm<'a>>, b: &Bindings, sk: &'a SkolemTerm) -> Result<usize> {
        let col = |a: &String| {
            let msg = || format!("Skolem argument `{a}` unbound at construction time");
            b.col(a).ok_or_else(|| StruqlError::eval(msg()))
        };
        let cols: Vec<usize> = sk.args.iter().map(col).collect::<Result<_>>()?;
        let known = terms
            .iter()
            .position(|t| t.name == sk.name && t.cols == cols);
        Ok(known.unwrap_or_else(|| {
            terms.push(SkTerm {
                name: &sk.name,
                cols,
                memo: None,
                uses: 0,
            });
            terms.len() - 1
        }))
    }

    /// The term's node for row `at` of `rows`, created on first use. Every
    /// call is one use; the first of a row decides between the memo and the
    /// table, the rest of that row find `memo.0 == at`.
    fn resolve(
        &mut self,
        table: &mut SkolemTable,
        out: &mut GraphBatch<'_>,
        rows: &Bindings,
        at: usize,
        buf: &mut Vec<Value>,
        stats: &mut ConstructStats,
    ) -> Oid {
        let row = rows.row(at);
        if let Some((seen, oid)) = self.memo {
            if seen == at || {
                let prev = rows.row(seen);
                self.cols.iter().all(|&c| prev[c] == row[c])
            } {
                self.memo = Some((at, oid));
                self.uses += 1;
                return oid;
            }
            self.settle(table);
        }
        buf.clear();
        buf.extend(self.cols.iter().map(|&c| row[c].clone()));
        let (oid, created) = table.resolve_or_create(out, self.name, buf);
        stats.nodes_created += u64::from(created);
        self.memo = Some((at, oid));
        self.uses = 1;
        oid
    }

    /// Pays the table the references of the run that just ended — as many
    /// as one-by-one resolution would have taken, which is what
    /// [`retract_block`] later releases one by one.
    fn settle(&mut self, table: &mut SkolemTable) {
        if let Some((_, oid)) = self.memo.take() {
            table.add_refs(oid, std::mem::take(&mut self.uses));
        }
    }

    /// Resolves the application this term produced when it was applied,
    /// without creating it (and without taking a node reference).
    fn resolve_existing(
        &self,
        table: &SkolemTable,
        row: &[Value],
        buf: &mut Vec<Value>,
    ) -> Result<Oid> {
        buf.clear();
        buf.extend(self.cols.iter().map(|&c| row[c].clone()));
        table.lookup(self.name, buf).ok_or_else(|| {
            StruqlError::eval(format!(
                "retraction references uninstantiated Skolem term {}(..)",
                self.name
            ))
        })
    }
}

/// A link label resolved against a bindings schema.
enum LabelPlan<'a> {
    Lit(Sym),
    Col(usize, &'a str),
}

/// A link target / collect argument resolved against a bindings schema
/// (`Skolem` is an index into [`BlockPlans::terms`]).
enum TargetPlan {
    Skolem(usize),
    Col(usize),
    Lit(Value),
    Agg(usize),
}

impl TargetPlan {
    fn of<'a>(
        terms: &mut Vec<SkTerm<'a>>,
        b: &Bindings,
        term: &'a Term,
        what: &str,
    ) -> Result<TargetPlan> {
        match term {
            Term::Skolem(sk) => Ok(TargetPlan::Skolem(SkTerm::index_of(terms, b, sk)?)),
            Term::Var(v) => Ok(TargetPlan::Col(b.col(v).ok_or_else(|| {
                StruqlError::eval(format!("{what} variable `{v}` unbound"))
            })?)),
            Term::Lit(l) => Ok(TargetPlan::Lit(l.to_value())),
            Term::Agg(_, v) => Ok(TargetPlan::Agg(b.col(v).ok_or_else(|| {
                StruqlError::eval(format!("aggregate variable `{v}` unbound"))
            })?)),
        }
    }
}

struct LinkPlan<'a> {
    from: usize,
    label: LabelPlan<'a>,
    to: TargetPlan,
}

/// Every construction plan of a block resolved against a bindings schema:
/// the block's distinct Skolem terms in first-appearance order (clauses
/// refer to them by index), variable references as column indexes, literal
/// link labels pre-interned, collect collections pre-resolved, and the
/// label texts link-label variables have been bound to so far (one
/// interner round-trip per distinct label, not per row).
struct BlockPlans<'a> {
    terms: Vec<SkTerm<'a>>,
    creates: Vec<usize>,
    links: Vec<LinkPlan<'a>>,
    collect_syms: Vec<Sym>,
    collects: Vec<TargetPlan>,
    labels: FxHashMap<Arc<str>, Sym>,
}

fn block_plans<'a>(
    block: &'a Block,
    bindings: &Bindings,
    out: &mut Graph,
) -> Result<BlockPlans<'a>> {
    let mut terms = Vec::new();
    let creates: Vec<usize> = block
        .creates
        .iter()
        .map(|sk| SkTerm::index_of(&mut terms, bindings, sk))
        .collect::<Result<_>>()?;
    let links: Vec<LinkPlan<'_>> = block
        .links
        .iter()
        .map(|link| {
            Ok(LinkPlan {
                from: SkTerm::index_of(&mut terms, bindings, &link.from)?,
                label: match &link.label {
                    LabelTerm::Lit(s) => LabelPlan::Lit(out.sym(s)),
                    LabelTerm::Var(v) => LabelPlan::Col(
                        bindings.col(v).ok_or_else(|| {
                            StruqlError::eval(format!("link label variable `{v}` unbound"))
                        })?,
                        v,
                    ),
                },
                to: TargetPlan::of(&mut terms, bindings, &link.to, "link target")?,
            })
        })
        .collect::<Result<_>>()?;
    let collect_syms: Vec<Sym> = block
        .collects
        .iter()
        .map(|c| out.ensure_collection(&c.name))
        .collect();
    let collects: Vec<TargetPlan> = block
        .collects
        .iter()
        .map(|c| TargetPlan::of(&mut terms, bindings, &c.arg, "collect argument"))
        .collect::<Result<_>>()?;
    Ok(BlockPlans {
        terms,
        creates,
        links,
        collect_syms,
        collects,
        labels: FxHashMap::default(),
    })
}

/// The symbol a link's label denotes in `row`.
fn label_sym(
    labels: &mut FxHashMap<Arc<str>, Sym>,
    intern: impl FnOnce(&str) -> Sym,
    label: &LabelPlan<'_>,
    row: &[Value],
) -> Result<Sym> {
    let (c, v) = match label {
        LabelPlan::Lit(sym) => return Ok(*sym),
        LabelPlan::Col(c, v) => (*c, v),
    };
    let value = &row[c];
    let text = value.text().ok_or_else(|| {
        StruqlError::eval(format!(
            "link label variable `{v}` is bound to non-label value {value}"
        ))
    })?;
    if let Some(sym) = labels.get(&*text) {
        return Ok(*sym);
    }
    let sym = intern(&text);
    labels.insert(text, sym);
    Ok(sym)
}

/// The aggregation accumulators of one `apply_block` pass (§5.2 extension):
/// link targets group by (link clause, source node, label); collect
/// arguments aggregate over the whole bindings relation. Distinct values
/// only.
#[derive(Default)]
struct AggAcc {
    links: FxHashMap<(usize, Oid, Sym), FxHashSet<Value>>,
    collects: FxHashMap<usize, FxHashSet<Value>>,
}

/// Emits the aggregated links and collections accumulated by a row pass, in
/// sorted key order (deterministic regardless of accumulation order).
fn emit_aggregates(
    block: &Block,
    collect_syms: &[Sym],
    agg: AggAcc,
    out: &mut GraphBatch<'_>,
    table: &mut SkolemTable,
    stats: &mut ConstructStats,
) -> Result<()> {
    let mut links: Vec<_> = agg.links.into_iter().collect();
    links.sort_unstable_by_key(|&((i, o, s), _)| (i, o.0, s.0));
    for ((link_idx, from, label), values) in links {
        let Term::Agg(func, _) = &block.links[link_idx].to else {
            unreachable!("accumulated from Agg")
        };
        if let Some(result) = aggregate(*func, &values) {
            stats.edges_created += u64::from(table.emit_edge(out, from, label, result)?);
        }
    }
    let mut collects: Vec<_> = agg.collects.into_iter().collect();
    collects.sort_unstable_by_key(|&(i, _)| i);
    for (coll_idx, values) in collects {
        let Term::Agg(func, _) = &block.collects[coll_idx].arg else {
            unreachable!("accumulated from Agg")
        };
        if let Some(result) = aggregate(*func, &values) {
            let coll = collect_syms[coll_idx];
            stats.collected += u64::from(table.emit_collect(out, coll, result)?);
        }
    }
    Ok(())
}

/// Whether a block has nothing to construct: no clauses, or no rows.
fn nothing_to_construct(block: &Block, bindings: &Bindings) -> bool {
    let clauses = block.creates.len() + block.links.len() + block.collects.len();
    clauses == 0 || bindings.is_empty()
}

/// Runs a block's construction clauses over its bindings relation, writing
/// into `out`: per row the creates, then the links, then the collects, each
/// Skolem term resolved where it first appears. The whole block is one
/// [`GraphBatch`] on `out` — opened here and settled before the caller goes
/// on to evaluate nested blocks, which read the universe. An error leaves
/// the block half applied (and settled: what was written is counted), as
/// it always has, and the table unfit for further use.
pub fn apply_block(
    block: &Block,
    bindings: &Bindings,
    out: &mut Graph,
    table: &mut SkolemTable,
    stats: &mut ConstructStats,
) -> Result<()> {
    // Nothing to construct from an empty relation (aggregates over an
    // empty group emit nothing either).
    if nothing_to_construct(block, bindings) {
        return Ok(());
    }

    // Resolve every variable reference against the bindings schema once —
    // the per-row loop then works with column indexes only.
    let BlockPlans {
        mut terms,
        creates,
        links,
        collect_syms,
        collects,
        mut labels,
    } = block_plans(block, bindings, out)?;
    let out = &mut out.batch();
    let mut agg = AggAcc::default();

    let mut args: Vec<Value> = Vec::new();
    for at in 0..bindings.len() {
        let row = bindings.row(at);

        for &term in &creates {
            terms[term].resolve(table, out, bindings, at, &mut args, stats);
        }

        for (link_idx, lp) in links.iter().enumerate() {
            let from = terms[lp.from].resolve(table, out, bindings, at, &mut args, stats);
            let label = label_sym(&mut labels, |s| out.sym(s), &lp.label, row)?;
            let to: Value = match &lp.to {
                TargetPlan::Skolem(term) => {
                    Value::Node(terms[*term].resolve(table, out, bindings, at, &mut args, stats))
                }
                TargetPlan::Col(c) => row[*c].clone(),
                TargetPlan::Lit(v) => v.clone(),
                TargetPlan::Agg(c) => {
                    // Accumulate the group; the edge is emitted after the
                    // row loop.
                    agg.links
                        .entry((link_idx, from, label))
                        .or_default()
                        .insert(row[*c].clone());
                    continue;
                }
            };
            stats.edges_created += u64::from(table.emit_edge(out, from, label, to)?);
        }

        for (coll_idx, cp) in collects.iter().enumerate() {
            let value: Value = match cp {
                TargetPlan::Skolem(term) => {
                    Value::Node(terms[*term].resolve(table, out, bindings, at, &mut args, stats))
                }
                TargetPlan::Col(c) => row[*c].clone(),
                TargetPlan::Lit(v) => v.clone(),
                TargetPlan::Agg(c) => {
                    agg.collects
                        .entry(coll_idx)
                        .or_default()
                        .insert(row[*c].clone());
                    continue;
                }
            };
            stats.collected += u64::from(table.emit_collect(out, collect_syms[coll_idx], value)?);
        }
    }
    for term in &mut terms {
        term.settle(table);
    }

    emit_aggregates(block, &collect_syms, agg, out, table, stats)
}

/// Withdraws a block's construction clauses for a retracted bindings
/// relation: the exact mirror of [`apply_block`], decrementing the
/// derivation counts taken when the same rows were applied. Edges,
/// collection members, and nodes leave `out` only when their last
/// supporting derivation goes.
///
/// The caller owes the contract that `bindings` is a sub-relation of rows
/// previously applied with this table — in the incremental-maintenance
/// fragment that means evaluating the retracted seed over the *pre-removal*
/// data graph. Aggregate targets are outside the fragment and are rejected.
pub fn retract_block(
    block: &Block,
    bindings: &Bindings,
    out: &mut Graph,
    table: &mut SkolemTable,
    stats: &mut ConstructStats,
) -> Result<()> {
    if nothing_to_construct(block, bindings) {
        return Ok(());
    }
    let mut plans = block_plans(block, bindings, out)?;
    let agg = |tp: &TargetPlan| matches!(tp, TargetPlan::Agg(_));
    if plans.links.iter().any(|lp| agg(&lp.to)) || plans.collects.iter().any(agg) {
        let msg = "aggregate constructions cannot be retracted incrementally";
        return Err(StruqlError::eval(msg));
    }

    let terms = &plans.terms;
    let mut args: Vec<Value> = Vec::new();
    // A target's value and, when it is a Skolem term, the node whose
    // resolution reference the apply path took for it.
    let target = |tp: &TargetPlan, table: &SkolemTable, row: &[Value], args: &mut Vec<Value>| {
        Ok::<_, StruqlError>(match tp {
            TargetPlan::Skolem(term) => {
                let oid = terms[*term].resolve_existing(table, row, args)?;
                (Value::Node(oid), Some(oid))
            }
            TargetPlan::Col(c) => (row[*c].clone(), None),
            TargetPlan::Lit(v) => (v.clone(), None),
            TargetPlan::Agg(_) => unreachable!("rejected above"),
        })
    };
    for row in bindings.rows() {
        for lp in &plans.links {
            let from = terms[lp.from].resolve_existing(table, row, &mut args)?;
            let label = label_sym(&mut plans.labels, |s| out.sym(s), &lp.label, row)?;
            let (to, to_skolem) = target(&lp.to, table, row, &mut args)?;
            stats.edges_removed += u64::from(table.retract_edge(out, from, label, &to)?);
            // Mirror the Skolem resolution reference the apply path took for
            // the target, then the one it took for the source.
            for oid in to_skolem.into_iter().chain([from]) {
                stats.nodes_removed += u64::from(table.release_node(out, oid)?);
            }
        }

        for (coll_idx, cp) in plans.collects.iter().enumerate() {
            let (value, skolem) = target(cp, table, row, &mut args)?;
            let coll = plans.collect_syms[coll_idx];
            stats.collect_removed += u64::from(table.retract_collect(out, coll, &value)?);
            if let Some(oid) = skolem {
                stats.nodes_removed += u64::from(table.release_node(out, oid)?);
            }
        }

        for &term in &plans.creates {
            let oid = terms[term].resolve_existing(table, row, &mut args)?;
            stats.nodes_removed += u64::from(table.release_node(out, oid)?);
        }
    }
    Ok(())
}

/// Computes an aggregate over a group's distinct values. `SUM`/`AVG` fold
/// the numeric members (integers and floats) and ignore the rest; `MIN`/
/// `MAX` use dynamic-coercion ordering, keeping the incumbent on
/// incomparable pairs. Returns `None` when the aggregate is undefined
/// (e.g. `AVG` of a group with no numeric values). Public so click-time
/// evaluation can aggregate with identical semantics.
pub fn aggregate(func: AggFunc, values: &FxHashSet<Value>) -> Option<Value> {
    match func {
        AggFunc::Count => Some(Value::Int(values.len() as i64)),
        AggFunc::Sum | AggFunc::Avg => {
            let mut int_sum: i64 = 0;
            let mut float_sum: f64 = 0.0;
            let mut any_float = false;
            let mut count = 0usize;
            for v in values {
                match v {
                    Value::Int(i) => {
                        int_sum = int_sum.wrapping_add(*i);
                        count += 1;
                    }
                    Value::Float(f) => {
                        float_sum += f;
                        any_float = true;
                        count += 1;
                    }
                    _ => {}
                }
            }
            if func == AggFunc::Avg {
                if count == 0 {
                    return None;
                }
                return Some(Value::Float((int_sum as f64 + float_sum) / count as f64));
            }
            Some(if any_float {
                Value::Float(int_sum as f64 + float_sum)
            } else {
                Value::Int(int_sum)
            })
        }
        AggFunc::Min | AggFunc::Max => {
            let mut best: Option<&Value> = None;
            for v in values {
                best = Some(match best {
                    None => v,
                    Some(b) => match v.coerced_cmp(b) {
                        Some(std::cmp::Ordering::Less) if func == AggFunc::Min => v,
                        Some(std::cmp::Ordering::Greater) if func == AggFunc::Max => v,
                        _ => b,
                    },
                });
            }
            best.cloned()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Resolves `name(args)` in `t` as one use of the term.
    fn instantiate(t: &mut SkolemTable, out: &mut Graph, name: &str, args: &[Value]) -> Oid {
        let (oid, _) = t.resolve_or_create(&mut out.batch(), name, args);
        t.add_refs(oid, 1);
        oid
    }
    use proptest::prelude::*;
    use proptest::test_runner::TestRng;
    use std::collections::BTreeMap;
    use std::sync::Arc;
    use strudel_graph::graph::Universe;

    impl SkolemTable {
        /// The references held to `n`.
        fn refs(&self, n: Oid) -> u32 {
            self.books.get(n.0 as usize).map_or(0, |b| b.refs)
        }

        /// Every edge with derivations and their count, sorted, after
        /// checking that the books agree with themselves: each book's chunks
        /// hold exactly its supports, a hub index exactly where a book has
        /// `SPILL` supports or more and each entry naming its support's
        /// slot, every chunk a book's or free (once), every other slot
        /// vacant, a released node's book empty.
        fn derivations(&self) -> Vec<(Oid, Sym, Value, u32)> {
            let mut out = Vec::new();
            let mut owners = vec![0; self.links.len()];
            let mut used = vec![false; self.slots.len()];
            for &chunk in &self.free {
                owners[chunk as usize] += 1;
            }
            for (oid, book) in self.books.iter().enumerate() {
                let from = Oid(oid as u32);
                for chunk in chunks(&self.links, book) {
                    owners[chunk.start / CHUNK] += 1;
                }
                let slots: Vec<usize> = chunks(&self.links, book).flatten().collect();
                assert_eq!(slots.len(), book.len as usize);
                assert!(book.refs > 0 || (book.len == 0 && book.args.is_none()));
                let index = self.hubs.get(&from);
                assert_eq!(index.is_some(), slots.len() >= SPILL, "hub index of {from}");
                for &i in &slots {
                    let s = &self.slots[i];
                    used[i] = true;
                    assert!(s.count > 0, "a support without derivations");
                    if let Some(index) = index {
                        assert_eq!(index.get(&(s.label, s.to.clone())), Some(&(i as u32)));
                    }
                    out.push((from, s.label, s.to.clone(), s.count));
                }
                assert_eq!(index.map_or(slots.len(), |ix| ix.len()), slots.len());
            }
            assert!(owners.iter().all(|&n| n == 1), "chunk owners {owners:?}");
            assert_eq!(self.slots.len(), self.links.len() * CHUNK);
            for (s, _) in (self.slots.iter().zip(used)).filter(|(_, used)| !used) {
                assert!(s.count == 0 && s.to == VACANT.to, "a stale slot: {s:?}");
            }
            out.sort_by_key(|a| (a.0, a.1, a.2.to_string()));
            out
        }
    }

    #[test]
    fn skolem_is_functional() {
        let mut g = Graph::standalone();
        let mut t = SkolemTable::new();
        let a1 = instantiate(&mut t, &mut g, "Page", &[Value::Int(1)]);
        let a2 = instantiate(&mut t, &mut g, "Page", &[Value::Int(1)]);
        let b = instantiate(&mut t, &mut g, "Page", &[Value::Int(2)]);
        assert_eq!(a1, a2);
        assert_ne!(a1, b);
        assert_eq!(t.len(), 2);
        assert_eq!(g.node_name(a1).as_deref(), Some("Page(1)"));
    }

    #[test]
    fn distinct_functions_do_not_collide() {
        let mut g = Graph::standalone();
        let mut t = SkolemTable::new();
        let a = instantiate(&mut t, &mut g, "YearPage", &[Value::Int(1997)]);
        let b = instantiate(&mut t, &mut g, "CategoryPage", &[Value::Int(1997)]);
        assert_ne!(a, b);
    }

    #[test]
    fn lookup_does_not_create() {
        let mut g = Graph::standalone();
        let mut t = SkolemTable::new();
        assert!(t.lookup("P", &[Value::Int(1)]).is_none());
        let oid = instantiate(&mut t, &mut g, "P", &[Value::Int(1)]);
        assert_eq!(t.lookup("P", &[Value::Int(1)]), Some(oid));
    }

    #[test]
    fn edges_have_set_semantics() {
        let mut g = Graph::standalone();
        let mut t = SkolemTable::new();
        let a = instantiate(&mut t, &mut g, "A", &[]);
        let l = g.sym("x");
        assert!(t.emit_edge(&mut g.batch(), a, l, Value::Int(1)).unwrap());
        assert!(!t.emit_edge(&mut g.batch(), a, l, Value::Int(1)).unwrap());
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn linking_to_data_node_adopts_it() {
        let uni = Universe::new();
        let mut data = Graph::new(Arc::clone(&uni));
        let d = data.new_node(Some("article"));
        data.add_edge_str(d, "headline", "hi").unwrap();
        let mut site = Graph::new(Arc::clone(&uni));
        let mut t = SkolemTable::new();
        let page = instantiate(&mut t, &mut site, "Page", &[]);
        let story = site.sym("Story");
        t.emit_edge(&mut site.batch(), page, story, Value::Node(d))
            .unwrap();
        assert!(site.contains_node(d));
        let headline = uni.interner().get("headline").unwrap();
        assert_eq!(site.reader().attr(d, headline), Some(&Value::str("hi")));
    }

    // ---- construction is the same construction (expected values recorded
    // from the per-occurrence resolver this file used to have) ----

    fn root_block(src: &str) -> Block {
        crate::parse::parse_query(src).unwrap().root
    }

    fn relation(vars: &[&str], rows: &[Vec<Value>]) -> Bindings {
        let mut b = Bindings::with_vars(vars.iter().map(|v| v.to_string()).collect());
        for row in rows {
            b.push_row(row);
        }
        b
    }

    /// The same rows in reverse order (a *different* order from the one
    /// they were applied in).
    fn reversed(b: &Bindings) -> Bindings {
        let mut out = Bindings::with_vars(b.vars().to_vec());
        for i in (0..b.len()).rev() {
            out.push_row(b.row(i));
        }
        out
    }

    fn node_names(g: &Graph) -> Vec<String> {
        g.nodes()
            .iter()
            .map(|n| g.node_name(*n).map_or_else(String::new, |s| s.to_string()))
            .collect()
    }

    /// The table's applications, in node creation order.
    fn applications(t: &SkolemTable) -> Vec<(String, Vec<Value>, Oid)> {
        let mut apps: Vec<_> = t
            .iter()
            .map(|(name, args, oid)| (name.to_string(), args.to_vec(), oid))
            .collect();
        apps.sort_by_key(|(_, _, oid)| *oid);
        apps
    }

    fn created(nodes: u64, edges: u64, collected: u64) -> ConstructStats {
        ConstructStats {
            nodes_created: nodes,
            edges_created: edges,
            collected,
            ..ConstructStats::default()
        }
    }

    /// Apply-then-retract is the identity: every reference `apply_block`
    /// took (however it batched them) is one `retract_block` releases.
    fn assert_retracts_to_empty(
        block: &Block,
        rows: &Bindings,
        g: &mut Graph,
        t: &mut SkolemTable,
    ) {
        let mut stats = ConstructStats::default();
        retract_block(block, &reversed(rows), g, t, &mut stats).unwrap();
        assert_eq!(t.len(), 0, "Skolem applications left behind");
        assert_eq!(t.iter().count(), 0);
        assert!(g.nodes().is_empty(), "members left: {:?}", node_names(g));
        assert_eq!(g.edge_count(), 0);
        assert!(g.edges().is_empty());
        for &c in g.collection_names() {
            assert!(g.collection(c).unwrap().is_empty());
        }
    }

    #[test]
    fn one_term_as_create_source_and_target_in_one_row() {
        let block = root_block(r#"CREATE P(x) LINK P(x) -> "self" -> P(x) COLLECT C(P(x))"#);
        let rows = relation(&["x"], &[vec![Value::Int(1)], vec![Value::Int(2)]]);
        let mut g = Graph::standalone();
        let mut t = SkolemTable::new();
        let mut stats = ConstructStats::default();
        apply_block(&block, &rows, &mut g, &mut t, &mut stats).unwrap();
        assert_eq!(stats, created(2, 2, 2));
        assert_eq!(node_names(&g), ["P(1)", "P(2)"]);
        let (p1, p2) = (g.nodes()[0], g.nodes()[1]);
        assert_eq!(
            applications(&t),
            [
                ("P".to_string(), vec![Value::Int(1)], p1),
                ("P".to_string(), vec![Value::Int(2)], p2),
            ]
        );
        // create + link source + link target + the edge's node target +
        // collect argument + the collected node value.
        assert_eq!((t.refs(p1), t.refs(p2)), (6, 6));
        let this = g.sym("self");
        assert!(g.has_edge(p1, this, &Value::Node(p1)));
        assert!(g.has_edge(p2, this, &Value::Node(p2)));
        assert_retracts_to_empty(&block, &rows, &mut g, &mut t);
    }

    #[test]
    fn runs_of_equal_then_different_then_equal_again_arguments() {
        // `x` runs 1,1,2,1 while `y` walks over adopted data nodes: the
        // second run of 1 must find the node of the first.
        let uni = Universe::new();
        let mut data = Graph::new(Arc::clone(&uni));
        let d: Vec<Value> = (0..4)
            .map(|i| Value::Node(data.new_node(Some(&format!("d{i}")))))
            .collect();
        let block = root_block(
            r#"CREATE P(x), Q(x) LINK P(x) -> "to" -> y, P(x) -> "q" -> Q(x), Q(x) -> "p" -> P(x)"#,
        );
        let rows = relation(
            &["x", "y"],
            &[
                vec![Value::Int(1), d[0].clone()],
                vec![Value::Int(1), d[1].clone()],
                vec![Value::Int(2), d[2].clone()],
                vec![Value::Int(1), d[3].clone()],
            ],
        );
        let mut g = Graph::new(Arc::clone(&uni));
        let mut t = SkolemTable::new();
        let mut stats = ConstructStats::default();
        apply_block(&block, &rows, &mut g, &mut t, &mut stats).unwrap();
        assert_eq!(stats, created(4, 8, 0));
        assert_eq!(
            node_names(&g),
            ["P(1)", "Q(1)", "d0", "d1", "P(2)", "Q(2)", "d2", "d3"]
        );
        let apps = applications(&t);
        let names: Vec<&str> = apps.iter().map(|(n, _, _)| n.as_str()).collect();
        assert_eq!(names, ["P", "Q", "P", "Q"]);
        assert_eq!(apps[0].1, [Value::Int(1)]);
        assert_eq!(apps[3].1, [Value::Int(2)]);
        let p1 = t.lookup("P", &[Value::Int(1)]).unwrap();
        let p2 = t.lookup("P", &[Value::Int(2)]).unwrap();
        // Per row: P(x) is create, three link ends and one edge target.
        assert_eq!((t.refs(p1), t.refs(p2)), (15, 5));
        let to = g.sym("to");
        assert_eq!(g.reader().attr_values(p1, to).count(), 3);
        assert_retracts_to_empty(&block, &rows, &mut g, &mut t);
    }

    #[test]
    fn relation_not_grouped_by_the_skolem_arguments() {
        // Interleaved a, b, a, b: the run memo misses on every row and the
        // table has to answer.
        let block = root_block(r#"CREATE P(x) LINK P(x) -> "v" -> y, P(x) -> "next" -> P(y)"#);
        let (a, b) = (Value::str("a"), Value::str("b"));
        let rows = relation(
            &["x", "y"],
            &[
                vec![a.clone(), a.clone()],
                vec![b.clone(), a.clone()],
                vec![a.clone(), b.clone()],
                vec![b.clone(), b.clone()],
            ],
        );
        let mut g = Graph::standalone();
        let mut t = SkolemTable::new();
        let mut stats = ConstructStats::default();
        apply_block(&block, &rows, &mut g, &mut t, &mut stats).unwrap();
        assert_eq!(stats, created(2, 8, 0));
        assert_eq!(node_names(&g), ["P(a)", "P(b)"]);
        let (pa, pb) = (g.nodes()[0], g.nodes()[1]);
        assert_eq!(
            applications(&t),
            [
                ("P".to_string(), vec![a.clone()], pa),
                ("P".to_string(), vec![b.clone()], pb),
            ]
        );
        let next = g.sym("next");
        for (from, to) in [(pa, pa), (pa, pb), (pb, pa), (pb, pb)] {
            assert!(g.has_edge(from, next, &Value::Node(to)));
        }
        assert_retracts_to_empty(&block, &rows, &mut g, &mut t);
    }

    #[test]
    fn aggregate_link_with_a_skolem_source() {
        let block = root_block(
            r#"CREATE S(s) LINK S(s) -> "Story" -> A(a), S(s) -> "StoryCount" -> COUNT(a)"#,
        );
        let rows = relation(
            &["a", "s"],
            &[
                vec![Value::Int(1), Value::str("sports")],
                vec![Value::Int(2), Value::str("sports")],
                vec![Value::Int(2), Value::str("world")],
                vec![Value::Int(3), Value::str("sports")],
            ],
        );
        let mut g = Graph::standalone();
        let mut t = SkolemTable::new();
        let mut stats = ConstructStats::default();
        apply_block(&block, &rows, &mut g, &mut t, &mut stats).unwrap();
        assert_eq!(stats, created(5, 6, 0));
        assert_eq!(
            node_names(&g),
            ["S(sports)", "A(1)", "A(2)", "S(world)", "A(3)"]
        );
        assert_eq!(applications(&t).len(), 5);
        let count = g.sym("StoryCount");
        let sports = t.lookup("S", &[Value::str("sports")]).unwrap();
        let world = t.lookup("S", &[Value::str("world")]).unwrap();
        assert_eq!(g.reader().attr(sports, count), Some(&Value::Int(3)));
        assert_eq!(g.reader().attr(world, count), Some(&Value::Int(1)));
        // Aggregates are outside the incremental fragment, as before.
        let err = retract_block(&block, &rows, &mut g, &mut t, &mut stats).unwrap_err();
        assert!(err
            .to_string()
            .contains("aggregate constructions cannot be retracted incrementally"));
    }

    #[test]
    fn label_variable_bound_to_a_non_label_value_fails() {
        let block = root_block(r#"CREATE P(x) LINK P(x) -> l -> x"#);
        let rows = relation(
            &["l", "x"],
            &[
                vec![Value::str("ok"), Value::Int(1)],
                vec![Value::Int(7), Value::Int(1)],
            ],
        );
        let mut g = Graph::standalone();
        let mut t = SkolemTable::new();
        let mut stats = ConstructStats::default();
        let err = apply_block(&block, &rows, &mut g, &mut t, &mut stats).unwrap_err();
        assert!(
            err.to_string()
                .contains("link label variable `l` is bound to non-label value 7"),
            "{err}"
        );
    }

    #[test]
    fn skolem_table_persists_across_graphs() {
        // Two "queries" (simulated by two apply passes) referencing the
        // same Skolem term share the node.
        let mut g = Graph::standalone();
        let mut t = SkolemTable::new();
        let first = instantiate(&mut t, &mut g, "Root", &[]);
        let second = instantiate(&mut t, &mut g, "Root", &[]);
        assert_eq!(first, second);
    }

    #[test]
    fn a_failing_emission_leaves_no_derivation_behind() {
        let uni = Universe::new();
        let mut site = Graph::new(Arc::clone(&uni));
        let mut elsewhere = Graph::new(Arc::clone(&uni));
        let mut t = SkolemTable::new();
        let page = instantiate(&mut t, &mut site, "Page", &[]);
        let other = instantiate(&mut t, &mut site, "Other", &[]);
        let l = site.sym("l");
        // A source that is not a member of the graph written to, and a
        // target that is no node of the universe.
        let mut batch = elsewhere.batch();
        assert!(t
            .emit_edge(&mut batch, page, l, Value::Node(other))
            .is_err());
        drop(batch);
        let nowhere = Oid(1 << 20);
        assert!(t
            .emit_edge(&mut site.batch(), page, l, Value::Node(nowhere))
            .is_err());
        assert!(t
            .emit_collect(&mut site.batch(), l, Value::Node(nowhere))
            .is_err());
        assert_eq!(t.derivations(), []);
        assert_eq!((t.refs(page), t.refs(other), t.refs(nowhere)), (1, 1, 0));
        assert_eq!(site.edge_count() + elsewhere.edge_count(), 0);
        // The same edge, emitted where it can be, is a first derivation.
        assert!(t
            .emit_edge(&mut site.batch(), page, l, Value::Node(other))
            .unwrap());
        assert_eq!(t.derivations(), [(page, l, Value::Node(other), 1)]);
    }

    // ---- the books against a model ----

    /// What a block's construction must leave behind, computed the plain
    /// way: nodes by name, every count in a `BTreeMap`, every list a `Vec`
    /// searched from the front.
    #[derive(Default)]
    struct Model {
        /// Function names in the order of their first application.
        functions: Vec<String>,
        /// Live applications: node name → (function, arguments, creation
        /// sequence number).
        apps: BTreeMap<String, (String, Vec<Value>, u64)>,
        created: u64,
        members: Vec<String>,
        refs: BTreeMap<String, u32>,
        /// Out-lists of Skolem nodes, targets as [`key`]s.
        out: BTreeMap<String, Vec<(String, String)>>,
        derivations: BTreeMap<(String, String, String), u32>,
        collections: Vec<(String, Vec<String>)>,
        collected: BTreeMap<(String, String), u32>,
        stats: ConstructStats,
    }

    /// A value as the model names it: a node by its name.
    fn key(g: &Graph, v: &Value) -> String {
        match v {
            Value::Node(n) => g.node_name(*n).expect("named").to_string(),
            other => format!("{other:?}"),
        }
    }

    impl Model {
        fn join(&mut self, name: &str) {
            if !self.members.iter().any(|m| m == name) {
                self.members.push(name.to_string());
            }
        }

        /// `sk` in `row`, created on first use, one reference taken.
        fn resolve(&mut self, sk: &SkolemTerm, vars: &[String], row: &[Value]) -> String {
            let args: Vec<Value> = (sk.args.iter())
                .map(|a| row[vars.iter().position(|v| v == a).unwrap()].clone())
                .collect();
            let printed: Vec<String> = args.iter().map(ToString::to_string).collect();
            let name = format!("{}({})", sk.name, printed.join(","));
            if !self.apps.contains_key(&name) {
                if !self.functions.contains(&sk.name) {
                    self.functions.push(sk.name.clone());
                }
                self.created += 1;
                self.apps
                    .insert(name.clone(), (sk.name.clone(), args, self.created));
                self.members.push(name.clone());
                self.stats.nodes_created += 1;
            }
            *self.refs.entry(name.clone()).or_default() += 1;
            name
        }

        /// One reference to `name` released; whether it was the last.
        fn release(&mut self, name: &str) -> bool {
            let refs = self.refs.get_mut(name).expect("a referenced node");
            *refs -= 1;
            if *refs > 0 {
                return false;
            }
            self.refs.remove(name);
            self.apps.remove(name);
            self.members.retain(|m| m != name);
            true
        }

        /// A target's key, the node it names if it is one, and whether that
        /// node is a Skolem term's.
        fn target(
            &mut self,
            g: &Graph,
            term: &Term,
            vars: &[String],
            row: &[Value],
            resolve: bool,
        ) -> (String, Option<String>, bool) {
            let value = match term {
                Term::Skolem(sk) if resolve => {
                    let name = self.resolve(sk, vars, row);
                    return (name.clone(), Some(name), true);
                }
                Term::Skolem(sk) => {
                    let name = self.peek(sk, vars, row);
                    return (name.clone(), Some(name), true);
                }
                Term::Var(v) => row[vars.iter().position(|x| x == v).unwrap()].clone(),
                Term::Lit(l) => l.to_value(),
                Term::Agg(..) => unreachable!("no aggregates"),
            };
            let node = value.as_node().map(|_| key(g, &value));
            (key(g, &value), node, false)
        }

        /// The name `sk` has in `row`, without a reference.
        fn peek(&mut self, sk: &SkolemTerm, vars: &[String], row: &[Value]) -> String {
            let name = self.resolve(sk, vars, row);
            self.release(&name);
            name
        }

        fn label(term: &LabelTerm, vars: &[String], row: &[Value]) -> String {
            match term {
                LabelTerm::Lit(s) => s.clone(),
                LabelTerm::Var(v) => row[vars.iter().position(|x| x == v).unwrap()]
                    .text()
                    .unwrap()
                    .to_string(),
            }
        }

        fn ensure_collections(&mut self, block: &Block) {
            for c in &block.collects {
                if !self.collections.iter().any(|(n, _)| *n == c.name) {
                    self.collections.push((c.name.clone(), Vec::new()));
                }
            }
        }

        fn apply(&mut self, g: &Graph, block: &Block, vars: &[String], rows: &[Vec<Value>]) {
            if !rows.is_empty() {
                self.ensure_collections(block);
            }
            for row in rows {
                for sk in &block.creates {
                    self.resolve(sk, vars, row);
                }
                for link in &block.links {
                    let from = self.resolve(&link.from, vars, row);
                    let label = Self::label(&link.label, vars, row);
                    let (to, node, _) = self.target(g, &link.to, vars, row, true);
                    let n = (self.derivations)
                        .entry((from.clone(), label.clone(), to.clone()))
                        .or_default();
                    *n += 1;
                    if *n == 1 {
                        if let Some(node) = &node {
                            self.join(node);
                        }
                        self.out.entry(from).or_default().push((label, to));
                        self.stats.edges_created += 1;
                    }
                    if let Some(node) = node {
                        *self.refs.entry(node).or_default() += 1;
                    }
                }
                for c in &block.collects {
                    let (value, node, _) = self.target(g, &c.arg, vars, row, true);
                    if let Some(node) = node {
                        self.join(&node);
                        *self.refs.entry(node).or_default() += 1;
                    }
                    let n = (self.collected)
                        .entry((c.name.clone(), value.clone()))
                        .or_default();
                    *n += 1;
                    if *n == 1 {
                        let coll = self.collections.iter_mut().find(|(n, _)| *n == c.name);
                        coll.unwrap().1.push(value);
                        self.stats.collected += 1;
                    }
                }
            }
        }

        fn retract(&mut self, g: &Graph, block: &Block, vars: &[String], rows: &[Vec<Value>]) {
            for row in rows {
                for link in &block.links {
                    let from = self.peek(&link.from, vars, row);
                    let label = Self::label(&link.label, vars, row);
                    let (to, node, skolem) = self.target(g, &link.to, vars, row, false);
                    let edge = (from.clone(), label.clone(), to.clone());
                    let n = self.derivations.get_mut(&edge).unwrap();
                    *n -= 1;
                    if *n == 0 {
                        self.derivations.remove(&edge);
                        let out = self.out.get_mut(&from).unwrap();
                        let at = out.iter().position(|e| *e == (label.clone(), to.clone()));
                        out.remove(at.unwrap());
                        self.stats.edges_removed += 1;
                    }
                    if let Some(node) = &node {
                        self.release(node);
                    }
                    for name in node.filter(|_| skolem).into_iter().chain([from]) {
                        if self.release(&name) {
                            self.stats.nodes_removed += 1;
                        }
                    }
                }
                for c in &block.collects {
                    let (value, node, skolem) = self.target(g, &c.arg, vars, row, false);
                    let member = (c.name.clone(), value.clone());
                    let n = self.collected.get_mut(&member).unwrap();
                    *n -= 1;
                    if *n == 0 {
                        self.collected.remove(&member);
                        let coll = self.collections.iter_mut().find(|(n, _)| *n == c.name);
                        coll.unwrap().1.retain(|v| *v != value);
                        self.stats.collect_removed += 1;
                    }
                    if let Some(node) = &node {
                        self.release(node);
                    }
                    if let Some(name) = node.filter(|_| skolem) {
                        if self.release(&name) {
                            self.stats.nodes_removed += 1;
                        }
                    }
                }
                for sk in &block.creates {
                    let name = self.peek(sk, vars, row);
                    if self.release(&name) {
                        self.stats.nodes_removed += 1;
                    }
                }
            }
        }

        /// Holds the graph, the table and the stats to the model.
        fn check(&self, g: &Graph, t: &SkolemTable, stats: &ConstructStats) {
            assert_eq!(*stats, self.stats);
            let members: Vec<String> = g.nodes().iter().map(|&n| key(g, &Value::Node(n))).collect();
            assert_eq!(members, self.members, "members in order");
            let reader = g.reader();
            for &n in g.nodes() {
                let name = key(g, &Value::Node(n));
                let out: Vec<(String, String)> = (reader.out(n).iter())
                    .map(|(l, v)| (g.resolve(*l).to_string(), key(g, v)))
                    .collect();
                assert_eq!(
                    out,
                    self.out.get(&name).cloned().unwrap_or_default(),
                    "{name}"
                );
            }
            let mut collections = Vec::new();
            for &c in g.collection_names() {
                let items = g.collection(c).unwrap().items();
                let items = items.iter().map(|v| key(g, v)).collect();
                collections.push((g.resolve(c).to_string(), items));
            }
            assert_eq!(collections, self.collections);
            // The table: its applications in order, each found by lookup.
            assert_eq!(t.len(), self.apps.len());
            assert_eq!(t.is_empty(), self.apps.is_empty());
            let mut apps: Vec<_> = self.apps.iter().collect();
            apps.sort_by_key(|(_, (f, _, seq))| (self.functions.iter().position(|x| x == f), *seq));
            let iter: Vec<(String, Vec<Value>, String)> = (t.iter())
                .map(|(f, args, oid)| (f.to_string(), args.to_vec(), key(g, &Value::Node(oid))))
                .collect();
            let expected: Vec<(String, Vec<Value>, String)> = (apps.iter())
                .map(|(name, (f, args, _))| (f.clone(), args.clone(), name.to_string()))
                .collect();
            assert_eq!(iter, expected);
            for (f, args, name) in &iter {
                let oid = t.lookup(f, args).unwrap();
                assert_eq!(key(g, &Value::Node(oid)), *name);
            }
            // Every derivation count and every reference.
            let derivations: BTreeMap<(String, String, String), u32> = (t.derivations().iter())
                .map(|(from, l, to, n)| {
                    let from = key(g, &Value::Node(*from));
                    ((from, g.resolve(*l).to_string(), key(g, to)), *n)
                })
                .collect();
            assert_eq!(derivations, self.derivations);
            let refs: BTreeMap<String, u32> = (t.books.iter().enumerate())
                .filter(|(_, b)| b.refs > 0)
                .map(|(oid, b)| (key(g, &Value::Node(Oid(oid as u32))), b.refs))
                .collect();
            assert_eq!(refs, self.refs);
        }
    }

    /// A random construction block over `d` (a data node), `l` (a label),
    /// `x` and `y` (integers): a CREATE and a LINK out of `P(x)` always, a
    /// hub `H()` often, Skolem, variable and literal targets, literal and
    /// variable labels, a COLLECT sometimes.
    fn random_block(rng: &mut TestRng) -> Block {
        fn pick<'a>(rng: &mut TestRng, xs: &[&'a str]) -> &'a str {
            xs[rng.below(xs.len() as u64) as usize]
        }
        const TERMS: [&str; 4] = ["P(x)", "Q(x, y)", "H()", "P(y)"];
        let mut creates = vec!["P(x)"];
        if rng.below(2) == 0 {
            creates.push(pick(rng, &TERMS[1..]));
        }
        let mut links = vec![format!("P(x) -> \"a\" -> {}", pick(rng, &["y", "Q(x, y)"]))];
        if rng.below(2) == 0 {
            links.push(format!("H() -> {} -> y", pick(rng, &["\"h\"", "l"])));
        }
        for _ in 0..rng.below(3) {
            let from = pick(rng, &TERMS);
            let label = pick(rng, &["\"a\"", "\"b\"", "l"]);
            let to = pick(
                rng,
                &[
                    "P(x)", "Q(x, y)", "H()", "P(y)", "y", "d", "l", "7", "\"s\"",
                ],
            );
            links.push(format!("{from} -> {label} -> {to}"));
        }
        let mut src = format!("CREATE {} LINK {}", creates.join(", "), links.join(", "));
        if rng.below(2) == 0 {
            let arg = pick(rng, &["P(x)", "Q(x, y)", "d", "y"]);
            src += &format!(" COLLECT C({arg}), D({})", pick(rng, &TERMS));
        }
        root_block(&src)
    }

    const VARS: [&str; 4] = ["d", "l", "x", "y"];

    /// Rows with repeats: `x` in 0..3, `y` in 0..100 (a hub's targets pass
    /// `SPILL`), `l` one of three labels, `d` one of `data`.
    fn random_rows(rng: &mut TestRng, data: &[Oid]) -> Vec<Vec<Value>> {
        let n = rng.below(300);
        (0..n)
            .map(|_| {
                vec![
                    Value::Node(data[rng.below(data.len() as u64) as usize]),
                    Value::str(["a", "b", "c"][rng.below(3) as usize]),
                    Value::Int(rng.below(3) as i64),
                    Value::Int(rng.below(100) as i64),
                ]
            })
            .collect()
    }

    fn shuffle<T>(rng: &mut TestRng, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            xs.swap(i, rng.below(i as u64 + 1) as usize);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Two queries of random blocks share a table: applied over several
        /// calls, then random sub-relations retracted in random order, then
        /// everything. After every step the graph, the table, the stats and
        /// every count are the model's; at the end both are empty.
        #[test]
        fn books_match_a_model(seed in any::<u64>()) {
            let rng = &mut TestRng::new(seed);
            let uni = Universe::new();
            let mut data = Graph::new(Arc::clone(&uni));
            let nodes: Vec<Oid> = (0..4).map(|i| data.new_node(Some(&format!("d{i}")))).collect();
            let queries: [Vec<Block>; 2] = std::array::from_fn(|_| {
                (0..1 + rng.below(2)).map(|_| random_block(rng)).collect()
            });
            let vars: Vec<String> = VARS.iter().map(|v| v.to_string()).collect();
            let (mut g, mut t) = (Graph::new(Arc::clone(&uni)), SkolemTable::new());
            let (mut model, mut stats) = (Model::default(), ConstructStats::default());
            // Rows applied and not yet retracted, per (query, block).
            let mut applied: Vec<(usize, usize, Vec<Vec<Value>>)> = Vec::new();
            for step in 0..8 + rng.below(8) {
                let retract = step >= 4 && rng.below(2) == 0 && !applied.is_empty();
                let (q, b, rows) = if retract {
                    let at = rng.below(applied.len() as u64) as usize;
                    let left = &mut applied[at].2;
                    shuffle(rng, left);
                    let rows = left.split_off(rng.below(left.len() as u64 + 1) as usize);
                    (applied[at].0, applied[at].1, rows)
                } else {
                    let q = rng.below(2) as usize;
                    let b = rng.below(queries[q].len() as u64) as usize;
                    (q, b, random_rows(rng, &nodes))
                };
                let block = &queries[q][b];
                let relation = relation(&VARS, &rows);
                if retract {
                    retract_block(block, &relation, &mut g, &mut t, &mut stats).unwrap();
                    model.retract(&g, block, &vars, &rows);
                } else {
                    apply_block(block, &relation, &mut g, &mut t, &mut stats).unwrap();
                    model.apply(&g, block, &vars, &rows);
                    applied.push((q, b, rows));
                }
                model.check(&g, &t, &stats);
            }
            shuffle(rng, &mut applied);
            for (q, b, rows) in applied {
                let block = &queries[q][b];
                retract_block(block, &relation(&VARS, &rows), &mut g, &mut t, &mut stats).unwrap();
                model.retract(&g, block, &vars, &rows);
                model.check(&g, &t, &stats);
            }
            prop_assert!(g.nodes().is_empty() && g.edge_count() == 0);
            prop_assert!(t.is_empty() && t.iter().next().is_none());
            prop_assert!(t.hubs.is_empty() && t.books.iter().all(|b| b.refs == 0));
        }
    }
}
