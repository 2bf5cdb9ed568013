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

use crate::ast::{AggFunc, Block, LabelTerm, SkolemTerm, Term};
use crate::binding::Bindings;
use crate::error::{Result, StruqlError};
use std::collections::hash_map::Entry;
use std::fmt::Write as _;
use std::sync::Arc;
use strudel_graph::fxhash::{FxHashMap, FxHashSet};
use strudel_graph::{Graph, GraphBatch, Oid, Sym, Value};

/// The memo table of Skolem-function applications:
/// `(function name, argument values) → node`.
///
/// Nested maps (name → args → node) so the hot lookup path hashes the
/// borrowed `&str` and `&[Value]` directly — no `(String, Vec)` key is
/// allocated per call; allocations happen only on first instantiation, and
/// a function's name is stored once however many nodes it has.
/// The table also carries the *derivation counts* behind DRed-style
/// incremental maintenance: every emitted edge, collection member, and node
/// reference remembers how many construction-row derivations support it, so
/// retracting a binding only deletes site structure whose support drops to
/// zero (multiple rows constructing the same edge keep it alive).
#[derive(Default, Debug)]
pub struct SkolemTable {
    map: FxHashMap<Arc<str>, FxHashMap<Vec<Value>, Oid>>,
    /// Reverse lookup for retraction: Skolem node → its application.
    skolem_of: FxHashMap<Oid, (Arc<str>, Vec<Value>)>,
    count: usize,
    /// Emitted edges with derivation counts (set semantics in the graph: the
    /// edge exists while its count is positive). One flat map keyed by the
    /// edge itself: an emission is one probe, and a duplicate emission drops
    /// the key it probed with instead of cloning the target value.
    emitted: FxHashMap<(Oid, Sym, Value), u32>,
    /// Collection members with derivation counts, keyed by collection.
    collected: FxHashMap<Sym, FxHashMap<Value, u32>>,
    /// Reference counts per output-graph node: one per Skolem resolution,
    /// per Node-valued edge emission, and per Node-valued collect. A node
    /// leaves the site graph only when its last reference is released.
    node_refs: FxHashMap<Oid, u32>,
}

impl SkolemTable {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of distinct Skolem applications instantiated.
    pub fn len(&self) -> usize {
        self.count
    }

    /// Whether no applications have been instantiated.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Resolves `name(args)` to its node, creating the node in `out` on
    /// first use. The node's provenance name is the printed Skolem term
    /// (`YearPage(1997)`), which the HTML generator later uses for stable
    /// file names.
    pub fn instantiate(&mut self, out: &mut Graph, name: &str, args: &[Value]) -> Oid {
        let (oid, _) = self.resolve_or_create(&mut out.batch(), name, args);
        self.add_refs(oid, 1);
        oid
    }

    /// Like [`SkolemTable::instantiate`], also reporting whether the node
    /// was created by this call — and *not* taking the resolution's node
    /// reference: the caller owes one [`SkolemTable::add_refs`] per use.
    fn resolve_or_create(
        &mut self,
        out: &mut GraphBatch<'_>,
        name: &str,
        args: &[Value],
    ) -> (Oid, bool) {
        if let Some(&oid) = self.map.get(name).and_then(|m| m.get(args)) {
            return (oid, false);
        }
        let mut label = String::with_capacity(name.len() + 8);
        label.push_str(name);
        label.push('(');
        for (i, a) in args.iter().enumerate() {
            if i > 0 {
                label.push(',');
            }
            match a {
                // Strings print unquoted in node names for readability.
                Value::Str(s) => label.push_str(s),
                other => {
                    let _ = write!(label, "{other}");
                }
            }
        }
        label.push(')');
        let oid = out.new_node(Some(&label));
        let function = match self.map.get_key_value(name) {
            Some((known, _)) => Arc::clone(known),
            None => Arc::from(name),
        };
        self.map
            .entry(Arc::clone(&function))
            .or_default()
            .insert(args.to_vec(), oid);
        self.skolem_of.insert(oid, (function, args.to_vec()));
        self.count += 1;
        (oid, true)
    }

    /// Takes `n` references to a site-graph node.
    fn add_refs(&mut self, oid: Oid, n: u32) {
        *self.node_refs.entry(oid).or_insert(0) += n;
    }

    /// Looks up an existing application without creating it.
    pub fn lookup(&self, name: &str, args: &[Value]) -> Option<Oid> {
        self.map.get(name).and_then(|m| m.get(args)).copied()
    }

    /// Iterates all instantiated applications.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &[Value], Oid)> {
        self.map.iter().flat_map(|(name, m)| {
            m.iter()
                .map(move |(args, &oid)| (&**name, args.as_slice(), oid))
        })
    }

    fn emit_edge(
        &mut self,
        out: &mut GraphBatch<'_>,
        from: Oid,
        label: Sym,
        to: Value,
    ) -> Result<bool> {
        if let Value::Node(n) = &to {
            self.add_refs(*n, 1);
        }
        match self.emitted.entry((from, label, to)) {
            Entry::Occupied(mut support) => {
                *support.get_mut() += 1;
                Ok(false)
            }
            Entry::Vacant(slot) => {
                let to = slot.key().2.clone();
                slot.insert(1);
                // Linking to an existing node pulls it (and its attributes)
                // into the output graph — graphs of a database share objects.
                if let Value::Node(n) = &to {
                    out.adopt(*n)?;
                }
                out.add_edge(from, label, to)?;
                Ok(true)
            }
        }
    }

    /// Withdraws one derivation of `from --label--> to`; the edge leaves the
    /// graph only when its support count reaches zero. Returns whether the
    /// edge was physically removed. Errors on a derivation that was never
    /// emitted (an over-retraction — the caller's deltas are inconsistent).
    fn retract_edge(&mut self, out: &mut Graph, from: Oid, label: Sym, to: &Value) -> Result<bool> {
        let key = (from, label, to.clone());
        let support = self
            .emitted
            .get_mut(&key)
            .ok_or_else(|| StruqlError::eval("retraction of an edge that was never derived"))?;
        *support -= 1;
        let gone = *support == 0;
        if gone {
            self.emitted.remove(&key);
            out.remove_edge(from, label, to)?;
        }
        if let Value::Node(n) = to {
            self.release_node(out, *n)?;
        }
        Ok(gone)
    }

    fn emit_collect(&mut self, out: &mut GraphBatch<'_>, coll: Sym, value: Value) -> Result<bool> {
        if let Value::Node(n) = &value {
            self.add_refs(*n, 1);
            out.adopt(*n)?;
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
        let support = self
            .collected
            .get_mut(&coll)
            .and_then(|m| m.get_mut(value))
            .ok_or_else(|| {
                StruqlError::eval("retraction of a collection member that was never derived")
            })?;
        *support -= 1;
        let gone = *support == 0;
        if gone {
            self.collected
                .get_mut(&coll)
                .expect("present above")
                .remove(value);
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
        let refs = self
            .node_refs
            .get_mut(&n)
            .ok_or_else(|| StruqlError::eval("node reference underflow during retraction"))?;
        *refs -= 1;
        if *refs > 0 {
            return Ok(false);
        }
        self.node_refs.remove(&n);
        if let Some((name, args)) = self.skolem_of.remove(&n) {
            if let Some(by_args) = self.map.get_mut(&*name) {
                by_args.remove(&args);
                if by_args.is_empty() {
                    self.map.remove(&*name);
                }
            }
            self.count -= 1;
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

impl ConstructStats {
    /// Component-wise difference `self - earlier` (saturating). Used for
    /// per-block accounting against a running total.
    pub fn delta_since(&self, earlier: &ConstructStats) -> ConstructStats {
        ConstructStats {
            nodes_created: self.nodes_created.saturating_sub(earlier.nodes_created),
            edges_created: self.edges_created.saturating_sub(earlier.edges_created),
            collected: self.collected.saturating_sub(earlier.collected),
            edges_removed: self.edges_removed.saturating_sub(earlier.edges_removed),
            collect_removed: self.collect_removed.saturating_sub(earlier.collect_removed),
            nodes_removed: self.nodes_removed.saturating_sub(earlier.nodes_removed),
        }
    }
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
        let cols: Vec<usize> = sk
            .args
            .iter()
            .map(|a| {
                b.col(a).ok_or_else(|| {
                    StruqlError::eval(format!(
                        "Skolem argument `{a}` unbound at construction time"
                    ))
                })
            })
            .collect::<Result<_>>()?;
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
        if created {
            stats.nodes_created += 1;
        }
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
    let mut agg_link_keys: Vec<(usize, Oid, Sym)> = agg.links.keys().copied().collect();
    agg_link_keys.sort_unstable_by_key(|(i, o, s)| (*i, o.0, s.0));
    for key in agg_link_keys {
        let (link_idx, from, label) = key;
        let values = &agg.links[&key];
        let Term::Agg(func, _) = &block.links[link_idx].to else {
            unreachable!("accumulated from Agg")
        };
        if let Some(result) = aggregate(*func, values) {
            if table.emit_edge(out, from, label, result)? {
                stats.edges_created += 1;
            }
        }
    }
    let mut agg_coll_keys: Vec<usize> = agg.collects.keys().copied().collect();
    agg_coll_keys.sort_unstable();
    for coll_idx in agg_coll_keys {
        let Term::Agg(func, _) = &block.collects[coll_idx].arg else {
            unreachable!("accumulated from Agg")
        };
        if let Some(result) = aggregate(*func, &agg.collects[&coll_idx]) {
            if table.emit_collect(out, collect_syms[coll_idx], result)? {
                stats.collected += 1;
            }
        }
    }
    Ok(())
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
    if block.creates.is_empty() && block.links.is_empty() && block.collects.is_empty() {
        return Ok(());
    }

    // Nothing to construct from an empty relation (aggregates over an
    // empty group emit nothing either).
    if bindings.is_empty() {
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
    if !links.is_empty() {
        table.emitted.reserve(bindings.len());
    }

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
            if table.emit_edge(out, from, label, to)? {
                stats.edges_created += 1;
            }
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
            if table.emit_collect(out, collect_syms[coll_idx], value)? {
                stats.collected += 1;
            }
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
    if block.creates.is_empty() && block.links.is_empty() && block.collects.is_empty() {
        return Ok(());
    }
    if bindings.is_empty() {
        return Ok(());
    }

    let mut plans = block_plans(block, bindings, out)?;
    if plans
        .links
        .iter()
        .any(|lp| matches!(lp.to, TargetPlan::Agg(_)))
        || plans
            .collects
            .iter()
            .any(|cp| matches!(cp, TargetPlan::Agg(_)))
    {
        return Err(StruqlError::eval(
            "aggregate constructions cannot be retracted incrementally",
        ));
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
            if table.retract_edge(out, from, label, &to)? {
                stats.edges_removed += 1;
            }
            // Mirror the Skolem resolution reference the apply path took for
            // the target, then the one it took for the source.
            for oid in to_skolem.into_iter().chain([from]) {
                if table.release_node(out, oid)? {
                    stats.nodes_removed += 1;
                }
            }
        }

        for (coll_idx, cp) in plans.collects.iter().enumerate() {
            let (value, skolem) = target(cp, table, row, &mut args)?;
            if table.retract_collect(out, plans.collect_syms[coll_idx], &value)? {
                stats.collect_removed += 1;
            }
            if let Some(s) = skolem {
                if table.release_node(out, s)? {
                    stats.nodes_removed += 1;
                }
            }
        }

        for &term in &plans.creates {
            let oid = terms[term].resolve_existing(table, row, &mut args)?;
            if table.release_node(out, oid)? {
                stats.nodes_removed += 1;
            }
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
    use std::sync::Arc;
    use strudel_graph::graph::Universe;

    #[test]
    fn skolem_is_functional() {
        let mut g = Graph::standalone();
        let mut t = SkolemTable::new();
        let a1 = t.instantiate(&mut g, "Page", &[Value::Int(1)]);
        let a2 = t.instantiate(&mut g, "Page", &[Value::Int(1)]);
        let b = t.instantiate(&mut g, "Page", &[Value::Int(2)]);
        assert_eq!(a1, a2);
        assert_ne!(a1, b);
        assert_eq!(t.len(), 2);
        assert_eq!(g.node_name(a1).as_deref(), Some("Page(1)"));
    }

    #[test]
    fn distinct_functions_do_not_collide() {
        let mut g = Graph::standalone();
        let mut t = SkolemTable::new();
        let a = t.instantiate(&mut g, "YearPage", &[Value::Int(1997)]);
        let b = t.instantiate(&mut g, "CategoryPage", &[Value::Int(1997)]);
        assert_ne!(a, b);
    }

    #[test]
    fn lookup_does_not_create() {
        let mut g = Graph::standalone();
        let mut t = SkolemTable::new();
        assert!(t.lookup("P", &[Value::Int(1)]).is_none());
        let oid = t.instantiate(&mut g, "P", &[Value::Int(1)]);
        assert_eq!(t.lookup("P", &[Value::Int(1)]), Some(oid));
    }

    #[test]
    fn edges_have_set_semantics() {
        let mut g = Graph::standalone();
        let mut t = SkolemTable::new();
        let a = t.instantiate(&mut g, "A", &[]);
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
        let page = t.instantiate(&mut site, "Page", &[]);
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
        assert_eq!((t.node_refs[&p1], t.node_refs[&p2]), (6, 6));
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
        assert_eq!((t.node_refs[&p1], t.node_refs[&p2]), (15, 5));
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
        let first = t.instantiate(&mut g, "Root", &[]);
        let second = t.instantiate(&mut g, "Root", &[]);
        assert_eq!(first, second);
    }
}
