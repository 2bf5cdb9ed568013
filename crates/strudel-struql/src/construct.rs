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
use std::fmt::Write as _;
use strudel_graph::fxhash::{FxHashMap, FxHashSet};
use strudel_graph::{Graph, Oid, Sym, Value};

/// The memo table of Skolem-function applications:
/// `(function name, argument values) → node`.
///
/// Nested maps (name → args → node) so the hot lookup path hashes the
/// borrowed `&str` and `&[Value]` directly — no `(String, Vec)` key is
/// allocated per call; allocations happen only on first instantiation.
/// The table also carries the *derivation counts* behind DRed-style
/// incremental maintenance: every emitted edge, collection member, and node
/// reference remembers how many construction-row derivations support it, so
/// retracting a binding only deletes site structure whose support drops to
/// zero (multiple rows constructing the same edge keep it alive).
#[derive(Default, Debug)]
pub struct SkolemTable {
    map: FxHashMap<String, FxHashMap<Vec<Value>, Oid>>,
    /// Reverse lookup for retraction: Skolem node → its application.
    skolem_of: FxHashMap<Oid, (String, Vec<Value>)>,
    count: usize,
    /// Emitted edges with derivation counts (set semantics in the graph: the
    /// edge exists while its count is positive). Keyed by `(from, label)` so
    /// duplicate emissions probe without cloning the target value.
    emitted: FxHashMap<(Oid, Sym), FxHashMap<Value, u32>>,
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
        self.instantiate_tracked(out, name, args).0
    }

    /// Like [`SkolemTable::instantiate`], also reporting whether the node
    /// was created by this call.
    fn instantiate_tracked(&mut self, out: &mut Graph, name: &str, args: &[Value]) -> (Oid, bool) {
        if let Some(&oid) = self.map.get(name).and_then(|m| m.get(args)) {
            *self.node_refs.entry(oid).or_insert(0) += 1;
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
        self.map
            .entry(name.to_string())
            .or_default()
            .insert(args.to_vec(), oid);
        self.skolem_of
            .insert(oid, (name.to_string(), args.to_vec()));
        self.count += 1;
        *self.node_refs.entry(oid).or_insert(0) += 1;
        (oid, true)
    }

    /// Looks up an existing application without creating it.
    pub fn lookup(&self, name: &str, args: &[Value]) -> Option<Oid> {
        self.map.get(name).and_then(|m| m.get(args)).copied()
    }

    /// Iterates all instantiated applications.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &[Value], Oid)> {
        self.map.iter().flat_map(|(name, m)| {
            m.iter()
                .map(move |(args, &oid)| (name.as_str(), args.as_slice(), oid))
        })
    }

    fn emit_edge(&mut self, out: &mut Graph, from: Oid, label: Sym, to: Value) -> Result<bool> {
        if let Value::Node(n) = &to {
            *self.node_refs.entry(*n).or_insert(0) += 1;
        }
        let support = self.emitted.entry((from, label)).or_default();
        if let Some(n) = support.get_mut(&to) {
            *n += 1;
            return Ok(false);
        }
        support.insert(to.clone(), 1);
        // Linking to an existing node pulls it (and its attributes)
        // into the output graph — graphs of a database share objects.
        if let Value::Node(n) = &to {
            if !out.contains_node(*n) {
                out.adopt_node(*n)?;
            }
        }
        out.add_edge(from, label, to)?;
        Ok(true)
    }

    /// Withdraws one derivation of `from --label--> to`; the edge leaves the
    /// graph only when its support count reaches zero. Returns whether the
    /// edge was physically removed. Errors on a derivation that was never
    /// emitted (an over-retraction — the caller's deltas are inconsistent).
    fn retract_edge(&mut self, out: &mut Graph, from: Oid, label: Sym, to: &Value) -> Result<bool> {
        let support = self
            .emitted
            .get_mut(&(from, label))
            .and_then(|m| m.get_mut(to))
            .ok_or_else(|| StruqlError::eval("retraction of an edge that was never derived"))?;
        *support -= 1;
        let gone = *support == 0;
        if gone {
            let by_target = self.emitted.get_mut(&(from, label)).expect("present above");
            by_target.remove(to);
            if by_target.is_empty() {
                self.emitted.remove(&(from, label));
            }
            out.remove_edge(from, label, to)?;
        }
        if let Value::Node(n) = to {
            self.release_node(out, *n)?;
        }
        Ok(gone)
    }

    fn emit_collect(&mut self, out: &mut Graph, coll: Sym, value: Value) -> Result<bool> {
        if let Value::Node(n) = &value {
            *self.node_refs.entry(*n).or_insert(0) += 1;
            if !out.contains_node(*n) {
                out.adopt_node(*n)?;
            }
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

    /// Looks up the node a Skolem application resolved to, for retraction.
    fn resolve_existing(&self, name: &str, args: &[Value]) -> Result<Oid> {
        self.lookup(name, args).ok_or_else(|| {
            StruqlError::eval(format!(
                "retraction references uninstantiated Skolem term {name}(..)"
            ))
        })
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
            if let Some(by_args) = self.map.get_mut(&name) {
                by_args.remove(&args);
                if by_args.is_empty() {
                    self.map.remove(&name);
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

/// A Skolem term resolved against a bindings schema: argument variables as
/// column indexes, so per-row resolution gathers values without name
/// lookups.
struct SkPlan<'a> {
    name: &'a str,
    cols: Vec<usize>,
}

impl<'a> SkPlan<'a> {
    fn of(b: &Bindings, sk: &'a SkolemTerm) -> Result<SkPlan<'a>> {
        let cols = sk
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
        Ok(SkPlan {
            name: &sk.name,
            cols,
        })
    }

    fn resolve(
        &self,
        table: &mut SkolemTable,
        out: &mut Graph,
        row: &[Value],
        buf: &mut Vec<Value>,
        stats: &mut ConstructStats,
    ) -> Oid {
        buf.clear();
        buf.extend(self.cols.iter().map(|&c| row[c].clone()));
        let (oid, created) = table.instantiate_tracked(out, self.name, buf);
        if created {
            stats.nodes_created += 1;
        }
        oid
    }

    /// Resolves the application this plan produced when it was applied,
    /// without creating it (and without taking a node reference).
    fn resolve_existing(
        &self,
        table: &SkolemTable,
        row: &[Value],
        buf: &mut Vec<Value>,
    ) -> Result<Oid> {
        buf.clear();
        buf.extend(self.cols.iter().map(|&c| row[c].clone()));
        table.resolve_existing(self.name, buf)
    }
}

/// A link label resolved against a bindings schema.
enum LabelPlan<'a> {
    Lit(Sym),
    Col(usize, &'a str),
}

/// A link target / collect argument resolved against a bindings schema.
enum TargetPlan<'a> {
    Skolem(SkPlan<'a>),
    Col(usize),
    Lit(Value),
    Agg(usize),
}

impl<'a> TargetPlan<'a> {
    fn of(b: &Bindings, term: &'a Term, what: &str) -> Result<TargetPlan<'a>> {
        match term {
            Term::Skolem(sk) => Ok(TargetPlan::Skolem(SkPlan::of(b, sk)?)),
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
    from: SkPlan<'a>,
    label: LabelPlan<'a>,
    to: TargetPlan<'a>,
}

/// Every construction plan of a block resolved against a bindings schema:
/// variable references as column indexes, literal link labels pre-interned,
/// collect collections pre-resolved.
struct BlockPlans<'a> {
    creates: Vec<SkPlan<'a>>,
    links: Vec<LinkPlan<'a>>,
    collect_syms: Vec<Sym>,
    collects: Vec<TargetPlan<'a>>,
}

fn block_plans<'a>(
    block: &'a Block,
    bindings: &Bindings,
    out: &mut Graph,
) -> Result<BlockPlans<'a>> {
    let creates: Vec<SkPlan<'_>> = block
        .creates
        .iter()
        .map(|sk| SkPlan::of(bindings, sk))
        .collect::<Result<_>>()?;
    let links: Vec<LinkPlan<'_>> = block
        .links
        .iter()
        .map(|link| {
            Ok(LinkPlan {
                from: SkPlan::of(bindings, &link.from)?,
                label: match &link.label {
                    LabelTerm::Lit(s) => LabelPlan::Lit(out.sym(s)),
                    LabelTerm::Var(v) => LabelPlan::Col(
                        bindings.col(v).ok_or_else(|| {
                            StruqlError::eval(format!("link label variable `{v}` unbound"))
                        })?,
                        v,
                    ),
                },
                to: TargetPlan::of(bindings, &link.to, "link target")?,
            })
        })
        .collect::<Result<_>>()?;
    let collect_syms: Vec<Sym> = block
        .collects
        .iter()
        .map(|c| out.ensure_collection(&c.name))
        .collect();
    let collects: Vec<TargetPlan<'_>> = block
        .collects
        .iter()
        .map(|c| TargetPlan::of(bindings, &c.arg, "collect argument"))
        .collect::<Result<_>>()?;
    Ok(BlockPlans {
        creates,
        links,
        collect_syms,
        collects,
    })
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
    out: &mut Graph,
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
/// into `out`.
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
    let plans = block_plans(block, bindings, out)?;
    let mut agg = AggAcc::default();

    let mut args: Vec<Value> = Vec::new();
    for row_idx in 0..bindings.len() {
        let row = bindings.row(row_idx);

        for plan in &plans.creates {
            plan.resolve(table, out, row, &mut args, stats);
        }

        for (link_idx, lp) in plans.links.iter().enumerate() {
            let from = lp.from.resolve(table, out, row, &mut args, stats);
            let label = match &lp.label {
                LabelPlan::Lit(sym) => *sym,
                LabelPlan::Col(c, v) => {
                    let value = &row[*c];
                    match value.text() {
                        Some(t) => out.sym(&t),
                        None => {
                            return Err(StruqlError::eval(format!(
                                "link label variable `{v}` is bound to non-label value {value}"
                            )))
                        }
                    }
                }
            };
            let to: Value = match &lp.to {
                TargetPlan::Skolem(p) => Value::Node(p.resolve(table, out, row, &mut args, stats)),
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

        for (coll_idx, cp) in plans.collects.iter().enumerate() {
            let value: Value = match cp {
                TargetPlan::Skolem(p) => Value::Node(p.resolve(table, out, row, &mut args, stats)),
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
            if table.emit_collect(out, plans.collect_syms[coll_idx], value)? {
                stats.collected += 1;
            }
        }
    }

    emit_aggregates(block, &plans.collect_syms, agg, out, table, stats)
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

    let plans = block_plans(block, bindings, out)?;
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

    let mut args: Vec<Value> = Vec::new();
    for row_idx in 0..bindings.len() {
        let row = bindings.row(row_idx);

        for lp in &plans.links {
            let from = lp.from.resolve_existing(table, row, &mut args)?;
            let label = match &lp.label {
                LabelPlan::Lit(sym) => *sym,
                LabelPlan::Col(c, v) => {
                    let value = &row[*c];
                    match value.text() {
                        Some(t) => out.sym(&t),
                        None => {
                            return Err(StruqlError::eval(format!(
                                "link label variable `{v}` is bound to non-label value {value}"
                            )))
                        }
                    }
                }
            };
            let to_skolem = match &lp.to {
                TargetPlan::Skolem(p) => Some(p.resolve_existing(table, row, &mut args)?),
                _ => None,
            };
            let to: Value = match &lp.to {
                TargetPlan::Skolem(_) => Value::Node(to_skolem.expect("just resolved")),
                TargetPlan::Col(c) => row[*c].clone(),
                TargetPlan::Lit(v) => v.clone(),
                TargetPlan::Agg(_) => unreachable!("rejected above"),
            };
            if table.retract_edge(out, from, label, &to)? {
                stats.edges_removed += 1;
            }
            // Mirror the Skolem resolution reference the apply path took for
            // the target, then the one it took for the source.
            if let Some(t) = to_skolem {
                if table.release_node(out, t)? {
                    stats.nodes_removed += 1;
                }
            }
            if table.release_node(out, from)? {
                stats.nodes_removed += 1;
            }
        }

        for (coll_idx, cp) in plans.collects.iter().enumerate() {
            let skolem = match cp {
                TargetPlan::Skolem(p) => Some(p.resolve_existing(table, row, &mut args)?),
                _ => None,
            };
            let value: Value = match cp {
                TargetPlan::Skolem(_) => Value::Node(skolem.expect("just resolved")),
                TargetPlan::Col(c) => row[*c].clone(),
                TargetPlan::Lit(v) => v.clone(),
                TargetPlan::Agg(_) => unreachable!("rejected above"),
            };
            if table.retract_collect(out, plans.collect_syms[coll_idx], &value)? {
                stats.collect_removed += 1;
            }
            if let Some(s) = skolem {
                if table.release_node(out, s)? {
                    stats.nodes_removed += 1;
                }
            }
        }

        for plan in &plans.creates {
            let oid = plan.resolve_existing(table, row, &mut args)?;
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
        assert!(t.emit_edge(&mut g, a, l, Value::Int(1)).unwrap());
        assert!(!t.emit_edge(&mut g, a, l, Value::Int(1)).unwrap());
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
        t.emit_edge(&mut site, page, story, Value::Node(d)).unwrap();
        assert!(site.contains_node(d));
        let headline = uni.interner().get("headline").unwrap();
        assert_eq!(site.reader().attr(d, headline), Some(&Value::str("hi")));
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
