//! The query stage: evaluating `WHERE` clauses over a graph.
//!
//! Evaluation walks the block tree. For each block, the optimizer orders the
//! block's conditions ([`crate::optimize`]); each condition is then applied
//! as a physical operator that transforms the bindings relation — scans of
//! collection extents and label extensions, out-edge expansion, reverse-index
//! probes, product-automaton traversal for regular path expressions (forward
//! *and* backward), filters for predicates and comparisons, and
//! active-domain expansion for variables no positive condition binds (which
//! gives queries like the graph-complement example of §3 their well-defined
//! meaning).
//!
//! The executor is vectorized over the slab-backed [`Bindings`] relation:
//!
//! * *Widening* operators append base-row slices plus new columns directly
//!   into the output slab ([`Bindings::push_row_extend`]) — no `Vec` is
//!   allocated per emitted row.
//! * *Filters* (no new variables) are semi-joins applied in place with
//!   [`Bindings::retain_rows`]; they never materialize a second relation.
//! * When an edge condition joins a bound variable against the whole edge
//!   set (`arc_edge_scan` with a bound target), a hash probe table over the
//!   edge targets is built once per condition and each row probes it —
//!   replacing the O(rows·edges) nested loop. Row-independent match sets
//!   (unbound or literal targets) are computed once and cross-joined.
//! * Regular-path work is memoized in an evaluator-lifetime [`PathCache`]
//!   shared through [`EvalOptions`]: compiled (and reversed) automata,
//!   per-start reachability sets, and the materialized reverse adjacency
//!   for unindexed graphs all persist across rows, blocks and click-time
//!   re-expansions, validated against the graph's
//!   [`CacheStamp`](strudel_graph::graph::CacheStamp) on every access.
//! * Single-label path steps (`x -> "author" -> a`) bypass the automaton
//!   entirely: label matching is an interned-symbol comparison, so they run
//!   as direct adjacency filters.
//!
//! A nested block starts from its parent's bindings, so the conjunction of
//! ancestor `WHERE` clauses is evaluated exactly once — the paper's nested
//! blocks are both sugar and a shared-prefix optimization here.
//!
//! Equality semantics: `Compare`/`In` conditions and *literals* use the data
//! model's dynamic coercion ([`strudel_graph::Value::coerced_eq`]); joins of
//! two bound variables and index probes use strict equality (indexes are
//! exact). Hash probe tables are therefore only built for strict-equality
//! joins. A *bound label* is compared as a symbol: an arc operator resolves
//! the row's label value to the symbols it stands for under that coercion
//! once per run of equal values (`LabelSyms`) and compares symbols per
//! edge. This is documented behaviour of this reproduction.
//!
//! Relations are sets: an arc operator emits a row per edge and a
//! single-label operator a row per distinct `(source, target)` — the graph
//! is a multigraph — and construction, aggregates and click-time links all
//! read a relation as a set, so a plan may use either.

use crate::analyze::analyze;
use crate::ast::*;
use crate::binding::Bindings;
use crate::construct::{apply_block, ConstructStats, SkolemTable};
use crate::error::{Result, StruqlError};
use crate::optimize::{eligible, multiplier, vars_of, GraphStats, Optimizer};
use crate::plan::{choose_op, replan_suffix, validate, PhysOp, PhysicalPlan, PlanCache, PlanNode};
use crate::pred::PredicateRegistry;
use crate::rpe::Nfa;
use std::collections::VecDeque;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use strudel_graph::fxhash::{FxHashMap, FxHashSet};
use strudel_graph::graph::{CacheStamp, GraphReader};
use strudel_graph::{Graph, Oid, Sym, Value};
use strudel_obs::{trace, Timer};

/// Reverse adjacency / probe-table shape: edge target value → the
/// `(source, label)` pairs of edges arriving at it.
type RevAdj = FxHashMap<Value, Vec<(Oid, Sym)>>;

pub use crate::optimize::Optimizer as OptimizerChoice;

/// Options controlling evaluation.
#[derive(Clone)]
pub struct EvalOptions {
    /// Plan-selection strategy (default: cost-based).
    pub optimizer: Optimizer,
    /// Predicate registry (default: the built-ins).
    pub predicates: PredicateRegistry,
    /// Hard cap on the size of any intermediate bindings relation; guards
    /// against accidental active-domain cross products.
    pub max_rows: usize,
    /// Memo caches for regular-path work, shared by every evaluation using
    /// (a clone of) these options and invalidated by graph mutation.
    pub path_cache: Arc<PathCache>,
    /// Memo of compiled physical plans, shared like [`EvalOptions::path_cache`]
    /// and validated against the graph revision
    /// ([`strudel_graph::graph::CacheStamp::same_graph`]).
    pub plan_cache: Arc<PlanCache>,
    /// Re-optimize the remaining plan suffix when an executed node produces
    /// more than 8× its estimated rows (and at least 128 rows, with ≥ 2
    /// conditions left; see [`crate::plan::replan_suffix`]).
    pub adaptive: bool,
}

impl Default for EvalOptions {
    fn default() -> Self {
        EvalOptions {
            optimizer: Optimizer::CostBased,
            predicates: PredicateRegistry::with_builtins(),
            max_rows: 10_000_000,
            path_cache: Arc::new(PathCache::default()),
            plan_cache: Arc::new(PlanCache::default()),
            adaptive: true,
        }
    }
}

impl EvalOptions {
    /// Options using the given optimizer, otherwise defaults.
    pub fn with_optimizer(optimizer: Optimizer) -> Self {
        EvalOptions {
            optimizer,
            ..Default::default()
        }
    }
}

/// Evaluator-lifetime memo caches for regular-path-expression work.
///
/// Cloning [`EvalOptions`] shares the cache, so a site server reuses
/// reachability results across clicks and blocks. Every access validates the
/// stored [`CacheStamp`] against the graph being evaluated; any mutation of
/// the graph (or of its universe) clears the cache, so stale entries can
/// never be observed.
#[derive(Default)]
pub struct PathCache {
    inner: Mutex<PathCacheInner>,
    /// Observability counters. Outside the inner mutex (and never reset by
    /// invalidation) so they survive stamp-mismatch wipes and can be read
    /// without contending with evaluation.
    counters: PathCacheCounters,
}

strudel_obs::signals! {
    /// The cells behind [`PathCacheStats`].
    struct PathCacheCounters;
    /// A snapshot of [`PathCache`] counters: lookups answered from the memo,
    /// lookups that had to compute (and then cached) their result, and times
    /// a graph mutation (stamp mismatch) wiped the entries.
    pub struct PathCacheStats {}
    hits: Counter, "path_cache.hits", "strudel_path_cache_hits_total",
        "Regular-path-expression memo-cache hits.";
    misses: Counter, "path_cache.misses", "strudel_path_cache_misses_total",
        "Regular-path-expression memo-cache misses.";
    invalidations: Counter, "path_cache.invalidations", "strudel_path_cache_invalidations_total",
        "Regular-path-expression memo-cache invalidations.";
}

impl PathCache {
    /// Drops all cached state (useful for benchmarks isolating cold costs).
    /// Counters are kept: they report cache behaviour over the cache's
    /// whole lifetime.
    pub fn clear(&self) {
        *self.lock() = PathCacheInner::default();
    }

    /// The hit/miss/invalidation counters.
    pub fn stats(&self) -> PathCacheStats {
        self.counters.snapshot()
    }

    fn lock(&self) -> MutexGuard<'_, PathCacheInner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

#[derive(Default)]
struct PathCacheInner {
    /// The graph state the entries below were computed against.
    stamp: Option<CacheStamp>,
    /// RPE (display form) → compiled automaton.
    compiled: FxHashMap<String, Arc<Nfa>>,
    /// Every automaton that keys a memo entry, kept alive so the pointer
    /// keys below can never be reused by a new allocation while entries
    /// referencing them exist.
    pinned: FxHashMap<usize, Arc<Nfa>>,
    /// Forward automaton (by address) → reversed automaton.
    reversed: FxHashMap<usize, Arc<Nfa>>,
    /// (automaton, start) → values reachable along a matching path.
    forward: FxHashMap<(usize, Value), Arc<Reach>>,
    /// (reversed automaton, target) → values a matching path reaches it from.
    backward: FxHashMap<(usize, Value), Arc<Reach>>,
    /// Materialized reverse adjacency for unindexed graphs, built at most
    /// once per cache lifetime.
    reverse_adj: Option<Arc<RevAdj>>,
}

impl PathCacheInner {
    fn pin(&mut self, nfa: &Arc<Nfa>) {
        self.pinned
            .entry(Arc::as_ptr(nfa) as usize)
            .or_insert_with(|| Arc::clone(nfa));
    }
}

/// A reachability result: values in BFS emission order plus the same values
/// as a set for O(1) membership probes.
struct Reach {
    order: Vec<Value>,
    set: FxHashSet<Value>,
}

/// Counters from one evaluation. What each executed operator did is in
/// its `eval.op` span (see [`strudel_obs::trace`]).
#[derive(Default, Clone, Debug)]
pub struct EvalStats {
    /// Conditions applied (across all blocks).
    pub conditions_applied: u64,
    /// Total rows produced by all intermediate relations.
    pub intermediate_rows: u64,
    /// Times adaptive execution re-optimized a running plan's suffix from
    /// sampled runtime cardinalities.
    pub plan_replans: u64,
    /// Construction-stage counters.
    pub construct: ConstructStats,
    /// Wall time of the query stage — executing each block's conditions
    /// into its bindings relation — in microseconds, summed over blocks.
    pub query_us: u64,
    /// Wall time of the construction stage — applying each block's
    /// `CREATE`/`LINK`/`COLLECT` clauses to its relation — in microseconds,
    /// summed over blocks.
    pub construct_us: u64,
    /// Analyzer warnings (active-domain fallbacks etc.).
    pub warnings: Vec<String>,
}

/// The result of evaluating a query: the output graph plus statistics.
#[derive(Debug)]
pub struct EvalOutput {
    /// The constructed output graph (shares the input's universe).
    pub graph: Graph,
    /// The Skolem table: which `F(args)` produced which node. Site
    /// verification uses this to find the extension of each Skolem function.
    pub table: SkolemTable,
    /// Evaluation statistics.
    pub stats: EvalStats,
}

impl Query {
    /// Evaluates the query against `input`, producing a fresh output graph
    /// in the same universe.
    pub fn evaluate(&self, input: &Graph, opts: &EvalOptions) -> Result<EvalOutput> {
        let mut out = Graph::new(Arc::clone(input.universe()));
        let mut table = SkolemTable::new();
        let stats = self.evaluate_into(input, &mut out, &mut table, opts)?;
        Ok(EvalOutput {
            graph: out,
            table,
            stats,
        })
    }

    /// Evaluates the query, writing construction results into an existing
    /// graph with an externally owned Skolem table. This is how "different
    /// queries create different parts of the same site" (§5.2): queries
    /// sharing a table resolve the same Skolem terms to the same nodes.
    pub fn evaluate_into(
        &self,
        input: &Graph,
        out: &mut Graph,
        table: &mut SkolemTable,
        opts: &EvalOptions,
    ) -> Result<EvalStats> {
        let analyzed = analyze(self, &opts.predicates)?;
        let mut ev = Ev::new(input, opts);
        ev.stats.warnings = analyzed.warnings;
        let arc_vars = arc_vars_of(&analyzed.query);
        ev.eval_block(
            &analyzed.query.root,
            &Bindings::unit(),
            out,
            table,
            &arc_vars,
        )?;
        Ok(ev.stats)
    }

    /// Evaluates only the *query stage* for the conjunction governing block
    /// `id` (ancestors' conditions plus the block's own), returning the
    /// bindings relation.
    pub fn bindings_of_block(
        &self,
        id: BlockId,
        input: &Graph,
        opts: &EvalOptions,
    ) -> Result<Bindings> {
        let analyzed = analyze(self, &opts.predicates)?;
        let conds: Vec<Condition> = analyzed
            .query
            .governing_conditions(id)
            .ok_or_else(|| StruqlError::eval(format!("no block {id}")))?
            .into_iter()
            .cloned()
            .collect();
        let mut ev = Ev::new(input, opts);
        let arc_vars = arc_vars_of(&analyzed.query);
        let plan =
            opts.plan_cache
                .get_or_compile(&conds, &FxHashSet::default(), input, opts.optimizer)?;
        ev.eval_conditions(&conds, &plan, Bindings::unit(), &arc_vars)
    }

    /// Returns the compiled physical plan for every block, without executing
    /// the query. Each block is compiled against the variables its ancestors
    /// bind, so the printed operators are the ones evaluation would execute.
    pub fn explain(&self, input: &Graph, opts: &EvalOptions) -> Result<String> {
        fn walk<'q>(
            block: &'q Block,
            bound: &FxHashSet<&'q str>,
            input: &Graph,
            opts: &EvalOptions,
            out: &mut String,
        ) -> Result<()> {
            if !block.where_.is_empty() {
                let p = PhysicalPlan::compile(&block.where_, bound, input, opts.optimizer)?;
                out.push_str(&format!("{}:\n{}", block.id, p.describe(&block.where_)));
            }
            let mut child_bound = bound.clone();
            for cond in &block.where_ {
                for v in vars_of(cond) {
                    child_bound.insert(v);
                }
            }
            for child in &block.children {
                walk(child, &child_bound, input, opts, out)?;
            }
            Ok(())
        }
        let analyzed = analyze(self, &opts.predicates)?;
        let mut out = String::new();
        walk(
            &analyzed.query.root,
            &FxHashSet::default(),
            input,
            opts,
            &mut out,
        )?;
        Ok(out)
    }
}

/// Runs a query against a [`strudel_graph::Database`], resolving the
/// `INPUT` graph name and materializing (or extending) the `OUTPUT` graph:
/// `INPUT BIBTEX … OUTPUT HomePage` reads `db["BIBTEX"]` and writes
/// `db["HomePage"]`. If the output graph already exists the query *extends*
/// it — the §5.2 composition mode ("we allowed queries to add nodes and
/// arcs to a graph, instead of creating a new graph in every query") — with
/// the caller-supplied Skolem table carrying identity across queries.
pub fn run_on_database(
    db: &mut strudel_graph::Database,
    query: &Query,
    table: &mut SkolemTable,
    opts: &EvalOptions,
) -> Result<EvalStats> {
    let input_name = query
        .input
        .as_deref()
        .ok_or_else(|| StruqlError::eval("query has no INPUT graph name"))?;
    let output_name = query
        .output
        .as_deref()
        .ok_or_else(|| StruqlError::eval("query has no OUTPUT graph name"))?
        .to_string();
    // Take the output graph out of the database (creating it if missing) so
    // input and output can be borrowed simultaneously.
    let mut out = match db.remove_graph(&output_name) {
        Ok(g) => g,
        Err(_) => Graph::new(Arc::clone(db.universe())),
    };
    let result = {
        let input = db.graph(input_name)?;
        query.evaluate_into(input, &mut out, table, opts)
    };
    db.insert_graph(&output_name, out)?;
    result
}

/// Evaluates a bare conjunction of (already analyzed) conditions against a
/// graph, starting from the given bindings. This is the query-stage entry
/// point used by click-time/incremental evaluation ([FER 98c]): the dynamic
/// evaluator binds a page's Skolem arguments and runs only the governing
/// conjunction of one link clause.
pub fn evaluate_conditions(
    conds: &[Condition],
    input: &Graph,
    start: Bindings,
    opts: &EvalOptions,
) -> Result<Bindings> {
    let bound: FxHashSet<&str> = start.vars().iter().map(String::as_str).collect();
    let plan = opts
        .plan_cache
        .get_or_compile(conds, &bound, input, opts.optimizer)?;
    run_plan(conds, &plan, input, start, opts)
}

/// Executes `plan` over `conds` from `start`, after validating it against
/// `start`'s schema ([`crate::plan::validate`]): the entry point for a plan
/// the caller put together itself — a prefix of a compiled plan, the same
/// conjunction on a different operator.
pub fn execute_plan(
    conds: &[Condition],
    plan: &PhysicalPlan,
    input: &Graph,
    start: Bindings,
    opts: &EvalOptions,
) -> Result<Bindings> {
    validate(
        &plan.nodes,
        conds,
        &start.vars().iter().map(String::as_str).collect(),
    )?;
    run_plan(conds, plan, input, start, opts)
}

fn run_plan(
    conds: &[Condition],
    plan: &PhysicalPlan,
    input: &Graph,
    start: Bindings,
    opts: &EvalOptions,
) -> Result<Bindings> {
    let mut arc_vars = FxHashSet::default();
    for cond in conds {
        if let Condition::Edge {
            step: PathStep::ArcVar(v),
            ..
        } = cond
        {
            arc_vars.insert(v.clone());
        }
    }
    Ev::new(input, opts).eval_conditions(conds, plan, start, &arc_vars)
}

/// The set of arc variables of a query (variables appearing in arc position
/// of some edge condition or as a link-label variable); used to pick the
/// active domain (labels vs. nodes) when expanding an unbound variable.
fn arc_vars_of(q: &Query) -> FxHashSet<String> {
    let mut out = FxHashSet::default();
    for block in q.blocks() {
        for cond in &block.where_ {
            if let Condition::Edge {
                step: PathStep::ArcVar(v),
                ..
            } = cond
            {
                out.insert(v.clone());
            }
        }
        for link in &block.links {
            if let LabelTerm::Var(v) = &link.label {
                out.insert(v.clone());
            }
        }
    }
    out
}

struct Ev<'g> {
    graph: &'g Graph,
    opts: &'g EvalOptions,
    stats: EvalStats,
}

impl<'g> Ev<'g> {
    fn new(graph: &'g Graph, opts: &'g EvalOptions) -> Self {
        Ev {
            graph,
            opts,
            stats: EvalStats::default(),
        }
    }

    /// Locks the options' path cache, clearing it first if the graph (or
    /// its universe) has changed since the entries were computed.
    fn cache(&self) -> MutexGuard<'_, PathCacheInner> {
        let path_cache = &self.opts.path_cache;
        let mut c = path_cache.lock();
        let stamp = self.graph.cache_stamp();
        if c.stamp != Some(stamp) {
            if c.stamp.is_some() {
                path_cache.counters.invalidations.inc();
            }
            *c = PathCacheInner {
                stamp: Some(stamp),
                ..PathCacheInner::default()
            };
        }
        c
    }

    fn cache_hit(&self) {
        self.opts.path_cache.counters.hits.inc();
    }

    fn cache_miss(&self) {
        self.opts.path_cache.counters.misses.inc();
    }

    /// The compiled automaton for `rpe`, from the cache.
    fn compiled_nfa(&self, rpe: &Rpe) -> Arc<Nfa> {
        let key = rpe.to_string();
        {
            let c = self.cache();
            if let Some(n) = c.compiled.get(&key) {
                self.cache_hit();
                return Arc::clone(n);
            }
        }
        self.cache_miss();
        let nfa = Arc::new(Nfa::compile(rpe, self.graph.universe().interner()));
        let mut c = self.cache();
        let n = Arc::clone(c.compiled.entry(key).or_insert(nfa));
        c.pin(&n);
        n
    }

    /// The reversed automaton for `nfa`, from the cache.
    fn reversed_nfa(&self, nfa: &Arc<Nfa>) -> Arc<Nfa> {
        let key = Arc::as_ptr(nfa) as usize;
        {
            let c = self.cache();
            if let Some(r) = c.reversed.get(&key) {
                self.cache_hit();
                return Arc::clone(r);
            }
        }
        self.cache_miss();
        let rev = Arc::new(nfa.reversed());
        let mut c = self.cache();
        c.pin(nfa);
        let r = Arc::clone(c.reversed.entry(key).or_insert(rev));
        c.pin(&r);
        r
    }

    /// Values reachable from `start` along a path matching `nfa`, memoized
    /// across rows, blocks and evaluations.
    fn forward_reach(&self, reader: &GraphReader<'_>, nfa: &Arc<Nfa>, start: &Value) -> Arc<Reach> {
        let key = (Arc::as_ptr(nfa) as usize, start.clone());
        {
            let c = self.cache();
            if let Some(r) = c.forward.get(&key) {
                self.cache_hit();
                return Arc::clone(r);
            }
        }
        self.cache_miss();
        let r = Arc::new(self.rpe_forward(reader, nfa, start));
        let mut c = self.cache();
        c.pin(nfa);
        Arc::clone(c.forward.entry(key).or_insert(r))
    }

    /// Values from which a path matching the (forward) automaton reaches
    /// `start`, traversed over `rev`/`adj`, memoized like `forward_reach`.
    fn backward_reach(&self, rev: &Arc<Nfa>, adj: &ReverseAdj<'_>, start: &Value) -> Arc<Reach> {
        let key = (Arc::as_ptr(rev) as usize, start.clone());
        {
            let c = self.cache();
            if let Some(r) = c.backward.get(&key) {
                self.cache_hit();
                return Arc::clone(r);
            }
        }
        self.cache_miss();
        let r = Arc::new(self.rpe_backward(rev, adj, start));
        let mut c = self.cache();
        c.pin(rev);
        Arc::clone(c.backward.entry(key).or_insert(r))
    }

    fn label_value(&self, sym: Sym) -> Value {
        Value::Str(self.graph.universe().interner().resolve(sym))
    }

    fn eval_block(
        &mut self,
        block: &Block,
        parent: &Bindings,
        out: &mut Graph,
        table: &mut SkolemTable,
        arc_vars: &FxHashSet<String>,
    ) -> Result<()> {
        // Open until the block's children are done, so the span tree is the
        // block tree and each `eval.op` hangs off the block that ran it.
        let mut span = trace::span("eval.block", trace::Layer::Eval);
        if span.is_live() {
            span.attr_text("block", &block.id.to_string());
        }
        let bindings = if block.where_.is_empty() {
            parent.clone()
        } else {
            let bound: FxHashSet<&str> = parent.vars().iter().map(String::as_str).collect();
            let p = self.opts.plan_cache.get_or_compile(
                &block.where_,
                &bound,
                self.graph,
                self.opts.optimizer,
            )?;
            let t = Timer::start();
            let bindings = self.eval_conditions(&block.where_, &p, parent.clone(), arc_vars)?;
            self.stats.query_us += t.elapsed_us();
            bindings
        };
        let t = Timer::start();
        apply_block(block, &bindings, out, table, &mut self.stats.construct)?;
        self.stats.construct_us += t.elapsed_us();
        for child in &block.children {
            self.eval_block(child, &bindings, out, table, arc_vars)?;
        }
        Ok(())
    }

    /// Executes a compiled plan over `conds`, starting from `start`.
    ///
    /// When [`EvalOptions::adaptive`] is set and an executed node's observed
    /// rows-out exceeds `ADAPT_FACTOR` times its estimate, the remaining
    /// suffix is re-optimized:
    /// each pending condition's result multiplier is *measured* on a small
    /// sample of the live relation and [`replan_suffix`] reorders what is
    /// left using those measurements. The output relation is canonically
    /// sorted, so the row sequence (hence construction order, node identity
    /// and final page bytes) is independent of the physical plan executed.
    fn eval_conditions(
        &mut self,
        conds: &[Condition],
        plan: &PhysicalPlan,
        start: Bindings,
        arc_vars: &FxHashSet<String>,
    ) -> Result<Bindings> {
        let mut nodes: Vec<PlanNode> = plan.nodes.clone();
        // Every operator appends to its input's columns, so the start schema
        // stays the first columns of the live relation.
        let start_width = start.width();
        let mut b = start;
        let mut replans = 0u32;
        let mut k = 0;
        while k < nodes.len() {
            let node = nodes[k].clone();
            let cond = &conds[node.cond];
            let rows_in = b.len() as u64;
            // One flight-recorder span per executed plan node, the one
            // record of what it did (inert unless a trace is active on this
            // thread): the PhysOp tag, the optimizer's estimated vs.
            // observed rows and the path-cache traffic make a bad plan
            // visible in /debug/traces and under `--profile`.
            let mut tspan = trace::span("eval.op", trace::Layer::Eval);
            let path_before = tspan.is_live().then(|| {
                tspan.attr_text("op", node.op.tag());
                tspan.attr_text("cond", &cond.to_string());
                tspan.attr_u64("rows_in", rows_in);
                tspan.attr_u64("est_rows", (node.est_mult * rows_in as f64).max(1.0) as u64);
                self.opts.path_cache.stats()
            });
            b = self.execute_op(node.op, node.label.as_deref(), cond, b, arc_vars)?;
            tspan.attr_u64("obs_rows", b.len() as u64);
            if let Some(before) = path_before {
                let after = self.opts.path_cache.stats();
                tspan.attr_u64("path_hits", after.hits.saturating_sub(before.hits));
                tspan.attr_u64("path_misses", after.misses.saturating_sub(before.misses));
            }
            drop(tspan);
            self.stats.conditions_applied += 1;
            self.stats.intermediate_rows += b.len() as u64;
            if b.len() > self.opts.max_rows {
                return Err(StruqlError::eval(format!(
                    "intermediate result exceeded max_rows ({} rows) at condition `{cond}`",
                    b.len()
                )));
            }
            if b.is_empty() {
                // Short-circuit: the conjunction is unsatisfiable.
                break;
            }
            // Adaptive re-optimization: only when the estimate was badly
            // wrong on a relation big enough for the divergence to matter,
            // with enough plan left for a different order to pay off.
            const ADAPT_FACTOR: f64 = 8.0;
            let observed = b.len() as f64;
            let expected = (node.est_mult * rows_in as f64).max(1.0);
            if self.opts.adaptive
                && replans < 2
                && nodes.len() - k > 2
                && b.len() >= 128
                && observed > expected * ADAPT_FACTOR
            {
                let remaining: Vec<usize> = nodes[k + 1..].iter().map(|n| n.cond).collect();
                let measured = self.sample_multipliers(conds, &remaining, &b, arc_vars);
                if !measured.is_empty() {
                    let bound: FxHashSet<&str> = b.vars().iter().map(String::as_str).collect();
                    let start = b.vars()[..start_width].iter().map(String::as_str).collect();
                    let suffix = replan_suffix(
                        conds, &remaining, &start, &bound, self.graph, observed, &measured,
                    );
                    nodes.truncate(k + 1);
                    nodes.extend(suffix);
                    self.stats.plan_replans += 1;
                    replans += 1;
                }
            }
            k += 1;
        }
        // Canonical order: columns were fixed by the schema, rows are sorted
        // by a total order over values, so the same result relation is
        // byte-identical whatever plan produced it.
        b.canonical_sort();
        Ok(b)
    }

    /// Measures result multipliers for the pending conditions by running
    /// each one over a sample of the live relation through the real
    /// operators. Conditions that are not yet eligible (their active-domain
    /// expansion would race a later binder), whose estimated output would
    /// make the sample itself expensive, or that error are skipped — the
    /// re-planner falls back to static estimates for those.
    fn sample_multipliers(
        &mut self,
        conds: &[Condition],
        remaining: &[usize],
        b: &Bindings,
        arc_vars: &FxHashSet<String>,
    ) -> FxHashMap<usize, f64> {
        const SAMPLE_ROWS: usize = 16;
        const SAMPLE_OUT_BUDGET: f64 = 50_000.0;
        let n = b.len().min(SAMPLE_ROWS);
        let mut sample = Bindings::with_vars(b.vars().to_vec());
        for i in 0..n {
            sample.push_row(b.row(i));
        }
        let stats = GraphStats::of(self.graph);
        let bound: FxHashSet<&str> = b.vars().iter().map(String::as_str).collect();
        let rem_refs: Vec<&Condition> = remaining.iter().map(|&i| &conds[i]).collect();
        let mut measured = FxHashMap::default();
        for &i in remaining {
            let cond = &conds[i];
            if !eligible(cond, &bound, &rem_refs) {
                continue;
            }
            let (static_mult, _) = multiplier(cond, None, &bound, self.graph, &stats);
            if static_mult * n as f64 > SAMPLE_OUT_BUDGET {
                continue;
            }
            // The operator the sample's own schema asks for: compiling a
            // plan for one application would cost more than it saves.
            let op = choose_op(cond, false, &|v| sample.is_bound(v), stats.indexed);
            if let Ok(out) = self.execute_op(op, None, cond, sample.clone(), arc_vars) {
                measured.insert(i, (out.len() as f64 / n as f64).max(1e-6));
            }
        }
        measured
    }

    // ---- the physical operators ----

    /// Executes one plan node's operator. This is the single dispatch point:
    /// both the plan-driven path and adaptive sampling go through it.
    /// `known`: the label the plan knows the condition's arc variable to
    /// carry.
    fn execute_op(
        &mut self,
        op: PhysOp,
        known: Option<&str>,
        cond: &Condition,
        input: Bindings,
        arc_vars: &FxHashSet<String>,
    ) -> Result<Bindings> {
        let mismatch = || {
            StruqlError::eval(format!(
                "plan operator `{}` does not apply to condition `{cond}`",
                op.tag()
            ))
        };
        match cond {
            Condition::Collection { name, arg, negated } => match op {
                PhysOp::CollectionSemijoin => self.collection_semijoin(name, arg, *negated, input),
                PhysOp::CollectionScan => self.collection_scan(name, arg, *negated, input),
                PhysOp::CollectionConst => self.collection_const(name, arg, *negated, input),
                _ => Err(mismatch()),
            },
            Condition::Compare { lhs, op: cmp, rhs } => match op {
                PhysOp::CompareBind => self.compare_bind(lhs, rhs, input),
                PhysOp::CompareFilter => self.compare_filter(lhs, *cmp, rhs, input, arc_vars),
                _ => Err(mismatch()),
            },
            Condition::In { var, set, negated } => match op {
                PhysOp::InSemijoin => self.in_semijoin(var, set, *negated, input, arc_vars),
                PhysOp::InExpand => self.in_expand(var, set, input),
                _ => Err(mismatch()),
            },
            Condition::Predicate {
                name,
                args,
                negated,
            } => match op {
                PhysOp::PredicateFilter => {
                    self.predicate_filter(name, args, *negated, input, arc_vars)
                }
                _ => Err(mismatch()),
            },
            Condition::Edge { from, step, to, .. } => {
                // The one label a single-label operator follows: the step's
                // own, or the one the plan knows the arc variable carries.
                let name = match step {
                    PathStep::Rpe(Rpe::Label(name)) => Some(name.as_str()),
                    PathStep::ArcVar(_) => known,
                    _ => None,
                };
                match (op, step, name) {
                    (PhysOp::NegEdgeSemijoin, PathStep::ArcVar(l), _) => {
                        self.neg_edge_semijoin(from, l, to, input, arc_vars)
                    }
                    (PhysOp::ArcForward, PathStep::ArcVar(l), _) => {
                        self.arc_edge_forward(from, l, to, input)
                    }
                    (PhysOp::ArcReverseIndex, PathStep::ArcVar(l), _) => {
                        self.arc_edge_backward(from, l, to, input)
                    }
                    (PhysOp::ArcHashJoin | PhysOp::ArcScan, PathStep::ArcVar(l), _) => {
                        self.arc_edge_scan(from, l, to, input)
                    }
                    (PhysOp::NegLabelSemijoin, PathStep::Rpe(_), Some(name)) => {
                        self.neg_label_semijoin(name, from, to, input, arc_vars)
                    }
                    (PhysOp::LabelForward | PhysOp::LabelSemijoin, _, Some(name)) => {
                        self.label_from_bound(name, from, to, input)
                    }
                    (PhysOp::LabelReverseIndex | PhysOp::LabelHashJoin, _, Some(name)) => {
                        self.label_to_bound(name, from, to, input)
                    }
                    (PhysOp::LabelScan, _, Some(name)) => self.label_scan(name, from, to, input),
                    (PhysOp::NegRpeSemijoin, PathStep::Rpe(rpe), _) => {
                        self.neg_rpe_semijoin(rpe, from, to, input, arc_vars)
                    }
                    (PhysOp::RpeForward, PathStep::Rpe(rpe), _) => {
                        let nfa = self.compiled_nfa(rpe);
                        self.rpe_from_bound(&nfa, from, to, input)
                    }
                    (PhysOp::RpeReverse, PathStep::Rpe(rpe), _) => {
                        let nfa = self.compiled_nfa(rpe);
                        self.rpe_to_bound(&nfa, from, to, input)
                    }
                    (PhysOp::RpeScan, PathStep::Rpe(rpe), _) => {
                        let nfa = self.compiled_nfa(rpe);
                        self.rpe_both_unbound(&nfa, from, to, input)
                    }
                    (PhysOp::BareEdge, PathStep::Bare(name), _) => Err(StruqlError::eval(format!(
                        "unresolved bare path step `{name}` (query was not analyzed)"
                    ))),
                    _ => Err(mismatch()),
                }
            }
        }
    }

    /// Active-domain values for a variable: all labels if it is an arc
    /// variable, else all member nodes (documented choice; see module docs).
    fn active_domain(&self, var: &str, arc_vars: &FxHashSet<String>) -> Vec<Value> {
        if arc_vars.contains(var) {
            self.graph
                .labels()
                .into_iter()
                .map(|s| self.label_value(s))
                .collect()
        } else {
            self.graph.nodes().iter().map(|&n| Value::Node(n)).collect()
        }
    }

    /// Expands every unbound variable of `vars` over its active domain.
    fn expand_active(
        &self,
        mut b: Bindings,
        vars: &[&str],
        arc_vars: &FxHashSet<String>,
    ) -> Result<Bindings> {
        for var in vars {
            if b.is_bound(var) {
                continue;
            }
            let domain = self.active_domain(var, arc_vars);
            if b.len().saturating_mul(domain.len()) > self.opts.max_rows {
                return Err(StruqlError::eval(format!(
                    "active-domain expansion of `{var}` exceeded max_rows"
                )));
            }
            let mut out = Bindings::with_vars(b.vars().to_vec());
            out.add_var(var);
            out.reserve_rows(b.len().saturating_mul(domain.len()));
            for row in b.rows() {
                for v in &domain {
                    out.push_row_extend(row, [v.clone()]);
                }
            }
            b = out;
        }
        Ok(b)
    }

    /// Membership filter of a bound variable against the collection extent.
    fn collection_semijoin(
        &mut self,
        name: &str,
        arg: &Term,
        negated: bool,
        mut input: Bindings,
    ) -> Result<Bindings> {
        let coll = self.graph.collection_str(name);
        let Term::Var(v) = arg else {
            return Err(StruqlError::eval(format!(
                "collection semijoin needs a variable argument, got `{arg}`"
            )));
        };
        let col = input.col(v).expect("bound");
        input.retain_rows(|row| coll.is_some_and(|c| c.contains(&row[col])) != negated);
        Ok(input)
    }

    /// Cross-join of the input with the collection's extent (or, negated,
    /// its complement over the member nodes), binding a fresh variable.
    fn collection_scan(
        &mut self,
        name: &str,
        arg: &Term,
        negated: bool,
        input: Bindings,
    ) -> Result<Bindings> {
        let coll = self.graph.collection_str(name);
        let Term::Var(v) = arg else {
            return Err(StruqlError::eval(format!(
                "collection scan needs a variable argument, got `{arg}`"
            )));
        };
        // The emitted domain is row-independent: the collection's
        // extent, or (negated) its complement over the member nodes.
        let domain: Vec<Value> = if !negated {
            match coll {
                Some(c) => c.items().to_vec(),
                None => Vec::new(),
            }
        } else {
            self.graph
                .nodes()
                .iter()
                .map(|&n| Value::Node(n))
                .filter(|v| !coll.is_some_and(|c| c.contains(v)))
                .collect()
        };
        let mut out = Bindings::with_vars(input.vars().to_vec());
        out.add_var(v);
        out.reserve_rows(input.len().saturating_mul(domain.len()));
        for row in input.rows() {
            for item in &domain {
                out.push_row_extend(row, [item.clone()]);
            }
        }
        Ok(out)
    }

    /// Constant membership test of a literal: keeps or empties the input.
    fn collection_const(
        &mut self,
        name: &str,
        arg: &Term,
        negated: bool,
        mut input: Bindings,
    ) -> Result<Bindings> {
        let coll = self.graph.collection_str(name);
        match arg {
            Term::Lit(l) => {
                let val = l.to_value();
                let present = coll.is_some_and(|c| c.contains(&val));
                if present == negated {
                    input.clear_rows();
                }
                Ok(input)
            }
            Term::Var(v) => Err(StruqlError::eval(format!(
                "collection const got variable `{v}`"
            ))),
            other => Err(not_a_where_term(other)),
        }
    }

    /// Assignment `v = <bound term>`: binds the unbound side, one row out
    /// per row in.
    fn compare_bind(&mut self, lhs: &Term, rhs: &Term, input: Bindings) -> Result<Bindings> {
        let lb = match lhs {
            Term::Var(v) => input.is_bound(v),
            _ => true,
        };
        let (var, bound_term) = if lb {
            (rhs.as_var().expect("unbound side is a var"), lhs)
        } else {
            (lhs.as_var().expect("unbound side is a var"), rhs)
        };
        let slot = TermSlot::of(&input, bound_term)?;
        let mut out = Bindings::with_vars(input.vars().to_vec());
        out.add_var(var);
        out.reserve_rows(input.len());
        for row in input.rows() {
            out.push_row_extend(row, [slot.value(row).clone()]);
        }
        Ok(out)
    }

    /// General comparison: expand any unbound vars, then filter in place.
    fn compare_filter(
        &mut self,
        lhs: &Term,
        op: CmpOp,
        rhs: &Term,
        input: Bindings,
        arc_vars: &FxHashSet<String>,
    ) -> Result<Bindings> {
        // (`expand_active` passes over the variables that are bound.)
        let need: Vec<&str> = [lhs, rhs].into_iter().filter_map(Term::as_var).collect();
        let mut b = self.expand_active(input, &need, arc_vars)?;
        let ls = TermSlot::of(&b, lhs)?;
        let rs = TermSlot::of(&b, rhs)?;
        b.retain_rows(|row| compare(ls.value(row), op, rs.value(row)));
        Ok(b)
    }

    /// `v IN {…}` membership filter. An unbound variable (only reachable
    /// negated — the planner routes positive unbound `IN` to
    /// [`Ev::in_expand`]) is expanded over its active domain first.
    fn in_semijoin(
        &mut self,
        var: &str,
        set: &[Literal],
        negated: bool,
        input: Bindings,
        arc_vars: &FxHashSet<String>,
    ) -> Result<Bindings> {
        let mut input = if input.is_bound(var) {
            input
        } else {
            self.expand_active(input, &[var], arc_vars)?
        };
        let col = input.col(var).expect("bound");
        let vals: Vec<Value> = set.iter().map(Literal::to_value).collect();
        input.retain_rows(|row| vals.iter().any(|v| v.coerced_eq(&row[col])) != negated);
        Ok(input)
    }

    /// `v IN {…}` enumeration: binds `v` to each set element.
    fn in_expand(&mut self, var: &str, set: &[Literal], input: Bindings) -> Result<Bindings> {
        let vals: Vec<Value> = set.iter().map(Literal::to_value).collect();
        let mut out = Bindings::with_vars(input.vars().to_vec());
        out.add_var(var);
        out.reserve_rows(input.len().saturating_mul(vals.len()));
        for row in input.rows() {
            for v in &vals {
                out.push_row_extend(row, [v.clone()]);
            }
        }
        Ok(out)
    }

    /// Built-in/external predicate filter (expanding unbound args first).
    fn predicate_filter(
        &mut self,
        name: &str,
        args: &[Term],
        negated: bool,
        input: Bindings,
        arc_vars: &FxHashSet<String>,
    ) -> Result<Bindings> {
        let need: Vec<&str> = args
            .iter()
            .filter_map(|t| t.as_var())
            .filter(|v| !input.is_bound(v))
            .collect();
        let mut b = self.expand_active(input, &need, arc_vars)?;
        let slots: Vec<TermSlot> = args
            .iter()
            .map(|a| TermSlot::of(&b, a))
            .collect::<Result<_>>()?;
        let preds = &self.opts.predicates;
        let mut unknown = false;
        b.retain_rows(|row| {
            let refs: Vec<&Value> = slots.iter().map(|s| s.value(row)).collect();
            match preds.apply(name, &refs) {
                Some(holds) => holds != negated,
                None => {
                    unknown = true;
                    false
                }
            }
        });
        if unknown {
            return Err(StruqlError::eval(format!("unknown predicate `{name}`")));
        }
        Ok(b)
    }

    /// Negated `from -> l -> to` (arc variable): anti-semijoin against the
    /// edge set, expanding any unbound variables over the active domain.
    fn neg_edge_semijoin(
        &mut self,
        from: &Term,
        l: &str,
        to: &Term,
        input: Bindings,
        arc_vars: &FxHashSet<String>,
    ) -> Result<Bindings> {
        let need: Vec<&str> = [from.as_var(), to.as_var(), Some(l)]
            .into_iter()
            .flatten()
            .collect();
        let mut b = self.expand_active(input, &need, arc_vars)?;
        let reader = self.graph.reader();
        let fs = TermSlot::of(&b, from)?;
        let ts = TermSlot::of(&b, to)?;
        let l_col = b.col(l).expect("expanded");
        let mut syms = LabelSyms::default();
        b.retain_rows(|row| {
            let Some(n) = fs.value(row).as_node() else {
                return true;
            };
            let (want, to) = (syms.of(&reader, &row[l_col]), ts.value(row));
            let mut out = reader.out(n).iter();
            !out.any(|(sym, target)| want.contains(sym) && target == to)
        });
        Ok(b)
    }

    fn arc_edge_forward(
        &mut self,
        from: &Term,
        l: &str,
        to: &Term,
        input: Bindings,
    ) -> Result<Bindings> {
        let l_col = input.col(l);
        let to_unbound_var = match to {
            Term::Var(v) if !input.is_bound(v) => Some(v.as_str()),
            _ => None,
        };
        let to_mode = ToMode::of(&input, to)?;
        let fs = TermSlot::of(&input, from)?;
        let mut out = Bindings::with_vars(input.vars().to_vec());
        if l_col.is_none() {
            out.add_var(l);
        }
        if let Some(v) = to_unbound_var {
            out.add_var(v);
        }
        let reader = self.graph.reader();
        let emit_target = to_unbound_var.is_some();
        let mut labels = LabelCache::default();
        let mut syms = LabelSyms::default();
        for row in input.rows() {
            let Some(n) = fs.value(row).as_node() else {
                continue;
            };
            let want = l_col.map(|c| syms.of(&reader, &row[c]));
            for (sym, target) in reader.out(n) {
                if want.is_some_and(|w| !w.contains(sym)) {
                    continue;
                }
                match &to_mode {
                    ToMode::Unbound => {}
                    ToMode::BoundCol(c) => {
                        if &row[*c] != target {
                            continue;
                        }
                    }
                    ToMode::Lit(lv) => {
                        if !lv.coerced_eq(target) {
                            continue;
                        }
                    }
                }
                match (l_col.is_some(), emit_target) {
                    (true, true) => out.push_row_extend(row, [target.clone()]),
                    (true, false) => out.push_row(row),
                    (false, true) => out.push_row_extend(
                        row,
                        [labels.get(self.graph, *sym).clone(), target.clone()],
                    ),
                    (false, false) => {
                        out.push_row_extend(row, [labels.get(self.graph, *sym).clone()])
                    }
                }
            }
        }
        Ok(out)
    }

    fn arc_edge_backward(
        &mut self,
        from: &Term,
        l: &str,
        to: &Term,
        input: Bindings,
    ) -> Result<Bindings> {
        let idx = self.graph.index().expect("checked indexed");
        let l_col = input.col(l);
        let from_var = from.as_var().expect("from is an unbound var here");
        let ts = TermSlot::of(&input, to)?;
        let mut out = Bindings::with_vars(input.vars().to_vec());
        if l_col.is_none() {
            out.add_var(l);
        }
        out.add_var(from_var);
        let reader = self.graph.reader();
        let mut labels = LabelCache::default();
        let mut syms = LabelSyms::default();
        for row in input.rows() {
            let incoming: &[(Oid, Sym)] = match ts.value(row) {
                Value::Node(n) => idx.edges_to_node(*n),
                atomic => idx.edges_to_value(atomic),
            };
            let want = l_col.map(|c| syms.of(&reader, &row[c]));
            for (src, sym) in incoming {
                if let Some(want) = want {
                    if want.contains(sym) {
                        out.push_row_extend(row, [Value::Node(*src)]);
                    }
                } else {
                    out.push_row_extend(
                        row,
                        [labels.get(self.graph, *sym).clone(), Value::Node(*src)],
                    );
                }
            }
        }
        Ok(out)
    }

    /// Full edge scan: `from` unbound and no usable reverse index. A bound
    /// target turns this into a hash join (probe table over edge targets,
    /// built once); unbound/literal targets have a row-independent match set
    /// computed once and cross-joined with the input.
    fn arc_edge_scan(
        &mut self,
        from: &Term,
        l: &str,
        to: &Term,
        input: Bindings,
    ) -> Result<Bindings> {
        let from_var = from.as_var().expect("from is an unbound var here");
        let l_col = input.col(l);
        let to_state = ToState::of(&input, to)?;
        // `x -> l -> x` with one unbound variable on both ends binds it to
        // self-loop sources only, in a single column.
        let same_var = matches!(&to_state, ToState::Unbound(v) if *v == from_var);
        let mut out = Bindings::with_vars(input.vars().to_vec());
        out.add_var(from_var);
        if l_col.is_none() {
            out.add_var(l);
        }
        if !same_var {
            if let ToState::Unbound(v) = to_state {
                out.add_var(v);
            }
        }
        let reader = self.graph.reader();
        let mut labels = LabelCache::default();
        let mut syms = LabelSyms::default();
        if let ToState::BoundVar(v) = &to_state {
            // Hash join: joins of two bound variables use strict equality,
            // so a probe table keyed by edge target is exact. The probe
            // table is built once; every row probes it.
            let tcol = input.col(v).expect("bound");
            let mut by_target: RevAdj = FxHashMap::default();
            for &n in self.graph.nodes() {
                for (sym, target) in reader.out(n) {
                    by_target.entry(target.clone()).or_default().push((n, *sym));
                }
            }
            for row in input.rows() {
                let Some(candidates) = by_target.get(&row[tcol]) else {
                    continue;
                };
                let want = l_col.map(|c| syms.of(&reader, &row[c]));
                for (n, sym) in candidates {
                    if let Some(want) = want {
                        if want.contains(sym) {
                            out.push_row_extend(row, [Value::Node(*n)]);
                        }
                    } else {
                        out.push_row_extend(
                            row,
                            [Value::Node(*n), labels.get(self.graph, *sym).clone()],
                        );
                    }
                }
            }
            return Ok(out);
        }
        // Row-independent match set (target unbound or a literal).
        let lit = match &to_state {
            ToState::Lit(v) => Some(v),
            _ => None,
        };
        let emit_target = !same_var && matches!(to_state, ToState::Unbound(_));
        // Under a bound label only the symbols some row's label stands for
        // are kept, grouped by symbol as the rows will ask for them.
        let mut by_label: FxHashMap<Sym, Vec<(Oid, Option<&Value>)>> = FxHashMap::default();
        if let Some(c) = l_col {
            for row in input.rows() {
                for sym in syms.of(&reader, &row[c]) {
                    by_label.entry(*sym).or_default();
                }
            }
        }
        let mut matches: Vec<(Oid, Sym, Option<&Value>)> = Vec::new();
        for &n in self.graph.nodes() {
            for (sym, target) in reader.out(n) {
                if lit.is_some_and(|lv| !lv.coerced_eq(target))
                    || (same_var && *target != Value::Node(n))
                {
                    continue;
                }
                let tv = emit_target.then_some(target);
                match by_label.get_mut(sym) {
                    Some(group) => group.push((n, tv)),
                    None if l_col.is_none() => matches.push((n, *sym, tv)),
                    None => {}
                }
            }
        }
        if let Some(c) = l_col {
            for row in input.rows() {
                for sym in syms.of(&reader, &row[c]) {
                    for (n, tv) in &by_label[sym] {
                        match tv {
                            Some(t) => out.push_row_extend(row, [Value::Node(*n), (*t).clone()]),
                            None => out.push_row_extend(row, [Value::Node(*n)]),
                        }
                    }
                }
            }
        } else {
            out.reserve_rows(input.len().saturating_mul(matches.len()));
            for row in input.rows() {
                for (n, sym, tv) in &matches {
                    let lv = labels.get(self.graph, *sym).clone();
                    match tv {
                        Some(t) => out.push_row_extend(row, [Value::Node(*n), lv, (*t).clone()]),
                        None => out.push_row_extend(row, [Value::Node(*n), lv]),
                    }
                }
            }
        }
        Ok(out)
    }

    /// Negated `from -> R -> to`: anti-semijoin over memoized reachability
    /// sets, expanding any unbound endpoints over the active domain.
    fn neg_rpe_semijoin(
        &mut self,
        rpe: &Rpe,
        from: &Term,
        to: &Term,
        input: Bindings,
        arc_vars: &FxHashSet<String>,
    ) -> Result<Bindings> {
        let nfa = self.compiled_nfa(rpe);
        let need: Vec<&str> = [from, to].into_iter().filter_map(Term::as_var).collect();
        let mut b = self.expand_active(input, &need, arc_vars)?;
        let reader = self.graph.reader();
        let fs = TermSlot::of(&b, from)?;
        let ts = TermSlot::of(&b, to)?;
        b.retain_rows(|row| {
            let reach = self.forward_reach(&reader, &nfa, fs.value(row));
            !reach.set.contains(ts.value(row))
        });
        Ok(b)
    }

    /// Negated `from -> "label" -> to`: automaton-free anti-semijoin against
    /// the label's adjacency, expanding unbound endpoints first. Semantics
    /// match the general negated path exactly.
    fn neg_label_semijoin(
        &mut self,
        name: &str,
        from: &Term,
        to: &Term,
        input: Bindings,
        arc_vars: &FxHashSet<String>,
    ) -> Result<Bindings> {
        let want = self.graph.universe().interner().get(name);
        let reader = self.graph.reader();
        let need: Vec<&str> = [from, to].into_iter().filter_map(Term::as_var).collect();
        let mut b = self.expand_active(input, &need, arc_vars)?;
        let fs = TermSlot::of(&b, from)?;
        let ts = TermSlot::of(&b, to)?;
        b.retain_rows(|row| {
            let Some(w) = want else { return true };
            let Some(n) = fs.value(row).as_node() else {
                return true;
            };
            let t = ts.value(row);
            !reader
                .out(n)
                .iter()
                .any(|(sym, target)| *sym == w && target == t)
        });
        Ok(b)
    }

    /// `from -> "label" -> to` with `from` bound: an out-adjacency expansion
    /// binding a fresh target (plan op `label-forward`) or an adjacency
    /// semijoin against a bound/literal target (`label-semijoin`) — the
    /// branch is determined by the same target boundness the planner used.
    /// Semantics match the general path exactly, including the per-source
    /// target deduplication the BFS result set performs.
    fn label_from_bound(
        &mut self,
        name: &str,
        from: &Term,
        to: &Term,
        input: Bindings,
    ) -> Result<Bindings> {
        let want = self.graph.universe().interner().get(name);
        let reader = self.graph.reader();
        let fs = TermSlot::of(&input, from)?;
        let to_mode = ToMode::of(&input, to)?;
        if let ToMode::Unbound = to_mode {
            let to_var = to.as_var().expect("unbound to is a var");
            let mut out = Bindings::with_vars(input.vars().to_vec());
            out.add_var(to_var);
            let Some(w) = want else { return Ok(out) };
            let mut emitted: Seen<&Value> = Seen::new();
            for row in input.rows() {
                let Some(n) = fs.value(row).as_node() else {
                    continue;
                };
                emitted.clear();
                for (sym, target) in reader.out(n) {
                    if *sym == w && emitted.first(target) {
                        out.push_row_extend(row, [target.clone()]);
                    }
                }
            }
            return Ok(out);
        }
        let mut input = input;
        input.retain_rows(|row| {
            let (Some(w), Some(n)) = (want, fs.value(row).as_node()) else {
                return false;
            };
            reader.out(n).iter().any(|(sym, target)| {
                *sym == w
                    && match &to_mode {
                        ToMode::BoundCol(c) => target == &row[*c],
                        ToMode::Lit(lv) => lv.coerced_eq(target),
                        ToMode::Unbound => unreachable!("expanded above"),
                    }
            })
        });
        Ok(input)
    }

    /// `from -> "label" -> to` with `from` unbound onto a bound target:
    /// probes the reverse adjacency and filters by symbol — the backward
    /// path. The plan op recorded whether the probe uses the graph index
    /// (`label-reverse-index`) or the materialized map (`label-hash-join`);
    /// both route through [`Ev::reverse_adjacency`], which makes the same
    /// choice from the same graph state.
    fn label_to_bound(
        &mut self,
        name: &str,
        from: &Term,
        to: &Term,
        input: Bindings,
    ) -> Result<Bindings> {
        let want = self.graph.universe().interner().get(name);
        let from_var = from.as_var().expect("unbound from");
        let adj = self.reverse_adjacency();
        let ts = TermSlot::of(&input, to)?;
        let mut out = Bindings::with_vars(input.vars().to_vec());
        out.add_var(from_var);
        let Some(w) = want else { return Ok(out) };
        let mut emitted: Seen<Oid> = Seen::new();
        for row in input.rows() {
            emitted.clear();
            for (src, sym) in adj.incoming(ts.value(row)) {
                if *sym == w && emitted.first(*src) {
                    out.push_row_extend(row, [Value::Node(*src)]);
                }
            }
        }
        Ok(out)
    }

    /// `from -> "label" -> to` with both ends unbound: the label's pair set
    /// is row-independent — computed once (with per-source target dedup,
    /// matching the BFS result-set semantics) and cross-joined.
    fn label_scan(
        &mut self,
        name: &str,
        from: &Term,
        to: &Term,
        input: Bindings,
    ) -> Result<Bindings> {
        let want = self.graph.universe().interner().get(name);
        let reader = self.graph.reader();
        let from_var = from.as_var().expect("unbound from");
        let to_state = ToState::of(&input, to)?;
        // `x -> l -> x` with one unbound variable on both ends binds it to
        // self-loop sources only, in a single column.
        let same_var = matches!(&to_state, ToState::Unbound(v) if *v == from_var);
        let emit_target = !same_var && matches!(to_state, ToState::Unbound(_));
        let mut out = Bindings::with_vars(input.vars().to_vec());
        out.add_var(from_var);
        if let (true, ToState::Unbound(v)) = (emit_target, &to_state) {
            out.add_var(v);
        }
        let Some(w) = want else { return Ok(out) };
        let mut pairs: Vec<(Oid, &Value)> = Vec::new();
        let mut emitted: Seen<&Value> = Seen::new();
        for &n in self.graph.nodes() {
            emitted.clear();
            for (sym, target) in reader.out(n) {
                let kept = *sym == w
                    && emitted.first(target)
                    && !matches!(&to_state, ToState::Lit(lv) if !lv.coerced_eq(target))
                    && (!same_var || *target == Value::Node(n));
                if kept {
                    pairs.push((n, target));
                }
            }
        }
        out.reserve_rows(input.len().saturating_mul(pairs.len()));
        for row in input.rows() {
            for &(n, t) in &pairs {
                if emit_target {
                    out.push_row_extend(row, [Value::Node(n), t.clone()]);
                } else {
                    out.push_row_extend(row, [Value::Node(n)]);
                }
            }
        }
        Ok(out)
    }

    fn rpe_from_bound(
        &mut self,
        nfa: &Arc<Nfa>,
        from: &Term,
        to: &Term,
        input: Bindings,
    ) -> Result<Bindings> {
        let to_unbound_var = match to {
            Term::Var(v) if !input.is_bound(v) => Some(v.as_str()),
            _ => None,
        };
        let to_mode = ToMode::of(&input, to)?;
        let fs = TermSlot::of(&input, from)?;
        let mut out = Bindings::with_vars(input.vars().to_vec());
        if let Some(v) = to_unbound_var {
            out.add_var(v);
        }
        let reader = self.graph.reader();
        // Consecutive rows often share the source value; remembering the
        // last reach set skips the cache lock.
        let mut last: Option<(Value, Arc<Reach>)> = None;
        for row in input.rows() {
            let f = fs.value(row);
            let reach = match &last {
                Some((lf, r)) if lf == f => Arc::clone(r),
                _ => {
                    let r = self.forward_reach(&reader, nfa, f);
                    last = Some((f.clone(), Arc::clone(&r)));
                    r
                }
            };
            match &to_mode {
                ToMode::Unbound => {
                    for t in &reach.order {
                        out.push_row_extend(row, [t.clone()]);
                    }
                }
                ToMode::BoundCol(c) => {
                    if reach.set.contains(&row[*c]) {
                        out.push_row(row);
                    }
                }
                ToMode::Lit(lv) => {
                    if reach.order.iter().any(|t| lv.coerced_eq(t)) {
                        out.push_row(row);
                    }
                }
            }
        }
        Ok(out)
    }

    fn rpe_to_bound(
        &mut self,
        nfa: &Arc<Nfa>,
        from: &Term,
        to: &Term,
        input: Bindings,
    ) -> Result<Bindings> {
        let from_var = from.as_var().expect("unbound from");
        let rev = self.reversed_nfa(nfa);
        let reverse_adj = self.reverse_adjacency();
        let ts = TermSlot::of(&input, to)?;
        let mut out = Bindings::with_vars(input.vars().to_vec());
        out.add_var(from_var);
        let mut last: Option<(Value, Arc<Reach>)> = None;
        for row in input.rows() {
            let t = ts.value(row);
            let sources = match &last {
                Some((lt, r)) if lt == t => Arc::clone(r),
                _ => {
                    let r = self.backward_reach(&rev, &reverse_adj, t);
                    last = Some((t.clone(), Arc::clone(&r)));
                    r
                }
            };
            // Sources are nodes (edges originate at nodes); keep atomics
            // only when the empty path matched (s == t).
            for s in &sources.order {
                out.push_row_extend(row, [s.clone()]);
            }
        }
        Ok(out)
    }

    fn rpe_both_unbound(
        &mut self,
        nfa: &Arc<Nfa>,
        from: &Term,
        to: &Term,
        input: Bindings,
    ) -> Result<Bindings> {
        let from_var = from.as_var().expect("unbound from");
        let to_state = ToState::of(&input, to)?;
        // `x -> rpe -> x` with one unbound variable on both ends binds it
        // to cyclic sources only, in a single column.
        let same_var = matches!(&to_state, ToState::Unbound(v) if *v == from_var);
        let mut out = Bindings::with_vars(input.vars().to_vec());
        out.add_var(from_var);
        if !same_var {
            if let ToState::Unbound(v) = to_state {
                out.add_var(v);
            }
        }
        let reader = self.graph.reader();
        // Sources range over the member nodes (the active domain choice).
        let mut pairs: Vec<(Value, Value)> = Vec::new();
        for &n in self.graph.nodes() {
            let f = Value::Node(n);
            let reach = self.forward_reach(&reader, nfa, &f);
            for t in &reach.order {
                if same_var && *t != f {
                    continue;
                }
                match &to_state {
                    ToState::Unbound(_) => pairs.push((f.clone(), t.clone())),
                    ToState::Lit(lit) => {
                        if lit.coerced_eq(t) {
                            pairs.push((f.clone(), t.clone()));
                        }
                    }
                    ToState::BoundVar(_) => unreachable!("to is unbound here"),
                }
            }
        }
        let emit_target = !same_var && matches!(to_state, ToState::Unbound(_));
        out.reserve_rows(input.len().saturating_mul(pairs.len()));
        for row in input.rows() {
            for (f, t) in &pairs {
                if emit_target {
                    out.push_row_extend(row, [f.clone(), t.clone()]);
                } else {
                    out.push_row_extend(row, [f.clone()]);
                }
            }
        }
        Ok(out)
    }

    /// Product-automaton BFS, forward. Returns every value reachable from
    /// `start` along a path matching the automaton.
    fn rpe_forward(&self, reader: &GraphReader<'_>, nfa: &Nfa, start: &Value) -> Reach {
        let interner = self.graph.universe().interner();
        let resolve = |s: Sym| Value::Str(interner.resolve(s));
        let mut results: Vec<Value> = Vec::new();
        let mut result_set: FxHashSet<Value> = FxHashSet::default();
        let mut visited: FxHashSet<(Value, u32)> = FxHashSet::default();
        let mut queue: VecDeque<(Value, u32)> = VecDeque::new();
        for s in nfa.eps_closure_of(nfa.start()) {
            if visited.insert((start.clone(), s)) {
                queue.push_back((start.clone(), s));
            }
        }
        while let Some((v, s)) = queue.pop_front() {
            if nfa.is_accept(s) && result_set.insert(v.clone()) {
                results.push(v.clone());
            }
            let Some(n) = v.as_node() else { continue };
            for (test, t) in nfa.transitions(s) {
                for (sym, target) in reader.out(n) {
                    if test.matches(*sym, &resolve, &self.opts.predicates) {
                        for u in nfa.eps_closure_of(*t) {
                            let key = (target.clone(), u);
                            if visited.insert(key.clone()) {
                                queue.push_back(key);
                            }
                        }
                    }
                }
            }
        }
        Reach {
            order: results,
            set: result_set,
        }
    }

    /// Product-automaton BFS over reverse edges: every value from which a
    /// matching path reaches `start`.
    fn rpe_backward(&self, rev: &Nfa, adj: &ReverseAdj<'_>, start: &Value) -> Reach {
        let interner = self.graph.universe().interner();
        let resolve = |s: Sym| Value::Str(interner.resolve(s));
        let mut results: Vec<Value> = Vec::new();
        let mut result_set: FxHashSet<Value> = FxHashSet::default();
        let mut visited: FxHashSet<(Value, u32)> = FxHashSet::default();
        let mut queue: VecDeque<(Value, u32)> = VecDeque::new();
        for s in rev.eps_closure_of(rev.start()) {
            if visited.insert((start.clone(), s)) {
                queue.push_back((start.clone(), s));
            }
        }
        while let Some((v, s)) = queue.pop_front() {
            if rev.is_accept(s) && result_set.insert(v.clone()) {
                results.push(v.clone());
            }
            for (src, sym) in adj.incoming(&v) {
                for (test, t) in rev.transitions(s) {
                    if test.matches(*sym, &resolve, &self.opts.predicates) {
                        for u in rev.eps_closure_of(*t) {
                            let key = (Value::Node(*src), u);
                            if visited.insert(key.clone()) {
                                queue.push_back(key);
                            }
                        }
                    }
                }
            }
        }
        Reach {
            order: results,
            set: result_set,
        }
    }

    /// Reverse adjacency: from the index when available, else materialized
    /// at most once per cache lifetime and shared across evaluations.
    fn reverse_adjacency(&self) -> ReverseAdj<'g> {
        if let Some(idx) = self.graph.index() {
            return ReverseAdj::Indexed(idx);
        }
        {
            let c = self.cache();
            if let Some(map) = &c.reverse_adj {
                self.cache_hit();
                return ReverseAdj::Materialized(Arc::clone(map));
            }
        }
        self.cache_miss();
        let mut map: RevAdj = FxHashMap::default();
        let reader = self.graph.reader();
        for &n in self.graph.nodes() {
            for (sym, target) in reader.out(n) {
                map.entry(target.clone()).or_default().push((n, *sym));
            }
        }
        let map = Arc::new(map);
        self.cache().reverse_adj = Some(Arc::clone(&map));
        ReverseAdj::Materialized(map)
    }
}

/// A term resolved against a schema: either a column of the relation or a
/// constant. Lets filters run over row slices without re-resolving names.
enum TermSlot {
    Col(usize),
    Const(Value),
}

impl TermSlot {
    fn of(b: &Bindings, term: &Term) -> Result<TermSlot> {
        match term {
            Term::Var(v) => Ok(TermSlot::Col(b.col(v).expect("variable bound by now"))),
            Term::Lit(l) => Ok(TermSlot::Const(l.to_value())),
            other => Err(not_a_where_term(other)),
        }
    }

    #[inline]
    fn value<'r>(&'r self, row: &'r [Value]) -> &'r Value {
        match self {
            TermSlot::Col(i) => &row[*i],
            TermSlot::Const(v) => v,
        }
    }
}

/// How the target term of a forward edge/path step is interpreted.
enum ToMode {
    Unbound,
    BoundCol(usize),
    Lit(Value),
}

impl ToMode {
    fn of(b: &Bindings, to: &Term) -> Result<ToMode> {
        match to {
            Term::Var(v) => match b.col(v) {
                Some(c) => Ok(ToMode::BoundCol(c)),
                None => Ok(ToMode::Unbound),
            },
            Term::Lit(lit) => Ok(ToMode::Lit(lit.to_value())),
            other => Err(not_a_where_term(other)),
        }
    }
}

/// Memoizes label-symbol → [`Value::Str`] resolution so hot loops do not
/// take the interner's lock per edge.
#[derive(Default)]
struct LabelCache(FxHashMap<Sym, Value>);

impl LabelCache {
    fn get(&mut self, graph: &Graph, sym: Sym) -> &Value {
        self.0
            .entry(sym)
            .or_insert_with(|| Value::Str(graph.universe().interner().resolve(sym)))
    }
}

/// The label symbols a *bound* label value stands for under the data
/// model's coercion (module docs): a text-like value is the one label its
/// text interns to, or none; a number is every label of the graph that
/// reads as it (`1997` meets `"1997"` and `"1997.0"`); booleans and nodes
/// are no label. Asked per row, resolved per run of equal values; nothing
/// is set up before the first row asks.
#[derive(Default)]
struct LabelSyms {
    asked: Option<Value>,
    syms: Vec<Sym>,
}

impl LabelSyms {
    fn of(&mut self, reader: &GraphReader<'_>, v: &Value) -> &[Sym] {
        if self.asked.as_ref() != Some(v) {
            let interner = reader.graph().universe().interner();
            self.syms.clear();
            match v {
                Value::Str(t) | Value::Url(t) | Value::File(_, t) => {
                    self.syms.extend(interner.get(t))
                }
                Value::Int(_) | Value::Float(_) => {
                    let reads_as = |s: &Sym| Value::Str(interner.resolve(*s)).coerced_eq(v);
                    self.syms
                        .extend(reader.labels().into_iter().filter(reads_as))
                }
                Value::Bool(_) | Value::Node(_) => {}
            }
            self.asked = Some(v.clone());
        }
        &self.syms
    }
}

/// First-occurrence filter over one node's neighbours (the targets of a
/// source, the sources of a target): a scanned vector while they are few,
/// a hash set from the `SPILL`-th on — a hub's fan-in is thousands, and
/// scanning for each of them is quadratic.
struct Seen<T> {
    few: Vec<T>,
    many: FxHashSet<T>,
}

impl<T: Copy + Eq + std::hash::Hash> Seen<T> {
    const SPILL: usize = 16;

    fn new() -> Self {
        let (few, many) = (Vec::new(), FxHashSet::default());
        Seen { few, many }
    }

    fn clear(&mut self) {
        self.few.clear();
        if !self.many.is_empty() {
            self.many.clear();
        }
    }

    /// Whether `v` is new since the last [`Seen::clear`].
    fn first(&mut self, v: T) -> bool {
        if !self.many.is_empty() {
            return self.many.insert(v);
        }
        if self.few.contains(&v) {
            return false;
        }
        self.few.push(v);
        if self.few.len() == Self::SPILL {
            self.many.extend(self.few.drain(..));
        }
        true
    }
}

enum ToState<'a> {
    Unbound(&'a str),
    BoundVar(&'a str),
    Lit(Value),
}

impl<'a> ToState<'a> {
    fn of(b: &Bindings, to: &'a Term) -> Result<ToState<'a>> {
        match to {
            Term::Var(v) if b.is_bound(v) => Ok(ToState::BoundVar(v)),
            Term::Var(v) => Ok(ToState::Unbound(v)),
            Term::Lit(lit) => Ok(ToState::Lit(lit.to_value())),
            other => Err(not_a_where_term(other)),
        }
    }
}

/// The error for a Skolem or aggregate term where a condition needs a value.
fn not_a_where_term(t: &Term) -> StruqlError {
    let kind = match t {
        Term::Agg(..) => "aggregate",
        _ => "Skolem term",
    };
    StruqlError::eval(format!("{kind} `{t}` cannot appear in WHERE"))
}

enum ReverseAdj<'g> {
    Indexed(&'g strudel_graph::index::GraphIndex),
    Materialized(Arc<RevAdj>),
}

impl ReverseAdj<'_> {
    fn incoming(&self, v: &Value) -> &[(Oid, Sym)] {
        match self {
            ReverseAdj::Indexed(idx) => match v {
                Value::Node(n) => idx.edges_to_node(*n),
                atomic => idx.edges_to_value(atomic),
            },
            ReverseAdj::Materialized(map) => map.get(v).map_or(&[], Vec::as_slice),
        }
    }
}

fn compare(l: &Value, op: CmpOp, r: &Value) -> bool {
    use std::cmp::Ordering::*;
    match op {
        CmpOp::Eq => l.coerced_eq(r),
        CmpOp::Ne => !l.coerced_eq(r),
        CmpOp::Lt => l.coerced_cmp(r) == Some(Less),
        CmpOp::Le => matches!(l.coerced_cmp(r), Some(Less | Equal)),
        CmpOp::Gt => l.coerced_cmp(r) == Some(Greater),
        CmpOp::Ge => matches!(l.coerced_cmp(r), Some(Greater | Equal)),
    }
}
