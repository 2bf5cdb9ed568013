//! Compiled physical plans: the logical→physical layer between the
//! optimizer's condition ordering ([`crate::optimize`]) and the evaluator's
//! operators ([`crate::eval`]).
//!
//! The paper's cost-based optimizer "can enumerate plans that exploit
//! indexes on the data and the schema" (§2.4, \[FLO 97\]). Through PR 5 this
//! repository ordered conditions at plan time but re-made every *physical*
//! decision — semijoin vs hash probe vs scan vs reverse-index vs RPE
//! variant — inside `eval.rs` on every evaluation of every block. This
//! module compiles each conjunction once into an explicit [`PhysicalPlan`]
//! whose nodes name the concrete operator ([`PhysOp`], one variant per tag
//! of the PR 5 strategy catalog) and carry cardinality estimates from the
//! index statistics; the evaluator then executes the plan directly.
//!
//! Why the operator choice can be made statically: every dispatch decision
//! in the evaluator depends only on (a) which variables are bound when the
//! condition runs and (b) the shape of the condition's terms (every graph
//! is indexed, so a bound target always has its reverse index). Boundness
//! at each plan position is fully determined by the start bindings and the
//! conditions applied before it ([`crate::optimize::vars_of`] is exactly the
//! bound-after set), and the term shapes are static. So a plan compiled
//! once is valid for every evaluation of the same conjunction from the same
//! starting schema against the same graph state.
//!
//! A plan is compiled once per query, not per evaluation (§2.4): a build
//! compiles each stage as it runs it, click time keeps one [`PlanSlot`] per
//! program conjunction beside the graph it borrows, and an evaluation that
//! runs once passes a fresh slot.
//!
//! A known label: a node over an arc-variable edge condition whose variable
//! `l = "text"` has fixed by then (`optimize::KnownLabels`) carries that
//! label and runs a single-label operator; the catalog is unchanged.
//!
//! The validator ([`PlanNode::contract`], [`validate`]): every node states the
//! variables its operator requires bound and the ones it provides, and the
//! chain is checked from the start schema — once per
//! [`PhysicalPlan::compile`] in every build profile (a plan is compiled once
//! per query, so the check is paid once), as a debug assertion on every
//! re-planned suffix, and before [`crate::eval::execute_plan`] runs a plan
//! the compiler did not make. An operator run on the wrong schema trips an
//! `expect` or widens a row.
//!
//! Adaptivity: when an executed node's observed rows-out exceeds its
//! estimate by more than 8×, the evaluator calls [`replan_suffix`] with
//! multipliers *measured* on a sample of the live bindings (see `eval.rs`).
//! Re-planning with the same static cost model would reproduce the same
//! order — the point of the runtime feedback loop is that sampled
//! multipliers replace the estimates that were wrong.

use crate::ast::{CmpOp, Condition, PathStep, Rpe, Term};
use crate::binding::Bindings;
use crate::error::{Result, StruqlError};
use crate::eval::{PathMemo, PathMemoCounters, PathMemoStats};
use crate::optimize::{multiplier, pick_next, plan, vars_of, GraphStats, KnownLabels, Optimizer};
use std::fmt::Write as _;
use std::sync::{Arc, Mutex, OnceLock};
use strudel_graph::fxhash::{FxHashMap, FxHashSet};
use strudel_graph::Graph;

/// The concrete physical operator a plan node executes. One variant per
/// tag of the operator catalog (docs/OBSERVABILITY.md) — [`PhysOp::tag`]
/// returns exactly the `op` an `eval.op` span records, so plans and traces
/// speak the same operator vocabulary.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PhysOp {
    /// Membership filter of a bound variable against a collection extent.
    CollectionSemijoin,
    /// Cross-join with a collection extent (or its complement, negated).
    CollectionScan,
    /// Constant membership test of a literal: keeps or empties the input.
    CollectionConst,
    /// `v = <bound>`: binds the unbound side, one row out per row in.
    CompareBind,
    /// Comparison filter (expanding any still-unbound variables first).
    CompareFilter,
    /// `v IN {…}` membership filter of a bound (or expanded) variable.
    InSemijoin,
    /// `v IN {…}` enumeration: binds `v` to each set element.
    InExpand,
    /// Built-in predicate filter (expanding unbound arguments first).
    PredicateFilter,
    /// Negated single-edge condition as an anti-semijoin.
    NegEdgeSemijoin,
    /// Arc-variable edge from a bound source: out-adjacency expansion.
    ArcForward,
    /// Arc-variable edge onto a bound target via the reverse index.
    ArcReverseIndex,
    /// Arc-variable edge with both ends unbound: full edge scan.
    ArcScan,
    /// Negated single-label path as an anti-semijoin.
    NegLabelSemijoin,
    /// Single-label path from a bound source binding a fresh target.
    LabelForward,
    /// Single-label path between bound endpoints: adjacency semijoin.
    LabelSemijoin,
    /// Single-label path onto a bound target via the reverse index.
    LabelReverseIndex,
    /// Single-label path with both ends unbound: label-pair scan.
    LabelScan,
    /// Negated regular path as an anti-semijoin over reachability sets.
    NegRpeSemijoin,
    /// Regular path from a bound source: memoized forward BFS.
    RpeForward,
    /// Regular path onto a bound target: reversed automaton backward BFS.
    RpeReverse,
    /// Regular path with both ends unbound: per-node reachability scan.
    RpeScan,
    /// Unresolved bare path step — only reachable on unanalyzed queries;
    /// executing it reports the analysis error.
    BareEdge,
}

impl PhysOp {
    /// The tag `explain` prints and an `eval.op` span records as `op`.
    pub fn tag(self) -> &'static str {
        match self {
            PhysOp::CollectionSemijoin => "collection-semijoin",
            PhysOp::CollectionScan => "collection-scan",
            PhysOp::CollectionConst => "collection-const",
            PhysOp::CompareBind => "compare-bind",
            PhysOp::CompareFilter => "compare-filter",
            PhysOp::InSemijoin => "in-semijoin",
            PhysOp::InExpand => "in-expand",
            PhysOp::PredicateFilter => "predicate-filter",
            PhysOp::NegEdgeSemijoin => "neg-edge-semijoin",
            PhysOp::ArcForward => "arc-forward",
            PhysOp::ArcReverseIndex => "arc-reverse-index",
            PhysOp::ArcScan => "arc-scan",
            PhysOp::NegLabelSemijoin => "neg-label-semijoin",
            PhysOp::LabelForward => "label-forward",
            PhysOp::LabelSemijoin => "label-semijoin",
            PhysOp::LabelReverseIndex => "label-reverse-index",
            PhysOp::LabelScan => "label-scan",
            PhysOp::NegRpeSemijoin => "neg-rpe-semijoin",
            PhysOp::RpeForward => "rpe-forward",
            PhysOp::RpeReverse => "rpe-reverse",
            PhysOp::RpeScan => "rpe-scan",
            PhysOp::BareEdge => "bare-edge",
        }
    }
}

/// Chooses the physical operator for `cond` given which variables are
/// bound. This is THE operator-selection function: the evaluator's `apply`
/// calls it with runtime boundness, the compiler calls it with statically
/// tracked boundness, and the two agree because static tracking mirrors the
/// runtime schema exactly (see module docs).
/// `known`: the condition's arc variable is known to carry one label
/// (`optimize::KnownLabels`), so the single-label operators apply.
pub fn choose_op(cond: &Condition, known: bool, bound: &dyn Fn(&str) -> bool) -> PhysOp {
    // Non-variable terms count as "bound": literals are constants, and
    // Skolem/aggregate terms fail inside the operator with a typed error —
    // the same branch the interpreted dispatch took.
    let term_bound = |t: &Term| match t {
        Term::Var(v) => bound(v),
        _ => true,
    };
    match cond {
        Condition::Collection { arg, .. } => match arg {
            Term::Var(v) if bound(v) => PhysOp::CollectionSemijoin,
            Term::Var(_) => PhysOp::CollectionScan,
            _ => PhysOp::CollectionConst,
        },
        Condition::Compare { lhs, op, rhs } => {
            if *op == CmpOp::Eq && (term_bound(lhs) ^ term_bound(rhs)) {
                PhysOp::CompareBind
            } else {
                PhysOp::CompareFilter
            }
        }
        Condition::In { var, negated, .. } => {
            // A negated `IN` over an unbound variable expands the active
            // domain and then filters — the semijoin with a built-in expand.
            if bound(var) || *negated {
                PhysOp::InSemijoin
            } else {
                PhysOp::InExpand
            }
        }
        Condition::Predicate { .. } => PhysOp::PredicateFilter,
        Condition::Edge {
            from,
            step,
            to,
            negated,
        } => match step {
            PathStep::ArcVar(_) if !known => {
                if *negated {
                    PhysOp::NegEdgeSemijoin
                } else if term_bound(from) {
                    PhysOp::ArcForward
                } else if term_bound(to) {
                    PhysOp::ArcReverseIndex
                } else {
                    PhysOp::ArcScan
                }
            }
            PathStep::ArcVar(_) | PathStep::Rpe(Rpe::Label(_)) => {
                if *negated {
                    PhysOp::NegLabelSemijoin
                } else if term_bound(from) {
                    match to {
                        Term::Var(v) if !bound(v) => PhysOp::LabelForward,
                        _ => PhysOp::LabelSemijoin,
                    }
                } else if term_bound(to) {
                    PhysOp::LabelReverseIndex
                } else {
                    PhysOp::LabelScan
                }
            }
            PathStep::Rpe(_) => {
                if *negated {
                    PhysOp::NegRpeSemijoin
                } else if term_bound(from) {
                    PhysOp::RpeForward
                } else if term_bound(to) {
                    PhysOp::RpeReverse
                } else {
                    PhysOp::RpeScan
                }
            }
            PathStep::Bare(_) => PhysOp::BareEdge,
        },
    }
}

/// One node of a compiled plan: which condition to run, with which physical
/// operator, and what the cost model expects it to produce.
#[derive(Clone, Debug)]
pub struct PlanNode {
    /// Index into the governing condition slice.
    pub cond: usize,
    /// The physical operator chosen at compile time.
    pub op: PhysOp,
    /// The label the condition's arc variable is known to carry here: the
    /// node runs a single-label operator over it.
    pub label: Option<Arc<str>>,
    /// Estimated result multiplier (rows out per row in).
    pub est_mult: f64,
    /// Estimated cumulative rows after this node, from a one-row start.
    pub est_rows: f64,
}

/// A compiled physical plan for one conjunction of conditions.
#[derive(Clone, Debug)]
pub struct PhysicalPlan {
    /// Nodes in execution order.
    pub nodes: Vec<PlanNode>,
    /// Estimated total intermediate rows.
    pub est_cost: f64,
    /// The optimizer that ordered the conditions.
    pub optimizer: Optimizer,
    /// Whether the cost-based planner fell back to the greedy heuristic
    /// (block exceeded `DP_LIMIT` conditions).
    pub dp_fallback: bool,
}

impl PhysicalPlan {
    /// Compiles `conds` into a physical plan: orders them with the chosen
    /// optimizer, then fixes each node's operator from the statically
    /// tracked bound-variable set and annotates it with the cost model's
    /// cardinality estimates.
    pub fn compile(
        conds: &[Condition],
        bound: &FxHashSet<&str>,
        graph: &Graph,
        optimizer: Optimizer,
    ) -> Result<PhysicalPlan> {
        let p = plan(conds, bound, graph, optimizer);
        let known = KnownLabels::of(conds, bound);
        let mut b: FxHashSet<&str> = bound.clone();
        let mut rows = 1.0f64;
        let mut nodes = Vec::with_capacity(p.order.len());
        for (k, &i) in p.order.iter().enumerate() {
            let label = known.label(i, |j| p.order[..k].contains(&j));
            let op = choose_op(&conds[i], label.is_some(), &|v| b.contains(v));
            rows *= p.mults[k];
            nodes.push(PlanNode {
                cond: i,
                op,
                label: label.map(Arc::from),
                est_mult: p.mults[k],
                est_rows: rows,
            });
            b.extend(vars_of(&conds[i]));
        }
        // Once per compile, in release builds too: a plan is compiled once
        // per query, not per evaluation.
        validate(&nodes, conds, bound)?;
        Ok(PhysicalPlan {
            nodes,
            est_cost: p.est_cost,
            optimizer,
            dp_fallback: p.dp_fallback,
        })
    }

    /// Renders the plan tree, one node per line with its physical operator
    /// and estimated rows. What a node then did is its `eval.op` span.
    pub fn describe(&self, conds: &[Condition]) -> String {
        let mut s = String::new();
        for (rank, node) in self.nodes.iter().enumerate() {
            let _ = write!(s, "  {rank}. [{}] {}", node.op.tag(), conds[node.cond]);
            if let Some(label) = &node.label {
                let _ = write!(s, " as -> {label:?} ->");
            }
            let _ = writeln!(s, "  est {:.1} rows", node.est_rows);
        }
        let _ = writeln!(
            s,
            "  est. cost: {:.1} ({}{})",
            self.est_cost,
            self.optimizer.name(),
            if self.dp_fallback {
                ", dp-fallback to greedy"
            } else {
                ""
            }
        );
        s
    }
}

/// Re-plans the remaining suffix of a running plan using *measured* result
/// multipliers where available (`measured` maps condition index → observed
/// multiplier from sampling) and static estimates elsewhere. The greedy
/// reorder respects the same active-domain eligibility rules as the
/// planners, so any order it emits is result-equivalent.
pub(crate) fn replan_suffix(
    conds: &[Condition],
    remaining: &[usize],
    start: &FxHashSet<&str>,
    bound: &FxHashSet<&str>,
    graph: &Graph,
    rows_now: f64,
    measured: &FxHashMap<usize, f64>,
) -> Vec<PlanNode> {
    let stats = GraphStats::of(graph);
    // The labels known from the plan's own start schema: a compare that has
    // run keeps its edge condition on the single-label operators here too.
    let known = KnownLabels::of(conds, start);
    let live = bound;
    let mut bound: FxHashSet<&str> = bound.clone();
    let mut remaining: Vec<usize> = remaining.to_vec();
    let mut nodes = Vec::with_capacity(remaining.len());
    let mut rows = rows_now.max(1.0);
    while !remaining.is_empty() {
        let label = |i: usize| known.label(i, |j| !remaining.contains(&j));
        let est = |i: usize| {
            (measured.get(&i).copied())
                .unwrap_or_else(|| multiplier(&conds[i], label(i), &bound, graph, &stats))
        };
        let i = pick_next(conds, &remaining, &bound, est);
        let (m, label) = (est(i), label(i));
        remaining.retain(|&j| j != i);
        let op = choose_op(&conds[i], label.is_some(), &|v| bound.contains(v));
        rows *= m;
        nodes.push(PlanNode {
            cond: i,
            op,
            label: label.map(Arc::from),
            est_mult: m,
            est_rows: rows,
        });
        bound.extend(vars_of(&conds[i]));
    }
    debug_assert!(
        validate(&nodes, conds, live).is_ok(),
        "re-planned suffix is invalid"
    );
    nodes
}

/// What a plan node asks of the schema it runs on ([`PlanNode::contract`]).
#[derive(Debug, Default, PartialEq)]
pub struct Contract<'c> {
    /// Variables the operator needs bound on entry.
    pub require: Vec<&'c str>,
    /// Variables the operator binds itself, and so must meet unbound.
    pub provide: Vec<&'c str>,
}

impl PlanNode {
    /// The node's contract over `cond` on a schema binding `bound`: what its
    /// operator requires and what it provides. A variable of `cond` in
    /// neither list may arrive either way (a filter expands it, an arc
    /// operator binds or compares it); all of them are bound on exit, which
    /// is what the planners' static tracking assumes. An operator that does
    /// not apply to the condition's kind asks nothing here: executing it is
    /// a typed error, not a trip over a missing column.
    pub fn contract<'c>(
        &self,
        cond: &'c Condition,
        bound: &dyn Fn(&str) -> bool,
    ) -> std::result::Result<Contract<'c>, String> {
        use PhysOp::*;
        let var_of = |t: &'c Term| {
            t.as_var()
                .ok_or_else(|| format!("binds `{t}`, which is not a variable"))
        };
        let mut c = Contract::default();
        match (self.op, cond) {
            (CollectionSemijoin, Condition::Collection { arg, .. }) => c.require.push(var_of(arg)?),
            (CollectionScan, Condition::Collection { arg, .. }) => c.provide.push(var_of(arg)?),
            (CompareBind, Condition::Compare { lhs, rhs, .. }) => {
                let lhs_free = matches!(lhs, Term::Var(v) if !bound(v));
                let (free, fixed) = if lhs_free { (lhs, rhs) } else { (rhs, lhs) };
                c.provide.push(var_of(free)?);
                c.require.extend(fixed.as_var());
            }
            (InSemijoin, Condition::In { var, negated, .. }) if !negated => c.require.push(var),
            (InExpand, Condition::In { var, .. }) => c.provide.push(var),
            (op, Condition::Edge { from, step, to, .. }) => {
                // A single-label operator over an arc variable follows the
                // label the compare has bound the variable to.
                if let (Some(_), PathStep::ArcVar(l)) = (&self.label, step) {
                    c.require.push(l);
                }
                match op {
                    ArcForward | LabelForward | LabelSemijoin | RpeForward => {
                        c.require.extend(from.as_var())
                    }
                    ArcReverseIndex | LabelReverseIndex | RpeReverse => {
                        c.provide.push(var_of(from)?);
                        c.require.extend(to.as_var());
                    }
                    // A bound target is the reverse index's.
                    ArcScan => {
                        c.provide.push(var_of(from)?);
                        let to = var_of(to)?;
                        c.provide.extend((Some(to) != from.as_var()).then_some(to));
                    }
                    LabelScan | RpeScan => {
                        c.provide.push(var_of(from)?);
                        // `x -> "a" -> x` binds its one variable once.
                        let other = to.as_var().filter(|t| Some(*t) != from.as_var());
                        c.provide.extend(other);
                    }
                    // The negated forms expand whatever they meet unbound.
                    _ => {}
                }
            }
            _ => {}
        }
        Ok(c)
    }
}

/// The plan validator: walks a node chain from the schema it starts on and
/// checks every node's [`Contract`] — what it requires is bound, what it
/// provides is not — binding each condition's variables after it, as the
/// planners' static tracking and the evaluator's relation both do. Returns
/// the variables bound after the last node.
pub fn validate<'c>(
    nodes: &[PlanNode],
    conds: &'c [Condition],
    start: &FxHashSet<&'c str>,
) -> Result<FxHashSet<&'c str>> {
    let mut bound = start.clone();
    for (rank, node) in nodes.iter().enumerate() {
        let cond = &conds[node.cond];
        let checked = node.contract(cond, &|v| bound.contains(v)).and_then(|c| {
            if let Some(v) = c.require.iter().find(|v| !bound.contains(**v)) {
                Err(format!("needs `{v}` bound"))
            } else if let Some(v) = c.provide.iter().find(|v| bound.contains(**v)) {
                Err(format!("binds `{v}`, which is bound already"))
            } else {
                Ok(())
            }
        });
        if let Err(why) = checked {
            let tag = node.op.tag();
            return Err(StruqlError::eval(format!(
                "invalid plan: node {rank} [{tag}] {cond} {why}"
            )));
        }
        bound.extend(vars_of(cond));
    }
    Ok(bound)
}

/// Everything compiled for one conjunction at one graph: its plan, empty
/// until an evaluation compiles it and then read with one atomic load, and
/// each regular-path condition's automata and reach memos
/// ([`crate::eval`]). Both hold for every evaluation of the same
/// conditions from the same start schema against the graph they were
/// computed on (see the module docs), so whoever holds a slot holds it
/// beside that graph — a `DynamicSite` keeps one per program conjunction
/// next to its borrow of the data graph — and an evaluation that runs once
/// passes a fresh slot.
#[derive(Default)]
pub struct PlanSlot {
    plan: OnceLock<PhysicalPlan>,
    /// Path memos by the condition's position in the conjunction.
    pub(crate) paths: Mutex<FxHashMap<usize, Arc<PathMemo>>>,
    pub(crate) path_counters: PathMemoCounters,
}

impl PlanSlot {
    /// The plan in the slot, compiling it from `conds` and `start`'s schema
    /// first if the slot is empty; `true` when this call compiled. The
    /// compile runs outside any lock: evaluations that find the slot empty
    /// at once each compile, and the first to finish fills it.
    pub fn plan(
        &self,
        conds: &[Condition],
        start: &Bindings,
        graph: &Graph,
        optimizer: Optimizer,
    ) -> Result<(&PhysicalPlan, bool)> {
        if let Some(plan) = self.plan.get() {
            return Ok((plan, false));
        }
        let bound = start.vars().iter().map(String::as_str).collect();
        let plan = PhysicalPlan::compile(conds, &bound, graph, optimizer)?;
        Ok((self.plan.get_or_init(|| plan), true))
    }

    /// The slot's regular-path memo traffic so far.
    pub fn path_stats(&self) -> PathMemoStats {
        self.path_counters.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_query;
    use strudel_graph::Value;

    fn graph() -> Graph {
        let mut g = Graph::standalone();
        for i in 0..20 {
            let n = g.new_node(None);
            g.add_to_collection_str("Big", Value::Node(n));
            g.add_edge_str(n, "k", i as i64).unwrap();
            if i < 2 {
                g.add_to_collection_str("Small", Value::Node(n));
            }
        }
        g
    }

    fn conds(src: &str) -> Vec<Condition> {
        let q = parse_query(src).unwrap();
        let preds = crate::pred::PredicateRegistry::with_builtins();
        let program = crate::SiteProgram::compile(&q, &preds).unwrap();
        program.stages()[0].block.where_.clone()
    }

    #[test]
    fn compile_fixes_operators_and_estimates() {
        let g = graph();
        let cs = conds(r#"WHERE Small(x), x -> "k" -> v COLLECT Out(x)"#);
        let p =
            PhysicalPlan::compile(&cs, &FxHashSet::default(), &g, Optimizer::CostBased).unwrap();
        assert_eq!(p.nodes.len(), 2);
        assert_eq!(p.nodes[0].op, PhysOp::CollectionScan);
        assert_eq!(p.nodes[1].op, PhysOp::LabelForward);
        assert!(p.nodes[0].est_rows > 0.0);
        assert!((p.nodes[1].est_rows - p.nodes[0].est_rows * p.nodes[1].est_mult).abs() < 1e-9);
        let desc = p.describe(&cs);
        assert!(desc.contains("collection-scan"), "{desc}");
        assert!(desc.contains("est. cost"), "{desc}");
    }

    #[test]
    fn choose_op_tracks_boundness_and_indexing() {
        let cs = conds(r#"WHERE x -> "k" -> v COLLECT Out(x)"#);
        let unbound = |_: &str| false;
        let all_bound = |_: &str| true;
        let only_v = |s: &str| s == "v";
        let only_x = |s: &str| s == "x";
        let ops = |c: &Condition, known| {
            [
                &unbound as &dyn Fn(&str) -> bool,
                &all_bound,
                &only_v,
                &only_x,
            ]
            .map(|bound| choose_op(c, known, bound))
        };
        use PhysOp::*;
        assert_eq!(
            ops(&cs[0], false),
            [LabelScan, LabelSemijoin, LabelReverseIndex, LabelForward]
        );
        // An arc variable known to carry one label is that label's path.
        // Every graph is indexed: a bound target is the reverse index's.
        let arc = conds(r#"WHERE x -> l -> v, l = "k" COLLECT Out(x)"#);
        assert_eq!(
            ops(&arc[0], false),
            [ArcScan, ArcForward, ArcReverseIndex, ArcForward]
        );
        assert_eq!(
            ops(&arc[0], true),
            [LabelScan, LabelSemijoin, LabelReverseIndex, LabelForward]
        );
    }
}
