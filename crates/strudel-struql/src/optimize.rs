//! Condition ordering: StruQL's query optimizer.
//!
//! The paper describes two generations of optimizer (§2.4): "In STRUDEL's
//! first implementation, we built a simple heuristic-based optimizer. Later,
//! we developed a more comprehensive cost-based optimization algorithm
//! \[FLO 97\]. The new optimizer can enumerate plans that exploit indexes on
//! the data and the schema in order to choose the best plan."
//!
//! We implement all three strategies, selectable per evaluation:
//!
//! * [`Optimizer::Naive`] — evaluate conditions in the order written.
//! * [`Optimizer::Heuristic`] — greedy: all-bound filters first, then the
//!   binder with the smallest estimated fan-out.
//! * [`Optimizer::CostBased`] — exhaustive dynamic programming over
//!   condition subsets (up to [`DP_LIMIT`] conditions, falling back to the
//!   heuristic beyond that), minimizing the estimated sum of intermediate
//!   result sizes.
//!
//! Cardinality estimates come from the repository's indexes (collection
//! extents, per-label edge counts and, where the extents are built anyway,
//! per-label degrees); what they cannot tell falls back to whole-graph
//! averages.
//!
//! **A known label is a label** (`KnownLabels`; at click time a page's
//! conjunction is the parent block's `Articles(a), a -> l -> v` and the nested
//! block's `l = "section"` in one plan). Once `l = "text"` has run — binding
//! `l` or filtering it — every value left in the `l` column is text reading
//! `text`, provided no number compares with `text`; such a value meets
//! exactly the label `text` ([`Value::coerced_eq`]). A positive edge
//! condition whose arc variable is `l` is from then on the path
//! `-> "text" ->`: `multiplier` costs it from that label's cardinality
//! (the counts only — degree tallies would build the index's extents at plan
//! time, which leaf pages' plans must not), [`crate::plan::choose_op`]
//! selects a single-label operator and the plan node carries the label. The
//! row *set* is the arc operator's (which emits a row per edge where the
//! label operator emits one per distinct pair); the `l` column stays, bound
//! by the compare. Left out: a number-like text, because an `l` bound
//! elsewhere to the number 1997 passes `l = "1997"` and also meets a label
//! `"1997.0"`; a start-bound `l`, whose values are the caller's; negated
//! edges. An `l` bound per row but not known (`l IN {…}`, a page argument)
//! stays on the arc operators, costed at its share of the edges.

use crate::ast::{CmpOp, Condition, Literal, PathStep, Rpe, Term};
use strudel_graph::fxhash::FxHashSet;
use strudel_graph::{Graph, Value};
use strudel_obs::{Counter, Reading, Signal};

/// How many times the cost-based planner has fallen back to the greedy
/// heuristic because a block had more than [`DP_LIMIT`] conditions. The
/// fallback used to be silent; it is surfaced in `/stats`, `/metrics` and
/// `explain` so oversized blocks are visible in production.
static PLANNER_DP_FALLBACKS: Counter = Counter::new();

/// Process-lifetime count of silent DP→greedy planner fallbacks.
pub fn planner_dp_fallbacks() -> u64 {
    PLANNER_DP_FALLBACKS.get()
}

/// The planner's signals, read out of [`planner_dp_fallbacks`]' count.
pub const PLANNER_SIGNALS: &[Signal<u64>] = &[Signal {
    key: "planner_dp_fallbacks",
    family: "strudel_planner_dp_fallbacks_total",
    help: "Cost-based plans that fell back to the greedy ordering because \
           the block exceeded the DP join-order limit.",
    read: |fallbacks| Reading::Counter(*fallbacks),
}];

/// Which plan-selection strategy to use.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Optimizer {
    /// Conditions evaluated in the order written.
    Naive,
    /// Greedy bound-first / smallest-fan-out ordering (STRUDEL's first
    /// implementation).
    Heuristic,
    /// Subset dynamic programming minimizing estimated intermediate sizes
    /// (the \[FLO 97\] cost-based optimizer).
    #[default]
    CostBased,
}

impl Optimizer {
    /// Short name, used in plan renderings.
    pub fn name(self) -> &'static str {
        match self {
            Optimizer::Naive => "naive",
            Optimizer::Heuristic => "heuristic",
            Optimizer::CostBased => "cost-based",
        }
    }
}

/// Beyond this many conditions the cost-based optimizer falls back to the
/// heuristic (the DP is exponential in the number of conditions).
pub const DP_LIMIT: usize = 12;

/// Summary statistics the cost model reads from a graph.
#[derive(Clone, Copy, Debug)]
pub struct GraphStats {
    /// Number of member nodes.
    pub nodes: f64,
    /// Number of edges.
    pub edges: f64,
    /// Number of distinct labels.
    pub labels: f64,
}

impl GraphStats {
    /// Reads statistics from a graph.
    pub fn of(graph: &Graph) -> GraphStats {
        GraphStats {
            nodes: graph.node_count() as f64,
            edges: graph.edge_count() as f64,
            labels: graph.label_count() as f64,
        }
    }

    fn avg_degree(&self) -> f64 {
        if self.nodes > 0.0 {
            self.edges / self.nodes
        } else {
            0.0
        }
    }

    /// Per-label degree statistics from the index, for a label the graph
    /// carries. These replace the uniform [`GraphStats::avg_degree`]
    /// assumption for single-label path steps: fan-out is averaged over the
    /// nodes that actually carry the label, and fan-in over the values the
    /// label actually reaches — so a probe into a low-cardinality hub target
    /// (five `section` values shared by hundreds of articles) is costed at
    /// its real fan-in instead of an optimistic whole-graph average.
    pub fn label_degrees(graph: &Graph, label: &str) -> Option<LabelDegrees> {
        let sym = graph.universe().interner().get(label)?;
        // A label the graph does not carry has no degrees to ask the full
        // index (and so its extents) for.
        let card = match graph.label_cardinality(sym) {
            0 => return None,
            c => c as f64,
        };
        let (src, tgt) = graph.label_degrees(sym);
        if src == 0 || tgt == 0 {
            return None;
        }
        Some(LabelDegrees {
            cardinality: card,
            out_degree: card / src as f64,
            fan_in: card / tgt as f64,
        })
    }
}

/// Degree statistics of one label (see [`GraphStats::label_degrees`]).
#[derive(Clone, Copy, Debug)]
pub struct LabelDegrees {
    /// Number of edges carrying the label.
    pub cardinality: f64,
    /// Average out-degree among distinct sources of the label (under the
    /// containment assumption: a bound source is assumed to come from the
    /// label's source set, the usual case in join chains).
    pub out_degree: f64,
    /// Average fan-in among distinct targets of the label (the expected
    /// rows a reverse probe on a bound target returns).
    pub fan_in: f64,
}

/// Cardinality of a label's extension, if the label was ever interned.
fn label_card(graph: &Graph, label: &str) -> Option<f64> {
    let sym = graph.universe().interner().get(label)?;
    Some(graph.label_cardinality(sym) as f64)
}

fn collection_card(graph: &Graph, name: &str) -> Option<f64> {
    graph.collection_str(name).map(|c| c.len() as f64)
}

/// The variables a condition can *bind* (positive occurrences). For every
/// condition kind these are exactly the variables bound in the relation
/// after the condition is applied (filters on bound variables add nothing;
/// negated and filter conditions bind their unbound variables too, via
/// active-domain expansion) — which is why static bound-set tracking during
/// plan compilation agrees with the evaluator's runtime `is_bound`.
pub(crate) fn vars_of(cond: &Condition) -> Vec<&str> {
    let mut out = Vec::new();
    match cond {
        Condition::Collection { arg, .. } => {
            if let Term::Var(v) = arg {
                out.push(v.as_str());
            }
        }
        Condition::Edge { from, step, to, .. } => {
            if let Term::Var(v) = from {
                out.push(v.as_str());
            }
            if let PathStep::ArcVar(v) = step {
                out.push(v.as_str());
            }
            if let Term::Var(v) = to {
                out.push(v.as_str());
            }
        }
        Condition::Predicate { args, .. } => {
            for a in args {
                if let Term::Var(v) = a {
                    out.push(v.as_str());
                }
            }
        }
        Condition::Compare { lhs, rhs, .. } => {
            for t in [lhs, rhs] {
                if let Term::Var(v) = t {
                    out.push(v.as_str());
                }
            }
        }
        Condition::In { var, .. } => out.push(var.as_str()),
    }
    out
}

fn rpe_has_star(rpe: &Rpe) -> bool {
    match rpe {
        Rpe::Star(_) | Rpe::Plus(_) => true,
        Rpe::Seq(a, b) | Rpe::Alt(a, b) => rpe_has_star(a) || rpe_has_star(b),
        Rpe::Opt(r) => rpe_has_star(r),
        _ => false,
    }
}

/// The `l = "text"` facts of one conjunction (module docs): which of its
/// arc-variable edge conditions are single-label paths, from which compare on.
pub(crate) struct KnownLabels<'c> {
    /// Per condition: the compare that fixes its arc variable, and the label.
    by_cond: Vec<Option<(usize, &'c str)>>,
}

impl<'c> KnownLabels<'c> {
    pub(crate) fn of(conds: &'c [Condition], start: &FxHashSet<&str>) -> Self {
        let fact = |c: &'c Condition| {
            let Condition::Compare {
                lhs,
                op: CmpOp::Eq,
                rhs,
            } = c
            else {
                return None;
            };
            let ((Term::Var(l), Term::Lit(Literal::Str(t)))
            | (Term::Lit(Literal::Str(t)), Term::Var(l))) = (lhs, rhs)
            else {
                return None;
            };
            let numeric = Value::Int(0).coerced_cmp(&Value::str(t)).is_some();
            (!numeric && !start.contains(l.as_str())).then_some((l.as_str(), t.as_str()))
        };
        let facts: Vec<(usize, (&str, &str))> = (conds.iter().enumerate())
            .filter_map(|(i, c)| Some((i, fact(c)?)))
            .collect();
        let by_cond = (conds.iter())
            .map(|c| match c {
                Condition::Edge {
                    step: PathStep::ArcVar(l),
                    negated: false,
                    ..
                } => (facts.iter().find(|(_, (v, _))| v == l)).map(|&(i, (_, t))| (i, t)),
                _ => None,
            })
            .collect();
        KnownLabels { by_cond }
    }

    /// The label `conds[i]`'s arc variable is known to carry once the
    /// conditions `applied` have run.
    pub(crate) fn label(&self, i: usize, applied: impl Fn(usize) -> bool) -> Option<&'c str> {
        self.by_cond[i]
            .filter(|(by, _)| applied(*by))
            .map(|(_, t)| t)
    }
}

/// The multiplier of the single-label path `-> "label" ->`.
fn label_path(
    label: &str,
    degrees: Option<LabelDegrees>,
    fb: bool,
    tb: bool,
    graph: &Graph,
    stats: &GraphStats,
) -> f64 {
    let card = label_card(graph, label).unwrap_or(stats.edges);
    // Whole-graph fallback when the index can't supply per-label degree
    // statistics.
    let uniform = (card / stats.nodes.max(1.0)).max(0.5);
    match (fb, tb) {
        (true, true) => 0.3,
        // Containment assumption: a bound source comes from the label's
        // source set, so fan-out is the average out-degree among labeled
        // sources.
        (true, false) => degrees.map_or(uniform, |d| d.out_degree).max(0.5),
        // Reverse probe: expected rows per bound target is the label's
        // fan-in — card / distinct targets. A hub target (400 edges onto 5
        // section values) returns 80 rows per probe, not card/nodes ≈ 1.
        (false, true) => degrees.map_or(uniform, |d| d.fan_in).max(0.5),
        (false, false) => card.max(1.0),
    }
}

/// Estimated *result multiplier* of applying `cond` when `bound` variables
/// are already bound: < 1 for filters, the fan-out for binders. `known` is
/// the label an arc-variable edge condition is known to carry
/// ([`KnownLabels::label`]).
pub(crate) fn multiplier(
    cond: &Condition,
    known: Option<&str>,
    bound: &FxHashSet<&str>,
    graph: &Graph,
    stats: &GraphStats,
) -> f64 {
    let is_bound = |t: &Term| match t {
        Term::Var(v) => bound.contains(v.as_str()),
        Term::Lit(_) => true,
        Term::Skolem(_) | Term::Agg(..) => false,
    };
    match cond {
        Condition::Collection { name, arg, negated } => match (is_bound(arg), negated) {
            (true, true) => 0.9,
            (true, false) => 0.5,
            (false, true) => stats.nodes.max(1.0),
            (false, false) => collection_card(graph, name).unwrap_or(stats.nodes).max(1.0),
        },
        Condition::Edge {
            from,
            step,
            to,
            negated,
        } => {
            if *negated {
                let unbound = [is_bound(from), is_bound(to)]
                    .iter()
                    .filter(|b| !**b)
                    .count()
                    + usize::from(
                        matches!(step, PathStep::ArcVar(v) if !bound.contains(v.as_str())),
                    );
                return if unbound == 0 {
                    0.9
                } else {
                    stats.nodes.max(1.0).powi(unbound as i32)
                };
            }
            let fb = is_bound(from);
            let tb = is_bound(to);
            match step {
                PathStep::ArcVar(l) => match known {
                    // Costed from the counts alone: the degree tallies would
                    // build the index's extents, which a leaf page's plan
                    // (`…, l = "related"`) must not start doing.
                    Some(label) => label_path(label, None, fb, tb, graph, stats),
                    None => {
                        // A label bound per row (`l IN {…}`, a page
                        // argument) keeps its share of the edges.
                        let lb = bound.contains(l.as_str());
                        let per = |edges: f64| match lb {
                            true => (edges / stats.labels.max(1.0)).max(0.5),
                            false => edges.max(1.0),
                        };
                        match (fb, tb) {
                            (true, true) if lb => 0.3,
                            (true, true) => 1.2,
                            (true, false) | (false, true) => per(stats.avg_degree()),
                            (false, false) => per(stats.edges),
                        }
                    }
                },
                PathStep::Rpe(Rpe::Label(l)) => {
                    label_path(l, GraphStats::label_degrees(graph, l), fb, tb, graph, stats)
                }
                PathStep::Rpe(rpe) => {
                    let reach = if rpe_has_star(rpe) {
                        stats.nodes.max(1.0)
                    } else {
                        stats
                            .avg_degree()
                            .max(1.0)
                            .powi(3)
                            .min(stats.nodes.max(1.0))
                    };
                    match (fb, tb) {
                        (true, true) => 0.5,
                        (true, false) | (false, true) => reach,
                        (false, false) => stats.nodes.max(1.0) * reach,
                    }
                }
                PathStep::Bare(_) => stats.edges.max(1.0),
            }
        }
        Condition::Predicate { args, negated, .. } if args.iter().all(is_bound) => match negated {
            true => 0.7,
            false => 0.5,
        },
        Condition::Predicate { args, .. } => {
            let unbound = args.iter().filter(|a| !is_bound(a)).count();
            stats.nodes.max(1.0).powi(unbound as i32)
        }
        Condition::Compare { lhs, op, rhs } => {
            let (lb, rb) = (is_bound(lhs), is_bound(rhs));
            match (lb, rb) {
                (true, true) if *op == CmpOp::Eq => 0.1,
                (true, true) => 0.4,
                // `v = <bound>` is an assignment: one row out per row in.
                (false, true) | (true, false) if *op == CmpOp::Eq => 1.0,
                _ => stats.nodes.max(1.0),
            }
        }
        Condition::In { var, set, negated } => match (bound.contains(var.as_str()), negated) {
            (true, true) => 0.8,
            (true, false) => (set.len() as f64 / stats.labels.max(set.len() as f64)).min(0.8),
            (false, true) => stats.labels.max(stats.nodes).max(1.0),
            (false, false) => set.len() as f64,
        },
    }
}

/// Variables `cond` would have to enumerate over the *active domain* if it
/// were applied while they are unbound. Active-domain enumeration is only
/// correct when no other condition can bind the variable exactly (the
/// conjunction is order-independent otherwise), so the planners refuse to
/// schedule such a condition while a positive binder for the variable
/// remains — see [`eligible`].
fn expansion_vars<'c>(cond: &'c Condition, bound: &FxHashSet<&str>) -> Vec<&'c str> {
    let unbound = |t: &'c Term| match t {
        Term::Var(v) if !bound.contains(v.as_str()) => Some(v.as_str()),
        _ => None,
    };
    match cond {
        Condition::Collection {
            arg, negated: true, ..
        } => unbound(arg).into_iter().collect(),
        Condition::Collection { .. } => vec![],
        Condition::Edge {
            from,
            step,
            to,
            negated: true,
        } => {
            let mut out: Vec<&str> = [unbound(from), unbound(to)].into_iter().flatten().collect();
            if let PathStep::ArcVar(v) = step {
                if !bound.contains(v.as_str()) {
                    out.push(v);
                }
            }
            out
        }
        Condition::Edge {
            from,
            step,
            to,
            negated: false,
        } => {
            // A positive edge enumerates sources over member nodes only when
            // both ends are unbound. That is exact unless the path can be
            // empty (a nullable RPE admits atomic sources), in which case a
            // remaining binder for `from` must run first.
            let both_unbound = unbound(from).is_some()
                && match to {
                    Term::Var(v) => !bound.contains(v.as_str()),
                    _ => false,
                };
            match step {
                PathStep::Rpe(rpe) if both_unbound && rpe.nullable() => {
                    unbound(from).into_iter().collect()
                }
                _ => vec![],
            }
        }
        Condition::Predicate { args, .. } => args.iter().filter_map(unbound).collect(),
        Condition::Compare { lhs, op, rhs } => {
            let l = unbound(lhs);
            let r = unbound(rhs);
            match (l, r) {
                (None, None) => vec![],
                // `v = <bound>` is an exact assignment.
                (Some(_), None) | (None, Some(_)) if *op == CmpOp::Eq => vec![],
                _ => [l, r].into_iter().flatten().collect(),
            }
        }
        Condition::In { var, negated, .. } => {
            if *negated && !bound.contains(var.as_str()) {
                vec![var.as_str()]
            } else {
                vec![]
            }
        }
    }
}

/// Variables a condition binds *exactly* when applied (positive binders).
fn binder_vars(cond: &Condition) -> Vec<&str> {
    match cond {
        Condition::Collection {
            arg,
            negated: false,
            ..
        } => arg.as_var().into_iter().collect(),
        Condition::Edge {
            from,
            step,
            to,
            negated: false,
        } => {
            let mut out: Vec<&str> = Vec::new();
            if let Term::Var(v) = from {
                out.push(v);
            }
            if let PathStep::ArcVar(v) = step {
                out.push(v);
            }
            if let Term::Var(v) = to {
                out.push(v);
            }
            out
        }
        Condition::In {
            var,
            negated: false,
            ..
        } => vec![var.as_str()],
        Condition::Compare {
            lhs,
            op: CmpOp::Eq,
            rhs,
        } => [lhs, rhs].into_iter().filter_map(Term::as_var).collect(),
        _ => vec![],
    }
}

/// Whether `cond` may be scheduled now: none of the variables it would
/// enumerate over the active domain can still be bound exactly by a
/// remaining condition.
pub(crate) fn eligible(
    cond: &Condition,
    bound: &FxHashSet<&str>,
    remaining: &[&Condition],
) -> bool {
    let exp = expansion_vars(cond, bound);
    if exp.is_empty() {
        return true;
    }
    !remaining.iter().any(|other| {
        !std::ptr::eq(*other, cond) && binder_vars(other).iter().any(|v| exp.contains(v))
    })
}

/// An ordered plan: conditions in execution order with their estimated
/// multipliers ([`crate::plan::PhysicalPlan::compile`] fixes the operators
/// and `explain` prints them).
#[derive(Clone, Debug)]
pub struct Plan {
    /// Indices into the original condition slice, in execution order.
    pub order: Vec<usize>,
    /// Estimated per-step result multipliers, parallel to `order` (the
    /// physical-plan compiler turns these into per-node row estimates).
    pub mults: Vec<f64>,
    /// Estimated total intermediate rows.
    pub est_cost: f64,
    /// Whether the cost-based planner fell back to the greedy heuristic
    /// because the block exceeded [`DP_LIMIT`] conditions.
    pub dp_fallback: bool,
}

/// Orders `conditions` for evaluation starting from the `bound` variables.
pub fn plan(
    conditions: &[Condition],
    bound: &FxHashSet<&str>,
    graph: &Graph,
    optimizer: Optimizer,
) -> Plan {
    match optimizer {
        Optimizer::Naive => plan_in_turn(conditions, bound, graph, true),
        Optimizer::Heuristic => plan_in_turn(conditions, bound, graph, false),
        Optimizer::CostBased => {
            if conditions.len() <= DP_LIMIT {
                plan_dp(conditions, bound, graph)
            } else {
                PLANNER_DP_FALLBACKS.inc();
                let mut p = plan_in_turn(conditions, bound, graph, false);
                p.dp_fallback = true;
                p
            }
        }
    }
}

/// Selects the next condition from `remaining` (indices into `conditions`):
/// the best according to `score` among eligible candidates, falling back to
/// the best overall if mutual waiting leaves none eligible.
pub(crate) fn pick_next(
    conditions: &[Condition],
    remaining: &[usize],
    bound: &FxHashSet<&str>,
    score: impl Fn(usize) -> f64,
) -> usize {
    let rem_refs: Vec<&Condition> = remaining.iter().map(|&i| &conditions[i]).collect();
    let candidates: Vec<usize> = remaining
        .iter()
        .copied()
        .filter(|&i| eligible(&conditions[i], bound, &rem_refs))
        .collect();
    let pool = if candidates.is_empty() {
        remaining
    } else {
        &candidates
    };
    *pool
        .iter()
        .min_by(|&&a, &&b| score(a).total_cmp(&score(b)))
        .expect("non-empty pool")
}

/// One condition at a time: the next as written (`written`, the naive
/// plan) or the one with the smallest multiplier (the greedy heuristic) —
/// never an active-domain expansion before its binders, which is semantics,
/// not optimization.
fn plan_in_turn(
    conditions: &[Condition],
    bound: &FxHashSet<&str>,
    graph: &Graph,
    written: bool,
) -> Plan {
    let stats = GraphStats::of(graph);
    let known = KnownLabels::of(conditions, bound);
    let mut bound: FxHashSet<&str> = bound.clone();
    let mut remaining: Vec<usize> = (0..conditions.len()).collect();
    let mut order = Vec::with_capacity(conditions.len());
    let mut mults = Vec::with_capacity(conditions.len());
    let mut rows = 1.0f64;
    let mut cost = 0.0f64;
    while !remaining.is_empty() {
        let mult = |i: usize| {
            let label = known.label(i, |j| !remaining.contains(&j));
            multiplier(&conditions[i], label, &bound, graph, &stats)
        };
        let i = pick_next(conditions, &remaining, &bound, |i| match written {
            true => i as f64,
            false => mult(i),
        });
        let m = mult(i);
        remaining.retain(|&j| j != i);
        rows *= m;
        cost += rows;
        for v in vars_of(&conditions[i]) {
            bound.insert(v);
        }
        order.push(i);
        mults.push(m);
    }
    Plan {
        order,
        mults,
        est_cost: cost,
        dp_fallback: false,
    }
}

fn plan_dp(conditions: &[Condition], initial_bound: &FxHashSet<&str>, graph: &Graph) -> Plan {
    let stats = GraphStats::of(graph);
    let known = KnownLabels::of(conditions, initial_bound);
    let n = conditions.len();
    if n == 0 {
        return Plan {
            order: vec![],
            mults: vec![],
            est_cost: 0.0,
            dp_fallback: false,
        };
    }

    // Variable universe: map names to bits for fast bound-set tracking.
    let mut var_names: Vec<&str> = Vec::new();
    for c in conditions {
        for v in vars_of(c) {
            if !var_names.contains(&v) {
                var_names.push(v);
            }
        }
    }
    let var_bit = |v: &str| var_names.iter().position(|w| *w == v);
    let mut init_vars: u64 = 0;
    for v in initial_bound {
        if let Some(b) = var_bit(v) {
            init_vars |= 1 << b;
        }
    }
    let cond_vars: Vec<u64> = conditions
        .iter()
        .map(|c| {
            let mut m = 0u64;
            for v in vars_of(c) {
                if let Some(b) = var_bit(v) {
                    m |= 1 << b;
                }
            }
            m
        })
        .collect();

    // dp[mask] = (rows, total_cost, predecessor mask, last condition).
    let size = 1usize << n;
    let mut dp: Vec<Option<(f64, f64, usize, usize)>> = vec![None; size];
    dp[0] = Some((1.0, 0.0, 0, usize::MAX));

    // Bound-var set for a mask is derivable: init ∪ vars of chosen conds.
    let mask_vars = |mask: usize| -> u64 {
        let mut v = init_vars;
        for (i, cv) in cond_vars.iter().enumerate() {
            if mask & (1 << i) != 0 {
                v |= cv;
            }
        }
        v
    };

    for mask in 0..size {
        let Some((rows, cost, _, _)) = dp[mask] else {
            continue;
        };
        let bound_bits = mask_vars(mask);
        let bound: FxHashSet<&str> = var_names
            .iter()
            .enumerate()
            .filter(|(b, _)| bound_bits & (1 << b) != 0)
            .map(|(_, v)| *v)
            .collect();
        let remaining: Vec<&Condition> = (0..n)
            .filter(|i| mask & (1 << i) == 0)
            .map(|i| &conditions[i])
            .collect();
        let eligible_next: Vec<usize> = (0..n)
            .filter(|&i| mask & (1 << i) == 0 && eligible(&conditions[i], &bound, &remaining))
            .collect();
        // If mutual waiting leaves nothing eligible, fall back to all.
        let next_pool: Vec<usize> = if eligible_next.is_empty() {
            (0..n).filter(|&i| mask & (1 << i) == 0).collect()
        } else {
            eligible_next
        };
        for i in next_pool {
            let label = known.label(i, |j| mask & (1 << j) != 0);
            let m = multiplier(&conditions[i], label, &bound, graph, &stats);
            let new_rows = rows * m;
            let new_cost = cost + new_rows;
            let next = mask | (1 << i);
            if dp[next].is_none_or(|(_, c, _, _)| new_cost < c) {
                dp[next] = Some((new_rows, new_cost, mask, i));
            }
        }
    }

    // Reconstruct.
    let mut order = Vec::with_capacity(n);
    let mut mask = size - 1;
    let final_cost = dp[mask].expect("full mask reachable").1;
    while mask != 0 {
        let (_, _, prev, last) = dp[mask].expect("on path");
        order.push(last);
        mask = prev;
    }
    order.reverse();

    // Recompute the multipliers along the chosen order.
    let mut bound: FxHashSet<&str> = initial_bound.clone();
    let mut mults = Vec::with_capacity(n);
    for (k, &i) in order.iter().enumerate() {
        let label = known.label(i, |j| order[..k].contains(&j));
        mults.push(multiplier(&conditions[i], label, &bound, graph, &stats));
        for v in vars_of(&conditions[i]) {
            bound.insert(v);
        }
    }
    Plan {
        order,
        mults,
        est_cost: final_cost,
        dp_fallback: false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_query;
    use crate::plan::{PhysOp, PhysicalPlan};
    use strudel_graph::Value;

    /// A graph where `Small` has 2 members and `Big` has 100, with `k`
    /// edges out of Big members.
    fn skewed_graph() -> Graph {
        let mut g = Graph::standalone();
        for i in 0..100 {
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
    fn heuristic_starts_from_small_collection() {
        let g = skewed_graph();
        // Written big-first; the optimizer should flip the order.
        let cs = conds(r#"WHERE Big(x), Small(x) COLLECT Out(x)"#);
        let p = plan(&cs, &FxHashSet::default(), &g, Optimizer::Heuristic);
        assert_eq!(p.order, vec![1, 0]);
        let naive = plan(&cs, &FxHashSet::default(), &g, Optimizer::Naive);
        assert_eq!(naive.order, vec![0, 1]);
        assert!(p.est_cost < naive.est_cost);
    }

    #[test]
    fn filters_run_after_their_binders() {
        let g = skewed_graph();
        let cs = conds(r#"WHERE v = 3, Small(x), x -> "k" -> v COLLECT Out(x)"#);
        let p = plan(&cs, &FxHashSet::default(), &g, Optimizer::CostBased);
        // Whatever join order wins, the chosen plan must avoid active-domain
        // expansion (every condition runs with its inputs bound) and must
        // not cost more than naive left-to-right evaluation.
        let mut bound = FxHashSet::default();
        for &i in &p.order {
            assert_eq!(
                expansion_vars(&cs[i], &bound),
                Vec::<&str>::new(),
                "{:?}",
                p.order
            );
            bound.extend(vars_of(&cs[i]));
        }
        let naive = plan(&cs, &FxHashSet::default(), &g, Optimizer::Naive);
        assert!(p.est_cost <= naive.est_cost, "{:?}", p.order);
    }

    #[test]
    fn cost_based_never_worse_than_naive() {
        let g = skewed_graph();
        for src in [
            r#"WHERE Big(x), Small(x), x -> "k" -> v, v = 3 COLLECT Out(x)"#,
            r#"WHERE x -> "k" -> v, Big(x) COLLECT Out(x)"#,
            r#"WHERE Big(x), x -> * -> y, Small(x) COLLECT Out(y)"#,
        ] {
            let cs = conds(src);
            let dp = plan(&cs, &FxHashSet::default(), &g, Optimizer::CostBased);
            let naive = plan(&cs, &FxHashSet::default(), &g, Optimizer::Naive);
            assert!(
                dp.est_cost <= naive.est_cost + 1e-9,
                "{src}: {} vs {}",
                dp.est_cost,
                naive.est_cost
            );
        }
    }

    #[test]
    fn dp_handles_empty_and_unit() {
        let g = skewed_graph();
        let p = plan(&[], &FxHashSet::default(), &g, Optimizer::CostBased);
        assert!(p.order.is_empty());
        let cs = conds("WHERE Small(x) COLLECT Out(x)");
        let p = plan(&cs, &FxHashSet::default(), &g, Optimizer::CostBased);
        assert_eq!(p.order, vec![0]);
    }

    #[test]
    fn already_bound_vars_make_conditions_filters() {
        let g = skewed_graph();
        let cs = conds("WHERE Big(x) COLLECT Out(x)");
        let mut bound = FxHashSet::default();
        bound.insert("x");
        let p = PhysicalPlan::compile(&cs, &bound, &g, Optimizer::CostBased).unwrap();
        assert_eq!(p.nodes[0].op, PhysOp::CollectionSemijoin);
    }

    #[test]
    fn describe_mentions_methods() {
        let g = skewed_graph();
        let cs = conds(r#"WHERE Small(x), x -> "k" -> v COLLECT Out(x)"#);
        let p = PhysicalPlan::compile(&cs, &FxHashSet::default(), &g, Optimizer::Heuristic);
        let desc = p.unwrap().describe(&cs);
        assert!(desc.contains("[collection-scan] Small(x)"), "{desc}");
        assert!(desc.contains("[label-forward] x -> \"k\" -> v"), "{desc}");
    }
}
