//! Static semantic analysis.
//!
//! Three jobs, all mandated by §3 of the paper:
//!
//! 1. **Semantic name resolution.** "The distinction between collection
//!    names and external predicates is done at a semantic, not syntactic,
//!    level": a bare identifier in path position (`x -> l -> v`) is an arc
//!    variable unless it names a registered predicate; a one-argument
//!    application (`isPostScript(q)`) is a collection test unless it names a
//!    registered predicate.
//! 2. **Construction safety.** "Each node mentioned in `link` or `collect`
//!    is either mentioned in `create` or is a node in the data graph" and
//!    "edges can only be added from new nodes" (the parser already enforces
//!    the Skolem-source restriction syntactically; here we check that every
//!    Skolem term used anywhere is created somewhere and that its arguments
//!    are variables in scope).
//! 3. **Range-restriction diagnostics.** Variables that no positive
//!    condition binds fall back to active-domain enumeration at evaluation
//!    time (legal — "under the active-domain semantics, every StruQL query
//!    has a well-defined meaning" — but worth a warning, since the paper
//!    notes the semantics is sensitive to the choice of domain).
//!
//! Analysis runs inside [`SiteProgram::compile`]: names are resolved on the
//! block tree, then the checks run over the lifted stages, each against its
//! governing conjunction.

use crate::ast::*;
use crate::error::{Result, StruqlError};
use crate::optimize::vars_of;
use crate::pred::PredicateRegistry;
use crate::program::{Head, SiteProgram, Stage};
use strudel_graph::fxhash::FxHashSet;

/// Pass 1: resolves names in every block of `query`. Returns the resolved
/// root block, ready to be lifted into a [`SiteProgram`].
pub(crate) fn resolve(query: &Query, preds: &PredicateRegistry) -> Result<Block> {
    let mut root = query.root.clone();
    resolve_block(&mut root, preds)?;
    Ok(root)
}

/// Passes 2 and 3, over the lifted query: every Skolem term used is created
/// somewhere, and each stage's clauses read only variables of its governing
/// conjunction. Returns the warnings, or the first semantic error.
pub(crate) fn check(program: &SiteProgram, preds: &PredicateRegistry) -> Result<Vec<String>> {
    let created: FxHashSet<(&str, usize)> = (program.clauses().iter())
        .filter_map(|c| match &c.head {
            Head::Create(sk) => Some((sk.name.as_str(), sk.args.len())),
            _ => None,
        })
        .collect();
    let mut warnings = Vec::new();
    for stage in program.stages() {
        check_stage(stage, &created, preds, &mut warnings)?;
    }
    Ok(warnings)
}

fn resolve_block(block: &mut Block, preds: &PredicateRegistry) -> Result<()> {
    for cond in &mut block.where_ {
        match cond {
            Condition::Collection { name, arg, negated } if preds.contains(name) => {
                let arity = preds.arity(name).expect("registered");
                if arity != 1 {
                    return Err(StruqlError::semantic(format!(
                        "predicate {name} has arity {arity}, applied to 1 argument"
                    )));
                }
                *cond = Condition::Predicate {
                    name: name.clone(),
                    args: vec![arg.clone()],
                    negated: *negated,
                };
            }
            Condition::Predicate { name, args, .. } => {
                if !preds.contains(name) {
                    return Err(StruqlError::semantic(format!(
                        "{name}({} arguments) is not a registered predicate (collections take one argument)",
                        args.len()
                    )));
                }
                let arity = preds.arity(name).expect("registered");
                if arity != args.len() {
                    return Err(StruqlError::semantic(format!(
                        "predicate {name} has arity {arity}, applied to {} arguments",
                        args.len()
                    )));
                }
            }
            Condition::Edge { step, .. } => {
                if let PathStep::Bare(name) = step {
                    *step = if preds.contains(name) {
                        PathStep::Rpe(Rpe::Pred(name.clone()))
                    } else {
                        PathStep::ArcVar(name.clone())
                    };
                }
                if let PathStep::Rpe(rpe) = step {
                    check_rpe_preds(rpe, preds)?;
                }
            }
            _ => {}
        }
    }
    for child in &mut block.children {
        resolve_block(child, preds)?;
    }
    Ok(())
}

fn check_rpe_preds(rpe: &Rpe, preds: &PredicateRegistry) -> Result<()> {
    match rpe {
        Rpe::Pred(p) => {
            if !preds.contains(p) {
                return Err(StruqlError::semantic(format!(
                    "unknown edge predicate {p:?} in regular path expression (arc variables cannot carry RPE operators)"
                )));
            }
            if preds.arity(p) != Some(1) {
                return Err(StruqlError::semantic(format!(
                    "edge predicate {p:?} must be unary"
                )));
            }
            Ok(())
        }
        Rpe::Seq(a, b) | Rpe::Alt(a, b) => {
            check_rpe_preds(a, preds)?;
            check_rpe_preds(b, preds)
        }
        Rpe::Star(r) | Rpe::Plus(r) | Rpe::Opt(r) => check_rpe_preds(r, preds),
        Rpe::Label(_) | Rpe::AnyLabel => Ok(()),
    }
}

/// Variables *positively bound* by `conds`: bound by a collection test, a
/// positive edge, an `in`-set, or an `=` with a literal.
fn positively_bound(conds: &[Condition]) -> FxHashSet<&str> {
    let mut into = FxHashSet::default();
    for cond in conds {
        match cond {
            Condition::Collection {
                arg,
                negated: false,
                ..
            } => collect_term(arg, &mut into),
            Condition::Edge {
                from,
                step,
                to,
                negated: false,
            } => {
                collect_term(from, &mut into);
                collect_term(to, &mut into);
                if let PathStep::ArcVar(v) = step {
                    into.insert(v);
                }
            }
            Condition::In {
                var,
                negated: false,
                ..
            } => {
                into.insert(var);
            }
            Condition::Compare {
                lhs,
                op: CmpOp::Eq,
                rhs,
            } => {
                if let (Term::Var(v), Term::Lit(_)) | (Term::Lit(_), Term::Var(v)) = (lhs, rhs) {
                    into.insert(v);
                }
            }
            _ => {}
        }
    }
    into
}

fn collect_term<'a>(t: &'a Term, into: &mut FxHashSet<&'a str>) {
    if let Term::Var(v) = t {
        into.insert(v);
    }
}

/// Rejects aggregate terms in WHERE positions (they are construction-only).
fn reject_agg_in_where(block: &Block) -> Result<()> {
    let check = |t: &Term| -> Result<()> {
        if let Term::Agg(f, v) = t {
            return Err(StruqlError::semantic(format!(
                "aggregate `{f}({v})` cannot appear in a WHERE clause"
            )));
        }
        Ok(())
    };
    for cond in &block.where_ {
        match cond {
            Condition::Collection { arg, .. } => check(arg)?,
            Condition::Edge { from, to, .. } => {
                check(from)?;
                check(to)?;
            }
            Condition::Predicate { args, .. } => {
                for a in args {
                    check(a)?;
                }
            }
            Condition::Compare { lhs, rhs, .. } => {
                check(lhs)?;
                check(rhs)?;
            }
            Condition::In { .. } => {}
        }
    }
    Ok(())
}

fn check_stage(
    stage: &Stage,
    created: &FxHashSet<(&str, usize)>,
    preds: &PredicateRegistry,
    warnings: &mut Vec<String>,
) -> Result<()> {
    let block = &stage.block;
    reject_agg_in_where(block)?;
    let mentioned: FxHashSet<&str> = stage.prefix.iter().flat_map(vars_of).collect();
    let positive = positively_bound(&stage.prefix);

    // Planner diagnostics: a block this wide forces the cost-based planner
    // off the exhaustive DP join-order search and onto the greedy ordering.
    if block.where_.len() > crate::optimize::DP_LIMIT {
        warnings.push(format!(
            "{}: WHERE has {} conditions (> {}); the cost-based planner will fall back to greedy join ordering",
            block.id,
            block.where_.len(),
            crate::optimize::DP_LIMIT
        ));
    }

    // Active-domain diagnostics.
    for v in mentioned.iter() {
        if !positive.contains(v) {
            warnings.push(format!(
                "{}: variable `{v}` is not bound by any positive condition; active-domain enumeration will apply",
                block.id
            ));
        }
    }

    let check_skolem = |sk: &SkolemTerm, clause: &str| -> Result<()> {
        if !created.contains(&(sk.name.as_str(), sk.args.len())) {
            return Err(StruqlError::semantic(format!(
                "{}: Skolem term `{sk}` used in {clause} but `{}/{}` never appears in a CREATE clause",
                block.id,
                sk.name,
                sk.args.len()
            )));
        }
        for arg in &sk.args {
            if !mentioned.contains(arg.as_str()) {
                return Err(StruqlError::semantic(format!(
                    "{}: Skolem argument `{arg}` of `{sk}` is not a variable of the governing WHERE conjunction",
                    block.id
                )));
            }
        }
        Ok(())
    };

    for sk in &block.creates {
        if preds.contains(&sk.name) {
            warnings.push(format!(
                "{}: Skolem function `{}` shadows a predicate name",
                block.id, sk.name
            ));
        }
        check_skolem(sk, "CREATE")?;
    }
    for link in &block.links {
        check_skolem(&link.from, "LINK")?;
        match &link.to {
            Term::Skolem(sk) => check_skolem(sk, "LINK")?,
            Term::Var(v) => {
                if !mentioned.contains(v.as_str()) {
                    return Err(StruqlError::semantic(format!(
                        "{}: LINK target variable `{v}` is not bound by the governing WHERE conjunction",
                        block.id
                    )));
                }
            }
            Term::Agg(f, v) => {
                if !mentioned.contains(v.as_str()) {
                    return Err(StruqlError::semantic(format!(
                        "{}: aggregate variable `{v}` of `{f}({v})` is not bound by the governing WHERE conjunction",
                        block.id
                    )));
                }
            }
            Term::Lit(_) => {}
        }
        if let LabelTerm::Var(v) = &link.label {
            if !mentioned.contains(v.as_str()) {
                return Err(StruqlError::semantic(format!(
                    "{}: LINK label variable `{v}` is not bound by the governing WHERE conjunction",
                    block.id
                )));
            }
        }
    }
    for coll in &block.collects {
        match &coll.arg {
            Term::Skolem(sk) => check_skolem(sk, "COLLECT")?,
            Term::Var(v) => {
                if !mentioned.contains(v.as_str()) {
                    return Err(StruqlError::semantic(format!(
                        "{}: COLLECT argument `{v}` is not bound by the governing WHERE conjunction",
                        block.id
                    )));
                }
            }
            Term::Agg(f, v) => {
                if !mentioned.contains(v.as_str()) {
                    return Err(StruqlError::semantic(format!(
                        "{}: aggregate variable `{v}` of `{f}({v})` is not bound by the governing WHERE conjunction",
                        block.id
                    )));
                }
            }
            Term::Lit(_) => {}
        }
    }

    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_query;

    fn analyze(query: &Query, preds: &PredicateRegistry) -> Result<SiteProgram> {
        SiteProgram::compile(query, preds)
    }

    fn builtin() -> PredicateRegistry {
        PredicateRegistry::with_builtins()
    }

    #[test]
    fn predicate_reclassified_from_collection() {
        let q =
            parse_query(r#"WHERE HomePages(p), p -> "Paper" -> q, isPostScript(q) COLLECT Out(q)"#)
                .unwrap();
        let a = analyze(&q, &builtin()).unwrap();
        assert!(matches!(
            &a.stages()[0].block.where_[0],
            Condition::Collection { .. }
        ));
        assert!(
            matches!(&a.stages()[0].block.where_[2], Condition::Predicate { name, .. } if name == "isPostScript")
        );
    }

    #[test]
    fn bare_step_resolves_to_arc_var_or_pred() {
        let mut preds = builtin();
        preds.register("isName", 1, |_| true);
        let q = parse_query("WHERE C(x), x -> l -> v, x -> isName -> w COLLECT Out(v)").unwrap();
        let a = analyze(&q, &preds).unwrap();
        assert!(
            matches!(&a.stages()[0].block.where_[1], Condition::Edge { step: PathStep::ArcVar(v), .. } if v == "l")
        );
        assert!(matches!(
            &a.stages()[0].block.where_[2],
            Condition::Edge { step: PathStep::Rpe(Rpe::Pred(p)), .. } if p == "isName"
        ));
    }

    #[test]
    fn unknown_rpe_predicate_is_error() {
        let q = parse_query("WHERE C(x), x -> mystery* -> v COLLECT Out(v)").unwrap();
        let err = analyze(&q, &builtin()).unwrap_err();
        assert!(err.to_string().contains("mystery"), "{err}");
    }

    #[test]
    fn skolem_must_be_created_somewhere() {
        let q = parse_query(r#"WHERE C(x) LINK Page(x) -> "A" -> x"#).unwrap();
        let err = analyze(&q, &builtin()).unwrap_err();
        assert!(err.to_string().contains("CREATE"), "{err}");
    }

    #[test]
    fn skolem_created_in_sibling_block_is_visible() {
        // Fig 3 links YearPage(v) -> PaperPresentation(x) where
        // PaperPresentation is created in the parent block.
        let q = parse_query(
            r#"WHERE C(x) CREATE P(x)
               { WHERE x -> "year" -> v CREATE Y(v) LINK Y(v) -> "Paper" -> P(x) }"#,
        )
        .unwrap();
        assert!(analyze(&q, &builtin()).is_ok());
    }

    #[test]
    fn skolem_arg_must_be_in_scope() {
        let q = parse_query("WHERE C(x) CREATE Page(zz)").unwrap();
        let err = analyze(&q, &builtin()).unwrap_err();
        assert!(err.to_string().contains("zz"), "{err}");
    }

    #[test]
    fn link_target_var_must_be_in_scope() {
        let q = parse_query(r#"WHERE C(x) CREATE P(x) LINK P(x) -> "A" -> nowhere"#).unwrap();
        let err = analyze(&q, &builtin()).unwrap_err();
        assert!(err.to_string().contains("nowhere"), "{err}");
    }

    #[test]
    fn unbound_negated_vars_warn_active_domain() {
        let q = parse_query(r#"WHERE not(p -> l -> q) CREATE f(p), f(q) LINK f(p) -> l -> f(q)"#)
            .unwrap();
        let a = analyze(&q, &builtin()).unwrap();
        assert!(
            a.warnings().iter().any(|w| w.contains("active-domain")),
            "{:?}",
            a.warnings()
        );
    }

    #[test]
    fn wide_where_warns_about_dp_fallback() {
        // One condition over the DP join-order limit triggers the warning.
        let conds: Vec<String> = (0..=crate::optimize::DP_LIMIT)
            .map(|i| format!("x -> \"l{i}\" -> v{i}"))
            .collect();
        let q = parse_query(&format!("WHERE C(x), {} COLLECT Out(x)", conds.join(", "))).unwrap();
        let a = analyze(&q, &builtin()).unwrap();
        assert!(
            a.warnings().iter().any(|w| w.contains("greedy")),
            "{:?}",
            a.warnings()
        );
    }

    #[test]
    fn arity_mismatch_is_error() {
        let q = parse_query("WHERE startsWith(x) COLLECT Out(x)").unwrap();
        let err = analyze(&q, &builtin()).unwrap_err();
        assert!(err.to_string().contains("arity"), "{err}");
    }

    #[test]
    fn multi_arg_unknown_predicate_is_error() {
        let q = parse_query("WHERE foo(x, y) COLLECT Out(x)").unwrap();
        assert!(analyze(&q, &builtin()).is_err());
    }

    #[test]
    fn fig3_analyzes_clean() {
        let q = parse_query(crate::parse::tests::FIG3).unwrap();
        let a = analyze(&q, &builtin()).unwrap();
        assert!(a.warnings().is_empty(), "{:?}", a.warnings());
    }
}
