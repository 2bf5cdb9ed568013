//! # strudel-struql
//!
//! **StruQL** (*Site TRansformation Und Query Language*, §3 of the STRUDEL
//! paper) — the declarative language used both at the mediation level (to
//! integrate source graphs into a data graph) and at the site-definition
//! level (to construct site graphs from a data graph).
//!
//! A query of the core fragment has the form
//!
//! ```text
//! INPUT G
//!   WHERE   C1, …, Ck
//!   CREATE  N1, …, Nn
//!   LINK    L1, …, Lp
//!   COLLECT G1, …, Gq
//!   { nested block } { nested block }
//! OUTPUT R
//! ```
//!
//! and its semantics is described in two stages: the **query stage** depends
//! only on the `WHERE` clauses and produces all bindings of node and arc
//! variables that satisfy every condition (a relation with one attribute per
//! variable); the **construction stage** builds a new graph from that
//! relation using Skolem functions (`CREATE`), edge additions (`LINK`), and
//! collections (`COLLECT`). Nested blocks conjoin their `WHERE` clause with
//! every ancestor's.
//!
//! Conditions are collection-membership tests (`Publications(x)`), regular
//! path expressions (`x -> "Paper" -> y`, `p -> * -> q`), arc variables
//! (`x -> l -> v`), comparisons (`l = "year"`), label-set membership
//! (`l in {"Paper","TechReport"}`), and built-in or external predicates
//! (`isPostScript(q)`) — distinguished from collections *semantically*, not
//! syntactically, exactly as in the paper.
//!
//! The crate contains a full pipeline: [`lex`]/[`parse`] → [`analyze`]
//! (safety and range-restriction checks) → [`optimize`] (naive, heuristic,
//! and cost-based condition orderings over the repository's indexes, per
//! §2.4 and \[FLO 97\]) → [`program`] (the block tree lifted into stages
//! and clauses, once) → [`eval`] (the query stage) → [`construct`] (the
//! construction stage).
//!
//! ```
//! use strudel_graph::ddl;
//! use strudel_struql::{parse_query, EvalOptions};
//!
//! let data = ddl::parse(r#"
//!     object p1 in Publications { title "UnQL" year 1996 }
//!     object p2 in Publications { title "Lorel" year 1996 }
//! "#).unwrap();
//! let q = parse_query(r#"
//!     WHERE Publications(x), x -> "title" -> t
//!     CREATE Page(x)
//!     LINK   Page(x) -> "Title" -> t
//!     COLLECT Pages(Page(x))
//! "#).unwrap();
//! let out = q.evaluate(&data, &EvalOptions::default()).unwrap();
//! assert_eq!(out.graph.collection_str("Pages").unwrap().len(), 2);
//! ```

#![warn(missing_docs)]

pub mod analyze;
pub mod ast;
pub mod binding;
pub mod construct;
pub mod error;
pub mod eval;
pub mod lex;
pub mod optimize;
pub mod parse;
pub mod plan;
pub mod pred;
pub mod program;
pub mod rpe;

pub use ast::{Block, BlockId, Condition, LabelTerm, Query, Rpe, SkolemTerm, Term};
pub use binding::Bindings;
pub use construct::SkolemTable;
pub use error::{Result, StruqlError};
pub use eval::{
    evaluate_conditions, execute_plan, run_on_database, EvalOptions, EvalOutput, EvalStats,
    PathMemoStats,
};
pub use optimize::{planner_dp_fallbacks, Optimizer, PLANNER_SIGNALS};
pub use parse::parse_query;
pub use plan::{PhysOp, PhysicalPlan, PlanSlot};
pub use pred::PredicateRegistry;
pub use program::SiteProgram;
