//! The site program: a query's block tree lifted once into stages and
//! clauses — the site schema of §3.2, "one edge … for every link expression
//! … labeled (Q, L, X, Y) where Q is the conjunction of where clauses
//! associated with that link expression". The build runs the [`Stage`]s
//! ([`SiteProgram::evaluate_into`]); in `strudel-site`, click time runs a
//! page's [`Conjunction`]s, the maintainer seeds a stage's conjunction with
//! a delta and the site schema views the [`Clause`]s. Nothing else walks
//! the block tree.

use crate::analyze::{check, resolve};
use crate::ast::*;
use crate::error::Result;
use crate::optimize::vars_of;
use crate::pred::PredicateRegistry;
use strudel_graph::fxhash::FxHashSet;

/// One block of the query, in document order.
#[derive(Clone, Debug)]
pub struct Stage {
    /// The block; its nested blocks are stages of their own.
    pub block: Block,
    /// The governing conjunction: every ancestor's `WHERE`, then the
    /// block's own.
    pub prefix: Vec<Condition>,
    /// The variables the ancestors' conditions mention: bound on entry.
    pub bound: Vec<String>,
    /// The blocks from the root to this one that have a `WHERE` clause —
    /// the `Q` of the schema's edge labels.
    pub governing: Vec<BlockId>,
    /// The stages of the blocks nested directly in this one.
    pub children: Vec<usize>,
}

/// The conjunction of the link clauses of one stage with the same source
/// arguments: for one page they all start from the same bindings, so one
/// evaluation serves them all.
#[derive(Clone, Debug)]
pub struct Conjunction {
    /// The stage whose governing conjunction this is.
    pub stage: usize,
    /// The source Skolem arguments, bound from a page's arguments.
    pub args: Vec<String>,
}

/// A construction clause and the stage of the block it is written in.
#[derive(Clone, Debug)]
pub struct Clause {
    /// The stage.
    pub stage: usize,
    /// What the clause constructs.
    pub head: Head,
}

/// What a [`Clause`] constructs.
#[derive(Clone, Debug)]
pub enum Head {
    /// A `CREATE` term.
    Create(SkolemTerm),
    /// A `LINK` item.
    Link {
        /// The item.
        link: LinkClause,
        /// Index of its [`Conjunction`].
        conjunction: usize,
    },
    /// A `COLLECT` item.
    Collect(CollectClause),
}

/// A query lifted into stages and clauses (see the module docs).
#[derive(Clone, Debug, Default)]
pub struct SiteProgram {
    stages: Vec<Stage>,
    conjunctions: Vec<Conjunction>,
    clauses: Vec<Clause>,
    arc_vars: FxHashSet<String>,
    warnings: Vec<String>,
}

impl SiteProgram {
    /// Resolves `query`'s names against `preds`, lifts it and checks it
    /// ([`crate::analyze`]).
    pub fn compile(query: &Query, preds: &PredicateRegistry) -> Result<SiteProgram> {
        let mut program = SiteProgram::default();
        program.lift(resolve(query, preds)?, None);
        program.warnings = check(&program, preds)?;
        Ok(program)
    }

    fn lift(&mut self, mut block: Block, parent: Option<usize>) {
        let at = self.stages.len();
        let (mut prefix, mut governing) = match parent {
            Some(p) => {
                self.stages[p].children.push(at);
                (
                    self.stages[p].prefix.clone(),
                    self.stages[p].governing.clone(),
                )
            }
            None => Default::default(),
        };
        let mut bound: Vec<String> = Vec::new();
        for v in prefix.iter().flat_map(vars_of) {
            if !bound.iter().any(|b| b == v) {
                bound.push(v.to_string());
            }
        }
        prefix.extend(block.where_.iter().cloned());
        if !block.where_.is_empty() {
            governing.push(block.id);
        }
        for cond in &block.where_ {
            if let Condition::Edge {
                step: PathStep::ArcVar(v),
                ..
            } = cond
            {
                self.arc_vars.insert(v.clone());
            }
        }

        let mut heads: Vec<Head> = block.creates.iter().cloned().map(Head::Create).collect();
        // Conjunctions of this stage only: another stage's prefix differs.
        let first = self.conjunctions.len();
        for link in &block.links {
            if let LabelTerm::Var(v) = &link.label {
                self.arc_vars.insert(v.clone());
            }
            let args = &link.from.args;
            let shared = self.conjunctions[first..]
                .iter()
                .position(|c| c.args == *args);
            let conjunction = shared.map_or(self.conjunctions.len(), |i| first + i);
            if shared.is_none() {
                let args = args.clone();
                self.conjunctions.push(Conjunction { stage: at, args });
            }
            let link = link.clone();
            heads.push(Head::Link { link, conjunction });
        }
        heads.extend(block.collects.iter().cloned().map(Head::Collect));
        self.clauses
            .extend(heads.into_iter().map(|head| Clause { stage: at, head }));

        let children = std::mem::take(&mut block.children);
        self.stages.push(Stage {
            block,
            prefix,
            bound,
            governing,
            children: Vec::new(),
        });
        for child in children {
            self.lift(child, Some(at));
        }
    }

    /// The analyzer's warnings (active-domain fallbacks etc.).
    pub fn warnings(&self) -> &[String] {
        &self.warnings
    }

    /// The query's arc variables: those in arc position of an edge
    /// condition or in label position of a link. An unbound one ranges over
    /// labels, not nodes.
    pub fn arc_vars(&self) -> &FxHashSet<String> {
        &self.arc_vars
    }

    /// The stages in document order; stage 0 is the root block.
    pub fn stages(&self) -> &[Stage] {
        &self.stages
    }

    /// The link conjunctions.
    pub fn conjunctions(&self) -> &[Conjunction] {
        &self.conjunctions
    }

    /// Every construction clause: each stage's creates, links and collects,
    /// stages in document order.
    pub fn clauses(&self) -> &[Clause] {
        &self.clauses
    }
}
