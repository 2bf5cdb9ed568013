//! The StruQL abstract syntax tree.
//!
//! The AST mirrors the paper's grammar (§3):
//!
//! ```text
//! Query ::= [input ident] Block [output ident]
//! Block ::= (where C1,…,Ck)? (create N1,…,Nn)? (link L1,…,Lp)?
//!           (collect G1,…,Gq)? ({Block} … {Block})?
//! ```
//!
//! A nested block's `where` clause is *conjoined* with those of all its
//! ancestors; its construction clauses run once per binding of the conjoined
//! clause. Every block carries a [`BlockId`] (`Q1`, `Q2`, … in document
//! order) which site schemas use to label edges with the conjunction of
//! governing queries (e.g. `Q1 ∧ Q2`, Fig. 5 of the paper).

use std::fmt;

/// Identifies a block within a query, in document order. The root block is
/// `BlockId(0)`; pretty-printed as `Q1`, `Q2`, ….
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug, Default)]
pub struct BlockId(pub u32);

impl fmt::Display for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Q{}", self.0 + 1)
    }
}

/// A literal constant.
#[derive(Clone, PartialEq, Debug)]
pub enum Literal {
    /// String constant.
    Str(String),
    /// Integer constant.
    Int(i64),
    /// Float constant.
    Float(f64),
    /// Boolean constant.
    Bool(bool),
}

impl Literal {
    /// Converts to a graph value.
    pub fn to_value(&self) -> strudel_graph::Value {
        use strudel_graph::Value;
        match self {
            Literal::Str(s) => Value::str(s),
            Literal::Int(i) => Value::Int(*i),
            Literal::Float(f) => Value::Float(*f),
            Literal::Bool(b) => Value::Bool(*b),
        }
    }
}

impl fmt::Display for Literal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Literal::Str(s) => write!(f, "{s:?}"),
            Literal::Int(i) => write!(f, "{i}"),
            Literal::Float(x) => write!(f, "{x}"),
            Literal::Bool(b) => write!(f, "{b}"),
        }
    }
}

/// Aggregate functions — the grouping/aggregation extension the paper
/// anticipates in §5.2 ("the query stage is independently extensible; for
/// example, we could extend it to include grouping and aggregation").
///
/// An aggregate term may appear as a `LINK` target or `COLLECT` argument:
/// `LINK YearPage(v) -> "papers" -> COUNT(x)` emits, per `YearPage(v)`
/// group, one edge whose value aggregates the *distinct* bindings of `x`
/// within the group (grouping is by the link's source Skolem term and
/// label). The names `COUNT`, `SUM`, `MIN`, `MAX`, `AVG` are reserved
/// (case-insensitive) in construction clauses.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum AggFunc {
    /// Number of distinct values.
    Count,
    /// Numeric sum (non-numeric values are ignored).
    Sum,
    /// Minimum under dynamic-coercion ordering.
    Min,
    /// Maximum under dynamic-coercion ordering.
    Max,
    /// Numeric average.
    Avg,
}

impl AggFunc {
    /// Parses a reserved aggregate name (case-insensitive).
    pub fn from_name(name: &str) -> Option<AggFunc> {
        Some(match name.to_ascii_uppercase().as_str() {
            "COUNT" => AggFunc::Count,
            "SUM" => AggFunc::Sum,
            "MIN" => AggFunc::Min,
            "MAX" => AggFunc::Max,
            "AVG" => AggFunc::Avg,
            _ => return None,
        })
    }

    /// The canonical (upper-case) name.
    pub fn name(self) -> &'static str {
        match self {
            AggFunc::Count => "COUNT",
            AggFunc::Sum => "SUM",
            AggFunc::Min => "MIN",
            AggFunc::Max => "MAX",
            AggFunc::Avg => "AVG",
        }
    }
}

impl fmt::Display for AggFunc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A term in a condition or construction clause.
#[derive(Clone, PartialEq, Debug)]
pub enum Term {
    /// A variable (node variable or arc variable, resolved by analysis).
    Var(String),
    /// A constant.
    Lit(Literal),
    /// A Skolem-function application — construction clauses only.
    Skolem(SkolemTerm),
    /// An aggregate over a bound variable — `LINK` targets and `COLLECT`
    /// arguments only.
    Agg(AggFunc, String),
}

impl Term {
    /// Convenience constructor for a variable term.
    pub fn var(name: impl Into<String>) -> Term {
        Term::Var(name.into())
    }

    /// Convenience constructor for a string-literal term.
    pub fn str(s: impl Into<String>) -> Term {
        Term::Lit(Literal::Str(s.into()))
    }

    /// Convenience constructor for an integer-literal term.
    pub fn int(i: i64) -> Term {
        Term::Lit(Literal::Int(i))
    }

    /// The variable name, if this is a variable.
    pub fn as_var(&self) -> Option<&str> {
        match self {
            Term::Var(v) => Some(v),
            _ => None,
        }
    }
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Term::Var(v) => write!(f, "{v}"),
            Term::Lit(l) => write!(f, "{l}"),
            Term::Skolem(s) => write!(f, "{s}"),
            Term::Agg(func, v) => write!(f, "{func}({v})"),
        }
    }
}

/// A Skolem-function application `F(x, y, …)`. By definition a Skolem
/// function applied to the same inputs produces the same node oid.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct SkolemTerm {
    /// Function name, e.g. `YearPage`.
    pub name: String,
    /// Argument variables (the paper restricts Skolem arguments to node oids
    /// and label values, i.e. variables bound in the where clause).
    pub args: Vec<String>,
}

impl SkolemTerm {
    /// Builds a Skolem term.
    pub fn new(name: impl Into<String>, args: impl IntoIterator<Item = impl Into<String>>) -> Self {
        SkolemTerm {
            name: name.into(),
            args: args.into_iter().map(Into::into).collect(),
        }
    }
}

impl fmt::Display for SkolemTerm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}({})", self.name, self.args.join(", "))
    }
}

/// A regular path expression over edge labels (§3):
/// `R ::= Pred | (R.R) | (R|R) | R*`.
///
/// Regular path expressions are more general than regular expressions
/// because they permit *predicates* on edges; `true` (written `_`) denotes
/// any edge label and `_*` (written `*`) any path, including the empty path.
#[derive(Clone, PartialEq, Debug)]
pub enum Rpe {
    /// A literal label test, e.g. `"Paper"`.
    Label(String),
    /// Any single edge (`_`, the paper's `true`).
    AnyLabel,
    /// A predicate applied to the edge label, e.g. `isName`.
    Pred(String),
    /// Concatenation `R1 . R2`.
    Seq(Box<Rpe>, Box<Rpe>),
    /// Alternation `R1 | R2`.
    Alt(Box<Rpe>, Box<Rpe>),
    /// Kleene star `R*` (zero or more, so the empty path matches).
    Star(Box<Rpe>),
    /// One or more, `R+` (sugar for `R . R*`).
    Plus(Box<Rpe>),
    /// Zero or one, `R?` (sugar for `R | ε`).
    Opt(Box<Rpe>),
}

impl Rpe {
    /// `*`: any path of any length, including the empty path.
    pub fn any_path() -> Rpe {
        Rpe::Star(Box::new(Rpe::AnyLabel))
    }

    /// Whether this expression can match the empty path (so a source node
    /// itself is among the targets).
    pub fn nullable(&self) -> bool {
        match self {
            Rpe::Label(_) | Rpe::AnyLabel | Rpe::Pred(_) => false,
            Rpe::Seq(a, b) => a.nullable() && b.nullable(),
            Rpe::Alt(a, b) => a.nullable() || b.nullable(),
            Rpe::Star(_) | Rpe::Opt(_) => true,
            Rpe::Plus(r) => r.nullable(),
        }
    }
}

impl fmt::Display for Rpe {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Rpe::Label(l) => write!(f, "{l:?}"),
            Rpe::AnyLabel => write!(f, "_"),
            Rpe::Pred(p) => write!(f, "{p}"),
            Rpe::Seq(a, b) => write!(f, "({a} . {b})"),
            Rpe::Alt(a, b) => write!(f, "({a} | {b})"),
            Rpe::Star(r) => {
                if matches!(**r, Rpe::AnyLabel) {
                    write!(f, "*")
                } else {
                    write!(f, "{r}*")
                }
            }
            Rpe::Plus(r) => write!(f, "{r}+"),
            Rpe::Opt(r) => write!(f, "{r}?"),
        }
    }
}

/// The middle element of an edge condition `x -> … -> y`.
#[derive(Clone, PartialEq, Debug)]
pub enum PathStep {
    /// A regular path expression (possibly spanning many edges).
    Rpe(Rpe),
    /// A bare identifier: an arc variable *or* an edge predicate, resolved
    /// semantically by [`crate::analyze`] against the predicate registry
    /// (the paper: "the distinction … is done at a semantic, not syntactic,
    /// level").
    Bare(String),
    /// An arc variable, binding the label of a single edge (post-analysis).
    ArcVar(String),
}

impl fmt::Display for PathStep {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PathStep::Rpe(r) => write!(f, "{r}"),
            PathStep::Bare(s) | PathStep::ArcVar(s) => write!(f, "{s}"),
        }
    }
}

/// Comparison operators for `Compare` conditions.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CmpOp {
    /// The surface syntax of the operator.
    pub fn symbol(self) -> &'static str {
        match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "!=",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        }
    }

    /// The negated operator.
    pub fn negate(self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Ne,
            CmpOp::Ne => CmpOp::Eq,
            CmpOp::Lt => CmpOp::Ge,
            CmpOp::Le => CmpOp::Gt,
            CmpOp::Gt => CmpOp::Le,
            CmpOp::Ge => CmpOp::Lt,
        }
    }
}

/// A single condition of a `WHERE` clause.
#[derive(Clone, PartialEq, Debug)]
pub enum Condition {
    /// Collection-membership test, e.g. `Publications(x)`.
    Collection {
        /// Collection name.
        name: String,
        /// The tested object.
        arg: Term,
        /// Negated form `not(Coll(x))`, with active-domain semantics for an
        /// unbound argument.
        negated: bool,
    },
    /// An edge / path condition `from -> step -> to`.
    Edge {
        /// Source term.
        from: Term,
        /// Path or arc variable.
        step: PathStep,
        /// Target term.
        to: Term,
        /// Negated form `not(from -> step -> to)` (single-edge or RPE),
        /// with active-domain semantics for unbound variables.
        negated: bool,
    },
    /// A built-in or external predicate, e.g. `isPostScript(q)`.
    Predicate {
        /// Predicate name.
        name: String,
        /// Arguments.
        args: Vec<Term>,
        /// Negated form `not(P(args))`.
        negated: bool,
    },
    /// A comparison, e.g. `l = "year"` (uses dynamic value coercion).
    Compare {
        /// Left operand.
        lhs: Term,
        /// Operator.
        op: CmpOp,
        /// Right operand.
        rhs: Term,
    },
    /// Label-set membership of an arc variable:
    /// `l in {"Paper", "TechReport"}`.
    In {
        /// The arc variable.
        var: String,
        /// The candidate labels.
        set: Vec<Literal>,
        /// Negated form `not(l in {...})`.
        negated: bool,
    },
}

impl Condition {
    /// Builds the simple edge condition `from -> "label" -> to`.
    pub fn edge(from: Term, label: &str, to: Term) -> Condition {
        Condition::Edge {
            from,
            step: PathStep::Rpe(Rpe::Label(label.to_string())),
            to,
            negated: false,
        }
    }

    /// Builds the arc-variable edge condition `from -> var -> to`.
    pub fn arc(from: Term, var: &str, to: Term) -> Condition {
        Condition::Edge {
            from,
            step: PathStep::ArcVar(var.to_string()),
            to,
            negated: false,
        }
    }

    /// Builds the membership condition `name(var)`.
    pub fn coll(name: &str, var: &str) -> Condition {
        Condition::Collection {
            name: name.to_string(),
            arg: Term::var(var),
            negated: false,
        }
    }
}

impl fmt::Display for Condition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Condition::Collection { name, arg, negated } => {
                if *negated {
                    write!(f, "not({name}({arg}))")
                } else {
                    write!(f, "{name}({arg})")
                }
            }
            Condition::Edge {
                from,
                step,
                to,
                negated,
            } => {
                if *negated {
                    write!(f, "not({from} -> {step} -> {to})")
                } else {
                    write!(f, "{from} -> {step} -> {to}")
                }
            }
            Condition::Predicate {
                name,
                args,
                negated,
            } => {
                let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
                if *negated {
                    write!(f, "not({name}({}))", args.join(", "))
                } else {
                    write!(f, "{name}({})", args.join(", "))
                }
            }
            Condition::Compare { lhs, op, rhs } => write!(f, "{lhs} {} {rhs}", op.symbol()),
            Condition::In { var, set, negated } => {
                let items: Vec<String> = set.iter().map(|l| l.to_string()).collect();
                if *negated {
                    write!(f, "not({var} in {{{}}})", items.join(", "))
                } else {
                    write!(f, "{var} in {{{}}}", items.join(", "))
                }
            }
        }
    }
}

/// The label position of a `LINK` clause: a literal label or a bound arc
/// variable (`Page(y) -> l -> Page(z)` carries data irregularity into the
/// site graph).
#[derive(Clone, PartialEq, Debug)]
pub enum LabelTerm {
    /// A literal label, e.g. `"Abstract"`.
    Lit(String),
    /// An arc variable bound in the where clause.
    Var(String),
}

impl fmt::Display for LabelTerm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LabelTerm::Lit(s) => write!(f, "{s:?}"),
            LabelTerm::Var(v) => write!(f, "{v}"),
        }
    }
}

/// A `LINK` clause item: `from -> label -> to`.
///
/// Semantic restriction (§3): edges can only be added *from new nodes* —
/// `from` must be a Skolem term; existing nodes are immutable.
#[derive(Clone, PartialEq, Debug)]
pub struct LinkClause {
    /// The (new) source node.
    pub from: SkolemTerm,
    /// The edge label.
    pub label: LabelTerm,
    /// The target: a Skolem term, a bound variable, or a literal.
    pub to: Term,
}

impl fmt::Display for LinkClause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} -> {} -> {}", self.from, self.label, self.to)
    }
}

/// A `COLLECT` clause item: `Name(term)`.
#[derive(Clone, PartialEq, Debug)]
pub struct CollectClause {
    /// Output collection name.
    pub name: String,
    /// The collected object.
    pub arg: Term,
}

impl fmt::Display for CollectClause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}({})", self.name, self.arg)
    }
}

/// One block of a query: a `WHERE` clause, construction clauses, and nested
/// blocks.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct Block {
    /// Block identity in document order (assigned by the parser/builder).
    pub id: BlockId,
    /// The conjunctive conditions of this block (its own only; ancestors'
    /// conditions are conjoined during evaluation).
    pub where_: Vec<Condition>,
    /// `CREATE` clause: Skolem terms to instantiate per binding.
    pub creates: Vec<SkolemTerm>,
    /// `LINK` clause: edges to add per binding.
    pub links: Vec<LinkClause>,
    /// `COLLECT` clause: output collections to populate per binding.
    pub collects: Vec<CollectClause>,
    /// Nested blocks.
    pub children: Vec<Block>,
}

impl Block {
    fn fmt_indented(&self, f: &mut fmt::Formatter<'_>, depth: usize) -> fmt::Result {
        let pad = "  ".repeat(depth);
        if !self.where_.is_empty() {
            let items: Vec<String> = self.where_.iter().map(|c| c.to_string()).collect();
            writeln!(f, "{pad}WHERE {}", items.join(", "))?;
        }
        if !self.creates.is_empty() {
            let items: Vec<String> = self.creates.iter().map(|c| c.to_string()).collect();
            writeln!(f, "{pad}CREATE {}", items.join(", "))?;
        }
        if !self.links.is_empty() {
            let items: Vec<String> = self.links.iter().map(|c| c.to_string()).collect();
            let sep = format!(",\n{pad}     ");
            writeln!(f, "{pad}LINK {}", items.join(&sep))?;
        }
        if !self.collects.is_empty() {
            let items: Vec<String> = self.collects.iter().map(|c| c.to_string()).collect();
            writeln!(f, "{pad}COLLECT {}", items.join(", "))?;
        }
        for child in &self.children {
            writeln!(f, "{pad}{{")?;
            child.fmt_indented(f, depth + 1)?;
            writeln!(f, "{pad}}}")?;
        }
        Ok(())
    }

    /// Iterates this block and all descendants, depth-first, in document
    /// order.
    pub fn iter_blocks(&self) -> Vec<&Block> {
        let mut out = vec![self];
        let mut i = 0;
        while i < out.len() {
            // Manual worklist to avoid recursion; children are appended in
            // order, giving document order because ids were assigned that way.
            let children: Vec<&Block> = out[i].children.iter().collect();
            out.extend(children);
            i += 1;
        }
        out.sort_by_key(|b| b.id);
        out
    }
}

/// A complete StruQL query.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct Query {
    /// Name of the input graph (`INPUT BIBTEX`), if any.
    pub input: Option<String>,
    /// Name of the output graph (`OUTPUT HomePage`), if any.
    pub output: Option<String>,
    /// The root block.
    pub root: Block,
}

impl Query {
    /// Merges several queries into one: each query's root becomes a child
    /// block of a fresh empty root, with block ids renumbered in document
    /// order. STRUDEL lets a site be "constructed in several successive
    /// steps by multiple, composed StruQL queries" (§5.1) and generates "a
    /// site schema from the site's StruQL queries" (plural) — this is the
    /// composition the schema generator consumes.
    pub fn merge<'a>(queries: impl IntoIterator<Item = &'a Query>) -> Query {
        fn renumber(b: &mut Block, next: &mut u32) {
            b.id = BlockId(*next);
            *next += 1;
            for c in &mut b.children {
                renumber(c, next);
            }
        }
        let mut root = Block::default();
        let mut next = 1u32;
        for q in queries {
            let mut child = q.root.clone();
            renumber(&mut child, &mut next);
            root.children.push(child);
        }
        Query {
            input: None,
            output: None,
            root,
        }
    }

    /// All blocks in document order (root first).
    pub fn blocks(&self) -> Vec<&Block> {
        self.root.iter_blocks()
    }

    /// Finds a block by id.
    pub fn block(&self, id: BlockId) -> Option<&Block> {
        self.blocks().into_iter().find(|b| b.id == id)
    }

    /// The conjunction of where-conditions governing `id`: the block's own
    /// conditions preceded by all its ancestors'. Returns `None` for an
    /// unknown id.
    pub fn governing_conditions(&self, id: BlockId) -> Option<Vec<&Condition>> {
        fn walk<'a>(block: &'a Block, id: BlockId, acc: &mut Vec<&'a Condition>) -> bool {
            acc.extend(block.where_.iter());
            if block.id == id {
                return true;
            }
            for child in &block.children {
                if walk(child, id, acc) {
                    return true;
                }
            }
            acc.truncate(acc.len() - block.where_.len());
            false
        }
        let mut acc = Vec::new();
        // The root's own conditions are pushed by walk.
        let mut acc2 = Vec::new();
        if walk(&self.root, id, &mut acc2) {
            acc.extend(acc2);
            Some(acc)
        } else {
            None
        }
    }
}

impl fmt::Display for Query {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(input) = &self.input {
            writeln!(f, "INPUT {input}")?;
        }
        self.root.fmt_indented(f, 0)?;
        if let Some(output) = &self.output {
            writeln!(f, "OUTPUT {output}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Query {
        // WHERE Publications(x), x -> l -> v
        // CREATE Page(x)
        // LINK Page(x) -> l -> v
        // { WHERE l = "year" CREATE YearPage(v) LINK YearPage(v) -> "Paper" -> Page(x) }
        let inner = Block {
            id: BlockId(1),
            where_: vec![Condition::Compare {
                lhs: Term::var("l"),
                op: CmpOp::Eq,
                rhs: Term::str("year"),
            }],
            creates: vec![SkolemTerm::new("YearPage", ["v"])],
            links: vec![LinkClause {
                from: SkolemTerm::new("YearPage", ["v"]),
                label: LabelTerm::Lit("Paper".into()),
                to: Term::Skolem(SkolemTerm::new("Page", ["x"])),
            }],
            collects: vec![],
            children: vec![],
        };
        Query {
            input: Some("BIBTEX".into()),
            output: Some("HomePage".into()),
            root: Block {
                id: BlockId(0),
                where_: vec![
                    Condition::coll("Publications", "x"),
                    Condition::arc(Term::var("x"), "l", Term::var("v")),
                ],
                creates: vec![SkolemTerm::new("Page", ["x"])],
                links: vec![LinkClause {
                    from: SkolemTerm::new("Page", ["x"]),
                    label: LabelTerm::Var("l".into()),
                    to: Term::var("v"),
                }],
                collects: vec![CollectClause {
                    name: "Pages".into(),
                    arg: Term::Skolem(SkolemTerm::new("Page", ["x"])),
                }],
                children: vec![inner],
            },
        }
    }

    #[test]
    fn blocks_in_document_order() {
        let q = sample();
        let ids: Vec<_> = q.blocks().iter().map(|b| b.id).collect();
        assert_eq!(ids, vec![BlockId(0), BlockId(1)]);
    }

    #[test]
    fn governing_conditions_conjoin_ancestors() {
        let q = sample();
        let conds = q.governing_conditions(BlockId(1)).unwrap();
        assert_eq!(conds.len(), 3); // 2 from root + 1 own
        assert!(q.governing_conditions(BlockId(9)).is_none());
    }

    #[test]
    fn display_roundtrips_through_parser() {
        // Checked properly in parse.rs tests; here just ensure it renders.
        let text = sample().to_string();
        assert!(text.contains("INPUT BIBTEX"));
        assert!(text.contains("WHERE Publications(x), x -> l -> v"));
        assert!(text.contains("OUTPUT HomePage"));
    }

    #[test]
    fn rpe_nullability() {
        assert!(Rpe::any_path().nullable());
        assert!(!Rpe::Label("a".into()).nullable());
        assert!(Rpe::Opt(Box::new(Rpe::AnyLabel)).nullable());
        assert!(!Rpe::Plus(Box::new(Rpe::AnyLabel)).nullable());
        assert!(Rpe::Seq(Box::new(Rpe::any_path()), Box::new(Rpe::any_path())).nullable());
        assert!(!Rpe::Seq(Box::new(Rpe::any_path()), Box::new(Rpe::AnyLabel)).nullable());
        assert!(Rpe::Alt(Box::new(Rpe::AnyLabel), Box::new(Rpe::any_path())).nullable());
    }

    #[test]
    fn cmp_op_negation_is_involutive() {
        for op in [
            CmpOp::Eq,
            CmpOp::Ne,
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
        ] {
            assert_eq!(op.negate().negate(), op);
        }
    }

    #[test]
    fn block_id_displays_one_based() {
        assert_eq!(BlockId(0).to_string(), "Q1");
        assert_eq!(BlockId(2).to_string(), "Q3");
    }
}
