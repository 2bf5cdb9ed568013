//! The template AST (Fig. 6 of the paper).

use std::fmt;

/// An identifier a template mentions — an attribute name or a loop
/// variable — with its slot in the table of names it was parsed into. The
/// generator resolves every slot against the site graph's symbols once per
/// run, so rendering looks attributes up and matches loop variables by
/// integer, never by string.
#[derive(Clone, PartialEq)]
pub struct Name {
    /// The identifier as written.
    pub text: String,
    pub(crate) slot: u32,
}

impl fmt::Debug for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.text.fmt(f)
    }
}

impl Name {
    /// The name `text` with its slot in `names`, the identifiers of a set of
    /// templates, each once. The table is small (a site's templates mention
    /// a few dozen identifiers), so a name is found by scanning.
    pub(crate) fn in_table(names: &mut Vec<String>, text: &str) -> Name {
        let text = text.to_string();
        let slot = names.iter().position(|t| *t == text).unwrap_or(names.len());
        if slot == names.len() {
            names.push(text.clone());
        }
        let slot = slot as u32;
        Name { text, slot }
    }
}

/// An attribute expression `@ID.ID…` — "either a single attribute, e.g.
/// `Paper`, or a bounded sequence of attributes that reference reachable
/// objects, e.g. `Paper.Name`" (§4). The first segment may also name a loop
/// variable bound by an enclosing `SFOR`.
#[derive(Clone, PartialEq, Debug)]
pub struct AttrExpr {
    /// The identifier path (non-empty).
    pub path: Vec<Name>,
}

/// Constants of the condition language: `BOOL | INT | FLOAT | STRING | NULL`.
#[derive(Clone, PartialEq, Debug)]
pub enum Constant {
    /// Boolean.
    Bool(bool),
    /// Integer.
    Int(i64),
    /// Float.
    Float(f64),
    /// String.
    Str(String),
    /// The null constant (absent attribute).
    Null,
}

/// A scalar expression: an attribute expression or a constant.
#[derive(Clone, PartialEq, Debug)]
pub enum Expr {
    /// Attribute lookup.
    Attr(AttrExpr),
    /// Constant.
    Const(Constant),
}

/// Relational operators of the condition language.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Op {
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

/// A condition: `Expr (Op Expr)? | Cond AND/OR Cond | NOT Cond | (Cond)`.
/// A bare attribute expression tests non-nullness — "it is often necessary
/// to test for the existence of an object's attribute" (§4).
#[derive(Clone, PartialEq, Debug)]
pub enum Cond {
    /// Non-null / truthiness test of an expression.
    Test(Expr),
    /// Binary comparison.
    Cmp(Expr, Op, Expr),
    /// Conjunction.
    And(Box<Cond>, Box<Cond>),
    /// Disjunction.
    Or(Box<Cond>, Box<Cond>),
    /// Negation.
    Not(Box<Cond>),
}

/// How an `SFMT` realizes an internal object or file value.
#[derive(Clone, PartialEq, Debug, Default)]
pub enum Format {
    /// Type-specific default: pages become links, components embed.
    #[default]
    Default,
    /// Force embedding ("the EMBED directive overrides this default and the
    /// AbstractPage object is embedded in the generated HTML page").
    Embed,
    /// Force a link, with an optional tag (`LINK=@title`, `LINK="here"`).
    Link(Option<Tag>),
}

/// The tag of a link: a string or an attribute expression evaluated against
/// the *current* object.
#[derive(Clone, PartialEq, Debug)]
pub enum Tag {
    /// Literal tag text.
    Str(String),
    /// Tag from an attribute.
    Attr(AttrExpr),
}

/// Sort order for `ORDER=` directives: "sorts an attribute's values in
/// either lexicographically increasing or decreasing order" (§4).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SortOrder {
    /// `ORDER=ascend`
    Ascend,
    /// `ORDER=descend`
    Descend,
}

/// List wrapper for enumerations (the paper's `<ul>`/`<ol>` idiom
/// abbreviations).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ListKind {
    /// Unordered list.
    Ul,
    /// Ordered list.
    Ol,
}

/// Common enumeration modifiers shared by `SFMT … ALL` and `SFOR`.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct EnumOpts {
    /// Optional sort order.
    pub order: Option<SortOrder>,
    /// Sort key: "if the attribute's values are internal objects, the
    /// optional KEY value specifies the object's attribute that should be
    /// used as the key".
    pub key: Option<AttrExpr>,
    /// Separator emitted between items.
    pub delim: Option<String>,
    /// Wrap items in `<ul>`/`<ol>` with `<li>` around each item.
    pub list: Option<ListKind>,
}

/// One node of a parsed template.
#[derive(Clone, PartialEq, Debug)]
pub enum Node {
    /// Verbatim HTML text.
    Html(String),
    /// `<SFMT …>` — format expression.
    Fmt {
        /// What to format.
        expr: AttrExpr,
        /// Realization directive.
        format: Format,
        /// Format every value of the attribute (`ALL`), not just the first.
        all: bool,
        /// Ordering/delimiter/list options (only meaningful with `all`).
        opts: EnumOpts,
    },
    /// `<SIF cond> … <SELSE> … </SIF>`.
    If {
        /// The condition.
        cond: Cond,
        /// Rendered when the condition holds.
        then: Vec<Node>,
        /// Rendered otherwise.
        else_: Vec<Node>,
    },
    /// `<SFOR var IN expr …> … </SFOR>`.
    For {
        /// Loop variable, referenced as `@var` in the body.
        var: Name,
        /// The enumerated attribute expression.
        expr: AttrExpr,
        /// Ordering/delimiter/list options.
        opts: EnumOpts,
        /// Body template.
        body: Vec<Node>,
    },
}

/// A parsed template: a sequence of nodes.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct Template {
    /// The nodes, in document order.
    pub nodes: Vec<Node>,
    /// The source text (kept for diagnostics and round-tripping).
    pub source: String,
}

impl Template {
    /// Number of directives (SFMT/SIF/SFOR) in the template, recursively.
    pub fn directive_count(&self) -> usize {
        fn count(nodes: &[Node]) -> usize {
            nodes
                .iter()
                .map(|n| match n {
                    Node::Html(_) => 0,
                    Node::Fmt { .. } => 1,
                    Node::If { then, else_, .. } => 1 + count(then) + count(else_),
                    Node::For { body, .. } => 1 + count(body),
                })
                .sum()
        }
        count(&self.nodes)
    }
}
