//! STRUDEL's data-definition language (Fig. 2 of the paper).
//!
//! This is the common exchange format between wrappers and the mediator
//! layer (§2.2): a textual syntax for graphs, with `collection` blocks that
//! declare *default* value types for attributes ("these directives are not
//! constraints and can be overridden in the input file") and `object` blocks
//! that define nodes, their collection memberships, and their attributes.
//!
//! ```text
//! collection Publications {
//!   abstract   text
//!   postscript ps
//! }
//! object pub1 in Publications {
//!   title      "Specifying Representations..."
//!   author     "Norman Ramsey"
//!   author     "Mary Fernandez"
//!   year       1997
//!   abstract   "abstracts/toplas97.txt"
//!   postscript "papers/toplas97.ps.gz"
//! }
//! ```
//!
//! Extensions kept from the paper's prose: nested structured values (an
//! address "may be a structure with address, city and zipcode fields"),
//! written as an inline `{ … }` block, and object references written
//! `&name`, which allow graphs with shared substructure and cycles.
//!
//! A source is read in one streaming pass: the parser pulls tokens from the
//! lexer one ahead, so no token list is ever built. Each distinct string,
//! URL or file text is allocated once per parse and shared by every value
//! that repeats it, and each object body's edges are appended to its node
//! in one write. The first error in source order is the one reported, with
//! its line.

use crate::error::{GraphError, Result};
use crate::fxhash::FxHashMap;
use crate::graph::{Graph, GraphBatch, NodeId};
use crate::symbol::Sym;
use crate::value::{FileKind, Value};
use std::borrow::Cow;
use std::fmt::{self, Write as _};
use std::sync::Arc;

/// Default value type declared by a `collection` directive.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Directive {
    File(FileKind),
    Url,
}

impl Directive {
    fn from_keyword(kw: &str) -> Option<Directive> {
        if kw == "url" {
            return Some(Directive::Url);
        }
        FileKind::from_keyword(kw).map(Directive::File)
    }
}

// ---------------------------------------------------------------- lexer ----

/// Tokens are slices of the source text (a string literal's text is the
/// parser's to unescape and intern), so lexing allocates nothing but an
/// error's message.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Tok<'a> {
    Ident(&'a str),
    Str(Lit<'a>),
    Int(i64),
    Float(f64),
    Bool(bool),
    LBrace,
    RBrace,
    Comma,
    Amp,
}

/// A string literal's source text between its quotes, escapes and all (the
/// lexer has checked them). It prints as the text it stands for.
#[derive(Clone, Copy, PartialEq)]
struct Lit<'a>(&'a str);

impl Lit<'_> {
    /// The text the literal stands for: its source text unless it holds an
    /// escape.
    fn text(&self) -> Cow<'_, str> {
        if !self.0.contains('\\') {
            return Cow::Borrowed(self.0);
        }
        let mut out = String::with_capacity(self.0.len());
        let mut chars = self.0.chars();
        while let Some(c) = chars.next() {
            out.push(match c {
                '\\' => match chars.next() {
                    Some('n') => '\n',
                    Some('t') => '\t',
                    Some(other) => other, // `\"` or `\\`: checked by the lexer
                    None => break,
                },
                c => c,
            });
        }
        Cow::Owned(out)
    }
}

impl fmt::Debug for Lit<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&self.text(), f)
    }
}

struct Lexer<'a> {
    src: &'a str,
    pos: usize,
    line: usize,
    /// The line the last token lexed (or failed to lex) starts on.
    tok_line: usize,
}

impl<'a> Lexer<'a> {
    fn new(src: &'a str) -> Self {
        Lexer {
            src,
            pos: 0,
            line: 1,
            tok_line: 1,
        }
    }

    fn err(&self, message: impl Into<String>) -> GraphError {
        GraphError::DdlParse {
            line: self.line,
            message: message.into(),
        }
    }

    fn peek_byte(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek_byte()?;
        self.pos += 1;
        if b == b'\n' {
            self.line += 1;
        }
        Some(b)
    }

    fn skip_trivia(&mut self) {
        loop {
            match self.peek_byte() {
                Some(b) if b.is_ascii_whitespace() => {
                    self.bump();
                }
                Some(b'#') => {
                    while let Some(b) = self.bump() {
                        if b == b'\n' {
                            break;
                        }
                    }
                }
                Some(b'/') if self.src.as_bytes().get(self.pos + 1) == Some(&b'/') => {
                    while let Some(b) = self.bump() {
                        if b == b'\n' {
                            break;
                        }
                    }
                }
                _ => return,
            }
        }
    }

    /// The next token, `None` at the end of the source.
    fn next_tok(&mut self) -> Result<Option<Tok<'a>>> {
        self.skip_trivia();
        self.tok_line = self.line;
        let Some(b) = self.peek_byte() else {
            return Ok(None);
        };
        let tok = match b {
            b'{' => {
                self.bump();
                Tok::LBrace
            }
            b'}' => {
                self.bump();
                Tok::RBrace
            }
            b',' => {
                self.bump();
                Tok::Comma
            }
            b'&' => {
                self.bump();
                Tok::Amp
            }
            b'"' => {
                self.bump();
                let start = self.pos;
                loop {
                    match self.bump() {
                        None => return Err(self.err("unterminated string literal")),
                        Some(b'"') => break,
                        Some(b'\\') => match self.bump() {
                            Some(b'n' | b't' | b'"' | b'\\') => {}
                            other => {
                                return Err(
                                    self.err(format!("bad escape: \\{:?}", other.map(char::from)))
                                )
                            }
                        },
                        Some(_) => {}
                    }
                }
                // Quote bytes are ASCII, so the slice boundaries are char
                // boundaries.
                Tok::Str(Lit(&self.src[start..self.pos - 1]))
            }
            b'-' | b'0'..=b'9' => {
                let start = self.pos;
                // A sign is part of the number only immediately after an
                // exponent marker (or as the leading character, consumed
                // above) — otherwise `1997-1998` would lex as one token.
                let mut after_exp = false;
                self.bump();
                while matches!(self.peek_byte(), Some(b'0'..=b'9' | b'.' | b'e' | b'E'))
                    || (after_exp && matches!(self.peek_byte(), Some(b'-' | b'+')))
                {
                    after_exp = matches!(self.peek_byte(), Some(b'e' | b'E'));
                    self.bump();
                }
                let text = &self.src[start..self.pos];
                if text.contains(['.', 'e', 'E']) {
                    Tok::Float(
                        text.parse()
                            .map_err(|_| self.err(format!("bad float {text:?}")))?,
                    )
                } else {
                    Tok::Int(
                        text.parse()
                            .map_err(|_| self.err(format!("bad integer {text:?}")))?,
                    )
                }
            }
            b if b.is_ascii_alphabetic() || b == b'_' => {
                let start = self.pos;
                while matches!(self.peek_byte(), Some(c) if c.is_ascii_alphanumeric() || c == b'_' || c == b'-')
                {
                    self.bump();
                }
                let word = &self.src[start..self.pos];
                match word {
                    "true" => Tok::Bool(true),
                    "false" => Tok::Bool(false),
                    _ => Tok::Ident(word),
                }
            }
            other => return Err(self.err(format!("unexpected character {:?}", other as char))),
        };
        Ok(Some(tok))
    }
}

// --------------------------------------------------------------- parser ----

struct Parser<'a, 'g> {
    lexer: Lexer<'a>,
    /// The one token of lookahead: `None` at the end of the source, or the
    /// error lexing it met — raised only when the parser looks at it, so a
    /// parse error earlier in the source is the one reported.
    ahead: Result<Option<Tok<'a>>>,
    /// The lookahead's line; at the end of the source, the last token's.
    line: usize,
    /// One batch per parse: nested anonymous objects interleave the edges
    /// of several nodes, which a batch takes as they come.
    graph: GraphBatch<'g>,
    /// Declared default types: collection → attribute → directive.
    directives: FxHashMap<&'a str, FxHashMap<&'a str, Directive>>,
    /// Named objects, created lazily so forward references work.
    named: FxHashMap<&'a str, NodeId>,
    /// String, URL and file text by its literal's source text: a repeated
    /// string is one allocation.
    strings: FxHashMap<&'a str, Arc<str>>,
    /// The edges of the body being parsed, not yet written to its node.
    edges: Vec<(Sym, Value)>,
    anon_counter: usize,
}

impl<'a> Parser<'a, '_> {
    fn err(&self, message: impl Into<String>) -> GraphError {
        GraphError::DdlParse {
            line: self.line,
            message: message.into(),
        }
    }

    /// Lexes the next token into the lookahead.
    fn advance(&mut self) {
        self.ahead = self.lexer.next_tok();
        if !matches!(self.ahead, Ok(None)) {
            self.line = self.lexer.tok_line;
        }
    }

    fn peek(&mut self) -> Result<Option<Tok<'a>>> {
        match &self.ahead {
            Ok(tok) => Ok(*tok),
            Err(_) => std::mem::replace(&mut self.ahead, Ok(None)),
        }
    }

    fn next(&mut self) -> Result<Option<Tok<'a>>> {
        let tok = self.peek()?;
        if tok.is_some() {
            self.advance();
        }
        Ok(tok)
    }

    fn expect_ident(&mut self, what: &str) -> Result<&'a str> {
        match self.next()? {
            Some(Tok::Ident(s)) => Ok(s),
            other => Err(self.err(format!("expected {what}, found {other:?}"))),
        }
    }

    fn expect(&mut self, tok: Tok<'a>) -> Result<()> {
        match self.next()? {
            Some(t) if t == tok => Ok(()),
            other => Err(self.err(format!("expected {tok:?}, found {other:?}"))),
        }
    }

    fn node_for(&mut self, name: &'a str) -> NodeId {
        if let Some(&n) = self.named.get(name) {
            return n;
        }
        let n = self.graph.new_node(Some(name));
        self.named.insert(name, n);
        n
    }

    /// The one shared allocation of a string literal's text.
    fn intern(&mut self, lit: Lit<'a>) -> Arc<str> {
        (self.strings.entry(lit.0))
            .or_insert_with(|| Arc::from(lit.text().as_ref()))
            .clone()
    }

    fn parse(&mut self) -> Result<()> {
        while let Some(tok) = self.peek()? {
            match tok {
                Tok::Ident("collection") => self.parse_collection()?,
                Tok::Ident("object") => self.parse_object()?,
                other => {
                    return Err(self.err(format!(
                        "expected `collection` or `object`, found {other:?}"
                    )))
                }
            }
        }
        Ok(())
    }

    fn parse_collection(&mut self) -> Result<()> {
        self.next()?; // `collection`
        let name = self.expect_ident("collection name")?;
        self.graph.ensure_collection(name);
        self.expect(Tok::LBrace)?;
        while self.peek()? != Some(Tok::RBrace) {
            let attr = self.expect_ident("attribute name")?;
            let kind = self.expect_ident("type keyword")?;
            let dir = Directive::from_keyword(kind)
                .ok_or_else(|| self.err(format!("unknown type keyword {kind:?}")))?;
            self.directives.entry(name).or_default().insert(attr, dir);
        }
        self.expect(Tok::RBrace)
    }

    fn parse_object(&mut self) -> Result<()> {
        self.next()?; // `object`
        let name = self.expect_ident("object name")?;
        let node = self.node_for(name);
        let mut colls = Vec::new();
        if self.peek()? == Some(Tok::Ident("in")) {
            self.next()?;
            loop {
                let coll = self.expect_ident("collection name")?;
                let sym = self.graph.ensure_collection(coll);
                self.graph.add_to_collection(sym, Value::Node(node));
                colls.push(coll);
                if self.peek()? == Some(Tok::Comma) {
                    self.next()?;
                } else {
                    break;
                }
            }
        }
        self.expect(Tok::LBrace)?;
        self.parse_body(node, &colls)
    }

    /// The attributes of `node` up to its body's closing brace (the opening
    /// one read). Its edges are written when the body ends, on an error
    /// too, and before a nested body's, so they land in source order.
    fn parse_body(&mut self, node: NodeId, colls: &[&'a str]) -> Result<()> {
        let parsed = self.parse_attrs(node, colls);
        self.write_edges(node);
        parsed
    }

    fn parse_attrs(&mut self, node: NodeId, colls: &[&'a str]) -> Result<()> {
        while self.peek()? != Some(Tok::RBrace) {
            let attr = self.expect_ident("attribute name")?;
            let value = self.parse_value(node, attr, colls)?;
            let label = self.graph.sym(attr);
            self.edges.push((label, value));
        }
        self.expect(Tok::RBrace)
    }

    /// Appends the buffered edges to `node`'s out-list, grown once.
    fn write_edges(&mut self, node: NodeId) {
        (self.graph)
            .add_edges(node, self.edges.drain(..))
            .expect("node is a member");
    }

    fn parse_value(&mut self, node: NodeId, attr: &str, colls: &[&'a str]) -> Result<Value> {
        match self.next()? {
            Some(Tok::Str(lit)) => {
                let text = self.intern(lit);
                // Collection directives give string values their default
                // type; first matching collection wins.
                for coll in colls {
                    match self.directives.get(coll).and_then(|m| m.get(attr)) {
                        Some(Directive::File(kind)) => return Ok(Value::File(*kind, text)),
                        Some(Directive::Url) => return Ok(Value::Url(text)),
                        None => {}
                    }
                }
                Ok(Value::Str(text))
            }
            Some(Tok::Int(i)) => Ok(Value::Int(i)),
            Some(Tok::Float(f)) => Ok(Value::Float(f)),
            Some(Tok::Bool(b)) => Ok(Value::Bool(b)),
            Some(Tok::Amp) => {
                let target = self.expect_ident("object name after `&`")?;
                Ok(Value::Node(self.node_for(target)))
            }
            Some(Tok::LBrace) => {
                // Nested structured value: an anonymous node.
                self.write_edges(node);
                self.anon_counter += 1;
                let inner = self
                    .graph
                    .new_node(Some(&format!("_anon{}", self.anon_counter)));
                self.parse_body(inner, colls)?;
                Ok(Value::Node(inner))
            }
            other => Err(self.err(format!("expected a value, found {other:?}"))),
        }
    }
}

/// Parses DDL text, materializing its collections, objects, and edges into
/// `graph`. Multiple inputs may be parsed into the same graph; object names
/// are shared across calls only within a single `parse_into` invocation.
pub fn parse_into(graph: &mut Graph, src: &str) -> Result<()> {
    let mut p = Parser {
        lexer: Lexer::new(src),
        ahead: Ok(None),
        line: 1,
        graph: graph.batch(),
        directives: FxHashMap::default(),
        named: FxHashMap::default(),
        strings: FxHashMap::default(),
        edges: Vec::new(),
        anon_counter: 0,
    };
    p.advance();
    p.parse()
}

/// Parses DDL text into a fresh standalone graph.
pub fn parse(src: &str) -> Result<Graph> {
    let mut g = Graph::standalone();
    parse_into(&mut g, src)?;
    Ok(g)
}

// -------------------------------------------------------------- printer ----

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
        .replace('\t', "\\t")
}

/// Serializes a graph to DDL text. Nodes are named by their provenance name
/// when present, otherwise `n<oid>`. The output parses back ([`parse`]) to an
/// isomorphic graph; file/url typing is preserved via per-object collection
/// directives when it is uniform, and inline it is not (files print with
/// their kind recoverable from the path where possible).
pub fn print(graph: &Graph) -> String {
    let mut out = String::new();
    let reader = graph.reader();
    // Provenance names are used when they are valid DDL identifiers;
    // anything else (Skolem terms like `P(&0)`) falls back to `n<oid>` so
    // the output always re-parses.
    let ident_ok = |s: &str| -> bool {
        !s.is_empty()
            && s.bytes()
                .next()
                .is_some_and(|b| b.is_ascii_alphabetic() || b == b'_')
            && s.bytes()
                .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'-')
    };
    let name_of = move |n: NodeId| -> String {
        match reader.name(n) {
            Some(name) if ident_ok(name) => name.to_string(),
            _ => format!("n{}", n.0),
        }
    };
    let reader = graph.reader();

    // Membership map: node → collections (in collection creation order).
    let mut membership: FxHashMap<NodeId, Vec<String>> = FxHashMap::default();
    for &coll in graph.collection_names() {
        let cname = graph.resolve(coll);
        for v in graph.collection(coll).expect("listed").items() {
            if let Some(n) = v.as_node() {
                membership.entry(n).or_default().push(cname.to_string());
            }
        }
    }

    // Directive synthesis: declare file/url attribute types per collection
    // when every string-typed value of that attribute agrees.
    let mut directives: FxHashMap<String, Vec<(String, &'static str)>> = FxHashMap::default();
    for &coll in graph.collection_names() {
        let cname = graph.resolve(coll).to_string();
        let mut per_attr: FxHashMap<String, Option<&'static str>> = FxHashMap::default();
        for v in graph.collection(coll).expect("listed").items() {
            let Some(n) = v.as_node() else { continue };
            for (label, value) in reader.out(n) {
                let kw = match value {
                    Value::File(k, _) => Some(k.keyword()),
                    Value::Url(_) => Some("url"),
                    Value::Str(_) => None,
                    _ => continue,
                };
                let attr = graph.resolve(*label).to_string();
                match per_attr.entry(attr) {
                    std::collections::hash_map::Entry::Vacant(e) => {
                        e.insert(kw);
                    }
                    std::collections::hash_map::Entry::Occupied(mut e) => {
                        if *e.get() != kw {
                            e.insert(None);
                        }
                    }
                }
            }
        }
        let mut decls: Vec<(String, &'static str)> = per_attr
            .into_iter()
            .filter_map(|(a, kw)| kw.map(|k| (a, k)))
            .collect();
        decls.sort();
        if !decls.is_empty() {
            directives.insert(cname, decls);
        }
    }

    for &coll in graph.collection_names() {
        let cname = graph.resolve(coll);
        let _ = writeln!(out, "collection {cname} {{");
        if let Some(decls) = directives.get(&*cname) {
            for (attr, kw) in decls {
                let _ = writeln!(out, "  {attr} {kw}");
            }
        }
        let _ = writeln!(out, "}}");
    }

    for &n in graph.nodes() {
        let name = name_of(n);
        if name.starts_with("_anon") {
            continue; // printed inline below
        }
        let _ = write!(out, "object {name}");
        if let Some(colls) = membership.get(&n) {
            let _ = write!(out, " in {}", colls.join(", "));
        }
        let _ = writeln!(out, " {{");
        print_attrs(graph, &reader, n, &name_of, 1, &mut out);
        let _ = writeln!(out, "}}");
    }
    out
}

fn print_attrs(
    graph: &Graph,
    reader: &crate::graph::GraphReader<'_>,
    n: NodeId,
    name_of: &dyn Fn(NodeId) -> String,
    depth: usize,
    out: &mut String,
) {
    let indent = "  ".repeat(depth);
    for (label, value) in reader.out(n) {
        let attr = graph.resolve(*label);
        match value {
            Value::Node(m) => {
                let mname = name_of(*m);
                if mname.starts_with("_anon") {
                    let _ = writeln!(out, "{indent}{attr} {{");
                    print_attrs(graph, reader, *m, name_of, depth + 1, out);
                    let _ = writeln!(out, "{indent}}}");
                } else {
                    let _ = writeln!(out, "{indent}{attr} &{mname}");
                }
            }
            Value::Int(i) => {
                let _ = writeln!(out, "{indent}{attr} {i}");
            }
            Value::Float(f) => {
                let _ = writeln!(out, "{indent}{attr} {f:?}");
            }
            Value::Bool(b) => {
                let _ = writeln!(out, "{indent}{attr} {b}");
            }
            Value::Str(s) | Value::Url(s) | Value::File(_, s) => {
                let _ = writeln!(out, "{indent}{attr} \"{}\"", escape(s));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(src: &str) -> Vec<Tok<'_>> {
        let mut lexer = Lexer::new(src);
        std::iter::from_fn(|| lexer.next_tok().unwrap()).collect()
    }

    #[test]
    fn lexer_splits_adjacent_signed_numbers() {
        // `1-2` is two integers (e.g. a `1997-1998` range in source data),
        // not a malformed single token.
        assert_eq!(toks("1-2"), vec![Tok::Int(1), Tok::Int(-2)]);
        assert_eq!(toks("1997-1998"), vec![Tok::Int(1997), Tok::Int(-1998)]);
    }

    #[test]
    fn lexer_keeps_exponent_signs() {
        assert_eq!(toks("1e5"), vec![Tok::Float(1e5)]);
        assert_eq!(toks("1e-5"), vec![Tok::Float(1e-5)]);
        assert_eq!(toks("2.5E+3"), vec![Tok::Float(2.5e3)]);
        // The sign rule only applies right after the exponent marker:
        // `1e-5-2` is the float then a second number.
        assert_eq!(toks("1e-5-2"), vec![Tok::Float(1e-5), Tok::Int(-2)]);
    }

    #[test]
    fn lexer_rejects_double_sign() {
        let err = Lexer::new("--3").next_tok().unwrap_err().to_string();
        assert!(err.contains("bad integer"), "{err}");
    }

    /// Fig. 2 of the paper, verbatim in structure.
    const FIG2: &str = r#"
collection Publications {
  abstract   text
  postscript ps
}
object pub1 in Publications {
  title      "Specifying Representations..."
  author     "Norman Ramsey"
  author     "Mary Fernandez"
  year       1997
  month      "May"
  journal    "Transactions on Programming..."
  pub-type   "article"
  abstract   "abstracts/toplas97.txt"
  postscript "papers/toplas97.ps.gz"
  volume     "19 (3)"
  category   "Architecture Specifications"
  category   "Programming Languages"
}
object pub2 in Publications {
  title      "Optimizing Regular..."
  author     "Mary Fernandez"
  author     "Dan Suciu"
  year       1998
  booktitle  "Proc. of ICDE"
  pub-type   "inproceedings"
  abstract   "abstracts/icde98.txt"
  postscript "papers/icde98.ps.gz"
  category   "Semistructured Data"
  category   "Programming Languages"
}
"#;

    #[test]
    fn parses_fig2() {
        let g = parse(FIG2).unwrap();
        assert_eq!(g.node_count(), 2);
        let pubs = g.collection_str("Publications").unwrap();
        assert_eq!(pubs.len(), 2);
        let pub1 = g.nodes()[0];
        let r = g.reader();
        let year = g.universe().interner().get("year").unwrap();
        assert_eq!(r.attr(pub1, year), Some(&Value::Int(1997)));
        // Directive typing: abstract is a text file, postscript a PS file.
        let abs = g.universe().interner().get("abstract").unwrap();
        assert_eq!(
            r.attr(pub1, abs),
            Some(&Value::file(FileKind::Text, "abstracts/toplas97.txt"))
        );
        let ps = g.universe().interner().get("postscript").unwrap();
        assert_eq!(
            r.attr(pub1, ps),
            Some(&Value::file(FileKind::PostScript, "papers/toplas97.ps.gz"))
        );
    }

    #[test]
    fn irregular_attributes_coexist() {
        let g = parse(FIG2).unwrap();
        let r = g.reader();
        let month = g.universe().interner().get("month").unwrap();
        let booktitle = g.universe().interner().get("booktitle").unwrap();
        let (pub1, pub2) = (g.nodes()[0], g.nodes()[1]);
        assert!(r.attr(pub1, month).is_some() && r.attr(pub2, month).is_none());
        assert!(r.attr(pub1, booktitle).is_none() && r.attr(pub2, booktitle).is_some());
    }

    #[test]
    fn object_references_and_cycles() {
        let g = parse(
            r#"
object a { next &b }
object b { next &a  label "back" }
"#,
        )
        .unwrap();
        assert_eq!(g.node_count(), 2);
        let next = g.universe().interner().get("next").unwrap();
        let r = g.reader();
        let a = g.nodes()[0];
        let b = r.attr(a, next).unwrap().as_node().unwrap();
        assert_eq!(r.attr(b, next), Some(&Value::Node(a)));
    }

    #[test]
    fn forward_references_work() {
        let g = parse("object a { next &later }\nobject later { x 1 }").unwrap();
        assert_eq!(g.node_count(), 2);
        let later = g.nodes()[1];
        assert_eq!(g.node_name(later).as_deref(), Some("later"));
    }

    #[test]
    fn nested_structured_values() {
        let g = parse(
            r#"
object mff {
  name "Mary Fernandez"
  address { street "180 Park Ave" city "Florham Park" zipcode "07932" }
}
"#,
        )
        .unwrap();
        assert_eq!(g.node_count(), 2);
        let addr = g.universe().interner().get("address").unwrap();
        let city = g.universe().interner().get("city").unwrap();
        let r = g.reader();
        let anon = r.attr(g.nodes()[0], addr).unwrap().as_node().unwrap();
        assert_eq!(r.attr(anon, city), Some(&Value::str("Florham Park")));
    }

    #[test]
    fn multiple_collection_membership() {
        let g = parse("collection A {}\ncollection B {}\nobject x in A, B { k 1 }").unwrap();
        let n = Value::Node(g.nodes()[0]);
        assert!(g.collection_str("A").unwrap().contains(&n));
        assert!(g.collection_str("B").unwrap().contains(&n));
    }

    #[test]
    fn comments_and_bools() {
        let g = parse("# leading\nobject x { // trailing\n flag true  off false }").unwrap();
        let r = g.reader();
        let flag = g.universe().interner().get("flag").unwrap();
        assert_eq!(r.attr(g.nodes()[0], flag), Some(&Value::Bool(true)));
    }

    #[test]
    fn string_escapes() {
        let g = parse(r#"object x { s "a\"b\\c\nd" }"#).unwrap();
        let s = g.universe().interner().get("s").unwrap();
        assert_eq!(
            g.reader().attr(g.nodes()[0], s),
            Some(&Value::str("a\"b\\c\nd"))
        );
    }

    #[test]
    fn errors_carry_line_numbers() {
        let err = parse("object x {\n  y\n}").unwrap_err();
        match err {
            GraphError::DdlParse { line, .. } => assert_eq!(line, 3),
            other => panic!("unexpected error {other:?}"),
        }
    }

    /// A streamed parse meets errors in source order: the bad object name
    /// on line 2 is reported, not the unterminated string on line 4 that a
    /// lexer run over the whole source first would have found.
    #[test]
    fn the_first_error_in_source_order_is_reported() {
        let err = parse("object x { y 1 }\nobject 7 {\n}\n\"never closed").unwrap_err();
        match err {
            GraphError::DdlParse { line, message } => {
                assert_eq!(line, 2);
                assert_eq!(message, "expected object name, found Some(Int(7))");
            }
            other => panic!("unexpected error {other:?}"),
        }
        // A lex error still wins over a parse error after it.
        let err = parse("object x { s \"a\\q\" }\nobject 7").unwrap_err();
        assert_eq!(
            err.to_string(),
            r"DDL parse error at line 1: bad escape: \Some('q')"
        );
    }

    #[test]
    fn unterminated_string_is_an_error() {
        assert!(parse(r#"object x { s "oops }"#).is_err());
    }

    #[test]
    fn print_parse_roundtrip_preserves_structure() {
        let g = parse(FIG2).unwrap();
        let text = print(&g);
        let g2 = parse(&text).unwrap();
        assert_eq!(g2.node_count(), g.node_count());
        assert_eq!(g2.edge_count(), g.edge_count());
        assert_eq!(g2.collection_str("Publications").unwrap().len(), 2);
        // Typed values survive the roundtrip.
        let ps = g2.universe().interner().get("postscript").unwrap();
        let r = g2.reader();
        assert_eq!(
            r.attr(g2.nodes()[0], ps),
            Some(&Value::file(FileKind::PostScript, "papers/toplas97.ps.gz"))
        );
    }

    #[test]
    fn print_handles_nested_and_refs() {
        let src = "object a { inner { k 1 } next &b }\nobject b { x \"y\" }";
        let g = parse(src).unwrap();
        let text = print(&g);
        let g2 = parse(&text).unwrap();
        assert_eq!(g2.node_count(), 3);
        assert_eq!(g2.edge_count(), g.edge_count());
    }
}
