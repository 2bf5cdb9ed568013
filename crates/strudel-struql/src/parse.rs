//! The StruQL parser.
//!
//! Grammar (the relaxed form with nested blocks from §3 of the paper;
//! clauses may repeat and intermix inside a block, which "is nothing more
//! than syntactic convenience, since the meaning is the same as that of the
//! query in which all clauses are joint together"):
//!
//! ```text
//! Query    ::= [INPUT ident] Body [OUTPUT ident]
//! Body     ::= ( WHERE Cond (',' Cond)*
//!              | CREATE Skolem (',' Skolem)*
//!              | LINK LinkItem (',' LinkItem)*
//!              | COLLECT CollectItem (',' CollectItem)*
//!              | '{' Body '}' )*
//! Cond     ::= NOT '(' Cond ')'
//!            | ident '(' Term (',' Term)* ')'          -- collection or predicate
//!            | ident IN '{' Literal (',' Literal)* '}'
//!            | Term ('->' Step '->' Term)+             -- chains desugar to hops
//!            | Term CmpOp Term
//! Step     ::= Rpe                                      -- a bare ident is an
//!                                                       -- arc var or predicate,
//!                                                       -- resolved semantically
//! Rpe      ::= Seq ('|' Seq)* ; Seq ::= Post ('.' Post)* ;
//! Post     ::= Atom ('*'|'+'|'?')*
//! Atom     ::= STRING | '_' | true | '*' | '(' Rpe ')' | ident
//! Skolem   ::= ident '(' [ident (',' ident)*] ')'
//! LinkItem ::= Skolem '->' (STRING | ident) '->' (Skolem | ident | Literal)
//! CollectItem ::= ident '(' (Skolem | ident | Literal) ')'
//! ```

use crate::ast::*;
use crate::error::{Result, StruqlError};
use crate::lex::{lex, Spanned, Tok};

struct Parser {
    toks: Vec<Spanned>,
    pos: usize,
    next_block: u32,
    /// Extra hops produced while desugaring multi-hop chains
    /// (`x -> * -> y -> l -> z`); drained into the current block's WHERE
    /// clause right after the comma-list is parsed.
    pending: Vec<Condition>,
}

impl Parser {
    fn line(&self) -> usize {
        self.toks
            .get(self.pos)
            .or_else(|| self.toks.last())
            .map(|(_, l)| *l)
            .unwrap_or(1)
    }

    fn err(&self, msg: impl Into<String>) -> StruqlError {
        StruqlError::parse(self.line(), msg.into())
    }

    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos).map(|(t, _)| t)
    }

    fn peek2(&self) -> Option<&Tok> {
        self.toks.get(self.pos + 1).map(|(t, _)| t)
    }

    fn bump(&mut self) -> Option<Tok> {
        let t = self.toks.get(self.pos).map(|(t, _)| t.clone());
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn eat(&mut self, tok: &Tok) -> bool {
        if self.peek() == Some(tok) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, tok: Tok, what: &str) -> Result<()> {
        match self.bump() {
            Some(t) if t == tok => Ok(()),
            other => Err(self.err(format!("expected {what}, found {other:?}"))),
        }
    }

    fn expect_ident(&mut self, what: &str) -> Result<String> {
        match self.bump() {
            Some(Tok::Ident(s)) => Ok(s),
            other => Err(self.err(format!("expected {what}, found {other:?}"))),
        }
    }

    // ---- query / block ----

    fn parse_query(&mut self) -> Result<Query> {
        let mut q = Query::default();
        if self.eat(&Tok::Input) {
            q.input = Some(self.expect_ident("input graph name")?);
        }
        q.root = self.parse_body()?;
        if self.eat(&Tok::Output) {
            q.output = Some(self.expect_ident("output graph name")?);
        }
        if let Some(t) = self.peek() {
            return Err(self.err(format!("unexpected trailing token {t:?}")));
        }
        Ok(q)
    }

    fn parse_body(&mut self) -> Result<Block> {
        let mut block = Block {
            id: BlockId(self.next_block),
            ..Block::default()
        };
        self.next_block += 1;
        loop {
            match self.peek() {
                Some(Tok::Where) => {
                    self.bump();
                    block.where_.extend(self.parse_list(Self::parse_condition)?);
                    // Splice in extra hops from multi-hop chains; order
                    // within a conjunctive clause is irrelevant.
                    block.where_.append(&mut self.pending);
                }
                Some(Tok::Create) => {
                    self.bump();
                    block.creates.extend(self.parse_list(Self::parse_skolem)?);
                }
                Some(Tok::Link) => {
                    self.bump();
                    block.links.extend(self.parse_list(Self::parse_link)?);
                }
                Some(Tok::Collect) => {
                    self.bump();
                    block.collects.extend(self.parse_list(Self::parse_collect)?);
                }
                Some(Tok::LBrace) => {
                    self.bump();
                    let child = self.parse_body()?;
                    self.expect(Tok::RBrace, "`}`")?;
                    block.children.push(child);
                }
                _ => break,
            }
        }
        Ok(block)
    }

    /// Parses a comma-separated list of items, stopping (without consuming)
    /// at any clause keyword, brace, `OUTPUT`, or end of input.
    fn parse_list<T>(&mut self, item: fn(&mut Self) -> Result<T>) -> Result<Vec<T>> {
        let mut out = vec![item(self)?];
        while self.eat(&Tok::Comma) {
            out.push(item(self)?);
        }
        Ok(out)
    }

    // ---- conditions ----

    fn parse_condition(&mut self) -> Result<Condition> {
        if self.eat(&Tok::Not) {
            self.expect(Tok::LParen, "`(` after not")?;
            let inner = self.parse_condition()?;
            self.expect(Tok::RParen, "`)`")?;
            return negate(inner).map_err(|m| self.err(m));
        }

        // `ident (` → collection/predicate; `ident in {` → set membership.
        if let Some(Tok::Ident(_)) = self.peek() {
            match self.peek2() {
                Some(Tok::LParen) => {
                    let name = self.expect_ident("name")?;
                    self.bump(); // `(`
                    let mut args = vec![self.parse_term()?];
                    while self.eat(&Tok::Comma) {
                        args.push(self.parse_term()?);
                    }
                    self.expect(Tok::RParen, "`)`")?;
                    return Ok(if args.len() == 1 {
                        // Single argument: collection test by default; the
                        // analyzer reclassifies it as a predicate when the
                        // name is registered (semantic distinction, §3).
                        Condition::Collection {
                            name,
                            arg: args.pop().expect("one arg"),
                            negated: false,
                        }
                    } else {
                        Condition::Predicate {
                            name,
                            args,
                            negated: false,
                        }
                    });
                }
                Some(Tok::In) => {
                    let var = self.expect_ident("variable")?;
                    self.bump(); // `in`
                    self.expect(Tok::LBrace, "`{`")?;
                    let mut set = vec![self.parse_literal()?];
                    while self.eat(&Tok::Comma) {
                        set.push(self.parse_literal()?);
                    }
                    self.expect(Tok::RBrace, "`}`")?;
                    return Ok(Condition::In {
                        var,
                        set,
                        negated: false,
                    });
                }
                _ => {}
            }
        }

        // A term followed by a chain of arrows or a comparison.
        let first = self.parse_term()?;
        match self.peek() {
            Some(Tok::Arrow) => self.parse_chain(first),
            Some(Tok::Eq | Tok::Ne | Tok::Lt | Tok::Le | Tok::Gt | Tok::Ge) => {
                let op = match self.bump() {
                    Some(Tok::Eq) => CmpOp::Eq,
                    Some(Tok::Ne) => CmpOp::Ne,
                    Some(Tok::Lt) => CmpOp::Lt,
                    Some(Tok::Le) => CmpOp::Le,
                    Some(Tok::Gt) => CmpOp::Gt,
                    Some(Tok::Ge) => CmpOp::Ge,
                    _ => unreachable!("peeked"),
                };
                let rhs = self.parse_term()?;
                Ok(Condition::Compare {
                    lhs: first,
                    op,
                    rhs,
                })
            }
            other => Err(self.err(format!(
                "expected `->` or a comparison after term, found {other:?}"
            ))),
        }
    }

    /// Parses `first -> step -> t2 [-> step -> t3 …]`. Multi-hop chains
    /// (`x -> * -> y -> l -> z`) desugar into one [`Condition::Edge`] per
    /// hop; the condition returned is the first hop and the rest are queued.
    fn parse_chain(&mut self, first: Term) -> Result<Condition> {
        // Parse the full chain, then fold into nested conditions. Since a
        // condition list is flat, we stash extra hops in `pending`.
        let mut hops = Vec::new();
        let mut from = first;
        while self.eat(&Tok::Arrow) {
            let step = self.parse_step()?;
            self.expect(Tok::Arrow, "`->` after path step")?;
            let to = self.parse_term()?;
            hops.push(Condition::Edge {
                from: from.clone(),
                step,
                to: to.clone(),
                negated: false,
            });
            from = to;
        }
        debug_assert!(!hops.is_empty(), "parse_chain called at an arrow");
        let mut iter = hops.into_iter();
        let head = iter.next().expect("non-empty");
        self.pending.extend(iter);
        Ok(head)
    }

    fn parse_step(&mut self) -> Result<PathStep> {
        // Bare identifier not followed by an RPE operator → arc var or
        // predicate (resolved by analysis).
        if let Some(Tok::Ident(_)) = self.peek() {
            if self.peek2() == Some(&Tok::Arrow) {
                let name = self.expect_ident("step")?;
                return Ok(PathStep::Bare(name));
            }
        }
        let rpe = self.parse_rpe_alt()?;
        Ok(PathStep::Rpe(rpe))
    }

    // ---- regular path expressions ----

    fn parse_rpe_alt(&mut self) -> Result<Rpe> {
        let mut lhs = self.parse_rpe_seq()?;
        while self.eat(&Tok::Pipe) {
            let rhs = self.parse_rpe_seq()?;
            lhs = Rpe::Alt(Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn parse_rpe_seq(&mut self) -> Result<Rpe> {
        let mut lhs = self.parse_rpe_post()?;
        while self.eat(&Tok::Dot) {
            let rhs = self.parse_rpe_post()?;
            lhs = Rpe::Seq(Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn parse_rpe_post(&mut self) -> Result<Rpe> {
        let mut atom = self.parse_rpe_atom()?;
        loop {
            match self.peek() {
                Some(Tok::Star) => {
                    self.bump();
                    atom = Rpe::Star(Box::new(atom));
                }
                Some(Tok::Plus) => {
                    self.bump();
                    atom = Rpe::Plus(Box::new(atom));
                }
                Some(Tok::Question) => {
                    self.bump();
                    atom = Rpe::Opt(Box::new(atom));
                }
                _ => return Ok(atom),
            }
        }
    }

    fn parse_rpe_atom(&mut self) -> Result<Rpe> {
        match self.bump() {
            Some(Tok::Str(s)) => Ok(Rpe::Label(s)),
            Some(Tok::Underscore) | Some(Tok::True) => Ok(Rpe::AnyLabel),
            Some(Tok::Star) => Ok(Rpe::any_path()),
            Some(Tok::LParen) => {
                let inner = self.parse_rpe_alt()?;
                self.expect(Tok::RParen, "`)`")?;
                Ok(inner)
            }
            Some(Tok::Ident(name)) => Ok(Rpe::Pred(name)),
            other => Err(self.err(format!("expected a path expression, found {other:?}"))),
        }
    }

    // ---- terms & literals ----

    fn parse_term(&mut self) -> Result<Term> {
        // A Skolem application in construction position: `F(x, y)` — or an
        // aggregate `COUNT(v)` (the names COUNT/SUM/MIN/MAX/AVG are
        // reserved, case-insensitively, in term position).
        if let (Some(Tok::Ident(name)), Some(Tok::LParen)) = (self.peek(), self.peek2()) {
            if let Some(func) = AggFunc::from_name(name) {
                self.bump(); // name
                self.bump(); // `(`
                let var = self.expect_ident("aggregate variable")?;
                self.expect(Tok::RParen, "`)`")?;
                return Ok(Term::Agg(func, var));
            }
            return Ok(Term::Skolem(self.parse_skolem()?));
        }
        match self.bump() {
            Some(Tok::Ident(v)) => Ok(Term::Var(v)),
            Some(Tok::Str(s)) => Ok(Term::Lit(Literal::Str(s))),
            Some(Tok::Int(i)) => Ok(Term::Lit(Literal::Int(i))),
            Some(Tok::Float(f)) => Ok(Term::Lit(Literal::Float(f))),
            Some(Tok::True) => Ok(Term::Lit(Literal::Bool(true))),
            Some(Tok::False) => Ok(Term::Lit(Literal::Bool(false))),
            other => Err(self.err(format!("expected a term, found {other:?}"))),
        }
    }

    fn parse_literal(&mut self) -> Result<Literal> {
        match self.bump() {
            Some(Tok::Str(s)) => Ok(Literal::Str(s)),
            Some(Tok::Int(i)) => Ok(Literal::Int(i)),
            Some(Tok::Float(f)) => Ok(Literal::Float(f)),
            Some(Tok::True) => Ok(Literal::Bool(true)),
            Some(Tok::False) => Ok(Literal::Bool(false)),
            other => Err(self.err(format!("expected a literal, found {other:?}"))),
        }
    }

    // ---- construction clauses ----

    fn parse_skolem(&mut self) -> Result<SkolemTerm> {
        let name = self.expect_ident("Skolem function name")?;
        self.expect(Tok::LParen, "`(`")?;
        let mut args = Vec::new();
        if self.peek() != Some(&Tok::RParen) {
            args.push(self.expect_ident("Skolem argument variable")?);
            while self.eat(&Tok::Comma) {
                args.push(self.expect_ident("Skolem argument variable")?);
            }
        }
        self.expect(Tok::RParen, "`)`")?;
        Ok(SkolemTerm { name, args })
    }

    fn parse_link(&mut self) -> Result<LinkClause> {
        let from = match self.parse_term()? {
            Term::Skolem(s) => s,
            other => {
                return Err(self.err(format!(
                    "LINK source must be a Skolem term (new node), found `{other}`: existing nodes are immutable"
                )))
            }
        };
        self.expect(Tok::Arrow, "`->` in LINK")?;
        let label = match self.bump() {
            Some(Tok::Str(s)) => LabelTerm::Lit(s),
            Some(Tok::Ident(v)) => LabelTerm::Var(v),
            other => return Err(self.err(format!("expected a link label, found {other:?}"))),
        };
        self.expect(Tok::Arrow, "`->` in LINK")?;
        let to = self.parse_term()?;
        Ok(LinkClause { from, label, to })
    }

    fn parse_collect(&mut self) -> Result<CollectClause> {
        let name = self.expect_ident("collection name")?;
        self.expect(Tok::LParen, "`(`")?;
        let arg = self.parse_term()?;
        self.expect(Tok::RParen, "`)`")?;
        Ok(CollectClause { name, arg })
    }
}

fn negate(cond: Condition) -> std::result::Result<Condition, String> {
    Ok(match cond {
        Condition::Collection { name, arg, negated } => Condition::Collection {
            name,
            arg,
            negated: !negated,
        },
        Condition::Edge {
            from,
            step,
            to,
            negated,
        } => Condition::Edge {
            from,
            step,
            to,
            negated: !negated,
        },
        Condition::Predicate {
            name,
            args,
            negated,
        } => Condition::Predicate {
            name,
            args,
            negated: !negated,
        },
        Condition::Compare { lhs, op, rhs } => Condition::Compare {
            lhs,
            op: op.negate(),
            rhs,
        },
        Condition::In { var, set, negated } => Condition::In {
            var,
            set,
            negated: !negated,
        },
    })
}

/// Parses a complete StruQL query from source text.
pub fn parse_query(src: &str) -> Result<Query> {
    let toks = lex(src)?;
    let mut p = Parser {
        toks,
        pos: 0,
        next_block: 0,
        pending: Vec::new(),
    };
    let q = p.parse_query()?;
    debug_assert!(p.pending.is_empty(), "pending hops drained during parse");
    Ok(q)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    #[test]
    fn parses_postscript_example() {
        // §3: all PostScript papers directly accessible from home pages.
        let q = parse_query(
            r#"WHERE HomePages(p), p -> "Paper" -> q, isPostScript(q)
               COLLECT PostscriptPages(q)"#,
        )
        .unwrap();
        assert_eq!(q.root.where_.len(), 3);
        assert_eq!(q.root.collects.len(), 1);
        assert!(
            matches!(&q.root.where_[0], Condition::Collection { name, .. } if name == "HomePages")
        );
        assert!(matches!(&q.root.where_[1], Condition::Edge { .. }));
        // `isPostScript(q)` parses as a 1-arg collection test; the analyzer
        // reclassifies it against the predicate registry.
        assert!(
            matches!(&q.root.where_[2], Condition::Collection { name, .. } if name == "isPostScript")
        );
    }

    #[test]
    fn parses_multi_hop_chain() {
        // §3 TextOnly: Root(p), p -> * -> q, q -> l -> q0, not(isImageFile(q0))
        let q = parse_query(
            r#"WHERE Root(p), p -> * -> q -> l -> q0, not(isImageFile(q0))
               CREATE New(p), New(q), New(q0)
               LINK New(q) -> l -> New(q0)
               COLLECT TextOnlyRoot(New(p))"#,
        )
        .unwrap();
        // chain desugars: p->*->q and q->l->q0
        let edges: Vec<_> = q
            .root
            .where_
            .iter()
            .filter(|c| matches!(c, Condition::Edge { .. }))
            .collect();
        assert_eq!(edges.len(), 2);
        // Desugared hops are appended after the written conditions.
        assert!(
            matches!(&q.root.where_[2], Condition::Collection { name, negated: true, .. } if name == "isImageFile")
        );
        assert!(
            matches!(&q.root.where_[3], Condition::Edge { step: PathStep::Bare(l), .. } if l == "l")
        );
        assert_eq!(q.root.creates.len(), 3);
        assert!(matches!(&q.root.links[0].label, LabelTerm::Var(v) if v == "l"));
        assert!(
            matches!(&q.root.links[0].to, Term::Skolem(s) if s.name == "New" && s.args == vec!["q0".to_string()])
        );
    }

    #[test]
    fn parses_fig3_homepage_query() {
        let q = parse_query(FIG3).unwrap();
        assert_eq!(q.input.as_deref(), Some("BIBTEX"));
        assert_eq!(q.output.as_deref(), Some("HomePage"));
        assert_eq!(q.root.creates.len(), 2); // RootPage(), AbstractsPage()
        assert_eq!(q.root.children.len(), 1); // the Q1 block
        let q1 = &q.root.children[0];
        assert_eq!(q1.children.len(), 2); // year + category blocks
        assert_eq!(q1.creates.len(), 2);
        assert_eq!(q1.links.len(), 4);
        let q2 = &q1.children[0];
        assert!(matches!(
            &q2.where_[0],
            Condition::Compare { op: CmpOp::Eq, .. }
        ));
        assert_eq!(q2.creates[0].name, "YearPage");
    }

    /// Fig. 3 of the paper, verbatim modulo whitespace.
    pub const FIG3: &str = r#"
INPUT BIBTEX
// Create Root & Abstracts page and link them
CREATE RootPage(), AbstractsPage()
LINK RootPage() -> "AbstractsPage" -> AbstractsPage()
{
  // Create a presentation for every publication x
  WHERE Publications(x), x -> l -> v
  CREATE PaperPresentation(x), AbstractPage(x)
  LINK AbstractPage(x) -> l -> v,
       PaperPresentation(x) -> l -> v,
       PaperPresentation(x) -> "Abstract" -> AbstractPage(x),
       AbstractsPage() -> "Abstract" -> AbstractPage(x)
  {
    // Create a page for every year
    WHERE l = "year"
    CREATE YearPage(v)
    LINK YearPage(v) -> "Year" -> v,
         YearPage(v) -> "Paper" -> PaperPresentation(x),
         RootPage() -> "YearPage" -> YearPage(v)
  }
  {
    // Create a page for every category
    WHERE l = "category"
    CREATE CategoryPage(v)
    LINK CategoryPage(v) -> "Name" -> v,
         CategoryPage(v) -> "Paper" -> PaperPresentation(x),
         RootPage() -> "CategoryPage" -> CategoryPage(v)
  }
}
OUTPUT HomePage
"#;

    #[test]
    fn block_ids_in_document_order() {
        fn ids(b: &Block, out: &mut Vec<u32>) {
            out.push(b.id.0);
            b.children.iter().for_each(|c| ids(c, out));
        }
        let mut out = Vec::new();
        ids(&parse_query(FIG3).unwrap().root, &mut out);
        assert_eq!(out, vec![0, 1, 2, 3]);
    }

    #[test]
    fn in_set_condition() {
        let q = parse_query(
            r#"WHERE Publications(x), x -> * -> y -> l -> z,
                     l in {"Paper", "TechReport", "Title"}
               CREATE Page(y)"#,
        )
        .unwrap();
        let in_cond = q
            .root
            .where_
            .iter()
            .find(|c| matches!(c, Condition::In { .. }))
            .unwrap();
        match in_cond {
            Condition::In { var, set, negated } => {
                assert_eq!(var, "l");
                assert_eq!(set.len(), 3);
                assert!(!negated);
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn complement_query_parses() {
        // §3: the complement of a graph.
        let q = parse_query(
            r#"WHERE not(p -> l -> q)
               CREATE f(p), f(q)
               LINK f(p) -> l -> f(q)"#,
        )
        .unwrap();
        assert!(matches!(
            &q.root.where_[0],
            Condition::Edge { negated: true, .. }
        ));
    }

    #[test]
    fn rpe_operators_parse() {
        let q = parse_query(r#"WHERE x -> ("a" . "b")* | "c"+ . _? -> y COLLECT Out(y)"#).unwrap();
        match &q.root.where_[0] {
            Condition::Edge {
                step: PathStep::Rpe(r),
                ..
            } => {
                let s = r.to_string();
                assert!(
                    s.contains('*') && s.contains('+') && s.contains('?'),
                    "got {s}"
                );
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn bare_ident_step_is_unresolved() {
        let q = parse_query("WHERE x -> l -> y COLLECT C(y)").unwrap();
        assert!(
            matches!(&q.root.where_[0], Condition::Edge { step: PathStep::Bare(v), .. } if v == "l")
        );
    }

    #[test]
    fn link_from_var_is_rejected() {
        // §3: `link x -> "A" -> f(y)` is illegal — old nodes are immutable.
        let err = parse_query(r#"WHERE C(x) CREATE f(x) LINK x -> "A" -> f(x)"#).unwrap_err();
        assert!(err.to_string().contains("immutable"), "{err}");
    }

    #[test]
    fn comparison_operators() {
        for (src, op) in [
            ("x = 1", CmpOp::Eq),
            ("x != 1", CmpOp::Ne),
            ("x < 1", CmpOp::Lt),
            ("x <= 1", CmpOp::Le),
            ("x > 1", CmpOp::Gt),
            ("x >= 1", CmpOp::Ge),
        ] {
            let q = parse_query(&format!("WHERE C(x), {src} COLLECT Out(x)")).unwrap();
            assert!(
                matches!(&q.root.where_[1], Condition::Compare { op: o, .. } if *o == op),
                "{src}"
            );
        }
    }

    #[test]
    fn not_comparison_negates_operator() {
        let q = parse_query("WHERE C(x), not(x = 1) COLLECT Out(x)").unwrap();
        assert!(matches!(
            &q.root.where_[1],
            Condition::Compare { op: CmpOp::Ne, .. }
        ));
    }

    #[test]
    fn display_parse_roundtrip() {
        let q = parse_query(FIG3).unwrap();
        let printed = q.to_string();
        let q2 = parse_query(&printed).unwrap_or_else(|e| panic!("reparse failed: {e}\n{printed}"));
        assert_eq!(q, q2);
    }

    #[test]
    fn trailing_garbage_is_an_error() {
        assert!(parse_query("WHERE C(x) COLLECT D(x) bogus bogus").is_err());
    }

    #[test]
    fn empty_query_is_valid() {
        // A create-only query with no WHERE: one empty binding.
        let q = parse_query("CREATE HomePage()").unwrap();
        assert!(q.root.where_.is_empty());
        assert_eq!(q.root.creates.len(), 1);
        assert!(q.root.creates[0].args.is_empty());
    }

    #[test]
    fn error_reports_line() {
        let err = parse_query("WHERE C(x)\nCREATE ???").unwrap_err();
        match err {
            StruqlError::Parse { line, .. } => assert_eq!(line, 2),
            other => panic!("unexpected {other:?}"),
        }
    }
}
