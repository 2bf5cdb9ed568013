//! Parsing HTML templates: plain HTML with `SFMT` / `SIF` / `SFOR`
//! directives.
//!
//! Directive names are matched case-insensitively (`<sfmt …>` works); all
//! other text — including every regular HTML tag — passes through verbatim,
//! because "our plain template text is plain HTML with programmatic
//! extensions, not a program that produces HTML text" (§4).

use crate::ast::*;
use crate::error::{Result, TemplateError};

/// Parses a template source string.
pub fn parse_template(src: &str) -> Result<Template> {
    parse_template_in(src, &mut Vec::new())
}

/// Parses a template whose identifiers take their slots in `names`.
pub(crate) fn parse_template_in(src: &str, names: &mut Vec<String>) -> Result<Template> {
    let mut p = Outer {
        src,
        pos: 0,
        line: 1,
        names,
    };
    let nodes = p.parse_nodes(&mut Vec::new())?;
    Ok(Template {
        nodes,
        source: src.to_string(),
    })
}

/// A frame on the open-directive stack, for error messages and matching.
#[derive(PartialEq, Debug, Clone, Copy)]
enum Frame {
    If,
    Else,
    For,
}

struct Outer<'a> {
    src: &'a str,
    pos: usize,
    line: usize,
    names: &'a mut Vec<String>,
}

/// What the outer scanner found next.
enum Piece {
    Html(String),
    Fmt(String, usize),
    IfOpen(String, usize),
    Else,
    IfClose,
    ForOpen(String, usize),
    ForClose,
    Eof,
}

impl<'a> Outer<'a> {
    fn err(&self, line: usize, msg: impl Into<String>) -> TemplateError {
        TemplateError::parse(line, msg)
    }

    /// Scans up to the next directive, returning the preceding HTML (if
    /// any) via `pending`.
    fn next_piece(&mut self) -> Result<Piece> {
        let bytes = self.src.as_bytes();
        let start = self.pos;
        let mut html_end = self.pos;
        while self.pos < bytes.len() {
            if bytes[self.pos] == b'<' {
                if let Some((piece, consumed)) = self.try_directive()? {
                    if html_end > start {
                        // Emit pending HTML first; rewind so the directive
                        // is re-scanned on the next call.
                        self.pos = html_end;
                        return Ok(Piece::Html(self.src[start..html_end].to_string()));
                    }
                    self.pos += consumed;
                    self.line += self.src[html_end..html_end + consumed]
                        .matches('\n')
                        .count();
                    return Ok(piece);
                }
            }
            if bytes[self.pos] == b'\n' {
                self.line += 1;
            }
            self.pos += 1;
            html_end = self.pos;
        }
        if html_end > start {
            Ok(Piece::Html(self.src[start..html_end].to_string()))
        } else {
            Ok(Piece::Eof)
        }
    }

    /// If the text at `self.pos` starts a directive, returns it plus the
    /// number of bytes it spans. Does not advance.
    fn try_directive(&self) -> Result<Option<(Piece, usize)>> {
        let rest = &self.src[self.pos..];
        let lower = |n: usize| rest.get(..n).map(|s| s.to_ascii_lowercase());
        let line = self.line;
        if lower(6).as_deref() == Some("<selse") && rest[6..].starts_with('>') {
            return Ok(Some((Piece::Else, 7)));
        }
        if lower(6).as_deref() == Some("</sif>") {
            return Ok(Some((Piece::IfClose, 6)));
        }
        if lower(7).as_deref() == Some("</sfor>") {
            return Ok(Some((Piece::ForClose, 7)));
        }
        for (prefix, kind) in [("<sfmt", 0u8), ("<sif", 1), ("<sfor", 2)] {
            if let Some(head) = lower(prefix.len()) {
                if head == prefix {
                    // The directive name must end at a word boundary.
                    let after = rest.as_bytes().get(prefix.len()).copied();
                    if after.is_some_and(|b| b.is_ascii_alphanumeric()) {
                        continue;
                    }
                    let body_start = prefix.len();
                    let end = find_tag_end(rest, body_start).ok_or_else(|| {
                        self.err(line, format!("unterminated {} directive", prefix))
                    })?;
                    let body = rest[body_start..end].trim().to_string();
                    let piece = match kind {
                        0 => Piece::Fmt(body, line),
                        1 => Piece::IfOpen(body, line),
                        _ => Piece::ForOpen(body, line),
                    };
                    return Ok(Some((piece, end + 1)));
                }
            }
        }
        Ok(None)
    }

    fn parse_nodes(&mut self, stack: &mut Vec<Frame>) -> Result<Vec<Node>> {
        let mut nodes = Vec::new();
        loop {
            match self.next_piece()? {
                Piece::Html(h) => nodes.push(Node::Html(h)),
                Piece::Fmt(body, line) => nodes.push(parse_fmt(&body, line, self.names)?),
                Piece::IfOpen(body, line) => {
                    let cond = parse_cond_str(&body, line, self.names)?;
                    let depth = stack.len();
                    stack.push(Frame::If);
                    let then = self.parse_nodes(stack)?;
                    // The recursion returned either because </SIF> popped our
                    // frame (stack back to `depth`) or because <SELSE>
                    // switched it to Else (still `depth + 1`).
                    let else_ = if stack.len() == depth + 1 && stack.last() == Some(&Frame::Else) {
                        self.parse_nodes(stack)?
                    } else {
                        Vec::new()
                    };
                    debug_assert_eq!(stack.len(), depth, "if/else frames balanced");
                    nodes.push(Node::If { cond, then, else_ });
                }
                Piece::Else => match stack.last() {
                    Some(Frame::If) => {
                        // Switch the open frame to Else and return the THEN
                        // branch; the caller continues with the ELSE branch.
                        stack.pop();
                        stack.push(Frame::Else);
                        return Ok(nodes);
                    }
                    _ => return Err(self.err(self.line, "<SELSE> outside <SIF>")),
                },
                Piece::IfClose => match stack.pop() {
                    Some(Frame::If) | Some(Frame::Else) => return Ok(nodes),
                    _ => return Err(self.err(self.line, "</SIF> without matching <SIF>")),
                },
                Piece::ForOpen(body, line) => {
                    let (var, expr, opts) = parse_for_head(&body, line, self.names)?;
                    stack.push(Frame::For);
                    let inner = self.parse_nodes(stack)?;
                    nodes.push(Node::For {
                        var,
                        expr,
                        opts,
                        body: inner,
                    });
                }
                Piece::ForClose => match stack.pop() {
                    Some(Frame::For) => return Ok(nodes),
                    _ => return Err(self.err(self.line, "</SFOR> without matching <SFOR>")),
                },
                Piece::Eof => {
                    if let Some(open) = stack.last() {
                        return Err(self.err(self.line, format!("unclosed {open:?} directive")));
                    }
                    return Ok(nodes);
                }
            }
        }
    }
}

/// Finds the index of the closing `>` of a directive, skipping over quoted
/// strings and the `>=` operator (a bare `>` closes the tag, so strict
/// greater-than inside `SIF` is written with the `GT` keyword).
fn find_tag_end(s: &str, from: usize) -> Option<usize> {
    let bytes = s.as_bytes();
    let mut i = from;
    let mut in_str = false;
    while i < bytes.len() {
        match bytes[i] {
            b'"' => in_str = !in_str,
            b'\\' if in_str => i += 1,
            b'>' if !in_str => {
                if bytes.get(i + 1) == Some(&b'=') {
                    i += 1; // `>=` comparison operator, not the tag end
                } else {
                    return Some(i);
                }
            }
            _ => {}
        }
        i += 1;
    }
    None
}

// ------------------------------------------------- inner-directive lexer ----

#[derive(Clone, Debug, PartialEq)]
enum T {
    Attr(AttrExpr),
    Ident(String),
    Str(String),
    Int(i64),
    Float(f64),
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    LParen,
    RParen,
}

fn lex_inner(s: &str, line: usize, names: &mut Vec<String>) -> Result<Vec<T>> {
    let bytes = s.as_bytes();
    let mut i = 0;
    let mut out = Vec::new();
    let err = |m: String| TemplateError::parse(line, m);
    while i < bytes.len() {
        match bytes[i] {
            b if b.is_ascii_whitespace() => i += 1,
            b'@' => {
                i += 1;
                let mut path = Vec::new();
                loop {
                    let start = i;
                    while i < bytes.len()
                        && (bytes[i].is_ascii_alphanumeric()
                            || bytes[i] == b'_'
                            || bytes[i] == b'-')
                    {
                        i += 1;
                    }
                    if i == start {
                        return Err(err("empty attribute name after `@` or `.`".into()));
                    }
                    path.push(Name::in_table(names, &s[start..i]));
                    if i < bytes.len() && bytes[i] == b'.' {
                        i += 1;
                    } else {
                        break;
                    }
                }
                out.push(T::Attr(AttrExpr { path }));
            }
            b'"' => {
                i += 1;
                let mut text = String::new();
                loop {
                    if i >= bytes.len() {
                        return Err(err("unterminated string in directive".into()));
                    }
                    match bytes[i] {
                        b'"' => {
                            i += 1;
                            break;
                        }
                        b'\\' => {
                            i += 1;
                            match bytes.get(i) {
                                Some(b'n') => text.push('\n'),
                                Some(b't') => text.push('\t'),
                                Some(b'"') => text.push('"'),
                                Some(b'\\') => text.push('\\'),
                                other => return Err(err(format!("bad escape {other:?}"))),
                            }
                            i += 1;
                        }
                        _ => {
                            let start = i;
                            i += 1;
                            while i < bytes.len() && (bytes[i] & 0xC0) == 0x80 {
                                i += 1;
                            }
                            text.push_str(&s[start..i]);
                        }
                    }
                }
                out.push(T::Str(text));
            }
            b'=' => {
                out.push(T::Eq);
                i += 1;
            }
            b'!' if bytes.get(i + 1) == Some(&b'=') => {
                out.push(T::Ne);
                i += 2;
            }
            b'<' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    out.push(T::Le);
                    i += 2;
                } else {
                    out.push(T::Lt);
                    i += 1;
                }
            }
            b'>' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    out.push(T::Ge);
                    i += 2;
                } else {
                    out.push(T::Gt);
                    i += 1;
                }
            }
            b'(' => {
                out.push(T::LParen);
                i += 1;
            }
            b')' => {
                out.push(T::RParen);
                i += 1;
            }
            b'-' | b'0'..=b'9' => {
                let start = i;
                i += 1;
                let mut is_float = false;
                while i < bytes.len() {
                    match bytes[i] {
                        b'0'..=b'9' => i += 1,
                        b'.' if bytes.get(i + 1).is_some_and(u8::is_ascii_digit) => {
                            is_float = true;
                            i += 1;
                        }
                        _ => break,
                    }
                }
                let text = &s[start..i];
                if is_float {
                    out.push(T::Float(
                        text.parse()
                            .map_err(|_| err(format!("bad float {text:?}")))?,
                    ));
                } else {
                    out.push(T::Int(
                        text.parse().map_err(|_| err(format!("bad int {text:?}")))?,
                    ));
                }
            }
            b if b.is_ascii_alphabetic() || b == b'_' => {
                let start = i;
                while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                    i += 1;
                }
                out.push(T::Ident(s[start..i].to_string()));
            }
            other => {
                return Err(err(format!(
                    "unexpected character {:?} in directive",
                    other as char
                )))
            }
        }
    }
    Ok(out)
}

struct Inner {
    toks: Vec<T>,
    pos: usize,
    line: usize,
}

impl Inner {
    fn err(&self, msg: impl Into<String>) -> TemplateError {
        TemplateError::parse(self.line, msg)
    }

    fn peek(&self) -> Option<&T> {
        self.toks.get(self.pos)
    }

    fn bump(&mut self) -> Option<T> {
        let t = self.toks.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if matches!(self.peek(), Some(T::Ident(s)) if s.eq_ignore_ascii_case(kw)) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_eq(&mut self, what: &str) -> Result<()> {
        match self.bump() {
            Some(T::Eq) => Ok(()),
            other => Err(self.err(format!("expected `=` after {what}, found {other:?}"))),
        }
    }

    fn parse_tag(&mut self) -> Result<Tag> {
        match self.bump() {
            Some(T::Str(s)) => Ok(Tag::Str(s)),
            Some(T::Attr(a)) => Ok(Tag::Attr(a)),
            other => Err(self.err(format!("expected a tag (string or @attr), found {other:?}"))),
        }
    }

    /// Parses the trailing modifiers shared by SFMT-ALL and SFOR.
    fn parse_enum_opts(&mut self, opts: &mut EnumOpts) -> Result<bool> {
        if self.eat_kw("ORDER") {
            self.expect_eq("ORDER")?;
            opts.order = Some(match self.bump() {
                Some(T::Ident(s)) if s.eq_ignore_ascii_case("ascend") => SortOrder::Ascend,
                Some(T::Ident(s)) if s.eq_ignore_ascii_case("descend") => SortOrder::Descend,
                other => {
                    return Err(
                        self.err(format!("ORDER must be ascend or descend, found {other:?}"))
                    )
                }
            });
            return Ok(true);
        }
        if self.eat_kw("KEY") {
            self.expect_eq("KEY")?;
            opts.key = Some(match self.bump() {
                Some(T::Attr(a)) => a,
                other => {
                    return Err(
                        self.err(format!("KEY must be an @attr expression, found {other:?}"))
                    )
                }
            });
            return Ok(true);
        }
        if self.eat_kw("DELIM") {
            self.expect_eq("DELIM")?;
            opts.delim = Some(match self.bump() {
                Some(T::Str(s)) => s,
                other => return Err(self.err(format!("DELIM must be a string, found {other:?}"))),
            });
            return Ok(true);
        }
        if self.eat_kw("LIST") {
            self.expect_eq("LIST")?;
            opts.list = Some(match self.bump() {
                Some(T::Ident(s)) if s.eq_ignore_ascii_case("ul") => ListKind::Ul,
                Some(T::Ident(s)) if s.eq_ignore_ascii_case("ol") => ListKind::Ol,
                other => return Err(self.err(format!("LIST must be ul or ol, found {other:?}"))),
            });
            return Ok(true);
        }
        Ok(false)
    }

    // ---- condition grammar ----

    fn parse_cond(&mut self) -> Result<Cond> {
        let mut lhs = self.parse_and()?;
        while self.eat_kw("OR") {
            let rhs = self.parse_and()?;
            lhs = Cond::Or(Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn parse_and(&mut self) -> Result<Cond> {
        let mut lhs = self.parse_unary()?;
        while self.eat_kw("AND") {
            let rhs = self.parse_unary()?;
            lhs = Cond::And(Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn parse_unary(&mut self) -> Result<Cond> {
        if self.eat_kw("NOT") {
            return Ok(Cond::Not(Box::new(self.parse_unary()?)));
        }
        if matches!(self.peek(), Some(T::LParen)) {
            self.bump();
            let inner = self.parse_cond()?;
            match self.bump() {
                Some(T::RParen) => return Ok(inner),
                other => return Err(self.err(format!("expected `)`, found {other:?}"))),
            }
        }
        let lhs = self.parse_expr()?;
        // `GT`/`LT`/`GE`/`LE` keyword spellings exist because a bare `>`
        // would close the directive tag.
        let op = match self.peek() {
            Some(T::Eq) => Some(Op::Eq),
            Some(T::Ne) => Some(Op::Ne),
            Some(T::Lt) => Some(Op::Lt),
            Some(T::Le) => Some(Op::Le),
            Some(T::Gt) => Some(Op::Gt),
            Some(T::Ge) => Some(Op::Ge),
            Some(T::Ident(s)) if s.eq_ignore_ascii_case("gt") => Some(Op::Gt),
            Some(T::Ident(s)) if s.eq_ignore_ascii_case("ge") => Some(Op::Ge),
            Some(T::Ident(s)) if s.eq_ignore_ascii_case("lt") => Some(Op::Lt),
            Some(T::Ident(s)) if s.eq_ignore_ascii_case("le") => Some(Op::Le),
            _ => None,
        };
        if let Some(op) = op {
            self.bump();
            let rhs = self.parse_expr()?;
            Ok(Cond::Cmp(lhs, op, rhs))
        } else {
            Ok(Cond::Test(lhs))
        }
    }

    fn parse_expr(&mut self) -> Result<Expr> {
        match self.bump() {
            Some(T::Attr(a)) => Ok(Expr::Attr(a)),
            Some(T::Str(s)) => Ok(Expr::Const(Constant::Str(s))),
            Some(T::Int(i)) => Ok(Expr::Const(Constant::Int(i))),
            Some(T::Float(f)) => Ok(Expr::Const(Constant::Float(f))),
            Some(T::Ident(s)) if s.eq_ignore_ascii_case("true") => {
                Ok(Expr::Const(Constant::Bool(true)))
            }
            Some(T::Ident(s)) if s.eq_ignore_ascii_case("false") => {
                Ok(Expr::Const(Constant::Bool(false)))
            }
            Some(T::Ident(s)) if s.eq_ignore_ascii_case("null") => Ok(Expr::Const(Constant::Null)),
            other => Err(self.err(format!("expected an expression, found {other:?}"))),
        }
    }
}

fn parse_fmt(body: &str, line: usize, names: &mut Vec<String>) -> Result<Node> {
    let mut p = Inner {
        toks: lex_inner(body, line, names)?,
        pos: 0,
        line,
    };
    let expr = match p.bump() {
        Some(T::Attr(a)) => a,
        other => {
            return Err(p.err(format!(
                "SFMT needs an @attr expression first, found {other:?}"
            )))
        }
    };
    let mut format = Format::Default;
    let mut all = false;
    let mut opts = EnumOpts::default();
    while p.peek().is_some() {
        if p.eat_kw("EMBED") {
            format = Format::Embed;
        } else if p.eat_kw("LINK") {
            let tag = if matches!(p.peek(), Some(T::Eq)) {
                p.bump();
                Some(p.parse_tag()?)
            } else {
                None
            };
            format = Format::Link(tag);
        } else if p.eat_kw("ALL") {
            all = true;
        } else if p.parse_enum_opts(&mut opts)? {
            // handled
        } else {
            return Err(p.err(format!("unexpected token in SFMT: {:?}", p.peek())));
        }
    }
    Ok(Node::Fmt {
        expr,
        format,
        all,
        opts,
    })
}

fn parse_cond_str(body: &str, line: usize, names: &mut Vec<String>) -> Result<Cond> {
    let mut p = Inner {
        toks: lex_inner(body, line, names)?,
        pos: 0,
        line,
    };
    let cond = p.parse_cond()?;
    if let Some(t) = p.peek() {
        return Err(p.err(format!("trailing token in SIF condition: {t:?}")));
    }
    Ok(cond)
}

fn parse_for_head(
    body: &str,
    line: usize,
    names: &mut Vec<String>,
) -> Result<(Name, AttrExpr, EnumOpts)> {
    let mut p = Inner {
        toks: lex_inner(body, line, names)?,
        pos: 0,
        line,
    };
    let var = match p.bump() {
        Some(T::Ident(v)) => Name::in_table(names, &v),
        other => return Err(p.err(format!("SFOR needs a loop variable, found {other:?}"))),
    };
    if !p.eat_kw("IN") {
        return Err(p.err("SFOR requires `IN` after the loop variable"));
    }
    let expr = match p.bump() {
        Some(T::Attr(a)) => a,
        other => return Err(p.err(format!("SFOR needs an @attr expression, found {other:?}"))),
    };
    let mut opts = EnumOpts::default();
    while p.peek().is_some() {
        if !p.parse_enum_opts(&mut opts)? {
            return Err(p.err(format!("unexpected token in SFOR: {:?}", p.peek())));
        }
    }
    Ok((var, expr, opts))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn texts(expr: &AttrExpr) -> Vec<&str> {
        expr.path.iter().map(|name| name.text.as_str()).collect()
    }

    #[test]
    fn plain_html_passes_through() {
        let t = parse_template("<html><body><h1>Hi & bye</h1></body></html>").unwrap();
        assert_eq!(t.nodes.len(), 1);
        assert!(matches!(&t.nodes[0], Node::Html(h) if h.contains("<h1>")));
        assert_eq!(t.directive_count(), 0);
    }

    #[test]
    fn sfmt_basic_and_modifiers() {
        let t = parse_template(r#"<SFMT @title>"#).unwrap();
        assert!(
            matches!(&t.nodes[0], Node::Fmt { expr, format: Format::Default, all: false, .. }
            if texts(expr) == ["title"])
        );

        let t = parse_template(r#"<SFMT @postscript LINK=@title>"#).unwrap();
        assert!(matches!(
            &t.nodes[0],
            Node::Fmt {
                format: Format::Link(Some(Tag::Attr(_))),
                ..
            }
        ));

        let t = parse_template(r#"<SFMT @Abstract EMBED>"#).unwrap();
        assert!(matches!(
            &t.nodes[0],
            Node::Fmt {
                format: Format::Embed,
                ..
            }
        ));

        let t = parse_template(r#"<SFMT @author ALL DELIM=", ">"#).unwrap();
        assert!(
            matches!(&t.nodes[0], Node::Fmt { all: true, opts, .. } if opts.delim.as_deref() == Some(", "))
        );
    }

    #[test]
    fn attr_paths() {
        let t = parse_template("<SFMT @Paper.Name>").unwrap();
        assert!(matches!(&t.nodes[0], Node::Fmt { expr, .. } if texts(expr) == ["Paper", "Name"]));
    }

    #[test]
    fn sif_with_else() {
        let t =
            parse_template(r#"<SIF @booktitle>In <SFMT @booktitle><SELSE><SFMT @journal></SIF>"#)
                .unwrap();
        match &t.nodes[0] {
            Node::If { cond, then, else_ } => {
                assert!(matches!(cond, Cond::Test(Expr::Attr(_))));
                assert_eq!(then.len(), 2);
                assert_eq!(else_.len(), 1);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn sif_without_else() {
        let t = parse_template(r#"<SIF @year >= 1998>recent</SIF>"#).unwrap();
        match &t.nodes[0] {
            Node::If { cond, then, else_ } => {
                assert!(matches!(cond, Cond::Cmp(_, Op::Ge, _)));
                assert_eq!(then.len(), 1);
                assert!(else_.is_empty());
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn boolean_connectives_and_parens() {
        let t = parse_template(r#"<SIF (@a = 1 OR @b != "x") AND NOT @c>y</SIF>"#).unwrap();
        match &t.nodes[0] {
            Node::If { cond, .. } => {
                assert!(matches!(cond, Cond::And(_, _)), "{cond:?}");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn null_constant() {
        let t = parse_template(r#"<SIF @sponsor = NULL>unsponsored</SIF>"#).unwrap();
        match &t.nodes[0] {
            Node::If {
                cond: Cond::Cmp(_, Op::Eq, Expr::Const(Constant::Null)),
                ..
            } => {}
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn sfor_with_order_key_list() {
        let t = parse_template(
            r#"<SFOR y IN @YearPage ORDER=ascend KEY=@Year LIST=ul><SFMT @y></SFOR>"#,
        )
        .unwrap();
        match &t.nodes[0] {
            Node::For {
                var,
                expr,
                opts,
                body,
            } => {
                assert_eq!(var.text, "y");
                assert_eq!(texts(expr), ["YearPage"]);
                assert_eq!(opts.order, Some(SortOrder::Ascend));
                assert_eq!(texts(opts.key.as_ref().unwrap()), ["Year"]);
                assert_eq!(opts.list, Some(ListKind::Ul));
                assert_eq!(body.len(), 1);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn nested_directives() {
        let t =
            parse_template(r#"<SFOR p IN @Paper><SIF @p.year = 1997><SFMT @p.title></SIF></SFOR>"#)
                .unwrap();
        assert_eq!(t.directive_count(), 3);
    }

    #[test]
    fn case_insensitive_directive_names() {
        let t = parse_template(r#"<sfmt @x><sif @y>z</sif>"#).unwrap();
        assert_eq!(t.directive_count(), 2);
    }

    #[test]
    fn unclosed_directives_error() {
        assert!(parse_template("<SIF @x>never closed").is_err());
        assert!(parse_template("<SFOR a IN @b>never closed").is_err());
        assert!(parse_template("</SIF>").is_err());
        assert!(parse_template("<SELSE>").is_err());
    }

    #[test]
    fn unterminated_tag_errors() {
        assert!(parse_template("<SFMT @title").is_err());
    }

    #[test]
    fn gt_inside_strings_does_not_close_tag() {
        let t = parse_template(r#"<SFMT @x LINK="a > b">"#).unwrap();
        assert!(
            matches!(&t.nodes[0], Node::Fmt { format: Format::Link(Some(Tag::Str(s))), .. } if s == "a > b")
        );
    }

    #[test]
    fn html_tags_that_look_similar_pass_through() {
        // <SFORM> is not <SFOR; <span> is plainly HTML.
        let t = parse_template("<SFORM><span>x</span>").unwrap();
        assert_eq!(t.directive_count(), 0);
    }

    #[test]
    fn error_lines_are_tracked() {
        let err = parse_template("line1\nline2\n<SFMT >").unwrap_err();
        match err {
            TemplateError::Parse { line, .. } => assert_eq!(line, 3),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn fig7_paper_presentation_template_parses() {
        // Reconstruction of the Fig. 7 PaperPresentation template.
        let t = parse_template(
            r#"<SFMT @postscript LINK=@title>. By <SFOR a IN @author DELIM=", "><SFMT @a></SFOR>.
<SIF @booktitle>In <SFMT @booktitle><SELSE><SIF @journal><SFMT @journal> <SFMT @volume></SIF></SIF>, <SFMT @year>.
<SFMT @Abstract LINK="Abstract">"#,
        )
        .unwrap();
        assert!(t.directive_count() >= 8);
    }
}
