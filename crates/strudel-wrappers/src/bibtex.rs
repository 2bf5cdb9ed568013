//! The BibTeX wrapper: "a simple wrapper maps BibTeX files into data
//! graphs" (§5.1). This is the wrapper behind the example home-page site of
//! §3.1 — its output is exactly the shape of Fig. 2.
//!
//! Supported BibTeX subset: `@type{key, field = value, …}` entries with
//! brace- or quote-delimited values (nested braces respected), bare numeric
//! values, `@string` macro definitions with `#` concatenation, and
//! `@comment`/`@preamble` blocks (skipped). Fields named `author` and
//! `editor` split on ` and `; `abstract` and `postscript`/`ps`/`url` fields
//! get file/URL typing by extension.

use std::collections::HashMap;
use strudel_graph::{FileKind, Graph, GraphError, Value};

/// A parsing error with a line number.
fn err(line: usize, message: impl Into<String>) -> GraphError {
    GraphError::DdlParse {
        line,
        message: message.into(),
    }
}

/// One parsed BibTeX entry.
#[derive(Clone, Debug, PartialEq)]
pub struct Entry {
    /// Entry type, lower-cased (`article`, `inproceedings`, …).
    pub entry_type: String,
    /// Citation key.
    pub key: String,
    /// Fields in source order (names lower-cased).
    pub fields: Vec<(String, String)>,
}

struct Scanner<'a> {
    src: &'a str,
    pos: usize,
    line: usize,
    strings: HashMap<String, String>,
}

impl<'a> Scanner<'a> {
    fn peek(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        if b == b'\n' {
            self.line += 1;
        }
        Some(b)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b) if b.is_ascii_whitespace()) {
            self.bump();
        }
    }

    fn ident(&mut self) -> String {
        let start = self.pos;
        while matches!(self.peek(), Some(b) if b.is_ascii_alphanumeric() || b == b'_' || b == b'-' || b == b':' || b == b'.' || b == b'+')
        {
            self.bump();
        }
        self.src[start..self.pos].to_string()
    }

    /// Reads a `{…}` group with balanced nesting, returning the contents.
    fn braced(&mut self) -> Result<String, GraphError> {
        debug_assert_eq!(self.peek(), Some(b'{'));
        self.bump();
        let start = self.pos;
        let mut depth = 1usize;
        while let Some(b) = self.peek() {
            match b {
                b'{' => depth += 1,
                b'}' => {
                    depth -= 1;
                    if depth == 0 {
                        let text = self.src[start..self.pos].to_string();
                        self.bump();
                        return Ok(text);
                    }
                }
                _ => {}
            }
            self.bump();
        }
        Err(err(self.line, "unbalanced braces in BibTeX value"))
    }

    fn quoted(&mut self) -> Result<String, GraphError> {
        debug_assert_eq!(self.peek(), Some(b'"'));
        self.bump();
        let start = self.pos;
        while let Some(b) = self.peek() {
            if b == b'"' {
                let text = self.src[start..self.pos].to_string();
                self.bump();
                return Ok(text);
            }
            self.bump();
        }
        Err(err(self.line, "unterminated quoted BibTeX value"))
    }

    /// Reads one value: braced, quoted, numeric, or a `@string` macro name,
    /// possibly `#`-concatenated.
    fn value(&mut self) -> Result<String, GraphError> {
        let mut parts = Vec::new();
        loop {
            self.skip_ws();
            match self.peek() {
                Some(b'{') => parts.push(self.braced()?),
                Some(b'"') => parts.push(self.quoted()?),
                Some(b) if b.is_ascii_digit() => {
                    let start = self.pos;
                    while matches!(self.peek(), Some(c) if c.is_ascii_digit() || c == b'.') {
                        self.bump();
                    }
                    parts.push(self.src[start..self.pos].to_string());
                }
                Some(b) if b.is_ascii_alphabetic() => {
                    let name = self.ident().to_ascii_lowercase();
                    match self.strings.get(&name) {
                        Some(v) => parts.push(v.clone()),
                        // Unknown macro: keep its name (month abbreviations
                        // like `may` are conventionally predefined).
                        None => parts.push(name),
                    }
                }
                other => {
                    return Err(err(
                        self.line,
                        format!("expected a BibTeX value, found {other:?}"),
                    ))
                }
            }
            self.skip_ws();
            if self.peek() == Some(b'#') {
                self.bump();
            } else {
                return Ok(parts.concat());
            }
        }
    }
}

/// Normalizes whitespace and strips protective braces from a field value.
fn clean(value: &str) -> String {
    let collapsed: String = value.split_whitespace().collect::<Vec<_>>().join(" ");
    collapsed.replace(['{', '}'], "")
}

/// Parses BibTeX text into entries.
pub fn parse(src: &str) -> Result<Vec<Entry>, GraphError> {
    let mut s = Scanner {
        src,
        pos: 0,
        line: 1,
        strings: HashMap::new(),
    };
    let mut entries = Vec::new();
    loop {
        // Skip to the next `@`; everything between entries is a comment.
        while let Some(b) = s.peek() {
            if b == b'@' {
                break;
            }
            s.bump();
        }
        if s.peek().is_none() {
            return Ok(entries);
        }
        s.bump(); // `@`
        let entry_type = s.ident().to_ascii_lowercase();
        s.skip_ws();
        if s.peek() != Some(b'{') && s.peek() != Some(b'(') {
            return Err(err(s.line, format!("expected '{{' after @{entry_type}")));
        }
        match entry_type.as_str() {
            "comment" | "preamble" => {
                s.braced()?;
                continue;
            }
            "string" => {
                s.bump(); // `{`
                s.skip_ws();
                let name = s.ident().to_ascii_lowercase();
                s.skip_ws();
                if s.bump() != Some(b'=') {
                    return Err(err(s.line, "expected `=` in @string"));
                }
                let value = s.value()?;
                s.skip_ws();
                if s.bump() != Some(b'}') {
                    return Err(err(s.line, "expected `}` closing @string"));
                }
                s.strings.insert(name, value);
                continue;
            }
            _ => {}
        }
        s.bump(); // `{`
        s.skip_ws();
        let key = s.ident();
        if key.is_empty() {
            return Err(err(s.line, "missing citation key"));
        }
        s.skip_ws();
        let mut fields = Vec::new();
        loop {
            s.skip_ws();
            match s.peek() {
                Some(b',') => {
                    s.bump();
                }
                Some(b'}') => {
                    s.bump();
                    break;
                }
                None => return Err(err(s.line, "unterminated entry")),
                _ => {
                    let name = s.ident().to_ascii_lowercase();
                    if name.is_empty() {
                        return Err(err(s.line, "expected a field name"));
                    }
                    s.skip_ws();
                    if s.bump() != Some(b'=') {
                        return Err(err(s.line, format!("expected `=` after field {name}")));
                    }
                    let value = s.value()?;
                    fields.push((name, clean(&value)));
                }
            }
        }
        entries.push(Entry {
            entry_type,
            key,
            fields,
        });
    }
}

/// The value typing the wrapper applies, mirroring Fig. 2's collection
/// directives: `abstract` is a text file, `postscript`/`ps` a PostScript
/// file, `url` a URL, `year`/`volume-like` numerics become integers.
fn typed_value(field: &str, value: &str) -> Value {
    match field {
        "abstract" => {
            // Only treat it as a file reference when it looks like a path.
            match FileKind::from_path(value) {
                Some(kind) => Value::file(kind, value),
                None => Value::str(value),
            }
        }
        "postscript" | "ps" => Value::file(FileKind::PostScript, value),
        "url" | "howpublished" if value.starts_with("http") => Value::url(value),
        _ => {
            if let Ok(i) = value.parse::<i64>() {
                return Value::Int(i);
            }
            Value::str(value)
        }
    }
}

/// Loads BibTeX text into `g`: one object per entry, in the
/// `Publications` collection, with a `pub-type` attribute from the entry
/// type and one attribute per field (authors/editors split into
/// multi-valued attributes, preserving order). The graph may share its
/// universe with other sources, so a mediator can warehouse several
/// sources into one.
pub fn load_into(g: &mut Graph, src: &str) -> Result<(), GraphError> {
    let entries = parse(src)?;
    let pubs = g.ensure_collection("Publications");
    for entry in entries {
        let node = g.new_node(Some(&entry.key));
        g.add_to_collection(pubs, Value::Node(node));
        g.add_edge_str(node, "pub-type", Value::str(&entry.entry_type))
            .expect("member");
        for (field, value) in &entry.fields {
            if field == "author" || field == "editor" {
                for person in value.split(" and ") {
                    let person = person.trim();
                    if !person.is_empty() {
                        g.add_edge_str(node, field, Value::str(person))
                            .expect("member");
                    }
                }
            } else {
                g.add_edge_str(node, field, typed_value(field, value))
                    .expect("member");
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn to_graph(src: &str) -> Result<Graph, GraphError> {
        let mut g = Graph::standalone();
        load_into(&mut g, src)?;
        Ok(g)
    }

    const SAMPLE: &str = r#"
% a comment line
@string{toplas = {Transactions on Programming Languages and Systems}}

@article{toplas97,
  title      = {Specifying Representations of Machine Instructions},
  author     = {Norman Ramsey and Mary Fernandez},
  year       = 1997,
  month      = may,
  journal    = toplas,
  volume     = {19 (3)},
  abstract   = {abstracts/toplas97.txt},
  postscript = {papers/toplas97.ps.gz}
}

@inproceedings{icde98,
  title     = "Optimizing Regular Path Expressions",
  author    = "Mary Fernandez and Dan Suciu",
  year      = {1998},
  booktitle = {Proc. of ICDE},
  category  = {Semistructured {Data}}
}
"#;

    #[test]
    fn parses_entries_and_fields() {
        let entries = parse(SAMPLE).unwrap();
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].entry_type, "article");
        assert_eq!(entries[0].key, "toplas97");
        assert_eq!(entries[1].entry_type, "inproceedings");
        let title = &entries[1]
            .fields
            .iter()
            .find(|(f, _)| f == "title")
            .unwrap()
            .1;
        assert_eq!(title, "Optimizing Regular Path Expressions");
    }

    #[test]
    fn string_macros_expand() {
        let entries = parse(SAMPLE).unwrap();
        let journal = &entries[0]
            .fields
            .iter()
            .find(|(f, _)| f == "journal")
            .unwrap()
            .1;
        assert_eq!(journal, "Transactions on Programming Languages and Systems");
    }

    #[test]
    fn unknown_month_macros_keep_their_name() {
        let entries = parse(SAMPLE).unwrap();
        let month = &entries[0]
            .fields
            .iter()
            .find(|(f, _)| f == "month")
            .unwrap()
            .1;
        assert_eq!(month, "may");
    }

    #[test]
    fn nested_braces_are_stripped() {
        let entries = parse(SAMPLE).unwrap();
        let cat = &entries[1]
            .fields
            .iter()
            .find(|(f, _)| f == "category")
            .unwrap()
            .1;
        assert_eq!(cat, "Semistructured Data");
    }

    #[test]
    fn hash_concatenation() {
        let entries = parse(r#"@string{a = {Hello }} @misc{k, note = a # "World"}"#).unwrap();
        assert_eq!(entries[0].fields[0].1, "Hello World");
    }

    #[test]
    fn graph_matches_fig2_shape() {
        let g = to_graph(SAMPLE).unwrap();
        assert_eq!(g.node_count(), 2);
        let pubs = g.collection_str("Publications").unwrap();
        assert_eq!(pubs.len(), 2);
        let n1 = g.nodes()[0];
        let interner = g.universe().interner();
        let r = g.reader();
        // Authors split and ordered.
        let author = interner.get("author").unwrap();
        let authors: Vec<_> = r.attr_values(n1, author).cloned().collect();
        assert_eq!(
            authors,
            vec![Value::str("Norman Ramsey"), Value::str("Mary Fernandez")]
        );
        // Years are integers; files typed by extension.
        assert_eq!(
            r.attr(n1, interner.get("year").unwrap()),
            Some(&Value::Int(1997))
        );
        assert_eq!(
            r.attr(n1, interner.get("postscript").unwrap()),
            Some(&Value::file(FileKind::PostScript, "papers/toplas97.ps.gz"))
        );
        assert_eq!(
            r.attr(n1, interner.get("abstract").unwrap()),
            Some(&Value::file(FileKind::Text, "abstracts/toplas97.txt"))
        );
        assert_eq!(
            r.attr(n1, interner.get("pub-type").unwrap()),
            Some(&Value::str("article"))
        );
    }

    #[test]
    fn irregularity_preserved() {
        let g = to_graph(SAMPLE).unwrap();
        let interner = g.universe().interner();
        let r = g.reader();
        let journal = interner.get("journal").unwrap();
        let booktitle = interner.get("booktitle").unwrap();
        assert!(r.attr(g.nodes()[0], journal).is_some());
        assert!(r.attr(g.nodes()[0], booktitle).is_none());
        assert!(r.attr(g.nodes()[1], journal).is_none());
        assert!(r.attr(g.nodes()[1], booktitle).is_some());
    }

    #[test]
    fn comments_and_preamble_skipped() {
        let entries = parse("@comment{ignore me}\n@preamble{\"also\"}\n@misc{k, a = 1}").unwrap();
        assert_eq!(entries.len(), 1);
    }

    #[test]
    fn errors_on_malformed_input() {
        assert!(parse("@article{key, title = {unbalanced").is_err());
        assert!(parse("@article{key, title {no equals}}").is_err());
        assert!(parse("@article{, a = 1}").is_err());
    }

    #[test]
    fn empty_input_yields_no_entries() {
        assert!(parse("").unwrap().is_empty());
        assert!(parse("just prose, no entries").unwrap().is_empty());
    }
}
