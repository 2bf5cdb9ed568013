//! The XML wrapper.
//!
//! §2.2: "The XML language (Extended Markup Language) is another possible
//! data exchange language between the wrappers and the mediator layer of
//! Strudel." (The paper predates XML 1.0 by months — the OEM-style mapping
//! below is the one the semistructured-data community converged on.)
//!
//! Mapping: every element becomes a node; a child element `<c>…</c>` of
//! element `e` becomes an edge `e --c--> node(c)`; an attribute `a="v"`
//! becomes an edge `e --a--> "v"`; an element with only text content
//! collapses to an atomic value (typed: integers parse as `Int`, floats as
//! `Float`, `true`/`false` as `Bool`); mixed/supplementary text hangs off a
//! `text` edge. Top-level elements of each tag name are grouped into a
//! collection named after the tag, so `<publication>` elements land in a
//! `publication` collection ready for `WHERE publication(x)`.
//!
//! Supported XML subset: elements, attributes (quoted with `'` or `"`),
//! character data with the five predefined entities plus numeric character
//! references, comments, CDATA sections, processing instructions and
//! DOCTYPE (skipped), and self-closing tags. No namespaces, no DTD
//! expansion — the wrapper's job is structure extraction, not validation.

use strudel_graph::{Graph, GraphError, Oid, Value};

fn err(line: usize, message: impl Into<String>) -> GraphError {
    GraphError::DdlParse {
        line,
        message: message.into(),
    }
}

/// A parsed XML element (the wrapper's intermediate form).
#[derive(Clone, Debug, PartialEq)]
pub struct Element {
    /// Tag name.
    pub name: String,
    /// Attributes in document order.
    pub attributes: Vec<(String, String)>,
    /// Child elements in document order.
    pub children: Vec<Element>,
    /// Concatenated, whitespace-trimmed character data.
    pub text: String,
}

struct Scanner<'a> {
    src: &'a str,
    pos: usize,
    line: usize,
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

    fn starts_with(&self, s: &str) -> bool {
        self.src[self.pos..].starts_with(s)
    }

    fn advance(&mut self, n: usize) {
        for _ in 0..n {
            self.bump();
        }
    }

    /// Skips `<?…?>`, `<!--…-->`, `<!DOCTYPE…>`, returning true if skipped.
    fn skip_misc(&mut self) -> Result<bool, GraphError> {
        if self.starts_with("<?") {
            let line = self.line;
            match self.src[self.pos..].find("?>") {
                Some(off) => self.advance(off + 2),
                None => return Err(err(line, "unterminated processing instruction")),
            }
            return Ok(true);
        }
        if self.starts_with("<!--") {
            let line = self.line;
            match self.src[self.pos..].find("-->") {
                Some(off) => self.advance(off + 3),
                None => return Err(err(line, "unterminated comment")),
            }
            return Ok(true);
        }
        if self.starts_with("<!DOCTYPE") || self.starts_with("<!doctype") {
            // Skip to the matching `>` (no internal-subset brackets support
            // beyond one level).
            let line = self.line;
            let mut depth = 0i32;
            loop {
                match self.bump() {
                    None => return Err(err(line, "unterminated DOCTYPE")),
                    Some(b'[') => depth += 1,
                    Some(b']') => depth -= 1,
                    Some(b'>') if depth <= 0 => return Ok(true),
                    _ => {}
                }
            }
        }
        Ok(false)
    }

    fn name(&mut self) -> Result<String, GraphError> {
        let start = self.pos;
        while matches!(self.peek(), Some(b) if b.is_ascii_alphanumeric() || b == b'_' || b == b'-' || b == b'.' || b == b':')
        {
            self.bump();
        }
        if self.pos == start {
            return Err(err(self.line, "expected a name"));
        }
        Ok(self.src[start..self.pos].to_string())
    }

    fn attribute_value(&mut self) -> Result<String, GraphError> {
        let quote = match self.bump() {
            Some(q @ (b'"' | b'\'')) => q,
            other => {
                return Err(err(
                    self.line,
                    format!("expected a quoted attribute value, found {other:?}"),
                ))
            }
        };
        let start = self.pos;
        while let Some(b) = self.peek() {
            if b == quote {
                let raw = &self.src[start..self.pos];
                self.bump();
                return Ok(decode_entities(raw));
            }
            self.bump();
        }
        Err(err(self.line, "unterminated attribute value"))
    }

    fn element(&mut self) -> Result<Element, GraphError> {
        debug_assert_eq!(self.peek(), Some(b'<'));
        self.bump();
        let name = self.name()?;
        let mut attributes = Vec::new();
        loop {
            self.skip_ws();
            match self.peek() {
                Some(b'>') => {
                    self.bump();
                    break;
                }
                Some(b'/') => {
                    self.bump();
                    if self.bump() != Some(b'>') {
                        return Err(err(self.line, "expected `>` after `/`"));
                    }
                    return Ok(Element {
                        name,
                        attributes,
                        children: Vec::new(),
                        text: String::new(),
                    });
                }
                Some(_) => {
                    let attr = self.name()?;
                    self.skip_ws();
                    if self.bump() != Some(b'=') {
                        return Err(err(
                            self.line,
                            format!("expected `=` after attribute {attr}"),
                        ));
                    }
                    self.skip_ws();
                    let value = self.attribute_value()?;
                    attributes.push((attr, value));
                }
                None => return Err(err(self.line, format!("unterminated start tag <{name}"))),
            }
        }

        // Content until `</name>`.
        let mut children = Vec::new();
        let mut text = String::new();
        loop {
            if self.peek().is_none() {
                return Err(err(self.line, format!("missing closing tag </{name}>")));
            }
            if self.starts_with("</") {
                self.advance(2);
                let close = self.name()?;
                self.skip_ws();
                if self.bump() != Some(b'>') {
                    return Err(err(self.line, "expected `>` in closing tag"));
                }
                if close != name {
                    return Err(err(
                        self.line,
                        format!("mismatched closing tag: <{name}> closed by </{close}>"),
                    ));
                }
                let text = text.split_whitespace().collect::<Vec<_>>().join(" ");
                return Ok(Element {
                    name,
                    attributes,
                    children,
                    text,
                });
            }
            if self.starts_with("<![CDATA[") {
                self.advance(9);
                let line = self.line;
                match self.src[self.pos..].find("]]>") {
                    Some(off) => {
                        text.push_str(&self.src[self.pos..self.pos + off]);
                        text.push(' ');
                        self.advance(off + 3);
                    }
                    None => return Err(err(line, "unterminated CDATA section")),
                }
                continue;
            }
            if self.skip_misc()? {
                continue;
            }
            if self.peek() == Some(b'<') {
                children.push(self.element()?);
                continue;
            }
            // Character data up to the next `<`.
            let start = self.pos;
            while self.peek().is_some() && self.peek() != Some(b'<') {
                self.bump();
            }
            text.push_str(&decode_entities(&self.src[start..self.pos]));
            text.push(' ');
        }
    }
}

/// Decodes the predefined entities and numeric character references.
fn decode_entities(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut rest = s;
    while let Some(pos) = rest.find('&') {
        out.push_str(&rest[..pos]);
        rest = &rest[pos..];
        match rest.find(';') {
            Some(end) if end <= 10 => {
                let entity = &rest[1..end];
                match entity {
                    "amp" => out.push('&'),
                    "lt" => out.push('<'),
                    "gt" => out.push('>'),
                    "quot" => out.push('"'),
                    "apos" => out.push('\''),
                    _ if entity.starts_with("#x") || entity.starts_with("#X") => {
                        if let Ok(code) = u32::from_str_radix(&entity[2..], 16) {
                            if let Some(c) = char::from_u32(code) {
                                out.push(c);
                            }
                        }
                    }
                    _ if entity.starts_with('#') => {
                        if let Ok(code) = entity[1..].parse::<u32>() {
                            if let Some(c) = char::from_u32(code) {
                                out.push(c);
                            }
                        }
                    }
                    _ => {
                        out.push('&');
                        out.push_str(entity);
                        out.push(';');
                    }
                }
                rest = &rest[end + 1..];
            }
            _ => {
                out.push('&');
                rest = &rest[1..];
            }
        }
    }
    out.push_str(rest);
    out
}

/// Parses an XML document into its root elements (a fragment may have
/// several).
pub fn parse(src: &str) -> Result<Vec<Element>, GraphError> {
    let mut s = Scanner {
        src,
        pos: 0,
        line: 1,
    };
    let mut roots = Vec::new();
    loop {
        s.skip_ws();
        if s.peek().is_none() {
            return Ok(roots);
        }
        if s.skip_misc()? {
            continue;
        }
        if s.peek() == Some(b'<') {
            roots.push(s.element()?);
        } else {
            return Err(err(s.line, "unexpected character data outside any element"));
        }
    }
}

/// Types a text value the way the DDL does: integers, floats, booleans,
/// else string.
fn typed_text(s: &str) -> Value {
    if let Ok(i) = s.parse::<i64>() {
        return Value::Int(i);
    }
    if let Ok(f) = s.parse::<f64>() {
        return Value::Float(f);
    }
    match s {
        "true" => Value::Bool(true),
        "false" => Value::Bool(false),
        _ => Value::str(s),
    }
}

fn build(g: &mut Graph, element: &Element) -> Oid {
    let node = g.new_node(Some(&element.name));
    for (attr, value) in &element.attributes {
        g.add_edge_str(node, attr, typed_text(value))
            .expect("member");
    }
    for child in &element.children {
        // Text-only leaf children collapse to atomic values, the OEM idiom:
        // <year>1997</year> becomes an Int edge, not a node.
        if child.children.is_empty() && child.attributes.is_empty() {
            g.add_edge_str(node, &child.name, typed_text(&child.text))
                .expect("member");
        } else {
            let child_node = build(g, child);
            g.add_edge_str(node, &child.name, Value::Node(child_node))
                .expect("member");
        }
    }
    if !element.text.is_empty() && !element.children.is_empty() {
        g.add_edge_str(node, "text", Value::str(&element.text))
            .expect("member");
    }
    node
}

/// Maps XML text into an existing graph. Children of each root element
/// join a collection named after their tag (so a `<bibliography>` of
/// `<publication>` children yields a `publication` collection); the roots
/// themselves join a collection named after the root tag.
pub fn load_into(g: &mut Graph, src: &str) -> Result<(), GraphError> {
    let roots = parse(src)?;
    for root in &roots {
        let root_node = build(g, root);
        g.add_to_collection_str(&root.name, Value::Node(root_node));
        // Group the root's element children by tag, mirroring how OEM
        // exposes entry points.
        let reader_pairs: Vec<(String, Value)> = {
            let reader = g.reader();
            reader
                .out(root_node)
                .iter()
                .map(|(l, v)| (g.resolve(*l).to_string(), v.clone()))
                .collect()
        };
        for (label, value) in reader_pairs {
            if value.is_node() {
                g.add_to_collection_str(&label, value);
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

    const SAMPLE: &str = r#"<?xml version="1.0"?>
<!DOCTYPE bibliography [ <!ELEMENT publication ANY> ]>
<!-- the example bibliography -->
<bibliography>
  <publication id="pub1" type="article">
    <title>Specifying &amp; Verifying</title>
    <author>Norman Ramsey</author>
    <author>Mary Fernandez</author>
    <year>1997</year>
    <score>4.5</score>
    <open>true</open>
    <venue kind="journal"><name>TOPLAS</name><volume>19</volume></venue>
  </publication>
  <publication id="pub2">
    <title><![CDATA[Optimizing <Regular> Paths]]></title>
    <year>1998</year>
  </publication>
</bibliography>"#;

    #[test]
    fn parses_structure() {
        let roots = parse(SAMPLE).unwrap();
        assert_eq!(roots.len(), 1);
        let bib = &roots[0];
        assert_eq!(bib.name, "bibliography");
        assert_eq!(bib.children.len(), 2);
        let p1 = &bib.children[0];
        assert_eq!(
            p1.attributes,
            vec![
                ("id".to_string(), "pub1".to_string()),
                ("type".to_string(), "article".to_string())
            ]
        );
        assert_eq!(p1.children.len(), 7);
    }

    #[test]
    fn entities_and_cdata() {
        let roots = parse(SAMPLE).unwrap();
        let bib = &roots[0];
        assert_eq!(bib.children[0].children[0].text, "Specifying & Verifying");
        assert_eq!(
            bib.children[1].children[0].text,
            "Optimizing <Regular> Paths"
        );
    }

    #[test]
    fn numeric_character_references() {
        let roots = parse("<a>caf&#233; &#x41;</a>").unwrap();
        assert_eq!(roots[0].text, "café A");
    }

    #[test]
    fn graph_mapping_types_leaves() {
        let g = to_graph(SAMPLE).unwrap();
        let pubs = g.collection_str("publication").unwrap();
        assert_eq!(pubs.len(), 2);
        let p1 = pubs.items()[0].as_node().unwrap();
        let interner = g.universe().interner();
        let r = g.reader();
        assert_eq!(
            r.attr(p1, interner.get("year").unwrap()),
            Some(&Value::Int(1997))
        );
        assert_eq!(
            r.attr(p1, interner.get("score").unwrap()),
            Some(&Value::Float(4.5))
        );
        assert_eq!(
            r.attr(p1, interner.get("open").unwrap()),
            Some(&Value::Bool(true))
        );
        assert_eq!(
            r.attr(p1, interner.get("id").unwrap()),
            Some(&Value::str("pub1"))
        );
        // Multi-valued children preserve order.
        let authors: Vec<_> = r
            .attr_values(p1, interner.get("author").unwrap())
            .cloned()
            .collect();
        assert_eq!(
            authors,
            vec![Value::str("Norman Ramsey"), Value::str("Mary Fernandez")]
        );
        // Structured children become nodes.
        let venue = r
            .attr(p1, interner.get("venue").unwrap())
            .unwrap()
            .as_node()
            .unwrap();
        assert_eq!(
            r.attr(venue, interner.get("name").unwrap()),
            Some(&Value::str("TOPLAS"))
        );
        assert_eq!(
            r.attr(venue, interner.get("kind").unwrap()),
            Some(&Value::str("journal"))
        );
    }

    #[test]
    fn self_closing_and_fragments() {
        let g = to_graph("<r><leaf/><leaf/></r><r><leaf/></r>").unwrap();
        assert_eq!(g.collection_str("r").unwrap().len(), 2);
    }

    #[test]
    fn queries_run_over_wrapped_xml() {
        use strudel_struql::{parse_query, EvalOptions};
        let g = to_graph(SAMPLE).unwrap();
        let q = parse_query(
            r#"WHERE publication(x), x -> "year" -> y, y >= 1998
               COLLECT Recent(x)"#,
        )
        .unwrap();
        let out = q.evaluate(&g, &EvalOptions::default()).unwrap();
        assert_eq!(out.graph.collection_str("Recent").unwrap().len(), 1);
    }

    #[test]
    fn malformed_xml_errors() {
        assert!(parse("<a><b></a>").is_err(), "mismatched tags");
        assert!(parse("<a").is_err(), "unterminated tag");
        assert!(parse("<a attr=oops></a>").is_err(), "unquoted attribute");
        assert!(parse("stray text").is_err());
        assert!(parse("<a><!-- unterminated </a>").is_err());
    }

    #[test]
    fn mixed_content_keeps_text_edge() {
        let g = to_graph("<p>hello <b>bold</b> world</p>").unwrap();
        let p = g.nodes()[0];
        let interner = g.universe().interner();
        let r = g.reader();
        let text = r.attr(p, interner.get("text").unwrap()).unwrap();
        assert_eq!(text, &Value::str("hello world"));
        assert_eq!(
            r.attr(p, interner.get("b").unwrap()),
            Some(&Value::str("bold"))
        );
    }
}
