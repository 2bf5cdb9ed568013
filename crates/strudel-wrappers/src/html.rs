//! The HTML wrapper.
//!
//! For the CNN demonstration the authors "did not have access to CNN's
//! databases of articles", so they "mapped their HTML pages into a data
//! graph containing about 300 articles" (§5.1); the AT&T site likewise used
//! hand-written wrappers for existing HTML pages. This wrapper extracts the
//! structure STRUDEL needs from a page: its `<title>`, headings, anchor
//! links, images, and paragraph text.

use strudel_graph::{FileKind, Graph, GraphError, Oid, Value};

/// The structured content extracted from one HTML page.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PageContent {
    /// `<title>` text.
    pub title: Option<String>,
    /// Heading texts (`<h1>`–`<h6>`), in order.
    pub headings: Vec<String>,
    /// `(href, anchor text)` pairs, in order.
    pub links: Vec<(String, String)>,
    /// `src` attributes of `<img>` tags.
    pub images: Vec<String>,
    /// Concatenated visible body text, whitespace-normalized.
    pub text: String,
}

/// A minimal, forgiving HTML scanner: tags are recognized lexically, text
/// is accumulated outside tags, scripts/styles are skipped, entities
/// `&amp; &lt; &gt; &quot; &#NN;` are decoded.
pub fn extract(html: &str) -> PageContent {
    let mut out = PageContent::default();
    let bytes = html.as_bytes();
    let mut i = 0usize;
    let mut text = String::new();
    // The element whose text we are currently capturing specially.
    let mut capture: Option<(&'static str, String)> = None;
    let mut current_href: Option<(String, String)> = None;
    let mut skip_until: Option<&'static str> = None;

    while i < bytes.len() {
        if bytes[i] == b'<' {
            let end = match html[i..].find('>') {
                Some(off) => i + off,
                None => break,
            };
            let tag_body = &html[i + 1..end];
            let (name, attrs) = split_tag(tag_body);
            let lower = name.to_ascii_lowercase();
            let closing = lower.starts_with('/');
            let base = lower.trim_start_matches('/').to_string();
            if let Some(waiting) = skip_until {
                if closing && base == waiting {
                    skip_until = None;
                }
                i = end + 1;
                continue;
            }
            match (closing, base.as_str()) {
                (false, "script") | (false, "style") => {
                    skip_until = Some(if base == "script" { "script" } else { "style" });
                }
                (false, "title") => capture = Some(("title", String::new())),
                (true, "title") => {
                    if let Some((_, t)) = capture.take() {
                        out.title = Some(normalize(&t));
                    }
                }
                (false, "h1" | "h2" | "h3" | "h4" | "h5" | "h6") => {
                    capture = Some(("h", String::new()))
                }
                (true, "h1" | "h2" | "h3" | "h4" | "h5" | "h6") => {
                    if let Some((_, t)) = capture.take() {
                        let t = normalize(&t);
                        if !t.is_empty() {
                            out.headings.push(t);
                        }
                    }
                }
                (false, "a") => {
                    if let Some(href) = attr_value(attrs, "href") {
                        current_href = Some((href, String::new()));
                    }
                }
                (true, "a") => {
                    if let Some((href, t)) = current_href.take() {
                        out.links.push((href, normalize(&t)));
                    }
                }
                (false, "img") => {
                    if let Some(src) = attr_value(attrs, "src") {
                        out.images.push(src);
                    }
                }
                _ => {}
            }
            i = end + 1;
        } else {
            let next_tag = html[i..]
                .find('<')
                .map(|off| i + off)
                .unwrap_or(bytes.len());
            let chunk = decode_entities(&html[i..next_tag]);
            if skip_until.is_none() {
                if let Some((_, buf)) = &mut capture {
                    buf.push_str(&chunk);
                }
                if let Some((_, buf)) = &mut current_href {
                    buf.push_str(&chunk);
                }
                text.push_str(&chunk);
                text.push(' ');
            }
            i = next_tag;
        }
    }
    out.text = normalize(&text);
    out
}

fn split_tag(tag: &str) -> (&str, &str) {
    let tag = tag.trim();
    match tag.find(|c: char| c.is_ascii_whitespace()) {
        Some(i) => (&tag[..i], &tag[i..]),
        None => (tag, ""),
    }
}

fn attr_value(attrs: &str, name: &str) -> Option<String> {
    let lower = attrs.to_ascii_lowercase();
    let pos = lower.find(&format!("{name}="))?;
    let rest = &attrs[pos + name.len() + 1..];
    let rest = rest.trim_start();
    if let Some(stripped) = rest.strip_prefix('"') {
        stripped.find('"').map(|end| stripped[..end].to_string())
    } else if let Some(stripped) = rest.strip_prefix('\'') {
        stripped.find('\'').map(|end| stripped[..end].to_string())
    } else {
        let end = rest
            .find(|c: char| c.is_ascii_whitespace())
            .unwrap_or(rest.len());
        Some(rest[..end].to_string())
    }
}

fn decode_entities(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut rest = s;
    while let Some(pos) = rest.find('&') {
        out.push_str(&rest[..pos]);
        rest = &rest[pos..];
        let semi = rest.find(';');
        match semi {
            Some(end) if end <= 8 => {
                let entity = &rest[1..end];
                match entity {
                    "amp" => out.push('&'),
                    "lt" => out.push('<'),
                    "gt" => out.push('>'),
                    "quot" => out.push('"'),
                    "apos" => out.push('\''),
                    "nbsp" => out.push(' '),
                    _ if entity.starts_with('#') => {
                        let digits = &entity[1..];
                        let code = match digits.strip_prefix(['x', 'X']) {
                            Some(hex) => u32::from_str_radix(hex, 16).ok(),
                            None => digits.parse::<u32>().ok(),
                        };
                        match code.and_then(char::from_u32) {
                            Some(c) => out.push(c),
                            // Lenient fallback: an unparsable or invalid
                            // numeric reference stays literal text rather
                            // than vanishing.
                            None => {
                                out.push('&');
                                out.push_str(entity);
                                out.push(';');
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

fn normalize(s: &str) -> String {
    s.split_whitespace().collect::<Vec<_>>().join(" ")
}

/// Maps a set of `(url, html)` pages into `g`: one object per page in the
/// `Pages` collection, with `url`, `title`, `heading*`, `text`, `image*`
/// attributes and `link` edges — resolved to the target page's *node* when
/// the href names another wrapped page, kept as a URL value otherwise.
pub fn load_into(g: &mut Graph, pages: &[(String, String)]) -> Result<(), GraphError> {
    let coll = g.ensure_collection("Pages");
    let mut nodes: Vec<(String, Oid, PageContent)> = Vec::with_capacity(pages.len());
    for (url, html) in pages {
        let node = g.new_node(Some(url));
        g.add_to_collection(coll, Value::Node(node));
        nodes.push((url.clone(), node, extract(html)));
    }
    let find = |href: &str| nodes.iter().find(|(u, _, _)| u == href).map(|(_, n, _)| *n);
    for (url, node, content) in &nodes {
        g.add_edge_str(*node, "url", Value::url(url))
            .expect("member");
        if let Some(t) = &content.title {
            g.add_edge_str(*node, "title", Value::str(t))
                .expect("member");
        }
        for h in &content.headings {
            g.add_edge_str(*node, "heading", Value::str(h))
                .expect("member");
        }
        if !content.text.is_empty() {
            g.add_edge_str(*node, "text", Value::str(&content.text))
                .expect("member");
        }
        for img in &content.images {
            let kind = FileKind::from_path(img).unwrap_or(FileKind::Image);
            g.add_edge_str(*node, "image", Value::file(kind, img))
                .expect("member");
        }
        for (href, _anchor) in &content.links {
            match find(href) {
                Some(target) => g
                    .add_edge_str(*node, "link", Value::Node(target))
                    .expect("member"),
                None => g
                    .add_edge_str(*node, "link", Value::url(href))
                    .expect("member"),
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn to_graph(pages: &[(String, String)]) -> Result<Graph, GraphError> {
        let mut g = Graph::standalone();
        load_into(&mut g, pages)?;
        Ok(g)
    }

    const PAGE: &str = r#"<html><head><title>Top Story &amp; More</title>
<style>body { color: red }</style></head>
<body><h1>Breaking News</h1>
<p>Something happened &lt;today&gt;.</p>
<a href="story2.html">Related story</a>
<a href="http://elsewhere.example/x">External</a>
<img src="photo.jpg">
<script>ignore(this)</script>
</body></html>"#;

    #[test]
    fn extracts_title_headings_links_images() {
        let c = extract(PAGE);
        assert_eq!(c.title.as_deref(), Some("Top Story & More"));
        assert_eq!(c.headings, vec!["Breaking News"]);
        assert_eq!(c.links.len(), 2);
        assert_eq!(
            c.links[0],
            ("story2.html".to_string(), "Related story".to_string())
        );
        assert_eq!(c.images, vec!["photo.jpg"]);
        assert!(c.text.contains("Something happened <today>."), "{}", c.text);
        assert!(!c.text.contains("ignore"), "script content must be skipped");
        assert!(!c.text.contains("color"), "style content must be skipped");
    }

    #[test]
    fn entity_decoding() {
        assert_eq!(
            decode_entities("a &amp; b &#65; &unknown; &"),
            "a & b A &unknown; &"
        );
    }

    #[test]
    fn hex_and_named_entities_decode() {
        // Hexadecimal character references, both case markers.
        assert_eq!(decode_entities("&#x41;&#X42;&#x6a;"), "ABj");
        // Mixed with decimal and named forms in one run.
        assert_eq!(decode_entities("&apos;&#x27;&#39;"), "'''");
        assert_eq!(decode_entities("caf&#xE9;"), "café");
    }

    #[test]
    fn malformed_numeric_references_stay_literal() {
        // Unparsable digits, out-of-range code points, and surrogates
        // fall back to the literal text instead of disappearing.
        assert_eq!(decode_entities("&#xZZ;"), "&#xZZ;");
        assert_eq!(decode_entities("&#abc;"), "&#abc;");
        assert_eq!(decode_entities("&#xD800;"), "&#xD800;");
        // A lone ampersand before a distant semicolon is untouched.
        assert_eq!(decode_entities("fish & chips; tea"), "fish & chips; tea");
    }

    #[test]
    fn attr_value_quoting_styles() {
        assert_eq!(
            attr_value(r#" href="x.html""#, "href"),
            Some("x.html".into())
        );
        assert_eq!(attr_value(" href='y.html'", "href"), Some("y.html".into()));
        assert_eq!(
            attr_value(" href=z.html class=q", "href"),
            Some("z.html".into())
        );
        assert_eq!(attr_value(" class=q", "href"), None);
    }

    #[test]
    fn graph_resolves_internal_links() {
        let pages = vec![
            (
                "index.html".to_string(),
                PAGE.replace("story2.html", "other.html"),
            ),
            ("other.html".to_string(), "<title>Other</title>".to_string()),
        ];
        let g = to_graph(&pages).unwrap();
        assert_eq!(g.collection_str("Pages").unwrap().len(), 2);
        let interner = g.universe().interner();
        let r = g.reader();
        let index = g.nodes()[0];
        let other = g.nodes()[1];
        let links: Vec<_> = r
            .attr_values(index, interner.get("link").unwrap())
            .cloned()
            .collect();
        assert!(
            links.contains(&Value::Node(other)),
            "internal link resolves to node"
        );
        assert!(
            links
                .iter()
                .any(|v| matches!(v, Value::Url(u) if u.contains("elsewhere"))),
            "external stays URL"
        );
    }

    #[test]
    fn malformed_html_does_not_panic() {
        for bad in ["<", "<a href=", "<h1>unclosed", "&#xZZ;", "<title>t"] {
            let _ = extract(bad);
        }
    }
}
