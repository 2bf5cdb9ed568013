//! URL scheme for click-time pages, and the HTML the server renders.
//!
//! `/` lists the precomputed roots; `/page/<Skolem>/<arg>…` shows one
//! logical page, with the Skolem name percent-encoded and the arguments
//! encoded by [`encode_value`] (`n<oid>` for nodes, `i<int>`,
//! `s<urlencoded-string>`, …).
//!
//! Every encoder appends to a caller's buffer (`*_into`), so a page is
//! rendered into one `String`; the `String`-returning forms wrap them.

use std::fmt::Write;
use strudel_graph::{FileKind, Oid, Value};
use strudel_site::{OutLink, PageRef, Target};

/// Encodes a page reference as a URL path.
pub fn page_url(p: &PageRef) -> String {
    let mut url = String::new();
    page_url_into(&mut url, p);
    url
}

fn page_url_into(out: &mut String, p: &PageRef) {
    out.push_str("/page/");
    urlencode_into(out, &p.skolem);
    for a in &p.args {
        out.push('/');
        encode_value_into(out, a);
    }
}

/// Parses a `/page/…` URL path back to a page reference (the inverse of
/// [`page_url`]). Returns `None` for anything malformed.
pub fn parse_page_url(path: &str) -> Option<PageRef> {
    let rest = path.strip_prefix("/page/")?;
    let mut parts = rest.split('/');
    let skolem = urldecode(parts.next()?)?;
    if skolem.is_empty() {
        return None;
    }
    let args: Option<Vec<Value>> = parts.map(decode_value).collect();
    Some(PageRef {
        skolem,
        args: args?,
    })
}

/// Encodes one value as a URL path segment.
pub fn encode_value(v: &Value) -> String {
    let mut out = String::new();
    encode_value_into(&mut out, v);
    out
}

fn encode_value_into(out: &mut String, v: &Value) {
    let (tag, text) = match v {
        Value::Node(n) => return write_into(out, format_args!("n{}", n.0)),
        Value::Int(i) => return write_into(out, format_args!("i{i}")),
        Value::Bool(b) => return write_into(out, format_args!("b{b}")),
        Value::Float(f) => return write_into(out, format_args!("f{f}")),
        Value::Str(s) => ('s', s),
        Value::Url(s) => ('u', s),
        Value::File(k, s) => {
            out.push('F');
            out.push_str(k.keyword());
            ('~', s)
        }
    };
    out.push(tag);
    urlencode_into(out, text);
}

fn write_into(out: &mut impl Write, args: std::fmt::Arguments<'_>) {
    out.write_fmt(args)
        .expect("writing to a String cannot fail");
}

/// Decodes a path segment back to a value.
pub fn decode_value(s: &str) -> Option<Value> {
    if s.is_empty() {
        return None;
    }
    let (tag, rest) = s.split_at(1);
    Some(match tag {
        "n" => Value::Node(Oid(rest.parse().ok()?)),
        "i" => Value::Int(rest.parse().ok()?),
        "b" => Value::Bool(rest.parse().ok()?),
        "f" => Value::Float(rest.parse().ok()?),
        "s" => Value::str(urldecode(rest)?),
        "u" => Value::url(urldecode(rest)?),
        "F" => {
            let (kind, path) = rest.split_once('~')?;
            Value::file(FileKind::from_keyword(kind)?, &urldecode(path)?)
        }
        _ => return None,
    })
}

fn urlencode_into(out: &mut String, s: &str) {
    const HEX: &[u8; 16] = b"0123456789ABCDEF";
    for b in s.bytes() {
        match b {
            b'a'..=b'z' | b'A'..=b'Z' | b'0'..=b'9' | b'-' | b'_' | b'.' => out.push(b as char),
            _ => {
                out.push('%');
                out.push(HEX[(b >> 4) as usize] as char);
                out.push(HEX[(b & 15) as usize] as char);
            }
        }
    }
}

pub(crate) fn urldecode(s: &str) -> Option<String> {
    let mut out = Vec::new();
    let bytes = s.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'%' {
            let hex = s.get(i + 1..i + 3)?;
            out.push(u8::from_str_radix(hex, 16).ok()?);
            i += 3;
        } else {
            out.push(bytes[i]);
            i += 1;
        }
    }
    String::from_utf8(out).ok()
}

/// HTML-escapes text, including the quote characters so escaped text is
/// safe inside attribute values too.
pub(crate) fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    escape_into(&mut out, s);
    out
}

fn escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            '\'' => out.push_str("&#39;"),
            c => out.push(c),
        }
    }
}

/// HTML-escapes whatever is formatted into it, so a `Display` value goes
/// into the page without a `String` of its own.
struct Escaped<'a>(&'a mut String);

impl Write for Escaped<'_> {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        escape_into(self.0, s);
        Ok(())
    }
}

/// Appends the page that lists `links` under `title` to `html`. A row is
/// about 90 bytes of markup around a short label and target; the caller
/// that knows the link count reserves for it.
pub(crate) fn render_links<'a>(
    html: &mut String,
    title: std::fmt::Arguments<'_>,
    links: impl Iterator<Item = &'a OutLink>,
) {
    html.push_str("<html><body><h1>");
    write_into(&mut Escaped(html), title);
    html.push_str("</h1><table>");
    for l in links {
        html.push_str("<tr><td><b>");
        escape_into(html, &l.label);
        html.push_str("</b></td><td>");
        match &l.target {
            Target::Page(p) => {
                html.push_str("<a href=\"");
                page_url_into(html, p);
                html.push_str("\">");
                write_into(&mut Escaped(html), format_args!("{p}"));
                html.push_str("</a>");
            }
            Target::Value(v) => write_into(&mut Escaped(html), format_args!("{v}")),
        }
        html.push_str("</td></tr>");
    }
    html.push_str("</table><p><a href=\"/\">roots</a></p></body></html>");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_encoding_roundtrips() {
        for v in [
            Value::Node(Oid(42)),
            Value::Int(-7),
            Value::Bool(true),
            Value::Float(2.5),
            Value::str("hello world & more"),
            Value::url("http://x/y?z=1"),
            Value::file(FileKind::PostScript, "papers/a b.ps"),
        ] {
            let encoded = encode_value(&v);
            assert_eq!(decode_value(&encoded), Some(v.clone()), "{encoded}");
        }
        assert_eq!(decode_value(""), None);
        assert_eq!(decode_value("zzz"), None);
        assert_eq!(decode_value("n-not-a-number"), None);
    }

    #[test]
    fn page_urls_are_parseable_paths() {
        let p = PageRef {
            skolem: "YearPage".into(),
            args: vec![Value::Int(1997)],
        };
        assert_eq!(page_url(&p), "/page/YearPage/i1997");
        assert_eq!(parse_page_url("/page/YearPage/i1997"), Some(p));
    }

    #[test]
    fn page_urls_percent_encode_the_skolem_segment() {
        // Skolem names normally look like identifiers, but nothing in the
        // query language forbids exotic ones; the URL must not break.
        for skolem in ["Year Page", "A/B", "naïve", "q?a=1&b=2", "x\"y'"] {
            let p = PageRef {
                skolem: skolem.to_string(),
                args: vec![Value::Int(3), Value::str("a b/c%d")],
            };
            let url = page_url(&p);
            let tail = &url["/page/".len()..];
            let encoded_skolem = tail.split('/').next().unwrap();
            assert!(
                encoded_skolem
                    .bytes()
                    .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'-' | b'_' | b'.' | b'%')),
                "unencoded byte in {url}"
            );
            assert_eq!(parse_page_url(&url), Some(p), "{url}");
        }
        assert_eq!(parse_page_url("/page/"), None);
        assert_eq!(parse_page_url("/page/%zz"), None);
        assert_eq!(parse_page_url("/elsewhere"), None);
    }

    /// One link per value kind, as a value and as a page argument, with a
    /// label, a Skolem name and a string argument that need escaping.
    fn golden_links() -> Vec<OutLink> {
        let values = [
            ("node", Value::Node(Oid(7))),
            ("int", Value::Int(-3)),
            ("float", Value::Float(2.5)),
            ("bool", Value::Bool(true)),
            ("string", Value::str("x\"y'<&>")),
            ("url", Value::url("http://x/?a=1&b=2")),
            ("file", Value::file(FileKind::PostScript, "p/a b.ps")),
        ];
        let mut links: Vec<OutLink> = values
            .iter()
            .map(|(label, v)| OutLink {
                label: label.to_string(),
                target: Target::Value(v.clone()),
            })
            .collect();
        let mut args: Vec<Value> = values.iter().map(|(_, v)| v.clone()).collect();
        args.push(Value::str("a b/c%d"));
        links.push(OutLink {
            label: "x\"y'<&>".into(),
            target: Target::Page(PageRef {
                skolem: "a b/c%d".into(),
                args,
            }),
        });
        links
    }

    #[test]
    fn rendered_page_bytes_are_pinned() {
        let (mut html, title) = (String::new(), format_args!("T <1> & \"2\""));
        render_links(&mut html, title, golden_links().iter());
        assert_eq!(html, GOLDEN_PAGE);
    }

    #[test]
    fn page_url_is_what_the_page_links_to() {
        let links = golden_links();
        let Target::Page(p) = &links.last().unwrap().target else {
            panic!("last golden link is a page link");
        };
        let mut html = String::new();
        render_links(&mut html, format_args!("t"), links.iter());
        let href = html.split("<a href=\"").nth(1).unwrap();
        let href = &href[..href.find('"').unwrap()];
        assert_eq!(href, page_url(p));
        assert_eq!(parse_page_url(href).as_ref(), Some(p));
    }

    /// Recorded from the `format!`-per-link renderer this one replaced.
    const GOLDEN_PAGE: &str = concat!(
        r#"<html><body><h1>T &lt;1&gt; &amp; &quot;2&quot;</h1><table>"#,
        r#"<tr><td><b>node</b></td><td>&amp;7</td></tr>"#,
        r#"<tr><td><b>int</b></td><td>-3</td></tr>"#,
        r#"<tr><td><b>float</b></td><td>2.5</td></tr>"#,
        r#"<tr><td><b>bool</b></td><td>true</td></tr>"#,
        r#"<tr><td><b>string</b></td><td>&quot;x\&quot;y&#39;&lt;&amp;&gt;&quot;</td></tr>"#,
        r#"<tr><td><b>url</b></td><td>url(http://x/?a=1&amp;b=2)</td></tr>"#,
        r#"<tr><td><b>file</b></td><td>ps(p/a b.ps)</td></tr>"#,
        r#"<tr><td><b>x&quot;y&#39;&lt;&amp;&gt;</b></td><td>"#,
        r#"<a href="/page/a%20b%2Fc%25d/n7/i-3/f2.5/btrue/sx%22y%27%3C%26%3E"#,
        r#"/uhttp%3A%2F%2Fx%2F%3Fa%3D1%26b%3D2/Fps~p%2Fa%20b.ps/sa%20b%2Fc%25d">"#,
        r#"a b/c%d(&amp;7,-3,2.5,true,&quot;x\&quot;y&#39;&lt;&amp;&gt;&quot;,"#,
        r#"url(http://x/?a=1&amp;b=2),ps(p/a b.ps),&quot;a b/c%d&quot;)</a></td></tr>"#,
        r#"</table><p><a href="/">roots</a></p></body></html>"#,
    );

    #[test]
    fn escape_covers_quotes() {
        assert_eq!(
            escape(r#"<a href="x">&'quoted'</a>"#),
            "&lt;a href=&quot;x&quot;&gt;&amp;&#39;quoted&#39;&lt;/a&gt;"
        );
    }
}
