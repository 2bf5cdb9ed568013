//! Fig. 8's two comparison points, as code:
//!
//! * [`procedural`] — the "set of CGI-BIN scripts" a site builder would
//!   write by hand: straight-line Rust that walks the data graph and emits
//!   the news site. Fast, but its "specification" is a program whose size
//!   grows with the site's structure, and every variant is a new program.
//! * [`rdbms_web`] — a generic "Web interface to a database": one index
//!   page per collection and one record page per object. Its specification
//!   is constant, and so is its structure: it *cannot* express the
//!   cross-linked structure STRUDEL's queries define.

use super::fig8;
use std::collections::BTreeMap;
use strudel::graph::{Graph, Oid, Value};
use strudel::template::gen::escape;

/// The size of a baseline's program: the lines [`fig8::lines`] counts in
/// its `pub mod` block of this file.
pub fn program_lines(module: &str) -> usize {
    let src = include_str!("baselines.rs");
    let head = format!("pub mod {module} {{\n");
    let body = src.split_once(&head).expect("baseline module").1;
    fig8::lines(&body[..body.find("\n}\n").expect("module closes")])
}

/// The procedural (CGI-script-style) generator for the news site: the same
/// pages the `synth::news` StruQL definition + templates produce, written
/// as a straight-line program over the data graph. Spec complexity scales
/// with the number of distinct page kinds and link kinds — the paper's
/// point is not that this is slow, but that it is *this program* you must
/// rewrite for every structural change or site variant.
pub mod procedural {
    use super::*;

    /// Generates the full news site: front page, section pages, article
    /// pages, with summaries inlined on section pages.
    pub fn news_site(data: &Graph) -> BTreeMap<String, String> {
        let interner = data.universe().interner();
        let sym = |s: &str| interner.get(s);
        let reader = data.reader();
        let mut pages = BTreeMap::new();

        let articles: Vec<Oid> = data
            .collection_str("Articles")
            .map(|c| c.items().iter().filter_map(Value::as_node).collect())
            .unwrap_or_default();

        let attr_str = |n: Oid, a: &str| -> Option<String> {
            sym(a).and_then(|s| reader.attr(n, s)).map(|v| match v {
                Value::Str(t) => escape(t),
                other => escape(&other.to_string()),
            })
        };
        let attrs = |n: Oid, a: &str| -> Vec<Value> {
            sym(a)
                .map(|s| reader.attr_values(n, s).cloned().collect())
                .unwrap_or_default()
        };

        // Bucket articles by section.
        let mut sections: BTreeMap<String, Vec<Oid>> = BTreeMap::new();
        for &a in &articles {
            for v in attrs(a, "section") {
                if let Some(t) = v.text() {
                    sections.entry(t.to_string()).or_default().push(a);
                }
            }
        }

        let article_file = |a: Oid| format!("article_{}.html", a.0);

        // Article pages.
        for &a in &articles {
            let mut html = String::from("<html><body>");
            if let Some(h) = attr_str(a, "headline") {
                html.push_str(&format!("<h1>{h}</h1>"));
            }
            if let (Some(by), Some(date)) = (attr_str(a, "byline"), attr_str(a, "date")) {
                html.push_str(&format!("<p>By {by} - {date}</p>"));
            }
            for img in attrs(a, "image") {
                if let Some(p) = img.text() {
                    html.push_str(&format!(
                        "<img src=\"{}\" alt=\"{}\">",
                        escape(&p),
                        escape(&p)
                    ));
                }
            }
            if let Some(body) = attrs(a, "body").first().and_then(Value::text) {
                html.push_str(&format!(
                    "<div class=\"body\"><a href=\"{0}\">{0}</a></div>",
                    escape(&body)
                ));
            }
            let related = attrs(a, "related");
            if !related.is_empty() {
                html.push_str("<h2>Related</h2><ul>");
                for r in related {
                    if let Some(t) = r.as_node() {
                        let head = attr_str(t, "headline").unwrap_or_default();
                        html.push_str(&format!(
                            "<li><a href=\"{}\">{head}</a></li>",
                            article_file(t)
                        ));
                    }
                }
                html.push_str("</ul>");
            }
            html.push_str("</body></html>");
            pages.insert(article_file(a), html);
        }

        // Section pages with inlined summaries.
        let summary_of = |a: Oid| -> String {
            let mut s = String::new();
            let head = attr_str(a, "headline").unwrap_or_default();
            s.push_str(&format!(
                "<h3><a href=\"{}\">{head}</a></h3>",
                article_file(a)
            ));
            for img in attrs(a, "image") {
                if let Some(p) = img.text() {
                    s.push_str(&format!(
                        "<img src=\"{}\" alt=\"{}\">",
                        escape(&p),
                        escape(&p)
                    ));
                }
            }
            if let Some(sum) = attr_str(a, "summary") {
                s.push_str(&format!("<p>{sum}</p>"));
            }
            s
        };
        for (name, members) in &sections {
            let mut html = format!("<html><body><h1>{}</h1>", escape(name));
            let mut sorted = members.clone();
            sorted.sort_by_key(|&a| {
                attrs(a, "editorial_rank").first().and_then(|v| match v {
                    Value::Int(i) => Some(*i),
                    _ => None,
                })
            });
            for &a in &sorted {
                html.push_str(&format!("<div class=\"story\">{}</div>", summary_of(a)));
            }
            html.push_str("</body></html>");
            pages.insert(format!("section_{name}.html"), html);
        }

        // Front page.
        let mut front = String::from("<html><body><h1>Newsday</h1>");
        let mut top: Vec<Oid> = articles
            .iter()
            .copied()
            .filter(|&a| {
                attrs(a, "editorial_rank")
                    .first()
                    .is_some_and(|v| matches!(v, Value::Int(i) if *i <= 10))
            })
            .collect();
        top.sort_by_key(|&a| {
            attrs(a, "editorial_rank").first().and_then(|v| match v {
                Value::Int(i) => Some(*i),
                _ => None,
            })
        });
        if !top.is_empty() {
            front.push_str("<h2>Top stories</h2>");
            for a in top {
                front.push_str(&format!("<div class=\"top\">{}</div>", summary_of(a)));
            }
        }
        front.push_str("<h2>Sections</h2><ul>");
        for name in sections.keys() {
            front.push_str(&format!(
                "<li><a href=\"section_{name}.html\">{}</a></li>",
                escape(name)
            ));
        }
        front.push_str("</ul></body></html>");
        pages.insert("front.html".into(), front);
        pages
    }
}

/// The "RDBMS + Web interface" baseline: a generic dump of every collection
/// to an index page and every object to a record page. Constant-size
/// specification, flat structure.
pub mod rdbms_web {
    use super::*;

    /// Generates table/record pages for every collection in the graph.
    pub fn dump_site(data: &Graph) -> BTreeMap<String, String> {
        let reader = data.reader();
        let mut pages = BTreeMap::new();
        let mut index = String::from("<html><body><h1>Database</h1><ul>");
        for &coll in data.collection_names() {
            let name = data.resolve(coll);
            index.push_str(&format!(
                "<li><a href=\"table_{name}.html\">{name}</a></li>"
            ));
            let mut table = format!("<html><body><h1>{name}</h1><ul>");
            for item in data.collection(coll).expect("listed").items() {
                if let Some(n) = item.as_node() {
                    table.push_str(&format!(
                        "<li><a href=\"record_{}.html\">record {}</a></li>",
                        n.0, n.0
                    ));
                    let mut record = format!("<html><body><h1>record {}</h1><table>", n.0);
                    for (label, value) in reader.out(n) {
                        record.push_str(&format!(
                            "<tr><td>{}</td><td>{}</td></tr>",
                            escape(&data.resolve(*label)),
                            escape(&value.to_string())
                        ));
                    }
                    record.push_str("</table></body></html>");
                    pages.insert(format!("record_{}.html", n.0), record);
                }
            }
            table.push_str("</ul></body></html>");
            pages.insert(format!("table_{name}.html"), table);
        }
        index.push_str("</ul></body></html>");
        pages.insert("index.html".into(), index);
        pages
    }
}
