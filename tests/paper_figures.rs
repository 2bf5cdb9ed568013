//! Cross-crate reproduction of the paper's figures: Fig. 2 (data graph),
//! Fig. 3 (site-definition query), Fig. 4 (site graph), Fig. 5 (site
//! schema), Fig. 7 (templates → HTML pages) — the full §3.1 example run
//! end to end — and the shapes of the §5 evaluation as exact counts: the
//! Fig. 8 sweep against its two baselines, and §5.1's external site
//! version.

mod support;

use std::collections::{BTreeMap, HashMap};
use strudel::graph::{ddl, Graph, Value};
use strudel::site::SiteSchema;
use strudel::struql::{parse_query, EvalOptions, PredicateRegistry, SiteProgram};
use strudel::synth::{bib, bilingual, news, org};
use strudel::template::{Generator, TemplateSet};
use support::baselines::{procedural, program_lines, rdbms_web};
use support::{fig8, site_graph_digest};

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

const FIG3: &str = r#"
INPUT BIBTEX
CREATE RootPage(), AbstractsPage()
LINK RootPage() -> "AbstractsPage" -> AbstractsPage()
{
  WHERE Publications(x), x -> l -> v
  CREATE PaperPresentation(x), AbstractPage(x)
  LINK AbstractPage(x) -> l -> v,
       PaperPresentation(x) -> l -> v,
       PaperPresentation(x) -> "Abstract" -> AbstractPage(x),
       AbstractsPage() -> "Abstract" -> AbstractPage(x)
  {
    WHERE l = "year"
    CREATE YearPage(v)
    LINK YearPage(v) -> "Year" -> v,
         YearPage(v) -> "Paper" -> PaperPresentation(x),
         RootPage() -> "YearPage" -> YearPage(v)
  }
  {
    WHERE l = "category"
    CREATE CategoryPage(v)
    LINK CategoryPage(v) -> "Name" -> v,
         CategoryPage(v) -> "Paper" -> PaperPresentation(x),
         RootPage() -> "CategoryPage" -> CategoryPage(v)
  }
}
OUTPUT HomePage
"#;

/// Fig. 7's templates (reconstructed concrete syntax).
fn fig7_templates() -> TemplateSet {
    let mut t = TemplateSet::new();
    t.set_collection_template(
        "RootPage",
        r#"<html><body>
<h2>Publications by Year</h2>
<SFOR y IN @YearPage ORDER=ascend KEY=@Year LIST=ul><SFMT @y LINK=@y.Year></SFOR>
<h2>Publications by Topic</h2>
<SFOR c IN @CategoryPage ORDER=ascend KEY=@Name LIST=ul><SFMT @c LINK=@c.Name></SFOR>
<p><SFMT @AbstractsPage LINK="Paper Abstracts"></p>
</body></html>"#,
    )
    .unwrap();
    t.set_collection_template(
        "AbstractsPage",
        r#"<html><body><h1>Paper Abstracts</h1>
<SFOR a IN @Abstract><SFMT @a EMBED></SFOR>
</body></html>"#,
    )
    .unwrap();
    t.set_collection_template(
        "YearPage",
        r#"<html><body><h1>Publications from <SFMT @Year></h1>
<SFOR p IN @Paper LIST=ul><SFMT @p EMBED></SFOR>
</body></html>"#,
    )
    .unwrap();
    t.set_collection_template(
        "CategoryPage",
        r#"<html><body><h1>Publications on <SFMT @Name></h1>
<SFOR p IN @Paper LIST=ul><SFMT @p EMBED></SFOR>
</body></html>"#,
    )
    .unwrap();
    t.set_collection_template(
        "PaperPresentation",
        r#"<SFMT @postscript LINK=@title>. By <SFMT @author ALL DELIM=", ">,
<SIF @booktitle><SFMT @booktitle><SELSE><SFMT @journal></SIF>, <SFMT @year>."#,
    )
    .unwrap();
    t.set_collection_template(
        "AbstractPage",
        r#"<h2><SFMT @title></h2><p>By <SFMT @author ALL DELIM=", ">, <SFMT @year>.</p>
<SIF @abstract><SFMT @abstract></SIF>"#,
    )
    .unwrap();
    t
}

#[test]
fn fig2_data_graph_shape() {
    let g = ddl::parse(FIG2).unwrap();
    assert_eq!(g.node_count(), 2);
    assert_eq!(g.collection_str("Publications").unwrap().len(), 2);
    // pub1: 12 attribute edges; pub2: 10.
    assert_eq!(g.out_edges(g.nodes()[0]).len(), 12);
    assert_eq!(g.out_edges(g.nodes()[1]).len(), 10);
}

#[test]
fn fig3_fig4_site_graph() {
    let data = ddl::parse(FIG2).unwrap();
    let q = parse_query(FIG3).unwrap();
    let out = q.evaluate(&data, &EvalOptions::default()).unwrap();
    // Page census: 1 root, 1 abstracts, 2 presentations, 2 abstract pages,
    // 2 year pages, 3 category pages = 11 Skolem nodes.
    assert_eq!(out.table.len(), 11);
    // Fig. 4's spine: RootPage → YearPage(1997) → Paper → title.
    let root = out.table.lookup("RootPage", &[]).unwrap();
    let y1997 = out.table.lookup("YearPage", &[Value::Int(1997)]).unwrap();
    let reader = out.graph.reader();
    let year_links: Vec<&Value> = reader
        .out(root)
        .iter()
        .filter(|(l, _)| &*out.graph.resolve(*l) == "YearPage")
        .map(|(_, v)| v)
        .collect();
    assert!(year_links.contains(&&Value::Node(y1997)));
    let papers: Vec<&Value> = reader
        .out(y1997)
        .iter()
        .filter(|(l, _)| &*out.graph.resolve(*l) == "Paper")
        .map(|(_, v)| v)
        .collect();
    assert_eq!(papers.len(), 1);
}

/// §2.4's optimizer picks a physical plan per block; what the plan then did
/// is its trace. Under a root span every executed operator records exactly
/// one `eval.op` span — as many as the evaluator counts in
/// `conditions_applied` — with its operator, condition and estimated vs.
/// observed rows, as a child of the `eval.block` span that ran it.
#[test]
fn every_executed_operator_has_one_eval_op_span() {
    use strudel::obs::trace::{self, SpanRecord};
    let fig3 = (ddl::parse(FIG2).unwrap(), parse_query(FIG3).unwrap());
    let news_site = (news_data(300), parse_query(news::SITE_QUERY).unwrap());
    for (data, query) in [fig3, news_site] {
        let recorder = trace::Recorder::new(trace::TraceConfig::default());
        let root = recorder.begin_request("test.eval");
        let entered = trace::enter(&root.ctx());
        let out = query.evaluate(&data, &EvalOptions::default()).unwrap();
        drop(entered);
        let recorded = root.finish().spans as usize;
        let spans: Vec<SpanRecord> = recorder.snapshot_spans();
        assert_eq!(spans.len(), recorded, "the ring wrapped");
        let ops: Vec<&SpanRecord> = spans.iter().filter(|s| s.name == "eval.op").collect();
        assert!(!ops.is_empty());
        assert_eq!(ops.len() as u64, out.stats.conditions_applied);
        for op in ops {
            let keys: Vec<&str> = op.attrs.iter().map(|(k, _)| k.as_str()).collect();
            for key in ["op", "cond", "rows_in", "est_rows", "obs_rows"] {
                assert!(keys.contains(&key), "no {key} on {op:?}");
            }
            let parent = spans.iter().find(|s| s.span_id == op.parent_id);
            assert_eq!(parent.map(|p| p.name.as_str()), Some("eval.block"));
        }
    }
}

#[test]
fn fig5_site_schema() {
    let schema = schema_of(FIG3);
    // Fig. 5: RootPage, AbstractsPage, YearPage, CategoryPage, AbstractPage,
    // PaperPresentation (+ N_S).
    assert_eq!(schema.nodes().len(), 7);
    let year = schema.node_index("YearPage").unwrap();
    let pp = schema.node_index("PaperPresentation").unwrap();
    let edge = schema
        .edges()
        .iter()
        .find(|e| e.from == year && e.to == pp)
        .unwrap();
    // The paper labels this edge (Q1 ∧ Q2, "Paper", [v], [x]).
    assert_eq!(edge.label_text(), r#"(Q2 ∧ Q3, "Paper", [v], [x])"#);
}

/// The site schema of one site-definition query.
fn schema_of(query: &str) -> SiteSchema {
    let program = SiteProgram::compile(
        &parse_query(query).unwrap(),
        &PredicateRegistry::with_builtins(),
    );
    SiteSchema::new(program.unwrap())
}

/// The site schemas of every bundled site, as text: the DOT rendering,
/// then each edge's `(Q, L, X, Y)` label, one a line.
fn pinned_schema_text(query: &str) -> String {
    let schema = schema_of(query);
    let mut text = schema.to_dot();
    for edge in schema.edges() {
        text.push_str(&edge.label_text());
        text.push('\n');
    }
    text
}

/// Every bundled site's schema — node order, edges, and each edge's
/// governing blocks, label and argument vectors — is the recorded text.
#[test]
fn bundled_site_schemas_are_pinned() {
    let sites = [
        (
            "news",
            news::SITE_QUERY,
            include_str!("support/schemas/news.txt"),
        ),
        (
            "news-sports",
            news::SPORTS_QUERY,
            include_str!("support/schemas/news-sports.txt"),
        ),
        (
            "org",
            org::SITE_QUERY,
            include_str!("support/schemas/org.txt"),
        ),
        (
            "bib",
            bib::SITE_QUERY,
            include_str!("support/schemas/bib.txt"),
        ),
        (
            "bilingual",
            bilingual::SITE_QUERY,
            include_str!("support/schemas/bilingual.txt"),
        ),
    ];
    for (name, query, pinned) in sites {
        assert_eq!(
            pinned_schema_text(query),
            pinned,
            "schema of the {name} site"
        );
    }
}

#[test]
fn fig7_templates_render_browsable_site() {
    let data = ddl::parse(FIG2).unwrap();
    let q = parse_query(FIG3).unwrap();
    let out = q.evaluate(&data, &EvalOptions::default()).unwrap();
    let mut site_graph = out.graph;
    // Register skolem-function collections for template selection.
    let entries: Vec<(String, strudel::graph::Oid)> = out
        .table
        .iter()
        .map(|(n, _, o)| (n.to_string(), o))
        .collect();
    for (name, oid) in entries {
        site_graph.add_to_collection_str(&name, Value::Node(oid));
    }
    let templates = fig7_templates();
    let abstracts: HashMap<String, String> = [
        (
            "abstracts/toplas97.txt".to_string(),
            "We describe machine instructions.".to_string(),
        ),
        (
            "abstracts/icde98.txt".to_string(),
            "We optimize path expressions.".to_string(),
        ),
    ]
    .into();
    let generator = Generator::new(&site_graph, &templates)
        .with_file_resolver(Box::new(move |p| abstracts.get(p).cloned()));
    let root = site_graph.collection_str("RootPage").unwrap().items()[0]
        .as_node()
        .unwrap();
    let site = generator.generate(&[root]).unwrap();

    // Pages realized: root, abstracts, 2 year, 3 category = 7; the
    // presentations and abstract pages are embedded.
    assert_eq!(site.pages.len(), 7, "{:?}", site.pages.keys());

    let root_html = &site.pages[&site.page_of[&root]];
    assert!(root_html.contains("Publications by Year"));
    // Years sorted ascending: 1997 before 1998.
    let p97 = root_html.find("1997").unwrap();
    let p98 = root_html.find("1998").unwrap();
    assert!(p97 < p98, "{root_html}");

    // The year page embeds the paper presentation with a PostScript link
    // tagged by the title.
    let y97 = site
        .pages
        .iter()
        .find(|(k, _)| k.contains("yearpage_1997"))
        .unwrap()
        .1;
    assert!(
        y97.contains(r#"<a href="papers/toplas97.ps.gz">Specifying Representations...</a>"#),
        "{y97}"
    );
    // Bindings relations are canonically ordered (plan-independent output),
    // so the author list renders in value order, not document order.
    assert!(y97.contains("Mary Fernandez, Norman Ramsey"), "{y97}");
    // pub1 is an article: the SIF falls through to the journal branch.
    assert!(y97.contains("Transactions on Programming..."));

    // The abstracts page embeds abstract file contents via the resolver.
    let abstracts_page = site
        .pages
        .iter()
        .find(|(k, _)| k.starts_with("abstractspage"))
        .unwrap()
        .1;
    assert!(
        abstracts_page.contains("We describe machine instructions."),
        "{abstracts_page}"
    );
    assert!(abstracts_page.contains("We optimize path expressions."));

    // Every href that is a local page resolves to an emitted page.
    for (name, html) in &site.pages {
        for href in html.split("href=\"").skip(1) {
            let target = &href[..href.find('"').unwrap()];
            if target.ends_with(".html") {
                assert!(
                    site.pages.contains_key(target),
                    "{name} links to missing {target}"
                );
            }
        }
    }
}

// ------------------------------------------------------ Fig. 8 sweep ----

/// Fig. 8's quantity-of-data axis: articles of the news corpus.
const SIZES: [usize; 3] = [50, 200, 800];
/// The news corpus' seed throughout the sweep.
const SEED: u64 = 5;

fn news_data(n: usize) -> Graph {
    ddl::parse(&news::generate_ddl(n, SEED)).unwrap()
}

/// Pages whose file name starts with `prefix`.
fn census(pages: &BTreeMap<String, String>, prefix: &str) -> usize {
    pages.keys().filter(|k| k.starts_with(prefix)).count()
}

/// Fig. 8's complexity-of-structure axis, in the paper's measure (link
/// clauses of the site-definition query) and in query lines.
#[test]
fn fig8_complexity_axis_counts_link_clauses() {
    let links: Vec<usize> = fig8::LEVELS.map(fig8::link_clauses).collect();
    assert_eq!(links, [2, 5, 7, 13]);
    let query_lines: Vec<usize> = fig8::LEVELS
        .map(|level| fig8::lines(&fig8::query(level)))
        .collect();
    assert_eq!(query_lines, [8, 15, 23, 37]);
}

/// STRUDEL covers the whole grid: every (articles × level) cell builds and
/// renders, pages growing with both axes.
#[test]
fn fig8_strudel_renders_every_cell() {
    let pages: Vec<Vec<usize>> = SIZES
        .into_iter()
        .map(|n| {
            fig8::LEVELS
                .map(|level| {
                    let mut s = fig8::system(n, SEED, level).unwrap();
                    s.generate_site(&["FrontPage"]).unwrap().pages.len()
                })
                .collect()
        })
        .collect();
    assert_eq!(
        pages,
        [
            [51, 58, 58, 126],
            [201, 208, 208, 397],
            [801, 808, 808, 1177]
        ]
    );
}

#[test]
fn every_level_builds_and_renders() {
    for level in fig8::LEVELS {
        let mut s = fig8::system(30, 9, level).unwrap();
        let site = s.generate_site(&["FrontPage"]).unwrap();
        assert!(
            site.pages.len() > 30,
            "level {level}: {} pages",
            site.pages.len()
        );
    }
}

#[test]
fn higher_levels_make_more_pages() {
    let pages_at = |level: usize| {
        let mut s = fig8::system(50, 10, level).unwrap();
        s.generate_site(&["FrontPage"]).unwrap().pages.len()
    };
    assert!(pages_at(2) > pages_at(1));
    assert!(pages_at(4) > pages_at(2));
}

/// Each baseline exists at exactly one level of the complexity axis: the
/// procedural program is STRUDEL's L3 (the same page census, with the
/// top-story and related-article links L2 lacks), and the RDBMS dump is L1
/// (every object one record page, no record linking another).
#[test]
fn fig8_baselines_exist_at_one_level_each() {
    let mut procedural_pages = Vec::new();
    let mut dump_pages = Vec::new();
    for n in SIZES {
        let data = news_data(n);
        let hand = procedural::news_site(&data);
        let mut s = fig8::system(n, SEED, 3).unwrap();
        let l3 = s.generate_site(&["FrontPage"]).unwrap().pages;
        assert_eq!(hand.len(), l3.len(), "n = {n}");
        assert_eq!(census(&hand, "article_"), census(&l3, "articlepage"));
        assert_eq!(census(&hand, "section_"), census(&l3, "sectionpage"));
        assert!(hand["front.html"].contains("<h2>Top stories</h2>"));
        assert!(hand.values().any(|html| html.contains("<h2>Related</h2>")));
        procedural_pages.push(hand.len());

        let dump = rdbms_web::dump_site(&data);
        assert_eq!(census(&dump, "record_"), n);
        assert!(dump.contains_key("index.html") && dump.contains_key("table_Articles.html"));
        for (name, html) in &dump {
            if name.starts_with("record_") {
                assert!(!html.contains("href=\"record_"), "{name} links a record");
            }
        }
        dump_pages.push(dump.len());
    }
    assert_eq!(procedural_pages, [58, 208, 808]);
    assert_eq!(dump_pages, [52, 202, 802]);
}

#[test]
fn rdbms_dump_covers_every_object() {
    let pages = rdbms_web::dump_site(&news_data(15));
    // index + 1 table + 15 records.
    assert_eq!(pages.len(), 1 + 1 + 15);
    assert!(pages.contains_key("index.html"));
    assert!(pages.contains_key("table_Articles.html"));
}

#[test]
fn rdbms_dump_has_no_cross_structure() {
    let pages = rdbms_web::dump_site(&news_data(10));
    // Record pages never link to other records: flat structure only.
    for (name, html) in &pages {
        if name.starts_with("record_") {
            assert!(!html.contains("href=\"record_"), "{name} has cross links");
        }
    }
}

/// Specification size is a function of the level alone — `fig8::system`
/// takes the article count for the data only — and grows with structure.
/// The procedural program, which implements one level, is larger than
/// STRUDEL's specification of that level; the dump's is fixed.
#[test]
fn spec_lines_grow_with_complexity() {
    let spec: Vec<usize> = fig8::LEVELS.map(fig8::spec_lines).collect();
    assert_eq!(spec, [13, 21, 31, 49]);
    let programs = (program_lines("procedural"), program_lines("rdbms_web"));
    assert_eq!(programs, (139, 36));
    assert!(programs.0 > spec[2]);
}

#[test]
fn procedural_news_site_matches_strudel_page_census() {
    let hand = procedural::news_site(&news_data(40));
    let mut s = news::system(40, SEED, false).unwrap();
    let declarative = s.generate_site(&["FrontPage"]).unwrap().pages;
    // Same number of article pages; front + per-section pages.
    assert_eq!(
        census(&hand, "article_"),
        census(&declarative, "articlepage")
    );
    assert_eq!(
        census(&hand, "section_"),
        census(&declarative, "sectionpage")
    );
}

#[test]
fn procedural_site_is_internally_linked() {
    let pages = procedural::news_site(&news_data(20));
    for (name, html) in &pages {
        for href in html.split("href=\"").skip(1) {
            let target = &href[..href.find('"').unwrap()];
            if target.ends_with(".html") {
                assert!(
                    pages.contains_key(target),
                    "{name} links to missing {target}"
                );
            }
        }
    }
}

// ---------------------------------------------- §5.1 AT&T external site ----

/// "Building the external version was trivial": the same query and the
/// same site graph under five replaced templates. Per page kind (the
/// Skolem function a page renders), `[changed, identical, internal only]`
/// pages: bytes change only where a replaced template renders, DeptPage
/// and DeptIndex drop out (only replaced templates linked them), and no
/// page exists only in the external version.
#[test]
fn att_external_version_replaces_five_templates_and_no_query() {
    let mut s = org::system(&org::generate(400, 1997)).unwrap();
    let build = s.build_site().unwrap();
    let roots = build.pages_of("RootPage");
    let internal = Generator::new(&build.graph, s.templates_mut())
        .generate(&roots)
        .unwrap();
    *s.templates_mut() = org::templates_external().unwrap();
    let rebuilt = s.build_site().unwrap();
    assert_eq!(site_graph_digest(&rebuilt), site_graph_digest(&build));
    let external = Generator::new(&rebuilt.graph, s.templates_mut())
        .generate(&rebuilt.pages_of("RootPage"))
        .unwrap();
    assert_eq!((internal.pages.len(), external.pages.len()), (1097, 1085));

    // The Skolem function each internal page renders, by page name.
    let kinds: HashMap<&str, &str> = build
        .table
        .iter()
        .filter_map(|(kind, _, oid)| Some((internal.page_of.get(&oid)?.as_str(), kind)))
        .collect();
    let mut by_kind: BTreeMap<&str, [usize; 3]> = BTreeMap::new();
    for (name, html) in &internal.pages {
        let slot = match external.pages.get(name) {
            Some(ext) if ext != html => 0,
            Some(_) => 1,
            None => 2,
        };
        by_kind.entry(kinds[name.as_str()]).or_default()[slot] += 1;
    }
    assert!(
        external
            .pages
            .keys()
            .all(|p| internal.pages.contains_key(p)),
        "a page only in the external version"
    );
    let expected = BTreeMap::from([
        ("RootPage", [1, 0, 0]),
        ("MemberPage", [400, 0, 0]),
        ("ProjectPage", [50, 0, 0]),
        ("PubPage", [600, 0, 0]),
        ("CategoryPage", [0, 10, 0]),
        ("DemoPage", [0, 12, 0]),
        ("PubYearPage", [0, 9, 0]),
        ("PeopleIndex", [0, 1, 0]),
        ("ProjectIndex", [0, 1, 0]),
        ("PubIndex", [0, 1, 0]),
        ("DeptPage", [0, 0, 11]),
        ("DeptIndex", [0, 0, 1]),
    ]);
    assert_eq!(by_kind, expected);
}
