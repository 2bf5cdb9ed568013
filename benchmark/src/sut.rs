//! The adapter: the only module that names the program under test.
//!
//! Everything the benchmark calls in the repository's crates is called
//! from here, through the functions listed in `benchmark/README.md`
//! ("Pinned functions"). Later changes to the program may not edit this
//! directory, so they must keep exactly these items compiling.

pub use strudel::graph::store::{PagedStore, WireValue};
pub use strudel::graph::{storage_stats, Graph, Oid, Value};
pub use strudel::obs::json;
pub use strudel::serve::{page_url, Server, ServerConfig};
pub use strudel::site::{CacheConfig, CacheSnapshot, Delta, DynamicSite, OutLink, PageRef, Target};
pub use strudel::struql::Query;
pub use strudel::template::GeneratedSite;
pub use strudel::{SiteBuild, Strudel};

use std::path::Path;
use strudel::synth::{news, org};

pub type Error = Box<dyn std::error::Error + Send + Sync>;
pub type Result<T> = std::result::Result<T, Error>;

/// Worker count for builds: what `strudel-cli build` uses on this machine.
pub fn build_jobs() -> usize {
    crate::host::cores()
}

// ---- inputs ----

pub use news::SECTIONS;

/// The news corpus as DDL text: a pure function of `(n, seed)`.
pub fn news_ddl(n: usize, seed: u64) -> String {
    news::generate_ddl(n, seed)
}

pub type OrgInput = org::OrgSource;

/// The organization's sources (CSV, DDL, BibTeX, HTML).
pub fn org_input(members: usize, seed: u64) -> OrgInput {
    org::generate(members, seed)
}

/// Which site a build runs: its sources, query, templates and roots.
pub enum SiteInput {
    News(String),
    Org(Box<OrgInput>),
}

impl SiteInput {
    pub fn roots(&self) -> &'static [&'static str] {
        match self {
            SiteInput::News(_) => &["FrontPage"],
            SiteInput::Org(_) => &["RootPage"],
        }
    }

    /// A DDL text of this input, for timing `ddl::parse` alone.
    pub fn ddl_text(&self) -> &str {
        match self {
            SiteInput::News(text) => text,
            SiteInput::Org(src) => &src.projects_ddl,
        }
    }

    /// Wires sources, site query and templates; nothing is loaded yet.
    pub fn system(&self, jobs: usize) -> Result<Strudel> {
        let mut s = match self {
            SiteInput::News(text) => {
                let mut s = Strudel::new();
                s.add_ddl_source("articles", text);
                s.add_site_query(news::SITE_QUERY)?;
                *s.templates_mut() = news::templates()?;
                s
            }
            SiteInput::Org(src) => org::system(src)?,
        };
        s.set_jobs(jobs);
        Ok(s)
    }
}

// ---- graph ----

pub fn parse_ddl(text: &str) -> Result<Graph> {
    Ok(strudel::graph::ddl::parse(text)?)
}

/// Position of each article's node in `g.nodes()`, by article number. The
/// paged store numbers nodes by this position, and `nodes()[i]` is the
/// article's object id in `g`.
pub fn article_positions(g: &Graph, n: usize) -> Result<Vec<u32>> {
    let mut pos = vec![u32::MAX; n];
    for (i, node) in g.nodes().iter().enumerate() {
        let name = g.node_name(*node);
        let number = name
            .as_deref()
            .and_then(|s| s.strip_prefix("art"))
            .and_then(|s| s.parse::<usize>().ok());
        if let Some(a) = number.filter(|a| *a < n) {
            pos[a] = i as u32;
        }
    }
    match pos.iter().position(|p| *p == u32::MAX) {
        Some(a) => Err(format!("article art{a} is not in the graph").into()),
        None => Ok(pos),
    }
}

pub const CORRECTION: &str = "correction";

/// Adds or removes `node --correction--> text` in an in-memory graph.
pub fn apply_correction(g: &mut Graph, node: Oid, text: &str, insert: bool) -> Result<()> {
    if insert {
        g.add_edge_str(node, CORRECTION, Value::str(text))?;
    } else if !g.remove_edge_str(node, CORRECTION, &Value::str(text))? {
        return Err("correction to remove is not in the graph".into());
    }
    Ok(())
}

pub fn has_correction(g: &Graph, node: Oid, text: &str) -> bool {
    g.has_edge(node, g.sym(CORRECTION), &Value::str(text))
}

/// How many correction edges `g` holds.
pub fn correction_count(g: &Graph) -> usize {
    let label = g.sym(CORRECTION);
    g.edges().iter().filter(|e| e.label == label).count()
}

/// The delta `apply_correction` performs, as the site cache is told of it.
pub fn correction_delta(g: &Graph, node: Oid, text: &str, insert: bool) -> Delta {
    let (from, label, to) = (node, g.sym(CORRECTION), Value::str(text));
    if insert {
        Delta::EdgeAdded { from, label, to }
    } else {
        Delta::EdgeRemoved { from, label, to }
    }
}

// ---- store ----

pub fn store_import(path: &Path, g: &Graph) -> Result<PagedStore> {
    Ok(PagedStore::import(path, g)?)
}

pub fn store_open(path: &Path) -> Result<PagedStore> {
    Ok(PagedStore::open(path)?)
}

/// One durable transaction: the correction edge on the node at `position`.
/// Default flush policy (fsync per commit, no group-commit window).
pub fn store_commit_correction(
    store: &mut PagedStore,
    position: u32,
    text: &str,
    insert: bool,
) -> Result<u64> {
    let mut txn = store.begin();
    let value = WireValue::Str(text.to_string());
    if insert {
        txn.add_edge(position, CORRECTION, value);
    } else {
        txn.remove_edge(position, CORRECTION, value);
    }
    Ok(txn.commit()?)
}

// ---- click-time site and server ----

pub fn news_query() -> Result<Query> {
    Ok(strudel::struql::parse_query(news::SITE_QUERY)?)
}

/// A click-time evaluator with sequential clause evaluation, as `serve`
/// runs it (`STRUDEL_JOBS` is cleared by `main`).
pub fn dynamic_site<'g>(g: &'g Graph, q: &Query, cache: CacheConfig) -> Result<DynamicSite<'g>> {
    let opts = strudel::struql::EvalOptions::default();
    Ok(DynamicSite::with_cache(g, q, opts, cache)?)
}

/// A server with the default configuration of this machine: the default
/// counts the cores the calling thread may use, and the harness confines
/// that thread to one (see `host::confine_to_one_core`).
pub fn bind(site: DynamicSite<'_>) -> Result<Server<'_>> {
    let config = ServerConfig {
        threads: crate::host::cores(),
        ..ServerConfig::default()
    };
    Ok(Server::bind_with(site, "127.0.0.1:0", config)?)
}

pub fn article_page(node: Oid) -> PageRef {
    PageRef {
        skolem: "ArticlePage".into(),
        args: vec![Value::Node(node)],
    }
}

pub fn summary(node: Oid) -> PageRef {
    PageRef {
        skolem: "Summary".into(),
        args: vec![Value::Node(node)],
    }
}

/// The eight hub pages: the front page and one page per section.
pub fn hubs() -> Vec<PageRef> {
    let front = PageRef {
        skolem: "FrontPage".into(),
        args: Vec::new(),
    };
    let sections = SECTIONS.iter().map(|s| PageRef {
        skolem: "SectionPage".into(),
        args: vec![Value::str(*s)],
    });
    std::iter::once(front).chain(sections).collect()
}

// ---- build ----

/// Renders a built site graph from `s`'s templates, as `generate_site`
/// does after `build_site`.
pub fn render(
    s: &mut Strudel,
    build: &SiteBuild,
    roots: &[&str],
    jobs: usize,
) -> Result<GeneratedSite> {
    let root_nodes: Vec<Oid> = roots.iter().flat_map(|r| build.pages_of(r)).collect();
    let templates = s.templates_mut();
    let generator = strudel::template::Generator::new(&build.graph, templates);
    Ok(if jobs > 1 {
        generator.generate_parallel(&root_nodes, jobs)?
    } else {
        generator.generate(&root_nodes)?
    })
}

/// Rows the evaluator examined over all site queries of a build.
pub fn rows_examined(build: &SiteBuild) -> u64 {
    build.stats.iter().map(|s| s.intermediate_rows).sum()
}

/// A built site graph, indexed so that its out-links can be read in the
/// vocabulary of click-time expansion.
pub struct StaticSite<'a> {
    build: &'a SiteBuild,
    pages: std::collections::HashMap<Oid, PageRef>,
}

impl<'a> StaticSite<'a> {
    pub fn new(build: &'a SiteBuild) -> Self {
        let pages = build
            .table
            .iter()
            .map(|(name, args, oid)| {
                let page = PageRef {
                    skolem: name.to_string(),
                    args: args.to_vec(),
                };
                (oid, page)
            })
            .collect();
        StaticSite { build, pages }
    }

    /// The out-links of `page`: an edge to a Skolem-created node is a page
    /// link, anything else a value. `None` when the build has no such page.
    pub fn links(&self, page: &PageRef) -> Option<Vec<OutLink>> {
        let node = self.build.table.lookup(&page.skolem, &page.args)?;
        let graph = &self.build.graph;
        let links = graph.out_edges(node).into_iter().map(|(label, to)| {
            let target = match &to {
                Value::Node(n) if self.pages.contains_key(n) => Target::Page(self.pages[n].clone()),
                _ => Target::Value(to),
            };
            OutLink {
                label: graph.resolve(label).to_string(),
                target,
            }
        });
        Some(links.collect())
    }
}

/// An order-free rendering of a link set, for comparing two of them.
pub fn link_set(links: &[OutLink]) -> Vec<String> {
    let mut out: Vec<String> = links
        .iter()
        .map(|l| match &l.target {
            Target::Page(p) => format!("{} => page {p}", l.label),
            Target::Value(v) => format!("{} => value {v}", l.label),
        })
        .collect();
    out.sort();
    out
}
