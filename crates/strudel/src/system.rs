//! The end-to-end pipeline of Fig. 1.

use crate::error::{Result, StrudelError};
use std::path::Path;
use std::sync::Arc;
use strudel_graph::graph::Universe;
use strudel_graph::{ddl, Graph, Oid, Sym, Value};
use strudel_obs::{Phases, Timer};
use strudel_site::{
    verify_graph, verify_schema, CacheConfig, Constraint, DynamicSite, SiteSchema, Verdict,
};
use strudel_struql::{parse_query, EvalOptions, EvalStats, Query, SiteProgram, SkolemTable};
use strudel_template::gen::FileResolver;
use strudel_template::{GeneratedSite, Generator, TemplateSet};
use strudel_wrappers::mediator::FnSource;
use strudel_wrappers::{bibtex, html, relational, xml, Mediator, Source};

/// A file resolver shared across generations (see
/// [`Strudel::set_file_resolver`]).
type SharedResolver = Arc<dyn Fn(&str) -> Option<String> + Send + Sync>;

/// The result of evaluating the site-definition queries: the site graph,
/// the Skolem table, and evaluation statistics.
pub struct SiteBuild {
    /// The site graph (in the mediator's universe). Every Skolem function's
    /// extension is also registered as a collection named after the
    /// function, so templates attach per page *type*.
    pub graph: Graph,
    /// Skolem applications → nodes.
    pub table: SkolemTable,
    /// Accumulated evaluation statistics, one entry per site query; the
    /// analyzer's warnings about the whole site are the first entry's.
    pub stats: Vec<EvalStats>,
}

impl SiteBuild {
    /// The pages of one Skolem function, in creation order: the function's
    /// collection, which `build_site` fills from [`SkolemTable::iter`].
    pub fn pages_of(&self, skolem: &str) -> Vec<Oid> {
        self.graph
            .collection_str(skolem)
            .map(|c| c.items().iter().filter_map(Value::as_node).collect())
            .unwrap_or_default()
    }
}

/// The STRUDEL system: sources + mediator + site queries + templates.
///
/// Typical use: register sources (and optionally GAV mappings), add one or
/// more site-definition queries, attach templates per Skolem function, then
/// [`Strudel::generate_site`].
pub struct Strudel {
    mediator: Mediator,
    site_queries: Vec<Query>,
    templates: TemplateSet,
    opts: EvalOptions,
    /// Page-rendering workers ([`Strudel::set_jobs`]).
    jobs: usize,
    file_resolver: Option<SharedResolver>,
}

impl Strudel {
    /// An empty system.
    pub fn new() -> Self {
        Strudel {
            mediator: Mediator::new(),
            site_queries: Vec::new(),
            templates: TemplateSet::new(),
            opts: EvalOptions::default(),
            jobs: 1,
            file_resolver: None,
        }
    }

    /// The shared object universe.
    pub fn universe(&self) -> &Arc<Universe> {
        self.mediator.universe()
    }

    /// Mutable access to the evaluation options (optimizer choice,
    /// predicate registry, …).
    pub fn options_mut(&mut self) -> &mut EvalOptions {
        &mut self.opts
    }

    /// Sets the worker count used by page rendering (clamped to at least
    /// 1, the default: pages render on the calling thread). Query evaluation
    /// and block construction always run on the calling thread.
    pub fn set_jobs(&mut self, jobs: usize) -> &mut Self {
        self.jobs = jobs.max(1);
        self
    }

    /// The configured worker count (see [`Strudel::set_jobs`]).
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// The template set.
    pub fn templates_mut(&mut self) -> &mut TemplateSet {
        &mut self.templates
    }

    /// Installs a resolver used to embed text/HTML file contents in pages
    /// (shared across every subsequent generation).
    pub fn set_file_resolver(&mut self, resolver: FileResolver) {
        self.file_resolver = Some(Arc::from(resolver));
    }

    // ---- sources ----

    /// Registers a generic source.
    pub fn add_source(&mut self, name: &str, source: Box<dyn Source>) {
        self.mediator.add_source(name, source);
    }

    /// Registers a source holding STRUDEL DDL text (a "structured file").
    pub fn add_ddl_source(&mut self, name: &str, ddl_text: &str) {
        let text = ddl_text.to_string();
        self.mediator.add_source(
            name,
            Box::new(FnSource(move |u: &Arc<Universe>| {
                let mut g = Graph::new(Arc::clone(u));
                ddl::parse_into(&mut g, &text).map_err(strudel_struql::StruqlError::Graph)?;
                Ok(g)
            })),
        );
    }

    /// Registers a BibTeX source.
    pub fn add_bibtex_source(&mut self, name: &str, bibtex_text: &str) {
        let text = bibtex_text.to_string();
        self.mediator.add_source(
            name,
            Box::new(FnSource(move |u: &Arc<Universe>| {
                let mut g = Graph::new(Arc::clone(u));
                bibtex::load_into(&mut g, &text).map_err(strudel_struql::StruqlError::Graph)?;
                Ok(g)
            })),
        );
    }

    /// Registers a relational source from CSV tables and foreign keys.
    pub fn add_csv_source(
        &mut self,
        name: &str,
        tables: Vec<relational::Table>,
        fks: Vec<relational::ForeignKey>,
    ) {
        self.mediator.add_source(
            name,
            Box::new(FnSource(move |u: &Arc<Universe>| {
                let mut g = Graph::new(Arc::clone(u));
                relational::load_into(&mut g, &tables, &fks)
                    .map_err(strudel_struql::StruqlError::Graph)?;
                Ok(g)
            })),
        );
    }

    /// Registers an XML source (§2.2's alternative exchange language).
    pub fn add_xml_source(&mut self, name: &str, xml_text: &str) {
        let text = xml_text.to_string();
        self.mediator.add_source(
            name,
            Box::new(FnSource(move |u: &Arc<Universe>| {
                let mut g = Graph::new(Arc::clone(u));
                xml::load_into(&mut g, &text).map_err(strudel_struql::StruqlError::Graph)?;
                Ok(g)
            })),
        );
    }

    /// Registers a paged graph store (see `strudel_graph::store::PagedStore`)
    /// as a data source. Each warehouse refresh reopens the store — running
    /// crash recovery if needed — and materializes its current revision into
    /// the mediated universe, so a rebuilt or restarted server picks up
    /// whatever the last committed revision was without re-wrapping sources.
    pub fn add_store_source(&mut self, name: &str, path: &std::path::Path) {
        let path = path.to_path_buf();
        self.mediator.add_source(
            name,
            Box::new(FnSource(move |u: &Arc<Universe>| {
                let mut g = Graph::new(Arc::clone(u));
                strudel_graph::store::PagedStore::open_into(&path, &mut g)
                    .map_err(strudel_struql::StruqlError::Graph)?;
                Ok(g)
            })),
        );
    }

    /// Registers a source of wrapped HTML pages (`(url, html)` pairs).
    pub fn add_html_source(&mut self, name: &str, pages: Vec<(String, String)>) {
        self.mediator.add_source(
            name,
            Box::new(FnSource(move |u: &Arc<Universe>| {
                let mut g = Graph::new(Arc::clone(u));
                html::load_into(&mut g, &pages).map_err(strudel_struql::StruqlError::Graph)?;
                Ok(g)
            })),
        );
    }

    /// Adds a GAV mediation mapping over a named source.
    pub fn add_mapping(&mut self, source: &str, query: &str) -> Result<()> {
        self.mediator
            .add_mapping(source, query)
            .map_err(StrudelError::Struql)
    }

    /// The integrated data graph, refreshing the warehouse if stale.
    pub fn data_graph(&mut self) -> Result<&Graph> {
        if self.mediator.is_stale() {
            self.mediator.refresh()?;
        }
        Ok(self.mediator.data_graph().expect("refreshed"))
    }

    // ---- site definition ----

    /// Adds a site-definition query. Multiple queries compose: they share
    /// one Skolem table, so "different queries create different parts of the
    /// same site" (§5.2).
    pub fn add_site_query(&mut self, src: &str) -> Result<Query> {
        let q = parse_query(src)?;
        self.site_queries.push(q.clone());
        Ok(q)
    }

    /// Removes all site queries (to define a different version of the site
    /// over the same data).
    pub fn clear_site_queries(&mut self) {
        self.site_queries.clear();
    }

    /// The merged query over all site-definition queries (what the site
    /// schema describes).
    pub fn merged_query(&self) -> Query {
        Query::merge(self.site_queries.iter())
    }

    /// The site program compiled from the merged query: what the build,
    /// the click-time site and the site schema all run.
    fn site_program(&self) -> Result<SiteProgram> {
        let merged = self.merged_query();
        Ok(SiteProgram::compile(&merged, &self.opts.predicates)?)
    }

    /// The site schema of the composed site-definition queries.
    pub fn site_schema(&self) -> Result<SiteSchema> {
        Ok(SiteSchema::new(self.site_program()?))
    }

    /// Evaluates every site query over the data graph, producing the site
    /// graph. Each Skolem function's extension is additionally registered
    /// as a site-graph collection named after the function.
    pub fn build_site(&mut self) -> Result<SiteBuild> {
        if self.site_queries.is_empty() {
            return Err(StrudelError::Pipeline(
                "no site-definition query registered".into(),
            ));
        }
        if self.mediator.is_stale() {
            self.mediator.refresh()?;
        }
        let program = self.site_program()?;
        let data = self.mediator.data_graph().expect("refreshed");
        let mut site = Graph::new(Arc::clone(self.mediator.universe()));
        let mut table = SkolemTable::new();
        // Each site query is one stage under the merged root, run in turn
        // with the one table.
        let mut stats = Vec::with_capacity(self.site_queries.len());
        for &query in &program.stages()[0].children {
            stats.push(program.evaluate_into(query, data, &mut site, &mut table, &self.opts)?);
        }
        stats[0].warnings = program.warnings().to_vec();
        // Register per-function collections for template selection, each
        // in creation order. The table iterates function by function, so a
        // name is interned once per function, not once per page.
        let mut function: Option<(&str, Sym)> = None;
        for (name, _, oid) in table.iter() {
            let coll = match function {
                Some((current, sym)) if current == name => sym,
                _ => site.sym(name),
            };
            function = Some((name, coll));
            site.add_to_collection(coll, Value::Node(oid));
        }
        Ok(SiteBuild {
            graph: site,
            table,
            stats,
        })
    }

    /// Builds the site graph and renders it to HTML, starting from the
    /// pages of the named root Skolem functions. Uses the configured worker
    /// count ([`Strudel::set_jobs`]): the pages of a wave render on that
    /// many workers, on the calling thread at 1, and are the same bytes
    /// under the same names at every count.
    pub fn generate_site(&mut self, root_skolems: &[&str]) -> Result<GeneratedSite> {
        let build = self.build_site()?;
        self.render_site(&build, root_skolems, self.jobs, false)
    }

    /// Like [`Strudel::generate_site`], but records a wall-clock breakdown
    /// of the pipeline phases and per-page render times
    /// ([`GeneratedSite::render_us`]) — the data behind `strudel-cli build
    /// --timings`. The phases are disjoint and cover the whole call, so
    /// they add up to its wall time: `refresh` (when the warehouse is
    /// stale), the paper's two evaluation stages `evaluate.query` and
    /// `evaluate.construct` ([`EvalStats::query_us`],
    /// [`EvalStats::construct_us`]), `evaluate` for what else building the
    /// site graph takes (analysis, planning, registering each function's
    /// pages as a collection), `render`, and `teardown` — freeing the site
    /// graph and the Skolem table's books, which every build pays on return.
    pub fn generate_site_timed(
        &mut self,
        root_skolems: &[&str],
    ) -> Result<(GeneratedSite, Phases)> {
        let mut phases = Phases::new();
        if self.mediator.is_stale() {
            let t = Timer::start();
            self.mediator.refresh()?;
            phases.add("refresh", t.elapsed_us());
        }
        let t = Timer::start();
        let build = self.build_site()?;
        let evaluate_us = t.elapsed_us();
        let query_us: u64 = build.stats.iter().map(|s| s.query_us).sum();
        let construct_us: u64 = build.stats.iter().map(|s| s.construct_us).sum();
        phases.add("evaluate.query", query_us);
        phases.add("evaluate.construct", construct_us);
        phases.add(
            "evaluate",
            evaluate_us.saturating_sub(query_us + construct_us),
        );
        let t = Timer::start();
        let site = self.render_site(&build, root_skolems, self.jobs, true)?;
        phases.add("render", t.elapsed_us());
        let t = Timer::start();
        drop(build);
        phases.add("teardown", t.elapsed_us());
        Ok((site, phases))
    }

    /// Renders a built site from the named roots on `threads` workers
    /// ([`Generator::generate_parallel`]). With `timings`, per-page render
    /// durations are collected.
    fn render_site(
        &self,
        build: &SiteBuild,
        root_skolems: &[&str],
        threads: usize,
        timings: bool,
    ) -> Result<GeneratedSite> {
        let mut roots: Vec<Oid> = Vec::new();
        for name in root_skolems {
            roots.extend(build.pages_of(name));
        }
        if roots.is_empty() {
            return Err(StrudelError::Pipeline(format!(
                "no root pages: none of {root_skolems:?} has instances"
            )));
        }
        let mut generator = Generator::new(&build.graph, &self.templates).with_timings(timings);
        if let Some(resolver) = &self.file_resolver {
            let resolver = Arc::clone(resolver);
            generator = generator.with_file_resolver(Box::new(move |p| resolver(p)));
        }
        Ok(generator.generate_parallel(&roots, threads)?)
    }

    /// Builds the site and writes the browsable HTML into `dir`.
    pub fn publish(&mut self, root_skolems: &[&str], dir: &Path) -> Result<GeneratedSite> {
        let site = self.generate_site(root_skolems)?;
        site.write_to_dir(dir)?;
        Ok(site)
    }

    /// Like [`Strudel::publish`], but returns the phase breakdown (that of
    /// [`Strudel::generate_site_timed`], then `write`) alongside the site.
    pub fn publish_timed(
        &mut self,
        root_skolems: &[&str],
        dir: &Path,
    ) -> Result<(GeneratedSite, Phases)> {
        let (site, mut phases) = self.generate_site_timed(root_skolems)?;
        let t = Timer::start();
        site.write_to_dir(dir)?;
        phases.add("write", t.elapsed_us());
        Ok((site, phases))
    }

    // ---- verification & dynamic evaluation ----

    /// Checks a structural constraint statically (against the site schema)
    /// and, if the static answer is [`Verdict::Unknown`], exactly (against a
    /// freshly built site graph). Returns `(static verdict, exact verdict)`;
    /// the exact verdict is `None` when the static check already decided.
    pub fn verify(&mut self, constraint: &Constraint) -> Result<(Verdict, Option<Verdict>)> {
        let schema_verdict = verify_schema(&self.site_schema()?, constraint);
        if matches!(schema_verdict, Verdict::Unknown(_)) {
            let build = self.build_site()?;
            let exact = verify_graph(&build.graph, &build.table, constraint);
            Ok((schema_verdict, Some(exact)))
        } else {
            Ok((schema_verdict, None))
        }
    }

    /// A click-time evaluator over the current data graph and site queries
    /// (nothing is materialized; pages expand on demand). Uses the default
    /// page-cache bounds; see [`Strudel::dynamic_site_with`] to size the
    /// cache explicitly.
    pub fn dynamic_site(&mut self) -> Result<DynamicSite<'_>> {
        self.dynamic_site_with(CacheConfig::default())
    }

    /// Like [`Strudel::dynamic_site`], but with an explicit bound on the
    /// click-time page cache (entry count and approximate bytes).
    pub fn dynamic_site_with(&mut self, cache: CacheConfig) -> Result<DynamicSite<'_>> {
        let merged = self.merged_query();
        let opts = self.opts.clone();
        if self.mediator.is_stale() {
            self.mediator.refresh()?;
        }
        let data = self.mediator.data_graph().expect("refreshed");
        DynamicSite::with_cache(data, &merged, opts, cache).map_err(StrudelError::Struql)
    }
}

impl Default for Strudel {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pubs_system() -> Strudel {
        let mut s = Strudel::new();
        s.add_ddl_source(
            "pubs",
            r#"
object p1 in Publications { title "UnQL" year 1996 }
object p2 in Publications { title "Lorel" year 1996 }
object p3 in Publications { title "StruQL" year 1997 }
"#,
        );
        s.add_site_query(
            r#"CREATE RootPage()
               {
                 WHERE Publications(x), x -> "title" -> t
                 CREATE Page(x)
                 LINK Page(x) -> "Title" -> t, RootPage() -> "Paper" -> Page(x)
               }"#,
        )
        .unwrap();
        s
    }

    #[test]
    fn pipeline_builds_site_graph() {
        let mut s = pubs_system();
        let build = s.build_site().unwrap();
        assert_eq!(build.pages_of("RootPage").len(), 1);
        assert_eq!(build.pages_of("Page").len(), 3);
        assert_eq!(build.graph.collection_str("Page").unwrap().len(), 3);
    }

    #[test]
    fn pipeline_generates_html() {
        let mut s = pubs_system();
        s.templates_mut()
            .set_collection_template("RootPage", r#"<h1>Pubs</h1><SFMT @Paper ALL DELIM=" | ">"#)
            .unwrap();
        s.templates_mut()
            .set_collection_template("Page", "<SFMT @Title>")
            .unwrap();
        let site = s.generate_site(&["RootPage"]).unwrap();
        assert_eq!(site.pages.len(), 4);
        let root_file = site
            .pages
            .keys()
            .find(|k| k.starts_with("rootpage"))
            .unwrap();
        assert!(site.pages[root_file].contains("<h1>Pubs</h1>"));
    }

    #[test]
    fn multiple_versions_from_same_data() {
        // §1: "a site builder produces multiple sites by applying different
        // site-definition queries to the same underlying data".
        let mut s = pubs_system();
        let v1 = s.build_site().unwrap();
        s.clear_site_queries();
        s.add_site_query(
            r#"{ WHERE Publications(x), x -> "year" -> 1997, x -> "title" -> t
                 CREATE Recent(x) LINK Recent(x) -> "Title" -> t COLLECT R(Recent(x)) }"#,
        )
        .unwrap();
        let v2 = s.build_site().unwrap();
        assert_eq!(v1.pages_of("Page").len(), 3);
        assert_eq!(v2.pages_of("Recent").len(), 1);
    }

    #[test]
    fn composed_queries_share_skolem_table() {
        let mut s = Strudel::new();
        s.add_ddl_source("pubs", r#"object p1 in Publications { title "A" }"#);
        s.add_site_query(r#"{ WHERE Publications(x) CREATE Page(x) }"#)
            .unwrap();
        s.add_site_query(
            r#"{ WHERE Publications(x), x -> "title" -> t CREATE Page(x) LINK Page(x) -> "T" -> t }"#,
        )
        .unwrap();
        let build = s.build_site().unwrap();
        assert_eq!(
            build.pages_of("Page").len(),
            1,
            "Skolem unification across queries"
        );
    }

    #[test]
    fn verify_combines_schema_and_graph() {
        let mut s = pubs_system();
        let (schema_v, exact) = s
            .verify(&Constraint::AllReachableFrom {
                root: "RootPage".into(),
            })
            .unwrap();
        assert_eq!(schema_v, Verdict::Satisfied);
        assert!(exact.is_none());
    }

    #[test]
    fn dynamic_site_expands_root() {
        let mut s = pubs_system();
        let dyn_site = s.dynamic_site().unwrap();
        let roots = dyn_site.roots();
        assert_eq!(roots.len(), 1);
        let links = dyn_site.expand(&roots[0]).unwrap();
        assert_eq!(links.len(), 3);
    }

    #[test]
    fn timed_build_reports_phases_and_page_times() {
        let mut s = pubs_system();
        s.templates_mut()
            .set_collection_template("RootPage", r#"<SFMT @Paper ALL DELIM=" ">"#)
            .unwrap();
        s.templates_mut()
            .set_collection_template("Page", "<SFMT @Title>")
            .unwrap();
        let (site, phases) = s.generate_site_timed(&["RootPage"]).unwrap();
        assert_eq!(site.pages.len(), 4);
        let names: Vec<&str> = phases.entries().iter().map(|(n, _)| n.as_str()).collect();
        const BUILD: [&str; 5] = [
            "evaluate.query",
            "evaluate.construct",
            "evaluate",
            "render",
            "teardown",
        ];
        assert_eq!(names[0], "refresh");
        assert_eq!(names[1..], BUILD);
        assert_eq!(site.render_us.len(), site.pages.len());
        assert!(phases.to_json().starts_with(r#"{"refresh":"#));
        // A second timed build reuses the fresh warehouse: no refresh phase.
        let (_, phases) = s.generate_site_timed(&["RootPage"]).unwrap();
        let names: Vec<&str> = phases.entries().iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, BUILD);
        // The untimed path stays free of per-page timing.
        assert!(s.generate_site(&["RootPage"]).unwrap().render_us.is_empty());
    }

    #[test]
    fn timed_build_phases_add_up_to_the_wall_time() {
        // Everything `generate_site_timed` does happens inside one of its
        // phases — evaluation's two stages, rendering, and freeing the site
        // graph included — so the phases account for the call.
        let mut s = crate::synth::news::system(2_000, 7, false).unwrap();
        let wall = std::time::Instant::now();
        let (site, phases) = s.generate_site_timed(&["FrontPage"]).unwrap();
        let wall_us = wall.elapsed().as_micros() as f64;
        assert!(site.pages.len() > 2_000);
        let of = |name: &str| {
            let entry = phases.entries().iter().find(|(n, _)| n == name);
            entry.unwrap_or_else(|| panic!("no phase {name}")).1
        };
        assert!(of("evaluate.query") > 0 && of("evaluate.construct") > 0);
        let covered = phases.total_us() as f64 / wall_us;
        assert!(
            (0.97..=1.0).contains(&covered),
            "phases cover {covered:.3} of the call: {}",
            phases.to_json()
        );
    }

    #[test]
    fn missing_query_is_a_pipeline_error() {
        let mut s = Strudel::new();
        s.add_ddl_source("x", "object a { k 1 }");
        assert!(matches!(s.build_site(), Err(StrudelError::Pipeline(_))));
    }

    #[test]
    fn missing_roots_is_a_pipeline_error() {
        let mut s = pubs_system();
        assert!(matches!(
            s.generate_site(&["Nope"]),
            Err(StrudelError::Pipeline(_))
        ));
    }
}
