//! The build group: `generate_site` of one site, repeated; in a traced run
//! the same build layer by layer, then publication.

use super::{set_up, BuildPlan, Clock, Env};
use crate::stats::Rng;
use crate::sut::{self, Result, SiteInput};
use std::time::Instant;

/// The news corpus and what the harness knows about it without the
/// program's help: each article's headline and the sections in use.
pub(super) struct News {
    pub(super) n: usize,
    pub(super) text: String,
    headlines: Vec<String>,
    sections: usize,
}

impl News {
    pub(super) fn generate(n: usize, seed: u64) -> Result<News> {
        let text = sut::news_ddl(n, seed);
        let quoted = |line: &str, key: &str| {
            line.trim_start()
                .strip_prefix(key)
                .and_then(|r| r.trim().strip_prefix('"'))
                .and_then(|r| r.strip_suffix('"'))
                .map(str::to_string)
        };
        let headlines: Vec<String> = text
            .lines()
            .filter_map(|l| quoted(l, "headline "))
            .collect();
        if headlines.len() != n {
            return Err(format!("{} headlines for {n} articles", headlines.len()).into());
        }
        let sections: std::collections::BTreeSet<String> =
            text.lines().filter_map(|l| quoted(l, "section ")).collect();
        Ok(News {
            n,
            text,
            headlines,
            sections: sections.len(),
        })
    }

    /// What a page showing article `a` must contain.
    pub(super) fn needle(&self, a: usize) -> String {
        self.headlines[a].clone()
    }
}

/// The build group: `generate_site` of one site, over and over.
pub(super) struct Build {
    input: SiteInput,
    news: Option<News>,
    members: usize,
    jobs: usize,
    clock: Clock,
    times: Vec<f64>,
    /// The last site built, and the digest every repetition must have.
    site: Option<sut::GeneratedSite>,
    digest: Option<String>,
}

impl Build {
    pub(super) fn set_up(env: &mut Env, plan: &BuildPlan, primary: bool) -> Result<Build> {
        let seed = env.seed;
        let jobs = sut::build_jobs();
        let mut news = None;
        let input = set_up(env, primary, || {
            let input = match plan.news {
                Some(n) => {
                    // The text moves into the input; the headlines stay.
                    let mut corpus = News::generate(n, seed)?;
                    let input = SiteInput::News(std::mem::take(&mut corpus.text));
                    news = Some(corpus);
                    input
                }
                None => SiteInput::Org(Box::new(sut::org_input(plan.members, seed))),
            };
            input.system(jobs)?;
            Ok(input)
        })?;
        Ok(Build {
            input,
            news,
            members: plan.members,
            jobs,
            clock: env.clock(plan.share),
            times: Vec::new(),
            site: None,
            digest: None,
        })
    }

    pub(super) fn step(&mut self, env: &mut Env, round: usize) -> Result<()> {
        let _cores = crate::host::AllCores::enter();
        if env.traced {
            let site = traced_build(env, &self.input, self.jobs)?;
            publish(env, &site)?;
            self.site = Some(site);
            return Ok(());
        }
        while self.clock.due(round) {
            drop(self.site.take());
            let mut system = self.input.system(self.jobs)?;
            let t = Instant::now();
            let site = system.generate_site(self.input.roots())?;
            let took = t.elapsed();
            self.clock.spent += took;
            self.times.push(took.as_secs_f64());
            // Building is deterministic: every repetition is the same site.
            let digest = site_digest(&site);
            env.report
                .check(self.digest.get_or_insert_with(|| digest.clone()) == &digest);
            self.site = Some(site);
        }
        Ok(())
    }

    pub(super) fn finish(mut self, env: &mut Env) -> Result<()> {
        let site = self.site.take().ok_or("the build group never ran")?;
        if !env.traced {
            env.report.put_quiet("build_s", &mut self.times, 1, "s");
        }
        check_built_site(env, &site, self.news.as_ref(), self.members);
        let digest = self.digest.take().unwrap_or_else(|| site_digest(&site));
        env.report.digests.insert("site", digest);
        env.report
            .digests
            .insert("site_pages", site.pages.len().to_string());
        Ok(())
    }
}

/// The build, layer by layer: the same three calls `generate_site` makes,
/// each under its own span.
fn traced_build(env: &mut Env, input: &SiteInput, jobs: usize) -> Result<sut::GeneratedSite> {
    let mut system = input.system(jobs)?;
    let root = env.rec.enter("build", "bench");
    let (edges, load) = env.rec.call("strudel.data_graph", "wrappers", || {
        system.data_graph().map(|g| g.edge_count())
    });
    let edges = edges?;
    let (build, eval) = env
        .rec
        .call("strudel.build_site", "struql", || system.build_site());
    let build = build?;
    let (site, render) = env.rec.call("generator.generate", "template", || {
        sut::render(&mut system, &build, input.roots(), jobs)
    });
    let site = site?;
    env.rec.exit(root);

    let r = &mut env.report;
    r.put("wrappers.load_s", load.as_secs_f64(), "s");
    r.put(
        "wrappers.edges_per_s",
        edges as f64 / load.as_secs_f64(),
        "1/s",
    );
    r.put("struql.eval_s", eval.as_secs_f64(), "s");
    let rows = sut::rows_examined(&build);
    r.put("struql.rows_examined", rows as f64, "count");
    r.put(
        "struql.rows_per_site_edge",
        rows as f64 / build.graph.edge_count().max(1) as f64,
        "ratio",
    );
    r.put("template.render_s", render.as_secs_f64(), "s");
    r.put("template.pages", site.pages.len() as f64, "count");
    r.put("template.bytes", site.total_bytes() as f64, "count");
    r.put(
        "template.pages_per_s",
        site.pages.len() as f64 / render.as_secs_f64(),
        "1/s",
    );
    drop(build);

    // The same evaluation on one worker: what the parallel operators buy.
    let mut serial = input.system(1)?;
    serial.data_graph()?;
    let (one, serial_eval) = env
        .rec
        .call("strudel.build_site.jobs1", "struql", || serial.build_site());
    drop(one?);
    env.report.put(
        "struql.par_speedup",
        serial_eval.as_secs_f64() / eval.as_secs_f64(),
        "ratio",
    );

    let (parsed, parse) = env
        .rec
        .call("ddl.parse", "graph", || sut::parse_ddl(input.ddl_text()));
    drop(parsed?);
    env.report
        .put("graph.ddl_parse_s", parse.as_secs_f64(), "s");
    Ok(site)
}

/// FNV-1a over every `(name, html)` of a generated site, in name order.
fn site_digest(site: &sut::GeneratedSite) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for b in bytes {
            h = (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for (name, html) in &site.pages {
        eat(name.as_bytes());
        eat(&[0]);
        eat(html.as_bytes());
        eat(&[0]);
    }
    format!("{h:016x}")
}

/// Page census of a built site against what the inputs imply.
fn check_built_site(env: &mut Env, site: &sut::GeneratedSite, news: Option<&News>, members: usize) {
    match news {
        Some(news) => {
            // One page per article, one per section in use, one front page.
            env.report
                .check(site.pages.len() == news.n + news.sections + 1);
            // Every article's headline is the <h1> of exactly one page.
            let titled = site
                .pages
                .values()
                .filter_map(|html| html.split_once("<h1>")?.1.split_once("</h1>"))
                .map(|(h1, _)| h1)
                .collect::<std::collections::HashSet<_>>();
            let missing = news
                .headlines
                .iter()
                .filter(|h| !titled.contains(h.as_str()))
                .count();
            env.report.checks(news.n as u64, missing as u64);
        }
        // A home page per member at least, and nothing unrendered.
        None => env.report.check(site.pages.len() > members),
    }
    env.report
        .check(site.pages.values().all(|html| !html.is_empty()));
}

/// Publishes the site into a fresh directory and reads it back. Traced
/// runs only: one fsync per page makes this the disk's time, which does not
/// repeat well enough on a shared host to carry a bound.
fn publish(env: &mut Env, site: &sut::GeneratedSite) -> Result<()> {
    // The first pages by name, as many as fit the run: one fsync each.
    let site = &sut::GeneratedSite {
        pages: site
            .pages
            .iter()
            .take(env.fixed(4_000))
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect(),
        ..Default::default()
    };
    let dir = env.scratch.join("publish");
    let _ = std::fs::remove_dir_all(&dir);
    let (written, took) = env
        .rec
        .call("site.write_to_dir", "graph", || site.write_to_dir(&dir));
    written?;
    let on_disk = std::fs::read_dir(&dir)?.count();
    env.report.check(on_disk == site.pages.len());
    let mut rng = Rng::new(env.seed, 1);
    let names: Vec<&String> = site.pages.keys().collect();
    for _ in 0..50.min(names.len()) {
        let name = names[rng.below(names.len())];
        let same = std::fs::read(dir.join(name)).is_ok_and(|b| b == site.pages[name].as_bytes());
        env.report.check(same);
    }
    std::fs::remove_dir_all(&dir)?;
    let per_page = took.as_secs_f64() * 1e6 / site.pages.len() as f64;
    env.report.put("graph.fsio_us_per_page", per_page, "us");
    Ok(())
}
