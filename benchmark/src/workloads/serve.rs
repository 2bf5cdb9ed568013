//! The serve group: paced, closed and hub traffic against a click-time
//! server, and the per-request layer split of a traced run.

use super::build::News;
use super::{set_up, Clock, Env, ServePlan, Traffic, PACED_RATE};
use crate::client::{self, closed_loop, paced_loop, verified_get, Conn, Page};
use crate::stats::{median, quiet, Picker, Rng};
use crate::sut::{self, Result};
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// A parsed news graph with what is needed to address its pages.
pub(super) struct Served {
    pub(super) news: News,
    pub(super) graph: sut::Graph,
    /// Position of article `a` in `graph.nodes()`.
    pub(super) position: Vec<u32>,
    pub(super) query: sut::Query,
}

impl Served {
    pub(super) fn load(n: usize, seed: u64) -> Result<Served> {
        let news = News::generate(n, seed)?;
        let graph = sut::parse_ddl(&news.text)?;
        let position = sut::article_positions(&graph, n)?;
        Ok(Served {
            news,
            graph,
            position,
            query: sut::news_query()?,
        })
    }

    pub(super) fn node(&self, a: usize) -> sut::Oid {
        self.graph.nodes()[self.position[a] as usize]
    }

    pub(super) fn leaves(&self) -> usize {
        2 * self.news.n
    }

    /// Leaf `l`: the article page of article `l/2`, or its summary.
    fn leaf_ref(&self, l: usize) -> sut::PageRef {
        let node = self.node(l / 2);
        if l.is_multiple_of(2) {
            sut::article_page(node)
        } else {
            sut::summary(node)
        }
    }

    pub(super) fn leaf(&self, l: usize) -> Page {
        Page {
            url: sut::page_url(&self.leaf_ref(l)),
            needle: self.news.needle(l / 2),
        }
    }
}

/// Tells servers to quit when dropped, so that a failing or panicking run
/// cannot leave the scope waiting for a server thread.
pub(super) struct Quit(pub(super) Vec<SocketAddr>);

impl Drop for Quit {
    fn drop(&mut self) {
        for addr in &self.0 {
            if let Ok(mut c) = Conn::open(*addr) {
                let _ = c.get("/quit");
            }
        }
    }
}

/// Runs `f` against `server` while it serves on a thread of its own.
pub(super) fn serving<R>(
    server: &sut::Server<'_>,
    f: impl FnOnce(SocketAddr) -> Result<R>,
) -> Result<R> {
    let addr = server.addr()?;
    std::thread::scope(|s| {
        let handle = s.spawn(|| server.serve(None));
        let quit = Quit(vec![addr]);
        let out = f(addr);
        drop(quit);
        handle.join().map_err(|_| "the server thread panicked")??;
        out
    })
}

/// The set-up of a serve group: everything up to a bound server. What is
/// kept is the graph it would serve; `run` binds the server again.
pub(super) fn serve_set_up(env: &mut Env, plan: &ServePlan, primary: bool) -> Result<Served> {
    let (seed, cache) = (env.seed, env.scale.cache());
    set_up(env, primary, || {
        let served = Served::load(plan.n, seed)?;
        sut::bind(sut::dynamic_site(&served.graph, &served.query, cache)?)?;
        Ok(served)
    })
}

/// A serve group while its server runs: the paced and hub phases and the
/// samples they have taken so far.
pub(super) struct Serving<'a> {
    served: &'a Served,
    server: &'a sut::Server<'a>,
    addr: SocketAddr,
    traffic: Option<LeafTraffic<'a>>,
    hubs: Option<HubTraffic>,
    /// Requests sent to this server, to reconcile with its own count.
    sent: u64,
}

struct LeafTraffic<'a> {
    plan: &'a Traffic,
    /// The leaves requested, the pages they are, and how one is picked.
    leaves: Vec<usize>,
    pages: Vec<Page>,
    picker: Picker,
    clock: Clock,
    /// The paced phase so far: its latencies in the order each connection
    /// took them, and how many of its verified requests were sent late.
    paced_us: Vec<f64>,
    paced_ok: u64,
    paced_late: u64,
    /// Page-cache hits, misses and evictions while leaf traffic ran.
    cache: [u64; 3],
}

impl LeafTraffic<'_> {
    /// Runs one traffic phase, booking what it did to the page cache.
    fn phase(
        &mut self,
        server: &sut::Server<'_>,
        run: impl FnOnce(&Self) -> client::Traffic,
    ) -> client::Traffic {
        let before = server.site().stats();
        let traffic = run(self);
        let after = server.site().stats();
        self.cache[0] += after.cache_hits - before.cache_hits;
        self.cache[1] += after.cache_misses - before.cache_misses;
        self.cache[2] += after.evictions - before.evictions;
        traffic
    }

    /// Which side of the page cache the traffic ran on is part of the
    /// workload: hot traffic must hit, cold traffic must miss. Returns the
    /// hit ratio.
    fn require_cache_side(&self, env: &mut Env) -> f64 {
        let [hits, misses, _] = self.cache;
        let hit_ratio = hits as f64 / (hits + misses).max(1) as f64;
        env.report.require(
            if self.plan.hot {
                hit_ratio >= 0.99
            } else {
                hit_ratio <= 0.5
            },
            || format!("page-cache hit ratio {hit_ratio:.3} is on the wrong side for this traffic"),
        );
        hit_ratio
    }
}

struct HubTraffic {
    pages: Vec<Page>,
    clock: Clock,
    /// Per page, the time of each cold request for it.
    cold_ms: Vec<Vec<f64>>,
    /// Per warm pass, the mean over its pages.
    warm_ms: Vec<f64>,
}

/// Requests that make a window of [`quiet`]: at 2,000 a second and
/// connection, 50 ms of traffic.
const PACED_WINDOW: usize = 100;

/// Lets the page cache fill before timing: users of a hot site do not pay
/// for its first touch on every request. Returns the requests sent.
fn warm(env: &mut Env, addr: SocketAddr, plan: &Traffic, pages: &[Page]) -> Result<u64> {
    if !plan.hot {
        return Ok(0);
    }
    let mut conn = Conn::open(addr)?;
    for page in pages {
        env.report.check(verified_get(&mut conn, page).is_some());
    }
    Ok(pages.len() as u64)
}

impl<'a> Serving<'a> {
    pub(super) fn start(
        env: &mut Env,
        plan: &'a ServePlan,
        served: &'a Served,
        server: &'a sut::Server<'a>,
    ) -> Result<Serving<'a>> {
        let addr = server.addr()?;
        let mut sent = 0;
        let traffic = match &plan.traffic {
            None => None,
            Some(plan) => {
                let mut rng = Rng::new(env.seed, 2);
                let (leaves, picker): (Vec<usize>, Picker) = if plan.hot {
                    let set = rng.distinct(env.scale.hot_pages(), served.leaves());
                    let picker = Picker::zipf(set.len(), 1.1);
                    (set, picker)
                } else {
                    (
                        (0..served.leaves()).collect(),
                        Picker::Uniform(served.leaves()),
                    )
                };
                let pages: Vec<Page> = leaves.iter().map(|l| served.leaf(*l)).collect();
                sent += warm(env, addr, plan, &pages)?;
                Some(LeafTraffic {
                    plan,
                    leaves,
                    pages,
                    picker,
                    clock: env.clock(plan.share),
                    paced_us: Vec::new(),
                    paced_ok: 0,
                    paced_late: 0,
                    cache: [0; 3],
                })
            }
        };
        // The front page links its sections, a section page its stories.
        let hubs = plan.hub_share.map(|share| HubTraffic {
            pages: sut::hubs()
                .iter()
                .map(|h| Page {
                    url: sut::page_url(h),
                    needle: if h.args.is_empty() {
                        "Section"
                    } else {
                        "Story"
                    }
                    .into(),
                })
                .collect(),
            clock: env.clock(share),
            cold_ms: vec![Vec::new(); sut::hubs().len()],
            warm_ms: Vec::new(),
        });
        Ok(Serving {
            served,
            server,
            addr,
            traffic,
            hubs,
            sent,
        })
    }

    pub(super) fn step(&mut self, env: &mut Env, round: usize) -> Result<()> {
        // Hub phase, on one connection: from an emptied page cache, one
        // pass over the eight hub pages cold, then — in a traced run, which
        // alone reports them — two passes warm.
        if let Some(h) = &mut self.hubs {
            let mut conn = Conn::open(self.addr)?;
            let passes = if env.traced { 3 } else { 1 };
            while h.clock.due(round) {
                self.server.site().cache_clear();
                for pass in 0..passes {
                    let mut ms = 0.0;
                    for (page, cold_ms) in h.pages.iter().zip(&mut h.cold_ms) {
                        let open = env.rec.enter("http.get_hub", "serve");
                        let ok = verified_get(&mut conn, page).is_some();
                        let took = env.rec.exit(open);
                        h.clock.spent += took;
                        ms += took.as_secs_f64() * 1e3;
                        if pass == 0 {
                            cold_ms.push(took.as_secs_f64() * 1e3);
                        }
                        env.report.check(ok);
                    }
                    if pass > 0 {
                        h.warm_ms.push(ms / h.pages.len() as f64);
                    }
                }
                self.sent += (passes * h.pages.len()) as u64;
                if env.traced {
                    break;
                }
            }
        }
        // Paced phase: an open loop of independent readers, one slice a
        // round. Its median is the latency the benchmark gates.
        if let Some(t) = &mut self.traffic {
            if self.hubs.is_some() {
                // The hub phase emptied the page cache this traffic shares.
                self.sent += warm(env, self.addr, t.plan, &t.pages)?;
            }
            let open = env.rec.enter("traffic.paced", "bench");
            let seed = env.seed.wrapping_add(round as u64);
            let slice = t.clock.slice();
            let addr = self.addr;
            let paced = t.phase(self.server, |t| {
                paced_loop(addr, &t.pages, &t.picker, seed, PACED_RATE, slice)
            });
            t.clock.spent += slice;
            env.rec.exit(open);
            env.report.checks(paced.attempted(), paced.failed);
            self.sent += paced.attempted();
            t.paced_ok += paced.ok;
            t.paced_late += paced.late;
            t.paced_us.extend(paced.latency_us);
        }
        Ok(())
    }

    pub(super) fn finish(mut self, env: &mut Env) -> Result<()> {
        if let Some(h) = &mut self.hubs {
            // The mean over the pages (they differ in size, and a median
            // would pick one) of what each page took at its own quiet
            // moments — not the quietest pass: a pass is long enough to
            // catch a disturbance somewhere. A traced run has one pass.
            let cold =
                h.cold_ms.iter().map(|page| quiet(page, 1)).sum::<f64>() / h.pages.len() as f64;
            if env.traced {
                let r = &mut env.report;
                r.put("serve.hub_cold_p50_ms", cold, "ms");
                r.put_timing("serve.hub_warm_p50_ms", &mut h.warm_ms, "ms");
                traced_hubs(env, self.served)?;
            } else {
                env.report.put("hub_cold_p50_ms", cold, "ms");
            }
        }
        let Some(mut t) = self.traffic.take() else {
            return Ok(());
        };
        // A median stands late sends (a shared host stalls the generator
        // now and then); with a quarter of them late the schedule did not
        // hold. That is the host's doing and says nothing about what the
        // program answered: a warning, and a metric of the traced run.
        let late_ratio = t.paced_late as f64 / t.paced_ok.max(1) as f64;
        env.report.warn(late_ratio <= 0.25, || {
            format!(
                "{:.1} % of paced sends left over 1 ms late",
                late_ratio * 100.0
            )
        });
        let server_p50 = self.server.stats().latency_p50_us;
        if !env.traced {
            t.require_cache_side(env);
            env.report
                .put_quiet("get_p50_us", &mut t.paced_us, PACED_WINDOW, "us");
            return Ok(());
        }

        // Closed phase, traced runs only: callers that each wait for their
        // answer. Its throughput follows the host's wake-up latency more
        // than the program (see README), so it carries no bound.
        let open = env.rec.enter("traffic.closed", "bench");
        let (addr, seed, dur) = (self.addr, env.seed, t.clock.budget);
        let closed = t.phase(self.server, |t| {
            closed_loop(addr, &t.pages, &t.picker, seed, dur)
        });
        env.rec.exit(open);
        env.report.checks(closed.attempted(), closed.failed);
        self.sent += closed.attempted();
        let hit_ratio = t.require_cache_side(env);

        let r = &mut env.report;
        r.put(
            "serve.closed_rps",
            closed.ok as f64 / closed.wall.as_secs_f64(),
            "1/s",
        );
        let client_p50 = r
            .put_timing("serve.paced_p50_us", &mut t.paced_us, "us")
            .p50;
        r.put(
            "serve.paced_p99_us",
            crate::stats::quantile(&t.paced_us, 0.99),
            "us",
        );
        r.put(
            "serve.client_minus_server_p50_us",
            client_p50 - server_p50 as f64,
            "us",
        );
        r.put("site.hit_ratio", hit_ratio, "ratio");
        r.put("site.evictions", t.cache[2] as f64, "count");
        r.put("bench.paced_late_ratio", late_ratio, "ratio");
        self.sent += traced_requests(
            env,
            self.served,
            self.server,
            &t.leaves,
            &t.pages,
            &t.picker,
        )?;
        // Every request this client sent was counted by the server, no more
        // (the server counts an answer after writing it, so give the last
        // one a moment — seconds, if the host stalls the worker just then).
        for _ in 0..5_000 {
            if self.server.stats().requests >= self.sent {
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        let reconciled = self.server.stats().requests as f64 / self.sent as f64;
        env.report
            .put("serve.requests_reconciled", reconciled, "ratio");
        env.report.require(reconciled == 1.0, || {
            format!("server counted {reconciled} of the requests sent")
        });
        Ok(())
    }
}

/// The per-request layer split, from outside: a fixed sequence of `GET`s on
/// one connection, each a span, with the direct `expand` of the same page —
/// replayed in the same order on a fresh site with the same cache bounds —
/// attributed inside it. One connection and fixed counts, so that spans
/// nest on one thread and the exact counts repeat.
fn traced_requests(
    env: &mut Env,
    served: &Served,
    server: &sut::Server<'_>,
    leaves: &[usize],
    pages: &[Page],
    picker: &Picker,
) -> Result<u64> {
    let mut rng = Rng::new(env.seed, 3);
    let sequence: Vec<usize> = (0..env.fixed(4_000))
        .map(|_| picker.pick(&mut rng))
        .collect();
    let refs: Vec<sut::PageRef> = leaves.iter().map(|l| served.leaf_ref(*l)).collect();
    let cache = env.scale.cache();

    // Replay on a fresh site.
    let replay = fresh_site(served, cache)?;
    let base = replay.stats();
    let mut expand = Vec::with_capacity(sequence.len());
    for &i in &sequence {
        let t = Instant::now();
        std::hint::black_box(replay.expand(&refs[i])?);
        expand.push(t.elapsed());
    }
    let stats = replay.stats();
    let plans = replay.plan_cache_stats();
    env.report.put(
        "struql.clause_queries",
        (stats.clause_queries - base.clause_queries) as f64,
        "count",
    );
    env.report.put(
        "struql.plan_cache_hit_ratio",
        plans.hits as f64 / (plans.hits + plans.misses).max(1) as f64,
        "ratio",
    );

    // The same sequence over HTTP from a cold page cache, spans off and on:
    // the difference prices the spans. On a connection opened only now and
    // used without a pause: the server closes one that rests for seconds.
    let conn = &mut Conn::open(server.addr()?)?;
    let mut bytes = 0u64;
    let mut pass = |env: &mut Env, spans: bool| {
        server.site().cache_clear();
        env.rec.set_enabled(spans);
        bytes = 0;
        let mut lat = Vec::with_capacity(sequence.len());
        for (k, &i) in sequence.iter().enumerate() {
            let open = env.rec.enter("http.get", "serve");
            let got = verified_get(conn, &pages[i]);
            env.rec.attribute("site.expand", "site", expand[k]);
            lat.push(env.rec.exit(open).as_secs_f64() * 1e6);
            env.report.check(got.is_some());
            bytes += got.unwrap_or(0) as u64;
        }
        lat
    };
    let (mut plain, mut traced) = (pass(env, false), pass(env, true));
    let mut sent = 2 * sequence.len() as u64;
    let mut overhead: Vec<f64> = traced
        .iter()
        .zip(&expand)
        .map(|(get, e)| get - e.as_secs_f64() * 1e6)
        .collect();
    let r = &mut env.report;
    r.put_timing("serve.overhead_p50_us", &mut overhead, "us");
    r.put(
        "serve.overhead_p99_us",
        crate::stats::quantile(&overhead, 0.99),
        "us",
    );
    r.put(
        "bench.trace_overhead_ratio",
        median(&mut traced) / median(&mut plain),
        "ratio",
    );
    r.put(
        "serve.bytes_per_response",
        bytes as f64 / sequence.len() as f64,
        "count",
    );

    // What a new connection costs over a kept one, on a cached page.
    let page = &pages[sequence[0]];
    let (mut kept, mut new) = (Vec::new(), Vec::new());
    for _ in 0..env.fixed(200) {
        let t = Instant::now();
        env.report.check(verified_get(conn, page).is_some());
        kept.push(t.elapsed().as_secs_f64() * 1e6);
        let t = Instant::now();
        let mut c = Conn::open(server.addr()?)?;
        env.report.check(verified_get(&mut c, page).is_some());
        new.push(t.elapsed().as_secs_f64() * 1e6);
        sent += 2;
    }
    env.report.put(
        "serve.connect_us",
        median(&mut new) - median(&mut kept),
        "us",
    );

    // Hit and miss cost of `expand` alone: first and second touch of the
    // sequence's distinct pages, as many as the cache holds.
    let fresh = fresh_site(served, cache)?;
    let mut distinct: Vec<usize> = Vec::new();
    for &i in &sequence {
        if distinct.len() < env.scale.hot_pages() && !distinct.contains(&i) {
            distinct.push(i);
        }
    }
    for name in ["site.expand_miss_us", "site.expand_hit_us"] {
        let mut times = Vec::with_capacity(distinct.len());
        for &i in &distinct {
            let t = Instant::now();
            std::hint::black_box(fresh.expand(&refs[i])?);
            times.push(t.elapsed().as_secs_f64() * 1e6);
        }
        env.report.put_timing(name, &mut times, "us");
    }
    Ok(sent)
}

/// A site of its own over the served graph, its plans compiled by one
/// expansion per page kind, its page cache empty.
fn fresh_site(served: &Served, cache: sut::CacheConfig) -> Result<sut::DynamicSite<'_>> {
    let site = sut::dynamic_site(&served.graph, &served.query, cache)?;
    site.expand(&served.leaf_ref(0))?;
    site.expand(&served.leaf_ref(1))?;
    site.cache_clear();
    Ok(site)
}

/// The hub pages expanded directly, on a fresh site: what of a hub request
/// is `expand`.
fn traced_hubs(env: &mut Env, served: &Served) -> Result<()> {
    let site = sut::dynamic_site(&served.graph, &served.query, env.scale.cache())?;
    let hubs = sut::hubs();
    let (mut cold, mut warm, mut links) = (Vec::new(), Vec::new(), 0usize);
    for pass in 0..3 {
        let mut ms = 0.0;
        for hub in &hubs {
            let (out, took) = env.rec.call("site.expand_hub", "site", || site.expand(hub));
            ms += took.as_secs_f64() * 1e3;
            if pass == 0 {
                links += out?.len();
            }
        }
        if pass == 0 { &mut cold } else { &mut warm }.push(ms / hubs.len() as f64);
    }
    env.report
        .put_timing("site.hub_expand_cold_ms", &mut cold, "ms");
    env.report
        .put_timing("site.hub_expand_warm_ms", &mut warm, "ms");
    env.report.put("site.hub_links", links as f64, "count");
    Ok(())
}
