//! The store group: commit → fresh-page cycles with reads in between, and
//! restarts, over the paged store.

use super::serve::{serving, Quit, Served};
use super::{set_up, Clock, Env, StorePlan, READS_PER_CYCLE};
use crate::client::{self, verified_get, Conn, Page};
use crate::stats::{Picker, Rng};
use crate::sut::{self, Result};
use std::path::PathBuf;
use std::time::Instant;

/// One correction edge the churn cycles committed and have not removed.
struct Live {
    article: usize,
    text: String,
}

/// A commit whose page has not been served yet.
struct Pending {
    /// The `fresh` root span, open since the commit began.
    open: crate::trace::Open,
    started: Instant,
    article: usize,
    text: String,
    insert: bool,
}

/// The store group: news imported into a paged store, served from an
/// in-memory graph that every commit is also applied to.
pub(super) struct Store {
    served: Served,
    /// `None` only while a restart has it dropped.
    store: Option<sut::PagedStore>,
    path: PathBuf,
    restarts: usize,
    restarts_done: usize,
    clock: Clock,
    rng: Rng,
    /// The pages the reads between commits go to, zipf-distributed.
    hot: Vec<Page>,
    picker: Picker,
    live: Vec<Live>,
    /// The page cache of the last server, restored into the next.
    snapshot: Option<sut::CacheSnapshot>,
    cycle: usize,
    fresh_us: Vec<f64>,
    read_us: Vec<f64>,
    restart_ms: Vec<f64>,
    layers: StoreLayers,
}

/// What a traced run reads off the store group, layer by layer.
#[derive(Default)]
struct StoreLayers {
    commit_us: Vec<f64>,
    commit_fsyncs: u64,
    commit_wal_bytes: u64,
    checkpoint_ms: Vec<f64>,
    checkpoint_pages: u64,
    invalidate_us: Vec<f64>,
    invalidated: u64,
    rebind_us: Vec<f64>,
    bind_quit_us: Vec<f64>,
    open_ms: Vec<f64>,
    materialize_ms: Vec<f64>,
    recovered_frames: u64,
    page_cache: (u64, u64),
}

impl Store {
    pub(super) fn set_up(env: &mut Env, plan: &StorePlan, primary: bool) -> Result<Store> {
        let (seed, cache) = (env.seed, env.scale.cache());
        let path = env.scratch.join("data.pdb");
        let mut import_s = 0.0;
        let (served, mut store) = set_up(env, primary, || {
            let served = Served::load(plan.n, seed)?;
            let _ = std::fs::remove_file(&path);
            let t = Instant::now();
            let store = sut::store_import(&path, &served.graph)?;
            import_s = t.elapsed().as_secs_f64();
            sut::bind(sut::dynamic_site(&served.graph, &served.query, cache)?)?;
            Ok((served, store))
        })?;
        if env.traced {
            let bytes = std::fs::metadata(&path)?.len();
            let r = &mut env.report;
            r.put("graph.store_import_s", import_s, "s");
            r.put(
                "graph.store_bytes_per_edge",
                bytes as f64 / served.graph.edge_count() as f64,
                "ratio",
            );
        }
        // The store numbers nodes by position in its own graph's member
        // order; the served graph was parsed from the same text.
        let same_order = sut::article_positions(store.graph()?, plan.n)? == served.position;
        env.report.require(same_order, || {
            "store and parsed graph order nodes differently".into()
        });

        let mut rng = Rng::new(env.seed, 4);
        let hot = rng.distinct(env.scale.hot_pages(), served.leaves());
        let hot: Vec<Page> = hot.into_iter().map(|l| served.leaf(l)).collect();
        Ok(Store {
            picker: Picker::zipf(hot.len(), 1.1),
            hot,
            served,
            store: Some(store),
            path,
            restarts: plan.restarts,
            restarts_done: 0,
            clock: env.clock(plan.share),
            rng,
            live: Vec::new(),
            snapshot: None,
            cycle: 0,
            fresh_us: Vec::new(),
            read_us: Vec::new(),
            restart_ms: Vec::new(),
            layers: StoreLayers::default(),
        })
    }

    pub(super) fn step(&mut self, env: &mut Env, round: usize) -> Result<()> {
        self.churn(env, round)?;
        // This round's part of the restarts.
        let upto = (self.restarts * (round + 1)).div_ceil(env.rounds());
        while self.restarts_done < upto {
            self.restart(env)?;
            self.restarts_done += 1;
        }
        Ok(())
    }

    /// Commit → fresh page cycles, reads in between: one slice of them.
    ///
    /// One driver thread. Each cycle: commit one correction edge to the
    /// store (insert, or remove the oldest live one), snapshot the page
    /// cache, stop the server, apply the edge to the served graph, bind a
    /// new site over it with the snapshot restored, invalidate the delta,
    /// serve, and `GET` the affected article page on a new connection until
    /// it verifiably shows (or no longer shows) the correction. Then
    /// `READS_PER_CYCLE` zipf reads on a keep-alive connection, which should
    /// still hit the restored cache. The slice ends on a cycle that serves
    /// the last commit's page and commits nothing.
    fn churn(&mut self, env: &mut Env, round: usize) -> Result<()> {
        let cache = env.scale.cache();
        let fixed = env.traced.then(|| env.fixed(300));
        let checkpoint_every = fixed.map_or(250, |c| c / 3).max(1);
        let store = self.store.as_mut().expect("no restart is under way");
        let slice_start = self.cycle;
        let mut pending: Option<Pending> = None;
        loop {
            let in_slice = self.cycle - slice_start;
            let last = fixed.map_or(!self.clock.due(round) && in_slice >= 2, |c| in_slice >= c);
            let t = Instant::now();

            // Bind a site over the graph as it now is.
            let served = &self.served;
            let snapshot = &mut self.snapshot;
            let (site, rebind) = env.rec.call("site.rebind", "site", || -> Result<_> {
                let site = sut::dynamic_site(&served.graph, &served.query, cache)?;
                if let Some(snap) = snapshot.take() {
                    site.cache_restore(snap);
                }
                Ok(site)
            });
            let site = site?;
            if let Some(p) = &pending {
                self.layers.rebind_us.push(rebind.as_secs_f64() * 1e6);
                let delta =
                    sut::correction_delta(&served.graph, served.node(p.article), &p.text, p.insert);
                let (dropped, took) = env
                    .rec
                    .call("site.invalidate", "site", || site.invalidate(&delta));
                self.layers.invalidated += dropped;
                self.layers.invalidate_us.push(took.as_secs_f64() * 1e6);
            }
            let open = env.rec.enter("serve.bind", "serve");
            let server = sut::bind(site)?;
            let addr = server.addr()?;
            std::thread::scope(|s| -> Result<()> {
                let handle = s.spawn(|| server.serve(None));
                let quit = Quit(vec![addr]);
                let bind = env.rec.exit(open);

                // The page the pending commit changed, on a new connection.
                if let Some(p) = pending.take() {
                    let url = sut::page_url(&sut::article_page(served.node(p.article)));
                    let headline = served.news.needle(p.article);
                    let open = env.rec.enter("http.get_fresh", "serve");
                    let mut conn = Conn::open(addr)?;
                    let ok = conn.get(&url).is_ok_and(|(status, body)| {
                        status == 200
                            && client::contains(body, headline.as_bytes())
                            && client::contains(body, p.text.as_bytes()) == p.insert
                    });
                    env.rec.exit(open);
                    env.rec.exit(p.open);
                    self.fresh_us.push(p.started.elapsed().as_secs_f64() * 1e6);
                    env.report.check(ok);
                }

                // Reads beside the writes.
                let mut conn = Conn::open(addr)?;
                for _ in 0..READS_PER_CYCLE {
                    let page = &self.hot[self.picker.pick(&mut self.rng)];
                    let t = Instant::now();
                    env.report.check(verified_get(&mut conn, page).is_some());
                    self.read_us.push(t.elapsed().as_secs_f64() * 1e6);
                }

                if !last && self.cycle > 0 && self.cycle.is_multiple_of(checkpoint_every) {
                    let before = sut::storage_stats().checkpoint_pages_written;
                    let (done, took) = env
                        .rec
                        .call("store.checkpoint", "graph", || store.checkpoint());
                    done?;
                    self.layers.checkpoint_ms.push(took.as_secs_f64() * 1e3);
                    self.layers.checkpoint_pages +=
                        sut::storage_stats().checkpoint_pages_written - before;
                }

                if !last {
                    // Insert a correction, or — once a few are live —
                    // remove the oldest, alternately.
                    let insert = self.live.len() < 4 || self.cycle.is_multiple_of(2);
                    let (article, text) = if insert {
                        (
                            self.rng.below(served.news.n),
                            format!("correction {}", self.cycle),
                        )
                    } else {
                        let oldest = self.live.remove(0);
                        (oldest.article, oldest.text)
                    };
                    let started = Instant::now();
                    let open = env.rec.enter("fresh", "bench");
                    let position = served.position[article];
                    let before = sut::storage_stats();
                    let (committed, took) = env.rec.call("store.commit", "graph", || {
                        sut::store_commit_correction(store, position, &text, insert)
                    });
                    committed?;
                    let after = sut::storage_stats();
                    self.layers.commit_us.push(took.as_secs_f64() * 1e6);
                    self.layers.commit_fsyncs += after.wal_fsyncs - before.wal_fsyncs;
                    self.layers.commit_wal_bytes += after.wal_bytes - before.wal_bytes;
                    if insert {
                        self.live.push(Live {
                            article,
                            text: text.clone(),
                        });
                    }
                    let (snap, _) = env.rec.call("site.cache_snapshot", "site", || {
                        server.site().cache_snapshot()
                    });
                    *snapshot = Some(snap);
                    pending = Some(Pending {
                        open,
                        started,
                        article,
                        text,
                        insert,
                    });
                } else {
                    *snapshot = Some(server.site().cache_snapshot());
                }

                let open = env.rec.enter("serve.quit", "serve");
                drop(quit);
                handle.join().map_err(|_| "the server thread panicked")??;
                self.layers
                    .bind_quit_us
                    .push((bind + env.rec.exit(open)).as_secs_f64() * 1e6);
                Ok(())
            })?;
            // Dropping the server drops its site and the page cache with it.
            env.rec.call("site.drop", "site", || drop(server));
            let Some(p) = &pending else {
                self.clock.spent += t.elapsed();
                return Ok(());
            };
            let node = self.served.node(p.article);
            let graph = &mut self.served.graph;
            let (applied, _) = env.rec.call("graph.apply", "graph", || {
                sut::apply_correction(graph, node, &p.text, p.insert)
            });
            applied?;
            self.cycle += 1;
            self.clock.spent += t.elapsed();
        }
    }

    /// One restart: drop the store, reopen it, materialize its graph, bind
    /// a site and a server over it, and `GET` one article page — then check
    /// that every acknowledged commit is in the reopened graph.
    fn restart(&mut self, env: &mut Env) -> Result<()> {
        let cache = env.scale.cache();
        drop(self.store.take());
        let article = self.rng.below(self.served.news.n);
        let before = sut::storage_stats();
        let started = Instant::now();
        let root = env.rec.enter("restart", "bench");
        let (store, took) = env
            .rec
            .call("store.open", "graph", || sut::store_open(&self.path));
        let mut store = store?;
        self.layers.open_ms.push(took.as_secs_f64() * 1e3);
        let open = env.rec.enter("store.graph", "graph");
        let graph = store.graph()?;
        self.layers
            .materialize_ms
            .push(env.rec.exit(open).as_secs_f64() * 1e3);
        let (site, _) = env.rec.call("site.bind", "site", || {
            sut::dynamic_site(graph, &self.served.query, cache)
        });
        let open = env.rec.enter("serve.bind", "serve");
        let server = sut::bind(site?)?;
        let node = |a: usize| graph.nodes()[self.served.position[a] as usize];
        let page = Page {
            url: sut::page_url(&sut::article_page(node(article))),
            needle: self.served.news.needle(article),
        };
        let restart_ms = &mut self.restart_ms;
        let ok = serving(&server, |addr| {
            env.rec.exit(open);
            let open = env.rec.enter("http.get_first", "serve");
            let ok = verified_get(&mut Conn::open(addr)?, &page).is_some();
            env.rec.exit(open);
            env.rec.exit(root);
            restart_ms.push(started.elapsed().as_secs_f64() * 1e3);
            Ok(ok)
        })?;
        env.report.check(ok);
        // Durability: the live corrections are there, nothing else is.
        for l in &self.live {
            env.report
                .check(sut::has_correction(graph, node(l.article), &l.text));
        }
        env.report
            .check(sut::correction_count(graph) == self.live.len());
        drop(server);
        let after = sut::storage_stats();
        self.layers.recovered_frames += after.wal_recovered_frames - before.wal_recovered_frames;
        self.layers.page_cache.0 += after.page_cache_hits - before.page_cache_hits;
        self.layers.page_cache.1 += after.page_cache_misses - before.page_cache_misses;
        self.store = Some(store);
        Ok(())
    }

    pub(super) fn finish(mut self, env: &mut Env) -> Result<()> {
        let r = &mut env.report;
        if !env.traced {
            r.put_quiet("restart_p50_ms", &mut self.restart_ms, 1, "ms");
            return Ok(());
        }
        let l = &mut self.layers;
        let commits = l.commit_us.len().max(1) as f64;
        r.put_timing("serve.fresh_p50_us", &mut self.fresh_us, "us");
        r.put_timing("graph.commit_us", &mut l.commit_us, "us");
        r.put(
            "graph.fsyncs_per_commit",
            l.commit_fsyncs as f64 / commits,
            "ratio",
        );
        r.put(
            "graph.wal_bytes_per_commit",
            l.commit_wal_bytes as f64 / commits,
            "ratio",
        );
        r.put_timing("graph.checkpoint_ms", &mut l.checkpoint_ms, "ms");
        r.put(
            "graph.checkpoint_pages_written",
            l.checkpoint_pages as f64,
            "count",
        );
        r.put(
            "site.invalidated_per_delta",
            l.invalidated as f64 / commits,
            "ratio",
        );
        r.put_timing("site.invalidate_us", &mut l.invalidate_us, "us");
        r.put_timing("site.rebind_us", &mut l.rebind_us, "us");
        r.put_timing("serve.bind_quit_us", &mut l.bind_quit_us, "us");
        r.put_timing("serve.churn_read_p50_us", &mut self.read_us, "us");
        r.put_timing("graph.open_ms", &mut l.open_ms, "ms");
        r.put_timing("graph.materialize_ms", &mut l.materialize_ms, "ms");
        r.put(
            "graph.recovered_frames",
            l.recovered_frames as f64 / self.restarts.max(1) as f64,
            "count",
        );
        let (hits, misses) = l.page_cache;
        r.put(
            "graph.page_cache_hit_ratio",
            hits as f64 / (hits + misses).max(1) as f64,
            "ratio",
        );
        Ok(())
    }
}
