//! Serving a dynamically evaluated site over HTTP (§6).
//!
//! "In practice, dynamic generation is supported by often large groups of
//! loosely related CGI programs. Supporting dynamic evaluation would
//! eliminate writing such programs by hand." This module is that support: a
//! dependency-free HTTP/1.1 server whose pages are computed at click time
//! by [`DynamicSite::expand`] — only the roots are precomputed, and the
//! evaluator's shared cache answers repeat clicks.
//!
//! One readiness loop (`event`) owns every socket through a vendored epoll
//! stand-in, driving non-blocking connections (`conn`) with HTTP/1.1
//! keep-alive, request pipelining, whole-request deadlines, and admission
//! control, and answers a page the cache holds whole where it read the
//! request ([`DynamicSite::lookup`]); pages with something to evaluate run
//! on a scoped worker pool over the shared [`DynamicSite`]. Around it sit
//! the HTTP framing (`http`), the router (`router`) behind `/`, `/stats`,
//! `/metrics`, `/page/…` and `/quit`, the URL scheme (`url`), and the
//! metrics (`metrics`).

mod conn;
mod event;
mod http;
mod metrics;
mod router;
#[doc(hidden)]
pub mod testing;
mod url;

pub use self::metrics::ServeStats;
pub use self::url::{decode_value, encode_value, page_url, parse_page_url};

use crate::error::Result;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;
use strudel_graph::{storage_stats, StorageStats};
use strudel_obs::trace::{self, Recorder, TraceConfig};
use strudel_obs::Scrape;
use strudel_site::{Delta, DynamicSite, PageRef};
use strudel_struql::{planner_dp_fallbacks, PLANNER_SIGNALS};

/// Server tuning knobs.
#[derive(Clone, Copy, Debug)]
pub struct ServerConfig {
    /// Worker threads of the miss pool (minimum 1): they evaluate the pages
    /// the cache cannot answer and serve `/stats`, `/metrics` and `/quit`.
    /// A cached page is answered by the event loop and never reaches them.
    pub threads: usize,
    /// Whole-request deadline: the time allowed from a request's first
    /// byte until its head completes. An idle keep-alive connection may
    /// rest this long between requests before the server closes it.
    pub request_timeout: Duration,
    /// Maximum accepted request-head size in bytes.
    pub max_request_bytes: usize,
    /// Admission control: connections beyond this many already open are
    /// answered with a static 503 and closed.
    pub max_connections: usize,
    /// The server's flight recorder (`/debug/traces`, `traces.*`), or
    /// `None` to trace nothing.
    pub trace: Option<TraceConfig>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            threads: std::thread::available_parallelism().map_or(4, |n| n.get()),
            request_timeout: Duration::from_secs(5),
            max_request_bytes: 16 * 1024,
            max_connections: 1024,
            trace: None,
        }
    }
}

/// A running click-time server over one shared [`DynamicSite`].
pub struct Server<'g> {
    site: DynamicSite<'g>,
    listener: TcpListener,
    roots: Vec<PageRef>,
    config: ServerConfig,
    metrics: metrics::Metrics,
    recorder: Option<Recorder>,
    /// Readiness for `/healthz`: flips true once [`Server::serve`] enters
    /// its accept loop (site built, store open, listener bound). Liveness
    /// is implied by answering at all.
    ready: AtomicBool,
}

impl<'g> Server<'g> {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port) with the
    /// default configuration.
    pub fn bind(site: DynamicSite<'g>, addr: &str) -> std::io::Result<Self> {
        Self::bind_with(site, addr, ServerConfig::default())
    }

    /// Binds `addr` with an explicit configuration.
    pub fn bind_with(
        site: DynamicSite<'g>,
        addr: &str,
        config: ServerConfig,
    ) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let roots = site.roots();
        Ok(Server {
            site,
            listener,
            roots,
            config,
            metrics: metrics::Metrics::new(config.threads.max(1)),
            recorder: config.trace.map(Recorder::new),
            ready: AtomicBool::new(false),
        })
    }

    /// The bound address.
    pub fn addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// The shared evaluator (for cache configuration checks and stats).
    pub fn site(&self) -> &DynamicSite<'g> {
        &self.site
    }

    /// The active configuration.
    pub fn config(&self) -> &ServerConfig {
        &self.config
    }

    /// This server's flight recorder, if [`ServerConfig::trace`] asked for
    /// one.
    pub fn recorder(&self) -> Option<&Recorder> {
        self.recorder.as_ref()
    }

    /// Request counters so far.
    pub fn stats(&self) -> ServeStats {
        self.metrics.snapshot()
    }

    /// Every signal of the process as this server sees it, each owner's
    /// snapshot taken once: what `/stats` and `/metrics` render. A signal is
    /// declared once, in a table beside the code that counts it
    /// (docs/OBSERVABILITY.md lists them all).
    pub fn scrape(&self) -> Scrape {
        let mut scrape = Scrape::default();
        self.metrics.scrape(&mut scrape);
        self.site.scrape(&mut scrape);
        scrape.walk(StorageStats::SIGNALS, &storage_stats());
        trace::scrape(self.recorder(), &mut scrape);
        scrape.walk(PLANNER_SIGNALS, &planner_dp_fallbacks());
        scrape
    }

    /// Notifies the server of a data-graph change: forwards `delta` to the
    /// shared evaluator's cache invalidation and returns the number of
    /// cached expansions dropped. Insertions and removals are handled
    /// symmetrically; a removal delta may be delivered before or after the
    /// underlying graph mutation (seed matching needs only the interner,
    /// not the edge's presence). The next request for an affected page
    /// recomputes it; untouched entries keep answering from the warm cache
    /// (the `invalidated` counter is visible under `/stats`).
    pub fn notify(&self, delta: &Delta) -> u64 {
        self.site.invalidate(delta)
    }

    /// Serves until `max_conns` connections have been accepted (`None` =
    /// forever) or a request for `/quit` arrives (always honored, so tests
    /// and scripts can stop the server remotely). In-flight requests
    /// finish before this returns. One accepted keep-alive connection may
    /// carry many requests.
    pub fn serve(&self, max_conns: Option<usize>) -> Result<()> {
        self.ready.store(true, Ordering::Release);
        let result = event::run(self, max_conns);
        self.ready.store(false, Ordering::Release);
        result
    }

    /// Whether the server is ready to answer page requests (the accept
    /// loop is running). `/healthz` reports this.
    pub fn is_ready(&self) -> bool {
        self.ready.load(Ordering::Acquire)
    }
}

#[cfg(test)]
mod tests {
    use super::testing::{demo_site, fetch, with_client};
    use super::*;
    use std::io::{Read, Write};
    use std::net::TcpStream;
    use strudel_graph::Value;
    use strudel_site::CacheConfig;
    use strudel_struql::EvalOptions;

    /// The harness itself: a client body that panics must fail the test
    /// promptly — the panic comes back to the caller with the server
    /// stopped and joined — rather than leave `serve` blocked forever.
    #[test]
    fn client_panic_stops_the_server_and_reaches_the_caller() {
        let (data, query) = demo_site();
        let site = DynamicSite::new(&data, &query, EvalOptions::default()).unwrap();
        let server = Server::bind(site, "127.0.0.1:0").unwrap();
        let started = std::time::Instant::now();
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            with_client(&server, |addr| {
                assert!(fetch(addr, "/").contains("FrontPage"));
                panic!("client assertion failed");
            })
        }));
        let message = outcome.expect_err("the client's panic must propagate");
        assert_eq!(
            message.downcast_ref::<&str>(),
            Some(&"client assertion failed")
        );
        assert!(!server.is_ready(), "serve() must have returned");
        assert_eq!(server.stats().requests, 2, "`/` and the guard's `/quit`");
        assert!(started.elapsed() < testing::DEADLINE);
    }

    #[test]
    fn serves_roots_pages_and_errors_over_tcp() {
        let (data, query) = demo_site();
        let site = DynamicSite::new(&data, &query, EvalOptions::default()).unwrap();
        let server = Server::bind(site, "127.0.0.1:0").unwrap();

        with_client(&server, |addr| {
            let root = fetch(addr, "/");
            assert!(root.contains("FrontPage"), "{root}");
            let front = fetch(addr, "/page/FrontPage");
            assert!(front.contains("Story"), "{front}");
            assert!(front.contains("/page/Page/n"), "{front}");
            // Follow a story link.
            let href = front
                .split("href=\"/page/Page/")
                .nth(1)
                .map(|s| format!("/page/Page/{}", &s[..s.find('"').unwrap()]))
                .expect("a story href");
            let story = fetch(addr, &href);
            assert!(story.contains("headline"), "{story}");
            assert!(fetch(addr, "/page/Bad/%%%").contains("400"));
            assert!(fetch(addr, "/nope").contains("404"));
            let stats = fetch(addr, "/stats");
            assert!(stats.contains("\"requests\""), "{stats}");
            assert!(stats.contains("\"p50\""), "{stats}");
            assert!(stats.contains("\"hits\""), "{stats}");
        });

        let stats = server.stats();
        assert!(stats.requests >= 7, "{stats:?}");
        assert!(stats.errors >= 2, "{stats:?}"); // the 400 and the 404
    }

    /// End-to-end live update with a *deletion*: serve and warm the cache,
    /// deliver a removal delta through [`Server::notify`], carry the
    /// surviving cache entries across a rebind with snapshot/restore, and
    /// check the served HTML reflects the deletion while untouched pages
    /// still answer from the warm cache.
    #[test]
    fn deletion_notify_invalidates_served_pages_across_rebind() {
        let (mut data, query) = demo_site();
        let find = |g: &strudel_graph::Graph, name: &str| {
            g.nodes()
                .iter()
                .copied()
                .find(|n| g.node_name(*n).as_deref() == Some(name))
                .unwrap()
        };
        let a1 = find(&data, "a1");
        let a2 = find(&data, "a2");
        let headline = data.sym("headline");
        let url1 = page_url(&PageRef {
            skolem: "Page".into(),
            args: vec![Value::Node(a1)],
        });
        let url2 = page_url(&PageRef {
            skolem: "Page".into(),
            args: vec![Value::Node(a2)],
        });

        // Phase 1: warm both story pages, then notify the removal.
        let snap = {
            let site = DynamicSite::new(&data, &query, EvalOptions::default()).unwrap();
            let server = Server::bind(site, "127.0.0.1:0").unwrap();
            with_client(&server, |addr| {
                assert!(fetch(addr, &url1).contains("one"));
                assert!(fetch(addr, &url2).contains("two"));
            });

            let dropped = server.notify(&Delta::EdgeRemoved {
                from: a1,
                label: headline,
                to: Value::str("one"),
            });
            assert!(dropped >= 1, "removal delta dropped {dropped} entries");
            server.site().cache_snapshot()
        };

        // The server is gone; apply the mutation the delta described.
        assert!(data.remove_edge(a1, headline, &Value::str("one")).unwrap());

        // Phase 2: rebind over the mutated graph with the surviving cache.
        let site = DynamicSite::new(&data, &query, EvalOptions::default()).unwrap();
        site.cache_restore(snap);
        let server = Server::bind(site, "127.0.0.1:0").unwrap();
        with_client(&server, |addr| {
            let story1 = fetch(addr, &url1);
            assert!(!story1.contains("one"), "{story1}");
            assert!(story1.contains("world"), "{story1}"); // section edge intact
            assert!(fetch(addr, &url2).contains("two"));
        });
        let d = server.site().stats();
        assert!(d.cache_hits >= 1, "untouched page should stay warm: {d:?}");
        assert!(
            d.cache_misses >= 1,
            "invalidated page must recompute: {d:?}"
        );
    }

    /// Regression test: a request head arriving in several TCP segments
    /// must be reassembled, not served from the first partial read (which
    /// used to fall back to the `/` roots page).
    #[test]
    fn split_request_is_reassembled_before_routing() {
        let (data, query) = demo_site();
        let site = DynamicSite::new(&data, &query, EvalOptions::default()).unwrap();
        let server = Server::bind(site, "127.0.0.1:0").unwrap();

        with_client(&server, |addr| {
            let mut s = TcpStream::connect(addr).expect("connect");
            s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
            // First flush stops mid-request-line: no terminator, and even
            // the path is incomplete.
            s.write_all(b"GET /page/Fro").unwrap();
            s.flush().unwrap();
            std::thread::sleep(Duration::from_millis(80));
            s.write_all(b"ntPage HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n")
                .unwrap();
            let mut buf = String::new();
            s.read_to_string(&mut buf).unwrap();
            assert!(buf.starts_with("HTTP/1.1 200"), "{buf}");
            // The FrontPage expansion, not the roots listing.
            assert!(buf.contains("Story"), "{buf}");
            assert!(!buf.contains("Site roots"), "{buf}");
        });
    }

    #[test]
    fn oversized_and_silent_requests_are_rejected() {
        let (data, query) = demo_site();
        let site = DynamicSite::new(&data, &query, EvalOptions::default()).unwrap();
        let config = ServerConfig {
            threads: 2,
            request_timeout: Duration::from_millis(150),
            max_request_bytes: 512,
            ..ServerConfig::default()
        };
        let server = Server::bind_with(site, "127.0.0.1:0", config).unwrap();

        with_client(&server, |addr| {
            // Head larger than the cap.
            let mut s = TcpStream::connect(addr).unwrap();
            s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
            let huge = format!("GET /{} HTTP/1.1\r\n\r\n", "x".repeat(1024));
            s.write_all(huge.as_bytes()).unwrap();
            let mut buf = String::new();
            s.read_to_string(&mut buf).unwrap();
            assert!(buf.contains("431"), "{buf}");

            // A client that connects and never speaks: per-request timeout.
            let mut s = TcpStream::connect(addr).unwrap();
            s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
            let mut buf = String::new();
            s.read_to_string(&mut buf).unwrap();
            assert!(buf.contains("408"), "{buf}");

            // Non-GET/HEAD methods are refused after full framing.
            let mut s = TcpStream::connect(addr).unwrap();
            s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
            s.write_all(b"DELETE / HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n")
                .unwrap();
            let mut buf = String::new();
            s.read_to_string(&mut buf).unwrap();
            assert!(buf.contains("405"), "{buf}");
        });
        assert!(server.stats().errors >= 3);
    }

    /// `/healthz` answers ready once the accept loop is running, and the
    /// server reports not-ready before and after.
    #[test]
    fn healthz_reports_readiness() {
        let (data, query) = demo_site();
        let site = DynamicSite::new(&data, &query, EvalOptions::default()).unwrap();
        let server = Server::bind(site, "127.0.0.1:0").unwrap();
        assert!(!server.is_ready(), "not ready before serve()");
        with_client(&server, |addr| {
            let resp = fetch(addr, "/healthz");
            assert!(resp.starts_with("HTTP/1.1 200"), "{resp}");
            assert!(resp.contains("text/plain"), "{resp}");
            assert!(resp.ends_with("ok\n"), "{resp}");
        });
        assert!(!server.is_ready(), "not ready after serve() returns");
    }

    /// The concurrency smoke test: many threads hammer the pool and every
    /// response must be well-formed and byte-identical to the serial
    /// answer for the same path.
    #[test]
    fn concurrent_requests_match_serial_answers() {
        let (data, query) = demo_site();
        // A small cache so eviction churn happens under load too.
        let site = DynamicSite::with_cache(
            &data,
            &query,
            EvalOptions::default(),
            CacheConfig {
                max_entries: 2,
                max_bytes: usize::MAX,
            },
        )
        .unwrap();
        let config = ServerConfig {
            threads: 4,
            ..ServerConfig::default()
        };
        let server = Server::bind_with(site, "127.0.0.1:0", config).unwrap();

        with_client(&server, |addr| {
            let front = fetch(addr, "/page/FrontPage");
            let mut paths = vec!["/".to_string(), "/page/FrontPage".to_string()];
            for part in front.split("href=\"/page/Page/").skip(1) {
                paths.push(format!("/page/Page/{}", &part[..part.find('"').unwrap()]));
            }
            assert!(paths.len() >= 4, "{paths:?}");
            // Serial reference answers.
            let expected: Vec<String> = paths.iter().map(|p| fetch(addr, p)).collect();

            const THREADS: usize = 8;
            const ROUNDS: usize = 12;
            let mut handles = Vec::new();
            for t in 0..THREADS {
                let paths = paths.clone();
                let expected = expected.clone();
                handles.push(std::thread::spawn(move || {
                    for r in 0..ROUNDS {
                        let i = (t + r) % paths.len();
                        let got = fetch(addr, &paths[i]);
                        assert_eq!(got, expected[i], "thread {t} round {r} path {}", paths[i]);
                        // Well-formed: status line + framed body length.
                        let (head, body) = got.split_once("\r\n\r\n").expect("framed response");
                        assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
                        let len: usize = head
                            .lines()
                            .find_map(|l| l.strip_prefix("Content-Length: "))
                            .unwrap()
                            .parse()
                            .unwrap();
                        assert_eq!(body.len(), len);
                    }
                }));
            }
            for h in handles {
                h.join().unwrap();
            }
            let stats = fetch(addr, "/stats");
            assert!(stats.contains("\"hits\""), "{stats}");
        });

        let stats = server.stats();
        assert!(stats.requests >= 8 * 12, "{stats:?}");
        assert_eq!(stats.errors, 0, "{stats:?}");
        // The shared cache was exercised and stayed within its bound.
        let dyn_stats = server.site().stats();
        assert!(dyn_stats.cache_hits > 0, "{dyn_stats:?}");
        assert!(dyn_stats.evictions > 0, "{dyn_stats:?}");
        assert!(server.site().cache_len() <= 2);
    }
}
