//! Routing: mapping a parsed request to `(status, content-type, body)`,
//! plus the `/stats` JSON and `/metrics` Prometheus payloads.
//!
//! The event loop asks [`Server::cached_page`] for a page it can answer
//! itself and its workers call [`Server::route_request`] for the rest; both
//! render a page body through [`render_page`]. Everything here is `&self`
//! over the shared [`DynamicSite`] and the lock-free metrics, so routing
//! needs no coordination with the connection layer.
//!
//! [`DynamicSite`]: strudel_site::DynamicSite

use super::http::{Method, Request, CT_HTML, CT_JSON, CT_PROM, CT_TEXT};
use super::url::{escape, parse_page_url, render_links};
use super::Server;
use std::sync::atomic::{AtomicBool, Ordering};
use strudel_obs::{trace, PromText};
use strudel_site::{OutLink, PageRef, Target};

/// Renders click-time page `page`, which has these `n` links, into the
/// empty `body`: every `/page/…` answer, cached or computed.
fn render_page<'a>(
    body: &mut String,
    page: &PageRef,
    n: usize,
    links: impl Iterator<Item = &'a OutLink>,
) {
    let mut rspan = trace::span("render.page", trace::Layer::Render);
    body.reserve(192 + n * 96);
    let title = format_args!("{page} — {n} links (click time)");
    render_links(body, title, links);
    rspan.attr_u64("links", n as u64);
    rspan.attr_u64("bytes", body.len() as u64);
}

impl Server<'_> {
    /// The event loop's half of a `/page/…` request: when every link clause
    /// of the page is cached ([`strudel_site::DynamicSite::lookup`]), renders
    /// the `200 OK` [`CT_HTML`] body into the empty `body`. Anything else
    /// (not a page path, a malformed reference, a clause to evaluate) is
    /// declined with nothing written, counted or traced: it belongs to
    /// [`Server::route_request`] on a worker.
    pub(super) fn cached_page(&self, raw_path: &str, body: &mut String) -> bool {
        let path = raw_path.split_once('?').map_or(raw_path, |(path, _)| path);
        let Some(page) = parse_page_url(path) else {
            return false;
        };
        let Some(links) = self.site.lookup(&page) else {
            return false;
        };
        render_page(body, &page, links.len(), links.iter());
        true
    }

    /// Answers one fully parsed request. `HEAD` routes exactly like `GET`
    /// (the connection layer drops the body when serializing); other
    /// methods are refused. `/quit` flips the shared shutdown flag.
    pub(super) fn route_request(
        &self,
        req: &Request,
        shutdown: &AtomicBool,
    ) -> (String, &'static str, String) {
        match req.method {
            Method::Other => (
                "405 Method Not Allowed".into(),
                CT_HTML,
                "<html><body>only GET and HEAD are supported</body></html>".into(),
            ),
            Method::Get | Method::Head => {
                if req.path == "/quit" {
                    shutdown.store(true, Ordering::Release);
                    ("200 OK".into(), CT_HTML, "bye".into())
                } else {
                    self.route(&req.path)
                }
            }
        }
    }

    /// Computes the `(status, content-type, body)` answer for one path.
    /// A query string (`?format=chrome`) is split off before matching.
    fn route(&self, raw_path: &str) -> (String, &'static str, String) {
        let (path, query) = match raw_path.split_once('?') {
            Some((p, q)) => (p, q),
            None => (raw_path, ""),
        };
        if path == "/" {
            let links: Vec<OutLink> = self
                .roots
                .iter()
                .map(|r| OutLink {
                    label: "root".into(),
                    target: Target::Page(r.clone()),
                })
                .collect();
            let mut body = String::new();
            let title = format_args!("Site roots (precomputed)");
            render_links(&mut body, title, links.iter());
            return ("200 OK".into(), CT_HTML, body);
        }
        if path == "/stats" {
            return ("200 OK".into(), CT_JSON, self.stats_json());
        }
        if path == "/metrics" {
            return ("200 OK".into(), CT_PROM, self.metrics_text());
        }
        if path == "/healthz" {
            return if self.is_ready() {
                ("200 OK".into(), CT_TEXT, "ok\n".into())
            } else {
                (
                    "503 Service Unavailable".into(),
                    CT_TEXT,
                    "starting\n".into(),
                )
            };
        }
        if path == "/debug/traces" {
            return if query.split('&').any(|kv| kv == "format=chrome") {
                ("200 OK".into(), CT_JSON, trace::traces_chrome())
            } else {
                ("200 OK".into(), CT_JSON, trace::traces_json())
            };
        }
        if path.starts_with("/page/") {
            let Some(page) = parse_page_url(path) else {
                return (
                    "400 Bad Request".into(),
                    CT_HTML,
                    "<html><body>bad page ref</body></html>".into(),
                );
            };
            return match self.site.expand(&page) {
                Ok(links) => {
                    let mut body = String::new();
                    render_page(&mut body, &page, links.len(), links.iter());
                    ("200 OK".into(), CT_HTML, body)
                }
                Err(e) => (
                    "500 Internal Server Error".into(),
                    CT_HTML,
                    format!(
                        "<html><body>query error: {}</body></html>",
                        escape(&e.to_string())
                    ),
                ),
            };
        }
        (
            "404 Not Found".into(),
            CT_HTML,
            "<html><body>no such page</body></html>".into(),
        )
    }

    /// The `/stats` payload: request counters, latency percentiles,
    /// server vitals (uptime, threads of the miss pool), the
    /// connection layer's counters and gauges, and the shared evaluator's
    /// cache counters, as JSON.
    fn stats_json(&self) -> String {
        let s = self.metrics.snapshot();
        let d = self.site.stats();
        let p = self.site.path_cache_stats();
        let q = self.site.plan_cache_stats();
        let st = strudel_graph::storage_stats();
        format!(
            concat!(
                "{{\"requests\":{},\"errors\":{},",
                "\"requests_inline\":{},\"requests_dispatched\":{},",
                "\"uptime_seconds\":{},\"threads\":{},",
                "\"latency_us\":{{\"p50\":{},\"p90\":{},\"p99\":{},\"max\":{}}},",
                "\"connections\":{{\"open\":{},\"idle\":{},\"reading\":{},\"writing\":{},",
                "\"aborted\":{},\"keepalive_reuses\":{},\"admission_rejected\":{},",
                "\"accept_errors\":{}}},",
                "\"cache\":{{\"hits\":{},\"misses\":{},\"evictions\":{},\"invalidated\":{},",
                "\"entries\":{},\"bytes\":{},\"expansions\":{},\"clause_queries\":{}}},",
                "\"path_cache\":{{\"hits\":{},\"misses\":{},\"invalidations\":{}}},",
                "\"plan_cache\":{{\"hits\":{},\"misses\":{},\"invalidations\":{}}},",
                "\"storage\":{{\"page_reads\":{},\"page_writes\":{},",
                "\"page_cache_hits\":{},\"page_cache_misses\":{},",
                "\"page_cache_evictions\":{},\"pages_leaked\":{},",
                "\"wal_frames\":{},\"wal_commits\":{},\"wal_bytes\":{},",
                "\"wal_fsyncs\":{},\"wal_group_commits\":{},\"wal_group_commit_txns\":{},",
                "\"wal_checkpoints\":{},\"wal_recoveries\":{},",
                "\"wal_recovered_frames\":{},\"wal_torn_tails\":{},\"compactions\":{},",
                "\"checkpoint_pages_written\":{},\"checkpoint_pages_reused\":{},",
                "\"dirty_pages\":{},\"freelist_pages\":{}}},",
                "\"traces\":{},",
                "\"planner_dp_fallbacks\":{}}}"
            ),
            s.requests,
            s.errors,
            s.requests_inline,
            s.requests_dispatched,
            self.started.elapsed().as_secs(),
            self.config.threads.max(1),
            s.latency_p50_us,
            s.latency_p90_us,
            s.latency_p99_us,
            s.latency_max_us,
            s.connections_open,
            s.connections_idle,
            s.connections_reading,
            s.connections_writing,
            s.connections_aborted,
            s.keepalive_reuses,
            s.admission_rejected,
            s.accept_errors,
            d.cache_hits,
            d.cache_misses,
            d.evictions,
            d.invalidated,
            self.site.cache_len(),
            self.site.cache_bytes(),
            d.expansions,
            d.clause_queries,
            p.hits,
            p.misses,
            p.invalidations,
            q.hits,
            q.misses,
            q.invalidations,
            st.page_reads,
            st.page_writes,
            st.page_cache_hits,
            st.page_cache_misses,
            st.page_cache_evictions,
            st.pages_leaked,
            st.wal_appended_frames,
            st.wal_commits,
            st.wal_bytes,
            st.wal_fsyncs,
            st.wal_group_commits,
            st.wal_group_commit_txns,
            st.wal_checkpoints,
            st.wal_recoveries,
            st.wal_recovered_frames,
            st.wal_torn_tails,
            st.compactions,
            st.checkpoint_pages_written,
            st.checkpoint_pages_reused,
            st.dirty_pages,
            st.freelist_pages,
            traces_stats_json(),
            strudel_struql::planner_dp_fallbacks(),
        )
    }

    /// The `/metrics` payload: the same counters as `/stats`, in the
    /// Prometheus text exposition format (version 0.0.4) — counters,
    /// gauges, and the request-latency histogram in seconds.
    fn metrics_text(&self) -> String {
        let s = self.metrics.snapshot();
        let d = self.site.stats();
        let p = self.site.path_cache_stats();
        let mut m = PromText::new();
        m.counter(
            "strudel_requests_total",
            "Requests answered (any status).",
            s.requests,
        );
        m.counter(
            "strudel_request_errors_total",
            "Requests answered with a 4xx/5xx status.",
            s.errors,
        );
        m.counter(
            "strudel_requests_inline_total",
            "Requests the event loop answered itself from the page cache.",
            s.requests_inline,
        );
        m.counter(
            "strudel_requests_dispatched_total",
            "Requests a worker of the miss pool answered.",
            s.requests_dispatched,
        );
        m.histogram_seconds(
            "strudel_request_duration_seconds",
            "Request latency from first byte to response written.",
            &self.metrics.latency.snapshot(),
        );
        m.gauge(
            "strudel_uptime_seconds",
            "Seconds since the server bound its listener.",
            self.started.elapsed().as_secs_f64(),
        );
        m.gauge(
            "strudel_worker_threads",
            "Worker threads of the miss pool (the event loop answers cached pages itself).",
            self.config.threads.max(1) as f64,
        );
        m.counter(
            "strudel_accept_errors_total",
            "accept(2) failures; each pauses the acceptor with backoff.",
            s.accept_errors,
        );
        m.counter(
            "strudel_connections_aborted_total",
            "Connections closed without sending a byte (not errors).",
            s.connections_aborted,
        );
        m.counter(
            "strudel_admission_rejected_total",
            "Connections answered 503 by admission control.",
            s.admission_rejected,
        );
        m.counter(
            "strudel_keepalive_reuses_total",
            "Requests served on a reused keep-alive connection.",
            s.keepalive_reuses,
        );
        m.gauge(
            "strudel_connections_open",
            "Connections currently open.",
            s.connections_open as f64,
        );
        m.gauge(
            "strudel_connections_idle",
            "Open connections waiting between requests.",
            s.connections_idle as f64,
        );
        m.gauge(
            "strudel_connections_reading",
            "Open connections mid-request-head.",
            s.connections_reading as f64,
        );
        m.gauge(
            "strudel_connections_writing",
            "Open connections with response bytes still to flush.",
            s.connections_writing as f64,
        );
        m.counter(
            "strudel_page_cache_hits_total",
            "Click-time expansions answered from the page cache.",
            d.cache_hits,
        );
        m.counter(
            "strudel_page_cache_misses_total",
            "Click-time expansions computed by query evaluation.",
            d.cache_misses,
        );
        m.counter(
            "strudel_page_cache_evictions_total",
            "Page-cache entries evicted by the size bound.",
            d.evictions,
        );
        m.counter(
            "strudel_page_cache_invalidated_total",
            "Page-cache entries dropped by data-change deltas.",
            d.invalidated,
        );
        m.gauge(
            "strudel_page_cache_entries",
            "Pages currently cached.",
            self.site.cache_len() as f64,
        );
        m.gauge(
            "strudel_page_cache_bytes",
            "Approximate bytes held by the page cache.",
            self.site.cache_bytes() as f64,
        );
        m.counter(
            "strudel_expansions_total",
            "Logical page expansions requested.",
            d.expansions,
        );
        m.counter(
            "strudel_clause_queries_total",
            "Conjunctions evaluated at click time.",
            d.clause_queries,
        );
        m.counter(
            "strudel_path_cache_hits_total",
            "Regular-path-expression memo-cache hits.",
            p.hits,
        );
        m.counter(
            "strudel_path_cache_misses_total",
            "Regular-path-expression memo-cache misses.",
            p.misses,
        );
        m.counter(
            "strudel_path_cache_invalidations_total",
            "Regular-path-expression memo-cache invalidations.",
            p.invalidations,
        );
        let q = self.site.plan_cache_stats();
        m.counter(
            "strudel_plan_cache_hits_total",
            "Evaluations answered with a cached compiled physical plan.",
            q.hits,
        );
        m.counter(
            "strudel_plan_cache_misses_total",
            "Conjunctions compiled into a physical plan for the first time.",
            q.misses,
        );
        m.counter(
            "strudel_plan_cache_invalidations_total",
            "Cached plans discarded because the graph changed.",
            q.invalidations,
        );
        m.counter(
            "strudel_planner_dp_fallbacks_total",
            "Cost-based plans that fell back to the greedy ordering because \
             the block exceeded the DP join-order limit.",
            strudel_struql::planner_dp_fallbacks(),
        );
        // Durable storage: the pager's page cache and the write-ahead log
        // (process-wide counters from strudel-graph's storage layer; the
        // strudel_store_* prefix keeps them distinct from the serving
        // tier's HTML page cache above).
        let st = strudel_graph::storage_stats();
        m.counter(
            "strudel_store_page_reads_total",
            "Pages read from graph-store page files.",
            st.page_reads,
        );
        m.counter(
            "strudel_store_page_writes_total",
            "Pages written to graph-store page files.",
            st.page_writes,
        );
        m.counter(
            "strudel_store_page_cache_hits_total",
            "Store page reads answered from the in-memory page cache.",
            st.page_cache_hits,
        );
        m.counter(
            "strudel_store_page_cache_misses_total",
            "Store page reads that had to touch the file.",
            st.page_cache_misses,
        );
        m.counter(
            "strudel_store_pages_leaked_total",
            "Store pages lost to freelist overflow (reclaimed by compact).",
            st.pages_leaked,
        );
        m.counter(
            "strudel_wal_frames_total",
            "Frames appended to write-ahead logs.",
            st.wal_appended_frames,
        );
        m.counter(
            "strudel_wal_commits_total",
            "Transactions made durable by a fsynced WAL commit record.",
            st.wal_commits,
        );
        m.counter(
            "strudel_wal_bytes_total",
            "Bytes appended to write-ahead logs.",
            st.wal_bytes,
        );
        m.counter(
            "strudel_wal_checkpoints_total",
            "Checkpoints folding the WAL into the page file.",
            st.wal_checkpoints,
        );
        m.counter(
            "strudel_wal_recoveries_total",
            "Store opens that replayed at least one committed WAL frame.",
            st.wal_recoveries,
        );
        m.counter(
            "strudel_wal_recovered_frames_total",
            "Committed WAL frames replayed during crash recovery.",
            st.wal_recovered_frames,
        );
        m.counter(
            "strudel_wal_torn_tails_total",
            "Torn WAL tails detected and truncated during recovery.",
            st.wal_torn_tails,
        );
        m.counter(
            "strudel_store_compactions_total",
            "Store compactions (page file rewritten minimal).",
            st.compactions,
        );
        m.counter(
            "strudel_store_page_cache_evictions_total",
            "Store pages evicted from the in-memory page cache.",
            st.page_cache_evictions,
        );
        m.counter(
            "strudel_wal_fsyncs_total",
            "WAL file data syncs (one per commit record, shared by a batch).",
            st.wal_fsyncs,
        );
        m.counter(
            "strudel_wal_group_commits_total",
            "Commit records that folded more than one transaction.",
            st.wal_group_commits,
        );
        m.counter(
            "strudel_wal_group_commit_txns_total",
            "Transactions made durable inside a group commit record.",
            st.wal_group_commit_txns,
        );
        m.counter(
            "strudel_checkpoint_pages_written_total",
            "Pages rewritten by incremental checkpoints (dirty segments).",
            st.checkpoint_pages_written,
        );
        m.counter(
            "strudel_checkpoint_pages_reused_total",
            "Pages carried over untouched across incremental checkpoints.",
            st.checkpoint_pages_reused,
        );
        m.gauge(
            "strudel_store_dirty_pages",
            "Pages the next incremental checkpoint would rewrite.",
            st.dirty_pages as f64,
        );
        m.gauge(
            "strudel_store_freelist_pages",
            "Free pages tracked in the store's active header.",
            st.freelist_pages as f64,
        );
        // Build identity and the flight recorder's own accounting.
        m.family(
            "strudel_build_info",
            "gauge",
            "Build identity (constant 1; labels carry the detail).",
        )
        .sample(
            "strudel_build_info",
            &[
                ("version", env!("CARGO_PKG_VERSION")),
                (
                    "profile",
                    if cfg!(debug_assertions) {
                        "debug"
                    } else {
                        "release"
                    },
                ),
            ],
            1.0,
        );
        let t = trace::stats();
        m.gauge(
            "strudel_trace_enabled",
            "Whether request tracing is enabled (1) or compiled out of the \
             hot path (0).",
            if t.enabled { 1.0 } else { 0.0 },
        );
        m.counter(
            "strudel_trace_spans_recorded_total",
            "Spans written into the flight-recorder ring.",
            t.spans_recorded,
        );
        m.counter(
            "strudel_trace_spans_dropped_total",
            "Spans overwritten by ring wrap-around before export.",
            t.spans_dropped,
        );
        m.counter(
            "strudel_trace_traces_started_total",
            "Root request spans started.",
            t.traces_started,
        );
        m.counter(
            "strudel_trace_traces_sampled_total",
            "Traces picked by the head-based sampler.",
            t.traces_sampled,
        );
        m.counter(
            "strudel_trace_traces_slow_promoted_total",
            "Unsampled traces promoted for exceeding the slow threshold.",
            t.traces_slow_promoted,
        );
        m.gauge(
            "strudel_trace_ring_occupancy",
            "Live span slots in the flight-recorder ring.",
            t.ring_live as f64,
        );
        m.gauge(
            "strudel_trace_ring_capacity",
            "Flight-recorder ring capacity in span slots.",
            t.ring_capacity as f64,
        );
        m.finish()
    }
}

/// The `traces` block of `/stats`: recorder counters, per-layer self-time
/// quantiles, and the worst promoted traces with per-layer breakdowns.
fn traces_stats_json() -> String {
    let t = trace::stats();
    let mut layers = String::new();
    for (i, (name, p50, p99)) in trace::layer_quantiles().iter().enumerate() {
        if i > 0 {
            layers.push(',');
        }
        layers.push_str(&format!("\"{name}\":{{\"p50_us\":{p50},\"p99_us\":{p99}}}"));
    }
    let mut worst = String::new();
    for (i, w) in trace::worst_traces().iter().enumerate() {
        if i > 0 {
            worst.push(',');
        }
        let mut self_us = String::new();
        for (j, name) in trace::LAYER_NAMES.iter().enumerate() {
            if j > 0 {
                self_us.push(',');
            }
            self_us.push_str(&format!("\"{name}\":{}", w.layer_self_ns[j] / 1_000));
        }
        worst.push_str(&format!(
            "{{\"trace_id\":{},\"path\":\"{}\",\"duration_us\":{},\"spans\":{},\
             \"layers_self_us\":{{{self_us}}}}}",
            w.trace_id,
            strudel_obs::json::escape(&w.path),
            w.dur_ns / 1_000,
            w.spans,
        ));
    }
    format!(
        "{{\"enabled\":{},\"spans_recorded\":{},\"spans_dropped\":{},\
         \"traces_started\":{},\"traces_sampled\":{},\"traces_slow_promoted\":{},\
         \"ring_capacity\":{},\"ring_live\":{},\"sample_ppm\":{},\"slow_us\":{},\
         \"layers\":{{{layers}}},\"worst\":[{worst}]}}",
        t.enabled,
        t.spans_recorded,
        t.spans_dropped,
        t.traces_started,
        t.traces_sampled,
        t.traces_slow_promoted,
        t.ring_capacity,
        t.ring_live,
        t.sample_ppm,
        t.slow_us,
    )
}
