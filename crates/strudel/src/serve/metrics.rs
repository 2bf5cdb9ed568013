//! What the server counts — request and connection counters, connection
//! gauges, the latency histogram — and the declaration of each signal.

use std::time::{Duration, Instant};
use strudel_obs::{Histogram, HistogramSnapshot, Reading, Scrape, Signal};

strudel_obs::signals! {
    /// The server's cells. `requests` is `requests_inline` plus
    /// `requests_dispatched` plus the loop's own 400/408/431 answers. A
    /// connection that opens and closes without a byte (port scan, health
    /// probe) is `connections_aborted`: not an error, not a request. The
    /// connection-state gauges are instantaneous: the event loop publishes
    /// them after every tick.
    pub(crate) struct Counts;
    /// A snapshot of the server's request counters. Latency percentiles are
    /// histogram estimates (the matching bucket's upper bound, clamped to the
    /// exact observed maximum) over every request since the server bound.
    pub struct ServeStats {
        uptime_seconds: Gauge, "uptime_seconds", "strudel_uptime_seconds",
            "Seconds since the server bound its listener.";
        threads: Gauge, "threads", "strudel_worker_threads",
            "Worker threads of the miss pool (the event loop answers cached pages itself).";
        latency_p50_us: Gauge, "latency_us.p50", "",
            "Median request latency, microseconds (bucket estimate).";
        latency_p90_us: Gauge, "latency_us.p90", "",
            "90th-percentile request latency, microseconds (bucket estimate).";
        latency_p99_us: Gauge, "latency_us.p99", "",
            "99th-percentile request latency, microseconds (bucket estimate).";
        latency_max_us: Gauge, "latency_us.max", "",
            "Worst request latency observed, microseconds (exact).";
    }
    requests: Counter, "requests", "strudel_requests_total",
        "Requests answered (any status).";
    errors: Counter, "errors", "strudel_request_errors_total",
        "Requests answered with a 4xx/5xx status.";
    requests_inline: Counter, "requests_inline", "strudel_requests_inline_total",
        "Requests the event loop answered itself from the page cache.";
    requests_dispatched: Counter, "requests_dispatched", "strudel_requests_dispatched_total",
        "Requests a worker of the miss pool answered.";
    loop_wakeups: Counter, "loop_wakeups", "strudel_loop_wakeups_total",
        "Returns of the event loop's poller wait (readiness, a worker's doorbell, or a deadline).";
    accept_errors: Counter, "connections.accept_errors", "strudel_accept_errors_total",
        "accept(2) failures; each pauses the acceptor with backoff.";
    connections_aborted: Counter, "connections.aborted", "strudel_connections_aborted_total",
        "Connections closed without sending a byte (not errors).";
    admission_rejected: Counter, "connections.admission_rejected", "strudel_admission_rejected_total",
        "Connections answered 503 by admission control.";
    keepalive_reuses: Counter, "connections.keepalive_reuses", "strudel_keepalive_reuses_total",
        "Requests served on a reused keep-alive connection.";
    connections_open: Gauge, "connections.open", "strudel_connections_open",
        "Connections currently open.";
    connections_idle: Gauge, "connections.idle", "strudel_connections_idle",
        "Open connections waiting between requests.";
    connections_reading: Gauge, "connections.reading", "strudel_connections_reading",
        "Open connections mid-request-head.";
    connections_writing: Gauge, "connections.writing", "strudel_connections_writing",
        "Open connections with response bytes still to flush.";
}

/// The signals `/metrics` has a form of its own for: the histogram behind the
/// four `latency_us` quantiles of `/stats`, and the build's labels.
const NATIVE: &[Signal<HistogramSnapshot>] = &[
    Signal {
        key: "",
        family: "strudel_request_duration_seconds",
        help: "Request latency from first byte to response written.",
        read: |latency| Reading::Histogram(*latency),
    },
    Signal {
        key: "",
        family: "strudel_build_info",
        help: "Build identity (constant 1; labels carry the detail).",
        read: |_| Reading::Info(BUILD_LABELS),
    },
];

const BUILD_LABELS: &[(&str, &str)] =
    &[("version", env!("CARGO_PKG_VERSION")), ("profile", PROFILE)];
const PROFILE: &str = if cfg!(debug_assertions) {
    "debug"
} else {
    "release"
};

/// Everything the server counts. Latencies land in a lock-free fixed-bucket
/// [`Histogram`]: recording is a few relaxed atomic adds and covers the
/// server's whole lifetime.
pub(crate) struct Metrics {
    pub counts: Counts,
    pub latency: Histogram,
    started: Instant,
    threads: u64,
}

impl Metrics {
    /// For a server that binds now, with a miss pool of `threads`.
    pub fn new(threads: usize) -> Self {
        Metrics {
            counts: Counts::new(),
            latency: Histogram::new(),
            started: Instant::now(),
            threads: threads as u64,
        }
    }

    pub fn record(&self, latency: Duration, is_error: bool) {
        self.counts.requests.inc();
        if is_error {
            self.counts.errors.inc();
        }
        self.latency
            .record(u64::try_from(latency.as_micros()).unwrap_or(u64::MAX));
    }

    pub fn snapshot(&self) -> ServeStats {
        self.stats_with(&self.latency.snapshot())
    }

    fn stats_with(&self, latency: &HistogramSnapshot) -> ServeStats {
        ServeStats {
            uptime_seconds: self.started.elapsed().as_secs(),
            threads: self.threads,
            latency_p50_us: latency.quantile(0.50),
            latency_p90_us: latency.quantile(0.90),
            latency_p99_us: latency.quantile(0.99),
            latency_max_us: latency.max_us,
            ..self.counts.snapshot()
        }
    }

    /// Reads every signal of the server itself into `scrape`, the latency
    /// histogram once for its buckets and its quantiles alike.
    pub fn scrape(&self, scrape: &mut Scrape) {
        let latency = self.latency.snapshot();
        scrape.walk(ServeStats::SIGNALS, &self.stats_with(&latency));
        scrape.walk(NATIVE, &latency);
    }
}
