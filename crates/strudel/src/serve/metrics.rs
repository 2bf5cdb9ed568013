//! Request counters, connection-layer counters, and the latency histogram.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;
use strudel_obs::{Counter, Histogram};

/// Everything the server counts.
///
/// Latencies land in a lock-free fixed-bucket [`Histogram`] rather than the
/// earlier mutex-guarded reservoir, whose fill phase raced the slot counter
/// against pushes. Recording is a few relaxed atomic adds, covers the
/// server's whole lifetime, and feeds `/metrics` directly.
///
/// The connection-state gauges (`conns_*`) are instantaneous: the event
/// loop publishes them after every tick.
#[derive(Default)]
pub(crate) struct Metrics {
    pub requests: Counter,
    pub errors: Counter,
    /// Answers armed by the loop from the page cache, and by a worker's
    /// completion; with the loop's own 4xx they add up to `requests`.
    pub inline: Counter,
    pub dispatched: Counter,
    pub latency: Histogram,
    /// `accept(2)` failures (EMFILE and friends). Each one also pauses the
    /// acceptor with exponential backoff instead of busy-spinning.
    pub accept_errors: Counter,
    /// Connections that opened and closed without sending a single byte
    /// (port scans, health probes). Closed silently — *not* an error, not
    /// a request.
    pub aborted: Counter,
    /// Connections refused with 503 by admission control.
    pub admission_rejected: Counter,
    /// Requests served on an already-used keep-alive connection.
    pub keepalive_reuses: Counter,
    pub conns_open: AtomicU64,
    pub conns_idle: AtomicU64,
    pub conns_reading: AtomicU64,
    pub conns_writing: AtomicU64,
}

impl Metrics {
    pub fn record(&self, latency: Duration, is_error: bool) {
        self.requests.inc();
        if is_error {
            self.errors.inc();
        }
        self.latency
            .record(u64::try_from(latency.as_micros()).unwrap_or(u64::MAX));
    }

    pub fn set_conn_gauges(&self, open: u64, idle: u64, reading: u64, writing: u64) {
        self.conns_open.store(open, Ordering::Relaxed);
        self.conns_idle.store(idle, Ordering::Relaxed);
        self.conns_reading.store(reading, Ordering::Relaxed);
        self.conns_writing.store(writing, Ordering::Relaxed);
    }

    pub fn snapshot(&self) -> ServeStats {
        let lat = self.latency.snapshot();
        ServeStats {
            requests: self.requests.get(),
            errors: self.errors.get(),
            requests_inline: self.inline.get(),
            requests_dispatched: self.dispatched.get(),
            latency_p50_us: lat.quantile(0.50),
            latency_p90_us: lat.quantile(0.90),
            latency_p99_us: lat.quantile(0.99),
            latency_max_us: lat.max_us,
            accept_errors: self.accept_errors.get(),
            connections_aborted: self.aborted.get(),
            admission_rejected: self.admission_rejected.get(),
            keepalive_reuses: self.keepalive_reuses.get(),
            connections_open: self.conns_open.load(Ordering::Relaxed),
            connections_idle: self.conns_idle.load(Ordering::Relaxed),
            connections_reading: self.conns_reading.load(Ordering::Relaxed),
            connections_writing: self.conns_writing.load(Ordering::Relaxed),
        }
    }
}

/// A snapshot of the server's request counters. Latency percentiles are
/// histogram estimates (the matching bucket's upper bound, clamped to the
/// exact observed maximum) over every request since the server bound.
#[derive(Default, Clone, Copy, Debug)]
pub struct ServeStats {
    /// Requests answered (any status).
    pub requests: u64,
    /// Requests answered with a 4xx/5xx status.
    pub errors: u64,
    /// Requests the event loop answered itself from the page cache.
    pub requests_inline: u64,
    /// Requests a worker of the miss pool answered; `requests` is these
    /// two plus the loop's own 400/408/431 answers.
    pub requests_dispatched: u64,
    /// Median request latency, microseconds (bucket estimate).
    pub latency_p50_us: u64,
    /// 90th-percentile request latency, microseconds (bucket estimate).
    pub latency_p90_us: u64,
    /// 99th-percentile request latency, microseconds (bucket estimate).
    pub latency_p99_us: u64,
    /// Worst request latency observed, microseconds (exact).
    pub latency_max_us: u64,
    /// `accept(2)` errors (each pauses the acceptor with backoff).
    pub accept_errors: u64,
    /// Connections closed without having sent a byte (not errors).
    pub connections_aborted: u64,
    /// Connections answered 503 by admission control.
    pub admission_rejected: u64,
    /// Requests served on a reused keep-alive connection.
    pub keepalive_reuses: u64,
    /// Connections currently open (instantaneous).
    pub connections_open: u64,
    /// Open connections waiting between requests.
    pub connections_idle: u64,
    /// Open connections mid-request-head.
    pub connections_reading: u64,
    /// Open connections with response bytes still to flush.
    pub connections_writing: u64,
}
