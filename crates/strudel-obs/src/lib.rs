//! Observability core for the STRUDEL pipeline.
//!
//! The paper's system spans wrappers, a mediator, StruQL evaluation, site
//! construction, HTML generation and click-time serving; this crate is the
//! shared vocabulary those layers use to explain themselves: monotonic
//! [`Counter`]s, lock-free fixed-bucket [`Histogram`]s, phase timing
//! ([`Timer`], [`Phases`]), Prometheus text exposition ([`PromText`]),
//! request-scoped tracing spans recorded into a flight recorder
//! ([`trace`]) — also the record of each executed query operator under
//! `--profile` — and the one declaration per signal that `/stats` and
//! `/metrics` are both rendered from ([`Signal`], [`Scrape`],
//! [`signals!`]).
//!
//! Design constraints (DESIGN.md §10):
//!
//! * **No dependencies.** Only `std`, like the rest of the workspace.
//! * **Nothing to switch on per evaluation.** Always-on counters are single
//!   relaxed atomic increments; a span is one thread-local read and an
//!   inert guard, without a clock read, unless a trace is active on the
//!   thread.
//! * **Lock-free recording.** [`Histogram::record`] is a handful of relaxed
//!   atomic operations — no mutex, so concurrent recorders can never tear
//!   each other's samples (the race the old serve-side reservoir had).

mod hist;
mod prom;
mod signal;

pub mod json;
pub mod trace;

pub use hist::{Histogram, HistogramSnapshot, BUCKET_BOUNDS_US};
pub use prom::{escape_help, escape_label_value, fmt_value, valid_metric_name, PromText};
pub use signal::{Reading, Sample, Scrape, Signal};

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// A monotonically increasing counter, safe to bump from any thread.
#[derive(Default, Debug)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A counter starting at zero.
    pub const fn new() -> Self {
        Counter(AtomicU64::new(0))
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// The current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A level that goes up and down, safe to set from any thread (last writer
/// wins).
#[derive(Default, Debug)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// A gauge at zero.
    pub const fn new() -> Self {
        Gauge(AtomicU64::new(0))
    }

    /// Overwrites the level.
    #[inline]
    pub fn set(&self, n: u64) {
        self.0.store(n, Ordering::Relaxed);
    }

    /// The current level.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A phase timer: the microseconds since it started.
///
/// ```
/// # use strudel_obs::Timer;
/// let t = Timer::start();
/// let _us = t.elapsed_us();
/// ```
#[derive(Clone, Copy, Debug)]
pub struct Timer(Instant);

impl Timer {
    /// Starts a running timer.
    pub fn start() -> Self {
        Timer(Instant::now())
    }

    /// Microseconds since the timer started.
    pub fn elapsed_us(&self) -> u64 {
        u64::try_from(self.0.elapsed().as_micros()).unwrap_or(u64::MAX)
    }
}

/// An ordered list of named phase durations — the shape of
/// `build --timings` output.
#[derive(Default, Clone, Debug)]
pub struct Phases {
    entries: Vec<(String, u64)>,
}

impl Phases {
    /// An empty phase list.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a phase duration in microseconds. Phases with the same name
    /// accumulate.
    pub fn add(&mut self, name: &str, us: u64) {
        if let Some((_, v)) = self.entries.iter_mut().find(|(n, _)| n == name) {
            *v += us;
        } else {
            self.entries.push((name.to_string(), us));
        }
    }

    /// The recorded `(name, microseconds)` pairs, in insertion order.
    pub fn entries(&self) -> &[(String, u64)] {
        &self.entries
    }

    /// The sum of all recorded phases, microseconds.
    pub fn total_us(&self) -> u64 {
        self.entries.iter().map(|(_, us)| *us).sum()
    }

    /// The phases as a JSON object in insertion order:
    /// `{"refresh_us":12,"eval_us":345,…}`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, us)) in self.entries.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{}\":{us}", json::escape(name)));
        }
        out.push('}');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_counts() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
    }

    #[test]
    fn phases_accumulate_and_serialize() {
        let mut p = Phases::new();
        p.add("eval", 10);
        p.add("render", 5);
        p.add("eval", 7);
        assert_eq!(p.entries(), &[("eval".into(), 17), ("render".into(), 5)]);
        assert_eq!(p.total_us(), 22);
        assert_eq!(p.to_json(), r#"{"eval":17,"render":5}"#);
    }
}
