//! Observability core for the STRUDEL pipeline.
//!
//! The paper's system spans wrappers, a mediator, StruQL evaluation, site
//! construction, HTML generation and click-time serving; this crate is the
//! shared vocabulary those layers use to explain themselves: monotonic
//! [`Counter`]s, lock-free fixed-bucket [`Histogram`]s, per-condition query
//! profiles ([`CondProfile`]), phase timing ([`Timer`], [`Phases`]),
//! Prometheus text exposition ([`PromText`]), request-scoped tracing spans
//! recorded into a lock-free flight recorder ([`trace`]), and the one
//! declaration per signal that `/stats` and `/metrics` are both rendered
//! from ([`Signal`], [`Scrape`], [`signals!`]).
//!
//! Design constraints (DESIGN.md §10):
//!
//! * **No dependencies.** Only `std`, like the rest of the workspace.
//! * **Near-zero cost when disabled.** Profiling is opt-in per evaluation;
//!   the disabled path is a branch on a `bool` per *condition* (not per
//!   row), and [`Timer::start_if`] compiles to `None` without reading the
//!   clock. Always-on counters are single relaxed atomic increments.
//! * **Lock-free recording.** [`Histogram::record`] is a handful of relaxed
//!   atomic operations — no mutex, so concurrent recorders can never tear
//!   each other's samples (the race the old serve-side reservoir had).

mod hist;
mod profile;
mod prom;
mod signal;

pub mod json;
pub mod trace;

pub use hist::{Histogram, HistogramSnapshot, BUCKET_BOUNDS_US};
pub use profile::{render_profile_json, render_profile_table, CondProfile};
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

/// A span timer whose disabled form never reads the clock.
///
/// ```
/// # use strudel_obs::Timer;
/// let t = Timer::start_if(false);
/// assert_eq!(t.elapsed_us(), 0); // no clock read happened
/// let t = Timer::start();
/// let _us = t.elapsed_us();
/// ```
#[derive(Clone, Copy, Debug)]
pub struct Timer(Option<Instant>);

impl Timer {
    /// Starts a running timer.
    pub fn start() -> Self {
        Timer(Some(Instant::now()))
    }

    /// Starts a timer only when `enabled`; otherwise the timer is inert and
    /// [`Timer::elapsed_us`] reports 0 without touching the clock.
    pub fn start_if(enabled: bool) -> Self {
        Timer(enabled.then(Instant::now))
    }

    /// Whether this timer is actually running.
    pub fn enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Microseconds since the timer started (0 when inert).
    pub fn elapsed_us(&self) -> u64 {
        self.0
            .map(|t| u64::try_from(t.elapsed().as_micros()).unwrap_or(u64::MAX))
            .unwrap_or(0)
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

    /// Times `f`, recording its duration under `name`.
    pub fn time<R>(&mut self, name: &str, f: impl FnOnce() -> R) -> R {
        let t = Timer::start();
        let r = f();
        self.add(name, t.elapsed_us());
        r
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
    fn disabled_timer_reports_zero() {
        let t = Timer::start_if(false);
        assert!(!t.enabled());
        assert_eq!(t.elapsed_us(), 0);
        assert!(Timer::start_if(true).enabled());
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
        let got = p.time("timed", || 42);
        assert_eq!(got, 42);
        assert_eq!(p.entries().len(), 3);
    }
}
