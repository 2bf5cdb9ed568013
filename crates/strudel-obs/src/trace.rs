//! Request-scoped tracing: a fixed-capacity **flight recorder**.
//!
//! Aggregate metrics answer "how slow are requests on average?";
//! this module answers "why was *this* request 40 ms?". Every layer of the
//! click path — connection handling, page cache, compiled-plan execution,
//! template render, paged store — records **spans** (`trace_id`, `span_id`,
//! parent, name, start/end monotonic ns, up to [`MAX_ATTRS`] key/value
//! attributes) into a fixed-capacity ring. The ring is the flight
//! recorder: it always holds the most recent spans, a span is written
//! without allocating, and it is safe to leave on in production. The same
//! spans are `strudel-cli query|explain --profile`'s record of what each
//! plan operator did.
//!
//! **Cost discipline** (DESIGN.md §14):
//!
//! * Tracing **disabled** (the default): [`begin_request`] is one relaxed
//!   atomic load returning `None`; [`span`] is a thread-local read returning
//!   an inert guard. Neither path ever reads the clock.
//! * Tracing **enabled**: every span costs two clock reads, one `fetch_add`
//!   claiming a ring slot, and a copy of the staged span into that slot
//!   under the slot's own lock. Two writers meet on one slot only a full
//!   ring wrap apart, so the lock is uncontended in practice.
//!
//! **Sampling semantics.** Head-based sampling cannot know a request's
//! duration up front, so the sample decision made at [`begin_request`] does
//! *not* gate recording — spans always enter the ring while tracing is
//! enabled. Instead it gates **promotion**: when a root span finishes, the
//! trace summary is pushed into the recent-traces index if it was sampled
//! *or* if the request turned out slower than the configured slow
//! threshold (`--trace-slow-ms`). Slow requests are therefore never lost
//! even at a 0.0 sample rate: their spans are still in the ring and their
//! summary is promoted at the end.
//!
//! Attribute text is stored **inline** (truncated to [`INLINE_BYTES`]) and
//! names and keys are `&'static str`, so a slot owns no heap memory; a
//! name is cut to [`INLINE_BYTES`] when read back. A slot is a `Mutex`
//! around the staged span: a reader locks it to copy the span out, so it
//! sees a whole span or none, whatever the CPU's memory ordering.

use crate::hist::Histogram;
use crate::json;
use crate::{Reading, Scrape, Signal};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::time::Instant;

/// Bytes a span name or text attribute value is truncated to.
pub const INLINE_BYTES: usize = 24;

/// Maximum attributes per span.
pub const MAX_ATTRS: usize = 8;

/// The layer a span belongs to; every span carries one so per-layer
/// self-times can be aggregated without parsing names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Layer {
    /// Connection handling, HTTP parse/write, routing.
    Serve = 0,
    /// Page-cache lookups and invalidation in `DynamicSite`.
    Cache = 1,
    /// Compiled-plan execution (one span per `PlanNode`).
    Eval = 2,
    /// Template/page rendering.
    Render = 3,
    /// Paged store: opens, materializations, commits, checkpoints, WAL.
    Store = 4,
    /// Anything else.
    Other = 5,
}

/// Number of distinct layers.
pub const LAYERS: usize = 6;

/// Layer names, indexed by `Layer as usize`.
pub const LAYER_NAMES: [&str; LAYERS] = ["serve", "cache", "eval", "render", "store", "other"];

impl Layer {
    /// The layer named `name` ([`LAYER_NAMES`]); `Other` for an unknown name.
    pub fn from_name(name: &str) -> Layer {
        match name {
            "serve" => Layer::Serve,
            "cache" => Layer::Cache,
            "eval" => Layer::Eval,
            "render" => Layer::Render,
            "store" => Layer::Store,
            _ => Layer::Other,
        }
    }

    /// The lowercase layer name (`"serve"`, `"cache"`, …).
    pub fn name(self) -> &'static str {
        LAYER_NAMES[self as usize]
    }
}

/// An attribute value as recorded on a span.
#[derive(Debug, Clone, PartialEq)]
pub enum AttrValue {
    /// An unsigned integer (row counts, byte counts, status codes).
    U64(u64),
    /// Text, truncated to [`INLINE_BYTES`] bytes at record time.
    Text(String),
}

impl AttrValue {
    fn render_json(&self) -> String {
        match self {
            AttrValue::U64(v) => format!("{v}"),
            AttrValue::Text(s) => format!("\"{}\"", json::escape(s)),
        }
    }
}

fn truncate_utf8(s: &str, max: usize) -> &str {
    if s.len() <= max {
        return s;
    }
    let mut end = max;
    while end > 0 && !s.is_char_boundary(end) {
        end -= 1;
    }
    &s[..end]
}

/// A span read back out of the flight recorder.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// The trace this span belongs to.
    pub trace_id: u64,
    /// This span's id, unique per process.
    pub span_id: u64,
    /// Parent span id; `0` for a root span.
    pub parent_id: u64,
    /// Layer the span was recorded under.
    pub layer: Layer,
    /// Span name (truncated to [`INLINE_BYTES`]).
    pub name: String,
    /// Start, monotonic nanoseconds since the recorder epoch.
    pub start_ns: u64,
    /// End, monotonic nanoseconds since the recorder epoch.
    pub end_ns: u64,
    /// Recorded attributes, in the order they were set.
    pub attrs: Vec<(String, AttrValue)>,
}

impl SpanRecord {
    /// Span duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// One attribute staged on a live span guard before it is written out.
#[derive(Debug, Clone)]
enum StagedVal {
    U64(u64),
    Text([u8; INLINE_BYTES], u8),
}

impl StagedVal {
    fn value(&self) -> AttrValue {
        match self {
            StagedVal::U64(v) => AttrValue::U64(*v),
            StagedVal::Text(bytes, len) => {
                AttrValue::Text(String::from_utf8_lossy(&bytes[..*len as usize]).into_owned())
            }
        }
    }
}

#[derive(Debug, Clone)]
struct StagedAttr {
    key: &'static str,
    val: StagedVal,
}

/// A span as a ring slot holds it; `trace_id` 0 marks a slot never written.
#[derive(Clone)]
struct RawSpan {
    trace_id: u64,
    span_id: u64,
    parent_id: u64,
    layer: Layer,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    attrs: [Option<StagedAttr>; MAX_ATTRS],
}

impl RawSpan {
    const EMPTY: RawSpan = RawSpan {
        trace_id: 0,
        span_id: 0,
        parent_id: 0,
        layer: Layer::Other,
        name: "",
        start_ns: 0,
        end_ns: 0,
        attrs: [const { None }; MAX_ATTRS],
    };

    fn record(&self) -> SpanRecord {
        SpanRecord {
            trace_id: self.trace_id,
            span_id: self.span_id,
            parent_id: self.parent_id,
            layer: self.layer,
            name: truncate_utf8(self.name, INLINE_BYTES).to_string(),
            start_ns: self.start_ns,
            end_ns: self.end_ns,
            attrs: self
                .attrs
                .iter()
                .flatten()
                .map(|a| (a.key.to_string(), a.val.value()))
                .collect(),
        }
    }
}

/// A ring slot: the span last written there, behind its own lock. A
/// writer's only update is one assignment of a whole span, so a poisoned
/// slot still holds a whole span and is used as it is.
type Slot = Mutex<RawSpan>;

/// Copies a slot's span out, or `None` for a slot never written.
fn read_slot(slot: &Slot) -> Option<SpanRecord> {
    let raw = slot.lock().unwrap_or_else(PoisonError::into_inner).clone();
    (raw.trace_id != 0).then(|| raw.record())
}

// ---------------------------------------------------------------------------
// The recorder.
// ---------------------------------------------------------------------------

/// A finished trace's summary, as kept in the recent/worst indexes.
#[derive(Debug, Clone)]
pub struct TraceSummary {
    /// Trace id (matches the `trace_id` of its spans in the ring).
    pub trace_id: u64,
    /// Root span name.
    pub name: String,
    /// The root span's `path` attribute, if any (request path).
    pub path: String,
    /// Root start, ns since recorder epoch.
    pub start_ns: u64,
    /// Total duration in nanoseconds.
    pub dur_ns: u64,
    /// Per-layer self-time in nanoseconds, indexed like [`LAYER_NAMES`].
    pub layer_self_ns: [u64; LAYERS],
    /// Number of spans recorded under this trace.
    pub spans: u32,
    /// Whether the head-based sampler picked this trace.
    pub sampled: bool,
    /// Whether the trace exceeded the slow threshold.
    pub slow: bool,
}

/// Shared per-trace state, carried by [`Ctx`] across threads.
pub struct TraceShared {
    trace_id: u64,
    root_span: u64,
    start_ns: u64,
    sampled: bool,
    layer_self_ns: [AtomicU64; LAYERS],
    root_child_ns: AtomicU64,
    span_count: AtomicU32,
}

/// A cheap cloneable handle used to propagate a trace across threads:
/// spans recorded under a `Ctx` become children of `parent_span`.
#[derive(Clone)]
pub struct Ctx {
    shared: Arc<TraceShared>,
    parent_span: u64,
}

impl Ctx {
    /// The trace id this context belongs to.
    pub fn trace_id(&self) -> u64 {
        self.shared.trace_id
    }
}

crate::signals! {
    /// The recorder's own cells: the sampler's decisions and its two settings.
    struct RecorderCells;
    /// Point-in-time counters for the `/metrics` + `/stats` trace block
    /// (zeroes when tracing was never enabled). The settings have no
    /// `/metrics` form.
    pub struct TraceStats {
        enabled: Flag, "traces.enabled", "strudel_trace_enabled",
            "Whether request tracing is enabled (1) or compiled out of the hot path (0).";
        spans_recorded: Counter, "traces.spans_recorded", "strudel_trace_spans_recorded_total",
            "Spans written into the flight-recorder ring.";
        spans_dropped: Counter, "traces.spans_dropped", "strudel_trace_spans_dropped_total",
            "Spans overwritten by ring wrap-around before export.";
        ring_capacity: Gauge, "traces.ring_capacity", "strudel_trace_ring_capacity",
            "Flight-recorder ring capacity in span slots.";
        ring_live: Gauge, "traces.ring_live", "strudel_trace_ring_occupancy",
            "Live span slots in the flight-recorder ring.";
    }
    traces_started: Counter, "traces.traces_started", "strudel_trace_traces_started_total",
        "Root request spans started.";
    traces_sampled: Counter, "traces.traces_sampled", "strudel_trace_traces_sampled_total",
        "Traces picked by the head-based sampler.";
    traces_slow_promoted: Counter, "traces.traces_slow_promoted", "strudel_trace_traces_slow_promoted_total",
        "Unsampled traces promoted for exceeding the slow threshold.";
    sample_ppm: Gauge, "traces.sample_ppm", "",
        "Head-sampling rate in parts per million.";
    slow_us: Gauge, "traces.slow_us", "",
        "Slow-promotion threshold in microseconds.";
}

struct Recorder {
    ring: Box<[Slot]>,
    head: AtomicU64,
    epoch: Instant,
    cells: RecorderCells,
    next_id: AtomicU64,
    recent: Mutex<VecDeque<TraceSummary>>,
    worst: Mutex<Vec<TraceSummary>>,
    recent_cap: usize,
    worst_cap: usize,
    layer_hist: [Histogram; LAYERS],
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static RECORDER: OnceLock<Recorder> = OnceLock::new();

/// Configuration for [`enable`].
#[derive(Debug, Clone, Copy)]
pub struct TraceConfig {
    /// Head-based sample rate in `[0.0, 1.0]`.
    pub sample_rate: f64,
    /// Requests slower than this are promoted regardless of sampling.
    pub slow_ms: u64,
    /// Ring capacity in slots. Fixed at first enable; later calls keep the
    /// existing ring.
    pub capacity: usize,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            sample_rate: 1.0,
            slow_ms: 50,
            capacity: 4096,
        }
    }
}

/// Turns tracing on (idempotent). The ring is allocated on the first call;
/// subsequent calls update the sampling knobs but keep the existing ring.
pub fn enable(cfg: TraceConfig) {
    let rec = RECORDER.get_or_init(|| Recorder::new(cfg.capacity));
    let ppm = (cfg.sample_rate.clamp(0.0, 1.0) * 1_000_000.0).round() as u64;
    rec.cells.sample_ppm.set(ppm);
    rec.cells.slow_us.set(cfg.slow_ms * 1_000);
    ENABLED.store(true, Ordering::Release);
}

/// Turns tracing off. The ring (and its contents) are retained.
pub fn disable() {
    ENABLED.store(false, Ordering::Release);
}

/// Whether tracing is enabled. One relaxed atomic load.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

fn recorder() -> Option<&'static Recorder> {
    if !enabled() {
        return None;
    }
    RECORDER.get()
}

/// Monotonic nanoseconds since the recorder epoch, or 0 when disabled.
/// Only call on paths already gated on [`enabled`].
pub fn now_ns() -> u64 {
    match recorder() {
        Some(r) => r.epoch.elapsed().as_nanos() as u64,
        None => 0,
    }
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

impl Recorder {
    fn new(capacity: usize) -> Recorder {
        Recorder {
            ring: (0..capacity.max(8))
                .map(|_| Mutex::new(RawSpan::EMPTY))
                .collect(),
            head: AtomicU64::new(0),
            epoch: Instant::now(),
            cells: RecorderCells::new(),
            next_id: AtomicU64::new(1),
            recent: Mutex::new(VecDeque::new()),
            worst: Mutex::new(Vec::new()),
            recent_cap: 64,
            worst_cap: 8,
            layer_hist: std::array::from_fn(|_| Histogram::new()),
        }
    }

    fn write(&self, raw: RawSpan) {
        let ticket = self.head.fetch_add(1, Ordering::Relaxed);
        let slot = &self.ring[(ticket % self.ring.len() as u64) as usize];
        *slot.lock().unwrap_or_else(PoisonError::into_inner) = raw;
    }

    fn promote(&self, summary: TraceSummary) {
        {
            let mut recent = self.recent.lock().unwrap();
            if recent.len() >= self.recent_cap {
                recent.pop_front();
            }
            recent.push_back(summary.clone());
        }
        let mut worst = self.worst.lock().unwrap();
        if worst.len() < self.worst_cap {
            worst.push(summary);
            worst.sort_by_key(|w| std::cmp::Reverse(w.dur_ns));
        } else if worst.last().is_some_and(|w| summary.dur_ns > w.dur_ns) {
            worst.pop();
            worst.push(summary);
            worst.sort_by_key(|w| std::cmp::Reverse(w.dur_ns));
        }
    }
}

// ---------------------------------------------------------------------------
// Thread-local active trace + span guards.
// ---------------------------------------------------------------------------

struct Frame {
    span_id: u64,
    child_ns: u64,
}

struct Active {
    shared: Arc<TraceShared>,
    base_parent: u64,
    base_child_ns: u64,
    frames: Vec<Frame>,
}

thread_local! {
    static ACTIVE: RefCell<Option<Active>> = const { RefCell::new(None) };
}

/// A root span covering one request, returned by [`begin_request`].
/// Finish it with [`RootSpan::finish`]; dropping without finishing records
/// nothing (the request was abandoned mid-flight).
pub struct RootSpan {
    shared: Arc<TraceShared>,
    name: &'static str,
    attrs: [Option<StagedAttr>; MAX_ATTRS],
    nattrs: usize,
}

/// Starts a new trace rooted at `name`, or `None` when tracing is disabled
/// (no clock read on that path).
pub fn begin_request(name: &'static str) -> Option<RootSpan> {
    let rec = recorder()?;
    let trace_id = rec.next_id.fetch_add(1, Ordering::Relaxed);
    let root_span = rec.next_id.fetch_add(1, Ordering::Relaxed);
    let ppm = rec.cells.sample_ppm.get();
    let sampled = ppm > 0 && splitmix64(trace_id) % 1_000_000 < ppm;
    rec.cells.traces_started.inc();
    if sampled {
        rec.cells.traces_sampled.inc();
    }
    let shared = Arc::new(TraceShared {
        trace_id,
        root_span,
        start_ns: rec.epoch.elapsed().as_nanos() as u64,
        sampled,
        layer_self_ns: std::array::from_fn(|_| AtomicU64::new(0)),
        root_child_ns: AtomicU64::new(0),
        span_count: AtomicU32::new(1),
    });
    Some(RootSpan {
        shared,
        name,
        attrs: [const { None }; MAX_ATTRS],
        nattrs: 0,
    })
}

fn stage_text(s: &str) -> StagedVal {
    let t = truncate_utf8(s, INLINE_BYTES);
    let mut buf = [0u8; INLINE_BYTES];
    buf[..t.len()].copy_from_slice(t.as_bytes());
    StagedVal::Text(buf, t.len() as u8)
}

impl RootSpan {
    /// A context for recording child spans (on this or another thread).
    pub fn ctx(&self) -> Ctx {
        Ctx {
            shared: self.shared.clone(),
            parent_span: self.shared.root_span,
        }
    }

    /// The trace id.
    pub fn trace_id(&self) -> u64 {
        self.shared.trace_id
    }

    /// The root start time, ns since the recorder epoch.
    pub fn start_ns(&self) -> u64 {
        self.shared.start_ns
    }

    fn push_attr(&mut self, key: &'static str, val: StagedVal) {
        if self.nattrs < MAX_ATTRS {
            self.attrs[self.nattrs] = Some(StagedAttr { key, val });
            self.nattrs += 1;
        }
    }

    /// Attaches an integer attribute (first [`MAX_ATTRS`] stick).
    pub fn attr_u64(&mut self, key: &'static str, val: u64) {
        self.push_attr(key, StagedVal::U64(val));
    }

    /// Attaches a text attribute, truncated to [`INLINE_BYTES`] bytes.
    pub fn attr_text(&mut self, key: &'static str, val: &str) {
        self.push_attr(key, stage_text(val));
    }

    /// Ends the trace: records the root span, accounts the root's
    /// self-time to the serve layer, feeds the per-layer histograms and
    /// promotes the summary if sampled or slow. Returns the summary.
    pub fn finish(self) -> Option<TraceSummary> {
        let rec = recorder()?;
        let end_ns = rec.epoch.elapsed().as_nanos() as u64;
        let dur_ns = end_ns.saturating_sub(self.shared.start_ns);
        let child = self.shared.root_child_ns.load(Ordering::Relaxed);
        let self_ns = dur_ns.saturating_sub(child);
        self.shared.layer_self_ns[Layer::Serve as usize].fetch_add(self_ns, Ordering::Relaxed);
        let mut path = String::new();
        for a in self.attrs.iter().flatten() {
            if a.key == "path" {
                if let StagedVal::Text(bytes, len) = &a.val {
                    path = String::from_utf8_lossy(&bytes[..*len as usize]).into_owned();
                }
            }
        }
        rec.write(RawSpan {
            trace_id: self.shared.trace_id,
            span_id: self.shared.root_span,
            parent_id: 0,
            layer: Layer::Serve,
            name: self.name,
            start_ns: self.shared.start_ns,
            end_ns,
            attrs: self.attrs,
        });
        let mut layer_self_ns = [0u64; LAYERS];
        for (i, v) in self.shared.layer_self_ns.iter().enumerate() {
            layer_self_ns[i] = v.load(Ordering::Relaxed);
        }
        for (i, hist) in rec.layer_hist.iter().enumerate().take(LAYERS - 1) {
            hist.record(layer_self_ns[i] / 1_000);
        }
        let slow_us = rec.cells.slow_us.get();
        let slow = slow_us > 0 && dur_ns / 1_000 >= slow_us;
        if slow && !self.shared.sampled {
            rec.cells.traces_slow_promoted.inc();
        }
        let summary = TraceSummary {
            trace_id: self.shared.trace_id,
            name: self.name.to_string(),
            path,
            start_ns: self.shared.start_ns,
            dur_ns,
            layer_self_ns,
            spans: self.shared.span_count.load(Ordering::Relaxed),
            sampled: self.shared.sampled,
            slow,
        };
        if self.shared.sampled || slow {
            rec.promote(summary.clone());
        }
        Some(summary)
    }
}

/// Records a completed span with explicit timestamps as a direct child of
/// `ctx`'s parent span. Used by the event loop, where span lifetimes don't
/// match lexical scopes (a connection parks between readiness events).
pub fn record_span(
    ctx: &Ctx,
    name: &'static str,
    layer: Layer,
    start_ns: u64,
    end_ns: u64,
    attrs: &[(&'static str, AttrValue)],
) {
    let Some(rec) = recorder() else { return };
    let span_id = rec.next_id.fetch_add(1, Ordering::Relaxed);
    let elapsed = end_ns.saturating_sub(start_ns);
    ctx.shared.layer_self_ns[layer as usize].fetch_add(elapsed, Ordering::Relaxed);
    if ctx.parent_span == ctx.shared.root_span {
        ctx.shared
            .root_child_ns
            .fetch_add(elapsed, Ordering::Relaxed);
    }
    ctx.shared.span_count.fetch_add(1, Ordering::Relaxed);
    let mut staged = [const { None }; MAX_ATTRS];
    for (i, (k, v)) in attrs.iter().take(MAX_ATTRS).enumerate() {
        staged[i] = Some(StagedAttr {
            key: k,
            val: match v {
                AttrValue::U64(n) => StagedVal::U64(*n),
                AttrValue::Text(s) => stage_text(s),
            },
        });
    }
    rec.write(RawSpan {
        trace_id: ctx.shared.trace_id,
        span_id,
        parent_id: ctx.parent_span,
        layer,
        name,
        start_ns,
        end_ns,
        attrs: staged,
    });
}

/// Activates `ctx` on this thread for the guard's lifetime: [`span`] calls
/// made underneath attach to it. Used by serve workers and parallel render
/// workers to adopt a trace started on another thread.
pub fn enter(ctx: &Ctx) -> EnterGuard {
    if !enabled() {
        return EnterGuard(None);
    }
    let prev = ACTIVE.with(|a| {
        a.borrow_mut().replace(Active {
            shared: ctx.shared.clone(),
            base_parent: ctx.parent_span,
            base_child_ns: 0,
            frames: Vec::new(),
        })
    });
    EnterGuard(Some(prev))
}

/// Restores the thread's previous trace context on drop (see [`enter`]) —
/// nesting is allowed, e.g. a parallel render falling back to its inline
/// single-worker path on a thread that already carries a trace.
pub struct EnterGuard(Option<Option<Active>>);

impl Drop for EnterGuard {
    fn drop(&mut self) {
        let Some(prev) = self.0.take() else { return };
        ACTIVE.with(|a| {
            let mut borrow = a.borrow_mut();
            if let Some(active) = borrow.take() {
                if active.base_parent == active.shared.root_span {
                    active
                        .shared
                        .root_child_ns
                        .fetch_add(active.base_child_ns, Ordering::Relaxed);
                }
            }
            *borrow = prev;
        });
    }
}

/// The context active on this thread, if any — capture before handing work
/// to another thread, then [`enter`] it there. Child spans recorded under
/// the captured context attach to the span that was innermost here.
pub fn current() -> Option<Ctx> {
    if !enabled() {
        return None;
    }
    ACTIVE.with(|a| {
        a.borrow().as_ref().map(|active| Ctx {
            shared: active.shared.clone(),
            parent_span: active
                .frames
                .last()
                .map(|f| f.span_id)
                .unwrap_or(active.base_parent),
        })
    })
}

/// An RAII span: records itself into the flight recorder on drop. Inert
/// (never reads the clock) when tracing is disabled or no trace is active
/// on this thread.
pub struct SpanGuard(Option<SpanInner>);

struct SpanInner {
    span_id: u64,
    layer: Layer,
    name: &'static str,
    start_ns: u64,
    attrs: [Option<StagedAttr>; MAX_ATTRS],
    nattrs: usize,
}

/// Opens a span under the thread's active trace (see [`enter`]). Inert when
/// tracing is disabled or no trace is active.
pub fn span(name: &'static str, layer: Layer) -> SpanGuard {
    let Some(rec) = recorder() else {
        return SpanGuard(None);
    };
    ACTIVE.with(|a| {
        let mut borrow = a.borrow_mut();
        let Some(active) = borrow.as_mut() else {
            return SpanGuard(None);
        };
        let span_id = rec.next_id.fetch_add(1, Ordering::Relaxed);
        active.frames.push(Frame {
            span_id,
            child_ns: 0,
        });
        active.shared.span_count.fetch_add(1, Ordering::Relaxed);
        SpanGuard(Some(SpanInner {
            span_id,
            layer,
            name,
            start_ns: rec.epoch.elapsed().as_nanos() as u64,
            attrs: [const { None }; MAX_ATTRS],
            nattrs: 0,
        }))
    })
}

impl SpanGuard {
    /// Whether this guard will record anything.
    pub fn is_live(&self) -> bool {
        self.0.is_some()
    }

    fn push_attr(&mut self, key: &'static str, val: StagedVal) {
        if let Some(inner) = &mut self.0 {
            if inner.nattrs < MAX_ATTRS {
                inner.attrs[inner.nattrs] = Some(StagedAttr { key, val });
                inner.nattrs += 1;
            }
        }
    }

    /// Attaches an integer attribute (no-op on an inert guard).
    pub fn attr_u64(&mut self, key: &'static str, val: u64) {
        if self.0.is_some() {
            self.push_attr(key, StagedVal::U64(val));
        }
    }

    /// Attaches a text attribute, truncated to [`INLINE_BYTES`] bytes.
    pub fn attr_text(&mut self, key: &'static str, val: &str) {
        if self.0.is_some() {
            self.push_attr(key, stage_text(val));
        }
    }

    /// Abandons the span: nothing is recorded and nothing is accounted, as
    /// if it had never been opened. For work that turns out to belong to a
    /// span opened elsewhere (a cache probe that declines, so the request
    /// is handled — and traced — on another thread).
    pub fn cancel(mut self) {
        let Some(inner) = self.0.take() else { return };
        ACTIVE.with(|a| {
            let mut borrow = a.borrow_mut();
            let Some(active) = borrow.as_mut() else {
                return;
            };
            if active.frames.last().map(|f| f.span_id) != Some(inner.span_id) {
                return; // out-of-order: leave the frames as `drop` would
            }
            // Spans recorded underneath pass to the enclosing span.
            let child_ns = active.frames.pop().map_or(0, |f| f.child_ns);
            match active.frames.last_mut() {
                Some(f) => f.child_ns += child_ns,
                None => active.base_child_ns += child_ns,
            }
            active.shared.span_count.fetch_sub(1, Ordering::Relaxed);
        });
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(inner) = self.0.take() else { return };
        let Some(rec) = RECORDER.get() else { return };
        let end_ns = rec.epoch.elapsed().as_nanos() as u64;
        let elapsed = end_ns.saturating_sub(inner.start_ns);
        ACTIVE.with(|a| {
            let mut borrow = a.borrow_mut();
            let Some(active) = borrow.as_mut() else {
                return;
            };
            // Guards are strictly nested (RAII), so ours is the top frame.
            let child_ns = match active.frames.pop() {
                Some(f) if f.span_id == inner.span_id => f.child_ns,
                Some(f) => {
                    // Out-of-order drop (e.g. mem::forget upstream): put it
                    // back and account without child subtraction.
                    active.frames.push(f);
                    0
                }
                None => 0,
            };
            let parent_id = active
                .frames
                .last()
                .map(|f| f.span_id)
                .unwrap_or(active.base_parent);
            match active.frames.last_mut() {
                Some(f) => f.child_ns += elapsed,
                None => active.base_child_ns += elapsed,
            }
            let self_ns = elapsed.saturating_sub(child_ns);
            active.shared.layer_self_ns[inner.layer as usize].fetch_add(self_ns, Ordering::Relaxed);
            rec.write(RawSpan {
                trace_id: active.shared.trace_id,
                span_id: inner.span_id,
                parent_id,
                layer: inner.layer,
                name: inner.name,
                start_ns: inner.start_ns,
                end_ns,
                attrs: inner.attrs,
            });
        });
    }
}

// ---------------------------------------------------------------------------
// Reading the recorder: stats, snapshots, JSON + Chrome trace-event export.
// ---------------------------------------------------------------------------

/// Point-in-time trace counters (zeroes when tracing never enabled).
pub fn stats() -> TraceStats {
    let Some(rec) = RECORDER.get() else {
        return TraceStats::default();
    };
    let head = rec.head.load(Ordering::Relaxed);
    let cap = rec.ring.len() as u64;
    TraceStats {
        enabled: enabled(),
        spans_recorded: head,
        spans_dropped: head.saturating_sub(cap),
        ring_capacity: cap,
        ring_live: head.min(cap),
        ..rec.cells.snapshot()
    }
}

/// All valid spans currently in the ring (unordered).
pub fn snapshot_spans() -> Vec<SpanRecord> {
    let Some(rec) = RECORDER.get() else {
        return Vec::new();
    };
    rec.ring.iter().filter_map(read_slot).collect()
}

/// The most recently promoted trace summaries, newest last.
pub fn recent_traces() -> Vec<TraceSummary> {
    match RECORDER.get() {
        Some(rec) => rec.recent.lock().unwrap().iter().cloned().collect(),
        None => Vec::new(),
    }
}

/// The N worst (slowest) promoted traces, slowest first.
pub fn worst_traces() -> Vec<TraceSummary> {
    match RECORDER.get() {
        Some(rec) => rec.worst.lock().unwrap().clone(),
        None => Vec::new(),
    }
}

/// Per-layer self-time quantiles `(layer, p50_us, p99_us)` across all
/// finished traces (serve/cache/eval/render/store; `other` excluded).
pub fn layer_quantiles() -> Vec<(&'static str, u64, u64)> {
    let Some(rec) = RECORDER.get() else {
        return Vec::new();
    };
    rec.layer_hist
        .iter()
        .take(LAYERS - 1)
        .enumerate()
        .map(|(i, h)| {
            let snap = h.snapshot();
            (LAYER_NAMES[i], snap.quantile(0.5), snap.quantile(0.99))
        })
        .collect()
}

/// Reads the recorder's signals into `scrape`: [`stats`], and the two blocks
/// of `/stats` `traces` that are rendered here, beside the data they print.
pub fn scrape(scrape: &mut Scrape) {
    let stats = stats();
    scrape.walk(TraceStats::SIGNALS, &stats);
    scrape.walk(BLOCKS, &stats);
}

/// The `/stats`-only blocks: they read the recorder itself, not the snapshot.
const BLOCKS: &[Signal<TraceStats>] = &[
    Signal {
        key: "traces.layers",
        family: "",
        help: "Per-layer self-time p50/p99 over all finished traces, microseconds.",
        read: |_| Reading::Json(layers_json()),
    },
    Signal {
        key: "traces.worst",
        family: "",
        help: "The slowest promoted traces with per-layer self-times.",
        read: |_| Reading::Json(worst_json()),
    },
];

fn layers_json() -> String {
    let layers: Vec<String> = layer_quantiles()
        .iter()
        .map(|(name, p50, p99)| format!("\"{name}\":{{\"p50_us\":{p50},\"p99_us\":{p99}}}"))
        .collect();
    format!("{{{}}}", layers.join(","))
}

fn worst_json() -> String {
    let worst: Vec<String> = worst_traces()
        .iter()
        .map(|w| {
            let self_us: Vec<String> = LAYER_NAMES
                .iter()
                .zip(w.layer_self_ns)
                .map(|(name, ns)| format!("\"{name}\":{}", ns / 1_000))
                .collect();
            format!(
                "{{\"trace_id\":{},\"path\":\"{}\",\"duration_us\":{},\"spans\":{},\
                 \"layers_self_us\":{{{}}}}}",
                w.trace_id,
                json::escape(&w.path),
                w.dur_ns / 1_000,
                w.spans,
                self_us.join(","),
            )
        })
        .collect();
    format!("[{}]", worst.join(","))
}

fn summary_json(s: &TraceSummary) -> String {
    let mut layers = String::new();
    for (i, name) in LAYER_NAMES.iter().enumerate() {
        if i > 0 {
            layers.push(',');
        }
        layers.push_str(&format!(
            "\"{name}\":{}",
            fmt_us(s.layer_self_ns[i] as f64 / 1_000.0)
        ));
    }
    format!(
        "{{\"trace_id\":{},\"name\":\"{}\",\"path\":\"{}\",\"start_us\":{},\"duration_us\":{},\"span_count\":{},\"sampled\":{},\"slow\":{},\"layers_self_us\":{{{layers}}}}}",
        s.trace_id,
        json::escape(&s.name),
        json::escape(&s.path),
        fmt_us(s.start_ns as f64 / 1_000.0),
        fmt_us(s.dur_ns as f64 / 1_000.0),
        s.spans,
        s.sampled,
        s.slow,
    )
}

fn fmt_us(us: f64) -> String {
    // Keep sub-microsecond resolution without float noise.
    let v = (us * 1_000.0).round() / 1_000.0;
    if v.fract() == 0.0 {
        format!("{}", v as u64)
    } else {
        format!("{v}")
    }
}

impl SpanRecord {
    /// The span in its `/debug/traces` form: `span_id`, `parent_id`,
    /// `name`, `cat` (the layer), `start_us`, `dur_us`, `attrs`.
    pub fn to_json(&self) -> String {
        let mut attrs = String::new();
        for (i, (k, v)) in self.attrs.iter().enumerate() {
            if i > 0 {
                attrs.push(',');
            }
            attrs.push_str(&format!("\"{}\":{}", json::escape(k), v.render_json()));
        }
        format!(
            "{{\"span_id\":{},\"parent_id\":{},\"name\":\"{}\",\"cat\":\"{}\",\"start_us\":{},\"dur_us\":{},\"attrs\":{{{attrs}}}}}",
            self.span_id,
            self.parent_id,
            json::escape(&self.name),
            self.layer.name(),
            fmt_us(self.start_ns as f64 / 1_000.0),
            fmt_us(self.dur_ns() as f64 / 1_000.0),
        )
    }

    /// Reads back a span of trace `trace_id` from its
    /// [`SpanRecord::to_json`] form, or `None` if a field is missing. Exact:
    /// times are printed to the nanosecond.
    pub fn from_json(trace_id: u64, v: &json::Value) -> Option<SpanRecord> {
        let int = |key: &str| v.get(key)?.as_f64().map(|n| n as u64);
        let ns = |key: &str| v.get(key)?.as_f64().map(|us| (us * 1_000.0).round() as u64);
        let Some(json::Value::Object(fields)) = v.get("attrs") else {
            return None;
        };
        let attrs = fields
            .iter()
            .map(|(k, v)| {
                let val = match v {
                    json::Value::String(t) => AttrValue::Text(t.clone()),
                    other => AttrValue::U64(other.as_f64()? as u64),
                };
                Some((k.clone(), val))
            })
            .collect::<Option<_>>()?;
        let start_ns = ns("start_us")?;
        Some(SpanRecord {
            trace_id,
            span_id: int("span_id")?,
            parent_id: int("parent_id")?,
            layer: Layer::from_name(v.get("cat")?.as_str()?),
            name: v.get("name")?.as_str()?.to_string(),
            start_ns,
            end_ns: start_ns + ns("dur_us")?,
            attrs,
        })
    }
}

/// Renders the recent traces (with their spans still in the ring) as the
/// `/debug/traces` JSON document.
pub fn traces_json() -> String {
    let recents = recent_traces();
    let spans = snapshot_spans();
    let mut out = String::from("{\"traces\":[");
    for (ti, summary) in recents.iter().rev().enumerate() {
        if ti > 0 {
            out.push(',');
        }
        let mut mine: Vec<&SpanRecord> = spans
            .iter()
            .filter(|s| s.trace_id == summary.trace_id)
            .collect();
        mine.sort_by_key(|s| (s.start_ns, s.span_id));
        let mut body = summary_json(summary);
        body.pop(); // strip trailing '}' to splice in the span list
        body.push_str(",\"spans\":[");
        for (i, s) in mine.iter().enumerate() {
            if i > 0 {
                body.push(',');
            }
            body.push_str(&s.to_json());
        }
        body.push_str("]}");
        out.push_str(&body);
    }
    out.push_str("]}");
    out
}

/// Renders every span of the promoted recent traces in Chrome trace-event
/// format (a JSON array of `"ph":"X"` complete events, `ts`/`dur` in µs,
/// sorted by `ts`) — load via chrome://tracing or Perfetto.
pub fn traces_chrome() -> String {
    let recents = recent_traces();
    let spans = snapshot_spans();
    let mut events: Vec<(u64, String)> = Vec::new();
    for (ti, summary) in recents.iter().rev().enumerate() {
        for s in spans.iter().filter(|s| s.trace_id == summary.trace_id) {
            let mut args = format!("\"trace_id\":{}", s.trace_id);
            for (k, v) in &s.attrs {
                args.push_str(&format!(",\"{}\":{}", json::escape(k), v.render_json()));
            }
            let ev = format!(
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":1,\"tid\":{},\"args\":{{{args}}}}}",
                json::escape(&s.name),
                s.layer.name(),
                fmt_us(s.start_ns as f64 / 1_000.0),
                fmt_us(s.dur_ns() as f64 / 1_000.0),
                ti + 1,
            );
            events.push((s.start_ns, ev));
        }
    }
    events.sort_by_key(|(ts, _)| *ts);
    let mut out = String::from("[");
    for (i, (_, ev)) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(ev);
    }
    out.push(']');
    out
}

/// One node of an assembled span tree (see [`assemble_tree`]).
#[derive(Debug)]
pub struct TreeNode {
    /// The span at this node.
    pub span: SpanRecord,
    /// Children, ordered by start time.
    pub children: Vec<TreeNode>,
    /// Self-time: duration minus the sum of the children's durations.
    pub self_ns: u64,
}

/// Assembles the spans of one trace into a forest (roots first by start
/// time). Spans whose parent was overwritten by ring wrap-around surface
/// as additional roots rather than being dropped.
pub fn assemble_tree(spans: &[SpanRecord]) -> Vec<TreeNode> {
    let present: std::collections::HashSet<u64> = spans.iter().map(|s| s.span_id).collect();
    let mut by_parent: std::collections::HashMap<u64, Vec<&SpanRecord>> =
        std::collections::HashMap::new();
    let mut roots: Vec<&SpanRecord> = Vec::new();
    for s in spans {
        if s.parent_id != 0 && present.contains(&s.parent_id) {
            by_parent.entry(s.parent_id).or_default().push(s);
        } else {
            roots.push(s);
        }
    }
    fn build(
        s: &SpanRecord,
        by_parent: &std::collections::HashMap<u64, Vec<&SpanRecord>>,
    ) -> TreeNode {
        let mut children: Vec<TreeNode> = by_parent
            .get(&s.span_id)
            .map(|kids| kids.iter().map(|k| build(k, by_parent)).collect())
            .unwrap_or_default();
        children.sort_by_key(|c| (c.span.start_ns, c.span.span_id));
        let child_total: u64 = children.iter().map(|c| c.span.dur_ns()).sum();
        TreeNode {
            span: s.clone(),
            self_ns: s.dur_ns().saturating_sub(child_total),
            children,
        }
    }
    roots.sort_by_key(|s| (s.start_ns, s.span_id));
    roots.iter().map(|s| build(s, &by_parent)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The recorder is one per process and tests run in parallel: a test
    /// that records holds this shared, the two that reconfigure or disable
    /// the recorder hold it exclusively.
    static CONFIG: std::sync::RwLock<()> = std::sync::RwLock::new(());

    fn record_everything() {
        enable(TraceConfig {
            sample_rate: 1.0,
            slow_ms: 0,
            capacity: 1024,
        });
    }

    fn ensure_enabled() -> std::sync::RwLockReadGuard<'static, ()> {
        let shared = CONFIG.read().unwrap_or_else(|e| e.into_inner());
        record_everything();
        shared
    }

    fn reconfiguring() -> std::sync::RwLockWriteGuard<'static, ()> {
        CONFIG.write().unwrap_or_else(|e| e.into_inner())
    }

    fn spans_of(trace_id: u64) -> Vec<SpanRecord> {
        snapshot_spans()
            .into_iter()
            .filter(|s| s.trace_id == trace_id)
            .collect()
    }

    #[test]
    fn disabled_paths_are_inert() {
        let _alone = reconfiguring();
        disable();
        assert!(begin_request("request").is_none());
        let g = span("x", Layer::Eval);
        assert!(!g.is_live());
        assert!(current().is_none());
        record_everything();
    }

    #[test]
    fn spans_nest_and_record_attrs() {
        let _recording = ensure_enabled();
        let mut root = begin_request("request").unwrap();
        root.attr_text("path", "/page/HomePage");
        root.attr_u64("status", 200);
        let trace_id = root.trace_id();
        {
            let _enter = enter(&root.ctx());
            let mut outer = span("cache.expand", Layer::Cache);
            outer.attr_u64("hits", 3);
            {
                let mut inner = span("eval.op", Layer::Eval);
                inner.attr_text("op", "hash-join");
                inner.attr_u64("rows", 42);
            }
        }
        let summary = root.finish().unwrap();
        assert_eq!(summary.trace_id, trace_id);
        assert_eq!(summary.spans, 3);
        assert_eq!(summary.path, "/page/HomePage");
        let spans = spans_of(trace_id);
        assert_eq!(spans.len(), 3);
        let root_rec = spans.iter().find(|s| s.parent_id == 0).unwrap();
        assert_eq!(root_rec.name, "request");
        let outer = spans.iter().find(|s| s.name == "cache.expand").unwrap();
        assert_eq!(outer.parent_id, root_rec.span_id);
        assert_eq!(outer.layer, Layer::Cache);
        assert_eq!(outer.attrs, vec![("hits".into(), AttrValue::U64(3))]);
        let inner = spans.iter().find(|s| s.name == "eval.op").unwrap();
        assert_eq!(inner.parent_id, outer.span_id);
        assert_eq!(
            inner.attrs,
            vec![
                ("op".into(), AttrValue::Text("hash-join".into())),
                ("rows".into(), AttrValue::U64(42)),
            ]
        );
        // Intervals nest.
        assert!(outer.start_ns >= root_rec.start_ns && outer.end_ns <= root_rec.end_ns);
        assert!(inner.start_ns >= outer.start_ns && inner.end_ns <= outer.end_ns);
        // Self-times decompose: per-layer self-times sum to ~duration.
        let total: u64 = summary.layer_self_ns.iter().sum();
        assert!(total <= summary.dur_ns + 1_000, "{summary:?}");
        assert!(total >= summary.dur_ns.saturating_sub(summary.dur_ns / 2));
    }

    #[test]
    fn cancelled_spans_leave_no_record_and_no_time() {
        let _recording = ensure_enabled();
        let root = begin_request("request").unwrap();
        let trace_id = root.trace_id();
        {
            let _enter = enter(&root.ctx());
            let handle = span("serve.handle", Layer::Serve);
            span("cache.expand", Layer::Cache).cancel();
            handle.cancel();
            // The frames are gone too: the next span hangs off the root.
            let _s = span("render.page", Layer::Render);
        }
        let root_id = root.ctx().shared.root_span;
        let summary = root.finish().unwrap();
        assert_eq!(summary.spans, 2);
        assert_eq!(summary.layer_self_ns[Layer::Cache as usize], 0);
        let spans = spans_of(trace_id);
        let names: Vec<&str> = spans.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(spans.len(), 2, "{names:?}");
        let page = spans.iter().find(|s| s.name == "render.page").unwrap();
        assert_eq!(page.parent_id, root_id);
    }

    #[test]
    fn explicit_record_span_attaches_to_ctx() {
        let _recording = ensure_enabled();
        let root = begin_request("request").unwrap();
        let trace_id = root.trace_id();
        let ctx = root.ctx();
        let t0 = now_ns();
        record_span(
            &ctx,
            "serve.parse",
            Layer::Serve,
            t0,
            t0 + 500,
            &[("bytes", AttrValue::U64(128))],
        );
        let root_id = ctx.shared.root_span;
        root.finish().unwrap();
        let spans = spans_of(trace_id);
        let parse = spans.iter().find(|s| s.name == "serve.parse").unwrap();
        assert_eq!(parse.parent_id, root_id);
        assert_eq!(parse.dur_ns(), 500);
    }

    #[test]
    fn cross_thread_ctx_parents_correctly() {
        let _recording = ensure_enabled();
        let root = begin_request("request").unwrap();
        let trace_id = root.trace_id();
        let ctx = root.ctx();
        let handle = std::thread::spawn(move || {
            let _enter = enter(&ctx);
            let _s = span("render.page", Layer::Render);
        });
        handle.join().unwrap();
        let root_id = root.ctx().shared.root_span;
        root.finish().unwrap();
        let spans = spans_of(trace_id);
        let page = spans.iter().find(|s| s.name == "render.page").unwrap();
        assert_eq!(page.parent_id, root_id);
        assert_eq!(page.layer, Layer::Render);
    }

    #[test]
    fn ring_wraps_without_orphan_parent_loops() {
        let _recording = ensure_enabled();
        let cap = stats().ring_capacity;
        let mut root = begin_request("request").unwrap();
        root.attr_text("path", "/wrap");
        let trace_id = root.trace_id();
        {
            let _enter = enter(&root.ctx());
            for _ in 0..cap + 50 {
                let _s = span("eval.op", Layer::Eval);
            }
        }
        root.finish().unwrap();
        let spans = spans_of(trace_id);
        // The ring wrapped: early spans are gone, late ones survive.
        assert!(spans.len() as u64 <= cap);
        assert!(!spans.is_empty());
        // assemble_tree tolerates overwritten parents (they become roots).
        let forest = assemble_tree(&spans);
        let mut count = 0usize;
        fn walk(n: &TreeNode, count: &mut usize) {
            *count += 1;
            for c in &n.children {
                assert!(c.span.start_ns >= n.span.start_ns);
                assert!(c.span.end_ns <= n.span.end_ns);
                walk(c, count);
            }
        }
        for n in &forest {
            walk(n, &mut count);
        }
        assert_eq!(count, spans.len());
    }

    #[test]
    fn sampling_zero_still_promotes_slow_traces() {
        let _alone = reconfiguring();
        enable(TraceConfig {
            sample_rate: 0.0,
            slow_ms: 0, // 0 disables slow promotion
            capacity: 1024,
        });
        let fast = begin_request("request").unwrap();
        let fast_id = fast.trace_id();
        fast.finish().unwrap();
        assert!(!recent_traces().iter().any(|t| t.trace_id == fast_id));
        // With a 1µs threshold every trace counts as slow.
        enable(TraceConfig {
            sample_rate: 0.0,
            slow_ms: 0,
            capacity: 1024,
        });
        if let Some(rec) = RECORDER.get() {
            rec.cells.slow_us.set(1);
        }
        let slow = begin_request("request").unwrap();
        let slow_id = slow.trace_id();
        std::thread::sleep(std::time::Duration::from_micros(100));
        let summary = slow.finish().unwrap();
        assert!(summary.slow);
        assert!(recent_traces().iter().any(|t| t.trace_id == slow_id));
        record_everything();
    }

    #[test]
    fn long_names_and_text_truncate_cleanly() {
        let _recording = ensure_enabled();
        let mut root =
            begin_request("a-very-long-span-name-that-exceeds-the-inline-capacity").unwrap();
        root.attr_text(
            "path",
            "/a/path/that/is/definitely/longer/than/the/inline/window",
        );
        let trace_id = root.trace_id();
        root.finish().unwrap();
        let spans = spans_of(trace_id);
        let rec = &spans[0];
        assert_eq!(rec.name.len(), INLINE_BYTES);
        assert!(rec.name.starts_with("a-very-long"));
        let (_, AttrValue::Text(path)) = &rec.attrs[0] else {
            panic!("expected text attr");
        };
        assert_eq!(path.len(), INLINE_BYTES);
    }

    #[test]
    fn chrome_export_is_sorted_json_array() {
        let _recording = ensure_enabled();
        let mut root = begin_request("request").unwrap();
        root.attr_text("path", "/chrome");
        {
            let _enter = enter(&root.ctx());
            let _a = span("cache.expand", Layer::Cache);
        }
        root.finish().unwrap();
        let text = traces_chrome();
        let parsed = json::parse(&text).expect("chrome export must be valid JSON");
        let json::Value::Array(events) = parsed else {
            panic!("expected array")
        };
        assert!(!events.is_empty());
        let mut last_ts = f64::MIN;
        for ev in &events {
            let json::Value::Object(fields) = ev else {
                panic!("expected object")
            };
            let get = |k: &str| fields.iter().find(|(n, _)| n == k).map(|(_, v)| v);
            assert_eq!(get("ph"), Some(&json::Value::String("X".into())));
            let Some(json::Value::Number(ts)) = get("ts") else {
                panic!("missing ts")
            };
            assert!(*ts >= last_ts, "ts must be monotone");
            last_ts = *ts;
        }
    }

    #[test]
    fn traces_json_is_valid_and_carries_spans() {
        let _recording = ensure_enabled();
        let mut root = begin_request("request").unwrap();
        root.attr_text("path", "/json-check");
        let trace_id = root.trace_id();
        {
            let _enter = enter(&root.ctx());
            let _a = span("eval.op", Layer::Eval);
        }
        root.finish().unwrap();
        let doc = json::parse(&traces_json()).expect("valid JSON");
        let traces = doc.get("traces").and_then(|t| t.as_array()).unwrap();
        let mine = traces
            .iter()
            .find(|t| t.get("trace_id").and_then(|v| v.as_f64()) == Some(trace_id as f64))
            .expect("trace present");
        let spans = mine.get("spans").and_then(|s| s.as_array()).unwrap();
        assert_eq!(spans.len(), 2);
        assert!(mine.get("layers_self_us").is_some());
    }

    #[test]
    fn spans_read_back_from_json_exactly() {
        let span = SpanRecord {
            trace_id: 7,
            span_id: 12,
            parent_id: 11,
            layer: Layer::Eval,
            name: "eval.op".into(),
            start_ns: 123_456_789_001,
            end_ns: 123_456_790_999,
            attrs: vec![
                ("op".into(), AttrValue::Text("label-scan".into())),
                ("obs_rows".into(), AttrValue::U64(4_000)),
            ],
        };
        let doc = json::parse(&span.to_json()).expect("valid JSON");
        assert_eq!(SpanRecord::from_json(7, &doc), Some(span));
        assert_eq!(SpanRecord::from_json(7, &json::Value::Null), None);
    }

    /// Writers fill a small ring with spans whose every field and attribute
    /// repeats the span id while a reader snapshots it: a span read back is
    /// one writer's whole span, never parts of two.
    #[test]
    fn concurrent_writes_never_tear_a_span() {
        const WRITERS: u64 = 3;
        let rec = Recorder::new(16);
        let running = AtomicU32::new(WRITERS as u32);
        let checked = std::thread::scope(|scope| {
            for w in 0..WRITERS {
                let (rec, running) = (&rec, &running);
                scope.spawn(move || {
                    for i in 1..=20_000u64 {
                        let id = w << 32 | i;
                        let text = stage_text(&id.to_string());
                        rec.write(RawSpan {
                            trace_id: id,
                            span_id: id,
                            parent_id: id,
                            layer: Layer::Eval,
                            name: "stress",
                            start_ns: id,
                            end_ns: id,
                            attrs: std::array::from_fn(|k| {
                                let val = if k % 2 == 0 {
                                    StagedVal::U64(id)
                                } else {
                                    text.clone()
                                };
                                Some(StagedAttr { key: "id", val })
                            }),
                        });
                    }
                    running.fetch_sub(1, Ordering::Release);
                });
            }
            let mut checked = 0usize;
            while running.load(Ordering::Acquire) > 0 {
                for span in rec.ring.iter().filter_map(read_slot) {
                    let id = span.span_id;
                    let ids = [span.trace_id, span.parent_id, span.start_ns, span.end_ns];
                    assert_eq!(ids, [id; 4], "{span:?}");
                    assert_eq!(span.attrs.len(), MAX_ATTRS);
                    for (k, (_, val)) in span.attrs.iter().enumerate() {
                        let want = if k % 2 == 0 {
                            AttrValue::U64(id)
                        } else {
                            AttrValue::Text(id.to_string())
                        };
                        assert_eq!(*val, want, "{span:?}");
                    }
                    checked += 1;
                }
            }
            checked
        });
        assert!(checked > 0);
    }

    #[test]
    fn stats_track_ring_occupancy() {
        let _recording = ensure_enabled();
        let before = stats();
        let root = begin_request("request").unwrap();
        root.finish().unwrap();
        let after = stats();
        assert!(after.spans_recorded > before.spans_recorded);
        assert!(after.traces_started > before.traces_started);
        assert!(after.ring_live <= after.ring_capacity);
    }
}
