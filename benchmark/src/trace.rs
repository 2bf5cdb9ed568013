//! The harness's own span recorder.
//!
//! Spans are recorded by the benchmark around its calls into each layer's
//! public functions — the program's recorder (`strudel::obs::trace`) stays
//! off — kept in memory, and written out when the run ends. A span's self
//! time is its duration minus the part of it its children cover. Only the
//! driver thread records, so a plain stack gives every span its parent.

use crate::sut::json;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// The layers spans are booked to: the repository's crates, plus the
/// harness itself (`bench`) for time spent between calls.
pub const LAYERS: &[&str] = &[
    "wrappers", "graph", "struql", "template", "site", "serve", "bench",
];

#[derive(Clone, Debug)]
pub struct Span {
    pub trace_id: u64,
    pub name: &'static str,
    pub layer: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

/// An open span: hand it back to [`Recorder::exit`].
#[must_use]
pub struct Open {
    index: Option<usize>,
    start: Instant,
}

pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    next_trace: u64,
}

impl Recorder {
    pub fn new(enabled: bool) -> Self {
        Recorder {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            next_trace: 0,
        }
    }

    /// Stops or resumes recording; used to price the spans themselves.
    pub fn set_enabled(&mut self, on: bool) {
        assert!(self.stack.is_empty(), "toggle only between traces");
        self.enabled = on;
    }

    /// Opens a span under the innermost open span; a span opened with no
    /// parent starts a new trace. Always reads the clock, recording or not,
    /// so both kinds of run execute the same code around each call.
    pub fn enter(&mut self, name: &'static str, layer: &'static str) -> Open {
        debug_assert!(LAYERS.contains(&layer), "unknown layer {layer}");
        let start = Instant::now();
        if !self.enabled {
            return Open { index: None, start };
        }
        let parent = self.stack.last().copied();
        let trace_id = match parent {
            Some(p) => self.spans[p].trace_id,
            None => {
                self.next_trace += 1;
                self.next_trace
            }
        };
        let index = self.spans.len();
        self.spans.push(Span {
            trace_id,
            name,
            layer,
            start_ns: self.ns(start),
            end_ns: 0,
            parent,
        });
        self.stack.push(index);
        Open {
            index: Some(index),
            start,
        }
    }

    /// Closes `open` (which must be the innermost open span) and returns
    /// how long it was open.
    pub fn exit(&mut self, open: Open) -> Duration {
        let end = Instant::now();
        if let Some(index) = open.index {
            assert_eq!(self.stack.pop(), Some(index), "spans close innermost first");
            self.spans[index].end_ns = self.ns(end);
        }
        end - open.start
    }

    /// Times one call as a span.
    pub fn call<R>(
        &mut self,
        name: &'static str,
        layer: &'static str,
        f: impl FnOnce() -> R,
    ) -> (R, Duration) {
        let open = self.enter(name, layer);
        let r = f();
        (r, self.exit(open))
    }

    /// Books `dur` of the innermost open span to a callee measured
    /// elsewhere (the direct `expand` replay of an HTTP request): a child
    /// span starting where its parent starts, clipped to the parent.
    pub fn attribute(&mut self, name: &'static str, layer: &'static str, dur: Duration) {
        if !self.enabled {
            return;
        }
        let parent = *self.stack.last().expect("attribute needs an open span");
        let start_ns = self.spans[parent].start_ns;
        self.spans.push(Span {
            trace_id: self.spans[parent].trace_id,
            name,
            layer,
            start_ns,
            end_ns: start_ns + dur.as_nanos() as u64,
            parent: Some(parent),
        });
    }

    fn ns(&self, t: Instant) -> u64 {
        (t - self.epoch).as_nanos() as u64
    }

    /// Self time of every span: duration minus its children's durations,
    /// each child clipped to the parent's interval.
    pub fn self_times(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self
            .spans
            .iter()
            .map(|s| s.end_ns.saturating_sub(s.start_ns))
            .collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                let parent = &self.spans[p];
                let start = s.start_ns.max(parent.start_ns);
                let end = s.end_ns.min(parent.end_ns);
                own[p] = own[p].saturating_sub(end.saturating_sub(start));
            }
        }
        own
    }

    /// For every root span name: how many traces, their total duration,
    /// and the self time each layer contributed inside them.
    pub fn roots(&self) -> BTreeMap<&'static str, RootBreakdown> {
        let own = self.self_times();
        let mut root_of: Vec<usize> = Vec::with_capacity(self.spans.len());
        let mut out: BTreeMap<&'static str, RootBreakdown> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            // Parents are recorded before their children.
            let root = s.parent.map_or(i, |p| root_of[p]);
            root_of.push(root);
            let entry = out.entry(self.spans[root].name).or_default();
            if root == i {
                entry.traces += 1;
                entry.total_ns += s.end_ns.saturating_sub(s.start_ns);
            }
            *entry.layer_self_ns.entry(s.layer).or_default() += own[i];
        }
        out
    }

    /// The trace file: every span, and the per-root layer breakdown.
    pub fn to_json(&self, workload: &str) -> String {
        let mut out = format!("{{\"workload\":\"{}\",\"roots\":{{", json::escape(workload));
        for (i, (name, b)) in self.roots().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\"{name}\":{{\"traces\":{},\"total_ns\":{},\"layer_self_ns\":{{",
                b.traces, b.total_ns
            ));
            for (j, (layer, ns)) in b.layer_self_ns.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&format!("\"{layer}\":{ns}"));
            }
            out.push_str("}}");
        }
        out.push_str("},\"spans\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"trace_id\":{},\"id\":{i},\"parent\":{parent},\"name\":\"{}\",\"layer\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.trace_id, s.name, s.layer, s.start_ns, s.end_ns
            ));
        }
        out.push_str("\n]}\n");
        out
    }
}

#[derive(Default, Debug)]
pub struct RootBreakdown {
    pub traces: u64,
    pub total_ns: u64,
    pub layer_self_ns: BTreeMap<&'static str, u64>,
}

impl RootBreakdown {
    /// Share of the root's duration booked to layers of the program (not
    /// to the harness between calls).
    pub fn program_share(&self) -> f64 {
        let program: u64 = self
            .layer_self_ns
            .iter()
            .filter(|(l, _)| **l != "bench")
            .map(|(_, ns)| ns)
            .sum();
        program as f64 / self.total_ns.max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(
        name: &'static str,
        layer: &'static str,
        s: u64,
        e: u64,
        parent: Option<usize>,
    ) -> Span {
        Span {
            trace_id: 1,
            name,
            layer,
            start_ns: s,
            end_ns: e,
            parent,
        }
    }

    #[test]
    fn self_time_is_duration_minus_clipped_children() {
        let mut r = Recorder::new(true);
        r.spans = vec![
            span("get", "serve", 0, 100, None),
            span("expand", "site", 0, 30, Some(0)),
            span("eval", "struql", 10, 25, Some(1)),
            // A child measured elsewhere may overrun; only 90..100 counts.
            span("late", "graph", 90, 140, Some(0)),
        ];
        assert_eq!(r.self_times(), vec![60, 15, 15, 50]);
        let roots = r.roots();
        let get = &roots["get"];
        assert_eq!((get.traces, get.total_ns), (1, 100));
        assert_eq!(get.layer_self_ns["serve"], 60);
        assert_eq!(get.layer_self_ns["site"], 15);
        assert_eq!(get.layer_self_ns["struql"], 15);
    }

    #[test]
    fn nesting_assigns_parents_and_trace_ids() {
        let mut r = Recorder::new(true);
        let a = r.enter("build", "bench");
        let (_, d) = r.call("eval", "struql", || std::hint::black_box(1 + 1));
        r.attribute("replayed", "site", Duration::from_nanos(5));
        r.exit(a);
        let b = r.enter("build", "bench");
        r.exit(b);
        assert!(d <= Duration::from_secs(1));
        let s = &r.spans;
        assert_eq!(s.len(), 4);
        assert_eq!(
            (s[1].parent, s[2].parent, s[3].parent),
            (Some(0), Some(0), None)
        );
        assert_eq!((s[0].trace_id, s[1].trace_id, s[3].trace_id), (1, 1, 2));
        assert_eq!(r.roots()["build"].traces, 2);
        let parsed = json::parse(&r.to_json("w")).expect("trace file is valid JSON");
        assert_eq!(parsed.get("spans").unwrap().as_array().unwrap().len(), 4);
    }

    #[test]
    fn disabled_recorder_still_times_but_keeps_nothing() {
        let mut r = Recorder::new(false);
        let (v, _) = r.call("x", "bench", || 7);
        r.attribute("y", "site", Duration::from_nanos(1));
        assert_eq!(v, 7);
        assert!(r.spans.is_empty());
    }
}
