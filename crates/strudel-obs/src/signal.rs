//! Signals declared once.
//!
//! Every number the server exposes is one [`Signal`] row — `/stats` key
//! path, `/metrics` family, help text, and how to read it out of its
//! owner's snapshot — in a table beside the code that counts it. A scrape
//! takes each owner's snapshot once and [`Scrape::walk`]s its table; the
//! one resulting list renders as the `/stats` JSON tree
//! ([`Scrape::to_json`]) or the Prometheus text ([`Scrape::to_prometheus`]),
//! so the two cannot disagree on a name or a value. Owners whose signals are
//! plain atomic cells declare them with [`signals!`](crate::signals), which
//! also generates the cell struct, the snapshot struct and the function
//! between them. Tables are read at scrape time only; recording is a field
//! access and one relaxed atomic.

use crate::hist::HistogramSnapshot;
use crate::prom::PromText;

/// One value read at scrape time; the variant decides how each endpoint
/// prints it.
#[derive(Clone, Debug, PartialEq)]
pub enum Reading {
    /// A monotonic count: `counter` in `/metrics`, a number in `/stats`.
    Counter(u64),
    /// A level: `gauge`, a number.
    Gauge(u64),
    /// On or off: a 0/1 `gauge`, a JSON boolean.
    Flag(bool),
    /// Microsecond durations, exposed in seconds: `/metrics` only (`/stats`
    /// carries quantiles of the same snapshot as rows of their own).
    Histogram(HistogramSnapshot),
    /// A constant-1 `gauge` whose labels carry the detail: `/metrics` only.
    Info(&'static [(&'static str, &'static str)]),
    /// A block its owner renders itself: `/stats` only.
    Json(String),
}

impl Reading {
    /// The family's `# TYPE`, or `None` for a `/stats`-only block.
    pub fn prom_type(&self) -> Option<&'static str> {
        match self {
            Reading::Counter(_) => Some("counter"),
            Reading::Gauge(_) | Reading::Flag(_) | Reading::Info(_) => Some("gauge"),
            Reading::Histogram(_) => Some("histogram"),
            Reading::Json(_) => None,
        }
    }

    /// The `/stats` value, or `None` for a `/metrics`-only form.
    fn json(&self) -> Option<String> {
        match self {
            Reading::Counter(n) | Reading::Gauge(n) => Some(n.to_string()),
            Reading::Flag(on) => Some(on.to_string()),
            Reading::Json(raw) => Some(raw.clone()),
            Reading::Histogram(_) | Reading::Info(_) => None,
        }
    }
}

/// The declaration of one signal of an owner whose snapshot is `S`.
pub struct Signal<S> {
    /// Dotted key path in `/stats` (`storage.wal_fsyncs`); empty when the
    /// signal has no `/stats` form.
    pub key: &'static str,
    /// Family name in `/metrics` (`strudel_wal_fsyncs_total`); empty when
    /// the signal has no `/metrics` form.
    pub family: &'static str,
    /// The family's `# HELP` text.
    pub help: &'static str,
    /// Reads the signal out of its owner's snapshot.
    pub read: fn(&S) -> Reading,
}

/// One signal as read by a scrape: its declaration and its value.
#[derive(Clone, Debug, PartialEq)]
pub struct Sample {
    /// [`Signal::key`].
    pub key: &'static str,
    /// [`Signal::family`].
    pub family: &'static str,
    /// [`Signal::help`].
    pub help: &'static str,
    /// What [`Signal::read`] returned.
    pub reading: Reading,
}

/// Every signal of one scrape, in declaration order.
#[derive(Default)]
pub struct Scrape {
    samples: Vec<Sample>,
}

impl Scrape {
    /// Reads every row of `table` out of `snapshot`.
    pub fn walk<S>(&mut self, table: &[Signal<S>], snapshot: &S) {
        self.samples.extend(table.iter().map(|signal| Sample {
            key: signal.key,
            family: signal.family,
            help: signal.help,
            reading: (signal.read)(snapshot),
        }));
    }

    /// The samples read so far.
    pub fn samples(&self) -> &[Sample] {
        &self.samples
    }

    /// The `/stats` document: one JSON object per dotted prefix, keys in
    /// declaration order.
    pub fn to_json(&self) -> String {
        let rendered: Vec<(&str, String)> = self
            .samples
            .iter()
            .filter(|s| !s.key.is_empty())
            .filter_map(|s| Some((s.key, s.reading.json()?)))
            .collect();
        let entries: Vec<(&str, &str)> = rendered.iter().map(|(k, v)| (*k, v.as_str())).collect();
        let mut out = String::new();
        write_object(&mut out, &entries);
        out
    }

    /// The `/metrics` document: Prometheus text exposition 0.0.4.
    pub fn to_prometheus(&self) -> String {
        let mut text = PromText::new();
        for s in self.samples.iter().filter(|s| !s.family.is_empty()) {
            match &s.reading {
                Reading::Counter(n) => text.counter(s.family, s.help, *n),
                Reading::Gauge(n) => text.gauge(s.family, s.help, *n as f64),
                Reading::Flag(on) => text.gauge(s.family, s.help, f64::from(u8::from(*on))),
                Reading::Histogram(snap) => text.histogram_seconds(s.family, s.help, snap),
                Reading::Info(labels) => text
                    .family(s.family, "gauge", s.help)
                    .sample(s.family, labels, 1.0),
                Reading::Json(_) => &mut text,
            };
        }
        text.finish()
    }
}

/// Writes `entries` — (key path relative to this object, rendered value) —
/// as one JSON object, nesting the entries that share a first segment under
/// it where that segment first appears.
fn write_object(out: &mut String, entries: &[(&str, &str)]) {
    fn head(path: &str) -> &str {
        path.split_once('.').map_or(path, |(head, _)| head)
    }
    out.push('{');
    for (i, (path, value)) in entries.iter().enumerate() {
        let name = head(path);
        if entries[..i]
            .iter()
            .any(|(earlier, _)| head(earlier) == name)
        {
            continue;
        }
        if i > 0 {
            out.push(',');
        }
        out.push('"');
        out.push_str(name);
        out.push_str("\":");
        if *path == name {
            out.push_str(value);
            continue;
        }
        let nested: Vec<(&str, &str)> = entries[i..]
            .iter()
            .filter_map(|(path, value)| Some((path.strip_prefix(name)?.strip_prefix('.')?, *value)))
            .collect();
        write_object(out, &nested);
    }
    out.push('}');
}

/// Declares an owner's signals, one row each, and generates everything that
/// follows from the rows:
///
/// ```
/// strudel_obs::signals! {
///     /// What the widget counts.
///     pub struct WidgetCells;
///     /// A snapshot of the widget.
///     pub struct WidgetStats {
///         busy: Flag, "widget.busy", "widget_busy", "Whether it turns now.";
///     }
///     turns: Counter, "widget.turns", "widget_turns_total", "Turns made.";
///     depth: Gauge, "widget.depth", "", "Current depth.";
/// }
/// static WIDGET: WidgetCells = WidgetCells::new();
/// WIDGET.turns.inc();
/// WIDGET.depth.set(3);
/// let stats = WidgetStats { busy: true, ..WIDGET.snapshot() };
/// let mut scrape = strudel_obs::Scrape::default();
/// scrape.walk(WidgetStats::SIGNALS, &stats);
/// assert_eq!(scrape.to_json(), r#"{"widget":{"turns":1,"depth":3,"busy":true}}"#);
/// assert!(!scrape.to_prometheus().contains("depth"));
/// ```
///
/// A row is `field: Counter|Gauge|Flag, "key.path", "family", "help";`; an
/// empty key or family keeps the signal out of that endpoint. A row after
/// the structs is a cell: a [`Counter`](crate::Counter) or
/// [`Gauge`](crate::Gauge) field of the first struct (which also gets a
/// `const fn new()`) that `snapshot()` reads into the `u64` field of the
/// same name in the second. A row between the second struct's braces is a
/// value its owner derives rather than counts: a field of the snapshot only
/// (`bool` for a `Flag`), which `snapshot()` leaves at its default. Every
/// field is documented by its help text and is a [`Signal`] of the snapshot
/// struct's `SIGNALS` table.
#[macro_export]
macro_rules! signals {
    (
        $(#[$cells_meta:meta])*
        $cells_vis:vis struct $Cells:ident;
        $(#[$stats_meta:meta])*
        $stats_vis:vis struct $Stats:ident {
            $($derived:ident: $Kind:ident, $dkey:literal, $dfamily:literal, $dhelp:literal;)*
        }
        $($field:ident: $Cell:ident, $key:literal, $family:literal, $help:literal;)*
    ) => {
        $(#[$cells_meta])*
        #[derive(Default)]
        $cells_vis struct $Cells {
            $(#[doc = $help] pub $field: $crate::$Cell,)*
        }

        impl $Cells {
            /// Every cell at zero.
            pub const fn new() -> Self {
                $Cells { $($field: $crate::$Cell::new(),)* }
            }

            /// Reads every cell once; derived fields are at their default.
            pub fn snapshot(&self) -> $Stats {
                $Stats {
                    $($field: self.$field.get(),)*
                    $($derived: Default::default(),)*
                }
            }
        }

        $(#[$stats_meta])*
        #[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
        $stats_vis struct $Stats {
            $(#[doc = $help] pub $field: u64,)*
            $(#[doc = $dhelp] pub $derived: $crate::signals!(@value $Kind),)*
        }

        impl $Stats {
            /// The declaration of every field: `/stats` key path, `/metrics`
            /// family, help text.
            pub const SIGNALS: &'static [$crate::Signal<$Stats>] = &[
                $($crate::Signal {
                    key: $key,
                    family: $family,
                    help: $help,
                    read: |s| $crate::Reading::$Cell(s.$field),
                },)*
                $($crate::Signal {
                    key: $dkey,
                    family: $dfamily,
                    help: $dhelp,
                    read: |s| $crate::Reading::$Kind(s.$derived),
                },)*
            ];
        }
    };
    (@value Flag) => { bool };
    (@value $Kind:ident) => { u64 };
}
