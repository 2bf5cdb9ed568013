//! Prometheus text exposition format (version 0.0.4).
//!
//! Hand-rolled writer for the subset the `/metrics` endpoint needs:
//! `# HELP` / `# TYPE` comment lines, counter/gauge samples with optional
//! labels, and histogram families (`_bucket{le=…}`, `_sum`, `_count`).
//! Escaping follows the exposition-format spec: help text escapes `\` and
//! newline; label values additionally escape `"`.

use crate::hist::HistogramSnapshot;

/// Escapes a HELP comment: `\` → `\\`, newline → `\n`.
pub fn escape_help(s: &str) -> String {
    s.replace('\\', "\\\\").replace('\n', "\\n")
}

/// Escapes a label value: `\` → `\\`, `"` → `\"`, newline → `\n`.
pub fn escape_label_value(s: &str) -> String {
    s.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// Formats a sample value: integral values print without a fraction
/// (`17`, not `17.0`), everything else in shortest `f64` form.
pub fn fmt_value(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 9_007_199_254_740_992.0 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

/// A Prometheus text-exposition builder.
#[derive(Default)]
pub struct PromText {
    out: String,
}

impl PromText {
    /// An empty exposition.
    pub fn new() -> Self {
        Self::default()
    }

    /// Writes the `# HELP` and `# TYPE` header for a metric family.
    /// `kind` is `counter`, `gauge` or `histogram`.
    pub fn family(&mut self, name: &str, kind: &str, help: &str) -> &mut Self {
        debug_assert!(valid_metric_name(name), "bad metric name {name}");
        self.out
            .push_str(&format!("# HELP {name} {}\n", escape_help(help)));
        self.out.push_str(&format!("# TYPE {name} {kind}\n"));
        self
    }

    /// Writes one sample line, with optional labels.
    pub fn sample(&mut self, name: &str, labels: &[(&str, &str)], value: f64) -> &mut Self {
        self.out.push_str(name);
        if !labels.is_empty() {
            self.out.push('{');
            for (i, (k, v)) in labels.iter().enumerate() {
                if i > 0 {
                    self.out.push(',');
                }
                self.out
                    .push_str(&format!("{k}=\"{}\"", escape_label_value(v)));
            }
            self.out.push('}');
        }
        self.out.push(' ');
        self.out.push_str(&fmt_value(value));
        self.out.push('\n');
        self
    }

    /// Writes a counter family with a single unlabelled sample.
    pub fn counter(&mut self, name: &str, help: &str, value: u64) -> &mut Self {
        self.family(name, "counter", help)
            .sample(name, &[], value as f64)
    }

    /// Writes a gauge family with a single unlabelled sample.
    pub fn gauge(&mut self, name: &str, help: &str, value: f64) -> &mut Self {
        self.family(name, "gauge", help).sample(name, &[], value)
    }

    /// Writes a full histogram family from a snapshot of microsecond
    /// buckets, exposed in **seconds** (the Prometheus base unit):
    /// cumulative `_bucket{le="…"}` lines ending at `le="+Inf"`, then
    /// `_sum` and `_count`.
    pub fn histogram_seconds(
        &mut self,
        name: &str,
        help: &str,
        snap: &HistogramSnapshot,
    ) -> &mut Self {
        self.family(name, "histogram", help);
        let bucket = format!("{name}_bucket");
        for (bound, cum) in snap.cumulative() {
            let le = match bound {
                Some(us) => fmt_value(us as f64 / 1e6),
                None => "+Inf".to_string(),
            };
            self.sample(&bucket, &[("le", &le)], cum as f64);
        }
        self.sample(&format!("{name}_sum"), &[], snap.sum_us as f64 / 1e6);
        self.sample(&format!("{name}_count"), &[], snap.count as f64);
        self
    }

    /// The accumulated exposition text.
    pub fn finish(self) -> String {
        self.out
    }
}

/// Whether `name` is a legal Prometheus metric name
/// (`[a-zA-Z_:][a-zA-Z0-9_:]*`).
pub fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hist::Histogram;

    #[test]
    fn escapes_follow_the_exposition_spec() {
        assert_eq!(escape_help("a\\b\nc"), "a\\\\b\\nc");
        assert_eq!(
            escape_label_value("say \"hi\"\\now\n"),
            "say \\\"hi\\\"\\\\now\\n"
        );
        // Quotes are legal in help text unescaped.
        assert_eq!(escape_help("\"quoted\""), "\"quoted\"");
    }

    #[test]
    fn value_formatting_drops_integral_fractions() {
        assert_eq!(fmt_value(17.0), "17");
        assert_eq!(fmt_value(0.0001), "0.0001");
        assert_eq!(fmt_value(2.5), "2.5");
        assert_eq!(fmt_value(-3.0), "-3");
    }

    #[test]
    fn counter_and_gauge_families_are_well_formed() {
        let mut p = PromText::new();
        p.counter("demo_requests_total", "Requests answered.", 42);
        p.gauge("demo_uptime_seconds", "Seconds since bind.", 7.5);
        let text = p.finish();
        assert_eq!(
            text,
            "# HELP demo_requests_total Requests answered.\n\
             # TYPE demo_requests_total counter\n\
             demo_requests_total 42\n\
             # HELP demo_uptime_seconds Seconds since bind.\n\
             # TYPE demo_uptime_seconds gauge\n\
             demo_uptime_seconds 7.5\n"
        );
    }

    #[test]
    fn labelled_samples_escape_their_values() {
        let mut p = PromText::new();
        p.sample("m", &[("path", "a\"b\\c"), ("code", "200")], 1.0);
        assert_eq!(p.finish(), "m{path=\"a\\\"b\\\\c\",code=\"200\"} 1\n");
    }

    #[test]
    fn histogram_family_has_cumulative_buckets_sum_and_count() {
        let h = Histogram::new();
        h.record(80);
        h.record(80);
        h.record(300);
        let mut p = PromText::new();
        p.histogram_seconds("demo_request_duration_seconds", "Latency.", &h.snapshot());
        let text = p.finish();
        assert!(text.contains("# TYPE demo_request_duration_seconds histogram"));
        assert!(text.contains("demo_request_duration_seconds_bucket{le=\"0.0001\"} 2\n"));
        assert!(text.contains("demo_request_duration_seconds_bucket{le=\"0.0005\"} 3\n"));
        assert!(text.contains("demo_request_duration_seconds_bucket{le=\"+Inf\"} 3\n"));
        assert!(text.contains("demo_request_duration_seconds_sum 0.00046\n"));
        assert!(text.contains("demo_request_duration_seconds_count 3\n"));
        // Buckets are cumulative: each le count ≥ the previous.
        let mut last = 0u64;
        for line in text.lines().filter(|l| l.contains("_bucket{")) {
            let v: u64 = line.rsplit(' ').next().unwrap().parse().unwrap();
            assert!(v >= last, "{line}");
            last = v;
        }
    }

    #[test]
    fn metric_name_validation() {
        assert!(valid_metric_name("demo_requests_total"));
        assert!(valid_metric_name(":ns:metric"));
        assert!(!valid_metric_name("9starts_with_digit"));
        assert!(!valid_metric_name("has-dash"));
        assert!(!valid_metric_name(""));
    }
}
