//! What a run measured, which of it `BENCHMARK.json` declares, and how it
//! is printed.

use crate::stats::{summarize, Summary};
use crate::sut::json::{self, Value as Json};
use std::collections::BTreeMap;

/// Counts that must repeat bit-for-bit at a fixed seed and scale.
pub const EXACT: &[&str] = &[
    "graph.store_bytes_per_edge",
    "graph.fsyncs_per_commit",
    "graph.wal_bytes_per_commit",
    "graph.checkpoint_pages_written",
    "graph.recovered_frames",
    "struql.rows_examined",
    "struql.clause_queries",
    "template.pages",
    "template.bytes",
    "site.hub_links",
    "site.invalidated_per_delta",
    "serve.bytes_per_response",
];

#[derive(Clone, Debug)]
pub struct Metric {
    pub value: f64,
    pub unit: &'static str,
    /// For timings: the highest supported percentile and the sample count.
    pub tail: Option<(&'static str, f64)>,
    pub n: Option<usize>,
}

/// Everything one run of one workload produced.
#[derive(Default)]
pub struct Report {
    pub metrics: BTreeMap<&'static str, Metric>,
    /// Checked operations, and how many of them gave a wrong answer.
    pub attempted: u64,
    pub failed: u64,
    /// Conditions that make the whole run invalid, not one operation. Only
    /// conditions that repeat at a fixed seed belong here: they decide
    /// `correct`, which is about the program's outputs, not the host.
    pub invalid: Vec<String>,
    /// Doubts about how well the host held still while the run measured
    /// (late sends, time between calls): printed and recorded, never part
    /// of `correct`.
    pub warnings: Vec<String>,
    /// Digests of generated output, compared across runs of one seed.
    pub digests: BTreeMap<&'static str, String>,
}

impl Report {
    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        let metric = Metric {
            value,
            unit,
            tail: None,
            n: None,
        };
        let clash = self.metrics.insert(name, metric);
        assert!(clash.is_none(), "{name} was measured twice");
    }

    /// Records a timing by its median; the tail percentile and the sample
    /// count ride along into the result file.
    pub fn put_timing(
        &mut self,
        name: &'static str,
        samples: &mut [f64],
        unit: &'static str,
    ) -> Summary {
        let s = summarize(samples);
        self.put(name, s.p50, unit);
        let m = self.metrics.get_mut(name).expect("just inserted");
        m.tail = s.tail;
        m.n = Some(s.n);
        s
    }

    /// Records a timing of an untraced run by what it was in quiet moments
    /// (see [`crate::stats::quiet`]; `samples` in the order taken); tail and
    /// count are those of all its samples.
    pub fn put_quiet(
        &mut self,
        name: &'static str,
        samples: &mut [f64],
        window: usize,
        unit: &'static str,
    ) {
        let value = crate::stats::quiet(samples, window);
        self.put_timing(name, samples, unit);
        self.metrics.get_mut(name).expect("just inserted").value = value;
    }

    /// Counts one checked operation.
    pub fn check(&mut self, ok: bool) {
        self.checks(1, u64::from(!ok));
    }

    pub fn checks(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    /// Records a run-level validity condition.
    pub fn require(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.invalid.push(what());
        }
    }

    /// Records a doubt about a measurement that depends on the host's
    /// timing and therefore cannot make the outputs wrong.
    pub fn warn(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.warnings.push(what());
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.invalid.is_empty()
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Lower,
    Higher,
}

/// One metric as `BENCHMARK.json` declares it.
#[derive(Clone, Debug)]
pub struct Declared {
    pub name: String,
    pub unit: String,
    pub better: Better,
    /// End-to-end metrics only: the share of the parent's median by which
    /// the metric may worsen.
    pub bound: Option<f64>,
}

/// The parts of `BENCHMARK.json` the benchmark itself reads.
pub struct Manifest {
    pub workloads: Vec<String>,
    pub run_seconds: u64,
    pub end_to_end: Vec<Declared>,
    pub per_layer: Vec<Declared>,
}

impl Manifest {
    /// Reads the manifest beside the benchmark's directory.
    pub fn load() -> Result<Manifest, String> {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        Manifest::parse(&text)
    }

    pub fn parse(text: &str) -> Result<Manifest, String> {
        let doc = json::parse(text)?;
        let list = |key: &str| -> Result<&[Json], String> {
            doc.get(key)
                .and_then(Json::as_array)
                .ok_or(format!("BENCHMARK.json: no array `{key}`"))
        };
        let text_of = |v: &Json, key: &str| -> Result<String, String> {
            v.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or(format!("BENCHMARK.json: entry without `{key}`"))
        };
        let declared = |key: &str| -> Result<Vec<Declared>, String> {
            list(key)?
                .iter()
                .map(|m| {
                    Ok(Declared {
                        name: text_of(m, "name")?,
                        unit: text_of(m, "unit")?,
                        better: match text_of(m, "better")?.as_str() {
                            "lower" => Better::Lower,
                            "higher" => Better::Higher,
                            other => return Err(format!("BENCHMARK.json: better `{other}`")),
                        },
                        bound: m.get("bound").and_then(Json::as_f64),
                    })
                })
                .collect()
        };
        Ok(Manifest {
            workloads: list("workloads")?
                .iter()
                .map(|w| text_of(w, "name"))
                .collect::<Result<_, _>>()?,
            run_seconds: doc
                .get("run_seconds")
                .and_then(Json::as_f64)
                .ok_or("BENCHMARK.json: no `run_seconds`")? as u64,
            end_to_end: declared("end_to_end")?,
            per_layer: declared("per_layer")?,
        })
    }

    pub fn declared(&self, traced: bool) -> &[Declared] {
        if traced {
            &self.per_layer
        } else {
            &self.end_to_end
        }
    }
}

/// The driver's line: exactly `correct`, `attempted`, `failed`, `metrics`,
/// the metrics being exactly the declared ones, each value with all its
/// digits. An undeclared measurement is dropped; a declared one that was
/// not measured, or was measured in another unit, is an error.
pub fn driver_line(report: &Report, declared: &[Declared]) -> Result<String, String> {
    let mut metrics = Vec::with_capacity(declared.len());
    for d in declared {
        let m = report
            .metrics
            .get(d.name.as_str())
            .ok_or(format!("declared metric `{}` was not measured", d.name))?;
        if m.unit != d.unit {
            return Err(format!(
                "`{}` is measured in {} but declared in {}",
                d.name, m.unit, d.unit
            ));
        }
        if !m.value.is_finite() {
            return Err(format!("`{}` is not a finite number", d.name));
        }
        metrics.push(format!(
            "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
            d.name, m.value, m.unit
        ));
    }
    Ok(format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        report.correct(),
        report.attempted.max(1),
        report.failed,
        metrics.join(",")
    ))
}

/// The full record of one run, for the result file: every measurement,
/// declared or not, with tails, counts, digests and invalidity notes.
pub fn record_json(
    report: &Report,
    workload: &str,
    seed: u64,
    seconds: f64,
    scale_div: usize,
    traced: bool,
) -> String {
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|(name, m)| {
            let mut s = format!("\"{name}\":{{\"value\":{},\"unit\":\"{}\"", m.value, m.unit);
            if let Some((label, v)) = m.tail {
                s.push_str(&format!(",\"tail\":\"{label}\",\"tail_value\":{v}"));
            }
            if let Some(n) = m.n {
                s.push_str(&format!(",\"n\":{n}"));
            }
            s.push('}');
            s
        })
        .collect();
    let digests: Vec<String> = report
        .digests
        .iter()
        .map(|(k, v)| format!("\"{k}\":\"{v}\""))
        .collect();
    let quoted = |notes: &[String]| -> String {
        let notes: Vec<String> = notes
            .iter()
            .map(|s| format!("\"{}\"", json::escape(s)))
            .collect();
        notes.join(",")
    };
    format!(
        "{{\"workload\":\"{workload}\",\"trace\":{},\"seed\":{seed},\"seconds\":{seconds},\"scale_div\":{scale_div},\"correct\":{},\"attempted\":{},\"failed\":{},\"invalid\":[{}],\"warnings\":[{}],\"digests\":{{{}}},\"metrics\":{{{}}}}}",
        u8::from(traced),
        report.correct(),
        report.attempted,
        report.failed,
        quoted(&report.invalid),
        quoted(&report.warnings),
        digests.join(","),
        metrics.join(",")
    )
}

/// Prints every measurement by name with its unit, declared ones with
/// their direction and bound.
pub fn print_table(report: &Report, manifest: &Manifest) {
    let lookup = |name: &str| {
        manifest
            .end_to_end
            .iter()
            .chain(&manifest.per_layer)
            .find(|d| d.name == name)
    };
    for (name, m) in &report.metrics {
        let mut line = format!("  {name:<36} {:>16.4} {:<6}", m.value, m.unit);
        if let (Some((label, v)), Some(n)) = (m.tail, m.n) {
            line.push_str(&format!(" {label}={v:.1} n={n}"));
        } else if let Some(n) = m.n {
            line.push_str(&format!(" n={n}"));
        }
        if let Some(d) = lookup(name) {
            let dir = if d.better == Better::Lower {
                "lower"
            } else {
                "higher"
            };
            match d.bound {
                Some(b) => line.push_str(&format!("  [{dir} is better, bound {b}]")),
                None => line.push_str(&format!("  [{dir} is better]")),
            }
        }
        if EXACT.contains(name) {
            line.push_str("  [exact]");
        }
        println!("{line}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn manifest() -> Manifest {
        Manifest::load().expect("BENCHMARK.json parses")
    }

    /// The manifest must satisfy the limits the driver enforces before it
    /// runs anything.
    #[test]
    fn benchmark_json_is_within_the_contract() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json is at the root of the repository");
        assert!(text.len() <= 64 * 1024);
        let doc = json::parse(&text).unwrap();
        let Json::Object(fields) = &doc else {
            panic!("not an object")
        };
        let mut keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        keys.sort_unstable();
        assert_eq!(
            keys,
            [
                "command",
                "end_to_end",
                "paths",
                "per_layer",
                "run_seconds",
                "workloads"
            ]
        );
        let m = manifest();
        assert!((2..=8).contains(&m.workloads.len()));
        assert!((1..=60).contains(&m.run_seconds));
        assert!((1..=16).contains(&m.end_to_end.len()));
        assert!((1..=128).contains(&m.per_layer.len()));

        let name_ok = |s: &str| {
            s.len() <= 64
                && s.starts_with(|c: char| c.is_ascii_alphanumeric())
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let unit_ok = |s: &str| {
            !s.is_empty()
                && s.len() <= 16
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut names: Vec<&str> = m.workloads.iter().map(String::as_str).collect();
        for d in m.end_to_end.iter().chain(&m.per_layer) {
            assert!(unit_ok(&d.unit), "unit {}", d.unit);
            names.push(&d.name);
        }
        for n in &names {
            assert!(name_ok(n), "name {n}");
        }
        let unique: std::collections::HashSet<_> = names.iter().collect();
        assert_eq!(unique.len(), names.len(), "a name is used twice");

        for d in &m.end_to_end {
            let b = d.bound.unwrap_or_else(|| panic!("{} has no bound", d.name));
            assert!(b > 0.0 && b <= 0.25, "{} bound {b}", d.name);
        }
        assert!(m.per_layer.iter().all(|d| d.bound.is_none()));
        let setup = m
            .end_to_end
            .iter()
            .find(|d| d.name == "setup_s")
            .expect("setup_s");
        assert_eq!((setup.unit.as_str(), setup.better), ("s", Better::Lower));
        let widest = m
            .end_to_end
            .iter()
            .filter_map(|d| d.bound)
            .fold(0.0, f64::max);
        assert_eq!(
            setup.bound,
            Some(widest),
            "setup_s carries the largest bound"
        );

        for w in doc.get("workloads").unwrap().as_array().unwrap() {
            let why = w.get("why").unwrap().as_str().unwrap();
            assert!(why.len() <= 200 && !why.contains('\n'), "{why}");
        }
        let command = doc.get("command").unwrap().as_array().unwrap();
        assert!(command.len() <= 32);
        for arg in command {
            let arg = arg.as_str().unwrap();
            assert!(arg.len() <= 200 && !arg.starts_with('/') && !arg.contains(".."));
        }
        let paths = doc.get("paths").unwrap().as_array().unwrap();
        assert_eq!(paths.len(), 1);
        assert_eq!(paths[0].as_str(), Some("benchmark"));
    }

    #[test]
    fn every_workload_and_exact_count_is_declared() {
        let m = manifest();
        let known: Vec<&str> = crate::workloads::WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(m.workloads, known);
        for name in EXACT {
            assert!(
                m.per_layer.iter().any(|d| d.name == *name),
                "exact count {name} is not a declared per-layer metric"
            );
        }
    }

    #[test]
    fn driver_line_has_exactly_the_declared_metrics() {
        let mut r = Report::default();
        r.put("a_ms", 1.25, "ms");
        r.put("extra", 9.0, "count");
        r.check(true);
        let decl = |name: &str, unit: &str| Declared {
            name: name.into(),
            unit: unit.into(),
            better: Better::Lower,
            bound: Some(0.1),
        };
        // A warning is about the host, not the outputs.
        r.warn(false, || "half the sends left late".into());
        let line = driver_line(&r, &[decl("a_ms", "ms")]).unwrap();
        assert_eq!(
            line,
            r#"{"correct":true,"attempted":1,"failed":0,"metrics":{"a_ms":{"value":1.25,"unit":"ms"}}}"#
        );
        assert!(driver_line(&r, &[decl("missing", "ms")]).is_err());
        assert!(driver_line(&r, &[decl("a_ms", "us")]).is_err());
        r.check(false);
        assert!(driver_line(&r, &[])
            .unwrap()
            .starts_with(r#"{"correct":false,"attempted":2,"failed":1"#));
    }
}
