//! `compare <a.json> <b.json>`: two `run all` result files of (usually)
//! two commits, one row per end-to-end metric and workload.

use crate::report::{Better, Manifest, EXACT};
use crate::stats::{iqr_over_median, median};
use crate::sut::json::{self, Value as Json};
use std::collections::BTreeMap;
use std::path::Path;

/// Values of one metric over the repeats in a file, per `(workload, trace)`.
type Samples = BTreeMap<(String, bool, String), Vec<f64>>;

struct Loaded {
    samples: Samples,
    incorrect: usize,
}

fn load(path: &Path) -> Result<Loaded, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let runs = doc
        .get("runs")
        .and_then(Json::as_array)
        .ok_or("no `runs` array")?;
    let mut loaded = Loaded {
        samples: Samples::new(),
        incorrect: 0,
    };
    for run in runs.iter().filter_map(|r| r.get("run")) {
        let workload = run
            .get("workload")
            .and_then(Json::as_str)
            .ok_or("run without workload")?;
        let traced = run.get("trace").and_then(Json::as_f64) == Some(1.0);
        if run.get("correct") != Some(&Json::Bool(true)) {
            loaded.incorrect += 1;
        }
        let Some(Json::Object(metrics)) = run.get("metrics") else {
            return Err("run without metrics".into());
        };
        for (name, m) in metrics {
            let value = m
                .get("value")
                .and_then(Json::as_f64)
                .ok_or("metric without value")?;
            let key = (workload.to_string(), traced, name.clone());
            loaded.samples.entry(key).or_default().push(value);
        }
    }
    Ok(loaded)
}

/// How `b` stands against `a` on one metric of one workload.
#[derive(Debug, PartialEq)]
pub enum Verdict {
    Within,
    Worse,
    /// The run-to-run spread of a side is wider than the bound, so a
    /// difference of the bound's size cannot be told from noise.
    Unresolved,
}

pub fn judge(a: &[f64], b: &[f64], better: Better, bound: f64) -> (f64, f64, Verdict) {
    let (ma, mb) = (median(&mut a.to_vec()), median(&mut b.to_vec()));
    let worsening = match better {
        Better::Lower => (mb - ma) / ma,
        Better::Higher => (ma - mb) / ma,
    };
    let noisy = [a, b]
        .iter()
        .any(|v| iqr_over_median(v).is_some_and(|s| s > bound));
    let verdict = if noisy {
        Verdict::Unresolved
    } else if worsening > bound {
        Verdict::Worse
    } else {
        Verdict::Within
    };
    (ma, mb, verdict)
}

/// Prints the comparison; `Ok(false)` when any row is worse, any exact
/// count differs, or any run's outputs were wrong.
pub fn compare(a_path: &Path, b_path: &Path) -> Result<bool, String> {
    let manifest = Manifest::load()?;
    let (a, b) = (load(a_path)?, load(b_path)?);
    let mut clean = a.incorrect + b.incorrect == 0;
    println!("a = {}\nb = {}", a_path.display(), b_path.display());
    println!(
        "{:<20} {:<12} {:>14} {:>14} {:>9} {:>6}  verdict",
        "metric", "workload", "median a", "median b", "b/a", "bound"
    );
    for d in &manifest.end_to_end {
        let bound = d.bound.unwrap_or(0.0);
        for w in &manifest.workloads {
            let key = (w.clone(), false, d.name.clone());
            let (Some(va), Some(vb)) = (a.samples.get(&key), b.samples.get(&key)) else {
                println!("{:<20} {:<12} missing from a file", d.name, w);
                clean = false;
                continue;
            };
            let (ma, mb, verdict) = judge(va, vb, d.better, bound);
            clean &= verdict != Verdict::Worse;
            println!(
                "{:<20} {:<12} {:>14.3} {:>14.3} {:>9.3} {:>6}  {} (a is the base; {} {}, n={}/{})",
                d.name,
                w,
                ma,
                mb,
                mb / ma,
                bound,
                format!("{verdict:?}").to_lowercase(),
                d.unit,
                if d.better == Better::Lower {
                    "lower is better"
                } else {
                    "higher is better"
                },
                va.len(),
                vb.len()
            );
        }
    }
    println!("\nexact counts (traced runs, must be equal at one seed and scale):");
    for name in EXACT {
        for w in &manifest.workloads {
            let key = (w.clone(), true, name.to_string());
            let all: Vec<f64> = [&a, &b]
                .iter()
                .flat_map(|f| f.samples.get(&key).cloned().unwrap_or_default())
                .collect();
            let equal = !all.is_empty() && all.iter().all(|v| *v == all[0]);
            clean &= equal;
            println!(
                "{:<32} {:<12} {}",
                name,
                w,
                if equal {
                    format!("equal ({})", all[0])
                } else {
                    format!("DIFFERENT {all:?}")
                }
            );
        }
    }
    if a.incorrect + b.incorrect > 0 {
        println!(
            "\n{} run(s) in a and {} in b had wrong outputs",
            a.incorrect, b.incorrect
        );
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts() {
        let steady = |m: f64| vec![m * 0.99, m, m * 1.01, m, m * 1.005];
        // Lower is better: 4 % slower is within a 5 % bound, 8 % is worse.
        assert_eq!(
            judge(&steady(100.0), &steady(104.0), Better::Lower, 0.05).2,
            Verdict::Within
        );
        assert_eq!(
            judge(&steady(100.0), &steady(108.0), Better::Lower, 0.05).2,
            Verdict::Worse
        );
        // Getting better is never worse, in either direction.
        assert_eq!(
            judge(&steady(100.0), &steady(50.0), Better::Lower, 0.05).2,
            Verdict::Within
        );
        assert_eq!(
            judge(&steady(100.0), &steady(90.0), Better::Higher, 0.05).2,
            Verdict::Worse
        );
        assert_eq!(
            judge(&steady(100.0), &steady(150.0), Better::Higher, 0.05).2,
            Verdict::Within
        );
        // A side noisier than the bound cannot resolve it.
        let noisy = vec![80.0, 100.0, 120.0, 90.0, 115.0];
        assert_eq!(
            judge(&noisy, &steady(100.0), Better::Lower, 0.05).2,
            Verdict::Unresolved
        );
        // One sample a side has no spread to object with.
        assert_eq!(
            judge(&[100.0], &[103.0], Better::Lower, 0.05).2,
            Verdict::Within
        );
    }
}
