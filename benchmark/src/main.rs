//! The STRUDEL benchmark: one command for the click path and the build
//! path. See `README.md` beside this package.

mod client;
mod compare;
mod host;
mod report;
mod stats;
mod sut;
mod trace;
mod workloads;

use report::Manifest;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use workloads::{Env, Scale};

const USAGE: &str = "\
usage:
  strudel-benchmark run --workload <name> --seed <n> --seconds <s> --trace <0|1>
      one run of one workload; the last line of stdout is the result object
  strudel-benchmark run all [--seed <n>] [--seconds <s>] [--repeat <k>] [--smoke] [--out <file>]
      every workload in a process of its own, untraced then traced
  strudel-benchmark compare <a.json> <b.json>
      two `run all` result files, metric by metric";

/// Where runs write: result files, trace files and scratch data. Inside
/// the benchmark's own directory, so nothing outside the checkout is used.
fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    traced: bool,
    scale_div: usize,
    repeat: usize,
    out: Option<PathBuf>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: None,
        traced: false,
        scale_div: 1,
        repeat: 1,
        out: None,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or(format!("{arg} needs a value"));
        let number = |v: &String| v.parse::<f64>().map_err(|e| format!("{arg} {v}: {e}"));
        match arg.as_str() {
            "all" => a.workload = Some("all".into()),
            "--workload" => a.workload = Some(value()?.clone()),
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => a.seconds = Some(number(value()?)?),
            "--trace" => a.traced = number(value()?)? != 0.0,
            "--scale-div" => a.scale_div = number(value()?)? as usize,
            "--repeat" => a.repeat = number(value()?)? as usize,
            "--smoke" => {
                a.scale_div = 50;
                a.seconds.get_or_insert(1.0);
            }
            "--out" => a.out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(a)
}

fn main() -> ExitCode {
    // Builds take their worker count from the harness, the click-time
    // evaluator runs sequentially: an inherited STRUDEL_JOBS would change
    // both. Done before any thread exists.
    std::env::remove_var("STRUDEL_JOBS");
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => parse_args(&args[1..]).and_then(|a| match a.workload.as_deref() {
            Some("all") => run_all(&a),
            Some(_) => run_one(&a),
            None => Err("run needs --workload <name> or `all`".into()),
        }),
        Some("compare") if args.len() == 3 => {
            compare::compare(Path::new(&args[1]), Path::new(&args[2]))
        }
        _ => Err(USAGE.into()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(2),
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}

/// One run of one workload in this process. Wrong outputs do not fail the
/// command: they are reported in the result line, as `"correct": false`.
fn run_one(a: &Args) -> Result<bool, String> {
    let manifest = Manifest::load()?;
    let name = a.workload.as_deref().expect("checked by the caller");
    let workload = workloads::find(name).ok_or(format!("no workload `{name}`"))?;
    let seconds = a.seconds.unwrap_or(manifest.run_seconds as f64);
    let scratch = out_dir().join(format!("scratch-{}", std::process::id()));
    std::fs::create_dir_all(&scratch).map_err(|e| format!("{}: {e}", scratch.display()))?;
    let host = host::Host::probe(&scratch);
    println!(
        "{name}: seed {} · {seconds} s · {} · scale 1/{} · {} cores · {} MB · scratch on {} · commit {} · {}",
        a.seed,
        if a.traced { "traced" } else { "untraced" },
        a.scale_div,
        host.cores,
        host.mem_total_mb,
        host.scratch_fs,
        host.commit,
        host.profile
    );

    let mut env = Env {
        seed: a.seed,
        seconds,
        traced: a.traced,
        scale: Scale::new(a.scale_div),
        scratch: scratch.clone(),
        rec: trace::Recorder::new(a.traced),
        report: report::Report::default(),
    };
    let ran = workloads::run(workload, &mut env);
    let _ = std::fs::remove_dir_all(&scratch);
    ran.map_err(|e| format!("{name}: {e}"))?;

    report::print_table(&env.report, &manifest);
    for note in &env.report.invalid {
        println!("  INVALID: {note}");
    }
    for note in &env.report.warnings {
        println!("  WARNING: {note}");
    }
    let kind = if a.traced { "traced" } else { "untraced" };
    let record = format!(
        "{{\"host\":{},\"run\":{}}}\n",
        host.to_json(),
        report::record_json(&env.report, name, a.seed, seconds, a.scale_div, a.traced)
    );
    let write = |file: String, text: &str| {
        let path = out_dir().join(file);
        std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))
    };
    write(format!("{name}.{kind}.json"), &record)?;
    if a.traced {
        write(format!("{name}.trace.json"), &env.rec.to_json(name))?;
    }
    println!(
        "{}",
        report::driver_line(&env.report, manifest.declared(a.traced))?
    );
    Ok(true)
}

/// Every workload, each run in a child process so that `rss_peak_mb` is
/// the workload's own: untraced, then traced, `--repeat` times. Collects
/// the children's result files into one.
fn run_all(a: &Args) -> Result<bool, String> {
    let manifest = Manifest::load()?;
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let started = std::time::Instant::now();
    let mut runs: Vec<String> = Vec::new();
    let mut all_correct = true;
    for _ in 0..a.repeat.max(1) {
        for name in &manifest.workloads {
            let mut built: Vec<[Option<String>; 2]> = Vec::new();
            for traced in [false, true] {
                let mut cmd = std::process::Command::new(&exe);
                cmd.args(["run", "--workload", name])
                    .args(["--seed", &a.seed.to_string()])
                    .args(["--trace", if traced { "1" } else { "0" }])
                    .args(["--scale-div", &a.scale_div.to_string()]);
                if let Some(s) = a.seconds {
                    cmd.args(["--seconds", &s.to_string()]);
                }
                let t = std::time::Instant::now();
                let status = cmd
                    .status()
                    .map_err(|e| format!("{}: {e}", exe.display()))?;
                println!("  ({name} took {:.1} s)\n", t.elapsed().as_secs_f64());
                if !status.success() {
                    return Err(format!(
                        "{name} (trace {}) did not finish: {status}",
                        u8::from(traced)
                    ));
                }
                let kind = if traced { "traced" } else { "untraced" };
                let path = out_dir().join(format!("{name}.{kind}.json"));
                let text = std::fs::read_to_string(&path)
                    .map_err(|e| format!("{}: {e}", path.display()))?;
                let doc = sut::json::parse(&text)?;
                let run = doc.get("run");
                all_correct &=
                    run.and_then(|r| r.get("correct")) == Some(&sut::json::Value::Bool(true));
                let digest = |key: &str| {
                    let d = run.and_then(|r| r.get("digests"))?.get(key)?;
                    d.as_str().map(str::to_string)
                };
                built.push([digest("site_pages"), digest("site")]);
                runs.push(text.trim().to_string());
            }
            // The traced run builds by three calls what the untraced run
            // builds by one: the generated site must be the same. (The
            // traced run of build_wide builds a wider site, told by its
            // page count: there is nothing to compare it with.)
            if built[0][0] == built[1][0] && built[0][1] != built[1][1] {
                println!("  MISMATCH: {name} generated different sites untraced and traced");
                all_correct = false;
            }
        }
    }
    let out = a
        .out
        .clone()
        .unwrap_or_else(|| out_dir().join(format!("all-seed{}.json", a.seed)));
    let doc = format!("{{\"runs\":[\n{}\n]}}\n", runs.join(",\n"));
    std::fs::write(&out, doc).map_err(|e| format!("{}: {e}", out.display()))?;
    println!(
        "{} runs in {:.0} s → {}{}",
        runs.len(),
        started.elapsed().as_secs_f64(),
        out.display(),
        if all_correct {
            ""
        } else {
            "  (some outputs were WRONG)"
        }
    );
    Ok(all_correct)
}
