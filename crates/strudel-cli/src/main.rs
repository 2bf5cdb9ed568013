//! `strudel-cli` — the command-line interface to the STRUDEL web-site
//! management system.
//!
//! ```text
//! strudel-cli build   <site.spec> [--jobs N] [--timings] [--data FILE]
//!                                                 generate the browsable site
//! strudel-cli schema  <site.spec>                 print the site schema (DOT)
//! strudel-cli explain <site.spec> [--profile [--json]]  optimizer plans per block
//! strudel-cli verify  <site.spec> <constraint>    check a structural constraint
//! strudel-cli query   <data.(ddl|pdb)> <q.struql> [--profile [--json]]
//!                                                 run an ad-hoc query, print DDL
//! strudel-cli serve   <site.spec> [addr]          click-time evaluation over HTTP
//!     [--threads N] [--cache-entries N] [--cache-bytes N] [--data FILE]
//!     [--trace-sample-rate F] [--trace-slow-ms N]
//! strudel-cli trace   <http://host:port/page/...>  fetch a page from a traced
//!                     | <site.spec> [page-path]    server (or serve one in
//!                                                  process) and print its span
//!                                                  tree with per-layer self-times
//! strudel-cli store   import <data.ddl> <store.pdb>   seed a paged store
//! strudel-cli store   info <store.pdb>            revision, pages, WAL, contents
//! strudel-cli store   compact <store.pdb>         checkpoint + rewrite minimal
//! strudel-cli demo    <dir>                       write a ready-to-build demo site
//! ```
//!
//! `--data FILE` registers a paged graph store (crash-recovered on open) as
//! an extra data source named `store` alongside the spec's sources.
//!
//! Observability flags:
//!
//! * `--profile` runs the evaluation traced and prints its span tree, as
//!   `trace` prints a request's: one `eval.block` span per block and one
//!   `eval.op` span per executed plan operator (its estimated vs. observed
//!   rows, path-memo hits/misses), then per-layer self-times. `query`
//!   prints the tree to stderr so stdout stays pipeable DDL; `explain`
//!   prints it after the plans. With `--json` the spans are printed to
//!   stdout as `{"profile":[…]}` instead.
//! * `--timings` makes `build` print a phase-breakdown JSON object
//!   (refresh → evaluate → render → write, microseconds) with the slowest
//!   pages, instead of the human summary line.
//!
//! Constraint syntax for `verify`:
//!
//! ```text
//! reachable-from Root
//! every MemberPage -Department-> DeptPage
//! none-reachable Root SecretPage
//! ```

mod spec;

use std::path::Path;
use std::process::ExitCode;
use strudel::obs::trace::{self, AttrValue, SpanRecord};
use strudel::site::Constraint;
use strudel::{Strudel, StrudelError};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("build") if args.len() >= 2 => cmd_build(Path::new(&args[1]), &args[2..]),
        Some("schema") if args.len() == 2 => cmd_schema(Path::new(&args[1])),
        Some("explain") if args.len() >= 2 => cmd_explain(Path::new(&args[1]), &args[2..]),
        Some("verify") if args.len() >= 3 => cmd_verify(Path::new(&args[1]), &args[2..].join(" ")),
        Some("query") if args.len() >= 3 => {
            cmd_query(Path::new(&args[1]), Path::new(&args[2]), &args[3..])
        }
        Some("serve") if args.len() >= 2 => cmd_serve(Path::new(&args[1]), &args[2..]),
        Some("trace") if args.len() >= 2 => cmd_trace(&args[1], &args[2..]),
        Some("store") if args.len() >= 2 => cmd_store(&args[1], &args[2..]),
        Some("demo") if args.len() == 2 => cmd_demo(Path::new(&args[1])),
        _ => {
            eprintln!("usage:\n  strudel-cli build   <site.spec> [--jobs N] [--timings] [--data FILE]\n  strudel-cli schema  <site.spec>\n  strudel-cli explain <site.spec> [--profile [--json]]\n  strudel-cli verify  <site.spec> <constraint>\n  strudel-cli query   <data.(ddl|pdb)> <query.struql> [--profile [--json]]\n  strudel-cli serve   <site.spec> [addr] [--threads N] [--cache-entries N] [--cache-bytes N]\n                       [--data FILE] [--trace-sample-rate F] [--trace-slow-ms N]\n  strudel-cli trace   <http://host:port/page/...> | <site.spec> [page-path]\n  strudel-cli store   import <data.ddl> <store.pdb> | info <store.pdb> | compact <store.pdb>\n  strudel-cli demo    <dir>");
            return ExitCode::from(2);
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

type AnyError = Box<dyn std::error::Error>;

/// How `--profile [--json]` asks for the evaluation's trace.
#[derive(Clone, Copy, PartialEq, Eq)]
enum ProfileMode {
    Off,
    Table,
    Json,
}

fn parse_profile_flags(rest: &[String]) -> Result<ProfileMode, AnyError> {
    let (mut profile, mut json) = (false, false);
    for arg in rest {
        match arg.as_str() {
            "--profile" => profile = true,
            "--json" => json = true,
            s => return Err(format!("unknown argument {s}").into()),
        }
    }
    match (profile, json) {
        (false, false) => Ok(ProfileMode::Off),
        (true, false) => Ok(ProfileMode::Table),
        (true, true) => Ok(ProfileMode::Json),
        (false, true) => Err("--json requires --profile".into()),
    }
}

/// Runs `evaluate` under a root span named `name` on a recorder of its own
/// and returns its result with the spans recorded below that root, in start
/// order. Fails if the ring wrapped during the run.
fn profiled<T, E: Into<AnyError>>(
    name: &'static str,
    evaluate: impl FnOnce() -> Result<T, E>,
) -> Result<(T, Vec<SpanRecord>), AnyError> {
    let recorder = trace::Recorder::new(trace::TraceConfig::default());
    let root = recorder.begin_request(name);
    let entered = trace::enter(&root.ctx());
    let result = evaluate();
    drop(entered);
    let recorded = root.finish().spans as usize;
    let value = result.map_err(Into::into)?;
    let mut spans = recorder.snapshot_spans();
    if spans.len() < recorded {
        return Err(format!(
            "the flight recorder's ring wrapped during the run: {} of {recorded} spans lost",
            recorded - spans.len()
        )
        .into());
    }
    spans.retain(|s| s.parent_id != 0);
    spans.sort_by_key(|s| (s.start_ns, s.span_id));
    Ok((value, spans))
}

/// `{"profile":[…]}`: the spans in their `/debug/traces` form.
fn profile_json(spans: &[SpanRecord]) -> String {
    let spans: Vec<String> = spans.iter().map(SpanRecord::to_json).collect();
    format!("{{\"profile\":[{}]}}", spans.join(","))
}

fn read(path: &Path) -> Result<String, AnyError> {
    std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()).into())
}

/// Wires a [`Strudel`] system from a spec file.
fn load_system(spec_path: &Path) -> Result<(Strudel, spec::Spec), AnyError> {
    let base = spec_path.parent().unwrap_or(Path::new("."));
    let sp = spec::parse(&read(spec_path)?, base)?;
    let mut s = Strudel::new();

    for (kind, name, path) in &sp.sources {
        match kind.as_str() {
            "bibtex" => s.add_bibtex_source(name, &read(path)?),
            "ddl" => s.add_ddl_source(name, &read(path)?),
            "csv" => {
                let table = strudel::wrappers::relational::Table::from_csv(name, &read(path)?)
                    .map_err(StrudelError::Graph)?;
                let fks = sp
                    .fks
                    .iter()
                    .map(|(t, c, tt, tk)| strudel::wrappers::relational::ForeignKey {
                        table: t.clone(),
                        column: c.clone(),
                        target_table: tt.clone(),
                        target_key: tk.clone(),
                    })
                    .collect();
                s.add_csv_source(name, vec![table], fks);
            }
            "html" => {
                let html = read(path)?;
                s.add_html_source(name, vec![(path.display().to_string(), html)]);
            }
            "xml" => s.add_xml_source(name, &read(path)?),
            "store" => s.add_store_source(name, path),
            _ => unreachable!("validated by spec parser"),
        }
    }
    for (source, path) in &sp.mappings {
        s.add_mapping(source, &read(path)?)?;
    }
    for q in &sp.queries {
        s.add_site_query(&read(q)?)?;
    }
    for (name, path) in &sp.templates {
        s.templates_mut()
            .set_collection_template(name, &read(path)?)
            .map_err(StrudelError::Template)?;
    }
    for (name, path) in &sp.named_templates {
        s.templates_mut()
            .set_named(name, &read(path)?)
            .map_err(StrudelError::Template)?;
    }
    if let Some(path) = &sp.default_template {
        s.templates_mut()
            .set_default(&read(path)?)
            .map_err(StrudelError::Template)?;
    }
    Ok((s, sp))
}

/// `rest` holds everything after the spec path: an optional `--jobs N`
/// flag (render workers: threads rendering pages once the site graph is
/// built; defaults to the machine's available parallelism), `--timings`
/// (print a phase-breakdown JSON object instead of the summary line) and
/// `--data FILE` (mount a paged graph store as an extra source).
fn cmd_build(spec_path: &Path, rest: &[String]) -> Result<(), AnyError> {
    let mut jobs = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut timings = false;
    let mut data: Option<String> = None;
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--jobs" => {
                let v = it.next().ok_or("--jobs needs a value")?;
                jobs = v
                    .parse::<usize>()
                    .map_err(|e| format!("--jobs {v}: {e}"))?
                    .max(1);
            }
            "--timings" => timings = true,
            "--data" => data = Some(it.next().ok_or("--data needs a file")?.clone()),
            s => return Err(format!("unknown argument {s}").into()),
        }
    }
    let (mut s, sp) = load_system(spec_path)?;
    if let Some(store_path) = &data {
        s.add_store_source("store", Path::new(store_path));
    }
    s.set_jobs(jobs);
    let roots: Vec<&str> = sp.roots.iter().map(String::as_str).collect();
    let out = sp
        .output
        .clone()
        .unwrap_or_else(|| Path::new("site-out").to_path_buf());
    if timings {
        let (site, phases) = s.publish_timed(&roots, &out)?;
        let mut slow: Vec<(String, u64)> = site.render_us.clone();
        slow.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        slow.truncate(5);
        let slow_json = slow
            .iter()
            .map(|(f, us)| {
                format!(
                    "{{\"file\":\"{}\",\"us\":{us}}}",
                    strudel::obs::json::escape(f)
                )
            })
            .collect::<Vec<_>>()
            .join(",");
        println!(
            "{{\"phases\":{},\"total_us\":{},\"jobs\":{jobs},\"pages\":{},\"bytes\":{},\"slowest_pages\":[{slow_json}]}}",
            phases.to_json(),
            phases.total_us(),
            site.pages.len(),
            site.total_bytes(),
        );
        for w in &site.warnings {
            eprintln!("warning: {w}");
        }
        return Ok(());
    }
    let t = std::time::Instant::now();
    let site = s.publish(&roots, &out)?;
    println!(
        "built {} pages ({} bytes) in {:?} with {} render workers -> {}",
        site.pages.len(),
        site.total_bytes(),
        t.elapsed(),
        jobs,
        out.display()
    );
    for w in &site.warnings {
        eprintln!("warning: {w}");
    }
    Ok(())
}

fn cmd_schema(spec_path: &Path) -> Result<(), AnyError> {
    let (s, _) = load_system(spec_path)?;
    print!("{}", s.site_schema()?.to_dot());
    Ok(())
}

fn cmd_explain(spec_path: &Path, rest: &[String]) -> Result<(), AnyError> {
    let mode = parse_profile_flags(rest)?;
    let (mut s, _) = load_system(spec_path)?;
    let merged = s.merged_query();
    let opts = s.options_mut().clone();
    let data = s.data_graph()?;
    let plans = merged.explain(data, &opts).map_err(StrudelError::Struql)?;
    if mode != ProfileMode::Json {
        println!("{plans}");
    }
    if mode == ProfileMode::Off {
        return Ok(());
    }
    // The plans say what the optimizer *chose*; the trace of running them
    // says what each operator did, in execution order (adaptive
    // re-optimizations included).
    let (out, spans) = profiled("explain", || merged.evaluate(data, &opts))?;
    if mode == ProfileMode::Json {
        println!("{}", profile_json(&spans));
        return Ok(());
    }
    print!("{}", render_trace("explain", &spans));
    if out.stats.plan_replans > 0 {
        println!("adaptive re-optimizations: {}", out.stats.plan_replans);
    }
    Ok(())
}

fn parse_constraint(text: &str) -> Result<Constraint, AnyError> {
    let words: Vec<&str> = text.split_whitespace().collect();
    match words.as_slice() {
        ["reachable-from", root] => Ok(Constraint::AllReachableFrom {
            root: root.to_string(),
        }),
        ["none-reachable", from, forbidden] => Ok(Constraint::NoneReachable {
            from: from.to_string(),
            forbidden: forbidden.to_string(),
        }),
        ["every", from, edge, to] => {
            let label = edge
                .strip_prefix('-')
                .and_then(|e| e.strip_suffix("->"))
                .ok_or("edge must look like -Label->")?;
            Ok(Constraint::EveryHasEdge {
                from: from.to_string(),
                label: label.to_string(),
                to: to.to_string(),
            })
        }
        _ => Err(format!("cannot parse constraint `{text}`").into()),
    }
}

fn cmd_verify(spec_path: &Path, constraint_text: &str) -> Result<(), AnyError> {
    let (mut s, _) = load_system(spec_path)?;
    let constraint = parse_constraint(constraint_text)?;
    let (schema_verdict, exact) = s.verify(&constraint)?;
    println!("schema check: {schema_verdict:?}");
    if let Some(exact) = exact {
        println!("exact check:  {exact:?}");
        if matches!(exact, strudel::site::Verdict::Violated(_)) {
            return Err("constraint violated".into());
        }
    } else if matches!(schema_verdict, strudel::site::Verdict::Violated(_)) {
        return Err("constraint violated".into());
    }
    Ok(())
}

fn cmd_query(data_path: &Path, query_path: &Path, rest: &[String]) -> Result<(), AnyError> {
    let mode = parse_profile_flags(rest)?;
    let (mut store, parsed);
    let data = if data_path.extension().is_some_and(|e| e == "pdb") {
        // A paged store: open (running crash recovery if the last writer
        // died) and query its current revision.
        store = strudel::graph::store::PagedStore::open(data_path)?;
        store.graph()?
    } else {
        parsed = strudel::graph::ddl::parse(&read(data_path)?)?;
        &parsed
    };
    let q = strudel::struql::parse_query(&read(query_path)?)?;
    let opts = strudel::struql::EvalOptions::default();
    let mut elapsed = std::time::Duration::ZERO;
    let mut evaluate = || {
        let t = std::time::Instant::now();
        let out = q.evaluate(data, &opts);
        elapsed = t.elapsed();
        out
    };
    let (out, spans) = match mode {
        ProfileMode::Off => (evaluate()?, Vec::new()),
        _ => profiled("query", evaluate)?,
    };
    // A store's node segments are read as the evaluation first reads them;
    // one that did not read leaves its nodes empty, so the answer is void.
    data.check()?;
    eprintln!(
        "evaluated in {elapsed:?}: {} nodes, {} edges, {} rows examined",
        out.graph.node_count(),
        out.graph.edge_count(),
        out.stats.intermediate_rows
    );
    match mode {
        // Stdout stays pipeable DDL; the trace rides the diagnostics stream.
        ProfileMode::Off => print!("{}", strudel::graph::ddl::print(&out.graph)),
        ProfileMode::Table => {
            print!("{}", strudel::graph::ddl::print(&out.graph));
            eprint!("{}", render_trace("query", &spans));
        }
        ProfileMode::Json => println!("{}", profile_json(&spans)),
    }
    Ok(())
}

/// Writes a small ready-to-run demo site (spec + sources + query +
/// templates) into `dir`, so `strudel-cli build <dir>/demo.site` works.
/// Serves the site with click-time evaluation: nothing is materialized up
/// front; each page runs its governing StruQL sub-queries on request.
///
/// `rest` holds everything after the spec path: an optional bind address
/// plus `--threads N`, `--cache-entries N` and `--cache-bytes N` flags.
fn cmd_serve(spec_path: &Path, rest: &[String]) -> Result<(), AnyError> {
    let mut addr = "127.0.0.1:8017".to_string();
    let mut config = strudel::serve::ServerConfig::default();
    let mut cache = strudel::site::CacheConfig::default();
    let mut data: Option<String> = None;
    let mut trace_cfg = strudel::obs::trace::TraceConfig::default();

    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        let mut flag_value = |name: &str| -> Result<usize, AnyError> {
            let v = it.next().ok_or_else(|| format!("{name} needs a value"))?;
            v.parse().map_err(|e| format!("{name} {v}: {e}").into())
        };
        match arg.as_str() {
            "--threads" => config.threads = flag_value("--threads")?.max(1),
            "--cache-entries" => cache.max_entries = flag_value("--cache-entries")?,
            "--cache-bytes" => cache.max_bytes = flag_value("--cache-bytes")?,
            "--data" => data = Some(it.next().ok_or("--data needs a file")?.clone()),
            "--trace-sample-rate" => {
                let v = it.next().ok_or("--trace-sample-rate needs a value")?;
                trace_cfg.sample_rate = v
                    .parse()
                    .map_err(|e| format!("--trace-sample-rate {v}: {e}"))?;
            }
            "--trace-slow-ms" => trace_cfg.slow_ms = flag_value("--trace-slow-ms")? as u64,
            s if s.starts_with("--") => return Err(format!("unknown flag {s}").into()),
            s => addr = s.to_string(),
        }
    }

    let (mut s, _) = load_system(spec_path)?;
    if let Some(store_path) = &data {
        s.add_store_source("store", Path::new(store_path));
    }
    config.trace = Some(trace_cfg);
    let dynamic = s.dynamic_site_with(cache)?;
    let server = strudel::serve::Server::bind_with(dynamic, &addr, config)?;
    println!(
        "serving dynamically evaluated site on http://{}/ with {} worker threads (GET /quit to stop, GET /stats for metrics, GET /debug/traces for the flight recorder)",
        server.addr()?,
        server.config().threads,
    );
    server.serve(None)?;
    if let Some(recorder) = server.recorder() {
        print_trace_summary(recorder);
    }
    Ok(())
}

/// The serve-shutdown trace summary: recorder totals plus the worst
/// promoted traces with their per-layer self-time breakdowns.
fn print_trace_summary(recorder: &trace::Recorder) {
    let t = recorder.stats();
    if t.traces_started == 0 {
        return;
    }
    eprintln!(
        "traces: {} started, {} sampled, {} slow-promoted; ring {}/{} spans ({} overwritten)",
        t.traces_started,
        t.traces_sampled,
        t.traces_slow_promoted,
        t.ring_live,
        t.ring_capacity,
        t.spans_dropped,
    );
    let worst = recorder.worst_traces();
    if worst.is_empty() {
        return;
    }
    eprintln!("slowest requests:");
    for w in &worst {
        let breakdown = trace::LAYER_NAMES
            .iter()
            .zip(w.layer_self_ns.iter())
            .filter(|(_, ns)| **ns > 0)
            .map(|(name, ns)| format!("{name} {}us", ns / 1_000))
            .collect::<Vec<_>>()
            .join(", ");
        eprintln!(
            "  {:>8}us  {} ({} spans; {breakdown})",
            w.dur_ns / 1_000,
            if w.path.is_empty() { "?" } else { &w.path },
            w.spans,
        );
    }
}

/// `strudel-cli trace` — fetch one page through the traced click path and
/// print its span tree with per-layer self-times.
///
/// * `trace http://host:port/page/...` — remote: fetch the page from a
///   running server (started with tracing on), then pull its trace from
///   `/debug/traces`.
/// * `trace <site.spec> [page-path]` — in-process: bind an ephemeral
///   traced server over the spec, fetch the page (default: the first
///   `/page/…` link off `/`), and print its trace. Exercises the real
///   click path end to end.
fn cmd_trace(target: &str, rest: &[String]) -> Result<(), AnyError> {
    if let Some(stripped) = target.strip_prefix("http://") {
        let (host, path) = match stripped.split_once('/') {
            Some((h, p)) => (h.to_string(), format!("/{p}")),
            None => (stripped.to_string(), "/".to_string()),
        };
        return trace_via_server(&host, &path);
    }
    // In-process: serve the spec on an ephemeral port with tracing fully
    // on, then run the same remote flow against it.
    let (mut s, _) = load_system(Path::new(target))?;
    let dynamic = s.dynamic_site_with(strudel::site::CacheConfig::default())?;
    let config = strudel::serve::ServerConfig {
        trace: Some(trace::TraceConfig::default()),
        ..Default::default()
    };
    let server = strudel::serve::Server::bind_with(dynamic, "127.0.0.1:0", config)?;
    let host = server.addr()?.to_string();
    let mut result = Err("trace did not run".into());
    std::thread::scope(|scope| {
        let serving = scope.spawn(|| server.serve(None));
        result = (|| -> Result<(), AnyError> {
            let path = match rest.first() {
                Some(p) => p.clone(),
                None => {
                    // Follow the first page link off the roots listing.
                    let roots = http_get(&host, "/")?;
                    roots
                        .split("href=\"")
                        .nth(1)
                        .and_then(|part| part.find('"').map(|end| part[..end].to_string()))
                        .ok_or("no page links under /")?
                }
            };
            trace_via_server(&host, &path)
        })();
        let _ = http_get(&host, "/quit");
        let _ = serving.join().expect("server thread");
    });
    result
}

/// Fetches `path` from a traced server at `host`, then prints the span
/// tree `/debug/traces` recorded for that request.
fn trace_via_server(host: &str, path: &str) -> Result<(), AnyError> {
    let page = http_get(host, path)?;
    let status = page
        .strip_prefix("HTTP/1.1 ")
        .and_then(|r| r.get(..3))
        .unwrap_or("???");
    if !status.starts_with('2') {
        return Err(format!("GET {path} answered {status}").into());
    }
    let resp = http_get(host, "/debug/traces")?;
    let body = resp
        .split_once("\r\n\r\n")
        .map(|(_, b)| b)
        .ok_or("unframed /debug/traces response")?;
    let doc = strudel::obs::json::parse(body).map_err(|e| format!("/debug/traces: {e}"))?;
    let traces = doc
        .get("traces")
        .and_then(|t| t.as_array())
        .ok_or("no traces array (is tracing enabled on the server?)")?;
    // Newest first; ours is the most recent trace for this path.
    let trace = traces
        .iter()
        .find(|t| t.get("path").and_then(|p| p.as_str()) == Some(path))
        .ok_or_else(|| {
            format!("no trace for {path} (sampled out, or evicted from the recent ring?)")
        })?;
    let trace_id = trace
        .get("trace_id")
        .and_then(|v| v.as_f64())
        .unwrap_or(0.0) as u64;
    let spans = trace
        .get("spans")
        .and_then(|s| s.as_array())
        .unwrap_or(&[])
        .iter()
        .map(|s| SpanRecord::from_json(trace_id, s))
        .collect::<Option<Vec<_>>>()
        .ok_or("a malformed span in /debug/traces")?;
    print!("{}", render_trace(path, &spans));
    Ok(())
}

/// Renders one trace's spans as the indented tree [`trace::assemble_tree`]
/// builds — each span with its layer, duration, self-time and attributes,
/// children in start order — then the self-time summed per layer.
fn render_trace(title: &str, spans: &[SpanRecord]) -> String {
    use std::fmt::Write as _;
    fn walk(node: &trace::TreeNode, depth: usize, out: &mut String, self_ns: &mut [u64]) {
        let s = &node.span;
        self_ns[s.layer as usize] += node.self_ns;
        let _ = write!(
            out,
            "{:indent$}{} [{}] {}us (self {}us)",
            "",
            s.name,
            s.layer.name(),
            s.dur_ns() / 1_000,
            node.self_ns / 1_000,
            indent = depth * 2,
        );
        for (k, v) in &s.attrs {
            let _ = match v {
                AttrValue::U64(n) => write!(out, " {k}={n}"),
                AttrValue::Text(t) => write!(out, " {k}={t}"),
            };
        }
        out.push('\n');
        for child in &node.children {
            walk(child, depth + 1, out, self_ns);
        }
    }
    let forest = trace::assemble_tree(spans);
    let start = forest.iter().map(|n| n.span.start_ns).min().unwrap_or(0);
    let end = forest.iter().map(|n| n.span.end_ns).max().unwrap_or(0);
    let mut out = format!(
        "trace {} {title} — {}us total, {} spans\n",
        spans.first().map_or(0, |s| s.trace_id),
        end.saturating_sub(start) / 1_000,
        spans.len(),
    );
    let mut self_ns = [0u64; trace::LAYERS];
    for root in &forest {
        walk(root, 1, &mut out, &mut self_ns);
    }
    let breakdown: Vec<String> = trace::LAYER_NAMES
        .iter()
        .zip(self_ns)
        .filter(|(_, ns)| *ns > 0)
        .map(|(name, ns)| format!("{name} {}us", ns / 1_000))
        .collect();
    let _ = writeln!(out, "per-layer self-time: {}", breakdown.join(", "));
    out
}

/// A one-shot `Connection: close` GET against `host` (`ip:port`).
fn http_get(host: &str, path: &str) -> Result<String, AnyError> {
    use std::io::{Read, Write};
    let mut stream = std::net::TcpStream::connect(host)?;
    stream.set_read_timeout(Some(std::time::Duration::from_secs(10)))?;
    stream.write_all(
        format!("GET {path} HTTP/1.1\r\nHost: {host}\r\nConnection: close\r\n\r\n").as_bytes(),
    )?;
    let mut buf = String::new();
    stream.read_to_string(&mut buf)?;
    Ok(buf)
}

/// `strudel-cli store import|info|compact` — manage paged graph stores.
fn cmd_store(verb: &str, rest: &[String]) -> Result<(), AnyError> {
    use strudel::graph::store::PagedStore;
    match (verb, rest) {
        ("import", [data, dest]) => {
            let graph = strudel::graph::ddl::parse(&read(Path::new(data))?)?;
            let store = PagedStore::import(Path::new(dest), &graph)?;
            println!(
                "imported {} nodes / {} edges into {} (revision {}, {} pages)",
                graph.node_count(),
                graph.edge_count(),
                dest,
                store.revision(),
                store.page_count(),
            );
            Ok(())
        }
        ("info", [path]) => {
            // `open` reads no node segment; attaching the revision to a
            // graph of its own reads and checks every one — the full check.
            let mut store = PagedStore::open(Path::new(path))?;
            let mut g = strudel::graph::Graph::standalone();
            store.materialize_into(&mut g)?;
            let (nodes, edges, collections) =
                (g.node_count(), g.edge_count(), g.collection_names().len());
            println!(
                "revision {}: {} nodes, {} edges, {} collections",
                store.revision(),
                nodes,
                edges,
                collections,
            );
            println!(
                "pages {} ({} bytes), {} free, {} leaked; dirty since checkpoint: {} pages in {} segments",
                store.page_count(),
                store.page_count() as u64 * 4096,
                store.freelist_len(),
                store.leaked_pages(),
                store.dirty_pages(),
                store.dirty_segments(),
            );
            println!(
                "wal {} bytes, age {}s",
                store.wal_size(),
                store.wal_age_seconds(),
            );
            Ok(())
        }
        ("compact", [path]) => {
            let mut store = PagedStore::open(Path::new(path))?;
            let report = store.compact()?;
            println!(
                "compacted {}: {} -> {} pages",
                path, report.pages_before, report.pages_after
            );
            Ok(())
        }
        _ => Err("usage: strudel-cli store import <data.ddl> <store.pdb> | info <store.pdb> | compact <store.pdb>".into()),
    }
}

fn cmd_demo(dir: &Path) -> Result<(), AnyError> {
    std::fs::create_dir_all(dir)?;
    // Atomic per-file publication (same helper the site generator uses):
    // an interrupted demo write never leaves a torn file behind.
    let write = |name: &str, contents: &str| {
        strudel::graph::fsio::atomic_write_in(dir, name, contents.as_bytes())
    };
    write(
        "papers.bib",
        r#"@article{toplas97,
  title = {Specifying Representations of Machine Instructions},
  author = {Norman Ramsey and Mary Fernandez},
  year = 1997,
  journal = {TOPLAS},
  postscript = {papers/toplas97.ps.gz}
}
@inproceedings{icde98,
  title = {Optimizing Regular Path Expressions},
  author = {Mary Fernandez and Dan Suciu},
  year = 1998,
  booktitle = {Proc. of ICDE},
  postscript = {papers/icde98.ps.gz}
}
"#,
    )?;
    write(
        "site.struql",
        r#"CREATE HomePage()
COLLECT Roots(HomePage())
{
  WHERE Publications(x), x -> l -> v
  CREATE Paper(x)
  LINK Paper(x) -> l -> v,
       HomePage() -> "Paper" -> Paper(x)
}
"#,
    )?;
    write(
        "home.tmpl",
        r#"<html><body><h1>Publications</h1>
<SFOR p IN @Paper ORDER=descend KEY=@year LIST=ul><SFMT @p LINK=@p.title></SFOR>
</body></html>"#,
    )?;
    write(
        "paper.tmpl",
        r#"<html><body><h1><SFMT @title></h1>
<p>By <SFMT @author ALL DELIM=", "> (<SFMT @year>).</p>
<p><SFMT @postscript LINK="PostScript"></p>
</body></html>"#,
    )?;
    write(
        "demo.site",
        "source bibtex bibliography papers.bib\nquery site.struql\ntemplate HomePage home.tmpl\ntemplate Paper paper.tmpl\nroot HomePage\noutput out/\n",
    )?;
    strudel::graph::fsio::fsync_dir(dir)?;
    println!(
        "demo written; try: strudel-cli build {}",
        dir.join("demo.site").display()
    );
    Ok(())
}
