//! End-to-end tests of the `strudel-cli` binary: demo scaffolding, build,
//! schema, explain, verify, and ad-hoc queries, all through the real
//! executable.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_strudel-cli")
}

fn run(args: &[&str]) -> Output {
    Command::new(bin())
        .args(args)
        .output()
        .expect("spawn strudel-cli")
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("strudel_cli_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn demo_spec(dir: &Path) -> String {
    let out = run(&["demo", dir.to_str().unwrap()]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    dir.join("demo.site").to_str().unwrap().to_string()
}

#[test]
fn demo_then_build_produces_a_browsable_site() {
    let dir = tmpdir("build");
    let spec = demo_spec(&dir);
    let out = run(&["build", &spec]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("built 3 pages"), "{stdout}");
    let home = std::fs::read_to_string(dir.join("out/homepage.html")).unwrap();
    assert!(home.contains("Publications"));
    // Link targets exist on disk.
    for href in home.split("href=\"").skip(1) {
        let target = &href[..href.find('"').unwrap()];
        if target.ends_with(".html") {
            assert!(dir.join("out").join(target).exists(), "missing {target}");
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn schema_prints_dot() {
    let dir = tmpdir("schema");
    let spec = demo_spec(&dir);
    let out = run(&["schema", &spec]);
    assert!(out.status.success());
    let dot = String::from_utf8_lossy(&out.stdout);
    assert!(dot.contains("digraph"));
    assert!(dot.contains("HomePage"));
    assert!(dot.contains("Paper"));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn explain_shows_plans() {
    let dir = tmpdir("explain");
    let spec = demo_spec(&dir);
    let out = run(&["explain", &spec]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    // Plans print the compiled physical operator per node plus estimates.
    assert!(
        text.contains("collection-scan") || text.contains("label-forward"),
        "{text}"
    );
    assert!(text.contains("est"), "{text}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn verify_passes_and_fails_appropriately() {
    let dir = tmpdir("verify");
    let spec = demo_spec(&dir);
    let ok = run(&["verify", &spec, "reachable-from", "HomePage"]);
    assert!(
        ok.status.success(),
        "{}",
        String::from_utf8_lossy(&ok.stderr)
    );
    assert!(String::from_utf8_lossy(&ok.stdout).contains("Satisfied"));

    let bad = run(&["verify", &spec, "every", "HomePage", "-Missing->", "Paper"]);
    assert!(
        !bad.status.success(),
        "a violated constraint must exit nonzero"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn adhoc_query_roundtrips_ddl() {
    let dir = tmpdir("query");
    std::fs::write(
        dir.join("d.ddl"),
        "object a in C { x 1 }\nobject b in C { x 2 }\n",
    )
    .unwrap();
    std::fs::write(
        dir.join("q.struql"),
        "WHERE C(v), v -> \"x\" -> y CREATE P(v) LINK P(v) -> \"X\" -> y COLLECT Out(P(v))\n",
    )
    .unwrap();
    let out = run(&[
        "query",
        dir.join("d.ddl").to_str().unwrap(),
        dir.join("q.struql").to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let ddl = String::from_utf8_lossy(&out.stdout);
    assert!(ddl.contains("collection Out"), "{ddl}");
    // The printed DDL re-parses through another `query` invocation.
    std::fs::write(dir.join("out.ddl"), ddl.as_bytes()).unwrap();
    std::fs::write(dir.join("q2.struql"), "WHERE Out(x) COLLECT O2(x)\n").unwrap();
    let out2 = run(&[
        "query",
        dir.join("out.ddl").to_str().unwrap(),
        dir.join("q2.struql").to_str().unwrap(),
    ]);
    assert!(
        out2.status.success(),
        "{}",
        String::from_utf8_lossy(&out2.stderr)
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Writes a two-object data file and a query over it into `dir`; returns
/// their paths. The query names no label, so no plan reads the index's
/// extents and its trace holds only evaluator spans.
fn adhoc_query_files(dir: &Path) -> (String, String) {
    let (data, query) = (dir.join("d.ddl"), dir.join("q.struql"));
    std::fs::write(&data, "object a in C { x 1 }\nobject b in C { x 2 }\n").unwrap();
    std::fs::write(
        &query,
        "WHERE C(v), v -> l -> y CREATE P(v) LINK P(v) -> l -> y COLLECT Out(P(v))\n",
    )
    .unwrap();
    let path = |p: PathBuf| p.to_str().unwrap().to_string();
    (path(data), path(query))
}

#[test]
fn query_profile_json_lists_the_evaluation_spans() {
    let dir = tmpdir("profile_json");
    let (data, query) = adhoc_query_files(&dir);
    let out = run(&["query", &data, &query, "--profile", "--json"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let doc = strudel::obs::json::parse(&stdout).expect("stdout is JSON");
    let spans = doc.get("profile").and_then(|p| p.as_array()).unwrap();
    assert!(!spans.is_empty(), "{stdout}");
    for span in spans {
        let name = span.get("name").and_then(|n| n.as_str()).unwrap_or("");
        assert!(name.starts_with("eval."), "{stdout}");
        assert_eq!(span.get("cat").and_then(|c| c.as_str()), Some("eval"));
    }
    let ops = spans
        .iter()
        .filter(|s| s.get("name").and_then(|n| n.as_str()) == Some("eval.op"));
    assert_eq!(ops.count(), 2, "{stdout}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn query_profile_keeps_stdout_the_same_ddl() {
    let dir = tmpdir("profile_ddl");
    let (data, query) = adhoc_query_files(&dir);
    let plain = run(&["query", &data, &query]);
    let profiled = run(&["query", &data, &query, "--profile"]);
    assert!(plain.status.success() && profiled.status.success());
    assert_eq!(
        String::from_utf8_lossy(&profiled.stdout),
        String::from_utf8_lossy(&plain.stdout)
    );
    let trace = String::from_utf8_lossy(&profiled.stderr);
    assert!(trace.contains("eval.op [eval]"), "{trace}");
    assert!(trace.contains("per-layer self-time: eval"), "{trace}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn bad_usage_exits_with_code_2() {
    let out = run(&[]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage"));
    let out = run(&["frobnicate", "x"]);
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn missing_spec_file_reports_error() {
    let out = run(&["build", "/nonexistent/site.spec"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("error"));
}
