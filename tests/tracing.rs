//! The flight recorder over HTTP, in a test binary of its own: the recorder
//! is one per process, so a test that enables it and then looks for its own
//! request in `/debug/traces` must not share a process with tests that
//! serve other requests into the same ring. What the recorder reports of
//! itself in `/stats` and `/metrics` (`traces.*`, `strudel_trace_*`) is
//! declared in `strudel-obs/src/trace.rs` (`TraceStats`) and checked with every
//! other signal by `tests/serving.rs`.

use strudel::serve::testing::{demo_site, fetch, with_client};
use strudel::serve::Server;
use strudel::site::DynamicSite;
use strudel::struql::EvalOptions;

/// `/debug/traces` over a live traced server: the JSON form carries a
/// trace for the page just fetched with spans from several layers, and
/// the chrome form is a JSON array of complete events.
#[test]
fn debug_traces_exposes_request_spans() {
    strudel::obs::trace::enable(strudel::obs::trace::TraceConfig::default());
    let (data, query) = demo_site();
    let site = DynamicSite::new(&data, &query, EvalOptions::default()).unwrap();
    let server = Server::bind(site, "127.0.0.1:0").unwrap();
    with_client(&server, |addr| {
        assert!(fetch(addr, "/page/FrontPage").contains("Story"));
        let resp = fetch(addr, "/debug/traces");
        let (_, body) = resp.split_once("\r\n\r\n").unwrap();
        let v = strudel::obs::json::parse(body).expect("valid JSON");
        let traces = v.get("traces").and_then(|t| t.as_array()).unwrap();
        let ours = traces
            .iter()
            .find(|t| t.get("path").and_then(|p| p.as_str()) == Some("/page/FrontPage"))
            .expect("a trace for the fetched page");
        let spans = ours.get("spans").and_then(|s| s.as_array()).unwrap();
        let cats: std::collections::BTreeSet<&str> = spans
            .iter()
            .filter_map(|s| s.get("cat").and_then(|c| c.as_str()))
            .collect();
        assert!(cats.contains("serve"), "{cats:?}");
        assert!(cats.contains("cache"), "{cats:?}");
        assert!(cats.contains("eval"), "{cats:?}");
        assert!(cats.contains("render"), "{cats:?}");

        // The cache span says why a click was slow: one conjunction
        // evaluated, four binding rows (two articles, two attributes
        // each) for the two links on the page.
        let expand = spans
            .iter()
            .find(|s| s.get("name").and_then(|n| n.as_str()) == Some("cache.expand"))
            .and_then(|s| s.get("attrs"))
            .expect("a cache.expand span with attributes");
        for (key, want) in [
            ("misses", 1.0),
            ("evals", 1.0),
            ("rows", 4.0),
            ("links", 2.0),
        ] {
            assert_eq!(
                expand.get(key).and_then(|v| v.as_f64()),
                Some(want),
                "{key}"
            );
        }

        let resp = fetch(addr, "/debug/traces?format=chrome");
        let (_, body) = resp.split_once("\r\n\r\n").unwrap();
        let v = strudel::obs::json::parse(body).expect("valid chrome JSON");
        let events = v.as_array().expect("array of events");
        assert!(!events.is_empty());
        for e in events {
            assert_eq!(e.get("ph").and_then(|p| p.as_str()), Some("X"));
            assert!(e.get("ts").and_then(|t| t.as_f64()).is_some());
        }
    });
}

/// A page answered from the cache is answered by the event loop, and its
/// trace says so in the vocabulary a worker's answer uses: the same six
/// spans in the same tree, `cache.expand` all hits — with nothing between
/// parsing and handling, or handling and writing, but the loop itself (a
/// dispatched request waits there for a worker and for the doorbell back).
#[test]
fn warm_get_is_traced_where_it_is_answered() {
    use strudel::obs::trace::{self, AttrValue, SpanRecord};

    trace::enable(trace::TraceConfig::default());
    let (data, query) = demo_site();
    let site = DynamicSite::new(&data, &query, EvalOptions::default()).unwrap();
    let server = Server::bind(site, "127.0.0.1:0").unwrap();
    // A page the other test of this binary does not fetch: the recorder is
    // shared, the path tells the traces apart.
    let url = strudel::serve::page_url(&strudel::site::PageRef {
        skolem: "Page".into(),
        args: vec![strudel::graph::Value::Node(data.nodes()[0])],
    });
    with_client(&server, |addr| {
        for _cold_then_warm in 0..2 {
            assert!(fetch(addr, &url).contains("headline"));
        }
    });
    let stats = server.stats();
    assert_eq!((stats.requests_inline, stats.requests_dispatched), (1, 2));

    let spans = trace::snapshot_spans();
    let path = AttrValue::Text(url.clone());
    let mut roots: Vec<&SpanRecord> = spans
        .iter()
        .filter(|s| s.parent_id == 0 && s.attrs.iter().any(|(k, v)| k == "path" && *v == path))
        .collect();
    roots.sort_by_key(|s| s.start_ns);
    assert_eq!(roots.len(), 2, "a cold and a warm request for {url}");
    let tree = |root: &SpanRecord| -> Vec<(String, String)> {
        let mut mine: Vec<&SpanRecord> = spans
            .iter()
            .filter(|s| s.trace_id == root.trace_id)
            .collect();
        mine.sort_by_key(|s| (s.start_ns, s.span_id));
        let name_of = |id: u64| {
            mine.iter()
                .find(|s| s.span_id == id)
                .map(|s| s.name.clone())
        };
        mine.iter()
            .filter(|s| s.layer.name() != "eval") // the cold one evaluates
            .map(|s| (s.name.clone(), name_of(s.parent_id).unwrap_or_default()))
            .collect()
    };
    let (cold, warm) = (roots[0], roots[1]);
    let want = [
        ("request", ""),
        ("serve.parse", "request"),
        ("serve.handle", "request"),
        ("cache.expand", "serve.handle"),
        ("render.page", "serve.handle"),
        ("serve.write", "request"),
    ]
    .map(|(name, parent)| (name.to_string(), parent.to_string()));
    assert_eq!(tree(warm), want);
    assert_eq!(tree(cold), want, "one vocabulary for both paths");

    let of = |root: &SpanRecord, name: &str| {
        let found = spans
            .iter()
            .find(|s| s.trace_id == root.trace_id && s.name == name);
        found.unwrap_or_else(|| panic!("no {name} span")).clone()
    };
    let attr = |span: &SpanRecord, key: &str| match span.attrs.iter().find(|(k, _)| k == key) {
        Some((_, AttrValue::U64(v))) => *v,
        other => panic!("no integer attribute {key} on {}: {other:?}", span.name),
    };
    let expand = of(warm, "cache.expand");
    for (key, want) in [("hits", 1), ("misses", 0), ("evals", 0), ("links", 2)] {
        assert_eq!(attr(&expand, key), want, "{key}");
    }
    assert_eq!(attr(&of(cold, "cache.expand"), "misses"), 1);
    assert_eq!(attr(&of(warm, "serve.handle"), "status"), 200);
    assert_eq!(attr(warm, "status"), 200);

    // The phases of the warm request follow one another on one thread:
    // ordered, and the root's own time (what no phase covers) is the two
    // seams between them, not a queue.
    let (parse, handle, write) = (
        of(warm, "serve.parse"),
        of(warm, "serve.handle"),
        of(warm, "serve.write"),
    );
    assert!(parse.end_ns <= handle.start_ns && handle.end_ns <= write.start_ns);
    assert!(write.end_ns <= warm.end_ns);
    let phases = parse.dur_ns() + handle.dur_ns() + write.dur_ns();
    assert!(phases <= warm.dur_ns(), "{phases} of {}", warm.dur_ns());
}

/// Restart to first hub page: a reopened store hands out a graph with no
/// extents, leaf pages never ask for them, and the first page that looks an
/// edge up backwards builds them — once, however many clicks race for it —
/// under a `graph.extents` span that says what the wait was.
#[test]
fn first_hub_click_after_reopen_builds_the_extents_once_and_names_it() {
    use strudel::graph::store::{PagedStore, WireValue};
    use strudel::graph::Value;
    use strudel::obs::trace::{self, AttrValue};
    use strudel::site::PageRef;
    use strudel::synth::news;

    trace::enable(trace::TraceConfig::default());
    let dir = std::env::temp_dir().join(format!("strudel_it_extents_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("news.pdb");
    let data = strudel::graph::ddl::parse(&news::generate_ddl(300, 5)).unwrap();
    let mut store = PagedStore::import(&path, &data).unwrap();
    let mut txn = store.begin();
    let extra = txn.add_node(Some("art300"));
    txn.add_edge(extra, "headline", WireValue::Str("Late edition".into()));
    txn.add_edge(extra, "section", WireValue::Str("sports".into()));
    txn.add_to_collection("Articles", WireValue::Node(extra));
    txn.commit().unwrap();
    drop(store);

    // Reopen with that commit still in the WAL to replay.
    let mut store = PagedStore::open(&path).unwrap();
    let graph = store.graph().unwrap();
    let query = strudel::struql::parse_query(news::SITE_QUERY).unwrap();
    let site = DynamicSite::new(graph, &query, EvalOptions::default()).unwrap();
    let article = graph.nodes()[0];
    let leaf = PageRef {
        skolem: "ArticlePage".into(),
        args: vec![Value::Node(article)],
    };
    assert!(!site.expand(&leaf).unwrap().is_empty());
    assert!(!graph.extents_built(), "a leaf page follows out-edges only");

    let hub = PageRef {
        skolem: "SectionPage".into(),
        args: vec![Value::str("sports")],
    };
    let gate = std::sync::Barrier::new(2);
    let click = || {
        let root = trace::begin_request("test.click").expect("tracing enabled");
        let trace_id = root.trace_id();
        let entered = trace::enter(&root.ctx());
        gate.wait();
        let links = site.expand(&hub).unwrap();
        drop(entered);
        root.finish();
        (trace_id, links.len())
    };
    let (a, b) = std::thread::scope(|s| {
        let other = s.spawn(click);
        (click(), other.join().unwrap())
    });
    assert!(graph.extents_built());
    assert!(a.1 > 30 && a.1 == b.1, "both clicks see the whole hub page");
    let builds: Vec<_> = trace::snapshot_spans()
        .into_iter()
        .filter(|s| s.name == "graph.extents" && [a.0, b.0].contains(&s.trace_id))
        .collect();
    assert_eq!(builds.len(), 1, "one build between the two clicks");
    assert_eq!(builds[0].layer.name(), "store");
    let attr = |key: &str| match builds[0].attrs.iter().find(|(k, _)| k == key) {
        Some((_, AttrValue::U64(v))) => *v,
        other => panic!("no integer attribute {key}: {other:?}"),
    };
    assert_eq!(attr("edges"), graph.edge_count() as u64);
    assert_eq!(attr("labels"), graph.labels().len() as u64);
    assert!(attr("values") > 300);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A cold `FrontPage`, as the counts behind its speed at two sizes: both of
/// its conjunctions carry `l = "…"` for the edge's arc variable, so their
/// plans follow that one label (a `label-*` operator, estimated from the
/// label's cardinality to within 2× of what it returns) instead of walking
/// every out-edge of every article and filtering — the whole page examines
/// at most three rows per row it keeps.
#[test]
fn a_cold_front_page_follows_its_known_labels() {
    use strudel::obs::trace::{self, AttrValue};
    use strudel::site::PageRef;
    use strudel::synth::news;

    trace::enable(trace::TraceConfig::default());
    let query = strudel::struql::parse_query(news::SITE_QUERY).unwrap();
    for articles in [300, 1_200] {
        let data = strudel::graph::ddl::parse(&news::generate_ddl(articles, 5)).unwrap();
        let site = DynamicSite::new(&data, &query, EvalOptions::default()).unwrap();
        let root = trace::begin_request("test.front").expect("tracing enabled");
        let trace_id = root.trace_id();
        let entered = trace::enter(&root.ctx());
        let front = PageRef {
            skolem: "FrontPage".into(),
            args: Vec::new(),
        };
        assert!(site.expand(&front).unwrap().len() > 7);
        drop(entered);
        root.finish();

        let spans: Vec<_> = trace::snapshot_spans()
            .into_iter()
            .filter(|s| s.trace_id == trace_id)
            .collect();
        let attr =
            |span: &trace::SpanRecord, key: &str| match span.attrs.iter().find(|(k, _)| k == key) {
                Some((_, AttrValue::U64(v))) => *v,
                other => panic!("no integer attribute {key} on {}: {other:?}", span.name),
            };
        let ops: Vec<_> = spans.iter().filter(|s| s.name == "eval.op").collect();
        let by_label: Vec<_> = ops
            .iter()
            .filter(|s| {
                s.attrs.iter().any(|(k, v)| {
                    k == "op" && matches!(v, AttrValue::Text(t) if t.starts_with("label-"))
                })
            })
            .collect();
        assert_eq!(by_label.len(), 2, "one label operator per conjunction");
        for op in by_label {
            let (est, obs) = (attr(op, "est_rows"), attr(op, "obs_rows"));
            assert!(obs >= articles as u64, "{obs} rows at {articles} articles");
            assert!(est <= 2 * obs && obs <= 2 * est, "est {est} obs {obs}");
        }
        let examined: u64 = ops.iter().map(|op| attr(op, "obs_rows")).sum();
        let expand = spans.iter().find(|s| s.name == "cache.expand").unwrap();
        let kept = attr(expand, "rows");
        assert!(
            examined <= 3 * kept,
            "{examined} rows examined for {kept} kept at {articles} articles"
        );
    }
}
