//! The flight recorder over HTTP, in a test binary of its own: the recorder
//! is one per process, so a test that enables it and then looks for its own
//! request in `/debug/traces` must not share a process with tests that
//! serve other requests into the same ring.

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
