//! Regression tests for the event-driven serving tier: keep-alive reuse,
//! pipelining order and its bound, which path answers a request (the loop
//! from the page cache, or a worker), connection-layer bugfixes (slow-loris
//! deadline, idle close, HEAD answers, zero-byte aborts, half-closed
//! requests, a half-closed peer of a request that is being evaluated,
//! admission control), the `/stats` and `/metrics` documents against the
//! signal declarations, and those against the catalog in the docs.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};
use strudel::serve::testing::{demo_site, fetch, with_client};
use strudel::serve::{Server, ServerConfig};
use strudel::site::DynamicSite;
use strudel::struql::EvalOptions;

/// Reads one `Content-Length`-framed response off a keep-alive socket.
/// Leftover bytes (pipelined successors) stay in `carry`.
fn read_response(stream: &mut TcpStream, carry: &mut Vec<u8>) -> (String, String) {
    let mut chunk = [0u8; 8192];
    loop {
        if let Some(end) = carry.windows(4).position(|w| w == b"\r\n\r\n") {
            let head = String::from_utf8_lossy(&carry[..end]).into_owned();
            let len: usize = head
                .lines()
                .find_map(|l| l.strip_prefix("Content-Length: "))
                .expect("framed response")
                .parse()
                .unwrap();
            let need = end + 4 + len;
            while carry.len() < need {
                let n = stream.read(&mut chunk).expect("read body");
                assert!(n > 0, "eof mid body");
                carry.extend_from_slice(&chunk[..n]);
            }
            let body = String::from_utf8_lossy(&carry[end + 4..need]).into_owned();
            carry.drain(..need);
            return (head, body);
        }
        let n = stream.read(&mut chunk).expect("read head");
        assert!(n > 0, "eof mid head");
        carry.extend_from_slice(&chunk[..n]);
    }
}

/// Binds a server over the demo site with `config`, runs `client` against
/// it ([`with_client`] stops it afterwards, also when `client` panics), and
/// returns the server's final [`strudel::serve::ServeStats`].
fn with_server(
    config: ServerConfig,
    client: impl FnOnce(SocketAddr),
) -> strudel::serve::ServeStats {
    let (data, query) = demo_site();
    let site = DynamicSite::new(&data, &query, EvalOptions::default()).unwrap();
    let server = Server::bind_with(site, "127.0.0.1:0", config).unwrap();
    with_client(&server, client);
    server.stats()
}

#[test]
fn keepalive_connection_serves_many_requests() {
    const N: usize = 6;
    let stats = with_server(ServerConfig::default(), |addr| {
        let mut s = TcpStream::connect(addr).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let mut carry = Vec::new();
        let mut first_body = None;
        for _ in 0..N {
            s.write_all(b"GET /page/FrontPage HTTP/1.1\r\nHost: x\r\n\r\n")
                .unwrap();
            let (head, body) = read_response(&mut s, &mut carry);
            assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
            assert!(head.contains("Connection: keep-alive"), "{head}");
            // Every answer over the reused connection is identical.
            assert_eq!(*first_body.get_or_insert_with(|| body.clone()), body);
        }
    });
    assert!(
        stats.keepalive_reuses >= (N - 1) as u64,
        "expected ≥{} reuses: {stats:?}",
        N - 1
    );
    assert!(stats.requests >= N as u64, "{stats:?}");
    assert_eq!(stats.errors, 0, "{stats:?}");
}

#[test]
fn pipelined_requests_are_answered_in_order() {
    // Mixed statuses prove ordering: a shuffled or dropped response would
    // put a 404 where a 200 belongs or change a body.
    let paths = ["/page/FrontPage", "/nope", "/", "/page/FrontPage", "/stats"];
    with_server(ServerConfig::default(), |addr| {
        let expected: Vec<String> = paths.iter().map(|p| fetch(addr, p)).collect();

        let mut s = TcpStream::connect(addr).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let burst: String = paths
            .iter()
            .map(|p| format!("GET {p} HTTP/1.1\r\nHost: x\r\n\r\n"))
            .collect();
        // One write: all five requests land in the server's buffers
        // together, well before the first response is computed.
        s.write_all(burst.as_bytes()).unwrap();

        let mut carry = Vec::new();
        for (p, exp) in paths.iter().zip(&expected) {
            let (head, body) = read_response(&mut s, &mut carry);
            let exp_status = exp.lines().next().unwrap();
            assert!(head.starts_with(exp_status), "{p}: {head}");
            if *p != "/stats" {
                // Stats bodies move between fetches; everything else is
                // byte-identical to its serial answer.
                let exp_body = exp.split_once("\r\n\r\n").unwrap().1;
                assert_eq!(body, exp_body, "{p}");
            }
        }
    });
}

#[test]
fn malformed_request_on_kept_alive_connection_fails_closed() {
    let stats = with_server(ServerConfig::default(), |addr| {
        let mut s = TcpStream::connect(addr).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let mut carry = Vec::new();
        for _ in 0..2 {
            s.write_all(b"GET / HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
            let (head, _) = read_response(&mut s, &mut carry);
            assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
        }

        // Garbage on the same connection: 400, then the server closes it
        // (the stream cannot be re-synchronized after a framing error).
        s.write_all(b"total garbage\r\n\r\n").unwrap();
        let mut rest = Vec::new();
        s.read_to_end(&mut rest).unwrap();
        let rest = String::from_utf8_lossy(&rest);
        assert!(rest.starts_with("HTTP/1.1 400"), "{rest}");
        assert!(rest.contains("Connection: close"), "{rest}");
    });
    assert!(stats.errors >= 1, "{stats:?}");
    assert!(stats.keepalive_reuses >= 1, "{stats:?}");
}

#[test]
fn admission_control_rejects_with_503_when_full() {
    let config = ServerConfig {
        max_connections: 2,
        ..ServerConfig::default()
    };
    let stats = with_server(config, |addr| {
        let mut hold = Vec::new();
        let mut carry = Vec::new();
        for _ in 0..2 {
            let mut s = TcpStream::connect(addr).unwrap();
            s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
            // One answered request pins the connection as admitted+idle.
            s.write_all(b"GET / HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
            let (head, _) = read_response(&mut s, &mut carry);
            assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
            hold.push(s);
        }
        // The third connection is over the cap: a static 503, then close.
        let mut s = TcpStream::connect(addr).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let mut resp = String::new();
        s.read_to_string(&mut resp).unwrap();
        assert!(resp.starts_with("HTTP/1.1 503"), "{resp}");
        assert!(resp.contains("Connection: close"), "{resp}");
        drop(hold); // frees slots so `/quit` can get in
        std::thread::sleep(Duration::from_millis(100));
    });
    assert!(stats.admission_rejected >= 1, "{stats:?}");
    // Admission rejections never reach the router: the two held requests
    // and `/quit` are the only requests, and the 503 is not an error.
    assert_eq!(stats.requests, 3, "{stats:?}");
    assert_eq!(stats.errors, 0, "{stats:?}");
}

#[test]
fn slow_loris_is_cut_by_the_whole_request_deadline() {
    let config = ServerConfig {
        threads: 2,
        request_timeout: Duration::from_millis(300),
        ..ServerConfig::default()
    };
    with_server(config, |addr| {
        let s = TcpStream::connect(addr).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let started = Instant::now();
        // One byte per 100ms: each read succeeds well inside any
        // per-read timeout, but the head never completes. The old
        // server reset its clock on every byte and dribbling kept a
        // worker forever; the whole-request deadline cuts at ~300ms.
        let writer = std::thread::spawn(move || {
            let mut w = s;
            for b in b"GET /page/FrontPage HT" {
                if w.write_all(&[*b]).is_err() {
                    break; // server hung up: exactly what we want
                }
                std::thread::sleep(Duration::from_millis(100));
            }
            let mut resp = String::new();
            let _ = w.read_to_string(&mut resp);
            resp
        });
        let resp = writer.join().unwrap();
        let elapsed = started.elapsed();
        assert!(resp.contains("408"), "{resp}");
        assert!(
            elapsed < Duration::from_millis(1500),
            "dribbling held the connection {elapsed:?}"
        );
    });
}

/// A kept-alive connection rests between requests on the same deadline a
/// request gets: served once, then silent past `request_timeout`, it is
/// closed with no bytes written (expiry between requests is normal
/// lifecycle, not a 408) and counts as neither an error nor an abort.
#[test]
fn idle_keepalive_connection_is_closed_silently_at_the_deadline() {
    let config = ServerConfig {
        threads: 2,
        request_timeout: Duration::from_millis(300),
        ..ServerConfig::default()
    };
    let stats = with_server(config, |addr| {
        let mut s = TcpStream::connect(addr).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let mut carry = Vec::new();
        s.write_all(b"GET / HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        let (head, _) = read_response(&mut s, &mut carry);
        assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
        assert!(head.contains("Connection: keep-alive"), "{head}");
        let rested = Instant::now();
        // Nothing more is sent: the server hangs up on its own.
        s.read_to_end(&mut carry).unwrap();
        let elapsed = rested.elapsed();
        assert!(
            carry.is_empty(),
            "silent close wrote {:?}",
            String::from_utf8_lossy(&carry)
        );
        assert!(
            elapsed >= Duration::from_millis(250) && elapsed < Duration::from_millis(1500),
            "idle connection closed after {elapsed:?}"
        );
    });
    assert_eq!(stats.errors, 0, "{stats:?}");
    assert_eq!(stats.connections_aborted, 0, "{stats:?}");
    assert_eq!(stats.requests, 2, "only `/` and `/quit` routed");
}

#[test]
fn head_requests_get_get_headers_without_body() {
    with_server(ServerConfig::default(), |addr| {
        let get = fetch(addr, "/page/FrontPage");
        let (get_head, get_body) = get.split_once("\r\n\r\n").unwrap();
        let get_len: usize = get_head
            .lines()
            .find_map(|l| l.strip_prefix("Content-Length: "))
            .unwrap()
            .parse()
            .unwrap();
        assert_eq!(get_body.len(), get_len);

        let mut s = TcpStream::connect(addr).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        s.write_all(b"HEAD /page/FrontPage HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n")
            .unwrap();
        let mut resp = String::new();
        s.read_to_string(&mut resp).unwrap();
        // The GET headers — status, type, and the GET body's length —
        // with no body following (it was a 405 before this fix).
        let (head, body) = resp.split_once("\r\n\r\n").unwrap();
        assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
        assert!(
            head.contains(&format!("Content-Length: {get_len}")),
            "{head}"
        );
        assert!(body.is_empty(), "HEAD must carry no body");
    });
}

#[test]
fn zero_byte_connections_are_aborts_not_errors() {
    let config = ServerConfig {
        threads: 2,
        ..ServerConfig::default()
    };
    let stats = with_server(config, |addr| {
        // Warm request so the error counter has a baseline of zero
        // alongside real traffic.
        assert!(fetch(addr, "/").contains("200 OK"));
        for _ in 0..3 {
            // Connect and close without sending a byte: the port-scan
            // shape. These used to be answered 400 and counted as
            // errors, skewing the error rate.
            let s = TcpStream::connect(addr).unwrap();
            drop(s);
        }
        std::thread::sleep(Duration::from_millis(200));
    });
    assert!(
        stats.connections_aborted >= 3,
        "{stats:?} should count the silent closes"
    );
    assert_eq!(stats.errors, 0, "aborts are not errors {stats:?}");
    assert_eq!(stats.requests, 2, "only `/` and `/quit` routed");
    assert_eq!(stats.accept_errors, 0, "{stats:?}");
}

/// A client may send its request and shut down its writing side at once
/// (`printf 'GET … HTTP/1.0\r\n\r\n' | nc`): the EOF that arrives with the
/// head is not a reason to throw the head away. This used to be answered
/// `400 Bad Request` whenever both were read in one wakeup.
#[test]
fn half_closed_requests_are_answered() {
    let stats = with_server(ServerConfig::default(), |addr| {
        for attempt in 0..50 {
            let mut s = TcpStream::connect(addr).unwrap();
            s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
            s.write_all(b"GET /page/FrontPage HTTP/1.0\r\n\r\n")
                .unwrap();
            s.shutdown(std::net::Shutdown::Write).unwrap();
            let mut resp = String::new();
            s.read_to_string(&mut resp).unwrap();
            assert!(resp.starts_with("HTTP/1.1 200 OK"), "{attempt}: {resp}");
            assert!(resp.contains("Story"), "{attempt}: {resp}");
        }
    });
    assert_eq!(stats.errors, 0, "{stats:?}");
}

/// One `write` of 5,000 pipelined requests for a cached page: answered
/// completely, in order, byte-identical to the serial answer — by a loop
/// that runs on a 256 KB stack (`with_client`), so one frame per buffered
/// request would overflow it — and not at the expense of a second
/// connection, because every so often a request of the burst goes through
/// the worker pool and waits its turn behind the poller.
#[test]
fn pipelined_burst_of_cached_pages_is_answered_without_starving_others() {
    const BURST: usize = 5_000;
    const REQUEST: &[u8] = b"GET /page/FrontPage HTTP/1.1\r\nHost: x\r\n\r\n";
    let stats = with_server(ServerConfig::default(), |addr| {
        let mut serial = TcpStream::connect(addr).unwrap();
        serial
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let mut carry = Vec::new();
        serial.write_all(REQUEST).unwrap();
        read_response(&mut serial, &mut carry); // cold
        serial.write_all(REQUEST).unwrap();
        let expected = read_response(&mut serial, &mut carry);
        assert!(expected.0.starts_with("HTTP/1.1 200 OK"), "{expected:?}");

        let mut s = TcpStream::connect(addr).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(20))).unwrap();
        let mut writer = s.try_clone().unwrap();
        // Written from a thread of its own: the burst is larger than the
        // socket buffers, so the write ends only once answers are read.
        let writing = std::thread::spawn(move || writer.write_all(&REQUEST.repeat(BURST)));
        // The other connection is served while the burst is in progress.
        serial.write_all(REQUEST).unwrap();
        assert_eq!(read_response(&mut serial, &mut carry), expected);
        let mut carry = Vec::new();
        for i in 0..BURST {
            assert_eq!(read_response(&mut s, &mut carry), expected, "answer {i}");
        }
        writing.join().unwrap().unwrap();
        assert!(carry.is_empty(), "bytes past the last answer");
    });
    assert_eq!(stats.errors, 0, "{stats:?}");
    // The cold request, `/quit`, and the burst's turns through the pool.
    assert!(stats.requests_dispatched >= 100, "{stats:?}");
    assert!(
        stats.requests_inline >= (BURST - BURST / 20) as u64,
        "{stats:?}"
    );
}

/// Which path answers is counted, so it can be asserted: a page whose every
/// clause is cached is answered by the loop, anything else by a worker, and
/// a page with one clause cached and one not is declined whole — the worker
/// that takes it does the whole accounting, once.
#[test]
fn hits_are_answered_on_the_loop() {
    use strudel::site::CacheConfig;
    const N: u64 = 20;
    let (data, _) = demo_site();
    // `Page(a)` has two link clauses.
    let query = strudel::struql::parse_query(
        r#"CREATE Root()
           { WHERE Articles(a), a -> "headline" -> h
             CREATE Page(a)
             LINK Page(a) -> "Headline" -> h, Page(a) -> "Up" -> Root(),
                  Root() -> "Story" -> Page(a) }"#,
    )
    .unwrap();
    let site = |max_entries| {
        let cache = CacheConfig {
            max_entries,
            ..CacheConfig::default()
        };
        DynamicSite::with_cache(&data, &query, EvalOptions::default(), cache).unwrap()
    };
    let page = strudel::site::PageRef {
        skolem: "Page".into(),
        args: vec![strudel::graph::Value::Node(data.nodes()[0])],
    };
    // A cache with room for one entry keeps the second clause of `page`;
    // carried into a roomy cache that is a page half cached.
    let half = site(1);
    assert_eq!(half.expand(&page).unwrap().len(), 2);
    let served = site(usize::MAX);
    served.cache_restore(half.cache_snapshot());
    assert_eq!(served.cache_len(), 1);

    let server = Server::bind(served, "127.0.0.1:0").unwrap();
    // A request with `Connection: close` is counted before the close that
    // the client waits for, so the counters below are settled when read.
    let get = |addr, path: &str| {
        let before = (server.stats(), server.site().stats());
        assert!(fetch(addr, path).starts_with("HTTP/1.1 200 OK"), "{path}");
        let (serve, site) = (server.stats(), server.site().stats());
        (
            serve.requests_inline - before.0.requests_inline,
            serve.requests_dispatched - before.0.requests_dispatched,
            site.cache_hits - before.1.cache_hits,
            site.cache_misses - before.1.cache_misses,
        )
    };
    with_client(&server, |addr| {
        let half_cached = strudel::serve::page_url(&page);
        // (inline, dispatched, clause hits, clause misses)
        assert_eq!(get(addr, "/page/Root"), (0, 1, 0, 1), "cold");
        assert_eq!(get(addr, "/page/Root"), (1, 0, 1, 0), "warm");
        assert_eq!(get(addr, &half_cached), (0, 1, 1, 1), "half cached");
        assert_eq!(get(addr, &half_cached), (1, 0, 2, 0), "then whole");
        assert_eq!(get(addr, "/stats"), (0, 1, 0, 0), "not a page");

        let before = server.stats();
        let mut s = TcpStream::connect(addr).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let mut carry = Vec::new();
        for _ in 0..N {
            s.write_all(b"GET /page/Root HTTP/1.1\r\nHost: x\r\n\r\n")
                .unwrap();
            let (head, _) = read_response(&mut s, &mut carry);
            assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
        }
        // The loop's own 400 closes the connection, after the count.
        s.write_all(b"garbage\r\n\r\n").unwrap();
        let mut rest = String::new();
        s.read_to_string(&mut rest).unwrap();
        assert!(rest.starts_with("HTTP/1.1 400"), "{rest}");
        let after = server.stats();
        assert_eq!(after.requests_inline - before.requests_inline, N);
        assert_eq!(after.requests_dispatched, before.requests_dispatched);
        assert_eq!(after.requests - before.requests, N + 1);
    });
    let stats = server.stats();
    assert_eq!(
        stats.requests,
        stats.requests_inline + stats.requests_dispatched + 1,
        "{stats:?}"
    );
}

/// `/metrics` over a live server: well-formed Prometheus text
/// exposition whose counters agree with the traffic just sent, and
/// with the `/stats` JSON beside it.
#[test]
fn metrics_endpoint_serves_prometheus_text() {
    let (data, query) = demo_site();
    let site = DynamicSite::new(&data, &query, EvalOptions::default()).unwrap();
    let server = Server::bind(site, "127.0.0.1:0").unwrap();

    with_client(&server, |addr| {
        assert!(fetch(addr, "/page/FrontPage").contains("Story"));
        assert!(fetch(addr, "/page/FrontPage").contains("Story")); // cache hit
        assert!(fetch(addr, "/nope").contains("404"));

        let resp = fetch(addr, "/metrics");
        let (head, body) = resp.split_once("\r\n\r\n").expect("framed response");
        assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
        assert!(
            head.contains("Content-Type: text/plain; version=0.0.4"),
            "{head}"
        );

        // Every declared signal is in both endpoints, at its key path and at
        // its family with the declared type and help.
        let stats = fetch(addr, "/stats");
        assert!(stats.contains("Content-Type: application/json"), "{stats}");
        let (_, json) = stats.split_once("\r\n\r\n").expect("framed response");
        let doc = strudel::obs::json::parse(json).expect("valid /stats JSON");
        let at = |doc: &strudel::obs::json::Value, key: &str| {
            key.split('.').try_fold(doc, |v, part| v.get(part)).cloned()
        };
        let scrape = server.scrape();
        assert!(scrape.samples().len() > 60, "the whole declaration");
        for s in scrape.samples() {
            assert!(!s.key.is_empty() || !s.family.is_empty(), "{s:?}");
            if !s.key.is_empty() {
                assert!(at(&doc, s.key).is_some(), "{} in {json}", s.key);
            }
            if !s.family.is_empty() {
                let (family, help) = (s.family, s.help);
                let kind = s.reading.prom_type().expect("a /metrics form");
                assert!(body.contains(&format!("# HELP {family} {help}\n")), "{s:?}");
                assert!(body.contains(&format!("# TYPE {family} {kind}\n")), "{s:?}");
            }
        }

        // A name is an operator-facing surface: the set of `family type`
        // pairs is pinned, so renaming, retyping, adding or dropping a family
        // is a deliberate act that edits this digest. It is the set served
        // before signals were declared in tables plus
        // `strudel_loop_wakeups_total counter` and the store's
        // `strudel_store_materializations_total counter`,
        // `strudel_store_materialized_edges_total counter`,
        // `strudel_store_segments_decoded_total counter` and
        // `strudel_store_segments_corrupt_total counter`, less the group
        // commit's `strudel_wal_group_commits_total counter` and
        // `strudel_wal_group_commit_txns_total counter`.
        let mut families: Vec<&str> = body
            .lines()
            .filter_map(|l| l.strip_prefix("# TYPE "))
            .collect();
        families.sort_unstable();
        assert_eq!(families.len(), 63, "{families:#?}");
        assert_eq!(
            fnv1a(families.join("\n").as_bytes()),
            FAMILIES_DIGEST,
            "{families:#?}"
        );

        // One scrape renders both documents, so on every row that has a
        // number on both sides the two say the same thing.
        let own = strudel::obs::json::parse(&scrape.to_json()).expect("valid JSON");
        let text = scrape.to_prometheus();
        let mut compared = 0;
        for s in scrape.samples() {
            use strudel::obs::Reading::{Counter, Flag, Gauge};
            let want = match s.reading {
                Counter(n) | Gauge(n) => n as f64,
                Flag(on) => f64::from(u8::from(on)),
                _ => continue,
            };
            if s.key.is_empty() || s.family.is_empty() {
                continue;
            }
            let in_stats = match at(&own, s.key).expect(s.key) {
                strudel::obs::json::Value::Bool(on) => f64::from(u8::from(on)),
                other => other.as_f64().expect(s.key),
            };
            let in_metrics: f64 = text
                .lines()
                .find_map(|l| l.strip_prefix(s.family)?.strip_prefix(' '))
                .expect(s.family)
                .parse()
                .unwrap();
            assert_eq!((in_stats, in_metrics), (want, want), "{s:?}");
            compared += 1;
        }
        assert!(compared > 50, "{compared}");

        // Exposition is line-structured: every non-comment line is
        // `name[{labels}] value` with a legal metric name and a value
        // that parses.
        for line in body.lines().filter(|l| !l.starts_with('#')) {
            let (lhs, value) = line.rsplit_once(' ').expect(line);
            let name = lhs.split('{').next().unwrap();
            assert!(strudel::obs::valid_metric_name(name), "{line}");
            value.parse::<f64>().expect(line);
        }

        // Histogram shape: cumulative buckets ending at +Inf, matching
        // the _count; at least the four requests above are in it.
        let inf: u64 = body
            .lines()
            .find(|l| l.contains("_bucket{le=\"+Inf\"}"))
            .and_then(|l| l.rsplit(' ').next())
            .unwrap()
            .parse()
            .unwrap();
        let count: u64 = body
            .lines()
            .find(|l| l.starts_with("strudel_request_duration_seconds_count"))
            .and_then(|l| l.rsplit(' ').next())
            .unwrap()
            .parse()
            .unwrap();
        assert_eq!(inf, count);
        assert!(count >= 3, "{count}");

        // Counters agree with the traffic: 2 expansions of the same
        // page → ≥1 page-cache hit; the 404 shows as an error.
        let value_of = |name: &str| -> f64 {
            body.lines()
                .find(|l| l.starts_with(name) && !l.starts_with('#'))
                .and_then(|l| l.rsplit(' ').next())
                .unwrap()
                .parse()
                .unwrap()
        };
        assert!(value_of("strudel_page_cache_hits_total") >= 1.0);
        assert!(value_of("strudel_request_errors_total") >= 1.0);

        // The two endpoints read the same counters: what `/stats` says about
        // the settled traffic above is what `/metrics` said. Click-time
        // evaluation has no worker count, so neither endpoint reports one.
        let stat = |path: &[&str]| -> f64 {
            path.iter()
                .try_fold(&doc, |v, key| v.get(key))
                .and_then(|v| v.as_f64())
                .unwrap_or_else(|| panic!("{path:?} in {json}"))
        };
        for (path, family) in [
            (&["threads"][..], "strudel_worker_threads"),
            (&["errors"][..], "strudel_request_errors_total"),
            (&["requests_inline"][..], "strudel_requests_inline_total"),
            (&["cache", "hits"][..], "strudel_page_cache_hits_total"),
            (&["cache", "misses"][..], "strudel_page_cache_misses_total"),
            (&["cache", "entries"][..], "strudel_page_cache_entries"),
        ] {
            assert_eq!(stat(path), value_of(family), "{path:?} vs {family}");
        }
        assert!(doc.get("jobs").is_none(), "{json}");
        assert!(!body.contains("jobs"), "{body}");
    });
}

/// The signal catalog in docs/OBSERVABILITY.md is the declaration, row for
/// row: a signal added, renamed or re-described in its owner's table fails
/// here until the document says the same (the message is the table to
/// paste), and a row the document invents fails likewise.
#[test]
fn signal_catalog_in_the_docs_is_the_declaration() {
    let (data, query) = demo_site();
    let site = DynamicSite::new(&data, &query, EvalOptions::default()).unwrap();
    let server = Server::bind(site, "127.0.0.1:0").unwrap();
    let cell = |name: &str| match name {
        "" => "—".to_string(),
        name => format!("`{name}`"),
    };
    let declared: Vec<String> = server
        .scrape()
        .samples()
        .iter()
        .map(|s| {
            let kind = match s.family {
                "" => "—",
                _ => s.reading.prom_type().expect("a /metrics form"),
            };
            let (key, family) = (cell(s.key), cell(s.family));
            format!("| {key} | {family} | {kind} | {} |", s.help)
        })
        .collect();
    let documented: Vec<&str> = include_str!("../docs/OBSERVABILITY.md")
        .lines()
        .skip_while(|l| !l.starts_with("| `/stats` key | `/metrics` family |"))
        .skip(2)
        .take_while(|l| l.starts_with('|'))
        .collect();
    let table = declared.join("\n");
    assert!(
        documented == declared,
        "the catalog should read:\n{table}\n"
    );
}

/// What is owned by a server instance is counted per instance: two servers
/// in one process, different traffic, and each `/stats` reports its own
/// `requests` and `cache.*`.
#[test]
fn two_servers_in_one_process_keep_separate_numbers() {
    let (data, query) = demo_site();
    let bind = || {
        let site = DynamicSite::new(&data, &query, EvalOptions::default()).unwrap();
        Server::bind(site, "127.0.0.1:0").unwrap()
    };
    let (busy, quiet) = (bind(), bind());
    let numbers = |addr| {
        let stats = fetch(addr, "/stats");
        let (_, json) = stats.split_once("\r\n\r\n").expect("framed response");
        let doc = strudel::obs::json::parse(json).expect("valid /stats JSON");
        let cache = doc.get("cache").expect("cache block");
        ["hits", "misses", "entries"]
            .map(|key| cache.get(key).and_then(|v| v.as_f64()).expect(key))
            .into_iter()
            .chain(doc.get("requests").and_then(|v| v.as_f64()))
            .collect::<Vec<f64>>()
    };
    with_client(&busy, |busy_addr| {
        with_client(&quiet, |quiet_addr| {
            for _miss_then_hits in 0..3 {
                assert!(fetch(busy_addr, "/page/FrontPage").contains("Story"));
            }
            assert!(fetch(quiet_addr, "/").contains("FrontPage"));
            // (cache hits, misses, entries, requests): the `/stats` request
            // itself is counted once it is written.
            assert_eq!(numbers(busy_addr), [2.0, 1.0, 1.0, 3.0]);
            assert_eq!(numbers(quiet_addr), [0.0, 0.0, 0.0, 1.0]);
        });
    });
}

/// A request that is with a worker costs the loop nothing, whatever its
/// peer does meanwhile. The poller is level-triggered: a connection left
/// registered while its page evaluates reports its peer's half-close on
/// every `wait`, and the loop used to spin — thousands of wake-ups — for as
/// long as the evaluation ran.
#[test]
fn half_closed_peer_does_not_spin_the_loop() {
    const EVALUATION: Duration = Duration::from_millis(60);
    let (data, _) = demo_site();
    let mut options = EvalOptions::default();
    options.predicates.register("slow", 1, |_| {
        std::thread::sleep(EVALUATION);
        true
    });
    let query = strudel::struql::parse_query(
        r#"CREATE Root()
           { WHERE Articles(a), a -> "headline" -> h, slow(h)
             LINK Root() -> "Headline" -> h }"#,
    )
    .unwrap();
    let site = DynamicSite::new(&data, &query, options).unwrap();
    let server = Server::bind(site, "127.0.0.1:0").unwrap();
    with_client(&server, |addr| {
        for peer in ["shuts down its write side", "is dropped"] {
            server.site().cache_clear();
            let before = server.stats();
            let started = Instant::now();
            let mut s = TcpStream::connect(addr).unwrap();
            s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
            s.write_all(b"GET /page/Root HTTP/1.0\r\n\r\n").unwrap();
            if peer == "is dropped" {
                drop(s);
            } else {
                s.shutdown(std::net::Shutdown::Write).unwrap();
                let mut resp = String::new();
                s.read_to_string(&mut resp).unwrap();
                assert!(resp.starts_with("HTTP/1.1 200 OK"), "{peer}: {resp}");
                assert!(resp.contains("one") && resp.contains("two"), "{resp}");
            }
            // Counted once the answer is written (or found unwritable).
            while server.stats().requests == before.requests {
                std::thread::sleep(Duration::from_millis(2));
            }
            assert!(started.elapsed() >= EVALUATION, "the page was evaluated");
            let woken = server.stats().loop_wakeups - before.loop_wakeups;
            assert!(woken <= 16, "peer {peer}: {woken} loop wake-ups");
        }
    });
}

/// [`fnv1a`] of the sorted `family type` lines of `/metrics`, joined by
/// newlines.
const FAMILIES_DIGEST: u64 = 0x76b4_ce88_21dc_4645;

/// FNV-1a, 64 bits: a digest that does not depend on the toolchain.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn hub_page_bodies_are_pinned() {
    use strudel::site::PageRef;
    use strudel::synth::news;

    // Length and digest of each hub page's body over a 600-article news
    // site, recorded from the quadratic, `format!`-per-link click path this
    // one replaced: same graph, same cache state, same bytes.
    const PINNED: [(&str, usize, u64); 8] = [
        ("/page/FrontPage", 5927, 0xb252a777ef2a337c),
        ("/page/SectionPage/sworld", 9983, 0xc0237d4c8577d3ac),
        ("/page/SectionPage/sus", 9443, 0xb392b0a3935f1a80),
        ("/page/SectionPage/spolitics", 9817, 0xf06b2a255ff79a1d),
        ("/page/SectionPage/ssports", 8934, 0x924dde4279b4d190),
        ("/page/SectionPage/sbusiness", 6259, 0x0ed8eac03119dd7b),
        ("/page/SectionPage/stech", 9985, 0x2df2d2a6265fd90c),
        ("/page/SectionPage/sweather", 10533, 0xb775a727b4402068),
    ];

    let data = strudel::graph::ddl::parse(&news::generate_ddl(600, 14)).unwrap();
    let query = strudel::struql::parse_query(news::SITE_QUERY).unwrap();
    let site = DynamicSite::new(&data, &query, EvalOptions::default()).unwrap();
    let server = Server::bind_with(site, "127.0.0.1:0", ServerConfig::default()).unwrap();
    let front = PageRef {
        skolem: "FrontPage".into(),
        args: Vec::new(),
    };
    let sections = news::SECTIONS.iter().map(|s| PageRef {
        skolem: "SectionPage".into(),
        args: vec![strudel::graph::Value::str(*s)],
    });
    let urls: Vec<String> = std::iter::once(front)
        .chain(sections)
        .map(|p| strudel::serve::page_url(&p))
        .collect();
    with_client(&server, |addr| {
        // Cold, then from the page cache.
        for pass in ["cold", "warm"] {
            for (url, pinned) in urls.iter().zip(PINNED) {
                let response = fetch(addr, url);
                let (head, body) = response.split_once("\r\n\r\n").unwrap();
                assert!(head.starts_with("HTTP/1.1 200 OK"), "{url}: {head}");
                let got = (url.as_str(), body.len(), fnv1a(body.as_bytes()));
                assert_eq!(got, pinned, "{pass}: {got:#x?}");
            }
        }
    });
}
