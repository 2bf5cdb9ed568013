//! Regression tests for the event-driven serving tier: keep-alive reuse,
//! pipelining order, connection-layer bugfixes (slow-loris deadline, idle
//! close, HEAD answers, zero-byte aborts, admission control).

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
