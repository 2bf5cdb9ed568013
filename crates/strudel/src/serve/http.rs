//! HTTP/1.1 framing: incremental request-head parsing and response
//! encoding.
//!
//! [`parse_request`] is a pure function of a byte-buffer prefix: the event
//! loop calls it on a connection's read buffer after every readiness
//! wakeup, and a head split across arbitrary TCP segment boundaries parses
//! identically to an unsplit one (property tested). Only heads matter:
//! requests with bodies are refused, which keeps pipelined framing trivial
//! (the next request begins right after `\r\n\r\n`).

use std::time::Duration;

/// Content types the server emits.
pub(crate) const CT_HTML: &str = "text/html; charset=utf-8";
pub(crate) const CT_JSON: &str = "application/json";
pub(crate) const CT_TEXT: &str = "text/plain; charset=utf-8";
/// The Prometheus text exposition format, version 0.0.4.
pub(crate) const CT_PROM: &str = "text/plain; version=0.0.4; charset=utf-8";

/// Request methods the router distinguishes. `HEAD` gets the `GET`
/// headers with no body (RFC 9110 §9.3.2); everything else is 405.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Method {
    Get,
    Head,
    Other,
}

/// One parsed request head.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct Request {
    pub method: Method,
    pub path: String,
    /// Whether the connection may serve another request after this one:
    /// HTTP/1.1 unless `Connection: close`; HTTP/1.0 only with an explicit
    /// `Connection: keep-alive`.
    pub keep_alive: bool,
    /// Whether the head announces a body (`Content-Length` > 0 or any
    /// `Transfer-Encoding`). The server refuses those with 400 rather than
    /// desynchronizing the connection framing.
    pub has_body: bool,
}

/// Outcome of [`parse_request`] on a buffer prefix.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) enum Parsed {
    /// No complete head yet; read more bytes and try again.
    Incomplete,
    /// A complete head arrived but its request line or framing headers are
    /// garbage. The connection cannot be re-synchronized.
    Malformed,
    /// A complete request head; `.1` is how many bytes it consumed
    /// (including the `\r\n\r\n`), so pipelined successors start there.
    Request(Request, usize),
}

/// Index of the `\r\n\r\n` head terminator, if present.
pub(crate) fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// Parses the request line of a head. Returns `(method, path, version)`.
fn parse_request_line(line: &str) -> Option<(&str, &str, &str)> {
    let mut it = line.split(' ');
    let (method, path, version) = (it.next()?, it.next()?, it.next()?);
    if method.is_empty() || !path.starts_with('/') || !version.starts_with("HTTP/") {
        return None;
    }
    Some((method, path, version))
}

/// Parses one request head off the front of `buf`. Pure: feeding the same
/// prefix always yields the same outcome, regardless of how the bytes
/// arrived.
pub(crate) fn parse_request(buf: &[u8]) -> Parsed {
    let Some(end) = find_head_end(buf) else {
        return Parsed::Incomplete;
    };
    let consumed = end + 4;
    let head = String::from_utf8_lossy(&buf[..end]);
    let mut lines = head.lines();
    let Some((method, path, version)) = lines.next().and_then(parse_request_line) else {
        return Parsed::Malformed;
    };
    let method = match method {
        "GET" => Method::Get,
        "HEAD" => Method::Head,
        _ => Method::Other,
    };
    let http10 = version == "HTTP/1.0";
    let mut keep_alive = !http10;
    let mut has_body = false;
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            continue; // tolerate junk header lines; framing needs only these
        };
        let value = value.trim();
        if name.eq_ignore_ascii_case("connection") {
            for token in value.split(',') {
                let token = token.trim();
                if token.eq_ignore_ascii_case("close") {
                    keep_alive = false;
                } else if token.eq_ignore_ascii_case("keep-alive") && http10 {
                    keep_alive = true;
                }
            }
        } else if name.eq_ignore_ascii_case("content-length") {
            match value.parse::<u64>() {
                Ok(n) => has_body |= n > 0,
                Err(_) => return Parsed::Malformed,
            }
        } else if name.eq_ignore_ascii_case("transfer-encoding") {
            has_body = true;
        }
    }
    Parsed::Request(
        Request {
            method,
            path: path.to_string(),
            keep_alive,
            has_body,
        },
        consumed,
    )
}

/// Serializes one response onto the end of `out` — a connection's write
/// buffer, whose allocation outlives the response. With `head_only` (a
/// `HEAD` answer) the headers — including the `Content-Length` the matching
/// `GET` would carry — are emitted without the body.
pub(crate) fn encode_response(
    out: &mut Vec<u8>,
    status: &str,
    content_type: &str,
    body: &str,
    keep_alive: bool,
    head_only: bool,
) {
    use std::io::Write;
    let connection = if keep_alive { "keep-alive" } else { "close" };
    write!(
        out,
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: {connection}\r\n\r\n",
        body.len()
    )
    .expect("writing to a Vec cannot fail");
    if !head_only {
        out.extend_from_slice(body.as_bytes());
    }
}

/// A loop-generated error (4xx, or admission control's 503): a one-line
/// HTML body, `Connection: close`. Computed without touching the router.
pub(crate) fn encode_error(out: &mut Vec<u8>, status: &str, what: &str) {
    let body = format!("<html><body>{what}</body></html>");
    encode_response(out, status, CT_HTML, &body, false, false);
}

/// Exponential backoff for persistent `accept` errors (EMFILE, ENFILE,
/// ENOMEM…). The old acceptor ignored errors outright and re-entered
/// `accept` immediately — under fd exhaustion that is a 100%-CPU busy spin
/// that also starves the workers. Each consecutive error doubles the pause
/// (1ms → 256ms cap); one successful accept resets it.
#[derive(Default, Debug)]
pub(crate) struct AcceptBackoff {
    consecutive: u32,
}

impl AcceptBackoff {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Records one accept error and returns how long to pause accepting.
    pub(crate) fn on_error(&mut self) -> Duration {
        self.consecutive = self.consecutive.saturating_add(1);
        Duration::from_millis(1 << (self.consecutive - 1).min(8))
    }

    /// Records a successful accept, ending any backoff.
    pub(crate) fn on_success(&mut self) {
        self.consecutive = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_head_framing() {
        assert_eq!(find_head_end(b"GET / HTTP/1.1\r\n\r\n"), Some(14));
        assert_eq!(find_head_end(b"GET / HTTP/1.1\r\n"), None);
        assert_eq!(
            parse_request(b"GET /x HTTP/1.1\r\nHost: h"),
            Parsed::Incomplete
        );
        let Parsed::Request(req, consumed) =
            parse_request(b"GET /x HTTP/1.1\r\nHost: h\r\n\r\nGET /next")
        else {
            panic!("complete head must parse");
        };
        assert_eq!(consumed, 28); // the pipelined `GET /next` is untouched
        assert_eq!(req.method, Method::Get);
        assert_eq!(req.path, "/x");
        assert!(req.keep_alive);
        assert!(!req.has_body);
        assert_eq!(parse_request(b"GET /x\r\n\r\n"), Parsed::Malformed);
        assert_eq!(parse_request(b"GET x HTTP/1.1\r\n\r\n"), Parsed::Malformed);
        assert_eq!(parse_request(b"\r\n\r\n"), Parsed::Malformed);
    }

    #[test]
    fn connection_semantics_follow_the_http_version() {
        let parse = |head: &str| match parse_request(head.as_bytes()) {
            Parsed::Request(r, _) => r,
            other => panic!("{head:?} -> {other:?}"),
        };
        assert!(parse("GET / HTTP/1.1\r\n\r\n").keep_alive);
        assert!(!parse("GET / HTTP/1.1\r\nConnection: close\r\n\r\n").keep_alive);
        assert!(!parse("GET / HTTP/1.1\r\nConnection: Close\r\n\r\n").keep_alive);
        assert!(!parse("GET / HTTP/1.0\r\n\r\n").keep_alive);
        assert!(parse("GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n").keep_alive);
        assert!(!parse("GET / HTTP/1.1\r\nConnection: upgrade, close\r\n\r\n").keep_alive);
    }

    #[test]
    fn bodies_and_methods_are_recognized() {
        let parse = |head: &str| match parse_request(head.as_bytes()) {
            Parsed::Request(r, _) => r,
            other => panic!("{head:?} -> {other:?}"),
        };
        assert_eq!(parse("HEAD /x HTTP/1.1\r\n\r\n").method, Method::Head);
        assert_eq!(parse("DELETE /x HTTP/1.1\r\n\r\n").method, Method::Other);
        assert!(!parse("GET / HTTP/1.1\r\nContent-Length: 0\r\n\r\n").has_body);
        assert!(parse("POST / HTTP/1.1\r\nContent-Length: 5\r\n\r\n").has_body);
        assert!(parse("GET / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n").has_body);
        assert_eq!(
            parse_request(b"GET / HTTP/1.1\r\nContent-Length: zap\r\n\r\n"),
            Parsed::Malformed
        );
    }

    #[test]
    fn responses_frame_head_only_answers() {
        let encode = |body, keep_alive, head_only| {
            let mut out = Vec::new();
            encode_response(&mut out, "200 OK", CT_HTML, body, keep_alive, head_only);
            String::from_utf8(out).unwrap()
        };
        let (full, head) = (encode("abc", true, false), encode("abc", true, true));
        assert!(full.ends_with("\r\n\r\nabc"), "{full}");
        assert!(head.ends_with("\r\n\r\n"), "{head}");
        // Identical headers: a HEAD answer advertises the GET body length.
        assert_eq!(full.strip_suffix("abc").unwrap(), head);
        assert!(head.contains("Content-Length: 3\r\n"), "{head}");
        assert!(head.contains("Connection: keep-alive\r\n"), "{head}");
        let closing = encode("x", false, false);
        assert!(closing.contains("Connection: close\r\n"), "{closing}");
    }

    use proptest::prelude::*;

    proptest! {
        /// The parser is a pure function of the buffer prefix: a request
        /// head split into TCP segments at ANY boundaries must parse to
        /// exactly what the unsplit byte stream parses to, and must stay
        /// `Incomplete` (never guess) until the terminator has arrived.
        #[test]
        fn split_byte_streams_parse_identically(
            method in "[A-Z]{2,6}",
            path in prop_oneof!["/[a-zA-Z0-9/%.]{0,16}", "[a-z]{1,8}"],
            http10 in any::<bool>(),
            headers in proptest::collection::vec(("[A-Za-z-]{1,12}", "[ -~]{0,16}"), 0..4),
            tail in "[ -~]{0,10}",
            cuts in proptest::collection::vec(0usize..256, 0..6),
        ) {
            let mut head = format!(
                "{method} {path} HTTP/1.{}\r\n",
                if http10 { '0' } else { '1' }
            );
            for (name, value) in &headers {
                head.push_str(&format!("{name}: {value}\r\n"));
            }
            head.push_str("\r\n");
            head.push_str(&tail); // pipelined successor bytes
            let bytes = head.as_bytes();
            let whole = parse_request(bytes);

            // Feed the same bytes in segments cut at arbitrary positions,
            // reparsing the accumulated buffer after each segment, exactly
            // as the event loop does after each readiness wakeup.
            let mut positions: Vec<usize> = cuts.iter().map(|c| c % (bytes.len() + 1)).collect();
            positions.push(bytes.len());
            positions.sort_unstable();
            let mut buf: Vec<u8> = Vec::new();
            let mut last = 0;
            let mut incremental = Parsed::Incomplete;
            for p in positions {
                buf.extend_from_slice(&bytes[last..p]);
                last = p;
                match parse_request(&buf) {
                    Parsed::Incomplete => {
                        // No complete terminator may be buffered yet.
                        prop_assert!(find_head_end(&buf).is_none());
                    }
                    done => {
                        incremental = done;
                        break;
                    }
                }
            }
            prop_assert_eq!(incremental, whole);
        }
    }

    #[test]
    fn accept_backoff_grows_and_resets() {
        let mut b = AcceptBackoff::new();
        let first = b.on_error();
        let second = b.on_error();
        let third = b.on_error();
        assert_eq!(first, Duration::from_millis(1));
        assert_eq!(second, Duration::from_millis(2));
        assert_eq!(third, Duration::from_millis(4));
        // The pause is capped: persistent failure must not back off into
        // unresponsiveness, only out of the busy spin.
        let mut capped = Duration::ZERO;
        for _ in 0..64 {
            capped = b.on_error();
        }
        assert_eq!(capped, Duration::from_millis(256));
        b.on_success();
        assert_eq!(b.on_error(), Duration::from_millis(1));
    }
}
