//! The HTTP client side of the benchmark: a response framer, a keep-alive
//! connection, and the closed-loop and open-loop traffic generators.

use crate::stats::{Picker, Rng};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// What the head of a response says about the bytes that follow it.
#[derive(Debug, PartialEq, Eq, Clone, Copy)]
pub struct Head {
    /// Bytes up to and including the blank line.
    pub len: usize,
    pub status: u16,
    pub content_length: usize,
}

/// Frames one response head out of the bytes read so far: `Ok(None)` while
/// the blank line has not arrived, `Err` when the head is not one this
/// client can delimit (no status, or no `Content-Length`).
pub fn parse_head(buf: &[u8]) -> Result<Option<Head>, &'static str> {
    let Some(end) = buf.windows(4).position(|w| w == b"\r\n\r\n") else {
        return Ok(None);
    };
    let head = std::str::from_utf8(&buf[..end]).map_err(|_| "head is not UTF-8")?;
    let mut lines = head.split("\r\n");
    let status = lines
        .next()
        .and_then(|l| l.strip_prefix("HTTP/1."))
        .and_then(|l| l.split(' ').nth(1))
        .and_then(|s| s.parse().ok())
        .ok_or("no status line")?;
    let content_length = lines
        .filter_map(|l| l.split_once(':'))
        .find(|(k, _)| k.eq_ignore_ascii_case("content-length"))
        .and_then(|(_, v)| v.trim().parse().ok())
        .ok_or("no Content-Length")?;
    Ok(Some(Head {
        len: end + 4,
        status,
        content_length,
    }))
}

/// One keep-alive connection. Responses are read whole, by their
/// `Content-Length`, never to end-of-stream.
pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Conn {
    pub fn open(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(20)))?;
        stream.set_write_timeout(Some(Duration::from_secs(20)))?;
        Ok(Conn {
            stream,
            buf: Vec::with_capacity(16 * 1024),
        })
    }

    /// Sends `GET path` and returns the status and body of the answer. A
    /// stream that ends before `Content-Length` bytes arrived is an error.
    pub fn get(&mut self, path: &str) -> io::Result<(u16, &[u8])> {
        let request = format!("GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n");
        self.stream.write_all(request.as_bytes())?;
        self.buf.clear();
        let mut chunk = [0u8; 16 * 1024];
        let head = loop {
            let bad = |m: &str| io::Error::new(io::ErrorKind::InvalidData, m.to_string());
            match parse_head(&self.buf).map_err(bad)? {
                Some(h) if self.buf.len() >= h.len + h.content_length => break h,
                _ => {}
            }
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "response ended short of its Content-Length",
                ));
            }
            self.buf.extend_from_slice(&chunk[..n]);
        };
        Ok((
            head.status,
            &self.buf[head.len..head.len + head.content_length],
        ))
    }
}

/// A page the traffic phases may request, and the text its body must hold
/// (see [`contains`]).
#[derive(Clone)]
pub struct Page {
    pub url: String,
    pub needle: String,
}

/// `GET`s one page and checks the answer: status 200 and a complete body
/// containing the page's needle. Returns the body length when it verifies.
pub fn verified_get(conn: &mut Conn, page: &Page) -> Option<usize> {
    match conn.get(&page.url) {
        Ok((200, body)) if contains(body, page.needle.as_bytes()) => Some(body.len()),
        _ => None,
    }
}

/// Whether `haystack` holds `needle` not followed by a digit: needles end
/// in a number ("… update no. 7"), which must not match a longer one
/// ("… update no. 71"), whatever markup the page puts around it.
pub fn contains(haystack: &[u8], needle: &[u8]) -> bool {
    haystack.windows(needle.len()).enumerate().any(|(i, w)| {
        w == needle
            && !haystack
                .get(i + needle.len())
                .is_some_and(u8::is_ascii_digit)
    })
}

/// What one traffic phase observed, summed over its connections.
#[derive(Default)]
pub struct Traffic {
    pub ok: u64,
    pub failed: u64,
    /// Client-side latency of each verified request, µs.
    pub latency_us: Vec<f64>,
    /// Open loop only: requests sent more than [`LATE`] after they were due.
    pub late: u64,
    pub wall: Duration,
    pub body_bytes: u64,
}

impl Traffic {
    fn merge(&mut self, other: Traffic) {
        self.ok += other.ok;
        self.failed += other.failed;
        self.latency_us.extend(other.latency_us);
        self.late += other.late;
        self.body_bytes += other.body_bytes;
    }

    pub fn attempted(&self) -> u64 {
        self.ok + self.failed
    }
}

/// Number of client connections in the closed and paced phases: one per
/// core of the reference host, so the clients, the event loop and the
/// workers contend as the benchmark's interaction notes describe.
pub const CONNECTIONS: usize = 2;

/// Closed loop: each of [`CONNECTIONS`] keep-alive connections sends its
/// next request when the previous answer has been verified, for `dur`.
pub fn closed_loop(
    addr: SocketAddr,
    pages: &[Page],
    picker: &Picker,
    seed: u64,
    dur: Duration,
) -> Traffic {
    let start = Instant::now();
    let mut total = run_connections(|k| {
        let mut rng = Rng::new(seed, 100 + k as u64);
        let mut t = Traffic::default();
        let Ok(mut conn) = Conn::open(addr) else {
            t.failed += 1;
            return t;
        };
        while start.elapsed() < dur {
            let sent = Instant::now();
            if one_request(&mut conn, &pages[picker.pick(&mut rng)], &mut t) {
                t.latency_us.push(sent.elapsed().as_secs_f64() * 1e6);
            } else if !reopen(&mut conn, addr) {
                break;
            }
        }
        t
    });
    total.wall = start.elapsed();
    total
}

/// A send later than this after its due time counts as late.
pub const LATE: Duration = Duration::from_millis(1);

/// When request `j` of connection `k` is due, from the phase start: the
/// phase's `rate` per second is dealt round-robin to the connections.
pub fn due(k: usize, j: u64, rate: u32) -> Duration {
    let global = j * CONNECTIONS as u64 + k as u64;
    Duration::from_nanos(global * 1_000_000_000 / u64::from(rate))
}

/// Open-loop accounting of one request: latency runs from the due time —
/// so a stall is charged to every request it delayed — and the send is
/// late when it left more than [`LATE`] after it was due.
pub fn account(due: Duration, sent: Duration, done: Duration) -> (Duration, bool) {
    (done.saturating_sub(due), sent.saturating_sub(due) > LATE)
}

/// Open loop: requests are due on a fixed schedule of `rate` per second
/// over all connections, whatever the answers do. A connection that falls
/// behind sends at once and stays charged from the due time.
pub fn paced_loop(
    addr: SocketAddr,
    pages: &[Page],
    picker: &Picker,
    seed: u64,
    rate: u32,
    dur: Duration,
) -> Traffic {
    let start = Instant::now();
    let mut total = run_connections(|k| {
        let mut rng = Rng::new(seed, 200 + k as u64);
        let mut t = Traffic::default();
        let Ok(mut conn) = Conn::open(addr) else {
            t.failed += 1;
            return t;
        };
        for j in 0.. {
            let due_at = due(k, j, rate);
            if due_at >= dur {
                break;
            }
            wait_until(start + due_at);
            let sent = start.elapsed();
            if one_request(&mut conn, &pages[picker.pick(&mut rng)], &mut t) {
                let (latency, late) = account(due_at, sent, start.elapsed());
                t.latency_us.push(latency.as_secs_f64() * 1e6);
                t.late += u64::from(late);
            } else if !reopen(&mut conn, addr) {
                break;
            }
        }
        t
    });
    total.wall = start.elapsed();
    total
}

fn run_connections(work: impl Fn(usize) -> Traffic + Sync) -> Traffic {
    let mut total = Traffic::default();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|k| {
                let work = &work;
                s.spawn(move || work(k))
            })
            .collect();
        for h in handles {
            total.merge(h.join().expect("client thread panicked"));
        }
    });
    total
}

/// Sends one request and counts it; true when the answer verified.
fn one_request(conn: &mut Conn, page: &Page, t: &mut Traffic) -> bool {
    match verified_get(conn, page) {
        Some(len) => {
            t.ok += 1;
            t.body_bytes += len as u64;
            true
        }
        None => {
            t.failed += 1;
            false
        }
    }
}

/// After a failed request the stream's framing is unknown: start over on a
/// new connection. False when the server no longer accepts.
fn reopen(conn: &mut Conn, addr: SocketAddr) -> bool {
    Conn::open(addr).map(|c| *conn = c).is_ok()
}

/// Sleeps until `t`. No spinning before a send: on a host with as many
/// cores as client connections, a client that spins keeps a core from the
/// server while the other client's request is being answered, and the
/// latency measured is then the spin, not the server. The timer's
/// overshoot counts into the latency, which runs from the due time.
fn wait_until(t: Instant) {
    let now = Instant::now();
    if t > now {
        std::thread::sleep(t - now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn framer_waits_for_the_blank_line_and_reads_the_length() {
        let full = b"HTTP/1.1 200 OK\r\nContent-Type: text/html\r\ncontent-length: 5\r\nConnection: keep-alive\r\n\r\nhelloHTTP/1.1";
        for cut in 0..full.len() {
            let got = parse_head(&full[..cut]).unwrap();
            if cut < 87 {
                assert_eq!(got, None, "cut at {cut}");
            } else {
                assert_eq!(
                    got,
                    Some(Head {
                        len: 87,
                        status: 200,
                        content_length: 5
                    })
                );
            }
        }
        assert_eq!(&full[87..92], b"hello");
    }

    #[test]
    fn framer_rejects_heads_it_cannot_delimit() {
        assert!(parse_head(b"HTTP/1.1 200 OK\r\nConnection: close\r\n\r\n").is_err());
        assert!(parse_head(b"garbage\r\nContent-Length: 1\r\n\r\n").is_err());
        let h = parse_head(b"HTTP/1.1 503 Service Unavailable\r\nContent-Length: 0\r\n\r\n");
        assert_eq!(h.unwrap().unwrap().status, 503);
    }

    #[test]
    fn schedule_interleaves_connections_at_the_total_rate() {
        // 4000/s over two connections: one request every 250 µs overall,
        // one every 500 µs per connection, offset by half a period.
        assert_eq!(due(0, 0, 4000), Duration::ZERO);
        assert_eq!(due(1, 0, 4000), Duration::from_micros(250));
        assert_eq!(due(0, 1, 4000), Duration::from_micros(500));
        assert_eq!(due(1, 3, 4000), Duration::from_micros(1750));
        let in_one_second = (0..).take_while(|j| due(0, *j, 4000) < Duration::from_secs(1));
        assert_eq!(in_one_second.count(), 2000);
    }

    #[test]
    fn latency_counts_from_the_due_time_not_the_send() {
        let ms = Duration::from_millis;
        // Sent on time, answered 2 ms later.
        assert_eq!(account(ms(10), ms(10), ms(12)), (ms(2), false));
        // A 5 ms stall before the send is part of this request's latency.
        assert_eq!(account(ms(10), ms(15), ms(17)), (ms(7), true));
        // Exactly the allowance is not late.
        assert_eq!(account(ms(10), ms(11), ms(12)), (ms(2), false));
    }

    #[test]
    fn needle_search() {
        assert!(contains(
            b"<td>&quot;Storm update no. 7&quot;</td>",
            b"Storm update no. 7"
        ));
        assert!(contains(b"Storm update no. 7", b"Storm update no. 7"));
        assert!(!contains(
            b"<td>Storm update no. 71</td>",
            b"Storm update no. 7"
        ));
        assert!(contains(b"no. 71, no. 7.", b"no. 7"));
    }
}
