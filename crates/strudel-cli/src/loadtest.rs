//! `strudel-cli loadtest` — replay zipfian page popularity against the
//! click-time server and record latency percentiles and throughput.
//!
//! The harness binds an in-process [`Server`] on an ephemeral port, crawls
//! the served site to discover the page universe, validates pipelining
//! (one connection, a burst of requests, responses must come back in order
//! and byte-identical to serial fetches), then runs one timed phase per
//! requested connection count. Each phase drives keep-alive connections
//! whose page choices follow a zipfian popularity distribution — a few hot
//! pages, a long cold tail — which is how real site traffic exercises the
//! expansion cache.
//!
//! Results land in a JSON report (default `BENCH_serve.json`): p50/p99/p999
//! and max latency, throughput, error counts, and the server's own
//! keep-alive/admission counters for each phase.
//!
//! [`Server`]: strudel::serve::Server

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

type AnyError = Box<dyn std::error::Error>;

/// Everything one `loadtest` invocation is asked to do.
struct Options {
    conns: Vec<usize>,
    duration: Duration,
    zipf_s: f64,
    threads: usize,
    max_urls: usize,
    pipeline_depth: usize,
    seed: u64,
    out: String,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            conns: vec![4, 16],
            duration: Duration::from_millis(2000),
            zipf_s: 1.1,
            threads: std::thread::available_parallelism().map_or(2, |n| n.get()),
            max_urls: 64,
            pipeline_depth: 8,
            seed: 42,
            out: "BENCH_serve.json".to_string(),
        }
    }
}

fn parse_options(rest: &[String]) -> Result<Options, AnyError> {
    let mut o = Options::default();
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        let mut value = || -> Result<&String, AnyError> {
            it.next()
                .ok_or_else(|| format!("{arg} needs a value").into())
        };
        match arg.as_str() {
            "--conns" => {
                let v = value()?;
                o.conns = v
                    .split(',')
                    .map(|c| c.trim().parse::<usize>().map(|n| n.max(1)))
                    .collect::<Result<_, _>>()
                    .map_err(|e| format!("--conns {v}: {e}"))?;
                if o.conns.is_empty() {
                    return Err("--conns needs at least one count".into());
                }
            }
            "--duration-ms" => o.duration = Duration::from_millis(value()?.parse()?),
            "--zipf" => o.zipf_s = value()?.parse()?,
            "--threads" => o.threads = value()?.parse::<usize>()?.max(1),
            "--max-urls" => o.max_urls = value()?.parse::<usize>()?.max(1),
            "--pipeline-depth" => o.pipeline_depth = value()?.parse::<usize>()?.max(2),
            "--seed" => o.seed = value()?.parse()?,
            "--out" => o.out = value()?.clone(),
            s => return Err(format!("unknown argument {s}").into()),
        }
    }
    Ok(o)
}

/// Entry point for `strudel-cli loadtest <site.spec> [flags]`.
pub fn run(spec_path: &Path, rest: &[String]) -> Result<(), AnyError> {
    let opts = parse_options(rest)?;
    // Sample rate 0: no traces are promoted for export, but every request
    // still feeds the per-layer self-time histograms the report records —
    // this is also the cheapest tracing configuration, so the measured
    // latencies carry the recorder's always-on cost.
    strudel::obs::trace::enable(strudel::obs::trace::TraceConfig {
        sample_rate: 0.0,
        slow_ms: 0,
        ..Default::default()
    });
    let (mut s, _) = crate::load_system(spec_path)?;
    let dynamic = s.dynamic_site_with(strudel::site::CacheConfig::default())?;
    let config = strudel::serve::ServerConfig {
        threads: opts.threads,
        ..Default::default()
    };
    let server = strudel::serve::Server::bind_with(dynamic, "127.0.0.1:0", config)?;
    let addr = server.addr()?;

    let mut report = Err("loadtest did not run".into());
    std::thread::scope(|scope| {
        let serving = scope.spawn(|| server.serve(None));
        report = drive(addr, &opts);
        let _ = fetch(addr, "/quit");
        serving.join().expect("server thread").expect("serve");
    });
    let report = report?;
    std::fs::write(&opts.out, &report)?;
    println!("wrote {}", opts.out);
    Ok(())
}

/// Runs every phase against the live server and renders the JSON report.
fn drive(addr: SocketAddr, opts: &Options) -> Result<String, AnyError> {
    let urls = crawl(addr, opts.max_urls)?;
    eprintln!("discovered {} urls", urls.len());

    let depth = opts.pipeline_depth.min(urls.len().max(2));
    let garbled = pipeline_check(addr, &urls, depth)?;
    if garbled != 0 {
        return Err(format!("{garbled} pipelined responses dropped or garbled").into());
    }
    eprintln!("pipelining: {depth} requests on one connection, in order, 0 garbled");
    let pipeline = format!("{{\"depth\":{depth},\"garbled\":0}}");

    let cum = zipf_cumulative(urls.len(), opts.zipf_s);
    let mut runs = Vec::new();
    for &conns in &opts.conns {
        let before = server_counters(addr)?;
        let phase = timed_phase(addr, &urls, &cum, conns, opts.duration, opts.seed)?;
        let after = server_counters(addr)?;
        eprintln!(
            "{} conns for {:?}: {} requests, {:.0} req/s, p50 {}us p99 {}us p999 {}us, {} 5xx",
            conns,
            opts.duration,
            phase.requests,
            phase.throughput_rps,
            phase.p50_us,
            phase.p99_us,
            phase.p999_us,
            phase.errors_5xx
        );
        runs.push(format!(
            concat!(
                "{{\"connections\":{},\"requests\":{},\"throughput_rps\":{:.1},",
                "\"latency_us\":{{\"p50\":{},\"p99\":{},\"p999\":{},\"max\":{}}},",
                "\"errors_5xx\":{},\"errors_other\":{},\"reconnects\":{},",
                "\"keepalive_reuses\":{},\"admission_rejected\":{}}}"
            ),
            conns,
            phase.requests,
            phase.throughput_rps,
            phase.p50_us,
            phase.p99_us,
            phase.p999_us,
            phase.max_us,
            phase.errors_5xx,
            phase.errors_other,
            phase.reconnects,
            after.keepalive_reuses - before.keepalive_reuses,
            after.admission_rejected - before.admission_rejected,
        ));
    }
    // Per-layer self-time medians from the flight recorder: every request
    // the phases above drove fed these histograms (independent of the
    // sampling decision), so this is the per-layer latency breakdown of
    // the whole run.
    let layers = strudel::obs::trace::layer_quantiles()
        .iter()
        .map(|(name, p50, p99)| format!("\"{name}\":{{\"p50_us\":{p50},\"p99_us\":{p99}}}"))
        .collect::<Vec<_>>()
        .join(",");
    eprintln!(
        "per-layer self-time p50: {}",
        strudel::obs::trace::layer_quantiles()
            .iter()
            .map(|(name, p50, _)| format!("{name} {p50}us"))
            .collect::<Vec<_>>()
            .join(", ")
    );
    Ok(format!(
        concat!(
            "{{\"benchmark\":\"serve_loadtest\",",
            "\"zipf_s\":{},\"duration_ms\":{},\"urls\":{},",
            "\"pipeline\":{},",
            "\"layer_self_us\":{{{}}},",
            "\"runs\":[{}]}}\n"
        ),
        opts.zipf_s,
        opts.duration.as_millis(),
        urls.len(),
        pipeline,
        layers,
        runs.join(",")
    ))
}

// ---- site discovery --------------------------------------------------------

/// Breadth-first crawl from `/` over local `href`s, bounded by `max_urls`.
fn crawl(addr: SocketAddr, max_urls: usize) -> Result<Vec<String>, AnyError> {
    let mut urls = vec!["/".to_string()];
    let mut seen: std::collections::BTreeSet<String> = urls.iter().cloned().collect();
    let mut next = 0;
    while next < urls.len() && urls.len() < max_urls {
        let body = fetch(addr, &urls[next])?;
        next += 1;
        for part in body.split("href=\"").skip(1) {
            let Some(end) = part.find('"') else { continue };
            let href = &part[..end];
            if href.starts_with("/page/") && !seen.contains(href) && urls.len() < max_urls {
                seen.insert(href.to_string());
                urls.push(href.to_string());
            }
        }
    }
    Ok(urls)
}

// ---- zipfian sampling ------------------------------------------------------

/// Cumulative zipfian weights: url rank `i` gets weight `1/(i+1)^s`.
fn zipf_cumulative(n: usize, s: f64) -> Vec<f64> {
    let mut cum = Vec::with_capacity(n);
    let mut total = 0.0;
    for i in 0..n {
        total += 1.0 / ((i + 1) as f64).powf(s);
        cum.push(total);
    }
    for c in &mut cum {
        *c /= total;
    }
    cum
}

/// Samples a rank from the cumulative distribution.
fn zipf_sample(cum: &[f64], rng: &mut StdRng) -> usize {
    let r = rng.gen_range(0.0..1.0);
    cum.partition_point(|&c| c < r).min(cum.len() - 1)
}

// ---- HTTP client -----------------------------------------------------------

/// One-shot `Connection: close` fetch; returns the whole response text.
fn fetch(addr: SocketAddr, path: &str) -> Result<String, AnyError> {
    let mut s = TcpStream::connect(addr)?;
    s.set_read_timeout(Some(Duration::from_secs(10)))?;
    s.write_all(
        format!("GET {path} HTTP/1.1\r\nHost: lt\r\nConnection: close\r\n\r\n").as_bytes(),
    )?;
    let mut buf = String::new();
    s.read_to_string(&mut buf)?;
    Ok(buf)
}

/// One framed response pulled off a keep-alive connection: status, body,
/// and whether the server asked to close. Leftover bytes (pipelined
/// successors) stay in `carry`.
fn read_response(
    stream: &mut TcpStream,
    carry: &mut Vec<u8>,
) -> std::io::Result<(u16, Vec<u8>, bool)> {
    let mut chunk = [0u8; 16 * 1024];
    loop {
        if let Some(end) = carry.windows(4).position(|w| w == b"\r\n\r\n") {
            let head = String::from_utf8_lossy(&carry[..end]).into_owned();
            let status: u16 = head
                .strip_prefix("HTTP/1.1 ")
                .and_then(|r| r.get(..3))
                .and_then(|c| c.parse().ok())
                .ok_or_else(|| std::io::Error::new(ErrorKind::InvalidData, "bad status line"))?;
            let len: usize = head
                .lines()
                .find_map(|l| l.strip_prefix("Content-Length: "))
                .and_then(|v| v.parse().ok())
                .ok_or_else(|| std::io::Error::new(ErrorKind::InvalidData, "no content length"))?;
            let close = head.contains("Connection: close");
            let need = end + 4 + len;
            while carry.len() < need {
                let n = stream.read(&mut chunk)?;
                if n == 0 {
                    return Err(std::io::Error::new(
                        ErrorKind::UnexpectedEof,
                        "eof mid body",
                    ));
                }
                carry.extend_from_slice(&chunk[..n]);
            }
            let body = carry[end + 4..need].to_vec();
            carry.drain(..need);
            return Ok((status, body, close));
        }
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(std::io::Error::new(
                ErrorKind::UnexpectedEof,
                "eof mid head",
            ));
        }
        carry.extend_from_slice(&chunk[..n]);
    }
}

// ---- pipelining validation -------------------------------------------------

/// Sends `depth` distinct requests in one burst on one connection and
/// checks the responses come back in order, each byte-identical to a
/// serial `Connection: close` fetch of the same path. Returns the number
/// of dropped or mismatched responses.
fn pipeline_check(addr: SocketAddr, urls: &[String], depth: usize) -> Result<usize, AnyError> {
    let picks: Vec<&String> = (0..depth).map(|i| &urls[i % urls.len()]).collect();
    let serial: Vec<String> = picks
        .iter()
        .map(|u| fetch(addr, u).map(|r| body_of(&r)))
        .collect::<Result<_, _>>()?;

    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(10)))?;
    let burst: String = picks
        .iter()
        .map(|u| format!("GET {u} HTTP/1.1\r\nHost: lt\r\n\r\n"))
        .collect();
    stream.write_all(burst.as_bytes())?;

    let mut carry = Vec::new();
    let mut garbled = 0;
    for expected in &serial {
        match read_response(&mut stream, &mut carry) {
            Ok((200, body, _)) if body == expected.as_bytes() => {}
            _ => garbled += 1,
        }
    }
    Ok(garbled)
}

fn body_of(response: &str) -> String {
    response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default()
}

// ---- timed phases ----------------------------------------------------------

struct PhaseResult {
    requests: u64,
    throughput_rps: f64,
    p50_us: u64,
    p99_us: u64,
    p999_us: u64,
    max_us: u64,
    errors_5xx: u64,
    errors_other: u64,
    reconnects: u64,
}

/// Drives `conns` keep-alive connections for `duration`, each replaying
/// zipfian page picks, and aggregates their latencies.
fn timed_phase(
    addr: SocketAddr,
    urls: &[String],
    cum: &[f64],
    conns: usize,
    duration: Duration,
    seed: u64,
) -> Result<PhaseResult, AnyError> {
    let reconnects = AtomicU64::new(0);
    let started = Instant::now();
    let deadline = started + duration;
    let mut latencies: Vec<u64> = Vec::new();
    let (mut errors_5xx, mut errors_other) = (0u64, 0u64);

    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for c in 0..conns {
            let reconnects = &reconnects;
            handles.push(scope.spawn(move || {
                client_loop(
                    addr,
                    urls,
                    cum,
                    deadline,
                    seed ^ (c as u64) << 17,
                    reconnects,
                )
            }));
        }
        for h in handles {
            let r = h.join().expect("client thread");
            latencies.extend(r.latencies_us);
            errors_5xx += r.errors_5xx;
            errors_other += r.errors_other;
        }
    });
    let elapsed = started.elapsed();

    latencies.sort_unstable();
    let pct = |q: f64| -> u64 {
        if latencies.is_empty() {
            return 0;
        }
        let idx = ((latencies.len() - 1) as f64 * q).round() as usize;
        latencies[idx]
    };
    Ok(PhaseResult {
        requests: latencies.len() as u64,
        throughput_rps: latencies.len() as f64 / elapsed.as_secs_f64(),
        p50_us: pct(0.50),
        p99_us: pct(0.99),
        p999_us: pct(0.999),
        max_us: latencies.last().copied().unwrap_or(0),
        errors_5xx,
        errors_other,
        reconnects: reconnects.load(Ordering::Relaxed),
    })
}

struct ClientResult {
    latencies_us: Vec<u64>,
    errors_5xx: u64,
    errors_other: u64,
}

fn client_loop(
    addr: SocketAddr,
    urls: &[String],
    cum: &[f64],
    deadline: Instant,
    seed: u64,
    reconnects: &AtomicU64,
) -> ClientResult {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = ClientResult {
        latencies_us: Vec::new(),
        errors_5xx: 0,
        errors_other: 0,
    };
    let mut conn: Option<(TcpStream, Vec<u8>)> = None;
    let mut first_connect = true;
    while Instant::now() < deadline {
        let url = &urls[zipf_sample(cum, &mut rng)];
        if conn.is_none() {
            let Ok(stream) = TcpStream::connect(addr) else {
                std::thread::sleep(Duration::from_millis(1));
                continue;
            };
            let _ = stream.set_read_timeout(Some(Duration::from_secs(10)));
            let _ = stream.set_nodelay(true);
            if !first_connect {
                reconnects.fetch_add(1, Ordering::Relaxed);
            }
            first_connect = false;
            conn = Some((stream, Vec::new()));
        }
        let (stream, carry) = conn.as_mut().unwrap();
        let t0 = Instant::now();
        let answered = stream
            .write_all(format!("GET {url} HTTP/1.1\r\nHost: lt\r\n\r\n").as_bytes())
            .and_then(|()| read_response(stream, carry));
        match answered {
            Ok((status, _, close)) => {
                out.latencies_us
                    .push(u64::try_from(t0.elapsed().as_micros()).unwrap_or(u64::MAX));
                match status {
                    200..=399 => {}
                    500..=599 => out.errors_5xx += 1,
                    _ => out.errors_other += 1,
                }
                if close {
                    conn = None;
                }
            }
            Err(_) => {
                // Connection died (admission 503 already counted by the
                // server; a keep-alive cut mid-request is a reconnect).
                conn = None;
            }
        }
    }
    out
}

// ---- server counter snapshots ---------------------------------------------

struct Counters {
    keepalive_reuses: u64,
    admission_rejected: u64,
}

/// Pulls the two connection counters the report diffs out of `/stats`.
fn server_counters(addr: SocketAddr) -> Result<Counters, AnyError> {
    let stats = fetch(addr, "/stats")?;
    let field = |key: &str| -> u64 {
        stats
            .split_once(&format!("\"{key}\":"))
            .map(|(_, rest)| {
                rest.chars()
                    .take_while(char::is_ascii_digit)
                    .collect::<String>()
            })
            .and_then(|d| d.parse().ok())
            .unwrap_or(0)
    };
    Ok(Counters {
        keepalive_reuses: field("keepalive_reuses"),
        admission_rejected: field("admission_rejected"),
    })
}
