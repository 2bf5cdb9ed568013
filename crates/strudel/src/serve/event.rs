//! The connection layer: one readiness loop owning every socket and
//! answering what the page cache holds, a worker pool for everything else.
//!
//! The loop (this module) runs on the thread that called
//! [`Server::serve`]; it accepts connections, pumps non-blocking reads
//! and writes through each [`Conn`] state machine, and enforces
//! whole-request deadlines and admission control. A complete `GET`/`HEAD`
//! for `/page/…` is first put to [`Server::cached_page`], a lookup that
//! never evaluates: on a hit the loop renders, encodes into the
//! connection's write buffer and flushes in the same iteration, so the
//! answer never leaves the thread that read the request. Everything else (a
//! page with a clause to evaluate, `/stats`, `/metrics`, `/quit`, …) goes to
//! the worker pool over a channel; workers run the router, encode the
//! response, and hand the bytes back with [`Poller::notify`] as the
//! doorbell, so a hub page that takes 30 ms to evaluate stalls one worker,
//! never the loop. One request is in flight per connection at a time, so
//! pipelined requests are answered strictly in arrival order; their bytes
//! wait in the connection's read buffer (and the kernel's) until the
//! previous response has drained.

use super::conn::{Conn, ConnState, Fill, Flush};
use super::http::{self, AcceptBackoff, Method, Parsed, Request};
use super::Server;
use parking_lot::Mutex;
use polling::{Event, Poller};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};
use strudel_obs::trace;

/// Poller key of the listening socket; connections use `slot + 1`.
const KEY_LISTENER: usize = 0;

/// Pipelined requests of one connection answered from the cache back to
/// back before the next goes through the worker pool, whose completion
/// comes back through the poller behind everybody else's events.
const INLINE_RUN: usize = 32;

/// A connection's reused write buffer that an answer grew past this is
/// given back: one hub page of megabytes must not stay allocated, a
/// thousand connections over, for as long as each of them lives.
const KEEP_BUFFER: usize = 64 * 1024;

const BAD_REQUEST: &str = "400 Bad Request";
const TOO_LARGE: &str = "431 Request Header Fields Too Large";
const OVERLOADED: &str = "503 Service Unavailable";
const INTERNAL_ERROR: &str = "500 Internal Server Error";

/// Ends a connection's in-flight root span (if any): records the
/// `serve.write` phase when a response was queued, then finishes the
/// trace (promoting it if sampled or slow).
fn finish_trace(conn: &mut Conn) {
    if let Some(root) = conn.trace.take() {
        if conn.trace_write_ns > 0 {
            trace::record_span(
                &root.ctx(),
                "serve.write",
                trace::Layer::Serve,
                conn.trace_write_ns,
                root.now_ns(),
                &[("bytes", trace::AttrValue::U64(conn.wbuf.len() as u64))],
            );
        }
        root.finish();
        conn.trace_write_ns = 0;
    }
}

/// Fallback poll period when nothing imposes a deadline. Completions
/// arrive via [`Poller::notify`], so this only bounds recovery from lost
/// wakeups.
const IDLE_TICK: Duration = Duration::from_millis(500);

/// A parsed request on its way to the worker pool.
struct Job {
    slot: usize,
    generation: u64,
    req: Request,
    /// Trace context of the connection's root span, adopted by whichever
    /// worker picks the job up so expansion spans parent correctly.
    trace: Option<trace::Ctx>,
}

/// An encoded response on its way back from a worker.
struct Completion {
    slot: usize,
    generation: u64,
    bytes: Vec<u8>,
    close_after: bool,
    /// Numeric HTTP status: on the request's root span, and an error
    /// unless 2xx.
    status: u64,
}

/// Runs the event loop. See [`Server::serve`] for the `max_conns`
/// contract.
pub(super) fn run(server: &Server<'_>, max_conns: Option<usize>) -> crate::error::Result<()> {
    let io_err = crate::error::StrudelError::Io;
    server.listener.set_nonblocking(true).map_err(io_err)?;
    let poller = Poller::new().map_err(io_err)?;
    poller
        .add(&server.listener, Event::readable(KEY_LISTENER))
        .map_err(io_err)?;

    let shutdown = AtomicBool::new(false);
    let (job_tx, job_rx) = mpsc::channel::<Job>();
    let job_rx = Mutex::new(job_rx);
    let (done_tx, done_rx) = mpsc::channel::<Completion>();
    let workers = server.config.threads.max(1);

    std::thread::scope(|scope| {
        for _ in 0..workers {
            let done_tx = done_tx.clone();
            let (shutdown, job_rx, poller) = (&shutdown, &job_rx, &poller);
            scope.spawn(move || {
                // Take the receiver lock only to pull one job.
                while let Ok(job) = { job_rx.lock().recv() } {
                    // Adopt the request's trace for the expansion phase:
                    // cache/eval/render/store spans recorded below attach
                    // to the serve.handle span, and the gap between
                    // dispatch and here surfaces as queue time on the root.
                    let trace_guard = job.trace.as_ref().map(trace::enter);
                    let mut hspan = trace::span("serve.handle", trace::Layer::Serve);
                    // A panic below fails this request, not the worker: it
                    // is answered 500 and the worker takes the next job.
                    let routed = panic::catch_unwind(AssertUnwindSafe(|| {
                        server.route_request(&job.req, shutdown)
                    }));
                    let (status, content_type, body) = routed.unwrap_or_else(|_| {
                        let body = "<html><body>internal error</body></html>";
                        (INTERNAL_ERROR.into(), http::CT_HTML, body.into())
                    });
                    let status_code = status
                        .split(' ')
                        .next()
                        .and_then(|s| s.parse::<u64>().ok())
                        .unwrap_or(0);
                    let keep = job.req.keep_alive && !shutdown.load(Ordering::Acquire);
                    let head = job.req.method == Method::Head;
                    let mut bytes = Vec::with_capacity(128 + body.len());
                    http::encode_response(&mut bytes, &status, content_type, &body, keep, head);
                    hspan.attr_u64("status", status_code);
                    hspan.attr_u64("bytes", bytes.len() as u64);
                    drop(hspan);
                    // Flush the handle span's time into the root's child
                    // accounting BEFORE the completion is visible to the
                    // loop: otherwise the loop can finish the root first and
                    // compute a self-time that still contains serve.handle.
                    drop(trace_guard);
                    if done_tx
                        .send(Completion {
                            slot: job.slot,
                            generation: job.generation,
                            bytes,
                            close_after: !keep,
                            status: status_code,
                        })
                        .is_err()
                    {
                        break; // loop gone
                    }
                    let _ = poller.notify();
                }
            });
        }
        drop(done_tx);

        EventLoop {
            server,
            poller: &poller,
            shutdown: &shutdown,
            job_tx,
            done_rx,
            conns: Vec::new(),
            free: Vec::new(),
            next_generation: 0,
            accepted: 0,
            accept_limit: max_conns,
            draining: false,
            accepting: true,
            accept_resume_at: None,
            backoff: AcceptBackoff::new(),
            body: String::new(),
        }
        .run();
    });

    server.listener.set_nonblocking(false).map_err(io_err)?;
    Ok(())
}

struct EventLoop<'s, 'g> {
    server: &'s Server<'g>,
    poller: &'s Poller,
    shutdown: &'s AtomicBool,
    job_tx: mpsc::Sender<Job>,
    done_rx: mpsc::Receiver<Completion>,
    conns: Vec<Option<Conn>>,
    free: Vec<usize>,
    next_generation: u64,
    accepted: usize,
    accept_limit: Option<usize>,
    /// Stop accepting, close idle connections, finish in-flight work, exit.
    draining: bool,
    /// Whether the listener is currently registered with the poller.
    accepting: bool,
    /// When accept-error backoff ends and the listener re-registers.
    accept_resume_at: Option<Instant>,
    backoff: AcceptBackoff,
    /// Scratch for the body of a page answered on the loop.
    body: String,
}

impl EventLoop<'_, '_> {
    fn run(&mut self) {
        let mut events: Vec<Event> = Vec::new();
        loop {
            if self.shutdown.load(Ordering::Acquire) {
                self.enter_drain();
            }
            if self.draining && self.open_count() == 0 {
                break;
            }
            events.clear();
            let _ = self.poller.wait(&mut events, Some(self.next_timeout()));
            self.server.metrics.counts.loop_wakeups.inc();

            // Worker completions first: they free connections for the
            // readiness events processed right after.
            while let Ok(done) = self.done_rx.try_recv() {
                self.complete(done);
            }
            for &ev in &events {
                if ev.key == KEY_LISTENER {
                    self.accept_ready();
                } else {
                    self.conn_ready(ev.key - 1, ev);
                }
            }
            let now = Instant::now();
            self.sweep_deadlines(now);
            self.resume_accept(now);
            if self.shutdown.load(Ordering::Acquire) {
                self.enter_drain();
            }
            self.publish_gauges();
        }
        // Close whatever drain left behind (nothing, unless a worker died).
        for slot in 0..self.conns.len() {
            if self.conns[slot].is_some() {
                self.close(slot);
            }
        }
        self.publish_gauges();
        if self.accepting {
            let _ = self.poller.delete(&self.server.listener);
        }
    }

    // ---- accept path -------------------------------------------------------

    fn accept_ready(&mut self) {
        while self.accepting {
            match self.server.listener.accept() {
                Ok((stream, _)) => {
                    self.backoff.on_success();
                    self.accepted += 1;
                    self.admit(stream);
                    if self.accept_limit.is_some_and(|m| self.accepted >= m) {
                        self.enter_drain();
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    // EMFILE and friends: re-entering accept immediately
                    // would busy-spin at 100% CPU. Unregister the listener
                    // and come back after an exponentially growing pause.
                    self.server.metrics.counts.accept_errors.inc();
                    let pause = self.backoff.on_error();
                    self.accept_resume_at = Some(Instant::now() + pause);
                    self.unregister_listener();
                    break;
                }
            }
        }
    }

    fn admit(&mut self, stream: std::net::TcpStream) {
        let _ = stream.set_nonblocking(true);
        let _ = stream.set_nodelay(true);
        let overloaded = self.open_count() >= self.server.config.max_connections.max(1);
        let slot = self.free.pop().unwrap_or_else(|| {
            self.conns.push(None);
            self.conns.len() - 1
        });
        // Past the cap a connection is only written to: not registered (see
        // `set_interest`) unless its 503 blocks.
        let interest = if overloaded {
            Event::none(slot + 1)
        } else {
            Event::readable(slot + 1)
        };
        if !overloaded && self.poller.add(&stream, interest).is_err() {
            self.free.push(slot);
            return;
        }
        let timeout = self.server.config.request_timeout;
        let conn = Conn::new(stream, interest, self.next_generation, timeout);
        self.next_generation += 1;
        let conn = self.conns[slot].insert(conn);
        if overloaded {
            self.server.metrics.counts.admission_rejected.inc();
            conn.rejected = true;
            self.respond_error(slot, OVERLOADED, "server overloaded, retry shortly");
        }
    }

    fn unregister_listener(&mut self) {
        if self.accepting {
            let _ = self.poller.delete(&self.server.listener);
            self.accepting = false;
        }
    }

    fn resume_accept(&mut self, now: Instant) {
        if let Some(at) = self.accept_resume_at {
            if now >= at && !self.draining {
                self.accept_resume_at = None;
                if !self.accepting
                    && self
                        .poller
                        .add(&self.server.listener, Event::readable(KEY_LISTENER))
                        .is_ok()
                {
                    self.accepting = true;
                }
                // The pause may have swallowed the readiness edge.
                self.accept_ready();
            }
        }
    }

    // ---- connection I/O ----------------------------------------------------

    fn conn_ready(&mut self, slot: usize, ev: Event) {
        let Some(state) = self
            .conns
            .get(slot)
            .and_then(Option::as_ref)
            .map(|c| c.state)
        else {
            return; // already closed this tick
        };
        match state {
            ConnState::Idle | ConnState::Reading if ev.readable => self.read_ready(slot),
            ConnState::Writing if ev.writable && self.pump_write(slot) => self.advance(slot),
            _ => {} // a spurious direction, or nothing buffered
        }
    }

    fn read_ready(&mut self, slot: usize) {
        let cap = self.server.config.max_request_bytes + 65536;
        let conn = self.conns[slot].as_mut().unwrap();
        match conn.fill(cap) {
            Fill::Progress => {
                if conn.state == ConnState::Idle {
                    // First byte of a request: arm the whole-request
                    // deadline exactly once. Later reads do NOT re-arm it.
                    conn.state = ConnState::Reading;
                    conn.req_started = Instant::now();
                    conn.deadline = Some(conn.req_started + self.server.config.request_timeout);
                    conn.trace = self
                        .server
                        .recorder()
                        .map(|rec| rec.begin_request("request"));
                }
                self.advance(slot);
            }
            Fill::Blocked => {}
            // Peer half-closed mid-head (a complete head was answered when
            // its bytes came in); it can still read our 400.
            Fill::PeerClosed if conn.has_partial() => {
                self.respond_error(slot, BAD_REQUEST, "malformed request");
            }
            Fill::PeerClosed | Fill::Broken => {
                // A connection that opened and closed without a byte (port
                // scan, health probe): silent, separate counter, never an
                // "error" — the old 400-per-probe skewed the error rate.
                // Reused keep-alive connections closing between requests
                // are plain lifecycle, not aborts.
                if conn.served == 0 {
                    self.server.metrics.counts.connections_aborted.inc();
                }
                self.close(slot);
            }
        }
    }

    /// Serves the requests in the read buffer, one after the other, until
    /// one has to wait: for the rest of its bytes, for a worker, or for the
    /// socket to take its response. Callable only in `Idle`/`Reading`.
    fn advance(&mut self, slot: usize) {
        let max_head = self.server.config.max_request_bytes;
        for inline_run in 0.. {
            let conn = self.conns[slot].as_mut().unwrap();
            let (req, consumed) = match http::parse_request(&conn.rbuf) {
                Parsed::Incomplete if conn.rbuf.len() <= max_head => {
                    return self.set_interest(slot, Event::readable(slot + 1));
                }
                Parsed::Incomplete => {
                    return self.respond_error(slot, TOO_LARGE, "request too large");
                }
                Parsed::Malformed => {
                    return self.respond_error(slot, BAD_REQUEST, "malformed request line");
                }
                Parsed::Request(_, consumed) if consumed > max_head => {
                    return self.respond_error(slot, TOO_LARGE, "request too large");
                }
                Parsed::Request(req, _) if req.has_body => {
                    let what = "request bodies are not supported";
                    return self.respond_error(slot, BAD_REQUEST, what);
                }
                Parsed::Request(req, consumed) => (req, consumed),
            };
            conn.rbuf.drain(..consumed);
            if conn.served > 0 {
                self.server.metrics.counts.keepalive_reuses.inc();
            }
            conn.deadline = None;
            // Close the parse phase: first byte → complete head.
            let trace_ctx = conn.trace.as_mut().map(|root| {
                root.attr_text("path", &req.path);
                let ctx = root.ctx();
                trace::record_span(
                    &ctx,
                    "serve.parse",
                    trace::Layer::Serve,
                    root.start_ns(),
                    root.now_ns(),
                    &[("bytes", trace::AttrValue::U64(consumed as u64))],
                );
                ctx
            });
            if inline_run < INLINE_RUN && self.answer_cached(slot, &req, &trace_ctx) {
                if self.pump_write(slot) {
                    continue; // on the wire, and the next one is buffered
                }
                return;
            }
            let conn = self.conns[slot].as_mut().unwrap();
            conn.state = ConnState::Dispatched;
            let job = Job {
                slot,
                generation: conn.generation,
                req,
                trace: trace_ctx,
            };
            self.set_interest(slot, Event::none(slot + 1));
            if self.job_tx.send(job).is_err() {
                self.close(slot); // workers gone (only after a panic)
            }
            return;
        }
    }

    /// Answers a `GET`/`HEAD` for a fully cached page on this thread: looks
    /// it up, renders it and arms the response. `false` — nothing armed,
    /// counted or traced — for any other request: the worker pool's.
    fn answer_cached(&mut self, slot: usize, req: &Request, ctx: &Option<trace::Ctx>) -> bool {
        if req.method == Method::Other || !req.path.starts_with("/page/") {
            return false;
        }
        // The spans a worker records, under the same root.
        let entered = ctx.as_ref().map(trace::enter);
        let mut hspan = trace::span("serve.handle", trace::Layer::Serve);
        self.body.clear();
        if !self.server.cached_page(&req.path, &mut self.body) {
            hspan.cancel();
            return false;
        }
        let keep = req.keep_alive && !self.shutdown.load(Ordering::Acquire);
        let (body, head) = (&self.body, req.method == Method::Head);
        let conn = self.conns[slot].as_mut().unwrap();
        conn.wbuf.clear();
        http::encode_response(&mut conn.wbuf, "200 OK", http::CT_HTML, body, keep, head);
        hspan.attr_u64("status", 200);
        hspan.attr_u64("bytes", conn.wbuf.len() as u64);
        // The handle span's time must be in the root's child accounting
        // before the write phase starts.
        drop((hspan, entered));
        if let Some(root) = conn.trace.as_mut() {
            root.attr_u64("status", 200);
        }
        conn.arm_response(false, !keep);
        self.server.metrics.counts.requests_inline.inc();
        true
    }

    /// Arms a loop-generated error response (4xx, 503) and starts flushing.
    /// The connection always closes afterwards: the request stream is not
    /// trustworthy past a framing error.
    fn respond_error(&mut self, slot: usize, status: &str, what: &str) {
        let conn = self.conns[slot].as_mut().unwrap();
        conn.wbuf.clear();
        http::encode_error(&mut conn.wbuf, status, what);
        conn.arm_response(true, true);
        self.pump_write(slot);
    }

    fn complete(&mut self, done: Completion) {
        let Some(conn) = self.conns.get_mut(done.slot).and_then(Option::as_mut) else {
            return; // connection died while the worker computed
        };
        if conn.generation != done.generation || conn.state != ConnState::Dispatched {
            return; // slot was recycled; response belongs to a dead conn
        }
        if let Some(root) = conn.trace.as_mut() {
            root.attr_u64("status", done.status);
        }
        conn.wbuf = done.bytes;
        conn.arm_response(done.status / 100 != 2, done.close_after);
        self.server.metrics.counts.requests_dispatched.inc();
        if self.pump_write(done.slot) {
            self.advance(done.slot);
        }
    }

    /// Flushes the armed response. `true` when it is on the wire and the
    /// connection's next request is already buffered: the caller owes it an
    /// [`Self::advance`], which loops — called from here it would recurse
    /// once per pipelined request.
    fn pump_write(&mut self, slot: usize) -> bool {
        let conn = self.conns[slot].as_mut().unwrap();
        match conn.flush() {
            Flush::Done => self.finish_response(slot),
            // The kernel buffer is full: only now is writability worth
            // polling for (the common case flushes in one call with no
            // interest churn).
            Flush::Blocked => {
                self.set_interest(slot, Event::writable(slot + 1));
                false
            }
            Flush::Broken => {
                // The request was processed even if the peer vanished
                // before the bytes landed; keep the counters honest.
                self.record_response(slot);
                self.close(slot);
                false
            }
        }
    }

    /// Ends the in-flight request's trace and counts it.
    fn record_response(&mut self, slot: usize) {
        let conn = self.conns[slot].as_mut().unwrap();
        finish_trace(conn);
        if !conn.rejected {
            self.server
                .metrics
                .record(conn.req_started.elapsed(), conn.pending_is_error);
        }
    }

    /// Books a response that is on the wire; `true` as [`Self::pump_write`].
    fn finish_response(&mut self, slot: usize) -> bool {
        self.record_response(slot);
        let conn = self.conns[slot].as_mut().unwrap();
        conn.served += 1;
        if conn.wbuf.capacity() > KEEP_BUFFER {
            conn.wbuf = Vec::new();
        }
        if conn.close_after_write || self.draining {
            self.close(slot);
            return false;
        }
        conn.state = ConnState::Idle;
        conn.req_started = Instant::now();
        conn.deadline = Some(conn.req_started + self.server.config.request_timeout);
        if conn.has_partial() {
            // Pipelined successor already buffered: it began "arriving"
            // now for deadline purposes.
            conn.state = ConnState::Reading;
            conn.trace = self
                .server
                .recorder()
                .map(|rec| rec.begin_request("request"));
            return true;
        }
        self.set_interest(slot, Event::readable(slot + 1));
        false
    }

    // ---- deadlines and drain -----------------------------------------------

    fn sweep_deadlines(&mut self, now: Instant) {
        for slot in 0..self.conns.len() {
            let Some(conn) = self.conns[slot].as_ref() else {
                continue;
            };
            let Some(deadline) = conn.deadline else {
                continue;
            };
            if now < deadline {
                continue;
            }
            match conn.state {
                // Keep-alive connection resting between requests: expiry
                // is normal lifecycle, close silently.
                ConnState::Idle if conn.served > 0 => self.close(slot),
                // Never spoke, or dribbled a partial head past the
                // whole-request deadline (the slow-loris cut): 408.
                ConnState::Idle | ConnState::Reading => {
                    self.respond_error(slot, "408 Request Timeout", "request timeout");
                }
                _ => {}
            }
        }
    }

    fn enter_drain(&mut self) {
        if !self.draining {
            self.draining = true;
            self.accept_resume_at = None;
            self.unregister_listener();
        }
        // In-flight requests (Dispatched/Writing) finish; waiting
        // connections are cut loose.
        for slot in 0..self.conns.len() {
            if let Some(conn) = self.conns[slot].as_ref() {
                if matches!(conn.state, ConnState::Idle | ConnState::Reading) {
                    self.close(slot);
                }
            }
        }
    }

    // ---- bookkeeping -------------------------------------------------------

    /// Points the poller's interest in a connection at `interest`: no call
    /// when it is there already, which is the whole life of a connection
    /// whose requests are all answered on the loop. No interest means not
    /// registered: a level-triggered poller reports a registered socket's
    /// hang-up and error conditions whether asked to or not, and a request
    /// that is with a worker must not wake the loop whatever its peer does.
    fn set_interest(&mut self, slot: usize, interest: Event) {
        let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) else {
            return;
        };
        if conn.interest == interest {
            return;
        }
        let none = Event::none(slot + 1);
        let moved = if interest == none {
            self.poller.delete(&conn.stream)
        } else if conn.interest == none {
            self.poller.add(&conn.stream, interest)
        } else {
            self.poller.modify(&conn.stream, interest)
        };
        if moved.is_ok() {
            conn.interest = interest;
        }
    }

    fn close(&mut self, slot: usize) {
        if let Some(mut conn) = self.conns[slot].take() {
            // A request cut short (deadline, drain, dead worker) still
            // finishes its trace so slow/parked requests stay visible.
            finish_trace(&mut conn);
            if conn.interest != Event::none(slot + 1) {
                let _ = self.poller.delete(&conn.stream);
            }
            self.free.push(slot);
        }
    }

    fn open_count(&self) -> usize {
        self.conns.iter().filter(|c| c.is_some()).count()
    }

    fn next_timeout(&self) -> Duration {
        let now = Instant::now();
        let mut next: Option<Instant> = self.accept_resume_at;
        for conn in self.conns.iter().flatten() {
            if let Some(d) = conn.deadline {
                next = Some(next.map_or(d, |n| n.min(d)));
            }
        }
        match next {
            Some(at) => at.saturating_duration_since(now).min(IDLE_TICK),
            None => IDLE_TICK,
        }
    }

    fn publish_gauges(&self) {
        let (mut open, mut idle, mut reading, mut writing) = (0u64, 0u64, 0u64, 0u64);
        for conn in self.conns.iter().flatten() {
            open += 1;
            match conn.state {
                ConnState::Idle => idle += 1,
                ConnState::Reading => reading += 1,
                ConnState::Writing => writing += 1,
                ConnState::Dispatched => {}
            }
        }
        let counts = &self.server.metrics.counts;
        counts.connections_open.set(open);
        counts.connections_idle.set(idle);
        counts.connections_reading.set(reading);
        counts.connections_writing.set(writing);
    }
}
