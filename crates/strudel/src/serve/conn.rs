//! One non-blocking connection in the event-driven serving tier.
//!
//! A connection is a little state machine driven entirely by the event
//! loop (`serve::event`):
//!
//! ```text
//!            first byte                 head complete, a miss
//!   Idle ───────────────▶ Reading ─────────────────▶ Dispatched
//!    ▲                       │                            │ worker done
//!    │                       │ a cached page, or          ▼
//!    │                       │ deadline / garbage
//!    └────── keep-alive ── Writing ◀──────────────────────┘
//!             (flush done)
//! ```
//!
//! A request the loop answers itself (a page-cache hit, a 4xx) goes from
//! `Reading` straight to `Writing`, under the read interest the poller
//! already holds ([`Conn::interest`]).
//!
//! The whole-request deadline is armed once, when the first byte of a
//! request arrives (or at accept for a connection that never speaks), and
//! is *not* re-armed by later reads — a client dribbling one byte per
//! almost-timeout can no longer hold the connection open indefinitely
//! (the slow-loris window the per-read timeout reset used to leave).

use polling::Event;
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};
use strudel_obs::trace;

/// Connection states, as surfaced by the `strudel_connections_*` gauges.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum ConnState {
    /// Open, no bytes of a request pending (fresh, or between keep-alive
    /// requests).
    Idle,
    /// A partial request head is buffered; the whole-request deadline is
    /// running.
    Reading,
    /// A complete request is with the worker pool; the socket is quiet.
    Dispatched,
    /// Response bytes are draining to the socket.
    Writing,
}

/// Outcome of pumping readable bytes into the buffer.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum Fill {
    /// Got ≥1 byte (more may remain in the kernel; the poller is
    /// level-triggered and reports the socket again).
    Progress,
    /// Readable but nothing new yet (spurious wakeup).
    Blocked,
    /// Orderly EOF from the peer, and not a byte before it in this call:
    /// whatever is buffered has been parsed already.
    PeerClosed,
    /// Hard socket error; the connection is unusable.
    Broken,
}

/// Outcome of flushing the write buffer.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum Flush {
    /// The whole response is on the wire.
    Done,
    /// The kernel buffer filled; wait for writability.
    Blocked,
    /// Hard socket error; the connection is unusable.
    Broken,
}

pub(crate) struct Conn {
    pub stream: TcpStream,
    pub state: ConnState,
    /// The interest the poller holds for `stream` (the loop's
    /// `set_interest` keeps the two in step).
    pub interest: Event,
    /// Guards the slot against reuse races: a worker completion carries the
    /// generation it was dispatched under and is dropped on mismatch.
    pub generation: u64,
    pub rbuf: Vec<u8>,
    pub wbuf: Vec<u8>,
    pub wpos: usize,
    /// Whole-request (or idle) deadline; `None` while the request is with
    /// a worker or the response is draining.
    pub deadline: Option<Instant>,
    /// Responses completed on this connection.
    pub served: u64,
    pub close_after_write: bool,
    /// Whether the drained response counts as a 4xx/5xx.
    pub pending_is_error: bool,
    /// Turned away by admission control: the queued 503 counts only under
    /// `admission_rejected`, never as a request or an error (the router
    /// never saw it, and it would skew the error rate it exists to cap).
    pub rejected: bool,
    /// When the in-flight request began (first byte; accept time for a
    /// connection's first).
    pub req_started: Instant,
    /// Root tracing span of the in-flight request (present only on a server
    /// with a recorder); finished when the response drains or the
    /// connection dies.
    pub trace: Option<trace::RootSpan>,
    /// Flight-recorder timestamp (ns) when the response was queued —
    /// the start of the `serve.write` phase span.
    pub trace_write_ns: u64,
}

impl Conn {
    /// A connection registered with the poller under `interest`.
    pub fn new(stream: TcpStream, interest: Event, generation: u64, timeout: Duration) -> Self {
        let now = Instant::now();
        Conn {
            stream,
            state: ConnState::Idle,
            interest,
            generation,
            rbuf: Vec::new(),
            wbuf: Vec::new(),
            wpos: 0,
            deadline: Some(now + timeout),
            served: 0,
            close_after_write: false,
            pending_is_error: false,
            rejected: false,
            req_started: now,
            trace: None,
            trace_write_ns: 0,
        }
    }

    /// Whether any byte of the current request has arrived.
    pub fn has_partial(&self) -> bool {
        !self.rbuf.is_empty()
    }

    /// Reads until a short read (the socket is empty: no second call just
    /// to hear `WouldBlock`), EOF, or the buffer cap. Never blocks. An EOF
    /// behind bytes read in this call is left for the next call to report:
    /// those bytes may complete a request, and a client may well send one
    /// and shut down its writing side.
    pub fn fill(&mut self, cap: usize) -> Fill {
        let mut chunk = [0u8; 4096];
        let mut got = false;
        loop {
            if self.rbuf.len() >= cap {
                return Fill::Progress; // parser will judge the size
            }
            match self.stream.read(&mut chunk) {
                Ok(0) if got => return Fill::Progress,
                Ok(0) => return Fill::PeerClosed,
                Ok(n) => {
                    self.rbuf.extend_from_slice(&chunk[..n]);
                    if n < chunk.len() {
                        return Fill::Progress;
                    }
                    got = true;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    return if got { Fill::Progress } else { Fill::Blocked };
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => return Fill::Broken,
            }
        }
    }

    /// Arms the response encoded into `wbuf` (an allocation the loop reuses
    /// from answer to answer). `Flush` it to make progress.
    pub fn arm_response(&mut self, is_error: bool, close_after: bool) {
        if let Some(root) = &self.trace {
            self.trace_write_ns = root.now_ns();
        }
        self.wpos = 0;
        self.pending_is_error = is_error;
        self.close_after_write = close_after;
        self.state = ConnState::Writing;
        self.deadline = None;
    }

    /// Writes until done or `WouldBlock`. Never blocks.
    pub fn flush(&mut self) -> Flush {
        while self.wpos < self.wbuf.len() {
            match self.stream.write(&self.wbuf[self.wpos..]) {
                Ok(0) => return Flush::Broken,
                Ok(n) => self.wpos += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Flush::Blocked,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => return Flush::Broken,
            }
        }
        Flush::Done
    }
}
