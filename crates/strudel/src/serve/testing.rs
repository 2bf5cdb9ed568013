//! Test support shared by this crate's unit tests and the integration
//! tests: a two-article demo site, a one-shot client, and a live
//! [`Server`] for the duration of a client body.
//!
//! Serve tests assert on the client side while `serve` blocks another
//! thread, and only `/quit` ends `serve`. [`with_client`] ties the two
//! together so that a failed assertion fails the test instead of leaving
//! `serve` blocked forever.

use super::Server;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::Duration;

/// Hard limit on one [`with_client`] call. Past it the process aborts: a
/// wedged server or client then fails the run rather than hanging it.
pub const DEADLINE: Duration = Duration::from_secs(30);

/// Two articles behind a front page: `/page/FrontPage` links a `Story` to
/// each `Page(a)`, which carries the article's attributes.
pub fn demo_site() -> (strudel_graph::Graph, strudel_struql::Query) {
    let data = strudel_graph::ddl::parse(
        r#"
object a1 in Articles { headline "one" section "world" }
object a2 in Articles { headline "two" section "world" }
"#,
    )
    .expect("demo data parses");
    let query = strudel_struql::parse_query(
        r#"CREATE FrontPage()
           { WHERE Articles(a), a -> l -> v
             CREATE Page(a)
             LINK Page(a) -> l -> v, FrontPage() -> "Story" -> Page(a) }"#,
    )
    .expect("demo query parses");
    (data, query)
}

/// One-shot `Connection: close` fetch; returns the whole response text.
pub fn fetch(addr: SocketAddr, path: &str) -> String {
    request(addr, path, Duration::from_secs(10)).expect("fetch")
}

fn request(addr: SocketAddr, path: &str, timeout: Duration) -> std::io::Result<String> {
    let mut s = TcpStream::connect_timeout(&addr, timeout)?;
    s.set_read_timeout(Some(timeout))?;
    s.set_write_timeout(Some(timeout))?;
    s.write_all(format!("GET {path} HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n").as_bytes())?;
    let mut buf = String::new();
    s.read_to_string(&mut buf)?;
    Ok(buf)
}

/// Serves `server` on a scoped thread while `client` runs against its
/// address, then stops it with `/quit` — also when `client` panics — and
/// joins it. Returns `client`'s result, or resumes its panic once the
/// server has stopped.
pub fn with_client<R>(server: &Server<'_>, client: impl FnOnce(SocketAddr) -> R) -> R {
    let addr = server.addr().expect("bound address");
    std::thread::scope(|scope| {
        // Dropped when this closure returns or unwinds, which disarms the
        // watchdog before the scope joins it.
        let (_finished, deadline) = mpsc::channel::<()>();
        scope.spawn(move || {
            if deadline.recv_timeout(DEADLINE) == Err(RecvTimeoutError::Timeout) {
                eprintln!("serve test still running after {DEADLINE:?}: aborting");
                std::process::abort();
            }
        });
        // On a small stack: the loop answers cached pages itself, and a burst
        // of pipelined ones must cost it iterations, not frames.
        let serving = std::thread::Builder::new()
            .stack_size(256 * 1024)
            .spawn_scoped(scope, || server.serve(None))
            .expect("spawn the serving thread");
        let out = {
            let _quit = QuitOnDrop(addr);
            client(addr)
        };
        serving
            .join()
            .expect("server thread panicked")
            .expect("serve failed");
        out
    })
}

/// Sends `GET /quit` when dropped. Runs during unwinding, so every error
/// is ignored: a server that cannot be stopped is left to the deadline.
struct QuitOnDrop(SocketAddr);

impl Drop for QuitOnDrop {
    fn drop(&mut self) {
        // A server at its admission cap answers 503 until it has noticed
        // that the client's connections are gone; ask again. Ten attempts
        // of a second each stay inside the deadline, so a server that is
        // already dead still lets the client's panic through.
        for _ in 0..10 {
            let answer = request(self.0, "/quit", Duration::from_secs(1));
            if answer.is_ok_and(|resp| resp.starts_with("HTTP/1.1 200")) {
                return;
            }
            std::thread::sleep(Duration::from_millis(50));
        }
    }
}
