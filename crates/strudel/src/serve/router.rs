//! Routing: mapping a parsed request to `(status, content-type, body)`.
//!
//! The event loop asks [`Server::cached_page`] for a page it can answer
//! itself and its workers call [`Server::route_request`] for the rest; both
//! render a page body through [`render_page`]. Everything here is `&self`
//! over the shared [`DynamicSite`] and the lock-free metrics, so routing
//! needs no coordination with the connection layer.
//!
//! [`DynamicSite`]: strudel_site::DynamicSite

use super::http::{Method, Request, CT_HTML, CT_JSON, CT_PROM, CT_TEXT};
use super::url::{escape, parse_page_url, render_links};
use super::Server;
use std::sync::atomic::{AtomicBool, Ordering};
use strudel_obs::trace;
use strudel_site::{OutLink, PageRef, Target};

/// Renders click-time page `page`, which has these `n` links, into the
/// empty `body`: every `/page/…` answer, cached or computed.
fn render_page<'a>(
    body: &mut String,
    page: &PageRef,
    n: usize,
    links: impl Iterator<Item = &'a OutLink>,
) {
    let mut rspan = trace::span("render.page", trace::Layer::Render);
    body.reserve(192 + n * 96);
    let title = format_args!("{page} — {n} links (click time)");
    render_links(body, title, links);
    rspan.attr_u64("links", n as u64);
    rspan.attr_u64("bytes", body.len() as u64);
}

impl Server<'_> {
    /// The event loop's half of a `/page/…` request: when every link clause
    /// of the page is cached ([`strudel_site::DynamicSite::lookup`]), renders
    /// the `200 OK` [`CT_HTML`] body into the empty `body`. Anything else
    /// (not a page path, a malformed reference, a clause to evaluate) is
    /// declined with nothing written, counted or traced: it belongs to
    /// [`Server::route_request`] on a worker.
    pub(super) fn cached_page(&self, raw_path: &str, body: &mut String) -> bool {
        let path = raw_path.split_once('?').map_or(raw_path, |(path, _)| path);
        let Some(page) = parse_page_url(path) else {
            return false;
        };
        let Some(links) = self.site.lookup(&page) else {
            return false;
        };
        render_page(body, &page, links.len(), links.iter());
        true
    }

    /// Answers one fully parsed request. `HEAD` routes exactly like `GET`
    /// (the connection layer drops the body when serializing); other
    /// methods are refused. `/quit` flips the shared shutdown flag.
    pub(super) fn route_request(
        &self,
        req: &Request,
        shutdown: &AtomicBool,
    ) -> (String, &'static str, String) {
        match req.method {
            Method::Other => (
                "405 Method Not Allowed".into(),
                CT_HTML,
                "<html><body>only GET and HEAD are supported</body></html>".into(),
            ),
            Method::Get | Method::Head => {
                if req.path == "/quit" {
                    shutdown.store(true, Ordering::Release);
                    ("200 OK".into(), CT_HTML, "bye".into())
                } else {
                    self.route(&req.path)
                }
            }
        }
    }

    /// Computes the `(status, content-type, body)` answer for one path.
    /// A query string (`?format=chrome`) is split off before matching.
    fn route(&self, raw_path: &str) -> (String, &'static str, String) {
        let (path, query) = match raw_path.split_once('?') {
            Some((p, q)) => (p, q),
            None => (raw_path, ""),
        };
        if path == "/" {
            let links: Vec<OutLink> = self
                .roots
                .iter()
                .map(|r| OutLink {
                    label: "root".into(),
                    target: Target::Page(r.clone()),
                })
                .collect();
            let mut body = String::new();
            let title = format_args!("Site roots (precomputed)");
            render_links(&mut body, title, links.iter());
            return ("200 OK".into(), CT_HTML, body);
        }
        // One scrape, two formats: what the signals are and how each is read
        // is declared beside its owner (`Server::scrape`).
        if path == "/stats" {
            return ("200 OK".into(), CT_JSON, self.scrape().to_json());
        }
        if path == "/metrics" {
            return ("200 OK".into(), CT_PROM, self.scrape().to_prometheus());
        }
        if path == "/healthz" {
            return if self.is_ready() {
                ("200 OK".into(), CT_TEXT, "ok\n".into())
            } else {
                (
                    "503 Service Unavailable".into(),
                    CT_TEXT,
                    "starting\n".into(),
                )
            };
        }
        if path == "/debug/traces" {
            let chrome = query.split('&').any(|kv| kv == "format=chrome");
            let body = match (&self.recorder, chrome) {
                (Some(rec), true) => rec.traces_chrome(),
                (Some(rec), false) => rec.traces_json(),
                (None, true) => "[]".into(),
                (None, false) => "{\"traces\":[]}".into(),
            };
            return ("200 OK".into(), CT_JSON, body);
        }
        if path.starts_with("/page/") {
            let Some(page) = parse_page_url(path) else {
                return (
                    "400 Bad Request".into(),
                    CT_HTML,
                    "<html><body>bad page ref</body></html>".into(),
                );
            };
            return match self.site.expand(&page) {
                Ok(links) => {
                    let mut body = String::new();
                    render_page(&mut body, &page, links.len(), links.iter());
                    ("200 OK".into(), CT_HTML, body)
                }
                Err(e) => (
                    "500 Internal Server Error".into(),
                    CT_HTML,
                    format!(
                        "<html><body>query error: {}</body></html>",
                        escape(&e.to_string())
                    ),
                ),
            };
        }
        (
            "404 Not Found".into(),
            CT_HTML,
            "<html><body>no such page</body></html>".into(),
        )
    }
}
