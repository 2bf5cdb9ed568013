//! The HTML generator (§2.5, §4).
//!
//! "Given an object and its HTML template, the HTML generator evaluates all
//! expressions in the template, concatenates them together, and produces
//! plain HTML text. It either emits the HTML value as a page or embeds the
//! value in pages that refer to that object."
//!
//! Template selection, per §4: for every internal object the generator
//! selects (1) an object-specific template, (2) the template named by the
//! object's `HTML-template` attribute, or (3) the template associated with a
//! collection the object belongs to.
//!
//! The page-vs-component decision is delayed until generation: an internal
//! object referenced by an `SFMT` becomes a *link to its own page* by
//! default, and is *embedded* when the `EMBED` directive says so.
//!
//! A run has two parts. The *name pass* walks the members of the site graph
//! once, on the calling thread, and fixes in a [`Plan`] what all pages must
//! agree on: each object's template (selected once), its file name (member
//! order decides who keeps `{base}.html`), and the graph symbol of every
//! identifier the templates mention. Pages are then found in breadth-first
//! waves whose workers share the plan read-only and claim blocks of the
//! frontier off a cursor. A [`Worker`] owns only its stacks; it appends a
//! whole page into one `String`, reading values where the graph holds them.
//! Blocks merge in frontier order: no byte depends on the worker count.

use crate::ast::*;
use crate::error::{Result, TemplateError};
use crate::parse::parse_template_in;
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use strudel_graph::fxhash::{FxHashMap, FxHashSet};
use strudel_graph::graph::GraphReader;
use strudel_graph::{FileKind, Graph, Oid, Sym, Value};
use strudel_obs::trace;

/// Resolves an external file reference (e.g. `abstracts/icde98.txt`) to its
/// textual contents so it can be embedded. Returning `None` falls back to a
/// link.
pub type FileResolver = Box<dyn Fn(&str) -> Option<String> + Send + Sync>;

/// The set of templates available to the generator, with the §4 selection
/// precedence.
#[derive(Default)]
pub struct TemplateSet {
    by_object: FxHashMap<Oid, Template>,
    named: BTreeMap<String, Template>,
    by_collection: Vec<(String, Template)>,
    default: Option<Template>,
    /// Every identifier the templates mention, each once ([`Name::slot`]).
    names: Vec<String>,
}

impl TemplateSet {
    /// An empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Associates a template with a single object (highest precedence).
    pub fn set_object_template(&mut self, n: Oid, src: &str) -> Result<()> {
        self.by_object
            .insert(n, parse_template_in(src, &mut self.names)?);
        Ok(())
    }

    /// Registers a template under a name, addressable from an object's
    /// `HTML-template` attribute.
    pub fn set_named(&mut self, name: &str, src: &str) -> Result<()> {
        self.named
            .insert(name.to_string(), parse_template_in(src, &mut self.names)?);
        Ok(())
    }

    /// Associates a template with every member of a collection. "Associating
    /// an HTML template with a collection of objects allows the user to
    /// produce the same look and feel for related pages."
    pub fn set_collection_template(&mut self, collection: &str, src: &str) -> Result<()> {
        let t = parse_template_in(src, &mut self.names)?;
        if let Some(slot) = self.by_collection.iter_mut().find(|(c, _)| c == collection) {
            slot.1 = t;
        } else {
            self.by_collection.push((collection.to_string(), t));
        }
        Ok(())
    }

    /// Sets a fallback template used when nothing else matches.
    pub fn set_default(&mut self, src: &str) -> Result<()> {
        self.default = Some(parse_template_in(src, &mut self.names)?);
        Ok(())
    }

    /// Number of registered templates.
    pub fn len(&self) -> usize {
        self.by_object.len()
            + self.named.len()
            + self.by_collection.len()
            + usize::from(self.default.is_some())
    }

    /// Whether no templates are registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A generated, browsable web site: file name → HTML text.
#[derive(Debug, Default)]
pub struct GeneratedSite {
    /// The emitted pages, keyed by file name.
    pub pages: BTreeMap<String, String>,
    /// Which page realizes which node.
    pub page_of: FxHashMap<Oid, String>,
    /// Non-fatal generation warnings.
    pub warnings: Vec<String>,
    /// Per-page render wall-clock times `(file name, microseconds)`, in
    /// emission order. Populated only when [`Generator::with_timings`] was
    /// enabled; empty otherwise (the disabled path never reads the clock).
    pub render_us: Vec<(String, u64)>,
}

impl GeneratedSite {
    /// Total size of the emitted HTML, in bytes.
    pub fn total_bytes(&self) -> usize {
        self.pages.values().map(String::len).sum()
    }

    /// Writes every page into `dir` (created if missing).
    ///
    /// Each page is published atomically (temp file + rename), so a crash
    /// or concurrent reader mid-republication sees either the old page or
    /// the new one — never a torn or empty file; one directory fsync at the
    /// end makes the batch durable.
    pub fn write_to_dir(&self, dir: &Path) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        for (name, html) in &self.pages {
            strudel_graph::fsio::atomic_write_in(dir, name, html.as_bytes())?;
        }
        strudel_graph::fsio::fsync_dir(dir)
    }
}

/// The HTML generator: renders a site graph through a [`TemplateSet`].
pub struct Generator<'g> {
    graph: &'g Graph,
    templates: &'g TemplateSet,
    file_resolver: Option<FileResolver>,
    timings: bool,
}

impl<'g> Generator<'g> {
    /// Creates a generator over a site graph.
    pub fn new(graph: &'g Graph, templates: &'g TemplateSet) -> Self {
        Generator {
            graph,
            templates,
            file_resolver: None,
            timings: false,
        }
    }

    /// Installs a resolver for embedding text/HTML file contents.
    pub fn with_file_resolver(mut self, resolver: FileResolver) -> Self {
        self.file_resolver = Some(resolver);
        self
    }

    /// Records per-page render times into [`GeneratedSite::render_us`].
    pub fn with_timings(mut self, on: bool) -> Self {
        self.timings = on;
        self
    }

    /// Generates the browsable site starting from `roots` (each root is
    /// realized as a page; further pages are discovered through links):
    /// [`Generator::generate_parallel`] at one worker, on this thread.
    pub fn generate(&self, roots: &[Oid]) -> Result<GeneratedSite> {
        self.generate_parallel(roots, 1)
    }

    /// Generates starting from every node of a named collection (the usual
    /// `COLLECT Roots(...)` convention).
    pub fn generate_from_collection(&self, collection: &str) -> Result<GeneratedSite> {
        let roots: Vec<Oid> = self
            .graph
            .collection_str(collection)
            .map(|c| c.items().iter().filter_map(Value::as_node).collect())
            .unwrap_or_default();
        self.generate(&roots)
    }

    /// Renders a single object to an HTML fragment without emitting pages
    /// for anything it links to. Useful for testing templates.
    pub fn render_fragment(&self, n: Oid) -> Result<String> {
        let reader = self.graph.reader();
        let plan = self.plan(&reader);
        let no_template = || format!("no template for object {}", plan.name(n));
        let ix = *(plan.index.get(&n)).ok_or_else(|| TemplateError::render(no_template()))?;
        let mut blocks = plan.render_wave(&mut [Worker::default()], &[ix], None)?;
        Ok(blocks.remove(0).pages.remove(0).1)
    }

    /// Like [`Generator::generate`], on up to `threads` workers: the same
    /// pages, names, `warnings` and `render_us` at every count. An object
    /// becomes a page when it is a member of the site graph, has a template,
    /// and is a root or linked from a page. Objects whose names sanitize to
    /// one stem get `{base}.html`, `{base}-{oid}.html`, … in member order;
    /// no page is ever dropped. A worker that panics — a [`FileResolver`]
    /// can — fails the run with a render error carrying the panic's message.
    pub fn generate_parallel(&self, roots: &[Oid], threads: usize) -> Result<GeneratedSite> {
        let reader = self.graph.reader();
        let mut plan = self.plan(&reader);
        let mut site = GeneratedSite::default();
        let mut found: Vec<u32> = Vec::new();
        for &r in roots {
            match plan.index.get(&r) {
                Some(&ix) => found.push(ix),
                None => (site.warnings).push(format!("root node {} has no template", r.0)),
            }
        }
        let mut workers: Vec<Worker> = Vec::new();
        workers.resize_with(threads.max(1), Worker::default);
        // The coordinator's trace context (if any), so that render spans
        // emitted on worker threads still parent under the caller's span.
        let trace_ctx = trace::current();
        let mut scheduled = vec![false; plan.pages.len()];
        let mut frontier: Vec<u32> = Vec::new();
        let mut rendered = Vec::new();
        loop {
            frontier.clear();
            for ix in found.drain(..) {
                if !std::mem::replace(&mut scheduled[ix as usize], true) {
                    frontier.push(ix);
                }
            }
            if frontier.is_empty() {
                break;
            }
            for block in plan.render_wave(&mut workers, &frontier, trace_ctx.as_ref())? {
                rendered.extend(block.pages);
                site.warnings.extend(block.warnings);
                found.extend(block.found);
            }
        }
        drop(workers);

        let mut pages = Vec::with_capacity(rendered.len());
        for (ix, html, us) in rendered {
            let page = &mut plan.pages[ix as usize];
            let file = std::mem::take(&mut page.file);
            if self.timings {
                site.render_us.push((file.clone(), us));
            }
            site.page_of.insert(page.node, file.clone());
            pages.push((file, html));
        }
        site.pages = pages.into_iter().collect();
        Ok(site)
    }

    /// The name pass.
    fn plan<'r>(&'r self, reader: &'r GraphReader<'r>) -> Plan<'r> {
        let (graph, set) = (self.graph, self.templates);
        let interner = graph.universe().interner();
        // The §4 precedence, with its names looked up once.
        let html_template = interner.get("HTML-template");
        let collections: Vec<_> = (set.by_collection.iter())
            .filter_map(|(name, t)| Some((graph.collection_str(name)?, t)))
            .collect();
        let select = |n: Oid| {
            let named = || reader.attr(n, html_template?)?.text();
            let member = Value::Node(n);
            let by_collection = || collections.iter().find(|(c, _)| c.contains(&member));
            (set.by_object.get(&n))
                .or_else(|| set.named.get(&*named()?))
                .or_else(|| Some(by_collection()?.1))
                .or(set.default.as_ref())
        };
        let mut used = FxHashSet::default();
        let mut pages = Vec::new();
        let mut index = FxHashMap::default();
        for &n in graph.nodes() {
            if let Some(template) = select(n) {
                let base = match reader.name(n) {
                    Some(name) => sanitize(name),
                    None => format!("node{}", n.0),
                };
                index.insert(n, pages.len() as u32);
                pages.push(Page {
                    node: n,
                    template,
                    file: assign_unique_name(&mut used, &base, n),
                });
            }
        }
        Plan {
            reader,
            syms: set.names.iter().map(|name| interner.get(name)).collect(),
            pages,
            index,
            generator: self,
        }
    }
}

/// What the name pass fixes for a run; workers share it read-only.
struct Plan<'r> {
    reader: &'r GraphReader<'r>,
    /// [`Name::slot`] → the graph's symbol for that identifier; `None` for
    /// one the graph never interned, an attribute without values.
    syms: Vec<Option<Sym>>,
    /// The templated members of the graph, in member order.
    pages: Vec<Page<'r>>,
    /// Node → its place in `pages`.
    index: FxHashMap<Oid, u32>,
    generator: &'r Generator<'r>,
}

struct Page<'r> {
    node: Oid,
    template: &'r Template,
    file: String,
}

/// One block of a wave's frontier, rendered.
#[derive(Default)]
struct Block {
    /// Its place in the wave.
    at: usize,
    /// `(place in Plan::pages, html, render microseconds)`.
    pages: Vec<(u32, String, u64)>,
    /// Link targets, by place in `Plan::pages`: once per linking page.
    found: Vec<u32>,
    warnings: Vec<String>,
}

/// Loop variables in scope ([`Name::slot`] → value), innermost last.
type Scope<'r> = [(u32, &'r Value)];

/// What one worker owns while it renders.
#[derive(Default)]
struct Worker<'r> {
    scope: Vec<(u32, &'r Value)>,
    /// `(sort key, item)` of every list being enumerated, innermost last.
    items: Vec<(&'r Value, &'r Value)>,
    /// Objects currently being embedded, for cycle detection.
    embedding: Vec<Oid>,
    /// The page being rendered, as its place in `Plan::pages` plus one.
    page: u32,
    /// Per page, the `page` that linked to it last: each reports it once.
    linked_from: Vec<u32>,
    /// The block being rendered.
    block: Block,
}

impl<'r> Plan<'r> {
    /// Renders the pages of `frontier` on `workers` (on this thread when
    /// one is enough), in frontier order. A worker claims the next block
    /// off a shared cursor, so a run of expensive pages — a frontier lists
    /// pages type by type — is spread over all of them.
    fn render_wave(
        &'r self,
        workers: &mut [Worker<'r>],
        frontier: &[u32],
        trace_ctx: Option<&trace::Ctx>,
    ) -> Result<Vec<Block>> {
        let block_len = (frontier.len() / (workers.len() * 4)).clamp(1, 64);
        let cursor = AtomicUsize::new(0);
        // A failure carries its block's place: the earliest one is
        // reported, whichever worker met it.
        type Outcome = std::result::Result<Vec<Block>, (usize, TemplateError)>;
        let work = |w: &mut Worker<'r>| -> Outcome {
            let _trace = trace_ctx.map(trace::enter);
            let mut blocks = Vec::new();
            loop {
                let at = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(block) = frontier.chunks(block_len).nth(at) else {
                    return Ok(blocks);
                };
                w.block.at = at;
                for &ix in block {
                    let (html, us) = self.render_page(w, ix).map_err(|e| (at, e))?;
                    w.block.pages.push((ix, html, us));
                }
                blocks.push(std::mem::take(&mut w.block));
            }
        };
        let n_workers = workers.len().min(frontier.len().div_ceil(block_len));
        let outcomes: Vec<std::thread::Result<Outcome>> = if n_workers == 1 {
            vec![catch_unwind(AssertUnwindSafe(|| work(&mut workers[0])))]
        } else {
            std::thread::scope(|scope| {
                let handles: Vec<_> = (workers[..n_workers].iter_mut())
                    .map(|w| scope.spawn(|| work(w)))
                    .collect();
                handles.into_iter().map(|h| h.join()).collect()
            })
        };
        let mut blocks = Vec::new();
        let mut failures = Vec::new();
        for outcome in outcomes {
            let outcome = outcome.unwrap_or_else(|panic| {
                let message = (panic.downcast_ref::<String>().map(String::as_str))
                    .or_else(|| panic.downcast_ref::<&str>().copied());
                let message = message.unwrap_or("(no message)");
                Err((
                    usize::MAX,
                    TemplateError::render(format!("render worker panicked: {message}")),
                ))
            });
            match outcome {
                Ok(done) => blocks.extend(done),
                Err(e) => failures.push(e),
            }
        }
        if let Some((_, e)) = failures.into_iter().min_by_key(|(at, _)| *at) {
            return Err(e);
        }
        blocks.sort_unstable_by_key(|block| block.at);
        Ok(blocks)
    }

    /// Renders page `ix` of `pages`; with timings, also in how many µs.
    fn render_page(&'r self, w: &mut Worker<'r>, ix: u32) -> Result<(String, u64)> {
        let page = &self.pages[ix as usize];
        let mut tspan = trace::span("render.page", trace::Layer::Render);
        let t = self.generator.timings.then(std::time::Instant::now);
        w.page = ix + 1;
        w.linked_from.resize(self.pages.len(), 0);
        let mut html = String::with_capacity(page.template.source.len());
        self.render_nodes(w, &page.template.nodes, page.node, &mut html)?;
        if tspan.is_live() {
            tspan.attr_text("file", &page.file);
            tspan.attr_u64("bytes", html.len() as u64);
        }
        Ok((html, t.map_or(0, |t| t.elapsed().as_micros() as u64)))
    }

    fn render_nodes(
        &'r self,
        w: &mut Worker<'r>,
        nodes: &'r [Node],
        ctx: Oid,
        out: &mut String,
    ) -> Result<()> {
        for node in nodes {
            match node {
                Node::Html(h) => out.push_str(h),
                Node::Fmt {
                    expr,
                    format,
                    all,
                    opts,
                } => self.render_list(w, expr, ctx, *all, opts, out, |w, item, out| {
                    self.render_value(w, item, format, ctx, out)
                })?,
                Node::If { cond, then, else_ } => {
                    let holds = self.eval_cond(&w.scope, cond, ctx);
                    self.render_nodes(w, if holds { then } else { else_ }, ctx, out)?;
                }
                Node::For {
                    var,
                    expr,
                    opts,
                    body,
                } => self.render_list(w, expr, ctx, true, opts, out, |w, item, out| {
                    w.scope.push((var.slot, item));
                    let rendered = self.render_nodes(w, body, ctx, out);
                    w.scope.pop();
                    rendered
                })?,
            }
        }
        Ok(())
    }

    /// Renders the values of `expr` — all of them, or the first — with
    /// `item`, in the order and the framing `opts` asks for. A sort key is
    /// computed once per item and is the item itself where the key
    /// attribute is missing; keys that do not compare order by their
    /// printed form; `descend` is the stable ascending order reversed, ties
    /// included. `DELIM` also separates items that render empty.
    #[allow(clippy::too_many_arguments)]
    fn render_list(
        &'r self,
        w: &mut Worker<'r>,
        expr: &AttrExpr,
        ctx: Oid,
        all: bool,
        opts: &EnumOpts,
        out: &mut String,
        mut item: impl FnMut(&mut Worker<'r>, &'r Value, &mut String) -> Result<()>,
    ) -> Result<()> {
        let from = w.items.len();
        self.values(&w.scope, expr, ctx, &mut |v| {
            w.items.push((v, v));
            all
        });
        if let (Some(order), list @ [_, _, ..]) = (opts.order, &mut w.items[from..]) {
            // The key path applies to the item itself.
            let path = opts.key.as_ref().map_or(&[][..], |key| &key.path);
            for (k, item) in list.iter_mut() {
                self.walk(item, path, &mut |v| {
                    *k = v;
                    false
                });
            }
            list.sort_by(|(a, _), (b, _)| {
                a.coerced_cmp(b)
                    .unwrap_or_else(|| a.to_string().cmp(&b.to_string()))
            });
            if order == SortOrder::Descend {
                list.reverse();
            }
        }
        let list = opts.list.map(|kind| match kind {
            ListKind::Ul => "ul",
            ListKind::Ol => "ol",
        });
        if let Some(tag) = list {
            let _ = write!(out, "<{tag}>");
        }
        for i in from..w.items.len() {
            let v = w.items[i].1;
            if list.is_some() {
                out.push_str("<li>");
                item(w, v, out)?;
                out.push_str("</li>");
            } else {
                if i > from {
                    out.push_str(opts.delim.as_deref().unwrap_or(""));
                }
                item(w, v, out)?;
            }
        }
        if let Some(tag) = list {
            let _ = write!(out, "</{tag}>");
        }
        w.items.truncate(from);
        Ok(())
    }

    /// Hands `f` the values of an attribute expression, in graph insertion
    /// order, until it returns `false`; so does the result. The first
    /// segment may be a loop variable, which shadows an attribute of that
    /// name; each further one traverses an attribute of reachable internal
    /// objects ("limited traversal of the site graph", §4).
    fn values(
        &self,
        scope: &Scope<'r>,
        expr: &AttrExpr,
        ctx: Oid,
        f: &mut impl FnMut(&'r Value) -> bool,
    ) -> bool {
        let first = &expr.path[0];
        match scope.iter().rev().find(|(slot, _)| *slot == first.slot) {
            Some((_, v)) => self.walk(v, &expr.path[1..], f),
            None => self.walk_attr(ctx, &expr.path, f),
        }
    }

    /// [`Plan::values`] of `path` applied to the value `v` itself.
    fn walk(&self, v: &'r Value, path: &[Name], f: &mut impl FnMut(&'r Value) -> bool) -> bool {
        match (path.is_empty(), v.as_node()) {
            (true, _) => f(v),
            (false, Some(n)) => self.walk_attr(n, path, f),
            (false, None) => true,
        }
    }

    fn walk_attr(&self, n: Oid, path: &[Name], f: &mut impl FnMut(&'r Value) -> bool) -> bool {
        let Some(sym) = self.syms[path[0].slot as usize] else {
            return true;
        };
        let mut values = self.reader.attr_values(n, sym);
        values.all(|v| self.walk(v, &path[1..], f))
    }

    /// The first value of an attribute expression.
    fn first(&self, scope: &Scope<'r>, expr: &AttrExpr, ctx: Oid) -> Option<&'r Value> {
        let mut first = None;
        self.values(scope, expr, ctx, &mut |v| {
            first = Some(v);
            false
        });
        first
    }

    fn scalar_of(&self, scope: &Scope<'r>, expr: &Expr, ctx: Oid) -> Option<Cow<'r, Value>> {
        Some(Cow::Owned(match expr {
            Expr::Attr(a) => return self.first(scope, a, ctx).map(Cow::Borrowed),
            Expr::Const(Constant::Bool(b)) => Value::Bool(*b),
            Expr::Const(Constant::Int(i)) => Value::Int(*i),
            Expr::Const(Constant::Float(f)) => Value::Float(*f),
            Expr::Const(Constant::Str(s)) => Value::str(s),
            Expr::Const(Constant::Null) => return None,
        }))
    }

    fn eval_cond(&self, scope: &Scope<'r>, cond: &Cond, ctx: Oid) -> bool {
        match cond {
            Cond::Test(e) => match self.scalar_of(scope, e, ctx).as_deref() {
                None => false,
                Some(Value::Bool(b)) => *b,
                Some(_) => true,
            },
            Cond::Cmp(l, op, r) => {
                let lv = self.scalar_of(scope, l, ctx);
                let rv = self.scalar_of(scope, r, ctx);
                match (lv, rv) {
                    (None, None) => matches!(op, Op::Eq),
                    (None, Some(_)) | (Some(_), None) => matches!(op, Op::Ne),
                    (Some(a), Some(b)) => {
                        use std::cmp::Ordering::*;
                        match op {
                            Op::Eq => a.coerced_eq(&b),
                            Op::Ne => !a.coerced_eq(&b),
                            Op::Lt => a.coerced_cmp(&b) == Some(Less),
                            Op::Le => matches!(a.coerced_cmp(&b), Some(Less | Equal)),
                            Op::Gt => a.coerced_cmp(&b) == Some(Greater),
                            Op::Ge => matches!(a.coerced_cmp(&b), Some(Greater | Equal)),
                        }
                    }
                }
            }
            Cond::And(a, b) => self.eval_cond(scope, a, ctx) && self.eval_cond(scope, b, ctx),
            Cond::Or(a, b) => self.eval_cond(scope, a, ctx) || self.eval_cond(scope, b, ctx),
            Cond::Not(c) => !self.eval_cond(scope, c, ctx),
        }
    }

    /// The text a `LINK=` tag gives a link, if it names one that has a value.
    fn tag_text(&self, scope: &Scope<'r>, format: &'r Format, ctx: Oid) -> Option<Cow<'r, str>> {
        let Format::Link(Some(tag)) = format else {
            return None;
        };
        Some(match tag {
            Tag::Str(s) => Cow::Borrowed(s.as_str()),
            Tag::Attr(a) => match self.first(scope, a, ctx)? {
                Value::Str(s) | Value::Url(s) | Value::File(_, s) => Cow::Borrowed(&**s),
                Value::Node(n) => Cow::Owned(format!("node{}", n.0)),
                number => Cow::Owned(number.to_string()),
            },
        })
    }

    /// The name an object shows under when no tag says otherwise.
    fn name(&self, n: Oid) -> Cow<'r, str> {
        match self.reader.name(n) {
            Some(name) => Cow::Borrowed(name),
            None => Cow::Owned(format!("node{}", n.0)),
        }
    }

    /// Type-specific rendering rules (§4).
    fn render_value(
        &'r self,
        w: &mut Worker<'r>,
        v: &'r Value,
        format: &'r Format,
        ctx: Oid,
        out: &mut String,
    ) -> Result<()> {
        let tag = self.tag_text(&w.scope, format, ctx);
        match v {
            // Numbers and booleans: nothing in them needs escaping.
            Value::Int(_) | Value::Float(_) | Value::Bool(_) => {
                let _ = write!(out, "{v}");
            }
            Value::Str(s) => escape_into(out, s),
            Value::Url(u) => link(out, u, tag.as_deref().unwrap_or(u)),
            Value::File(kind, path) => {
                let embeds = matches!(kind, FileKind::Text | FileKind::Html)
                    && matches!(format, Format::Default | Format::Embed);
                let contents = self.generator.file_resolver.as_ref().filter(|_| embeds);
                match (kind, contents.and_then(|resolve| resolve(path))) {
                    // Text and HTML files embed by default ("the attribute's
                    // HTML value is converted to a string and is embedded").
                    (FileKind::Text, Some(text)) => escape_into(out, &text),
                    (_, Some(html)) => out.push_str(&html),
                    (FileKind::Image, None) if !matches!(format, Format::Link(_)) => {
                        out.push_str("<img src=\"");
                        escape_into(out, path);
                        out.push_str("\" alt=\"");
                        escape_into(out, path);
                        out.push_str("\">");
                    }
                    // PostScript "should not be realized as strings. For
                    // these values, the HTML generator produces an
                    // appropriate link".
                    _ => link(out, path, tag.as_deref().unwrap_or(path)),
                }
            }
            Value::Node(n) => {
                let page = self.index.get(n).map(|&ix| (ix, &self.pages[ix as usize]));
                match (format, page) {
                    (Format::Embed, _) if w.embedding.contains(n) => {
                        let name = self.name(*n);
                        return Err(TemplateError::render(format!(
                            "EMBED cycle through object {name}"
                        )));
                    }
                    (Format::Embed, None) => {
                        let name = self.name(*n);
                        (w.block.warnings).push(format!("EMBED of template-less object {name}"));
                        escape_into(out, &name);
                    }
                    (Format::Embed, Some((_, page))) => {
                        // The embedded object's template sees none of this
                        // one's loop variables.
                        let outer = std::mem::take(&mut w.scope);
                        w.embedding.push(*n);
                        self.render_nodes(w, &page.template.nodes, *n, out)?;
                        w.embedding.pop();
                        w.scope = outer;
                    }
                    (_, Some((ix, page))) => {
                        if std::mem::replace(&mut w.linked_from[ix as usize], w.page) != w.page {
                            w.block.found.push(ix);
                        }
                        link(out, &page.file, &tag.unwrap_or_else(|| self.name(*n)));
                    }
                    (_, None) => {
                        let name = self.name(*n);
                        (w.block.warnings)
                            .push(format!("object {name} has no template; rendered as text"));
                        escape_into(out, &tag.unwrap_or(name));
                    }
                }
            }
        }
        Ok(())
    }
}

fn link(out: &mut String, href: &str, text: &str) {
    out.push_str("<a href=\"");
    escape_into(out, href);
    out.push_str("\">");
    escape_into(out, text);
    out.push_str("</a>");
}

/// HTML-escapes text content.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    escape_into(&mut out, s);
    out
}

/// Appends `s` HTML-escaped: unescaped runs go in as whole slices, a clean
/// string (the common case) in one.
fn escape_into(out: &mut String, s: &str) {
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        let rep = match b {
            b'&' => "&amp;",
            b'<' => "&lt;",
            b'>' => "&gt;",
            b'"' => "&quot;",
            _ => continue,
        };
        out.push_str(&s[run..i]);
        out.push_str(rep);
        run = i + 1;
    }
    out.push_str(&s[run..]);
}

/// Picks a page file name for `n` that is not yet in `used`, inserting it:
/// `{base}.html`, then `{base}-{oid}.html`, then `{base}-{oid}-{k}.html` for
/// k = 2, 3, ... — looping until the insert actually succeeds, so two
/// colliding objects can never be assigned the same file.
fn assign_unique_name(used: &mut FxHashSet<String>, base: &str, n: Oid) -> String {
    let mut file = format!("{base}.html");
    if used.insert(file.clone()) {
        return file;
    }
    file = format!("{base}-{}.html", n.0);
    let mut k = 2usize;
    while !used.insert(file.clone()) {
        file = format!("{base}-{}-{k}.html", n.0);
        k += 1;
    }
    file
}

/// Sanitizes an object name into a file-name stem: `YearPage(1997)` →
/// `yearpage_1997`, of at most 200 bytes: a file name may have 255, and
/// [`assign_unique_name`] appends up to `-{oid}-{k}.html`. The stem is
/// ASCII, so cutting it never splits a character; names alike for their
/// first 200 bytes are told apart like any other collision.
fn sanitize(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    let mut last_sep = true;
    for c in name.chars() {
        if c.is_ascii_alphanumeric() {
            out.push(c.to_ascii_lowercase());
            last_sep = false;
        } else if !last_sep {
            out.push('_');
            last_sep = true;
        }
    }
    out.truncate(200);
    while out.ends_with('_') {
        out.pop();
    }
    if out.is_empty() {
        out.push_str("page");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn site() -> (Graph, Oid, Oid) {
        let mut g = Graph::standalone();
        let root = g.new_node(Some("RootPage()"));
        let pub1 = g.new_node(Some("PaperPresentation(pub1)"));
        g.add_edge_str(root, "Paper", Value::Node(pub1)).unwrap();
        g.add_edge_str(pub1, "title", "Optimizing Regular Paths")
            .unwrap();
        g.add_edge_str(pub1, "author", "Mary Fernandez").unwrap();
        g.add_edge_str(pub1, "author", "Dan Suciu").unwrap();
        g.add_edge_str(pub1, "year", 1998i64).unwrap();
        g.add_edge_str(
            pub1,
            "postscript",
            Value::file(FileKind::PostScript, "papers/icde98.ps.gz"),
        )
        .unwrap();
        g.add_to_collection_str("Roots", Value::Node(root));
        g.add_to_collection_str("Papers", Value::Node(pub1));
        (g, root, pub1)
    }

    #[test]
    fn renders_scalar_attributes() {
        let (g, _, pub1) = site();
        let mut ts = TemplateSet::new();
        ts.set_object_template(pub1, "<h1><SFMT @title></h1> (<SFMT @year>)")
            .unwrap();
        let genr = Generator::new(&g, &ts);
        let html = genr.render_fragment(pub1).unwrap();
        assert_eq!(html, "<h1>Optimizing Regular Paths</h1> (1998)");
    }

    #[test]
    fn sfor_enumerates_multivalued_attributes() {
        let (g, _, pub1) = site();
        let mut ts = TemplateSet::new();
        ts.set_object_template(
            pub1,
            r#"By <SFOR a IN @author DELIM=", "><SFMT @a></SFOR>."#,
        )
        .unwrap();
        let html = Generator::new(&g, &ts).render_fragment(pub1).unwrap();
        assert_eq!(html, "By Mary Fernandez, Dan Suciu.");
    }

    #[test]
    fn sfmt_all_shorthand_equals_sfor() {
        let (g, _, pub1) = site();
        let mut ts = TemplateSet::new();
        ts.set_object_template(pub1, r#"<SFMT @author ALL DELIM=", ">"#)
            .unwrap();
        let html = Generator::new(&g, &ts).render_fragment(pub1).unwrap();
        assert_eq!(html, "Mary Fernandez, Dan Suciu");
    }

    #[test]
    fn postscript_files_become_links_with_attr_tag() {
        let (g, _, pub1) = site();
        let mut ts = TemplateSet::new();
        ts.set_object_template(pub1, r#"<SFMT @postscript LINK=@title>"#)
            .unwrap();
        let html = Generator::new(&g, &ts).render_fragment(pub1).unwrap();
        assert_eq!(
            html,
            r#"<a href="papers/icde98.ps.gz">Optimizing Regular Paths</a>"#
        );
    }

    #[test]
    fn sif_tests_attribute_existence() {
        let (g, _, pub1) = site();
        let mut ts = TemplateSet::new();
        ts.set_object_template(
            pub1,
            r#"<SIF @journal>J: <SFMT @journal><SELSE>no journal</SIF>"#,
        )
        .unwrap();
        let html = Generator::new(&g, &ts).render_fragment(pub1).unwrap();
        assert_eq!(html, "no journal");
    }

    #[test]
    fn sif_comparisons_coerce() {
        let (g, _, pub1) = site();
        let mut ts = TemplateSet::new();
        ts.set_object_template(
            pub1,
            r#"<SIF @year >= 1998>recent</SIF><SIF @year = "1998">!</SIF>"#,
        )
        .unwrap();
        let html = Generator::new(&g, &ts).render_fragment(pub1).unwrap();
        assert_eq!(html, "recent!");
    }

    #[test]
    fn node_references_become_page_links() {
        let (g, root, pub1) = site();
        let mut ts = TemplateSet::new();
        ts.set_object_template(root, r#"<SFMT @Paper LINK=@Paper.title>"#)
            .unwrap();
        ts.set_object_template(pub1, "<SFMT @title>").unwrap();
        let out = Generator::new(&g, &ts).generate(&[root]).unwrap();
        assert_eq!(out.pages.len(), 2);
        let root_html = &out.pages[&out.page_of[&root]];
        assert!(
            root_html
                .contains(r#"<a href="paperpresentation_pub1.html">Optimizing Regular Paths</a>"#),
            "{root_html}"
        );
        assert_eq!(out.pages[&out.page_of[&pub1]], "Optimizing Regular Paths");
    }

    #[test]
    fn embed_inlines_instead_of_linking() {
        let (g, root, pub1) = site();
        let mut ts = TemplateSet::new();
        ts.set_object_template(root, r#"[<SFMT @Paper EMBED>]"#)
            .unwrap();
        ts.set_object_template(pub1, "<SFMT @title>").unwrap();
        let out = Generator::new(&g, &ts).generate(&[root]).unwrap();
        // Only the root page is emitted; pub1 was embedded, not realized.
        assert_eq!(out.pages.len(), 1);
        assert_eq!(out.pages[&out.page_of[&root]], "[Optimizing Regular Paths]");
    }

    #[test]
    fn embed_cycles_are_detected() {
        let mut g = Graph::standalone();
        let a = g.new_node(Some("a"));
        let b = g.new_node(Some("b"));
        g.add_edge_str(a, "next", Value::Node(b)).unwrap();
        g.add_edge_str(b, "next", Value::Node(a)).unwrap();
        let mut ts = TemplateSet::new();
        ts.set_object_template(a, "<SFMT @next EMBED>").unwrap();
        ts.set_object_template(b, "<SFMT @next EMBED>").unwrap();
        let err = Generator::new(&g, &ts).generate(&[a]).unwrap_err();
        assert!(err.to_string().contains("cycle"), "{err}");
    }

    #[test]
    fn collection_templates_give_shared_look() {
        let (g, _, pub1) = site();
        let mut ts = TemplateSet::new();
        ts.set_collection_template("Papers", "paper: <SFMT @title>")
            .unwrap();
        let html = Generator::new(&g, &ts).render_fragment(pub1).unwrap();
        assert_eq!(html, "paper: Optimizing Regular Paths");
    }

    #[test]
    fn object_template_beats_collection_template() {
        let (g, _, pub1) = site();
        let mut ts = TemplateSet::new();
        ts.set_collection_template("Papers", "coll").unwrap();
        ts.set_object_template(pub1, "obj").unwrap();
        assert_eq!(
            Generator::new(&g, &ts).render_fragment(pub1).unwrap(),
            "obj"
        );
    }

    #[test]
    fn html_template_attribute_selects_named_template() {
        let mut g = Graph::standalone();
        let n = g.new_node(Some("n"));
        g.add_edge_str(n, "HTML-template", "special").unwrap();
        let mut ts = TemplateSet::new();
        ts.set_named("special", "special template").unwrap();
        ts.set_default("default template").unwrap();
        assert_eq!(
            Generator::new(&g, &ts).render_fragment(n).unwrap(),
            "special template"
        );
    }

    #[test]
    fn order_and_key_sort_object_values() {
        let mut g = Graph::standalone();
        let root = g.new_node(Some("root"));
        let y98 = g.new_node(Some("Year(1998)"));
        let y96 = g.new_node(Some("Year(1996)"));
        g.add_edge_str(y98, "Year", 1998i64).unwrap();
        g.add_edge_str(y96, "Year", 1996i64).unwrap();
        g.add_edge_str(root, "YearPage", Value::Node(y98)).unwrap();
        g.add_edge_str(root, "YearPage", Value::Node(y96)).unwrap();
        let mut ts = TemplateSet::new();
        ts.set_object_template(
            root,
            r#"<SFOR y IN @YearPage ORDER=ascend KEY=@Year LIST=ul><SFMT @y.Year></SFOR>"#,
        )
        .unwrap();
        let html = Generator::new(&g, &ts).render_fragment(root).unwrap();
        assert_eq!(html, "<ul><li>1996</li><li>1998</li></ul>");
    }

    #[test]
    fn descend_order_on_scalars() {
        let mut g = Graph::standalone();
        let n = g.new_node(None);
        for y in [1996i64, 1998, 1997] {
            g.add_edge_str(n, "year", y).unwrap();
        }
        let mut ts = TemplateSet::new();
        ts.set_object_template(n, r#"<SFMT @year ALL ORDER=descend DELIM=",">"#)
            .unwrap();
        assert_eq!(
            Generator::new(&g, &ts).render_fragment(n).unwrap(),
            "1998,1997,1996"
        );
    }

    #[test]
    fn text_files_embed_via_resolver() {
        let mut g = Graph::standalone();
        let n = g.new_node(None);
        g.add_edge_str(n, "abstract", Value::file(FileKind::Text, "abs/x.txt"))
            .unwrap();
        let mut ts = TemplateSet::new();
        ts.set_object_template(n, "<SFMT @abstract>").unwrap();
        let genr = Generator::new(&g, &ts).with_file_resolver(Box::new(|p| {
            (p == "abs/x.txt").then(|| "the <abstract>".to_string())
        }));
        assert_eq!(genr.render_fragment(n).unwrap(), "the &lt;abstract&gt;");
    }

    #[test]
    fn text_files_fall_back_to_links_without_resolver() {
        let mut g = Graph::standalone();
        let n = g.new_node(None);
        g.add_edge_str(n, "abstract", Value::file(FileKind::Text, "abs/x.txt"))
            .unwrap();
        let mut ts = TemplateSet::new();
        ts.set_object_template(n, "<SFMT @abstract>").unwrap();
        assert_eq!(
            Generator::new(&g, &ts).render_fragment(n).unwrap(),
            r#"<a href="abs/x.txt">abs/x.txt</a>"#
        );
    }

    #[test]
    fn images_become_img_tags() {
        let mut g = Graph::standalone();
        let n = g.new_node(None);
        g.add_edge_str(n, "logo", Value::file(FileKind::Image, "logo.png"))
            .unwrap();
        let mut ts = TemplateSet::new();
        ts.set_object_template(n, "<SFMT @logo>").unwrap();
        assert_eq!(
            Generator::new(&g, &ts).render_fragment(n).unwrap(),
            r#"<img src="logo.png" alt="logo.png">"#
        );
    }

    #[test]
    fn strings_are_escaped() {
        let mut g = Graph::standalone();
        let n = g.new_node(None);
        g.add_edge_str(n, "t", "a < b & c").unwrap();
        let mut ts = TemplateSet::new();
        ts.set_object_template(n, "<SFMT @t>").unwrap();
        assert_eq!(
            Generator::new(&g, &ts).render_fragment(n).unwrap(),
            "a &lt; b &amp; c"
        );
    }

    #[test]
    fn missing_attribute_renders_nothing() {
        let (g, _, pub1) = site();
        let mut ts = TemplateSet::new();
        ts.set_object_template(pub1, "[<SFMT @nonexistent>]")
            .unwrap();
        assert_eq!(Generator::new(&g, &ts).render_fragment(pub1).unwrap(), "[]");
    }

    #[test]
    fn generate_from_collection_uses_roots() {
        let (g, root, pub1) = site();
        let mut ts = TemplateSet::new();
        ts.set_object_template(root, "<SFMT @Paper>").unwrap();
        ts.set_object_template(pub1, "x").unwrap();
        let out = Generator::new(&g, &ts)
            .generate_from_collection("Roots")
            .unwrap();
        assert_eq!(out.pages.len(), 2);
        assert!(out.page_of.contains_key(&root));
    }

    #[test]
    fn filenames_are_sanitized_and_unique() {
        assert_eq!(sanitize("YearPage(1997)"), "yearpage_1997");
        assert_eq!(sanitize("RootPage()"), "rootpage");
        assert_eq!(sanitize("***"), "page");
        let mut g = Graph::standalone();
        let a = g.new_node(Some("X(1)"));
        let b = g.new_node(Some("X[1]"));
        g.add_edge_str(a, "next", Value::Node(b)).unwrap();
        let mut ts = TemplateSet::new();
        ts.set_default("<SFMT @next>").unwrap();
        let out = Generator::new(&g, &ts).generate(&[a, b]).unwrap();
        assert_eq!(
            out.pages.len(),
            2,
            "collision must be resolved: {:?}",
            out.pages.keys()
        );
    }

    #[test]
    fn write_to_dir_emits_files() {
        let (g, root, pub1) = site();
        let mut ts = TemplateSet::new();
        ts.set_object_template(root, "<SFMT @Paper>").unwrap();
        ts.set_object_template(pub1, "x").unwrap();
        let out = Generator::new(&g, &ts).generate(&[root]).unwrap();
        let dir = std::env::temp_dir().join(format!("strudel_gen_test_{}", std::process::id()));
        out.write_to_dir(&dir).unwrap();
        for name in out.pages.keys() {
            assert!(dir.join(name).exists());
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn templateless_reference_warns_and_degrades() {
        let (g, root, _) = site();
        let mut ts = TemplateSet::new();
        ts.set_object_template(root, "<SFMT @Paper>").unwrap();
        let out = Generator::new(&g, &ts).generate(&[root]).unwrap();
        assert_eq!(out.pages.len(), 1);
        assert!(!out.warnings.is_empty());
    }

    #[test]
    fn assign_unique_name_loops_past_taken_fallbacks() {
        let mut used: FxHashSet<String> = FxHashSet::default();
        used.insert("a.html".into());
        used.insert("a-7.html".into());
        used.insert("a-7-2.html".into());
        assert_eq!(assign_unique_name(&mut used, "a", Oid(7)), "a-7-3.html");
        assert!(used.contains("a-7-3.html"));
        assert_eq!(assign_unique_name(&mut used, "b", Oid(9)), "b.html");
    }

    #[test]
    fn colliding_page_names_stay_unique_in_both_generators() {
        // Three distinct objects whose display names all sanitize to the
        // same base, and a decoy whose literal name equals the suffixed
        // name the second collider would naively get.
        let mut g = Graph::standalone();
        let root = g.new_node(Some("Root"));
        let mut ts = TemplateSet::new();
        ts.set_object_template(root, "<SFMT @Story ALL>").unwrap();
        let mut stories = Vec::new();
        for _ in 0..3 {
            let s = g.new_node(Some("Story Page"));
            g.add_edge_str(s, "t", "body").unwrap();
            g.add_edge_str(root, "Story", Value::Node(s)).unwrap();
            stories.push(s);
        }
        let decoy = g.new_node(Some(&format!("story_page-{}", stories[1].0)));
        g.add_edge_str(decoy, "t", "decoy body").unwrap();
        g.add_edge_str(root, "Story", Value::Node(decoy)).unwrap();
        for &s in stories.iter().chain([&decoy]) {
            ts.set_object_template(s, "<SFMT @t>").unwrap();
        }

        for out in [
            Generator::new(&g, &ts).generate(&[root]).unwrap(),
            Generator::new(&g, &ts)
                .generate_parallel(&[root], 4)
                .unwrap(),
        ] {
            // 5 objects -> 5 pages; no assignment overwrote another.
            assert_eq!(out.pages.len(), 5, "{:?}", out.pages.keys());
            assert_eq!(out.page_of.len(), 5);
            let mut files: Vec<_> = out.page_of.values().collect();
            files.sort();
            files.dedup();
            assert_eq!(files.len(), 5, "duplicate file assignment: {files:?}");
            for (n, f) in &out.page_of {
                assert!(out.pages.contains_key(f), "page_of[{n:?}] = {f} missing");
            }
        }
    }
}
