//! Incremental / click-time evaluation (\[FER 98c\], §1 and §6).
//!
//! Materializing a whole site up front "has problems similar to those of
//! data warehousing"; the alternative the paper proposes is to "precompute
//! the root(s) of a Web site, then compute at click time the query that
//! obtains the information required to display the next page."
//!
//! [`DynamicSite`] implements that decomposition. The site-definition query
//! is split into one sub-query per `LINK` clause: when the user "clicks"
//! into page `F(v̄)`, each clause `F(X) -> L -> T` is answered with `X`
//! bound to `v̄`, yielding exactly that page's outgoing links. Clauses of
//! one block with the same head arguments share their conjunction, which is
//! evaluated at most once per click. Results are cached per clause — "our
//! optimization techniques cache query results to reduce click time for
//! future queries".
//!
//! The cache is shared: all methods take `&self`, so one `DynamicSite` can
//! serve many threads concurrently. It is bounded (entry count and
//! approximate bytes, see [`CacheConfig`]) with least-recently-used
//! eviction, and supports *invalidation*: after a data-graph insertion or
//! deletion, [`DynamicSite::invalidate`] drops exactly the cached clause
//! results the change can affect, reusing the semi-naive dependency
//! analysis of [`crate::incremental`].

use parking_lot::Mutex;
use std::sync::Arc;

use crate::incremental::{seed_bindings, Delta};
use strudel_graph::fxhash::{FxHashMap, FxHashSet};
use strudel_graph::{Graph, Value};
use strudel_obs::{trace, Scrape};
use strudel_struql::analyze::analyze;
use strudel_struql::ast::{Block, Condition, LabelTerm, PathStep, Rpe, Term};
use strudel_struql::binding::Bindings;
use strudel_struql::{evaluate_conditions, EvalOptions, Query, Result, StruqlError};

/// A logical page: a Skolem function applied to argument values.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct PageRef {
    /// The Skolem function name, e.g. `YearPage`.
    pub skolem: String,
    /// The argument values, e.g. `[Int(1997)]`.
    pub args: Vec<Value>,
}

impl std::fmt::Display for PageRef {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}(", self.skolem)?;
        for (i, a) in self.args.iter().enumerate() {
            if i > 0 {
                f.write_str(",")?;
            }
            write!(f, "{a}")?;
        }
        f.write_str(")")
    }
}

/// The target of an out-link: another logical page or a plain value.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Target {
    /// A link to another page.
    Page(PageRef),
    /// Page content (an atomic value or a data-graph node).
    Value(Value),
}

/// One outgoing link of a page, as computed at click time.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct OutLink {
    /// The edge label.
    pub label: String,
    /// The target.
    pub target: Target,
}

/// The out-links of one page as the cache holds them: the link list of each
/// of the page's clauses, shared with the cache rather than copied, read as
/// one duplicate-free sequence (a page's links are a set across its
/// clauses, kept in order of first occurrence).
#[derive(Clone, Debug)]
pub struct PageLinks {
    parts: Vec<Arc<[OutLink]>>,
    /// Positions, over the concatenated parts and ascending, of the links
    /// that repeat an earlier one.
    repeats: Vec<usize>,
}

impl PageLinks {
    fn new(parts: Vec<Arc<[OutLink]>>) -> Self {
        // Each clause's own links are distinct already.
        let repeats = if parts.iter().filter(|p| !p.is_empty()).count() > 1 {
            let len = parts.iter().map(|p| p.len()).sum();
            repeats(parts.iter().flat_map(|p| p.iter()), len)
        } else {
            Vec::new()
        };
        PageLinks { parts, repeats }
    }

    /// Number of distinct links.
    pub fn len(&self) -> usize {
        self.parts.iter().map(|p| p.len()).sum::<usize>() - self.repeats.len()
    }

    /// Whether the page has no links.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The distinct links, in the order [`DynamicSite::expand`] returns them.
    pub fn iter(&self) -> impl Iterator<Item = &OutLink> {
        let mut repeats = self.repeats.iter().copied().peekable();
        self.parts
            .iter()
            .flat_map(|p| p.iter())
            .enumerate()
            .filter_map(move |(at, link)| match repeats.next_if_eq(&at) {
                Some(_) => None,
                None => Some(link),
            })
    }
}

strudel_obs::signals! {
    /// Interior counters, updatable through `&self` without the cache lock.
    struct Counters;
    /// Counters for the dynamic evaluator. Hits and misses are per link
    /// clause; a miss evaluates the clause and inserts its result. An
    /// expansion is a page with at least one clause missing, and one
    /// evaluated conjunction (`clause_queries`) serves every missing clause
    /// that shares it.
    pub struct DynStats {
        entries: Gauge, "cache.entries", "strudel_page_cache_entries",
            "Pages currently cached.";
        bytes: Gauge, "cache.bytes", "strudel_page_cache_bytes",
            "Approximate bytes held by the page cache.";
    }
    cache_hits: Counter, "cache.hits", "strudel_page_cache_hits_total",
        "Click-time expansions answered from the page cache.";
    cache_misses: Counter, "cache.misses", "strudel_page_cache_misses_total",
        "Click-time expansions computed by query evaluation.";
    evictions: Counter, "cache.evictions", "strudel_page_cache_evictions_total",
        "Page-cache entries evicted by the size bound.";
    invalidated: Counter, "cache.invalidated", "strudel_page_cache_invalidated_total",
        "Page-cache entries dropped by data-change deltas.";
    expansions: Counter, "cache.expansions", "strudel_expansions_total",
        "Logical page expansions requested.";
    clause_queries: Counter, "cache.clause_queries", "strudel_clause_queries_total",
        "Conjunctions evaluated at click time.";
}

/// Bounds for the click-time result cache.
#[derive(Clone, Copy, Debug)]
pub struct CacheConfig {
    /// Maximum number of cached (clause, arguments) entries.
    pub max_entries: usize,
    /// Approximate maximum total bytes of cached keys and links.
    pub max_bytes: usize,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            max_entries: 4096,
            max_bytes: 16 * 1024 * 1024,
        }
    }
}

/// A link clause lifted out of the query.
#[derive(Clone, Debug)]
struct ClauseInfo {
    from_fn: String,
    label: LabelTerm,
    to: Term,
    /// The variables the link head reads (see [`head_vars`]).
    head_vars: Vec<String>,
    /// Index of the governing [`Conjunction`].
    conjunction: usize,
}

/// The conjunction governing the link clauses of one block that share their
/// source arguments: for one page they all start from the same bindings, so
/// one evaluation serves them all.
#[derive(Clone, Debug)]
struct Conjunction {
    from_args: Vec<String>,
    conditions: Vec<Condition>,
}

/// A create clause lifted out of the query (for page enumeration).
#[derive(Clone, Debug)]
struct CreateInfo {
    name: String,
    args: Vec<String>,
    conditions: Vec<Condition>,
}

// ---- bounded LRU cache ----------------------------------------------------

type CacheKey = (usize, Vec<Value>);

const NIL: usize = usize::MAX;

struct CacheEntry {
    key: CacheKey,
    links: Arc<[OutLink]>,
    bytes: usize,
    prev: usize,
    next: usize,
}

/// Hand-rolled LRU: a slab of entries threaded on an intrusive list
/// (most-recent at `head`), indexed by a hash map. O(1) get/insert/evict.
struct LruCache {
    map: FxHashMap<CacheKey, usize>,
    slots: Vec<Option<CacheEntry>>,
    free: Vec<usize>,
    head: usize,
    tail: usize,
    bytes: usize,
    cfg: CacheConfig,
}

fn approx_value_bytes(v: &Value) -> usize {
    std::mem::size_of::<Value>()
        + match v {
            Value::Str(s) | Value::Url(s) | Value::File(_, s) => s.len(),
            _ => 0,
        }
}

fn approx_link_bytes(l: &OutLink) -> usize {
    let target = match &l.target {
        Target::Value(v) => approx_value_bytes(v),
        Target::Page(p) => p.skolem.len() + p.args.iter().map(approx_value_bytes).sum::<usize>(),
    };
    std::mem::size_of::<OutLink>() + l.label.len() + target
}

fn approx_entry_bytes(key: &CacheKey, links: &[OutLink]) -> usize {
    // Entry struct + map slot overhead, then the owned heap data.
    std::mem::size_of::<CacheEntry>()
        + 32
        + key.1.iter().map(approx_value_bytes).sum::<usize>()
        + links.iter().map(approx_link_bytes).sum::<usize>()
}

impl LruCache {
    fn new(cfg: CacheConfig) -> Self {
        LruCache {
            map: FxHashMap::default(),
            slots: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            bytes: 0,
            cfg,
        }
    }

    fn len(&self) -> usize {
        self.map.len()
    }

    fn unlink(&mut self, idx: usize) {
        let (prev, next) = {
            let e = self.slots[idx].as_ref().expect("unlink of free slot");
            (e.prev, e.next)
        };
        match prev {
            NIL => self.head = next,
            p => self.slots[p].as_mut().expect("list prev").next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.slots[n].as_mut().expect("list next").prev = prev,
        }
    }

    fn push_front(&mut self, idx: usize) {
        {
            let e = self.slots[idx].as_mut().expect("push of free slot");
            e.prev = NIL;
            e.next = self.head;
        }
        if self.head != NIL {
            self.slots[self.head].as_mut().expect("old head").prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }

    /// Marks a live entry most-recently used and shares its links.
    fn touch(&mut self, idx: usize) -> Arc<[OutLink]> {
        if self.head != idx {
            self.unlink(idx);
            self.push_front(idx);
        }
        Arc::clone(&self.slots[idx].as_ref().expect("mapped slot").links)
    }

    /// Looks up `key`, marking it most-recently used. The links are shared,
    /// not copied, so the caller can drop the cache lock before reading them.
    fn get(&mut self, key: &CacheKey) -> Option<Arc<[OutLink]>> {
        let idx = *self.map.get(key)?;
        Some(self.touch(idx))
    }

    /// Looks up `(clause, args)` for every clause in `clauses`, all or
    /// nothing: when every key is cached each is marked most-recently used,
    /// in order, exactly as that many [`LruCache::get`] calls would; when one
    /// is missing nothing is touched.
    fn get_all(&mut self, clauses: &[usize], args: &[Value]) -> Option<Vec<Arc<[OutLink]>>> {
        let mut key: CacheKey = (0, args.to_vec());
        let mut found = Vec::with_capacity(clauses.len());
        for &clause in clauses {
            key.0 = clause;
            found.push(*self.map.get(&key)?);
        }
        Some(found.into_iter().map(|idx| self.touch(idx)).collect())
    }

    /// Removes one entry by slab index.
    fn remove_idx(&mut self, idx: usize) {
        self.unlink(idx);
        let entry = self.slots[idx].take().expect("remove of free slot");
        self.map.remove(&entry.key);
        self.bytes -= entry.bytes;
        self.free.push(idx);
    }

    /// Inserts (or replaces) an entry, then evicts from the LRU end until
    /// within bounds. Returns the number of evictions.
    fn insert(&mut self, key: CacheKey, links: Arc<[OutLink]>) -> u64 {
        if let Some(&idx) = self.map.get(&key) {
            self.remove_idx(idx);
        }
        let bytes = approx_entry_bytes(&key, &links);
        let idx = match self.free.pop() {
            Some(i) => i,
            None => {
                self.slots.push(None);
                self.slots.len() - 1
            }
        };
        self.slots[idx] = Some(CacheEntry {
            key: key.clone(),
            links,
            bytes,
            prev: NIL,
            next: NIL,
        });
        self.map.insert(key, idx);
        self.push_front(idx);
        self.bytes += bytes;

        let mut evicted = 0;
        // Never evict the entry just inserted, even if it alone exceeds
        // max_bytes: the caller paid for it and is about to use it.
        while (self.map.len() > self.cfg.max_entries || self.bytes > self.cfg.max_bytes)
            && self.tail != idx
            && self.tail != NIL
        {
            self.remove_idx(self.tail);
            evicted += 1;
        }
        evicted
    }

    /// Drops every entry for which `pred` returns true; returns the count.
    fn drop_matching(&mut self, mut pred: impl FnMut(&CacheKey) -> bool) -> u64 {
        let doomed: Vec<usize> = self
            .map
            .iter()
            .filter(|(k, _)| pred(k))
            .map(|(_, &i)| i)
            .collect();
        let n = doomed.len() as u64;
        for idx in doomed {
            self.remove_idx(idx);
        }
        n
    }

    fn snapshot(&self) -> Vec<(CacheKey, Arc<[OutLink]>)> {
        // Walk LRU→MRU so that restoring in order reproduces the recency
        // ranking (later inserts end up more recent).
        let mut out = Vec::with_capacity(self.map.len());
        let mut idx = self.tail;
        while idx != NIL {
            let e = self.slots[idx].as_ref().expect("listed slot");
            out.push((e.key.clone(), Arc::clone(&e.links)));
            idx = e.prev;
        }
        out
    }
}

/// An exported copy of the click-time cache, for warm restarts. Only
/// meaningful when restored into a [`DynamicSite`] built from the same
/// query (clause numbering must match).
pub struct CacheSnapshot {
    entries: Vec<(CacheKey, Arc<[OutLink]>)>,
}

/// A site evaluated lazily, page by page. Shareable across threads: all
/// evaluation methods take `&self`.
pub struct DynamicSite<'g> {
    data: &'g Graph,
    opts: EvalOptions,
    clauses: Vec<ClauseInfo>,
    conjunctions: Vec<Conjunction>,
    /// The clauses of each page head, sorted by `(skolem, arity)`.
    heads: Vec<((String, usize), Vec<usize>)>,
    creates: Vec<CreateInfo>,
    cache: Mutex<LruCache>,
    counters: Counters,
}

impl<'g> DynamicSite<'g> {
    /// Decomposes `query` over `data` with the default cache bounds. The
    /// query is analyzed (so bare path steps resolve) but nothing is
    /// evaluated yet.
    pub fn new(data: &'g Graph, query: &Query, opts: EvalOptions) -> Result<Self> {
        Self::with_cache(data, query, opts, CacheConfig::default())
    }

    /// Like [`DynamicSite::new`] with explicit cache bounds.
    pub fn with_cache(
        data: &'g Graph,
        query: &Query,
        opts: EvalOptions,
        cache: CacheConfig,
    ) -> Result<Self> {
        let analyzed = analyze(query, &opts.predicates)?;
        let mut lifted = Lifted::default();
        collect(&analyzed.query.root, &mut Vec::new(), &mut lifted);
        let Lifted {
            clauses,
            conjunctions,
            creates,
        } = lifted;
        let mut by_head: std::collections::BTreeMap<(String, usize), Vec<usize>> =
            Default::default();
        for (i, c) in clauses.iter().enumerate() {
            let arity = conjunctions[c.conjunction].from_args.len();
            by_head
                .entry((c.from_fn.clone(), arity))
                .or_default()
                .push(i);
        }
        Ok(DynamicSite {
            data,
            opts,
            clauses,
            conjunctions,
            heads: by_head.into_iter().collect(),
            creates,
            cache: Mutex::new(LruCache::new(cache)),
            counters: Counters::default(),
        })
    }

    /// Evaluator counters so far, and what the cache holds right now (one
    /// lock).
    pub fn stats(&self) -> DynStats {
        let (entries, bytes) = {
            let cache = self.cache.lock();
            (cache.len() as u64, cache.bytes as u64)
        };
        DynStats {
            entries,
            bytes,
            ..self.counters.snapshot()
        }
    }

    /// Reads every signal this site owns into `scrape`: its own, and those
    /// of the path and plan caches it evaluates with.
    pub fn scrape(&self, scrape: &mut Scrape) {
        scrape.walk(DynStats::SIGNALS, &self.stats());
        scrape.walk(
            strudel_struql::PathCacheStats::SIGNALS,
            &self.path_cache_stats(),
        );
        scrape.walk(
            strudel_struql::PlanCacheStats::SIGNALS,
            &self.plan_cache_stats(),
        );
    }

    /// Hit/miss/invalidation counters of the regular-path memo cache these
    /// options evaluate with (see [`strudel_struql::PathCache::stats`]).
    pub fn path_cache_stats(&self) -> strudel_struql::PathCacheStats {
        self.opts.path_cache.stats()
    }

    /// Hit/miss/invalidation counters of the compiled-plan cache these
    /// options evaluate with (see [`strudel_struql::PlanCache::stats`]).
    /// Click-time expansions of an unchanged graph should be all hits after
    /// each link clause's first evaluation.
    pub fn plan_cache_stats(&self) -> strudel_struql::PlanCacheStats {
        self.opts.plan_cache.stats()
    }

    /// Number of live cache entries.
    pub fn cache_len(&self) -> usize {
        self.cache.lock().len()
    }

    /// Drops every cached entry (bounds are kept). Counted neither as
    /// eviction nor invalidation: the caller asked for a cold cache.
    pub fn cache_clear(&self) {
        let mut cache = self.cache.lock();
        let cfg = cache.cfg;
        *cache = LruCache::new(cfg);
    }

    /// The precomputed roots: pages of zero-argument Skolem functions
    /// created under an unconditional (empty) conjunction.
    pub fn roots(&self) -> Vec<PageRef> {
        let mut out = Vec::new();
        for c in &self.creates {
            if c.args.is_empty() && c.conditions.is_empty() {
                let page = PageRef {
                    skolem: c.name.clone(),
                    args: Vec::new(),
                };
                if !out.contains(&page) {
                    out.push(page);
                }
            }
        }
        out
    }

    /// Enumerates every page of one Skolem function by evaluating its
    /// creation conjunction (used for site maps; ordinary browsing reaches
    /// pages through [`DynamicSite::expand`]).
    pub fn pages_of(&self, skolem: &str) -> Result<Vec<PageRef>> {
        let mut out = Vec::new();
        let mut seen = FxHashSet::default();
        for c in self.creates.iter().filter(|c| c.name == skolem) {
            let bindings =
                evaluate_conditions(&c.conditions, self.data, Bindings::unit(), &self.opts)?;
            self.counters.clause_queries.inc();
            for row in bindings.rows() {
                let args: Option<Vec<Value>> = c
                    .args
                    .iter()
                    .map(|a| bindings.get(row, a).cloned())
                    .collect();
                let Some(args) = args else {
                    return Err(StruqlError::Eval(format!(
                        "unbound Skolem argument in {}",
                        c.name
                    )));
                };
                if seen.insert(args.clone()) {
                    out.push(PageRef {
                        skolem: skolem.to_string(),
                        args,
                    });
                }
            }
        }
        Ok(out)
    }

    /// The link clauses of `page`'s head, in query order.
    fn clauses_of(&self, page: &PageRef) -> &[usize] {
        let head = (page.skolem.as_str(), page.args.len());
        self.heads
            .binary_search_by(|((name, arity), _)| (name.as_str(), *arity).cmp(&head))
            .map_or(&[], |at| &self.heads[at].1)
    }

    /// The cached page, or nothing: answers `page` only when the result of
    /// every one of its link clauses is in the cache, and never evaluates.
    /// A hit is a hit of [`DynamicSite::expand`] — same links in the same
    /// order, same recency touch, `cache_hits` up by the page's clause
    /// count, one `cache.expand` span — under one acquisition of the cache
    /// lock and without copying a link. Declining touches nothing, counts
    /// nothing and records no span, so whoever then calls `expand` (the
    /// server's worker pool) does the whole accounting, once.
    pub fn lookup(&self, page: &PageRef) -> Option<PageLinks> {
        let mut tspan = trace::span("cache.expand", trace::Layer::Cache);
        let clause_ids = self.clauses_of(page);
        let cached = self.cache.lock().get_all(clause_ids, &page.args);
        let Some(parts) = cached else {
            tspan.cancel();
            return None;
        };
        let hits = parts.len() as u64;
        self.counters.cache_hits.add(hits);
        let links = PageLinks::new(parts);
        if tspan.is_live() {
            tspan.attr_text("page", &page.skolem);
            tspan.attr_u64("hits", hits);
            tspan.attr_u64("misses", 0);
            tspan.attr_u64("evals", 0);
            tspan.attr_u64("rows", 0);
            tspan.attr_u64("links", links.len() as u64);
        }
        Some(links)
    }

    /// Click-time expansion: computes the outgoing links of `page` by
    /// running the conjunctions of its link clauses with the page's Skolem
    /// arguments bound. Cached per (clause, arguments); safe to call from
    /// many threads over one shared site. A page whose clauses are all
    /// cached is [`DynamicSite::lookup`]'s; anything else is evaluated
    /// clause by clause.
    pub fn expand(&self, page: &PageRef) -> Result<Vec<OutLink>> {
        let links = match self.lookup(page) {
            Some(links) => links,
            None => self.evaluate(page)?,
        };
        let mut out = Vec::with_capacity(links.len());
        out.extend(links.iter().cloned());
        Ok(out)
    }

    /// The miss path of [`DynamicSite::expand`]: at least one clause of
    /// `page` is not cached. Clauses are probed one at a time, in order — a
    /// clause evaluated here may evict a later one of the same page, which
    /// then counts (and costs) a miss of its own.
    fn evaluate(&self, page: &PageRef) -> Result<PageLinks> {
        // Flight-recorder span for the cache layer: hit/miss counts per
        // request tell apart "slow because cold" from "slow because the
        // query is slow" (the nested eval.op spans cover the latter), and
        // rows against links shows a conjunction that binds far more than
        // the page displays.
        let mut tspan = trace::span("cache.expand", trace::Layer::Cache);
        if tspan.is_live() {
            tspan.attr_text("page", &page.skolem);
        }
        let clause_ids = self.clauses_of(page);
        let mut key: CacheKey = (0, page.args.clone());
        let mut parts: Vec<Arc<[OutLink]>> = Vec::with_capacity(clause_ids.len());
        // The conjunctions this call evaluated, each at most once.
        let mut relations: Vec<(usize, Bindings)> = Vec::new();
        let mut hits = 0u64;
        for &i in clause_ids {
            key.0 = i;
            // The guard lives for this statement only: a hit shares the
            // entry, and every copy below happens outside the lock.
            let cached = self.cache.lock().get(&key);
            if let Some(links) = cached {
                self.counters.cache_hits.inc();
                hits += 1;
                parts.push(links);
                continue;
            }
            // Evaluate outside the lock: conjunctions are the expensive
            // part, and concurrent misses on the same key are harmless
            // (both compute the same value; the second insert replaces).
            self.counters.cache_misses.inc();
            let conjunction = self.clauses[i].conjunction;
            let at = match relations.iter().position(|(c, _)| *c == conjunction) {
                Some(at) => at,
                None => {
                    relations.push((conjunction, self.eval_conjunction(conjunction, page)?));
                    relations.len() - 1
                }
            };
            let links: Arc<[OutLink]> = build_links(&self.clauses[i], &relations[at].1).into();
            // A stored segment that did not read — here or earlier — reads
            // as empty: fail the page rather than cache it.
            self.data.check().map_err(StruqlError::Graph)?;
            let evicted = self.cache.lock().insert(key.clone(), Arc::clone(&links));
            if evicted > 0 {
                self.counters.evictions.add(evicted);
            }
            parts.push(links);
        }
        let misses = parts.len() as u64 - hits;
        if misses > 0 {
            self.counters.expansions.inc();
        }
        let links = PageLinks::new(parts);
        tspan.attr_u64("hits", hits);
        tspan.attr_u64("misses", misses);
        tspan.attr_u64("evals", relations.len() as u64);
        let rows: usize = relations.iter().map(|(_, r)| r.len()).sum();
        tspan.attr_u64("rows", rows as u64);
        tspan.attr_u64("links", links.len() as u64);
        Ok(links)
    }

    /// Drops the cached results a data-graph change — an insertion *or a
    /// removal* — can affect. Additions should be applied to the data graph
    /// before invalidating; removal deltas may be applied before or after
    /// the data mutation (seed matching needs only the interner, not the
    /// edge's presence). Returns the number of entries dropped.
    ///
    /// Granularity: a cached `(clause, args)` entry is dropped when one of
    /// the clause's conditions can match the delta (the seed analysis of
    /// [`crate::incremental`]) *and* the seed's bindings are consistent
    /// with the entry's Skolem arguments. Clauses with negated conditions
    /// or multi-edge path expressions — where a change can affect bindings
    /// without matching any single condition — are dropped wholesale.
    pub fn invalidate(&self, delta: &Delta) -> u64 {
        let mut tspan = trace::span("cache.invalidate", trace::Layer::Cache);
        // Clauses that share a conjunction are affected alike.
        let affected: Vec<Affected> = self
            .conjunctions
            .iter()
            .map(|c| conjunction_affected(self.data, c, delta))
            .collect();
        let dropped = self.cache.lock().drop_matching(|(clause, args)| {
            match &affected[self.clauses[*clause].conjunction] {
                Affected::No => false,
                Affected::All => true,
                Affected::Args(constraints) => constraints.iter().any(|cons| {
                    cons.iter()
                        .zip(args)
                        .all(|(c, a)| c.as_ref().is_none_or(|v| v.coerced_eq(a)))
                }),
            }
        });
        if dropped > 0 {
            self.counters.invalidated.add(dropped);
        }
        tspan.attr_u64("dropped", dropped);
        dropped
    }

    /// Exports the cache contents for a warm restart (see [`CacheSnapshot`]).
    pub fn cache_snapshot(&self) -> CacheSnapshot {
        CacheSnapshot {
            entries: self.cache.lock().snapshot(),
        }
    }

    /// Imports entries from [`DynamicSite::cache_snapshot`], subject to
    /// this site's bounds. Entries referencing clauses this site does not
    /// have are skipped.
    pub fn cache_restore(&self, snap: CacheSnapshot) {
        let mut cache = self.cache.lock();
        let mut evicted = 0;
        for (key, links) in snap.entries {
            if key.0 < self.clauses.len() {
                evicted += cache.insert(key, links);
            }
        }
        drop(cache);
        if evicted > 0 {
            self.counters.evictions.add(evicted);
        }
    }

    /// Evaluates one conjunction with its source arguments bound to the
    /// page's. The relation is empty when the page's arguments contradict a
    /// repeated source variable.
    fn eval_conjunction(&self, idx: usize, page: &PageRef) -> Result<Bindings> {
        let conjunction = &self.conjunctions[idx];
        let mut start = Bindings::empty();
        let mut row: Vec<Value> = Vec::new();
        for (var, val) in conjunction.from_args.iter().zip(&page.args) {
            if let Some(col) = start.col(var) {
                // Repeated variable: values must agree.
                if &row[col] != val {
                    return Ok(Bindings::empty());
                }
            } else {
                start.add_var(var);
                row.push(val.clone());
            }
        }
        start.push_row(&row);
        let bindings = evaluate_conditions(&conjunction.conditions, self.data, start, &self.opts)?;
        self.counters.clause_queries.inc();
        Ok(bindings)
    }
}

/// The links one clause derives from its conjunction's relation, in order
/// of first occurrence. The relation is projected onto the variables the
/// link head reads before any link is built, so a conjunction that binds
/// thousands of rows per distinct link materializes only the distinct ones.
fn build_links(clause: &ClauseInfo, relation: &Bindings) -> Vec<OutLink> {
    let rows = relation.project(&clause.head_vars);
    if rows.width() < clause.head_vars.len() {
        // A head variable the conjunction does not bind: no row has a link.
        return Vec::new();
    }
    let col = |var: &String| rows.col(var).expect("projected head variable");
    let label_col = match &clause.label {
        LabelTerm::Lit(_) => None,
        LabelTerm::Var(v) => Some(col(v)),
    };
    // `None` for a row whose label variable is bound to a non-text value.
    let label_of = |row: &[Value]| match &clause.label {
        LabelTerm::Lit(s) => Some(s.clone()),
        LabelTerm::Var(_) => row[label_col?].text().map(|t| t.to_string()),
    };

    // Aggregate targets group by this page (the clause's Skolem source)
    // and label; compute them over all rows at click time.
    if let Term::Agg(func, var) = &clause.to {
        let var = col(var);
        let mut groups: FxHashMap<String, FxHashSet<Value>> = FxHashMap::default();
        match &clause.label {
            // A literal label is the one group, known before the loop.
            LabelTerm::Lit(label) if !rows.is_empty() => {
                let values = rows.rows().map(|row| row[var].clone()).collect();
                groups.insert(label.clone(), values);
            }
            LabelTerm::Lit(_) => {}
            LabelTerm::Var(_) => {
                for row in rows.rows() {
                    if let Some(label) = label_of(row) {
                        groups.entry(label).or_default().insert(row[var].clone());
                    }
                }
            }
        }
        let mut groups: Vec<(String, FxHashSet<Value>)> = groups.into_iter().collect();
        groups.sort_by(|a, b| a.0.cmp(&b.0));
        return groups
            .into_iter()
            .filter_map(|(label, values)| {
                let target = Target::Value(strudel_struql::construct::aggregate(*func, &values)?);
                Some(OutLink { label, target })
            })
            .collect();
    }

    let target_cols: Vec<usize> = match &clause.to {
        Term::Skolem(sk) => sk.args.iter().map(col).collect(),
        Term::Var(v) => vec![col(v)],
        Term::Lit(_) | Term::Agg(..) => Vec::new(),
    };
    let mut links = Vec::with_capacity(rows.len());
    for row in rows.rows() {
        let Some(label) = label_of(row) else { continue };
        let target = match &clause.to {
            Term::Skolem(sk) => Target::Page(PageRef {
                skolem: sk.name.clone(),
                args: target_cols.iter().map(|&c| row[c].clone()).collect(),
            }),
            Term::Var(_) => Target::Value(row[target_cols[0]].clone()),
            Term::Lit(l) => Target::Value(l.to_value()),
            Term::Agg(..) => unreachable!("handled above"),
        };
        links.push(OutLink { label, target });
    }
    // Distinct rows can still collide: a string and a URL with the same
    // text are one label, and a literal target is one target. Under a
    // literal label, distinct rows of the target's variables are distinct
    // links already.
    if label_col.is_some() || matches!(clause.to, Term::Lit(_)) {
        dedup_links(&mut links);
    }
    links
}

/// Positions, ascending, of the links that repeat an earlier one.
fn repeats<'a>(links: impl Iterator<Item = &'a OutLink>, len: usize) -> Vec<usize> {
    let mut seen = FxHashSet::default();
    seen.reserve(len);
    links
        .enumerate()
        .filter_map(|(at, link)| (!seen.insert(link)).then_some(at))
        .collect()
}

/// Set semantics over a link list: keeps the first occurrence of each link.
fn dedup_links(links: &mut Vec<OutLink>) {
    let mut repeats = repeats(links.iter(), links.len()).into_iter().peekable();
    let mut at = 0;
    links.retain(|_| {
        at += 1;
        repeats.next_if_eq(&(at - 1)).is_none()
    });
}

/// How a delta can affect the cached results of one conjunction's clauses.
enum Affected {
    /// No condition can match the delta; cached results stay valid.
    No,
    /// Every cached argument vector may be affected (negation / RPE, where
    /// an insertion can change bindings without matching one condition).
    All,
    /// Affected argument vectors are those consistent with one of these
    /// per-position constraints (`None` = unconstrained position).
    Args(Vec<Vec<Option<Value>>>),
}

fn conjunction_affected(data: &Graph, conjunction: &Conjunction, delta: &Delta) -> Affected {
    let mut constraints = Vec::new();
    for cond in &conjunction.conditions {
        match cond {
            Condition::Edge { negated: true, .. } | Condition::Collection { negated: true, .. } => {
                return Affected::All;
            }
            Condition::Edge {
                step: PathStep::Rpe(rpe),
                ..
            } if !matches!(rpe, Rpe::Label(_)) => {
                return Affected::All;
            }
            _ => {
                if let Some(seed) = seed_bindings(data, cond, delta) {
                    // Restrict to cache keys whose Skolem arguments agree
                    // with what the seed binds.
                    let cons: Vec<Option<Value>> = conjunction
                        .from_args
                        .iter()
                        .map(|a| seed.col(a).map(|col| seed.row(0)[col].clone()))
                        .collect();
                    constraints.push(cons);
                }
            }
        }
    }
    if constraints.is_empty() {
        Affected::No
    } else {
        Affected::Args(constraints)
    }
}

/// The variables a link head reads: its label variable, then its target's
/// variables, each once.
fn head_vars(label: &LabelTerm, to: &Term) -> Vec<String> {
    let label_var = match label {
        LabelTerm::Var(v) => Some(v),
        LabelTerm::Lit(_) => None,
    };
    let target_vars: &[String] = match to {
        Term::Skolem(sk) => &sk.args,
        Term::Var(v) | Term::Agg(_, v) => std::slice::from_ref(v),
        Term::Lit(_) => &[],
    };
    let mut vars: Vec<String> = Vec::new();
    for v in label_var.into_iter().chain(target_vars) {
        if !vars.contains(v) {
            vars.push(v.clone());
        }
    }
    vars
}

/// What [`collect`] lifts out of a query.
#[derive(Default)]
struct Lifted {
    clauses: Vec<ClauseInfo>,
    conjunctions: Vec<Conjunction>,
    creates: Vec<CreateInfo>,
}

fn collect(block: &Block, path: &mut Vec<Condition>, out: &mut Lifted) {
    let depth = path.len();
    path.extend(block.where_.iter().cloned());
    // Conjunctions of this block only: another block's path differs.
    let first = out.conjunctions.len();
    for link in &block.links {
        let conjunction = match out.conjunctions[first..]
            .iter()
            .position(|c| c.from_args == link.from.args)
        {
            Some(at) => first + at,
            None => {
                out.conjunctions.push(Conjunction {
                    from_args: link.from.args.clone(),
                    conditions: path.clone(),
                });
                out.conjunctions.len() - 1
            }
        };
        out.clauses.push(ClauseInfo {
            from_fn: link.from.name.clone(),
            label: link.label.clone(),
            to: link.to.clone(),
            head_vars: head_vars(&link.label, &link.to),
            conjunction,
        });
    }
    for sk in &block.creates {
        out.creates.push(CreateInfo {
            name: sk.name.clone(),
            args: sk.args.clone(),
            conditions: path.clone(),
        });
    }
    for child in &block.children {
        collect(child, path, out);
    }
    path.truncate(depth);
}

#[cfg(test)]
mod tests {
    use super::*;
    use strudel_graph::ddl;
    use strudel_struql::parse_query;

    const FIG3: &str = r#"
CREATE RootPage(), AbstractsPage()
LINK RootPage() -> "AbstractsPage" -> AbstractsPage()
{
  WHERE Publications(x), x -> l -> v
  CREATE PaperPresentation(x), AbstractPage(x)
  LINK AbstractPage(x) -> l -> v,
       PaperPresentation(x) -> l -> v,
       PaperPresentation(x) -> "Abstract" -> AbstractPage(x),
       AbstractsPage() -> "Abstract" -> AbstractPage(x)
  {
    WHERE l = "year"
    CREATE YearPage(v)
    LINK YearPage(v) -> "Year" -> v,
         YearPage(v) -> "Paper" -> PaperPresentation(x),
         RootPage() -> "YearPage" -> YearPage(v)
  }
}
"#;

    fn data() -> Graph {
        ddl::parse(
            r#"
object p1 in Publications { title "A" year 1997 }
object p2 in Publications { title "B" year 1998 }
object p3 in Publications { title "C" year 1997 }
"#,
        )
        .unwrap()
    }

    #[test]
    fn roots_are_unconditional_zero_arg_skolems() {
        let g = data();
        let q = parse_query(FIG3).unwrap();
        let site = DynamicSite::new(&g, &q, EvalOptions::default()).unwrap();
        let roots = site.roots();
        assert_eq!(roots.len(), 2);
        assert!(roots.iter().any(|r| r.skolem == "RootPage"));
        assert!(roots.iter().any(|r| r.skolem == "AbstractsPage"));
    }

    #[test]
    fn click_expansion_of_root() {
        let g = data();
        let q = parse_query(FIG3).unwrap();
        let site = DynamicSite::new(&g, &q, EvalOptions::default()).unwrap();
        let root = PageRef {
            skolem: "RootPage".into(),
            args: vec![],
        };
        let links = site.expand(&root).unwrap();
        // 1 AbstractsPage link + 2 distinct YearPage links.
        assert_eq!(links.len(), 3, "{links:?}");
        let years: Vec<&OutLink> = links.iter().filter(|l| l.label == "YearPage").collect();
        assert_eq!(years.len(), 2);
        assert!(years
            .iter()
            .all(|l| matches!(&l.target, Target::Page(p) if p.skolem == "YearPage")));
    }

    #[test]
    fn click_expansion_is_per_page() {
        let g = data();
        let q = parse_query(FIG3).unwrap();
        let site = DynamicSite::new(&g, &q, EvalOptions::default()).unwrap();
        let y1997 = PageRef {
            skolem: "YearPage".into(),
            args: vec![Value::Int(1997)],
        };
        let links = site.expand(&y1997).unwrap();
        // Year edge + two papers from 1997 (p1, p3) — not p2.
        let papers: Vec<_> = links.iter().filter(|l| l.label == "Paper").collect();
        assert_eq!(papers.len(), 2, "{links:?}");
        assert!(links
            .iter()
            .any(|l| l.label == "Year" && matches!(&l.target, Target::Value(Value::Int(1997)))));

        let y1998 = PageRef {
            skolem: "YearPage".into(),
            args: vec![Value::Int(1998)],
        };
        let links98 = site.expand(&y1998).unwrap();
        assert_eq!(links98.iter().filter(|l| l.label == "Paper").count(), 1);
    }

    #[test]
    fn arc_variable_labels_expand() {
        let g = data();
        let q = parse_query(FIG3).unwrap();
        let site = DynamicSite::new(&g, &q, EvalOptions::default()).unwrap();
        // PaperPresentation(p1): copied attributes + Abstract link.
        let p1 = g.nodes()[0];
        let page = PageRef {
            skolem: "PaperPresentation".into(),
            args: vec![Value::Node(p1)],
        };
        let links = site.expand(&page).unwrap();
        assert!(links.iter().any(|l| l.label == "title"));
        assert!(links.iter().any(|l| l.label == "year"));
        assert!(links.iter().any(|l| l.label == "Abstract"
            && matches!(&l.target, Target::Page(p) if p.skolem == "AbstractPage")));
    }

    /// The fastest of five cold and of five warm expansions of a hub page
    /// with `n` links.
    fn hub_times(n: usize) -> (std::time::Duration, std::time::Duration) {
        let mut g = Graph::standalone();
        for _ in 0..n {
            let item = g.new_node(None);
            g.add_to_collection_str("Items", item);
        }
        let q = parse_query(
            r#"CREATE Hub()
               { WHERE Items(x) CREATE ItemPage(x) LINK Hub() -> "Item" -> ItemPage(x) }"#,
        )
        .unwrap();
        let site = DynamicSite::new(&g, &q, EvalOptions::default()).unwrap();
        let hub = PageRef {
            skolem: "Hub".into(),
            args: vec![],
        };
        let time = || {
            let t = std::time::Instant::now();
            assert_eq!(site.expand(&hub).unwrap().len(), n);
            t.elapsed()
        };
        let mut cold = Vec::new();
        for _ in 0..5 {
            site.cache_clear();
            cold.push(time());
        }
        let warm = (0..5).map(|_| time());
        (cold.into_iter().min().unwrap(), warm.min().unwrap())
    }

    #[test]
    fn expansion_scales_linearly() {
        // Eight times the links should cost about eight times as much; a
        // quadratic pass costs 64 times. The bound sits a factor of three
        // from either, so a noisy host cannot flip the verdict.
        let (cold, warm) = hub_times(2_000);
        let (cold8, warm8) = hub_times(16_000);
        for (what, t, t8) in [("cold", cold, cold8), ("warm", warm, warm8)] {
            let ratio = t8.as_secs_f64() / t.as_secs_f64();
            assert!(ratio < 24.0, "{what}: {t:?} -> {t8:?} is {ratio:.1}x");
        }
    }

    #[test]
    fn cache_hits_on_repeat_clicks() {
        let g = data();
        let q = parse_query(FIG3).unwrap();
        let site = DynamicSite::new(&g, &q, EvalOptions::default()).unwrap();
        let root = PageRef {
            skolem: "RootPage".into(),
            args: vec![],
        };
        site.expand(&root).unwrap();
        let before = site.stats();
        assert!(before.cache_misses > 0);
        site.expand(&root).unwrap();
        let after = site.stats();
        assert_eq!(after.expansions, before.expansions);
        assert_eq!(after.cache_misses, before.cache_misses);
        assert!(after.cache_hits > before.cache_hits);
    }

    #[test]
    fn pages_of_enumerates_extension() {
        let g = data();
        let q = parse_query(FIG3).unwrap();
        let site = DynamicSite::new(&g, &q, EvalOptions::default()).unwrap();
        let years = site.pages_of("YearPage").unwrap();
        assert_eq!(years.len(), 2);
        let pps = site.pages_of("PaperPresentation").unwrap();
        assert_eq!(pps.len(), 3);
        assert!(site.pages_of("Nothing").unwrap().is_empty());
    }

    #[test]
    fn unknown_page_yields_no_links() {
        let g = data();
        let q = parse_query(FIG3).unwrap();
        let site = DynamicSite::new(&g, &q, EvalOptions::default()).unwrap();
        let bogus = PageRef {
            skolem: "Nowhere".into(),
            args: vec![],
        };
        assert!(site.expand(&bogus).unwrap().is_empty());
        // A YearPage that no data supports: clauses run but bind nothing
        // (the conjunction is unsatisfiable with v = 1642).
        let empty = PageRef {
            skolem: "YearPage".into(),
            args: vec![Value::Int(1642)],
        };
        let links = site.expand(&empty).unwrap();
        assert!(links.is_empty(), "{links:?}");
    }

    #[test]
    fn cache_respects_entry_bound_and_counts_evictions() {
        let g = data();
        let q = parse_query(FIG3).unwrap();
        let cfg = CacheConfig {
            max_entries: 2,
            max_bytes: usize::MAX,
        };
        let site = DynamicSite::with_cache(&g, &q, EvalOptions::default(), cfg).unwrap();
        for page in [
            PageRef {
                skolem: "RootPage".into(),
                args: vec![],
            },
            PageRef {
                skolem: "YearPage".into(),
                args: vec![Value::Int(1997)],
            },
            PageRef {
                skolem: "YearPage".into(),
                args: vec![Value::Int(1998)],
            },
            PageRef {
                skolem: "AbstractsPage".into(),
                args: vec![],
            },
        ] {
            site.expand(&page).unwrap();
            assert!(
                site.cache_len() <= 2,
                "cache exceeded bound: {}",
                site.cache_len()
            );
        }
        assert!(site.stats().evictions > 0);
    }

    #[test]
    fn cache_respects_byte_bound() {
        let g = data();
        let q = parse_query(FIG3).unwrap();
        let cfg = CacheConfig {
            max_entries: usize::MAX,
            max_bytes: 600,
        };
        let site = DynamicSite::with_cache(&g, &q, EvalOptions::default(), cfg).unwrap();
        for page in site.pages_of("PaperPresentation").unwrap() {
            site.expand(&page).unwrap();
            // A single oversized entry may stay (the caller just computed
            // it), but the cache must not accumulate beyond that.
            assert!(site.cache_len() <= 1 || site.cache.lock().bytes <= 600);
        }
        assert!(site.stats().evictions > 0);
    }

    #[test]
    fn lru_evicts_least_recently_used_first() {
        let g = data();
        let q = parse_query(FIG3).unwrap();
        // YearPage and RootPage each have two link clauses, so every cold
        // expansion inserts two entries. Capacity four holds both years.
        let cfg = CacheConfig {
            max_entries: 4,
            max_bytes: usize::MAX,
        };
        let site = DynamicSite::with_cache(&g, &q, EvalOptions::default(), cfg).unwrap();
        let y1997 = PageRef {
            skolem: "YearPage".into(),
            args: vec![Value::Int(1997)],
        };
        let y1998 = PageRef {
            skolem: "YearPage".into(),
            args: vec![Value::Int(1998)],
        };
        let root = PageRef {
            skolem: "RootPage".into(),
            args: vec![],
        };
        site.expand(&y1997).unwrap();
        site.expand(&y1998).unwrap();
        // Touch 1997 so 1998 becomes least recently used, then displace
        // two entries with the root page.
        site.expand(&y1997).unwrap();
        site.expand(&root).unwrap();
        assert_eq!(site.stats().evictions, 2);

        // The recently-touched year survived ...
        let before = site.stats();
        site.expand(&y1997).unwrap();
        let s = site.stats();
        assert_eq!(s.cache_misses, before.cache_misses, "{s:?}");
        assert_eq!(s.cache_hits, before.cache_hits + 2, "{s:?}");
        // ... and the least-recently-used year was evicted.
        site.expand(&y1998).unwrap();
        let s2 = site.stats();
        assert_eq!(s2.cache_misses, s.cache_misses + 2, "{s2:?}");
    }

    #[test]
    fn invalidation_drops_only_matching_year() {
        let mut g = data();
        let q = parse_query(FIG3).unwrap();
        // Pre-intern and find p1 before the site borrows the graph.
        let p1 = g.nodes()[0];
        let note = g.sym("note");
        g.add_edge(p1, note, Value::str("extended version"))
            .unwrap();
        let site = DynamicSite::new(&g, &q, EvalOptions::default()).unwrap();
        let y1997 = PageRef {
            skolem: "YearPage".into(),
            args: vec![Value::Int(1997)],
        };
        let y1998 = PageRef {
            skolem: "YearPage".into(),
            args: vec![Value::Int(1998)],
        };
        site.expand(&y1997).unwrap();
        site.expand(&y1998).unwrap();
        let entries_before = site.cache_len();

        // The arc-variable clause `x -> l -> v` in the Fig. 3 query matches
        // any edge, so PaperPresentation/AbstractPage caches for p1 go; the
        // YearPage caches are keyed on v (the year) and only match if the
        // delta's target coerces to the year — "extended version" does not.
        let dropped = site.invalidate(&Delta::EdgeAdded {
            from: p1,
            label: note,
            to: Value::str("extended version"),
        });
        assert_eq!(site.cache_len(), entries_before - dropped as usize);
        // Both YearPage caches survive: the new value is not a year key.
        site.expand(&y1997).unwrap();
        site.expand(&y1998).unwrap();
        let s = site.stats();
        assert_eq!(s.invalidated, dropped);

        // A new year edge invalidates exactly that year's cache keys.
        let year = g.sym("year");
        let before_1997 = site.cache_len();
        let dropped_year = site.invalidate(&Delta::EdgeAdded {
            from: p1,
            label: year,
            to: Value::Int(1997),
        });
        assert!(dropped_year > 0);
        assert!(site.cache_len() < before_1997);
    }

    #[test]
    fn removal_delta_invalidates_matching_entries() {
        let mut g = data();
        let q = parse_query(FIG3).unwrap();
        let p1 = g.nodes()[0];
        let year = g.sym("year");
        let site = DynamicSite::new(&g, &q, EvalOptions::default()).unwrap();
        let y1997 = PageRef {
            skolem: "YearPage".into(),
            args: vec![Value::Int(1997)],
        };
        let y1998 = PageRef {
            skolem: "YearPage".into(),
            args: vec![Value::Int(1998)],
        };
        // Warm both year caches, then retract p1's 1997 edge.
        let links_before = site.expand(&y1997).unwrap();
        site.expand(&y1998).unwrap();
        assert_eq!(
            links_before.iter().filter(|l| l.label == "Paper").count(),
            2
        );

        let dropped = site.invalidate(&Delta::EdgeRemoved {
            from: p1,
            label: year,
            to: Value::Int(1997),
        });
        assert!(dropped > 0, "1997 entries must be dropped");

        // Recompute on the mutated graph through a fresh borrow, carrying
        // the invalidated cache over: 1997 loses a paper, 1998 is served
        // from the surviving warm entries.
        let snap = site.cache_snapshot();
        g.remove_edge(p1, year, &Value::Int(1997)).unwrap();
        let site2 = DynamicSite::new(&g, &q, EvalOptions::default()).unwrap();
        site2.cache_restore(snap);
        let links_after = site2.expand(&y1997).unwrap();
        assert_eq!(links_after.iter().filter(|l| l.label == "Paper").count(), 1);
        site2.expand(&y1998).unwrap();
        let s = site2.stats();
        assert!(
            s.cache_hits > 0,
            "1998 entries survived invalidation: {s:?}"
        );
    }

    #[test]
    fn snapshot_restore_round_trips() {
        let g = data();
        let q = parse_query(FIG3).unwrap();
        let site = DynamicSite::new(&g, &q, EvalOptions::default()).unwrap();
        let root = PageRef {
            skolem: "RootPage".into(),
            args: vec![],
        };
        let links = site.expand(&root).unwrap();
        let snap = site.cache_snapshot();

        let warm = DynamicSite::new(&g, &q, EvalOptions::default()).unwrap();
        warm.cache_restore(snap);
        assert_eq!(warm.cache_len(), site.cache_len());
        let links2 = warm.expand(&root).unwrap();
        assert_eq!(links, links2);
        let s = warm.stats();
        assert_eq!(s.cache_misses, 0, "restored entries must serve the click");
        assert!(s.cache_hits > 0);
    }
}
