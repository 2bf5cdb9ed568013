//! [`PagedStore`]: page file + write-ahead log + a working graph attached
//! to the checkpoint on first use, its node segments read on first touch,
//! with crash recovery on open, incremental checkpoints, compaction and
//! [`Snapshot`]s.

use super::codec::{apply_op, apply_ops, attach_stored, decode_op, encode_op, DeltaOp, Reading};
use super::commit::{Sink, Txn};
use super::segments::{note_op, SegFile};
use crate::error::{GraphError, Result};
use crate::fsio;
use crate::graph::Graph;
use crate::pager::Pager;
use crate::stats::STORAGE;
use crate::wal::{self, Wal};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;
use strudel_obs::trace;

/// WAL size (bytes) past which a successful commit triggers an automatic
/// checkpoint.
pub const DEFAULT_WAL_LIMIT: u64 = 4 << 20;

/// The write-ahead log lives next to the page file as `<path>.wal`.
pub fn wal_path(path: &Path) -> PathBuf {
    let mut os = path.as_os_str().to_os_string();
    os.push(".wal");
    PathBuf::from(os)
}

/// An immutable graph revision: a graph of its own, attached to the
/// checkpoint (every node segment read and checked, its bytes held by the
/// graph) with the committed delta ops on top, so its segments are built as
/// it is read — clones share the graph. The snapshot stays exactly as it
/// was no matter what the writer commits, checkpoints, or compacts
/// afterwards.
#[derive(Clone)]
pub struct Snapshot {
    inner: Arc<(u64, Graph)>,
}

impl Snapshot {
    /// The revision this snapshot pins.
    pub fn revision(&self) -> u64 {
        self.inner.0
    }

    /// The snapshot's graph.
    pub fn graph(&self) -> &Graph {
        &self.inner.1
    }
}

impl std::ops::Deref for Snapshot {
    type Target = Graph;

    fn deref(&self) -> &Graph {
        self.graph()
    }
}

/// What [`PagedStore::compact`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompactReport {
    /// Pages in the file before compaction.
    pub pages_before: u32,
    /// Pages in the file after compaction.
    pub pages_after: u32,
}

/// The durable graph store: a [`Pager`] page file holding the last
/// checkpointed snapshot, a [`Wal`] logging committed [`DeltaOp`]
/// transactions since that checkpoint, and an in-memory working graph at
/// the current revision.
///
/// Crash safety: a transaction is durable exactly when its WAL commit
/// record is (fsync on commit); opening the store replays committed
/// transactions on top of the checkpoint and discards any torn tail, so a
/// crash at any point yields the last committed revision — or a typed
/// [`GraphError::StorageCorrupt`] / [`GraphError::StorageRecovery`], never
/// a silently wrong graph.
pub struct PagedStore {
    pub(super) pager: Pager,
    wal: Wal,
    /// The working graph, attached on first use: `None` after a create,
    /// an import or an open with a clean WAL, until a reader or writer
    /// first needs it. Its node segments are read from the page file on
    /// first touch (see [`Graph::check`]).
    pub(super) graph: Option<Graph>,
    /// Segment layout of the last checkpoint; `None` before the first.
    pub(super) segs: Option<SegFile>,
    /// Committed ops since the last checkpoint (what snapshots pin).
    pending: Vec<DeltaOp>,
    /// Member-node count at the current revision (tracked so `begin` and
    /// the commit queue never force materialization).
    node_count: u32,
    revision: u64,
    cached_snapshot: Option<Snapshot>,
    wal_limit: u64,
    group_window: Duration,
}

impl std::fmt::Debug for PagedStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PagedStore")
            .field("path", &self.path())
            .field("revision", &self.revision)
            .finish_non_exhaustive()
    }
}

impl PagedStore {
    /// A store over `pager` and `wal` at `revision`, its working graph not
    /// yet materialized.
    fn assemble(pager: Pager, wal: Wal, segs: Option<SegFile>, revision: u64) -> Self {
        PagedStore {
            pager,
            wal,
            graph: None,
            node_count: segs.as_ref().map_or(0, |sf| sf.node_count),
            segs,
            pending: Vec::new(),
            revision,
            cached_snapshot: None,
            wal_limit: DEFAULT_WAL_LIMIT,
            group_window: Duration::ZERO,
        }
    }

    /// Creates an empty store at `path` (revision 0), truncating any
    /// existing page file and log.
    pub fn create(path: &Path) -> Result<Self> {
        let pager = Pager::create(path)?;
        let wal = Wal::create(&wal_path(path), 0)?;
        fsio::fsync_dir(&fsio::parent_dir(path))?;
        let store = Self::assemble(pager, wal, None, 0);
        store.publish_gauges();
        Ok(store)
    }

    /// Creates a store at `path` seeded with `graph` as revision 1. The
    /// store numbers nodes by `graph`'s member order.
    pub fn import(path: &Path, graph: &Graph) -> Result<Self> {
        // Encode before touching the files: a graph that cannot be stored
        // leaves whatever store was at `path` as it was.
        let mut segs = SegFile::seed(graph)?;
        let encoded = segs.encode_dirty(graph)?;
        let mut pager = Pager::create(path)?;
        // Placeholder log, replaced once the revision-1 image is durable,
        // so a crash in between leaves a stale (discarded) log, never one
        // ahead of the page file.
        Wal::create(&wal_path(path), 0)?;
        segs.write(&mut pager, encoded, 1)?;
        let wal = Wal::create(&wal_path(path), 1)?;
        fsio::fsync_dir(&fsio::parent_dir(path))?;
        let store = Self::assemble(pager, wal, Some(segs), 1);
        store.publish_gauges();
        Ok(store)
    }

    /// Opens the store at `path`, running crash recovery: validates the
    /// header slots, the manifest, the preamble and the collections' pages,
    /// replays committed WAL transactions (counting and truncating any torn
    /// tail), and discards a stale log left behind by a crash between
    /// checkpoint and log reset. Reads no node segment's page: a node
    /// segment is read and checked the first time one of its nodes is, and
    /// one that fails then fails [`Graph::check`] (`strudel-cli store info`
    /// reads them all).
    ///
    /// A log with transactions is replayed into the working graph now, so
    /// one that does not apply — or touches a segment that does not read —
    /// fails the open (reading only the segments its ops touch); a clean
    /// open defers attaching the checkpoint until someone needs the graph.
    pub fn open(path: &Path) -> Result<Self> {
        Self::open_with(path, None)
    }

    /// [`PagedStore::open`] for a caller that wants the current revision in
    /// a graph of its own — fresh, standalone or in a universe shared with
    /// other sources: the checkpoint is attached to `g`, every node segment
    /// read and checked now (the graph outlives the store, and the page
    /// file may change under it), and the log replayed into it — failing the
    /// open if any of it does not read — and the store keeps no working
    /// graph, so the revision is held once.
    pub fn open_into(path: &Path, g: &mut Graph) -> Result<Self> {
        Self::open_with(path, Some(g))
    }

    fn open_with(path: &Path, into: Option<&mut Graph>) -> Result<Self> {
        let mut tspan = trace::span("store.open", trace::Layer::Store);
        let mut pager = Pager::open(path)?;
        let segs = match pager.chain_len() {
            0 => None,
            _ => Some(SegFile::from_manifest(&mut pager)?),
        };
        let base = pager.revision();
        let wp = wal_path(path);
        let (wal, txns) = if wp.exists() {
            Wal::open(&wp, base)?
        } else {
            (Wal::create(&wp, base)?, Vec::new())
        };
        if wal.base_revision() > base {
            return Err(GraphError::recovery(format!(
                "write-ahead log base revision {} is ahead of page file revision {base}",
                wal.base_revision()
            )));
        }
        let mut store = Self::assemble(pager, wal, segs, base);
        if store.wal.base_revision() < base {
            // Crash after a durable checkpoint but before the log reset:
            // everything in this log is already in the page file. Start a
            // fresh log.
            store.wal = Wal::create(&wp, base)?;
        } else {
            for txn in &txns {
                if txn.revision != store.revision + 1 {
                    return Err(GraphError::recovery(format!(
                        "log commits revision {} on top of revision {}",
                        txn.revision, store.revision
                    )));
                }
                for delta in &txn.deltas {
                    let op = decode_op(delta)?;
                    note_op(&mut store.segs, &mut store.node_count, &op);
                    store.pending.push(op);
                }
                store.revision = txn.revision;
            }
        }
        match into {
            Some(g) => store.materialize_into(g)?,
            None if store.pending.is_empty() => {}
            None => store.ensure_graph()?.check()?,
        }
        if !store.pending.is_empty() {
            STORAGE.wal_recoveries.inc();
            STORAGE.wal_recovered_frames.add(store.pending.len() as u64);
        }
        if tspan.is_live() {
            tspan.attr_u64("pages", u64::from(store.pager.page_count()));
            tspan.attr_u64("recovered_frames", store.pending.len() as u64);
            tspan.attr_u64("rev", store.revision);
        }
        store.publish_gauges();
        Ok(store)
    }

    /// The page file path.
    pub fn path(&self) -> &Path {
        self.pager.path()
    }

    /// The current committed revision.
    pub fn revision(&self) -> u64 {
        self.revision
    }

    /// The working graph at the current revision (read-only; mutate through
    /// [`PagedStore::begin`]). Attaches it on first access; its node
    /// segments are read, checked and built as they are first read — one
    /// that does not read leaves its nodes empty and [`Graph::check`]
    /// failing.
    pub fn graph(&mut self) -> Result<&Graph> {
        self.ensure_graph().map(|g| &*g)
    }

    fn ensure_graph(&mut self) -> Result<&mut Graph> {
        if self.graph.is_none() {
            let mut g = Graph::standalone();
            self.attach(&mut g, Reading::OnFirstTouch)?;
            self.graph = Some(g);
        }
        Ok(self.graph.as_mut().expect("attached above"))
    }

    /// Fills `g` — a fresh graph, standalone or in a universe shared with
    /// other sources — with the current revision: the checkpoint attached,
    /// every node segment of it read and checked now, then the committed ops
    /// since. Independent of the working graph (to read a store into a graph
    /// of one's own without the store keeping a second one, open it with
    /// [`PagedStore::open_into`]). Reading every segment, this is also the
    /// store's full check.
    pub fn materialize_into(&mut self, g: &mut Graph) -> Result<()> {
        self.attach(g, Reading::AtAttach)
    }

    /// The one way a stored revision becomes a graph: the checkpoint (if
    /// any) attached to `g`, its node segments read as `reading` says, then
    /// the committed ops on top — building only the segments they touch.
    fn attach(&mut self, g: &mut Graph, reading: Reading) -> Result<()> {
        let mut tspan = trace::span("store.materialize", trace::Layer::Store);
        let done = match &self.segs {
            Some(sf) => attach_stored(g, sf, &mut self.pager, reading),
            None => Ok(()),
        };
        let done = done.and_then(|()| apply_ops(g, &self.pending));
        STORAGE.materializations.inc();
        if tspan.is_live() {
            tspan.attr_u64("nodes", g.node_count() as u64);
            tspan.attr_u64("edges", g.edge_count() as u64);
            tspan.attr_u64("ops", self.pending.len() as u64);
        }
        done
    }

    /// Pages in the page file (header slots included).
    pub fn page_count(&self) -> u32 {
        self.pager.page_count()
    }

    /// Pages lost to freelist overflow, reclaimable by compaction.
    pub fn leaked_pages(&self) -> u64 {
        self.pager.leaked()
    }

    /// Free pages tracked in the active header, available to the next
    /// copy-on-write commit.
    pub fn freelist_len(&self) -> usize {
        self.pager.free_len()
    }

    /// Pages the next incremental checkpoint would rewrite.
    pub fn dirty_pages(&self) -> u64 {
        self.segs.as_ref().map_or(0, |sf| sf.dirty_page_estimate())
    }

    /// Segments dirtied since the last checkpoint.
    pub fn dirty_segments(&self) -> u64 {
        self.segs.as_ref().map_or(0, |sf| sf.dirty_segments())
    }

    /// Member-node count at the current revision (without materializing).
    pub fn node_count(&self) -> u32 {
        self.node_count
    }

    /// Bytes in the write-ahead log (header included).
    pub fn wal_size(&self) -> u64 {
        self.wal.size_bytes()
    }

    /// Seconds since the current write-ahead log was created (reset at the
    /// last checkpoint) — how old the un-folded tail of the store is.
    pub fn wal_age_seconds(&self) -> u64 {
        self.wal.age_seconds()
    }

    /// Sets the WAL size past which commits auto-checkpoint.
    pub fn set_wal_limit(&mut self, bytes: u64) {
        self.wal_limit = bytes;
    }

    /// The group-commit window (see [`PagedStore::set_group_commit_window`]).
    pub fn group_commit_window(&self) -> Duration {
        self.group_window
    }

    /// Sets how long a [`CommitQueue`] leader waits, after claiming the
    /// store, for more transactions to join its batch before the shared
    /// fsync. Zero (the default) batches only what has already queued.
    pub fn set_group_commit_window(&mut self, window: Duration) {
        self.group_window = window;
    }

    /// Starts a transaction. Ops are buffered in the [`Txn`] and nothing
    /// changes until [`Txn::commit`].
    pub fn begin(&mut self) -> Txn<'_> {
        let base_nodes = self.node_count;
        Txn {
            sink: Sink::Store(self),
            ops: Vec::new(),
            base_nodes,
            added_nodes: 0,
        }
    }

    /// Applies and durably commits a batch of ops as one transaction,
    /// returning the new revision. On failure — an op that does not apply,
    /// a segment that does not read ([`Graph::check`]), a log write — the
    /// store is rolled back to the last committed revision (by reloading
    /// from durable state): all-or-nothing, in memory and on disk.
    pub fn commit_ops(&mut self, ops: &[DeltaOp]) -> Result<u64> {
        self.commit_batch(std::slice::from_ref(&ops))
    }

    /// Commits several transactions' ops behind **one** WAL commit record
    /// and one fsync — the group-commit primitive. The batch is a single
    /// revision on disk: either every transaction in it is durable or none
    /// is (a crash can never surface a batch prefix), and on any failure
    /// the store rolls back to the last committed revision.
    pub fn commit_batch(&mut self, txns: &[&[DeltaOp]]) -> Result<u64> {
        let total: usize = txns.iter().map(|t| t.len()).sum();
        if total == 0 {
            return Ok(self.revision);
        }
        let mut tspan = trace::span("store.commit", trace::Layer::Store);
        if tspan.is_live() {
            tspan.attr_u64("ops", total as u64);
            tspan.attr_u64("txns", txns.len() as u64);
            tspan.attr_u64("rev", self.revision + 1);
        }
        self.ensure_graph()?;
        for op in txns.iter().flat_map(|t| t.iter()) {
            let g = self.graph.as_mut().expect("ensured above");
            if let Err(e) = apply_op(g, op) {
                self.reload_from_durable()?;
                return Err(e);
            }
            note_op(&mut self.segs, &mut self.node_count, op);
        }
        if let Err(e) = self.graph.as_ref().expect("ensured above").check() {
            self.reload_from_durable()?;
            return Err(e);
        }
        let target = self.revision + 1;
        let logged: Result<()> = (|| {
            for op in txns.iter().flat_map(|t| t.iter()) {
                self.wal.append_delta(&encode_op(op)?)?;
            }
            self.wal.commit(target)
        })();
        if let Err(e) = logged {
            self.reload_from_durable()?;
            return Err(e);
        }
        let grouped = txns.iter().filter(|t| !t.is_empty()).count();
        if grouped > 1 {
            STORAGE.wal_group_commits.inc();
            STORAGE.wal_group_commit_txns.add(grouped as u64);
        }
        self.revision = target;
        self.cached_snapshot = None;
        self.pending
            .extend(txns.iter().flat_map(|t| t.iter().cloned()));
        self.publish_gauges();
        if self.wal.size_bytes() > self.wal_limit {
            self.checkpoint()?;
        }
        Ok(self.revision)
    }

    /// Discards in-memory state and reloads from the durable files —
    /// the rollback path when a commit fails partway.
    fn reload_from_durable(&mut self) -> Result<()> {
        let path = self.pager.path().to_path_buf();
        let mut fresh = PagedStore::open(&path)?;
        fresh.wal_limit = self.wal_limit;
        fresh.group_window = self.group_window;
        *self = fresh;
        Ok(())
    }

    /// A consistent snapshot of the current revision: a graph of its own,
    /// attached to the checkpoint (every node segment read and checked from
    /// the page file now), with the committed ops on top — so a checkpoint
    /// that does not read fails here, not on a later read. Later commits,
    /// checkpoints, and compactions leave it untouched. Snapshots of the
    /// same revision are shared.
    pub fn snapshot(&mut self) -> Result<Snapshot> {
        if let Some(s) = &self.cached_snapshot {
            if s.revision() == self.revision {
                return Ok(s.clone());
            }
        }
        let mut graph = Graph::standalone();
        self.materialize_into(&mut graph)?;
        let snap = Snapshot {
            inner: Arc::new((self.revision, graph)),
        };
        self.cached_snapshot = Some(snap.clone());
        Ok(snap)
    }

    /// Folds the log into the page file **incrementally**: only segments
    /// that committed deltas touched since the last checkpoint are
    /// re-serialized and written (copy-on-write); clean segments' pages are
    /// shared with the previous revision. A crash anywhere in between
    /// leaves a recoverable store (the old header slot survives until the
    /// new manifest is durable; a stale log is detected and discarded on
    /// open). A working graph whose [`Graph::check`] fails — a segment of
    /// it did not read, and reads as empty — is never written: the
    /// checkpoint fails with that error.
    pub fn checkpoint(&mut self) -> Result<()> {
        if let Some(g) = &self.graph {
            g.check()?;
        }
        if self.pager.revision() == self.revision && self.wal.size_bytes() == wal::EMPTY_SIZE {
            return Ok(());
        }
        let mut tspan = trace::span("store.checkpoint", trace::Layer::Store);
        if tspan.is_live() {
            tspan.attr_u64("rev", self.revision);
            tspan.attr_u64("wal_bytes", self.wal.size_bytes());
        }
        self.ensure_graph()?;
        let graph = self.graph.as_ref().expect("ensured above");
        if self.segs.is_none() {
            // First checkpoint: a fully-dirty layout.
            self.segs = Some(SegFile::seed(graph)?);
        }
        let segs = self.segs.as_mut().expect("seeded above");
        // Encoding reads every node of a dirty segment, which may be the
        // first read of one.
        let encoded = segs.encode_dirty(graph)?;
        graph.check()?;
        segs.write(&mut self.pager, encoded, self.revision)?;
        self.wal = Wal::create(&wal_path(self.pager.path()), self.revision)?;
        STORAGE.wal_checkpoints.inc();
        self.pending.clear();
        self.cached_snapshot = None;
        self.publish_gauges();
        Ok(())
    }

    /// Checkpoints, then rewrites the page file minimally (dropping free
    /// and leaked pages) with an atomic replace. The segments' *bytes* are
    /// copied as-is from the old file — no graph re-serialization — and
    /// their revision stamps and tallies survive. The working graph keeps
    /// reading the segments it has not read yet from the old file, which
    /// its read handle holds open. Returns the before/after page counts.
    pub fn compact(&mut self) -> Result<CompactReport> {
        self.checkpoint()?;
        let pages_before = self.pager.page_count();
        let path = self.pager.path().to_path_buf();
        let tmp = path.with_extension("pdb.compact");
        let moved = {
            let mut fresh = Pager::create(&tmp)?;
            match &self.segs {
                Some(segs) => segs.copy_to(&mut self.pager, &mut fresh, self.revision)?,
                None => Vec::new(),
            }
        };
        if let Err(e) = std::fs::rename(&tmp, &path) {
            let _ = std::fs::remove_file(&tmp);
            return Err(e.into());
        }
        fsio::fsync_dir(&fsio::parent_dir(&path))?;
        self.pager = Pager::open(&path)?;
        if let Some(segs) = &mut self.segs {
            segs.install(moved);
        }
        STORAGE.compactions.inc();
        self.publish_gauges();
        Ok(CompactReport {
            pages_before,
            pages_after: self.pager.page_count(),
        })
    }

    /// Mirrors this store's level-style state into the process-wide gauges.
    fn publish_gauges(&self) {
        STORAGE.dirty_pages.set(self.dirty_pages());
        STORAGE.freelist_pages.set(self.pager.free_len() as u64);
    }
}
