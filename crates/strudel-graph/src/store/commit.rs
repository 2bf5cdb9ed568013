//! Transactions and group commit: [`Txn`] buffers ops for a
//! [`PagedStore`] or a [`CommitQueue`], which folds concurrent
//! transactions into one log commit record behind one fsync.

use super::codec::{DeltaOp, WireValue};
use super::paged::PagedStore;
use crate::error::{GraphError, Result};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::Duration;
use strudel_obs::trace;

/// A buffered transaction, begun on a [`PagedStore`] or on a
/// [`CommitQueue`]. Build up ops, then [`Txn::commit`]; dropping the
/// transaction without committing discards it entirely.
pub struct Txn<'a> {
    pub(super) sink: Sink<'a>,
    pub(super) ops: Vec<DeltaOp>,
    pub(super) base_nodes: u32,
    pub(super) added_nodes: u32,
}

/// Where a [`Txn`] commits.
pub(super) enum Sink<'a> {
    /// Straight into the store it borrows: one revision, one fsync.
    Store(&'a mut PagedStore),
    /// Through the queue's next batch, which rebases the node indexes.
    Queue(&'a CommitQueue),
}

impl Txn<'_> {
    /// Creates a node, returning its dense index (usable in later ops of
    /// this same transaction; provisional until commit when the
    /// transaction began on a [`CommitQueue`]).
    pub fn add_node(&mut self, name: Option<&str>) -> u32 {
        let id = self.base_nodes + self.added_nodes;
        self.added_nodes += 1;
        self.ops.push(DeltaOp::AddNode {
            name: name.map(str::to_owned),
        });
        id
    }

    /// Adds edge `node --label--> value`.
    pub fn add_edge(&mut self, node: u32, label: &str, value: WireValue) {
        self.ops.push(DeltaOp::AddEdge {
            node,
            label: label.to_owned(),
            value,
        });
    }

    /// Removes edge `node --label--> value` (no-op if absent).
    pub fn remove_edge(&mut self, node: u32, label: &str, value: WireValue) {
        self.ops.push(DeltaOp::RemoveEdge {
            node,
            label: label.to_owned(),
            value,
        });
    }

    /// Ensures a collection exists.
    pub fn ensure_collection(&mut self, name: &str) {
        self.ops.push(DeltaOp::EnsureCollection {
            name: name.to_owned(),
        });
    }

    /// Adds a value to a collection (created if missing).
    pub fn add_to_collection(&mut self, collection: &str, value: WireValue) {
        self.ops.push(DeltaOp::AddToCollection {
            collection: collection.to_owned(),
            value,
        });
    }

    /// Removes a value from a collection (no-op if absent).
    pub fn remove_from_collection(&mut self, collection: &str, value: WireValue) {
        self.ops.push(DeltaOp::RemoveFromCollection {
            collection: collection.to_owned(),
            value,
        });
    }

    /// Number of ops buffered so far.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the transaction is empty.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Commits the transaction durably, returning the revision it (or the
    /// batch it joined) landed as.
    pub fn commit(self) -> Result<u64> {
        match self.sink {
            Sink::Store(store) => store.commit_ops(&self.ops),
            Sink::Queue(queue) => queue.commit_ops(self.base_nodes, self.ops),
        }
    }
}

// ----------------------------------------------------------- group commit ----

/// A committer's rendezvous with its batch leader: the result slot plus a
/// condvar the leader signals. Followers wait *here*, never on the store
/// lock — a follower parked on the store mutex could not collect its
/// result (or submit its next transaction) while the next leader holds the
/// store through the batching window, which would shrink every batch to
/// the leader alone.
#[derive(Default)]
struct Ticket {
    state: std::sync::Mutex<Option<Result<u64>>>,
    filled: std::sync::Condvar,
}

struct QueueEntry {
    /// The store's node count when the transaction began; dense indexes
    /// ≥ this value are nodes the transaction itself creates and get
    /// rebased onto wherever the batch actually lands.
    base_nodes: u32,
    ops: Vec<DeltaOp>,
    /// Filled by the leader (while it still holds the store) with the
    /// entry's commit result.
    done: Arc<Ticket>,
}

/// A concurrent, group-committing write handle over a [`PagedStore`].
///
/// Threads build transactions with [`CommitQueue::begin`] and commit them
/// from any thread; concurrently submitted transactions are folded into
/// **one** WAL commit record behind **one** fsync. The batching is a lock
/// convoy: every committer enqueues its entry and then contends for the
/// store — whoever wins the lock becomes the *leader*, optionally sleeps
/// the store's group-commit window to let the queue fill, then drains and
/// commits everything queued as a single batch (one revision: all durable
/// or none) and hands each follower its result before releasing the store.
/// Followers that wake up already-committed return without touching the
/// WAL at all.
///
/// Clones share the queue and the store.
#[derive(Clone)]
pub struct CommitQueue {
    inner: Arc<QueueInner>,
}

struct QueueInner {
    store: Mutex<PagedStore>,
    waiting: Mutex<Vec<QueueEntry>>,
    /// Mirror of the store's node count, maintained by leaders after each
    /// batch. [`CommitQueue::begin`] reads this instead of locking the
    /// store: a begin that had to wait for the store would defeat the
    /// convoy (while a leader holds the store through its batching window,
    /// other writers must be able to build and enqueue transactions). The
    /// mirror may lag behind the store — never run ahead of it — and a low
    /// base is exactly what the rebasing in the commit path corrects.
    node_count: AtomicU32,
}

impl CommitQueue {
    /// Wraps a store for concurrent group-committed writes.
    pub fn new(store: PagedStore) -> Self {
        let node_count = AtomicU32::new(store.node_count());
        CommitQueue {
            inner: Arc::new(QueueInner {
                store: Mutex::new(store),
                waiting: Mutex::new(Vec::new()),
                node_count,
            }),
        }
    }

    /// Starts a transaction against the current revision.
    pub fn begin(&self) -> Txn<'_> {
        let base_nodes = self.inner.node_count.load(Ordering::Acquire);
        Txn {
            sink: Sink::Queue(self),
            ops: Vec::new(),
            base_nodes,
            added_nodes: 0,
        }
    }

    /// Runs `f` with exclusive access to the underlying store (for
    /// snapshots, checkpoints, stats). Queued commits wait.
    pub fn with_store<R>(&self, f: impl FnOnce(&mut PagedStore) -> R) -> R {
        let mut store = self.inner.store.lock();
        let out = f(&mut store);
        // `f` may have committed directly; refresh the begin() mirror.
        self.inner
            .node_count
            .store(store.node_count(), Ordering::Release);
        out
    }

    /// Unwraps the store if this is the last handle.
    pub fn into_store(self) -> std::result::Result<PagedStore, CommitQueue> {
        match Arc::try_unwrap(self.inner) {
            Ok(inner) => Ok(inner.store.into_inner()),
            Err(inner) => Err(CommitQueue { inner }),
        }
    }

    /// Enqueues a transaction's ops and returns once they are durable (or
    /// failed), whether this thread led the batch or another did.
    pub fn commit_ops(&self, base_nodes: u32, ops: Vec<DeltaOp>) -> Result<u64> {
        // Covers the whole rendezvous: a follower's span is mostly condvar
        // wait (its batch leader holds the store), a leader's span nests
        // the store.commit/store.wal_commit spans of the batch it drives.
        let mut tspan = trace::span("store.group_commit", trace::Layer::Store);
        tspan.attr_u64("ops", ops.len() as u64);
        let ticket: Arc<Ticket> = Arc::new(Ticket::default());
        self.inner.waiting.lock().push(QueueEntry {
            base_nodes,
            ops,
            done: ticket.clone(),
        });
        loop {
            if let Some(result) = ticket.state.lock().unwrap().take() {
                // A leader committed our entry as part of its batch.
                tspan.attr_text("role", "follower");
                return result;
            }
            let Some(mut store) = self.inner.store.try_lock() else {
                // Another thread holds the store. Either it is a leader
                // that will drain our entry (it takes the queue while
                // holding the store, after our push above), or it drained
                // the queue just before our push and nobody owns our entry
                // yet — the timeout sends us around the loop to lead it
                // ourselves.
                let guard = ticket.state.lock().unwrap();
                if guard.is_none() {
                    let _ = ticket
                        .filled
                        .wait_timeout(guard, Duration::from_millis(1))
                        .unwrap();
                }
                continue;
            };
            // Leader. Our ticket may have been filled between the check at
            // the top of the loop and winning the store; past this point
            // it cannot change (tickets are only filled under the store
            // lock), so an empty ticket means our entry is still queued.
            if let Some(result) = ticket.state.lock().unwrap().take() {
                tspan.attr_text("role", "follower");
                return result;
            }
            let window = store.group_commit_window();
            if !window.is_zero() && self.inner.waiting.lock().len() > 1 {
                // Leader with company: hold the store and let the queue
                // fill — concurrent committers enqueue freely (begin() and
                // the wait above never touch the store lock) and the batch
                // grows. An uncontended commit skips the wait: there is no
                // one to group with, and sleeping would just add the
                // window to every solo commit's latency.
                std::thread::sleep(window);
            }
            let batch: Vec<QueueEntry> = std::mem::take(&mut *self.inner.waiting.lock());
            debug_assert!(!batch.is_empty(), "own entry still queued");
            if batch.is_empty() {
                continue;
            }
            let result = Self::commit_batch_rebased(&mut store, &batch);
            self.inner
                .node_count
                .store(store.node_count(), Ordering::Release);
            let mut own = None;
            for entry in &batch {
                let r = result.clone();
                if Arc::ptr_eq(&entry.done, &ticket) {
                    own = Some(r);
                } else {
                    *entry.done.state.lock().unwrap() = Some(r);
                    entry.done.filled.notify_one();
                }
            }
            drop(store);
            if let Some(result) = own {
                tspan.attr_text("role", "leader");
                tspan.attr_u64("batch", batch.len() as u64);
                return result;
            }
        }
    }

    /// Rebases each entry's node indexes onto the store's current count,
    /// then commits the whole batch as one revision.
    fn commit_batch_rebased(store: &mut PagedStore, batch: &[QueueEntry]) -> Result<u64> {
        let mut cursor = store.node_count();
        let mut rebased: Vec<Vec<DeltaOp>> = Vec::with_capacity(batch.len());
        for entry in batch {
            if entry.base_nodes > cursor {
                return Err(GraphError::Storage {
                    message: format!(
                        "transaction began at node count {} but the store is at {cursor}",
                        entry.base_nodes
                    ),
                });
            }
            let shift = cursor - entry.base_nodes;
            let ops = rebase_ops(&entry.ops, entry.base_nodes, shift);
            cursor += ops
                .iter()
                .filter(|op| matches!(op, DeltaOp::AddNode { .. }))
                .count() as u32;
            rebased.push(ops);
        }
        let refs: Vec<&[DeltaOp]> = rebased.iter().map(|v| v.as_slice()).collect();
        store.commit_batch(&refs)
    }
}

impl std::fmt::Debug for CommitQueue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CommitQueue").finish_non_exhaustive()
    }
}

/// Shifts a transaction's self-created node indexes by `shift` — the nodes
/// earlier batch members created in front of it. Indexes below
/// `base_nodes` name preexisting nodes (the member list is append-only:
/// no op removes a node), so they are stable and pass through untouched.
fn rebase_ops(ops: &[DeltaOp], base_nodes: u32, shift: u32) -> Vec<DeltaOp> {
    if shift == 0 {
        return ops.to_vec();
    }
    let fix = |i: u32| if i >= base_nodes { i + shift } else { i };
    let fix_val = |v: &WireValue| match v {
        WireValue::Node(i) => WireValue::Node(fix(*i)),
        other => other.clone(),
    };
    ops.iter()
        .map(|op| match op {
            DeltaOp::AddNode { .. } | DeltaOp::EnsureCollection { .. } => op.clone(),
            DeltaOp::AddEdge { node, label, value } => DeltaOp::AddEdge {
                node: fix(*node),
                label: label.clone(),
                value: fix_val(value),
            },
            DeltaOp::RemoveEdge { node, label, value } => DeltaOp::RemoveEdge {
                node: fix(*node),
                label: label.clone(),
                value: fix_val(value),
            },
            DeltaOp::AddToCollection { collection, value } => DeltaOp::AddToCollection {
                collection: collection.clone(),
                value: fix_val(value),
            },
            DeltaOp::RemoveFromCollection { collection, value } => DeltaOp::RemoveFromCollection {
                collection: collection.clone(),
                value: fix_val(value),
            },
        })
        .collect()
}
