//! Transactions: [`Txn`] buffers ops for the [`PagedStore`] it borrows
//! and commits them as one log commit record behind one fsync.

use super::codec::{DeltaOp, WireValue};
use super::paged::PagedStore;
use crate::error::Result;

/// A buffered transaction, begun with [`PagedStore::begin`]. Build up ops,
/// then [`Txn::commit`]; dropping the transaction without committing
/// discards it entirely.
pub struct Txn<'a> {
    pub(super) store: &'a mut PagedStore,
    pub(super) ops: Vec<DeltaOp>,
    pub(super) next_node: u32,
}

impl Txn<'_> {
    /// Creates a node, returning its dense index (usable in later ops of
    /// this same transaction).
    pub fn add_node(&mut self, name: Option<&str>) -> u32 {
        let id = self.next_node;
        self.next_node += 1;
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

    /// Commits the transaction durably, returning the revision it landed
    /// as (see [`PagedStore::commit_ops`]).
    pub fn commit(self) -> Result<u64> {
        self.store.commit_ops(&self.ops)
    }
}
