//! Persistence for the data repository: the checkpoint-image codec and the
//! paged, WAL-backed store that keeps the image on disk.
//!
//! §6 of the paper lists "designing efficient storage representations for
//! semistructured data" among the open problems: "traditional database
//! systems rely heavily on schema information to organize data on disk",
//! which a schemaless repository cannot. This module implements the natural
//! schema-free layout the paper's repository design implies: a **symbol
//! table** (every label and collection name once), a **node table** (names
//! and out-edge lists referencing symbols), and **collection extents** —
//! the same three structures the in-memory indexes are built from, so a
//! loaded graph re-indexes in one pass.
//!
//! The format is a length-prefixed little-endian encoding, deliberately
//! dependency-free (no serde): the point of the exercise is the *layout*,
//! mirroring how the 1997 prototype would have had to store graphs. The
//! image is a concatenation of *segments*, and each byte layout has one
//! writer and one reader, whoever calls them: [`save`] and a checkpoint
//! write the same segments, and [`load_into`] and every way of reading a
//! store (the working graph, a [`Snapshot`], log replay,
//! [`PagedStore::materialize_into`]) check node records with one reader
//! and decode a 64-node segment of them when one of its nodes is first
//! read.
//!
//! [`PagedStore`] is the only form on disk: the image's segments live in a
//! [`crate::pager`] page file under a manifest that carries each node
//! segment's pages and tallies, commits are logged as typed [`DeltaOp`]s
//! in a [`crate::wal`] write-ahead log and replayed on open, and readers
//! take [`Snapshot`]s — immutable revisions that stay consistent while the
//! writer keeps committing. A store opens without reading a node segment:
//! its working graph reads and checks one on first touch, and one that
//! fails reads as empty and fails [`crate::Graph::check`]. See
//! `docs/STORAGE.md` for the file formats and the crash-safety argument.

mod codec;
mod commit;
mod paged;
mod segments;
#[cfg(test)]
mod tests;

pub use codec::{load, load_into, save, DeltaOp, WireValue};
pub use commit::{CommitQueue, Txn};
pub use paged::{wal_path, CompactReport, PagedStore, Snapshot, DEFAULT_WAL_LIMIT};
