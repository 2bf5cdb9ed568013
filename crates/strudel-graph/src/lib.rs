//! # strudel-graph
//!
//! The semistructured data model underlying STRUDEL (Fernandez, Florescu,
//! Kang, Levy, Suciu — SIGMOD 1997): labeled, directed graphs in the style of
//! OEM, together with the indexed *data repository* of §2.2 of the paper.
//!
//! A [`Database`] holds a set of named [`Graph`]s that may share objects and
//! collections. Each graph consists of *objects* connected by directed edges
//! labeled with string-valued attribute names. Objects are either *nodes*,
//! identified by a unique object identifier ([`Oid`]), or *atomic values*
//! ([`Value`]): integers, floats, booleans, strings, URLs, and files of
//! several kinds (text, HTML, image, PostScript). Objects are grouped into
//! named *collections*; an object may belong to several collections, and
//! objects in the same collection may have different representations.
//!
//! Because semistructured data lacks a schema, the repository cannot rely on
//! schema information to organize data; instead (per §2.2) it **fully indexes
//! both the schema and the data**: one index holds the names of all
//! collections and attributes in a graph, others hold the extension of each
//! collection and each attribute, and indexes on atomic values are global to
//! the graph. See [`index`].
//!
//! The crate also implements STRUDEL's data-definition language ([`ddl`]),
//! the common exchange format between wrappers and the repository (the
//! `collection … { } object … in … { }` syntax of Fig. 2 of the paper).
//!
//! Durability lives in three layers: [`fsio`] (atomic, fsynced file
//! replacement), [`pager`] + [`wal`] (a checksummed page file and
//! write-ahead log), and [`store`] (the graph codec plus the
//! [`store::PagedStore`] transactional store, one writer at a time). See
//! `docs/STORAGE.md` for formats and the crash-safety argument.

#![warn(missing_docs)]

pub mod database;
pub mod ddl;
pub mod error;
pub mod fsio;
pub mod fxhash;
pub mod graph;
pub mod index;
pub mod pager;
pub mod stats;
pub mod store;
pub mod symbol;
pub mod value;
pub mod wal;

pub use database::Database;
pub use error::{GraphError, Result};
pub use graph::{Edge, Graph, GraphBatch, NodeId as Oid};
pub use stats::{storage_stats, StorageStats};
pub use symbol::{Interner, Sym};
pub use value::{FileKind, Value};
