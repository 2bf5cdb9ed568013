//! Persistence for the data repository: the flat snapshot codec and the
//! paged, WAL-backed store built on top of it.
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
//! The format is a length-prefixed little-endian encoding, written and read
//! without intermediate allocation beyond the structures themselves. It is
//! deliberately dependency-free (no serde): the point of the exercise is
//! the *layout*, mirroring how the 1997 prototype would have had to store
//! graphs.
//!
//! On top of the codec sits [`PagedStore`]: snapshots live in a
//! [`crate::pager`] page file, commits are logged as typed [`DeltaOp`]s in
//! a [`crate::wal`] write-ahead log and replayed on open, and readers take
//! [`Snapshot`]s — immutable materialized revisions that stay consistent
//! while the writer keeps committing. See `docs/STORAGE.md` for the file
//! formats and the crash-safety argument.

use crate::error::{GraphError, Result};
use crate::fsio;
use crate::fxhash::FxHashMap;
use crate::graph::{Graph, NodeId};
use crate::pager::Pager;
use crate::stats::STORAGE;
use crate::symbol::Sym;
use crate::value::{FileKind, Value};
use crate::wal::{self, Wal};
use parking_lot::Mutex;
use std::collections::BTreeSet;
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;
use strudel_obs::trace;

const MAGIC: &[u8; 8] = b"STRUDEL1";

fn io_err(e: io::Error) -> GraphError {
    GraphError::Storage {
        message: format!("I/O error: {e}"),
    }
}

fn corrupt(message: impl Into<String>) -> GraphError {
    GraphError::StorageCorrupt {
        message: message.into(),
    }
}

fn recovery(message: impl Into<String>) -> GraphError {
    GraphError::StorageRecovery {
        message: message.into(),
    }
}

/// Checks a count fits the on-disk `u32` representation; oversized graphs
/// fail loudly instead of silently writing a corrupt file.
fn checked_count(n: usize, what: &str) -> Result<u32> {
    u32::try_from(n).map_err(|_| corrupt(format!("{what} count {n} exceeds format limit")))
}

// ------------------------------------------------------------- primitives ----

fn write_u32(w: &mut impl Write, v: u32) -> Result<()> {
    w.write_all(&v.to_le_bytes()).map_err(io_err)
}

fn write_u64(w: &mut impl Write, v: u64) -> Result<()> {
    w.write_all(&v.to_le_bytes()).map_err(io_err)
}

fn write_str(w: &mut impl Write, s: &str) -> Result<()> {
    write_u32(
        w,
        u32::try_from(s.len()).map_err(|_| corrupt("string too long"))?,
    )?;
    w.write_all(s.as_bytes()).map_err(io_err)
}

/// A bounds-checked reader over the whole (buffered) input. Every count
/// and length in the file is validated against the bytes actually present
/// *before* any allocation, so a corrupted length prefix cannot trigger an
/// unbounded allocation (found by the bit-flip fuzz test).
struct In<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> In<'a> {
    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(corrupt("truncated input"));
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    /// Reads a count that prefixes `count * min_record_bytes`-byte records;
    /// rejects counts the remaining input cannot possibly hold.
    fn count(&mut self, min_record_bytes: usize) -> Result<usize> {
        let n = self.u32()? as usize;
        if n.saturating_mul(min_record_bytes.max(1)) > self.remaining() {
            return Err(corrupt(format!("count {n} exceeds remaining input")));
        }
        Ok(n)
    }

    fn str(&mut self) -> Result<String> {
        let len = self.u32()? as usize;
        let bytes = if self.remaining() < len {
            return Err(corrupt("truncated string"));
        } else {
            self.take(len)?
        };
        String::from_utf8(bytes.to_vec()).map_err(|_| corrupt("invalid UTF-8 in stored string"))
    }
}

// ------------------------------------------------------------- values ----

const TAG_NODE: u8 = 0;
const TAG_INT: u8 = 1;
const TAG_FLOAT: u8 = 2;
const TAG_BOOL: u8 = 3;
const TAG_STR: u8 = 4;
const TAG_URL: u8 = 5;
const TAG_FILE: u8 = 6;

fn file_kind_tag(kind: &FileKind) -> u8 {
    match kind {
        FileKind::Text => 0,
        FileKind::Html => 1,
        FileKind::Image => 2,
        FileKind::PostScript => 3,
    }
}

fn file_kind_of(tag: u8) -> Result<FileKind> {
    Ok(match tag {
        0 => FileKind::Text,
        1 => FileKind::Html,
        2 => FileKind::Image,
        3 => FileKind::PostScript,
        other => return Err(corrupt(format!("unknown file kind {other}"))),
    })
}

fn write_value(w: &mut impl Write, v: &Value, remap: &dyn Fn(NodeId) -> u32) -> Result<()> {
    match v {
        Value::Node(n) => {
            w.write_all(&[TAG_NODE]).map_err(io_err)?;
            write_u32(w, remap(*n))
        }
        Value::Int(i) => {
            w.write_all(&[TAG_INT]).map_err(io_err)?;
            write_u64(w, *i as u64)
        }
        Value::Float(f) => {
            w.write_all(&[TAG_FLOAT]).map_err(io_err)?;
            write_u64(w, f.to_bits())
        }
        Value::Bool(b) => w.write_all(&[TAG_BOOL, u8::from(*b)]).map_err(io_err),
        Value::Str(s) => {
            w.write_all(&[TAG_STR]).map_err(io_err)?;
            write_str(w, s)
        }
        Value::Url(s) => {
            w.write_all(&[TAG_URL]).map_err(io_err)?;
            write_str(w, s)
        }
        Value::File(kind, path) => {
            w.write_all(&[TAG_FILE, file_kind_tag(kind)])
                .map_err(io_err)?;
            write_str(w, path)
        }
    }
}

fn read_value(r: &mut In<'_>, nodes: &[NodeId]) -> Result<Value> {
    Ok(match r.u8()? {
        TAG_NODE => {
            let idx = r.u32()? as usize;
            Value::Node(
                *nodes
                    .get(idx)
                    .ok_or_else(|| corrupt("node index out of range"))?,
            )
        }
        TAG_INT => Value::Int(r.u64()? as i64),
        TAG_FLOAT => Value::Float(f64::from_bits(r.u64()?)),
        TAG_BOOL => Value::Bool(r.u8()? != 0),
        TAG_STR => Value::str(r.str()?),
        TAG_URL => Value::url(r.str()?),
        TAG_FILE => {
            let kind = file_kind_of(r.u8()?)?;
            Value::file(kind, r.str()?)
        }
        other => return Err(corrupt(format!("unknown value tag {other}"))),
    })
}

// ------------------------------------------------------------ graph I/O ----

/// Serializes a graph to a writer.
///
/// Layout: magic, symbol table (all labels used), node table (name flag +
/// name, edge list of `(symbol index, value)`), collection extents. Node
/// references are densified to the graph's member order, so the stored form
/// is independent of the universe's global oid space.
pub fn save(graph: &Graph, w: &mut impl Write) -> Result<()> {
    w.write_all(MAGIC).map_err(io_err)?;

    // Dense node numbering.
    let members = graph.nodes();
    checked_count(members.len(), "node")?;
    let mut dense = std::collections::HashMap::with_capacity(members.len());
    for (i, &n) in members.iter().enumerate() {
        dense.insert(n, u32::try_from(i).expect("node count checked above"));
    }
    let remap = |n: NodeId| -> u32 { *dense.get(&n).unwrap_or(&u32::MAX) };

    // Symbol table: all labels that occur, in first-use order.
    let mut sym_index: Vec<Sym> = Vec::new();
    let mut sym_of = std::collections::HashMap::new();
    let reader = graph.reader();
    for &n in members {
        for (l, _) in reader.out(n) {
            if !sym_of.contains_key(l) {
                let idx = checked_count(sym_index.len(), "symbol")?;
                sym_index.push(*l);
                sym_of.insert(*l, idx);
            }
        }
    }
    write_u32(w, checked_count(sym_index.len(), "symbol")?)?;
    for &s in &sym_index {
        write_str(w, &graph.resolve(s))?;
    }

    // Node table.
    write_u32(w, checked_count(members.len(), "node")?)?;
    for &n in members {
        match reader.name(n) {
            Some(name) => {
                w.write_all(&[1]).map_err(io_err)?;
                write_str(w, name)?;
            }
            None => w.write_all(&[0]).map_err(io_err)?,
        }
        let out = reader.out(n);
        // Dangling node references (to nodes outside this graph) are not
        // representable in the dense numbering; reject rather than corrupt.
        for (_, v) in out {
            if let Value::Node(m) = v {
                if !dense.contains_key(m) {
                    return Err(corrupt(format!(
                        "edge to non-member node {m}; adopt it before saving"
                    )));
                }
            }
        }
        write_u32(w, checked_count(out.len(), "out-edge")?)?;
        for (l, v) in out {
            write_u32(w, sym_of[l])?;
            write_value(w, v, &remap)?;
        }
    }

    // Collections.
    let colls = graph.collection_names().to_vec();
    write_u32(w, checked_count(colls.len(), "collection")?)?;
    for c in colls {
        write_str(w, &graph.resolve(c))?;
        let items = graph.collection(c).expect("listed").items();
        for item in items {
            if let Value::Node(m) = item {
                if !dense.contains_key(m) {
                    return Err(corrupt("collection member is not a graph member"));
                }
            }
        }
        write_u32(w, checked_count(items.len(), "collection item")?)?;
        for item in items {
            write_value(w, item, &remap)?;
        }
    }
    Ok(())
}

/// Deserializes a graph from a reader into a fresh standalone graph.
///
/// The entire stream is buffered first so every count in the file can be
/// validated against the bytes actually present — corrupted inputs fail
/// with an error rather than attempting huge allocations.
pub fn load(reader: &mut impl Read) -> Result<Graph> {
    let mut buf = Vec::new();
    reader.read_to_end(&mut buf).map_err(io_err)?;
    load_slice(&buf)
}

/// Deserializes a graph from an in-memory buffer.
///
/// The buffer must contain exactly one graph: trailing bytes after the last
/// collection record are rejected as [`GraphError::StorageCorrupt`] (a file
/// that "loads fine" but carries unread data is evidence of truncated or
/// mixed-up writes, not something to serve from).
pub fn load_slice(buf: &[u8]) -> Result<Graph> {
    let mut g = Graph::standalone();
    load_slice_into(&mut g, buf)?;
    Ok(g)
}

/// Deserializes a graph from a buffer into `g` — typically a fresh graph,
/// either standalone or attached to a shared universe (how the serving tier
/// materializes a store into its mediated universe). Same strictness as
/// [`load_slice`], including the trailing-garbage check.
pub fn load_slice_into(g: &mut Graph, buf: &[u8]) -> Result<()> {
    let mut r = In { buf, pos: 0 };
    if r.take(8)? != MAGIC {
        return Err(corrupt("not a STRUDEL graph file"));
    }

    // Each symbol record is at least its 4-byte length prefix.
    let n_syms = r.count(4)?;
    let mut syms = Vec::with_capacity(n_syms);
    for _ in 0..n_syms {
        let s = r.str()?;
        syms.push(g.sym(&s));
    }

    // Each node record is at least 1 flag byte + 4 count bytes.
    let n_nodes = r.count(5)?;
    // Edge values may reference nodes that appear later in the stream, so
    // pre-create every node, then fill names and edges in a second pass.
    let mut nodes = Vec::with_capacity(n_nodes);
    for _ in 0..n_nodes {
        nodes.push(g.new_node(None));
    }
    for i in 0..n_nodes {
        let has_name = r.u8()? == 1;
        if has_name {
            let name = r.str()?;
            g.universe().set_node_name(nodes[i], &name);
        }
        // Each edge is at least a 4-byte symbol index + 1 tag byte.
        let n_edges = r.count(5)?;
        for _ in 0..n_edges {
            let sym_idx = r.u32()? as usize;
            let sym = *syms
                .get(sym_idx)
                .ok_or_else(|| corrupt("symbol index out of range"))?;
            let value = read_value(&mut r, &nodes)?;
            g.add_edge(nodes[i], sym, value)?;
        }
    }

    // Each collection record is at least a 4-byte name length + 4-byte count.
    let n_colls = r.count(8)?;
    for _ in 0..n_colls {
        let name = r.str()?;
        let sym = g.ensure_collection(&name);
        // Each item is at least a 1-byte tag + 1 byte payload.
        let n_items = r.count(2)?;
        for _ in 0..n_items {
            let v = read_value(&mut r, &nodes)?;
            g.add_to_collection(sym, v);
        }
    }
    if r.remaining() != 0 {
        return Err(corrupt(format!(
            "{} trailing bytes after the last collection record",
            r.remaining()
        )));
    }
    Ok(())
}

/// Saves a graph to a file **atomically**: the bytes go to a temp file in
/// the same directory, are fsynced, and are renamed over `path` (with a
/// directory fsync). A crash or error mid-save leaves any existing file at
/// `path` byte-identical; the new file, once this returns, is durable.
pub fn save_to_file(graph: &Graph, path: &std::path::Path) -> Result<()> {
    fsio::atomic_write_with(path, |w| save(graph, w))
}

/// Loads a graph from a file.
pub fn load_from_file(path: &std::path::Path) -> Result<Graph> {
    let file = std::fs::File::open(path).map_err(io_err)?;
    let mut r = std::io::BufReader::new(file);
    load(&mut r)
}

// ------------------------------------------------------------ delta ops ----

/// A [`Value`] in wire form: node references are **dense indexes** into the
/// store's member order (`graph.nodes()[i]`), which is stable across
/// save/load/replay — the form deltas use in the write-ahead log.
#[derive(Debug, Clone, PartialEq)]
pub enum WireValue {
    /// Reference to the `i`-th member node of the graph.
    Node(u32),
    /// An integer.
    Int(i64),
    /// A float.
    Float(f64),
    /// A boolean.
    Bool(bool),
    /// A string.
    Str(String),
    /// A URL.
    Url(String),
    /// An external file of the given kind.
    File(FileKind, String),
}

impl WireValue {
    /// Resolves this wire value against a graph's member order.
    fn to_value(&self, nodes: &[NodeId]) -> Result<Value> {
        Ok(match self {
            WireValue::Node(i) => {
                Value::Node(*nodes.get(*i as usize).ok_or_else(|| {
                    corrupt(format!("delta references node index {i} out of range"))
                })?)
            }
            WireValue::Int(i) => Value::Int(*i),
            WireValue::Float(f) => Value::Float(*f),
            WireValue::Bool(b) => Value::Bool(*b),
            WireValue::Str(s) => Value::str(s.clone()),
            WireValue::Url(s) => Value::url(s.clone()),
            WireValue::File(k, p) => Value::file(*k, p.clone()),
        })
    }

    fn encode(&self, w: &mut impl Write) -> Result<()> {
        match self {
            WireValue::Node(i) => {
                w.write_all(&[TAG_NODE]).map_err(io_err)?;
                write_u32(w, *i)
            }
            WireValue::Int(i) => {
                w.write_all(&[TAG_INT]).map_err(io_err)?;
                write_u64(w, *i as u64)
            }
            WireValue::Float(f) => {
                w.write_all(&[TAG_FLOAT]).map_err(io_err)?;
                write_u64(w, f.to_bits())
            }
            WireValue::Bool(b) => w.write_all(&[TAG_BOOL, u8::from(*b)]).map_err(io_err),
            WireValue::Str(s) => {
                w.write_all(&[TAG_STR]).map_err(io_err)?;
                write_str(w, s)
            }
            WireValue::Url(s) => {
                w.write_all(&[TAG_URL]).map_err(io_err)?;
                write_str(w, s)
            }
            WireValue::File(k, p) => {
                w.write_all(&[TAG_FILE, file_kind_tag(k)]).map_err(io_err)?;
                write_str(w, p)
            }
        }
    }

    fn decode(r: &mut In<'_>) -> Result<WireValue> {
        Ok(match r.u8()? {
            TAG_NODE => WireValue::Node(r.u32()?),
            TAG_INT => WireValue::Int(r.u64()? as i64),
            TAG_FLOAT => WireValue::Float(f64::from_bits(r.u64()?)),
            TAG_BOOL => WireValue::Bool(r.u8()? != 0),
            TAG_STR => WireValue::Str(r.str()?),
            TAG_URL => WireValue::Url(r.str()?),
            TAG_FILE => {
                let kind = file_kind_of(r.u8()?)?;
                WireValue::File(kind, r.str()?)
            }
            other => return Err(corrupt(format!("unknown wire value tag {other}"))),
        })
    }
}

/// One logical mutation in a store transaction — what gets logged to the
/// write-ahead log and replayed on crash recovery. Node references use
/// dense member indexes (see [`WireValue::Node`]); a node created by
/// [`DeltaOp::AddNode`] receives the next dense index.
#[derive(Debug, Clone, PartialEq)]
pub enum DeltaOp {
    /// Create a member node (optionally named).
    AddNode {
        /// Node name, if any.
        name: Option<String>,
    },
    /// Add edge `node --label--> value`.
    AddEdge {
        /// Dense index of the source node.
        node: u32,
        /// Edge label.
        label: String,
        /// Edge target.
        value: WireValue,
    },
    /// Remove edge `node --label--> value` (a no-op if absent).
    RemoveEdge {
        /// Dense index of the source node.
        node: u32,
        /// Edge label.
        label: String,
        /// Edge target.
        value: WireValue,
    },
    /// Create a collection if it does not exist.
    EnsureCollection {
        /// Collection name.
        name: String,
    },
    /// Add a value to a collection (created if missing; duplicate adds are
    /// no-ops, which keeps replay deterministic).
    AddToCollection {
        /// Collection name.
        collection: String,
        /// Value to add.
        value: WireValue,
    },
    /// Remove a value from a collection (a no-op if absent).
    RemoveFromCollection {
        /// Collection name.
        collection: String,
        /// Value to remove.
        value: WireValue,
    },
}

const OP_ADD_NODE: u8 = 1;
const OP_ADD_EDGE: u8 = 2;
const OP_REMOVE_EDGE: u8 = 3;
const OP_ENSURE_COLLECTION: u8 = 4;
const OP_ADD_TO_COLLECTION: u8 = 5;
const OP_REMOVE_FROM_COLLECTION: u8 = 6;

fn encode_op(op: &DeltaOp) -> Vec<u8> {
    let mut buf = Vec::new();
    let w = &mut buf;
    let r: Result<()> = (|| {
        match op {
            DeltaOp::AddNode { name } => {
                w.write_all(&[OP_ADD_NODE]).map_err(io_err)?;
                match name {
                    Some(n) => {
                        w.write_all(&[1]).map_err(io_err)?;
                        write_str(w, n)?;
                    }
                    None => w.write_all(&[0]).map_err(io_err)?,
                }
            }
            DeltaOp::AddEdge { node, label, value } => {
                w.write_all(&[OP_ADD_EDGE]).map_err(io_err)?;
                write_u32(w, *node)?;
                write_str(w, label)?;
                value.encode(w)?;
            }
            DeltaOp::RemoveEdge { node, label, value } => {
                w.write_all(&[OP_REMOVE_EDGE]).map_err(io_err)?;
                write_u32(w, *node)?;
                write_str(w, label)?;
                value.encode(w)?;
            }
            DeltaOp::EnsureCollection { name } => {
                w.write_all(&[OP_ENSURE_COLLECTION]).map_err(io_err)?;
                write_str(w, name)?;
            }
            DeltaOp::AddToCollection { collection, value } => {
                w.write_all(&[OP_ADD_TO_COLLECTION]).map_err(io_err)?;
                write_str(w, collection)?;
                value.encode(w)?;
            }
            DeltaOp::RemoveFromCollection { collection, value } => {
                w.write_all(&[OP_REMOVE_FROM_COLLECTION]).map_err(io_err)?;
                write_str(w, collection)?;
                value.encode(w)?;
            }
        }
        Ok(())
    })();
    r.expect("Vec<u8> writes cannot fail");
    buf
}

fn decode_op(buf: &[u8]) -> Result<DeltaOp> {
    let mut r = In { buf, pos: 0 };
    let op = match r.u8()? {
        OP_ADD_NODE => DeltaOp::AddNode {
            name: if r.u8()? == 1 { Some(r.str()?) } else { None },
        },
        OP_ADD_EDGE => DeltaOp::AddEdge {
            node: r.u32()?,
            label: r.str()?,
            value: WireValue::decode(&mut r)?,
        },
        OP_REMOVE_EDGE => DeltaOp::RemoveEdge {
            node: r.u32()?,
            label: r.str()?,
            value: WireValue::decode(&mut r)?,
        },
        OP_ENSURE_COLLECTION => DeltaOp::EnsureCollection { name: r.str()? },
        OP_ADD_TO_COLLECTION => DeltaOp::AddToCollection {
            collection: r.str()?,
            value: WireValue::decode(&mut r)?,
        },
        OP_REMOVE_FROM_COLLECTION => DeltaOp::RemoveFromCollection {
            collection: r.str()?,
            value: WireValue::decode(&mut r)?,
        },
        other => return Err(corrupt(format!("unknown delta op tag {other}"))),
    };
    if r.remaining() != 0 {
        return Err(corrupt("trailing bytes after delta op"));
    }
    Ok(op)
}

fn apply_op(g: &mut Graph, op: &DeltaOp) -> Result<()> {
    let node_at = |g: &Graph, i: u32| -> Result<NodeId> {
        g.nodes()
            .get(i as usize)
            .copied()
            .ok_or_else(|| corrupt(format!("delta references node index {i} out of range")))
    };
    match op {
        DeltaOp::AddNode { name } => {
            g.new_node(name.as_deref());
        }
        DeltaOp::AddEdge { node, label, value } => {
            let n = node_at(g, *node)?;
            let v = value.to_value(g.nodes())?;
            let sym = g.sym(label);
            g.add_edge(n, sym, v)?;
        }
        DeltaOp::RemoveEdge { node, label, value } => {
            let n = node_at(g, *node)?;
            let v = value.to_value(g.nodes())?;
            let sym = g.sym(label);
            g.remove_edge(n, sym, &v)?;
        }
        DeltaOp::EnsureCollection { name } => {
            g.ensure_collection(name);
        }
        DeltaOp::AddToCollection { collection, value } => {
            let v = value.to_value(g.nodes())?;
            let sym = g.ensure_collection(collection);
            g.add_to_collection(sym, v);
        }
        DeltaOp::RemoveFromCollection { collection, value } => {
            let v = value.to_value(g.nodes())?;
            let sym = g.ensure_collection(collection);
            g.remove_from_collection(sym, &v);
        }
    }
    Ok(())
}

// ---------------------------------------------------- checkpoint segments ----
//
// A checkpointed store partitions the flat image into *segments*: the
// preamble (magic + symbol table + node count), fixed-size runs of node
// records, the collection-count header, and one segment per collection.
// Concatenating the segments in order yields a byte-exact flat image, so
// the codec above needs no changes — but each segment lives in its own
// page chain, and a *manifest* (the pager's root chain) records where.
// A checkpoint then rewrites only the segments that committed deltas
// actually touched; everything else is shared with the previous revision.

/// Nodes per node segment. Small enough that a single-edge commit dirties
/// ~one page of node records; large enough that the manifest stays tiny.
const NODE_SEG: usize = 64;

const MANIFEST_MAGIC: &[u8; 8] = b"STRUMAN1";

/// One segment of the checkpoint image: its byte length, the revision that
/// last rewrote it, and the page chain holding it.
#[derive(Debug, Clone, Default)]
struct Seg {
    len: u64,
    stamp: u64,
    pages: Vec<u32>,
}

/// The segmented checkpoint image: layout metadata plus per-segment dirt.
///
/// The symbol layout (`syms`) is append-only between compactions: removing
/// an edge never removes its label from the table (clean segments keep
/// referencing their indexes), so the composed image may carry unused
/// symbols — which the flat codec tolerates by construction.
#[derive(Debug, Clone, Default)]
struct SegFile {
    syms: Vec<String>,
    sym_of: FxHashMap<String, u32>,
    node_count: u32,
    preamble: Seg,
    nodes: Vec<Seg>,
    coll_header: Seg,
    colls: Vec<(String, Seg)>,
    dirty_preamble: bool,
    dirty_coll_header: bool,
    dirty_nodes: BTreeSet<usize>,
    dirty_colls: BTreeSet<usize>,
}

/// A manifest record locating one segment on disk.
#[derive(Debug, Clone, Copy, Default)]
struct ManifestEntry {
    stamp: u64,
    len: u64,
    first: u32,
    npages: u32,
}

fn entry_for(seg: &Seg) -> ManifestEntry {
    ManifestEntry {
        stamp: seg.stamp,
        len: seg.len,
        first: seg.pages.first().copied().unwrap_or(0),
        npages: seg.pages.len() as u32,
    }
}

fn write_manifest_entry(buf: &mut Vec<u8>, e: &ManifestEntry) {
    buf.extend_from_slice(&e.stamp.to_le_bytes());
    buf.extend_from_slice(&e.len.to_le_bytes());
    buf.extend_from_slice(&e.first.to_le_bytes());
    buf.extend_from_slice(&e.npages.to_le_bytes());
}

fn read_manifest_entry(r: &mut In<'_>) -> Result<ManifestEntry> {
    Ok(ManifestEntry {
        stamp: r.u64()?,
        len: r.u64()?,
        first: r.u32()?,
        npages: r.u32()?,
    })
}

/// Builds the manifest bytes: magic, preamble entry, node-segment entries,
/// collection-header entry, then named collection entries.
fn encode_manifest(
    preamble: &ManifestEntry,
    nodes: &[ManifestEntry],
    coll_header: &ManifestEntry,
    coll_names: &[&str],
    colls: &[ManifestEntry],
) -> Vec<u8> {
    debug_assert_eq!(coll_names.len(), colls.len());
    let mut buf = Vec::new();
    buf.extend_from_slice(MANIFEST_MAGIC);
    write_manifest_entry(&mut buf, preamble);
    buf.extend_from_slice(&(nodes.len() as u32).to_le_bytes());
    for e in nodes {
        write_manifest_entry(&mut buf, e);
    }
    write_manifest_entry(&mut buf, coll_header);
    buf.extend_from_slice(&(colls.len() as u32).to_le_bytes());
    for (name, e) in coll_names.iter().zip(colls) {
        write_str(&mut buf, name).expect("Vec<u8> writes cannot fail");
        write_manifest_entry(&mut buf, e);
    }
    buf
}

struct ManifestSkeleton {
    preamble: ManifestEntry,
    nodes: Vec<ManifestEntry>,
    coll_header: ManifestEntry,
    colls: Vec<(String, ManifestEntry)>,
}

fn decode_manifest(buf: &[u8]) -> Result<ManifestSkeleton> {
    let mut r = In { buf, pos: 0 };
    if r.take(8)? != MANIFEST_MAGIC {
        return Err(corrupt("not a STRUDEL checkpoint manifest"));
    }
    let preamble = read_manifest_entry(&mut r)?;
    let n_nodes = r.count(24)?;
    let mut nodes = Vec::with_capacity(n_nodes);
    for _ in 0..n_nodes {
        nodes.push(read_manifest_entry(&mut r)?);
    }
    let coll_header = read_manifest_entry(&mut r)?;
    let n_colls = r.count(28)?;
    let mut colls = Vec::with_capacity(n_colls);
    for _ in 0..n_colls {
        let name = r.str()?;
        colls.push((name, read_manifest_entry(&mut r)?));
    }
    if r.remaining() != 0 {
        return Err(corrupt("trailing bytes after checkpoint manifest"));
    }
    Ok(ManifestSkeleton {
        preamble,
        nodes,
        coll_header,
        colls,
    })
}

/// Parses a preamble segment back into (symbol layout, node count).
fn parse_preamble(buf: &[u8]) -> Result<(Vec<String>, u32)> {
    let mut r = In { buf, pos: 0 };
    if r.take(8)? != MAGIC {
        return Err(corrupt("checkpoint preamble has bad magic"));
    }
    let n_syms = r.count(4)?;
    let mut syms = Vec::with_capacity(n_syms);
    for _ in 0..n_syms {
        syms.push(r.str()?);
    }
    let node_count = r.u32()?;
    if r.remaining() != 0 {
        return Err(corrupt("trailing bytes after checkpoint preamble"));
    }
    Ok((syms, node_count))
}

fn dense_map(members: &[NodeId]) -> std::collections::HashMap<NodeId, u32> {
    let mut dense = std::collections::HashMap::with_capacity(members.len());
    for (i, &n) in members.iter().enumerate() {
        dense.insert(n, i as u32);
    }
    dense
}

/// Serializes the preamble segment: magic, symbol table in layout order,
/// node count. Byte-compatible with the prefix [`save`] writes.
fn write_preamble(syms: &[String], node_count: u32) -> Result<Vec<u8>> {
    let mut buf = Vec::new();
    buf.extend_from_slice(MAGIC);
    write_u32(&mut buf, checked_count(syms.len(), "symbol")?)?;
    for s in syms {
        write_str(&mut buf, s)?;
    }
    write_u32(&mut buf, node_count)?;
    Ok(buf)
}

/// Serializes the node records for members `from..to`, resolving labels
/// against the layout symbol table.
fn write_node_segment(
    graph: &Graph,
    dense: &std::collections::HashMap<NodeId, u32>,
    sym_of: &FxHashMap<String, u32>,
    from: usize,
    to: usize,
) -> Result<Vec<u8>> {
    let members = graph.nodes();
    let reader = graph.reader();
    let remap = |n: NodeId| -> u32 { *dense.get(&n).unwrap_or(&u32::MAX) };
    let mut buf = Vec::new();
    for &n in &members[from..to] {
        match reader.name(n) {
            Some(name) => {
                buf.push(1);
                write_str(&mut buf, name)?;
            }
            None => buf.push(0),
        }
        let out = reader.out(n);
        for (_, v) in out {
            if let Value::Node(m) = v {
                if !dense.contains_key(m) {
                    return Err(corrupt(format!(
                        "edge to non-member node {m}; adopt it before saving"
                    )));
                }
            }
        }
        write_u32(&mut buf, checked_count(out.len(), "out-edge")?)?;
        for (l, v) in out {
            let label = graph.resolve(*l);
            let idx = sym_of.get(&*label).ok_or_else(|| {
                corrupt(format!("label {label:?} missing from checkpoint layout"))
            })?;
            write_u32(&mut buf, *idx)?;
            write_value(&mut buf, v, &remap)?;
        }
    }
    Ok(buf)
}

/// Serializes one collection segment: name, item count, items.
fn write_collection_segment(
    graph: &Graph,
    dense: &std::collections::HashMap<NodeId, u32>,
    name: &str,
) -> Result<Vec<u8>> {
    let remap = |n: NodeId| -> u32 { *dense.get(&n).unwrap_or(&u32::MAX) };
    let mut buf = Vec::new();
    write_str(&mut buf, name)?;
    let coll = graph
        .collection_str(name)
        .ok_or_else(|| corrupt(format!("collection {name:?} vanished from the graph")))?;
    let items = coll.items();
    for item in items {
        if let Value::Node(m) = item {
            if !dense.contains_key(m) {
                return Err(corrupt("collection member is not a graph member"));
            }
        }
    }
    write_u32(&mut buf, checked_count(items.len(), "collection item")?)?;
    for item in items {
        write_value(&mut buf, item, &remap)?;
    }
    Ok(buf)
}

impl SegFile {
    /// Builds a fully-dirty segment layout for `graph` — the first
    /// checkpoint (or an import) writes every segment.
    fn seed(graph: &Graph) -> Result<SegFile> {
        let members = graph.nodes();
        let node_count = checked_count(members.len(), "node")?;
        let reader = graph.reader();
        let mut syms: Vec<String> = Vec::new();
        let mut sym_of: FxHashMap<String, u32> = FxHashMap::default();
        for &n in members {
            for (l, _) in reader.out(n) {
                let label = graph.resolve(*l);
                if !sym_of.contains_key(&*label) {
                    let idx = checked_count(syms.len(), "symbol")?;
                    sym_of.insert(label.to_string(), idx);
                    syms.push(label.to_string());
                }
            }
        }
        drop(reader);
        let colls = graph
            .collection_names()
            .iter()
            .map(|&c| (graph.resolve(c).to_string(), Seg::default()))
            .collect::<Vec<_>>();
        let mut sf = SegFile {
            syms,
            sym_of,
            node_count,
            preamble: Seg::default(),
            nodes: vec![Seg::default(); members.len().div_ceil(NODE_SEG)],
            coll_header: Seg::default(),
            colls,
            dirty_preamble: false,
            dirty_coll_header: false,
            dirty_nodes: BTreeSet::new(),
            dirty_colls: BTreeSet::new(),
        };
        sf.mark_all_dirty();
        Ok(sf)
    }

    /// Restores the layout from a manifest, walking (and thereby
    /// checksum-validating) every segment's page chain.
    fn from_manifest(pager: &mut Pager, bytes: &[u8]) -> Result<SegFile> {
        let sk = decode_manifest(bytes)?;
        let walk = |pager: &mut Pager, e: &ManifestEntry| -> Result<Seg> {
            Ok(Seg {
                len: e.len,
                stamp: e.stamp,
                pages: pager.walk_blob(e.first, e.npages, e.len)?,
            })
        };
        let preamble = walk(pager, &sk.preamble)?;
        let pre_bytes = pager.read_pages(&preamble.pages)?;
        let (syms, node_count) = parse_preamble(&pre_bytes)?;
        if sk.nodes.len() != (node_count as usize).div_ceil(NODE_SEG) {
            return Err(corrupt(format!(
                "manifest has {} node segments for {node_count} nodes",
                sk.nodes.len()
            )));
        }
        let mut nodes = Vec::with_capacity(sk.nodes.len());
        for e in &sk.nodes {
            nodes.push(walk(pager, e)?);
        }
        let coll_header = walk(pager, &sk.coll_header)?;
        let mut colls = Vec::with_capacity(sk.colls.len());
        for (name, e) in &sk.colls {
            colls.push((name.clone(), walk(pager, e)?));
        }
        let mut sym_of = FxHashMap::default();
        for (i, s) in syms.iter().enumerate() {
            sym_of.insert(s.clone(), i as u32);
        }
        Ok(SegFile {
            syms,
            sym_of,
            node_count,
            preamble,
            nodes,
            coll_header,
            colls,
            dirty_preamble: false,
            dirty_coll_header: false,
            dirty_nodes: BTreeSet::new(),
            dirty_colls: BTreeSet::new(),
        })
    }

    fn mark_all_dirty(&mut self) {
        self.dirty_preamble = true;
        self.dirty_coll_header = true;
        self.dirty_nodes = (0..self.nodes.len()).collect();
        self.dirty_colls = (0..self.colls.len()).collect();
    }

    /// Every segment's page ids in image order; concatenating these pages'
    /// payloads yields the flat image.
    fn all_pages(&self) -> Vec<u32> {
        let mut out = Vec::new();
        out.extend_from_slice(&self.preamble.pages);
        for s in &self.nodes {
            out.extend_from_slice(&s.pages);
        }
        out.extend_from_slice(&self.coll_header.pages);
        for (_, s) in &self.colls {
            out.extend_from_slice(&s.pages);
        }
        out
    }

    /// All segments in image order (preamble, node runs, collection
    /// header, collections) — the order `all_pages` and compaction use.
    fn ordered(&self) -> Vec<&Seg> {
        let mut v = Vec::with_capacity(2 + self.nodes.len() + self.colls.len());
        v.push(&self.preamble);
        v.extend(self.nodes.iter());
        v.push(&self.coll_header);
        v.extend(self.colls.iter().map(|(_, s)| s));
        v
    }

    fn dirty_segments(&self) -> u64 {
        u64::from(self.dirty_preamble)
            + u64::from(self.dirty_coll_header)
            + self.dirty_nodes.len() as u64
            + self.dirty_colls.len() as u64
    }

    /// Pages the next incremental checkpoint would rewrite (estimating one
    /// page for segments not yet on disk, plus one for the manifest).
    fn dirty_page_estimate(&self) -> u64 {
        let seg_pages = |s: &Seg| (s.pages.len() as u64).max(1);
        let mut total = 0;
        if self.dirty_preamble {
            total += seg_pages(&self.preamble);
        }
        for &i in &self.dirty_nodes {
            total += self.nodes.get(i).map_or(1, seg_pages);
        }
        if self.dirty_coll_header {
            total += seg_pages(&self.coll_header);
        }
        for &i in &self.dirty_colls {
            total += self.colls.get(i).map_or(1, |(_, s)| seg_pages(s));
        }
        if total > 0 {
            total += 1; // the manifest root chain is rewritten too
        }
        total
    }
}

/// Folds one committed op into the dirty-segment map (and the running node
/// count) — the write-side mirror of [`apply_op`].
fn note_op(segs: &mut Option<SegFile>, node_count: &mut u32, op: &DeltaOp) {
    match op {
        DeltaOp::AddNode { .. } => {
            let idx = *node_count;
            *node_count += 1;
            if let Some(sf) = segs {
                sf.node_count = *node_count;
                sf.dirty_nodes.insert(idx as usize / NODE_SEG);
                sf.dirty_preamble = true; // the node count lives there
            }
        }
        DeltaOp::AddEdge { node, label, .. } => {
            if let Some(sf) = segs {
                sf.dirty_nodes.insert(*node as usize / NODE_SEG);
                if !sf.sym_of.contains_key(label.as_str()) {
                    sf.sym_of.insert(label.clone(), sf.syms.len() as u32);
                    sf.syms.push(label.clone());
                    sf.dirty_preamble = true;
                }
            }
        }
        DeltaOp::RemoveEdge { node, .. } => {
            if let Some(sf) = segs {
                sf.dirty_nodes.insert(*node as usize / NODE_SEG);
            }
        }
        DeltaOp::EnsureCollection { name }
        | DeltaOp::AddToCollection {
            collection: name, ..
        }
        | DeltaOp::RemoveFromCollection {
            collection: name, ..
        } => {
            if let Some(sf) = segs {
                match sf.colls.iter().position(|(n, _)| n == name) {
                    Some(i) => {
                        // Ensure on an existing collection changes nothing.
                        if !matches!(op, DeltaOp::EnsureCollection { .. }) {
                            sf.dirty_colls.insert(i);
                        }
                    }
                    None => {
                        // First reference creates the collection (mirroring
                        // apply_op's ensure_collection): a new segment is
                        // appended and the collection count changes.
                        sf.dirty_colls.insert(sf.colls.len());
                        sf.colls.push((name.clone(), Seg::default()));
                        sf.dirty_coll_header = true;
                    }
                }
            }
        }
    }
}

/// Concatenates the checkpoint segments back into a flat image (empty if
/// the store has never checkpointed).
fn compose_image(pager: &mut Pager, segs: &Option<SegFile>) -> Result<Vec<u8>> {
    match segs {
        None => Ok(Vec::new()),
        Some(sf) => pager.read_pages(&sf.all_pages()),
    }
}

fn materialize(pager: &mut Pager, segs: &Option<SegFile>) -> Result<Graph> {
    let image = compose_image(pager, segs)?;
    if image.is_empty() {
        Ok(Graph::standalone())
    } else {
        load_slice(&image)
    }
}

// ----------------------------------------------------------- paged store ----

/// WAL size (bytes) past which a successful commit triggers an automatic
/// checkpoint.
pub const DEFAULT_WAL_LIMIT: u64 = 4 << 20;

/// The write-ahead log lives next to the page file as `<path>.wal`.
pub fn wal_path(path: &Path) -> PathBuf {
    let mut os = path.as_os_str().to_os_string();
    os.push(".wal");
    PathBuf::from(os)
}

/// An immutable graph revision. Taking one is cheap: it pins the
/// checkpoint's page contents (already validated when read) plus the
/// committed delta ops on top, and materializes the graph lazily on first
/// access — clones share both the pinned bytes and the materialized graph.
/// The snapshot stays exactly as it was no matter what the writer commits,
/// checkpoints, or compacts afterwards.
#[derive(Clone)]
pub struct Snapshot {
    inner: Arc<SnapshotInner>,
}

struct SnapshotInner {
    revision: u64,
    /// The flat image at the last checkpoint ≤ this revision.
    image: Vec<u8>,
    /// Committed ops bringing the image up to `revision`.
    ops: Vec<DeltaOp>,
    graph: OnceLock<Graph>,
}

impl Snapshot {
    /// The revision this snapshot pins.
    pub fn revision(&self) -> u64 {
        self.inner.revision
    }

    /// The snapshot's graph, materialized on first call.
    ///
    /// # Panics
    ///
    /// If the pinned image or ops fail to re-apply — both were validated
    /// when the snapshot was taken, so failure here is an invariant
    /// violation, not an I/O condition.
    pub fn graph(&self) -> &Graph {
        self.inner.graph.get_or_init(|| {
            let mut tspan = trace::span("store.materialize", trace::Layer::Store);
            if tspan.is_live() {
                tspan.attr_u64("rev", self.inner.revision);
                tspan.attr_u64("ops", self.inner.ops.len() as u64);
                tspan.attr_u64("image_bytes", self.inner.image.len() as u64);
            }
            let mut g = if self.inner.image.is_empty() {
                Graph::standalone()
            } else {
                load_slice(&self.inner.image)
                    .expect("snapshot image was validated when the snapshot was pinned")
            };
            for op in &self.inner.ops {
                apply_op(&mut g, op).expect("snapshot ops applied cleanly when they committed");
            }
            g
        })
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
    pager: Pager,
    wal: Wal,
    /// The working graph, materialized lazily: `None` after an open with a
    /// clean WAL, until a reader or writer first needs it.
    graph: Option<Graph>,
    /// Segment layout of the last checkpoint; `None` before the first.
    segs: Option<SegFile>,
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
    /// Creates an empty store at `path` (revision 0), truncating any
    /// existing page file and log.
    pub fn create(path: &Path) -> Result<Self> {
        let pager = Pager::create(path)?;
        let wal = Wal::create(&wal_path(path), 0)?;
        fsio::fsync_dir(&parent_of(path))?;
        let store = PagedStore {
            pager,
            wal,
            graph: Some(Graph::standalone()),
            segs: None,
            pending: Vec::new(),
            node_count: 0,
            revision: 0,
            cached_snapshot: None,
            wal_limit: DEFAULT_WAL_LIMIT,
            group_window: Duration::ZERO,
        };
        store.publish_gauges();
        Ok(store)
    }

    /// Creates a store at `path` seeded with `graph` as revision 1.
    pub fn import(path: &Path, graph: &Graph) -> Result<Self> {
        let mut bytes = Vec::new();
        save(graph, &mut bytes)?;
        // Reload from the serialized form so the working graph's member
        // order (the dense numbering deltas use) matches what any future
        // open reconstructs.
        let graph = load_slice(&bytes)?;
        let node_count = checked_count(graph.nodes().len(), "node")?;
        let segs = SegFile::seed(&graph)?;
        let mut store = PagedStore {
            pager: Pager::create(path)?,
            // Placeholder log; replaced once the revision-1 image is
            // durable, so a crash in between leaves a stale (discarded)
            // log, never one ahead of the page file.
            wal: Wal::create(&wal_path(path), 0)?,
            graph: Some(graph),
            segs: Some(segs),
            pending: Vec::new(),
            node_count,
            revision: 1,
            cached_snapshot: None,
            wal_limit: DEFAULT_WAL_LIMIT,
            group_window: Duration::ZERO,
        };
        store.write_checkpoint_image()?;
        store.wal = Wal::create(&wal_path(path), 1)?;
        fsio::fsync_dir(&parent_of(path))?;
        store.publish_gauges();
        Ok(store)
    }

    /// Opens the store at `path`, running crash recovery: validates the
    /// page file, replays committed WAL transactions (counting and
    /// truncating any torn tail), and discards a stale log left behind by
    /// a crash between checkpoint and log reset.
    pub fn open(path: &Path) -> Result<Self> {
        let mut pager = Pager::open(path)?;
        // Restoring the segment layout walks every segment chain, so a
        // bit flip anywhere in the checkpoint image is detected *here*,
        // not on some later read.
        let mut segs = if pager.chain_len() == 0 {
            None
        } else {
            let manifest = pager.read_chain()?;
            Some(SegFile::from_manifest(&mut pager, &manifest)?)
        };
        let mut node_count = segs.as_ref().map_or(0, |sf| sf.node_count);
        let mut revision = pager.revision();
        // Materialized only if the log has transactions to replay; a clean
        // open defers the full image parse until someone needs the graph.
        let mut graph: Option<Graph> = None;
        let mut pending: Vec<DeltaOp> = Vec::new();
        let wp = wal_path(path);
        let wal = if wp.exists() {
            let (wal, txns) = Wal::open(&wp, revision)?;
            if wal.base_revision() < revision {
                // Crash after a durable checkpoint but before the log
                // reset: everything in this log is already in the page
                // file. Start a fresh log.
                drop(wal);
                Wal::create(&wp, revision)?
            } else if wal.base_revision() > revision {
                return Err(recovery(format!(
                    "write-ahead log base revision {} is ahead of page file revision {revision}",
                    wal.base_revision()
                )));
            } else {
                let mut replayed = 0u64;
                for txn in &txns {
                    if txn.revision != revision + 1 {
                        return Err(recovery(format!(
                            "log commits revision {} on top of revision {revision}",
                            txn.revision
                        )));
                    }
                    for delta in &txn.deltas {
                        let op = decode_op(delta)?;
                        if graph.is_none() {
                            graph = Some(materialize(&mut pager, &segs)?);
                        }
                        let g = graph.as_mut().expect("materialized above");
                        apply_op(g, &op).map_err(|e| {
                            recovery(format!("replaying revision {}: {e}", txn.revision))
                        })?;
                        note_op(&mut segs, &mut node_count, &op);
                        pending.push(op);
                        replayed += 1;
                    }
                    revision = txn.revision;
                }
                if replayed > 0 {
                    STORAGE.wal_recoveries.inc();
                    STORAGE.wal_recovered_frames.add(replayed);
                }
                wal
            }
        } else {
            Wal::create(&wp, revision)?
        };
        let store = PagedStore {
            pager,
            wal,
            graph,
            segs,
            pending,
            node_count,
            revision,
            cached_snapshot: None,
            wal_limit: DEFAULT_WAL_LIMIT,
            group_window: Duration::ZERO,
        };
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
    /// [`PagedStore::begin`]). Materializes it on first access after a
    /// clean open.
    pub fn graph(&mut self) -> Result<&Graph> {
        self.ensure_graph().map(|g| &*g)
    }

    fn ensure_graph(&mut self) -> Result<&mut Graph> {
        if self.graph.is_none() {
            debug_assert!(self.pending.is_empty(), "lazy open implies a clean WAL");
            let g = materialize(&mut self.pager, &self.segs)?;
            self.graph = Some(g);
        }
        Ok(self.graph.as_mut().expect("materialized above"))
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

    /// Serializes the current revision to the flat snapshot format.
    pub fn serialize(&mut self) -> Result<Vec<u8>> {
        let g = self.ensure_graph()?;
        let mut bytes = Vec::new();
        save(g, &mut bytes)?;
        Ok(bytes)
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
    /// returning the new revision. On failure the store is rolled back to
    /// the last committed revision (by reloading from durable state) —
    /// all-or-nothing, in memory and on disk.
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
        let target = self.revision + 1;
        let logged: Result<()> = (|| {
            for op in txns.iter().flat_map(|t| t.iter()) {
                self.wal.append_delta(&encode_op(op))?;
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

    /// A consistent snapshot of the current revision. Taking it does *not*
    /// materialize a graph: the snapshot pins the checkpoint image's bytes
    /// plus the committed ops on top, and parses them only when first read.
    /// Later commits, checkpoints, and compactions leave it untouched.
    /// Snapshots of the same revision are shared.
    pub fn snapshot(&mut self) -> Result<Snapshot> {
        if let Some(s) = &self.cached_snapshot {
            if s.revision() == self.revision {
                return Ok(s.clone());
            }
        }
        let image = compose_image(&mut self.pager, &self.segs)?;
        let snap = Snapshot {
            inner: Arc::new(SnapshotInner {
                revision: self.revision,
                image,
                ops: self.pending.clone(),
                graph: OnceLock::new(),
            }),
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
    /// open).
    pub fn checkpoint(&mut self) -> Result<()> {
        if self.pager.revision() == self.revision && self.wal.size_bytes() == wal::EMPTY_SIZE {
            return Ok(());
        }
        let mut tspan = trace::span("store.checkpoint", trace::Layer::Store);
        if tspan.is_live() {
            tspan.attr_u64("rev", self.revision);
            tspan.attr_u64("wal_bytes", self.wal.size_bytes());
        }
        self.ensure_graph()?;
        if self.segs.is_none() {
            // First checkpoint: seed a fully-dirty layout.
            self.segs = Some(SegFile::seed(self.graph.as_ref().expect("ensured above"))?);
        }
        self.write_checkpoint_image()?;
        self.wal = Wal::create(&wal_path(self.pager.path()), self.revision)?;
        STORAGE.wal_checkpoints.inc();
        self.pending.clear();
        self.cached_snapshot = None;
        self.publish_gauges();
        Ok(())
    }

    /// Serializes every dirty segment and commits them (plus a new
    /// manifest) through the pager, freeing the replaced segments' pages
    /// for the *next* commit.
    fn write_checkpoint_image(&mut self) -> Result<()> {
        #[derive(Clone, Copy)]
        enum Slot {
            Preamble,
            Node(usize),
            CollHeader,
            Coll(usize),
        }
        let graph = self.graph.as_ref().expect("materialized before checkpoint");
        let segs = self.segs.as_mut().expect("seeded before checkpoint");
        let members = graph.nodes();
        let node_count = checked_count(members.len(), "node")?;
        segs.node_count = node_count;
        let want = members.len().div_ceil(NODE_SEG);
        while segs.nodes.len() < want {
            segs.dirty_nodes.insert(segs.nodes.len());
            segs.nodes.push(Seg::default());
        }
        checked_count(segs.colls.len(), "collection")?;
        let dense = dense_map(members);

        let mut slots: Vec<Slot> = Vec::new();
        let mut blobs: Vec<Vec<u8>> = Vec::new();
        let mut freed: Vec<u32> = Vec::new();
        if segs.dirty_preamble {
            slots.push(Slot::Preamble);
            blobs.push(write_preamble(&segs.syms, node_count)?);
            freed.extend_from_slice(&segs.preamble.pages);
        }
        for &i in &segs.dirty_nodes {
            let from = i * NODE_SEG;
            let to = ((i + 1) * NODE_SEG).min(members.len());
            slots.push(Slot::Node(i));
            blobs.push(write_node_segment(graph, &dense, &segs.sym_of, from, to)?);
            freed.extend_from_slice(&segs.nodes[i].pages);
        }
        if segs.dirty_coll_header {
            slots.push(Slot::CollHeader);
            let mut b = Vec::new();
            write_u32(&mut b, segs.colls.len() as u32)?;
            blobs.push(b);
            freed.extend_from_slice(&segs.coll_header.pages);
        }
        for &i in &segs.dirty_colls {
            slots.push(Slot::Coll(i));
            blobs.push(write_collection_segment(graph, &dense, &segs.colls[i].0)?);
            freed.extend_from_slice(&segs.colls[i].1.pages);
        }

        // Entries for the new manifest: dirty slots are filled in from the
        // pages the pager allocates; clean segments keep their placement.
        let mut pre_e = entry_for(&segs.preamble);
        let mut node_e: Vec<ManifestEntry> = segs.nodes.iter().map(entry_for).collect();
        let mut ch_e = entry_for(&segs.coll_header);
        let mut coll_e: Vec<ManifestEntry> = segs.colls.iter().map(|(_, s)| entry_for(s)).collect();
        let coll_names: Vec<&str> = segs.colls.iter().map(|(n, _)| n.as_str()).collect();
        let revision = self.revision;
        let blob_refs: Vec<&[u8]> = blobs.iter().map(|b| b.as_slice()).collect();
        let lists = self
            .pager
            .commit_segments(&blob_refs, freed, revision, |pages| {
                for (k, slot) in slots.iter().enumerate() {
                    let e = ManifestEntry {
                        stamp: revision,
                        len: blobs[k].len() as u64,
                        first: pages[k].first().copied().unwrap_or(0),
                        npages: pages[k].len() as u32,
                    };
                    match slot {
                        Slot::Preamble => pre_e = e,
                        Slot::Node(i) => node_e[*i] = e,
                        Slot::CollHeader => ch_e = e,
                        Slot::Coll(i) => coll_e[*i] = e,
                    }
                }
                encode_manifest(&pre_e, &node_e, &ch_e, &coll_names, &coll_e)
            })?;

        let written: u64 =
            lists.iter().map(|l| l.len() as u64).sum::<u64>() + self.pager.chain_len() as u64;
        for (k, slot) in slots.iter().enumerate() {
            let seg = match slot {
                Slot::Preamble => &mut segs.preamble,
                Slot::Node(i) => &mut segs.nodes[*i],
                Slot::CollHeader => &mut segs.coll_header,
                Slot::Coll(i) => &mut segs.colls[*i].1,
            };
            seg.pages = lists[k].clone();
            seg.len = blobs[k].len() as u64;
            seg.stamp = revision;
        }
        let new_blob_pages: u64 = lists.iter().map(|l| l.len() as u64).sum();
        let total_pages = segs.all_pages().len() as u64;
        STORAGE.checkpoint_pages_written.add(written);
        STORAGE
            .checkpoint_pages_reused
            .add(total_pages - new_blob_pages);
        segs.dirty_preamble = false;
        segs.dirty_coll_header = false;
        segs.dirty_nodes.clear();
        segs.dirty_colls.clear();
        Ok(())
    }

    /// Checkpoints, then rewrites the page file minimally (dropping free
    /// and leaked pages) with an atomic replace. The segments' *bytes* are
    /// copied as-is from the old file — no graph re-serialization — and
    /// their revision stamps survive. Returns the before/after page counts.
    pub fn compact(&mut self) -> Result<CompactReport> {
        self.checkpoint()?;
        let pages_before = self.pager.page_count();
        let path = self.pager.path().to_path_buf();
        let tmp = path.with_extension("pdb.compact");
        let mut new_lists: Option<Vec<Vec<u32>>> = None;
        {
            let mut fresh = Pager::create(&tmp)?;
            if let Some(segs) = &self.segs {
                let ordered: Vec<(u64, u64, Vec<u32>)> = segs
                    .ordered()
                    .into_iter()
                    .map(|s| (s.stamp, s.len, s.pages.clone()))
                    .collect();
                let mut blobs = Vec::with_capacity(ordered.len());
                for (_, _, pl) in &ordered {
                    blobs.push(self.pager.read_pages(pl)?);
                }
                let blob_refs: Vec<&[u8]> = blobs.iter().map(|b| b.as_slice()).collect();
                let n_nodes = segs.nodes.len();
                let n_colls = segs.colls.len();
                let names: Vec<&str> = segs.colls.iter().map(|(n, _)| n.as_str()).collect();
                let lists =
                    fresh.commit_segments(&blob_refs, Vec::new(), self.revision, |pages| {
                        let entry = |k: usize| ManifestEntry {
                            stamp: ordered[k].0,
                            len: ordered[k].1,
                            first: pages[k].first().copied().unwrap_or(0),
                            npages: pages[k].len() as u32,
                        };
                        let pre = entry(0);
                        let nodes: Vec<ManifestEntry> =
                            (0..n_nodes).map(|i| entry(1 + i)).collect();
                        let ch = entry(1 + n_nodes);
                        let colls: Vec<ManifestEntry> =
                            (0..n_colls).map(|i| entry(2 + n_nodes + i)).collect();
                        encode_manifest(&pre, &nodes, &ch, &names, &colls)
                    })?;
                new_lists = Some(lists);
            }
        }
        if let Err(e) = std::fs::rename(&tmp, &path) {
            let _ = std::fs::remove_file(&tmp);
            return Err(e.into());
        }
        let _ = fsio::fsync_dir(&parent_of(&path));
        self.pager = Pager::open(&path)?;
        if let (Some(segs), Some(lists)) = (&mut self.segs, new_lists) {
            let mut it = lists.into_iter();
            segs.preamble.pages = it.next().expect("preamble pages");
            for s in &mut segs.nodes {
                s.pages = it.next().expect("node segment pages");
            }
            segs.coll_header.pages = it.next().expect("collection header pages");
            for (_, s) in &mut segs.colls {
                s.pages = it.next().expect("collection pages");
            }
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

fn parent_of(path: &Path) -> PathBuf {
    match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p.to_path_buf(),
        _ => PathBuf::from("."),
    }
}

/// A buffered transaction, begun on a [`PagedStore`] or on a
/// [`CommitQueue`]. Build up ops, then [`Txn::commit`]; dropping the
/// transaction without committing discards it entirely.
pub struct Txn<'a> {
    sink: Sink<'a>,
    ops: Vec<DeltaOp>,
    base_nodes: u32,
    added_nodes: u32,
}

/// Where a [`Txn`] commits.
enum Sink<'a> {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ddl;

    fn sample() -> Graph {
        ddl::parse(
            r#"
collection Publications {
  abstract   text
  postscript ps
  homepage   url
}
object pub1 in Publications {
  title      "Specifying Representations"
  author     "Norman Ramsey"
  year       1997
  score      4.5
  open       true
  abstract   "abstracts/t.txt"
  postscript "papers/t.ps.gz"
  homepage   "http://example.com"
  next       &pub2
}
object pub2 in Publications {
  title "Optimizing"
  next  &pub1
}
"#,
        )
        .unwrap()
    }

    fn roundtrip(g: &Graph) -> Graph {
        let mut buf = Vec::new();
        save(g, &mut buf).unwrap();
        load(&mut buf.as_slice()).unwrap()
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let g = sample();
        let g2 = roundtrip(&g);
        assert_eq!(g2.node_count(), g.node_count());
        assert_eq!(g2.edge_count(), g.edge_count());
        assert_eq!(g2.collection_str("Publications").unwrap().len(), 2);
        // Values with every tag survive.
        let r = g2.reader();
        let interner = g2.universe().interner();
        let p1 = g2.nodes()[0];
        assert_eq!(g2.node_name(p1).as_deref(), Some("pub1"));
        assert_eq!(
            r.attr(p1, interner.get("year").unwrap()),
            Some(&Value::Int(1997))
        );
        assert_eq!(
            r.attr(p1, interner.get("score").unwrap()),
            Some(&Value::Float(4.5))
        );
        assert_eq!(
            r.attr(p1, interner.get("open").unwrap()),
            Some(&Value::Bool(true))
        );
        assert_eq!(
            r.attr(p1, interner.get("postscript").unwrap()),
            Some(&Value::file(FileKind::PostScript, "papers/t.ps.gz"))
        );
        assert_eq!(
            r.attr(p1, interner.get("homepage").unwrap()),
            Some(&Value::url("http://example.com"))
        );
        // Cyclic node references survive with correct identity.
        let p2 = r
            .attr(p1, interner.get("next").unwrap())
            .unwrap()
            .as_node()
            .unwrap();
        assert_eq!(
            r.attr(p2, interner.get("next").unwrap()),
            Some(&Value::Node(p1))
        );
    }

    #[test]
    fn loaded_graph_is_fully_indexed() {
        let g2 = roundtrip(&sample());
        let year = g2.universe().interner().get("year").unwrap();
        assert_eq!(g2.index().unwrap().edges_with_label(year).len(), 1);
        assert_eq!(
            g2.index().unwrap().edges_to_value(&Value::Int(1997)).len(),
            1
        );
    }

    #[test]
    fn file_roundtrip() {
        let g = sample();
        let path = std::env::temp_dir().join(format!("strudel_store_{}.bin", std::process::id()));
        save_to_file(&g, &path).unwrap();
        let g2 = load_from_file(&path).unwrap();
        assert_eq!(g2.edge_count(), g.edge_count());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn interrupted_save_leaves_old_file_byte_identical() {
        // The atomic-save regression: a save that errors partway (here: a
        // dangling node reference discovered mid-serialization, after the
        // magic and symbol table have already been produced) must leave the
        // previously saved file untouched.
        let dir = std::env::temp_dir().join(format!("strudel_atomic_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("graph.bin");
        save_to_file(&sample(), &path).unwrap();
        let before = std::fs::read(&path).unwrap();

        let bad = {
            let mut g = Graph::standalone();
            let n = g.new_node(Some("n"));
            let ghost = g.universe().create_node(None);
            g.add_edge_str(n, "to", Value::Node(ghost)).unwrap();
            g
        };
        assert!(save_to_file(&bad, &path).is_err());
        assert_eq!(
            std::fs::read(&path).unwrap(),
            before,
            "failed save must not touch the destination"
        );
        // And no temp litter either.
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 1);
        let g2 = load_from_file(&path).unwrap();
        assert_eq!(g2.edge_count(), sample().edge_count());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut buf = Vec::new();
        save(&sample(), &mut buf).unwrap();
        buf[0] = b'X';
        assert!(matches!(
            load(&mut buf.as_slice()),
            Err(GraphError::StorageCorrupt { .. })
        ));
    }

    #[test]
    fn truncated_input_is_rejected() {
        let mut buf = Vec::new();
        save(&sample(), &mut buf).unwrap();
        for cut in [4usize, 9, buf.len() / 2, buf.len() - 1] {
            assert!(
                matches!(
                    load(&mut &buf[..cut]),
                    Err(GraphError::StorageCorrupt { .. })
                ),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut buf = Vec::new();
        save(&sample(), &mut buf).unwrap();
        load_slice(&buf).unwrap();
        for junk in [&b"x"[..], &b"\0\0\0\0"[..], MAGIC] {
            let mut tainted = buf.clone();
            tainted.extend_from_slice(junk);
            let err = load_slice(&tainted).unwrap_err();
            assert!(
                matches!(err, GraphError::StorageCorrupt { .. }),
                "junk {junk:?}: {err}"
            );
            assert!(err.to_string().contains("trailing"), "{err}");
        }
    }

    #[test]
    fn io_errors_surface_as_storage() {
        let path = std::env::temp_dir().join("strudel_store_definitely_missing.bin");
        let err = load_from_file(&path).unwrap_err();
        assert!(matches!(err, GraphError::Storage { .. }));
        assert!(err.to_string().starts_with("storage error:"), "{err}");
    }

    #[test]
    fn empty_graph_roundtrips() {
        let g = Graph::standalone();
        let g2 = roundtrip(&g);
        assert_eq!(g2.node_count(), 0);
        assert_eq!(g2.edge_count(), 0);
    }

    #[test]
    fn dangling_reference_rejected_at_save() {
        let g = {
            let mut g = Graph::standalone();
            let n = g.new_node(None);
            // A node allocated in the universe but never adopted.
            let ghost = g.universe().create_node(None);
            g.add_edge_str(n, "to", Value::Node(ghost)).unwrap();
            g
        };
        let mut buf = Vec::new();
        assert!(save(&g, &mut buf).is_err());
    }

    #[test]
    fn queries_work_on_loaded_graphs() {
        // Not just structure: the whole pipeline runs on a loaded graph.
        let g2 = roundtrip(&sample());
        // Collection membership + attribute lookup.
        let pubs = g2.collection_str("Publications").unwrap();
        assert!(pubs.items().iter().all(Value::is_node));
    }

    // ------------------------------------------------------ paged store ----

    fn store_path(tag: &str) -> PathBuf {
        let p =
            std::env::temp_dir().join(format!("strudel_paged_{tag}_{}.pdb", std::process::id()));
        let _ = std::fs::remove_file(&p);
        let _ = std::fs::remove_file(wal_path(&p));
        p
    }

    fn cleanup(p: &Path) {
        let _ = std::fs::remove_file(p);
        let _ = std::fs::remove_file(wal_path(p));
    }

    fn graph_bytes(g: &Graph) -> Vec<u8> {
        let mut b = Vec::new();
        save(g, &mut b).unwrap();
        b
    }

    #[test]
    fn paged_commit_and_reopen() {
        let p = store_path("basic");
        {
            let mut store = PagedStore::create(&p).unwrap();
            let mut txn = store.begin();
            let a = txn.add_node(Some("alice"));
            let b = txn.add_node(Some("bob"));
            txn.add_edge(a, "knows", WireValue::Node(b));
            txn.add_edge(a, "age", WireValue::Int(31));
            txn.add_to_collection("People", WireValue::Node(a));
            txn.add_to_collection("People", WireValue::Node(b));
            assert_eq!(txn.commit().unwrap(), 1);
            let mut txn = store.begin();
            txn.remove_edge(0, "age", WireValue::Int(31));
            txn.add_edge(0, "age", WireValue::Int(32));
            assert_eq!(txn.commit().unwrap(), 2);
        }
        let mut store = PagedStore::open(&p).unwrap();
        assert_eq!(store.revision(), 2);
        let g = store.graph().unwrap();
        assert_eq!(g.node_count(), 2);
        assert_eq!(g.collection_str("People").unwrap().len(), 2);
        let age = g.universe().interner().get("age").unwrap();
        assert_eq!(g.reader().attr(g.nodes()[0], age), Some(&Value::Int(32)));
        cleanup(&p);
    }

    #[test]
    fn paged_import_then_delta() {
        let p = store_path("import");
        {
            let mut store = PagedStore::import(&p, &sample()).unwrap();
            assert_eq!(store.revision(), 1);
            let mut txn = store.begin();
            let n = txn.add_node(Some("pub3"));
            txn.add_edge(n, "title", WireValue::Str("Third".into()));
            txn.add_to_collection("Publications", WireValue::Node(n));
            assert_eq!(txn.commit().unwrap(), 2);
        }
        let mut store = PagedStore::open(&p).unwrap();
        assert_eq!(store.revision(), 2);
        assert_eq!(store.graph().unwrap().node_count(), 3);
        assert_eq!(
            store
                .graph()
                .unwrap()
                .collection_str("Publications")
                .unwrap()
                .len(),
            3
        );
        cleanup(&p);
    }

    #[test]
    fn snapshot_isolation_across_commits() {
        let p = store_path("mvcc");
        let mut store = PagedStore::import(&p, &sample()).unwrap();
        let before = store.snapshot().unwrap();
        assert_eq!(before.revision(), 1);
        let mut txn = store.begin();
        let n = txn.add_node(Some("late"));
        txn.add_to_collection("Publications", WireValue::Node(n));
        txn.commit().unwrap();
        // The old snapshot still serves revision 1.
        assert_eq!(before.node_count(), 2);
        assert_eq!(before.collection_str("Publications").unwrap().len(), 2);
        let after = store.snapshot().unwrap();
        assert_eq!(after.revision(), 2);
        assert_eq!(after.node_count(), 3);
        // Same-revision snapshots share the pinned state.
        let again = store.snapshot().unwrap();
        assert!(Arc::ptr_eq(&after.inner, &again.inner));
        cleanup(&p);
    }

    #[test]
    fn checkpoint_folds_wal_and_survives_reopen() {
        let p = store_path("ckpt");
        {
            let mut store = PagedStore::import(&p, &sample()).unwrap();
            let mut txn = store.begin();
            let n = txn.add_node(Some("extra"));
            txn.add_edge(n, "title", WireValue::Str("E".into()));
            txn.commit().unwrap();
            store.checkpoint().unwrap();
            assert_eq!(
                store.wal_size(),
                wal::EMPTY_SIZE,
                "wal reset after checkpoint"
            );
        }
        let mut store = PagedStore::open(&p).unwrap();
        assert_eq!(store.revision(), 2);
        assert_eq!(store.graph().unwrap().node_count(), 3);
        cleanup(&p);
    }

    #[test]
    fn reopened_store_is_byte_identical_to_working_copy() {
        let p = store_path("ident");
        let expected = {
            let mut store = PagedStore::import(&p, &sample()).unwrap();
            let mut txn = store.begin();
            let n = txn.add_node(None);
            txn.add_edge(n, "score", WireValue::Float(2.5));
            txn.add_edge(0, "flag", WireValue::Bool(false));
            txn.commit().unwrap();
            store.serialize().unwrap()
        };
        let mut store = PagedStore::open(&p).unwrap();
        assert_eq!(store.serialize().unwrap(), expected);
        cleanup(&p);
    }

    #[test]
    fn failed_apply_rolls_back_to_committed_state() {
        let p = store_path("rollback");
        let mut store = PagedStore::import(&p, &sample()).unwrap();
        let expected = store.serialize().unwrap();
        let err = store
            .commit_ops(&[
                DeltaOp::AddNode { name: None },
                DeltaOp::AddEdge {
                    node: 999,
                    label: "broken".into(),
                    value: WireValue::Int(1),
                },
            ])
            .unwrap_err();
        assert!(matches!(err, GraphError::StorageCorrupt { .. }), "{err}");
        // Fully rolled back — including the AddNode that preceded the bad op.
        assert_eq!(store.revision(), 1);
        assert_eq!(store.serialize().unwrap(), expected);
        // And the store still takes commits.
        let mut txn = store.begin();
        txn.add_node(Some("ok"));
        assert_eq!(txn.commit().unwrap(), 2);
        cleanup(&p);
    }

    #[test]
    fn stale_wal_after_checkpoint_crash_is_discarded() {
        let p = store_path("stale");
        {
            let mut store = PagedStore::import(&p, &sample()).unwrap();
            let mut txn = store.begin();
            txn.add_node(Some("kept"));
            txn.commit().unwrap();
            store.checkpoint().unwrap();
        }
        // Simulate the crash window: checkpoint durable, but the old log
        // (base 1, with the now-folded txn) never got reset.
        {
            let mut old = Wal::create(&wal_path(&p), 1).unwrap();
            old.append_delta(&encode_op(&DeltaOp::AddNode {
                name: Some("kept".into()),
            }))
            .unwrap();
            old.commit(2).unwrap();
        }
        let mut store = PagedStore::open(&p).unwrap();
        assert_eq!(store.revision(), 2);
        assert_eq!(
            store.graph().unwrap().node_count(),
            3,
            "txn applied exactly once"
        );
        cleanup(&p);
    }

    #[test]
    fn wal_ahead_of_page_file_is_recovery_error() {
        let p = store_path("ahead");
        {
            PagedStore::import(&p, &sample()).unwrap();
        }
        Wal::create(&wal_path(&p), 7).unwrap();
        let err = PagedStore::open(&p).unwrap_err();
        assert!(matches!(err, GraphError::StorageRecovery { .. }), "{err}");
        cleanup(&p);
    }

    #[test]
    fn compact_shrinks_the_file() {
        let p = store_path("compact");
        let mut store = PagedStore::import(&p, &sample()).unwrap();
        // Grow the file: big payloads across several checkpoints.
        for round in 0..6 {
            let mut txn = store.begin();
            let n = txn.add_node(None);
            txn.add_edge(n, "blob", WireValue::Str("x".repeat(20_000)));
            let _ = round;
            txn.commit().unwrap();
            store.checkpoint().unwrap();
        }
        let expected = store.serialize().unwrap();
        let report = store.compact().unwrap();
        assert!(
            report.pages_after < report.pages_before,
            "compaction should shrink {} -> {}",
            report.pages_before,
            report.pages_after
        );
        assert_eq!(store.leaked_pages(), 0);
        // The compacted store keeps serving without a reopen.
        assert_eq!(store.serialize().unwrap(), expected);
        drop(store);
        let mut store = PagedStore::open(&p).unwrap();
        assert_eq!(store.serialize().unwrap(), expected);
        cleanup(&p);
    }

    #[test]
    fn delta_ops_roundtrip_through_encoding() {
        let ops = vec![
            DeltaOp::AddNode { name: None },
            DeltaOp::AddNode {
                name: Some("x".into()),
            },
            DeltaOp::AddEdge {
                node: 0,
                label: "l".into(),
                value: WireValue::File(FileKind::PostScript, "a.ps".into()),
            },
            DeltaOp::RemoveEdge {
                node: 1,
                label: "m".into(),
                value: WireValue::Url("http://e".into()),
            },
            DeltaOp::EnsureCollection { name: "C".into() },
            DeltaOp::AddToCollection {
                collection: "C".into(),
                value: WireValue::Float(1.5),
            },
            DeltaOp::RemoveFromCollection {
                collection: "C".into(),
                value: WireValue::Bool(true),
            },
        ];
        for op in &ops {
            assert_eq!(&decode_op(&encode_op(op)).unwrap(), op);
        }
        assert!(matches!(
            decode_op(&[99]),
            Err(GraphError::StorageCorrupt { .. })
        ));
    }

    // ----------------------------------------------------- group commit ----

    #[test]
    fn commit_batch_is_one_revision() {
        let p = store_path("batch");
        let mut store = PagedStore::create(&p).unwrap();
        let t1 = vec![
            DeltaOp::AddNode {
                name: Some("a".into()),
            },
            DeltaOp::AddEdge {
                node: 0,
                label: "x".into(),
                value: WireValue::Int(1),
            },
        ];
        let t2 = vec![
            DeltaOp::AddNode {
                name: Some("b".into()),
            },
            DeltaOp::AddToCollection {
                collection: "C".into(),
                value: WireValue::Node(1),
            },
        ];
        let rev = store.commit_batch(&[&t1, &t2]).unwrap();
        assert_eq!(rev, 1, "the whole batch lands as one revision");
        assert_eq!(store.node_count(), 2);
        drop(store);
        let mut store = PagedStore::open(&p).unwrap();
        assert_eq!(store.revision(), 1);
        let g = store.graph().unwrap();
        assert_eq!(g.node_count(), 2);
        assert_eq!(g.collection_str("C").unwrap().len(), 1);
        cleanup(&p);
    }

    #[test]
    fn queued_txns_rebase_stale_bases() {
        let p = store_path("rebase");
        let queue = CommitQueue::new(PagedStore::create(&p).unwrap());
        // Both transactions begin at node count 0; the second commits on
        // top of the first, so its self-created index must be rebased.
        let mut t1 = queue.begin();
        let a = t1.add_node(Some("a"));
        t1.add_edge(a, "tag", WireValue::Int(1));
        let mut t2 = queue.begin();
        let b = t2.add_node(Some("b"));
        t2.add_edge(b, "tag", WireValue::Int(2));
        t2.add_to_collection("All", WireValue::Node(b));
        t1.commit().unwrap();
        t2.commit().unwrap();
        let mut store = queue.into_store().expect("sole handle");
        let g = store.graph().unwrap();
        assert_eq!(g.node_count(), 2);
        let tag = g.universe().interner().get("tag").unwrap();
        let a_n = g.nodes()[0];
        let b_n = g.nodes()[1];
        assert_eq!(g.node_name(a_n).as_deref(), Some("a"));
        assert_eq!(g.node_name(b_n).as_deref(), Some("b"));
        assert_eq!(g.reader().attr(a_n, tag), Some(&Value::Int(1)));
        assert_eq!(g.reader().attr(b_n, tag), Some(&Value::Int(2)));
        assert_eq!(
            g.collection_str("All").unwrap().items(),
            &[Value::Node(b_n)]
        );
        cleanup(&p);
    }

    /// Group commit as a count rather than a time ratio: 100 transactions
    /// from 50 threads released together land in at most 10 revisions. A
    /// revision is one WAL commit record behind one fsync, so that is at
    /// least 10 commits per fsync, where committing them one at a time
    /// takes 100. Read from this store's own revision; the process-wide
    /// storage counters are shared with every other test in the binary.
    #[test]
    fn concurrent_commits_group_behind_shared_fsyncs() {
        const THREADS: usize = 50;
        const PER_THREAD: usize = 2;
        let p = store_path("convoy");
        let mut store = PagedStore::create(&p).unwrap();
        // No auto-checkpoint: every fsync in the burst is a commit's.
        store.set_wal_limit(u64::MAX);
        store.set_group_commit_window(Duration::from_millis(2));
        let start_rev = store.revision();
        let queue = CommitQueue::new(store);
        let barrier = std::sync::Barrier::new(THREADS);
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let (queue, barrier) = (&queue, &barrier);
                scope.spawn(move || {
                    barrier.wait();
                    for i in 0..PER_THREAD {
                        let mut txn = queue.begin();
                        let n = txn.add_node(Some(&format!("n{t}_{i}")));
                        txn.add_edge(n, "t", WireValue::Int(t as i64));
                        txn.add_to_collection("All", WireValue::Node(n));
                        txn.commit().unwrap();
                    }
                });
            }
        });
        let final_rev = queue.with_store(|s| s.revision());
        let mut store = queue.into_store().expect("sole handle");
        assert!(
            final_rev - start_rev <= 10,
            "{} transactions took {} revisions",
            THREADS * PER_THREAD,
            final_rev - start_rev
        );
        assert_eq!(store.node_count(), 100);
        assert_eq!(
            store.graph().unwrap().collection_str("All").unwrap().len(),
            100
        );
        let expected = store.serialize().unwrap();
        drop(store);
        let mut reopened = PagedStore::open(&p).unwrap();
        assert_eq!(reopened.revision(), final_rev);
        assert_eq!(reopened.serialize().unwrap(), expected);
        cleanup(&p);
    }

    // --------------------------------------------- incremental checkpoint ----

    #[test]
    fn incremental_checkpoint_touches_only_dirty_segments() {
        let p = store_path("incr");
        let mut store = PagedStore::create(&p).unwrap();
        let mut txn = store.begin();
        for i in 0..1000i64 {
            let n = txn.add_node(None);
            txn.add_edge(n, "v", WireValue::Int(i));
        }
        txn.commit().unwrap();
        store.checkpoint().unwrap();
        let full_pages = store.segs.as_ref().unwrap().all_pages().len();
        assert_eq!(store.dirty_segments(), 0);
        // One new edge dirties one node segment (plus the preamble, since
        // "v2" is a new label) — not the whole image.
        let mut txn = store.begin();
        txn.add_edge(5, "v2", WireValue::Int(7));
        txn.commit().unwrap();
        assert_eq!(store.dirty_segments(), 2, "node segment + preamble");
        assert!(
            store.dirty_pages() < 8,
            "expected a handful of dirty pages, got {} (full image is {full_pages})",
            store.dirty_pages()
        );
        let count_before = store.page_count();
        store.checkpoint().unwrap();
        assert_eq!(store.dirty_segments(), 0);
        assert!(
            store.page_count() <= count_before + 8,
            "checkpoint grew the file by {} pages",
            store.page_count() - count_before
        );
        let expected = store.serialize().unwrap();
        drop(store);
        let mut reopened = PagedStore::open(&p).unwrap();
        assert_eq!(reopened.serialize().unwrap(), expected);
        cleanup(&p);
    }

    #[test]
    fn import_checkpoint_image_is_canonical() {
        let p = store_path("canon");
        let mut store = PagedStore::import(&p, &sample()).unwrap();
        let canonical = store.serialize().unwrap();
        let image = compose_image(&mut store.pager, &store.segs).unwrap();
        assert_eq!(image, canonical, "segments concatenate to the flat image");
        cleanup(&p);
    }

    #[test]
    fn snapshot_survives_checkpoint_and_compact() {
        let p = store_path("pin");
        let mut store = PagedStore::import(&p, &sample()).unwrap();
        let mut txn = store.begin();
        let n = txn.add_node(Some("pinned"));
        txn.add_edge(n, "title", WireValue::Str("P".into()));
        txn.commit().unwrap();
        let snap = store.snapshot().unwrap();
        let expected = store.serialize().unwrap();
        // Mutate, checkpoint, compact — the snapshot must not move, even
        // though it has not materialized yet.
        for _ in 0..5 {
            let mut txn = store.begin();
            let m = txn.add_node(None);
            txn.add_edge(m, "blob", WireValue::Str("y".repeat(9000)));
            txn.commit().unwrap();
            store.checkpoint().unwrap();
        }
        store.compact().unwrap();
        assert_eq!(snap.revision(), 2);
        assert_eq!(graph_bytes(snap.graph()), expected);
        cleanup(&p);
    }

    #[test]
    fn clean_open_defers_materialization() {
        let p = store_path("lazy");
        {
            PagedStore::import(&p, &sample()).unwrap();
        }
        let mut store = PagedStore::open(&p).unwrap();
        assert!(store.graph.is_none(), "clean open must not materialize");
        let snap = store.snapshot().unwrap();
        assert!(store.graph.is_none(), "snapshots pin bytes, not a graph");
        assert_eq!(snap.node_count(), 2);
        assert_eq!(store.graph().unwrap().node_count(), 2);
        cleanup(&p);
    }
}
