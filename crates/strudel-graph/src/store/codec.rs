//! The byte layouts and their tags: the `STRUDEL1` checkpoint image
//! (written and read a segment at a time), the `TAG_*` value encoding the
//! image and the log share, the `OP_*` delta ops of the log, and the one
//! reader of node records, which every way of attaching an image or a
//! stored checkpoint to a graph goes through.

use super::segments::{seg_records, Seg, SegFile, Tallies, NODE_SEG};
use crate::error::{GraphError, Result};
use crate::fxhash::FxHashMap;
use crate::graph::{Graph, GraphBatch, GraphReader, NodeData, NodeId, SegmentSource};
use crate::pager::{PageReader, Pager, PAGE_PAYLOAD};
use crate::stats::STORAGE;
use crate::symbol::Sym;
use crate::value::{FileKind, Value};
use std::io::Write;
use std::sync::Arc;

pub(super) const MAGIC: &[u8; 8] = b"STRUDEL1";

/// Checks a count fits the on-disk `u32` representation; oversized graphs
/// fail loudly instead of silently writing a corrupt file.
pub(super) fn checked_count(n: usize, what: &str) -> Result<u32> {
    u32::try_from(n)
        .map_err(|_| GraphError::corrupt(format!("{what} count {n} exceeds format limit")))
}

// ------------------------------------------------------------- primitives ----

pub(super) fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

pub(super) fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

pub(super) fn put_str(buf: &mut Vec<u8>, s: &str) -> Result<()> {
    put_u32(buf, checked_count(s.len(), "string byte")?);
    buf.extend_from_slice(s.as_bytes());
    Ok(())
}

/// A node's optional name: a presence byte, then the string.
fn put_name(buf: &mut Vec<u8>, name: Option<&str>) -> Result<()> {
    buf.push(u8::from(name.is_some()));
    name.map_or(Ok(()), |n| put_str(buf, n))
}

/// A bounds-checked reader over the whole (buffered) input. Every count
/// and length in the file is validated against the bytes actually present
/// *before* any allocation, so a corrupted length prefix cannot trigger an
/// unbounded allocation (found by the bit-flip fuzz test).
pub(super) struct In<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> In<'a> {
    pub(super) fn new(buf: &'a [u8]) -> Self {
        In { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    pub(super) fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(GraphError::corrupt("truncated input"));
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    pub(super) fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    pub(super) fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    /// Rejects a count of `min_record_bytes`-byte records that the
    /// remaining input cannot possibly hold.
    fn holds(&self, n: usize, min_record_bytes: usize) -> Result<usize> {
        if n.saturating_mul(min_record_bytes.max(1)) > self.remaining() {
            return Err(GraphError::corrupt(format!(
                "count {n} exceeds remaining input"
            )));
        }
        Ok(n)
    }

    /// Reads a count that prefixes that many records.
    pub(super) fn count(&mut self, min_record_bytes: usize) -> Result<usize> {
        let n = self.u32()? as usize;
        self.holds(n, min_record_bytes)
    }

    pub(super) fn str(&mut self) -> Result<&'a str> {
        let len = self.u32()? as usize;
        std::str::from_utf8(self.take(len)?)
            .map_err(|_| GraphError::corrupt("invalid UTF-8 in stored string"))
    }

    fn name(&mut self) -> Result<Option<&'a str>> {
        Ok(if self.u8()? == 1 {
            Some(self.str()?)
        } else {
            None
        })
    }

    /// The input must end here: a buffer that "loads fine" but carries
    /// unread data is evidence of truncated or mixed-up writes.
    pub(super) fn finish(&self, what: &str) -> Result<()> {
        match self.remaining() {
            0 => Ok(()),
            n => Err(GraphError::corrupt(format!(
                "{n} trailing bytes after {what}"
            ))),
        }
    }
}

// ----------------------------------------------------------------- values ----

const TAG_NODE: u8 = 0;
const TAG_INT: u8 = 1;
const TAG_FLOAT: u8 = 2;
const TAG_BOOL: u8 = 3;
const TAG_STR: u8 = 4;
const TAG_URL: u8 = 5;
const TAG_FILE: u8 = 6;

fn file_kind_tag(kind: FileKind) -> u8 {
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
        other => return Err(GraphError::corrupt(format!("unknown file kind {other}"))),
    })
}

fn node_at(nodes: &[NodeId], i: u32) -> Result<NodeId> {
    nodes
        .get(i as usize)
        .copied()
        .ok_or_else(|| GraphError::corrupt(format!("node index {i} out of range")))
}

/// A value as the bytes hold it — node reference dense, text borrowed. The
/// image stores [`Value`]s and the log [`WireValue`]s; both pass through
/// this form, so the `TAG_*` bytes have one encoder and one decoder.
pub(super) enum Tagged<'a> {
    Node(u32),
    Int(i64),
    Float(f64),
    Bool(bool),
    Str(&'a str),
    Url(&'a str),
    File(FileKind, &'a str),
}

impl<'a> Tagged<'a> {
    fn encode(&self, buf: &mut Vec<u8>) -> Result<()> {
        match *self {
            Tagged::Node(i) => {
                buf.push(TAG_NODE);
                put_u32(buf, i);
            }
            Tagged::Int(i) => {
                buf.push(TAG_INT);
                put_u64(buf, i as u64);
            }
            Tagged::Float(f) => {
                buf.push(TAG_FLOAT);
                put_u64(buf, f.to_bits());
            }
            Tagged::Bool(b) => buf.extend_from_slice(&[TAG_BOOL, u8::from(b)]),
            Tagged::Str(s) => {
                buf.push(TAG_STR);
                put_str(buf, s)?;
            }
            Tagged::Url(s) => {
                buf.push(TAG_URL);
                put_str(buf, s)?;
            }
            Tagged::File(kind, path) => {
                buf.extend_from_slice(&[TAG_FILE, file_kind_tag(kind)]);
                put_str(buf, path)?;
            }
        }
        Ok(())
    }

    // `decode` and `into_value` are one match when both inline into the
    // reader's loop and two when they do not: a 100,000-article image
    // decodes in 120 ms against 150 ms.
    #[inline]
    fn decode(r: &mut In<'a>) -> Result<Self> {
        Ok(match r.u8()? {
            TAG_NODE => Tagged::Node(r.u32()?),
            TAG_INT => Tagged::Int(r.u64()? as i64),
            TAG_FLOAT => Tagged::Float(f64::from_bits(r.u64()?)),
            TAG_BOOL => Tagged::Bool(r.u8()? != 0),
            TAG_STR => Tagged::Str(r.str()?),
            TAG_URL => Tagged::Url(r.str()?),
            TAG_FILE => Tagged::File(file_kind_of(r.u8()?)?, r.str()?),
            other => return Err(GraphError::corrupt(format!("unknown value tag {other}"))),
        })
    }

    /// The value, its node index resolved by `node`.
    #[inline]
    pub(super) fn into_value(self, node: impl FnOnce(u32) -> Result<NodeId>) -> Result<Value> {
        Ok(match self {
            Tagged::Node(i) => Value::Node(node(i)?),
            Tagged::Int(i) => Value::Int(i),
            Tagged::Float(f) => Value::Float(f),
            Tagged::Bool(b) => Value::Bool(b),
            Tagged::Str(s) => Value::str(s),
            Tagged::Url(s) => Value::url(s),
            Tagged::File(kind, path) => Value::file(kind, path),
        })
    }
}

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
    pub(super) fn tagged(&self) -> Tagged<'_> {
        match self {
            WireValue::Node(i) => Tagged::Node(*i),
            WireValue::Int(i) => Tagged::Int(*i),
            WireValue::Float(f) => Tagged::Float(*f),
            WireValue::Bool(b) => Tagged::Bool(*b),
            WireValue::Str(s) => Tagged::Str(s),
            WireValue::Url(s) => Tagged::Url(s),
            WireValue::File(kind, path) => Tagged::File(*kind, path),
        }
    }
}

impl From<Tagged<'_>> for WireValue {
    fn from(t: Tagged<'_>) -> Self {
        match t {
            Tagged::Node(i) => WireValue::Node(i),
            Tagged::Int(i) => WireValue::Int(i),
            Tagged::Float(f) => WireValue::Float(f),
            Tagged::Bool(b) => WireValue::Bool(b),
            Tagged::Str(s) => WireValue::Str(s.to_owned()),
            Tagged::Url(s) => WireValue::Url(s.to_owned()),
            Tagged::File(kind, path) => WireValue::File(kind, path.to_owned()),
        }
    }
}

// ------------------------------------------------------- image segments ----
//
// The image is the concatenation of: the preamble (magic, symbol table,
// node count), the node records in member order, the collection count,
// and one record per collection. A store keeps each of these — the node
// records in runs of `NODE_SEG` — as a segment of its own (see `SegFile`);
// the writers and readers below are per segment, and are all there is.

pub(super) fn write_preamble(syms: &[String], node_count: u32) -> Result<Vec<u8>> {
    let mut buf = MAGIC.to_vec();
    put_u32(&mut buf, checked_count(syms.len(), "symbol")?);
    for s in syms {
        put_str(&mut buf, s)?;
    }
    put_u32(&mut buf, node_count);
    Ok(buf)
}

/// Reads the preamble: the symbol table and the node count.
pub(super) fn read_preamble<'a>(r: &mut In<'a>) -> Result<(Vec<&'a str>, u32)> {
    if r.take(8)? != MAGIC {
        return Err(GraphError::corrupt("not a STRUDEL graph image"));
    }
    // Each symbol record is at least its 4-byte length prefix.
    let syms = (0..r.count(4)?).map(|_| r.str()).collect::<Result<_>>()?;
    Ok((syms, r.u32()?))
}

/// What the node and collection writers need from one graph, built once
/// per save or checkpoint: node references are densified to the graph's
/// member order (so the stored form is independent of the universe's oid
/// space) and labels to their position in the layout's symbol table.
pub(super) struct ImageWriter<'g> {
    reader: GraphReader<'g>,
    dense: FxHashMap<NodeId, u32>,
    sym_index: FxHashMap<Sym, u32>,
}

impl<'g> ImageWriter<'g> {
    /// `syms` is the layout's symbol table; the caller has checked that the
    /// member count fits a `u32`.
    pub(super) fn new(graph: &'g Graph, syms: &[String]) -> Self {
        let interner = graph.universe().interner();
        ImageWriter {
            reader: graph.reader(),
            dense: (graph.nodes().iter().copied().zip(0u32..)).collect(),
            sym_index: (syms.iter().zip(0u32..))
                .filter_map(|(s, i)| Some((interner.get(s)?, i)))
                .collect(),
        }
    }

    fn value(&self, buf: &mut Vec<u8>, v: &Value) -> Result<()> {
        match v {
            // A reference to a node outside this graph is not representable
            // in the dense numbering; reject rather than corrupt.
            Value::Node(n) => Tagged::Node(*self.dense.get(n).ok_or_else(|| {
                GraphError::corrupt(format!(
                    "reference to non-member node {n}; adopt it before saving"
                ))
            })?),
            Value::Int(i) => Tagged::Int(*i),
            Value::Float(f) => Tagged::Float(*f),
            Value::Bool(b) => Tagged::Bool(*b),
            Value::Str(s) => Tagged::Str(s),
            Value::Url(s) => Tagged::Url(s),
            Value::File(kind, path) => Tagged::File(*kind, path),
        }
        .encode(buf)
    }

    /// The records of member nodes `from..to` — name, edge count, then
    /// `(symbol index, value)` per edge — and their tallies.
    pub(super) fn nodes(&self, from: usize, to: usize) -> Result<(Vec<u8>, Tallies)> {
        let graph = self.reader.graph();
        let mut buf = Vec::new();
        let mut labels = Vec::new();
        for &n in &graph.nodes()[from..to] {
            put_name(&mut buf, self.reader.name(n))?;
            let out = self.reader.out(n);
            put_u32(&mut buf, checked_count(out.len(), "out-edge")?);
            for (l, v) in out {
                let idx = self.sym_index.get(l).ok_or_else(|| {
                    let label = graph.resolve(*l);
                    GraphError::corrupt(format!("label {label:?} missing from checkpoint layout"))
                })?;
                put_u32(&mut buf, *idx);
                self.value(&mut buf, v)?;
                labels.push(*idx);
            }
        }
        Ok((buf, Tallies::of(&labels)))
    }

    /// One collection record: name, item count, items.
    pub(super) fn collection(&self, name: &str) -> Result<Vec<u8>> {
        let items = (self.reader.graph().collection_str(name))
            .ok_or_else(|| {
                GraphError::corrupt(format!("collection {name:?} vanished from the graph"))
            })?
            .items();
        let mut buf = Vec::new();
        put_str(&mut buf, name)?;
        put_u32(&mut buf, checked_count(items.len(), "collection item")?);
        for item in items {
            self.value(&mut buf, item)?;
        }
        Ok(buf)
    }
}

/// A node record's head: its name and how many edges follow.
fn record_head<'a>(r: &mut In<'a>) -> Result<(Option<&'a str>, usize)> {
    // Each edge is at least a 4-byte symbol index + 1 tag byte.
    Ok((r.name()?, r.count(5)?))
}

/// One edge of a node record: the index of its label in the image's `syms`
/// symbols and its value, a node reference among the image's `nodes`.
#[inline]
fn record_edge<'a>(r: &mut In<'a>, syms: usize, nodes: usize) -> Result<(usize, Tagged<'a>)> {
    let sym = r.u32()? as usize;
    if sym >= syms {
        return Err(GraphError::corrupt("symbol index out of range"));
    }
    let value = Tagged::decode(r)?;
    match value {
        Tagged::Node(i) if i as usize >= nodes => {
            Err(GraphError::corrupt(format!("node index {i} out of range")))
        }
        value => Ok((sym, value)),
    }
}

/// Reads a node record whole — counts against the bytes present, symbol
/// and node indexes, value tags, UTF-8 — decoding no value, and puts its
/// edges' symbol indexes in `labels`. Every way of reading node records
/// checks them here before [`decode_records`] builds them.
fn check_record(r: &mut In<'_>, syms: usize, nodes: usize, labels: &mut Vec<u32>) -> Result<()> {
    labels.clear();
    let (_, edges) = record_head(r)?;
    for _ in 0..edges {
        labels.push(record_edge(r, syms, nodes)?.0 as u32);
    }
    Ok(())
}

/// [`check_record`] for `count` records, tallying their edges.
fn check_records(r: &mut In<'_>, count: usize, syms: usize, nodes: usize) -> Result<Tallies> {
    let (mut labels, mut record) = (Vec::new(), Vec::new());
    for _ in 0..count {
        check_record(r, syms, nodes, &mut record)?;
        labels.extend_from_slice(&record);
    }
    Ok(Tallies::of(&labels))
}

/// Builds `count` node records, handing `put` each node in order, node
/// references resolved against the attached nodes from `first`.
fn decode_records(
    r: &mut In<'_>,
    count: usize,
    syms: &[Sym],
    nodes: usize,
    first: NodeId,
    put: &mut dyn FnMut(NodeData),
) -> Result<()> {
    let mut edges = 0;
    for _ in 0..count {
        let (name, n) = record_head(r)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            let (sym, value) = record_edge(r, syms.len(), nodes)?;
            out.push((syms[sym], value.into_value(|i| Ok(NodeId(first.0 + i)))?));
        }
        edges += n;
        let name = name.map(Arc::from);
        put(NodeData { name, out });
    }
    STORAGE.segments_decoded.inc();
    STORAGE.materialized_edges.add(edges as u64);
    Ok(())
}

/// Reads node segment `seg` of a stored checkpoint of `nodes` nodes and
/// `syms` symbols from the page file into `out`, and checks it: each page
/// as it is read (checksum, link, the declared pages and bytes), then its
/// records — exactly the segment's share of the nodes, ending exactly at
/// its last byte, tallying exactly what its manifest `entry` does. The one
/// reader of a stored node segment, on first touch or at attach; a segment
/// that fails is counted and named in the error.
fn read_segment(
    pages: &PageReader,
    entry: &Seg,
    seg: usize,
    (syms, nodes): (usize, usize),
    out: &mut Vec<u8>,
) -> Result<()> {
    let start = out.len();
    let read = (|| {
        pages.read_chain(&entry.pages, entry.len, out)?;
        let mut r = In::new(&out[start..]);
        let tallies = check_records(&mut r, seg_records(seg, nodes), syms, nodes)?;
        r.finish("the segment's last record")?;
        match tallies == entry.tallies {
            true => Ok(()),
            false => Err(GraphError::corrupt(
                "records differ from the manifest's tally",
            )),
        }
    })();
    read.map_err(|e| {
        STORAGE.segments_corrupt.inc();
        match e {
            GraphError::StorageCorrupt { message } => {
                GraphError::corrupt(format!("node segment {seg}: {message}"))
            }
            e => e,
        }
    })
}

/// Node records read and checked whole, each `NODE_SEG`-node segment of
/// them decoded on the first read of one of its nodes: what [`load_into`]
/// attaches, and a stored checkpoint attached to a graph that must not
/// depend on the page file afterwards.
struct CheckedNodes {
    bytes: Arc<Vec<u8>>,
    /// Where each segment's records start in `bytes`.
    offsets: Vec<usize>,
    syms: Vec<Sym>,
    /// The image's node count (node references index it).
    nodes: usize,
    /// The records read whole: those of the first `valid` nodes.
    valid: usize,
}

impl SegmentSource for CheckedNodes {
    fn decode(&self, seg: usize, first: NodeId, put: &mut dyn FnMut(NodeData)) -> Result<()> {
        let mut r = In {
            buf: &self.bytes,
            pos: self.offsets[seg],
        };
        let count = seg_records(seg, self.valid);
        decode_records(&mut r, count, &self.syms, self.nodes, first, put)
    }
}

/// A stored checkpoint's node segments, each read from the page file,
/// checked and decoded the first time one of its nodes is read or written:
/// the source of a store's working graph. Its segments' pages stay as they
/// are until it has read them — a checkpoint frees only segments a commit
/// dirtied, which the commit read first.
struct PagedNodes {
    pages: PageReader,
    segs: Vec<Seg>,
    syms: Vec<Sym>,
    nodes: usize,
}

impl SegmentSource for PagedNodes {
    fn decode(&self, seg: usize, first: NodeId, put: &mut dyn FnMut(NodeData)) -> Result<()> {
        let mut bytes = Vec::new();
        let shape = (self.syms.len(), self.nodes);
        read_segment(&self.pages, &self.segs[seg], seg, shape, &mut bytes)?;
        let count = seg_records(seg, self.nodes);
        decode_records(
            &mut In::new(&bytes),
            count,
            &self.syms,
            self.nodes,
            first,
            put,
        )
    }
}

/// Reads the collection records after the node records, each collection's
/// items added in one call.
fn read_collections(
    r: &mut In<'_>,
    g: &mut GraphBatch<'_>,
    first: NodeId,
    nodes: usize,
) -> Result<()> {
    let node = |i: u32| match i as usize {
        i if i < nodes => Ok(NodeId(first.0 + i as u32)),
        _ => Err(GraphError::corrupt(format!("node index {i} out of range"))),
    };
    // Each collection record is at least a 4-byte name length + 4-byte count.
    for _ in 0..r.count(8)? {
        let sym = g.sym(r.str()?);
        // Each item is at least a 1-byte tag + 1 byte payload.
        let items = (0..r.count(2)?)
            .map(|_| Tagged::decode(r)?.into_value(node))
            .collect::<Result<Vec<_>>>()?;
        g.extend_collection(sym, items);
    }
    Ok(())
}

/// Serializes a graph to a writer as one checkpoint image: a fresh layout,
/// every segment of it, in order. A graph whose [`Graph::check`] fails —
/// a stored segment of it did not read — is not written.
pub fn save(graph: &Graph, w: &mut impl Write) -> Result<()> {
    let encoded = SegFile::seed(graph)?.encode_dirty(graph)?;
    graph.check()?;
    for (_, segment, _) in encoded.segs {
        w.write_all(&segment)?;
    }
    Ok(())
}

/// Deserializes a graph from an in-memory image into a fresh standalone
/// graph. See [`load_into`].
pub fn load(image: Vec<u8>) -> Result<Graph> {
    let mut g = Graph::standalone();
    load_into(&mut g, image)?;
    Ok(g)
}

/// Deserializes an image into `g` — typically a fresh graph, either
/// standalone or attached to a shared universe — by *attaching* it: every
/// node record is read whole and checked — counts against the bytes
/// present, symbol and node indexes, value tags, UTF-8 — and its edges
/// counted per label, decoding no value; the nodes become members, and
/// each `NODE_SEG`-node segment of them is decoded from `image`, which the
/// graph holds until then, when one of its nodes is first read. The
/// collections are read in full.
///
/// Every count is validated against the bytes actually present, so
/// corrupted inputs fail with an error rather than attempting huge
/// allocations, and the buffer must contain exactly one graph: trailing
/// bytes after the last collection record are rejected as
/// [`GraphError::StorageCorrupt`]. A record that does not read leaves the
/// nodes before it attached and counted, the rest empty.
pub fn load_into(g: &mut Graph, image: Vec<u8>) -> Result<()> {
    let image = Arc::new(image);
    let mut r = In::new(&image);
    let (syms, n_nodes) = read_preamble(&mut r)?;
    let syms: Vec<Sym> = syms.into_iter().map(|s| g.sym(s)).collect();
    // Each node record is at least 1 flag byte + 4 count bytes.
    let n_nodes = r.holds(n_nodes as usize, 5)?;
    let mut totals = LabelTotals::new(syms.len());
    let mut offsets = Vec::with_capacity(n_nodes.div_ceil(NODE_SEG));
    let mut record = Vec::new();
    let mut valid = 0;
    let failed = loop {
        if valid == n_nodes {
            break None;
        }
        if valid % NODE_SEG == 0 {
            offsets.push(r.pos);
        }
        // A record's labels count once it has read whole.
        if let Err(e) = check_record(&mut r, syms.len(), n_nodes, &mut record) {
            break Some(e);
        }
        record.iter().for_each(|&sym| totals.count(sym, 1));
        valid += 1;
    };
    offsets.truncate(valid.div_ceil(NODE_SEG));
    let labels = totals.of(&syms);
    let source = CheckedNodes {
        bytes: Arc::clone(&image),
        offsets,
        syms,
        nodes: n_nodes,
        valid,
    };
    // One batch per image: a failure below leaves what was read so far,
    // counted (the caller discards the graph).
    let mut g = g.batch();
    let first = g.attach(n_nodes, valid, NODE_SEG, Arc::new(source), labels);
    if let Some(e) = failed {
        return Err(e);
    }
    read_collections(&mut r, &mut g, first, n_nodes)?;
    r.finish("the last collection record")
}

/// Edges per label over many segments' tallies, labels in first-appearance
/// order.
struct LabelTotals {
    per_sym: Vec<usize>,
    order: Vec<u32>,
}

impl LabelTotals {
    fn new(syms: usize) -> Self {
        LabelTotals {
            per_sym: vec![0; syms],
            order: Vec::new(),
        }
    }

    fn count(&mut self, sym: u32, n: u32) {
        if self.per_sym[sym as usize] == 0 {
            self.order.push(sym);
        }
        self.per_sym[sym as usize] += n as usize;
    }

    fn of(&self, syms: &[Sym]) -> Vec<(Sym, usize)> {
        (self.order.iter())
            .map(|&s| (syms[s as usize], self.per_sym[s as usize]))
            .collect()
    }
}

/// When a stored checkpoint's node segments are read: on first touch, or
/// all of them as the checkpoint is attached.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(super) enum Reading {
    /// For the store's working graph, which lives beside the page file.
    OnFirstTouch,
    /// For a graph that outlives the store: a snapshot, or the caller's.
    AtAttach,
}

/// Attaches the checkpoint `sf` describes in `pager`'s file to `g`: its
/// nodes become members, their edges counted from the manifest's tallies,
/// each node segment read with [`read_segment`] when `reading` says; the
/// collections are read whole now.
pub(super) fn attach_stored(
    g: &mut Graph,
    sf: &SegFile,
    pager: &mut Pager,
    reading: Reading,
) -> Result<()> {
    let syms: Vec<Sym> = sf.stored_syms().iter().map(|s| g.sym(s)).collect();
    let nodes = sf.node_count as usize;
    let entries = sf.node_segments();
    let mut labels = LabelTotals::new(syms.len());
    for &(sym, n) in entries.iter().flat_map(|e| &e.tallies.labels) {
        labels.count(sym, n);
    }
    let labels = labels.of(&syms);
    let pages = pager.reader();
    let source: Arc<dyn SegmentSource> = match reading {
        Reading::OnFirstTouch => Arc::new(PagedNodes {
            pages,
            segs: entries.to_vec(),
            syms,
            nodes,
        }),
        Reading::AtAttach => {
            // The declared lengths, bounded by the file before any is read.
            let len = (entries.iter().fold(0u64, |n, e| n.saturating_add(e.len)))
                .min(u64::from(pager.page_count()) * PAGE_PAYLOAD as u64);
            let (mut bytes, mut offsets) = (Vec::with_capacity(len as usize), Vec::new());
            for (seg, entry) in entries.iter().enumerate() {
                offsets.push(bytes.len());
                read_segment(&pages, entry, seg, (syms.len(), nodes), &mut bytes)?;
            }
            Arc::new(CheckedNodes {
                bytes: Arc::new(bytes),
                offsets,
                syms,
                nodes,
                valid: nodes,
            })
        }
    };
    let tail = pager.read_pages(&sf.collection_pages())?;
    let mut r = In::new(&tail);
    let mut g = g.batch();
    let first = g.attach(nodes, nodes, NODE_SEG, source, labels);
    read_collections(&mut r, &mut g, first, nodes)?;
    r.finish("the last collection record")
}

// ------------------------------------------------------------ delta ops ----

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

pub(super) fn encode_op(op: &DeltaOp) -> Result<Vec<u8>> {
    let mut buf = Vec::new();
    match op {
        DeltaOp::AddNode { name } => {
            buf.push(OP_ADD_NODE);
            put_name(&mut buf, name.as_deref())?;
        }
        DeltaOp::AddEdge { node, label, value } => {
            buf.push(OP_ADD_EDGE);
            put_u32(&mut buf, *node);
            put_str(&mut buf, label)?;
            value.tagged().encode(&mut buf)?;
        }
        DeltaOp::RemoveEdge { node, label, value } => {
            buf.push(OP_REMOVE_EDGE);
            put_u32(&mut buf, *node);
            put_str(&mut buf, label)?;
            value.tagged().encode(&mut buf)?;
        }
        DeltaOp::EnsureCollection { name } => {
            buf.push(OP_ENSURE_COLLECTION);
            put_str(&mut buf, name)?;
        }
        DeltaOp::AddToCollection { collection, value } => {
            buf.push(OP_ADD_TO_COLLECTION);
            put_str(&mut buf, collection)?;
            value.tagged().encode(&mut buf)?;
        }
        DeltaOp::RemoveFromCollection { collection, value } => {
            buf.push(OP_REMOVE_FROM_COLLECTION);
            put_str(&mut buf, collection)?;
            value.tagged().encode(&mut buf)?;
        }
    }
    Ok(buf)
}

pub(super) fn decode_op(buf: &[u8]) -> Result<DeltaOp> {
    let mut r = In::new(buf);
    let op = match r.u8()? {
        OP_ADD_NODE => DeltaOp::AddNode {
            name: r.name()?.map(str::to_owned),
        },
        OP_ADD_EDGE => DeltaOp::AddEdge {
            node: r.u32()?,
            label: r.str()?.to_owned(),
            value: Tagged::decode(&mut r)?.into(),
        },
        OP_REMOVE_EDGE => DeltaOp::RemoveEdge {
            node: r.u32()?,
            label: r.str()?.to_owned(),
            value: Tagged::decode(&mut r)?.into(),
        },
        OP_ENSURE_COLLECTION => DeltaOp::EnsureCollection {
            name: r.str()?.to_owned(),
        },
        OP_ADD_TO_COLLECTION => DeltaOp::AddToCollection {
            collection: r.str()?.to_owned(),
            value: Tagged::decode(&mut r)?.into(),
        },
        OP_REMOVE_FROM_COLLECTION => DeltaOp::RemoveFromCollection {
            collection: r.str()?.to_owned(),
            value: Tagged::decode(&mut r)?.into(),
        },
        other => return Err(GraphError::corrupt(format!("unknown delta op tag {other}"))),
    };
    r.finish("a delta op")?;
    Ok(op)
}

pub(super) fn apply_op(g: &mut Graph, op: &DeltaOp) -> Result<()> {
    let resolve = |g: &Graph, v: &WireValue| v.tagged().into_value(|i| node_at(g.nodes(), i));
    match op {
        DeltaOp::AddNode { name } => {
            g.new_node(name.as_deref());
        }
        DeltaOp::AddEdge { node, label, value } => {
            let (n, v) = (node_at(g.nodes(), *node)?, resolve(g, value)?);
            g.add_edge(n, g.sym(label), v)?;
        }
        DeltaOp::RemoveEdge { node, label, value } => {
            let (n, v) = (node_at(g.nodes(), *node)?, resolve(g, value)?);
            g.remove_edge(n, g.sym(label), &v)?;
        }
        DeltaOp::EnsureCollection { name } => {
            g.ensure_collection(name);
        }
        DeltaOp::AddToCollection { collection, value } => {
            let v = resolve(g, value)?;
            let sym = g.ensure_collection(collection);
            g.add_to_collection(sym, v);
        }
        DeltaOp::RemoveFromCollection { collection, value } => {
            let v = resolve(g, value)?;
            let sym = g.ensure_collection(collection);
            g.remove_from_collection(sym, &v);
        }
    }
    Ok(())
}

/// Applies the committed `ops` to `g`, on top of the checkpoint attached
/// to it — building only the segments they touch.
pub(super) fn apply_ops(g: &mut Graph, ops: &[DeltaOp]) -> Result<()> {
    for (i, op) in ops.iter().enumerate() {
        apply_op(g, op).map_err(|e| {
            GraphError::recovery(format!(
                "committed op {i} of {} does not apply: {e}",
                ops.len()
            ))
        })?;
    }
    Ok(())
}
