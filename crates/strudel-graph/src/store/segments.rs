//! The checkpoint image as the store keeps it: a layout of segments,
//! which of them committed ops have dirtied, and the `STRUMAN1` manifest
//! that records where each one lives in the page file.
//!
//! The segments are the preamble, fixed-size runs of node records, the
//! collection count, and one segment per collection. Concatenated in that
//! order they are byte for byte the image `save` writes, but each lives in
//! its own page chain, and the manifest (the pager's root chain) records
//! where. A checkpoint then rewrites only the segments that committed
//! deltas actually touched; everything else is shared with the previous
//! revision. The order is [`SegFile`]'s to know: it numbers segments by
//! *position* — preamble 0, node run `i` at `1 + i`, the collection count
//! after the last run, collections after that.

use super::codec::{
    checked_count, put_str, put_u32, put_u64, read_preamble, write_preamble, DeltaOp, ImageWriter,
    In,
};
use crate::error::{GraphError, Result};
use crate::fxhash::{FxHashMap, FxHashSet};
use crate::graph::Graph;
use crate::pager::{Pager, PAGE_PAYLOAD, PAGE_SIZE};
use crate::stats::STORAGE;
use crate::symbol::Sym;
use std::collections::BTreeSet;

/// Nodes per node segment. Small enough that a single-edge commit dirties
/// ~one page of node records; large enough that the manifest stays tiny.
pub(super) const NODE_SEG: usize = 64;

const MANIFEST_MAGIC: &[u8; 8] = b"STRUMAN1";

/// One segment of the checkpoint image: its byte length, the revision that
/// last rewrote it, and the page chain holding it.
#[derive(Debug, Clone, Default)]
pub(super) struct Seg {
    len: u64,
    stamp: u64,
    pages: Vec<u32>,
}

/// The segmented checkpoint image: layout metadata plus per-segment dirt.
///
/// The symbol layout (`syms`) is append-only between compactions: removing
/// an edge never removes its label from the table (clean segments keep
/// referencing their indexes), so the composed image may carry unused
/// symbols — which the image readers tolerate by construction.
#[derive(Debug, Clone, Default)]
pub(super) struct SegFile {
    syms: Vec<String>,
    sym_of: FxHashMap<String, u32>,
    pub(super) node_count: u32,
    preamble: Seg,
    nodes: Vec<Seg>,
    coll_header: Seg,
    colls: Vec<(String, Seg)>,
    dirty_preamble: bool,
    dirty_coll_header: bool,
    dirty_nodes: BTreeSet<usize>,
    dirty_colls: BTreeSet<usize>,
}

impl SegFile {
    /// Builds a fully-dirty segment layout for `graph` (placed nowhere
    /// yet): symbols in first-use order, collections in the graph's.
    pub(super) fn seed(graph: &Graph) -> Result<SegFile> {
        let members = graph.nodes();
        let reader = graph.reader();
        let mut sf = SegFile {
            node_count: checked_count(members.len(), "node")?,
            nodes: vec![Seg::default(); members.len().div_ceil(NODE_SEG)],
            ..SegFile::default()
        };
        let mut seen: FxHashSet<Sym> = FxHashSet::default();
        for &n in members {
            for (l, _) in reader.out(n) {
                if seen.insert(*l) {
                    sf.add_sym(&graph.resolve(*l));
                }
            }
        }
        for &c in graph.collection_names() {
            sf.colls
                .push((graph.resolve(c).to_string(), Seg::default()));
        }
        sf.dirty_preamble = true;
        sf.dirty_coll_header = true;
        sf.dirty_nodes = (0..sf.nodes.len()).collect();
        sf.dirty_colls = (0..sf.colls.len()).collect();
        Ok(sf)
    }

    /// Appends a label to the symbol table (its size is checked when the
    /// preamble is written).
    fn add_sym(&mut self, label: &str) {
        self.sym_of.insert(label.to_owned(), self.syms.len() as u32);
        self.syms.push(label.to_owned());
    }

    /// Restores the layout from the pager's manifest — magic, preamble
    /// entry, node segment entries, collection-count entry, named
    /// collection entries — walking (and thereby checksum-validating) every
    /// segment's page chain. The walk is the one time the pages are read:
    /// the image they compose is returned with the layout.
    pub(super) fn from_manifest(pager: &mut Pager) -> Result<(SegFile, Vec<u8>)> {
        let manifest = pager.read_chain().to_vec();
        let mut r = In::new(&manifest);
        if r.take(8)? != MANIFEST_MAGIC {
            return Err(GraphError::corrupt("not a STRUDEL checkpoint manifest"));
        }
        // Every live page carries image bytes or manifest bytes.
        let mut image = Vec::with_capacity(pager.page_count() as usize * PAGE_PAYLOAD);
        let mut scratch = vec![0u8; PAGE_SIZE];
        let mut seg = |r: &mut In<'_>| -> Result<Seg> {
            let (stamp, len, first, npages) = (r.u64()?, r.u64()?, r.u32()?, r.u32()?);
            let pages = pager.walk_blob(first, npages, len, &mut image, &mut scratch)?;
            Ok(Seg { len, stamp, pages })
        };
        let preamble = seg(&mut r)?;
        let nodes = (0..r.count(24)?)
            .map(|_| seg(&mut r))
            .collect::<Result<Vec<_>>>()?;
        let coll_header = seg(&mut r)?;
        let colls = (0..r.count(28)?)
            .map(|_| Ok((r.str()?.to_owned(), seg(&mut r)?)))
            .collect::<Result<Vec<_>>>()?;
        r.finish("the checkpoint manifest")?;

        let mut r = In::new(&image[..preamble.len as usize]);
        let (syms, node_count) = read_preamble(&mut r)?;
        r.finish("the checkpoint preamble")?;
        if nodes.len() != (node_count as usize).div_ceil(NODE_SEG) {
            return Err(GraphError::corrupt(format!(
                "manifest has {} node segments for {node_count} nodes",
                nodes.len()
            )));
        }
        let mut sf = SegFile {
            node_count,
            preamble,
            nodes,
            coll_header,
            colls,
            ..SegFile::default()
        };
        for s in syms {
            sf.add_sym(s);
        }
        Ok((sf, image))
    }

    /// All segments in image order; concatenating their pages' payloads
    /// yields the image.
    fn ordered(&self) -> impl Iterator<Item = &Seg> {
        std::iter::once(&self.preamble)
            .chain(&self.nodes)
            .chain(std::iter::once(&self.coll_header))
            .chain(self.colls.iter().map(|(_, s)| s))
    }

    /// The segment at image-order position `k`.
    fn seg_mut(&mut self, k: usize) -> &mut Seg {
        let n = self.nodes.len();
        match k {
            0 => &mut self.preamble,
            k if k <= n => &mut self.nodes[k - 1],
            k if k == n + 1 => &mut self.coll_header,
            k => &mut self.colls[k - n - 2].1,
        }
    }

    pub(super) fn all_pages(&self) -> Vec<u32> {
        self.ordered().flat_map(|s| &s.pages).copied().collect()
    }

    /// The manifest bytes once the segments in `moved` (position and new
    /// placement, ascending) sit where it says; the rest stay where they are.
    fn manifest(&self, moved: &[(usize, Seg)]) -> Vec<u8> {
        let mut buf = MANIFEST_MAGIC.to_vec();
        let mut moved = moved.iter().peekable();
        let mut k = 0;
        let mut entry = |buf: &mut Vec<u8>, seg: &Seg| {
            let seg = moved.next_if(|(at, _)| *at == k).map_or(seg, |(_, m)| m);
            k += 1;
            put_u64(buf, seg.stamp);
            put_u64(buf, seg.len);
            put_u32(buf, seg.pages.first().copied().unwrap_or(0));
            put_u32(buf, seg.pages.len() as u32);
        };
        entry(&mut buf, &self.preamble);
        put_u32(&mut buf, self.nodes.len() as u32);
        for seg in &self.nodes {
            entry(&mut buf, seg);
        }
        entry(&mut buf, &self.coll_header);
        put_u32(&mut buf, self.colls.len() as u32);
        for (name, seg) in &self.colls {
            put_str(&mut buf, name).expect("length checked when the collection was encoded");
            entry(&mut buf, seg);
        }
        buf
    }

    pub(super) fn install(&mut self, moved: Vec<(usize, Seg)>) {
        for (k, seg) in moved {
            *self.seg_mut(k) = seg;
        }
    }

    pub(super) fn dirty_segments(&self) -> u64 {
        u64::from(self.dirty_preamble)
            + u64::from(self.dirty_coll_header)
            + self.dirty_nodes.len() as u64
            + self.dirty_colls.len() as u64
    }

    /// Pages the next incremental checkpoint would rewrite (estimating one
    /// page for segments not yet on disk, plus one for the manifest).
    pub(super) fn dirty_page_estimate(&self) -> u64 {
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

    /// Encodes every dirty segment from `graph`, as `(position, bytes)` in
    /// image order, growing the layout to the graph's node count first.
    pub(super) fn encode_dirty(&mut self, graph: &Graph) -> Result<Vec<(usize, Vec<u8>)>> {
        let members = graph.nodes().len();
        self.node_count = checked_count(members, "node")?;
        for i in self.nodes.len()..members.div_ceil(NODE_SEG) {
            self.dirty_nodes.insert(i);
            self.nodes.push(Seg::default());
        }
        let n_colls = checked_count(self.colls.len(), "collection")?;
        let w = ImageWriter::new(graph, &self.syms);
        let mut out = Vec::with_capacity(self.dirty_segments() as usize);
        if self.dirty_preamble {
            out.push((0, write_preamble(&self.syms, self.node_count)?));
        }
        for &i in &self.dirty_nodes {
            let to = ((i + 1) * NODE_SEG).min(members);
            out.push((1 + i, w.nodes(i * NODE_SEG, to)?));
        }
        let header = 1 + self.nodes.len();
        if self.dirty_coll_header {
            out.push((header, n_colls.to_le_bytes().to_vec()));
        }
        for &i in &self.dirty_colls {
            out.push((header + 1 + i, w.collection(&self.colls[i].0)?));
        }
        Ok(out)
    }

    /// Writes `blobs[j]` through `pager` as the bytes of the segment at
    /// position `at[j].0`, stamped `at[j].1`, under a manifest that has
    /// them there and every other segment where it was. Returns the new
    /// placements, for [`SegFile::install`] once the caller's commit holds.
    fn commit(
        &self,
        pager: &mut Pager,
        at: &[(usize, u64)],
        blobs: &[&[u8]],
        freed: Vec<u32>,
        revision: u64,
    ) -> Result<Vec<(usize, Seg)>> {
        let place = |pages: &[Vec<u32>]| -> Vec<(usize, Seg)> {
            (at.iter().zip(blobs).zip(pages))
                .map(|((&(k, stamp), blob), pages)| {
                    let (len, pages) = (blob.len() as u64, pages.clone());
                    (k, Seg { len, stamp, pages })
                })
                .collect()
        };
        let lists =
            pager.commit_segments(blobs, freed, revision, |pages| self.manifest(&place(pages)))?;
        Ok(place(&lists))
    }

    /// Commits `encoded` (from [`SegFile::encode_dirty`]) as `revision`,
    /// copy-on-write: the replaced segments' pages are freed for the
    /// *next* commit, clean segments keep their placement, and on success
    /// nothing is dirty.
    pub(super) fn write(
        &mut self,
        pager: &mut Pager,
        encoded: &[(usize, Vec<u8>)],
        revision: u64,
    ) -> Result<()> {
        let freed: Vec<u32> = (encoded.iter())
            .flat_map(|(k, _)| self.seg_mut(*k).pages.clone())
            .collect();
        let at: Vec<(usize, u64)> = encoded.iter().map(|(k, _)| (*k, revision)).collect();
        let blobs: Vec<&[u8]> = encoded.iter().map(|(_, b)| b.as_slice()).collect();
        let moved = self.commit(pager, &at, &blobs, freed, revision)?;
        let new_pages: u64 = moved.iter().map(|(_, s)| s.pages.len() as u64).sum();
        self.install(moved);
        STORAGE
            .checkpoint_pages_written
            .add(new_pages + pager.chain_len() as u64);
        STORAGE
            .checkpoint_pages_reused
            .add(self.all_pages().len() as u64 - new_pages);
        self.dirty_preamble = false;
        self.dirty_coll_header = false;
        self.dirty_nodes.clear();
        self.dirty_colls.clear();
        Ok(())
    }

    /// Copies every segment's *bytes* as they are from `from` into the
    /// fresh page file `to` — no graph re-serialization, revision stamps
    /// kept — and returns where each landed.
    pub(super) fn copy_to(
        &self,
        from: &mut Pager,
        to: &mut Pager,
        revision: u64,
    ) -> Result<Vec<(usize, Seg)>> {
        let at: Vec<(usize, u64)> = self.ordered().map(|s| s.stamp).enumerate().collect();
        let blobs = (self.ordered())
            .map(|s| from.read_pages(&s.pages))
            .collect::<Result<Vec<_>>>()?;
        let blobs: Vec<&[u8]> = blobs.iter().map(|b| b.as_slice()).collect();
        self.commit(to, &at, &blobs, Vec::new(), revision)
    }
}

/// Folds one committed op into the dirty-segment map (and the running node
/// count) — the write-side mirror of `codec::apply_op`.
pub(super) fn note_op(segs: &mut Option<SegFile>, node_count: &mut u32, op: &DeltaOp) {
    if let DeltaOp::AddNode { .. } = op {
        *node_count += 1;
    }
    let Some(sf) = segs else { return };
    match op {
        DeltaOp::AddNode { .. } => {
            sf.node_count = *node_count;
            sf.dirty_nodes.insert((*node_count as usize - 1) / NODE_SEG);
            sf.dirty_preamble = true; // the node count lives there
        }
        DeltaOp::AddEdge { node, label, .. } => {
            sf.dirty_nodes.insert(*node as usize / NODE_SEG);
            if !sf.sym_of.contains_key(label.as_str()) {
                sf.add_sym(label);
                sf.dirty_preamble = true;
            }
        }
        DeltaOp::RemoveEdge { node, .. } => {
            sf.dirty_nodes.insert(*node as usize / NODE_SEG);
        }
        DeltaOp::EnsureCollection { name }
        | DeltaOp::AddToCollection {
            collection: name, ..
        }
        | DeltaOp::RemoveFromCollection {
            collection: name, ..
        } => match sf.colls.iter().position(|(n, _)| n == name) {
            // Ensure on an existing collection changes nothing.
            Some(_) if matches!(op, DeltaOp::EnsureCollection { .. }) => {}
            Some(i) => {
                sf.dirty_colls.insert(i);
            }
            // First reference creates the collection (mirroring apply_op's
            // ensure_collection): a new segment is appended and the
            // collection count changes.
            None => {
                sf.dirty_colls.insert(sf.colls.len());
                sf.colls.push((name.clone(), Seg::default()));
                sf.dirty_coll_header = true;
            }
        },
    }
}

/// Concatenates the checkpoint segments back into the image (empty if the
/// store has never checkpointed).
pub(super) fn compose_image(pager: &mut Pager, segs: &Option<SegFile>) -> Result<Vec<u8>> {
    match segs {
        None => Ok(Vec::new()),
        Some(sf) => pager.read_pages(&sf.all_pages()),
    }
}
