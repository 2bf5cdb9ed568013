//! The checkpoint image as the store keeps it: a layout of segments,
//! which of them committed ops have dirtied, and the `STRUMAN2` manifest
//! that records where each one lives in the page file and what each node
//! segment holds.
//!
//! The segments are the preamble, fixed-size runs of node records, the
//! collection count, and one segment per collection. Concatenated in that
//! order they are byte for byte the image `save` writes, but each lives in
//! its own page chain, and the manifest (the pager's root chain) records
//! where — for a node segment, its page list and its tallies too, so that
//! a store opens without reading a node segment's page. A checkpoint then
//! rewrites only the segments that committed deltas actually touched;
//! everything else, tallies included, is shared with the previous
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
use crate::pager::Pager;
use crate::stats::STORAGE;
use crate::symbol::Sym;
use std::collections::BTreeSet;

/// Nodes per node segment. Small enough that a single-edge commit dirties
/// ~one page of node records; large enough that the manifest stays small.
pub(super) const NODE_SEG: usize = 64;

const MANIFEST_MAGIC: &[u8; 8] = b"STRUMAN2";
/// The manifest before node segments carried their tallies, refused.
const MANIFEST_V1: &[u8; 8] = b"STRUMAN1";

/// The records of node segment `seg` of `nodes` nodes: `NODE_SEG`, or the
/// remainder in the last segment.
pub(super) fn seg_records(seg: usize, nodes: usize) -> usize {
    nodes.saturating_sub(seg * NODE_SEG).min(NODE_SEG)
}

/// What a node segment holds, as its manifest entry records it: its edges,
/// and its edges per label — by index in the layout's symbol table, in
/// first-appearance order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(super) struct Tallies {
    pub(super) edges: u32,
    pub(super) labels: Vec<(u32, u32)>,
}

impl Tallies {
    /// The tallies of edges carrying the labels at symbol indexes `syms`.
    pub(super) fn of(syms: &[u32]) -> Tallies {
        let mut at: FxHashMap<u32, usize> = FxHashMap::default();
        let mut labels: Vec<(u32, u32)> = Vec::new();
        for &sym in syms {
            let i = *at.entry(sym).or_insert_with(|| {
                labels.push((sym, 0));
                labels.len() - 1
            });
            labels[i].1 = labels[i].1.saturating_add(1);
        }
        let edges = u32::try_from(syms.len()).unwrap_or(u32::MAX);
        Tallies { edges, labels }
    }
}

/// One segment of the checkpoint image: its byte length, the revision that
/// last rewrote it, the page chain holding it and, for a node segment, its
/// tallies.
#[derive(Debug, Clone, Default)]
pub(super) struct Seg {
    pub(super) len: u64,
    stamp: u64,
    pub(super) pages: Vec<u32>,
    pub(super) tallies: Tallies,
}

/// Dirty segments encoded by [`SegFile::encode_dirty`], for
/// [`SegFile::write`]: `(position, bytes, tallies)` in image order, and the
/// node count the preamble among them records.
pub(super) struct Encoded {
    pub(super) segs: Vec<(usize, Vec<u8>, Tallies)>,
    node_count: u32,
    sym_count: usize,
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
    /// The node and symbol counts of the image on disk (its preamble's):
    /// committed ops since then grow the graph and the table, not these.
    pub(super) node_count: u32,
    sym_count: usize,
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
        checked_count(members.len(), "node")?;
        let mut sf = SegFile {
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
    /// collection entries. Reads and checks the preamble's, the collection
    /// count's and the collections' page chains, through the page cache
    /// (where attaching a graph finds them), and no node segment's page.
    pub(super) fn from_manifest(pager: &mut Pager) -> Result<SegFile> {
        let manifest = pager.read_chain().to_vec();
        let mut r = In::new(&manifest);
        match r.take(8)? {
            m if m == MANIFEST_MAGIC => {}
            m if m == MANIFEST_V1 => {
                return Err(GraphError::corrupt(
                    "checkpoint manifest version 1 (STRUMAN1): this build reads version 2 \
                     (STRUMAN2) only and migrates no store",
                ))
            }
            _ => return Err(GraphError::corrupt("not a STRUDEL checkpoint manifest")),
        }
        let mut bytes = Vec::new();
        let mut chained = |r: &mut In<'_>, bytes: &mut Vec<u8>| -> Result<Seg> {
            let (stamp, len, first, npages) = (r.u64()?, r.u64()?, r.u32()?, r.u32()?);
            bytes.clear();
            let pages = pager.walk_blob(first, npages, len, bytes)?;
            Ok(Seg {
                len,
                stamp,
                pages,
                tallies: Tallies::default(),
            })
        };
        let preamble = chained(&mut r, &mut bytes)?;
        let mut p = In::new(&bytes);
        let (syms, node_count) = read_preamble(&mut p)?;
        p.finish("the checkpoint preamble")?;
        let syms: Vec<String> = syms.into_iter().map(str::to_owned).collect();
        // An entry is at least its stamp, length and three counts.
        let nodes = (0..r.count(28)?)
            .map(|_| node_entry(&mut r, syms.len()))
            .collect::<Result<Vec<_>>>()?;
        let coll_header = chained(&mut r, &mut bytes)?;
        let colls = (0..r.count(28)?)
            .map(|_| Ok((r.str()?.to_owned(), chained(&mut r, &mut bytes)?)))
            .collect::<Result<Vec<_>>>()?;
        r.finish("the checkpoint manifest")?;
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
        for s in &syms {
            sf.add_sym(s);
        }
        sf.sym_count = syms.len();
        Ok(sf)
    }

    /// The node segments on disk.
    pub(super) fn node_segments(&self) -> &[Seg] {
        &self.nodes[..(self.node_count as usize).div_ceil(NODE_SEG)]
    }

    /// The symbol table of the image on disk.
    pub(super) fn stored_syms(&self) -> &[String] {
        &self.syms[..self.sym_count]
    }

    /// The pages of the collection count and the collections, in order:
    /// the image after its node records.
    pub(super) fn collection_pages(&self) -> Vec<u32> {
        let colls = self.colls.iter().map(|(_, s)| s);
        (std::iter::once(&self.coll_header).chain(colls))
            .flat_map(|s| &s.pages)
            .copied()
            .collect()
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
    fn manifest(&self, moved: &[(usize, Seg)]) -> Result<Vec<u8>> {
        let mut placed: Vec<&Seg> = self.ordered().collect();
        for (k, seg) in moved {
            placed[*k] = seg;
        }
        let mut placed = placed.into_iter();
        let mut next = || placed.next().expect("one placement per segment");
        let chained = |buf: &mut Vec<u8>, seg: &Seg| {
            put_u64(buf, seg.stamp);
            put_u64(buf, seg.len);
            put_u32(buf, seg.pages.first().copied().unwrap_or(0));
            put_u32(buf, seg.pages.len() as u32);
        };
        let mut buf = MANIFEST_MAGIC.to_vec();
        chained(&mut buf, next());
        put_u32(&mut buf, checked_count(self.nodes.len(), "node segment")?);
        for _ in &self.nodes {
            let seg = next();
            put_u64(&mut buf, seg.stamp);
            put_u64(&mut buf, seg.len);
            put_u32(&mut buf, checked_count(seg.pages.len(), "page")?);
            seg.pages.iter().for_each(|&p| put_u32(&mut buf, p));
            put_u32(&mut buf, seg.tallies.edges);
            put_u32(&mut buf, checked_count(seg.tallies.labels.len(), "label")?);
            for &(sym, n) in &seg.tallies.labels {
                put_u32(&mut buf, sym);
                put_u32(&mut buf, n);
            }
        }
        chained(&mut buf, next());
        put_u32(&mut buf, checked_count(self.colls.len(), "collection")?);
        for (name, _) in &self.colls {
            put_str(&mut buf, name)?;
            chained(&mut buf, next());
        }
        Ok(buf)
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

    /// Encodes every dirty segment from `graph`, with a node segment's
    /// tallies, growing the layout to the graph's node count first.
    pub(super) fn encode_dirty(&mut self, graph: &Graph) -> Result<Encoded> {
        let members = graph.nodes().len();
        let node_count = checked_count(members, "node")?;
        for i in self.nodes.len()..members.div_ceil(NODE_SEG) {
            self.dirty_nodes.insert(i);
            self.nodes.push(Seg::default());
        }
        let n_colls = checked_count(self.colls.len(), "collection")?;
        let w = ImageWriter::new(graph, &self.syms);
        let mut segs = Vec::with_capacity(self.dirty_segments() as usize);
        let none = Tallies::default;
        if self.dirty_preamble {
            segs.push((0, write_preamble(&self.syms, node_count)?, none()));
        }
        for &i in &self.dirty_nodes {
            let to = ((i + 1) * NODE_SEG).min(members);
            let (bytes, tallies) = w.nodes(i * NODE_SEG, to)?;
            segs.push((1 + i, bytes, tallies));
        }
        let header = 1 + self.nodes.len();
        if self.dirty_coll_header {
            segs.push((header, n_colls.to_le_bytes().to_vec(), none()));
        }
        for &i in &self.dirty_colls {
            segs.push((header + 1 + i, w.collection(&self.colls[i].0)?, none()));
        }
        Ok(Encoded {
            segs,
            node_count,
            sym_count: self.syms.len(),
        })
    }

    /// Writes `blobs[j]` through `pager` as the bytes of the segment
    /// `moved[j]` places (its pages still to be allocated), under a
    /// manifest that has them there and every other segment where it was.
    /// Returns the new placements, for [`SegFile::install`] once the
    /// caller's commit holds.
    fn commit(
        &self,
        pager: &mut Pager,
        moved: Vec<(usize, Seg)>,
        blobs: &[&[u8]],
        freed: Vec<u32>,
        revision: u64,
    ) -> Result<Vec<(usize, Seg)>> {
        let place = |pages: &[Vec<u32>]| -> Vec<(usize, Seg)> {
            (moved.iter().zip(pages))
                .map(|((k, seg), pages)| {
                    let pages = pages.clone();
                    (
                        *k,
                        Seg {
                            pages,
                            ..seg.clone()
                        },
                    )
                })
                .collect()
        };
        let lists =
            pager.commit_segments(blobs, freed, revision, |pages| self.manifest(&place(pages)))?;
        Ok(place(&lists))
    }

    /// Commits `encoded` (from [`SegFile::encode_dirty`]) as `revision`,
    /// copy-on-write: the replaced segments' pages are freed for the
    /// *next* commit, clean segments keep their placement and tallies, and
    /// on success nothing is dirty.
    pub(super) fn write(
        &mut self,
        pager: &mut Pager,
        encoded: Encoded,
        revision: u64,
    ) -> Result<()> {
        let freed: Vec<u32> = (encoded.segs.iter())
            .flat_map(|(k, _, _)| self.seg_mut(*k).pages.clone())
            .collect();
        let moved = (encoded.segs.iter())
            .map(|(k, bytes, tallies)| {
                let (len, tallies) = (bytes.len() as u64, tallies.clone());
                let seg = Seg {
                    len,
                    stamp: revision,
                    pages: Vec::new(),
                    tallies,
                };
                (*k, seg)
            })
            .collect();
        let blobs: Vec<&[u8]> = encoded.segs.iter().map(|(_, b, _)| b.as_slice()).collect();
        let moved = self.commit(pager, moved, &blobs, freed, revision)?;
        let new_pages: u64 = moved.iter().map(|(_, s)| s.pages.len() as u64).sum();
        self.install(moved);
        self.node_count = encoded.node_count;
        self.sym_count = encoded.sym_count;
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
    /// and tallies kept — and returns where each landed.
    pub(super) fn copy_to(
        &self,
        from: &mut Pager,
        to: &mut Pager,
        revision: u64,
    ) -> Result<Vec<(usize, Seg)>> {
        let moved = self.ordered().cloned().enumerate().collect();
        let blobs = (self.ordered())
            .map(|s| from.read_pages(&s.pages))
            .collect::<Result<Vec<_>>>()?;
        let blobs: Vec<&[u8]> = blobs.iter().map(|b| b.as_slice()).collect();
        self.commit(to, moved, &blobs, Vec::new(), revision)
    }
}

/// A node segment's manifest entry — stamp, length, page list, tallies —
/// whose tallies name symbols among the image's `syms` and add up to its
/// edges.
fn node_entry(r: &mut In<'_>, syms: usize) -> Result<Seg> {
    let (stamp, len) = (r.u64()?, r.u64()?);
    let pages = (0..r.count(4)?)
        .map(|_| r.u32())
        .collect::<Result<Vec<_>>>()?;
    let edges = r.u32()?;
    let labels = (0..r.count(8)?)
        .map(|_| Ok((r.u32()?, r.u32()?)))
        .collect::<Result<Vec<_>>>()?;
    if labels.iter().any(|&(sym, _)| sym as usize >= syms) {
        return Err(GraphError::corrupt(
            "node segment tally: symbol index out of range",
        ));
    }
    if labels.iter().map(|&(_, n)| u64::from(n)).sum::<u64>() != u64::from(edges) {
        return Err(GraphError::corrupt(
            "node segment tally: label counts do not add up to its edges",
        ));
    }
    let tallies = Tallies { edges, labels };
    Ok(Seg {
        len,
        stamp,
        pages,
        tallies,
    })
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
#[cfg(test)]
pub(super) fn compose_image(pager: &mut Pager, segs: &Option<SegFile>) -> Result<Vec<u8>> {
    match segs {
        None => Ok(Vec::new()),
        Some(sf) => pager.read_pages(&sf.all_pages()),
    }
}
