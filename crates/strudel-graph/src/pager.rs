//! The page file: fixed-size checksummed pages under a double-buffered
//! header, the bottom layer of the persistent store.
//!
//! ```text
//! page 0   header slot A ┐  the two slots alternate: a commit writes the
//! page 1   header slot B ┘  *older* slot, so the newer one stays intact
//! page 2.. data pages (4 KiB): [checksum][next][len][kind] + payload
//! ```
//!
//! A committed **revision** is rooted in a header slot: the header's root
//! chain (each page names its successor) plus any number of auxiliary
//! *blob* chains the root's contents point at — the store keeps its
//! checkpoint manifest in the root chain and one blob chain per graph
//! segment, so an incremental checkpoint rewrites only the chains whose
//! segment changed ([`Pager::commit_segments`]). Commits are copy-on-write:
//! new chains are written only into pages referenced by *neither* valid
//! header (the in-header freelist plus file growth), then the older header
//! slot is rewritten to describe the new revision. If the header write
//! tears, the untouched newer slot still describes the previous revision —
//! opening picks the valid slot with the highest revision, so a crash at
//! any byte leaves a loadable store, and pages shared with the previous
//! revision are never touched.
//!
//! Every page carries a checksum over its own number, link, length, kind
//! and payload; a bit flip anywhere in live data fails validation with a
//! typed [`GraphError::StorageCorrupt`] instead of loading a wrong graph.
//! The freelist lives entirely *inside* the header page (up to
//! [`FREE_CAP`] entries), so freeing pages never mutates the pages
//! themselves before the header flip. Overflowing entries are counted as
//! leaked and reclaimed by [`crate::store::PagedStore::compact`].

use crate::error::{GraphError, Result};
use crate::fxhash::{checksum, FxHashMap};
use crate::stats::STORAGE;
use std::collections::VecDeque;
use std::fs::{File, OpenOptions};
use std::hash::Hasher;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Size of every page in the file, headers included.
pub const PAGE_SIZE: usize = 4096;
/// Bytes of payload a data page carries after its 16-byte header.
pub const PAGE_PAYLOAD: usize = PAGE_SIZE - 16;
/// Free-page entries a header slot can track; the rest leak until compact.
pub const FREE_CAP: usize = (PAGE_SIZE - HEADER_FIXED - 8) / 4;

const MAGIC: &[u8; 8] = b"STRUPGD1";
/// Format version 2: the root chain may be a segment manifest whose
/// entries name blob chains elsewhere in the file (incremental
/// checkpoints). Version-1 files (single flat chain) are not migrated.
const VERSION: u32 = 2;
/// Page-cache capacity, in pages.
const CACHE_PAGES: usize = 1024;
/// Fixed header-slot fields before the freelist entries.
const HEADER_FIXED: usize = 56;
/// Page kind tag for snapshot-chain pages.
const KIND_SNAP: u8 = 1;
/// Nonzero seed so an all-zero page never validates against checksum 0.
const CHECKSUM_SEED: u64 = 0x5354_5255_4447_4531;

fn fx(parts: &[&[u8]]) -> u64 {
    checksum(CHECKSUM_SEED, |h| {
        for p in parts {
            h.write_u64(p.len() as u64);
            h.write(p);
        }
    })
}

/// The committed state a header slot describes.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct HeaderState {
    revision: u64,
    root_page: u32,
    root_pages: u32,
    root_bytes: u64,
    page_count: u32,
    leaked: u64,
    free: Vec<u32>,
}

fn encode_header(slot: u32, s: &HeaderState) -> Vec<u8> {
    let mut buf = vec![0u8; PAGE_SIZE];
    buf[0..8].copy_from_slice(MAGIC);
    buf[8..12].copy_from_slice(&VERSION.to_le_bytes());
    buf[12..16].copy_from_slice(&(PAGE_SIZE as u32).to_le_bytes());
    buf[16..24].copy_from_slice(&s.revision.to_le_bytes());
    buf[24..28].copy_from_slice(&s.root_page.to_le_bytes());
    buf[28..32].copy_from_slice(&s.root_pages.to_le_bytes());
    buf[32..40].copy_from_slice(&s.root_bytes.to_le_bytes());
    buf[40..44].copy_from_slice(&s.page_count.to_le_bytes());
    buf[44..48].copy_from_slice(&(s.free.len() as u32).to_le_bytes());
    buf[48..56].copy_from_slice(&s.leaked.to_le_bytes());
    for (i, &p) in s.free.iter().enumerate() {
        let at = HEADER_FIXED + i * 4;
        buf[at..at + 4].copy_from_slice(&p.to_le_bytes());
    }
    let sum = fx(&[&slot.to_le_bytes(), &buf[..PAGE_SIZE - 8]]);
    buf[PAGE_SIZE - 8..].copy_from_slice(&sum.to_le_bytes());
    buf
}

fn decode_header(slot: u32, buf: &[u8], file_len: u64) -> Result<HeaderState> {
    let err = |m: &str| GraphError::corrupt(format!("header slot {slot}: {m}"));
    if buf.len() != PAGE_SIZE {
        return Err(err("short read"));
    }
    let stored = u64::from_le_bytes(buf[PAGE_SIZE - 8..].try_into().expect("8 bytes"));
    if fx(&[&slot.to_le_bytes(), &buf[..PAGE_SIZE - 8]]) != stored {
        return Err(err("checksum mismatch"));
    }
    if &buf[0..8] != MAGIC {
        return Err(err("bad magic"));
    }
    let u32_at = |at: usize| u32::from_le_bytes(buf[at..at + 4].try_into().expect("4 bytes"));
    let u64_at = |at: usize| u64::from_le_bytes(buf[at..at + 8].try_into().expect("8 bytes"));
    if u32_at(8) != VERSION {
        return Err(err("unsupported version"));
    }
    if u32_at(12) as usize != PAGE_SIZE {
        return Err(err("unsupported page size"));
    }
    // Before the entries are read: the checksum is not a MAC, and a count
    // past the capacity would index past the slot.
    let free_len = u32_at(44) as usize;
    if free_len > FREE_CAP {
        return Err(err("freelist count out of range"));
    }
    let s = HeaderState {
        revision: u64_at(16),
        root_page: u32_at(24),
        root_pages: u32_at(28),
        root_bytes: u64_at(32),
        page_count: u32_at(40),
        leaked: u64_at(48),
        free: (0..free_len)
            .map(|i| u32_at(HEADER_FIXED + i * 4))
            .collect(),
    };
    if s.page_count < 2 || (s.page_count as u64) * (PAGE_SIZE as u64) > file_len {
        return Err(err("page count exceeds file"));
    }
    let in_range = |p: u32| (2..s.page_count).contains(&p);
    if (s.root_pages == 0) != (s.root_page == 0) {
        return Err(err("inconsistent empty root"));
    }
    if s.root_page != 0 && !in_range(s.root_page) {
        return Err(err("root page out of range"));
    }
    if s.free.iter().any(|&p| !in_range(p)) {
        return Err(err("free page out of range"));
    }
    Ok(s)
}

/// The pager: page-granular reads and copy-on-write chain commits over one
/// page file, with an in-memory page cache.
pub struct Pager {
    file: Arc<File>,
    path: PathBuf,
    state: HeaderState,
    /// The slot describing `state`; commits write the other one.
    active_slot: u32,
    /// Page ids of the committed root chain, in order, and its bytes (the
    /// store's manifest: a few dozen bytes per segment).
    chain: Vec<u32>,
    root: Vec<u8>,
    cache: PageCache,
}

/// A read handle on a page file that outlives the borrow of its [`Pager`]:
/// positioned reads of the pages committed when it was taken, no seek and
/// no cache, so its holders read beside the pager's own reads and writes.
/// A page the pager frees stays as it was until a later commit reuses it.
#[derive(Clone)]
pub(crate) struct PageReader {
    file: Arc<File>,
    page_count: u32,
}

impl PageReader {
    /// Reads page `page` into `buf`, which is `PAGE_SIZE` long.
    pub(crate) fn read_page(&self, page: u32, buf: &mut [u8]) -> Result<()> {
        if !(2..self.page_count).contains(&page) {
            return Err(GraphError::corrupt(format!("page {page} out of range")));
        }
        STORAGE.page_reads.inc();
        read_at(&self.file, page as u64 * PAGE_SIZE as u64, buf)
    }

    /// Reads the chain made of `pages`, in order, appending its payload to
    /// `out`: each page is checked as it is read — checksum, and a link to
    /// the next page of the list (none after the last) — and the payloads
    /// must add up to `want_bytes` exactly.
    pub(crate) fn read_chain(
        &self,
        pages: &[u32],
        want_bytes: u64,
        out: &mut Vec<u8>,
    ) -> Result<()> {
        let start = out.len();
        let mut buf = vec![0u8; PAGE_SIZE];
        for (i, &page) in pages.iter().enumerate() {
            self.read_page(page, &mut buf)?;
            let (next, payload) = check_page(page, &buf)?;
            if next != pages.get(i + 1).copied().unwrap_or(0) {
                return Err(GraphError::corrupt(format!(
                    "page {page}: links to page {next}, not the next page of its chain"
                )));
            }
            out.extend_from_slice(payload);
        }
        let bytes = (out.len() - start) as u64;
        if bytes != want_bytes {
            return Err(GraphError::corrupt(format!(
                "page chain mismatch: {bytes} bytes on disk, declared {want_bytes}"
            )));
        }
        Ok(())
    }
}

/// Bounded FIFO page cache (raw page bytes, checked each time they are read).
struct PageCache {
    map: FxHashMap<u32, Box<[u8]>>,
    order: VecDeque<u32>,
    cap: usize,
}

impl PageCache {
    fn new(cap: usize) -> Self {
        PageCache {
            map: FxHashMap::default(),
            order: VecDeque::new(),
            cap: cap.max(8),
        }
    }

    fn get(&self, page: u32) -> Option<&[u8]> {
        self.map.get(&page).map(|b| &b[..])
    }

    fn put(&mut self, page: u32, bytes: Box<[u8]>) {
        while self.map.len() >= self.cap {
            match self.order.pop_front() {
                Some(old) => {
                    self.map.remove(&old);
                    STORAGE.page_cache_evictions.inc();
                }
                None => break,
            }
        }
        if self.map.insert(page, bytes).is_none() {
            self.order.push_back(page);
        }
    }
}

impl std::fmt::Debug for Pager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pager")
            .field("path", &self.path)
            .field("revision", &self.state.revision)
            .finish_non_exhaustive()
    }
}

impl Pager {
    /// Creates a fresh page file at `path` (truncating any existing one):
    /// two valid header slots describing the empty revision 0.
    pub fn create(path: &Path) -> Result<Self> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        let state = HeaderState {
            page_count: 2,
            ..HeaderState::default()
        };
        for slot in [0u32, 1] {
            file.write_all_at(&encode_header(slot, &state), slot as u64 * PAGE_SIZE as u64)?;
            STORAGE.page_writes.inc();
        }
        file.sync_all()?;
        Ok(Pager {
            file: Arc::new(file),
            path: path.to_path_buf(),
            state,
            active_slot: 0,
            chain: Vec::new(),
            root: Vec::new(),
            cache: PageCache::new(CACHE_PAGES),
        })
    }

    /// Opens an existing page file, validating both header slots and
    /// selecting the valid one with the highest revision.
    pub fn open(path: &Path) -> Result<Self> {
        let file = OpenOptions::new().read(true).write(true).open(path)?;
        let file_len = file.metadata()?.len();
        let mut chosen: Option<(u32, HeaderState)> = None;
        let mut errors = Vec::new();
        let mut buf = vec![0u8; PAGE_SIZE];
        for slot in [0u32, 1] {
            let read = read_at(&file, slot as u64 * PAGE_SIZE as u64, &mut buf);
            STORAGE.page_reads.inc();
            let parsed = match read {
                Ok(()) => decode_header(slot, &buf, file_len),
                Err(e) => Err(e),
            };
            match parsed {
                Ok(s) => {
                    if chosen.as_ref().is_none_or(|(_, c)| s.revision > c.revision) {
                        chosen = Some((slot, s));
                    }
                }
                Err(e) => errors.push(e.to_string()),
            }
        }
        let (active_slot, state) = chosen.ok_or_else(|| {
            GraphError::corrupt(format!(
                "{}: no valid header slot ({})",
                path.display(),
                errors.join("; ")
            ))
        })?;
        let mut pager = Pager {
            file: Arc::new(file),
            path: path.to_path_buf(),
            state,
            active_slot,
            chain: Vec::new(),
            root: Vec::new(),
            cache: PageCache::new(CACHE_PAGES),
        };
        let state = &pager.state;
        let (first, pages, bytes) = (state.root_page, state.root_pages, state.root_bytes);
        let mut root = Vec::new();
        pager.chain = pager.walk_blob(first, pages, bytes, &mut root)?;
        pager.root = root;
        Ok(pager)
    }

    /// The committed revision number.
    pub fn revision(&self) -> u64 {
        self.state.revision
    }

    /// Total pages in the file (header slots included).
    pub fn page_count(&self) -> u32 {
        self.state.page_count
    }

    /// Pages in the committed snapshot chain.
    pub fn chain_len(&self) -> usize {
        self.chain.len()
    }

    /// Free pages tracked in the header, available to the next commit.
    pub fn free_len(&self) -> usize {
        self.state.free.len()
    }

    /// Pages lost to freelist overflow since creation (compact reclaims).
    pub fn leaked(&self) -> u64 {
        self.state.leaked
    }

    /// The file path this pager writes.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// A read handle on the pages committed so far (see [`PageReader`]).
    pub(crate) fn reader(&self) -> PageReader {
        PageReader {
            file: Arc::clone(&self.file),
            page_count: self.state.page_count,
        }
    }

    /// Reads page `page` from the file into `buf`, which is `PAGE_SIZE`
    /// long: a positioned read, which moves no file offset.
    fn read_page(&self, page: u32, buf: &mut [u8]) -> Result<()> {
        self.reader().read_page(page, buf)
    }

    /// Page `page` through the page cache, checked on the bytes it got,
    /// cached or read: its successor and its payload.
    fn cached_page(&mut self, page: u32) -> Result<(u32, &[u8])> {
        if self.cache.get(page).is_some() {
            STORAGE.page_cache_hits.inc();
        } else {
            STORAGE.page_cache_misses.inc();
            let mut buf = vec![0u8; PAGE_SIZE].into_boxed_slice();
            self.read_page(page, &mut buf)?;
            self.cache.put(page, buf);
        }
        check_page(page, self.cache.get(page).expect("present or put above"))
    }

    /// Walks the chain starting at `first` through the page cache — each
    /// page validated as read, so that a later [`Pager::read_pages`] of the
    /// same chain finds it there — appending the payloads to `out` and
    /// returning the page ids. The declared page and byte totals (from the
    /// header for the root chain, from a manifest entry for a segment
    /// blob) must match the chain on disk exactly.
    pub fn walk_blob(
        &mut self,
        first: u32,
        want_pages: u32,
        want_bytes: u64,
        out: &mut Vec<u8>,
    ) -> Result<Vec<u32>> {
        let mut page = first;
        // The declared count is only a hint until the chain confirms it.
        let mut pages = Vec::with_capacity(want_pages.min(self.state.page_count) as usize);
        let start = out.len();
        while page != 0 {
            if pages.len() >= want_pages as usize {
                return Err(GraphError::corrupt("page chain longer than declared"));
            }
            let (next, payload) = self.cached_page(page)?;
            out.extend_from_slice(payload);
            pages.push(page);
            page = next;
        }
        let bytes = (out.len() - start) as u64;
        if pages.len() != want_pages as usize || bytes != want_bytes {
            return Err(GraphError::corrupt(format!(
                "page chain mismatch: {} pages / {} bytes on disk, declared {} / {}",
                pages.len(),
                bytes,
                want_pages,
                want_bytes
            )));
        }
        Ok(pages)
    }

    /// The committed revision's root-chain bytes (kept since the open or
    /// the commit that made them current).
    pub fn read_chain(&self) -> &[u8] {
        &self.root
    }

    /// Reads and concatenates the payloads of `pages` (a chain's page ids
    /// in order) through the page cache, validating each page's checksum
    /// on the bytes it got, cached or read.
    pub fn read_pages(&mut self, pages: &[u32]) -> Result<Vec<u8>> {
        let mut out = Vec::with_capacity(pages.len() * PAGE_PAYLOAD);
        for &page in pages {
            out.extend_from_slice(self.cached_page(page)?.1);
        }
        Ok(out)
    }

    /// Writes `bytes` as a linked chain over the pre-allocated `pages`.
    fn write_chain(&mut self, bytes: &[u8], pages: &[u32]) -> Result<()> {
        debug_assert_eq!(pages.len(), bytes.len().div_ceil(PAGE_PAYLOAD));
        for (i, chunk) in bytes.chunks(PAGE_PAYLOAD).enumerate() {
            let page = pages[i];
            let next = pages.get(i + 1).copied().unwrap_or(0);
            let mut buf = vec![0u8; PAGE_SIZE];
            let sum = fx(&[
                &page.to_le_bytes(),
                &next.to_le_bytes(),
                &[KIND_SNAP],
                chunk,
            ]);
            buf[0..8].copy_from_slice(&sum.to_le_bytes());
            buf[8..12].copy_from_slice(&next.to_le_bytes());
            buf[12..14].copy_from_slice(&(chunk.len() as u16).to_le_bytes());
            buf[14] = KIND_SNAP;
            buf[16..16 + chunk.len()].copy_from_slice(chunk);
            self.file
                .write_all_at(&buf, page as u64 * PAGE_SIZE as u64)?;
            STORAGE.page_writes.inc();
            self.cache.put(page, buf.into_boxed_slice());
        }
        Ok(())
    }

    /// Commits `bytes` as revision `revision` in a single root chain:
    /// [`Pager::commit_segments`] with no blobs.
    #[cfg(test)]
    fn commit_chain(&mut self, bytes: &[u8], revision: u64) -> Result<()> {
        self.commit_segments(&[], Vec::new(), revision, |_| Ok(bytes.to_vec()))?;
        Ok(())
    }

    /// Commits revision `revision` as a set of blob chains plus a root
    /// chain, copy-on-write: every new chain goes into pages referenced by
    /// neither valid header (freelist, then file growth), the data is
    /// fsynced, then the older header slot flips to the new root.
    ///
    /// `blobs` are written first and their allocated page ids handed to
    /// `root`, which builds the root-chain bytes (the store's manifest)
    /// from them — or fails, before anything is written. `freed` lists pages of the *previous* revision the
    /// caller no longer references (replaced segments); together with the
    /// replaced root chain they fund the commit after this one — they are
    /// never written during *this* commit, so the previous revision stays
    /// intact on disk until the header flip makes the new one durable.
    /// Pages of untouched blobs are shared between the two revisions.
    ///
    /// Returns the page ids allocated to each blob, parallel to `blobs`.
    pub fn commit_segments(
        &mut self,
        blobs: &[&[u8]],
        freed: Vec<u32>,
        revision: u64,
        root: impl FnOnce(&[Vec<u32>]) -> Result<Vec<u8>>,
    ) -> Result<Vec<Vec<u32>>> {
        let mut pool = self.state.free.clone();
        let mut page_count = self.state.page_count;
        let mut alloc = |n: usize| -> Vec<u32> {
            (0..n)
                .map(|_| {
                    pool.pop().unwrap_or_else(|| {
                        let p = page_count;
                        page_count += 1;
                        p
                    })
                })
                .collect()
        };
        let blob_pages: Vec<Vec<u32>> = blobs
            .iter()
            .map(|b| alloc(b.len().div_ceil(PAGE_PAYLOAD)))
            .collect();
        let root_bytes = root(&blob_pages)?;
        let root_pages = alloc(root_bytes.len().div_ceil(PAGE_PAYLOAD));
        // Grow the file up front so page writes never extend past EOF
        // implicitly (and a short file can never validate as a header).
        if page_count > self.state.page_count {
            self.file.set_len(page_count as u64 * PAGE_SIZE as u64)?;
        }
        for (bytes, pages) in blobs.iter().zip(&blob_pages) {
            let pages = pages.clone();
            self.write_chain(bytes, &pages)?;
        }
        {
            let pages = root_pages.clone();
            self.write_chain(&root_bytes, &pages)?;
        }
        if !root_pages.is_empty() || blob_pages.iter().any(|p| !p.is_empty()) {
            self.file.sync_all()?;
        }
        // The replaced root chain and the caller's replaced blob pages are
        // free for the commit after this one; any entries past the
        // header's capacity are leaked until compaction.
        let mut free = pool;
        free.extend_from_slice(&self.chain);
        free.extend(freed);
        let mut leaked = self.state.leaked;
        if free.len() > FREE_CAP {
            let overflow = (free.len() - FREE_CAP) as u64;
            leaked += overflow;
            STORAGE.pages_leaked.add(overflow);
            free.truncate(FREE_CAP);
        }
        let new_state = HeaderState {
            revision,
            root_page: root_pages.first().copied().unwrap_or(0),
            root_pages: root_pages.len() as u32,
            root_bytes: root_bytes.len() as u64,
            page_count,
            leaked,
            free,
        };
        let slot = 1 - self.active_slot;
        let header = encode_header(slot, &new_state);
        self.file
            .write_all_at(&header, slot as u64 * PAGE_SIZE as u64)?;
        STORAGE.page_writes.inc();
        self.file.sync_all()?;
        self.state = new_state;
        self.active_slot = slot;
        self.chain = root_pages;
        self.root = root_bytes;
        Ok(blob_pages)
    }
}

/// Validates a data page's bytes against its own number — checksum over
/// number, link, kind and payload; length and kind in range — and returns
/// its successor and payload.
fn check_page(page: u32, buf: &[u8]) -> Result<(u32, &[u8])> {
    let stored = u64::from_le_bytes(buf[0..8].try_into().expect("8 bytes"));
    let next = u32::from_le_bytes(buf[8..12].try_into().expect("4 bytes"));
    let len = u16::from_le_bytes(buf[12..14].try_into().expect("2 bytes")) as usize;
    let kind = buf[14];
    if len > PAGE_PAYLOAD {
        return Err(GraphError::corrupt(format!(
            "page {page}: length out of range"
        )));
    }
    let payload = &buf[16..16 + len];
    let sum = fx(&[&page.to_le_bytes(), &next.to_le_bytes(), &[kind], payload]);
    if sum != stored {
        return Err(GraphError::corrupt(format!(
            "page {page}: checksum mismatch"
        )));
    }
    if kind != KIND_SNAP {
        return Err(GraphError::corrupt(format!(
            "page {page}: unexpected kind {kind}"
        )));
    }
    Ok((next, payload))
}

/// Fills `buf` from `offset`. A file that ends first is a corrupt (short)
/// file; any other failure is the operating system's, and says nothing
/// about the bytes.
fn read_at(file: &File, offset: u64, buf: &mut [u8]) -> Result<()> {
    file.read_exact_at(buf, offset).map_err(|e| match e.kind() {
        std::io::ErrorKind::UnexpectedEof => {
            GraphError::corrupt(format!("short read at {offset}: {e}"))
        }
        _ => e.into(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("strudel_pager_{tag}_{}.pdb", std::process::id()))
    }

    #[test]
    fn create_open_empty() {
        let p = tmp("empty");
        Pager::create(&p).unwrap();
        let pager = Pager::open(&p).unwrap();
        assert_eq!(pager.revision(), 0);
        assert_eq!(pager.read_chain(), &[] as &[u8]);
        std::fs::remove_file(&p).unwrap();
    }

    #[test]
    fn commit_and_reopen_roundtrips_bytes() {
        let p = tmp("roundtrip");
        let payload: Vec<u8> = (0..10_000u32).flat_map(|i| i.to_le_bytes()).collect();
        {
            let mut pager = Pager::create(&p).unwrap();
            pager.commit_chain(&payload, 1).unwrap();
            assert_eq!(pager.read_chain(), payload);
        }
        let pager = Pager::open(&p).unwrap();
        assert_eq!(pager.revision(), 1);
        assert_eq!(pager.read_chain(), payload);
        std::fs::remove_file(&p).unwrap();
    }

    #[test]
    fn cow_commit_reuses_freed_pages() {
        let p = tmp("cow");
        let mut pager = Pager::create(&p).unwrap();
        let big = vec![7u8; PAGE_PAYLOAD * 3 + 5];
        pager.commit_chain(&big, 1).unwrap();
        let count_after_first = pager.page_count();
        // Several same-size commits: the file stops growing once the
        // freelist can satisfy allocations.
        for rev in 2..8 {
            pager.commit_chain(&big, rev).unwrap();
        }
        assert!(
            pager.page_count() <= count_after_first + 4,
            "file kept growing"
        );
        let reopened = Pager::open(&p).unwrap();
        assert_eq!(reopened.revision(), 7);
        assert_eq!(reopened.read_chain(), big);
        std::fs::remove_file(&p).unwrap();
    }

    #[test]
    fn torn_header_falls_back_to_other_slot() {
        let p = tmp("torn");
        let mut pager = Pager::create(&p).unwrap();
        pager.commit_chain(b"revision one", 1).unwrap();
        pager.commit_chain(b"revision two", 2).unwrap();
        // Find which slot holds revision 2 and corrupt it mid-page,
        // simulating a torn header write.
        let mut bytes = std::fs::read(&p).unwrap();
        let rev_at = |b: &[u8], slot: usize| {
            u64::from_le_bytes(
                b[slot * PAGE_SIZE + 16..slot * PAGE_SIZE + 24]
                    .try_into()
                    .unwrap(),
            )
        };
        let slot = if rev_at(&bytes, 0) == 2 { 0 } else { 1 };
        for i in 0..64 {
            bytes[slot * PAGE_SIZE + 100 + i] ^= 0xFF;
        }
        std::fs::write(&p, &bytes).unwrap();
        let reopened = Pager::open(&p).unwrap();
        assert_eq!(reopened.revision(), 1);
        assert_eq!(reopened.read_chain(), b"revision one");
        std::fs::remove_file(&p).unwrap();
    }

    #[test]
    fn oversized_freelist_count_is_corruption_not_a_panic() {
        // The checksum is not a MAC: a writer bug or a crafted file can
        // produce a slot that validates and claims more free entries than
        // a slot can hold. Reading them used to index past the page.
        let p = tmp("freecount");
        let mut pager = Pager::create(&p).unwrap();
        pager.commit_chain(b"revision one", 1).unwrap();
        pager.commit_chain(b"revision two", 2).unwrap();
        let (newer, state) = (pager.active_slot, pager.state.clone());
        drop(pager);
        let crafted = |slot: u32| {
            let mut buf = encode_header(slot, &state);
            buf[44..48].copy_from_slice(&2_000u32.to_le_bytes());
            let sum = fx(&[&slot.to_le_bytes(), &buf[..PAGE_SIZE - 8]]);
            buf[PAGE_SIZE - 8..].copy_from_slice(&sum.to_le_bytes());
            buf
        };
        let err = decode_header(newer, &crafted(newer), u64::MAX).unwrap_err();
        assert!(matches!(err, GraphError::StorageCorrupt { .. }), "{err}");
        // On disk: the other slot, still valid, is chosen…
        let mut bytes = std::fs::read(&p).unwrap();
        let at = |slot: u32| slot as usize * PAGE_SIZE..(slot as usize + 1) * PAGE_SIZE;
        bytes[at(newer)].copy_from_slice(&crafted(newer));
        std::fs::write(&p, &bytes).unwrap();
        let reopened = Pager::open(&p).unwrap();
        assert_eq!(
            (reopened.revision(), reopened.read_chain()),
            (1, &b"revision one"[..])
        );
        // …and with both slots like that the open fails typed.
        bytes[at(1 - newer)].copy_from_slice(&crafted(1 - newer));
        std::fs::write(&p, &bytes).unwrap();
        let err = Pager::open(&p).unwrap_err();
        assert!(matches!(err, GraphError::StorageCorrupt { .. }), "{err}");
        std::fs::remove_file(&p).unwrap();
    }

    #[test]
    fn a_short_file_is_corrupt_and_a_failed_read_is_not() {
        // Only a file that ends early says anything about the bytes; any
        // other read failure is the operating system's (`Storage`).
        let p = tmp("readat");
        std::fs::write(&p, [0u8; 100]).unwrap();
        let file = File::open(&p).unwrap();
        let mut buf = [0u8; PAGE_SIZE];
        let err = read_at(&file, 0, &mut buf).unwrap_err();
        assert!(matches!(err, GraphError::StorageCorrupt { .. }), "{err}");
        std::fs::remove_file(&p).unwrap();
        // A directory opens for reading and refuses to be read (EISDIR).
        let dir = File::open(std::env::temp_dir()).unwrap();
        let err = read_at(&dir, 0, &mut buf).unwrap_err();
        assert!(matches!(err, GraphError::Storage { .. }), "{err}");
    }

    #[test]
    fn flipped_data_page_is_typed_corruption() {
        let p = tmp("flip");
        let mut pager = Pager::create(&p).unwrap();
        pager.commit_chain(&vec![9u8; 5000], 1).unwrap();
        drop(pager);
        let mut bytes = std::fs::read(&p).unwrap();
        // Flip a payload byte in the first data page (page 2).
        bytes[2 * PAGE_SIZE + 100] ^= 0x01;
        std::fs::write(&p, &bytes).unwrap();
        let err = Pager::open(&p).unwrap_err();
        assert!(matches!(err, GraphError::StorageCorrupt { .. }), "{err}");
        std::fs::remove_file(&p).unwrap();
    }

    #[test]
    fn both_headers_corrupt_is_an_error() {
        let p = tmp("bothbad");
        Pager::create(&p).unwrap();
        let mut bytes = std::fs::read(&p).unwrap();
        bytes[20] ^= 0xFF;
        bytes[PAGE_SIZE + 20] ^= 0xFF;
        std::fs::write(&p, &bytes).unwrap();
        assert!(matches!(
            Pager::open(&p),
            Err(GraphError::StorageCorrupt { .. })
        ));
        std::fs::remove_file(&p).unwrap();
    }
}
