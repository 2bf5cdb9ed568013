//! The write-ahead log: append-only delta frames with commit records,
//! giving the store durable commits without rewriting the page file.
//!
//! ```text
//! header  [magic "STRUWAL2"][base_revision u64][created_at u64][checksum u64]
//! frame   [kind u8][len u32][payload][checksum u64]
//! ```
//!
//! The header's `base_revision` names the page-file revision this log's
//! frames apply on top of; a log whose base does not match the page file
//! is stale (discarded) or impossible (typed recovery error) — see
//! [`crate::store::PagedStore`]. Each frame's checksum covers the base
//! revision, the frame's own byte offset, its kind and its payload, so a
//! frame is only valid in this log, at this position.
//!
//! A transaction is a run of `Delta` frames terminated by a `Commit`
//! frame naming the revision it produces; the commit append is fsynced,
//! which is the durability point. A crash can only ever land before or
//! after a commit record, never inside the transaction it covers.
//! Recovery scans frames until the first invalid one: everything after
//! the last *committed* frame — a torn half-written tail, or deltas whose
//! commit never made it — is truncated away, and the committed prefix is
//! replayed. A log can never replay into a state that was not explicitly
//! committed.
//!
//! The header also records the log's creation time, so `store info` and
//! `/stats` can report how long changes have been accumulating since the
//! last checkpoint (the "WAL age").

use crate::error::{GraphError, Result};
use crate::fsio;
use crate::fxhash::checksum;
use crate::stats::STORAGE;
use std::fs::{File, OpenOptions};
use std::hash::Hasher;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::time::{SystemTime, UNIX_EPOCH};
use strudel_obs::trace;

const MAGIC: &[u8; 8] = b"STRUWAL2";
const HEADER_LEN: u64 = 32;

/// Size in bytes of an empty (header-only) log.
pub const EMPTY_SIZE: u64 = HEADER_LEN;
/// Nonzero seed, distinct from the pager's, so zeroed bytes never validate.
const CHECKSUM_SEED: u64 = 0x5354_5255_5741_4c31;

/// Frame kind: one delta payload within a transaction.
const KIND_DELTA: u8 = 1;
/// Frame kind: commit record; payload is the resulting revision (u64).
const KIND_COMMIT: u8 = 2;

fn header_checksum(base_revision: u64, created_at: u64) -> u64 {
    checksum(CHECKSUM_SEED, |h| {
        h.write(MAGIC);
        h.write_u64(base_revision);
        h.write_u64(created_at);
    })
}

fn unix_now_secs() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0)
}

fn frame_checksum(base_revision: u64, offset: u64, kind: u8, payload: &[u8]) -> u64 {
    checksum(CHECKSUM_SEED, |h| {
        h.write_u64(base_revision);
        h.write_u64(offset);
        h.write_u8(kind);
        h.write_u64(payload.len() as u64);
        h.write(payload);
    })
}

/// One committed transaction replayed from the log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalTxn {
    /// The revision this transaction's commit record names.
    pub revision: u64,
    /// Delta payloads in append order.
    pub deltas: Vec<Vec<u8>>,
}

/// An open write-ahead log positioned at its append end.
pub struct Wal {
    file: File,
    path: PathBuf,
    base_revision: u64,
    created_at: u64,
    /// Next append offset (== current durable-prefix length after open).
    end: u64,
}

impl Wal {
    /// Creates (truncating) a log whose frames apply on top of page-file
    /// revision `base_revision`, and makes the header durable.
    pub fn create(path: &Path, base_revision: u64) -> Result<Self> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        let created_at = unix_now_secs();
        let mut header = Vec::with_capacity(HEADER_LEN as usize);
        header.extend_from_slice(MAGIC);
        header.extend_from_slice(&base_revision.to_le_bytes());
        header.extend_from_slice(&created_at.to_le_bytes());
        header.extend_from_slice(&header_checksum(base_revision, created_at).to_le_bytes());
        file.write_all(&header)?;
        file.sync_all()?;
        STORAGE.wal_fsyncs.inc();
        Ok(Wal {
            file,
            path: path.to_path_buf(),
            base_revision,
            created_at,
            end: HEADER_LEN,
        })
    }

    /// Opens an existing log and replays its committed transactions.
    ///
    /// The returned log is truncated to its last commit record: a torn
    /// tail (first frame that fails validation) and any trailing deltas
    /// whose commit never became durable are cut off and counted. A file
    /// too short to hold a header is treated as empty-from-birth (a crash
    /// during log reset) and recreated at `fallback_base`; a present but
    /// invalid header is typed corruption — committed work might be in it.
    pub fn open(path: &Path, fallback_base: u64) -> Result<(Self, Vec<WalTxn>)> {
        let mut file = OpenOptions::new().read(true).write(true).open(path)?;
        let len = file.metadata()?.len();
        if len < HEADER_LEN {
            drop(file);
            return Ok((Wal::create(path, fallback_base)?, Vec::new()));
        }
        let mut header = [0u8; HEADER_LEN as usize];
        file.seek(SeekFrom::Start(0))?;
        file.read_exact(&mut header)?;
        if &header[0..8] != MAGIC {
            return Err(GraphError::corrupt(format!(
                "{}: bad WAL magic",
                path.display()
            )));
        }
        let base_revision = u64::from_le_bytes(header[8..16].try_into().expect("8 bytes"));
        let created_at = u64::from_le_bytes(header[16..24].try_into().expect("8 bytes"));
        let stored = u64::from_le_bytes(header[24..32].try_into().expect("8 bytes"));
        if stored != header_checksum(base_revision, created_at) {
            return Err(GraphError::corrupt(format!(
                "{}: WAL header checksum mismatch",
                path.display()
            )));
        }
        let mut body = Vec::with_capacity((len - HEADER_LEN) as usize);
        file.read_to_end(&mut body)?;

        let mut txns = Vec::new();
        let mut pending: Vec<Vec<u8>> = Vec::new();
        let mut at = 0usize;
        // Offset (file coordinates) just past the last commit frame.
        let mut committed_end = HEADER_LEN;
        while let Some((kind, payload, next)) = parse_frame(&body, at, base_revision) {
            if kind == KIND_COMMIT {
                let revision = u64::from_le_bytes(payload.try_into().map_err(|_| {
                    GraphError::corrupt("WAL commit frame with malformed revision")
                })?);
                txns.push(WalTxn {
                    revision,
                    deltas: std::mem::take(&mut pending),
                });
                committed_end = HEADER_LEN + next as u64;
            } else {
                pending.push(payload.to_vec());
            }
            at = next;
        }
        if HEADER_LEN + at as u64 != len || !pending.is_empty() {
            // Torn tail or dangling uncommitted deltas: cut back to the
            // committed prefix so future appends extend valid state.
            STORAGE.wal_torn_tails.inc();
            file.set_len(committed_end)?;
            file.sync_all()?;
            STORAGE.wal_fsyncs.inc();
        }
        Ok((
            Wal {
                file,
                path: path.to_path_buf(),
                base_revision,
                created_at,
                end: committed_end,
            },
            txns,
        ))
    }

    /// The page-file revision this log applies on top of.
    pub fn base_revision(&self) -> u64 {
        self.base_revision
    }

    /// Seconds since the log was created (0 if the clock went backwards).
    pub fn age_seconds(&self) -> u64 {
        unix_now_secs().saturating_sub(self.created_at)
    }

    /// Bytes in the durable log (header included).
    pub fn size_bytes(&self) -> u64 {
        self.end
    }

    /// The log's file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    fn append(&mut self, kind: u8, payload: &[u8]) -> Result<()> {
        let mut frame = Vec::with_capacity(13 + payload.len() + 8);
        frame.push(kind);
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(payload);
        frame.extend_from_slice(
            &frame_checksum(self.base_revision, self.end, kind, payload).to_le_bytes(),
        );
        self.file.seek(SeekFrom::Start(self.end))?;
        self.file.write_all(&frame)?;
        self.end += frame.len() as u64;
        STORAGE.wal_appended_frames.inc();
        STORAGE.wal_bytes.add(frame.len() as u64);
        Ok(())
    }

    /// Appends one delta payload (not yet durable — see [`Wal::commit`]).
    pub fn append_delta(&mut self, payload: &[u8]) -> Result<()> {
        self.append(KIND_DELTA, payload)
    }

    /// Appends a commit record naming `revision` and syncs the log's data:
    /// once this returns, the transaction — every delta appended since the
    /// previous commit record — survives any crash. One commit record
    /// covers the whole run of deltas before it, which is what makes a
    /// commit all-or-nothing on disk.
    pub fn commit(&mut self, revision: u64) -> Result<()> {
        let mut tspan = trace::span("store.wal_commit", trace::Layer::Store);
        if tspan.is_live() {
            tspan.attr_u64("rev", revision);
            tspan.attr_u64("wal_bytes", self.end);
        }
        self.append(KIND_COMMIT, &revision.to_le_bytes())?;
        fsio::sync_file_data(&self.file)?;
        STORAGE.wal_commits.inc();
        STORAGE.wal_fsyncs.inc();
        Ok(())
    }
}

/// Parses the frame at `at`; `None` if truncated or checksum-invalid.
fn parse_frame(body: &[u8], at: usize, base_revision: u64) -> Option<(u8, &[u8], usize)> {
    let kind = *body.get(at)?;
    let len_bytes = body.get(at + 1..at + 5)?;
    let len = u32::from_le_bytes(len_bytes.try_into().ok()?) as usize;
    let payload = body.get(at + 5..at + 5 + len)?;
    let sum_bytes = body.get(at + 5 + len..at + 13 + len)?;
    let stored = u64::from_le_bytes(sum_bytes.try_into().ok()?);
    if stored != frame_checksum(base_revision, HEADER_LEN + at as u64, kind, payload) {
        return None;
    }
    Some((kind, payload, at + 13 + len))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("strudel_wal_{tag}_{}.wal", std::process::id()))
    }

    #[test]
    fn committed_txns_replay_in_order() {
        let p = tmp("replay");
        {
            let mut wal = Wal::create(&p, 3).unwrap();
            wal.append_delta(b"alpha").unwrap();
            wal.append_delta(b"beta").unwrap();
            wal.commit(4).unwrap();
            wal.append_delta(b"gamma").unwrap();
            wal.commit(5).unwrap();
        }
        let (wal, txns) = Wal::open(&p, 0).unwrap();
        assert_eq!(wal.base_revision(), 3);
        assert_eq!(
            txns,
            vec![
                WalTxn {
                    revision: 4,
                    deltas: vec![b"alpha".to_vec(), b"beta".to_vec()]
                },
                WalTxn {
                    revision: 5,
                    deltas: vec![b"gamma".to_vec()]
                },
            ]
        );
        std::fs::remove_file(&p).unwrap();
    }

    #[test]
    fn torn_tail_is_truncated_to_last_commit() {
        let p = tmp("torn");
        {
            let mut wal = Wal::create(&p, 0).unwrap();
            wal.append_delta(b"kept").unwrap();
            wal.commit(1).unwrap();
            wal.append_delta(b"doomed: commit never lands").unwrap();
        }
        let committed = {
            let (wal, txns) = Wal::open(&p, 0).unwrap();
            assert_eq!(txns.len(), 1);
            assert_eq!(txns[0].deltas, vec![b"kept".to_vec()]);
            wal.size_bytes()
        };
        // The dangling delta is gone from disk; reopening is clean and
        // appending continues from the committed prefix.
        assert_eq!(std::fs::metadata(&p).unwrap().len(), committed);
        let (mut wal, txns) = Wal::open(&p, 0).unwrap();
        assert_eq!(txns.len(), 1);
        wal.append_delta(b"later").unwrap();
        wal.commit(2).unwrap();
        let (_, txns) = Wal::open(&p, 0).unwrap();
        assert_eq!(txns.len(), 2);
        std::fs::remove_file(&p).unwrap();
    }

    #[test]
    fn bit_flip_in_tail_loses_only_the_tail() {
        let p = tmp("flip");
        {
            let mut wal = Wal::create(&p, 0).unwrap();
            wal.append_delta(b"first").unwrap();
            wal.commit(1).unwrap();
            wal.append_delta(b"second").unwrap();
            wal.commit(2).unwrap();
        }
        let mut bytes = std::fs::read(&p).unwrap();
        let n = bytes.len();
        bytes[n - 4] ^= 0x10; // inside the final commit frame
        std::fs::write(&p, &bytes).unwrap();
        let (_, txns) = Wal::open(&p, 0).unwrap();
        assert_eq!(txns.len(), 1);
        assert_eq!(txns[0].revision, 1);
        std::fs::remove_file(&p).unwrap();
    }

    #[test]
    fn short_file_is_recreated_at_fallback_base() {
        let p = tmp("short");
        std::fs::write(&p, b"tiny").unwrap();
        let (wal, txns) = Wal::open(&p, 9).unwrap();
        assert!(txns.is_empty());
        assert_eq!(wal.base_revision(), 9);
        std::fs::remove_file(&p).unwrap();
    }

    #[test]
    fn creation_time_survives_reopen() {
        let p = tmp("age");
        let created = {
            let mut wal = Wal::create(&p, 0).unwrap();
            assert!(wal.created_at > 0);
            wal.append_delta(b"x").unwrap();
            wal.commit(1).unwrap();
            wal.created_at
        };
        let (wal, _) = Wal::open(&p, 0).unwrap();
        assert_eq!(wal.created_at, created);
        assert!(wal.age_seconds() < 3600, "age must be measured from now");
        std::fs::remove_file(&p).unwrap();
    }

    #[test]
    fn corrupt_header_is_typed() {
        let p = tmp("hdr");
        {
            let mut wal = Wal::create(&p, 0).unwrap();
            wal.append_delta(b"x").unwrap();
            wal.commit(1).unwrap();
        }
        let mut bytes = std::fs::read(&p).unwrap();
        bytes[10] ^= 0xFF; // base_revision byte: header checksum now fails
        std::fs::write(&p, &bytes).unwrap();
        assert!(matches!(
            Wal::open(&p, 0),
            Err(GraphError::StorageCorrupt { .. })
        ));
        std::fs::remove_file(&p).unwrap();
    }
}
