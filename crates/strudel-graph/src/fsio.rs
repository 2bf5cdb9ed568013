//! Crash-safe file writes.
//!
//! A file truncated in place (`File::create` + write) is destroyed by a
//! crash mid-write, and a write that "succeeded" without an fsync can
//! still evaporate on power loss. Every whole-file write in the workspace
//! that must survive goes through this module's protocol:
//!
//! 1. write the new contents to a hidden temp file **in the destination's
//!    directory** (same filesystem, so the rename below is atomic),
//! 2. flush and `fsync` the temp file,
//! 3. `rename(2)` it over the destination (atomic replacement: readers see
//!    either the complete old file or the complete new file, never a torn
//!    or empty one),
//! 4. `fsync` the directory, making the rename itself durable.
//!
//! On any error the temp file is removed and the destination is untouched.
//!
//! [`atomic_write_in`] performs steps 1–3 only; callers writing many files
//! into one directory (site publication) use it per file and then issue a
//! single [`fsync_dir`] — per-file atomicity with one directory flush.

use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Distinguishes temp files of concurrent writers in one directory.
static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

fn temp_path_for(dest: &Path) -> io::Result<PathBuf> {
    let name = dest
        .file_name()
        .ok_or_else(|| io::Error::other(format!("{}: not a file path", dest.display())))?
        .to_string_lossy()
        .into_owned();
    let parent = parent_dir(dest);
    Ok(parent.join(format!(
        ".{name}.tmp.{}.{}",
        std::process::id(),
        TMP_SEQ.fetch_add(1, Ordering::Relaxed)
    )))
}

pub(crate) fn parent_dir(dest: &Path) -> PathBuf {
    match dest.parent() {
        Some(p) if !p.as_os_str().is_empty() => p.to_path_buf(),
        _ => PathBuf::from("."),
    }
}

/// Flushes a directory's metadata (new names, renames) to stable storage.
///
/// A no-op error on platforms where directories cannot be opened is
/// swallowed: the write itself already succeeded, and rename atomicity (the
/// crash-*consistency* half of the protocol) does not depend on this.
pub fn fsync_dir(dir: &Path) -> io::Result<()> {
    match File::open(dir) {
        Ok(d) => d.sync_all(),
        Err(_) => Ok(()),
    }
}

/// Flushes a file's data (and the metadata needed to read it back) to
/// stable storage — `fdatasync(2)` semantics via `File::sync_data`. The
/// write-ahead log's commit path uses this instead of `sync_all`: the log
/// grows strictly by appends within a preallocated-or-extended file, so the
/// lighter data sync is a valid durability point.
pub fn sync_file_data(file: &File) -> io::Result<()> {
    file.sync_data()
}

/// Atomically replaces `dest` with whatever `write` produces, with full
/// durability (file fsync, atomic rename, directory fsync).
///
/// `write` receives a buffered writer over the temp file. If it returns an
/// error — including an interrupted/failing underlying writer — the temp
/// file is removed and `dest` is left byte-identical to what it was.
pub fn atomic_write_with<E: From<io::Error>>(
    dest: &Path,
    write: impl FnOnce(&mut BufWriter<File>) -> Result<(), E>,
) -> Result<(), E> {
    let tmp = temp_path_for(dest).map_err(E::from)?;
    let result = write_temp(&tmp, write);
    match result {
        Ok(()) => {}
        Err(e) => {
            let _ = std::fs::remove_file(&tmp);
            return Err(e);
        }
    }
    if let Err(e) = std::fs::rename(&tmp, dest) {
        let _ = std::fs::remove_file(&tmp);
        return Err(E::from(e));
    }
    fsync_dir(&parent_dir(dest)).map_err(E::from)
}

fn write_temp<E: From<io::Error>>(
    tmp: &Path,
    write: impl FnOnce(&mut BufWriter<File>) -> Result<(), E>,
) -> Result<(), E> {
    let file = File::create(tmp).map_err(E::from)?;
    let mut w = BufWriter::new(file);
    write(&mut w)?;
    w.flush().map_err(E::from)?;
    w.get_ref().sync_all().map_err(E::from)
}

/// Atomically replaces `dest` with `bytes` (temp file, fsync, rename,
/// directory fsync).
pub fn atomic_write(dest: &Path, bytes: &[u8]) -> io::Result<()> {
    atomic_write_with::<io::Error>(dest, |w| w.write_all(bytes))
}

/// Atomically replaces `dir/name` with `bytes` **without** the trailing
/// directory fsync. A reader (or a crash) never observes a torn file, but
/// the replacement itself is only durable after a later [`fsync_dir`] on
/// `dir` — the batch-publication pattern.
pub fn atomic_write_in(dir: &Path, name: &str, bytes: &[u8]) -> io::Result<()> {
    let dest = dir.join(name);
    let tmp = temp_path_for(&dest)?;
    if let Err(e) = write_temp::<io::Error>(&tmp, |w| w.write_all(bytes)) {
        let _ = std::fs::remove_file(&tmp);
        return Err(e);
    }
    if let Err(e) = std::fs::rename(&tmp, &dest) {
        let _ = std::fs::remove_file(&tmp);
        return Err(e);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("strudel_fsio_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn atomic_write_replaces_contents() {
        let d = tmpdir("replace");
        let p = d.join("f.bin");
        atomic_write(&p, b"old").unwrap();
        atomic_write(&p, b"new contents").unwrap();
        assert_eq!(std::fs::read(&p).unwrap(), b"new contents");
        std::fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn failed_write_leaves_destination_and_no_litter() {
        let d = tmpdir("fail");
        let p = d.join("f.bin");
        atomic_write(&p, b"the original").unwrap();
        let err = atomic_write_with::<io::Error>(&p, |w| {
            w.write_all(b"partial garbage")?;
            Err(io::Error::other("injected failure"))
        })
        .unwrap_err();
        assert_eq!(err.to_string(), "injected failure");
        assert_eq!(std::fs::read(&p).unwrap(), b"the original");
        // No temp files left behind.
        assert_eq!(std::fs::read_dir(&d).unwrap().count(), 1);
        std::fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn write_in_then_dir_fsync() {
        let d = tmpdir("batch");
        atomic_write_in(&d, "a.html", b"<a>").unwrap();
        atomic_write_in(&d, "b.html", b"<b>").unwrap();
        fsync_dir(&d).unwrap();
        assert_eq!(std::fs::read(d.join("a.html")).unwrap(), b"<a>");
        assert_eq!(std::fs::read(d.join("b.html")).unwrap(), b"<b>");
        std::fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn rejects_pathless_destination() {
        assert!(atomic_write(Path::new("/"), b"x").is_err());
    }
}
