//! Fault-injection tests for the paged store: simulated crashes (WAL
//! truncation at every byte), media corruption (bit flips in the page file
//! and the log), a compaction that fails on a corrupt page, the automatic
//! checkpoint, and graphs filled by `materialize_into` holding their
//! revision across later commits, checkpoints and compactions.
//!
//! The invariant under test is the storage contract from `docs/STORAGE.md`:
//! after any single fault, reopening the store either restores exactly the
//! last durably committed revision (byte-identical graph serialization) or
//! fails with a typed `StorageCorrupt` / `StorageRecovery` error — it never
//! silently serves a wrong graph.

use std::fs;
use std::path::{Path, PathBuf};

use strudel_graph::error::GraphError;
use strudel_graph::pager::{Pager, PAGE_SIZE};
use strudel_graph::store::{wal_path, DeltaOp, PagedStore, WireValue, WAL_LIMIT};
use strudel_graph::wal::Wal;
use strudel_graph::{ddl, wal, Graph};

/// A per-test scratch directory, removed on drop.
struct Scratch {
    dir: PathBuf,
}

impl Scratch {
    fn new(name: &str) -> Self {
        let dir =
            std::env::temp_dir().join(format!("strudel_recovery_{name}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        Scratch { dir }
    }

    fn path(&self, name: &str) -> PathBuf {
        self.dir.join(name)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.dir);
    }
}

fn sample() -> Graph {
    ddl::parse(
        r#"
collection Publications { homepage url }
object pub1 in Publications {
  title "Specifying Representations"
  year  1997
  next  &pub2
}
object pub2 in Publications {
  title "Optimizing"
  next  &pub1
}
"#,
    )
    .unwrap()
}

/// Builds a store at `path` with several WAL-resident commits and returns,
/// for each durable revision, `(revision, wal_size_at_commit, serialized
/// graph bytes)`. The first entry is the imported base revision with
/// `wal_size` equal to the empty-log size. Every other commit is one
/// `commit_ops` of five ops creating two nodes, so the log the fault sweeps
/// chew on holds commit records of several frames that name each other's
/// nodes. Every commit stays in the log: each one grows it and none takes
/// it past [`WAL_LIMIT`], so none checkpoints.
fn build_history(path: &Path, commits: usize) -> Vec<(u64, u64, Vec<u8>)> {
    let mut store = PagedStore::import(path, &sample()).unwrap();
    let mut history = vec![(
        store.revision(),
        store.wal_size(),
        image(&mut store).unwrap(),
    )];
    for i in 0..commits {
        if i % 2 == 1 {
            // Two new nodes, durable as one commit record.
            let base = store.node_count();
            let ops = [
                DeltaOp::AddNode {
                    name: Some(format!("batch{i}a")),
                },
                DeltaOp::AddEdge {
                    node: base,
                    label: "title".into(),
                    value: WireValue::Str(format!("Batch {i}a")),
                },
                DeltaOp::AddToCollection {
                    collection: "Publications".into(),
                    value: WireValue::Node(base),
                },
                DeltaOp::AddNode {
                    name: Some(format!("batch{i}b")),
                },
                DeltaOp::AddEdge {
                    node: base + 1,
                    label: "year".into(),
                    value: WireValue::Int(2000 + i as i64),
                },
            ];
            store.commit_ops(&ops).unwrap();
        } else {
            let mut txn = store.begin();
            let node = txn.add_node(Some(&format!("extra{i}")));
            txn.add_edge(node, "title", WireValue::Str(format!("Extra {i}")));
            txn.add_edge(node, "year", WireValue::Int(2000 + i as i64));
            txn.add_to_collection("Publications", WireValue::Node(node));
            txn.commit().unwrap();
        }
        let logged = store.wal_size();
        assert!(
            logged > history.last().unwrap().1 && logged <= WAL_LIMIT,
            "commit {i} left a log of {logged} bytes: the history needs every commit in it"
        );
        history.push((
            store.revision(),
            store.wal_size(),
            image(&mut store).unwrap(),
        ));
    }
    history
}

fn assert_typed_storage_error(err: &GraphError, context: &str) {
    assert!(
        matches!(
            err,
            GraphError::StorageCorrupt { .. }
                | GraphError::StorageRecovery { .. }
                | GraphError::Storage { .. }
        ),
        "{context}: expected a typed storage error, got {err:?}"
    );
}

/// Simulated crash at every possible log length: truncating the WAL to any
/// byte count must recover exactly the newest revision whose commit record
/// fully survived — in particular every frame boundary is covered.
#[test]
fn truncating_the_wal_anywhere_recovers_the_last_durable_commit() {
    let scratch = Scratch::new("wal_truncate");
    let built = scratch.path("built.pdb");
    let history = build_history(&built, 5);
    let pages = fs::read(&built).unwrap();
    let log = fs::read(wal_path(&built)).unwrap();
    assert!(
        log.len() > wal::EMPTY_SIZE as usize,
        "test needs a non-empty log"
    );

    let victim = scratch.path("victim.pdb");
    for cut in 0..=log.len() {
        fs::write(&victim, &pages).unwrap();
        fs::write(wal_path(&victim), &log[..cut]).unwrap();
        let mut store = PagedStore::open(&victim)
            .unwrap_or_else(|e| panic!("truncation at {cut} bytes must recover: {e:?}"));
        // The newest durable revision whose commit fsync point fits the cut.
        let expected = history
            .iter()
            .rev()
            .find(|(_, wal_size, _)| *wal_size <= cut as u64)
            .unwrap_or(&history[0]);
        assert_eq!(
            store.revision(),
            expected.0,
            "truncation at {cut} bytes recovered the wrong revision"
        );
        assert_eq!(
            image(&mut store).unwrap(),
            expected.2,
            "truncation at {cut} bytes recovered revision {} with wrong contents",
            expected.0
        );
    }
}

/// A bit flip anywhere in the WAL body must either drop the damaged tail
/// (recovering some earlier durable revision, content-exact) or fail with a
/// typed storage error — never produce a graph that matches no committed
/// revision.
#[test]
fn wal_bit_flips_never_yield_a_wrong_graph() {
    let scratch = Scratch::new("wal_bitflip");
    let built = scratch.path("built.pdb");
    let history = build_history(&built, 4);
    let last = history.last().unwrap().0;
    let pages = fs::read(&built).unwrap();
    let log = fs::read(wal_path(&built)).unwrap();

    let victim = scratch.path("victim.pdb");
    for byte in 0..log.len() {
        let mut flipped = log.clone();
        flipped[byte] ^= 1 << (byte % 8);
        fs::write(&victim, &pages).unwrap();
        fs::write(wal_path(&victim), &flipped).unwrap();
        match PagedStore::open(&victim) {
            Ok(mut store) => {
                let rev = store.revision();
                assert!(
                    rev <= last,
                    "flip at byte {byte} produced revision {rev} past the last commit {last}"
                );
                let expected = history
                    .iter()
                    .find(|(r, _, _)| *r == rev)
                    .unwrap_or_else(|| {
                        panic!("flip at byte {byte} recovered unknown revision {rev}")
                    });
                assert_eq!(
                    image(&mut store).unwrap(),
                    expected.2,
                    "flip at byte {byte} recovered revision {rev} with wrong contents"
                );
            }
            Err(e) => assert_typed_storage_error(&e, &format!("flip at byte {byte}")),
        }
    }
}

/// A single-bit flip anywhere in the page file must either be harmless
/// (hit the stale header slot or other unreferenced bytes, with the reload
/// still byte-identical) or surface as a typed storage error. It must never
/// load a silently different graph.
#[test]
fn page_file_bit_flips_are_detected_or_harmless() {
    let scratch = Scratch::new("page_bitflip");
    let built = scratch.path("built.pdb");
    let mut store = PagedStore::import(&built, &sample()).unwrap();
    // Fold everything into pages so the WAL plays no part.
    store.checkpoint().unwrap();
    let reference = image(&mut store).unwrap();
    let revision = store.revision();
    drop(store);
    let pages = fs::read(&built).unwrap();
    let log = fs::read(wal_path(&built)).unwrap();

    let victim = scratch.path("victim.pdb");
    // Stride through the file so the sweep covers every page and both
    // header slots without taking minutes; the bit index varies with the
    // offset so different bit positions are exercised. A flip in a node
    // segment surfaces at the first read of the segment, not at the open.
    for byte in (0..pages.len()).step_by(13) {
        let mut flipped = pages.clone();
        flipped[byte] ^= 1 << (byte % 8);
        fs::write(&victim, &flipped).unwrap();
        fs::write(wal_path(&victim), &log).unwrap();
        let read = PagedStore::open(&victim)
            .and_then(|mut reopened| Ok((reopened.revision(), image(&mut reopened)?)));
        match read {
            Ok((reopened, bytes)) => {
                assert_eq!(
                    reopened, revision,
                    "flip at byte {byte} changed the recovered revision"
                );
                assert_eq!(
                    bytes, reference,
                    "flip at byte {byte} silently changed the graph"
                );
            }
            Err(e) => assert_typed_storage_error(&e, &format!("flip at byte {byte}")),
        }
    }
}

/// Killing the process after a commit (drop without checkpoint) must lose
/// nothing: the reopened store is byte-identical to the working copy.
#[test]
fn reopen_after_kill_restores_the_working_copy_exactly() {
    let scratch = Scratch::new("kill_reopen");
    let path = scratch.path("data.pdb");
    let history = build_history(&path, 3);
    let (revision, _, ref bytes) = *history.last().unwrap();
    let mut reopened = PagedStore::open(&path).unwrap();
    assert_eq!(reopened.revision(), revision);
    assert_eq!(&image(&mut reopened).unwrap(), bytes);
}

/// A graph filled by `materialize_into` before a commit keeps the old
/// revision after it: the commit goes to the store, not to the graph.
#[test]
fn snapshot_opened_before_a_commit_survives_it() {
    let scratch = Scratch::new("snapshot_mvcc");
    let path = scratch.path("data.pdb");
    let mut store = PagedStore::import(&path, &sample()).unwrap();
    let mut before = Graph::standalone();
    store.materialize_into(&mut before).unwrap();
    let bytes_before = graph_bytes(&before).unwrap();
    let revision_before = store.revision();

    let mut txn = store.begin();
    let node = txn.add_node(Some("newcomer"));
    txn.add_edge(node, "title", WireValue::Str("After the snapshot".into()));
    let new_revision = txn.commit().unwrap();

    assert!(revision_before < new_revision);
    assert_eq!(
        graph_bytes(&before).unwrap(),
        bytes_before,
        "a graph filled before the commit must not see it"
    );
    let mut after = Graph::standalone();
    store.materialize_into(&mut after).unwrap();
    assert_eq!(after.node_count(), before.node_count() + 1);
    assert_eq!(graph_bytes(&after).unwrap(), image(&mut store).unwrap());
}

/// Deleting the WAL outright (e.g. a crash after log reset but before any
/// append) must still open at the checkpointed revision.
#[test]
fn missing_wal_reopens_at_the_page_file_revision() {
    let scratch = Scratch::new("missing_wal");
    let path = scratch.path("data.pdb");
    let mut store = PagedStore::import(&path, &sample()).unwrap();
    let mut txn = store.begin();
    txn.add_node(Some("extra"));
    txn.commit().unwrap();
    store.checkpoint().unwrap();
    let reference = image(&mut store).unwrap();
    let revision = store.revision();
    drop(store);

    fs::remove_file(wal_path(&path)).unwrap();
    let mut reopened = PagedStore::open(&path).unwrap();
    assert_eq!(reopened.revision(), revision);
    assert_eq!(image(&mut reopened).unwrap(), reference);
}

fn graph_bytes(graph: &Graph) -> Result<Vec<u8>, GraphError> {
    let mut buf = Vec::new();
    strudel_graph::store::save(graph, &mut buf)?;
    Ok(buf)
}

/// The store's current revision as canonical image bytes — or the typed
/// error of a segment that does not read, which saving checks for.
fn image(store: &mut PagedStore) -> Result<Vec<u8>, GraphError> {
    graph_bytes(store.graph()?)
}

/// A crash at any byte of a commit of several ops — in particular between
/// the append and its fsync — must recover either the whole commit or the
/// state before it. The commit is one commit record, so no truncation
/// point may expose some of its ops without the others.
#[test]
fn group_commit_crash_never_recovers_a_partial_batch() {
    let scratch = Scratch::new("partial_batch");
    let built = scratch.path("built.pdb");
    let mut store = PagedStore::import(&built, &sample()).unwrap();
    let before_bytes = image(&mut store).unwrap();
    let before_rev = store.revision();

    // Six ops, three new nodes, committed as one durable unit.
    let base = store.node_count();
    let ops: Vec<DeltaOp> = (0..3u32)
        .flat_map(|t| {
            [
                DeltaOp::AddNode {
                    name: Some(format!("member{t}")),
                },
                DeltaOp::AddEdge {
                    node: base + t,
                    label: "title".into(),
                    value: WireValue::Str(format!("Member {t}")),
                },
            ]
        })
        .collect();
    let batch_rev = store.commit_ops(&ops).unwrap();
    assert_eq!(
        batch_rev,
        before_rev + 1,
        "a commit is exactly one revision"
    );
    assert!(
        store.wal_size() > wal::EMPTY_SIZE && store.wal_size() <= WAL_LIMIT,
        "the commit must stay in the log"
    );
    let after_bytes = image(&mut store).unwrap();
    drop(store);

    let pages = fs::read(&built).unwrap();
    let log = fs::read(wal_path(&built)).unwrap();
    let victim = scratch.path("victim.pdb");
    for cut in 0..=log.len() {
        fs::write(&victim, &pages).unwrap();
        fs::write(wal_path(&victim), &log[..cut]).unwrap();
        let mut reopened = PagedStore::open(&victim)
            .unwrap_or_else(|e| panic!("truncation at {cut} bytes must recover: {e:?}"));
        let got = image(&mut reopened).unwrap();
        if reopened.revision() == batch_rev {
            assert_eq!(
                got, after_bytes,
                "cut at {cut}: the commit's revision recovered with partial contents"
            );
        } else {
            assert_eq!(reopened.revision(), before_rev, "cut at {cut}");
            assert_eq!(
                got, before_bytes,
                "cut at {cut}: the revision before the commit recovered with wrong contents"
            );
        }
    }
}

/// A graph filled by `materialize_into` at an arbitrary point keeps
/// reading byte-identical contents no matter what mix of commits,
/// incremental checkpoints, and compactions follows it: the page file may
/// change under it. The interleaving is driven by a deterministic LCG so
/// failures replay.
#[test]
fn snapshots_stay_byte_identical_across_arbitrary_interleavings() {
    let scratch = Scratch::new("snapshot_property");
    let path = scratch.path("data.pdb");
    let mut store = PagedStore::import(&path, &sample()).unwrap();
    let mut pinned: Vec<(Graph, u64, Vec<u8>)> = Vec::new();
    let mut state: u64 = 0x5157_5544_454c_0009;

    for step in 0..60u32 {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let roll = (state >> 33) % 10;
        if step % 6 == 0 {
            // Fill a graph and record the canonical bytes it must keep
            // serving; it is read again only after later checkpoints and
            // compactions have moved the pages it was read from.
            let expected = image(&mut store).unwrap();
            let mut g = Graph::standalone();
            store.materialize_into(&mut g).unwrap();
            pinned.push((g, store.revision(), expected));
        }
        match roll {
            0..=5 => {
                let mut txn = store.begin();
                let node = txn.add_node(Some(&format!("step{step}")));
                txn.add_edge(node, "year", WireValue::Int(step as i64));
                if roll.is_multiple_of(2) {
                    txn.add_to_collection("Publications", WireValue::Node(node));
                }
                txn.commit().unwrap();
            }
            6 => {
                let base = store.node_count();
                let ops = [
                    DeltaOp::AddNode {
                        name: Some(format!("batch{step}a")),
                    },
                    DeltaOp::AddEdge {
                        node: base,
                        label: "title".into(),
                        value: WireValue::Str(format!("Batch {step}")),
                    },
                ];
                store.commit_ops(&ops).unwrap();
            }
            7 | 8 => store.checkpoint().unwrap(),
            _ => {
                let _ = store.compact().unwrap();
            }
        }
    }

    assert!(pinned.len() >= 10, "property needs many pin points");
    for (g, revision, expected) in &pinned {
        assert_eq!(
            &graph_bytes(g).unwrap(),
            expected,
            "graph filled at revision {revision} drifted after later mutations"
        );
    }
}

/// The commit that takes the log past `WAL_LIMIT` checkpoints: it leaves a
/// fresh log based at its revision and the page file at that revision, and
/// a reopen reads the same image. Every commit before it grew the log.
#[test]
fn a_commit_past_the_wal_limit_checkpoints() {
    let scratch = Scratch::new("auto_checkpoint");
    let path = scratch.path("data.pdb");
    let mut store = PagedStore::import(&path, &sample()).unwrap();
    let blob = "x".repeat(64 << 10);
    let limit_commits = WAL_LIMIT as usize / blob.len() + 1;
    let mut checkpointed_at = None;
    for _ in 0..=limit_commits {
        let before = store.wal_size();
        let mut txn = store.begin();
        let node = txn.add_node(None);
        txn.add_edge(node, "blob", WireValue::Str(blob.clone()));
        let revision = txn.commit().unwrap();
        if store.wal_size() < before {
            assert!(before + blob.len() as u64 > WAL_LIMIT, "checkpointed early");
            assert_eq!(store.wal_size(), wal::EMPTY_SIZE);
            checkpointed_at = Some(revision);
            break;
        }
        assert!(store.wal_size() <= WAL_LIMIT, "a log past the limit stayed");
    }
    let revision = checkpointed_at.expect("no commit took the log past the limit");
    let expected = image(&mut store).unwrap();
    drop(store);

    assert_eq!(Pager::open(&path).unwrap().revision(), revision);
    let (log, txns) = Wal::open(&wal_path(&path), 0).unwrap();
    assert_eq!(log.base_revision(), revision);
    assert!(txns.is_empty(), "the fresh log holds no transaction");
    let mut reopened = PagedStore::open(&path).unwrap();
    assert_eq!(reopened.revision(), revision);
    assert_eq!(image(&mut reopened).unwrap(), expected);
}

/// A node-segment page that fails its checksum fails `compact` typed, and
/// the failed compaction leaves no temp file beside the page file, leaves
/// the page file byte-identical, and the store still reopens. An imported
/// store references every page, so each page past the two header slots
/// gets its stored checksum flipped in turn: the open refuses the flip
/// (the manifest, the preamble, the collections) or the page is a node
/// segment's.
#[test]
fn a_failed_compact_leaves_no_temp_file_and_the_store_as_it_was() {
    let scratch = Scratch::new("compact_fails");
    let built = scratch.path("built.pdb");
    let ddl: String = (0..600)
        .map(|i| format!("object n{i} in Nodes {{ title \"Title {i:04}\" }}\n"))
        .collect();
    PagedStore::import(&built, &ddl::parse(&ddl).unwrap()).unwrap();
    let pages = fs::read(&built).unwrap();
    let log = fs::read(wal_path(&built)).unwrap();

    let victim = scratch.path("victim.pdb");
    let temp = scratch.path("victim.pdb.compact");
    let mut failed = 0;
    for page in 2..pages.len() / PAGE_SIZE {
        let mut flipped = pages.clone();
        flipped[page * PAGE_SIZE] ^= 0x10;
        fs::write(&victim, &flipped).unwrap();
        fs::write(wal_path(&victim), &log).unwrap();
        let Ok(mut store) = PagedStore::open(&victim) else {
            continue;
        };
        let err = store
            .compact()
            .expect_err("a corrupt page cannot be copied");
        assert_typed_storage_error(&err, &format!("compact with page {page} flipped"));
        drop(store);
        failed += 1;
        assert!(!temp.exists(), "page {page}: the temp file stayed");
        assert!(
            fs::read(&victim).unwrap() == flipped,
            "page {page}: page file changed"
        );
        PagedStore::open(&victim)
            .unwrap_or_else(|e| panic!("page {page}: no reopen after the failed compact: {e:?}"));
    }
    assert!(failed >= 10, "only {failed} node-segment pages exercised");
}
