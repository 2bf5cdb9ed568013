//! Process-wide storage-layer counters.
//!
//! The pager and write-ahead log count their work into one static set of
//! relaxed atomics: the serving tier scrapes a [`StorageStats`] snapshot
//! into `/stats` and `/metrics` without needing a handle to any particular
//! [`crate::store::PagedStore`] instance. Counters are monotonic over the
//! process lifetime (Prometheus `_total` semantics); the two gauges track a
//! level, last writer wins. A signal is the one row below: the cell the
//! pager or log bumps, the [`StorageStats`] field, its `/stats` key and its
//! `/metrics` family and help (the `strudel_store_*` prefix keeps the
//! pager's page cache apart from the serving tier's page cache).

strudel_obs::signals! {
    /// The storage-layer cells (see [`storage_stats`]).
    pub(crate) struct StorageCounters;
    /// A snapshot of the process-wide storage counters.
    pub struct StorageStats {}
    page_reads: Counter, "storage.page_reads", "strudel_store_page_reads_total",
        "Pages read from graph-store page files.";
    page_writes: Counter, "storage.page_writes", "strudel_store_page_writes_total",
        "Pages written to graph-store page files.";
    page_cache_hits: Counter, "storage.page_cache_hits", "strudel_store_page_cache_hits_total",
        "Store page reads answered from the in-memory page cache.";
    page_cache_misses: Counter, "storage.page_cache_misses", "strudel_store_page_cache_misses_total",
        "Store page reads that had to touch the file.";
    page_cache_evictions: Counter, "storage.page_cache_evictions", "strudel_store_page_cache_evictions_total",
        "Store pages evicted from the in-memory page cache.";
    pages_leaked: Counter, "storage.pages_leaked", "strudel_store_pages_leaked_total",
        "Store pages lost to freelist overflow (reclaimed by compact).";
    wal_appended_frames: Counter, "storage.wal_frames", "strudel_wal_frames_total",
        "Frames appended to write-ahead logs.";
    wal_commits: Counter, "storage.wal_commits", "strudel_wal_commits_total",
        "Transactions made durable by a fsynced WAL commit record.";
    wal_bytes: Counter, "storage.wal_bytes", "strudel_wal_bytes_total",
        "Bytes appended to write-ahead logs.";
    wal_fsyncs: Counter, "storage.wal_fsyncs", "strudel_wal_fsyncs_total",
        "WAL file data syncs (one per commit record).";
    wal_checkpoints: Counter, "storage.wal_checkpoints", "strudel_wal_checkpoints_total",
        "Checkpoints folding the WAL into the page file.";
    wal_recoveries: Counter, "storage.wal_recoveries", "strudel_wal_recoveries_total",
        "Store opens that replayed at least one committed WAL frame.";
    wal_recovered_frames: Counter, "storage.wal_recovered_frames", "strudel_wal_recovered_frames_total",
        "Committed WAL frames replayed during crash recovery.";
    wal_torn_tails: Counter, "storage.wal_torn_tails", "strudel_wal_torn_tails_total",
        "Torn WAL tails detected and truncated during recovery.";
    compactions: Counter, "storage.compactions", "strudel_store_compactions_total",
        "Store compactions (page file rewritten minimal).";
    checkpoint_pages_written: Counter, "storage.checkpoint_pages_written", "strudel_checkpoint_pages_written_total",
        "Pages rewritten by incremental checkpoints (dirty segments).";
    checkpoint_pages_reused: Counter, "storage.checkpoint_pages_reused", "strudel_checkpoint_pages_reused_total",
        "Pages carried over untouched across incremental checkpoints.";
    materializations: Counter, "storage.materializations", "strudel_store_materializations_total",
        "Stored revisions attached to a graph (checkpoint attached, committed ops applied).";
    segments_decoded: Counter, "storage.segments_decoded", "strudel_store_segments_decoded_total",
        "64-node image segments decoded into a graph, each on the first read of one of its nodes.";
    materialized_edges: Counter, "storage.materialized_edges", "strudel_store_materialized_edges_total",
        "Edges those segment decodes built.";
    segments_corrupt: Counter, "storage.segments_corrupt", "strudel_store_segments_corrupt_total",
        "Stored 64-node segments whose pages or records failed their check when read.";
    dirty_pages: Gauge, "storage.dirty_pages", "strudel_store_dirty_pages",
        "Pages the next incremental checkpoint would rewrite.";
    freelist_pages: Gauge, "storage.freelist_pages", "strudel_store_freelist_pages",
        "Free pages tracked in the store's active header.";
}

pub(crate) static STORAGE: StorageCounters = StorageCounters::new();

/// Snapshots the process-wide storage counters (page cache, WAL, recovery).
pub fn storage_stats() -> StorageStats {
    STORAGE.snapshot()
}
