//! Durable-store benchmarks: append throughput under each fsync policy,
//! and WAL replay (crash-recovery) time as the log grows.
//!
//! Every sweep runs against a real [`ShardedLogStore`] directory on the
//! local filesystem (one shard unless the sweep varies the count), so
//! the numbers include every fsync the policy demands.
//! Fsync and replay counts come from each store's own counters, not the
//! process-global metrics registry, so tests running side by side cannot
//! skew a row.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use pe_store::{shard_dir, DocStore, FsyncPolicy, ShardedLogStore, StoreConfig};

/// A scratch directory deleted on drop.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let mut path = std::env::temp_dir();
        path.push(format!(
            "pe-storebench-{tag}-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&path);
        TempDir(path)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Payload size for every benchmark record: roughly one encrypted
/// paragraph of document ciphertext.
pub const PAYLOAD_BYTES: usize = 256;

/// Documents written round-robin, so the store sees realistic
/// multi-document interleaving rather than one hot key.
const DOCS: usize = 64;

/// One measured fsync policy.
#[derive(Debug, Clone, PartialEq)]
pub struct AppendRow {
    /// Policy label (`always`, `every=64`, `never`).
    pub policy: String,
    /// Records appended.
    pub records: u64,
    /// Wall-clock seconds for the whole append run.
    pub wall_s: f64,
    /// Appends per second.
    pub appends_per_s: f64,
    /// Payload megabytes per second.
    pub mb_per_s: f64,
    /// Group-commit `fsync` calls the store issued for the appends
    /// (its own [`pe_store::GroupStats`]; the final flush is not counted).
    pub fsyncs: u64,
}

/// One measured concurrent group-commit configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupRow {
    /// Policy label (`always`, `every=64`, `never`).
    pub policy: String,
    /// Concurrent appender threads.
    pub writers: usize,
    /// WAL shards the store routes over.
    pub shards: usize,
    /// Records appended across all writers.
    pub records: u64,
    /// Wall-clock seconds from the start barrier to the last join.
    pub wall_s: f64,
    /// Aggregate appends per second.
    pub appends_per_s: f64,
    /// `fsync` calls actually issued (summed over shards).
    pub fsyncs: u64,
    /// Appends whose durability rode another batch's fsync.
    pub fsyncs_saved: u64,
    /// Largest single group-commit batch observed (records).
    pub max_batch: u64,
}

/// One measured sharded-recovery configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardReplayRow {
    /// Records (= distinct documents) in the store before reopening.
    pub records: u64,
    /// Shards the log is split over (1 = a single WAL).
    pub shards: usize,
    /// Total bytes on disk across every shard's segments.
    pub log_bytes: u64,
    /// Wall-clock seconds for `ShardedLogStore::open` (full recovery).
    pub open_wall_s: f64,
    /// Records replayed per second.
    pub replay_per_s: f64,
    /// Documents recovered into the combined index.
    pub docs: u64,
}

/// One measured log size for replay.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayRow {
    /// Records in the log before reopening.
    pub records: u64,
    /// Total bytes on disk (segments) replayed at open.
    pub log_bytes: u64,
    /// Wall-clock seconds for a single-shard `ShardedLogStore::open`
    /// (the full recovery).
    pub open_wall_s: f64,
    /// Records replayed per second.
    pub replay_per_s: f64,
    /// Documents recovered into the index.
    pub docs: u64,
}

fn payload(i: usize) -> Vec<u8> {
    (0..PAYLOAD_BYTES).map(|j| ((i * 31 + j * 7) % 251) as u8).collect()
}

fn write_records(store: &ShardedLogStore, records: u64) {
    for i in 0..records as usize {
        store
            .put_full(&format!("doc{}", i % DOCS), &payload(i))
            .expect("benchmark append failed");
    }
}

/// Measures append throughput for each policy over a fresh store.
pub fn append_sweep(policies: &[FsyncPolicy], records: u64) -> Vec<AppendRow> {
    policies
        .iter()
        .map(|&fsync| {
            let dir = TempDir::new("append");
            let store =
                ShardedLogStore::open(&dir.0, 1, StoreConfig { fsync, ..StoreConfig::default() })
                    .expect("open bench store");
            let started = Instant::now();
            write_records(&store, records);
            store.flush().expect("final flush");
            let wall_s = started.elapsed().as_secs_f64();
            let fsyncs = store.group_stats().fsyncs;
            drop(store);
            AppendRow {
                policy: fsync.label(),
                records,
                wall_s,
                appends_per_s: if wall_s > 0.0 { records as f64 / wall_s } else { 0.0 },
                mb_per_s: if wall_s > 0.0 {
                    (records as f64 * PAYLOAD_BYTES as f64) / wall_s / 1e6
                } else {
                    0.0
                },
                fsyncs,
            }
        })
        .collect()
}

/// Measures group-commit append throughput as writer count grows.
///
/// Every row opens a fresh [`ShardedLogStore`] with `shards` shards and
/// fans `per_writer` appends out over `writers` threads (each editing
/// its own document set, so routing spreads the load). The fsync
/// accounting comes from the store's own [`pe_store::GroupStats`]
/// counters, not the global registry, so concurrent registry users
/// cannot skew a row.
pub fn group_commit_sweep(
    writer_counts: &[usize],
    shards: usize,
    per_writer: u64,
    fsync: FsyncPolicy,
) -> Vec<GroupRow> {
    writer_counts
        .iter()
        .map(|&writers| {
            let dir = TempDir::new("group");
            let store = ShardedLogStore::open(
                &dir.0,
                shards,
                StoreConfig { fsync, ..StoreConfig::default() },
            )
            .expect("open sharded bench store");
            let start = std::sync::Barrier::new(writers + 1);
            let wall_s = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..writers)
                    .map(|w| {
                        let (store, start) = (&store, &start);
                        scope.spawn(move || {
                            start.wait();
                            for i in 0..per_writer as usize {
                                store
                                    .put_full(&format!("w{w}-doc{}", i % DOCS), &payload(i))
                                    .expect("benchmark append failed");
                            }
                        })
                    })
                    .collect();
                start.wait();
                let started = Instant::now();
                for handle in handles {
                    handle.join().expect("writer thread panicked");
                }
                started.elapsed().as_secs_f64()
            });
            store.flush().expect("final flush");
            let stats = store.group_stats();
            let records = writers as u64 * per_writer;
            GroupRow {
                policy: fsync.label(),
                writers,
                shards,
                records,
                wall_s,
                appends_per_s: if wall_s > 0.0 { records as f64 / wall_s } else { 0.0 },
                fsyncs: stats.fsyncs,
                fsyncs_saved: stats.fsyncs_saved,
                max_batch: stats.max_batch_records,
            }
        })
        .collect()
}

/// Measures full recovery (single-shard `ShardedLogStore::open` replay)
/// at each log size.
///
/// The log is written with [`FsyncPolicy::Never`] — write speed is not
/// under test here — then the store is dropped and reopened cold.
pub fn replay_sweep(sizes: &[u64]) -> Vec<ReplayRow> {
    sizes
        .iter()
        .map(|&records| {
            let dir = TempDir::new("replay");
            let store = ShardedLogStore::open(
                &dir.0,
                1,
                StoreConfig { fsync: FsyncPolicy::Never, ..StoreConfig::default() },
            )
            .expect("open bench store");
            write_records(&store, records);
            store.flush().expect("flush before close");
            drop(store);

            let log_bytes = dir_bytes(&shard_dir(&dir.0, 0));

            let started = Instant::now();
            let reopened =
                ShardedLogStore::open(&dir.0, 1, StoreConfig::default()).expect("reopen");
            let open_wall_s = started.elapsed().as_secs_f64();
            assert_eq!(reopened.replayed_records(), records, "replay must visit every record");
            let docs = reopened.list().len() as u64;
            ReplayRow {
                records,
                log_bytes,
                open_wall_s,
                replay_per_s: if open_wall_s > 0.0 {
                    records as f64 / open_wall_s
                } else {
                    0.0
                },
                docs,
            }
        })
        .collect()
}

fn dir_bytes(dir: &std::path::Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else { return 0 };
    entries
        .filter_map(Result::ok)
        .map(|entry| match entry.metadata() {
            Ok(meta) if meta.is_dir() => dir_bytes(&entry.path()),
            Ok(meta) => meta.len(),
            Err(_) => 0,
        })
        .sum()
}

/// Measures full sharded recovery (`ShardedLogStore::open`) for each
/// `(records, shards)` case. Every record creates a distinct document,
/// so a 100 000-record case is a 100 000-document store — the regime
/// ISSUE 8 cares about. Shards replay on parallel threads; on a
/// multi-core runner open time tracks the largest shard rather than the
/// total log (a single-core runner replays the same records either way,
/// so expect parity there, not a win).
pub fn sharded_replay_sweep(cases: &[(u64, usize)]) -> Vec<ShardReplayRow> {
    cases
        .iter()
        .map(|&(records, shards)| {
            let dir = TempDir::new("shard-replay");
            let store = ShardedLogStore::open(
                &dir.0,
                shards,
                StoreConfig { fsync: FsyncPolicy::Never, ..StoreConfig::default() },
            )
            .expect("open bench store");
            for i in 0..records as usize {
                store.put_full(&format!("doc{i}"), &payload(i)).expect("benchmark append failed");
            }
            store.flush().expect("flush before close");
            drop(store);

            let log_bytes = dir_bytes(&dir.0);
            let started = Instant::now();
            let reopened =
                ShardedLogStore::open(&dir.0, shards, StoreConfig::default()).expect("reopen");
            let open_wall_s = started.elapsed().as_secs_f64();
            assert_eq!(reopened.replayed_records(), records, "replay must visit every record");
            assert_eq!(reopened.shard_count(), shards, "manifest must pin the shard count");
            let docs = reopened.list().len() as u64;
            ShardReplayRow {
                records,
                shards,
                log_bytes,
                open_wall_s,
                replay_per_s: if open_wall_s > 0.0 {
                    records as f64 / open_wall_s
                } else {
                    0.0
                },
                docs,
            }
        })
        .collect()
}

/// Renders both sweeps as the JSON document committed as
/// `BENCH_store.json`.
pub fn render_json(
    appends: &[AppendRow],
    groups: &[GroupRow],
    replays: &[ReplayRow],
    sharded_replays: &[ShardReplayRow],
) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"bench\": \"store_recovery\",\n");
    out.push_str(
        "  \"store\": \"pe-store ShardedLogStore (CRC32 WAL + snapshots, group commit)\",\n",
    );
    out.push_str(&format!("  \"payload_bytes\": {PAYLOAD_BYTES},\n"));
    out.push_str(&format!("  \"docs\": {DOCS},\n"));
    out.push_str("  \"append_rows\": [\n");
    for (i, row) in appends.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"policy\": \"{}\", \"records\": {}, \"wall_s\": {:.4}, \
             \"appends_per_s\": {:.1}, \"mb_per_s\": {:.2}, \"fsyncs\": {}}}{}\n",
            row.policy,
            row.records,
            row.wall_s,
            row.appends_per_s,
            row.mb_per_s,
            row.fsyncs,
            if i + 1 == appends.len() { "" } else { "," },
        ));
    }
    out.push_str("  ],\n");
    out.push_str("  \"group_commit_rows\": [\n");
    for (i, row) in groups.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"policy\": \"{}\", \"writers\": {}, \"shards\": {}, \"records\": {}, \
             \"wall_s\": {:.4}, \"appends_per_s\": {:.1}, \"fsyncs\": {}, \
             \"fsyncs_saved\": {}, \"max_batch\": {}}}{}\n",
            row.policy,
            row.writers,
            row.shards,
            row.records,
            row.wall_s,
            row.appends_per_s,
            row.fsyncs,
            row.fsyncs_saved,
            row.max_batch,
            if i + 1 == groups.len() { "" } else { "," },
        ));
    }
    out.push_str("  ],\n");
    out.push_str("  \"replay_rows\": [\n");
    for (i, row) in replays.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"records\": {}, \"log_bytes\": {}, \"open_wall_s\": {:.4}, \
             \"replay_per_s\": {:.1}, \"docs\": {}}}{}\n",
            row.records,
            row.log_bytes,
            row.open_wall_s,
            row.replay_per_s,
            row.docs,
            if i + 1 == replays.len() { "" } else { "," },
        ));
    }
    out.push_str("  ],\n");
    out.push_str("  \"sharded_replay_rows\": [\n");
    for (i, row) in sharded_replays.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"records\": {}, \"shards\": {}, \"log_bytes\": {}, \
             \"open_wall_s\": {:.4}, \"replay_per_s\": {:.1}, \"docs\": {}}}{}\n",
            row.records,
            row.shards,
            row.log_bytes,
            row.open_wall_s,
            row.replay_per_s,
            row.docs,
            if i + 1 == sharded_replays.len() { "" } else { "," },
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn append_sweep_counts_fsyncs_per_policy() {
        let rows = append_sweep(
            &[FsyncPolicy::Always, FsyncPolicy::EveryN(16), FsyncPolicy::Never],
            64,
        );
        assert_eq!(rows.len(), 3);
        // Always fsyncs per append; every=16 fsyncs 64/16 times plus the
        // final flush; never only syncs on the explicit flush.
        assert!(rows[0].fsyncs >= 64, "always: {}", rows[0].fsyncs);
        assert!(
            rows[1].fsyncs >= 4 && rows[1].fsyncs < rows[0].fsyncs,
            "every=16: {}",
            rows[1].fsyncs
        );
        assert!(rows[2].fsyncs <= 2, "never: {}", rows[2].fsyncs);
        for row in &rows {
            assert_eq!(row.records, 64);
            assert!(row.appends_per_s > 0.0);
        }
    }

    #[test]
    fn replay_sweep_recovers_every_record() {
        let rows = replay_sweep(&[100, 300]);
        assert_eq!(rows.len(), 2);
        for row in &rows {
            assert_eq!(row.docs, DOCS as u64);
            assert!(row.log_bytes > row.records * PAYLOAD_BYTES as u64);
            assert!(row.replay_per_s > 0.0);
        }
        assert!(rows[1].log_bytes > rows[0].log_bytes);
    }

    #[test]
    fn group_commit_sweep_accounts_every_append() {
        let rows = group_commit_sweep(&[1, 4], 2, 32, FsyncPolicy::Always);
        assert_eq!(rows.len(), 2);
        for row in &rows {
            assert_eq!(row.shards, 2);
            assert_eq!(row.records, 32 * row.writers as u64);
            assert!(row.appends_per_s > 0.0);
            // Under fsync=always every append either issued its own
            // fsync or rode a neighbour's batch — nothing is unaccounted.
            assert_eq!(row.fsyncs + row.fsyncs_saved, row.records, "policy {}", row.policy);
            assert!(row.max_batch >= 1);
        }
        // A single writer can never share a batch.
        assert_eq!(rows[0].fsyncs_saved, 0);
        assert_eq!(rows[0].fsyncs, rows[0].records);
    }

    #[test]
    fn sharded_replay_sweep_recovers_every_document() {
        let rows = sharded_replay_sweep(&[(200, 1), (200, 4)]);
        assert_eq!(rows.len(), 2);
        for row in &rows {
            assert_eq!(row.docs, 200, "one document per record");
            assert!(row.log_bytes > row.records * PAYLOAD_BYTES as u64);
            assert!(row.replay_per_s > 0.0);
        }
        assert_eq!(rows[0].shards, 1);
        assert_eq!(rows[1].shards, 4);
    }

    #[test]
    fn json_report_is_well_formed() {
        let appends = append_sweep(&[FsyncPolicy::Never], 16);
        let groups = group_commit_sweep(&[2], 2, 8, FsyncPolicy::Always);
        let replays = replay_sweep(&[32]);
        let sharded = sharded_replay_sweep(&[(64, 2)]);
        let json = render_json(&appends, &groups, &replays, &sharded);
        assert!(json.contains("\"bench\": \"store_recovery\""));
        assert!(json.contains("\"policy\": \"never\""));
        assert!(json.contains("\"group_commit_rows\""));
        assert!(json.contains("\"sharded_replay_rows\""));
        assert!(json.contains("\"writers\": 2"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }
}
