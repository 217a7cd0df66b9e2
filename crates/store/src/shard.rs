//! Document-sharded storage: N independent per-shard log engines behind
//! one [`DocStore`]. This is the only on-disk store format.
//!
//! ## Layout
//!
//! A store root holds a manifest plus one subdirectory per shard, each a
//! fully self-contained log store (own WAL segments, snapshots, index,
//! background compactor):
//!
//! ```text
//! store/
//!   pe-shards          # manifest: shard count (routing depends on it)
//!   shard-000/wal-…    # independent WAL + snapshots
//!   shard-001/…
//! ```
//!
//! Documents route by `fnv1a(doc_id) % N` — the same hash the in-memory
//! index shards by — so two writers touching different documents
//! usually land on different WALs and different group-commit fsyncs.
//! Meta counters live on shard 0 (they are global, not per-document).
//!
//! ## Initialisation
//!
//! The manifest is the commit point. A fresh root gets its shard
//! directories first and the manifest last, so an interrupted init
//! leaves only empty shard directories and simply initialises again.
//! A root without a manifest that holds WAL segments or snapshots, at
//! the top level or inside a shard directory, is refused with
//! [`StoreError::Corrupt`] and left untouched. So is a manifest naming
//! a shard directory that no longer exists: open never recreates one.
//!
//! ## Recovery
//!
//! Opening replays all shards in parallel (scoped threads, one per
//! shard); shards are independent by construction, so open time is
//! bounded by the largest shard, not the total log.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

use crate::index::hash_id;
use crate::log::{fsck_shard, CompactionStats, FsckReport, LogStore, StoreConfig};
use crate::snapfile;
use crate::wal::{self, GroupStats};
use crate::{DeltaLimits, DocState, DocStore, StoreError};

/// Manifest file name marking a directory as a sharded store root.
pub const MANIFEST_NAME: &str = "pe-shards";

/// Upper bound on the shard count — far above any sane configuration,
/// low enough to reject a garbage manifest before creating directories.
pub const MAX_SHARDS: usize = 256;

const MANIFEST_MAGIC: &str = "pe-sharded-store v1";

/// Subdirectory of shard `i` inside a sharded root.
pub fn shard_dir(dir: &Path, shard: usize) -> PathBuf {
    dir.join(format!("shard-{shard:03}"))
}

fn write_manifest(dir: &Path, shards: usize) -> Result<(), StoreError> {
    let tmp = dir.join("pe-shards.tmp");
    std::fs::write(&tmp, format!("{MANIFEST_MAGIC}\nshards={shards}\n"))?;
    let file = std::fs::File::open(&tmp)?;
    file.sync_all()?;
    drop(file);
    std::fs::rename(&tmp, dir.join(MANIFEST_NAME))?;
    wal::sync_dir(dir)?;
    Ok(())
}

fn read_manifest(dir: &Path) -> Result<usize, StoreError> {
    let text = std::fs::read_to_string(dir.join(MANIFEST_NAME))?;
    let mut lines = text.lines();
    if lines.next() != Some(MANIFEST_MAGIC) {
        return Err(StoreError::Corrupt(format!(
            "{}: bad shard manifest magic",
            dir.display()
        )));
    }
    let shards = lines
        .next()
        .and_then(|l| l.strip_prefix("shards="))
        .and_then(|n| n.parse::<usize>().ok())
        .filter(|&n| (1..=MAX_SHARDS).contains(&n))
        .ok_or_else(|| {
            StoreError::Corrupt(format!("{}: bad shard manifest count", dir.display()))
        })?;
    Ok(shards)
}

/// The first WAL segment or snapshot file directly inside `dir`, if any.
fn first_log_file(dir: &Path) -> Result<Option<String>, StoreError> {
    for entry in std::fs::read_dir(dir)? {
        let name = entry?.file_name();
        let Some(name) = name.to_str() else { continue };
        if wal::parse_segment_name(name).is_some()
            || snapfile::parse_snapshot_name(name).is_some()
        {
            return Ok(Some(name.to_string()));
        }
    }
    Ok(None)
}

/// Shard subdirectories present in `dir` (sorted by index).
fn existing_shard_dirs(dir: &Path) -> Result<Vec<PathBuf>, StoreError> {
    let mut found = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if name.strip_prefix("shard-").is_some_and(|n| n.parse::<usize>().is_ok())
            && entry.path().is_dir()
        {
            found.push(entry.path());
        }
    }
    found.sort();
    Ok(found)
}

/// Initialises a root that has no manifest and returns its shard count.
/// Shard directories come first, the manifest (the commit point) last,
/// so a crash in between leaves empty shard directories that the next
/// init reuses. Log files anywhere in the root mean the manifest was
/// lost, not that init never finished: refuse before writing anything.
fn init_root(dir: &Path, shards: usize) -> Result<usize, StoreError> {
    let mut candidates = vec![dir.to_path_buf()];
    candidates.extend(existing_shard_dirs(dir)?);
    for candidate in &candidates {
        if let Some(name) = first_log_file(candidate)? {
            return Err(StoreError::Corrupt(format!(
                "{}: holds {name} but there is no {MANIFEST_NAME} manifest",
                candidate.display()
            )));
        }
    }
    let count = shards.clamp(1, MAX_SHARDS);
    for shard in 0..count {
        std::fs::create_dir_all(shard_dir(dir, shard))?;
    }
    wal::sync_dir(dir)?;
    write_manifest(dir, count)?;
    Ok(count)
}

/// Opens all shard stores in parallel, one scoped thread per shard.
/// Per-shard replay time lands in the `store.shard.open_ns` histogram;
/// the first open error wins.
fn open_shards_parallel(
    dir: &Path,
    shards: usize,
    config: StoreConfig,
) -> Result<Vec<LogStore>, StoreError> {
    let mut slots: Vec<Option<Result<LogStore, StoreError>>> =
        (0..shards).map(|_| None).collect();
    std::thread::scope(|scope| {
        for (i, slot) in slots.iter_mut().enumerate() {
            scope.spawn(move || {
                let started = Instant::now();
                let opened = LogStore::open(shard_dir(dir, i), config);
                pe_observe::static_histogram!("store.shard.open_ns")
                    .record_duration(started.elapsed());
                *slot = Some(opened);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| slot.expect("every shard open thread fills its slot"))
        .collect()
}

/// A [`DocStore`] that routes documents across N independent log-store
/// shards. See the module docs for layout and semantics.
pub struct ShardedLogStore {
    dir: PathBuf,
    shards: Vec<LogStore>,
    /// Set when any shard reports an injected crash or fsync failure:
    /// a real process would have died whole, so the entire store
    /// refuses further work, not just the failed shard.
    poisoned: AtomicBool,
}

impl std::fmt::Debug for ShardedLogStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedLogStore")
            .field("dir", &self.dir)
            .field("shards", &self.shards.len())
            .finish()
    }
}

impl ShardedLogStore {
    /// Opens (or creates) the store at `dir`.
    ///
    /// - A root with a manifest opens with its recorded shard count —
    ///   `shards` is ignored; routing must match the layout that wrote
    ///   the data.
    /// - A fresh root (or one whose init was interrupted) is initialised
    ///   with `shards` shards (clamped to `1..=MAX_SHARDS`).
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on filesystem failures, [`StoreError::Corrupt`]
    /// on a bad manifest, a shard directory the manifest names but that
    /// is missing, log files in a root with no manifest, or any shard
    /// failing validation.
    pub fn open(
        dir: impl AsRef<Path>,
        shards: usize,
        config: StoreConfig,
    ) -> Result<ShardedLogStore, StoreError> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        let started = Instant::now();

        let count = if dir.join(MANIFEST_NAME).exists() {
            let count = read_manifest(&dir)?;
            if let Some(missing) = (0..count).map(|i| shard_dir(&dir, i)).find(|d| !d.is_dir()) {
                return Err(StoreError::Corrupt(format!(
                    "{}: the manifest names {} but it is missing",
                    dir.display(),
                    missing.display()
                )));
            }
            count
        } else {
            init_root(&dir, shards)?
        };
        let shards = open_shards_parallel(&dir, count, config)?;
        let store = ShardedLogStore { dir, shards, poisoned: AtomicBool::new(false) };

        pe_observe::gauge("store.shard.count").set(store.shards.len() as u64);
        pe_observe::static_histogram!("store.shard.parallel_open_ns")
            .record_duration(started.elapsed());
        Ok(store)
    }

    /// The store root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Shard index a document id routes to.
    pub fn shard_for(&self, id: &str) -> usize {
        (hash_id(id) % self.shards.len() as u64) as usize
    }

    /// Live WAL bytes across all shards.
    pub fn log_bytes(&self) -> u64 {
        self.shards.iter().map(LogStore::log_bytes).sum()
    }

    /// WAL records replayed across all shards when this store was
    /// opened. Like [`ShardedLogStore::group_stats`], it belongs to this
    /// store alone, so concurrent users of the global metrics registry
    /// cannot skew it.
    pub fn replayed_records(&self) -> u64 {
        self.shards.iter().map(LogStore::replayed_records).sum()
    }

    /// Group-commit counters summed across shards (`max_batch_records`
    /// is the max over shards).
    pub fn group_stats(&self) -> GroupStats {
        let mut total = GroupStats::default();
        for shard in &self.shards {
            let s = shard.group_stats();
            total.appends += s.appends;
            total.fsyncs += s.fsyncs;
            total.fsyncs_saved += s.fsyncs_saved;
            total.max_batch_records = total.max_batch_records.max(s.max_batch_records);
        }
        total
    }

    fn route(&self, id: &str) -> &LogStore {
        &self.shards[self.shard_for(id)]
    }

    fn check(&self) -> Result<(), StoreError> {
        if self.poisoned.load(Ordering::SeqCst) {
            Err(StoreError::Poisoned)
        } else {
            Ok(())
        }
    }

    /// Propagates a shard failure to the whole store: an injected crash
    /// (or poisoned shard) models the process dying, and a dead process
    /// serves nothing.
    fn escalate<T>(&self, result: Result<T, StoreError>) -> Result<T, StoreError> {
        if matches!(result, Err(StoreError::InjectedCrash(_)) | Err(StoreError::Poisoned)) {
            self.poisoned.store(true, Ordering::SeqCst);
        }
        result
    }
}

impl DocStore for ShardedLogStore {
    fn get(&self, id: &str) -> Option<DocState> {
        self.route(id).get(id)
    }

    fn content(&self, id: &str) -> Option<Vec<u8>> {
        self.route(id).content(id)
    }

    fn contains(&self, id: &str) -> bool {
        self.route(id).contains(id)
    }

    fn list(&self) -> Vec<String> {
        let mut all: Vec<String> = self.shards.iter().flat_map(DocStore::list).collect();
        all.sort_unstable();
        all
    }

    fn create(&self, id: &str) -> Result<bool, StoreError> {
        self.check()?;
        self.escalate(self.route(id).create(id))
    }

    fn put_full(&self, id: &str, content: &[u8]) -> Result<u64, StoreError> {
        self.check()?;
        self.escalate(self.route(id).put_full(id, content))
    }

    fn apply_delta(
        &self,
        id: &str,
        delta: &pe_delta::Delta,
        limits: DeltaLimits,
    ) -> Result<DocState, StoreError> {
        self.check()?;
        self.escalate(self.route(id).apply_delta(id, delta, limits))
    }

    fn remove(&self, id: &str) -> Result<bool, StoreError> {
        self.check()?;
        self.escalate(self.route(id).remove(id))
    }

    fn meta(&self, key: &str) -> Option<u64> {
        self.shards[0].meta(key)
    }

    fn set_meta(&self, key: &str, value: u64) -> Result<(), StoreError> {
        self.check()?;
        self.escalate(self.shards[0].set_meta(key, value))
    }

    fn bump_meta(&self, key: &str) -> Result<u64, StoreError> {
        self.check()?;
        self.escalate(self.shards[0].bump_meta(key))
    }

    fn meta_entries(&self) -> Vec<(String, u64)> {
        self.shards[0].meta_entries()
    }

    fn flush(&self) -> Result<(), StoreError> {
        self.check()?;
        for shard in &self.shards {
            self.escalate(shard.flush())?;
        }
        Ok(())
    }

    fn compact(&self) -> Result<CompactionStats, StoreError> {
        self.check()?;
        let mut total = CompactionStats::default();
        for shard in &self.shards {
            let stats = self.escalate(shard.compact())?;
            total.covered_seq = total.covered_seq.max(stats.covered_seq);
            total.snapshot_bytes += stats.snapshot_bytes;
            total.segments_removed += stats.segments_removed;
            total.snapshots_removed += stats.snapshots_removed;
            total.docs += stats.docs;
        }
        Ok(total)
    }

    fn name(&self) -> &'static str {
        "sharded-log"
    }
}

/// Read-only verification of a store root: validates the manifest, then
/// every shard's snapshot CRCs and WAL frames, without modifying
/// anything. The report carries one sub-report per shard and is healthy
/// only if every shard is; a missing shard directory is an error.
///
/// # Errors
///
/// [`StoreError::Io`] only — validation findings land in the report, not
/// in the error channel.
pub fn fsck(dir: impl AsRef<Path>) -> Result<FsckReport, StoreError> {
    let dir = dir.as_ref();
    let mut report = FsckReport::default();
    if !dir.join(MANIFEST_NAME).is_file() {
        report
            .errors
            .push(format!("{} is not a store root (no {MANIFEST_NAME} manifest)", dir.display()));
        return Ok(report);
    }
    match read_manifest(dir) {
        Ok(count) => {
            for shard in 0..count {
                let shard_report = fsck_shard(&shard_dir(dir, shard))?;
                report.shards.push((format!("shard-{shard:03}"), shard_report));
            }
        }
        Err(StoreError::Corrupt(msg)) => report.errors.push(msg),
        Err(e) => return Err(e),
    }
    Ok(report)
}
