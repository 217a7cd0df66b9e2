//! Integration tests for [`ShardedLogStore`]: initialisation, routing,
//! refusal of roots it did not write, concurrent appenders, and sharded
//! fsck.

use std::path::PathBuf;

use pe_store::{
    fsck, shard_dir, DocStore, ShardedLogStore, StoreConfig, StoreError, MANIFEST_NAME,
};

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let path = std::env::temp_dir().join(format!(
            "pe-sharded-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
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

#[test]
fn fresh_store_writes_manifest_and_routes_documents() {
    let dir = TempDir::new("fresh");
    let store = ShardedLogStore::open(&dir.0, 4, StoreConfig::default()).unwrap();
    assert_eq!(store.shard_count(), 4);
    assert!(dir.0.join(MANIFEST_NAME).is_file());
    for shard in 0..4 {
        assert!(shard_dir(&dir.0, shard).is_dir(), "shard {shard} directory exists");
    }
    for i in 0..32 {
        let id = format!("doc-{i}");
        store.put_full(&id, format!("content {i}").as_bytes()).unwrap();
        // The document's WAL bytes must land in exactly its routed shard.
        assert!(store.shard_for(&id) < 4);
    }
    assert_eq!(store.list().len(), 32);
    // Every shard really is used at 32 docs over 4 shards (FNV spreads).
    let used: std::collections::HashSet<usize> =
        (0..32).map(|i| store.shard_for(&format!("doc-{i}"))).collect();
    assert!(used.len() > 1, "routing must spread documents across shards");
}

#[test]
fn reopen_uses_manifest_count_and_recovers_all_shards() {
    let dir = TempDir::new("reopen");
    {
        let store = ShardedLogStore::open(&dir.0, 4, StoreConfig::default()).unwrap();
        for i in 0..20 {
            store.put_full(&format!("doc-{i}"), format!("v{i}").as_bytes()).unwrap();
        }
        store.set_meta("next_doc", 20).unwrap();
    }
    // A different requested count is ignored: routing must match the
    // layout that wrote the data.
    let store = ShardedLogStore::open(&dir.0, 16, StoreConfig::default()).unwrap();
    assert_eq!(store.shard_count(), 4);
    for i in 0..20 {
        assert_eq!(store.content(&format!("doc-{i}")).unwrap(), format!("v{i}").as_bytes());
    }
    assert_eq!(store.meta("next_doc"), Some(20));
}

#[test]
fn bare_wal_segment_in_root_is_refused_and_left_untouched() {
    let dir = TempDir::new("bare-wal");
    std::fs::create_dir_all(&dir.0).unwrap();
    let segment = dir.0.join("wal-0000000001.log");
    let bytes = b"log bytes written by some other tool".to_vec();
    std::fs::write(&segment, &bytes).unwrap();
    match ShardedLogStore::open(&dir.0, 4, StoreConfig::default()) {
        Err(StoreError::Corrupt(msg)) => assert!(msg.contains(MANIFEST_NAME), "{msg}"),
        other => panic!("expected Corrupt, got {other:?}"),
    }
    assert!(!dir.0.join(MANIFEST_NAME).exists(), "no manifest may be written");
    assert!(!shard_dir(&dir.0, 0).exists(), "no shard directory may be created");
    assert_eq!(std::fs::read(&segment).unwrap(), bytes, "the file must be left as it was");
    assert!(!fsck(&dir.0).unwrap().is_healthy());
}

#[test]
fn missing_shard_directory_is_refused_not_recreated() {
    let dir = TempDir::new("missing-shard");
    {
        let store = ShardedLogStore::open(&dir.0, 2, StoreConfig::default()).unwrap();
        for i in 1..=6 {
            store.put_full(&format!("doc{i}"), format!("body {i}").as_bytes()).unwrap();
        }
        assert!((1..=6).any(|i| store.shard_for(&format!("doc{i}")) == 1));
    }
    let victim = shard_dir(&dir.0, 1);
    std::fs::remove_dir_all(&victim).unwrap();

    match ShardedLogStore::open(&dir.0, 2, StoreConfig::default()) {
        Err(StoreError::Corrupt(msg)) => assert!(msg.contains("shard-001"), "{msg}"),
        other => panic!("expected Corrupt naming the shard, got {other:?}"),
    }
    assert!(!victim.exists(), "open must not recreate a missing shard");
    let report = fsck(&dir.0).unwrap();
    assert!(!report.is_healthy(), "{}", report.render());
    assert!(report.render().ends_with("STORE CORRUPT"));
    assert!(!victim.exists(), "fsck must not recreate a missing shard");
}

#[test]
fn interrupted_init_with_empty_shard_dirs_initialises() {
    let dir = TempDir::new("interrupted-init");
    // A crash between creating the shard directories and publishing the
    // manifest leaves exactly this behind.
    for shard in 0..3 {
        std::fs::create_dir_all(shard_dir(&dir.0, shard)).unwrap();
    }
    let store = ShardedLogStore::open(&dir.0, 3, StoreConfig::default()).unwrap();
    assert_eq!(store.shard_count(), 3);
    assert!(dir.0.join(MANIFEST_NAME).is_file());
    store.put_full("doc", b"after the retry").unwrap();
    drop(store);
    let store = ShardedLogStore::open(&dir.0, 1, StoreConfig::default()).unwrap();
    assert_eq!(store.content("doc").unwrap(), b"after the retry");
}

#[test]
fn shard_dirs_without_manifest_refuse_to_open() {
    let dir = TempDir::new("no-manifest");
    // A shard directory holding log data means the manifest was lost;
    // empty shard directories alone are an interrupted init (above).
    drop(ShardedLogStore::open(&dir.0, 2, StoreConfig::default()).unwrap());
    std::fs::remove_file(dir.0.join(MANIFEST_NAME)).unwrap();
    match ShardedLogStore::open(&dir.0, 4, StoreConfig::default()) {
        Err(StoreError::Corrupt(msg)) => assert!(msg.contains(MANIFEST_NAME), "{msg}"),
        other => panic!("expected Corrupt, got {other:?}"),
    }
    assert!(!dir.0.join(MANIFEST_NAME).exists(), "no manifest may be written");
}

#[test]
fn corrupt_manifest_is_rejected() {
    let dir = TempDir::new("bad-manifest");
    drop(ShardedLogStore::open(&dir.0, 2, StoreConfig::default()).unwrap());
    std::fs::write(dir.0.join(MANIFEST_NAME), b"not a manifest\n").unwrap();
    assert!(matches!(
        ShardedLogStore::open(&dir.0, 2, StoreConfig::default()),
        Err(StoreError::Corrupt(_))
    ));
}

#[test]
fn concurrent_appenders_spread_over_shards_and_survive_reopen() {
    let dir = TempDir::new("concurrent");
    const THREADS: usize = 8;
    const PER_THREAD: usize = 25;
    {
        let store = ShardedLogStore::open(&dir.0, 4, StoreConfig::default()).unwrap();
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let store = &store;
                scope.spawn(move || {
                    let id = format!("writer-{t}");
                    for i in 1..=PER_THREAD {
                        let version =
                            store.put_full(&id, format!("{t}:{i}").as_bytes()).unwrap();
                        assert_eq!(version as usize, i);
                    }
                });
            }
        });
        let stats = store.group_stats();
        assert_eq!(stats.appends as usize, THREADS * PER_THREAD);
        assert_eq!(
            stats.fsyncs + stats.fsyncs_saved,
            stats.appends,
            "every append either led a group fsync or rode one"
        );
    }
    let store = ShardedLogStore::open(&dir.0, 4, StoreConfig::default()).unwrap();
    for t in 0..THREADS {
        let state = store.get(&format!("writer-{t}")).unwrap();
        assert_eq!(state.version as usize, PER_THREAD);
        assert_eq!(state.content, format!("{t}:{PER_THREAD}").as_bytes());
    }
}

#[test]
fn fsck_reports_per_shard_and_flags_a_corrupt_shard() {
    let dir = TempDir::new("fsck");
    {
        let store = ShardedLogStore::open(&dir.0, 3, StoreConfig::default()).unwrap();
        for i in 0..12 {
            store.put_full(&format!("doc-{i}"), b"bytes").unwrap();
        }
    }
    let report = fsck(&dir.0).unwrap();
    assert_eq!(report.shards.len(), 3);
    assert!(report.is_healthy(), "{}", report.render());
    let rendered = report.render();
    assert!(rendered.contains("[shard-001]"), "{rendered}");
    assert!(rendered.contains("store healthy"), "{rendered}");

    // Corrupt one shard's sealed bytes: the whole store is unhealthy and
    // the verdict line cannot read healthy.
    let victim = shard_dir(&dir.0, 1);
    let seg = std::fs::read_dir(&victim)
        .unwrap()
        .map(|e| e.unwrap().path())
        .find(|p| p.extension().is_some_and(|e| e == "log"))
        .expect("shard has a wal segment");
    let mut bytes = std::fs::read(&seg).unwrap();
    assert!(bytes.len() > 12);
    bytes[10] ^= 0xff;
    // Append a second frame worth of garbage so the flip is not a
    // recoverable torn tail.
    bytes.extend_from_slice(&[0xa5; 64]);
    let truncated_midframe = bytes.len() - 32;
    bytes.truncate(truncated_midframe);
    std::fs::write(&seg, &bytes).unwrap();
    let report = fsck(&dir.0).unwrap();
    let rendered = report.render();
    assert!(rendered.ends_with("STORE CORRUPT") || rendered.ends_with("store healthy"));
    // Either the flip corrupted mid-log (error) or only the tail
    // (warning); in the flipped-CRC case it must be fatal.
    assert!(!report.shards[1].1.errors.is_empty() || !report.shards[1].1.warnings.is_empty());
}

#[test]
fn meta_counters_live_on_shard_zero_and_survive_reopen() {
    let dir = TempDir::new("meta");
    {
        let store = ShardedLogStore::open(&dir.0, 4, StoreConfig::default()).unwrap();
        assert_eq!(store.bump_meta("next_doc").unwrap(), 1);
        assert_eq!(store.bump_meta("next_doc").unwrap(), 2);
        store.set_meta("next_session", 41).unwrap();
    }
    let store = ShardedLogStore::open(&dir.0, 4, StoreConfig::default()).unwrap();
    assert_eq!(store.meta("next_doc"), Some(2));
    assert_eq!(store.bump_meta("next_session").unwrap(), 42);
    assert_eq!(
        store.meta_entries(),
        vec![("next_doc".to_string(), 2), ("next_session".to_string(), 42)]
    );
}

#[test]
fn compact_rolls_up_stats_across_shards() {
    let dir = TempDir::new("compact");
    let store = ShardedLogStore::open(&dir.0, 2, StoreConfig::default()).unwrap();
    for i in 0..10 {
        store.put_full(&format!("doc-{i}"), vec![b'z'; 512].as_slice()).unwrap();
    }
    let stats = store.compact().unwrap();
    assert!(stats.docs >= 10, "snapshot covers all documents: {stats:?}");
    assert!(stats.snapshot_bytes > 0);
    let report = fsck(store.dir()).unwrap();
    assert!(report.is_healthy(), "{}", report.render());
}
