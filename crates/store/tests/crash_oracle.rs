//! The crash-recovery oracle.
//!
//! For every append-path crash point, every crash position in a scripted
//! workload, and a spread of seeds, this test:
//!
//! 1. runs the workload against a single-shard [`ShardedLogStore`] armed
//!    with the fault plan,
//!    mirroring every **acknowledged** operation into a [`MemStore`]
//!    model;
//! 2. when the injected crash fires, checks the store is poisoned (a
//!    crashed process cannot keep serving);
//! 3. reopens the directory with no faults and demands the recovered
//!    state equal the model **exactly** — every acknowledged write
//!    present, nothing unacknowledged visible.
//!
//! Under [`FsyncPolicy::Always`] that equality is the durability contract
//! of the whole subsystem. Under `EveryN`/`Never` the weaker prefix
//! property is checked instead: recovery yields a prefix of the
//! acknowledged sequence, never phantoms.

use std::path::PathBuf;

use pe_store::{
    shard_dir, CrashPoint, DeltaLimits, DocStore, FsyncPolicy, MemStore, ShardedLogStore,
    StoreConfig, StoreError, StoreFaults,
};

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let path = std::env::temp_dir().join(format!(
            "pe-oracle-{tag}-{}-{:?}",
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

/// One step of the scripted workload. Every variant costs exactly one
/// WAL append, so append ordinals and script positions line up.
#[derive(Debug, Clone)]
enum Op {
    Create(&'static str),
    PutFull(&'static str, &'static [u8]),
    Delta(&'static str, &'static str),
    Remove(&'static str),
    BumpMeta(&'static str),
}

/// A workload touching every record kind: creates, full saves, deltas,
/// a removal, and metadata bumps.
fn script() -> Vec<Op> {
    vec![
        Op::Create("alpha"),
        Op::BumpMeta("next_doc"),
        Op::PutFull("alpha", b"first draft"),
        Op::PutFull("beta", b"abcdefg"),
        Op::Delta("beta", "=2\t-3\t+uv\t=2\t+w"),
        Op::PutFull("alpha", b"second draft"),
        Op::BumpMeta("next_session"),
        Op::Delta("alpha", "=6\t-6\t+revision"),
        Op::Create("gamma"),
        Op::Remove("beta"),
        Op::PutFull("gamma", b"late arrival"),
        Op::BumpMeta("next_doc"),
    ]
}

/// Applies one op to a store; `Ok` means acknowledged.
fn apply(store: &dyn DocStore, op: &Op) -> Result<(), StoreError> {
    match op {
        Op::Create(id) => store.create(id).map(|_| ()),
        Op::PutFull(id, content) => store.put_full(id, content).map(|_| ()),
        Op::Delta(id, delta) => {
            let delta = pe_delta::Delta::parse(delta).expect("script deltas parse");
            store.apply_delta(id, &delta, DeltaLimits::none()).map(|_| ())
        }
        Op::Remove(id) => store.remove(id).map(|_| ()),
        Op::BumpMeta(key) => store.bump_meta(key).map(|_| ()),
    }
}

/// Documents and metadata counters, for exact comparison.
type ObservedState = (Vec<(String, pe_store::DocState)>, Vec<(String, u64)>);

/// Full observable state of a store, for exact comparison.
fn observe(store: &dyn DocStore) -> ObservedState {
    let docs = store
        .list()
        .into_iter()
        .map(|id| {
            let state = store.get(&id).expect("listed doc exists");
            (id, state)
        })
        .collect();
    (docs, store.meta_entries())
}

/// Runs the script against a faulted store and returns the model of the
/// acknowledged prefix plus how many ops were acknowledged.
fn run_faulted(dir: &std::path::Path, faults: StoreFaults, policy: FsyncPolicy) -> (MemStore, usize) {
    let store = ShardedLogStore::open(
        dir,
        1,
        StoreConfig { fsync: policy, faults: Some(faults), ..StoreConfig::default() },
    )
    .expect("open armed store");
    let model = MemStore::new();
    let mut acked = 0usize;
    let mut crashed = false;
    for op in script() {
        match apply(&store, &op) {
            Ok(()) => {
                apply(&model, &op).expect("model mirrors acknowledged ops");
                acked += 1;
            }
            Err(StoreError::InjectedCrash(_)) => {
                crashed = true;
                // A crashed store is poisoned until reopened.
                assert!(
                    matches!(store.put_full("alpha", b"post-crash"), Err(StoreError::Poisoned)),
                    "store must refuse work after the crash"
                );
                break;
            }
            Err(e) => panic!("unexpected store error: {e}"),
        }
    }
    assert!(crashed, "fault plan {faults:?} never fired");
    drop(store);
    (model, acked)
}

#[test]
fn every_append_crash_recovers_exactly_the_acknowledged_prefix() {
    let total_appends = script().len() as u64;
    for point in [CrashPoint::BeforeFsync, CrashPoint::MidWrite, CrashPoint::TruncateTail] {
        for at in 1..=total_appends {
            for seed in [1u64, 7, 1234] {
                let dir = TempDir::new(&format!("{}-{at}-{seed}", point.name()));
                let faults = StoreFaults::at_append(point, at, seed);
                let (model, acked) = run_faulted(&dir.0, faults, FsyncPolicy::Always);

                let recovered = ShardedLogStore::open(&dir.0, 1, StoreConfig::default())
                    .expect("reopen after crash");
                assert_eq!(
                    observe(&recovered),
                    observe(&model),
                    "{} at append {at} seed {seed}: recovered state ({acked} acked ops) diverged",
                    point.name()
                );
                // The recovered store is live again: it accepts writes.
                recovered.put_full("alpha", b"life after recovery").expect("recovered store writes");
            }
        }
    }
}

#[test]
fn relaxed_fsync_policies_lose_at_most_a_suffix_never_phantoms() {
    // Single-document counter workload: content is the op index, so any
    // recovered state identifies exactly which prefix survived.
    for policy in [FsyncPolicy::EveryN(3), FsyncPolicy::Never] {
        for at in [1u64, 4, 9] {
            let dir = TempDir::new(&format!("relaxed-{}-{at}", policy.label()));
            {
                let store = ShardedLogStore::open(
                    &dir.0,
                    1,
                    StoreConfig {
                        fsync: policy,
                        faults: Some(StoreFaults::at_append(CrashPoint::BeforeFsync, at, 5)),
                        ..StoreConfig::default()
                    },
                )
                .unwrap();
                for i in 1..=12u64 {
                    match store.put_full("doc", format!("v{i}").as_bytes()) {
                        Ok(_) => {}
                        Err(StoreError::InjectedCrash(_)) => break,
                        Err(e) => panic!("unexpected error: {e}"),
                    }
                }
            }
            let store = ShardedLogStore::open(&dir.0, 1, StoreConfig::default()).unwrap();
            match store.get("doc") {
                None => {} // everything lost: an allowed (empty) prefix
                Some(state) => {
                    let text = String::from_utf8(state.content).unwrap();
                    let v: u64 = text.strip_prefix('v').unwrap().parse().unwrap();
                    assert!(v < at, "{}: recovered v{v} was never acknowledged", policy.label());
                    assert_eq!(state.version, v, "version tracks the surviving prefix");
                }
            }
        }
    }
}

#[test]
fn crash_before_snapshot_rename_loses_nothing() {
    let dir = TempDir::new("snap-before");
    {
        let store = ShardedLogStore::open(
            &dir.0,
            1,
            StoreConfig {
                faults: Some(StoreFaults::in_compaction(CrashPoint::SnapshotBeforeRename, 3)),
                ..StoreConfig::default()
            },
        )
        .unwrap();
        for op in script() {
            apply(&store, &op).unwrap();
        }
        match store.compact() {
            Err(StoreError::InjectedCrash(_)) => {}
            other => panic!("expected injected compaction crash, got {other:?}"),
        }
        assert!(matches!(store.flush(), Err(StoreError::Poisoned)));
    }
    // The orphaned .tmp must not confuse reopen; all data survives.
    let model = MemStore::new();
    for op in script() {
        apply(&model, &op).unwrap();
    }
    let recovered = ShardedLogStore::open(&dir.0, 1, StoreConfig::default()).unwrap();
    assert_eq!(observe(&recovered), observe(&model));
    let leftovers: Vec<_> = std::fs::read_dir(shard_dir(&dir.0, 0))
        .unwrap()
        .filter_map(|e| e.unwrap().file_name().into_string().ok())
        .filter(|n| n.ends_with(".tmp"))
        .collect();
    assert!(leftovers.is_empty(), "reopen must clear temp snapshots: {leftovers:?}");
}

#[test]
fn crash_after_snapshot_rename_leaves_a_recoverable_store() {
    let dir = TempDir::new("snap-after");
    {
        let store = ShardedLogStore::open(
            &dir.0,
            1,
            StoreConfig {
                faults: Some(StoreFaults::in_compaction(CrashPoint::SnapshotAfterRename, 3)),
                ..StoreConfig::default()
            },
        )
        .unwrap();
        for op in script() {
            apply(&store, &op).unwrap();
        }
        assert!(matches!(store.compact(), Err(StoreError::InjectedCrash(_))));
    }
    // The snapshot published but GC never ran: superseded segments
    // linger. Reopen must pick the snapshot and ignore them.
    let model = MemStore::new();
    for op in script() {
        apply(&model, &op).unwrap();
    }
    let recovered = ShardedLogStore::open(&dir.0, 1, StoreConfig::default()).unwrap();
    assert_eq!(observe(&recovered), observe(&model));
    // And the next compaction cleans up the mess for good.
    let stats = recovered.compact().expect("compaction after recovery");
    assert!(stats.segments_removed >= 1);
    let report = pe_store::fsck(&dir.0).unwrap();
    assert!(report.is_healthy(), "{}", report.render());
}

#[test]
fn fsck_agrees_with_open_after_every_crash_point() {
    for point in [CrashPoint::BeforeFsync, CrashPoint::MidWrite, CrashPoint::TruncateTail] {
        let dir = TempDir::new(&format!("fsck-{}", point.name()));
        let faults = StoreFaults::at_append(point, 6, 11);
        let _ = run_faulted(&dir.0, faults, FsyncPolicy::Always);
        let report = pe_store::fsck(&dir.0).unwrap();
        assert!(
            report.is_healthy(),
            "{}: a torn tail is recoverable, fsck must not call it fatal:\n{}",
            point.name(),
            report.render()
        );
        ShardedLogStore::open(&dir.0, 1, StoreConfig::default())
            .expect("fsck healthy implies open works");
    }
}

// ---------------------------------------------------------------------
// Sharded + group-commit oracle.
//
// The same durability contract, now with the write path at its most
// concurrent: N shards, each batching K appenders' records into group
// fsyncs, with seeded crash points landing mid-batch (frames drained
// but unsynced) and between shard fsyncs (one shard dies while others
// already acknowledged).
// ---------------------------------------------------------------------

/// Sequential script oracle over a sharded store: every crash point ×
/// position × seed, exact-prefix recovery. The crashing shard discards
/// its tail; every other shard keeps all its acknowledged records.
#[test]
fn sharded_crash_recovers_exactly_the_acknowledged_prefix() {
    let total_appends = script().len() as u64;
    for point in [CrashPoint::BeforeFsync, CrashPoint::MidWrite, CrashPoint::TruncateTail] {
        for at in 1..=total_appends {
            for seed in [3u64, 77] {
                let dir = TempDir::new(&format!("shard-{}-{at}-{seed}", point.name()));
                let faults = StoreFaults::at_append(point, at, seed);
                let store = ShardedLogStore::open(
                    &dir.0,
                    3,
                    StoreConfig {
                        faults: Some(faults),
                        ..StoreConfig::default()
                    },
                )
                .expect("open armed sharded store");
                let model = MemStore::new();
                let mut crashed = false;
                for op in script() {
                    match apply(&store, &op) {
                        Ok(()) => apply(&model, &op).expect("model mirrors acks"),
                        Err(StoreError::InjectedCrash(_)) => {
                            crashed = true;
                            assert!(
                                matches!(
                                    store.put_full("alpha", b"post-crash"),
                                    Err(StoreError::Poisoned)
                                ),
                                "a crashed shard poisons the whole store"
                            );
                            break;
                        }
                        Err(e) => panic!("unexpected store error: {e}"),
                    }
                }
                drop(store);
                if !crashed {
                    // With ops spread over 3 shards, no shard may reach
                    // append ordinal `at`; nothing to check then.
                    continue;
                }
                let recovered = ShardedLogStore::open(&dir.0, 3, StoreConfig::default())
                    .expect("reopen after crash");
                assert_eq!(
                    observe(&recovered),
                    observe(&model),
                    "sharded {} at append {at} seed {seed}: recovered state diverged",
                    point.name()
                );
                recovered.put_full("alpha", b"life after recovery").expect("store is live again");
            }
        }
    }
}

/// K concurrent appenders over a sharded group-commit store, crash
/// injected mid-stream. Per-thread sequential puts give each document a
/// self-describing history (`content == "t:v"`), so recovery can be
/// checked per shard without a global total order:
///
/// - **acked ⊆ recovered** (fsync=always): every acknowledged version
///   is present after reopen;
/// - **recovered ⊆ attempted** (all policies): no phantom versions,
///   and content always matches the version counter.
#[test]
fn concurrent_group_commit_crash_recovers_acked_no_phantoms() {
    const THREADS: usize = 6;
    const PER_THREAD: u64 = 30;
    for policy in [FsyncPolicy::Always, FsyncPolicy::EveryN(5), FsyncPolicy::Never] {
        for (at, seed) in [(10u64, 2u64), (25, 9), (40, 31)] {
            let dir = TempDir::new(&format!("conc-{}-{at}-{seed}", policy.label()));
            let mut acked = [0u64; THREADS];
            let mut crashes = 0usize;
            {
                let store = ShardedLogStore::open(
                    &dir.0,
                    3,
                    StoreConfig {
                        fsync: policy,
                        faults: Some(StoreFaults::at_append(CrashPoint::BeforeFsync, at, seed)),
                        ..StoreConfig::default()
                    },
                )
                .unwrap();
                let results: Vec<(u64, bool)> = std::thread::scope(|scope| {
                    let handles: Vec<_> = (0..THREADS)
                        .map(|t| {
                            let store = &store;
                            scope.spawn(move || {
                                let id = format!("writer-{t}");
                                let mut highest = 0u64;
                                let mut crashed = false;
                                for v in 1..=PER_THREAD {
                                    match store.put_full(&id, format!("{t}:{v}").as_bytes()) {
                                        Ok(version) => {
                                            assert_eq!(version, v);
                                            highest = v;
                                        }
                                        Err(StoreError::InjectedCrash(_)) => {
                                            crashed = true;
                                            break;
                                        }
                                        Err(StoreError::Poisoned) => break,
                                        Err(e) => panic!("unexpected error: {e}"),
                                    }
                                }
                                (highest, crashed)
                            })
                        })
                        .collect();
                    handles.into_iter().map(|h| h.join().unwrap()).collect()
                });
                for (t, (highest, crashed)) in results.into_iter().enumerate() {
                    acked[t] = highest;
                    if crashed {
                        crashes += 1;
                    }
                }
            }
            // Each armed shard fires at most one injected crash; with a
            // shared ordinal some shards may never reach it.
            assert!(crashes <= 3, "at most one injected crash per shard");

            let recovered = ShardedLogStore::open(&dir.0, 3, StoreConfig::default()).unwrap();
            for (t, &acked_v) in acked.iter().enumerate() {
                let id = format!("writer-{t}");
                match recovered.get(&id) {
                    None => assert!(
                        !matches!(policy, FsyncPolicy::Always) || acked_v == 0,
                        "{}: writer-{t} acked v{acked_v} but nothing recovered",
                        policy.label(),
                    ),
                    Some(state) => {
                        let text = String::from_utf8(state.content.clone()).unwrap();
                        let (tt, vv) = text.split_once(':').unwrap();
                        let recovered_v: u64 = vv.parse().unwrap();
                        assert_eq!(tt.parse::<usize>().unwrap(), t);
                        assert_eq!(
                            state.version, recovered_v,
                            "version must match the surviving content"
                        );
                        assert!(
                            recovered_v <= PER_THREAD,
                            "phantom version v{recovered_v} was never attempted"
                        );
                        if matches!(policy, FsyncPolicy::Always) {
                            assert!(
                                recovered_v >= acked_v,
                                "{}: writer-{t} acked v{acked_v} but only v{recovered_v} \
                                 recovered",
                                policy.label(),
                            );
                        }
                        // The revision chain must be the exact prefix
                        // (the first put of a fresh doc keeps no
                        // previous revision).
                        assert_eq!(state.revisions.len() as u64, recovered_v - 1);
                    }
                }
            }
            // fsck agrees the survivor is (recoverably) healthy.
            let report = pe_store::fsck(&dir.0).unwrap();
            assert!(report.is_healthy(), "{}", report.render());
        }
    }
}
