//! Property tests for the on-disk formats: WAL records round-trip
//! bit-exactly, arbitrary truncation never yields phantoms, and the
//! randomized crash oracle holds.

use std::path::PathBuf;

use proptest::prelude::*;

use pe_store::record::Record;
use pe_store::wal::{self, FsyncPolicy, SegmentWriter};
use pe_store::{CrashPoint, DocStore, ShardedLogStore, StoreConfig, StoreError, StoreFaults};

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let path = std::env::temp_dir().join(format!(
            "pe-prop-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).unwrap();
        TempDir(path)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn record_strategy() -> BoxedStrategy<Record> {
    prop_oneof![
        "[a-z0-9]{1,12}".prop_map(|id| Record::Create { id }),
        ("[a-z0-9]{1,12}", 0u64..1000, proptest::collection::vec(any::<u8>(), 0..200))
            .prop_map(|(id, version, content)| Record::FullSave { id, version, content }),
        ("[a-z0-9]{1,12}", 0u64..1000, "[ -~]{0,60}")
            .prop_map(|(id, version, delta)| Record::Delta { id, version, delta }),
        "[a-z0-9]{1,12}".prop_map(|id| Record::Delete { id }),
        ("[a-z_]{1,16}", any::<u64>()).prop_map(|(key, value)| Record::Meta { key, value }),
        any::<u64>().prop_map(|covered_seq| Record::SnapshotMarker { covered_seq }),
    ]
    .boxed()
}

proptest! {
    #[test]
    fn records_round_trip_bit_exactly(record in record_strategy()) {
        let encoded = record.encode();
        let decoded = Record::decode(&encoded).expect("own encoding decodes");
        prop_assert_eq!(&decoded, &record);
        // Any strict prefix must be rejected, never mis-decoded.
        for cut in 0..encoded.len() {
            prop_assert!(Record::decode(&encoded[..cut]).is_err(), "prefix {} accepted", cut);
        }
    }

    #[test]
    fn truncated_segments_yield_an_exact_record_prefix(
        records in proptest::collection::vec(record_strategy(), 1..12),
        cut_fraction in 0u32..1000,
    ) {
        let dir = TempDir::new("trunc");
        let mut w = SegmentWriter::open(&dir.0, 1, 0, FsyncPolicy::Never, None).unwrap();
        let mut offsets = Vec::new(); // valid end offsets after each record
        for r in &records {
            w.append(r).unwrap();
            offsets.push(w.len());
        }
        w.flush().unwrap();
        let full_len = w.len();
        drop(w);

        let cut = (full_len * cut_fraction as u64 / 1000).min(full_len);
        let path = wal::segment_path(&dir.0, 1);
        let file = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
        file.set_len(cut).unwrap();
        drop(file);

        let mut seen = Vec::new();
        let stats = wal::replay_segment(&path, |r| seen.push(r)).unwrap();
        // Replay recovers exactly the records whose frames fit below the cut.
        let survivors = offsets.iter().filter(|&&end| end <= cut).count();
        prop_assert_eq!(seen.len(), survivors);
        prop_assert_eq!(&seen[..], &records[..survivors]);
        prop_assert_eq!(stats.valid_bytes + stats.torn_bytes, cut);

        // Repair + one more append leaves a clean log.
        let mut w =
            SegmentWriter::open(&dir.0, 1, stats.valid_bytes, FsyncPolicy::Never, None).unwrap();
        w.append(&Record::Create { id: "fresh".into() }).unwrap();
        w.flush().unwrap();
        drop(w);
        let mut count = 0;
        let clean = wal::replay_segment(&path, |_| count += 1).unwrap();
        prop_assert_eq!(clean.torn_bytes, 0);
        prop_assert_eq!(count, survivors + 1);
    }

    #[test]
    fn randomized_crash_oracle_recovers_the_acknowledged_prefix(
        ops in proptest::collection::vec(
            ("[a-e]", proptest::collection::vec(any::<u8>(), 0..40)),
            2..20,
        ),
        crash_at in 1u64..20,
        point_pick in 0u8..3,
        seed in any::<u64>(),
    ) {
        prop_assume!(crash_at <= ops.len() as u64);
        let point = match point_pick {
            0 => CrashPoint::BeforeFsync,
            1 => CrashPoint::MidWrite,
            _ => CrashPoint::TruncateTail,
        };
        let dir = TempDir::new("oracle");
        let mut acked: Vec<(String, Vec<u8>)> = Vec::new();
        {
            let store = ShardedLogStore::open(
                &dir.0,
                1,
                StoreConfig {
                    faults: Some(StoreFaults::at_append(point, crash_at, seed)),
                    ..StoreConfig::default()
                },
            )
            .unwrap();
            for (id, content) in &ops {
                match store.put_full(id, content) {
                    Ok(_) => acked.push((id.clone(), content.clone())),
                    Err(StoreError::InjectedCrash(_)) => break,
                    Err(e) => return Err(TestCaseError::fail(format!("unexpected: {e}"))),
                }
            }
        }
        prop_assert_eq!(acked.len() as u64, crash_at - 1);

        // Replay the acknowledged prefix into expected latest-contents.
        let mut expected = std::collections::BTreeMap::new();
        for (id, content) in &acked {
            expected.insert(id.clone(), content.clone());
        }
        let store = ShardedLogStore::open(&dir.0, 1, StoreConfig::default()).unwrap();
        let recovered: std::collections::BTreeMap<String, Vec<u8>> = store
            .list()
            .into_iter()
            .map(|id| {
                let content = store.content(&id).unwrap();
                (id, content)
            })
            .collect();
        prop_assert_eq!(recovered, expected);
    }
}

/// One randomized step against both the sharded store and the model.
#[derive(Debug, Clone)]
enum ModelOp {
    Create(String),
    PutFull(String, Vec<u8>),
    Remove(String),
    BumpMeta(String),
    SetMeta(String, u64),
    Compact,
}

fn model_op_strategy() -> BoxedStrategy<ModelOp> {
    let id = "[a-h]";
    prop_oneof![
        id.prop_map(ModelOp::Create),
        (id, proptest::collection::vec(any::<u8>(), 0..60))
            .prop_map(|(id, content)| ModelOp::PutFull(id, content)),
        id.prop_map(ModelOp::Remove),
        "[xy]".prop_map(ModelOp::BumpMeta),
        ("[xy]", 0u64..100).prop_map(|(k, v)| ModelOp::SetMeta(k, v)),
        proptest::strategy::Just(ModelOp::Compact),
    ]
    .boxed()
}

proptest! {
    /// [`pe_store::ShardedLogStore`] and [`pe_store::MemStore`] agree as
    /// models under random interleaved ops (including compactions), and
    /// the agreement survives a reopen.
    #[test]
    fn sharded_store_agrees_with_memstore_model(
        ops in proptest::collection::vec(model_op_strategy(), 1..40),
        shards in 1usize..5,
    ) {
        use pe_store::MemStore;
        let dir = TempDir::new("model");
        let model = MemStore::new();
        {
            let store = ShardedLogStore::open(&dir.0, shards, StoreConfig::default()).unwrap();
            prop_assert_eq!(store.shard_count(), shards);
            for op in &ops {
                match op {
                    ModelOp::Create(id) => {
                        prop_assert_eq!(store.create(id).unwrap(), model.create(id).unwrap());
                    }
                    ModelOp::PutFull(id, content) => {
                        prop_assert_eq!(
                            store.put_full(id, content).unwrap(),
                            model.put_full(id, content).unwrap()
                        );
                    }
                    ModelOp::Remove(id) => {
                        prop_assert_eq!(store.remove(id).unwrap(), model.remove(id).unwrap());
                    }
                    ModelOp::BumpMeta(key) => {
                        prop_assert_eq!(
                            store.bump_meta(key).unwrap(),
                            model.bump_meta(key).unwrap()
                        );
                    }
                    ModelOp::SetMeta(key, value) => {
                        store.set_meta(key, *value).unwrap();
                        model.set_meta(key, *value).unwrap();
                    }
                    ModelOp::Compact => {
                        store.compact().unwrap();
                    }
                }
            }
            prop_assert_eq!(store.list(), model.list());
            prop_assert_eq!(store.meta_entries(), model.meta_entries());
            for id in model.list() {
                prop_assert_eq!(store.get(&id), model.get(&id));
            }
        }
        // Same equality after crash-free recovery.
        let store = ShardedLogStore::open(&dir.0, shards, StoreConfig::default()).unwrap();
        prop_assert_eq!(store.shard_count(), shards);
        prop_assert_eq!(store.list(), model.list());
        prop_assert_eq!(store.meta_entries(), model.meta_entries());
        for id in model.list() {
            prop_assert_eq!(store.get(&id), model.get(&id));
        }
    }
}
