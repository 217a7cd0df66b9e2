//! The in-memory store: yesterday's `HashMap` behaviour behind today's
//! trait, for tests, benchmarks baselines, and ephemeral servers.

use crate::index::{Index, DEFAULT_SHARDS};
use crate::log::CompactionStats;
use crate::{DeltaLimits, DocState, DocStore, StoreError};

/// A purely in-memory [`DocStore`]. Nothing survives the process — which
/// is exactly the property benchmarks compare
/// [`crate::ShardedLogStore`] against.
#[derive(Debug)]
pub struct MemStore {
    index: Index,
    /// Serializes writers so the read-check-apply of a delta (and its
    /// [`DeltaLimits::base_version`] precondition) is atomic against
    /// concurrent saves, matching each log shard's write lock.
    write_lock: parking_lot::Mutex<()>,
}

impl MemStore {
    /// Creates an empty store with the default shard count.
    pub fn new() -> MemStore {
        MemStore { index: Index::new(DEFAULT_SHARDS), write_lock: parking_lot::Mutex::new(()) }
    }
}

impl Default for MemStore {
    fn default() -> MemStore {
        MemStore::new()
    }
}

/// Rejects the apply when a [`DeltaLimits::base_version`] precondition
/// does not match the document's current version. Callers must hold
/// their writer lock so the check is atomic with the write.
pub(crate) fn check_base_version(current: u64, limits: DeltaLimits) -> Result<(), StoreError> {
    match limits.base_version {
        Some(base) if base != current => Err(StoreError::Conflict(format!(
            "delta base version {base} is stale (document at {current})"
        ))),
        _ => Ok(()),
    }
}

/// Applies a delta against `current` under `limits`, shared by both
/// backends so their error behaviour is byte-identical.
pub(crate) fn apply_delta_checked(
    current: &[u8],
    delta: &pe_delta::Delta,
    limits: DeltaLimits,
) -> Result<Vec<u8>, StoreError> {
    let updated =
        delta.apply_bytes(current).map_err(|e| StoreError::Conflict(e.to_string()))?;
    if updated.len() > limits.max_len {
        return Err(StoreError::TooLarge { len: updated.len(), max: limits.max_len });
    }
    if limits.require_utf8 && std::str::from_utf8(&updated).is_err() {
        return Err(StoreError::InvalidUtf8);
    }
    Ok(updated)
}

impl DocStore for MemStore {
    fn get(&self, id: &str) -> Option<DocState> {
        self.index.get(id)
    }

    fn content(&self, id: &str) -> Option<Vec<u8>> {
        self.index.content(id)
    }

    fn contains(&self, id: &str) -> bool {
        self.index.contains(id)
    }

    fn list(&self) -> Vec<String> {
        self.index.list()
    }

    fn create(&self, id: &str) -> Result<bool, StoreError> {
        Ok(self.index.apply_create(id))
    }

    fn put_full(&self, id: &str, content: &[u8]) -> Result<u64, StoreError> {
        let _writers = self.write_lock.lock();
        Ok(self.index.apply_save(id, content.to_vec()))
    }

    fn apply_delta(
        &self,
        id: &str,
        delta: &pe_delta::Delta,
        limits: DeltaLimits,
    ) -> Result<DocState, StoreError> {
        let _writers = self.write_lock.lock();
        let current = self.index.content(id).ok_or(StoreError::NoSuchDocument)?;
        check_base_version(self.index.version(id).unwrap_or(0), limits)?;
        let updated = apply_delta_checked(&current, delta, limits)?;
        let version = self.index.apply_save(id, updated.clone());
        Ok(DocState { content: updated, version, revisions: Vec::new() })
    }

    fn remove(&self, id: &str) -> Result<bool, StoreError> {
        Ok(self.index.apply_remove(id))
    }

    fn meta(&self, key: &str) -> Option<u64> {
        self.index.meta_get(key)
    }

    fn set_meta(&self, key: &str, value: u64) -> Result<(), StoreError> {
        self.index.meta_set(key, value);
        Ok(())
    }

    fn bump_meta(&self, key: &str) -> Result<u64, StoreError> {
        Ok(self.index.meta_bump(key))
    }

    fn meta_entries(&self) -> Vec<(String, u64)> {
        self.index.meta_entries()
    }

    fn flush(&self) -> Result<(), StoreError> {
        Ok(())
    }

    fn compact(&self) -> Result<CompactionStats, StoreError> {
        Ok(CompactionStats::default())
    }

    fn name(&self) -> &'static str {
        "mem"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pe_delta::Delta;
    use std::sync::Arc;

    #[test]
    fn full_lifecycle() {
        let store = MemStore::new();
        assert!(store.create("d").unwrap());
        assert!(!store.create("d").unwrap());
        assert_eq!(store.put_full("d", b"abcdefg").unwrap(), 1);
        let delta = Delta::parse("=2\t-3\t+uv\t=2\t+w").unwrap();
        let state = store.apply_delta("d", &delta, DeltaLimits::none()).unwrap();
        assert_eq!(state.content, b"abuvfgw");
        assert_eq!(state.version, 2);
        let full = store.get("d").unwrap();
        assert_eq!(
            full.revisions,
            vec![Arc::new(Vec::new()), Arc::new(b"abcdefg".to_vec())]
        );
        assert!(store.remove("d").unwrap());
        assert!(store.get("d").is_none());
    }

    #[test]
    fn delta_limits_are_enforced_before_commit() {
        let store = MemStore::new();
        store.put_full("d", b"base").unwrap();
        let grow = Delta::parse("=4\t+xxxxxxxx").unwrap();
        let err = store
            .apply_delta("d", &grow, DeltaLimits { max_len: 8, ..DeltaLimits::none() })
            .unwrap_err();
        assert!(matches!(err, StoreError::TooLarge { len: 12, max: 8 }));
        assert_eq!(store.content("d").unwrap(), b"base", "nothing committed");
        assert_eq!(store.get("d").unwrap().version, 1);

        let conflict = Delta::parse("=100\t-1").unwrap();
        assert!(matches!(
            store.apply_delta("d", &conflict, DeltaLimits::none()),
            Err(StoreError::Conflict(_))
        ));
        assert!(matches!(
            store.apply_delta("missing", &grow, DeltaLimits::none()),
            Err(StoreError::NoSuchDocument)
        ));
    }

    #[test]
    fn utf8_requirement_blocks_byte_splits() {
        let store = MemStore::new();
        store.put_full("d", "héllo".as_bytes()).unwrap();
        // Delete one byte of the two-byte é.
        let split = Delta::parse("=1\t-1\t=4").unwrap();
        let err = store
            .apply_delta("d", &split, DeltaLimits { require_utf8: true, ..DeltaLimits::none() })
            .unwrap_err();
        assert!(matches!(err, StoreError::InvalidUtf8));
        // Without the requirement the same delta commits.
        assert!(store.apply_delta("d", &split, DeltaLimits::none()).is_ok());
    }

    #[test]
    fn base_version_precondition_rejects_stale_writers() {
        let store = MemStore::new();
        store.put_full("d", b"one").unwrap();
        let delta = Delta::parse("=3\t+ two").unwrap();
        // Fresh precondition commits and bumps the version.
        let state = store.apply_delta("d", &delta, DeltaLimits::none().at_version(1)).unwrap();
        assert_eq!(state.version, 2);
        // The same precondition is now stale: nothing commits.
        let err =
            store.apply_delta("d", &delta, DeltaLimits::none().at_version(1)).unwrap_err();
        assert!(matches!(err, StoreError::Conflict(_)));
        assert_eq!(store.content("d").unwrap(), b"one two");
    }

    #[test]
    fn meta_and_flush_are_trivial() {
        let store = MemStore::new();
        assert_eq!(store.bump_meta("n").unwrap(), 1);
        store.set_meta("n", 10).unwrap();
        assert_eq!(store.meta("n"), Some(10));
        store.flush().unwrap();
        assert_eq!(store.compact().unwrap(), CompactionStats::default());
        assert_eq!(store.name(), "mem");
    }
}
