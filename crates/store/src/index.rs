//! The in-memory sharded index: doc-id → latest [`DocState`].
//!
//! N shards keyed by a hash of the doc id, each behind its own `RwLock`,
//! so readers (loads, spell checks, exports, admin listings) proceed
//! concurrently while the WAL serializes writers. Both [`crate::MemStore`]
//! and [`crate::LogStore`] are this index; the latter adds the log in
//! front of it.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};

use crate::DocState;

/// Default shard count (a power of two keeps the modulo cheap).
pub const DEFAULT_SHARDS: usize = 16;

#[derive(Debug)]
pub struct Index {
    shards: Vec<RwLock<HashMap<String, DocState>>>,
    meta: Mutex<HashMap<String, u64>>,
}

/// FNV-1a — short ids, no adversarial keys (ids are server-issued).
/// Shared with [`crate::shard`] so document→shard routing and the
/// in-memory index agree on one hash.
pub(crate) fn hash_id(id: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in id.as_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

impl Index {
    pub fn new(shards: usize) -> Index {
        let shards = shards.max(1);
        Index {
            shards: (0..shards).map(|_| RwLock::new(HashMap::new())).collect(),
            meta: Mutex::new(HashMap::new()),
        }
    }

    fn shard(&self, id: &str) -> &RwLock<HashMap<String, DocState>> {
        &self.shards[(hash_id(id) % self.shards.len() as u64) as usize]
    }

    /// Clones the document's state: its content, plus one shared pointer
    /// per revision.
    pub fn get(&self, id: &str) -> Option<DocState> {
        self.shard(id).read().get(id).cloned()
    }

    pub fn content(&self, id: &str) -> Option<Vec<u8>> {
        self.shard(id).read().get(id).map(|d| d.content.clone())
    }

    pub fn contains(&self, id: &str) -> bool {
        self.shard(id).read().contains_key(id)
    }

    pub fn version(&self, id: &str) -> Option<u64> {
        self.shard(id).read().get(id).map(|d| d.version)
    }

    pub fn list(&self) -> Vec<String> {
        let mut ids: Vec<String> = self
            .shards
            .iter()
            .flat_map(|s| s.read().keys().cloned().collect::<Vec<_>>())
            .collect();
        ids.sort();
        ids
    }

    pub fn doc_count(&self) -> usize {
        self.shards.iter().map(|s| s.read().len()).sum()
    }

    /// Installs an empty document; `false` if it already exists.
    pub fn apply_create(&self, id: &str) -> bool {
        let mut shard = self.shard(id).write();
        if shard.contains_key(id) {
            return false;
        }
        shard.insert(id.to_string(), DocState::default());
        true
    }

    /// Replaces content, pushing the previous content onto the revision
    /// history when the document already existed. Returns the new
    /// version.
    pub fn apply_save(&self, id: &str, content: Vec<u8>) -> u64 {
        let mut shard = self.shard(id).write();
        match shard.get_mut(id) {
            Some(doc) => {
                let previous = std::mem::replace(&mut doc.content, content);
                // `Arc::new` moves the `Vec` header; the bytes stay put.
                doc.revisions.push(Arc::new(previous));
                doc.version += 1;
                doc.version
            }
            None => {
                shard.insert(
                    id.to_string(),
                    DocState { content, version: 1, revisions: Vec::new() },
                );
                1
            }
        }
    }

    /// Installs a complete state verbatim (snapshot load).
    pub fn install(&self, id: String, state: DocState) {
        self.shard(&id).write().insert(id, state);
    }

    pub fn apply_remove(&self, id: &str) -> bool {
        self.shard(id).write().remove(id).is_some()
    }

    pub fn meta_get(&self, key: &str) -> Option<u64> {
        self.meta.lock().get(key).copied()
    }

    pub fn meta_set(&self, key: &str, value: u64) {
        self.meta.lock().insert(key.to_string(), value);
    }

    /// Increment-and-get; used for `next_doc`-style id allocation. The
    /// caller's write lock makes the read-modify-write atomic with the
    /// WAL append.
    pub fn meta_bump(&self, key: &str) -> u64 {
        let mut meta = self.meta.lock();
        let value = meta.entry(key.to_string()).or_insert(0);
        *value += 1;
        *value
    }

    pub fn meta_entries(&self) -> Vec<(String, u64)> {
        let mut entries: Vec<(String, u64)> =
            self.meta.lock().iter().map(|(k, v)| (k.clone(), *v)).collect();
        entries.sort();
        entries
    }

    /// A point-in-time copy of every document, sorted by id (current
    /// contents copied, revisions shared). The caller must hold the
    /// store's write serializer for the copy to be a consistent cut.
    pub fn snapshot_docs(&self) -> Vec<(String, DocState)> {
        let mut docs: Vec<(String, DocState)> = self
            .shards
            .iter()
            .flat_map(|s| {
                s.read().iter().map(|(k, v)| (k.clone(), v.clone())).collect::<Vec<_>>()
            })
            .collect();
        docs.sort_by(|a, b| a.0.cmp(&b.0));
        docs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn create_save_remove_lifecycle() {
        let index = Index::new(4);
        assert!(index.apply_create("a"));
        assert!(!index.apply_create("a"), "double create is a no-op");
        assert_eq!(index.version("a"), Some(0));
        assert_eq!(index.apply_save("a", b"one".to_vec()), 1);
        assert_eq!(index.apply_save("a", b"two".to_vec()), 2);
        let doc = index.get("a").unwrap();
        assert_eq!(doc.content, b"two");
        assert_eq!(doc.revisions, vec![Arc::new(Vec::new()), Arc::new(b"one".to_vec())]);
        assert!(index.apply_remove("a"));
        assert!(!index.apply_remove("a"));
    }

    #[test]
    fn save_without_create_starts_at_version_one_with_no_revision() {
        let index = Index::new(4);
        assert_eq!(index.apply_save("f", b"put".to_vec()), 1);
        assert!(index.get("f").unwrap().revisions.is_empty());
    }

    #[test]
    fn listing_is_sorted_across_shards() {
        let index = Index::new(3);
        for id in ["zebra", "alpha", "mid"] {
            index.apply_create(id);
        }
        assert_eq!(index.list(), vec!["alpha", "mid", "zebra"]);
        assert_eq!(index.doc_count(), 3);
    }

    #[test]
    fn meta_counters_bump_atomically() {
        let index = Index::new(1);
        assert_eq!(index.meta_get("next_doc"), None);
        assert_eq!(index.meta_bump("next_doc"), 1);
        assert_eq!(index.meta_bump("next_doc"), 2);
        index.meta_set("next_session", 9);
        assert_eq!(
            index.meta_entries(),
            vec![("next_doc".to_string(), 2), ("next_session".to_string(), 9)]
        );
    }

    #[test]
    fn snapshot_copy_is_sorted_and_deep() {
        let index = Index::new(2);
        index.apply_save("b", b"bb".to_vec());
        index.apply_save("a", b"aa".to_vec());
        let snap = index.snapshot_docs();
        assert_eq!(snap.len(), 2);
        assert_eq!(snap[0].0, "a");
        index.apply_save("a", b"changed".to_vec());
        assert_eq!(snap[0].1.content, b"aa", "copy is independent of later writes");
    }
}
