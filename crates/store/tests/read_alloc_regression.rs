//! Allocation regression test for the read path: `DocStore::get` copies
//! the current content and nothing of the revision history.
//!
//! Revisions are immutable once superseded, so every store shares them
//! behind `Arc`s and a `get` hands out one pointer per revision. A
//! counting `#[global_allocator]` measures the bytes one `get` allocates
//! on a document with 32 revisions of 256 KiB each: the bound is twice
//! the current content, far below the 8 MiB history a deep copy would
//! allocate. The file holds exactly one `#[test]` so no sibling test can
//! allocate on another thread mid-measurement.

use std::alloc::{GlobalAlloc, Layout, System};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use pe_store::{DocStore, FsyncPolicy, LogStore, MemStore, ShardedLogStore, StoreConfig};

struct CountingAlloc;

static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY-free: pure delegation to `System` plus a relaxed counter bump.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const REVISIONS: usize = 32;
const REVISION_BYTES: usize = 256 * 1024;

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let path = std::env::temp_dir()
            .join(format!("pe-read-alloc-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        TempDir(path)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Saves `REVISIONS + 1` full contents (the create's empty content
/// becomes revision 0), measures one `get`, and checks what it returned.
fn check_get(name: &str, store: &dyn DocStore) {
    store.create("doc").unwrap();
    for i in 1..=REVISIONS {
        store.put_full("doc", &vec![i as u8; REVISION_BYTES]).unwrap();
    }
    let content = vec![0xC0; REVISION_BYTES];
    store.put_full("doc", &content).unwrap();
    // Warm-up: lazily initialized metric cells allocate once.
    drop(store.get("doc"));

    let before = ALLOC_BYTES.load(Ordering::Relaxed);
    let state = store.get("doc").unwrap();
    let allocated = ALLOC_BYTES.load(Ordering::Relaxed) - before;

    assert_eq!(state.content, content, "{name}: content");
    assert_eq!(state.version, REVISIONS as u64 + 1, "{name}: version");
    assert_eq!(state.revisions.len(), REVISIONS + 1, "{name}: revision count");
    assert!(state.revisions[0].is_empty(), "{name}: revision 0 is the created document");
    for (i, revision) in state.revisions.iter().enumerate().skip(1) {
        assert_eq!(revision.as_slice(), vec![i as u8; REVISION_BYTES], "{name}: revision {i}");
    }
    assert!(
        allocated < 2 * REVISION_BYTES as u64,
        "{name}: get allocated {allocated} bytes for a {REVISION_BYTES}-byte document \
         with {} revisions; the history must be shared, not copied",
        REVISIONS + 1
    );
}

#[test]
fn get_copies_content_not_history() {
    // FsyncPolicy::Never: durability syscalls are irrelevant to the
    // allocation claim and dominate runtime otherwise.
    let config = || StoreConfig { fsync: FsyncPolicy::Never, ..StoreConfig::default() };

    check_get("MemStore", &MemStore::new());

    let log_dir = TempDir::new("log");
    check_get("LogStore", &LogStore::open(&log_dir.0, config()).unwrap());

    let sharded_dir = TempDir::new("sharded");
    check_get("ShardedLogStore", &ShardedLogStore::open(&sharded_dir.0, 2, config()).unwrap());
}
