//! Allocation regression test for delta canonicalization.
//!
//! `Delta::canonicalize` counts bytes: it applies the delta into one
//! pre-sized string and compares the two byte slices for the canonical
//! splice. So canonicalizing a one-sentence replace on a 100 KiB document
//! allocates about one copy of the document, not a `Vec<char>` (four
//! bytes per character) per version and per pass.
//!
//! A `#[global_allocator]` summing requested bytes makes the claim
//! falsifiable. The file holds exactly one `#[test]` so no sibling test
//! can allocate on another thread mid-measurement.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use pe_delta::{Delta, DeltaOp};

struct CountingAlloc;

static BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY-free: pure delegation to `System` plus a relaxed counter bump.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn canonicalize_allocates_less_than_two_documents() {
    let sentence = |word: &str| format!("The {word} sentence runs on for a while. ");
    let mut doc = String::new();
    while doc.len() < 100 * 1024 {
        doc.push_str(&sentence("filler"));
    }
    let at = doc.len() / 2 - (doc.len() / 2) % sentence("filler").len();
    let replacement = sentence("edited");
    let delta = Delta::from_ops(vec![
        DeltaOp::Retain(at),
        DeltaOp::Delete(sentence("filler").len()),
        DeltaOp::Insert(replacement.clone()),
    ]);

    let before = BYTES.load(Ordering::Relaxed);
    let canonical = delta.canonicalize(&doc).unwrap();
    let allocated = BYTES.load(Ordering::Relaxed) - before;

    // The splice shrinks to the one word that changed.
    assert_eq!(canonical.serialize(), format!("={}\t-6\t+edited", at + 4));
    assert!(
        allocated < 2 * doc.len() as u64,
        "canonicalize allocated {allocated} bytes for a {}-byte document",
        doc.len()
    );
}
