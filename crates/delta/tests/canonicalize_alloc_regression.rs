//! Allocation regression tests for the delta algebra on a large document.
//!
//! Every count in a delta is a byte, so no operation needs the document
//! as characters. Canonicalizing a one-sentence replace on a 100 KiB
//! document allocates about one copy of the document, not a `Vec<char>`
//! (four bytes per character) per version and per pass; inverting,
//! transforming and composing one-sentence deltas allocate O(edit),
//! whatever the document's size.
//!
//! A `#[global_allocator]` summing the bytes each thread requests makes
//! the claims falsifiable. The sum is per thread, so tests running in
//! parallel do not see each other's allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use pe_delta::{Delta, DeltaOp, Side};

struct CountingAlloc;

thread_local! {
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    // A thread being torn down has no counter left; its frees need none.
    let _ = BYTES.try_with(|total| total.set(total.get() + bytes as u64));
}

// SAFETY-free: pure delegation to `System` plus a thread-local counter bump.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Bytes allocated on this thread while running `f`, and its result.
fn allocated_by<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = BYTES.with(Cell::get);
    let out = f();
    (BYTES.with(Cell::get) - before, out)
}

fn sentence(word: &str) -> String {
    format!("The {word} sentence runs on for a while. ")
}

/// A document of at least 100 KiB of `filler` sentences, and the byte
/// offset of the sentence at its middle.
fn large_document() -> (String, usize) {
    let mut doc = String::new();
    while doc.len() < 100 * 1024 {
        doc.push_str(&sentence("filler"));
    }
    let at = doc.len() / 2 - (doc.len() / 2) % sentence("filler").len();
    (doc, at)
}

/// Replaces the sentence at `at` with one about `word`.
fn replace_sentence(at: usize, word: &str) -> Delta {
    Delta::from_ops(vec![
        DeltaOp::Retain(at),
        DeltaOp::Delete(sentence("filler").len()),
        DeltaOp::Insert(sentence(word)),
    ])
}

/// O(edit): a few times one sentence, and far below the document.
const EDIT_BOUND: u64 = 4096;

#[test]
fn canonicalize_allocates_less_than_two_documents() {
    let (doc, at) = large_document();
    let delta = replace_sentence(at, "edited");

    let (allocated, canonical) = allocated_by(|| delta.canonicalize(&doc).unwrap());

    // The splice shrinks to the one word that changed.
    assert_eq!(canonical.serialize(), format!("={}\t-6\t+edited", at + 4));
    assert!(
        allocated < 2 * doc.len() as u64,
        "canonicalize allocated {allocated} bytes for a {}-byte document",
        doc.len()
    );
}

#[test]
fn invert_allocates_o_edit() {
    let (doc, at) = large_document();
    let delta = replace_sentence(at, "édité");

    let (allocated, inverse) = allocated_by(|| delta.invert(&doc).unwrap());

    let edited = delta.apply_utf8(&doc).unwrap();
    assert_eq!(inverse.apply_utf8(&edited).unwrap(), doc);
    assert!(allocated < EDIT_BOUND, "invert allocated {allocated} bytes");
}

#[test]
fn transform_allocates_o_edit() {
    let (doc, at) = large_document();
    let ours = replace_sentence(at, "ours");
    // A concurrent two-character, four-byte insert at the very start.
    let theirs = Delta::parse("+€€").unwrap();

    let (allocated, rebased) =
        allocated_by(|| ours.transform(&theirs, doc.len(), Side::Right).unwrap());

    assert_eq!(rebased, replace_sentence(at + "€€".len(), "ours"));
    assert!(allocated < EDIT_BOUND, "transform allocated {allocated} bytes");
}

#[test]
fn compose_allocates_o_edit() {
    let (doc, at) = large_document();
    let first = replace_sentence(at, "première");
    // Keeps "The premi" and replaces the "è" (two bytes) with "e".
    let second = Delta::parse(&format!("={}\t-2\t+e", at + 9)).unwrap();

    let (allocated, composed) = allocated_by(|| first.compose(&second).unwrap());

    let two_step = second.apply_utf8(&first.apply_utf8(&doc).unwrap()).unwrap();
    assert_eq!(composed.apply_utf8(&doc).unwrap(), two_step);
    assert_eq!(composed, replace_sentence(at, "premiere"));
    assert!(allocated < EDIT_BOUND, "compose allocated {allocated} bytes");
}
