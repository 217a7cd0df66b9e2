//! Allocation regression test for the ciphertext document codec.
//!
//! The record codec works on fixed arrays and one pre-sized buffer, and
//! the skip list keeps every tower in one link arena, so the document
//! path allocates a constant number of times, however many records it
//! handles:
//!
//! * `serialize` of a 12 800-block document allocates exactly once (the
//!   output string);
//! * `RecbDocument::open` allocates the same number of times for 1 000
//!   and for 12 800 records: nothing per record, nothing per tower;
//! * `wire::apply_patches` allocates once (the patched string).
//!
//! A counting `#[global_allocator]` makes the claims falsifiable. The file
//! holds exactly one `#[test]` so no sibling test can allocate on another
//! thread mid-measurement.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use pe_core::wire::{apply_patches, encode_record, CipherPatch};
use pe_core::{DocumentKey, IncrementalCipherDoc, RecbDocument, SchemeParams};
use pe_crypto::CtrDrbg;

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY-free: pure delegation to `System` plus a relaxed counter bump.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// Allocations `f` performs; its result is dropped outside the count.
fn count<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = allocs();
    let value = f();
    (allocs() - before, value)
}

#[test]
fn document_codec_allocations_do_not_grow_with_records() {
    let key = DocumentKey::derive("alloc-regression", &[0x42; 16], 100);
    // b = 8 and 8 chars per block: `blocks` data records plus the header.
    let document = |blocks: usize| {
        let text: Vec<u8> = (0..blocks * 8).map(|i| b'a' + (i % 26) as u8).collect();
        let doc = RecbDocument::create(&key, SchemeParams::recb(8), &text, CtrDrbg::from_seed(9))
            .unwrap();
        let wire = doc.serialize();
        (doc, wire)
    };
    let (large, large_wire) = document(12_800);
    let (_, small_wire) = document(1_000);
    assert_eq!(large.record_count(), 12_801);

    // Warm-up: lazily registered metric cells allocate on first use.
    drop(RecbDocument::open(&key, &small_wire, CtrDrbg::from_seed(1)).unwrap());

    let (serialize_allocs, wire) = count(|| large.serialize());
    assert_eq!(wire, large_wire);
    assert_eq!(serialize_allocs, 1, "serialize must write one pre-sized buffer");

    // The DRBGs are built outside the counted region.
    let (small_rng, large_rng) = (CtrDrbg::from_seed(2), CtrDrbg::from_seed(3));
    let (small_open, small) =
        count(|| RecbDocument::open(&key, &small_wire, small_rng).unwrap());
    let (large_open, opened) =
        count(|| RecbDocument::open(&key, &large_wire, large_rng).unwrap());
    assert_eq!(opened.record_count(), 12_801);
    assert_eq!(
        small_open, large_open,
        "open allocated {small_open} times for 1 000 records but {large_open} for 12 800"
    );
    drop((small, opened));

    let patches = vec![
        CipherPatch::splice(3, 1, vec![encode_record('8', &[7; 16]), encode_record('2', &[9; 16])]),
        CipherPatch::splice(9_000, 40, Vec::new()),
        CipherPatch::splice(12_801, 0, vec![encode_record('5', &[1; 16])]),
    ];
    let layout = large.layout();
    let (patch_allocs, patched) = count(|| apply_patches(&large_wire, layout, &patches).unwrap());
    assert_eq!(patched.len(), large_wire.len() - 38 * 27);
    assert_eq!(patch_allocs, 1, "apply_patches must write one pre-sized buffer");
}
