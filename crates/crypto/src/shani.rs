//! Hardware SHA-256 compression via the x86-64 SHA extensions (SHA-NI).
//!
//! `sha256rnds2` retires two rounds of the FIPS-180-4 compression
//! function and `sha256msg1`/`sha256msg2` compute the message schedule
//! four words at a time, so one 64-byte block costs 32 round
//! instructions instead of the portable path's ~64 rounds of scalar
//! rotate/add chains. The instructions keep the working state split
//! across two registers as `ABEF` and `CDGH`; [`compress_blocks`] packs
//! the FIPS `A..H` state into that layout once per call and unpacks it
//! once at the end, so bulk input amortizes the shuffle.
//!
//! # Safety
//!
//! This module carries one of the crate's two scoped `unsafe` allows
//! (the other is [`crate::aesni`]). The contract is enforced at one spot:
//! [`compress_blocks`] is the sole entry and asserts [`supported`] —
//! CPUID reports `sha`, `ssse3` and `sse4.1` — before calling any
//! intrinsic. All loads and stores are unaligned `loadu`/`storeu` on
//! in-bounds pointers, so no alignment obligations exist.
//!
//! Correctness is pinned by the FIPS-180-4 KATs (run under both engines)
//! and by the engine-parity proptests in `tests/backend_matrix.rs`.

use core::arch::x86_64::{
    __m128i, _mm_add_epi32, _mm_alignr_epi8, _mm_blend_epi16, _mm_loadu_si128,
    _mm_set_epi64x, _mm_sha256msg1_epu32, _mm_sha256msg2_epu32, _mm_sha256rnds2_epu32,
    _mm_shuffle_epi32, _mm_shuffle_epi8, _mm_storeu_si128,
};

use crate::sha256::K;

/// Whether this CPU executes the SHA-256 instructions (plus the SSSE3
/// byte shuffle and SSE4.1 blend the state packing needs).
#[inline]
pub(crate) fn supported() -> bool {
    std::arch::is_x86_feature_detected!("sha")
        && std::arch::is_x86_feature_detected!("ssse3")
        && std::arch::is_x86_feature_detected!("sse4.1")
}

/// Runs the compression function over every whole 64-byte block of
/// `blocks`.
///
/// # Panics
///
/// Panics if the CPU lacks SHA-NI (callers select the engine via
/// [`supported`] first).
#[inline]
pub(crate) fn compress_blocks(state: &mut [u32; 8], blocks: &[u8]) {
    assert!(supported(), "SHA-NI compression called without CPUID support");
    // SAFETY: `supported()` just confirmed `sha`, `ssse3` and `sse4.1`.
    unsafe { compress(state, blocks) }
}

/// The message-schedule step: `W[t..t+4]` from the previous sixteen
/// words held in `w0..w3` (oldest first).
#[inline]
#[target_feature(enable = "sha,ssse3,sse4.1")]
fn schedule(w0: __m128i, w1: __m128i, w2: __m128i, w3: __m128i) -> __m128i {
    let t = _mm_add_epi32(_mm_sha256msg1_epu32(w0, w1), _mm_alignr_epi8::<4>(w3, w2));
    _mm_sha256msg2_epu32(t, w3)
}

/// Compresses every whole 64-byte block of `blocks` into `state`.
///
/// # Safety
///
/// The CPU must support `sha`, `ssse3` and `sse4.1` ([`supported`]).
#[target_feature(enable = "sha,ssse3,sse4.1")]
unsafe fn compress(state: &mut [u32; 8], blocks: &[u8]) {
    // Byte-swaps each 32-bit lane: message words are big-endian.
    let bswap = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);
    // SAFETY: every load/store below is an unaligned intrinsic on an
    // in-bounds 16-byte window (`state` is 32 bytes, `K` 256 bytes,
    // each block 64 bytes); the target features are enabled above.
    unsafe {
        let dcba = _mm_loadu_si128(state.as_ptr().cast());
        let hgfe = _mm_loadu_si128(state.as_ptr().add(4).cast());
        let cdab = _mm_shuffle_epi32::<0xb1>(dcba);
        let efgh = _mm_shuffle_epi32::<0x1b>(hgfe);
        let mut abef = _mm_alignr_epi8::<8>(cdab, efgh);
        let mut cdgh = _mm_blend_epi16::<0xf0>(efgh, cdab);

        for block in blocks.chunks_exact(64) {
            let (abef_in, cdgh_in) = (abef, cdgh);
            let p = block.as_ptr();
            let mut w = [
                _mm_shuffle_epi8(_mm_loadu_si128(p.cast()), bswap),
                _mm_shuffle_epi8(_mm_loadu_si128(p.add(16).cast()), bswap),
                _mm_shuffle_epi8(_mm_loadu_si128(p.add(32).cast()), bswap),
                _mm_shuffle_epi8(_mm_loadu_si128(p.add(48).cast()), bswap),
            ];
            for i in 0..16 {
                let words = if i < 4 {
                    w[i]
                } else {
                    let next = schedule(w[0], w[1], w[2], w[3]);
                    w = [w[1], w[2], w[3], next];
                    next
                };
                let wk = _mm_add_epi32(words, _mm_loadu_si128(K[4 * i..].as_ptr().cast()));
                // Two rounds on the low pair of W+K, then two on the high
                // pair; after each `rnds2` the old ABEF is the new CDGH.
                cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
                abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32::<0x0e>(wk));
            }
            abef = _mm_add_epi32(abef, abef_in);
            cdgh = _mm_add_epi32(cdgh, cdgh_in);
        }

        let feba = _mm_shuffle_epi32::<0x1b>(abef);
        let dchg = _mm_shuffle_epi32::<0xb1>(cdgh);
        _mm_storeu_si128(state.as_mut_ptr().cast(), _mm_blend_epi16::<0xf0>(feba, dchg));
        _mm_storeu_si128(state.as_mut_ptr().add(4).cast(), _mm_alignr_epi8::<8>(dchg, feba));
    }
}
