//! Deriving a delta from two document versions.
//!
//! The micro-benchmark of §VII-B derives, for every random pair
//! `(D, D′)`, "a delta string … such that it transforms D to D′". This
//! module provides that derivation using the common-prefix/common-suffix
//! method: the result is the canonical minimal three-operation delta
//! `retain p, delete m, insert s` (with empty parts omitted), counted in
//! bytes like every delta.
//!
//! [`Delta::canonicalize`](crate::Delta::canonicalize) is built on it.
//! Canonicality is what makes canonicalization an effective
//! covert-channel countermeasure: every pair of equivalent edits maps to
//! the same wire bytes.

use crate::ops::Delta;

/// Computes the canonical delta transforming `old` into `new`: `retain
/// p, delete m, insert s`, with `p` and `m` counted in bytes.
///
/// The common prefix, then the common suffix of the remainders, are
/// found a chunk at a time on the two byte slices, and both edges are
/// moved back to a character boundary of both strings so the inserted
/// text is whole characters. The splice is minimal in characters as well:
/// neither the deleted nor the inserted text can share a first or last
/// character with the other.
///
/// # Example
///
/// ```
/// use pe_delta::diff_bytes;
///
/// let delta = diff_bytes("café au lait", "cafe au lait");
/// assert_eq!(delta.serialize(), "=3\t-2\t+e");
/// assert_eq!(delta.apply_utf8("café au lait")?, "cafe au lait");
/// # Ok::<(), pe_delta::DeltaError>(())
/// ```
pub fn diff_bytes(old: &str, new: &str) -> Delta {
    let (a, b) = (old.as_bytes(), new.as_bytes());
    let mut prefix = common_prefix(a, b);
    while !(old.is_char_boundary(prefix) && new.is_char_boundary(prefix)) {
        prefix -= 1;
    }
    let mut suffix = common_suffix(&a[prefix..], &b[prefix..]);
    while !(old.is_char_boundary(old.len() - suffix) && new.is_char_boundary(new.len() - suffix)) {
        suffix -= 1;
    }
    let mut builder = Delta::builder();
    builder
        .retain(prefix)
        .delete(old.len() - prefix - suffix)
        .insert(&new[prefix..new.len() - suffix]);
    builder.build()
}

/// Bytes compared per step by [`common_prefix`] and [`common_suffix`].
const CHUNK: usize = 32;

/// Length of the longest common prefix of `a` and `b`.
fn common_prefix(a: &[u8], b: &[u8]) -> usize {
    let chunks = a.chunks_exact(CHUNK).zip(b.chunks_exact(CHUNK));
    let whole = chunks.take_while(|(x, y)| x == y).count() * CHUNK;
    whole + a[whole..].iter().zip(&b[whole..]).take_while(|(x, y)| x == y).count()
}

/// Length of the longest common suffix of `a` and `b`.
fn common_suffix(a: &[u8], b: &[u8]) -> usize {
    let chunks = a.rchunks_exact(CHUNK).zip(b.rchunks_exact(CHUNK));
    let whole = chunks.take_while(|(x, y)| x == y).count() * CHUNK;
    let (a, b) = (&a[..a.len() - whole], &b[..b.len() - whole]);
    whole + a.iter().rev().zip(b.iter().rev()).take_while(|(x, y)| x == y).count()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check(old: &str, new: &str) {
        let delta = diff_bytes(old, new);
        assert_eq!(delta.apply_utf8(old).unwrap(), new, "diff_bytes({old:?}, {new:?})");
    }

    #[test]
    fn identical_documents_give_identity() {
        let delta = diff_bytes("same", "same");
        assert!(delta.is_identity());
        assert_eq!(delta.serialize(), "");
    }

    #[test]
    fn simple_cases() {
        check("", "");
        check("", "abc");
        check("abc", "");
        check("abc", "abcd");
        check("abcd", "abc");
        check("abc", "xbc");
        check("abc", "axc");
        check("abc", "abx");
        check("abcdefg", "abuvfgw");
    }

    #[test]
    fn repeated_characters_do_not_overlap_prefix_suffix() {
        // "aaa" -> "aa": prefix would eat everything; suffix must not
        // overlap, so the delta stays valid.
        check("aaa", "aa");
        check("aa", "aaa");
        check("abab", "ababab");
        check("ababab", "abab");
    }

    #[test]
    fn middle_replacement_is_minimal() {
        let delta = diff_bytes("hello cruel world", "hello kind world");
        assert_eq!(delta.serialize(), "=6\t-5\t+kind");
    }

    #[test]
    fn unicode_diffs() {
        check("日本語です", "日本語でした");
        check("héllo", "hello");
        check("ωμέγα", "άλφα");
        check("aé", "aéé");
    }

    #[test]
    fn byte_diff_is_minimal_on_ascii() {
        for (old, new, wire) in [
            ("", "abc", "+abc"),
            ("abc", "", "-3"),
            ("aaa", "aa", "=2\t-1"),
            ("abcdefg", "abuvfgw", "=2\t-5\t+uvfgw"),
        ] {
            assert_eq!(diff_bytes(old, new).serialize(), wire, "diff_bytes({old:?}, {new:?})");
        }
        // Long enough that the chunked comparison runs on both ends.
        let old = "x".repeat(100) + "cruel" + &"y".repeat(70);
        let new = "x".repeat(100) + "kind" + &"y".repeat(70);
        assert_eq!(diff_bytes(&old, &new).serialize(), "=100\t-5\t+kind");
    }

    #[test]
    fn byte_diff_edges_sit_on_char_boundaries() {
        // é (C3 A9) and ã (C3 A3) share their lead byte: the prefix must
        // not stop inside it.
        assert_eq!(diff_bytes("café", "cafã").serialize(), "=3\t-2\t+ã");
        // ¢ (C2 A2) and â (C3 A2) share their last byte: the suffix must
        // not start inside them.
        assert_eq!(diff_bytes("x¢y", "xây").serialize(), "=1\t-2\t+â");
    }

    #[test]
    fn randomized_roundtrips() {
        // Deterministic pseudo-random pairs, mirroring §VII-B's workload
        // at small scale, over an alphabet of 1-, 2- and 3-byte chars.
        const ALPHABET: [char; 6] = ['a', 'b', 'c', 'd', 'é', '日'];
        let mut state = 42u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            state >> 33
        };
        for _ in 0..200 {
            let len_a = (next() % 50) as usize;
            let len_b = (next() % 50) as usize;
            let a: String = (0..len_a).map(|_| ALPHABET[(next() % 6) as usize]).collect();
            let b: String = (0..len_b).map(|_| ALPHABET[(next() % 6) as usize]).collect();
            check(&a, &b);
        }
    }
}
