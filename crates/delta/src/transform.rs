//! Operational transformation: rebasing one delta over another.
//!
//! The paper's §VII-A finds collaborative editing only *partially*
//! functional under the extension and points at SPORC (Feldman et al.,
//! OSDI 2010) for the full solution. SPORC's core mechanism is
//! **operational transformation** (OT): when two clients edit the same
//! base concurrently, each rebases its delta over the other's so both
//! converge. This module implements OT for the delta language, enabling
//! the client-side merge that upgrades concurrent editing from "partial"
//! to functional (see `DocsClient::save_merging`).
//!
//! The convergence law (OT's TP1 property), verified by property tests:
//!
//! ```text
//! b.transform(a, Right).apply_utf8(a.apply_utf8(doc))
//!     == a.transform(b, Left).apply_utf8(b.apply_utf8(doc))
//! ```
//!
//! where [`Side`] breaks the tie when both deltas insert at the same
//! position (the `Left` delta's insertion ends up first). Positions and
//! lengths are bytes, like every count in the delta language; deltas
//! whose counts end on character boundaries of the base transform into
//! deltas whose counts end on character boundaries of the merged text.

use crate::error::DeltaError;
use crate::ops::{Delta, OpCursor, Piece};

/// Tie-breaking priority for concurrent insertions at the same position.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Side {
    /// This delta's insertions win ties (end up before the other's).
    Left,
    /// The other delta's insertions win ties.
    Right,
}

impl Delta {
    /// Rebases this delta over `other`: both were produced against the
    /// same base document of `base_len` bytes; the result applies to
    /// `other.apply_utf8(base)` and preserves this delta's intent.
    ///
    /// `side` breaks insertion ties: with [`Side::Left`], this delta's
    /// insertions at a shared position land before `other`'s.
    ///
    /// # Errors
    ///
    /// Returns [`DeltaError::PastEnd`] when either delta consumes more
    /// than `base_len` bytes.
    ///
    /// # Example
    ///
    /// ```
    /// use pe_delta::{Delta, Side};
    ///
    /// let base = "shared text";
    /// let alice = Delta::parse("+A: ")?;                    // prepend
    /// let bob = Delta::parse("=11\t+ (bob)")?;              // append
    /// let bob_rebased = bob.transform(&alice, base.len(), Side::Right)?;
    /// let merged = bob_rebased.apply_utf8(&alice.apply_utf8(base)?)?;
    /// assert_eq!(merged, "A: shared text (bob)");
    /// # Ok::<(), pe_delta::DeltaError>(())
    /// ```
    pub fn transform(
        &self,
        other: &Delta,
        base_len: usize,
        side: Side,
    ) -> Result<Delta, DeltaError> {
        for delta in [self, other] {
            let consumed = delta.input_len();
            if consumed > base_len {
                return Err(DeltaError::PastEnd {
                    position: 0,
                    requested: consumed,
                    len: base_len,
                });
            }
        }
        let (mut a, mut b) = (OpCursor::new(self), OpCursor::new(other));
        let mut out = Delta::builder();
        loop {
            match (a.peek(), b.peek()) {
                (None, _) => break,
                // This delta inserts: it wins the tie when Left, or when
                // the other is not inserting here.
                (Some(Piece::Insert(s)), theirs)
                    if side == Side::Left || !matches!(theirs, Some(Piece::Insert(_))) =>
                {
                    out.insert(s);
                    a.next();
                }
                // The other inserts text this delta must retain over.
                (_, Some(Piece::Insert(s))) => {
                    out.retain(s.len());
                    b.next();
                }
                // The other is exhausted: it implicitly retains the rest
                // of the base, so the rest of this delta is unchanged.
                (Some(_), None) => {
                    while let Some(piece) = a.next() {
                        out.push(piece);
                    }
                }
                // Both consume base bytes.
                (Some(ours), Some(theirs)) => {
                    let n = ours.len().min(theirs.len());
                    match (a.take(n), b.take(n)) {
                        // Both keep the bytes.
                        (Some(Piece::Retain(_)), Some(Piece::Retain(_))) => {
                            out.retain(n);
                        }
                        // This delta deletes bytes the other kept.
                        (Some(Piece::Delete(_)), Some(Piece::Retain(_))) => {
                            out.delete(n);
                        }
                        // The other already deleted them: nothing to do.
                        _ => {}
                    }
                }
            }
        }
        Ok(out.build())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::support::byte_delta_on_char_boundaries;
    use proptest::prelude::*;

    /// Checks TP1 convergence for a pair of concurrent deltas.
    fn converges(doc: &str, a: &Delta, b: &Delta) -> String {
        let len = doc.len();
        let a_prime = a.transform(b, len, Side::Left).unwrap();
        let b_prime = b.transform(a, len, Side::Right).unwrap();
        let via_a = b_prime.apply_utf8(&a.apply_utf8(doc).unwrap()).unwrap();
        let via_b = a_prime.apply_utf8(&b.apply_utf8(doc).unwrap()).unwrap();
        assert_eq!(via_a, via_b, "TP1 violated for {a:?} / {b:?} on {doc:?}");
        via_a
    }

    #[test]
    fn disjoint_edits_merge() {
        let doc = "the quick brown fox";
        let a = Delta::parse("+<< ").unwrap(); // prepend
        let b = Delta::parse("=19\t+ >>").unwrap(); // append
        assert_eq!(converges(doc, &a, &b), "<< the quick brown fox >>");
    }

    #[test]
    fn same_position_inserts_tiebreak() {
        let doc = "ab";
        let a = Delta::parse("=1\t+X").unwrap();
        let b = Delta::parse("=1\t+Y").unwrap();
        // Left's insert lands first.
        assert_eq!(converges(doc, &a, &b), "aXYb");
    }

    #[test]
    fn overlapping_deletes_do_not_double_delete() {
        let doc = "abcdefgh";
        let a = Delta::parse("=2\t-4").unwrap(); // delete cdef
        let b = Delta::parse("=4\t-4").unwrap(); // delete efgh
        assert_eq!(converges(doc, &a, &b), "ab");
    }

    #[test]
    fn delete_vs_insert_inside_range() {
        let doc = "abcdef";
        let a = Delta::parse("=1\t-4").unwrap(); // delete bcde
        let b = Delta::parse("=3\t+XY").unwrap(); // insert inside the range
        // The insert survives; the surrounding deletion still happens.
        assert_eq!(converges(doc, &a, &b), "aXYf");
    }

    #[test]
    fn multibyte_edits_are_counted_in_bytes() {
        let doc = "café au lait";
        let a = Delta::parse("=13\t+!").unwrap(); // append
        let b = Delta::parse("+ß").unwrap(); // prepend two bytes
        assert_eq!(converges(doc, &a, &b), "ßcafé au lait!");
        let a = Delta::parse("=6\t+X").unwrap(); // before "au"
        let b = Delta::parse("=3\t-2\t+e").unwrap(); // é -> e
        assert_eq!(converges(doc, &a, &b), "cafe Xau lait");
    }

    #[test]
    fn identity_transforms_to_identity() {
        let doc = "unchanged";
        let id = Delta::new();
        let b = Delta::parse("=3\t+news").unwrap();
        let id_prime = id.transform(&b, doc.len(), Side::Left).unwrap();
        let edited = b.apply_utf8(doc).unwrap();
        assert_eq!(id_prime.apply_utf8(&edited).unwrap(), edited);
    }

    #[test]
    fn transform_rejects_oversized_deltas() {
        let a = Delta::parse("=100").unwrap();
        let b = Delta::new();
        assert!(a.transform(&b, 5, Side::Left).is_err());
        assert!(b.transform(&a, 5, Side::Right).is_err());
    }

    fn raw_ops() -> impl Strategy<Value = Vec<(u8, usize, String)>> {
        proptest::collection::vec((any::<u8>(), 0usize..7, "\\PC{0,3}"), 0..8)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// TP1: concurrent deltas converge regardless of application order.
        #[test]
        fn tp1_convergence(doc in "\\PC{0,40}", raw_a in raw_ops(), raw_b in raw_ops()) {
            let len = doc.len();
            let a = byte_delta_on_char_boundaries(&doc, raw_a);
            let b = byte_delta_on_char_boundaries(&doc, raw_b);
            let a_prime = a.transform(&b, len, Side::Left).unwrap();
            let b_prime = b.transform(&a, len, Side::Right).unwrap();
            let via_a = b_prime.apply_utf8(&a.apply_utf8(&doc).unwrap()).unwrap();
            let via_b = a_prime.apply_utf8(&b.apply_utf8(&doc).unwrap()).unwrap();
            prop_assert_eq!(via_a, via_b);
        }

        /// Transforming against the identity changes nothing semantically.
        #[test]
        fn identity_is_neutral(doc in "\\PC{0,30}", raw in raw_ops()) {
            let a = byte_delta_on_char_boundaries(&doc, raw);
            let id = Delta::new();
            let a_prime = a.transform(&id, doc.len(), Side::Left).unwrap();
            prop_assert_eq!(a_prime.apply_utf8(&doc).unwrap(), a.apply_utf8(&doc).unwrap());
        }
    }
}
