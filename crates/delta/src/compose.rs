//! Delta composition.
//!
//! `a.compose(&b)` produces a single delta equivalent to applying `a` and
//! then `b`. The extension uses composition to merge the client's queued
//! updates before canonicalizing them (§VI-B suggests "maintaining each
//! group of delta updates and merging them into a canonical form before
//! sending an update to the server").

use crate::error::DeltaError;
use crate::ops::{Delta, OpCursor, Piece};

impl Delta {
    /// Composes `self` followed by `other` into one delta such that for
    /// every document `d` where the two-step application succeeds,
    /// `self.compose(&other)?.apply_utf8(d) == other.apply_utf8(&self.apply_utf8(d)?)`.
    ///
    /// Operations of `other` that reach past `self`'s explicit output
    /// operate on the implicitly-retained tail and pass through unchanged.
    /// Whether the composed delta fits a particular document is still
    /// checked when it is applied.
    ///
    /// # Errors
    ///
    /// Returns [`DeltaError::SplitsChar`] when an operation of `other`
    /// ends inside a multi-byte character that `self` inserts; the
    /// position is the byte offset in the document between the two.
    pub fn compose(&self, other: &Delta) -> Result<Delta, DeltaError> {
        let (mut a, mut b) = (OpCursor::new(self), OpCursor::new(other));
        let mut out = Delta::builder();
        // Byte offset in the document `self` produces and `other` edits.
        let mut mid = 0usize;
        loop {
            match (a.peek(), b.peek()) {
                // Deletions in `self` affect the original document
                // regardless of what `other` does afterwards.
                (Some(Piece::Delete(n)), _) => {
                    out.delete(n);
                    a.next();
                }
                // Insertions in `other` are independent of `self`'s output.
                (_, Some(Piece::Insert(s))) => {
                    out.insert(s);
                    b.next();
                }
                (None, None) => break,
                // `self` exhausted: the rest of `other` operates on the
                // implicit tail of the original document.
                (None, Some(_)) => {
                    while let Some(piece) = b.next() {
                        out.push(piece);
                    }
                }
                // `other` exhausted: it implicitly retains everything
                // `self` produces.
                (Some(_), None) => {
                    while let Some(piece) = a.next() {
                        out.push(piece);
                    }
                }
                // `self` produces bytes (retained or inserted) that
                // `other` retains or deletes.
                (Some(produced), Some(edit)) => {
                    let n = produced.len().min(edit.len());
                    if let Piece::Insert(s) = produced {
                        if !s.is_char_boundary(n) {
                            return Err(DeltaError::SplitsChar { position: mid + n });
                        }
                    }
                    mid += n;
                    match (a.take(n), b.take(n)) {
                        (Some(piece), Some(Piece::Retain(_))) => {
                            out.push(piece);
                        }
                        (Some(Piece::Retain(_)), Some(Piece::Delete(_))) => {
                            out.delete(n);
                        }
                        // A deleted insert never reaches the output.
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

    fn compose_check(doc: &str, a: &str, b: &str) {
        let da = Delta::parse(a).unwrap();
        let db = Delta::parse(b).unwrap();
        let two_step = db.apply_utf8(&da.apply_utf8(doc).unwrap()).unwrap();
        let composed = da.compose(&db).unwrap();
        assert_eq!(
            composed.apply_utf8(doc).unwrap(),
            two_step,
            "compose({a:?}, {b:?}) on {doc:?} → {composed:?}"
        );
    }

    #[test]
    fn compose_simple_cases() {
        compose_check("abcdefg", "=2\t-5", "+xy");
        compose_check("abcdefg", "=2\t-3\t+uv\t=2\t+w", "=1\t-2\t+Q");
        compose_check("hello", "", "=1\t+i");
        compose_check("hello", "+abc", "");
        compose_check("hello", "-5", "+bye");
        compose_check("hello", "+抹茶", "=3\t-3");
        compose_check("日本語", "=3\t+é", "=5\t-3\t+x");
    }

    #[test]
    fn compose_rejects_a_cut_through_an_inserted_char() {
        let a = Delta::parse("=2\t+抹茶").unwrap();
        let b = Delta::parse("=3\t-1").unwrap();
        assert_eq!(a.compose(&b), Err(DeltaError::SplitsChar { position: 3 }));
    }

    #[test]
    fn compose_insert_then_delete_cancels() {
        let a = Delta::parse("+abc").unwrap();
        let b = Delta::parse("-3").unwrap();
        let composed = a.compose(&b).unwrap();
        assert!(composed.is_identity(), "got {composed:?}");
    }

    #[test]
    fn compose_reaches_into_implicit_tail() {
        // `a` touches only the first char; `b` edits beyond a's explicit ops.
        compose_check("abcdef", "=1\t+X", "=4\t-2");
        // `b` consumes past everything `a` explicitly produced.
        compose_check("abcdef", "+P", "=3\t-4");
    }

    #[test]
    fn identity_composes_neutrally() {
        let d = Delta::parse("=2\t+xy\t-1").unwrap();
        let id = Delta::new();
        assert_eq!(id.compose(&d).unwrap().normalized(), d.normalized());
        assert_eq!(d.compose(&id).unwrap().normalized(), d.normalized());
    }

    fn raw_ops() -> impl Strategy<Value = Vec<(u8, usize, String)>> {
        proptest::collection::vec((any::<u8>(), 0usize..7, "\\PC{0,4}"), 0..8)
    }

    proptest! {
        /// compose(a, b).apply_utf8(d) == b.apply_utf8(a.apply_utf8(d))
        /// for arbitrary valid deltas on any text.
        #[test]
        fn compose_equals_sequential_application(
            doc in "\\PC{0,40}",
            raw_a in raw_ops(),
            raw_b in raw_ops(),
        ) {
            let a = byte_delta_on_char_boundaries(&doc, raw_a);
            let mid = a.apply_utf8(&doc).unwrap();
            let b = byte_delta_on_char_boundaries(&mid, raw_b);
            let two_step = b.apply_utf8(&mid).unwrap();
            let composed = a.compose(&b).unwrap();
            prop_assert_eq!(composed.apply_utf8(&doc).unwrap(), two_step);
        }

        /// Composition is associative in effect.
        #[test]
        fn compose_is_associative_in_effect(
            doc in "\\PC{0,30}",
            raw_a in raw_ops(),
            raw_b in raw_ops(),
            raw_c in raw_ops(),
        ) {
            let a = byte_delta_on_char_boundaries(&doc, raw_a);
            let d1 = a.apply_utf8(&doc).unwrap();
            let b = byte_delta_on_char_boundaries(&d1, raw_b);
            let d2 = b.apply_utf8(&d1).unwrap();
            let c = byte_delta_on_char_boundaries(&d2, raw_c);
            let left = a.compose(&b).unwrap().compose(&c).unwrap();
            let right = a.compose(&b.compose(&c).unwrap()).unwrap();
            prop_assert_eq!(left.apply_utf8(&doc).unwrap(), right.apply_utf8(&doc).unwrap());
        }
    }
}
