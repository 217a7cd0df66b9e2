//! Delta inversion: computing the undo of an edit.
//!
//! Editors need undo; the protocol layer supports it by inverting a delta
//! *with respect to the document it was applied to*: `d.invert(base)`
//! produces the delta that transforms `d.apply_utf8(base)` back into
//! `base`. Inversion needs the base document because a delete destroys
//! information (the deleted text) that only the base can supply.

use crate::error::DeltaError;
use crate::ops::{text_end, Delta, DeltaOp};

impl Delta {
    /// Computes the inverse of this delta with respect to `base`: applying
    /// the result to `self.apply_utf8(base)` yields `base` again. Only the
    /// deleted text is copied out of `base`.
    ///
    /// # Errors
    ///
    /// As for [`Delta::apply_utf8`]: [`DeltaError::PastEnd`] when this
    /// delta does not fit `base`, and [`DeltaError::SplitsChar`] when it
    /// cuts a multi-byte character of `base`.
    ///
    /// # Example
    ///
    /// ```
    /// use pe_delta::Delta;
    ///
    /// let edit = Delta::parse("=2\t-3\t+uv")?;
    /// let edited = edit.apply_utf8("abcdefg")?;     // "abuvfg" + implicit tail
    /// let undo = edit.invert("abcdefg")?;
    /// assert_eq!(undo.apply_utf8(&edited)?, "abcdefg");
    /// # Ok::<(), pe_delta::DeltaError>(())
    /// ```
    pub fn invert(&self, base: &str) -> Result<Delta, DeltaError> {
        let mut cursor = 0usize; // byte offset in base
        let mut inverse = Delta::builder();
        for op in self.ops() {
            match op {
                DeltaOp::Retain(n) => {
                    cursor = text_end(base, cursor, *n)?;
                    inverse.retain(*n);
                }
                // Inserted text is deleted by the inverse.
                DeltaOp::Insert(s) => {
                    inverse.delete(s.len());
                }
                // Deleted text is re-inserted by the inverse.
                DeltaOp::Delete(n) => {
                    let end = text_end(base, cursor, *n)?;
                    inverse.insert(&base[cursor..end]);
                    cursor = end;
                }
            }
        }
        Ok(inverse.build())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::support::byte_delta_on_char_boundaries;
    use proptest::prelude::*;

    fn check(base: &str, wire: &str) {
        let delta = Delta::parse(wire).unwrap();
        let edited = delta.apply_utf8(base).unwrap();
        let inverse = delta.invert(base).unwrap();
        assert_eq!(inverse.apply_utf8(&edited).unwrap(), base, "invert({wire:?}) on {base:?}");
    }

    #[test]
    fn paper_examples_invert() {
        check("abcdefg", "=2\t-5");
        check("abcdefg", "=2\t-3\t+uv\t=2\t+w");
    }

    #[test]
    fn pure_cases() {
        check("hello", "");
        check("hello", "+prefix ");
        check("hello", "-5");
        check("hello", "=5\t+ suffix");
        check("", "+from nothing");
    }

    #[test]
    fn unicode_restores() {
        check("日本語です", "=3\t-6\t+ABC");
        check("日本", "=6\t+x");
        check("café", "=3\t-2\t+é!");
    }

    #[test]
    fn invert_past_end_fails() {
        let delta = Delta::parse("=9").unwrap();
        assert!(delta.invert("abc").is_err());
    }

    #[test]
    fn invert_rejects_a_cut_through_a_char() {
        let delta = Delta::parse("=1\t-1").unwrap();
        assert_eq!(delta.invert("日本"), Err(DeltaError::SplitsChar { position: 1 }));
        let delta = Delta::parse("=3\t-1").unwrap();
        assert_eq!(delta.invert("日本"), Err(DeltaError::SplitsChar { position: 4 }));
    }

    #[test]
    fn double_inversion_restores_effect() {
        let base = "double inversion test";
        let delta = Delta::parse("=7\t-9\t+X").unwrap();
        let edited = delta.apply_utf8(base).unwrap();
        let inverse = delta.invert(base).unwrap();
        let double = inverse.invert(&edited).unwrap();
        assert_eq!(double.apply_utf8(base).unwrap(), edited);
    }

    proptest! {
        /// invert is a true left inverse for arbitrary valid deltas on
        /// any text.
        #[test]
        fn inversion_law(
            base in "\\PC{0,60}",
            raw in proptest::collection::vec((any::<u8>(), 0usize..12, "\\PC{0,6}"), 0..10),
        ) {
            let delta = byte_delta_on_char_boundaries(&base, raw);
            let edited = delta.apply_utf8(&base).unwrap();
            let inverse = delta.invert(&base).unwrap();
            prop_assert_eq!(inverse.apply_utf8(&edited).unwrap(), base);
        }
    }
}
