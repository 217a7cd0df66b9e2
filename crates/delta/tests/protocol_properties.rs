//! Property tests for the delta protocol's wire format and algebra.

use pe_delta::{diff_bytes, Delta, DeltaError, DeltaOp};
use proptest::prelude::*;

mod support;

use support::{apply_counting_chars, byte_delta_on_char_boundaries};

fn arbitrary_op() -> impl Strategy<Value = DeltaOp> {
    prop_oneof![
        (0usize..100).prop_map(DeltaOp::Retain),
        (0usize..100).prop_map(DeltaOp::Delete),
        "\\PC{0,20}".prop_map(DeltaOp::Insert),
    ]
}

proptest! {
    /// Wire round-trip preserves arbitrary op sequences exactly —
    /// including redundant ones (required by the covert-channel work).
    #[test]
    fn serialize_parse_roundtrip(ops in proptest::collection::vec(arbitrary_op(), 0..20)) {
        let delta = Delta::from_ops(ops);
        let wire = delta.serialize();
        prop_assert_eq!(Delta::parse(&wire).unwrap(), delta);
    }

    /// diff_bytes(a, b) always transforms a into b, for any pair of
    /// strings.
    #[test]
    fn diff_is_always_correct(a in "\\PC{0,80}", b in "\\PC{0,80}") {
        let delta = diff_bytes(&a, &b);
        prop_assert_eq!(delta.apply_utf8(&a).unwrap(), b);
    }

    /// diff_bytes is canonical: diffing equal documents gives the
    /// identity.
    #[test]
    fn diff_of_equal_is_identity(a in "\\PC{0,80}") {
        prop_assert!(diff_bytes(&a, &a).is_identity());
    }

    /// Normalization never changes a delta's effect.
    #[test]
    fn normalized_preserves_semantics(
        doc in "[a-e]{0,60}",
        raw in proptest::collection::vec((any::<u8>(), 0usize..10, "[x-z]{0,5}"), 0..10),
    ) {
        // Build a valid delta against doc.
        let mut remaining = doc.chars().count();
        let mut ops = Vec::new();
        for (kind, n, text) in raw {
            match kind % 3 {
                0 => {
                    let take = n.min(remaining);
                    remaining -= take;
                    ops.push(DeltaOp::Retain(take));
                }
                1 => {
                    let take = n.min(remaining);
                    remaining -= take;
                    ops.push(DeltaOp::Delete(take));
                }
                _ => ops.push(DeltaOp::Insert(text)),
            }
        }
        let delta = Delta::from_ops(ops);
        let normalized = delta.normalized();
        prop_assert_eq!(delta.apply_utf8(&doc).unwrap(), normalized.apply_utf8(&doc).unwrap());
    }

    /// Canonicalization is idempotent and effect-preserving.
    #[test]
    fn canonicalize_is_idempotent(
        doc in "[a-e]{0,60}",
        raw in proptest::collection::vec((any::<u8>(), 0usize..10, "[x-z]{0,5}"), 0..10),
    ) {
        let mut remaining = doc.chars().count();
        let mut ops = Vec::new();
        for (kind, n, text) in raw {
            match kind % 3 {
                0 => { let t = n.min(remaining); remaining -= t; ops.push(DeltaOp::Retain(t)); }
                1 => { let t = n.min(remaining); remaining -= t; ops.push(DeltaOp::Delete(t)); }
                _ => ops.push(DeltaOp::Insert(text)),
            }
        }
        let delta = Delta::from_ops(ops);
        let once = delta.canonicalize(&doc).unwrap();
        let twice = once.canonicalize(&doc).unwrap();
        prop_assert_eq!(&once, &twice);
        prop_assert_eq!(once.apply_utf8(&doc).unwrap(), delta.apply_utf8(&doc).unwrap());
    }

    /// apply_bytes and the char-counted reference apply agree on ASCII
    /// documents.
    #[test]
    fn apply_bytes_matches_apply_on_ascii(
        doc in "[ -~]{0,60}",
        at in any::<usize>(),
        text in "[ -~]{0,10}",
    ) {
        let len = doc.len();
        let at = if len == 0 { 0 } else { at % (len + 1) };
        let mut builder = Delta::builder();
        builder.retain(at).insert(&text);
        let delta = builder.build();
        let via_chars = apply_counting_chars(&delta, &doc).unwrap();
        let via_bytes = String::from_utf8(delta.apply_bytes(doc.as_bytes()).unwrap()).unwrap();
        prop_assert_eq!(via_chars, via_bytes);
    }

    /// ASCII oracle: on ASCII documents the canonicalization is exactly
    /// the minimal splice from `base` to the char-counted reference
    /// apply, errors included, so the §VI-B countermeasure's wire output
    /// is what a char-counted protocol would send.
    #[test]
    fn canonicalize_matches_char_diff_on_ascii(
        doc in "[ -~]{0,200}",
        ops in proptest::collection::vec(
            prop_oneof![
                (0usize..60).prop_map(DeltaOp::Retain),
                (0usize..60).prop_map(DeltaOp::Delete),
                "[ -~]{0,10}".prop_map(DeltaOp::Insert),
            ],
            0..10,
        ),
    ) {
        let delta = Delta::from_ops(ops);
        let oracle = apply_counting_chars(&delta, &doc).map(|updated| diff_bytes(&doc, &updated));
        prop_assert_eq!(delta.canonicalize(&doc), oracle);
    }

    /// On any Unicode document, canonicalization yields one minimal splice
    /// with the input's effect, and is idempotent.
    #[test]
    fn canonicalize_is_one_minimal_splice_on_unicode(
        doc in "\\PC{0,80}",
        raw in proptest::collection::vec((any::<u8>(), 0usize..10, "\\PC{0,5}"), 0..10),
    ) {
        let delta = byte_delta_on_char_boundaries(&doc, raw);
        let canonical = delta.canonicalize(&doc).unwrap();
        let (mut retain, mut delete, mut insert) = (0, 0, "");
        for (i, op) in canonical.ops().iter().enumerate() {
            match op {
                DeltaOp::Retain(n) => { prop_assert_eq!(i, 0); retain = *n; }
                DeltaOp::Delete(n) => { prop_assert_eq!(delete, 0); delete = *n; }
                DeltaOp::Insert(s) => { prop_assert_eq!(i + 1, canonical.ops().len()); insert = s; }
            }
        }
        prop_assert!(canonical.ops().len() <= 3);
        prop_assert_eq!(
            canonical.apply_bytes(doc.as_bytes()).unwrap(),
            delta.apply_bytes(doc.as_bytes()).unwrap()
        );
        prop_assert_eq!(&canonical.canonicalize(&doc).unwrap(), &canonical);
        let deleted = &doc[retain..retain + delete];
        if !deleted.is_empty() && !insert.is_empty() {
            prop_assert_ne!(deleted.chars().next(), insert.chars().next());
            prop_assert_ne!(deleted.chars().next_back(), insert.chars().next_back());
        }
    }
}
