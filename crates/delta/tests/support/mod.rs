//! Test support shared by pe-delta's integration tests and, through a
//! `#[path]` module under `cfg(test)` in `src/lib.rs`, its unit tests: a
//! generator of valid byte-counted deltas for any text, and a
//! char-counted reference apply that is the oracle on ASCII documents.

#![allow(dead_code)]

use super::{Delta, DeltaError, DeltaOp};

/// Builds a delta against `doc` from `(kind, n, text)` triples: retains
/// and deletes of up to `n` of the characters left, counted in **bytes**,
/// so every count lands on a character boundary.
pub fn byte_delta_on_char_boundaries(doc: &str, raw: Vec<(u8, usize, String)>) -> Delta {
    let mut rest = doc;
    let mut ops = Vec::new();
    for (kind, n, text) in raw {
        if kind % 3 == 2 {
            ops.push(DeltaOp::Insert(text));
            continue;
        }
        let bytes = rest.char_indices().nth(n).map_or(rest.len(), |(i, _)| i);
        rest = &rest[bytes..];
        ops.push(if kind % 3 == 0 { DeltaOp::Retain(bytes) } else { DeltaOp::Delete(bytes) });
    }
    Delta::from_ops(ops)
}

/// Applies `delta` to `doc` counting **characters**, not bytes. The two
/// units agree on ASCII text, so there this is an independent oracle for
/// the byte-counted code, errors included.
pub fn apply_counting_chars(delta: &Delta, doc: &str) -> Result<String, DeltaError> {
    let chars: Vec<char> = doc.chars().collect();
    let mut out = String::new();
    let mut cursor = 0usize;
    for op in delta.ops() {
        match op {
            DeltaOp::Retain(n) | DeltaOp::Delete(n) => {
                let end = cursor.checked_add(*n).filter(|&end| end <= chars.len()).ok_or(
                    DeltaError::PastEnd { position: cursor, requested: *n, len: chars.len() },
                )?;
                if matches!(op, DeltaOp::Retain(_)) {
                    out.extend(&chars[cursor..end]);
                }
                cursor = end;
            }
            DeltaOp::Insert(s) => out.push_str(s),
        }
    }
    out.extend(&chars[cursor..]);
    Ok(out)
}
