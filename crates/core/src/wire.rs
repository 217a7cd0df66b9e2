//! Serialized ciphertext format.
//!
//! The server must be able to store and render the ciphertext as ordinary
//! document text, so everything is encoded with the RFC 4648 Base32
//! alphabet (§IV/Fig. 2 of the paper use `Base32.encode`). The format is:
//!
//! ```text
//! PE1;<mode>;b<digit>;<salt>; <record> <record> …
//! └────────── preamble ─────┘
//! ```
//!
//! * The **preamble** is cleartext: format version, mode tag (`R` = rECB,
//!   `P` = RPC), maximum block size, and the Base32 KDF salt. It is
//!   written once at creation and never changes, so incremental updates
//!   never touch it.
//! * Each **record** is exactly [`RECORD_CHARS`] characters: a one-character
//!   tag followed by 26 Base32 characters encoding one 16-byte AES block.
//!   Tags: `0` = header block, `1`–`8` = data block holding that many
//!   plaintext characters (the public per-block character counter §V-C
//!   requires for variable-length blocks), `9` = RPC checksum block.
//!
//! Because records have fixed width, an incremental update maps to a small
//! set of contiguous record splices ([`CipherPatch`]), which the
//! transformer turns into a character-level delta over this string.
//!
//! # Canonical encoding
//!
//! Parsing accepts exactly what the encoder emits: uppercase `A–Z2–7`
//! Base32 with zero trailing bits in every record and in the salt, and
//! the closing `;` of the preamble. Every string that parses therefore
//! equals the serialization of what it parses to, byte for byte. That is
//! what lets a client adopt the server's own string as its ciphertext
//! mirror ([`DeltaTransformer::from_serialized`](crate::DeltaTransformer::from_serialized))
//! instead of re-encoding every record after an open.
//!
//! Records are encoded and decoded one 16-byte block at a time through
//! [`base32::encode_block`] / [`base32::decode_block`], straight from and
//! into fixed arrays: serializing a document writes one buffer sized up
//! front, and parsing walks the record region in place.

use pe_crypto::base32;

use crate::error::CoreError;
use crate::keys::{Mode, SchemeParams};

/// Characters per serialized record: 1 tag + 26 Base32 characters for a
/// 16-byte block.
pub const RECORD_CHARS: usize = 1 + base32::encoded_len(16);

/// Fixed preamble length: `PE1;` + `R;` + `b8;` + 26-char salt + `;`.
pub const PREAMBLE_CHARS: usize = 4 + 2 + 3 + base32::encoded_len(16) + 1;

/// Geometry of a serialized ciphertext document, used to convert record
/// indices into character offsets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Layout {
    /// Characters before the first record.
    pub preamble_chars: usize,
    /// Characters per record.
    pub record_chars: usize,
}

impl Layout {
    /// The layout every current document uses.
    pub fn standard() -> Layout {
        Layout { preamble_chars: PREAMBLE_CHARS, record_chars: RECORD_CHARS }
    }

    /// Character offset of record `index`.
    pub fn record_offset(&self, index: usize) -> usize {
        self.preamble_chars + index * self.record_chars
    }
}

/// A contiguous splice of records: starting at `start_record` (an index
/// into the records of the *previous* serialized ciphertext), `removed`
/// records are deleted and `inserted` serialized records take their place.
///
/// [`IncrementalCipherDoc::apply`](crate::IncrementalCipherDoc::apply)
/// returns patches sorted by `start_record` and non-overlapping, so they
/// translate directly into a single left-to-right delta.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CipherPatch {
    /// Record index (in the pre-update ciphertext) where the splice starts.
    pub start_record: usize,
    /// Number of old records removed.
    pub removed: usize,
    /// Serialized replacement records.
    pub inserted: Vec<String>,
}

impl CipherPatch {
    /// A patch replacing `removed` records at `start_record` with the
    /// given serialized records.
    pub fn splice(start_record: usize, removed: usize, inserted: Vec<String>) -> CipherPatch {
        CipherPatch { start_record, removed, inserted }
    }
}

/// Cleartext document parameters carried in the preamble.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Preamble {
    /// Encryption mode.
    pub mode: Mode,
    /// Maximum characters per block.
    pub max_block: usize,
    /// KDF salt.
    pub salt: [u8; 16],
}

impl Preamble {
    /// Builds a preamble from scheme parameters and the key salt.
    pub fn new(params: &SchemeParams, salt: [u8; 16]) -> Preamble {
        Preamble { mode: params.mode, max_block: params.max_block, salt }
    }

    /// The preamble's [`PREAMBLE_CHARS`] ASCII bytes.
    fn to_bytes(self) -> [u8; PREAMBLE_CHARS] {
        debug_assert!((1..=8).contains(&self.max_block));
        let mut out = [0u8; PREAMBLE_CHARS];
        out[..4].copy_from_slice(b"PE1;");
        out[4] = self.mode.tag() as u8;
        out[5] = b';';
        out[6] = b'b';
        out[7] = b'0' + self.max_block as u8;
        out[8] = b';';
        out[9..PREAMBLE_CHARS - 1].copy_from_slice(&base32::encode_block(&self.salt));
        out[PREAMBLE_CHARS - 1] = b';';
        out
    }

    /// Encodes the preamble (always [`PREAMBLE_CHARS`] characters).
    pub fn encode(&self) -> String {
        String::from_utf8(self.to_bytes().to_vec()).expect("preamble is ASCII")
    }

    /// Parses a preamble from the start of a serialized document.
    ///
    /// Only the canonical form is accepted: `PE1;`, a mode tag, `;b`, a
    /// block size digit `1`–`8`, `;`, the salt in uppercase Base32 with
    /// zero trailing bits, and the closing `;`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Malformed`] when the text does not follow the
    /// preamble grammar.
    pub fn parse(text: &str) -> Result<Preamble, CoreError> {
        let malformed = |detail: &str| CoreError::Malformed { detail: detail.to_string() };
        let Some(head) = text.as_bytes().get(..PREAMBLE_CHARS) else {
            return Err(malformed("document shorter than preamble"));
        };
        if !head.starts_with(b"PE1;") {
            return Err(malformed("missing PE1 magic"));
        }
        let mode = Mode::from_tag(char::from(head[4]))
            .filter(|_| head[5] == b';')
            .ok_or_else(|| malformed("unknown mode tag"))?;
        let max_block = match head[6..9] {
            [b'b', digit @ b'1'..=b'8', b';'] => usize::from(digit - b'0'),
            _ => return Err(malformed("invalid block size field")),
        };
        let salt = base32::decode_block(&head[9..PREAMBLE_CHARS - 1])
            .map_err(|_| malformed("invalid salt encoding"))?;
        if head[PREAMBLE_CHARS - 1] != b';' {
            return Err(malformed("preamble must end with ';'"));
        }
        Ok(Preamble { mode, max_block, salt })
    }
}

/// The [`RECORD_CHARS`] ASCII bytes of one record.
fn record_bytes(tag: char, block: &[u8; 16]) -> [u8; RECORD_CHARS] {
    debug_assert!(tag.is_ascii_digit());
    let mut out = [0u8; RECORD_CHARS];
    out[0] = tag as u8;
    out[1..].copy_from_slice(&base32::encode_block(block));
    out
}

/// Appends one record to `out`: tag character + Base32 of the 16-byte
/// block.
pub fn encode_record_into(out: &mut String, tag: char, block: &[u8; 16]) {
    out.push_str(std::str::from_utf8(&record_bytes(tag, block)).expect("records are ASCII"));
}

/// Encodes one record: tag character + Base32 of the 16-byte block.
pub fn encode_record(tag: char, block: &[u8; 16]) -> String {
    let mut out = String::with_capacity(RECORD_CHARS);
    encode_record_into(&mut out, tag, block);
    out
}

/// Serializes a whole document — the preamble, then `count` records
/// given as `(tag, block)` — into one buffer sized up front.
pub fn serialize_records<'a>(
    preamble: Preamble,
    count: usize,
    records: impl IntoIterator<Item = (char, &'a [u8; 16])>,
) -> String {
    let mut out = Vec::with_capacity(PREAMBLE_CHARS + count * RECORD_CHARS);
    out.extend_from_slice(&preamble.to_bytes());
    for (tag, block) in records {
        out.extend_from_slice(&record_bytes(tag, block));
    }
    debug_assert_eq!(out.len(), PREAMBLE_CHARS + count * RECORD_CHARS);
    String::from_utf8(out).expect("serialized documents are ASCII")
}

/// Decodes one record into its tag and block.
///
/// Accepts only the canonical encoding: a digit tag and 26 uppercase
/// Base32 characters with zero trailing bits.
///
/// # Errors
///
/// Returns [`CoreError::Malformed`] for wrong length, an invalid tag, or
/// invalid Base32.
pub fn decode_record(record: impl AsRef<[u8]>) -> Result<(char, [u8; 16]), CoreError> {
    let record = record.as_ref();
    if record.len() != RECORD_CHARS {
        return Err(CoreError::Malformed {
            detail: format!("record must be {RECORD_CHARS} chars, got {}", record.len()),
        });
    }
    let tag = record[0];
    if !tag.is_ascii_digit() {
        return Err(CoreError::Malformed { detail: format!("invalid record tag {tag:#04x}") });
    }
    let block = base32::decode_block(&record[1..])
        .map_err(|e| CoreError::Malformed { detail: format!("invalid record body: {e}") })?;
    Ok((char::from(tag), block))
}

/// The records of a serialized document, walked in place as
/// [`RECORD_CHARS`]-byte chunks of the text after the preamble (the
/// preamble itself is not checked here; see [`Preamble::parse`]).
///
/// # Errors
///
/// Returns [`CoreError::Malformed`] when the text is shorter than the
/// preamble or the region after it is not a whole number of records.
pub fn record_chunks(text: &str) -> Result<std::slice::ChunksExact<'_, u8>, CoreError> {
    let Some(body) = text.as_bytes().get(PREAMBLE_CHARS..) else {
        return Err(CoreError::Malformed { detail: "document shorter than preamble".into() });
    };
    if !body.len().is_multiple_of(RECORD_CHARS) {
        return Err(CoreError::Malformed {
            detail: format!("record region length {} is not a multiple of {RECORD_CHARS}", body.len()),
        });
    }
    Ok(body.chunks_exact(RECORD_CHARS))
}

/// Splits the record region of a serialized document into record strings.
///
/// # Errors
///
/// Returns [`CoreError::Malformed`] when the region is not a whole number
/// of records.
pub fn split_records(text: &str) -> Result<Vec<&str>, CoreError> {
    record_chunks(text)?
        .map(|c| {
            std::str::from_utf8(c)
                .map_err(|_| CoreError::Malformed { detail: "record is not ASCII".into() })
        })
        .collect()
}

/// Applies a sorted, non-overlapping patch set to a serialized ciphertext
/// document, producing the updated serialized document.
///
/// This mirrors what the cloud server effectively does when it applies the
/// transformed delta: it is used by tests and by the delta transformer to
/// maintain the extension's ciphertext mirror.
///
/// # Errors
///
/// Returns [`CoreError::Malformed`] when patches overlap, are unsorted, or
/// reach outside the document's records.
pub fn apply_patches(
    old: &str,
    layout: Layout,
    patches: &[CipherPatch],
) -> Result<String, CoreError> {
    let record_region = old
        .get(layout.preamble_chars..)
        .ok_or_else(|| CoreError::Malformed { detail: "document shorter than preamble".into() })?;
    if !old.is_ascii() {
        return Err(CoreError::Malformed { detail: "ciphertext documents are ASCII".into() });
    }
    if record_region.len() % layout.record_chars != 0 {
        return Err(CoreError::Malformed { detail: "misaligned record region".into() });
    }
    let total_records = record_region.len() / layout.record_chars;
    // Sized for the worst case (nothing removed), so the splice never
    // reallocates.
    let inserted: usize = patches.iter().map(|p| p.inserted.len()).sum();
    let mut out = String::with_capacity(old.len() + inserted * layout.record_chars);
    out.push_str(&old[..layout.preamble_chars]);
    let mut cursor = 0usize; // record index into the old document
    for patch in patches {
        if patch.start_record < cursor {
            return Err(CoreError::Malformed { detail: "patches overlap or are unsorted".into() });
        }
        let splice_end = patch.start_record + patch.removed;
        if splice_end > total_records {
            return Err(CoreError::Malformed {
                detail: format!(
                    "patch touches record {} but document has {total_records}",
                    splice_end - 1
                ),
            });
        }
        // Copy untouched records, skip removed ones, emit replacements.
        let keep_start = layout.preamble_chars + cursor * layout.record_chars;
        let keep_end = layout.preamble_chars + patch.start_record * layout.record_chars;
        out.push_str(&old[keep_start..keep_end]);
        for record in &patch.inserted {
            if record.len() != layout.record_chars {
                return Err(CoreError::Malformed {
                    detail: format!("inserted record has width {}", record.len()),
                });
            }
            out.push_str(record);
        }
        cursor = splice_end;
    }
    out.push_str(&old[layout.preamble_chars + cursor * layout.record_chars..]);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_width_is_27() {
        assert_eq!(RECORD_CHARS, 27);
    }

    #[test]
    fn preamble_roundtrip() {
        for (mode, b) in [(Mode::Recb, 1), (Mode::Recb, 8), (Mode::Rpc, 4)] {
            let params = match mode {
                Mode::Recb => SchemeParams::recb(b),
                Mode::Rpc => SchemeParams::rpc(b),
            };
            let pre = Preamble::new(&params, [0xab; 16]);
            let text = pre.encode();
            assert_eq!(text.len(), PREAMBLE_CHARS);
            assert_eq!(Preamble::parse(&text).unwrap(), pre);
        }
    }

    #[test]
    fn preamble_rejects_garbage() {
        assert!(Preamble::parse("").is_err());
        assert!(Preamble::parse(&"x".repeat(PREAMBLE_CHARS)).is_err());
        let good = Preamble::new(&SchemeParams::recb(8), [1; 16]).encode();
        let bad_mode = good.replacen("R", "Z", 1);
        assert!(Preamble::parse(&bad_mode).is_err());
        let bad_block = good.replacen("b8", "b9", 1);
        assert!(Preamble::parse(&bad_block).is_err());
        // The closing ';' is part of the grammar.
        let unterminated = format!("{}X", &good[..PREAMBLE_CHARS - 1]);
        assert!(matches!(Preamble::parse(&unterminated), Err(CoreError::Malformed { .. })));
        // Only the canonical uppercase salt parses.
        let lowercase_salt = format!(
            "{}{}",
            &good[..9],
            good[9..].to_ascii_lowercase()
        );
        assert_ne!(lowercase_salt, good);
        assert!(matches!(Preamble::parse(&lowercase_salt), Err(CoreError::Malformed { .. })));
    }

    #[test]
    fn record_roundtrip() {
        let block = [0x5a; 16];
        for tag in '0'..='9' {
            let text = encode_record(tag, &block);
            assert_eq!(text.len(), RECORD_CHARS);
            assert_eq!(decode_record(&text).unwrap(), (tag, block));
        }
    }

    #[test]
    fn record_rejects_bad_input() {
        assert!(decode_record("short").is_err());
        let good = encode_record('1', &[0; 16]);
        let bad_tag = format!("x{}", &good[1..]);
        assert!(decode_record(&bad_tag).is_err());
        let bad_body = format!("1{}", "!".repeat(26));
        assert!(decode_record(&bad_body).is_err());
    }

    #[test]
    fn split_records_checks_alignment() {
        let pre = Preamble::new(&SchemeParams::recb(8), [2; 16]).encode();
        let r1 = encode_record('0', &[1; 16]);
        let r2 = encode_record('3', &[2; 16]);
        let doc = format!("{pre}{r1}{r2}");
        let records = split_records(&doc).unwrap();
        assert_eq!(records, vec![r1.as_str(), r2.as_str()]);
        let misaligned = format!("{pre}{r1}xx");
        assert!(split_records(&misaligned).is_err());
    }

    #[test]
    fn layout_offsets() {
        let layout = Layout::standard();
        assert_eq!(layout.record_offset(0), PREAMBLE_CHARS);
        assert_eq!(layout.record_offset(3), PREAMBLE_CHARS + 3 * RECORD_CHARS);
    }

    fn sample_doc(n: usize) -> String {
        let mut doc = Preamble::new(&SchemeParams::recb(8), [7; 16]).encode();
        for i in 0..n {
            doc.push_str(&encode_record('1', &[i as u8; 16]));
        }
        doc
    }

    #[test]
    fn apply_patches_replaces_records() {
        let doc = sample_doc(3);
        let replacement = encode_record('2', &[0xff; 16]);
        let patch = CipherPatch::splice(1, 1, vec![replacement.clone()]);
        let out = apply_patches(&doc, Layout::standard(), &[patch]).unwrap();
        let records = split_records(&out).unwrap();
        assert_eq!(records.len(), 3);
        assert_eq!(records[1], replacement);
        assert_eq!(records[0], split_records(&doc).unwrap()[0]);
    }

    #[test]
    fn apply_patches_insert_and_remove() {
        let doc = sample_doc(4);
        let extra = encode_record('4', &[0xee; 16]);
        let patches = vec![
            CipherPatch::splice(1, 0, vec![extra.clone()]),
            CipherPatch::splice(2, 2, vec![]),
        ];
        let out = apply_patches(&doc, Layout::standard(), &patches).unwrap();
        let old_records = split_records(&doc).unwrap();
        let records = split_records(&out).unwrap();
        assert_eq!(records.len(), 3);
        assert_eq!(records[0], old_records[0]);
        assert_eq!(records[1], extra);
        assert_eq!(records[2], old_records[1]);
    }

    #[test]
    fn apply_patches_rejects_overlap() {
        let doc = sample_doc(4);
        let patches = vec![CipherPatch::splice(1, 2, vec![]), CipherPatch::splice(2, 1, vec![])];
        assert!(apply_patches(&doc, Layout::standard(), &patches).is_err());
    }

    #[test]
    fn apply_patches_rejects_out_of_range() {
        let doc = sample_doc(2);
        let patches = vec![CipherPatch::splice(1, 5, vec![])];
        assert!(apply_patches(&doc, Layout::standard(), &patches).is_err());
    }

    #[test]
    fn empty_patch_set_is_identity() {
        let doc = sample_doc(2);
        assert_eq!(apply_patches(&doc, Layout::standard(), &[]).unwrap(), doc);
    }
}
