//! Transforming plaintext deltas into ciphertext deltas.
//!
//! Figure 1 of the paper: the extension "mediates all client-server
//! traffic, encrypting the document contents and updates as necessary for
//! the server to maintain the ciphertext document". The piece that makes
//! incremental saves work is `transform_delta` (Figure 2): a translation
//! from the client's plaintext delta into a *cdelta* — an equivalent delta
//! over the serialized ciphertext string.
//!
//! The [`DeltaTransformer`] owns the encrypted document plus a mirror of
//! the serialized ciphertext (the paper: the extension "maintains a copy
//! of the state of the ciphertext document which is needed to transform
//! the delta"). For each plaintext operation it applies the corresponding
//! [`EditOp`] to the encrypted document, converts the resulting record
//! [`CipherPatch`]es into a character-level delta, and composes the
//! per-operation deltas into the single cdelta sent to the server.

use pe_delta::{Delta, DeltaOp};

use crate::error::CoreError;
use crate::wire::{self, CipherPatch, Layout};
use crate::IncrementalCipherDoc;
use crate::EditOp;

/// Converts record-level patches into a character-level delta over the
/// serialized ciphertext.
pub fn patches_to_delta(patches: &[CipherPatch], layout: Layout) -> Delta {
    let mut builder = Delta::builder();
    let mut cursor_chars = 0usize;
    for patch in patches {
        let start = layout.record_offset(patch.start_record);
        debug_assert!(start >= cursor_chars, "patches must be sorted");
        builder.retain(start - cursor_chars);
        builder.delete(patch.removed * layout.record_chars);
        for record in &patch.inserted {
            builder.insert(record);
        }
        cursor_chars = start + patch.removed * layout.record_chars;
    }
    builder.build()
}

/// The wire size (in characters) of the ciphertext delta a patch set
/// produces — what an incremental save actually transmits.
pub fn update_wire_len(patches: &[CipherPatch], layout: Layout) -> usize {
    patches_to_delta(patches, layout).serialize().len()
}

/// Owns an encrypted document and translates plaintext deltas into
/// ciphertext deltas.
///
/// # Example
///
/// ```
/// use pe_core::{DeltaTransformer, DocumentKey, RecbDocument, SchemeParams};
/// use pe_crypto::CtrDrbg;
/// use pe_delta::Delta;
///
/// let key = DocumentKey::derive("pw", &[3u8; 16], 100);
/// let doc = RecbDocument::create(&key, SchemeParams::recb(8), b"abcdefg", CtrDrbg::from_seed(5))?;
/// let mut transformer = DeltaTransformer::new(doc);
/// let before = transformer.ciphertext().to_string();
///
/// // The paper's example delta: "=2 -3 +uv =2 +w" turns abcdefg into abuvfgw.
/// let cdelta = transformer.transform(&Delta::parse("=2\t-3\t+uv\t=2\t+w")?)?;
/// assert_eq!(cdelta.apply(&before)?, transformer.ciphertext());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct DeltaTransformer<D> {
    doc: D,
    ciphertext: String,
}

impl<D: IncrementalCipherDoc> DeltaTransformer<D> {
    /// Wraps an encrypted document, snapshotting its serialized form.
    pub fn new(doc: D) -> DeltaTransformer<D> {
        let ciphertext = doc.serialize();
        DeltaTransformer { doc, ciphertext }
    }

    /// Wraps a document just opened from `serialized`, adopting that
    /// string as the ciphertext mirror instead of re-encoding every
    /// record.
    ///
    /// Sound because the wire parser accepts only the canonical encoding
    /// (see [`wire`](crate::wire)): a document that opens from a string
    /// serializes back to exactly that string. `serialized` must be the
    /// string `doc` was opened from; debug builds check the identity.
    pub fn from_serialized(doc: D, serialized: String) -> DeltaTransformer<D> {
        debug_assert_eq!(doc.serialize(), serialized, "mirror must be the opened string");
        DeltaTransformer { doc, ciphertext: serialized }
    }

    /// The encrypted document.
    pub fn doc(&self) -> &D {
        &self.doc
    }

    /// The mirrored serialized ciphertext (always equal to what the server
    /// should currently store).
    pub fn ciphertext(&self) -> &str {
        &self.ciphertext
    }

    /// Consumes the transformer, returning the document.
    pub fn into_doc(self) -> D {
        self.doc
    }

    /// Translates a plaintext delta into the equivalent ciphertext delta,
    /// updating the encrypted document and the ciphertext mirror.
    ///
    /// Counts in `delta` are interpreted as **bytes** of the plaintext
    /// document (see [`Delta::apply_bytes`]).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::OutOfBounds`] (wrapped delta errors) when the
    /// delta does not fit the current document; the document is left in
    /// the state reached before the failing operation.
    pub fn transform(&mut self, delta: &Delta) -> Result<Delta, CoreError> {
        let layout = self.doc.layout();
        let mut combined = Delta::new();
        let mut out_pos = 0usize;
        for op in delta.ops() {
            let edit = match op {
                DeltaOp::Retain(n) => {
                    out_pos += n;
                    continue;
                }
                DeltaOp::Insert(s) => {
                    let edit = EditOp::insert(out_pos, s.as_bytes());
                    out_pos += s.len();
                    edit
                }
                DeltaOp::Delete(n) => EditOp::delete(out_pos, *n),
            };
            let patches = self.doc.apply(&edit)?;
            let cdelta = patches_to_delta(&patches, layout);
            self.ciphertext = wire::apply_patches(&self.ciphertext, layout, &patches)?;
            combined = combined.compose(&cdelta);
        }
        debug_assert_eq!(self.ciphertext, self.doc.serialize());
        Ok(combined)
    }

    /// Encrypts a full replacement of the document contents (the
    /// `docContents` path of the protocol: the first save of a session
    /// carries the whole document).
    ///
    /// Delegates to [`IncrementalCipherDoc::replace_all`], so schemes with
    /// a batch seal path (rECB, RPC) re-encrypt the whole document in one
    /// — possibly parallel — pass instead of two block-by-block splices.
    ///
    /// Returns the new serialized ciphertext.
    ///
    /// # Errors
    ///
    /// Propagates edit errors (none are expected for a full replacement).
    pub fn replace_all(&mut self, plaintext: &[u8]) -> Result<&str, CoreError> {
        self.doc.replace_all(plaintext)?;
        self.ciphertext = self.doc.serialize();
        Ok(&self.ciphertext)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keys::{DocumentKey, SchemeParams};
    use crate::recb::RecbDocument;
    use crate::rpc::RpcDocument;
    use pe_crypto::CtrDrbg;

    fn key() -> DocumentKey {
        DocumentKey::derive("pw", &[8u8; 16], 100)
    }

    fn recb(plaintext: &[u8], b: usize, seed: u64) -> DeltaTransformer<RecbDocument> {
        DeltaTransformer::new(
            RecbDocument::create(&key(), SchemeParams::recb(b), plaintext, CtrDrbg::from_seed(seed))
                .unwrap(),
        )
    }

    fn rpc(plaintext: &[u8], b: usize, seed: u64) -> DeltaTransformer<RpcDocument> {
        DeltaTransformer::new(
            RpcDocument::create(&key(), SchemeParams::rpc(b), plaintext, CtrDrbg::from_seed(seed))
                .unwrap(),
        )
    }

    #[test]
    fn paper_delta_examples_transform() {
        let mut t = recb(b"abcdefg", 8, 1);
        let before = t.ciphertext().to_string();
        let cdelta = t.transform(&Delta::parse("=2\t-5").unwrap()).unwrap();
        assert_eq!(t.doc().decrypt().unwrap(), b"ab");
        assert_eq!(cdelta.apply(&before).unwrap(), t.ciphertext());
    }

    #[test]
    fn server_view_tracks_through_session_recb() {
        let mut t = recb(b"The quick brown fox", 4, 2);
        let mut server = t.ciphertext().to_string();
        for wire_delta in ["=4\t+slow and ", "-3\t+A", "=10\t-5", "+>>\t=3\t-1"] {
            let delta = Delta::parse(wire_delta).unwrap();
            let cdelta = t.transform(&delta).unwrap();
            server = cdelta.apply(&server).unwrap();
            assert_eq!(server, t.ciphertext(), "after {wire_delta:?}");
        }
        // Plaintext model must match too.
        let mut model = b"The quick brown fox".to_vec();
        for wire_delta in ["=4\t+slow and ", "-3\t+A", "=10\t-5", "+>>\t=3\t-1"] {
            model = Delta::parse(wire_delta).unwrap().apply_bytes(&model).unwrap();
        }
        assert_eq!(t.doc().decrypt().unwrap(), model);
    }

    #[test]
    fn server_view_tracks_through_session_rpc() {
        let mut t = rpc(b"integrity protected editing session", 7, 3);
        let mut server = t.ciphertext().to_string();
        for wire_delta in ["=9\t-10\t+XYZ", "+prefix ", "=20\t+mid", "-6"] {
            let delta = Delta::parse(wire_delta).unwrap();
            let cdelta = t.transform(&delta).unwrap();
            server = cdelta.apply(&server).unwrap();
            assert_eq!(server, t.ciphertext(), "after {wire_delta:?}");
        }
        // Server-held ciphertext must verify and decrypt.
        let reopened = RpcDocument::open(&key(), &server, CtrDrbg::from_seed(9)).unwrap();
        assert_eq!(reopened.decrypt().unwrap(), t.doc().decrypt().unwrap());
    }

    #[test]
    fn multi_op_delta_composes_into_one_cdelta() {
        let mut t = recb(b"abcdefg", 8, 4);
        let before = t.ciphertext().to_string();
        let cdelta = t.transform(&Delta::parse("=2\t-3\t+uv\t=2\t+w").unwrap()).unwrap();
        assert_eq!(t.doc().decrypt().unwrap(), b"abuvfgw");
        assert_eq!(cdelta.apply(&before).unwrap(), t.ciphertext());
    }

    #[test]
    fn out_of_bounds_delta_rejected() {
        let mut t = recb(b"abc", 8, 5);
        let err = t.transform(&Delta::parse("=10\t+x").unwrap()).unwrap_err();
        assert!(matches!(err, CoreError::OutOfBounds { .. }));
    }

    #[test]
    fn replace_all_resets_contents() {
        let mut t = recb(b"old contents", 8, 6);
        t.replace_all(b"entirely new").unwrap();
        assert_eq!(t.doc().decrypt().unwrap(), b"entirely new");
        assert_eq!(t.ciphertext(), t.doc().serialize());
    }

    #[test]
    fn identity_delta_produces_identity_cdelta() {
        let mut t = recb(b"unchanged", 8, 7);
        let cdelta = t.transform(&Delta::parse("=5").unwrap()).unwrap();
        assert!(cdelta.is_identity());
    }

    #[test]
    fn patches_to_delta_offsets() {
        let layout = Layout::standard();
        let record = "X".repeat(layout.record_chars);
        let patches = vec![
            CipherPatch::splice(1, 1, vec![record.clone()]),
            CipherPatch::splice(3, 0, vec![record.clone()]),
        ];
        let delta = patches_to_delta(&patches, layout);
        let expected_retain = layout.record_offset(1);
        let serialized = delta.serialize();
        assert!(serialized.starts_with(&format!("={expected_retain}")), "{serialized}");
    }
}
