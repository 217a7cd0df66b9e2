//! The XOR incremental scheme — a deliberately weak negative control.
//!
//! Section V-A notes that "the hash-then-sign and XOR schemes are all
//! subject to substitution attacks". This module implements the XOR-style
//! scheme so those attacks can be demonstrated concretely: each block is
//! `(rᵢ ‖ F(rᵢ) ⊕ dᵢ)` with the nonce stored **in the clear**, making the
//! payload half malleable — an attacker who knows (or guesses) a block's
//! plaintext can rewrite it to any value of the same length without the
//! key, and blocks can be substituted freely.
//!
//! The attack tests in this module and the workspace integration tests
//! show the forgery succeeding here while the same manipulation against
//! [`RpcDocument`](crate::RpcDocument) raises
//! [`CoreError::IntegrityFailure`].

use pe_crypto::aes::Aes128;
use pe_crypto::drbg::NonceSource;
use pe_crypto::BlockCipher;
use pe_indexlist::{BlockSeq, IndexedSkipList};

use crate::error::CoreError;
use crate::keys::{DocumentKey, Mode, SchemeParams};
use crate::pack::{chunks, pad8, SealedBlock};
use crate::splice::{plan, SplicePlan};
use crate::wire::{
    decode_record, encode_record, serialize_records, split_records, CipherPatch, Layout,
    Preamble,
};
use crate::{EditOp, IncrementalCipherDoc};

/// An encrypted document using the malleable XOR scheme.
///
/// The wire format reuses the standard record layout; the preamble mode
/// tag is rECB's (a server cannot tell the schemes apart), so documents
/// must be reopened with [`XorDocument::open`], not
/// [`RecbDocument::open`](crate::RecbDocument::open).
pub struct XorDocument {
    cipher: Aes128,
    salt: [u8; 16],
    params: SchemeParams,
    blocks: IndexedSkipList<SealedBlock>,
    rng: Box<dyn NonceSource + Send>,
}

impl std::fmt::Debug for XorDocument {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("XorDocument")
            .field("blocks", &self.blocks.len_blocks())
            .field("len", &self.blocks.total_weight())
            .finish_non_exhaustive()
    }
}

impl XorDocument {
    /// Encrypts `plaintext` into a fresh document.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::BadParams`] for invalid parameters.
    pub fn create<R>(
        key: &DocumentKey,
        params: SchemeParams,
        plaintext: &[u8],
        rng: R,
    ) -> Result<XorDocument, CoreError>
    where
        R: NonceSource + Send + 'static,
    {
        params.validate()?;
        let mut doc = XorDocument {
            cipher: key.cipher(),
            salt: *key.salt(),
            params: SchemeParams { mode: Mode::Recb, ..params },
            blocks: IndexedSkipList::new(),
            rng: Box::new(rng),
        };
        for (i, chunk) in chunks(plaintext, params.max_block).enumerate() {
            let sealed = doc.seal(chunk);
            doc.blocks.insert(i, sealed);
        }
        Ok(doc)
    }

    /// Loads a document from its serialized form. No integrity of any
    /// kind is verified — that is the point of this baseline.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Malformed`] for structural problems only.
    pub fn open<R>(key: &DocumentKey, serialized: &str, rng: R) -> Result<XorDocument, CoreError>
    where
        R: NonceSource + Send + 'static,
    {
        let preamble = Preamble::parse(serialized)?;
        let records = split_records(serialized)?;
        let mut blocks = IndexedSkipList::new();
        for (i, record) in records.iter().enumerate() {
            let (tag, cipher) = decode_record(record)?;
            let len = tag.to_digit(10).filter(|d| (1..=8).contains(d)).ok_or_else(|| {
                CoreError::Malformed { detail: format!("invalid record tag {tag:?}") }
            })? as u8;
            blocks.insert(i, SealedBlock { len, cipher });
        }
        Ok(XorDocument {
            cipher: key.cipher(),
            salt: preamble.salt,
            params: SchemeParams::recb(preamble.max_block),
            blocks,
            rng: Box::new(rng),
        })
    }

    fn seal(&mut self, data: &[u8]) -> SealedBlock {
        let mut r = [0u8; 8];
        self.rng.fill_bytes(&mut r);
        let mask = self.mask(&r);
        let payload = pad8(data);
        let mut block = [0u8; 16];
        block[..8].copy_from_slice(&r);
        for k in 0..8 {
            block[8 + k] = payload[k] ^ mask[k];
        }
        SealedBlock { len: data.len() as u8, cipher: block }
    }

    /// Keystream for a nonce: the first 8 bytes of `F(r ‖ 0⁸)`.
    fn mask(&self, r: &[u8; 8]) -> [u8; 8] {
        let mut block = [0u8; 16];
        block[..8].copy_from_slice(r);
        self.cipher.encrypt_block(&mut block);
        block[..8].try_into().expect("8 bytes")
    }

    fn open_block(&self, ordinal: usize) -> Vec<u8> {
        let sealed = self.blocks.get(ordinal).expect("in range");
        let r: [u8; 8] = sealed.cipher[..8].try_into().expect("8 bytes");
        let mask = self.mask(&r);
        (0..sealed.len as usize).map(|k| sealed.cipher[8 + k] ^ mask[k]).collect()
    }
}

impl IncrementalCipherDoc for XorDocument {
    fn len(&self) -> usize {
        self.blocks.total_weight()
    }

    fn decrypt(&self) -> Result<Vec<u8>, CoreError> {
        let mut out = Vec::with_capacity(self.len());
        for ordinal in 0..self.blocks.len_blocks() {
            out.extend_from_slice(&self.open_block(ordinal));
        }
        Ok(out)
    }

    fn apply(&mut self, op: &EditOp) -> Result<Vec<CipherPatch>, CoreError> {
        let plan = plan(&self.blocks, op, |ordinal| self.open_block(ordinal))?;
        let SplicePlan::Splice { start_block, removed, content } = plan else {
            return Ok(Vec::new());
        };
        for _ in 0..removed {
            self.blocks.remove(start_block);
        }
        let mut inserted = Vec::new();
        for (i, piece) in chunks(&content, self.params.max_block).enumerate() {
            let sealed = self.seal(piece);
            inserted.push(encode_record(sealed.tag(), &sealed.cipher));
            self.blocks.insert(start_block + i, sealed);
        }
        Ok(vec![CipherPatch::splice(start_block, removed, inserted)])
    }

    fn serialize(&self) -> String {
        serialize_records(
            Preamble::new(&self.params, self.salt),
            self.blocks.len_blocks(),
            self.blocks.iter().map(|block| (block.tag(), &block.cipher)),
        )
    }

    fn layout(&self) -> Layout {
        Layout::standard()
    }
}

/// Forges a block of a serialized [`XorDocument`] **without the key**:
/// given the known plaintext of record `index`, rewrites it to decrypt to
/// `new_text` (same length).
///
/// This is the §V-A substitution/malleability attack, packaged as a
/// function so tests and examples can demonstrate it.
///
/// # Errors
///
/// Returns [`CoreError::Malformed`] for structural problems or when the
/// lengths differ.
pub(crate) fn forge_block(
    serialized: &str,
    index: usize,
    known_plaintext: &[u8],
    new_text: &[u8],
) -> Result<String, CoreError> {
    if known_plaintext.len() != new_text.len() {
        return Err(CoreError::Malformed { detail: "forgery must preserve length".into() });
    }
    let records = split_records(serialized)?;
    let record = records.get(index).ok_or_else(|| CoreError::Malformed {
        detail: format!("record {index} out of range"),
    })?;
    let (tag, mut cipher) = decode_record(record)?;
    for (k, (old, new)) in known_plaintext.iter().zip(new_text.iter()).enumerate() {
        cipher[8 + k] ^= old ^ new;
    }
    let forged = encode_record(tag, &cipher);
    let layout = Layout::standard();
    let start = layout.record_offset(index);
    let mut out = serialized.to_string();
    out.replace_range(start..start + layout.record_chars, &forged);
    Ok(out)
}

impl XorDocument {
    /// Public wrapper for the forgery helper — exposed so examples and
    /// benchmarks can demonstrate the attack.
    ///
    /// # Errors
    ///
    /// As for the underlying forgery helper.
    pub fn forge_without_key(
        serialized: &str,
        record_index: usize,
        known_plaintext: &[u8],
        new_text: &[u8],
    ) -> Result<String, CoreError> {
        forge_block(serialized, record_index, known_plaintext, new_text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pe_crypto::CtrDrbg;

    fn key() -> DocumentKey {
        DocumentKey::derive("xor", &[7u8; 16], 100)
    }

    fn doc(text: &[u8], seed: u64) -> XorDocument {
        XorDocument::create(&key(), SchemeParams::recb(8), text, CtrDrbg::from_seed(seed))
            .unwrap()
    }

    #[test]
    fn roundtrip_and_edits() {
        let mut d = doc(b"pay alice $100 tomorrow", 1);
        assert_eq!(d.decrypt().unwrap(), b"pay alice $100 tomorrow");
        d.apply(&EditOp::delete(4, 6)).unwrap();
        assert_eq!(d.decrypt().unwrap(), b"pay $100 tomorrow");
    }

    #[test]
    fn serialize_open_roundtrip() {
        let d = doc(b"xor scheme contents", 2);
        let wire = d.serialize();
        let reopened = XorDocument::open(&key(), &wire, CtrDrbg::from_seed(5)).unwrap();
        assert_eq!(reopened.decrypt().unwrap(), b"xor scheme contents");
    }

    #[test]
    fn known_plaintext_forgery_succeeds_without_key() {
        // Attacker knows block 0 holds "pay $100" and rewrites it.
        let d = doc(b"pay $100", 3);
        let wire = d.serialize();
        let forged =
            XorDocument::forge_without_key(&wire, 0, b"pay $100", b"pay $999").unwrap();
        let victim = XorDocument::open(&key(), &forged, CtrDrbg::from_seed(0)).unwrap();
        assert_eq!(victim.decrypt().unwrap(), b"pay $999", "malleability attack must work");
    }

    #[test]
    fn substitution_attack_succeeds() {
        let d = doc(b"AAAAAAAABBBBBBBB", 4);
        let wire = d.serialize();
        let layout = Layout::standard();
        let pre = &wire[..layout.preamble_chars];
        let records: Vec<String> =
            split_records(&wire).unwrap().iter().map(|r| r.to_string()).collect();
        let swapped = format!("{pre}{}{}", records[1], records[0]);
        let victim = XorDocument::open(&key(), &swapped, CtrDrbg::from_seed(0)).unwrap();
        assert_eq!(victim.decrypt().unwrap(), b"BBBBBBBBAAAAAAAA");
    }

    #[test]
    fn forgery_requires_equal_length() {
        let d = doc(b"pay $100", 5);
        let wire = d.serialize();
        assert!(XorDocument::forge_without_key(&wire, 0, b"pay $100", b"pay $1000").is_err());
    }
}
