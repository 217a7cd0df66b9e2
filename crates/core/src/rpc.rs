//! The RPC (randomized plaintext chaining) incremental encryption mode
//! with the Wang–Kao–Yeh length amendment (§V-B).
//!
//! Ciphertext of a document `d₁ … dₙ`:
//!
//! ```text
//! F(r0, α, r1), F(r1, d1, r2), F(r2, d2, r3), …, F(rn, dn, r0),
//! F(r0 ⊕ ⊕rᵢ, ⊕dᵢ, |d|)
//! ```
//!
//! Neighbouring blocks are chained through random nonces: block `i`
//! carries its own nonce `rᵢ` and its successor's `rᵢ₊₁`, with the chain
//! closing circularly back to the header's `r0`. A final checksum block
//! seals the XOR of all nonces and payloads, **plus the document length**
//! — the amendment of Wang, Kao and Yeh ("Forgery Attack on the RPC
//! Incremental Unforgeable Encryption Scheme", ASIACCS 2006) that defeats
//! block-deletion forgeries the original RPC admits.
//!
//! # Block geometry
//!
//! An AES block is 16 bytes: 4-byte chain-in nonce, 1-byte character
//! count, 7-byte payload, 4-byte chain-out nonce. The count lives *inside*
//! the encryption (unlike rECB, where the public record tag is
//! authoritative) because an integrity-providing scheme must not let the
//! server silently rewrite block lengths. Consequently RPC blocks hold at
//! most **7** characters; `SchemeParams::rpc` with `max_block == 8` is
//! rejected. This deviation from the paper's "8 characters" is recorded in
//! DESIGN.md.
//!
//! Any block substitution, reordering, truncation, or replay breaks
//! either the nonce chain or the checksum and is reported as
//! [`CoreError::IntegrityFailure`].

use pe_crypto::aes::Aes128;
use pe_crypto::drbg::NonceSource;
use pe_crypto::BlockCipher;
use pe_indexlist::{BlockSeq, IndexedSkipList};

use crate::batch::{self, Direction};
use crate::error::CoreError;
use crate::keys::{DocumentKey, Mode, SchemeParams};
use crate::pack::{chunk_count, chunks, collect_blocks, SealScratch, SealedBlock};
use crate::splice::{plan, SplicePlan};
use crate::wire::{
    decode_record, encode_record, record_chunks, serialize_records, CipherPatch, Layout,
    Preamble,
};
use crate::{EditOp, IncrementalCipherDoc};

/// Header magic (the paper's α marker).
const HEADER_MAGIC: [u8; 8] = *b"PE1.RPC_";

/// Maximum characters per RPC block (one payload byte holds the count).
pub const RPC_MAX_BLOCK: usize = 7;

/// The plaintext content of one opened data block.
#[derive(Debug, Clone, PartialEq, Eq)]
struct OpenBlock {
    r_in: u32,
    data: Vec<u8>,
    r_out: u32,
    /// The 8 middle bytes (count byte ‖ padded payload) as one integer —
    /// the per-block contribution to the checksum aggregate.
    mid: u64,
}

/// A confidentiality-and-integrity encrypted document using RPC mode.
///
/// # Example
///
/// ```
/// use pe_core::{DocumentKey, EditOp, IncrementalCipherDoc, RpcDocument, SchemeParams};
/// use pe_crypto::CtrDrbg;
///
/// let key = DocumentKey::derive("pw", &[2u8; 16], 100);
/// let mut doc = RpcDocument::create(
///     &key,
///     SchemeParams::rpc(7),
///     b"meet at noon",
///     CtrDrbg::from_seed(4),
/// )?;
/// doc.apply(&EditOp::insert(8, b"high "))?;
/// assert_eq!(doc.decrypt()?, b"meet at high noon");
/// # Ok::<(), pe_core::CoreError>(())
/// ```
pub struct RpcDocument {
    cipher: Aes128,
    salt: [u8; 16],
    params: SchemeParams,
    r0: u32,
    header_cipher: [u8; 16],
    checksum_cipher: [u8; 16],
    blocks: IndexedSkipList<SealedBlock>,
    /// XOR of the chain-in nonces of all data blocks.
    xor_r: u32,
    /// XOR of the middle 8 bytes of all data blocks.
    xor_mid: u64,
    rng: Box<dyn NonceSource + Send>,
    /// Reused batch-seal buffers; see [`SealScratch`].
    scratch: SealScratch,
}

impl std::fmt::Debug for RpcDocument {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RpcDocument")
            .field("mode", &Mode::Rpc)
            .field("max_block", &self.params.max_block)
            .field("blocks", &self.blocks.len_blocks())
            .field("len", &self.blocks.total_weight())
            .finish_non_exhaustive()
    }
}

impl RpcDocument {
    /// Encrypts `plaintext` into a fresh document (the scheme's `Enc`).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::BadParams`] when `params` are invalid, not
    /// RPC-mode, or `max_block > 7`.
    pub fn create<R>(
        key: &DocumentKey,
        params: SchemeParams,
        plaintext: &[u8],
        rng: R,
    ) -> Result<RpcDocument, CoreError>
    where
        R: NonceSource + Send + 'static,
    {
        params.validate()?;
        if params.mode != Mode::Rpc {
            return Err(CoreError::BadParams { detail: "params.mode must be Rpc".into() });
        }
        if params.max_block > RPC_MAX_BLOCK {
            return Err(CoreError::BadParams {
                detail: format!("RPC blocks hold at most {RPC_MAX_BLOCK} characters"),
            });
        }
        let mut rng: Box<dyn NonceSource + Send> = Box::new(rng);
        let r0 = rng.next_u32();
        let mut doc = RpcDocument {
            cipher: key.cipher(),
            salt: *key.salt(),
            params,
            r0,
            header_cipher: [0u8; 16],
            checksum_cipher: [0u8; 16],
            blocks: IndexedSkipList::new(),
            xor_r: 0,
            xor_mid: 0,
            rng,
            scratch: SealScratch::default(),
        };
        let n = chunk_count(plaintext.len(), params.max_block);
        // Draw chain nonces: r1 … rn, closing back to r0.
        let r_in = if n == 0 { r0 } else { doc.rng.next_u32() };
        doc.reseal_header(r_in);
        let workers = batch::auto_workers(n);
        doc.seal_all(plaintext, r_in, r0, workers);
        doc.blocks.extend_back(doc.scratch.sealed());
        doc.reseal_checksum();
        Ok(doc)
    }

    /// Loads and **fully verifies** a document from its serialized
    /// ciphertext.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Malformed`] for structural problems,
    /// [`CoreError::BadParams`] for a salt mismatch, and
    /// [`CoreError::IntegrityFailure`] when the password is wrong or the
    /// ciphertext fails chain/checksum verification.
    pub fn open<R>(key: &DocumentKey, serialized: &str, rng: R) -> Result<RpcDocument, CoreError>
    where
        R: NonceSource + Send + 'static,
    {
        let preamble = Preamble::parse(serialized)?;
        if preamble.mode != Mode::Rpc {
            return Err(CoreError::Malformed { detail: "not an RPC document".into() });
        }
        if &preamble.salt != key.salt() {
            return Err(CoreError::BadParams {
                detail: "key salt does not match document preamble".into(),
            });
        }
        if preamble.max_block > RPC_MAX_BLOCK {
            return Err(CoreError::Malformed {
                detail: format!("RPC block size {} exceeds {RPC_MAX_BLOCK}", preamble.max_block),
            });
        }
        let mut records = record_chunks(serialized)?;
        let (Some(header_record), Some(checksum_record)) = (records.next(), records.next_back())
        else {
            return Err(CoreError::Malformed {
                detail: "RPC document needs header and checksum records".into(),
            });
        };
        let cipher = key.cipher();
        let (htag, header_cipher) = decode_record(header_record)?;
        if htag != '0' {
            return Err(CoreError::Malformed { detail: "first record is not a header".into() });
        }
        let (ctag, checksum_cipher) = decode_record(checksum_record)?;
        if ctag != '9' {
            return Err(CoreError::Malformed { detail: "last record is not a checksum".into() });
        }
        let blocks = collect_blocks(records, |record| {
            let (tag, cipher) = decode_record(record)?;
            let len = tag
                .to_digit(10)
                .filter(|d| (1..=RPC_MAX_BLOCK as u32).contains(d))
                .ok_or_else(|| CoreError::Malformed {
                    detail: format!("invalid data record tag {tag:?}"),
                })? as u8;
            Ok(SealedBlock { len, cipher })
        })?;
        let mut doc = RpcDocument {
            cipher,
            salt: preamble.salt,
            params: SchemeParams::rpc(preamble.max_block),
            r0: 0, // set by verify below
            header_cipher,
            checksum_cipher,
            blocks,
            xor_r: 0,
            xor_mid: 0,
            rng: Box::new(rng),
            scratch: SealScratch::default(),
        };
        // Full verification also recovers r0 and the aggregates.
        let (r0, xor_r, xor_mid, _plaintext) = doc.verify()?;
        doc.r0 = r0;
        doc.xor_r = xor_r;
        doc.xor_mid = xor_mid;
        Ok(doc)
    }

    /// The scheme parameters this document was created with.
    pub fn params(&self) -> SchemeParams {
        self.params
    }

    /// Number of serialized records (header + data blocks + checksum).
    pub fn record_count(&self) -> usize {
        2 + self.blocks.len_blocks()
    }

    /// Seals one data block.
    fn seal(&mut self, r_in: u32, data: &[u8], r_out: u32) -> SealedBlock {
        debug_assert!((1..=self.params.max_block).contains(&data.len()));
        let mut block = [0u8; 16];
        block[..4].copy_from_slice(&r_in.to_be_bytes());
        block[4] = data.len() as u8;
        block[5..5 + data.len()].copy_from_slice(data);
        let mid = u64::from_be_bytes(block[4..12].try_into().expect("8 bytes"));
        block[12..].copy_from_slice(&r_out.to_be_bytes());
        self.cipher.encrypt_block(&mut block);
        self.xor_r ^= r_in;
        self.xor_mid ^= mid;
        pe_observe::static_counter!("core.blocks_sealed.rpc").inc();
        SealedBlock { len: data.len() as u8, cipher: block }
    }

    /// Seals a whole run of text as one batch: packs every chunk with its
    /// chain nonces (draws stay strictly sequential, so the ciphertext is
    /// byte-identical to sealing block by block with [`Self::seal`]), then
    /// encrypts all blocks in one [`batch::apply_cipher`] call. The
    /// blocks stay in the document's [`SealScratch`] for the caller to
    /// take with [`SealScratch::sealed`].
    ///
    /// The first block's chain-in is `r_in_first`; the last block's
    /// chain-out is `r_out_last`; intermediate nonces come from the
    /// document DRBG in chunk order.
    fn seal_all(
        &mut self,
        text: &[u8],
        r_in_first: u32,
        r_out_last: u32,
        workers: usize,
    ) {
        let n = chunk_count(text.len(), self.params.max_block);
        // One bulk draw for the n-1 intermediate chain nonces: a
        // NonceSource is a byte stream, so the little-endian words below
        // are exactly what n-1 sequential `next_u32` calls would return.
        // Packing and nonce buffers are the document's reused
        // [`SealScratch`], so repeated saves do not allocate.
        self.scratch.reset(n, n.saturating_sub(1) * 4);
        self.rng.fill_bytes(&mut self.scratch.nonces);
        let mut r_in = r_in_first;
        for (i, piece) in chunks(text, self.params.max_block).enumerate() {
            let r_out = if i + 1 == n {
                r_out_last
            } else {
                u32::from_le_bytes(
                    self.scratch.nonces[4 * i..4 * i + 4].try_into().expect("4 bytes"),
                )
            };
            let mut block = [0u8; 16];
            block[..4].copy_from_slice(&r_in.to_be_bytes());
            block[4] = piece.len() as u8;
            block[5..5 + piece.len()].copy_from_slice(piece);
            let mid = u64::from_be_bytes(block[4..12].try_into().expect("8 bytes"));
            block[12..].copy_from_slice(&r_out.to_be_bytes());
            self.xor_r ^= r_in;
            self.xor_mid ^= mid;
            self.scratch.bufs.push(block);
            self.scratch.lens.push(piece.len() as u8);
            r_in = r_out;
        }
        batch::apply_cipher(&self.cipher, &mut self.scratch.bufs, Direction::Encrypt, workers);
        pe_observe::static_counter!("core.blocks_sealed.rpc").add(n as u64);
    }

    /// Opens the data block at `ordinal` without verifying its position
    /// in the chain (chain checks happen in [`Self::verify`]).
    ///
    /// Infallible because every in-memory block was either sealed by this
    /// document or already passed [`Self::verify`] during `open`.
    fn open_block(&self, ordinal: usize) -> OpenBlock {
        let sealed = self.blocks.get(ordinal).expect("ordinal in range");
        Self::open_cipher(&self.cipher, &sealed.cipher)
            .expect("in-memory block passed verification")
    }

    fn open_cipher(cipher: &Aes128, sealed: &[u8; 16]) -> Result<OpenBlock, CoreError> {
        let mut block = *sealed;
        cipher.decrypt_block(&mut block);
        let r_in = u32::from_be_bytes(block[..4].try_into().expect("4 bytes"));
        let r_out = u32::from_be_bytes(block[12..].try_into().expect("4 bytes"));
        let mid = u64::from_be_bytes(block[4..12].try_into().expect("8 bytes"));
        // The in-block count byte is covered by the encryption; a value
        // outside 1..=RPC_MAX_BLOCK can only mean tampering (or a wrong
        // key) and must surface as an integrity failure, never be
        // clamped into range.
        let len = block[4] as usize;
        if !(1..=RPC_MAX_BLOCK).contains(&len) {
            pe_observe::static_counter!("core.integrity_failures.rpc").inc();
            return Err(CoreError::IntegrityFailure {
                detail: format!("sealed block count byte {len} outside 1..={RPC_MAX_BLOCK}"),
            });
        }
        let data = block[5..5 + len].to_vec();
        pe_observe::static_counter!("core.blocks_opened.rpc").inc();
        Ok(OpenBlock { r_in, data, r_out, mid })
    }

    /// Removes a block's contribution from the running aggregates.
    fn retire(&mut self, opened: &OpenBlock) {
        self.xor_r ^= opened.r_in;
        self.xor_mid ^= opened.mid;
    }

    fn reseal_header(&mut self, r_first: u32) {
        let mut block = [0u8; 16];
        block[..4].copy_from_slice(&self.r0.to_be_bytes());
        block[4..12].copy_from_slice(&HEADER_MAGIC);
        block[12..].copy_from_slice(&r_first.to_be_bytes());
        self.cipher.encrypt_block(&mut block);
        self.header_cipher = block;
    }

    fn reseal_checksum(&mut self) {
        let mut block = [0u8; 16];
        block[..4].copy_from_slice(&(self.r0 ^ self.xor_r).to_be_bytes());
        block[4..12].copy_from_slice(&self.xor_mid.to_be_bytes());
        block[12..].copy_from_slice(&(self.blocks.total_weight() as u32).to_be_bytes());
        self.cipher.encrypt_block(&mut block);
        self.checksum_cipher = block;
    }

    /// Verifies the header magic, the full nonce chain, the per-block
    /// length counters, and the checksum block (including the length
    /// amendment). Returns `(r0, xor_r, xor_mid, plaintext)`.
    fn verify(&self) -> Result<(u32, u32, u64, Vec<u8>), CoreError> {
        let fail = |detail: String| {
            pe_observe::static_counter!("core.integrity_failures.rpc").inc();
            Err(CoreError::IntegrityFailure { detail })
        };
        let mut header = self.header_cipher;
        self.cipher.decrypt_block(&mut header);
        if header[4..12] != HEADER_MAGIC {
            return fail("wrong password or corrupted header".into());
        }
        let r0 = u32::from_be_bytes(header[..4].try_into().expect("4 bytes"));
        let mut expected = u32::from_be_bytes(header[12..].try_into().expect("4 bytes"));
        // Batch-decrypt every data block in one pass, then walk the
        // decrypted buffers in order checking the chain. The chain checks
        // are pure reads, so decryption order does not matter and the
        // batch (possibly parallel) pass is safe.
        let n = self.blocks.len_blocks();
        let mut bufs: Vec<[u8; 16]> = Vec::with_capacity(n);
        let mut tags: Vec<u8> = Vec::with_capacity(n);
        for sealed in self.blocks.iter() {
            bufs.push(sealed.cipher);
            tags.push(sealed.len);
        }
        batch::apply_cipher(&self.cipher, &mut bufs, Direction::Decrypt, batch::auto_workers(n));
        let mut xor_r = 0u32;
        let mut xor_mid = 0u64;
        let mut plaintext = Vec::with_capacity(self.blocks.total_weight());
        for (i, block) in bufs.iter().enumerate() {
            let r_in = u32::from_be_bytes(block[..4].try_into().expect("4 bytes"));
            let r_out = u32::from_be_bytes(block[12..].try_into().expect("4 bytes"));
            let mid = u64::from_be_bytes(block[4..12].try_into().expect("8 bytes"));
            // The in-block count byte is covered by the encryption; a
            // value outside 1..=RPC_MAX_BLOCK can only mean tampering (or
            // a wrong key) and must surface as an integrity failure.
            let len = block[4] as usize;
            if !(1..=RPC_MAX_BLOCK).contains(&len) {
                return fail(format!("block {i} sealed count byte out of range"));
            }
            if r_in != expected {
                return fail(format!("nonce chain broken entering block {i}"));
            }
            if len != tags[i] as usize {
                return fail(format!(
                    "block {i} length counter mismatch: tag {} vs sealed {len}",
                    tags[i],
                ));
            }
            xor_r ^= r_in;
            xor_mid ^= mid;
            plaintext.extend_from_slice(&block[5..5 + len]);
            expected = r_out;
        }
        pe_observe::static_counter!("core.blocks_opened.rpc").add(n as u64);
        if expected != r0 {
            return fail("nonce chain does not close back to the header".into());
        }
        let mut checksum = self.checksum_cipher;
        self.cipher.decrypt_block(&mut checksum);
        let want_r = u32::from_be_bytes(checksum[..4].try_into().expect("4 bytes"));
        let want_mid = u64::from_be_bytes(checksum[4..12].try_into().expect("8 bytes"));
        let want_len = u32::from_be_bytes(checksum[12..].try_into().expect("4 bytes"));
        if want_r != r0 ^ xor_r {
            return fail("checksum nonce aggregate mismatch".into());
        }
        if want_mid != xor_mid {
            return fail("checksum payload aggregate mismatch".into());
        }
        if want_len as usize != plaintext.len() {
            return fail(format!(
                "document length mismatch: checksum says {want_len}, blocks hold {}",
                plaintext.len()
            ));
        }
        Ok((r0, xor_r, xor_mid, plaintext))
    }
}

impl IncrementalCipherDoc for RpcDocument {
    fn len(&self) -> usize {
        self.blocks.total_weight()
    }

    fn decrypt(&self) -> Result<Vec<u8>, CoreError> {
        let (_, _, _, plaintext) = self.verify()?;
        Ok(plaintext)
    }

    fn apply(&mut self, op: &EditOp) -> Result<Vec<CipherPatch>, CoreError> {
        let old_records = self.record_count();
        let plan = plan(&self.blocks, op, |ordinal| self.open_block(ordinal).data)?;
        let SplicePlan::Splice { start_block, removed, content } = plan else {
            return Ok(Vec::new());
        };
        // Chain nonces at the boundaries of the affected region.
        let (chain_in, chain_out) = if removed > 0 {
            let first = self.open_block(start_block);
            let last = if removed == 1 {
                first.clone()
            } else {
                self.open_block(start_block + removed - 1)
            };
            (first.r_in, last.r_out)
        } else {
            // Only possible when inserting into an empty document.
            (self.rng.next_u32(), self.r0)
        };
        // Retire the removed blocks from the aggregates and the list.
        for _ in 0..removed {
            let opened = self.open_block(start_block);
            self.retire(&opened);
            self.blocks.remove(start_block);
        }
        let n = chunk_count(content.len(), self.params.max_block);
        let mut data_patch;
        if n == 0 {
            // Pure deletion: the predecessor's chain-out must skip to
            // `chain_out`.
            if start_block == 0 {
                self.reseal_header(chain_out);
                data_patch = CipherPatch::splice(
                    0,
                    1 + removed,
                    vec![encode_record('0', &self.header_cipher)],
                );
            } else {
                let pred = start_block - 1;
                let opened = self.open_block(pred);
                self.retire(&opened);
                let resealed = self.seal(opened.r_in, &opened.data, chain_out);
                let record = encode_record(resealed.tag(), &resealed.cipher);
                self.blocks.replace(pred, resealed);
                data_patch = CipherPatch::splice(1 + pred, 1 + removed, vec![record]);
            }
        } else {
            let workers = batch::auto_workers(n);
            self.seal_all(&content, chain_in, chain_out, workers);
            let mut inserted = Vec::with_capacity(n);
            for (i, sealed) in self.scratch.sealed().enumerate() {
                inserted.push(encode_record(sealed.tag(), &sealed.cipher));
                self.blocks.insert(start_block + i, sealed);
            }
            data_patch = CipherPatch::splice(1 + start_block, removed, inserted);
            if removed == 0 {
                // Empty-document insertion: the header must point at the
                // fresh chain head; merge it into the (contiguous) patch.
                debug_assert_eq!(start_block, 0);
                self.reseal_header(chain_in);
                let mut records = vec![encode_record('0', &self.header_cipher)];
                records.extend(data_patch.inserted);
                data_patch = CipherPatch::splice(0, 1, records);
            }
        }
        self.reseal_checksum();
        let checksum_patch = CipherPatch::splice(
            old_records - 1,
            1,
            vec![encode_record('9', &self.checksum_cipher)],
        );
        Ok(vec![data_patch, checksum_patch])
    }

    fn replace_all(&mut self, plaintext: &[u8]) -> Result<(), CoreError> {
        let n = chunk_count(plaintext.len(), self.params.max_block);
        self.blocks = IndexedSkipList::new();
        self.xor_r = 0;
        self.xor_mid = 0;
        // Fresh chain under the unchanged document nonce r0.
        let r_in = if n == 0 { self.r0 } else { self.rng.next_u32() };
        self.reseal_header(r_in);
        let workers = batch::auto_workers(n);
        self.seal_all(plaintext, r_in, self.r0, workers);
        self.blocks.extend_back(self.scratch.sealed());
        self.reseal_checksum();
        Ok(())
    }

    fn serialize(&self) -> String {
        let blocks = self.blocks.iter().map(|block| (block.tag(), &block.cipher));
        serialize_records(
            Preamble::new(&self.params, self.salt),
            self.record_count(),
            std::iter::once(('0', &self.header_cipher))
                .chain(blocks)
                .chain(std::iter::once(('9', &self.checksum_cipher))),
        )
    }

    fn layout(&self) -> Layout {
        Layout::standard()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{apply_patches, split_records};
    use pe_crypto::CtrDrbg;

    fn key() -> DocumentKey {
        DocumentKey::derive("rpc-password", &[5u8; 16], 100)
    }

    fn doc(plaintext: &[u8], b: usize, seed: u64) -> RpcDocument {
        RpcDocument::create(&key(), SchemeParams::rpc(b), plaintext, CtrDrbg::from_seed(seed))
            .unwrap()
    }

    #[test]
    fn roundtrip_simple() {
        let d = doc(b"hello rpc world", 7, 1);
        assert_eq!(d.decrypt().unwrap(), b"hello rpc world");
    }

    #[test]
    fn roundtrip_every_block_size() {
        let text = b"integrity is not optional in hostile clouds";
        for b in 1..=7 {
            let d = doc(text, b, b as u64);
            assert_eq!(d.decrypt().unwrap(), text, "block size {b}");
        }
    }

    #[test]
    fn block_size_8_rejected() {
        let err =
            RpcDocument::create(&key(), SchemeParams::rpc(8), b"x", CtrDrbg::from_seed(1))
                .unwrap_err();
        assert!(matches!(err, CoreError::BadParams { .. }));
    }

    #[test]
    fn empty_document() {
        let d = doc(b"", 7, 2);
        assert_eq!(d.decrypt().unwrap(), b"");
        assert_eq!(d.record_count(), 2);
    }

    #[test]
    fn serialize_open_roundtrip() {
        let d = doc(b"chained secrets", 5, 3);
        let wire = d.serialize();
        let reopened = RpcDocument::open(&key(), &wire, CtrDrbg::from_seed(9)).unwrap();
        assert_eq!(reopened.decrypt().unwrap(), b"chained secrets");
        assert_eq!(reopened.serialize(), wire);
    }

    #[test]
    fn wrong_password_detected() {
        let d = doc(b"secret", 7, 4);
        let wire = d.serialize();
        let wrong = DocumentKey::derive("bad", &[5u8; 16], 100);
        assert!(matches!(
            RpcDocument::open(&wrong, &wire, CtrDrbg::from_seed(0)),
            Err(CoreError::IntegrityFailure { .. })
        ));
    }

    #[test]
    fn edit_script_roundtrip_with_patches() {
        let mut d = doc(b"The quick brown fox jumps over the lazy dog", 7, 5);
        let mut server = d.serialize();
        let mut model: Vec<u8> = b"The quick brown fox jumps over the lazy dog".to_vec();
        let script = [
            EditOp::insert(0, b"<<"),
            EditOp::insert(22, b" INSERT"),
            EditOp::delete(5, 10),
            EditOp::delete(0, 2),
            EditOp::insert(33, b"!"),
            EditOp::delete(10, 24),
        ];
        for op in &script {
            let patches = d.apply(op).unwrap();
            server = apply_patches(&server, d.layout(), &patches).unwrap();
            assert_eq!(server, d.serialize());
            match op {
                EditOp::Insert { at, text } => {
                    model.splice(at..at, text.iter().copied());
                }
                EditOp::Delete { at, len } => {
                    model.drain(*at..*at + *len);
                }
            }
            assert_eq!(d.decrypt().unwrap(), model, "after {op:?}");
        }
        // The server-side string must reopen and verify cleanly.
        let reopened = RpcDocument::open(&key(), &server, CtrDrbg::from_seed(77)).unwrap();
        assert_eq!(reopened.decrypt().unwrap(), model);
    }

    #[test]
    fn delete_everything_then_rebuild() {
        let mut d = doc(b"ephemeral", 7, 6);
        let mut server = d.serialize();
        for patches in [
            d.apply(&EditOp::delete(0, 9)).unwrap(),
            d.apply(&EditOp::insert(0, b"reborn")).unwrap(),
        ] {
            server = apply_patches(&server, d.layout(), &patches).unwrap();
        }
        assert_eq!(server, d.serialize());
        assert_eq!(d.decrypt().unwrap(), b"reborn");
        assert!(RpcDocument::open(&key(), &server, CtrDrbg::from_seed(0)).is_ok());
    }

    /// Tamper helper: swap two records in a serialized document.
    fn swap_records(wire: &str, a: usize, b: usize) -> String {
        let pre = &wire[..Layout::standard().preamble_chars];
        let mut records: Vec<String> =
            split_records(wire).unwrap().iter().map(|r| r.to_string()).collect();
        records.swap(a, b);
        format!("{pre}{}", records.concat())
    }

    #[test]
    fn block_swap_detected() {
        let d = doc(b"AAAAAAABBBBBBB", 7, 7);
        let wire = d.serialize();
        // Records: header, A-block, B-block, checksum. Swap the data blocks.
        let tampered = swap_records(&wire, 1, 2);
        assert!(matches!(
            RpcDocument::open(&key(), &tampered, CtrDrbg::from_seed(0)),
            Err(CoreError::IntegrityFailure { .. })
        ));
    }

    #[test]
    fn truncation_detected() {
        let d = doc(b"do not shorten this document", 7, 8);
        let wire = d.serialize();
        let pre = Layout::standard().preamble_chars;
        let records: Vec<String> =
            split_records(&wire).unwrap().iter().map(|r| r.to_string()).collect();
        // Drop one data block but keep header and checksum.
        let mut kept = records.clone();
        kept.remove(2);
        let tampered = format!("{}{}", &wire[..pre], kept.concat());
        assert!(matches!(
            RpcDocument::open(&key(), &tampered, CtrDrbg::from_seed(0)),
            Err(CoreError::IntegrityFailure { .. })
        ));
    }

    #[test]
    fn block_replay_detected() {
        // Replace a block with an older sealed version of the same
        // position (captured before an edit).
        let mut d = doc(b"version one of text", 7, 9);
        let old_wire = d.serialize();
        let old_records: Vec<String> =
            split_records(&old_wire).unwrap().iter().map(|r| r.to_string()).collect();
        d.apply(&EditOp::delete(0, 7)).unwrap();
        let new_wire = d.serialize();
        let pre = Layout::standard().preamble_chars;
        let mut records: Vec<String> =
            split_records(&new_wire).unwrap().iter().map(|r| r.to_string()).collect();
        records[1] = old_records[1].clone();
        let tampered = format!("{}{}", &new_wire[..pre], records.concat());
        assert!(matches!(
            RpcDocument::open(&key(), &tampered, CtrDrbg::from_seed(0)),
            Err(CoreError::IntegrityFailure { .. })
        ));
    }

    #[test]
    fn tag_rewrite_detected() {
        // Flip a public length tag; the sealed count must win.
        let d = doc(b"sevensevens", 7, 10);
        let wire = d.serialize();
        let pre = Layout::standard().preamble_chars;
        let mut records: Vec<String> =
            split_records(&wire).unwrap().iter().map(|r| r.to_string()).collect();
        let mut chars: Vec<char> = records[1].chars().collect();
        chars[0] = if chars[0] == '7' { '4' } else { '7' };
        records[1] = chars.into_iter().collect();
        let tampered = format!("{}{}", &wire[..pre], records.concat());
        assert!(matches!(
            RpcDocument::open(&key(), &tampered, CtrDrbg::from_seed(0)),
            Err(CoreError::IntegrityFailure { .. })
        ));
    }

    #[test]
    fn tampered_count_byte_detected() {
        // Regression: the sealed in-block count byte used to be clamped
        // with `.min(RPC_MAX_BLOCK)`, silently truncating tampered
        // blocks. Forge a block whose decrypted count byte is 200 (valid
        // public tag, valid AES block under the right key) and check it
        // surfaces as an integrity failure, not a 7-character block.
        let d = doc(b"AAAAAAABBBBBBB", 7, 13);
        let wire = d.serialize();
        let pre = Layout::standard().preamble_chars;
        let mut records: Vec<String> =
            split_records(&wire).unwrap().iter().map(|r| r.to_string()).collect();
        let mut forged = [0u8; 16];
        forged[4] = 200; // count byte far outside 1..=RPC_MAX_BLOCK
        key().cipher().encrypt_block(&mut forged);
        records[1] = encode_record('7', &forged);
        let tampered = format!("{}{}", &wire[..pre], records.concat());
        match RpcDocument::open(&key(), &tampered, CtrDrbg::from_seed(0)) {
            Err(CoreError::IntegrityFailure { detail }) => {
                assert!(detail.contains("count byte"), "unexpected detail: {detail}");
            }
            other => panic!("expected IntegrityFailure, got {other:?}"),
        }
    }

    #[test]
    fn forced_parallel_seal_is_byte_identical_to_serial() {
        // Same-seed empty documents share r0 and DRBG state; sealing the
        // same text with different worker counts must give identical
        // blocks and identical checksum aggregates.
        let text: Vec<u8> = (0..20_000u32).map(|i| (i % 241) as u8).collect();
        let mut serial = doc(b"", 7, 42);
        let mut parallel = doc(b"", 7, 42);
        let r_in_s = serial.rng.next_u32();
        let r_in_p = parallel.rng.next_u32();
        assert_eq!(r_in_s, r_in_p);
        let r0_s = serial.r0;
        serial.seal_all(&text, r_in_s, r0_s, 1);
        let r0_p = parallel.r0;
        parallel.seal_all(&text, r_in_p, r0_p, 4);
        let a: Vec<SealedBlock> = serial.scratch.sealed().collect();
        let b: Vec<SealedBlock> = parallel.scratch.sealed().collect();
        assert_eq!(a, b, "worker count must not change the ciphertext");
        assert_eq!(serial.xor_r, parallel.xor_r);
        assert_eq!(serial.xor_mid, parallel.xor_mid);
    }

    #[test]
    fn replace_all_matches_fresh_create_byte_for_byte() {
        // From an empty document, replace_all consumes the DRBG exactly
        // like create does (fresh chain head, then one chain-out per
        // block), so the wire output must match a fresh same-seed
        // document — and still verify on reopen.
        let text: Vec<u8> = (0..9_000u32).map(|i| (i.wrapping_mul(37) % 256) as u8).collect();
        let mut grown = doc(b"", 7, 57);
        grown.replace_all(&text).unwrap();
        let fresh = doc(&text, 7, 57);
        assert_eq!(grown.serialize(), fresh.serialize());
        let reopened =
            RpcDocument::open(&key(), &grown.serialize(), CtrDrbg::from_seed(0)).unwrap();
        assert_eq!(reopened.decrypt().unwrap(), text);
    }

    #[test]
    fn replace_all_of_nonempty_document_reverifies() {
        let mut d = doc(b"old contents that will be wholly replaced", 7, 31);
        d.replace_all(b"brand new").unwrap();
        assert_eq!(d.decrypt().unwrap(), b"brand new");
        let reopened =
            RpcDocument::open(&key(), &d.serialize(), CtrDrbg::from_seed(0)).unwrap();
        assert_eq!(reopened.decrypt().unwrap(), b"brand new");
    }

    #[test]
    fn checksum_patch_targets_last_record() {
        let mut d = doc(b"abcdefghij", 7, 11);
        let old_records = d.record_count();
        let patches = d.apply(&EditOp::insert(3, b"Q")).unwrap();
        assert_eq!(patches.len(), 2);
        assert_eq!(patches[1].start_record, old_records - 1);
        assert_eq!(patches[1].removed, 1);
        assert_eq!(patches[1].inserted.len(), 1);
    }

    #[test]
    fn out_of_bounds_rejected() {
        let mut d = doc(b"abc", 7, 12);
        assert!(d.apply(&EditOp::insert(9, b"x")).is_err());
        assert!(d.apply(&EditOp::delete(0, 9)).is_err());
    }
}
