//! Shared block-packing helpers for the incremental schemes.

use pe_indexlist::{BlockSeq, Weighted};

use crate::error::CoreError;

/// A sealed (encrypted) variable-length block as stored in the block
/// sequence: the public character count (§V-C: "we have to store the block
/// character counters so that we remember block boundaries") plus one
/// 16-byte AES block of ciphertext.
///
/// Public so that alternative [`BlockSeq`](pe_indexlist::BlockSeq)
/// backings can be named in type parameters (e.g.
/// `RecbDocument<IndexedAvlTree<SealedBlock>>`); its contents are managed
/// exclusively by the schemes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SealedBlock {
    /// Number of plaintext characters in this block, `1..=8`.
    pub(crate) len: u8,
    /// The encrypted block.
    pub(crate) cipher: [u8; 16],
}

impl Weighted for SealedBlock {
    fn weight(&self) -> usize {
        self.len as usize
    }
}

impl SealedBlock {
    /// The record tag for this block: its character count as a digit.
    pub fn tag(&self) -> char {
        char::from_digit(u32::from(self.len), 10).expect("len is 1..=8")
    }
}

/// Reused scratch buffers for the batch seal path (`seal_all` in the
/// rECB and RPC documents): packed block buffers, per-block lengths, and
/// the bulk nonce draw.
///
/// Lives on the document so repeated saves stop allocating once each
/// vector reaches its high-water-mark capacity — the seal half of the
/// zero-copy seal→WAL pipeline (the append half is the WAL writer's
/// reused frame buffer).
#[derive(Debug, Default)]
pub(crate) struct SealScratch {
    /// Packed-then-encrypted 16-byte blocks.
    pub(crate) bufs: Vec<[u8; 16]>,
    /// Plaintext character count per block.
    pub(crate) lens: Vec<u8>,
    /// Bulk nonce draw (rECB: 8 bytes per block; RPC: 4 bytes per
    /// intermediate chain link).
    pub(crate) nonces: Vec<u8>,
}

impl SealScratch {
    /// The blocks the last seal left in the buffers, in order.
    pub(crate) fn sealed(&self) -> impl ExactSizeIterator<Item = SealedBlock> + '_ {
        self.bufs.iter().zip(&self.lens).map(|(cipher, &len)| SealedBlock { len, cipher: *cipher })
    }

    /// Clears the buffers (keeping capacity) and reserves for `n` blocks
    /// needing `nonce_bytes` of bulk randomness.
    pub(crate) fn reset(&mut self, n: usize, nonce_bytes: usize) {
        self.bufs.clear();
        self.bufs.reserve(n);
        self.lens.clear();
        self.lens.reserve(n);
        self.nonces.clear();
        self.nonces.resize(nonce_bytes, 0);
    }
}

/// Builds a block sequence straight from serialized data records, with
/// no intermediate vector: `parse` turns each record into its block, and
/// the first record it rejects ends the build with that error.
pub(crate) fn collect_blocks<'a, S, P>(
    records: impl Iterator<Item = &'a [u8]>,
    mut parse: P,
) -> Result<S, CoreError>
where
    S: BlockSeq<SealedBlock> + Default,
    P: FnMut(&[u8]) -> Result<SealedBlock, CoreError>,
{
    let mut failure = None;
    let mut blocks = S::default();
    blocks.extend_back(records.map_while(|record| match parse(record) {
        Ok(block) => Some(block),
        Err(e) => {
            failure = Some(e);
            None
        }
    }));
    match failure {
        Some(e) => Err(e),
        None => Ok(blocks),
    }
}

/// Splits `text` into chunks of exactly `b` bytes, except the last chunk
/// which holds the remainder (`1..=b` bytes). Empty input yields no
/// chunks. Borrowing slices of `text` (rather than collecting owned
/// `Vec`s) keeps the full-document seal path allocation-free.
pub(crate) fn chunks(text: &[u8], b: usize) -> impl ExactSizeIterator<Item = &[u8]> {
    debug_assert!((1..=8).contains(&b));
    text.chunks(b)
}

/// Number of chunks [`chunks`] yields for `len` bytes at block size `b`.
pub(crate) fn chunk_count(len: usize, b: usize) -> usize {
    len.div_ceil(b)
}

/// Pads a `1..=8` byte chunk to exactly 8 bytes with zeros.
pub(crate) fn pad8(data: &[u8]) -> [u8; 8] {
    debug_assert!((1..=8).contains(&data.len()));
    let mut out = [0u8; 8];
    out[..data.len()].copy_from_slice(data);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunks_exact_and_remainder() {
        let collect = |text: &'static [u8], b: usize| -> Vec<Vec<u8>> {
            chunks(text, b).map(<[u8]>::to_vec).collect()
        };
        assert_eq!(collect(b"", 8), Vec::<Vec<u8>>::new());
        assert_eq!(collect(b"abc", 8), vec![b"abc".to_vec()]);
        assert_eq!(collect(b"abcdefgh", 8), vec![b"abcdefgh".to_vec()]);
        assert_eq!(collect(b"abcdefghi", 8), vec![b"abcdefgh".to_vec(), b"i".to_vec()]);
        assert_eq!(collect(b"abcde", 2), vec![b"ab".to_vec(), b"cd".to_vec(), b"e".to_vec()]);
    }

    #[test]
    fn chunk_count_matches_iterator() {
        for (len, b) in [(0usize, 8usize), (1, 8), (8, 8), (9, 8), (5, 2), (1000, 3)] {
            let text = vec![b'x'; len];
            assert_eq!(chunk_count(len, b), chunks(&text, b).len(), "len={len} b={b}");
        }
    }

    #[test]
    fn pad8_zero_fills() {
        assert_eq!(pad8(b"ab"), [b'a', b'b', 0, 0, 0, 0, 0, 0]);
        assert_eq!(pad8(b"12345678"), *b"12345678");
    }

    #[test]
    fn sealed_block_tag_and_weight() {
        let block = SealedBlock { len: 5, cipher: [0; 16] };
        assert_eq!(block.tag(), '5');
        assert_eq!(block.weight(), 5);
    }
}
