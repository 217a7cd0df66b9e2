//! RFC 4648 Base32 encoding.
//!
//! The paper's extension Base32-encodes ciphertext before substituting it
//! into the `docContents`/`delta` fields (Figure 2: `Base32.encode(...)`),
//! because the on-line editor must be able to store and render the bytes as
//! ordinary document text. Base32's alphabet (`A–Z2–7`) survives every
//! text-processing layer of the simulated services.
//!
//! Encoding without padding is also provided: within a ciphertext document
//! each encryption block is encoded independently, and padding characters
//! would waste space (blocks have known size).
//!
//! # Example
//!
//! ```
//! use pe_crypto::base32;
//!
//! assert_eq!(base32::encode(b"foobar"), "MZXW6YTBOI======");
//! assert_eq!(base32::decode("MZXW6YTBOI======")?, b"foobar");
//! # Ok::<(), pe_crypto::CryptoError>(())
//! ```

use crate::error::CryptoError;

const ALPHABET: &[u8; 32] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZ234567";

/// Encodes `data` as Base32 with `=` padding (RFC 4648 §6).
pub fn encode(data: &[u8]) -> String {
    let mut out = encode_unpadded(data);
    while !out.len().is_multiple_of(8) {
        out.push('=');
    }
    out
}

/// Encodes `data` as Base32 without padding characters.
pub fn encode_unpadded(data: &[u8]) -> String {
    let mut out = String::with_capacity(data.len().div_ceil(5) * 8);
    let mut buffer: u64 = 0;
    let mut bits: u32 = 0;
    for &byte in data {
        buffer = (buffer << 8) | u64::from(byte);
        bits += 8;
        while bits >= 5 {
            bits -= 5;
            out.push(ALPHABET[((buffer >> bits) & 0x1f) as usize] as char);
        }
    }
    if bits > 0 {
        out.push(ALPHABET[((buffer << (5 - bits)) & 0x1f) as usize] as char);
    }
    out
}

/// Decodes a padded or unpadded Base32 string.
///
/// # Errors
///
/// Returns [`CryptoError::InvalidCharacter`] for characters outside the
/// RFC 4648 alphabet, and [`CryptoError::InvalidPadding`] if `=` appears
/// anywhere but at the end or if the remainder length is impossible.
pub fn decode(text: &str) -> Result<Vec<u8>, CryptoError> {
    let bytes = text.as_bytes();
    let data_end = bytes.iter().position(|&b| b == b'=').unwrap_or(bytes.len());
    if bytes[data_end..].iter().any(|&b| b != b'=') {
        return Err(CryptoError::InvalidPadding);
    }
    decode_unpadded_bytes(&bytes[..data_end])
}

/// Decodes a Base32 string that carries no padding characters.
///
/// # Errors
///
/// As for [`decode`]; additionally any `=` is treated as an invalid
/// character.
pub fn decode_unpadded(text: &str) -> Result<Vec<u8>, CryptoError> {
    decode_unpadded_bytes(text.as_bytes())
}

fn decode_unpadded_bytes(bytes: &[u8]) -> Result<Vec<u8>, CryptoError> {
    // Remainders of 1, 3, 6 characters cannot arise from whole bytes.
    if matches!(bytes.len() % 8, 1 | 3 | 6) {
        return Err(CryptoError::InvalidLength { length: bytes.len() });
    }
    let mut out = Vec::with_capacity(bytes.len() * 5 / 8);
    let mut buffer: u64 = 0;
    let mut bits: u32 = 0;
    for (position, &c) in bytes.iter().enumerate() {
        let value = match c {
            b'A'..=b'Z' => c - b'A',
            b'a'..=b'z' => c - b'a',
            b'2'..=b'7' => c - b'2' + 26,
            _ => return Err(CryptoError::InvalidCharacter { byte: c, position }),
        };
        buffer = (buffer << 5) | u64::from(value);
        bits += 5;
        if bits >= 8 {
            bits -= 8;
            out.push(((buffer >> bits) & 0xff) as u8);
        }
    }
    // Leftover bits must be zero padding produced by the encoder.
    if bits > 0 && (buffer & ((1 << bits) - 1)) != 0 {
        return Err(CryptoError::InvalidPadding);
    }
    Ok(out)
}

/// Number of Base32 characters needed to encode `n` bytes without padding.
pub const fn encoded_len(n: usize) -> usize {
    (n * 8).div_ceil(5)
}

/// Characters in the unpadded encoding of one 16-byte block.
pub const BLOCK_CHARS: usize = encoded_len(16);

/// Marks bytes outside the uppercase alphabet in [`DECODE`].
const INVALID: u8 = 0xff;

/// Alphabet value of every byte: `A–Z` → 0–25, `2–7` → 26–31, anything
/// else (lowercase included) → [`INVALID`].
const DECODE: [u8; 256] = {
    let mut table = [INVALID; 256];
    let mut i = 0;
    while i < 32 {
        table[ALPHABET[i] as usize] = i as u8;
        i += 1;
    }
    table
};

/// Encodes one 16-byte block as its 26 unpadded Base32 characters.
///
/// Byte-identical to [`encode_unpadded`] of the same block, without the
/// allocation: the 128 bits are read as one integer and emitted five at a
/// time, the last character carrying three data bits and two zero bits.
pub fn encode_block(block: &[u8; 16]) -> [u8; BLOCK_CHARS] {
    let bits = u128::from_be_bytes(*block);
    let mut out = [0u8; BLOCK_CHARS];
    for (i, c) in out[..BLOCK_CHARS - 1].iter_mut().enumerate() {
        *c = ALPHABET[((bits >> (123 - 5 * i)) & 0x1f) as usize];
    }
    out[BLOCK_CHARS - 1] = ALPHABET[((bits << 2) & 0x1f) as usize];
    out
}

/// Decodes the 26-character canonical encoding of one 16-byte block.
///
/// Accepts exactly what [`encode_block`] emits: uppercase `A–Z2–7` only
/// and zero trailing bits, so every accepted input re-encodes to itself.
///
/// # Errors
///
/// Returns [`CryptoError::InvalidLength`] unless `text` is 26 bytes,
/// [`CryptoError::InvalidCharacter`] for the first byte outside the
/// uppercase alphabet (lowercase included), and
/// [`CryptoError::InvalidPadding`] when the two trailing bits are not
/// zero — the same variant and position [`decode_unpadded`] reports for
/// uppercase input.
pub fn decode_block(text: &[u8]) -> Result<[u8; 16], CryptoError> {
    let text: &[u8; BLOCK_CHARS] =
        text.try_into().map_err(|_| CryptoError::InvalidLength { length: text.len() })?;
    let mut bits = 0u128;
    let mut invalid = 0u8;
    for &c in &text[..BLOCK_CHARS - 1] {
        let value = DECODE[usize::from(c)];
        invalid |= value;
        bits = (bits << 5) | u128::from(value & 0x1f);
    }
    let last = DECODE[usize::from(text[BLOCK_CHARS - 1])];
    invalid |= last;
    // Every alphabet value is below 32, so only an INVALID byte sets the
    // high bits; find it only on the error path.
    if invalid & 0xe0 != 0 {
        let position =
            text.iter().position(|&c| DECODE[usize::from(c)] == INVALID).expect("an invalid byte");
        return Err(CryptoError::InvalidCharacter { byte: text[position], position });
    }
    if last & 0b11 != 0 {
        return Err(CryptoError::InvalidPadding);
    }
    Ok(((bits << 3) | u128::from(last >> 2)).to_be_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// RFC 4648 §10 test vectors.
    #[test]
    fn rfc4648_vectors() {
        let cases: &[(&[u8], &str)] = &[
            (b"", ""),
            (b"f", "MY======"),
            (b"fo", "MZXQ===="),
            (b"foo", "MZXW6==="),
            (b"foob", "MZXW6YQ="),
            (b"fooba", "MZXW6YTB"),
            (b"foobar", "MZXW6YTBOI======"),
        ];
        for (input, expect) in cases {
            assert_eq!(encode(input), *expect);
            assert_eq!(decode(expect).unwrap(), *input);
        }
    }

    #[test]
    fn unpadded_roundtrip_all_lengths() {
        for len in 0..64usize {
            let data: Vec<u8> = (0..len as u8).map(|b| b.wrapping_mul(37)).collect();
            let text = encode_unpadded(&data);
            assert!(!text.contains('='));
            assert_eq!(text.len(), encoded_len(len));
            assert_eq!(decode_unpadded(&text).unwrap(), data);
            // The padded decoder must accept unpadded text too.
            assert_eq!(decode(&text).unwrap(), data);
        }
    }

    #[test]
    fn lowercase_accepted() {
        assert_eq!(decode("mzxw6ytboi======").unwrap(), b"foobar");
    }

    #[test]
    fn invalid_character_rejected() {
        assert!(matches!(
            decode("MZ1W6YTB"),
            Err(CryptoError::InvalidCharacter { byte: b'1', position: 2 })
        ));
    }

    #[test]
    fn interior_padding_rejected() {
        assert_eq!(decode("MZ==6YTB"), Err(CryptoError::InvalidPadding));
    }

    #[test]
    fn impossible_remainder_rejected() {
        // A single trailing character can never decode to whole bytes.
        assert!(matches!(decode("MZXW6YTBA"), Err(CryptoError::InvalidLength { length: 9 })));
    }

    #[test]
    fn nonzero_trailing_bits_rejected() {
        // "MZXX" would leave non-zero bits in the buffer: craft one.
        // 'B' = 1 → for 2 chars (10 bits, 1 byte + 2 leftover bits) the
        // leftover bits must be zero; "MB" leaves 01 pending.
        assert_eq!(decode_unpadded("MB"), Err(CryptoError::InvalidPadding));
    }

    #[test]
    fn block_codec_matches_general_codec() {
        for seed in 0..64u8 {
            let block: [u8; 16] = std::array::from_fn(|i| seed.wrapping_mul(29) ^ (i as u8 * 17));
            let text = encode_block(&block);
            assert_eq!(text.as_slice(), encode_unpadded(&block).as_bytes());
            assert_eq!(decode_block(&text), Ok(block));
        }
    }

    #[test]
    fn block_decoder_is_canonical() {
        let text = encode_block(&[0xa5; 16]);
        let letter = text.iter().position(u8::is_ascii_uppercase).unwrap();
        let mut lower = text;
        lower[letter] = lower[letter].to_ascii_lowercase();
        assert_eq!(
            decode_block(&lower),
            Err(CryptoError::InvalidCharacter { byte: lower[letter], position: letter })
        );
        let mut trailing = text;
        trailing[BLOCK_CHARS - 1] = ALPHABET[(DECODE[text[BLOCK_CHARS - 1] as usize] | 1) as usize];
        assert_eq!(decode_block(&trailing), Err(CryptoError::InvalidPadding));
        assert_eq!(decode_block(&text[1..]), Err(CryptoError::InvalidLength { length: 25 }));
    }

    #[test]
    fn encoded_len_matches_encoder() {
        for len in 0..100 {
            let data = vec![0u8; len];
            assert_eq!(encode_unpadded(&data).len(), encoded_len(len));
        }
    }
}
