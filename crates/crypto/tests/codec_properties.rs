//! Property tests for every codec and primitive in `pe-crypto`.

use pe_crypto::aes::{Aes128, Aes256};
use pe_crypto::drbg::{CtrDrbg, NonceSource};
use pe_crypto::{base32, form, hex, BlockCipher};
use proptest::prelude::*;

/// The per-byte percent encoder `form` used before its bulk rewrite, kept
/// as the reference the table-driven encoder must match byte for byte.
fn reference_percent_encode(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for &b in text.as_bytes() {
        if b.is_ascii_alphanumeric() || matches!(b, b'-' | b'_' | b'.' | b'*') {
            out.push(b as char);
        } else if b == b' ' {
            out.push('+');
        } else {
            out.push('%');
            out.push(char::from_digit(u32::from(b >> 4), 16).unwrap().to_ascii_uppercase());
            out.push(char::from_digit(u32::from(b & 0xf), 16).unwrap().to_ascii_uppercase());
        }
    }
    out
}

/// Bytes for block-decoder inputs: mostly the uppercase alphabet (so many
/// inputs decode), plus lowercase letters, other ASCII and high bytes.
fn block_text_byte() -> impl Strategy<Value = u8> {
    prop_oneof![
        12 => (0usize..32).prop_map(|i| b"ABCDEFGHIJKLMNOPQRSTUVWXYZ234567"[i]),
        1 => b'a'..=b'z',
        1 => any::<u8>(),
    ]
}

proptest! {
    #[test]
    fn base32_block_codec_matches_general_codec(block in any::<[u8; 16]>()) {
        let text = base32::encode_block(&block);
        prop_assert_eq!(text.as_slice(), base32::encode_unpadded(&block).as_bytes());
        prop_assert_eq!(base32::decode_block(&text), Ok(block));
    }

    #[test]
    fn base32_block_decoder_is_canonical_unpadded_decoder(
        seed in any::<[u8; 16]>(),
        edits in proptest::collection::vec((0usize..base32::BLOCK_CHARS, block_text_byte()), 0..3),
    ) {
        // A valid encoding with up to two bytes overwritten: many inputs
        // still decode, and every kind of bad byte appears.
        let mut text = base32::encode_block(&seed);
        for (at, byte) in edits {
            text[at] = byte;
        }
        let block = base32::decode_block(&text);
        match text.iter().position(|b| !b.is_ascii() || b.is_ascii_lowercase()) {
            None => {
                // Uppercase ASCII: exactly the general decoder's verdict.
                let general = base32::decode_unpadded(std::str::from_utf8(&text).unwrap())
                    .map(|bytes| <[u8; 16]>::try_from(bytes).unwrap());
                prop_assert_eq!(block, general);
            }
            Some(first) => {
                // Lowercase and non-ASCII bytes are rejected at the first
                // byte outside the uppercase alphabet.
                let position = text
                    .iter()
                    .position(|b| !(b.is_ascii_uppercase() || (b'2'..=b'7').contains(b)))
                    .unwrap();
                prop_assert!(position <= first);
                prop_assert_eq!(
                    block,
                    Err(pe_crypto::CryptoError::InvalidCharacter { byte: text[position], position })
                );
            }
        }
    }

    #[test]
    fn percent_encode_matches_per_byte_reference(text in "\\PC{0,400}") {
        prop_assert_eq!(form::percent_encode(&text), reference_percent_encode(&text));
    }

    #[test]
    fn encode_pairs_matches_per_byte_reference(
        pairs in proptest::collection::vec(("\\PC{0,40}", "\\PC{0,400}"), 0..6)
    ) {
        let reference = pairs
            .iter()
            .map(|(k, v)| format!("{}={}", reference_percent_encode(k), reference_percent_encode(v)))
            .collect::<Vec<_>>()
            .join("&");
        prop_assert_eq!(form::encode_pairs(&pairs), reference);
    }
}

proptest! {
    #[test]
    fn hex_roundtrips(data in proptest::collection::vec(any::<u8>(), 0..256)) {
        prop_assert_eq!(hex::decode(&hex::encode(&data)).unwrap(), data);
    }

    #[test]
    fn base32_roundtrips(data in proptest::collection::vec(any::<u8>(), 0..256)) {
        prop_assert_eq!(base32::decode(&base32::encode(&data)).unwrap(), data.clone());
        let unpadded = base32::encode_unpadded(&data);
        prop_assert_eq!(base32::decode_unpadded(&unpadded).unwrap(), data.clone());
        prop_assert_eq!(unpadded.len(), base32::encoded_len(data.len()));
    }

    #[test]
    fn base32_never_decodes_garbage_silently(text in "[A-Z2-7]{0,40}") {
        // Either the decode fails or it re-encodes to the same text.
        if let Ok(bytes) = base32::decode_unpadded(&text) {
            prop_assert_eq!(base32::encode_unpadded(&bytes), text);
        }
    }

    #[test]
    fn percent_roundtrips(text in "\\PC{0,120}") {
        prop_assert_eq!(form::percent_decode(&form::percent_encode(&text)).unwrap(), text);
    }

    #[test]
    fn form_pairs_roundtrip(
        pairs in proptest::collection::vec(("\\PC{0,20}", "\\PC{0,30}"), 0..8)
    ) {
        // Keys must be non-empty for unambiguous parsing.
        let pairs: Vec<(String, String)> = pairs
            .into_iter()
            .enumerate()
            .map(|(i, (k, v))| (format!("k{i}{k}"), v))
            .collect();
        let body = form::encode_pairs(&pairs);
        prop_assert_eq!(form::parse_pairs(&body).unwrap(), pairs);
    }

    #[test]
    fn aes128_roundtrips(key in any::<[u8; 16]>(), block in any::<[u8; 16]>()) {
        let cipher = Aes128::new(&key);
        let mut data = block;
        cipher.encrypt_block(&mut data);
        cipher.decrypt_block(&mut data);
        prop_assert_eq!(data, block);
    }

    #[test]
    fn aes256_roundtrips(key in any::<[u8; 32]>(), block in any::<[u8; 16]>()) {
        let cipher = Aes256::new(&key);
        let mut data = block;
        cipher.encrypt_block(&mut data);
        cipher.decrypt_block(&mut data);
        prop_assert_eq!(data, block);
    }

    #[test]
    fn aes_is_a_permutation_on_distinct_blocks(
        key in any::<[u8; 16]>(),
        a in any::<[u8; 16]>(),
        b in any::<[u8; 16]>(),
    ) {
        prop_assume!(a != b);
        let cipher = Aes128::new(&key);
        let (mut ca, mut cb) = (a, b);
        cipher.encrypt_block(&mut ca);
        cipher.encrypt_block(&mut cb);
        prop_assert_ne!(ca, cb, "a permutation cannot collide");
    }

    #[test]
    fn drbg_streams_are_prefix_consistent(seed in any::<u64>(), split in 1usize..64) {
        let mut whole = CtrDrbg::from_seed(seed);
        let mut parts = CtrDrbg::from_seed(seed);
        let mut big = vec![0u8; 64];
        whole.fill_bytes(&mut big);
        let mut first = vec![0u8; split];
        let mut second = vec![0u8; 64 - split];
        parts.fill_bytes(&mut first);
        parts.fill_bytes(&mut second);
        first.extend_from_slice(&second);
        prop_assert_eq!(first, big);
    }

    #[test]
    fn sha256_is_deterministic_and_sensitive(
        data in proptest::collection::vec(any::<u8>(), 1..200),
        flip in any::<usize>(),
    ) {
        use pe_crypto::sha256::Sha256;
        let digest = Sha256::digest(&data);
        prop_assert_eq!(Sha256::digest(&data), digest);
        let mut tweaked = data.clone();
        let at = flip % tweaked.len();
        tweaked[at] ^= 1;
        prop_assert_ne!(Sha256::digest(&tweaked), digest);
    }
}

proptest! {
    #[test]
    fn key_wrap_roundtrips(
        kek in proptest::array::uniform16(any::<u8>()),
        blocks in 2usize..9,
        seed in any::<u64>(),
    ) {
        use pe_crypto::kw;
        let mut rng = CtrDrbg::from_seed(seed);
        let mut data = vec![0u8; blocks * 8];
        rng.fill_bytes(&mut data);
        let cipher = Aes128::new(&kek);
        let wrapped = kw::wrap(&cipher, &data).unwrap();
        prop_assert_eq!(wrapped.len(), data.len() + 8);
        prop_assert_eq!(kw::unwrap(&cipher, &wrapped).unwrap(), data);
    }

    #[test]
    fn key_wrap_detects_tampering(
        kek in proptest::array::uniform16(any::<u8>()),
        data in proptest::collection::vec(any::<u8>(), 32..33),
        byte in 0usize..40,
        bit in 0u8..8,
    ) {
        use pe_crypto::kw;
        let cipher = Aes128::new(&kek);
        let mut wrapped = kw::wrap(&cipher, &data).unwrap();
        let at = byte % wrapped.len();
        wrapped[at] ^= 1 << bit;
        prop_assert_eq!(
            kw::unwrap(&cipher, &wrapped),
            Err(pe_crypto::CryptoError::IntegrityCheckFailed)
        );
    }

    #[test]
    fn key_wrap_rejects_wrong_kek(
        kek in proptest::array::uniform16(any::<u8>()),
        flip in 0usize..128,
        data in proptest::collection::vec(any::<u8>(), 16..17),
    ) {
        use pe_crypto::kw;
        let cipher = Aes128::new(&kek);
        let mut other_key = kek;
        other_key[flip / 8] ^= 1 << (flip % 8);
        let other = Aes128::new(&other_key);
        let wrapped = kw::wrap(&cipher, &data).unwrap();
        prop_assert_eq!(
            kw::unwrap(&other, &wrapped),
            Err(pe_crypto::CryptoError::IntegrityCheckFailed)
        );
    }
}
