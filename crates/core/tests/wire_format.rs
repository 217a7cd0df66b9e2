//! The serialized ciphertext format: golden digests and canonicity.
//!
//! The stored string is the paper's Fig. 2 contract with the server, so
//! any change to the record codec must leave it byte-identical. The
//! SHA-256 digests of `serialize()` below were recorded from the original
//! per-record codec for fixed-key, fixed-seed documents; a codec rewrite
//! that changes a single byte of any of them fails here.
//!
//! The parser accepts only the canonical encoding, so every string that
//! opens serializes back to itself — the property that lets a client use
//! the server's string as its ciphertext mirror.

use pe_core::wire::{PREAMBLE_CHARS, RECORD_CHARS};
use pe_core::{DocumentKey, IncrementalCipherDoc, RecbDocument, RpcDocument, SchemeParams};
use pe_crypto::{hex, sha256::Sha256, CtrDrbg};
use proptest::prelude::*;

/// Plaintext lengths: empty, one char, exactly one and just over one
/// 8-char block, and a ~20 KB document with thousands of records.
const LENGTHS: [usize; 5] = [0, 1, 8, 9, 20_000];

fn plaintext(len: usize) -> Vec<u8> {
    (0..len).map(|i| (i.wrapping_mul(37).wrapping_add(11) % 95 + 32) as u8).collect()
}

fn key() -> DocumentKey {
    DocumentKey::derive("golden-wire", &[0x3c; 16], 100)
}

fn digest(wire: &str) -> String {
    hex::encode(&Sha256::digest(wire.as_bytes()))
}

/// `(label, length, sha256(serialize()))`.
const GOLDEN: &[(&str, usize, &str)] = &[
    ("recb-b1", 0, "2ca517ff669f4feafd7c98a588bdb49f2d9b9f84baebb852fd2478bf5a3caa7b"),
    ("recb-b8", 0, "3f2c7c47ba3401123372a6380d48af509dc9a98fc0f5ef12a5f7c719cc712482"),
    ("rpc-b7", 0, "3e2d0d0bbdffa901f71d1eec905c9a174735ff8d4e8fe1bf4885f35055e349e9"),
    ("recb-b1", 1, "c359d0b52d96b32f6402c6f3d102c4ed0d98bf36d2e4f4f3cd5bca61e653a080"),
    ("recb-b8", 1, "4a5e7a5e5f2dbf768e6efc1fd4ca226e128d9966ffe53044a1fdc9ae192bec0e"),
    ("rpc-b7", 1, "2fa3bde3013f306ebb831ae0c2e44bc56ef4777d17ae8d58c4221d212ff52ea8"),
    ("recb-b1", 8, "2f035383f096f8bd2182b1c9c34db3779fe1f55ebb39bca84d2000c24106894c"),
    ("recb-b8", 8, "ae687ccfc065627678642c31a497627804021ba584e5123a73c9c20f2bad7662"),
    ("rpc-b7", 8, "8d9368bd192f7c52fd85775d06fe0d63b29ff8238672b7882e0485c2662da96e"),
    ("recb-b1", 9, "dee447ca3cbb58d2e1aa273c699e3ab891a8ef53d84cbb1dfbb3ea37f960f065"),
    ("recb-b8", 9, "04ca89506da38f2de2f73ab790e8ba0322242026cee41289b541a5f0f8c080af"),
    ("rpc-b7", 9, "5c6c3197531d30ece40888c77619a2243a3b45f83940c0b482b34b975ecbc551"),
    ("recb-b1", 20000, "6ac556f7e4522df669637aca25e7b33a928c69c5c1306d8b67cd0b7ad501424f"),
    ("recb-b8", 20000, "423a6448b36d3f522cba2aaee3b16eeb7dd113a0eccaa979caf8c2a02b8c89dc"),
    ("rpc-b7", 20000, "f93984ffb424050c1c547b8d7c2c81babd1da2b3699ece74c11a02caab60eebb"),
];

#[test]
fn serialize_matches_golden_digests() {
    let mut actual = Vec::new();
    for &len in &LENGTHS {
        let text = plaintext(len);
        let seed = 7_000 + len as u64;
        for b in [1, 8] {
            let rng = CtrDrbg::from_seed(seed);
            let d = RecbDocument::create(&key(), SchemeParams::recb(b), &text, rng).unwrap();
            actual.push((format!("recb-b{b}"), len, digest(&d.serialize())));
        }
        let rng = CtrDrbg::from_seed(seed);
        let d = RpcDocument::create(&key(), SchemeParams::rpc(7), &text, rng).unwrap();
        actual.push(("rpc-b7".to_string(), len, digest(&d.serialize())));
    }
    assert_eq!(actual.len(), GOLDEN.len());
    for ((label, len, hex), (want_label, want_len, want_hex)) in actual.iter().zip(GOLDEN) {
        assert_eq!((label.as_str(), *len), (*want_label, *want_len));
        assert_eq!(hex, want_hex, "{label} at {len} chars changed on the wire");
    }
}

const ALPHABET: &[u8; 32] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZ234567";

/// Opens `wire` as the mode its preamble names and serializes it back.
fn reserialize(wire: &str) -> Option<String> {
    let key = key();
    let rng = CtrDrbg::from_seed(1);
    if wire.as_bytes().get(4) == Some(&b'P') {
        RpcDocument::open(&key, wire, rng).ok().map(|d| d.serialize())
    } else {
        RecbDocument::open(&key, wire, rng).ok().map(|d| d.serialize())
    }
}

/// How a test case alters a freshly serialized document.
#[derive(Debug, Clone)]
enum Mutation {
    None,
    /// Lowercase one letter of one record's Base32 body.
    Lowercase { record: usize, at: usize },
    /// Set one of the two must-be-zero trailing bits of one record.
    TrailingBit { record: usize, bit: u8 },
    /// Overwrite one byte anywhere with an arbitrary ASCII byte.
    Byte { at: usize, byte: u8 },
}

fn mutation() -> impl Strategy<Value = Mutation> {
    prop_oneof![
        Just(Mutation::None),
        (any::<usize>(), any::<usize>())
            .prop_map(|(record, at)| Mutation::Lowercase { record, at }),
        (any::<usize>(), 0u8..2).prop_map(|(record, bit)| Mutation::TrailingBit { record, bit }),
        (any::<usize>(), 0u8..128).prop_map(|(at, byte)| Mutation::Byte { at, byte }),
    ]
}

proptest! {
    #[test]
    fn every_string_that_opens_is_its_own_serialization(
        len in 0usize..200,
        rpc in any::<bool>(),
        b in 1usize..=8,
        seed in any::<u64>(),
        mutation in mutation(),
    ) {
        let text: Vec<u8> = plaintext(len);
        let rng = CtrDrbg::from_seed(seed);
        let wire = if rpc {
            let params = SchemeParams::rpc(b.min(7));
            RpcDocument::create(&key(), params, &text, rng).unwrap().serialize()
        } else {
            RecbDocument::create(&key(), SchemeParams::recb(b), &text, rng).unwrap().serialize()
        };
        let records = (wire.len() - PREAMBLE_CHARS) / RECORD_CHARS;
        let mut bytes = wire.clone().into_bytes();
        let must_fail = match mutation {
            Mutation::None => false,
            Mutation::Lowercase { record, at } => {
                let start = PREAMBLE_CHARS + (record % records) * RECORD_CHARS + 1;
                let body = &mut bytes[start..start + RECORD_CHARS - 1];
                let letters: Vec<usize> =
                    (0..body.len()).filter(|&i| body[i].is_ascii_uppercase()).collect();
                prop_assume!(!letters.is_empty());
                let i = letters[at % letters.len()];
                body[i] = body[i].to_ascii_lowercase();
                true
            }
            Mutation::TrailingBit { record, bit } => {
                let last = PREAMBLE_CHARS + (record % records + 1) * RECORD_CHARS - 1;
                let value = ALPHABET.iter().position(|&c| c == bytes[last]).unwrap();
                bytes[last] = ALPHABET[value | (1 << bit)];
                true
            }
            Mutation::Byte { at, byte } => {
                bytes[at % wire.len()] = byte;
                false
            }
        };
        let mutated = String::from_utf8(bytes).unwrap();
        match reserialize(&mutated) {
            Some(again) => {
                prop_assert!(!must_fail, "a non-canonical record opened");
                prop_assert_eq!(again, mutated);
            }
            None => prop_assert!(must_fail || mutated != wire, "the unmodified document must open"),
        }
    }
}
