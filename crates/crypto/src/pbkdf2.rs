//! PBKDF2-HMAC-SHA-256 password-based key derivation (RFC 2898 / RFC 8018).
//!
//! The paper's prototype asks the user for a per-document password; the
//! document key is derived from that password. This module provides the
//! derivation step. The salt is stored alongside the ciphertext document
//! header so any client knowing the password can re-derive the key.
//!
//! # Example
//!
//! ```
//! use pe_crypto::pbkdf2::pbkdf2_sha256;
//!
//! let mut key = [0u8; 16];
//! pbkdf2_sha256(b"hunter2", b"doc-salt", 1_000, &mut key);
//! # let _ = key;
//! ```

use crate::hmac::HmacSha256;

/// Derives `out.len()` bytes of key material from `password` and `salt`
/// using `iterations` rounds of HMAC-SHA-256.
///
/// # Panics
///
/// Panics if `iterations` is zero (RFC 2898 requires a positive count).
pub fn pbkdf2_sha256(password: &[u8], salt: &[u8], iterations: u32, out: &mut [u8]) {
    pbkdf2_with_prf(&HmacSha256::new(password), salt, iterations, out);
}

/// PBKDF2 over an already-keyed PRF: `prf` is HMAC-SHA-256 keyed with the
/// password and fed nothing yet. Every PRF call clones it, so the key
/// blocks are compressed once per derivation rather than per iteration.
/// [`pbkdf2_sha256`] is this with [`HmacSha256::new`]; callers pick a
/// SHA-256 engine with [`HmacSha256::with_engine`].
///
/// # Panics
///
/// Panics if `iterations` is zero (RFC 2898 requires a positive count).
pub fn pbkdf2_with_prf(prf: &HmacSha256, salt: &[u8], iterations: u32, out: &mut [u8]) {
    assert!(iterations > 0, "PBKDF2 iteration count must be positive");
    for (block_index, chunk) in (1u32..).zip(out.chunks_mut(32)) {
        let mut mac = prf.clone();
        mac.update(salt);
        mac.update(&block_index.to_be_bytes());
        let mut u = mac.finalize();
        let mut t = u;
        for _ in 1..iterations {
            let mut mac = prf.clone();
            mac.update(&u);
            u = mac.finalize();
            for (acc, byte) in t.iter_mut().zip(u.iter()) {
                *acc ^= byte;
            }
        }
        chunk.copy_from_slice(&t[..chunk.len()]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hex;

    /// RFC 7914 §11 PBKDF2-HMAC-SHA-256 test vector 1.
    #[test]
    fn rfc7914_vector_1_iteration() {
        let mut out = [0u8; 64];
        pbkdf2_sha256(b"passwd", b"salt", 1, &mut out);
        assert_eq!(
            hex::encode(&out),
            "55ac046e56e3089fec1691c22544b605f94185216dde0465e68b9d57c20dacbc\
             49ca9cccf179b645991664b39d77ef317c71b845b1e30bd509112041d3a19783"
        );
    }

    /// RFC 7914 §11 PBKDF2-HMAC-SHA-256 test vector 2 (80000 iterations).
    #[test]
    fn rfc7914_vector_80000_iterations() {
        let mut out = [0u8; 64];
        pbkdf2_sha256(b"Password", b"NaCl", 80000, &mut out);
        assert_eq!(
            hex::encode(&out),
            "4ddcd8f60b98be21830cee5ef22701f9641a4418d04c0414aeff08876b34ab56\
             a1d425a1225833549adb841b51c9b3176a272bdebba1d078478f62b397f33c8d"
        );
    }

    #[test]
    fn output_lengths_not_multiple_of_hash_len() {
        let mut short = [0u8; 5];
        let mut long = [0u8; 37];
        pbkdf2_sha256(b"pw", b"salt", 2, &mut short);
        pbkdf2_sha256(b"pw", b"salt", 2, &mut long);
        // The first bytes of both derivations must agree (same T1 block).
        assert_eq!(short, long[..5]);
    }

    #[test]
    fn different_salts_give_different_keys() {
        let mut a = [0u8; 32];
        let mut b = [0u8; 32];
        pbkdf2_sha256(b"pw", b"salt-a", 10, &mut a);
        pbkdf2_sha256(b"pw", b"salt-b", 10, &mut b);
        assert_ne!(a, b);
    }

    #[test]
    #[should_panic(expected = "iteration count must be positive")]
    fn zero_iterations_panics() {
        let mut out = [0u8; 16];
        pbkdf2_sha256(b"pw", b"salt", 0, &mut out);
    }
}
