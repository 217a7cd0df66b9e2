//! HMAC-SHA-256 message authentication (RFC 2104).
//!
//! Used by [`crate::pbkdf2`] and available to integrity-layer consumers.
//!
//! # Example
//!
//! ```
//! use pe_crypto::hmac::hmac_sha256;
//!
//! let tag = hmac_sha256(b"key", b"The quick brown fox jumps over the lazy dog");
//! assert_eq!(
//!     pe_crypto::hex::encode(&tag),
//!     "f7bc83f430538424b13298e6aa6fb143ef4d59a14946175997479dbc2d1a3cd8"
//! );
//! ```

use crate::sha256::{Sha256, Sha256Engine};

const BLOCK_LEN: usize = 64;

/// Streaming HMAC-SHA-256.
///
/// Both hash states are keyed at construction, so cloning a keyed
/// instance (as [`crate::pbkdf2`] does once per iteration) skips the two
/// key-block compressions.
#[derive(Clone, Debug)]
pub struct HmacSha256 {
    /// Hash of `key ^ ipad` followed by the message so far.
    inner: Sha256,
    /// Hash of `key ^ opad`, awaiting the inner digest.
    outer: Sha256,
}

impl HmacSha256 {
    /// Creates an HMAC instance for `key`. Keys longer than the SHA-256
    /// block size are first hashed, per RFC 2104.
    pub fn new(key: &[u8]) -> HmacSha256 {
        HmacSha256::with_engine(key, Sha256Engine::selected())
    }

    /// Like [`HmacSha256::new`], with both hashes pinned to `engine` (see
    /// [`Sha256::with_engine`]).
    pub fn with_engine(key: &[u8], engine: Sha256Engine) -> HmacSha256 {
        let mut padded = [0u8; BLOCK_LEN];
        if key.len() > BLOCK_LEN {
            let mut hasher = Sha256::with_engine(engine);
            hasher.update(key);
            padded[..32].copy_from_slice(&hasher.finalize());
        } else {
            padded[..key.len()].copy_from_slice(key);
        }
        let keyed = |pad: u8| {
            let mut hasher = Sha256::with_engine(engine);
            hasher.update(&padded.map(|b| b ^ pad));
            hasher
        };
        HmacSha256 { inner: keyed(0x36), outer: keyed(0x5c) }
    }

    /// Absorbs message data.
    pub fn update(&mut self, data: &[u8]) {
        self.inner.update(data);
    }

    /// Produces the 32-byte authentication tag.
    pub fn finalize(self) -> [u8; 32] {
        let mut outer = self.outer;
        outer.update(&self.inner.finalize());
        outer.finalize()
    }
}

/// One-shot HMAC-SHA-256.
pub fn hmac_sha256(key: &[u8], message: &[u8]) -> [u8; 32] {
    let mut mac = HmacSha256::new(key);
    mac.update(message);
    mac.finalize()
}

/// Constant-time comparison of two byte strings.
///
/// Returns `true` only when `a` and `b` have equal length and contents.
/// Used when verifying integrity tags so that the comparison time does not
/// leak the position of the first mismatching byte.
pub fn verify_tags(a: &[u8], b: &[u8]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let mut diff = 0u8;
    for (x, y) in a.iter().zip(b.iter()) {
        diff |= x ^ y;
    }
    diff == 0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hex;

    /// RFC 4231 test case 1.
    #[test]
    fn rfc4231_case1() {
        let key = [0x0bu8; 20];
        let tag = hmac_sha256(&key, b"Hi There");
        assert_eq!(
            hex::encode(&tag),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
    }

    /// RFC 4231 test case 2 ("Jefe").
    #[test]
    fn rfc4231_case2() {
        let tag = hmac_sha256(b"Jefe", b"what do ya want for nothing?");
        assert_eq!(
            hex::encode(&tag),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
    }

    /// RFC 4231 test case 3 (0xaa key, 0xdd data).
    #[test]
    fn rfc4231_case3() {
        let key = [0xaau8; 20];
        let data = [0xddu8; 50];
        let tag = hmac_sha256(&key, &data);
        assert_eq!(
            hex::encode(&tag),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
        );
    }

    /// RFC 4231 test case 6: key larger than the block size.
    #[test]
    fn rfc4231_case6_long_key() {
        let key = [0xaau8; 131];
        let tag = hmac_sha256(&key, b"Test Using Larger Than Block-Size Key - Hash Key First");
        assert_eq!(
            hex::encode(&tag),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        );
    }

    #[test]
    fn streaming_matches_oneshot() {
        let key = b"some key";
        let msg = b"a message split across several updates";
        let mut mac = HmacSha256::new(key);
        for chunk in msg.chunks(7) {
            mac.update(chunk);
        }
        assert_eq!(mac.finalize(), hmac_sha256(key, msg));
    }

    #[test]
    fn verify_tags_behaviour() {
        assert!(verify_tags(b"abc", b"abc"));
        assert!(!verify_tags(b"abc", b"abd"));
        assert!(!verify_tags(b"abc", b"abcd"));
        assert!(verify_tags(b"", b""));
    }
}
