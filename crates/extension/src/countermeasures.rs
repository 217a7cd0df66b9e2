//! Covert-channel countermeasures (§VI-B).
//!
//! Against a *malicious client* the mediator cannot prevent all leakage,
//! but it can limit covert-channel bandwidth:
//!
//! * **Delta canonicalization** — "many different sequences of delta
//!   commands could produce the same editing outcome, so the malicious
//!   client could select different sequences to encode additional
//!   information". Rewriting every outgoing delta into the canonical
//!   minimal form (the diff of the two document versions) destroys such
//!   encodings. The mediator applies the client's delta once and derives
//!   the canonical splice from the old and new plaintext with
//!   [`pe_delta::diff_bytes`]: counts are bytes, like the ciphertext
//!   transform, and the cost is one copy of the document plus a chunked
//!   prefix/suffix comparison; see [`pe_delta::Delta::canonicalize`].
//! * **Random delays** — "we could add random delays … to every outgoing
//!   update request" to blunt timing channels. [`suggested_delay`]
//!   produces the delay; callers decide whether to sleep (benchmarks
//!   account for it without sleeping).
//! * **Random padding** — "could randomly pad the content … before
//!   encryption" to blunt length channels. [`padding_field`] produces an
//!   ignored form field of random length appended to update bodies.

use std::time::Duration;

use pe_crypto::base32;
use pe_crypto::drbg::NonceSource;

/// Maximum random delay added to an outgoing update.
pub const MAX_DELAY: Duration = Duration::from_millis(300);

/// Maximum padding bytes appended to an update body.
pub const MAX_PADDING: usize = 64;

/// Draws a random delay in `0..=MAX_DELAY` for an outgoing update.
pub fn suggested_delay<R: NonceSource>(rng: &mut R) -> Duration {
    Duration::from_millis(rng.next_below(MAX_DELAY.as_millis() as u64 + 1))
}

/// Draws a random ignored form field (`("pad", <base32 junk>)`) whose
/// encoded length varies, so request sizes stop being a precise function
/// of the plaintext edit.
pub fn padding_field<R: NonceSource>(rng: &mut R) -> (String, String) {
    let len = rng.next_below(MAX_PADDING as u64 + 1) as usize;
    let mut junk = vec![0u8; len];
    rng.fill_bytes(&mut junk);
    ("pad".to_string(), base32::encode_unpadded(&junk))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pe_crypto::CtrDrbg;

    #[test]
    fn delays_are_bounded() {
        let mut rng = CtrDrbg::from_seed(1);
        for _ in 0..200 {
            assert!(suggested_delay(&mut rng) <= MAX_DELAY);
        }
    }

    #[test]
    fn delays_vary() {
        let mut rng = CtrDrbg::from_seed(2);
        let delays: Vec<Duration> = (0..20).map(|_| suggested_delay(&mut rng)).collect();
        assert!(delays.windows(2).any(|w| w[0] != w[1]));
    }

    #[test]
    fn padding_lengths_vary_and_are_bounded() {
        let mut rng = CtrDrbg::from_seed(3);
        let mut lens = std::collections::HashSet::new();
        for _ in 0..100 {
            let (key, value) = padding_field(&mut rng);
            assert_eq!(key, "pad");
            assert!(value.len() <= base32::encoded_len(MAX_PADDING));
            lens.insert(value.len());
        }
        assert!(lens.len() > 5, "padding lengths should vary: {lens:?}");
    }
}
