//! `application/x-www-form-urlencoded` codecs.
//!
//! The paper's extension rewrites form-encoded POST bodies
//! (`docContents=…&delta=…`); these helpers implement the encoding rules
//! the simulated wire protocol uses: unreserved characters pass through,
//! space becomes `+`, and every other byte becomes `%XX`.
//!
//! # Example
//!
//! ```
//! use pe_crypto::form;
//!
//! let body = form::encode_pairs(&[("delta", "=2\t+a b")]);
//! assert_eq!(body, "delta=%3D2%09%2Ba+b");
//! let pairs = form::parse_pairs(&body)?;
//! assert_eq!(pairs, vec![("delta".to_string(), "=2\t+a b".to_string())]);
//! # Ok::<(), pe_crypto::CryptoError>(())
//! ```

use crate::error::CryptoError;

/// Uppercase hex digits for `%XX` escapes.
const HEX_UPPER: &[u8; 16] = b"0123456789ABCDEF";

/// Bytes examined per step when skipping runs that need no rewriting
/// (32: the fixed-size folds below then compile to vector compares).
const CHUNK: usize = 32;

/// Whether `b` passes through unescaped (`A–Z a–z 0–9 - _ . *`). Written
/// without branches so the run scans below compile to vector compares.
#[inline]
fn is_unreserved(b: u8) -> bool {
    // `| 0x20` folds `A–Z` onto `a–z` and moves no other byte into it.
    ((b | 0x20).wrapping_sub(b'a') < 26)
        | (b.wrapping_sub(b'0') < 10)
        | (b == b'-')
        | (b == b'_')
        | (b == b'.')
        | (b == b'*')
}

/// Whether [`percent_encode`] writes `b` as a three-byte `%XX` escape.
#[inline]
fn is_escaped(b: u8) -> bool {
    !is_unreserved(b) & (b != b' ')
}

/// Index of the first byte at or after `from` for which `keep` is false
/// (or `bytes.len()`), stepping over whole chunks of kept bytes at a time.
#[inline]
fn run_end(bytes: &[u8], mut from: usize, keep: impl Fn(u8) -> bool) -> usize {
    while let Some(chunk) = bytes[from..].first_chunk::<CHUNK>() {
        if chunk.iter().fold(0u8, |missed, &b| missed | u8::from(!keep(b))) != 0 {
            break;
        }
        from += CHUNK;
    }
    bytes[from..].iter().position(|&b| !keep(b)).map_or(bytes.len(), |at| from + at)
}

/// Length of `percent_encode(text)`, for sizing output buffers up front:
/// unreserved bytes and space take one byte, every other byte three.
fn encoded_len(text: &str) -> usize {
    let chunks = text.as_bytes().chunks_exact(CHUNK);
    let tail = chunks.remainder().iter().filter(|&&b| is_escaped(b)).count();
    let escaped: usize = chunks
        .map(|chunk| usize::from(chunk.iter().fold(0u8, |n, &b| n + u8::from(is_escaped(b)))))
        .sum();
    text.len() + 2 * (escaped + tail)
}

/// Appends the form encoding of `text` to `out`, copying each run of
/// unreserved bytes in one piece.
fn encode_into(out: &mut String, text: &str) {
    let bytes = text.as_bytes();
    let mut run = 0; // start of the pending run of unreserved bytes
    loop {
        let end = run_end(bytes, run, is_unreserved);
        // A non-empty run is ASCII, so both of its ends are char
        // boundaries (an empty one may sit inside a multi-byte char).
        if run < end {
            out.push_str(&text[run..end]);
        }
        let Some(&b) = bytes.get(end) else {
            return;
        };
        if b == b' ' {
            out.push('+');
        } else {
            out.push('%');
            out.push(char::from(HEX_UPPER[usize::from(b >> 4)]));
            out.push(char::from(HEX_UPPER[usize::from(b & 0xf)]));
        }
        run = end + 1;
    }
}

/// Percent-encodes `text` using form-urlencoding rules.
pub fn percent_encode(text: &str) -> String {
    let mut out = String::with_capacity(encoded_len(text));
    encode_into(&mut out, text);
    out
}

/// Decodes a percent-encoded string back into text.
///
/// Runs of bytes other than `+` and `%` are copied in one piece. The
/// output is checked for UTF-8 only when an escape produced a non-ASCII
/// byte: replacing ASCII `+`/`%XX` sequences of valid UTF-8 input with
/// ASCII bytes cannot make it invalid.
///
/// # Errors
///
/// Returns [`CryptoError::InvalidCharacter`] for malformed `%` escapes and
/// [`CryptoError::InvalidUtf8`] if the decoded bytes are not UTF-8.
pub fn percent_decode(text: &str) -> Result<String, CryptoError> {
    let bytes = text.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut escaped_high = 0u8;
    let mut i = 0;
    loop {
        let end = run_end(bytes, i, |b| (b != b'+') & (b != b'%'));
        out.extend_from_slice(&bytes[i..end]);
        match bytes.get(end) {
            None => break,
            Some(b'+') => {
                out.push(b' ');
                i = end + 1;
            }
            Some(_) => {
                if end + 2 >= bytes.len() {
                    return Err(CryptoError::InvalidCharacter { byte: b'%', position: end });
                }
                let hi = hex_val(bytes[end + 1]).ok_or(CryptoError::InvalidCharacter {
                    byte: bytes[end + 1],
                    position: end + 1,
                })?;
                let lo = hex_val(bytes[end + 2]).ok_or(CryptoError::InvalidCharacter {
                    byte: bytes[end + 2],
                    position: end + 2,
                })?;
                let byte = (hi << 4) | lo;
                escaped_high |= byte;
                out.push(byte);
                i = end + 3;
            }
        }
    }
    if escaped_high.is_ascii() {
        // Valid UTF-8 with ASCII sequences swapped for ASCII bytes.
        return Ok(String::from_utf8(out).expect("ASCII substitutions keep UTF-8 valid"));
    }
    String::from_utf8(out).map_err(|e| CryptoError::InvalidUtf8 {
        position: e.utf8_error().valid_up_to(),
    })
}

fn hex_val(c: u8) -> Option<u8> {
    match c {
        b'0'..=b'9' => Some(c - b'0'),
        b'a'..=b'f' => Some(c - b'a' + 10),
        b'A'..=b'F' => Some(c - b'A' + 10),
        _ => None,
    }
}

/// Encodes key/value pairs as a form body (`k1=v1&k2=v2`) into one
/// buffer sized up front.
pub fn encode_pairs<K: AsRef<str>, V: AsRef<str>>(pairs: &[(K, V)]) -> String {
    let len = pairs
        .iter()
        .map(|(k, v)| encoded_len(k.as_ref()) + 1 + encoded_len(v.as_ref()))
        .sum::<usize>()
        + pairs.len().saturating_sub(1);
    let mut out = String::with_capacity(len);
    for (i, (k, v)) in pairs.iter().enumerate() {
        if i > 0 {
            out.push('&');
        }
        encode_into(&mut out, k.as_ref());
        out.push('=');
        encode_into(&mut out, v.as_ref());
    }
    debug_assert_eq!(out.len(), len);
    out
}

/// Parses a form body into its key/value pairs, preserving order and
/// duplicates.
///
/// # Errors
///
/// Propagates decoding errors from [`percent_decode`].
pub fn parse_pairs(body: &str) -> Result<Vec<(String, String)>, CryptoError> {
    if body.is_empty() {
        return Ok(Vec::new());
    }
    let mut pairs = Vec::new();
    for piece in body.split('&') {
        let (k, v) = match piece.split_once('=') {
            Some((k, v)) => (k, v),
            None => (piece, ""),
        };
        pairs.push((percent_decode(k)?, percent_decode(v)?));
    }
    Ok(pairs)
}

/// Looks up the first value for `key` in a parsed form body.
pub fn first_value<'a>(pairs: &'a [(String, String)], key: &str) -> Option<&'a str> {
    pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unreserved_passes_through() {
        assert_eq!(percent_encode("AZaz09-_.*"), "AZaz09-_.*");
    }

    #[test]
    fn space_becomes_plus() {
        assert_eq!(percent_encode("a b"), "a+b");
        assert_eq!(percent_decode("a+b").unwrap(), "a b");
    }

    #[test]
    fn reserved_characters_escape() {
        assert_eq!(percent_encode("=&%\t"), "%3D%26%25%09");
        assert_eq!(percent_decode("%3D%26%25%09").unwrap(), "=&%\t");
    }

    #[test]
    fn unicode_roundtrip() {
        let text = "héllo wörld — ≠";
        assert_eq!(percent_decode(&percent_encode(text)).unwrap(), text);
    }

    #[test]
    fn roundtrip_every_ascii_byte() {
        let all: String = (0x20u8..0x7f).map(|b| b as char).collect();
        assert_eq!(percent_decode(&percent_encode(&all)).unwrap(), all);
    }

    #[test]
    fn truncated_escape_rejected() {
        assert!(percent_decode("abc%4").is_err());
        assert!(percent_decode("abc%").is_err());
    }

    #[test]
    fn invalid_hex_rejected() {
        assert!(matches!(
            percent_decode("%zz"),
            Err(CryptoError::InvalidCharacter { byte: b'z', position: 1 })
        ));
    }

    #[test]
    fn invalid_utf8_rejected() {
        assert!(matches!(percent_decode("%ff%fe"), Err(CryptoError::InvalidUtf8 { .. })));
    }

    #[test]
    fn pairs_roundtrip() {
        let pairs = vec![
            ("docContents".to_string(), "hello world & more".to_string()),
            ("delta".to_string(), "=2\t-5\t+x=y".to_string()),
            ("empty".to_string(), String::new()),
        ];
        let body = encode_pairs(&pairs);
        assert_eq!(parse_pairs(&body).unwrap(), pairs);
    }

    #[test]
    fn key_without_value_parses_as_empty() {
        assert_eq!(
            parse_pairs("flag&k=v").unwrap(),
            vec![("flag".to_string(), String::new()), ("k".to_string(), "v".to_string())]
        );
    }

    #[test]
    fn empty_body_parses_to_no_pairs() {
        assert!(parse_pairs("").unwrap().is_empty());
    }

    #[test]
    fn first_value_finds_first_duplicate() {
        let pairs = parse_pairs("a=1&a=2&b=3").unwrap();
        assert_eq!(first_value(&pairs, "a"), Some("1"));
        assert_eq!(first_value(&pairs, "b"), Some("3"));
        assert_eq!(first_value(&pairs, "c"), None);
    }
}
