// Tab IS the delta wire format's separator; the doc examples keep it
// literal so they read exactly as the protocol does.
#![allow(clippy::tabs_in_doc_comments)]

//! The Google-Documents-style incremental update ("delta") protocol.
//!
//! Section IV-A of the paper describes the wire format the 2011 Google
//! Documents client used for incremental saves: the document is a
//! one-dimensional string with an imaginary cursor starting at position 0,
//! and a *delta* is a tab-separated sequence of operations:
//!
//! * `=num` — move the cursor forward `num` units (retain),
//! * `+str` — insert `str` at the cursor and advance past it,
//! * `-num` — delete `num` units starting at the cursor.
//!
//! The paper's examples: applying `=2	-5` to `abcdefg` yields `ab`, and
//! `=2	-3	+uv	=2	+w` yields `abuvfgw`.
//!
//! This crate implements the protocol: [`Delta`] values can be
//! [parsed](Delta::parse), [serialized](Delta::serialize),
//! [applied](Delta::apply_utf8) to documents, [composed](Delta::compose),
//! [inverted](Delta::invert), [transformed](Delta::transform),
//! [derived from two document versions](diff_bytes), and
//! [canonicalized](Delta::canonicalize) — the §VI-B countermeasure that
//! squashes covert channels hidden in redundant edit sequences.
//!
//! The unit is the **byte** of UTF-8 text, everywhere: the mediator's
//! wire protocol counts bytes, because encryption blocks hold bytes, and
//! the editor, the collaborative rebase and the ciphertext transform
//! share that one unit. On ASCII text a byte is a character. Text
//! operations ([`Delta::apply_utf8`], [`Delta::invert`],
//! [`Delta::compose`]) refuse a count that ends inside a multi-byte
//! character with [`DeltaError::SplitsChar`]; [`Delta::apply_bytes`]
//! applies to raw bytes that need not be text.
//!
//! Characters that would collide with the framing (`\t` inside inserted
//! text, and `%`, used as the escape introducer) are percent-escaped in the
//! serialized form; see [`Delta::serialize`].
//!
//! # Example
//!
//! ```
//! use pe_delta::Delta;
//!
//! let delta = Delta::parse("=2\t-3\t+uv\t=2\t+w")?;
//! assert_eq!(delta.apply_utf8("abcdefg")?, "abuvfgw");
//! # Ok::<(), pe_delta::DeltaError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod compose;
mod diff;
mod error;
mod invert;
mod ops;
mod transform;

#[cfg(test)]
#[path = "../tests/support/mod.rs"]
mod support;

pub use diff::diff_bytes;
pub use error::DeltaError;
pub use ops::{Delta, DeltaBuilder, DeltaOp};
pub use transform::Side;
