//! Core delta types: operations, parsing, serialization, application.

use std::fmt;
use std::str::FromStr;

use crate::error::DeltaError;

/// One operation of a delta (§IV-A of the paper). Counts are **bytes**
/// of UTF-8 text.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum DeltaOp {
    /// `=num`: move the cursor forward `num` bytes.
    Retain(usize),
    /// `+str`: insert the string at the cursor and advance past it.
    Insert(String),
    /// `-num`: delete `num` bytes starting at the cursor.
    Delete(usize),
}

impl DeltaOp {
    /// Number of bytes of the *input* document this op consumes.
    pub fn input_len(&self) -> usize {
        match self {
            DeltaOp::Retain(n) | DeltaOp::Delete(n) => *n,
            DeltaOp::Insert(_) => 0,
        }
    }

    /// Number of bytes this op contributes to the *output* document.
    pub fn output_len(&self) -> usize {
        match self {
            DeltaOp::Retain(n) => *n,
            DeltaOp::Insert(s) => s.len(),
            DeltaOp::Delete(_) => 0,
        }
    }
}

/// An incremental document update: a sequence of [`DeltaOp`]s applied from
/// the start of the document. Any document content after the last consumed
/// position is implicitly retained.
///
/// Parsing and serialization preserve the exact operation sequence — a
/// redundant sequence such as `+a	-1	+a` is *not* silently simplified,
/// because faithfully representing redundant encodings is what makes the
/// covert-channel experiments of §VI-B possible. Use
/// [`Delta::normalized`] or [`Delta::canonicalize`] for minimal forms.
///
/// # Example
///
/// ```
/// use pe_delta::{Delta, DeltaOp};
///
/// let delta = Delta::from_ops(vec![DeltaOp::Retain(2), DeltaOp::Delete(5)]);
/// assert_eq!(delta.apply_utf8("abcdefg")?, "ab");
/// # Ok::<(), pe_delta::DeltaError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Delta {
    ops: Vec<DeltaOp>,
}

impl Delta {
    /// The identity delta (no operations).
    pub fn new() -> Delta {
        Delta { ops: Vec::new() }
    }

    /// Creates a delta from explicit operations, preserving their order
    /// and any redundancy.
    pub fn from_ops(ops: Vec<DeltaOp>) -> Delta {
        Delta { ops }
    }

    /// Starts a [`DeltaBuilder`].
    pub fn builder() -> DeltaBuilder {
        DeltaBuilder::new()
    }

    /// The operations of this delta.
    pub fn ops(&self) -> &[DeltaOp] {
        &self.ops
    }

    /// True when applying this delta never changes any document.
    ///
    /// Note this is a *syntactic* check: a delta like `-1	+a` applied to
    /// `a…` is semantically identity but not syntactically.
    pub fn is_identity(&self) -> bool {
        self.ops.iter().all(|op| matches!(op, DeltaOp::Retain(_)))
    }

    /// Minimum number of bytes the input document must have.
    pub fn input_len(&self) -> usize {
        self.ops.iter().map(DeltaOp::input_len).sum()
    }

    /// Net change in document length, in bytes, caused by this delta.
    pub fn len_change(&self) -> isize {
        self.ops
            .iter()
            .map(|op| match op {
                DeltaOp::Insert(s) => s.len() as isize,
                DeltaOp::Delete(n) => -(*n as isize),
                DeltaOp::Retain(_) => 0,
            })
            .sum()
    }

    /// Parses the tab-separated wire form.
    ///
    /// # Errors
    ///
    /// Returns [`DeltaError::UnknownOp`] for tokens not starting with
    /// `=`, `+` or `-`; [`DeltaError::InvalidNumber`] for malformed
    /// counts; [`DeltaError::InvalidEscape`] for bad `%` escapes in
    /// inserted text.
    pub fn parse(text: &str) -> Result<Delta, DeltaError> {
        if text.is_empty() {
            return Ok(Delta::new());
        }
        let mut ops = Vec::new();
        for token in text.split('\t') {
            let mut chars = token.chars();
            match chars.next() {
                Some('=') => ops.push(DeltaOp::Retain(parse_count(chars.as_str(), token)?)),
                Some('-') => ops.push(DeltaOp::Delete(parse_count(chars.as_str(), token)?)),
                Some('+') => ops.push(DeltaOp::Insert(unescape(chars.as_str())?)),
                Some(c) => return Err(DeltaError::UnknownOp { op: c }),
                None => return Err(DeltaError::EmptyToken),
            }
        }
        Ok(Delta { ops })
    }

    /// Serializes to the tab-separated wire form.
    ///
    /// Inserted text is escaped so framing survives: `%` becomes `%25` and
    /// the tab character becomes `%09`. [`Delta::parse`] reverses this.
    pub fn serialize(&self) -> String {
        let mut out = String::new();
        for (i, op) in self.ops.iter().enumerate() {
            if i > 0 {
                out.push('\t');
            }
            match op {
                DeltaOp::Retain(n) => {
                    out.push('=');
                    out.push_str(&n.to_string());
                }
                DeltaOp::Delete(n) => {
                    out.push('-');
                    out.push_str(&n.to_string());
                }
                DeltaOp::Insert(s) => {
                    out.push('+');
                    out.push_str(&escape(s));
                }
            }
        }
        out
    }

    /// Applies this delta to a byte buffer, inserting the UTF-8 bytes of
    /// inserted text: the form for raw stored ciphertext, which is not
    /// checked to be text. Content beyond the last consumed position is
    /// implicitly retained.
    ///
    /// # Errors
    ///
    /// Returns [`DeltaError::PastEnd`] when a retain or delete runs past
    /// the end of the document.
    pub fn apply_bytes(&self, document: &[u8]) -> Result<Vec<u8>, DeltaError> {
        let mut out = Vec::with_capacity(document.len());
        let mut cursor = 0usize;
        for op in &self.ops {
            match op {
                DeltaOp::Retain(n) => {
                    let end = op_end(cursor, *n, document.len())?;
                    out.extend_from_slice(&document[cursor..end]);
                    cursor = end;
                }
                DeltaOp::Delete(n) => cursor = op_end(cursor, *n, document.len())?,
                DeltaOp::Insert(s) => out.extend_from_slice(s.as_bytes()),
            }
        }
        out.extend_from_slice(&document[cursor..]);
        Ok(out)
    }

    /// Applies this delta to `document`, returning the updated document.
    /// Like [`Delta::apply_bytes`], but every retain and delete must end
    /// on a character boundary, so the result is text by construction.
    /// The output buffer is sized once and the document is copied slice
    /// by slice; nothing is decoded.
    ///
    /// # Errors
    ///
    /// [`DeltaError::PastEnd`] as for [`Delta::apply_bytes`], and
    /// [`DeltaError::SplitsChar`] when an operation ends inside a
    /// multi-byte character.
    pub fn apply_utf8(&self, document: &str) -> Result<String, DeltaError> {
        let inserted: usize = self
            .ops
            .iter()
            .map(|op| match op {
                DeltaOp::Insert(s) => s.len(),
                _ => 0,
            })
            .sum();
        let mut out = String::with_capacity(document.len() + inserted);
        let mut cursor = 0usize;
        for op in &self.ops {
            match op {
                DeltaOp::Retain(n) => {
                    let end = text_end(document, cursor, *n)?;
                    out.push_str(&document[cursor..end]);
                    cursor = end;
                }
                DeltaOp::Delete(n) => cursor = text_end(document, cursor, *n)?,
                DeltaOp::Insert(s) => out.push_str(s),
            }
        }
        out.push_str(&document[cursor..]);
        Ok(out)
    }

    /// Returns an equivalent delta with adjacent same-kind operations
    /// merged, zero-length operations removed, and trailing retains
    /// dropped.
    pub fn normalized(&self) -> Delta {
        let mut builder = DeltaBuilder::new();
        for op in &self.ops {
            builder.push(Piece::of(op));
        }
        builder.build()
    }

    /// Rewrites this delta into the canonical minimal form with respect to
    /// the document `base` it would be applied to: the result of
    /// [`diff_bytes`](crate::diff_bytes)`(base, self.apply_utf8(base))`,
    /// at most one retain, one delete and one insert.
    ///
    /// The cost is one copy of `base` plus a chunked prefix/suffix
    /// comparison; nothing decodes the document into characters.
    ///
    /// This is the §VI-B countermeasure against covert channels encoded in
    /// redundant operation sequences: any two deltas with the same effect
    /// on `base` canonicalize to the identical delta, destroying the
    /// encoding.
    ///
    /// # Errors
    ///
    /// As for [`Delta::apply_utf8`]: the delta must fit `base` and cut it
    /// only on character boundaries.
    pub fn canonicalize(&self, base: &str) -> Result<Delta, DeltaError> {
        let updated = self.apply_utf8(base)?;
        Ok(crate::diff_bytes(base, &updated))
    }
}

/// End of a retain or delete of `n` bytes starting at `cursor` in a
/// document of `len` bytes.
fn op_end(cursor: usize, n: usize, len: usize) -> Result<usize, DeltaError> {
    cursor
        .checked_add(n)
        .filter(|&end| end <= len)
        .ok_or(DeltaError::PastEnd { position: cursor, requested: n, len })
}

/// As [`op_end`] on `text`, which must also have a character boundary
/// at the end.
pub(crate) fn text_end(text: &str, cursor: usize, n: usize) -> Result<usize, DeltaError> {
    let end = op_end(cursor, n, text.len())?;
    if text.is_char_boundary(end) {
        Ok(end)
    } else {
        Err(DeltaError::SplitsChar { position: end })
    }
}

/// The rest of one operation, borrowed: what an [`OpCursor`] hands out.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Piece<'a> {
    Retain(usize),
    Delete(usize),
    Insert(&'a str),
}

impl<'a> Piece<'a> {
    fn of(op: &'a DeltaOp) -> Piece<'a> {
        match op {
            DeltaOp::Retain(n) => Piece::Retain(*n),
            DeltaOp::Delete(n) => Piece::Delete(*n),
            DeltaOp::Insert(s) => Piece::Insert(s),
        }
    }

    /// Length in bytes: input consumed by a retain or delete, text
    /// carried by an insert.
    pub(crate) fn len(self) -> usize {
        match self {
            Piece::Retain(n) | Piece::Delete(n) => n,
            Piece::Insert(s) => s.len(),
        }
    }
}

/// Reads a delta's operations front to back, splitting the head
/// operation on demand, without copying any of them.
pub(crate) struct OpCursor<'a> {
    ops: &'a [DeltaOp],
    /// Bytes of `ops[0]` already taken.
    taken: usize,
}

impl<'a> OpCursor<'a> {
    pub(crate) fn new(delta: &'a Delta) -> OpCursor<'a> {
        OpCursor { ops: &delta.ops, taken: 0 }
    }

    /// The untaken rest of the head operation.
    pub(crate) fn peek(&self) -> Option<Piece<'a>> {
        self.ops.first().map(|op| match Piece::of(op) {
            Piece::Retain(n) => Piece::Retain(n - self.taken),
            Piece::Delete(n) => Piece::Delete(n - self.taken),
            Piece::Insert(s) => Piece::Insert(&s[self.taken..]),
        })
    }

    /// Takes the rest of the head operation.
    pub(crate) fn next(&mut self) -> Option<Piece<'a>> {
        let piece = self.peek()?;
        self.ops = &self.ops[1..];
        self.taken = 0;
        Some(piece)
    }

    /// Takes the first `n` bytes of the head operation, or all of it
    /// when it is shorter. An insert must have a character boundary at
    /// `n`; callers check.
    pub(crate) fn take(&mut self, n: usize) -> Option<Piece<'a>> {
        let piece = self.peek()?;
        if n >= piece.len() {
            return self.next();
        }
        self.taken += n;
        Some(match piece {
            Piece::Retain(_) => Piece::Retain(n),
            Piece::Delete(_) => Piece::Delete(n),
            Piece::Insert(s) => Piece::Insert(&s[..n]),
        })
    }
}

impl fmt::Display for Delta {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.serialize())
    }
}

impl FromStr for Delta {
    type Err = DeltaError;

    fn from_str(s: &str) -> Result<Delta, DeltaError> {
        Delta::parse(s)
    }
}

fn parse_count(digits: &str, token: &str) -> Result<usize, DeltaError> {
    digits
        .parse::<usize>()
        .map_err(|_| DeltaError::InvalidNumber { token: token.to_string() })
}

fn escape(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for c in text.chars() {
        match c {
            '%' => out.push_str("%25"),
            '\t' => out.push_str("%09"),
            c => out.push(c),
        }
    }
    out
}

fn unescape(text: &str) -> Result<String, DeltaError> {
    let mut out = String::with_capacity(text.len());
    let mut chars = text.chars();
    while let Some(c) = chars.next() {
        if c != '%' {
            out.push(c);
            continue;
        }
        let hi = chars.next();
        let lo = chars.next();
        match (hi, lo) {
            (Some('2'), Some('5')) => out.push('%'),
            (Some('0'), Some('9')) => out.push('\t'),
            _ => {
                return Err(DeltaError::InvalidEscape {
                    sequence: format!("%{}{}", hi.unwrap_or(' '), lo.unwrap_or(' ')),
                })
            }
        }
    }
    Ok(out)
}

/// Incremental constructor for [`Delta`] values that merges adjacent
/// operations as they are added (producing normalized deltas). Counts
/// are bytes, as everywhere in this crate.
///
/// # Example
///
/// ```
/// use pe_delta::Delta;
///
/// let mut builder = Delta::builder();
/// builder.retain(2).retain(3).insert("ab").insert("cd");
/// let delta = builder.build();
/// assert_eq!(delta.serialize(), "=5\t+abcd");
/// ```
#[derive(Debug, Default)]
pub struct DeltaBuilder {
    ops: Vec<DeltaOp>,
}

impl DeltaBuilder {
    /// Creates an empty builder.
    pub fn new() -> DeltaBuilder {
        DeltaBuilder { ops: Vec::new() }
    }

    /// Appends a retain of `n` bytes (no-op when `n == 0`).
    pub fn retain(&mut self, n: usize) -> &mut DeltaBuilder {
        if n == 0 {
            return self;
        }
        if let Some(DeltaOp::Retain(prev)) = self.ops.last_mut() {
            *prev += n;
        } else {
            self.ops.push(DeltaOp::Retain(n));
        }
        self
    }

    /// Appends an insertion (no-op when `text` is empty).
    pub fn insert(&mut self, text: &str) -> &mut DeltaBuilder {
        if text.is_empty() {
            return self;
        }
        if let Some(DeltaOp::Insert(prev)) = self.ops.last_mut() {
            prev.push_str(text);
        } else {
            self.ops.push(DeltaOp::Insert(text.to_string()));
        }
        self
    }

    /// Appends a deletion of `n` bytes (no-op when `n == 0`).
    pub fn delete(&mut self, n: usize) -> &mut DeltaBuilder {
        if n == 0 {
            return self;
        }
        if let Some(DeltaOp::Delete(prev)) = self.ops.last_mut() {
            *prev += n;
        } else {
            self.ops.push(DeltaOp::Delete(n));
        }
        self
    }

    /// Appends a piece of an operation, merging like [`DeltaBuilder::retain`],
    /// [`DeltaBuilder::delete`] and [`DeltaBuilder::insert`].
    pub(crate) fn push(&mut self, piece: Piece<'_>) -> &mut DeltaBuilder {
        match piece {
            Piece::Retain(n) => self.retain(n),
            Piece::Delete(n) => self.delete(n),
            Piece::Insert(s) => self.insert(s),
        }
    }

    /// Finishes the delta, dropping any trailing retain (the protocol
    /// implicitly retains the rest of the document).
    pub fn build(&self) -> Delta {
        let mut ops = self.ops.clone();
        if let Some(DeltaOp::Retain(_)) = ops.last() {
            ops.pop();
        }
        Delta { ops }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_example_one() {
        let delta = Delta::parse("=2\t-5").unwrap();
        assert_eq!(delta.apply_utf8("abcdefg").unwrap(), "ab");
    }

    #[test]
    fn paper_example_two() {
        let delta = Delta::parse("=2\t-3\t+uv\t=2\t+w").unwrap();
        assert_eq!(delta.apply_utf8("abcdefg").unwrap(), "abuvfgw");
    }

    #[test]
    fn empty_delta_is_identity() {
        let delta = Delta::parse("").unwrap();
        assert!(delta.is_identity());
        assert_eq!(delta.apply_utf8("hello").unwrap(), "hello");
        assert_eq!(delta.serialize(), "");
    }

    #[test]
    fn implicit_trailing_retain() {
        let delta = Delta::parse("+X").unwrap();
        assert_eq!(delta.apply_utf8("abc").unwrap(), "Xabc");
        let delta = Delta::parse("=1\t-1").unwrap();
        assert_eq!(delta.apply_utf8("abc").unwrap(), "ac");
    }

    #[test]
    fn roundtrip_serialization() {
        let cases = ["=2\t-5", "=2\t-3\t+uv\t=2\t+w", "+hello world", "-10", "=0", ""];
        for case in cases {
            let delta = Delta::parse(case).unwrap();
            assert_eq!(delta.serialize(), *case);
        }
    }

    #[test]
    fn escaping_tab_and_percent_in_inserts() {
        let mut builder = Delta::builder();
        builder.insert("a\tb%c");
        let delta = builder.build();
        let wire = delta.serialize();
        assert_eq!(wire, "+a%09b%25c");
        assert_eq!(Delta::parse(&wire).unwrap(), delta);
        assert_eq!(delta.apply_utf8("").unwrap(), "a\tb%c");
    }

    #[test]
    fn bad_escape_rejected() {
        assert!(matches!(Delta::parse("+a%zz"), Err(DeltaError::InvalidEscape { .. })));
        assert!(matches!(Delta::parse("+a%2"), Err(DeltaError::InvalidEscape { .. })));
    }

    #[test]
    fn unknown_op_rejected() {
        assert!(matches!(Delta::parse("*5"), Err(DeltaError::UnknownOp { op: '*' })));
    }

    #[test]
    fn empty_token_rejected() {
        assert!(matches!(Delta::parse("=1\t\t=2"), Err(DeltaError::EmptyToken)));
    }

    #[test]
    fn invalid_number_rejected() {
        assert!(matches!(Delta::parse("=abc"), Err(DeltaError::InvalidNumber { .. })));
        assert!(matches!(Delta::parse("-"), Err(DeltaError::InvalidNumber { .. })));
    }

    #[test]
    fn retain_past_end_fails() {
        let delta = Delta::parse("=10").unwrap();
        assert!(matches!(delta.apply_utf8("abc"), Err(DeltaError::PastEnd { .. })));
    }

    #[test]
    fn delete_past_end_fails() {
        let delta = Delta::parse("=2\t-5").unwrap();
        assert!(matches!(delta.apply_utf8("abc"), Err(DeltaError::PastEnd { .. })));
    }

    #[test]
    fn unicode_documents() {
        let delta = Delta::parse("=6\t+héllo\t-3").unwrap();
        assert_eq!(delta.apply_utf8("日本語です").unwrap(), "日本hélloです");
        let cut = Delta::parse("=2\t+x").unwrap();
        assert_eq!(cut.apply_utf8("日本語です"), Err(DeltaError::SplitsChar { position: 2 }));
    }

    #[test]
    fn input_len_and_len_change() {
        let delta = Delta::parse("=2\t-3\t+uv\t=2\t+w").unwrap();
        assert_eq!(delta.input_len(), 7);
        assert_eq!(delta.len_change(), 0);
        let delta = Delta::parse("-5\t+ab").unwrap();
        assert_eq!(delta.len_change(), -3);
        let delta = Delta::parse("=2\t+é").unwrap();
        assert_eq!(delta.len_change(), 2);
        assert_eq!(delta.ops()[1].output_len(), 2);
    }

    #[test]
    fn parse_preserves_redundant_sequences() {
        // The Ord(q) covert channel from §VI-B must survive parse/serialize.
        let wire = "+q\t-1\t+q\t-1\t+q";
        let delta = Delta::parse(wire).unwrap();
        assert_eq!(delta.ops().len(), 5);
        assert_eq!(delta.serialize(), wire);
    }

    #[test]
    fn normalized_merges_and_trims() {
        let delta = Delta::parse("=1\t=2\t+ab\t+cd\t-1\t-2\t=9").unwrap();
        let norm = delta.normalized();
        assert_eq!(norm.serialize(), "=3\t+abcd\t-3");
    }

    #[test]
    fn canonicalize_squashes_covert_encoding() {
        // A malicious encoding of "insert q at 0" using Ord(q)=17 redundant
        // steps must canonicalize to the same delta as the honest client's.
        let base = "hello";
        // Sneaky: 17 separate one-character inserts (the count encodes q).
        let sneaky = Delta::from_ops(vec![DeltaOp::Insert("x".into()); 17]);
        // Honest: one 17-character insert.
        let mut honest = Delta::builder();
        honest.insert(&"x".repeat(17));
        let honest = honest.build();
        assert_ne!(sneaky, honest, "encodings differ on the wire");
        assert_eq!(
            sneaky.canonicalize(base).unwrap(),
            honest.canonicalize(base).unwrap()
        );
    }

    #[test]
    fn builder_chains_and_merges() {
        let mut builder = Delta::builder();
        builder.retain(1).retain(0).insert("").insert("ab").delete(2).delete(3).retain(4);
        let delta = builder.build();
        assert_eq!(delta.serialize(), "=1\t+ab\t-5");
    }

    #[test]
    fn display_and_fromstr() {
        let delta: Delta = "=2\t+hi".parse().unwrap();
        assert_eq!(delta.to_string(), "=2\t+hi");
    }
}
