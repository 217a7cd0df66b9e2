//! Deterministic benchmark workload generators.
//!
//! Two workload families from §VII:
//!
//! * **Micro** (§VII-B): "Each test case is a pair of strings (D, D′).
//!   The strings D and D′ are chosen randomly with length uniformly
//!   distributed between 100 and 10000." The delta transforming D into D′
//!   is derived with [`pe_delta::diff_bytes`].
//! * **Macro** (§VII-C): "a whole document save followed by either
//!   replacing an existing sentence with a different one or inserting or
//!   deleting an arbitrary sentence or group of sentences", on small
//!   (≈500 chars) and large (≈10000 chars) files.
//!
//! All generators are seeded and fully deterministic.

use pe_crypto::drbg::{CtrDrbg, NonceSource};

use crate::editor::Editor;

/// Words used to build readable synthetic prose (they are in the
/// simulated server's spell-check dictionary, so plaintext documents
/// spell-check cleanly).
const WORDS: &[&str] = &[
    "the", "quick", "brown", "fox", "jumps", "over", "lazy", "dog", "private", "editing",
    "cloud", "service", "document", "secret", "paper", "word", "world", "time", "people",
    "year", "think", "know", "take", "see", "come", "look", "want", "give", "use", "find",
];

/// A deterministic workload source.
#[derive(Debug)]
pub struct WorkloadGen {
    rng: CtrDrbg,
}

impl WorkloadGen {
    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> WorkloadGen {
        WorkloadGen { rng: CtrDrbg::from_seed(seed) }
    }

    /// Direct access to the underlying randomness.
    pub fn rng(&mut self) -> &mut CtrDrbg {
        &mut self.rng
    }

    /// A uniformly random length in `min..=max`.
    pub fn length(&mut self, min: usize, max: usize) -> usize {
        min + self.rng.next_below((max - min + 1) as u64) as usize
    }

    /// A random printable-ASCII string of exactly `len` bytes (the
    /// "chosen randomly" strings of §VII-B).
    pub fn random_string(&mut self, len: usize) -> String {
        (0..len).map(|_| (32 + self.rng.next_below(95) as u8) as char).collect()
    }

    /// One §VII-B micro test case: a pair of random strings with lengths
    /// uniform in `100..=10000`.
    pub fn micro_pair(&mut self) -> (String, String) {
        let len_a = self.length(100, 10_000);
        let len_b = self.length(100, 10_000);
        (self.random_string(len_a), self.random_string(len_b))
    }

    /// A random sentence of readable words, ending in `. `.
    pub fn sentence(&mut self) -> String {
        let words = 4 + self.rng.next_below(9) as usize;
        let mut out = String::new();
        for i in 0..words {
            if i > 0 {
                out.push(' ');
            }
            out.push_str(WORDS[self.rng.next_below(WORDS.len() as u64) as usize]);
        }
        out.push_str(". ");
        out
    }

    /// A document of sentences with length close to `target` bytes (the
    /// §VII-C "small ≈500" / "large ≈10000" files).
    pub fn document(&mut self, target: usize) -> String {
        let mut out = String::new();
        while out.len() < target {
            out.push_str(&self.sentence());
        }
        out.truncate(target);
        out
    }

    /// Byte range of a randomly chosen "sentence" (a period-delimited
    /// span) of `content`; falls back to an arbitrary span when no period
    /// exists.
    pub fn sentence_range(&mut self, content: &str) -> (usize, usize) {
        let bounds: Vec<usize> = content
            .char_indices()
            .filter(|(_, c)| *c == '.')
            .map(|(i, _)| i + 1)
            .collect();
        if bounds.len() < 2 {
            let len = content.len().clamp(1, 40);
            return (0, len);
        }
        let pick = self.rng.next_below((bounds.len() - 1) as u64) as usize;
        (bounds[pick], bounds[pick + 1])
    }
}

/// One §VII-C macro-benchmark operation kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MacroOp {
    /// Replace an existing sentence with a different one.
    ReplaceSentence,
    /// Insert a new sentence at a random sentence boundary.
    InsertSentence,
    /// Delete a random sentence.
    DeleteSentence,
}

impl MacroOp {
    /// The operation mixes used in the Figure-5/Figure-8 rows.
    pub fn mix(name: &str) -> Vec<MacroOp> {
        match name {
            "inserts only" => vec![MacroOp::InsertSentence],
            "deletes only" => vec![MacroOp::DeleteSentence],
            "inserts & deletes" => vec![MacroOp::InsertSentence, MacroOp::DeleteSentence],
            _ => vec![MacroOp::ReplaceSentence, MacroOp::InsertSentence, MacroOp::DeleteSentence],
        }
    }

    /// Performs this operation on an editor using `workload` randomness.
    pub fn perform(self, editor: &mut Editor, workload: &mut WorkloadGen) {
        match self {
            MacroOp::ReplaceSentence => {
                let (start, end) = workload.sentence_range(editor.content());
                let replacement = workload.sentence();
                editor.replace(start, end - start, &replacement);
            }
            MacroOp::InsertSentence => {
                let (start, _) = workload.sentence_range(editor.content());
                let sentence = workload.sentence();
                editor.insert(start, &sentence);
            }
            MacroOp::DeleteSentence => {
                let (start, end) = workload.sentence_range(editor.content());
                if end > start {
                    editor.delete(start, end - start);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_are_deterministic() {
        let mut a = WorkloadGen::new(7);
        let mut b = WorkloadGen::new(7);
        assert_eq!(a.micro_pair(), b.micro_pair());
        assert_eq!(a.document(500), b.document(500));
        assert_eq!(a.sentence(), b.sentence());
    }

    #[test]
    fn micro_pair_lengths_in_paper_range() {
        let mut workload = WorkloadGen::new(1);
        for _ in 0..20 {
            let (d, d2) = workload.micro_pair();
            assert!((100..=10_000).contains(&d.len()));
            assert!((100..=10_000).contains(&d2.len()));
        }
    }

    #[test]
    fn documents_hit_target_sizes() {
        let mut workload = WorkloadGen::new(2);
        assert_eq!(workload.document(500).len(), 500);
        assert_eq!(workload.document(10_000).len(), 10_000);
    }

    #[test]
    fn macro_ops_keep_editor_consistent() {
        let mut workload = WorkloadGen::new(3);
        let doc = workload.document(800);
        let mut editor = Editor::new(&doc);
        for _ in 0..50 {
            for op in [MacroOp::ReplaceSentence, MacroOp::InsertSentence, MacroOp::DeleteSentence]
            {
                op.perform(&mut editor, &mut workload);
                let delta = editor.take_pending();
                // The delta must describe exactly the performed edit.
                assert!(delta.is_identity() || delta.input_len() <= 12_000);
            }
        }
        assert!(!editor.content().is_empty() || editor.is_empty());
    }

    #[test]
    fn sentence_ranges_are_valid() {
        let mut workload = WorkloadGen::new(4);
        let doc = workload.document(1000);
        for _ in 0..50 {
            let (start, end) = workload.sentence_range(&doc);
            assert!(start < end && end <= doc.len());
        }
    }

    #[test]
    fn op_mixes() {
        assert_eq!(MacroOp::mix("inserts only"), vec![MacroOp::InsertSentence]);
        assert_eq!(MacroOp::mix("deletes only"), vec![MacroOp::DeleteSentence]);
        assert_eq!(MacroOp::mix("inserts & deletes").len(), 2);
        assert_eq!(MacroOp::mix("anything").len(), 3);
    }
}

/// A keystroke-level editing session: models "typical use" (the
/// abstract's claim is "less than 10% overhead for typical use") as a
/// stream of single-character insertions at a moving cursor with
/// occasional backspaces and cursor jumps, batched into autosaves.
#[derive(Debug)]
pub struct TypingSession {
    workload: WorkloadGen,
    cursor: usize,
}

impl TypingSession {
    /// Creates a typing session with its own randomness.
    pub fn new(seed: u64) -> TypingSession {
        TypingSession { workload: WorkloadGen::new(seed), cursor: 0 }
    }

    /// Performs `keystrokes` keystrokes against the editor: ~85 %
    /// character insertions, ~10 % backspaces, ~5 % cursor jumps.
    pub fn type_burst(&mut self, editor: &mut Editor, keystrokes: usize) {
        for _ in 0..keystrokes {
            self.cursor = self.cursor.min(editor.len());
            let roll = self.workload.rng().next_below(100);
            if roll < 85 || editor.is_empty() {
                let c = b'a' + self.workload.rng().next_below(26) as u8;
                let mut text = String::new();
                text.push(c as char);
                // Spaces keep the text word-like.
                if self.workload.rng().next_below(6) == 0 {
                    text.push(' ');
                }
                editor.insert(self.cursor, &text);
                self.cursor += text.len();
            } else if roll < 95 && self.cursor > 0 {
                editor.delete(self.cursor - 1, 1);
                self.cursor -= 1;
            } else {
                self.cursor = self.workload.rng().next_below(editor.len() as u64 + 1) as usize;
            }
        }
    }
}

#[cfg(test)]
mod typing_tests {
    use super::*;

    #[test]
    fn typing_produces_valid_edits_and_deltas() {
        let mut session = TypingSession::new(11);
        let mut editor = Editor::new("");
        for burst in 0..20 {
            session.type_burst(&mut editor, 25);
            let delta = editor.take_pending();
            assert!(!delta.is_identity() || editor.is_empty(), "burst {burst}");
        }
        assert!(editor.len() > 100, "typing mostly inserts: {}", editor.len());
    }

    #[test]
    fn typing_is_deterministic() {
        let run = |seed| {
            let mut session = TypingSession::new(seed);
            let mut editor = Editor::new("start");
            session.type_burst(&mut editor, 200);
            editor.content().to_string()
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5), run(6));
    }
}
