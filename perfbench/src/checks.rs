//! Correctness checks every run makes on its own outputs.

use std::collections::HashSet;
use std::path::Path;

use crate::stack::Stack;
use crate::workloads::{Log, OwnedDoc, SharedEnd};

/// A fresh mediator with freshly derived keys decrypts every document to
/// the benchmark's own model; in `collab`, both editors and that reader
/// agree byte for byte.
pub fn fresh_reader(
    stack: &Stack,
    seed: u64,
    docs: &[OwnedDoc],
    shared: Option<&SharedEnd>,
    log: &mut Log,
) {
    let mut reader = stack.reader(seed ^ 0xFEED_F00D);
    for doc in docs {
        reader.register_password(&doc.id, &doc.password);
        match reader.open_document(&doc.id) {
            Ok(text) if text == doc.editor.content() => {}
            Ok(text) => log.problems.push(format!(
                "{}: fresh reader got {} bytes, model holds {}",
                doc.id,
                text.len(),
                doc.editor.content().len()
            )),
            Err(e) => log
                .problems
                .push(format!("{}: fresh reader failed: {e}", doc.id)),
        }
    }
    if let Some(end) = shared {
        reader.register_password(&end.doc, &end.password);
        match reader.open_document(&end.doc) {
            Ok(text) => {
                for (e, content) in end.contents.iter().enumerate() {
                    if *content != text {
                        log.problems.push(format!(
                            "collab editor {e} holds {} bytes, the server copy decrypts to {}",
                            content.len(),
                            text.len()
                        ));
                    }
                }
            }
            Err(e) => log
                .problems
                .push(format!("{}: fresh reader failed: {e}", end.doc)),
        }
    }
}

/// Maximal runs of lowercase letters and spaces: the shape generated
/// prose has and Base32 ciphertext (upper case and digits) cannot have.
fn prose_runs(bytes: &[u8]) -> impl Iterator<Item = &str> {
    bytes
        .split(|b| !(b.is_ascii_lowercase() || *b == b' '))
        .filter(|run| run.len() >= 12)
        .filter_map(|run| std::str::from_utf8(run).ok())
}

/// No generated sentence appears in the store's raw bytes: the server
/// holds only ciphertext.
pub fn ciphertext_only(dir: &Path, generated: &[String], log: &mut Log) {
    let sentences: HashSet<&str> = generated
        .iter()
        .flat_map(|text| text.split('.'))
        .map(str::trim)
        .filter(|s| s.len() >= 12)
        .collect();
    let mut files = vec![dir.to_path_buf()];
    let mut scanned = 0usize;
    while let Some(path) = files.pop() {
        if path.is_dir() {
            match std::fs::read_dir(&path) {
                Ok(entries) => files.extend(entries.filter_map(|e| e.ok()).map(|e| e.path())),
                Err(e) => log.problems.push(format!("read {}: {e}", path.display())),
            }
            continue;
        }
        let bytes = match std::fs::read(&path) {
            Ok(bytes) => bytes,
            Err(e) => {
                log.problems.push(format!("read {}: {e}", path.display()));
                continue;
            }
        };
        scanned += bytes.len();
        for run in prose_runs(&bytes) {
            if let Some(leak) = sentences.iter().find(|s| run.contains(**s)) {
                log.problems
                    .push(format!("plaintext in {}: {leak:?}", path.display()));
                return;
            }
        }
    }
    if scanned == 0 {
        log.problems
            .push(format!("store directory {} is empty", dir.display()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prose_runs_skip_base32() {
        let raw = b"PE1;ABCDEFGHIJ234567\x00the quick brown fox\x01dog";
        let runs: Vec<&str> = prose_runs(raw).collect();
        assert_eq!(runs, vec!["the quick brown fox"]);
    }
}
