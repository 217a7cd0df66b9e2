//! Point-in-time snapshot files.
//!
//! A snapshot `snap-<seq>.snap` captures the entire index as of the end
//! of WAL segment `seq`. On-disk layout:
//!
//! ```text
//! magic "PESNAP1\n" (8 bytes)
//! body:
//!   covered_seq: u64
//!   meta count: u32, then (key: u16-len str, value: u64)*
//!   doc count:  u32, then per doc:
//!     id: u16-len str, version: u64,
//!     content: u32-len bytes,
//!     revision count: u32, then (u32-len bytes)*
//! crc32(body): u32
//! ```
//!
//! Snapshots are written to a `.tmp` file, fsynced, then atomically
//! renamed into place (and the directory fsynced), so a crash at any
//! point leaves either no snapshot or a complete one — never a partial
//! file with a valid name.

use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use crate::crc32::crc32;
use crate::wal::sync_dir;
use crate::{DocState, StoreError};

const MAGIC: &[u8; 8] = b"PESNAP1\n";

/// Path of the snapshot covering segment `seq`.
pub fn snapshot_path(dir: &Path, seq: u64) -> PathBuf {
    dir.join(format!("snap-{seq:010}.snap"))
}

/// Parses a snapshot file name back into its covered sequence number.
pub fn parse_snapshot_name(name: &str) -> Option<u64> {
    name.strip_prefix("snap-")?.strip_suffix(".snap")?.parse().ok()
}

/// Serializes and writes the snapshot to its temporary file (fsynced).
/// Returns the temp path and the byte size.
///
/// # Errors
///
/// [`StoreError::Io`] on write failure.
pub fn write_snapshot_tmp(
    dir: &Path,
    seq: u64,
    docs: &[(String, DocState)],
    meta: &[(String, u64)],
) -> Result<(PathBuf, u64), StoreError> {
    let mut body = Vec::new();
    body.extend_from_slice(&seq.to_le_bytes());
    body.extend_from_slice(&(meta.len() as u32).to_le_bytes());
    for (key, value) in meta {
        put_str16(&mut body, key);
        body.extend_from_slice(&value.to_le_bytes());
    }
    body.extend_from_slice(&(docs.len() as u32).to_le_bytes());
    for (id, state) in docs {
        put_str16(&mut body, id);
        body.extend_from_slice(&state.version.to_le_bytes());
        put_bytes32(&mut body, &state.content);
        body.extend_from_slice(&(state.revisions.len() as u32).to_le_bytes());
        for revision in &state.revisions {
            put_bytes32(&mut body, revision);
        }
    }
    let tmp = dir.join(format!("snap-{seq:010}.tmp"));
    let mut file = std::fs::File::create(&tmp)?;
    file.write_all(MAGIC)?;
    file.write_all(&body)?;
    file.write_all(&crc32(&body).to_le_bytes())?;
    file.sync_all()?;
    let bytes = (MAGIC.len() + body.len() + 4) as u64;
    Ok((tmp, bytes))
}

/// Atomically publishes a temp snapshot under its final name.
///
/// # Errors
///
/// [`StoreError::Io`] on rename/fsync failure.
pub fn publish_snapshot(dir: &Path, tmp: &Path, seq: u64) -> Result<PathBuf, StoreError> {
    let final_path = snapshot_path(dir, seq);
    std::fs::rename(tmp, &final_path)?;
    sync_dir(dir)?;
    Ok(final_path)
}

/// A parsed snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotContents {
    /// Highest WAL segment the snapshot covers.
    pub covered_seq: u64,
    /// All documents, sorted by id.
    pub docs: Vec<(String, DocState)>,
    /// All metadata counters.
    pub meta: Vec<(String, u64)>,
}

/// Reads and validates a snapshot file.
///
/// # Errors
///
/// [`StoreError::Io`] on read failure, [`StoreError::Corrupt`] on bad
/// magic, bad CRC, or structural violations.
pub fn read_snapshot(path: &Path) -> Result<SnapshotContents, StoreError> {
    let bytes = std::fs::read(path)?;
    if bytes.len() < MAGIC.len() + 4 || &bytes[..MAGIC.len()] != MAGIC {
        return Err(StoreError::Corrupt(format!("{}: bad snapshot magic", path.display())));
    }
    let body = &bytes[MAGIC.len()..bytes.len() - 4];
    let stored_crc =
        u32::from_le_bytes(bytes[bytes.len() - 4..].try_into().expect("4 bytes"));
    if crc32(body) != stored_crc {
        return Err(StoreError::Corrupt(format!("{}: snapshot CRC mismatch", path.display())));
    }
    let mut r = Reader { bytes: body, pos: 0 };
    let covered_seq = r.u64()?;
    let meta_count = r.u32()? as usize;
    let mut meta = Vec::with_capacity(meta_count.min(1024));
    for _ in 0..meta_count {
        let key = r.str16()?;
        let value = r.u64()?;
        meta.push((key, value));
    }
    let doc_count = r.u32()? as usize;
    let mut docs = Vec::with_capacity(doc_count.min(1024));
    for _ in 0..doc_count {
        let id = r.str16()?;
        let version = r.u64()?;
        let content = r.bytes32()?;
        let revision_count = r.u32()? as usize;
        let mut revisions = Vec::with_capacity(revision_count.min(1024));
        for _ in 0..revision_count {
            revisions.push(Arc::new(r.bytes32()?));
        }
        docs.push((id, DocState { content, version, revisions }));
    }
    if r.pos != body.len() {
        return Err(StoreError::Corrupt(format!(
            "{}: {} trailing snapshot bytes",
            path.display(),
            body.len() - r.pos
        )));
    }
    Ok(SnapshotContents { covered_seq, docs, meta })
}

fn put_str16(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u16).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

fn put_bytes32(out: &mut Vec<u8>, bytes: &[u8]) {
    out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
    out.extend_from_slice(bytes);
}

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Reader<'_> {
    fn take(&mut self, n: usize) -> Result<&[u8], StoreError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&end| end <= self.bytes.len())
            .ok_or_else(|| StoreError::Corrupt("snapshot body truncated".into()))?;
        let slice = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u32(&mut self) -> Result<u32, StoreError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    fn u64(&mut self) -> Result<u64, StoreError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    fn str16(&mut self) -> Result<String, StoreError> {
        let len = u16::from_le_bytes(self.take(2)?.try_into().expect("2 bytes")) as usize;
        String::from_utf8(self.take(len)?.to_vec())
            .map_err(|_| StoreError::Corrupt("snapshot id is not UTF-8".into()))
    }

    fn bytes32(&mut self) -> Result<Vec<u8>, StoreError> {
        let len = self.u32()? as usize;
        Ok(self.take(len)?.to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct TempDir(PathBuf);

    impl TempDir {
        fn new(tag: &str) -> TempDir {
            let path = std::env::temp_dir().join(format!(
                "pe-snap-{tag}-{}-{:?}",
                std::process::id(),
                std::thread::current().id()
            ));
            let _ = std::fs::remove_dir_all(&path);
            std::fs::create_dir_all(&path).unwrap();
            TempDir(path)
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    type SampleState = (Vec<(String, DocState)>, Vec<(String, u64)>);

    fn sample() -> SampleState {
        let docs = vec![
            (
                "doc1".to_string(),
                DocState {
                    content: b"cipher".to_vec(),
                    version: 3,
                    revisions: vec![Arc::new(Vec::new()), Arc::new(b"old".to_vec())],
                },
            ),
            ("doc2".to_string(), DocState::default()),
        ];
        let meta = vec![("next_doc".to_string(), 2), ("next_session".to_string(), 5)];
        (docs, meta)
    }

    #[test]
    fn write_publish_read_round_trips() {
        let dir = TempDir::new("roundtrip");
        let (docs, meta) = sample();
        let (tmp, bytes) = write_snapshot_tmp(&dir.0, 4, &docs, &meta).unwrap();
        assert!(tmp.exists());
        assert!(bytes > 0);
        let path = publish_snapshot(&dir.0, &tmp, 4).unwrap();
        assert!(!tmp.exists());
        let contents = read_snapshot(&path).unwrap();
        assert_eq!(contents.covered_seq, 4);
        assert_eq!(contents.docs, docs);
        assert_eq!(contents.meta, meta);
    }

    #[test]
    fn bit_flips_fail_the_crc() {
        let dir = TempDir::new("flip");
        let (docs, meta) = sample();
        let (tmp, _) = write_snapshot_tmp(&dir.0, 1, &docs, &meta).unwrap();
        let path = publish_snapshot(&dir.0, &tmp, 1).unwrap();
        let clean = std::fs::read(&path).unwrap();
        for pos in [0usize, MAGIC.len() + 3, clean.len() / 2, clean.len() - 1] {
            let mut bad = clean.clone();
            bad[pos] ^= 1;
            std::fs::write(&path, &bad).unwrap();
            assert!(read_snapshot(&path).is_err(), "flip at {pos} accepted");
        }
    }

    #[test]
    fn name_parsing_round_trips() {
        let path = snapshot_path(Path::new("/d"), 12);
        let name = path.file_name().unwrap().to_str().unwrap();
        assert_eq!(parse_snapshot_name(name), Some(12));
        assert_eq!(parse_snapshot_name("wal-0000000001.log"), None);
    }
}
