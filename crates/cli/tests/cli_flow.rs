//! End-to-end CLI tests: every command, driven in-process against a real
//! temp-directory store.

use std::path::Path;

use pe_cli::{parse_args, run, CliError};
use pe_store::{DocStore, ShardedLogStore, StoreConfig};

struct TempStore(std::path::PathBuf);

impl TempStore {
    fn new(tag: &str) -> TempStore {
        let mut path = std::env::temp_dir();
        path.push(format!("pedit-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_dir_all(&path);
        TempStore(path)
    }

    fn path(&self) -> &str {
        self.0.to_str().unwrap()
    }
}

impl Drop for TempStore {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The raw bytes of every file under `dir`, concatenated.
fn store_bytes(dir: &Path) -> Vec<u8> {
    let mut bytes = Vec::new();
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() {
            bytes.extend(store_bytes(&path));
        } else {
            bytes.extend(std::fs::read(&path).unwrap());
        }
    }
    bytes
}

fn pedit(store: &TempStore, args: &[&str]) -> Result<String, CliError> {
    let mut full = vec!["--store".to_string(), store.path().to_string()];
    full.extend(args.iter().map(|s| s.to_string()));
    run(&parse_args(&full)?)
}

#[test]
fn full_lifecycle_via_cli() {
    let store = TempStore::new("lifecycle");
    // Create.
    let created = pedit(&store, &["create", "--password", "pw"]).unwrap();
    assert!(created.starts_with("created doc"));
    let doc = created.strip_prefix("created ").unwrap().to_string();
    // Save and show.
    pedit(&store, &["save", "--doc", &doc, "--password", "pw", "--text", "hello world"])
        .unwrap();
    let shown = pedit(&store, &["show", "--doc", &doc, "--password", "pw"]).unwrap();
    assert_eq!(shown, "hello world");
    // Incremental edits.
    pedit(&store, &["insert", "--doc", &doc, "--password", "pw", "--at", "5", "--text", ","])
        .unwrap();
    pedit(&store, &["delete", "--doc", &doc, "--password", "pw", "--at", "0", "--len", "6"])
        .unwrap();
    let shown = pedit(&store, &["show", "--doc", &doc, "--password", "pw"]).unwrap();
    assert_eq!(shown, " world");
    // List.
    let listed = pedit(&store, &["list"]).unwrap();
    assert!(listed.contains(&doc));
    // The provider's view is ciphertext.
    let raw = pedit(&store, &["raw", "--doc", &doc]).unwrap();
    assert!(raw.starts_with("PE1;"));
    assert!(!raw.contains("world"));
    // And no file in the store directory contains plaintext.
    assert!(store.0.join("pe-shards").is_file(), "the store is a sharded directory");
    let on_disk = store_bytes(&store.0);
    assert!(!on_disk.is_empty());
    assert!(
        !on_disk.windows(b"world".len()).any(|w| w == b"world"),
        "plaintext leaked to the store"
    );
}

#[test]
fn edit_ops_count_bytes_like_the_stored_document() {
    let store = TempStore::new("edit-bytes");
    let created = pedit(&store, &["create", "--password", "pw"]).unwrap();
    let doc = created.strip_prefix("created ").unwrap().to_string();
    pedit(&store, &["save", "--doc", &doc, "--password", "pw", "--text", "café au lait"])
        .unwrap();
    // Byte 6 is just after "café " (é is two bytes).
    let edited =
        pedit(&store, &["edit", "--doc", &doc, "--password", "pw", "--ops", "i:6:X,d:0:3"])
            .unwrap();
    assert_eq!(edited, "applied 2 op(s)\né Xau lait");
    let shown = pedit(&store, &["show", "--doc", &doc, "--password", "pw"]).unwrap();
    assert_eq!(shown, "é Xau lait");
    // An offset inside "é" is refused before anything is saved.
    let err = pedit(&store, &["edit", "--doc", &doc, "--password", "pw", "--ops", "i:1:Y"])
        .unwrap_err();
    assert!(matches!(err, CliError::Usage(_)), "{err:?}");
    let shown = pedit(&store, &["show", "--doc", &doc, "--password", "pw"]).unwrap();
    assert_eq!(shown, "é Xau lait");
}

#[test]
fn wrong_password_is_rejected() {
    let store = TempStore::new("wrongpw");
    let created = pedit(&store, &["create", "--password", "right"]).unwrap();
    let doc = created.strip_prefix("created ").unwrap().to_string();
    pedit(&store, &["save", "--doc", &doc, "--password", "right", "--text", "secret"]).unwrap();
    let err = pedit(&store, &["show", "--doc", &doc, "--password", "wrong"]).unwrap_err();
    assert!(matches!(err, CliError::Extension(_)), "{err}");
}

#[test]
fn history_and_rotate() {
    let store = TempStore::new("history");
    let created = pedit(&store, &["create", "--password", "pw"]).unwrap();
    let doc = created.strip_prefix("created ").unwrap().to_string();
    pedit(&store, &["save", "--doc", &doc, "--password", "pw", "--text", "v1"]).unwrap();
    pedit(&store, &["save", "--doc", &doc, "--password", "pw", "--text", "v2"]).unwrap();
    let history = pedit(&store, &["history", "--doc", &doc, "--password", "pw"]).unwrap();
    assert!(history.contains("revision(s)"));
    assert!(history.contains("v1"), "decrypted history must show v1: {history}");
    // Rotate, then the old password fails and the new one works.
    pedit(&store, &["rotate", "--doc", &doc, "--old", "pw", "--new", "pw2"]).unwrap();
    assert!(pedit(&store, &["show", "--doc", &doc, "--password", "pw"]).is_err());
    assert_eq!(pedit(&store, &["show", "--doc", &doc, "--password", "pw2"]).unwrap(), "v2");
}

#[test]
fn rpc_mode_documents() {
    let store = TempStore::new("rpc");
    let created = pedit(&store, &["--rpc", "create", "--password", "pw"]).unwrap();
    let doc = created.strip_prefix("created ").unwrap().to_string();
    pedit(&store, &["--rpc", "save", "--doc", &doc, "--password", "pw", "--text", "guarded"])
        .unwrap();
    let raw = pedit(&store, &["raw", "--doc", &doc]).unwrap();
    assert!(raw.starts_with("PE1;P;"), "RPC preamble expected: {}", &raw[..12]);
    assert_eq!(
        pedit(&store, &["--rpc", "show", "--doc", &doc, "--password", "pw"]).unwrap(),
        "guarded"
    );
    // A provider that rewrites one ciphertext character is caught on the
    // next show. The change goes in through the store's own write path,
    // so the WAL checksums are valid and RPC integrity alone rejects it.
    {
        let provider = ShardedLogStore::open(&store.0, 1, StoreConfig::default()).unwrap();
        let mut content = provider.content(&doc).unwrap();
        // Records (1 tag digit + 26 Base32 characters each) follow the
        // preamble's last ';'. Flip a character inside a middle record.
        let records = content.iter().rposition(|&b| b == b';').unwrap() + 1;
        let middle = (content.len() - records) / 27 / 2;
        let at = records + middle * 27 + 5;
        content[at] = if content[at] == b'A' { b'B' } else { b'A' };
        provider.put_full(&doc, &content).unwrap();
    }
    let err = pedit(&store, &["--rpc", "show", "--doc", &doc, "--password", "pw"]).unwrap_err();
    assert!(matches!(err, CliError::Extension(_)), "{err}");
}

#[test]
fn regular_file_is_not_a_store() {
    let store = TempStore::new("regular-file");
    // Even a file in the old whole-file text format is refused, not read.
    let text = b"next_doc=1\nnext_session=0\n";
    std::fs::write(&store.0, text).unwrap();
    let err = pedit(&store, &["list"]).unwrap_err();
    assert!(matches!(err, CliError::BadStore(_)), "{err}");
    assert_eq!(std::fs::read(&store.0).unwrap(), text);
}

#[test]
fn missing_document_errors_cleanly() {
    let store = TempStore::new("missing");
    let err =
        pedit(&store, &["show", "--doc", "doc99", "--password", "pw"]).unwrap_err();
    assert!(err.to_string().contains("404") || err.to_string().contains("server error"));
    assert_eq!(pedit(&store, &["list"]).unwrap(), "(no documents)");
    assert_eq!(pedit(&store, &["raw", "--doc", "doc99"]).unwrap(), "(no such document)");
}

#[test]
fn missing_shard_fails_loudly_and_is_not_recreated() {
    let store = TempStore::new("missing-shard");
    drop(ShardedLogStore::open(&store.0, 2, StoreConfig::default()).unwrap());
    for _ in 0..6 {
        pedit(&store, &["create", "--password", "pw"]).unwrap();
    }
    let victim = store.0.join("shard-001");
    std::fs::remove_dir_all(&victim).unwrap();

    let err = pedit(&store, &["list"]).unwrap_err();
    assert!(matches!(err, CliError::BadStore(_)), "{err}");
    assert!(err.to_string().contains("shard-001"), "{err}");
    assert!(!victim.exists(), "a missing shard must not be recreated");
    let fsck = run(&parse_args(&["fsck".to_string(), store.path().to_string()]).unwrap());
    match fsck {
        Err(CliError::BadStore(report)) => assert!(report.ends_with("STORE CORRUPT"), "{report}"),
        other => panic!("fsck must report corruption, got {other:?}"),
    }
    assert!(!victim.exists());
}
