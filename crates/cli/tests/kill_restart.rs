//! Crash-durability end-to-end test: a save acknowledged over the
//! socket must survive a `SIGKILL` of the serving process — the
//! property the durable store directory exists to provide. The
//! server runs as a real child process (the actual `pedit` binary) so
//! the kill is a genuine process death, not a simulated one.

use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use pe_cli::{parse_args, run, CliError};

struct TempPath(PathBuf);

impl TempPath {
    fn new(tag: &str) -> TempPath {
        let mut path = std::env::temp_dir();
        path.push(format!("pedit-kill-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_dir_all(&path);
        TempPath(path)
    }

    fn str(&self) -> &str {
        self.0.to_str().unwrap()
    }
}

impl Drop for TempPath {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Runs a client-side invocation in-process (the library IS the CLI).
fn pedit(args: &[&str]) -> Result<String, CliError> {
    let full: Vec<String> = args.iter().map(|s| s.to_string()).collect();
    run(&parse_args(&full)?)
}

fn spawn_serve(store: &str, addr_file: &str) -> Child {
    Command::new(env!("CARGO_BIN_EXE_pedit"))
        .args(["--store", store, "serve", "--addr", "127.0.0.1:0", "--addr-file", addr_file])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn pedit serve")
}

/// The server writes its bound address only after the socket is live.
fn wait_for_addr(path: &std::path::Path) -> String {
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        if let Ok(addr) = std::fs::read_to_string(path) {
            if !addr.is_empty() {
                return addr;
            }
        }
        assert!(Instant::now() < deadline, "server never wrote its address");
        std::thread::sleep(Duration::from_millis(20));
    }
}

#[test]
fn acknowledged_saves_survive_sigkill_and_restart() {
    let store = TempPath::new("store");
    let addr_file = TempPath::new("addr");

    // --- First life: create and save over the socket, then SIGKILL. ---
    let mut child = spawn_serve(store.str(), addr_file.str());
    let addr = wait_for_addr(&addr_file.0);

    let created = pedit(&["--connect", &addr, "create", "--password", "pw"]).unwrap();
    let doc = created.strip_prefix("created ").unwrap().to_string();
    pedit(&["--connect", &addr, "save", "--doc", &doc, "--password", "pw", "--text",
            "acknowledged before the crash"])
        .unwrap();

    // The save command returned, so the server acknowledged it. Kill -9.
    child.kill().expect("kill serve");
    child.wait().expect("reap serve");

    // --- The store on disk already holds the acknowledged save. ---
    let local =
        pedit(&["--store", store.str(), "show", "--doc", &doc, "--password", "pw"]).unwrap();
    assert_eq!(local, "acknowledged before the crash");

    // fsck agrees the store is healthy after the hard kill.
    let report = pedit(&["fsck", store.str()]).unwrap();
    assert!(report.contains("store healthy"), "fsck after kill: {report}");

    // --- Second life: restart on the same directory and keep editing. ---
    let _ = std::fs::remove_file(&addr_file.0);
    let mut child = spawn_serve(store.str(), addr_file.str());
    let addr = wait_for_addr(&addr_file.0);

    let shown = pedit(&["--connect", &addr, "show", "--doc", &doc, "--password", "pw"]).unwrap();
    assert_eq!(shown, "acknowledged before the crash");
    pedit(&["--connect", &addr, "save", "--doc", &doc, "--password", "pw", "--text",
            "and edited after the restart"])
        .unwrap();

    // Clean stop this time; the process exits on its own.
    assert_eq!(pedit(&["--connect", &addr, "stop"]).unwrap(), "server stopping");
    let status = child.wait().expect("reap serve");
    assert!(status.success(), "clean stop exited {status:?}");

    let local =
        pedit(&["--store", store.str(), "show", "--doc", &doc, "--password", "pw"]).unwrap();
    assert_eq!(local, "and edited after the restart");

    // Offline compaction preserves the store and keeps it healthy.
    let compacted = pedit(&["compact", store.str()]).unwrap();
    assert!(compacted.contains("compacted"), "unexpected: {compacted}");
    let report = pedit(&["fsck", store.str()]).unwrap();
    assert!(report.contains("store healthy"), "fsck after compact: {report}");
    let local =
        pedit(&["--store", store.str(), "show", "--doc", &doc, "--password", "pw"]).unwrap();
    assert_eq!(local, "and edited after the restart");
}

/// The sharded drill: a multi-shard store serves over the socket, dies
/// by SIGKILL mid-life, passes fsck on every shard, and recovers every
/// acknowledged save across all shards on restart.
#[test]
fn sharded_store_survives_sigkill_and_restart() {
    let store = TempPath::new("sharded");
    let addr_file = TempPath::new("sharded-addr");

    // --- First life: an explicitly 4-way sharded store. ---
    let mut child = Command::new(env!("CARGO_BIN_EXE_pedit"))
        .args([
            "--store", store.str(), "serve", "--addr", "127.0.0.1:0",
            "--addr-file", addr_file.str(), "--shards", "4",
        ])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn pedit serve --shards 4");
    let addr = wait_for_addr(&addr_file.0);

    // Several documents so the saves spread across shards.
    let mut docs = Vec::new();
    for i in 0..6 {
        let created = pedit(&["--connect", &addr, "create", "--password", "pw"]).unwrap();
        let doc = created.strip_prefix("created ").unwrap().to_string();
        pedit(&["--connect", &addr, "save", "--doc", &doc, "--password", "pw", "--text",
                &format!("doc {i} acknowledged before the crash")])
            .unwrap();
        docs.push(doc);
    }

    child.kill().expect("kill serve");
    child.wait().expect("reap serve");

    // The layout on disk is sharded, fsck checks every shard, and every
    // acknowledged save is present.
    assert!(store.0.join("pe-shards").is_file(), "manifest must exist");
    assert!(store.0.join("shard-003").is_dir(), "4 shard directories expected");
    let report = pedit(&["fsck", store.str()]).unwrap();
    assert!(report.contains("store healthy"), "fsck after kill: {report}");
    assert!(report.contains("[shard-000]"), "fsck must report per shard: {report}");
    for (i, doc) in docs.iter().enumerate() {
        let local =
            pedit(&["--store", store.str(), "show", "--doc", doc, "--password", "pw"]).unwrap();
        assert_eq!(local, format!("doc {i} acknowledged before the crash"));
    }

    // --- Second life: same directory, shard count read from manifest. ---
    let _ = std::fs::remove_file(&addr_file.0);
    let mut child = spawn_serve(store.str(), addr_file.str());
    let addr = wait_for_addr(&addr_file.0);
    pedit(&["--connect", &addr, "save", "--doc", &docs[0], "--password", "pw", "--text",
            "edited after restart"])
        .unwrap();
    assert_eq!(pedit(&["--connect", &addr, "stop"]).unwrap(), "server stopping");
    assert!(child.wait().expect("reap serve").success());
    let local =
        pedit(&["--store", store.str(), "show", "--doc", &docs[0], "--password", "pw"]).unwrap();
    assert_eq!(local, "edited after restart");
}
