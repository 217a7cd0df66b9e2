//! The three workloads. Each runs closed-loop from this process with two
//! client threads and at most one request in flight per thread; every
//! input comes from `pe_client::workload::WorkloadGen` seeded by the
//! run's seed. See `perfbench/README.md` for why each workload exists.

use std::collections::HashMap;
use std::path::Path;
use std::sync::{Barrier, Mutex};
use std::time::{Duration, Instant};

use pe_client::workload::{MacroOp, WorkloadGen};
use pe_client::{DocsClient, Editor, PrivateChannel, SaveOutcome};
use pe_collab::{LiveSession, SharedChannel};
use pe_crypto::drbg::NonceSource;
use pe_delta::{Delta, DeltaOp};
use pe_extension::{ExtensionError, Mediated};

use crate::stack::{Mediator, Stack};
use crate::stats::Samples;
use crate::trace::{Op, Scope, Tracer};

/// Client threads in every workload (the benchmark host has 2 CPUs).
pub const THREADS: usize = 2;
/// Plaintext size of each `typing` document (the paper's §VII-C large file).
pub const TYPING_DOC: usize = 10_000;
/// Percent of `large_doc` ops that are opens and delta saves; the rest are
/// full rewrites.
pub const LARGE_OPEN_PCT: u64 = 45;
pub const LARGE_SAVE_PCT: u64 = 35;
/// Plaintext size of each `large_doc` document. At rECB b = 8 the
/// ciphertext is 3.4–3.6× larger, so even at the size cap below it stays
/// under the server's 500 KiB `MAX_DOC_BYTES`.
pub const LARGE_DOC: usize = 100 * 1024;
/// Documents each `large_doc` client cycles over.
pub const LARGE_DOCS_PER_CLIENT: usize = 3;
/// Plaintext size the shared `collab` document starts at.
pub const COLLAB_DOC: usize = 2_000;
/// Bounds of the seeded, jittered interval between one `collab` editor's
/// autosaves. A sample-count choice, not observed editor traffic: a
/// `push_ms`/`save_ms` p95 with [`crate::stats::MIN_BEYOND`] samples beyond
/// it needs 200 saves in a run, i.e. 20 saves/s over both editors in a
/// 10 s run. A 50 ms mean gives about 38/s, twice that floor, so seeds
/// with more conflict retries stay above it. The ±50 % jitter keeps the
/// two editors' phases apart.
pub const THINK_MS: (usize, usize) = (25, 75);
/// How long a `collab` save may keep rebasing over conflicts (`step`
/// then `save` again) before it counts as failed.
const COLLAB_SAVE_GIVE_UP: Duration = Duration::from_secs(5);

/// Which workload to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Typing,
    LargeDoc,
    Collab,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::Typing, Workload::LargeDoc, Workload::Collab];

    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "typing" => Some(Workload::Typing),
            "large_doc" => Some(Workload::LargeDoc),
            "collab" => Some(Workload::Collab),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Typing => "typing",
            Workload::LargeDoc => "large_doc",
            Workload::Collab => "collab",
        }
    }
}

/// The measured interval: ops that start before `warm_end` warm the
/// caches and connections and are not recorded.
#[derive(Debug, Clone, Copy)]
pub struct Window {
    pub warm_end: Instant,
    pub end: Instant,
}

impl Window {
    fn running(&self) -> bool {
        Instant::now() < self.end
    }

    fn counts(&self, started: Instant) -> bool {
        started >= self.warm_end && started < self.end
    }
}

/// What the client threads of one run observed.
#[derive(Debug, Default)]
pub struct Log {
    pub save: Samples,
    pub full_save: Samples,
    pub open: Samples,
    /// Author's save call start → the other editor has applied the change.
    pub push: Samples,
    /// Measured ops attempted / failed.
    pub attempted: u64,
    pub failed: u64,
    /// Completed measured ops.
    pub completed: u64,
    /// Save responses with status 413 or 5xx.
    pub bad_statuses: Vec<u16>,
    /// Failed correctness checks.
    pub problems: Vec<String>,
    /// Text the workload generated (for the ciphertext-only check).
    pub generated: Vec<String>,
}

impl Log {
    fn merge(&mut self, other: Log) {
        self.save.extend(&other.save);
        self.full_save.extend(&other.full_save);
        self.open.extend(&other.open);
        self.push.extend(&other.push);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.completed += other.completed;
        self.bad_statuses.extend(other.bad_statuses);
        self.problems.extend(other.problems);
        self.generated.extend(other.generated);
    }

    fn samples(&mut self, op: Op) -> &mut Samples {
        match op {
            Op::Save => &mut self.save,
            Op::FullSave => &mut self.full_save,
            Op::Open => &mut self.open,
        }
    }

    /// Records one op that started at `started`; `ok` says whether it
    /// completed. Returns `ok`.
    fn record(&mut self, window: &Window, op: Op, started: Instant, ok: bool) -> bool {
        let took = started.elapsed();
        if window.counts(started) {
            self.attempted += 1;
            if ok {
                self.completed += 1;
                self.samples(op).push(took);
            } else {
                self.failed += 1;
            }
        }
        ok
    }

    /// Checks a save's result, noting 413 / 5xx statuses.
    fn save_ok(&mut self, result: &Result<Mediated, ExtensionError>) -> bool {
        let status = match result {
            Ok(mediated) => mediated.response.status,
            Err(ExtensionError::ServerError { status, .. }) => *status,
            Err(e) => {
                self.problems.push(format!("save failed: {e}"));
                return false;
            }
        };
        if status == 413 || status >= 500 {
            self.bad_statuses.push(status);
        }
        (200..300).contains(&status)
    }
}

/// Picks a sentence op, steering the document back toward `target` so
/// per-op cost stays stationary over a run.
fn pick_op(gen: &mut WorkloadGen, len: usize, target: usize) -> MacroOp {
    if len > target + target / 5 {
        MacroOp::DeleteSentence
    } else if len < target - target / 5 {
        MacroOp::InsertSentence
    } else {
        [
            MacroOp::ReplaceSentence,
            MacroOp::InsertSentence,
            MacroOp::DeleteSentence,
        ][gen.rng().next_below(3) as usize]
    }
}

/// Performs one size-steering sentence op on `editor`, returning its delta.
fn sentence_edit(
    gen: &mut WorkloadGen,
    editor: &mut Editor,
    target: usize,
    log: &mut Log,
) -> Delta {
    let op = pick_op(gen, editor.len(), target);
    edit(gen, editor, op, log)
}

/// Performs `op` on `editor`, returning its delta and noting the text it
/// inserted for the ciphertext-only check.
fn edit(gen: &mut WorkloadGen, editor: &mut Editor, op: MacroOp, log: &mut Log) -> Delta {
    op.perform(editor, gen);
    let delta = editor.take_pending();
    for op in delta.ops() {
        if let DeltaOp::Insert(text) = op {
            log.generated.push(text.clone());
        }
    }
    delta
}

fn scope(tracer: Option<&Tracer>, op: Op) -> Option<Scope<'_>> {
    tracer.map(|t| t.op(op))
}

/// Per-stream seed: one independent generator per editor and purpose.
fn stream(seed: u64, editor: usize, purpose: u64) -> u64 {
    seed ^ (purpose << 32) ^ ((editor as u64 + 1) << 48)
}

fn password(editor: usize, doc: usize) -> String {
    format!("perfbench-{editor}-{doc}")
}

/// One private document a client owns, with the benchmark's own model of
/// its plaintext.
pub struct OwnedDoc {
    pub id: String,
    pub password: String,
    pub editor: Editor,
}

/// A client of `typing` or `large_doc`: a mediator and its documents.
pub struct Client {
    mediator: Mediator,
    docs: Vec<OwnedDoc>,
    gen: WorkloadGen,
    /// The documents' first uploaded plaintext.
    uploaded: Vec<String>,
}

/// Creates a client's documents and uploads their first ciphertext.
fn owned_client(
    stack: &Stack,
    seed: u64,
    editor: usize,
    docs: usize,
    size: usize,
) -> Result<Client, String> {
    let mut mediator = stack.mediator(editor, stream(seed, editor, 1));
    let mut gen = WorkloadGen::new(stream(seed, editor, 2));
    let mut owned = Vec::new();
    let mut uploaded = Vec::new();
    for d in 0..docs {
        let password = password(editor, d);
        let id = mediator
            .create_document(&password)
            .map_err(|e| format!("create: {e}"))?;
        let text = gen.document(size);
        let saved = mediator
            .save_full(&id, &text)
            .map_err(|e| format!("upload: {e}"))?;
        if !saved.response.is_success() {
            return Err(format!("upload answered {}", saved.response.status));
        }
        owned.push(OwnedDoc {
            id,
            password,
            editor: Editor::new(&text),
        });
        uploaded.push(text);
    }
    Ok(Client {
        mediator,
        docs: owned,
        gen,
        uploaded,
    })
}

/// Set-up state of one workload run.
pub enum Prepared {
    Owned(Vec<Client>),
    Shared {
        doc: String,
        sessions: Vec<Live>,
        gens: Vec<WorkloadGen>,
        initial: String,
    },
}

/// Creates the workload's documents on a fresh stack.
pub fn prepare(workload: Workload, stack: &Stack, seed: u64) -> Result<Prepared, String> {
    match workload {
        Workload::Typing => (0..THREADS)
            .map(|e| owned_client(stack, seed, e, 1, TYPING_DOC))
            .collect::<Result<_, _>>()
            .map(Prepared::Owned),
        Workload::LargeDoc => (0..THREADS)
            .map(|e| owned_client(stack, seed, e, LARGE_DOCS_PER_CLIENT, LARGE_DOC))
            .collect::<Result<_, _>>()
            .map(Prepared::Owned),
        Workload::Collab => prepare_shared(stack, seed),
    }
}

/// Runs the prepared workload's client threads over `window`.
pub fn drive(
    prepared: Prepared,
    window: Window,
    tracer: Option<&Tracer>,
) -> (Log, Vec<OwnedDoc>, Option<SharedEnd>) {
    match prepared {
        Prepared::Owned(clients) => {
            let logs: Vec<(Log, Vec<OwnedDoc>)> = std::thread::scope(|s| {
                let handles: Vec<_> = clients
                    .into_iter()
                    .map(|c| s.spawn(move || owned_loop(c, window, tracer)))
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("client thread panicked"))
                    .collect()
            });
            let mut log = Log::default();
            let mut docs = Vec::new();
            for (l, d) in logs {
                log.merge(l);
                docs.extend(d);
            }
            (log, docs, None)
        }
        Prepared::Shared {
            doc,
            sessions,
            gens,
            initial,
        } => {
            let (log, end) = shared_loops(doc, sessions, gens, initial, window, tracer);
            (log, Vec::new(), Some(end))
        }
    }
}

/// `typing` and `large_doc`: one client owning its documents.
fn owned_loop(mut client: Client, window: Window, tracer: Option<&Tracer>) -> (Log, Vec<OwnedDoc>) {
    let mut log = Log {
        generated: std::mem::take(&mut client.uploaded),
        ..Log::default()
    };
    let large = client.docs.len() > 1;
    let target = if large { LARGE_DOC } else { TYPING_DOC };
    while window.running() {
        let pick = client.gen.rng().next_below(client.docs.len() as u64) as usize;
        let roll = client.gen.rng().next_below(100);
        let op = if large {
            match roll {
                r if r < LARGE_OPEN_PCT => Op::Open,
                r if r < LARGE_OPEN_PCT + LARGE_SAVE_PCT => Op::Save,
                _ => Op::FullSave,
            }
        } else {
            // `typing` only saves: every open copies the document's whole
            // revision history on the server, so even 1 % opens took over
            // half the clients' time (see README.md, Findings).
            Op::Save
        };
        let doc = &mut client.docs[pick];
        let ok = match op {
            Op::Open => {
                let started = Instant::now();
                let opened = {
                    let _s = scope(tracer, op);
                    client.mediator.open_document(&doc.id)
                };
                let ok = log.record(&window, op, started, opened.is_ok());
                match opened {
                    Ok(text) if text != doc.editor.content() => {
                        log.problems
                            .push(format!("open of {} returned stale text", doc.id));
                        false
                    }
                    Err(e) => {
                        log.problems.push(format!("open failed: {e}"));
                        false
                    }
                    _ => ok,
                }
            }
            Op::Save => {
                let delta = sentence_edit(&mut client.gen, &mut doc.editor, target, &mut log);
                let started = Instant::now();
                let saved = {
                    let _s = scope(tracer, op);
                    client.mediator.save_delta(&doc.id, &delta)
                };
                let ok = log.save_ok(&saved);
                log.record(&window, op, started, ok)
            }
            Op::FullSave => {
                sentence_edit(&mut client.gen, &mut doc.editor, target, &mut log);
                let started = Instant::now();
                let saved = {
                    let _s = scope(tracer, op);
                    client.mediator.save_full(&doc.id, doc.editor.content())
                };
                let ok = log.save_ok(&saved);
                log.record(&window, op, started, ok)
            }
        };
        if !ok {
            // The model no longer matches what the server was asked to
            // hold; stop this client and let the checks report it.
            break;
        }
    }
    (log, client.docs)
}

type LiveChannel = SharedChannel<PrivateChannel<std::sync::Arc<dyn pe_cloud::CloudService>>>;
/// One live editor of the shared `collab` document.
pub type Live = LiveSession<LiveChannel, LiveChannel>;

fn join(stack: &Stack, doc: &str, pw: &str, editor: usize, seed: u64) -> Result<Live, String> {
    let mut mediator = stack.live_mediator(editor, seed);
    mediator.register_password(doc, pw);
    let channel = SharedChannel::new(PrivateChannel(mediator));
    let client = DocsClient::open(channel.clone(), doc)
        .map_err(|r| format!("editor {editor}: open answered {}", r.status))?;
    LiveSession::start(client, channel, &format!("editor-{editor}"), None)
        .map_err(|e| format!("editor {editor}: {e}"))
}

fn prepare_shared(stack: &Stack, seed: u64) -> Result<Prepared, String> {
    let pw = password(0, 0);
    let mut creator = stack.mediator(THREADS, stream(seed, THREADS, 1));
    let mut gen = WorkloadGen::new(stream(seed, THREADS, 2));
    let doc = creator
        .create_document(&pw)
        .map_err(|e| format!("create: {e}"))?;
    let initial = gen.document(COLLAB_DOC);
    let saved = creator
        .save_full(&doc, &initial)
        .map_err(|e| format!("upload: {e}"))?;
    if !saved.response.is_success() {
        return Err(format!("upload answered {}", saved.response.status));
    }
    let sessions = (0..THREADS)
        .map(|e| join(stack, &doc, &pw, e, stream(seed, e, 1)))
        .collect::<Result<Vec<_>, _>>()?;
    let gens = (0..THREADS)
        .map(|e| WorkloadGen::new(stream(seed, e, 2)))
        .collect();
    Ok(Prepared::Shared {
        doc,
        sessions,
        gens,
        initial,
    })
}

/// Who authored each change sequence and when their save call started,
/// and which foreign sequences each editor has folded in so far.
#[derive(Default)]
struct PushBook {
    authored: HashMap<u64, (usize, Instant)>,
    covered: [u64; THREADS],
    /// (receiver, seq, applied at) whose author has not reported yet.
    pending: Vec<(usize, u64, Instant)>,
    samples: Samples,
    non_positive: usize,
}

impl PushBook {
    fn sample(&mut self, window: &Window, started: Instant, applied: Instant) {
        if !window.counts(started) {
            return;
        }
        match applied.checked_duration_since(started) {
            Some(d) if !d.is_zero() => self.samples.push(d),
            _ => self.non_positive += 1,
        }
    }

    fn authored(&mut self, window: &Window, seq: u64, editor: usize, started: Instant) {
        self.authored.insert(seq, (editor, started));
        let pending = std::mem::take(&mut self.pending);
        for (receiver, s, applied) in pending {
            if s == seq {
                if receiver != editor {
                    self.sample(window, started, applied);
                }
            } else {
                self.pending.push((receiver, s, applied));
            }
        }
    }

    /// `editor`'s session now includes every sequence up to `since`.
    fn covered(&mut self, window: &Window, editor: usize, since: u64) {
        let applied = Instant::now();
        for seq in self.covered[editor] + 1..=since {
            match self.authored.get(&seq) {
                Some(&(author, started)) if author != editor => {
                    self.sample(window, started, applied)
                }
                Some(_) => {}
                None => self.pending.push((editor, seq, applied)),
            }
        }
        self.covered[editor] = self.covered[editor].max(since);
    }
}

/// End state of the `collab` run, for the convergence check.
pub struct SharedEnd {
    pub doc: String,
    pub password: String,
    pub contents: Vec<String>,
}

fn shared_loops(
    doc: String,
    sessions: Vec<Live>,
    gens: Vec<WorkloadGen>,
    initial: String,
    window: Window,
    tracer: Option<&Tracer>,
) -> (Log, SharedEnd) {
    let book = Mutex::new(PushBook::default());
    {
        let mut b = book.lock().expect("push book");
        for (e, s) in sessions.iter().enumerate() {
            b.covered[e] = s.since();
        }
    }
    let done = Barrier::new(THREADS);
    let results: Vec<(Log, String)> = std::thread::scope(|s| {
        let handles: Vec<_> = sessions
            .into_iter()
            .zip(gens)
            .enumerate()
            .map(|(e, (session, gen))| {
                let (book, done) = (&book, &done);
                s.spawn(move || live_loop(e, session, gen, window, tracer, book, done))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("editor thread panicked"))
            .collect()
    });
    let book = book.into_inner().expect("push book");
    let mut log = Log::default();
    let mut contents = Vec::new();
    for (l, content) in results {
        log.merge(l);
        contents.push(content);
    }
    log.push = book.samples;
    if book.non_positive > 0 {
        log.problems.push(format!(
            "{} push samples were not positive",
            book.non_positive
        ));
    }
    log.generated.push(initial);
    (
        log,
        SharedEnd {
            doc,
            password: password(0, 0),
            contents,
        },
    )
}

fn lock_book(book: &Mutex<PushBook>) -> std::sync::MutexGuard<'_, PushBook> {
    book.lock()
        .expect("an editor thread panicked holding the push book")
}

/// One long-poll round, folded into the push book.
fn step(
    e: usize,
    session: &mut Live,
    wait: Duration,
    window: &Window,
    tracer: Option<&Tracer>,
    book: &Mutex<PushBook>,
) -> Result<pe_collab::StepOutcome, String> {
    let outcome = {
        let _s = tracer.map(Tracer::step);
        session.step(wait)
    };
    let outcome = outcome.map_err(|err| format!("editor {e}: step failed: {err}"))?;
    lock_book(book).covered(window, e, session.since());
    Ok(outcome)
}

fn live_loop(
    e: usize,
    mut session: Live,
    mut gen: WorkloadGen,
    window: Window,
    tracer: Option<&Tracer>,
    book: &Mutex<PushBook>,
    done: &Barrier,
) -> (Log, String) {
    let mut log = Log::default();
    let think =
        |gen: &mut WorkloadGen| Duration::from_millis(gen.length(THINK_MS.0, THINK_MS.1) as u64);
    // Autosave timer: saves fall due on the editor's own seeded schedule,
    // not a think time after the previous save ends, so the two editors'
    // phases stay independent of how long each other's saves take.
    let mut due = Instant::now() + think(&mut gen);
    'editing: while window.running() {
        // Parked in the long-poll until the next save falls due.
        while let Some(left) = due.checked_duration_since(Instant::now()) {
            if let Err(err) = step(e, &mut session, left, &window, tracer, book) {
                log.problems.push(err);
                break 'editing;
            }
        }
        // Inserts only: concurrent sentence deletes currently make
        // `DocsClient::save_merging` fail its rebase on every attempt, so
        // an editor stops being able to save (see perfbench/README.md).
        edit(
            &mut gen,
            session.client().editor(),
            MacroOp::InsertSentence,
            &mut log,
        );
        let started = Instant::now();
        let mut outcome = SaveOutcome::Conflict;
        {
            let _s = scope(tracer, Op::Save);
            while started.elapsed() < COLLAB_SAVE_GIVE_UP {
                outcome = session.save();
                if outcome != SaveOutcome::Conflict {
                    break;
                }
                // Rebase the pending edit over what the other editor
                // saved, then try again. Untimed as a step: its transport
                // calls belong to this save.
                if let Err(err) = step(e, &mut session, Duration::ZERO, &window, None, book) {
                    log.problems.push(err);
                    break;
                }
            }
        }
        let saved = outcome == SaveOutcome::Saved;
        log.record(&window, Op::Save, started, saved);
        if !saved {
            log.problems
                .push(format!("editor {e}: save did not converge"));
            break;
        }
        let version = session.client().last_ack_version();
        {
            let mut b = lock_book(book);
            if let Some(seq) = version {
                b.authored(&window, seq, e, started);
            }
            b.covered(&window, e, session.since());
        }
        due = (due + think(&mut gen)).max(Instant::now());
    }
    // Everyone stops typing, then drains until two quiet polls in a row.
    done.wait();
    let mut quiet = 0;
    for _ in 0..50 {
        match step(
            e,
            &mut session,
            Duration::from_millis(200),
            &window,
            None,
            book,
        ) {
            Ok(o) if o.applied == 0 && !o.resynced => quiet += 1,
            Ok(_) => quiet = 0,
            Err(err) => {
                log.problems.push(err);
                break;
            }
        }
        if quiet >= 2 {
            break;
        }
    }
    (log, session.content().to_string())
}

/// Removes a finished run's store directory.
pub fn clean(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
}
