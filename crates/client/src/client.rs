//! The full simulated client: session management, autosave, and the
//! Ack-hash conflict check.

use pe_cloud::retry::BackoffPolicy;
use pe_cloud::{CloudService, Request, Response};
use pe_crypto::form;
use pe_crypto::hex;
use pe_crypto::sha256::Sha256;
use pe_delta::{diff_bytes, Delta, Side};
use pe_extension::{DocsMediator, ExtensionError};

use crate::editor::Editor;

/// The client's communication channel: either straight to the server or
/// through the privacy mediator. This is where "with extension" vs
/// "without extension" differs in the benchmarks.
pub trait Channel {
    /// Sends one request, returning the response the client sees.
    fn exchange(&mut self, request: &Request) -> Response;
}

/// Direct connection to a cloud service (no privacy extension).
#[derive(Debug)]
pub struct DirectChannel<S>(pub S);

impl<S: CloudService> Channel for DirectChannel<S> {
    fn exchange(&mut self, request: &Request) -> Response {
        self.0.handle(request)
    }
}

/// Connection through the privacy mediator ("with extension").
pub struct PrivateChannel<S>(pub DocsMediator<S>);

impl<S: CloudService> Channel for PrivateChannel<S> {
    fn exchange(&mut self, request: &Request) -> Response {
        match self.0.intercept(request) {
            Ok(mediated) => mediated.response,
            Err(e) => match e {
                ExtensionError::ServerError { status, message } => {
                    Response::error(status, &message)
                }
                other => Response::error(502, &other.to_string()),
            },
        }
    }
}

/// Result of a save attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SaveOutcome {
    /// The server accepted the update and the Ack was consistent.
    Saved,
    /// The Ack hash disagreed with the client's view, or the server
    /// rejected the delta — "multiple people editing" (§VII-A).
    Conflict,
    /// There was nothing to save.
    Clean,
}

/// A simulated Google-Documents client: an [`Editor`] bound to a document
/// on a [`Channel`].
///
/// Protocol behaviour follows §IV-A: the first save of every session
/// sends the full `docContents`; later saves send deltas; every Ack's
/// `contentFromServerHash` is compared against the hash of the client's
/// own content (a `0` hash — what the extension substitutes — is accepted
/// silently, which is exactly why single-user sessions work and
/// concurrent sessions conflict).
pub struct DocsClient<C> {
    channel: C,
    doc_id: String,
    editor: Editor,
    /// Content as of the last successful synchronization with the server
    /// (the base every unsent local edit is relative to).
    synced: String,
    sent_full_save: bool,
    conflicts: usize,
    /// Server version carried by the last successful save Ack — the
    /// change-stream sequence of the client's own save, used by live
    /// sessions to suppress the echo of their own change.
    last_ack_version: Option<u64>,
    /// Server version `synced` is known to correspond to, when armed.
    /// Sent as the `baseVersion` precondition on delta saves so a save
    /// racing a collaborator is rejected (409) instead of landing on a
    /// base it was not computed against. Arming is **opt-in** via
    /// [`DocsClient::note_server_version`] (live sessions do this):
    /// classic plaintext sessions stay on the paper's Ack-hash conflict
    /// detection and never send the precondition, so their observable
    /// protocol is unchanged. Once armed, every sync point (fetch, save
    /// ack) refreshes it.
    base_version: Option<u64>,
    /// Delay schedule between failed save attempts in
    /// [`DocsClient::save_with_retry`] and [`DocsClient::save_merging`].
    /// Hammering a struggling server with zero-delay retries only feeds
    /// the overload; seeded jitter keeps runs reproducible.
    backoff: BackoffPolicy,
}

impl<C: Channel> DocsClient<C> {
    /// Opens an editing session on `doc_id`, loading the current content.
    ///
    /// # Errors
    ///
    /// Returns the raw error response on failure.
    pub fn open(mut channel: C, doc_id: &str) -> Result<DocsClient<C>, Response> {
        let response =
            channel.exchange(&Request::post("/Doc", &[("docID", doc_id), ("cmd", "open")], ""));
        if !response.is_success() {
            return Err(response);
        }
        let body = response.body_text().unwrap_or("");
        let pairs = form::parse_pairs(body).unwrap_or_default();
        let content = form::first_value(&pairs, "content").unwrap_or("").to_string();
        Ok(DocsClient {
            channel,
            doc_id: doc_id.to_string(),
            editor: Editor::new(&content),
            synced: content,
            sent_full_save: false,
            conflicts: 0,
            last_ack_version: None,
            base_version: None,
            backoff: BackoffPolicy::client_default(0),
        })
    }

    /// Replaces the retry backoff schedule (builder style).
    #[must_use]
    pub fn with_backoff(mut self, backoff: BackoffPolicy) -> DocsClient<C> {
        self.backoff = backoff;
        self
    }

    /// Replaces the retry backoff schedule in place.
    pub fn set_backoff(&mut self, backoff: BackoffPolicy) {
        self.backoff = backoff;
    }

    /// Sleeps per the backoff schedule before retry number `attempt`
    /// (0-based), recording the actual delay.
    fn backoff_pause(&self, attempt: u32) {
        let slept = self.backoff.sleep(attempt);
        pe_observe::static_histogram!("client.retry_backoff_ns")
            .record(slept.as_nanos() as u64);
    }

    /// The local editor.
    pub fn editor(&mut self) -> &mut Editor {
        &mut self.editor
    }

    /// The client's current view of the document.
    pub fn content(&self) -> &str {
        self.editor.content()
    }

    /// Number of conflicts ("multiple people editing") seen so far.
    pub fn conflicts(&self) -> usize {
        self.conflicts
    }

    /// Releases the channel (for inspecting the mediator afterwards).
    pub fn into_channel(self) -> C {
        self.channel
    }

    /// The document this session edits.
    pub fn doc_id(&self) -> &str {
        &self.doc_id
    }

    /// Borrows the channel (live sessions route out-of-band requests —
    /// change polls, presence — through the same mediator/transport).
    pub fn channel(&mut self) -> &mut C {
        &mut self.channel
    }

    /// Server version acknowledged for this client's most recent save,
    /// if the server reports versions.
    pub fn last_ack_version(&self) -> Option<u64> {
        self.last_ack_version
    }

    /// Applies a *foreign* delta pushed from the change stream: local
    /// unsent edits are rebased over it with operational transformation,
    /// so the buffer keeps the user's intent on top of the collaborator's
    /// change and the sync point advances to the server's new content.
    ///
    /// # Errors
    ///
    /// Returns the delta error when `foreign` does not apply to the sync
    /// point (the stream and the session disagree about the base — the
    /// caller should fall back to a full resync).
    pub fn apply_foreign_delta(&mut self, foreign: &Delta) -> Result<(), pe_delta::DeltaError> {
        let new_synced = foreign.apply_utf8(&self.synced)?;
        let local = diff_bytes(&self.synced, self.editor.content());
        let rebased = local.transform(foreign, self.synced.len(), Side::Right)?;
        pe_observe::static_counter!("client.foreign_deltas").inc();
        self.editor.reset(&new_synced);
        if !rebased.is_identity() {
            self.editor.apply(rebased);
        }
        self.synced = new_synced;
        // The server already holds the new base; stay incremental. Its
        // version is unknown until the caller reports it.
        self.sent_full_save = true;
        self.base_version = None;
        Ok(())
    }

    /// Records the server version the current sync point corresponds to.
    /// Live sessions call this after folding stream changes at a known
    /// sequence, re-arming the `baseVersion` save precondition that
    /// [`DocsClient::apply_foreign_delta`] and
    /// [`DocsClient::merge_server_content`] conservatively clear.
    pub fn note_server_version(&mut self, version: u64) {
        self.base_version = Some(version);
    }

    /// Resynchronizes on authoritative server content (the change
    /// stream's full-content fallback) while preserving unsent local
    /// edits, rebasing them over whatever changed server-side.
    pub fn merge_server_content(&mut self, server_content: &str) {
        if server_content == self.synced {
            return;
        }
        let local = diff_bytes(&self.synced, self.editor.content());
        let foreign = diff_bytes(&self.synced, server_content);
        pe_observe::static_counter!("client.merges").inc();
        let rebased = match local.transform(&foreign, self.synced.len(), Side::Right) {
            Ok(rebased) => rebased,
            // Transform of two well-formed deltas over their common base
            // cannot fail; defensively drop local edits rather than
            // diverging from the server.
            Err(_) => {
                pe_observe::static_counter!("client.merge_transform_failures").inc();
                Delta::new()
            }
        };
        self.editor.reset(server_content);
        if !rebased.is_identity() {
            self.editor.apply(rebased);
        }
        self.synced = server_content.to_string();
        self.sent_full_save = true;
        self.base_version = None;
    }

    fn local_hash(&self) -> String {
        hex::encode(&Sha256::digest(self.editor.content().as_bytes())[..8])
    }

    /// Saves pending edits: a full `docContents` save the first time, a
    /// delta save afterwards, mirroring the observed client behaviour.
    pub fn save(&mut self) -> SaveOutcome {
        self.save_inner().0
    }

    /// Like [`DocsClient::save`] but also exposes the server's status
    /// code so callers can tell transient failures (5xx) from conflicts.
    fn save_inner(&mut self) -> (SaveOutcome, u16) {
        if self.sent_full_save && !self.editor.has_pending() {
            return (SaveOutcome::Clean, 200);
        }
        pe_observe::static_counter!("client.save_attempts").inc();
        let response = if self.sent_full_save {
            let delta = self.editor.take_pending();
            let serialized = delta.serialize();
            let mut fields: Vec<(&str, String)> = vec![("delta", serialized)];
            if let Some(base) = self.base_version {
                fields.push(("baseVersion", base.to_string()));
            }
            let pairs: Vec<(&str, &str)> =
                fields.iter().map(|(k, v)| (*k, v.as_str())).collect();
            let body = form::encode_pairs(&pairs);
            self.channel.exchange(&Request::post("/Doc", &[("docID", &self.doc_id)], body))
        } else {
            self.editor.take_pending(); // folded into the full save
            let body =
                form::encode_pairs(&[("docContents", self.editor.content())]);
            self.channel.exchange(&Request::post("/Doc", &[("docID", &self.doc_id)], body))
        };
        if !response.is_success() {
            self.conflicts += 1;
            pe_observe::static_counter!("client.save_conflicts").inc();
            return (SaveOutcome::Conflict, response.status);
        }
        self.sent_full_save = true;
        let body = response.body_text().unwrap_or("");
        let pairs = form::parse_pairs(body).unwrap_or_default();
        let ack_hash = form::first_value(&pairs, "contentFromServerHash").unwrap_or("");
        if let Some(version) = form::first_value(&pairs, "version").and_then(|v| v.parse().ok())
        {
            self.last_ack_version = Some(version);
        }
        if ack_hash == "0" || ack_hash == self.local_hash() {
            self.synced = self.editor.content().to_string();
            if self.base_version.is_some() {
                self.base_version = self.last_ack_version;
            }
            (SaveOutcome::Saved, response.status)
        } else {
            self.conflicts += 1;
            pe_observe::static_counter!("client.save_conflicts").inc();
            pe_observe::static_counter!("client.save_ack_divergence").inc();
            (SaveOutcome::Conflict, response.status)
        }
    }

    /// Fetches the server's current content without touching local state.
    fn fetch(&mut self) -> Option<String> {
        let response = self
            .channel
            .exchange(&Request::get("/Doc/load", &[("docID", &self.doc_id)]));
        if !response.is_success() {
            return None;
        }
        let body = response.body_text().unwrap_or("");
        let pairs = form::parse_pairs(body).unwrap_or_default();
        if self.base_version.is_some() {
            if let Some(version) =
                form::first_value(&pairs, "version").and_then(|v| v.parse().ok())
            {
                self.base_version = Some(version);
            }
        }
        form::first_value(&pairs, "content").map(str::to_string)
    }

    /// Saves with **merge-on-conflict**: the collaborative mode the paper
    /// leaves to future work (§VII-A cites SPORC). Before sending, the
    /// client checks whether the server moved past its sync point; if so
    /// it rebases its unsent edits over the concurrent changes with
    /// operational transformation ([`pe_delta::Delta::transform`]) and
    /// then saves the rebased delta. Works identically in plaintext and
    /// private mode — in private mode the pre-flight load also re-syncs
    /// the mediator's ciphertext mirror, which is exactly what makes
    /// concurrent encrypted editing converge.
    pub fn save_merging(&mut self, max_attempts: usize) -> SaveOutcome {
        for attempt in 0..max_attempts.max(1) {
            if attempt > 0 {
                self.backoff_pause(attempt as u32 - 1);
            }
            let Some(server_content) = self.fetch() else {
                continue; // transient load failure
            };
            // Rebuild the pending delta from first principles: everything
            // between the sync point and the current buffer. (A previous
            // failed attempt may have drained the editor's pending state;
            // the canonical diff recovers it.)
            let local = diff_bytes(&self.synced, self.editor.content());
            if server_content != self.synced {
                // Rebase local intent over the concurrent foreign changes.
                pe_observe::static_counter!("client.merges").inc();
                let foreign = diff_bytes(&self.synced, &server_content);
                let Ok(rebased) = local.transform(&foreign, self.synced.len(), Side::Right)
                else {
                    return SaveOutcome::Conflict;
                };
                self.editor.reset(&server_content);
                if !rebased.is_identity() {
                    self.editor.apply(rebased);
                }
                self.synced = server_content;
            } else {
                let content = self.editor.content().to_string();
                self.editor.reset(&self.synced.clone());
                if !local.is_identity() {
                    self.editor.apply(local);
                }
                debug_assert_eq!(self.editor.content(), content);
            }
            // The server already holds the (possibly merged) base; stay on
            // the incremental path.
            self.sent_full_save = true;
            match self.save_inner() {
                (SaveOutcome::Saved, _) => return SaveOutcome::Saved,
                (SaveOutcome::Clean, _) => return SaveOutcome::Clean,
                (SaveOutcome::Conflict, _) => continue,
            }
        }
        SaveOutcome::Conflict
    }

    /// Saves with bounded retries: **transient** failures (5xx — a flaky
    /// transport or server front-end) are retried up to `attempts` times
    /// by re-queueing the unsent edits and re-establishing the session
    /// with a full save. Genuine conflicts (409 / Ack-hash mismatch,
    /// i.e. another writer) are returned immediately for the caller to
    /// resolve via [`DocsClient::refresh`] — blindly retrying those would
    /// clobber the other writer.
    pub fn save_with_retry(&mut self, attempts: usize) -> SaveOutcome {
        for attempt in 1..=attempts.max(1) {
            let snapshot = self.editor.clone();
            let (outcome, status) = self.save_inner();
            match outcome {
                SaveOutcome::Saved | SaveOutcome::Clean => {
                    pe_observe::static_histogram!("client.retries_to_success")
                        .record(attempt as u64 - 1);
                    return outcome;
                }
                SaveOutcome::Conflict if status >= 500 => {
                    // Transient: restore the unsent edits; the next
                    // attempt re-establishes server state via a full save.
                    pe_observe::static_counter!("client.save_retries").inc();
                    self.editor = snapshot;
                    self.sent_full_save = false;
                    if attempt < attempts.max(1) {
                        self.backoff_pause(attempt as u32 - 1);
                    }
                }
                SaveOutcome::Conflict => return SaveOutcome::Conflict,
            }
        }
        SaveOutcome::Conflict
    }

    /// Refreshes the buffer from the server (the passive-reader /
    /// post-conflict path). Discards pending local edits.
    ///
    /// # Errors
    ///
    /// Returns the raw error response on failure.
    pub fn refresh(&mut self) -> Result<(), Response> {
        let response = self
            .channel
            .exchange(&Request::get("/Doc/load", &[("docID", &self.doc_id)]));
        if !response.is_success() {
            return Err(response);
        }
        let body = response.body_text().unwrap_or("");
        let pairs = form::parse_pairs(body).unwrap_or_default();
        let content = form::first_value(&pairs, "content").unwrap_or("");
        self.editor.reset(content);
        self.synced = content.to_string();
        // A refresh re-synchronizes the session; subsequent saves may be
        // incremental again only after a full save reestablishes state.
        self.sent_full_save = false;
        Ok(())
    }
}

impl<C> std::fmt::Debug for DocsClient<C> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DocsClient")
            .field("doc_id", &self.doc_id)
            .field("len", &self.editor.len())
            .field("conflicts", &self.conflicts)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pe_cloud::docs::DocsServer;
    use pe_crypto::CtrDrbg;
    use pe_extension::MediatorConfig;
    use std::sync::Arc;

    fn new_doc(server: &DocsServer) -> String {
        let resp = server.handle(&Request::post("/Doc", &[("cmd", "create")], ""));
        let pairs = form::parse_pairs(resp.body_text().unwrap()).unwrap();
        form::first_value(&pairs, "docID").unwrap().to_string()
    }

    #[test]
    fn plaintext_session_without_extension() {
        let server = Arc::new(DocsServer::new());
        let doc_id = new_doc(&server);
        let mut client =
            DocsClient::open(DirectChannel(Arc::clone(&server)), &doc_id).unwrap();
        client.editor().insert(0, "plain text editing");
        assert_eq!(client.save(), SaveOutcome::Saved);
        client.editor().replace(0, 5, "CLEAR");
        assert_eq!(client.save(), SaveOutcome::Saved);
        assert_eq!(server.stored_content(&doc_id).unwrap(), "CLEAR text editing");
        assert_eq!(client.conflicts(), 0);
    }

    #[test]
    fn private_session_through_extension() {
        let server = Arc::new(DocsServer::new());
        let doc_id = new_doc(&server);
        let mut mediator = DocsMediator::with_rng(
            Arc::clone(&server),
            MediatorConfig::recb(8),
            CtrDrbg::from_seed(1),
        );
        mediator.register_password(&doc_id, "pw");
        let mut client = DocsClient::open(PrivateChannel(mediator), &doc_id).unwrap();
        client.editor().insert(0, "secret agenda");
        assert_eq!(client.save(), SaveOutcome::Saved);
        client.editor().delete(0, 7);
        assert_eq!(client.save(), SaveOutcome::Saved);
        let stored = server.stored_content(&doc_id).unwrap();
        assert!(!stored.contains("agenda"));
        assert_eq!(client.conflicts(), 0, "single-user private session is flawless");
    }

    #[test]
    fn concurrent_plaintext_clients_detect_conflicts_via_hash() {
        let server = Arc::new(DocsServer::new());
        let doc_id = new_doc(&server);
        let mut alice =
            DocsClient::open(DirectChannel(Arc::clone(&server)), &doc_id).unwrap();
        alice.editor().insert(0, "alice was here. ");
        assert_eq!(alice.save(), SaveOutcome::Saved);
        // Bob joins after Alice's save and establishes his session.
        let mut bob = DocsClient::open(DirectChannel(Arc::clone(&server)), &doc_id).unwrap();
        assert_eq!(bob.save(), SaveOutcome::Saved); // first (full) save
        // Both now edit concurrently; Alice lands first.
        alice.editor().insert(0, "A2 ");
        assert_eq!(alice.save(), SaveOutcome::Saved);
        let bob_len = bob.content().len();
        bob.editor().insert(bob_len, "bob too");
        // Bob's Ack hash reflects a document containing Alice's new text;
        // his local hash differs → conflict detected (plaintext clients
        // detect this properly — unlike under the extension, §VII-A).
        assert_eq!(bob.save(), SaveOutcome::Conflict);
        assert_eq!(bob.conflicts(), 1);
        bob.refresh().unwrap();
        assert!(bob.content().contains("A2 "));
    }

    #[test]
    fn refresh_pulls_server_state() {
        let server = Arc::new(DocsServer::new());
        let doc_id = new_doc(&server);
        let mut writer =
            DocsClient::open(DirectChannel(Arc::clone(&server)), &doc_id).unwrap();
        writer.editor().insert(0, "v1");
        writer.save();
        let mut reader =
            DocsClient::open(DirectChannel(Arc::clone(&server)), &doc_id).unwrap();
        writer.editor().insert(2, " v2");
        writer.save();
        reader.refresh().unwrap();
        assert_eq!(reader.content(), "v1 v2");
    }

    #[test]
    fn clean_save_when_no_edits() {
        let server = Arc::new(DocsServer::new());
        let doc_id = new_doc(&server);
        let mut client =
            DocsClient::open(DirectChannel(Arc::clone(&server)), &doc_id).unwrap();
        client.editor().insert(0, "x");
        assert_eq!(client.save(), SaveOutcome::Saved);
        assert_eq!(client.save(), SaveOutcome::Clean);
    }

    #[test]
    fn save_ack_carries_the_server_version() {
        let server = Arc::new(DocsServer::new());
        let doc_id = new_doc(&server);
        let mut client =
            DocsClient::open(DirectChannel(Arc::clone(&server)), &doc_id).unwrap();
        assert_eq!(client.last_ack_version(), None);
        client.editor().insert(0, "v1");
        assert_eq!(client.save(), SaveOutcome::Saved);
        let first = client.last_ack_version().expect("version in ack");
        client.editor().insert(2, " v2");
        assert_eq!(client.save(), SaveOutcome::Saved);
        let second = client.last_ack_version().expect("version in ack");
        assert!(second > first, "sequence advances per accepted save");
    }

    #[test]
    fn foreign_delta_rebases_pending_local_edits() {
        let server = Arc::new(DocsServer::new());
        let doc_id = new_doc(&server);
        let mut client =
            DocsClient::open(DirectChannel(Arc::clone(&server)), &doc_id).unwrap();
        client.editor().insert(0, "shared base");
        assert_eq!(client.save(), SaveOutcome::Saved);
        // A collaborator lands a change on the server…
        let mut other =
            DocsClient::open(DirectChannel(Arc::clone(&server)), &doc_id).unwrap();
        other.editor().replace(0, 6, "SHARED");
        assert_eq!(other.save(), SaveOutcome::Saved);
        // …while this client holds a pending local edit on the old base.
        client.editor().insert(11, " +local");
        let foreign = diff_bytes("shared base", "SHARED base");
        client.apply_foreign_delta(&foreign).unwrap();
        assert_eq!(client.content(), "SHARED base +local");
        // Saving after the merge converges without conflict.
        assert_eq!(client.save(), SaveOutcome::Saved);
        assert_eq!(server.stored_content(&doc_id).unwrap(), "SHARED base +local");
    }

    #[test]
    fn foreign_delta_with_wrong_base_is_an_error() {
        let server = Arc::new(DocsServer::new());
        let doc_id = new_doc(&server);
        let mut client =
            DocsClient::open(DirectChannel(Arc::clone(&server)), &doc_id).unwrap();
        client.editor().insert(0, "abc");
        assert_eq!(client.save(), SaveOutcome::Saved);
        // A delta built against a much longer document cannot apply.
        let foreign = diff_bytes("a much longer base document", "a much longer base documentX");
        assert!(client.apply_foreign_delta(&foreign).is_err());
        // State is untouched — the caller resyncs instead.
        assert_eq!(client.content(), "abc");
    }

    #[test]
    fn foreign_delta_rebases_over_a_non_ascii_sync_point() {
        let server = Arc::new(DocsServer::new());
        let doc_id = new_doc(&server);
        let mut client =
            DocsClient::open(DirectChannel(Arc::clone(&server)), &doc_id).unwrap();
        client.editor().insert(0, "café base");
        assert_eq!(client.save(), SaveOutcome::Saved);
        let mut other =
            DocsClient::open(DirectChannel(Arc::clone(&server)), &doc_id).unwrap();
        other.editor().insert(0, "X");
        assert_eq!(other.save(), SaveOutcome::Saved);
        // "café base" is 10 bytes: the local edit appends.
        client.editor().insert(10, "!");
        client.apply_foreign_delta(&Delta::parse("+X").unwrap()).unwrap();
        assert_eq!(client.content(), "Xcafé base!");
        assert_eq!(client.save(), SaveOutcome::Saved);
        assert_eq!(server.stored_content(&doc_id).unwrap(), "Xcafé base!");
    }

    #[test]
    fn merge_server_content_over_a_non_ascii_sync_point() {
        let server = Arc::new(DocsServer::new());
        let doc_id = new_doc(&server);
        let mut client =
            DocsClient::open(DirectChannel(Arc::clone(&server)), &doc_id).unwrap();
        client.editor().insert(0, "café base");
        assert_eq!(client.save(), SaveOutcome::Saved);
        let mut other =
            DocsClient::open(DirectChannel(Arc::clone(&server)), &doc_id).unwrap();
        other.editor().replace(0, "café".len(), "CAFÉ");
        assert_eq!(other.save(), SaveOutcome::Saved);
        client.editor().insert(10, " tail");
        client.merge_server_content("CAFÉ base");
        assert_eq!(client.content(), "CAFÉ base tail");
        assert_eq!(client.save(), SaveOutcome::Saved);
        assert_eq!(server.stored_content(&doc_id).unwrap(), "CAFÉ base tail");
    }

    #[test]
    fn merge_server_content_preserves_local_intent() {
        let server = Arc::new(DocsServer::new());
        let doc_id = new_doc(&server);
        let mut client =
            DocsClient::open(DirectChannel(Arc::clone(&server)), &doc_id).unwrap();
        client.editor().insert(0, "line one");
        assert_eq!(client.save(), SaveOutcome::Saved);
        let mut other =
            DocsClient::open(DirectChannel(Arc::clone(&server)), &doc_id).unwrap();
        other.editor().replace(0, 4, "LINE");
        assert_eq!(other.save(), SaveOutcome::Saved);
        client.editor().insert(8, " local-tail");
        client.merge_server_content("LINE one");
        assert_eq!(client.content(), "LINE one local-tail");
        assert_eq!(client.save(), SaveOutcome::Saved);
        // Identical content is a no-op that keeps pending edits pending.
        client.merge_server_content("LINE one local-tail");
        assert_eq!(client.save(), SaveOutcome::Clean);
    }
}

#[cfg(test)]
mod retry_tests {
    use super::*;
    use pe_cloud::docs::DocsServer;
    use pe_cloud::fault::FlakyService;
    use pe_crypto::CtrDrbg;
    use pe_extension::{DocsMediator, MediatorConfig};
    use std::sync::Arc;

    fn new_doc(server: &DocsServer) -> String {
        let resp = server.handle(&Request::post("/Doc", &[("cmd", "create")], ""));
        let pairs = form::parse_pairs(resp.body_text().unwrap()).unwrap();
        form::first_value(&pairs, "docID").unwrap().to_string()
    }

    #[test]
    fn retries_survive_a_flaky_transport() {
        let server = Arc::new(DocsServer::new());
        let doc_id = new_doc(&server);
        // Fail roughly one in three requests.
        let flaky = FlakyService::new(Arc::clone(&server), 3, 5);
        let mut client = DocsClient::open(DirectChannel(flaky), &doc_id)
            .or_else(|_| {
                // The open itself may have hit an injected fault; retry.
                let flaky = FlakyService::new(Arc::clone(&server), 3, 6);
                DocsClient::open(DirectChannel(flaky), &doc_id)
            })
            .expect("one of two opens succeeds");
        for i in 0..20 {
            let len = client.content().len();
            client.editor().insert(len, &format!("chunk {i}. "));
            assert_eq!(client.save_with_retry(8), SaveOutcome::Saved, "edit {i}");
        }
        let stored = server.stored_content(&doc_id).unwrap();
        for i in 0..20 {
            assert!(stored.contains(&format!("chunk {i}. ")), "lost edit {i}");
        }
    }

    #[test]
    fn retries_survive_a_flaky_transport_with_extension() {
        let server = Arc::new(DocsServer::new());
        let doc_id = new_doc(&server);
        let flaky = FlakyService::new(Arc::clone(&server), 4, 11);
        let mut mediator =
            DocsMediator::with_rng(flaky, MediatorConfig::recb(8), CtrDrbg::from_seed(1));
        mediator.register_password(&doc_id, "flaky-pw");
        let mut client = DocsClient::open(PrivateChannel(mediator), &doc_id).unwrap();
        for i in 0..15 {
            let len = client.content().len();
            client.editor().insert(len, &format!("private {i}. "));
            assert_eq!(client.save_with_retry(10), SaveOutcome::Saved, "edit {i}");
        }
        // Final state decrypts correctly despite injected faults.
        let mut reader = DocsMediator::with_rng(
            Arc::clone(&server),
            MediatorConfig::recb(8),
            CtrDrbg::from_seed(2),
        );
        reader.register_password(&doc_id, "flaky-pw");
        let text = reader.open_document(&doc_id).unwrap();
        for i in 0..15 {
            assert!(text.contains(&format!("private {i}. ")), "lost edit {i}: {text}");
        }
    }

    #[test]
    fn genuine_conflicts_are_not_retried() {
        let server = Arc::new(DocsServer::new());
        let doc_id = new_doc(&server);
        let mut alice = DocsClient::open(DirectChannel(Arc::clone(&server)), &doc_id).unwrap();
        alice.editor().insert(0, "alice. ");
        alice.save();
        let mut bob = DocsClient::open(DirectChannel(Arc::clone(&server)), &doc_id).unwrap();
        bob.save();
        alice.editor().insert(0, "more alice. ");
        alice.save();
        let bob_len = bob.content().len();
        bob.editor().insert(bob_len, "bob. ");
        // A hash-mismatch conflict must come back immediately. Had the
        // client retried with a full save, the server would hold exactly
        // Bob's (Alice-free) view — it must not.
        assert_eq!(bob.save_with_retry(5), SaveOutcome::Conflict);
        assert_eq!(bob.conflicts(), 1, "exactly one attempt, no retries");
        assert_ne!(server.stored_content(&doc_id).unwrap(), bob.content());
    }

    /// Fails every request that carries a body (i.e. every save), leaving
    /// open/create untouched.
    struct FailSaves(Arc<DocsServer>);

    impl Channel for FailSaves {
        fn exchange(&mut self, request: &Request) -> Response {
            if !request.body.is_empty() {
                return Response::error(500, "backend down");
            }
            self.0.handle(request)
        }
    }

    #[test]
    fn transient_retries_pause_per_the_backoff_schedule() {
        use pe_cloud::retry::BackoffPolicy;
        use std::time::{Duration, Instant};
        let server = Arc::new(DocsServer::new());
        let doc_id = new_doc(&server);
        let mut client = DocsClient::open(FailSaves(Arc::clone(&server)), &doc_id)
            .unwrap()
            .with_backoff(BackoffPolicy::new(
                Duration::from_millis(10),
                Duration::from_millis(10),
                0.0,
                0,
            ));
        client.editor().insert(0, "never lands");
        let started = Instant::now();
        assert_eq!(client.save_with_retry(3), SaveOutcome::Conflict);
        // Three attempts, a 10 ms pause after each of the first two.
        assert!(
            started.elapsed() >= Duration::from_millis(20),
            "retries must be paced, not immediate: {:?}",
            started.elapsed()
        );
    }
}

#[cfg(test)]
mod merge_tests {
    use super::*;
    use pe_cloud::docs::DocsServer;
    use pe_crypto::CtrDrbg;
    use pe_extension::{DocsMediator, MediatorConfig};
    use std::sync::Arc;

    fn new_doc(server: &DocsServer) -> String {
        let resp = server.handle(&Request::post("/Doc", &[("cmd", "create")], ""));
        let pairs = form::parse_pairs(resp.body_text().unwrap()).unwrap();
        form::first_value(&pairs, "docID").unwrap().to_string()
    }

    #[test]
    fn concurrent_plaintext_writers_converge_with_merge() {
        let server = Arc::new(DocsServer::new());
        let doc_id = new_doc(&server);
        let mut alice = DocsClient::open(DirectChannel(Arc::clone(&server)), &doc_id).unwrap();
        alice.editor().insert(0, "shared base. ");
        assert_eq!(alice.save(), SaveOutcome::Saved);
        let mut bob = DocsClient::open(DirectChannel(Arc::clone(&server)), &doc_id).unwrap();
        assert_eq!(bob.save(), SaveOutcome::Saved);

        // Concurrent edits: alice prepends, bob appends.
        alice.editor().insert(0, "[alice] ");
        assert_eq!(alice.save_merging(4), SaveOutcome::Saved);
        let bob_len = bob.content().len();
        bob.editor().insert(bob_len, "[bob]");
        assert_eq!(bob.save_merging(4), SaveOutcome::Saved);

        let stored = server.stored_content(&doc_id).unwrap();
        assert_eq!(stored, "[alice] shared base. [bob]", "both edits must merge");
        assert_eq!(bob.content(), stored);
    }

    #[test]
    fn concurrent_private_writers_converge_with_merge() {
        // The §VII-A "partial" scenario, upgraded: two writers through
        // separate privacy mediators, merging on conflict. The server
        // never sees plaintext yet both edits land.
        let server = Arc::new(DocsServer::new());
        let doc_id = new_doc(&server);
        let mut setup = DocsMediator::with_rng(
            Arc::clone(&server),
            MediatorConfig::recb(8),
            CtrDrbg::from_seed(70),
        );
        setup.register_password(&doc_id, "merge-pw");
        setup.save_full(&doc_id, "shared base. ").unwrap();

        let make_client = |seed: u64| {
            let mut mediator = DocsMediator::with_rng(
                Arc::clone(&server),
                MediatorConfig::recb(8),
                CtrDrbg::from_seed(seed),
            );
            mediator.register_password(&doc_id, "merge-pw");
            DocsClient::open(PrivateChannel(mediator), &doc_id).unwrap()
        };
        let mut alice = make_client(71);
        let mut bob = make_client(72);
        assert_eq!(alice.content(), "shared base. ");
        assert_eq!(bob.content(), "shared base. ");

        alice.editor().insert(0, "[alice] ");
        assert_eq!(alice.save_merging(4), SaveOutcome::Saved);
        let bob_len = bob.content().len();
        bob.editor().insert(bob_len, "[bob]");
        assert_eq!(bob.save_merging(4), SaveOutcome::Saved);

        // The provider stores only ciphertext…
        let stored = server.stored_content(&doc_id).unwrap();
        assert!(!stored.contains("alice") && !stored.contains("bob"));
        // …which decrypts to the converged merge for a fresh reader.
        let mut reader = DocsMediator::with_rng(
            Arc::clone(&server),
            MediatorConfig::recb(8),
            CtrDrbg::from_seed(73),
        );
        reader.register_password(&doc_id, "merge-pw");
        assert_eq!(
            reader.open_document(&doc_id).unwrap(),
            "[alice] shared base. [bob]",
            "encrypted concurrent edits must converge"
        );
    }

    #[test]
    fn merge_handles_interleaved_rounds() {
        let server = Arc::new(DocsServer::new());
        let doc_id = new_doc(&server);
        let mut a = DocsClient::open(DirectChannel(Arc::clone(&server)), &doc_id).unwrap();
        a.editor().insert(0, "root. ");
        a.save();
        let mut b = DocsClient::open(DirectChannel(Arc::clone(&server)), &doc_id).unwrap();
        b.save();
        for round in 0..5 {
            let a_len = a.content().len();
            a.editor().insert(a_len, &format!("a{round}. "));
            assert_eq!(a.save_merging(4), SaveOutcome::Saved, "a round {round}");
            let b_len = b.content().len();
            b.editor().insert(b_len, &format!("b{round}. "));
            assert_eq!(b.save_merging(4), SaveOutcome::Saved, "b round {round}");
        }
        let stored = server.stored_content(&doc_id).unwrap();
        for round in 0..5 {
            assert!(stored.contains(&format!("a{round}. ")), "missing a{round}: {stored}");
            assert!(stored.contains(&format!("b{round}. ")), "missing b{round}: {stored}");
        }
    }
}

#[cfg(test)]
mod merge_resilience_tests {
    use super::*;
    use pe_cloud::docs::DocsServer;
    use pe_cloud::fault::FlakyService;
    use std::sync::Arc;

    #[test]
    fn save_merging_survives_transient_failures_without_losing_edits() {
        let server = Arc::new(DocsServer::new());
        let resp = server.handle(&Request::post("/Doc", &[("cmd", "create")], ""));
        let pairs = form::parse_pairs(resp.body_text().unwrap()).unwrap();
        let doc_id = form::first_value(&pairs, "docID").unwrap().to_string();
        // Fail roughly one in three requests.
        let flaky = FlakyService::new(Arc::clone(&server), 3, 21);
        let mut client = match DocsClient::open(DirectChannel(flaky), &doc_id) {
            Ok(client) => client,
            Err(_) => {
                let flaky = FlakyService::new(Arc::clone(&server), 3, 22);
                DocsClient::open(DirectChannel(flaky), &doc_id).unwrap()
            }
        };
        for i in 0..12 {
            let len = client.content().len();
            client.editor().insert(len, &format!("m{i}. "));
            assert_eq!(client.save_merging(40), SaveOutcome::Saved, "edit {i}");
        }
        let stored = server.stored_content(&doc_id).unwrap();
        for i in 0..12 {
            assert!(stored.contains(&format!("m{i}. ")), "lost edit {i}: {stored}");
        }
    }
}
