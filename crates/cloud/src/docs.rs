//! The Google-Documents-style server (§IV-A of the paper).
//!
//! Reproduces the 2011 wire protocol the paper reverse-engineered:
//!
//! * `POST /Doc?cmd=create` — create a document, returns its `docID`.
//! * `POST /Doc?docID=…&cmd=open` — open an edit session; the response
//!   carries the current content and its hash.
//! * `POST /Doc?docID=…` with a form body — save: the `docContents` field
//!   replaces the whole document (the first save of every session), the
//!   `delta` field applies an incremental update. The server answers with
//!   an **Ack** carrying `contentFromServer` and `contentFromServerHash`.
//! * `GET /Doc/load?docID=…` — passive reader refresh (collaboration).
//!
//! Server-side *features* operate on the stored content — which is exactly
//! why they break under the privacy extension (§VII-A): spell checking
//! (`POST /spell`), translation (`POST /translate`), export
//! (`GET /export`), and drawing (`POST /drawing`, whose request body
//! itself carries plaintext primitives, so the mediator must block it).
//!
//! The server enforces Google's 500-kilobyte document limit the paper
//! cites when motivating multi-character blocks (§V-C).
//!
//! Storage is pluggable: the server is a protocol veneer over any
//! [`DocStore`] — [`MemStore`](pe_store::MemStore) by default (tests,
//! examples), or a durable [`pe_store::ShardedLogStore`] in the `pedit`
//! stack, where an acknowledged save survives `kill -9`.

use std::borrow::Cow;
use std::sync::Arc;

use pe_crypto::form;
use pe_crypto::hex;
use pe_crypto::sha256::Sha256;
use pe_delta::Delta;
use pe_store::{DeltaLimits, DocStore, MemStore, StoreError};

use crate::{CloudService, Request, Response};

/// Maximum stored document size in bytes (Google's 2011 limit).
pub const MAX_DOC_BYTES: usize = 500 * 1024;

/// One accepted save, as observed by a [`SaveListener`].
///
/// The payload is whatever the client shipped — ciphertext when the
/// privacy extension is active. The server fans it out without ever
/// interpreting it.
#[derive(Debug, Clone)]
pub enum SaveChange {
    /// A full `docContents` save: the complete new stored content.
    Full(String),
    /// An incremental `delta` save: the serialized delta text.
    Delta(String),
}

/// Observer of accepted saves — the hook the live-collaboration layer
/// (`pe-collab`) uses to fan changes out to parked subscribers.
///
/// `seq` is the document's post-save version counter: monotonic, durable
/// (it rides the WAL), and therefore a valid resume cursor across server
/// restarts. Called synchronously after the store accepted the save and
/// before the Ack is returned; implementations must be fast and must not
/// call back into the server.
pub trait SaveListener: Send + Sync {
    /// One accepted save on `doc_id`, now at version `seq`.
    fn on_save(&self, doc_id: &str, seq: u64, change: &SaveChange);
}

/// Metadata key for the document id counter.
const META_NEXT_DOC: &str = "next_doc";
/// Metadata key for the session id counter.
const META_NEXT_SESSION: &str = "next_session";

/// A small English dictionary for the spell-check feature. Real enough to
/// make plaintext prose pass and Base32 ciphertext fail spectacularly.
const DICTIONARY: &[&str] = &[
    "a", "about", "all", "also", "an", "and", "are", "as", "at", "be", "because", "but", "by",
    "can", "come", "could", "day", "do", "document", "even", "find", "first", "for", "from",
    "get", "give", "go", "have", "he", "her", "here", "him", "his", "how", "i", "if", "in",
    "into", "it", "its", "just", "know", "like", "look", "make", "man", "many", "me", "meet",
    "more", "my", "new", "no", "noon", "not", "now", "of", "on", "one", "only", "or", "other",
    "our", "out", "people", "say", "secret", "see", "she", "so", "some", "take", "than", "that",
    "the", "their", "them", "then", "there", "these", "they", "thing", "think", "this", "those",
    "time", "to", "two", "up", "use", "very", "want", "way", "we", "well", "what", "when",
    "which", "who", "will", "with", "word", "world", "would", "year", "you", "your", "quick",
    "brown", "fox", "jumps", "over", "lazy", "dog", "hello", "attack", "at", "dawn", "editing",
    "private", "cloud", "service", "paper", "plan", "was", "old", "yes", "did", "has",
];

/// The simulated Google-Documents word-processor backend.
///
/// Thread-safe; clients, mediators, and benchmark harnesses may share one
/// instance.
///
/// # Example
///
/// ```
/// use pe_cloud::docs::DocsServer;
/// use pe_cloud::{CloudService, Request};
/// use pe_crypto::form;
///
/// let server = DocsServer::new();
/// let created = server.handle(&Request::post("/Doc", &[("cmd", "create")], ""));
/// let pairs = form::parse_pairs(created.body_text().unwrap())?;
/// let doc_id = form::first_value(&pairs, "docID").unwrap();
/// assert!(doc_id.starts_with("doc"));
/// # Ok::<(), pe_crypto::CryptoError>(())
/// ```
pub struct DocsServer {
    store: Arc<dyn DocStore>,
    /// Serializes tenant-record mutations so their check-then-put pairs
    /// (registration uniqueness, ownership checks) are atomic.
    tenant_lock: std::sync::Mutex<()>,
    /// Fan-out hook for accepted saves (live collaboration).
    save_listener: std::sync::RwLock<Option<Arc<dyn SaveListener>>>,
}

impl std::fmt::Debug for DocsServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DocsServer").field("store", &self.store.name()).finish()
    }
}

impl Default for DocsServer {
    fn default() -> DocsServer {
        DocsServer::new()
    }
}

/// Maps a storage failure onto the 2011 wire protocol's status codes.
fn store_error(e: &StoreError) -> Response {
    match e {
        StoreError::NoSuchDocument => Response::error(404, "no such document"),
        StoreError::Conflict(msg) => Response::error(409, &format!("delta conflict: {msg}")),
        StoreError::TooLarge { .. } => Response::error(413, "document exceeds 500kB limit"),
        StoreError::InvalidUtf8 => Response::error(400, "delta produced invalid text"),
        other => Response::error(500, &format!("storage failure: {other}")),
    }
}

impl DocsServer {
    /// Creates a server with no documents, backed by an in-memory store.
    pub fn new() -> DocsServer {
        DocsServer::with_store(Arc::new(MemStore::new()))
    }

    /// Creates a server over an existing store — a durable
    /// [`pe_store::ShardedLogStore`] makes every acknowledged save survive a
    /// crash; documents already in the store are served as-is.
    pub fn with_store(store: Arc<dyn DocStore>) -> DocsServer {
        DocsServer {
            store,
            tenant_lock: std::sync::Mutex::new(()),
            save_listener: std::sync::RwLock::new(None),
        }
    }

    /// Installs the observer notified after every accepted save (at most
    /// one; a second call replaces the first). Used by `pe-collab` to
    /// wake parked `/Doc/changes` subscribers.
    pub fn set_save_listener(&self, listener: Arc<dyn SaveListener>) {
        *self.save_listener.write().unwrap_or_else(|p| p.into_inner()) = Some(listener);
    }

    fn publish_save(&self, doc_id: &str, seq: u64, change: &SaveChange) {
        let guard = self.save_listener.read().unwrap_or_else(|p| p.into_inner());
        if let Some(listener) = guard.as_ref() {
            listener.on_save(doc_id, seq, change);
        }
    }

    /// Guard held for the duration of any tenant-record mutation.
    pub(crate) fn tenant_mutation_lock(&self) -> std::sync::MutexGuard<'_, ()> {
        self.tenant_lock.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// The backing store (tooling: flush/compact/inspect).
    pub fn store(&self) -> &Arc<dyn DocStore> {
        &self.store
    }

    /// Hash the server reports in Ack messages (`contentFromServerHash`).
    /// Note it is computed over the *stored* content — ciphertext when the
    /// privacy extension is active, which is what makes collaborative
    /// editing only partially functional (§VII-A).
    pub fn content_hash(content: &str) -> String {
        hex::encode(&Sha256::digest(content.as_bytes())[..8])
    }

    /// Direct (test/bench) access to a document's stored content.
    pub fn stored_content(&self, doc_id: &str) -> Option<String> {
        self.store.content(doc_id).map(|b| String::from_utf8_lossy(&b).into_owned())
    }

    /// Direct (test/bench) access to a document's version counter.
    pub fn stored_version(&self, doc_id: &str) -> Option<u64> {
        self.store.get(doc_id).map(|d| d.version)
    }

    /// Direct (test/bench) access to the stored revision history.
    pub fn stored_revisions(&self, doc_id: &str) -> Option<Vec<String>> {
        self.store.get(doc_id).map(|d| {
            d.revisions.iter().map(|r| String::from_utf8_lossy(r).into_owned()).collect()
        })
    }

    /// Lists all document ids, sorted (tooling/tests). Tenant-directory
    /// records (reserved `~tenant/` prefix) are internal and excluded.
    pub fn list_documents(&self) -> Vec<String> {
        self.store
            .list()
            .into_iter()
            .filter(|id| !id.starts_with(crate::tenant::TENANT_PREFIX))
            .collect()
    }

    fn revisions(&self, doc_id: &str, index: Option<&str>) -> Response {
        let Some(doc) = self.store.get(doc_id) else {
            return Response::error(404, "no such document");
        };
        match index {
            None => Response::ok(form::encode_pairs(&[(
                "revisionCount",
                doc.revisions.len().to_string().as_str(),
            )])),
            Some(raw) => {
                let Ok(i) = raw.parse::<usize>() else {
                    return Response::error(400, "bad revision index");
                };
                match doc.revisions.get(i) {
                    Some(content) => Response::ok(form::encode_pairs(&[(
                        "content",
                        String::from_utf8_lossy(content).as_ref(),
                    )])),
                    None => Response::error(404, "no such revision"),
                }
            }
        }
    }

    fn create(&self) -> Response {
        let n = match self.store.bump_meta(META_NEXT_DOC) {
            Ok(n) => n,
            Err(e) => return store_error(&e),
        };
        let id = format!("doc{n}");
        if let Err(e) = self.store.create(&id) {
            return store_error(&e);
        }
        Response::ok(form::encode_pairs(&[("docID", id.as_str())]))
    }

    fn open(&self, doc_id: &str) -> Response {
        let session = match self.store.bump_meta(META_NEXT_SESSION) {
            Ok(n) => format!("s{n}"),
            Err(e) => return store_error(&e),
        };
        let Some(doc) = self.store.get(doc_id) else {
            return Response::error(404, "no such document");
        };
        let content = String::from_utf8_lossy(&doc.content);
        let hash = Self::content_hash(&content);
        Response::ok(form::encode_pairs(&[
            ("sessionID", session.as_str()),
            ("content", content.as_ref()),
            ("contentHash", hash.as_str()),
            ("version", doc.version.to_string().as_str()),
        ]))
    }

    fn save(&self, doc_id: &str, body: &str) -> Response {
        let Ok(pairs) = form::parse_pairs(body) else {
            return Response::error(400, "malformed form body");
        };
        if !self.store.contains(doc_id) {
            return Response::error(404, "no such document");
        }
        // `stored` is the document's new bytes: borrowed from the request
        // on a full save, the store's result on a delta save.
        let (stored, version, change) =
            if let Some(contents) = form::first_value(&pairs, "docContents") {
                if contents.len() > MAX_DOC_BYTES {
                    return Response::error(413, "document exceeds 500kB limit");
                }
                let version = match self.store.put_full(doc_id, contents.as_bytes()) {
                    Ok(v) => v,
                    Err(e) => return store_error(&e),
                };
                (
                    Cow::Borrowed(contents.as_bytes()),
                    version,
                    SaveChange::Full(contents.to_string()),
                )
            } else if let Some(delta_text) = form::first_value(&pairs, "delta") {
                let Ok(delta) = Delta::parse(delta_text) else {
                    return Response::error(400, "malformed delta");
                };
                // `baseVersion` is the client's optimistic-concurrency
                // precondition: reject the delta (409) unless the document
                // is still at the version it was computed against. Checked
                // atomically with the apply — a racing save cannot slip
                // between check and write.
                let base_version = form::first_value(&pairs, "baseVersion")
                    .and_then(|v| v.parse::<u64>().ok());
                let limits = DeltaLimits {
                    max_len: MAX_DOC_BYTES,
                    require_utf8: true,
                    base_version,
                };
                match self.store.apply_delta(doc_id, &delta, limits) {
                    Ok(state) => (
                        Cow::Owned(state.content),
                        state.version,
                        SaveChange::Delta(delta_text.to_string()),
                    ),
                    Err(e) => return store_error(&e),
                }
            } else {
                return Response::error(400, "save needs docContents or delta");
            };
        self.publish_save(doc_id, version, &change);
        // The Ack conveys "the current content to the best of the
        // server's knowledge" (§IV-A). Like the real service, the content
        // field stays empty on ordinary saves (the client already holds
        // the content); the hash is what collaboration coordination uses.
        // `version` is the change-stream sequence this save landed at.
        let hash = Self::content_hash(&String::from_utf8_lossy(&stored));
        Response::ok(form::encode_pairs(&[
            ("contentFromServer", ""),
            ("contentFromServerHash", hash.as_str()),
            ("version", version.to_string().as_str()),
        ]))
    }

    fn load(&self, doc_id: &str, caller_hash: Option<&str>) -> Response {
        let Some(doc) = self.store.get(doc_id) else {
            return Response::error(404, "no such document");
        };
        let content = String::from_utf8_lossy(&doc.content);
        let hash = Self::content_hash(&content);
        let version = doc.version.to_string();
        // 304-style fast path for passive readers: when the caller already
        // holds the current content (hashes match), skip the body.
        if caller_hash == Some(hash.as_str()) {
            pe_observe::static_counter!("docs.load_unchanged").inc();
            return Response::ok(form::encode_pairs(&[
                ("unchanged", "1"),
                ("contentHash", hash.as_str()),
                ("version", version.as_str()),
            ]));
        }
        Response::ok(form::encode_pairs(&[
            ("content", content.as_ref()),
            ("contentHash", hash.as_str()),
            ("version", version.as_str()),
        ]))
    }

    fn spell_check(&self, doc_id: &str) -> Response {
        let Some(content) = self.stored_content(doc_id) else {
            return Response::error(404, "no such document");
        };
        let misspelled: Vec<String> = content
            .split(|c: char| !c.is_alphabetic())
            .filter(|w| !w.is_empty())
            .map(str::to_lowercase)
            .filter(|w| !DICTIONARY.contains(&w.as_str()))
            .collect();
        let mut unique = misspelled;
        unique.sort();
        unique.dedup();
        Response::ok(form::encode_pairs(&[("misspelled", unique.join(",").as_str())]))
    }

    fn translate(&self, doc_id: &str) -> Response {
        let Some(content) = self.stored_content(doc_id) else {
            return Response::error(404, "no such document");
        };
        // A toy "translation": pig latin, word by word. Stands in for the
        // real service's plaintext-dependent translation feature.
        let translated: String =
            content.split(' ').map(pig_latin).collect::<Vec<_>>().join(" ");
        Response::ok(form::encode_pairs(&[("translated", translated.as_str())]))
    }

    fn export(&self, doc_id: &str, format: &str) -> Response {
        let Some(content) = self.stored_content(doc_id) else {
            return Response::error(404, "no such document");
        };
        match format {
            "txt" => Response::ok(content),
            "upper" => Response::ok(content.to_uppercase()),
            _ => Response::error(400, "unknown export format"),
        }
    }

    fn drawing(&self, body: &str) -> Response {
        // The real service rendered drawing primitives server-side. The
        // request body itself carries plaintext, which is why the mediator
        // must block this path.
        Response::ok(format!("rendered:{body}"))
    }
}

/// Pig-latin translation of a single word (punctuation passes through).
fn pig_latin(word: &str) -> String {
    let mut chars = word.chars();
    match chars.next() {
        Some(first) if first.is_alphabetic() => {
            format!("{}{}ay", chars.as_str(), first.to_lowercase())
        }
        _ => word.to_string(),
    }
}

impl CloudService for DocsServer {
    fn handle(&self, request: &Request) -> Response {
        let doc_id = request.query_param("docID").unwrap_or("");
        let response = match (request.method, request.path.as_str()) {
            (crate::Method::Post, "/Doc") => match request.query_param("cmd") {
                Some("create") => self.create(),
                Some("open") => self.open(doc_id),
                None => {
                    self.save(doc_id, request.body_text().unwrap_or(""))
                }
                Some(other) => Response::error(400, &format!("unknown command {other}")),
            },
            (crate::Method::Get, "/Doc/load") => {
                self.load(doc_id, request.query_param("hash"))
            }
            (crate::Method::Get, "/tenant/record") => self.tenant_record_get(request),
            (crate::Method::Post, "/tenant/record") => self.tenant_record_post(request),
            (crate::Method::Post, "/tenant/verify") => self.tenant_verify(request),
            (crate::Method::Get, "/tenant/list") => self.tenant_list(request),
            (crate::Method::Get, "/Doc/revisions") => {
                self.revisions(doc_id, request.query_param("index"))
            }
            (crate::Method::Post, "/spell") => self.spell_check(doc_id),
            (crate::Method::Post, "/translate") => self.translate(doc_id),
            (crate::Method::Get, "/export") => {
                self.export(doc_id, request.query_param("format").unwrap_or("txt"))
            }
            (crate::Method::Post, "/drawing") => {
                self.drawing(request.body_text().unwrap_or(""))
            }
            _ => Response::error(404, "unknown endpoint"),
        };
        pe_observe::static_counter!("cloud.requests").inc();
        pe_observe::counter(&format!(
            "cloud.req.{}.{}xx",
            request.path,
            response.status / 100
        ))
        .inc();
        response
    }

    fn name(&self) -> &'static str {
        "google-documents"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn create_doc(server: &DocsServer) -> String {
        let resp = server.handle(&Request::post("/Doc", &[("cmd", "create")], ""));
        let pairs = form::parse_pairs(resp.body_text().unwrap()).unwrap();
        form::first_value(&pairs, "docID").unwrap().to_string()
    }

    fn save_contents(server: &DocsServer, doc: &str, contents: &str) -> Response {
        let body = form::encode_pairs(&[("docContents", contents)]);
        server.handle(&Request::post("/Doc", &[("docID", doc)], body))
    }

    fn save_delta(server: &DocsServer, doc: &str, delta: &str) -> Response {
        let body = form::encode_pairs(&[("delta", delta)]);
        server.handle(&Request::post("/Doc", &[("docID", doc)], body))
    }

    #[test]
    fn create_open_save_cycle() {
        let server = DocsServer::new();
        let doc = create_doc(&server);
        let resp = save_contents(&server, &doc, "hello world");
        assert!(resp.is_success());
        assert_eq!(server.stored_content(&doc).unwrap(), "hello world");
        let open = server.handle(&Request::post("/Doc", &[("docID", &doc), ("cmd", "open")], ""));
        let pairs = form::parse_pairs(open.body_text().unwrap()).unwrap();
        assert_eq!(form::first_value(&pairs, "content"), Some("hello world"));
    }

    #[test]
    fn delta_saves_apply_incrementally() {
        let server = DocsServer::new();
        let doc = create_doc(&server);
        save_contents(&server, &doc, "abcdefg");
        // The paper's example: "=2 -3 +uv =2 +w" turns abcdefg into abuvfgw.
        let resp = save_delta(&server, &doc, "=2\t-3\t+uv\t=2\t+w");
        assert!(resp.is_success());
        assert_eq!(server.stored_content(&doc).unwrap(), "abuvfgw");
        assert_eq!(server.stored_version(&doc), Some(2));
    }

    #[test]
    fn ack_carries_hash_of_stored_content() {
        let server = DocsServer::new();
        let doc = create_doc(&server);
        let resp = save_contents(&server, &doc, "content");
        let pairs = form::parse_pairs(resp.body_text().unwrap()).unwrap();
        assert_eq!(form::first_value(&pairs, "contentFromServer"), Some(""));
        assert_eq!(
            form::first_value(&pairs, "contentFromServerHash"),
            Some(DocsServer::content_hash("content").as_str())
        );
    }

    #[test]
    fn bad_delta_is_a_conflict() {
        let server = DocsServer::new();
        let doc = create_doc(&server);
        save_contents(&server, &doc, "short");
        let resp = save_delta(&server, &doc, "=100\t-1");
        assert_eq!(resp.status, 409);
        // Content unchanged on conflict.
        assert_eq!(server.stored_content(&doc).unwrap(), "short");
    }

    #[test]
    fn size_limit_enforced() {
        let server = DocsServer::new();
        let doc = create_doc(&server);
        let huge = "x".repeat(MAX_DOC_BYTES + 1);
        assert_eq!(save_contents(&server, &doc, &huge).status, 413);
        save_contents(&server, &doc, "small");
        let grow = format!("+{}", "y".repeat(MAX_DOC_BYTES));
        assert_eq!(save_delta(&server, &doc, &grow).status, 413);
    }

    #[test]
    fn unknown_document_is_404() {
        let server = DocsServer::new();
        assert_eq!(save_contents(&server, "nope", "x").status, 404);
        assert_eq!(server.handle(&Request::get("/Doc/load", &[("docID", "nope")])).status, 404);
    }

    #[test]
    fn spell_check_flags_unknown_words() {
        let server = DocsServer::new();
        let doc = create_doc(&server);
        save_contents(&server, &doc, "the quick brown fox zzyzx");
        let resp = server.handle(&Request::post("/spell", &[("docID", &doc)], ""));
        let pairs = form::parse_pairs(resp.body_text().unwrap()).unwrap();
        assert_eq!(form::first_value(&pairs, "misspelled"), Some("zzyzx"));
    }

    #[test]
    fn spell_check_on_ciphertext_flags_everything() {
        let server = DocsServer::new();
        let doc = create_doc(&server);
        // Simulates what the server sees under the extension.
        save_contents(&server, &doc, "MZXW6YTB OI2DKNRU GEZDGNBV");
        let resp = server.handle(&Request::post("/spell", &[("docID", &doc)], ""));
        let pairs = form::parse_pairs(resp.body_text().unwrap()).unwrap();
        // Digits split the Base32 tokens, so more fragments than "words"
        // are flagged — the point is that nothing passes the dictionary.
        let flagged = form::first_value(&pairs, "misspelled").unwrap();
        assert!(flagged.split(',').count() >= 3, "ciphertext must be flagged: {flagged}");
    }

    #[test]
    fn translate_and_export() {
        let server = DocsServer::new();
        let doc = create_doc(&server);
        save_contents(&server, &doc, "hello world");
        let resp = server.handle(&Request::post("/translate", &[("docID", &doc)], ""));
        let pairs = form::parse_pairs(resp.body_text().unwrap()).unwrap();
        assert_eq!(form::first_value(&pairs, "translated"), Some("ellohay orldway"));
        let resp =
            server.handle(&Request::get("/export", &[("docID", &doc), ("format", "upper")]));
        assert_eq!(resp.body_text(), Some("HELLO WORLD"));
    }

    #[test]
    fn drawing_renders_primitives() {
        let server = DocsServer::new();
        let resp = server.handle(&Request::post("/drawing", &[], "circle(3,4,5)"));
        assert_eq!(resp.body_text(), Some("rendered:circle(3,4,5)"));
    }

    #[test]
    fn revision_history_is_kept() {
        let server = DocsServer::new();
        let doc = create_doc(&server);
        save_contents(&server, &doc, "v1");
        save_delta(&server, &doc, "+x");
        save_contents(&server, &doc, "v3");
        // History: "", "v1", "xv1".
        let revisions = server.stored_revisions(&doc).unwrap();
        assert_eq!(revisions, vec!["".to_string(), "v1".to_string(), "xv1".to_string()]);
        let resp = server.handle(&Request::get("/Doc/revisions", &[("docID", &doc)]));
        let pairs = form::parse_pairs(resp.body_text().unwrap()).unwrap();
        assert_eq!(form::first_value(&pairs, "revisionCount"), Some("3"));
        let resp = server
            .handle(&Request::get("/Doc/revisions", &[("docID", &doc), ("index", "1")]));
        let pairs = form::parse_pairs(resp.body_text().unwrap()).unwrap();
        assert_eq!(form::first_value(&pairs, "content"), Some("v1"));
        let resp = server
            .handle(&Request::get("/Doc/revisions", &[("docID", &doc), ("index", "9")]));
        assert_eq!(resp.status, 404);
    }

    #[test]
    fn version_counts_saves() {
        let server = DocsServer::new();
        let doc = create_doc(&server);
        save_contents(&server, &doc, "v1");
        save_delta(&server, &doc, "+x");
        save_delta(&server, &doc, "+y");
        assert_eq!(server.stored_version(&doc), Some(3));
    }

    #[test]
    fn ack_and_load_carry_version() {
        let server = DocsServer::new();
        let doc = create_doc(&server);
        let resp = save_contents(&server, &doc, "v1");
        let pairs = form::parse_pairs(resp.body_text().unwrap()).unwrap();
        assert_eq!(form::first_value(&pairs, "version"), Some("1"));
        let resp = save_delta(&server, &doc, "+x");
        let pairs = form::parse_pairs(resp.body_text().unwrap()).unwrap();
        assert_eq!(form::first_value(&pairs, "version"), Some("2"));
        let resp = server.handle(&Request::get("/Doc/load", &[("docID", &doc)]));
        let pairs = form::parse_pairs(resp.body_text().unwrap()).unwrap();
        assert_eq!(form::first_value(&pairs, "version"), Some("2"));
    }

    #[test]
    fn load_with_matching_hash_skips_body() {
        let server = DocsServer::new();
        let doc = create_doc(&server);
        save_contents(&server, &doc, "cached content");
        let hash = DocsServer::content_hash("cached content");
        let resp =
            server.handle(&Request::get("/Doc/load", &[("docID", &doc), ("hash", &hash)]));
        let pairs = form::parse_pairs(resp.body_text().unwrap()).unwrap();
        assert_eq!(form::first_value(&pairs, "unchanged"), Some("1"));
        assert_eq!(form::first_value(&pairs, "contentHash"), Some(hash.as_str()));
        assert_eq!(form::first_value(&pairs, "content"), None, "body must be skipped");
        // A stale hash still gets the full body.
        let resp =
            server.handle(&Request::get("/Doc/load", &[("docID", &doc), ("hash", "stale")]));
        let pairs = form::parse_pairs(resp.body_text().unwrap()).unwrap();
        assert_eq!(form::first_value(&pairs, "content"), Some("cached content"));
        assert_eq!(form::first_value(&pairs, "unchanged"), None);
    }

    #[test]
    fn save_listener_sees_accepted_saves_only() {
        struct Recorder(std::sync::Mutex<Vec<(String, u64, String)>>);
        impl SaveListener for Recorder {
            fn on_save(&self, doc_id: &str, seq: u64, change: &SaveChange) {
                let kind = match change {
                    SaveChange::Full(c) => format!("full:{c}"),
                    SaveChange::Delta(d) => format!("delta:{d}"),
                };
                self.0.lock().unwrap().push((doc_id.to_string(), seq, kind));
            }
        }
        let server = DocsServer::new();
        let recorder = Arc::new(Recorder(std::sync::Mutex::new(Vec::new())));
        server.set_save_listener(recorder.clone());
        let doc = create_doc(&server);
        save_contents(&server, &doc, "v1");
        save_delta(&server, &doc, "+x");
        save_delta(&server, &doc, "=100\t-1"); // conflict: must not publish
        let events = recorder.0.lock().unwrap().clone();
        assert_eq!(
            events,
            vec![
                (doc.clone(), 1, "full:v1".to_string()),
                (doc.clone(), 2, "delta:+x".to_string()),
            ]
        );
    }

    #[test]
    fn durable_store_survives_a_server_restart() {
        let dir = std::env::temp_dir().join(format!(
            "pe-docs-durable-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let doc;
        {
            let store: Arc<dyn DocStore> = Arc::new(
                pe_store::ShardedLogStore::open(&dir, 1, pe_store::StoreConfig::default())
                    .unwrap(),
            );
            let server = DocsServer::with_store(store);
            doc = create_doc(&server);
            save_contents(&server, &doc, "survives");
            save_delta(&server, &doc, "=8\t+ the crash");
        }
        let store: Arc<dyn DocStore> = Arc::new(
            pe_store::ShardedLogStore::open(&dir, 1, pe_store::StoreConfig::default()).unwrap(),
        );
        let server = DocsServer::with_store(store);
        assert_eq!(server.stored_content(&doc).unwrap(), "survives the crash");
        assert_eq!(server.stored_version(&doc), Some(2));
        assert_eq!(
            server.stored_revisions(&doc).unwrap(),
            vec!["".to_string(), "survives".to_string()]
        );
        // Fresh ids continue past the restart.
        let second = create_doc(&server);
        assert_ne!(second, doc);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
