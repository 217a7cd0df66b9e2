//! The Google-Documents mediator: Figure 2's `onModifyRequest`, in Rust.

use std::collections::HashMap;
use std::time::Duration;

use pe_cloud::{CloudService, Method, Request, Response};
use pe_core::wire::Preamble;
use pe_core::{
    DeltaTransformer, DocumentKey, IncrementalCipherDoc, Mode, RecbDocument, RpcDocument,
};
use pe_crypto::drbg::NonceSource;
use pe_crypto::form;
use pe_crypto::sha256::Sha256;
use pe_crypto::{hex, CtrDrbg, SystemRandom};
use pe_delta::{diff, Delta};
use pe_tenant::{ServiceRecords, Session, TenantDirectory};

use crate::countermeasures;
use crate::error::ExtensionError;
use crate::keyring::Keyring;
use crate::MediatorConfig;

/// What the mediator did with a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Forwarded unchanged (no document content involved).
    PassedThrough,
    /// Document content was encrypted before forwarding.
    Encrypted,
    /// Server content was decrypted in the response.
    Decrypted,
    /// The request was dropped; it never reached the server.
    Blocked,
}

/// The mediator's result for one request.
#[derive(Debug, Clone)]
pub struct Mediated {
    /// The (possibly rewritten) response the client sees.
    pub response: Response,
    /// What happened to the request.
    pub outcome: Outcome,
    /// Delay the random-delay countermeasure asks the caller to add
    /// before the request is considered sent (zero when disabled).
    pub suggested_delay: Duration,
}

/// Per-document cryptographic state held by the extension (the paper: the
/// `enc_scheme` object "maintains a copy of the state of the ciphertext
/// document which is needed to transform the delta").
struct DocState {
    transformer: DeltaTransformer<Box<dyn IncrementalCipherDoc + Send>>,
    /// Plaintext mirror; used for delta canonicalization and response
    /// rewriting.
    plaintext: String,
    /// Whether the server currently holds our ciphertext (the first save
    /// of a session must be a full `docContents` save).
    synced: bool,
    /// Server version the mirror corresponds to, when known. Attached to
    /// delta saves as the `baseVersion` precondition: the ciphertext
    /// delta was computed against exactly this version of the server
    /// copy, so the server must reject it (409) if a collaborator's save
    /// landed in between — a stale ciphertext delta that still happens to
    /// *apply* would silently destroy the concurrent change.
    version: Option<u64>,
}

/// The privacy mediator for the Google-Documents-style service.
///
/// See the [crate docs](crate) for an end-to-end example.
pub struct DocsMediator<S> {
    server: S,
    config: MediatorConfig,
    keyring: Keyring,
    docs: HashMap<String, DocState>,
    /// Logged-in tenant user, when the multi-tenant key path is in use.
    tenant: Option<Session>,
    rng: Box<dyn NonceSource + Send>,
}

impl<S> std::fmt::Debug for DocsMediator<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DocsMediator")
            .field("documents", &self.docs.len())
            .field("config", &self.config)
            .finish_non_exhaustive()
    }
}

impl<S: CloudService> DocsMediator<S> {
    /// Creates a mediator in front of `server` using system randomness.
    pub fn new(server: S, config: MediatorConfig) -> DocsMediator<S> {
        DocsMediator::with_rng(server, config, SystemRandom::new())
    }

    /// Creates a mediator with an explicit nonce source (deterministic
    /// tests and benchmarks).
    pub fn with_rng<R>(server: S, config: MediatorConfig, rng: R) -> DocsMediator<S>
    where
        R: NonceSource + Send + 'static,
    {
        DocsMediator {
            server,
            config,
            keyring: Keyring::new(config.kdf_iterations),
            docs: HashMap::new(),
            tenant: None,
            rng: Box::new(rng),
        }
    }

    /// Registers the user's password for a document (the paper's password
    /// dialog).
    pub fn register_password(&mut self, doc_id: &str, password: &str) {
        self.keyring.register(doc_id, password);
    }

    /// The plaintext the extension currently believes the document holds.
    pub fn plaintext(&self, doc_id: &str) -> Option<&str> {
        self.docs.get(doc_id).map(|d| d.plaintext.as_str())
    }

    /// Access to the wrapped server (tests, benchmarks).
    pub fn server(&self) -> &S {
        &self.server
    }

    fn fork_rng(&mut self) -> CtrDrbg {
        let mut seed = [0u8; 16];
        self.rng.fill_bytes(&mut seed);
        CtrDrbg::new(seed)
    }

    fn make_doc(
        &mut self,
        key: &DocumentKey,
        plaintext: &[u8],
    ) -> Result<Box<dyn IncrementalCipherDoc + Send>, ExtensionError> {
        let rng = self.fork_rng();
        let params = self.config.params;
        Ok(match params.mode {
            Mode::Recb => Box::new(RecbDocument::create(key, params, plaintext, rng)?),
            Mode::Rpc => Box::new(RpcDocument::create(key, params, plaintext, rng)?),
        })
    }

    fn open_doc(
        &mut self,
        key: &DocumentKey,
        serialized: &str,
        mode: Mode,
    ) -> Result<Box<dyn IncrementalCipherDoc + Send>, ExtensionError> {
        let rng = self.fork_rng();
        Ok(match mode {
            Mode::Recb => Box::new(RecbDocument::open(key, serialized, rng)?),
            Mode::Rpc => Box::new(RpcDocument::open(key, serialized, rng)?),
        })
    }

    /// Fetches the document's data key from the tenant directory (the
    /// logged-in user must hold a grant), derives the [`DocumentKey`] for
    /// `salt`, and caches it in the keyring. Fails closed when the user
    /// holds no grant — a revoked editor cannot rebuild the key.
    fn tenant_key(&mut self, doc_id: &str, salt: [u8; 16]) -> Result<DocumentKey, ExtensionError> {
        let Some(session) = self.tenant.as_ref() else {
            return Err(ExtensionError::NoPassword { doc_id: doc_id.to_string() });
        };
        let data_key = TenantDirectory::new(ServiceRecords::new(&self.server))
            .data_key(session, doc_id)?;
        let key = data_key.document_key(salt);
        self.keyring.register_key(doc_id, key.clone());
        Ok(key)
    }

    /// Ensures crypto state exists for a registered document, building it
    /// from `server_content` when that holds our ciphertext. The server's
    /// string becomes the ciphertext mirror as is: a document that opens
    /// serializes back to exactly the string it was opened from.
    fn ensure_state(
        &mut self,
        doc_id: &str,
        server_content: Option<String>,
    ) -> Result<(), ExtensionError> {
        if self.docs.contains_key(doc_id) {
            return Ok(());
        }
        if !self.keyring.has(doc_id) && self.tenant.is_none() {
            return Err(ExtensionError::NoPassword { doc_id: doc_id.to_string() });
        }
        let state = match server_content {
            Some(content) if !content.is_empty() => {
                let preamble = Preamble::parse(&content)?;
                let key = match self.keyring.derive_existing(doc_id, &preamble.salt) {
                    Some(key) => key,
                    None => self.tenant_key(doc_id, preamble.salt)?,
                };
                let doc = self.open_doc(&key, &content, preamble.mode)?;
                let plaintext = String::from_utf8(doc.decrypt()?).map_err(|_| {
                    ExtensionError::BadResponse { detail: "document is not text".into() }
                })?;
                DocState {
                    transformer: DeltaTransformer::from_serialized(doc, content),
                    plaintext,
                    synced: true,
                    version: None,
                }
            }
            _ => {
                let mut rng = self.fork_rng();
                let key = match self.keyring.derive_new(doc_id, &mut rng) {
                    Some(key) => key,
                    None => {
                        let mut salt = [0u8; 16];
                        rng.fill_bytes(&mut salt);
                        self.tenant_key(doc_id, salt)?
                    }
                };
                let doc = self.make_doc(&key, b"")?;
                DocState {
                    transformer: DeltaTransformer::new(doc),
                    plaintext: String::new(),
                    synced: false,
                    version: None,
                }
            }
        };
        self.docs.insert(doc_id.to_string(), state);
        Ok(())
    }

    /// The Figure-2 interception entry point: every client request goes
    /// through here; the result tells the caller what the client sees.
    ///
    /// # Errors
    ///
    /// Returns an error when cryptographic state is missing or fails
    /// (no password, wrong password, tampered ciphertext). Unknown
    /// requests are not errors — they come back [`Outcome::Blocked`].
    pub fn intercept(&mut self, request: &Request) -> Result<Mediated, ExtensionError> {
        pe_observe::static_counter!("mediator.requests").inc();
        let result = self.intercept_inner(request);
        match &result {
            Ok(mediated) => pe_observe::counter(match mediated.outcome {
                Outcome::PassedThrough => "mediator.outcome.passed_through",
                Outcome::Encrypted => "mediator.outcome.encrypted",
                Outcome::Decrypted => "mediator.outcome.decrypted",
                Outcome::Blocked => "mediator.outcome.blocked",
            })
            .inc(),
            Err(_) => pe_observe::static_counter!("mediator.errors").inc(),
        }
        result
    }

    fn intercept_inner(&mut self, request: &Request) -> Result<Mediated, ExtensionError> {
        match (request.method, request.path.as_str()) {
            (Method::Post, "/Doc") => match request.query_param("cmd") {
                Some("create") => Ok(self.passthrough(request)),
                Some("open") => self.handle_open(request),
                None => self.handle_save(request),
                Some(_) => Ok(self.blocked()),
            },
            (Method::Get, "/Doc/load") => self.handle_load(request),
            (Method::Get, "/Doc/changes") => self.handle_changes(request),
            // Presence is sealed client-side (the live session encrypts
            // editor name and cursor before it ever reaches this layer),
            // so the mediator forwards the opaque blobs unchanged.
            (Method::Post, "/Doc/presence") | (Method::Get, "/Doc/presence") => {
                Ok(self.passthrough(request))
            }
            (Method::Get, "/Doc/revisions") => self.handle_revisions(request),
            // Content-oblivious feature requests: forwarding reveals
            // nothing beyond the stored ciphertext. The features simply
            // stop working (§VII-A).
            (Method::Post, "/spell") | (Method::Post, "/translate") | (Method::Get, "/export") => {
                Ok(self.passthrough(request))
            }
            // Everything else — including /drawing, whose request body
            // carries plaintext primitives — is dropped.
            _ => Ok(self.blocked()),
        }
    }

    fn passthrough(&mut self, request: &Request) -> Mediated {
        Mediated {
            response: self.server.handle(request),
            outcome: Outcome::PassedThrough,
            suggested_delay: Duration::ZERO,
        }
    }

    fn blocked(&self) -> Mediated {
        Mediated {
            response: Response::error(403, "blocked by privacy extension"),
            outcome: Outcome::Blocked,
            suggested_delay: Duration::ZERO,
        }
    }

    fn delay(&mut self) -> Duration {
        if self.config.random_delay {
            countermeasures::suggested_delay(&mut self.rng)
        } else {
            Duration::ZERO
        }
    }

    /// Rewrites an open/load response so the client sees plaintext.
    fn decrypt_content_response(
        &mut self,
        doc_id: &str,
        response: Response,
    ) -> Result<Mediated, ExtensionError> {
        if !response.is_success() {
            return Ok(Mediated {
                response,
                outcome: Outcome::PassedThrough,
                suggested_delay: Duration::ZERO,
            });
        }
        let body = response.body_text().ok_or_else(|| ExtensionError::BadResponse {
            detail: "response body is not text".into(),
        })?;
        let mut pairs = form::parse_pairs(body).map_err(|e| ExtensionError::BadResponse {
            detail: format!("unparseable response form: {e}"),
        })?;
        if !self.keyring.has(doc_id) && self.tenant.is_none() {
            // No password: the user sees raw ciphertext, as the paper
            // describes for parties without the password.
            return Ok(Mediated {
                response,
                outcome: Outcome::PassedThrough,
                suggested_delay: Duration::ZERO,
            });
        }
        // The ciphertext moves into the mirror; the rewrite below puts
        // the plaintext in its place.
        let content = pairs
            .iter_mut()
            .find(|(k, _)| k == "content")
            .map(|(_, v)| std::mem::take(v))
            .unwrap_or_default();
        // Rebuild state from the authoritative server copy (it may have
        // been changed by a collaborator).
        self.docs.remove(doc_id);
        {
            let _timed = pe_observe::static_histogram!("mediator.decrypt_ns").span();
            self.ensure_state(doc_id, Some(content))?;
        }
        let version = form::first_value(&pairs, "version").and_then(|v| v.parse().ok());
        let state = self.docs.get_mut(doc_id).expect("ensured above");
        state.version = version;
        let plaintext = state.plaintext.as_str();
        let hash = hex::encode(&Sha256::digest(plaintext.as_bytes())[..8]);
        let rewritten: Vec<(&str, &str)> = pairs
            .iter()
            .map(|(k, v)| match k.as_str() {
                "content" => (k.as_str(), plaintext),
                "contentHash" => (k.as_str(), hash.as_str()),
                _ => (k.as_str(), v.as_str()),
            })
            .collect();
        Ok(Mediated {
            response: Response::ok(form::encode_pairs(&rewritten)),
            outcome: Outcome::Decrypted,
            suggested_delay: Duration::ZERO,
        })
    }

    fn handle_open(&mut self, request: &Request) -> Result<Mediated, ExtensionError> {
        let doc_id = request.query_param("docID").unwrap_or("").to_string();
        let response = self.server.handle(request);
        self.decrypt_content_response(&doc_id, response)
    }

    fn handle_load(&mut self, request: &Request) -> Result<Mediated, ExtensionError> {
        let doc_id = request.query_param("docID").unwrap_or("").to_string();
        let response = self.server.handle(request);
        self.decrypt_content_response(&doc_id, response)
    }

    /// Revision history: the request is content-oblivious, so it is
    /// forwarded; when the response carries a revision body the mediator
    /// decrypts it (each revision's preamble carries its own salt, so
    /// revisions from before a password rotation decrypt only if the user
    /// still knows that password — see [`Self::change_password`]).
    fn handle_revisions(&mut self, request: &Request) -> Result<Mediated, ExtensionError> {
        let doc_id = request.query_param("docID").unwrap_or("").to_string();
        let response = self.server.handle(request);
        if !response.is_success() {
            return Ok(Mediated {
                response,
                outcome: Outcome::PassedThrough,
                suggested_delay: Duration::ZERO,
            });
        }
        let Some(body) = response.body_text() else {
            return Ok(Mediated {
                response,
                outcome: Outcome::PassedThrough,
                suggested_delay: Duration::ZERO,
            });
        };
        let pairs = form::parse_pairs(body).map_err(|e| ExtensionError::BadResponse {
            detail: format!("revisions response: {e}"),
        })?;
        let Some(content) = form::first_value(&pairs, "content") else {
            // Count-only responses pass through untouched.
            return Ok(Mediated {
                response,
                outcome: Outcome::PassedThrough,
                suggested_delay: Duration::ZERO,
            });
        };
        // Attempt decryption; revisions that predate the current password
        // (or are empty) pass through as stored.
        let decrypted = {
            let _timed = pe_observe::static_histogram!("mediator.decrypt_ns").span();
            Preamble::parse(content).ok().and_then(|preamble| {
                let key = self.keyring.derive_existing(&doc_id, &preamble.salt)?;
                let doc = self.open_doc(&key, content, preamble.mode).ok()?;
                String::from_utf8(doc.decrypt().ok()?).ok()
            })
        };
        match decrypted {
            Some(plaintext) => Ok(Mediated {
                response: Response::ok(form::encode_pairs(&[("content", plaintext.as_str())])),
                outcome: Outcome::Decrypted,
                suggested_delay: Duration::ZERO,
            }),
            None => Ok(Mediated {
                response,
                outcome: Outcome::PassedThrough,
                suggested_delay: Duration::ZERO,
            }),
        }
    }

    /// Translates a `/Doc/changes` answer from the ciphertext stream the
    /// server fans out to the plaintext stream the live session expects.
    ///
    /// The mediator mirrors the server's ciphertext: each foreign
    /// ciphertext delta is applied to the cached ciphertext, the result
    /// is decrypted (MAC-checked), and the *plaintext* delta emitted to
    /// the client is the diff of the two decryptions — so the client's
    /// OT rebase works on exactly the change a plaintext server would
    /// have pushed. Anything that does not line up (no cached state, a
    /// delta that does not apply, a failed integrity check) degrades to
    /// a full-content resync rather than guessing.
    fn handle_changes(&mut self, request: &Request) -> Result<Mediated, ExtensionError> {
        let doc_id = request.query_param("docID").unwrap_or("").to_string();
        let response = self.server.handle(request);
        if !response.is_success() {
            return Ok(Mediated {
                response,
                outcome: Outcome::PassedThrough,
                suggested_delay: Duration::ZERO,
            });
        }
        if !self.keyring.has(&doc_id) && self.tenant.is_none() {
            // Without the password the stream is raw ciphertext, exactly
            // like an unkeyed open/load.
            return Ok(Mediated {
                response,
                outcome: Outcome::PassedThrough,
                suggested_delay: Duration::ZERO,
            });
        }
        let body = response.body_text().ok_or_else(|| ExtensionError::BadResponse {
            detail: "changes response is not text".into(),
        })?;
        let pairs = form::parse_pairs(body).map_err(|e| ExtensionError::BadResponse {
            detail: format!("unparseable changes form: {e}"),
        })?;
        let _timed = pe_observe::static_histogram!("mediator.decrypt_ns").span();
        if form::first_value(&pairs, "resync") == Some("1") {
            let content = form::first_value(&pairs, "content").unwrap_or("").to_string();
            self.docs.remove(&doc_id);
            self.ensure_state(&doc_id, Some(content))?;
            let seq = form::first_value(&pairs, "seq").and_then(|v| v.parse().ok());
            if let Some(state) = self.docs.get_mut(&doc_id) {
                state.version = seq;
            }
            let plaintext = self.docs[&doc_id].plaintext.clone();
            let hash = hex::encode(&Sha256::digest(plaintext.as_bytes())[..8]);
            let rewritten: Vec<(String, String)> = pairs
                .into_iter()
                .map(|(k, v)| match k.as_str() {
                    "content" => (k, plaintext.clone()),
                    "contentHash" => (k, hash.clone()),
                    _ => (k, v),
                })
                .collect();
            pe_observe::static_counter!("mediator.changes_resyncs").inc();
            return Ok(Mediated {
                response: Response::ok(form::encode_pairs(&rewritten)),
                outcome: Outcome::Decrypted,
                suggested_delay: Duration::ZERO,
            });
        }
        let mut rewritten: Vec<(String, String)> = Vec::with_capacity(pairs.len());
        for (k, v) in &pairs {
            if k != "change" {
                rewritten.push((k.clone(), v.clone()));
                continue;
            }
            match self.translate_change(&doc_id, v) {
                Ok(entry) => rewritten.push((k.clone(), entry)),
                Err(_) => {
                    // Could not track the stream incrementally: degrade
                    // to an authoritative full-content resync.
                    pe_observe::static_counter!("mediator.changes_fallbacks").inc();
                    return self.changes_resync_fallback(&doc_id, &pairs);
                }
            }
        }
        pe_observe::static_counter!("mediator.changes_translated").inc();
        Ok(Mediated {
            response: Response::ok(form::encode_pairs(&rewritten)),
            outcome: Outcome::Decrypted,
            suggested_delay: Duration::ZERO,
        })
    }

    /// Translates one `"{seq}:{kind}:{payload}"` ciphertext stream entry
    /// into its plaintext counterpart, advancing the cached mirror.
    fn translate_change(&mut self, doc_id: &str, entry: &str) -> Result<String, ExtensionError> {
        let mut parts = entry.splitn(3, ':');
        let (seq, kind, payload) = match (parts.next(), parts.next(), parts.next()) {
            (Some(seq), Some(kind), Some(payload)) => (seq, kind, payload),
            _ => {
                return Err(ExtensionError::BadResponse {
                    detail: format!("malformed change entry: {entry}"),
                })
            }
        };
        match kind {
            "full" => {
                // A collaborator's full save: rebuild the mirror from it
                // and hand the client the decrypted content.
                self.docs.remove(doc_id);
                self.ensure_state(doc_id, Some(payload.to_string()))?;
                if let Some(state) = self.docs.get_mut(doc_id) {
                    state.version = seq.parse().ok();
                }
                let plaintext = self.docs[doc_id].plaintext.clone();
                Ok(format!("{seq}:full:{plaintext}"))
            }
            "delta" => {
                let cdelta = Delta::parse(payload)?;
                let (old_plain, new_cipher) = {
                    let state = self.docs.get(doc_id).ok_or_else(|| {
                        ExtensionError::BadResponse {
                            detail: "ciphertext delta without cached state".into(),
                        }
                    })?;
                    let updated =
                        cdelta.apply_bytes(state.transformer.ciphertext().as_bytes())?;
                    let new_cipher = String::from_utf8(updated).map_err(|_| {
                        ExtensionError::BadResponse {
                            detail: "foreign delta produced invalid ciphertext".into(),
                        }
                    })?;
                    (state.plaintext.clone(), new_cipher)
                };
                let preamble = Preamble::parse(&new_cipher)?;
                let key = match self.keyring.derive_existing(doc_id, &preamble.salt) {
                    Some(key) => key,
                    None => self.tenant_key(doc_id, preamble.salt)?,
                };
                let doc = self.open_doc(&key, &new_cipher, preamble.mode)?;
                let new_plain = String::from_utf8(doc.decrypt()?).map_err(|_| {
                    ExtensionError::BadResponse { detail: "document is not text".into() }
                })?;
                let pdelta = diff(&old_plain, &new_plain);
                let state = self.docs.get_mut(doc_id).expect("state checked above");
                state.transformer = DeltaTransformer::from_serialized(doc, new_cipher);
                state.plaintext = new_plain;
                state.synced = true;
                state.version = seq.parse().ok();
                Ok(format!("{seq}:delta:{}", pdelta.serialize()))
            }
            other => Err(ExtensionError::BadResponse {
                detail: format!("unknown change kind: {other}"),
            }),
        }
    }

    /// Fallback when the ciphertext stream cannot be tracked: fetch the
    /// authoritative content, decrypt it, and answer the poll as a
    /// resync at the stream's head.
    fn changes_resync_fallback(
        &mut self,
        doc_id: &str,
        pairs: &[(String, String)],
    ) -> Result<Mediated, ExtensionError> {
        let load =
            self.server.handle(&Request::get("/Doc/load", &[("docID", doc_id)]));
        if !load.is_success() {
            return Ok(Mediated {
                response: load,
                outcome: Outcome::PassedThrough,
                suggested_delay: Duration::ZERO,
            });
        }
        let body = load.body_text().ok_or_else(|| ExtensionError::BadResponse {
            detail: "load response is not text".into(),
        })?;
        let load_pairs = form::parse_pairs(body).map_err(|e| ExtensionError::BadResponse {
            detail: format!("unparseable load form: {e}"),
        })?;
        let content = form::first_value(&load_pairs, "content").unwrap_or("").to_string();
        self.docs.remove(doc_id);
        self.ensure_state(doc_id, Some(content))?;
        // Resume from the *loaded* version when the server reports one —
        // the load may already include changes past the stream's head.
        let seq = form::first_value(&load_pairs, "version")
            .or_else(|| form::first_value(pairs, "seq"))
            .unwrap_or("0");
        if let Some(state) = self.docs.get_mut(doc_id) {
            state.version = seq.parse().ok();
        }
        let plaintext = self.docs[doc_id].plaintext.clone();
        let hash = hex::encode(&Sha256::digest(plaintext.as_bytes())[..8]);
        let mut rewritten: Vec<(&str, &str)> = vec![
            ("resync", "1"),
            ("seq", seq),
            ("contentHash", &hash),
            ("content", &plaintext),
        ];
        for (k, v) in pairs {
            if k == "presence" {
                rewritten.push(("presence", v));
            }
        }
        Ok(Mediated {
            response: Response::ok(form::encode_pairs(&rewritten)),
            outcome: Outcome::Decrypted,
            suggested_delay: Duration::ZERO,
        })
    }

    fn handle_save(&mut self, request: &Request) -> Result<Mediated, ExtensionError> {
        let doc_id = request.query_param("docID").unwrap_or("").to_string();
        let Some(body) = request.body_text() else {
            return Ok(self.blocked());
        };
        let Ok(pairs) = form::parse_pairs(body) else {
            return Ok(self.blocked());
        };
        if let Some(contents) = form::first_value(&pairs, "docContents") {
            self.full_save(&doc_id, request, contents)
        } else if let Some(delta_text) = form::first_value(&pairs, "delta") {
            let delta = Delta::parse(delta_text)?;
            self.delta_save(&doc_id, request, &delta)
        } else {
            // Unknown save shape: drop it (Fig. 2's `dropRequest`).
            Ok(self.blocked())
        }
    }

    fn full_save(
        &mut self,
        doc_id: &str,
        request: &Request,
        contents: &str,
    ) -> Result<Mediated, ExtensionError> {
        self.ensure_state(doc_id, None)?;
        let pad = self.config.pad_updates.then(|| countermeasures::padding_field(&mut self.rng));
        let state = self.docs.get_mut(doc_id).expect("ensured above");
        {
            let _timed = pe_observe::static_histogram!("mediator.encrypt_ns").span();
            state.transformer.replace_all(contents.as_bytes())?;
        }
        state.plaintext = contents.to_string();
        state.synced = true;
        let ciphertext = state.transformer.ciphertext();
        if !contents.is_empty() {
            pe_observe::static_histogram!("mediator.blowup_pct")
                .record((ciphertext.len() * 100 / contents.len()) as u64);
        }
        // Encoded straight from the mirror: no copy of the ciphertext.
        let mut fields = vec![("docContents", ciphertext)];
        if let Some((key, value)) = &pad {
            fields.push((key, value));
        }
        let body = form::encode_pairs(&fields);
        let response = self.forward_save(request, body);
        Ok(self.finish_save(doc_id, response))
    }

    /// Sends a rewritten save: the client's path and query with the
    /// encrypted form `body`.
    fn forward_save(&self, request: &Request, body: String) -> Response {
        let query: Vec<(&str, &str)> =
            request.query.iter().map(|(k, v)| (k.as_str(), v.as_str())).collect();
        self.server.handle(&Request::new(Method::Post, &request.path, &query, body))
    }

    /// Records the version a successful save landed at and rewrites the
    /// ack for the client, parsing the ack body once. A rejected save
    /// (stale base, conflict, …) drops the mirror instead: it already
    /// holds content the server never accepted, so the next load must
    /// rebuild it from the authoritative copy rather than diverge.
    fn finish_save(&mut self, doc_id: &str, response: Response) -> Mediated {
        if !response.is_success() {
            self.docs.remove(doc_id);
            return self.rewrite_ack(response, None);
        }
        let version = response
            .body_text()
            .and_then(|body| form::parse_pairs(body).ok())
            .and_then(|pairs| form::first_value(&pairs, "version").map(str::to_string));
        if let Some(state) = self.docs.get_mut(doc_id) {
            state.version = version.as_deref().and_then(|v| v.parse().ok());
        }
        self.rewrite_ack(response, version.as_deref())
    }

    fn delta_save(
        &mut self,
        doc_id: &str,
        request: &Request,
        delta: &Delta,
    ) -> Result<Mediated, ExtensionError> {
        if !self.docs.get(doc_id).map(|s| s.synced).unwrap_or(false) {
            // No synced ciphertext mirror. Ask the server what it holds:
            // with a collaborator's content already stored, the old
            // behaviour — a blind full save of the delta result — would
            // overwrite their changes wholesale (put_full is
            // last-writer-wins). Resync the mirror and continue on the
            // incremental path instead; only a genuinely empty document
            // takes the full-save route (protocol: the first save of a
            // fresh document is always a full save).
            match self.load_server_state(doc_id)? {
                Some((content, version)) if !content.is_empty() => {
                    self.docs.remove(doc_id);
                    self.ensure_state(doc_id, Some(content))?;
                    if let Some(state) = self.docs.get_mut(doc_id) {
                        state.version = version;
                    }
                }
                _ => {
                    let base = self
                        .docs
                        .get(doc_id)
                        .map(|s| s.plaintext.clone())
                        .unwrap_or_default();
                    let updated = delta.apply_bytes(base.as_bytes())?;
                    let updated = String::from_utf8(updated).map_err(|_| {
                        ExtensionError::BadResponse {
                            detail: "delta produced invalid text".into(),
                        }
                    })?;
                    return self.full_save(doc_id, request, &updated);
                }
            }
        }
        let state = self.docs.get_mut(doc_id).expect("synced implies state");
        let base_version = state.version;
        let effective = if self.config.canonicalize_deltas {
            delta.canonicalize(&state.plaintext)?
        } else {
            delta.clone()
        };
        let cdelta = {
            let _timed = pe_observe::static_histogram!("mediator.encrypt_ns").span();
            state.transformer.transform(&effective)?
        };
        let updated = effective.apply_bytes(state.plaintext.as_bytes())?;
        state.plaintext = String::from_utf8(updated).map_err(|_| {
            ExtensionError::BadResponse { detail: "delta produced invalid text".into() }
        })?;
        if !state.plaintext.is_empty() {
            pe_observe::static_histogram!("mediator.blowup_pct").record(
                (state.transformer.ciphertext().len() * 100 / state.plaintext.len()) as u64,
            );
        }
        let mut fields: Vec<(String, String)> =
            vec![("delta".into(), cdelta.serialize())];
        if let Some(base) = base_version {
            // Precondition: this ciphertext delta is only valid against
            // the mirror's version; a concurrent save must 409 it.
            fields.push(("baseVersion".into(), base.to_string()));
        }
        if self.config.pad_updates {
            fields.push(countermeasures::padding_field(&mut self.rng));
        }
        let response = self.forward_save(request, form::encode_pairs(&fields));
        Ok(self.finish_save(doc_id, response))
    }

    /// Fetches the authoritative server copy: `Some((content, version))`
    /// on success, `None` when the load failed (the caller falls back to
    /// its legacy behaviour).
    fn load_server_state(
        &mut self,
        doc_id: &str,
    ) -> Result<Option<(String, Option<u64>)>, ExtensionError> {
        let response =
            self.server.handle(&Request::get("/Doc/load", &[("docID", doc_id)]));
        if !response.is_success() {
            return Ok(None);
        }
        let Some(body) = response.body_text() else {
            return Ok(None);
        };
        let Ok(pairs) = form::parse_pairs(body) else {
            return Ok(None);
        };
        Ok(Some((
            form::first_value(&pairs, "content").unwrap_or("").to_string(),
            form::first_value(&pairs, "version").and_then(|v| v.parse().ok()),
        )))
    }

    /// §IV-A: "the client works flawlessly when the values are replaced
    /// with an empty string for contentFromServer, and 0 for
    /// contentFromServerHash". The server's `version` (the change-stream
    /// sequence of this save) is content-free and carries through so live
    /// sessions can skip their own echo.
    fn rewrite_ack(&mut self, response: Response, version: Option<&str>) -> Mediated {
        let delay = self.delay();
        if !response.is_success() {
            return Mediated { response, outcome: Outcome::Encrypted, suggested_delay: delay };
        }
        let mut fields: Vec<(&str, &str)> =
            vec![("contentFromServer", ""), ("contentFromServerHash", "0")];
        if let Some(version) = version {
            fields.push(("version", version));
        }
        let ack = form::encode_pairs(&fields);
        Mediated { response: Response::ok(ack), outcome: Outcome::Encrypted, suggested_delay: delay }
    }

    // Convenience wrappers used by clients, examples and benchmarks. They
    // drive exactly the same interception path a raw client would.

    /// Creates a new encrypted document: forwards the create command,
    /// registers the password, and initializes crypto state.
    ///
    /// # Errors
    ///
    /// Fails when the server rejects the create or responds unparseably.
    pub fn create_document(&mut self, password: &str) -> Result<String, ExtensionError> {
        let doc_id = self.create_on_server()?;
        self.register_password(&doc_id, password);
        Ok(doc_id)
    }

    /// Forwards the create command and parses the allocated document id.
    fn create_on_server(&mut self) -> Result<String, ExtensionError> {
        let mediated = self.intercept(&Request::post("/Doc", &[("cmd", "create")], ""))?;
        let body = mediated.response.body_text().unwrap_or("");
        if !mediated.response.is_success() {
            return Err(ExtensionError::ServerError {
                status: mediated.response.status,
                message: body.to_string(),
            });
        }
        let pairs = form::parse_pairs(body).map_err(|e| ExtensionError::BadResponse {
            detail: format!("create response: {e}"),
        })?;
        Ok(form::first_value(&pairs, "docID")
            .ok_or_else(|| ExtensionError::BadResponse { detail: "missing docID".into() })?
            .to_string())
    }

    /// Opens a document, returning its decrypted plaintext.
    ///
    /// # Errors
    ///
    /// Fails for missing passwords, server errors, or integrity failures.
    pub fn open_document(&mut self, doc_id: &str) -> Result<String, ExtensionError> {
        let mediated =
            self.intercept(&Request::post("/Doc", &[("docID", doc_id), ("cmd", "open")], ""))?;
        if !mediated.response.is_success() {
            return Err(ExtensionError::ServerError {
                status: mediated.response.status,
                message: mediated.response.body_text().unwrap_or("").to_string(),
            });
        }
        let body = mediated.response.body_text().unwrap_or("");
        let pairs = form::parse_pairs(body).map_err(|e| ExtensionError::BadResponse {
            detail: format!("open response: {e}"),
        })?;
        Ok(form::first_value(&pairs, "content").unwrap_or("").to_string())
    }

    /// Performs a full (docContents) save.
    ///
    /// # Errors
    ///
    /// Fails when crypto state cannot be established or the server errors.
    pub fn save_full(&mut self, doc_id: &str, contents: &str) -> Result<Mediated, ExtensionError> {
        let body = form::encode_pairs(&[("docContents", contents)]);
        self.intercept(&Request::post("/Doc", &[("docID", doc_id)], body))
    }

    /// Performs an incremental (delta) save.
    ///
    /// # Errors
    ///
    /// Fails when the delta does not apply or the server errors.
    pub fn save_delta(&mut self, doc_id: &str, delta: &Delta) -> Result<Mediated, ExtensionError> {
        let body = form::encode_pairs(&[("delta", delta.serialize().as_str())]);
        self.intercept(&Request::post("/Doc", &[("docID", doc_id)], body))
    }

    /// Rotates the document's password: derives a fresh key (new salt),
    /// re-encrypts the current contents, and uploads them as a full save.
    ///
    /// **Scope of protection:** rotation protects the document's *future*
    /// states. The server's stored revision history remains encrypted
    /// under the old password's keys — a party who learned the old
    /// password can still read old revisions, exactly as with any
    /// re-encryption scheme that cannot reach into server-side history.
    ///
    /// # Errors
    ///
    /// Fails when no current state exists and the document cannot be
    /// opened with the old password, or when the upload fails.
    pub fn change_password(
        &mut self,
        doc_id: &str,
        new_password: &str,
    ) -> Result<(), ExtensionError> {
        // Make sure we hold the current plaintext (may require opening
        // with the old password first).
        if !self.docs.contains_key(doc_id) {
            self.open_document(doc_id)?;
        }
        let plaintext = self
            .docs
            .get(doc_id)
            .map(|s| s.plaintext.clone())
            .ok_or_else(|| ExtensionError::NoPassword { doc_id: doc_id.to_string() })?;
        // Re-register and rebuild crypto state under the new password.
        self.keyring.register(doc_id, new_password);
        self.docs.remove(doc_id);
        let mediated = self.save_full(doc_id, &plaintext)?;
        if mediated.response.is_success() {
            Ok(())
        } else {
            Err(ExtensionError::ServerError {
                status: mediated.response.status,
                message: mediated.response.body_text().unwrap_or("").to_string(),
            })
        }
    }

    // Multi-tenant key management (crate `pe-tenant`): per-user master
    // keys, per-document data keys wrapped per authorized editor, and
    // O(1) grant/revoke that never touches document bodies. The directory
    // records travel through the same untrusted server this mediator
    // fronts (its `/tenant/*` endpoints), so nothing here trusts the
    // cloud with key material.

    /// The tenant directory view over the wrapped server.
    fn tenant_directory(&self) -> TenantDirectory<ServiceRecords<&S>> {
        TenantDirectory::new(ServiceRecords::new(&self.server))
    }

    /// Registers a tenant user (fresh random salt, this mediator's
    /// configured KDF iteration count) and logs them in.
    ///
    /// # Errors
    ///
    /// [`ExtensionError::Tenant`] when the name is taken or invalid.
    pub fn tenant_register(&mut self, user: &str, passphrase: &str) -> Result<(), ExtensionError> {
        let mut rng = self.fork_rng();
        let iterations = self.config.kdf_iterations;
        let session = self.tenant_directory().register(user, passphrase, iterations, &mut rng)?;
        self.tenant = Some(session);
        Ok(())
    }

    /// Logs a tenant user in: derives their KEK from the passphrase and
    /// the salt in their directory record, and checks the verifier.
    ///
    /// # Errors
    ///
    /// [`ExtensionError::Tenant`] for unknown users or bad passphrases.
    pub fn tenant_login(&mut self, user: &str, passphrase: &str) -> Result<(), ExtensionError> {
        let session = self.tenant_directory().login(user, passphrase)?;
        self.tenant = Some(session);
        Ok(())
    }

    /// The logged-in tenant user, if any.
    pub fn tenant_user(&self) -> Option<&str> {
        self.tenant.as_ref().map(|s| s.user())
    }

    /// Creates a document owned by the logged-in user: the server
    /// allocates the id, the directory stores the owner's wrapped copy of
    /// a fresh random data key, and the derived document key lands in the
    /// keyring — no per-document password exists.
    ///
    /// # Errors
    ///
    /// [`ExtensionError::NoSession`] without a login; server or directory
    /// failures otherwise.
    pub fn tenant_create_document(&mut self) -> Result<String, ExtensionError> {
        if self.tenant.is_none() {
            return Err(ExtensionError::NoSession);
        }
        let doc_id = self.create_on_server()?;
        let mut rng = self.fork_rng();
        let session = self.tenant.as_ref().expect("checked above");
        let data_key = TenantDirectory::new(ServiceRecords::new(&self.server))
            .create_document(session, &doc_id, &mut rng)?;
        let mut salt = [0u8; 16];
        rng.fill_bytes(&mut salt);
        self.keyring.register_key(&doc_id, data_key.document_key(salt));
        Ok(doc_id)
    }

    /// Grants another user access to a document the logged-in user owns.
    /// Returns the one-time invite code, which travels out of band; the
    /// grantee redeems it with [`Self::tenant_accept`]. O(1) in the
    /// document size — the body is never touched.
    ///
    /// # Errors
    ///
    /// [`ExtensionError::NoSession`] without a login;
    /// [`ExtensionError::Tenant`] when not the owner or the grantee is
    /// unknown.
    pub fn tenant_grant(&mut self, doc_id: &str, grantee: &str) -> Result<String, ExtensionError> {
        let mut rng = self.fork_rng();
        let session = self.tenant.as_ref().ok_or(ExtensionError::NoSession)?;
        let code = TenantDirectory::new(ServiceRecords::new(&self.server))
            .grant(session, doc_id, grantee, &mut rng)?;
        Ok(code)
    }

    /// Redeems an invite code: rewraps the document's data key under the
    /// logged-in user's KEK and burns the invite.
    ///
    /// # Errors
    ///
    /// [`ExtensionError::NoSession`] without a login;
    /// [`ExtensionError::Tenant`] for wrong or spent codes.
    pub fn tenant_accept(&mut self, doc_id: &str, code: &str) -> Result<(), ExtensionError> {
        let session = self.tenant.as_ref().ok_or(ExtensionError::NoSession)?;
        TenantDirectory::new(ServiceRecords::new(&self.server)).accept(session, doc_id, code)?;
        Ok(())
    }

    /// Revokes a user's access to a document the logged-in user owns:
    /// deletes their wrapped key record (and pending invites). Returns
    /// whether a grant existed. O(1) in the document size.
    ///
    /// # Errors
    ///
    /// [`ExtensionError::NoSession`] without a login;
    /// [`ExtensionError::Tenant`] when not the owner.
    pub fn tenant_revoke(&mut self, doc_id: &str, user: &str) -> Result<bool, ExtensionError> {
        let session = self.tenant.as_ref().ok_or(ExtensionError::NoSession)?;
        let existed = TenantDirectory::new(ServiceRecords::new(&self.server))
            .revoke(session, doc_id, user)?;
        Ok(existed)
    }

    /// Rotates a tenant user's passphrase: new salt, new KEK, every
    /// wrapped key they hold rewrapped — document bodies untouched.
    /// Returns the number of grants rewrapped. Refreshes the login when
    /// the rotated user is the one logged in here.
    ///
    /// # Errors
    ///
    /// [`ExtensionError::Tenant`] when the old passphrase is wrong.
    pub fn tenant_passwd(
        &mut self,
        user: &str,
        old_passphrase: &str,
        new_passphrase: &str,
    ) -> Result<usize, ExtensionError> {
        let mut rng = self.fork_rng();
        let iterations = self.config.kdf_iterations;
        let count = self
            .tenant_directory()
            .rewrap(user, old_passphrase, new_passphrase, iterations, &mut rng)?;
        if self.tenant.as_ref().is_some_and(|s| s.user() == user) {
            let session = self.tenant_directory().login(user, new_passphrase)?;
            self.tenant = Some(session);
        }
        Ok(count)
    }
}
