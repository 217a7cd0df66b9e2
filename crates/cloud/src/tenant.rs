//! Tenant-directory record endpoints.
//!
//! The multi-tenant layer (`pe-tenant`) keeps its directory — users,
//! documents, grants, wrapped-key records — on the *untrusted* server, as
//! text records. The server only ever sees ciphertext-equivalent
//! material: PBKDF2 salts, HKDF verifiers, and RFC 3394-wrapped keys; all
//! key derivation and unwrapping happens client-side in the mediator.
//!
//! Records ride the same [`DocStore`](pe_store::DocStore) as documents,
//! under the reserved id prefix [`TENANT_PREFIX`], so they shard, group
//! commit, and survive `kill -9` exactly like document bodies, and the
//! snapshot/restore path of the CLI's text-file store carries them for
//! free. They are hidden from the user-facing document listing.
//!
//! ## Mutation auth
//!
//! Confidentiality never depends on the server (a grant that unwraps
//! cannot be forged and a wrapped key cannot be read), but directory
//! *availability* shouldn't be destroyable by any network peer either:
//! deleting `g/<doc>/<owner>` would discard the only guaranteed wrapped
//! copy of a document's data key. Mutations of directory records are
//! therefore authenticated: the client attaches `auth=<user>` and
//! `proof=<hex verifier>` query parameters, and the server compares the
//! proof — in constant time — against the verifier stored at that user's
//! registration. Because verifiers are **redacted from every read** (see
//! below), only a client that derived the verifier from the user's
//! passphrase can present it. Per-key rules:
//!
//! * `u/<user>` — create: open (registration, first-come uniqueness via
//!   `if_absent`); replace/delete: the user themselves.
//! * `p/<user>` — pending rotation credentials: the user themselves.
//! * `d/<doc>` — create: the owner named in the record; replace/delete:
//!   the currently recorded owner.
//! * `g/<doc>/<user>` — the grant subject or the document owner. (A
//!   non-owner "self-granting" a forged record gains nothing: AES-KW
//!   authenticates the KEK, so a record not wrapped from the real data
//!   key never unwraps.)
//! * `i/<doc>/<id>` — create: the document owner; delete: the owner or
//!   the invite's grantee (who burns it on accept).
//!
//! Record bodies for reserved keys are schema-validated at write time, so
//! a stored `u/` record always carries the verifier the auth check needs.
//! Residual exposure, documented deliberately: whoever holds an invite
//! *code* holds a bearer secret for that document key (the invite record
//! wraps the key under the KEK inside the code), and the server itself —
//! or anyone it colludes with — can always deny service or discard
//! records wholesale. Auth narrows the attacker set for directory
//! destruction from "any network peer" to "the server", which is the
//! paper's trust model.
//!
//! ## Verifier redaction
//!
//! `GET` of a `u/` or `p/` record strips the `verifier` field before
//! responding: a verifier is derived from the passphrase by PBKDF2+HKDF,
//! so serving it would hand any network peer an offline
//! dictionary-attack target (and the mutation-auth token). Clients check
//! passphrases through `POST /tenant/verify` instead, which answers
//! `ok=true|false` for a presented proof without ever revealing the
//! stored value.
//!
//! Wire protocol (all bodies are plain text record payloads):
//!
//! * `GET  /tenant/record?key=K` — fetch one record (404 when absent;
//!   verifier redacted for `u/`/`p/` keys).
//! * `POST /tenant/record?key=K[&auth=U&proof=HEX]` — create-or-replace.
//! * `POST /tenant/record?key=K&if_absent=1` — create; 409 when present
//!   (registration uniqueness).
//! * `POST /tenant/record?key=K&cmd=delete[&auth=U&proof=HEX]` — delete;
//!   body reports `deleted=true|false`.
//! * `POST /tenant/verify?key=K&proof=HEX` — check a verifier proof
//!   against a `u/` or `p/` record; body reports `ok=true|false`.
//! * `GET  /tenant/list?prefix=P` — enumerate record keys under a prefix
//!   (form-encoded repeated `key` fields, sorted).
//!
//! Record writes are atomic: a record is either absent or carries its
//! full payload — there is no created-but-empty intermediate state, and
//! an empty record left behind by an older server crash is treated as
//! absent (it can be re-created, never 409-blocks).

use pe_crypto::{form, hex};

use crate::docs::DocsServer;
use crate::{Request, Response};

/// Reserved document-id prefix for tenant-directory records. Documents
/// created through the normal protocol get `doc<N>` ids, so the prefix
/// can never collide.
pub const TENANT_PREFIX: &str = "~tenant/";

/// Hard cap on a single directory record. Records are a few hundred
/// bytes (a wrapped key is 40); the cap only exists to bound abuse.
pub const MAX_RECORD_BYTES: usize = 64 * 1024;

/// Hex chars of a 16-byte salt / verifier.
const HEX16: usize = 32;
/// Hex chars of a 40-byte AES-KW wrapped key.
const HEX40: usize = 80;

fn record_doc_id(key: &str) -> Option<String> {
    if key.is_empty() || key.contains(|c: char| c.is_control()) {
        return None;
    }
    Some(format!("{TENANT_PREFIX}{key}"))
}

/// Same name alphabet the `pe-tenant` keyspace uses.
fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.bytes().all(|b| b.is_ascii_alphanumeric() || matches!(b, b'.' | b'_' | b'-'))
}

/// The directory schema role of a record key.
enum KeyKind<'a> {
    /// `u/<user>` — registered credentials.
    User(&'a str),
    /// `p/<user>` — pending rotation credentials.
    Pending(&'a str),
    /// `d/<doc>` — document ownership.
    Doc(&'a str),
    /// `g/<doc>/<user>` — a wrapped data key.
    Grant { doc: &'a str, user: &'a str },
    /// `i/<doc>/<id>` — a pending invite.
    Invite { doc: &'a str },
    /// Outside the reserved directory prefixes: stored opaquely,
    /// unauthenticated (nothing in the directory trusts such keys).
    Other,
}

/// Classifies a record key; `None` for a malformed reserved-prefix key.
fn classify(key: &str) -> Option<KeyKind<'_>> {
    if let Some(name) = key.strip_prefix("u/") {
        return valid_name(name).then_some(KeyKind::User(name));
    }
    if let Some(name) = key.strip_prefix("p/") {
        return valid_name(name).then_some(KeyKind::Pending(name));
    }
    if let Some(name) = key.strip_prefix("d/") {
        return valid_name(name).then_some(KeyKind::Doc(name));
    }
    if let Some(rest) = key.strip_prefix("g/") {
        let (doc, user) = rest.split_once('/')?;
        return (valid_name(doc) && valid_name(user)).then_some(KeyKind::Grant { doc, user });
    }
    if let Some(rest) = key.strip_prefix("i/") {
        let (doc, id) = rest.split_once('/')?;
        return (valid_name(doc) && valid_name(id)).then_some(KeyKind::Invite { doc });
    }
    Some(KeyKind::Other)
}

/// Constant-shape byte comparison for verifier proofs.
fn ct_eq(a: &[u8], b: &[u8]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    a.iter().zip(b.iter()).fold(0u8, |acc, (x, y)| acc | (x ^ y)) == 0
}

fn is_hex(text: &str, len: usize) -> bool {
    text.len() == len && hex::decode(text).is_ok()
}

fn field<'a>(pairs: &'a [(String, String)], key: &str) -> Option<&'a str> {
    form::first_value(pairs, key)
}

fn denied(status: u16, message: &str) -> Response {
    pe_observe::static_counter!("tenant.records.denied").inc();
    Response::error(status, message)
}

impl DocsServer {
    pub(crate) fn tenant_record_get(&self, request: &Request) -> Response {
        let Some(key) = request.query_param("key") else {
            return Response::error(400, "missing or malformed record key");
        };
        let Some(id) = record_doc_id(key) else {
            return Response::error(400, "missing or malformed record key");
        };
        pe_observe::static_counter!("tenant.records.get").inc();
        let Some(value) = self.stored_content(&id).filter(|c| !c.is_empty()) else {
            return Response::error(404, "no such record");
        };
        // Never serve a login verifier: it is the mutation-auth token and
        // an offline dictionary-attack target.
        if key.starts_with("u/") || key.starts_with("p/") {
            return match redact_verifier(&value) {
                Some(redacted) => Response::ok(redacted),
                None => Response::error(500, "unparseable user record"),
            };
        }
        Response::ok(value)
    }

    pub(crate) fn tenant_record_post(&self, request: &Request) -> Response {
        // One writer at a time across all tenant records: the
        // check-then-put pairs below (uniqueness, ownership) stay atomic.
        let _guard = self.tenant_mutation_lock();
        let Some(key) = request.query_param("key") else {
            return Response::error(400, "missing or malformed record key");
        };
        let (Some(id), Some(kind)) = (record_doc_id(key), classify(key)) else {
            return Response::error(400, "missing or malformed record key");
        };
        let auth = match self.authed_user(request) {
            Ok(auth) => auth,
            Err(response) => return response,
        };
        let exists = self.stored_content(&id).is_some_and(|c| !c.is_empty());
        if request.query_param("cmd") == Some("delete") {
            pe_observe::static_counter!("tenant.records.delete").inc();
            if !exists {
                return Response::ok(form::encode_pairs(&[("deleted", "false")]));
            }
            if let Err(response) = self.authorize_delete(&kind, &id, auth) {
                return response;
            }
            let deleted = match self.store().remove(&id) {
                Ok(deleted) => deleted,
                Err(e) => return Response::error(500, &format!("storage failure: {e}")),
            };
            return Response::ok(form::encode_pairs(&[(
                "deleted",
                if deleted { "true" } else { "false" },
            )]));
        }
        let Some(value) = request.body_text() else {
            return Response::error(400, "record value must be UTF-8 text");
        };
        if value.len() > MAX_RECORD_BYTES {
            return Response::error(413, "record too large");
        }
        if let Err(response) = validate_record_body(&kind, key, value) {
            return response;
        }
        if exists && request.query_param("if_absent").is_some() {
            return Response::error(409, "record already exists");
        }
        if let Err(response) = self.authorize_put(&kind, value, exists, auth) {
            return response;
        }
        pe_observe::static_counter!("tenant.records.put").inc();
        // A single put_full: the record is never observable half-created.
        if let Err(e) = self.store().put_full(&id, value.as_bytes()) {
            return Response::error(500, &format!("storage failure: {e}"));
        }
        Response::ok("stored")
    }

    /// Checks a verifier proof against a stored `u/` or `p/` record
    /// without revealing it.
    pub(crate) fn tenant_verify(&self, request: &Request) -> Response {
        pe_observe::static_counter!("tenant.records.verify").inc();
        let key = request.query_param("key").unwrap_or("");
        let ok_kind = matches!(classify(key), Some(KeyKind::User(_) | KeyKind::Pending(_)));
        let (Some(id), true) = (record_doc_id(key), ok_kind) else {
            return Response::error(400, "verify needs a u/ or p/ record key");
        };
        let Some(proof) = request.query_param("proof") else {
            return Response::error(400, "missing proof");
        };
        let Some(content) = self.stored_content(&id).filter(|c| !c.is_empty()) else {
            return Response::error(404, "no such record");
        };
        let ok = stored_verifier(&content)
            .zip(hex::decode(proof).ok())
            .is_some_and(|(stored, presented)| ct_eq(&stored, &presented));
        Response::ok(form::encode_pairs(&[("ok", if ok { "true" } else { "false" })]))
    }

    pub(crate) fn tenant_list(&self, request: &Request) -> Response {
        let prefix = request.query_param("prefix").unwrap_or("");
        if prefix.contains(|c: char| c.is_control()) {
            return Response::error(400, "malformed prefix");
        }
        pe_observe::static_counter!("tenant.records.list").inc();
        let keys: Vec<(&str, String)> = self
            .store()
            .list()
            .into_iter()
            .filter_map(|id| {
                id.strip_prefix(TENANT_PREFIX)
                    .filter(|key| key.starts_with(prefix))
                    .map(|key| ("key", key.to_string()))
            })
            .collect();
        Response::ok(form::encode_pairs(&keys))
    }

    /// Validates the `auth`/`proof` query parameters when present:
    /// `Ok(Some(user))` for a valid proof, `Ok(None)` when no auth was
    /// attached, `Err(403)` for a bad one.
    fn authed_user<'r>(&self, request: &'r Request) -> Result<Option<&'r str>, Response> {
        let user = request.query_param("auth");
        let proof = request.query_param("proof");
        let (user, proof) = match (user, proof) {
            (None, None) => return Ok(None),
            (Some(user), Some(proof)) => (user, proof),
            _ => return Err(denied(400, "auth and proof travel together")),
        };
        if !valid_name(user) {
            return Err(denied(403, "bad auth"));
        }
        let stored = record_doc_id(&format!("u/{user}"))
            .and_then(|id| self.stored_content(&id))
            .as_deref()
            .and_then(stored_verifier);
        let presented = hex::decode(proof).ok();
        match stored.zip(presented) {
            Some((stored, presented)) if ct_eq(&stored, &presented) => Ok(Some(user)),
            _ => Err(denied(403, "bad auth")),
        }
    }

    /// The recorded owner of `d/<doc>`, when that record exists and
    /// parses.
    fn stored_owner(&self, doc: &str) -> Option<String> {
        let content = self.stored_content(&format!("{TENANT_PREFIX}d/{doc}"))?;
        let pairs = form::parse_pairs(&content).ok()?;
        field(&pairs, "owner").map(str::to_string)
    }

    fn authorize_put(
        &self,
        kind: &KeyKind<'_>,
        value: &str,
        exists: bool,
        auth: Option<&str>,
    ) -> Result<(), Response> {
        let allowed = match kind {
            // Registration is open; replacing credentials is not.
            KeyKind::User(name) => !exists || auth == Some(*name),
            KeyKind::Pending(name) => auth == Some(*name),
            KeyKind::Doc(_) => {
                let owner = if exists {
                    self.stored_content_owner_of(kind)
                } else {
                    // Creating: the record's own owner field (validated)
                    // must be the authenticated user.
                    form::parse_pairs(value)
                        .ok()
                        .and_then(|pairs| field(&pairs, "owner").map(str::to_string))
                };
                owner.as_deref().is_some_and(|owner| auth == Some(owner))
            }
            KeyKind::Grant { doc, user } => {
                auth == Some(*user)
                    || self.stored_owner(doc).as_deref().is_some_and(|o| auth == Some(o))
            }
            KeyKind::Invite { doc } => {
                self.stored_owner(doc).as_deref().is_some_and(|o| auth == Some(o))
            }
            KeyKind::Other => true,
        };
        if allowed {
            Ok(())
        } else if auth.is_none() {
            Err(denied(401, "mutation requires auth"))
        } else {
            Err(denied(403, "not authorized for this record"))
        }
    }

    fn authorize_delete(
        &self,
        kind: &KeyKind<'_>,
        id: &str,
        auth: Option<&str>,
    ) -> Result<(), Response> {
        let allowed = match kind {
            KeyKind::User(name) | KeyKind::Pending(name) => auth == Some(*name),
            KeyKind::Doc(_) => {
                self.stored_content_owner_of(kind).as_deref().is_some_and(|o| auth == Some(o))
            }
            KeyKind::Grant { doc, user } => {
                auth == Some(*user)
                    || self.stored_owner(doc).as_deref().is_some_and(|o| auth == Some(o))
            }
            KeyKind::Invite { doc } => {
                let grantee = self
                    .stored_content(id)
                    .and_then(|c| form::parse_pairs(&c).ok())
                    .and_then(|pairs| field(&pairs, "grantee").map(str::to_string));
                grantee.as_deref().is_some_and(|g| auth == Some(g))
                    || self.stored_owner(doc).as_deref().is_some_and(|o| auth == Some(o))
            }
            KeyKind::Other => true,
        };
        if allowed {
            Ok(())
        } else if auth.is_none() {
            Err(denied(401, "mutation requires auth"))
        } else {
            Err(denied(403, "not authorized for this record"))
        }
    }

    /// Owner lookup for a `d/<doc>` kind.
    fn stored_content_owner_of(&self, kind: &KeyKind<'_>) -> Option<String> {
        match kind {
            KeyKind::Doc(doc) => self.stored_owner(doc),
            _ => None,
        }
    }
}

/// Re-encodes a user record without its `verifier` field.
fn redact_verifier(content: &str) -> Option<String> {
    let pairs = form::parse_pairs(content).ok()?;
    let kept: Vec<(String, String)> =
        pairs.into_iter().filter(|(k, _)| k != "verifier").collect();
    Some(form::encode_pairs(&kept))
}

/// The `verifier` field of a stored user record, decoded.
fn stored_verifier(content: &str) -> Option<Vec<u8>> {
    let pairs = form::parse_pairs(content).ok()?;
    hex::decode(field(&pairs, "verifier")?).ok()
}

/// Schema-validates a reserved-prefix record body so auth lookups can
/// rely on stored records parsing (and a `u/` record always carries the
/// verifier the auth check compares against).
fn validate_record_body(kind: &KeyKind<'_>, key: &str, value: &str) -> Result<(), Response> {
    let reject = |msg: &str| Err(Response::error(400, msg));
    let pairs = match kind {
        KeyKind::Other => return Ok(()),
        _ => match form::parse_pairs(value) {
            Ok(pairs) => pairs,
            Err(_) => return reject("record body must be form-encoded"),
        },
    };
    match kind {
        KeyKind::User(name) | KeyKind::Pending(name) => {
            let iters_ok = field(&pairs, "iters")
                .and_then(|t| t.parse::<u32>().ok())
                .is_some_and(|iters| iters > 0);
            if field(&pairs, "user") != Some(name)
                || !field(&pairs, "salt").is_some_and(|s| is_hex(s, HEX16))
                || !iters_ok
                || !field(&pairs, "verifier").is_some_and(|v| is_hex(v, HEX16))
            {
                return reject("malformed user record");
            }
        }
        KeyKind::Doc(name) => {
            if field(&pairs, "doc") != Some(name)
                || !field(&pairs, "owner").is_some_and(valid_name)
            {
                return reject("malformed doc record");
            }
        }
        KeyKind::Grant { doc, user } => {
            if field(&pairs, "doc") != Some(doc)
                || field(&pairs, "user") != Some(user)
                || !field(&pairs, "wrapped").is_some_and(|w| is_hex(w, HEX40))
            {
                return reject("malformed grant record");
            }
        }
        KeyKind::Invite { doc } => {
            let id = key.strip_prefix("i/").and_then(|rest| rest.split_once('/')).map(|(_, id)| id);
            if field(&pairs, "doc") != Some(doc)
                || field(&pairs, "invite") != id
                || !field(&pairs, "grantee").is_some_and(valid_name)
                || !field(&pairs, "wrapped").is_some_and(|w| is_hex(w, HEX40))
            {
                return reject("malformed invite record");
            }
        }
        KeyKind::Other => {}
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CloudService;
    use pe_store::DocStore;

    const ALICE_V: [u8; 16] = [0xA1; 16];
    const BOB_V: [u8; 16] = [0xB2; 16];

    fn user_body(name: &str, verifier: &[u8; 16]) -> String {
        form::encode_pairs(&[
            ("user", name),
            ("salt", &hex::encode(&[7u8; 16])),
            ("iters", "100"),
            ("verifier", &hex::encode(verifier)),
        ])
    }

    fn wrapped_hex() -> String {
        hex::encode(&[0xEE; 40])
    }

    fn get(server: &DocsServer, key: &str) -> Response {
        server.handle(&Request::get("/tenant/record", &[("key", key)]))
    }

    fn put(server: &DocsServer, key: &str, value: &str) -> Response {
        server.handle(&Request::post("/tenant/record", &[("key", key)], value.to_string()))
    }

    fn put_as(server: &DocsServer, key: &str, value: &str, user: &str, v: &[u8; 16]) -> Response {
        server.handle(&Request::post(
            "/tenant/record",
            &[("key", key), ("auth", user), ("proof", &hex::encode(v))],
            value.to_string(),
        ))
    }

    fn delete_as(server: &DocsServer, key: &str, user: &str, v: &[u8; 16]) -> Response {
        server.handle(&Request::post(
            "/tenant/record",
            &[("key", key), ("cmd", "delete"), ("auth", user), ("proof", &hex::encode(v))],
            "",
        ))
    }

    fn register(server: &DocsServer, name: &str, verifier: &[u8; 16]) {
        let response = server.handle(&Request::post(
            "/tenant/record",
            &[("key", &format!("u/{name}")), ("if_absent", "1")],
            user_body(name, verifier),
        ));
        assert!(response.is_success());
    }

    /// Alice registers and owns doc1; bob registers.
    fn two_user_setup(server: &DocsServer) {
        register(server, "alice", &ALICE_V);
        register(server, "bob", &BOB_V);
        let doc = form::encode_pairs(&[("doc", "doc1"), ("owner", "alice")]);
        assert!(put_as(server, "d/doc1", &doc, "alice", &ALICE_V).is_success());
        let grant =
            form::encode_pairs(&[("doc", "doc1"), ("user", "alice"), ("wrapped", &wrapped_hex())]);
        assert!(put_as(server, "g/doc1/alice", &grant, "alice", &ALICE_V).is_success());
    }

    #[test]
    fn record_crud_roundtrip_with_auth() {
        let server = DocsServer::new();
        assert_eq!(get(&server, "u/alice").status, 404);
        register(&server, "alice", &ALICE_V);
        // Replacing credentials needs the verifier; re-registration 409s.
        assert_eq!(put(&server, "u/alice", &user_body("alice", &BOB_V)).status, 401);
        assert!(put_as(&server, "u/alice", &user_body("alice", &BOB_V), "alice", &ALICE_V)
            .is_success());
        let del = delete_as(&server, "u/alice", "alice", &BOB_V);
        assert_eq!(del.body_text(), Some("deleted=true"));
        assert_eq!(get(&server, "u/alice").status, 404);
        // Once the record is gone its verifier is too, so stale auth no
        // longer validates; an unauthenticated delete of an absent
        // record reports deleted=false.
        assert_eq!(delete_as(&server, "u/alice", "alice", &BOB_V).status, 403);
        let del = server.handle(&Request::post(
            "/tenant/record",
            &[("key", "u/alice"), ("cmd", "delete")],
            "",
        ));
        assert_eq!(del.body_text(), Some("deleted=false"));
    }

    #[test]
    fn if_absent_enforces_uniqueness() {
        let server = DocsServer::new();
        register(&server, "bob", &BOB_V);
        let second = server.handle(&Request::post(
            "/tenant/record",
            &[("key", "u/bob"), ("if_absent", "1")],
            user_body("bob", &ALICE_V),
        ));
        assert_eq!(second.status, 409);
    }

    #[test]
    fn verifier_is_redacted_from_reads_but_verifiable() {
        let server = DocsServer::new();
        register(&server, "alice", &ALICE_V);
        let body = get(&server, "u/alice").body_text().unwrap().to_string();
        assert!(!body.contains("verifier"), "verifier leaked: {body}");
        assert!(body.contains("salt"), "salt must stay readable for login: {body}");
        let verify = |proof: &str| {
            server.handle(&Request::post(
                "/tenant/verify",
                &[("key", "u/alice"), ("proof", proof)],
                "",
            ))
        };
        assert_eq!(verify(&hex::encode(&ALICE_V)).body_text(), Some("ok=true"));
        assert_eq!(verify(&hex::encode(&BOB_V)).body_text(), Some("ok=false"));
        assert_eq!(verify("junk").body_text(), Some("ok=false"));
        let ghost = server.handle(&Request::post(
            "/tenant/verify",
            &[("key", "u/ghost"), ("proof", "00")],
            "",
        ));
        assert_eq!(ghost.status, 404);
    }

    #[test]
    fn grant_mutations_require_subject_or_owner() {
        let server = DocsServer::new();
        two_user_setup(&server);
        // The review's attack: a non-owner deleting the owner's grant —
        // the only wrapped copy of the data key.
        assert_eq!(
            server
                .handle(&Request::post(
                    "/tenant/record",
                    &[("key", "g/doc1/alice"), ("cmd", "delete")],
                    "",
                ))
                .status,
            401
        );
        assert_eq!(delete_as(&server, "g/doc1/alice", "bob", &BOB_V).status, 403);
        assert_eq!(get(&server, "g/doc1/alice").status, 200, "grant survived");
        // A wrong proof never authenticates.
        assert_eq!(delete_as(&server, "g/doc1/alice", "alice", &BOB_V).status, 403);
        // Bob may write his own grant record (accept flow) and the owner
        // may delete it (revoke flow).
        let grant =
            form::encode_pairs(&[("doc", "doc1"), ("user", "bob"), ("wrapped", &wrapped_hex())]);
        assert_eq!(put(&server, "g/doc1/bob", &grant).status, 401);
        assert!(put_as(&server, "g/doc1/bob", &grant, "bob", &BOB_V).is_success());
        assert_eq!(
            delete_as(&server, "g/doc1/bob", "alice", &ALICE_V).body_text(),
            Some("deleted=true")
        );
    }

    #[test]
    fn user_and_doc_records_resist_takeover() {
        let server = DocsServer::new();
        two_user_setup(&server);
        // Bob cannot replace alice's credentials or steal doc ownership.
        assert_eq!(put_as(&server, "u/alice", &user_body("alice", &BOB_V), "bob", &BOB_V).status, 403);
        let stolen = form::encode_pairs(&[("doc", "doc1"), ("owner", "bob")]);
        assert_eq!(put_as(&server, "d/doc1", &stolen, "bob", &BOB_V).status, 403);
        assert_eq!(delete_as(&server, "d/doc1", "bob", &BOB_V).status, 403);
        // Creating a doc record claiming someone else as owner fails too.
        let forged = form::encode_pairs(&[("doc", "doc2"), ("owner", "alice")]);
        assert_eq!(put_as(&server, "d/doc2", &forged, "bob", &BOB_V).status, 403);
    }

    #[test]
    fn invite_mutations_follow_owner_and_grantee() {
        let server = DocsServer::new();
        two_user_setup(&server);
        let invite = form::encode_pairs(&[
            ("doc", "doc1"),
            ("invite", "CODE1234"),
            ("grantee", "bob"),
            ("wrapped", &wrapped_hex()),
        ]);
        assert_eq!(put(&server, "i/doc1/CODE1234", &invite).status, 401);
        assert_eq!(put_as(&server, "i/doc1/CODE1234", &invite, "bob", &BOB_V).status, 403);
        assert!(put_as(&server, "i/doc1/CODE1234", &invite, "alice", &ALICE_V).is_success());
        // The grantee burns it on accept.
        assert_eq!(
            delete_as(&server, "i/doc1/CODE1234", "bob", &BOB_V).body_text(),
            Some("deleted=true")
        );
    }

    #[test]
    fn reserved_record_bodies_are_schema_validated() {
        let server = DocsServer::new();
        assert_eq!(put(&server, "u/alice", "not a record").status, 400);
        assert_eq!(put(&server, "u/alice", &user_body("mallory", &ALICE_V)).status, 400);
        register(&server, "alice", &ALICE_V);
        let short =
            form::encode_pairs(&[("doc", "doc1"), ("user", "alice"), ("wrapped", "0011")]);
        assert_eq!(put_as(&server, "g/doc1/alice", &short, "alice", &ALICE_V).status, 400);
        assert_eq!(put_as(&server, "d/doc1", "owner=no one", "alice", &ALICE_V).status, 400);
        // Malformed reserved keys never store.
        assert_eq!(put(&server, "g/doc1", "x").status, 400);
        assert_eq!(put(&server, "u/", "x").status, 400);
        assert_eq!(put(&server, "u/bad name", "x").status, 400);
    }

    #[test]
    fn empty_record_is_absent_not_a_tombstone() {
        let server = DocsServer::new();
        // An empty record — the residue of an older server's crash
        // between create and put_full — must neither 409-block
        // registration nor decode as corrupt on read.
        server.store().create("~tenant/u/alice").unwrap();
        assert_eq!(get(&server, "u/alice").status, 404);
        register(&server, "alice", &ALICE_V);
        assert_eq!(get(&server, "u/alice").status, 200);
    }

    #[test]
    fn list_filters_by_prefix() {
        let server = DocsServer::new();
        register(&server, "alice", &ALICE_V);
        register(&server, "bob", &BOB_V);
        put(&server, "x/scratch", "s");
        let resp = server.handle(&Request::get("/tenant/list", &[("prefix", "u/")]));
        let pairs = form::parse_pairs(resp.body_text().unwrap()).unwrap();
        let keys: Vec<&str> = pairs.iter().map(|(_, v)| v.as_str()).collect();
        assert_eq!(keys, vec!["u/alice", "u/bob"]);
        let resp = server.handle(&Request::get("/tenant/list", &[("prefix", "zz/")]));
        assert_eq!(resp.body_text(), Some(""));
    }

    #[test]
    fn records_hidden_from_document_listing_but_snapshotted() {
        let dir = std::env::temp_dir().join(format!(
            "pe-tenant-durable-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let open = || {
            let store = pe_store::ShardedLogStore::open(&dir, 2, pe_store::StoreConfig::default())
                .unwrap();
            DocsServer::with_store(std::sync::Arc::new(store))
        };
        {
            let server = open();
            register(&server, "alice", &ALICE_V);
            let created = server.handle(&Request::post("/Doc", &[("cmd", "create")], ""));
            assert!(created.is_success());
            assert_eq!(server.list_documents(), vec!["doc1".to_string()]);
        }
        // A reopened durable store must still carry the records (with the
        // verifier intact server-side, redacted on read).
        let restored = open();
        assert_eq!(restored.list_documents(), vec!["doc1".to_string()]);
        assert_eq!(get(&restored, "u/alice").status, 200);
        let verify = restored.handle(&Request::post(
            "/tenant/verify",
            &[("key", "u/alice"), ("proof", &hex::encode(&ALICE_V))],
            "",
        ));
        assert_eq!(verify.body_text(), Some("ok=true"));
        drop(restored);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn malformed_keys_rejected() {
        let server = DocsServer::new();
        assert_eq!(put(&server, "", "v").status, 400);
        assert_eq!(put(&server, "a\nb", "v").status, 400);
        assert_eq!(server.handle(&Request::get("/tenant/record", &[])).status, 400);
        assert_eq!(get(&server, "bad\tkey").status, 400);
    }

    #[test]
    fn oversized_record_rejected() {
        let server = DocsServer::new();
        let huge = "x".repeat(MAX_RECORD_BYTES + 1);
        assert_eq!(put(&server, "x/huge", &huge).status, 413);
    }
}
