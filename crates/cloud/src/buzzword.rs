//! The Adobe-Buzzword-style XML document store (§III "Buzzword").
//!
//! "On every update, the client sends back the whole document content as a
//! XML file encapsulated in a HTTP POST request. By encrypting the text
//! embedded in `<textRun>` tags, we keep submitted document content
//! secure." This module provides the server plus the `<textRun>`
//! extraction/rewriting helpers the mediator uses.

use std::sync::Arc;

use pe_store::{DocStore, MemStore};

use crate::{CloudService, Method, Request, Response};

/// Extracts the contents of every `<textRun>…</textRun>` element, in
/// order.
pub fn text_runs(xml: &str) -> Vec<&str> {
    let mut runs = Vec::new();
    let mut rest = xml;
    while let Some(start) = rest.find("<textRun>") {
        let after = &rest[start + "<textRun>".len()..];
        let Some(end) = after.find("</textRun>") else { break };
        runs.push(&after[..end]);
        rest = &after[end + "</textRun>".len()..];
    }
    runs
}

/// Rewrites every `<textRun>` body with `f`, leaving all other markup
/// untouched.
pub fn map_text_runs<F>(xml: &str, mut f: F) -> String
where
    F: FnMut(&str) -> String,
{
    let mut out = String::with_capacity(xml.len());
    let mut rest = xml;
    while let Some(start) = rest.find("<textRun>") {
        let body_start = start + "<textRun>".len();
        let Some(end) = rest[body_start..].find("</textRun>") else { break };
        out.push_str(&rest[..body_start]);
        out.push_str(&f(&rest[body_start..body_start + end]));
        out.push_str("</textRun>");
        rest = &rest[body_start + end + "</textRun>".len()..];
    }
    out.push_str(rest);
    out
}

/// A whole-document XML store.
///
/// Storage is pluggable via [`DocStore`] — in-memory by default, or a
/// durable [`pe_store::ShardedLogStore`] so posted documents survive a crash.
///
/// # Example
///
/// ```
/// use pe_cloud::buzzword::{text_runs, BuzzwordServer};
/// use pe_cloud::{CloudService, Request};
///
/// let server = BuzzwordServer::new();
/// let xml = "<doc><textRun>hi</textRun></doc>";
/// server.handle(&Request::post("/buzzword/doc/d1", &[], xml));
/// let stored = server.stored("d1").unwrap();
/// assert_eq!(text_runs(&stored), vec!["hi"]);
/// ```
pub struct BuzzwordServer {
    docs: Arc<dyn DocStore>,
}

impl std::fmt::Debug for BuzzwordServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BuzzwordServer").field("store", &self.docs.name()).finish()
    }
}

impl Default for BuzzwordServer {
    fn default() -> BuzzwordServer {
        BuzzwordServer::new()
    }
}

impl BuzzwordServer {
    /// Creates an empty in-memory store.
    pub fn new() -> BuzzwordServer {
        BuzzwordServer::with_store(Arc::new(MemStore::new()))
    }

    /// Creates a store over an existing (possibly durable) store.
    pub fn with_store(docs: Arc<dyn DocStore>) -> BuzzwordServer {
        BuzzwordServer { docs }
    }

    /// The stored XML for a document id.
    pub fn stored(&self, id: &str) -> Option<String> {
        self.docs.content(id).map(|b| String::from_utf8_lossy(&b).into_owned())
    }
}

impl CloudService for BuzzwordServer {
    fn handle(&self, request: &Request) -> Response {
        let Some(id) = request.path.strip_prefix("/buzzword/doc/") else {
            return Response::error(404, "unknown endpoint");
        };
        match request.method {
            Method::Post => {
                let Some(xml) = request.body_text() else {
                    return Response::error(400, "body must be XML text");
                };
                match self.docs.put_full(id, xml.as_bytes()) {
                    Ok(_) => Response::ok(""),
                    Err(e) => Response::error(500, &format!("storage failure: {e}")),
                }
            }
            Method::Get => match self.docs.content(id) {
                Some(xml) => Response::ok(xml),
                None => Response::error(404, "no such document"),
            },
            Method::Put => Response::error(405, "buzzword uses POST"),
        }
    }

    fn name(&self) -> &'static str {
        "buzzword"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extracts_runs_in_order() {
        let xml = "<doc><p><textRun>one</textRun></p><textRun>two</textRun></doc>";
        assert_eq!(text_runs(xml), vec!["one", "two"]);
    }

    #[test]
    fn no_runs_in_plain_markup() {
        assert!(text_runs("<doc><p>bare</p></doc>").is_empty());
    }

    #[test]
    fn map_rewrites_only_run_bodies() {
        let xml = "<doc attr=\"keep\"><textRun>secret</textRun><b>bold</b></doc>";
        let out = map_text_runs(xml, |t| t.to_uppercase());
        assert_eq!(out, "<doc attr=\"keep\"><textRun>SECRET</textRun><b>bold</b></doc>");
    }

    #[test]
    fn map_handles_empty_and_unterminated() {
        assert_eq!(map_text_runs("", |t| t.into()), "");
        let broken = "<textRun>open but never closed";
        assert_eq!(map_text_runs(broken, |t| t.into()), broken);
    }

    #[test]
    fn store_roundtrip() {
        let server = BuzzwordServer::new();
        let xml = "<doc><textRun>content</textRun></doc>";
        assert!(server.handle(&Request::post("/buzzword/doc/x", &[], xml)).is_success());
        let resp = server.handle(&Request::get("/buzzword/doc/x", &[]));
        assert_eq!(resp.body_text(), Some(xml));
        assert_eq!(server.handle(&Request::get("/buzzword/doc/other", &[])).status, 404);
        assert_eq!(server.handle(&Request::put("/buzzword/doc/x", &[], xml)).status, 405);
    }
}
