//! The Mozilla-Bespin-style file store (§III "Bespin").
//!
//! Bespin "simply uses HTTP PUT requests to send user content back to the
//! server stored as a file. No incremental update mechanisms are found."
//! The privacy wrapper therefore only needs to encrypt PUT bodies and
//! decrypt GET responses.

use std::sync::Arc;

use pe_store::{DocStore, MemStore};

use crate::{CloudService, Method, Request, Response};

/// A whole-file PUT/GET code-hosting server.
///
/// Storage is pluggable via [`DocStore`] — in-memory by default, or a
/// durable [`pe_store::ShardedLogStore`] so pushed files survive a crash.
///
/// # Example
///
/// ```
/// use pe_cloud::bespin::BespinServer;
/// use pe_cloud::{CloudService, Request};
///
/// let server = BespinServer::new();
/// server.handle(&Request::put("/file/at/main.rs", &[], "fn main() {}"));
/// let resp = server.handle(&Request::get("/file/at/main.rs", &[]));
/// assert_eq!(resp.body_text(), Some("fn main() {}"));
/// ```
pub struct BespinServer {
    files: Arc<dyn DocStore>,
}

impl std::fmt::Debug for BespinServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BespinServer").field("store", &self.files.name()).finish()
    }
}

impl Default for BespinServer {
    fn default() -> BespinServer {
        BespinServer::new()
    }
}

impl BespinServer {
    /// Creates an empty in-memory file store.
    pub fn new() -> BespinServer {
        BespinServer::with_store(Arc::new(MemStore::new()))
    }

    /// Creates a file store over an existing (possibly durable) store.
    pub fn with_store(files: Arc<dyn DocStore>) -> BespinServer {
        BespinServer { files }
    }

    /// Lists stored file paths (sorted), for tests and examples.
    pub fn list(&self) -> Vec<String> {
        self.files.list()
    }

    /// Raw stored bytes for a path (what the provider can read).
    pub fn stored(&self, path: &str) -> Option<Vec<u8>> {
        self.files.content(path)
    }
}

impl CloudService for BespinServer {
    fn handle(&self, request: &Request) -> Response {
        let Some(path) = request.path.strip_prefix("/file/at/") else {
            return Response::error(404, "unknown endpoint");
        };
        match request.method {
            Method::Put => match self.files.put_full(path, &request.body) {
                Ok(_) => Response::ok(""),
                Err(e) => Response::error(500, &format!("storage failure: {e}")),
            },
            Method::Get => match self.files.content(path) {
                Some(content) => Response::ok(content),
                None => Response::error(404, "no such file"),
            },
            Method::Post => Response::error(405, "bespin uses PUT"),
        }
    }

    fn name(&self) -> &'static str {
        "bespin"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_get_roundtrip() {
        let server = BespinServer::new();
        let resp = server.handle(&Request::put("/file/at/src/lib.rs", &[], "pub fn f() {}"));
        assert!(resp.is_success());
        let resp = server.handle(&Request::get("/file/at/src/lib.rs", &[]));
        assert_eq!(resp.body_text(), Some("pub fn f() {}"));
    }

    #[test]
    fn overwrite_replaces() {
        let server = BespinServer::new();
        server.handle(&Request::put("/file/at/a", &[], "one"));
        server.handle(&Request::put("/file/at/a", &[], "two"));
        assert_eq!(server.stored("a").unwrap(), b"two");
        assert_eq!(server.list(), vec!["a".to_string()]);
    }

    #[test]
    fn missing_file_404() {
        let server = BespinServer::new();
        assert_eq!(server.handle(&Request::get("/file/at/none", &[])).status, 404);
    }

    #[test]
    fn wrong_method_and_path_rejected() {
        let server = BespinServer::new();
        assert_eq!(server.handle(&Request::post("/file/at/a", &[], "x")).status, 405);
        assert_eq!(server.handle(&Request::get("/other", &[])).status, 404);
    }
}
