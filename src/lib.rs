//! # private-editing
//!
//! A Rust reproduction of **"Private Editing Using Untrusted Cloud
//! Services"** (Yan Huang and David Evans, 2nd International Workshop on
//! Security and Privacy in Cloud Computing, 2011).
//!
//! The paper's insight: many cloud editing applications do all their
//! data-dependent computation client-side, so a client-side *mediator*
//! can keep only **ciphertext** on the server while preserving the
//! application. The technical core is **incremental encryption** —
//! ciphertext that can be updated in sub-linear time as the user edits —
//! extended to variable-length multi-character blocks managed by an
//! **IndexedSkipList**.
//!
//! This facade crate re-exports the workspace:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`core`] | `pe-core` | rECB & RPC incremental encryption, delta transformation, baselines |
//! | [`crypto`] | `pe-crypto` | AES, SHA-256, HMAC, PBKDF2, Base32 — all from scratch |
//! | [`indexlist`] | `pe-indexlist` | IndexedSkipList and IndexedAvlTree |
//! | [`delta`] | `pe-delta` | the Google-Docs-style delta protocol |
//! | [`cloud`] | `pe-cloud` | simulated cloud services and the network model |
//! | [`net`] | `pe-net` | real TCP/HTTP transport: codec, server, pooling client |
//! | [`extension`] | `pe-extension` | the privacy mediator ("browser extension") |
//! | [`client`] | `pe-client` | simulated editors, workloads, malicious clients |
//!
//! # Quickstart
//!
//! ```
//! use private_editing::prelude::*;
//! use std::sync::Arc;
//!
//! // An untrusted cloud word processor…
//! let server = Arc::new(DocsServer::new());
//! // …fronted by the privacy mediator.
//! let mut mediator = DocsMediator::new(Arc::clone(&server), MediatorConfig::recb(8));
//! let doc_id = mediator.create_document("correct horse battery staple")?;
//! mediator.save_full(&doc_id, "meet me at noon")?;
//!
//! // The provider never sees the plaintext:
//! assert!(!server.stored_content(&doc_id).unwrap().contains("noon"));
//!
//! // Incremental edits travel as encrypted deltas:
//! let mut edit = Delta::builder();
//! edit.retain(8).insert("me ");
//! mediator.save_delta(&doc_id, &edit.build())?;
//! assert_eq!(mediator.plaintext(&doc_id), Some("meet me me at noon"));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use pe_client as client;
pub use pe_cloud as cloud;
pub use pe_core as core;
pub use pe_crypto as crypto;
pub use pe_delta as delta;
pub use pe_extension as extension;
pub use pe_indexlist as indexlist;
pub use pe_net as net;
pub use pe_tenant as tenant;

/// The most common imports, for examples and applications.
pub mod prelude {
    pub use pe_client::{DirectChannel, DocsClient, Editor, PrivateChannel, SaveOutcome};
    pub use pe_cloud::bespin::BespinServer;
    pub use pe_cloud::buzzword::BuzzwordServer;
    pub use pe_cloud::docs::DocsServer;
    pub use pe_cloud::{CloudService, Request, Response};
    pub use pe_core::{
        DocumentKey, EditOp, IncrementalCipherDoc, Mode, RecbDocument, RpcDocument, SchemeParams,
    };
    pub use pe_crypto::{CtrDrbg, SystemRandom};
    pub use pe_delta::{diff_bytes, Delta, DeltaOp};
    pub use pe_extension::{
        BespinMediator, BuzzwordMediator, DocsMediator, MediatorConfig, Outcome,
    };
    pub use pe_net::{HttpClient, HttpServer, NetError, Router, Service, Transport};
    pub use pe_tenant::{ServiceRecords, TenantDirectory, TenantError};
}
