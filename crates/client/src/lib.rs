//! Simulated editor clients and workload generators.
//!
//! The paper evaluates its extension by driving the real 2011 Google
//! Documents client (manually and with Selenium). This crate plays the
//! client's role for the reproduction:
//!
//! * [`Editor`] — a local text buffer that turns user edits into the
//!   delta messages the client protocol sends (§IV-A).
//! * [`DocsClient`] — a full client: open/save cycles, automatic full
//!   save on the first save of a session, and the Ack-hash conflict check
//!   whose interaction with the extension makes collaborative editing
//!   only partially functional (§VII-A).
//! * [`workload`] — deterministic generators for the paper's benchmark
//!   workloads: the §VII-B random `(D, D′)` pairs and the §VII-C
//!   sentence-level macro operations.
//! * [`malicious`] — covert-channel encoders for the §VI-B malicious
//!   client experiments.
//!
//! # Example
//!
//! ```
//! use pe_client::Editor;
//!
//! let mut editor = Editor::new("hello world");
//! editor.insert(5, ", dear");
//! editor.delete(0, 1);
//! let delta = editor.take_pending();
//! assert_eq!(delta.apply_utf8("hello world").unwrap(), editor.content());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod client;
mod editor;
pub mod malicious;
pub mod workload;

pub use client::{Channel, DirectChannel, DocsClient, PrivateChannel, SaveOutcome};
pub use editor::Editor;
