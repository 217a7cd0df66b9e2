//! The typed entry points (`open_document`, `save_full`, `save_delta`)
//! against the Figure-2 wire path (`intercept` with hand-built client
//! requests).
//!
//! Two identically seeded mediators, each over its own in-process
//! `DocsServer`, run the same session: one through the typed wrappers,
//! the other through `intercept`. Every step must return the same
//! plaintext, leave the same ciphertext bytes on the server, be acked at
//! the same version and tick the same `mediator.*` counters.
//!
//! Everything runs in one test, because the counters live in the
//! process-wide registry: a sibling test in this binary would move them
//! while a step is being measured.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

use pe_cloud::docs::DocsServer;
use pe_cloud::Request;
use pe_crypto::{form, CtrDrbg};
use pe_delta::Delta;
use pe_extension::{DocsMediator, ExtensionError, Mediated, MediatorConfig, Outcome};

/// One side of the comparison: a server and the mediator in front of it.
struct Side {
    server: Arc<DocsServer>,
    mediator: DocsMediator<Arc<DocsServer>>,
}

impl Side {
    fn new(config: MediatorConfig, seed: u64) -> Side {
        let server = Arc::new(DocsServer::new());
        let mediator =
            DocsMediator::with_rng(Arc::clone(&server), config, CtrDrbg::from_seed(seed));
        Side { server, mediator }
    }

    /// Another mediator over the same server, holding no password.
    fn stranger(&self, config: MediatorConfig, seed: u64) -> Side {
        let server = Arc::clone(&self.server);
        let mediator =
            DocsMediator::with_rng(Arc::clone(&server), config, CtrDrbg::from_seed(seed));
        Side { server, mediator }
    }
}

/// What one step produced, in the terms both paths share.
#[derive(Debug, PartialEq)]
enum Step {
    /// A save: the response status, the ack the client sees, its
    /// `version` and the suggested delay.
    Saved { status: u16, ack: String, version: Option<String>, delay: Duration },
    /// An open that returned this content.
    Opened(String),
    /// The server refused with this status and message.
    Refused { status: u16, message: String },
    /// The mediator failed the step.
    Failed(String),
}

fn mediator_counters() -> BTreeMap<String, u64> {
    pe_observe::global()
        .snapshot()
        .counters
        .into_iter()
        .filter(|c| c.name.starts_with("mediator."))
        .map(|c| (c.name, c.value))
        .collect()
}

/// Runs `step` and returns its result with the `mediator.*` counters it
/// moved (zero deltas left out).
fn measured(step: impl FnOnce() -> Step) -> (Step, BTreeMap<String, u64>) {
    let before = mediator_counters();
    let result = step();
    let moved = mediator_counters()
        .into_iter()
        .map(|(name, value)| {
            let delta = value - before.get(&name).copied().unwrap_or(0);
            (name, delta)
        })
        .filter(|(_, delta)| *delta > 0)
        .collect();
    (result, moved)
}

fn saved(result: Result<Mediated, ExtensionError>) -> Step {
    match result {
        Ok(Mediated { response, outcome, suggested_delay }) => {
            assert_eq!(outcome, Outcome::Encrypted);
            let ack = response.body_text().unwrap_or("").to_string();
            let version = form::parse_pairs(&ack)
                .ok()
                .and_then(|pairs| form::first_value(&pairs, "version").map(str::to_string));
            Step::Saved { status: response.status, ack, version, delay: suggested_delay }
        }
        Err(e) => Step::Failed(e.to_string()),
    }
}

fn typed_full(side: &mut Side, doc: &str, text: &str) -> Step {
    saved(side.mediator.save_full(doc, text))
}

fn wire_full(side: &mut Side, doc: &str, text: &str) -> Step {
    let body = form::encode_pairs(&[("docContents", text)]);
    let request = Request::post("/Doc", &[("docID", doc)], body);
    saved(side.mediator.intercept(&request))
}

fn typed_delta(side: &mut Side, doc: &str, delta: &Delta) -> Step {
    saved(side.mediator.save_delta(doc, delta))
}

fn wire_delta(side: &mut Side, doc: &str, delta: &Delta) -> Step {
    let body = form::encode_pairs(&[("delta", delta.serialize().as_str())]);
    let request = Request::post("/Doc", &[("docID", doc)], body);
    saved(side.mediator.intercept(&request))
}

fn typed_open(side: &mut Side, doc: &str) -> Step {
    match side.mediator.open_document(doc) {
        Ok(content) => Step::Opened(content),
        Err(ExtensionError::ServerError { status, message }) => Step::Refused { status, message },
        Err(e) => Step::Failed(e.to_string()),
    }
}

fn wire_open(side: &mut Side, doc: &str) -> Step {
    let request = Request::post("/Doc", &[("docID", doc), ("cmd", "open")], "");
    match side.mediator.intercept(&request) {
        Ok(mediated) => {
            let body = mediated.response.body_text().unwrap_or("").to_string();
            if !mediated.response.is_success() {
                return Step::Refused { status: mediated.response.status, message: body };
            }
            let pairs = form::parse_pairs(&body).expect("open response is a form");
            Step::Opened(form::first_value(&pairs, "content").unwrap_or("").to_string())
        }
        Err(e) => Step::Failed(e.to_string()),
    }
}

/// Runs one step on both sides and checks they agree on the result, the
/// counters it moved and the ciphertext the server holds afterwards.
/// Returns the (shared) result.
fn same(
    what: &str,
    doc: &str,
    typed: (&mut Side, impl FnOnce(&mut Side) -> Step),
    wire: (&mut Side, impl FnOnce(&mut Side) -> Step),
) -> Step {
    let (typed_side, typed_step) = typed;
    let (wire_side, wire_step) = wire;
    let (typed_result, typed_counters) = measured(|| typed_step(typed_side));
    let (wire_result, wire_counters) = measured(|| wire_step(wire_side));
    assert_eq!(typed_result, wire_result, "{what}: typed and wire results differ");
    assert_eq!(typed_counters, wire_counters, "{what}: mediator counters differ");
    assert!(typed_counters.get("mediator.requests") == Some(&1), "{what}: {typed_counters:?}");
    assert_eq!(
        typed_side.server.stored_content(doc),
        wire_side.server.stored_content(doc),
        "{what}: stored ciphertext differs"
    );
    assert_eq!(
        typed_side.mediator.plaintext(doc),
        wire_side.mediator.plaintext(doc),
        "{what}: mirrors differ"
    );
    typed_result
}

/// The documents every session writes: form metacharacters, spaces,
/// newlines, and multi-byte characters.
const TEXTS: [&str; 4] = [
    "a&b=c+d%20e f\nsecond line\n",
    "日本語 & café = ½ + naïve %ff\r\ntab\there ✓",
    "",
    "plain ascii only",
];

fn deltas() -> Vec<(Delta, &'static str)> {
    // Byte-counted, applied in turn to `TEXTS[1]` ("日本語 & café…").
    let mut first = Delta::builder();
    first.retain(9).insert("&x=1+2% ").delete(3);
    let mut second = Delta::builder();
    second.retain(12).insert("\n日本 & ß=ü+é%25 ");
    let mut third = Delta::builder();
    third.delete(3).insert("ω").retain(3).delete(3);
    vec![
        (first.build(), "form metacharacters"),
        (second.build(), "multi-byte"),
        (third.build(), "replace whole characters"),
    ]
}

fn session(config: MediatorConfig, seed: u64) {
    let mut typed = Side::new(config, seed);
    let mut wire = Side::new(config, seed);
    let doc = typed.mediator.create_document("pw").unwrap();
    assert_eq!(wire.mediator.create_document("pw").unwrap(), doc);

    for text in TEXTS {
        let step = same(
            &format!("full save of {text:?}"),
            &doc,
            (&mut typed, |s: &mut Side| typed_full(s, &doc, text)),
            (&mut wire, |s: &mut Side| wire_full(s, &doc, text)),
        );
        assert!(matches!(step, Step::Saved { status: 200, version: Some(_), .. }), "{step:?}");
        let opened = same(
            &format!("open after full save of {text:?}"),
            &doc,
            (&mut typed, |s: &mut Side| typed_open(s, &doc)),
            (&mut wire, |s: &mut Side| wire_open(s, &doc)),
        );
        assert_eq!(opened, Step::Opened(text.to_string()));
    }

    // Delta saves over a document with every metacharacter in it.
    let base = TEXTS[1];
    same(
        "full save before deltas",
        &doc,
        (&mut typed, |s: &mut Side| typed_full(s, &doc, base)),
        (&mut wire, |s: &mut Side| wire_full(s, &doc, base)),
    );
    let mut expected = base.to_string();
    for (delta, what) in deltas() {
        expected = delta.apply_utf8(&expected).unwrap();
        let step = same(
            &format!("delta save ({what})"),
            &doc,
            (&mut typed, |s: &mut Side| typed_delta(s, &doc, &delta)),
            (&mut wire, |s: &mut Side| wire_delta(s, &doc, &delta)),
        );
        assert!(matches!(step, Step::Saved { status: 200, version: Some(_), .. }), "{step:?}");
        let opened = same(
            &format!("open after delta save ({what})"),
            &doc,
            (&mut typed, |s: &mut Side| typed_open(s, &doc)),
            (&mut wire, |s: &mut Side| wire_open(s, &doc)),
        );
        assert_eq!(opened, Step::Opened(expected.clone()));
    }

    // A delta that does not fit the document fails on both paths and
    // counts as a mediator error.
    let mut too_long = Delta::builder();
    too_long.retain(expected.len() + 10).insert("x");
    let too_long = too_long.build();
    let step = same(
        "delta that does not fit",
        &doc,
        (&mut typed, |s: &mut Side| typed_delta(s, &doc, &too_long)),
        (&mut wire, |s: &mut Side| wire_delta(s, &doc, &too_long)),
    );
    assert!(matches!(step, Step::Failed(_)), "{step:?}");

    // A reader without the password sees the stored ciphertext.
    let stored = typed.server.stored_content(&doc).unwrap();
    let mut typed_reader = typed.stranger(config, seed + 1);
    let mut wire_reader = wire.stranger(config, seed + 1);
    let step = same(
        "open without a password",
        &doc,
        (&mut typed_reader, |s: &mut Side| typed_open(s, &doc)),
        (&mut wire_reader, |s: &mut Side| wire_open(s, &doc)),
    );
    assert_eq!(step, Step::Opened(stored));

    // A document the server does not have: a 404 passes through.
    let step = same(
        "open of a missing document",
        "missing",
        (&mut typed, |s: &mut Side| typed_open(s, "missing")),
        (&mut wire, |s: &mut Side| wire_open(s, "missing")),
    );
    assert!(matches!(step, Step::Refused { status: 404, .. }), "{step:?}");
}

#[test]
fn typed_wrappers_match_the_intercept_path() {
    session(MediatorConfig::recb(8), 17);
    session(MediatorConfig::rpc(7), 18);
    let countermeasures = MediatorConfig {
        canonicalize_deltas: false,
        pad_updates: true,
        random_delay: true,
        ..MediatorConfig::recb(4)
    };
    session(countermeasures, 19);
}
