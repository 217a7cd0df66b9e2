//! Outside-in tracing: timing wrappers around each layer's public trait.
//!
//! Nothing inside the program is instrumented. The traced run installs
//!
//! * [`TracedClient`] — a `CloudService` around the mediator's transport
//!   (`HttpClient` or `LiveTransport`), the `net` client span;
//! * [`TracedService`] — a `pe_net::Service` around `LiveService`, handed
//!   to `HttpServer::bind`, the `cloud` handler span;
//! * [`TracedStore`] — a `DocStore` around the `ShardedLogStore`, handed
//!   to `DocsServer::with_store`, the `store` spans;
//! * [`Tracer::op`] / [`Tracer::step`] — timers the workloads put around
//!   `DocsMediator` and `LiveSession` calls, the `extension` / `collab`
//!   spans.
//!
//! A client span and the server spans of the same request are linked by
//! a span id the client wrapper appends as the `perfbench_span` query
//! parameter and the server wrapper strips before the service sees the
//! request. Store spans nest under the handler span running on the same
//! worker thread; client spans nest under the op span running on the
//! same client thread. Spans are kept in memory and analysed when the
//! run ends.

use std::cell::Cell;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use pe_cloud::{CloudService, Method, Request, Response};
use pe_crypto::form;
use pe_delta::Delta;
use pe_net::{Served, Service, Waker};
use pe_store::{CompactionStats, DeltaLimits, DocState, DocStore, StoreError};

use crate::stats::Samples;

/// Query parameter carrying the client span id to the server wrapper.
const LINK_PARAM: &str = "perfbench_span";

/// A user operation timed around a `DocsMediator` / `LiveSession` call.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Op {
    /// One delta save (`save_delta`, or `LiveSession::save`).
    Save,
    /// One `save_full`.
    FullSave,
    /// One `open_document`.
    Open,
}

impl Op {
    pub const ALL: [Op; 3] = [Op::Save, Op::FullSave, Op::Open];

    pub fn name(self) -> &'static str {
        match self {
            Op::Save => "save",
            Op::FullSave => "full_save",
            Op::Open => "open",
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Op(Op),
    /// `LiveSession::step`.
    Step,
    /// Client transport call (`net` client side).
    Client,
    /// Server service dispatch (`cloud` handler).
    Handler,
    /// One `DocStore` call.
    Store,
}

#[derive(Debug, Clone, Copy)]
struct Span {
    id: u64,
    parent: u64,
    kind: Kind,
    start: u64,
    end: u64,
    bytes_out: u64,
    bytes_in: u64,
}

impl Span {
    fn dur(&self) -> i64 {
        self.end as i64 - self.start as i64
    }
}

thread_local! {
    /// Innermost open span on this thread (0 = none).
    static CURRENT: Cell<u64> = const { Cell::new(0) };
}

/// In-memory span recorder shared by every wrapper of one traced run.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
    /// Server side: (change sequence, time the save handler returned).
    save_returns: Mutex<Vec<(u64, u64)>>,
    /// Client side: (change sequence, authoring editor).
    authors: Mutex<Vec<(u64, usize)>>,
    /// Client side: (receiving editor, change sequence, receive time).
    frames: Mutex<Vec<(usize, u64, u64)>>,
    /// Client side: completion time of each `/Doc/changes` request.
    change_polls: Mutex<Vec<u64>>,
}

/// Closes its span when dropped.
pub struct Scope<'a> {
    tracer: &'a Tracer,
    span: Span,
    outer: u64,
}

impl Drop for Scope<'_> {
    fn drop(&mut self) {
        self.span.end = self.tracer.now();
        CURRENT.with(|c| c.set(self.outer));
        self.tracer.push(self.span);
    }
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().expect("a traced thread panicked while recording")
}

impl Tracer {
    pub fn new() -> Arc<Tracer> {
        Arc::new(Tracer {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::with_capacity(1 << 16)),
            save_returns: Mutex::default(),
            authors: Mutex::default(),
            frames: Mutex::default(),
            change_polls: Mutex::default(),
        })
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    fn push(&self, span: Span) {
        lock(&self.spans).push(span);
    }

    fn open(&self, kind: Kind, parent: u64) -> Scope<'_> {
        let id = self.id();
        let outer = CURRENT.with(|c| c.replace(id));
        let start = self.now();
        Scope {
            tracer: self,
            span: Span {
                id,
                parent,
                kind,
                start,
                end: start,
                bytes_out: 0,
                bytes_in: 0,
            },
            outer,
        }
    }

    /// Times one user operation on the calling thread.
    pub fn op(&self, op: Op) -> Scope<'_> {
        self.open(Kind::Op(op), 0)
    }

    /// Times one `LiveSession::step` on the calling thread.
    pub fn step(&self) -> Scope<'_> {
        self.open(Kind::Step, 0)
    }
}

/// The change sequence a save ack or a stored-save response carries.
fn response_version(response: &Response) -> Option<u64> {
    let pairs = form::parse_pairs(response.body_text()?).ok()?;
    form::first_value(&pairs, "version")?.parse().ok()
}

fn is_save(request: &Request) -> bool {
    request.method == Method::Post && request.path == "/Doc" && request.query_param("cmd").is_none()
}

fn is_changes(request: &Request) -> bool {
    request.method == Method::Get && request.path == "/Doc/changes"
}

/// `net` client span around the mediator's transport.
pub struct TracedClient {
    inner: Arc<dyn CloudService>,
    tracer: Arc<Tracer>,
    editor: usize,
}

impl TracedClient {
    pub fn new(inner: Arc<dyn CloudService>, tracer: Arc<Tracer>, editor: usize) -> TracedClient {
        TracedClient {
            inner,
            tracer,
            editor,
        }
    }
}

impl CloudService for TracedClient {
    fn handle(&self, request: &Request) -> Response {
        let parent = CURRENT.with(Cell::get);
        let mut scope = self.tracer.open(Kind::Client, parent);
        let mut linked = request.clone();
        linked
            .query
            .push((LINK_PARAM.into(), scope.span.id.to_string()));
        let response = self.inner.handle(&linked);
        scope.span.bytes_out = request.body.len() as u64;
        scope.span.bytes_in = response.body.len() as u64;
        drop(scope);
        let received = self.tracer.now();
        if response.is_success() && is_save(request) {
            if let Some(seq) = response_version(&response) {
                lock(&self.tracer.authors).push((seq, self.editor));
            }
        } else if is_changes(request) {
            lock(&self.tracer.change_polls).push(received);
            if let Ok(update) = pe_collab::parse_changes(response.body_text().unwrap_or("")) {
                let mut frames = lock(&self.tracer.frames);
                for (seq, _) in &update.changes {
                    frames.push((self.editor, *seq, received));
                }
            }
        }
        response
    }

    fn name(&self) -> &'static str {
        "traced-client"
    }
}

/// `cloud` handler span around the service handed to `HttpServer::bind`.
pub struct TracedService {
    inner: Arc<dyn Service>,
    tracer: Arc<Tracer>,
}

impl TracedService {
    pub fn new(inner: Arc<dyn Service>, tracer: Arc<Tracer>) -> TracedService {
        TracedService { inner, tracer }
    }

    fn dispatch(&self, request: &Request, call: impl FnOnce(&Request) -> Served) -> Served {
        let mut stripped = request.clone();
        let mut link = 0;
        stripped.query.retain(|(k, v)| {
            if k == LINK_PARAM {
                link = v.parse().unwrap_or(0);
                false
            } else {
                true
            }
        });
        let scope = self.tracer.open(Kind::Handler, link);
        let served = call(&stripped);
        drop(scope);
        if let Served::Response(response) = &served {
            if response.is_success() && is_save(&stripped) {
                if let Some(seq) = response_version(response) {
                    let returned = self.tracer.now();
                    lock(&self.tracer.save_returns).push((seq, returned));
                }
            }
        }
        served
    }
}

impl Service for TracedService {
    fn call(&self, request: &Request) -> Response {
        match self.dispatch(request, |r| Served::Response(self.inner.call(r))) {
            Served::Response(response) => response,
            Served::Parked { on_timeout, .. } => on_timeout,
        }
    }

    fn call_deferred(&self, request: &Request, waker: Waker) -> Served {
        self.dispatch(request, |r| self.inner.call_deferred(r, waker))
    }

    fn service_name(&self) -> &str {
        self.inner.service_name()
    }
}

/// `store` spans around the `DocStore` handed to `DocsServer::with_store`.
pub struct TracedStore {
    inner: Arc<dyn DocStore>,
    tracer: Arc<Tracer>,
}

impl TracedStore {
    pub fn new(inner: Arc<dyn DocStore>, tracer: Arc<Tracer>) -> TracedStore {
        TracedStore { inner, tracer }
    }

    fn timed<R>(&self, f: impl FnOnce() -> R) -> R {
        let parent = CURRENT.with(Cell::get);
        let _scope = self.tracer.open(Kind::Store, parent);
        f()
    }
}

impl DocStore for TracedStore {
    fn get(&self, id: &str) -> Option<DocState> {
        self.timed(|| self.inner.get(id))
    }
    fn content(&self, id: &str) -> Option<Vec<u8>> {
        self.timed(|| self.inner.content(id))
    }
    fn contains(&self, id: &str) -> bool {
        self.timed(|| self.inner.contains(id))
    }
    fn list(&self) -> Vec<String> {
        self.timed(|| self.inner.list())
    }
    fn create(&self, id: &str) -> Result<bool, StoreError> {
        self.timed(|| self.inner.create(id))
    }
    fn put_full(&self, id: &str, content: &[u8]) -> Result<u64, StoreError> {
        self.timed(|| self.inner.put_full(id, content))
    }
    fn apply_delta(
        &self,
        id: &str,
        delta: &Delta,
        limits: DeltaLimits,
    ) -> Result<DocState, StoreError> {
        self.timed(|| self.inner.apply_delta(id, delta, limits))
    }
    fn remove(&self, id: &str) -> Result<bool, StoreError> {
        self.timed(|| self.inner.remove(id))
    }
    fn meta(&self, key: &str) -> Option<u64> {
        self.timed(|| self.inner.meta(key))
    }
    fn set_meta(&self, key: &str, value: u64) -> Result<(), StoreError> {
        self.timed(|| self.inner.set_meta(key, value))
    }
    fn bump_meta(&self, key: &str) -> Result<u64, StoreError> {
        self.timed(|| self.inner.bump_meta(key))
    }
    fn meta_entries(&self) -> Vec<(String, u64)> {
        self.timed(|| self.inner.meta_entries())
    }
    fn flush(&self) -> Result<(), StoreError> {
        self.timed(|| self.inner.flush())
    }
    fn compact(&self) -> Result<CompactionStats, StoreError> {
        self.timed(|| self.inner.compact())
    }
    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// Nanoseconds of `[start, end)` covered by the union of `children`.
fn covered(start: u64, end: u64, children: &[&Span]) -> i64 {
    let mut parts: Vec<(u64, u64)> = children
        .iter()
        .map(|c| (c.start.clamp(start, end), c.end.clamp(start, end)))
        .filter(|(s, e)| e > s)
        .collect();
    parts.sort_unstable();
    let (mut total, mut reach) = (0u64, start);
    for (s, e) in parts {
        let s = s.max(reach);
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total as i64
}

/// Per-layer self times of one kind of operation.
#[derive(Debug, Default, Clone)]
pub struct OpBreakdown {
    pub wall: Samples,
    pub extension: Samples,
    pub net: Samples,
    pub cloud: Samples,
    pub store: Samples,
    pub req_bytes: u64,
    pub resp_bytes: u64,
}

impl OpBreakdown {
    /// Σ layer self-times ÷ traced wall time (0 when the op never ran).
    pub fn closure(&self) -> f64 {
        let wall = self.wall.sum_ns();
        if wall == 0 {
            return 0.0;
        }
        let layers =
            self.extension.sum_ns() + self.net.sum_ns() + self.cloud.sum_ns() + self.store.sum_ns();
        layers as f64 / wall as f64
    }
}

/// Everything the traced run derives from its spans.
#[derive(Debug, Default)]
pub struct Analysis {
    pub ops: HashMap<Op, OpBreakdown>,
    /// `LiveSession::step` minus its transport span.
    pub step_self: Samples,
    /// Save handler return → the other editor's transport receives it.
    pub wake: Samples,
    /// `/Doc/changes` requests that completed inside the window.
    pub change_polls: u64,
}

impl Tracer {
    /// Derives self times from the spans of operations that started at
    /// or after `from` (earlier ones warmed the stack up). Change polls
    /// are counted only when they completed in `from..to`, the interval
    /// the counter snapshots cover.
    pub fn analyse(&self, from: Instant, to: Instant) -> Analysis {
        let at = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        let (cutoff, end) = (at(from), at(to));
        let spans = lock(&self.spans);
        let mut children: HashMap<u64, Vec<&Span>> = HashMap::new();
        for span in spans.iter() {
            if span.parent != 0 {
                children.entry(span.parent).or_default().push(span);
            }
        }
        let kids = |id: u64, kind: Kind| -> Vec<&Span> {
            children
                .get(&id)
                .map(|v| v.iter().copied().filter(|s| s.kind == kind).collect())
                .unwrap_or_default()
        };
        let mut analysis = Analysis::default();
        for span in spans.iter().filter(|s| s.start >= cutoff) {
            match span.kind {
                Kind::Op(op) => {
                    let clients = kids(span.id, Kind::Client);
                    let entry = analysis.ops.entry(op).or_default();
                    entry.wall.push_ns(span.dur());
                    entry
                        .extension
                        .push_ns(span.dur() - covered(span.start, span.end, &clients));
                    let (mut net, mut cloud, mut store) = (0, 0, 0);
                    for client in &clients {
                        entry.req_bytes += client.bytes_out;
                        entry.resp_bytes += client.bytes_in;
                        let handlers = kids(client.id, Kind::Handler);
                        if handlers.is_empty() {
                            // Unlinked: left unattributed, so closure shows it.
                            continue;
                        }
                        net += client.dur() - covered(client.start, client.end, &handlers);
                        for handler in &handlers {
                            let stores = kids(handler.id, Kind::Store);
                            let in_store = covered(handler.start, handler.end, &stores);
                            cloud += handler.dur() - in_store;
                            store += in_store;
                        }
                    }
                    entry.net.push_ns(net);
                    entry.cloud.push_ns(cloud);
                    entry.store.push_ns(store);
                }
                Kind::Step => {
                    let clients = kids(span.id, Kind::Client);
                    analysis
                        .step_self
                        .push_ns(span.dur() - covered(span.start, span.end, &clients));
                }
                _ => {}
            }
        }
        drop(spans);

        let returns: HashMap<u64, u64> = lock(&self.save_returns).iter().copied().collect();
        let authors: HashMap<u64, usize> = lock(&self.authors).iter().copied().collect();
        let mut seen = HashSet::new();
        for &(editor, seq, received) in lock(&self.frames).iter().filter(|f| f.2 >= cutoff) {
            let foreign = authors.get(&seq).is_some_and(|&a| a != editor);
            if let (true, Some(&returned)) = (foreign, returns.get(&seq)) {
                if seen.insert((editor, seq)) {
                    analysis.wake.push_ns(received as i64 - returned as i64);
                }
            }
        }
        analysis.change_polls = lock(&self.change_polls)
            .iter()
            .filter(|&&t| (cutoff..end).contains(&t))
            .count() as u64;
        analysis
    }
}
