//! The system under test: `pedit serve`'s stack, in process, over
//! loopback sockets, with or without the tracing wrappers.

use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use pe_cloud::docs::DocsServer;
use pe_cloud::CloudService;
use pe_collab::{LiveDocs, LiveService, LiveTransport};
use pe_crypto::CtrDrbg;
use pe_extension::{DocsMediator, MediatorConfig};
use pe_net::{HttpClient, HttpServer, ServerConfig, Service};
use pe_store::{DocStore, FsyncPolicy, ShardedLogStore, StoreConfig};

use crate::trace::{TracedClient, TracedService, TracedStore, Tracer};

/// Block size of the rECB cipher every mediator uses.
pub const BLOCK: usize = 8;

/// The mediator type every workload drives.
pub type Mediator = DocsMediator<Arc<dyn CloudService>>;

/// Server-side settings, equal to `pedit serve`'s defaults.
#[derive(Debug, Clone, Copy)]
pub struct ServeDefaults {
    pub fsync: FsyncPolicy,
    pub shards: usize,
    pub workers: usize,
}

impl ServeDefaults {
    pub fn get() -> ServeDefaults {
        ServeDefaults {
            fsync: FsyncPolicy::Always,
            // `pedit serve` opens one WAL shard per CPU.
            shards: std::thread::available_parallelism().map_or(1, |n| n.get()),
            workers: ServerConfig::default().workers,
        }
    }
}

/// A running server over a fresh durable store.
pub struct Stack {
    dir: PathBuf,
    store: Arc<ShardedLogStore>,
    server: HttpServer,
    tracer: Option<Arc<Tracer>>,
}

impl Stack {
    /// Opens a fresh store under `dir` and binds the server on an
    /// ephemeral loopback port.
    pub fn start(dir: &Path, tracer: Option<Arc<Tracer>>) -> Result<Stack, String> {
        let _ = std::fs::remove_dir_all(dir);
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        let defaults = ServeDefaults::get();
        let config = StoreConfig {
            fsync: defaults.fsync,
            ..StoreConfig::default()
        };
        let store = Arc::new(
            ShardedLogStore::open(dir, defaults.shards, config)
                .map_err(|e| format!("open store: {e}"))?,
        );
        let docs_store: Arc<dyn DocStore> = match &tracer {
            Some(t) => Arc::new(TracedStore::new(store.clone(), t.clone())),
            None => store.clone(),
        };
        let live = LiveDocs::new(Arc::new(DocsServer::with_store(docs_store)));
        let service: Arc<dyn Service> = match &tracer {
            Some(t) => Arc::new(TracedService::new(Arc::new(LiveService(live)), t.clone())),
            None => Arc::new(LiveService(live)),
        };
        let server = HttpServer::bind("127.0.0.1:0", service, ServerConfig::default())
            .map_err(|e| format!("bind loopback: {e}"))?;
        Ok(Stack {
            dir: dir.to_path_buf(),
            store,
            server,
            tracer,
        })
    }

    pub fn addr(&self) -> SocketAddr {
        self.server.local_addr()
    }

    pub fn tracer(&self) -> Option<&Tracer> {
        self.tracer.as_deref()
    }

    fn wrap(&self, inner: Arc<dyn CloudService>, editor: usize) -> Arc<dyn CloudService> {
        match &self.tracer {
            Some(t) => Arc::new(TracedClient::new(inner, t.clone(), editor)),
            None => inner,
        }
    }

    /// A mediator for `editor` over its own pooling HTTP client.
    pub fn mediator(&self, editor: usize, seed: u64) -> Mediator {
        let transport = self.wrap(Arc::new(HttpClient::new(self.addr())), editor);
        DocsMediator::with_rng(
            transport,
            MediatorConfig::recb(BLOCK),
            CtrDrbg::from_seed(seed),
        )
    }

    /// An untraced mediator with a fresh keyring (the correctness checks'
    /// independent reader).
    pub fn reader(&self, seed: u64) -> Mediator {
        let transport: Arc<dyn CloudService> = Arc::new(HttpClient::new(self.addr()));
        DocsMediator::with_rng(
            transport,
            MediatorConfig::recb(BLOCK),
            CtrDrbg::from_seed(seed),
        )
    }

    /// A mediator for a live editor: pooled requests plus a dedicated
    /// long-poll connection.
    pub fn live_mediator(&self, editor: usize, seed: u64) -> Mediator {
        let live = LiveTransport::new(HttpClient::new(self.addr()), Duration::from_secs(30));
        let transport = self.wrap(Arc::new(live), editor);
        DocsMediator::with_rng(
            transport,
            MediatorConfig::recb(BLOCK),
            CtrDrbg::from_seed(seed),
        )
    }

    /// Stops the server and makes every acknowledged write durable.
    pub fn shutdown(self) -> Result<PathBuf, String> {
        self.server.shutdown();
        self.store
            .flush()
            .map_err(|e| format!("flush store: {e}"))?;
        Ok(self.dir)
    }
}
