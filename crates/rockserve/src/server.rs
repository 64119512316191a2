//! The serving edge: a TCP listener feeding a fixed-width worker pool, with
//! admission control and a drain-then-shutdown lifecycle wired to the
//! pipeline's `Drop`-join contract.
//!
//! ## Sharding
//!
//! The backend is split into `ServeConfig::shards` signature-hash shards
//! (`pipeline::shard_of`), each a full `AutotuneBackend` on its own worker
//! thread with its own suggestion memo, admission gate, memory-bounded tuner
//! LRU, and — when durable — its own WAL/snapshot lineage under
//! [`shard_state_dir`]. Because routing is a pure function of the signature
//! and tuner seeds derive from `(root_seed, signature)` alone, the served
//! points are bit-identical at any shard count (DESIGN.md §11).
//!
//! ## Determinism under concurrency
//!
//! Each shard's backend memoizes every suggestion under its full request
//! content `(user, signature, context)` (`pipeline::memo`). A worker answers
//! a memo hit itself; a miss goes to the shard, which checks the memo again
//! before evaluating, so concurrent duplicates share one evaluation. A
//! `Report` drops the tenant's entries for its signatures when the shard
//! applies it, and is acknowledged only after that, so the served point is a
//! pure function of the request history content — never of socket timing or
//! worker interleaving, and never of the `RH_THREADS` pool width.
//!
//! ## Backpressure
//!
//! Two bounded admission gates, both answering `Response::Overloaded` instead
//! of buffering without bound: `max_pending_conns` caps connections accepted
//! but not yet picked up by a worker (the acceptor sheds above it), and
//! `max_inflight_suggests` caps Suggests forwarded to one shard at once (memo
//! hits are exempt since they never leave the worker).
//!
//! ## Shutdown ordering
//!
//! A `Shutdown` frame (or [`Server::shutdown`] / dropping the handle) flips
//! the drain flag and wakes the blocking acceptor with a throwaway connect.
//! The acceptor exits, dropping the connection queue's sender; workers finish
//! their current connections, drain every queued connection, then exit on the
//! closed channel. Only after every serving thread has joined is the inner
//! `AutotuneService` shut down — which itself drains its request queue and
//! joins the backend thread before handing the [`AutotuneBackend`] back.

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver, Sender};
use optimizers::space::ConfigSpace;
use optimizers::tuner::TuningContext;
use pipeline::{
    shard_of, AutotuneBackend, AutotuneClient, Corpus, KnnIndex, Provenance, Served,
    ShardedAutotuneClient, ShardedAutotuneService, TransferPolicy,
};

use crate::metrics::{render_text, ServeMetrics};
use crate::proto::{self, codes, Request, Response, WireError, PROTOCOL_VERSION};

/// How long an idle connection read blocks before re-checking the drain flag.
const IDLE_POLL: Duration = Duration::from_millis(100);

/// Serving-layer tunables. `Default` is sized for the load-generation bench;
/// the e2e tests pin the admission caps to force deterministic shedding.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker-pool width; `0` means `rockpool::configured_threads()`
    /// (the `RH_THREADS` discipline shared with the evaluation pool).
    pub workers: usize,
    /// Connections accepted but not yet picked up by a worker before the
    /// acceptor sheds with `Overloaded`.
    pub max_pending_conns: usize,
    /// Suggests forwarded to one shard at once (memo misses) before further
    /// misses are shed with `Overloaded`; memo hits are exempt.
    pub max_inflight_suggests: usize,
    /// How long a suggest waits on the backend before degrading to the
    /// default configuration.
    pub suggest_timeout: Duration,
    /// Durable-state directory. When set, each shard recovers from its own
    /// subdirectory (see [`shard_state_dir`]) *before* the listener accepts
    /// anything (replay-before-accept) and WAL-logs every mutation there from
    /// then on. Recovery restores each shard's suggestion memo too, so a
    /// restarted server answers repeated requests exactly as the crashed one
    /// would have.
    pub state_dir: Option<std::path::PathBuf>,
    /// WAL records between compacted snapshots (ignored without `state_dir`).
    pub snapshot_every: u64,
    /// Signature-hash shards, each a full backend on its own worker thread
    /// with its own suggestion memo, admission gate, and (when durable) WAL
    /// lineage. `0` and `1` both mean a single shard.
    pub shards: usize,
    /// Per-shard bound on resident per-signature tuner state: the LRU above
    /// it spills to durable sidecars. `0` keeps the pipeline default.
    pub shard_capacity: usize,
    /// Retrieval corpus directory (a `rockindex::Corpus` lineage). When set,
    /// the corpus is opened and indexed at boot and every shard consults it
    /// on cold suggests (DESIGN.md §12): a signature with no tuner state is
    /// served its nearest warm neighbor's best config, tagged `transferred`
    /// on the wire, before the normal tuning loop takes over.
    pub retrieval_dir: Option<std::path::PathBuf>,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            workers: 0,
            max_pending_conns: 1024,
            max_inflight_suggests: 256,
            suggest_timeout: Duration::from_secs(30),
            state_dir: None,
            snapshot_every: pipeline::durability::DEFAULT_SNAPSHOT_EVERY,
            shards: 1,
            shard_capacity: 0,
            retrieval_dir: None,
        }
    }
}

/// Where shard `shard` of `shards` keeps its durable state under `root`:
/// the root itself for a single-shard deployment (bit-compatible with the
/// pre-sharding layout), `root/shard-NNNN` otherwise. The load generator and
/// the kill-recover smoke script tear specific shards through this layout.
pub fn shard_state_dir(root: &std::path::Path, shard: usize, shards: usize) -> std::path::PathBuf {
    if shards <= 1 {
        root.to_path_buf()
    } else {
        root.join(format!("shard-{shard:04}"))
    }
}

/// One shard's serving-side state: its backend client (with its read handle
/// on the shard's memo) and its own admission gate. Routing a signature to
/// its lane is a pure function of the signature ([`shard_of`]), so
/// per-signature ordering holds through the lane's queue no matter how many
/// lanes exist.
struct ShardLane {
    client: AutotuneClient,
    /// Suggests forwarded to this shard and not yet answered.
    inflight: AtomicU64,
}

struct Shared {
    /// Fan-out client for work that spans shards (reports, merged counters).
    client: ShardedAutotuneClient,
    /// Per-shard serving lanes, index = shard id.
    lanes: Vec<ShardLane>,
    space: ConfigSpace,
    cfg: ServeConfig,
    local_addr: SocketAddr,
    draining: AtomicBool,
    /// Connections accepted, not yet picked up by a worker.
    queued: AtomicU64,
    metrics: ServeMetrics,
}

/// A live serving instance. Dropping the handle drains and joins everything —
/// the same contract `AutotuneService` honors one layer down.
pub struct Server {
    shared: Arc<Shared>,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    service: Option<ShardedAutotuneService>,
    /// What boot-time recovery found, merged over every shard; `None`
    /// without a state dir.
    recovery: Option<pipeline::RecoveryReport>,
}

impl Server {
    /// Bind `addr` (use port 0 for an ephemeral port) and start serving
    /// `backend` — split into `cfg.shards` signature-hash shards — on a
    /// fixed-width worker pool.
    pub fn spawn(
        backend: AutotuneBackend,
        addr: &str,
        cfg: ServeConfig,
    ) -> std::io::Result<Server> {
        let shards = cfg.shards.clamp(1, 64);
        // Open and index the retrieval corpus before the split, so every
        // shard shares the identical index (transfer answers must be
        // bit-identical at any shard count) and before recovery, so replayed
        // suggests consult the same index the crashed process did.
        let mut backend = backend;
        if let Some(dir) = &cfg.retrieval_dir {
            let (corpus, _recovery) = Corpus::open(dir)?;
            let index = Arc::new(KnnIndex::build(&corpus));
            backend = backend.with_retrieval(index, TransferPolicy::default());
        }
        let mut backends = backend.split_into_shards(shards, cfg.shard_capacity);
        // Replay-before-accept: recover each shard's durable state, memo
        // included, before the listener exists, so no request can race the
        // replay.
        let mut recovery: Option<pipeline::RecoveryReport> = None;
        if let Some(dir) = &cfg.state_dir {
            let mut merged = pipeline::RecoveryReport::default();
            for (i, b) in backends.iter_mut().enumerate() {
                let report = b.recover_from_with(
                    &shard_state_dir(dir, i, shards),
                    cfg.snapshot_every.max(1),
                )?;
                merged.replayed += report.replayed;
                merged.quarantined += report.quarantined;
                merged.quarantined_bytes += report.quarantined_bytes;
                merged.restored_snapshot |= report.restored_snapshot;
            }
            recovery = Some(merged);
        }
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let (service, client) = ShardedAutotuneService::spawn(backends);
        let lanes = client
            .clients()
            .iter()
            .map(|shard_client| ShardLane {
                client: shard_client.clone(),
                inflight: AtomicU64::new(0),
            })
            .collect();
        let width = if cfg.workers == 0 {
            rockpool::configured_threads()
        } else {
            cfg.workers
        }
        .clamp(1, 64);
        let shared = Arc::new(Shared {
            client,
            lanes,
            space: ConfigSpace::query_level(),
            cfg,
            local_addr,
            draining: AtomicBool::new(false),
            queued: AtomicU64::new(0),
            metrics: ServeMetrics::with_shards(shards),
        });
        let (conn_tx, conn_rx) = unbounded::<TcpStream>();
        let acceptor = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || accept_loop(&listener, &shared, &conn_tx))
        };
        let workers = (0..width)
            .map(|_| {
                let shared = Arc::clone(&shared);
                let rx = conn_rx.clone();
                std::thread::spawn(move || worker_loop(&shared, &rx))
            })
            .collect();
        Ok(Server {
            shared,
            acceptor: Some(acceptor),
            workers,
            service: Some(service),
            recovery,
        })
    }

    /// The bound address (resolves the ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.local_addr
    }

    /// What boot-time recovery replayed and quarantined; `None` when the
    /// server was spawned without a state directory.
    pub fn recovery_report(&self) -> Option<&pipeline::RecoveryReport> {
        self.recovery.as_ref()
    }

    /// Block until something drains the server (a `Shutdown` frame from a
    /// client, typically), then join every thread and recover the per-shard
    /// backends, index = shard id. A `None` entry marks a shard whose
    /// backend thread panicked (its state is lost with it).
    pub fn join(mut self) -> Vec<Option<AutotuneBackend>> {
        self.finish()
    }

    /// Drain now: stop accepting, serve everything queued, join every
    /// thread, and recover the per-shard backends, index = shard id. A
    /// `None` entry marks a shard whose backend thread panicked.
    pub fn shutdown(mut self) -> Vec<Option<AutotuneBackend>> {
        begin_drain(&self.shared);
        self.finish()
    }

    fn finish(&mut self) -> Vec<Option<AutotuneBackend>> {
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
        let mut backends = self
            .service
            .take()
            .map(ShardedAutotuneService::shutdown)
            .unwrap_or_default();
        // Flush-on-drain: force-sync every shard's WAL so a clean shutdown
        // loses nothing. Deliberately a sync, not a final snapshot — the
        // next boot exercises real log replay.
        for b in backends.iter_mut().flatten() {
            let _ = b.flush_durability();
        }
        backends
    }
}

impl Drop for Server {
    /// A dropped server must not leave acceptor or workers detached: drain
    /// and join, exactly as [`Server::shutdown`] would.
    fn drop(&mut self) {
        begin_drain(&self.shared);
        let _ = self.finish();
    }
}

/// Flip the drain flag once and wake the blocking acceptor with a throwaway
/// connect so it observes the flag.
fn begin_drain(shared: &Shared) {
    if !shared.draining.swap(true, Ordering::AcqRel) {
        let _ = TcpStream::connect(shared.local_addr);
    }
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>, conn_tx: &Sender<TcpStream>) {
    for conn in listener.incoming() {
        if shared.draining.load(Ordering::Acquire) {
            break;
        }
        let Ok(stream) = conn else { continue };
        let queued = shared.queued.load(Ordering::Acquire);
        let cap = u64::try_from(shared.cfg.max_pending_conns).unwrap_or(u64::MAX);
        if queued >= cap {
            shared.metrics.count_overloaded();
            shed_connection(stream, queued, cap);
            continue;
        }
        shared.queued.fetch_add(1, Ordering::AcqRel);
        if conn_tx.send(stream).is_err() {
            break;
        }
    }
    // conn_tx drops here; workers drain the queue, then exit on the closed
    // channel.
}

/// Best-effort `Overloaded` reply to a connection shed at the accept gate.
fn shed_connection(mut stream: TcpStream, inflight: u64, capacity: u64) {
    let _ = stream.set_write_timeout(Some(Duration::from_millis(200)));
    let _ = send_response(&mut stream, &Response::Overloaded { inflight, capacity });
}

fn worker_loop(shared: &Arc<Shared>, conn_rx: &Receiver<TcpStream>) {
    while let Ok(stream) = conn_rx.recv() {
        shared.queued.fetch_sub(1, Ordering::AcqRel);
        handle_connection(shared, stream);
    }
}

fn send_response(stream: &mut TcpStream, resp: &Response) -> bool {
    match proto::encode_response(resp) {
        Ok(payload) => proto::write_frame(stream, &payload).is_ok(),
        Err(_) => false,
    }
}

fn error_response(e: &WireError) -> Response {
    Response::Error {
        code: e.code().to_string(),
        message: e.to_string(),
    }
}

/// Serve one connection until it closes, errors, or the server drains. The
/// short read timeout is an idle poll: a connection sitting between frames
/// re-checks the drain flag every [`IDLE_POLL`]; a frame already arriving is
/// always read to completion (see `proto::read_full`).
fn handle_connection(shared: &Arc<Shared>, mut stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(IDLE_POLL));
    let _ = stream.set_nodelay(true);
    loop {
        match proto::read_frame(&mut stream) {
            Ok(None) => break,
            Ok(Some(payload)) => {
                let started = Instant::now();
                let (resp, is_shutdown) = match proto::decode_request(&payload) {
                    Ok(req) => dispatch(shared, req),
                    Err(e) => {
                        shared.metrics.count_protocol_error();
                        (error_response(&e), false)
                    }
                };
                let sent = send_response(&mut stream, &resp);
                let us = u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);
                shared.metrics.record_latency_us(us);
                if is_shutdown {
                    begin_drain(shared);
                    break;
                }
                if !sent || matches!(resp, Response::Error { .. }) {
                    break;
                }
            }
            Err(WireError::Io(e))
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                if shared.draining.load(Ordering::Acquire) {
                    break;
                }
            }
            Err(e) => {
                shared.metrics.count_protocol_error();
                let _ = send_response(&mut stream, &error_response(&e));
                break;
            }
        }
    }
}

/// Route one decoded request; the bool asks the connection loop to start the
/// server-wide drain after replying.
fn dispatch(shared: &Arc<Shared>, req: Request) -> (Response, bool) {
    match req {
        Request::Suggest {
            user,
            signature,
            embedding,
            expected_data_size,
            iteration,
        } => {
            let ctx = TuningContext {
                embedding,
                expected_data_size,
                iteration,
            };
            (serve_suggest(shared, &user, signature, &ctx), false)
        }
        Request::Report {
            user,
            app_id,
            jsonl,
        } => (serve_report(shared, &user, &app_id, jsonl), false),
        Request::Health => {
            shared.metrics.count_health();
            (
                Response::Healthy {
                    draining: shared.draining.load(Ordering::Acquire),
                    protocol_version: PROTOCOL_VERSION,
                },
                false,
            )
        }
        Request::Metrics => (serve_metrics(shared), false),
        Request::Shutdown => {
            shared.metrics.count_shutdown();
            (Response::ShuttingDown, true)
        }
    }
}

fn serve_suggest(
    shared: &Arc<Shared>,
    user: &str,
    signature: u64,
    ctx: &TuningContext,
) -> Response {
    let started = Instant::now();
    let shard = shard_of(signature, shared.lanes.len());
    shared.metrics.count_suggest(shard);
    let resp = serve_suggest_on(shared, shard, user, signature, ctx);
    let us = u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);
    shared.metrics.record_shard_latency_us(shard, us);
    resp
}

/// The suggest path after routing: a memo hit is answered on this worker;
/// a miss passes the lane's admission gate and goes to the shard.
fn serve_suggest_on(
    shared: &Arc<Shared>,
    shard: usize,
    user: &str,
    signature: u64,
    ctx: &TuningContext,
) -> Response {
    let Some(lane) = shared.lanes.get(shard) else {
        return Response::Error {
            code: codes::MALFORMED_FRAME.to_string(),
            message: format!("signature routed to missing shard {shard}"),
        };
    };
    if let Some(hit) = lane.client.memo_hit(user, signature, ctx) {
        return suggestion_response(shared, shard, hit);
    }
    let inflight = lane.inflight.load(Ordering::Acquire);
    let cap = u64::try_from(shared.cfg.max_inflight_suggests).unwrap_or(u64::MAX);
    if inflight >= cap {
        shared.metrics.count_shard_overloaded(shard);
        return Response::Overloaded {
            inflight,
            capacity: cap,
        };
    }
    lane.inflight.fetch_add(1, Ordering::AcqRel);
    let served = lane
        .client
        .serve(user, signature, ctx, shared.cfg.suggest_timeout);
    lane.inflight.fetch_sub(1, Ordering::AcqRel);
    match served {
        Ok(s) => suggestion_response(shared, shard, s),
        // Nothing is cached: the shard still applies the request, and a
        // retry is answered from its memo once it has.
        Err(why) => {
            shared.metrics.count_backend_eval(shard);
            Response::Suggestion {
                point: shared.space.default_point(),
                fallback: Some(why.to_string()),
                provenance: Some(Provenance::Explored.to_string()),
            }
        }
    }
}

/// Build the wire response for a served suggestion and count it: a memo hit
/// or an evaluation, the entry's batch size, and — for every answer of a
/// transferred point, since each is a request a cold tuner did not have to
/// explore for — a transfer.
fn suggestion_response(shared: &Arc<Shared>, shard: usize, s: Served) -> Response {
    if s.hit {
        shared.metrics.count_coalesced_hit(shard);
    } else {
        shared.metrics.count_backend_eval(shard);
    }
    shared.metrics.observe_batch(s.batch);
    if s.provenance == Provenance::Transferred {
        shared.metrics.count_transfer_served();
    }
    Response::Suggestion {
        point: s.point,
        fallback: None,
        provenance: Some(s.provenance.to_string()),
    }
}

/// Reply only once every shard the report touches has applied it (or the
/// suggest timeout passed), so the reporting client's next Suggest can never
/// be answered from a memo entry this report invalidates.
fn serve_report(shared: &Arc<Shared>, user: &str, app_id: &str, jsonl: String) -> Response {
    shared.metrics.count_report();
    let _ = shared
        .client
        .report_jsonl(user, app_id, jsonl, shared.cfg.suggest_timeout);
    Response::Reported
}

fn serve_metrics(shared: &Arc<Shared>) -> Response {
    shared.metrics.count_metrics();
    let dashboard = shared
        .client
        .dashboard_counters(shared.cfg.suggest_timeout)
        .unwrap_or_default();
    let inflight = shared
        .lanes
        .iter()
        .map(|l| l.inflight.load(Ordering::Acquire))
        .fold(0u64, u64::saturating_add);
    let serving = shared
        .metrics
        .snapshot(shared.queued.load(Ordering::Acquire), inflight);
    let text = render_text(&serving, &dashboard);
    Response::MetricsReport {
        text,
        serving,
        dashboard,
    }
}
