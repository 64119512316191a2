//! The serving edge: a TCP listener that serves each admitted connection on
//! its own thread, with admission control and a drain-then-shutdown
//! lifecycle wired to the pipeline's `Drop`-join contract.
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
//! content `(user, signature, context)` (`pipeline::memo`). A connection
//! thread answers a memo hit itself; a miss goes to the shard, which checks
//! the memo again before evaluating, so concurrent duplicates share one
//! evaluation. A `Report` drops the tenant's entries for its signatures when
//! the shard applies it, and is acknowledged only after that, so the served
//! point is a pure function of the request history content — never of socket
//! timing or thread interleaving, and never of the `RH_THREADS` pool width.
//!
//! ## Backpressure
//!
//! Three gates answer `Response::Overloaded` instead of queueing: the
//! acceptor sheds a connection while `max_conns` are open, a frame is skipped
//! unread while [`FRAME_BUDGET_BYTES`] of payload are in flight, and a memo
//! miss is shed while `max_inflight_suggests` Suggests are forwarded to its
//! shard. An idle client costs only its own parked thread; one that stalls
//! mid-frame is closed at [`proto::FRAME_DEADLINE`], which returns the
//! frame's budget.
//!
//! ## Shutdown ordering
//!
//! A `Shutdown` frame (or [`Server::shutdown`] / dropping the handle) flips
//! the drain flag and wakes the acceptor with a throwaway connect. The
//! acceptor stops accepting and returns once every connection thread has
//! finished its current frame, or given up on it at its deadline, and exited. Only then is the inner
//! `AutotuneService` shut down, handing each [`AutotuneBackend`] back, and
//! each shard's WAL flushed.

use std::io::Read;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::{JoinHandle, ScopedJoinHandle};
use std::time::{Duration, Instant};

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

/// Payload bytes of the frames being read, decoded and answered at once,
/// across all connections. Decoding expands a payload up to about 32 times
/// (a `[0,0,…]` array holds one 32-byte `serde::Value` per two bytes), so
/// this caps frame memory near 128 MiB whatever the connection count. Four
/// maximal frames fit; a frame that does not is skipped and answered
/// `Overloaded`.
pub const FRAME_BUDGET_BYTES: u64 = 4 * proto::MAX_PAYLOAD_BYTES as u64;

/// Serving-layer tunables. `Default` is sized for the load-generation bench;
/// the e2e tests pin the admission caps to force deterministic shedding.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Open connections, each on its own thread, above which the acceptor
    /// sheds new ones with `Overloaded`.
    pub max_conns: usize,
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
            max_conns: 1024,
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
    /// Connections admitted and not yet closed.
    open: AtomicU64,
    /// Payload bytes of the frames in flight, at most [`FRAME_BUDGET_BYTES`].
    frame_bytes: AtomicU64,
    metrics: ServeMetrics,
}

/// A live serving instance. Dropping the handle drains and joins everything —
/// the same contract `AutotuneService` honors one layer down.
pub struct Server {
    shared: Arc<Shared>,
    acceptor: Option<JoinHandle<()>>,
    service: Option<ShardedAutotuneService>,
    /// What boot-time recovery found, merged over every shard; `None`
    /// without a state dir.
    recovery: Option<pipeline::RecoveryReport>,
}

impl Server {
    /// Bind `addr` (use port 0 for an ephemeral port) and start serving
    /// `backend` — split into `cfg.shards` signature-hash shards — with one
    /// thread per connection.
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
        let shared = Arc::new(Shared {
            client,
            lanes,
            space: ConfigSpace::query_level(),
            cfg,
            local_addr,
            draining: AtomicBool::new(false),
            open: AtomicU64::new(0),
            frame_bytes: AtomicU64::new(0),
            metrics: ServeMetrics::with_shards(shards),
        });
        let acceptor = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || accept_loop(&listener, &shared))
        };
        Ok(Server {
            shared,
            acceptor: Some(acceptor),
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

    /// Drain now: stop accepting, let each connection finish its current
    /// frame, join every thread, and recover the per-shard backends, index = shard id. A
    /// `None` entry marks a shard whose backend thread panicked.
    pub fn shutdown(mut self) -> Vec<Option<AutotuneBackend>> {
        begin_drain(&self.shared);
        self.finish()
    }

    fn finish(&mut self) -> Vec<Option<AutotuneBackend>> {
        if let Some(h) = self.acceptor.take() {
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
    /// A dropped server must not leave any thread detached: drain
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

/// Units taken from an admission counter, given back on drop — so a
/// connection thread that panics still releases what it held.
struct Held<'a> {
    counter: &'a AtomicU64,
    units: u64,
}

impl Drop for Held<'_> {
    fn drop(&mut self) {
        self.counter.fetch_sub(self.units, Ordering::AcqRel);
    }
}

/// Take `units` from `counter` if it stays within `cap`; otherwise return
/// the count already held, for the `Overloaded` reply.
fn reserve(counter: &AtomicU64, units: u64, cap: u64) -> Result<Held<'_>, u64> {
    counter
        .fetch_update(Ordering::AcqRel, Ordering::Acquire, |held| {
            held.checked_add(units).filter(|&total| total <= cap)
        })
        .map(|_| Held { counter, units })
}

/// Admit connections until the drain starts, serving each on its own
/// thread; returns only after every connection thread has been joined.
fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    let cap = u64::try_from(shared.cfg.max_conns).unwrap_or(u64::MAX);
    std::thread::scope(|scope| {
        let mut conns: Vec<ScopedJoinHandle<'_, ()>> = Vec::new();
        for conn in listener.incoming() {
            if shared.draining.load(Ordering::Acquire) {
                break;
            }
            let Ok(stream) = conn else { continue };
            let open = match reserve(&shared.open, 1, cap) {
                Ok(open) => open,
                Err(held) => {
                    shared.metrics.count_overloaded();
                    shed_connection(stream, held, cap);
                    continue;
                }
            };
            // Join the threads whose connections closed, releasing their
            // stacks; a dropped handle would leave the thread exiting
            // unobserved.
            for done in conns.extract_if(.., |h| h.is_finished()) {
                let _ = done.join();
            }
            // Kept to send `Overloaded` on if no thread can be spawned.
            let spare = stream.try_clone();
            let spawned = std::thread::Builder::new().spawn_scoped(scope, move || {
                let _open = open;
                handle_connection(shared, stream);
            });
            match spawned {
                Ok(h) => conns.push(h),
                Err(_) => {
                    shared.metrics.count_overloaded();
                    if let Ok(stream) = spare {
                        let held = shared.open.load(Ordering::Acquire);
                        shed_connection(stream, held, cap);
                    }
                }
            }
        }
        for h in conns {
            let _ = h.join();
        }
    });
}

/// Best-effort `Overloaded` reply to a connection shed at the accept gate.
fn shed_connection(mut stream: TcpStream, inflight: u64, capacity: u64) {
    let _ = stream.set_write_timeout(Some(Duration::from_millis(200)));
    let _ = send_response(&mut stream, &Response::Overloaded { inflight, capacity });
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
/// read to completion unless it misses its [`proto::FRAME_DEADLINE`].
fn handle_connection(shared: &Arc<Shared>, mut stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(IDLE_POLL));
    let _ = stream.set_nodelay(true);
    loop {
        match proto::read_header(&mut stream) {
            Ok(None) => break,
            Ok(Some((len, deadline))) => {
                if !serve_frame(shared, &mut stream, len, deadline) {
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
                reply_wire_error(shared, &mut stream, &e);
                break;
            }
        }
    }
}

/// Read, decode, dispatch and answer the frame whose header announced `len`
/// payload bytes, due by `deadline`, holding that many bytes of
/// [`FRAME_BUDGET_BYTES`] until the reply is ready. Returns whether the
/// connection stays open.
fn serve_frame(shared: &Arc<Shared>, stream: &mut TcpStream, len: u32, deadline: Instant) -> bool {
    let budget = match reserve(&shared.frame_bytes, u64::from(len), FRAME_BUDGET_BYTES) {
        Ok(budget) => budget,
        Err(held) => {
            shared.metrics.count_overloaded();
            let shed = Response::Overloaded {
                inflight: held,
                capacity: FRAME_BUDGET_BYTES,
            };
            // Skipped through a stack buffer, keeping the stream in step; a
            // sender that stalls mid-payload is closed at the next poll.
            let skip = &mut Read::take(&mut *stream, u64::from(len));
            let skipped = std::io::copy(skip, &mut std::io::sink());
            return skipped.is_ok_and(|n| n == u64::from(len)) && send_response(stream, &shed);
        }
    };
    let payload = match proto::read_payload(stream, len, deadline) {
        Ok(payload) => payload,
        Err(e) => {
            reply_wire_error(shared, stream, &e);
            return false;
        }
    };
    let started = Instant::now();
    let (resp, is_shutdown) = match proto::decode_request(&payload) {
        Ok(req) => dispatch(shared, req),
        Err(e) => {
            shared.metrics.count_protocol_error();
            (error_response(&e), false)
        }
    };
    // Freed before the reply, so a client holding its answer finds the
    // budget free again.
    drop((payload, budget));
    let sent = send_response(stream, &resp);
    let us = u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);
    shared.metrics.record_latency_us(us);
    if is_shutdown {
        begin_drain(shared);
        return false;
    }
    sent && !matches!(resp, Response::Error { .. })
}

/// Answer a frame that could not be read with its typed error.
fn reply_wire_error(shared: &Shared, stream: &mut TcpStream, e: &WireError) {
    shared.metrics.count_protocol_error();
    let _ = send_response(stream, &error_response(e));
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

/// The suggest path after routing: a memo hit is answered on this thread;
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
    let cap = u64::try_from(shared.cfg.max_inflight_suggests).unwrap_or(u64::MAX);
    let forwarded = match reserve(&lane.inflight, 1, cap) {
        Ok(forwarded) => forwarded,
        Err(inflight) => {
            shared.metrics.count_shard_overloaded(shard);
            return Response::Overloaded {
                inflight,
                capacity: cap,
            };
        }
    };
    let served = lane
        .client
        .serve(user, signature, ctx, shared.cfg.suggest_timeout);
    drop(forwarded);
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
        .snapshot(shared.open.load(Ordering::Acquire), inflight);
    let text = render_text(&serving, &dashboard);
    Response::MetricsReport {
        text,
        serving,
        dashboard,
    }
}
