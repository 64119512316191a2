//! The three workloads, how each run is served, checked and measured, and
//! the traced run's in-process replay. `hot_read` bypasses the backend, so a
//! backend or kernel change must show no change there; each of the other
//! two runs layers no other workload runs (see README.md).

use std::collections::{HashMap, HashSet};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use optimizers::{ConfigSpace, TuningContext};
use pipeline::{
    AutotuneBackend, Corpus, CorpusEntry, DashboardCounters, KnnIndex, Storage, TransferPolicy,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rockserve::proto::{self, Request, Response};
use rockserve::{MetricsSnapshot, ServeClient, ServeConfig, Server};

use crate::driver::{self, Inputs, Kind, LaneGen, LaneLog, USER};
use crate::stats::{self, fold_point, percentile, sorted};
use crate::trace::SpanLog;

/// Latency limit on suggest p99, and on generator lateness at a ramp step's
/// end; a failed request misses it.
pub const LIMIT_US: f64 = 50_000.0;

/// `cold_start` corpus size. 10^4 entries would take over a minute to boot.
const CORPUS_ENTRIES: usize = 2000;

/// `cold_start` corpus signatures start here.
const CORPUS_BASE: u64 = 1 << 50;

/// `hot_read` capacity ramp: steps at `rate * RAMP_GROWTH^k`, stopping at
/// the first step that misses the limit. Eight steps reach ~17x the base
/// rate, past what two blocking lanes can offer, so the knee is found.
const RAMP_STEPS: u32 = 8;
const RAMP_GROWTH: f64 = 1.5;
const RAMP_STEP_S: f64 = 3.0;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    HotRead,
    TuningLoop,
    ColdStart,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::HotRead, Workload::TuningLoop, Workload::ColdStart];

    pub fn name(self) -> &'static str {
        match self {
            Workload::HotRead => "hot_read",
            Workload::TuningLoop => "tuning_loop",
            Workload::ColdStart => "cold_start",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    fn shards(self) -> usize {
        match self {
            Workload::HotRead | Workload::TuningLoop => 1,
            Workload::ColdStart => 2,
        }
    }

    fn durable(self) -> bool {
        self == Workload::TuningLoop
    }

    /// Offered load. Each rate keeps both lanes under ~20% busy on a 2-core
    /// host, so a host that slows down threefold for a while still does not
    /// build an unbounded backlog; the hot_read capacity ramp measures the
    /// knee separately.
    fn rate_rps(self) -> f64 {
        match self {
            Workload::HotRead => 2000.0,
            Workload::TuningLoop => 200.0,
            Workload::ColdStart => 500.0,
        }
    }

    /// Set-ups timed per run; `setup_s` is their median. A cold_start boot
    /// opens and indexes the corpus (seconds); the others take milliseconds,
    /// so they set up more often for a steadier median.
    fn setup_reps(self) -> usize {
        match self {
            Workload::ColdStart => 3,
            _ => 25,
        }
    }
}

pub struct Options {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub smoke: bool,
    /// Where a traced run writes its spans.
    pub spans_out: PathBuf,
    /// Scratch space for state and corpus directories; removed by the caller.
    pub work_dir: PathBuf,
}

pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// Reported only by the traced run.
    pub per_layer: bool,
}

pub struct Report {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    /// Correctness failures; empty means the run is correct.
    pub problems: Vec<String>,
}

/// The load-generating lanes: one per core, at most two, so the generator
/// never holds more connections than the host has cores.
pub fn lanes() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(2)
}

fn server_config(w: Workload, state_dir: Option<PathBuf>, corpus: Option<&Path>) -> ServeConfig {
    ServeConfig {
        state_dir,
        shards: w.shards(),
        retrieval_dir: corpus.map(Path::to_path_buf),
        ..ServeConfig::default()
    }
}

/// Spawn a server as `rockserve`'s binary does and time it to its first
/// Health reply.
fn boot(
    inputs: &Inputs,
    state_dir: Option<PathBuf>,
    corpus: Option<&Path>,
) -> io::Result<(Server, f64)> {
    let started = Instant::now();
    let backend = AutotuneBackend::new(Arc::new(Storage::new()), None, inputs.seed);
    let server = Server::spawn(
        backend,
        "127.0.0.1:0",
        server_config(inputs.workload, state_dir, corpus),
    )?;
    let reply = ServeClient::connect(server.local_addr())?.health();
    let secs = started.elapsed().as_secs_f64();
    match reply {
        Ok(Response::Healthy {
            draining: false, ..
        }) => Ok((server, secs)),
        other => Err(io::Error::other(format!("health probe failed: {other:?}"))),
    }
}

/// One Suggest per warm key (see [`Inputs::warm_keys`]); the answers by
/// signature. The connection closes before the load starts.
fn warm_up(addr: std::net::SocketAddr, inputs: &Inputs) -> io::Result<HashMap<u64, Vec<f64>>> {
    let mut client = ServeClient::connect(addr)?;
    let mut warm = HashMap::new();
    for sig in inputs.warm_keys() {
        match client.suggest(USER, sig, inputs.ctx_of(sig)) {
            Ok(Response::Suggestion {
                point,
                fallback: None,
                ..
            }) => {
                warm.insert(sig, point);
            }
            other => return Err(io::Error::other(format!("warm-up failed: {other:?}"))),
        }
    }
    Ok(warm)
}

/// Write the seeded `cold_start` corpus (untimed). Returns the set of best
/// points a transferred answer may carry.
fn write_corpus(inputs: &Inputs, dir: &Path) -> io::Result<HashSet<Vec<u64>>> {
    let space = ConfigSpace::query_level();
    let mut rng = StdRng::seed_from_u64(rockpool::split_seed(inputs.seed, CORPUS_BASE));
    let (mut corpus, _) = Corpus::open(dir)?;
    let mut points = HashSet::new();
    for (j, embedding) in inputs.corpus_embeddings.iter().enumerate() {
        let best_point = space.random_point(&mut rng);
        points.insert(bits(&best_point));
        let best = 50.0 + j as f64 % 97.0;
        corpus.upsert(CorpusEntry {
            signature: CORPUS_BASE + j as u64,
            embedding: embedding.clone(),
            best_point,
            observations: 8,
            best_elapsed_ms: best,
            mean_elapsed_ms: best * 1.25,
            data_size: 1.0,
        })?;
    }
    corpus.compact()?;
    corpus.sync()?;
    Ok(points)
}

fn bits(point: &[f64]) -> Vec<u64> {
    point.iter().map(|x| x.to_bits()).collect()
}

/// Bytes under `dir`: (every file, `.snap` snapshots only).
fn dir_bytes(dir: &Path) -> (f64, f64) {
    let mut total = 0u64;
    let mut snaps = 0u64;
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&d) else {
            continue;
        };
        for e in entries.flatten() {
            let Ok(meta) = e.metadata() else { continue };
            if meta.is_dir() {
                stack.push(e.path());
            } else {
                total += meta.len();
                if e.path().extension().is_some_and(|x| x == "snap") {
                    snaps += meta.len();
                }
            }
        }
    }
    (total as f64, snaps as f64)
}

/// Re-asking every suggestion served but not yet reported.
#[derive(Default)]
struct Probe {
    sent: u64,
    errors: u64,
    mismatches: u64,
}

/// Re-ask every pending signature: until its report arrives, the server
/// must answer exactly what it served before, restarted or not.
fn probe_pending(
    addr: std::net::SocketAddr,
    inputs: &Inputs,
    gens: &[LaneGen],
) -> io::Result<Probe> {
    let mut out = Probe::default();
    let mut client = ServeClient::connect(addr)?;
    for gen in gens {
        for (sig, held) in gen.pending() {
            out.sent += 1;
            match client.suggest(USER, sig, inputs.ctx_of(sig)) {
                Ok(Response::Suggestion {
                    point,
                    fallback: None,
                    ..
                }) => {
                    if bits(&point) != bits(held) {
                        out.mismatches += 1;
                    }
                }
                _ => out.errors += 1,
            }
        }
    }
    Ok(out)
}

/// What a restart over the drained state directory found.
struct Recovered {
    secs: f64,
    replayed: u64,
    quarantined: u64,
}

/// One served pass of a workload.
struct Served {
    setup_s: Vec<f64>,
    lanes: Vec<LaneLog>,
    /// Process CPU seconds over the load phase, generator threads included.
    proc_cpu_s: f64,
    serving: MetricsSnapshot,
    dashboard: DashboardCounters,
    max_rate_rps: f64,
    state_bytes: f64,
    snapshot_bytes: f64,
    probe: Probe,
    recovered: Option<Recovered>,
    /// The warm-up answer per warm key.
    warm: HashMap<u64, Vec<f64>>,
    lost_backends: usize,
}

struct Phase {
    boots: usize,
    traced: bool,
    ramp: bool,
    /// Durable workloads: probe the pending signatures on a server
    /// respawned over the state directory instead of the live one.
    restart: bool,
}

fn read_metrics(addr: std::net::SocketAddr) -> io::Result<(MetricsSnapshot, DashboardCounters)> {
    match ServeClient::connect(addr)?.metrics() {
        Ok(Response::MetricsReport {
            serving, dashboard, ..
        }) => Ok((serving, dashboard)),
        other => Err(io::Error::other(format!(
            "metrics request failed: {other:?}"
        ))),
    }
}

/// Highest ramp step whose suggest p99 and end-of-step generator lateness
/// both meet [`LIMIT_US`] with no failed request.
fn capacity_ramp(
    addr: std::net::SocketAddr,
    inputs: &Inputs,
    gens: &mut [LaneGen],
    step_s: f64,
    epoch: Instant,
) -> f64 {
    let mut best = 0.0;
    for k in 0..RAMP_STEPS {
        let rate = inputs.workload.rate_rps() * RAMP_GROWTH.powi(k as i32);
        let schedules: Vec<Vec<f64>> = (0..inputs.lanes)
            .map(|l| inputs.arrivals(l, 1 + u64::from(k), rate, step_s))
            .collect();
        let logs = driver::run_load(addr, gens, &schedules, false, epoch);
        let records = logs.iter().flat_map(|l| &l.records);
        let failed = records.clone().any(|r| !r.ok);
        let p99 = percentile(&sorted(records.map(|r| r.latency_us).collect()), 0.99);
        let end_late = logs
            .iter()
            .filter_map(|l| l.records.last())
            .map(|r| r.late_us)
            .fold(0.0, f64::max);
        if failed || p99 > LIMIT_US || end_late > LIMIT_US {
            break;
        }
        best = rate;
    }
    best
}

fn serve(
    inputs: &Inputs,
    opts: &Options,
    corpus: Option<&Path>,
    phase: &Phase,
    tag: &str,
    epoch: Instant,
) -> io::Result<Served> {
    let w = inputs.workload;
    let root = opts.work_dir.join(tag);
    let state_dir = |b: usize| w.durable().then(|| root.join(format!("boot-{b}")));
    // A set-up is a boot plus the warm-up; only the last one's server serves
    // the load. The backend is seeded, so every set-up warms up identically.
    let mut setup_s = Vec::with_capacity(phase.boots);
    let mut warm = None;
    let mut server = None;
    for b in 0..phase.boots {
        let started = Instant::now();
        let (s, _) = boot(inputs, state_dir(b), corpus)?;
        let answers = warm_up(s.local_addr(), inputs)?;
        setup_s.push(started.elapsed().as_secs_f64());
        if warm.as_ref().is_some_and(|first| *first != answers) {
            return Err(io::Error::other(
                "two set-ups warmed up to different answers",
            ));
        }
        warm = Some(answers);
        if b + 1 == phase.boots {
            server = Some(s);
        } else {
            let _ = s.shutdown();
        }
    }
    let server = server.ok_or_else(|| io::Error::other("no server booted"))?;
    let warm = warm.unwrap_or_default();
    let addr = server.local_addr();

    let mut gens: Vec<LaneGen> = (0..inputs.lanes).map(|l| LaneGen::new(inputs, l)).collect();
    for (&sig, point) in &warm {
        gens[(sig % inputs.lanes as u64) as usize].on_suggestion(sig, point);
    }
    let schedules: Vec<Vec<f64>> = (0..inputs.lanes)
        .map(|l| inputs.arrivals(l, 0, w.rate_rps(), opts.seconds))
        .collect();
    let cpu0 = stats::process_cpu_s();
    let lanes = driver::run_load(addr, &mut gens, &schedules, phase.traced, epoch);
    let proc_cpu_s = stats::process_cpu_s() - cpu0;

    // Control connections open only now: an idle connection held during the
    // load would pin one of the server's workers.
    let (serving, dashboard) = if phase.traced {
        read_metrics(addr)?
    } else {
        Default::default()
    };
    let max_rate_rps = if phase.ramp {
        let step = if opts.smoke {
            RAMP_STEP_S / 10.0
        } else {
            RAMP_STEP_S
        };
        capacity_ramp(addr, inputs, &mut gens, step, epoch)
    } else {
        0.0
    };
    let last = state_dir(phase.boots - 1).filter(|_| phase.restart);
    let mut probe = match last {
        Some(_) => Probe::default(),
        None => probe_pending(addr, inputs, &gens)?,
    };

    let backends = server.shutdown();
    let lost_backends = backends.iter().filter(|b| b.is_none()).count();
    let (state_bytes, snapshot_bytes) = last.as_deref().map_or((0.0, 0.0), dir_bytes);
    let recovered = match &last {
        Some(dir) => {
            let (server, secs) = boot(inputs, Some(dir.clone()), None)?;
            let (replayed, quarantined) = server
                .recovery_report()
                .map_or((0, 0), |r| (r.replayed, r.quarantined));
            probe = probe_pending(server.local_addr(), inputs, &gens)?;
            let _ = server.shutdown();
            Some(Recovered {
                secs,
                replayed,
                quarantined,
            })
        }
        None => None,
    };
    Ok(Served {
        setup_s,
        lanes,
        proc_cpu_s,
        serving,
        dashboard,
        max_rate_rps,
        state_bytes,
        snapshot_bytes,
        probe,
        recovered,
        warm,
        lost_backends,
    })
}

/// Fold of every served suggestion point, in (lane, request) order.
fn served_fingerprint(lanes: &[LaneLog]) -> u64 {
    lanes
        .iter()
        .flat_map(|l| &l.records)
        .filter_map(|r| r.point.as_deref())
        .fold(0, fold_point)
}

/// Replay the served operation log in-process, single-threaded, through the
/// same routing and backend calls the server makes, with backends built the
/// way `Server::spawn` builds them. Returns the replay's fingerprint.
fn replay(
    inputs: &Inputs,
    lanes: &[LaneLog],
    dir: &Path,
    corpus: Option<&Path>,
    spans: &mut SpanLog,
) -> io::Result<u64> {
    let w = inputs.workload;
    let shards = w.shards();
    let mut backend = AutotuneBackend::new(Arc::new(Storage::new()), None, inputs.seed);
    let mut retrieval = None;
    if let Some(corpus_dir) = corpus {
        let (corpus, _) = spans.time("rockindex.corpus_open", None, 0, || {
            Corpus::open(corpus_dir)
        })?;
        let index = Arc::new(spans.time("rockindex.index_build", None, 0, || {
            KnnIndex::build(&corpus)
        }));
        backend = backend.with_retrieval(Arc::clone(&index), TransferPolicy::default());
        retrieval = Some(index);
    }
    let mut backends = backend.split_into_shards(shards, ServeConfig::default().shard_capacity);
    if w.durable() {
        for (i, b) in backends.iter_mut().enumerate() {
            b.recover_from_with(
                &rockserve::shard_state_dir(dir, i, shards),
                pipeline::durability::DEFAULT_SNAPSHOT_EVERY,
            )?;
        }
    }
    // The server's coalescer answers repeats of a key from memory; on
    // hot_read the replay does the same with its own memo.
    let mut memo: HashMap<u64, Vec<f64>> = HashMap::new();
    // The set-up's warm-up Suggests reached the server before the load.
    for sig in inputs.warm_keys() {
        let backend = &mut backends[pipeline::shard_of(sig, shards)];
        let (point, _) = backend.suggest_tagged(USER, sig, inputs.ctx_of(sig));
        if w == Workload::HotRead {
            memo.insert(sig, point);
        }
    }
    let mut fingerprint = 0u64;
    for (lane, log) in lanes.iter().enumerate() {
        for (i, rec) in log.records.iter().enumerate() {
            let req_id = ((lane as u64) << 32) | i as u64;
            let shard = pipeline::shard_of(rec.sig, shards);
            let backend = &mut backends[shard];
            match &rec.request {
                Some(Request::Suggest {
                    user,
                    signature,
                    embedding,
                    expected_data_size,
                    iteration,
                }) => {
                    let ctx = TuningContext {
                        embedding: embedding.clone(),
                        expected_data_size: *expected_data_size,
                        iteration: *iteration,
                    };
                    let point = match memo.get(signature) {
                        Some(p) => p.clone(),
                        None => {
                            let (p, _) = spans.time("backend.suggest", None, req_id, || {
                                backend.suggest_tagged(user, *signature, &ctx)
                            });
                            if w == Workload::HotRead {
                                memo.insert(*signature, p.clone());
                            }
                            p
                        }
                    };
                    if let Some(index) = &retrieval {
                        let _ = spans.time("rockindex.lookup", None, req_id, || {
                            TransferPolicy::default().lookup(index, &ctx.embedding)
                        });
                    }
                    fingerprint = fold_point(fingerprint, &point);
                }
                Some(Request::Report {
                    user,
                    app_id,
                    jsonl,
                }) => {
                    let _ = spans.time("server.report_preparse", None, req_id, || {
                        let (events, _) = sparksim::event::from_jsonl_lossy(jsonl);
                        pipeline::report_signatures(&events)
                    });
                    let _ = spans.time("etl.extract_rows", None, req_id, || {
                        pipeline::etl::extract_rows_from_jsonl(jsonl)
                    });
                    spans.time("backend.ingest", None, req_id, || {
                        backend.ingest_jsonl(user, app_id, jsonl);
                    });
                }
                _ => {}
            }
        }
    }
    Ok(fingerprint)
}

/// Nanoseconds per `shard_of` call over every signature the load sent.
fn shard_of_ns(lanes: &[LaneLog], shards: usize) -> f64 {
    let sigs: Vec<u64> = lanes
        .iter()
        .flat_map(|l| &l.records)
        .map(|r| r.sig)
        .collect();
    const REPS: usize = 64;
    let started = Instant::now();
    let mut acc = 0usize;
    for _ in 0..REPS {
        for &sig in &sigs {
            acc = acc.wrapping_add(pipeline::shard_of(std::hint::black_box(sig), shards));
        }
    }
    std::hint::black_box(acc);
    started.elapsed().as_nanos() as f64 / (REPS * sigs.len().max(1)) as f64
}

/// Client-side latencies of one request kind, sorted.
fn latencies(lanes: &[LaneLog], kind: Kind) -> Vec<f64> {
    sorted(
        lanes
            .iter()
            .flat_map(|l| &l.records)
            .filter(|r| r.kind == kind)
            .map(|r| r.latency_us)
            .collect(),
    )
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Run one workload: serve it, check it, and measure it. A traced run first
/// serves an untraced reference pass so the tracing overhead can be read
/// off the difference.
pub fn run(opts: &Options) -> io::Result<Report> {
    let w = opts.workload;
    let inputs = Inputs::new(w, opts.seed, lanes(), CORPUS_ENTRIES);
    let epoch = Instant::now();
    std::fs::create_dir_all(&opts.work_dir)?;
    let corpus_dir = opts.work_dir.join("corpus");
    let corpus_points = if w == Workload::ColdStart {
        Some(write_corpus(&inputs, &corpus_dir)?)
    } else {
        None
    };
    let corpus = corpus_points.as_ref().map(|_| corpus_dir.as_path());

    let reference_p50 = if opts.traced {
        let phase = Phase {
            boots: 1,
            traced: false,
            ramp: false,
            restart: false,
        };
        let r = serve(&inputs, opts, corpus, &phase, "reference", epoch)?;
        Some(percentile(&latencies(&r.lanes, Kind::Suggest), 0.5))
    } else {
        None
    };
    // Restarting a durable server replays its whole state, which takes
    // longer than the load itself, so only traced and smoke runs do it.
    let phase = Phase {
        boots: match (opts.traced, opts.smoke) {
            (true, _) => 1,
            (false, true) => 2,
            (false, false) => w.setup_reps(),
        },
        traced: opts.traced,
        ramp: opts.traced && w == Workload::HotRead,
        restart: opts.traced || opts.smoke,
    };
    let s = serve(&inputs, opts, corpus, &phase, "served", epoch)?;
    let peak_rss_mb = stats::peak_rss_mb();

    // Correctness.
    let mut problems = Vec::new();
    let records: Vec<&driver::Record> = s.lanes.iter().flat_map(|l| &l.records).collect();
    let mut attempted = records.len() as u64;
    let mut failed = records.iter().filter(|r| !r.ok).count() as u64;
    if attempted == 0 {
        problems.push("no request was sent".to_string());
    }
    if failed > 0 {
        problems.push(format!("{failed} of {attempted} requests failed"));
    }
    if s.lost_backends > 0 {
        problems.push(format!("{} shard backends lost at drain", s.lost_backends));
    }
    if w == Workload::HotRead {
        let wrong = records
            .iter()
            .filter(|r| {
                r.point
                    .as_ref()
                    .is_some_and(|p| s.warm.get(&r.sig) != Some(p))
            })
            .count();
        if wrong > 0 {
            problems.push(format!(
                "{wrong} hot_read answers differ from the warm-up answer"
            ));
        }
    }
    if let Some(points) = &corpus_points {
        let wrong = records
            .iter()
            .filter(|r| {
                !r.transferred
                    || !r
                        .point
                        .as_deref()
                        .is_some_and(|p| points.contains(&bits(p)))
            })
            .count();
        if wrong > 0 {
            problems.push(format!(
                "{wrong} cold_start answers were not transferred corpus points"
            ));
        }
    }
    attempted += s.probe.sent;
    failed += s.probe.errors;
    if s.probe.mismatches + s.probe.errors > 0 {
        problems.push(format!(
            "{} of {} pending suggestions were answered differently when asked again, {} failed",
            s.probe.mismatches, s.probe.sent, s.probe.errors
        ));
    }
    if let Some(r) = &s.recovered {
        if r.quarantined > 0 {
            problems.push(format!("recovery quarantined {} records", r.quarantined));
        }
    }

    // End-to-end metrics.
    let suggest = latencies(&s.lanes, Kind::Suggest);
    let report = latencies(&s.lanes, Kind::Report);
    let completed = records.iter().filter(|r| r.ok).count() as f64;
    let gen_cpu_s: f64 = s.lanes.iter().map(|l| l.cpu_s).sum();
    let suggest_p50 = percentile(&suggest, 0.5);
    let suggest_p99 = percentile(&suggest, 0.99);
    let mut metrics = Vec::new();
    let mut push = |name, value, unit, per_layer| {
        metrics.push(Metric {
            name,
            value,
            unit,
            per_layer,
        })
    };
    push("setup_s", stats::median(&s.setup_s), "s", false);
    push("suggest_p50_us", suggest_p50, "us", false);
    // Server-side CPU only: the generator's own threads are subtracted.
    push(
        "cpu_us_per_req",
        ratio((s.proc_cpu_s - gen_cpu_s).max(0.0) * 1e6, completed),
        "us",
        false,
    );
    push("peak_rss_mb", peak_rss_mb, "MB", false);
    // Too noisy run to run on a shared host to gate; reported by traced runs.
    push("suggest_p99_us", suggest_p99, "us", true);
    push("report_p50_us", percentile(&report, 0.5), "us", true);
    push("report_p99_us", percentile(&report, 0.99), "us", true);
    push(
        "recovery_s",
        s.recovered.as_ref().map_or(0.0, |r| r.secs),
        "s",
        true,
    );
    push(
        "error_rate",
        ratio(failed as f64, attempted as f64),
        "ratio",
        true,
    );

    if !opts.traced {
        return Ok(Report {
            metrics,
            attempted,
            failed,
            problems,
        });
    }

    // Per-layer metrics from the traced pass.
    let late = sorted(records.iter().map(|r| r.late_us).collect());
    let shard_ns = shard_of_ns(&s.lanes, w.shards());
    let mut spans = SpanLog::new(epoch);
    let served_fp = served_fingerprint(&s.lanes);
    let replay_fp = replay(
        &inputs,
        &s.lanes,
        &opts.work_dir.join("replay"),
        corpus,
        &mut spans,
    )?;
    if replay_fp != served_fp {
        problems.push(format!(
            "replay fingerprint {replay_fp:016x} != served fingerprint {served_fp:016x}"
        ));
    }
    let report_bytes: Vec<f64> = s
        .lanes
        .iter()
        .flat_map(|l| &l.records)
        .filter_map(|r| match &r.request {
            Some(req @ Request::Report { .. }) => proto::encode_request(req).ok(),
            _ => None,
        })
        .map(|payload| payload.len() as f64)
        .collect();
    for lane in s.lanes {
        spans.append(lane.spans);
    }
    let p = |name: &str, q: f64| percentile(&sorted(spans.durations_us(name)), q);
    let sv = &s.serving;
    let active_shards: Vec<_> = sv.shards.iter().filter(|x| x.suggests > 0).collect();
    let server_p50 = active_shards.iter().map(|x| x.p50_us).max().unwrap_or(0) as f64;
    let server_p99 = active_shards.iter().map(|x| x.p99_us).max().unwrap_or(0) as f64;
    let per_shard: Vec<f64> = sv.shards.iter().map(|x| x.suggests as f64).collect();
    let mean_shard = per_shard.iter().sum::<f64>() / per_shard.len().max(1) as f64;
    let d = &s.dashboard;
    let rec = s.recovered.as_ref();
    let layer = [
        ("max_rate_rps", s.max_rate_rps, "1/s"),
        ("bench.late_p99_us", percentile(&late, 0.99), "us"),
        (
            "bench.gen_cpu_us_per_req",
            ratio(gen_cpu_s * 1e6, completed),
            "us",
        ),
        (
            "bench.trace_overhead_pct",
            reference_p50.map_or(0.0, |r| (ratio(suggest_p50, r) - 1.0) * 100.0),
            "%",
        ),
        ("rockserve.server_suggest_p50_us", server_p50, "us"),
        ("rockserve.server_suggest_p99_us", server_p99, "us"),
        ("rockserve.edge_gap_p99_us", suggest_p99 - server_p99, "us"),
        (
            "rockserve.coalesce_hit_ratio",
            ratio(sv.coalesced_hits as f64, sv.suggests as f64),
            "ratio",
        ),
        ("rockserve.backend_evals", sv.backend_evals as f64, "count"),
        ("rockserve.batch_max", sv.batch_max as f64, "count"),
        ("rockserve.overloaded", sv.overloaded as f64, "count"),
        (
            "rockserve.protocol_errors",
            sv.protocol_errors as f64,
            "count",
        ),
        (
            "rockserve.proto.encode_suggest_us",
            p("proto.encode_suggest", 0.5),
            "us",
        ),
        (
            "rockserve.proto.decode_suggest_us",
            p("proto.decode_suggest", 0.5),
            "us",
        ),
        (
            "rockserve.proto.encode_suggestion_us",
            p("proto.encode_suggestion", 0.5),
            "us",
        ),
        (
            "rockserve.proto.decode_suggestion_us",
            p("proto.decode_suggestion", 0.5),
            "us",
        ),
        (
            "rockserve.proto.decode_report_us",
            p("proto.decode_report", 0.5),
            "us",
        ),
        (
            "rockserve.proto.report_frame_bytes",
            stats::median(&report_bytes),
            "bytes",
        ),
        (
            "rockserve.report_preparse_us",
            p("server.report_preparse", 0.5),
            "us",
        ),
        ("pipeline.shard_of_ns", shard_ns, "ns"),
        (
            "pipeline.shard_skew",
            ratio(per_shard.iter().copied().fold(0.0, f64::max), mean_shard),
            "ratio",
        ),
        (
            "pipeline.backend.suggest_p50_us",
            p("backend.suggest", 0.5),
            "us",
        ),
        (
            "pipeline.backend.suggest_p99_us",
            p("backend.suggest", 0.99),
            "us",
        ),
        (
            "pipeline.backend.suggest_max_us",
            p("backend.suggest", 1.0),
            "us",
        ),
        (
            "pipeline.backend.ingest_p50_us",
            p("backend.ingest", 0.5),
            "us",
        ),
        (
            "pipeline.backend.ingest_p99_us",
            p("backend.ingest", 0.99),
            "us",
        ),
        (
            "pipeline.backend.ingest_max_us",
            p("backend.ingest", 1.0),
            "us",
        ),
        ("pipeline.etl.extract_us", p("etl.extract_rows", 0.5), "us"),
        ("rockdur.wal_records", d.wal_records_written as f64, "count"),
        ("rockdur.snapshot_writes", d.snapshot_writes as f64, "count"),
        ("rockdur.snapshot_bytes", s.snapshot_bytes, "bytes"),
        ("rockdur.state_bytes", s.state_bytes, "bytes"),
        (
            "rockdur.recovery_replayed",
            rec.map_or(0, |r| r.replayed) as f64,
            "count",
        ),
        (
            "rockdur.quarantined",
            rec.map_or(0, |r| r.quarantined) as f64,
            "count",
        ),
        (
            "rockindex.corpus_open_s",
            p("rockindex.corpus_open", 1.0) / 1e6,
            "s",
        ),
        (
            "rockindex.index_build_ms",
            p("rockindex.index_build", 1.0) / 1e3,
            "ms",
        ),
        ("rockindex.lookup_p50_us", p("rockindex.lookup", 0.5), "us"),
        ("rockindex.lookup_p99_us", p("rockindex.lookup", 0.99), "us"),
        ("rockindex.cold_hits", d.cold_hits as f64, "count"),
        ("rockindex.cold_misses", d.cold_misses as f64, "count"),
        (
            "rockindex.transfer_hit_ratio",
            ratio(sv.transfer_served as f64, sv.suggests as f64),
            "ratio",
        ),
    ];
    for (name, value, unit) in layer {
        metrics.push(Metric {
            name,
            value,
            unit,
            per_layer: true,
        });
    }
    spans.write_jsonl(&opts.spans_out)?;
    Ok(Report {
        metrics,
        attempted,
        failed,
        problems,
    })
}
