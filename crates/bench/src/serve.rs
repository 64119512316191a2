//! The rockserve load-generation bench: an open-loop, seeded client fleet
//! driving a serving endpoint with a mixed request schedule, emitting the
//! machine-readable `BENCH_serve.json` baseline consumed by the tier-1 gate
//! (`tests/bench_gate.rs`) and the CI artifact upload.
//!
//! The whole schedule — which lane sends which frame when, which workload
//! signature each `Suggest` carries, the inter-request gaps — is a pure
//! function of the configured seed (lane seeds come from
//! `rockpool::split_seed`, the same discipline as the evaluation pool), and
//! the served suggestions are a pure function of request content (the
//! server's memo contract). The cross-run `suggest_fingerprint`
//! therefore must match between two runs at the same seed regardless of
//! thread interleaving — that is the determinism gate.

use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use rockserve::proto::Response;
use rockserve::{ServeClient, ServeConfig, Server};
use sparksim::config::SparkConf;
use sparksim::event::SparkEvent;
use sparksim::metrics::QueryMetrics;

/// Schema tag stamped into `BENCH_serve.json`. v2 added the `durability`
/// counter block (WAL writes, quarantines, snapshots, recovery replays);
/// v3 added the `zipf` load block and the `sharding` block (shard count,
/// LRU capacity, eviction counters, per-shard suggest counters); v4 added
/// the `retrieval` block (corpus size, cold hits/misses, transfer counters)
/// for the cold-start preset.
pub const SERVE_SCHEMA: &str = "rockhopper-bench-serve/v4";

/// Default output path; overridable via `ROCKHOPPER_SERVE_OUT`.
pub const SERVE_DEFAULT_OUT: &str = "BENCH_serve.json";

/// Reports carry signatures in a disjoint band from suggests, so ingesting a
/// report never invalidates a suggest's memo entry: every suggest key is
/// evaluated exactly once and the fingerprint is stable.
const REPORT_SIG_BASE: u64 = 1_000_000;

/// Load-generator shape. Both presets drive well over 64 concurrent mixed
/// requests (clients × requests_per_client).
#[derive(Debug, Clone, Copy)]
pub struct ServeBenchConfig {
    /// Master seed: lane schedules and the server backend both derive from it.
    pub seed: u64,
    /// Concurrent client lanes (one connection each).
    pub clients: usize,
    /// Frames each lane sends.
    pub requests_per_client: usize,
    /// Distinct `Suggest` workload signatures in the mix (uniform mode).
    pub suggest_signatures: u64,
    /// Mean open-loop inter-request gap per lane, microseconds.
    pub mean_gap_us: u64,
    /// When nonzero, signatures are drawn zipfian over `0..zipf_signatures`
    /// instead of uniformly over `0..suggest_signatures` — the production
    /// shape: a huge signature space with a hot head and a long cold tail.
    pub zipf_signatures: u64,
    /// Zipf skew exponent `s` (weight of rank `i` is `1/(i+1)^s`); ignored
    /// when `zipf_signatures` is 0.
    pub zipf_skew: f64,
    /// Signature-hash shards the in-process server splits its backend into.
    pub shards: usize,
    /// Per-shard tuner LRU capacity (`0` keeps the pipeline default).
    pub shard_capacity: usize,
}

impl ServeBenchConfig {
    /// Sub-second shape used by the tier-1 gate and the CI smoke step:
    /// 16 lanes × 8 frames = 128 mixed requests.
    pub fn quick(seed: u64) -> ServeBenchConfig {
        ServeBenchConfig {
            seed,
            clients: 16,
            requests_per_client: 8,
            suggest_signatures: 4,
            mean_gap_us: 200,
            zipf_signatures: 0,
            zipf_skew: 0.0,
            shards: 1,
            shard_capacity: 0,
        }
    }

    /// The `cargo run -p bench --bin serve_loadgen` baseline:
    /// 32 lanes × 32 frames = 1024 mixed requests.
    pub fn full(seed: u64) -> ServeBenchConfig {
        ServeBenchConfig {
            seed,
            clients: 32,
            requests_per_client: 32,
            suggest_signatures: 8,
            mean_gap_us: 100,
            zipf_signatures: 0,
            zipf_skew: 0.0,
            shards: 1,
            shard_capacity: 0,
        }
    }

    /// The multi-tenant shape: zipfian signatures over a 100k space, four
    /// shards, and a tuner LRU small enough that the hot head keeps evicting
    /// the cold tail — the memory-bound gate runs this durably and checks
    /// the eviction counters.
    pub fn zipf(seed: u64) -> ServeBenchConfig {
        ServeBenchConfig {
            seed,
            clients: 16,
            requests_per_client: 16,
            suggest_signatures: 8,
            mean_gap_us: 100,
            zipf_signatures: 100_000,
            zipf_skew: 1.1,
            shards: 4,
            shard_capacity: 8,
        }
    }

    /// The cold-start shape: every suggest signature is drawn zipfian from a
    /// 50k space the server has never seen, so each distinct signature's
    /// first evaluation is cold. Run it through
    /// [`run_serve_bench_coldstart`], which pre-warms a retrieval corpus
    /// whose embedding families exactly cover the load's context embeddings
    /// — cold evaluations must transfer instead of exploring.
    pub fn cold_start(seed: u64) -> ServeBenchConfig {
        ServeBenchConfig {
            seed,
            clients: 16,
            requests_per_client: 8,
            suggest_signatures: 8,
            mean_gap_us: 100,
            zipf_signatures: 50_000,
            zipf_skew: 1.1,
            shards: 2,
            shard_capacity: 0,
        }
    }
}

/// What one bench run measured; rendered to `BENCH_serve.json` by
/// [`ServeBenchReport::to_json`].
#[derive(Debug, Clone)]
pub struct ServeBenchReport {
    /// The configured master seed.
    pub seed: u64,
    /// Client lanes driven.
    pub clients: usize,
    /// Total frames sent across all lanes.
    pub requests_total: u64,
    /// Wall time of the loaded phase, milliseconds.
    pub wall_ms: f64,
    /// Requests per second over the loaded phase.
    pub throughput_rps: f64,
    /// Client-observed p50 request latency, microseconds.
    pub p50_us: u64,
    /// Client-observed p95 request latency, microseconds.
    pub p95_us: u64,
    /// Client-observed p99 request latency, microseconds.
    pub p99_us: u64,
    /// Frames sent per kind: (suggest, report, health, metrics).
    pub sent: (u64, u64, u64, u64),
    /// Requests the server shed with `Overloaded`.
    pub overloaded: u64,
    /// Protocol errors, client- and server-side combined (gate requires 0).
    pub protocol_errors: u64,
    /// Backend evaluations the server actually ran for all suggests.
    pub backend_evals: u64,
    /// Suggests served from a shared evaluation (coalesced).
    pub coalesced_hits: u64,
    /// Largest request batch served by one backend evaluation.
    pub batch_max: u64,
    /// WAL records the backend appended (0 when serving without a state dir).
    pub wal_records_written: u64,
    /// Corrupt WAL/snapshot artifacts quarantined during recovery.
    pub wal_records_quarantined: u64,
    /// Compacted snapshots written.
    pub snapshot_writes: u64,
    /// WAL records replayed into the backend at boot.
    pub recovery_replayed: u64,
    /// Order-sensitive fold of every served suggestion point, in
    /// (lane, request) order — bit-identical across runs at the same seed.
    pub suggest_fingerprint: u64,
    /// Whether the server drained cleanly after the run (in-process mode) or
    /// answered a final health probe (external mode).
    pub clean_drain: bool,
    /// Signature-hash shards the server ran with.
    pub shards: usize,
    /// Per-shard tuner LRU capacity (0 = unbounded pipeline default).
    pub shard_capacity: usize,
    /// Zipfian signature-space size (0 = uniform mode).
    pub zipf_signatures: u64,
    /// Zipf skew exponent (meaningless when `zipf_signatures` is 0).
    pub zipf_skew: f64,
    /// Tuners evicted from the per-shard LRUs during the run.
    pub tuner_evictions: u64,
    /// Evicted tuners restored bit-identically from rockdur sidecars.
    pub evicted_restored: u64,
    /// Tuners resident across all shards at drain (0 in external mode,
    /// where the backend is not handed back over the wire).
    pub resident_tuners: u64,
    /// Per-shard serving counters, shard order.
    pub per_shard: Vec<rockserve::ShardMetricsSnapshot>,
    /// Entries in the pre-warmed retrieval corpus (0 without retrieval).
    pub corpus_entries: u64,
    /// Cold suggests answered from the retrieval index.
    pub cold_hits: u64,
    /// Cold suggests with no eligible corpus neighbor.
    pub cold_misses: u64,
    /// Tuners seeded with trust-discounted transferred observations.
    pub transfer_seeded: u64,
    /// Suggestion responses tagged `transferred` on the wire.
    pub transfer_served: u64,
}

impl ServeBenchReport {
    /// Render as the `BENCH_serve.json` document (stable field order). The
    /// fingerprint is a hex string: a u64 does not survive JSON's f64 numbers.
    pub fn to_json(&self) -> String {
        let (suggest, report, health, metrics) = self.sent;
        let mut out = String::with_capacity(1024);
        out.push_str("{\n");
        out.push_str(&format!("  \"schema\": \"{SERVE_SCHEMA}\",\n"));
        out.push_str(&format!("  \"seed\": {},\n", self.seed));
        out.push_str(&format!("  \"clients\": {},\n", self.clients));
        out.push_str(&format!("  \"requests_total\": {},\n", self.requests_total));
        out.push_str(&format!("  \"wall_ms\": {:.3},\n", self.wall_ms));
        out.push_str(&format!(
            "  \"throughput_rps\": {:.1},\n",
            self.throughput_rps
        ));
        out.push_str(&format!(
            "  \"latency_us\": {{\"p50\": {}, \"p95\": {}, \"p99\": {}}},\n",
            self.p50_us, self.p95_us, self.p99_us
        ));
        out.push_str(&format!(
            "  \"sent\": {{\"suggest\": {suggest}, \"report\": {report}, \"health\": {health}, \"metrics\": {metrics}}},\n",
        ));
        out.push_str(&format!(
            "  \"server\": {{\"overloaded\": {}, \"protocol_errors\": {}, \"backend_evals\": {}, \"coalesced_hits\": {}, \"batch_max\": {}}},\n",
            self.overloaded,
            self.protocol_errors,
            self.backend_evals,
            self.coalesced_hits,
            self.batch_max
        ));
        out.push_str(&format!(
            "  \"durability\": {{\"wal_records_written\": {}, \"wal_records_quarantined\": {}, \"snapshot_writes\": {}, \"recovery_replayed\": {}}},\n",
            self.wal_records_written,
            self.wal_records_quarantined,
            self.snapshot_writes,
            self.recovery_replayed
        ));
        out.push_str(&format!(
            "  \"retrieval\": {{\"corpus_entries\": {}, \"cold_hits\": {}, \"cold_misses\": {}, \"transfer_seeded\": {}, \"transfer_served\": {}}},\n",
            self.corpus_entries,
            self.cold_hits,
            self.cold_misses,
            self.transfer_seeded,
            self.transfer_served
        ));
        out.push_str(&format!(
            "  \"zipf\": {{\"signatures\": {}, \"skew\": {:.2}}},\n",
            self.zipf_signatures, self.zipf_skew
        ));
        out.push_str(&format!(
            "  \"sharding\": {{\"shards\": {}, \"shard_capacity\": {}, \"resident_tuners\": {}, \"tuner_evictions\": {}, \"evicted_restored\": {}, \"per_shard\": [",
            self.shards,
            self.shard_capacity,
            self.resident_tuners,
            self.tuner_evictions,
            self.evicted_restored
        ));
        for (i, s) in self.per_shard.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!(
                "{{\"shard\": {}, \"suggests\": {}, \"backend_evals\": {}, \"coalesced_hits\": {}, \"overloaded\": {}, \"p50_us\": {}, \"p99_us\": {}}}",
                s.shard, s.suggests, s.backend_evals, s.coalesced_hits, s.overloaded, s.p50_us, s.p99_us
            ));
        }
        out.push_str("]},\n");
        out.push_str(&format!(
            "  \"suggest_fingerprint\": \"{:016x}\",\n",
            self.suggest_fingerprint
        ));
        out.push_str(&format!("  \"clean_drain\": {}\n", self.clean_drain));
        out.push_str("}\n");
        out
    }
}

/// One frame of the seeded schedule.
#[derive(Clone, Copy)]
enum Shot {
    Suggest(u64),
    Report(u64),
    Health,
    Metrics,
}

/// Seeded zipfian sampler over ranks `0..n`: rank `i` carries weight
/// `1/(i+1)^skew`. Built once per lane as a normalized cumulative table;
/// each draw is one uniform f64 plus a binary search, so a 100k-signature
/// space costs one `Vec<f64>` per lane, not per draw.
struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    fn new(n: u64, skew: f64) -> Zipf {
        let n = usize::try_from(n.max(1)).unwrap_or(usize::MAX);
        let mut cdf = Vec::with_capacity(n);
        let mut total = 0.0f64;
        for i in 0..n {
            total += 1.0 / ((i + 1) as f64).powf(skew);
            cdf.push(total);
        }
        for c in &mut cdf {
            *c /= total;
        }
        Zipf { cdf }
    }

    fn draw(&self, rng: &mut StdRng) -> u64 {
        let u: f64 = rng.random_range(0.0..1.0);
        self.cdf.partition_point(|&c| c <= u) as u64
    }
}

/// The request mix: ~70% suggest, 15% report, 10% health, 5% metrics.
/// With a zipf sampler the signature comes from the skewed distribution
/// (hot head, long tail); without one it is uniform over the small preset
/// signature set. Reports stay in the disjoint `REPORT_SIG_BASE` band
/// either way (the zipf space tops out well below the base).
fn draw_shot(rng: &mut StdRng, suggest_signatures: u64, zipf: Option<&Zipf>) -> Shot {
    let roll: u32 = rng.random_range(0..100u32);
    let sig = |rng: &mut StdRng| match zipf {
        Some(z) => z.draw(rng),
        None => rng.random_range(0..suggest_signatures.max(1)),
    };
    if roll < 70 {
        Shot::Suggest(sig(rng))
    } else if roll < 85 {
        Shot::Report(REPORT_SIG_BASE + sig(rng))
    } else if roll < 95 {
        Shot::Health
    } else {
        Shot::Metrics
    }
}

/// The tuning context every lane uses for signature `sig` — identical content
/// so concurrent lanes share one backend evaluation.
fn ctx_for(sig: u64) -> optimizers::TuningContext {
    optimizers::TuningContext {
        embedding: vec![0.2 + (sig % 7) as f64 * 0.1, 0.5],
        expected_data_size: 1.0 + sig as f64,
        iteration: 0,
    }
}

/// A tiny but fully-valid event document for `Report` frames.
fn report_doc(lane: usize, shot: usize, sig: u64) -> (String, String) {
    let app_id = format!("loadgen-{lane}-{shot}");
    let events = vec![
        SparkEvent::ApplicationStart {
            app_id: app_id.clone(),
            artifact_id: format!("artifact-{sig}"),
        },
        SparkEvent::QueryStart {
            app_id: app_id.clone(),
            query_signature: sig,
            conf: SparkConf::default(),
            plan_summary: vec!["Scan".to_string(), "Aggregate".to_string()],
            embedding: vec![0.3, 0.6],
        },
        SparkEvent::QueryEnd {
            app_id: app_id.clone(),
            query_signature: sig,
            metrics: QueryMetrics {
                elapsed_ms: 120.0 + (sig % 5) as f64 * 10.0,
                true_ms: 118.0,
                num_stages: 2,
                num_tasks: 64,
                input_bytes: 1.0e9,
                input_rows: 1.0e6,
                root_rows: 1.0e3,
                shuffle_bytes: 2.0e8,
                spilled_bytes: 0.0,
                broadcast_joins: 1,
                sort_merge_joins: 1,
            },
        },
        SparkEvent::ApplicationEnd {
            app_id: app_id.clone(),
        },
    ];
    (app_id, sparksim::event::to_jsonl(&events))
}

/// What one lane brought back.
struct LaneResult {
    /// Served suggestion points, in this lane's request order.
    points: Vec<Vec<f64>>,
    /// Per-request latencies, microseconds.
    latencies_us: Vec<u64>,
    /// (suggest, report, health, metrics) frames sent.
    sent: (u64, u64, u64, u64),
    /// Wire errors or `Response::Error` replies observed.
    protocol_errors: u64,
    /// `Overloaded` replies observed.
    overloaded: u64,
}

/// The lane's whole seeded schedule — `(gap_us, shot)` per frame. Pure
/// function of `(cfg.seed, lane)`, so a crash-recovery run can replay an
/// arbitrary *range* of the exact frames an uninterrupted run would send.
fn lane_schedule(cfg: &ServeBenchConfig, lane: usize) -> Vec<(u64, Shot)> {
    let mut rng = StdRng::seed_from_u64(rockpool::split_seed(cfg.seed, lane as u64));
    let zipf = (cfg.zipf_signatures > 0).then(|| Zipf::new(cfg.zipf_signatures, cfg.zipf_skew));
    (0..cfg.requests_per_client)
        .map(|_| {
            // Open-loop arrival: the gap is scheduled from the seed, not
            // from the previous reply's timing.
            let gap_us = rng.random_range(0..cfg.mean_gap_us.saturating_mul(2).max(1));
            (
                gap_us,
                draw_shot(&mut rng, cfg.suggest_signatures, zipf.as_ref()),
            )
        })
        .collect()
}

/// Send the lane's schedule frames `first..end` — `shot_idx` stays absolute
/// so report app ids match the uninterrupted run's byte for byte.
fn run_lane_range(
    addr: std::net::SocketAddr,
    lane: usize,
    cfg: &ServeBenchConfig,
    first: usize,
    end: usize,
) -> LaneResult {
    let mut result = LaneResult {
        points: Vec::new(),
        latencies_us: Vec::new(),
        sent: (0, 0, 0, 0),
        protocol_errors: 0,
        overloaded: 0,
    };
    let Ok(mut client) = ServeClient::connect(addr) else {
        result.protocol_errors += 1;
        return result;
    };
    let schedule = lane_schedule(cfg, lane);
    for (shot_idx, (gap_us, shot)) in schedule.iter().enumerate().take(end).skip(first) {
        std::thread::sleep(Duration::from_micros(*gap_us));
        let started = Instant::now();
        let reply = match &shot {
            Shot::Suggest(sig) => {
                result.sent.0 += 1;
                client.suggest("loadgen", *sig, &ctx_for(*sig))
            }
            Shot::Report(sig) => {
                result.sent.1 += 1;
                let (app_id, doc) = report_doc(lane, shot_idx, *sig);
                client.report("loadgen", &app_id, doc)
            }
            Shot::Health => {
                result.sent.2 += 1;
                client.health()
            }
            Shot::Metrics => {
                result.sent.3 += 1;
                client.metrics()
            }
        };
        let us = u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);
        result.latencies_us.push(us);
        match reply {
            Ok(Response::Suggestion { point, .. }) => result.points.push(point),
            Ok(Response::Overloaded { .. }) => result.overloaded += 1,
            Ok(Response::Error { .. }) | Err(_) => result.protocol_errors += 1,
            Ok(_) => {}
        }
    }
    result
}

/// Client-side percentile over the observed latencies (nearest-rank).
fn percentile(sorted_us: &[u64], q: f64) -> u64 {
    if sorted_us.is_empty() {
        return 0;
    }
    let rank = ((q * sorted_us.len() as f64).ceil() as usize).clamp(1, sorted_us.len());
    sorted_us[rank - 1]
}

/// Drive `cfg.clients` concurrent lanes against `addr` and aggregate.
fn run_fleet(addr: std::net::SocketAddr, cfg: &ServeBenchConfig) -> (Vec<LaneResult>, f64) {
    run_fleet_range(addr, cfg, 0, cfg.requests_per_client)
}

/// Drive every lane's schedule frames `first..end` concurrently (the full
/// fleet is `run_fleet`; the split ranges are the crash-recovery bench).
fn run_fleet_range(
    addr: std::net::SocketAddr,
    cfg: &ServeBenchConfig,
    first: usize,
    end: usize,
) -> (Vec<LaneResult>, f64) {
    let started = Instant::now();
    let lanes: Vec<LaneResult> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..cfg.clients)
            .map(|lane| scope.spawn(move || run_lane_range(addr, lane, cfg, first, end)))
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join().unwrap_or(LaneResult {
                    points: Vec::new(),
                    latencies_us: Vec::new(),
                    sent: (0, 0, 0, 0),
                    protocol_errors: 1,
                    overloaded: 0,
                })
            })
            .collect()
    });
    (lanes, started.elapsed().as_secs_f64() * 1e3)
}

fn aggregate(
    cfg: &ServeBenchConfig,
    lanes: Vec<LaneResult>,
    wall_ms: f64,
    server: rockserve::MetricsSnapshot,
    dashboard: pipeline::DashboardCounters,
    clean_drain: bool,
    resident_tuners: u64,
) -> ServeBenchReport {
    let mut fingerprint = 0u64;
    let mut latencies: Vec<u64> = Vec::new();
    let mut sent = (0u64, 0u64, 0u64, 0u64);
    let mut client_protocol_errors = 0u64;
    let mut client_overloaded = 0u64;
    // Lane order, then request order within the lane: the fold order is part
    // of the fingerprint's definition, so it must not depend on join timing.
    for lane in &lanes {
        for point in &lane.points {
            fingerprint = fold_point(fingerprint, point);
        }
        latencies.extend_from_slice(&lane.latencies_us);
        sent.0 += lane.sent.0;
        sent.1 += lane.sent.1;
        sent.2 += lane.sent.2;
        sent.3 += lane.sent.3;
        client_protocol_errors += lane.protocol_errors;
        client_overloaded += lane.overloaded;
    }
    latencies.sort_unstable();
    let requests_total = sent.0 + sent.1 + sent.2 + sent.3;
    let throughput_rps = if wall_ms > 0.0 {
        requests_total as f64 / (wall_ms / 1e3)
    } else {
        0.0
    };
    ServeBenchReport {
        seed: cfg.seed,
        clients: cfg.clients,
        requests_total,
        wall_ms,
        throughput_rps,
        p50_us: percentile(&latencies, 0.50),
        p95_us: percentile(&latencies, 0.95),
        p99_us: percentile(&latencies, 0.99),
        sent,
        overloaded: server.overloaded.max(client_overloaded),
        protocol_errors: server.protocol_errors + client_protocol_errors,
        backend_evals: server.backend_evals,
        coalesced_hits: server.coalesced_hits,
        batch_max: server.batch_max,
        wal_records_written: dashboard.wal_records_written,
        wal_records_quarantined: dashboard.wal_records_quarantined,
        snapshot_writes: dashboard.snapshot_writes,
        recovery_replayed: dashboard.recovery_replayed,
        suggest_fingerprint: fingerprint,
        clean_drain,
        shards: cfg.shards.max(1),
        shard_capacity: cfg.shard_capacity,
        zipf_signatures: cfg.zipf_signatures,
        zipf_skew: cfg.zipf_skew,
        tuner_evictions: dashboard.tuner_evictions,
        evicted_restored: dashboard.evicted_restored,
        resident_tuners,
        per_shard: server.shards,
        corpus_entries: 0,
        cold_hits: dashboard.cold_hits,
        cold_misses: dashboard.cold_misses,
        transfer_seeded: dashboard.transfer_seeded,
        transfer_served: server.transfer_served,
    }
}

/// Order-sensitive bit fold of one suggestion point (same construction as the
/// parallel bench's fingerprints).
fn fold_point(acc: u64, point: &[f64]) -> u64 {
    let mut h = rockpool::split_seed(acc, point.len() as u64);
    for x in point {
        h = rockpool::split_seed(h, x.to_bits());
    }
    h
}

/// Every shard backend must survive the drain; resident tuners sum over the
/// shards that did.
fn drained_and_resident(backends: &[Option<pipeline::AutotuneBackend>]) -> (bool, u64) {
    let drained = !backends.is_empty() && backends.iter().all(Option::is_some);
    let resident: usize = backends
        .iter()
        .flatten()
        .map(pipeline::AutotuneBackend::tuner_count)
        .sum();
    (drained, resident as u64)
}

/// Spawn an in-process server on an ephemeral port, run the fleet, then
/// drain-shutdown and verify every shard backend came back intact.
pub fn run_serve_bench(cfg: &ServeBenchConfig) -> std::io::Result<ServeBenchReport> {
    run_serve_bench_inner(cfg, None, None)
}

/// [`run_serve_bench`] with a durable state directory: every mutation is
/// WAL-logged under per-shard lineages, so LRU-evicted tuners restore
/// bit-identically from their rockdur sidecars when the load re-touches
/// them. The memory-bound gate runs the zipf preset through this.
pub fn run_serve_bench_durable(
    cfg: &ServeBenchConfig,
    state_dir: &std::path::Path,
) -> std::io::Result<ServeBenchReport> {
    run_serve_bench_inner(cfg, Some(state_dir), None)
}

/// Embedding families `ctx_for` cycles through — the corpus pre-warmed by
/// [`prewarm_corpus`] covers exactly these directions, so every cold-start
/// suggest finds a similarity-1.0 neighbor.
pub const COLD_CORPUS_FAMILIES: u64 = 7;

/// Signature band the pre-warmed corpus entries live in, disjoint from both
/// the suggest space and the `REPORT_SIG_BASE` band.
pub const CORPUS_SIG_BASE: u64 = 2_000_000;

/// Write a deterministic warm-signature corpus under `dir`: one entry per
/// [`COLD_CORPUS_FAMILIES`] embedding family, each holding that family's
/// "best observed" config. Content-addressed, seed-free: two calls produce
/// bit-identical corpus lineages, which the cold-start determinism gate
/// relies on. Returns the entry count.
pub fn prewarm_corpus(dir: &std::path::Path) -> std::io::Result<u64> {
    let space = optimizers::ConfigSpace::query_level();
    let (mut corpus, _recovery) = pipeline::Corpus::open(dir)?;
    for family in 0..COLD_CORPUS_FAMILIES {
        corpus.upsert(pipeline::CorpusEntry {
            signature: CORPUS_SIG_BASE + family,
            embedding: vec![0.2 + family as f64 * 0.1, 0.5],
            best_point: space.default_point(),
            observations: 8,
            best_elapsed_ms: 100.0 + family as f64 * 10.0,
            mean_elapsed_ms: 125.0 + family as f64 * 10.0,
            data_size: 1.0 + family as f64,
        })?;
    }
    corpus.sync()?;
    Ok(corpus.len() as u64)
}

/// [`run_serve_bench`] with a pre-warmed retrieval corpus attached: the
/// cold-start preset's fresh zipf-tail signatures are answered by transfer
/// from `corpus_dir` instead of cold exploration. The corpus is written by
/// [`prewarm_corpus`] if the directory is empty.
pub fn run_serve_bench_coldstart(
    cfg: &ServeBenchConfig,
    corpus_dir: &std::path::Path,
) -> std::io::Result<ServeBenchReport> {
    let entries = prewarm_corpus(corpus_dir)?;
    let mut report = run_serve_bench_inner(cfg, None, Some(corpus_dir))?;
    report.corpus_entries = entries;
    Ok(report)
}

fn run_serve_bench_inner(
    cfg: &ServeBenchConfig,
    state_dir: Option<&std::path::Path>,
    retrieval_dir: Option<&std::path::Path>,
) -> std::io::Result<ServeBenchReport> {
    let backend = pipeline::AutotuneBackend::new(
        std::sync::Arc::new(pipeline::Storage::new()),
        None,
        cfg.seed,
    );
    let serve_cfg = ServeConfig {
        state_dir: state_dir.map(std::path::Path::to_path_buf),
        shards: cfg.shards.max(1),
        shard_capacity: cfg.shard_capacity,
        retrieval_dir: retrieval_dir.map(std::path::Path::to_path_buf),
        ..ServeConfig::default()
    };
    let server = Server::spawn(backend, "127.0.0.1:0", serve_cfg)?;
    let addr = server.local_addr();
    let (lanes, wall_ms) = run_fleet(addr, cfg);

    // Final server-side counters, then an explicit drain via the wire.
    let mut control = ServeClient::connect(addr)?;
    let (snapshot, dashboard) = read_counters(&mut control);
    let acked = matches!(control.shutdown_server(), Ok(Response::ShuttingDown));
    let backends = server.join();
    let (drained, resident) = drained_and_resident(&backends);
    Ok(aggregate(
        cfg,
        lanes,
        wall_ms,
        snapshot,
        dashboard,
        acked && drained,
        resident,
    ))
}

/// One `Metrics` round trip: the serving counters and the backend dashboard.
fn read_counters(
    control: &mut ServeClient,
) -> (rockserve::MetricsSnapshot, pipeline::DashboardCounters) {
    match control.metrics() {
        Ok(Response::MetricsReport {
            serving, dashboard, ..
        }) => (serving, dashboard),
        _ => Default::default(),
    }
}

/// Run the fleet against an already-running external server (never sends
/// `Shutdown`); `clean_drain` reports whether a final health probe answered.
pub fn run_serve_bench_against(
    addr: std::net::SocketAddr,
    cfg: &ServeBenchConfig,
) -> std::io::Result<ServeBenchReport> {
    let (lanes, wall_ms) = run_fleet(addr, cfg);
    let mut control = ServeClient::connect(addr)?;
    let (snapshot, dashboard) = read_counters(&mut control);
    let healthy = matches!(control.health(), Ok(Response::Healthy { .. }));
    Ok(aggregate(
        cfg, lanes, wall_ms, snapshot, dashboard, healthy, 0,
    ))
}

/// Snapshot cadence the crash-recovery bench serves at — small enough that
/// even the quick shape exercises both snapshot restore *and* tail replay.
pub const CRASH_BENCH_SNAPSHOT_EVERY: u64 = 8;

/// Append lane `b`'s frames after lane `a`'s — the split run's two server
/// lifetimes stitched back into one uninterrupted-looking lane.
fn merge_lane(mut a: LaneResult, b: LaneResult) -> LaneResult {
    a.points.extend(b.points);
    a.latencies_us.extend(b.latencies_us);
    a.sent.0 += b.sent.0;
    a.sent.1 += b.sent.1;
    a.sent.2 += b.sent.2;
    a.sent.3 += b.sent.3;
    a.protocol_errors += b.protocol_errors;
    a.overloaded += b.overloaded;
    a
}

/// Combine the serving counters of the two lifetimes: monotone counters add,
/// high-water marks take the max.
fn merge_snapshots(
    a: rockserve::MetricsSnapshot,
    b: rockserve::MetricsSnapshot,
) -> rockserve::MetricsSnapshot {
    let mut shards = a.shards;
    for (i, sb) in b.shards.into_iter().enumerate() {
        if let Some(sa) = shards.get_mut(i) {
            sa.suggests += sb.suggests;
            sa.backend_evals += sb.backend_evals;
            sa.coalesced_hits += sb.coalesced_hits;
            sa.overloaded += sb.overloaded;
            sa.p50_us = sa.p50_us.max(sb.p50_us);
            sa.p99_us = sa.p99_us.max(sb.p99_us);
        } else {
            shards.push(sb);
        }
    }
    rockserve::MetricsSnapshot {
        suggests: a.suggests + b.suggests,
        reports: a.reports + b.reports,
        healths: a.healths + b.healths,
        metrics_requests: a.metrics_requests + b.metrics_requests,
        shutdowns: a.shutdowns + b.shutdowns,
        overloaded: a.overloaded + b.overloaded,
        protocol_errors: a.protocol_errors + b.protocol_errors,
        backend_evals: a.backend_evals + b.backend_evals,
        coalesced_hits: a.coalesced_hits + b.coalesced_hits,
        transfer_served: a.transfer_served + b.transfer_served,
        batch_max: a.batch_max.max(b.batch_max),
        queue_depth: a.queue_depth.max(b.queue_depth),
        inflight: a.inflight.max(b.inflight),
        p50_us: a.p50_us.max(b.p50_us),
        p95_us: a.p95_us.max(b.p95_us),
        p99_us: a.p99_us.max(b.p99_us),
        shards,
    }
}

/// The crash-recovery determinism harness: run the *same* seeded schedule as
/// [`run_serve_bench`], but across two server lifetimes sharing one durable
/// state directory — every lane sends frames `0..split` to the first server,
/// the first server dies (optionally with a seed-salted torn tail chopped
/// off its WAL, as a power loss mid-append would), a second server recovers
/// from the directory and serves frames `split..` of the very same schedule.
///
/// The merged report's `suggest_fingerprint` folds both lifetimes' points in
/// the uninterrupted (lane, request) order, so it must equal the fingerprint
/// of an unsplit [`run_serve_bench`] at the same seed: recovery restores the
/// snapshot (suggestion memo included), replays the WAL through the normal
/// code paths, and checkpointed tuner RNG streams continue bit-identically. A torn tail can only drop a suffix of *logged-but-lost*
/// operations, and each of those re-derives the identical point on the next
/// request for its signature — so the gate holds under fault injection too.
///
/// The caller owns `state_dir` (create it empty, clean it up after).
pub fn run_crash_recovery_bench(
    cfg: &ServeBenchConfig,
    state_dir: &std::path::Path,
    split: usize,
    tear_wal_tail: bool,
) -> std::io::Result<ServeBenchReport> {
    let split = split.min(cfg.requests_per_client);
    let serve_cfg = || ServeConfig {
        state_dir: Some(state_dir.to_path_buf()),
        snapshot_every: CRASH_BENCH_SNAPSHOT_EVERY,
        shards: cfg.shards.max(1),
        shard_capacity: cfg.shard_capacity,
        ..ServeConfig::default()
    };
    let backend = || {
        pipeline::AutotuneBackend::new(
            std::sync::Arc::new(pipeline::Storage::new()),
            None,
            cfg.seed,
        )
    };

    // First lifetime: serve the schedule prefix, then drain. The drain
    // fsyncs the WAL but deliberately writes no snapshot, so the second
    // lifetime recovers through real log replay, not a trivial image load.
    let server = Server::spawn(backend(), "127.0.0.1:0", serve_cfg())?;
    let addr = server.local_addr();
    let (lanes_a, wall_a) = run_fleet_range(addr, cfg, 0, split);
    let mut control = ServeClient::connect(addr)?;
    let (snap_a, _) = read_counters(&mut control);
    let acked_a = matches!(control.shutdown_server(), Ok(Response::ShuttingDown));
    let (drained_a, _) = drained_and_resident(&server.join());

    // The crash: tear a seed-derived number of bytes off the newest WAL
    // segment. Recovery must keep the committed prefix and quarantine —
    // never replay — the torn record. Under sharding the victim shard's
    // lineage is seed-chosen; the other shards recover untouched logs.
    if tear_wal_tail {
        let shards = cfg.shards.max(1);
        let victim = usize::try_from(cfg.seed % shards as u64).unwrap_or(0);
        rockdur::fault::torn_tail(
            &rockserve::shard_state_dir(state_dir, victim, shards),
            cfg.seed,
        )?;
    }

    // Second lifetime: recover (replay-before-accept) and serve the rest of
    // the schedule as if nothing had happened.
    let server = Server::spawn(backend(), "127.0.0.1:0", serve_cfg())?;
    let addr = server.local_addr();
    let (lanes_b, wall_b) = run_fleet_range(addr, cfg, split, cfg.requests_per_client);
    let mut control = ServeClient::connect(addr)?;
    // The recovered dashboard already carries the first lifetime's counters
    // (it is part of the snapshot + replay), so only the serving-layer
    // counters need summing across lifetimes.
    let (snap_b, dashboard) = read_counters(&mut control);
    let acked_b = matches!(control.shutdown_server(), Ok(Response::ShuttingDown));
    let (drained_b, resident) = drained_and_resident(&server.join());

    let lanes: Vec<LaneResult> = lanes_a
        .into_iter()
        .zip(lanes_b)
        .map(|(a, b)| merge_lane(a, b))
        .collect();
    Ok(aggregate(
        cfg,
        lanes,
        wall_a + wall_b,
        merge_snapshots(snap_a, snap_b),
        dashboard,
        acked_a && drained_a && acked_b && drained_b,
        resident,
    ))
}

/// Where `BENCH_serve.json` goes: `$ROCKHOPPER_SERVE_OUT` or
/// [`SERVE_DEFAULT_OUT`].
pub fn serve_out_path() -> std::path::PathBuf {
    std::env::var("ROCKHOPPER_SERVE_OUT")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|_| std::path::PathBuf::from(SERVE_DEFAULT_OUT))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_bench_is_deterministic_and_clean() {
        let cfg = ServeBenchConfig::quick(0x5EED);
        let a = run_serve_bench(&cfg).expect("bench runs");
        let b = run_serve_bench(&cfg).expect("bench runs twice");
        assert_eq!(a.suggest_fingerprint, b.suggest_fingerprint);
        assert_eq!(a.requests_total, 128);
        assert_eq!(a.protocol_errors, 0, "protocol errors in {a:?}");
        assert!(a.clean_drain && b.clean_drain);
        assert!(a.p50_us <= a.p95_us && a.p95_us <= a.p99_us);
        // Coalescing must be visible: far fewer evaluations than suggests.
        assert!(
            a.backend_evals <= u64::from(u32::try_from(cfg.suggest_signatures).unwrap_or(u32::MAX)),
            "evals {} > distinct signatures {}",
            a.backend_evals,
            cfg.suggest_signatures
        );
        assert_eq!(a.backend_evals + a.coalesced_hits, a.sent.0);
    }

    #[test]
    fn report_renders_the_serve_schema() {
        let report = ServeBenchReport {
            seed: 1,
            clients: 2,
            requests_total: 16,
            wall_ms: 10.0,
            throughput_rps: 1600.0,
            p50_us: 10,
            p95_us: 20,
            p99_us: 30,
            sent: (10, 3, 2, 1),
            overloaded: 0,
            protocol_errors: 0,
            backend_evals: 4,
            coalesced_hits: 6,
            batch_max: 3,
            wal_records_written: 12,
            wal_records_quarantined: 1,
            snapshot_writes: 2,
            recovery_replayed: 5,
            suggest_fingerprint: 0xDEAD_BEEF,
            clean_drain: true,
            shards: 2,
            shard_capacity: 8,
            zipf_signatures: 100_000,
            zipf_skew: 1.1,
            tuner_evictions: 7,
            evicted_restored: 3,
            resident_tuners: 16,
            per_shard: vec![
                rockserve::ShardMetricsSnapshot {
                    shard: 0,
                    suggests: 6,
                    backend_evals: 2,
                    coalesced_hits: 4,
                    overloaded: 0,
                    p50_us: 11,
                    p99_us: 31,
                },
                rockserve::ShardMetricsSnapshot {
                    shard: 1,
                    suggests: 4,
                    backend_evals: 2,
                    coalesced_hits: 2,
                    overloaded: 0,
                    p50_us: 9,
                    p99_us: 29,
                },
            ],
            corpus_entries: 7,
            cold_hits: 5,
            cold_misses: 1,
            transfer_seeded: 2,
            transfer_served: 6,
        };
        let json = report.to_json();
        let value = serde_json::value_from_str(&json).expect("valid JSON");
        match value.get_field("schema") {
            serde::Value::Str(s) => assert_eq!(s, SERVE_SCHEMA),
            other => panic!("schema field: {other:?}"),
        }
        match value.get_field("suggest_fingerprint") {
            serde::Value::Str(s) => assert_eq!(s, "00000000deadbeef"),
            other => panic!("fingerprint field: {other:?}"),
        }
        match value
            .get_field("durability")
            .get_field("wal_records_written")
        {
            serde::Value::UInt(12) | serde::Value::Int(12) => {}
            other => panic!("durability.wal_records_written field: {other:?}"),
        }
        match value.get_field("durability").get_field("recovery_replayed") {
            serde::Value::UInt(5) | serde::Value::Int(5) => {}
            other => panic!("durability.recovery_replayed field: {other:?}"),
        }
        assert!(matches!(
            value.get_field("clean_drain"),
            serde::Value::Bool(true)
        ));
        let sharding = value.get_field("sharding");
        match sharding.get_field("shards") {
            serde::Value::UInt(2) | serde::Value::Int(2) => {}
            other => panic!("sharding.shards field: {other:?}"),
        }
        match sharding.get_field("tuner_evictions") {
            serde::Value::UInt(7) | serde::Value::Int(7) => {}
            other => panic!("sharding.tuner_evictions field: {other:?}"),
        }
        match sharding.get_field("per_shard") {
            serde::Value::Array(items) => assert_eq!(items.len(), 2),
            other => panic!("sharding.per_shard field: {other:?}"),
        }
        match value.get_field("zipf").get_field("signatures") {
            serde::Value::UInt(100_000) | serde::Value::Int(100_000) => {}
            other => panic!("zipf.signatures field: {other:?}"),
        }
        let retrieval = value.get_field("retrieval");
        match retrieval.get_field("cold_hits") {
            serde::Value::UInt(5) | serde::Value::Int(5) => {}
            other => panic!("retrieval.cold_hits field: {other:?}"),
        }
        match retrieval.get_field("transfer_served") {
            serde::Value::UInt(6) | serde::Value::Int(6) => {}
            other => panic!("retrieval.transfer_served field: {other:?}"),
        }
    }

    #[test]
    fn zipf_schedules_are_seeded_skewed_and_in_band() {
        let cfg = ServeBenchConfig::zipf(0x21F);
        // Pure function of (seed, lane): two builds must agree shot for shot.
        for lane in 0..4 {
            let a = lane_schedule(&cfg, lane);
            let b = lane_schedule(&cfg, lane);
            assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.0, y.0);
                match (x.1, y.1) {
                    (Shot::Suggest(p), Shot::Suggest(q)) | (Shot::Report(p), Shot::Report(q)) => {
                        assert_eq!(p, q);
                    }
                    (Shot::Health, Shot::Health) | (Shot::Metrics, Shot::Metrics) => {}
                    _ => panic!("schedule kind diverged between identical builds"),
                }
            }
        }
        // Every signature stays inside its band, and the head outdraws a
        // deep-tail rank by a wide margin (that is what "zipfian" buys).
        let mut head = 0u64;
        let mut tail = 0u64;
        let mut suggests = 0u64;
        for lane in 0..cfg.clients {
            for (_, shot) in lane_schedule(&cfg, lane) {
                match shot {
                    Shot::Suggest(sig) => {
                        assert!(sig < cfg.zipf_signatures);
                        suggests += 1;
                        if sig < 4 {
                            head += 1;
                        } else if sig >= cfg.zipf_signatures / 2 {
                            tail += 1;
                        }
                    }
                    Shot::Report(sig) => {
                        let rank = sig - REPORT_SIG_BASE;
                        assert!(rank < cfg.zipf_signatures, "report rank {rank} out of band");
                    }
                    _ => {}
                }
            }
        }
        assert!(suggests > 0);
        assert!(
            head > tail,
            "zipf head (ranks 0..4) drew {head} <= deep tail {tail} of {suggests}"
        );
    }

    #[test]
    fn zipf_sampler_is_normalized_and_monotone() {
        let z = Zipf::new(1000, 1.1);
        assert_eq!(z.cdf.len(), 1000);
        let last = *z.cdf.last().expect("nonempty table");
        assert!((last - 1.0).abs() < 1e-9, "cdf must end at 1.0, got {last}");
        assert!(
            z.cdf.windows(2).all(|w| w[0] <= w[1]),
            "cdf must be monotone"
        );
        // The head rank owns the largest single slice of probability.
        assert!(z.cdf[0] > 1.0 / 1000.0 * 10.0);
    }
}
