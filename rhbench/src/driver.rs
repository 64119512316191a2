//! The open-loop load generator: per-lane Poisson arrival schedules drawn
//! from the seed, the request each arrival sends, and the lane threads that
//! send them on time.
//!
//! Every latency is timed from the request's *due* time, not from when it
//! was sent, so a stall that delays later requests is charged to them
//! (no coordinated omission). How late the generator itself ran is recorded
//! separately.

use std::collections::{BTreeMap, HashMap};
use std::net::SocketAddr;
use std::time::{Duration, Instant};

use optimizers::{ConfigSpace, TuningContext};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use rockserve::proto::{self, Request, Response};
use rockserve::ServeClient;
use sparksim::{NoiseSpec, PlanNode, Simulator};

use crate::stats;
use crate::suite::Workload;
use crate::trace::SpanLog;

/// Tenant every request is sent as.
pub const USER: &str = "rhbench";

/// TPC-H templates signatures map onto (`sig % TEMPLATES`).
const TEMPLATES: u64 = 8;

/// Signatures `hot_read` cycles through.
const HOT_KEYS: u64 = 8;

/// Signatures `tuning_loop` spreads over its lanes.
const LOOP_SIGNATURES: u64 = 64;

/// `cold_start` signatures start here, far from every other band.
const COLD_BASE: u64 = 1 << 40;

/// Embedding width of the `cold_start` corpus.
pub const CORPUS_DIM: usize = 10;

/// Per-component noise added to a corpus embedding to make a cold query.
/// Components lie in [0.1, 1), so cosine similarity to the source entry
/// stays above 0.98, well inside the transfer policy's 0.80 bound.
const COLD_JITTER: f64 = 0.02;

/// Stream salts, so the schedule, the picks and the simulated runs never
/// share random draws.
const ARRIVAL_SALT: u64 = 0xA221_7A15;
const PICK_SALT: u64 = 0x51C4_0B1C;
const SIM_SALT: u64 = 0x5135_0EED;

/// Sleep until this close to a due time, then yield-spin the rest: a plain
/// sleep overshoots by the kernel's timer slack, which would read as latency.
const SPIN_US: u64 = 100;

struct Template {
    plan: PlanNode,
    ctx: TuningContext,
}

/// Everything the lanes generate requests from: a pure function of the
/// workload and the seed.
pub struct Inputs {
    pub workload: Workload,
    pub seed: u64,
    pub lanes: usize,
    templates: Vec<Template>,
    sim: Simulator,
    space: ConfigSpace,
    /// `cold_start` corpus embeddings, entry `j` at index `j`.
    pub corpus_embeddings: Vec<Vec<f64>>,
}

impl Inputs {
    pub fn new(workload: Workload, seed: u64, lanes: usize, corpus_entries: usize) -> Inputs {
        let embedder = embedding::WorkloadEmbedder::virtual_ops();
        let templates = (1..=TEMPLATES as usize)
            .map(|n| {
                let plan = workloads::tpch::query(n, 10.0);
                let ctx = TuningContext {
                    embedding: embedder.embed(&plan),
                    expected_data_size: plan.leaf_input_rows(),
                    iteration: 0,
                };
                Template { plan, ctx }
            })
            .collect();
        let mut rng = StdRng::seed_from_u64(seed);
        let corpus_embeddings = if workload == Workload::ColdStart {
            (0..corpus_entries)
                .map(|_| {
                    (0..CORPUS_DIM)
                        .map(|_| rng.random_range(0.1..1.0))
                        .collect()
                })
                .collect()
        } else {
            Vec::new()
        };
        Inputs {
            workload,
            seed,
            lanes,
            templates,
            sim: Simulator::default_pool(NoiseSpec::low()),
            space: ConfigSpace::query_level(),
            corpus_embeddings,
        }
    }

    /// The fixed context of a template-mapped signature.
    pub fn ctx_of(&self, sig: u64) -> &TuningContext {
        &self.templates[(sig % TEMPLATES) as usize].ctx
    }

    /// Signatures every set-up asks once before the load: `hot_read`'s keys,
    /// so every timed Suggest is a coalescer hit, and `tuning_loop`'s
    /// signatures, so each holds a suggestion whose run its first arrival
    /// reports.
    pub fn warm_keys(&self) -> std::ops::Range<u64> {
        match self.workload {
            Workload::HotRead => 0..HOT_KEYS,
            Workload::TuningLoop => 0..LOOP_SIGNATURES,
            Workload::ColdStart => 0..0,
        }
    }

    /// Poisson arrival offsets (seconds) for one lane over `[0, seconds)` at
    /// this lane's share of `rate_rps`. `phase` separates the streams of the
    /// main load and each capacity-ramp step.
    pub fn arrivals(&self, lane: usize, phase: u64, rate_rps: f64, seconds: f64) -> Vec<f64> {
        let stream = rockpool::split_seed(self.seed ^ ARRIVAL_SALT, phase);
        let mut rng = StdRng::seed_from_u64(rockpool::split_seed(stream, lane as u64));
        let lane_rate = rate_rps / self.lanes as f64;
        let mut t = 0.0;
        let mut out = Vec::with_capacity((lane_rate * seconds * 1.1) as usize + 16);
        loop {
            let u: f64 = rng.random_range(0.0..1.0);
            t += -(1.0 - u).ln() / lane_rate;
            if t >= seconds {
                return out;
            }
            out.push(t);
        }
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Suggest,
    Report,
}

/// One request a lane sent, and what came back.
pub struct Record {
    pub kind: Kind,
    pub sig: u64,
    pub latency_us: f64,
    pub late_us: f64,
    /// False on a transport error, an `Error` or `Overloaded` reply, or a
    /// suggestion degraded to the default config (`fallback` set).
    pub ok: bool,
    pub point: Option<Vec<f64>>,
    pub transferred: bool,
    /// Kept in traced runs only, for the in-process replay.
    pub request: Option<Request>,
}

/// One lane's request generator. Lane `l` owns every signature with
/// `sig % lanes == l`, so per-signature order never depends on how the
/// lanes interleave.
pub struct LaneGen<'a> {
    inputs: &'a Inputs,
    lane: usize,
    rng: StdRng,
    /// Suggestions served and not yet reported, by signature.
    held: BTreeMap<u64, Vec<f64>>,
    /// Reports sent per signature, numbering each simulated run.
    reports: HashMap<u64, u64>,
    cold_next: u64,
}

impl<'a> LaneGen<'a> {
    pub fn new(inputs: &'a Inputs, lane: usize) -> LaneGen<'a> {
        LaneGen {
            inputs,
            lane,
            rng: StdRng::seed_from_u64(rockpool::split_seed(inputs.seed ^ PICK_SALT, lane as u64)),
            held: BTreeMap::new(),
            reports: HashMap::new(),
            cold_next: 0,
        }
    }

    fn suggest(sig: u64, ctx: &TuningContext) -> Request {
        Request::Suggest {
            user: USER.to_string(),
            signature: sig,
            embedding: ctx.embedding.clone(),
            expected_data_size: ctx.expected_data_size,
            iteration: ctx.iteration,
        }
    }

    /// The next arrival's request. Called before the arrival's due time, so
    /// simulating a report's run here spends the lane's slack, not the
    /// request's latency.
    fn next(&mut self) -> (Kind, u64, Request) {
        let lanes = self.inputs.lanes as u64;
        let lane = self.lane as u64;
        let sig = match self.inputs.workload {
            Workload::HotRead => {
                let sig = self.rng.random_range(0..HOT_KEYS);
                return (
                    Kind::Suggest,
                    sig,
                    Self::suggest(sig, self.inputs.ctx_of(sig)),
                );
            }
            Workload::ColdStart => {
                let sig = COLD_BASE + self.cold_next * lanes + lane;
                self.cold_next += 1;
                let source = self
                    .rng
                    .random_range(0..self.inputs.corpus_embeddings.len());
                let ctx = TuningContext {
                    embedding: self.inputs.corpus_embeddings[source]
                        .iter()
                        .map(|x| x + self.rng.random_range(-COLD_JITTER..COLD_JITTER))
                        .collect(),
                    expected_data_size: 1.0,
                    iteration: 0,
                };
                return (Kind::Suggest, sig, Self::suggest(sig, &ctx));
            }
            Workload::TuningLoop => {
                self.rng.random_range(0..LOOP_SIGNATURES / lanes) * lanes + lane
            }
        };
        // The tuning loop: a held suggestion is run and reported; otherwise
        // the signature asks for its next suggestion.
        match self.held.remove(&sig) {
            Some(point) => (Kind::Report, sig, self.report(sig, &point)),
            None => (
                Kind::Suggest,
                sig,
                Self::suggest(sig, self.inputs.ctx_of(sig)),
            ),
        }
    }

    /// Simulate the run of `point` on the signature's TPC-H template and wrap
    /// its event log in a Report.
    fn report(&mut self, sig: u64, point: &[f64]) -> Request {
        let n = self.reports.entry(sig).or_insert(0);
        let run_index = *n;
        *n += 1;
        let inputs = self.inputs;
        let template = &inputs.templates[(sig % TEMPLATES) as usize];
        let conf = inputs.space.to_conf(point);
        let run_seed =
            rockpool::split_seed(rockpool::split_seed(inputs.seed ^ SIM_SALT, sig), run_index);
        let run = inputs.sim.execute(&template.plan, &conf, run_seed);
        let app_id = format!("rh-{sig}-{run_index}");
        let events = inputs.sim.events_for_run(
            &app_id,
            &format!("artifact-{}", sig % TEMPLATES),
            sig,
            &template.plan,
            &conf,
            template.ctx.embedding.clone(),
            &run,
        );
        Request::Report {
            user: USER.to_string(),
            app_id,
            jsonl: sparksim::event::to_jsonl(&events),
        }
    }

    /// Hold a served suggestion until its signature's next arrival reports it.
    pub fn on_suggestion(&mut self, sig: u64, point: &[f64]) {
        if self.inputs.workload == Workload::TuningLoop {
            self.held.insert(sig, point.to_vec());
        }
    }

    /// Suggestions served but not yet reported: what a restarted server
    /// must still answer identically.
    pub fn pending(&self) -> impl Iterator<Item = (u64, &[f64])> + '_ {
        self.held.iter().map(|(sig, p)| (*sig, p.as_slice()))
    }
}

/// Everything one lane measured.
pub struct LaneLog {
    pub records: Vec<Record>,
    pub spans: SpanLog,
    /// CPU seconds of the lane thread (generator overhead).
    pub cpu_s: f64,
}

fn wait_until(due: Instant) {
    let spin = Duration::from_micros(SPIN_US);
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        let left = due - now;
        if left > spin {
            std::thread::sleep(left - spin);
        } else {
            std::thread::yield_now();
        }
    }
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Classify a reply: (ok, served point, transferred).
fn outcome(reply: &Result<Response, proto::WireError>) -> (bool, Option<Vec<f64>>, bool) {
    match reply {
        Ok(Response::Suggestion {
            point,
            fallback,
            provenance,
        }) => (
            fallback.is_none(),
            Some(point.clone()),
            provenance.as_deref() == Some("transferred"),
        ),
        Ok(Response::Reported) => (true, None, false),
        _ => (false, None, false),
    }
}

/// Time the wire codec on one exchange as standalone calls: the client's
/// request encode, the server's request decode, the server's reply encode
/// and the client's reply decode.
fn time_codec(
    spans: &mut SpanLog,
    parent: usize,
    req_id: u64,
    kind: Kind,
    req: &Request,
    reply: &Result<Response, proto::WireError>,
) {
    let (enc_req, dec_req, enc_resp, dec_resp) = match kind {
        Kind::Suggest => (
            "proto.encode_suggest",
            "proto.decode_suggest",
            "proto.encode_suggestion",
            "proto.decode_suggestion",
        ),
        Kind::Report => (
            "proto.encode_report",
            "proto.decode_report",
            "proto.encode_reported",
            "proto.decode_reported",
        ),
    };
    let Ok(payload) = spans.time(enc_req, Some(parent), req_id, || proto::encode_request(req))
    else {
        return;
    };
    let _ = spans.time(dec_req, Some(parent), req_id, || {
        proto::decode_request(std::hint::black_box(&payload))
    });
    if let Ok(resp) = reply {
        if let Ok(bytes) = spans.time(enc_resp, Some(parent), req_id, || {
            proto::encode_response(resp)
        }) {
            let _ = spans.time(dec_resp, Some(parent), req_id, || {
                proto::decode_response(std::hint::black_box(&bytes))
            });
        }
    }
}

/// Send one lane's schedule on time over one connection.
fn run_lane(
    addr: SocketAddr,
    gen: &mut LaneGen,
    arrivals: &[f64],
    start: Instant,
    traced: bool,
    epoch: Instant,
) -> LaneLog {
    let cpu0 = stats::thread_cpu_s();
    let mut log = LaneLog {
        records: Vec::with_capacity(arrivals.len()),
        spans: SpanLog::new(epoch),
        cpu_s: 0.0,
    };
    let mut client = ServeClient::connect(addr).ok();
    for (i, &offset) in arrivals.iter().enumerate() {
        let (kind, sig, req) = gen.next();
        let due = start + Duration::from_secs_f64(offset);
        wait_until(due);
        let sent = Instant::now();
        let reply = match client.as_mut() {
            Some(c) => c.call(&req),
            None => Err(proto::WireError::Truncated {
                expected: proto::HEADER_BYTES,
                got: 0,
            }),
        };
        let done = Instant::now();
        if reply.is_err() {
            // A broken connection fails this request; the next one redials.
            client = ServeClient::connect(addr).ok();
        }
        let (ok, point, transferred) = outcome(&reply);
        if traced {
            let req_id = ((gen.lane as u64) << 32) | i as u64;
            let name = match kind {
                Kind::Suggest => "client.suggest",
                Kind::Report => "client.report",
            };
            let parent = log.spans.record(name, due, done, None, req_id);
            time_codec(&mut log.spans, parent, req_id, kind, &req, &reply);
        }
        if let (true, Some(p)) = (ok, &point) {
            gen.on_suggestion(sig, p);
        }
        log.records.push(Record {
            kind,
            sig,
            latency_us: us(done - due),
            late_us: us(sent - due),
            ok,
            point,
            transferred,
            request: traced.then_some(req),
        });
    }
    log.cpu_s = stats::thread_cpu_s() - cpu0;
    log
}

/// Drive every lane's schedule concurrently, one connection per lane; the
/// connections close when this returns.
pub fn run_load(
    addr: SocketAddr,
    gens: &mut [LaneGen],
    schedules: &[Vec<f64>],
    traced: bool,
    epoch: Instant,
) -> Vec<LaneLog> {
    // A short lead lets every lane connect before its first due time.
    let start = Instant::now() + Duration::from_millis(10);
    std::thread::scope(|scope| {
        let handles: Vec<_> = gens
            .iter_mut()
            .zip(schedules)
            .map(|(gen, arrivals)| {
                scope.spawn(move || run_lane(addr, gen, arrivals, start, traced, epoch))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("lane thread panicked"))
            .collect()
    })
}
