//! Golden bytes for every JSON encoding the workspace persists or sends.
//!
//! Snapshots, WAL records, sidecars, wire frames and event logs are all
//! compared byte for byte across builds (determinism and recovery gates,
//! `cmp -r` of state directories), so the encoder's output is part of the
//! product contract. This test pins it: each case below encodes a seeded
//! value and compares the bytes with a committed golden value, written out
//! in full for short encodings and as length plus FNV-1a digest for long
//! ones. A change to the encoder that moves a single byte fails here.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use optimizers::env::{Environment, QueryEnv};
use optimizers::space::ConfigSpace;
use optimizers::tuner::{Outcome, Tuner, TuningContext};
use pipeline::{AutotuneBackend, DashboardCounters, Storage};
use rockhopper::RockhopperTuner;
use rockserve::proto::{encode_request, encode_response, Request, Response};
use rockserve::{MetricsSnapshot, ShardMetricsSnapshot};
use serde::Serialize;
use sparksim::noise::NoiseSpec;

/// A committed encoding: the text itself, or its length and digest.
enum Golden {
    Text(&'static str),
    Digest(usize, u64),
}

/// FNV-1a over the bytes: a stable digest with no dependency.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

fn assert_golden(name: &str, bytes: &[u8], golden: &Golden) {
    match golden {
        Golden::Text(text) => assert_eq!(
            String::from_utf8_lossy(bytes),
            *text,
            "{name}: encoding changed"
        ),
        Golden::Digest(len, digest) => assert_eq!(
            (bytes.len(), fnv1a(bytes)),
            (*len, *digest),
            "{name}: encoding changed"
        ),
    }
}

fn ctx() -> TuningContext {
    TuningContext {
        embedding: (0..10).map(|i| f64::from(i) * 0.1 - 0.35).collect(),
        expected_data_size: 1.5e9,
        iteration: 3,
    }
}

/// One simulated TPC-H run's event log, built as the e2e tests build one.
fn event_log() -> String {
    let env = QueryEnv::tpch(6, 0.1, NoiseSpec::none(), 1);
    let point = env.space().denormalize(&[0.3, 0.6, 0.9]);
    let conf = env.space().to_conf(&point);
    let run = env.sim.execute(&env.plan, &conf, 0);
    let events = env.sim.events_for_run(
        "app-0",
        "artifact",
        42,
        &env.plan,
        &conf,
        ctx().embedding,
        &run,
    );
    sparksim::event::to_jsonl(&events)
}

#[test]
fn wire_frames_keep_their_bytes() {
    let requests = [
        (
            "request_suggest",
            Request::Suggest {
                user: "tenant".into(),
                signature: u64::MAX,
                embedding: ctx().embedding,
                expected_data_size: 1.5e9,
                iteration: 3,
            },
        ),
        (
            "request_report",
            Request::Report {
                user: "tenant".into(),
                app_id: "app-0".into(),
                jsonl: event_log(),
            },
        ),
        ("request_health", Request::Health),
        ("request_metrics", Request::Metrics),
        ("request_shutdown", Request::Shutdown),
    ];
    let responses = [
        (
            "response_suggestion",
            Response::Suggestion {
                point: vec![0.25, -0.0, 1e300, 5e-324],
                fallback: None,
                provenance: Some("transferred".into()),
            },
        ),
        (
            "response_suggestion_fallback",
            Response::Suggestion {
                point: vec![],
                fallback: Some("backend \"down\"\n".into()),
                provenance: None,
            },
        ),
        ("response_reported", Response::Reported),
        (
            "response_healthy",
            Response::Healthy {
                draining: true,
                protocol_version: 4,
            },
        ),
        (
            "response_metrics_report",
            Response::MetricsReport {
                text: "rockserve_requests_suggest 7\n".into(),
                serving: MetricsSnapshot {
                    suggests: 7,
                    p99_us: 123,
                    shards: vec![ShardMetricsSnapshot {
                        shard: 1,
                        ..ShardMetricsSnapshot::default()
                    }],
                    ..MetricsSnapshot::default()
                },
                dashboard: DashboardCounters {
                    ingested_records: 5,
                    ..DashboardCounters::default()
                },
            },
        ),
        (
            "response_overloaded",
            Response::Overloaded {
                inflight: 64,
                capacity: 64,
            },
        ),
        ("response_shutting_down", Response::ShuttingDown),
        (
            "response_error",
            Response::Error {
                code: "malformed_frame".into(),
                message: "bad \u{1} byte at é".into(),
            },
        ),
    ];
    let mut encoded: Vec<(&str, Vec<u8>)> = Vec::new();
    for (name, req) in &requests {
        encoded.push((name, encode_request(req).expect("request encodes")));
    }
    for (name, resp) in &responses {
        encoded.push((name, encode_response(resp).expect("response encodes")));
    }
    check_all(&encoded, WIRE_GOLDEN);
}

#[test]
fn event_logs_keep_their_bytes() {
    let log = event_log();
    let kinds: BTreeMap<String, usize> = log.lines().fold(BTreeMap::new(), |mut acc, line| {
        let v = serde_json::value_from_str(line).expect("an event line parses");
        let serde::Value::Str(kind) = v.get_field("event") else {
            panic!("an event line carries its tag: {line}");
        };
        *acc.entry(kind.clone()).or_default() += 1;
        acc
    });
    assert_eq!(
        kinds.keys().map(String::as_str).collect::<Vec<_>>(),
        [
            "ApplicationEnd",
            "ApplicationStart",
            "QueryEnd",
            "QueryStart",
            "StageCompleted"
        ],
        "the log covers every SparkEvent kind"
    );
    let mut encoded: Vec<(&str, Vec<u8>)> = ["ApplicationStart", "ApplicationEnd"]
        .into_iter()
        .filter_map(|kind| {
            let line = log.lines().find(|l| l.contains(&format!("\"{kind}\"")))?;
            Some((kind, line.as_bytes().to_vec()))
        })
        .collect();
    encoded.push(("jsonl", log.into_bytes()));
    check_all(&encoded, EVENT_GOLDEN);
}

#[test]
fn tuner_state_keeps_its_bytes() {
    let space = ConfigSpace::query_level();
    let mut tuner = RockhopperTuner::builder(space).seed(1).build();
    for i in 0..12u32 {
        let p = tuner.suggest(&TuningContext {
            iteration: i,
            ..ctx()
        });
        let outcome = if i % 5 == 4 {
            Outcome::censored(900.0, 1e6)
        } else {
            Outcome::measured(100.0 + f64::from(i % 7), 1e6)
        };
        tuner.observe(&p, &outcome);
    }
    let bytes = serde_json::to_vec(&tuner.snapshot()).expect("state encodes");
    check_all(&[("tuner_state", bytes)], TUNER_GOLDEN);
}

/// A self-cleaning state directory under the system temp dir.
struct StateDir(PathBuf);

impl StateDir {
    fn new(tag: &str) -> StateDir {
        let dir = std::env::temp_dir().join(format!(
            "rockhopper-encoder-golden-{}-{tag}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        StateDir(dir)
    }
}

impl Drop for StateDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Every file under `dir`, by relative path in name order.
fn read_tree(dir: &Path, prefix: &str, out: &mut Vec<(String, Vec<u8>)>) {
    let mut entries: Vec<_> = std::fs::read_dir(dir)
        .expect("state dir lists")
        .flatten()
        .collect();
    entries.sort_by_key(|e| e.file_name());
    for entry in entries {
        let name = format!("{prefix}{}", entry.file_name().to_string_lossy());
        if entry.path().is_dir() {
            read_tree(&entry.path(), &format!("{name}/"), out);
        } else {
            out.push((name, std::fs::read(entry.path()).expect("state file reads")));
        }
    }
}

#[test]
fn durable_state_files_keep_their_bytes() {
    let dir = StateDir::new("state");
    let mut backend = AutotuneBackend::new(Arc::new(Storage::new()), None, 42);
    backend.persist_to_with(&dir.0, 5).expect("attach");
    let mut env = QueryEnv::tpch(6, 0.1, NoiseSpec::none(), 7);
    let sig = env.signature();
    for i in 0..7u32 {
        let ctx = env.context();
        let point = backend.suggest("alice", sig, &ctx);
        let conf = env.space().to_conf(&point);
        let run = env.sim.execute(&env.plan, &conf, u64::from(i));
        let app = format!("app-{i}");
        let events = env.sim.events_for_run(
            &app,
            "artifact-x",
            sig,
            &env.plan,
            &conf,
            ctx.embedding.clone(),
            &run,
        );
        backend.ingest("alice", &app, &events);
        let _ = env.run(&point);
    }
    backend.update_app_cache("alice", "artifact-x", &[sig], 1.0);
    backend.flush_durability().expect("flush");
    drop(backend);

    let mut files = Vec::new();
    read_tree(&dir.0, "", &mut files);
    let names: Vec<&str> = files.iter().map(|(n, _)| n.as_str()).collect();
    assert_eq!(
        names,
        STATE_GOLDEN.iter().map(|(n, _)| *n).collect::<Vec<_>>(),
        "the state directory holds the same files"
    );
    let files: Vec<(&str, Vec<u8>)> = files.iter().map(|(n, b)| (n.as_str(), b.clone())).collect();
    check_all(&files, STATE_GOLDEN);
}

#[derive(Serialize)]
struct Unit;

#[derive(Serialize)]
struct Newtype(f64);

#[derive(Serialize)]
struct Pair(i32, String);

#[derive(Serialize)]
enum Shape {
    Empty,
    Wrapped(Option<u8>),
    Pair(i64, f32),
    Named { label: String, weight: f64 },
}

#[derive(Serialize)]
#[serde(tag = "kind")]
enum Tagged {
    Bare,
    Full { id: u64, note: Option<String> },
}

#[derive(Serialize)]
struct Stress {
    floats: Vec<f64>,
    narrow: Vec<f32>,
    ints: (i8, i64, u64, usize),
    text: Vec<String>,
    letter: char,
    missing: Option<String>,
    present: Option<Vec<u16>>,
    unit: Unit,
    newtype: Newtype,
    pair: Pair,
    shapes: Vec<Shape>,
    tagged: Vec<Tagged>,
    by_pair: HashMap<(u32, String), Vec<i16>>,
    by_int: BTreeMap<i32, bool>,
    set: HashSet<String>,
    nothing: (),
}

fn stress() -> Stress {
    Stress {
        floats: vec![
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            -0.0,
            0.0,
            5e-324,
            2.2250738585072e-308,
            1e300,
            -1.7976931348623157e308,
            0.1,
            1.0,
            123456789.0,
            1e16,
            1e-7,
        ],
        narrow: vec![0.1, f32::MAX, f32::NAN, -1.5e-40],
        ints: (i8::MIN, i64::MIN, u64::MAX, 0),
        text: vec![
            String::new(),
            "tab\there \"quoted\" back\\slash /".into(),
            "\u{0}\u{1}\u{8}\u{c}\n\r\u{1f}\u{7f}".into(),
            "é ß 日本語 \u{2028} 🦀".into(),
        ],
        letter: '\u{1b}',
        missing: None,
        present: Some(vec![0, u16::MAX]),
        unit: Unit,
        newtype: Newtype(-2.5),
        pair: Pair(-7, "p".into()),
        shapes: vec![
            Shape::Empty,
            Shape::Wrapped(None),
            Shape::Wrapped(Some(9)),
            Shape::Pair(-1, 0.5),
            Shape::Named {
                label: "n\u{1}".into(),
                weight: f64::NAN,
            },
        ],
        tagged: vec![
            Tagged::Bare,
            Tagged::Full {
                id: 3,
                note: Some("x".into()),
            },
            Tagged::Full { id: 0, note: None },
        ],
        by_pair: [
            ((10, "b".to_string()), vec![1, -1]),
            ((9, "a".to_string()), vec![]),
            ((10, "a".to_string()), vec![i16::MIN]),
        ]
        .into_iter()
        .collect(),
        by_int: [(10, true), (9, false), (-3, true)].into_iter().collect(),
        set: ["zeta", "alpha", "Ω", "\"q\""]
            .into_iter()
            .map(String::from)
            .collect(),
        nothing: (),
    }
}

#[test]
fn formatting_edge_cases_keep_their_bytes() {
    let value = stress();
    let encoded = [
        ("stress", serde_json::to_vec(&value).expect("encodes")),
        ("unit", serde_json::to_vec(&Unit).expect("encodes")),
        (
            "empty_map",
            serde_json::to_vec(&HashMap::<u8, u8>::new()).expect("encodes"),
        ),
        ("none", serde_json::to_vec(&None::<f64>).expect("encodes")),
    ];
    check_all(&encoded, STRESS_GOLDEN);
}

fn check_all(encoded: &[(&str, Vec<u8>)], golden: &[(&str, Golden)]) {
    assert_eq!(encoded.len(), golden.len(), "one golden value per case");
    for ((name, bytes), (golden_name, value)) in encoded.iter().zip(golden) {
        assert_eq!(name, golden_name, "cases are listed in order");
        assert_golden(name, bytes, value);
    }
}

const WIRE_GOLDEN: &[(&str, Golden)] = &[
    (
        "request_suggest",
        Golden::Text(
            r#"{"Suggest":{"user":"tenant","signature":18446744073709551615,"embedding":[-0.35,-0.24999999999999997,-0.14999999999999997,-0.04999999999999993,0.050000000000000044,0.15000000000000002,0.2500000000000001,0.3500000000000001,0.45000000000000007,0.55],"expected_data_size":1500000000.0,"iteration":3}}"#,
        ),
    ),
    ("request_report", Golden::Digest(1503, 0x47135c1067ba55e2)),
    ("request_health", Golden::Text(r#""Health""#)),
    ("request_metrics", Golden::Text(r#""Metrics""#)),
    ("request_shutdown", Golden::Text(r#""Shutdown""#)),
    (
        "response_suggestion",
        Golden::Text(
            r#"{"Suggestion":{"point":[0.25,-0.0,1e300,5e-324],"fallback":null,"provenance":"transferred"}}"#,
        ),
    ),
    (
        "response_suggestion_fallback",
        Golden::Text(
            r#"{"Suggestion":{"point":[],"fallback":"backend \"down\"\n","provenance":null}}"#,
        ),
    ),
    ("response_reported", Golden::Text(r#""Reported""#)),
    (
        "response_healthy",
        Golden::Text(r#"{"Healthy":{"draining":true,"protocol_version":4}}"#),
    ),
    (
        "response_metrics_report",
        Golden::Digest(704, 0xa651e3b0e17782ee),
    ),
    (
        "response_overloaded",
        Golden::Text(r#"{"Overloaded":{"inflight":64,"capacity":64}}"#),
    ),
    ("response_shutting_down", Golden::Text(r#""ShuttingDown""#)),
    (
        "response_error",
        Golden::Text(r#"{"Error":{"code":"malformed_frame","message":"bad \u0001 byte at é"}}"#),
    ),
];
const EVENT_GOLDEN: &[(&str, Golden)] = &[
    (
        "ApplicationStart",
        Golden::Text(r#"{"event":"ApplicationStart","app_id":"app-0","artifact_id":"artifact"}"#),
    ),
    (
        "ApplicationEnd",
        Golden::Text(r#"{"event":"ApplicationEnd","app_id":"app-0"}"#),
    ),
    ("jsonl", Golden::Digest(1311, 0x5204e750646b4a26)),
];
const TUNER_GOLDEN: &[(&str, Golden)] =
    &[("tuner_state", Golden::Digest(2120, 0x74ad86ae4c6b6e0e))];
const STATE_GOLDEN: &[(&str, Golden)] = &[
    (
        "snap-000000000000000a.snap",
        Golden::Digest(4893, 0x6dd27893c5bdedcb),
    ),
    (
        "wal-000000000000000a.log",
        Golden::Digest(5271, 0x7b372f6fee3f8b94),
    ),
];
const STRESS_GOLDEN: &[(&str, Golden)] = &[
    ("stress", Golden::Text("{\"floats\":[null,null,null,-0.0,0.0,5e-324,2.2250738585072e-308,1e300,-1.7976931348623157e308,0.1,1.0,123456789.0,1e16,1e-7],\"narrow\":[0.10000000149011612,3.4028234663852886e38,null,-1.5000059281518572e-40],\"ints\":[-128,-9223372036854775808,18446744073709551615,0],\"text\":[\"\",\"tab\\there \\\"quoted\\\" back\\\\slash /\",\"\\u0000\\u0001\\u0008\\u000c\\n\\r\\u001f\u{7f}\",\"é ß 日本語 \u{2028} 🦀\"],\"letter\":\"\\u001b\",\"missing\":null,\"present\":[0,65535],\"unit\":null,\"newtype\":-2.5,\"pair\":[-7,\"p\"],\"shapes\":[\"Empty\",{\"Wrapped\":null},{\"Wrapped\":9},{\"Pair\":[-1,0.5]},{\"Named\":{\"label\":\"n\\u0001\",\"weight\":null}}],\"tagged\":[{\"kind\":\"Bare\"},{\"kind\":\"Full\",\"id\":3,\"note\":\"x\"},{\"kind\":\"Full\",\"id\":0,\"note\":null}],\"by_pair\":[[[10,\"a\"],[-32768]],[[10,\"b\"],[1,-1]],[[9,\"a\"],[]]],\"by_int\":[[-3,true],[10,true],[9,false]],\"set\":[\"\\\"q\\\"\",\"alpha\",\"zeta\",\"Ω\"],\"nothing\":null}")),
    ("unit", Golden::Text("null")),
    ("empty_map", Golden::Text("[]")),
    ("none", Golden::Text("null")),
];
