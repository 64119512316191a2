//! Pipeline throughput: event-log serialization, ETL extraction, storage put/get,
//! tuner-state checkpointing and JSON rendering — the paths the backend exercises
//! per application — the k-NN lookup behind every cold-start Suggest, and the
//! rockserve wire codec for Suggest and Report frames.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::hint::black_box;

use pipeline::etl::extract_rows_from_jsonl;
use pipeline::storage::Storage;
use pipeline::{Corpus, CorpusEntry, KnnIndex};
use sparksim::config::SparkConf;
use sparksim::event::to_jsonl;
use sparksim::noise::NoiseSpec;
use sparksim::simulator::Simulator;

/// One application's event log: 20 query executions of TPC-H Q3.
fn sample_log() -> String {
    let sim = Simulator::default_pool(NoiseSpec::low());
    let plan = workloads::tpch::query(3, 1.0);
    let conf = SparkConf::default();
    let mut events = Vec::new();
    for i in 0..20 {
        let run = sim.execute(&plan, &conf, i);
        events.extend(sim.events_for_run("app", "art", 7, &plan, &conf, vec![1.0; 10], &run));
    }
    to_jsonl(&events)
}

fn bench_etl(c: &mut Criterion) {
    let log = sample_log();
    c.bench_function("etl_extract_20_runs", |b| {
        b.iter(|| extract_rows_from_jsonl(black_box(&log)))
    });
}

fn bench_storage(c: &mut Criterion) {
    let log = sample_log().into_bytes();
    let storage = Storage::new();
    let token = storage.issue_token("", true, u64::MAX);
    let mut i = 0u64;
    c.bench_function("storage_put_event_file", |b| {
        b.iter_batched(
            || {
                i += 1;
                format!("events/app-{i}/events.jsonl")
            },
            |path| storage.put(&token, &path, log.clone()).unwrap(),
            BatchSize::SmallInput,
        )
    });
    storage.put(&token, "events/hot/events.jsonl", log).unwrap();
    c.bench_function("storage_get_event_file", |b| {
        b.iter(|| {
            storage
                .get(&token, black_box("events/hot/events.jsonl"))
                .unwrap()
        })
    });
}

fn bench_checkpoint(c: &mut Criterion) {
    use optimizers::space::ConfigSpace;
    use optimizers::tuner::{Outcome, Tuner};
    use rockhopper::RockhopperTuner;

    let space = ConfigSpace::query_level();
    let mut tuner = RockhopperTuner::builder(space.clone()).seed(1).build();
    let ctx = optimizers::tuner::TuningContext {
        embedding: vec![0.0; 10],
        expected_data_size: 1e6,
        iteration: 0,
    };
    for i in 0..60 {
        let p = tuner.suggest(&ctx);
        tuner.observe(
            &p,
            &Outcome {
                elapsed_ms: 100.0 + (i % 9) as f64,
                data_size: 1e6,
                kind: optimizers::tuner::ObservationKind::Measured,
            },
        );
    }
    c.bench_function("tuner_snapshot_to_json_60_obs", |b| {
        b.iter(|| serde_json::to_vec(&tuner.snapshot()).unwrap())
    });
    let bytes = serde_json::to_vec(&tuner.snapshot()).unwrap();
    let doc = serde_json::from_slice::<serde_json::Value>(&bytes).unwrap();
    c.bench_function("json_render_snapshot_60_obs", |b| {
        b.iter(|| serde::text::render_compact(black_box(&doc)))
    });
    c.bench_function("tuner_restore_from_json", |b| {
        b.iter(|| {
            let state: rockhopper::tuner::TunerState =
                serde_json::from_slice(black_box(&bytes)).unwrap();
            RockhopperTuner::restore(space.clone(), state, None)
        })
    });
}

/// A seeded index over `n` signatures with 10-dim embeddings, the shape of
/// the cold-start retrieval corpus.
fn knn_index(n: u64) -> KnnIndex {
    let mut rng = StdRng::seed_from_u64(n);
    let mut corpus = Corpus::in_memory();
    for signature in 0..n {
        corpus
            .upsert(CorpusEntry {
                signature,
                embedding: (0..10).map(|_| rng.random_range(-1.0..1.0)).collect(),
                best_point: vec![0.5; 8],
                observations: 4,
                best_elapsed_ms: 100.0,
                mean_elapsed_ms: 120.0,
                data_size: 1.0,
            })
            .unwrap();
    }
    KnnIndex::build(&corpus)
}

fn bench_knn(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(7);
    let query: Vec<f64> = (0..10).map(|_| rng.random_range(-1.0..1.0)).collect();
    for (name, n) in [("knn_query_1k", 1_000), ("knn_query_10k", 10_000)] {
        let index = knn_index(n);
        c.bench_function(name, |b| b.iter(|| index.query(black_box(&query), 3)));
    }
}

fn bench_wire(c: &mut Criterion) {
    use optimizers::env::{Environment, QueryEnv};
    use rockserve::proto::{decode_request, encode_request, encode_response, Request, Response};

    let suggest = Request::Suggest {
        user: "tenant".into(),
        signature: 42,
        embedding: (0..10).map(|i| f64::from(i) * 0.1 - 0.35).collect(),
        expected_data_size: 1.5e9,
        iteration: 3,
    };
    let suggestion = Response::Suggestion {
        point: vec![0.3125, 0.6640625, 0.90234375],
        fallback: None,
        provenance: Some("explored".into()),
    };
    // A ~2.8 KB event log: one simulated TPC-H Q21 run.
    let env = QueryEnv::tpch(21, 0.1, NoiseSpec::none(), 1);
    let ctx = env.context();
    let conf = env
        .space()
        .to_conf(&env.space().denormalize(&[0.5, 0.5, 0.5]));
    let run = env.sim.execute(&env.plan, &conf, 0);
    let events = env.sim.events_for_run(
        "app-0",
        "artifact",
        42,
        &env.plan,
        &conf,
        ctx.embedding,
        &run,
    );
    let report = Request::Report {
        user: "tenant".into(),
        app_id: "app-0".into(),
        jsonl: to_jsonl(&events),
    };
    let suggest_bytes = encode_request(&suggest).unwrap();
    let report_bytes = encode_request(&report).unwrap();
    c.bench_function("wire_encode_suggestion", |b| {
        b.iter(|| encode_response(black_box(&suggestion)).unwrap())
    });
    c.bench_function("wire_decode_suggest", |b| {
        b.iter(|| decode_request(black_box(&suggest_bytes)).unwrap())
    });
    c.bench_function("wire_encode_report", |b| {
        b.iter(|| encode_request(black_box(&report)).unwrap())
    });
    c.bench_function("wire_decode_report", |b| {
        b.iter(|| decode_request(black_box(&report_bytes)).unwrap())
    });
}

criterion_group!(
    benches,
    bench_etl,
    bench_storage,
    bench_checkpoint,
    bench_knn,
    bench_wire
);
criterion_main!(benches);
