//! Pipeline throughput: event-log serialization, ETL extraction, storage put/get,
//! tuner-state checkpointing and JSON rendering — the paths the backend exercises
//! per application.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;

use pipeline::etl::extract_rows_from_jsonl;
use pipeline::storage::Storage;
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

criterion_group!(benches, bench_etl, bench_storage, bench_checkpoint);
criterion_main!(benches);
