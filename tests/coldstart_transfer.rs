//! End-to-end audit of the rockindex cold-start serving mode (tier 1):
//!
//! 1. **Zero-execution transfer + handoff** — a warm donor backend's state is
//!    harvested into a durable corpus, the corpus is killed and recovered,
//!    and a cold backend serves the donor's best point tagged `transferred`
//!    on its very first request; once a real report arrives, the handoff
//!    seeds the tuner (trust-discounted) and suggestions flip to `explored`.
//! 2. **Shard invariance** — the transferred answer is bit-identical across
//!    shard counts {1, 2, 8}, because it is a pure function of
//!    `(index, embedding)`.

use std::sync::Arc;

use optimizers::env::{Environment, QueryEnv};
use pipeline::{shard_of, AutotuneBackend, Corpus, KnnIndex, Provenance, Storage, TransferPolicy};
use sparksim::fault::FaultSpec;
use sparksim::noise::NoiseSpec;

const QUERY: usize = 6;
const SCALE_FACTOR: f64 = 5.0;

fn fresh_env(seed: u64) -> QueryEnv {
    QueryEnv::tpch(
        QUERY,
        SCALE_FACTOR,
        NoiseSpec {
            fluctuation: 0.1,
            spike: 0.05,
        },
        seed,
    )
}

/// One request through the backend: suggest, execute, report back.
fn drive(backend: &mut AutotuneBackend, env: &mut QueryEnv, seed: u64, t: usize) {
    let sig = env.signature();
    let ctx = env.context();
    let point = backend.suggest("prod", sig, &ctx);
    let conf = env.space().to_conf(&point);
    let app_id = format!("app-{t}");
    let run_seed = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(t as u64);
    let (_outcome, events) = env.sim.run_and_events(
        &app_id,
        "artifact-coldstart",
        sig,
        &env.plan,
        &conf,
        ctx.embedding.clone(),
        run_seed,
        &FaultSpec::none(),
    );
    backend.ingest("prod", &app_id, &events);
    let _ = env.run(&point);
}

/// Warm a donor backend over `warm` requests and return its harvest.
fn donor_harvest(donor_seed: u64, warm: usize) -> Vec<pipeline::CorpusEntry> {
    let mut env = fresh_env(donor_seed);
    let mut donor = AutotuneBackend::new(Arc::new(Storage::new()), None, donor_seed);
    for t in 0..warm {
        drive(&mut donor, &mut env, donor_seed, t);
    }
    let harvest = donor.harvest_corpus("prod");
    assert!(!harvest.is_empty(), "the donor learned nothing to harvest");
    harvest
}

#[test]
fn transfer_serves_the_donor_best_point_then_hands_off_to_the_tuner() {
    let harvest = donor_harvest(0xD0_0001, 10);
    let signature = fresh_env(0xC0_0001).signature();
    let donor_best = harvest
        .iter()
        .find(|e| e.signature == signature)
        .expect("the donor tuned the same recurring query")
        .best_point
        .clone();

    // The corpus lineage survives a kill: write, drop, recover from disk.
    let dir = std::env::temp_dir().join(format!("rockhopper-coldstart-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("corpus dir creates");
    {
        let (mut corpus, _) = Corpus::open(&dir).expect("corpus opens fresh");
        for entry in &harvest {
            corpus.upsert(entry.clone()).expect("corpus upserts");
        }
        corpus.sync().expect("corpus syncs");
    } // <- the "process" dies here; only the WAL + snapshots survive.
    let (corpus, recovery) = Corpus::open(&dir).expect("corpus recovers");
    assert_eq!(recovery.quarantined, 0, "clean lineage quarantined records");
    assert_eq!(corpus.len(), harvest.len(), "recovery lost entries");
    let index = Arc::new(KnnIndex::build(&corpus));

    // A cold backend with the recovered index: the first suggest is the
    // donor's best point, served with zero executions and no RNG draw.
    let mut env = fresh_env(0xC0_0001);
    let ctx = env.context();
    let mut backend = AutotuneBackend::new(Arc::new(Storage::new()), None, 0xC0_0001)
        .with_retrieval(Arc::clone(&index), TransferPolicy::default());
    let (point, provenance) = backend.suggest_tagged("prod", signature, &ctx);
    assert_eq!(provenance, Provenance::Transferred);
    assert_eq!(point, donor_best, "transfer must serve the donor's best");
    assert_eq!(backend.dashboard().counters().cold_hits, 1);

    // Still cold (no report yet): the transfer repeats bit-identically.
    let (again, provenance) = backend.suggest_tagged("prod", signature, &ctx);
    assert_eq!(
        (again, provenance),
        (point.clone(), Provenance::Transferred)
    );

    // A real report arrives: the handoff seeds the tuner with the
    // trust-discounted donor prior, and suggestions flip to `explored`.
    drive(&mut backend, &mut env, 0xC0_0001, 0);
    assert_eq!(backend.dashboard().counters().transfer_seeded, 1);
    let (_, provenance) = backend.suggest_tagged("prod", signature, &env.context());
    assert_eq!(
        provenance,
        Provenance::Explored,
        "a warm signature must never consult the index"
    );

    // Determinism across the recovery: an index built from the recovered
    // corpus serves the same bytes a pre-kill index would — both are pure
    // functions of the same entry set.
    let mut pre_kill = Corpus::in_memory();
    for entry in &harvest {
        pre_kill.upsert(entry.clone()).expect("in-memory upserts");
    }
    let pre_kill_index = KnnIndex::build(&pre_kill);
    let mut twin = AutotuneBackend::new(Arc::new(Storage::new()), None, 0xC0_0001)
        .with_retrieval(Arc::new(pre_kill_index), TransferPolicy::default());
    let (twin_point, twin_prov) = twin.suggest_tagged("prod", signature, &ctx);
    assert_eq!((twin_point, twin_prov), (point, Provenance::Transferred));

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn transferred_answers_are_bit_identical_across_shard_counts() {
    let harvest = donor_harvest(0xD0_0002, 8);
    let mut corpus = Corpus::in_memory();
    for entry in harvest {
        corpus.upsert(entry).expect("in-memory upserts");
    }
    let index = Arc::new(KnnIndex::build(&corpus));

    let env = fresh_env(0xC0_0002);
    let signature = env.signature();
    let ctx = env.context();

    let mut answers = Vec::new();
    for shards in [1usize, 2, 8] {
        let backend = AutotuneBackend::new(Arc::new(Storage::new()), None, 0xC0_0002)
            .with_retrieval(Arc::clone(&index), TransferPolicy::default());
        let mut split = backend.split_into_shards(shards, 0);
        let owner = shard_of(signature, shards);
        let (point, provenance) = split[owner].suggest_tagged("prod", signature, &ctx);
        assert_eq!(
            provenance,
            Provenance::Transferred,
            "{shards}-shard split lost the transfer"
        );
        answers.push(point);
    }
    assert_eq!(answers[0], answers[1], "1-shard vs 2-shard answers differ");
    assert_eq!(answers[0], answers[2], "1-shard vs 8-shard answers differ");
}
