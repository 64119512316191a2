//! Crash-recovery determinism gate (tier 1, ISSUE 8 acceptance).
//!
//! The claim under test: a rockserve endpoint with a durable state directory
//! can die at an arbitrary point in a seeded workload — including mid-append,
//! with a seed-salted torn tail chopped off its WAL — and the recovered
//! server continues the served-suggestion stream **bit-identically** to a
//! server that never died. The proof is the bench fleet's
//! `suggest_fingerprint`: an order-sensitive fold of every served point in
//! (lane, request) order, compared between one uninterrupted run and the
//! same schedule split across two server lifetimes.
//!
//! Three properties make the gate hold at any thread count (CI runs this
//! suite at `RH_THREADS=1` and `RH_THREADS=8`):
//!
//! 1. append-before-apply: the WAL records every state-mutating operation in
//!    backend order, and replay re-executes them through the normal code
//!    paths with checkpointed tuner RNG streams;
//! 2. replay-before-accept: each shard's suggestion memo is restored from
//!    the snapshot and updated by the replayed records before the server
//!    accepts, so a repeated suggest key is served from the same evaluation
//!    as before the crash;
//! 3. a torn tail can only lose a suffix of logged operations, and each
//!    lost suggest re-derives the identical point on the next request for
//!    its signature (the tuner state it would have mutated was lost with it).

use bench::serve::{run_crash_recovery_bench, run_serve_bench, ServeBenchConfig};

/// A self-cleaning state directory under the system temp dir.
struct StateDir(std::path::PathBuf);

impl StateDir {
    fn new(tag: &str) -> StateDir {
        let dir = std::env::temp_dir().join(format!(
            "rockhopper-recovery-gate-{}-{tag}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("state dir creates");
        StateDir(dir)
    }
}

impl Drop for StateDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Shared body: reference run vs split run, with or without fault injection.
/// The reference is always the *unsharded* uninterrupted run, so at
/// `shards > 1` this proves cross-shard-count fingerprint equality and
/// kill-and-recover continuity in one comparison (under a torn tail the
/// victim shard's lineage is seed-chosen; the others replay untouched logs).
fn assert_split_run_matches(seed: u64, shards: usize, tear_wal_tail: bool, tag: &str) {
    let cfg = ServeBenchConfig::quick(seed);
    let reference = run_serve_bench(&cfg).expect("uninterrupted run");
    assert_eq!(reference.protocol_errors, 0, "reference run must be clean");

    let dir = StateDir::new(tag);
    let split = cfg.requests_per_client / 2;
    let mut split_cfg = cfg;
    split_cfg.shards = shards;
    let crashed =
        run_crash_recovery_bench(&split_cfg, &dir.0, split, tear_wal_tail).expect("split run");

    assert_eq!(
        crashed.suggest_fingerprint, reference.suggest_fingerprint,
        "recovered server diverged from the uninterrupted unsharded run \
         (shards={shards}, tear_wal_tail={tear_wal_tail}): {crashed:?}"
    );
    assert_eq!(crashed.requests_total, reference.requests_total);
    assert_eq!(crashed.sent, reference.sent);
    assert_eq!(crashed.protocol_errors, 0, "split run spoke bad frames");
    assert!(crashed.clean_drain, "both lifetimes must drain cleanly");
    // Every suggest is either a backend evaluation or a memo hit — across
    // both lifetimes, including hits on the recovered memo.
    assert_eq!(
        crashed.backend_evals + crashed.coalesced_hits,
        crashed.sent.0,
        "suggest accounting broke across the restart: {crashed:?}"
    );
    // Durability was actually exercised, and the metrics frame surfaced it.
    assert!(
        crashed.wal_records_written > 0,
        "no WAL records written: {crashed:?}"
    );
    assert!(
        crashed.recovery_replayed > 0,
        "the drain syncs the WAL without snapshotting, so recovery must \
         have replayed at least one record: {crashed:?}"
    );
}

#[test]
fn clean_restart_continues_the_suggestion_stream_bit_identically() {
    assert_split_run_matches(0xD15C_0001, 1, false, "clean");
}

#[test]
fn torn_tail_crash_recovers_and_continues_bit_identically() {
    // Note: no assertion on the quarantine count — WAL record *order* is
    // arrival order (thread-timing dependent), so whether the seed-derived
    // chop lands mid-record or exactly on a boundary varies run to run.
    // The fingerprint, by contrast, must never move.
    assert_split_run_matches(0xD15C_0002, 1, true, "torn");
}

#[test]
fn sharded_clean_restart_matches_the_unsharded_stream() {
    assert_split_run_matches(0xD15C_0005, 2, false, "sharded-clean");
}

#[test]
fn sharded_torn_shard_recovers_and_matches_the_unsharded_stream() {
    // 8 shards, one seed-chosen victim lineage torn mid-append: the other
    // seven replay clean logs, the victim quarantines its torn suffix, and
    // the merged suggestion stream still equals the unsharded reference.
    assert_split_run_matches(0xD15C_0006, 8, true, "sharded-torn");
}

/// The backend-level entry points with the *default* snapshot cadence:
/// a crashed backend recovered via `recover_from` must continue the
/// suggestion stream exactly where an uninterrupted twin would.
#[test]
fn backend_default_cadence_recovery_continues_like_an_uninterrupted_twin() {
    use optimizers::tuner::TuningContext;
    use pipeline::{AutotuneBackend, Storage};
    use std::sync::Arc;

    let seed = 0xD15C_0004;
    let ctx = TuningContext {
        embedding: vec![0.25, 0.75],
        expected_data_size: 2.0,
        iteration: 0,
    };

    // Durable backend: attach, serve a prefix, crash without warning.
    let dir = StateDir::new("backend-default");
    let mut durable = AutotuneBackend::new(Arc::new(Storage::new()), None, seed);
    durable.persist_to(&dir.0).expect("attach durable state");
    for sig in 0..4u64 {
        durable.suggest("tenant", 9_000 + sig, &ctx);
    }
    durable.flush_durability().expect("fsync barrier");
    drop(durable); // the crash: no drain, no final snapshot

    // Witness: same seed, never persisted, never died.
    let mut witness = AutotuneBackend::new(Arc::new(Storage::new()), None, seed);
    for sig in 0..4u64 {
        witness.suggest("tenant", 9_000 + sig, &ctx);
    }

    // Recovery adopts the on-disk state (note the deliberately wrong seed —
    // the snapshot's seed wins) and the continuation streams must agree.
    let mut recovered = AutotuneBackend::new(Arc::new(Storage::new()), None, 1);
    let report = recovered
        .recover_from(&dir.0)
        .expect("recovery is not fatal");
    assert!(report.replayed > 0, "the WAL tail must replay: {report:?}");
    for sig in 0..4u64 {
        assert_eq!(
            recovered.suggest("tenant", 9_000 + sig, &ctx),
            witness.suggest("tenant", 9_000 + sig, &ctx),
            "recovered backend diverged from the uninterrupted twin at {sig}"
        );
    }
}

#[test]
fn recovery_counters_reach_the_wire_metrics_frame() {
    let cfg = ServeBenchConfig::quick(0xD15C_0003);
    let dir = StateDir::new("counters");
    let report = run_crash_recovery_bench(&cfg, &dir.0, cfg.requests_per_client / 2, false)
        .expect("split run");
    // Cadence 8 with a ~45-frame first phase: at least one compacted
    // snapshot must have been cut, and the report must carry it.
    assert!(
        report.snapshot_writes > 0,
        "no snapshot at cadence {}: {report:?}",
        bench::serve::CRASH_BENCH_SNAPSHOT_EVERY
    );
    assert_eq!(
        report.wal_records_quarantined, 0,
        "clean restart must quarantine nothing: {report:?}"
    );
}
