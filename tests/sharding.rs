//! Shard routing + bounded-memory invariants (tier 1, ISSUE 9):
//!
//! 1. **Routing purity** — `pipeline::shard_of` is a pure function of the
//!    signature: same signature ⇒ same shard across calls, shard widths are
//!    respected, and a pinned golden vector guards the hash/salt against
//!    accidental change (a silent change would reshuffle every deployment's
//!    `shard-NNNN/` WAL lineages).
//! 2. **Balance** — a seeded corpus of 10k random signatures spreads across
//!    2/4/8/16 shards within a deterministic [mean/2, 2·mean] bound.
//! 3. **Ordering** — per-signature request order survives the shard queues:
//!    concurrent clients on disjoint signatures get exactly the point
//!    sequences a serial unsharded backend produces, because each
//!    signature's requests flow through one shard worker in arrival order
//!    and tuner seed streams derive from `(root_seed, signature)`, never
//!    from shard membership or interleaving.
//! 4. **Bounded memory** — a per-shard LRU capacity below the working set
//!    evicts (counters prove it) yet never changes a served suggestion:
//!    evicted tuners restore bit-identically from their rockdur sidecars.

use std::sync::Arc;

use optimizers::tuner::TuningContext;
use pipeline::{shard_of, AutotuneBackend, ShardedAutotuneService, Storage};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use rockserve::proto::Response;
use rockserve::{ServeClient, ServeConfig, Server};

fn ctx(iteration: u32) -> TuningContext {
    TuningContext {
        embedding: vec![0.25, 0.75],
        expected_data_size: 2.0,
        iteration,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Same signature ⇒ same shard, every time, at every width; the result
    /// is always a valid shard index.
    #[test]
    fn routing_is_a_pure_function_of_signature(
        signature: u64,
        widths in prop::collection::vec(1usize..64, 1..8),
    ) {
        for shards in widths {
            let first = shard_of(signature, shards);
            prop_assert!(first < shards, "shard {first} out of range 0..{shards}");
            prop_assert_eq!(first, shard_of(signature, shards));
        }
    }

    /// Degenerate widths collapse to shard 0 instead of dividing by zero.
    #[test]
    fn zero_and_one_wide_routing_is_always_shard_zero(signature: u64) {
        prop_assert_eq!(shard_of(signature, 0), 0);
        prop_assert_eq!(shard_of(signature, 1), 0);
    }
}

/// Golden routing vector: these values are part of the on-disk contract.
/// A restarted (or rebuilt) server must map every signature to the same
/// `shard-NNNN/` directory it logged to before, or recovery silently loses
/// per-signature state.
#[test]
fn routing_is_pinned_across_restarts_and_releases() {
    let golden: [(u64, [usize; 4]); 6] = [
        (0, [1, 1, 1, 49]),
        (1, [0, 4, 4, 52]),
        (42, [1, 5, 5, 37]),
        (0xC0FFEE, [0, 2, 10, 58]),
        (1_000_000, [1, 3, 11, 27]),
        (u64::MAX, [1, 7, 15, 15]),
    ];
    for (signature, expected) in golden {
        for (width, want) in [2usize, 8, 16, 64].into_iter().zip(expected) {
            assert_eq!(
                shard_of(signature, width),
                want,
                "shard_of({signature}, {width}) moved — the routing hash or \
                 salt changed, which orphans existing shard directories"
            );
        }
    }
}

/// 10k seeded random signatures spread across the shards within a
/// deterministic balance bound: every shard holds between half and twice
/// the mean. (SplitMix64 mixes far better than this; the loose bound keeps
/// the gate meaningful without chasing binomial tails.)
#[test]
fn ten_thousand_signatures_spread_within_the_balance_bound() {
    let mut rng = StdRng::seed_from_u64(0x5A17);
    let signatures: Vec<u64> = (0..10_000).map(|_| rng.random_range(0..u64::MAX)).collect();
    for shards in [2usize, 4, 8, 16] {
        let mut counts = vec![0u64; shards];
        for &sig in &signatures {
            if let Some(c) = counts.get_mut(shard_of(sig, shards)) {
                *c += 1;
            }
        }
        let mean = 10_000u64 / shards as u64;
        for (i, &count) in counts.iter().enumerate() {
            assert!(
                count >= mean / 2 && count <= mean * 2,
                "shard {i}/{shards} holds {count} of 10000 signatures \
                 (mean {mean}): routing is unbalanced"
            );
        }
    }
}

/// Concurrent clients on disjoint signatures, served by a 4-shard server,
/// must see exactly the per-signature point sequences a serial unsharded
/// backend produces at the same seed. Any reordering inside a shard queue
/// would evolve the per-signature tuner state differently and change the
/// points; any seed dependence on shard membership would shift whole
/// streams. Each request carries a distinct iteration so nothing coalesces.
#[test]
fn per_signature_order_is_preserved_under_concurrent_clients() {
    const SEED: u64 = 0x04D3;
    const LANES: usize = 8;
    const ITERS: u32 = 5;

    let backend = AutotuneBackend::new(Arc::new(Storage::new()), None, SEED);
    let server = Server::spawn(
        backend,
        "127.0.0.1:0",
        ServeConfig {
            shards: 4,
            ..ServeConfig::default()
        },
    )
    .expect("server binds an ephemeral port");
    let addr = server.local_addr();

    let served: Vec<Vec<Vec<f64>>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..LANES)
            .map(|lane| {
                scope.spawn(move || {
                    let mut client = ServeClient::connect(addr).expect("client connects");
                    let signature = 0xC0FFEE + lane as u64;
                    (0..ITERS)
                        .map(|i| match client.suggest("tenant", signature, &ctx(i)) {
                            Ok(Response::Suggestion { point, .. }) => point,
                            other => {
                                panic!("lane {lane} iter {i}: expected a point, got {other:?}")
                            }
                        })
                        .collect()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client lane panicked"))
            .collect()
    });
    assert!(server.shutdown().iter().all(Option::is_some));

    // The serial, unsharded ground truth at the same seed.
    let mut witness = AutotuneBackend::new(Arc::new(Storage::new()), None, SEED);
    for (lane, points) in served.iter().enumerate() {
        let signature = 0xC0FFEE + lane as u64;
        for (i, served_point) in points.iter().enumerate() {
            let expected = witness.suggest("tenant", signature, &ctx(i as u32));
            assert_eq!(
                served_point, &expected,
                "signature {signature} diverged at request {i}: per-signature \
                 order or seed derivation broke under sharding"
            );
        }
    }
}

/// In-process sharded fan-out (no TCP in the way): `spawn_split` splits one
/// backend into 4 shard services, and the sharded client routes every
/// suggestion to its owning shard — matching a serial unsharded witness
/// point-for-point, because tuner streams derive from `(root_seed,
/// signature)` alone.
#[test]
fn spawn_split_fans_out_and_matches_the_unsharded_witness() {
    use std::time::Duration;
    const SEED: u64 = 0x5B11;

    let backend = AutotuneBackend::new(Arc::new(Storage::new()), None, SEED);
    let (service, client) = ShardedAutotuneService::spawn_split(backend, 4, 0);
    assert_eq!(service.shards(), 4);
    assert_eq!(client.shards(), 4);

    let mut witness = AutotuneBackend::new(Arc::new(Storage::new()), None, SEED);
    for iteration in 0..3u32 {
        for sig in [0u64, 1, 42, 0xC0FFEE, u64::MAX] {
            let got = client
                .suggest("tenant", sig, &ctx(iteration), Duration::from_secs(10))
                .expect("the owning shard answers");
            assert_eq!(
                got,
                witness.suggest("tenant", sig, &ctx(iteration)),
                "signature {sig} iteration {iteration} diverged through the \
                 sharded client"
            );
        }
    }

    let backends = service.shutdown();
    assert_eq!(backends.len(), 4);
    assert!(backends.iter().all(Option::is_some), "a shard thread died");
}

/// The memory bound must not buy determinism away: a durable backend capped
/// at 2 resident tuners, churned across 5 signatures for 3 rounds, serves
/// every suggestion bit-identically to an unbounded twin — because each
/// eviction checkpoints the tuner to a rockdur sidecar and the next touch
/// restores it exactly. The counters prove evictions and restores happened.
#[test]
fn evicted_signatures_recover_their_state_bit_identically_via_rockdur() {
    const SEED: u64 = 0xE71C;
    let dir = std::env::temp_dir().join(format!("rockhopper-shard-lru-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("state dir creates");

    let mut capped =
        AutotuneBackend::new(Arc::new(Storage::new()), None, SEED).with_tuner_capacity(2);
    assert_eq!(capped.tuner_capacity(), 2, "the builder must set the bound");
    capped.persist_to(&dir).expect("durability attaches");
    let mut unbounded = AutotuneBackend::new(Arc::new(Storage::new()), None, SEED);

    for round in 0..3u32 {
        for sig in 0..5u64 {
            let got = capped.suggest("tenant", sig, &ctx(round));
            let want = unbounded.suggest("tenant", sig, &ctx(round));
            assert_eq!(
                got, want,
                "signature {sig} round {round}: suggestion changed after \
                 eviction — sidecar restore is not bit-exact"
            );
            assert!(
                capped.tuner_count() <= 2,
                "capacity exceeded: {} resident tuners",
                capped.tuner_count()
            );
        }
    }

    assert!(
        capped.tuner_evictions() > 0,
        "5 signatures through a 2-slot LRU must evict"
    );
    let counters = capped.dashboard().counters();
    assert_eq!(
        counters.tuner_evictions,
        capped.tuner_evictions(),
        "dashboard eviction counter disagrees with the map's"
    );
    assert!(
        counters.evicted_restored > 0,
        "rounds 2+ re-touch evicted signatures, so sidecar restores must \
         be counted: {counters:?}"
    );
    assert_eq!(unbounded.tuner_evictions(), 0, "the twin must not evict");

    let _ = std::fs::remove_dir_all(&dir);
}

/// The serve-bench fingerprint is invariant to the shard count *and* to a
/// capacity bound far below the working set (8 shards × 2 slots under a
/// 4-signature suggest band + report band churn): sharding and eviction are
/// operational choices, not semantic ones.
#[test]
fn serve_fingerprint_is_invariant_to_shards_and_capacity() {
    use bench::serve::{run_serve_bench, ServeBenchConfig};

    let base_cfg = ServeBenchConfig::quick(0x5AFE);
    let base = run_serve_bench(&base_cfg).expect("unsharded bench runs");
    assert_eq!(base.protocol_errors, 0);

    for (shards, capacity) in [(2usize, 0usize), (8, 0), (8, 2)] {
        let mut cfg = base_cfg;
        cfg.shards = shards;
        cfg.shard_capacity = capacity;
        let run = run_serve_bench(&cfg).expect("sharded bench runs");
        assert_eq!(run.protocol_errors, 0);
        assert!(run.clean_drain);
        assert_eq!(
            run.suggest_fingerprint, base.suggest_fingerprint,
            "fingerprint moved at shards={shards} capacity={capacity}"
        );
        assert_eq!(run.per_shard.len(), shards, "per-shard metrics missing");
        let shard_suggests: u64 = run.per_shard.iter().map(|s| s.suggests).sum();
        assert_eq!(
            shard_suggests, run.sent.0,
            "per-shard suggest counters must partition the total"
        );
    }
}
