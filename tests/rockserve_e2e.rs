//! End-to-end audit of the rockserve serving layer (tier 1):
//!
//! 1. **Parity + coalescing** — 64 concurrent identical `Suggest` requests
//!    return bit-identical points to the in-process `AutotuneBackend` path at
//!    the same seed, share ONE backend evaluation (batch size 64 in the
//!    metrics), and the server drains with no OS-thread leak.
//! 2. **Admission control** — overload injection (zero-capacity gates) yields
//!    explicit `Overloaded` replies, never hangs.
//! 3. **Protocol rejection** — wrong-version, garbage, oversized, and
//!    truncated frames each get a typed `Error` reply with the right code.
//! 4. **Memo consistency** — a timed-out Suggest caches nothing, and a
//!    Report is applied before the reporting connection's next Suggest.

use std::io::Write;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use optimizers::env::{Environment, QueryEnv};
use optimizers::tuner::TuningContext;
use pipeline::{AutotuneBackend, Provenance, Storage};
use rockserve::proto::{self, codes, Request, Response, MAX_PAYLOAD_BYTES};
use rockserve::{ServeClient, ServeConfig, Server, WireError};
use sparksim::noise::NoiseSpec;

const SEED: u64 = 0xE2E;

fn ctx() -> TuningContext {
    TuningContext {
        embedding: vec![0.25, 0.75],
        expected_data_size: 2.0,
        iteration: 0,
    }
}

fn spawn_server(cfg: ServeConfig) -> Server {
    let backend = AutotuneBackend::new(Arc::new(Storage::new()), None, SEED);
    Server::spawn(backend, "127.0.0.1:0", cfg).expect("server binds an ephemeral port")
}

/// Live threads started by the calling test (Linux); `None` elsewhere. A
/// thread inherits the name of the thread that spawns it, and the test
/// harness names each test's thread after the test, so threads of tests
/// running concurrently are not counted.
fn os_thread_count() -> Option<usize> {
    let name = std::fs::read_to_string("/proc/thread-self/comm").ok()?;
    let tasks = std::fs::read_dir("/proc/self/task").ok()?;
    Some(
        tasks
            .flatten()
            .filter(|t| std::fs::read_to_string(t.path().join("comm")).is_ok_and(|c| c == name))
            .count(),
    )
}

#[test]
fn concurrent_suggests_match_the_in_process_path_and_share_one_evaluation() {
    let threads_before = os_thread_count();

    // The ground truth: what the backend itself answers at this seed.
    let mut direct = AutotuneBackend::new(Arc::new(Storage::new()), None, SEED);
    let expected = direct.suggest("tenant", 42, &ctx());
    assert!(!expected.is_empty());

    let server = spawn_server(ServeConfig {
        workers: 8,
        ..ServeConfig::default()
    });
    let addr = server.local_addr();

    // 64 concurrent clients, all asking the identical question.
    let points: Vec<Vec<f64>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..64)
            .map(|_| {
                scope.spawn(move || {
                    let mut client = ServeClient::connect(addr).expect("client connects");
                    match client.suggest("tenant", 42, &ctx()) {
                        Ok(Response::Suggestion {
                            point,
                            fallback,
                            provenance,
                        }) => {
                            assert!(fallback.is_none(), "degraded fallback: {fallback:?}");
                            assert_eq!(
                                rockindex::Provenance::from_wire(provenance.as_deref()),
                                rockindex::Provenance::Explored,
                                "no retrieval corpus is attached, so nothing can transfer"
                            );
                            point
                        }
                        other => panic!("expected a suggestion, got {other:?}"),
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client lane panicked"))
            .collect()
    });
    assert_eq!(points.len(), 64);
    for point in &points {
        assert_eq!(
            point, &expected,
            "served suggestion differs from the in-process backend at the same seed"
        );
    }

    // The metrics frame proves they shared one backend evaluation.
    let mut control = ServeClient::connect(addr).expect("control connects");
    match control.call(&Request::Health) {
        Ok(Response::Healthy {
            draining,
            protocol_version,
        }) => {
            assert!(!draining);
            assert_eq!(protocol_version, rockserve::PROTOCOL_VERSION);
        }
        other => panic!("expected healthy, got {other:?}"),
    }
    match control.metrics() {
        Ok(Response::MetricsReport { text, serving, .. }) => {
            assert_eq!(serving.suggests, 64);
            assert_eq!(serving.backend_evals, 1, "coalescing failed: {serving:?}");
            assert_eq!(serving.coalesced_hits, 63);
            assert_eq!(serving.batch_max, 64);
            assert!(serving.protocol_errors == 0 && serving.overloaded == 0);
            assert!(serving.p50_us <= serving.p95_us && serving.p95_us <= serving.p99_us);
            assert!(text.contains("rockserve_batch_max 64"), "{text}");
        }
        other => panic!("expected metrics, got {other:?}"),
    }

    // Drain over the wire; the handle returns the backend, and the OS agrees
    // every serving thread joined.
    match control.call(&Request::Shutdown) {
        Ok(Response::ShuttingDown) => {}
        other => panic!("expected shutdown ack, got {other:?}"),
    }
    let backends = server.join();
    assert_eq!(backends.len(), 1, "default config is a single shard");
    let backend = backends
        .into_iter()
        .next()
        .flatten()
        .expect("backend survives the drain");
    assert_eq!(
        backend.tuner_count(),
        1,
        "exactly one (user, signature) tuner"
    );
    if let (Some(before), Some(after)) = (threads_before, os_thread_count()) {
        assert!(
            after <= before,
            "thread leak: {before} OS threads before the server, {after} after the drain"
        );
    }
}

#[test]
fn zero_inflight_capacity_sheds_suggests_with_overloaded_not_hangs() {
    let server = spawn_server(ServeConfig {
        workers: 2,
        max_inflight_suggests: 0,
        ..ServeConfig::default()
    });
    let mut client = ServeClient::connect(server.local_addr()).expect("client connects");
    match client.suggest("tenant", 7, &ctx()) {
        Ok(Response::Overloaded { inflight, capacity }) => {
            assert_eq!((inflight, capacity), (0, 0));
        }
        other => panic!("expected an overloaded reply, got {other:?}"),
    }
    // Health still answers: the shed is per-request, not per-connection.
    assert!(matches!(
        client.health(),
        Ok(Response::Healthy {
            draining: false,
            ..
        })
    ));
    assert!(server.shutdown().iter().all(Option::is_some));
}

#[test]
fn zero_pending_capacity_sheds_at_the_accept_gate() {
    let server = spawn_server(ServeConfig {
        workers: 2,
        max_pending_conns: 0,
        ..ServeConfig::default()
    });
    // The acceptor answers Overloaded and closes without any request sent.
    let mut stream = TcpStream::connect(server.local_addr()).expect("connects");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout set");
    let payload = proto::read_frame(&mut stream)
        .expect("shed frame reads")
        .expect("shed frame present");
    match proto::decode_response(&payload).expect("shed frame decodes") {
        Response::Overloaded { capacity, .. } => assert_eq!(capacity, 0),
        other => panic!("expected overloaded at the accept gate, got {other:?}"),
    }
    assert!(server.shutdown().iter().all(Option::is_some));
}

/// Open a raw connection, run `write` against it, and return the decoded
/// error reply the server must answer with before closing.
fn wire_error_reply(
    addr: std::net::SocketAddr,
    write: impl FnOnce(&mut TcpStream),
) -> (String, String) {
    let mut stream = TcpStream::connect(addr).expect("connects");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout set");
    write(&mut stream);
    let payload = proto::read_frame(&mut stream)
        .expect("error reply reads")
        .expect("error reply present");
    match proto::decode_response(&payload).expect("error reply decodes") {
        Response::Error { code, message } => (code, message),
        other => panic!("expected an error reply, got {other:?}"),
    }
}

#[test]
fn bad_frames_get_typed_error_replies_not_hangs_or_panics() {
    let server = spawn_server(ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    });
    let addr = server.local_addr();

    // A frame speaking a foreign protocol version.
    let (code, message) = wire_error_reply(addr, |s| {
        proto::write_frame_versioned(s, 7, b"{}").expect("writes");
    });
    assert_eq!(code, codes::VERSION_MISMATCH);
    assert!(message.contains("v7"), "{message}");

    // A well-framed payload that is not a request.
    let (code, _) = wire_error_reply(addr, |s| {
        proto::write_frame(s, &[0x00, 0xFF, 0x13]).expect("writes");
    });
    assert_eq!(code, codes::MALFORMED_FRAME);

    // A length prefix past the bound (no payload follows — the header alone
    // must be rejected before any allocation).
    let (code, _) = wire_error_reply(addr, |s| {
        s.write_all(&(MAX_PAYLOAD_BYTES + 1).to_le_bytes())
            .expect("writes");
        s.write_all(&rockserve::PROTOCOL_VERSION.to_le_bytes())
            .expect("writes");
    });
    assert_eq!(code, codes::OVERSIZED_FRAME);

    // A connection that dies three bytes into the header.
    let (code, _) = wire_error_reply(addr, |s| {
        s.write_all(&[1, 0, 0]).expect("writes");
        s.shutdown(std::net::Shutdown::Write).expect("half-close");
    });
    assert_eq!(code, codes::TRUNCATED_FRAME);

    // Four protocol errors counted; the server is still fully serviceable.
    let mut client = ServeClient::connect(addr).expect("client connects");
    match client.metrics() {
        Ok(Response::MetricsReport { serving, .. }) => {
            assert_eq!(serving.protocol_errors, 4, "{serving:?}");
        }
        other => panic!("expected metrics, got {other:?}"),
    }
    assert!(matches!(
        client.suggest("tenant", 1, &ctx()),
        Ok(Response::Suggestion { .. })
    ));
    assert!(server.shutdown().iter().all(Option::is_some));
}

/// A served suggestion's point and provenance; panics on anything else,
/// fallbacks included.
fn tagged(reply: Result<Response, WireError>) -> (Vec<f64>, Provenance) {
    match reply {
        Ok(Response::Suggestion {
            point,
            fallback: None,
            provenance,
        }) => (point, Provenance::from_wire(provenance.as_deref())),
        other => panic!("expected a suggestion, got {other:?}"),
    }
}

#[test]
fn a_timed_out_suggest_caches_nothing_and_a_retry_gets_the_evaluated_point() {
    let server = spawn_server(ServeConfig {
        workers: 2,
        suggest_timeout: Duration::ZERO,
        ..ServeConfig::default()
    });
    let mut client = ServeClient::connect(server.local_addr()).expect("client connects");
    let mut ask = |signature: u64| match client.suggest("tenant", signature, &ctx()) {
        Ok(Response::Suggestion {
            point, fallback, ..
        }) => (point, fallback),
        other => panic!("expected a suggestion, got {other:?}"),
    };
    // A zero timeout almost always falls back on a key's first ask (the
    // shard cannot answer that fast); take the first key that did.
    let signature = (0..64u64)
        .find(|&sig| ask(sig).1.is_some())
        .expect("a zero timeout must fall back on some first ask");
    // The shard still evaluates that ask; once it has, a retry is answered
    // from its memo with the evaluated point.
    let answer = (0..500).find_map(|_| match ask(signature) {
        (point, None) => Some(point),
        (_, Some(_)) => {
            std::thread::sleep(Duration::from_millis(10));
            None
        }
    });
    let mut direct = AutotuneBackend::new(Arc::new(Storage::new()), None, SEED);
    assert_eq!(
        answer,
        Some(direct.suggest("tenant", signature, &ctx())),
        "the key stayed on the fallback"
    );
    assert!(server.shutdown().iter().all(Option::is_some));
}

#[test]
fn a_report_is_applied_before_the_next_suggest_on_its_connection() {
    let env = QueryEnv::tpch(6, 0.1, NoiseSpec::none(), 1);
    // The in-process reference: suggest, report a simulated run of that
    // point, suggest the same key again.
    let mut direct = AutotuneBackend::new(Arc::new(Storage::new()), None, SEED);
    let first = direct.suggest_tagged("tenant", 42, &ctx());
    let conf = env.space().to_conf(&first.0);
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
    let doc = sparksim::event::to_jsonl(&events);
    direct.ingest_jsonl("tenant", "app-0", &doc);
    let second = direct.suggest_tagged("tenant", 42, &ctx());
    assert_ne!(first.0, second.0, "the report must move the tuner");

    for shards in [1usize, 2] {
        let server = spawn_server(ServeConfig {
            workers: 2,
            shards,
            ..ServeConfig::default()
        });
        let mut client = ServeClient::connect(server.local_addr()).expect("client connects");
        assert_eq!(tagged(client.suggest("tenant", 42, &ctx())), first);
        assert!(matches!(
            client.report("tenant", "app-0", doc.clone()),
            Ok(Response::Reported)
        ));
        assert_eq!(
            tagged(client.suggest("tenant", 42, &ctx())),
            second,
            "{shards} shards: the second suggest saw the memo from before the report"
        );
        assert!(server.shutdown().iter().all(Option::is_some));
    }
}
