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
//! 5. **Connections** — each connection has its own thread, so idle clients
//!    cannot delay a new one; `max_conns` bounds how many are open; shutdown
//!    joins them all promptly even while clients hold their sockets open.
//! 6. **Hostile JSON** — 100,000 nested brackets and a 1 MB string each get
//!    an `Error` reply within 2 s, and the server keeps serving.
//! 7. **Frame budget** — many maximal frames at once are decoded only as
//!    far as `FRAME_BUDGET_BYTES` allows; the rest are skipped and answered
//!    `Overloaded`, and their connections keep working. Senders that stall
//!    mid-frame are closed at `FRAME_DEADLINE`, which gives their share of
//!    the budget back and bounds how long they can hold up a drain.

use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use optimizers::env::{Environment, QueryEnv};
use optimizers::tuner::TuningContext;
use pipeline::{AutotuneBackend, Provenance, Storage};
use rockserve::proto::{self, codes, Request, Response, FRAME_DEADLINE, MAX_PAYLOAD_BYTES};
use rockserve::server::FRAME_BUDGET_BYTES;
use rockserve::{ServeClient, ServeConfig, Server, WireError, PROTOCOL_VERSION};
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

    let server = spawn_server(ServeConfig::default());
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
        max_conns: 0,
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
    let server = spawn_server(ServeConfig::default());
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

/// A Health exchange on a fresh connection whose reply must arrive within
/// `limit`.
fn health_within(addr: SocketAddr, limit: Duration) -> Result<Response, WireError> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(limit))?;
    proto::write_frame(&mut stream, &proto::encode_request(&Request::Health)?)?;
    match proto::read_frame(&mut stream)? {
        Some(reply) => proto::decode_response(&reply),
        None => Err(WireError::Truncated {
            expected: proto::HEADER_BYTES,
            got: 0,
        }),
    }
}

/// `n` connections that never send a byte.
fn idle_connections(addr: SocketAddr, n: usize) -> Vec<TcpStream> {
    (0..n)
        .map(|_| TcpStream::connect(addr).expect("connects"))
        .collect()
}

#[test]
fn idle_connections_do_not_delay_a_new_client() {
    let server = spawn_server(ServeConfig::default());
    let addr = server.local_addr();
    // More idle connections than rockpool's 64-thread cap.
    let idle = idle_connections(addr, 65);
    assert!(matches!(
        health_within(addr, Duration::from_secs(1)),
        Ok(Response::Healthy {
            draining: false,
            ..
        })
    ));
    drop(idle);
    assert!(server.shutdown().iter().all(Option::is_some));
}

#[test]
fn open_connections_past_max_conns_are_shed_at_accept() {
    let server = spawn_server(ServeConfig {
        max_conns: 2,
        ..ServeConfig::default()
    });
    let addr = server.local_addr();
    let mut idle = idle_connections(addr, 2);
    // The acceptor takes connections in order, so both idle ones are open
    // by the time it sees this one.
    let mut third = TcpStream::connect(addr).expect("connects");
    third
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout set");
    let payload = proto::read_frame(&mut third)
        .expect("shed frame reads")
        .expect("shed frame present");
    match proto::decode_response(&payload).expect("shed frame decodes") {
        Response::Overloaded { inflight, capacity } => assert_eq!((inflight, capacity), (2, 2)),
        other => panic!("expected overloaded at the accept gate, got {other:?}"),
    }
    // Closing an idle connection frees its slot once its thread notices.
    // Until then a new connection is shed, and may be reset before its
    // Health frame is read.
    drop(idle.pop());
    let deadline = Instant::now() + Duration::from_secs(5);
    let served = loop {
        match health_within(addr, Duration::from_secs(1)) {
            Ok(Response::Overloaded { .. }) | Err(_) if Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(10));
            }
            other => break other,
        }
    };
    assert!(matches!(served, Ok(Response::Healthy { .. })), "{served:?}");
    drop(idle);
    assert!(server.shutdown().iter().all(Option::is_some));
}

#[test]
fn shutdown_with_idle_clients_returns_promptly_and_joins_every_thread() {
    let threads_before = os_thread_count();
    let server = spawn_server(ServeConfig::default());
    let addr = server.local_addr();
    let idle = idle_connections(addr, 65);
    // Answered only once every earlier connection has been admitted.
    assert!(matches!(
        health_within(addr, Duration::from_secs(1)),
        Ok(Response::Healthy { .. })
    ));
    let started = Instant::now();
    assert!(server.shutdown().iter().all(Option::is_some));
    let took = started.elapsed();
    assert!(
        took < Duration::from_secs(1),
        "shutdown took {took:?} with idle clients"
    );
    assert_eq!(
        os_thread_count(),
        threads_before,
        "a serving thread outlived shutdown"
    );
    drop(idle);
}

#[test]
fn hostile_json_frames_get_error_replies_and_leave_the_server_serving() {
    let server = spawn_server(ServeConfig::default());
    let addr = server.local_addr();
    let deep = vec![b'['; 100_000];
    let mut long_string = vec![b'a'; 1_048_000];
    long_string[0] = b'"';
    long_string[1_047_999] = b'"';
    for payload in [deep, long_string] {
        let started = Instant::now();
        let (code, _) = wire_error_reply(addr, |s| {
            proto::write_frame(s, &payload).expect("writes");
        });
        let took = started.elapsed();
        assert_eq!(code, codes::MALFORMED_FRAME);
        assert!(
            took < Duration::from_secs(2),
            "a {}-byte frame took {took:?}",
            payload.len()
        );
    }
    assert!(matches!(
        health_within(addr, Duration::from_secs(1)),
        Ok(Response::Healthy { .. })
    ));
    assert!(server.shutdown().iter().all(Option::is_some));
}

/// A maximal frame's payload: a JSON array of zeros, the shape that decodes
/// into the most values per byte. It is not a request, so a frame that gets
/// decoded is answered with a malformed-frame error.
fn max_size_array() -> Vec<u8> {
    let max = usize::try_from(MAX_PAYLOAD_BYTES).expect("fits");
    let mut payload = b"[0".to_vec();
    while payload.len() + 3 <= max {
        payload.extend_from_slice(b",0");
    }
    payload.push(b']');
    payload
}

/// Send `payload` as one frame on a fresh connection; returns the reply and
/// the connection, left open.
fn send_frame(addr: SocketAddr, payload: &[u8]) -> (Response, TcpStream) {
    let mut stream = TcpStream::connect(addr).expect("connects");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout set");
    proto::write_frame(&mut stream, payload).expect("writes");
    let reply = proto::read_frame(&mut stream)
        .expect("reply reads")
        .expect("reply present");
    (
        proto::decode_response(&reply).expect("reply decodes"),
        stream,
    )
}

/// `n` clients that each send `payload` at the same moment.
fn burst(addr: SocketAddr, payload: &Arc<Vec<u8>>, n: usize) -> Vec<(Response, TcpStream)> {
    let gate = Arc::new(std::sync::Barrier::new(n));
    let clients: Vec<_> = (0..n)
        .map(|_| {
            let (gate, payload) = (Arc::clone(&gate), Arc::clone(payload));
            std::thread::spawn(move || {
                gate.wait();
                send_frame(addr, &payload)
            })
        })
        .collect();
    clients
        .into_iter()
        .map(|c| c.join().expect("client thread"))
        .collect()
}

fn is_malformed(resp: &Response) -> bool {
    matches!(resp, Response::Error { code, .. } if code == codes::MALFORMED_FRAME)
}

#[test]
fn maximal_frames_past_the_frame_budget_are_shed_with_overloaded() {
    let server = spawn_server(ServeConfig::default());
    let addr = server.local_addr();
    let payload = Arc::new(max_size_array());

    // A burst of maximal frames: each is decoded or shed, and the server
    // stays up.
    for (resp, _) in burst(addr, &payload, 32) {
        assert!(
            is_malformed(&resp) || matches!(resp, Response::Overloaded { .. }),
            "{resp:?}"
        );
    }

    // Connections that announce a maximal frame, send one byte of it and
    // stall hold its share of the budget until they close or their frame
    // deadline passes. One arriving while a probe holds the budget is shed
    // instead, so add them until a probe finds the budget full.
    let mut stalled = Vec::new();
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        stalled.push(stall_mid_payload(addr));
        if !is_malformed(&send_frame(addr, &payload).0) {
            break;
        }
        assert!(Instant::now() < deadline, "the budget never filled");
    }
    let full = Response::Overloaded {
        inflight: FRAME_BUDGET_BYTES,
        capacity: FRAME_BUDGET_BYTES,
    };
    let shed = burst(addr, &payload, 32);
    for (resp, _) in &shed {
        assert_eq!(resp, &full);
    }

    // Closing the stalled connections gives the budget back.
    drop(stalled);
    let deadline = Instant::now() + Duration::from_secs(10);
    while !is_malformed(&send_frame(addr, &payload).0) {
        assert!(Instant::now() < deadline, "the budget was never released");
    }
    // The shed payloads were skipped, so their connections are still in step.
    for (_, mut stream) in shed {
        let health = proto::encode_request(&Request::Health).expect("encodes");
        proto::write_frame(&mut stream, &health).expect("writes");
        let reply = proto::read_frame(&mut stream)
            .expect("reply reads")
            .expect("reply present");
        assert!(matches!(
            proto::decode_response(&reply),
            Ok(Response::Healthy { .. })
        ));
    }
    assert!(matches!(
        health_within(addr, Duration::from_secs(1)),
        Ok(Response::Healthy { .. })
    ));
    assert!(server.shutdown().iter().all(Option::is_some));
}

/// A connection that announces a maximal frame, sends one byte of its
/// payload and stalls.
fn stall_mid_payload(addr: SocketAddr) -> TcpStream {
    let mut s = TcpStream::connect(addr).expect("connects");
    s.write_all(&MAX_PAYLOAD_BYTES.to_le_bytes())
        .expect("writes");
    s.write_all(&PROTOCOL_VERSION.to_le_bytes())
        .expect("writes");
    s.write_all(b"[").expect("writes");
    s
}

/// Four stalled senders that together hold the whole frame budget, and when
/// they connected.
fn fill_budget_with_stalled_senders(addr: SocketAddr) -> (Vec<TcpStream>, Instant) {
    let health = proto::encode_request(&Request::Health).expect("encodes");
    let full = Response::Overloaded {
        inflight: FRAME_BUDGET_BYTES,
        capacity: FRAME_BUDGET_BYTES,
    };
    for _ in 0..10 {
        let started = Instant::now();
        let stalled: Vec<TcpStream> = (0..4).map(|_| stall_mid_payload(addr)).collect();
        // Once the server has read all four headers, even a Health frame
        // finds the budget full.
        while started.elapsed() < FRAME_DEADLINE / 4 {
            if send_frame(addr, &health).0 == full {
                return (stalled, started);
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        // A header read while a probe held budget was shed; start over.
    }
    panic!("the stalled senders never filled the budget");
}

#[test]
fn stalled_senders_are_closed_at_the_frame_deadline_and_release_the_budget() {
    let server = spawn_server(ServeConfig::default());
    let addr = server.local_addr();
    let payload = max_size_array();
    let slack = Duration::from_secs(1);

    let (stalled, started) = fill_budget_with_stalled_senders(addr);
    // Each stalled sender gets a truncated-frame error, then EOF.
    for mut s in stalled {
        s.set_read_timeout(Some(FRAME_DEADLINE + slack))
            .expect("timeout set");
        let reply = proto::read_frame(&mut s)
            .expect("reply reads")
            .expect("reply present");
        assert!(
            matches!(proto::decode_response(&reply), Ok(Response::Error { code, .. }) if code == codes::TRUNCATED_FRAME)
        );
        assert!(matches!(proto::read_frame(&mut s), Ok(None)), "left open");
    }
    let took = started.elapsed();
    assert!(
        took >= FRAME_DEADLINE && took < FRAME_DEADLINE + slack,
        "stalled senders closed after {took:?}"
    );
    // Their budget came back: a maximal frame is decoded, not shed.
    assert!(is_malformed(&send_frame(addr, &payload).0));

    // A drain waits for stalled frames only until their deadline.
    let (stalled, _) = fill_budget_with_stalled_senders(addr);
    let draining = Instant::now();
    assert!(server.shutdown().iter().all(Option::is_some));
    let took = draining.elapsed();
    assert!(
        took < FRAME_DEADLINE + slack,
        "shutdown took {took:?} with stalled senders"
    );
    drop(stalled);
}
