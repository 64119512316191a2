//! Pool-era shutdown audit for `pipeline::service`: the backend worker thread
//! must *join* — never detach — however the service handle goes away, even
//! with a queue full of in-flight work. A detached worker would outlive the
//! test (or the process's teardown), so the checks below pin down both the
//! observable channel state and the OS thread count.

use std::sync::Arc;
use std::time::Duration;

use optimizers::tuner::TuningContext;
use pipeline::{AutotuneBackend, AutotuneService, Storage, SuggestFallback};

fn ctx() -> TuningContext {
    TuningContext {
        embedding: vec![0.5],
        expected_data_size: 1.0,
        iteration: 0,
    }
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
fn shutdown_under_load_drains_and_joins() {
    let (service, client) =
        AutotuneService::spawn(AutotuneBackend::new(Arc::new(Storage::new()), None, 11));
    // Pile work into the queue faster than the backend can serve it: a
    // zero-timeout suggest enqueues the request and returns immediately
    // (usually `TimedOut`), but the backend still processes it and creates
    // the tuner. The shutdown message lands behind all 40, so a joining
    // shutdown must drain everything first.
    for sig in 0..40u64 {
        let _ = client.suggest("load", sig, &ctx(), Duration::from_millis(0));
        client.update_app_cache("load", &format!("artifact-{sig}"), vec![sig], 1.0);
    }
    let backend = service.shutdown().expect("backend thread joins cleanly");
    assert_eq!(backend.tuner_count(), 40, "queued work was dropped");
    // The worker is gone: the channel reports disconnected, not a timeout.
    assert_eq!(
        client.suggest("load", 0, &ctx(), Duration::from_secs(5)),
        Err(SuggestFallback::BackendDown)
    );
}

#[test]
fn dropping_the_service_joins_instead_of_detaching() {
    let before = os_thread_count();
    let clients: Vec<_> = (0..8)
        .map(|i| {
            let (service, client) =
                AutotuneService::spawn(AutotuneBackend::new(Arc::new(Storage::new()), None, i));
            // Load the queue, then drop the handle without calling shutdown():
            // the Drop impl must send Shutdown and join, not leak the worker.
            for sig in 0..10u64 {
                let _ = client.suggest("drop", sig, &ctx(), Duration::from_millis(0));
                client.ingest("drop", &format!("app-{sig}"), Vec::new());
            }
            drop(service);
            client
        })
        .collect();
    // Every backend thread has exited: its receiver is dropped, so clients see
    // a disconnected channel immediately (a detached-but-alive worker would
    // have answered, and a wedged one would time out instead).
    for client in &clients {
        assert_eq!(
            client.suggest("drop", 0, &ctx(), Duration::from_secs(5)),
            Err(SuggestFallback::BackendDown)
        );
    }
    // And the OS agrees nothing leaked (Linux-only observability; the channel
    // check above already proves the join on other platforms).
    if let (Some(before), Some(after)) = (before, os_thread_count()) {
        assert!(
            after <= before,
            "thread leak: {before} OS threads before, {after} after"
        );
    }
}
