//! `cargo run -p rockserve -- [--addr HOST:PORT] [--seed N] [--state-dir DIR]
//! [--snapshot-every N] [--shards N] [--shard-capacity N] [--retrieval-dir DIR]`
//!
//! Binds a rockserve endpoint over a fresh autotune backend and serves until
//! a client sends a `Shutdown` frame, then drains and reports what the
//! backend accumulated. With `--state-dir` each shard recovers whatever
//! learned state survives in its directory before accepting a single
//! connection, and WAL-logs every mutation there from then on — kill the
//! process at any point and the next start replays to the exact same state.
//! `--shards` splits the backend into signature-hash shards (per-shard WAL
//! lineage under `shard-NNNN/`); `--shard-capacity` bounds each shard's
//! resident tuner LRU. `--retrieval-dir` opens a rockindex corpus lineage
//! and serves cold signatures by zero-execution transfer (DESIGN.md §12).

use std::process::ExitCode;
use std::sync::Arc;

use pipeline::{AutotuneBackend, Storage};
use rockserve::{ServeConfig, Server, PROTOCOL_VERSION};

fn main() -> ExitCode {
    let mut addr = String::from("127.0.0.1:7070");
    let mut seed = 42u64;
    let mut cfg = ServeConfig::default();
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        // Every flag takes exactly one value.
        let Some(v) = args.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        match flag.as_str() {
            "--addr" => addr = v,
            "--seed" => seed = v.parse().unwrap_or(42),
            "--state-dir" => cfg.state_dir = Some(v.into()),
            "--snapshot-every" => {
                cfg.snapshot_every = v
                    .parse()
                    .unwrap_or(pipeline::durability::DEFAULT_SNAPSHOT_EVERY);
            }
            "--shards" => cfg.shards = v.parse().unwrap_or(1),
            "--shard-capacity" => cfg.shard_capacity = v.parse().unwrap_or(0),
            "--retrieval-dir" => cfg.retrieval_dir = Some(v.into()),
            other => return usage(&format!("unknown flag {other}")),
        }
    }

    let backend = AutotuneBackend::new(Arc::new(Storage::new()), None, seed);
    let server = match Server::spawn(backend, &addr, cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("rockserve: cannot bind {addr}: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(r) = server.recovery_report() {
        println!(
            "rockserve recovered: {} record(s) replayed, {} quarantined, snapshot {}",
            r.replayed,
            r.quarantined,
            if r.restored_snapshot {
                "restored"
            } else {
                "absent"
            }
        );
    }
    println!(
        "rockserve listening on {} (protocol v{PROTOCOL_VERSION}, seed {seed}); \
         send a Shutdown frame to drain",
        server.local_addr()
    );
    let backends = server.join();
    let lost = backends.iter().filter(|b| b.is_none()).count();
    let tuners: usize = backends
        .iter()
        .flatten()
        .map(pipeline::AutotuneBackend::tuner_count)
        .sum();
    if lost == 0 {
        println!(
            "rockserve drained cleanly; {} shard(s) tracked {} tuner(s)",
            backends.len(),
            tuners
        );
        ExitCode::SUCCESS
    } else {
        eprintln!("rockserve: {lost} shard backend thread(s) lost");
        ExitCode::FAILURE
    }
}

fn usage(problem: &str) -> ExitCode {
    eprintln!("rockserve: {problem}");
    eprintln!(
        "usage: rockserve [--addr HOST:PORT] [--seed N] [--state-dir DIR] \
         [--snapshot-every N] [--shards N] [--shard-capacity N] [--retrieval-dir DIR]"
    );
    ExitCode::from(2)
}
