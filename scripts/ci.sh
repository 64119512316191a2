#!/usr/bin/env bash
# Full CI pass, in the order that fails fastest:
#   formatting → static analysis (rhlint) → release build of every target →
#   tests (serial and 8-wide pools — DESIGN.md §7 says the results must be
#   identical) → the rhbench smoke suite → the parallel-scaling benchmark (BENCH_parallel.json is the uploadable
#   artifact) → serving load-gen smoke (BENCH_serve.json) → chaos smoke.
# Usage: scripts/ci.sh  (from anywhere inside the repo)
set -euo pipefail

cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> rhlint check (SARIF artifact: rhlint.sarif)"
# Write the SARIF artifact first so it exists even when violations fail the
# gate below. Exit 1 (violations) is tolerated here; exit 2 (engine error)
# still aborts — a linter that could not run must not produce an artifact.
cargo run -q -p rhlint -- check --format sarif > rhlint.sarif || [ $? -eq 1 ]
cargo run -q -p rhlint -- check

echo "==> cargo build --release (every target: libs, bins, tests, benches, examples)"
cargo build --release --workspace --all-targets

echo "==> cargo test (RH_THREADS=1)"
RH_THREADS=1 cargo test -q --workspace

echo "==> cargo test (RH_THREADS=8)"
RH_THREADS=8 cargo test -q --workspace

echo "==> rhbench smoke suite (the repository benchmark builds and runs)"
cargo test --release --offline --manifest-path rhbench/Cargo.toml

echo "==> parallel-scaling bench (BENCH_parallel.json)"
cargo run -q --release -p bench -- --quick

echo "==> serving load-gen smoke (BENCH_serve.json)"
cargo run -q --release -p bench --bin serve_loadgen -- --quick

echo "==> sharded serving smoke (4 shards → BENCH_serve_sharded.json)"
cargo run -q --release -p bench --bin serve_loadgen -- --quick --shards 4 \
  --out BENCH_serve_sharded.json

echo "==> cold-start retrieval smoke (prebuilt corpus → BENCH_serve_coldstart.json)"
cargo run -q --release -p bench --bin serve_loadgen -- --cold-start \
  --out BENCH_serve_coldstart.json

echo "==> chaos smoke (fault injection)"
cargo run -q --release -p experiments --bin exp_fault_injection -- --quick

echo "==> kill-and-recover smoke (durable serving state → recovery.log)"
scripts/kill_recover_smoke.sh

echo "==> sharded kill-and-recover smoke (4 shards → recovery-shards4.log)"
scripts/kill_recover_smoke.sh 4

echo "CI: all green"
