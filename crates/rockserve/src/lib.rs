//! rockserve — the networked serving layer in front of the autotune pipeline.
//!
//! A Rockhopper deployment serves suggestions to many Spark drivers at once;
//! this crate reproduces that edge as a std-only TCP subsystem:
//!
//! - [`proto`]: a length-prefixed, versioned JSON wire protocol
//!   (`Suggest` / `Report` / `Health` / `Metrics` / `Shutdown` frames) with
//!   explicit error replies for truncated, oversized, malformed, and
//!   wrong-version frames — never a panic, never a hang.
//! - [`server`]: a blocking acceptor with one thread per connection, which
//!   answers hits in each shard's suggestion memo itself; bounded admission
//!   gates that answer `Overloaded`; and a drain-then-shutdown lifecycle that
//!   joins every thread and hands the [`pipeline::AutotuneBackend`] back.
//! - [`metrics`]: request counters, batching gauges, and a log2 latency
//!   histogram, exported through the `Metrics` frame alongside the pipeline's
//!   `DashboardCounters` and rendered as a `/metrics`-style text page.
//! - [`client`]: a small blocking request/reply client used by the bench
//!   load generator and the e2e tests.
//!
//! This crate is the one sanctioned home for raw socket construction in the
//! workspace (rhlint RH019); everything else must go through [`ServeClient`].

#![forbid(unsafe_code)]

pub mod client;
pub mod metrics;
pub mod proto;
pub mod server;

pub use client::ServeClient;
pub use metrics::{MetricsSnapshot, ShardMetricsSnapshot};
pub use proto::{Request, Response, WireError, PROTOCOL_VERSION};
pub use server::{shard_state_dir, ServeConfig, Server};
