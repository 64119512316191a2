#![forbid(unsafe_code)]

//! A discrete Apache Spark cluster simulator.
//!
//! The Rockhopper paper tunes real Spark on Microsoft Fabric; no Spark exists in this
//! environment, so this crate rebuilds the *mechanisms* through which the paper's seven
//! tuned configurations influence query runtime:
//!
//! - **Physical planning** ([`physical`]): joins flip between broadcast-hash and
//!   sort-merge at `spark.sql.autoBroadcastJoinThreshold`; exchanges are inserted at
//!   shuffle boundaries and the plan is cut into stages.
//! - **Task parallelism** ([`scheduler`]): scan stages get
//!   `ceil(input_bytes / maxPartitionBytes)` tasks, shuffle stages get
//!   `spark.sql.shuffle.partitions` tasks, and tasks run in waves over
//!   `executor.instances × cores` slots with per-task overhead and a skewed last wave.
//! - **Memory pressure** ([`memory`]): each task's working set competes for
//!   `executor.memory` (plus off-heap when enabled); overflow spills to disk with a
//!   realistic penalty. This creates the cliff that makes too-few partitions slow.
//! - **Noise** ([`noise`]): the paper's Eq (8) — Gaussian fluctuation plus 2×
//!   performance spikes — applied to the deterministic "true" runtime.
//!
//! The result is a response surface that is convex-ish per knob with query-dependent
//! optima (paper Figure 1), which is all an optimizer can observe of real Spark.
//!
//! ```
//! use sparksim::config::SparkConf;
//! use sparksim::noise::NoiseSpec;
//! use sparksim::plan::PlanNode;
//! use sparksim::simulator::Simulator;
//!
//! let plan = PlanNode::scan("lineitem", 6_000_000.0, 100.0)
//!     .filter(0.1)
//!     .hash_aggregate(0.01);
//! let sim = Simulator::default_pool(NoiseSpec::none());
//! let run = sim.execute(&plan, &SparkConf::default(), 42);
//! assert!(run.metrics.elapsed_ms > 0.0);
//! ```

pub mod app;
pub mod cluster;
pub mod config;
pub mod cost;
pub mod event;
pub mod fault;
pub mod memory;
pub mod metrics;
pub mod noise;
pub mod physical;
pub mod plan;
pub mod scheduler;
pub mod simulator;

pub use cluster::ClusterSpec;
pub use config::SparkConf;
pub use fault::{FailureReason, FaultSpec, RunOutcome};
pub use metrics::QueryMetrics;
pub use noise::NoiseSpec;
pub use plan::PlanNode;
pub use simulator::{QueryRun, Simulator};

/// Errors from configuration validation and planning.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// A configuration value was outside its legal range.
    InvalidConf {
        /// The offending knob.
        knob: &'static str,
        /// The rejected value.
        value: f64,
        /// Human-readable constraint.
        constraint: &'static str,
    },
    /// The plan was structurally invalid (e.g. a join without two children).
    InvalidPlan(String),
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::InvalidConf {
                knob,
                value,
                constraint,
            } => write!(f, "invalid {knob} = {value}: {constraint}"),
            SimError::InvalidPlan(msg) => write!(f, "invalid plan: {msg}"),
        }
    }
}

impl std::error::Error for SimError {}
