#![forbid(unsafe_code)]

//! The Rockhopper offline/online pipeline (paper §4.2 and §5, Figure 7).
//!
//! - [`storage`] — the Autotune Backend's storage: per-application event folders,
//!   model files, the `app_cache`, capability tokens standing in for SAS URLs, and a
//!   Storage Manager retention sweep (GDPR cleanup).
//! - [`flighting`] — the offline experiment platform: execute open-source benchmark
//!   queries under sampled configurations and pools, emitting event logs.
//! - [`etl`] — the Embedding ETL streaming job: event logs → training rows.
//! - [`trainer`] — the ML training pipeline producing the per-region baseline model.
//! - [`service`] — the online phase: Autotune Client (config inference at query
//!   start) and Autotune Backend (model updates after completion) joined by
//!   crossbeam channels, mirroring the architecture in Figure 7.
//! - [`durability`] — the backend's durable-state layer: every state-mutating
//!   request is logged to a `rockdur` WAL before it is applied, with periodic
//!   compacted snapshots, so a crashed backend recovers bit-identically.
//! - [`sharding`] — the multi-tenant state engine: N signature-hash shards,
//!   each a full backend on its own worker thread with a split seed stream and
//!   a memory-bounded LRU over per-signature state (DESIGN.md §11).
//! - [`lru`] — the deterministic bounded LRU map the shards build on.
//! - [`memo`] — each shard's served-suggestion memo: its backend writes it,
//!   serving workers read hits from it, and durability persists it.
//!
//! Cold-start serving (DESIGN.md §12) plugs a `rockindex` retrieval index into
//! the backend: a cold Suggest with no tuner state consults the warm-signature
//! corpus and serves a transferred config tagged [`rockindex::Provenance`],
//! then hands off to the normal tuning loop when real reports arrive.

pub mod durability;
pub mod etl;
pub mod flighting;
pub mod lru;
pub mod memo;
pub mod monitor;
pub mod service;
pub mod sharding;
pub mod storage;
pub mod trainer;

pub use durability::{report_signatures, RecoveryReport};
pub use etl::TrainingRow;
pub use lru::LruMap;
pub use memo::{Served, SuggestMemo};
pub use monitor::DashboardCounters;
pub use rockindex::{Corpus, CorpusEntry, KnnIndex, Provenance, TransferPolicy};
pub use service::{AutotuneBackend, AutotuneClient, AutotuneService, SuggestFallback};
pub use sharding::{shard_of, ShardedAutotuneClient, ShardedAutotuneService};
pub use storage::{AccessToken, Storage};

/// Errors surfaced by the pipeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PipelineError {
    /// A storage access was attempted with a token lacking the required rights.
    AccessDenied {
        /// The path that was touched.
        path: String,
    },
    /// The requested object does not exist.
    NotFound {
        /// The missing path.
        path: String,
    },
    /// Not enough training rows to build a model.
    InsufficientData,
    /// The storage backend transiently refused the operation (injected fault or
    /// simulated outage); the caller may retry with backoff.
    Unavailable {
        /// The path that was touched.
        path: String,
    },
}

impl std::fmt::Display for PipelineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PipelineError::AccessDenied { path } => write!(f, "access denied: {path}"),
            PipelineError::NotFound { path } => write!(f, "not found: {path}"),
            PipelineError::InsufficientData => write!(f, "insufficient training data"),
            PipelineError::Unavailable { path } => write!(f, "transiently unavailable: {path}"),
        }
    }
}

impl std::error::Error for PipelineError {}
