//! rockindex — zero-execution retrieval for cold-start serving (DESIGN.md §12).
//!
//! A std-only retrieval subsystem in the spirit of zero-execution
//! retrieval-augmented configuration tuning (arXiv:2503.03826): instead of
//! paying full online exploration for a signature the fleet has never seen,
//! the backend looks the workload's embedding up in a **corpus** of already
//! tuned signatures and serves the nearest neighbor's best-observed config
//! with zero runs, then hands off to the normal CL/BO loop once real
//! observations arrive (Rover-style safe transfer, arXiv:2302.04046).
//!
//! Two cooperating pieces:
//!
//! * [`corpus`] — the persisted corpus: one [`corpus::CorpusEntry`] per warm
//!   signature (embedding, best-observed config, observation count, cost
//!   summary), harvested from backend state and durably logged through its
//!   own rockdur WAL/snapshot lineage so it survives restarts and rebuilds
//!   bit-identically.
//! * [`knn`] — a deterministic exact-scan k-NN index over L2-normalized
//!   corpus embeddings. A query scans the rows once and keeps its top `k`
//!   without sorting the corpus: descending cosine similarity
//!   (`f64::total_cmp`), ties to the smaller signature because rows are in
//!   ascending signature order. No RNG, no wall clock, no hash-ordered
//!   iteration — the same corpus and query always rank the same neighbors,
//!   on any shard, at any thread count.
//!
//! [`Provenance`] tags every served suggestion as `transferred` (corpus hit,
//! zero-execution) or `explored` (normal tuner draw) on the wire protocol
//! and in the serving metrics.

pub mod corpus;
pub mod knn;
pub mod provenance;

pub use corpus::{Corpus, CorpusEntry, CorpusRecovery, MAX_CORPUS_ENTRIES};
pub use knn::{KnnIndex, Neighbor, TransferPolicy};
pub use provenance::Provenance;
