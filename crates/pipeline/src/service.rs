//! The online phase (§5, Figure 7): Autotune Clients on Spark clusters talk to the
//! Autotune Backend, which owns storage, per-signature tuners, and the `app_cache`.
//!
//! The backend's logic lives in [`AutotuneBackend`] (synchronous, directly testable);
//! [`AutotuneService::spawn`] runs it on a dedicated thread behind crossbeam channels
//! — the reproduction of the client/backend split — with [`AutotuneClient`] as the
//! cluster-side handle (the model loader / query listener pair).

use std::collections::{BTreeMap, HashMap};
use std::io;
use std::path::Path;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};

use optimizers::space::ConfigSpace;
use optimizers::tuner::{Outcome, Tuner, TuningContext};
use rockhopper::applevel::{AppCache, AppCacheEntry, AppLevelOptimizer, QueryState};
use rockhopper::baseline::BaselineModel;
use rockhopper::RockhopperTuner;
use rockindex::{CorpusEntry, KnnIndex, Provenance, TransferPolicy};
use sparksim::event::SparkEvent;

use crate::durability::{
    self, BackendSnapshot, DegradedEntry, Durability, EmbeddingEntry, RecoveryReport, TunerEntry,
    WalEvent,
};
use crate::etl::{extract_batch, EtlBatch};
use crate::lru::LruMap;
use crate::memo::{Served, SuggestMemo};
use crate::monitor::{Dashboard, DashboardCounters};
use crate::storage::{paths, Storage};
use crate::PipelineError;

/// Penalty cost recorded for a failed run when the signature has no measured
/// history yet to scale from (10 minutes).
const DEFAULT_FAILURE_PENALTY_MS: f64 = 600_000.0;

/// Maximum attempts when persisting an event file through a flaky store.
const INGEST_MAX_ATTEMPTS: u32 = 4;

/// Per-signature failure bookkeeping behind degraded mode: after
/// `degrade_after` consecutive failed runs the backend stops tuning the
/// signature and serves the default configuration, probing the tuner again
/// every `probe_period`-th suggestion until a run completes.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct DegradedState {
    degraded: bool,
    suggests_while_degraded: u32,
}

/// Hard caps on the backend's per-(user, signature) maps. The backend lives
/// for the whole serving process, so every keyed map needs an eviction bound
/// or an adversarial (or merely huge) workload grows it without limit. At the
/// cap the smallest key is evicted — deterministic regardless of hash order,
/// and an evicted tuner warm-starts again from the baseline on its next
/// appearance. Production deployments in the paper track ~416 signatures;
/// the caps are far above both that and every bench/test workload.
///
/// The tuner map is the exception to smallest-key eviction: it is a true
/// [`LruMap`] (recency-ordered, capacity-configurable per shard via
/// [`AutotuneBackend::with_tuner_capacity`]), and under durability an evicted
/// tuner spills a sidecar checkpoint it is restored from bit-identically on
/// its next touch (DESIGN.md §11).
const MAX_TRACKED_TUNERS: usize = 4096;
const MAX_TRACKED_EMBEDDINGS: usize = 8192;
const MAX_TRACKED_DEGRADED: usize = 8192;

/// The backend: storage, per-(user, signature) tuners, baseline model, app cache.
pub struct AutotuneBackend {
    storage: Arc<Storage>,
    space: ConfigSpace,
    /// Query-level baseline (warm start for new signatures).
    baseline: Option<BaselineModel>,
    /// Memory-bounded per-(user, signature) tuner state; LRU-evicted at
    /// capacity, with evictions spilled to durable sidecars when attached.
    tuners: LruMap<(String, u64), RockhopperTuner>,
    /// Latest embedding seen per signature (context for app-cache scoring).
    embeddings: BTreeMap<u64, Vec<f64>>,
    app_cache: AppCache,
    app_optimizer: AppLevelOptimizer,
    /// The §6.3 monitoring dashboard, fed by every ingested event file.
    dashboard: Dashboard,
    /// Guardrail policy applied to newly created tuners.
    guardrail_policy: Option<rockhopper::Guardrail>,
    /// Per-(user, signature) failure streaks and degraded-mode flags.
    degraded: BTreeMap<(String, u64), DegradedState>,
    /// Consecutive failed runs that flip a signature into degraded mode.
    degrade_after: u32,
    /// In degraded mode, every `probe_period`-th suggestion probes the tuner.
    probe_period: u32,
    /// Event-file writes that had to be retried against a flaky store.
    ingest_retries: u64,
    /// Durable-state handle (WAL + snapshot cadence); `None` = in-memory only.
    durability: Option<Durability>,
    /// Suggestions served and not yet invalidated by a report (DESIGN.md
    /// §10). This backend is its only writer; serving workers read hits
    /// through [`AutotuneClient::memo_hit`].
    memo: SuggestMemo,
    /// Zero-execution retrieval (DESIGN.md §12): a shared k-NN index over
    /// the transfer corpus plus the policy gating transfers. `None` =
    /// retrieval off (every cold suggest explores). Shared by `Arc` across
    /// shards so all shards rank against the identical corpus.
    retrieval: Option<(Arc<KnnIndex>, TransferPolicy)>,
    seed: u64,
    /// This backend's shard identity: `(shard_id, shard_count)` — `(0, 1)`
    /// for an unsharded deployment. Stamped into snapshots so recovery
    /// refuses state written under a different shard layout.
    shard_id: u64,
    shard_count: u64,
}

impl AutotuneBackend {
    /// Create a backend over shared storage with an optional baseline model.
    pub fn new(storage: Arc<Storage>, baseline: Option<BaselineModel>, seed: u64) -> Self {
        AutotuneBackend {
            storage,
            space: ConfigSpace::query_level(),
            baseline,
            tuners: LruMap::new(MAX_TRACKED_TUNERS),
            embeddings: BTreeMap::new(),
            app_cache: AppCache::new(),
            app_optimizer: AppLevelOptimizer::default(),
            dashboard: Dashboard::new(),
            guardrail_policy: Some(rockhopper::Guardrail::default()),
            degraded: BTreeMap::new(),
            degrade_after: 3,
            probe_period: 4,
            ingest_retries: 0,
            durability: None,
            memo: SuggestMemo::default(),
            retrieval: None,
            seed,
            shard_id: 0,
            shard_count: 1,
        }
    }

    /// Attach a retrieval index for zero-execution cold starts: a cold
    /// Suggest (no resident tuner, no evicted sidecar) with a close-enough
    /// corpus neighbor serves the neighbor's best-observed config verbatim,
    /// tagged [`Provenance::Transferred`], and the signature's tuner is
    /// warm-started with a trust-discounted prior on its first real report.
    ///
    /// Attach **before** [`AutotuneBackend::recover_from`]: replayed
    /// suggestions must consult the same index the live run did to re-derive
    /// the same points.
    pub fn with_retrieval(mut self, index: Arc<KnnIndex>, policy: TransferPolicy) -> Self {
        self.retrieval = Some((index, policy));
        self
    }

    /// The attached retrieval index and policy, if any.
    pub fn retrieval(&self) -> Option<(&Arc<KnnIndex>, &TransferPolicy)> {
        self.retrieval.as_ref().map(|(i, p)| (i, p))
    }

    /// Bound the tuner map to `capacity` live entries (floored at 1; `0`
    /// keeps the default cap). Evictions beyond the bound are counted on the
    /// dashboard and — under durability — spilled to sidecar checkpoints.
    pub fn with_tuner_capacity(mut self, capacity: usize) -> Self {
        let capacity = if capacity == 0 {
            MAX_TRACKED_TUNERS
        } else {
            capacity
        };
        // Migrate existing entries in recency order (least-recent first), so
        // shrinking the bound silently drops the coldest tuners.
        let mut old = std::mem::replace(&mut self.tuners, LruMap::new(capacity));
        let keys: Vec<(String, u64)> = old.keys_by_recency().cloned().collect();
        for key in keys {
            if let Some(tuner) = old.remove(&key) {
                self.tuners.insert(key, tuner);
            }
        }
        self
    }

    /// Stamp this backend as shard `shard_id` of `shard_count`. Shard
    /// identity gates recovery (a snapshot from a different layout is
    /// quarantined) but never the tuner streams themselves — those derive
    /// from `(root seed, signature)` alone, so the same signature computes
    /// the same suggestions at any shard count.
    pub(crate) fn with_shard(mut self, shard_id: usize, shard_count: usize) -> Self {
        let shard_count = shard_count.max(1);
        self.shard_id = u64::try_from(shard_id.min(shard_count - 1)).unwrap_or(0);
        self.shard_count = u64::try_from(shard_count).unwrap_or(1);
        self
    }

    /// Split this backend into `shards` sibling backends sharing its storage,
    /// baseline, policies, and root seed. Shard 0 keeps this backend's
    /// learned state; the others start fresh (intended for construction time,
    /// before any state accumulates). `capacity` bounds each shard's tuner
    /// map (`0` = default cap).
    pub fn split_into_shards(self, shards: usize, capacity: usize) -> Vec<AutotuneBackend> {
        let shards = shards.max(1);
        let storage = Arc::clone(&self.storage);
        let baseline = self.baseline.clone();
        let guardrail = self.guardrail_policy.clone();
        let (degrade_after, probe_period) = (self.degrade_after, self.probe_period);
        let seed = self.seed;
        let retrieval = self.retrieval.clone();
        let mut out = Vec::with_capacity(shards);
        out.push(self.with_tuner_capacity(capacity).with_shard(0, shards));
        for shard_id in 1..shards {
            let mut shard = AutotuneBackend::new(Arc::clone(&storage), baseline.clone(), seed)
                .with_guardrail_policy(guardrail.clone())
                .with_degraded_policy(degrade_after, probe_period)
                .with_tuner_capacity(capacity)
                .with_shard(shard_id, shards);
            // Every shard ranks against the identical shared corpus, so a
            // transferred point is invariant to the shard layout.
            shard.retrieval = retrieval.clone();
            out.push(shard);
        }
        out
    }

    /// Override the guardrail policy for tuners created from now on. The paper's
    /// production deployment runs "extremely conservative guardrail settings" (only
    /// 73/416 signatures kept autotuning); `None` disables the guardrail entirely.
    pub fn with_guardrail_policy(mut self, policy: Option<rockhopper::Guardrail>) -> Self {
        self.guardrail_policy = policy;
        self
    }

    /// Override the degraded-mode policy: `degrade_after` consecutive failed
    /// runs disable tuning for a signature; every `probe_period`-th suggestion
    /// while degraded probes the tuner again.
    pub fn with_degraded_policy(mut self, degrade_after: u32, probe_period: u32) -> Self {
        self.degrade_after = degrade_after.max(1);
        self.probe_period = probe_period.max(1);
        self
    }

    /// Suggest the query-level configuration for a submission (Figure 7 step: the
    /// Autotune Config Inference before physical planning). Signatures in
    /// degraded mode get the default configuration, except for the periodic
    /// probe that checks whether tuning can be re-enabled.
    pub fn suggest(&mut self, user: &str, signature: u64, ctx: &TuningContext) -> Vec<f64> {
        self.suggest_tagged(user, signature, ctx).0
    }

    /// As [`AutotuneBackend::suggest`], also reporting where the point came
    /// from: [`Provenance::Transferred`] for a zero-execution corpus hit,
    /// [`Provenance::Explored`] for a normal tuner draw (and for degraded
    /// defaults). The tag rides the wire protocol and the serving metrics.
    ///
    /// Every call evaluates; the answer is also written to the memo, which
    /// only the service loop ([`AutotuneService`]) consults.
    pub fn suggest_tagged(
        &mut self,
        user: &str,
        signature: u64,
        ctx: &TuningContext,
    ) -> (Vec<f64>, Provenance) {
        // Append-before-apply: a suggestion advances tuner RNG/iteration
        // state, so the WAL must record it before the tuner moves.
        self.log_event(&WalEvent::Suggest {
            user: user.to_string(),
            signature,
            ctx: ctx.clone(),
        });
        let (point, provenance) = self.suggest_point(user, signature, ctx);
        self.memo.insert(user, signature, ctx, &point, provenance);
        (point, provenance)
    }

    /// Serve a suggestion: the memo's answer if the key has one (no WAL
    /// record, no tuner step), else a fresh [`AutotuneBackend::suggest_tagged`].
    fn serve(&mut self, user: &str, signature: u64, ctx: &TuningContext) -> Served {
        if let Some(hit) = self.memo.hit(user, signature, ctx) {
            return hit;
        }
        let (point, provenance) = self.suggest_tagged(user, signature, ctx);
        Served {
            point,
            provenance,
            hit: false,
            batch: 1,
        }
    }

    /// The tuning logic behind [`AutotuneBackend::suggest`], after the WAL
    /// append and before the memo update.
    fn suggest_point(
        &mut self,
        user: &str,
        signature: u64,
        ctx: &TuningContext,
    ) -> (Vec<f64>, Provenance) {
        if self.embeddings.len() >= MAX_TRACKED_EMBEDDINGS
            && !self.embeddings.contains_key(&signature)
        {
            self.embeddings.pop_first();
        }
        self.embeddings.insert(signature, ctx.embedding.clone());
        let probe_period = self.probe_period;
        let state = self.degraded_state(user, signature);
        if state.degraded {
            state.suggests_while_degraded += 1;
            if state.suggests_while_degraded % probe_period != 0 {
                return (self.space.default_point(), Provenance::Explored);
            }
        }
        if let Some(point) = self.transfer_lookup(user, signature, ctx) {
            return (point, Provenance::Transferred);
        }
        let tuner = self.tuner_for(user, signature);
        (tuner.suggest(ctx), Provenance::Explored)
    }

    /// Zero-execution retrieval (DESIGN.md §12): a *cold* signature — no
    /// resident tuner and no evicted sidecar — with a close-enough corpus
    /// neighbor is served the neighbor's best-observed config verbatim. No
    /// tuner is created and no RNG advances, so the signature's eventual
    /// tuner stream stays a pure function of `(root_seed, signature)`;
    /// warm signatures never consult the index. `None` = explore normally.
    fn transfer_lookup(
        &mut self,
        user: &str,
        signature: u64,
        ctx: &TuningContext,
    ) -> Option<Vec<f64>> {
        let (index, policy) = match &self.retrieval {
            Some((index, policy)) => (Arc::clone(index), *policy),
            None => return None,
        };
        if self.tuners.contains_key(&(user.to_string(), signature)) {
            return None;
        }
        // An evicted tuner is warm state parked on disk, not a cold start:
        // serving a transfer here would shadow its learned config.
        if self
            .durability
            .as_ref()
            .and_then(|d| d.read_evicted(user, signature))
            .is_some()
        {
            return None;
        }
        match policy.lookup(&index, &ctx.embedding) {
            Some(neighbor) => {
                self.dashboard.record_cold_hit();
                Some(neighbor.best_point)
            }
            None => {
                self.dashboard.record_cold_miss();
                None
            }
        }
    }

    fn tuner_for(&mut self, user: &str, signature: u64) -> &mut RockhopperTuner {
        let key = (user.to_string(), signature);
        // Admission runs before the map borrow: it needs `&mut self` for the
        // dashboard counters and sidecar reads, which the entry closure below
        // cannot have. `admitted` is `Some` exactly when the key is vacant.
        let admitted = if self.tuners.contains_key(&key) {
            None
        } else {
            Some(self.admit_tuner(user, signature))
        };
        let space = self.space.clone();
        let seed = self.seed;
        let (tuner, evicted) = self.tuners.get_mut_or_insert_with(key, move || {
            admitted.unwrap_or_else(|| {
                // Never taken (see above); a fresh canonically-seeded tuner
                // keeps the lookup total instead of panicking.
                RockhopperTuner::builder(space)
                    .seed(RockhopperTuner::signature_seed(seed, signature))
                    .build()
            })
        });
        if let Some(((evicted_user, evicted_sig), evicted)) = evicted {
            self.dashboard.record_tuner_eviction();
            // Spill-before-drop: the evicted tuner's full checkpoint
            // (raw RNG words included) goes to a rockdur sidecar, so a
            // later touch restores it bit-identically instead of
            // re-learning from scratch. Best-effort, like every other
            // durability write: a failed spill degrades the evicted
            // signature to a cold start, never the request.
            if let Some(d) = self.durability.as_mut() {
                let _ = d.write_evicted(&evicted_user, evicted_sig, &evicted.snapshot());
            }
        }
        tuner
    }

    /// Build the tuner that should serve `(user, signature)` right now:
    /// the sidecar checkpoint its eviction spilled, if one is visible at the
    /// current point in (live or replayed) time, or a fresh tuner seeded by
    /// the canonical `split_seed(root, signature)` derivation — a pure
    /// function of the root seed and the signature, so shard membership and
    /// arrival order never change a tuner's stream.
    fn admit_tuner(&mut self, user: &str, signature: u64) -> RockhopperTuner {
        if let Some(state) = self
            .durability
            .as_ref()
            .and_then(|d| d.read_evicted(user, signature))
        {
            self.dashboard.record_evicted_restored();
            return RockhopperTuner::restore(self.space.clone(), state, self.baseline.clone());
        }
        let mut builder = RockhopperTuner::builder(self.space.clone())
            .seed(RockhopperTuner::signature_seed(self.seed, signature))
            .guardrail(self.guardrail_policy.clone());
        if let Some(b) = &self.baseline {
            builder = builder.baseline(b.clone());
        }
        // Transfer handoff (DESIGN.md §12): a truly cold signature whose
        // embedding has eligible corpus neighbors starts its centroid at the
        // nearest neighbor's best point and seeds its history with
        // trust-discounted pseudo-observations (elapsed inflated by the
        // policy margin, so local real measurements outrank the borrowed
        // prior). Seeding goes through `History::push`, which draws no RNG —
        // the tuner's random stream stays the canonical
        // `split_seed(root, signature)` derivation, bit-identical with or
        // without a corpus hit.
        if let Some((index, policy)) = &self.retrieval {
            if let Some(embedding) = self.embeddings.get(&signature) {
                let eligible = policy.eligible(index, embedding);
                if let Some(nearest) = eligible.first() {
                    builder = builder.start_at(nearest.best_point.clone());
                    let mut tuner = builder.build();
                    for neighbor in &eligible {
                        tuner.history.push(
                            neighbor.best_point.clone(),
                            neighbor.data_size,
                            policy.discounted_elapsed_ms(neighbor),
                        );
                    }
                    self.dashboard.record_transfer_seeded();
                    return tuner;
                }
            }
        }
        builder.build()
    }

    /// Ingest an application's event file: persist it (with retry against a
    /// flaky store), ETL it, and feed every completed query back into its tuner
    /// (the Model Updater job). Failed runs — starts whose end never arrived —
    /// become censored high-cost observations and advance degraded-mode streaks.
    pub fn ingest(&mut self, user: &str, app_id: &str, events: &[SparkEvent]) {
        // Logged in canonical JSONL form — replay goes through the lossy
        // parser, which round-trips `to_jsonl` output exactly.
        let doc = sparksim::event::to_jsonl(events);
        self.log_event(&WalEvent::IngestJsonl {
            user: user.to_string(),
            app_id: app_id.to_string(),
            doc: doc.clone(),
        });
        self.memo
            .invalidate(user, &durability::report_signatures(events));
        self.persist_events(app_id, doc.into_bytes());
        self.storage.tick();
        self.dashboard.ingest(events);
        self.ingest_batch(user, extract_batch(events));
    }

    /// Ingest a raw JSON-lines event document as shipped over the wire:
    /// corrupt/truncated lines are quarantined (and counted on the dashboard)
    /// instead of poisoning the whole file.
    pub fn ingest_jsonl(&mut self, user: &str, app_id: &str, doc: &str) {
        self.log_event(&WalEvent::IngestJsonl {
            user: user.to_string(),
            app_id: app_id.to_string(),
            doc: doc.to_string(),
        });
        self.persist_events(app_id, doc.as_bytes().to_vec());
        self.storage.tick();
        let (events, quarantined) = sparksim::event::from_jsonl_lossy(doc);
        self.memo
            .invalidate(user, &durability::report_signatures(&events));
        self.dashboard.ingest(&events);
        let mut batch = extract_batch(&events);
        batch.quarantined_lines = quarantined;
        self.ingest_batch(user, batch);
    }

    /// Persist an event file, retrying transient storage outages with bounded
    /// backoff in *logical* time (each retry burns backoff ticks, doubling up to
    /// a cap — deterministic, no wall clock). Gives up after
    /// [`INGEST_MAX_ATTEMPTS`]; tuner updates proceed regardless, since the
    /// in-memory observations are authoritative for this process.
    fn persist_events(&mut self, app_id: &str, bytes: Vec<u8>) -> bool {
        let token = self.storage.issue_token("events/", true, u64::MAX);
        let path = paths::events(app_id);
        let mut backoff: u64 = 1;
        for attempt in 0..INGEST_MAX_ATTEMPTS {
            match self.storage.put(&token, &path, bytes.clone()) {
                Ok(()) => return true,
                Err(PipelineError::Unavailable { .. }) if attempt + 1 < INGEST_MAX_ATTEMPTS => {
                    self.ingest_retries += 1;
                    for _ in 0..backoff {
                        self.storage.tick();
                    }
                    backoff = (backoff * 2).min(8);
                }
                Err(PipelineError::Unavailable { .. })
                | Err(PipelineError::AccessDenied { .. })
                | Err(PipelineError::NotFound { .. })
                | Err(PipelineError::InsufficientData) => return false,
            }
        }
        false
    }

    /// Feed one ETL batch into the tuners and the failure bookkeeping.
    fn ingest_batch(&mut self, user: &str, batch: EtlBatch) {
        self.dashboard.record_quarantined(batch.quarantined_lines);
        let space = self.space.clone();
        let default_point = space.default_point();
        for row in &batch.rows {
            let point = row.point_in(&space);
            let tuner = self.tuner_for(user, row.signature);
            tuner.observe(&point, &Outcome::measured(row.elapsed_ms, row.data_size));
            let state = self.degraded_state(user, row.signature);
            // A completed run on a *tuned* configuration (a probe, or normal
            // operation) proves tuning viable again; a completed run on the
            // default config only proves the default works and stays degraded.
            let is_probe = point
                .iter()
                .zip(&default_point)
                .any(|(a, b)| (a - b).abs() > 1e-9);
            if state.degraded && is_probe {
                state.degraded = false;
                state.suggests_while_degraded = 0;
            }
        }
        for fail in &batch.failed {
            self.dashboard.record_failure(fail.signature);
            let point: Vec<f64> = space.dims.iter().map(|d| fail.conf.get(d.knob)).collect();
            let tuner = self.tuner_for(user, fail.signature);
            // Penalty: well above anything measured for this signature, so the
            // centroid update is pushed away without one constant dominating.
            let worst_measured = tuner
                .history
                .all
                .iter()
                .filter(|o| !o.is_censored())
                .map(|o| o.elapsed_ms)
                .fold(f64::NEG_INFINITY, f64::max);
            let penalty = if worst_measured.is_finite() {
                2.0 * worst_measured
            } else {
                DEFAULT_FAILURE_PENALTY_MS
            };
            let data_size = tuner.history.all.last().map(|o| o.data_size).unwrap_or(1.0);
            tuner.observe(&point, &Outcome::censored(penalty, data_size));
            // The failure streak lives in the tuner's own history: a measured
            // observation resets it, a censored one extends it.
            let streak = tuner.history.trailing_censored();
            let degrade_after = self.degrade_after;
            let state = self.degraded_state(user, fail.signature);
            if streak >= degrade_after as usize {
                state.degraded = true;
            }
        }
    }

    /// The degraded-mode state of `(user, signature)`, created on first
    /// touch. At [`MAX_TRACKED_DEGRADED`] a new key first evicts the
    /// smallest one, so the live map never outgrows what a snapshot keeps.
    fn degraded_state(&mut self, user: &str, signature: u64) -> &mut DegradedState {
        let key = (user.to_string(), signature);
        if self.degraded.len() >= MAX_TRACKED_DEGRADED && !self.degraded.contains_key(&key) {
            self.degraded.pop_first();
        }
        self.degraded.entry(key).or_default()
    }

    /// Whether the guardrail has disabled a signature.
    pub fn is_disabled(&self, user: &str, signature: u64) -> bool {
        self.tuners
            .peek(&(user.to_string(), signature))
            .map(RockhopperTuner::is_disabled)
            .unwrap_or(false)
    }

    /// Whether repeated failures have put a signature into degraded mode
    /// (serving the default configuration, probing for re-enable).
    pub fn is_degraded(&self, user: &str, signature: u64) -> bool {
        self.degraded
            .get(&(user.to_string(), signature))
            .map(|s| s.degraded)
            .unwrap_or(false)
    }

    /// Event-file writes that had to be retried against a flaky store.
    pub fn ingest_retry_count(&self) -> u64 {
        self.ingest_retries
    }

    /// Observations (measured and censored) recorded for a signature's tuner.
    pub fn observation_count(&self, user: &str, signature: u64) -> usize {
        self.tuners
            .peek(&(user.to_string(), signature))
            .map(|t| t.history.len())
            .unwrap_or(0)
    }

    /// Recompute the `app_cache` entry for an artifact after its run completes
    /// (the App Cache Generator job, Algorithm 2). `expected_p` is the data size the
    /// next run is expected to carry.
    pub fn update_app_cache(
        &mut self,
        user: &str,
        artifact_id: &str,
        signatures: &[u64],
        expected_p: f64,
    ) {
        self.log_event(&WalEvent::UpdateAppCache {
            user: user.to_string(),
            artifact_id: artifact_id.to_string(),
            signatures: signatures.to_vec(),
            expected_p,
        });
        if let Some(entry) = self.compute_app_cache_entry(user, signatures, expected_p) {
            self.commit_app_cache_entry(artifact_id, entry);
        }
    }

    /// The pure half of the App Cache Generator: run Algorithm 2 for one
    /// artifact's signatures without touching the cache or storage. `None`
    /// when no signature has a live tuner.
    fn compute_app_cache_entry(
        &self,
        user: &str,
        signatures: &[u64],
        expected_p: f64,
    ) -> Option<AppCacheEntry> {
        let inputs = self.gather_app_cache_inputs(user, signatures, expected_p)?;
        solve_app_cache_entry(
            &self.app_optimizer,
            self.baseline.as_ref(),
            self.seed,
            &inputs,
        )
    }

    /// Snapshot what Algorithm 2 needs for one artifact out of the live tuner
    /// map: centroids and embeddings, as plain data. Separated from
    /// [`AutotuneBackend::solve_app_cache_entry`] so a batch sweep can gather
    /// serially (tuners hold non-`Sync` selector state) and solve in parallel.
    fn gather_app_cache_inputs(
        &self,
        user: &str,
        signatures: &[u64],
        expected_p: f64,
    ) -> Option<AppCacheInputs> {
        let queries: Vec<QueryState> = signatures
            .iter()
            .filter_map(|&sig| {
                self.tuners
                    .peek(&(user.to_string(), sig))
                    .map(|t| QueryState {
                        signature: sig,
                        centroid: t.centroid(),
                    })
            })
            .collect();
        if queries.is_empty() {
            return None;
        }
        let embeddings: Vec<Vec<f64>> = signatures
            .iter()
            .map(|s| self.embeddings.get(s).cloned().unwrap_or_default())
            .collect();
        Some(AppCacheInputs {
            queries,
            embeddings,
            expected_p,
        })
    }

    /// The mutating half: persist (best-effort — the in-memory cache is
    /// authoritative for this process) and install one computed entry.
    fn commit_app_cache_entry(&mut self, artifact_id: &str, entry: AppCacheEntry) {
        if let Ok(bytes) = serde_json::to_vec(&entry) {
            let token = self.storage.issue_token("app_cache/", true, u64::MAX);
            let _ = self
                .storage
                .put(&token, &paths::app_cache(artifact_id), bytes);
        }
        self.app_cache.put(artifact_id, entry);
    }

    /// Refresh the `app_cache` for many artifacts at once — the nightly App
    /// Cache Generator sweep over every recurrent application of a user.
    /// Entries are *computed* concurrently on the ambient rockpool (each
    /// artifact is a stable-index task; Algorithm 2 is seeded identically to
    /// [`AutotuneBackend::update_app_cache`]) and *committed* serially in
    /// artifact order, so the resulting cache and storage writes are
    /// bit-identical to calling `update_app_cache` in a loop, for any
    /// `RH_THREADS` (DESIGN.md §7). Returns the number of entries installed.
    pub fn update_app_cache_batch(
        &mut self,
        user: &str,
        artifacts: &[(String, Vec<u64>, f64)],
    ) -> usize {
        // Log the whole sweep's intent up front: replaying one
        // `UpdateAppCache` per artifact through `update_app_cache` is
        // bit-identical to the batch (documented above), and a crash
        // mid-sweep recovers to the completed-sweep state the WAL promised.
        for (artifact_id, sigs, p) in artifacts {
            self.log_event(&WalEvent::UpdateAppCache {
                user: user.to_string(),
                artifact_id: artifact_id.clone(),
                signatures: sigs.clone(),
                expected_p: *p,
            });
        }
        // Gather serially (the tuner map holds non-Sync selector state), then
        // solve each artifact as a stable-index task on the pool over plain
        // Sync data; commits need `&mut self` and run after, in artifact order.
        let inputs: Vec<Option<AppCacheInputs>> = artifacts
            .iter()
            .map(|(_, sigs, p)| self.gather_app_cache_inputs(user, sigs, *p))
            .collect();
        let (optimizer, baseline, seed) = (&self.app_optimizer, self.baseline.as_ref(), self.seed);
        let entries: Vec<Option<AppCacheEntry>> =
            rockpool::Pool::from_env().map(&inputs, |_, maybe| {
                maybe
                    .as_ref()
                    .and_then(|i| solve_app_cache_entry(optimizer, baseline, seed, i))
            });
        let mut installed = 0;
        for (slot, entry) in artifacts.iter().zip(entries) {
            if let Some(entry) = entry {
                self.commit_app_cache_entry(&slot.0, entry);
                installed += 1;
            }
        }
        installed
    }

    /// The pre-computed app-level configuration for a submitting artifact, if any
    /// (read at job submission, bypassing all model inference).
    pub fn app_conf(&self, artifact_id: &str) -> Option<Vec<f64>> {
        self.app_cache.get(artifact_id).map(|e| e.app_point.clone())
    }

    /// Forecast the next run's data size for a signature from its observation
    /// history (see [`rockhopper::forecast`]); `None` before any observations.
    pub fn forecast_data_size(&self, user: &str, signature: u64) -> Option<f64> {
        self.tuners
            .peek(&(user.to_string(), signature))
            .and_then(|t| rockhopper::forecast::forecast_data_size(&t.history))
            .map(|f| f.value)
    }

    /// As [`AutotuneBackend::update_app_cache`], with the expected data size
    /// forecast from the queries' own histories (mean of per-signature forecasts) —
    /// the fully-automatic path the App Cache Generator runs after each application.
    pub fn update_app_cache_forecast(&mut self, user: &str, artifact_id: &str, signatures: &[u64]) {
        let forecasts: Vec<f64> = signatures
            .iter()
            .filter_map(|&s| self.forecast_data_size(user, s))
            .collect();
        let expected_p = if forecasts.is_empty() {
            1.0
        } else {
            ml::stats::mean(&forecasts)
        };
        self.update_app_cache(user, artifact_id, signatures, expected_p);
    }

    /// Number of live tuners (monitoring).
    pub fn tuner_count(&self) -> usize {
        self.tuners.len()
    }

    /// The tuner map's eviction bound.
    pub fn tuner_capacity(&self) -> usize {
        self.tuners.capacity()
    }

    /// Tuners evicted by the bounded state map over this backend's lifetime.
    pub fn tuner_evictions(&self) -> u64 {
        self.tuners.evictions()
    }

    /// This backend's shard identity as `(shard_id, shard_count)`.
    pub fn shard(&self) -> (u64, u64) {
        (self.shard_id, self.shard_count)
    }

    /// The monitoring dashboard (§6.3), accumulated from every ingested event file.
    pub fn dashboard(&self) -> &Dashboard {
        &self.dashboard
    }

    /// Harvest the warm-signature corpus for `user`: one [`CorpusEntry`] per
    /// resident tuner that has both a cached embedding and at least one real
    /// (non-censored) observation, in ascending signature order. This is the
    /// offline side of the retrieval loop (DESIGN.md §12): a warm backend
    /// harvests what it learned into a `rockindex::Corpus` so the next cold
    /// process can transfer from it without executing anything.
    pub fn harvest_corpus(&self, user: &str) -> Vec<CorpusEntry> {
        let mut entries = Vec::new();
        for ((owner, signature), tuner) in self.tuners.iter() {
            if owner != user {
                continue;
            }
            let Some(embedding) = self.embeddings.get(signature) else {
                continue;
            };
            let Some(best) = tuner.best_observed() else {
                continue;
            };
            let measured: Vec<f64> = tuner
                .history
                .all
                .iter()
                .filter(|o| !o.is_censored())
                .map(|o| o.elapsed_ms)
                .collect();
            if measured.is_empty() {
                continue;
            }
            let mean_elapsed_ms = measured.iter().sum::<f64>() / measured.len() as f64;
            entries.push(CorpusEntry {
                signature: *signature,
                embedding: embedding.clone(),
                best_point: best.point.clone(),
                observations: measured.len() as u64,
                best_elapsed_ms: best.elapsed_ms,
                mean_elapsed_ms,
                data_size: best.data_size,
            });
        }
        entries.sort_by_key(|e| e.signature);
        entries
    }

    /// Persist every per-signature tuner state as a model file (the Model Updater's
    /// output in Figure 7: models are written to storage for the next application's
    /// client to load). Returns the number of models written.
    // rhlint:allow(dead-pub): service persistence API for long-running deployments
    pub fn persist_models(&self) -> usize {
        let token = self.storage.issue_token("models/", true, u64::MAX);
        let mut written = 0;
        for ((user, sig), tuner) in self.tuners.iter() {
            let snap = tuner.snapshot();
            if let Ok(bytes) = serde_json::to_vec(&snap) {
                if self
                    .storage
                    .put(&token, &paths::model(user, *sig), bytes)
                    .is_ok()
                {
                    written += 1;
                }
            }
        }
        written
    }

    /// Restore every persisted tuner state from storage (what a freshly started
    /// backend process does). Malformed model files are skipped. Returns the number
    /// of models restored.
    // rhlint:allow(dead-pub): service persistence API for long-running deployments
    pub fn restore_models(&mut self) -> usize {
        let token = self.storage.issue_token("models/", false, u64::MAX);
        let Ok(files) = self.storage.list(&token, "models/") else {
            return 0;
        };
        let mut restored = 0;
        for path in files {
            // models/<user>/<signature-hex>.json
            let mut parts = path.trim_start_matches("models/").splitn(2, '/');
            let (Some(user), Some(file)) = (parts.next(), parts.next()) else {
                continue;
            };
            let Ok(sig) = u64::from_str_radix(file.trim_end_matches(".json"), 16) else {
                continue;
            };
            let Ok(bytes) = self.storage.get(&token, &path) else {
                continue;
            };
            let Ok(state) = serde_json::from_slice::<rockhopper::tuner::TunerState>(&bytes) else {
                continue;
            };
            let tuner = RockhopperTuner::restore(self.space.clone(), state, self.baseline.clone());
            let key = (user.to_string(), sig);
            if self.tuners.len() >= self.tuners.capacity() && !self.tuners.contains_key(&key) {
                // Same bound as `tuner_for`: a store with more persisted
                // models than the cap must not blow up a fresh backend.
                continue;
            }
            self.tuners.insert(key, tuner);
            restored += 1;
        }
        restored
    }

    /// Persist the region baseline model.
    // rhlint:allow(dead-pub): service persistence API for long-running deployments
    pub fn persist_baseline(&self, region: &str) -> bool {
        let Some(b) = &self.baseline else {
            return false;
        };
        let token = self.storage.issue_token("baseline/", true, u64::MAX);
        serde_json::to_vec(b)
            .ok()
            .and_then(|bytes| {
                self.storage
                    .put(&token, &paths::baseline(region), bytes)
                    .ok()
            })
            .is_some()
    }

    /// Load the region baseline model from storage into this backend.
    // rhlint:allow(dead-pub): service persistence API for long-running deployments
    pub fn load_baseline(&mut self, region: &str) -> bool {
        let token = self.storage.issue_token("baseline/", false, u64::MAX);
        let Ok(bytes) = self.storage.get(&token, &paths::baseline(region)) else {
            return false;
        };
        match serde_json::from_slice::<BaselineModel>(&bytes) {
            Ok(b) => {
                self.baseline = Some(b);
                true
            }
            Err(_) => false,
        }
    }

    // --- Durable learned state (DESIGN.md §10) ---

    /// Attach durable state under `dir`, treating *this backend's in-memory
    /// state* as authoritative: a full compacted snapshot is written
    /// immediately and every further mutation is WAL-logged. Anything
    /// already under `dir` is superseded by the new snapshot — the
    /// fresh-deployment / migration path. Use
    /// [`AutotuneBackend::recover_from`] to adopt on-disk state instead.
    /// Returns the snapshot's sequence number.
    pub fn persist_to(&mut self, dir: &Path) -> io::Result<u64> {
        self.persist_to_with(dir, durability::DEFAULT_SNAPSHOT_EVERY)
    }

    /// As [`AutotuneBackend::persist_to`] with an explicit snapshot cadence
    /// (records between compacted snapshots).
    pub fn persist_to_with(&mut self, dir: &Path, snapshot_every: u64) -> io::Result<u64> {
        let (d, _superseded) = Durability::open(dir, snapshot_every)?;
        // Fresh authority: sidecars under `dir` checkpoint a timeline this
        // backend is superseding, exactly like the WAL records themselves.
        d.clear_sidecars();
        self.durability = Some(d);
        self.write_snapshot_now()
    }

    /// Recover learned state from `dir` — newest valid snapshot, then every
    /// surviving WAL record replayed in original order — and keep logging
    /// there. The disk is authoritative: the snapshot's seed is adopted and
    /// replayed suggestions re-derive bit-identical configurations, because
    /// tuner RNG streams were checkpointed raw. Corruption (torn tails, bit
    /// flips, foreign-version snapshots, undecodable events) is quarantined
    /// and counted, never fatal; `Err` is reserved for real I/O failures on
    /// the directory itself.
    pub fn recover_from(&mut self, dir: &Path) -> io::Result<RecoveryReport> {
        self.recover_from_with(dir, durability::DEFAULT_SNAPSHOT_EVERY)
    }

    /// As [`AutotuneBackend::recover_from`] with an explicit snapshot cadence.
    pub fn recover_from_with(
        &mut self,
        dir: &Path,
        snapshot_every: u64,
    ) -> io::Result<RecoveryReport> {
        let (mut d, recovery) = Durability::open(dir, snapshot_every)?;
        let mut report = RecoveryReport {
            quarantined: recovery.quarantined,
            quarantined_bytes: recovery.quarantined_bytes,
            ..RecoveryReport::default()
        };
        // A snapshot whose CRC passed can still fail to decode (written by a
        // foreign build with a compatible envelope). Its records cover state
        // we then don't have — unless the snapshot sits at seq 0, where the
        // pre-snapshot state is vacuously empty and replay stays sound.
        let mut base_ok = true;
        if let Some(snap) = recovery.snapshot {
            // A decoded snapshot from a different shard lineage is as foreign
            // as an undecodable one: its records describe state routed under
            // another layout, and adopting them would smear signatures across
            // the wrong shards. Fail closed into a fresh shard.
            let decoded = serde_json::from_slice::<BackendSnapshot>(&snap.payload).ok();
            let lineage_ok = decoded
                .as_ref()
                .map(|s| s.shard_id == self.shard_id && s.shard_count == self.shard_count);
            match decoded.filter(|_| lineage_ok == Some(true)) {
                Some(s) => {
                    self.apply_snapshot(s);
                    report.restored_snapshot = true;
                }
                None => {
                    report.quarantined = report.quarantined.saturating_add(1);
                    report.quarantined_bytes = report
                        .quarantined_bytes
                        .saturating_add(u64::try_from(snap.payload.len()).unwrap_or(u64::MAX));
                    // An undecodable snapshot at seq 0 compacted nothing, so
                    // replaying the records over empty state stays sound; a
                    // *wrong-lineage* snapshot poisons its records too — they
                    // were routed under another shard layout.
                    base_ok = snap.seq == 0 && lineage_ok != Some(false);
                }
            }
        }
        if !base_ok {
            // The on-disk timeline is abandoned (its records cover state we
            // refused to adopt); its sidecar checkpoints go with it.
            d.clear_sidecars();
        }
        d.replaying = true;
        self.durability = Some(d);
        for (seq, payload) in recovery.records {
            let parsed = if base_ok {
                serde_json::from_slice::<WalEvent>(&payload).ok()
            } else {
                None
            };
            match parsed {
                Some(event) => {
                    // Sidecar writes/reads during this record's re-application
                    // are pinned to its sequence number, so replay sees the
                    // sidecar versions the live run saw at this point — not
                    // checkpoints from the timeline's (lost) future.
                    if let Some(d) = self.durability.as_mut() {
                        d.replay_seq = Some(seq);
                    }
                    self.replay_event(event);
                    report.replayed = report.replayed.saturating_add(1);
                }
                None => {
                    report.quarantined = report.quarantined.saturating_add(1);
                    report.quarantined_bytes = report
                        .quarantined_bytes
                        .saturating_add(u64::try_from(payload.len()).unwrap_or(u64::MAX));
                }
            }
        }
        if let Some(d) = self.durability.as_mut() {
            d.replaying = false;
            d.replay_seq = None;
        }
        self.dashboard
            .record_recovery(report.replayed, report.quarantined);
        Ok(report)
    }

    /// Force-sync buffered WAL appends to disk — the drain path's flush.
    /// Deliberately *not* a final snapshot: the next boot exercises real log
    /// replay, so crash-recovery tests stay honest. No-op without durability.
    pub fn flush_durability(&mut self) -> io::Result<()> {
        match self.durability.as_mut() {
            None => Ok(()),
            Some(d) => d.sync(),
        }
    }

    /// Append one event to the WAL (no-op without durability or during
    /// replay). When the snapshot cadence is due, the compacted snapshot is
    /// written *before* the new event is appended: `log_event` runs under
    /// append-before-apply, so this is the only moment the in-memory state
    /// covers exactly the records already logged — snapshotting after the
    /// append would prune a record whose effects the snapshot lacks.
    /// Serving availability beats durability: a failed append degrades this
    /// process to in-memory-only rather than failing the request.
    fn log_event(&mut self, event: &WalEvent) {
        let (replaying, due) = match self.durability.as_ref() {
            None => return,
            Some(d) => (d.replaying, d.snapshot_due()),
        };
        if replaying {
            return;
        }
        if due {
            let _ = self.write_snapshot_now();
        }
        let appended = match self.durability.as_mut() {
            None => false,
            Some(d) => d.append_event(event).is_ok(),
        };
        if appended {
            self.dashboard.record_wal_write();
        }
    }

    /// Serialize the full learned state and write a compacted snapshot,
    /// pruning the WAL behind it.
    fn write_snapshot_now(&mut self) -> io::Result<u64> {
        let snap = self.snapshot_state();
        let bytes = serde_json::to_vec(&snap)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("{e:?}")))?;
        let seq = match self.durability.as_mut() {
            None => {
                return Err(io::Error::new(
                    io::ErrorKind::NotConnected,
                    "durability not attached",
                ))
            }
            Some(d) => d.write_snapshot(&bytes)?,
        };
        self.dashboard.record_snapshot_write();
        Ok(seq)
    }

    /// Re-apply one replayed WAL event through the normal mutation paths
    /// (the `replaying` guard keeps them from re-logging), which also refill
    /// and invalidate the memo in WAL order.
    fn replay_event(&mut self, event: WalEvent) {
        match event {
            WalEvent::Suggest {
                user,
                signature,
                ctx,
            } => {
                let _ = self.suggest_tagged(&user, signature, &ctx);
            }
            WalEvent::IngestJsonl { user, app_id, doc } => {
                self.ingest_jsonl(&user, &app_id, &doc);
            }
            WalEvent::UpdateAppCache {
                user,
                artifact_id,
                signatures,
                expected_p,
            } => {
                self.update_app_cache(&user, &artifact_id, &signatures, expected_p);
            }
        }
    }

    /// Encode the full learned state with hash maps flattened into
    /// key-sorted vectors, so equal logical state gives equal bytes.
    fn snapshot_state(&self) -> BackendSnapshot {
        // Recency ranks are compacted to 0..n at encode time, so two
        // deterministic replicas that applied the same operations — even if
        // one of them recovered mid-way and re-assigned raw ticks — snapshot
        // identical bytes. Order, not absolute tick values, drives eviction.
        let rank_by_key: HashMap<&(String, u64), u64> = self
            .tuners
            .keys_by_recency()
            .enumerate()
            .map(|(rank, key)| (key, u64::try_from(rank).unwrap_or(u64::MAX)))
            .collect();
        let mut tuners: Vec<TunerEntry> = self
            .tuners
            .iter()
            .map(|(key, t)| TunerEntry {
                user: key.0.clone(),
                signature: key.1,
                state: t.snapshot(),
                tick: rank_by_key.get(key).copied().unwrap_or(0),
            })
            .collect();
        tuners.sort_by(|a, b| (&a.user, a.signature).cmp(&(&b.user, b.signature)));
        let embeddings: Vec<EmbeddingEntry> = self
            .embeddings
            .iter()
            .map(|(sig, e)| EmbeddingEntry {
                signature: *sig,
                embedding: e.clone(),
            })
            .collect();
        let degraded: Vec<DegradedEntry> = self
            .degraded
            .iter()
            .map(|((user, sig), s)| DegradedEntry {
                user: user.clone(),
                signature: *sig,
                degraded: s.degraded,
                suggests_while_degraded: s.suggests_while_degraded,
            })
            .collect();
        BackendSnapshot {
            seed: self.seed,
            shard_id: self.shard_id,
            shard_count: self.shard_count,
            ingest_retries: self.ingest_retries,
            tuners,
            embeddings,
            degraded,
            served: self.memo.entries(),
            app_cache: self.app_cache.clone(),
            dashboard: self.dashboard.clone(),
        }
    }

    /// Install a decoded snapshot as this backend's state. The baseline and
    /// policy knobs are construction-time configuration and stay as-is.
    fn apply_snapshot(&mut self, snap: BackendSnapshot) {
        self.seed = snap.seed;
        self.ingest_retries = snap.ingest_retries;
        self.app_cache = snap.app_cache;
        self.dashboard = snap.dashboard;
        // Rebuild the tuner map in recency order (coldest first) so the
        // restored LRU evicts exactly as the writer's would have. A snapshot
        // holding more entries than this backend's capacity keeps only the
        // most recent ones.
        let capacity = self.tuners.capacity();
        self.tuners = LruMap::new(capacity);
        let mut entries = snap.tuners;
        entries.sort_by_key(|t| t.tick);
        let skip = entries.len().saturating_sub(capacity);
        for t in entries.into_iter().skip(skip) {
            let tuner =
                RockhopperTuner::restore(self.space.clone(), t.state, self.baseline.clone());
            self.tuners.insert((t.user, t.signature), tuner);
        }
        self.embeddings = snap
            .embeddings
            .into_iter()
            .take(MAX_TRACKED_EMBEDDINGS)
            .map(|e| (e.signature, e.embedding))
            .collect();
        self.degraded = snap
            .degraded
            .into_iter()
            .take(MAX_TRACKED_DEGRADED)
            .map(|d| {
                (
                    (d.user, d.signature),
                    DegradedState {
                        degraded: d.degraded,
                        suggests_while_degraded: d.suggests_while_degraded,
                    },
                )
            })
            .collect();
        self.memo.restore(snap.served);
    }
}

/// One artifact's snapshotted Algorithm 2 inputs: plain `Sync` data carved
/// out of the live (non-`Sync`) tuner map so batch solves can fan out.
struct AppCacheInputs {
    queries: Vec<QueryState>,
    embeddings: Vec<Vec<f64>>,
    expected_p: f64,
}

/// Run Algorithm 2 over one artifact's snapshotted inputs. A free function of
/// `Sync` arguments only, so any number of artifacts solve concurrently
/// ([`AutotuneBackend::update_app_cache_batch`]).
fn solve_app_cache_entry(
    optimizer: &AppLevelOptimizer,
    baseline: Option<&BaselineModel>,
    seed: u64,
    inputs: &AppCacheInputs,
) -> Option<AppCacheEntry> {
    // Score with the baseline model when present (embedding + query point at the
    // expected data size), discounted by a simple parallelism factor from the
    // app-level executor knob — app knobs are otherwise invisible to the
    // query-level baseline.
    let app_space = &optimizer.app_space;
    let expected_p = inputs.expected_p;
    let score = move |qi: usize, app: &[f64], query: &[f64]| -> f64 {
        let base = match (baseline, inputs.embeddings.get(qi)) {
            (Some(b), Some(emb)) => b.predict_ms(emb, query, expected_p),
            _ => 1000.0,
        };
        // More executors shorten wide stages but add startup/GC drag: a convex
        // proxy with an interior optimum at ~60% of the executor range.
        // Fall back to the proxy's optimum (multiplier 1.0) if either the app
        // space or the candidate point is unexpectedly empty.
        let xe = match (app_space.dims.first(), app.first()) {
            (Some(dim), Some(&v)) => dim.normalize(v),
            _ => 0.6,
        };
        base * (1.0 + 0.6 * (xe - 0.6) * (xe - 0.6))
    };
    let current = optimizer.app_space.default_point();
    optimizer.optimize(&current, &inputs.queries, score, seed ^ 0x00AC_CAFE)
}

/// Messages from clients to the backend thread.
enum Request {
    Suggest {
        user: String,
        signature: u64,
        ctx: TuningContext,
        reply: Sender<Served>,
    },
    Ingest {
        user: String,
        app_id: String,
        events: Vec<SparkEvent>,
    },
    IngestJsonl {
        user: String,
        app_id: String,
        doc: String,
        /// Signalled once the document has been applied.
        applied: Sender<()>,
    },
    Counters {
        reply: Sender<DashboardCounters>,
    },
    UpdateAppCache {
        user: String,
        artifact_id: String,
        signatures: Vec<u64>,
        expected_p: f64,
    },
    AppConf {
        artifact_id: String,
        reply: Sender<Option<Vec<f64>>>,
    },
    Shutdown,
}

/// The backend running on its own thread.
pub struct AutotuneService {
    tx: Sender<Request>,
    handle: Option<JoinHandle<AutotuneBackend>>,
}

impl AutotuneService {
    /// Spawn the backend thread; returns the service handle and a client.
    /// A Suggest is answered from the memo when its key has an entry, so
    /// concurrent duplicates share the first one's evaluation.
    pub fn spawn(mut backend: AutotuneBackend) -> (AutotuneService, AutotuneClient) {
        let (tx, rx) = unbounded::<Request>();
        let memo = backend.memo.clone();
        let handle = std::thread::spawn(move || {
            while let Ok(req) = rx.recv() {
                match req {
                    Request::Suggest {
                        user,
                        signature,
                        ctx,
                        reply,
                    } => {
                        let _ = reply.send(backend.serve(&user, signature, &ctx));
                    }
                    Request::Ingest {
                        user,
                        app_id,
                        events,
                    } => backend.ingest(&user, &app_id, &events),
                    Request::IngestJsonl {
                        user,
                        app_id,
                        doc,
                        applied,
                    } => {
                        backend.ingest_jsonl(&user, &app_id, &doc);
                        let _ = applied.send(());
                    }
                    Request::Counters { reply } => {
                        let _ = reply.send(backend.dashboard().counters());
                    }
                    Request::UpdateAppCache {
                        user,
                        artifact_id,
                        signatures,
                        expected_p,
                    } => backend.update_app_cache(&user, &artifact_id, &signatures, expected_p),
                    Request::AppConf { artifact_id, reply } => {
                        let _ = reply.send(backend.app_conf(&artifact_id));
                    }
                    Request::Shutdown => break,
                }
            }
            backend
        });
        (
            AutotuneService {
                tx: tx.clone(),
                handle: Some(handle),
            },
            AutotuneClient { tx, memo },
        )
    }

    /// Stop the backend thread and recover the backend state. `None` if the
    /// backend thread panicked (its state is lost with it).
    pub fn shutdown(mut self) -> Option<AutotuneBackend> {
        let _ = self.tx.send(Request::Shutdown);
        self.handle.take()?.join().ok()
    }
}

impl Drop for AutotuneService {
    /// A dropped service must not leave its backend thread detached: even when
    /// callers skip [`AutotuneService::shutdown`], send the shutdown request
    /// and *join*. Queued work drains first (the shutdown message sits behind
    /// it in the channel), so no accepted ingest is lost; a panicked backend's
    /// payload is swallowed here because drop runs on unwind paths too.
    fn drop(&mut self) {
        if let Some(handle) = self.handle.take() {
            let _ = self.tx.send(Request::Shutdown);
            let _ = handle.join();
        }
    }
}

/// Why a suggestion fell back instead of coming from the backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SuggestFallback {
    /// The backend thread is gone (channel disconnected).
    BackendDown,
    /// The backend did not answer within the timeout.
    TimedOut,
}

impl std::fmt::Display for SuggestFallback {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SuggestFallback::BackendDown => write!(f, "backend down"),
            SuggestFallback::TimedOut => write!(f, "backend timed out"),
        }
    }
}

/// Cluster-side handle: the model loader + query listener pair.
#[derive(Clone)]
pub struct AutotuneClient {
    tx: Sender<Request>,
    /// A read handle on the backend's memo.
    memo: SuggestMemo,
}

impl AutotuneClient {
    /// Request a query-level configuration (blocks for the reply, as config
    /// inference sits on the submission critical path — but never longer than
    /// `timeout`). On error — a dead or wedged backend — callers should serve
    /// the default configuration; [`AutotuneClient::suggest_or_default`] does
    /// exactly that.
    pub fn suggest(
        &self,
        user: &str,
        signature: u64,
        ctx: &TuningContext,
        timeout: Duration,
    ) -> Result<Vec<f64>, SuggestFallback> {
        self.serve(user, signature, ctx, timeout).map(|s| s.point)
    }

    /// As [`AutotuneClient::suggest`], returning the whole [`Served`]
    /// answer: provenance, whether the memo answered, and the entry's hit
    /// count.
    pub fn serve(
        &self,
        user: &str,
        signature: u64,
        ctx: &TuningContext,
        timeout: Duration,
    ) -> Result<Served, SuggestFallback> {
        let (reply_tx, reply_rx) = unbounded();
        if self
            .tx
            .send(Request::Suggest {
                user: user.to_string(),
                signature,
                ctx: ctx.clone(),
                reply: reply_tx,
            })
            .is_err()
        {
            return Err(SuggestFallback::BackendDown);
        }
        match reply_rx.recv_timeout(timeout) {
            Ok(served) => Ok(served),
            Err(RecvTimeoutError::Disconnected) => Err(SuggestFallback::BackendDown),
            Err(RecvTimeoutError::Timeout) => Err(SuggestFallback::TimedOut),
        }
    }

    /// The backend memo's answer for this key, read on the calling thread
    /// without a round trip; `None` on a miss.
    pub fn memo_hit(&self, user: &str, signature: u64, ctx: &TuningContext) -> Option<Served> {
        self.memo.hit(user, signature, ctx)
    }

    /// As [`AutotuneClient::suggest`], degrading to the space's default
    /// configuration when the backend is dead or wedged. Returns the point to
    /// run plus the fallback reason, if any.
    pub fn suggest_or_default(
        &self,
        user: &str,
        signature: u64,
        ctx: &TuningContext,
        timeout: Duration,
        space: &ConfigSpace,
    ) -> (Vec<f64>, Option<SuggestFallback>) {
        match self.suggest(user, signature, ctx, timeout) {
            Ok(point) => (point, None),
            Err(why) => (space.default_point(), Some(why)),
        }
    }

    /// Ship an application's event file to the backend (fire-and-forget, like the
    /// Event Hub trigger).
    pub fn ingest(&self, user: &str, app_id: &str, events: Vec<SparkEvent>) {
        let _ = self.tx.send(Request::Ingest {
            user: user.to_string(),
            app_id: app_id.to_string(),
            events,
        });
    }

    /// Ship a raw JSON-lines event document to the backend and wait, never
    /// longer than `timeout`, until it has been applied — the wire-ingest
    /// path used by `rockserve`'s `Report` frame. Corrupt or truncated lines
    /// are quarantined backend-side instead of poisoning the document.
    /// `false` when the backend is gone or did not apply it in time.
    pub fn report_jsonl(&self, user: &str, app_id: &str, doc: String, timeout: Duration) -> bool {
        self.send_report(user, app_id, doc)
            .is_some_and(|applied| applied.recv_timeout(timeout).is_ok())
    }

    /// Queue a JSON-lines document; the receiver fires once it is applied.
    pub(crate) fn send_report(
        &self,
        user: &str,
        app_id: &str,
        doc: String,
    ) -> Option<Receiver<()>> {
        let (applied, rx) = unbounded();
        self.tx
            .send(Request::IngestJsonl {
                user: user.to_string(),
                app_id: app_id.to_string(),
                doc,
                applied,
            })
            .ok()?;
        Some(rx)
    }

    /// Snapshot the backend's dashboard counters (blocks for the reply, never
    /// longer than `timeout`). `None` when the backend is gone or wedged —
    /// callers surface a default (zeroed) snapshot instead of failing.
    pub fn dashboard_counters(&self, timeout: Duration) -> Option<DashboardCounters> {
        let (reply_tx, reply_rx) = unbounded();
        self.tx.send(Request::Counters { reply: reply_tx }).ok()?;
        reply_rx.recv_timeout(timeout).ok()
    }

    /// Ask the backend to refresh an artifact's app cache.
    pub fn update_app_cache(
        &self,
        user: &str,
        artifact_id: &str,
        signatures: Vec<u64>,
        expected_p: f64,
    ) {
        let _ = self.tx.send(Request::UpdateAppCache {
            user: user.to_string(),
            artifact_id: artifact_id.to_string(),
            signatures,
            expected_p,
        });
    }

    /// Fetch the pre-computed app-level configuration (blocks for the reply).
    /// `None` if no entry exists or the backend thread has shut down.
    pub fn app_conf(&self, artifact_id: &str) -> Option<Vec<f64>> {
        let (reply_tx, reply_rx) = unbounded();
        self.tx
            .send(Request::AppConf {
                artifact_id: artifact_id.to_string(),
                reply: reply_tx,
            })
            .ok()?;
        reply_rx.recv().ok()?
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use optimizers::env::Environment;
    use optimizers::QueryEnv;
    use sparksim::noise::NoiseSpec;

    fn backend() -> AutotuneBackend {
        AutotuneBackend::new(Arc::new(Storage::new()), None, 42)
    }

    fn drive_query(backend: &mut AutotuneBackend, env: &mut QueryEnv, user: &str, iters: usize) {
        let sig = env.signature();
        for i in 0..iters {
            let ctx = env.context();
            let point = backend.suggest(user, sig, &ctx);
            let conf = env.space().to_conf(&point);
            let plan = env.plan.clone().scaled(env.schedule.size_at(i as u32));
            let run = env.sim.execute(&plan, &conf, i as u64);
            let events = env.sim.events_for_run(
                &format!("app-{i}"),
                "artifact-x",
                sig,
                &plan,
                &conf,
                ctx.embedding.clone(),
                &run,
            );
            backend.ingest(user, &format!("app-{i}"), &events);
            let _ = env.run(&point); // keep the env's iteration counter in step
        }
    }

    #[test]
    fn suggest_creates_one_tuner_per_user_signature() {
        let mut b = backend();
        let env = QueryEnv::tpch(6, 0.1, NoiseSpec::none(), 1);
        let ctx = env.context();
        b.suggest("alice", 1, &ctx);
        b.suggest("alice", 1, &ctx);
        b.suggest("alice", 2, &ctx);
        b.suggest("bob", 1, &ctx);
        assert_eq!(b.tuner_count(), 3);
    }

    #[test]
    fn ingest_persists_events_and_updates_tuners() {
        let mut b = backend();
        let mut env = QueryEnv::tpch(6, 0.1, NoiseSpec::none(), 1);
        drive_query(&mut b, &mut env, "alice", 5);
        // Event files landed in storage.
        let token = b.storage.issue_token("events/", false, u64::MAX);
        assert_eq!(b.storage.list(&token, "events/").unwrap().len(), 5);
        // The tuner accumulated all five observations.
        let t = b
            .tuners
            .get(&("alice".to_string(), env.signature()))
            .unwrap();
        assert_eq!(t.history.len(), 5);
    }

    #[test]
    fn privacy_isolation_between_users() {
        let mut b = backend();
        let mut env_a = QueryEnv::tpch(6, 0.1, NoiseSpec::none(), 1);
        drive_query(&mut b, &mut env_a, "alice", 3);
        let sig = env_a.signature();
        // Bob's tuner for the same signature shares nothing with Alice's.
        let ctx = env_a.context();
        b.suggest("bob", sig, &ctx);
        let bob = b.tuners.get(&("bob".to_string(), sig)).unwrap();
        assert_eq!(bob.history.len(), 0);
        let alice = b.tuners.get(&("alice".to_string(), sig)).unwrap();
        assert_eq!(alice.history.len(), 3);
    }

    #[test]
    fn app_cache_roundtrips_through_backend_and_storage() {
        let mut b = backend();
        let mut env = QueryEnv::tpch(6, 0.1, NoiseSpec::none(), 1);
        drive_query(&mut b, &mut env, "alice", 3);
        let sig = env.signature();
        assert!(b.app_conf("artifact-x").is_none());
        b.update_app_cache("alice", "artifact-x", &[sig], 1e6);
        let conf = b.app_conf("artifact-x").expect("cache entry exists");
        assert_eq!(conf.len(), 2); // executors + memory
                                   // Persisted too.
        let token = b.storage.issue_token("app_cache/", false, u64::MAX);
        assert!(b
            .storage
            .get(&token, &paths::app_cache("artifact-x"))
            .is_ok());
    }

    #[test]
    fn app_cache_for_unknown_signatures_is_a_noop() {
        let mut b = backend();
        b.update_app_cache("alice", "artifact-y", &[999], 1.0);
        assert!(b.app_conf("artifact-y").is_none());
    }

    #[test]
    fn dashboard_tracks_ingested_queries() {
        let mut b = backend();
        let mut env = QueryEnv::tpch(6, 0.1, NoiseSpec::none(), 1);
        drive_query(&mut b, &mut env, "alice", 6);
        let sig = env.signature();
        let m = b
            .dashboard()
            .monitor(sig)
            .expect("dashboard tracks the signature");
        assert_eq!(m.records.len(), 6);
        assert!(b.dashboard().render().contains(&format!("{sig:016x}")));
    }

    #[test]
    fn forecast_and_auto_app_cache_work_end_to_end() {
        let mut b = backend();
        let mut env = QueryEnv::new(
            workloads::tpch::query(6, 0.1),
            NoiseSpec::none(),
            workloads::dynamic::DataSchedule::LinearIncreasing {
                start: 1.0,
                slope: 0.2,
            },
            3,
        );
        let sig = env.signature();
        assert!(b.forecast_data_size("u", sig).is_none());
        drive_query(&mut b, &mut env, "u", 12);
        let f = b.forecast_data_size("u", sig).expect("history exists");
        // Input grows each run; the forecast must exceed the first run's size.
        let first = b.tuners.get(&("u".to_string(), sig)).unwrap().history.all[0].data_size;
        assert!(f > first, "forecast {f} vs first observation {first}");
        b.update_app_cache_forecast("u", "artifact-f", &[sig]);
        assert!(b.app_conf("artifact-f").is_some());
    }

    #[test]
    fn model_persistence_survives_backend_restart() {
        let storage = Arc::new(Storage::new());
        let mut b = AutotuneBackend::new(Arc::clone(&storage), None, 7);
        let mut env = QueryEnv::tpch(6, 0.1, NoiseSpec::none(), 7);
        drive_query(&mut b, &mut env, "alice", 8);
        let sig = env.signature();
        assert_eq!(b.persist_models(), 1);
        drop(b);

        // A fresh backend process over the same storage resumes where it left off.
        let mut b2 = AutotuneBackend::new(Arc::clone(&storage), None, 7);
        assert_eq!(b2.tuner_count(), 0);
        assert_eq!(b2.restore_models(), 1);
        assert_eq!(b2.tuner_count(), 1);
        let t = b2.tuners.get(&("alice".to_string(), sig)).unwrap();
        assert_eq!(t.history.len(), 8);
    }

    #[test]
    fn baseline_persist_load_roundtrip() {
        use rockhopper::baseline::{BaselineModel, BaselineRow};
        let space = optimizers::space::ConfigSpace::query_level();
        let rows: Vec<BaselineRow> = (0..30)
            .map(|i| BaselineRow {
                embedding: vec![1.0],
                point: space.default_point(),
                data_size: 1.0,
                elapsed_ms: 100.0 + i as f64,
            })
            .collect();
        let baseline = BaselineModel::train(&space, &rows, 1).unwrap();
        let storage = Arc::new(Storage::new());
        let b = AutotuneBackend::new(Arc::clone(&storage), Some(baseline), 1);
        assert!(b.persist_baseline("westus"));
        drop(b);

        let mut b2 = AutotuneBackend::new(storage, None, 1);
        assert!(!b2.persist_baseline("westus"), "no baseline yet");
        assert!(b2.load_baseline("westus"));
        assert!(b2.persist_baseline("westus"));
        assert!(!b2.load_baseline("eastus"), "unknown region");
    }

    #[test]
    fn restore_skips_garbage_model_files() {
        let storage = Arc::new(Storage::new());
        let token = storage.issue_token("models/", true, u64::MAX);
        storage
            .put(&token, "models/u/zzzz.json", b"not json".to_vec())
            .unwrap();
        storage
            .put(&token, "models/odd-path", b"{}".to_vec())
            .unwrap();
        let mut b = AutotuneBackend::new(storage, None, 1);
        assert_eq!(b.restore_models(), 0);
    }

    #[test]
    fn service_threads_answer_clients() {
        let b = backend();
        let (service, client) = AutotuneService::spawn(b);
        let env = QueryEnv::tpch(6, 0.1, NoiseSpec::none(), 1);
        let ctx = env.context();
        let point = client
            .suggest("alice", 7, &ctx, Duration::from_secs(10))
            .expect("backend alive");
        assert_eq!(point.len(), 3);
        assert!(client.app_conf("none").is_none());
        let backend = service.shutdown().expect("backend exits cleanly");
        assert_eq!(backend.tuner_count(), 1);
    }

    #[test]
    fn jsonl_report_and_counters_flow_through_the_service() {
        let (service, client) = AutotuneService::spawn(backend());
        let env = QueryEnv::tpch(6, 0.1, NoiseSpec::none(), 1);
        let sig = env.signature();
        let ctx = env.context();
        let point = client
            .suggest("alice", sig, &ctx, Duration::from_secs(10))
            .expect("backend alive");
        let conf = env.space().to_conf(&point);
        let plan = env.plan.clone().scaled(1.0);
        let run = env.sim.execute(&plan, &conf, 0);
        let events = env.sim.events_for_run(
            "app-0",
            "art",
            sig,
            &plan,
            &conf,
            ctx.embedding.clone(),
            &run,
        );
        let mut doc = sparksim::event::to_jsonl(&events);
        doc.push_str("{\"mangled\": tru\n");
        assert!(client.report_jsonl("alice", "app-0", doc, Duration::from_secs(10)));
        let snap = client
            .dashboard_counters(Duration::from_secs(10))
            .expect("backend alive");
        assert_eq!(snap.ingested_records, 1);
        assert_eq!(snap.quarantined_lines, 1);
        assert_eq!(snap.tracked_signatures, 1);
        let backend = service.shutdown().expect("backend exits cleanly");
        assert_eq!(backend.dashboard().counters(), snap);
        // A dead backend yields no snapshot rather than hanging.
        assert!(client
            .dashboard_counters(Duration::from_millis(50))
            .is_none());
    }

    fn start_event(app: &str, sig: u64, conf: SparkConf) -> SparkEvent {
        SparkEvent::QueryStart {
            app_id: app.into(),
            query_signature: sig,
            conf,
            plan_summary: vec![],
            embedding: vec![0.5],
        }
    }

    use sparksim::config::SparkConf;

    #[test]
    fn failed_runs_become_censored_observations() {
        let mut b = backend();
        let mut env = QueryEnv::tpch(6, 0.1, NoiseSpec::none(), 1);
        drive_query(&mut b, &mut env, "alice", 3);
        let sig = env.signature();
        // A run that started but never ended: censored, counted, not ignored.
        let mut conf = SparkConf::default();
        conf.shuffle_partitions = 32.0;
        b.ingest("alice", "app-crash", &[start_event("app-crash", sig, conf)]);
        let t = b.tuners.get(&("alice".to_string(), sig)).unwrap();
        assert_eq!(t.history.len(), 4);
        assert_eq!(t.history.censored_count(), 1);
        let censored = t.history.all.last().unwrap();
        assert!(censored.is_censored());
        // Penalty scales from the worst measured time, never poisons best_raw.
        let worst = t
            .history
            .all
            .iter()
            .filter(|o| !o.is_censored())
            .map(|o| o.elapsed_ms)
            .fold(f64::NEG_INFINITY, f64::max);
        assert!((censored.elapsed_ms - 2.0 * worst).abs() < 1e-9);
        assert!(!b.dashboard().monitor(sig).is_none());
        assert_eq!(b.dashboard().counters().failed_runs, 1);
    }

    #[test]
    fn repeated_failures_trigger_degraded_mode_and_probe_reenables() {
        let mut b = backend().with_degraded_policy(2, 3);
        let sig = 77u64;
        let ctx = QueryEnv::tpch(6, 0.1, NoiseSpec::none(), 1).context();
        let space = ConfigSpace::query_level();
        // Two straight failures flip the signature into degraded mode.
        for i in 0..2 {
            let mut conf = SparkConf::default();
            conf.shuffle_partitions = 16.0;
            b.ingest("u", &format!("app-{i}"), &[start_event("x", sig, conf)]);
        }
        assert!(b.is_degraded("u", sig));
        // Degraded: suggestions 1 and 2 serve the default; the 3rd probes.
        assert_eq!(b.suggest("u", sig, &ctx), space.default_point());
        assert_eq!(b.suggest("u", sig, &ctx), space.default_point());
        let probe = b.suggest("u", sig, &ctx);
        // A completed run on a tuned (non-default) config re-enables tuning.
        let mut tuned = SparkConf::default();
        tuned.shuffle_partitions = 555.0;
        let events = vec![
            start_event("app-ok", sig, tuned),
            SparkEvent::QueryEnd {
                app_id: "app-ok".into(),
                query_signature: sig,
                metrics: sparksim::metrics::QueryMetrics {
                    elapsed_ms: 120.0,
                    true_ms: 120.0,
                    num_stages: 1,
                    num_tasks: 1,
                    input_bytes: 100.0,
                    input_rows: 1.0,
                    root_rows: 1.0,
                    shuffle_bytes: 0.0,
                    spilled_bytes: 0.0,
                    broadcast_joins: 0,
                    sort_merge_joins: 0,
                },
            },
        ];
        b.ingest("u", "app-ok", &events);
        assert!(!b.is_degraded("u", sig));
        // Probe length sanity: the probe is a real point in the space.
        assert_eq!(probe.len(), space.dims.len());
    }

    #[test]
    fn default_config_success_does_not_reenable_tuning() {
        let mut b = backend().with_degraded_policy(1, 100);
        let sig = 5u64;
        let mut conf = SparkConf::default();
        conf.shuffle_partitions = 16.0;
        b.ingest("u", "app-0", &[start_event("x", sig, conf)]);
        assert!(b.is_degraded("u", sig));
        // A success on the *default* config proves nothing about tuning.
        let events = vec![
            start_event("app-1", sig, SparkConf::default()),
            SparkEvent::QueryEnd {
                app_id: "app-1".into(),
                query_signature: sig,
                metrics: sparksim::metrics::QueryMetrics {
                    elapsed_ms: 100.0,
                    true_ms: 100.0,
                    num_stages: 1,
                    num_tasks: 1,
                    input_bytes: 100.0,
                    input_rows: 1.0,
                    root_rows: 1.0,
                    shuffle_bytes: 0.0,
                    spilled_bytes: 0.0,
                    broadcast_joins: 0,
                    sort_merge_joins: 0,
                },
            },
        ];
        b.ingest("u", "app-1", &events);
        assert!(
            b.is_degraded("u", sig),
            "default success must not re-enable"
        );
    }

    #[test]
    fn ingest_caps_the_degraded_map_and_a_snapshot_restores_it() {
        // One failure degrades a signature, so every tracked key is degraded
        // and a key the snapshot lost would be served tuned points again.
        let mut b = backend().with_degraded_policy(1, 4);
        let failed = (0..=MAX_TRACKED_DEGRADED as u64)
            .map(|signature| crate::etl::FailedRun {
                app_id: format!("app-{signature}"),
                signature,
                embedding: vec![0.5],
                conf: SparkConf::default(),
            })
            .collect();
        b.ingest_batch(
            "u",
            EtlBatch {
                rows: vec![],
                failed,
                quarantined_lines: 0,
            },
        );
        assert_eq!(b.degraded.len(), MAX_TRACKED_DEGRADED);
        assert!(!b.is_degraded("u", 0), "the smallest key is evicted");
        assert!(b.is_degraded("u", MAX_TRACKED_DEGRADED as u64));
        let mut restored = backend();
        restored.apply_snapshot(b.snapshot_state());
        assert_eq!(restored.degraded, b.degraded);
    }

    #[test]
    fn ingest_retries_transient_storage_outages() {
        let storage = Arc::new(Storage::new());
        let mut b = AutotuneBackend::new(Arc::clone(&storage), None, 3);
        let mut env = QueryEnv::tpch(6, 0.1, NoiseSpec::none(), 3);
        storage.inject_put_failures(2); // first two attempts bounce
        drive_query(&mut b, &mut env, "alice", 1);
        assert_eq!(b.ingest_retry_count(), 2);
        let token = storage.issue_token("events/", false, u64::MAX);
        assert_eq!(
            storage.list(&token, "events/").unwrap().len(),
            1,
            "event file landed despite the outage"
        );
    }

    #[test]
    fn ingest_survives_a_full_outage() {
        let storage = Arc::new(Storage::new());
        let mut b = AutotuneBackend::new(Arc::clone(&storage), None, 3);
        let mut env = QueryEnv::tpch(6, 0.1, NoiseSpec::none(), 3);
        storage.inject_put_failures(1_000);
        drive_query(&mut b, &mut env, "alice", 1);
        // Persistence gave up, but the tuner still learned from the run.
        let t = b
            .tuners
            .get(&("alice".to_string(), env.signature()))
            .unwrap();
        assert_eq!(t.history.len(), 1);
    }

    #[test]
    fn jsonl_ingest_quarantines_corrupt_lines() {
        let mut b = backend();
        let env = QueryEnv::tpch(6, 0.1, NoiseSpec::none(), 1);
        let sig = env.signature();
        let ctx = env.context();
        let point = b.suggest("alice", sig, &ctx);
        let conf = env.space().to_conf(&point);
        let plan = env.plan.clone().scaled(1.0);
        let run = env.sim.execute(&plan, &conf, 0);
        let events = env.sim.events_for_run(
            "app-0",
            "art",
            sig,
            &plan,
            &conf,
            ctx.embedding.clone(),
            &run,
        );
        let mut doc = sparksim::event::to_jsonl(&events);
        doc.push_str("{\"mangled\": tru\n");
        b.ingest_jsonl("alice", "app-0", &doc);
        assert_eq!(b.dashboard().counters().quarantined_lines, 1);
        let t = b.tuners.get(&("alice".to_string(), sig)).unwrap();
        assert_eq!(t.history.len(), 1, "good lines still train the tuner");
    }

    #[test]
    fn client_times_out_against_a_wedged_backend() {
        // A channel nobody services: the send succeeds, the reply never comes.
        let (tx, _rx) = unbounded::<Request>();
        let client = AutotuneClient {
            tx,
            memo: SuggestMemo::default(),
        };
        let ctx = QueryEnv::tpch(6, 0.1, NoiseSpec::none(), 1).context();
        assert_eq!(
            client.suggest("u", 1, &ctx, Duration::from_millis(20)),
            Err(SuggestFallback::TimedOut)
        );
        let space = ConfigSpace::query_level();
        let (point, why) =
            client.suggest_or_default("u", 1, &ctx, Duration::from_millis(20), &space);
        assert_eq!(point, space.default_point());
        assert_eq!(why, Some(SuggestFallback::TimedOut));
        assert_eq!(
            format!("{}", SuggestFallback::TimedOut),
            "backend timed out"
        );
    }

    #[test]
    fn client_reports_a_dead_backend() {
        let (service, client) = AutotuneService::spawn(backend());
        let _ = service.shutdown();
        let ctx = QueryEnv::tpch(6, 0.1, NoiseSpec::none(), 1).context();
        let err = client
            .suggest("u", 1, &ctx, Duration::from_millis(100))
            .unwrap_err();
        assert_eq!(err, SuggestFallback::BackendDown);
    }

    #[test]
    fn concurrent_clients_are_serialized_by_the_backend() {
        let (service, client) = AutotuneService::spawn(backend());
        let env = QueryEnv::tpch(6, 0.1, NoiseSpec::none(), 1);
        let ctx = env.context();
        std::thread::scope(|s| {
            for u in 0..4 {
                let c = client.clone();
                let ctx = ctx.clone();
                s.spawn(move || {
                    for sig in 0..5u64 {
                        let p = c
                            .suggest(&format!("user-{u}"), sig, &ctx, Duration::from_secs(10))
                            .expect("backend alive");
                        assert_eq!(p.len(), 3);
                    }
                });
            }
        });
        let backend = service.shutdown().expect("backend exits cleanly");
        assert_eq!(backend.tuner_count(), 20);
    }

    // --- Durable learned state ---

    /// Fresh state dir under the system tempdir, removed on drop.
    struct StateDir(std::path::PathBuf);

    impl StateDir {
        fn new(tag: &str) -> StateDir {
            static COUNTER: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
            let id = COUNTER.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            let root =
                std::env::temp_dir().join(format!("rockdur-svc-{tag}-{}-{id}", std::process::id()));
            let _ = std::fs::remove_dir_all(&root);
            StateDir(root)
        }
    }

    impl Drop for StateDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    /// Drive `n` suggest+ingest rounds against a backend; returns the env.
    fn drive_rounds(b: &mut AutotuneBackend, n: usize) -> QueryEnv {
        let mut env = QueryEnv::tpch(6, 0.1, NoiseSpec::none(), 7);
        drive_query(b, &mut env, "alice", n);
        env
    }

    #[test]
    fn durability_logging_does_not_perturb_suggestions() {
        let dir = StateDir::new("noperturb");
        let mut plain = backend();
        let mut durable = backend();
        durable.persist_to_with(&dir.0, 4).expect("attach");
        let mut env_a = QueryEnv::tpch(6, 0.1, NoiseSpec::none(), 7);
        let mut env_b = QueryEnv::tpch(6, 0.1, NoiseSpec::none(), 7);
        let sig = env_a.signature();
        for i in 0..6 {
            let ctx = env_a.context();
            let _ = env_b.context();
            let pa = plain.suggest("alice", sig, &ctx);
            let pb = durable.suggest("alice", sig, &ctx);
            assert_eq!(pa, pb, "round {i}: WAL logging must be invisible");
            let _ = env_a.run(&pa);
            let _ = env_b.run(&pb);
        }
    }

    #[test]
    fn crash_recovery_replays_to_bit_identical_suggestions() {
        let dir = StateDir::new("replay");
        // Reference run: never crashes, never persists.
        let mut reference = backend();
        let ref_env = drive_rounds(&mut reference, 6);
        let sig = ref_env.signature();

        // Durable run: same workload, then "crash" (drop without snapshot —
        // flush is a WAL sync only, so boot exercises real log replay).
        let mut durable = backend();
        durable.persist_to_with(&dir.0, 1000).expect("attach");
        drive_rounds(&mut durable, 6);
        durable.update_app_cache("alice", "artifact-x", &[sig], 1.0);
        reference.update_app_cache("alice", "artifact-x", &[sig], 1.0);
        durable.flush_durability().expect("flush");
        drop(durable);

        let mut recovered = backend();
        let report = recovered.recover_from_with(&dir.0, 1000).expect("recover");
        assert!(report.replayed > 0, "log replay must do work");
        assert_eq!(report.quarantined, 0, "clean shutdown has no quarantine");
        assert_eq!(
            recovered.observation_count("alice", sig),
            reference.observation_count("alice", sig)
        );
        assert_eq!(
            recovered.app_conf("artifact-x"),
            reference.app_conf("artifact-x")
        );
        // The decisive check: both backends continue the *same* stream.
        let ctx = ref_env.context();
        for i in 0..10 {
            assert_eq!(
                reference.suggest("alice", sig, &ctx),
                recovered.suggest("alice", sig, &ctx),
                "post-recovery round {i} must be bit-identical"
            );
        }
        let c = recovered.dashboard().counters();
        assert_eq!(c.recovery_replayed, report.replayed);
    }

    #[test]
    fn snapshot_compaction_recovers_like_full_replay() {
        let a = StateDir::new("compact-a");
        let b = StateDir::new("compact-b");
        // Same workload, wildly different snapshot cadences: cadence 3
        // compacts repeatedly (pruning the log), cadence 1000 never does.
        let mut often = backend();
        often.persist_to_with(&a.0, 3).expect("attach");
        let mut rarely = backend();
        rarely.persist_to_with(&b.0, 1000).expect("attach");
        let env = drive_rounds(&mut often, 6);
        drive_rounds(&mut rarely, 6);
        let sig = env.signature();
        often.flush_durability().expect("flush");
        rarely.flush_durability().expect("flush");
        assert!(often.dashboard().counters().snapshot_writes > 1);
        drop(often);
        drop(rarely);

        let mut from_snap = backend();
        let snap_report = from_snap.recover_from_with(&a.0, 3).expect("recover a");
        let mut from_log = backend();
        from_log.recover_from_with(&b.0, 1000).expect("recover b");
        assert!(
            snap_report.restored_snapshot,
            "cadence 3 must have compacted"
        );
        let ctx = env.context();
        for _ in 0..8 {
            assert_eq!(
                from_snap.suggest("alice", sig, &ctx),
                from_log.suggest("alice", sig, &ctx),
                "snapshot+tail and pure-log recovery must agree bit-exactly"
            );
        }
    }

    #[test]
    fn recovery_refills_the_memo_from_snapshot_and_wal_order() {
        let dir = StateDir::new("memo");
        let mut durable = backend();
        durable.persist_to_with(&dir.0, 3).expect("attach");
        let ctx = QueryEnv::tpch(6, 0.1, NoiseSpec::none(), 7).context();
        let served: Vec<Vec<f64>> = (0..6u64)
            .map(|sig| durable.suggest("alice", sig, &ctx))
            .collect();
        // The report is the last record, after the newest snapshot: replay
        // must drop signature 0's entry that the snapshot still carries.
        let conf = SparkConf::default();
        durable.ingest("alice", "app-0", &[start_event("app-0", 0, conf)]);
        durable.flush_durability().expect("flush");
        drop(durable);

        let mut recovered = backend();
        let report = recovered.recover_from_with(&dir.0, 3).expect("recover");
        assert!(report.restored_snapshot, "cadence 3 must have compacted");
        assert_eq!(recovered.memo.hit("alice", 0, &ctx), None);
        for (sig, point) in served.iter().enumerate().skip(1) {
            let hit = recovered
                .memo
                .hit("alice", sig as u64, &ctx)
                .expect("an answered key survives recovery");
            assert_eq!(&hit.point, point, "signature {sig}");
        }
    }

    #[test]
    fn torn_tail_recovery_keeps_the_committed_prefix() {
        let dir = StateDir::new("torn");
        let mut durable = backend();
        durable.persist_to_with(&dir.0, 1000).expect("attach");
        drive_rounds(&mut durable, 6);
        durable.flush_durability().expect("flush");
        drop(durable);
        let chopped = rockdur::fault::torn_tail(&dir.0, 0xC0FFEE).expect("chop");
        assert!(chopped > 0);

        let mut recovered = backend();
        let report = recovered.recover_from(&dir.0).expect("never fatal");
        assert!(report.quarantined >= 1, "the torn suffix is quarantined");
        assert!(report.replayed > 0, "the committed prefix still replays");
        let c = recovered.dashboard().counters();
        assert!(c.wal_records_quarantined >= 1);
        // The backend keeps serving after partial recovery.
        let env = QueryEnv::tpch(6, 0.1, NoiseSpec::none(), 7);
        let p = recovered.suggest("alice", env.signature(), &env.context());
        assert_eq!(p.len(), recovered.space.dims.len());
    }

    #[test]
    fn a_failed_snapshot_waits_a_full_cadence_before_retrying() {
        let dir = StateDir::new("snapfail");
        let mut durable = backend();
        let mut reference = backend();
        durable.persist_to_with(&dir.0, 5).expect("attach");
        // A directory at each `.tmp` path makes every snapshot write fail.
        let blockers: Vec<std::path::PathBuf> = (0..64u64)
            .map(|seq| dir.0.join(format!("snap-{seq:016x}.snap.tmp")))
            .collect();
        for b in &blockers {
            std::fs::create_dir(b).expect("blocker");
        }
        let due = |b: &AutotuneBackend| b.durability.as_ref().expect("attached").snapshot_due();
        let writes = |b: &AutotuneBackend| b.dashboard().counters().snapshot_writes;
        let ctx = QueryEnv::tpch(6, 0.1, NoiseSpec::none(), 7).context();
        for sig in 0..5u64 {
            durable.suggest("alice", sig, &ctx);
            reference.suggest("alice", sig, &ctx);
        }
        assert!(due(&durable), "five records make a snapshot due");
        durable.suggest("alice", 5, &ctx);
        reference.suggest("alice", 5, &ctx);
        assert!(!due(&durable), "the failed attempt restarts the cadence");
        assert_eq!(writes(&durable), 1, "only the attach snapshot landed");

        for b in &blockers {
            std::fs::remove_dir(b).expect("unblock");
        }
        for sig in 6..10u64 {
            durable.suggest("alice", sig, &ctx);
            reference.suggest("alice", sig, &ctx);
        }
        assert_eq!(writes(&durable), 1, "no retry before a full cadence");
        assert!(due(&durable));
        durable.suggest("alice", 10, &ctx);
        reference.suggest("alice", 10, &ctx);
        assert_eq!(writes(&durable), 2, "the retry lands a cadence later");
        let env = drive_rounds(&mut durable, 3);
        drive_rounds(&mut reference, 3);
        durable.flush_durability().expect("flush");
        drop(durable);

        let mut recovered = backend();
        let report = recovered.recover_from_with(&dir.0, 5).expect("recover");
        assert!(report.restored_snapshot);
        assert_eq!(report.quarantined, 0);
        let sig = env.signature();
        let env_ctx = env.context();
        for i in 0..4 {
            assert_eq!(
                recovered.suggest("alice", sig, &env_ctx),
                reference.suggest("alice", sig, &env_ctx),
                "post-recovery round {i} must be bit-identical"
            );
        }
        for sig in 0..12u64 {
            assert_eq!(
                recovered.suggest("alice", sig, &ctx),
                reference.suggest("alice", sig, &ctx),
                "signature {sig}"
            );
        }
    }

    #[test]
    fn foreign_version_snapshot_recovers_empty_but_serving() {
        let dir = StateDir::new("foreign");
        let mut durable = backend();
        durable.persist_to_with(&dir.0, 2).expect("attach");
        drive_rounds(&mut durable, 5);
        durable.flush_durability().expect("flush");
        drop(durable);
        let snap = rockdur::fault::newest_snapshot(&dir.0)
            .expect("list")
            .expect("a snapshot was compacted");
        rockdur::fault::foreign_snapshot_version(&snap).expect("stamp");

        let mut recovered = backend();
        let report = recovered.recover_from_with(&dir.0, 2).expect("never fatal");
        assert!(!report.restored_snapshot);
        assert!(report.quarantined >= 1);
        // Post-snapshot records are orphaned with it; state starts fresh
        // but the process serves.
        let env = QueryEnv::tpch(6, 0.1, NoiseSpec::none(), 7);
        let p = recovered.suggest("alice", env.signature(), &env.context());
        assert_eq!(p.len(), recovered.space.dims.len());
        assert!(recovered.dashboard().counters().wal_records_quarantined >= 1);
    }
}
