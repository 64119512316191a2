//! Durable learned state for the Autotune Backend.
//!
//! Every state-mutating backend request is encoded as a [`WalEvent`] and
//! appended to a `rockdur` write-ahead log *before* it is applied
//! (append-before-apply). Because the backend thread serializes all
//! mutations, the WAL records the exact operation order, and replaying it
//! over the last compacted snapshot reproduces the backend bit-identically:
//! tuner RNG streams are checkpointed raw (`TunerState::rng_state`), so a
//! recovered tuner continues the *same* random sequence instead of
//! restarting it from the seed.
//!
//! Corruption is data, not an error: torn tails, bit flips and
//! foreign-version snapshots are quarantined by `rockdur` and surfaced here
//! through [`RecoveryReport`] and the dashboard's
//! `wal_records_quarantined` counter — recovery never panics and never
//! silently drops a *committed* prefix.

use std::io;
use std::path::{Path, PathBuf};

use serde::{Deserialize, Serialize};

use optimizers::tuner::TuningContext;
use rockdur::{Recovery, Wal};
use rockhopper::applevel::AppCache;
use rockhopper::tuner::TunerState;
use rockindex::Provenance;

use crate::monitor::Dashboard;

/// Default number of WAL records between compacted snapshots.
pub const DEFAULT_SNAPSHOT_EVERY: u64 = 256;

/// One state-mutating backend operation, as logged to the WAL.
///
/// The set is closed over exactly the operations that can change learned
/// state: suggestions (they advance tuner RNG streams and iteration
/// counters), report ingest (both the typed and the JSONL path log the
/// canonical JSONL form), and app-cache recomputation. Read-only requests
/// are never logged.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) enum WalEvent {
    /// A suggestion was issued for `(user, signature)` under `ctx`.
    Suggest {
        /// Tenant that asked.
        user: String,
        /// Query signature.
        signature: u64,
        /// Compile-time context the tuner saw.
        ctx: TuningContext,
    },
    /// An event-log document was ingested.
    IngestJsonl {
        /// Tenant that reported.
        user: String,
        /// Application the document belongs to.
        app_id: String,
        /// The JSONL document, verbatim.
        doc: String,
    },
    /// An app-cache recomputation was requested for one artifact.
    UpdateAppCache {
        /// Tenant that asked.
        user: String,
        /// Artifact whose cache entry is recomputed.
        artifact_id: String,
        /// Signatures participating in the joint optimization.
        signatures: Vec<u64>,
        /// Expected parallelism hint.
        expected_p: f64,
    },
}

/// One tuner's checkpoint inside a [`BackendSnapshot`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct TunerEntry {
    /// Tenant.
    pub(crate) user: String,
    /// Query signature.
    pub(crate) signature: u64,
    /// Full tuner state, including raw RNG words.
    pub(crate) state: TunerState,
    /// LRU recency tick at snapshot time — restores the exact eviction order
    /// so a recovered bounded backend evicts the same keys its uninterrupted
    /// twin would.
    pub(crate) tick: u64,
}

/// One cached query embedding inside a [`BackendSnapshot`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct EmbeddingEntry {
    /// Query signature.
    pub(crate) signature: u64,
    /// The embedding vector last seen for it.
    pub(crate) embedding: Vec<f64>,
}

/// One served suggestion inside a [`BackendSnapshot`]'s memo.
///
/// The WAL's `Suggest` records replay to bit-identical points, but records
/// *compacted into a snapshot* are pruned — so the snapshot itself must
/// carry what was served, or a restarted shard would re-evaluate those keys
/// on tuners that have already advanced past them.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct ServedEntry {
    /// Tenant.
    pub(crate) user: String,
    /// Query signature.
    pub(crate) signature: u64,
    /// The exact tuning context the suggestion was computed under.
    pub(crate) ctx: TuningContext,
    /// The configuration that was served.
    pub(crate) point: Vec<f64>,
    /// Whether the point came from the retrieval corpus or the tuner.
    /// Pre-retrieval snapshots have no field here and decode as `Explored`.
    pub(crate) provenance: Provenance,
}

/// One degradation-tracking entry inside a [`BackendSnapshot`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct DegradedEntry {
    /// Tenant.
    pub(crate) user: String,
    /// Query signature.
    pub(crate) signature: u64,
    /// Whether the tuner is currently degraded to the default config.
    pub(crate) degraded: bool,
    /// Suggests served while degraded (probe cadence counter).
    pub(crate) suggests_while_degraded: u32,
}

/// A compacted, self-contained image of the backend's learned state.
///
/// Hash-map contents are encoded as vectors sorted by key so the same
/// logical state always produces the same bytes — snapshots taken by two
/// deterministic replicas are comparable byte-for-byte. Configuration that
/// the operator passes at construction time (baseline model, degradation
/// policy) is deliberately *not* included: a snapshot restores what was
/// learned, not how the process was launched.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct BackendSnapshot {
    /// The backend seed; adopted on recovery so new tuners derive the same
    /// per-signature streams as before the crash.
    pub(crate) seed: u64,
    /// Which shard of `shard_count` wrote this snapshot. A recovering shard
    /// refuses (quarantines) a snapshot from a different shard lineage —
    /// restarting with a changed `--shards` on the same directory must fail
    /// closed into a fresh shard, never adopt misrouted state.
    pub(crate) shard_id: u64,
    /// The shard layout width the writer ran under.
    pub(crate) shard_count: u64,
    /// Transient-storage retries observed so far.
    pub(crate) ingest_retries: u64,
    /// Per-`(user, signature)` tuner checkpoints, sorted by key.
    pub(crate) tuners: Vec<TunerEntry>,
    /// Per-signature embeddings, sorted by signature.
    pub(crate) embeddings: Vec<EmbeddingEntry>,
    /// Per-`(user, signature)` degradation trackers, sorted by key.
    pub(crate) degraded: Vec<DegradedEntry>,
    /// The shard's suggestion memo (entries not yet invalidated by a
    /// report), in signature order; replay of the tail updates it further.
    pub(crate) served: Vec<ServedEntry>,
    /// The app-level configuration cache (already a sorted map).
    pub(crate) app_cache: AppCache,
    /// Monitoring state, counters included.
    pub(crate) dashboard: Dashboard,
}

/// What a [`crate::AutotuneBackend::recover_from`] call found and did.
#[derive(Debug, Default)]
pub struct RecoveryReport {
    /// WAL records replayed into the backend.
    pub replayed: u64,
    /// Corrupt artifacts quarantined: torn/flipped WAL suffixes, orphaned
    /// segments, unreadable or foreign-version snapshots, and records whose
    /// checksum passed but whose event encoding did not parse.
    pub quarantined: u64,
    /// Bytes set aside by quarantine.
    pub quarantined_bytes: u64,
    /// Whether a usable compacted snapshot was restored.
    pub restored_snapshot: bool,
}

/// Subdirectory of the WAL directory holding evicted-tuner sidecars.
const SIDE_DIR: &str = "side";

/// One evicted tuner's durable checkpoint — written when the bounded state
/// map spills it, read back on the signature's next touch. The embedded key
/// is verified on read so a hash collision degrades to a fresh tuner, never
/// to adopting another signature's state.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct EvictedSidecar {
    /// Tenant.
    user: String,
    /// Query signature.
    signature: u64,
    /// WAL sequence of the operation whose application caused the eviction.
    seq: u64,
    /// Full tuner state, including raw RNG words.
    state: TunerState,
}

/// Stable hash of an eviction key for sidecar file names. Chained through
/// `rockpool::split_seed` so the name is a pure function of `(user,
/// signature)` across processes and shard widths.
fn sidecar_key_hash(user: &str, signature: u64) -> u64 {
    let mut h = rockpool::split_seed(0x51DE_CA4E, signature);
    for b in user.bytes() {
        h = rockpool::split_seed(h, u64::from(b));
    }
    h
}

/// Parse `"{key:016x}-{seq:016x}.json"` back into `(key_hash, seq)`.
fn parse_sidecar_name(name: &str) -> Option<(u64, u64)> {
    let stem = name.strip_suffix(".json")?;
    let (key, seq) = stem.split_once('-')?;
    if key.len() != 16 || seq.len() != 16 {
        return None;
    }
    Some((
        u64::from_str_radix(key, 16).ok()?,
        u64::from_str_radix(seq, 16).ok()?,
    ))
}

/// The backend's handle on its durable state: a `rockdur` WAL plus the
/// snapshot cadence and the replay guard.
#[derive(Debug)]
pub(crate) struct Durability {
    wal: Wal,
    /// The WAL directory — sidecars live in its [`SIDE_DIR`] subdirectory.
    dir: PathBuf,
    snapshot_every: u64,
    records_since_snapshot: u64,
    /// While `true`, [`crate::AutotuneBackend`] mutators skip logging —
    /// replayed operations must not be re-appended.
    pub(crate) replaying: bool,
    /// While replaying, the sequence number of the record being re-applied.
    /// Sidecar writes are tagged with it and sidecar reads are bounded by it,
    /// so replay sees exactly the sidecar versions the live run saw — never
    /// a version from the (possibly lost) future of the pre-crash timeline.
    pub(crate) replay_seq: Option<u64>,
}

impl Durability {
    /// Open (or create) the WAL under `dir` and return it with whatever
    /// state survived on disk. The caller decides whether to replay the
    /// recovery or treat its own in-memory state as authoritative.
    /// Sidecars tagged at or beyond the recovered `next_seq` belong to a
    /// torn-off suffix of the previous timeline and are deleted here.
    pub(crate) fn open(dir: &Path, snapshot_every: u64) -> io::Result<(Durability, Recovery)> {
        let (wal, recovery) = Wal::open(dir)?;
        let d = Durability {
            wal,
            dir: dir.to_path_buf(),
            snapshot_every: snapshot_every.max(1),
            records_since_snapshot: 0,
            replaying: false,
            replay_seq: None,
        };
        d.prune_sidecars(|seq| seq >= recovery.next_seq);
        Ok((d, recovery))
    }

    /// Append one event. Returns its sequence number.
    pub(crate) fn append_event(&mut self, event: &WalEvent) -> io::Result<u64> {
        let bytes = serde_json::to_vec(event)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("{e:?}")))?;
        let seq = self.wal.append(&bytes)?;
        self.records_since_snapshot = self.records_since_snapshot.saturating_add(1);
        Ok(seq)
    }

    /// Whether enough records accumulated since the last snapshot.
    pub(crate) fn snapshot_due(&self) -> bool {
        self.records_since_snapshot >= self.snapshot_every
    }

    /// Write a compacted snapshot and prune the log behind it. Sidecar
    /// versions superseded below the snapshot (an older checkpoint of a key
    /// that has a newer one at or below the snapshot seq) can never be read
    /// again — replay always starts at or after this snapshot — and are
    /// garbage-collected here, bounding sidecar files to one per evicted key
    /// plus the evictions since the last snapshot.
    ///
    /// The attempt, not its success, restarts the cadence: a failed write
    /// (disk full, an I/O error) is retried `snapshot_every` records later,
    /// not on every following record. The log is pruned only by a snapshot
    /// that landed, so recovery still replays everything after it.
    pub(crate) fn write_snapshot(&mut self, payload: &[u8]) -> io::Result<u64> {
        self.records_since_snapshot = 0;
        let seq = self.wal.snapshot(payload)?;
        for (key, best_seq) in self.newest_sidecar_below(seq) {
            self.prune_sidecars_for_key(key, best_seq, seq);
        }
        Ok(seq)
    }

    /// Force-sync buffered appends to disk. This is the *only* flush the
    /// drain path performs — deliberately not a snapshot, so crash tests
    /// exercise real log replay rather than a trivial snapshot load.
    pub(crate) fn sync(&mut self) -> io::Result<()> {
        self.wal.sync()
    }

    /// The sequence number of the most recently appended record (the one
    /// currently being applied, under append-before-apply).
    fn applying_seq(&self) -> u64 {
        self.replay_seq
            .unwrap_or_else(|| self.wal.next_seq().saturating_sub(1))
    }

    /// Spill one evicted tuner's checkpoint, tagged with the sequence of the
    /// operation that caused the eviction (tmp + rename, so a crashed write
    /// leaves the previous version or nothing — never a torn file).
    pub(crate) fn write_evicted(
        &mut self,
        user: &str,
        signature: u64,
        state: &TunerState,
    ) -> io::Result<()> {
        let seq = self.applying_seq();
        let side = self.dir.join(SIDE_DIR);
        std::fs::create_dir_all(&side)?;
        let entry = EvictedSidecar {
            user: user.to_string(),
            signature,
            seq,
            state: state.clone(),
        };
        let bytes = serde_json::to_vec(&entry)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("{e:?}")))?;
        let name = format!("{:016x}-{seq:016x}.json", sidecar_key_hash(user, signature));
        let tmp = side.join(format!(".tmp-{name}"));
        std::fs::write(&tmp, &bytes)?;
        std::fs::rename(&tmp, side.join(name))
    }

    /// The newest sidecar checkpoint for `(user, signature)` visible at the
    /// current point in (replayed or live) time. Files are selected by the
    /// name's key hash and verified against the embedded key; anything
    /// unreadable degrades to `None` (a fresh tuner), never an error.
    pub(crate) fn read_evicted(&self, user: &str, signature: u64) -> Option<TunerState> {
        let bound = self.replay_seq.unwrap_or(u64::MAX);
        let key = sidecar_key_hash(user, signature);
        let entries = std::fs::read_dir(self.dir.join(SIDE_DIR)).ok()?;
        let mut best: Option<(u64, PathBuf)> = None;
        for entry in entries.flatten() {
            let name = entry.file_name();
            let Some((file_key, seq)) = name.to_str().and_then(parse_sidecar_name) else {
                continue;
            };
            if file_key != key || seq > bound {
                continue;
            }
            if best.as_ref().map_or(true, |(b, _)| seq > *b) {
                best = Some((seq, entry.path()));
            }
        }
        let (_, path) = best?;
        let bytes = std::fs::read(path).ok()?;
        let entry: EvictedSidecar = serde_json::from_slice(&bytes).ok()?;
        (entry.user == user && entry.signature == signature).then_some(entry.state)
    }

    /// Delete every sidecar — the fresh-authority (`persist_to`) and
    /// abandoned-timeline paths, where on-disk checkpoints no longer describe
    /// any state this backend will replay.
    pub(crate) fn clear_sidecars(&self) {
        self.prune_sidecars(|_| true);
    }

    /// Delete sidecars whose seq tag matches `doomed`. Best-effort: sidecar
    /// GC failures degrade to disk usage, never to an error.
    fn prune_sidecars(&self, doomed: impl Fn(u64) -> bool) {
        let Ok(entries) = std::fs::read_dir(self.dir.join(SIDE_DIR)) else {
            return;
        };
        for entry in entries.flatten() {
            let name = entry.file_name();
            let Some(text) = name.to_str() else { continue };
            let stale_tmp = text.starts_with(".tmp-");
            let doomed_tag = parse_sidecar_name(text).is_some_and(|(_, seq)| doomed(seq));
            if stale_tmp || doomed_tag {
                let _ = std::fs::remove_file(entry.path());
            }
        }
    }

    /// Per key hash, the newest sidecar seq at or below `snapshot_seq`.
    fn newest_sidecar_below(&self, snapshot_seq: u64) -> Vec<(u64, u64)> {
        let mut newest: std::collections::BTreeMap<u64, u64> = std::collections::BTreeMap::new();
        let Ok(entries) = std::fs::read_dir(self.dir.join(SIDE_DIR)) else {
            return Vec::new();
        };
        for entry in entries.flatten() {
            let name = entry.file_name();
            let Some((key, seq)) = name.to_str().and_then(parse_sidecar_name) else {
                continue;
            };
            if seq <= snapshot_seq {
                let best = newest.entry(key).or_insert(seq);
                *best = (*best).max(seq);
            }
        }
        newest.into_iter().collect()
    }

    /// Drop `key`'s sidecar versions below `keep_seq` (superseded) — all of
    /// them sit at or below `snapshot_seq`, where replay can no longer start.
    fn prune_sidecars_for_key(&self, key: u64, keep_seq: u64, snapshot_seq: u64) {
        let Ok(entries) = std::fs::read_dir(self.dir.join(SIDE_DIR)) else {
            return;
        };
        for entry in entries.flatten() {
            let name = entry.file_name();
            let Some((file_key, seq)) = name.to_str().and_then(parse_sidecar_name) else {
                continue;
            };
            if file_key == key && seq < keep_seq && seq <= snapshot_seq {
                let _ = std::fs::remove_file(entry.path());
            }
        }
    }
}

/// Extract the sorted, deduplicated query signatures a report's events
/// mention: the memo entries a report invalidates.
pub fn report_signatures(events: &[sparksim::event::SparkEvent]) -> Vec<u64> {
    use sparksim::event::SparkEvent;
    let mut sigs: Vec<u64> = events
        .iter()
        .filter_map(|e| match e {
            SparkEvent::QueryStart {
                query_signature, ..
            }
            | SparkEvent::QueryEnd {
                query_signature, ..
            }
            | SparkEvent::StageCompleted {
                query_signature, ..
            } => Some(*query_signature),
            SparkEvent::ApplicationStart { .. } | SparkEvent::ApplicationEnd { .. } => None,
        })
        .collect();
    sigs.sort_unstable();
    sigs.dedup();
    sigs
}
