//! Sharded multi-tenant state engine (DESIGN.md §11).
//!
//! The backend is split into N signature-hash shards, each a full
//! [`AutotuneBackend`] running on its own worker thread with its own seed
//! stream, memory-bounded LRU over per-signature state, and (when durable)
//! its own WAL/snapshot lineage. Routing is a pure function of the query
//! signature ([`shard_of`]), so:
//!
//! - every request for a signature lands on the same shard, preserving the
//!   backend's per-signature ordering guarantee through the shard queues;
//! - tuner seed streams are derived from `(root_seed, signature)` alone
//!   ([`rockhopper::RockhopperTuner::signature_seed`]), so the *suggestions*
//!   a signature receives are bit-identical at any shard count.
//!
//! App-level work — `ApplicationStart`/`ApplicationEnd` events and
//! unparseable report lines — is routed to shard 0, the designated home for
//! state that has no query signature to hash.

use std::time::Duration;

use optimizers::tuner::TuningContext;
use sparksim::event::SparkEvent;

use crate::monitor::DashboardCounters;
use crate::service::{AutotuneBackend, AutotuneClient, AutotuneService, SuggestFallback};

/// Salt for the shard hash, distinct from every seed-derivation stream so
/// shard membership never correlates with tuner RNG draws.
const SHARD_SALT: u64 = 0x0051_1A2D_0F5E_ED09;

/// The shard a signature lives on: a pure function of `(signature, shards)`.
///
/// The signature is finalized through the same SplitMix64 mix as
/// [`rockpool::split_seed`] before the modulo, so consecutive signatures
/// (the common workload shape) spread across shards instead of striping.
pub fn shard_of(signature: u64, shards: usize) -> usize {
    if shards <= 1 {
        return 0;
    }
    (rockpool::split_seed(SHARD_SALT, signature) % shards as u64) as usize
}

/// The shard-side handle: one [`AutotuneService`] per shard.
pub struct ShardedAutotuneService {
    services: Vec<AutotuneService>,
}

impl ShardedAutotuneService {
    /// Spawn one backend thread per shard. The backends should come from
    /// [`AutotuneBackend::split_into_shards`] (or equivalent construction):
    /// index `i` in the vector serves shard `i`.
    pub fn spawn(
        backends: Vec<AutotuneBackend>,
    ) -> (ShardedAutotuneService, ShardedAutotuneClient) {
        assert!(!backends.is_empty(), "a sharded service needs >= 1 shard");
        let mut services = Vec::with_capacity(backends.len());
        let mut clients = Vec::with_capacity(backends.len());
        for backend in backends {
            let (service, client) = AutotuneService::spawn(backend);
            services.push(service);
            clients.push(client);
        }
        (
            ShardedAutotuneService { services },
            ShardedAutotuneClient { clients },
        )
    }

    /// Split `backend` into `shards` shards (shard 0 keeps its learned state)
    /// and spawn them. `capacity` bounds each shard's tuner LRU (0 keeps the
    /// default bound).
    pub fn spawn_split(
        backend: AutotuneBackend,
        shards: usize,
        capacity: usize,
    ) -> (ShardedAutotuneService, ShardedAutotuneClient) {
        ShardedAutotuneService::spawn(backend.split_into_shards(shards, capacity))
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.services.len()
    }

    /// Stop every shard thread and recover the backends, in shard order.
    /// `None` entries mark shards whose thread panicked.
    pub fn shutdown(self) -> Vec<Option<AutotuneBackend>> {
        self.services
            .into_iter()
            .map(AutotuneService::shutdown)
            .collect()
    }
}

/// Cluster-side handle fanning requests out to the right shard.
#[derive(Clone)]
pub struct ShardedAutotuneClient {
    clients: Vec<AutotuneClient>,
}

impl ShardedAutotuneClient {
    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.clients.len()
    }

    /// Per-shard clients, index = shard id — for callers (like `rockserve`)
    /// that do their own routing and per-shard admission control.
    pub fn clients(&self) -> &[AutotuneClient] {
        &self.clients
    }

    /// The client owning `signature`. `None` only for an empty fleet, which
    /// [`ShardedAutotuneService::spawn`] rejects at construction.
    fn client_for(&self, signature: u64) -> Option<&AutotuneClient> {
        self.clients.get(shard_of(signature, self.clients.len()))
    }

    /// Route a suggestion to the signature's shard (blocks, bounded by
    /// `timeout`).
    pub fn suggest(
        &self,
        user: &str,
        signature: u64,
        ctx: &TuningContext,
        timeout: Duration,
    ) -> Result<Vec<f64>, SuggestFallback> {
        self.client_for(signature)
            .ok_or(SuggestFallback::BackendDown)?
            .suggest(user, signature, ctx, timeout)
    }

    /// Ship a raw JSON-lines report, partitioned line-by-line: lines carrying
    /// a query signature go to that signature's shard, app-level and
    /// unparseable lines go to shard 0 (which quarantines and counts the
    /// latter, keeping the fleet-wide quarantine tally exact). With one shard
    /// the document is forwarded verbatim, byte-identical to the unsharded
    /// wire path. Every touched shard applies its slice concurrently; the
    /// call then waits for each, at most `timeout` apiece, and returns
    /// whether all of them applied it.
    pub fn report_jsonl(&self, user: &str, app_id: &str, doc: String, timeout: Duration) -> bool {
        let shards = self.clients.len();
        let slices = if shards == 1 {
            vec![doc]
        } else {
            partition_report(&doc, shards)
        };
        let pending: Vec<_> = self
            .clients
            .iter()
            .zip(slices)
            .filter(|(_, slice)| shards == 1 || !slice.is_empty())
            .map(|(client, slice)| client.send_report(user, app_id, slice))
            .collect();
        // Non-short-circuit `&`: one shard timing out must not skip the wait
        // on the others.
        pending.into_iter().fold(true, |all, applied| {
            all & applied.is_some_and(|rx| rx.recv_timeout(timeout).is_ok())
        })
    }

    /// Merge dashboard counters across every shard. `None` when any shard is
    /// gone or wedged — a partial fleet total would read as a regression.
    pub fn dashboard_counters(&self, timeout: Duration) -> Option<DashboardCounters> {
        let mut merged = DashboardCounters::default();
        for client in &self.clients {
            merged = merged.merged_with(client.dashboard_counters(timeout)?);
        }
        Some(merged)
    }
}

/// The shard owning one event: its query signature's shard, or 0 for
/// app-level events.
fn event_shard(event: &SparkEvent, shards: usize) -> usize {
    match event {
        SparkEvent::QueryStart {
            query_signature, ..
        }
        | SparkEvent::QueryEnd {
            query_signature, ..
        }
        | SparkEvent::StageCompleted {
            query_signature, ..
        } => shard_of(*query_signature, shards),
        SparkEvent::ApplicationStart { .. } | SparkEvent::ApplicationEnd { .. } => 0,
    }
}

/// Split a JSONL report into per-shard documents, preserving line order
/// within each shard.
fn partition_report(doc: &str, shards: usize) -> Vec<String> {
    let mut per_shard = vec![String::new(); shards];
    for line in doc.lines() {
        if line.trim().is_empty() {
            continue;
        }
        let (events, quarantined) = sparksim::event::from_jsonl_lossy(line);
        let shard = match (events.first(), quarantined) {
            (Some(event), 0) => event_shard(event, shards),
            // Unparseable line: shard 0 quarantines and counts it.
            _ => 0,
        };
        per_shard[shard].push_str(line);
        per_shard[shard].push('\n');
    }
    per_shard
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_of_is_stable_and_in_range() {
        for shards in [1usize, 2, 3, 8, 16] {
            for sig in 0..1000u64 {
                let s = shard_of(sig, shards);
                assert!(s < shards);
                assert_eq!(s, shard_of(sig, shards), "routing must be pure");
            }
        }
    }

    #[test]
    fn single_shard_routes_everything_to_zero() {
        for sig in [0u64, 1, 42, u64::MAX] {
            assert_eq!(shard_of(sig, 1), 0);
            assert_eq!(shard_of(sig, 0), 0);
        }
    }

    #[test]
    fn partition_preserves_per_line_order_and_content() {
        let doc = "\
{\"type\":\"app_start\",\"app_id\":\"a\",\"user\":\"u\",\"ts\":0}\n\
not json at all\n";
        let parts = partition_report(doc, 4);
        // Both the app-level line and the garbage line land on shard 0,
        // in input order; other shards stay empty.
        assert!(parts[0].contains("app_start"));
        assert!(parts[0].contains("not json at all"));
        let app_pos = parts[0].find("app_start").unwrap_or(usize::MAX);
        let junk_pos = parts[0].find("not json").unwrap_or(0);
        assert!(app_pos < junk_pos);
        assert!(parts[1].is_empty() && parts[2].is_empty() && parts[3].is_empty());
    }
}
