//! Serving-layer metrics: request counters, coalescing/batching gauges, and a
//! log2-bucketed latency histogram with monotone p50/p95/p99 read-out,
//! rendered as a `/metrics`-style text page.
//!
//! The histogram buckets latencies by power of two (bucket *i* covers
//! `[2^i, 2^(i+1))` microseconds), so recording is O(1) and a quantile is one
//! cumulative walk. Quantiles report the bucket's upper edge: p50 ≤ p95 ≤ p99
//! holds by construction, which `tests/bench_gate.rs` relies on.

use std::sync::{Mutex, PoisonError};

use pipeline::DashboardCounters;
use serde::{Deserialize, Serialize};

/// Histogram width: bucket 31 covers ~36 minutes, far beyond any suggest.
const BUCKETS: usize = 32;

/// Per-shard counter block: the suggest-path counters that are attributable
/// to one signature-hash shard, plus that shard's own latency histogram.
#[derive(Debug, Default)]
struct ShardInner {
    suggests: u64,
    backend_evals: u64,
    coalesced_hits: u64,
    overloaded: u64,
    latency_counts: [u64; BUCKETS],
    latency_total: u64,
}

#[derive(Debug)]
struct Inner {
    suggests: u64,
    reports: u64,
    healths: u64,
    metrics_requests: u64,
    shutdowns: u64,
    overloaded: u64,
    protocol_errors: u64,
    backend_evals: u64,
    coalesced_hits: u64,
    transfer_served: u64,
    batch_max: u64,
    latency_counts: [u64; BUCKETS],
    latency_total: u64,
    shards: Vec<ShardInner>,
}

impl Default for Inner {
    fn default() -> Inner {
        Inner {
            suggests: 0,
            reports: 0,
            healths: 0,
            metrics_requests: 0,
            shutdowns: 0,
            overloaded: 0,
            protocol_errors: 0,
            backend_evals: 0,
            coalesced_hits: 0,
            transfer_served: 0,
            batch_max: 0,
            latency_counts: [0; BUCKETS],
            latency_total: 0,
            shards: Vec::new(),
        }
    }
}

/// Shared, thread-safe serving metrics; one instance per server.
#[derive(Debug, Default)]
pub(crate) struct ServeMetrics {
    inner: Mutex<Inner>,
}

impl ServeMetrics {
    /// Metrics with one per-shard counter block per shard. `Default` (zero
    /// shard blocks) is only for unsharded unit tests — the server always
    /// sizes the blocks to its lane count.
    pub(crate) fn with_shards(shards: usize) -> ServeMetrics {
        let m = ServeMetrics::default();
        m.with(|i| i.shards = (0..shards).map(|_| ShardInner::default()).collect());
        m
    }

    fn with<R>(&self, f: impl FnOnce(&mut Inner) -> R) -> R {
        f(&mut self.inner.lock().unwrap_or_else(PoisonError::into_inner))
    }

    pub(crate) fn count_suggest(&self, shard: usize) {
        self.with(|i| {
            i.suggests = i.suggests.saturating_add(1);
            if let Some(s) = i.shards.get_mut(shard) {
                s.suggests = s.suggests.saturating_add(1);
            }
        });
    }

    pub(crate) fn count_report(&self) {
        self.with(|i| i.reports = i.reports.saturating_add(1));
    }

    pub(crate) fn count_health(&self) {
        self.with(|i| i.healths = i.healths.saturating_add(1));
    }

    pub(crate) fn count_metrics(&self) {
        self.with(|i| i.metrics_requests = i.metrics_requests.saturating_add(1));
    }

    pub(crate) fn count_shutdown(&self) {
        self.with(|i| i.shutdowns = i.shutdowns.saturating_add(1));
    }

    /// A shed at the accept gate or the frame budget, attributable to no
    /// shard.
    pub(crate) fn count_overloaded(&self) {
        self.with(|i| i.overloaded = i.overloaded.saturating_add(1));
    }

    /// A suggest-gate shed on one shard's admission gate.
    pub(crate) fn count_shard_overloaded(&self, shard: usize) {
        self.with(|i| {
            i.overloaded = i.overloaded.saturating_add(1);
            if let Some(s) = i.shards.get_mut(shard) {
                s.overloaded = s.overloaded.saturating_add(1);
            }
        });
    }

    pub(crate) fn count_protocol_error(&self) {
        self.with(|i| i.protocol_errors = i.protocol_errors.saturating_add(1));
    }

    pub(crate) fn count_backend_eval(&self, shard: usize) {
        self.with(|i| {
            i.backend_evals = i.backend_evals.saturating_add(1);
            if let Some(s) = i.shards.get_mut(shard) {
                s.backend_evals = s.backend_evals.saturating_add(1);
            }
        });
    }

    pub(crate) fn count_coalesced_hit(&self, shard: usize) {
        self.with(|i| {
            i.coalesced_hits = i.coalesced_hits.saturating_add(1);
            if let Some(s) = i.shards.get_mut(shard) {
                s.coalesced_hits = s.coalesced_hits.saturating_add(1);
            }
        });
    }

    /// A suggestion answered with a config transferred from the retrieval
    /// corpus (a cold signature served without executing anything).
    pub(crate) fn count_transfer_served(&self) {
        self.with(|i| i.transfer_served = i.transfer_served.saturating_add(1));
    }

    /// Track the largest batch (requests served by one backend evaluation).
    pub(crate) fn observe_batch(&self, size: u64) {
        self.with(|i| i.batch_max = i.batch_max.max(size));
    }

    /// Record one request's service latency.
    pub(crate) fn record_latency_us(&self, us: u64) {
        let bucket = bucket_of(us);
        self.with(|i| {
            if let Some(c) = i.latency_counts.get_mut(bucket) {
                *c = c.saturating_add(1);
            }
            i.latency_total = i.latency_total.saturating_add(1);
        });
    }

    /// Record one suggest's latency against its shard's own histogram.
    pub(crate) fn record_shard_latency_us(&self, shard: usize, us: u64) {
        let bucket = bucket_of(us);
        self.with(|i| {
            if let Some(s) = i.shards.get_mut(shard) {
                if let Some(c) = s.latency_counts.get_mut(bucket) {
                    *c = c.saturating_add(1);
                }
                s.latency_total = s.latency_total.saturating_add(1);
            }
        });
    }

    /// One-copy snapshot; the admission gauges are sampled by the caller
    /// (they live in the server's admission counters, not here).
    pub(crate) fn snapshot(&self, queue_depth: u64, inflight: u64) -> MetricsSnapshot {
        self.with(|i| MetricsSnapshot {
            suggests: i.suggests,
            reports: i.reports,
            healths: i.healths,
            metrics_requests: i.metrics_requests,
            shutdowns: i.shutdowns,
            overloaded: i.overloaded,
            protocol_errors: i.protocol_errors,
            backend_evals: i.backend_evals,
            coalesced_hits: i.coalesced_hits,
            transfer_served: i.transfer_served,
            batch_max: i.batch_max,
            queue_depth,
            inflight,
            p50_us: quantile(&i.latency_counts, i.latency_total, 0.50),
            p95_us: quantile(&i.latency_counts, i.latency_total, 0.95),
            p99_us: quantile(&i.latency_counts, i.latency_total, 0.99),
            shards: i
                .shards
                .iter()
                .enumerate()
                .map(|(n, s)| ShardMetricsSnapshot {
                    shard: n as u64,
                    suggests: s.suggests,
                    backend_evals: s.backend_evals,
                    coalesced_hits: s.coalesced_hits,
                    overloaded: s.overloaded,
                    p50_us: quantile(&s.latency_counts, s.latency_total, 0.50),
                    p99_us: quantile(&s.latency_counts, s.latency_total, 0.99),
                })
                .collect(),
        })
    }
}

/// The bucket index covering `us` microseconds.
// rhlint:hot — runs on every request latency sample; pure bit math, no alloc
fn bucket_of(us: u64) -> usize {
    if us == 0 {
        return 0;
    }
    let log2 = (u64::BITS - 1 - us.leading_zeros()) as usize;
    log2.min(BUCKETS - 1)
}

/// The `q`-quantile's bucket upper edge in microseconds; 0 with no samples.
fn quantile(counts: &[u64; BUCKETS], total: u64, q: f64) -> u64 {
    if total == 0 {
        return 0;
    }
    let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
    let mut cum = 0u64;
    for (i, &c) in counts.iter().enumerate() {
        cum = cum.saturating_add(c);
        if cum >= rank {
            return upper_edge(i);
        }
    }
    upper_edge(BUCKETS - 1)
}

/// Upper edge of bucket `i`: `2^(i+1) - 1` microseconds.
fn upper_edge(i: usize) -> u64 {
    1u64.checked_shl(u32::try_from(i).unwrap_or(u32::MAX).saturating_add(1))
        .map(|v| v - 1)
        .unwrap_or(u64::MAX)
}

/// One shard's slice of the suggest-path counters, plus its own latency
/// percentiles — the per-shard half of `BENCH_serve.json`'s `sharding` block.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardMetricsSnapshot {
    /// Shard index (the `shard_of` routing target).
    pub shard: u64,
    /// `Suggest` frames routed to this shard.
    pub suggests: u64,
    /// Suggest evaluations this shard's backend actually ran.
    pub backend_evals: u64,
    /// Suggests served from a shared evaluation on this shard.
    pub coalesced_hits: u64,
    /// Suggests shed at this shard's admission gate.
    pub overloaded: u64,
    /// Median suggest latency on this shard (bucket upper edge), µs.
    pub p50_us: u64,
    /// 99th-percentile suggest latency on this shard, µs.
    pub p99_us: u64,
}

/// A point-in-time copy of every serving counter and the latency percentiles.
/// Carried verbatim inside `Response::MetricsReport` and folded into
/// `BENCH_serve.json` by the load generator.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// `Suggest` frames handled (including coalesced and shed ones).
    pub suggests: u64,
    /// `Report` frames handled.
    pub reports: u64,
    /// `Health` frames handled.
    pub healths: u64,
    /// `Metrics` frames handled.
    pub metrics_requests: u64,
    /// `Shutdown` frames handled.
    pub shutdowns: u64,
    /// Requests shed by admission control.
    pub overloaded: u64,
    /// Frames rejected as truncated/oversized/malformed/wrong-version.
    pub protocol_errors: u64,
    /// Suggest evaluations that actually reached the autotune backend.
    pub backend_evals: u64,
    /// Suggest requests served from a shared evaluation instead of their own.
    pub coalesced_hits: u64,
    /// Suggestions answered with a config transferred from the retrieval
    /// corpus (cold signatures served without executing anything).
    pub transfer_served: u64,
    /// Largest number of requests served by a single backend evaluation.
    pub batch_max: u64,
    /// Open connections when the snapshot was taken: the value the accept
    /// gate compares with `max_conns`. Named for wire compatibility.
    pub queue_depth: u64,
    /// Suggest evaluations in flight when the snapshot was taken.
    pub inflight: u64,
    /// Median service latency (bucket upper edge), microseconds.
    pub p50_us: u64,
    /// 95th-percentile service latency, microseconds.
    pub p95_us: u64,
    /// 99th-percentile service latency, microseconds.
    pub p99_us: u64,
    /// Per-shard suggest-path counters, index = shard id. Empty only for
    /// metrics built without shard blocks (unit tests).
    pub shards: Vec<ShardMetricsSnapshot>,
}

/// Render the `/metrics`-style text page: `name value` per line, serving
/// counters first, then the pipeline dashboard counters.
pub(crate) fn render_text(s: &MetricsSnapshot, d: &DashboardCounters) -> String {
    let mut out = String::new();
    for (name, value) in [
        ("rockserve_requests_suggest", s.suggests),
        ("rockserve_requests_report", s.reports),
        ("rockserve_requests_health", s.healths),
        ("rockserve_requests_metrics", s.metrics_requests),
        ("rockserve_requests_shutdown", s.shutdowns),
        ("rockserve_overloaded", s.overloaded),
        ("rockserve_protocol_errors", s.protocol_errors),
        ("rockserve_backend_evals", s.backend_evals),
        ("rockserve_coalesced_hits", s.coalesced_hits),
        ("rockserve_transfer_served", s.transfer_served),
        ("rockserve_batch_max", s.batch_max),
        ("rockserve_queue_depth", s.queue_depth),
        ("rockserve_inflight", s.inflight),
        ("rockserve_latency_p50_us", s.p50_us),
        ("rockserve_latency_p95_us", s.p95_us),
        ("rockserve_latency_p99_us", s.p99_us),
        ("pipeline_ingested_records", d.ingested_records),
        ("pipeline_failed_runs", d.failed_runs),
        ("pipeline_quarantined_lines", d.quarantined_lines),
        ("pipeline_tracked_signatures", d.tracked_signatures),
        ("pipeline_wal_records_written", d.wal_records_written),
        (
            "pipeline_wal_records_quarantined",
            d.wal_records_quarantined,
        ),
        ("pipeline_snapshot_writes", d.snapshot_writes),
        ("pipeline_recovery_replayed", d.recovery_replayed),
        ("pipeline_tuner_evictions", d.tuner_evictions),
        ("pipeline_evicted_restored", d.evicted_restored),
        ("pipeline_cold_hits", d.cold_hits),
        ("pipeline_cold_misses", d.cold_misses),
        ("pipeline_transfer_seeded", d.transfer_seeded),
    ] {
        out.push_str(name);
        out.push(' ');
        out.push_str(&value.to_string());
        out.push('\n');
    }
    for shard in &s.shards {
        for (family, value) in [
            ("suggests", shard.suggests),
            ("backend_evals", shard.backend_evals),
            ("coalesced_hits", shard.coalesced_hits),
            ("overloaded", shard.overloaded),
            ("latency_p50_us", shard.p50_us),
            ("latency_p99_us", shard.p99_us),
        ] {
            out.push_str(&format!(
                "rockserve_shard{}_{family} {value}\n",
                shard.shard
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_cover_the_log2_ranges() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 0);
        assert_eq!(bucket_of(2), 1);
        assert_eq!(bucket_of(3), 1);
        assert_eq!(bucket_of(1024), 10);
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn quantiles_are_monotone_and_cover_the_samples() {
        let m = ServeMetrics::default();
        for us in [10u64, 20, 40, 80, 5000, 100_000] {
            m.record_latency_us(us);
        }
        let s = m.snapshot(0, 0);
        assert!(s.p50_us <= s.p95_us && s.p95_us <= s.p99_us);
        assert!(s.p50_us >= 40, "median above the low samples: {}", s.p50_us);
        assert!(s.p99_us >= 100_000, "tail covers the slowest: {}", s.p99_us);
    }

    #[test]
    fn empty_histogram_reports_zero_quantiles() {
        let s = ServeMetrics::default().snapshot(3, 1);
        assert_eq!((s.p50_us, s.p95_us, s.p99_us), (0, 0, 0));
        assert_eq!((s.queue_depth, s.inflight), (3, 1));
    }

    #[test]
    fn render_includes_every_counter_family() {
        let m = ServeMetrics::default();
        m.count_suggest(0);
        m.count_backend_eval(0);
        m.observe_batch(64);
        let text = render_text(&m.snapshot(0, 0), &DashboardCounters::default());
        assert!(text.contains("rockserve_requests_suggest 1"), "{text}");
        assert!(text.contains("rockserve_batch_max 64"), "{text}");
        assert!(text.contains("pipeline_ingested_records 0"), "{text}");
        assert!(text.contains("pipeline_wal_records_written 0"), "{text}");
        assert!(text.contains("pipeline_recovery_replayed 0"), "{text}");
        assert!(text.contains("pipeline_tuner_evictions 0"), "{text}");
        assert!(text.contains("pipeline_evicted_restored 0"), "{text}");
        assert!(text.contains("rockserve_transfer_served 0"), "{text}");
        assert!(text.contains("pipeline_cold_hits 0"), "{text}");
        assert!(text.contains("pipeline_cold_misses 0"), "{text}");
        assert!(text.contains("pipeline_transfer_seeded 0"), "{text}");
        assert_eq!(text.lines().count(), 29);
    }

    #[test]
    fn shard_counters_split_by_shard_and_render_per_shard_lines() {
        let m = ServeMetrics::with_shards(2);
        m.count_suggest(0);
        m.count_suggest(1);
        m.count_suggest(1);
        m.count_backend_eval(1);
        m.count_coalesced_hit(1);
        m.count_shard_overloaded(0);
        m.record_shard_latency_us(1, 500);
        let snap = m.snapshot(0, 0);
        assert_eq!(snap.shards.len(), 2);
        assert_eq!(snap.shards[0].suggests, 1);
        assert_eq!(snap.shards[1].suggests, 2);
        assert_eq!(snap.shards[1].backend_evals, 1);
        assert_eq!(snap.shards[1].coalesced_hits, 1);
        assert_eq!(snap.shards[0].overloaded, 1);
        assert!(snap.shards[1].p99_us >= 500);
        assert_eq!(snap.shards[0].p50_us, 0);
        // The shard gates also feed the fleet totals.
        assert_eq!(snap.suggests, 3);
        assert_eq!(snap.overloaded, 1);
        let text = render_text(&snap, &DashboardCounters::default());
        assert!(text.contains("rockserve_shard0_suggests 1"), "{text}");
        assert!(text.contains("rockserve_shard1_suggests 2"), "{text}");
        assert_eq!(text.lines().count(), 29 + 2 * 6);
    }

    #[test]
    fn out_of_range_shard_indexes_are_ignored_not_panicked() {
        let m = ServeMetrics::with_shards(1);
        m.count_suggest(5);
        m.count_backend_eval(5);
        m.record_shard_latency_us(5, 100);
        let snap = m.snapshot(0, 0);
        assert_eq!(snap.suggests, 1, "fleet total still counted");
        assert_eq!(snap.shards.len(), 1);
        assert_eq!(snap.shards[0].suggests, 0);
    }
}
