//! The served-suggestion memo (DESIGN.md §10): one per shard, so a repeated
//! Suggest gets the answer its first evaluation gave instead of advancing the
//! tuner again.
//!
//! Only the shard's [`crate::AutotuneBackend`] writes it: every suggestion
//! it computes is inserted, and every report drops the reporting tenant's
//! entries for the signatures the report mentions. WAL replay re-runs those
//! same calls, and the compacted snapshot carries the entries, so a recovered
//! shard holds exactly the memo its crashed predecessor did. Serving workers
//! read hits through a cloned handle ([`crate::AutotuneClient::memo_hit`])
//! without a hop to the shard thread.
//!
//! Entries are grouped by signature, and a key matches on the tenant and on
//! every context field bit for bit (`f64::to_bits`), so lookups need no
//! encoding and a report drops its signatures' entries by lookup.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use optimizers::tuner::TuningContext;
use rockindex::Provenance;

use crate::durability::ServedEntry;

/// A suggestion as a shard serves it.
#[derive(Debug, Clone, PartialEq)]
pub struct Served {
    /// The configuration.
    pub point: Vec<f64>,
    /// Whether it came from the retrieval corpus or the tuner.
    pub provenance: Provenance,
    /// `true` when the memo answered, `false` for a fresh evaluation.
    pub hit: bool,
    /// Requests the memo entry has answered so far, this one included.
    pub batch: u64,
}

#[derive(Debug)]
struct Entry {
    user: String,
    ctx: TuningContext,
    point: Vec<f64>,
    provenance: Provenance,
    /// Requests answered, the evaluation included. Not persisted.
    served: u64,
}

impl Entry {
    fn matches(&self, user: &str, ctx: &TuningContext) -> bool {
        self.user == user
            && self.ctx.iteration == ctx.iteration
            && self.ctx.expected_data_size.to_bits() == ctx.expected_data_size.to_bits()
            && self.ctx.embedding.len() == ctx.embedding.len()
            && self
                .ctx
                .embedding
                .iter()
                .zip(&ctx.embedding)
                .all(|(a, b)| a.to_bits() == b.to_bits())
    }
}

/// One shard's memo. Clones are handles onto the same entries.
#[derive(Debug, Clone, Default)]
pub struct SuggestMemo {
    by_signature: Arc<Mutex<BTreeMap<u64, Vec<Entry>>>>,
}

impl SuggestMemo {
    fn lock(&self) -> MutexGuard<'_, BTreeMap<u64, Vec<Entry>>> {
        self.by_signature
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// The memoized answer for `(user, signature, ctx)`, counting the hit;
    /// `None` on a miss.
    pub fn hit(&self, user: &str, signature: u64, ctx: &TuningContext) -> Option<Served> {
        let mut map = self.lock();
        let entry = map
            .get_mut(&signature)?
            .iter_mut()
            .find(|e| e.matches(user, ctx))?;
        entry.served = entry.served.saturating_add(1);
        Some(Served {
            point: entry.point.clone(),
            provenance: entry.provenance,
            hit: true,
            batch: entry.served,
        })
    }

    /// Remember a freshly evaluated suggestion, replacing any entry for the
    /// same key.
    pub(crate) fn insert(
        &self,
        user: &str,
        signature: u64,
        ctx: &TuningContext,
        point: &[f64],
        provenance: Provenance,
    ) {
        let mut map = self.lock();
        let entries = map.entry(signature).or_default();
        match entries.iter_mut().find(|e| e.matches(user, ctx)) {
            Some(e) => {
                e.point = point.to_vec();
                e.provenance = provenance;
                e.served = 1;
            }
            None => entries.push(Entry {
                user: user.to_string(),
                ctx: ctx.clone(),
                point: point.to_vec(),
                provenance,
                served: 1,
            }),
        }
    }

    /// Drop `user`'s entries for every signature in `signatures`.
    pub(crate) fn invalidate(&self, user: &str, signatures: &[u64]) {
        let mut map = self.lock();
        for sig in signatures {
            if let Some(entries) = map.get_mut(sig) {
                entries.retain(|e| e.user != user);
                if entries.is_empty() {
                    map.remove(sig);
                }
            }
        }
    }

    /// Every entry, in signature order then insertion order.
    pub(crate) fn entries(&self) -> Vec<ServedEntry> {
        self.lock()
            .iter()
            .flat_map(|(&signature, entries)| {
                entries.iter().map(move |e| ServedEntry {
                    user: e.user.clone(),
                    signature,
                    ctx: e.ctx.clone(),
                    point: e.point.clone(),
                    provenance: e.provenance,
                })
            })
            .collect()
    }

    /// Replace the contents with a snapshot's entries.
    pub(crate) fn restore(&self, entries: Vec<ServedEntry>) {
        let mut map = self.lock();
        map.clear();
        for e in entries {
            map.entry(e.signature).or_default().push(Entry {
                user: e.user,
                ctx: e.ctx,
                point: e.point,
                provenance: e.provenance,
                served: 1,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(x: f64) -> TuningContext {
        TuningContext {
            embedding: vec![x, 0.5],
            expected_data_size: 2.0,
            iteration: 0,
        }
    }

    #[test]
    fn hits_match_tenant_and_context_bit_for_bit() {
        let memo = SuggestMemo::default();
        assert_eq!(memo.hit("u", 7, &ctx(0.25)), None);
        memo.insert("u", 7, &ctx(0.25), &[1.0, 2.0], Provenance::Explored);
        let hit = memo.hit("u", 7, &ctx(0.25)).expect("same key hits");
        assert_eq!(hit.point, vec![1.0, 2.0]);
        assert!(hit.hit);
        assert_eq!(hit.batch, 2, "the evaluation plus this hit");
        assert_eq!(memo.hit("v", 7, &ctx(0.25)), None, "other tenant");
        assert_eq!(memo.hit("u", 8, &ctx(0.25)), None, "other signature");
        memo.insert("u", 7, &ctx(0.0), &[3.0], Provenance::Explored);
        assert_eq!(memo.hit("u", 7, &ctx(-0.0)), None, "-0.0 is not 0.0");
    }

    #[test]
    fn invalidation_drops_only_the_tenants_reported_signatures() {
        let memo = SuggestMemo::default();
        memo.insert("u", 1, &ctx(0.1), &[1.0], Provenance::Explored);
        memo.insert("u", 2, &ctx(0.1), &[2.0], Provenance::Transferred);
        memo.insert("v", 1, &ctx(0.1), &[3.0], Provenance::Explored);
        memo.invalidate("u", &[1, 9]);
        assert_eq!(memo.hit("u", 1, &ctx(0.1)), None);
        assert!(memo.hit("u", 2, &ctx(0.1)).is_some());
        assert!(memo.hit("v", 1, &ctx(0.1)).is_some());
    }

    #[test]
    fn entries_round_trip_in_signature_order_with_fresh_hit_counts() {
        let memo = SuggestMemo::default();
        memo.insert("u", 9, &ctx(0.1), &[9.0], Provenance::Explored);
        memo.insert("u", 3, &ctx(0.1), &[3.0], Provenance::Transferred);
        memo.insert("v", 3, &ctx(0.2), &[4.0], Provenance::Explored);
        let _ = memo.hit("u", 9, &ctx(0.1));
        let entries = memo.entries();
        let order: Vec<(u64, &str)> = entries
            .iter()
            .map(|e| (e.signature, e.user.as_str()))
            .collect();
        assert_eq!(order, vec![(3, "u"), (3, "v"), (9, "u")]);
        let restored = SuggestMemo::default();
        restored.restore(entries);
        let hit = restored.hit("u", 9, &ctx(0.1)).expect("restored");
        assert_eq!((hit.point, hit.batch), (vec![9.0], 2));
        let hit = restored.hit("u", 3, &ctx(0.1)).expect("restored");
        assert_eq!(hit.provenance, Provenance::Transferred);
    }
}
