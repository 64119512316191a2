//! Deterministic exact-scan k-NN over L2-normalized corpus embeddings.
//!
//! The determinism contract (DESIGN.md §12): ranking is a pure function of
//! `(corpus, query)`. A query scans every row once and keeps only its top
//! `k` — it never sorts the corpus. Similarities compare with
//! `f64::total_cmp`, and an exact tie keeps the earlier row; rows are held
//! in ascending signature order (the corpus `BTreeMap` order), so ties break
//! to the **smaller signature** — no seed, no hash order, no wall clock.
//! The same corpus therefore ranks the same neighbors on every shard, at
//! every thread count, before and after a kill-and-recover of its lineage.

use crate::corpus::Corpus;

/// One ranked corpus neighbor, carrying everything the transfer handoff
/// needs (the best point to serve, and the cost summary to discount).
#[derive(Clone, Debug, PartialEq)]
pub struct Neighbor {
    /// The corpus signature this neighbor came from.
    pub signature: u64,
    /// Cosine similarity in `[-1, 1]` against the query embedding.
    pub similarity: f64,
    /// The neighbor's best-observed configuration point.
    pub best_point: Vec<f64>,
    /// Observations backing the neighbor's summary.
    pub observations: u64,
    /// Elapsed milliseconds of the neighbor's best observation.
    pub best_elapsed_ms: f64,
    /// Mean elapsed milliseconds across the neighbor's observations.
    pub mean_elapsed_ms: f64,
    /// Data size (GB) the neighbor's best observation ran at.
    pub data_size: f64,
}

/// One indexed row: the unit-normalized embedding plus the payload.
struct Row {
    signature: u64,
    unit: Vec<f64>,
    best_point: Vec<f64>,
    observations: u64,
    best_elapsed_ms: f64,
    mean_elapsed_ms: f64,
    data_size: f64,
}

/// An immutable exact-scan index built from a corpus snapshot. Rebuild it
/// after corpus mutations; queries never mutate.
pub struct KnnIndex {
    rows: Vec<Row>,
}

impl KnnIndex {
    /// Build the index: one row per corpus entry, in ascending signature
    /// order, which [`KnnIndex::query`]'s tie-break relies on. Entries whose
    /// embedding has no direction (zero norm) cannot be ranked by cosine
    /// similarity and are skipped.
    pub fn build(corpus: &Corpus) -> KnnIndex {
        let mut rows = Vec::new();
        for entry in corpus.entries() {
            if let Some(unit) = normalize(&entry.embedding) {
                rows.push(Row {
                    signature: entry.signature,
                    unit,
                    best_point: entry.best_point.clone(),
                    observations: entry.observations,
                    best_elapsed_ms: entry.best_elapsed_ms,
                    mean_elapsed_ms: entry.mean_elapsed_ms,
                    data_size: entry.data_size,
                });
            }
        }
        KnnIndex { rows }
    }

    /// Indexed row count.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the index holds no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The top `k` neighbors of `embedding`, ranked by descending cosine
    /// similarity with ties to the smaller signature. Empty when the query
    /// has no direction or the index is empty.
    pub fn query(&self, embedding: &[f64], k: usize) -> Vec<Neighbor> {
        let Some(unit) = normalize(embedding) else {
            return Vec::new();
        };
        let mut top: Vec<(f64, &Row)> = Vec::with_capacity(k.min(self.rows.len()));
        for row in &self.rows {
            let similarity = dot(&row.unit, &unit);
            let beats_worst = top
                .last()
                .is_some_and(|(w, _)| similarity.total_cmp(w).is_gt());
            if top.len() < k || beats_worst {
                let at = top.partition_point(|(s, _)| s.total_cmp(&similarity).is_ge());
                top.insert(at, (similarity, row));
                top.truncate(k);
            }
        }
        top.into_iter()
            .map(|(similarity, row)| Neighbor {
                signature: row.signature,
                similarity,
                best_point: row.best_point.clone(),
                observations: row.observations,
                best_elapsed_ms: row.best_elapsed_ms,
                mean_elapsed_ms: row.mean_elapsed_ms,
                data_size: row.data_size,
            })
            .collect()
    }
}

/// When (and how) a neighbor is trusted enough to transfer.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TransferPolicy {
    /// Neighbors considered per lookup.
    pub k: usize,
    /// Minimum cosine similarity for a transfer (below ⇒ cold miss).
    pub min_similarity: f64,
    /// Trust discount: transferred observations are seeded into the tuner
    /// history with elapsed time inflated by `1 + trust_margin`, so local
    /// real observations outrank the borrowed prior as soon as they match.
    pub trust_margin: f64,
}

impl Default for TransferPolicy {
    fn default() -> TransferPolicy {
        TransferPolicy {
            k: 3,
            min_similarity: 0.80,
            trust_margin: 0.25,
        }
    }
}

impl TransferPolicy {
    /// The neighbors eligible for transfer: the top `k`, filtered to those
    /// at or above `min_similarity`. The first element (if any) is the one
    /// whose best point gets served.
    pub fn eligible(&self, index: &KnnIndex, embedding: &[f64]) -> Vec<Neighbor> {
        index
            .query(embedding, self.k)
            .into_iter()
            .filter(|n| n.similarity >= self.min_similarity)
            .collect()
    }

    /// The single transfer source for a cold lookup, if any.
    pub fn lookup(&self, index: &KnnIndex, embedding: &[f64]) -> Option<Neighbor> {
        self.eligible(index, embedding).into_iter().next()
    }

    /// The trust-discounted elapsed time to seed for a neighbor.
    pub fn discounted_elapsed_ms(&self, neighbor: &Neighbor) -> f64 {
        neighbor.best_elapsed_ms * (1.0 + self.trust_margin)
    }
}

/// L2-normalize; `None` when the vector has no direction.
fn normalize(v: &[f64]) -> Option<Vec<f64>> {
    let norm = dot(v, v).sqrt();
    if !norm.is_finite() || norm <= 0.0 {
        return None;
    }
    Some(v.iter().map(|x| x / norm).collect())
}

/// Dot product over the shared prefix (shorter vector zero-padded).
fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b.iter()).map(|(x, y)| x * y).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::CorpusEntry;
    use proptest::prelude::*;

    fn corpus_of(entries: &[(u64, Vec<f64>)]) -> Corpus {
        let mut corpus = Corpus::in_memory();
        for (signature, embedding) in entries {
            corpus
                .upsert(CorpusEntry {
                    signature: *signature,
                    embedding: embedding.clone(),
                    best_point: vec![*signature as f64],
                    observations: 4,
                    best_elapsed_ms: 100.0,
                    mean_elapsed_ms: 120.0,
                    data_size: 1.0,
                })
                .expect("in-memory upsert");
        }
        corpus
    }

    /// The reference ranking: score every row, sort the whole corpus by
    /// descending similarity then ascending signature, and keep `k`.
    fn reference_query(index: &KnnIndex, embedding: &[f64], k: usize) -> Vec<Neighbor> {
        let Some(unit) = normalize(embedding) else {
            return Vec::new();
        };
        let mut ranked: Vec<(f64, &Row)> = index
            .rows
            .iter()
            .map(|row| (dot(&row.unit, &unit), row))
            .collect();
        ranked.sort_by(|(sim_a, a), (sim_b, b)| {
            sim_b
                .total_cmp(sim_a)
                .then_with(|| a.signature.cmp(&b.signature))
        });
        ranked
            .into_iter()
            .take(k)
            .map(|(similarity, row)| Neighbor {
                signature: row.signature,
                similarity,
                best_point: row.best_point.clone(),
                observations: row.observations,
                best_elapsed_ms: row.best_elapsed_ms,
                mean_elapsed_ms: row.mean_elapsed_ms,
                data_size: row.data_size,
            })
            .collect()
    }

    /// Every field of a neighbor, floats as bits, so `-0.0` and `0.0` differ.
    fn bits(n: &Neighbor) -> (u64, u64, Vec<u64>, u64, u64, u64, u64) {
        (
            n.signature,
            n.similarity.to_bits(),
            n.best_point.iter().map(|x| x.to_bits()).collect(),
            n.observations,
            n.best_elapsed_ms.to_bits(),
            n.mean_elapsed_ms.to_bits(),
            n.data_size.to_bits(),
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The streaming top-k ranks exactly what the full sort ranks, bit
        /// for bit. Embeddings have 1–4 dims (`dot` uses the shared prefix);
        /// `coarse` rounds them to {-2, …, 2}, so duplicate embeddings,
        /// exact ties and zero-norm rows and queries are common.
        #[test]
        fn query_matches_the_reference_ranking(
            coarse: bool,
            rows in prop::collection::vec(
                (0..64u64, prop::collection::vec(-2.0..2.0f64, 1..5)),
                0..40,
            ),
            queries in prop::collection::vec(prop::collection::vec(-2.0..2.0f64, 1..5), 1..4),
        ) {
            let quantise = |v: &Vec<f64>| -> Vec<f64> {
                if coarse { v.iter().map(|x| x.round()).collect() } else { v.clone() }
            };
            let entries: Vec<(u64, Vec<f64>)> =
                rows.iter().map(|(sig, e)| (*sig, quantise(e))).collect();
            let index = KnnIndex::build(&corpus_of(&entries));
            let n = index.len();
            let mut queries: Vec<Vec<f64>> = queries.iter().map(quantise).collect();
            queries.push(vec![0.0; 3]);
            queries.extend(entries.first().map(|(_, e)| e.clone()));
            for query in &queries {
                for k in [0, 1, 3, n, n + 1, usize::MAX] {
                    let got: Vec<_> = index.query(query, k).iter().map(bits).collect();
                    let want: Vec<_> =
                        reference_query(&index, query, k).iter().map(bits).collect();
                    prop_assert_eq!(got, want, "k = {}, query = {:?}", k, query);
                }
            }
        }
    }

    #[test]
    fn ranks_by_cosine_similarity() {
        let corpus = corpus_of(&[
            (1, vec![1.0, 0.0]),
            (2, vec![0.0, 1.0]),
            (3, vec![1.0, 1.0]),
        ]);
        let index = KnnIndex::build(&corpus);
        let got = index.query(&[1.0, 0.1], 3);
        assert_eq!(got.len(), 3);
        assert_eq!(got[0].signature, 1, "nearest direction wins");
        assert_eq!(got[1].signature, 3);
        assert_eq!(got[2].signature, 2);
        assert!(got[0].similarity > got[1].similarity);
    }

    #[test]
    fn exact_ties_break_to_the_smaller_signature() {
        // Same embedding under three signatures: ranking must be 7, 9, 11
        // regardless of insertion order.
        let corpus = corpus_of(&[
            (11, vec![3.0, 4.0]),
            (7, vec![3.0, 4.0]),
            (9, vec![3.0, 4.0]),
        ]);
        let index = KnnIndex::build(&corpus);
        let sigs: Vec<u64> = index
            .query(&[3.0, 4.0], 3)
            .iter()
            .map(|n| n.signature)
            .collect();
        assert_eq!(sigs, vec![7, 9, 11], "ties must break by signature");
    }

    #[test]
    fn scaling_does_not_change_the_ranking() {
        let corpus = corpus_of(&[(1, vec![2.0, 1.0]), (2, vec![1.0, 2.0])]);
        let index = KnnIndex::build(&corpus);
        let small = index.query(&[2.0, 1.0], 2);
        let big = index.query(&[200.0, 100.0], 2);
        assert_eq!(small, big, "cosine similarity must be scale-invariant");
    }

    #[test]
    fn zero_norm_queries_and_rows_are_unrankable() {
        let corpus = corpus_of(&[(1, vec![0.0, 0.0]), (2, vec![1.0, 0.0])]);
        let index = KnnIndex::build(&corpus);
        assert_eq!(index.len(), 1, "zero-norm rows are skipped");
        assert!(index.query(&[0.0, 0.0], 3).is_empty());
    }

    #[test]
    fn the_policy_gates_on_min_similarity() {
        let corpus = corpus_of(&[(1, vec![1.0, 0.0])]);
        let index = KnnIndex::build(&corpus);
        let policy = TransferPolicy::default();
        assert!(
            policy.lookup(&index, &[1.0, 0.05]).is_some(),
            "a near-parallel query must transfer"
        );
        assert!(
            policy.lookup(&index, &[0.0, 1.0]).is_none(),
            "an orthogonal query must cold-miss"
        );
    }

    #[test]
    fn the_trust_discount_inflates_elapsed_time() {
        let policy = TransferPolicy::default();
        let neighbor = Neighbor {
            signature: 1,
            similarity: 1.0,
            best_point: vec![],
            observations: 4,
            best_elapsed_ms: 100.0,
            mean_elapsed_ms: 120.0,
            data_size: 1.0,
        };
        assert!(policy.discounted_elapsed_ms(&neighbor) > neighbor.best_elapsed_ms);
    }
}
