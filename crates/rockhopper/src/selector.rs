//! Candidate selection — Step 2 of the online loop: given the neighborhood `C(e_t)`,
//! pick the configuration to actually run.
//!
//! Selection is pluggable because the paper exercises three variants: the production
//! path (window surrogate with an offline-baseline warm start), the §6.1 accuracy
//! study (Level-X pseudo-surrogates that need an oracle), and a random control.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use ml::pseudo::PercentileSelector;
use ml::Regressor;
use optimizers::space::ConfigSpace;
use optimizers::tuner::{History, TuningContext};

use crate::baseline::BaselineModel;
use crate::find_best::{fit_window_model, h_features};

/// Picks one candidate index from a generated candidate set.
pub trait CandidateSelector: std::fmt::Debug {
    /// Choose an index into `candidates` (raw-unit points). `history` carries the
    /// query's own observations; `ctx` the compile-time context of the next run.
    fn select(
        &mut self,
        space: &ConfigSpace,
        candidates: &[Vec<f64>],
        ctx: &TuningContext,
        history: &History,
    ) -> usize;

    /// Export the selector's raw RNG state for bit-exact checkpointing
    /// (the durability layer's recovery contract: a restored selector must
    /// continue the *same* random-fallback stream, not restart it from the
    /// seed). Stateless selectors have nothing to save.
    fn rng_state(&self) -> Option<[u64; 4]> {
        None
    }

    /// Re-inject state exported by [`CandidateSelector::rng_state`].
    /// No-op for stateless selectors.
    fn restore_rng_state(&mut self, _state: [u64; 4]) {}
}

/// The production selector: score candidates with the window model `H` when enough
/// query-specific data exists, fall back to the offline baseline model (warm start,
/// §4.2), and finally to a seeded random pick.
#[derive(Debug)]
pub struct SurrogateSelector {
    /// Window length `N` for the online model.
    pub window: usize,
    /// Offline baseline model, if one was trained.
    pub baseline: Option<BaselineModel>,
    rng: StdRng,
}

impl SurrogateSelector {
    /// Create with window size `n` and an optional baseline model.
    pub fn new(window: usize, baseline: Option<BaselineModel>, seed: u64) -> SurrogateSelector {
        SurrogateSelector {
            window,
            baseline,
            rng: StdRng::seed_from_u64(seed),
        }
    }
}

impl CandidateSelector for SurrogateSelector {
    fn select(
        &mut self,
        space: &ConfigSpace,
        candidates: &[Vec<f64>],
        ctx: &TuningContext,
        history: &History,
    ) -> usize {
        assert!(!candidates.is_empty(), "candidate set must be non-empty");
        // Prefer the query's own window model once it can be fit; either
        // model scores the candidate set on this thread (see `argmin_by`).
        if let Some(h) = fit_window_model(space, history.window(self.window)) {
            return argmin_by(candidates, |c| {
                h.predict(&h_features(space, c, ctx.expected_data_size))
            });
        }
        if let Some(b) = &self.baseline {
            return argmin_by(candidates, |c| {
                b.predict_ms(&ctx.embedding, c, ctx.expected_data_size)
            });
        }
        self.rng.random_range(0..candidates.len())
    }

    fn rng_state(&self) -> Option<[u64; 4]> {
        Some(self.rng.to_state())
    }

    fn restore_rng_state(&mut self, state: [u64; 4]) {
        self.rng = StdRng::from_state(state);
    }
}

/// A true-performance oracle: maps a raw candidate point to its noise-free score.
pub(crate) type Oracle = Box<dyn FnMut(&[f64]) -> f64 + Send>;

/// §6.1 pseudo-surrogate: ranks candidates by their *true* performance (supplied by
/// an oracle closure — only experiments can provide one) and picks the one at the
/// `10·X`-th percentile.
pub struct PseudoSelector {
    selector: PercentileSelector,
    oracle: Oracle,
}

impl std::fmt::Debug for PseudoSelector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PseudoSelector")
            .field("level", &self.selector.level())
            .finish_non_exhaustive()
    }
}

impl PseudoSelector {
    /// Create a Level-`level` pseudo-surrogate backed by a true-performance oracle.
    pub fn new(level: u8, seed: u64, oracle: Oracle) -> PseudoSelector {
        PseudoSelector {
            selector: PercentileSelector::new(level, seed),
            oracle,
        }
    }
}

impl CandidateSelector for PseudoSelector {
    fn select(
        &mut self,
        _space: &ConfigSpace,
        candidates: &[Vec<f64>],
        _ctx: &TuningContext,
        _history: &History,
    ) -> usize {
        assert!(!candidates.is_empty(), "candidate set must be non-empty");
        let scores: Vec<f64> = candidates.iter().map(|c| (self.oracle)(c)).collect();
        self.selector.select(&scores).unwrap_or(0)
    }
}

/// Uniform-random control selector.
#[derive(Debug)]
pub struct RandomSelector {
    rng: StdRng,
}

impl RandomSelector {
    /// Seeded random selector.
    pub fn new(seed: u64) -> RandomSelector {
        RandomSelector {
            rng: StdRng::seed_from_u64(seed),
        }
    }
}

impl CandidateSelector for RandomSelector {
    fn select(
        &mut self,
        _space: &ConfigSpace,
        candidates: &[Vec<f64>],
        _ctx: &TuningContext,
        _history: &History,
    ) -> usize {
        assert!(!candidates.is_empty(), "candidate set must be non-empty");
        self.rng.random_range(0..candidates.len())
    }

    fn rng_state(&self) -> Option<[u64; 4]> {
        Some(self.rng.to_state())
    }

    fn restore_rng_state(&mut self, state: [u64; 4]) {
        self.rng = StdRng::from_state(state);
    }
}

fn argmin_by<F: Fn(&Vec<f64>) -> f64>(candidates: &[Vec<f64>], score: F) -> usize {
    // A serial scan on the caller's thread, reduced in index order: a CL
    // candidate set is ~25 points whose model predictions cost about a
    // microsecond each, less than spawning pool threads (DESIGN.md §7).
    // Candidates are asserted non-empty by every selector; if every score is
    // NaN the first candidate is as good a pick as any.
    ml::stats::nan_safe_min_by(candidates, score).unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline::BaselineRow;

    fn space() -> ConfigSpace {
        ConfigSpace::query_level()
    }

    fn ctx() -> TuningContext {
        TuningContext {
            embedding: vec![1.0, 2.0],
            expected_data_size: 1.0,
            iteration: 0,
        }
    }

    /// A history whose window model says dim-2 ≈ 0.4 is best.
    fn informative_history() -> History {
        let s = space();
        let mut h = History::new();
        for i in 0..15 {
            let x = (i % 8) as f64 / 7.0;
            let mut p = s.default_point();
            p[2] = s.dims[2].denormalize(x);
            h.push(p, 1.0, 100.0 + 500.0 * (x - 0.4) * (x - 0.4));
        }
        h
    }

    fn candidate_sweep() -> Vec<Vec<f64>> {
        let s = space();
        (0..11)
            .map(|i| {
                let mut p = s.default_point();
                p[2] = s.dims[2].denormalize(i as f64 / 10.0);
                p
            })
            .collect()
    }

    /// The reference scan: the first index holding the smallest non-NaN
    /// score, or 0 when every score is NaN.
    fn serial_scan(scores: &[f64]) -> usize {
        let mut best: Option<(usize, f64)> = None;
        for (i, &s) in scores.iter().enumerate() {
            if !s.is_nan() && best.is_none_or(|(_, b)| s < b) {
                best = Some((i, s));
            }
        }
        best.map_or(0, |(i, _)| i)
    }

    /// `argmin_by` over one-coordinate candidates scored by that coordinate.
    fn argmin_of(scores: &[f64]) -> usize {
        let candidates: Vec<Vec<f64>> = scores.iter().map(|&s| vec![s]).collect();
        argmin_by(&candidates, |c| c.iter().sum())
    }

    #[test]
    fn argmin_by_matches_a_serial_scan() {
        let nan = f64::NAN;
        let cases: [(&[f64], usize); 6] = [
            (&[3.0, 1.0, 2.0, 1.0], 1),
            (&[nan, 2.0, nan, 0.5, 0.5], 3),
            (&[nan, nan, nan], 0),
            (&[7.0], 0),
            (
                &[f64::INFINITY, nan, f64::NEG_INFINITY, f64::NEG_INFINITY],
                2,
            ),
            (&[nan, 4.0], 1),
        ];
        for (scores, want) in cases {
            assert_eq!(serial_scan(scores), want, "reference on {scores:?}");
            assert_eq!(argmin_of(scores), want, "argmin_by on {scores:?}");
        }
        // Few distinct values, so ties and NaN runs are common.
        let values = [nan, 0.0, 1.0, 2.0, f64::INFINITY];
        let mut rng = StdRng::seed_from_u64(17);
        for _ in 0..500 {
            let len = rng.random_range(1..40);
            let scores: Vec<f64> = (0..len)
                .map(|_| values[rng.random_range(0..values.len())])
                .collect();
            assert_eq!(argmin_of(&scores), serial_scan(&scores), "{scores:?}");
        }
    }

    #[test]
    fn argmin_by_scores_every_candidate_on_the_callers_thread() {
        let caller = std::thread::current().id();
        let seen = std::sync::Mutex::new(Vec::new());
        let candidates: Vec<Vec<f64>> = (0..256).map(|i| vec![f64::from(i)]).collect();
        let idx = argmin_by(&candidates, |c| {
            let mut seen = seen.lock().expect("no scorer panicked");
            seen.push(std::thread::current().id());
            c.iter().sum()
        });
        assert_eq!(idx, 0);
        let seen = seen.into_inner().expect("no scorer panicked");
        assert_eq!(seen.len(), candidates.len(), "one score per candidate");
        assert!(seen.iter().all(|&id| id == caller), "scored off-thread");
    }

    #[test]
    fn surrogate_uses_window_model_when_available() {
        let s = space();
        let mut sel = SurrogateSelector::new(20, None, 1);
        let idx = sel.select(&s, &candidate_sweep(), &ctx(), &informative_history());
        let x = s.dims[2].normalize(candidate_sweep()[idx][2]);
        assert!((x - 0.4).abs() <= 0.15, "picked x = {x}");
    }

    #[test]
    fn surrogate_falls_back_to_baseline_with_no_history() {
        let s = space();
        // Baseline says: big dim-2 values are slow.
        let rows: Vec<BaselineRow> = (0..80)
            .map(|i| {
                let x = (i % 10) as f64 / 9.0;
                let mut p = s.default_point();
                p[2] = s.dims[2].denormalize(x);
                BaselineRow {
                    embedding: vec![1.0, 2.0],
                    point: p,
                    data_size: 1.0,
                    elapsed_ms: 100.0 + 900.0 * x,
                }
            })
            .collect();
        let baseline = BaselineModel::train(&s, &rows, 1).unwrap();
        let mut sel = SurrogateSelector::new(20, Some(baseline), 1);
        let idx = sel.select(&s, &candidate_sweep(), &ctx(), &History::new());
        let x = s.dims[2].normalize(candidate_sweep()[idx][2]);
        assert!(
            x < 0.35,
            "warm start should pick a low-x candidate, got {x}"
        );
    }

    #[test]
    fn surrogate_random_when_nothing_known() {
        let s = space();
        let mut sel = SurrogateSelector::new(20, None, 3);
        let cands = candidate_sweep();
        let picks: std::collections::HashSet<usize> = (0..20)
            .map(|_| sel.select(&s, &cands, &ctx(), &History::new()))
            .collect();
        assert!(picks.len() > 3, "random fallback should vary: {picks:?}");
    }

    #[test]
    fn pseudo_selector_level_one_is_near_oracle_best() {
        let s = space();
        // Oracle: best at x = 0.7.
        let mut sel = PseudoSelector::new(
            1,
            5,
            Box::new(move |c: &[f64]| {
                let x = ConfigSpace::query_level().dims[2].normalize(c[2]);
                (x - 0.7) * (x - 0.7)
            }),
        );
        let cands = candidate_sweep();
        let idx = sel.select(&s, &cands, &ctx(), &History::new());
        let x = s.dims[2].normalize(cands[idx][2]);
        assert!((x - 0.7).abs() <= 0.21, "level 1 picked {x}");
    }

    #[test]
    fn pseudo_selector_level_nine_is_far_from_best() {
        let s = space();
        let mut sel = PseudoSelector::new(
            9,
            5,
            Box::new(move |c: &[f64]| {
                let x = ConfigSpace::query_level().dims[2].normalize(c[2]);
                (x - 0.7) * (x - 0.7)
            }),
        );
        let cands = candidate_sweep();
        let idx = sel.select(&s, &cands, &ctx(), &History::new());
        let x = s.dims[2].normalize(cands[idx][2]);
        assert!((x - 0.7).abs() >= 0.25, "level 9 picked {x}");
    }

    #[test]
    fn random_selector_is_uniformish() {
        let s = space();
        let mut sel = RandomSelector::new(0);
        let cands = candidate_sweep();
        let picks: std::collections::HashSet<usize> = (0..50)
            .map(|_| sel.select(&s, &cands, &ctx(), &History::new()))
            .collect();
        assert!(picks.len() >= 8);
    }
}
