//! The online-tuning interface every optimizer implements, plus shared observation
//! bookkeeping.

use serde::{Deserialize, Serialize};

/// Compile-time context available when a configuration must be suggested.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TuningContext {
    /// Workload embedding of the submitted query (may be empty when no embedder is
    /// configured, e.g. for the synthetic function).
    pub embedding: Vec<f64>,
    /// Expected input data size for this run (the optimizer's estimate `p`; the
    /// paper notes it "is often unknown at the start" — environments expose their
    /// best compile-time estimate here and the true size in the outcome).
    pub expected_data_size: f64,
    /// Tuning iteration (0-based).
    pub iteration: u32,
}

/// How an observation entered the history.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum ObservationKind {
    /// A real, measured completion time.
    #[default]
    Measured,
    /// A failed or unobserved run recorded as a *censored* high-cost bound
    /// (Li et al., VLDB 2023): `elapsed_ms` holds a penalty cost, not a
    /// measurement. Model fits down-weight it; argmin-style selection and
    /// best-so-far bookkeeping skip it entirely.
    Censored,
}

// Manual impls so a missing/`null` field (checkpoints written before the
// fault model existed) deserializes as `Measured` instead of erroring.
impl Serialize for ObservationKind {
    fn write_json(&self, out: &mut String) {
        let name = match self {
            ObservationKind::Measured => "Measured",
            ObservationKind::Censored => "Censored",
        };
        name.write_json(out);
    }
}

impl Deserialize for ObservationKind {
    fn deserialize_value(value: &serde::Value) -> Result<Self, serde::DeError> {
        match value {
            serde::Value::Null => Ok(ObservationKind::Measured),
            serde::Value::Str(s) if s == "Measured" => Ok(ObservationKind::Measured),
            serde::Value::Str(s) if s == "Censored" => Ok(ObservationKind::Censored),
            other => Err(serde::DeError::expected("ObservationKind", other)),
        }
    }
}

/// What came back from executing a suggested configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Outcome {
    /// Observed (noisy) execution time, ms — or the penalty cost of a
    /// censored run (see `kind`).
    pub elapsed_ms: f64,
    /// Actual input data size of the run (the `p` recorded with each observation).
    pub data_size: f64,
    /// Whether this is a real measurement or a censored bound. Deserializes
    /// to [`ObservationKind::Measured`] when absent in serialized data, so
    /// pre-fault checkpoints restore unchanged.
    pub kind: ObservationKind,
}

impl Outcome {
    /// A real measured completion.
    pub fn measured(elapsed_ms: f64, data_size: f64) -> Outcome {
        Outcome {
            elapsed_ms,
            data_size,
            kind: ObservationKind::Measured,
        }
    }

    /// A censored observation for a failed/unobserved run: `penalty_ms` is the
    /// high-cost bound the tuner records instead of a measurement.
    pub fn censored(penalty_ms: f64, data_size: f64) -> Outcome {
        Outcome {
            elapsed_ms: penalty_ms,
            data_size,
            kind: ObservationKind::Censored,
        }
    }

    /// Whether this outcome is a censored bound rather than a measurement.
    pub fn is_censored(&self) -> bool {
        self.kind == ObservationKind::Censored
    }
}

/// An online configuration tuner: suggest a point, observe its outcome, repeat.
/// Points are raw-unit vectors over the tuner's [`crate::space::ConfigSpace`].
pub trait Tuner {
    /// Propose the configuration for the next run.
    fn suggest(&mut self, ctx: &TuningContext) -> Vec<f64>;

    /// Record the outcome of running `point`.
    fn observe(&mut self, point: &[f64], outcome: &Outcome);

    /// Short display name for experiment tables.
    fn name(&self) -> &'static str;
}

/// One recorded observation — the paper's `(c_i, p_i, r_i)` triple of Algorithm 1.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Observation {
    /// The configuration point (raw units).
    pub point: Vec<f64>,
    /// The data size `p` of that run.
    pub data_size: f64,
    /// The observed performance `r` (elapsed ms; lower is better), or the
    /// penalty bound of a censored run.
    pub elapsed_ms: f64,
    /// Measurement vs. censored bound; missing fields in old checkpoints
    /// deserialize as [`ObservationKind::Measured`].
    pub kind: ObservationKind,
}

impl Observation {
    /// Whether this observation is a censored bound rather than a measurement.
    pub fn is_censored(&self) -> bool {
        self.kind == ObservationKind::Censored
    }
}

/// An append-only observation history with the sliding-window view `Ω(t, N)`.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct History {
    /// All observations, oldest first.
    pub all: Vec<Observation>,
}

impl History {
    /// Create an empty history.
    pub fn new() -> History {
        History::default()
    }

    /// Record one measured observation.
    pub fn push(&mut self, point: Vec<f64>, data_size: f64, elapsed_ms: f64) {
        self.all.push(Observation {
            point,
            data_size,
            elapsed_ms,
            kind: ObservationKind::Measured,
        });
    }

    /// Record one observation from an [`Outcome`], preserving its kind.
    pub fn push_outcome(&mut self, point: Vec<f64>, outcome: &Outcome) {
        self.all.push(Observation {
            point,
            data_size: outcome.data_size,
            elapsed_ms: outcome.elapsed_ms,
            kind: outcome.kind,
        });
    }

    /// Number of censored observations.
    pub fn censored_count(&self) -> usize {
        self.all.iter().filter(|o| o.is_censored()).count()
    }

    /// Consecutive censored/failed observations at the end of the history.
    pub fn trailing_censored(&self) -> usize {
        self.all
            .iter()
            .rev()
            .take_while(|o| o.is_censored())
            .count()
    }

    /// Number of observations.
    pub fn len(&self) -> usize {
        self.all.len()
    }

    /// Whether no observations exist.
    pub fn is_empty(&self) -> bool {
        self.all.is_empty()
    }

    /// The latest `n` observations — `Ω(t, N)`.
    pub fn window(&self, n: usize) -> &[Observation] {
        let start = self.all.len().saturating_sub(n);
        &self.all[start..]
    }

    /// The observation with the smallest raw elapsed time (FIND_BEST v1).
    /// Censored bounds are penalty costs, not achieved times — they never win.
    pub fn best_raw(&self) -> Option<&Observation> {
        self.all
            .iter()
            .filter(|o| !o.is_censored())
            .min_by(|a, b| a.elapsed_ms.total_cmp(&b.elapsed_ms))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs(t: f64) -> (Vec<f64>, f64, f64) {
        (vec![t], 1.0, t)
    }

    #[test]
    fn window_returns_latest_n() {
        let mut h = History::new();
        for i in 0..10 {
            let (p, d, r) = obs(i as f64);
            h.push(p, d, r);
        }
        let w = h.window(3);
        assert_eq!(w.len(), 3);
        assert_eq!(w[0].elapsed_ms, 7.0);
        assert_eq!(h.window(100).len(), 10);
    }

    #[test]
    fn best_raw_finds_minimum() {
        let mut h = History::new();
        for t in [5.0, 2.0, 9.0] {
            let (p, d, r) = obs(t);
            h.push(p, d, r);
        }
        assert_eq!(h.best_raw().unwrap().elapsed_ms, 2.0);
    }

    #[test]
    fn empty_history_has_no_best() {
        assert!(History::new().best_raw().is_none());
        assert!(History::new().window(5).is_empty());
    }
}
