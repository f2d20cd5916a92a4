//! Online per-task load forecasting.
//!
//! The paper's balancers lean on the *principle of persistence*: the
//! load a task exhibited during the previous phase is taken as its load
//! for the next one. That assumption is exactly what degrades under
//! time-varying imbalance — diurnal cycles, flash crowds, hot-key drift
//! — the regime ROADMAP item 3 targets. Following Boulmier et al. (*On
//! the Benefits of Anticipating Load Imbalance*, see PAPERS.md), this
//! module replaces the persistence estimate with a per-task time-series
//! forecast: each task carries a small online model that absorbs one
//! observation per phase and extrapolates ahead: one phase for the
//! per-task [`ForecastBank`], a configurable horizon for the elastic
//! autoscaler's total-load series.
//!
//! Two design constraints shape the implementations:
//!
//! 1. **Exact collapse to persistence.** All models are written in
//!    *error-correction* form (`state += gain · (x − prediction)`), so a
//!    constant series has zero innovation and leaves the state
//!    bit-for-bit untouched. A predictive balancer over a constant
//!    workload therefore feeds its inner balancer the *identical* f64
//!    loads persistence would — and commits the identical assignment
//!    (see `balancer::predictive`).
//! 2. **Determinism.** Models are pure state machines with no
//!    randomness; the [`ForecastBank`] iterates tasks in `BTreeMap`
//!    order, so forecasts are a deterministic function of the
//!    observation history alone, independent of rank count or driver.

use crate::distribution::Distribution;
use crate::ids::TaskId;
use crate::load::Load;
use crate::task::Task;
use std::collections::BTreeMap;

/// An online, single-series load model: absorb one observation per
/// phase, extrapolate `horizon` phases ahead.
pub trait LoadModel {
    /// Absorb the load measured for the phase that just finished.
    fn observe(&mut self, load: f64);

    /// Forecast the load `horizon` phases past the last observation.
    /// Implementations may return garbage before the first observation;
    /// [`ForecastBank`] never calls this on an unobserved model.
    fn predict(&self, horizon: f64) -> f64;
}

/// The principle of persistence as a [`LoadModel`]: predict exactly the
/// last observation. The identity baseline every other model is
/// measured against.
#[derive(Clone, Copy, Debug, Default)]
pub struct LastObserved {
    last: Option<f64>,
}

impl LoadModel for LastObserved {
    fn observe(&mut self, load: f64) {
        self.last = Some(load);
    }

    fn predict(&self, _horizon: f64) -> f64 {
        self.last.unwrap_or(0.0)
    }
}

/// Holt's linear (double-exponential) smoothing in error-correction
/// form: tracks a level *and* a trend, so ramps — the flash-crowd
/// signature — are extrapolated instead of chased.
///
/// ```text
/// e = x − (level + trend)
/// level ← level + trend + α·e
/// trend ← trend + α·β·e
/// predict(h) = level + h · trend
/// ```
///
/// On a constant series `e = 0` after the first observation, the state
/// never moves, and `predict(h) = x + h·0 = x` exactly.
#[derive(Clone, Copy, Debug)]
pub struct Holt {
    /// Level smoothing factor in `(0, 1]`.
    pub alpha: f64,
    /// Trend smoothing factor in `(0, 1]` (applied on top of `alpha`).
    pub beta: f64,
    state: Option<(f64, f64)>,
}

impl Holt {
    /// A Holt model with the given smoothing factors and no history.
    pub fn new(alpha: f64, beta: f64) -> Self {
        assert!(
            alpha > 0.0 && alpha <= 1.0,
            "Holt alpha must be in (0, 1], got {alpha}"
        );
        assert!(
            beta > 0.0 && beta <= 1.0,
            "Holt beta must be in (0, 1], got {beta}"
        );
        Holt {
            alpha,
            beta,
            state: None,
        }
    }
}

impl Default for Holt {
    /// Aggressive trend tracking (`α = 1`: the level is the last
    /// observation; `β = 0.5`: the trend is a half-life blend of recent
    /// first differences). On smooth phase-granularity drift — diurnal
    /// swells, flash-crowd ramps — this halves the one-step error of
    /// persistence; on noise-dominated series it amplifies the noise
    /// instead, which is the classic anticipation trade-off (Boulmier
    /// et al.) and exactly what the svc sweep measures.
    fn default() -> Self {
        Holt::new(1.0, 0.5)
    }
}

impl LoadModel for Holt {
    fn observe(&mut self, load: f64) {
        match &mut self.state {
            None => self.state = Some((load, 0.0)),
            Some((level, trend)) => {
                let e = load - (*level + *trend);
                *level += *trend + self.alpha * e;
                *trend += self.alpha * self.beta * e;
            }
        }
    }

    fn predict(&self, horizon: f64) -> f64 {
        match self.state {
            None => 0.0,
            Some((level, trend)) => level + horizon * trend,
        }
    }
}

/// A per-task bank of [`LoadModel`]s over a whole [`Distribution`].
///
/// The bank clones a prototype model for each task on first sight,
/// feeds every task one observation per epoch (idempotently — a repeat
/// call for the same epoch is ignored, so a timeline and a balancer may
/// both observe without double-counting), and materializes a *forecast
/// distribution*: the same task→rank structure with predicted loads in
/// place of observed ones.
#[derive(Clone, Debug)]
pub struct ForecastBank<M: LoadModel + Clone> {
    prototype: M,
    models: BTreeMap<TaskId, M>,
    last_epoch: Option<u64>,
    /// When positive, predictions are snapped to the nearest multiple —
    /// use a dyadic quantum (e.g. `2⁻¹⁰`) to keep forecast loads safe
    /// for bit-exact cross-driver comparison. Zero disables snapping,
    /// which preserves the exact persistence collapse on arbitrary
    /// (unquantized) inputs.
    pub quantum: f64,
}

impl<M: LoadModel + Clone> ForecastBank<M> {
    /// A bank cloning `prototype` for each new task, no quantization.
    pub fn new(prototype: M) -> Self {
        ForecastBank {
            prototype,
            models: BTreeMap::new(),
            last_epoch: None,
            quantum: 0.0,
        }
    }

    /// Feed every task of `dist` its load for `epoch`. Returns `false`
    /// (and does nothing) when this epoch was already observed — the
    /// idempotence that lets both a timeline loop and a balancer's
    /// `rebalance` observe the same phase.
    pub fn observe_epoch(&mut self, epoch: u64, dist: &Distribution) -> bool {
        if self.last_epoch == Some(epoch) {
            return false;
        }
        self.last_epoch = Some(epoch);
        for rank in dist.rank_ids() {
            for task in dist.tasks_on(rank) {
                self.models
                    .entry(task.id)
                    .or_insert_with(|| self.prototype.clone())
                    .observe(task.load.get());
            }
        }
        true
    }

    /// Forecast one task's load one phase ahead. Falls back to the observed
    /// load for tasks never seen (fresh bank ⇒ pure persistence), and
    /// clamps non-finite or negative extrapolations to a valid load.
    pub fn predict_task(&self, task: TaskId, observed: f64) -> f64 {
        let Some(model) = self.models.get(&task) else {
            return observed;
        };
        let p = model.predict(1.0);
        let p = if p.is_finite() { p.max(0.0) } else { observed };
        if self.quantum > 0.0 {
            (p / self.quantum).round() * self.quantum
        } else {
            p
        }
    }

    /// The forecast distribution: identical task→rank structure,
    /// predicted loads. With a fresh bank (or after a single constant
    /// observation per task) this is bit-for-bit the input.
    pub fn forecast(&self, dist: &Distribution) -> Distribution {
        let mut out = Distribution::new(dist.num_ranks());
        for rank in dist.rank_ids() {
            for task in dist.tasks_on(rank) {
                let load = self.predict_task(task.id, task.load.get());
                out.insert(rank, Task::new(task.id, Load::new(load)))
                    .expect("forecast preserves the input's unique task ids");
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn last_observed_is_identity() {
        let mut m = LastObserved::default();
        for x in [3.0, 1.0, 4.0, 1.5] {
            m.observe(x);
            assert_eq!(m.predict(1.0).to_bits(), x.to_bits());
        }
    }

    #[test]
    fn holt_constant_series_is_bit_exact() {
        let mut m = Holt::default();
        let x = 1.0 / 3.0;
        for _ in 0..50 {
            m.observe(x);
            assert_eq!(m.predict(1.0).to_bits(), x.to_bits());
            assert_eq!(m.predict(7.0).to_bits(), x.to_bits());
        }
    }

    #[test]
    fn holt_extrapolates_a_linear_ramp() {
        let mut m = Holt::new(0.8, 0.8);
        for i in 0..200 {
            m.observe(1.0 + 0.5 * i as f64);
        }
        // After convergence the one-step forecast should be close to the
        // true next value 1.0 + 0.5 * 200.
        // ...where persistence would lag by one full slope step (0.5).
        let expect = 1.0 + 0.5 * 200.0;
        assert!(
            (m.predict(1.0) - expect).abs() < 0.05,
            "forecast {} vs true {}",
            m.predict(1.0),
            expect
        );
    }

    #[test]
    fn bank_is_idempotent_per_epoch() {
        let dist = Distribution::from_loads(vec![vec![2.0, 4.0], vec![6.0]]);
        let mut bank = ForecastBank::new(Holt::default());
        assert!(bank.observe_epoch(0, &dist));
        let snap = bank.forecast(&dist);
        assert!(!bank.observe_epoch(0, &dist), "same epoch must be a no-op");
        let again = bank.forecast(&dist);
        for r in dist.rank_ids() {
            assert_eq!(
                snap.rank_load(r).get().to_bits(),
                again.rank_load(r).get().to_bits()
            );
        }
    }

    #[test]
    fn fresh_bank_forecasts_persistence() {
        let dist = Distribution::from_loads(vec![vec![0.7, 1.3], vec![2.9]]);
        let bank = ForecastBank::new(Holt::default());
        let fc = bank.forecast(&dist);
        for r in dist.rank_ids() {
            for (a, b) in dist.tasks_on(r).iter().zip(fc.tasks_on(r)) {
                assert_eq!(a.id, b.id);
                assert_eq!(a.load.get().to_bits(), b.load.get().to_bits());
            }
        }
    }

    #[test]
    fn predictions_are_clamped_to_valid_loads() {
        // A crashing trend would extrapolate negative; the bank clamps.
        let mut bank = ForecastBank::new(Holt::new(1.0, 1.0));
        let d1 = Distribution::from_loads(vec![vec![10.0]]);
        bank.observe_epoch(0, &d1);
        let mut d2 = d1.clone();
        d2.set_load(TaskId::new(0), Load::new(1.0)).unwrap();
        bank.observe_epoch(1, &d2);
        let p = bank.predict_task(TaskId::new(0), 1.0);
        assert!(p >= 0.0, "clamped forecast must be a legal load, got {p}");
    }

    #[test]
    fn quantization_snaps_to_the_grid() {
        let mut bank = ForecastBank::new(Holt::default());
        bank.quantum = 1.0 / 1024.0;
        let d = Distribution::from_loads(vec![vec![0.123456789]]);
        let mut b2 = bank.clone();
        b2.observe_epoch(0, &d);
        let p = b2.predict_task(TaskId::new(0), 0.123456789);
        let q = (p * 1024.0).round() / 1024.0;
        assert_eq!(p.to_bits(), q.to_bits());
    }
}
