//! Property-based tests of the forecasting layer and the predictive
//! balancer's correctness anchor.
//!
//! The load models promise three things (see `forecast.rs`): finite,
//! deterministic predictions; bit-exact collapse to the last observation
//! on constant series (the error-correction form); and — through
//! `PredictiveLb` — bit-for-bit twin equivalence with the persistence
//! balancer whenever the workload does not drift. We check all three
//! over randomized observation histories and distributions.

use proptest::prelude::*;
use tempered_core::forecast::{ForecastBank, Holt, LastObserved, LoadModel};
use tempered_core::prelude::*;

// ---------------------------------------------------------------------------
// Generators
// ---------------------------------------------------------------------------

/// Observation series: 1–60 loads in (0, 100].
fn arb_series() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(0.001f64..100.0, 1..60)
}

/// Smoothing factors in the models' legal `(0, 1]` range, with the
/// boundary `1.0` (the persistence degenerate) explicitly reachable.
fn arb_gain() -> impl Strategy<Value = f64> {
    (0u8..4, 0.05f64..1.0).prop_map(|(pin, g)| if pin == 0 { 1.0 } else { g })
}

/// Per-rank load lists: 2–8 ranks, up to 12 tasks each.
fn arb_loads() -> impl Strategy<Value = Vec<Vec<f64>>> {
    prop::collection::vec(prop::collection::vec(0.01f64..4.0, 0..12), 2..8)
}

fn nonempty_distribution() -> impl Strategy<Value = Distribution> {
    arb_loads()
        .prop_map(Distribution::from_loads)
        .prop_filter("needs tasks", |d| d.num_tasks() > 0)
}

fn replay<M: LoadModel>(model: &mut M, series: &[f64]) -> Vec<u64> {
    series
        .iter()
        .map(|&x| {
            model.observe(x);
            model.predict(1.0).to_bits()
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Model properties
// ---------------------------------------------------------------------------

proptest! {
    /// Finite inputs must never produce a non-finite forecast, at any
    /// horizon the bank actually uses.
    #[test]
    fn forecasts_are_finite(series in arb_series(), alpha in arb_gain(), beta in arb_gain()) {
        let mut holt = Holt::new(alpha, beta);
        for &x in &series {
            holt.observe(x);
            for h in [1.0, 2.0, 8.0] {
                prop_assert!(holt.predict(h).is_finite());
            }
        }
    }

    /// Models are pure state machines: replaying the same series into a
    /// fresh instance reproduces every prediction bit for bit.
    #[test]
    fn models_are_deterministic(series in arb_series(), alpha in arb_gain(), beta in arb_gain()) {
        prop_assert_eq!(
            replay(&mut Holt::new(alpha, beta), &series),
            replay(&mut Holt::new(alpha, beta), &series)
        );
        prop_assert_eq!(
            replay(&mut LastObserved::default(), &series),
            replay(&mut LastObserved::default(), &series)
        );
    }

    /// The error-correction form: once the series goes constant from the
    /// first observation, the innovation is zero and every model
    /// collapses to the last observation *exactly* — the bit pattern of
    /// `x`, not merely something close to it.
    #[test]
    fn constant_series_collapses_to_last_observed(
        x in 0.001f64..100.0,
        reps in 1usize..50,
        alpha in arb_gain(),
        beta in arb_gain(),
    ) {
        let mut holt = Holt::new(alpha, beta);
        let mut last = LastObserved::default();
        for _ in 0..reps {
            holt.observe(x);
            last.observe(x);
            prop_assert_eq!(holt.predict(1.0).to_bits(), x.to_bits());
            prop_assert_eq!(holt.predict(5.0).to_bits(), x.to_bits());
            prop_assert_eq!(last.predict(1.0).to_bits(), x.to_bits());
        }
    }

    /// A fresh-or-constant bank is the identity on a distribution: same
    /// structure, same load bits (the persistence collapse lifted from a
    /// single series to a whole distribution).
    #[test]
    fn bank_forecast_is_identity_on_constant_history(
        dist in nonempty_distribution(),
        epochs in 1u64..6,
    ) {
        let mut bank = ForecastBank::new(Holt::default());
        for e in 0..epochs {
            bank.observe_epoch(e, &dist);
        }
        let fc = bank.forecast(&dist);
        prop_assert_eq!(dist.canonical(), fc.canonical());
    }
}

// ---------------------------------------------------------------------------
// Twin equivalence
// ---------------------------------------------------------------------------

proptest! {
    // The balancer runs TemperedLB inside, so keep the case count modest.
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// On a constant workload the predictive balancer hands its inner
    /// balancer the identical distribution persistence would — and must
    /// therefore commit the identical assignment, for any seed and any
    /// epoch history.
    #[test]
    fn predictive_balancer_matches_twin_on_constant_workload(
        dist in nonempty_distribution(),
        seed in any::<u64>(),
        epochs in 1u64..4,
    ) {
        let factory = RngFactory::new(seed);
        let mut twin = TemperedLb::default();
        let mut pred = PredictiveLb::new("PredTemperedLB", TemperedLb::default(), Holt::default());
        for epoch in 0..epochs {
            let a = twin.rebalance(&dist, &factory, epoch);
            let b = pred.rebalance(&dist, &factory, epoch);
            prop_assert_eq!(
                a.distribution.canonical(),
                b.distribution.canonical(),
                "epoch {}: predictive diverged from its persistence twin",
                epoch
            );
        }
    }
}
