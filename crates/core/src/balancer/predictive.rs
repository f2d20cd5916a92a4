//! Forecast-driven balancing: any [`LoadBalancer`] with its persistence
//! estimate swapped for per-task predictions.
//!
//! [`PredictiveLb`] wraps an inner balancer and a [`ForecastBank`].
//! Each `rebalance` call
//!
//! 1. feeds the bank the phase's observed loads (idempotently per
//!    epoch, so an embedding timeline may also observe),
//! 2. builds the *forecast distribution* — same task→rank structure,
//!    predicted next-phase loads,
//! 3. runs the inner balancer on the forecast (same RNG factory, same
//!    epoch: the inner balancer cannot tell it is being lied to), and
//! 4. maps the proposed placement back onto the observed loads, so the
//!    result's migrations and imbalances are stated in the caller's
//!    units.
//!
//! Because the forecast models collapse bit-exactly to the last
//! observation on constant series (see [`crate::forecast`]), a
//! predictive balancer over a constant workload hands its inner
//! balancer the *identical* distribution persistence would — identical
//! f64 loads, identical RNG stream — and therefore commits the
//! identical assignment. That twin equivalence is the correctness
//! anchor tested in `tests/forecast_properties.rs`.
//!
//! Note the reported `final_imbalance` is measured on *observed* loads:
//! when the workload drifts, optimizing the forecast may legitimately
//! leave the observed-load imbalance higher than a persistence balancer
//! would — the bet is that the *next* phase's realized imbalance (what
//! tail metrics see) lands lower. Consequently `PredictiveLb` does not
//! promise `final ≤ initial` on the phase it rebalances.

use crate::balancer::{LoadBalancer, RebalanceResult};
use crate::distribution::Distribution;
use crate::forecast::{ForecastBank, LoadModel};
use crate::refine::net_migrations;
use crate::rng::RngFactory;

/// A forecast-driven wrapper around any [`LoadBalancer`].
#[derive(Clone, Debug)]
pub struct PredictiveLb<B: LoadBalancer, M: LoadModel + Clone> {
    /// The wrapped balancer, run on forecast loads.
    pub inner: B,
    /// The per-task forecast bank.
    pub bank: ForecastBank<M>,
    name: &'static str,
}

impl<B: LoadBalancer, M: LoadModel + Clone> PredictiveLb<B, M> {
    /// Wrap `inner`, forecasting with clones of `model`, under a fixed
    /// display `name` (trait methods return `&'static str`).
    pub fn new(name: &'static str, inner: B, model: M) -> Self {
        PredictiveLb {
            inner,
            bank: ForecastBank::new(model),
            name,
        }
    }
}

impl<B: LoadBalancer, M: LoadModel + Clone> LoadBalancer for PredictiveLb<B, M> {
    fn name(&self) -> &'static str {
        self.name
    }

    fn rebalance(
        &mut self,
        dist: &Distribution,
        factory: &RngFactory,
        epoch: u64,
    ) -> RebalanceResult {
        self.bank.observe_epoch(epoch, dist);
        let forecast = self.bank.forecast(dist);
        let proposed = self.inner.rebalance(&forecast, factory, epoch);

        // Restate the proposal in observed-load units: take only the
        // *placement* from the inner result, and price the migrations
        // with the loads the caller actually measured.
        let migrations = net_migrations(dist, &proposed.distribution);
        let mut distribution = dist.clone();
        distribution
            .apply(&migrations)
            .expect("net migrations against the input are consistent");
        RebalanceResult {
            initial_imbalance: dist.imbalance(),
            final_imbalance: distribution.imbalance(),
            messages_sent: proposed.messages_sent,
            migrations,
            distribution,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::balancer::test_support::skewed;
    use crate::balancer::{GrapevineLb, TemperedLb};
    use crate::forecast::{Holt, LastObserved};
    use crate::ids::{RankId, TaskId};
    use crate::load::Load;

    #[test]
    fn constant_workload_matches_persistence_twin_exactly() {
        let dist = skewed(16, 24);
        let factory = RngFactory::new(77);
        let mut twin = TemperedLb::default();
        let mut pred = PredictiveLb::new("PredTemperedLB", TemperedLb::default(), Holt::default());
        for epoch in 0..4 {
            let a = twin.rebalance(&dist, &factory, epoch);
            let b = pred.rebalance(&dist, &factory, epoch);
            assert_eq!(
                a.distribution.canonical(),
                b.distribution.canonical(),
                "epoch {epoch}: constant workload must be bit-identical"
            );
            assert_eq!(a.migrations.len(), b.migrations.len());
        }
    }

    #[test]
    fn last_observed_model_is_always_the_twin() {
        // Even on a *drifting* workload, the LastObserved model IS
        // persistence — the wrapper must be a perfect no-op shell.
        let mut dist = skewed(8, 12);
        let factory = RngFactory::new(5);
        let mut twin = GrapevineLb::default();
        let mut pred =
            PredictiveLb::new("PredLast", GrapevineLb::default(), LastObserved::default());
        for epoch in 0..3 {
            let a = twin.rebalance(&dist, &factory, epoch);
            let b = pred.rebalance(&dist, &factory, epoch);
            assert_eq!(a.distribution.canonical(), b.distribution.canonical());
            // Drift every task's load and carry the twin's assignment
            // forward so both see the same input next epoch.
            dist = a.distribution;
            let ids: Vec<TaskId> = dist
                .rank_ids()
                .flat_map(|r| dist.tasks_on(r).iter().map(|t| t.id).collect::<Vec<_>>())
                .collect();
            for id in ids {
                let old = dist.load_of(id).unwrap().get();
                dist.set_load(id, Load::new(old * 1.25 + 0.125)).unwrap();
            }
        }
    }

    #[test]
    fn predictive_moves_toward_the_forecast_on_a_ramp() {
        // Rank 0's tasks grow fast, rank 1's shrink: observed loads are
        // equal at the decision epoch, but the forecast is lopsided.
        // The predictive balancer should move work off rank 0 even
        // though persistence sees nothing to do.
        let mut dist = Distribution::from_loads(vec![vec![1.0; 8], vec![1.0; 8], vec![]]);
        let mut pred = PredictiveLb::new("PredTemperedLB", TemperedLb::default(), Holt::default());
        let factory = RngFactory::new(3);
        // Feed a history: rank 0 ramps, rank 1 decays.
        for epoch in 0..6 {
            let grow = 1.0 + epoch as f64;
            let shrink = (6.0 - epoch as f64) / 6.0;
            for t in 0..8u64 {
                dist.set_load(TaskId::new(t), Load::new(grow)).unwrap();
                dist.set_load(TaskId::new(8 + t), Load::new(shrink))
                    .unwrap();
            }
            pred.bank.observe_epoch(epoch, &dist);
        }
        let result = pred.rebalance(&dist, &factory, 6);
        let off_zero = result
            .migrations
            .iter()
            .filter(|m| m.from == RankId::new(0))
            .count();
        assert!(
            off_zero > 0,
            "forecast-driven balancer must shed the ramping rank"
        );
    }

    #[test]
    fn result_is_consistent_with_its_own_migrations() {
        let dist = skewed(12, 20);
        let mut pred =
            PredictiveLb::new("PredGrapevineLB", GrapevineLb::default(), Holt::default());
        let r = pred.rebalance(&dist, &factory(), 0);
        let mut replay = dist.clone();
        replay.apply(&r.migrations).unwrap();
        assert_eq!(replay.canonical(), r.distribution.canonical());
        assert_eq!(r.distribution.num_tasks(), dist.num_tasks());
        assert!(r.distribution.total_load().approx_eq(dist.total_load()));
    }

    fn factory() -> RngFactory {
        RngFactory::new(9)
    }
}
