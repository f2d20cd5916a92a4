//! TemperedLB: the paper's contribution.
//!
//! All six §V changes over GrapevineLB, in one configuration:
//!
//! 1. iterative refinement of the assignment before transferring (§V-A);
//! 2. multiple trials of the iteration process (§V-A);
//! 3. CMF recomputation as estimates update (§V-A);
//! 4. the relaxed, provably optimal acceptance criterion (§V-C);
//! 5. the modified CMF scale compatible with above-average estimates
//!    (§V-C);
//! 6. configurable task traversal order, defaulting to Fewest Migrations
//!    — the best performer in Fig. 4d (§V-E).

use super::{LoadBalancer, RebalanceResult};
use crate::distribution::Distribution;
use crate::gossip::GossipConfig;
use crate::ordering::OrderingKind;
use crate::refine::{refine, RefineConfig, RefineOutcome};
use crate::rng::RngFactory;
use crate::transfer::TransferConfig;

/// TemperedLB tuning knobs.
#[derive(Clone, Copy, Debug)]
pub struct TemperedConfig {
    /// Independent trials (`n_trials`; the paper's EMPIRE runs use 10 and
    /// note fewer would suffice).
    pub trials: usize,
    /// Iterations per trial (`n_iters`; the paper uses 8).
    pub iters: usize,
    /// Gossip stage parameters.
    pub gossip: GossipConfig,
    /// Task traversal order (§V-E).
    pub ordering: OrderingKind,
    /// Relative imbalance threshold `h`.
    pub threshold_h: f64,
}

impl Default for TemperedConfig {
    fn default() -> Self {
        TemperedConfig {
            trials: 10,
            iters: 8,
            gossip: GossipConfig::default(),
            ordering: OrderingKind::FewestMigrations,
            threshold_h: 1.0,
        }
    }
}

/// The TemperedLB balancer.
#[derive(Clone, Copy, Debug, Default)]
pub struct TemperedLb {
    /// Tuning knobs.
    pub config: TemperedConfig,
}

impl TemperedLb {
    /// Create with explicit configuration.
    pub fn new(config: TemperedConfig) -> Self {
        TemperedLb { config }
    }

    /// TemperedLB with a specific ordering (Fig. 4d series).
    pub fn with_ordering(ordering: OrderingKind) -> Self {
        TemperedLb {
            config: TemperedConfig {
                ordering,
                ..TemperedConfig::default()
            },
        }
    }

    /// The analysis-mode refinement configuration these knobs denote.
    ///
    /// This is the single source of truth for TemperedLB's parameters:
    /// the asynchronous protocol configuration derives from the same
    /// [`RefineConfig`] (via `tempered_runtime::LbProtocolConfig::from`),
    /// so the two execution modes cannot drift apart.
    pub fn refine_config(&self) -> RefineConfig {
        RefineConfig {
            trials: self.config.trials,
            iters: self.config.iters,
            gossip: self.config.gossip,
            transfer: TransferConfig {
                ordering: self.config.ordering,
                threshold_h: self.config.threshold_h,
                ..TransferConfig::tempered()
            },
        }
    }

    /// Run the full refinement and return the detailed per-iteration
    /// outcome (used by LBAF experiments that need the §V-D tables rather
    /// than just the final assignment).
    pub fn refine_detailed(
        &self,
        dist: &Distribution,
        factory: &RngFactory,
        epoch: u64,
    ) -> RefineOutcome {
        refine(dist, &self.refine_config(), factory, epoch)
    }
}

impl LoadBalancer for TemperedLb {
    fn name(&self) -> &'static str {
        "TemperedLB"
    }

    fn rebalance(
        &mut self,
        dist: &Distribution,
        factory: &RngFactory,
        epoch: u64,
    ) -> RebalanceResult {
        let out = self.refine_detailed(dist, factory, epoch);
        RebalanceResult {
            distribution: out.best,
            migrations: out.migrations,
            initial_imbalance: out.initial_imbalance,
            final_imbalance: out.best_imbalance,
            messages_sent: out.total_messages,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::balancer::test_support::{check_postconditions, skewed};
    use crate::balancer::GrapevineLb;
    use crate::imbalance::lower_bound_max_load;

    fn quick() -> TemperedLb {
        TemperedLb::new(TemperedConfig {
            trials: 3,
            iters: 6,
            ..TemperedConfig::default()
        })
    }

    #[test]
    fn tempered_approaches_the_lower_bound() {
        let dist = skewed(64, 48);
        let mut lb = quick();
        let r = lb.rebalance(&dist, &RngFactory::new(11), 0);
        check_postconditions(&dist, &r);
        let bound = lower_bound_max_load(dist.average_load(), dist.max_task_load()).get();
        assert!(
            r.distribution.max_load().get() <= 1.6 * bound,
            "tempered max load {} far above lower bound {bound}",
            r.distribution.max_load().get()
        );
    }

    #[test]
    fn tempered_beats_grapevine_on_concentrated_load() {
        let dist = skewed(128, 64);
        let mut t = quick();
        let mut g = GrapevineLb::default();
        let factory = RngFactory::new(21);
        let rt = t.rebalance(&dist, &factory, 0);
        let rg = g.rebalance(&dist, &factory, 0);
        assert!(
            rt.final_imbalance < rg.final_imbalance,
            "tempered {} should beat grapevine {}",
            rt.final_imbalance,
            rg.final_imbalance
        );
    }

    #[test]
    fn orderings_all_work() {
        let dist = skewed(32, 32);
        for ordering in OrderingKind::ALL {
            let mut lb = TemperedLb::with_ordering(ordering);
            lb.config.trials = 2;
            lb.config.iters = 4;
            let r = lb.rebalance(&dist, &RngFactory::new(31), 0);
            check_postconditions(&dist, &r);
            assert!(
                r.final_imbalance < r.initial_imbalance,
                "{ordering} failed to improve"
            );
        }
    }

    #[test]
    fn detailed_outcome_exposes_iteration_records() {
        let dist = skewed(32, 32);
        let lb = quick();
        let out = lb.refine_detailed(&dist, &RngFactory::new(1), 0);
        assert_eq!(out.records.len(), 3 * 6);
        // Imbalance is non-increasing in the best-so-far sense.
        assert!(out.best_imbalance <= out.initial_imbalance);
    }
}
