//! Load balancing strategies behind a common interface.
//!
//! The paper's Fig. 2/3 compare five configurations; the four that
//! balance map to one implementation each here, and the timelines model
//! "SPMD" and "AMT without LB" by calling no balancer at all:
//!
//! | Paper configuration  | Type                 |
//! |----------------------|----------------------|
//! | AMT w/GrapevineLB    | [`GrapevineLb`]      |
//! | AMT w/GreedyLB       | [`GreedyLb`]         |
//! | AMT w/HierLB         | [`HierLb`]           |
//! | AMT w/TemperedLB     | [`TemperedLb`]       |
//!
//! Beside them, [`PredictiveLb`] runs any of these on forecast loads, and
//! [`evacuate`] empties draining ranks for the elastic step runner.
//!
//! A balancer consumes the instrumented [`Distribution`] of the previous
//! phase (the *principle of persistence*: past load predicts future load)
//! and returns a proposed assignment plus the migrations realizing it.

mod drain;
mod grapevine;
mod greedy;
mod hier;
mod predictive;
mod tempered;

pub use drain::evacuate;
pub use grapevine::GrapevineLb;
pub use greedy::GreedyLb;
pub use hier::HierLb;
pub use predictive::PredictiveLb;
pub use tempered::{TemperedConfig, TemperedLb};

use crate::distribution::{Distribution, Migration};
use crate::rng::RngFactory;

/// Result of one balancer invocation.
#[derive(Clone, Debug)]
pub struct RebalanceResult {
    /// The proposed assignment.
    pub distribution: Distribution,
    /// Migrations transforming the input into `distribution`.
    pub migrations: Vec<Migration>,
    /// Imbalance of the input.
    pub initial_imbalance: f64,
    /// Imbalance of the proposal.
    pub final_imbalance: f64,
    /// Protocol messages sent (0 for centralized strategies).
    pub messages_sent: u64,
}

/// A load balancing strategy.
pub trait LoadBalancer {
    /// Short human-readable name, as used in the paper's figures.
    fn name(&self) -> &'static str;

    /// Propose a rebalanced assignment for `dist`.
    ///
    /// `epoch` identifies the invocation (e.g. the application timestep)
    /// and namespaces any randomness drawn from `factory`.
    fn rebalance(
        &mut self,
        dist: &Distribution,
        factory: &RngFactory,
        epoch: u64,
    ) -> RebalanceResult;
}

/// A boxed balancer is a balancer, so wrappers such as [`PredictiveLb`]
/// compose over a strategy chosen at run time.
impl<B: LoadBalancer + ?Sized> LoadBalancer for Box<B> {
    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn rebalance(
        &mut self,
        dist: &Distribution,
        factory: &RngFactory,
        epoch: u64,
    ) -> RebalanceResult {
        (**self).rebalance(dist, factory, epoch)
    }
}

#[cfg(test)]
pub(crate) mod test_support {
    use super::*;
    use crate::load::Load;

    /// A distribution with geometric loads concentrated on few ranks —
    /// stresses every balancer the same way the B-Dot startup does.
    pub fn skewed(num_ranks: usize, seed_tasks: usize) -> Distribution {
        let per_rank: Vec<Vec<f64>> = (0..num_ranks)
            .map(|r| {
                if r < num_ranks / 8 + 1 {
                    (0..seed_tasks)
                        .map(|i| 0.5 + ((r * seed_tasks + i) % 7) as f64 * 0.25)
                        .collect()
                } else {
                    vec![]
                }
            })
            .collect();
        Distribution::from_loads(per_rank)
    }

    /// Assert the structural postconditions every balancer must satisfy.
    pub fn check_postconditions(input: &Distribution, result: &RebalanceResult) {
        result.distribution.check_invariants().unwrap();
        assert_eq!(result.distribution.num_tasks(), input.num_tasks());
        assert!(result
            .distribution
            .total_load()
            .approx_eq(input.total_load()));
        assert!(result.final_imbalance <= result.initial_imbalance + 1e-9);
        // Replaying migrations reproduces the proposal's loads.
        let mut replay = input.clone();
        replay.apply(&result.migrations).unwrap();
        for rank in replay.rank_ids() {
            let a: Load = replay.rank_load(rank);
            let b: Load = result.distribution.rank_load(rank);
            assert!(a.approx_eq(b), "rank {rank}: {a:?} vs {b:?}");
        }
    }
}
