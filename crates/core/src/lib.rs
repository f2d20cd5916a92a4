//! # tempered-core
//!
//! From-scratch implementation of the distributed load balancing
//! algorithms of *"Optimizing Distributed Load Balancing for Workloads
//! with Time-Varying Imbalance"* (Lifflander et al., IEEE CLUSTER 2021):
//! the gossip-based **GrapevineLB** protocol (Menon & Kalé, SC'13) and the
//! paper's improved **TemperedLB**, alongside the centralized
//! (**GreedyLB**) and hierarchical (**HierLB**) baselines used in its
//! evaluation.
//!
//! ## Model
//!
//! Applications are *overdecomposed*: the domain is split into many more
//! migratable tasks than ranks. The runtime instruments per-task
//! execution time each phase; by the *principle of persistence* those
//! measurements predict the next phase, so a balancer can remap tasks
//! between phases to minimize the imbalance metric
//! `I = ℓ_max/ℓ_ave − 1` (Eq. 1).
//!
//! ## Protocol structure
//!
//! 1. **Inform/gossip stage** ([`gossip`]): underloaded ranks
//!    epidemically spread their identity and load; after `k` rounds of
//!    fanout `f`, overloaded ranks hold partial knowledge `S^p`.
//! 2. **Transfer stage** ([`transfer`]): each overloaded rank walks its
//!    tasks in a configurable [`ordering`], samples recipients from a
//!    capacity-weighted [`cmf`], and accepts transfers per a
//!    [`criteria`] rule — all against *local estimates only*, with no
//!    coordination with recipients.
//! 3. **Iterative refinement** ([`refine`]): TemperedLB repeats the two
//!    stages for `n_iters` iterations and `n_trials` trials, keeping the
//!    proposal with the best imbalance and deferring real migrations to
//!    the end.
//!
//! ## Quick start
//!
//! ```
//! use tempered_core::prelude::*;
//!
//! // 40 unit tasks piled onto rank 0 of 8 ranks.
//! let mut per_rank = vec![vec![1.0f64; 40]];
//! per_rank.resize(8, vec![]);
//! let dist = Distribution::from_loads(per_rank);
//! assert_eq!(dist.imbalance(), 7.0);
//!
//! let mut lb = TemperedLb::default();
//! let result = lb.rebalance(&dist, &RngFactory::new(42), 0);
//! assert!(result.final_imbalance < 0.5);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod balancer;
pub mod cmf;
pub mod criteria;
pub mod distribution;
pub mod forecast;
pub mod gossip;
pub mod ids;
pub mod imbalance;
pub mod knowledge;
pub mod load;
pub mod ordering;
pub mod refine;
pub mod rng;
pub mod task;
pub mod transfer;

/// Convenient glob-import surface for applications.
pub mod prelude {
    pub use crate::balancer::{
        GrapevineLb, GreedyLb, HierLb, LoadBalancer, PredictiveLb, RebalanceResult, TemperedConfig,
        TemperedLb,
    };
    pub use crate::cmf::{Cmf, CmfKind};
    pub use crate::criteria::CriterionKind;
    pub use crate::distribution::{Distribution, Migration};
    pub use crate::forecast::{ForecastBank, Holt, LastObserved, LoadModel};
    pub use crate::gossip::GossipConfig;
    pub use crate::ids::{RankId, TaskId};
    pub use crate::imbalance::{imbalance, lower_bound_max_load, LoadStatistics};
    pub use crate::knowledge::Knowledge;
    pub use crate::load::Load;
    pub use crate::ordering::OrderingKind;
    pub use crate::refine::{refine, IterationRecord, RefineConfig, RefineOutcome};
    pub use crate::rng::RngFactory;
    pub use crate::task::Task;
    pub use crate::transfer::{transfer_stage, TransferConfig, TransferOutcome};
}
