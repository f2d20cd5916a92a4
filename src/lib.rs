//! # tempered-lb
//!
//! Facade crate for the TemperedLB reproduction — *"Optimizing
//! Distributed Load Balancing for Workloads with Time-Varying Imbalance"*
//! (Lifflander et al., IEEE CLUSTER 2021) — re-exporting the four
//! subsystem crates:
//!
//! * [`core`] (`tempered-core`) — the balancing algorithms: gossip,
//!   transfer criteria/CMFs/orderings, iterative refinement, and the
//!   GrapevineLB / TemperedLB / GreedyLB / HierLB strategies.
//! * [`runtime`] (`tempered-runtime`) — the simulated AMT substrate:
//!   event-driven and multi-threaded executors, termination detection,
//!   collectives, and the asynchronous message-driven LB protocol.
//! * [`empire`] (`empire-pic`) — the EMPIRE-like particle-in-cell
//!   surrogate that induces the paper's time-varying imbalance, plus the
//!   timeline harness behind Figs. 2–4.
//! * [`lbaf`] — the analysis framework behind the §V-B/§V-D tables and
//!   the design-space sweeps.
//!
//! ## Quick start
//!
//! ```
//! use tempered_lb::prelude::*;
//!
//! // Pile work onto one of 8 ranks, then balance it.
//! let mut per_rank = vec![vec![1.0f64; 32]];
//! per_rank.resize(8, vec![]);
//! let dist = Distribution::from_loads(per_rank);
//!
//! let mut lb = TemperedLb::default();
//! let result = lb.rebalance(&dist, &RngFactory::new(1), 0);
//! assert!(result.final_imbalance < dist.imbalance());
//! ```
//!
//! See `examples/` for runnable end-to-end scenarios and
//! `crates/bench/src/bin/` for the binaries regenerating every table and
//! figure of the paper.

#![warn(missing_docs)]

pub mod cli;

pub use empire_pic as empire;
pub use lbaf;
pub use tempered_core as core;
pub use tempered_runtime as runtime;

/// One-stop imports for applications.
pub mod prelude {
    pub use empire_pic::{
        run_timeline, BdotScenario, CostModel, EmpireSim, ExecutionMode, LbStrategy, Mesh,
        Timeline, TimelineConfig,
    };
    pub use tempered_core::prelude::*;
    pub use tempered_runtime::{run_distributed_lb, DistributedLb, LbProtocolConfig, NetworkModel};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_reexports_compose() {
        let dist = Distribution::from_loads(vec![vec![2.0, 2.0], vec![]]);
        let mut lb = GreedyLb;
        let r = lb.rebalance(&dist, &RngFactory::new(0), 0);
        assert_eq!(r.final_imbalance, 0.0);
    }
}
