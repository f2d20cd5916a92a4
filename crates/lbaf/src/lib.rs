//! # lbaf — Load Balancing Analysis Framework
//!
//! Rust counterpart of the paper's LBAF (a Python tool "for exploring,
//! testing, and comparing load balancing strategies", §V-B): synthetic
//! initial layouts, the §V-B/§V-D criterion experiments with their
//! per-iteration transfer/rejection/imbalance tables, parameter sweeps
//! over the §V design space, and the table rendering shared by every
//! experiment binary in `tempered-bench`.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod experiment;
pub mod layout;
pub mod sweep;
pub mod table;
pub mod trace;

pub use experiment::{
    comparison_table, run_criterion_experiment, CriterionExperiment, CriterionResult, CriterionRow,
    CriterionVariant,
};
pub use layout::ConcentratedLayout;
pub use sweep::{
    gossip_coverage, sweep_ablation, sweep_budget, sweep_fanout, sweep_knowledge_cap,
    sweep_orderings, sweep_rounds, sweep_threshold, Sweep, SweepPoint,
};
pub use table::{fmt_sig, Table};
pub use trace::{record_empire_trace, snapshot_phase, Trace, TracePhase};
