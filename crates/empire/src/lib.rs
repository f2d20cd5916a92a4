//! # empire-pic
//!
//! Synthetic stand-in for EMPIRE, the electromagnetic plasma (PIC)
//! application of the paper's §VI evaluation: a 2-D mesh with the paper's
//! static SPMD rank decomposition and per-rank coloring
//! (overdecomposition ×24), a structure-of-arrays particle population
//! driven by a time-varying "B-Dot" field surrogate, per-color load
//! instrumentation feeding the balancers, and a full-run timeline harness
//! that models execution time for each of the paper's six configurations
//! (Figs. 2–4).
//!
//! What is real vs. modeled (see DESIGN.md §1): particle injection,
//! advection, boundary reflection, and per-color histogramming are real
//! computations whose spatial dynamics generate the time-varying
//! imbalance; *execution time* is modeled from counted work (per-particle
//! and per-cell costs with the Fig. 3-derived AMT overhead factors),
//! because wall-clock on the paper's 100-node ARM cluster is not
//! reproducible on any other machine.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod app;
pub mod dist_app;
pub mod fields;
pub mod locality;
pub mod mesh;
pub mod particles;
pub mod scenario;
pub mod timeline;

pub use app::{EmpireSim, PhaseLoads};
pub use dist_app::{run_distributed_pic, DistPicConfig, DistPicResult, PicRank};
pub use locality::{measure_locality, LocalityStats};
pub use mesh::{ColorId, Mesh};
pub use scenario::{BdotScenario, CostModel};
pub use timeline::{run_timeline, ExecutionMode, LbStrategy, StepStats, Timeline, TimelineConfig};
