//! # tempered-runtime
//!
//! Simulated AMT runtime substrate for the TemperedLB reproduction: the
//! stand-in for the paper's DARMA/vt tasking library over MPI.
//!
//! Components:
//!
//! * [`sim`] — deterministic discrete-event executor delivering active
//!   messages between rank protocols under a latency model.
//! * [`wheel`] — hierarchical timer wheel backing the simulator's event
//!   queue and the wall-clock host's held queue, with a deterministic
//!   `(time, push order)` pop order.
//! * `host` (crate-private) — the one wall-clock driver loop: clock,
//!   emulator, held queue, handler buffers, a local queue for copies
//!   between its own ranks, and a receive loop that spins briefly before
//!   it parks. A driver adds where a copy for another host goes and when
//!   to stop.
//! * [`parallel`] — multi-threaded executor running the *same* protocols
//!   with real concurrency: ranks dealt to worker threads in blocks of
//!   consecutive ids, one host each, `std::sync::mpsc` channels between
//!   them. Stress-tests protocol correctness under arbitrary
//!   interleavings.
//! * [`termination`] — Mattern four-counter wave termination detection,
//!   the mechanism sequencing the barrier-free gossip protocol (§IV-B).
//! * [`collective`] — binary-tree reduce/broadcast used for the load
//!   allreduce and per-iteration evaluation.
//! * [`lb`] — the full asynchronous TemperedLB/GrapevineLB protocol,
//!   layered sans-I/O style: a pure protocol engine
//!   ([`lb::engine::GossipEngine`]), a rank actor ([`lb::LbRank`]) that
//!   owns the delivery state and frames the engine's messages, and thin
//!   per-executor drivers — among them [`lb::socket`], a host per rank
//!   process behind TCP byte pumps.
//! * [`fault`] — seed-deterministic fault plans (drop, duplication,
//!   delay spikes, stragglers, pauses, crash-stop failures, link faults,
//!   partitions), their validation and their counters.
//! * [`emulator`] — the one interpreter of a [`fault::FaultPlan`], owned
//!   by the simulator and by every real-I/O driver alike.
//! * [`reliable`] — at-least-once delivery with retransmission, backoff,
//!   and receiver-side dedup, hardening the LB protocol against faults.
//! * [`health`] — accrual-style heartbeat failure detection, turning a
//!   crashed rank's silence into a deterministic suspicion verdict.
//! * [`membership`] — epoch-stamped membership views (monotone dead
//!   sets) used to fence stale-view traffic after a crash.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod audit;
pub mod census;
pub mod collective;
pub mod crc;
pub mod elastic;
pub mod emulator;
pub mod fault;
pub mod fuzz;
pub mod health;
mod host;
pub mod lb;
pub mod membership;
pub mod parallel;
pub mod planfile;
pub mod reliable;
pub mod sim;
pub mod termination;
pub mod wheel;

pub use fault::{
    CrashEvent, FaultPlan, FaultPlanError, FaultStats, LinkFault, LinkFaultKind, PartitionWindow,
};
pub use health::{HealthConfig, HealthDetector};
pub use lb::{
    run_distributed_lb, run_distributed_lb_traced, run_distributed_lb_with_faults, run_local_lb,
    DistLbResult, GossipEngine, LbProtocolConfig, LocalLbResult, PartitionConfig,
};
pub use membership::View;
pub use reliable::{ReliableStats, RetryConfig};
pub use sim::{NetworkModel, Protocol, SimReport, Simulator};
pub use tempered_obs::NetworkStats;
