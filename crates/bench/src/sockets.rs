//! Shared scenario and configuration builders for the multi-process TCP
//! chaos grid (`--bin orchestrate` + `--bin lb_rank`).
//!
//! Both binaries — and the simulator reference the orchestrator compares
//! against — must construct *exactly* the same distribution, protocol
//! configuration, and fault plan from a handful of CLI scalars, or the
//! bit-for-bit equivalence check would be comparing different runs.
//! Everything shape-defining lives here; the binaries only parse flags.
//!
//! ## Why these knobs differ from the in-process chaos grid
//!
//! The simulator's retry/health constants are tuned to its microsecond
//! virtual latencies. Over real sockets the same protocol faces
//! scheduler hiccups, connect latency, and millisecond RTTs, so the
//! sockets stack stretches the wall-clock-sensitive knobs (retry
//! timeout, heartbeat period, suspicion threshold, park deadline) —
//! and, crucially, the simulator *reference* runs with the same
//! stretched configuration, keeping the comparison apples-to-apples.
//!
//! ## Scenario selection
//!
//! Committed assignments are membership-trajectory-determined (the
//! engine restarts from the original placement on every view change;
//! see `DESIGN.md` §12), so scenarios whose membership outcome is
//! timing-robust — no faults, gray links that never change membership,
//! a single-rank split (one possible view trajectory), an even split
//! (everyone parks) — commit bit-for-bit identically under the
//! simulator and the socket driver. The process-kill scenario is
//! inherently wall-clock (the kill lands wherever the protocol happens
//! to be), so it asserts survival and no double-ownership rather than
//! bit equality.

use std::path::Path;
use tempered_core::distribution::Distribution;
use tempered_core::ids::{RankId, TaskId};
use tempered_runtime::lb::LbProtocolConfig;
use tempered_runtime::{FaultPlan, HealthConfig, PartitionConfig, PartitionWindow, RetryConfig};

/// Master seed of the sockets grid (same convention as the chaos grid).
pub const SOCKETS_SEED: u64 = 4242;

/// Hot-spot input shared by every sockets scenario: 2 overloaded ranks,
/// the rest empty — small enough that a grid of multi-process runs
/// stays fast, imbalanced enough that the commit is a real migration
/// pattern rather than a no-op.
pub fn scenario_dist(num_ranks: usize) -> Distribution {
    let per_rank: Vec<Vec<f64>> = (0..num_ranks)
        .map(|r| if r < 2 { vec![1.0; 12] } else { vec![] })
        .collect();
    Distribution::from_loads(per_rank)
}

/// Wall-clock retry configuration for runs over real sockets (the
/// simulator reference uses the same values in virtual seconds).
pub fn sockets_retry() -> RetryConfig {
    RetryConfig {
        timeout: 2e-3,
        backoff: 2.0,
        max_retries: 12,
        stage_deadline: 10.0,
        ..RetryConfig::default()
    }
}

/// Failure-detector knobs relaxed for wall-clock noise: a scheduler
/// hiccup must not read as a crash. A full grid runs dozens of rank
/// processes (hundreds of threads in a debug build), so a peer must go
/// silent for 300 ms — and half a second at startup, when process spawn
/// and connect storms pile up — before it is suspected. Real crashes
/// and partitions still resolve well inside the 1 s park deadline.
pub fn sockets_health() -> HealthConfig {
    HealthConfig {
        period: 10e-3,
        suspicion_threshold: 30.0,
        startup_grace: 0.5,
    }
}

/// Stack the full tolerance pipeline (reliable delivery, crash
/// detection, quorum gating) on `base` with the sockets-tuned knobs.
pub fn sockets_stack(base: LbProtocolConfig) -> LbProtocolConfig {
    base.hardened(sockets_retry())
        .crash_tolerant(sockets_health())
        .partition_tolerant(PartitionConfig { park_deadline: 1.0 })
}

/// Resolve a balancer name (`tempered` | `grapevine`) to its sockets
/// protocol configuration.
pub fn balancer_config(name: &str) -> Result<LbProtocolConfig, String> {
    let base = match name {
        "tempered" => LbProtocolConfig::quick(),
        "grapevine" => LbProtocolConfig::grapevine(),
        other => return Err(format!("unknown balancer {other:?} (tempered|grapevine)")),
    };
    Ok(sockets_stack(base))
}

/// The ids of one rank's canonical view (`Distribution::canonical`,
/// `LbRank::canonical`): what a `RESULT` line prints and what the
/// orchestrator compares it against. Loads never change inside an LB
/// run, so on a shared input the ids carry the whole placement.
pub fn task_ids(view: &[(TaskId, u64)]) -> Vec<u64> {
    view.iter().map(|&(id, _)| id.as_u64()).collect()
}

/// One row of the sockets chaos grid.
pub struct SocketScenario {
    /// Row label in `chaos_sockets.csv`.
    pub name: &'static str,
    /// The faults the link emulator injects in every rank process.
    pub plan: FaultPlan,
    /// Rank whose *process* the orchestrator kills mid-run (the one
    /// fault the userspace emulator cannot express).
    pub kill: Option<RankId>,
    /// Whether the committed assignment must match the simulator
    /// bit-for-bit (true for every timing-robust scenario).
    pub bit_compare: bool,
}

/// Build the sockets grid for `num_ranks` rank processes. The gray-link
/// storm is loaded from `plans_dir` (the shipped
/// `examples/plans/sockets_gray.json`), proving the plan-file path end
/// to end; the splits are constructed to be membership-robust (see the
/// module docs).
pub fn scenarios(num_ranks: usize, plans_dir: &Path) -> Result<Vec<SocketScenario>, String> {
    assert!(num_ranks >= 4, "the sockets grid needs at least 4 ranks");
    let gray = FaultPlan::load(&plans_dir.join("sockets_gray.json"))?;
    Ok(vec![
        SocketScenario {
            name: "clean",
            plan: FaultPlan::none(),
            kill: None,
            bit_compare: true,
        },
        SocketScenario {
            name: "gray_links",
            plan: gray,
            kill: None,
            bit_compare: true,
        },
        SocketScenario {
            // One cold rank cut off from everyone from t=0: the majority
            // fences it (a single possible view trajectory) and commits;
            // the minority of one parks read-only.
            name: "split_minority",
            plan: FaultPlan {
                seed: 0x50C7,
                partitions: vec![PartitionWindow {
                    side: vec![RankId::from(num_ranks - 1)],
                    start: 0.0,
                    end: None,
                }],
                ..FaultPlan::none()
            },
            kill: None,
            bit_compare: true,
        },
        SocketScenario {
            // An even split leaves no strict majority: every rank parks
            // and the input placement survives untouched — bit-equal to
            // the simulator under any suspicion ordering.
            name: "split_half",
            plan: FaultPlan {
                seed: 0x50C8,
                partitions: vec![PartitionWindow {
                    side: (0..num_ranks / 2).map(RankId::from).collect(),
                    start: 0.0,
                    end: None,
                }],
                ..FaultPlan::none()
            },
            kill: None,
            bit_compare: true,
        },
        SocketScenario {
            // A real SIGKILL of one cold rank process mid-run: the
            // survivors must detect it over the dead TCP streams and
            // finish through the quorum-restart path.
            name: "kill_rank",
            plan: FaultPlan::none(),
            kill: Some(RankId::from(num_ranks - 1)),
            bit_compare: false,
        },
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn balancer_names_resolve_and_stack_tolerance() {
        for name in ["tempered", "grapevine"] {
            let cfg = balancer_config(name).unwrap();
            assert!(cfg.reliability.is_some(), "{name} must be hardened");
            assert!(cfg.health.is_some(), "{name} must be crash tolerant");
            assert!(cfg.partition.is_some(), "{name} must be quorum gated");
        }
        assert!(balancer_config("other").is_err());
    }

    #[test]
    fn scenario_grid_is_membership_robust_by_construction() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/plans");
        let scenarios = scenarios(8, &dir).expect("shipped plan file parses");
        assert!(scenarios.iter().any(|s| s.kill.is_some()));
        assert!(scenarios.iter().any(|s| !s.plan.partitions.is_empty()));
        for s in &scenarios {
            s.plan.validate().unwrap_or_else(|e| {
                panic!("scenario {} ships an invalid plan: {e}", s.name);
            });
            if s.bit_compare {
                // Bit-compared scenarios must be membership-robust:
                // no process kills, and any partition is either a
                // single-rank minority (one possible view trajectory)
                // or an even split (everyone parks). Multi-rank strict
                // minorities have timing-dependent suspicion grouping.
                assert!(s.kill.is_none(), "{}", s.name);
                for p in &s.plan.partitions {
                    assert!(
                        p.side.len() <= 1 || p.side.len() * 2 == 8,
                        "{}: multi-rank minority splits are timing-fragile",
                        s.name
                    );
                }
            }
        }
    }

    #[test]
    fn shared_shapes_are_deterministic() {
        let a = scenario_dist(8);
        let b = scenario_dist(8);
        assert_eq!(a.canonical(), b.canonical());
        assert_eq!(a.num_tasks(), 24);
    }
}
