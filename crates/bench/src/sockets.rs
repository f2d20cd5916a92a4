//! Shared scenario and configuration builders for the multi-process TCP
//! chaos grid (`--bin orchestrate` + `--bin lb_rank`).
//!
//! Both binaries — and the simulator reference the orchestrator compares
//! against — must construct *exactly* the same distribution, protocol
//! configuration, and fault plan from a handful of CLI scalars, or the
//! bit-for-bit equivalence check would be comparing different runs.
//! Everything shape-defining lives here; the binaries only parse flags.
//! The input is the one exception, because core already builds it: every
//! scenario runs `Distribution::concentrated(ranks, 2, 12)`, two ranks of
//! twelve unit tasks and the rest empty — small enough that a grid of
//! multi-process runs stays fast, imbalanced enough that the commit is a
//! real migration pattern rather than a no-op.
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
use tempered_core::ids::{RankId, TaskId};
use tempered_runtime::lb::LbProtocolConfig;
use tempered_runtime::{FaultPlan, HealthConfig, PartitionConfig, PartitionWindow, RetryConfig};

/// Master seed of the sockets grid (same convention as the chaos grid).
pub const SOCKETS_SEED: u64 = 4242;

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
/// `LbRank::canonical`): what a [`RankResult`] carries and what the
/// orchestrator compares it against. Loads never change inside an LB
/// run, so on a shared input the ids carry the whole placement.
pub fn task_ids(view: &[(TaskId, u64)]) -> Vec<u64> {
    view.iter().map(|&(id, _)| id.as_u64()).collect()
}

/// A rank process's last word on stdout — `RESULT rank=.. finished=..
/// degraded=.. parked=.. msgs=.. bytes=.. retransmits=.. wall_ms=..
/// tasks=<id,id,...>` — written by `lb_rank` ([`std::fmt::Display`]) and
/// read back by `orchestrate` ([`RankResult::parse`]).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RankResult {
    /// The reporting rank.
    pub rank: usize,
    /// Whether the protocol reached Done before the process was told to
    /// exit.
    pub finished: bool,
    /// Whether the rank abandoned the protocol.
    pub degraded: bool,
    /// Whether the rank sat the run out parked.
    pub parked: bool,
    /// Frames put on the wire.
    pub msgs: u64,
    /// Bytes put on the wire.
    pub bytes: u64,
    /// Reliable-layer retransmissions.
    pub retransmits: u64,
    /// Wall-clock duration of the run in milliseconds.
    pub wall_ms: f64,
    /// The rank's final task ids ([`task_ids`]).
    pub tasks: Vec<u64>,
}

impl std::fmt::Display for RankResult {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let tasks: Vec<String> = self.tasks.iter().map(u64::to_string).collect();
        write!(
            f,
            "RESULT rank={} finished={} degraded={} parked={} msgs={} bytes={} retransmits={} \
             wall_ms={:.1} tasks={}",
            self.rank,
            u8::from(self.finished),
            u8::from(self.degraded),
            u8::from(self.parked),
            self.msgs,
            self.bytes,
            self.retransmits,
            self.wall_ms,
            tasks.join(",")
        )
    }
}

impl RankResult {
    /// Parse one stdout line of a rank process: `None` when it is not a
    /// `RESULT` line at all, an error when it is one but malformed (an
    /// unknown key, a value that does not parse, no `rank=`).
    pub fn parse(line: &str) -> Option<Result<RankResult, String>> {
        let fields = line.strip_prefix("RESULT ")?;
        let parse = || {
            let mut rank = None;
            let mut out = RankResult::default();
            for field in fields.split_whitespace() {
                let (key, val) = field
                    .split_once('=')
                    .ok_or_else(|| format!("bad RESULT field {field:?}"))?;
                let as_u64 = || val.parse::<u64>().map_err(|e| format!("{key}: {e}"));
                match key {
                    "rank" => rank = Some(val.parse().map_err(|e| format!("rank: {e}"))?),
                    "finished" => out.finished = val == "1",
                    "degraded" => out.degraded = val == "1",
                    "parked" => out.parked = val == "1",
                    "msgs" => out.msgs = as_u64()?,
                    "bytes" => out.bytes = as_u64()?,
                    "retransmits" => out.retransmits = as_u64()?,
                    "wall_ms" => out.wall_ms = val.parse().map_err(|e| format!("wall_ms: {e}"))?,
                    "tasks" if val.is_empty() => {}
                    "tasks" => {
                        out.tasks = val
                            .split(',')
                            .map(|t| t.parse().map_err(|e| format!("tasks: {e}")))
                            .collect::<Result<_, String>>()?
                    }
                    other => return Err(format!("unknown RESULT key {other}")),
                }
            }
            out.rank = rank.ok_or("RESULT missing rank=")?;
            Ok(out)
        };
        Some(parse())
    }
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
    let gray = FaultPlan::load(&plans_dir.join("sockets_gray.json"), num_ranks)?;
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
    fn result_lines_round_trip() {
        let full = RankResult {
            rank: 3,
            finished: true,
            degraded: false,
            parked: true,
            msgs: 812,
            bytes: 40_960,
            retransmits: 7,
            wall_ms: 12.5,
            tasks: vec![0, 5, 23],
        };
        let line = full.to_string();
        assert_eq!(
            line,
            "RESULT rank=3 finished=1 degraded=0 parked=1 msgs=812 bytes=40960 \
             retransmits=7 wall_ms=12.5 tasks=0,5,23"
        );
        assert_eq!(RankResult::parse(&line), Some(Ok(full.clone())));
        // A rank left holding nothing prints an empty `tasks=`.
        let empty = RankResult {
            tasks: Vec::new(),
            ..full
        };
        assert!(empty.to_string().ends_with(" tasks="));
        assert_eq!(RankResult::parse(&empty.to_string()), Some(Ok(empty)));

        assert_eq!(RankResult::parse("DONE"), None);
        let err = |line: &str| RankResult::parse(line).unwrap().unwrap_err();
        assert!(err("RESULT rank=1 colour=blue").contains("unknown RESULT key colour"));
        assert!(err("RESULT finished=1 tasks=").contains("missing rank="));
        assert!(err("RESULT rank=1 tasks=1,x").contains("tasks:"));
    }
}
