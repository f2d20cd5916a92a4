//! The benchmark's pinned inputs and configurations.
//!
//! Deliberately *not* imported from `tempered_bench::sockets` or
//! `perf_baseline`: a later change to those must not silently change
//! what the benchmark of record measures.

use tempered_core::balancer::{TemperedConfig, TemperedLb};
use tempered_core::distribution::Distribution;
use tempered_core::gossip::GossipConfig;
use tempered_core::ids::RankId;
use tempered_core::rng::RngFactory;
use tempered_core::task::Task;
use tempered_runtime::lb::{LbProtocolConfig, LbRank, PartitionConfig};
use tempered_runtime::{FaultPlan, HealthConfig, RetryConfig};
use tempered_svc::SvcScenario;

pub const DEFAULT_SEED: u64 = 4242;

const TRIALS: usize = 2;
const ITERS: usize = 3;
const FANOUT: usize = 4;
const ROUNDS: usize = 5;

/// TemperedLB over best-effort (`LbWire::Raw`) delivery.
pub fn raw() -> LbProtocolConfig {
    LbProtocolConfig {
        trials: TRIALS,
        iters: ITERS,
        fanout: FANOUT,
        rounds: ROUNDS,
        ..Default::default()
    }
}

/// The simulator's retry knobs, tuned to its microsecond virtual RTT.
pub const SIM_RETRY: RetryConfig = RetryConfig {
    timeout: 200e-6,
    backoff: 1.5,
    max_retries: 30,
    stage_deadline: 30.0,
    jitter: 0.1,
};

/// TemperedLB over reliable delivery (acks, retransmission, dedup).
pub fn hardened() -> LbProtocolConfig {
    raw().hardened(SIM_RETRY)
}

/// The full tolerance stack with wall-clock knobs for loopback TCP: a
/// scheduler hiccup must not read as a loss or a crash.
pub fn sockets_stack() -> LbProtocolConfig {
    raw()
        .hardened(RetryConfig {
            timeout: 2e-3,
            backoff: 2.0,
            max_retries: 12,
            stage_deadline: 10.0,
            ..RetryConfig::default()
        })
        .crash_tolerant(HealthConfig {
            period: 10e-3,
            suspicion_threshold: 30.0,
            startup_grace: 0.5,
        })
        .partition_tolerant(PartitionConfig { park_deadline: 1.0 })
}

/// The synchronous `core` balancer with the same algorithmic knobs, for
/// pricing the kernels without any protocol around them.
pub fn sync_tempered() -> TemperedLb {
    TemperedLb::new(TemperedConfig {
        trials: TRIALS,
        iters: ITERS,
        gossip: GossipConfig {
            fanout: FANOUT,
            rounds: ROUNDS,
            ..GossipConfig::default()
        },
        ..TemperedConfig::default()
    })
}

/// The first `max(P/8, 2)` ranks hold 40 unit-load tasks each, the rest
/// are empty.
pub fn hotspot(num_ranks: usize) -> Distribution {
    let hot = (num_ranks / 8).max(2);
    Distribution::from_loads((0..num_ranks).map(
        |r| {
            if r < hot {
                vec![1.0; 40]
            } else {
                Vec::new()
            }
        },
    ))
}

const SVC_SHARDS_PER_RANK: usize = 16;
const SVC_PHASES: usize = 36;
/// A third of the way in plus three: the steepest point of the ramp.
const SVC_FROZEN_PHASE: u64 = 15;

pub fn svc_scenario(num_ranks: usize, seed: u64) -> SvcScenario {
    SvcScenario::flash_crowd(num_ranks, SVC_SHARDS_PER_RANK, SVC_PHASES, seed)
}

/// The flash-crowd service workload frozen mid-ramp: dyadic loads on
/// every rank, a hashed fifth of the shards hot.
pub fn svc_flash(scenario: &SvcScenario) -> Distribution {
    let mut dist = scenario.initial_distribution();
    scenario.apply_phase(&mut dist, SVC_FROZEN_PHASE);
    dist
}

/// Probabilistic message faults only, so every rank still finishes and
/// the round stays comparable to the fault-free one.
pub fn lossy_plan() -> FaultPlan {
    FaultPlan {
        seed: 99,
        drop: 0.02,
        duplicate: 0.01,
        reorder: 0.05,
        delay_spike: 0.01,
        ..FaultPlan::none()
    }
}

/// One protocol actor per rank of `dist`, as every driver builds them.
pub fn build_ranks(
    dist: &Distribution,
    cfg: LbProtocolConfig,
    factory: &RngFactory,
) -> Vec<LbRank> {
    dist.rank_ids()
        .map(|r| {
            let tasks = dist
                .tasks_on(r)
                .iter()
                .map(|t| (t.id, t.load.get()))
                .collect();
            LbRank::new(r, dist.num_ranks(), tasks, cfg, *factory)
        })
        .collect()
}

/// Per-rank `(task id, load bits)` sorted by id: the form in which
/// placements from different drivers compare bit for bit.
pub type Assignment = Vec<Vec<(u64, u64)>>;

pub fn assignment_of_dist(dist: &Distribution) -> Assignment {
    dist.rank_ids()
        .map(|r| {
            sorted_tasks(
                dist.tasks_on(r)
                    .iter()
                    .map(|t| (t.id.as_u64(), t.load.get())),
            )
        })
        .collect()
}

pub fn assignment_of_ranks<'a>(ranks: impl Iterator<Item = &'a LbRank>) -> Assignment {
    ranks
        .map(|r| sorted_tasks(r.final_tasks().iter().map(|t| (t.id.as_u64(), t.load))))
        .collect()
}

fn sorted_tasks(tasks: impl Iterator<Item = (u64, f64)>) -> Vec<(u64, u64)> {
    let mut v: Vec<(u64, u64)> = tasks.map(|(id, load)| (id, load.to_bits())).collect();
    v.sort_unstable();
    v
}

/// `I = max/mean - 1` of an assignment, summed in task-id order on every
/// driver so equal placements give equal bits. `None` if a task id
/// occurs twice.
pub fn imbalance_of(assignment: &Assignment) -> Option<f64> {
    let mut dist = Distribution::new(assignment.len());
    for (r, tasks) in assignment.iter().enumerate() {
        for &(id, load) in tasks {
            dist.insert(RankId::from(r), Task::new(id, f64::from_bits(load)))
                .ok()?;
        }
    }
    Some(dist.imbalance())
}
