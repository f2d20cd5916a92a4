//! Chaos properties of the hardened LB protocol: under drops,
//! duplication, delay spikes, stragglers and pause windows, the
//! at-least-once delivery layer must terminate the protocol and produce
//! the *same final assignment* as a fault-free run — faults may change
//! timing and wire traffic, never the outcome. A zeroed fault plan must
//! be bit-identical to running with no fault layer at all.

use proptest::prelude::*;
use std::time::Duration;
use tempered_core::distribution::Distribution;
use tempered_core::ids::RankId;
use tempered_core::rng::RngFactory;
use tempered_runtime::fault::{CrashEvent, FaultPlan, FaultStats, PauseWindow};
use tempered_runtime::health::HealthConfig;
use tempered_runtime::lb::{LbProtocolConfig, LbRank};
use tempered_runtime::parallel::{run_parallel_with, ParallelOptions};
use tempered_runtime::reliable::RetryConfig;
use tempered_runtime::sim::NetworkModel;
use tempered_runtime::{run_distributed_lb, run_distributed_lb_with_faults};

fn small_cfg() -> LbProtocolConfig {
    LbProtocolConfig {
        trials: 1,
        iters: 2,
        fanout: 3,
        rounds: 4,
        ..Default::default()
    }
}

fn hardened_cfg() -> LbProtocolConfig {
    small_cfg().hardened(RetryConfig::generous())
}

fn arb_distribution() -> impl Strategy<Value = Distribution> {
    prop::collection::vec(prop::collection::vec(0.05f64..3.0, 0..8), 2..10)
        .prop_map(Distribution::from_loads)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Moderate chaos (drops ≤ 0.2, duplication, delay spikes, a
    /// straggler, a pause window): the hardened protocol never degrades
    /// and its final assignment is identical to the fault-free run —
    /// the delivery layer makes faults invisible to the algorithm.
    #[test]
    fn hardened_chaos_matches_fault_free_assignment(
        dist in arb_distribution(),
        seed in any::<u64>(),
        fault_seed in any::<u64>(),
        drop in 0.0f64..0.2,
        duplicate in 0.0f64..0.3,
    ) {
        let cfg = hardened_cfg();
        let plan = FaultPlan {
            seed: fault_seed,
            drop,
            duplicate,
            delay_spike: 0.1,
            delay_spike_scale: 10.0,
            stragglers: vec![(RankId::new(0), 8.0)],
            pauses: vec![PauseWindow { rank: RankId::new(1), from: 0.0, until: 0.002 }],
            ..FaultPlan::none()
        };
        let clean = run_distributed_lb(
            &dist, cfg, NetworkModel::default(), &RngFactory::new(seed));
        let chaos = run_distributed_lb_with_faults(
            &dist, cfg, NetworkModel::default(), &RngFactory::new(seed), plan);

        prop_assert_eq!(chaos.degraded_ranks, 0,
            "generous retry budget must absorb moderate chaos");
        prop_assert_eq!(chaos.distribution.canonical(), clean.distribution.canonical());
        prop_assert_eq!(chaos.final_imbalance.to_bits(), clean.final_imbalance.to_bits());
        prop_assert_eq!(chaos.tasks_migrated, clean.tasks_migrated);
        prop_assert_eq!(chaos.distribution.num_tasks(), dist.num_tasks());
        // Every injected drop of a protocol message must have been repaired.
        prop_assert!(chaos.reliable.gave_up == 0);
    }

    /// Arbitrary (possibly brutal) fault plans: the hardened protocol
    /// always terminates. If no rank degraded, tasks are conserved and
    /// the outcome still equals the fault-free assignment; degradation,
    /// when it happens, is visible in the result rather than a hang.
    #[test]
    fn random_fault_plans_terminate(
        dist in arb_distribution(),
        seed in any::<u64>(),
        fault_seed in any::<u64>(),
        drop in 0.0f64..0.5,
        duplicate in 0.0f64..0.5,
        delay_spike in 0.0f64..0.3,
    ) {
        let cfg = hardened_cfg();
        let plan = FaultPlan {
            seed: fault_seed,
            drop,
            duplicate,
            delay_spike,
            delay_spike_scale: 20.0,
            reorder: 0.2,
            reorder_factor: 25.0,
            stragglers: vec![(RankId::new(1), 16.0)],
            pauses: vec![PauseWindow { rank: RankId::new(0), from: 0.001, until: 0.004 }],
            ..FaultPlan::none()
        };
        // run_distributed_lb_with_faults asserts completion internally;
        // reaching this point at all is the termination property.
        let chaos = run_distributed_lb_with_faults(
            &dist, cfg, NetworkModel::default(), &RngFactory::new(seed), plan);
        prop_assert!(chaos.report.completed);
        if chaos.degraded_ranks == 0 {
            prop_assert_eq!(chaos.distribution.num_tasks(), dist.num_tasks());
            prop_assert!(chaos.distribution.total_load().approx_eq(dist.total_load()));
            chaos.distribution.check_invariants().map_err(TestCaseError::fail)?;
            let clean = run_distributed_lb(
                &dist, cfg, NetworkModel::default(), &RngFactory::new(seed));
            prop_assert_eq!(chaos.distribution.canonical(), clean.distribution.canonical());
        }
    }

    /// Faults that only *delay* (spikes, stragglers, pauses — nothing
    /// lost or duplicated) preserve the outcome even in legacy
    /// best-effort mode: the canonicalized, epoch-buffered protocol is
    /// timing-independent by construction, not by retransmission.
    #[test]
    fn pure_delay_faults_never_change_the_outcome(
        dist in arb_distribution(),
        seed in any::<u64>(),
        fault_seed in any::<u64>(),
    ) {
        let cfg = small_cfg(); // reliability: None
        let plan = FaultPlan {
            seed: fault_seed,
            delay_spike: 0.3,
            delay_spike_scale: 20.0,
            stragglers: vec![(RankId::new(0), 16.0)],
            pauses: vec![PauseWindow { rank: RankId::new(1), from: 0.0, until: 0.005 }],
            ..FaultPlan::none()
        };
        let clean = run_distributed_lb(
            &dist, cfg, NetworkModel::default(), &RngFactory::new(seed));
        let slow = run_distributed_lb_with_faults(
            &dist, cfg, NetworkModel::default(), &RngFactory::new(seed), plan);
        prop_assert_eq!(slow.degraded_ranks, 0);
        prop_assert_eq!(slow.distribution.canonical(), clean.distribution.canonical());
        prop_assert_eq!(slow.final_imbalance.to_bits(), clean.final_imbalance.to_bits());
        // Same outcome, but never faster: delays only ever add latency.
        // (Wire counts are NOT compared — idle waiting circulates extra
        // termination-detection waves, so control traffic is timing-
        // dependent even though the committed assignment is not.)
        prop_assert!(slow.report.finish_time >= clean.report.finish_time);
    }

    /// [`FaultStats::merge`] is commutative: per-worker counters can be
    /// folded in any order.
    #[test]
    fn fault_stats_merge_is_commutative(a in arb_fault_stats(), b in arb_fault_stats()) {
        let mut ab = a;
        ab.merge(&b);
        let mut ba = b;
        ba.merge(&a);
        prop_assert_eq!(ab, ba);
    }

    /// [`FaultStats::merge`] is associative: folding worker counters in
    /// any grouping gives the same totals.
    #[test]
    fn fault_stats_merge_is_associative(
        a in arb_fault_stats(),
        b in arb_fault_stats(),
        c in arb_fault_stats(),
    ) {
        let mut left = a;
        left.merge(&b);
        left.merge(&c);
        let mut bc = b;
        bc.merge(&c);
        let mut right = a;
        right.merge(&bc);
        prop_assert_eq!(left, right);
    }
}

fn arb_fault_stats() -> impl Strategy<Value = FaultStats> {
    // u32 counters so triple sums cannot overflow the u64 fields.
    prop::collection::vec(any::<u32>(), 11).prop_map(|v| FaultStats {
        faultable: v[0] as u64,
        dropped: v[1] as u64,
        duplicated: v[2] as u64,
        spiked: v[3] as u64,
        reordered: v[4] as u64,
        straggled: v[5] as u64,
        paused: v[6] as u64,
        crash_dropped: v[7] as u64,
        link_cut: v[8] as u64,
        link_delayed: v[9] as u64,
        corrupted: v[10] as u64,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Random crash plans against the crash-tolerant protocol: up to a
    /// quarter of the ranks die fatally at arbitrary times (before,
    /// during, or after the pass), and the run must always terminate —
    /// never hang — and do so bit-identically across reruns of the same
    /// seed.
    #[test]
    fn random_crash_plans_terminate_deterministically(
        seed in any::<u64>(),
        deaths in prop::collection::vec(1usize..12, 3),
        times in prop::collection::vec(1e-5f64..5e-3, 3),
    ) {
        let dist = Distribution::concentrated(12, 2, 15);
        let cfg = small_cfg()
            .hardened(RetryConfig::generous())
            .crash_tolerant(HealthConfig::default());
        let deaths: std::collections::BTreeSet<usize> = deaths.into_iter().collect();
        let crashes: Vec<CrashEvent> = deaths
            .iter()
            .zip(&times)
            .map(|(&r, &t)| CrashEvent::fatal(RankId::from(r), t))
            .collect();
        let plan = FaultPlan { crashes, ..FaultPlan::none() };
        let run = || run_distributed_lb_with_faults(
            &dist, cfg, NetworkModel::default(), &RngFactory::new(seed), plan.clone());
        let a = run();
        // No more tasks than went in (corpse tasks may be lost; nothing
        // is ever duplicated into the reported distribution).
        prop_assert!(a.distribution.num_tasks() <= dist.num_tasks());
        a.distribution.check_invariants().map_err(TestCaseError::fail)?;
        let b = run();
        prop_assert_eq!(a.distribution.canonical(), b.distribution.canonical());
        prop_assert_eq!(a.report.events_delivered, b.report.events_delivered);
        prop_assert_eq!(a.report.finish_time.to_bits(), b.report.finish_time.to_bits());
        prop_assert_eq!(a.degraded_ranks, b.degraded_ranks);
    }
}

/// A zeroed fault plan (even one with a nonzero seed and unity
/// stragglers) must be bit-identical to running with no fault layer at
/// all — in legacy and in hardened mode.
#[test]
fn zeroed_plan_is_bit_identical_to_no_plan() {
    let dist = Distribution::concentrated(16, 2, 20);
    let zeroed = FaultPlan {
        seed: 0xDEAD_BEEF,
        stragglers: vec![(RankId::new(2), 1.0)],
        ..FaultPlan::none()
    };
    assert!(zeroed.is_zero());
    for cfg in [small_cfg(), hardened_cfg()] {
        let plain = run_distributed_lb(&dist, cfg, NetworkModel::default(), &RngFactory::new(11));
        let planned = run_distributed_lb_with_faults(
            &dist,
            cfg,
            NetworkModel::default(),
            &RngFactory::new(11),
            zeroed.clone(),
        );
        assert_eq!(
            planned.report.events_delivered,
            plain.report.events_delivered
        );
        assert_eq!(
            planned.report.finish_time.to_bits(),
            plain.report.finish_time.to_bits()
        );
        assert_eq!(
            planned.report.network.messages,
            plain.report.network.messages
        );
        assert_eq!(planned.report.network.bytes, plain.report.network.bytes);
        assert_eq!(
            planned.final_imbalance.to_bits(),
            plain.final_imbalance.to_bits()
        );
        assert_eq!(
            planned.distribution.canonical(),
            plain.distribution.canonical()
        );
        assert_eq!(planned.report.faults.faultable, 0);
    }
}

/// Reliability framing (acks, sequence numbers) must not perturb the
/// algorithm: fault-free, the hardened protocol commits exactly the
/// assignment of the legacy best-effort protocol.
#[test]
fn hardening_is_transparent_when_fault_free() {
    let dist = Distribution::concentrated(16, 2, 20);
    let legacy = run_distributed_lb(
        &dist,
        small_cfg(),
        NetworkModel::default(),
        &RngFactory::new(23),
    );
    let hardened = run_distributed_lb(
        &dist,
        hardened_cfg(),
        NetworkModel::default(),
        &RngFactory::new(23),
    );
    assert_eq!(hardened.degraded_ranks, 0);
    assert_eq!(
        hardened.distribution.canonical(),
        legacy.distribution.canonical()
    );
    assert_eq!(
        hardened.final_imbalance.to_bits(),
        legacy.final_imbalance.to_bits()
    );
    assert_eq!(hardened.tasks_migrated, legacy.tasks_migrated);
    // The framing is visible only as extra wire traffic (acks).
    assert!(hardened.report.network.messages > legacy.report.network.messages);
    assert_eq!(hardened.reliable.sent, hardened.reliable.acked);
    assert_eq!(hardened.reliable.retransmitted, 0);
}

/// Distributed GrapevineLB — the original single-trial, single-iteration
/// protocol — through the same engine/rank/driver stack: fault-free
/// replay is bit-deterministic, and moderate chaos under the hardened
/// transport commits the identical assignment.
#[test]
fn distributed_grapevine_converges_deterministically_under_chaos() {
    let dist = Distribution::concentrated(12, 2, 18);
    let cfg = LbProtocolConfig::grapevine().hardened(RetryConfig::generous());
    let a = run_distributed_lb(&dist, cfg, NetworkModel::default(), &RngFactory::new(7));
    let b = run_distributed_lb(&dist, cfg, NetworkModel::default(), &RngFactory::new(7));
    assert_eq!(a.distribution.canonical(), b.distribution.canonical());
    assert_eq!(a.final_imbalance.to_bits(), b.final_imbalance.to_bits());
    assert_eq!(
        a.report.finish_time.to_bits(),
        b.report.finish_time.to_bits()
    );
    assert_eq!(a.degraded_ranks, 0);
    assert!(
        a.final_imbalance < a.initial_imbalance,
        "one grapevine iteration must improve the concentrated imbalance"
    );
    assert!(a.tasks_migrated > 0);

    let plan = FaultPlan {
        seed: 77,
        drop: 0.15,
        duplicate: 0.2,
        delay_spike: 0.1,
        delay_spike_scale: 8.0,
        stragglers: vec![(RankId::new(1), 4.0)],
        ..FaultPlan::none()
    };
    let chaos = run_distributed_lb_with_faults(
        &dist,
        cfg,
        NetworkModel::default(),
        &RngFactory::new(7),
        plan,
    );
    assert_eq!(chaos.degraded_ranks, 0);
    assert_eq!(
        chaos.distribution.canonical(),
        a.distribution.canonical(),
        "faults may change timing and wire traffic, never the outcome"
    );
    assert_eq!(chaos.final_imbalance.to_bits(), a.final_imbalance.to_bits());
    assert!(chaos.report.faults.dropped > 0);
}

/// Total blackout: every rank exhausts its budget, degrades, and
/// reverts to its input tasks — graceful degradation, not a hang and
/// not a corrupted assignment.
#[test]
fn blackout_degrades_every_rank_and_reverts_to_input() {
    let dist = Distribution::concentrated(8, 2, 10);
    let cfg = small_cfg().hardened(RetryConfig {
        timeout: 100e-6,
        backoff: 2.0,
        max_retries: 4,
        stage_deadline: 0.01,
        ..RetryConfig::default()
    });
    let plan = FaultPlan {
        drop: 1.0,
        ..FaultPlan::none()
    };
    let out = run_distributed_lb_with_faults(
        &dist,
        cfg,
        NetworkModel::default(),
        &RngFactory::new(3),
        plan,
    );
    assert!(
        out.report.completed,
        "blackout must end in degradation, not a hang"
    );
    assert_eq!(out.degraded_ranks, dist.num_ranks());
    assert_eq!(out.tasks_migrated, 0);
    assert_eq!(
        out.distribution.canonical(),
        dist.canonical(),
        "every degraded rank must keep exactly its input tasks"
    );
}

/// The hardened protocol under faults on the *threaded* executor:
/// completes under real concurrency, and (absent degradation) lands on
/// the same assignment as the fault-free discrete-event run — the
/// cross-executor determinism the chaos harness relies on.
#[test]
fn parallel_executor_converges_under_faults() {
    let dist = Distribution::concentrated(8, 1, 16);
    // Wall-clock retry budget: milliseconds, not virtual seconds.
    let cfg = small_cfg().hardened(RetryConfig {
        timeout: 2e-3,
        backoff: 2.0,
        max_retries: 12,
        stage_deadline: 10.0,
        ..RetryConfig::default()
    });
    let plan = FaultPlan {
        seed: 9,
        drop: 0.1,
        duplicate: 0.1,
        stragglers: vec![(RankId::new(3), 2.0)],
        ..FaultPlan::none()
    };
    let ranks = LbRank::for_dist(&dist, cfg, RngFactory::new(41));
    let report = run_parallel_with(
        ranks,
        4,
        Duration::from_secs(30),
        ParallelOptions {
            fault_plan: plan,
            ..Default::default()
        },
    );
    assert!(
        report.completed,
        "hardened protocol must terminate under threads + faults"
    );
    assert!(
        report.faults.dropped > 0,
        "the plan must actually have injected drops"
    );
    if report.ranks.iter().all(|r| !r.degraded()) {
        let total: usize = report.ranks.iter().map(|r| r.final_tasks().len()).sum();
        assert_eq!(total, dist.num_tasks());
        let clean = run_distributed_lb(&dist, cfg, NetworkModel::default(), &RngFactory::new(41));
        let mine: Vec<_> = report.ranks.iter().map(LbRank::canonical).collect();
        assert_eq!(
            mine,
            clean.distribution.canonical(),
            "a rank diverged from the fault-free assignment"
        );
    }
}
