//! The asynchronous, message-driven load balancing protocol.
//!
//! This module is the distributed counterpart of
//! `tempered_core::refine`: the same inform/transfer/refine algorithms —
//! literally the same kernel functions — but executed as an actual
//! barrier-free message protocol over the runtime substrate.
//!
//! It is layered sans-I/O style (see `DESIGN.md` §9):
//!
//! - [`engine`] — the pure protocol state machine ([`GossipEngine`]):
//!   stages, epochs, collectives, gossip, transfer, commit. No I/O, no
//!   clocks, no retries.
//! - `rank` — the actor ([`LbRank`]) binding the engine to an executor
//!   via the [`crate::sim::Protocol`] trait. It owns the rank's delivery
//!   state (a [`crate::reliable::ReliableChannel`] when hardened), frames
//!   each protocol message onto the driver's `Ctx` and reads each
//!   incoming [`LbWire`] once.
//! - drivers — the deterministic discrete-event [`crate::sim::Simulator`]
//!   (also the zero-latency driver, under [`NetworkModel::instant`]), the
//!   threaded `parallel` executor, and the multi-process TCP [`socket`]
//!   driver.

mod config;
pub mod engine;
mod messages;
mod rank;
pub mod socket;

pub use config::{LbProtocolConfig, PartitionConfig};
pub use engine::{AsyncIterationRecord, Command, GossipEngine};
pub use messages::{LbMsg, LbWire, TaskEntry, WireDecodeError, WireDecodeErrorKind};
pub use rank::{DeliveryAudit, LbRank};
pub use socket::{encode_frame, run_socket_rank, FrameReader, SocketConfig, SocketRankReport};

use crate::audit::SharedTerminationLedger;
use crate::fault::FaultPlan;
use crate::reliable::ReliableStats;
use crate::sim::{NetworkModel, SimReport, Simulator};
use tempered_core::distribution::Distribution;
use tempered_core::ids::RankId;
use tempered_core::rng::RngFactory;
use tempered_core::task::Task;
use tempered_obs::Recorder;

/// Result of a full distributed LB pass.
#[derive(Clone, Debug)]
pub struct DistLbResult {
    /// The resulting assignment.
    pub distribution: Distribution,
    /// Imbalance of the input (as agreed by the setup allreduce).
    pub initial_imbalance: f64,
    /// Imbalance of the committed proposal.
    pub final_imbalance: f64,
    /// Real task migrations executed at commit.
    pub tasks_migrated: usize,
    /// Per-iteration records from a rank that committed (imbalances are
    /// globally agreed, so one rank's view is the global sequence).
    pub records: Vec<AsyncIterationRecord>,
    /// Ranks that abandoned the protocol (retry budget exhausted or
    /// stage deadline missed) and reverted to a safe assignment. Always
    /// 0 on a fault-free run.
    pub degraded_ranks: usize,
    /// Ranks that sat out the run parked — quorum-less under a partition
    /// — and finished read-only on their original placement. Always 0
    /// unless [`LbProtocolConfig::partition`] is set and the fault plan
    /// actually split the network.
    pub parked_ranks: usize,
    /// Delivery-layer counters summed over ranks (all zero unless
    /// [`LbProtocolConfig::reliability`] is set).
    pub reliable: ReliableStats,
    /// Executor report: virtual time, events, network volume, faults.
    pub report: SimReport,
}

/// Run the asynchronous protocol over `dist` on the deterministic
/// event-driven executor.
pub fn run_distributed_lb(
    dist: &Distribution,
    cfg: LbProtocolConfig,
    model: NetworkModel,
    factory: &RngFactory,
) -> DistLbResult {
    run_distributed_lb_with_faults(dist, cfg, model, factory, FaultPlan::none())
}

/// [`run_distributed_lb`] on the zero-latency schedule
/// ([`NetworkModel::instant`]): same protocol, same engine, no modeled
/// network.
pub fn run_local_lb(
    dist: &Distribution,
    cfg: LbProtocolConfig,
    factory: &RngFactory,
) -> DistLbResult {
    run_distributed_lb(dist, cfg, NetworkModel::instant(), factory)
}

/// Run the asynchronous protocol under an adversarial network described
/// by `plan`. With a zeroed plan this is exactly [`run_distributed_lb`].
///
/// Task conservation is asserted only when no rank degraded: a degraded
/// rank reverts unilaterally, so its in-flight proposals may be held by
/// both sides or neither — the embedding application is expected to
/// treat any degraded rank as a failed LB round and discard the whole
/// result (see `tempered-empire`'s distributed app).
pub fn run_distributed_lb_with_faults(
    dist: &Distribution,
    cfg: LbProtocolConfig,
    model: NetworkModel,
    factory: &RngFactory,
    plan: FaultPlan,
) -> DistLbResult {
    run_distributed_lb_traced(dist, cfg, model, factory, plan, Recorder::disabled())
}

/// [`run_distributed_lb_with_faults`] with an observability recorder
/// threaded through the executor and every rank. With a fault-free plan
/// the recorded trace is a pure function of `(dist, cfg, model, seed)`:
/// two runs with the same inputs export byte-identical `trace.json`.
pub fn run_distributed_lb_traced(
    dist: &Distribution,
    cfg: LbProtocolConfig,
    model: NetworkModel,
    factory: &RngFactory,
    plan: FaultPlan,
    recorder: Recorder,
) -> DistLbResult {
    let fault_free = plan.crashes.is_empty() && plan.links_zero();
    let (ranks, report) = run_lb_ranks(dist, cfg, model, factory, plan, recorder, None);
    collapse(dist, &ranks, report, fault_free)
}

/// Fold the finished `ranks` of one simulator run over `input` (index =
/// rank id) and its `report` into a [`DistLbResult`]. `fault_free` is the
/// caller vouching that nothing was injected that excuses an unfinished
/// rank or a lost or doubly-claimed task: completion is then asserted,
/// and so is conservation, unless a rank degraded all the same.
pub(crate) fn collapse(
    input: &Distribution,
    ranks: &[LbRank],
    report: SimReport,
    fault_free: bool,
) -> DistLbResult {
    if fault_free {
        assert!(
            report.completed,
            "protocol must reach Done on every rank (faults without \
             `reliability` configured can starve the best-effort protocol)"
        );
    }
    let degraded_ranks = ranks.iter().filter(|r| r.degraded()).count();
    let parked_ranks = ranks.iter().filter(|r| r.parked()).count();
    let strict = fault_free && degraded_ranks == 0;
    let mut reliable = ReliableStats::default();
    let mut out = Distribution::new(input.num_ranks());
    let mut tasks_migrated = 0usize;
    for (p, r) in ranks.iter().enumerate() {
        reliable.merge(&r.reliable_stats());
        if !r.finished() {
            // Crashed mid-protocol: its engine holds a corpse's state.
            // The LB layer does not restore the tasks homed there; they
            // are missing from the output.
            continue;
        }
        for t in r.final_tasks() {
            let inserted = out.insert(RankId::from(p), Task::new(t.id, t.load));
            if strict {
                inserted.expect("each task has exactly one final owner");
            }
            // With degraded or crashed ranks a task may be claimed twice
            // (a unilateral revert, or a rank that committed in an older
            // view); keep the first claim for reporting purposes.
        }
        tasks_migrated += r.migrations_in();
    }
    if strict {
        assert_eq!(
            out.num_tasks(),
            input.num_tasks(),
            "no task may be lost or duplicated by the protocol"
        );
    }

    // Records and the agreed imbalances come from a rank that finished
    // the protocol normally — with crashes, rank 0 may be a corpse, and
    // under a partition a parked rank's records reflect a run it sat
    // out, so prefer a rank from the committing (majority) component.
    let reporter = ranks
        .iter()
        .position(|r| r.finished() && !r.degraded() && !r.parked())
        .or_else(|| ranks.iter().position(|r| r.finished() && !r.degraded()))
        .unwrap_or(0);
    DistLbResult {
        initial_imbalance: ranks[reporter].initial_imbalance(),
        final_imbalance: out.imbalance(),
        tasks_migrated,
        records: ranks[reporter].records().to_vec(),
        degraded_ranks,
        parked_ranks,
        reliable,
        distribution: out,
        report,
    }
}

/// Build the per-rank actors for `dist`, execute the protocol in the
/// deterministic simulator under `plan`, and hand back the finished
/// actors alongside the executor report — *without* collapsing to a
/// [`Distribution`] or asserting conservation. The audit layer
/// ([`crate::audit`]) builds on this to observe each rank's raw final
/// claims (a conservation violation must surface as a report, not a
/// panic mid-run), and hands every rank the run's termination ground
/// truth when `truth` is given.
pub(crate) fn run_lb_ranks(
    dist: &Distribution,
    cfg: LbProtocolConfig,
    model: NetworkModel,
    factory: &RngFactory,
    plan: FaultPlan,
    recorder: Recorder,
    truth: Option<&SharedTerminationLedger>,
) -> (Vec<LbRank>, SimReport) {
    let mut ranks = LbRank::for_dist(dist, cfg, *factory);
    for rank in &mut ranks {
        rank.set_recorder(recorder.clone());
        if let Some(truth) = truth {
            rank.audit(truth.clone());
        }
    }

    let mut sim = Simulator::new(ranks, model, factory);
    sim.set_recorder(recorder);
    sim.set_fault_plan(plan);
    let report = sim.run();
    (sim.into_ranks(), report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tempered_core::forecast::{ForecastBank, Holt};
    use tempered_core::ids::TaskId;
    use tempered_core::transfer::TransferConfig;

    fn quick_cfg() -> LbProtocolConfig {
        LbProtocolConfig {
            trials: 2,
            iters: 4,
            fanout: 4,
            rounds: 6,
            ..Default::default()
        }
    }

    #[test]
    fn async_protocol_balances_concentrated_load() {
        let dist = Distribution::concentrated(32, 2, 50);
        let out = run_distributed_lb(
            &dist,
            quick_cfg(),
            NetworkModel::default(),
            &RngFactory::new(7),
        );
        assert!(out.initial_imbalance > 10.0);
        assert!(
            out.final_imbalance < 1.5,
            "async tempered should balance well, got {}",
            out.final_imbalance
        );
        assert!(out.tasks_migrated > 0);
        assert!(out.report.network.messages > 0);
        out.distribution.check_invariants().unwrap();
    }

    #[test]
    fn async_protocol_conserves_load() {
        let dist = Distribution::concentrated(16, 1, 30);
        let out = run_distributed_lb(
            &dist,
            quick_cfg(),
            NetworkModel::default(),
            &RngFactory::new(3),
        );
        assert!(out.distribution.total_load().approx_eq(dist.total_load()));
        assert_eq!(out.distribution.num_tasks(), dist.num_tasks());
    }

    #[test]
    fn async_protocol_is_deterministic() {
        let dist = Distribution::concentrated(16, 2, 20);
        let run = |seed| {
            run_distributed_lb(
                &dist,
                quick_cfg(),
                NetworkModel::default(),
                &RngFactory::new(seed),
            )
        };
        let a = run(11);
        let b = run(11);
        assert_eq!(a.final_imbalance, b.final_imbalance);
        assert_eq!(a.report.events_delivered, b.report.events_delivered);
        assert_eq!(a.tasks_migrated, b.tasks_migrated);
        for r in a.distribution.rank_ids() {
            assert_eq!(a.distribution.rank_load(r), b.distribution.rank_load(r));
        }
    }

    #[test]
    fn async_records_track_iterations() {
        let dist = Distribution::concentrated(16, 2, 20);
        let cfg = quick_cfg();
        let out = run_distributed_lb(&dist, cfg, NetworkModel::default(), &RngFactory::new(5));
        assert_eq!(out.records.len(), cfg.trials * cfg.iters);
        // Iterations within a trial are 1-based and consecutive.
        let t0: Vec<usize> = out
            .records
            .iter()
            .filter(|r| r.trial == 0)
            .map(|r| r.iteration)
            .collect();
        assert_eq!(t0, vec![1, 2, 3, 4]);
        // Best imbalance equals the minimum over records (or initial).
        let min_rec = out
            .records
            .iter()
            .map(|r| r.imbalance)
            .fold(f64::INFINITY, f64::min);
        assert!((out.final_imbalance - min_rec.min(out.initial_imbalance)).abs() < 1e-9);
    }

    #[test]
    fn grapevine_config_matches_original_limits() {
        // With the original criterion on a concentrated distribution the
        // protocol should improve far less than tempered.
        let dist = Distribution::concentrated(32, 1, 64);
        let grapevine = run_distributed_lb(
            &dist,
            LbProtocolConfig {
                trials: 1,
                iters: 1,
                fanout: 4,
                rounds: 6,
                transfer: TransferConfig::grapevine(),
                ..Default::default()
            },
            NetworkModel::default(),
            &RngFactory::new(9),
        );
        let tempered = run_distributed_lb(
            &dist,
            quick_cfg(),
            NetworkModel::default(),
            &RngFactory::new(9),
        );
        assert!(tempered.final_imbalance <= grapevine.final_imbalance);
    }

    /// Extreme latency jitter maximizes message reordering across ranks;
    /// the epoch-buffering discipline must still deliver a correct,
    /// complete run.
    #[test]
    fn protocol_survives_heavy_message_reordering() {
        let dist = Distribution::concentrated(20, 3, 25);
        let wild = NetworkModel {
            base_latency: 1.0e-6,
            per_byte: 1.0e-9,
            jitter: 50.0, // up to 51x latency spread
        };
        let out = run_distributed_lb(&dist, quick_cfg(), wild, &RngFactory::new(13));
        assert!(out.report.completed);
        assert_eq!(out.distribution.num_tasks(), dist.num_tasks());
        assert!(out.final_imbalance <= out.initial_imbalance);
        out.distribution.check_invariants().unwrap();
    }

    #[test]
    fn balanced_input_stays_put() {
        let dist = Distribution::from_loads(vec![vec![1.0], vec![1.0], vec![1.0], vec![1.0]]);
        let out = run_distributed_lb(
            &dist,
            quick_cfg(),
            NetworkModel::default(),
            &RngFactory::new(1),
        );
        assert_eq!(out.final_imbalance, 0.0);
        assert_eq!(out.tasks_migrated, 0);
    }

    #[test]
    fn single_rank_degenerates_cleanly() {
        let dist = Distribution::from_loads(vec![vec![1.0, 2.0, 3.0]]);
        let cfg = LbProtocolConfig {
            trials: 2,
            iters: 2,
            ..Default::default()
        };
        let out = run_distributed_lb(&dist, cfg, NetworkModel::default(), &RngFactory::new(1));
        assert_eq!(out.tasks_migrated, 0);
        assert_eq!(out.distribution.num_tasks(), 3);
    }

    /// Forecast-then-balance through the full async protocol, the path
    /// `repro svc_sweep`'s gray-links gate takes: over a constant
    /// workload a Holt bank forecasts the observed loads bit-exactly, so
    /// the protocol run on the forecast commits the placement the run on
    /// the observed loads does.
    #[test]
    fn protocol_on_a_constant_forecast_matches_the_observed_run() {
        let dist = Distribution::concentrated(16, 2, 20);
        let factory = RngFactory::new(2);
        let mut bank = ForecastBank::new(Holt::default());
        for epoch in 0..3 {
            bank.observe_epoch(epoch, &dist);
            let forecast = bank.forecast(&dist);
            let observed =
                run_distributed_lb(&dist, quick_cfg(), NetworkModel::default(), &factory);
            let predicted =
                run_distributed_lb(&forecast, quick_cfg(), NetworkModel::default(), &factory);
            assert_eq!(
                observed.distribution.canonical(),
                predicted.distribution.canonical(),
                "epoch {epoch}: constant workload must be bit-identical"
            );
        }
    }

    /// A rank that ran the protocol to Done alone in a one-rank world,
    /// holding `tasks`: the cheapest finished [`LbRank`] there is.
    fn finished_alone(tasks: Vec<(TaskId, f64)>) -> LbRank {
        let rank = LbRank::new(RankId::new(0), 1, tasks, quick_cfg(), RngFactory::new(1));
        let mut sim = Simulator::new(vec![rank], NetworkModel::instant(), &RngFactory::new(1));
        assert!(sim.run().completed);
        sim.into_ranks().pop().unwrap()
    }

    /// The report of a run in which every rank finished.
    fn completed_report() -> SimReport {
        SimReport {
            finish_time: 0.0,
            events_delivered: 0,
            network: Default::default(),
            faults: Default::default(),
            completed: true,
        }
    }

    fn two_ranks_claiming_task_7() -> (Distribution, Vec<LbRank>) {
        let task = (TaskId::new(7), 1.0);
        let mut input = Distribution::new(2);
        input
            .insert(RankId::new(0), Task::new(task.0, task.1))
            .unwrap();
        (
            input,
            vec![finished_alone(vec![task]), finished_alone(vec![task])],
        )
    }

    #[test]
    #[should_panic(expected = "each task has exactly one final owner")]
    fn collapse_panics_on_a_duplicated_claim_when_strict() {
        let (input, ranks) = two_ranks_claiming_task_7();
        collapse(&input, &ranks, completed_report(), true);
    }

    #[test]
    fn collapse_keeps_the_first_of_a_duplicated_claim_otherwise() {
        let (input, ranks) = two_ranks_claiming_task_7();
        let c = collapse(&input, &ranks, completed_report(), false);
        assert_eq!(c.distribution.num_tasks(), 1);
        assert_eq!(c.distribution.tasks_on(RankId::new(0)).len(), 1);
        assert_eq!(c.distribution.tasks_on(RankId::new(1)).len(), 0);
    }

    /// Rank 0 never ran (a corpse's engine); the records and the agreed
    /// imbalance must come from the rank that committed.
    #[test]
    fn collapse_reports_from_a_committing_rank_when_rank_0_is_a_corpse() {
        let id = TaskId::new;
        let corpse = LbRank::new(
            RankId::new(0),
            2,
            vec![(id(1), 1.0)],
            quick_cfg(),
            RngFactory::new(1),
        );
        let committed = finished_alone(vec![(id(2), 1.0)]);
        let mut input = Distribution::new(2);
        input.insert(RankId::new(0), Task::new(id(1), 1.0)).unwrap();
        input.insert(RankId::new(1), Task::new(id(2), 1.0)).unwrap();
        let c = collapse(&input, &[corpse, committed], completed_report(), false);
        let cfg = quick_cfg();
        assert_eq!(c.records.len(), cfg.trials * cfg.iters);
        assert_eq!(
            c.distribution.num_tasks(),
            1,
            "the corpse's task is not ours"
        );
        assert_eq!(c.distribution.tasks_on(RankId::new(1)).len(), 1);
    }

    #[test]
    fn local_runner_balances_and_is_deterministic() {
        let dist = Distribution::from_loads(vec![
            vec![1.0; 40],
            vec![],
            vec![],
            vec![],
            vec![],
            vec![],
            vec![],
            vec![],
        ]);
        let cfg = LbProtocolConfig {
            trials: 2,
            iters: 4,
            fanout: 3,
            rounds: 5,
            ..Default::default()
        };
        let a = run_local_lb(&dist, cfg, &RngFactory::new(17));
        let b = run_local_lb(&dist, cfg, &RngFactory::new(17));
        assert!(a.final_imbalance < a.initial_imbalance);
        assert_eq!(a.final_imbalance.to_bits(), b.final_imbalance.to_bits());
        assert_eq!(a.tasks_migrated, b.tasks_migrated);
        assert_eq!(a.degraded_ranks, 0);
        assert_eq!(a.report.finish_time, 0.0, "no timer fired");
        a.distribution.check_invariants().unwrap();
        for r in a.distribution.rank_ids() {
            assert_eq!(a.distribution.rank_load(r), b.distribution.rank_load(r));
        }
    }

    #[test]
    fn local_runner_handles_single_rank() {
        let dist = Distribution::from_loads(vec![vec![1.0, 2.0, 3.0]]);
        let out = run_local_lb(&dist, LbProtocolConfig::grapevine(), &RngFactory::new(1));
        assert_eq!(out.tasks_migrated, 0);
        assert_eq!(out.distribution.num_tasks(), 3);
    }

    #[test]
    fn local_runner_with_reliability_still_completes() {
        // Retry timers get armed, but every message of an instant is
        // delivered before a later timer fires, so none fires before
        // completion; leftover timers must not stall the exit.
        let dist = Distribution::from_loads(vec![vec![4.0, 1.0], vec![], vec![], vec![]]);
        let cfg = LbProtocolConfig {
            trials: 1,
            iters: 2,
            fanout: 2,
            rounds: 3,
            ..Default::default()
        }
        .hardened(crate::reliable::RetryConfig::default());
        let out = run_local_lb(&dist, cfg, &RngFactory::new(5));
        assert!(out.report.completed);
        assert_eq!(out.report.finish_time, 0.0, "no retry timer fired");
        assert_eq!(out.reliable.retransmitted, 0);
        assert_eq!(out.degraded_ranks, 0);
        assert_eq!(out.distribution.num_tasks(), 2);
    }

    mod crash {
        use super::*;
        use crate::fault::CrashEvent;
        use crate::health::HealthConfig;
        use crate::reliable::RetryConfig;

        fn crash_cfg() -> LbProtocolConfig {
            quick_cfg()
                .hardened(RetryConfig::default())
                .crash_tolerant(HealthConfig::default())
        }

        fn crash_plan(crashes: Vec<CrashEvent>) -> FaultPlan {
            FaultPlan {
                crashes,
                ..FaultPlan::none()
            }
        }

        /// Mid-gossip crash of rank 0 — simultaneously the TD
        /// coordinator and the collective-tree root, the hardest rank to
        /// lose. Survivors must detect, re-form, and finish with every
        /// task that was homed on a survivor.
        #[test]
        fn coordinator_crash_mid_gossip_survivors_complete() {
            let dist = Distribution::concentrated(16, 2, 30);
            let out = run_distributed_lb_with_faults(
                &dist,
                crash_cfg(),
                NetworkModel::default(),
                &RngFactory::new(7),
                crash_plan(vec![CrashEvent::fatal(RankId::new(0), 2e-4)]),
            );
            assert_eq!(out.degraded_ranks, 0, "survivors restart, not degrade");
            // Rank 0's 30 tasks died with it (the LB layer does not
            // restore a corpse's tasks). Rank 1's 30 live.
            assert_eq!(out.distribution.num_tasks(), 30);
            assert_eq!(
                out.distribution.tasks_on(RankId::new(0)).len(),
                0,
                "no task may be assigned to a corpse"
            );
            assert!(out.tasks_migrated > 0, "survivors rebalanced rank 1's load");
        }

        #[test]
        fn quarter_of_ranks_crashing_still_completes() {
            let dist = Distribution::concentrated(16, 4, 20);
            // 4 of 16 ranks (25%) die at staggered times mid-protocol,
            // including one hot rank.
            let crashes = vec![
                CrashEvent::fatal(RankId::new(2), 1e-4),
                CrashEvent::fatal(RankId::new(5), 3e-4),
                CrashEvent::fatal(RankId::new(9), 3e-4),
                CrashEvent::fatal(RankId::new(14), 6e-4),
            ];
            let out = run_distributed_lb_with_faults(
                &dist,
                crash_cfg(),
                NetworkModel::default(),
                &RngFactory::new(11),
                crash_plan(crashes),
            );
            assert_eq!(out.degraded_ranks, 0);
            // Hot ranks 0,1,3 survive with 20 tasks each; hot rank 2 died.
            assert_eq!(out.distribution.num_tasks(), 60);
            for dead in [2u32, 5, 9, 14] {
                assert_eq!(out.distribution.tasks_on(RankId::new(dead)).len(), 0);
            }
            // The survivor set still balances: well under the initial
            // concentration (3 hot ranks / 12 survivors → I₀ = 3).
            assert!(out.final_imbalance < out.initial_imbalance);
        }

        #[test]
        fn crash_runs_are_deterministic() {
            let dist = Distribution::concentrated(16, 2, 25);
            let run = || {
                run_distributed_lb_with_faults(
                    &dist,
                    crash_cfg(),
                    NetworkModel::default(),
                    &RngFactory::new(23),
                    crash_plan(vec![CrashEvent::fatal(RankId::new(3), 2e-4)]),
                )
            };
            let a = run();
            let b = run();
            assert_eq!(a.final_imbalance.to_bits(), b.final_imbalance.to_bits());
            assert_eq!(a.report.events_delivered, b.report.events_delivered);
            assert_eq!(a.report.faults.crash_dropped, b.report.faults.crash_dropped);
            for r in a.distribution.rank_ids() {
                assert_eq!(
                    a.distribution.rank_load(r).get().to_bits(),
                    b.distribution.rank_load(r).get().to_bits()
                );
            }
        }

        /// Enabling crash tolerance on a crash-free run must not change
        /// the committed assignment: heartbeats perturb message timing
        /// (extra latency draws), but the protocol is deterministic
        /// under reordering, so the final distribution is identical to
        /// the plain hardened run.
        #[test]
        fn health_layer_is_assignment_neutral_without_crashes() {
            let dist = Distribution::concentrated(16, 2, 30);
            let plain = run_distributed_lb(
                &dist,
                quick_cfg().hardened(RetryConfig::default()),
                NetworkModel::default(),
                &RngFactory::new(31),
            );
            let tolerant = run_distributed_lb(
                &dist,
                crash_cfg(),
                NetworkModel::default(),
                &RngFactory::new(31),
            );
            assert_eq!(tolerant.degraded_ranks, 0);
            assert_eq!(
                plain.distribution.canonical(),
                tolerant.distribution.canonical(),
                "assignment must not depend on heartbeat traffic"
            );
        }

        /// A warm-restarted rank that was already declared dead must not
        /// disrupt the survivors: it either learns of its own death from
        /// the periodic stand-down nudge and degrades, or (if it wakes
        /// after the run) stays silent. Either way the survivors' result
        /// stands.
        #[test]
        fn warm_restarted_zombie_cannot_disrupt_survivors() {
            let dist = Distribution::concentrated(16, 2, 30);
            let out = run_distributed_lb_with_faults(
                &dist,
                crash_cfg(),
                NetworkModel::default(),
                &RngFactory::new(41),
                crash_plan(vec![CrashEvent::with_restart(RankId::new(3), 2e-4, 8e-3)]),
            );
            // Rank 3 held no tasks; all 60 survive regardless of when
            // (or whether) the zombie stood down.
            assert_eq!(out.distribution.num_tasks(), 60);
            assert_eq!(out.distribution.tasks_on(RankId::new(3)).len(), 0);
            assert!(out.final_imbalance < out.initial_imbalance);
        }
    }

    mod partition {
        use super::*;
        use crate::fault::PartitionWindow;
        use crate::health::HealthConfig;
        use crate::reliable::RetryConfig;

        fn partition_cfg() -> LbProtocolConfig {
            quick_cfg()
                .hardened(RetryConfig::default())
                .crash_tolerant(HealthConfig::default())
                .partition_tolerant(PartitionConfig::quick())
        }

        fn split(side: &[u32], start: f64, end: Option<f64>) -> FaultPlan {
            FaultPlan {
                partitions: vec![PartitionWindow {
                    side: side.iter().map(|&r| RankId::new(r)).collect(),
                    start,
                    end,
                }],
                ..FaultPlan::none()
            }
        }

        /// A permanent 12/4 split: the majority detects the minority
        /// dead, restarts, and commits; the minority loses quorum, parks
        /// read-only, and finishes on its original placement at the park
        /// deadline. No task is lost and no rank touches a task across
        /// the cut.
        #[test]
        fn minority_parks_majority_commits_on_clean_split() {
            let dist = Distribution::concentrated(16, 4, 20);
            let side = [1u32, 5, 9, 13]; // includes hot rank 1
            let out = run_distributed_lb_with_faults(
                &dist,
                partition_cfg(),
                NetworkModel::default(),
                &RngFactory::new(17),
                split(&side, 2e-4, None),
            );
            assert!(out.report.completed, "every rank must finish");
            assert_eq!(out.degraded_ranks, 0);
            assert_eq!(out.parked_ranks, 4, "the whole minority parks");
            assert_eq!(out.distribution.num_tasks(), dist.num_tasks());
            // The parked hot rank kept its original tasks: split-brain
            // prevention means the minority moved nothing.
            assert_eq!(out.distribution.tasks_on(RankId::new(1)).len(), 20);
            // The majority still balanced its own side (the parked hot
            // rank pins the *global* max, so look at migrations, not the
            // global imbalance).
            assert!(out.tasks_migrated > 0);
            assert!(
                out.distribution.tasks_on(RankId::new(0)).len() < 20,
                "majority hot ranks shed load to their own component"
            );
        }

        /// A 50/50 split leaves *neither* side with a strict majority:
        /// both park, nobody commits, and the input placement survives
        /// untouched — the conservative outcome when no component can
        /// prove it owns the run.
        #[test]
        fn even_split_parks_everyone_and_commits_nothing() {
            let dist = Distribution::concentrated(16, 4, 20);
            let side = [0u32, 1, 2, 3, 4, 5, 6, 7];
            let out = run_distributed_lb_with_faults(
                &dist,
                partition_cfg(),
                NetworkModel::default(),
                &RngFactory::new(19),
                split(&side, 2e-4, None),
            );
            assert!(out.report.completed);
            assert_eq!(out.parked_ranks, 16, "no quorum on either side");
            assert_eq!(out.tasks_migrated, 0, "nobody committed");
            for r in dist.rank_ids() {
                assert_eq!(
                    out.distribution.tasks_on(r).len(),
                    dist.tasks_on(r).len(),
                    "parked ranks keep their original placement"
                );
            }
        }

        /// The partition heals mid-run: parked ranks knock, the majority
        /// leader re-admits them under a heal-fenced view, and every rank
        /// finishes un-parked — either re-joined into a restarted run or
        /// standing down in agreement with the majority's commit.
        #[test]
        fn healed_partition_unparks_the_minority() {
            let dist = Distribution::concentrated(16, 4, 20);
            let side = [1u32, 5, 9, 13];
            let out = run_distributed_lb_with_faults(
                &dist,
                partition_cfg(),
                NetworkModel::default(),
                &RngFactory::new(23),
                split(&side, 2e-4, Some(0.02)),
            );
            assert!(out.report.completed);
            assert_eq!(out.degraded_ranks, 0);
            assert_eq!(out.parked_ranks, 0, "the heal re-admitted every rank");
            assert_eq!(out.distribution.num_tasks(), dist.num_tasks());
        }

        /// Same seed, same plan ⇒ bit-identical outcome, parked set and
        /// event count included: partitions and heals route through the
        /// same deterministic machinery as everything else.
        #[test]
        fn partitioned_runs_are_deterministic() {
            let dist = Distribution::concentrated(16, 4, 20);
            let run = || {
                run_distributed_lb_with_faults(
                    &dist,
                    partition_cfg(),
                    NetworkModel::default(),
                    &RngFactory::new(29),
                    split(&[1u32, 5, 9, 13], 2e-4, Some(0.02)),
                )
            };
            let a = run();
            let b = run();
            assert_eq!(a.final_imbalance.to_bits(), b.final_imbalance.to_bits());
            assert_eq!(a.report.events_delivered, b.report.events_delivered);
            assert_eq!(a.parked_ranks, b.parked_ranks);
            for r in a.distribution.rank_ids() {
                assert_eq!(
                    a.distribution.rank_load(r).get().to_bits(),
                    b.distribution.rank_load(r).get().to_bits()
                );
            }
        }

        /// Stacking the partition layer on a fault-free run must not
        /// change the committed assignment: the quorum gate only
        /// activates on a view change, and no knock or park timer ever
        /// fires without one.
        #[test]
        fn partition_layer_is_assignment_neutral_without_faults() {
            let dist = Distribution::concentrated(16, 2, 30);
            let crash_only = run_distributed_lb(
                &dist,
                quick_cfg()
                    .hardened(RetryConfig::default())
                    .crash_tolerant(HealthConfig::default()),
                NetworkModel::default(),
                &RngFactory::new(31),
            );
            let tolerant = run_distributed_lb(
                &dist,
                partition_cfg(),
                NetworkModel::default(),
                &RngFactory::new(31),
            );
            assert_eq!(tolerant.parked_ranks, 0);
            assert_eq!(tolerant.degraded_ranks, 0);
            assert_eq!(
                crash_only.distribution.canonical(),
                tolerant.distribution.canonical(),
                "the partition layer must be inert without faults"
            );
        }

        /// A lossy (gray) link between two ranks is absorbed by the
        /// reliable layer and the link-suspect attribution: nobody is
        /// declared dead over a path that still mostly works, and the
        /// run commits on all ranks.
        #[test]
        fn gray_link_does_not_kill_a_live_peer() {
            use crate::fault::{LinkFault, LinkFaultKind};
            let dist = Distribution::concentrated(16, 2, 30);
            let plan = FaultPlan {
                links: vec![LinkFault {
                    src: vec![RankId::new(0)],
                    dst: vec![RankId::new(7)],
                    start: 0.0,
                    end: None,
                    kind: LinkFaultKind::Lossy { p: 0.4 },
                }],
                ..FaultPlan::none()
            };
            let out = run_distributed_lb_with_faults(
                &dist,
                partition_cfg(),
                NetworkModel::default(),
                &RngFactory::new(37),
                plan,
            );
            assert!(out.report.completed);
            assert_eq!(out.degraded_ranks, 0, "a lossy link is not a dead peer");
            assert_eq!(out.parked_ranks, 0);
            assert_eq!(out.distribution.num_tasks(), dist.num_tasks());
            assert!(out.reliable.retransmitted > 0, "the loss was real");
        }
    }

    #[test]
    fn async_quality_comparable_to_analysis_mode() {
        // The async path and the analysis-mode driver implement the same
        // algorithm; their final imbalances should land in the same
        // regime (not identical: message orderings differ).
        use tempered_core::refine::{refine, RefineConfig};
        let dist = Distribution::concentrated(32, 2, 50);
        let sync = refine(
            &dist,
            &RefineConfig {
                trials: 2,
                iters: 4,
                ..RefineConfig::tempered()
            },
            &RngFactory::new(21),
            0,
        );
        let asynch = run_distributed_lb(
            &dist,
            quick_cfg(),
            NetworkModel::default(),
            &RngFactory::new(21),
        );
        assert!(asynch.final_imbalance < 2.0);
        assert!(sync.best_imbalance < 2.0);
    }
}
