//! Chaos harness: sweep the hardened asynchronous LB protocol over a
//! drop-rate × straggler-factor grid (with duplication and delay spikes
//! on every cell) and check that the delivery layer keeps the *outcome*
//! fault-free: whenever no rank degrades, the final assignment must be
//! identical to the fault-free run of the same configuration and seed.
//!
//! Both balancers run through the same engine/rank/driver stack:
//! the TemperedLB configuration and the original single-trial
//! GrapevineLB each get a grid (one shared sweep driver renders both).
//!
//! A third grid injects *crash-stop failures*: up to 25% of the ranks
//! die mid-gossip (fatally, or with a warm restart into a fenced
//! zombie) and the crash-tolerant stack — heartbeat detection, epoch
//! fencing, view-change restart — must complete on the survivor set,
//! reproduce bit-identically under the same seed, and keep the
//! survivor-set imbalance within 2× of the crash-free reference
//! restricted to the same survivors.
//!
//! Per cell it records the repair work the reliability layer performed
//! (retransmissions, suppressed duplicates, give-ups), degradation
//! counts, and the modeled makespan — the cost of chaos in one table.
//!
//! A fourth grid splits the network: clean rank-set bipartitions up to
//! 50/50 (permanent or healing mid-gossip) and gray-link storms (lossy
//! and flapping paths) run against the partition-tolerant stack. The
//! quorum side must commit, the quorum-less side must park read-only
//! (never a split-brain double commit), heals must re-merge every rank,
//! and each cell must reproduce bit-identically when re-run under the
//! same seed and plan.
//!
//! Run with: `cargo run --release -p tempered-bench --bin chaos`
//! Writes `results/chaos.csv`, `results/chaos_grapevine.csv`,
//! `results/chaos_crash.csv`, and `results/chaos_partition.csv`.
//!
//! An ad-hoc scenario is a [`FaultPlan`] loaded from a JSON file with
//! `--plan <file.json>` (see `examples/plans/` for the format; an
//! invalid plan is a clean exit 2, not a panic). It runs on the stack
//! the fuzzer would pick for it (`tempered_runtime::fuzz::protocol_config`):
//! crash-tolerant when it crashes a rank, partition-tolerant when it
//! touches links or partitions.
//!
//! Adding `--strict` to a `--plan` invocation re-runs the scenario under
//! the run-wide safety auditor (`tempered_runtime::audit`) and turns any
//! violated invariant — task conservation, epoch monotonicity,
//! quorum-before-commit, acked-delivery — into a nonzero exit instead of
//! a printout CI would scroll past.

use lbaf::Table;
use std::collections::BTreeSet;
use tempered_bench::{counter_cells, lb_run_metrics, write_results};
use tempered_core::distribution::Distribution;
use tempered_core::ids::RankId;
use tempered_core::rng::RngFactory;
use tempered_runtime::fuzz::{protocol_config, Balancer};
use tempered_runtime::lb::LbProtocolConfig;
use tempered_runtime::sim::NetworkModel;
use tempered_runtime::{
    run_distributed_lb, run_distributed_lb_with_faults, CrashEvent, DistLbResult, FaultPlan,
    HealthConfig, LinkFault, LinkFaultKind, PartitionConfig, PartitionWindow, RetryConfig,
};

/// `ℓ_max / ℓ_ave` over the ranks *not* in `dead` — the survivor-set
/// balance quality. Using the raw ratio (≥ 1) instead of the paper's
/// `I = λ − 1` keeps the "within 2×" comparison meaningful when the
/// reference is almost perfectly balanced.
fn survivor_lambda(d: &Distribution, dead: &BTreeSet<RankId>) -> f64 {
    let loads: Vec<f64> = d
        .rank_ids()
        .filter(|r| !dead.contains(r))
        .map(|r| d.tasks_on(r).iter().map(|t| t.load.0).sum())
        .collect();
    let avg = loads.iter().sum::<f64>() / loads.len() as f64;
    let max = loads.iter().cloned().fold(0.0f64, f64::max);
    if avg == 0.0 {
        1.0
    } else {
        max / avg
    }
}

/// Run one fault plan. The grids build theirs from the rank count;
/// `--plan` validates its file against it first.
fn run_with_plan(
    dist: &Distribution,
    cfg: LbProtocolConfig,
    seed: u64,
    plan: FaultPlan,
) -> DistLbResult {
    run_distributed_lb_with_faults(
        dist,
        cfg,
        NetworkModel::default(),
        &RngFactory::new(seed),
        plan,
    )
}

/// Sweep one balancer configuration over the chaos grid. Returns the
/// rendered table and the number of non-degraded runs that diverged
/// from the fault-free reference (must be zero).
fn sweep(
    name: &str,
    cfg: LbProtocolConfig,
    dist: &Distribution,
    seed: u64,
    drops: &[f64],
    stragglers: &[f64],
) -> (Table, usize) {
    // Reference outcome: same config and seed, no faults.
    let clean = run_distributed_lb(dist, cfg, NetworkModel::default(), &RngFactory::new(seed));
    let reference = clean.distribution.canonical();

    let mut table = Table::new(
        format!("{name} under chaos (duplicate=0.1, spike=0.05 everywhere)"),
        &[
            "drop",
            "straggler",
            "dropped",
            "retrans",
            "dup_supp",
            "gave_up",
            "degraded",
            "events",
            "finish_ms",
            "imbalance",
            "outcome",
        ],
    );

    let mut mismatches = 0usize;
    for &drop in drops {
        for &straggler in stragglers {
            let plan = FaultPlan {
                seed: 0xC4A05 ^ ((drop * 1e3) as u64) ^ (((straggler * 1e3) as u64) << 16),
                drop,
                duplicate: 0.1,
                delay_spike: 0.05,
                delay_spike_scale: 10.0,
                stragglers: if straggler > 1.0 {
                    vec![(RankId::new(0), straggler)]
                } else {
                    Vec::new()
                },
                ..FaultPlan::none()
            };
            let out = run_with_plan(dist, cfg, seed, plan);
            let outcome = if out.degraded_ranks > 0 {
                "degraded".to_string()
            } else if out.distribution.canonical() == reference {
                "identical".to_string()
            } else {
                mismatches += 1;
                "MISMATCH".to_string()
            };
            let reg = lb_run_metrics(&out);
            let mut row = vec![format!("{drop:.2}"), format!("{straggler:.0}")];
            row.extend(counter_cells(
                &reg,
                &[
                    "fault.dropped",
                    "lb.reliable.retransmitted",
                    "lb.reliable.duplicates_suppressed",
                    "lb.reliable.gave_up",
                    "lb.degraded_ranks",
                    "sim.events_delivered",
                ],
            ));
            row.push(format!("{:.2}", out.report.finish_time * 1e3));
            row.push(format!("{:.3}", out.final_imbalance));
            row.push(outcome);
            table.push_row(row);
        }
    }

    println!("{}", table.render());
    println!(
        "{name} fault-free reference: imbalance {:.3} -> {:.3}, {} migrations",
        clean.initial_imbalance, clean.final_imbalance, clean.tasks_migrated
    );
    (table, mismatches)
}

/// Sweep crash-stop scenarios: `counts` ranks die mid-gossip starting at
/// each base time in `times` (staggered 50 µs apart, one of them warm-
/// restarting into a fenced zombie). Returns the table and the number of
/// cells that violated an acceptance bound.
fn crash_sweep(
    cfg: LbProtocolConfig,
    dist: &Distribution,
    seed: u64,
    counts: &[usize],
    times: &[f64],
) -> (Table, usize) {
    let num_ranks = dist.num_ranks();
    let clean = run_distributed_lb(dist, cfg, NetworkModel::default(), &RngFactory::new(seed));

    let mut table = Table::new(
        "Crash-tolerant TemperedLB under crash-stop failures".to_string(),
        &[
            "crashed",
            "t_crash_ms",
            "degraded",
            "crash_dropped",
            "retrans",
            "events",
            "finish_ms",
            "surv_lambda",
            "clean_lambda",
            "outcome",
        ],
    );

    let mut violations = 0usize;
    for &count in counts {
        assert!(
            count * 4 <= num_ranks,
            "crash grid stays at or below 25% of ranks"
        );
        for &t0 in times {
            // Spread the victims across the rank space (skipping rank 0
            // on the first kill so the grid also covers survivor-side
            // coordination) and stagger the deaths; the last victim
            // warm-restarts to exercise zombie fencing.
            let victims: Vec<RankId> = (0..count)
                .map(|i| RankId::from(1 + i * num_ranks / (count + 1)))
                .collect();
            let crashes: Vec<CrashEvent> = victims
                .iter()
                .enumerate()
                .map(|(i, &r)| {
                    let at = t0 + i as f64 * 5e-5;
                    if i + 1 == count && count > 1 {
                        CrashEvent::with_restart(r, at, 5e-3)
                    } else {
                        CrashEvent::fatal(r, at)
                    }
                })
                .collect();
            let plan = FaultPlan {
                seed: 0xDEAD ^ (count as u64) ^ (((t0 * 1e6) as u64) << 8),
                crashes: crashes.clone(),
                ..FaultPlan::none()
            };
            let dead: BTreeSet<RankId> = victims.iter().copied().collect();

            let out = run_with_plan(dist, cfg, seed, plan.clone());
            let again = run_with_plan(dist, cfg, seed, plan);

            let deterministic = out.distribution.canonical() == again.distribution.canonical()
                && out.report.events_delivered == again.report.events_delivered
                && out.report.finish_time.to_bits() == again.report.finish_time.to_bits();
            let lambda = survivor_lambda(&out.distribution, &dead);
            let clean_lambda = survivor_lambda(&clean.distribution, &dead);
            let balanced = lambda <= 2.0 * clean_lambda;
            let outcome = match (deterministic, balanced) {
                (true, true) => "ok".to_string(),
                (false, _) => "NONDETERMINISTIC".to_string(),
                (_, false) => "IMBALANCED".to_string(),
            };
            if !(deterministic && balanced) {
                violations += 1;
            }

            let reg = lb_run_metrics(&out);
            let mut row = vec![format!("{count}"), format!("{:.2}", t0 * 1e3)];
            row.extend(counter_cells(
                &reg,
                &[
                    "lb.degraded_ranks",
                    "fault.crash_dropped",
                    "lb.reliable.retransmitted",
                    "sim.events_delivered",
                ],
            ));
            row.push(format!("{:.2}", out.report.finish_time * 1e3));
            row.push(format!("{lambda:.3}"));
            row.push(format!("{clean_lambda:.3}"));
            row.push(outcome);
            table.push_row(row);
        }
    }

    println!("{}", table.render());
    (table, violations)
}

/// One named partition/gray-link scenario of the partition grid.
struct PartitionScenario {
    name: &'static str,
    plan: FaultPlan,
    /// Ranks expected to park (0 = the scenario should commit on all).
    expect_parked: usize,
}

/// Build the partition-grid scenarios for `num_ranks` ranks: clean
/// splits up to 50/50 (permanent and healing mid-gossip) plus gray-link
/// storms that must be absorbed without killing anyone.
fn partition_scenarios(num_ranks: usize) -> Vec<PartitionScenario> {
    let side = |count: usize| -> Vec<RankId> {
        // Spread the minority across the rank space, hot ranks included.
        (0..count)
            .map(|i| RankId::from(1 + i * num_ranks / (count + 1)))
            .collect()
    };
    let split = |count: usize, start: f64, end: Option<f64>| PartitionWindow {
        side: side(count),
        start,
        end,
    };
    let mut scenarios = Vec::new();
    for count in [num_ranks / 8, num_ranks / 4] {
        scenarios.push(PartitionScenario {
            name: if count == num_ranks / 8 {
                "split_eighth"
            } else {
                "split_quarter"
            },
            plan: FaultPlan {
                seed: 0x9A47 ^ count as u64,
                partitions: vec![split(count, 2e-4, None)],
                ..FaultPlan::none()
            },
            expect_parked: count,
        });
    }
    scenarios.push(PartitionScenario {
        name: "split_half",
        plan: FaultPlan {
            seed: 0x9A47,
            partitions: vec![split(num_ranks / 2, 2e-4, None)],
            ..FaultPlan::none()
        },
        // A 50/50 split leaves no strict majority: everyone parks.
        expect_parked: num_ranks,
    });
    scenarios.push(PartitionScenario {
        name: "heal_mid_gossip",
        plan: FaultPlan {
            seed: 0x6EA1,
            partitions: vec![split(num_ranks / 4, 2e-4, Some(0.02))],
            ..FaultPlan::none()
        },
        // The heal re-admits and un-parks every rank.
        expect_parked: 0,
    });
    scenarios.push(PartitionScenario {
        name: "gray_lossy_storm",
        plan: FaultPlan {
            seed: 0x10_55,
            links: vec![
                LinkFault {
                    src: vec![RankId::new(0)],
                    dst: vec![RankId::new(3), RankId::new(5)],
                    start: 0.0,
                    end: None,
                    kind: LinkFaultKind::Lossy { p: 0.35 },
                },
                LinkFault {
                    src: vec![RankId::new(2)],
                    dst: vec![RankId::new(1)],
                    start: 0.0,
                    end: None,
                    kind: LinkFaultKind::Corrupt { p: 0.25 },
                },
            ],
            ..FaultPlan::none()
        },
        expect_parked: 0,
    });
    scenarios.push(PartitionScenario {
        name: "gray_flap_delay",
        plan: FaultPlan {
            seed: 0xF1A9,
            links: vec![
                LinkFault {
                    src: vec![RankId::new(1)],
                    dst: vec![RankId::new(4)],
                    start: 0.0,
                    end: None,
                    kind: LinkFaultKind::Flap {
                        period: 1e-3,
                        duty: 0.5,
                    },
                },
                LinkFault {
                    src: vec![RankId::new(6)],
                    dst: vec![RankId::new(0)],
                    start: 0.0,
                    end: None,
                    kind: LinkFaultKind::Delay { factor: 8.0 },
                },
            ],
            ..FaultPlan::none()
        },
        expect_parked: 0,
    });
    scenarios
}

/// Sweep one partition-tolerant balancer over the partition grid. Every
/// cell runs twice under the same seed and plan; the pair must agree
/// bit-exactly (assignment, event count, finish time) and match the
/// scenario's expected parked count. Returns the table and the number
/// of violated cells.
fn partition_sweep(
    name: &str,
    cfg: LbProtocolConfig,
    dist: &Distribution,
    seed: u64,
) -> (Table, usize) {
    let mut table = Table::new(
        format!("{name} under partitions and gray links"),
        &[
            "scenario",
            "parked",
            "degraded",
            "link_cut",
            "corrupted",
            "retrans",
            "revived",
            "events",
            "finish_ms",
            "imbalance",
            "outcome",
        ],
    );

    let mut violations = 0usize;
    for s in partition_scenarios(dist.num_ranks()) {
        let out = run_with_plan(dist, cfg, seed, s.plan.clone());
        let again = run_with_plan(dist, cfg, seed, s.plan.clone());
        let deterministic = out.distribution.canonical() == again.distribution.canonical()
            && out.report.events_delivered == again.report.events_delivered
            && out.report.finish_time.to_bits() == again.report.finish_time.to_bits()
            && out.parked_ranks == again.parked_ranks;
        let parked_ok = out.parked_ranks == s.expect_parked;
        let conserved = out.distribution.num_tasks() == dist.num_tasks();
        let outcome = match (deterministic, parked_ok, conserved) {
            (true, true, true) => "ok".to_string(),
            (false, _, _) => "NONDETERMINISTIC".to_string(),
            (_, false, _) => format!("PARKED={}", out.parked_ranks),
            (_, _, false) => "TASKS_LOST".to_string(),
        };
        if !(deterministic && parked_ok && conserved) {
            violations += 1;
        }

        let reg = lb_run_metrics(&out);
        let mut row = vec![s.name.to_string()];
        row.extend(counter_cells(
            &reg,
            &[
                "lb.parked_ranks",
                "lb.degraded_ranks",
                "fault.link_cut",
                "fault.corrupted",
                "lb.reliable.retransmitted",
                "lb.reliable.revived",
                "sim.events_delivered",
            ],
        ));
        row.push(format!("{:.2}", out.report.finish_time * 1e3));
        row.push(format!("{:.3}", out.final_imbalance));
        row.push(outcome);
        table.push_row(row);
    }

    println!("{}", table.render());
    (table, violations)
}

/// `--elastic`: the elastic-membership chaos grid. Four scenarios sweep
/// the planned join/drain/autoscale machinery end to end:
///
/// - `scaleout_flash` — a flash crowd triples the hot set's load; the
///   Holt-forecast autoscaler must admit fresh ranks.
/// - `scalein_trough` — a diurnal trough collapses the load; the
///   autoscaler must drain ranks back out (handing their tasks off).
/// - `join_partition` — a planned join lands in the same step as a
///   network partition; the partition-tolerant stack parks the minority
///   while the join still commits.
/// - `drain_deadline` — a drain whose handoff stalls past its deadline
///   must degrade to the crash path: the step runner evacuates the
///   overdue node's committed tasks, then declares it dead.
///
/// Every scenario is gated on zero lost tasks, zero quorum violations,
/// and bit-for-bit sim↔threaded assignment equality on every fault-free
/// step, and must reproduce identically when re-run under the same
/// seed. Writes `results/chaos_elastic.csv`.
fn elastic_grid(quick: bool) -> (Table, usize) {
    use std::collections::BTreeSet as Set;
    use tempered_obs::Recorder;
    use tempered_runtime::elastic::policy::AutoscaleConfig;
    use tempered_runtime::elastic::{
        run_elastic, threaded_driver, ElasticOutcome, ElasticScenario, LoadProfile,
    };
    use tempered_runtime::fault::ChurnEvent;

    let (seed_ranks, steps) = if quick { (6usize, 8u64) } else { (10, 12) };

    // Seed per-rank load sits near 6 (tasks_per_rank × mean 1.0), so
    // the band [4.5, 9] holds the flat phases and the flash/trough
    // phases cross it.
    let autoscale = AutoscaleConfig {
        min_ranks: seed_ranks.saturating_sub(3).max(2),
        max_ranks: seed_ranks + 4,
        out_per_rank: 9.0,
        in_per_rank: 4.5,
        horizon: 2.0,
        cooldown: 2,
    };

    let mut scenarios: Vec<ElasticScenario> = Vec::new();

    let mut flash = ElasticScenario::baseline("scaleout_flash", seed_ranks, steps, 0xE1A1);
    flash.profile = LoadProfile::FlashCrowd {
        start: 2,
        len: steps - 3,
        boost: 3.0,
    };
    flash.autoscale = Some(autoscale);
    scenarios.push(flash);

    let mut trough = ElasticScenario::baseline("scalein_trough", seed_ranks, steps, 0xE1A2);
    trough.profile = LoadProfile::Trough {
        start: 2,
        len: steps - 3,
        floor: 0.25,
    };
    trough.autoscale = Some(autoscale);
    scenarios.push(trough);

    let mut join_part = ElasticScenario::baseline("join_partition", seed_ranks, steps, 0xE1A3);
    join_part.cfg = join_part
        .cfg
        .hardened(RetryConfig::generous())
        .crash_tolerant(HealthConfig::default())
        .partition_tolerant(PartitionConfig::quick());
    join_part.plan.churn = vec![ChurnEvent::join(2.0, seed_ranks as u64)];
    // The join's step runs under a healing minority split: the
    // partition-tolerant stack parks the minority until the heal, and
    // the admission must still commit.
    join_part.step_faults = vec![(
        2,
        FaultPlan {
            seed: 0x9A47,
            partitions: vec![PartitionWindow {
                side: (0..seed_ranks / 4)
                    .map(|i| RankId::from(1 + i * 3))
                    .collect(),
                start: 2e-4,
                end: Some(0.02),
            }],
            ..FaultPlan::none()
        },
    )];
    scenarios.push(join_part);

    let mut deadline = ElasticScenario::baseline("drain_deadline", seed_ranks, steps, 0xE1A4);
    deadline.plan.churn = vec![ChurnEvent::drain(2.0, 1, Some(1.5))];
    deadline.stalled = Set::from([1u64]);
    scenarios.push(deadline);

    let mut table = Table::new(
        format!("Elastic membership chaos grid: {seed_ranks} seed ranks, {steps} steps"),
        &[
            "scenario",
            "ranks_start",
            "ranks_end",
            "joins",
            "drains",
            "deadline_crashes",
            "cross_checked",
            "divergences",
            "lost_tasks",
            "quorum_viol",
            "deterministic",
            "outcome",
        ],
    );
    let mut violations = 0usize;

    for sc in &scenarios {
        eprintln!("elastic scenario: {}", sc.name);
        let out = run_elastic(sc, Some(&mut threaded_driver), &Recorder::disabled());
        let again = run_elastic(sc, Some(&mut threaded_driver), &Recorder::disabled());
        let deterministic = out.final_assignment == again.final_assignment
            && out.membership.roster() == again.membership.roster();

        let joins: usize = out.steps.iter().map(|s| s.joined.len()).sum();
        let drains: usize = out.steps.iter().map(|s| s.drained.len()).sum();
        let mut failures: Vec<String> = Vec::new();
        if out.lost_tasks > 0 {
            failures.push(format!("{} tasks lost", out.lost_tasks));
        }
        if out.quorum_violations > 0 {
            failures.push(format!(
                "quorum violated at {} steps",
                out.quorum_violations
            ));
        }
        if out.divergences > 0 {
            failures.push(format!(
                "threaded executor diverged from the simulator at {} steps",
                out.divergences
            ));
        }
        if !deterministic {
            failures.push("re-run under the same seed did not reproduce".into());
        }
        match sc.name.as_str() {
            "scaleout_flash" if joins == 0 => {
                failures.push("the flash crowd never triggered a scale-out".into());
            }
            "scalein_trough" if drains == 0 => {
                failures.push("the trough never triggered a scale-in".into());
            }
            "join_partition" if joins == 0 || out.membership.roster().len() <= seed_ranks => {
                failures.push("the join under partition did not commit".into());
            }
            "drain_deadline" if out.deadline_crashes != 1 => {
                failures.push(format!(
                    "expected exactly one deadline crash, got {}",
                    out.deadline_crashes
                ));
            }
            _ => {}
        }

        let ok = failures.is_empty();
        if !ok {
            violations += 1;
            for f in &failures {
                eprintln!("VIOLATION [{}] {f}", sc.name);
            }
        }
        let ElasticOutcome {
            cross_checked,
            divergences,
            lost_tasks,
            quorum_violations,
            deadline_crashes,
            ..
        } = out;
        table.push_row(vec![
            sc.name.clone(),
            seed_ranks.to_string(),
            out.membership.roster().len().to_string(),
            joins.to_string(),
            drains.to_string(),
            deadline_crashes.to_string(),
            cross_checked.to_string(),
            divergences.to_string(),
            lost_tasks.to_string(),
            quorum_violations.to_string(),
            if deterministic { "yes" } else { "NO" }.to_string(),
            if ok { "ok" } else { "VIOLATION" }.to_string(),
        ]);
    }

    (table, violations)
}

/// Re-run an ad-hoc scenario under the run-wide safety auditor (same
/// plan, config, and seed — the simulator is deterministic, so this
/// audits *the* run the caller just saw) and exit 1 on any violated
/// invariant.
fn audit_gate(dist: &Distribution, cfg: LbProtocolConfig, seed: u64, plan: &FaultPlan) {
    let (report, _) = tempered_runtime::audit::run_audited(
        dist,
        cfg,
        NetworkModel::default(),
        &RngFactory::new(seed),
        plan.clone(),
    );
    println!(
        "audit: {} committed events, {} tasks checked, {} delivery pairs{}",
        report.committed_events,
        report.checked_tasks,
        report.delivery_pairs,
        if report.trace_truncated {
            " (trace truncated: monotonicity/quorum checks skipped)"
        } else {
            ""
        }
    );
    if report.is_clean() {
        println!("audit clean");
        return;
    }
    for v in &report.violations {
        eprintln!("AUDIT VIOLATION: {v}");
    }
    std::process::exit(1);
}

/// `--plan <file.json>`: load a full [`FaultPlan`] from disk and validate
/// it against the run's `num_ranks` (`None` when the flag is absent).
/// Every failure names the file.
fn plan_from_file(args: &[String], num_ranks: usize) -> Result<Option<FaultPlan>, String> {
    let Some(at) = args.iter().position(|a| a == "--plan") else {
        return Ok(None);
    };
    let path = args
        .get(at + 1)
        .ok_or("--plan needs a <file.json> argument")?;
    FaultPlan::load(std::path::Path::new(path), num_ranks).map(Some)
}

/// A malformed command line is a clean exit 2, never a panic.
fn or_usage_error<T>(parsed: Result<T, String>) -> T {
    parsed.unwrap_or_else(|e| {
        eprintln!("chaos: {e}");
        std::process::exit(2);
    })
}

fn main() {
    let quick = tempered_bench::quick_mode();
    let args: Vec<String> = std::env::args().skip(1).collect();
    // `--strict`: promote audit violations to a nonzero exit.
    let strict = args.iter().any(|a| a == "--strict");

    // Elastic-membership grid: planned joins, drains, autoscaling, and
    // their interactions with partitions and stalled handoffs.
    if args.iter().any(|a| a == "--elastic") {
        let (table, violations) = elastic_grid(quick);
        println!("{}", table.render());
        write_results("chaos_elastic.csv", &table.to_csv());
        assert_eq!(
            violations, 0,
            "an elastic scenario lost tasks, broke quorum, diverged, or \
             failed to reproduce"
        );
        return;
    }

    let (num_ranks, hot, tasks) = if quick { (16, 2, 25) } else { (32, 3, 40) };
    let dist = Distribution::concentrated(num_ranks, hot, tasks);
    let seed = 4242;

    let tempered = LbProtocolConfig::quick().hardened(RetryConfig::generous());
    let grapevine = LbProtocolConfig::grapevine().hardened(RetryConfig::generous());
    let crash_tolerant = tempered.crash_tolerant(HealthConfig::default());
    let partition_tolerant = crash_tolerant.partition_tolerant(PartitionConfig::quick());

    // A full fault plan from a JSON file: validate, run on the stack the
    // fuzzer picks for it, report.
    if let Some(plan) = or_usage_error(plan_from_file(&args, num_ranks)) {
        let cfg = protocol_config(Balancer::Tempered, &plan);
        let out = run_with_plan(&dist, cfg, seed, plan.clone());
        println!(
            "plan scenario: imbalance {:.3} -> {:.3}, {} migrations, \
             {} degraded, {} parked, finish {:.2} ms",
            out.initial_imbalance,
            out.final_imbalance,
            out.tasks_migrated,
            out.degraded_ranks,
            out.parked_ranks,
            out.report.finish_time * 1e3
        );
        if strict {
            audit_gate(&dist, cfg, seed, &plan);
        }
        return;
    }

    eprintln!(
        "chaos sweep: {num_ranks} ranks, {} tasks, drop × straggler grid",
        dist.num_tasks()
    );

    let drops = [0.0, 0.05, 0.1, 0.2];
    let stragglers = [1.0, 4.0, 16.0];

    // One shared grid driver for both balancer configurations.
    let mut mismatches = 0usize;
    for (name, cfg, csv) in [
        ("Hardened TemperedLB", tempered, "chaos.csv"),
        ("Hardened GrapevineLB", grapevine, "chaos_grapevine.csv"),
    ] {
        let (table, miss) = sweep(name, cfg, &dist, seed, &drops, &stragglers);
        write_results(csv, &table.to_csv());
        mismatches += miss;
    }

    // Crash-stop grid: up to 25% of the ranks die mid-gossip.
    let counts: Vec<usize> = [1, num_ranks / 8, num_ranks / 4]
        .into_iter()
        .filter(|&c| c > 0)
        .collect();
    let times = [1e-4, 3e-4];
    let (crash_table, crash_violations) = crash_sweep(crash_tolerant, &dist, seed, &counts, &times);
    write_results("chaos_crash.csv", &crash_table.to_csv());

    // Partition grid: clean splits up to 50/50, gray-link storms, and a
    // heal mid-gossip, for both balancers through the same stack.
    let mut partition_violations = 0usize;
    let mut partition_csv = String::new();
    for (name, cfg) in [
        ("Partition-tolerant TemperedLB", partition_tolerant),
        (
            "Partition-tolerant GrapevineLB",
            grapevine
                .crash_tolerant(HealthConfig::default())
                .partition_tolerant(PartitionConfig::quick()),
        ),
    ] {
        let (table, bad) = partition_sweep(name, cfg, &dist, seed);
        partition_csv.push_str(&table.to_csv());
        partition_violations += bad;
    }
    write_results("chaos_partition.csv", &partition_csv);

    assert_eq!(
        mismatches, 0,
        "a non-degraded chaotic run diverged from the fault-free assignment"
    );
    assert_eq!(
        crash_violations, 0,
        "a crash-stop run was nondeterministic or left the survivors imbalanced"
    );
    assert_eq!(
        partition_violations, 0,
        "a partitioned run double-committed, lost tasks, or failed to reproduce"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn plan_flag_validates_on_load_and_names_the_file() {
        assert!(plan_from_file(&args(&["--strict"]), 16).unwrap().is_none());
        assert!(plan_from_file(&args(&["--plan"]), 16).is_err());
        let path = std::env::temp_dir().join(format!("chaos_bad_plan_{}.json", std::process::id()));
        // Parses, but no plan may drop with probability 1.5.
        let bad = FaultPlan {
            drop: 1.5,
            ..FaultPlan::none()
        };
        std::fs::write(&path, bad.to_json()).unwrap();
        let shown = path.display().to_string();
        let err = plan_from_file(&args(&["--plan", &shown]), 16).unwrap_err();
        std::fs::remove_file(&path).unwrap();
        assert!(err.starts_with(&shown), "{err}");
        assert!(err.contains("drop"), "{err}");
        let err = plan_from_file(&args(&["--plan", "no/such/plan.json"]), 16).unwrap_err();
        assert!(err.starts_with("no/such/plan.json"), "{err}");
    }
}
