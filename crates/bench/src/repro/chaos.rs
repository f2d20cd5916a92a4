//! The fault-injection grids, pinned like every other experiment: the
//! repair work each cell cost (retransmissions, suppressed duplicates,
//! give-ups), its events, modeled makespan and outcome are committed
//! numbers, and each grid's gate is an assert that prints a `gate … ok`
//! line.
//!
//! `chaos` sweeps the hardened protocol over four simulator grids:
//! drop rate × straggler factor for both balancers, crash-stop failures,
//! and partitions / gray links for both balancers. Every cell runs on
//! the stack the fuzzer would pick for its plan
//! ([`tempered_runtime::fuzz::protocol_config`]) and under the safety
//! auditor ([`run_audited`]), so a cell that breaks an invariant stops
//! the experiment. `chaos_elastic` sweeps
//! planned joins, drains and autoscaling through [`run_elastic`] with
//! the threaded executor as its second driver.

use super::{tabulate, Runs, Scale};
use std::collections::BTreeSet;
use tempered_core::distribution::Distribution;
use tempered_core::ids::RankId;
use tempered_core::rng::RngFactory;
use tempered_obs::Recorder;
use tempered_runtime::audit::run_audited;
use tempered_runtime::elastic::policy::AutoscaleConfig;
use tempered_runtime::elastic::{
    run_elastic, threaded_driver, ChurnEvent, ElasticOutcome, ElasticScenario, LoadProfile,
};
use tempered_runtime::fuzz::{protocol_config, Balancer};
use tempered_runtime::{
    CrashEvent, DistLbResult, FaultPlan, HealthConfig, LinkFault, LinkFaultKind, NetworkModel,
    PartitionConfig, PartitionWindow, RetryConfig,
};

/// Master seed of every simulator grid cell.
const SEED: u64 = 4242;

/// One cell: `balancer` over `dist` under `plan`, on the stack that plan
/// calls for, under the safety auditor — a violation of any invariant
/// stops the experiment.
fn run(dist: &Distribution, balancer: Balancer, plan: FaultPlan) -> DistLbResult {
    let cfg = protocol_config(balancer, &plan);
    let factory = RngFactory::new(SEED);
    let (out, audit) = run_audited(dist, cfg, NetworkModel::default(), &factory, plan);
    assert!(audit.is_clean(), "audit: {:?}", audit.violations);
    out
}

/// [`run`] twice, and whether the second run reproduced the first bit
/// for bit: assignment, event count, finish time and parked ranks.
fn run_twice(dist: &Distribution, balancer: Balancer, plan: FaultPlan) -> (DistLbResult, bool) {
    let out = run(dist, balancer, plan.clone());
    let again = run(dist, balancer, plan);
    let same = out.distribution.canonical() == again.distribution.canonical()
        && out.report.events_delivered == again.report.events_delivered
        && out.report.finish_time.to_bits() == again.report.finish_time.to_bits()
        && out.parked_ranks == again.parked_ranks;
    (out, same)
}

fn finish_ms(out: &DistLbResult) -> String {
    format!("{:.2}", out.report.finish_time * 1e3)
}

/// A grid's gate: all `cells` passed, or the run stops and shows
/// `evidence` (the rendered grid).
fn gate(grid: &str, passed: usize, cells: usize, what: &str, evidence: &str) -> String {
    assert!(
        passed == cells,
        "{grid}: {} of {cells} cells failed to {what}\n{evidence}",
        cells - passed
    );
    format!("gate {grid}: {passed}/{cells} cells {what}  ok\n")
}

pub(super) fn chaos(_: &mut Runs, scale: Scale) -> String {
    let dist = match scale {
        Scale::Quick => Distribution::concentrated(16, 2, 25),
        Scale::Paper => Distribution::concentrated(32, 3, 40),
    };
    [
        drop_straggler("Hardened TemperedLB", Balancer::Tempered, &dist),
        drop_straggler("Hardened GrapevineLB", Balancer::Grapevine, &dist),
        crash_grid(&dist),
        partition_grid("Partition-tolerant TemperedLB", Balancer::Tempered, &dist),
        partition_grid("Partition-tolerant GrapevineLB", Balancer::Grapevine, &dist),
    ]
    .join("\n")
}

/// One balancer over the drop-rate × straggler grid, with duplication
/// and delay spikes on every cell. Gate: a run in which no rank degrades
/// commits the fault-free run's assignment.
fn drop_straggler(name: &str, balancer: Balancer, dist: &Distribution) -> String {
    let clean = run(dist, balancer, FaultPlan::none());
    let reference = clean.distribution.canonical();
    let mut cells = Vec::new();
    for drop in [0.0, 0.05, 0.1, 0.2] {
        for straggler in [1.0, 4.0, 16.0] {
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
            let out = run(dist, balancer, plan);
            let outcome = if out.degraded_ranks > 0 {
                "degraded"
            } else if out.distribution.canonical() == reference {
                "identical"
            } else {
                "MISMATCH"
            };
            cells.push((drop, straggler, out, outcome));
        }
    }
    let table = tabulate(
        &format!("{name} under chaos (duplicate=0.1, spike=0.05 everywhere)"),
        &cells,
        &[
            ("drop", &|(drop, ..)| format!("{drop:.2}")),
            ("straggler", &|(_, straggler, ..)| format!("{straggler:.0}")),
            ("dropped", &|(.., out, _)| {
                out.report.faults.dropped.to_string()
            }),
            ("retrans", &|(.., out, _)| {
                out.reliable.retransmitted.to_string()
            }),
            ("dup_supp", &|(.., out, _)| {
                out.reliable.duplicates_suppressed.to_string()
            }),
            ("gave_up", &|(.., out, _)| out.reliable.gave_up.to_string()),
            ("degraded", &|(.., out, _)| out.degraded_ranks.to_string()),
            ("events", &|(.., out, _)| {
                out.report.events_delivered.to_string()
            }),
            ("finish_ms", &|(.., out, _)| finish_ms(out)),
            ("imbalance", &|(.., out, _)| {
                format!("{:.3}", out.final_imbalance)
            }),
            ("outcome", &|(.., outcome)| outcome.to_string()),
        ],
    );
    let passed = cells.iter().filter(|c| c.3 != "MISMATCH").count();
    let what = "commit the fault-free assignment or degrade";
    let gate = gate(name, passed, cells.len(), what, &table);
    format!(
        "{table}{name} fault-free reference: imbalance {:.3} -> {:.3}, {} migrations\n{gate}",
        clean.initial_imbalance, clean.final_imbalance, clean.tasks_migrated
    )
}

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

/// Crash-stop failures on TemperedLB: 1, P/8 and P/4 ranks die
/// mid-gossip from each base time, staggered 50 µs apart, the last of
/// several warm-restarting into a fenced zombie. Gate: every cell
/// reproduces, and survivor-set `λ` stays within 2× of the crash-free
/// run's over the same survivors.
fn crash_grid(dist: &Distribution) -> String {
    let num_ranks = dist.num_ranks();
    let clean = run(dist, Balancer::Tempered, FaultPlan::none());
    let mut cells = Vec::new();
    for count in [1, num_ranks / 8, num_ranks / 4] {
        for t0 in [1e-4, 3e-4] {
            // Spread the victims across the rank space (rank 0 survives,
            // so the grid also covers survivor-side coordination).
            let victims: Vec<RankId> = (0..count)
                .map(|i| RankId::from(1 + i * num_ranks / (count + 1)))
                .collect();
            let crashes = victims
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
                crashes,
                ..FaultPlan::none()
            };
            let (out, deterministic) = run_twice(dist, Balancer::Tempered, plan);
            let dead: BTreeSet<RankId> = victims.into_iter().collect();
            let lambda = survivor_lambda(&out.distribution, &dead);
            let clean_lambda = survivor_lambda(&clean.distribution, &dead);
            let outcome = match (deterministic, lambda <= 2.0 * clean_lambda) {
                (true, true) => "ok",
                (false, _) => "NONDETERMINISTIC",
                (_, false) => "IMBALANCED",
            };
            cells.push((count, t0, out, lambda, clean_lambda, outcome));
        }
    }
    let table = tabulate(
        "Crash-tolerant TemperedLB under crash-stop failures",
        &cells,
        &[
            ("crashed", &|(count, ..)| count.to_string()),
            ("t_crash_ms", &|(_, t0, ..)| format!("{:.2}", t0 * 1e3)),
            ("degraded", &|(_, _, out, ..)| {
                out.degraded_ranks.to_string()
            }),
            ("crash_dropped", &|(_, _, out, ..)| {
                out.report.faults.crash_dropped.to_string()
            }),
            ("retrans", &|(_, _, out, ..)| {
                out.reliable.retransmitted.to_string()
            }),
            ("events", &|(_, _, out, ..)| {
                out.report.events_delivered.to_string()
            }),
            ("finish_ms", &|(_, _, out, ..)| finish_ms(out)),
            ("surv_lambda", &|(.., lambda, _, _)| format!("{lambda:.3}")),
            ("clean_lambda", &|(.., clean, _)| format!("{clean:.3}")),
            ("outcome", &|(.., outcome)| outcome.to_string()),
        ],
    );
    let passed = cells.iter().filter(|c| c.5 == "ok").count();
    let what = "reproduce with survivor lambda within 2x of the crash-free run";
    let gate = gate("crash-stop", passed, cells.len(), what, &table);
    table + &gate
}

/// The partition grid's scenarios for `num_ranks` ranks, each with the
/// number of ranks expected to park: clean splits up to 50/50
/// (permanent, and healing mid-gossip) plus gray-link storms that must
/// be absorbed without parking anyone.
fn partition_scenarios(num_ranks: usize) -> Vec<(&'static str, FaultPlan, usize)> {
    // The minority is spread across the rank space, hot ranks included.
    let split = |name, seed, count: usize, end, expect_parked| {
        let side = (0..count).map(|i| RankId::from(1 + i * num_ranks / (count + 1)));
        let window = PartitionWindow {
            side: side.collect(),
            start: 2e-4,
            end,
        };
        let plan = FaultPlan {
            seed,
            partitions: vec![window],
            ..FaultPlan::none()
        };
        (name, plan, expect_parked)
    };
    let gray = |name, seed, links| {
        let plan = FaultPlan {
            seed,
            links,
            ..FaultPlan::none()
        };
        (name, plan, 0)
    };
    let link = |src: u32, dst: &[u32], kind| LinkFault {
        src: vec![RankId::new(src)],
        dst: dst.iter().map(|&r| RankId::new(r)).collect(),
        start: 0.0,
        end: None,
        kind,
    };
    let (eighth, quarter) = (num_ranks / 8, num_ranks / 4);
    let (lossy, corrupt) = (
        LinkFaultKind::Lossy { p: 0.35 },
        LinkFaultKind::Corrupt { p: 0.25 },
    );
    let flap = LinkFaultKind::Flap {
        period: 1e-3,
        duty: 0.5,
    };
    let slow = LinkFaultKind::Delay { factor: 8.0 };
    vec![
        split("split_eighth", 0x9A47 ^ eighth as u64, eighth, None, eighth),
        split(
            "split_quarter",
            0x9A47 ^ quarter as u64,
            quarter,
            None,
            quarter,
        ),
        // A 50/50 split leaves no strict majority: everyone parks.
        split("split_half", 0x9A47, num_ranks / 2, None, num_ranks),
        // The heal re-admits and un-parks every rank.
        split("heal_mid_gossip", 0x6EA1, quarter, Some(0.02), 0),
        gray(
            "gray_lossy_storm",
            0x10_55,
            vec![link(0, &[3, 5], lossy), link(2, &[1], corrupt)],
        ),
        gray(
            "gray_flap_delay",
            0xF1A9,
            vec![link(1, &[4], flap), link(6, &[0], slow)],
        ),
    ]
}

/// One balancer over the partition grid on the partition-tolerant stack.
/// Gate: every cell reproduces, parks exactly the ranks its scenario
/// expects (never a split-brain double commit), and conserves tasks.
fn partition_grid(name: &str, balancer: Balancer, dist: &Distribution) -> String {
    let cells: Vec<_> = partition_scenarios(dist.num_ranks())
        .into_iter()
        .map(|(scenario, plan, expect_parked)| {
            let (out, deterministic) = run_twice(dist, balancer, plan);
            let outcome = if !deterministic {
                "NONDETERMINISTIC".to_string()
            } else if out.parked_ranks != expect_parked {
                format!("PARKED={}", out.parked_ranks)
            } else if out.distribution.num_tasks() != dist.num_tasks() {
                "TASKS_LOST".to_string()
            } else {
                "ok".to_string()
            };
            (scenario, out, outcome)
        })
        .collect();
    let table = tabulate(
        &format!("{name} under partitions and gray links"),
        &cells,
        &[
            ("scenario", &|(scenario, ..)| scenario.to_string()),
            ("parked", &|(_, out, _)| out.parked_ranks.to_string()),
            ("degraded", &|(_, out, _)| out.degraded_ranks.to_string()),
            ("link_cut", &|(_, out, _)| {
                out.report.faults.link_cut.to_string()
            }),
            ("corrupted", &|(_, out, _)| {
                out.report.faults.corrupted.to_string()
            }),
            ("retrans", &|(_, out, _)| {
                out.reliable.retransmitted.to_string()
            }),
            ("revived", &|(_, out, _)| out.reliable.revived.to_string()),
            ("events", &|(_, out, _)| {
                out.report.events_delivered.to_string()
            }),
            ("finish_ms", &|(_, out, _)| finish_ms(out)),
            ("imbalance", &|(_, out, _)| {
                format!("{:.3}", out.final_imbalance)
            }),
            ("outcome", &|(.., outcome)| outcome.clone()),
        ],
    );
    let passed = cells.iter().filter(|c| c.2 == "ok").count();
    let what = "reproduce, park as expected and conserve tasks";
    let gate = gate(name, passed, cells.len(), what, &table);
    table + &gate
}

/// The elastic-membership grid. Four scenarios sweep the planned
/// join/drain/autoscale machinery end to end:
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
/// Gate: every scenario loses no task, never proceeds without quorum,
/// matches the threaded executor bit for bit on every fault-free step,
/// reproduces under re-run, and reaches its scenario's target.
pub(super) fn chaos_elastic(_: &mut Runs, scale: Scale) -> String {
    let (seed_ranks, steps) = match scale {
        Scale::Quick => (6usize, 8u64),
        Scale::Paper => (10, 12),
    };

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

    let mut flash = ElasticScenario::baseline("scaleout_flash", seed_ranks, steps, 0xE1A1);
    flash.profile = LoadProfile::FlashCrowd {
        start: 2,
        len: steps - 3,
        boost: 3.0,
    };
    flash.autoscale = Some(autoscale);

    let mut trough = ElasticScenario::baseline("scalein_trough", seed_ranks, steps, 0xE1A2);
    trough.profile = LoadProfile::Trough {
        start: 2,
        len: steps - 3,
        floor: 0.25,
    };
    trough.autoscale = Some(autoscale);

    let mut join_part = ElasticScenario::baseline("join_partition", seed_ranks, steps, 0xE1A3);
    join_part.cfg = join_part
        .cfg
        .hardened(RetryConfig::generous())
        .crash_tolerant(HealthConfig::default())
        .partition_tolerant(PartitionConfig::quick());
    join_part.churn = vec![ChurnEvent::join(2.0, seed_ranks as u64)];
    // The join's step runs under a healing minority split: the
    // partition-tolerant stack parks the minority until the heal, and
    // the admission must still commit.
    join_part.step_faults = vec![(
        2,
        PartitionWindow {
            side: (0..seed_ranks / 4)
                .map(|i| RankId::from(1 + i * 3))
                .collect(),
            start: 2e-4,
            end: Some(0.02),
        },
    )];

    let mut deadline = ElasticScenario::baseline("drain_deadline", seed_ranks, steps, 0xE1A4);
    deadline.churn = vec![ChurnEvent::drain(2.0, 1, Some(1.5))];
    deadline.stalled = BTreeSet::from([1u64]);

    let cells: Vec<_> = [flash, trough, join_part, deadline]
        .iter()
        .map(|sc| {
            let out = run_elastic(sc, Some(&mut threaded_driver), &Recorder::disabled());
            let again = run_elastic(sc, Some(&mut threaded_driver), &Recorder::disabled());
            let deterministic = out.final_assignment == again.final_assignment
                && out.membership.roster() == again.membership.roster();
            let joins: usize = out.steps.iter().map(|s| s.joined.len()).sum();
            let drains: usize = out.steps.iter().map(|s| s.drained.len()).sum();
            let failures = elastic_failures(sc, &out, seed_ranks, joins, drains, deterministic);
            (sc.name.clone(), out, joins, drains, deterministic, failures)
        })
        .collect();
    let table = tabulate(
        &format!("Elastic membership chaos grid: {seed_ranks} seed ranks, {steps} steps"),
        &cells,
        &[
            ("scenario", &|(name, ..)| name.clone()),
            ("ranks_start", &|_| seed_ranks.to_string()),
            ("ranks_end", &|(_, out, ..)| {
                out.membership.roster().len().to_string()
            }),
            ("joins", &|(_, _, joins, ..)| joins.to_string()),
            ("drains", &|(.., drains, _, _)| drains.to_string()),
            ("deadline_crashes", &|(_, out, ..)| {
                out.deadline_crashes.to_string()
            }),
            ("cross_checked", &|(_, out, ..)| {
                out.cross_checked.to_string()
            }),
            ("divergences", &|(_, out, ..)| out.divergences.to_string()),
            ("lost_tasks", &|(_, out, ..)| out.lost_tasks.to_string()),
            ("quorum_viol", &|(_, out, ..)| {
                out.quorum_violations.to_string()
            }),
            ("deterministic", &|(.., deterministic, _)| {
                String::from(if *deterministic { "yes" } else { "NO" })
            }),
            ("outcome", &|(.., failures)| {
                String::from(if failures.is_empty() {
                    "ok"
                } else {
                    "VIOLATION"
                })
            }),
        ],
    );
    let failures: Vec<String> = cells
        .iter()
        .flat_map(|(name, .., failures)| failures.iter().map(move |f| format!("[{name}] {f}\n")))
        .collect();
    let passed = cells.iter().filter(|c| c.5.is_empty()).count();
    let what = "keep every task and quorum, match the threaded executor, reproduce \
                and reach their target";
    let gate = gate(
        "elastic",
        passed,
        cells.len(),
        what,
        &(table.clone() + &failures.concat()),
    );
    table + &gate
}

/// What one elastic scenario got wrong, if anything.
fn elastic_failures(
    sc: &ElasticScenario,
    out: &ElasticOutcome,
    seed_ranks: usize,
    joins: usize,
    drains: usize,
    deterministic: bool,
) -> Vec<String> {
    let mut failures = Vec::new();
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
    failures
}
