//! Service-workload sweep: race persistence against forecast-driven
//! balancing over the time-varying generators of `tempered-svc` and
//! emit `results/svc_sweep.csv`.
//!
//! Grid: every analysis-mode balancer (none, greedy, grapevine,
//! tempered, and both predictive variants) × every generator (diurnal,
//! flash crowd, hot keys, mixed) × the seed list. Each cell is one
//! multi-phase timeline; rows report the paper's imbalance metric `I`
//! *and* the tail digest (max phase time, sum of per-phase maxima,
//! p95/p99 rank load) that the predictive family is designed to move.
//!
//! Two gate checks make this binary a regression tripwire, not just a
//! table generator:
//!
//! 1. *anticipation pays*: summed over the seed list, predictive
//!    TemperedLB must beat its persistence twin on max phase time for
//!    the diurnal AND flash-crowd generators;
//! 2. *the stack survives gray links*: one distributed predictive
//!    flash-crowd decision is replayed under the shipped
//!    `examples/plans/svc_flashcrowd.json` gray-link [`FaultPlan`]
//!    (override with `--plan <path>`), and must complete undegraded
//!    with the full task population intact.
//!
//! Run with: `cargo run --release -p tempered-bench --bin svc_sweep`
//! (`TEMPERED_QUICK=1` shrinks the seed list for smoke testing).

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use tempered_bench::write_results;
use tempered_core::forecast::{ForecastBank, Holt};
use tempered_core::rng::{derive_seed, RngFactory};
use tempered_runtime::lb::LbProtocolConfig;
use tempered_runtime::sim::NetworkModel;
use tempered_runtime::{run_distributed_lb_with_faults, FaultPlan, RetryConfig};
use tempered_svc::prelude::*;

const RANKS: usize = 8;
const SHARDS_PER_RANK: usize = 32;

fn seeds() -> &'static [u64] {
    if tempered_bench::quick_mode() {
        &[5]
    } else {
        &[5, 11, 21]
    }
}

fn scenarios(seed: u64) -> Vec<SvcScenario> {
    vec![
        SvcScenario::diurnal(RANKS, SHARDS_PER_RANK, 48, seed),
        SvcScenario::flash_crowd(RANKS, SHARDS_PER_RANK, 36, seed),
        SvcScenario::hot_keys(RANKS, SHARDS_PER_RANK, 40, seed),
        SvcScenario::mixed(RANKS, SHARDS_PER_RANK, 48, seed),
    ]
}

struct Row {
    workload: String,
    scenario: String,
    seed: u64,
    timeline: SvcTimeline,
}

fn csv(rows: &[Row]) -> String {
    let mut out = String::from(
        "scenario,workload,seed,balancer,ranks,shards,phases,mean_imbalance,\
         max_phase_time,sum_of_max,p95_rank_load,p99_rank_load,\
         lb_invocations,migrations,messages\n",
    );
    for r in rows {
        let t = &r.timeline;
        let _ = writeln!(
            out,
            "{},{},{},{},{},{},{},{:.6},{:.6},{:.6},{:.6},{:.6},{},{},{}",
            r.scenario,
            r.workload,
            r.seed,
            t.balancer,
            RANKS,
            RANKS * SHARDS_PER_RANK,
            t.tail.phases,
            t.tail.mean_imbalance,
            t.tail.max_phase_time,
            t.tail.sum_of_max,
            t.tail.p95_rank_load,
            t.tail.p99_rank_load,
            t.lb_invocations,
            t.total_migrations,
            t.messages_sent,
        );
    }
    out
}

/// Summed max-phase time of `balancer` on `scenario` across all rows.
fn total_max_phase(rows: &[Row], scenario: &str, balancer: &str) -> f64 {
    rows.iter()
        .filter(|r| r.scenario == scenario && r.timeline.balancer == balancer)
        .map(|r| r.timeline.tail.max_phase_time)
        .sum()
}

/// Gate 1: anticipation must pay on the smooth-drift generators.
fn assert_predictive_wins(rows: &[Row]) {
    // Only the tempered pair is a hard gate: Grapevine's threshold
    // gossip is noisier and its predictive variant is reported, not
    // gated (see DESIGN.md §13).
    let (pred, twin) = ("pred_tempered", "tempered");
    for scenario in ["diurnal", "flash_crowd"] {
        let p = total_max_phase(rows, scenario, pred);
        let t = total_max_phase(rows, scenario, twin);
        assert!(
            p < t,
            "{pred} must beat {twin} on {scenario} max phase time \
             (got {p:.3} vs {t:.3} summed over seeds {:?})",
            seeds()
        );
        println!("gate {scenario:>12}: {pred} {p:.3} < {twin} {t:.3}  ok");
    }
}

/// Gate 2: a distributed predictive flash-crowd decision under the
/// gray-link plan. The forecast bank watches the ramp, the protocol runs
/// on the forecast loads over faulty links, and the run must complete
/// with every task accounted for.
fn gray_link_cell(plan_path: &Path, rows: &mut Vec<Row>) {
    let plan = FaultPlan::load(plan_path, RANKS)
        .unwrap_or_else(|e| panic!("svc_sweep gray-link plan: {e}"));
    let seed = seeds()[0];
    let sc = SvcScenario::flash_crowd(RANKS, SHARDS_PER_RANK, 36, seed);
    let mut dist = sc.initial_distribution();
    let mut bank = ForecastBank::new(Holt::default());
    bank.quantum = LOAD_QUANTUM;

    // Observe through the ramp; decide at its steepest point.
    let decide = sc.phases as u64 / 3 + 3;
    for phase in 0..=decide {
        sc.apply_phase(&mut dist, phase);
        bank.observe_epoch(phase, &dist);
    }
    let forecast = bank.forecast(&dist);
    let cfg = LbProtocolConfig {
        iters: 4,
        ..LbProtocolConfig::quick()
    }
    .hardened(RetryConfig::generous());
    let out = run_distributed_lb_with_faults(
        &forecast,
        cfg,
        NetworkModel::default(),
        &RngFactory::new(derive_seed(seed, &[0x5EC5_96A1])),
        plan,
    );
    assert!(out.report.completed, "gray-link run must terminate");
    assert_eq!(
        out.degraded_ranks, 0,
        "gray links degrade service, not correctness: no rank may park"
    );
    assert_eq!(out.distribution.num_tasks(), forecast.num_tasks());
    assert!(
        out.final_imbalance < out.initial_imbalance,
        "the crowd decision must still balance under gray links \
         ({:.3} -> {:.3})",
        out.initial_imbalance,
        out.final_imbalance
    );
    println!(
        "gate   gray_links: dist pred tempered I {:.3} -> {:.3}, {} msgs, {} retransmits  ok",
        out.initial_imbalance,
        out.final_imbalance,
        out.report.network.messages,
        out.reliable.retransmitted,
    );

    // Record the cell in the CSV alongside the timeline rows. Tail
    // fields do not apply to a single decision; reuse the imbalance
    // slots and leave the rest zero.
    let tail = tempered_obs::tail::TailSummary {
        phases: 1,
        max_phase_time: out
            .distribution
            .rank_loads()
            .iter()
            .map(|l| l.get())
            .fold(0.0, f64::max),
        sum_of_max: 0.0,
        p95_rank_load: 0.0,
        p99_rank_load: 0.0,
        mean_imbalance: out.final_imbalance,
    };
    rows.push(Row {
        workload: format!("{}+gray_links", sc.workload.label()),
        scenario: "flash_crowd_gray".into(),
        seed,
        timeline: SvcTimeline {
            balancer: "dist_pred_tempered",
            workload: sc.workload.label(),
            tail,
            per_phase_imbalance: vec![out.initial_imbalance, out.final_imbalance],
            lb_invocations: 1,
            total_migrations: out.tasks_migrated,
            messages_sent: out.report.network.messages,
        },
    });
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let plan_path: PathBuf = match args.iter().position(|a| a == "--plan") {
        Some(i) => PathBuf::from(args.get(i + 1).expect("--plan needs a path")),
        None => {
            Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/plans/svc_flashcrowd.json")
        }
    };

    let mut rows: Vec<Row> = Vec::new();
    for &seed in seeds() {
        for sc in scenarios(seed) {
            for kind in SvcBalancerKind::analysis_set() {
                let cfg = SvcTimelineConfig::new(sc.clone(), kind, seed);
                let t = run_svc_timeline(&cfg);
                println!(
                    "{:>12}/{seed:<3} {:>14} maxT={:8.3} sumMax={:9.3} p99={:8.3} I={:.3} migr={}",
                    sc.name,
                    t.balancer,
                    t.tail.max_phase_time,
                    t.tail.sum_of_max,
                    t.tail.p99_rank_load,
                    t.tail.mean_imbalance,
                    t.total_migrations,
                );
                rows.push(Row {
                    workload: sc.workload.label(),
                    scenario: sc.name.clone(),
                    seed,
                    timeline: t,
                });
            }
        }
    }

    assert_predictive_wins(&rows);
    gray_link_cell(&plan_path, &mut rows);
    write_results("svc_sweep.csv", &csv(&rows));
}
