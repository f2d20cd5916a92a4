//! Cross-crate integration: the EMPIRE surrogate driving each balancer
//! through full runs, the analysis-mode and asynchronous protocol paths
//! agreeing on quality, and reproduction-shape assertions for the paper's
//! headline claims at reduced scale.

use tempered_lb::empire::{run_timeline, BdotScenario, ExecutionMode, LbStrategy, TimelineConfig};
use tempered_lb::prelude::*;

fn quick_cfg(mode: ExecutionMode) -> TimelineConfig {
    let mut cfg = TimelineConfig::new(BdotScenario::small(), mode, 77);
    cfg.lb_period = 25;
    cfg.tempered_trials = 3;
    cfg.tempered_iters = 5;
    cfg
}

#[test]
fn all_balanced_configs_beat_spmd_particle_time() {
    let spmd = run_timeline(&quick_cfg(ExecutionMode::Spmd));
    for strategy in [
        LbStrategy::Grapevine,
        LbStrategy::Greedy,
        LbStrategy::Hier,
        LbStrategy::Tempered(OrderingKind::FewestMigrations),
    ] {
        let t = run_timeline(&quick_cfg(ExecutionMode::Amt(strategy)));
        assert!(
            t.t_p < spmd.t_p,
            "{}: t_p {} should beat SPMD {}",
            t.label,
            t.t_p,
            spmd.t_p
        );
        assert!(t.lb_invocations > 0);
    }
}

#[test]
fn fig2_headline_ordering_holds_at_small_scale() {
    // The paper's Fig. 2 ordering: AMT-no-LB is the slowest; the three
    // good balancers (Greedy/Hier/Tempered) beat SPMD; Grapevine helps
    // but less than Tempered.
    let spmd = run_timeline(&quick_cfg(ExecutionMode::Spmd));
    let none = run_timeline(&quick_cfg(ExecutionMode::Amt(LbStrategy::None)));
    let grape = run_timeline(&quick_cfg(ExecutionMode::Amt(LbStrategy::Grapevine)));
    let tempered = run_timeline(&quick_cfg(ExecutionMode::Amt(LbStrategy::Tempered(
        OrderingKind::FewestMigrations,
    ))));

    assert!(none.t_total() > spmd.t_total(), "tasking overhead shows");
    assert!(
        tempered.t_total() < none.t_total(),
        "balancing beats overheads"
    );
    assert!(
        tempered.t_p <= grape.t_p * 1.05,
        "tempered particle time {} should be at least on par with grapevine {}",
        tempered.t_p,
        grape.t_p
    );
}

#[test]
fn distributed_protocol_matches_analysis_mode_quality() {
    // Same algorithm through two execution paths — the LBAF-style global
    // driver and the message-driven protocol — must land in the same
    // quality regime on the same input.
    let mut per_rank: Vec<Vec<f64>> = vec![vec![1.0; 50], vec![0.75; 40]];
    per_rank.resize(24, vec![]);
    let dist = Distribution::from_loads(per_rank);

    let sync = refine(
        &dist,
        &RefineConfig {
            trials: 2,
            iters: 4,
            ..RefineConfig::tempered()
        },
        &RngFactory::new(5),
        0,
    );
    let asynch = run_distributed_lb(
        &dist,
        LbProtocolConfig {
            trials: 2,
            iters: 4,
            ..Default::default()
        },
        NetworkModel::default(),
        &RngFactory::new(5),
    );

    assert!(sync.best_imbalance < 1.0, "sync: {}", sync.best_imbalance);
    assert!(
        asynch.final_imbalance < 1.0,
        "async: {}",
        asynch.final_imbalance
    );
}

#[test]
fn persistence_justifies_balancing() {
    // The whole approach rests on §III-B: phase-to-phase load correlation
    // must be high in the B-Dot workload.
    let scenario = BdotScenario::small();
    let mut sim = tempered_lb::empire::EmpireSim::new(scenario, CostModel::default(), 3);
    let phases: Vec<_> = (0..20).map(|_| sim.step()).collect();
    let p = phases[18].correlation(&phases[19]).unwrap();
    assert!(p > 0.9, "persistence {p} too low for phase-level balancing");
    // Pinned bit for bit, so a change in summation order shows.
    assert_eq!(p.to_bits(), 0x3fef_f811_6aa3_8835);
}

#[test]
fn lb_keeps_imbalance_bounded_while_no_lb_drifts() {
    let no_lb = run_timeline(&quick_cfg(ExecutionMode::Amt(LbStrategy::None)));
    let tempered = run_timeline(&quick_cfg(ExecutionMode::Amt(LbStrategy::Tempered(
        OrderingKind::FewestMigrations,
    ))));
    let n = no_lb.steps.len();
    // Time-averaged imbalance over the second half of the run.
    let avg = |steps: &[tempered_lb::empire::StepStats]| {
        let half = &steps[n / 2..];
        half.iter().map(|s| s.imbalance).sum::<f64>() / half.len() as f64
    };
    let i_none = avg(&no_lb.steps);
    let i_temp = avg(&tempered.steps);
    assert!(
        i_temp < i_none * 0.5,
        "tempered late-run imbalance {i_temp} vs no-LB {i_none}"
    );
}

#[test]
fn migrations_reported_by_timeline_are_consistent() {
    let t = run_timeline(&quick_cfg(ExecutionMode::Amt(LbStrategy::Greedy)));
    assert!(t.total_migrations > 0);
    assert_eq!(
        t.t_lb,
        t.steps.iter().map(|s| s.t_lb).sum::<f64>(),
        "per-step LB cost must sum to the total"
    );
}
