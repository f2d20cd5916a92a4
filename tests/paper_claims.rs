//! Reduced-scale checks of the paper's specific quantitative *claims* —
//! the assertions EXPERIMENTS.md's full-scale tables rest on.

use tempered_lb::lbaf::{run_criterion_experiment, CriterionExperiment, CriterionVariant};
use tempered_lb::prelude::*;

/// §V-B: iterating the original algorithm stalls — rejection rates climb
/// toward 100 % and the imbalance plateaus after the first iterations.
#[test]
fn section_vb_original_criterion_stalls() {
    let cfg = CriterionExperiment::small();
    let r = run_criterion_experiment(&cfg, CriterionVariant::Original);
    let last = r.rows.last().unwrap();
    assert!(
        last.rejection_rate.unwrap_or(100.0) > 90.0,
        "late-iteration rejection should be near-total, got {:?}",
        last.rejection_rate
    );
    // Plateau: the last three iterations improve I by < 5 % total.
    let k = r.rows.len();
    let early = r.rows[k - 4].imbalance;
    let late = r.rows[k - 1].imbalance;
    assert!(
        late > early * 0.95,
        "original criterion should plateau: {early} → {late}"
    );
}

/// §V-D: the relaxed criterion starts with low rejection and collapses
/// the imbalance by orders of magnitude.
#[test]
fn section_vd_relaxed_criterion_converges() {
    let cfg = CriterionExperiment::small();
    let r = run_criterion_experiment(&cfg, CriterionVariant::Relaxed);
    let initial = r.rows[0].imbalance;
    let first = &r.rows[1];
    assert!(
        first.rejection_rate.unwrap() < 30.0,
        "first-iteration rejection should be small, got {:?}",
        first.rejection_rate
    );
    assert!(first.imbalance < initial / 10.0);
    let best = r
        .rows
        .iter()
        .map(|row| row.imbalance)
        .fold(f64::INFINITY, f64::min);
    assert!(
        best < 1.0,
        "relaxed criterion should near-balance, got {best}"
    );
}

/// §V-C Proposition: the relaxed criterion is *optimal* — relaxing it
/// further (accepting `LOAD(o) ≥ ℓ^p − ℓ_x` transfers from a max rank)
/// cannot decrease the objective. Spot-check the boundary cases the
/// proofs hinge on.
#[test]
fn relaxed_criterion_boundary_cases() {
    // Sender 4.0, recipient 1.0: a task of exactly 3.0 is rejected
    // (would swap roles, F unchanged at best).
    assert!(!CriterionKind::Relaxed.evaluate(
        Load::new(1.0),
        Load::new(3.0),
        Load::new(1.0),
        Load::new(4.0)
    ));
    // 2.999… accepted.
    assert!(CriterionKind::Relaxed.evaluate(
        Load::new(1.0),
        Load::new(2.999),
        Load::new(1.0),
        Load::new(4.0)
    ));
    // And an accepted transfer genuinely reduces the pairwise max:
    // sender 3.5, recipient 1.0, task 2.0 < 3.5 − 1.0 → accepted, and the
    // max drops from 3.5 to 3.0.
    assert!(CriterionKind::Relaxed.evaluate(
        Load::new(1.0),
        Load::new(2.0),
        Load::new(1.0),
        Load::new(3.5)
    ));
    let dist = Distribution::from_loads(vec![vec![1.5, 2.0], vec![1.0]]);
    let before = dist.max_load();
    let mut after = dist.clone();
    after.migrate(TaskId::new(1), RankId::new(1)).unwrap();
    assert!(after.max_load() < before);
}

/// §IV-B: the gossip stage reaches (near-)global knowledge in ~log_f(P)
/// rounds — the theoretical basis for choosing k.
#[test]
fn gossip_rounds_follow_log_f_p() {
    let mut per_rank: Vec<Vec<f64>> = vec![vec![1.0; 64]];
    per_rank.resize(256, vec![]);
    let dist = Distribution::from_loads(per_rank);
    let l_ave = dist.average_load();
    let factory = RngFactory::new(3);

    // k = log_6(256) ≈ 3.1 → 4 rounds should give the single overloaded
    // rank knowledge of nearly all 255 underloaded ranks.
    let cfg = GossipConfig {
        fanout: 6,
        rounds: 4,
        max_knowledge: 0,
    };
    let out = tempered_lb::core::gossip::run_gossip(dist.rank_loads(), l_ave, &cfg, &factory, 0);
    let hot_knowledge = out.knowledge[0].len();
    assert!(
        hot_knowledge > 200,
        "after log_f(P) rounds the hot rank knows only {hot_knowledge}/255"
    );

    // One round is nowhere near enough.
    let cfg1 = GossipConfig { rounds: 1, ..cfg };
    let out1 = tempered_lb::core::gossip::run_gossip(dist.rank_loads(), l_ave, &cfg1, &factory, 0);
    assert!(out1.knowledge[0].len() < hot_knowledge / 2);
}

/// Fig. 4d claim: Fewest Migrations produces fewer migrations than the
/// Load-Descending straw-man at comparable quality.
#[test]
fn fewest_migrations_ordering_migrates_less() {
    let mut per_rank: Vec<Vec<f64>> = (0..4)
        .map(|r| {
            (0..60)
                .map(|i| 0.2 + ((r * 60 + i) % 9) as f64 * 0.2)
                .collect()
        })
        .collect();
    per_rank.resize(48, vec![]);
    let dist = Distribution::from_loads(per_rank);
    let factory = RngFactory::new(11);

    let run = |ordering| {
        let mut lb = TemperedLb::with_ordering(ordering);
        lb.config.trials = 3;
        lb.config.iters = 5;
        lb.rebalance(&dist, &factory, 0)
    };
    let fewest = run(OrderingKind::FewestMigrations);
    let descending = run(OrderingKind::LoadDescending);
    assert!(
        fewest.final_imbalance < 1.0 && descending.final_imbalance < 1.5,
        "both orderings should balance ({} / {})",
        fewest.final_imbalance,
        descending.final_imbalance
    );
    let moved = |r: &RebalanceResult| r.migrations.iter().map(|m| m.load.get()).sum::<f64>();
    assert!(
        moved(&fewest) <= moved(&descending) * 1.1,
        "fewest-migrations moved {} load vs descending {}",
        moved(&fewest),
        moved(&descending)
    );
}

/// Fig. 3 claim: the LB cost itself is small relative to the particle
/// time it saves.
#[test]
fn lb_cost_is_amortized() {
    use tempered_lb::empire::{run_timeline, ExecutionMode, LbStrategy, TimelineConfig};
    let mut cfg = TimelineConfig::new(
        tempered_lb::empire::BdotScenario::small(),
        ExecutionMode::Amt(LbStrategy::Tempered(OrderingKind::FewestMigrations)),
        7,
    );
    cfg.lb_period = 25;
    cfg.tempered_trials = 3;
    cfg.tempered_iters = 5;
    let t = run_timeline(&cfg);
    assert!(
        t.t_lb < 0.2 * t.t_p,
        "LB cost {} should be well under the particle time {}",
        t.t_lb,
        t.t_p
    );
}
