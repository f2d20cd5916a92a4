//! End-to-end drain over the PIC workload: step the EMPIRE surrogate
//! until the injection ramp has concentrated real particle load, then
//! drain ranks out from under the color assignment with [`DrainingLb`]
//! and check the handoff loses nothing.
//!
//! The balancer test-support postconditions (`final ≤ initial
//! imbalance`) deliberately do NOT apply here: evacuating a rank can
//! *raise* imbalance (the continuing ranks absorb its work), so the
//! drain contract is conservation + an empty drained rank + a
//! replayable migration list — asserted directly.

use empire_pic::{BdotScenario, CostModel, EmpireSim};
use std::collections::BTreeSet;
use tempered_core::balancer::{DrainingLb, LoadBalancer, TemperedConfig, TemperedLb};
use tempered_core::criteria::CriterionKind;
use tempered_core::ids::{RankId, TaskId};

/// Sorted task-id census of a distribution, for exact set comparison.
fn task_ids(d: &tempered_core::distribution::Distribution) -> Vec<TaskId> {
    let mut ids: Vec<TaskId> = d
        .rank_ids()
        .flat_map(|r| d.tasks_on(r).iter().map(|t| t.id).collect::<Vec<_>>())
        .collect();
    ids.sort();
    ids
}

#[test]
fn pic_drain_handoff_loses_nothing() {
    let mut sim = EmpireSim::new(BdotScenario::small(), CostModel::default(), 77);
    // Run past the injection ramp-up so color loads are genuinely
    // skewed (the center colors hold nearly all particles).
    for _ in 0..12 {
        sim.step();
    }
    let input = sim.distribution.clone();
    let census = task_ids(&input);
    let total_load = input.total_load();
    assert!(
        input.tasks_on(RankId::new(0)).iter().len() > 0,
        "rank 0 must own its home colors before the drain"
    );

    let draining: BTreeSet<RankId> = [RankId::new(0)].into();
    let mut lb = DrainingLb::new(
        TemperedLb::new(TemperedConfig::default()),
        CriterionKind::Relaxed,
        draining,
    );
    let result = lb.rebalance(&input, sim.factory(), 17);

    // The drained rank hands off *everything*…
    assert!(
        result.distribution.tasks_on(RankId::new(0)).is_empty(),
        "drained rank must end empty"
    );
    // …and nothing is lost or invented: same task set, same total load.
    assert_eq!(task_ids(&result.distribution), census);
    assert!(result.distribution.total_load().approx_eq(total_load));
    result.distribution.check_invariants().unwrap();

    // The migration list must actually transform input into proposal —
    // that replay is exactly what the distributed handoff executes.
    let mut replay = input.clone();
    replay.apply(&result.migrations).unwrap();
    assert_eq!(
        replay.canonical(),
        result.distribution.canonical(),
        "replayed assignment differs"
    );
}

#[test]
fn pic_sequential_drains_conserve_across_phases() {
    // Drain two ranks across successive phases while the workload keeps
    // evolving — the shape of a real scale-in: the surviving ranks keep
    // absorbing both the handoffs and the injection ramp.
    let mut sim = EmpireSim::new(BdotScenario::small(), CostModel::default(), 401);
    for _ in 0..6 {
        sim.step();
    }
    let num_ranks = sim.distribution.num_ranks();
    assert!(num_ranks >= 3, "need at least 3 ranks to drain 2");

    let mut drained: BTreeSet<RankId> = BTreeSet::new();
    for (epoch, victim) in [(1u64, num_ranks - 1), (2, num_ranks - 2)] {
        sim.step();
        drained.insert(RankId::from(victim));
        let input = sim.distribution.clone();
        let census = task_ids(&input);
        let mut lb = DrainingLb::new(
            TemperedLb::new(TemperedConfig::default()),
            CriterionKind::Relaxed,
            drained.clone(),
        );
        let result = lb.rebalance(&input, sim.factory(), epoch);
        for r in &drained {
            assert!(
                result.distribution.tasks_on(*r).is_empty(),
                "rank {r:?} must stay evacuated in every later phase"
            );
        }
        assert_eq!(task_ids(&result.distribution), census);
        assert!(result
            .distribution
            .total_load()
            .approx_eq(input.total_load()));
        // Commit the proposal back into the running app, as the driver
        // does between phases.
        sim.distribution = result.distribution;
    }
}
