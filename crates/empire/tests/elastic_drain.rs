//! End-to-end drain over the PIC workload: step the EMPIRE surrogate
//! until the injection ramp has concentrated real particle load, then
//! drain ranks out from under the color assignment with [`evacuate`] —
//! the call the elastic step runner makes — and check the handoff loses
//! nothing.
//!
//! The balancer test-support postconditions (`final ≤ initial
//! imbalance`) deliberately do NOT apply here: evacuating a rank can
//! *raise* imbalance (the continuing ranks absorb its work), so the
//! drain contract is conservation + an empty drained rank + a
//! replayable migration list — asserted directly.

use empire_pic::{BdotScenario, CostModel, EmpireSim};
use std::collections::BTreeSet;
use tempered_core::balancer::evacuate;
use tempered_core::criteria::CriterionKind;
use tempered_core::distribution::Distribution;
use tempered_core::ids::{RankId, TaskId};

/// Sorted task-id census of a distribution, for exact set comparison.
fn task_ids(d: &Distribution) -> Vec<TaskId> {
    let mut ids: Vec<TaskId> = d
        .rank_ids()
        .flat_map(|r| d.tasks_on(r).iter().map(|t| t.id).collect::<Vec<_>>())
        .collect();
    ids.sort();
    ids
}

/// Evacuate `draining` from `input` and replay the migrations onto a
/// copy of it, checking every move on the way: it leaves a draining rank
/// for a continuing one and carries the task's measured load. `apply`
/// rejects a move whose source is stale, so a successful replay is the
/// handoff the distributed layer executes.
fn drain(input: &Distribution, draining: &BTreeSet<RankId>) -> Distribution {
    let moves = evacuate(input, draining, CriterionKind::Relaxed);
    for m in &moves {
        assert!(draining.contains(&m.from), "only draining ranks send");
        assert!(!draining.contains(&m.to), "never onto a draining rank");
        assert_eq!(input.load_of(m.task), Some(m.load));
    }
    let mut replay = input.clone();
    replay
        .apply(&moves)
        .expect("migrations replay onto the input");
    replay.check_invariants().unwrap();
    replay
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
    // Drain the rank the particles have piled onto.
    let hot = input
        .rank_ids()
        .find(|&r| input.rank_load(r) == input.max_load())
        .unwrap();
    assert!(input.rank_load(hot).get() > 0.0, "the PIC load is real");

    let after = drain(&input, &[hot].into());

    // The drained rank hands off *everything*…
    assert!(
        after.tasks_on(hot).is_empty(),
        "drained rank must end empty"
    );
    // …and nothing is lost or invented: same task set, same total load.
    assert_eq!(task_ids(&after), task_ids(&input));
    assert!(after.total_load().approx_eq(input.total_load()));
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
    for victim in [num_ranks - 1, num_ranks - 2] {
        sim.step();
        drained.insert(RankId::from(victim));
        let input = sim.distribution.clone();
        let after = drain(&input, &drained);
        for r in &drained {
            assert!(
                after.tasks_on(*r).is_empty(),
                "rank {r:?} must stay evacuated in every later phase"
            );
        }
        assert_eq!(task_ids(&after), task_ids(&input));
        assert!(after.total_load().approx_eq(input.total_load()));
        // Commit the handoff back into the running app, as the driver
        // does between phases.
        sim.distribution = after;
    }
}
