//! Balancer-side support for *planned* rank drains.
//!
//! A draining rank is one that is leaving the cluster on purpose (scale
//! in, maintenance): the elastic membership layer marks it `Draining`
//! and every balancer must move its work to the continuing ranks before
//! it parks. The mechanism is the transfer criterion itself, fed a
//! sender load of `+∞`: under the relaxed (TemperedLB) criterion a
//! recipient accepts any task from an infinitely-loaded sender, and the
//! original (GrapevineLB) criterion — which ignores the sender's load by
//! design — falls back to the least-loaded continuing rank so the drain
//! always completes. Everything here is a pure function of its inputs:
//! evacuation order, recipients, and tie-breaks are deterministic so the
//! same drain replays bit-for-bit on every driver.
//!
//! The elastic step runner (`runtime::elastic`) calls [`evacuate`] on the
//! dense distribution of its current roster and moves the committed
//! tasks itself; the balancer then runs over the next step's roster,
//! which no longer holds the parked rank.

use std::collections::BTreeSet;

use crate::criteria::CriterionKind;
use crate::distribution::{Distribution, Migration};
use crate::ids::RankId;
use crate::load::Load;

/// Deterministic evacuation of every draining rank: each of its tasks is
/// handed to a continuing rank chosen by the transfer criterion with the
/// sender's load taken as `+∞` (the infinite-load interpretation of the
/// `Draining` state). Among criterion-passing recipients the least
/// loaded wins, ties to the lowest rank id; if the criterion passes
/// nobody (the original criterion once every recipient sits at or above
/// average), the globally least-loaded continuing rank takes the task so
/// the drain always completes.
///
/// Tasks leave in descending-load order (ties to the lowest task id),
/// draining ranks in ascending id order. Recipient loads are updated as
/// tasks land, so one evacuation spreads instead of dogpiling a single
/// rank.
///
/// # Panics
///
/// Panics if every rank is draining — an empty cluster cannot inherit
/// the work (callers validate this upstream
/// via `FaultPlan::validate_churn`).
pub fn evacuate(
    dist: &Distribution,
    draining: &BTreeSet<RankId>,
    criterion: CriterionKind,
) -> Vec<Migration> {
    let continuing: Vec<RankId> = dist.rank_ids().filter(|r| !draining.contains(r)).collect();
    assert!(
        !continuing.is_empty(),
        "cannot evacuate: every rank is draining"
    );
    let mut loads: Vec<(RankId, f64)> = continuing
        .iter()
        .map(|&r| (r, dist.rank_load(r).get()))
        .collect();
    let l_ave = Load::new(dist.total_load().get() / continuing.len() as f64);

    let mut out = Vec::new();
    for &from in draining {
        if from.as_u32() as usize >= dist.num_ranks() {
            continue;
        }
        let mut tasks: Vec<_> = dist.tasks_on(from).to_vec();
        tasks.sort_unstable_by(|a, b| {
            b.load
                .get()
                .total_cmp(&a.load.get())
                .then(a.id.as_u64().cmp(&b.id.as_u64()))
        });
        for task in tasks {
            let accepted = loads
                .iter()
                .enumerate()
                .filter(|(_, &(_, l))| {
                    // Load(∞) directly: the constructor's finiteness
                    // debug-assert guards *modeled* loads, and ∞ here is
                    // the sentinel "this sender must shed everything".
                    criterion.evaluate(Load::new(l), task.load, l_ave, Load(f64::INFINITY))
                })
                .min_by(|(_, a), (_, b)| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
            let (slot, _) = match accepted {
                Some(hit) => hit,
                // Criterion passes nobody: least-loaded fallback keeps
                // the drain unconditional.
                None => loads
                    .iter()
                    .enumerate()
                    .min_by(|(_, a), (_, b)| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)))
                    .expect("at least one continuing rank"),
            };
            let to = loads[slot].0;
            loads[slot].1 += task.load.get();
            out.push(Migration {
                task: task.id,
                from,
                to,
                load: task.load,
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::balancer::test_support::skewed;
    use crate::ids::TaskId;

    fn drain_set(ranks: &[u32]) -> BTreeSet<RankId> {
        ranks.iter().map(|&r| RankId::new(r)).collect()
    }

    #[test]
    fn evacuation_empties_draining_ranks_and_conserves_tasks() {
        let dist = skewed(8, 12);
        for criterion in [CriterionKind::Relaxed, CriterionKind::Original] {
            let draining = drain_set(&[0, 5]);
            let moves = evacuate(&dist, &draining, criterion);
            let mut after = dist.clone();
            after.apply(&moves).unwrap();
            after.check_invariants().unwrap();
            assert_eq!(after.num_tasks(), dist.num_tasks());
            for r in &draining {
                assert!(after.tasks_on(*r).is_empty(), "{criterion}: {r} not empty");
            }
            for m in &moves {
                assert!(draining.contains(&m.from), "only draining ranks send");
                assert!(!draining.contains(&m.to), "never onto a draining rank");
            }
        }
    }

    #[test]
    fn evacuation_is_deterministic() {
        let dist = skewed(16, 24);
        let draining = drain_set(&[1, 2]);
        let a = evacuate(&dist, &draining, CriterionKind::Relaxed);
        let b = evacuate(&dist, &draining, CriterionKind::Relaxed);
        assert_eq!(a, b);
    }

    #[test]
    fn original_criterion_falls_back_to_least_loaded() {
        // Everyone already at the average: the original criterion
        // rejects every recipient, the fallback still drains.
        let dist = Distribution::from_loads(vec![vec![1.0, 1.0], vec![1.0, 1.0], vec![1.0, 1.0]]);
        let draining = drain_set(&[0]);
        let moves = evacuate(&dist, &draining, CriterionKind::Original);
        assert_eq!(moves.len(), 2);
        let mut after = dist.clone();
        after.apply(&moves).unwrap();
        assert!(after.tasks_on(RankId::new(0)).is_empty());
        // Spread, not dogpiled: one task to each continuing rank.
        assert_eq!(after.tasks_on(RankId::new(1)).len(), 3);
        assert_eq!(after.tasks_on(RankId::new(2)).len(), 3);
    }

    #[test]
    #[should_panic(expected = "every rank is draining")]
    fn draining_everyone_panics() {
        let dist = skewed(2, 4);
        evacuate(&dist, &drain_set(&[0, 1]), CriterionKind::Relaxed);
    }

    #[test]
    fn relaxed_evacuation_prefers_underloaded_recipients() {
        let mut dist = Distribution::new(3);
        dist.insert(RankId::new(0), crate::task::Task::new(0u64, 4.0))
            .unwrap();
        dist.insert(RankId::new(1), crate::task::Task::new(1u64, 6.0))
            .unwrap();
        // Rank 2 is empty; draining rank 0 must hand its task there.
        let moves = evacuate(&dist, &drain_set(&[0]), CriterionKind::Relaxed);
        assert_eq!(moves.len(), 1);
        assert_eq!(moves[0].task, TaskId::new(0));
        assert_eq!(moves[0].to, RankId::new(2));
    }
}
