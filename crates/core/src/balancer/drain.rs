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
//! The second half of the module is the dense *projection*: continuing
//! ranks re-numbered `0..m` in ascending original-id order, which is
//! exactly the self-stabilizing renumbering the elastic layer uses
//! (a node's rank = the number of live nodes with smaller ids). Any
//! balancer can then run unchanged over the projected distribution, and
//! [`unproject`] restores original rank ids for the commit.

use std::collections::BTreeSet;

use crate::criteria::CriterionKind;
use crate::distribution::{Distribution, Migration};
use crate::ids::RankId;
use crate::load::Load;
use crate::refine::net_migrations;
use crate::rng::RngFactory;

use super::{LoadBalancer, RebalanceResult};

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

/// Project `dist` onto its continuing ranks: a dense distribution over
/// `m = num_ranks − |draining|` ranks where dense rank `i` is
/// `continuing[i]` (continuing ids ascending — the self-stabilizing
/// renumbering), plus that mapping. Tasks still sitting on a draining
/// rank are **dropped** from the projection; run [`evacuate`] first if
/// they must survive.
pub fn project(dist: &Distribution, draining: &BTreeSet<RankId>) -> (Distribution, Vec<RankId>) {
    let continuing: Vec<RankId> = dist.rank_ids().filter(|r| !draining.contains(r)).collect();
    let mut dense = Distribution::new(continuing.len());
    for (i, &r) in continuing.iter().enumerate() {
        for &task in dist.tasks_on(r) {
            dense
                .insert(RankId::new(i as u32), task)
                .expect("projection inserts each task once");
        }
    }
    (dense, continuing)
}

/// Inverse of [`project`]: restore original rank ids. `continuing[i]`
/// receives dense rank `i`'s tasks; the other ranks of the
/// `num_ranks`-wide result end empty (the drained ranks, post-handoff).
pub fn unproject(dense: &Distribution, continuing: &[RankId], num_ranks: usize) -> Distribution {
    assert_eq!(dense.num_ranks(), continuing.len());
    let mut out = Distribution::new(num_ranks);
    for (i, &r) in continuing.iter().enumerate() {
        for &task in dense.tasks_on(RankId::new(i as u32)) {
            out.insert(r, task)
                .expect("unprojection inserts each task once");
        }
    }
    out
}

/// Wrap any balancer with drain handling: evacuate the draining ranks
/// (criterion at infinite sender load), run the inner balancer over the
/// dense projection of the continuing ranks, and restate the combined
/// outcome against the *original* distribution via [`net_migrations`] —
/// so callers see one ordinary [`RebalanceResult`] whose proposal leaves
/// every draining rank empty.
pub struct DrainingLb<B> {
    inner: B,
    criterion: CriterionKind,
    draining: BTreeSet<RankId>,
}

impl<B: LoadBalancer> DrainingLb<B> {
    /// Wrap `inner`; `criterion` prices the evacuation (use the same
    /// criterion the inner balancer transfers with).
    pub fn new(inner: B, criterion: CriterionKind, draining: BTreeSet<RankId>) -> Self {
        DrainingLb {
            inner,
            criterion,
            draining,
        }
    }

    /// The wrapped balancer.
    pub fn inner(&self) -> &B {
        &self.inner
    }
}

impl<B: LoadBalancer> LoadBalancer for DrainingLb<B> {
    fn name(&self) -> &'static str {
        "DrainingLB"
    }

    fn rebalance(
        &mut self,
        dist: &Distribution,
        factory: &RngFactory,
        epoch: u64,
    ) -> RebalanceResult {
        if self.draining.is_empty() {
            return self.inner.rebalance(dist, factory, epoch);
        }
        let mut evacuated = dist.clone();
        evacuated
            .apply(&evacuate(dist, &self.draining, self.criterion))
            .expect("evacuation migrations are consistent");
        let (dense, continuing) = project(&evacuated, &self.draining);
        let proposed = self.inner.rebalance(&dense, factory, epoch);
        let restored = unproject(&proposed.distribution, &continuing, dist.num_ranks());

        let migrations = net_migrations(dist, &restored);
        let mut distribution = dist.clone();
        distribution
            .apply(&migrations)
            .expect("net migrations against the input are consistent");
        RebalanceResult {
            initial_imbalance: dist.imbalance(),
            final_imbalance: distribution.imbalance(),
            messages_sent: proposed.messages_sent,
            migrations,
            distribution,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::balancer::test_support::skewed;
    use crate::balancer::{GrapevineLb, TemperedLb};
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
    fn projection_round_trips_after_evacuation() {
        let dist = skewed(8, 12);
        let draining = drain_set(&[0, 3]);
        let mut evacuated = dist.clone();
        evacuated
            .apply(&evacuate(&dist, &draining, CriterionKind::Relaxed))
            .unwrap();
        let (dense, continuing) = project(&evacuated, &draining);
        assert_eq!(dense.num_ranks(), 6);
        assert_eq!(dense.num_tasks(), dist.num_tasks());
        // The renumbering is the ascending-id order of the continuing
        // ranks: rank = number of continuing ranks with smaller id.
        assert_eq!(continuing, [1u32, 2, 4, 5, 6, 7].map(RankId::new).to_vec());
        let back = unproject(&dense, &continuing, dist.num_ranks());
        assert_eq!(back.canonical(), evacuated.canonical());
    }

    #[test]
    fn draining_lb_proposal_leaves_drained_ranks_empty() {
        let dist = skewed(8, 12);
        let draining = drain_set(&[0]);
        let mut lb = DrainingLb::new(TemperedLb::default(), CriterionKind::Relaxed, draining);
        let result = lb.rebalance(&dist, &RngFactory::new(2021), 0);
        result.distribution.check_invariants().unwrap();
        assert_eq!(result.distribution.num_tasks(), dist.num_tasks());
        assert!(result.distribution.tasks_on(RankId::new(0)).is_empty());
        assert!(result
            .distribution
            .total_load()
            .approx_eq(dist.total_load()));
        // Migrations replay to the proposal.
        let mut replay = dist.clone();
        replay.apply(&result.migrations).unwrap();
        assert_eq!(replay.canonical(), result.distribution.canonical());
        // Every task is accounted for.
        for r in dist.rank_ids() {
            for t in dist.tasks_on(r) {
                assert!(result.distribution.location_of(t.id).is_some());
            }
        }
    }

    #[test]
    fn draining_lb_with_empty_set_is_the_inner_balancer() {
        let dist = skewed(8, 12);
        let factory = RngFactory::new(7);
        let mut plain = GrapevineLb::default();
        let mut wrapped = DrainingLb::new(
            GrapevineLb::default(),
            CriterionKind::Original,
            BTreeSet::new(),
        );
        let a = plain.rebalance(&dist, &factory, 3);
        let b = wrapped.rebalance(&dist, &factory, 3);
        assert_eq!(a.distribution.canonical(), b.distribution.canonical());
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
