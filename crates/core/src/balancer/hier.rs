//! HierLB: hierarchical tree-based balancing ("AMT w/HierLB").
//!
//! Models the hierarchical persistence-based strategy of Lifflander et
//! al. (HPDC'12, the paper's reference [22]): ranks are organized into an
//! `ARITY`-way tree; leaves balance locally, and each interior level
//! trades tasks between its child groups to pull every group toward the
//! global average. The paper's empirical setup invokes it with different
//! task-selection preferences on different timesteps (heaviest-first on
//! the second step, lightest-first afterwards), which is exposed through
//! [`HierLb::prefer_heavy`].
//!
//! Cost structure (the point of the Fig. 2 comparison): the reduction tree
//! gives `Ω(log P)` critical path and message counts linear in `P`, more
//! scalable than centralized gathers but still a synchronized structure —
//! in contrast to the gossip balancers, which involve only the ranks that
//! actually trade work.

use super::{LoadBalancer, RebalanceResult};
use crate::distribution::Distribution;
use crate::ids::RankId;
use crate::load::Load;
use crate::refine::net_migrations;
use crate::rng::RngFactory;
use crate::task::Task;

/// Tree branching factor (children per interior node).
const ARITY: usize = 8;

/// Leaf group size: ranks per leaf-level greedy domain.
const GROUP_SIZE: usize = 8;

/// Hierarchical tree-based balancer.
#[derive(Clone, Copy, Debug, Default)]
pub struct HierLb {
    /// Select the most load-intensive tasks for inter-group migration
    /// first (`true`), or the most lightweight (`false`, the default).
    pub prefer_heavy: bool,
}

impl LoadBalancer for HierLb {
    fn name(&self) -> &'static str {
        "HierLB"
    }

    fn rebalance(
        &mut self,
        dist: &Distribution,
        _factory: &RngFactory,
        _epoch: u64,
    ) -> RebalanceResult {
        let initial_imbalance = dist.imbalance();
        let l_ave = dist.average_load();
        let num_ranks = dist.num_ranks();

        // Mutable working copy of per-rank task lists.
        let mut tasks: Vec<Vec<Task>> =
            dist.rank_ids().map(|r| dist.tasks_on(r).to_vec()).collect();

        let all_ranks: Vec<usize> = (0..num_ranks).collect();
        let mut messages = 0u64;
        balance_subtree(
            &all_ranks,
            &mut tasks,
            l_ave,
            self.prefer_heavy,
            &mut messages,
        );

        let mut proposal = Distribution::new(num_ranks);
        for (r, ts) in tasks.into_iter().enumerate() {
            for t in ts {
                proposal
                    .insert(RankId::from(r), t)
                    .expect("task ids remain unique");
            }
        }

        let migrations = net_migrations(dist, &proposal);
        let final_imbalance = proposal.imbalance();
        // Keep the better of proposal/input: the heuristic is not
        // guaranteed monotone on already-balanced inputs.
        if final_imbalance > initial_imbalance {
            return RebalanceResult {
                distribution: dist.clone(),
                migrations: Vec::new(),
                initial_imbalance,
                final_imbalance: initial_imbalance,
                messages_sent: messages,
            };
        }
        RebalanceResult {
            distribution: proposal,
            migrations,
            initial_imbalance,
            final_imbalance,
            messages_sent: messages,
        }
    }
}

/// Recursively balance the subtree covering `ranks`.
fn balance_subtree(
    ranks: &[usize],
    tasks: &mut [Vec<Task>],
    l_ave: Load,
    prefer_heavy: bool,
    messages: &mut u64,
) {
    if ranks.len() <= GROUP_SIZE {
        balance_leaf_group(ranks, tasks, messages);
        return;
    }

    // Split into up to `ARITY` contiguous child groups and recurse.
    let chunk = ranks.len().div_ceil(ARITY);
    let groups: Vec<&[usize]> = ranks.chunks(chunk).collect();
    for g in &groups {
        balance_subtree(g, tasks, l_ave, prefer_heavy, messages);
    }

    // Each child reports its total load to this node (one message per
    // child), and receives instructions back.
    *messages += 2 * groups.len() as u64;

    // Pull overloaded groups down to their target by extracting tasks
    // into a pool, then fill underloaded groups from the pool.
    let group_load = |g: &[usize], tasks: &[Vec<Task>]| -> Load {
        g.iter()
            .map(|&r| tasks[r].iter().map(|t| t.load).sum::<Load>())
            .sum()
    };

    let mut pool: Vec<Task> = Vec::new();
    for g in &groups {
        let target = l_ave * g.len() as f64;
        let mut current = group_load(g, tasks);
        if current <= target {
            continue;
        }
        // Candidate tasks from the group's most loaded ranks, ordered by
        // the configured preference.
        let mut candidates: Vec<(usize, Task)> = g
            .iter()
            .flat_map(|&r| tasks[r].iter().map(move |&t| (r, t)))
            .collect();
        if prefer_heavy {
            candidates.sort_by(|a, b| b.1.load.total_cmp(&a.1.load).then(a.1.id.cmp(&b.1.id)));
        } else {
            candidates.sort_by(|a, b| a.1.load.total_cmp(&b.1.load).then(a.1.id.cmp(&b.1.id)));
        }
        for (r, t) in candidates {
            let excess = current.get() - target.get();
            if excess <= 0.0 {
                break;
            }
            // Zero-load tasks cannot reduce the overload; migrating them
            // only churns data (EMPIRE has thousands of idle colors).
            if t.load.get() <= 0.0 {
                continue;
            }
            // Don't overshoot: moving the task must shrink the group's
            // distance to its target.
            if t.load.get() > 2.0 * excess {
                if prefer_heavy {
                    // Descending order: later candidates are smaller.
                    continue;
                }
                // Ascending order: every later candidate is bigger.
                break;
            }
            let idx = tasks[r]
                .iter()
                .position(|x| x.id == t.id)
                .expect("candidate listed from this rank");
            tasks[r].swap_remove(idx);
            current -= t.load;
            pool.push(t);
            *messages += 1;
        }
    }

    // Distribute pooled tasks: heaviest first, each to the group with the
    // largest deficit, placed on that group's least-loaded rank.
    pool.sort_by(|a, b| b.load.total_cmp(&a.load).then(a.id.cmp(&b.id)));
    for t in pool {
        let (gi, _) = groups
            .iter()
            .enumerate()
            .map(|(i, g)| {
                let deficit = l_ave.get() * g.len() as f64 - group_load(g, tasks).get();
                (i, deficit)
            })
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .expect("at least one group");
        let &dest = groups[gi]
            .iter()
            .min_by(|&&a, &&b| {
                let la: Load = tasks[a].iter().map(|t| t.load).sum();
                let lb: Load = tasks[b].iter().map(|t| t.load).sum();
                la.total_cmp(&lb)
                    .then(tasks[a].len().cmp(&tasks[b].len()))
                    .then(a.cmp(&b))
            })
            .expect("groups are non-empty");
        tasks[dest].push(t);
        *messages += 1;
    }
}

/// Leaf level: LPT over the group's combined tasks.
fn balance_leaf_group(ranks: &[usize], tasks: &mut [Vec<Task>], messages: &mut u64) {
    if ranks.len() <= 1 {
        return;
    }
    let mut all: Vec<Task> = Vec::new();
    for &r in ranks {
        all.append(&mut tasks[r]);
    }
    *messages += ranks.len() as u64; // contributions to the group leader
    all.sort_by(|a, b| b.load.total_cmp(&a.load).then(a.id.cmp(&b.id)));
    // (load, task count, rank): the count breaks zero-load ties so idle
    // tasks spread instead of stacking on the first rank (see GreedyLb).
    let mut loads: Vec<(Load, usize, usize)> = ranks.iter().map(|&r| (Load::ZERO, 0, r)).collect();
    for t in all {
        // Least-loaded rank in the group; linear scan is fine at leaf
        // group sizes (≤ GROUP_SIZE).
        let min = loads
            .iter_mut()
            .min_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)).then(a.2.cmp(&b.2)))
            .expect("non-empty group");
        tasks[min.2].push(t);
        min.0 += t.load;
        min.1 += 1;
        *messages += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::balancer::test_support::{check_postconditions, skewed};

    #[test]
    fn hier_reduces_skewed_imbalance() {
        let dist = skewed(64, 48);
        let mut lb = HierLb::default();
        let r = lb.rebalance(&dist, &RngFactory::new(1), 0);
        check_postconditions(&dist, &r);
        assert!(
            r.final_imbalance < 0.5,
            "hierarchical should get close to balanced, got {}",
            r.final_imbalance
        );
    }

    #[test]
    fn hier_single_group_degenerates_to_greedy() {
        let dist = skewed(8, 32);
        let mut lb = HierLb::default();
        let r = lb.rebalance(&dist, &RngFactory::new(1), 0);
        check_postconditions(&dist, &r);
        assert!(r.final_imbalance < 0.2, "got {}", r.final_imbalance);
    }

    #[test]
    fn hier_is_deterministic_and_rng_free() {
        let dist = skewed(32, 20);
        let mut lb = HierLb::default();
        let a = lb.rebalance(&dist, &RngFactory::new(1), 0);
        let b = lb.rebalance(&dist, &RngFactory::new(2), 9);
        assert_eq!(a.migrations, b.migrations);
    }

    #[test]
    fn hier_never_worsens_balanced_input() {
        let dist = Distribution::from_loads((0..16).map(|_| vec![1.0, 1.0]).collect::<Vec<_>>());
        let mut lb = HierLb::default();
        let r = lb.rebalance(&dist, &RngFactory::new(1), 0);
        assert!(r.final_imbalance <= 1e-9);
        check_postconditions(&dist, &r);
    }

    #[test]
    fn prefer_heavy_changes_selection() {
        let dist = skewed(64, 48);
        let mut heavy = HierLb { prefer_heavy: true };
        let mut light = HierLb::default();
        let a = heavy.rebalance(&dist, &RngFactory::new(1), 0);
        let b = light.rebalance(&dist, &RngFactory::new(1), 0);
        check_postconditions(&dist, &a);
        check_postconditions(&dist, &b);
        // Heavy-preferring migration should move fewer, bigger tasks.
        if !a.migrations.is_empty() && !b.migrations.is_empty() {
            let mean = |r: &RebalanceResult| {
                r.migrations.iter().map(|m| m.load.get()).sum::<f64>() / r.migrations.len() as f64
            };
            let (mean_a, mean_b) = (mean(&a), mean(&b));
            assert!(
                mean_a >= mean_b,
                "heavy preference should raise mean migrated task load ({mean_a} < {mean_b})"
            );
        }
    }

    #[test]
    fn hier_empty_system() {
        let dist = Distribution::new(16);
        let mut lb = HierLb::default();
        let r = lb.rebalance(&dist, &RngFactory::new(1), 0);
        assert!(r.migrations.is_empty());
    }
}
