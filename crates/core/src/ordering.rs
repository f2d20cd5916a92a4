//! Candidate-task traversal orders for the transfer stage (§V-E).
//!
//! `ORDERTASKS` (Algorithm 2 line 3) decides the order in which an
//! overloaded rank offers its tasks for migration. The paper studies four
//! orders:
//!
//! * **Arbitrary** — the original behaviour: identifying index / hash
//!   iteration order. We use task-id order for determinism.
//! * **LoadDescending** (Algorithm 4) — heaviest first; minimizes transfer
//!   *count* when accepted but suffers worst-case acceptance rates. The
//!   paper's straw-man.
//! * **FewestMigrations** (Algorithm 5) — the smallest task that can
//!   single-handedly resolve the rank's excess first, then lighter tasks
//!   by descending load, then heavier tasks by ascending load. Best
//!   overall performer in the paper (used for the headline results).
//! * **LightestFirst** (Algorithm 6) — the *marginal* task (the heaviest
//!   of the lightest set whose cumulative load covers the excess) first,
//!   then lighter descending, then heavier ascending.
//!
//! All sorts tie-break on task id so orders are total and deterministic.

use crate::load::Load;
use crate::task::Task;
use std::cmp::Ordering;

/// Which traversal order `ORDERTASKS` produces.
///
/// ```
/// use tempered_core::prelude::*;
///
/// let tasks: Vec<Task> = [1.0, 2.0, 5.0, 7.0, 9.0]
///     .iter()
///     .enumerate()
///     .map(|(i, &l)| Task::new(i as u64, l))
///     .collect();
/// // Excess = 24 − 4·? … with ℓ_ave = 18, the excess is 6: the smallest
/// // task that alone covers it (7) leads the Fewest Migrations order.
/// let order = OrderingKind::FewestMigrations.order_tasks(
///     &tasks,
///     Load::new(18.0),
///     Load::new(24.0),
/// );
/// assert_eq!(order[0].load, Load::new(7.0));
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum OrderingKind {
    /// Original: task-id order (stand-in for hash-iteration order, but
    /// deterministic).
    Arbitrary,
    /// Algorithm 4: most load-intensive tasks first (straw-man).
    LoadDescending,
    /// Algorithm 5: minimize the number of migrations.
    #[default]
    FewestMigrations,
    /// Algorithm 6: most lightweight tasks first, led by the marginal task.
    LightestFirst,
}

impl std::fmt::Display for OrderingKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OrderingKind::Arbitrary => write!(f, "arbitrary"),
            OrderingKind::LoadDescending => write!(f, "load-descending"),
            OrderingKind::FewestMigrations => write!(f, "fewest-migrations"),
            OrderingKind::LightestFirst => write!(f, "lightest-first"),
        }
    }
}

impl OrderingKind {
    /// All ordering variants, in the order Fig. 4d presents them.
    pub const ALL: [OrderingKind; 4] = [
        OrderingKind::Arbitrary,
        OrderingKind::LoadDescending,
        OrderingKind::FewestMigrations,
        OrderingKind::LightestFirst,
    ];

    /// Produce the traversal order `O^p` over this rank's tasks.
    ///
    /// `l_ave` and `l_p` are the global average and this rank's current
    /// load; Algorithms 5 and 6 use them to compute the excess
    /// `ℓ_ex = ℓ^p − ℓ_ave`.
    pub fn order_tasks(self, tasks: &[Task], l_ave: Load, l_p: Load) -> Vec<Task> {
        let mut out = tasks.to_vec();
        match self {
            OrderingKind::Arbitrary => {
                out.sort_by(cmp_by_id);
            }
            OrderingKind::LoadDescending => {
                out.sort_by(cmp_desc);
            }
            OrderingKind::FewestMigrations => {
                order_fewest_migrations(&mut out, l_ave, l_p);
            }
            OrderingKind::LightestFirst => {
                order_lightest_first(&mut out, l_ave, l_p);
            }
        }
        out
    }
}

#[inline]
fn cmp_by_id(a: &Task, b: &Task) -> Ordering {
    a.id.cmp(&b.id)
}

/// Descending load, ties by ascending id.
#[inline]
fn cmp_desc(a: &Task, b: &Task) -> Ordering {
    b.load.total_cmp(&a.load).then_with(|| a.id.cmp(&b.id))
}

/// Ascending load, ties by ascending id.
#[inline]
fn cmp_asc(a: &Task, b: &Task) -> Ordering {
    a.load.total_cmp(&b.load).then_with(|| a.id.cmp(&b.id))
}

/// Two-segment order shared by Algorithms 5 and 6: tasks with
/// `load ≤ cutoff` by *descending* load (so the cutoff-sized task leads),
/// followed by tasks with `load > cutoff` by *ascending* load.
///
/// The paper expresses this as a single comparator (Alg. 5 lines 7–11);
/// that comparator is not a strict weak ordering for mixed pairs, so we
/// implement the equivalent partition-then-sort, which is also `O(n log n)`
/// with better constants.
fn two_segment_order(tasks: &mut Vec<Task>, cutoff: Load) {
    let mut light: Vec<Task> = Vec::with_capacity(tasks.len());
    let mut heavy: Vec<Task> = Vec::new();
    for t in tasks.drain(..) {
        if t.load <= cutoff {
            light.push(t);
        } else {
            heavy.push(t);
        }
    }
    light.sort_by(cmp_desc);
    heavy.sort_by(cmp_asc);
    tasks.extend(light);
    tasks.extend(heavy);
}

/// Algorithm 5, `ORDERTASKS_FEWESTMIGRATIONS`.
fn order_fewest_migrations(tasks: &mut Vec<Task>, l_ave: Load, l_p: Load) {
    if tasks.is_empty() {
        return;
    }
    let l_ex = l_p.get() - l_ave.get();
    let max_load = tasks
        .iter()
        .map(|t| t.load)
        .fold(Load::ZERO, |a, b| a.max(b));
    // Line 3: no single task can resolve the excess → fall back to
    // descending order.
    if max_load.get() < l_ex {
        tasks.sort_by(cmp_desc);
        return;
    }
    // Line 6: cutoff is the smallest task that alone covers the excess.
    // The paper writes the filter as a strict `>`, but pairs it with the
    // strict `<` fallback on line 3 — leaving `max_load == ℓ_ex` with no
    // qualifying task. A task whose load *equals* the excess resolves the
    // overload exactly, so the inclusive filter is the intended total
    // case split.
    let l_cut = tasks
        .iter()
        .map(|t| t.load)
        .filter(|l| l.get() >= l_ex)
        .min_by(|a, b| a.total_cmp(b))
        .expect("max_load >= l_ex guarantees a qualifying task");
    two_segment_order(tasks, l_cut);
}

/// Algorithm 6, `ORDERTASKS_LIGHTEST`.
fn order_lightest_first(tasks: &mut Vec<Task>, l_ave: Load, l_p: Load) {
    if tasks.is_empty() {
        return;
    }
    let l_ex = l_p.get() - l_ave.get();
    // Line 5: sort ascending.
    tasks.sort_by(cmp_asc);
    // Line 6: the marginal task is where the ascending prefix sum first
    // covers the excess.
    let mut acc = 0.0f64;
    let mut l_marg = tasks.last().expect("non-empty").load;
    for t in tasks.iter() {
        acc += t.load.get();
        if acc >= l_ex {
            l_marg = t.load;
            break;
        }
    }
    two_segment_order(tasks, l_marg);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::TaskId;

    fn tasks(loads: &[f64]) -> Vec<Task> {
        loads
            .iter()
            .enumerate()
            .map(|(i, &l)| Task::new(i as u64, l))
            .collect()
    }

    fn loads_of(ts: &[Task]) -> Vec<f64> {
        ts.iter().map(|t| t.load.get()).collect()
    }

    #[test]
    fn arbitrary_is_id_order() {
        let mut ts = tasks(&[3.0, 1.0, 2.0]);
        ts.reverse();
        let o = OrderingKind::Arbitrary.order_tasks(&ts, Load::new(1.0), Load::new(6.0));
        let ids: Vec<u64> = o.iter().map(|t| t.id.as_u64()).collect();
        assert_eq!(ids, vec![0, 1, 2]);
    }

    #[test]
    fn descending_orders_by_load() {
        let ts = tasks(&[1.0, 3.0, 2.0]);
        let o = OrderingKind::LoadDescending.order_tasks(&ts, Load::new(1.0), Load::new(6.0));
        assert_eq!(loads_of(&o), vec![3.0, 2.0, 1.0]);
    }

    #[test]
    fn descending_breaks_ties_by_id() {
        let ts = tasks(&[2.0, 2.0, 2.0]);
        let o = OrderingKind::LoadDescending.order_tasks(&ts, Load::new(1.0), Load::new(6.0));
        let ids: Vec<u64> = o.iter().map(|t| t.id.as_u64()).collect();
        assert_eq!(ids, vec![0, 1, 2]);
    }

    #[test]
    fn fewest_migrations_leads_with_smallest_resolving_task() {
        // l_p = 10, l_ave = 4 → excess = 6. Tasks: [1, 2, 5, 7, 9].
        // Tasks exceeding 6: {7, 9} → cutoff 7. Order: ≤7 descending
        // [7, 5, 2, 1] then >7 ascending [9].
        let ts = tasks(&[1.0, 2.0, 5.0, 7.0, 9.0]);
        let o = OrderingKind::FewestMigrations.order_tasks(&ts, Load::new(4.0), Load::new(10.0));
        assert_eq!(loads_of(&o), vec![7.0, 5.0, 2.0, 1.0, 9.0]);
    }

    #[test]
    fn fewest_migrations_falls_back_to_descending() {
        // excess = 20, no task exceeds it → descending.
        let ts = tasks(&[1.0, 2.0, 5.0]);
        let o = OrderingKind::FewestMigrations.order_tasks(&ts, Load::new(1.0), Load::new(21.0));
        assert_eq!(loads_of(&o), vec![5.0, 2.0, 1.0]);
    }

    #[test]
    fn fewest_migrations_underloaded_rank_leads_with_min() {
        // l_ex <= 0: every task qualifies, cutoff = min load → order is
        // [min, then ascending rest] by the two-segment rule.
        let ts = tasks(&[3.0, 1.0, 2.0]);
        let o = OrderingKind::FewestMigrations.order_tasks(&ts, Load::new(10.0), Load::new(6.0));
        assert_eq!(loads_of(&o), vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn lightest_first_leads_with_marginal_task() {
        // l_p = 10, l_ave = 4 → excess = 6. Ascending: [1, 2, 5, 7, 9];
        // prefix sums 1, 3, 8 → marginal task load 5.
        // Order: ≤5 descending [5, 2, 1], >5 ascending [7, 9].
        let ts = tasks(&[1.0, 2.0, 5.0, 7.0, 9.0]);
        let o = OrderingKind::LightestFirst.order_tasks(&ts, Load::new(4.0), Load::new(10.0));
        assert_eq!(loads_of(&o), vec![5.0, 2.0, 1.0, 7.0, 9.0]);
    }

    #[test]
    fn lightest_first_excess_exceeds_total() {
        // excess bigger than total load → marginal is the heaviest task;
        // order degenerates to full descending.
        let ts = tasks(&[1.0, 2.0, 5.0]);
        let o = OrderingKind::LightestFirst.order_tasks(&ts, Load::new(1.0), Load::new(100.0));
        assert_eq!(loads_of(&o), vec![5.0, 2.0, 1.0]);
    }

    #[test]
    fn fewest_migrations_boundary_max_equals_excess() {
        // l_p = 21, l_ave = 20 → excess = 1.0 with unit tasks: the
        // heaviest task equals the excess exactly. The strict-filter
        // reading of Algorithm 5 has no qualifying task here; the
        // inclusive reading leads with a unit task.
        let ts = tasks(&[1.0; 21]);
        let o = OrderingKind::FewestMigrations.order_tasks(&ts, Load::new(20.0), Load::new(21.0));
        assert_eq!(o.len(), 21);
        assert_eq!(o[0].load.get(), 1.0);
    }

    #[test]
    fn empty_task_list_is_fine() {
        for kind in OrderingKind::ALL {
            assert!(kind
                .order_tasks(&[], Load::new(1.0), Load::new(2.0))
                .is_empty());
        }
    }

    #[test]
    fn orders_are_permutations() {
        let ts = tasks(&[0.5, 4.0, 2.0, 2.0, 1.0, 8.0, 0.25]);
        for kind in OrderingKind::ALL {
            let o = kind.order_tasks(&ts, Load::new(2.0), Load::new(17.75));
            assert_eq!(o.len(), ts.len(), "{kind} dropped tasks");
            let mut ids: Vec<TaskId> = o.iter().map(|t| t.id).collect();
            ids.sort();
            ids.dedup();
            assert_eq!(ids.len(), ts.len(), "{kind} duplicated tasks");
        }
    }
}
