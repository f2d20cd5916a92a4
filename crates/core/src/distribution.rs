//! The global task-to-rank assignment.
//!
//! [`Distribution`] is the ground-truth state the balancers operate on in
//! *analysis* (LBAF) mode: a dense map from rank to its resident tasks,
//! with per-rank load totals cached incrementally so that the hot inner
//! loops of the transfer stage never rescan task vectors.
//!
//! The distributed implementation in `tempered-runtime` never holds a
//! `Distribution` — each rank only knows its own tasks — but its per-rank
//! state mirrors one slice of this structure, and integration tests check
//! that both paths produce identical assignments under identical seeds.

use crate::ids::{RankId, TaskId};
use crate::imbalance::LoadStatistics;
use crate::load::Load;
use crate::task::Task;
use std::collections::HashMap;

/// A single proposed or executed task movement.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Migration {
    /// The task being moved.
    pub task: TaskId,
    /// Rank the task departs from.
    pub from: RankId,
    /// Rank the task arrives at.
    pub to: RankId,
    /// The task's instrumented load (carried for accounting).
    pub load: Load,
}

/// Errors arising from malformed operations on a [`Distribution`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DistributionError {
    /// Referenced rank is outside `0..num_ranks`.
    RankOutOfBounds(RankId),
    /// Referenced task does not exist in the distribution.
    UnknownTask(TaskId),
    /// Attempted to insert a task id that already exists.
    DuplicateTask(TaskId),
    /// A migration's `from` rank did not match the task's actual location.
    StaleSource {
        /// The task whose migration was attempted.
        task: TaskId,
        /// Where the migration claimed the task was.
        claimed: RankId,
        /// Where the task actually is.
        actual: RankId,
    },
}

impl std::fmt::Display for DistributionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DistributionError::RankOutOfBounds(r) => write!(f, "rank {r} out of bounds"),
            DistributionError::UnknownTask(t) => write!(f, "unknown task {t}"),
            DistributionError::DuplicateTask(t) => write!(f, "duplicate task {t}"),
            DistributionError::StaleSource {
                task,
                claimed,
                actual,
            } => write!(
                f,
                "migration of task {task} claims source rank {claimed} but task is on {actual}"
            ),
        }
    }
}

impl std::error::Error for DistributionError {}

/// Dense task-to-rank assignment with incrementally maintained load totals.
///
/// ```
/// use tempered_core::prelude::*;
///
/// let mut dist = Distribution::from_loads(vec![vec![2.0, 1.0], vec![]]);
/// assert_eq!(dist.imbalance(), 1.0); // 3.0 max vs 1.5 average
/// dist.migrate(TaskId::new(0), RankId::new(1)).unwrap();
/// assert!(dist.imbalance() < 0.4);
/// dist.check_invariants().unwrap();
/// ```
#[derive(Clone, Debug)]
pub struct Distribution {
    ranks: Vec<Vec<Task>>,
    rank_loads: Vec<Load>,
    location: HashMap<TaskId, RankId>,
    total_load: Load,
}

impl Distribution {
    /// An empty distribution over `num_ranks` ranks.
    pub fn new(num_ranks: usize) -> Self {
        Distribution {
            ranks: vec![Vec::new(); num_ranks],
            rank_loads: vec![Load::ZERO; num_ranks],
            location: HashMap::new(),
            total_load: Load::ZERO,
        }
    }

    /// Build a distribution from explicit per-rank task-load lists, with
    /// task ids assigned densely in iteration order. Convenient for tests
    /// and LBAF experiment setup.
    pub fn from_loads<I, J>(per_rank_loads: I) -> Self
    where
        I: IntoIterator<Item = J>,
        J: IntoIterator<Item = f64>,
    {
        let mut next_id = 0u64;
        let mut ranks: Vec<Vec<Task>> = Vec::new();
        for rank_loads in per_rank_loads {
            let mut tasks = Vec::new();
            for l in rank_loads {
                tasks.push(Task::new(next_id, l));
                next_id += 1;
            }
            ranks.push(tasks);
        }
        let mut dist = Distribution::new(ranks.len());
        for (r, tasks) in ranks.into_iter().enumerate() {
            for t in tasks {
                dist.insert(RankId::from(r), t)
                    .expect("from_loads ids are unique by construction");
            }
        }
        dist
    }

    /// The hot-spot input of §V-B scaled to taste: the first `hot` of
    /// `num_ranks` ranks hold `tasks_per_hot` unit-load tasks each, the
    /// rest are empty.
    pub fn concentrated(num_ranks: usize, hot: usize, tasks_per_hot: usize) -> Self {
        Distribution::from_loads((0..num_ranks).map(|r| {
            let tasks = if r < hot { tasks_per_hot } else { 0 };
            std::iter::repeat_n(1.0, tasks)
        }))
    }

    /// Number of ranks (populated or not).
    #[inline]
    pub fn num_ranks(&self) -> usize {
        self.ranks.len()
    }

    /// Total number of tasks across all ranks.
    #[inline]
    pub fn num_tasks(&self) -> usize {
        self.location.len()
    }

    /// Iterator over all rank ids.
    pub fn rank_ids(&self) -> impl Iterator<Item = RankId> + '_ {
        (0..self.ranks.len() as u32).map(RankId::new)
    }

    /// Insert a new task on `rank`.
    pub fn insert(&mut self, rank: RankId, task: Task) -> Result<(), DistributionError> {
        self.check_rank(rank)?;
        if self.location.contains_key(&task.id) {
            return Err(DistributionError::DuplicateTask(task.id));
        }
        self.ranks[rank.as_usize()].push(task);
        self.rank_loads[rank.as_usize()] += task.load;
        self.total_load += task.load;
        self.location.insert(task.id, rank);
        Ok(())
    }

    /// Current rank of `task`, if present.
    #[inline]
    pub fn location_of(&self, task: TaskId) -> Option<RankId> {
        self.location.get(&task).copied()
    }

    /// Instrumented load of `task`, if present.
    pub fn load_of(&self, task: TaskId) -> Option<Load> {
        let rank = self.location_of(task)?;
        self.ranks[rank.as_usize()]
            .iter()
            .find(|t| t.id == task)
            .map(|t| t.load)
    }

    /// The tasks currently resident on `rank`.
    #[inline]
    pub fn tasks_on(&self, rank: RankId) -> &[Task] {
        &self.ranks[rank.as_usize()]
    }

    /// Cached total load of `rank`.
    #[inline]
    pub fn rank_load(&self, rank: RankId) -> Load {
        self.rank_loads[rank.as_usize()]
    }

    /// All per-rank loads, indexed by dense rank id.
    #[inline]
    pub fn rank_loads(&self) -> &[Load] {
        &self.rank_loads
    }

    /// Sum of all task loads.
    #[inline]
    pub fn total_load(&self) -> Load {
        self.total_load
    }

    /// Average per-rank load (`ℓ_ave` in the paper). Constant under
    /// migration: no load is created or destroyed by transfers.
    #[inline]
    pub fn average_load(&self) -> Load {
        if self.ranks.is_empty() {
            Load::ZERO
        } else {
            self.total_load / self.ranks.len() as f64
        }
    }

    /// Maximum per-rank load (`ℓ_max`).
    pub fn max_load(&self) -> Load {
        self.rank_loads
            .iter()
            .copied()
            .fold(Load::ZERO, |a, b| a.max(b))
    }

    /// The heaviest single task in the system; `Load::ZERO` if empty.
    /// Combined with `ℓ_ave` this gives the paper's Fig. 4b lower bound on
    /// achievable `ℓ_max`.
    pub fn max_task_load(&self) -> Load {
        self.ranks
            .iter()
            .flat_map(|ts| ts.iter())
            .map(|t| t.load)
            .fold(Load::ZERO, |a, b| a.max(b))
    }

    /// Load statistics (max/min/avg/imbalance) over the current per-rank
    /// loads.
    pub fn statistics(&self) -> LoadStatistics {
        LoadStatistics::from_loads(&self.rank_loads)
    }

    /// The paper's imbalance metric `I = ℓ_max / ℓ_ave − 1` (Eq. 1).
    pub fn imbalance(&self) -> f64 {
        self.statistics().imbalance
    }

    /// Placement identity: per rank, the resident tasks as sorted
    /// `(task id, load bits)` pairs. Two distributions hold the same
    /// placement exactly when their canonical views are equal — insertion
    /// and migration order drop out, every bit of every load counts. It
    /// is the one view every "bit-identical" guard compares through.
    pub fn canonical(&self) -> Vec<Vec<(TaskId, u64)>> {
        self.ranks
            .iter()
            .map(|tasks| {
                let mut view: Vec<(TaskId, u64)> = tasks
                    .iter()
                    .map(|t| (t.id, t.load.get().to_bits()))
                    .collect();
                view.sort_unstable();
                view
            })
            .collect()
    }

    /// Move `task` to rank `to`. No-op (and `Ok`) if already there.
    pub fn migrate(&mut self, task: TaskId, to: RankId) -> Result<(), DistributionError> {
        self.check_rank(to)?;
        let from = self
            .location_of(task)
            .ok_or(DistributionError::UnknownTask(task))?;
        if from == to {
            return Ok(());
        }
        let src = &mut self.ranks[from.as_usize()];
        let idx = src
            .iter()
            .position(|t| t.id == task)
            .expect("location index out of sync with rank vector");
        let t = src.swap_remove(idx);
        self.rank_loads[from.as_usize()] -= t.load;
        self.ranks[to.as_usize()].push(t);
        self.rank_loads[to.as_usize()] += t.load;
        self.location.insert(task, to);
        Ok(())
    }

    /// Apply a batch of migrations, validating each one's claimed source.
    pub fn apply(&mut self, migrations: &[Migration]) -> Result<(), DistributionError> {
        for m in migrations {
            let actual = self
                .location_of(m.task)
                .ok_or(DistributionError::UnknownTask(m.task))?;
            if actual != m.from {
                return Err(DistributionError::StaleSource {
                    task: m.task,
                    claimed: m.from,
                    actual,
                });
            }
            self.migrate(m.task, m.to)?;
        }
        Ok(())
    }

    /// Replace the instrumented load of `task` (used between application
    /// phases when new measurements arrive).
    pub fn set_load(&mut self, task: TaskId, load: Load) -> Result<(), DistributionError> {
        let rank = self
            .location_of(task)
            .ok_or(DistributionError::UnknownTask(task))?;
        let t = self.ranks[rank.as_usize()]
            .iter_mut()
            .find(|t| t.id == task)
            .expect("location index out of sync with rank vector");
        let old = t.load;
        t.load = load;
        self.rank_loads[rank.as_usize()] = self.rank_loads[rank.as_usize()] - old + load;
        self.total_load = self.total_load - old + load;
        Ok(())
    }

    /// Verify internal invariants: cached per-rank loads and the total
    /// match a from-scratch recomputation, and the location index agrees
    /// with the rank vectors. Intended for tests and debug assertions.
    pub fn check_invariants(&self) -> Result<(), String> {
        let mut seen = 0usize;
        let mut total = Load::ZERO;
        for (r, tasks) in self.ranks.iter().enumerate() {
            let recomputed: Load = tasks.iter().map(|t| t.load).sum();
            if !recomputed.approx_eq(self.rank_loads[r]) {
                return Err(format!(
                    "rank {r}: cached load {:?} != recomputed {:?}",
                    self.rank_loads[r], recomputed
                ));
            }
            total += recomputed;
            for t in tasks {
                match self.location.get(&t.id) {
                    Some(&loc) if loc.as_usize() == r => {}
                    Some(&loc) => {
                        return Err(format!(
                            "task {:?} on rank {r} but indexed at {:?}",
                            t.id, loc
                        ))
                    }
                    None => return Err(format!("task {:?} on rank {r} missing from index", t.id)),
                }
                seen += 1;
            }
        }
        if seen != self.location.len() {
            return Err(format!(
                "index holds {} tasks but ranks hold {seen}",
                self.location.len()
            ));
        }
        if !total.approx_eq(self.total_load) {
            return Err(format!(
                "cached total {:?} != recomputed {:?}",
                self.total_load, total
            ));
        }
        Ok(())
    }

    fn check_rank(&self, rank: RankId) -> Result<(), DistributionError> {
        if rank.as_usize() >= self.ranks.len() {
            Err(DistributionError::RankOutOfBounds(rank))
        } else {
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Distribution {
        Distribution::from_loads(vec![vec![1.0, 2.0], vec![3.0], vec![]])
    }

    #[test]
    fn from_loads_builds_dense_ids() {
        let d = sample();
        assert_eq!(d.num_ranks(), 3);
        assert_eq!(d.num_tasks(), 3);
        assert_eq!(d.location_of(TaskId::new(0)), Some(RankId::new(0)));
        assert_eq!(d.location_of(TaskId::new(2)), Some(RankId::new(1)));
        assert_eq!(d.rank_load(RankId::new(0)).get(), 3.0);
        assert_eq!(d.rank_load(RankId::new(1)).get(), 3.0);
        assert_eq!(d.rank_load(RankId::new(2)).get(), 0.0);
        d.check_invariants().unwrap();
    }

    #[test]
    fn averages_and_max() {
        let d = sample();
        assert_eq!(d.total_load().get(), 6.0);
        assert_eq!(d.average_load().get(), 2.0);
        assert_eq!(d.max_load().get(), 3.0);
        assert_eq!(d.max_task_load().get(), 3.0);
        assert!((d.imbalance() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn migrate_moves_load() {
        let mut d = sample();
        d.migrate(TaskId::new(2), RankId::new(2)).unwrap();
        assert_eq!(d.rank_load(RankId::new(1)).get(), 0.0);
        assert_eq!(d.rank_load(RankId::new(2)).get(), 3.0);
        assert_eq!(d.location_of(TaskId::new(2)), Some(RankId::new(2)));
        d.check_invariants().unwrap();
        // no-op migration
        d.migrate(TaskId::new(2), RankId::new(2)).unwrap();
        assert_eq!(d.rank_load(RankId::new(2)).get(), 3.0);
    }

    #[test]
    fn migrate_unknown_task_errors() {
        let mut d = sample();
        assert_eq!(
            d.migrate(TaskId::new(99), RankId::new(0)),
            Err(DistributionError::UnknownTask(TaskId::new(99)))
        );
        assert_eq!(
            d.migrate(TaskId::new(0), RankId::new(9)),
            Err(DistributionError::RankOutOfBounds(RankId::new(9)))
        );
    }

    #[test]
    fn duplicate_insert_rejected() {
        let mut d = sample();
        let err = d.insert(RankId::new(0), Task::new(0u64, 1.0));
        assert_eq!(err, Err(DistributionError::DuplicateTask(TaskId::new(0))));
    }

    #[test]
    fn apply_validates_sources() {
        let mut d = sample();
        let bad = Migration {
            task: TaskId::new(2),
            from: RankId::new(0), // actually on rank 1
            to: RankId::new(2),
            load: Load::new(3.0),
        };
        assert!(matches!(
            d.apply(&[bad]),
            Err(DistributionError::StaleSource { .. })
        ));
        let good = Migration {
            task: TaskId::new(2),
            from: RankId::new(1),
            to: RankId::new(2),
            load: Load::new(3.0),
        };
        d.apply(&[good]).unwrap();
        assert_eq!(d.location_of(TaskId::new(2)), Some(RankId::new(2)));
    }

    #[test]
    fn set_load_updates_caches() {
        let mut d = sample();
        d.set_load(TaskId::new(0), Load::new(5.0)).unwrap();
        assert_eq!(d.rank_load(RankId::new(0)).get(), 7.0);
        assert_eq!(d.total_load().get(), 10.0);
        assert_eq!(d.load_of(TaskId::new(0)), Some(Load::new(5.0)));
        d.check_invariants().unwrap();
    }

    #[test]
    fn average_load_invariant_under_migration() {
        let mut d = sample();
        let before = d.average_load();
        d.migrate(TaskId::new(0), RankId::new(2)).unwrap();
        d.migrate(TaskId::new(1), RankId::new(1)).unwrap();
        assert!(d.average_load().approx_eq(before));
    }

    #[test]
    fn canonical_ignores_insertion_order_and_keeps_every_load_bit() {
        let build = |order: &[(u32, u64, f64)]| {
            let mut d = Distribution::new(2);
            for &(rank, id, load) in order {
                d.insert(RankId::new(rank), Task::new(id, load)).unwrap();
            }
            d
        };
        let a = build(&[(0, 0, 1.0), (0, 1, 2.0), (1, 2, 0.3)]);
        let b = build(&[(1, 2, 0.3), (0, 1, 2.0), (0, 0, 1.0)]);
        assert_eq!(a.canonical(), b.canonical());
        // A migration round trip reorders a rank's vector (swap_remove),
        // not its canonical view.
        let mut c = a.clone();
        c.migrate(TaskId::new(0), RankId::new(1)).unwrap();
        c.migrate(TaskId::new(0), RankId::new(0)).unwrap();
        assert_eq!(c.canonical(), a.canonical());
        // One ulp is a different placement: 0.1 + 0.2 is not 0.3.
        let off = build(&[(0, 0, 1.0), (0, 1, 2.0), (1, 2, 0.1 + 0.2)]);
        assert_ne!(off.canonical(), a.canonical());
        assert_eq!(a.canonical()[1], vec![(TaskId::new(2), 0.3f64.to_bits())]);
    }

    #[test]
    fn empty_distribution_statistics() {
        let d = Distribution::new(0);
        assert_eq!(d.average_load(), Load::ZERO);
        assert_eq!(d.num_tasks(), 0);
    }
}
