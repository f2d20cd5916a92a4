//! Service scenarios: a shard population, its placement, and its load
//! history.
//!
//! A [`SvcScenario`] is the service analog of the EMPIRE `BdotScenario`:
//! a fully deterministic description from which any driver can
//! reconstruct the exact per-shard loads of any phase. Shards stand in
//! for aggregated user-session buckets ("millions of users" hashed into
//! a few hundred migratable units); ranks are servers.

use crate::workload::{LoadGen, Workload};
use tempered_core::distribution::Distribution;
use tempered_core::ids::{RankId, TaskId};
use tempered_core::load::Load;
use tempered_core::task::Task;

/// A deterministic service workload scenario.
#[derive(Clone, Debug, PartialEq)]
pub struct SvcScenario {
    /// Scenario name (CSV rows, plot labels).
    pub name: String,
    /// Server count.
    pub num_ranks: usize,
    /// Session shards per server in the initial block placement.
    pub shards_per_rank: usize,
    /// Phases to run.
    pub phases: usize,
    /// The composed load dynamics.
    pub workload: Workload,
}

impl SvcScenario {
    /// Total shard count.
    pub fn num_shards(&self) -> usize {
        self.num_ranks * self.shards_per_rank
    }

    /// The load of `shard` at `phase`.
    pub fn load_of(&self, shard: u64, phase: u64) -> f64 {
        self.workload.load(shard, self.num_shards() as u64, phase)
    }

    /// The initial block placement: shard `s` on rank `s / shards_per_rank`,
    /// loaded for phase 0.
    pub fn initial_distribution(&self) -> Distribution {
        let mut dist = Distribution::new(self.num_ranks);
        for s in 0..self.num_shards() as u64 {
            let rank = RankId::from(s as usize / self.shards_per_rank);
            let load = Load::new(self.load_of(s, 0));
            dist.insert(rank, Task::new(TaskId::new(s), load))
                .expect("shard ids are unique by construction");
        }
        dist
    }

    /// Re-measure every shard in `dist` for `phase` (placement is kept;
    /// only the instrumented loads change — the inter-phase measurement
    /// update a real runtime performs).
    pub fn apply_phase(&self, dist: &mut Distribution, phase: u64) {
        for s in 0..self.num_shards() as u64 {
            dist.set_load(TaskId::new(s), Load::new(self.load_of(s, phase)))
                .expect("scenario shards are all present");
        }
    }

    /// Users in time zones: every shard rides the same diurnal cycle at
    /// a hashed offset, so the load *peak wanders across shards* while
    /// the total stays nearly flat — pure redistribution pressure.
    pub fn diurnal(num_ranks: usize, shards_per_rank: usize, phases: usize, seed: u64) -> Self {
        SvcScenario {
            name: "diurnal".into(),
            num_ranks,
            shards_per_rank,
            phases,
            workload: Workload {
                base_load: 1.0,
                gens: vec![LoadGen::Diurnal {
                    amplitude: 0.9,
                    period: 24.0,
                    spread: 1.0,
                }],
                seed,
            },
        }
    }

    /// A flash crowd hits a fifth of the shards a third of the way into
    /// the run: ramp to 6× over 6 phases, decay over 12.
    pub fn flash_crowd(num_ranks: usize, shards_per_rank: usize, phases: usize, seed: u64) -> Self {
        SvcScenario {
            name: "flash_crowd".into(),
            num_ranks,
            shards_per_rank,
            phases,
            workload: Workload {
                base_load: 1.0,
                gens: vec![LoadGen::FlashCrowd {
                    start: (phases as u64) / 3,
                    ramp: 6,
                    decay: 12,
                    magnitude: 5.0,
                    hot_fraction: 0.2,
                }],
                seed,
            },
        }
    }

    /// Zipf hot keys rotating every 8 phases, with session churn noise
    /// on top: the hot set drifts, persistence keeps chasing it.
    pub fn hot_keys(num_ranks: usize, shards_per_rank: usize, phases: usize, seed: u64) -> Self {
        SvcScenario {
            name: "hot_keys".into(),
            num_ranks,
            shards_per_rank,
            phases,
            workload: Workload {
                base_load: 1.0,
                gens: vec![
                    LoadGen::Zipf {
                        exponent: 1.2,
                        boost: 12.0,
                        rotate_every: 8,
                    },
                    LoadGen::Churn { volatility: 0.2 },
                ],
                seed,
            },
        }
    }

    /// Everything at once: diurnal base swell, a flash crowd on top,
    /// hot-key skew, and churn — the stress case.
    pub fn mixed(num_ranks: usize, shards_per_rank: usize, phases: usize, seed: u64) -> Self {
        SvcScenario {
            name: "mixed".into(),
            num_ranks,
            shards_per_rank,
            phases,
            workload: Workload {
                base_load: 1.0,
                gens: vec![
                    LoadGen::Diurnal {
                        amplitude: 0.5,
                        period: 32.0,
                        spread: 1.0,
                    },
                    LoadGen::FlashCrowd {
                        start: (phases as u64) / 2,
                        ramp: 5,
                        decay: 10,
                        magnitude: 4.0,
                        hot_fraction: 0.15,
                    },
                    LoadGen::Zipf {
                        exponent: 1.0,
                        boost: 6.0,
                        rotate_every: 10,
                    },
                    LoadGen::Churn { volatility: 0.15 },
                ],
                seed,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn initial_distribution_is_a_block_placement() {
        let sc = SvcScenario::diurnal(4, 8, 48, 1);
        let dist = sc.initial_distribution();
        assert_eq!(dist.num_ranks(), 4);
        assert_eq!(dist.num_tasks(), 32);
        for r in 0..4u32 {
            assert_eq!(dist.tasks_on(RankId::new(r)).len(), 8);
        }
        assert_eq!(dist.location_of(TaskId::new(0)), Some(RankId::new(0)));
        assert_eq!(dist.location_of(TaskId::new(31)), Some(RankId::new(3)));
    }

    #[test]
    fn apply_phase_changes_loads_not_placement() {
        let sc = SvcScenario::flash_crowd(4, 8, 30, 2);
        let mut dist = sc.initial_distribution();
        let before: Vec<_> = (0..32u64)
            .map(|s| dist.location_of(TaskId::new(s)).unwrap())
            .collect();
        sc.apply_phase(&mut dist, 15); // mid-crowd
        let after: Vec<_> = (0..32u64)
            .map(|s| dist.location_of(TaskId::new(s)).unwrap())
            .collect();
        assert_eq!(before, after);
        assert!(
            dist.imbalance() > 0.1,
            "a flash crowd must create imbalance, got {}",
            dist.imbalance()
        );
        dist.check_invariants().unwrap();
    }

    #[test]
    fn phases_replay_bit_exactly() {
        let sc = SvcScenario::mixed(4, 16, 40, 7);
        let mut a = sc.initial_distribution();
        let mut b = sc.initial_distribution();
        for p in [3u64, 9, 21, 9, 3] {
            sc.apply_phase(&mut a, p);
            sc.apply_phase(&mut b, p);
            for s in 0..sc.num_shards() as u64 {
                assert_eq!(
                    a.load_of(TaskId::new(s)).unwrap().get().to_bits(),
                    b.load_of(TaskId::new(s)).unwrap().get().to_bits()
                );
            }
        }
    }

    #[test]
    fn diurnal_total_load_is_roughly_conserved() {
        // Full spread scatters shard peaks across the cycle, so the
        // total breathes only gently while individual shards swing hard.
        let sc = SvcScenario::diurnal(8, 32, 48, 3);
        let mut dist = sc.initial_distribution();
        let mut totals = Vec::new();
        for p in 0..48u64 {
            sc.apply_phase(&mut dist, p);
            totals.push(dist.total_load().get());
        }
        let max = totals.iter().copied().fold(f64::MIN, f64::max);
        let min = totals.iter().copied().fold(f64::MAX, f64::min);
        assert!(
            max / min < 1.5,
            "total load should breathe gently: {min}..{max}"
        );
    }
}
