//! Synthetic initial task layouts for balancer analysis.
//!
//! The §V-B/§V-D experiments start from "an initial distribution of 10⁴
//! tasks across only 2⁴ out of 2¹² total ranks, leaving the other ones
//! without tasks", with an observed initial imbalance of 280 (a uniform
//! spread over 16 ranks would give exactly `4096/16 − 1 = 255`, so the
//! paper's layout is moderately skewed across the populated ranks). The
//! builder here reproduces that family of layouts deterministically.

use rand::Rng;
use tempered_core::distribution::Distribution;
use tempered_core::ids::RankId;
use tempered_core::rng::RngFactory;
use tempered_core::task::Task;

/// Parameters of the concentrated layout family.
#[derive(Clone, Copy, Debug)]
pub struct ConcentratedLayout {
    /// Total ranks (paper: 2¹² = 4096).
    pub num_ranks: usize,
    /// Ranks that initially hold tasks (paper: 2⁴ = 16).
    pub populated_ranks: usize,
    /// Total tasks (paper: 10⁴).
    pub num_tasks: usize,
    /// Linear skew across populated ranks: rank `i` (of the populated
    /// set) receives weight `1 + skew · i`. `0.0` = uniform.
    pub skew: f64,
    /// Relative jitter of individual task loads around `1.0`, drawn
    /// uniformly from `[1 − jitter, 1 + jitter)`.
    pub load_jitter: f64,
}

impl ConcentratedLayout {
    /// The paper's §V-B setup. The skew is chosen so the initial
    /// imbalance lands near the paper's reported 280 (uniform would give
    /// exactly 255).
    pub fn paper() -> Self {
        ConcentratedLayout {
            num_ranks: 1 << 12,
            populated_ranks: 1 << 4,
            num_tasks: 10_000,
            skew: 0.02,
            load_jitter: 0.25,
        }
    }

    /// A scaled-down version for unit tests and debug builds: same shape,
    /// two orders of magnitude smaller. The task count keeps the paper's
    /// granularity ratio `ℓ_ave ≈ 2.4 · task_load` — it is this coarse
    /// granularity (a recipient saturates after ~2 unit tasks) that traps
    /// the original criterion, so the ratio must survive downscaling.
    pub fn small() -> Self {
        ConcentratedLayout {
            num_ranks: 1 << 7,
            populated_ranks: 1 << 2,
            num_tasks: 312,
            skew: 0.05,
            load_jitter: 0.25,
        }
    }

    /// Build the distribution deterministically from `seed`.
    pub fn build(&self, seed: u64) -> Distribution {
        assert!(self.populated_ranks <= self.num_ranks);
        assert!(self.populated_ranks > 0);
        let factory = RngFactory::new(seed);
        let mut rng = factory.rank_stream(b"layout", 0, 0);

        // Per-populated-rank task counts from the linear skew weights.
        let weights: Vec<f64> = (0..self.populated_ranks)
            .map(|i| 1.0 + self.skew * i as f64)
            .collect();
        let wsum: f64 = weights.iter().sum();
        let mut counts: Vec<usize> = weights
            .iter()
            .map(|w| (w / wsum * self.num_tasks as f64).floor() as usize)
            .collect();
        // Distribute the rounding remainder to the heaviest ranks.
        let mut assigned: usize = counts.iter().sum();
        let mut i = self.populated_ranks;
        while assigned < self.num_tasks {
            i = if i == 0 {
                self.populated_ranks - 1
            } else {
                i - 1
            };
            counts[i] += 1;
            assigned += 1;
        }

        let mut dist = Distribution::new(self.num_ranks);
        let mut task_id = 0u64;
        for (r, &count) in counts.iter().enumerate() {
            for _ in 0..count {
                let load = if self.load_jitter > 0.0 {
                    1.0 + self.load_jitter * (rng.gen::<f64>() * 2.0 - 1.0)
                } else {
                    1.0
                };
                dist.insert(RankId::from(r), Task::new(task_id, load))
                    .expect("sequential ids are unique");
                task_id += 1;
            }
        }
        dist
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_layout_matches_section_vb_shape() {
        let layout = ConcentratedLayout::paper();
        let dist = layout.build(1);
        assert_eq!(dist.num_ranks(), 4096);
        assert_eq!(dist.num_tasks(), 10_000);
        let populated = dist
            .rank_ids()
            .filter(|&r| !dist.tasks_on(r).is_empty())
            .count();
        assert_eq!(populated, 16);
        let i0 = dist.imbalance();
        assert!(
            (230.0..330.0).contains(&i0),
            "initial imbalance should be near the paper's 280, got {i0}"
        );
    }

    #[test]
    fn uniform_no_jitter_gives_exact_255() {
        let layout = ConcentratedLayout {
            skew: 0.0,
            load_jitter: 0.0,
            ..ConcentratedLayout::paper()
        };
        let dist = layout.build(1);
        assert!((dist.imbalance() - 255.0).abs() < 1.0);
    }

    #[test]
    fn layout_is_deterministic() {
        let layout = ConcentratedLayout::small();
        let a = layout.build(9);
        let b = layout.build(9);
        for r in a.rank_ids() {
            assert_eq!(a.rank_load(r), b.rank_load(r));
        }
        let c = layout.build(10);
        let same = a.rank_ids().all(|r| a.rank_load(r) == c.rank_load(r));
        assert!(!same, "different seeds should jitter loads differently");
    }

    #[test]
    fn all_tasks_accounted_for_after_rounding() {
        for populated in [3, 7, 16] {
            let layout = ConcentratedLayout {
                num_ranks: 64,
                populated_ranks: populated,
                num_tasks: 1000,
                skew: 0.1,
                load_jitter: 0.0,
            };
            let dist = layout.build(0);
            assert_eq!(dist.num_tasks(), 1000, "populated={populated}");
        }
    }
}
