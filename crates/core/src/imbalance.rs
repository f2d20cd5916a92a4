//! The imbalance metric (Eq. 1) and the objective function it induces.
//!
//! The paper measures load-distribution quality with
//!
//! ```text
//! I = ℓ_max / ℓ_ave − 1           (Eq. 1)
//! ```
//!
//! where `ℓ_max` and `ℓ_ave` are the maximum and average per-rank loads.
//! Perfect balance gives `I = 0`. Performance is limited by the maximum
//! rank load because each application phase synchronizes at its end.
//!
//! §V-B shows the algorithm's implicit objective is
//! `F(D) = I_D − h + 1 = ℓ_max/ℓ_ave − h`, with `F(D) ≥ 0` a *sufficient*
//! (not necessary) stopping criterion; `ℓ_ave` is constant under transfers.

use crate::load::Load;

/// Summary statistics over a set of per-rank loads.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LoadStatistics {
    /// Maximum per-rank load, `ℓ_max`.
    pub max: Load,
    /// Minimum per-rank load.
    pub min: Load,
    /// Average per-rank load, `ℓ_ave`.
    pub average: Load,
    /// Sum of all per-rank loads.
    pub total: Load,
    /// Population standard deviation of per-rank loads.
    pub stddev: f64,
    /// The paper's imbalance metric `I = ℓ_max/ℓ_ave − 1`; `0.0` when the
    /// system is empty (`ℓ_ave = 0`).
    pub imbalance: f64,
    /// Number of ranks.
    pub num_ranks: usize,
}

impl LoadStatistics {
    /// Compute statistics over a slice of per-rank loads.
    pub fn from_loads(loads: &[Load]) -> Self {
        if loads.is_empty() {
            return LoadStatistics {
                max: Load::ZERO,
                min: Load::ZERO,
                average: Load::ZERO,
                total: Load::ZERO,
                stddev: 0.0,
                imbalance: 0.0,
                num_ranks: 0,
            };
        }
        let mut max = Load(f64::NEG_INFINITY);
        let mut min = Load(f64::INFINITY);
        let mut total = Load::ZERO;
        for &l in loads {
            if l > max {
                max = l;
            }
            if l < min {
                min = l;
            }
            total += l;
        }
        let n = loads.len() as f64;
        let average = total / n;
        let variance = loads
            .iter()
            .map(|l| {
                let d = l.get() - average.get();
                d * d
            })
            .sum::<f64>()
            / n;
        LoadStatistics {
            max,
            min,
            average,
            total,
            stddev: variance.sqrt(),
            imbalance: imbalance(max, average),
            num_ranks: loads.len(),
        }
    }

    /// The objective function `F(D) = I_D − h + 1 = ℓ_max/ℓ_ave − h` from
    /// §V-B, parameterized on the relative imbalance threshold `h`.
    pub fn objective(&self, h: f64) -> f64 {
        self.imbalance - h + 1.0
    }
}

/// The imbalance metric of Eq. 1 from `(ℓ_max, ℓ_ave)`.
///
/// Returns `0.0` for an empty system (`ℓ_ave = 0`), which keeps the metric
/// well-defined for phases before any work exists.
#[inline]
pub fn imbalance(l_max: Load, l_ave: Load) -> f64 {
    if l_ave.is_zero() {
        0.0
    } else {
        l_max.get() / l_ave.get() - 1.0
    }
}

/// The Fig. 4b lower bound on achievable `ℓ_max`: no assignment can beat
/// the average load, and no assignment can split a single task, so
/// `ℓ_max ≥ max(ℓ_ave, max_task_load)`.
#[inline]
pub fn lower_bound_max_load(l_ave: Load, max_task_load: Load) -> Load {
    l_ave.max(max_task_load)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn loads(v: &[f64]) -> Vec<Load> {
        v.iter().copied().map(Load::new).collect()
    }

    #[test]
    fn perfect_balance_has_zero_imbalance() {
        let s = LoadStatistics::from_loads(&loads(&[2.0, 2.0, 2.0]));
        assert_eq!(s.imbalance, 0.0);
        assert_eq!(s.max.get(), 2.0);
        assert_eq!(s.min.get(), 2.0);
        assert_eq!(s.average.get(), 2.0);
        assert_eq!(s.stddev, 0.0);
    }

    #[test]
    fn single_hot_rank() {
        // One rank holds everything: I = P - 1.
        let s = LoadStatistics::from_loads(&loads(&[4.0, 0.0, 0.0, 0.0]));
        assert!((s.imbalance - 3.0).abs() < 1e-12);
        assert_eq!(s.total.get(), 4.0);
        assert_eq!(s.min.get(), 0.0);
    }

    #[test]
    fn empty_system_is_well_defined() {
        let s = LoadStatistics::from_loads(&[]);
        assert_eq!(s.imbalance, 0.0);
        assert_eq!(s.num_ranks, 0);
        let s2 = LoadStatistics::from_loads(&loads(&[0.0, 0.0]));
        assert_eq!(s2.imbalance, 0.0);
    }

    #[test]
    fn objective_matches_section_vb() {
        let s = LoadStatistics::from_loads(&loads(&[3.0, 1.0]));
        // I = 3/2 - 1 = 0.5; F = I - h + 1.
        assert!((s.objective(1.0) - 0.5).abs() < 1e-12);
        assert!((s.objective(1.2) - 0.3).abs() < 1e-12);
    }

    #[test]
    fn stddev_population() {
        let s = LoadStatistics::from_loads(&loads(&[1.0, 3.0]));
        assert!((s.stddev - 1.0).abs() < 1e-12);
    }

    #[test]
    fn lower_bound_is_max_of_avg_and_biggest_task() {
        assert_eq!(
            lower_bound_max_load(Load::new(2.0), Load::new(5.0)).get(),
            5.0
        );
        assert_eq!(
            lower_bound_max_load(Load::new(7.0), Load::new(5.0)).get(),
            7.0
        );
    }

    #[test]
    fn imbalance_paper_example_magnitude() {
        // §V-B: 10^4 unit tasks on 16 of 4096 ranks gives I ≈ 280
        // hint: l_ave = 10^4/4096, l_max = 10^4/16 → I = 4096/16 - 1 = 255.
        // With heterogeneous loads the paper observes 280; the uniform
        // version is exactly 255.
        let mut v = vec![Load::ZERO; 4096];
        for l in v.iter_mut().take(16) {
            *l = Load::new(10_000.0 / 16.0);
        }
        let s = LoadStatistics::from_loads(&v);
        assert!((s.imbalance - 255.0).abs() < 1e-9);
    }
}
