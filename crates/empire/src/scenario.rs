//! The B-Dot surrogate scenario and execution cost model.
//!
//! §VI-B: EMPIRE's B-Dot problem makes "the particle load vary
//! dramatically over the course of the run, but at a rate that allows us
//! to successfully apply the principle of persistence". The surrogate
//! reproduces those dynamics: particles are injected in a Gaussian burst
//! near the domain center each step (injection rate ramping up over the
//! run, so the average rank load grows as in Fig. 4b), and the B-dot
//! field drive advects the plasma outward, spreading work across ranks —
//! so the no-LB imbalance `I` starts high (≈7 in the paper) and decays
//! (≈3.3) as Fig. 4c shows.
//!
//! The cost model maps counted work to modeled execution time. Its AMT
//! overhead factors are derived from the paper's Fig. 3 table:
//! `t_p(AMT no LB)/t_p(SPMD) = 4501/3478 ≈ 1.29` and
//! `t_n(AMT)/t_n(SPMD) = 1374/1284 ≈ 1.07`.

use crate::fields::FieldModel;
use crate::mesh::Mesh;

/// Workload scenario parameters.
#[derive(Clone, Copy, Debug)]
pub struct BdotScenario {
    /// Mesh and decomposition.
    pub mesh: Mesh,
    /// Field drive.
    pub field: FieldModel,
    /// Number of application timesteps (phases).
    pub steps: usize,
    /// Physical time per step.
    pub dt: f64,
    /// Particles injected at step 0.
    pub inject_base: usize,
    /// Linear injection growth: at the final step the rate is
    /// `inject_base · (1 + inject_growth)`.
    pub inject_growth: f64,
    /// Gaussian spatial width of the injection burst (domain units).
    pub inject_sigma: f64,
    /// Outward drift speed of injected particles.
    pub v_drift: f64,
    /// Thermal velocity jitter of injected particles.
    pub v_th: f64,
}

impl BdotScenario {
    /// Paper-shaped scenario at the paper's decomposition scale
    /// (400 ranks, ×24 overdecomposition) with particle counts reduced to
    /// laptop scale. The *shape* quantities — imbalance trajectory,
    /// speedup ratios — depend on the distribution, not the absolute
    /// count.
    pub fn paper_shape() -> Self {
        // Calibrated against the paper's Fig. 2/4 shape (see
        // EXPERIMENTS.md): no-LB imbalance decaying toward ≈3.3 by the
        // end of the run, TemperedLB particle speedup ≈3x over SPMD,
        // GrapevineLB clearly trailing the other balancers.
        BdotScenario {
            mesh: Mesh::paper_scale(),
            field: FieldModel {
                radial_accel: 0.006,
                swirl_accel: 0.004,
                ramp_tau: 2.0,
                drag: 0.25,
                ..FieldModel::default()
            },
            steps: 1400,
            dt: 0.01,
            inject_base: 120,
            inject_growth: 5.0,
            inject_sigma: 0.09,
            v_drift: 0.015,
            v_th: 0.02,
        }
    }

    /// Small, fast scenario for tests and examples (16 ranks, ×6).
    pub fn small() -> Self {
        BdotScenario {
            mesh: Mesh::small(),
            field: FieldModel {
                radial_accel: 0.02,
                swirl_accel: 0.008,
                ramp_tau: 1.0,
                drag: 0.2,
                ..FieldModel::default()
            },
            steps: 120,
            dt: 0.02,
            inject_base: 40,
            inject_growth: 2.0,
            inject_sigma: 0.12,
            v_drift: 0.08,
            v_th: 0.02,
        }
    }

    /// Injection count at `step` (linear ramp).
    pub fn injection_at(&self, step: usize) -> usize {
        let frac = if self.steps <= 1 {
            0.0
        } else {
            step as f64 / (self.steps - 1) as f64
        };
        (self.inject_base as f64 * (1.0 + self.inject_growth * frac)).round() as usize
    }
}

/// Maps counted work to modeled execution time.
#[derive(Clone, Copy, Debug)]
pub struct CostModel {
    /// Seconds of particle work per particle per step.
    pub per_particle: f64,
    /// Seconds of field work per mesh cell per step.
    pub per_cell: f64,
    /// Multiplier on particle work under the AMT runtime (task creation,
    /// smaller kernels; Fig. 3 ⇒ ≈1.29).
    pub amt_particle_overhead: f64,
    /// Multiplier on non-particle work under AMT (Fig. 3 ⇒ ≈1.07).
    pub amt_nonparticle_overhead: f64,
    /// Fixed cost per LB invocation (running the algorithm itself).
    pub lb_fixed: f64,
    /// Cost per actually-migrated task (data movement + RDMA resize;
    /// dominates `t_lb` per §VI-B).
    pub per_migration: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        // Constants are chosen so the paper-shape run lands near the
        // paper's *ratios*: `t_n/t_p(SPMD) ≈ 1284/3478 ≈ 0.37` and
        // `t_lb ≪ t_p` (Fig. 3: 5–11 s of ~2500 s totals). Absolute
        // modeled seconds are arbitrary units.
        CostModel {
            per_particle: 2.0e-5,
            per_cell: 1.6e-5,
            amt_particle_overhead: 1.29,
            amt_nonparticle_overhead: 1.07,
            lb_fixed: 5.0e-3,
            per_migration: 5.0e-6,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn injection_ramps_linearly() {
        let s = BdotScenario::small();
        let first = s.injection_at(0);
        let last = s.injection_at(s.steps - 1);
        assert_eq!(first, s.inject_base);
        assert_eq!(
            last,
            (s.inject_base as f64 * (1.0 + s.inject_growth)) as usize
        );
        assert!(s.injection_at(s.steps / 2) > first);
        assert!(s.injection_at(s.steps / 2) < last);
    }

    #[test]
    fn single_step_scenario_is_well_defined() {
        let mut s = BdotScenario::small();
        s.steps = 1;
        assert_eq!(s.injection_at(0), s.inject_base);
    }

    #[test]
    fn paper_shape_matches_paper_decomposition() {
        let s = BdotScenario::paper_shape();
        assert_eq!(s.mesh.num_ranks(), 400);
        assert_eq!(s.mesh.colors_per_rank(), 24);
    }

    #[test]
    fn overheads_match_fig3_ratios() {
        let c = CostModel::default();
        assert!((c.amt_particle_overhead - 4501.0 / 3478.0).abs() < 0.01);
        assert!((c.amt_nonparticle_overhead - 1374.0 / 1284.0).abs() < 0.01);
    }
}
