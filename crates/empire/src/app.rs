//! The EMPIRE surrogate application: particle state + per-color
//! instrumentation feeding the balancer.
//!
//! Each call to [`EmpireSim::step`] is one application *phase* (§III-B):
//! particles are injected and pushed, per-color particle counts are
//! histogrammed, and the counts become the instrumented per-task loads of
//! the phase. The color-to-rank assignment lives in a
//! [`Distribution`], which balancers rebalance between phases.

use crate::particles::ParticleBuffer;
use crate::scenario::{BdotScenario, CostModel};
use rand::rngs::SmallRng;
use tempered_core::distribution::Distribution;
use tempered_core::load::Load;
use tempered_core::rng::RngFactory;
use tempered_core::task::Task;

/// The running surrogate application.
#[derive(Debug)]
pub struct EmpireSim {
    /// Scenario parameters.
    pub scenario: BdotScenario,
    /// Cost model for modeled execution time.
    pub cost: CostModel,
    particles: ParticleBuffer,
    counts: Vec<usize>,
    /// Current color → rank assignment (colors are the migratable tasks).
    pub distribution: Distribution,
    step: usize,
    inject_rng: SmallRng,
    factory: RngFactory,
}

/// Per-phase measured quantities.
#[derive(Clone, Debug)]
pub struct PhaseLoads {
    /// Phase (timestep) index.
    pub step: usize,
    /// Per-color particle-work loads (seconds), indexed by color.
    pub color_loads: Vec<f64>,
    /// Total particles alive this phase.
    pub num_particles: usize,
}

impl PhaseLoads {
    /// The persistence coefficient between this phase and `next` (§III-B):
    /// the Pearson correlation of per-color loads. Values near `1.0` mean
    /// the previous phase predicts the next one well, the balancer's
    /// operating assumption; `None` with fewer than two colors or zero
    /// variance.
    pub fn correlation(&self, next: &PhaseLoads) -> Option<f64> {
        let paired = || self.color_loads.iter().zip(&next.color_loads);
        let n = paired().count();
        if n < 2 {
            return None;
        }
        let (sx, sy) = paired().fold((0.0, 0.0), |(sx, sy), (x, y)| (sx + x, sy + y));
        let (mx, my) = (sx / n as f64, sy / n as f64);
        let (mut cov, mut vx, mut vy) = (0.0, 0.0, 0.0);
        for (x, y) in paired() {
            cov += (x - mx) * (y - my);
            vx += (x - mx) * (x - mx);
            vy += (y - my) * (y - my);
        }
        if vx == 0.0 || vy == 0.0 {
            return None;
        }
        Some(cov / (vx.sqrt() * vy.sqrt()))
    }
}

impl EmpireSim {
    /// Initialize: every color at its home rank with zero load.
    pub fn new(scenario: BdotScenario, cost: CostModel, seed: u64) -> Self {
        let factory = RngFactory::new(seed);
        let mesh = scenario.mesh;
        let mut distribution = Distribution::new(mesh.num_ranks());
        for color in mesh.colors() {
            distribution
                .insert(mesh.home_rank(color), Task::new(color.task_id(), 0.0))
                .expect("color ids are unique");
        }
        EmpireSim {
            // Preallocate for the expected population, but cap the hint:
            // callers may set `steps` far beyond what they will run.
            particles: ParticleBuffer::with_capacity(
                (scenario.inject_base.saturating_mul(scenario.steps) / 2).min(1 << 24),
            ),
            counts: vec![0; mesh.num_colors()],
            distribution,
            step: 0,
            inject_rng: factory.rank_stream(b"inject", 0, 0),
            scenario,
            cost,
            factory,
        }
    }

    /// The RNG factory seeding this run (shared with balancers so a whole
    /// experiment reproduces from one seed).
    pub fn factory(&self) -> &RngFactory {
        &self.factory
    }

    /// Current phase index.
    pub fn current_step(&self) -> usize {
        self.step
    }

    /// Particles currently alive.
    pub fn num_particles(&self) -> usize {
        self.particles.len()
    }

    /// Execute one phase: inject, push, instrument. Returns the measured
    /// per-color loads and updates the distribution's task loads in place.
    pub fn step(&mut self) -> PhaseLoads {
        let s = &self.scenario;
        let mesh = s.mesh;
        let t = self.step as f64 * s.dt;

        // Inject this step's burst at the domain center.
        let count = s.injection_at(self.step);
        self.particles.inject_burst(
            &mesh,
            count,
            mesh.width * 0.5,
            mesh.height * 0.5,
            s.inject_sigma,
            s.v_drift,
            s.v_th,
            &mut self.inject_rng,
        );

        // Push.
        self.particles.advance(&mesh, &s.field, t, s.dt);

        // Instrument: per-color particle work.
        self.particles.count_per_color(&mesh, &mut self.counts);
        let mut color_loads = Vec::with_capacity(self.counts.len());
        for (color, &n) in self.counts.iter().enumerate() {
            let load = n as f64 * self.cost.per_particle;
            color_loads.push(load);
            self.distribution
                .set_load(tempered_core::ids::TaskId::from(color), Load::new(load))
                .expect("every color is a task");
        }

        let out = PhaseLoads {
            step: self.step,
            color_loads,
            num_particles: self.particles.len(),
        };
        self.step += 1;
        out
    }

    /// Modeled per-rank particle execution time for the current loads
    /// under the current assignment (the bulk-synchronous phase cost is
    /// the max over ranks).
    pub fn max_rank_particle_load(&self) -> f64 {
        self.distribution.max_load().get()
    }

    /// Per-rank non-particle (field solve) time: uniform across ranks by
    /// construction of the static mesh decomposition.
    pub fn nonparticle_time_per_rank(&self) -> f64 {
        let cells = self.scenario.mesh.colors_per_rank() * self.scenario.mesh.cells_per_color();
        cells as f64 * self.cost.per_cell
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::BdotScenario;

    fn small_sim() -> EmpireSim {
        EmpireSim::new(BdotScenario::small(), CostModel::default(), 42)
    }

    #[test]
    fn initial_assignment_is_home_blocks() {
        let sim = small_sim();
        let mesh = sim.scenario.mesh;
        for color in mesh.colors() {
            assert_eq!(
                sim.distribution.location_of(color.task_id()),
                Some(mesh.home_rank(color))
            );
        }
        assert_eq!(sim.distribution.num_tasks(), mesh.num_colors());
    }

    #[test]
    fn stepping_grows_particles_and_loads() {
        let mut sim = small_sim();
        let p1 = sim.step();
        let p2 = sim.step();
        assert!(p2.num_particles > p1.num_particles);
        assert_eq!(p1.color_loads.len(), sim.scenario.mesh.num_colors());
        let total: f64 = p2.color_loads.iter().sum();
        assert!(
            (total - p2.num_particles as f64 * sim.cost.per_particle).abs() < 1e-9,
            "loads must account for every particle"
        );
        assert_eq!(sim.current_step(), 2);
    }

    #[test]
    fn early_imbalance_is_high_and_decays() {
        let mut sim = small_sim();
        sim.step();
        let early = sim.distribution.imbalance();
        for _ in 0..sim.scenario.steps - 1 {
            sim.step();
        }
        let late = sim.distribution.imbalance();
        assert!(
            early > late,
            "imbalance must decay as the plasma spreads: {early} → {late}"
        );
        assert!(
            early > 2.0,
            "injection burst must be concentrated, I={early}"
        );
    }

    #[test]
    fn persistence_holds_at_phase_level() {
        let mut sim = small_sim();
        let phases: Vec<PhaseLoads> = (0..10).map(|_| sim.step()).collect();
        let p = phases[8]
            .correlation(&phases[9])
            .expect("two phases with variance");
        assert!(
            p > 0.9,
            "phase-to-phase load correlation must be high (principle of persistence), got {p}"
        );
        // Pinned bit for bit, so a change in summation order shows.
        assert_eq!(p.to_bits(), 0x3fef_e91f_a20d_26b5);
    }

    #[test]
    fn correlation_detects_anti_persistence_and_degenerate_phases() {
        let phase = |loads: &[f64]| PhaseLoads {
            step: 0,
            color_loads: loads.to_vec(),
            num_particles: 0,
        };
        let up = phase(&[1.0, 2.0, 3.0]);
        assert!((up.correlation(&up).unwrap() - 1.0).abs() < 1e-12);
        assert!((up.correlation(&phase(&[3.0, 2.0, 1.0])).unwrap() + 1.0).abs() < 1e-12);
        assert!(up.correlation(&phase(&[5.0, 5.0, 5.0])).is_none());
        assert!(phase(&[1.0]).correlation(&phase(&[2.0])).is_none());
    }

    #[test]
    fn deterministic_across_runs() {
        let mut a = small_sim();
        let mut b = small_sim();
        for _ in 0..5 {
            let pa = a.step();
            let pb = b.step();
            assert_eq!(pa.num_particles, pb.num_particles);
            assert_eq!(pa.color_loads, pb.color_loads);
        }
    }

    #[test]
    fn nonparticle_time_is_positive_and_uniform() {
        let sim = small_sim();
        let t = sim.nonparticle_time_per_rank();
        assert!(t > 0.0);
        let mesh = sim.scenario.mesh;
        assert_eq!(
            t,
            (mesh.colors_per_rank() * mesh.cells_per_color()) as f64 * sim.cost.per_cell
        );
    }
}
