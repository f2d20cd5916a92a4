//! Property-based tests of the EMPIRE surrogate: mesh indexing is a
//! total partition, the particle kernel conserves particles and keeps
//! them in-domain, instrumentation accounts for every particle, and the
//! locality metric is a well-formed ratio.

use empire_pic::fields::FieldModel;
use empire_pic::particles::ParticleBuffer;
use empire_pic::{measure_locality, BdotScenario, CostModel, EmpireSim, Mesh};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use tempered_core::distribution::Distribution;
use tempered_core::ids::RankId;
use tempered_core::task::Task;

fn arb_mesh() -> impl Strategy<Value = Mesh> {
    (1usize..6, 1usize..6, 1usize..4, 1usize..4).prop_map(|(rx, ry, cx, cy)| Mesh {
        width: 1.0,
        height: 1.0,
        ranks_x: rx,
        ranks_y: ry,
        colors_x: cx,
        colors_y: cy,
        cells_per_color_edge: 4,
    })
}

proptest! {
    /// Every in-domain point maps to exactly one color whose home rank is
    /// in range; color ids round-trip through grid coordinates.
    #[test]
    fn mesh_color_at_is_total_and_consistent(
        mesh in arb_mesh(),
        points in prop::collection::vec((0.0f64..1.0, 0.0f64..1.0), 1..50),
    ) {
        for (x, y) in points {
            let c = mesh.color_at(x * mesh.width, y * mesh.height);
            prop_assert!(c.as_usize() < mesh.num_colors());
            let (cx, cy) = c.grid_pos(&mesh);
            prop_assert_eq!(empire_pic::ColorId::from_grid(&mesh, cx, cy), c);
            prop_assert!(mesh.home_rank(c).as_usize() < mesh.num_ranks());
        }
    }

    /// Color centers map back to their own color, for every color.
    #[test]
    fn mesh_color_centers_round_trip(mesh in arb_mesh()) {
        for c in mesh.colors() {
            let (x, y) = mesh.color_center(c);
            prop_assert_eq!(mesh.color_at(x, y), c);
        }
    }

    /// The particle kernel conserves count and confinement for arbitrary
    /// bursts and field parameters.
    #[test]
    fn particles_conserved_and_confined(
        count in 1usize..300,
        sigma in 0.01f64..0.5,
        v_drift in 0.0f64..0.5,
        v_th in 0.0f64..0.3,
        radial in 0.0f64..0.1,
        steps in 1usize..30,
        seed in any::<u64>(),
    ) {
        let mesh = Mesh::small();
        let field = FieldModel {
            radial_accel: radial,
            ..FieldModel::default()
        };
        let mut p = ParticleBuffer::default();
        let mut rng = SmallRng::seed_from_u64(seed);
        p.inject_burst(&mesh, count, 0.5, 0.5, sigma, v_drift, v_th, &mut rng);
        for s in 0..steps {
            p.advance(&mesh, &field, s as f64 * 0.02, 0.02);
        }
        prop_assert_eq!(p.len(), count);
        let mut counts = vec![0usize; mesh.num_colors()];
        p.count_per_color(&mesh, &mut counts);
        prop_assert_eq!(counts.iter().sum::<usize>(), count);
        for i in 0..p.len() {
            prop_assert!(p.x[i] >= 0.0 && p.x[i] < mesh.width);
            prop_assert!(p.y[i] >= 0.0 && p.y[i] < mesh.height);
        }
    }

    /// Phase instrumentation accounts for exactly the alive particles.
    #[test]
    fn phase_loads_account_for_all_particles(seed in any::<u64>(), steps in 1usize..8) {
        let mut scenario = BdotScenario::small();
        scenario.steps = steps;
        let cost = CostModel::default();
        let mut sim = EmpireSim::new(scenario, cost, seed);
        for _ in 0..steps {
            let phase = sim.step();
            let total: f64 = phase.color_loads.iter().sum();
            let expected = phase.num_particles as f64 * cost.per_particle;
            prop_assert!((total - expected).abs() < 1e-9 * expected.max(1.0));
            prop_assert!(sim.distribution.total_load().get() - total < 1e-12);
        }
    }

    /// The locality metric is a ratio in [0, 1] for arbitrary
    /// assignments. (The home assignment is *not* universally more local
    /// than a scatter: with one color per rank, home can never co-locate
    /// neighbors but a scatter can — the deterministic comparison lives
    /// in `locality.rs` where the overdecomposition makes it meaningful.)
    #[test]
    fn locality_is_a_sane_ratio(mesh in arb_mesh(), seed in any::<u64>()) {
        use rand::Rng;
        let mut home = Distribution::new(mesh.num_ranks());
        let mut scattered = Distribution::new(mesh.num_ranks());
        let mut rng = SmallRng::seed_from_u64(seed);
        for c in mesh.colors() {
            home.insert(mesh.home_rank(c), Task::new(c.task_id(), 1.0)).unwrap();
            let r = RankId::from(rng.gen_range(0..mesh.num_ranks()));
            scattered.insert(r, Task::new(c.task_id(), 1.0)).unwrap();
        }
        let sh = measure_locality(&mesh, &home);
        let ss = measure_locality(&mesh, &scattered);
        for s in [sh, ss] {
            prop_assert!(s.intra_rank_edges <= s.total_edges);
            prop_assert!((0.0..=1.0).contains(&s.locality()));
        }
        // Both assignments see the same edge set.
        prop_assert_eq!(sh.total_edges, ss.total_edges);
    }
}
