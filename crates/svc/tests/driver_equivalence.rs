//! Cross-driver e2e: one flash-crowd service timeline, every LB
//! decision executed through BOTH the discrete-event simulator and the
//! threaded parallel executor, asserting bit-identical assignments.
//!
//! The workload layer makes this possible: shard loads are pure
//! functions of `(shard, phase, seed)` snapped to the dyadic
//! `LOAD_QUANTUM` grid, and the forecast bank snaps its predictions to
//! the same grid — so every partial sum either driver computes, in any
//! order, is exact in f64, and "same assignment" can mean *the same
//! bits*, not "close enough".

use std::time::Duration;

use tempered_core::forecast::{ForecastBank, Holt};
use tempered_core::ids::TaskId;
use tempered_core::refine::net_migrations;
use tempered_core::rng::{derive_seed, RngFactory};
use tempered_runtime::lb::{LbProtocolConfig, LbRank};
use tempered_runtime::parallel::run_parallel;
use tempered_runtime::run_distributed_lb;
use tempered_runtime::sim::NetworkModel;
use tempered_svc::prelude::*;

/// Drive the flash-crowd scenario end to end; at every LB epoch run the
/// protocol on the forecast loads through the simulator AND the threaded
/// executor and demand the identical placement. Returns the final
/// canonical assignment (for the outer determinism check) and how many
/// LB decisions were cross-checked.
fn run_both_drivers(seed: u64) -> (Vec<Vec<(TaskId, u64)>>, usize) {
    let sc = SvcScenario::flash_crowd(8, 8, 24, seed);
    let cfg = LbProtocolConfig {
        trials: 2,
        iters: 4,
        fanout: 3,
        rounds: 4,
        ..Default::default()
    };
    let mut dist = sc.initial_distribution();
    let mut bank = ForecastBank::new(Holt::default());
    bank.quantum = LOAD_QUANTUM;
    let mut compared = 0usize;

    for phase in 0..sc.phases as u64 {
        sc.apply_phase(&mut dist, phase);
        bank.observe_epoch(phase, &dist);

        // LB every 4th phase once history exists; the schedule straddles
        // the crowd's ramp (starts at phase 8) and its decay.
        if phase < 4 || !phase.is_multiple_of(4) || phase + 1 >= sc.phases as u64 {
            continue;
        }
        let forecast = bank.forecast(&dist);
        let epoch_seed = derive_seed(seed, &[0x5EC5_E2E0, phase]);

        // Driver 1: the discrete-event simulator.
        let sim = run_distributed_lb(
            &forecast,
            cfg,
            NetworkModel::default(),
            &RngFactory::new(epoch_seed),
        );
        assert!(sim.report.completed, "sim run must complete");
        assert_eq!(sim.degraded_ranks, 0);

        // Driver 2: the threaded parallel executor, same seed.
        let ranks = LbRank::for_dist(&forecast, cfg, RngFactory::new(epoch_seed));
        let report = run_parallel(ranks, 4, Duration::from_secs(30));
        assert!(report.completed, "threaded run must complete");
        assert!(report.ranks.iter().all(|r| !r.degraded()));

        let threaded: Vec<_> = report.ranks.iter().map(LbRank::canonical).collect();
        assert_eq!(
            sim.distribution.canonical(),
            threaded,
            "phase {phase}: threaded executor diverged from the simulator"
        );
        compared += 1;

        // Commit the agreed placement (priced at observed loads) and
        // keep going.
        let migrations = net_migrations(&dist, &sim.distribution);
        dist.apply(&migrations).expect("agreed migrations apply");
    }

    dist.check_invariants().expect("final placement is sound");
    (dist.canonical(), compared)
}

#[test]
fn flash_crowd_timeline_is_driver_equivalent_and_deterministic() {
    let (a, compared) = run_both_drivers(42);
    assert!(
        compared >= 3,
        "the schedule must cross-check several LB decisions, got {compared}"
    );
    // The crowd forces real movement: the final placement cannot still
    // be the initial block layout.
    let block = SvcScenario::flash_crowd(8, 8, 24, 42).initial_distribution();
    let ids = |view: &[Vec<(TaskId, u64)>]| -> Vec<Vec<TaskId>> {
        view.iter()
            .map(|r| r.iter().map(|t| t.0).collect())
            .collect()
    };
    assert_ne!(
        ids(&a),
        ids(&block.canonical()),
        "a flash crowd must force migrations off the block placement"
    );

    // End-to-end determinism: the whole two-driver timeline replays to
    // the identical final bits.
    let (b, _) = run_both_drivers(42);
    assert_eq!(a, b, "the timeline must be bit-for-bit reproducible");
}
