//! Sync ↔ async equivalence: the asynchronous protocol engine, driven by
//! the simulator on the zero-latency schedule (`run_local_lb`, i.e.
//! `NetworkModel::instant()`), must commit the *exact* `Distribution`
//! that the synchronous `tempered_core::refine` produces for the same
//! seed — bit-identical task placement and imbalance.
//!
//! This holds by construction: the engine calls the same algorithmic
//! kernels (`sample_fanout_targets`, `transfer_stage`) with the same
//! per-`(rank, stage, trial, iter)` RNG streams. Loads are restricted to
//! multiples of 0.25 so every partial sum the two sides compute in
//! different orders is exact in f64.

use proptest::prelude::*;
use tempered_core::distribution::Distribution;
use tempered_core::gossip::GossipConfig;
use tempered_core::refine::{refine, RefineConfig};
use tempered_core::rng::RngFactory;
use tempered_core::transfer::TransferConfig;
use tempered_runtime::lb::LbProtocolConfig;
use tempered_runtime::reliable::RetryConfig;
use tempered_runtime::sim::NetworkModel;
use tempered_runtime::{run_distributed_lb, run_local_lb};

/// Assert the async engine (zero-latency driver) and the sync `refine`
/// agree bit-for-bit on the same input and seed.
fn assert_equivalent(dist: &Distribution, rcfg: &RefineConfig, seed: u64) {
    let factory = RngFactory::new(seed);
    let sync = refine(dist, rcfg, &factory, 0);
    let local = run_local_lb(dist, LbProtocolConfig::from(*rcfg), &factory);

    assert_eq!(local.degraded_ranks, 0);
    assert_eq!(
        sync.best.canonical(),
        local.distribution.canonical(),
        "engine committed a different assignment than refine (seed {seed})"
    );
    assert_eq!(
        sync.best_imbalance.to_bits(),
        local.final_imbalance.to_bits(),
        "agreed imbalance differs from refine's (seed {seed})"
    );
    assert_eq!(
        sync.initial_imbalance.to_bits(),
        local.initial_imbalance.to_bits()
    );
    assert_eq!(sync.migrations.len(), local.tasks_migrated);
}

/// Small TemperedLB-style configuration: multiple trials and iterations
/// exercise the trial-reset and best-tracking paths.
fn small_tempered() -> RefineConfig {
    RefineConfig {
        trials: 2,
        iters: 3,
        gossip: GossipConfig {
            fanout: 3,
            rounds: 4,
            ..Default::default()
        },
        transfer: TransferConfig::tempered(),
    }
}

/// Dyadic loads (multiples of 0.25) so float sums are order-independent.
fn dyadic_distribution() -> impl Strategy<Value = Distribution> {
    prop::collection::vec(
        prop::collection::vec((1u8..9).prop_map(|q| f64::from(q) * 0.25), 0..6),
        2..12,
    )
    .prop_filter("need at least one task", |ranks| {
        ranks.iter().any(|r| !r.is_empty())
    })
    .prop_map(Distribution::from_loads)
}

#[test]
fn tempered_engine_matches_refine_on_concentrated_load() {
    let loads: Vec<Vec<f64>> = (0..16)
        .map(|r| if r < 2 { vec![1.0; 24] } else { vec![1.0] })
        .collect();
    let dist = Distribution::from_loads(loads);
    for seed in 0..4 {
        assert_equivalent(&dist, &small_tempered(), seed);
    }
}

#[test]
fn grapevine_engine_matches_refine() {
    let loads: Vec<Vec<f64>> = (0..8)
        .map(|r| {
            if r == 0 {
                vec![0.5; 20]
            } else {
                vec![0.5, 0.25]
            }
        })
        .collect();
    let dist = Distribution::from_loads(loads);
    for seed in 0..4 {
        assert_equivalent(&dist, &RefineConfig::grapevine(), seed);
    }
}

/// 128 ranks: the first 16 hold 40 tasks each, the next `mid` hold four
/// unit tasks each (below the average, above half of it), the rest
/// nothing.
fn concentrated_128(mid: u32) -> Distribution {
    let loads: Vec<Vec<f64>> = (0..128)
        .map(|r| {
            if r < 16 {
                (0..40).map(|t| f64::from(1 + (r + t) % 8) * 0.25).collect()
            } else if r < 16 + mid {
                vec![1.0; 4]
            } else {
                vec![]
            }
        })
        .collect();
    Distribution::from_loads(loads)
}

/// [`assert_equivalent`] over four seeds, then the hardened simulator:
/// it delivers in a different order (latency model, acks, retry timers)
/// and must commit the same placement.
fn assert_equivalent_on_every_driver(dist: &Distribution, rcfg: RefineConfig) {
    for seed in 0..4 {
        assert_equivalent(dist, &rcfg, seed);
    }
    let factory = RngFactory::new(0);
    let cfg = LbProtocolConfig::from(rcfg);
    let local = run_local_lb(dist, cfg, &factory);
    let hardened = run_distributed_lb(
        dist,
        cfg.hardened(RetryConfig::default()),
        NetworkModel::default(),
        &factory,
    );
    assert_eq!(hardened.degraded_ranks, 0);
    assert_eq!(
        hardened.distribution.canonical(),
        local.distribution.canonical()
    );
}

/// `small_tempered` with the gossip stage widened to `fanout` × `rounds`.
fn tempered_with_gossip(fanout: usize, rounds: usize) -> RefineConfig {
    RefineConfig {
        gossip: GossipConfig {
            fanout,
            rounds,
            ..Default::default()
        },
        ..small_tempered()
    }
}

/// Every case above tops out at 16 ranks, so no knowledge set there
/// outgrows the scan path (`SCAN_MAX` = 32 entries). Here 112 of 128
/// ranks are underloaded and gossip reaches `4^5` ranks, so the
/// overloaded 16 canonicalize bitset-backed sets of about a hundred
/// entries — the path every large run is on.
#[test]
fn tempered_engine_matches_refine_past_the_scan_threshold() {
    assert_equivalent_on_every_driver(&concentrated_128(0), tempered_with_gossip(4, 5));
}

/// The engine does not merge a last-round payload on a rank that will
/// not run the transfer loop. With one round every round is the last:
/// only the overloaded 16 ever merge anything, and nobody can tell.
#[test]
fn unread_knowledge_is_unobservable_when_every_round_is_the_last() {
    assert_equivalent_on_every_driver(&concentrated_128(0), tempered_with_gossip(8, 1));
}

/// With `h = 0.5` the 16 ranks between `h·ℓ_ave` and `ℓ_ave` seed gossip
/// as underloaded *and* run the transfer loop — sender and reader at
/// once, so their last-round receipts must be merged like any other.
#[test]
fn a_rank_below_the_average_and_above_the_threshold_reads_what_it_gossips() {
    let mut rcfg = tempered_with_gossip(4, 5);
    rcfg.transfer.threshold_h = 0.5;
    assert_equivalent_on_every_driver(&concentrated_128(16), rcfg);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random dyadic workloads, random seeds, TemperedLB config: the
    /// async engine's committed distribution is the one refine returns.
    #[test]
    fn tempered_equivalence_holds_for_random_workloads(
        dist in dyadic_distribution(),
        seed in any::<u64>(),
    ) {
        assert_equivalent(&dist, &small_tempered(), seed);
    }

    /// Same property under the original GrapevineLB configuration.
    #[test]
    fn grapevine_equivalence_holds_for_random_workloads(
        dist in dyadic_distribution(),
        seed in any::<u64>(),
    ) {
        assert_equivalent(&dist, &RefineConfig::grapevine(), seed);
    }
}
