//! Partition-tolerance properties of the quorum-gated LB protocol:
//! under *any* bipartition of the rank set, at most one component may
//! commit a rebalanced placement (split-brain prevention); after a heal
//! every rank is re-admitted and the run still terminates with tasks
//! conserved; and the whole machinery — parks, knocks, heals included —
//! is bit-deterministic for a fixed seed and plan. Membership views
//! themselves must converge under arbitrary delivery orders and
//! duplicated floods (the join rule is order-insensitive), and a
//! transient link cut that the retry budget can span must be invisible
//! to the committed assignment. The survivor numbering every rank
//! computes from its dead set must be the one an enumeration of the
//! survivors gives, for any dead set.

use proptest::prelude::*;
use std::collections::BTreeSet;
use tempered_core::distribution::Distribution;
use tempered_core::ids::RankId;
use tempered_core::rng::RngFactory;
use tempered_runtime::fault::{FaultPlan, LinkFault, LinkFaultKind, PartitionWindow};
use tempered_runtime::health::HealthConfig;
use tempered_runtime::lb::{LbProtocolConfig, PartitionConfig};
use tempered_runtime::membership::{live_index, nth_live, View};
use tempered_runtime::reliable::RetryConfig;
use tempered_runtime::sim::NetworkModel;
use tempered_runtime::termination::{EpochSends, TdMsg, TerminationDetector};
use tempered_runtime::{run_distributed_lb, run_distributed_lb_with_faults};

const RANKS: usize = 12;

fn partition_cfg() -> LbProtocolConfig {
    LbProtocolConfig {
        trials: 1,
        iters: 2,
        fanout: 3,
        rounds: 4,
        ..Default::default()
    }
    .hardened(RetryConfig::default())
    .crash_tolerant(HealthConfig::default())
    .partition_tolerant(PartitionConfig::quick())
}

/// Hot load on the first three ranks so both components of most
/// bipartitions have something to rebalance.
fn workload() -> Distribution {
    let per_rank: Vec<Vec<f64>> = (0..RANKS)
        .map(|r| if r < 3 { vec![1.0; 12] } else { vec![] })
        .collect();
    Distribution::from_loads(per_rank)
}

/// A nonempty, proper subset of the rank set: build from 1..RANKS raw
/// draws, so after dedup the side holds between 1 and RANKS-1 ranks.
/// (The vendored proptest ships only `vec`; sets are derived.)
fn arb_side() -> impl Strategy<Value = BTreeSet<u32>> {
    prop::collection::vec(0u32..RANKS as u32, 1..RANKS).prop_map(|v| v.into_iter().collect())
}

fn bipartition(side: &BTreeSet<u32>, start: f64, end: Option<f64>) -> FaultPlan {
    FaultPlan {
        partitions: vec![PartitionWindow {
            side: side.iter().map(|&r| RankId::new(r)).collect(),
            start,
            end,
        }],
        ..FaultPlan::none()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Split-brain prevention over *arbitrary* bipartitions: the
    /// minority component (having lost quorum) parks and keeps exactly
    /// its input tasks, so at most one component ever commits a changed
    /// placement; a 50/50 split parks everyone and commits nothing.
    /// Reruns of the same seed and plan are bit-identical throughout.
    #[test]
    fn any_permanent_bipartition_commits_at_most_one_component(
        side in arb_side(),
        seed in any::<u64>(),
    ) {
        let dist = workload();
        let plan = bipartition(&side, 2e-4, None);
        let run = || run_distributed_lb_with_faults(
            &dist, partition_cfg(), NetworkModel::default(),
            &RngFactory::new(seed), plan.clone());
        let a = run();

        prop_assert!(a.report.completed, "every rank must finish");
        prop_assert_eq!(a.degraded_ranks, 0);
        prop_assert_eq!(a.distribution.num_tasks(), dist.num_tasks(),
            "no task may be lost or duplicated across the cut");
        a.distribution.check_invariants().map_err(TestCaseError::fail)?;

        let complement: BTreeSet<u32> = (0..RANKS as u32)
            .filter(|r| !side.contains(r))
            .collect();
        if side.len() == complement.len() {
            // No strict majority anywhere: both components park and the
            // input placement survives untouched.
            prop_assert_eq!(a.parked_ranks, RANKS);
            prop_assert_eq!(a.tasks_migrated, 0);
            prop_assert_eq!(a.distribution.canonical(), dist.canonical());
        } else {
            let minority = if side.len() < complement.len() { &side } else { &complement };
            prop_assert_eq!(a.parked_ranks, minority.len(),
                "exactly the quorum-less component parks");
            // The parked component moved nothing: every minority rank
            // still holds exactly its input tasks.
            let (mine, input) = (a.distribution.canonical(), dist.canonical());
            for &r in minority {
                prop_assert_eq!(&mine[r as usize], &input[r as usize],
                    "parked rank {} must keep its original placement", r);
            }
        }

        // Same seed, same plan: bit-identical outcome, parks included.
        let b = run();
        prop_assert_eq!(a.distribution.canonical(), b.distribution.canonical());
        prop_assert_eq!(a.report.events_delivered, b.report.events_delivered);
        prop_assert_eq!(a.report.finish_time.to_bits(), b.report.finish_time.to_bits());
        prop_assert_eq!(a.parked_ranks, b.parked_ranks);
        prop_assert_eq!(a.tasks_migrated, b.tasks_migrated);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Healed bipartitions re-admit every rank: once the window closes,
    /// parked ranks knock, the quorum leader heals them under a fenced
    /// view, and the run finishes with nobody parked and all tasks
    /// conserved. (A 50/50 split is the one shape with no quorum leader
    /// to heal anyone: if both sides parked before the window closed,
    /// everyone finishes read-only on the input placement instead —
    /// still agreement, never split-brain.)
    #[test]
    fn healed_bipartition_reunites_every_rank(
        side in arb_side(),
        seed in any::<u64>(),
        heal_at in 1e-3f64..0.03,
    ) {
        let dist = workload();
        let out = run_distributed_lb_with_faults(
            &dist, partition_cfg(), NetworkModel::default(),
            &RngFactory::new(seed), bipartition(&side, 2e-4, Some(heal_at)));

        prop_assert!(out.report.completed);
        prop_assert_eq!(out.degraded_ranks, 0);
        prop_assert_eq!(out.distribution.num_tasks(), dist.num_tasks());
        out.distribution.check_invariants().map_err(TestCaseError::fail)?;
        if side.len() * 2 == RANKS {
            prop_assert!(out.parked_ranks == 0 || out.parked_ranks == RANKS);
            if out.parked_ranks == RANKS {
                prop_assert_eq!(out.tasks_migrated, 0);
                prop_assert_eq!(out.distribution.canonical(), dist.canonical());
            }
        } else {
            prop_assert_eq!(out.parked_ranks, 0, "the heal re-admits everyone");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// A transient directed link cut that the retry budget can span is
    /// invisible to the outcome: nothing degrades, nothing parks, and
    /// the committed assignment equals the fault-free run's.
    #[test]
    fn transient_link_cut_is_absorbed_by_retransmission(
        seed in any::<u64>(),
        src in 0u32..RANKS as u32,
        dst in 0u32..RANKS as u32,
        cut_len in 1e-4f64..6e-4,
    ) {
        prop_assume!(src != dst);
        let dist = workload();
        let cfg = partition_cfg();
        let plan = FaultPlan {
            links: vec![LinkFault {
                src: vec![RankId::new(src)],
                dst: vec![RankId::new(dst)],
                start: 1e-4,
                end: Some(1e-4 + cut_len),
                kind: LinkFaultKind::Cut,
            }],
            ..FaultPlan::none()
        };
        let clean = run_distributed_lb(
            &dist, cfg, NetworkModel::default(), &RngFactory::new(seed));
        let cut = run_distributed_lb_with_faults(
            &dist, cfg, NetworkModel::default(), &RngFactory::new(seed), plan);

        prop_assert_eq!(cut.degraded_ranks, 0);
        prop_assert_eq!(cut.parked_ranks, 0, "a brief cut must not cost quorum");
        prop_assert_eq!(cut.distribution.canonical(), clean.distribution.canonical());
        prop_assert_eq!(cut.final_imbalance.to_bits(), clean.final_imbalance.to_bits());
        prop_assert_eq!(cut.tasks_migrated, clean.tasks_migrated);
    }
}

/// Deterministic Fisher–Yates driven by a xorshift stream, so a shuffle
/// order is itself a reproducible function of the proptest input.
fn shuffled<T: Clone>(items: &[T], mut s: u64) -> Vec<T> {
    let mut v: Vec<T> = items.to_vec();
    s |= 1;
    for i in (1..v.len()).rev() {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        v.swap(i, (s % (i as u64 + 1)) as usize);
    }
    v
}

fn arb_view_op() -> impl Strategy<Value = (u64, BTreeSet<RankId>)> {
    (
        0u64..40,
        prop::collection::vec(0u32..RANKS as u32, 0..6)
            .prop_map(|v| v.into_iter().map(RankId::new).collect()),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// View-flood convergence: [`View::merge_full`] is order-insensitive
    /// and idempotent, so replicas that receive the same set of `(base,
    /// dead)` floods — in any delivery order, with any floods duplicated
    /// by retransmission — converge to the identical view. This is the
    /// property that lets membership gossip ride an unordered,
    /// at-least-once transport with no agreement round.
    #[test]
    fn view_floods_converge_under_any_delivery_order(
        ops in prop::collection::vec(arb_view_op(), 1..12),
        shuffle_seed in any::<u64>(),
        dup_count in 0usize..6,
    ) {
        let mut reference = View::new(RANKS);
        for (base, dead) in &ops {
            reference.merge_full(*base, dead);
        }

        // A reordered replica, with a few floods delivered twice.
        let mut redelivered = ops.clone();
        redelivered.extend(ops.iter().take(dup_count).cloned());
        let mut replica = View::new(RANKS);
        for (base, dead) in shuffled(&redelivered, shuffle_seed) {
            replica.merge_full(base, &dead);
        }

        prop_assert_eq!(&replica, &reference);
        // Re-applying the whole flood set changes nothing (idempotence).
        let snapshot = replica.clone();
        for (base, dead) in &ops {
            replica.merge_full(*base, dead);
        }
        prop_assert_eq!(replica, snapshot);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The computed survivor numbering against its oracle, the filtered
    /// enumeration no rank keeps any more: [`live_index`] and
    /// [`nth_live`] are inverse bijections between the survivors and
    /// `0..num_live` in ascending rank order, for any dead set — rank 0
    /// dead and all but one rank dead included. And the termination
    /// detector, which runs its token ring and broadcast tree over that
    /// numbering, has the lowest survivor coordinate a wave that visits
    /// every survivor exactly once, in ring order, and no corpse.
    #[test]
    fn survivor_numbering_matches_enumeration_for_any_dead_set(
        num_ranks in 1usize..513,
        raw in prop::collection::vec(any::<u64>(), 0..700),
        keep in any::<u64>(),
        all_but_one in 0u32..8,
    ) {
        let keep = RankId::from((keep % num_ranks as u64) as usize);
        let mut dead: BTreeSet<RankId> = if all_but_one == 0 {
            (0..num_ranks).map(RankId::from).collect()
        } else {
            raw.iter().map(|x| RankId::from((x % num_ranks as u64) as usize)).collect()
        };
        dead.remove(&keep);
        let mut view = View::new(num_ranks);
        view.merge(&dead);
        let oracle: Vec<RankId> = (0..num_ranks)
            .map(RankId::from)
            .filter(|r| view.is_live(*r))
            .collect();
        prop_assert_eq!(oracle.len(), view.num_live());

        for (i, &r) in oracle.iter().enumerate() {
            prop_assert_eq!(live_index(&dead, r), i);
            prop_assert_eq!(nth_live(&dead, i), r);
        }

        // One zero-traffic epoch over the survivors: what the engine does
        // to its detector on a view change, then a kick.
        let mut dets: Vec<Option<TerminationDetector>> = (0..num_ranks)
            .map(RankId::from)
            .map(|r| view.is_live(r).then(|| {
                let mut d = TerminationDetector::new(r, num_ranks);
                let _ = d.set_dead(&dead);
                d.start_epoch(1, EpochSends::Replies);
                d
            }))
            .collect();
        for d in dets.iter().flatten() {
            prop_assert_eq!(d.coordinator(), oracle[0]);
            prop_assert_eq!(d.num_live(), oracle.len());
        }
        let coordinator = oracle[0].as_usize();
        let kick = dets[coordinator].as_mut().expect("survivor").kick();
        let mut queue: std::collections::VecDeque<_> = kick.sends.into_iter().collect();
        let mut first_wave = Vec::new();
        let mut told = Vec::new();
        while let Some(send) = queue.pop_front() {
            match send.msg {
                TdMsg::Token { wave: 1, .. } => first_wave.push(send.to),
                TdMsg::Token { .. } => {}
                TdMsg::Terminated { .. } => told.push(send.to),
            }
            let det = dets[send.to.as_usize()].as_mut();
            prop_assert!(det.is_some(), "control message sent to dead rank {}", send.to);
            queue.extend(det.expect("checked").handle(send.msg).sends);
        }
        // The ring: every survivor after the coordinator in ascending
        // order, then back to the coordinator.
        let mut ring = oracle[1..].to_vec();
        if oracle.len() > 1 {
            ring.push(oracle[0]);
        }
        prop_assert_eq!(first_wave, ring);
        // The broadcast: every survivor but the coordinator, once each.
        told.sort();
        prop_assert_eq!(&told[..], &oracle[1..]);
        prop_assert!(dets.iter().flatten().all(|d| d.is_terminated()));
    }
}
