//! Property-based tests of the runtime substrate: termination detection
//! under arbitrary counter states and under adversarial schedules, tree
//! topology invariants, and the full asynchronous LB protocol over
//! randomized distributions.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;
use tempered_core::distribution::Distribution;
use tempered_core::ids::RankId;
use tempered_core::rng::RngFactory;
use tempered_runtime::collective::{LoadSummary, Tree};
use tempered_runtime::lb::LbProtocolConfig;
use tempered_runtime::run_distributed_lb;
use tempered_runtime::sim::NetworkModel;
use tempered_runtime::termination::{EpochSends, TdMsg, TerminationDetector};

proptest! {
    /// The spanning tree is a tree for any size and root: every non-root
    /// rank has exactly one parent, parent/child relations agree, and all
    /// ranks are reachable.
    #[test]
    fn tree_is_spanning(n in 1usize..600, root_sel in any::<prop::sample::Index>()) {
        let root = RankId::from(root_sel.index(n));
        let tree = Tree::new(n, root);
        let mut seen = vec![false; n];
        let mut queue = vec![root];
        seen[root.as_usize()] = true;
        while let Some(r) = queue.pop() {
            for c in tree.children(r) {
                prop_assert!(!seen[c.as_usize()], "cycle at {c}");
                prop_assert_eq!(tree.parent(c), Some(r));
                seen[c.as_usize()] = true;
                queue.push(c);
            }
        }
        prop_assert!(seen.iter().all(|&s| s));
        prop_assert_eq!(tree.parent(root), None);
    }

    /// LoadSummary combine is associative and commutative (a reduction
    /// over any tree shape gives the same result).
    #[test]
    fn load_summary_combine_is_monoidal(
        a in 0.0f64..100.0,
        b in 0.0f64..100.0,
        c in 0.0f64..100.0,
    ) {
        let (x, y, z) = (LoadSummary::of(a), LoadSummary::of(b), LoadSummary::of(c));
        let left = x.combine(y).combine(z);
        let right = x.combine(y.combine(z));
        prop_assert!((left.total - right.total).abs() < 1e-9);
        prop_assert_eq!(left.max, right.max);
        prop_assert_eq!(left.count, right.count);
        let swapped = y.combine(x);
        let orig = x.combine(y);
        prop_assert_eq!(orig.max, swapped.max);
        prop_assert!((orig.total - swapped.total).abs() < 1e-9);
    }

    /// Termination detection declares termination on every rank iff the
    /// global send/receive counters balance.
    #[test]
    fn termination_iff_counters_balance(
        // Per-rank (sent, recv) counters; we then force balance or not.
        counters in prop::collection::vec((0u64..5, 0u64..5), 2..12),
        balance in any::<bool>(),
    ) {
        let n = counters.len();
        let mut counters = counters;
        // Force the global invariant recv <= sent (a receive implies a send).
        let sent: u64 = counters.iter().map(|c| c.0).sum();
        let recv: u64 = counters.iter().map(|c| c.1).sum();
        if recv > sent {
            counters[0].0 += recv - sent;
        }
        if balance {
            // Make totals equal by topping up rank 0's receive count.
            let sent: u64 = counters.iter().map(|c| c.0).sum();
            let recv: u64 = counters.iter().map(|c| c.1).sum();
            counters[0].1 += sent - recv;
        } else {
            // Ensure strict imbalance: one extra send, never received.
            counters[0].0 += 1;
        }

        let mut dets: Vec<TerminationDetector> = (0..n)
            .map(|r| {
                let mut d = TerminationDetector::new(RankId::from(r), n);
                d.start_epoch(1, EpochSends::Replies);
                for _ in 0..counters[r].0 { d.on_basic_send(); }
                for _ in 0..counters[r].1 { d.on_basic_recv(); }
                d
            })
            .collect();
        let mut queue: VecDeque<(usize, TdMsg)> = VecDeque::new();
        for s in dets[0].kick().sends {
            queue.push_back((s.to.as_usize(), s.msg));
        }
        let mut wave_guard = 0u64;
        while let Some((to, msg)) = queue.pop_front() {
            if let TdMsg::Token { wave, .. } = msg {
                wave_guard = wave;
                if wave > 6 {
                    break; // unbalanced: waves run forever by design
                }
            }
            for s in dets[to].handle(msg).sends {
                queue.push_back((s.to.as_usize(), s.msg));
            }
        }
        if balance {
            prop_assert!(dets.iter().all(|d| d.is_terminated()),
                "balanced counters must terminate");
        } else {
            prop_assert!(dets.iter().all(|d| !d.is_terminated()),
                "unbalanced counters must never terminate");
            prop_assert!(wave_guard > 6, "waves must keep circulating");
        }
    }
}

/// A message of the adversarial schedule: a basic message with the
/// number of replies it has already bred, or a detector control message.
#[derive(Clone, Copy, Debug)]
enum InFlight {
    Basic { to: usize, depth: u32 },
    Control { to: usize, msg: TdMsg },
}

/// What one adversarial epoch did.
#[derive(Debug, Default)]
struct EpochRun {
    /// Ring tokens and `Terminated` messages delivered.
    tokens: usize,
    broadcasts: usize,
}

/// One epoch over `entry_sends.len()` detectors, rank 0 coordinating.
/// Rank `r` sends `entry_sends[r]` basic messages to random other ranks
/// when it enters the epoch. Entries, basic deliveries and control
/// deliveries then interleave in an order drawn from `seed`; a message
/// for a rank that has not entered yet waits, as the engine buffers one.
/// With `replies`, processing a message sends up to two more (three
/// generations at most). With `kick_late`, the coordinator kicks only
/// once every rank has entered and every basic message is processed.
/// Fails if a rank learns of termination while a basic message is
/// unprocessed, or if the epoch does not end everywhere.
fn adversarial_epoch(
    sends: EpochSends,
    entry_sends: &[u8],
    replies: bool,
    kick_late: bool,
    seed: u64,
) -> Result<EpochRun, TestCaseError> {
    let n = entry_sends.len();
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut dets: Vec<TerminationDetector> = (0..n)
        .map(|r| TerminationDetector::new(RankId::from(r), n))
        .collect();
    let mut entered = vec![false; n];
    let mut kicked = false;
    let mut flight: Vec<InFlight> = Vec::new();
    let mut unprocessed = 0usize;
    let mut run = EpochRun::default();
    let other = |rng: &mut SmallRng, me: usize| (me + rng.gen_range(1..n)) % n;
    for _ in 0..1_000_000 {
        if !kicked && entered[0] && (!kick_late || (entered.iter().all(|&e| e) && unprocessed == 0))
        {
            kicked = true;
            let out = dets[0].kick();
            flight.extend(out.sends.iter().map(|s| InFlight::Control {
                to: s.to.as_usize(),
                msg: s.msg,
            }));
            continue;
        }
        // Every action open now: a rank entering, or a delivery to a
        // rank that has entered.
        let waiting: Vec<usize> = (0..n).filter(|&r| !entered[r]).collect();
        let deliverable: Vec<usize> = (0..flight.len())
            .filter(|&i| match flight[i] {
                InFlight::Basic { to, .. } | InFlight::Control { to, .. } => entered[to],
            })
            .collect();
        let actions = waiting.len() + deliverable.len();
        if actions == 0 {
            break;
        }
        let pick = rng.gen_range(0..actions);
        if pick < waiting.len() {
            let r = waiting[pick];
            entered[r] = true;
            dets[r].start_epoch(1, sends);
            for _ in 0..entry_sends[r] {
                dets[r].on_basic_send();
                unprocessed += 1;
                flight.push(InFlight::Basic {
                    to: other(&mut rng, r),
                    depth: 0,
                });
            }
            continue;
        }
        match flight.swap_remove(deliverable[pick - waiting.len()]) {
            InFlight::Basic { to, depth } => {
                prop_assert!(
                    !dets[to].is_terminated(),
                    "rank {to} processed after termination"
                );
                dets[to].on_basic_recv();
                unprocessed -= 1;
                let bred = if replies && depth < 3 {
                    rng.gen_range(0..3)
                } else {
                    0
                };
                for _ in 0..bred {
                    dets[to].on_basic_send();
                    unprocessed += 1;
                    flight.push(InFlight::Basic {
                        to: other(&mut rng, to),
                        depth: depth + 1,
                    });
                }
            }
            InFlight::Control { to, msg } => {
                match msg {
                    TdMsg::Token { .. } => run.tokens += 1,
                    TdMsg::Terminated { .. } => run.broadcasts += 1,
                }
                let out = dets[to].handle(msg);
                if out.terminated_epoch.is_some() {
                    prop_assert_eq!(
                        unprocessed,
                        0,
                        "rank {} learned of termination with {} message(s) unprocessed",
                        to,
                        unprocessed
                    );
                }
                flight.extend(out.sends.iter().map(|s| InFlight::Control {
                    to: s.to.as_usize(),
                    msg: s.msg,
                }));
            }
        }
    }
    prop_assert!(flight.is_empty(), "the schedule did not drain");
    prop_assert!(
        dets.iter().all(|d| d.is_terminated()),
        "the epoch must end everywhere"
    );
    Ok(run)
}

proptest! {
    /// An entry-only epoch under any interleaving of entries, basic
    /// deliveries and token hops: every declaration follows the last
    /// processed message, and an epoch whose messages were all processed
    /// before the kick ends in one lap plus the broadcast.
    #[test]
    fn entry_only_epoch_is_sound_under_any_schedule(
        entry_sends in prop::collection::vec(0u8..5, 2..13),
        kick_late in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let n = entry_sends.len();
        let run = adversarial_epoch(EpochSends::EntryOnly, &entry_sends, false, kick_late, seed)?;
        prop_assert_eq!(run.broadcasts, n - 1);
        if kick_late {
            prop_assert_eq!(run.tokens, n, "one lap");
        }
    }

    /// An epoch whose processing sends more messages stays sound under
    /// the two-wave rule, and needs its confirming lap.
    #[test]
    fn reply_epoch_is_sound_under_any_schedule(
        entry_sends in prop::collection::vec(0u8..5, 2..13),
        kick_late in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let n = entry_sends.len();
        let run = adversarial_epoch(EpochSends::Replies, &entry_sends, true, kick_late, seed)?;
        prop_assert_eq!(run.broadcasts, n - 1);
        if kick_late {
            prop_assert_eq!(run.tokens, 2 * n, "two laps");
        }
    }
}

fn arb_distribution() -> impl Strategy<Value = Distribution> {
    prop::collection::vec(prop::collection::vec(0.05f64..3.0, 0..8), 2..10)
        .prop_map(Distribution::from_loads)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The full asynchronous protocol conserves tasks and load and never
    /// worsens the imbalance, for arbitrary inputs and seeds.
    #[test]
    fn async_protocol_is_safe(dist in arb_distribution(), seed in any::<u64>()) {
        let cfg = LbProtocolConfig {
            trials: 1,
            iters: 2,
            fanout: 2,
            rounds: 3,
            ..Default::default()
        };
        let out = run_distributed_lb(&dist, cfg, NetworkModel::default(), &RngFactory::new(seed));
        prop_assert_eq!(out.distribution.num_tasks(), dist.num_tasks());
        prop_assert!(out.distribution.total_load().approx_eq(dist.total_load()));
        prop_assert!(out.final_imbalance <= out.initial_imbalance + 1e-9);
        out.distribution.check_invariants().map_err(TestCaseError::fail)?;
    }
}
