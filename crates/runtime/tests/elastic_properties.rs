//! Property tests of [`tempered_runtime::elastic::ElasticMembership`].
//!
//! The membership machine is the part of elastic scaling that everything
//! else trusts: the dense rank numbering is what lets an unchanged
//! engine run over a shrinking/growing roster, and the fenced generation
//! is what keeps a stale epoch from ever colliding with a post-change
//! one. So the properties here are exactly those two contracts, checked
//! under *arbitrary* interleavings of joins, drains, drain completions,
//! and crashes — including nonsense sequences (draining a parked node,
//! joining a live one) that must be refused without perturbing state.

use proptest::prelude::*;
use proptest::BoxedStrategy;
use rand::Rng;
use tempered_core::ids::RankId;
use tempered_runtime::elastic::{ElasticMembership, MemberState};

/// Uniform choice among boxed strategies (the vendored proptest has no
/// `prop_oneof!`).
struct OneOf<T>(Vec<BoxedStrategy<T>>);

impl<T: std::fmt::Debug> Strategy for OneOf<T> {
    type Value = T;
    fn sample(&self, rng: &mut rand::rngs::SmallRng) -> Option<T> {
        let pick = rng.gen_range(0..self.0.len());
        self.0[pick].sample(rng)
    }
}

/// One membership transition attempt. Node ids deliberately overlap the
/// seed roster *and* fresh ids, so sequences hit every refusal arm.
#[derive(Clone, Debug)]
enum Op {
    Join(u64),
    Drain(u64),
    FinishDrain(u64),
    Crash(u64),
}

const NODE_SPACE: u64 = 12;

fn arb_op() -> impl Strategy<Value = Op> {
    OneOf(vec![
        (0u64..NODE_SPACE).prop_map(Op::Join).boxed(),
        (0u64..NODE_SPACE).prop_map(Op::Drain).boxed(),
        (0u64..NODE_SPACE).prop_map(Op::FinishDrain).boxed(),
        (0u64..NODE_SPACE).prop_map(Op::Crash).boxed(),
    ])
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(arb_op(), 0..48)
}

/// Apply one op; returns whether the machine accepted it.
fn apply(m: &mut ElasticMembership, op: &Op, step: usize) -> bool {
    match op {
        Op::Join(n) => m.knock(*n).is_ok(),
        Op::Drain(n) => m.begin_drain(*n, step as f64, None).is_ok(),
        Op::FinishDrain(n) => m.finish_drain(*n).is_ok(),
        Op::Crash(n) => m.crash(*n).is_ok(),
    }
}

proptest! {
    /// After *any* accepted interleaving, rank ids are dense: `rank_of`
    /// is a bijection from the roster onto `0..roster.len()` (the roster
    /// in rank order is its inverse), and nothing off the roster has a
    /// rank.
    #[test]
    fn ranks_stay_dense_and_bijective(ops in arb_ops()) {
        let mut m = ElasticMembership::new(4);
        for (i, op) in ops.iter().enumerate() {
            apply(&mut m, op, i);
            let roster = m.roster();
            prop_assert_eq!(roster.len(), m.num_ranks());
            for (idx, &node) in roster.iter().enumerate() {
                prop_assert_eq!(m.rank_of(node), Some(RankId::from(idx)));
            }
            for n in 0..NODE_SPACE + 2 {
                if !roster.contains(&n) {
                    prop_assert_eq!(m.rank_of(n), None);
                }
            }
        }
    }

    /// Every accepted transition strictly advances the fenced
    /// generation (so epochs from before and after a roster change can
    /// never collide), and every refused one leaves the machine
    /// untouched — generation *and* roster.
    #[test]
    fn accepted_ops_advance_the_fence_refused_ops_are_inert(ops in arb_ops()) {
        let mut m = ElasticMembership::new(3);
        for (i, op) in ops.iter().enumerate() {
            let gen_before = m.generation();
            let roster_before = m.roster();
            if apply(&mut m, op, i) {
                prop_assert!(
                    m.generation() > gen_before,
                    "accepted {:?} did not advance the fence", op
                );
            } else {
                prop_assert_eq!(m.generation(), gen_before);
                prop_assert_eq!(m.roster(), roster_before);
            }
        }
    }

    /// Two machines fed the same op sequence end bit-identical — the
    /// renumbering depends only on the roster, never on arrival order
    /// bookkeeping. This is what lets every rank recompute its own id
    /// locally from the gossiped roster.
    #[test]
    fn replay_is_deterministic(ops in arb_ops()) {
        let mut a = ElasticMembership::new(5);
        let mut b = ElasticMembership::new(5);
        for (i, op) in ops.iter().enumerate() {
            let ra = apply(&mut a, op, i);
            let rb = apply(&mut b, op, i);
            prop_assert_eq!(ra, rb);
        }
        prop_assert_eq!(a.roster(), b.roster());
        prop_assert_eq!(a.generation(), b.generation());
        prop_assert_eq!(a.has_quorum(), b.has_quorum());
    }

    /// Quorum is exactly "the live outnumber the dead": parked nodes
    /// (clean exits) never count against it, corpses always do. Checked
    /// against an independent census over `state()` rather than the
    /// machine's own counters.
    #[test]
    fn quorum_is_live_over_dead(ops in arb_ops()) {
        let mut m = ElasticMembership::new(4);
        for (i, op) in ops.iter().enumerate() {
            apply(&mut m, op, i);
            let mut live = 0usize;
            let mut dead = 0usize;
            for n in 0..NODE_SPACE + 2 {
                match m.state(n) {
                    Some(MemberState::Active) | Some(MemberState::Draining { .. }) => live += 1,
                    Some(MemberState::Dead) => dead += 1,
                    Some(MemberState::Parked) | None => {}
                }
            }
            prop_assert_eq!(
                m.has_quorum(),
                live > dead,
                "quorum must hold iff live ({}) outnumber dead ({})", live, dead
            );
        }
    }
}
