//! Epoch-stamped membership views for crash-stop fault tolerance.
//!
//! A [`View`] is a monotone record of which ranks have been declared
//! dead. Because declarations only ever *add* ranks (crash-stop: the
//! dead stay dead), the dead set is a join-semilattice under union and
//! every rank converges to the same view by gossiping and merging dead
//! sets — no agreement protocol is needed.
//!
//! The **generation** of a view is its *base generation* plus the size
//! of its dead set. Protocol machinery uses the generation to fence
//! cross-view traffic: the LB engine offsets its termination-detection
//! epochs by `generation × VIEW_EPOCH_STRIDE` and stamps its collective
//! slots with the generation, so any message produced under an older
//! view is recognizably stale and dropped (see `lb::engine`). Two ranks
//! can transiently hold different dead sets of the same size, but only
//! when *different* ranks died concurrently — and then further view
//! changes follow until the union is reached, with a full protocol
//! restart on every growth, so the fencing remains conservative.
//!
//! **Partition heal** relaxes crash-stop's "the dead stay dead": a
//! quorum-holding component may re-admit ranks it had fenced out (they
//! were partitioned away, not crashed). A heal *replaces* the dead set,
//! so the join-semilattice argument no longer applies to the dead set
//! alone — instead each heal bumps the view's `base_gen` by
//! `num_ranks + 1`, which exceeds any generation derivable from the
//! previous base (dead sets are bounded by `num_ranks`). Views are then
//! ordered by base generation: [`View::merge_full`] adopts a
//! higher-based view wholesale, unions dead sets at equal bases, and
//! ignores lower bases. The observable generation therefore stays
//! strictly increasing across every view any rank adopts, which keeps
//! the epoch/slot fencing sound, and the merge remains order-insensitive
//! (the convergence proptest in `tests/partition_properties.rs` pins
//! this). Without heals `base_gen` stays 0 and every path reduces
//! bit-exactly to the crash-stop behavior.

use std::collections::BTreeSet;
use tempered_core::ids::RankId;

/// Spacing between the epoch ranges of consecutive view generations.
/// Each LB protocol run uses epochs well below this bound, so offsetting
/// by `generation × VIEW_EPOCH_STRIDE` guarantees epoch ranges of
/// different views never collide.
pub const VIEW_EPOCH_STRIDE: u64 = 1 << 32;

/// Dense index of the live rank `rank` among the survivors of `dead`,
/// in ascending rank order: `rank − |dead below rank|`.
///
/// Together with [`nth_live`] this is the survivor numbering the
/// collective tree and the termination ring run over. It is computed
/// from the dead set on demand instead of being kept as a per-rank list
/// of survivors, which would cost every rank O(job size) memory for a
/// map that is the identity until somebody dies. With nobody dead both
/// functions are O(1); otherwise they walk the dead ranks below the
/// answer. Neither allocates.
pub fn live_index(dead: &BTreeSet<RankId>, rank: RankId) -> usize {
    debug_assert!(!dead.contains(&rank), "rank {rank} has no live index");
    rank.as_usize() - dead.range(..rank).count()
}

/// The `i`-th survivor of `dead` in ascending rank order — the inverse
/// of [`live_index`]. The caller keeps `i` below the survivor count.
pub fn nth_live(dead: &BTreeSet<RankId>, i: usize) -> RankId {
    let mut rank = i;
    for d in dead {
        if d.as_usize() > rank {
            break;
        }
        rank += 1;
    }
    RankId::from(rank)
}

/// A membership view: the full rank set minus the ranks declared dead.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct View {
    num_ranks: usize,
    dead: BTreeSet<RankId>,
    /// Heal fence: bumped by `num_ranks + 1` on every partition heal so
    /// post-heal generations dominate every pre-heal one. Zero until the
    /// first heal, keeping crash-stop runs bit-identical.
    base_gen: u64,
}

impl View {
    /// The initial view: everyone alive.
    pub fn new(num_ranks: usize) -> Self {
        View {
            num_ranks,
            dead: BTreeSet::new(),
            base_gen: 0,
        }
    }

    /// Total ranks in the system (live + dead).
    pub fn num_ranks(&self) -> usize {
        self.num_ranks
    }

    /// View generation: grows with every declared death and jumps past
    /// all prior generations on every heal.
    pub fn generation(&self) -> u64 {
        self.base_gen + self.dead.len() as u64
    }

    /// The heal-fence base this view's generation builds on.
    pub fn base_gen(&self) -> u64 {
        self.base_gen
    }

    /// Whether `rank` is still considered alive.
    pub fn is_live(&self, rank: RankId) -> bool {
        !self.dead.contains(&rank)
    }

    /// The set of ranks declared dead.
    pub fn dead(&self) -> &BTreeSet<RankId> {
        &self.dead
    }

    /// Number of surviving ranks.
    pub fn num_live(&self) -> usize {
        self.num_ranks - self.dead.len()
    }

    /// Declare a single rank dead. Returns `true` if the view grew
    /// (i.e. this was news and the generation advanced).
    pub fn declare_dead(&mut self, rank: RankId) -> bool {
        debug_assert!(rank.as_usize() < self.num_ranks, "unknown rank {rank}");
        self.dead.insert(rank)
    }

    /// Merge a peer's dead set (view-change propagation). Returns `true`
    /// if the union grew our view.
    pub fn merge(&mut self, dead: &BTreeSet<RankId>) -> bool {
        let before = self.dead.len();
        self.dead.extend(dead.iter().copied());
        self.dead.len() > before
    }

    /// Merge a peer's full `(base, dead)` view. Views from a later heal
    /// (higher base) win wholesale; same-base views union their dead
    /// sets; earlier bases are stale and ignored. Returns `true` if our
    /// view changed (and the generation advanced).
    pub fn merge_full(&mut self, base: u64, dead: &BTreeSet<RankId>) -> bool {
        use std::cmp::Ordering;
        match base.cmp(&self.base_gen) {
            Ordering::Less => false,
            Ordering::Equal => self.merge(dead),
            Ordering::Greater => {
                self.base_gen = base;
                self.dead = dead.clone();
                true
            }
        }
    }

    /// Whether the live component this view describes holds a strict
    /// majority of the *original* rank set — the quorum rule gating
    /// protocol restarts and commits under partitions. A 50/50 split
    /// leaves both components without quorum.
    pub fn has_quorum(&self) -> bool {
        self.num_live() * 2 > self.num_ranks
    }

    /// Heal: re-admit `rejoined` ranks and fence off every generation
    /// derived from the current base by bumping the base past the
    /// largest dead set any same-base view could hold. Only
    /// quorum-holding components heal (the caller enforces this), so two
    /// components can never mint competing bases.
    pub fn heal(&mut self, rejoined: &BTreeSet<RankId>) {
        self.base_gen += self.num_ranks as u64 + 1;
        for r in rejoined {
            self.dead.remove(r);
        }
    }

    /// First epoch of this view's epoch range (see module docs).
    pub fn epoch_base(&self) -> u64 {
        self.generation() * VIEW_EPOCH_STRIDE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_view_has_everyone_live() {
        let v = View::new(4);
        assert_eq!(v.generation(), 0);
        assert_eq!(v.epoch_base(), 0);
        assert_eq!(v.num_live(), 4);
        assert_eq!(nth_live(v.dead(), 3), RankId::new(3));
        assert!(v.is_live(RankId::new(3)));
    }

    #[test]
    fn declaring_dead_advances_the_generation_once() {
        let mut v = View::new(4);
        assert!(v.declare_dead(RankId::new(2)));
        assert!(!v.declare_dead(RankId::new(2)), "not news twice");
        assert_eq!(v.generation(), 1);
        assert_eq!(v.epoch_base(), VIEW_EPOCH_STRIDE);
        assert!(!v.is_live(RankId::new(2)));
        let live = [RankId::new(0), RankId::new(1), RankId::new(3)];
        for (i, r) in live.into_iter().enumerate() {
            assert_eq!(live_index(v.dead(), r), i);
            assert_eq!(nth_live(v.dead(), i), r);
        }
    }

    #[test]
    fn merge_is_a_union_and_reports_growth() {
        let mut a = View::new(5);
        a.declare_dead(RankId::new(1));
        let mut b = View::new(5);
        b.declare_dead(RankId::new(3));
        assert!(a.merge(b.dead()));
        assert_eq!(a.generation(), 2);
        assert!(!a.merge(b.dead()), "idempotent");
        // Merging the larger view into the smaller converges them.
        assert!(b.merge(a.dead()));
        assert_eq!(a, b);
    }

    #[test]
    fn concurrent_merges_converge_regardless_of_order() {
        let sets: Vec<BTreeSet<RankId>> = vec![
            [RankId::new(1)].into_iter().collect(),
            [RankId::new(4), RankId::new(2)].into_iter().collect(),
            [RankId::new(1), RankId::new(5)].into_iter().collect(),
        ];
        let mut fwd = View::new(8);
        for s in &sets {
            fwd.merge(s);
        }
        let mut rev = View::new(8);
        for s in sets.iter().rev() {
            rev.merge(s);
        }
        assert_eq!(fwd, rev);
        assert_eq!(fwd.generation(), 4);
    }

    #[test]
    fn quorum_is_a_strict_majority_of_the_original_ranks() {
        let mut v = View::new(8);
        assert!(v.has_quorum());
        for r in 0..3 {
            v.declare_dead(RankId::new(r));
        }
        assert!(v.has_quorum(), "5 of 8 is a majority");
        v.declare_dead(RankId::new(3));
        assert!(!v.has_quorum(), "a 50/50 split has no quorum");
        v.declare_dead(RankId::new(4));
        assert!(!v.has_quorum());
    }

    #[test]
    fn heal_readmits_and_jumps_generations() {
        let mut v = View::new(8);
        for r in [1u32, 2, 3] {
            v.declare_dead(RankId::new(r));
        }
        let pre_gen = v.generation();
        assert_eq!(pre_gen, 3);
        let rejoined: BTreeSet<RankId> = [RankId::new(1), RankId::new(2)].into_iter().collect();
        v.heal(&rejoined);
        assert!(v.is_live(RankId::new(1)));
        assert!(!v.is_live(RankId::new(3)));
        assert_eq!(v.base_gen(), 9);
        assert_eq!(v.generation(), 10);
        // Any same-base view's generation is at most base + num_ranks,
        // so the healed generation strictly dominates all of them.
        assert!(v.generation() > pre_gen + 8 - 3);
    }

    #[test]
    fn merge_full_orders_by_base_then_unions() {
        let mut a = View::new(6);
        a.declare_dead(RankId::new(5));
        // Same base: union.
        let dead1: BTreeSet<RankId> = [RankId::new(4)].into_iter().collect();
        assert!(a.merge_full(0, &dead1));
        assert_eq!(a.generation(), 2);
        // Lower base: ignored.
        let mut healed = View::new(6);
        healed.declare_dead(RankId::new(1));
        healed.heal(&[RankId::new(1)].into_iter().collect());
        assert!(!healed.merge_full(0, a.dead()));
        assert!(healed.is_live(RankId::new(4)));
        // Higher base: adopted wholesale.
        assert!(a.merge_full(healed.base_gen(), healed.dead()));
        assert_eq!(a, healed);
        // Idempotent.
        assert!(!a.merge_full(healed.base_gen(), healed.dead()));
    }
}
