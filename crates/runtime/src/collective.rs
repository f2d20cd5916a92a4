//! Tree-based collective building blocks: reduce and broadcast.
//!
//! The protocol stack needs two collectives: the initial allreduce of
//! `(ℓ_total, ℓ_max)` that tells every rank the average and maximum load
//! (§IV-B: "ranks perform an all-reduce to collect constant-size
//! statistical data"), and the per-iteration evaluation reduce of the
//! proposed maximum load. Both are built from a binary spanning tree:
//! reduce up to the root, broadcast back down — `O(log P)` depth,
//! `2(P−1)` messages, mirroring an MPI implementation's cost shape.
//!
//! The pieces here are *passive components*: they hold partial state and
//! tell the embedding protocol what to send; all actual communication
//! goes through the protocol's own message type.

use crate::census::{hash_map_bytes, vec_bytes};
use crate::membership::{live_index, nth_live};
use std::collections::{BTreeSet, HashMap};
use tempered_core::ids::RankId;

/// Binary spanning tree over `0..n`, rooted at `root`.
///
/// Ranks are rotated so any root works: the tree over *relative* ids is
/// the standard implicit binary heap layout.
#[derive(Clone, Copy, Debug)]
pub struct Tree {
    /// Number of ranks.
    pub num_ranks: usize,
    /// Root rank.
    pub root: RankId,
}

impl Tree {
    /// Construct a tree over `num_ranks` ranks rooted at `root`.
    pub fn new(num_ranks: usize, root: RankId) -> Self {
        assert!(root.as_usize() < num_ranks, "root out of range");
        Tree { num_ranks, root }
    }

    fn rel_of(&self, r: RankId) -> usize {
        (r.as_usize() + self.num_ranks - self.root.as_usize()) % self.num_ranks
    }

    fn rank_of(&self, rel: usize) -> RankId {
        RankId::from((rel + self.root.as_usize()) % self.num_ranks)
    }

    /// Parent of `r`, or `None` for the root.
    pub fn parent(&self, r: RankId) -> Option<RankId> {
        let rel = self.rel_of(r);
        if rel == 0 {
            None
        } else {
            Some(self.rank_of((rel - 1) / 2))
        }
    }

    /// Children of `r` (zero, one, or two), in ascending relative order.
    /// The iterator knows its length, so a caller that only needs the
    /// child count takes `len()` without walking it.
    pub fn children(&self, r: RankId) -> impl ExactSizeIterator<Item = RankId> {
        let tree = *self;
        let first = 2 * self.rel_of(r) + 1;
        (first..(first + 2).min(self.num_ranks)).map(move |c| tree.rank_of(c))
    }
}

/// The constant-size statistic reduced before load balancing:
/// `(Σ load, max load, rank count)` — enough to derive `ℓ_ave`, `ℓ_max`,
/// and the imbalance `I`.
#[derive(Clone, Copy, Debug, PartialEq, Default)]
pub struct LoadSummary {
    /// Sum of per-rank loads.
    pub total: f64,
    /// Maximum per-rank load.
    pub max: f64,
    /// Number of contributing ranks.
    pub count: u64,
}

impl LoadSummary {
    /// A single rank's contribution.
    pub fn of(load: f64) -> Self {
        LoadSummary {
            total: load,
            max: load,
            count: 1,
        }
    }

    /// Monoid combine.
    pub fn combine(self, other: LoadSummary) -> LoadSummary {
        LoadSummary {
            total: self.total + other.total,
            max: self.max.max(other.max),
            count: self.count + other.count,
        }
    }

    /// Average per-rank load.
    pub fn average(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total / self.count as f64
        }
    }

    /// Imbalance `I = max/ave − 1` (Eq. 1); `0.0` for an empty summary.
    pub fn imbalance(&self) -> f64 {
        let ave = self.average();
        if ave == 0.0 {
            0.0
        } else {
            self.max / ave - 1.0
        }
    }
}

/// Per-rank reduce state for one collective "slot".
///
/// A rank completes when it has its own contribution plus one message per
/// child; the embedding protocol then forwards the partial to the parent,
/// or — at the root — owns the final value.
///
/// Partials are folded in a *canonical* order — own contribution first,
/// then children sorted by rank — regardless of arrival order. Floating
/// point addition is not associative, so arrival-order folding would make
/// the reduced total depend on message timing; the canonical fold keeps
/// the result identical across executors, fault plans, and reorderings.
#[derive(Clone, Debug)]
pub struct ReduceSlot {
    expected_children: usize,
    own: Option<LoadSummary>,
    children: Vec<(RankId, LoadSummary)>,
}

impl ReduceSlot {
    /// New slot for a rank with `expected_children` tree children.
    pub fn new(expected_children: usize) -> Self {
        ReduceSlot {
            expected_children,
            own: None,
            children: Vec::with_capacity(expected_children),
        }
    }

    /// Record this rank's own contribution; returns the completed partial
    /// if the slot is now full.
    pub fn contribute(&mut self, own: LoadSummary) -> Option<LoadSummary> {
        debug_assert!(self.own.is_none(), "double contribution");
        self.own = Some(own);
        self.completed()
    }

    /// Record the partial from child rank `from`; returns the completed
    /// partial if full.
    pub fn on_child(&mut self, from: RankId, partial: LoadSummary) -> Option<LoadSummary> {
        debug_assert!(
            self.children.len() < self.expected_children,
            "more child partials than children"
        );
        self.children.push((from, partial));
        self.completed()
    }

    fn completed(&self) -> Option<LoadSummary> {
        let own = self.own?;
        if self.children.len() != self.expected_children {
            return None;
        }
        let mut sorted = self.children.clone();
        sorted.sort_by_key(|(r, _)| *r);
        Some(sorted.into_iter().fold(own, |acc, (_, p)| acc.combine(p)))
    }
}

/// Where a completed reduce partial goes next.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Reduced {
    /// Forward the partial to this parent.
    Up(RankId, LoadSummary),
    /// This rank is the root: the value is final, to be broadcast down
    /// the [`SurvivorTree::children`] and consumed.
    Root(LoadSummary),
}

/// One rank's seat in the reduce/broadcast tree over the *survivors* of
/// a dead set, with its in-flight reduce slots.
///
/// The tree spans live-rank indices, not rank ids: after a death the
/// survivors renumber themselves `0..num_live` by ascending rank id and
/// rebuild a dense binary tree over those indices, rooted at index 0.
/// The numbering is computed from the dead set
/// ([`live_index`] / [`nth_live`]), so no rank lists the survivors; with
/// nobody dead index == id and this is the plain full tree. The dead set
/// stays with its owner (a membership view, or an empty set for a caller
/// whose ranks never die) and is passed to every call.
#[derive(Clone, Debug)]
pub struct SurvivorTree {
    me: RankId,
    tree: Tree,
    slots: HashMap<u32, ReduceSlot>,
}

impl SurvivorTree {
    /// The full tree over `num_ranks` ranks, seen from `me`.
    pub fn new(me: RankId, num_ranks: usize) -> Self {
        SurvivorTree {
            me,
            tree: Tree::new(num_ranks, RankId::new(0)),
            slots: HashMap::new(),
        }
    }

    /// Rebuild over `num_live` survivors after the dead set grew or
    /// shrank, dropping every partial collective of the old tree.
    pub fn rebuild(&mut self, num_live: usize) {
        self.tree = Tree::new(num_live, RankId::new(0));
        self.slots.clear();
    }

    /// This rank's index among the survivors (the tree's rank domain).
    pub fn live_index(&self, dead: &BTreeSet<RankId>) -> RankId {
        RankId::from(live_index(dead, self.me))
    }

    fn parent(&self, dead: &BTreeSet<RankId>) -> Option<RankId> {
        self.tree
            .parent(self.live_index(dead))
            .map(|p| nth_live(dead, p.as_usize()))
    }

    /// This rank's tree children, as rank ids.
    pub fn children<'a>(
        &self,
        dead: &'a BTreeSet<RankId>,
    ) -> impl ExactSizeIterator<Item = RankId> + 'a {
        self.tree
            .children(self.live_index(dead))
            .map(move |c| nth_live(dead, c.as_usize()))
    }

    /// Record this rank's own contribution to `slot`. A slot that
    /// completes is released: what the tree holds is the reduces in
    /// flight, not the finished ones.
    pub fn contribute(
        &mut self,
        dead: &BTreeSet<RankId>,
        slot: u32,
        own: LoadSummary,
    ) -> Option<Reduced> {
        let done = self.slot_mut(dead, slot).contribute(own)?;
        self.slots.remove(&slot);
        Some(self.route(dead, done))
    }

    /// Record child `from`'s partial for `slot`; a slot that completes
    /// is released, as in [`SurvivorTree::contribute`].
    pub fn on_child(
        &mut self,
        dead: &BTreeSet<RankId>,
        slot: u32,
        from: RankId,
        partial: LoadSummary,
    ) -> Option<Reduced> {
        let done = self.slot_mut(dead, slot).on_child(from, partial)?;
        self.slots.remove(&slot);
        Some(self.route(dead, done))
    }

    /// Heap bytes of the reduce slots in flight, counting capacity.
    pub(crate) fn heap_bytes(&self) -> usize {
        hash_map_bytes(&self.slots)
            + self
                .slots
                .values()
                .map(|s| vec_bytes(&s.children))
                .sum::<usize>()
    }

    fn slot_mut(&mut self, dead: &BTreeSet<RankId>, slot: u32) -> &mut ReduceSlot {
        let children = self.tree.children(self.live_index(dead)).len();
        self.slots
            .entry(slot)
            .or_insert_with(|| ReduceSlot::new(children))
    }

    fn route(&self, dead: &BTreeSet<RankId>, done: LoadSummary) -> Reduced {
        match self.parent(dead) {
            Some(parent) => Reduced::Up(parent, done),
            None => Reduced::Root(done),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tree_parent_child_consistency() {
        for n in [1usize, 2, 3, 7, 8, 16, 33, 400] {
            for root in [0usize, n / 2, n - 1] {
                let tree = Tree::new(n, RankId::from(root));
                let mut seen = vec![false; n];
                seen[root] = true;
                for r in 0..n {
                    let rank = RankId::from(r);
                    for c in tree.children(rank) {
                        assert_eq!(tree.parent(c), Some(rank), "n={n} root={root}");
                        assert!(!seen[c.as_usize()], "duplicate child {c}");
                        seen[c.as_usize()] = true;
                    }
                }
                assert!(seen.iter().all(|&s| s), "tree must span all ranks");
                assert_eq!(tree.parent(RankId::from(root)), None);
            }
        }
    }

    #[test]
    fn load_summary_combines() {
        let a = LoadSummary::of(2.0);
        let b = LoadSummary::of(6.0);
        let c = a.combine(b);
        assert_eq!(c.total, 8.0);
        assert_eq!(c.max, 6.0);
        assert_eq!(c.count, 2);
        assert_eq!(c.average(), 4.0);
        assert!((c.imbalance() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empty_summary_imbalance_is_zero() {
        assert_eq!(LoadSummary::default().imbalance(), 0.0);
        assert_eq!(LoadSummary::default().average(), 0.0);
    }

    #[test]
    fn reduce_slot_completes_in_any_order() {
        // Children first, then own.
        let mut s = ReduceSlot::new(2);
        assert!(s.on_child(RankId::new(1), LoadSummary::of(1.0)).is_none());
        assert!(s.on_child(RankId::new(2), LoadSummary::of(2.0)).is_none());
        let done = s.contribute(LoadSummary::of(3.0)).unwrap();
        assert_eq!(done.total, 6.0);
        assert_eq!(done.count, 3);

        // Own first, then children.
        let mut s = ReduceSlot::new(2);
        assert!(s.contribute(LoadSummary::of(3.0)).is_none());
        assert!(s.on_child(RankId::new(1), LoadSummary::of(1.0)).is_none());
        let done = s.on_child(RankId::new(2), LoadSummary::of(2.0)).unwrap();
        assert_eq!(done.max, 3.0);
    }

    #[test]
    fn reduce_slot_folds_in_canonical_order() {
        // FP addition is order-sensitive; the slot must fold own-first,
        // children-by-rank, no matter the arrival order.
        let a = LoadSummary::of(0.1);
        let b = LoadSummary::of(0.2);
        let own = LoadSummary::of(0.3);
        let mut s1 = ReduceSlot::new(2);
        s1.on_child(RankId::new(1), a);
        s1.on_child(RankId::new(2), b);
        let r1 = s1.contribute(own).unwrap();
        let mut s2 = ReduceSlot::new(2);
        s2.contribute(own);
        s2.on_child(RankId::new(2), b);
        let r2 = s2.on_child(RankId::new(1), a).unwrap();
        assert_eq!(r1.total.to_bits(), r2.total.to_bits());
        assert_eq!(r1.max.to_bits(), r2.max.to_bits());
        assert_eq!(r1.count, r2.count);
    }

    #[test]
    fn leaf_slot_completes_on_contribution() {
        let mut s = ReduceSlot::new(0);
        let done = s.contribute(LoadSummary::of(5.0)).unwrap();
        assert_eq!(done.total, 5.0);
    }

    #[test]
    fn whole_tree_reduce_sums_the_survivors() {
        // Seven ranks each contributing `rank + 1`: first with nobody
        // dead (the plain full tree), then with ranks 1 and 4 dead — the
        // five survivors renumber to 0..5 and every contribution still
        // reaches the lowest survivor, the root.
        for (dead, want) in [(vec![], (28.0, 7.0, 7)), (vec![1, 4], (21.0, 7.0, 5))] {
            let dead: BTreeSet<RankId> = dead.into_iter().map(RankId::new).collect();
            let live: Vec<RankId> = (0..7u32)
                .map(RankId::new)
                .filter(|r| !dead.contains(r))
                .collect();
            let mut seats: HashMap<RankId, SurvivorTree> = live
                .iter()
                .map(|&r| {
                    let mut seat = SurvivorTree::new(r, 7);
                    seat.rebuild(live.len());
                    (r, seat)
                })
                .collect();
            // Partials queued as (target, sender, partial).
            let mut inbox: Vec<(RankId, RankId, LoadSummary)> = Vec::new();
            let mut root_result = None;
            for &r in &live {
                let own = LoadSummary::of((r.as_u32() + 1) as f64);
                match seats.get_mut(&r).unwrap().contribute(&dead, 9, own) {
                    Some(Reduced::Up(parent, partial)) => inbox.push((parent, r, partial)),
                    Some(Reduced::Root(total)) => root_result = Some(total),
                    None => {}
                }
            }
            while let Some((to, from, partial)) = inbox.pop() {
                assert!(!dead.contains(&to), "partials only flow among survivors");
                match seats
                    .get_mut(&to)
                    .unwrap()
                    .on_child(&dead, 9, from, partial)
                {
                    Some(Reduced::Up(parent, partial)) => inbox.push((parent, to, partial)),
                    Some(Reduced::Root(total)) => root_result = Some(total),
                    None => {}
                }
            }
            let total = root_result.expect("root must complete");
            assert_eq!((total.total, total.max, total.count), want);
            // Children are named by rank id and span every survivor but
            // the root exactly once.
            let mut seen: Vec<RankId> = live
                .iter()
                .flat_map(|r| seats[r].children(&dead).collect::<Vec<_>>())
                .collect();
            seen.sort_unstable();
            assert_eq!(seen, live[1..]);
        }
    }

    #[test]
    fn completed_slots_are_released_and_reduce_the_same() {
        // A setup reduce (slot 0) and five evaluation reduces on a 7-rank
        // tree. Even slots contribute root first, so inner ranks complete
        // on their last child's partial; odd slots contribute leaves
        // first, so inner ranks complete on their own contribution.
        let dead = BTreeSet::new();
        let mut seats: Vec<SurvivorTree> = (0..7u32)
            .map(|r| SurvivorTree::new(RankId::new(r), 7))
            .collect();
        for slot in 0..6u32 {
            let value = |r: u32| LoadSummary::of(f64::from((r + 1) * (slot + 1)));
            let order: Vec<u32> = if slot % 2 == 0 {
                (0..7).collect()
            } else {
                (0..7).rev().collect()
            };
            let mut root = None;
            for r in order {
                let mut step = seats[r as usize].contribute(&dead, slot, value(r));
                let mut at = r;
                while let Some(reduced) = step {
                    match reduced {
                        Reduced::Up(parent, partial) => {
                            step = seats[parent.as_usize()].on_child(
                                &dead,
                                slot,
                                RankId::new(at),
                                partial,
                            );
                            at = parent.as_u32();
                        }
                        Reduced::Root(total) => {
                            root = Some(total);
                            step = None;
                        }
                    }
                }
            }
            let total = root.expect("the root completes every slot");
            let k = f64::from(slot + 1);
            assert_eq!(
                (total.total, total.max, total.count),
                (28.0 * k, 7.0 * k, 7)
            );
            assert!(
                seats.iter().all(|s| s.slots.is_empty()),
                "slot {slot}: a finished reduce is still held"
            );
        }
    }
}
