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

    /// Depth of the tree (edges on the longest root-to-leaf path).
    pub fn depth(&self) -> usize {
        if self.num_ranks <= 1 {
            0
        } else {
            (usize::BITS - self.num_ranks.leading_zeros()) as usize - 1
        }
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
    fn tree_depth_is_logarithmic() {
        assert_eq!(Tree::new(1, RankId::new(0)).depth(), 0);
        assert_eq!(Tree::new(2, RankId::new(0)).depth(), 1);
        assert_eq!(Tree::new(8, RankId::new(0)).depth(), 3);
        assert_eq!(Tree::new(400, RankId::new(0)).depth(), 8);
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
    fn whole_tree_reduce_sums_everything() {
        // Drive slots manually over a 7-rank tree: leaves → root.
        let n = 7;
        let tree = Tree::new(n, RankId::new(0));
        let mut slots: Vec<ReduceSlot> = (0..n)
            .map(|r| ReduceSlot::new(tree.children(RankId::from(r)).len()))
            .collect();
        // Messages queued as (target, sender, partial).
        let mut inbox: Vec<(usize, usize, LoadSummary)> = Vec::new();
        for (r, slot) in slots.iter_mut().enumerate() {
            if let Some(done) = slot.contribute(LoadSummary::of((r + 1) as f64)) {
                if let Some(p) = tree.parent(RankId::from(r)) {
                    inbox.push((p.as_usize(), r, done));
                }
            }
        }
        let mut root_result = None;
        while let Some((t, from, partial)) = inbox.pop() {
            if let Some(done) = slots[t].on_child(RankId::from(from), partial) {
                match tree.parent(RankId::from(t)) {
                    Some(p) => inbox.push((p.as_usize(), t, done)),
                    None => root_result = Some(done),
                }
            }
        }
        let total = root_result.expect("root must complete");
        assert_eq!(total.total, 28.0); // 1+2+...+7
        assert_eq!(total.max, 7.0);
        assert_eq!(total.count, 7);
    }
}
