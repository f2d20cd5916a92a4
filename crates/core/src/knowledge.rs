//! Partial knowledge of underloaded ranks: `S^p` and `LOAD^p()`.
//!
//! During the gossip stage every rank accumulates a set `S^p` of known
//! underloaded ranks together with a map `LOAD^p()` of their loads
//! (Algorithm 1). During the transfer stage the *local estimates* in
//! `LOAD^p()` are updated as transfers are proposed (Algorithm 2, line 12)
//! even though the remote rank is never consulted — this deliberate
//! imprecision is a defining property of the protocol.
//!
//! `Knowledge` stores the set in insertion order, which gives a
//! *deterministic* iteration order for CMF construction — iterating a hash
//! map here would make sampled transfer targets depend on hasher state and
//! destroy run-to-run reproducibility. Membership is answered without any
//! hashing: small sets (the common case under a gossip knowledge cap) are
//! scanned linearly over the dense `ranks` array, and once a set outgrows
//! `SCAN_MAX` a lazily-grown bitset takes over, sized by the highest
//! rank id actually seen — so per-rank memory stays proportional to what
//! the rank *knows*, not to the system size. Position lookups
//! ([`Knowledge::load_of`], [`Knowledge::add_to_load`]) binary-search when
//! the entries are in canonical rank order (the transfer stage always
//! canonicalizes first) and fall back to a linear scan otherwise.
//!
//! Canonical (ascending rank) order is produced by
//! [`Knowledge::canonicalize`], and only a reader asks for it: a rank
//! about to send its set or to run the transfer stage on it. At or below
//! `SCAN_MAX` entries that is a comparison sort of a few cache lines.
//! Above it the bitset is the set in rank order already, so each entry's
//! index is the count of members below it (popcounts, no comparisons)
//! and the entries are scattered into place in one pass.
//!
//! The set is filled by one entry point, [`Knowledge::merge_from`], and
//! the same bitset makes it branch-free: above `SCAN_MAX` a gossiped
//! pair is written at the tail slot whether or not its rank is known,
//! and the length advances by the membership bit it found clear.

use crate::ids::RankId;
use crate::load::Load;
use std::sync::Arc;

/// Sets up to this size answer membership by scanning the dense rank
/// array; larger sets switch to the bitset. Scanning 32 × 4-byte ids is
/// a handful of cache lines — cheaper than maintaining (and zeroing) a
/// bitset for the many tiny knowledge sets gossip creates.
const SCAN_MAX: usize = 32;

/// A rank's accumulated view of underloaded peers (`S^p` + `LOAD^p()`).
#[derive(Clone, Debug)]
pub struct Knowledge {
    ranks: Vec<RankId>,
    loads: Vec<Load>,
    /// Membership bitset over rank ids; empty until `len > SCAN_MAX`,
    /// then grown lazily to the highest member id.
    bits: Vec<u64>,
    /// Whether `ranks` is in strictly ascending order. `true` after
    /// [`Knowledge::canonicalize`] and preserved by in-order appends.
    sorted: bool,
}

impl Default for Knowledge {
    fn default() -> Self {
        Knowledge {
            ranks: Vec::new(),
            loads: Vec::new(),
            bits: Vec::new(),
            sorted: true,
        }
    }
}

impl Knowledge {
    /// Empty knowledge.
    pub fn new() -> Self {
        Knowledge::default()
    }

    /// Number of known underloaded ranks, `|S^p|`.
    #[inline]
    pub fn len(&self) -> usize {
        self.ranks.len()
    }

    /// Whether no underloaded ranks are known.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.ranks.is_empty()
    }

    /// Whether `rank ∈ S^p`.
    #[inline]
    pub fn contains(&self, rank: RankId) -> bool {
        if self.bits.is_empty() {
            self.ranks.contains(&rank)
        } else {
            let i = rank.as_usize();
            (i >> 6) < self.bits.len() && self.bits[i >> 6] & (1u64 << (i & 63)) != 0
        }
    }

    /// Index of `rank` in the dense arrays, if known.
    #[inline]
    fn position(&self, rank: RankId) -> Option<usize> {
        if !self.bits.is_empty() && !self.contains(rank) {
            return None;
        }
        if self.sorted {
            self.ranks.binary_search(&rank).ok()
        } else {
            self.ranks.iter().position(|&r| r == rank)
        }
    }

    /// The locally-known load of `rank`, if known.
    #[inline]
    pub fn load_of(&self, rank: RankId) -> Option<Load> {
        self.position(rank).map(|i| self.loads[i])
    }

    #[inline]
    fn set_bit(&mut self, rank: RankId) {
        let i = rank.as_usize();
        let word = i >> 6;
        if word >= self.bits.len() {
            self.bits.resize(word + 1, 0);
        }
        self.bits[word] |= 1u64 << (i & 63);
    }

    /// Insert `rank ↦ load`; keeps the existing entry if already known
    /// (gossip re-delivers the same pre-LB measurement, and a local
    /// estimate updated during transfer must not be clobbered by a stale
    /// gossip copy).
    pub fn insert(&mut self, rank: RankId, load: Load) -> bool {
        if self.contains(rank) {
            return false;
        }
        self.sorted = self.sorted && self.ranks.last().is_none_or(|&last| last < rank);
        if !self.bits.is_empty() {
            self.set_bit(rank);
        } else if self.ranks.len() >= SCAN_MAX {
            // Outgrew the scan threshold: build the bitset once, sized
            // for the highest member, covering every existing member plus
            // the newcomer.
            let top = self.ranks.iter().fold(rank, |top, &r| top.max(r));
            self.bits = vec![0; (top.as_usize() >> 6) + 1];
            for i in 0..self.ranks.len() {
                let r = self.ranks[i];
                self.set_bit(r);
            }
            self.set_bit(rank);
        }
        self.ranks.push(rank);
        self.loads.push(load);
        true
    }

    /// Union with `(rank, load)` pairs — a decoded gossip payload
    /// (Algorithm 1 lines 16–17). Returns the number of newly learned
    /// ranks; same first-copy-wins semantics, insertion order and
    /// canonical-order tracking as calling [`Knowledge::insert`] pair by
    /// pair, which is what a set on the scan path does.
    ///
    /// Above `SCAN_MAX` about every other gossiped pair is already known,
    /// so a membership test per pair is a branch the predictor loses.
    /// The bitset path has none: every pair is written at the tail slot,
    /// its bit is OR-ed in, and the length advances by whether the bit
    /// was clear — a known rank's copy is simply overwritten by the next
    /// pair. A full vector falls back to `insert`, which grows it only
    /// for a rank that is new: a payload of known ranks never moves
    /// either vector's capacity, and so never the rank's resident memory.
    pub fn merge_from(&mut self, pairs: impl IntoIterator<Item = (RankId, Load)>) -> usize {
        let before = self.len();
        for (rank, load) in pairs {
            let len = self.ranks.len();
            if self.bits.is_empty() || len == self.ranks.capacity() || len == self.loads.capacity()
            {
                self.insert(rank, load);
                continue;
            }
            let is_new = !self.contains(rank);
            self.set_bit(rank);
            self.sorted &= !is_new | (self.ranks[len - 1] < rank);
            self.ranks.push(rank);
            self.loads.push(load);
            self.ranks.truncate(len + usize::from(is_new));
            self.loads.truncate(len + usize::from(is_new));
        }
        self.len() - before
    }

    /// Update the local load estimate for a known rank (Algorithm 2
    /// line 12: `ℓ_x ← ℓ_x + LOAD(o_x)` after proposing a transfer).
    pub fn add_to_load(&mut self, rank: RankId, delta: Load) -> bool {
        if let Some(i) = self.position(rank) {
            self.loads[i] += delta;
            true
        } else {
            false
        }
    }

    /// Deterministic insertion-ordered view of `(rank, estimated load)`.
    pub fn entries(&self) -> impl Iterator<Item = (RankId, Load)> + '_ {
        self.ranks.iter().copied().zip(self.loads.iter().copied())
    }

    /// The known ranks in insertion order.
    pub fn ranks(&self) -> &[RankId] {
        &self.ranks
    }

    /// The known load estimates, parallel to [`Knowledge::ranks`].
    pub fn loads(&self) -> &[Load] {
        &self.loads
    }

    /// The maximum load estimate among known ranks (`max(LOAD^p)` on
    /// Algorithm 2 line 25); `None` if empty.
    pub fn max_known_load(&self) -> Option<Load> {
        self.loads.iter().copied().reduce(|a, b| a.max(b))
    }

    /// Heap bytes this set holds, counting capacity: the rank and load
    /// vectors and the membership bitset.
    pub fn heap_bytes(&self) -> usize {
        self.ranks.capacity() * std::mem::size_of::<RankId>()
            + self.loads.capacity() * std::mem::size_of::<Load>()
            + self.bits.capacity() * std::mem::size_of::<u64>()
    }

    /// Whether the entries are in ascending rank order — what
    /// [`Knowledge::canonicalize`] establishes and in-order inserts keep.
    /// CMF construction iterates entries in order, so the transfer stage
    /// asserts this of the knowledge it is handed.
    #[inline]
    pub fn is_canonical(&self) -> bool {
        self.sorted
    }

    /// Re-order entries into ascending rank order (load estimates are
    /// preserved).
    ///
    /// Gossip accumulates entries in arrival order, which differs between
    /// the analysis-mode driver and the asynchronous runtime (and, there,
    /// between message interleavings). Since CMF construction iterates
    /// entries in order, both execution modes canonicalize to rank order
    /// before the transfer stage so that sampled transfer targets are a
    /// pure function of the knowledge *set*, not of message timing.
    ///
    /// Already-canonical knowledge (tracked by the `sorted` flag) returns
    /// immediately. A set still on the scan path (at most `SCAN_MAX`
    /// entries) is comparison-sorted. A larger one owns a membership
    /// bitset that already *is* the set in rank order, so no entry is
    /// compared with another: an entry's canonical index is the number of
    /// members below it — a popcount prefix over the bitset's words plus
    /// the popcount of the low bits of its own word — and one scatter
    /// pass places every `(rank, load)`, O(n + P/64). Either way the
    /// scratch is transient and `ranks`/`loads` are rewritten in place:
    /// their capacity, and so the rank's resident memory, is untouched.
    pub fn canonicalize(&mut self) {
        if self.sorted {
            return;
        }
        let pairs = self.pairs_in_rank_order();
        for (i, &(r, l)) in pairs.iter().enumerate() {
            self.ranks[i] = r;
            self.loads[i] = Load(l);
        }
        self.sorted = true;
    }

    /// The `(rank, load)` pairs in ascending rank order, as one shared
    /// allocation: a gossip payload, and the scratch
    /// [`Knowledge::canonicalize`] orders the set through. The set itself
    /// keeps its order. A canonical set is copied straight in and a set
    /// on the bitset path is scattered straight into place; only a small
    /// unsorted one (at most `SCAN_MAX` entries) is sorted in a vector
    /// first.
    pub fn pairs_in_rank_order(&self) -> Arc<[(RankId, f64)]> {
        let pair = |(r, l): (RankId, Load)| (r, l.get());
        if self.sorted {
            return self.entries().map(pair).collect();
        }
        if self.bits.is_empty() {
            let mut pairs: Vec<(RankId, f64)> = self.entries().map(pair).collect();
            pairs.sort_unstable_by_key(|&(r, _)| r);
            return pairs.into();
        }
        let mut pairs: Arc<[(RankId, f64)]> =
            std::iter::repeat_n((RankId::new(0), 0.0), self.len()).collect();
        let slots = Arc::get_mut(&mut pairs).expect("a new allocation is not shared");
        // `below[w]` = members in words before `w`.
        let mut members = 0usize;
        let below: Vec<usize> = self
            .bits
            .iter()
            .map(|word| {
                let before = members;
                members += word.count_ones() as usize;
                before
            })
            .collect();
        // Ranks are distinct, so the indices are a permutation of
        // `0..len` and every slot is overwritten.
        for (r, l) in self.entries() {
            let i = r.as_usize();
            let low_mask = (1u64 << (i & 63)) - 1;
            let at = below[i >> 6] + (self.bits[i >> 6] & low_mask).count_ones() as usize;
            slots[at] = (r, l.get());
        }
        pairs
    }
}

impl PartialEq for Knowledge {
    fn eq(&self, other: &Self) -> bool {
        self.ranks == other.ranks && self.loads == other.loads
    }
}

impl FromIterator<(RankId, Load)> for Knowledge {
    fn from_iter<T: IntoIterator<Item = (RankId, Load)>>(iter: T) -> Self {
        let iter = iter.into_iter();
        let mut k = Knowledge::new();
        let (lo, hi) = iter.size_hint();
        let cap = hi.unwrap_or(lo);
        k.ranks.reserve(cap);
        k.loads.reserve(cap);
        for (r, l) in iter {
            k.insert(r, l);
        }
        k
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn k(pairs: &[(u32, f64)]) -> Knowledge {
        pairs
            .iter()
            .map(|&(r, l)| (RankId::new(r), Load::new(l)))
            .collect()
    }

    #[test]
    fn insert_preserves_first_value() {
        let mut kn = k(&[(1, 0.5)]);
        assert!(!kn.insert(RankId::new(1), Load::new(9.0)));
        assert_eq!(kn.load_of(RankId::new(1)), Some(Load::new(0.5)));
        assert_eq!(kn.len(), 1);
    }

    #[test]
    fn iteration_order_is_insertion_order() {
        let mut a = Knowledge::new();
        a.insert(RankId::new(5), Load::new(1.0));
        a.insert(RankId::new(1), Load::new(2.0));
        a.insert(RankId::new(9), Load::new(3.0));
        let ranks: Vec<_> = a.entries().map(|(r, _)| r.as_u32()).collect();
        assert_eq!(ranks, vec![5, 1, 9]);
    }

    #[test]
    fn add_to_load_updates_estimate() {
        let mut a = k(&[(1, 0.5)]);
        assert!(a.add_to_load(RankId::new(1), Load::new(0.25)));
        assert_eq!(a.load_of(RankId::new(1)), Some(Load::new(0.75)));
        assert!(!a.add_to_load(RankId::new(7), Load::new(1.0)));
    }

    #[test]
    fn max_known_load() {
        assert_eq!(Knowledge::new().max_known_load(), None);
        let a = k(&[(1, 0.5), (2, 2.0), (3, 1.0)]);
        assert_eq!(a.max_known_load(), Some(Load::new(2.0)));
    }

    #[test]
    fn pairs_roundtrip() {
        let a = k(&[(4, 0.5), (2, 2.0)]);
        let mut b = Knowledge::new();
        b.merge_from(a.entries());
        assert_eq!(a, b);
    }

    #[test]
    fn canonicalize_sorts_by_rank_and_keeps_loads() {
        let mut a = k(&[(9, 3.0), (1, 2.0), (5, 1.0)]);
        a.add_to_load(RankId::new(1), Load::new(0.5));
        a.canonicalize();
        let order: Vec<_> = a.entries().map(|(r, _)| r.as_u32()).collect();
        assert_eq!(order, vec![1, 5, 9]);
        // Lookups still consistent after re-ordering:
        assert_eq!(a.load_of(RankId::new(1)), Some(Load::new(2.5)));
        assert_eq!(a.load_of(RankId::new(9)), Some(Load::new(3.0)));
        assert!(a.add_to_load(RankId::new(5), Load::new(1.0)));
        assert_eq!(a.load_of(RankId::new(5)), Some(Load::new(2.0)));
    }

    #[test]
    fn canonicalize_keeps_the_vectors_capacity() {
        // A shrunk vector would reallocate on the next gossip merge, and
        // a grown one would move the rank's resident memory. Both paths.
        for n in [SCAN_MAX as u32 / 2, SCAN_MAX as u32 * 4] {
            let mut a = Knowledge::new();
            a.ranks.reserve(1000);
            a.loads.reserve(1000);
            for i in 0..n {
                a.insert(RankId::new((i * 389) % 997), Load::new(f64::from(i)));
            }
            assert!(!a.is_canonical());
            let before = (a.ranks.capacity(), a.loads.capacity());
            a.canonicalize();
            assert!(a.is_canonical());
            assert!(a.ranks().windows(2).all(|w| w[0] < w[1]));
            assert_eq!((a.ranks.capacity(), a.loads.capacity()), before);
        }
    }

    #[test]
    fn merging_known_ranks_into_a_full_set_keeps_its_capacity() {
        // The tail write needs a free slot; a full vector must not grow
        // to make one for a payload that teaches nothing.
        let n = SCAN_MAX as u32 * 4;
        let pairs =
            |load: f64| (0..n).map(move |i| (RankId::new((i * 389) % 997), Load::new(load)));
        let mut a = Knowledge::new();
        a.merge_from(pairs(1.0));
        a.ranks.shrink_to_fit();
        a.loads.shrink_to_fit();
        assert!(!a.bits.is_empty(), "on the bitset path");
        assert_eq!(a.len(), a.ranks.capacity());
        assert_eq!(a.len(), a.loads.capacity());
        let before = (a.ranks.capacity(), a.loads.capacity());
        assert_eq!(a.merge_from(pairs(9.0)), 0);
        assert_eq!((a.ranks.capacity(), a.loads.capacity()), before);
        assert!(
            a.loads().iter().all(|&l| l == Load::new(1.0)),
            "first copy wins"
        );
        // One new rank among known ones grows the set by exactly it.
        let news = [
            (RankId::new(0), Load::new(9.0)),
            (RankId::new(998), Load::new(2.0)),
        ];
        assert_eq!(a.merge_from(news), 1);
        assert_eq!(a.load_of(RankId::new(998)), Some(Load::new(2.0)));
        assert_eq!(a.len(), n as usize + 1);
    }

    #[test]
    fn bitset_upgrade_preserves_membership_and_order() {
        // Cross the SCAN_MAX threshold with shuffled high rank ids: the
        // lazily-built bitset must answer membership for every member and
        // nothing else, and insertion order must be untouched.
        let ids: Vec<u32> = (0..(SCAN_MAX as u32 + 20))
            .map(|i| (i * 37) % 997)
            .collect();
        let mut a = Knowledge::new();
        for &r in &ids {
            assert!(a.insert(RankId::new(r), Load::new(f64::from(r) * 0.25)));
        }
        assert_eq!(a.len(), ids.len());
        let order: Vec<u32> = a.entries().map(|(r, _)| r.as_u32()).collect();
        assert_eq!(order, ids);
        for &r in &ids {
            assert!(a.contains(RankId::new(r)));
            assert!(!a.insert(RankId::new(r), Load::new(0.0)), "dup accepted");
            assert_eq!(
                a.load_of(RankId::new(r)),
                Some(Load::new(f64::from(r) * 0.25))
            );
        }
        assert!(!a.contains(RankId::new(998)));
        assert_eq!(a.load_of(RankId::new(998)), None);
        // Canonicalize on the upgraded set: lookups switch to binary
        // search and must agree.
        a.canonicalize();
        for &r in &ids {
            assert_eq!(
                a.load_of(RankId::new(r)),
                Some(Load::new(f64::from(r) * 0.25))
            );
        }
    }

    #[test]
    fn in_order_appends_keep_canonical_order_cheap() {
        let mut a = Knowledge::new();
        for r in [1u32, 3, 7] {
            a.insert(RankId::new(r), Load::new(1.0));
        }
        // Appends were in ascending rank order, so canonicalize is a
        // no-op and binary-search lookups are already valid.
        a.canonicalize();
        assert_eq!(a.load_of(RankId::new(3)), Some(Load::new(1.0)));
        // An out-of-order append drops back to scan lookups until the
        // next canonicalize.
        a.insert(RankId::new(2), Load::new(0.5));
        assert_eq!(a.load_of(RankId::new(2)), Some(Load::new(0.5)));
        a.canonicalize();
        let order: Vec<u32> = a.entries().map(|(r, _)| r.as_u32()).collect();
        assert_eq!(order, vec![1, 2, 3, 7]);
    }

    #[test]
    fn heap_bytes_counts_capacity() {
        assert_eq!(Knowledge::new().heap_bytes(), 0);
        let big: Knowledge = (0..200u32)
            .map(|r| (RankId::new(r * 3), Load::new(1.0)))
            .collect();
        let want = big.ranks.capacity() * 4 + big.loads.capacity() * 8 + big.bits.capacity() * 8;
        assert!(!big.bits.is_empty(), "a large set keeps a bitset");
        assert_eq!(big.heap_bytes(), want);
        assert!(want >= 200 * 12);
    }

    #[test]
    fn pairs_come_out_in_rank_order_and_the_set_keeps_its_own() {
        // Small and unsorted, on the bitset path and unsorted, and
        // canonical: the payload is the canonical set's entries each time.
        for n in [5u32, 200] {
            let ranks: Vec<u32> = (0..n).map(|i| (i * 173 + 11) % 401).collect();
            let a: Knowledge = ranks
                .iter()
                .map(|&r| (RankId::new(r), Load::new(f64::from(r) + 0.5)))
                .collect();
            assert!(!a.is_canonical());
            let mut canonical = a.clone();
            canonical.canonicalize();
            let want: Vec<(RankId, f64)> = canonical.entries().map(|(r, l)| (r, l.get())).collect();
            assert_eq!(*a.pairs_in_rank_order(), *want);
            assert_eq!(*canonical.pairs_in_rank_order(), *want);
            let order: Vec<u32> = a.entries().map(|(r, _)| r.as_u32()).collect();
            assert_eq!(order, ranks, "the set is not reordered");
        }
    }
}
