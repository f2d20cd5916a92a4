//! Property tests pinning the dense CMF to a naive map-based reference
//! implementation of Algorithm 2's BUILDCMF: same support, same
//! probabilities, and — decisive for reproducibility — the same sampled
//! recipient for the same RNG stream. This is the contract that let the
//! `BTreeMap`-shaped knowledge/CMF path be replaced by dense arrays
//! without perturbing a single sampled transfer target.
//!
//! The transfer stage keeps one CMF across its loop and brings it up to
//! date after each accepted proposal with [`Cmf::raise`] instead of
//! rebuilding it; that kept CMF is pinned to a fresh [`Cmf::build`] the
//! same way, bit for bit.

use proptest::prelude::*;
use rand::Rng;
use std::collections::BTreeMap;
use tempered_core::prelude::*;

/// Reference BUILDCMF over a plain map plus an insertion-order log —
/// the shape the original implementation had. First insertion of a rank
/// wins (duplicate gossip never overwrites), iteration follows
/// insertion order (the documented deterministic CMF order).
struct RefCmf {
    ranks: Vec<RankId>,
    cumulative: Vec<f64>,
}

fn reference_build(pairs: &[(u32, f64)], l_ave: f64, kind: CmfKind) -> Option<RefCmf> {
    let mut by_rank: BTreeMap<u32, f64> = BTreeMap::new();
    let mut order: Vec<u32> = Vec::new();
    for &(r, l) in pairs {
        by_rank.entry(r).or_insert_with(|| {
            order.push(r);
            l
        });
    }
    let l_s = match kind {
        CmfKind::Original => l_ave,
        CmfKind::Modified => by_rank.values().fold(l_ave, |m, &l| m.max(l)),
    };
    if l_s <= 0.0 {
        return None;
    }
    let mut ranks = Vec::new();
    let mut cumulative = Vec::new();
    let mut acc = 0.0f64;
    for &r in &order {
        let w = 1.0 - by_rank[&r] / l_s;
        if w > 0.0 {
            acc += w;
            ranks.push(RankId::new(r));
            cumulative.push(acc);
        }
    }
    if ranks.is_empty() {
        None
    } else {
        Some(RefCmf { ranks, cumulative })
    }
}

impl RefCmf {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> RankId {
        let z = *self.cumulative.last().expect("non-empty");
        let u = rng.gen::<f64>() * z;
        let idx = self.cumulative.partition_point(|&c| c <= u);
        self.ranks[idx.min(self.ranks.len() - 1)]
    }
}

fn pairs_strategy() -> impl Strategy<Value = Vec<(u32, f64)>> {
    // Rank ids crossing the dense path's SCAN_MAX bitset switch, loads
    // spanning zero, sub-average, and above-average (dropped under
    // `Original`, rescaled under `Modified`).
    prop::collection::vec((0u32..200, 0.0f64..2.0), 1..80)
}

proptest! {
    #[test]
    fn dense_cmf_matches_reference(
        pairs in pairs_strategy(),
        l_ave in 0.0f64..1.5,
        kind in any::<bool>().prop_map(|b| if b { CmfKind::Original } else { CmfKind::Modified }),
        seed in 0u64..1000,
    ) {
        let knowledge: Knowledge = pairs
            .iter()
            .map(|&(r, l)| (RankId::new(r), Load::new(l)))
            .collect();
        let dense = Cmf::build(&knowledge, Load::new(l_ave), kind);
        let reference = reference_build(&pairs, l_ave, kind);

        match (dense, reference) {
            (None, None) => {}
            (Some(d), Some(r)) => {
                prop_assert_eq!(d.support(), r.ranks.as_slice());
                for i in 0..d.support().len() {
                    let prev = if i == 0 { 0.0 } else { r.cumulative[i - 1] };
                    let z = *r.cumulative.last().unwrap();
                    let want = (r.cumulative[i] - prev) / z;
                    prop_assert_eq!(d.probability(i).to_bits(), want.to_bits());
                }
                // Sample-identity: the same seeded stream must pick the
                // same recipient, bit for bit, draw after draw.
                let factory = RngFactory::new(seed);
                let mut s1 = factory.rank_stream(b"cmf-prop", 0, 0);
                let mut s2 = factory.rank_stream(b"cmf-prop", 0, 0);
                for _ in 0..32 {
                    prop_assert_eq!(d.sample(&mut s1), r.sample(&mut s2));
                }
            }
            (d, r) => prop_assert!(
                false,
                "support emptiness diverged: dense={:?} reference={:?}",
                d.map(|c| c.support().len()),
                r.map(|c| c.ranks.len()),
            ),
        }
    }

    #[test]
    fn a_raised_cmf_matches_a_fresh_build(
        pairs in pairs_strategy(),
        l_ave in 0.0f64..1.5,
        kind in any::<bool>().prop_map(|b| if b { CmfKind::Original } else { CmfKind::Modified }),
        bumps in prop::collection::vec((0usize..80, any::<bool>(), 0.0f64..1.0), 1..24),
        seed in 0u64..1000,
    ) {
        let mut knowledge: Knowledge = pairs
            .iter()
            .map(|&(r, l)| (RankId::new(r), Load::new(l)))
            .collect();
        knowledge.canonicalize();
        let l_ave = Load::new(l_ave);
        let mut kept = Cmf::default();
        kept.rebuild(&knowledge, l_ave, kind);
        let factory = RngFactory::new(seed);
        for (at, zero, delta) in bumps {
            // Line 12 bumps the recipient's estimate, then the loop asks
            // the kept CMF for the next candidate.
            let rank = knowledge.ranks()[at % knowledge.len()];
            let delta = if zero { 0.0 } else { delta };
            knowledge.add_to_load(rank, Load::new(delta));
            let viable = kept.raise(&knowledge, kind, rank);
            let fresh = Cmf::build(&knowledge, l_ave, kind);
            prop_assert_eq!(viable, fresh.is_some());
            let Some(fresh) = fresh else { continue };
            prop_assert_eq!(kept.support(), fresh.support());
            let bits = |c: &Cmf| c.cumulative().iter().map(|w| w.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(bits(&kept), bits(&fresh));
            let mut s1 = factory.rank_stream(b"cmf-raise", 0, 0);
            let mut s2 = factory.rank_stream(b"cmf-raise", 0, 0);
            for _ in 0..8 {
                prop_assert_eq!(kept.sample(&mut s1), fresh.sample(&mut s2));
            }
        }
    }
}
