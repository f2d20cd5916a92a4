//! Cumulative mass function for transfer-target selection.
//!
//! Algorithm 2 (lines 21–32) selects the recipient of a proposed transfer
//! by sampling a probability mass function over the known underloaded
//! ranks, weighted by their available capacity relative to a scale `ℓ_s`:
//!
//! ```text
//! z   = Σ_i (1 − LOAD^p(i)/ℓ_s)
//! p_i = (1 − LOAD^p(i)/ℓ_s) / z
//! ```
//!
//! * **Original** (GrapevineLB): `ℓ_s = ℓ_ave`. Valid only while every
//!   known load is below `ℓ_ave` — true at gossip time by construction,
//!   but not after local estimates are bumped by proposed transfers.
//! * **Modified** (TemperedLB, §V-C): `ℓ_s = max(ℓ_ave, max LOAD^p)`.
//!   Keeps every weight non-negative even when the relaxed criterion has
//!   pushed an estimate above average, so formerly-underloaded ranks stay
//!   candidates as long as they remain *relatively* attractive.
//!
//! Ranks whose weight is non-positive (estimate ≥ `ℓ_s`) are excluded from
//! the support rather than clamped: a clamped zero-weight entry could
//! still be returned by boundary samples, and the original algorithm's
//! intent is that such ranks are simply not selectable.

use crate::ids::RankId;
use crate::knowledge::Knowledge;
use crate::load::Load;
use rand::Rng;

/// Which CMF construction Algorithm 2's `BUILDCMF` uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum CmfKind {
    /// GrapevineLB: scale by `ℓ_ave`, built once before the transfer loop.
    Original,
    /// TemperedLB (§V-C): scale by `max(ℓ_ave, max LOAD^p)`, rebuilt for
    /// every candidate so updated estimates are reflected (§V-A change 3).
    #[default]
    Modified,
}

impl std::fmt::Display for CmfKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CmfKind::Original => write!(f, "original"),
            CmfKind::Modified => write!(f, "modified"),
        }
    }
}

/// A sampleable cumulative mass function over candidate recipient ranks.
///
/// ```
/// use tempered_core::prelude::*;
///
/// // Two known underloaded ranks: an empty one and a half-full one.
/// let knowledge: Knowledge = [
///     (RankId::new(3), Load::new(0.0)),
///     (RankId::new(7), Load::new(0.5)),
/// ]
/// .into_iter()
/// .collect();
/// let cmf = Cmf::build(&knowledge, Load::new(1.0), CmfKind::Original).unwrap();
/// // The empty rank has twice the spare capacity → twice the probability.
/// assert!((cmf.probability(0) - 2.0 / 3.0).abs() < 1e-12);
/// let mut rng = RngFactory::new(1).rank_stream(b"doc", 0, 0);
/// assert!(cmf.support().contains(&cmf.sample(&mut rng)));
/// ```
#[derive(Clone, Debug, Default)]
pub struct Cmf {
    /// Candidate ranks with strictly positive weight, insertion-ordered.
    ranks: Vec<RankId>,
    /// Cumulative (unnormalized) weights, parallel to `ranks`;
    /// `cumulative.last()` is the normalizer `z`.
    cumulative: Vec<f64>,
}

impl Cmf {
    /// Build the CMF of Algorithm 2 lines 21–32 over `knowledge`.
    ///
    /// Returns `None` when the support is empty: no known rank has spare
    /// capacity under the chosen scale. The transfer loop treats this as
    /// "no viable recipient" and stops proposing transfers.
    pub fn build(knowledge: &Knowledge, l_ave: Load, kind: CmfKind) -> Option<Cmf> {
        let mut cmf = Cmf::default();
        cmf.rebuild(knowledge, l_ave, kind).then_some(cmf)
    }

    /// Rebuild this CMF in place over `knowledge`, reusing the existing
    /// buffers. Returns whether the support is non-empty (the in-place
    /// analogue of [`Cmf::build`] returning `Some`); on `false` the CMF
    /// must not be sampled.
    ///
    /// The weights and cumulative sums are computed in exactly the order
    /// and arithmetic of [`Cmf::build`], so a rebuilt CMF is
    /// bit-identical to a freshly built one — the transfer stage relies
    /// on this to cache the CMF across candidates without perturbing
    /// sampled targets.
    pub fn rebuild(&mut self, knowledge: &Knowledge, l_ave: Load, kind: CmfKind) -> bool {
        self.ranks.clear();
        self.cumulative.clear();
        let l_s = match kind {
            CmfKind::Original => l_ave,
            CmfKind::Modified => knowledge.max_known_load().map_or(l_ave, |m| m.max(l_ave)),
        };
        if l_s.is_zero() {
            return false;
        }
        self.ranks.reserve(knowledge.len());
        self.cumulative.reserve(knowledge.len());
        let mut acc = 0.0f64;
        for (rank, load) in knowledge.entries() {
            let w = 1.0 - load.get() / l_s.get();
            if w > 0.0 {
                acc += w;
                self.ranks.push(rank);
                self.cumulative.push(acc);
            }
        }
        !self.ranks.is_empty()
    }

    /// The selectable ranks (strictly positive weight).
    pub fn support(&self) -> &[RankId] {
        &self.ranks
    }

    /// The normalized selection probability of the `i`-th support entry.
    pub fn probability(&self, i: usize) -> f64 {
        let z = *self.cumulative.last().expect("non-empty by construction");
        let prev = if i == 0 { 0.0 } else { self.cumulative[i - 1] };
        (self.cumulative[i] - prev) / z
    }

    /// Sample a recipient rank (Algorithm 2 line 9: `p_x ∈ S^p using F`).
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> RankId {
        let z = *self.cumulative.last().expect("non-empty by construction");
        let u = rng.gen::<f64>() * z;
        // First index whose cumulative weight exceeds the draw.
        let idx = self.cumulative.partition_point(|&c| c <= u);
        // Guard the measure-zero edge where u == z exactly.
        self.ranks[idx.min(self.ranks.len() - 1)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn kn(pairs: &[(u32, f64)]) -> Knowledge {
        pairs
            .iter()
            .map(|&(r, l)| (RankId::new(r), Load::new(l)))
            .collect()
    }

    #[test]
    fn original_cmf_weights_by_spare_capacity() {
        // l_ave = 1.0; loads 0.0 and 0.5 → weights 1.0 and 0.5.
        let c = Cmf::build(
            &kn(&[(0, 0.0), (1, 0.5)]),
            Load::new(1.0),
            CmfKind::Original,
        )
        .unwrap();
        assert_eq!(c.support().len(), 2);
        assert!((c.probability(0) - 2.0 / 3.0).abs() < 1e-12);
        assert!((c.probability(1) - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn original_cmf_excludes_at_or_above_average() {
        let c = Cmf::build(
            &kn(&[(0, 1.0), (1, 1.5), (2, 0.5)]),
            Load::new(1.0),
            CmfKind::Original,
        )
        .unwrap();
        assert_eq!(c.support(), &[RankId::new(2)]);
        assert_eq!(c.probability(0), 1.0);
    }

    #[test]
    fn original_cmf_empty_when_all_overloaded() {
        assert!(Cmf::build(
            &kn(&[(0, 1.0), (1, 2.0)]),
            Load::new(1.0),
            CmfKind::Original
        )
        .is_none());
    }

    #[test]
    fn modified_cmf_keeps_above_average_ranks_selectable() {
        // Rank 1's estimate rose above average; modified scale is
        // max(1.0, 1.5) = 1.5 so rank 0 gets weight 1-0/1.5 = 1 and rank 1
        // weight 0 (excluded: it *is* the max).
        let c = Cmf::build(
            &kn(&[(0, 0.0), (1, 1.5)]),
            Load::new(1.0),
            CmfKind::Modified,
        )
        .unwrap();
        assert_eq!(c.support(), &[RankId::new(0)]);
        // Now with a third rank between average and max: still selectable.
        let c2 = Cmf::build(
            &kn(&[(0, 0.0), (1, 1.5), (2, 1.2)]),
            Load::new(1.0),
            CmfKind::Modified,
        )
        .unwrap();
        assert_eq!(c2.support(), &[RankId::new(0), RankId::new(2)]);
        assert!(c2.probability(0) > c2.probability(1));
    }

    #[test]
    fn modified_cmf_none_when_single_max_entry() {
        // Only one rank known and it defines the scale → weight 0.
        assert!(Cmf::build(&kn(&[(0, 2.0)]), Load::new(1.0), CmfKind::Modified).is_none());
    }

    #[test]
    fn empty_knowledge_gives_no_cmf() {
        assert!(Cmf::build(&Knowledge::new(), Load::new(1.0), CmfKind::Original).is_none());
        assert!(Cmf::build(&Knowledge::new(), Load::new(1.0), CmfKind::Modified).is_none());
    }

    #[test]
    fn zero_average_gives_no_cmf() {
        assert!(Cmf::build(&kn(&[(0, 0.0)]), Load::ZERO, CmfKind::Original).is_none());
    }

    #[test]
    fn sampling_matches_probabilities() {
        let c = Cmf::build(
            &kn(&[(0, 0.0), (1, 0.75)]),
            Load::new(1.0),
            CmfKind::Original,
        )
        .unwrap();
        // weights 1.0 and 0.25 → p0 = 0.8, p1 = 0.2.
        let mut rng = SmallRng::seed_from_u64(1234);
        let n = 200_000;
        let mut count0 = 0usize;
        for _ in 0..n {
            if c.sample(&mut rng) == RankId::new(0) {
                count0 += 1;
            }
        }
        let f0 = count0 as f64 / n as f64;
        assert!(
            (f0 - 0.8).abs() < 0.01,
            "empirical frequency {f0} too far from 0.8"
        );
    }

    #[test]
    fn sampling_singleton_support() {
        let c = Cmf::build(&kn(&[(7, 0.0)]), Load::new(1.0), CmfKind::Original).unwrap();
        let mut rng = SmallRng::seed_from_u64(9);
        for _ in 0..100 {
            assert_eq!(c.sample(&mut rng), RankId::new(7));
        }
    }
}
