//! Composable time-varying load generators for service shards.
//!
//! A shard's load at phase `p` is a *pure function* of
//! `(shard, num_shards, phase, seed)`: there is no sequential RNG state
//! to thread, so any driver — the discrete-event simulator, the
//! threaded executor, a rank process on the far side of a TCP socket —
//! can reproduce the exact same loads from the scenario description
//! alone. Randomness comes from hashing the coordinates through
//! [`derive_seed`]/SplitMix64, the same namespacing discipline the
//! balancers use.
//!
//! Generators compose multiplicatively over a base load:
//!
//! ```text
//! ℓ(s, p) = quantize( base · Π_g factor_g(s, p) )
//! ```
//!
//! and the product is snapped to the dyadic grid `2⁻¹⁰` — multiples of
//! a power of two sum bit-exactly in f64 regardless of order, which is
//! what lets cross-driver equivalence tests compare committed
//! assignments bit for bit (the same trick `runtime/tests/equivalence.rs`
//! plays with quarter-unit loads).

use tempered_core::rng::derive_seed;

/// The dyadic quantum all shard loads are snapped to.
pub const LOAD_QUANTUM: f64 = 1.0 / 1024.0;

/// Snap a non-negative value to the nearest multiple of [`LOAD_QUANTUM`].
#[inline]
pub fn quantize(x: f64) -> f64 {
    (x / LOAD_QUANTUM).round() * LOAD_QUANTUM
}

/// A deterministic uniform in `[0, 1)` hashed from `(seed, keys)`.
#[inline]
fn uniform(seed: u64, keys: &[u64]) -> f64 {
    // Top 53 bits of the mixed word, scaled: the standard u64→f64 map.
    (derive_seed(seed, keys) >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

// Per-generator derivation namespaces (arbitrary, fixed constants).
const KEY_DIURNAL: u64 = 0x5EC5_01D1;
const KEY_FLASH: u64 = 0x5EC5_F1A5;
const KEY_ZIPF: u64 = 0x5EC5_21BF;
const KEY_CHURN: u64 = 0x5EC5_C4C4;

/// One composable load dynamic.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum LoadGen {
    /// Diurnal sinusoid: each shard follows
    /// `1 + amplitude · sin(2π(phase/period + offset(s)))` with a
    /// per-shard phase offset drawn uniformly from `[0, spread)`.
    /// `spread = 0` moves every shard in lockstep (no relative
    /// imbalance); `spread = 1` scatters shards across the full cycle,
    /// the "users in different time zones" picture.
    Diurnal {
        /// Peak relative swing, in `[0, 1)` to keep loads positive.
        amplitude: f64,
        /// Cycle length in phases.
        period: f64,
        /// Per-shard phase-offset spread in cycles, `[0, 1]`.
        spread: f64,
    },
    /// Flash crowd: a hashed `hot_fraction` of shards ramp linearly to
    /// `1 + magnitude` over `ramp` phases starting at `start`, then
    /// decay linearly back to baseline over `decay` phases.
    FlashCrowd {
        /// First phase of the ramp.
        start: u64,
        /// Phases from baseline to peak.
        ramp: u64,
        /// Phases from peak back to baseline.
        decay: u64,
        /// Peak relative boost of a hot shard.
        magnitude: f64,
        /// Fraction of shards caught in the crowd, `(0, 1]`.
        hot_fraction: f64,
    },
    /// Zipf hot-key skew: shards are ranked by a hashed permutation and
    /// boosted by `boost / (1 + rank)^exponent`; every `rotate_every`
    /// phases the permutation is re-drawn, so *which* keys are hot
    /// drifts over time (cache-churn dynamics).
    Zipf {
        /// Skew exponent (1.0 ≈ classic Zipf).
        exponent: f64,
        /// Boost of the hottest shard.
        boost: f64,
        /// Phases between hot-set rotations (0 = never rotate).
        rotate_every: u64,
    },
    /// Session churn: i.i.d. multiplicative noise per `(shard, phase)`,
    /// uniform in `[1 − volatility, 1 + volatility]`.
    Churn {
        /// Half-width of the noise band, `[0, 1)`.
        volatility: f64,
    },
}

impl LoadGen {
    /// Short name for CSV columns and tables.
    pub fn name(&self) -> &'static str {
        match self {
            LoadGen::Diurnal { .. } => "diurnal",
            LoadGen::FlashCrowd { .. } => "flash_crowd",
            LoadGen::Zipf { .. } => "zipf",
            LoadGen::Churn { .. } => "churn",
        }
    }

    /// The multiplicative load factor of `shard` at `phase`.
    pub fn factor(&self, shard: u64, num_shards: u64, phase: u64, seed: u64) -> f64 {
        match *self {
            LoadGen::Diurnal {
                amplitude,
                period,
                spread,
            } => {
                let offset = spread * uniform(seed, &[KEY_DIURNAL, shard]);
                let angle = std::f64::consts::TAU * (phase as f64 / period + offset);
                1.0 + amplitude * angle.sin()
            }
            LoadGen::FlashCrowd {
                start,
                ramp,
                decay,
                magnitude,
                hot_fraction,
            } => {
                if uniform(seed, &[KEY_FLASH, shard]) >= hot_fraction {
                    return 1.0;
                }
                let envelope = if phase < start {
                    0.0
                } else if phase < start + ramp {
                    (phase - start) as f64 / ramp.max(1) as f64
                } else {
                    let past_peak = (phase - start - ramp) as f64;
                    (1.0 - past_peak / decay.max(1) as f64).max(0.0)
                };
                1.0 + magnitude * envelope
            }
            LoadGen::Zipf {
                exponent,
                boost,
                rotate_every,
            } => {
                let rotation = phase.checked_div(rotate_every).unwrap_or(0);
                // Hashed permutation position: deterministic, re-drawn
                // per rotation window. Collisions just mean two shards
                // share a heat rank — harmless for a load generator.
                let pos = derive_seed(seed, &[KEY_ZIPF, rotation, shard]) % num_shards.max(1);
                1.0 + boost / (1.0 + pos as f64).powf(exponent)
            }
            LoadGen::Churn { volatility } => {
                1.0 + volatility * (2.0 * uniform(seed, &[KEY_CHURN, shard, phase]) - 1.0)
            }
        }
    }
}

/// A composed workload: base load times every generator's factor,
/// snapped to the dyadic grid.
#[derive(Clone, Debug, PartialEq)]
pub struct Workload {
    /// Baseline per-shard load (seconds of work per phase).
    pub base_load: f64,
    /// Generators, applied multiplicatively.
    pub gens: Vec<LoadGen>,
    /// Master seed for all hashed randomness.
    pub seed: u64,
}

impl Workload {
    /// The load of `shard` (of `num_shards`) at `phase`.
    pub fn load(&self, shard: u64, num_shards: u64, phase: u64) -> f64 {
        let raw = self.gens.iter().fold(self.base_load, |acc, g| {
            acc * g.factor(shard, num_shards, phase, self.seed)
        });
        quantize(raw.max(0.0))
    }

    /// Underscore-joined generator names, labelling the workload in CSVs.
    pub fn label(&self) -> String {
        if self.gens.is_empty() {
            "steady".to_string()
        } else {
            self.gens
                .iter()
                .map(LoadGen::name)
                .collect::<Vec<_>>()
                .join("+")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diurnal() -> LoadGen {
        LoadGen::Diurnal {
            amplitude: 0.8,
            period: 24.0,
            spread: 1.0,
        }
    }

    #[test]
    fn factors_are_pure_functions() {
        for gen in [
            diurnal(),
            LoadGen::FlashCrowd {
                start: 4,
                ramp: 6,
                decay: 10,
                magnitude: 5.0,
                hot_fraction: 0.2,
            },
            LoadGen::Zipf {
                exponent: 1.1,
                boost: 8.0,
                rotate_every: 12,
            },
            LoadGen::Churn { volatility: 0.3 },
        ] {
            for (s, p) in [(0u64, 0u64), (7, 3), (999, 41)] {
                let a = gen.factor(s, 1000, p, 42);
                let b = gen.factor(s, 1000, p, 42);
                assert_eq!(a.to_bits(), b.to_bits(), "{gen:?} must be pure");
                assert!(a.is_finite() && a >= 0.0);
            }
        }
    }

    #[test]
    fn diurnal_stays_positive_and_cycles() {
        let gen = diurnal();
        for p in 0..100 {
            let f = gen.factor(3, 100, p, 7);
            assert!(f > 0.0 && f < 2.0);
        }
        // Different shards sit at different points of the cycle.
        let f0 = gen.factor(0, 100, 0, 7);
        let f1 = gen.factor(1, 100, 0, 7);
        assert_ne!(f0.to_bits(), f1.to_bits());
    }

    #[test]
    fn flash_crowd_ramps_and_decays() {
        let gen = LoadGen::FlashCrowd {
            start: 10,
            ramp: 5,
            decay: 5,
            magnitude: 4.0,
            hot_fraction: 1.0, // everyone is hot: envelope is visible
        };
        let f = |p| gen.factor(0, 10, p, 1);
        assert_eq!(f(0), 1.0, "quiet before the crowd");
        assert!(f(12) > f(11), "ramping");
        assert_eq!(f(15), 5.0, "peak = 1 + magnitude");
        assert!(f(17) < f(15), "decaying");
        assert_eq!(f(25), 1.0, "back to baseline");
    }

    #[test]
    fn flash_crowd_hits_only_the_hashed_fraction() {
        let gen = LoadGen::FlashCrowd {
            start: 0,
            ramp: 1,
            decay: 1000,
            magnitude: 10.0,
            hot_fraction: 0.25,
        };
        let hot = (0..4000u64)
            .filter(|&s| gen.factor(s, 4000, 1, 3) > 1.0)
            .count();
        // Hashed selection: close to a quarter, not exactly.
        assert!((800..1200).contains(&hot), "hot count {hot} far from 25%");
    }

    #[test]
    fn zipf_rotation_moves_the_hot_set() {
        let gen = LoadGen::Zipf {
            exponent: 1.0,
            boost: 10.0,
            rotate_every: 8,
        };
        let hottest = |phase: u64| {
            (0..256u64)
                .max_by(|&a, &b| {
                    gen.factor(a, 256, phase, 5)
                        .total_cmp(&gen.factor(b, 256, phase, 5))
                })
                .unwrap()
        };
        // Within a window the hot key is stable; across windows it moves.
        assert_eq!(hottest(0), hottest(7));
        assert_ne!(hottest(0), hottest(8));
    }

    #[test]
    fn churn_is_bounded_and_varies_per_phase() {
        let gen = LoadGen::Churn { volatility: 0.3 };
        let mut distinct = std::collections::BTreeSet::new();
        for p in 0..50 {
            let f = gen.factor(9, 100, p, 11);
            assert!((0.7..=1.3).contains(&f));
            distinct.insert(f.to_bits());
        }
        assert!(distinct.len() > 40, "churn must be noisy across phases");
    }

    #[test]
    fn workload_loads_are_dyadic() {
        let w = Workload {
            base_load: 1.0,
            gens: vec![diurnal(), LoadGen::Churn { volatility: 0.2 }],
            seed: 99,
        };
        for s in 0..32 {
            for p in 0..16 {
                let l = w.load(s, 32, p);
                let on_grid = (l / LOAD_QUANTUM).round() * LOAD_QUANTUM;
                assert_eq!(l.to_bits(), on_grid.to_bits(), "load {l} off the grid");
                assert!(l >= 0.0);
            }
        }
    }

    #[test]
    fn empty_workload_is_steady() {
        let w = Workload {
            base_load: 2.0,
            gens: vec![],
            seed: 0,
        };
        assert_eq!(w.label(), "steady");
        assert_eq!(w.load(5, 10, 0), 2.0);
        assert_eq!(w.load(5, 10, 99), 2.0);
    }
}
