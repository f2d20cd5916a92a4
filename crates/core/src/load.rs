//! The `Load` quantity: instrumented task execution time.
//!
//! Loads in this system are non-negative finite `f64` values measured in
//! abstract time units (seconds in the paper's instrumentation). A newtype
//! keeps load arithmetic honest — in particular it provides a *total*
//! ordering (via [`f64::total_cmp`]) so loads can be sorted and used as
//! keys in heaps without `partial_cmp` unwraps sprinkled through the
//! balancers, and it centralizes the tolerance used when comparing loads
//! that were accumulated in different orders.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A non-negative, finite workload measurement.
#[derive(Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Load(pub f64);

/// Relative tolerance used by [`Load::approx_eq`] for comparisons between
/// loads accumulated in different orders (floating-point summation is not
/// associative).
pub const LOAD_REL_TOL: f64 = 1e-9;

impl Load {
    /// The zero load.
    pub const ZERO: Load = Load(0.0);

    /// Construct a load, asserting the modeling invariants in debug builds.
    #[inline]
    pub fn new(value: f64) -> Self {
        debug_assert!(value.is_finite(), "load must be finite, got {value}");
        debug_assert!(value >= 0.0, "load must be non-negative, got {value}");
        Load(value)
    }

    /// The raw value.
    #[inline]
    pub const fn get(self) -> f64 {
        self.0
    }

    /// Whether this load is exactly zero.
    #[inline]
    pub fn is_zero(self) -> bool {
        self.0 == 0.0
    }

    /// Total-order comparison suitable for sorting and heaps.
    #[inline]
    pub fn total_cmp(&self, other: &Load) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }

    /// The larger of two loads.
    #[inline]
    pub fn max(self, other: Load) -> Load {
        Load(self.0.max(other.0))
    }

    /// The smaller of two loads.
    #[inline]
    pub fn min(self, other: Load) -> Load {
        Load(self.0.min(other.0))
    }

    /// Subtraction clamped at zero.
    ///
    /// Used when updating local load estimates: accumulated floating-point
    /// error must never produce a negative load.
    #[inline]
    pub fn saturating_sub(self, other: Load) -> Load {
        Load((self.0 - other.0).max(0.0))
    }

    /// Approximate equality with relative tolerance [`LOAD_REL_TOL`].
    #[inline]
    pub fn approx_eq(self, other: Load) -> bool {
        let scale = self.0.abs().max(other.0.abs()).max(1.0);
        (self.0 - other.0).abs() <= LOAD_REL_TOL * scale
    }
}

impl From<f64> for Load {
    #[inline]
    fn from(v: f64) -> Self {
        Load::new(v)
    }
}

impl Add for Load {
    type Output = Load;
    #[inline]
    fn add(self, rhs: Load) -> Load {
        Load(self.0 + rhs.0)
    }
}

impl AddAssign for Load {
    #[inline]
    fn add_assign(&mut self, rhs: Load) {
        self.0 += rhs.0;
    }
}

impl Sub for Load {
    type Output = Load;
    #[inline]
    fn sub(self, rhs: Load) -> Load {
        Load(self.0 - rhs.0)
    }
}

impl SubAssign for Load {
    #[inline]
    fn sub_assign(&mut self, rhs: Load) {
        self.0 -= rhs.0;
    }
}

impl Mul<f64> for Load {
    type Output = Load;
    #[inline]
    fn mul(self, rhs: f64) -> Load {
        Load(self.0 * rhs)
    }
}

impl Div<f64> for Load {
    type Output = Load;
    #[inline]
    fn div(self, rhs: f64) -> Load {
        Load(self.0 / rhs)
    }
}

impl Sum for Load {
    fn sum<I: Iterator<Item = Load>>(iter: I) -> Load {
        Load(iter.map(|l| l.0).sum())
    }
}

impl<'a> Sum<&'a Load> for Load {
    fn sum<I: Iterator<Item = &'a Load>>(iter: I) -> Load {
        Load(iter.map(|l| l.0).sum())
    }
}

impl fmt::Debug for Load {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}", self.0)
    }
}

impl fmt::Display for Load {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(prec) = f.precision() {
            write!(f, "{:.*}", prec, self.0)
        } else {
            write!(f, "{}", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_behaves_like_f64() {
        let a = Load::new(2.0);
        let b = Load::new(0.5);
        assert_eq!((a + b).get(), 2.5);
        assert_eq!((a - b).get(), 1.5);
        assert_eq!((a * 2.0).get(), 4.0);
        assert_eq!((a / 2.0).get(), 1.0);
        let mut c = a;
        c += b;
        assert_eq!(c.get(), 2.5);
        c -= b;
        assert_eq!(c.get(), 2.0);
    }

    #[test]
    fn saturating_sub_clamps_at_zero() {
        let a = Load::new(1.0);
        let b = Load::new(2.0);
        assert_eq!(a.saturating_sub(b), Load::ZERO);
        assert_eq!(b.saturating_sub(a).get(), 1.0);
    }

    #[test]
    fn sum_over_iterator() {
        let loads = vec![Load::new(1.0), Load::new(2.0), Load::new(3.0)];
        let total: Load = loads.iter().sum();
        assert_eq!(total.get(), 6.0);
        let total2: Load = loads.into_iter().sum();
        assert_eq!(total2.get(), 6.0);
    }

    #[test]
    fn total_cmp_gives_total_order() {
        let mut v = vec![Load::new(3.0), Load::new(1.0), Load::new(2.0)];
        v.sort_by(|a, b| a.total_cmp(b));
        assert_eq!(v, vec![Load::new(1.0), Load::new(2.0), Load::new(3.0)]);
    }

    #[test]
    fn approx_eq_tolerates_summation_order() {
        let a = Load::new(0.1 + 0.2);
        let b = Load::new(0.3);
        assert!(a.approx_eq(b));
        assert!(!Load::new(1.0).approx_eq(Load::new(1.001)));
    }

    #[test]
    fn min_max_zero() {
        assert_eq!(Load::new(1.0).max(Load::new(2.0)).get(), 2.0);
        assert_eq!(Load::new(1.0).min(Load::new(2.0)).get(), 1.0);
        assert!(Load::ZERO.is_zero());
        assert!(!Load::new(0.1).is_zero());
    }

    #[test]
    #[should_panic]
    #[cfg(debug_assertions)]
    fn negative_load_panics_in_debug() {
        let _ = Load::new(-1.0);
    }
}
