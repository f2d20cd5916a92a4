//! Strongly-typed identifiers for ranks and tasks.
//!
//! The paper's algorithms are expressed in terms of *ranks* (MPI processes)
//! and *tasks* (migratable work units, called "colors" in the EMPIRE
//! application). Using newtypes rather than bare integers prevents an
//! entire class of index-confusion bugs in the transfer machinery, where
//! task indices, rank indices, and CMF sample indices all flow through the
//! same functions.

use std::fmt;

/// Identifier of a rank (a simulated MPI process).
///
/// Ranks are dense: a system of `P` ranks uses ids `0..P`. This density is
/// relied upon by [`crate::gossip`] (sampling targets uniformly from `P`)
/// and by the distribution container, which stores per-rank state in flat
/// vectors indexed by `RankId::as_usize`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RankId(pub u32);

impl RankId {
    /// Construct from a dense index.
    #[inline]
    pub const fn new(id: u32) -> Self {
        RankId(id)
    }

    /// The dense index of this rank, for flat-vector addressing.
    #[inline]
    pub const fn as_usize(self) -> usize {
        self.0 as usize
    }

    /// The raw u32 value.
    #[inline]
    pub const fn as_u32(self) -> u32 {
        self.0
    }
}

impl From<u32> for RankId {
    #[inline]
    fn from(v: u32) -> Self {
        RankId(v)
    }
}

impl From<usize> for RankId {
    #[inline]
    fn from(v: usize) -> Self {
        debug_assert!(v <= u32::MAX as usize, "rank index overflows u32");
        RankId(v as u32)
    }
}

impl fmt::Debug for RankId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

impl fmt::Display for RankId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Identifier of a migratable task (work unit / EMPIRE "color").
///
/// Task ids are globally unique and stable across migrations: a task keeps
/// its id for the lifetime of the run, which is what lets the balancers
/// track `TARGET^p()` maps and lets the runtime route messages to tasks
/// regardless of their current rank.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TaskId(pub u64);

impl TaskId {
    /// Construct from a raw id.
    #[inline]
    pub const fn new(id: u64) -> Self {
        TaskId(id)
    }

    /// The raw u64 value.
    #[inline]
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// The id as a usize, for dense task-indexed tables.
    #[inline]
    pub const fn as_usize(self) -> usize {
        self.0 as usize
    }
}

impl From<u64> for TaskId {
    #[inline]
    fn from(v: u64) -> Self {
        TaskId(v)
    }
}

impl From<usize> for TaskId {
    #[inline]
    fn from(v: usize) -> Self {
        TaskId(v as u64)
    }
}

impl fmt::Debug for TaskId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

impl fmt::Display for TaskId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rank_id_roundtrips_through_usize() {
        let r = RankId::new(42);
        assert_eq!(r.as_usize(), 42);
        assert_eq!(RankId::from(42usize), r);
        assert_eq!(RankId::from(42u32), r);
        assert_eq!(r.as_u32(), 42);
    }

    #[test]
    fn task_id_roundtrips() {
        let t = TaskId::new(7);
        assert_eq!(t.as_u64(), 7);
        assert_eq!(TaskId::from(7usize), t);
        assert_eq!(TaskId::from(7u64), t);
    }

    #[test]
    fn ids_order_densely() {
        assert!(RankId::new(1) < RankId::new(2));
        assert!(TaskId::new(1) < TaskId::new(2));
    }

    #[test]
    fn debug_formats_are_compact() {
        assert_eq!(format!("{:?}", RankId::new(3)), "r3");
        assert_eq!(format!("{:?}", TaskId::new(9)), "t9");
        assert_eq!(format!("{}", RankId::new(3)), "3");
        assert_eq!(format!("{}", TaskId::new(9)), "9");
    }
}
