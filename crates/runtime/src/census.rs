//! Heap census: who owns every byte a simulated run holds.
//!
//! Each component that holds heap memory counts it here by [`Owner`],
//! counting *capacity*, not length — what the allocator handed out, not
//! what is in use. An allocation several components share (a gossip
//! payload's `Arc`, sitting in the event queue and in reliable windows at
//! once) is counted once, under the owner that first reports it.
//!
//! The [`crate::sim::Simulator`] takes a census while its recorder is
//! enabled — never otherwise — every `max(4096, 2P)` delivered events
//! (a few hundred samples at any rank count P, each O(P + events in
//! flight)), keeps the breakdown of the largest sample, and takes one
//! more when the run ends. Both go into the run's metrics registry as
//! gauges: `mem.peak.<owner>_bytes` and `mem.end.<owner>_bytes`, their
//! sums `mem.peak.total_bytes` and `mem.end.total_bytes`, and
//! `mem.peak.event`, the delivered-event count the peak was sampled at.

use std::collections::{BTreeSet, HashMap};
use std::mem::size_of;
use std::sync::Arc;
use tempered_obs::MetricsRegistry;

/// Who a heap byte belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Owner {
    /// Gossip knowledge sets (ranks, loads, membership bitset).
    Knowledge,
    /// The engine's task vectors: input, current and best placement.
    Tasks,
    /// Messages an engine buffered for a later epoch (the vector; their
    /// payloads count as [`Owner::Payloads`]).
    Buffered,
    /// Per-iteration records.
    Records,
    /// Collective reduce slots in flight.
    Collective,
    /// Reliable delivery, sender side: per-destination sequence and
    /// acknowledgement watermarks and the acknowledged spill.
    ReliableOut,
    /// Reliable delivery, receiver side: per-source dedup watermarks and
    /// the seen spill.
    ReliableSeen,
    /// Reliable delivery's window of unacknowledged messages (the
    /// entries; their payloads count as [`Owner::Payloads`]).
    ReliableWindow,
    /// Membership and failure detection: dead sets, fenced sets, the
    /// heartbeat detector.
    Membership,
    /// Reused buffers: the executor's send and timer buffers, the
    /// census's own. The one per-thread buffer of engine commands that
    /// `LbRank` drains per delivery is not counted.
    Scratch,
    /// Each rank's protocol struct itself, in the simulator's rank vector.
    RankInline,
    /// The event queue's near-wheel slots.
    WheelSlots,
    /// The event queue's bucket being drained.
    WheelCurrent,
    /// The event queue's far level.
    WheelFar,
    /// Heap behind messages, wherever they sit: gossip pairs, task lists,
    /// dead sets, damaged frame bytes.
    Payloads,
    /// The fault plan and its interpreter's tables.
    Emulator,
    /// The observability recorder: ring buffers and metrics.
    Obs,
    /// Closed epochs' delivery ledgers, which a rank keeps for the
    /// auditor only while its recorder is enabled.
    AuditLedgers,
}

impl Owner {
    /// Every owner, in report order.
    pub const ALL: [Owner; 18] = [
        Owner::Knowledge,
        Owner::Tasks,
        Owner::Buffered,
        Owner::Records,
        Owner::Collective,
        Owner::ReliableOut,
        Owner::ReliableSeen,
        Owner::ReliableWindow,
        Owner::Membership,
        Owner::Scratch,
        Owner::RankInline,
        Owner::WheelSlots,
        Owner::WheelCurrent,
        Owner::WheelFar,
        Owner::Payloads,
        Owner::Emulator,
        Owner::Obs,
        Owner::AuditLedgers,
    ];

    /// The owner's name in gauge names and tables.
    pub fn name(self) -> &'static str {
        match self {
            Owner::Knowledge => "knowledge",
            Owner::Tasks => "tasks",
            Owner::Buffered => "buffered",
            Owner::Records => "records",
            Owner::Collective => "collective",
            Owner::ReliableOut => "reliable_out",
            Owner::ReliableSeen => "reliable_seen",
            Owner::ReliableWindow => "reliable_window",
            Owner::Membership => "membership",
            Owner::Scratch => "scratch",
            Owner::RankInline => "rank_inline",
            Owner::WheelSlots => "wheel_slots",
            Owner::WheelCurrent => "wheel_current",
            Owner::WheelFar => "wheel_far",
            Owner::Payloads => "payloads",
            Owner::Emulator => "emulator",
            Owner::Obs => "obs",
            Owner::AuditLedgers => "audit_ledgers",
        }
    }
}

/// Heap bytes by owner at one instant.
#[derive(Clone, Debug, Default)]
pub struct HeapCensus {
    bytes: [usize; Owner::ALL.len()],
    /// Shared allocations reported since the last [`HeapCensus::settle`]:
    /// `(address, bytes, owner)`.
    shared: Vec<(usize, usize, Owner)>,
}

impl HeapCensus {
    /// Count `bytes` against `owner`.
    #[inline]
    pub fn add(&mut self, owner: Owner, bytes: usize) {
        self.bytes[owner as usize] += bytes;
    }

    /// Count the allocation behind `arc` against `owner`, once however
    /// many clones of it are reported.
    pub fn add_shared<T: ?Sized>(&mut self, owner: Owner, arc: &Arc<T>) {
        // An `Arc` allocation is its two reference counts and the value.
        let bytes = 2 * size_of::<usize>() + std::mem::size_of_val::<T>(arc.as_ref());
        self.shared
            .push((Arc::as_ptr(arc) as *const u8 as usize, bytes, owner));
    }

    /// Bytes counted against `owner`.
    pub(crate) fn get(&self, owner: Owner) -> usize {
        self.bytes[owner as usize]
    }

    /// Bytes counted against every owner.
    pub(crate) fn total(&self) -> usize {
        self.bytes.iter().sum()
    }

    /// Start a new census, keeping the buffer for shared allocations.
    pub(crate) fn clear(&mut self) {
        self.bytes = Default::default();
        self.shared.clear();
    }

    /// Count each shared allocation once, then the census's own buffer.
    pub(crate) fn settle(&mut self) {
        let mut shared = std::mem::take(&mut self.shared);
        shared.sort_unstable_by_key(|&(at, _, _)| at);
        shared.dedup_by_key(|&mut (at, _, _)| at);
        for &(_, bytes, owner) in &shared {
            self.add(owner, bytes);
        }
        shared.clear();
        self.add(Owner::Scratch, vec_bytes(&shared));
        self.shared = shared;
    }

    /// Write every owner's bytes, and the total, as gauges
    /// `mem.<when>.<owner>_bytes`.
    pub(crate) fn record(&self, m: &mut MetricsRegistry, when: &str) {
        for owner in Owner::ALL {
            let name = format!("mem.{when}.{}_bytes", owner.name());
            m.gauge_max(&name, self.get(owner) as f64);
        }
        m.gauge_max(&format!("mem.{when}.total_bytes"), self.total() as f64);
    }
}

/// Heap bytes of a vector's buffer.
pub(crate) fn vec_bytes<T>(v: &Vec<T>) -> usize {
    v.capacity() * size_of::<T>()
}

/// Heap bytes of a std `HashMap`'s table: one slot and one control byte
/// per bucket plus a group of trailing control bytes, with buckets a
/// power of two at most 7/8 full.
pub(crate) fn hash_map_bytes<K, V>(map: &HashMap<K, V>) -> usize {
    let capacity = map.capacity();
    if capacity == 0 {
        return 0;
    }
    let buckets = match capacity {
        0..=3 => 4,
        4..=7 => 8,
        _ => (capacity * 8 / 7).next_power_of_two(),
    };
    (buckets * size_of::<(K, V)>()).next_multiple_of(16) + buckets + 16
}

/// Heap bytes of a `BTreeSet`, estimated as full leaf nodes: eleven keys
/// behind a 16-byte header each. Every set this counts is a dead or
/// fenced set — empty in a fault-free run, a few ranks otherwise.
pub(crate) fn btree_set_bytes<T>(set: &BTreeSet<T>) -> usize {
    set.len().div_ceil(11) * (16 + 11 * size_of::<T>())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_shared_allocation_counts_once_under_its_first_owner() {
        let pairs: Arc<[(u32, f64)]> = vec![(1, 0.5); 4].into();
        let mut census = HeapCensus::default();
        census.add_shared(Owner::Payloads, &pairs);
        census.add_shared(Owner::Payloads, &pairs.clone());
        census.add(Owner::Knowledge, 100);
        census.settle();
        assert_eq!(census.get(Owner::Payloads), 16 + 4 * 16);
        assert_eq!(census.get(Owner::Knowledge), 100);
        let own = census.get(Owner::Scratch);
        assert!(own > 0, "the census's own buffer is counted");
        assert_eq!(census.total(), 16 + 64 + 100 + own);

        let mut m = MetricsRegistry::default();
        census.record(&mut m, "peak");
        assert_eq!(m.gauge("mem.peak.payloads_bytes"), Some(80.0));
        assert_eq!(m.gauge("mem.peak.total_bytes"), Some(census.total() as f64));

        census.clear();
        assert_eq!(census.total(), 0);
    }

    #[test]
    fn a_hash_map_is_counted_by_its_buckets() {
        let mut map: HashMap<u32, u64> = HashMap::new();
        assert_eq!(hash_map_bytes(&map), 0);
        map.insert(1, 1);
        // Three usable slots in four buckets of 16 B, plus control bytes.
        assert_eq!(map.capacity(), 3);
        assert_eq!(hash_map_bytes(&map), 64 + 4 + 16);
        map.extend((2..=100).map(|k| (k, k as u64)));
        let buckets = map.capacity() * 8 / 7;
        assert!(buckets.is_power_of_two());
        assert_eq!(hash_map_bytes(&map), buckets * 16 + buckets + 16);
    }
}
