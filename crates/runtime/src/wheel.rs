//! Hierarchical timer wheel: the shared future-event queue of every
//! executor.
//!
//! The discrete-event simulator's event queue, the wall-clock host's held
//! timers and delay-fated copies (`runtime::host`, under the threaded
//! executor and the TCP driver alike) and [`crate::lb::LocalRunner`]'s
//! timers are all one of these wheels over `f64` seconds. A binary heap
//! pays `O(log n)` pointer-chasing comparisons on every push *and* pop; at
//! simulator scale (hundreds of thousands of in-flight events) the heap
//! showed up as a top-three cost in profiles. The wheel keys events by a
//! quantized time axis:
//!
//! * a **near wheel** of `SLOTS` buckets, each spanning one quantum of
//!   time — push is `O(1)` bucket append for anything within the horizon;
//! * a **far level** holding events beyond the horizon in a small
//!   tick-keyed min-heap, cascaded into the near wheel as the cursor
//!   approaches them — the classic hierarchical-wheel arrangement with
//!   the coarser levels collapsed into one priority queue. The far level
//!   holds only long-deadline timers — backed-off retransmissions,
//!   heartbeat periods, and each LB rank's one armed stage watchdog — so
//!   its population is about one timer per rank plus the long backoffs
//!   in flight, while the high-churn near traffic never touches it;
//! * a **current bucket** sorted lazily when the cursor reaches it, so
//!   ordering work is `O(m log m)` per bucket instead of `O(log n)` per
//!   event.
//!
//! # Memory: what is in flight, not its history
//!
//! A drained near slot hands its buffer to the current bucket whole and
//! keeps at most `SLOT_KEEP` entries of capacity for its next cohort.
//! Capacity not holding a pending event is therefore bounded by
//! `SLOTS × SLOT_KEEP` entries plus the largest bucket drained lately,
//! whatever bursts the wheel has seen before.
//!
//! # Deterministic ordering — the contract
//!
//! Events pop in exactly the order of the heap they replace:
//! **ascending `(time, push sequence)`**, where time is compared with
//! `total_cmp` semantics and the push sequence (assigned internally, one
//! per [`TimerWheel::push`]) breaks ties — two events at the same instant
//! pop in push order, FIFO. This is bit-for-bit the ordering of the old
//! `BinaryHeap<Reverse<Event>>` (`time.total_cmp().then(seq.cmp())`), so
//! replaying a seeded run through the wheel delivers the identical event
//! sequence; the property tests in `runtime/tests/wheel_properties.rs`
//! drive both structures with arbitrary interleaved push/pop programs and
//! assert the streams match element for element.
//!
//! Correctness of the bucketing relies on two invariants:
//!
//! 1. The tick map is monotone: `t1 <= t2 ⇒ tick(t1) <= tick(t2)`, and
//!    equal times land in equal ticks. Hence bucket order extends time
//!    order, and ties never straddle buckets.
//! 2. Pops are requested with non-decreasing "now". An event pushed after
//!    the cursor has already passed its bucket (legal: a short-deadline
//!    hold can undercut a long one that was already peeked) is
//!    merge-inserted into the sorted current bucket, where it still pops
//!    ahead of every later bucket.

use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

/// Number of near-wheel buckets. Four `u64` occupancy words cover the
/// whole wheel, which keeps "find the next non-empty bucket" a handful of
/// bit instructions. 256 buckets put the simulator's retransmission
/// timers (a few hundred quanta out) on the O(1) near path; only truly
/// long deadlines (stage watchdog, heartbeat period) overflow to the far
/// heap.
const SLOTS: usize = 256;
/// Occupancy bitmask words.
const WORDS: usize = SLOTS / 64;
/// Entries of capacity a drained slot keeps for its next cohort: the
/// near wheel's idle capacity is at most `SLOTS × SLOT_KEEP` entries.
/// A larger burst regrows its slot's buffer by doubling.
const SLOT_KEEP: usize = 64;

/// A point on a wheel's time axis: totally ordered and quantizable to a
/// bucket index against a scale.
///
/// Its one impl is `f64` seconds, virtual or wall-clock. The trait stays
/// because the standalone benchmark package spells the wheel's type with
/// the time axis as a parameter, `TimerWheel<f64, u32>`.
pub trait WheelTime: Copy {
    /// Scale parameters mapping a time to its quantum index (for `f64`:
    /// the inverse quantum).
    type Scale;
    /// The quantum this time falls in. Must be monotone in the time.
    fn tick(self, scale: &Self::Scale) -> u64;
    /// Total order on times (for `f64`: `total_cmp`).
    fn cmp_time(self, other: Self) -> Ordering;
}

impl WheelTime for f64 {
    /// Ticks per virtual second (the inverse of the quantum).
    type Scale = f64;

    #[inline]
    fn tick(self, inv_quantum: &f64) -> u64 {
        if self <= 0.0 {
            0
        } else {
            // Saturating float→int cast: +inf and beyond-u64 times all
            // collapse into the last tick, where `cmp_time` still orders
            // them exactly.
            (self * inv_quantum) as u64
        }
    }

    #[inline]
    fn cmp_time(self, other: Self) -> Ordering {
        self.total_cmp(&other)
    }
}

struct Entry<T: WheelTime, V> {
    time: T,
    /// Push sequence number: the deterministic FIFO tie-break.
    seq: u64,
    value: V,
}

impl<T: WheelTime, V> Entry<T, V> {
    #[inline]
    fn key_cmp(&self, other: &Self) -> Ordering {
        self.time
            .cmp_time(other.time)
            .then_with(|| self.seq.cmp(&other.seq))
    }
}

/// A far-level event, ordered by `(tick, seq)` so the cascade can pop
/// exactly the cohorts that entered the near horizon. In-bucket `(time,
/// seq)` ordering is restored by the current-bucket sort, and within one
/// tick `seq` order is a refinement of heap order, so nothing is lost by
/// keying on the coarser tick.
struct FarEntry<T: WheelTime, V> {
    tick: u64,
    entry: Entry<T, V>,
}

impl<T: WheelTime, V> PartialEq for FarEntry<T, V> {
    fn eq(&self, other: &Self) -> bool {
        self.tick == other.tick && self.entry.seq == other.entry.seq
    }
}
impl<T: WheelTime, V> Eq for FarEntry<T, V> {}
impl<T: WheelTime, V> Ord for FarEntry<T, V> {
    fn cmp(&self, other: &Self) -> Ordering {
        self.tick
            .cmp(&other.tick)
            .then_with(|| self.entry.seq.cmp(&other.entry.seq))
    }
}
impl<T: WheelTime, V> PartialOrd for FarEntry<T, V> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// The wheel. `T` is the time axis (`f64` seconds), `V` the event
/// payload.
pub struct TimerWheel<T: WheelTime, V> {
    scale: T::Scale,
    /// Near wheel: bucket `tick % SLOTS`, valid while
    /// `cursor_tick < tick < cursor_tick + SLOTS`.
    slots: Vec<Vec<Entry<T, V>>>,
    /// Occupancy bitmask over `slots`.
    occupied: [u64; WORDS],
    /// The tick whose cohort each occupied slot currently holds.
    slot_tick: [u64; SLOTS],
    /// The bucket being drained: sorted ascending by `(time, seq)`,
    /// consumed via `current_pos`. Also receives behind-cursor pushes.
    /// Its buffer is the drained slot's, swapped in.
    current: Vec<Entry<T, V>>,
    current_pos: usize,
    /// Far level: everything at or beyond the near horizon, a min-heap
    /// on `(tick, seq)`.
    far: BinaryHeap<Reverse<FarEntry<T, V>>>,
    /// Tick of the bucket `current` was loaded from.
    cursor_tick: u64,
    seq: u64,
    len: usize,
}

impl<T: WheelTime, V> TimerWheel<T, V> {
    /// An empty wheel over the given time scale.
    pub fn new(scale: T::Scale) -> Self {
        TimerWheel {
            scale,
            slots: (0..SLOTS).map(|_| Vec::new()).collect(),
            occupied: [0; WORDS],
            slot_tick: [0; SLOTS],
            current: Vec::new(),
            current_pos: 0,
            far: BinaryHeap::new(),
            cursor_tick: 0,
            seq: 0,
            len: 0,
        }
    }

    /// Pending events.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no events are pending.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Schedule `value` at `time`. Events at equal times pop in push
    /// order (FIFO): each push takes the next internal sequence number,
    /// exactly as the displaced heap's caller-side counter did.
    pub fn push(&mut self, time: T, value: V) {
        let seq = self.seq;
        self.seq += 1;
        self.len += 1;
        let tick = time.tick(&self.scale);
        // Each arm constructs the `Entry` directly at its destination
        // rather than building it up front: entries are fat (they carry
        // the event payload by value), and the extra stack copy was a
        // measurable slice of the push cost.
        if tick <= self.cursor_tick {
            // Into (or behind) the bucket being drained: merge-insert
            // into the sorted tail. The common same-quantum case appends
            // at the end (later seq), so the binary search lands on the
            // fast path.
            let entry = Entry { time, seq, value };
            let tail = &self.current[self.current_pos..];
            let at = tail.partition_point(|e| e.key_cmp(&entry) == Ordering::Less);
            self.current.insert(self.current_pos + at, entry);
        } else if tick < self.cursor_tick + SLOTS as u64 {
            let s = (tick % SLOTS as u64) as usize;
            debug_assert!(
                self.occupied[s >> 6] & (1 << (s & 63)) == 0 || self.slot_tick[s] == tick,
                "near-wheel slot cohort mixed ticks"
            );
            self.occupied[s >> 6] |= 1 << (s & 63);
            self.slot_tick[s] = tick;
            self.slots[s].push(Entry { time, seq, value });
        } else {
            self.far.push(Reverse(FarEntry {
                tick,
                entry: Entry { time, seq, value },
            }));
        }
    }

    /// First occupied slot at or circularly after residue `start`, one
    /// full revolution max.
    #[inline]
    fn first_occupied_from(&self, start: usize) -> Option<usize> {
        let sw = start >> 6;
        let sb = start & 63;
        let w = self.occupied[sw] >> sb;
        if w != 0 {
            return Some(start + w.trailing_zeros() as usize);
        }
        for k in 1..WORDS {
            let wi = (sw + k) & (WORDS - 1);
            let word = self.occupied[wi];
            if word != 0 {
                return Some((wi << 6) | word.trailing_zeros() as usize);
            }
        }
        // Wrap into the low bits of the starting word.
        let w = self.occupied[sw] & ((1u64 << sb) - 1);
        if w != 0 {
            return Some((sw << 6) | w.trailing_zeros() as usize);
        }
        None
    }

    /// Load the next non-empty bucket into `current`, advancing the
    /// cursor. Caller guarantees `current` is exhausted and `len > 0`.
    fn load_next_bucket(&mut self) {
        // `pop` forgets a bucket's shells the moment it runs dry.
        debug_assert!(self.current.is_empty() && self.current_pos == 0);

        // The next event lives in the lowest pending tick, whether that
        // cohort is in the near wheel or still in the far pool. All live
        // near ticks sit in `(cursor_tick, cursor_tick + SLOTS)`, so in
        // *circular* residue order starting just past the cursor, the
        // first occupied slot holds the minimal tick — an O(WORDS) word
        // scan instead of a min-fold over every occupied slot.
        let slot_min = self
            .first_occupied_from(((self.cursor_tick + 1) % SLOTS as u64) as usize)
            .map_or(u64::MAX, |s| self.slot_tick[s]);
        let far_min = self.far.peek().map_or(u64::MAX, |Reverse(f)| f.tick);
        let target = slot_min.min(far_min);
        debug_assert_ne!(target, u64::MAX, "len > 0 but no pending tick");
        self.cursor_tick = target;

        // Drain the target cohort itself: its buffer becomes `current`
        // (no per-event copy), and the slot takes back `current`'s spent
        // buffer trimmed to `SLOT_KEEP` — a burst's capacity leaves the
        // wheel with the burst instead of staying parked in its slot.
        let s = (target % SLOTS as u64) as usize;
        if self.occupied[s >> 6] & (1 << (s & 63)) != 0 && self.slot_tick[s] == target {
            self.occupied[s >> 6] &= !(1 << (s & 63));
            std::mem::swap(&mut self.current, &mut self.slots[s]);
            self.slots[s].shrink_to(SLOT_KEEP);
        }

        // Cascade: far-level cohorts that entered the near horizon move
        // into their slots — popping matured heads only, never scanning
        // the still-far tail. All live ticks now sit in
        // [target, target + SLOTS), so slot residues are collision-free
        // (the target's own slot was just emptied above).
        while let Some(Reverse(f)) = self.far.peek() {
            if f.tick >= target + SLOTS as u64 {
                break;
            }
            let Reverse(FarEntry { tick, entry }) = self.far.pop().expect("peeked entry exists");
            if tick == target {
                self.current.push(entry);
            } else {
                let s = (tick % SLOTS as u64) as usize;
                self.occupied[s >> 6] |= 1 << (s & 63);
                self.slot_tick[s] = tick;
                self.slots[s].push(entry);
            }
        }
        // Sort the bucket once: ascending (time, seq). Sequence numbers
        // are unique, so the order is total and the sort deterministic.
        self.current.sort_unstable_by(|a, b| a.key_cmp(b));
        debug_assert!(!self.current.is_empty(), "target tick had no events");
    }

    #[inline]
    fn ensure_current(&mut self) {
        if self.current_pos >= self.current.len() && self.len > 0 {
            self.load_next_bucket();
        }
    }

    /// Remove and return the earliest event as `(time, value)`.
    pub fn pop(&mut self) -> Option<(T, V)> {
        if self.len == 0 {
            return None;
        }
        self.ensure_current();
        let entry = &mut self.current[self.current_pos];
        let time = entry.time;
        // Take the payload without shifting the sorted bucket.
        let value = unsafe { std::ptr::read(&entry.value) };
        self.current_pos += 1;
        self.len -= 1;
        if self.current_pos >= self.current.len() {
            // Every payload in the bucket has been moved out; release the
            // shells without dropping the moved-from values.
            self.forget_drained();
        }
        Some((time, value))
    }

    /// Time of the earliest pending event without removing it.
    pub fn peek_time(&mut self) -> Option<T> {
        if self.len == 0 {
            return None;
        }
        self.ensure_current();
        Some(self.current[self.current_pos].time)
    }

    /// Heap bytes the wheel holds, counting capacity, by level.
    pub(crate) fn heap_bytes(&self) -> WheelBytes {
        let entry = std::mem::size_of::<Entry<T, V>>();
        WheelBytes {
            near: self.slots.capacity() * std::mem::size_of::<Vec<Entry<T, V>>>()
                + self
                    .slots
                    .iter()
                    .map(|s| s.capacity() * entry)
                    .sum::<usize>(),
            current: self.current.capacity() * entry,
            far: self.far.capacity() * std::mem::size_of::<Reverse<FarEntry<T, V>>>(),
        }
    }

    /// Every pending value, in no particular order.
    pub(crate) fn values(&self) -> impl Iterator<Item = &V> {
        self.current[self.current_pos..]
            .iter()
            .chain(self.slots.iter().flatten())
            .chain(self.far.iter().map(|Reverse(f)| &f.entry))
            .map(|e| &e.value)
    }

    /// Clear the fully-drained current bucket. Entries before
    /// `current_pos` had their values moved out by `pop`; dropping them
    /// normally would double-drop, so the shells are forgotten instead.
    fn forget_drained(&mut self) {
        // SAFETY: all entries in `current` are at indices < current_pos,
        // i.e. their `value` fields were ptr::read out. Setting the
        // length to zero forgets the shells (times/seqs are Copy+u64,
        // nothing else to drop).
        debug_assert_eq!(self.current_pos, self.current.len());
        unsafe { self.current.set_len(0) };
        self.current_pos = 0;
    }
}

impl<T: WheelTime, V> Drop for TimerWheel<T, V> {
    fn drop(&mut self) {
        // Entries [0, current_pos) are moved-from shells; dropping their
        // values would be a double-drop. Drop the live tail, then forget
        // the shells. Slots and the far heap hold only live entries and
        // drop normally.
        self.current.drain(self.current_pos..);
        // SAFETY: only moved-from shells remain below current_pos.
        unsafe { self.current.set_len(0) };
    }
}

/// Heap bytes of a [`TimerWheel`], by level, counting capacity.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct WheelBytes {
    /// The near-wheel slots: their headers and every slot's buffer.
    pub(crate) near: usize,
    /// The bucket being drained.
    pub(crate) current: usize,
    /// The far level's heap.
    pub(crate) far: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_then_fifo_order() {
        let mut w: TimerWheel<f64, u32> = TimerWheel::new(1.0 / 1e-6);
        w.push(3e-6, 0);
        w.push(1e-6, 1);
        w.push(1e-6, 2); // same time as previous: FIFO
        w.push(2e-6, 3);
        let order: Vec<u32> = std::iter::from_fn(|| w.pop().map(|(_, v)| v)).collect();
        assert_eq!(order, vec![1, 2, 3, 0]);
        assert!(w.is_empty());
    }

    #[test]
    fn same_bucket_distinct_times_order_exactly() {
        // Quantum 1.0: everything lands in tick 0, ordering must come
        // from the in-bucket sort alone.
        let mut w: TimerWheel<f64, u32> = TimerWheel::new(1.0);
        w.push(0.9, 0);
        w.push(0.1, 1);
        w.push(0.5, 2);
        w.push(0.1, 3);
        let order: Vec<u32> = std::iter::from_fn(|| w.pop().map(|(_, v)| v)).collect();
        assert_eq!(order, vec![1, 3, 2, 0]);
    }

    #[test]
    fn far_events_cascade_back_in() {
        let mut w: TimerWheel<f64, u32> = TimerWheel::new(1.0 / 1e-6);
        // 30s stage-deadline-style timer: far beyond the 64µs horizon.
        w.push(30.0, 99);
        for i in 0..10u32 {
            w.push(f64::from(i) * 1e-6, i);
        }
        let order: Vec<u32> = std::iter::from_fn(|| w.pop().map(|(_, v)| v)).collect();
        assert_eq!(order[..10], (0..10).collect::<Vec<u32>>()[..]);
        assert_eq!(order[10], 99);
    }

    #[test]
    fn push_behind_cursor_still_pops_in_order() {
        let mut w: TimerWheel<f64, u32> = TimerWheel::new(1.0 / 1e-6);
        w.push(100e-6, 0);
        // Peek advances the cursor to tick 100.
        assert_eq!(w.peek_time(), Some(100e-6));
        // A shorter deadline arrives late (legal for held wires).
        w.push(50e-6, 1);
        assert_eq!(w.pop().map(|(_, v)| v), Some(1));
        assert_eq!(w.pop().map(|(_, v)| v), Some(0));
    }

    #[test]
    fn zero_latency_degenerates_to_fifo() {
        let mut w: TimerWheel<f64, u32> = TimerWheel::new(1.0 / 1e-6);
        for i in 0..100u32 {
            w.push(0.0, i);
        }
        // Interleave pops and pushes at time zero, as a zero-latency
        // protocol cascade would.
        assert_eq!(w.pop().map(|(_, v)| v), Some(0));
        w.push(0.0, 100);
        let order: Vec<u32> = std::iter::from_fn(|| w.pop().map(|(_, v)| v)).collect();
        assert_eq!(order, (1..=100).collect::<Vec<u32>>());
    }

    #[test]
    fn drained_slots_give_their_burst_capacity_back() {
        // Quantum 1.0: burst `t` lands whole in tick `t`, one slot ahead
        // of the cursor. 300 ticks cover all 256 residues, some twice;
        // every burst is well above `SLOT_KEEP`, and every 64th is a
        // 10 k spike.
        let mut w: TimerWheel<f64, u32> = TimerWheel::new(1.0);
        let mut largest = 0;
        for t in 1..=300u32 {
            let burst = if t % 64 == 0 {
                10_000
            } else {
                100 + (t * 37) % 400
            };
            largest = largest.max(burst as usize);
            for i in 0..burst {
                w.push(f64::from(t), i);
            }
            for i in 0..burst {
                assert_eq!(w.pop(), Some((f64::from(t), i)), "FIFO within a tick");
            }
        }
        assert!(w.is_empty());
        let held: usize = w.slots.iter().map(Vec::capacity).sum();
        assert!(
            held <= SLOTS * SLOT_KEEP,
            "idle slots hold {held} entries of capacity, bound {}",
            SLOTS * SLOT_KEEP
        );
        assert!(
            w.current.capacity() <= largest.next_power_of_two(),
            "current holds {} entries of capacity after a largest burst of {largest}",
            w.current.capacity()
        );
    }

    #[test]
    fn values_and_heap_bytes_see_every_level() {
        let mut w: TimerWheel<f64, u32> = TimerWheel::new(1.0 / 1e-6);
        w.push(30.0, 99);
        for i in 0..10u32 {
            w.push(f64::from(i) * 1e-6, i);
        }
        w.push(0.0, 100);
        // Tick 0 becomes the current bucket, one of its two events left.
        assert_eq!(w.pop(), Some((0.0, 0)));
        let mut pending: Vec<u32> = w.values().copied().collect();
        pending.sort_unstable();
        assert_eq!(pending, (1..10).chain([99, 100]).collect::<Vec<u32>>());

        let entry = std::mem::size_of::<Entry<f64, u32>>();
        let bytes = w.heap_bytes();
        let near: usize = w.slots.iter().map(Vec::capacity).sum();
        assert_eq!(
            bytes.near,
            SLOTS * std::mem::size_of::<Vec<Entry<f64, u32>>>() + near * entry
        );
        assert!(near >= 9);
        assert_eq!(bytes.current, w.current.capacity() * entry);
        assert!(w.current.capacity() >= 2);
        assert!(bytes.far >= std::mem::size_of::<Reverse<FarEntry<f64, u32>>>());
    }

    #[test]
    fn values_drop_exactly_once() {
        use std::rc::Rc;
        let token = Rc::new(());
        let mut w: TimerWheel<f64, Rc<()>> = TimerWheel::new(1.0);
        for i in 0..8 {
            w.push(f64::from(i), Rc::clone(&token));
        }
        // Pop half (exercises the moved-from shells), drop the wheel with
        // the other half still pending.
        for _ in 0..4 {
            w.pop();
        }
        drop(w);
        assert_eq!(Rc::strong_count(&token), 1, "leak or double-drop");
    }
}
