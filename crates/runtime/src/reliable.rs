//! At-least-once message delivery with receiver-side deduplication.
//!
//! The async LB protocol is not idempotent: a lost transfer proposal or
//! task migration silently corrupts the assignment, and a lost
//! termination token deadlocks an epoch. Under a faulty network
//! ([`crate::fault::FaultPlan`]) every non-idempotent message therefore
//! travels through a [`ReliableChannel`]: the sender stamps a per-link
//! sequence number and retransmits with exponential backoff until the
//! receiver acknowledges; the receiver acknowledges every copy but
//! processes only the first (**at-least-once delivery, exactly-once
//! processing**).
//!
//! Like [`crate::termination::TerminationDetector`], the channel is a
//! *passive* component: it owns sequence/retry state and tells the
//! embedding protocol what to (re)send; timers are driven through the
//! executor's [`crate::sim::Ctx::schedule`] facility.

use crate::census::{vec_bytes, HeapCensus, Owner};
use rand::rngs::SmallRng;
use rand::Rng;
use std::collections::VecDeque;
use tempered_core::ids::RankId;
use tempered_obs::MetricsRegistry;

/// Retransmission and give-up policy.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RetryConfig {
    /// Initial retransmission timeout in seconds (virtual seconds under
    /// the simulator, wall-clock under threads).
    pub timeout: f64,
    /// Backoff multiplier applied per retransmission.
    pub backoff: f64,
    /// Retransmissions before the sender gives up on a message.
    pub max_retries: u32,
    /// Seconds a protocol stage may sit without progress before the
    /// rank degrades (see the LB protocol's stage deadlines).
    pub stage_deadline: f64,
    /// Jitter amplitude on retry delays: each armed timer is multiplied
    /// by a factor drawn uniformly from `[1, 1 + jitter]`, decorrelating
    /// retransmission bursts across senders. The draw comes from a
    /// seeded per-rank stream ([`ReliableChannel::with_jitter`]), so the
    /// schedule is deterministic under a seed; a channel without a
    /// jitter stream uses the exact exponential schedule.
    pub jitter: f64,
}

impl Default for RetryConfig {
    fn default() -> Self {
        RetryConfig {
            // Generous vs. the µs-scale simulated RTT: spurious
            // retransmissions are harmless (dedup) but noisy.
            timeout: 500e-6,
            backoff: 2.0,
            max_retries: 16,
            stage_deadline: 0.25,
            jitter: 0.1,
        }
    }
}

impl RetryConfig {
    /// The simulator-scale budget the chaos, fuzz and perf harnesses
    /// harden with: generous enough that, at the drop rates they
    /// exercise, a give-up or a missed stage deadline is negligible
    /// (virtual-time backoff is free under the simulator), and finite so
    /// every generated case terminates.
    pub fn generous() -> Self {
        RetryConfig {
            timeout: 200e-6,
            backoff: 1.5,
            max_retries: 30,
            stage_deadline: 30.0,
            ..RetryConfig::default()
        }
    }

    /// Nominal (jitter-free) timer delay for retransmission attempt
    /// `attempt` (0-based): exponential backoff from `timeout`.
    pub fn delay_for(&self, attempt: u32) -> f64 {
        self.timeout * self.backoff.powi(attempt as i32)
    }
}

/// Delivery-layer counters.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ReliableStats {
    /// Unique messages sent through the channel.
    pub sent: u64,
    /// Retransmissions performed.
    pub retransmitted: u64,
    /// Acknowledgements received for pending messages.
    pub acked: u64,
    /// Duplicate deliveries suppressed at the receiver.
    pub duplicates_suppressed: u64,
    /// Messages abandoned after exhausting the retry budget.
    pub gave_up: u64,
    /// Abandoned messages re-armed with a fresh retry budget because the
    /// failure was judged a link problem, not a dead peer (see
    /// [`ReliableChannel::reinstate`]).
    pub revived: u64,
}

impl ReliableStats {
    /// Accumulate another stats block.
    pub fn merge(&mut self, other: &ReliableStats) {
        self.sent += other.sent;
        self.retransmitted += other.retransmitted;
        self.acked += other.acked;
        self.duplicates_suppressed += other.duplicates_suppressed;
        self.gave_up += other.gave_up;
        self.revived += other.revived;
    }

    /// Fold the counters into a metrics registry under the canonical
    /// `lb.reliable.*` names (the one place they are spelled, as
    /// [`crate::fault::FaultStats::record`] is for `fault.*`).
    pub fn record(&self, m: &mut MetricsRegistry) {
        m.counter_add("lb.reliable.sent", self.sent);
        m.counter_add("lb.reliable.retransmitted", self.retransmitted);
        m.counter_add("lb.reliable.acked", self.acked);
        m.counter_add(
            "lb.reliable.duplicates_suppressed",
            self.duplicates_suppressed,
        );
        m.counter_add("lb.reliable.gave_up", self.gave_up);
        m.counter_add("lb.reliable.revived", self.revived);
    }
}

/// What to do when a retry timer fires.
#[derive(Clone, Debug, PartialEq)]
pub enum RetryAction<M> {
    /// The message is still unacknowledged: retransmit and re-arm the
    /// timer with `next_delay` seconds.
    Resend {
        /// Destination rank.
        to: RankId,
        /// Original sequence number (unchanged across retransmissions).
        seq: u64,
        /// The payload to resend.
        msg: M,
        /// Delay for the next retry timer.
        next_delay: f64,
    },
    /// Retry budget exhausted; the message is abandoned. The payload is
    /// returned so the embedding protocol can decide between declaring
    /// the peer dead and reviving the message via
    /// [`ReliableChannel::reinstate`] when the failure looks like a bad
    /// link rather than a dead peer.
    GaveUp {
        /// Destination of the abandoned message.
        to: RankId,
        /// The abandoned payload.
        msg: M,
    },
    /// The message was acknowledged in the meantime; nothing to do.
    Settled,
}

/// Immutable snapshot of one peer's delivery ledger, exposed for
/// end-of-run delivery audits: the contiguous watermark plus the sparse
/// out-of-order tail.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SeqSetView {
    /// Every sequence number in `1..=watermark` is in the set.
    pub watermark: u64,
    /// Out-of-order members beyond `watermark + 1`, sorted ascending.
    pub sparse: Vec<u64>,
}

impl SeqSetView {
    /// Whether `seq` is in the set.
    pub fn contains(&self, seq: u64) -> bool {
        seq >= 1 && (seq <= self.watermark || self.sparse.binary_search(&seq).is_ok())
    }

    /// Every member in ascending order (audit-sized sets only).
    pub fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        (1..=self.watermark).chain(self.sparse.iter().copied())
    }
}

#[derive(Clone, Debug)]
struct Pending<M> {
    to: RankId,
    seq: u64,
    msg: M,
    attempts: u32,
}

/// Sender-side state for one destination.
#[derive(Clone, Copy, Debug, Default)]
struct OutLink {
    /// Last sequence number stamped toward this peer.
    next_seq: u64,
    /// The peer's acknowledged watermark plus one: `1..acked` are all
    /// acknowledged. Zero until the peer acknowledges anything — even a
    /// zero or out-of-order seq — so a peer that was only ever sent to
    /// stays out of the acked ledger.
    acked: u64,
}

/// Per-rank reliable-delivery state over message type `M`.
///
/// Per-peer state is two watermarks, not sets: `out` holds, per
/// destination, the last stamped sequence number and the contiguous
/// acknowledged prefix; `seen` holds, per source, the contiguous prefix
/// of accepted sequence numbers. A sequence number beyond a watermark
/// waits in that direction's spill, one rank-sorted vector per rank, until
/// the arrival that makes it contiguous absorbs it. Latency jitter keeps
/// the spill to a handful of entries and in fault-free steady state it is
/// empty, so a peer costs one table slot per direction (20 and 12 bytes)
/// instead of a set.
///
/// The tables are open-addressed (see `PeerTable`) rather than std hash
/// maps or dense rank-indexed arrays: every data message costs several
/// point lookups here, and at simulator scale the hashing itself was a
/// measurable slice of the wall clock, while dense tables cost O(P) per
/// rank — O(P²) across the job, a measured 6 GiB of the 8k-rank
/// high-water mark — even though a rank only ever corresponds with
/// O(fanout × rounds × iters) distinct peers regardless of job size.
///
/// Unacknowledged messages are *not* per-peer state: a container per
/// peer outlives the few microseconds its messages are in flight and
/// costs memory for every peer ever contacted, while what is in flight
/// at once across all peers is a handful of entries. They live in one
/// window per rank, in send order. Acknowledgements come back in
/// roughly the order the messages left, so a lookup walks the window
/// from both ends inward and costs O(distance to the nearer end): O(1)
/// for acks in send order or in exactly reversed order — including
/// after a View flood to every rank of the job — and O(in-flight
/// count) at worst, as for a retry timer whose message has long
/// settled. Removal keeps the order (it shifts the shorter side), which
/// is what keeps the oldest entry at the front.
#[derive(Clone, Debug)]
pub struct ReliableChannel<M> {
    cfg: RetryConfig,
    /// Sequence and acknowledgement watermarks per destination rank.
    out: PeerTable<OutLink>,
    /// Sender-side record of every sequence number a peer has ever
    /// acknowledged beyond its `OutLink::acked` prefix, as
    /// `(peer, seq)` sorted ascending. Together with the prefix this is
    /// independent of the pending window, which forgets a seq the moment
    /// it settles: the audit layer compares it against the receiver's
    /// seen ledger, and an acked-but-never-seen seq is a forged or
    /// misrouted acknowledgement.
    acked_spill: Vec<(RankId, u64)>,
    /// Unacknowledged messages to every destination, oldest first.
    window: VecDeque<Pending<M>>,
    /// Receiver-side dedup watermark per source rank.
    seen: PeerTable<u64>,
    /// Accepted sequence numbers beyond their source's `seen` watermark,
    /// as `(source, seq)` sorted ascending.
    seen_spill: Vec<(RankId, u64)>,
    /// Seeded stream for retry-delay jitter; `None` pins the exact
    /// exponential schedule.
    jitter_rng: Option<SmallRng>,
    /// Delivery-layer counters.
    pub stats: ReliableStats,
}

/// Sparse per-peer table: open addressing over a power-of-two slot
/// array with a fixed multiplicative hash. Memory stays proportional to
/// the peers this rank has actually contacted (a few hundred at most
/// under the gossip fanout) while a hit costs one multiply and, in the
/// common case, a single probe — matching the dense layout's speed
/// without its O(P)-per-rank footprint. The fixed hash, and snapshots
/// that sort what they read, keep behavior bit-deterministic.
#[derive(Clone, Debug, Default)]
struct PeerTable<T> {
    /// Slot keys; `EMPTY` marks an unused slot. Length is a power of two.
    keys: Vec<u32>,
    /// Values parallel to `keys` (default-initialized in empty slots).
    vals: Vec<T>,
    /// Occupied slot count.
    len: usize,
}

/// Unused-slot sentinel: rank ids are dense small integers, never this.
const EMPTY: u32 = u32::MAX;

impl<T: Default> PeerTable<T> {
    /// Probe for `r`, returning its slot index or the empty slot where
    /// it belongs. Requires a non-empty table.
    fn probe(&self, r: u32) -> usize {
        let mask = self.keys.len() - 1;
        let mut i = r.wrapping_mul(0x9E37_79B9) as usize & mask;
        loop {
            let k = self.keys[i];
            if k == r || k == EMPTY {
                return i;
            }
            i = (i + 1) & mask;
        }
    }

    /// Double the slot array and re-place every occupied entry.
    fn grow(&mut self) {
        let new_cap = (self.keys.len() * 2).max(16);
        let old_keys = std::mem::replace(&mut self.keys, vec![EMPTY; new_cap]);
        let old_vals = std::mem::replace(
            &mut self.vals,
            std::iter::repeat_with(T::default).take(new_cap).collect(),
        );
        for (k, v) in old_keys.into_iter().zip(old_vals) {
            if k != EMPTY {
                let i = self.probe(k);
                self.keys[i] = k;
                self.vals[i] = v;
            }
        }
    }

    /// Heap bytes of the two slot arrays.
    fn heap_bytes(&self) -> usize {
        vec_bytes(&self.keys) + vec_bytes(&self.vals)
    }

    /// Every occupied slot, sorted by rank so that no caller sees the
    /// open-addressed layout's order.
    fn sorted(&self) -> Vec<(RankId, &T)> {
        let mut out: Vec<(RankId, &T)> = self
            .keys
            .iter()
            .zip(&self.vals)
            .filter(|(&k, _)| k != EMPTY)
            .map(|(&k, v)| (RankId(k), v))
            .collect();
        out.sort_by_key(|&(r, _)| r);
        out
    }
}

/// Fetch the state slot for `rank`, inserting a default on first
/// contact.
fn slot<T: Default>(table: &mut PeerTable<T>, rank: RankId) -> &mut T {
    let r = rank.as_usize() as u32;
    debug_assert_ne!(r, EMPTY);
    // Grow at 3/4 load (and on first touch) so probes stay short.
    if (table.len + 1) * 4 > table.keys.len() * 3 {
        table.grow();
    }
    let i = table.probe(r);
    if table.keys[i] == EMPTY {
        table.keys[i] = r;
        table.len += 1;
    }
    &mut table.vals[i]
}

/// Add `seq` to `peer`'s set — every seq in `1..=*mark`, plus `peer`'s
/// entries in the direction's `spill` — and return `true` the first time
/// it is added. Zero is never a member.
///
/// An in-order arrival (the overwhelmingly common case) advances the
/// watermark and absorbs any spilled run it made contiguous; anything
/// further ahead waits in the spill.
fn record(mark: &mut u64, spill: &mut Vec<(RankId, u64)>, peer: RankId, seq: u64) -> bool {
    if seq <= *mark {
        return false;
    }
    if seq == *mark + 1 {
        *mark = seq;
        if let Ok(start) = spill.binary_search(&(peer, seq + 1)) {
            let run = spill[start..]
                .iter()
                .zip(seq + 1..)
                .take_while(|&(&entry, next)| entry == (peer, next))
                .count();
            *mark += run as u64;
            spill.drain(start..start + run);
        }
        return true;
    }
    match spill.binary_search(&(peer, seq)) {
        Ok(_) => false,
        Err(i) => {
            spill.insert(i, (peer, seq));
            true
        }
    }
}

/// Audit view of `peer`'s set: watermark `mark` plus its run of `spill`.
fn view(mark: u64, spill: &[(RankId, u64)], peer: RankId) -> SeqSetView {
    let lo = spill.partition_point(|&(r, _)| r < peer);
    let len = spill[lo..].partition_point(|&(r, _)| r == peer);
    SeqSetView {
        watermark: mark,
        sparse: spill[lo..lo + len].iter().map(|&(_, s)| s).collect(),
    }
}

impl<M: Clone> ReliableChannel<M> {
    /// New channel with the given retry policy and no jitter stream
    /// (exact exponential schedule).
    pub fn new(cfg: RetryConfig) -> Self {
        ReliableChannel {
            cfg,
            out: PeerTable::default(),
            acked_spill: Vec::new(),
            window: VecDeque::new(),
            seen: PeerTable::default(),
            seen_spill: Vec::new(),
            jitter_rng: None,
            stats: ReliableStats::default(),
        }
    }

    /// New channel drawing retry-delay jitter from `rng` (a seeded
    /// per-rank stream, so the schedule is deterministic under a seed).
    pub fn with_jitter(cfg: RetryConfig, rng: SmallRng) -> Self {
        let mut ch = ReliableChannel::new(cfg);
        if cfg.jitter > 0.0 {
            ch.jitter_rng = Some(rng);
        }
        ch
    }

    /// Delay to arm for retransmission attempt `attempt`: exponential
    /// backoff, multiplied by a jitter factor in `[1, 1 + jitter]` when a
    /// jitter stream is attached.
    fn armed_delay(&mut self, attempt: u32) -> f64 {
        let nominal = self.cfg.delay_for(attempt);
        match &mut self.jitter_rng {
            Some(rng) => nominal * (1.0 + rng.gen::<f64>() * self.cfg.jitter),
            None => nominal,
        }
    }

    /// Register a new outgoing message to `to`. Returns the assigned
    /// sequence number and the delay for the first retry timer; the
    /// caller transmits the message and arms the timer.
    pub fn send(&mut self, to: RankId, msg: M) -> (u64, f64) {
        let link = slot(&mut self.out, to);
        link.next_seq += 1;
        let seq = link.next_seq;
        self.window.push_back(Pending {
            to,
            seq,
            msg,
            attempts: 0,
        });
        self.stats.sent += 1;
        let delay = self.armed_delay(0);
        (seq, delay)
    }

    /// Handle an acknowledgement from `from` for `seq`.
    pub fn on_ack(&mut self, from: RankId, seq: u64) {
        // Recorded unconditionally — even for acks of already-settled
        // seqs — so the audit sees exactly what the peer claimed.
        let link = slot(&mut self.out, from);
        let mut mark = link.acked.saturating_sub(1);
        record(&mut mark, &mut self.acked_spill, from, seq);
        link.acked = mark + 1;
        if let Some(i) = self.find(from, seq) {
            self.window.remove(i);
            self.stats.acked += 1;
        }
    }

    /// Position of the unacknowledged `(to, seq)` in the window, looking
    /// from both ends inward (see the type's docs for the cost).
    fn find(&self, to: RankId, seq: u64) -> Option<usize> {
        let hit = |i: usize| self.window[i].seq == seq && self.window[i].to == to;
        let len = self.window.len();
        (0..len.div_ceil(2)).find_map(|front| {
            let back = len - 1 - front;
            if hit(front) {
                Some(front)
            } else if hit(back) {
                Some(back)
            } else {
                None
            }
        })
    }

    /// Receiver side: record the arrival of `(from, seq)`. Returns
    /// `true` if this is the first copy (process it) or `false` for a
    /// duplicate (re-acknowledge but do not process).
    pub fn accept(&mut self, from: RankId, seq: u64) -> bool {
        let fresh = record(slot(&mut self.seen, from), &mut self.seen_spill, from, seq);
        if !fresh {
            self.stats.duplicates_suppressed += 1;
        }
        fresh
    }

    /// Rank-sorted snapshot of every sequence number each peer has
    /// acknowledged to this rank. Sorting makes the snapshot order
    /// independent of the open-addressed table layout, preserving the
    /// no-iteration determinism contract.
    pub fn acked_view(&self) -> Vec<(RankId, SeqSetView)> {
        self.out
            .sorted()
            .into_iter()
            .filter(|(_, link)| link.acked > 0)
            .map(|(r, link)| (r, view(link.acked - 1, &self.acked_spill, r)))
            .collect()
    }

    /// Rank-sorted snapshot of every sequence number this rank has seen
    /// from each peer (the receiver-side dedup state).
    pub fn seen_view(&self) -> Vec<(RankId, SeqSetView)> {
        self.seen
            .sorted()
            .into_iter()
            .map(|(r, &mark)| (r, view(mark, &self.seen_spill, r)))
            .collect()
    }

    /// A retry timer for `(to, seq)` fired; decide what happens next.
    pub fn on_retry_timer(&mut self, to: RankId, seq: u64) -> RetryAction<M> {
        let Some(i) = self.find(to, seq) else {
            return RetryAction::Settled;
        };
        let p = &mut self.window[i];
        if p.attempts >= self.cfg.max_retries {
            let p = self.window.remove(i).expect("index just found");
            self.stats.gave_up += 1;
            return RetryAction::GaveUp { to, msg: p.msg };
        }
        p.attempts += 1;
        self.stats.retransmitted += 1;
        let (msg, attempts) = (p.msg.clone(), p.attempts);
        RetryAction::Resend {
            to,
            seq,
            msg,
            next_delay: self.armed_delay(attempts),
        }
    }

    /// Revive an abandoned message: re-insert `(to, seq, msg)` as pending
    /// with a fresh retry budget and return the delay for its first retry
    /// timer (the caller retransmits and re-arms). Used when a give-up is
    /// attributed to a degraded *link* rather than a dead peer — the
    /// membership layer still vouches for the destination, so abandoning
    /// the payload would wedge the protocol once the path recovers.
    pub fn reinstate(&mut self, to: RankId, seq: u64, msg: M) -> f64 {
        self.window.push_back(Pending {
            to,
            seq,
            msg,
            attempts: 0,
        });
        self.stats.revived += 1;
        self.armed_delay(0)
    }

    /// Drop every pending message addressed to `to` — the peer was
    /// declared dead and fenced. Their retry timers will find nothing and
    /// settle, so a corpse never drags the sender into a spurious
    /// give-up. Returns how many messages were abandoned.
    pub fn forget_peer(&mut self, to: RankId) -> usize {
        let before = self.window.len();
        self.window.retain(|p| p.to != to);
        before - self.window.len()
    }

    /// Number of unacknowledged messages. Test accessor: the model and
    /// end-of-run checks compare it against what they expect in flight.
    pub fn pending_count(&self) -> usize {
        self.window.len()
    }

    /// Count this channel's heap bytes into `census`: the two watermark
    /// tables with their spills, and the window's entries, with `payload`
    /// counting what each windowed message holds.
    pub(crate) fn heap_census(
        &self,
        census: &mut HeapCensus,
        mut payload: impl FnMut(&M, &mut HeapCensus),
    ) {
        census.add(
            Owner::ReliableOut,
            self.out.heap_bytes() + vec_bytes(&self.acked_spill),
        );
        census.add(
            Owner::ReliableSeen,
            self.seen.heap_bytes() + vec_bytes(&self.seen_spill),
        );
        census.add(
            Owner::ReliableWindow,
            self.window.capacity() * std::mem::size_of::<Pending<M>>(),
        );
        for p in &self.window {
            payload(&p.msg, census);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ch() -> ReliableChannel<&'static str> {
        ReliableChannel::new(RetryConfig::default())
    }

    #[test]
    fn seqs_are_per_destination_and_monotone() {
        let mut c = ch();
        let (s1, _) = c.send(RankId::new(1), "a");
        let (s2, _) = c.send(RankId::new(1), "b");
        let (s3, _) = c.send(RankId::new(2), "c");
        assert_eq!((s1, s2, s3), (1, 2, 1));
        assert_eq!(c.pending_count(), 3);
    }

    #[test]
    fn ack_settles_pending() {
        let mut c = ch();
        let (seq, _) = c.send(RankId::new(1), "a");
        c.on_ack(RankId::new(1), seq);
        assert_eq!(c.pending_count(), 0);
        assert_eq!(c.stats.acked, 1);
        assert_eq!(c.on_retry_timer(RankId::new(1), seq), RetryAction::Settled);
        // Duplicate ack is harmless.
        c.on_ack(RankId::new(1), seq);
        assert_eq!(c.stats.acked, 1);
    }

    #[test]
    fn retry_backs_off_then_gives_up() {
        let cfg = RetryConfig {
            timeout: 1.0,
            backoff: 2.0,
            max_retries: 2,
            stage_deadline: 10.0,
            jitter: 0.0,
        };
        let mut c: ReliableChannel<&str> = ReliableChannel::new(cfg);
        let (seq, d0) = c.send(RankId::new(3), "x");
        assert_eq!(d0, 1.0);
        match c.on_retry_timer(RankId::new(3), seq) {
            RetryAction::Resend {
                next_delay, msg, ..
            } => {
                assert_eq!(msg, "x");
                assert_eq!(next_delay, 2.0);
            }
            other => panic!("expected resend, got {other:?}"),
        }
        match c.on_retry_timer(RankId::new(3), seq) {
            RetryAction::Resend { next_delay, .. } => assert_eq!(next_delay, 4.0),
            other => panic!("expected resend, got {other:?}"),
        }
        assert_eq!(
            c.on_retry_timer(RankId::new(3), seq),
            RetryAction::GaveUp {
                to: RankId::new(3),
                msg: "x",
            }
        );
        assert_eq!(c.stats.gave_up, 1);
        assert_eq!(c.stats.retransmitted, 2);
        assert_eq!(c.pending_count(), 0);
    }

    #[test]
    fn reinstate_revives_an_abandoned_message_with_fresh_budget() {
        let cfg = RetryConfig {
            timeout: 1.0,
            backoff: 2.0,
            max_retries: 1,
            stage_deadline: 10.0,
            jitter: 0.0,
        };
        let mut c: ReliableChannel<&str> = ReliableChannel::new(cfg);
        let (seq, _) = c.send(RankId::new(2), "y");
        assert!(matches!(
            c.on_retry_timer(RankId::new(2), seq),
            RetryAction::Resend { .. }
        ));
        let RetryAction::GaveUp { to, msg } = c.on_retry_timer(RankId::new(2), seq) else {
            panic!("expected give-up");
        };
        assert_eq!(c.pending_count(), 0);
        // Link-suspect verdict: put it back with a full retry budget.
        let delay = c.reinstate(to, seq, msg);
        assert_eq!(delay, 1.0, "restarts the backoff schedule");
        assert_eq!(c.pending_count(), 1);
        assert_eq!(c.stats.revived, 1);
        // The revived message retries again from attempt zero...
        match c.on_retry_timer(RankId::new(2), seq) {
            RetryAction::Resend {
                msg, next_delay, ..
            } => {
                assert_eq!(msg, "y");
                assert_eq!(next_delay, 2.0);
            }
            other => panic!("expected resend, got {other:?}"),
        }
        // ...and an ack settles it for good.
        c.on_ack(RankId::new(2), seq);
        assert_eq!(c.pending_count(), 0);
    }

    #[test]
    fn jittered_schedule_is_deterministic_backoff_within_bounds() {
        use tempered_core::rng::RngFactory;
        let cfg = RetryConfig {
            timeout: 1.0,
            backoff: 2.0,
            max_retries: 4,
            stage_deadline: 10.0,
            jitter: 0.1,
        };
        let schedule = |seed: u64| -> Vec<f64> {
            let rng = RngFactory::new(seed).rank_stream(b"retry", 0, 0);
            let mut c: ReliableChannel<&str> = ReliableChannel::with_jitter(cfg, rng);
            let (seq, d0) = c.send(RankId::new(3), "x");
            let mut delays = vec![d0];
            loop {
                match c.on_retry_timer(RankId::new(3), seq) {
                    RetryAction::Resend { next_delay, .. } => delays.push(next_delay),
                    RetryAction::GaveUp { .. } => return delays,
                    RetryAction::Settled => unreachable!("never acked"),
                }
            }
        };
        let a = schedule(7);
        // max_retries resends after the initial arm, each with a delay.
        assert_eq!(a.len(), 5);
        for (attempt, &d) in a.iter().enumerate() {
            let nominal = cfg.delay_for(attempt as u32);
            assert!(
                d >= nominal && d <= nominal * (1.0 + cfg.jitter),
                "attempt {attempt}: {d} outside [{nominal}, {}]",
                nominal * (1.0 + cfg.jitter)
            );
        }
        // Backoff dominates the 10% jitter: the schedule still grows.
        assert!(
            a.windows(2).all(|w| w[0] < w[1]),
            "schedule must grow: {a:?}"
        );
        // Same seed, same schedule — bit-exact; different seed differs.
        assert_eq!(a, schedule(7));
        assert_ne!(a, schedule(8));
    }

    #[test]
    fn forget_peer_settles_pending_without_give_up() {
        let mut c = ch();
        let (s1, _) = c.send(RankId::new(1), "a");
        let (s2, _) = c.send(RankId::new(1), "b");
        let (s3, _) = c.send(RankId::new(2), "c");
        assert_eq!(c.forget_peer(RankId::new(1)), 2);
        assert_eq!(c.pending_count(), 1);
        // The orphaned retry timers settle instead of giving up.
        assert_eq!(c.on_retry_timer(RankId::new(1), s1), RetryAction::Settled);
        assert_eq!(c.on_retry_timer(RankId::new(1), s2), RetryAction::Settled);
        assert_eq!(c.stats.gave_up, 0);
        // Traffic to the surviving peer is untouched.
        assert!(matches!(
            c.on_retry_timer(RankId::new(2), s3),
            RetryAction::Resend { .. }
        ));
    }

    #[test]
    fn settled_peers_leave_no_pending_state_behind() {
        // One message in flight at a time, to 1 000 distinct peers: the
        // window never needs more room than the first send claimed.
        let mut c = ch();
        let (seq, _) = c.send(RankId::new(0), "m");
        c.on_ack(RankId::new(0), seq);
        let room_for_one = c.window.capacity();
        for r in 1..1000 {
            let (seq, _) = c.send(RankId::new(r), "m");
            c.on_ack(RankId::new(r), seq);
        }
        assert_eq!(c.pending_count(), 0);
        assert_eq!(c.stats.acked, 1000);
        assert_eq!(c.window.capacity(), room_for_one);
    }

    #[test]
    fn a_flood_to_every_rank_settles_without_going_quadratic() {
        // A View flood puts one message per rank of the job in flight at
        // once. Acks in send order are found at the front and acks in
        // reversed order at the back; a front-only scan would make the
        // reversed pass ~2·10⁹ comparisons and blow the bound.
        const PEERS: u32 = 65_536;
        for reversed in [false, true] {
            let mut c = ch();
            let started = std::time::Instant::now();
            for r in 0..PEERS {
                assert_eq!(c.send(RankId::new(r), "view").0, 1);
            }
            for i in 0..PEERS {
                let r = if reversed { PEERS - 1 - i } else { i };
                c.on_ack(RankId::new(r), 1);
            }
            assert_eq!(c.pending_count(), 0);
            assert_eq!(c.stats.acked, u64::from(PEERS));
            let took = started.elapsed();
            assert!(
                took < std::time::Duration::from_secs(2),
                "reversed={reversed}: {took:?} to settle a {PEERS}-peer flood"
            );
        }
    }

    #[test]
    fn accept_dedups_per_source() {
        let mut c = ch();
        assert!(c.accept(RankId::new(1), 1));
        assert!(!c.accept(RankId::new(1), 1));
        assert!(c.accept(RankId::new(2), 1));
        // Out of order: 3 before 2.
        assert!(c.accept(RankId::new(1), 3));
        assert!(c.accept(RankId::new(1), 2));
        assert!(!c.accept(RankId::new(1), 2));
        assert!(!c.accept(RankId::new(1), 3));
        assert_eq!(c.stats.duplicates_suppressed, 3);
    }

    #[test]
    fn seen_watermark_absorbs_the_spill() {
        let mut c = ch();
        let (peer, other) = (RankId::new(5), RankId::new(6));
        assert!(c.accept(other, 3));
        for seq in [2u64, 4, 1, 3] {
            assert!(c.accept(peer, seq));
        }
        assert_eq!(c.seen_spill, vec![(other, 3)], "the run 2..=4 was absorbed");
        assert!(!c.accept(peer, 3));
        assert!(c.accept(peer, 6));
        let seen = c.seen_view();
        assert_eq!(
            seen[0],
            (
                peer,
                SeqSetView {
                    watermark: 4,
                    sparse: vec![6],
                }
            )
        );
        assert_eq!(seen[1].1.sparse, vec![3], "another peer's spill stays put");
    }
}
