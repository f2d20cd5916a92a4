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
//! Its dedup and acknowledgement ledgers live for one termination
//! epoch: a basic message's sequence number is its epoch's tag over a
//! counter that restarts per (peer, epoch), and when the rank learns the
//! epoch terminated ([`ReliableChannel::close`]) its ledgers go — every
//! basic message of it has been processed, so a later copy is a
//! duplicate. Control traffic keeps one ledger for the channel's life.
//! [`ReliableChannel`] has the layout and the soundness argument.
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

/// One delivery ledger in an audit snapshot: whose sequence numbers
/// (`None` for control traffic, `Some(e)` for the basic messages of
/// epoch `e`, numbered from 1 within the epoch), the peer, and the set.
pub type LedgerView = (Option<u64>, RankId, SeqSetView);

/// What the channel reads off a payload: the termination-detection
/// epoch of a *basic* message, whose ledgers live only as long as the
/// epoch, or `None` for control traffic.
pub trait Payload: Clone {
    /// The basic epoch this payload belongs to; `None` for control
    /// traffic.
    fn basic_epoch(&self) -> Option<u64>;
}

#[derive(Clone, Debug)]
struct Pending<M> {
    to: RankId,
    seq: u64,
    msg: M,
    attempts: u32,
}

/// Sender-side state for one destination: two 32-bit watermarks, so a
/// table slot with its key is 12 bytes.
#[derive(Clone, Copy, Debug, Default)]
struct OutLink {
    /// Last sequence number stamped toward this peer.
    next_seq: u32,
    /// The peer's acknowledged watermark plus one: `1..acked` are all
    /// acknowledged. Zero until the peer acknowledges anything — even a
    /// zero or out-of-order seq — so a peer that was only ever sent to
    /// stays out of the acked ledger.
    acked: u32,
}

/// Highest acknowledged watermark an [`OutLink`] stores (its `acked` is
/// the watermark plus one); an acknowledgement above it waits in the
/// acked spill.
const ACKED_LIMIT: u64 = u32::MAX as u64 - 1;

/// Highest seen watermark a slot stores; an arrival above it waits in the
/// seen spill.
const SEEN_LIMIT: u64 = u32::MAX as u64;

/// The sequence number of the `counter`-th message of the epoch tagged
/// `tag`: the tag in the high half, the counter in the low.
fn tagged(tag: u32, counter: u64) -> u64 {
    (u64::from(tag) << 32) | counter
}

/// The tag half of a sequence number: 0 for control traffic.
fn tag_of(seq: u64) -> u32 {
    (seq >> 32) as u32
}

/// The counter half of a sequence number.
fn counter_of(seq: u64) -> u64 {
    seq & u64::from(u32::MAX)
}

/// Both directions' ledgers over one sequence space: the control
/// traffic's, or one basic epoch's.
#[derive(Clone, Debug, Default)]
struct Ledgers {
    /// Sequence and acknowledgement watermarks per destination rank.
    out: PeerTable<OutLink>,
    /// Sender-side record of every sequence number a peer has
    /// acknowledged beyond its `OutLink::acked` prefix, as `(peer, seq)`
    /// sorted ascending. Together with the prefix this is independent of
    /// the pending window, which forgets a seq the moment it settles: the
    /// audit layer compares it against the receiver's seen ledger, and an
    /// acked-but-never-seen seq is a forged or misrouted acknowledgement.
    acked_spill: Vec<(RankId, u64)>,
    /// Receiver-side dedup watermark per source rank.
    seen: PeerTable<u32>,
    /// Accepted sequence numbers beyond their source's `seen` watermark,
    /// as `(source, seq)` sorted ascending.
    seen_spill: Vec<(RankId, u64)>,
}

impl Ledgers {
    /// The next sequence number toward `to`.
    fn stamp(&mut self, to: RankId) -> u64 {
        let link = slot(&mut self.out, to);
        link.next_seq = link
            .next_seq
            .checked_add(1)
            .expect("more than u32::MAX messages to one peer");
        u64::from(link.next_seq)
    }

    /// Record that `from` acknowledged `seq`.
    fn ack(&mut self, from: RankId, seq: u64) {
        let link = slot(&mut self.out, from);
        let mut mark = u64::from(link.acked.saturating_sub(1));
        record(&mut mark, &mut self.acked_spill, from, seq, ACKED_LIMIT);
        link.acked = (mark + 1) as u32;
    }

    /// Record the arrival of `seq` from `from`; `true` the first time.
    fn accept(&mut self, from: RankId, seq: u64) -> bool {
        let seen = slot(&mut self.seen, from);
        let mut mark = u64::from(*seen);
        let fresh = record(&mut mark, &mut self.seen_spill, from, seq, SEEN_LIMIT);
        *seen = mark as u32;
        fresh
    }

    /// Rank-sorted snapshot of what each peer acknowledged, labelled
    /// `scope`.
    fn acked_view(&self, scope: Option<u64>, into: &mut Vec<LedgerView>) {
        into.extend(
            self.out
                .sorted()
                .into_iter()
                .filter(|(_, link)| link.acked > 0)
                .map(|(r, link)| {
                    let mark = u64::from(link.acked) - 1;
                    (scope, r, view(mark, &self.acked_spill, r))
                }),
        );
    }

    /// Rank-sorted snapshot of what this rank accepted from each peer,
    /// labelled `scope`.
    fn seen_view(&self, scope: Option<u64>, into: &mut Vec<LedgerView>) {
        into.extend(
            self.seen
                .sorted()
                .into_iter()
                .map(|(r, mark)| (scope, r, view(u64::from(mark), &self.seen_spill, r))),
        );
    }

    /// Heap bytes of the sender side and of the receiver side.
    fn heap_bytes(&self) -> (usize, usize) {
        (
            self.out.heap_bytes() + vec_bytes(&self.acked_spill),
            self.seen.heap_bytes() + vec_bytes(&self.seen_spill),
        )
    }
}

/// The ledgers of one open basic epoch.
#[derive(Clone, Debug)]
struct EpochLedgers {
    epoch: u64,
    /// The tag this rank stamps on the epoch's sequence numbers; 0 until
    /// it first sends in the epoch.
    tag: u32,
    ledgers: Ledgers,
}

/// Per-rank reliable-delivery state over message type `M`.
///
/// **Ledgers live for one epoch.** Control traffic (termination tokens,
/// `Terminated`, reduces, views) keeps one ledger for the channel's
/// life: per peer, two watermarks. Basic messages — the ones termination
/// detection counts — keep one ledger *per open epoch*, numbered from 1
/// per (peer, epoch). When the rank learns that epoch *e* terminated,
/// [`ReliableChannel::close`] drops every ledger through *e*: termination
/// means every basic message of *e* (and of every earlier epoch) was
/// processed, so a later copy is a duplicate whatever it carries:
/// [`ReliableChannel::accept_in`] reports it as one without giving it a
/// slot, and the rank acknowledges it and drops it. A rank therefore holds slots for the peers of the epoch it is
/// in (and of one it was sent ahead of), not for every peer it ever met.
///
/// **Sequence numbers name exactly one frame.** A basic message's seq
/// carries its epoch's *tag* in the high half and the per-(peer, epoch)
/// counter in the low half; control traffic has tag 0. The tag is one
/// more than the epoch's low half, plus an offset that moves past every
/// tag used so far each time the rank sends in a newer view generation —
/// so an epoch of
/// a later view never reuses an earlier view's tag, and an
/// acknowledgement of a stale frame can never settle a current one. The
/// receiver keys a basic ledger by the *payload's* epoch, not by the
/// tag, so a stale-generation frame can never land in a current ledger.
///
/// Within a ledger, per-peer state is two watermarks, not sets: `out`
/// holds, per destination, the last stamped sequence number and the
/// contiguous acknowledged prefix; `seen` holds, per source, the
/// contiguous prefix of accepted sequence numbers. A sequence number
/// beyond a watermark waits in that direction's spill, one rank-sorted
/// vector per ledger, until the arrival that makes it contiguous absorbs
/// it. Latency jitter keeps the spill to a handful of entries and in
/// fault-free steady state it is empty, so a peer costs one table slot
/// per direction (12 and 8 bytes) instead of a set.
///
/// The watermarks are 32-bit while the API's sequence numbers are 64-bit:
/// a sequence number above a slot's limit (a forged or damaged one off the
/// wire) still gets exact set semantics — it waits in its direction's
/// 64-bit spill like any other out-of-order arrival, and the watermark
/// never advances past what it can hold.
///
/// The tables are open-addressed (see `PeerTable`) rather than std hash
/// maps or dense rank-indexed arrays: every data message costs several
/// point lookups here, and at simulator scale the hashing itself was a
/// measurable slice of the wall clock, while dense tables cost O(P) per
/// rank — O(P²) across the job.
///
/// Unacknowledged messages are *not* per-peer state: a container per
/// peer outlives the few microseconds its messages are in flight and
/// costs memory for every peer ever contacted, while what is in flight
/// at once across all peers is a handful of entries. They live in one
/// window per rank, in send order, and a retry timer keeps firing until
/// its frame is acknowledged, whether or not its epoch has closed.
/// Acknowledgements come back in roughly the order the messages left, so
/// a lookup walks the window from both ends inward and costs O(distance
/// to the nearer end): O(1) for acks in send order or in exactly
/// reversed order — including after a View flood to every rank of the
/// job — and O(in-flight count) at worst, as for a retry timer whose
/// message has long settled. Removal keeps the order (it shifts the
/// shorter side), which is what keeps the oldest entry at the front.
#[derive(Clone, Debug)]
pub struct ReliableChannel<M> {
    cfg: RetryConfig,
    /// The control traffic's ledgers.
    control: Ledgers,
    /// The open basic epochs' ledgers, by ascending epoch: the current
    /// one and any a peer sent ahead of it.
    epochs: Vec<EpochLedgers>,
    /// Every basic epoch up to and including this one is closed.
    closed: Option<u64>,
    /// The view generation (an epoch's high half) the tag offset is for.
    tag_generation: u64,
    /// Added to an epoch's low half to make its tag.
    tag_offset: u32,
    /// The highest tag stamped so far.
    last_tag: u32,
    /// Unacknowledged messages to every destination, oldest first.
    window: VecDeque<Pending<M>>,
    /// Seeded stream for retry-delay jitter; `None` pins the exact
    /// exponential schedule.
    jitter_rng: Option<SmallRng>,
    /// Delivery-layer counters.
    pub stats: ReliableStats,
}

/// Sparse per-peer table: open addressing over a power-of-two array of
/// `(key, value)` slots with a fixed multiplicative hash. Memory stays
/// proportional to the peers this rank has actually contacted while a hit
/// costs one multiply and, in the common case, a single probe that reads
/// the key and its value from one cache line — matching the dense
/// layout's speed without its O(P)-per-rank footprint. The fixed hash,
/// and snapshots that sort what they read, keep behavior
/// bit-deterministic.
#[derive(Clone, Debug, Default)]
struct PeerTable<T> {
    /// Slots; a key of `EMPTY` marks an unused one (its value is the
    /// default). Length is a power of two.
    slots: Vec<(u32, T)>,
    /// Occupied slot count.
    len: usize,
}

/// Unused-slot sentinel: rank ids are dense small integers, never this.
const EMPTY: u32 = u32::MAX;

impl<T: Copy + Default> PeerTable<T> {
    /// Probe for `r`, returning its slot index or the empty slot where
    /// it belongs. Requires a non-empty table.
    fn probe(&self, r: u32) -> usize {
        let mask = self.slots.len() - 1;
        let mut i = r.wrapping_mul(0x9E37_79B9) as usize & mask;
        loop {
            let k = self.slots[i].0;
            if k == r || k == EMPTY {
                return i;
            }
            i = (i + 1) & mask;
        }
    }

    /// Double the slot array (to at least 8 slots) and re-place every
    /// occupied entry.
    fn grow(&mut self) {
        let new_cap = (self.slots.len() * 2).max(8);
        let old = std::mem::replace(&mut self.slots, vec![(EMPTY, T::default()); new_cap]);
        for (k, v) in old {
            if k != EMPTY {
                let i = self.probe(k);
                self.slots[i] = (k, v);
            }
        }
    }

    /// Heap bytes of the slot array.
    fn heap_bytes(&self) -> usize {
        vec_bytes(&self.slots)
    }

    /// Every occupied slot, sorted by rank so that no caller sees the
    /// open-addressed layout's order.
    fn sorted(&self) -> Vec<(RankId, T)> {
        let mut out: Vec<(RankId, T)> = self
            .slots
            .iter()
            .filter(|&&(k, _)| k != EMPTY)
            .map(|&(k, v)| (RankId(k), v))
            .collect();
        out.sort_by_key(|&(r, _)| r);
        out
    }
}

/// Fetch the state slot for `rank`, inserting a default on first
/// contact.
fn slot<T: Copy + Default>(table: &mut PeerTable<T>, rank: RankId) -> &mut T {
    let r = rank.as_usize() as u32;
    debug_assert_ne!(r, EMPTY);
    // Grow at 3/4 load (and on first touch) so probes stay short.
    if (table.len + 1) * 4 > table.slots.len() * 3 {
        table.grow();
    }
    let i = table.probe(r);
    let entry = &mut table.slots[i];
    if entry.0 == EMPTY {
        entry.0 = r;
        table.len += 1;
    }
    &mut entry.1
}

/// Add `seq` to `peer`'s set — every seq in `1..=*mark`, plus `peer`'s
/// entries in the direction's `spill` — and return `true` the first time
/// it is added. Zero is never a member, and the watermark never passes
/// `limit` (what the direction's slot can hold): a seq beyond it stays in
/// the spill.
///
/// An in-order arrival (the overwhelmingly common case) advances the
/// watermark and absorbs any spilled run it made contiguous; anything
/// further ahead waits in the spill.
fn record(
    mark: &mut u64,
    spill: &mut Vec<(RankId, u64)>,
    peer: RankId,
    seq: u64,
    limit: u64,
) -> bool {
    if seq <= *mark {
        return false;
    }
    if seq == *mark + 1 && seq <= limit {
        *mark = seq;
        if let Ok(start) = spill.binary_search(&(peer, seq + 1)) {
            let run = spill[start..]
                .iter()
                .zip(seq + 1..=limit)
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

impl<M: Payload> ReliableChannel<M> {
    /// New channel with the given retry policy and no jitter stream
    /// (exact exponential schedule).
    pub fn new(cfg: RetryConfig) -> Self {
        ReliableChannel {
            cfg,
            control: Ledgers::default(),
            epochs: Vec::new(),
            closed: None,
            tag_generation: 0,
            tag_offset: 0,
            last_tag: 0,
            window: VecDeque::new(),
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

    /// The open ledgers of basic epoch `epoch`, opened on first use.
    fn ledgers_of(&mut self, epoch: u64) -> &mut EpochLedgers {
        let i = match self.epochs.binary_search_by_key(&epoch, |l| l.epoch) {
            Ok(i) => i,
            Err(i) => {
                let ledgers = EpochLedgers {
                    epoch,
                    tag: 0,
                    ledgers: Ledgers::default(),
                };
                // One or two epochs are open at a time: no spare room.
                self.epochs.reserve_exact(1);
                self.epochs.insert(i, ledgers);
                i
            }
        };
        &mut self.epochs[i]
    }

    /// The tag this rank stamps on epoch `epoch`'s sequence numbers: one
    /// more than the epoch's low half, past every tag of an older view
    /// generation.
    fn tag_for(&mut self, epoch: u64) -> u32 {
        let generation = epoch >> 32;
        if generation > self.tag_generation {
            self.tag_generation = generation;
            self.tag_offset = self.last_tag;
        }
        let tag = (epoch as u32)
            .checked_add(1)
            .and_then(|t| t.checked_add(self.tag_offset))
            .expect("more than u32::MAX basic epochs");
        self.last_tag = self.last_tag.max(tag);
        tag
    }

    /// Whether basic epoch `epoch` is closed.
    fn is_closed(&self, epoch: u64) -> bool {
        self.closed.is_some_and(|c| epoch <= c)
    }

    /// Register a new outgoing message to `to`. Returns the assigned
    /// sequence number and the delay for the first retry timer; the
    /// caller transmits the message and arms the timer.
    pub fn send(&mut self, to: RankId, msg: M) -> (u64, f64) {
        let seq = match msg.basic_epoch() {
            None => self.control.stamp(to),
            Some(epoch) => {
                debug_assert!(!self.is_closed(epoch), "a send in closed epoch {epoch}");
                if self.ledgers_of(epoch).tag == 0 {
                    let tag = self.tag_for(epoch);
                    self.ledgers_of(epoch).tag = tag;
                }
                let l = self.ledgers_of(epoch);
                tagged(l.tag, l.ledgers.stamp(to))
            }
        };
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

    /// Handle an acknowledgement from `from` for `seq`. It settles the
    /// pending frame it names, and goes into that frame's ledger while
    /// its epoch is open; an acknowledgement for a closed epoch is kept
    /// nowhere.
    pub fn on_ack(&mut self, from: RankId, seq: u64) {
        // Recorded unconditionally — even for acks of already-settled
        // seqs — so the audit sees exactly what the peer claimed.
        match tag_of(seq) {
            0 => self.control.ack(from, seq),
            tag => {
                if let Some(l) = self.epochs.iter_mut().find(|l| l.tag == tag) {
                    l.ledgers.ack(from, counter_of(seq));
                }
            }
        }
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
    /// duplicate (re-acknowledge but do not process). A frame of a basic
    /// epoch is filed under the epoch its tag names — one less than the
    /// tag, for a sender that never changed view; a rank that has the
    /// payload at hand uses [`ReliableChannel::accept_in`].
    pub fn accept(&mut self, from: RankId, seq: u64) -> bool {
        let epoch = tag_of(seq).checked_sub(1).map(u64::from);
        self.accept_in(from, seq, epoch)
    }

    /// Receiver side: record the arrival of `(from, seq)` carrying a
    /// payload of basic epoch `epoch` (`None` for control traffic).
    /// Returns `true` for the first copy and `false` for a duplicate. A
    /// frame of a closed epoch is a duplicate and takes no slot; one of
    /// an open or a future epoch is deduplicated by its counter within
    /// that epoch's ledger.
    pub fn accept_in(&mut self, from: RankId, seq: u64, epoch: Option<u64>) -> bool {
        let fresh = match epoch {
            None => self.control.accept(from, seq),
            Some(e) if self.is_closed(e) => false,
            Some(e) => self.ledgers_of(e).ledgers.accept(from, counter_of(seq)),
        };
        if !fresh {
            self.stats.duplicates_suppressed += 1;
        }
        fresh
    }

    /// Close every basic epoch up to and including `epoch`: the rank
    /// learned that it terminated. Their ledgers go, and with no epoch
    /// left open, so does the list's buffer: what a channel keeps past a
    /// close is its control ledger and the epochs a peer sent ahead of.
    pub fn close(&mut self, epoch: u64) {
        if self.is_closed(epoch) {
            return;
        }
        self.closed = Some(epoch);
        let open = self.epochs.partition_point(|l| l.epoch <= epoch);
        self.epochs.drain(..open);
        if self.epochs.is_empty() {
            self.epochs = Vec::new();
        }
    }

    /// The highest closed basic epoch, if any.
    pub fn closed_through(&self) -> Option<u64> {
        self.closed
    }

    /// Snapshot of what each peer acknowledged to this rank, one entry
    /// per (scope, peer) in ascending order: the control ledger, then each
    /// open epoch's. Sorting makes the snapshot independent of the
    /// open-addressed tables' layout, preserving the no-iteration
    /// determinism contract.
    pub fn acked_view(&self) -> Vec<LedgerView> {
        self.views(u64::MAX, true, Ledgers::acked_view)
    }

    /// Snapshot of what this rank accepted from each peer (the
    /// receiver-side dedup state), in [`ReliableChannel::acked_view`]'s
    /// order.
    pub fn seen_view(&self) -> Vec<LedgerView> {
        self.views(u64::MAX, true, Ledgers::seen_view)
    }

    /// The acked and seen snapshots of the open epochs up to and
    /// including `epoch` — what [`ReliableChannel::close`] is about to
    /// drop.
    pub fn closing_views(&self, epoch: u64) -> (Vec<LedgerView>, Vec<LedgerView>) {
        (
            self.views(epoch, false, Ledgers::acked_view),
            self.views(epoch, false, Ledgers::seen_view),
        )
    }

    fn views(
        &self,
        through: u64,
        control: bool,
        one: fn(&Ledgers, Option<u64>, &mut Vec<LedgerView>),
    ) -> Vec<LedgerView> {
        let mut out = Vec::new();
        if control {
            one(&self.control, None, &mut out);
        }
        for l in self.epochs.iter().take_while(|l| l.epoch <= through) {
            one(&l.ledgers, Some(l.epoch), &mut out);
        }
        out
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

    /// Count this channel's heap bytes into `census`: the ledgers with
    /// their spills and the list of open epochs, and the window's
    /// entries, with `payload` counting what each windowed message holds.
    pub(crate) fn heap_census(
        &self,
        census: &mut HeapCensus,
        mut payload: impl FnMut(&M, &mut HeapCensus),
    ) {
        let (mut out, mut seen) = self.control.heap_bytes();
        for l in self.epochs.iter().map(|l| &l.ledgers) {
            let (o, s) = l.heap_bytes();
            out += o;
            seen += s;
        }
        // The open-epoch list holds both directions; its bytes go with
        // the receiver side, which opens most epochs.
        seen += vec_bytes(&self.epochs);
        census.add(Owner::ReliableOut, out);
        census.add(Owner::ReliableSeen, seen);
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

    impl Payload for &'static str {
        fn basic_epoch(&self) -> Option<u64> {
            None
        }
    }

    /// A basic message of the given epoch.
    #[derive(Clone, Copy, Debug, PartialEq)]
    struct Basic(u64);

    impl Payload for Basic {
        fn basic_epoch(&self) -> Option<u64> {
            Some(self.0)
        }
    }

    fn ch() -> ReliableChannel<&'static str> {
        ReliableChannel::new(RetryConfig::default())
    }

    fn basic() -> ReliableChannel<Basic> {
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
        assert_eq!(
            c.control.seen_spill,
            vec![(other, 3)],
            "the run 2..=4 was absorbed"
        );
        assert!(!c.accept(peer, 3));
        assert!(c.accept(peer, 6));
        let seen = c.seen_view();
        assert_eq!(
            seen[0],
            (
                None,
                peer,
                SeqSetView {
                    watermark: 4,
                    sparse: vec![6],
                }
            )
        );
        assert_eq!(seen[1].2.sparse, vec![3], "another peer's spill stays put");
    }

    #[test]
    fn a_sequence_number_beyond_the_slot_waits_in_the_spill() {
        // Both directions' limits, with the watermark one short of the
        // limit and at it: every arrival is accepted once, refused after,
        // and listed in the view — in the spill whenever it is above what
        // the 32-bit slot holds.
        let peer = RankId::new(9);
        let max = u64::from(u32::MAX);
        for limit in [ACKED_LIMIT, SEEN_LIMIT] {
            for start in [max - 1, max] {
                let mut mark = start.min(limit);
                let mut spill = Vec::new();
                for seq in [max, max + 1, u64::MAX] {
                    let fresh = seq > mark;
                    assert_eq!(record(&mut mark, &mut spill, peer, seq, limit), fresh);
                    assert!(!record(&mut mark, &mut spill, peer, seq, limit));
                    assert!(mark <= limit, "limit {limit}: watermark {mark}");
                    let v = view(mark, &spill, peer);
                    assert!(v.contains(seq), "limit {limit}, start {start}: {seq}");
                    assert_eq!(v.sparse.contains(&seq), seq > limit);
                }
            }
        }
    }

    #[test]
    fn a_ledger_at_its_limit_keeps_set_semantics_through_the_channel() {
        let mut c = ch();
        let peer = RankId::new(4);
        *slot(&mut c.control.seen, peer) = u32::MAX - 1;
        slot(&mut c.control.out, peer).acked = u32::MAX;
        let max = u64::from(u32::MAX);
        for seq in [max, max + 1, u64::MAX] {
            assert!(c.accept_in(peer, seq, None), "{seq} is new");
            assert!(!c.accept_in(peer, seq, None), "{seq} is a duplicate");
            c.on_ack(peer, seq);
        }
        let seen = &c.seen_view()[0].2;
        assert_eq!(seen.watermark, max);
        assert_eq!(seen.sparse, vec![max + 1, u64::MAX]);
        // An ack carries no payload: above u32::MAX its tag names a basic
        // epoch this rank never sent in, and it is kept nowhere.
        assert_eq!(c.acked_view().len(), 1);
        let acked = &c.acked_view()[0].2;
        assert_eq!(acked.watermark, max - 1);
        assert_eq!(acked.sparse, vec![max]);
    }

    #[test]
    fn a_slot_is_twelve_bytes_out_and_eight_in() {
        fn slot_bytes<T>(_: &PeerTable<T>) -> usize {
            std::mem::size_of::<(u32, T)>()
        }
        let c = ch();
        assert_eq!(slot_bytes(&c.control.out), 12);
        assert_eq!(slot_bytes(&c.control.seen), 8);
    }

    #[test]
    fn basic_seqs_carry_the_epoch_tag_and_restart_per_epoch() {
        let mut c = basic();
        let (p, q) = (RankId::new(1), RankId::new(2));
        assert_eq!(c.send(p, Basic(3)).0, (4 << 32) | 1);
        assert_eq!(c.send(p, Basic(3)).0, (4 << 32) | 2);
        assert_eq!(c.send(q, Basic(3)).0, (4 << 32) | 1);
        assert_eq!(c.send(p, Basic(4)).0, (5 << 32) | 1);
        // The tag-only receiver path files each under the epoch it names.
        assert!(c.accept(q, (4 << 32) | 1));
        assert_eq!(c.seen_view()[0].0, Some(3));
        // Control traffic keeps tag 0 and its own numbering.
        let mut c: ReliableChannel<&str> = ch();
        assert_eq!(c.send(p, "token").0, 1);
    }

    #[test]
    fn a_closed_epoch_takes_no_slot_and_its_late_copies_are_duplicates() {
        let mut c = basic();
        let p = RankId::new(7);
        assert!(c.accept_in(p, (5 << 32) | 1, Some(5)));
        assert!(!c.accept_in(p, (5 << 32) | 1, Some(5)));
        // A frame of the next epoch, sent ahead, gets a slot of its own.
        assert!(c.accept_in(p, (6 << 32) | 1, Some(6)));
        c.close(5);
        assert_eq!(c.epochs.len(), 1, "epoch 6 is still open");
        let dups = c.stats.duplicates_suppressed;
        assert!(!c.accept_in(p, (5 << 32) | 2, Some(5)), "late: a duplicate");
        assert_eq!(c.stats.duplicates_suppressed, dups + 1);
        assert_eq!(c.epochs.len(), 1, "and no slot for it");
        assert!(!c.accept_in(p, (6 << 32) | 1, Some(6)));
        assert!(c.accept_in(p, (6 << 32) | 2, Some(6)));
        // Closing is idempotent and never reopens.
        c.close(3);
        assert!(!c.accept_in(p, (4 << 32) | 9, Some(4)));
    }

    #[test]
    fn a_retry_timer_outlives_its_epochs_close_until_acked() {
        let mut c = basic();
        let p = RankId::new(3);
        let (seq, _) = c.send(p, Basic(2));
        c.close(2);
        assert!(matches!(
            c.on_retry_timer(p, seq),
            RetryAction::Resend { .. }
        ));
        c.on_ack(p, seq);
        assert_eq!(c.pending_count(), 0);
        assert_eq!(c.on_retry_timer(p, seq), RetryAction::Settled);
        assert!(c.acked_view().is_empty(), "a closed epoch keeps no ledger");
    }

    #[test]
    fn a_stale_generation_frame_cannot_poison_the_current_epoch() {
        // Epoch 1 of view generation 0 and epoch 1 of generation 1 share
        // their low half. The receiver files each under its own epoch;
        // the sender gives the later one a tag of its own, so an ack of
        // the stale frame cannot settle the current one.
        let stale = 1;
        let current = crate::membership::VIEW_EPOCH_STRIDE + 1;
        let p = RankId::new(4);
        let mut rx = basic();
        assert!(rx.accept_in(p, (1 << 32) | 1, Some(stale)));
        assert!(
            rx.accept_in(p, (1 << 32) | 1, Some(current)),
            "not a duplicate"
        );
        assert!(!rx.accept_in(p, (1 << 32) | 1, Some(current)));

        let mut tx = basic();
        let (old, _) = tx.send(p, Basic(stale));
        let (new, _) = tx.send(p, Basic(current));
        assert_ne!(old, new, "one sequence number, one frame");
        assert_eq!(new >> 32, 4, "past every tag of the older generation");
        tx.on_ack(p, old);
        assert_eq!(tx.pending_count(), 1, "the current frame still waits");
        assert!(matches!(
            tx.on_retry_timer(p, new),
            RetryAction::Resend { .. }
        ));
    }

    #[test]
    fn a_channel_that_met_a_thousand_peers_keeps_only_its_fixed_capacity_once_closed() {
        let mut c = basic();
        let epoch = 9;
        for r in 0..1000 {
            let peer = RankId::new(r);
            let (seq, _) = c.send(peer, Basic(epoch));
            c.on_ack(peer, seq);
            assert!(c.accept_in(peer, (9 << 32) | 1, Some(epoch)));
        }
        let mut census = HeapCensus::default();
        c.heap_census(&mut census, |_, _| {});
        census.settle();
        let met = census.get(Owner::ReliableOut) + census.get(Owner::ReliableSeen);
        assert!(met > 1000 * (12 + 8), "{met} B for 1 000 peers");
        c.close(epoch);
        let mut census = HeapCensus::default();
        c.heap_census(&mut census, |_, _| {});
        census.settle();
        let kept = census.get(Owner::ReliableOut) + census.get(Owner::ReliableSeen);
        assert_eq!(kept, 0, "no control traffic, no epoch open: nothing kept");
        assert!(c.acked_view().is_empty() && c.seen_view().is_empty());
    }
}
