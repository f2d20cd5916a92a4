//! The wall-clock rank host: the one driver loop under the threaded
//! executor ([`crate::parallel`]) and the TCP driver ([`crate::lb::socket`]).
//!
//! A [`Host`] owns some of a run's ranks and everything hosting them on a
//! wall clock takes: the `Instant` → seconds clock, the [`LinkEmulator`]
//! that rules on their sends, a [`TimerWheel`] on that clock holding
//! protocol timers and delay-fated copies, the reused handler buffers and
//! the send counters.
//! What differs between drivers stays with them, as two closures:
//!
//! * `egress(from, to, msg)` — where a surviving copy for a rank on
//!   another host goes: that worker's channel, that process's frame queue.
//! * the per-turn stop rule — done-count and idle timeout for threads,
//!   stop flag and deadline for sockets.
//!
//! Which host a rank lives on, and at which slot, is a [`Layout`]: blocks
//! of consecutive ranks dealt round-robin over the hosts. A surviving copy
//! for a rank this host holds — a self-send included — never meets
//! `egress`: it joins a host-local FIFO and is delivered from there, crash
//! gate included. The emulator rules on it like on any other send.
//!
//! Copies fated to a delay are held on the *sending* side — the one rule
//! that also works across processes — and released no earlier than their
//! arrival time; pause deferral rides in the same arrival time. Timers
//! are local: they bypass the emulator and `egress`, but not the crash
//! gate. One clock reading serves a whole handler turn: the `now` the
//! handler sees is the send time the emulator rules on.
//!
//! The inbox is a `std::sync::mpsc` channel, and the loop spins before it
//! parks: a handler takes microseconds and waking a parked thread takes
//! tens, so a host that blocked the instant its inbox ran dry would pay
//! the kernel once per message. After a turn that did work it polls for
//! [`SPIN`] first and blocks only when that stays empty; a host with
//! nothing to do goes straight back to sleep. A turn ends by delivering
//! what the local FIFO held when that sweep began, so a local chain and
//! the inbox take turns and neither starves the other.

use crate::emulator::{wall_arrival, LinkEmulator};
use crate::fault::{FaultPlan, FaultStats};
use crate::sim::{Ctx, Protocol};
use crate::wheel::TimerWheel;
use std::collections::VecDeque;
use std::sync::mpsc::{Receiver, RecvTimeoutError, TryRecvError};
use std::time::{Duration, Instant};
use tempered_core::ids::RankId;
use tempered_obs::{NetworkStats, Recorder};

/// One message on its way into a host: `(from, to, msg)`.
pub(crate) type Inbound<M> = (RankId, RankId, M);

/// Longest the receive loop sleeps before it reconsults the stop rule.
const TICK: Duration = Duration::from_millis(1);

/// Held-entry bucket width in seconds. Delay fault windows are given in
/// units of 100 µs and link emulation tolerates millisecond jitter, so
/// 1 ms buckets keep the wheel's near horizon at 256 ms.
const HELD_QUANTUM: f64 = 1e-3;

/// How long a host that just did work polls an empty inbox before it
/// blocks. A reply to what it just sent is typically a handler away, and
/// a wake-up from the kernel costs more than several handlers. Measured
/// flat from 10 to 300 µs; short enough that a host out of work burns one
/// window and then sleeps.
const SPIN: Duration = Duration::from_micros(50);

/// What the receive step did when it found the inbox empty.
#[derive(Debug, Default)]
pub(crate) struct IdleStats {
    /// Polling windows entered.
    pub(crate) spins: u64,
    /// Polling windows that ended in a message.
    pub(crate) spin_hits: u64,
    /// Blocking waits entered.
    pub(crate) parks: u64,
}

impl IdleStats {
    pub(crate) fn merge(&mut self, other: &IdleStats) {
        self.spins += other.spins;
        self.spin_hits += other.spin_hits;
        self.parks += other.parks;
    }
}

/// Where ranks live: blocks of `block` consecutive ranks dealt
/// round-robin over `hosts` hosts, each host's ranks in ascending order
/// at dense slots. One rank per process is `block = 1, hosts = P`.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Layout {
    pub(crate) block: usize,
    pub(crate) hosts: usize,
}

impl Layout {
    /// The host that holds `rank`.
    pub(crate) fn host(self, rank: usize) -> usize {
        (rank / self.block) % self.hosts
    }

    /// Where `rank` sits among its host's ranks.
    pub(crate) fn slot(self, rank: usize) -> usize {
        rank / (self.block * self.hosts) * self.block + rank % self.block
    }
}

enum Held<M> {
    /// A protocol timer, due back at the rank that scheduled it.
    Timer(RankId, M),
    /// A delay-fated copy `(from, to, msg)` awaiting egress.
    Send(RankId, RankId, M),
}

/// The ranks of one worker thread or one rank process, and the loop that
/// runs them.
pub(crate) struct Host<P: Protocol> {
    /// Hosted ranks by ascending id, each at its [`Layout::slot`].
    ranks: Vec<(usize, P)>,
    layout: Layout,
    /// This host's index in `layout`.
    index: usize,
    /// Surviving copies `(from, to, msg)` for hosted ranks, in send order.
    local: VecDeque<Inbound<P::Msg>>,
    /// Per slot: already counted by [`Host::newly_done`].
    done: Vec<bool>,
    fresh_done: usize,
    start: Instant,
    emulator: LinkEmulator,
    /// Held entries keyed by their due time on [`Host::now`]'s clock.
    held: TimerWheel<f64, Held<P::Msg>>,
    outbox: Vec<(RankId, P::Msg, usize)>,
    timers: Vec<(f64, P::Msg)>,
    stats: NetworkStats,
    idle: IdleStats,
}

impl<P: Protocol> Host<P> {
    /// Host `ranks`: every rank `layout` puts on the host of the first
    /// (there is at least one), in ascending order (a single-rank host passes one-rank blocks over
    /// as many hosts as the run has ranks).
    ///
    /// `start` is the run's time zero, which fault windows count from.
    /// Hosts of one run share it and each build their own emulator over
    /// the same plan: per-link fault ordinals are keyed by the sending
    /// rank, and all of a rank's sends pass through its host, so the
    /// split reproduces the single-emulator simulator exactly.
    pub(crate) fn new(
        ranks: Vec<(usize, P)>,
        layout: Layout,
        start: Instant,
        plan: FaultPlan,
        recorder: Recorder,
    ) -> Self {
        Host {
            done: vec![false; ranks.len()],
            index: layout.host(ranks[0].0),
            ranks,
            layout,
            local: VecDeque::new(),
            fresh_done: 0,
            start,
            emulator: LinkEmulator::new(plan, recorder),
            held: TimerWheel::new(1.0 / HELD_QUANTUM),
            outbox: Vec::new(),
            timers: Vec::new(),
            stats: NetworkStats::default(),
            idle: IdleStats::default(),
        }
    }

    /// Wall-clock seconds since the run started: the hosts' analogue of
    /// the simulator's virtual clock.
    pub(crate) fn now(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    /// The hosted ranks, their send counters, the fault accounting and
    /// what the receive step did with an empty inbox.
    pub(crate) fn finish(self) -> (Vec<(usize, P)>, NetworkStats, FaultStats, IdleStats) {
        (self.ranks, self.stats, self.emulator.stats(), self.idle)
    }

    /// How many hosted ranks finished since the last call: those whose
    /// protocol reported done, and those the plan has crashed for good —
    /// they can never report done, and waiting on them would turn every
    /// fatal crash into a hang. Each rank is counted once.
    pub(crate) fn newly_done(&mut self) -> usize {
        if self.emulator.has_crashes() {
            let now = self.now();
            for (done, (id, _)) in self.done.iter_mut().zip(&self.ranks) {
                if !*done && self.emulator.down_forever(RankId::from(*id), now) {
                    *done = true;
                    self.fresh_done += 1;
                }
            }
        }
        std::mem::take(&mut self.fresh_done)
    }

    /// Run one handler of the rank at `slot`, then route what it produced:
    /// sends through the emulator to the local FIFO or `egress` (or into
    /// the held queue when fated to a delay), timers into the held queue.
    fn turn(
        &mut self,
        slot: usize,
        now: f64,
        egress: &mut impl FnMut(RankId, RankId, P::Msg),
        handler: impl FnOnce(&mut P, &mut Ctx<'_, P::Msg>),
    ) {
        let (id, rank) = &mut self.ranks[slot];
        let me = RankId::from(*id);
        let mut ctx = Ctx::new(me, now, &mut self.outbox, &mut self.timers);
        handler(rank, &mut ctx);
        for (to, msg, bytes) in self.outbox.drain(..) {
            self.stats.record(bytes);
            let hosted = self.layout.host(to.as_usize()) == self.index;
            let (held, local) = (&mut self.held, &mut self.local);
            self.emulator
                .outgoing::<P>(me, to, msg, now, wall_arrival(now), |msg, arrival| {
                    if arrival > now {
                        held.push(arrival, Held::Send(me, to, msg));
                    } else if hosted {
                        local.push_back((me, to, msg));
                    } else {
                        egress(me, to, msg);
                    }
                });
        }
        // Virtual seconds map one-to-one onto wall-clock seconds.
        for (delay, msg) in self.timers.drain(..) {
            self.held.push(now + delay, Held::Timer(me, msg));
        }
        if !self.done[slot] && rank.is_done() {
            self.done[slot] = true;
            self.fresh_done += 1;
        }
    }

    /// Start every hosted rank.
    pub(crate) fn start(&mut self, egress: &mut impl FnMut(RankId, RankId, P::Msg)) {
        for slot in 0..self.ranks.len() {
            let now = self.now();
            self.turn(slot, now, egress, |rank, ctx| rank.on_start(ctx));
        }
    }

    /// Deliver one message or timer to hosted rank `to`, unless it lies
    /// inside a crash window: crash-stop is decided at arrival, mirroring
    /// the simulator's pop-time check.
    pub(crate) fn deliver(
        &mut self,
        from: RankId,
        to: RankId,
        msg: P::Msg,
        egress: &mut impl FnMut(RankId, RankId, P::Msg),
    ) {
        let slot = self.layout.slot(to.as_usize());
        debug_assert_eq!(self.ranks[slot].0, to.as_usize(), "routed to its host");
        let now = self.now();
        if self.emulator.admit(from, to, now) {
            self.turn(slot, now, egress, |rank, ctx| {
                rank.on_message(ctx, from, msg)
            });
        }
    }

    /// Release every held entry whose time has come, in deadline order;
    /// returns how many.
    pub(crate) fn fire_due(&mut self, egress: &mut impl FnMut(RankId, RankId, P::Msg)) -> usize {
        let mut fired = 0;
        while self.held.peek_time().is_some_and(|due| due <= self.now()) {
            let (_, item) = self.held.pop().expect("peeked entry exists");
            match item {
                Held::Timer(me, msg) => self.deliver(me, me, msg, egress),
                Held::Send(from, to, msg) if self.layout.host(to.as_usize()) == self.index => {
                    self.local.push_back((from, to, msg));
                }
                Held::Send(from, to, msg) => egress(from, to, msg),
            }
            fired += 1;
        }
        fired
    }

    /// Take the next message off `inbox`, waiting up to `wait` for one.
    /// An `armed` host (its last turn did work) polls for [`SPIN`] before
    /// it blocks; `Timeout` covers both ways of coming back empty.
    fn receive(
        &mut self,
        inbox: &Receiver<Inbound<P::Msg>>,
        wait: Duration,
        armed: bool,
    ) -> Result<Inbound<P::Msg>, RecvTimeoutError> {
        let poll = || match inbox.try_recv() {
            Ok(msg) => Some(Ok(msg)),
            Err(TryRecvError::Disconnected) => Some(Err(RecvTimeoutError::Disconnected)),
            Err(TryRecvError::Empty) => None,
        };
        if let Some(out) = poll() {
            return out;
        }
        if wait.is_zero() {
            // A held entry is already due: neither a spin nor a park.
            return Err(RecvTimeoutError::Timeout);
        }
        let began = Instant::now();
        if armed {
            self.idle.spins += 1;
            let spin = SPIN.min(wait);
            while began.elapsed() < spin {
                std::thread::yield_now();
                if let Some(out) = poll() {
                    self.idle.spin_hits += u64::from(out.is_ok());
                    return out;
                }
            }
        }
        let left = wait.saturating_sub(began.elapsed());
        if left.is_zero() {
            return Err(RecvTimeoutError::Timeout);
        }
        self.idle.parks += 1;
        inbox.recv_timeout(left)
    }

    /// Start the hosted ranks, then serve `inbox`, the held queue and the
    /// local FIFO until `stop` says so (or every sender is gone). `stop`
    /// is consulted after each turn of the loop with how long the host
    /// has been idle — zero when the turn received a message, released a
    /// held entry or delivered a local copy.
    pub(crate) fn run(
        &mut self,
        inbox: &Receiver<Inbound<P::Msg>>,
        mut egress: impl FnMut(RankId, RankId, P::Msg),
        mut stop: impl FnMut(&mut Self, Duration) -> bool,
    ) {
        self.start(&mut egress);
        let mut idle = Duration::ZERO;
        loop {
            // Local copies left over from the last sweep mean no wait;
            // otherwise wake early if a held entry comes due before the
            // tick.
            let began = Instant::now();
            let wait = if !self.local.is_empty() {
                Duration::ZERO
            } else {
                self.held.peek_time().map_or(TICK, |due| {
                    Duration::from_secs_f64((due - self.now()).clamp(0.0, TICK.as_secs_f64()))
                })
            };
            let received = match self.receive(inbox, wait, idle.is_zero()) {
                Ok((from, to, msg)) => {
                    self.deliver(from, to, msg, &mut egress);
                    // Batched drain: a host that waited typically comes
                    // back to a mailbox full of gossip, and draining it in
                    // one sweep amortizes the wait over every queued
                    // message instead of paying it per message.
                    while let Ok((from, to, msg)) = inbox.try_recv() {
                        self.deliver(from, to, msg, &mut egress);
                    }
                    true
                }
                Err(RecvTimeoutError::Timeout) => false,
                Err(RecvTimeoutError::Disconnected) => return,
            };
            let fired = self.fire_due(&mut egress);
            // One sweep: what was queued locally when it began, so a
            // local ping-pong cannot shut out the inbox or a due timer.
            let swept = self.local.len();
            for _ in 0..swept {
                let (from, to, msg) = self.local.pop_front().expect("counted above");
                self.deliver(from, to, msg, &mut egress);
            }
            idle = if received || fired > 0 || swept > 0 {
                Duration::ZERO
            } else {
                // The time actually waited, so the stop rules' timeouts
                // keep their wall-clock meaning; never zero, which means
                // "this turn did work".
                idle + began.elapsed().max(Duration::from_micros(1))
            };
            if stop(self, idle) {
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{CrashEvent, LinkFault, LinkFaultKind};
    use crate::parallel::PARALLEL_DELAY_UNIT;

    /// Sends `send` to rank 1 and arms `timers` on start; keeps what it
    /// is handed, in order, and with `relay` set passes a nonzero message
    /// on to itself, one less.
    #[derive(Default)]
    struct Stub {
        send: Option<u32>,
        timers: Vec<(f64, u32)>,
        relay: bool,
        got: Vec<(RankId, u32)>,
    }

    impl Protocol for Stub {
        type Msg = u32;
        fn on_start(&mut self, ctx: &mut Ctx<'_, u32>) {
            if let Some(msg) = self.send {
                ctx.send(RankId::new(1), msg, 8);
            }
            for &(delay, msg) in &self.timers {
                ctx.schedule(delay, msg);
            }
        }
        fn on_message(&mut self, ctx: &mut Ctx<'_, u32>, from: RankId, msg: u32) {
            self.got.push((from, msg));
            if self.relay && msg > 0 {
                ctx.send(ctx.me(), msg - 1, 8);
            }
        }
    }

    /// Rank 0 alone on a host of a two-rank run.
    fn host(rank: Stub, plan: FaultPlan) -> Host<Stub> {
        let one_each = Layout { block: 1, hosts: 2 };
        Host::new(
            vec![(0, rank)],
            one_each,
            Instant::now(),
            plan,
            Recorder::disabled(),
        )
    }

    /// Ranks 0 and 1 of a two-rank run, on one host.
    fn pair(rank0: Stub, plan: FaultPlan) -> Host<Stub> {
        let together = Layout { block: 1, hosts: 1 };
        Host::new(
            vec![(0, rank0), (1, Stub::default())],
            together,
            Instant::now(),
            plan,
            Recorder::disabled(),
        )
    }

    fn sender(plan: FaultPlan) -> Host<Stub> {
        let rank = Stub {
            send: Some(7),
            ..Stub::default()
        };
        host(rank, plan)
    }

    /// Start a [`sender`], then fire held entries until `want` copies
    /// reached egress: the seconds after the run's time zero (or a little
    /// more) at which each copy was released.
    fn released(plan: FaultPlan, want: usize) -> (Vec<f64>, FaultStats) {
        let t0 = Instant::now();
        let mut h = sender(plan);
        let mut out = Vec::new();
        let mut egress = |_, _, msg| {
            assert_eq!(msg, 7);
            out.push(t0.elapsed().as_secs_f64());
        };
        h.start(&mut egress);
        while !h.held.is_empty() {
            assert!(t0.elapsed() < Duration::from_secs(10), "never released");
            h.fire_due(&mut egress);
            std::thread::yield_now();
        }
        assert_eq!(out.len(), want);
        (out, h.finish().2)
    }

    fn delayed(factor: f64) -> Vec<LinkFault> {
        vec![LinkFault {
            src: vec![RankId::new(0)],
            dst: vec![RankId::new(1)],
            start: 0.0,
            end: None,
            kind: LinkFaultKind::Delay { factor },
        }]
    }

    #[test]
    fn unfaulted_send_reaches_egress_at_once() {
        let mut h = sender(FaultPlan::none());
        let mut out = Vec::new();
        h.start(&mut |from, to, msg| out.push((from, to, msg)));
        assert_eq!(out, [(RankId::new(0), RankId::new(1), 7)]);
        let (_, network, faults, _) = h.finish();
        assert_eq!((network.messages, network.bytes), (1, 8));
        assert_eq!(faults, FaultStats::default());
    }

    #[test]
    fn delay_fate_is_held_on_the_sending_side() {
        let plan = || FaultPlan {
            links: delayed(51.0),
            ..FaultPlan::none()
        };
        sender(plan()).start(&mut |_, _, _| panic!("a delay-fated copy left at once"));
        let (out, faults) = released(plan(), 1);
        assert!(
            out[0] >= 50.0 * PARALLEL_DELAY_UNIT.as_secs_f64(),
            "released after {} s",
            out[0]
        );
        assert_eq!(faults.link_delayed, 1);
    }

    #[test]
    fn duplicate_trails_the_original() {
        // Copy k of a delayed send is held (k + 1) × the hold-back.
        let (out, faults) = released(
            FaultPlan {
                seed: 3,
                duplicate: 1.0,
                links: delayed(21.0),
                ..FaultPlan::none()
            },
            2,
        );
        let unit = PARALLEL_DELAY_UNIT.as_secs_f64();
        assert!(out[0] >= 20.0 * unit && out[1] >= 40.0 * unit, "{out:?}");
        assert_eq!(faults.duplicated, 1);
    }

    #[test]
    fn timers_fire_in_deadline_order_and_bypass_the_emulator() {
        // Every message that met the emulator would be dropped. Timers 2
        // and 4 share a deadline and fire in the order they were armed.
        let mut h = host(
            Stub {
                timers: vec![(3e-3, 3), (1e-3, 1), (2e-3, 2), (2e-3, 4)],
                ..Stub::default()
            },
            FaultPlan {
                drop: 1.0,
                ..FaultPlan::none()
            },
        );
        let mut egress = |_, _, _| panic!("timers never leave their rank");
        h.start(&mut egress);
        while !h.held.is_empty() {
            h.fire_due(&mut egress);
            std::thread::yield_now();
        }
        let (ranks, network, faults, _) = h.finish();
        let me = RankId::new(0);
        assert_eq!(ranks[0].1.got, [(me, 1), (me, 2), (me, 4), (me, 3)]);
        assert_eq!(network.messages, 0);
        assert_eq!(faults, FaultStats::default());
    }

    #[test]
    fn crash_window_drops_deliveries_and_timers() {
        let mut h = host(
            Stub {
                timers: vec![(0.0, 1)],
                ..Stub::default()
            },
            FaultPlan {
                crashes: vec![CrashEvent::fatal(RankId::new(0), 0.0)],
                ..FaultPlan::none()
            },
        );
        let mut egress = |_, _, _| panic!("a crashed rank sends nothing");
        h.start(&mut egress);
        h.deliver(RankId::new(1), RankId::new(0), 9, &mut egress);
        while h.fire_due(&mut egress) == 0 {
            std::thread::yield_now();
        }
        assert_eq!(h.newly_done(), 1, "down for good counts as finished");
        assert_eq!(h.newly_done(), 0, "and is counted once");
        let (ranks, _, faults, _) = h.finish();
        assert!(ranks[0].1.got.is_empty(), "delivery to a corpse");
        assert_eq!(faults.crash_dropped, 2);
    }

    /// Run `h` on an inbox no one else writes to, with an egress that
    /// panics, until it has been idle for `quiet`: how many turns the
    /// loop took, and the host.
    fn run_alone(mut h: Host<Stub>, quiet: Duration) -> (u64, Host<Stub>) {
        let (_tx, rx) = std::sync::mpsc::channel();
        let mut turns = 0;
        h.run(
            &rx,
            |_, _, _| panic!("a copy for a hosted rank left the host"),
            |_, idle| {
                turns += 1;
                idle >= quiet
            },
        );
        (turns, h)
    }

    #[test]
    fn copies_for_hosted_ranks_never_meet_egress() {
        let quiet = Duration::from_millis(20);
        let (r0, r1) = (RankId::new(0), RankId::new(1));
        // Rank 0 to rank 1, both on one host.
        let rank0 = Stub {
            send: Some(7),
            ..Stub::default()
        };
        let (_, h) = run_alone(pair(rank0, FaultPlan::none()), quiet);
        let (ranks, network, _, _) = h.finish();
        assert_eq!(ranks[1].1.got, [(r0, 7)]);
        assert_eq!(network.messages, 1);

        // Rank 1 alone on its host sends to itself.
        let rank1 = Stub {
            send: Some(7),
            ..Stub::default()
        };
        let alone = Layout { block: 1, hosts: 2 };
        let h = Host::new(
            vec![(1, rank1)],
            alone,
            Instant::now(),
            FaultPlan::none(),
            Recorder::disabled(),
        );
        let (_, h) = run_alone(h, quiet);
        assert_eq!(h.finish().0[0].1.got, [(r1, 7)]);

        // A delay-fated copy is held, then delivered on the host.
        let began = Instant::now();
        let plan = FaultPlan {
            links: delayed(51.0),
            ..FaultPlan::none()
        };
        let rank0 = Stub {
            send: Some(7),
            ..Stub::default()
        };
        let (_, h) = run_alone(pair(rank0, plan), quiet);
        let (ranks, _, faults, _) = h.finish();
        assert_eq!(ranks[1].1.got, [(r0, 7)]);
        assert_eq!(faults.link_delayed, 1);
        assert!(began.elapsed() >= 50 * PARALLEL_DELAY_UNIT);
    }

    #[test]
    fn a_local_chain_starves_neither_the_inbox_nor_a_due_timer() {
        // Rank 0 passes a countdown to itself, one local hop a turn. Ten
        // turns in, a message lands in its inbox and a timer comes due.
        const CHAIN: u32 = 1_000;
        let (me, peer) = (RankId::new(0), RankId::new(1));
        let rank = Stub {
            timers: vec![(0.0, CHAIN)],
            relay: true,
            ..Stub::default()
        };
        let mut h = host(rank, FaultPlan::none());
        let (tx, rx) = std::sync::mpsc::channel();
        let mut turns = 0;
        h.run(
            &rx,
            |_, _, _| panic!("a self-send left the host"),
            |h, idle| {
                turns += 1;
                if turns == 10 {
                    tx.send((peer, me, 0)).expect("the inbox is open");
                    h.held.push(h.now(), Held::Timer(me, 0));
                }
                idle >= Duration::from_millis(20)
            },
        );
        let got = &h.finish().0[0].1.got;
        assert_eq!(got.len(), CHAIN as usize + 3);
        // The chain ends on a 0 of its own; the timer's 0 comes first.
        let at = |entry| got.iter().position(|&e| e == entry).expect("delivered");
        let (inbox, timer) = (at((peer, 0)), at((me, 0)));
        assert!(inbox <= 12, "the inbox waited {inbox} deliveries");
        assert!(timer <= 12, "the timer waited {timer} deliveries");
    }

    #[test]
    fn an_idle_host_spins_once_then_parks_every_turn() {
        let (turns, h) = run_alone(
            host(Stub::default(), FaultPlan::none()),
            Duration::from_millis(50),
        );
        let idle = h.finish().3;
        // Only the first turn is armed; every turn, finding nothing,
        // blocks once, for a `TICK` or however much longer the OS takes.
        assert_eq!((idle.spins, idle.spin_hits), (1, 0));
        assert_eq!(idle.parks, turns);
        assert!((1..=50).contains(&turns), "{turns} turns in 50 ms");
    }

    #[test]
    fn work_rearms_the_spin() {
        // Long after the first turn's spin the timer hands the rank a 1,
        // which it passes on to itself as a 0 through the local queue, and
        // the same turn's sweep delivers that. The turn after is the
        // first to come up empty behind work, and spins.
        let rank = Stub {
            timers: vec![(5e-3, 1)],
            relay: true,
            ..Stub::default()
        };
        let (_, h) = run_alone(host(rank, FaultPlan::none()), Duration::from_millis(10));
        let (ranks, network, _, idle) = h.finish();
        let me = RankId::new(0);
        assert_eq!(ranks[0].1.got, [(me, 1), (me, 0)]);
        assert_eq!(network.messages, 1);
        assert_eq!((idle.spins, idle.spin_hits), (2, 0));
    }
}
