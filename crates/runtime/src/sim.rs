//! Deterministic discrete-event executor for rank protocols.
//!
//! This is the substrate standing in for the paper's DARMA/vt runtime over
//! MPI: a set of ranks exchanging *active messages*, each message
//! triggering a handler on the target rank. The executor delivers
//! messages in virtual-time order under a configurable latency model, so
//! an entire distributed protocol — gossip, collectives, termination
//! detection, migration — runs bit-reproducibly from a seed while
//! exercising exactly the code a real asynchronous runtime would.
//!
//! Design notes:
//!
//! * Events are ordered by `(virtual time, sequence number)`; the sequence
//!   number breaks ties deterministically, so runs are reproducible even
//!   when many messages share a timestamp.
//! * Handlers never touch other ranks directly: all effects flow through
//!   [`Ctx::send`]. This keeps protocol implementations portable to the
//!   multi-threaded executor in [`crate::parallel`], which provides the
//!   same trait with real concurrency.
//! * The executor exposes an [`Protocol::on_quiescence`] hook fired when
//!   the event queue drains. Protocol code may use it for test
//!   scaffolding, but the shipped LB protocol sequences itself with the
//!   distributed termination detector in [`crate::termination`], which
//!   an audited run checks against ground truth at every declaration
//!   ([`crate::audit::TerminationLedger`]).

use crate::census::{vec_bytes, HeapCensus, Owner};
use crate::emulator::LinkEmulator;
use crate::fault::{FaultPlan, FaultStats};
use crate::wheel::TimerWheel;
use tempered_core::ids::RankId;
use tempered_core::rng::RngFactory;
use tempered_obs::NetworkStats;
use tempered_obs::Recorder;

use rand::rngs::SmallRng;
use rand::Rng;

/// Latency model applied to every message.
#[derive(Clone, Copy, Debug)]
pub struct NetworkModel {
    /// Fixed per-message latency (virtual seconds).
    pub base_latency: f64,
    /// Additional latency per payload byte.
    pub per_byte: f64,
    /// Uniform jitter amplitude: actual latency is multiplied by a factor
    /// drawn from `[1, 1 + jitter]`. Drawn from a seeded stream, so jitter
    /// is deterministic.
    pub jitter: f64,
}

impl Default for NetworkModel {
    fn default() -> Self {
        // Ballpark EDR InfiniBand: ~1 µs base, ~0.08 ns/byte (12.5 GB/s).
        NetworkModel {
            base_latency: 1.0e-6,
            per_byte: 8.0e-11,
            jitter: 0.2,
        }
    }
}

impl NetworkModel {
    /// The zero-latency schedule: every message arrives at the instant
    /// it was sent, so virtual time advances only when a timer fires.
    /// Events are ordered by `(time, push order)`: messages sent in one
    /// instant are delivered in send order, all before any timer due at a
    /// later instant; a timer due at that instant and armed before them
    /// fires ahead of them.
    pub fn instant() -> Self {
        NetworkModel {
            base_latency: 0.0,
            per_byte: 0.0,
            jitter: 0.0,
        }
    }

    fn latency(&self, bytes: usize, rng: &mut SmallRng) -> f64 {
        let raw = self.base_latency + self.per_byte * bytes as f64;
        if self.jitter > 0.0 {
            raw * (1.0 + rng.gen::<f64>() * self.jitter)
        } else {
            raw
        }
    }
}

/// A rank-level protocol: the active-message handler interface.
///
/// Implementations are state machines; every rank in a simulation is one
/// instance. `Msg` must be `Clone` because point-to-point fan-out (e.g.
/// broadcast trees) reuses one logical payload for several targets.
pub trait Protocol: Sized {
    /// The protocol's message type.
    type Msg: Clone + std::fmt::Debug;

    /// Invoked once per rank before any message is delivered.
    fn on_start(&mut self, ctx: &mut Ctx<'_, Self::Msg>);

    /// Invoked for each delivered message.
    fn on_message(&mut self, ctx: &mut Ctx<'_, Self::Msg>, from: RankId, msg: Self::Msg);

    /// Invoked on every rank when the event queue drains (simulator-level
    /// quiescence — global ground truth). Default: no-op.
    fn on_quiescence(&mut self, _ctx: &mut Ctx<'_, Self::Msg>) {}

    /// Whether this rank considers the protocol finished; the executor
    /// stops early once every rank reports done *and* no events remain.
    fn is_done(&self) -> bool {
        false
    }

    /// Whether a message is subject to fault injection. Defaults to
    /// everything; a protocol that carries hardened and unhardened
    /// traffic side by side overrides this to expose only the traffic
    /// its hardening actually protects.
    fn faultable(_msg: &Self::Msg) -> bool {
        true
    }

    /// The damaged form `msg` takes when a link-level `Corrupt` fault
    /// hits it in flight, or `None` when the protocol has no corruption
    /// model — the executors then treat the damage as loss (detection is
    /// assumed perfect). Protocols that checksum their frames return a
    /// frame whose stored checksum no longer matches its bytes, so the
    /// *receiver* detects the damage and drops it (see
    /// `lb::messages::LbWire::damaged`).
    fn corrupted(_msg: &Self::Msg) -> Option<Self::Msg> {
        None
    }

    /// Count the heap bytes this rank holds into `census`, by owner and
    /// counting capacity (see [`crate::census`]). The simulator calls this
    /// only while its recorder is enabled. Default: nothing.
    fn heap_census(&self, _census: &mut HeapCensus) {}

    /// Count the heap bytes behind a message in flight into `census`;
    /// its inline bytes are the event queue's. Default: nothing.
    fn msg_heap_census(_msg: &Self::Msg, _census: &mut HeapCensus) {}
}

/// Handler context: the only channel for effects.
pub struct Ctx<'a, M> {
    /// This rank's id.
    me: RankId,
    now: f64,
    outbox: &'a mut Vec<(RankId, M, usize)>,
    timers: &'a mut Vec<(f64, M)>,
}

impl<'a, M> Ctx<'a, M> {
    /// A context for rank `me` at time `now`. Sends go into `outbox` as
    /// `(to, msg, bytes)` and timers into `timers` as `(delay, msg)`,
    /// both caller-owned: an executor drains them after each handler and
    /// reuses them for the next, and an outer protocol embedding an inner
    /// one (as the distributed PIC application embeds the LB protocol)
    /// wraps what they hold and re-sends it through its own context.
    pub fn new(
        me: RankId,
        now: f64,
        outbox: &'a mut Vec<(RankId, M, usize)>,
        timers: &'a mut Vec<(f64, M)>,
    ) -> Self {
        Ctx {
            me,
            now,
            outbox,
            timers,
        }
    }

    /// The rank executing the current handler.
    #[inline]
    pub fn me(&self) -> RankId {
        self.me
    }

    /// Current virtual time in seconds.
    #[inline]
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Send `msg` to `to`, accounting `payload_bytes` against the latency
    /// model and the network statistics.
    pub fn send(&mut self, to: RankId, msg: M, payload_bytes: usize) {
        self.outbox.push((to, msg, payload_bytes));
    }

    /// Deliver `msg` back to *this* rank after `delay` seconds (virtual
    /// seconds under the simulator, approximate wall-clock under
    /// threads). Timers are local: they bypass the network model, the
    /// network statistics, and fault injection. Retransmission timeouts
    /// and stage deadlines are built on this.
    pub fn schedule(&mut self, delay: f64, msg: M) {
        self.timers.push((delay.max(0.0), msg));
    }
}

/// Event payload; delivery time and the deterministic FIFO tie-break
/// (push sequence) live in the [`TimerWheel`] keying the queue.
#[derive(Debug)]
struct Event<M> {
    to: RankId,
    from: RankId,
    msg: M,
    /// Self-scheduled timer (not a network message).
    timer: bool,
}

/// Outcome of an executed simulation.
#[derive(Clone, Debug)]
pub struct SimReport {
    /// Final virtual time (the protocol's modeled makespan).
    pub finish_time: f64,
    /// Total events delivered.
    pub events_delivered: u64,
    /// Network accounting.
    pub network: NetworkStats,
    /// Injected-fault accounting (all zero without a fault plan).
    pub faults: FaultStats,
    /// Whether the run ended because every rank reported done (vs. queue
    /// exhaustion).
    pub completed: bool,
}

/// The deterministic event-driven executor.
pub struct Simulator<P: Protocol> {
    ranks: Vec<P>,
    queue: TimerWheel<f64, Event<P::Msg>>,
    model: NetworkModel,
    rng: SmallRng,
    now: f64,
    stats: NetworkStats,
    /// The fault plan's interpreter; also holds the run's recorder.
    emulator: LinkEmulator,
    events_delivered: u64,
    /// Network (non-timer) events currently queued; lets the executor
    /// finish without draining still-armed timers of completed ranks.
    net_in_queue: u64,
    /// Safety valve against protocol bugs that livelock the simulation.
    pub max_events: u64,
}

impl<P: Protocol> Simulator<P> {
    /// Build a simulator over per-rank protocol instances.
    pub fn new(ranks: Vec<P>, model: NetworkModel, factory: &RngFactory) -> Self {
        let rng = factory.rank_stream(b"simnet", 0, 0);
        // Wheel quantum: one base network latency per bucket, so most
        // arrivals land a slot or two ahead of the cursor. Zero-latency
        // models fall back to a 1 µs quantum (everything then shares tick
        // 0, where the sorted current bucket still orders exactly).
        let quantum = if model.base_latency > 0.0 {
            model.base_latency
        } else {
            1.0e-6
        };
        Simulator {
            ranks,
            queue: TimerWheel::new(1.0 / quantum),
            model,
            rng,
            now: 0.0,
            stats: NetworkStats::default(),
            emulator: LinkEmulator::new(FaultPlan::none(), Recorder::disabled()),
            events_delivered: 0,
            net_in_queue: 0,
            max_events: 500_000_000,
        }
    }

    /// Install a fault plan. A [`FaultPlan::is_zero`] plan is discarded
    /// outright, guaranteeing a bit-identical run: fault decisions never
    /// touch the simulator's random stream, so the only way a plan can
    /// perturb anything is by actually injecting a fault.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.emulator = LinkEmulator::new(plan, self.emulator.recorder.clone());
    }

    /// Attach an observability recorder. Fault injections and network
    /// latency draws are recorded against it (stamped with virtual time),
    /// and the executor's network/fault totals are flushed into its
    /// metrics registry when [`Simulator::run`] returns. Recording never
    /// touches the simulator's random stream, so attaching a recorder
    /// cannot perturb a run.
    pub fn set_recorder(&mut self, recorder: Recorder) {
        self.emulator.recorder = recorder;
    }

    /// Number of ranks.
    pub fn num_ranks(&self) -> usize {
        self.ranks.len()
    }

    /// Immutable view of a rank's protocol state.
    pub fn rank(&self, r: RankId) -> &P {
        &self.ranks[r.as_usize()]
    }

    /// Consume the simulator and return the final per-rank states.
    pub fn into_ranks(self) -> Vec<P> {
        self.ranks
    }

    /// A rank no longer blocks completion: it reported done, or it crashed
    /// for good — a permanently dead rank can never report anything, so
    /// waiting on it would turn every fatal crash into a hang.
    fn rank_finished(&self, p: usize) -> bool {
        self.ranks[p].is_done() || self.emulator.down_forever(RankId::from(p), self.now)
    }

    fn flush_outbox(&mut self, from: RankId, outbox: &mut Vec<(RankId, P::Msg, usize)>) {
        for (to, msg, bytes) in outbox.drain(..) {
            assert!(
                to.as_usize() < self.ranks.len(),
                "send to out-of-range rank {to}"
            );
            // The latency draw and network accounting happen for every
            // send — including ones the emulator then drops — so the
            // random stream and stats stay aligned with a fault-free run.
            let latency = self.model.latency(bytes, &mut self.rng);
            self.stats.record(bytes);
            if self.emulator.recorder.is_enabled() {
                self.emulator
                    .recorder
                    .observe("sim.net.latency_ns", (latency * 1e9) as u64);
            }
            // Virtual time multiplies the drawn latency: a duplicated copy
            // trails the original at double latency.
            let now = self.now;
            let (queue, net_in_queue) = (&mut self.queue, &mut self.net_in_queue);
            self.emulator.outgoing::<P>(
                from,
                to,
                msg,
                now,
                |fate, link, copy| now + latency * fate * link * f64::from(copy + 1),
                |msg, arrival| {
                    *net_in_queue += 1;
                    queue.push(
                        arrival,
                        Event {
                            to,
                            from,
                            msg,
                            timer: false,
                        },
                    );
                },
            );
        }
    }

    fn flush_timers(&mut self, me: RankId, timers: &mut Vec<(f64, P::Msg)>) {
        for (delay, msg) in timers.drain(..) {
            self.queue.push(
                self.now + delay,
                Event {
                    to: me,
                    from: me,
                    msg,
                    timer: true,
                },
            );
        }
    }

    /// Take a heap census of the run as it stands — every rank, the
    /// event queue and the messages in it, the fault interpreter, the
    /// recorder, and the run loop's send and timer buffers (`scratch`
    /// bytes) — and keep it in `peak` with the delivered-event count if
    /// it is the largest so far.
    fn take_census(&self, census: &mut HeapCensus, peak: &mut (u64, HeapCensus), scratch: usize) {
        census.clear();
        for rank in &self.ranks {
            rank.heap_census(census);
        }
        census.add(Owner::RankInline, vec_bytes(&self.ranks));
        let wheel = self.queue.heap_bytes();
        census.add(Owner::WheelSlots, wheel.near);
        census.add(Owner::WheelCurrent, wheel.current);
        census.add(Owner::WheelFar, wheel.far);
        for ev in self.queue.values() {
            P::msg_heap_census(&ev.msg, census);
        }
        census.add(Owner::Emulator, self.emulator.heap_bytes());
        census.add(Owner::Obs, self.emulator.recorder.heap_bytes());
        census.add(Owner::Scratch, scratch);
        census.settle();
        if census.total() > peak.1.total() {
            *peak = (self.events_delivered, census.clone());
        }
    }

    /// Run until every rank is done (and no network events remain), the
    /// queue drains with no progress, or the event budget is exhausted.
    ///
    /// While the recorder is enabled the run also takes a heap census
    /// ([`crate::census`]) every `max(4096, 2P)` delivered events and at
    /// the end, and records the largest sample and the last one as
    /// `mem.peak.*` and `mem.end.*` gauges.
    pub fn run(&mut self) -> SimReport {
        let mut outbox: Vec<(RankId, P::Msg, usize)> = Vec::new();
        let mut timers: Vec<(f64, P::Msg)> = Vec::new();
        let census_every = (2 * self.ranks.len() as u64).max(4096);
        let mut next_census = if self.emulator.recorder.is_enabled() {
            self.events_delivered + census_every
        } else {
            u64::MAX
        };
        let mut census = HeapCensus::default();
        // The largest sample so far and the delivered-event count it was
        // taken at.
        let mut peak = (0, HeapCensus::default());

        // Start handlers.
        for p in 0..self.ranks.len() {
            let me = RankId::from(p);
            self.ranks[p].on_start(&mut Ctx::new(me, self.now, &mut outbox, &mut timers));
            self.flush_outbox(me, &mut outbox);
            self.flush_timers(me, &mut timers);
        }

        loop {
            // Done ranks may still hold armed timers (e.g. a retry timer
            // for a message acknowledged later); those must not inflate
            // the makespan, so only network events block completion.
            // Checked before popping so a pending far-future timer never
            // advances the clock of an already-finished run.
            if self.net_in_queue == 0 && (0..self.ranks.len()).all(|p| self.rank_finished(p)) {
                break;
            }
            if self.events_delivered >= self.max_events {
                panic!(
                    "simulation exceeded {} events: protocol livelock?",
                    self.max_events
                );
            }
            match self.queue.pop() {
                Some((time, ev)) => {
                    debug_assert!(time >= self.now, "time must be monotone");
                    self.now = time;
                    if !ev.timer {
                        self.net_in_queue -= 1;
                    }
                    // Crash-stop: anything addressed to a down rank —
                    // messages and its own timers — is discarded at
                    // arrival time; the clock still advances so the
                    // down-forever accounting above sees crash times pass.
                    if !self.emulator.admit(ev.from, ev.to, time) {
                        continue;
                    }
                    self.events_delivered += 1;
                    let to = ev.to.as_usize();
                    let mut ctx = Ctx::new(ev.to, self.now, &mut outbox, &mut timers);
                    self.ranks[to].on_message(&mut ctx, ev.from, ev.msg);
                    self.flush_outbox(ev.to, &mut outbox);
                    self.flush_timers(ev.to, &mut timers);
                    if self.events_delivered >= next_census {
                        next_census += census_every;
                        let scratch = vec_bytes(&outbox) + vec_bytes(&timers);
                        self.take_census(&mut census, &mut peak, scratch);
                    }
                }
                None => {
                    // Queue drained: report quiescence to every rank; a
                    // protocol may respond by sending more messages (e.g.
                    // starting its next stage in tests).
                    for p in 0..self.ranks.len() {
                        let me = RankId::from(p);
                        let mut ctx = Ctx::new(me, self.now, &mut outbox, &mut timers);
                        self.ranks[p].on_quiescence(&mut ctx);
                        self.flush_outbox(me, &mut outbox);
                        self.flush_timers(me, &mut timers);
                    }
                    if self.queue.is_empty() {
                        break;
                    }
                }
            }
        }

        if self.emulator.recorder.is_enabled() {
            let scratch = vec_bytes(&outbox) + vec_bytes(&timers);
            self.take_census(&mut census, &mut peak, scratch);
        }
        let faults = self.emulator.stats();
        self.emulator.recorder.with_metrics(|m| {
            m.record_network("sim.net", &self.stats);
            m.counter_add("sim.events_delivered", self.events_delivered);
            m.gauge_max("sim.finish_time_s", self.now);
            faults.record(m);
            peak.1.record(m, "peak");
            m.gauge_max("mem.peak.event", peak.0 as f64);
            census.record(m, "end");
        });
        SimReport {
            finish_time: self.now,
            events_delivered: self.events_delivered,
            network: self.stats.clone(),
            faults,
            completed: (0..self.ranks.len()).all(|p| self.rank_finished(p)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Toy protocol: rank 0 pings everyone; everyone pongs back; rank 0
    /// counts pongs.
    #[derive(Debug)]
    struct PingPong {
        me: usize,
        num_ranks: usize,
        pongs: usize,
        done: bool,
    }

    #[derive(Clone, Debug)]
    enum PpMsg {
        Ping,
        Pong,
    }

    impl Protocol for PingPong {
        type Msg = PpMsg;

        fn on_start(&mut self, ctx: &mut Ctx<'_, PpMsg>) {
            if self.me == 0 {
                for r in 1..self.num_ranks {
                    ctx.send(RankId::from(r), PpMsg::Ping, 8);
                }
                if self.num_ranks == 1 {
                    self.done = true;
                }
            }
        }

        fn on_message(&mut self, ctx: &mut Ctx<'_, PpMsg>, from: RankId, msg: PpMsg) {
            match msg {
                PpMsg::Ping => {
                    ctx.send(from, PpMsg::Pong, 8);
                    self.done = true;
                }
                PpMsg::Pong => {
                    self.pongs += 1;
                    if self.pongs == self.num_ranks - 1 {
                        self.done = true;
                    }
                }
            }
        }

        fn is_done(&self) -> bool {
            self.done
        }
    }

    fn make(n: usize) -> Vec<PingPong> {
        (0..n)
            .map(|me| PingPong {
                me,
                num_ranks: n,
                pongs: 0,
                done: false,
            })
            .collect()
    }

    #[test]
    fn an_observed_run_records_its_heap_census() {
        let mut sim = Simulator::new(make(8), NetworkModel::default(), &RngFactory::new(1));
        let recorder = Recorder::enabled(8);
        sim.set_recorder(recorder.clone());
        sim.run();
        let m = recorder.snapshot().metrics;
        let gauge = |name: &str| m.gauge(name).unwrap_or_else(|| panic!("no {name}"));
        let inline = 8 * std::mem::size_of::<PingPong>();
        assert_eq!(gauge("mem.end.rank_inline_bytes"), inline as f64);
        assert!(gauge("mem.end.wheel_slots_bytes") > 0.0);
        assert!(gauge("mem.end.obs_bytes") > 0.0);
        assert!(gauge("mem.peak.total_bytes") >= gauge("mem.end.total_bytes"));
    }

    #[test]
    fn ping_pong_completes() {
        let mut sim = Simulator::new(make(8), NetworkModel::default(), &RngFactory::new(1));
        let report = sim.run();
        assert!(report.completed);
        assert_eq!(report.events_delivered, 14); // 7 pings + 7 pongs
        assert_eq!(report.network.messages, 14);
        assert!(report.finish_time > 0.0);
        assert_eq!(sim.rank(RankId::new(0)).pongs, 7);
    }

    #[test]
    fn simulation_is_deterministic() {
        let run = |seed| {
            let mut sim = Simulator::new(make(16), NetworkModel::default(), &RngFactory::new(seed));
            sim.run().finish_time
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5), run(6), "jitter should differ across seeds");
    }

    #[test]
    fn instant_network_has_zero_time() {
        let mut sim = Simulator::new(make(4), NetworkModel::instant(), &RngFactory::new(1));
        let report = sim.run();
        assert_eq!(report.finish_time, 0.0);
        assert!(report.completed);
    }

    /// Arms `.0` on start and keeps what fires or arrives, with its
    /// time, in `.1`. Timer 1 arms timer 5 one second on and sends 10, 11
    /// and 12 to itself; message 10 sends 20.
    struct Arms(Vec<(f64, u32)>, Vec<(f64, u32)>);

    impl Protocol for Arms {
        type Msg = u32;
        fn on_start(&mut self, ctx: &mut Ctx<'_, u32>) {
            for &(delay, msg) in &self.0 {
                ctx.schedule(delay, msg);
            }
        }
        fn on_message(&mut self, ctx: &mut Ctx<'_, u32>, _from: RankId, msg: u32) {
            self.1.push((ctx.now(), msg));
            let me = ctx.me();
            match msg {
                1 => {
                    ctx.schedule(1.0, 5);
                    for m in [10, 11, 12] {
                        ctx.send(me, m, 4);
                    }
                }
                10 => ctx.send(me, 20, 4),
                _ => {}
            }
        }
    }

    #[test]
    fn timers_fire_by_time_then_arm_order() {
        let armed = vec![(2.0, 0), (1.0, 1), (2.0, 2), (1.0, 3)];
        let mut sim = Simulator::new(
            vec![Arms(armed, Vec::new())],
            NetworkModel::instant(),
            &RngFactory::new(1),
        );
        assert!(
            !sim.run().completed,
            "a rank that never reports done stalls"
        );
        assert_eq!(
            sim.into_ranks()[0].1,
            [
                (1.0, 1),
                // Armed before the instant came due: ahead of its messages.
                (1.0, 3),
                // Sent in one instant: in send order, the message one of
                // them sent included, before the next instant's timers.
                (1.0, 10),
                (1.0, 11),
                (1.0, 12),
                (1.0, 20),
                (2.0, 0),
                (2.0, 2),
                (2.0, 5),
            ]
        );
    }

    #[test]
    fn single_rank_finishes_immediately() {
        let mut sim = Simulator::new(make(1), NetworkModel::default(), &RngFactory::new(1));
        let report = sim.run();
        assert!(report.completed);
        assert_eq!(report.events_delivered, 0);
    }

    /// Failure injection: a protocol that ping-pongs forever must trip
    /// the event budget instead of spinning the simulator.
    #[test]
    #[should_panic(expected = "livelock")]
    fn livelock_protocol_trips_event_budget() {
        struct Forever;
        impl Protocol for Forever {
            type Msg = u8;
            fn on_start(&mut self, ctx: &mut Ctx<'_, u8>) {
                if ctx.me() == RankId::new(0) {
                    ctx.send(RankId::new(1), 0, 1);
                }
            }
            fn on_message(&mut self, ctx: &mut Ctx<'_, u8>, from: RankId, msg: u8) {
                ctx.send(from, msg, 1); // bounce forever
            }
        }
        let mut sim = Simulator::new(
            vec![Forever, Forever],
            NetworkModel::instant(),
            &RngFactory::new(1),
        );
        sim.max_events = 10_000;
        sim.run();
    }

    #[test]
    fn zeroed_fault_plan_is_bit_identical() {
        let run = |with_plan: bool| {
            let mut sim = Simulator::new(make(16), NetworkModel::default(), &RngFactory::new(5));
            if with_plan {
                sim.set_fault_plan(FaultPlan::none());
            }
            let r = sim.run();
            (
                r.finish_time.to_bits(),
                r.events_delivered,
                r.network.messages,
            )
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn full_drop_starves_the_protocol() {
        let mut sim = Simulator::new(make(8), NetworkModel::default(), &RngFactory::new(1));
        sim.set_fault_plan(FaultPlan {
            drop: 1.0,
            ..FaultPlan::none()
        });
        let report = sim.run();
        assert!(!report.completed, "no message can arrive");
        assert_eq!(report.events_delivered, 0);
        assert_eq!(report.faults.dropped, 7);
        // Accounting still sees the send attempts.
        assert_eq!(report.network.messages, 7);
    }

    #[test]
    fn duplication_is_tolerated_by_idempotent_protocols() {
        let mut sim = Simulator::new(make(8), NetworkModel::default(), &RngFactory::new(1));
        sim.set_fault_plan(FaultPlan {
            seed: 3,
            duplicate: 1.0,
            ..FaultPlan::none()
        });
        let report = sim.run();
        assert!(report.completed);
        assert_eq!(
            report.faults.duplicated as usize,
            report.network.messages as usize
        );
        assert!(report.events_delivered > 14);
    }

    #[test]
    fn stragglers_stretch_the_makespan() {
        let base = {
            let mut sim = Simulator::new(make(8), NetworkModel::default(), &RngFactory::new(1));
            sim.run().finish_time
        };
        let slow = {
            let mut sim = Simulator::new(make(8), NetworkModel::default(), &RngFactory::new(1));
            sim.set_fault_plan(FaultPlan {
                stragglers: vec![(RankId::new(3), 50.0)],
                ..FaultPlan::none()
            });
            sim.run().finish_time
        };
        assert!(
            slow > base * 2.0,
            "straggler must dominate: {base} vs {slow}"
        );
    }

    #[test]
    fn timers_fire_at_their_virtual_time_without_network_accounting() {
        struct Timed {
            fired_at: Option<f64>,
            done: bool,
        }
        impl Protocol for Timed {
            type Msg = u8;
            fn on_start(&mut self, ctx: &mut Ctx<'_, u8>) {
                ctx.schedule(0.5, 7);
            }
            fn on_message(&mut self, ctx: &mut Ctx<'_, u8>, from: RankId, msg: u8) {
                assert_eq!(from, ctx.me(), "timers deliver from self");
                assert_eq!(msg, 7);
                self.fired_at = Some(ctx.now());
                self.done = true;
            }
            fn is_done(&self) -> bool {
                self.done
            }
        }
        let mut sim = Simulator::new(
            vec![Timed {
                fired_at: None,
                done: false,
            }],
            NetworkModel::default(),
            &RngFactory::new(1),
        );
        let report = sim.run();
        assert!(report.completed);
        assert_eq!(sim.rank(RankId::new(0)).fired_at, Some(0.5));
        assert_eq!(report.network.messages, 0, "timers are not network traffic");
    }

    #[test]
    fn pending_timers_do_not_inflate_the_makespan() {
        // A rank arms a long timer but is done immediately; the run must
        // not wait for the timer.
        struct ArmAndQuit;
        impl Protocol for ArmAndQuit {
            type Msg = u8;
            fn on_start(&mut self, ctx: &mut Ctx<'_, u8>) {
                ctx.schedule(1e6, 0);
            }
            fn on_message(&mut self, _: &mut Ctx<'_, u8>, _: RankId, _: u8) {}
            fn is_done(&self) -> bool {
                true
            }
        }
        let mut sim = Simulator::new(
            vec![ArmAndQuit, ArmAndQuit],
            NetworkModel::default(),
            &RngFactory::new(1),
        );
        let report = sim.run();
        assert!(report.completed);
        assert_eq!(report.finish_time, 0.0);
    }

    #[test]
    fn pause_window_defers_delivery() {
        // Ping sent at t=0 arrives within rank 1's pause window and is
        // deferred to the window end.
        struct Recorder {
            me: usize,
            arrived: Option<f64>,
        }
        impl Protocol for Recorder {
            type Msg = u8;
            fn on_start(&mut self, ctx: &mut Ctx<'_, u8>) {
                if self.me == 0 {
                    ctx.send(RankId::new(1), 1, 8);
                }
            }
            fn on_message(&mut self, ctx: &mut Ctx<'_, u8>, _: RankId, _: u8) {
                self.arrived = Some(ctx.now());
            }
            fn is_done(&self) -> bool {
                self.me == 0 || self.arrived.is_some()
            }
        }
        let mut sim = Simulator::new(
            vec![
                Recorder {
                    me: 0,
                    arrived: None,
                },
                Recorder {
                    me: 1,
                    arrived: None,
                },
            ],
            NetworkModel::default(),
            &RngFactory::new(1),
        );
        sim.set_fault_plan(FaultPlan {
            pauses: vec![crate::fault::PauseWindow {
                rank: RankId::new(1),
                from: 0.0,
                until: 2.0,
            }],
            ..FaultPlan::none()
        });
        let report = sim.run();
        assert!(report.completed);
        assert_eq!(sim.rank(RankId::new(1)).arrived, Some(2.0));
        assert_eq!(report.faults.paused, 1);
    }

    /// Rank 0 pings every other rank and is done after enough pongs;
    /// `expected_dead` lowers the quorum so survivors can finish.
    struct QuorumPing {
        me: usize,
        num_ranks: usize,
        expected_dead: usize,
        pongs: usize,
        done: bool,
    }

    impl Protocol for QuorumPing {
        type Msg = PpMsg;

        fn on_start(&mut self, ctx: &mut Ctx<'_, PpMsg>) {
            if self.me == 0 {
                for r in 1..self.num_ranks {
                    ctx.send(RankId::from(r), PpMsg::Ping, 8);
                }
            }
        }

        fn on_message(&mut self, ctx: &mut Ctx<'_, PpMsg>, from: RankId, msg: PpMsg) {
            match msg {
                PpMsg::Ping => {
                    ctx.send(from, PpMsg::Pong, 8);
                    self.done = true;
                }
                PpMsg::Pong => {
                    self.pongs += 1;
                    if self.pongs >= self.num_ranks - 1 - self.expected_dead {
                        self.done = true;
                    }
                }
            }
        }

        fn is_done(&self) -> bool {
            self.done
        }
    }

    fn quorum(n: usize, expected_dead: usize) -> Vec<QuorumPing> {
        (0..n)
            .map(|me| QuorumPing {
                me,
                num_ranks: n,
                expected_dead,
                pongs: 0,
                done: false,
            })
            .collect()
    }

    #[test]
    fn fatal_crash_silences_the_rank_and_still_completes() {
        use crate::fault::CrashEvent;
        let mut sim = Simulator::new(quorum(8, 1), NetworkModel::default(), &RngFactory::new(1));
        sim.set_fault_plan(FaultPlan {
            crashes: vec![CrashEvent::fatal(RankId::new(3), 0.0)],
            ..FaultPlan::none()
        });
        let report = sim.run();
        // The ping addressed to the dead rank is discarded at arrival.
        assert_eq!(report.faults.crash_dropped, 1);
        // Rank 0 collects the 6 surviving pongs; the dead rank counts as
        // finished, so the run completes instead of hanging.
        assert!(report.completed);
        assert_eq!(sim.rank(RankId::new(0)).pongs, 6);
        assert!(!sim.rank(RankId::new(3)).is_done());
    }

    #[test]
    fn fatal_crash_starves_a_protocol_that_needs_everyone() {
        use crate::fault::CrashEvent;
        let mut sim = Simulator::new(quorum(8, 0), NetworkModel::default(), &RngFactory::new(1));
        sim.set_fault_plan(FaultPlan {
            crashes: vec![CrashEvent::fatal(RankId::new(3), 0.0)],
            ..FaultPlan::none()
        });
        let report = sim.run();
        assert!(!report.completed, "rank 0 still waits for the dead pong");
        assert!(!sim.rank(RankId::new(0)).is_done());
    }

    #[test]
    fn warm_restart_resumes_delivery_but_loses_in_flight_messages() {
        use crate::fault::CrashEvent;
        // Rank 0 pings rank 1 at t=0 (lost in the outage) and again at
        // t=5 via a timer (delivered after the restart).
        struct TwoPings {
            me: usize,
            got: Vec<u8>,
            sent_second: bool,
        }
        impl Protocol for TwoPings {
            type Msg = u8;
            fn on_start(&mut self, ctx: &mut Ctx<'_, u8>) {
                if self.me == 0 {
                    ctx.send(RankId::new(1), 1, 8);
                    ctx.schedule(5.0, 0);
                }
            }
            fn on_message(&mut self, ctx: &mut Ctx<'_, u8>, from: RankId, msg: u8) {
                if from == ctx.me() {
                    ctx.send(RankId::new(1), 2, 8);
                    self.sent_second = true;
                } else {
                    self.got.push(msg);
                }
            }
            fn is_done(&self) -> bool {
                if self.me == 0 {
                    self.sent_second
                } else {
                    !self.got.is_empty()
                }
            }
        }
        let mk = |me| TwoPings {
            me,
            got: Vec::new(),
            sent_second: false,
        };
        let mut sim = Simulator::new(
            vec![mk(0), mk(1)],
            NetworkModel::default(),
            &RngFactory::new(1),
        );
        sim.set_fault_plan(FaultPlan {
            crashes: vec![CrashEvent {
                rank: RankId::new(1),
                at: 0.0,
                restart_after: Some(1.0),
            }],
            ..FaultPlan::none()
        });
        let report = sim.run();
        assert!(report.completed);
        assert_eq!(report.faults.crash_dropped, 1, "first ping lost in outage");
        assert_eq!(
            sim.rank(RankId::new(1)).got,
            vec![2],
            "second ping delivered"
        );
    }

    #[test]
    fn crash_after_completion_is_bit_identical_to_no_plan() {
        use crate::fault::CrashEvent;
        let run = |with_crash: bool| {
            let mut sim = Simulator::new(make(16), NetworkModel::default(), &RngFactory::new(5));
            if with_crash {
                sim.set_fault_plan(FaultPlan {
                    crashes: vec![CrashEvent::fatal(RankId::new(5), 1e6)],
                    ..FaultPlan::none()
                });
            }
            let r = sim.run();
            (
                r.finish_time.to_bits(),
                r.events_delivered,
                r.network.messages,
            )
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn latency_scales_with_bytes() {
        let model = NetworkModel {
            base_latency: 1.0,
            per_byte: 1.0,
            jitter: 0.0,
        };
        let mut rng = RngFactory::new(0).rank_stream(b"x", 0, 0);
        assert_eq!(model.latency(0, &mut rng), 1.0);
        assert_eq!(model.latency(10, &mut rng), 11.0);
    }
}
