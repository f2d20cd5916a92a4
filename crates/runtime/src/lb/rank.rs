//! Per-rank actor of the asynchronous LB protocol: the pure
//! [`GossipEngine`], the rank's delivery state, and the glue that binds
//! both to an executor.
//!
//! The layering (see `DESIGN.md` §9):
//!
//! ```text
//! GossipEngine   pure state machine: (epoch, LbMsg) → Vec<Command>
//! LbRank         this file: interprets Commands, frames each LbMsg
//!                (Raw, or Data + retry timer when hardened) straight
//!                onto the driver's Ctx, reads each incoming LbWire in
//!                one match, records spans/instants, arms deadlines
//! driver         Simulator (discrete-event), parallel executor, or the
//!                zero-latency in-process LocalRunner
//! ```
//!
//! All protocol logic — stages, epochs, collectives, gossip, transfer,
//! commit — lives in [`super::engine`]; sequence numbers, the in-flight
//! window, dedup and backoff live in [`crate::reliable::ReliableChannel`],
//! which this actor owns when [`LbProtocolConfig::reliability`] is set.
//! What remains here is the impedance match — commands to context calls,
//! wire frames to channel and engine calls — plus the driver-side policy
//! the engine must not know about (the stage-deadline watchdog and what a
//! delivery failure *means*: degrade, declare the peer dead, or blame the
//! link and reinstate).

use super::config::LbProtocolConfig;
use super::engine::{Command, GossipEngine};
use super::messages::{payload_bytes, LbMsg, LbWire, TaskEntry, SEQ_OVERHEAD_BYTES};
use crate::census::{btree_set_bytes, vec_bytes, HeapCensus, Owner};
use crate::health::HealthDetector;
use crate::reliable::{ReliableChannel, ReliableStats, RetryAction, SeqSetView};
use crate::sim::{Ctx, Protocol};
use std::collections::BTreeSet;
use tempered_core::distribution::Distribution;
use tempered_core::ids::{RankId, TaskId};
use tempered_core::rng::RngFactory;
use tempered_obs::{EventKind, Recorder};

/// Per-rank delivery ledgers snapshotted at the end of a run, used by
/// `crate::audit` to check that nothing a peer acknowledged was lost:
/// for every pair `(a, b)`, `acked` on `a` for peer `b` must be a
/// subset of `seen` on `b` for peer `a`.
#[derive(Clone, Debug, Default)]
pub struct DeliveryAudit {
    /// For each peer (rank-sorted): seqs that peer acknowledged to us.
    pub acked: Vec<(RankId, SeqSetView)>,
    /// For each peer (rank-sorted): seqs we have accepted from them.
    pub seen: Vec<(RankId, SeqSetView)>,
}

/// Membership control traffic: what a rank still takes from a peer it
/// has fenced (see [`LbRank::hears`]).
fn is_membership(msg: &LbMsg) -> bool {
    matches!(msg, LbMsg::Knock | LbMsg::View { .. } | LbMsg::Heal { .. })
}

/// The per-rank protocol actor: engine + delivery state + driver glue.
#[derive(Debug)]
pub struct LbRank {
    me: RankId,
    num_ranks: usize,
    cfg: LbProtocolConfig,
    engine: GossipEngine,
    /// At-least-once delivery with exactly-once processing — per-link
    /// sequence numbers, acks, retransmission with backoff, receiver
    /// dedup — present iff `cfg.reliability` is set. Without it every
    /// message leaves as a best-effort [`LbWire::Raw`] frame.
    channel: Option<ReliableChannel<LbMsg>>,

    // Stage-liveness watchdog (driver-side policy): a rank degrades once
    // a stage has sat `stage_deadline` without a transition. It keeps one
    // armed `StageTimer`, not one per stage: a transition only records
    // itself below, and a timer that fires after the stage moved on
    // re-arms for the remainder.
    /// Stage transitions so far; a `StageTimer` carries the value it was
    /// armed at.
    stage_seq: u64,
    /// When the current stage began, or `None` while no stage deadline
    /// runs (not yet started, or parked since the last transition).
    stage_since: Option<f64>,
    /// The one armed `StageTimer`: its due time and the `stage_seq` it
    /// carries. A due time, not a flag: the simulator and the crash
    /// emulator discard a down rank's timers, so a timer whose due time
    /// passed without it firing is lost and the next transition arms anew.
    watchdog: Option<(f64, u64)>,
    degraded: bool,
    done: bool,

    // Crash tolerance (present iff `cfg.health` is set): the failure
    // detector, and the set of ranks the current membership view has
    // fenced out — the channel holds no state toward them and their
    // traffic is ignored.
    health: Option<HealthDetector>,
    fenced: BTreeSet<RankId>,

    // Partition tolerance (active iff `cfg.partition` is set): driver-side
    // mirror of the engine's parked flag, plus the park-deadline sequence
    // number that tells a live deadline from a stale one — same discipline
    // as the stage watchdog's `stage_seq`.
    parked_seen: bool,
    park_seq: u64,

    // Reusable buffer for the per-message hot path: engine commands are
    // drained in place instead of allocating a fresh `Vec` per delivered
    // message.
    scratch_cmds: Vec<Command>,

    // Observability.
    rec: Recorder,
    /// Currently open stage/round span: `(start ts, kind)`. Closed (and
    /// emitted) by the next stage transition or at protocol end.
    open_span: Option<(f64, EventKind)>,
}

impl LbRank {
    /// Create the actor for `me` with its resident tasks.
    pub fn new(
        me: RankId,
        num_ranks: usize,
        tasks: Vec<(TaskId, f64)>,
        cfg: LbProtocolConfig,
        factory: RngFactory,
    ) -> Self {
        LbRank {
            me,
            num_ranks,
            engine: GossipEngine::new(me, num_ranks, tasks, cfg, factory),
            // Backoff jitter (when `retry.jitter` is nonzero) draws from
            // the dedicated `(b"retry", rank)` stream, so retry timing is
            // decorrelated across ranks yet fully seed-deterministic.
            channel: cfg.reliability.map(|retry| {
                let rng = factory.rank_stream(b"retry", me.as_u32() as u64, 0);
                ReliableChannel::with_jitter(retry, rng)
            }),
            cfg,
            stage_seq: 0,
            stage_since: None,
            watchdog: None,
            degraded: false,
            done: false,
            health: None,
            fenced: BTreeSet::new(),
            parked_seen: false,
            park_seq: 0,
            scratch_cmds: Vec::new(),
            rec: Recorder::disabled(),
            open_span: None,
        }
    }

    /// One actor per rank of `dist`, each holding the tasks `dist` places
    /// there, in rank order.
    pub fn for_dist(dist: &Distribution, cfg: LbProtocolConfig, factory: RngFactory) -> Vec<Self> {
        dist.rank_ids()
            .map(|r| {
                let tasks = dist
                    .tasks_on(r)
                    .iter()
                    .map(|t| (t.id, t.load.get()))
                    .collect();
                LbRank::new(r, dist.num_ranks(), tasks, cfg, factory)
            })
            .collect()
    }

    /// Attach an observability recorder (disabled by default). Stage and
    /// gossip-round spans, retransmission/dedup/give-up instants, and
    /// end-of-run counters are recorded against it. Recording never
    /// consults the protocol's random streams, so it cannot perturb the
    /// run.
    pub fn set_recorder(&mut self, rec: Recorder) {
        self.rec = rec;
    }

    // ---- accessors (delegated to the engine / channel) -------------------

    /// This rank's final task set `(id, load, home)` after the protocol.
    pub fn final_tasks(&self) -> &[TaskEntry] {
        self.engine.final_tasks()
    }

    /// This rank's slice of the run's placement identity: its final
    /// tasks as sorted `(task id, load bits)`, comparing equal to the
    /// matching rank of [`Distribution::canonical`] exactly when the two
    /// committed the same placement.
    pub fn canonical(&self) -> Vec<(TaskId, u64)> {
        let mut view: Vec<(TaskId, u64)> = self
            .final_tasks()
            .iter()
            .map(|t| (t.id, t.load.to_bits()))
            .collect();
        view.sort_unstable();
        view
    }

    /// Whether this rank abandoned the protocol (retry budget exhausted
    /// or stage deadline missed) and reverted to a safe assignment.
    pub fn degraded(&self) -> bool {
        self.degraded
    }

    /// Whether the protocol reached Done on this rank, normally or by
    /// degradation. A crashed rank never finishes; its engine state is
    /// whatever it held when it died.
    pub fn finished(&self) -> bool {
        self.done
    }

    /// Whether this rank sat out the run parked (quorum-less under a
    /// partition) and finished read-only on its original placement via
    /// the park deadline. `false` once a heal re-admitted it.
    pub fn parked(&self) -> bool {
        self.engine.is_parked()
    }

    /// Per-iteration records (symmetrically identical across ranks except
    /// for the local transfer counters).
    pub fn records(&self) -> &[super::engine::AsyncIterationRecord] {
        self.engine.records()
    }

    /// Initial imbalance (valid after Setup).
    pub fn initial_imbalance(&self) -> f64 {
        self.engine.initial_imbalance()
    }

    /// Tasks this rank fetched at commit (real migrations in).
    pub fn migrations_in(&self) -> usize {
        self.engine.migrations_in()
    }

    /// Delivery-layer counters (all zero in best-effort mode).
    pub fn reliable_stats(&self) -> ReliableStats {
        self.channel.as_ref().map(|c| c.stats).unwrap_or_default()
    }

    /// The membership view this rank's engine currently holds.
    pub fn view(&self) -> &crate::membership::View {
        self.engine.view()
    }

    /// End-of-run delivery ledgers for the audit layer (`None` in
    /// best-effort mode).
    pub fn delivery_audit(&self) -> Option<DeliveryAudit> {
        self.channel.as_ref().map(|c| DeliveryAudit {
            acked: c.acked_view(),
            seen: c.seen_view(),
        })
    }

    // ---- observability ---------------------------------------------------

    /// Close the open span (if any) at `now` and open a new one.
    fn span_open(&mut self, now: f64, kind: EventKind) {
        if !self.rec.is_enabled() {
            return;
        }
        self.span_close(now);
        self.open_span = Some((now, kind));
    }

    /// Close the open span (if any) at `now`.
    fn span_close(&mut self, now: f64) {
        if let Some((t0, kind)) = self.open_span.take() {
            self.rec.span(self.me.as_u32(), t0, now - t0, kind);
        }
    }

    /// Flush end-of-run counters into the shared metrics registry. Called
    /// once per rank, on normal completion or degradation.
    fn flush_metrics(&self) {
        self.rec.with_metrics(|m| {
            self.reliable_stats().record(m);
            m.counter_add("lb.migrations_in", self.engine.migrations_in() as u64);
            m.counter_add("lb.migrations_out", self.engine.migrations_out() as u64);
            m.counter_add("lb.degraded_ranks", self.degraded as u64);
            m.counter_add("lb.parked_ranks", self.engine.is_parked() as u64);
            m.gauge_max("lb.initial_imbalance", self.engine.initial_imbalance());
            if self.engine.best_imbalance().is_finite() {
                m.gauge_max("lb.best_imbalance", self.engine.best_imbalance());
            }
        });
    }

    // ---- driver-side policy ----------------------------------------------

    /// A stage transition: restart the stage deadline. A pending watchdog
    /// timer is left alone — it re-arms for the remainder when it fires —
    /// so a new one is armed only if none is, or if the armed one's due
    /// time passed without it firing.
    fn arm_stage_deadline(&mut self, ctx: &mut Ctx<'_, LbWire>) {
        let Some(retry) = self.cfg.reliability else {
            return;
        };
        let now = ctx.now();
        self.stage_seq += 1;
        self.stage_since = Some(now);
        if !matches!(self.watchdog, Some((due, _)) if due >= now) {
            self.arm_watchdog(ctx, retry.stage_deadline);
        }
    }

    /// Schedule the watchdog `delay` from now, carrying the current
    /// `stage_seq`.
    fn arm_watchdog(&mut self, ctx: &mut Ctx<'_, LbWire>, delay: f64) {
        let delay = delay.max(0.0);
        self.watchdog = Some((ctx.now() + delay, self.stage_seq));
        ctx.schedule(
            delay,
            LbWire::StageTimer {
                stage_seq: self.stage_seq,
            },
        );
    }

    /// The watchdog fired. A timer other than the armed one was superseded
    /// and is ignored. If no transition happened since it was armed, the
    /// stage stalled for a full deadline: degrade — at exactly the last
    /// transition plus `stage_deadline`, the instant a timer armed by
    /// every transition would have fired. Otherwise re-arm for what is
    /// left of the current stage's deadline. A parked (or finished) rank
    /// retires the watchdog instead; its next transition arms it again.
    fn on_stage_timer(&mut self, ctx: &mut Ctx<'_, LbWire>, stage_seq: u64) {
        if !matches!(self.watchdog, Some((_, armed)) if armed == stage_seq) {
            return;
        }
        self.watchdog = None;
        if self.done {
            return;
        }
        let (Some(retry), Some(since)) = (self.cfg.reliability, self.stage_since) else {
            return;
        };
        if stage_seq == self.stage_seq {
            self.degrade(ctx.now());
        } else {
            // In simulated time the re-armed timer lands exactly on
            // `since + deadline`: this one fired at `t + deadline` for an
            // earlier transition `t ≤ since ≤ now`, so `now ≤ since +
            // deadline ≤ 2·now` and the subtraction is exact (Sterbenz).
            let remaining = since + retry.stage_deadline - ctx.now();
            self.arm_watchdog(ctx, remaining);
        }
    }

    /// Abandon the protocol after a delivery failure (see
    /// [`GossipEngine::abort`] for the revert policy). The rank then goes
    /// silent (no acks, no forwards), so peers that depend on it degrade
    /// through their own deadlines rather than acting on its abandoned
    /// state.
    fn degrade(&mut self, now: f64) {
        if self.done {
            return;
        }
        let stage = self.engine.abort();
        self.rec
            .instant(self.me.as_u32(), now, EventKind::Degraded { stage });
        self.degraded = true;
        self.done = true;
        self.span_close(now);
        self.flush_metrics();
    }

    // ---- crash tolerance -------------------------------------------------

    /// Heartbeat clock: beat to every unfenced peer (outside the reliable
    /// layer — a corpse must not burn anyone's retry budget), poll the
    /// failure detector, and re-arm. The chain stops once the rank is
    /// done, so a completed run quiesces.
    fn on_heartbeat_timer(&mut self, ctx: &mut Ctx<'_, LbWire>) {
        if self.done {
            return;
        }
        let Some(hc) = self.cfg.health else { return };
        let parked = self.engine.is_parked();
        // Shared stand-down summary: built at most once per beat, cloned
        // (refcounted) per fenced peer instead of re-collected for each.
        let mut fenced_view: Option<(u64, std::sync::Arc<[RankId]>)> = None;
        for r in (0..self.num_ranks).map(RankId::from) {
            if r == self.me {
                continue;
            }
            if parked && (self.fenced.contains(&r) || self.fenced.is_empty()) {
                // Parked: knock at the other side of the partition — or,
                // parked on hearsay with nobody fenced locally (a zombie
                // that heard of its own death), at everyone. A knock that
                // gets through proves the path works again; the
                // quorum-holding component's leader answers with a heal.
                self.send_raw(ctx, r, LbMsg::Knock);
            } else if self.fenced.contains(&r) {
                // Periodic stand-down nudge instead of a heartbeat: a
                // warm-restarted zombie wakes with no timers and (being
                // fenced) receives no protocol traffic, so this is the
                // only way it ever learns of its own death and stands
                // down — degrading, or parking under partition tolerance
                // — instead of idling forever.
                let (base, dead) = fenced_view.get_or_insert_with(|| {
                    let v = self.engine.view();
                    (v.base_gen(), v.dead().iter().copied().collect())
                });
                let msg = LbMsg::View {
                    base: *base,
                    dead: dead.clone(),
                };
                self.send_raw(ctx, r, msg);
            } else {
                ctx.send(r, LbWire::Heartbeat, LbWire::Heartbeat.wire_bytes());
            }
        }
        ctx.schedule(hc.period, LbWire::HeartbeatTimer);
        let newly = match &mut self.health {
            Some(d) => d.tick(ctx.now()),
            None => Vec::new(),
        };
        if !newly.is_empty() {
            self.on_deaths(ctx, &newly);
        }
    }

    /// Declare `dead` ranks crashed: record the suspicion, hand the view
    /// change to the engine (which fences, floods, and restarts on the
    /// survivors), and sync driver-side fencing before interpreting the
    /// resulting commands — the View flood to the corpses themselves must
    /// bypass the reliable channel.
    fn on_deaths(&mut self, ctx: &mut Ctx<'_, LbWire>, dead: &[RankId]) {
        if self.done {
            return;
        }
        for &r in dead {
            self.rec.instant(
                self.me.as_u32(),
                ctx.now(),
                EventKind::Suspected { rank: r.as_u32() },
            );
        }
        let set: BTreeSet<RankId> = dead.iter().copied().collect();
        let mut commands = self.engine.on_view(&set);
        self.apply_view(ctx.now());
        self.run_commands(ctx, &mut commands);
        self.sync_park(ctx);
    }

    /// Sync driver-side fencing with the engine's membership view, both
    /// ways. Newly dead ranks: drop every pending retransmission to them
    /// (so orphaned retry timers settle silently instead of burning the
    /// budget, and eventually degrading *this* rank, on a corpse) and pin
    /// them suspected in the detector. Newly live ranks (a heal
    /// re-admitted them): lift the fence and reset their detector
    /// history — their silence during the partition must not instantly
    /// re-suspect them.
    fn apply_view(&mut self, now: f64) {
        let view_dead = self.engine.view().dead();
        for r in view_dead.iter().copied() {
            if self.fenced.insert(r) {
                if let Some(channel) = &mut self.channel {
                    channel.forget_peer(r);
                }
                if let Some(d) = &mut self.health {
                    d.force_suspect(r);
                }
            }
        }
        let healed: Vec<RankId> = self
            .fenced
            .iter()
            .copied()
            .filter(|r| !view_dead.contains(r))
            .collect();
        for r in healed {
            self.fenced.remove(&r);
            if let Some(d) = &mut self.health {
                d.reinstate(r, now);
            }
        }
    }

    /// Mirror the engine's parked state into driver-side policy. Entering
    /// a park arms the park deadline and retires the stage watchdog — a
    /// quorum-less stall is deliberate, not a delivery failure; the armed
    /// timer, when it fires, does not re-arm. Leaving
    /// one (a heal restarted or finished us) invalidates any armed
    /// deadline by bumping the sequence number. Call after every batch of
    /// engine commands that could change the parked state.
    fn sync_park(&mut self, ctx: &mut Ctx<'_, LbWire>) {
        let parked = self.engine.is_parked() && !self.done;
        if parked && !self.parked_seen {
            self.parked_seen = true;
            self.park_seq += 1;
            self.stage_since = None;
            if let Some(pc) = self.cfg.partition {
                ctx.schedule(
                    pc.park_deadline,
                    LbWire::ParkTimer {
                        park_seq: self.park_seq,
                    },
                );
            }
        } else if !parked && self.parked_seen {
            self.parked_seen = false;
            self.park_seq += 1;
        }
    }

    // ---- delivery -----------------------------------------------------------

    /// Best-effort frame: no sequence number, no ack, no retry.
    fn send_raw(&self, ctx: &mut Ctx<'_, LbWire>, to: RankId, msg: LbMsg) {
        let bytes = payload_bytes(&msg);
        ctx.send(to, LbWire::Raw(msg), bytes);
    }

    /// Put `(to, seq, msg)` on the network and arm its retry timer: the
    /// one shape a first send, a retransmission and a reinstatement share.
    fn transmit(&self, ctx: &mut Ctx<'_, LbWire>, to: RankId, seq: u64, msg: LbMsg, delay: f64) {
        let bytes = payload_bytes(&msg) + SEQ_OVERHEAD_BYTES;
        ctx.send(to, LbWire::Data { seq, msg }, bytes);
        ctx.schedule(delay, LbWire::RetryTimer { to, seq });
    }

    /// Frame one engine message for `to`: reliably when hardened, except
    /// toward a fenced peer — its acks will never come and retries would
    /// burn the budget. Only the View flood targets corpses (to stand
    /// down warm-restarted zombies), and best-effort is enough for it.
    fn send(&mut self, ctx: &mut Ctx<'_, LbWire>, to: RankId, msg: LbMsg) {
        match &mut self.channel {
            Some(channel) if !self.fenced.contains(&to) => {
                let (seq, delay) = channel.send(to, msg.clone());
                self.transmit(ctx, to, seq, msg, delay);
            }
            _ => self.send_raw(ctx, to, msg),
        }
    }

    /// Gate one frame off the network. `false` means a zombie talking:
    /// traffic from a fenced rank is ignored entirely (in particular, it
    /// must not prove liveness). Under partition tolerance `membership`
    /// traffic is the one exception: a Knock is precisely a fenced rank
    /// calling (the heal trigger), and a healed View flood or a Heal
    /// offer reaches a parked rank *from* ranks it fenced on its own side
    /// of the split. The engine's heal fence (view base) decides
    /// staleness; hearsay still can't prove liveness, so the detector is
    /// not fed.
    ///
    /// Any other frame that crossed the network proves the sender was
    /// alive when it sent — cheaper and tighter than heartbeats alone.
    fn hears(&mut self, now: f64, from: RankId, membership: bool) -> bool {
        if self.fenced.contains(&from) {
            return membership && self.cfg.partition.is_some();
        }
        if from != self.me {
            if let Some(d) = &mut self.health {
                d.on_heartbeat(from, now);
            }
        }
        true
    }

    /// A fresh protocol message for the engine.
    fn deliver(&mut self, ctx: &mut Ctx<'_, LbWire>, from: RankId, msg: LbMsg) {
        // Self-death valve: a View naming *this* rank dead means some
        // component fenced us out and moved on (we were warm-restarted,
        // falsely suspected during a long stall, or on the wrong side of
        // a partition).
        if let LbMsg::View { base, dead } = &msg {
            if dead.contains(&self.me) {
                if self.cfg.partition.is_some() {
                    // Partition mode: never self-destruct on hearsay — a
                    // current view fencing us out is partition evidence,
                    // so park read-only and knock; a stale one (lower
                    // heal fence) is a crossing flood from before a heal
                    // that already re-admitted us.
                    if *base >= self.engine.view().base_gen() {
                        let mut commands = self.engine.park_self();
                        self.run_commands(ctx, &mut commands);
                        self.sync_park(ctx);
                    }
                } else {
                    // Crash-stop mode: stand down rather than disrupt
                    // the survivors' new view.
                    self.degrade(ctx.now());
                }
                return;
            }
        }
        let mut commands = std::mem::take(&mut self.scratch_cmds);
        self.engine.on_message(&mut commands, from, msg);
        self.apply_view(ctx.now());
        self.run_commands(ctx, &mut commands);
        commands.clear();
        self.scratch_cmds = commands;
        self.sync_park(ctx);
    }

    /// The retry timer of `(to, seq)` fired: settle silently if it was
    /// acknowledged (or its peer fenced) meanwhile, retransmit while the
    /// budget lasts, and decide what exhaustion *means* when it runs out.
    fn on_retry_timer(&mut self, ctx: &mut Ctx<'_, LbWire>, to: RankId, seq: u64) {
        let Some(channel) = &mut self.channel else {
            return;
        };
        match channel.on_retry_timer(to, seq) {
            RetryAction::Settled => {}
            RetryAction::Resend {
                msg, next_delay, ..
            } => {
                self.transmit(ctx, to, seq, msg, next_delay);
                self.rec.instant(
                    self.me.as_u32(),
                    ctx.now(),
                    EventKind::Retransmit {
                        to: to.as_u32(),
                        seq,
                    },
                );
            }
            RetryAction::GaveUp { msg, .. } => {
                self.rec.instant(
                    self.me.as_u32(),
                    ctx.now(),
                    EventKind::GaveUp { to: to.as_u32() },
                );
                let vouched = self.cfg.partition.is_some()
                    && !self.fenced.contains(&to)
                    && self.health.as_ref().is_some_and(|d| !d.is_suspected(to));
                if vouched {
                    // Gray-link attribution: the failure detector still
                    // vouches for the peer — its frames keep arriving —
                    // so the *path* ate this payload, not the peer.
                    // Reinstate the message with a fresh retry budget
                    // instead of declaring a live peer dead. A link that
                    // never recovers stalls the stage, and the stage
                    // deadline backstops that.
                    self.rec.instant(
                        self.me.as_u32(),
                        ctx.now(),
                        EventKind::LinkSuspect { to: to.as_u32() },
                    );
                    let delay = channel.reinstate(to, seq, msg.clone());
                    self.transmit(ctx, to, seq, msg, delay);
                } else if self.health.is_some() {
                    // Retry exhaustion toward one peer under crash
                    // tolerance means that peer is gone, not that we
                    // are: declare it dead and restart on the survivors
                    // instead of abandoning the protocol.
                    if !self.fenced.contains(&to) {
                        self.on_deaths(ctx, &[to]);
                    }
                } else {
                    self.degrade(ctx.now());
                }
            }
        }
    }

    // ---- command interpreter ----------------------------------------------

    fn run_commands(&mut self, ctx: &mut Ctx<'_, LbWire>, commands: &mut Vec<Command>) {
        for command in commands.drain(..) {
            match command {
                Command::Send { to, msg } => self.send(ctx, to, msg),
                Command::OpenSpan(kind) => {
                    self.span_open(ctx.now(), kind);
                    self.arm_stage_deadline(ctx);
                }
                Command::Instant(kind) => {
                    self.rec.instant(self.me.as_u32(), ctx.now(), kind);
                }
                Command::Finished => {
                    self.done = true;
                    self.span_close(ctx.now());
                    self.flush_metrics();
                }
            }
        }
    }
}

impl Protocol for LbRank {
    type Msg = LbWire;

    fn on_start(&mut self, ctx: &mut Ctx<'_, LbWire>) {
        if let Some(hc) = self.cfg.health {
            self.health = Some(HealthDetector::new(self.me, self.num_ranks, hc, ctx.now()));
            ctx.schedule(hc.period, LbWire::HeartbeatTimer);
        }
        let mut commands = self.engine.start();
        self.run_commands(ctx, &mut commands);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, LbWire>, from: RankId, wire: LbWire) {
        // A degraded rank is out of the protocol entirely: it neither
        // processes nor acknowledges, so peers waiting on it time out
        // instead of building on its abandoned state.
        if self.degraded {
            return;
        }
        let now = ctx.now();
        match wire {
            // ---- self-timers: armed by `ctx.schedule`, never framed ----
            LbWire::HeartbeatTimer => self.on_heartbeat_timer(ctx),
            // The stage watchdog is driver-side policy, not delivery
            // mechanics.
            LbWire::StageTimer { stage_seq } => self.on_stage_timer(ctx, stage_seq),
            // The park deadline: no heal arrived in time, finish
            // read-only on the original placement. A stale sequence
            // number means a heal un-parked (or re-parked) us since the
            // timer was armed.
            LbWire::ParkTimer { park_seq } => {
                if !self.done && self.parked_seen && park_seq == self.park_seq {
                    let mut commands = self.engine.finish_parked();
                    self.run_commands(ctx, &mut commands);
                }
            }
            LbWire::RetryTimer { to, seq } => self.on_retry_timer(ctx, to, seq),

            // ---- frames off the network --------------------------------
            LbWire::Heartbeat => {
                self.hears(now, from, false);
            }
            LbWire::Ack { seq } => {
                if self.hears(now, from, false) {
                    if let Some(channel) = &mut self.channel {
                        channel.on_ack(from, seq);
                    }
                }
            }
            // No sequence number to dedup. A hardened rank gets these too:
            // the View flood to the fenced, and every Knock.
            LbWire::Raw(msg) => {
                if self.hears(now, from, is_membership(&msg)) {
                    self.deliver(ctx, from, msg);
                }
            }
            LbWire::Data { seq, msg } => {
                if !self.hears(now, from, is_membership(&msg)) {
                    return;
                }
                // Always ack, even duplicates: the ack for the original
                // may have been lost. The ack is on `ctx` before anything
                // the engine sends in response. A best-effort rank keeps
                // no ledger: it delivers unacked.
                let fresh = match &mut self.channel {
                    Some(channel) => {
                        ctx.send(from, LbWire::Ack { seq }, SEQ_OVERHEAD_BYTES);
                        channel.accept(from, seq)
                    }
                    None => true,
                };
                if fresh {
                    self.deliver(ctx, from, msg);
                } else {
                    self.rec.instant(
                        self.me.as_u32(),
                        now,
                        EventKind::DuplicateSuppressed {
                            from: from.as_u32(),
                            seq,
                        },
                    );
                }
            }
            // Checksum mismatch ([`crate::fault::LinkFaultKind::Corrupt`],
            // or real damage on a socket): the frame is dropped *without
            // an ack*, so the sender's reliable channel re-delivers the
            // original — corruption is masked exactly like loss.
            // Best-effort frames are simply lost.
            dam @ LbWire::Damaged { .. } => {
                debug_assert!(!dam.verify(), "damaged frames carry a mismatched crc");
                if self.hears(now, from, false) {
                    self.rec.instant(
                        self.me.as_u32(),
                        now,
                        EventKind::CorruptDropped {
                            from: from.as_u32(),
                        },
                    );
                }
            }
        }
    }

    fn is_done(&self) -> bool {
        self.done
    }

    /// The engine's, the channel's and this actor's own heap bytes; the
    /// recorder is shared by every rank and counted by the executor.
    fn heap_census(&self, census: &mut HeapCensus) {
        self.engine.heap_census(census);
        if let Some(channel) = &self.channel {
            channel.heap_census(census, LbMsg::heap_census);
        }
        census.add(
            Owner::Membership,
            btree_set_bytes(&self.fenced) + self.health.as_ref().map_or(0, |h| h.heap_bytes()),
        );
        census.add(Owner::Scratch, vec_bytes(&self.scratch_cmds));
    }

    fn msg_heap_census(msg: &LbWire, census: &mut HeapCensus) {
        msg.heap_census(census);
    }

    /// The LB wire format checksums its frames (CRC32 over the canonical
    /// encoding), so in-flight corruption is modeled faithfully: the
    /// damaged frame still *arrives* and the receiver detects and drops
    /// it (see [`LbWire::damaged`]), rather than the executor silently
    /// treating damage as loss.
    fn corrupted(msg: &LbWire) -> Option<LbWire> {
        Some(msg.damaged())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::health::HealthConfig;
    use crate::lb::messages::BYTES_PER_TASK;
    use crate::lb::PartitionConfig;
    use crate::reliable::RetryConfig;

    type Frames = Vec<(RankId, LbWire, usize)>;
    type Timers = Vec<(f64, LbWire)>;

    const ME: RankId = RankId(0);
    const PEER: RankId = RankId(1);

    /// Run `f` against a fresh [`Ctx`] and hand back what it wrote:
    /// frames as `(to, wire, bytes)` and timers as `(delay, wire)`, each
    /// in call order (the two are separate queues in every driver).
    fn on_ctx<R>(f: impl FnOnce(&mut Ctx<'_, LbWire>) -> R) -> (R, Frames, Timers) {
        on_ctx_at(0.0, f)
    }

    /// [`on_ctx`] at virtual time `now`.
    fn on_ctx_at<R>(now: f64, f: impl FnOnce(&mut Ctx<'_, LbWire>) -> R) -> (R, Frames, Timers) {
        let (mut frames, mut timers) = (Vec::new(), Vec::new());
        let result = f(&mut Ctx::new(ME, now, &mut frames, &mut timers));
        (result, frames, timers)
    }

    /// Rank `me` of two, holding no tasks, not yet started.
    fn rank(me: RankId, cfg: LbProtocolConfig) -> LbRank {
        LbRank::new(me, 2, Vec::new(), cfg, RngFactory::new(7))
    }

    fn hardened(max_retries: u32) -> LbProtocolConfig {
        LbProtocolConfig::default().hardened(RetryConfig {
            max_retries,
            ..RetryConfig::default()
        })
    }

    /// A message an unstarted engine acts on at once and visibly: one
    /// more entry in `final_tasks` per time it is fed.
    fn propose() -> LbMsg {
        LbMsg::Propose {
            epoch: 0,
            tasks: vec![TaskEntry {
                id: TaskId::new(9),
                load: 1.0,
                home: PEER,
            }],
        }
    }

    /// One reliable send of `propose()` to the peer: its data frame and
    /// its retry timer.
    fn send_one(sender: &mut LbRank) -> (LbWire, LbWire) {
        let ((), mut frames, mut timers) = on_ctx(|ctx| sender.send(ctx, PEER, propose()));
        assert_eq!((frames.len(), timers.len()), (1, 1), "frame + retry timer");
        let (to, wire, bytes) = frames.remove(0);
        assert_eq!(to, PEER);
        assert!(matches!(wire, LbWire::Data { seq: 1, .. }));
        assert_eq!(bytes, propose().wire_bytes() + SEQ_OVERHEAD_BYTES);
        let (delay, timer) = timers.remove(0);
        assert!(delay > 0.0);
        assert!(matches!(timer, LbWire::RetryTimer { to: PEER, seq: 1 }));
        (wire, timer)
    }

    /// Fire `timer` until the retry budget runs out; what the turn that
    /// gave up wrote.
    fn exhaust(sender: &mut LbRank, timer: &LbWire) -> (Frames, Timers) {
        for _ in 0..4 {
            let ((), frames, timers) = on_ctx(|ctx| sender.on_message(ctx, ME, timer.clone()));
            if sender.reliable_stats().gave_up == 1 {
                return (frames, timers);
            }
            assert!(matches!(
                frames[..],
                [(PEER, LbWire::Data { seq: 1, .. }, _)]
            ));
            assert!(matches!(
                timers[..],
                [(_, LbWire::RetryTimer { to: PEER, seq: 1 })]
            ));
        }
        panic!("retry budget must eventually run out");
    }

    #[test]
    fn best_effort_frames_carry_no_overhead_and_arm_nothing() {
        let mut sender = rank(ME, LbProtocolConfig::default());
        let ((), mut frames, timers) = on_ctx(|ctx| sender.send(ctx, PEER, propose()));
        assert!(timers.is_empty(), "best-effort frames arm nothing");
        let [(PEER, wire, bytes)] = &mut frames[..] else {
            panic!("one frame to the peer, got {frames:?}");
        };
        assert!(matches!(wire, LbWire::Raw(_)));
        assert_eq!(*bytes, propose().wire_bytes());

        let mut receiver = rank(PEER, LbProtocolConfig::default());
        let ((), frames, _) = on_ctx(|ctx| receiver.on_message(ctx, ME, wire.clone()));
        assert_eq!(receiver.final_tasks().len(), 1, "delivered to the engine");
        assert!(frames.is_empty(), "raw frames are never acked");
        assert_eq!(receiver.reliable_stats(), ReliableStats::default());
        assert!(receiver.delivery_audit().is_none(), "no ledger kept");
    }

    #[test]
    fn task_data_is_charged_its_payload_on_both_paths() {
        let msg = LbMsg::TaskData {
            epoch: 9,
            tasks: vec![TaskId::new(1); 3],
        };
        let cfg = LbProtocolConfig::default();
        let mut raw = rank(ME, cfg);
        let ((), frames, _) = on_ctx(|ctx| raw.send(ctx, PEER, msg.clone()));
        assert_eq!(frames[0].2, msg.wire_bytes() + 3 * BYTES_PER_TASK);
        let mut reliable = rank(ME, cfg.hardened(RetryConfig::default()));
        let ((), frames, _) = on_ctx(|ctx| reliable.send(ctx, PEER, msg.clone()));
        assert_eq!(
            frames[0].2,
            msg.wire_bytes() + 3 * BYTES_PER_TASK + SEQ_OVERHEAD_BYTES
        );
    }

    #[test]
    fn data_frames_are_acked_and_duplicates_not_refed() {
        let mut sender = rank(ME, hardened(16));
        let mut receiver = rank(PEER, hardened(16));
        let (wire, _) = send_one(&mut sender);

        // First delivery: acked — before anything the engine sends — and
        // delivered.
        let ((), frames, timers) = on_ctx(|ctx| receiver.on_message(ctx, ME, wire.clone()));
        assert!(timers.is_empty());
        assert!(
            matches!(
                frames[..],
                [(ME, LbWire::Ack { seq: 1 }, SEQ_OVERHEAD_BYTES)]
            ),
            "data frames are always acked: {frames:?}"
        );
        assert_eq!(receiver.final_tasks().len(), 1);

        // Redelivery: acked a second time, but the engine is not re-fed.
        let ((), frames, _) = on_ctx(|ctx| receiver.on_message(ctx, ME, wire));
        assert!(
            matches!(frames[..], [(ME, LbWire::Ack { seq: 1 }, _)]),
            "duplicates re-ack: {frames:?}"
        );
        assert_eq!(receiver.reliable_stats().duplicates_suppressed, 1);
        assert_eq!(receiver.final_tasks().len(), 1, "engine fed exactly once");
        let audit = receiver.delivery_audit().expect("hardened ranks keep one");
        assert!(matches!(&audit.seen[..], [(ME, seen)] if seen.contains(1)));
    }

    #[test]
    fn retry_timer_retransmits_then_settles_once_acked() {
        let mut sender = rank(ME, hardened(16));
        let (data, timer) = send_one(&mut sender);

        // Unacked: the timer retransmits the identical frame and re-arms.
        let ((), frames, timers) = on_ctx(|ctx| sender.on_message(ctx, ME, timer.clone()));
        assert!(matches!(&frames[..], [(PEER, resent, _)] if *resent == data));
        assert!(matches!(
            timers[..],
            [(_, LbWire::RetryTimer { to: PEER, seq: 1 })]
        ));

        // Acked: the next timer settles silently.
        on_ctx(|ctx| sender.on_message(ctx, PEER, LbWire::Ack { seq: 1 }));
        let ((), frames, timers) = on_ctx(|ctx| sender.on_message(ctx, ME, timer));
        assert!(frames.is_empty() && timers.is_empty());
        assert_eq!(sender.reliable_stats().retransmitted, 1);
        assert_eq!(sender.reliable_stats().acked, 1);
        assert!(!sender.degraded());
    }

    #[test]
    fn exhausted_budget_without_a_detector_degrades_silently() {
        let mut sender = rank(ME, hardened(2));
        let (_, timer) = send_one(&mut sender);
        let (frames, timers) = exhaust(&mut sender, &timer);
        assert!(
            frames.is_empty() && timers.is_empty(),
            "a give-up is silent"
        );
        assert_eq!(sender.reliable_stats().retransmitted, 2);
        assert!(sender.degraded() && sender.finished());
    }

    #[test]
    fn give_up_on_a_vouched_peer_reinstates_with_a_fresh_budget() {
        let cfg = hardened(1)
            .crash_tolerant(HealthConfig::default())
            .partition_tolerant(PartitionConfig::default());
        // Rank 1 of 2 is a leaf of the reduction tree: starting it sends
        // exactly its setup contribution — the whole first-send shape
        // through the real command path.
        let mut sender = rank(PEER, cfg);
        let ((), frames, timers) = on_ctx(|ctx| sender.on_start(ctx));
        assert!(matches!(
            frames[..],
            [(
                ME,
                LbWire::Data {
                    seq: 1,
                    msg: LbMsg::ReduceUp { .. }
                },
                _
            )]
        ));
        let [(_, LbWire::HeartbeatTimer), (_, LbWire::StageTimer { .. }), (_, timer)] = &timers[..]
        else {
            panic!("heartbeat, stage deadline, then the retry timer: {timers:?}");
        };
        assert!(matches!(timer, LbWire::RetryTimer { to: ME, seq: 1 }));

        // Budget of one: the first firing retransmits, the second gives
        // up. The detector (inside its startup grace) still vouches for
        // rank 0, so the link takes the blame: the same (to, seq) frame
        // goes out again with its timer re-armed.
        on_ctx(|ctx| sender.on_message(ctx, PEER, timer.clone()));
        let ((), frames, timers) = on_ctx(|ctx| sender.on_message(ctx, PEER, timer.clone()));
        assert_eq!(sender.reliable_stats().gave_up, 1);
        assert!(matches!(frames[..], [(ME, LbWire::Data { seq: 1, .. }, _)]));
        assert!(matches!(
            timers[..],
            [(_, LbWire::RetryTimer { to: ME, seq: 1 })]
        ));
        assert_eq!(sender.reliable_stats().revived, 1);
        assert!(!sender.degraded());

        // An ack now settles it like any first-class send.
        on_ctx(|ctx| sender.on_message(ctx, ME, LbWire::Ack { seq: 1 }));
        let ((), frames, timers) = on_ctx(|ctx| sender.on_message(ctx, PEER, timer.clone()));
        assert!(frames.is_empty() && timers.is_empty());
        assert_eq!(sender.reliable_stats().gave_up, 1);
    }

    #[test]
    fn corrupt_frames_are_dropped_unacked_then_masked_by_retransmission() {
        let mut sender = rank(ME, hardened(16));
        let mut receiver = rank(PEER, hardened(16));
        let (wire, timer) = send_one(&mut sender);

        // The frame arrives bit-flipped: dropped, and crucially NOT acked.
        let ((), frames, _) = on_ctx(|ctx| receiver.on_message(ctx, ME, wire.damaged()));
        assert!(frames.is_empty(), "corrupt frames must not be acked");
        assert!(receiver.final_tasks().is_empty());

        // The sender's retry timer re-delivers the intact original.
        let ((), frames, _) = on_ctx(|ctx| sender.on_message(ctx, ME, timer));
        let [(PEER, resent, _)] = &frames[..] else {
            panic!("one retransmission, got {frames:?}");
        };
        on_ctx(|ctx| receiver.on_message(ctx, ME, resent.clone()));
        assert_eq!(receiver.final_tasks().len(), 1);
        assert_eq!(receiver.reliable_stats().duplicates_suppressed, 0);
    }

    /// Both framings reach both kinds of rank: a hardened rank sends
    /// `Raw` to the fenced and gets every `Knock` that way, and nothing
    /// stops a best-effort rank from being handed a `Data` frame.
    #[test]
    fn mixed_framings_deliver_without_a_ledger_entry() {
        let mut hard = rank(PEER, hardened(16));
        let ((), frames, _) = on_ctx(|ctx| hard.on_message(ctx, ME, LbWire::Raw(propose())));
        assert_eq!(hard.final_tasks().len(), 1, "raw frame delivered");
        assert!(frames.is_empty(), "no seq, so nothing to ack");
        let audit = hard.delivery_audit().expect("hardened");
        assert!(audit.seen.is_empty(), "and nothing to dedup");

        let mut soft = rank(PEER, LbProtocolConfig::default());
        let data = LbWire::Data {
            seq: 5,
            msg: propose(),
        };
        let ((), frames, _) = on_ctx(|ctx| soft.on_message(ctx, ME, data.clone()));
        assert_eq!(soft.final_tasks().len(), 1, "data frame delivered");
        assert!(frames.is_empty(), "a best-effort rank never acks");
        // No ledger: a second copy is delivered again, as on `Raw`.
        on_ctx(|ctx| soft.on_message(ctx, ME, data));
        assert_eq!(soft.final_tasks().len(), 2);
        // Stray delivery-layer frames are inert without a channel.
        let ((), frames, timers) = on_ctx(|ctx| {
            soft.on_message(ctx, ME, LbWire::Ack { seq: 5 });
            soft.on_message(ctx, PEER, LbWire::RetryTimer { to: ME, seq: 5 });
        });
        assert!(frames.is_empty() && timers.is_empty());
    }

    #[test]
    fn sends_to_a_fenced_peer_bypass_the_channel() {
        let mut r = rank(ME, hardened(16).crash_tolerant(HealthConfig::default()));
        on_ctx(|ctx| r.on_start(ctx));
        let ((), _, mut timers) = on_ctx(|ctx| r.send(ctx, PEER, propose()));
        let (_, timer) = timers.remove(0);
        // Declaring the peer dead fences it: the pending message is
        // forgotten, so its timer settles instead of burning the budget.
        on_ctx(|ctx| r.on_deaths(ctx, &[PEER]));
        let ((), frames, timers) = on_ctx(|ctx| r.on_message(ctx, ME, timer));
        assert!(frames.is_empty() && timers.is_empty());
        assert_eq!(r.reliable_stats().retransmitted, 0);
        // What still goes there (the View flood) goes best-effort.
        let ((), frames, timers) = on_ctx(|ctx| r.send(ctx, PEER, LbMsg::Knock));
        assert!(matches!(frames[..], [(PEER, LbWire::Raw(LbMsg::Knock), _)]));
        assert!(timers.is_empty());
    }

    /// One rank turned through [`on_ctx_at`] at chosen instants, its
    /// `StageTimer`s queued as the simulator queues them: due at the
    /// arming turn's `now` plus the delay, equal due times in arming
    /// order. Other timers are dropped — these tests never fire them.
    struct Watched {
        rank: LbRank,
        stage_timers: Vec<(f64, LbWire)>,
        most_pending: usize,
        degraded_at: Option<f64>,
    }

    impl Watched {
        fn new(cfg: LbProtocolConfig) -> Self {
            Watched {
                rank: rank(ME, cfg),
                stage_timers: Vec::new(),
                most_pending: 0,
                degraded_at: None,
            }
        }

        fn turn(&mut self, now: f64, f: impl FnOnce(&mut LbRank, &mut Ctx<'_, LbWire>)) {
            let ((), _, timers) = on_ctx_at(now, |ctx| f(&mut self.rank, ctx));
            self.stage_timers.extend(
                timers
                    .into_iter()
                    .filter(|(_, t)| matches!(t, LbWire::StageTimer { .. }))
                    .map(|(delay, t)| (now + delay, t)),
            );
            self.most_pending = self.most_pending.max(self.stage_timers.len());
            if self.rank.degraded() && self.degraded_at.is_none() {
                self.degraded_at = Some(now);
            }
        }

        /// A stage transition at `now`, as the engine reports one.
        fn transition(&mut self, now: f64) {
            self.turn(now, |r, ctx| {
                r.run_commands(
                    ctx,
                    &mut vec![Command::OpenSpan(EventKind::Marker("stage"))],
                );
            });
        }

        /// Fire, in due order, every stage timer due by `until`.
        fn run_until(&mut self, until: f64) {
            while let Some(i) = (0..self.stage_timers.len())
                .filter(|&i| self.stage_timers[i].0 <= until)
                .min_by(|&a, &b| self.stage_timers[a].0.total_cmp(&self.stage_timers[b].0))
            {
                let (at, timer) = self.stage_timers.remove(i);
                self.turn(at, |r, ctx| r.on_message(ctx, ME, timer));
            }
        }
    }

    /// The instant the eager rule — a fresh timer armed by every
    /// transition — degrades a rank whose stages began at `transitions`:
    /// the first deadline no later transition beat.
    fn eager_degrade(transitions: &[f64], deadline: f64) -> f64 {
        transitions
            .iter()
            .enumerate()
            .map(|(k, t)| (t + deadline, transitions.get(k + 1)))
            .find(|&(due, next)| next.is_none_or(|&n| n > due))
            .map(|(due, _)| due)
            .expect("the last stage always stalls")
    }

    #[test]
    fn advancing_stages_keep_one_stage_timer_and_never_degrade() {
        let d = RetryConfig::default().stage_deadline;
        let mut w = Watched::new(hardened(16));
        for k in 0..=20 {
            let now = f64::from(k) * d / 2.0;
            w.run_until(now);
            w.transition(now);
        }
        w.run_until(10.0 * d);
        assert_eq!(w.degraded_at, None);
        assert_eq!(w.most_pending, 1, "one stage timer in flight at a time");
    }

    #[test]
    fn a_stall_degrades_at_the_eager_rules_instant_bit_for_bit() {
        // A deadline and transition times with no exact binary form, so
        // a re-armed remainder that drifted by an ulp would show.
        let d = 0.3;
        let cfg = LbProtocolConfig::default().hardened(RetryConfig {
            stage_deadline: d,
            ..RetryConfig::default()
        });
        let mut runs: Vec<Vec<f64>> = vec![
            vec![0.0, 0.1, 0.17, 0.3, 0.41, 0.6999],
            vec![0.0, 0.29, 0.58, 0.87, 1.2, 1.33],
            vec![5.0, 5.123, 5.4, 5.41],
            vec![0.7],
        ];
        // And seeded ones: gaps mostly under the deadline, from a start
        // anywhere in the first 100 s.
        use rand::Rng;
        let mut rng = RngFactory::new(11).rank_stream(b"watchdog", 0, 0);
        for _ in 0..200 {
            let mut t = rng.gen_range(0.0..100.0);
            let mut run = vec![t];
            for _ in 0..rng.gen_range(0..12) {
                t += rng.gen_range(0.0..1.2 * d);
                run.push(t);
            }
            runs.push(run);
        }
        for transitions in &runs {
            let mut w = Watched::new(cfg);
            for &t in transitions {
                w.run_until(t);
                if w.rank.degraded() {
                    break;
                }
                w.transition(t);
            }
            w.run_until(f64::INFINITY);
            let eager = eager_degrade(transitions, d);
            assert_eq!(
                w.degraded_at.map(f64::to_bits),
                Some(eager.to_bits()),
                "{transitions:?}: degraded at {:?}, eager rule {eager}",
                w.degraded_at
            );
            assert!(w.stage_timers.is_empty());
        }
    }

    #[test]
    fn a_parked_rank_retires_the_watchdog_and_a_heal_rearms_it() {
        let d = RetryConfig::default().stage_deadline;
        let cfg = hardened(16)
            .crash_tolerant(HealthConfig::default())
            .partition_tolerant(PartitionConfig::default());
        let mut w = Watched::new(cfg);
        w.turn(0.0, |r, ctx| r.on_start(ctx));
        assert_eq!(w.stage_timers.len(), 1, "setup arms the watchdog");
        // The peer is declared dead: one live rank of two is no quorum.
        w.turn(d / 2.0, |r, ctx| r.on_deaths(ctx, &[PEER]));
        assert!(w.rank.parked());
        w.run_until(10.0 * d);
        assert_eq!(w.degraded_at, None, "a park is not a stall");
        assert!(w.stage_timers.is_empty(), "the parked watchdog retired");

        // A heal (a later base fencing nobody) re-admits the peer and
        // restarts from Setup; the restarted stage stalls.
        let heal = LbMsg::View {
            base: w.rank.view().base_gen() + 3,
            dead: Vec::new().into(),
        };
        w.turn(10.0 * d, |r, ctx| {
            r.on_message(ctx, PEER, LbWire::Raw(heal))
        });
        assert!(!w.rank.parked());
        assert_eq!(w.stage_timers.len(), 1, "the restart re-arms the watchdog");
        w.run_until(f64::INFINITY);
        assert_eq!(w.degraded_at, Some(10.0 * d + d));
    }

    #[test]
    fn a_lost_stage_timer_does_not_disable_the_watchdog() {
        let d = RetryConfig::default().stage_deadline;
        let mut w = Watched::new(hardened(16));
        w.transition(0.0);
        // The rank is down when its watchdog falls due: the executor
        // discards the timer.
        let (due, _) = w.stage_timers.remove(0);
        assert_eq!(due, d);
        // Before its due time the lost timer still counts as armed…
        w.transition(d / 2.0);
        assert!(w.stage_timers.is_empty());
        // …after it, the next transition arms a new one.
        w.transition(1.5 * d);
        assert_eq!(w.stage_timers.len(), 1);
        w.run_until(f64::INFINITY);
        assert_eq!(w.degraded_at, Some(1.5 * d + d));
    }
}
