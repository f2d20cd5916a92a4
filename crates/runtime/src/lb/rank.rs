//! Per-rank actor of the asynchronous LB protocol: the thin glue that
//! binds the pure [`GossipEngine`] to a [`Transport`] stack and an
//! executor.
//!
//! The layering (see `DESIGN.md` §9):
//!
//! ```text
//! GossipEngine   pure state machine: (epoch, LbMsg) → Vec<Command>
//! Transport      Raw | Reliable(RetryConfig): LbMsg → frames and timers
//!                written straight to the driver's Ctx
//! LbRank         this file: interprets Commands, hands the Ctx to the
//!                transport, records spans/instants, arms deadlines
//! driver         Simulator (discrete-event), parallel executor, or the
//!                zero-latency in-process LocalRunner
//! ```
//!
//! All protocol logic — stages, epochs, collectives, gossip, transfer,
//! commit — lives in [`super::engine`]; all delivery mechanics — sequence
//! numbers, acks, retransmission, dedup — live in [`super::transport`].
//! What remains here is strictly the impedance match: commands to
//! context calls, wire frames to transport calls, plus the two pieces of
//! driver-side policy the engine must not know about (the stage-deadline
//! watchdog and the degrade decision when delivery fails for good).

use super::config::LbProtocolConfig;
use super::engine::{Command, GossipEngine};
use super::messages::{payload_bytes, LbMsg, LbWire, TaskEntry};
use super::transport::{transport_for, RxEvent, Transport};
use crate::health::HealthDetector;
use crate::reliable::ReliableStats;
use crate::sim::{Ctx, Protocol};
use std::collections::BTreeSet;
use tempered_core::distribution::Distribution;
use tempered_core::ids::{RankId, TaskId};
use tempered_core::rng::RngFactory;
use tempered_obs::{EventKind, Recorder};

/// The per-rank protocol actor: engine + transport + driver glue.
#[derive(Debug)]
pub struct LbRank {
    me: RankId,
    num_ranks: usize,
    cfg: LbProtocolConfig,
    engine: GossipEngine,
    transport: Box<dyn Transport>,

    // Stage-liveness watchdog (driver-side policy).
    stage_seq: u64,
    degraded: bool,
    done: bool,

    // Crash tolerance (present iff `cfg.health` is set): the failure
    // detector, and the set of ranks the current membership view has
    // fenced out — the transport holds no state toward them and their
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
            transport: transport_for(&cfg, me, &factory),
            cfg,
            stage_seq: 0,
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

    // ---- accessors (delegated to the engine / transport) -----------------

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

    /// Proposed tasks bounced back by NACKs across the whole run.
    pub fn nacks_received(&self) -> usize {
        self.engine.nacks_received()
    }

    /// Delivery-layer counters (all zero in best-effort mode).
    pub fn reliable_stats(&self) -> ReliableStats {
        self.transport.stats()
    }

    /// The membership view this rank's engine currently holds.
    pub fn view(&self) -> &crate::membership::View {
        self.engine.view()
    }

    /// End-of-run delivery ledgers for the audit layer (`None` in
    /// best-effort mode).
    pub fn delivery_audit(&self) -> Option<super::transport::DeliveryAudit> {
        self.transport.delivery_audit()
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
            self.transport.stats().record(m);
            m.counter_add("lb.migrations_in", self.engine.migrations_in() as u64);
            m.counter_add("lb.migrations_out", self.engine.migrations_out() as u64);
            m.counter_add("lb.nacks_received", self.engine.nacks_received() as u64);
            m.counter_add("lb.degraded_ranks", self.degraded as u64);
            m.counter_add("lb.parked_ranks", self.engine.is_parked() as u64);
            m.gauge_max("lb.initial_imbalance", self.engine.initial_imbalance());
            if self.engine.best_imbalance().is_finite() {
                m.gauge_max("lb.best_imbalance", self.engine.best_imbalance());
            }
        });
    }

    // ---- driver-side policy ----------------------------------------------

    fn arm_stage_deadline(&mut self, ctx: &mut Ctx<'_, LbWire>) {
        if let Some(retry) = self.cfg.reliability {
            self.stage_seq += 1;
            ctx.schedule(
                retry.stage_deadline,
                LbWire::StageTimer {
                    stage_seq: self.stage_seq,
                },
            );
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
                ctx.send(r, LbWire::Raw(LbMsg::Knock), LbMsg::Knock.wire_bytes());
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
                let bytes = payload_bytes(&msg, self.cfg.bytes_per_task);
                ctx.send(r, LbWire::Raw(msg), bytes);
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
    /// ways. Newly dead ranks: drop transport state toward them (so
    /// orphaned retry timers settle instead of degrading us) and pin
    /// them suspected in the detector. Newly live ranks (a heal
    /// re-admitted them): lift the fence and reset their detector
    /// history — their silence during the partition must not instantly
    /// re-suspect them.
    fn apply_view(&mut self, now: f64) {
        let view_dead = self.engine.view().dead();
        for r in view_dead.iter().copied() {
            if self.fenced.insert(r) {
                self.transport.fence(r);
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
    /// quorum-less stall is deliberate, not a delivery failure. Leaving
    /// one (a heal restarted or finished us) invalidates any armed
    /// deadline by bumping the sequence number. Call after every batch of
    /// engine commands that could change the parked state.
    fn sync_park(&mut self, ctx: &mut Ctx<'_, LbWire>) {
        let parked = self.engine.is_parked() && !self.done;
        if parked && !self.parked_seen {
            self.parked_seen = true;
            self.park_seq += 1;
            self.stage_seq += 1;
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

    // ---- command interpreter ----------------------------------------------

    fn run_commands(&mut self, ctx: &mut Ctx<'_, LbWire>, commands: &mut Vec<Command>) {
        for command in commands.drain(..) {
            match command {
                Command::Send { to, msg } => {
                    if self.fenced.contains(&to) {
                        // A fenced peer gets no reliable-channel state:
                        // its acks will never come and retries would
                        // burn the budget. Only the View flood targets
                        // corpses (to stand down warm-restarted
                        // zombies), and best-effort is enough for it.
                        let bytes = payload_bytes(&msg, self.cfg.bytes_per_task);
                        ctx.send(to, LbWire::Raw(msg), bytes);
                        continue;
                    }
                    self.transport.send(ctx, to, msg);
                }
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
        if matches!(wire, LbWire::HeartbeatTimer) {
            self.on_heartbeat_timer(ctx);
            return;
        }
        // The stage watchdog is driver-side policy, not delivery
        // mechanics: a stale counter means the stage advanced since the
        // timer was armed; only a live counter indicates a stall.
        if let LbWire::StageTimer { stage_seq } = wire {
            if !self.done && stage_seq == self.stage_seq {
                self.degrade(ctx.now());
            }
            return;
        }
        // The park deadline: no heal arrived in time, finish read-only on
        // the original placement. A stale sequence number means a heal
        // un-parked (or re-parked) us since the timer was armed.
        if let LbWire::ParkTimer { park_seq } = wire {
            if !self.done && self.parked_seen && park_seq == self.park_seq {
                let mut commands = self.engine.finish_parked();
                self.run_commands(ctx, &mut commands);
            }
            return;
        }
        // Network traffic from a fenced rank is a zombie talking; ignore
        // it entirely (in particular, don't let it prove liveness). Under
        // partition tolerance, membership traffic is the one exception: a
        // Knock is precisely a fenced rank calling (the heal trigger),
        // and a healed View flood or a Heal offer reaches a parked rank
        // *from* ranks it fenced on its own side of the split. The
        // engine's heal fence (view base) decides staleness; hearsay
        // still can't prove liveness, so the detector is not fed.
        let from_fenced = self.fenced.contains(&from);
        if from_fenced {
            let membership = self.cfg.partition.is_some()
                && matches!(
                    &wire,
                    LbWire::Raw(LbMsg::Knock | LbMsg::View { .. } | LbMsg::Heal { .. })
                        | LbWire::Data {
                            msg: LbMsg::Knock | LbMsg::View { .. } | LbMsg::Heal { .. },
                            ..
                        }
                );
            if !membership {
                return;
            }
        }
        // Any frame that crossed the network proves the sender was alive
        // when it sent — cheaper and tighter than heartbeats alone. An
        // ack additionally proves the *outbound* path to the sender
        // delivered a frame, which is the direction the link-quality
        // score tracks.
        if from != self.me && !from_fenced {
            if let Some(d) = &mut self.health {
                d.on_heartbeat(from, ctx.now());
                if self.cfg.partition.is_some() && matches!(wire, LbWire::Ack { .. }) {
                    d.on_link_outcome(from, true);
                }
            }
        }
        if matches!(wire, LbWire::Heartbeat) {
            return;
        }
        // Whatever the frame calls for at the delivery layer — an ack, a
        // retransmission — is on `ctx` before the event is interpreted.
        match self.transport.receive(ctx, from, wire) {
            RxEvent::Deliver(msg) => {
                // Self-death valve: a View naming *this* rank dead means
                // some component fenced us out and moved on (we were
                // warm-restarted, falsely suspected during a long stall,
                // or on the wrong side of a partition).
                if let LbMsg::View { base, dead } = &msg {
                    if dead.contains(&self.me) {
                        if self.cfg.partition.is_some() {
                            // Partition mode: never self-destruct on
                            // hearsay — a current view fencing us out is
                            // partition evidence, so park read-only and
                            // knock; a stale one (lower heal fence) is a
                            // crossing flood from before a heal that
                            // already re-admitted us.
                            if *base >= self.engine.view().base_gen() {
                                let mut commands = self.engine.park_self();
                                self.run_commands(ctx, &mut commands);
                                self.sync_park(ctx);
                            }
                        } else {
                            // Crash-stop mode: stand down rather than
                            // disrupt the survivors' new view.
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
            RxEvent::Duplicate { from, seq } => {
                self.rec.instant(
                    self.me.as_u32(),
                    ctx.now(),
                    EventKind::DuplicateSuppressed {
                        from: from.as_u32(),
                        seq,
                    },
                );
            }
            RxEvent::Retransmitted { to, seq } => {
                self.rec.instant(
                    self.me.as_u32(),
                    ctx.now(),
                    EventKind::Retransmit {
                        to: to.as_u32(),
                        seq,
                    },
                );
            }
            RxEvent::GaveUp { to, seq, msg } => {
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
                    // Debit the link's quality score and reinstate the
                    // message with a fresh retry budget instead of
                    // declaring a live peer dead. A link that never
                    // recovers stalls the stage, and the stage deadline
                    // backstops that.
                    if let Some(d) = &mut self.health {
                        d.on_link_outcome(to, false);
                    }
                    self.rec.instant(
                        self.me.as_u32(),
                        ctx.now(),
                        EventKind::LinkSuspect { to: to.as_u32() },
                    );
                    self.transport.reinstate(ctx, to, seq, msg);
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
            RxEvent::Corrupt { from } => {
                // Checksum mismatch: the frame was damaged in flight and
                // is dropped *without an ack*, so the sender's reliable
                // channel re-delivers the original. Best-effort frames
                // are simply lost — same contract as a drop.
                self.rec.instant(
                    self.me.as_u32(),
                    ctx.now(),
                    EventKind::CorruptDropped {
                        from: from.as_u32(),
                    },
                );
            }
            RxEvent::Nothing => {}
        }
    }

    fn is_done(&self) -> bool {
        self.done
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
