//! The PIC application executed as a *distributed protocol* on the
//! simulated AMT runtime.
//!
//! [`crate::app::EmpireSim`] owns global state and is what the timeline
//! harness drives; this module is the same application decomposed the way
//! the paper's EMPIRE actually runs on vt: each rank is an actor owning
//! the particle buffers of its colors, and every global effect is a
//! message —
//!
//! * **Replicated injection**: every rank draws the *identical* injection
//!   stream from the shared seed and keeps only the particles that land
//!   in colors it owns — the standard trick for deterministic distributed
//!   sampling, and the reason the distributed run reproduces the global
//!   simulation's per-color counts bit-for-bit.
//! * **Particle exchange with home-based location management**: particles
//!   crossing into a color owned elsewhere are routed through the color's
//!   *mesh home* rank, which tracks the color's current owner and
//!   forwards — vt's location manager pattern. Exchange traffic is
//!   sequenced by a termination-detection epoch per step.
//! * **Per-step statistics allreduce** over the collective tree, giving
//!   every rank the step's imbalance (the Fig. 4c series, measured
//!   distributedly).
//! * **Embedded load balancing**: on LB steps each rank instantiates the
//!   asynchronous [`LbRank`] protocol and pumps its messages through the
//!   PIC message type (protocol composition through its own [`Ctx`]); when
//!   it commits, gaining ranks fetch the *real particle payloads* from
//!   the previous owners and notify mesh homes of the ownership change.
//!   LB traffic is tagged with an invocation *generation* so that stale
//!   timers or retransmissions from a previous balancing pass can never
//!   leak into a later one. A rank whose embedded balancer degrades (see
//!   [`LbRank`]) keeps its pre-LB colors — the degraded round is
//!   effectively aborted — and records the step in
//!   [`PicRank::degraded_lb_steps`].

use crate::mesh::ColorId;
use crate::particles::ParticleBuffer;
use crate::scenario::{BdotScenario, CostModel};
use rand::rngs::SmallRng;
use std::collections::{BTreeSet, HashMap};
use tempered_core::ids::{RankId, TaskId};
use tempered_core::rng::{derive_seed, RngFactory};
use tempered_obs::{EventKind, Recorder};
use tempered_runtime::collective::{LoadSummary, Reduced, SurvivorTree};
use tempered_runtime::lb::{LbProtocolConfig, LbRank, LbWire};
use tempered_runtime::sim::{Ctx, NetworkModel, Protocol, SimReport, Simulator};
use tempered_runtime::termination::{EpochSends, TdMsg, TerminationDetector};

/// One particle on the wire: `(x, y, vx, vy)`.
pub type WireParticle = [f64; 4];

/// The stats tree's dead set: every rank lives for the whole run.
static NOBODY_DEAD: BTreeSet<RankId> = BTreeSet::new();

/// Configuration of a distributed PIC run.
#[derive(Clone, Copy, Debug)]
pub struct DistPicConfig {
    /// Workload scenario (steps, injection, field).
    pub scenario: BdotScenario,
    /// Cost model (per-particle load constant).
    pub cost: CostModel,
    /// Embedded balancer configuration.
    pub lb: LbProtocolConfig,
    /// First LB step; `usize::MAX` disables balancing.
    pub lb_first_step: usize,
    /// LB period after the first invocation.
    pub lb_period: usize,
}

/// Messages of the distributed PIC protocol.
#[derive(Clone, Debug)]
pub enum PicMsg {
    /// Particles entering `color`, routed via the color's mesh home.
    Particles {
        /// Exchange TD epoch.
        epoch: u64,
        /// Destination color.
        color: ColorId,
        /// Payload.
        particles: Vec<WireParticle>,
    },
    /// A color's new owner informs the color's mesh home (location
    /// management update).
    OwnerUpdate {
        /// Migration TD epoch.
        epoch: u64,
        /// The color that moved.
        color: ColorId,
        /// Its new owner.
        owner: RankId,
    },
    /// Post-LB: the new owner requests the particle payloads of `colors`
    /// from their previous owner.
    RequestParticles {
        /// Migration TD epoch.
        epoch: u64,
        /// Colors to hand over.
        colors: Vec<ColorId>,
    },
    /// Post-LB: previous owner ships the payloads.
    MigrateParticles {
        /// Migration TD epoch.
        epoch: u64,
        /// Per-color payloads.
        colors: Vec<(ColorId, Vec<WireParticle>)>,
    },
    /// Per-step statistics reduction, child → parent.
    StatsUp {
        /// Slot (`step + 1`).
        slot: u32,
        /// Partial summary.
        summary: LoadSummary,
    },
    /// Statistics result broadcast.
    StatsDown {
        /// Slot (`step + 1`).
        slot: u32,
        /// Final summary.
        summary: LoadSummary,
    },
    /// PIC-level termination detection control traffic.
    Td(TdMsg),
    /// Embedded LB protocol traffic (delivery frames *and* the LB's
    /// self-timers, pumped through the PIC message type).
    Lb {
        /// LB invocation generation: stale traffic from an earlier
        /// balancing pass is dropped instead of corrupting the current
        /// one.
        gen: u64,
        /// The wrapped LB transport frame.
        wire: LbWire,
    },
}

impl PicMsg {
    fn basic_epoch(&self) -> Option<u64> {
        match self {
            PicMsg::Particles { epoch, .. }
            | PicMsg::OwnerUpdate { epoch, .. }
            | PicMsg::RequestParticles { epoch, .. }
            | PicMsg::MigrateParticles { epoch, .. } => Some(*epoch),
            _ => None,
        }
    }

    fn wire_bytes(&self) -> usize {
        match self {
            PicMsg::Particles { particles, .. } => 24 + 32 * particles.len(),
            PicMsg::OwnerUpdate { .. } => 24,
            PicMsg::RequestParticles { colors, .. } => 16 + 8 * colors.len(),
            PicMsg::MigrateParticles { colors, .. } => {
                16 + colors.iter().map(|(_, p)| 16 + 32 * p.len()).sum::<usize>()
            }
            PicMsg::StatsUp { .. } | PicMsg::StatsDown { .. } => 32,
            PicMsg::Td(_) => tempered_runtime::termination::TD_MSG_BYTES,
            PicMsg::Lb { wire, .. } => wire.wire_bytes(),
        }
    }
}

/// Per-step record measured by the distributed run.
#[derive(Clone, Copy, Debug)]
pub struct DistStepStats {
    /// Step index.
    pub step: usize,
    /// Globally agreed imbalance of per-rank particle loads.
    pub imbalance: f64,
    /// Globally agreed maximum per-rank particle load.
    pub max_rank_load: f64,
    /// Particles alive (from the summary's total / per-particle cost).
    pub num_particles: usize,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum PicStage {
    Exchange,
    Stats,
    Lb,
    Migration,
    Done,
}

/// The per-rank PIC actor.
#[derive(Debug)]
pub struct PicRank {
    me: RankId,
    cfg: DistPicConfig,
    factory: RngFactory,
    /// This rank's seat in the stats tree.
    coll: SurvivorTree,
    det: TerminationDetector,

    /// Particles of owned colors (single buffer; binned on demand).
    particles: ParticleBuffer,
    /// Colors this rank currently owns.
    owned: Vec<ColorId>,
    /// Location table for colors whose *mesh home* is this rank.
    owner_table: HashMap<ColorId, RankId>,

    /// Replicated injection stream (identical on every rank).
    inject_rng: SmallRng,

    step: usize,
    stage: PicStage,
    buffered: Vec<(RankId, PicMsg)>,

    /// Embedded balancer (alive during and after its run on an LB step).
    lb: Option<LbRank>,
    lb_done_handled: bool,
    /// Generation of the current (or most recent) LB invocation; 0
    /// before the first one. Tags all wrapped LB traffic and timers.
    lb_gen: u64,

    /// Per-step statistics (identical across ranks; rank 0's are read).
    pub stats: Vec<DistStepStats>,
    /// Colors gained through LB over the whole run.
    pub colors_gained: usize,
    /// Steps whose embedded LB invocation ended degraded on this rank
    /// (the rank then kept its pre-LB colors).
    pub degraded_lb_steps: Vec<usize>,

    done: bool,

    /// Trace recorder (disabled by default; see [`PicRank::set_recorder`]).
    rec: Recorder,
    /// Currently open application-phase span: `(start, kind)`.
    open_span: Option<(f64, EventKind)>,
}

impl PicRank {
    /// Create the actor for `me`.
    pub fn new(me: RankId, cfg: DistPicConfig, factory: RngFactory) -> Self {
        let mesh = cfg.scenario.mesh;
        let num_ranks = mesh.num_ranks();
        let mut owned: Vec<ColorId> = mesh.colors().filter(|&c| mesh.home_rank(c) == me).collect();
        owned.sort_unstable();
        let owner_table: HashMap<ColorId, RankId> = owned.iter().map(|&c| (c, me)).collect();
        PicRank {
            me,
            cfg,
            factory,
            coll: SurvivorTree::new(me, num_ranks),
            det: TerminationDetector::new(me, num_ranks),
            particles: ParticleBuffer::default(),
            owned,
            owner_table,
            inject_rng: factory.rank_stream(b"inject", 0, 0),
            step: 0,
            stage: PicStage::Exchange,
            buffered: Vec::new(),
            lb: None,
            lb_done_handled: false,
            lb_gen: 0,
            stats: Vec::new(),
            colors_gained: 0,
            degraded_lb_steps: Vec::new(),
            done: false,
            rec: Recorder::disabled(),
            open_span: None,
        }
    }

    /// Attach a trace recorder. Phase spans, step boundaries, and
    /// end-of-run counters flow into it; the embedded balancer inherits
    /// the same recorder on every LB step. Recording never touches the
    /// protocol's random streams, so it cannot perturb the run.
    pub fn set_recorder(&mut self, rec: Recorder) {
        self.rec = rec;
    }

    /// Close the open phase span (if any) at `now` and open a new one.
    fn span_open(&mut self, now: f64, kind: EventKind) {
        if !self.rec.is_enabled() {
            return;
        }
        self.span_close(now);
        self.open_span = Some((now, kind));
    }

    /// Close the open phase span (if any) at `now`.
    fn span_close(&mut self, now: f64) {
        if let Some((t0, kind)) = self.open_span.take() {
            self.rec.span(self.me.as_u32(), t0, now - t0, kind);
        }
    }

    /// Flush end-of-run counters into the shared metrics registry.
    fn flush_metrics(&self) {
        self.rec.with_metrics(|m| {
            m.counter_add("pic.colors_gained", self.colors_gained as u64);
            m.counter_add("pic.degraded_lb_steps", self.degraded_lb_steps.len() as u64);
            m.counter_add("pic.final_particles", self.particles.len() as u64);
            m.counter_add("pic.lb_invocations", self.lb_gen);
        });
    }

    /// Colors currently owned by this rank. Test accessor: the
    /// distributed-app tests check ownership stays a partition.
    pub fn owned_colors(&self) -> &[ColorId] {
        &self.owned
    }

    /// Particles currently resident.
    pub fn num_particles(&self) -> usize {
        self.particles.len()
    }

    // Epoch numbering: each step has two epochs, exchange then migration.

    fn exchange_epoch(&self) -> u64 {
        2 * self.step as u64 + 1
    }

    fn migration_epoch(&self) -> u64 {
        2 * self.step as u64 + 2
    }

    fn stats_slot(&self) -> u32 {
        self.step as u32 + 1
    }

    fn lb_due(&self) -> bool {
        let s = self.step;
        s == self.cfg.lb_first_step
            || (s > self.cfg.lb_first_step
                && self.cfg.lb_period > 0
                && s.is_multiple_of(self.cfg.lb_period))
    }

    fn owns(&self, color: ColorId) -> bool {
        self.owned.contains(&color)
    }

    // ---- sending helpers ---------------------------------------------------

    fn send_basic(&mut self, ctx: &mut Ctx<'_, PicMsg>, to: RankId, msg: PicMsg) {
        debug_assert!(msg.basic_epoch().is_some());
        self.det.on_basic_send();
        let bytes = msg.wire_bytes();
        ctx.send(to, msg, bytes);
    }

    fn send_ctrl(ctx: &mut Ctx<'_, PicMsg>, to: RankId, msg: PicMsg) {
        let bytes = msg.wire_bytes();
        ctx.send(to, msg, bytes);
    }

    fn emit_td(
        &mut self,
        ctx: &mut Ctx<'_, PicMsg>,
        outcome: tempered_runtime::termination::TdOutcome,
    ) {
        for s in outcome.sends {
            Self::send_ctrl(ctx, s.to, PicMsg::Td(s.msg));
        }
        if let Some(epoch) = outcome.terminated_epoch {
            self.on_epoch_terminated(ctx, epoch);
        }
    }

    // ---- step machinery ------------------------------------------------------

    fn enter_exchange(&mut self, ctx: &mut Ctx<'_, PicMsg>) {
        self.stage = PicStage::Exchange;
        if self.rec.is_enabled() {
            let step = self.step as u64;
            self.rec.instant(
                self.me.as_u32(),
                ctx.now(),
                EventKind::PhaseBoundary { step },
            );
            self.span_open(
                ctx.now(),
                EventKind::AppPhase {
                    phase: "exchange",
                    step,
                },
            );
        }
        // Not entry-only: a particle routed through its color's mesh
        // home is forwarded to the owner while the home processes it
        // (`on_particles`), so the epoch keeps two waves.
        let epoch = self.exchange_epoch();
        self.det.start_epoch(epoch, EpochSends::Replies);

        let s = self.cfg.scenario;
        let mesh = s.mesh;
        let t = self.step as f64 * s.dt;

        // Replicated injection: identical stream, keep only owned colors.
        let count = s.injection_at(self.step);
        let mut burst = ParticleBuffer::with_capacity(count);
        burst.inject_burst(
            &mesh,
            count,
            mesh.width * 0.5,
            mesh.height * 0.5,
            s.inject_sigma,
            s.v_drift,
            s.v_th,
            &mut self.inject_rng,
        );
        for i in 0..burst.len() {
            if self.owns(mesh.color_at(burst.x[i], burst.y[i])) {
                self.particles
                    .push(burst.x[i], burst.y[i], burst.vx[i], burst.vy[i]);
            }
        }

        // Push owned particles.
        self.particles.advance(&mesh, &s.field, t, s.dt);

        // Re-bin: keep particles still in owned colors; route the rest
        // via their color's mesh home.
        let mut keep = ParticleBuffer::with_capacity(self.particles.len());
        let mut outgoing: HashMap<ColorId, Vec<WireParticle>> = HashMap::new();
        for i in 0..self.particles.len() {
            let (x, y, vx, vy) = (
                self.particles.x[i],
                self.particles.y[i],
                self.particles.vx[i],
                self.particles.vy[i],
            );
            let color = mesh.color_at(x, y);
            if self.owns(color) {
                keep.push(x, y, vx, vy);
            } else {
                outgoing.entry(color).or_default().push([x, y, vx, vy]);
            }
        }
        self.particles = keep;
        let mut msgs: Vec<(ColorId, Vec<WireParticle>)> = outgoing.into_iter().collect();
        msgs.sort_by_key(|(c, _)| *c); // deterministic send order
        for (color, particles) in msgs {
            let home = mesh.home_rank(color);
            let target = if home == self.me {
                // We are the home: forward straight to the current owner.
                *self
                    .owner_table
                    .get(&color)
                    .expect("home tracks all its colors")
            } else {
                home
            };
            self.send_basic(
                ctx,
                target,
                PicMsg::Particles {
                    epoch,
                    color,
                    particles,
                },
            );
        }

        let kick = self.det.kick();
        self.emit_td(ctx, kick);
        self.replay_buffered(ctx);
    }

    fn on_particles(
        &mut self,
        ctx: &mut Ctx<'_, PicMsg>,
        color: ColorId,
        particles: Vec<WireParticle>,
    ) {
        self.det.on_basic_recv();
        if self.owns(color) {
            for p in particles {
                self.particles.push(p[0], p[1], p[2], p[3]);
            }
            return;
        }
        // We must be the color's home, acting as its location manager.
        debug_assert_eq!(self.cfg.scenario.mesh.home_rank(color), self.me);
        let owner = *self
            .owner_table
            .get(&color)
            .expect("home tracks all its colors");
        debug_assert_ne!(owner, self.me, "owned() would have caught this");
        let epoch = self.det.epoch();
        self.send_basic(
            ctx,
            owner,
            PicMsg::Particles {
                epoch,
                color,
                particles,
            },
        );
    }

    fn on_epoch_terminated(&mut self, ctx: &mut Ctx<'_, PicMsg>, epoch: u64) {
        match self.stage {
            PicStage::Exchange => {
                debug_assert_eq!(epoch, self.exchange_epoch());
                self.enter_stats(ctx);
            }
            PicStage::Migration => {
                debug_assert_eq!(epoch, self.migration_epoch());
                self.advance_step(ctx);
            }
            s => panic!("unexpected epoch {epoch} termination in stage {s:?}"),
        }
    }

    fn enter_stats(&mut self, ctx: &mut Ctx<'_, PicMsg>) {
        self.stage = PicStage::Stats;
        self.span_open(
            ctx.now(),
            EventKind::AppPhase {
                phase: "stats",
                step: self.step as u64,
            },
        );
        let slot = self.stats_slot();
        let load = self.particles.len() as f64 * self.cfg.cost.per_particle;
        let done = self
            .coll
            .contribute(&NOBODY_DEAD, slot, LoadSummary::of(load));
        self.stats_step(ctx, slot, done);
    }

    fn stats_step(&mut self, ctx: &mut Ctx<'_, PicMsg>, slot: u32, done: Option<Reduced>) {
        match done {
            Some(Reduced::Up(parent, summary)) => {
                Self::send_ctrl(ctx, parent, PicMsg::StatsUp { slot, summary });
            }
            Some(Reduced::Root(summary)) => {
                self.stats_broadcast(ctx, slot, summary);
                self.on_stats_result(ctx, slot, summary);
            }
            None => {}
        }
    }

    fn stats_broadcast(&self, ctx: &mut Ctx<'_, PicMsg>, slot: u32, summary: LoadSummary) {
        for child in self.coll.children(&NOBODY_DEAD) {
            Self::send_ctrl(ctx, child, PicMsg::StatsDown { slot, summary });
        }
    }

    fn on_stats_result(&mut self, ctx: &mut Ctx<'_, PicMsg>, slot: u32, summary: LoadSummary) {
        debug_assert_eq!(self.stage, PicStage::Stats);
        debug_assert_eq!(slot, self.stats_slot());
        self.stats.push(DistStepStats {
            step: self.step,
            imbalance: summary.imbalance(),
            max_rank_load: summary.max,
            num_particles: (summary.total / self.cfg.cost.per_particle).round() as usize,
        });

        if self.lb_due() {
            self.enter_lb(ctx);
        } else {
            // No migration epoch this step: skip straight on.
            self.advance_step(ctx);
        }
    }

    // ---- embedded LB -----------------------------------------------------------

    fn enter_lb(&mut self, ctx: &mut Ctx<'_, PicMsg>) {
        self.stage = PicStage::Lb;
        self.span_open(
            ctx.now(),
            EventKind::AppPhase {
                phase: "lb",
                step: self.step as u64,
            },
        );
        self.lb_done_handled = false;
        self.lb_gen += 1;
        let mesh = self.cfg.scenario.mesh;
        // Instrument: per-color particle counts → task loads.
        let mut counts: HashMap<ColorId, usize> = self.owned.iter().map(|&c| (c, 0)).collect();
        for i in 0..self.particles.len() {
            let c = mesh.color_at(self.particles.x[i], self.particles.y[i]);
            *counts.get_mut(&c).expect("resident particles are owned") += 1;
        }
        let mut tasks: Vec<(TaskId, f64)> = counts
            .into_iter()
            .map(|(c, n)| (c.task_id(), n as f64 * self.cfg.cost.per_particle))
            .collect();
        tasks.sort_by_key(|(id, _)| *id);

        // Namespace the LB randomness by the step so repeated invocations
        // decorrelate.
        let sub = RngFactory::new(derive_seed(
            self.factory.master(),
            &[0x00D1_571B, self.step as u64],
        ));
        let mut lb = LbRank::new(self.me, mesh.num_ranks(), tasks, self.cfg.lb, sub);
        lb.set_recorder(self.rec.clone());
        self.pump_lb(ctx, |lb, lb_ctx| lb.on_start(lb_ctx), &mut lb);
        self.lb = Some(lb);
        self.check_lb_done(ctx);
        self.replay_buffered(ctx);
    }

    /// Run `f` against the embedded LB with an adapter context, then wrap
    /// and transmit whatever it sent — and re-schedule whatever timers it
    /// armed (retry timers, stage deadlines) as wrapped self-messages, so
    /// the LB's delivery hardening works unchanged inside the PIC app.
    fn pump_lb(
        &mut self,
        ctx: &mut Ctx<'_, PicMsg>,
        f: impl FnOnce(&mut LbRank, &mut Ctx<'_, LbWire>),
        lb: &mut LbRank,
    ) {
        let (mut outbox, mut timers) = (Vec::new(), Vec::new());
        let mut lb_ctx = Ctx::new(self.me, ctx.now(), &mut outbox, &mut timers);
        f(lb, &mut lb_ctx);
        let gen = self.lb_gen;
        for (to, wire, bytes) in outbox {
            ctx.send(to, PicMsg::Lb { gen, wire }, bytes);
        }
        for (delay, wire) in timers {
            ctx.schedule(delay, PicMsg::Lb { gen, wire });
        }
    }

    fn on_lb_msg(&mut self, ctx: &mut Ctx<'_, PicMsg>, from: RankId, wire: LbWire) {
        let mut lb = self.lb.take().expect("LB messages only while LB exists");
        self.pump_lb(ctx, |lb, lb_ctx| lb.on_message(lb_ctx, from, wire), &mut lb);
        self.lb = Some(lb);
        self.check_lb_done(ctx);
    }

    fn check_lb_done(&mut self, ctx: &mut Ctx<'_, PicMsg>) {
        if self.stage != PicStage::Lb || self.lb_done_handled {
            return;
        }
        let done = self.lb.as_ref().is_some_and(|lb| lb.is_done());
        if !done {
            return;
        }
        self.lb_done_handled = true;
        if self.lb.as_ref().is_some_and(|lb| lb.degraded()) {
            // The balancer abandoned this round; the rank keeps its
            // pre-LB colors (LbRank::degrade reverted its task set).
            self.degraded_lb_steps.push(self.step);
        }
        self.enter_migration(ctx);
    }

    fn enter_migration(&mut self, ctx: &mut Ctx<'_, PicMsg>) {
        self.stage = PicStage::Migration;
        self.span_open(
            ctx.now(),
            EventKind::AppPhase {
                phase: "migration",
                step: self.step as u64,
            },
        );
        // Request and reply: a `RequestParticles` is answered with
        // `MigrateParticles`, so the epoch keeps two waves.
        let epoch = self.migration_epoch();
        self.det.start_epoch(epoch, EpochSends::Replies);

        // The committed assignment: this rank's final task set.
        let final_tasks = self
            .lb
            .as_ref()
            .expect("LB just finished")
            .final_tasks()
            .to_vec();
        let mut new_owned: Vec<ColorId> = final_tasks
            .iter()
            .map(|t| ColorId::from_task(t.id))
            .collect();
        new_owned.sort_unstable();

        // Request payloads for gained colors from their previous owners,
        // and tell each gained color's mesh home about the new owner.
        let mut by_prev: HashMap<RankId, Vec<ColorId>> = HashMap::new();
        for t in &final_tasks {
            if t.home != self.me {
                by_prev
                    .entry(t.home)
                    .or_default()
                    .push(ColorId::from_task(t.id));
            }
        }
        let mut requests: Vec<(RankId, Vec<ColorId>)> = by_prev.into_iter().collect();
        requests.sort_by_key(|(r, _)| *r);
        for (prev, colors) in requests {
            self.colors_gained += colors.len();
            for &c in &colors {
                let home = self.cfg.scenario.mesh.home_rank(c);
                if home == self.me {
                    self.owner_table.insert(c, self.me);
                } else {
                    self.send_basic(
                        ctx,
                        home,
                        PicMsg::OwnerUpdate {
                            epoch,
                            color: c,
                            owner: self.me,
                        },
                    );
                }
            }
            self.send_basic(ctx, prev, PicMsg::RequestParticles { epoch, colors });
        }

        // Adopt the new ownership; lost colors' particles leave when the
        // new owner's request arrives.
        self.owned = new_owned;
        self.lb = None;

        let kick = self.det.kick();
        self.emit_td(ctx, kick);
        self.replay_buffered(ctx);
    }

    fn on_request_particles(
        &mut self,
        ctx: &mut Ctx<'_, PicMsg>,
        from: RankId,
        colors: Vec<ColorId>,
    ) {
        self.det.on_basic_recv();
        let mesh = self.cfg.scenario.mesh;
        let wanted: std::collections::HashSet<ColorId> = colors.iter().copied().collect();
        let mut keep = ParticleBuffer::with_capacity(self.particles.len());
        let mut shipped: HashMap<ColorId, Vec<WireParticle>> =
            colors.iter().map(|&c| (c, Vec::new())).collect();
        for i in 0..self.particles.len() {
            let (x, y, vx, vy) = (
                self.particles.x[i],
                self.particles.y[i],
                self.particles.vx[i],
                self.particles.vy[i],
            );
            let c = mesh.color_at(x, y);
            if wanted.contains(&c) {
                shipped.get_mut(&c).unwrap().push([x, y, vx, vy]);
            } else {
                keep.push(x, y, vx, vy);
            }
        }
        self.particles = keep;
        let mut payload: Vec<(ColorId, Vec<WireParticle>)> = shipped.into_iter().collect();
        payload.sort_by_key(|(c, _)| *c);
        let epoch = self.det.epoch();
        self.send_basic(
            ctx,
            from,
            PicMsg::MigrateParticles {
                epoch,
                colors: payload,
            },
        );
    }

    fn on_migrate_particles(&mut self, colors: Vec<(ColorId, Vec<WireParticle>)>) {
        self.det.on_basic_recv();
        for (color, particles) in colors {
            debug_assert!(self.owns(color), "payload for a color we now own");
            let _ = color;
            for p in particles {
                self.particles.push(p[0], p[1], p[2], p[3]);
            }
        }
    }

    fn advance_step(&mut self, ctx: &mut Ctx<'_, PicMsg>) {
        self.span_close(ctx.now());
        self.step += 1;
        if self.step >= self.cfg.scenario.steps {
            self.stage = PicStage::Done;
            self.done = true;
            self.flush_metrics();
            return;
        }
        self.enter_exchange(ctx);
    }

    // ---- buffering ---------------------------------------------------------

    fn should_buffer(&self, msg: &PicMsg) -> bool {
        match msg {
            PicMsg::Td(TdMsg::Token { epoch, .. })
            | PicMsg::Td(TdMsg::Terminated { epoch, .. }) => *epoch > self.det.epoch(),
            // Traffic for a balancing pass this rank has not entered yet
            // waits; current- and past-generation traffic is dispatched
            // (and dropped there if stale).
            PicMsg::Lb { gen, .. } => *gen > self.lb_gen,
            other => match other.basic_epoch() {
                Some(e) => e > self.det.epoch(),
                None => false,
            },
        }
    }

    fn replay_buffered(&mut self, ctx: &mut Ctx<'_, PicMsg>) {
        let mut keep = Vec::new();
        let mut deliverable = Vec::new();
        for (from, msg) in std::mem::take(&mut self.buffered) {
            if self.should_buffer(&msg) {
                keep.push((from, msg));
            } else {
                deliverable.push((from, msg));
            }
        }
        self.buffered = keep;
        for (from, msg) in deliverable {
            self.dispatch(ctx, from, msg);
        }
    }

    fn dispatch(&mut self, ctx: &mut Ctx<'_, PicMsg>, from: RankId, msg: PicMsg) {
        match msg {
            PicMsg::Particles {
                epoch,
                color,
                particles,
            } => {
                debug_assert_eq!(epoch, self.det.epoch());
                self.on_particles(ctx, color, particles);
            }
            PicMsg::OwnerUpdate {
                epoch,
                color,
                owner,
            } => {
                debug_assert_eq!(epoch, self.det.epoch());
                self.det.on_basic_recv();
                debug_assert_eq!(self.cfg.scenario.mesh.home_rank(color), self.me);
                self.owner_table.insert(color, owner);
            }
            PicMsg::RequestParticles { epoch, colors } => {
                debug_assert_eq!(epoch, self.det.epoch());
                self.on_request_particles(ctx, from, colors);
            }
            PicMsg::MigrateParticles { epoch, colors } => {
                debug_assert_eq!(epoch, self.det.epoch());
                self.on_migrate_particles(colors);
            }
            PicMsg::StatsUp { slot, summary } => {
                let done = self.coll.on_child(&NOBODY_DEAD, slot, from, summary);
                self.stats_step(ctx, slot, done);
            }
            PicMsg::StatsDown { slot, summary } => {
                self.stats_broadcast(ctx, slot, summary);
                self.on_stats_result(ctx, slot, summary);
            }
            PicMsg::Td(td) => {
                let out = self.det.handle(td);
                self.emit_td(ctx, out);
            }
            PicMsg::Lb { gen, wire } => {
                // Stale generations (a finished or abandoned invocation)
                // are dropped: their retry timers and retransmissions
                // must not alias the current invocation's sequence
                // numbers or stage counters.
                if gen == self.lb_gen && self.lb.is_some() {
                    self.on_lb_msg(ctx, from, wire);
                }
            }
        }
    }
}

impl Protocol for PicRank {
    type Msg = PicMsg;

    fn on_start(&mut self, ctx: &mut Ctx<'_, PicMsg>) {
        self.enter_exchange(ctx);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, PicMsg>, from: RankId, msg: PicMsg) {
        if self.should_buffer(&msg) {
            self.buffered.push((from, msg));
            return;
        }
        self.dispatch(ctx, from, msg);
    }

    fn is_done(&self) -> bool {
        self.done
    }
}

/// Result of a full distributed PIC run.
#[derive(Clone, Debug)]
pub struct DistPicResult {
    /// Per-step globally-agreed statistics.
    pub stats: Vec<DistStepStats>,
    /// Total colors that changed owner through LB.
    pub colors_migrated: usize,
    /// Number of distinct LB steps in which at least one rank degraded
    /// (the degrading ranks kept their pre-LB colors for that round).
    pub degraded_lb_rounds: usize,
    /// Executor report.
    pub report: SimReport,
    /// Final per-rank particle counts.
    pub final_particles: Vec<usize>,
}

/// Run the distributed PIC application end to end on the event-driven
/// executor. `recorder` is attached to every rank, the embedded
/// balancers, and the simulator; the trace it collects is
/// bit-reproducible for a given `(cfg, model, seed)` because all events
/// are stamped with virtual time. Pass [`Recorder::disabled`] to trace
/// nothing.
pub fn run_distributed_pic(
    cfg: DistPicConfig,
    model: NetworkModel,
    seed: u64,
    recorder: Recorder,
) -> DistPicResult {
    let factory = RngFactory::new(seed);
    let ranks: Vec<PicRank> = (0..cfg.scenario.mesh.num_ranks())
        .map(|r| {
            let mut rank = PicRank::new(RankId::from(r), cfg, factory);
            rank.set_recorder(recorder.clone());
            rank
        })
        .collect();
    let mut sim = Simulator::new(ranks, model, &factory);
    sim.set_recorder(recorder);
    let report = sim.run();
    assert!(report.completed, "PIC protocol must run to completion");
    let ranks = sim.into_ranks();
    let mut degraded_steps: Vec<usize> = ranks
        .iter()
        .flat_map(|r| r.degraded_lb_steps.iter().copied())
        .collect();
    degraded_steps.sort_unstable();
    degraded_steps.dedup();
    DistPicResult {
        stats: ranks[0].stats.clone(),
        colors_migrated: ranks.iter().map(|r| r.colors_gained).sum(),
        degraded_lb_rounds: degraded_steps.len(),
        final_particles: ranks.iter().map(|r| r.num_particles()).collect(),
        report,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::EmpireSim;

    fn small_cfg(steps: usize, lb_first: usize) -> DistPicConfig {
        let mut scenario = BdotScenario::small();
        scenario.steps = steps;
        DistPicConfig {
            scenario,
            cost: CostModel::default(),
            lb: LbProtocolConfig {
                trials: 1,
                iters: 2,
                fanout: 3,
                rounds: 4,
                ..Default::default()
            },
            lb_first_step: lb_first,
            lb_period: 10,
        }
    }

    /// An untraced run on the default network model.
    fn run(cfg: DistPicConfig, seed: u64) -> DistPicResult {
        run_distributed_pic(cfg, NetworkModel::default(), seed, Recorder::disabled())
    }

    #[test]
    fn no_lb_run_matches_global_simulation_exactly() {
        // Same seed, no balancing: the distributed run must reproduce the
        // global simulation's particle population and per-step imbalance
        // bit-for-bit (replicated injection + identical kernels).
        let steps = 12;
        let cfg = small_cfg(steps, usize::MAX);
        let out = run(cfg, 42);

        let mut global = EmpireSim::new(cfg.scenario, cfg.cost, 42);
        for s in 0..steps {
            let phase = global.step();
            assert_eq!(
                out.stats[s].num_particles, phase.num_particles,
                "step {s}: particle counts diverge"
            );
            let gstats = global.distribution.statistics();
            assert!(
                (out.stats[s].imbalance - gstats.imbalance).abs() < 1e-9,
                "step {s}: imbalance diverges: {} vs {}",
                out.stats[s].imbalance,
                gstats.imbalance
            );
        }
        assert_eq!(out.colors_migrated, 0);
        let total: usize = out.final_particles.iter().sum();
        assert_eq!(total, global.num_particles());
    }

    #[test]
    fn lb_run_completes_and_conserves_particles() {
        let steps = 16;
        let cfg = small_cfg(steps, 4);
        let out = run(cfg, 7);
        assert_eq!(out.stats.len(), steps);
        assert!(out.colors_migrated > 0, "LB should move colors");

        // Particle conservation against the global sim's count.
        let mut global = EmpireSim::new(cfg.scenario, cfg.cost, 7);
        for _ in 0..steps {
            global.step();
        }
        let total: usize = out.final_particles.iter().sum();
        assert_eq!(total, global.num_particles());
    }

    #[test]
    fn lb_reduces_measured_imbalance() {
        let steps = 16;
        let balanced = run(small_cfg(steps, 4), 3);
        let unbalanced = run(small_cfg(steps, usize::MAX), 3);
        // Average imbalance over the post-LB steps.
        let avg = |stats: &[DistStepStats]| {
            let tail = &stats[6..];
            tail.iter().map(|s| s.imbalance).sum::<f64>() / tail.len() as f64
        };
        let b = avg(&balanced.stats);
        let u = avg(&unbalanced.stats);
        assert!(
            b < u * 0.7,
            "distributed LB should cut the measured imbalance: {b} vs {u}"
        );
    }

    #[test]
    fn distributed_pic_is_deterministic() {
        let cfg = small_cfg(10, 4);
        let a = run(cfg, 11);
        let b = run(cfg, 11);
        assert_eq!(a.report.events_delivered, b.report.events_delivered);
        assert_eq!(a.final_particles, b.final_particles);
        for (x, y) in a.stats.iter().zip(b.stats.iter()) {
            assert_eq!(x.imbalance, y.imbalance);
        }
    }

    /// The same actors under real threads: arbitrary interleavings must
    /// not break the step sequencing, location management, or embedded
    /// LB.
    #[test]
    fn distributed_pic_runs_on_the_threaded_executor() {
        use std::time::Duration;
        use tempered_runtime::parallel::run_parallel;

        let cfg = small_cfg(10, 4);
        let factory = RngFactory::new(5);
        let ranks: Vec<PicRank> = (0..cfg.scenario.mesh.num_ranks())
            .map(|r| PicRank::new(RankId::from(r), cfg, factory))
            .collect();
        let report = run_parallel(ranks, 4, Duration::from_secs(30));
        assert!(report.completed, "threaded PIC must terminate");

        // Particle conservation against the global simulation.
        let mut global = EmpireSim::new(cfg.scenario, cfg.cost, 5);
        for _ in 0..cfg.scenario.steps {
            global.step();
        }
        let total: usize = report.ranks.iter().map(|r| r.num_particles()).sum();
        assert_eq!(total, global.num_particles());
        // Color ownership is a partition.
        let owned: usize = report.ranks.iter().map(|r| r.owned_colors().len()).sum();
        assert_eq!(owned, cfg.scenario.mesh.num_colors());
    }

    /// Any balancer runs distributed: swap the LB slice of the config
    /// for the original GrapevineLB and the embedded protocol still
    /// completes, conserves particles, moves work, and replays
    /// deterministically.
    #[test]
    fn grapevine_balancer_runs_embedded() {
        let steps = 16;
        let mut cfg = small_cfg(steps, 4);
        cfg.lb = LbProtocolConfig::grapevine();
        let out = run(cfg, 7);
        assert_eq!(out.stats.len(), steps);
        assert!(out.colors_migrated > 0, "grapevine LB should move colors");

        let again = run(cfg, 7);
        assert_eq!(out.final_particles, again.final_particles);
        assert_eq!(out.report.events_delivered, again.report.events_delivered);

        let mut global = EmpireSim::new(cfg.scenario, cfg.cost, 7);
        for _ in 0..steps {
            global.step();
        }
        let total: usize = out.final_particles.iter().sum();
        assert_eq!(total, global.num_particles());
    }

    /// Pinned: the counts, the per-step stats and the exported trace of
    /// a traced run with one LB pass, bit for bit.
    #[test]
    fn traced_lb_run_is_pinned() {
        let cfg = small_cfg(16, 4);
        let rec = Recorder::enabled(cfg.scenario.mesh.num_ranks());
        let out = run_distributed_pic(cfg, NetworkModel::default(), 7, rec.clone());
        let fnv = |h: u64, w: u64| (h ^ w).wrapping_mul(0x0100_0000_01B3);
        let stats = out.stats.iter().fold(0u64, |h, s| {
            [
                s.imbalance.to_bits(),
                s.max_rank_load.to_bits(),
                s.num_particles as u64,
            ]
            .into_iter()
            .fold(h, fnv)
        });
        let trace = tempered_obs::write_chrome_trace(&rec.snapshot())
            .bytes()
            .fold(0u64, |h, b| fnv(h, b as u64));
        assert_eq!(
            out.final_particles,
            [87, 176, 60, 31, 87, 81, 84, 46, 70, 78, 83, 29, 87, 106, 82, 93]
        );
        assert_eq!(out.colors_migrated, 47);
        assert_eq!(out.report.events_delivered, 3859);
        assert_eq!(stats, 0xf3bf_2680_bd4a_75c4, "per-step stats moved");
        assert_eq!(trace, 0x077a_4f39_4d6a_f010, "exported trace moved");
    }

    #[test]
    fn repeated_lb_invocations_work() {
        // LB at steps 4, 10, 20 (period 10): consecutive balancing passes
        // must hand ownership chains correctly (home-based routing).
        let cfg = small_cfg(22, 4);
        let out = run(cfg, 19);
        assert_eq!(out.stats.len(), 22);
        assert!(out.colors_migrated > 0);
        let late = &out.stats[12..];
        let avg = late.iter().map(|s| s.imbalance).sum::<f64>() / late.len() as f64;
        assert!(avg < 1.5, "imbalance should stay controlled, got {avg}");
    }
}
