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
//!   PIC message type (protocol composition via [`Ctx::detached`]); when
//!   it commits, gaining ranks fetch the *real particle payloads* from
//!   the previous owners and notify mesh homes of the ownership change.
//!   LB traffic is tagged with an invocation *generation* so that stale
//!   timers or retransmissions from a previous balancing pass can never
//!   leak into a later one, and only LB traffic is eligible for fault
//!   injection (the PIC exchange itself is not hardened). A rank whose
//!   embedded balancer degrades (see [`LbRank`]) keeps its pre-LB colors
//!   — the degraded round is effectively aborted — and records the step
//!   in [`PicRank::degraded_lb_steps`].
//! * **Checkpoint/recovery for crash-stop failures**: with a non-empty
//!   [`StepCrash`] plan, every step ends with a TD-fenced *checkpoint
//!   epoch* in which each rank ships its owned colors and resident
//!   particles to a buddy chosen by rendezvous hashing over the live
//!   ranks. A crash is step-aligned: the rank completes step `s−1`
//!   (including its checkpoint) and is gone at the step-`s` boundary.
//!   Survivors then run a *recovery epoch* before the exchange: the
//!   corpse's buddy scatters its checkpointed colors over the survivors
//!   (rendezvous placement), adopters re-announce ownership, colors
//!   whose mesh home died are re-homed to a deterministic live
//!   replacement, and the termination detector and stats tree regenerate
//!   over the survivor set. Because the checkpoint epoch is a
//!   termination-detected barrier at exactly the crash boundary, the
//!   restored state is *exact* and the application finishes with the
//!   full object set. With an empty crash plan none of this machinery
//!   runs and the protocol is bit-identical to the crash-free build.

use crate::mesh::{ColorId, Mesh};
use crate::particles::ParticleBuffer;
use crate::scenario::{BdotScenario, CostModel};
use rand::rngs::SmallRng;
use std::collections::{BTreeSet, HashMap};
use tempered_core::ids::{RankId, TaskId};
use tempered_core::rng::{derive_seed, RngFactory};
use tempered_obs::{EventKind, Recorder};
use tempered_runtime::collective::{LoadSummary, Reduced, SurvivorTree};
use tempered_runtime::fault::FaultPlan;
use tempered_runtime::lb::{LbProtocolConfig, LbRank, LbWire};
use tempered_runtime::membership::{live_index, nth_live};
use tempered_runtime::sim::{Ctx, NetworkModel, Protocol, SimReport, Simulator};
use tempered_runtime::termination::{TdMsg, TerminationDetector};

/// One particle on the wire: `(x, y, vx, vy)`.
pub type WireParticle = [f64; 4];

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
    /// End-of-step checkpoint: full object state shipped to the sender's
    /// buddy rank (crash-tolerant runs only).
    Checkpoint {
        /// Checkpoint TD epoch.
        epoch: u64,
        /// Step the state covers (the step that just completed).
        step: usize,
        /// Colors owned at the end of the step (empty colors matter:
        /// ownership must be restorable even where no particle lives).
        colors: Vec<ColorId>,
        /// All resident particles.
        particles: Vec<WireParticle>,
    },
    /// Recovery: one of a crashed rank's checkpointed colors handed to
    /// its new rendezvous-placed owner.
    RestoreColor {
        /// Recovery TD epoch.
        epoch: u64,
        /// The crashed rank the state came from.
        dead: RankId,
        /// The color being re-owned.
        color: ColorId,
        /// The color's checkpointed particles.
        particles: Vec<WireParticle>,
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
            | PicMsg::MigrateParticles { epoch, .. }
            | PicMsg::Checkpoint { epoch, .. }
            | PicMsg::RestoreColor { epoch, .. } => Some(*epoch),
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
            PicMsg::Checkpoint {
                colors, particles, ..
            } => 32 + 8 * colors.len() + 32 * particles.len(),
            PicMsg::RestoreColor { particles, .. } => 32 + 32 * particles.len(),
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

/// A step-aligned crash-stop failure: `rank` completes step `step - 1`
/// (including its end-of-step checkpoint) and is gone at the `step`
/// boundary, before doing any work for `step`. A crash at step 0 kills
/// the rank before it ever runs; its initial (empty) state is restored
/// from the deterministic initial decomposition instead of a checkpoint.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StepCrash {
    /// The rank that dies.
    pub rank: RankId,
    /// The first step it does not participate in.
    pub step: usize,
}

impl StepCrash {
    /// Crash `rank` at the `step` boundary.
    pub fn new(rank: RankId, step: usize) -> Self {
        StepCrash { rank, step }
    }
}

/// Rendezvous-hash domains (distinct arbitrary constants so the three
/// placement decisions draw independent score streams).
const HOME_TAG: u64 = 0x484F_4D45;
const PLACE_TAG: u64 = 0x504C_4143;
const BUDDY_TAG: u64 = 0x4255_4444;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum PicStage {
    Recover,
    Exchange,
    Stats,
    Lb,
    Migration,
    Checkpoint,
    Done,
}

/// The per-rank PIC actor.
#[derive(Debug)]
pub struct PicRank {
    me: RankId,
    cfg: DistPicConfig,
    factory: RngFactory,
    /// This rank's seat in the stats tree over the survivors of `dead`.
    coll: SurvivorTree,
    det: TerminationDetector,

    /// Step-aligned crash schedule (global config, identical on every
    /// rank). Non-empty ⇒ the per-step checkpoint epoch runs.
    crash_plan: Vec<StepCrash>,
    /// Ranks that have crashed so far. The survivors are never listed:
    /// they are `0..P` minus this set, numbered by
    /// `membership::{live_index, nth_live}`.
    dead: BTreeSet<RankId>,
    /// This rank has crashed (it is done but holds no state).
    crashed: bool,
    /// Latest checkpoint held *for* each rank that buddies with us:
    /// `(step it covers, owned colors, resident particles)`.
    ckpt_store: HashMap<RankId, (usize, Vec<ColorId>, Vec<WireParticle>)>,

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
    /// Particles this rank adopted from crashed ranks' checkpoints.
    pub particles_restored: usize,

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
            crash_plan: Vec::new(),
            dead: BTreeSet::new(),
            crashed: false,
            ckpt_store: HashMap::new(),
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
            particles_restored: 0,
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
            m.counter_add("pic.particles_restored", self.particles_restored as u64);
        });
    }

    /// Install the step-aligned crash schedule. A non-empty plan turns
    /// on the per-step checkpoint epoch; an empty plan leaves the
    /// protocol bit-identical to a build without this machinery.
    pub fn set_crash_plan(&mut self, crashes: &[StepCrash]) {
        self.crash_plan = crashes.to_vec();
    }

    /// Whether this rank crashed during the run.
    pub fn crashed(&self) -> bool {
        self.crashed
    }

    /// Colors currently owned by this rank.
    pub fn owned_colors(&self) -> &[ColorId] {
        &self.owned
    }

    /// Particles currently resident.
    pub fn num_particles(&self) -> usize {
        self.particles.len()
    }

    fn ckpt_enabled(&self) -> bool {
        !self.crash_plan.is_empty()
    }

    // Epoch numbering: without checkpoints each step has the original
    // two epochs (exchange, migration); with them a step has four slots
    // (recover, exchange, migration, checkpoint). The enablement flag is
    // a run-wide constant, so every rank agrees on the numbering.

    fn recover_epoch(&self) -> u64 {
        debug_assert!(self.ckpt_enabled());
        4 * self.step as u64 + 1
    }

    fn exchange_epoch(&self) -> u64 {
        if self.ckpt_enabled() {
            4 * self.step as u64 + 2
        } else {
            2 * self.step as u64 + 1
        }
    }

    fn migration_epoch(&self) -> u64 {
        if self.ckpt_enabled() {
            4 * self.step as u64 + 3
        } else {
            2 * self.step as u64 + 2
        }
    }

    fn checkpoint_epoch(&self) -> u64 {
        debug_assert!(self.ckpt_enabled());
        4 * self.step as u64 + 4
    }

    // ---- membership and placement -----------------------------------------

    /// The survivors of `dead` among `0..num_ranks`, ascending.
    fn survivors(num_ranks: usize, dead: &BTreeSet<RankId>) -> impl Iterator<Item = RankId> + '_ {
        (0..num_ranks)
            .map(RankId::from)
            .filter(move |r| !dead.contains(r))
    }

    /// Highest-scoring rank of `live` (ascending) for `key` in the hash
    /// domain `tag`.
    fn rendezvous_among(tag: u64, key: u64, live: impl Iterator<Item = RankId>) -> RankId {
        live.max_by_key(|r| derive_seed(tag, &[key, r.as_u32() as u64]))
            .expect("placement needs at least one live rank")
    }

    /// The rank acting as `color`'s location manager among the survivors
    /// of `dead`: its static mesh home while that rank is alive, else a
    /// deterministic rendezvous-hashed replacement. Stable in the sense
    /// that it only moves when the current holder dies.
    fn home_among(mesh: &Mesh, dead: &BTreeSet<RankId>, color: ColorId) -> RankId {
        let home = mesh.home_rank(color);
        if !dead.contains(&home) {
            return home;
        }
        let live = Self::survivors(mesh.num_ranks(), dead);
        Self::rendezvous_among(HOME_TAG, color.0, live)
    }

    fn effective_home(&self, color: ColorId) -> RankId {
        Self::home_among(&self.cfg.scenario.mesh, &self.dead, color)
    }

    /// `owner`'s checkpoint buddy among the survivors of `dead`.
    fn buddy_among(num_ranks: usize, dead: &BTreeSet<RankId>, owner: RankId) -> RankId {
        let others = Self::survivors(num_ranks, dead).filter(|&r| r != owner);
        Self::rendezvous_among(BUDDY_TAG, owner.as_u32() as u64, others)
    }

    fn num_ranks(&self) -> usize {
        self.cfg.scenario.mesh.num_ranks()
    }

    fn num_live(&self) -> usize {
        self.num_ranks() - self.dead.len()
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

    fn begin_step(&mut self, ctx: &mut Ctx<'_, PicMsg>) {
        let deaths: Vec<RankId> = self
            .crash_plan
            .iter()
            .filter(|c| c.step == self.step)
            .map(|c| c.rank)
            .collect();
        if deaths.is_empty() {
            self.enter_exchange(ctx);
            return;
        }
        if deaths.contains(&self.me) {
            self.crash(ctx);
            return;
        }
        // Checkpoint holders were chosen against the live set the
        // checkpoints were written under — before this step's deaths.
        let holders: Vec<(RankId, RankId)> = deaths
            .iter()
            .map(|&d| (d, Self::buddy_among(self.num_ranks(), &self.dead, d)))
            .collect();
        let old_dead = self.dead.clone();
        for &d in &deaths {
            let fresh = self.dead.insert(d);
            debug_assert!(fresh, "a rank can only crash once");
        }
        self.coll.rebuild(self.num_live());
        self.enter_recover(ctx, &deaths, &holders, &old_dead);
    }

    /// Crash-stop: this rank is gone. It stays `done` so the executor
    /// can finish, but holds no state and ignores all further traffic.
    fn crash(&mut self, ctx: &mut Ctx<'_, PicMsg>) {
        self.span_close(ctx.now());
        self.crashed = true;
        self.done = true;
        self.stage = PicStage::Done;
        self.particles = ParticleBuffer::default();
        self.owned.clear();
        self.owner_table.clear();
        self.ckpt_store.clear();
    }

    /// Survivor-side recovery at a crash boundary, run as its own
    /// TD-fenced epoch so every restore and re-homing message lands
    /// before the step's exchange starts.
    fn enter_recover(
        &mut self,
        ctx: &mut Ctx<'_, PicMsg>,
        deaths: &[RankId],
        holders: &[(RankId, RankId)],
        old_dead: &BTreeSet<RankId>,
    ) {
        self.stage = PicStage::Recover;
        let step = self.step as u64;
        if self.rec.is_enabled() {
            self.rec.instant(
                self.me.as_u32(),
                ctx.now(),
                EventKind::ViewChange {
                    generation: self.dead.len() as u32,
                    dead: self.dead.len() as u32,
                },
            );
        }
        self.span_open(
            ctx.now(),
            EventKind::AppPhase {
                phase: "recover",
                step,
            },
        );
        let epoch = self.recover_epoch();
        self.det.start_epoch(epoch);
        let mesh = self.cfg.scenario.mesh;

        // Re-announce owned colors whose location manager died: the
        // replacement home starts with an empty table and must learn the
        // current owner of every color it now manages.
        for c in self.owned.clone() {
            let old_home = Self::home_among(&mesh, old_dead, c);
            let new_home = Self::home_among(&mesh, &self.dead, c);
            if old_home == new_home {
                continue;
            }
            if new_home == self.me {
                self.owner_table.insert(c, self.me);
            } else {
                self.send_basic(
                    ctx,
                    new_home,
                    PicMsg::OwnerUpdate {
                        epoch,
                        color: c,
                        owner: self.me,
                    },
                );
            }
        }

        // Scatter each corpse's checkpointed state over the survivors.
        for &(d, holder) in holders {
            assert!(
                !deaths.contains(&holder),
                "rank {d:?} and its checkpoint buddy {holder:?} died at the same step; \
                 R=1 replication cannot recover the lost objects"
            );
            if holder != self.me {
                continue;
            }
            let (colors, particles) = match self.ckpt_store.remove(&d) {
                Some((ck_step, colors, particles)) => {
                    debug_assert_eq!(
                        ck_step + 1,
                        self.step,
                        "the buddy must hold the crash-boundary checkpoint"
                    );
                    (colors, particles)
                }
                None => {
                    // Dead before its first checkpoint: restore the
                    // deterministic initial decomposition (no particles
                    // exist before step 0 runs).
                    assert_eq!(self.step, 0, "missing checkpoint for rank {d:?}");
                    let colors = mesh.colors().filter(|&c| mesh.home_rank(c) == d).collect();
                    (colors, Vec::new())
                }
            };
            let mut by_color: HashMap<ColorId, Vec<WireParticle>> =
                colors.iter().map(|&c| (c, Vec::new())).collect();
            for p in particles {
                by_color
                    .get_mut(&mesh.color_at(p[0], p[1]))
                    .expect("checkpointed particles live in checkpointed colors")
                    .push(p);
            }
            let mut batches: Vec<(ColorId, Vec<WireParticle>)> = by_color.into_iter().collect();
            batches.sort_by_key(|(c, _)| *c);
            for (color, particles) in batches {
                let live = Self::survivors(mesh.num_ranks(), &self.dead);
                let owner = Self::rendezvous_among(PLACE_TAG, color.0, live);
                if owner == self.me {
                    self.adopt_color(ctx, d, color, particles);
                } else {
                    self.send_basic(
                        ctx,
                        owner,
                        PicMsg::RestoreColor {
                            epoch,
                            dead: d,
                            color,
                            particles,
                        },
                    );
                }
            }
        }

        // Regenerate the termination wave over the survivor set; the new
        // coordinator re-kicks the epoch we just started.
        let out = self.det.set_dead(&self.dead);
        self.emit_td(ctx, out);
        self.replay_buffered(ctx);
    }

    /// Take over one of a crashed rank's colors (with its checkpointed
    /// particles) and tell the color's location manager.
    fn adopt_color(
        &mut self,
        ctx: &mut Ctx<'_, PicMsg>,
        dead: RankId,
        color: ColorId,
        particles: Vec<WireParticle>,
    ) {
        debug_assert!(!self.owns(color));
        self.owned.push(color);
        self.owned.sort_unstable();
        self.particles_restored += particles.len();
        if self.rec.is_enabled() {
            self.rec.instant(
                self.me.as_u32(),
                ctx.now(),
                EventKind::CheckpointRestored {
                    from: dead.as_u32(),
                    objects: particles.len() as u64,
                },
            );
        }
        for p in particles {
            self.particles.push(p[0], p[1], p[2], p[3]);
        }
        let home = self.effective_home(color);
        if home == self.me {
            self.owner_table.insert(color, self.me);
        } else {
            let epoch = self.det.epoch();
            self.send_basic(
                ctx,
                home,
                PicMsg::OwnerUpdate {
                    epoch,
                    color,
                    owner: self.me,
                },
            );
        }
    }

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
        let epoch = self.exchange_epoch();
        self.det.start_epoch(epoch);

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
            let home = self.effective_home(color);
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
        debug_assert_eq!(self.effective_home(color), self.me);
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
            PicStage::Recover => {
                debug_assert_eq!(epoch, self.recover_epoch());
                self.enter_exchange(ctx);
            }
            PicStage::Exchange => {
                debug_assert_eq!(epoch, self.exchange_epoch());
                self.enter_stats(ctx);
            }
            PicStage::Migration => {
                debug_assert_eq!(epoch, self.migration_epoch());
                self.finish_step(ctx);
            }
            PicStage::Checkpoint => {
                debug_assert_eq!(epoch, self.checkpoint_epoch());
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
            .contribute(&self.dead, slot, LoadSummary::of(load));
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
        for child in self.coll.children(&self.dead) {
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
            self.finish_step(ctx);
        }
    }

    /// Step epilogue: checkpoint when crash tolerance is on, otherwise
    /// advance immediately (the original behavior, byte for byte).
    fn finish_step(&mut self, ctx: &mut Ctx<'_, PicMsg>) {
        if self.ckpt_enabled() {
            self.enter_checkpoint(ctx);
        } else {
            self.advance_step(ctx);
        }
    }

    /// Ship this rank's full object state to its buddy inside a
    /// TD-fenced epoch, so the checkpoint is durably delivered before
    /// any crash at the upcoming step boundary can need it.
    fn enter_checkpoint(&mut self, ctx: &mut Ctx<'_, PicMsg>) {
        self.stage = PicStage::Checkpoint;
        let step = self.step;
        self.span_open(
            ctx.now(),
            EventKind::AppPhase {
                phase: "checkpoint",
                step: step as u64,
            },
        );
        let epoch = self.checkpoint_epoch();
        self.det.start_epoch(epoch);
        if self.num_live() > 1 {
            let buddy = Self::buddy_among(self.num_ranks(), &self.dead, self.me);
            let colors = self.owned.clone();
            let particles: Vec<WireParticle> = (0..self.particles.len())
                .map(|i| {
                    [
                        self.particles.x[i],
                        self.particles.y[i],
                        self.particles.vx[i],
                        self.particles.vy[i],
                    ]
                })
                .collect();
            if self.rec.is_enabled() {
                self.rec.instant(
                    self.me.as_u32(),
                    ctx.now(),
                    EventKind::CheckpointSaved {
                        step: step as u64,
                        objects: particles.len() as u64,
                    },
                );
            }
            self.send_basic(
                ctx,
                buddy,
                PicMsg::Checkpoint {
                    epoch,
                    step,
                    colors,
                    particles,
                },
            );
        }
        let kick = self.det.kick();
        self.emit_td(ctx, kick);
        self.replay_buffered(ctx);
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
        // The balancer runs over the *survivors*, addressed by live
        // index; with nobody dead this is the identity mapping.
        let me = self.coll.live_index(&self.dead);
        let mut lb = LbRank::new(me, self.num_live(), tasks, self.cfg.lb, sub);
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
        let mut outbox: Vec<(RankId, LbWire, usize)> = Vec::new();
        let timers;
        {
            let me = self.coll.live_index(&self.dead);
            let mut lb_ctx = Ctx::detached(me, ctx.now(), &mut outbox);
            f(lb, &mut lb_ctx);
            timers = lb_ctx.take_timers();
        }
        let gen = self.lb_gen;
        for (to, wire, bytes) in outbox {
            // LB targets are live indices; translate to real rank ids.
            let to = nth_live(&self.dead, to.as_usize());
            ctx.send(to, PicMsg::Lb { gen, wire }, bytes);
        }
        for (delay, wire) in timers {
            ctx.schedule(delay, PicMsg::Lb { gen, wire });
        }
    }

    fn on_lb_msg(&mut self, ctx: &mut Ctx<'_, PicMsg>, from: RankId, wire: LbWire) {
        debug_assert!(
            !self.dead.contains(&from),
            "LB traffic only flows among live ranks"
        );
        let lb_from = RankId::from(live_index(&self.dead, from));
        let mut lb = self.lb.take().expect("LB messages only while LB exists");
        self.pump_lb(
            ctx,
            |lb, lb_ctx| lb.on_message(lb_ctx, lb_from, wire),
            &mut lb,
        );
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
        let epoch = self.migration_epoch();
        self.det.start_epoch(epoch);

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
        // Task homes are in the balancer's live-index space.
        let my_lb = self.coll.live_index(&self.dead);
        let mut by_prev: HashMap<RankId, Vec<ColorId>> = HashMap::new();
        for t in &final_tasks {
            if t.home != my_lb {
                by_prev
                    .entry(nth_live(&self.dead, t.home.as_usize()))
                    .or_default()
                    .push(ColorId::from_task(t.id));
            }
        }
        let mut requests: Vec<(RankId, Vec<ColorId>)> = by_prev.into_iter().collect();
        requests.sort_by_key(|(r, _)| *r);
        for (prev, colors) in requests {
            self.colors_gained += colors.len();
            for &c in &colors {
                let home = self.effective_home(c);
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
        self.begin_step(ctx);
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
                debug_assert_eq!(self.effective_home(color), self.me);
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
            PicMsg::Checkpoint {
                epoch,
                step,
                colors,
                particles,
            } => {
                debug_assert_eq!(epoch, self.det.epoch());
                self.det.on_basic_recv();
                self.ckpt_store.insert(from, (step, colors, particles));
            }
            PicMsg::RestoreColor {
                epoch,
                dead,
                color,
                particles,
            } => {
                debug_assert_eq!(epoch, self.det.epoch());
                self.det.on_basic_recv();
                self.adopt_color(ctx, dead, color, particles);
            }
            PicMsg::StatsUp { slot, summary } => {
                let done = self.coll.on_child(&self.dead, slot, from, summary);
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

    /// Only the embedded balancer's traffic is hardened against loss, so
    /// only it is eligible for fault injection; the PIC exchange, stats,
    /// and PIC-level TD traffic assume the reliable transport of the
    /// host runtime (as the paper's vt/MPI stack does).
    fn faultable(msg: &PicMsg) -> bool {
        matches!(msg, PicMsg::Lb { .. })
    }

    /// Only the embedded LB's frames carry a checksum, so only they can
    /// arrive *detectably* damaged: the wrapped frame is re-delivered by
    /// the balancer's reliable layer after the receiver drops it. For
    /// everything else corruption degenerates to loss (the host
    /// runtime's transport is assumed to checksum below this layer).
    fn corrupted(msg: &PicMsg) -> Option<PicMsg> {
        match msg {
            PicMsg::Lb { gen, wire } => Some(PicMsg::Lb {
                gen: *gen,
                wire: wire.damaged(),
            }),
            _ => None,
        }
    }

    fn on_start(&mut self, ctx: &mut Ctx<'_, PicMsg>) {
        self.begin_step(ctx);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, PicMsg>, from: RankId, msg: PicMsg) {
        if self.crashed {
            return;
        }
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
    /// Always 0 on a fault-free run.
    pub degraded_lb_rounds: usize,
    /// Executor report.
    pub report: SimReport,
    /// Final per-rank particle counts (zero for crashed ranks).
    pub final_particles: Vec<usize>,
    /// Ranks that crashed during the run.
    pub crashed_ranks: Vec<RankId>,
    /// Particles recovered from crashed ranks' checkpoints.
    pub particles_restored: usize,
}

/// Run the distributed PIC application end to end on the event-driven
/// executor.
pub fn run_distributed_pic(cfg: DistPicConfig, model: NetworkModel, seed: u64) -> DistPicResult {
    run_distributed_pic_with_crashes(cfg, model, seed, &[])
}

/// Run the distributed PIC application with step-aligned crash-stop
/// failures. Every step ends with a checkpoint epoch (full object state
/// to a rendezvous-hashed buddy); at each crash boundary the survivors
/// restore the corpse's objects from its latest checkpoint and the run
/// completes with the *full* particle population on the survivor set.
/// An empty `crashes` slice is exactly [`run_distributed_pic`].
pub fn run_distributed_pic_with_crashes(
    cfg: DistPicConfig,
    model: NetworkModel,
    seed: u64,
    crashes: &[StepCrash],
) -> DistPicResult {
    run_distributed_pic_crash_traced(
        cfg,
        model,
        seed,
        FaultPlan::none(),
        crashes,
        Recorder::disabled(),
    )
}

/// The fully general entry point: network faults, step-aligned crashes,
/// and tracing together. Faults apply to embedded-LB traffic only (see
/// [`Protocol::faultable`] on [`PicRank`]); a balancing round that cannot
/// complete within its retry budget is abandoned by the affected ranks,
/// which keep their pre-round colors, and the step is counted in
/// `degraded_lb_rounds`. With an enabled [`Recorder`] — attached to every
/// rank, the embedded balancers, and the simulator — the trace is
/// bit-reproducible for a given `(cfg, model, seed, plan)` because all
/// events are stamped with virtual time.
pub fn run_distributed_pic_crash_traced(
    cfg: DistPicConfig,
    model: NetworkModel,
    seed: u64,
    plan: FaultPlan,
    crashes: &[StepCrash],
    recorder: Recorder,
) -> DistPicResult {
    let num_ranks = cfg.scenario.mesh.num_ranks();
    let mut crashing = BTreeSet::new();
    for c in crashes {
        assert!(
            c.rank.as_usize() < num_ranks,
            "crash plan names rank {:?} but the mesh has {num_ranks} ranks",
            c.rank
        );
        assert!(crashing.insert(c.rank), "rank {:?} crashes twice", c.rank);
    }
    assert!(
        crashing.len() < num_ranks,
        "at least one rank must survive the crash plan"
    );

    let factory = RngFactory::new(seed);
    let ranks: Vec<PicRank> = (0..num_ranks)
        .map(|r| {
            let mut rank = PicRank::new(RankId::from(r), cfg, factory);
            rank.set_recorder(recorder.clone());
            rank.set_crash_plan(crashes);
            rank
        })
        .collect();
    let mut sim = Simulator::new(ranks, model, &factory);
    sim.set_recorder(recorder);
    sim.set_fault_plan(plan);
    let report = sim.run();
    assert!(report.completed, "PIC protocol must run to completion");
    let ranks = sim.into_ranks();
    let mut degraded_steps: Vec<usize> = ranks
        .iter()
        .flat_map(|r| r.degraded_lb_steps.iter().copied())
        .collect();
    degraded_steps.sort_unstable();
    degraded_steps.dedup();
    let reporter = ranks
        .iter()
        .find(|r| !r.crashed())
        .expect("at least one rank survives");
    DistPicResult {
        stats: reporter.stats.clone(),
        colors_migrated: ranks.iter().map(|r| r.colors_gained).sum(),
        degraded_lb_rounds: degraded_steps.len(),
        final_particles: ranks.iter().map(|r| r.num_particles()).collect(),
        crashed_ranks: ranks.iter().filter(|r| r.crashed()).map(|r| r.me).collect(),
        particles_restored: ranks.iter().map(|r| r.particles_restored).sum(),
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

    #[test]
    fn no_lb_run_matches_global_simulation_exactly() {
        // Same seed, no balancing: the distributed run must reproduce the
        // global simulation's particle population and per-step imbalance
        // bit-for-bit (replicated injection + identical kernels).
        let steps = 12;
        let cfg = small_cfg(steps, usize::MAX);
        let out = run_distributed_pic(cfg, NetworkModel::default(), 42);

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
        let out = run_distributed_pic(cfg, NetworkModel::default(), 7);
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
        let balanced = run_distributed_pic(small_cfg(steps, 4), NetworkModel::default(), 3);
        let unbalanced =
            run_distributed_pic(small_cfg(steps, usize::MAX), NetworkModel::default(), 3);
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
        let a = run_distributed_pic(cfg, NetworkModel::default(), 11);
        let b = run_distributed_pic(cfg, NetworkModel::default(), 11);
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
        let out = run_distributed_pic(cfg, NetworkModel::default(), 7);
        assert_eq!(out.stats.len(), steps);
        assert!(out.colors_migrated > 0, "grapevine LB should move colors");

        let again = run_distributed_pic(cfg, NetworkModel::default(), 7);
        assert_eq!(out.final_particles, again.final_particles);
        assert_eq!(out.report.events_delivered, again.report.events_delivered);

        let mut global = EmpireSim::new(cfg.scenario, cfg.cost, 7);
        for _ in 0..steps {
            global.step();
        }
        let total: usize = out.final_particles.iter().sum();
        assert_eq!(total, global.num_particles());
    }

    /// Total particles alive in the global (single-process) simulation
    /// after `steps` steps — the ground truth for conservation checks.
    fn global_population(cfg: &DistPicConfig, seed: u64, steps: usize) -> usize {
        let mut global = EmpireSim::new(cfg.scenario, cfg.cost, seed);
        for _ in 0..steps {
            global.step();
        }
        global.num_particles()
    }

    #[test]
    fn crashed_rank_objects_are_restored_and_conserved() {
        let steps = 16;
        let cfg = small_cfg(steps, 4);
        let crashes = [StepCrash::new(RankId::new(3), 6)];
        let out = run_distributed_pic_with_crashes(cfg, NetworkModel::default(), 7, &crashes);

        assert_eq!(out.stats.len(), steps);
        assert_eq!(out.crashed_ranks, vec![RankId::new(3)]);
        assert_eq!(out.final_particles[3], 0, "corpses hold nothing");
        assert!(out.particles_restored > 0, "the crash boundary had objects");

        // Nothing is lost: the survivor set carries the full population,
        // and the per-step global particle counts match the crash-free
        // single-process simulation exactly (replicated injection plus
        // exact checkpoint restore).
        let total: usize = out.final_particles.iter().sum();
        assert_eq!(total, global_population(&cfg, 7, steps));
        let mut global = EmpireSim::new(cfg.scenario, cfg.cost, 7);
        for s in 0..steps {
            let phase = global.step();
            assert_eq!(
                out.stats[s].num_particles, phase.num_particles,
                "step {s}: particle counts diverge"
            );
        }
    }

    #[test]
    fn coordinator_crash_is_survivable() {
        // Rank 0 coordinates the termination detector and roots the
        // stats tree; killing it exercises both regenerations.
        let steps = 14;
        let cfg = small_cfg(steps, 4);
        let crashes = [StepCrash::new(RankId::new(0), 5)];
        let out = run_distributed_pic_with_crashes(cfg, NetworkModel::default(), 11, &crashes);
        assert_eq!(out.stats.len(), steps);
        assert_eq!(out.final_particles[0], 0);
        let total: usize = out.final_particles.iter().sum();
        assert_eq!(total, global_population(&cfg, 11, steps));
    }

    #[test]
    fn staggered_crashes_with_lb_in_between() {
        // Two boundaries, 12.5% of ranks dead, an LB pass at step 4 and
        // another at step 10 between/after the deaths: ownership chains
        // (LB handoff, recovery placement, home remapping) must compose.
        let steps = 14;
        let cfg = small_cfg(steps, 4);
        let crashes = [
            StepCrash::new(RankId::new(5), 3),
            StepCrash::new(RankId::new(9), 8),
        ];
        let out = run_distributed_pic_with_crashes(cfg, NetworkModel::default(), 13, &crashes);
        assert_eq!(out.crashed_ranks.len(), 2);
        assert_eq!(out.final_particles[5], 0);
        assert_eq!(out.final_particles[9], 0);
        let total: usize = out.final_particles.iter().sum();
        assert_eq!(total, global_population(&cfg, 13, steps));
        assert!(out.colors_migrated > 0, "LB still moves work");
        // Pinned: numbering the survivors from the dead set
        // (`live_index`/`nth_live`) must pick the rendezvous winners and
        // the stats tree a sorted survivor list picks.
        assert_eq!(
            out.final_particles,
            [85, 88, 67, 92, 88, 0, 75, 90, 86, 0, 85, 76, 64, 87, 70, 67]
        );
        assert_eq!((out.colors_migrated, out.particles_restored), (44, 68));
        assert_eq!(out.report.events_delivered, 4730);
        let digest = out.stats.iter().fold(0u64, |h, s| {
            let words = [
                s.imbalance.to_bits(),
                s.max_rank_load.to_bits(),
                s.num_particles as u64,
            ];
            words
                .iter()
                .fold(h, |h, w| (h ^ w).wrapping_mul(0x0100_0000_01B3))
        });
        assert_eq!(digest, 0x69f3_7608_e893_2203, "per-step stats moved");
    }

    #[test]
    fn crash_recovery_is_deterministic() {
        let cfg = small_cfg(12, 4);
        let crashes = [StepCrash::new(RankId::new(2), 6)];
        let a = run_distributed_pic_with_crashes(cfg, NetworkModel::default(), 23, &crashes);
        let b = run_distributed_pic_with_crashes(cfg, NetworkModel::default(), 23, &crashes);
        assert_eq!(a.report.events_delivered, b.report.events_delivered);
        assert_eq!(a.final_particles, b.final_particles);
        assert_eq!(a.particles_restored, b.particles_restored);
        for (x, y) in a.stats.iter().zip(b.stats.iter()) {
            assert_eq!(x.imbalance.to_bits(), y.imbalance.to_bits());
        }
    }

    #[test]
    fn empty_crash_plan_is_bit_identical_to_the_plain_run() {
        let cfg = small_cfg(12, 4);
        let plain = run_distributed_pic(cfg, NetworkModel::default(), 17);
        let tolerant = run_distributed_pic_with_crashes(cfg, NetworkModel::default(), 17, &[]);
        assert_eq!(
            plain.report.events_delivered,
            tolerant.report.events_delivered
        );
        assert_eq!(plain.final_particles, tolerant.final_particles);
        for (x, y) in plain.stats.iter().zip(tolerant.stats.iter()) {
            assert_eq!(x.imbalance.to_bits(), y.imbalance.to_bits());
        }
        assert!(tolerant.crashed_ranks.is_empty());
        assert_eq!(tolerant.particles_restored, 0);
    }

    #[test]
    fn crash_at_step_zero_restores_the_initial_decomposition() {
        // The rank dies before ever running; its (empty) initial colors
        // are re-owned from the deterministic initial decomposition and
        // injection into them continues on the survivors.
        let steps = 10;
        let cfg = small_cfg(steps, 4);
        let crashes = [StepCrash::new(RankId::new(7), 0)];
        let out = run_distributed_pic_with_crashes(cfg, NetworkModel::default(), 29, &crashes);
        assert_eq!(out.final_particles[7], 0);
        let total: usize = out.final_particles.iter().sum();
        assert_eq!(total, global_population(&cfg, 29, steps));
    }

    #[test]
    fn repeated_lb_invocations_work() {
        // LB at steps 4, 10, 20 (period 10): consecutive balancing passes
        // must hand ownership chains correctly (home-based routing).
        let cfg = small_cfg(22, 4);
        let out = run_distributed_pic(cfg, NetworkModel::default(), 19);
        assert_eq!(out.stats.len(), 22);
        assert!(out.colors_migrated > 0);
        let late = &out.stats[12..];
        let avg = late.iter().map(|s| s.imbalance).sum::<f64>() / late.len() as f64;
        assert!(avg < 1.5, "imbalance should stay controlled, got {avg}");
    }
}
