//! Sans-I/O engine of the asynchronous LB protocol.
//!
//! [`GossipEngine`] is a pure, deterministic state machine: it consumes
//! protocol messages ([`super::messages::LbMsg`]) and emits a list of
//! [`Command`]s for the embedding driver to interpret. It knows nothing
//! about channels, retries, clocks, recorders, or executors — those live
//! in the rank actor ([`super::LbRank`]) and in the drivers (the
//! discrete-event [`crate::sim::Simulator`], zero-latency under
//! [`crate::sim::NetworkModel::instant`], and the threaded
//! [`crate::parallel`] executor). The stage flow is:
//!
//! ```text
//! Setup      allreduce (Σ load, max load) → every rank knows ℓ_ave, ℓ_max
//! ┌─ per (trial, iteration) ──────────────────────────────────────────┐
//! │ Gossip     Algorithm 1, barrier-free; each message round is its    │
//! │            own TD epoch (round r of iteration j lives in epoch     │
//! │            1 + j·(k+1) + (r−1)), so a round's sends are a pure     │
//! │            function of the previous round's *complete* receipts    │
//! │ Transfer   Algorithm 2 locally; lazy-transfer messages inform      │
//! │            recipients of their new logical tasks (epoch … + k)     │
//! │ Evaluate   allreduce of proposed max load → identical I_proposed   │
//! │            at every rank → symmetric best-tracking, no coordinator │
//! └────────────────────────────────────────────────────────────────────┘
//! Commit     revert to best proposal; final owners fetch task data
//!            from home ranks (lazy migration); last TD epoch
//! Done
//! ```
//!
//! # Sync ↔ async equivalence by construction
//!
//! The engine's algorithmic kernels are the *same functions* the
//! analysis-mode driver ([`tempered_core::refine::refine`]) calls:
//! [`tempered_core::gossip::sample_fanout_targets`] for gossip targets
//! and [`tempered_core::transfer::transfer_stage`] for proposals, seeded
//! from the same `(label, rank, sub-epoch)` random streams and fed the
//! same canonicalized state (knowledge sorted by rank, resident tasks
//! sorted by id). An engine run on a fault-free driver therefore commits
//! the *exact* distribution `refine` computes — bit for bit — which the
//! `equivalence` integration test asserts for both TemperedLB and
//! GrapevineLB configurations.
//!
//! # Determinism under reordering
//!
//! Stepping gossip by TD epoch (instead of forwarding reactively on
//! receipt) plus canonicalizing order-sensitive state at every stage
//! boundary makes the final assignment a pure function of
//! `(input, config, seed)`, independent of message timing, interleaving,
//! or executor. This is what lets the chaos harness assert that a faulted
//! run converges to the *same* assignment as a fault-free one.

mod stages;

use super::config::LbProtocolConfig;
use super::messages::{LbMsg, TaskEntry};
use crate::census::{btree_set_bytes, vec_bytes, HeapCensus, Owner};
use crate::collective::{LoadSummary, Reduced, SurvivorTree};
use crate::membership::View;
use crate::termination::{EpochSends, TdMsg, TdOutcome, TerminationDetector};
use stages::StageState;
use std::collections::BTreeSet;
use tempered_core::ids::{RankId, TaskId};
use tempered_core::rng::RngFactory;
use tempered_obs::EventKind;

/// An effect requested by the engine.
///
/// The engine never performs I/O; each input (start, message) yields a
/// list of commands that the embedding rank actor ([`super::LbRank`])
/// interprets — framing onto the wire (best-effort, or sequenced and
/// retried when hardened), span/instant recording, stage-deadline
/// arming.
#[derive(Clone, Debug)]
pub enum Command {
    /// Transmit a protocol message to `to`.
    Send {
        /// Destination rank.
        to: RankId,
        /// The protocol payload.
        msg: LbMsg,
    },
    /// A stage or round boundary was crossed: open an observability span
    /// (closing any previous one) and re-arm stage liveness deadlines.
    OpenSpan(EventKind),
    /// Record an instantaneous observability event.
    Instant(EventKind),
    /// The protocol reached `Done` on this rank: close the open span and
    /// flush end-of-run metrics.
    Finished,
    /// This rank just learned that TD epoch `epoch` terminated, with
    /// `sent` basic messages in all. Every basic message of the epoch —
    /// and of every earlier epoch — has been processed, so what the
    /// driver keeps per epoch can go.
    Terminated {
        /// The terminated epoch.
        epoch: u64,
        /// Basic messages the epoch moved, job-wide.
        sent: u64,
        /// How the epoch sent its basic messages.
        sends: EpochSends,
        /// Termination-detection waves this rank launched for the
        /// epoch: nonzero only at the coordinator that declared it.
        waves: u64,
    },
    /// A basic message of `epoch` was just processed. Emitted only after
    /// [`GossipEngine::report_processing`]: the termination audit's
    /// ground truth of what is still pending.
    Processed {
        /// The processed message's epoch.
        epoch: u64,
    },
}

/// One `(trial, iteration, imbalance)` record, mirroring
/// `tempered_core::refine::IterationRecord` for the async path.
#[derive(Clone, Copy, Debug)]
pub struct AsyncIterationRecord {
    /// Trial index (0-based).
    pub trial: usize,
    /// Iteration index (1-based).
    pub iteration: usize,
    /// Globally agreed imbalance after this iteration's proposals.
    pub imbalance: f64,
    /// Transfers this rank accepted in the iteration.
    pub local_transfers: usize,
    /// Candidates this rank rejected in the iteration.
    pub local_rejected: usize,
}

/// The per-rank protocol engine: a pure, deterministic state machine.
#[derive(Debug)]
pub struct GossipEngine {
    me: RankId,
    num_ranks: usize,
    /// The protocol configuration this engine is sliced from: it reads
    /// the algorithmic knobs (`trials`, `iters`, `fanout`, `rounds`,
    /// `transfer`) and whether `partition` is set — the quorum gate on
    /// view changes — and nothing of the delivery stack.
    cfg: LbProtocolConfig,
    factory: RngFactory,
    /// This rank's seat in the collective tree over the view's
    /// survivors, with its partial reduces.
    coll: SurvivorTree,
    det: TerminationDetector,

    // Membership: the current view. Every TD epoch is offset by
    // `view.epoch_base()` and every collective slot is stamped with the
    // generation, so cross-view traffic is recognizably stale (see
    // `is_stale`) and restarts cannot mix state.
    view: View,

    // Task state.
    original: Vec<TaskEntry>,
    current: Vec<TaskEntry>,
    best: Vec<TaskEntry>,

    // Globals agreed in Setup.
    l_ave: f64,
    initial_imbalance: f64,
    best_imbalance: f64,

    // Iteration cursor and typed per-stage state.
    trial: usize,
    iter: usize, // 0-based internally
    state: StageState,

    // Epoch-stamped buffering of early messages.
    buffered: Vec<(RankId, LbMsg)>,
    /// Emit [`Command::Processed`] for every basic message dispatched.
    report_processing: bool,

    // Statistics.
    records: Vec<AsyncIterationRecord>,
    migrations_in: usize,
    migrations_out: usize,
    iter_transfers: usize,
    iter_rejected: usize,

    done: bool,
    /// Parked: this rank's live component lost quorum under a partition
    /// ([`LbProtocolConfig::partition`]). The engine is inert and read-only —
    /// original placement, no sends, no commits — until a heal readmits
    /// it (mid-run [`LbMsg::View`] flood or post-commit [`LbMsg::Heal`]
    /// offer) or the driver's park deadline finishes it as-is.
    parked: bool,
}

impl GossipEngine {
    /// Create the engine for `me` with its resident tasks.
    pub fn new(
        me: RankId,
        num_ranks: usize,
        tasks: Vec<(TaskId, f64)>,
        cfg: LbProtocolConfig,
        factory: RngFactory,
    ) -> Self {
        assert!(cfg.rounds >= 1, "gossip needs at least one round");
        let original: Vec<TaskEntry> = tasks
            .into_iter()
            .map(|(id, load)| TaskEntry { id, load, home: me })
            .collect();
        GossipEngine {
            me,
            num_ranks,
            factory,
            coll: SurvivorTree::new(me, num_ranks),
            det: TerminationDetector::new(me, num_ranks),
            view: View::new(num_ranks),
            current: original.clone(),
            best: original.clone(),
            original,
            l_ave: 0.0,
            initial_imbalance: 0.0,
            best_imbalance: f64::INFINITY,
            trial: 0,
            iter: 0,
            state: StageState::Setup,
            cfg,
            buffered: Vec::new(),
            report_processing: false,
            records: Vec::new(),
            migrations_in: 0,
            migrations_out: 0,
            iter_transfers: 0,
            iter_rejected: 0,
            done: false,
            parked: false,
        }
    }

    /// Open the span of the stage just entered, at the `(trial, iter)`
    /// cursor (both 0 in Setup, at start and after every view reset).
    fn open_stage_span(&self, out: &mut Vec<Command>) {
        out.push(Command::OpenSpan(EventKind::LbStage {
            stage: self.state.label(),
            trial: self.trial as u32,
            iter: self.iter as u32,
        }));
    }

    /// Kick off the protocol: contributes to the setup allreduce.
    pub fn start(&mut self) -> Vec<Command> {
        let mut out = Vec::new();
        self.enter_setup(&mut out);
        out
    }

    /// Open the setup span and contribute this rank's load to the setup
    /// allreduce — how the protocol starts, and restarts after a view
    /// change.
    fn enter_setup(&mut self, out: &mut Vec<Command>) {
        debug_assert!(matches!(self.state, StageState::Setup));
        self.open_stage_span(out);
        let summary = LoadSummary::of(self.my_load());
        let slot = self.setup_slot();
        self.contribute(out, slot, summary);
    }

    /// Declare `dead` ranks crashed — locally detected by the driver's
    /// failure detector. If the union grows this engine's view, the old
    /// view's epochs are fenced, the merged view is re-broadcast (a
    /// convergent flood), and the protocol restarts from Setup on the
    /// surviving ranks — or parks, if [`LbProtocolConfig::partition`] is set and
    /// the survivors lost their majority. A finished engine keeps its
    /// committed result and ignores view changes.
    pub fn on_view(&mut self, dead: &BTreeSet<RankId>) -> Vec<Command> {
        let mut out = Vec::new();
        let base = self.view.base_gen();
        self.handle_view(&mut out, base, dead);
        out
    }

    /// Park without a view change of our own: the driver saw a View
    /// naming *this* rank dead — some component fenced us out and moved
    /// on (we were warm-restarted, or cut off before we could suspect
    /// anyone ourselves). Whatever our own view says, we are effectively
    /// on the wrong side of a partition: go inert read-only and let the
    /// knock/heal path decide re-admission. No-op once done or already
    /// parked.
    pub fn park_self(&mut self) -> Vec<Command> {
        let mut out = Vec::new();
        if !self.done && !self.parked {
            self.park(&mut out);
        }
        out
    }

    /// Feed one delivered protocol message (wire framing already
    /// stripped), appending the resulting effects to a caller-owned
    /// buffer so a hot driver reuses one allocation across messages.
    pub fn on_message(&mut self, out: &mut Vec<Command>, from: RankId, msg: LbMsg) {
        self.receive(out, from, msg);
    }

    /// Abandon the protocol (driver-detected delivery failure: retry
    /// budget exhausted or stage deadline missed). Before commit the rank
    /// reverts to its input tasks — the only assignment it can adopt
    /// without coordination. At commit the globally-agreed best is kept:
    /// the logical assignment was already fixed by the evaluation
    /// allreduce, and reverting unilaterally would desynchronize it.
    /// Returns the label of the stage that was abandoned.
    pub fn abort(&mut self) -> &'static str {
        let label = self.state.label();
        if !self.done {
            if !matches!(self.state, StageState::Commit | StageState::Done) {
                self.current = self.original.clone();
            }
            self.state = StageState::Done;
            self.done = true;
        }
        label
    }

    /// From now on, report every basic message this engine processes as a
    /// [`Command::Processed`] — for an audited run, which checks each
    /// termination against what is still unprocessed.
    pub fn report_processing(&mut self) {
        self.report_processing = true;
    }

    // ---- accessors -------------------------------------------------------

    /// Whether this rank is parked (quorum-less under a partition).
    /// Remains `true` on a rank that finished read-only via the park
    /// deadline, for end-of-run accounting; cleared by a heal.
    pub fn is_parked(&self) -> bool {
        self.parked
    }

    /// The park deadline passed with no heal: finish read-only on the
    /// original placement. Safe unconditionally — a quorum-less
    /// component never committed anything this rank could disagree with,
    /// and the majority (if any) committed without reference to this
    /// rank's tasks.
    pub fn finish_parked(&mut self) -> Vec<Command> {
        let mut out = Vec::new();
        if self.done || !self.parked {
            return out;
        }
        self.state = StageState::Done;
        self.done = true;
        out.push(Command::Instant(EventKind::Marker("park_deadline")));
        out.push(Command::Finished);
        out
    }

    /// The engine's current membership view.
    pub fn view(&self) -> &View {
        &self.view
    }

    /// This rank's final task set `(id, load, home)` after the protocol.
    pub fn final_tasks(&self) -> &[TaskEntry] {
        &self.current
    }

    /// Per-iteration records (symmetrically identical across ranks except
    /// for the local transfer counters).
    pub fn records(&self) -> &[AsyncIterationRecord] {
        &self.records
    }

    /// Initial imbalance (valid after Setup).
    pub fn initial_imbalance(&self) -> f64 {
        self.initial_imbalance
    }

    /// Best imbalance seen (valid after the run).
    pub fn best_imbalance(&self) -> f64 {
        self.best_imbalance
    }

    /// Tasks this rank fetched at commit (real migrations in).
    pub fn migrations_in(&self) -> usize {
        self.migrations_in
    }

    /// Tasks fetched *from* this rank at commit (real migrations out).
    pub fn migrations_out(&self) -> usize {
        self.migrations_out
    }

    /// Count this engine's heap bytes into `census`, by owner, counting
    /// capacity.
    pub(crate) fn heap_census(&self, census: &mut HeapCensus) {
        if let StageState::Gossip(gs) = &self.state {
            census.add(Owner::Knowledge, gs.knowledge.heap_bytes());
        }
        census.add(
            Owner::Tasks,
            vec_bytes(&self.original) + vec_bytes(&self.current) + vec_bytes(&self.best),
        );
        census.add(Owner::Buffered, vec_bytes(&self.buffered));
        for (_, msg) in &self.buffered {
            msg.heap_census(census);
        }
        census.add(Owner::Records, vec_bytes(&self.records));
        census.add(Owner::Collective, self.coll.heap_bytes());
        census.add(
            Owner::Membership,
            btree_set_bytes(self.view.dead()) + self.det.heap_bytes(),
        );
    }

    fn my_load(&self) -> f64 {
        self.current.iter().map(|t| t.load).sum()
    }

    // ---- epoch numbering -------------------------------------------------
    //
    // Within a view, epoch `base` is reserved for setup, where `base` is
    // the view's epoch base (`generation × VIEW_EPOCH_STRIDE`; 0 for the
    // initial view). Each (trial, iteration) owns a contiguous block of
    // `rounds + 1` epochs above the base: one per gossip round plus one
    // for the proposal exchange. Commit takes the single epoch after the
    // last block. Early-exited gossip rounds leave their epoch numbers
    // unused — TD epochs need not be consecutive, only unique and
    // globally ordered. A view change moves the base past every epoch of
    // every older view, so stale traffic is recognizable by epoch alone.

    fn epoch_stride(&self) -> u64 {
        self.cfg.rounds as u64 + 1
    }

    fn iter_base(&self) -> u64 {
        (self.trial * self.cfg.iters + self.iter) as u64 * self.epoch_stride()
    }

    fn gossip_round_epoch(&self, round: u32) -> u64 {
        self.view.epoch_base() + 1 + self.iter_base() + (round as u64 - 1)
    }

    fn proposal_epoch(&self) -> u64 {
        self.view.epoch_base() + 1 + self.iter_base() + self.cfg.rounds as u64
    }

    fn commit_epoch(&self) -> u64 {
        self.view.epoch_base() + 1 + (self.cfg.trials * self.cfg.iters) as u64 * self.epoch_stride()
    }

    // Collective slots are stamped with the view generation in the high
    // 16 bits; the low 16 bits are the within-view slot (0 = setup,
    // `1 + trial·n_iters + iter` = that iteration's evaluation).

    fn view_slot(&self, local: u32) -> u32 {
        debug_assert!(local < 1 << 16, "per-view slot space is 16 bits");
        ((self.view.generation() as u32) << 16) | local
    }

    fn slot_generation(slot: u32) -> u64 {
        (slot >> 16) as u64
    }

    fn setup_slot(&self) -> u32 {
        self.view_slot(0)
    }

    fn eval_slot(&self) -> u32 {
        self.view_slot(1 + (self.trial * self.cfg.iters + self.iter) as u32)
    }

    /// The random sub-stream namespace for the current `(trial, iter)` —
    /// the same derivation `tempered_core::refine::refine` uses with
    /// invocation epoch 0 (callers namespace repeated LB invocations by
    /// deriving the factory itself), so gossip targets and CMF draws
    /// match the analysis mode draw for draw.
    fn sub_epoch(&self) -> u64 {
        (((self.trial as u64) << 10) | (self.iter as u64 + 1)).wrapping_mul(0x9E37_79B9)
    }

    // ---- canonicalization ------------------------------------------------

    /// Sort resident tasks by id. Proposals extend `current` in arrival
    /// order; sorting at stage boundaries makes load sums (FP!) and
    /// transfer-stage iteration order timing-independent.
    fn canonicalize_current(&mut self) {
        self.current.sort_by_key(|t| t.id);
    }

    // ---- send helpers ----------------------------------------------------

    fn send_basic(&mut self, out: &mut Vec<Command>, to: RankId, msg: LbMsg) {
        debug_assert!(msg.basic_epoch().is_some(), "basic send of control msg");
        // Counted once here; transport-layer retransmissions of the same
        // sequence number are invisible to termination detection.
        self.det.on_basic_send();
        out.push(Command::Send { to, msg });
    }

    fn send_ctrl(&mut self, out: &mut Vec<Command>, to: RankId, msg: LbMsg) {
        out.push(Command::Send { to, msg });
    }

    fn emit_td(&mut self, out: &mut Vec<Command>, outcome: TdOutcome) {
        for s in outcome.sends {
            self.send_ctrl(out, s.to, LbMsg::Td(s.msg));
        }
        if let Some(epoch) = outcome.terminated_epoch {
            self.on_epoch_terminated(out, epoch, outcome.terminated_sent);
        }
    }

    // ---- collectives -----------------------------------------------------
    //
    // `collective::SurvivorTree` owns the survivor numbering, the slots
    // and the parent-or-root decision; what stays here is wrapping its
    // answers in `LbMsg`s. In the initial view (nobody dead) live index
    // == rank id, so the clean path is bit-identical to the pre-fault
    // protocol.

    fn contribute(&mut self, out: &mut Vec<Command>, slot: u32, value: LoadSummary) {
        let done = self.coll.contribute(self.view.dead(), slot, value);
        self.reduce_step(out, slot, done);
    }

    fn reduce_step(&mut self, out: &mut Vec<Command>, slot: u32, done: Option<Reduced>) {
        match done {
            Some(Reduced::Up(parent, summary)) => {
                self.send_ctrl(out, parent, LbMsg::ReduceUp { slot, summary });
            }
            Some(Reduced::Root(summary)) => {
                self.broadcast_down(out, slot, summary);
                self.on_reduce_result(out, slot, summary);
            }
            None => {}
        }
    }

    fn broadcast_down(&self, out: &mut Vec<Command>, slot: u32, summary: LoadSummary) {
        let children = self.coll.children(self.view.dead());
        out.extend(children.map(|to| Command::Send {
            to,
            msg: LbMsg::ReduceDown { slot, summary },
        }));
    }

    fn on_reduce_result(&mut self, out: &mut Vec<Command>, slot: u32, summary: LoadSummary) {
        if slot == self.setup_slot() {
            // Setup complete: everyone now knows ℓ_ave / ℓ_max.
            debug_assert!(matches!(self.state, StageState::Setup));
            self.l_ave = summary.average();
            self.initial_imbalance = summary.imbalance();
            self.best_imbalance = summary.imbalance();
            self.enter_gossip(out);
        } else {
            debug_assert!(matches!(self.state, StageState::Evaluate));
            debug_assert_eq!(slot, self.eval_slot());
            let imbalance = summary.imbalance();
            self.records.push(AsyncIterationRecord {
                trial: self.trial,
                iteration: self.iter + 1,
                imbalance,
                local_transfers: self.iter_transfers,
                local_rejected: self.iter_rejected,
            });
            if imbalance < self.best_imbalance {
                self.best_imbalance = imbalance;
                self.best = self.current.clone();
            }
            self.advance_iteration(out);
        }
    }

    // ---- buffering and view fencing ----------------------------------------

    fn should_buffer(&self, msg: &LbMsg) -> bool {
        match msg {
            LbMsg::Td(TdMsg::Token { epoch, .. }) | LbMsg::Td(TdMsg::Terminated { epoch, .. }) => {
                *epoch > self.det.epoch()
            }
            // A collective stamped with a future view generation: a peer
            // already restarted on news we have not merged yet. Hold it
            // until the View flood reaches us and we restart too.
            LbMsg::ReduceUp { slot, .. } | LbMsg::ReduceDown { slot, .. } => {
                Self::slot_generation(*slot) > self.view.generation()
            }
            other => match other.basic_epoch() {
                Some(e) => e > self.det.epoch(),
                None => false,
            },
        }
    }

    /// Whether `msg` was produced under a view older than ours. Stale
    /// traffic is dropped un-dispatched *and un-counted*: the dead view's
    /// TD epoch was abandoned wholesale at restart, so its books need not
    /// balance.
    fn is_stale(&self, msg: &LbMsg) -> bool {
        match msg {
            LbMsg::ReduceUp { slot, .. } | LbMsg::ReduceDown { slot, .. } => {
                Self::slot_generation(*slot) < self.view.generation()
            }
            LbMsg::Td(TdMsg::Token { epoch, .. }) | LbMsg::Td(TdMsg::Terminated { epoch, .. }) => {
                *epoch < self.view.epoch_base()
            }
            LbMsg::View { .. } => false,
            other => match other.basic_epoch() {
                Some(e) => e < self.view.epoch_base(),
                None => false,
            },
        }
    }

    fn replay_buffered(&mut self, out: &mut Vec<Command>) {
        // Messages for the (new) current epoch become deliverable; later
        // ones stay. Replay preserves arrival order.
        let mut deliverable = Vec::new();
        let mut keep = Vec::new();
        for (from, msg) in std::mem::take(&mut self.buffered) {
            if self.should_buffer(&msg) {
                keep.push((from, msg));
            } else {
                deliverable.push((from, msg));
            }
        }
        self.buffered = keep;
        for (from, msg) in deliverable {
            // Dispatching one message can trigger a view change that
            // stales the rest of the batch.
            if self.is_stale(&msg) {
                continue;
            }
            self.dispatch(out, from, msg);
        }
    }

    /// Deliver a protocol message that passed the delivery layer (dedup
    /// already done); drop it if it predates our view, buffer it if it
    /// belongs to a future epoch.
    fn receive(&mut self, out: &mut Vec<Command>, from: RankId, msg: LbMsg) {
        if self.is_stale(&msg) {
            return;
        }
        // A parked engine is inert: only membership traffic (a healed
        // view flood or a post-commit heal offer) can wake it. Anything
        // else — including buffered replays on the way in — is protocol
        // progress a quorum-less component must not make.
        if self.parked && !matches!(msg, LbMsg::View { .. } | LbMsg::Heal { .. }) {
            return;
        }
        if self.should_buffer(&msg) {
            self.buffered.push((from, msg));
            return;
        }
        self.dispatch(out, from, msg);
    }

    fn dispatch(&mut self, out: &mut Vec<Command>, from: RankId, msg: LbMsg) {
        if self.report_processing {
            if let Some(epoch) = msg.basic_epoch() {
                out.push(Command::Processed { epoch });
            }
        }
        match msg {
            LbMsg::ReduceUp { slot, summary } => {
                let done = self.coll.on_child(self.view.dead(), slot, from, summary);
                self.reduce_step(out, slot, done);
            }
            LbMsg::ReduceDown { slot, summary } => {
                self.broadcast_down(out, slot, summary);
                self.on_reduce_result(out, slot, summary);
            }
            LbMsg::Gossip {
                epoch,
                round,
                pairs,
            } => {
                debug_assert_eq!(epoch, self.det.epoch(), "buffering must align epochs");
                self.on_gossip(round, pairs);
            }
            LbMsg::Propose { epoch, tasks } => {
                debug_assert_eq!(epoch, self.det.epoch());
                self.on_propose(tasks);
            }
            // No rank sends one and `LbWire::admissible` refuses it off
            // the wire; the variant survives only as a codec tag.
            LbMsg::ProposeReply { .. } => {}
            LbMsg::Fetch { epoch, tasks } => {
                debug_assert_eq!(epoch, self.det.epoch());
                self.on_fetch(out, from, tasks);
            }
            LbMsg::TaskData { epoch, tasks } => {
                debug_assert_eq!(epoch, self.det.epoch());
                self.on_task_data(tasks);
            }
            LbMsg::View { base, dead } => {
                let dead: BTreeSet<RankId> = dead.iter().copied().collect();
                self.handle_view(out, base, &dead);
            }
            LbMsg::Knock => self.handle_knock(out, from),
            LbMsg::Heal { base, dead } => {
                let dead: BTreeSet<RankId> = dead.iter().copied().collect();
                self.handle_heal_offer(out, base, &dead);
            }
            LbMsg::Td(td) => {
                let outcome = self.det.handle(td);
                self.emit_td(out, outcome);
            }
        }
    }

    // ---- view changes ------------------------------------------------------

    fn handle_view(&mut self, out: &mut Vec<Command>, base: u64, dead: &BTreeSet<RankId>) {
        if self.done || !self.view.merge_full(base, dead) {
            // A finished engine keeps its committed result; a stale or
            // already-merged view is not news. Either way the flood has
            // nothing left to spread from here.
            return;
        }
        debug_assert!(
            self.view.is_live(self.me),
            "the driver must intercept a view declaring this rank dead"
        );
        // Convergent flood: re-broadcast the *merged* view to every
        // other rank — including the dead ones, so a warm-restarted
        // zombie learns the survivors moved on without it and stands
        // down (the driver handles a rank that hears of its own death).
        // One shared summary for the whole flood: cloning the frame per
        // target bumps a refcount instead of copying the dead list.
        let merged: std::sync::Arc<[RankId]> = self.view.dead().iter().copied().collect();
        let vbase = self.view.base_gen();
        for r in (0..self.num_ranks).map(RankId::from) {
            if r != self.me {
                self.send_ctrl(
                    out,
                    r,
                    LbMsg::View {
                        base: vbase,
                        dead: merged.clone(),
                    },
                );
            }
        }
        out.push(Command::Instant(EventKind::ViewChange {
            generation: self.view.generation() as u32,
            dead: self.view.dead().len() as u32,
        }));
        if self.cfg.partition.is_some() && !self.view.has_quorum() {
            self.park(out);
        } else {
            self.restart(out);
        }
    }

    /// A [`LbMsg::Knock`] arrived from a rank this view has fenced out:
    /// the path to it demonstrably works again, so the partition healed.
    /// Only the live component's *leader* initiates the heal, and only
    /// while it holds quorum — two concurrent healers could otherwise
    /// mint competing heal fences for overlapping views. The leader is
    /// the lowest rank live when the protocol last (re)started, which is
    /// the rank coordinating its termination detection: a post-commit
    /// heal readmits ranks into the view without restarting, and the
    /// leader of the component that committed keeps answering.
    fn handle_knock(&mut self, out: &mut Vec<Command>, from: RankId) {
        if self.cfg.partition.is_none()
            || self.parked
            || self.view.is_live(from)
            || !self.view.has_quorum()
            || self.det.coordinator() != self.me
        {
            return;
        }
        let rejoined: BTreeSet<RankId> = [from].into_iter().collect();
        self.handle_heal(out, &rejoined);
    }

    /// Leader-side partition heal: re-admit `rejoined` ranks. Bumps the
    /// view's heal fence so the healed generation dominates every
    /// generation either side ever used, then either floods the healed
    /// view and restarts on the grown live set (mid-run) or sends the
    /// rejoined ranks a [`LbMsg::Heal`] offer so they stand down in
    /// agreement with the committed result (post-commit).
    fn handle_heal(&mut self, out: &mut Vec<Command>, rejoined: &BTreeSet<RankId>) {
        let news: BTreeSet<RankId> = rejoined
            .iter()
            .copied()
            .filter(|r| !self.view.is_live(*r))
            .collect();
        if news.is_empty() {
            return;
        }
        self.view.heal(&news);
        let base = self.view.base_gen();
        let dead: std::sync::Arc<[RankId]> = self.view.dead().iter().copied().collect();
        out.push(Command::Instant(EventKind::Healed {
            generation: self.view.generation() as u32,
        }));
        if self.done {
            // Post-commit heal: the committed result stands (the run
            // never referenced the fenced ranks' tasks). Hand each
            // rejoined rank the healed view so it finishes read-only in
            // agreement instead of waiting out its park deadline.
            for r in &news {
                self.send_ctrl(
                    out,
                    *r,
                    LbMsg::Heal {
                        base,
                        dead: dead.clone(),
                    },
                );
            }
            return;
        }
        // Mid-run heal: flood the healed view — its base dominates every
        // generation either component ever used, so it wins merge_full
        // everywhere, un-parks the rejoined side, and restarts every
        // live rank from Setup on the re-merged component.
        for r in (0..self.num_ranks).map(RankId::from) {
            if r != self.me {
                self.send_ctrl(
                    out,
                    r,
                    LbMsg::View {
                        base,
                        dead: dead.clone(),
                    },
                );
            }
        }
        self.restart(out);
    }

    /// A post-commit [`LbMsg::Heal`] offer from the majority's leader:
    /// adopt the healed view and finish read-only on the original
    /// placement — consistent with the majority's commit, which never
    /// proposed tasks to or from this fenced rank.
    fn handle_heal_offer(&mut self, out: &mut Vec<Command>, base: u64, dead: &BTreeSet<RankId>) {
        if self.done || !self.parked || !self.view.merge_full(base, dead) {
            return;
        }
        debug_assert!(
            self.view.is_live(self.me),
            "a heal offer must readmit its target"
        );
        self.parked = false;
        self.current = self.original.clone();
        self.best = self.original.clone();
        self.state = StageState::Done;
        self.done = true;
        out.push(Command::Instant(EventKind::Healed {
            generation: self.view.generation() as u32,
        }));
        out.push(Command::Finished);
    }

    /// Park: the live component lost quorum. Fence epochs exactly like a
    /// restart — so stale cross-partition traffic drops — but go inert
    /// on the *original* placement instead of re-entering the protocol:
    /// a minority must neither gossip, nor transfer, nor commit
    /// (split-brain prevention). The driver arms the park deadline and
    /// knocks at the fenced side until a heal or the deadline resolves
    /// the wait.
    fn park(&mut self, out: &mut Vec<Command>) {
        self.parked = true;
        self.reset_for_view();
        out.push(Command::Instant(EventKind::Parked {
            generation: self.view.generation() as u32,
        }));
    }

    /// Restart the protocol from Setup on the surviving quorum. The old
    /// view's in-flight epoch is abandoned (its TD books never balance —
    /// the corpse can't reply — so it is discarded, not drained) and all
    /// of its traffic is fenced behind the new epoch base.
    fn restart(&mut self, out: &mut Vec<Command>) {
        // A heal that regained quorum un-parks the engine.
        self.parked = false;
        self.reset_for_view();

        // Re-enter Setup on the survivor set, then replay anything we
        // buffered from peers that restarted before us.
        self.enter_setup(out);
        self.replay_buffered(out);
    }

    /// What a park and a restart share: fence everything the old view
    /// had in flight and put the algorithm back at Setup on this rank's
    /// original residency.
    fn reset_for_view(&mut self) {
        // The dense collective tree over the survivors' indices, free of
        // the old view's partial collectives.
        self.coll.rebuild(self.view.num_live());

        // Fence termination detection: tell the detector who died (its
        // relaunch sends target the old, now-abandoned epoch — discard
        // them), then hard-reset it to the new view's epoch base.
        let _ = self.det.set_dead(self.view.dead());
        self.det
            .start_epoch(self.view.epoch_base(), EpochSends::Replies);

        // Drop any buffered message that the new view fences out.
        let buffered = std::mem::take(&mut self.buffered);
        self.buffered = buffered
            .into_iter()
            .filter(|(_, m)| !self.is_stale(m))
            .collect();

        // Tasks homed on a dead rank are gone: the LB layer does not
        // restore a corpse's tasks. The protocol just re-balances
        // whatever the survivors still hold.
        self.current = self.original.clone();
        self.best = self.original.clone();
        self.l_ave = 0.0;
        self.initial_imbalance = 0.0;
        self.best_imbalance = f64::INFINITY;
        self.trial = 0;
        self.iter = 0;
        self.records.clear();
        self.iter_transfers = 0;
        self.iter_rejected = 0;
        self.migrations_in = 0;
        self.migrations_out = 0;
        self.state = StageState::Setup;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine(cfg: LbProtocolConfig, tasks: Vec<(TaskId, f64)>, num_ranks: usize) -> GossipEngine {
        GossipEngine::new(RankId::new(0), num_ranks, tasks, cfg, RngFactory::new(1))
    }

    fn deliver(e: &mut GossipEngine, from: u32, msg: LbMsg) -> Vec<Command> {
        let mut out = Vec::new();
        e.on_message(&mut out, RankId::new(from), msg);
        out
    }

    #[test]
    fn epoch_numbering_is_disjoint_and_ordered() {
        let cfg = LbProtocolConfig {
            trials: 3,
            iters: 4,
            rounds: 5,
            ..LbProtocolConfig::default()
        };
        let mut e = engine(cfg, vec![], 2);
        let mut seen = Vec::new();
        for trial in 0..3 {
            for iter in 0..4 {
                e.trial = trial;
                e.iter = iter;
                for round in 1..=5u32 {
                    seen.push(e.gossip_round_epoch(round));
                }
                seen.push(e.proposal_epoch());
            }
        }
        seen.push(e.commit_epoch());
        let mut sorted = seen.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), seen.len(), "epochs must be unique");
        assert_eq!(*seen.first().unwrap(), 1, "epoch 0 is reserved for setup");
        assert!(seen.windows(2).all(|w| w[0] < w[1]), "epochs must ascend");
        assert_eq!(*seen.last().unwrap(), e.commit_epoch());
    }

    #[test]
    fn eval_slots_are_unique_per_iteration() {
        let cfg = LbProtocolConfig {
            trials: 2,
            iters: 3,
            ..LbProtocolConfig::default()
        };
        let mut e = engine(cfg, vec![], 2);
        let mut slots = Vec::new();
        for trial in 0..2 {
            for iter in 0..3 {
                e.trial = trial;
                e.iter = iter;
                slots.push(e.eval_slot());
            }
        }
        let mut sorted = slots.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 6);
        assert!(!slots.contains(&0), "slot 0 is the setup allreduce");
    }

    #[test]
    fn sub_epoch_matches_the_analysis_mode_derivation() {
        // refine() namespaces (trial, 1-based iter) the same way with
        // invocation epoch 0; the two derivations must never drift.
        let mut e = engine(LbProtocolConfig::default(), vec![], 2);
        for (trial, iter) in [(0usize, 0usize), (0, 7), (3, 2)] {
            e.trial = trial;
            e.iter = iter;
            let refine_style =
                (((trial as u64) << 10) | (iter as u64 + 1)).wrapping_mul(0x9E37_79B9);
            assert_eq!(e.sub_epoch(), refine_style);
        }
    }

    #[test]
    fn an_unread_last_round_gossip_is_counted_but_not_merged() {
        // Returning before `on_basic_recv` would not fail an assertion
        // anywhere: the epoch's books would never balance and the run
        // would hang. Pin the order here.
        let gossip_at = |l_ave: f64| {
            let cfg = LbProtocolConfig {
                rounds: 1,
                ..LbProtocolConfig::default()
            };
            let mut e = engine(cfg, vec![(TaskId::new(1), 1.0)], 4);
            e.l_ave = l_ave;
            e.enter_gossip(&mut Vec::new());
            let (epoch, before) = (e.gossip_round_epoch(1), e.det.counters());
            let cmds = deliver(
                &mut e,
                2,
                LbMsg::Gossip {
                    epoch,
                    round: 1,
                    pairs: vec![(RankId::new(2), 0.25)].into(),
                },
            );
            assert!(cmds.is_empty(), "a gossip receipt emits nothing");
            assert_eq!(e.det.counters(), (before.0, before.1 + 1), "counted");
            match &e.state {
                StageState::Gossip(gs) => (gs.reads, gs.knowledge.len()),
                s => panic!("left gossip for {}", s.label()),
            }
        };
        // At the average: neither a seed nor a reader — nothing merged.
        assert_eq!(gossip_at(1.0), (false, 0));
        // Overloaded: the transfer stage will read the set.
        assert_eq!(gossip_at(0.5), (true, 1));
    }

    /// The gossip payloads among `cmds`, as `(round, pairs)`.
    fn gossip_sent(cmds: &[Command]) -> Vec<(u32, Vec<(u32, f64)>)> {
        cmds.iter()
            .filter_map(|c| match c {
                Command::Send {
                    msg: LbMsg::Gossip { round, pairs, .. },
                    ..
                } => Some((
                    *round,
                    pairs.iter().map(|&(r, l)| (r.as_u32(), l)).collect(),
                )),
                _ => None,
            })
            .collect()
    }

    /// The gossip stage's set: `(len, heap bytes)`.
    fn held(e: &GossipEngine) -> (usize, usize) {
        match &e.state {
            StageState::Gossip(gs) => (gs.knowledge.len(), gs.knowledge.heap_bytes()),
            s => panic!("left gossip for {}", s.label()),
        }
    }

    /// Rank 0 of 16 holding `load` in four equal tasks, in gossip round
    /// 1 of `rounds` at average `l_ave`, with the round-1 commands it
    /// emitted.
    fn gossiping(rounds: usize, load: f64, l_ave: f64) -> (GossipEngine, Vec<Command>) {
        let cfg = LbProtocolConfig {
            rounds,
            ..LbProtocolConfig::default()
        };
        let tasks = (1..=4).map(|t| (TaskId::new(t), load / 4.0)).collect();
        let mut e = engine(cfg, tasks, 16);
        e.l_ave = l_ave;
        let mut out = Vec::new();
        e.enter_gossip(&mut out);
        (e, out)
    }

    fn gossip(e: &mut GossipEngine, from: u32, round: u32, pairs: &[(u32, f64)]) {
        let epoch = e.gossip_round_epoch(round);
        let pairs: Vec<(RankId, f64)> = pairs.iter().map(|&(r, l)| (RankId::new(r), l)).collect();
        let cmds = deliver(
            e,
            from,
            LbMsg::Gossip {
                epoch,
                round,
                pairs: pairs.into(),
            },
        );
        assert!(cmds.is_empty());
    }

    /// Close gossip round `round` with `sent` messages moved, as the
    /// termination broadcast does.
    fn close_round(e: &mut GossipEngine, round: u32, sent: u64) -> Vec<Command> {
        let mut out = Vec::new();
        let epoch = e.gossip_round_epoch(round);
        e.on_epoch_terminated(&mut out, epoch, sent);
        out
    }

    #[test]
    fn a_rank_that_will_not_transfer_drops_its_set_after_its_last_send() {
        // Underloaded: a round-1 seed that will not transfer.
        let (mut e, _) = gossiping(2, 1.0, 2.0);
        gossip(&mut e, 2, 1, &[(2, 0.25), (3, 0.5)]);
        assert_eq!(held(&e).0, 3, "rounds before the last merge");
        let cmds = close_round(&mut e, 1, 1);
        let sent = gossip_sent(&cmds);
        assert!(!sent.is_empty(), "its set grew, so it sends in round 2");
        for (round, pairs) in sent {
            assert_eq!(round, 2);
            assert_eq!(pairs, vec![(0, 1.0), (2, 0.25), (3, 0.5)], "the whole set");
        }
        assert_eq!(held(&e), (0, 0), "released once the last sends are built");
        gossip(&mut e, 5, 2, &[(5, 0.5)]);
        assert_eq!(held(&e), (0, 0), "and not refilled by the last round");
    }

    #[test]
    fn a_rank_that_will_transfer_keeps_its_set_until_it_does() {
        // Overloaded: it reads its set in the transfer stage.
        let (mut e, _) = gossiping(2, 4.0, 1.0);
        gossip(&mut e, 2, 1, &[(2, 0.25)]);
        let cmds = close_round(&mut e, 1, 1);
        assert_eq!(
            gossip_sent(&cmds).len(),
            e.cfg.fanout,
            "it forwards in round 2"
        );
        assert_eq!(held(&e).0, 1, "kept through the last round's entry");
        gossip(&mut e, 3, 2, &[(3, 0.5)]);
        assert_eq!(held(&e).0, 2, "and merges the last round");
        let cmds = close_round(&mut e, 2, 1);
        assert!(matches!(e.state, StageState::Transfer));
        let proposed: Vec<RankId> = cmds
            .iter()
            .filter_map(|c| match c {
                Command::Send {
                    to,
                    msg: LbMsg::Propose { .. },
                } => Some(*to),
                _ => None,
            })
            .collect();
        assert!(
            !proposed.is_empty() && proposed.iter().all(|r| [2, 3].contains(&r.as_u32())),
            "the transfer stage read the set: proposals to {proposed:?}"
        );
    }

    #[test]
    fn with_one_round_a_seed_sends_and_releases_on_entry() {
        let (e, cmds) = gossiping(1, 1.0, 2.0);
        let sent = gossip_sent(&cmds);
        assert_eq!(sent.len(), e.cfg.fanout);
        assert!(sent
            .iter()
            .all(|(round, pairs)| *round == 1 && pairs == &[(0, 1.0)]));
        assert_eq!(held(&e), (0, 0));
    }

    #[test]
    fn abort_before_commit_reverts_to_input() {
        let tasks = vec![(TaskId::new(1), 1.0), (TaskId::new(2), 2.0)];
        let mut e = engine(LbProtocolConfig::default(), tasks, 4);
        e.state = StageState::Transfer;
        e.current.clear(); // pretend everything was proposed away
        let label = e.abort();
        assert_eq!(label, "proposals");
        assert!(e.done);
        assert_eq!(e.final_tasks().len(), 2);
        assert_eq!(e.state.label(), "done");
    }

    #[test]
    fn abort_at_commit_keeps_the_agreed_best() {
        let tasks = vec![(TaskId::new(1), 1.0)];
        let mut e = engine(LbProtocolConfig::default(), tasks, 4);
        e.state = StageState::Commit;
        e.current = vec![TaskEntry {
            id: TaskId::new(9),
            load: 3.0,
            home: RankId::new(2),
        }];
        let label = e.abort();
        assert_eq!(label, "commit");
        assert_eq!(e.final_tasks().len(), 1);
        assert_eq!(e.final_tasks()[0].id, TaskId::new(9));
    }

    #[test]
    fn view_change_floods_and_restarts_from_setup() {
        let mut e = engine(LbProtocolConfig::default(), vec![(TaskId::new(1), 1.0)], 4);
        let _ = e.start();
        let dead: BTreeSet<RankId> = [RankId::new(2)].into_iter().collect();
        let cmds = e.on_view(&dead);
        assert_eq!(e.view().generation(), 1);
        assert_eq!(e.state.label(), "setup", "restart re-enters setup");
        assert!(
            e.gossip_round_epoch(1) >= crate::membership::VIEW_EPOCH_STRIDE,
            "new view's epochs are fenced past every old epoch"
        );
        // The flood reaches every other rank — the corpse included, so a
        // warm-restarted zombie learns to stand down.
        let view_sends = cmds
            .iter()
            .filter(|c| {
                matches!(
                    c,
                    Command::Send {
                        msg: LbMsg::View { .. },
                        ..
                    }
                )
            })
            .count();
        assert_eq!(view_sends, 3);
        // Merging the same set again is not news: no second flood.
        assert!(e.on_view(&dead).is_empty());
    }

    #[test]
    fn stale_traffic_from_an_old_view_is_dropped() {
        let mut e = engine(LbProtocolConfig::default(), vec![(TaskId::new(1), 1.0)], 4);
        let _ = e.start();
        let dead: BTreeSet<RankId> = [RankId::new(2)].into_iter().collect();
        let _ = e.on_view(&dead);
        // Old-view basic traffic (epochs below the new base) is ignored.
        let cmds = deliver(
            &mut e,
            1,
            LbMsg::Gossip {
                epoch: 1,
                round: 1,
                pairs: vec![].into(),
            },
        );
        assert!(cmds.is_empty());
        // Old-view collectives (generation 0 slots) are ignored too.
        let cmds = deliver(
            &mut e,
            1,
            LbMsg::ReduceUp {
                slot: 0,
                summary: LoadSummary::of(1.0),
            },
        );
        assert!(cmds.is_empty());
        assert_eq!(
            e.state.label(),
            "setup",
            "stale traffic must not advance state"
        );
    }

    #[test]
    fn finished_engine_keeps_its_result_across_view_changes() {
        let mut e = engine(LbProtocolConfig::default(), vec![(TaskId::new(1), 1.0)], 4);
        e.state = StageState::Done;
        e.done = true;
        let dead: BTreeSet<RankId> = [RankId::new(3)].into_iter().collect();
        let cmds = e.on_view(&dead);
        assert!(cmds.is_empty(), "a done engine neither floods nor restarts");
        assert_eq!(e.view().generation(), 0);
        assert_eq!(e.final_tasks().len(), 1);
    }

    #[test]
    fn the_leader_of_a_committed_component_keeps_answering_knocks() {
        // Rank 1 leads {1, 2, 3} of 5 after ranks 0 and 4 were fenced
        // out, and has committed. Healing rank 0 post-commit puts a
        // lower rank back into the view without restarting anything, so
        // the component is still led from here: rank 4's knock must be
        // answered too, not left to a rank that never ran this protocol.
        let cfg =
            LbProtocolConfig::default().partition_tolerant(crate::lb::PartitionConfig::default());
        let mut e = GossipEngine::new(RankId::new(1), 5, vec![], cfg, RngFactory::new(1));
        let _ = e.start();
        let dead: BTreeSet<RankId> = [RankId::new(0), RankId::new(4)].into_iter().collect();
        let _ = e.on_view(&dead);
        e.state = StageState::Done;
        e.done = true;
        let heal_offers = |cmds: Vec<Command>| {
            let offer = |c: &&Command| {
                matches!(
                    c,
                    Command::Send {
                        msg: LbMsg::Heal { .. },
                        ..
                    }
                )
            };
            cmds.iter().filter(offer).count()
        };
        assert_eq!(heal_offers(deliver(&mut e, 0, LbMsg::Knock)), 1);
        assert!(e.view().is_live(RankId::new(0)));
        assert_eq!(heal_offers(deliver(&mut e, 4, LbMsg::Knock)), 1);
    }
}
