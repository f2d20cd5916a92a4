//! Stage transitions of the [`GossipEngine`]: the typed per-stage state
//! machine (Setup → Gossip → Transfer → Evaluate → Commit) and the
//! handlers that move between stages as termination-detection epochs
//! close.
//!
//! Each stage that carries data owns it in its [`StageState`] variant —
//! gossip knowledge and the iteration's gossip RNG live only while the
//! gossip stage is active and are *moved* into the transfer stage, so a
//! stale round's state cannot leak across iterations by construction.

use super::super::messages::{LbMsg, TaskEntry};
use super::{Command, GossipEngine};
use crate::collective::LoadSummary;
use crate::membership::View;
use crate::termination::EpochSends;
use rand::rngs::SmallRng;
use std::collections::HashMap;
use tempered_core::gossip::{sample_fanout_targets, TargetExclusions};
use tempered_core::ids::{RankId, TaskId};
use tempered_core::knowledge::Knowledge;
use tempered_core::load::Load;
use tempered_core::task::Task;
use tempered_core::transfer::transfer_stage;
use tempered_obs::EventKind;

/// Typed per-stage state. Variants that need working data own it.
#[derive(Debug)]
pub(super) enum StageState {
    /// Waiting for the setup allreduce; no working state yet.
    Setup,
    /// Gossip rounds in progress.
    Gossip(GossipState),
    /// Proposal exchange in progress (knowledge was consumed by
    /// [`transfer_stage`] at entry).
    Transfer,
    /// Waiting for the evaluation allreduce.
    Evaluate,
    /// Lazy migration in progress.
    Commit,
    /// Finished (normally or by abort).
    Done,
}

impl StageState {
    /// The stage's name in spans, degrade events and panics. The transfer
    /// stage keeps its historical label `proposals` for trace
    /// compatibility.
    pub(super) fn label(&self) -> &'static str {
        match self {
            StageState::Setup => "setup",
            StageState::Gossip(_) => "gossip",
            StageState::Transfer => "proposals",
            StageState::Evaluate => "evaluate",
            StageState::Commit => "commit",
            StageState::Done => "done",
        }
    }
}

/// Working state of the gossip stage for one `(trial, iteration)`.
///
/// The knowledge set has two readers. A *sender* reads it at round
/// entry (rounds 1..=k: its payload and its target exclusions), so what
/// rounds 1..k−1 deliver is merged by everyone. After the last round
/// nobody sends, and the only reader left is [`transfer_stage`], which
/// runs on overloaded ranks alone (`reads`).
///
/// The set is released as soon as its last reader is done with it:
/// - a rank that `reads` keeps it until `run_transfer` returns, where
///   `gs` is dropped;
/// - a rank that does not read it releases it on entry to round k, once
///   that round's sends (payload, targets, exclusions) are built — with
///   round 1 as the last round, a seed sends and releases in one step;
/// - a last-round payload arriving at a rank that will not transfer
///   would be merged into a set nobody reads, so it is not merged (see
///   `on_gossip`).
#[derive(Debug)]
pub(super) struct GossipState {
    /// Accumulated `S^p` + `LOAD^p()` (Algorithm 1).
    pub(super) knowledge: Knowledge,
    /// Whether this rank will run the transfer loop on the set:
    /// `my_load > ℓ_ave·h`. Decided once at stage entry — `current`
    /// changes only in the transfer and commit epochs, and a `Propose`
    /// that arrives early is buffered.
    pub(super) reads: bool,
    /// Current round, 1-based.
    pub(super) round: u32,
    /// Whether any message in the current round taught us a new
    /// underloaded rank (Algorithm 1's forwarding condition, evaluated
    /// per round instead of per message).
    pub(super) grew: bool,
    /// The iteration's gossip stream — the *same* `(b"gossip", rank,
    /// sub-epoch)` stream the analysis-mode driver hands to
    /// [`sample_fanout_targets`], advanced across rounds exactly as the
    /// sync loop advances it, so target draws match draw for draw.
    pub(super) rng: SmallRng,
}

/// [`TargetExclusions`] restricted to the membership view's survivors:
/// dead ranks count as already-known, so the fanout draw resamples over
/// live ranks only. In the initial view (nobody dead) this is exactly
/// the plain [`Knowledge`] exclusion set, so the draw sequence — and
/// with it the sync ↔ async equivalence — is bit-identical on the clean
/// path.
struct LiveTargets<'a> {
    knowledge: &'a Knowledge,
    view: &'a View,
}

impl TargetExclusions for LiveTargets<'_> {
    fn known(&self) -> usize {
        self.knowledge.len()
            + self
                .view
                .dead()
                .iter()
                .filter(|r| !self.knowledge.contains(**r))
                .count()
    }

    fn knows(&self, rank: RankId) -> bool {
        self.knowledge.contains(rank) || !self.view.is_live(rank)
    }
}

impl GossipEngine {
    // ---- stage transitions -----------------------------------------------

    /// Algorithm 2's entry test, `ℓ^p > ℓ_ave·h`: whether this rank runs
    /// the transfer loop, and so reads its gossip knowledge.
    fn is_overloaded(&self) -> bool {
        self.my_load() > self.l_ave * self.cfg.transfer.threshold_h
    }

    pub(super) fn enter_gossip(&mut self, out: &mut Vec<Command>) {
        self.iter_transfers = 0;
        self.iter_rejected = 0;
        self.canonicalize_current();
        let rng = self
            .factory
            .rank_stream(b"gossip", self.me.as_u32() as u64, self.sub_epoch());
        self.state = StageState::Gossip(GossipState {
            knowledge: Knowledge::new(),
            reads: self.is_overloaded(),
            round: 0,
            grew: false,
            rng,
        });
        self.enter_gossip_round(out, 1);
    }

    fn enter_gossip_round(&mut self, out: &mut Vec<Command>, round: u32) {
        out.push(Command::OpenSpan(EventKind::GossipRound {
            trial: self.trial as u32,
            iter: self.iter as u32,
            round,
        }));
        let epoch = self.gossip_round_epoch(round);
        self.det.start_epoch(epoch, EpochSends::EntryOnly);

        // Algorithm 1, stepped: round 1 is seeded by the underloaded
        // ranks (lines 6–12); round r+1 is sent by exactly the ranks
        // whose knowledge grew during round r (lines 18–24). All sends
        // happen at round entry, over the complete, canonicalized union
        // of the previous round's receipts — so the epoch is entry-only,
        // and ends on its first balanced wave.
        let mut gs = match std::mem::replace(&mut self.state, StageState::Done) {
            StageState::Gossip(gs) => gs,
            s => unreachable!("gossip round entered from {}", s.label()),
        };
        gs.round = round;
        let sending = if round == 1 {
            let my_load = self.my_load();
            if my_load < self.l_ave {
                gs.knowledge.insert(self.me, Load::new(my_load));
                true
            } else {
                false
            }
        } else {
            gs.grew
        };
        gs.grew = false;

        let mut sends = Vec::new();
        if sending {
            // The payload goes out in rank order; the set itself is put
            // in order only by a rank about to run the transfer stage.
            let pairs = gs.knowledge.pairs_in_rank_order();
            let mut targets = Vec::new();
            let exclusions = LiveTargets {
                knowledge: &gs.knowledge,
                view: &self.view,
            };
            sample_fanout_targets(
                &mut gs.rng,
                self.num_ranks,
                self.me,
                &exclusions,
                self.cfg.fanout,
                &mut targets,
            );
            for target in targets {
                sends.push((
                    target,
                    LbMsg::Gossip {
                        epoch,
                        round,
                        pairs: pairs.clone(),
                    },
                ));
            }
        }
        // Hold only what is read: after the last round's sends nothing
        // reads a non-transferring rank's set again.
        if round as usize >= self.cfg.rounds && !gs.reads {
            gs.knowledge = Knowledge::new();
        }
        self.state = StageState::Gossip(gs);
        for (to, msg) in sends {
            self.send_basic(out, to, msg);
        }

        // Coordinator launches termination detection for this epoch.
        let kick = self.det.kick();
        self.emit_td(out, kick);
        self.replay_buffered(out);
    }

    pub(super) fn on_gossip(&mut self, round: u32, pairs: std::sync::Arc<[(RankId, f64)]>) {
        self.det.on_basic_recv();
        match &mut self.state {
            StageState::Gossip(gs) => {
                debug_assert_eq!(round, gs.round);
                // The message is counted, acked and traced like any
                // other; only the merge into a set nobody will read is
                // skipped, and the payload is released here.
                if round as usize >= self.cfg.rounds && !gs.reads {
                    return;
                }
                let merged = gs
                    .knowledge
                    .merge_from(pairs.iter().map(|&(r, l)| (r, Load::new(l))));
                if merged > 0 {
                    gs.grew = true;
                }
            }
            s => debug_assert!(false, "gossip received in stage {}", s.label()),
        }
    }

    pub(super) fn on_epoch_terminated(&mut self, out: &mut Vec<Command>, epoch: u64, sent: u64) {
        out.push(Command::Terminated {
            epoch,
            sent,
            sends: self.det.sends(),
            waves: self.det.waves(),
        });
        match &self.state {
            StageState::Gossip(gs) => {
                debug_assert_eq!(epoch, self.gossip_round_epoch(gs.round));
                // `sent` is carried by the termination broadcast, so all
                // ranks agree on it: if the round moved no messages the
                // remaining rounds are provably empty and every rank
                // skips them in lockstep.
                let round = gs.round;
                if sent == 0 || round as usize >= self.cfg.rounds {
                    self.run_transfer(out);
                } else {
                    self.enter_gossip_round(out, round + 1);
                }
            }
            StageState::Transfer => {
                debug_assert_eq!(epoch, self.proposal_epoch());
                self.enter_evaluate(out);
            }
            StageState::Commit => {
                debug_assert_eq!(epoch, self.commit_epoch());
                self.state = StageState::Done;
                self.done = true;
                out.push(Command::Finished);
            }
            s => panic!(
                "unexpected epoch {epoch} termination in stage {}",
                s.label()
            ),
        }
    }

    fn run_transfer(&mut self, out: &mut Vec<Command>) {
        let mut gs = match std::mem::replace(&mut self.state, StageState::Transfer) {
            StageState::Gossip(gs) => gs,
            s => unreachable!("transfer entered from {}", s.label()),
        };
        self.open_stage_span(out);
        let epoch = self.proposal_epoch();
        self.det.start_epoch(epoch, EpochSends::EntryOnly);
        self.canonicalize_current();

        // Algorithm 2, locally — literally the same kernel the
        // analysis-mode driver runs, fed the same canonicalized inputs
        // and the same random stream.
        debug_assert_eq!(gs.reads, self.is_overloaded());
        if gs.reads && !gs.knowledge.is_empty() {
            // Rank order only for a rank about to read it, exactly where
            // `refine` has it: `gs` is dropped when this function returns.
            gs.knowledge.canonicalize();
            let tasks: Vec<Task> = self
                .current
                .iter()
                .map(|t| Task::new(t.id, t.load))
                .collect();
            let mut rng =
                self.factory
                    .rank_stream(b"transfer", self.me.as_u32() as u64, self.sub_epoch());
            let result = transfer_stage(
                self.me,
                &tasks,
                &mut gs.knowledge,
                Load::new(self.l_ave),
                &self.cfg.transfer,
                &mut rng,
            );
            self.iter_transfers = result.accepted;
            self.iter_rejected = result.rejected;

            // Remove proposed tasks locally and inform each recipient of
            // its new logical tasks (lazy transfer — no data movement).
            let mut by_target: HashMap<RankId, Vec<TaskEntry>> = HashMap::new();
            for m in &result.proposals {
                let idx = self
                    .current
                    .iter()
                    .position(|t| t.id == m.task)
                    .expect("proposed task is resident");
                let entry = self.current.swap_remove(idx);
                by_target.entry(m.to).or_default().push(entry);
            }
            // Deterministic send order regardless of hash state.
            let mut targets: Vec<(RankId, Vec<TaskEntry>)> = by_target.into_iter().collect();
            targets.sort_by_key(|(r, _)| *r);
            for (to, tasks) in targets {
                self.send_basic(out, to, LbMsg::Propose { epoch, tasks });
            }
        }

        let kick = self.det.kick();
        self.emit_td(out, kick);
        self.replay_buffered(out);
    }

    /// Accept every proposed task: the paper drops Menon et al.'s
    /// negative acknowledgements (§V-A), so a recipient never bounces one.
    pub(super) fn on_propose(&mut self, tasks: Vec<TaskEntry>) {
        self.det.on_basic_recv();
        self.current.extend(tasks);
    }

    fn enter_evaluate(&mut self, out: &mut Vec<Command>) {
        self.state = StageState::Evaluate;
        self.open_stage_span(out);
        self.canonicalize_current();
        let slot = self.eval_slot();
        let summary = LoadSummary::of(self.my_load());
        self.contribute(out, slot, summary);
        // Note: buffered messages for the next gossip epoch stay buffered;
        // they replay when the epoch starts.
    }

    pub(super) fn advance_iteration(&mut self, out: &mut Vec<Command>) {
        self.iter += 1;
        if self.iter >= self.cfg.iters {
            self.iter = 0;
            self.trial += 1;
            if self.trial >= self.cfg.trials {
                self.enter_commit(out);
                return;
            }
            // Algorithm 3 line 3: each trial restarts from the input
            // assignment.
            self.current = self.original.clone();
        }
        self.enter_gossip(out);
    }

    fn enter_commit(&mut self, out: &mut Vec<Command>) {
        self.state = StageState::Commit;
        self.open_stage_span(out);
        let epoch = self.commit_epoch();
        // A `Fetch` is answered with `TaskData` while it is processed.
        self.det.start_epoch(epoch, EpochSends::Replies);
        out.push(Command::Instant(EventKind::Committed {
            epoch,
            generation: self.view.generation(),
            live: self.view.num_live() as u32,
            total: self.num_ranks as u32,
        }));
        // Adopt the best proposal; fetch data for tasks whose home is
        // elsewhere (lazy migration).
        self.current = self.best.clone();
        self.canonicalize_current();
        let mut by_home: HashMap<RankId, Vec<TaskId>> = HashMap::new();
        for t in &self.current {
            if t.home != self.me {
                by_home.entry(t.home).or_default().push(t.id);
            }
        }
        let mut homes: Vec<(RankId, Vec<TaskId>)> = by_home.into_iter().collect();
        homes.sort_by_key(|(r, _)| *r);
        for (home, tasks) in homes {
            self.migrations_in += tasks.len();
            self.send_basic(out, home, LbMsg::Fetch { epoch, tasks });
        }

        let kick = self.det.kick();
        self.emit_td(out, kick);
        self.replay_buffered(out);
    }

    pub(super) fn on_fetch(&mut self, out: &mut Vec<Command>, from: RankId, tasks: Vec<TaskId>) {
        self.det.on_basic_recv();
        self.migrations_out += tasks.len();
        let epoch = self.commit_epoch();
        self.send_basic(out, from, LbMsg::TaskData { epoch, tasks });
    }

    pub(super) fn on_task_data(&mut self, _tasks: Vec<TaskId>) {
        self.det.on_basic_recv();
    }
}
