//! Elastic membership: planned join / drain / autoscale.
//!
//! The crash path ([`crate::membership`]) reacts to ranks that *vanish*;
//! this module is its planned counterpart: ranks that arrive or leave
//! **on purpose** (scale-out under a flash crowd, scale-in through a
//! diurnal trough, rolling maintenance). The lifecycle is:
//!
//! - **Join** — a new node *knocks*; the leader admits it under a fenced
//!   roster bump and it receives a deterministic dense rank id. Ids stay
//!   dense across any interleaving of joins and leaves because a node's
//!   rank is *defined* as the number of roster nodes with a smaller
//!   stable id — the self-stabilizing renumbering: no id is ever handed
//!   out twice concurrently, and every member computes the same mapping
//!   from the roster alone.
//! - **Drain** — a leaving node enters `Draining`: the transfer
//!   criterion treats it as infinitely loaded, so the step runner
//!   evacuates it through ordinary migrations
//!   (`tempered_core::balancer::evacuate`). When its residual tasks have
//!   been handed off at a step boundary it acks and parks. A drain
//!   carries an optional **deadline**: if the handoff stalls past it,
//!   the node degrades to the crash path — the step runner evacuates its
//!   committed tasks onto the survivors, then declares it dead.
//! - **Autoscale** — [`policy::AutoscalePolicy`] watches the total load
//!   through the same Holt forecaster the predictive balancers use and
//!   emits joins/drains when the *predicted* per-rank load crosses
//!   hysteresis thresholds.
//!
//! Membership changes are **fenced** exactly like partition heals: every
//! roster change bumps `base_gen` past any generation derivable from the
//! previous roster (`+= enrolled + 1`, mirroring [`crate::membership::View::heal`]), so
//! protocol traffic from an older roster is recognizably stale.
//!
//! Churn is an [`ElasticScenario`]'s timeline of [`ChurnEvent`]s. It is
//! consumed at step boundaries by [`run_elastic`] — the one step loop —
//! which drives the *unchanged* LB protocol over the current dense
//! roster through the discrete-event simulator and compares every
//! fault-free step, bit for bit, against whichever second driver the
//! caller hands it: the threaded executor (`repro chaos_elastic`), a
//! fleet of rank processes over TCP (`orchestrate --elastic`), or none
//! (the fuzzer's elastic cases). No protocol run ever sees churn: a
//! step's [`FaultPlan`] holds only message-level noise and the step's
//! partition windows. [`ElasticScenario::validate`] checks a timeline by
//! replaying it through the same [`ElasticMembership`] transitions the
//! step loop executes, so the roster rules exist once.

pub mod policy;

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::time::Duration;

use tempered_core::balancer::evacuate;
use tempered_core::criteria::CriterionKind;
use tempered_core::distribution::Distribution;
use tempered_core::ids::{RankId, TaskId};
use tempered_core::rng::{derive_seed, RngFactory};
use tempered_core::task::Task;
use tempered_obs::{EventKind, Recorder};

use crate::fault::{FaultPlan, PartitionWindow};
use crate::lb::{LbProtocolConfig, LbRank};
use crate::parallel::run_parallel;
use crate::run_distributed_lb_with_faults;
use crate::sim::NetworkModel;

use policy::{AutoscaleConfig, AutoscalePolicy, ScaleDecision};

/// Lifecycle state of one node in the elastic roster.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum MemberState {
    /// Full protocol participant.
    Active,
    /// Leaving on purpose: holds its tasks until the handoff commits,
    /// and the balancers treat it as infinitely loaded meanwhile.
    Draining {
        /// Time the drain began.
        since: f64,
        /// Handoff deadline (seconds after `since`); `None` waits
        /// forever, otherwise a stalled handoff degrades to the crash
        /// path once exceeded.
        deadline: Option<f64>,
    },
    /// Gracefully left: handoff acked, no longer in the roster, does
    /// not count against quorum.
    Parked,
    /// Crash path (failure, or a drain past its deadline): out of the
    /// roster but still counted against quorum, like any other corpse.
    Dead,
}

/// A rejected membership transition or scenario.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ElasticError {
    /// Knock from a node that is already in the roster.
    JoinOfLiveNode {
        /// The offending stable node id.
        node: u64,
    },
    /// Drain of a node that is not an active roster member.
    DrainOfUnknownNode {
        /// The offending stable node id.
        node: u64,
    },
    /// Drain that would leave no active node to inherit the work.
    DrainWouldEmptyRoster {
        /// The node whose drain was refused.
        node: u64,
    },
    /// A drain-completion or crash for a node not in the right state.
    NotDraining {
        /// The offending stable node id.
        node: u64,
    },
    /// A churn event has a negative or non-finite time, or a drain
    /// deadline that is not positive and finite.
    MalformedEvent(ChurnEvent),
    /// A churn event falls at or after the end of the scenario's last
    /// step.
    EventPastLastStep {
        /// Event time.
        at: f64,
        /// The scenario's step count.
        steps: u64,
    },
    /// The scenario's plan carries a dimension other than message-level
    /// noise (`drop`, `duplicate`, `delay_spike`, `reorder`): an elastic
    /// step's faults are that noise plus the step's partition windows.
    NotMessageNoise {
        /// The plan field that must be empty.
        dimension: &'static str,
    },
}

impl fmt::Display for ElasticError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ElasticError::JoinOfLiveNode { node } => {
                write!(f, "node {node} knocked but is already a roster member")
            }
            ElasticError::DrainOfUnknownNode { node } => {
                write!(f, "drain of node {node}, which is not an active member")
            }
            ElasticError::DrainWouldEmptyRoster { node } => {
                write!(f, "draining node {node} would leave no active member")
            }
            ElasticError::NotDraining { node } => {
                write!(f, "node {node} is not draining")
            }
            ElasticError::MalformedEvent(ev) => {
                write!(f, "churn event at {} is malformed: {:?}", ev.at, ev.kind)
            }
            ElasticError::EventPastLastStep { at, steps } => {
                write!(
                    f,
                    "churn event at {at} falls past the last of {steps} steps"
                )
            }
            ElasticError::NotMessageNoise { dimension } => write!(
                f,
                "an elastic plan carries only message-level noise, but it has {dimension}"
            ),
        }
    }
}

impl std::error::Error for ElasticError {}

/// The planned-membership state machine: stable node ids mapped to
/// lifecycle states, with dense deterministic rank ids derived from the
/// roster and a heal-style generation fence bumped on every change.
///
/// Node ids are *stable* (a node keeps its id forever); rank ids are
/// *dense* (`0..m` for an `m`-node roster) and recomputed from the
/// roster: `rank_of(n)` = number of roster nodes with id `< n`. That
/// makes the renumbering self-stabilizing — any member holding the same
/// roster computes the same mapping, with no allocation protocol.
#[derive(Clone, Debug)]
pub struct ElasticMembership {
    members: BTreeMap<u64, MemberState>,
    base_gen: u64,
}

impl ElasticMembership {
    /// A fresh cluster: nodes `0..seed_ranks`, all active, generation 0.
    pub fn new(seed_ranks: usize) -> Self {
        assert!(seed_ranks > 0, "a cluster needs at least one seed rank");
        ElasticMembership {
            members: (0..seed_ranks as u64)
                .map(|n| (n, MemberState::Active))
                .collect(),
            base_gen: 0,
        }
    }

    /// Fence: bump the generation past anything derivable from the
    /// previous roster — the same discipline as [`crate::membership::View::heal`], which
    /// bumps by `num_ranks + 1` so post-change generations dominate
    /// every pre-change one.
    fn bump_fence(&mut self) {
        self.base_gen += self.enrolled() as u64 + 1;
    }

    /// The monotone roster generation, for fencing cross-roster traffic.
    pub fn generation(&self) -> u64 {
        self.base_gen
    }

    /// State of `node`, if it was ever enrolled.
    pub fn state(&self, node: u64) -> Option<MemberState> {
        self.members.get(&node).copied()
    }

    /// Roster: active + draining nodes, ascending stable id. The order
    /// IS the dense renumbering: the node at index `i` holds rank `i`.
    pub fn roster(&self) -> Vec<u64> {
        self.members
            .iter()
            .filter(|(_, s)| matches!(s, MemberState::Active | MemberState::Draining { .. }))
            .map(|(&n, _)| n)
            .collect()
    }

    /// Number of roster nodes (the protocol's `num_ranks`).
    pub fn num_ranks(&self) -> usize {
        self.roster().len()
    }

    /// Nodes ever enrolled minus the gracefully parked: the quorum
    /// denominator. The dead still count (we cannot tell a corpse from
    /// a partitioned-away peer); parked nodes left cleanly and do not.
    pub fn enrolled(&self) -> usize {
        self.members
            .values()
            .filter(|s| !matches!(s, MemberState::Parked))
            .count()
    }

    /// Whether the roster holds a strict majority of the enrolled nodes
    /// — the same quorum rule [`crate::membership::View::has_quorum`] applies to crash
    /// views.
    pub fn has_quorum(&self) -> bool {
        self.num_ranks() * 2 > self.enrolled()
    }

    /// Dense rank of `node`: the number of roster nodes with a smaller
    /// stable id. `None` if `node` is not in the roster.
    pub fn rank_of(&self, node: u64) -> Option<RankId> {
        let mut idx = 0u32;
        for (&n, s) in &self.members {
            if !matches!(s, MemberState::Active | MemberState::Draining { .. }) {
                continue;
            }
            if n == node {
                return Some(RankId::new(idx));
            }
            idx += 1;
        }
        None
    }

    /// Draining nodes whose handoff deadline has passed at `now`.
    pub fn overdue(&self, now: f64) -> Vec<u64> {
        self.members
            .iter()
            .filter_map(|(&n, s)| match *s {
                MemberState::Draining {
                    since,
                    deadline: Some(d),
                } if now > since + d => Some(n),
                _ => None,
            })
            .collect()
    }

    /// A node knocks: admit it under a fenced roster bump and return its
    /// deterministic dense rank. A parked or dead id may re-enlist (it
    /// left the roster, so the id is free again); a roster member may
    /// not.
    pub fn knock(&mut self, node: u64) -> Result<RankId, ElasticError> {
        match self.members.get(&node) {
            Some(MemberState::Active) | Some(MemberState::Draining { .. }) => {
                return Err(ElasticError::JoinOfLiveNode { node });
            }
            _ => {}
        }
        self.bump_fence();
        self.members.insert(node, MemberState::Active);
        Ok(self
            .rank_of(node)
            .expect("freshly admitted node has a rank"))
    }

    /// Begin draining `node` (refused if it is not active, or if it is
    /// the last active node — an empty cluster cannot inherit the work).
    pub fn begin_drain(
        &mut self,
        node: u64,
        now: f64,
        deadline: Option<f64>,
    ) -> Result<(), ElasticError> {
        match self.members.get(&node) {
            Some(MemberState::Active) => {}
            _ => return Err(ElasticError::DrainOfUnknownNode { node }),
        }
        let actives = self
            .members
            .values()
            .filter(|s| matches!(s, MemberState::Active))
            .count();
        if actives <= 1 {
            return Err(ElasticError::DrainWouldEmptyRoster { node });
        }
        self.bump_fence();
        self.members.insert(
            node,
            MemberState::Draining {
                since: now,
                deadline,
            },
        );
        Ok(())
    }

    /// The drain handoff committed and the node acked: park it (a clean
    /// exit — it stops counting against quorum) under a fenced bump.
    pub fn finish_drain(&mut self, node: u64) -> Result<(), ElasticError> {
        match self.members.get(&node) {
            Some(MemberState::Draining { .. }) => {}
            _ => return Err(ElasticError::NotDraining { node }),
        }
        self.bump_fence();
        self.members.insert(node, MemberState::Parked);
        Ok(())
    }

    /// Crash path: declare a roster node dead (failure detection, or a
    /// drain past its deadline). The corpse keeps counting against
    /// quorum.
    pub fn crash(&mut self, node: u64) -> Result<(), ElasticError> {
        match self.members.get(&node) {
            Some(MemberState::Active) | Some(MemberState::Draining { .. }) => {}
            _ => return Err(ElasticError::NotDraining { node }),
        }
        self.bump_fence();
        self.members.insert(node, MemberState::Dead);
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// The elastic step runner
// ---------------------------------------------------------------------------

/// How the per-task base loads vary over the scenario's steps — the
/// time-varying imbalance the autoscaler reacts to. Factors multiply
/// the base loads of the first half of the seed tasks (the "hot set").
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum LoadProfile {
    /// Constant loads.
    Flat,
    /// A flash crowd: the hot set's load is multiplied by `boost`
    /// during `[start, start + len)` steps, ramping linearly in.
    FlashCrowd {
        /// First boosted step.
        start: u64,
        /// Number of boosted steps.
        len: u64,
        /// Peak multiplier (≥ 1).
        boost: f64,
    },
    /// A diurnal trough: the hot set's load is multiplied by `floor`
    /// (≤ 1) during `[start, start + len)` steps.
    Trough {
        /// First quiet step.
        start: u64,
        /// Number of quiet steps.
        len: u64,
        /// Trough multiplier in `(0, 1]`.
        floor: f64,
    },
}

impl LoadProfile {
    /// Multiplier applied to the hot set at `step`.
    pub fn factor(&self, step: u64) -> f64 {
        match *self {
            LoadProfile::Flat => 1.0,
            LoadProfile::FlashCrowd { start, len, boost } => {
                if step < start || step >= start + len {
                    1.0
                } else {
                    // Linear ramp to the peak over the first half of
                    // the window, then hold.
                    let ramp = (len / 2).max(1);
                    let into = (step - start).min(ramp);
                    1.0 + (boost - 1.0) * into as f64 / ramp as f64
                }
            }
            LoadProfile::Trough { start, len, floor } => {
                if step < start || step >= start + len {
                    1.0
                } else {
                    floor
                }
            }
        }
    }
}

/// A planned membership change on an [`ElasticScenario`]'s timeline: a
/// join admits a fresh node under a fenced view bump, a drain evacuates
/// a live node and parks it. Times are seconds of scenario time
/// ([`STEP_DT`] per step).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ChurnEvent {
    /// When the change takes effect: it is applied at the first step
    /// boundary at or after `at`.
    pub at: f64,
    /// What changes.
    pub kind: ChurnKind,
}

/// The membership change a [`ChurnEvent`] applies.
///
/// Events name stable *node* ids, not dense rank ids: rank ids are
/// re-assigned by the self-stabilizing renumbering after every change
/// (see [`ElasticMembership`]), so only node ids are meaningful across a
/// timeline. Seed nodes are `0..seed_ranks`; joined nodes use fresh ids
/// (the conventional choice is the next unused integer).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ChurnKind {
    /// Node `node` knocks and is admitted as a new rank.
    Join {
        /// Stable id of the joining node — must not be in the roster.
        node: u64,
    },
    /// Node `node` begins a planned drain: balancers evacuate it, it
    /// hands off residual tasks at the next step boundary and parks.
    Drain {
        /// Stable id of the draining node — must be active.
        node: u64,
        /// Handoff budget in seconds. If the handoff has not completed
        /// within it, the node is failed over the *crash* path (its
        /// tasks are re-homed as after a death) instead of parking
        /// cleanly. `None` waits for the next boundary however long.
        deadline: Option<f64>,
    },
}

impl ChurnEvent {
    /// A join of node `node` at time `at`.
    pub fn join(at: f64, node: u64) -> Self {
        ChurnEvent {
            at,
            kind: ChurnKind::Join { node },
        }
    }

    /// A planned drain of node `node` at time `at` with an optional
    /// handoff deadline.
    pub fn drain(at: f64, node: u64, deadline: Option<f64>) -> Self {
        ChurnEvent {
            at,
            kind: ChurnKind::Drain { node, deadline },
        }
    }
}

/// Seconds of scenario time per step: a [`ChurnEvent`] applies at the
/// first step boundary at or after its `at`.
pub const STEP_DT: f64 = 1.0;

/// Transfer criterion pricing every drain evacuation.
const DRAIN_CRITERION: CriterionKind = CriterionKind::Relaxed;

/// One elastic chaos scenario: a seed cluster, a step count, a churn
/// timeline (explicit events and/or an autoscale policy), and the faults
/// to run each step's LB protocol under.
#[derive(Clone)]
pub struct ElasticScenario {
    /// Scenario name, for tables and CSV rows.
    pub name: String,
    /// Nodes `0..seed_ranks` at step 0.
    pub seed_ranks: usize,
    /// Seed tasks per seed rank (joiners arrive empty).
    pub tasks_per_rank: usize,
    /// Step boundaries `0..steps`; churn applies at boundary times.
    pub steps: u64,
    /// Protocol configuration for every step's LB run.
    pub cfg: LbProtocolConfig,
    /// Planned joins and drains, applied at step boundaries.
    pub churn: Vec<ChurnEvent>,
    /// Message-level noise (`drop`, `duplicate`, `delay_spike`,
    /// `reorder`) injected into every step's protocol run; its seed
    /// derives each step's fault seed. [`ElasticScenario::validate`]
    /// rejects any other dimension.
    pub plan: FaultPlan,
    /// Partition windows for specific steps (e.g. a split in the step
    /// where a join lands). A step with faults runs sim-only: a
    /// wall-clock driver's fault timing cannot be compared bit-for-bit.
    pub step_faults: Vec<(u64, PartitionWindow)>,
    /// Chaos knob: nodes whose drain handoff stalls (the evacuation
    /// never commits), exercising the deadline → crash-path degrade.
    pub stalled: BTreeSet<u64>,
    /// Load shape over time (drives the autoscaler).
    pub profile: LoadProfile,
    /// Optional autoscale policy synthesizing churn from the forecast.
    pub autoscale: Option<AutoscaleConfig>,
    /// Master seed.
    pub seed: u64,
}

impl ElasticScenario {
    /// A plain scenario with no churn, no faults, no policy.
    pub fn baseline(name: &str, seed_ranks: usize, steps: u64, seed: u64) -> Self {
        ElasticScenario {
            name: name.to_string(),
            seed_ranks,
            tasks_per_rank: 6,
            steps,
            cfg: LbProtocolConfig {
                fanout: 3,
                rounds: 4,
                ..LbProtocolConfig::quick()
            },
            churn: Vec::new(),
            plan: FaultPlan::none(),
            step_faults: Vec::new(),
            stalled: BTreeSet::new(),
            profile: LoadProfile::Flat,
            autoscale: None,
            seed,
        }
    }

    /// Check the scenario without running it: the plan holds only
    /// message-level noise, every churn event is well formed and falls
    /// before the end of the last step, and the timeline replays on an
    /// [`ElasticMembership`] — steps 1, 3 and 4 of [`run_elastic`]
    /// (due events in time order, overdue drains crashed, unstalled
    /// drains parked), without the protocol runs. The autoscaler's
    /// decisions depend on the loads, so they are not part of the
    /// replay.
    pub fn validate(&self) -> Result<(), ElasticError> {
        let p = &self.plan;
        for (dimension, present) in [
            ("crashes", !p.crashes.is_empty()),
            ("pauses", !p.pauses.is_empty()),
            ("stragglers", !p.stragglers.is_empty()),
            ("links", !p.links.is_empty()),
            ("partitions", !p.partitions.is_empty()),
        ] {
            if present {
                return Err(ElasticError::NotMessageNoise { dimension });
            }
        }
        for &ev in &self.churn {
            let well_formed = ev.at >= 0.0
                && ev.at.is_finite()
                && match ev.kind {
                    ChurnKind::Join { .. } => true,
                    ChurnKind::Drain { deadline, .. } => {
                        deadline.is_none_or(|d| d > 0.0 && d.is_finite())
                    }
                };
            if !well_formed {
                return Err(ElasticError::MalformedEvent(ev));
            }
            if ev.at >= self.steps as f64 * STEP_DT {
                return Err(ElasticError::EventPastLastStep {
                    at: ev.at,
                    steps: self.steps,
                });
            }
        }
        let mut membership = ElasticMembership::new(self.seed_ranks);
        let mut due = timeline(&self.churn).into_iter().peekable();
        for step in 0..self.steps {
            let now = step as f64 * STEP_DT;
            while let Some(ev) = due.next_if(|e| e.at <= now) {
                match ev.kind {
                    ChurnKind::Join { node } => membership.knock(node).map(drop)?,
                    ChurnKind::Drain { node, deadline } => {
                        membership.begin_drain(node, now, deadline)?
                    }
                }
            }
            for node in membership.overdue(now) {
                membership.crash(node)?;
            }
            for node in handoff(&membership, &self.stalled) {
                membership.finish_drain(node)?;
            }
        }
        Ok(())
    }

    /// The fault plan step `step` runs under: the scenario's noise under
    /// a per-step seed, plus the step's partition windows.
    fn step_plan(&self, step: u64) -> FaultPlan {
        FaultPlan {
            seed: derive_seed(self.plan.seed, &[step]),
            partitions: (self.step_faults.iter())
                .filter(|(s, _)| *s == step)
                .map(|(_, w)| w.clone())
                .collect(),
            ..self.plan.clone()
        }
    }
}

/// The churn timeline in the order boundaries apply it: by time, plan
/// order on ties.
fn timeline(churn: &[ChurnEvent]) -> Vec<ChurnEvent> {
    let mut events = churn.to_vec();
    events.sort_by(|a, b| a.at.total_cmp(&b.at));
    events
}

/// Draining nodes whose handoff commits at this boundary: every one not
/// `stalled`.
fn handoff(membership: &ElasticMembership, stalled: &BTreeSet<u64>) -> Vec<u64> {
    (membership.roster().into_iter())
        .filter(|&n| {
            matches!(membership.state(n), Some(MemberState::Draining { .. }))
                && !stalled.contains(&n)
        })
        .collect()
}

/// What happened at one step boundary.
#[derive(Clone, Debug)]
pub struct ElasticStepReport {
    /// The step index.
    pub step: u64,
    /// Roster (stable node ids, rank order) after churn was applied.
    pub roster: Vec<u64>,
    /// Nodes admitted at this boundary.
    pub joined: Vec<u64>,
    /// Nodes whose drain handoff committed at this boundary.
    pub drained: Vec<u64>,
    /// Whether the roster held quorum at this boundary.
    pub quorum_held: bool,
    /// Whether the second driver reproduced the simulator's placement;
    /// `None` when this step was not compared.
    pub matched: Option<bool>,
}

/// Aggregated outcome of one scenario, with the chaos-grid gates.
#[derive(Clone, Debug)]
pub struct ElasticOutcome {
    /// Per-step reports.
    pub steps: Vec<ElasticStepReport>,
    /// Tasks missing from the final placement vs the seed (gate: 0).
    pub lost_tasks: usize,
    /// Boundaries at which the roster lacked quorum (gate: 0).
    pub quorum_violations: usize,
    /// Compared steps where the second driver's placement differed from
    /// the simulator's (gate: 0).
    pub divergences: usize,
    /// Steps compared on both drivers.
    pub cross_checked: usize,
    /// Drains that degraded to the crash path.
    pub deadline_crashes: usize,
    /// Final placement: per roster node, sorted `(task id, load bits)`.
    pub final_assignment: BTreeMap<u64, Vec<(TaskId, u64)>>,
    /// Final membership.
    pub membership: ElasticMembership,
}

/// What two drivers are compared on: [`Distribution::canonical`].
pub type Placement = Vec<Vec<(TaskId, u64)>>;

/// A second driver for one step's LB run: given the step's dense
/// distribution, protocol configuration and seed, the placement it
/// committed — or `None` if it did not finish.
pub type SecondDriver<'a> =
    &'a mut dyn FnMut(&Distribution, LbProtocolConfig, u64) -> Option<Placement>;

/// The threaded executor as a [`SecondDriver`].
pub fn threaded_driver(dist: &Distribution, cfg: LbProtocolConfig, seed: u64) -> Option<Placement> {
    let ranks = LbRank::for_dist(dist, cfg, RngFactory::new(seed));
    let report = run_parallel(ranks, 4, Duration::from_secs(60));
    report
        .completed
        .then(|| report.ranks.iter().map(LbRank::canonical).collect())
}

/// The committed placement (stable node id → tasks at their immutable
/// *base* loads) and the load profile that prices it at a step.
struct Committed {
    tasks: BTreeMap<u64, Vec<(TaskId, f64)>>,
    /// The hot set — ids below this carry the profile's factor.
    hot_below: u64,
}

impl Committed {
    fn priced(&self, id: TaskId, base: f64, factor: f64) -> f64 {
        if id.as_u64() < self.hot_below {
            base * factor
        } else {
            base
        }
    }

    /// The dense distribution of the current roster: rank `i` holds the
    /// committed tasks of the `i`-th roster node at the profiled loads.
    fn dense(&self, roster: &[u64], factor: f64) -> Distribution {
        let mut dist = Distribution::new(roster.len());
        for (i, n) in roster.iter().enumerate() {
            for &(id, base) in self.tasks.get(n).into_iter().flatten() {
                dist.insert(
                    RankId::from(i),
                    Task::new(id, self.priced(id, base, factor)),
                )
                .expect("placement holds each task once");
            }
        }
        dist
    }

    /// Evacuate dense `ranks` of `membership`'s roster: each migration
    /// relocates a `(task, base load)` pair between the nodes holding
    /// the dense `from` and `to` ranks.
    fn evacuate(&mut self, membership: &ElasticMembership, ranks: &BTreeSet<RankId>, factor: f64) {
        let roster = membership.roster();
        let moves = evacuate(&self.dense(&roster, factor), ranks, DRAIN_CRITERION);
        for m in &moves {
            let src = self.tasks.entry(roster[m.from.as_usize()]).or_default();
            let at = src
                .iter()
                .position(|&(id, _)| id == m.task)
                .expect("evacuated task lives on its source node");
            let entry = src.remove(at);
            self.tasks
                .entry(roster[m.to.as_usize()])
                .or_default()
                .push(entry);
        }
    }
}

/// Run one elastic scenario: consume the churn timeline at step
/// boundaries, drain/evacuate/admit, and drive the unchanged LB
/// protocol over each step's dense roster through the simulator. This
/// is the only step loop: a harness that wants the steps reproduced on
/// another driver — the threaded executor ([`threaded_driver`]), a fleet
/// of rank processes — hands it in as `second`, and every step free of
/// message-level faults is compared placement for placement. Gates are
/// *recorded*, not asserted — `repro chaos_elastic` gates each
/// scenario on them.
pub fn run_elastic(
    sc: &ElasticScenario,
    mut second: Option<SecondDriver<'_>>,
    recorder: &Recorder,
) -> ElasticOutcome {
    sc.validate()
        .unwrap_or_else(|e| panic!("elastic scenario {}: {e}", sc.name));

    let mut membership = ElasticMembership::new(sc.seed_ranks);
    let mut policy = sc.autoscale.map(AutoscalePolicy::new);
    let mut next_node = sc.seed_ranks as u64;

    let total_tasks = sc.seed_ranks * sc.tasks_per_rank;
    let mut placement = Committed {
        // Geometric-ish spread so the seed layout is imbalanced.
        tasks: (0..sc.seed_ranks)
            .map(|n| {
                let first = n * sc.tasks_per_rank;
                let tasks = (first..first + sc.tasks_per_rank)
                    .map(|t| (TaskId::new(t as u64), 0.5 + (t % 7) as f64 * 0.25))
                    .collect();
                (n as u64, tasks)
            })
            .collect(),
        // The first half of the seed tasks carries the profile.
        hot_below: total_tasks as u64 / 2,
    };
    // Immutable base loads: profiling scales a *copy*, never the base.
    let base_load: BTreeMap<TaskId, f64> = placement
        .tasks
        .values()
        .flat_map(|ts| ts.iter().copied())
        .collect();
    let mut due = timeline(&sc.churn).into_iter().peekable();

    let mut out = ElasticOutcome {
        steps: Vec::new(),
        lost_tasks: 0,
        quorum_violations: 0,
        divergences: 0,
        cross_checked: 0,
        deadline_crashes: 0,
        final_assignment: BTreeMap::new(),
        membership: membership.clone(),
    };

    for step in 0..sc.steps {
        let now = step as f64 * STEP_DT;
        recorder.instant(0, now, EventKind::PhaseBoundary { step });
        let mut joined = Vec::new();
        let mut drained = Vec::new();
        // `validate` replayed every planned transition below on the same
        // state machine, so none can be refused here.
        let mut admit = |membership: &mut ElasticMembership, node: u64| {
            let rank = membership.knock(node).expect("validated join").as_u32();
            joined.push(node);
            recorder.instant(rank, now, EventKind::Joined { node, rank });
        };

        // 1. Planned churn due at this boundary.
        while let Some(ev) = due.next_if(|e| e.at <= now) {
            match ev.kind {
                ChurnKind::Join { node } => {
                    admit(&mut membership, node);
                    next_node = next_node.max(node + 1);
                }
                ChurnKind::Drain { node, deadline } => {
                    membership
                        .begin_drain(node, now, deadline)
                        .expect("validated drain");
                    recorder.instant(0, now, EventKind::DrainStarted { node });
                }
            }
        }

        // 2. Autoscale: the policy watches the observed total load and
        // synthesizes joins/drains when the forecast crosses its
        // hysteresis thresholds.
        let factor = sc.profile.factor(step);
        if let Some(policy) = policy.as_mut() {
            let total_load: f64 = membership
                .roster()
                .iter()
                .flat_map(|n| placement.tasks.get(n).into_iter().flatten())
                .map(|&(id, base)| placement.priced(id, base, factor))
                .sum();
            match policy.observe_and_decide(step, total_load, membership.num_ranks()) {
                ScaleDecision::Out(n) => {
                    for _ in 0..n {
                        admit(&mut membership, next_node);
                        next_node += 1;
                    }
                }
                ScaleDecision::In(n) => {
                    // Retire the highest-id active nodes — deterministic
                    // and biased toward the most recent joiners.
                    let victims = membership
                        .roster()
                        .into_iter()
                        .rev()
                        .filter(|&n| membership.state(n) == Some(MemberState::Active));
                    for node in victims.take(n).collect::<Vec<_>>() {
                        if membership.begin_drain(node, now, None).is_ok() {
                            recorder.instant(0, now, EventKind::DrainStarted { node });
                        }
                    }
                }
                ScaleDecision::Hold => {}
            }
        }

        // 3. Drains past their deadline degrade to the crash path: the
        // overdue node's committed tasks are evacuated onto the
        // survivors, then the node is declared dead.
        for node in membership.overdue(now) {
            let rank = membership.rank_of(node).expect("overdue node is in roster");
            placement.evacuate(&membership, &BTreeSet::from([rank]), factor);
            membership.crash(node).expect("overdue node can crash");
            out.deadline_crashes += 1;
            recorder.instant(0, now, EventKind::DrainDeadlineExceeded { node });
        }

        // 4. Drain handoff for every draining node whose handoff is not
        // stalled: evacuate at the boundary, then park it.
        let handoff = handoff(&membership, &sc.stalled);
        if !handoff.is_empty() {
            let draining: BTreeSet<RankId> = handoff
                .iter()
                .map(|&n| membership.rank_of(n).expect("draining node has a rank"))
                .collect();
            placement.evacuate(&membership, &draining, factor);
            for &node in &handoff {
                membership.finish_drain(node).expect("handoff node drains");
                drained.push(node);
                recorder.instant(0, now, EventKind::DrainCompleted { node });
            }
        }

        // 5. Quorum gate at the post-churn roster.
        let quorum_held = membership.has_quorum();
        if !quorum_held {
            out.quorum_violations += 1;
        }

        // 6. The LB protocol over the dense roster — the *unchanged*
        // engine; elasticity is entirely in the projection around it.
        let roster = membership.roster();
        let dist = placement.dense(&roster, factor);
        let plan = sc.step_plan(step);
        let fault_free = plan.is_zero();
        let epoch_seed = derive_seed(sc.seed, &[0xE1A5_71C0, step]);
        let sim = run_distributed_lb_with_faults(
            &dist,
            sc.cfg,
            NetworkModel::default(),
            &RngFactory::new(epoch_seed),
            plan,
        );

        // The second driver, same seed: the placement must be the same
        // *bits* — elasticity must not cost determinism.
        let matched = match second.as_mut() {
            Some(second) if fault_free => {
                let same = second(&dist, sc.cfg, epoch_seed) == Some(sim.distribution.canonical());
                out.cross_checked += 1;
                out.divergences += usize::from(!same);
                Some(same)
            }
            _ => None,
        };

        // 7. Commit — unless a rank degraded, in which case the whole
        // round is discarded and the committed placement stands (the
        // embedding application's contract for degraded LB rounds).
        if sim.degraded_ranks == 0 && sim.distribution.num_tasks() == dist.num_tasks() {
            for (i, &node) in roster.iter().enumerate() {
                let tasks: Vec<(TaskId, f64)> = sim
                    .distribution
                    .tasks_on(RankId::from(i))
                    .iter()
                    // Committed placements carry the immutable *base*
                    // load — dividing the profiled load back out would
                    // drift ulps across steps.
                    .map(|t| (t.id, base_load[&t.id]))
                    .collect();
                placement.tasks.insert(node, tasks);
            }
        }

        // 8. Zero-loss gate: every seed task is still placed on a
        // roster node.
        let placed: usize = roster
            .iter()
            .map(|n| placement.tasks.get(n).map_or(0, Vec::len))
            .sum();
        if placed < total_tasks {
            out.lost_tasks = out.lost_tasks.max(total_tasks - placed);
        }

        out.steps.push(ElasticStepReport {
            step,
            roster,
            joined,
            drained,
            quorum_held,
            matched,
        });
    }

    for n in membership.roster() {
        let mut ts: Vec<(TaskId, u64)> = placement
            .tasks
            .get(&n)
            .into_iter()
            .flatten()
            .map(|&(id, base)| (id, base.to_bits()))
            .collect();
        ts.sort_unstable();
        out.final_assignment.insert(n, ts);
    }
    out.membership = membership;
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_cluster_is_dense_and_has_quorum() {
        let m = ElasticMembership::new(4);
        assert_eq!(m.roster(), vec![0, 1, 2, 3]);
        assert_eq!(m.rank_of(2), Some(RankId::new(2)));
        assert!(m.has_quorum());
        assert_eq!(m.generation(), 0);
    }

    #[test]
    fn joins_and_drains_keep_ranks_dense_and_fence_the_generation() {
        let mut m = ElasticMembership::new(3);
        let g0 = m.generation();
        let r = m.knock(7).unwrap();
        assert_eq!(r, RankId::new(3), "7 sorts after 0,1,2");
        assert!(m.generation() > g0, "every change bumps the fence");

        m.begin_drain(1, 0.0, None).unwrap();
        assert!(matches!(m.state(1), Some(MemberState::Draining { .. })));
        m.finish_drain(1).unwrap();
        // Node 1 left: ranks re-densify around the survivors.
        assert_eq!(m.roster(), vec![0, 2, 7]);
        assert_eq!(m.rank_of(7), Some(RankId::new(2)));
        assert_eq!(m.rank_of(1), None);

        // A mid-roster join renumbers deterministically.
        let r = m.knock(5).unwrap();
        assert_eq!(r, RankId::new(2), "5 slots between 2 and 7");
        assert_eq!(m.rank_of(7), Some(RankId::new(3)));
    }

    #[test]
    fn generation_fence_dominates_prior_roster_generations() {
        // Mirror of the View::heal argument: each bump exceeds anything
        // derivable from the previous roster size.
        let mut m = ElasticMembership::new(4);
        let mut last = m.generation();
        for node in [9u64, 10, 11] {
            m.knock(node).unwrap();
            assert!(
                m.generation() > last + m.num_ranks() as u64 - 1,
                "fence must clear the previous roster's derivable range"
            );
            last = m.generation();
        }
    }

    #[test]
    fn invalid_transitions_are_rejected() {
        let mut m = ElasticMembership::new(2);
        assert_eq!(m.knock(0), Err(ElasticError::JoinOfLiveNode { node: 0 }));
        assert_eq!(
            m.begin_drain(9, 0.0, None),
            Err(ElasticError::DrainOfUnknownNode { node: 9 })
        );
        m.begin_drain(1, 0.0, None).unwrap();
        assert_eq!(
            m.begin_drain(0, 0.0, None),
            Err(ElasticError::DrainWouldEmptyRoster { node: 0 }),
            "the last active node must not drain"
        );
        assert_eq!(
            m.finish_drain(0),
            Err(ElasticError::NotDraining { node: 0 })
        );
    }

    #[test]
    fn parked_nodes_leave_quorum_accounting_but_corpses_do_not() {
        let mut m = ElasticMembership::new(4);
        m.begin_drain(3, 0.0, None).unwrap();
        m.finish_drain(3).unwrap();
        // 3 of 3 enrolled: parked node dropped from the denominator.
        assert!(m.has_quorum());
        assert_eq!(m.enrolled(), 3);
        m.crash(2).unwrap();
        // 2 live of 3 enrolled: still quorum.
        assert!(m.has_quorum());
        m.crash(1).unwrap();
        // 1 live of 3 enrolled: quorum lost.
        assert!(!m.has_quorum());
    }

    #[test]
    fn overdue_drains_surface_after_their_deadline() {
        let mut m = ElasticMembership::new(3);
        m.begin_drain(2, 1.0, Some(0.5)).unwrap();
        assert!(m.overdue(1.4).is_empty());
        assert_eq!(m.overdue(1.6), vec![2]);
        m.crash(2).unwrap();
        assert!(m.overdue(9.0).is_empty(), "corpses are no longer overdue");
    }

    #[test]
    fn parked_id_may_reenlist() {
        let mut m = ElasticMembership::new(3);
        m.begin_drain(2, 0.0, None).unwrap();
        m.finish_drain(2).unwrap();
        let r = m.knock(2).unwrap();
        assert_eq!(r, RankId::new(2));
        assert_eq!(m.state(2), Some(MemberState::Active));
    }

    /// A timeline is checked by replaying it on the roster machine that
    /// runs it: each refusal is the transition's own error.
    #[test]
    fn validate_replays_the_timeline_on_the_membership() {
        let check = |churn: Vec<ChurnEvent>| {
            let mut sc = ElasticScenario::baseline("v", 4, 6, 1);
            sc.churn = churn;
            sc.validate()
        };
        assert_eq!(
            check(vec![ChurnEvent::join(0.1, 2)]),
            Err(ElasticError::JoinOfLiveNode { node: 2 })
        );
        assert_eq!(
            check(vec![ChurnEvent::drain(0.1, 9, None)]),
            Err(ElasticError::DrainOfUnknownNode { node: 9 })
        );
        // The first drain parks node 1 at boundary 1; the second finds
        // it gone.
        assert_eq!(
            check(vec![
                ChurnEvent::drain(0.5, 1, None),
                ChurnEvent::drain(1.5, 1, None)
            ]),
            Err(ElasticError::DrainOfUnknownNode { node: 1 })
        );
        assert_eq!(
            check((0..4).map(|n| ChurnEvent::drain(1.0, n, None)).collect()),
            Err(ElasticError::DrainWouldEmptyRoster { node: 3 })
        );
        // Events apply in time order, not plan order; a parked id may
        // re-enlist.
        assert_eq!(
            check(vec![
                ChurnEvent::join(3.0, 1),
                ChurnEvent::drain(2.0, 4, None),
                ChurnEvent::drain(1.0, 1, None),
                ChurnEvent::join(0.5, 4),
            ]),
            Ok(())
        );
        assert_eq!(
            check(vec![ChurnEvent::join(6.0, 4)]),
            Err(ElasticError::EventPastLastStep { at: 6.0, steps: 6 })
        );
        assert_eq!(check(vec![ChurnEvent::join(5.5, 4)]), Ok(()));
        for bad in [
            ChurnEvent::join(-1.0, 4),
            ChurnEvent::join(f64::NAN, 4),
            ChurnEvent::drain(1.0, 0, Some(0.0)),
            ChurnEvent::drain(1.0, 0, Some(f64::INFINITY)),
        ] {
            assert!(matches!(
                check(vec![bad]),
                Err(ElasticError::MalformedEvent(_))
            ));
        }
    }

    /// A stalled drain past its deadline takes the crash path in the
    /// replay too, so the id is free for a later join.
    #[test]
    fn validate_follows_a_stalled_drain_onto_the_crash_path() {
        let mut sc = ElasticScenario::baseline("v", 4, 6, 1);
        sc.churn = vec![
            ChurnEvent::drain(1.0, 3, Some(1.5)),
            ChurnEvent::join(3.5, 3),
        ];
        sc.stalled = BTreeSet::from([3]);
        assert_eq!(sc.validate(), Ok(()));
        // Without the deadline the drain never ends, and the join finds
        // node 3 still in the roster.
        sc.churn[0] = ChurnEvent::drain(1.0, 3, None);
        assert_eq!(sc.validate(), Err(ElasticError::JoinOfLiveNode { node: 3 }));
    }

    #[test]
    fn an_elastic_plan_carries_only_message_noise() {
        let mut sc = ElasticScenario::baseline("v", 4, 6, 1);
        sc.plan.crashes = vec![crate::fault::CrashEvent::fatal(RankId::new(1), 0.1)];
        assert_eq!(
            sc.validate(),
            Err(ElasticError::NotMessageNoise {
                dimension: "crashes"
            })
        );
        sc.plan = FaultPlan {
            drop: 0.1,
            duplicate: 0.1,
            delay_spike: 0.1,
            delay_spike_scale: 4.0,
            reorder: 0.1,
            reorder_factor: 2.0,
            ..FaultPlan::none()
        };
        assert_eq!(sc.validate(), Ok(()));
    }

    /// Every step runs the scenario's noise under its own seed, and a
    /// step with partition windows gets them on top.
    #[test]
    fn a_step_plan_carries_the_scenario_noise() {
        let mut sc = ElasticScenario::baseline("noise", 4, 6, 1);
        sc.plan = FaultPlan {
            seed: 99,
            drop: 0.02,
            delay_spike: 0.1,
            delay_spike_scale: 4.0,
            reorder: 0.2,
            reorder_factor: 3.0,
            ..FaultPlan::none()
        };
        let window = PartitionWindow {
            side: vec![RankId::new(1)],
            start: 0.0,
            end: Some(0.01),
        };
        sc.step_faults = vec![(2, window.clone())];
        let quiet = sc.step_plan(1);
        assert_eq!(
            quiet,
            FaultPlan {
                seed: derive_seed(99, &[1]),
                ..sc.plan.clone()
            }
        );
        assert_eq!((quiet.delay_spike, quiet.delay_spike_scale), (0.1, 4.0));
        assert_eq!((quiet.reorder, quiet.reorder_factor), (0.2, 3.0));
        let split = sc.step_plan(2);
        assert_eq!(split.partitions, vec![window]);
        assert_eq!((split.delay_spike, split.reorder), (0.1, 0.2));
        assert_ne!(split.seed, quiet.seed);
    }

    #[test]
    fn elastic_baseline_runs_clean() {
        let sc = ElasticScenario::baseline("baseline", 4, 6, 11);
        let out = run_elastic(&sc, Some(&mut threaded_driver), &Recorder::disabled());
        assert_eq!(out.lost_tasks, 0);
        assert_eq!(out.quorum_violations, 0);
        assert_eq!(out.divergences, 0);
        assert!(out.cross_checked >= 6);
        assert_eq!(out.membership.roster().len(), 4);
    }

    /// The comparison itself, with fakes standing in for the second
    /// driver: an echo of the simulator matches at every step, one
    /// swapped task diverges at every step, and no driver compares
    /// nothing.
    #[test]
    fn a_second_driver_that_disagrees_is_detected() {
        fn simulate(dist: &Distribution, cfg: LbProtocolConfig, seed: u64) -> Placement {
            let factory = RngFactory::new(seed);
            run_distributed_lb_with_faults(
                dist,
                cfg,
                NetworkModel::default(),
                &factory,
                FaultPlan::none(),
            )
            .distribution
            .canonical()
        }
        let mut sc = ElasticScenario::baseline("fake-driver", 4, 5, 19);
        sc.churn = vec![ChurnEvent::join(1.0, 4), ChurnEvent::drain(3.0, 0, None)];
        let steps = sc.steps as usize;

        let mut echo = |d: &Distribution, c, s| Some(simulate(d, c, s));
        let out = run_elastic(&sc, Some(&mut echo), &Recorder::disabled());
        assert_eq!((out.cross_checked, out.divergences), (steps, 0));
        assert!(out.steps.iter().all(|s| s.matched == Some(true)));

        let mut swapped = |d: &Distribution, c, s| {
            let mut placement = simulate(d, c, s);
            let from = placement.iter().position(|r| !r.is_empty()).unwrap();
            let task = placement[from].pop().unwrap();
            let to = (from + 1) % placement.len();
            placement[to].push(task);
            placement[to].sort_unstable();
            Some(placement)
        };
        let out = run_elastic(&sc, Some(&mut swapped), &Recorder::disabled());
        assert_eq!((out.cross_checked, out.divergences), (steps, steps));
        assert!(out.steps.iter().all(|s| s.matched == Some(false)));

        let mut hung = |_: &Distribution, _, _| None;
        let out = run_elastic(&sc, Some(&mut hung), &Recorder::disabled());
        assert_eq!(out.divergences, steps, "an unfinished run is a divergence");

        let alone = run_elastic(&sc, None, &Recorder::disabled());
        assert_eq!((alone.cross_checked, alone.divergences), (0, 0));
        assert!(alone.steps.iter().all(|s| s.matched.is_none()));
        // The second driver only observes: the timeline is the same.
        assert_eq!(alone.final_assignment, out.final_assignment);
    }

    #[test]
    fn planned_join_and_drain_round_trip_without_loss() {
        let mut sc = ElasticScenario::baseline("join-drain", 4, 8, 23);
        sc.churn = vec![ChurnEvent::join(2.0, 4), ChurnEvent::drain(5.0, 1, None)];
        let out = run_elastic(&sc, Some(&mut threaded_driver), &Recorder::disabled());
        assert_eq!(out.lost_tasks, 0);
        assert_eq!(out.quorum_violations, 0);
        assert_eq!(out.divergences, 0);
        assert_eq!(out.membership.roster(), vec![0, 2, 3, 4]);
        assert_eq!(out.membership.state(1), Some(MemberState::Parked));
        // The drained node's tasks live on somebody else.
        let placed: usize = out.final_assignment.values().map(Vec::len).sum();
        assert_eq!(placed, 4 * sc.tasks_per_rank);
    }

    #[test]
    fn stalled_drain_degrades_to_the_crash_path_without_loss() {
        let mut sc = ElasticScenario::baseline("deadline", 4, 8, 31);
        sc.churn = vec![ChurnEvent::drain(2.0, 3, Some(1.5))];
        sc.stalled = BTreeSet::from([3]);
        let out = run_elastic(&sc, Some(&mut threaded_driver), &Recorder::disabled());
        assert_eq!(out.deadline_crashes, 1, "the stalled drain must degrade");
        assert_eq!(out.membership.state(3), Some(MemberState::Dead));
        assert_eq!(
            out.lost_tasks, 0,
            "evacuating the overdue node loses nothing"
        );
        assert_eq!(
            out.quorum_violations, 0,
            "3 live of 4 enrolled holds quorum"
        );
    }

    #[test]
    fn elastic_run_is_deterministic() {
        let mut sc = ElasticScenario::baseline("det", 4, 8, 77);
        sc.churn = vec![
            ChurnEvent::join(1.0, 9),
            ChurnEvent::drain(3.0, 0, None),
            ChurnEvent::join(5.0, 12),
        ];
        let a = run_elastic(&sc, Some(&mut threaded_driver), &Recorder::disabled());
        let b = run_elastic(&sc, Some(&mut threaded_driver), &Recorder::disabled());
        assert_eq!(a.final_assignment, b.final_assignment);
        assert_eq!(a.membership.roster(), b.membership.roster());
    }
}
