//! Randomized fault-plan search with automatic counterexample
//! shrinking — the generative half of the "Jepsen-in-a-binary"
//! subsystem (DESIGN.md §16; the checking half is [`crate::audit`]).
//!
//! A [`FuzzCase`] samples one point of the fault space the chaos grids
//! only ever probe by hand: a workload shape, a balancer, and a
//! [`FaultPlan`] mixing message-level noise, crashes, link faults and
//! bipartition windows — or, for an elastic case, a churn timeline
//! with message-level noise on every step. Cases are generated *valid
//! by construction* and re-checked through [`FuzzCase::validate`]
//! ([`FaultPlan::validate_for`] for a protocol case, the elastic
//! scenario's [`ElasticScenario::validate`] roster replay for an elastic
//! one), executed in the deterministic simulator under the auditor,
//! and — on a violation — handed to a
//! delta-debugging [`shrink`] loop that greedily drops fault events,
//! zeroes probabilities, narrows windows, and reduces ranks/steps
//! while the *same* invariant keeps failing. Because the executor is
//! deterministic, a minimized case file plus its seed replays the
//! violation forever (`examples/plans/regressions/`).
//!
//! [`InjectedBug`] provides test-only artifact corruptions (never
//! compiled into any protocol path) so the detect → shrink → replay
//! pipeline itself is testable end-to-end.

use crate::audit::{audit_artifacts, capture_lb_run, AuditReport, Invariant, Violation};
use crate::elastic::{ChurnEvent, ChurnKind, ElasticScenario};
use crate::fault::FaultPlan;
use crate::health::HealthConfig;
use crate::lb::{LbProtocolConfig, PartitionConfig};
use crate::planfile;
use crate::reliable::RetryConfig;
use crate::sim::NetworkModel;
use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};
use std::fmt::Write as _;
use tempered_core::distribution::Distribution;
use tempered_core::ids::RankId;
use tempered_core::rng::{derive_seed, RngFactory};
use tempered_obs::json::{self, arr, as_num, as_str, as_uint, field, get, obj, Json};
use tempered_obs::{EventKind, Recorder};

/// Largest integer the hand-rolled JSON codec can carry exactly (its
/// number representation is an `f64`). Generated seeds are masked to
/// this so case files round-trip losslessly.
pub const MAX_JSON_SAFE_INT: u64 = (1 << 53) - 1;

/// Largest cluster a case may ask for: the scaling sweep's top row, and
/// the most ranks any harness runs.
pub const MAX_RANKS: usize = 32_768;

/// Most tasks a case may place (`hot × tasks_per_hot`, or `ranks ×
/// tasks_per_hot` for an elastic case).
pub const MAX_TASKS: usize = 1 << 20;

/// Longest elastic timeline a case may ask for.
pub const MAX_ELASTIC_STEPS: u64 = 1_000;

/// Which balancer a protocol case runs distributed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Balancer {
    /// TemperedLB through the async protocol.
    Tempered,
    /// GrapevineLB through the same engine.
    Grapevine,
}

impl Balancer {
    /// Stable machine name for case files.
    pub fn name(&self) -> &'static str {
        match self {
            Balancer::Tempered => "tempered",
            Balancer::Grapevine => "grapevine",
        }
    }

    /// Inverse of [`Balancer::name`].
    pub fn from_name(s: &str) -> Option<Balancer> {
        match s {
            "tempered" => Some(Balancer::Tempered),
            "grapevine" => Some(Balancer::Grapevine),
            _ => None,
        }
    }
}

/// A test-only artifact corruption, used to verify the whole
/// detect → shrink → replay pipeline. Each bug is *conditional on a
/// plan feature*, so the shrinker has something real to minimize
/// toward: the violation survives exactly as long as the triggering
/// dimension does.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InjectedBug {
    /// When the plan carries a link fault: silently drop one live
    /// task claim (conservation: lost task).
    LoseOnLink,
    /// When the plan carries a bipartition window: duplicate a task
    /// claim onto a second committing rank (conservation: two owners
    /// in the authoritative generation).
    DupOnPartition,
    /// When the plan drops messages: forge an acknowledgement for a
    /// sequence number the peer never saw.
    ForgeAck,
    /// When the plan crashes a rank: replay a committed epoch without
    /// advancing it.
    RegressEpoch,
}

impl InjectedBug {
    /// Stable machine name for case files and `--inject-bug`.
    pub fn name(&self) -> &'static str {
        match self {
            InjectedBug::LoseOnLink => "lose_on_link",
            InjectedBug::DupOnPartition => "dup_on_partition",
            InjectedBug::ForgeAck => "forge_ack",
            InjectedBug::RegressEpoch => "regress_epoch",
        }
    }

    /// Inverse of [`InjectedBug::name`].
    pub fn from_name(s: &str) -> Option<InjectedBug> {
        match s {
            "lose_on_link" => Some(InjectedBug::LoseOnLink),
            "dup_on_partition" => Some(InjectedBug::DupOnPartition),
            "forge_ack" => Some(InjectedBug::ForgeAck),
            "regress_epoch" => Some(InjectedBug::RegressEpoch),
            _ => None,
        }
    }

    /// The invariant this bug violates when it fires.
    pub fn expected_invariant(&self) -> Invariant {
        match self {
            InjectedBug::LoseOnLink | InjectedBug::DupOnPartition => Invariant::TaskConservation,
            InjectedBug::ForgeAck => Invariant::AckedDelivery,
            InjectedBug::RegressEpoch => Invariant::EpochMonotonicity,
        }
    }

    /// Mutate captured artifacts the way the bug would have corrupted a
    /// real run. No-op when the triggering plan feature is absent or
    /// the artifacts give the bug nothing to corrupt.
    pub fn apply(&self, plan: &FaultPlan, art: &mut crate::audit::LbRunArtifacts) {
        match self {
            InjectedBug::LoseOnLink => {
                if plan.links.is_empty() {
                    return;
                }
                // Drop the first task some live rank claims.
                for c in &mut art.claims {
                    if c.finished && !c.tasks.is_empty() {
                        let victim = c.tasks[0].id;
                        for cc in &mut art.claims {
                            cc.tasks.retain(|t| t.id != victim);
                        }
                        return;
                    }
                }
            }
            InjectedBug::DupOnPartition => {
                if plan.partitions.is_empty() {
                    return;
                }
                let committing: Vec<usize> = art
                    .claims
                    .iter()
                    .enumerate()
                    .filter(|(_, c)| c.finished && !c.degraded && !c.parked)
                    .map(|(p, _)| p)
                    .collect();
                let gen_max = committing.iter().map(|&p| art.claims[p].generation).max();
                let auth: Vec<usize> = committing
                    .into_iter()
                    .filter(|&p| Some(art.claims[p].generation) == gen_max)
                    .collect();
                if auth.len() < 2 {
                    return;
                }
                if let Some(&stolen) = auth.iter().find_map(|&p| art.claims[p].tasks.first()) {
                    let target = *auth
                        .iter()
                        .find(|&&p| !art.claims[p].tasks.iter().any(|t| t.id == stolen.id))
                        .unwrap_or(&auth[1]);
                    art.claims[target].tasks.push(stolen);
                }
            }
            InjectedBug::ForgeAck => {
                if plan.drop <= 0.0 {
                    return;
                }
                for da in art.delivery.iter_mut().flatten() {
                    if let Some((_, _, acked)) = da.acked.first_mut() {
                        acked.sparse.push(acked.watermark + 1_000_003);
                        return;
                    }
                }
            }
            InjectedBug::RegressEpoch => {
                if plan.crashes.is_empty() {
                    return;
                }
                if let Some(ev) = art
                    .trace
                    .events
                    .iter()
                    .find(|e| matches!(e.kind, EventKind::Committed { .. }))
                    .copied()
                {
                    art.trace.events.push(ev);
                }
            }
        }
    }
}

/// One sampled point of the fault space: workload, balancer, and plan.
#[derive(Clone, Debug)]
pub struct FuzzCase {
    /// Master seed for the run's [`RngFactory`] (and the elastic
    /// timeline's per-step seeds).
    pub seed: u64,
    /// Cluster size (elastic cases: seed roster size).
    pub ranks: usize,
    /// Overloaded ranks holding all the load.
    pub hot: usize,
    /// Unit-load tasks per hot rank (elastic cases: per seed rank).
    pub tasks_per_hot: usize,
    /// Which balancer runs (protocol cases; the elastic harness prices
    /// drains with its own criterion).
    pub balancer: Balancer,
    /// `0` = one protocol run; `> 0` = an elastic timeline with this
    /// many step boundaries, driven by `churn`.
    pub elastic_steps: u64,
    /// Planned joins and drains (elastic cases only).
    pub churn: Vec<ChurnEvent>,
    /// The fault plan under test (elastic cases: the message-level noise
    /// every step runs under).
    pub plan: FaultPlan,
    /// Corpus semantics: `Some(inv)` = replaying this case must violate
    /// `inv` (paired with `inject_bug`); `None` = must audit clean.
    pub expect: Option<Invariant>,
    /// Test-only artifact corruption to apply before auditing.
    pub inject_bug: Option<InjectedBug>,
}

impl FuzzCase {
    /// Total discrete fault events in the plan — the quantity the
    /// shrinker minimizes (and the acceptance bar for minimized
    /// counterexamples).
    pub fn fault_event_count(&self) -> usize {
        let p = &self.plan;
        self.churn.len()
            + p.crashes.len()
            + p.links.len()
            + p.partitions.len()
            + p.pauses.len()
            + p.stragglers.len()
    }

    /// Structural validity: a workload shape within the size limits, and
    /// a plan the run can execute — [`FaultPlan::validate_for`] the
    /// case's ranks for a protocol case, [`ElasticScenario::validate`]
    /// for an elastic one.
    pub fn validate(&self) -> Result<(), String> {
        if !(2..=MAX_RANKS).contains(&self.ranks) {
            return Err(format!(
                "ranks must be in 2..={MAX_RANKS}, got {}",
                self.ranks
            ));
        }
        if self.hot == 0 || self.hot > self.ranks {
            return Err(format!(
                "hot must be in 1..={}, got {}",
                self.ranks, self.hot
            ));
        }
        if self.tasks_per_hot == 0 {
            return Err("tasks_per_hot must be >= 1".to_string());
        }
        let loaded = if self.elastic_steps > 0 {
            self.ranks
        } else {
            self.hot
        };
        if loaded
            .checked_mul(self.tasks_per_hot)
            .is_none_or(|n| n > MAX_TASKS)
        {
            return Err(format!(
                "{loaded} ranks × {} tasks_per_hot exceeds {MAX_TASKS} tasks",
                self.tasks_per_hot
            ));
        }
        if self.elastic_steps > MAX_ELASTIC_STEPS {
            return Err(format!(
                "elastic_steps must be <= {MAX_ELASTIC_STEPS}, got {}",
                self.elastic_steps
            ));
        }
        if self.elastic_steps == 0 {
            if !self.churn.is_empty() {
                return Err("churn requires an elastic case (elastic_steps > 0)".to_string());
            }
            return self
                .plan
                .validate_for(self.ranks)
                .map_err(|e| e.to_string());
        }
        self.plan.validate().map_err(|e| e.to_string())?;
        self.scenario().validate().map_err(|e| e.to_string())
    }

    /// The elastic scenario an elastic case runs: `ranks` seed nodes
    /// with `tasks_per_hot` tasks each, the case's churn and noise, and
    /// every step hardened (the best-effort baseline configuration would
    /// starve under the noise).
    fn scenario(&self) -> ElasticScenario {
        let mut sc = ElasticScenario::baseline(
            &format!("fuzz-{:x}", self.seed),
            self.ranks,
            self.elastic_steps,
            self.seed,
        );
        sc.tasks_per_rank = self.tasks_per_hot;
        sc.churn = self.churn.clone();
        sc.plan = self.plan.clone();
        sc.cfg = sc.cfg.hardened(RetryConfig::generous());
        sc
    }

    /// The case's input workload: `hot` overloaded ranks with
    /// `tasks_per_hot` unit tasks each, the rest empty.
    pub fn dist(&self) -> Distribution {
        Distribution::concentrated(self.ranks, self.hot, self.tasks_per_hot)
    }
}

/// The protocol configuration a case runs under, and every `repro chaos`
/// cell with it ([`LbProtocolConfig::quick`] or GrapevineLB, hardened with
/// [`RetryConfig::generous`] — the delivery audit needs ledgers),
/// crash-tolerant when the plan crashes anything, and quorum-gated when
/// the plan touches links or partitions.
pub fn protocol_config(balancer: Balancer, plan: &FaultPlan) -> LbProtocolConfig {
    let base = match balancer {
        Balancer::Tempered => LbProtocolConfig::quick(),
        Balancer::Grapevine => LbProtocolConfig::grapevine(),
    };
    let hardened = base.hardened(RetryConfig::generous());
    if !plan.partitions.is_empty() || !plan.links.is_empty() {
        hardened
            .crash_tolerant(HealthConfig::default())
            .partition_tolerant(PartitionConfig::quick())
    } else if !plan.crashes.is_empty() {
        hardened.crash_tolerant(HealthConfig::default())
    } else {
        hardened
    }
}

/// Execute one case in the deterministic simulator under the auditor.
/// Protocol cases run the full audit; elastic cases run the elastic
/// harness and map its end-to-end gates (lost tasks, quorum breaches)
/// onto the same invariants.
pub fn run_case(case: &FuzzCase) -> AuditReport {
    if case.elastic_steps > 0 {
        return run_elastic_case(case);
    }
    let dist = case.dist();
    let cfg = protocol_config(case.balancer, &case.plan);
    let factory = RngFactory::new(case.seed);
    let mut art = capture_lb_run(
        &dist,
        cfg,
        NetworkModel::default(),
        &factory,
        case.plan.clone(),
    );
    if let Some(bug) = case.inject_bug {
        bug.apply(&case.plan, &mut art);
    }
    audit_artifacts(&dist, &cfg, &case.plan, &art)
}

/// Elastic timeline execution: churn joins/drains at step boundaries,
/// message-level noise on every step's protocol run. No second driver
/// (fuzz throughput), and [`InjectedBug`]s do not apply — they
/// corrupt protocol-run artifacts, which the elastic harness consumes
/// internally.
fn run_elastic_case(case: &FuzzCase) -> AuditReport {
    let outcome = crate::elastic::run_elastic(&case.scenario(), None, &Recorder::disabled());
    let mut rep = AuditReport {
        checked_tasks: case.ranks * case.tasks_per_hot,
        ..AuditReport::default()
    };
    if outcome.lost_tasks > 0 {
        rep.violations.push(Violation {
            invariant: Invariant::TaskConservation,
            rank: None,
            detail: format!(
                "elastic timeline lost {} task(s) across {} steps",
                outcome.lost_tasks, case.elastic_steps
            ),
        });
    }
    if outcome.quorum_violations > 0 {
        rep.violations.push(Violation {
            invariant: Invariant::QuorumBeforeCommit,
            rank: None,
            detail: format!(
                "elastic timeline proceeded through {} quorum-less step(s)",
                outcome.quorum_violations
            ),
        });
    }
    rep
}

// ---- generation ------------------------------------------------------------

/// Deterministically generate case `index` of the fuzz run seeded by
/// `master`. Cases are valid by construction; one that still fails
/// [`FuzzCase::validate`] is re-rolled with a derived attempt key.
pub fn gen_case(master: u64, index: u64) -> FuzzCase {
    for attempt in 0..8u64 {
        let seed = derive_seed(master, &[0xF0_22, index, attempt]) & MAX_JSON_SAFE_INT;
        let case = gen_case_inner(seed);
        if case.validate().is_ok() {
            return case;
        }
    }
    // Unreachable in practice: a fault-free case is always valid.
    FuzzCase {
        seed: derive_seed(master, &[0xF0_22, index]) & MAX_JSON_SAFE_INT,
        ranks: 8,
        hot: 2,
        tasks_per_hot: 8,
        balancer: Balancer::Tempered,
        elastic_steps: 0,
        churn: Vec::new(),
        plan: FaultPlan::none(),
        expect: None,
        inject_bug: None,
    }
}

fn gen_case_inner(seed: u64) -> FuzzCase {
    let mut r = SmallRng::seed_from_u64(seed);
    let ranks = r.gen_range(4usize..13);
    let hot = 1 + r.gen_range(0usize..(ranks / 2).max(1));
    let tasks_per_hot = r.gen_range(4usize..16);
    let balancer = if r.gen_bool(0.5) {
        Balancer::Tempered
    } else {
        Balancer::Grapevine
    };
    let elastic = r.gen_bool(0.3);

    let mut plan = FaultPlan::none();
    plan.seed = r.next_u64() & MAX_JSON_SAFE_INT;
    // Message-level noise (kept mild so runs terminate briskly).
    if r.gen_bool(0.5) {
        plan.drop = r.gen_range(0.0..0.15);
    }
    if r.gen_bool(0.4) {
        plan.duplicate = r.gen_range(0.0..0.15);
    }
    if r.gen_bool(0.4) {
        plan.delay_spike = r.gen_range(0.0..0.2);
        plan.delay_spike_scale = r.gen_range(1.0..8.0);
    }
    if r.gen_bool(0.3) {
        plan.reorder = r.gen_range(0.0..0.2);
        plan.reorder_factor = r.gen_range(1.0..4.0);
    }

    if elastic {
        let steps = r.gen_range(2u64..6);
        return FuzzCase {
            seed,
            ranks,
            hot,
            tasks_per_hot,
            balancer,
            elastic_steps: steps,
            churn: gen_churn(&mut r, ranks, steps),
            plan,
            expect: None,
            inject_bug: None,
        };
    }

    // Per-rank slowdowns and outages.
    for _ in 0..r.gen_range(0usize..3) {
        let rank = RankId::from(r.gen_range(0usize..ranks));
        if r.gen_bool(0.5) {
            plan.stragglers.push((rank, r.gen_range(1.0..4.0)));
        } else {
            let from = r.gen_range(0.0..0.02);
            plan.pauses.push(crate::fault::PauseWindow {
                rank,
                from,
                until: from + r.gen_range(0.0..0.02),
            });
        }
    }
    // Crash-stop failures: distinct ranks, never all of them.
    let max_crashes = (ranks - 1).min(2);
    let mut crashed: Vec<usize> = Vec::new();
    for _ in 0..r.gen_range(0usize..max_crashes + 1) {
        let rank = r.gen_range(0usize..ranks);
        if crashed.contains(&rank) {
            continue;
        }
        crashed.push(rank);
        let at = r.gen_range(0.0..0.05);
        let restart_after = if r.gen_bool(0.3) {
            Some(r.gen_range(0.001..0.02))
        } else {
            None
        };
        plan.crashes.push(crate::fault::CrashEvent {
            rank: RankId::from(rank),
            at,
            restart_after,
        });
    }
    // Directed link faults.
    for _ in 0..r.gen_range(0usize..3) {
        let side = |r: &mut SmallRng| -> Vec<RankId> {
            if r.gen_bool(0.3) {
                Vec::new() // wildcard
            } else {
                let n = r.gen_range(1usize..3);
                let mut v: Vec<RankId> = (0..n)
                    .map(|_| RankId::from(r.gen_range(0usize..ranks)))
                    .collect();
                v.sort();
                v.dedup();
                v
            }
        };
        let start = r.gen_range(0.0..0.03);
        let end = if r.gen_bool(0.85) {
            Some(start + r.gen_range(0.001..0.05))
        } else {
            None
        };
        let kind = match r.gen_range(0u32..5) {
            0 => crate::fault::LinkFaultKind::Cut,
            1 => crate::fault::LinkFaultKind::Lossy {
                p: r.gen_range(0.0..0.5),
            },
            2 => crate::fault::LinkFaultKind::Delay {
                factor: r.gen_range(1.0..6.0),
            },
            3 => crate::fault::LinkFaultKind::Flap {
                period: r.gen_range(0.001..0.01),
                duty: r.gen_range(0.0..1.0),
            },
            _ => crate::fault::LinkFaultKind::Corrupt {
                p: r.gen_range(0.0..0.4),
            },
        };
        plan.links.push(crate::fault::LinkFault {
            src: side(&mut r),
            dst: side(&mut r),
            start,
            end,
            kind,
        });
    }
    // At most one bipartition window, always healing.
    if r.gen_bool(0.35) {
        let n = r.gen_range(1usize..ranks);
        let mut side: Vec<RankId> = (0..n)
            .map(|_| RankId::from(r.gen_range(0usize..ranks)))
            .collect();
        side.sort();
        side.dedup();
        if side.len() < ranks {
            let start = r.gen_range(0.0..0.02);
            plan.partitions.push(crate::fault::PartitionWindow {
                side,
                start,
                end: Some(start + r.gen_range(0.005..0.05)),
            });
        }
    }

    FuzzCase {
        seed,
        ranks,
        hot,
        tasks_per_hot,
        balancer,
        elastic_steps: 0,
        churn: Vec::new(),
        plan,
        expect: None,
        inject_bug: None,
    }
}

/// A valid-by-construction churn timeline: replay a live set, joining
/// fresh node ids and draining only live nodes, never the last two.
fn gen_churn(r: &mut SmallRng, seed_ranks: usize, steps: u64) -> Vec<ChurnEvent> {
    let mut churn = Vec::new();
    let mut live: Vec<u64> = (0..seed_ranks as u64).collect();
    let mut next_fresh = seed_ranks as u64;
    let horizon = steps as f64 * 0.9;
    let events = r.gen_range(1usize..4);
    let mut at = 0.0;
    for _ in 0..events {
        at += r.gen_range(0.05..horizon / events as f64);
        if at >= horizon {
            break;
        }
        if r.gen_bool(0.5) || live.len() <= 2 {
            churn.push(ChurnEvent::join(at, next_fresh));
            live.push(next_fresh);
            next_fresh += 1;
        } else {
            let i = r.gen_range(0usize..live.len());
            let node = live.swap_remove(i);
            let deadline = if r.gen_bool(0.3) {
                Some(r.gen_range(0.1..0.5))
            } else {
                None
            };
            churn.push(ChurnEvent::drain(at, node, deadline));
        }
    }
    churn
}

// ---- shrinking -------------------------------------------------------------

/// What [`shrink`] produced.
#[derive(Clone, Debug)]
pub struct ShrinkResult {
    /// The minimized case (still violating `invariant`).
    pub case: FuzzCase,
    /// The invariant the shrink preserved.
    pub invariant: Invariant,
    /// Every accepted intermediate case, smallest last (empty when the
    /// original was already minimal).
    pub trail: Vec<FuzzCase>,
    /// Candidate executions spent.
    pub attempts: usize,
}

/// Delta-debugging minimization: greedily try structurally smaller
/// variants of `case` — dropping fault events, zeroing probabilities,
/// narrowing windows, reducing ranks/tasks/steps — accepting a
/// candidate only when it still validates *and* still violates
/// `invariant` when re-run. Each acceptance strictly reduces a
/// well-founded measure (event counts, field counts, halved windows
/// bounded below), and `max_attempts` bounds the total work, so
/// shrinking always terminates.
pub fn shrink(case: &FuzzCase, invariant: Invariant, max_attempts: usize) -> ShrinkResult {
    let mut best = case.clone();
    let mut trail = Vec::new();
    let mut attempts = 0usize;
    'outer: loop {
        for cand in candidates(&best) {
            if attempts >= max_attempts {
                break 'outer;
            }
            if cand.validate().is_err() {
                continue;
            }
            attempts += 1;
            if run_case(&cand).violated(invariant) {
                best = cand;
                trail.push(best.clone());
                continue 'outer; // restart the passes from the smaller case
            }
        }
        break; // a full pass made no progress: fixpoint
    }
    ShrinkResult {
        case: best,
        invariant,
        trail,
        attempts,
    }
}

/// Structurally smaller variants of `case`, coarsest reductions first
/// (dropping whole events buys more than narrowing a window).
fn candidates(case: &FuzzCase) -> Vec<FuzzCase> {
    let mut out = Vec::new();
    let p = &case.plan;

    // Drop individual fault events, one at a time.
    for i in 0..case.churn.len() {
        let mut c = case.clone();
        c.churn.remove(i);
        out.push(c);
    }
    for i in 0..p.crashes.len() {
        let mut c = case.clone();
        c.plan.crashes.remove(i);
        out.push(c);
    }
    for i in 0..p.links.len() {
        let mut c = case.clone();
        c.plan.links.remove(i);
        out.push(c);
    }
    for i in 0..p.partitions.len() {
        let mut c = case.clone();
        c.plan.partitions.remove(i);
        out.push(c);
    }
    for i in 0..p.pauses.len() {
        let mut c = case.clone();
        c.plan.pauses.remove(i);
        out.push(c);
    }
    for i in 0..p.stragglers.len() {
        let mut c = case.clone();
        c.plan.stragglers.remove(i);
        out.push(c);
    }

    // Zero message-level probabilities.
    if p.drop > 0.0 {
        let mut c = case.clone();
        c.plan.drop = 0.0;
        out.push(c);
    }
    if p.duplicate > 0.0 {
        let mut c = case.clone();
        c.plan.duplicate = 0.0;
        out.push(c);
    }
    if p.delay_spike > 0.0 {
        let mut c = case.clone();
        c.plan.delay_spike = 0.0;
        c.plan.delay_spike_scale = 1.0;
        out.push(c);
    }
    if p.reorder > 0.0 {
        let mut c = case.clone();
        c.plan.reorder = 0.0;
        c.plan.reorder_factor = 1.0;
        out.push(c);
    }

    // Simplify crashes: a fatal crash is simpler than a warm restart.
    for i in 0..p.crashes.len() {
        if p.crashes[i].restart_after.is_some() {
            let mut c = case.clone();
            c.plan.crashes[i].restart_after = None;
            out.push(c);
        }
    }

    // Shrink the timeline and the cluster.
    if case.elastic_steps > 2 {
        let mut c = case.clone();
        c.elastic_steps = (case.elastic_steps / 2).max(2);
        out.push(c);
    }
    for target in [case.ranks / 2, case.ranks - 1] {
        if target >= 2 && target < case.ranks {
            out.push(reduce_ranks(case, target));
        }
    }
    if case.hot > 1 {
        let mut c = case.clone();
        c.hot /= 2;
        out.push(c);
    }
    if case.tasks_per_hot > 1 {
        let mut c = case.clone();
        c.tasks_per_hot /= 2;
        out.push(c);
    }

    // Narrow finite windows (halve the duration; bounded below so the
    // halvings are finite).
    const MIN_WINDOW: f64 = 1e-4;
    for i in 0..p.links.len() {
        if let Some(end) = p.links[i].end {
            let dur = end - p.links[i].start;
            if dur > MIN_WINDOW {
                let mut c = case.clone();
                c.plan.links[i].end = Some(p.links[i].start + dur / 2.0);
                out.push(c);
            }
        }
    }
    for i in 0..p.partitions.len() {
        if let Some(end) = p.partitions[i].end {
            let dur = end - p.partitions[i].start;
            if dur > MIN_WINDOW {
                let mut c = case.clone();
                c.plan.partitions[i].end = Some(p.partitions[i].start + dur / 2.0);
                out.push(c);
            }
        }
    }
    for i in 0..p.pauses.len() {
        let dur = p.pauses[i].until - p.pauses[i].from;
        if dur > MIN_WINDOW {
            let mut c = case.clone();
            c.plan.pauses[i].until = p.pauses[i].from + dur / 2.0;
            out.push(c);
        }
    }

    out
}

/// `case` on a smaller cluster: faults referencing removed ranks are
/// filtered (a whole fault is dropped when filtering would flip a
/// named rank set into a wildcard), and the workload shrinks to fit.
fn reduce_ranks(case: &FuzzCase, target: usize) -> FuzzCase {
    let mut c = case.clone();
    c.ranks = target;
    c.hot = c.hot.min(target);
    let keep = |r: RankId| (r.as_usize()) < target;
    c.plan.crashes.retain(|cr| keep(cr.rank));
    c.plan.pauses.retain(|w| keep(w.rank));
    c.plan.stragglers.retain(|&(r, _)| keep(r));
    c.plan.links.retain_mut(|l| {
        let src_was_named = !l.src.is_empty();
        let dst_was_named = !l.dst.is_empty();
        l.src.retain(|&r| keep(r));
        l.dst.retain(|&r| keep(r));
        // A named set emptied by the filter would become a wildcard —
        // a *larger* fault; drop the fault instead.
        !((src_was_named && l.src.is_empty()) || (dst_was_named && l.dst.is_empty()))
    });
    c.plan.partitions.retain_mut(|p| {
        p.side.retain(|&r| keep(r));
        !p.side.is_empty() && p.side.len() < target
    });
    // Seed-node churn references shift meaning on a smaller roster;
    // keep only events whose node ids still exist (fresh joiner ids
    // stay fresh — they are above the original roster, hence above the
    // smaller one too). Validation rejects any timeline this breaks.
    c.churn.retain(|e| match e.kind {
        ChurnKind::Join { .. } => true,
        ChurnKind::Drain { node, .. } => node >= case.ranks as u64 || node < target as u64,
    });
    c
}

// ---- case files ------------------------------------------------------------

/// A case file's `churn` array: `{"at": t, "join": node}` or
/// `{"at": t, "drain": node, "deadline": d | null}`.
fn churn_from_json(value: &Json) -> Result<Vec<ChurnEvent>, String> {
    let event = |item: &Json| {
        let c = obj(item, "churn[]")?;
        let at = as_num(field(c, "at", "churn")?, "churn.at")?;
        let kind = match (get(c, "join"), get(c, "drain")) {
            (Some(j), None) => {
                if get(c, "deadline").is_some() {
                    return Err("churn: \"deadline\" only applies to drains".into());
                }
                ChurnKind::Join {
                    node: as_uint(j, "churn.join", u64::MAX)?,
                }
            }
            (None, Some(d)) => ChurnKind::Drain {
                node: as_uint(d, "churn.drain", u64::MAX)?,
                deadline: match get(c, "deadline") {
                    None => None,
                    Some(v) => planfile::as_opt_num(v, "churn.deadline")?,
                },
            },
            _ => return Err("churn: expected exactly one of \"join\" or \"drain\"".into()),
        };
        Ok(ChurnEvent { at, kind })
    };
    arr(value, "churn")?.iter().map(event).collect()
}

impl FuzzCase {
    /// Render the case as pretty-printed JSON (the regression-corpus
    /// file format). Round-trips through [`FuzzCase::from_json`].
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"seed\": {},", self.seed);
        let _ = writeln!(out, "  \"ranks\": {},", self.ranks);
        let _ = writeln!(out, "  \"hot\": {},", self.hot);
        let _ = writeln!(out, "  \"tasks_per_hot\": {},", self.tasks_per_hot);
        let _ = writeln!(out, "  \"balancer\": \"{}\",", self.balancer.name());
        let _ = writeln!(out, "  \"elastic_steps\": {},", self.elastic_steps);
        if let Some(inv) = self.expect {
            let _ = writeln!(out, "  \"expect\": \"{}\",", inv.name());
        }
        if let Some(bug) = self.inject_bug {
            let _ = writeln!(out, "  \"inject_bug\": \"{}\",", bug.name());
        }
        if !self.churn.is_empty() {
            out.push_str("  \"churn\": [");
            for (i, c) in self.churn.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "\n    {{\"at\": {}, ", planfile::num(c.at));
                match c.kind {
                    ChurnKind::Join { node } => {
                        let _ = write!(out, "\"join\": {node}}}");
                    }
                    ChurnKind::Drain { node, deadline } => {
                        let deadline = deadline.map_or("null".to_string(), planfile::num);
                        let _ = write!(out, "\"drain\": {node}, \"deadline\": {deadline}}}");
                    }
                }
            }
            out.push_str("\n  ],\n");
        }
        let plan = self.plan.to_json();
        let plan = plan.trim_end().replace('\n', "\n  ");
        let _ = writeln!(out, "  \"plan\": {plan}");
        out.push_str("}\n");
        out
    }

    /// Parse a case from JSON text. Unknown fields are rejected;
    /// the embedded plan parses exactly as a standalone plan file, and
    /// churn sits at the top level, beside it. The
    /// parsed case is *not* validated — callers should
    /// [`FuzzCase::validate`] before running it.
    pub fn from_json(text: &str) -> Result<FuzzCase, String> {
        let root = json::parse(text)?;
        let map = obj(&root, "case")?;
        let mut case = FuzzCase {
            seed: 0,
            ranks: 0,
            hot: 0,
            tasks_per_hot: 0,
            balancer: Balancer::Tempered,
            elastic_steps: 0,
            churn: Vec::new(),
            plan: FaultPlan::none(),
            expect: None,
            inject_bug: None,
        };
        // Counts above 2^53-1 cannot round-trip through JSON exactly.
        let as_count = |v: &Json, what: &str| as_uint(v, what, MAX_JSON_SAFE_INT);
        for (key, value) in map {
            match key.as_str() {
                "seed" => case.seed = as_count(value, "seed")?,
                "ranks" => case.ranks = as_count(value, "ranks")? as usize,
                "hot" => case.hot = as_count(value, "hot")? as usize,
                "tasks_per_hot" => case.tasks_per_hot = as_count(value, "tasks_per_hot")? as usize,
                "elastic_steps" => case.elastic_steps = as_count(value, "elastic_steps")?,
                "balancer" => {
                    let s = as_str(value, "balancer")?;
                    case.balancer = Balancer::from_name(s)
                        .ok_or_else(|| format!("balancer: unknown balancer \"{s}\""))?;
                }
                "expect" => {
                    let s = as_str(value, "expect")?;
                    case.expect = Some(
                        Invariant::from_name(s)
                            .ok_or_else(|| format!("expect: unknown invariant \"{s}\""))?,
                    );
                }
                "inject_bug" => {
                    let s = as_str(value, "inject_bug")?;
                    case.inject_bug = Some(
                        InjectedBug::from_name(s)
                            .ok_or_else(|| format!("inject_bug: unknown bug \"{s}\""))?,
                    );
                }
                "churn" => case.churn = churn_from_json(value)?,
                "plan" => case.plan = planfile::plan_from_json(value)?,
                other => return Err(format!("case: unknown field \"{other}\"")),
            }
        }
        if case.ranks == 0 {
            return Err("case: missing field \"ranks\"".to_string());
        }
        if case.hot == 0 {
            return Err("case: missing field \"hot\"".to_string());
        }
        if case.tasks_per_hot == 0 {
            return Err("case: missing field \"tasks_per_hot\"".to_string());
        }
        Ok(case)
    }

    /// Read, parse, and validate a case file, prefixing errors with the
    /// path (same contract as [`FaultPlan::load`]).
    pub fn load(path: &std::path::Path) -> Result<FuzzCase, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("{}: cannot read case file: {e}", path.display()))?;
        let case = FuzzCase::from_json(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        case.validate()
            .map_err(|e| format!("{}: {e}", path.display()))?;
        Ok(case)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_cases_are_valid_and_deterministic() {
        for i in 0..50 {
            let a = gen_case(0xF0_22, i);
            let b = gen_case(0xF0_22, i);
            assert!(a.validate().is_ok(), "case {i}: {:?}", a.validate());
            assert_eq!(a.to_json(), b.to_json(), "case {i} not deterministic");
        }
    }

    #[test]
    fn case_files_round_trip() {
        for i in 0..20 {
            let case = gen_case(7, i);
            let text = case.to_json();
            let back = FuzzCase::from_json(&text).expect("round trip parses");
            assert_eq!(text, back.to_json(), "case {i} round trip");
        }
    }

    #[test]
    fn unknown_case_fields_are_rejected() {
        let err = FuzzCase::from_json(
            "{\"ranks\": 4, \"hot\": 1, \"tasks_per_hot\": 2, \"frobnicate\": 1}",
        )
        .unwrap_err();
        assert!(err.contains("unknown field"), "{err}");
    }

    /// A case file that cannot run is rejected at load with its path
    /// first: a plan no executor may run, and a file that is not there.
    #[test]
    fn load_names_the_file_and_the_offending_plan_field() {
        let dir = std::env::temp_dir().join(format!("tempered-fuzz-load-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad_drop.json");
        let case = r#"{"ranks": 16, "hot": 2, "tasks_per_hot": 25, "plan": {"drop": 1.5}}"#;
        std::fs::write(&path, case).unwrap();
        let err = FuzzCase::load(&path).unwrap_err();
        let shown = path.display().to_string();
        assert!(err.starts_with(&format!("{shown}: ")), "{err}");
        assert!(err.contains("drop"), "{err}");

        std::fs::remove_dir_all(&dir).unwrap();
        let err = FuzzCase::load(&path).unwrap_err();
        assert!(err.starts_with(&format!("{shown}: ")), "{err}");
        assert!(err.contains("cannot read"), "{err}");
    }

    /// A case sized past what any harness runs is refused at load, before
    /// anything is allocated — each limit through its own field.
    #[test]
    fn load_refuses_oversized_cases() {
        let dir = std::env::temp_dir().join(format!("tempered-fuzz-size-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("big.json");
        for (case, want) in [
            (
                r#"{"ranks": 100000000000, "hot": 1, "tasks_per_hot": 1}"#,
                "ranks must be in 2..=32768, got 100000000000",
            ),
            (
                r#"{"ranks": 16, "hot": 2, "tasks_per_hot": 524289}"#,
                "2 ranks × 524289 tasks_per_hot exceeds 1048576 tasks",
            ),
            (
                r#"{"ranks": 32768, "hot": 32768, "tasks_per_hot": 9007199254740991}"#,
                "exceeds 1048576 tasks",
            ),
            (
                r#"{"ranks": 32768, "hot": 1, "tasks_per_hot": 64, "elastic_steps": 2}"#,
                "32768 ranks × 64 tasks_per_hot exceeds 1048576 tasks",
            ),
            (
                r#"{"ranks": 8, "hot": 1, "tasks_per_hot": 6, "elastic_steps": 1001}"#,
                "elastic_steps must be <= 1000, got 1001",
            ),
        ] {
            std::fs::write(&path, case).unwrap();
            let err = FuzzCase::load(&path).unwrap_err();
            assert!(err.contains(want), "want {want:?}, got {err:?}");
        }
        for at_the_limit in [
            r#"{"ranks": 32768, "hot": 2, "tasks_per_hot": 524288}"#,
            r#"{"ranks": 8, "hot": 1, "tasks_per_hot": 6, "elastic_steps": 1000}"#,
        ] {
            std::fs::write(&path, at_the_limit).unwrap();
            assert!(FuzzCase::load(&path).is_ok(), "{at_the_limit}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Churn is the case's, at the top level: it round-trips there, is
    /// checked by the elastic roster replay, and is an unknown field
    /// inside a plan.
    #[test]
    fn churn_lives_on_the_case_not_the_plan() {
        let text = r#"{"ranks": 4, "hot": 1, "tasks_per_hot": 2, "elastic_steps": 4,
                       "churn": [{"at": 0.5, "join": 9}, {"at": 1, "drain": 3, "deadline": 0.25}]}"#;
        let case = FuzzCase::from_json(text).unwrap();
        assert_eq!(
            case.churn,
            vec![
                ChurnEvent::join(0.5, 9),
                ChurnEvent::drain(1.0, 3, Some(0.25))
            ]
        );
        assert_eq!(case.validate(), Ok(()));
        let back = FuzzCase::from_json(&case.to_json()).unwrap();
        assert_eq!(back.churn, case.churn);

        let err = FuzzCase::from_json(
            r#"{"ranks": 4, "hot": 1, "tasks_per_hot": 2, "elastic_steps": 4,
                "plan": {"churn": [{"at": 0.5, "join": 9}]}}"#,
        )
        .unwrap_err();
        assert!(err.contains("plan: unknown field \"churn\""), "{err}");

        let mut stale = case.clone();
        stale.churn.push(ChurnEvent::join(2.0, 9));
        let err = stale.validate().unwrap_err();
        assert!(err.contains("node 9 knocked but is already"), "{err}");
        stale.elastic_steps = 0;
        let err = stale.validate().unwrap_err();
        assert!(err.contains("churn requires an elastic case"), "{err}");

        let events = |churn: &str| {
            FuzzCase::from_json(&format!(
                r#"{{"ranks": 4, "hot": 1, "tasks_per_hot": 2, "churn": [{churn}]}}"#
            ))
        };
        // Both or neither of join/drain is ambiguous; a deadline on a
        // join is a typo; a fractional node id is no node id.
        for bad in [
            r#"{"at": 0.5, "join": 9, "drain": 3}"#,
            r#"{"at": 0.5}"#,
            r#"{"at": 0.5, "join": 9, "deadline": 1}"#,
            r#"{"at": 0.5, "join": 1.5}"#,
        ] {
            assert!(events(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn clean_cases_audit_clean() {
        // A modest smoke over the first few generated cases: main must
        // be violation-free (the 500-case budget runs in `chaos_fuzz`).
        for i in 0..12 {
            let case = gen_case(0xF0_22, i);
            let rep = run_case(&case);
            assert!(
                rep.is_clean(),
                "case {i} ({}) violated: {:?}\n{}",
                case.seed,
                rep.violations,
                case.to_json()
            );
        }
    }

    #[test]
    fn injected_bug_is_detected_and_shrinks() {
        // Find a generated case whose plan carries a link fault, inject
        // the lose-on-link bug, and shrink.
        let mut found = None;
        for i in 0..200 {
            let mut case = gen_case(0xBEEF, i);
            if case.elastic_steps == 0 && !case.plan.links.is_empty() {
                case.inject_bug = Some(InjectedBug::LoseOnLink);
                let rep = run_case(&case);
                if rep.violated(Invariant::TaskConservation) {
                    found = Some(case);
                    break;
                }
            }
        }
        let case = found.expect("some generated case triggers the injected bug");
        let shrunk = shrink(&case, Invariant::TaskConservation, 300);
        assert!(shrunk.case.validate().is_ok());
        assert!(run_case(&shrunk.case).violated(Invariant::TaskConservation));
        assert!(
            shrunk.case.fault_event_count() <= 5,
            "minimized to {} events:\n{}",
            shrunk.case.fault_event_count(),
            shrunk.case.to_json()
        );
        // Deterministic replay: the minimized case file round-trips and
        // still violates the same invariant.
        let replayed = FuzzCase::from_json(&shrunk.case.to_json()).unwrap();
        assert!(run_case(&replayed).violated(Invariant::TaskConservation));
    }
}
