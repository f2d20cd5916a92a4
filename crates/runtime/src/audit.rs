//! Run-wide safety auditor: machine-checkable global invariants over a
//! distributed LB run.
//!
//! The chaos grids assert scenario-specific gates; this module checks
//! the *universal* safety properties every run must uphold, whatever
//! the fault plan (cf. DESIGN.md §16):
//!
//! 1. **Task conservation** — every indivisible task has exactly one
//!    live owner at the committed placement, across migrations, drains,
//!    crashes, and joins. Committing ranks of the authoritative
//!    (highest) view generation may never claim a task twice, and a
//!    task may vanish from every live rank only when the plan actually
//!    crashed something (the balancer does not restore the tasks a dead
//!    rank owned).
//! 2. **Epoch & generation monotonicity** — each rank's committed
//!    epochs strictly increase, and its fenced view generation never
//!    moves backwards across view changes, parks, and heals.
//! 3. **Quorum before commit** — under a quorum-gated configuration
//!    ([`LbProtocolConfig::partition`]), no rank commits from a view
//!    without a live majority (split-brain prevention).
//! 4. **No acked-then-lost delivery** — a sequence number a peer
//!    acknowledged must appear in that peer's seen-set: an ack for a
//!    message the receiver never processed is forged or misrouted.
//! 5. **Termination soundness** — when a rank first learns that epoch
//!    *e* terminated, no basic message of *e* bound for a live member of
//!    its view is still unprocessed: not in flight (a retransmission of
//!    an unprocessed frame included), not lost awaiting one, not in an
//!    engine's `buffered` list. Delivery ledgers are dropped at that
//!    moment, so an early declaration would turn a real frame into a
//!    "duplicate".
//!
//! The auditor consumes only artifacts the existing layers already
//! produce — per-rank final claims, the obs event stream, and the
//! reliable channel's delivery ledgers — so every driver gets it for
//! free, and a violation surfaces as a structured [`Violation`] report
//! rather than a panic mid-run (which is what makes mechanical
//! counterexample shrinking possible; see `crate::fuzz`). The one
//! exception is termination soundness, which needs global ground truth
//! at the instant of each declaration: an audited simulator run keeps a
//! [`TerminationLedger`] that every rank writes to.

use crate::fault::FaultPlan;
use crate::lb::{DeliveryAudit, LbProtocolConfig, LbRank, TaskEntry};
use crate::reliable::SeqSetView;
use crate::sim::NetworkModel;
use crate::termination::EpochSends;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::{Arc, Mutex};
use tempered_core::distribution::Distribution;
use tempered_core::ids::{RankId, TaskId};
use tempered_core::rng::RngFactory;
use tempered_obs::{EventKind, Recorder, Trace};

/// A safety invariant the auditor checks.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Invariant {
    /// Exactly one live owner per task at the committed placement.
    TaskConservation,
    /// Committed epochs strictly increase and fenced generations never
    /// regress on any rank.
    EpochMonotonicity,
    /// No commit from a quorum-less view when quorum gating is on.
    QuorumBeforeCommit,
    /// Every acknowledged sequence number was actually processed.
    AckedDelivery,
    /// No basic message of an epoch was unprocessed when a rank learned
    /// the epoch terminated.
    TerminationSoundness,
}

impl Invariant {
    /// Stable machine name (used in case files and CSV summaries).
    pub fn name(&self) -> &'static str {
        match self {
            Invariant::TaskConservation => "task_conservation",
            Invariant::EpochMonotonicity => "epoch_monotonicity",
            Invariant::QuorumBeforeCommit => "quorum_before_commit",
            Invariant::AckedDelivery => "acked_delivery",
            Invariant::TerminationSoundness => "termination_soundness",
        }
    }

    /// Inverse of [`Invariant::name`].
    pub fn from_name(s: &str) -> Option<Invariant> {
        match s {
            "task_conservation" => Some(Invariant::TaskConservation),
            "epoch_monotonicity" => Some(Invariant::EpochMonotonicity),
            "quorum_before_commit" => Some(Invariant::QuorumBeforeCommit),
            "acked_delivery" => Some(Invariant::AckedDelivery),
            "termination_soundness" => Some(Invariant::TerminationSoundness),
            _ => None,
        }
    }
}

impl fmt::Display for Invariant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One observed invariant violation.
#[derive(Clone, Debug)]
pub struct Violation {
    /// The invariant that failed.
    pub invariant: Invariant,
    /// The rank the violation surfaced on, when attributable.
    pub rank: Option<RankId>,
    /// Human-readable specifics (task id, epochs, seqs, ...).
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.rank {
            Some(r) => write!(f, "[{}] violation on {r}: {}", self.invariant, self.detail),
            None => write!(f, "[{}] violation: {}", self.invariant, self.detail),
        }
    }
}

/// What the auditor concluded about one run.
#[derive(Clone, Debug, Default)]
pub struct AuditReport {
    /// Every violation found (empty on a clean run).
    pub violations: Vec<Violation>,
    /// `Committed` events inspected.
    pub committed_events: usize,
    /// Input tasks checked for conservation.
    pub checked_tasks: usize,
    /// Directed delivery ledgers compared.
    pub delivery_pairs: usize,
    /// Termination declarations checked against ground truth (zero when
    /// the driver kept none).
    pub terminations: usize,
    /// The obs rings overflowed, so the trace-based checks (epoch
    /// monotonicity, quorum-before-commit) were skipped: drop-oldest
    /// truncation would turn missing history into false positives.
    pub trace_truncated: bool,
}

impl AuditReport {
    /// No violations found.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Whether `inv` is among the violations.
    pub fn violated(&self, inv: Invariant) -> bool {
        self.violations.iter().any(|v| v.invariant == inv)
    }

    /// The first violation's invariant, if any (the one the shrinker
    /// pins).
    pub fn first_invariant(&self) -> Option<Invariant> {
        self.violations.first().map(|v| v.invariant)
    }
}

/// One rank's end-of-run claims, as the auditor sees them.
#[derive(Clone, Debug)]
pub struct RankClaims {
    /// The rank's final task set (raw, uncollapsed).
    pub tasks: Vec<TaskEntry>,
    /// Whether the protocol reached Done on this rank (a crashed rank
    /// never finishes — its claims are a corpse's memory).
    pub finished: bool,
    /// Whether the rank abandoned the protocol and reverted.
    pub degraded: bool,
    /// Whether the rank sat out the run parked (quorum-less minority).
    pub parked: bool,
    /// Fenced generation of the view the rank ended the run holding.
    pub generation: u64,
}

impl From<&LbRank> for RankClaims {
    fn from(r: &LbRank) -> Self {
        RankClaims {
            tasks: r.final_tasks().to_vec(),
            finished: r.finished(),
            degraded: r.degraded(),
            parked: r.parked(),
            generation: r.view().generation(),
        }
    }
}

/// One rank learning that an epoch terminated while basic messages of
/// the epoch were still unprocessed.
#[derive(Clone, Debug, PartialEq)]
pub struct EarlyDeclaration {
    /// The rank that learned it.
    pub rank: RankId,
    /// The epoch it learned had terminated.
    pub epoch: u64,
    /// When, in virtual seconds.
    pub at: f64,
    /// Receivers in the rank's view with unprocessed basic messages of
    /// the epoch, and how many each.
    pub pending: Vec<(RankId, u64)>,
}

/// How one epoch's termination was detected, as an audited run saw it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EpochDetection {
    /// The epoch.
    pub epoch: u64,
    /// How the epoch sent, and the waves its coordinator launched before
    /// declaring it; `None` when no wave ran (a sole survivor declares
    /// at its kick).
    pub waves: Option<(EpochSends, u64)>,
    /// Virtual seconds from ground-truth quiescence — the epoch's last
    /// basic message processed — to the first declaration; `None` when
    /// the epoch moved no basic message.
    pub lag: Option<f64>,
}

/// Ground truth for [`Invariant::TerminationSoundness`]: per (basic
/// epoch, receiver), the basic messages sent and not yet processed —
/// counted where the engine sends one and where it dispatches one, so
/// neither a retransmission nor a duplicate copy counts twice, and a
/// buffered message counts as pending — plus every declaration made
/// while anything was. It also times each epoch's detection
/// ([`EpochDetection`]).
///
/// One ledger is shared by every rank of an audited simulator run
/// ([`capture_lb_run`]); a rank without one pays nothing.
#[derive(Debug, Default)]
pub struct TerminationLedger {
    unprocessed: BTreeMap<(u64, RankId), u64>,
    declarations: usize,
    early: Vec<EarlyDeclaration>,
    /// Per epoch: when its last basic message so far was processed.
    last_processed: BTreeMap<u64, f64>,
    /// Per epoch: when a rank first learned it terminated.
    first_declared: BTreeMap<u64, f64>,
    /// Per epoch: how it sent, and its coordinator's wave count.
    waves: BTreeMap<u64, (EpochSends, u64)>,
}

/// A [`TerminationLedger`] as the ranks of one run share it.
pub type SharedTerminationLedger = Arc<Mutex<TerminationLedger>>;

impl TerminationLedger {
    /// A basic message of `epoch` left for `to`.
    pub fn sent(&mut self, epoch: u64, to: RankId) {
        *self.unprocessed.entry((epoch, to)).or_default() += 1;
    }

    /// `rank` processed a basic message of `epoch` at `at`.
    pub fn processed(&mut self, epoch: u64, rank: RankId, at: f64) {
        self.last_processed.insert(epoch, at);
        if let Some(n) = self.unprocessed.get_mut(&(epoch, rank)) {
            *n -= 1;
            if *n == 0 {
                self.unprocessed.remove(&(epoch, rank));
            }
        }
    }

    /// `rank`, whose view fences `dead`, learned at `at` that `epoch`
    /// terminated.
    pub fn declared(&mut self, rank: RankId, epoch: u64, at: f64, dead: &BTreeSet<RankId>) {
        self.declarations += 1;
        self.first_declared.entry(epoch).or_insert(at);
        let pending: Vec<(RankId, u64)> = self
            .unprocessed
            .range((epoch, RankId(0))..=(epoch, RankId(u32::MAX)))
            .map(|(&(_, to), &n)| (to, n))
            .filter(|(to, _)| !dead.contains(to))
            .collect();
        if !pending.is_empty() {
            self.early.push(EarlyDeclaration {
                rank,
                epoch,
                at,
                pending,
            });
        }
    }

    /// The coordinator declared `epoch`, which sent as `sends`, after
    /// launching `waves` waves.
    pub fn detected(&mut self, epoch: u64, sends: EpochSends, waves: u64) {
        self.waves.insert(epoch, (sends, waves));
    }
}

/// What a run's [`TerminationLedger`] concluded.
#[derive(Clone, Debug, Default)]
pub struct TerminationTruth {
    /// Declarations checked.
    pub declarations: usize,
    /// The declarations made while something was still pending.
    pub early: Vec<EarlyDeclaration>,
    /// Every declared epoch's detection, in epoch order.
    pub epochs: Vec<EpochDetection>,
}

impl From<&SharedTerminationLedger> for TerminationTruth {
    fn from(ledger: &SharedTerminationLedger) -> Self {
        let ledger = ledger.lock().unwrap_or_else(|e| e.into_inner());
        TerminationTruth {
            declarations: ledger.declarations,
            early: ledger.early.clone(),
            epochs: ledger
                .first_declared
                .iter()
                .map(|(&epoch, &at)| EpochDetection {
                    epoch,
                    waves: ledger.waves.get(&epoch).copied(),
                    lag: ledger.last_processed.get(&epoch).map(|&t| at - t),
                })
                .collect(),
        }
    }
}

/// Everything the auditor consumes about one run, whichever driver ran
/// it. Split from the audit itself so tests (and the fuzzer's
/// injected-bug fixtures) can mutate the artifacts before auditing.
#[derive(Clone, Debug)]
pub struct LbRunArtifacts {
    /// Per-rank claims, indexed by rank id.
    pub claims: Vec<RankClaims>,
    /// Per-rank delivery ledgers (`None` for best-effort ranks).
    pub delivery: Vec<Option<DeliveryAudit>>,
    /// The recorded obs event stream.
    pub trace: Trace,
    /// Whether every rank that could finish did (the driver's own
    /// verdict: `SimReport::completed`, `ParallelReport::completed`, …).
    /// An incomplete run excuses a task with no live owner.
    pub completed: bool,
    /// Termination ground truth, when the driver kept it (the simulator
    /// under [`capture_lb_run`]).
    pub termination: Option<TerminationTruth>,
}

impl LbRunArtifacts {
    /// The artifacts of a finished run: `ranks` as the driver handed
    /// them back (index = rank id), the `trace` their recorder took, and
    /// the driver's completion verdict.
    pub fn from_ranks(ranks: &[LbRank], trace: Trace, completed: bool) -> Self {
        LbRunArtifacts {
            claims: ranks.iter().map(RankClaims::from).collect(),
            delivery: ranks.iter().map(LbRank::delivery_audit).collect(),
            trace,
            completed,
            termination: None,
        }
    }
}

/// Execute the protocol over `dist` in the deterministic simulator
/// under `plan`, capturing the artifacts the auditor needs. Unlike
/// [`crate::run_distributed_lb_with_faults`] this never asserts —
/// conservation problems come back as data.
pub fn capture_lb_run(
    dist: &Distribution,
    cfg: LbProtocolConfig,
    model: NetworkModel,
    factory: &RngFactory,
    plan: FaultPlan,
) -> LbRunArtifacts {
    capture_lb_run_with(dist, cfg, model, factory, plan).0
}

/// [`capture_lb_run`], also handing back the finished ranks and the
/// executor report.
fn capture_lb_run_with(
    dist: &Distribution,
    cfg: LbProtocolConfig,
    model: NetworkModel,
    factory: &RngFactory,
    plan: FaultPlan,
) -> (LbRunArtifacts, Vec<LbRank>, crate::sim::SimReport) {
    let recorder = Recorder::enabled(dist.num_ranks());
    let ledger = SharedTerminationLedger::default();
    let (ranks, report) = crate::lb::run_lb_ranks(
        dist,
        cfg,
        model,
        factory,
        plan,
        recorder.clone(),
        Some(&ledger),
    );
    let mut art = LbRunArtifacts::from_ranks(&ranks, recorder.snapshot(), report.completed);
    art.termination = Some(TerminationTruth::from(&ledger));
    (art, ranks, report)
}

/// [`crate::run_distributed_lb_with_faults`] under the auditor: the
/// run's result and what the auditor found. Recording never touches a
/// random stream, so the result is the unaudited run's, bit for bit.
pub fn run_audited(
    dist: &Distribution,
    cfg: LbProtocolConfig,
    model: NetworkModel,
    factory: &RngFactory,
    plan: FaultPlan,
) -> (crate::lb::DistLbResult, AuditReport) {
    let fault_free = plan.crashes.is_empty() && plan.links_zero();
    let (art, ranks, report) = capture_lb_run_with(dist, cfg, model, factory, plan.clone());
    let rep = audit_artifacts(dist, &cfg, &plan, &art);
    (crate::lb::collapse(dist, &ranks, report, fault_free), rep)
}

/// Check every invariant against captured artifacts.
pub fn audit_artifacts(
    input: &Distribution,
    cfg: &LbProtocolConfig,
    plan: &FaultPlan,
    art: &LbRunArtifacts,
) -> AuditReport {
    let mut rep = AuditReport::default();
    audit_conservation(input, plan, art, &mut rep);
    audit_trace(cfg, art, &mut rep);
    audit_delivery(art, &mut rep);
    audit_termination(plan, art, &mut rep);
    rep
}

/// Termination soundness: every early declaration is a violation, except
/// for messages bound for a rank the plan had crashed at that instant —
/// those are never processed, and the view that fences the corpse
/// abandons their epoch.
fn audit_termination(plan: &FaultPlan, art: &LbRunArtifacts, rep: &mut AuditReport) {
    let Some(truth) = &art.termination else {
        return;
    };
    rep.terminations += truth.declarations;
    let down = |r: RankId, at: f64| plan.crashes.iter().any(|c| c.rank == r && c.down_at(at));
    for d in &truth.early {
        let live: Vec<&(RankId, u64)> = d.pending.iter().filter(|(r, _)| !down(*r, d.at)).collect();
        if let Some(&&(to, n)) = live.first() {
            rep.violations.push(Violation {
                invariant: Invariant::TerminationSoundness,
                rank: Some(d.rank),
                detail: format!(
                    "rank {} learned at t={:.6} s that epoch {} terminated, with {n} basic \
                     message(s) of it still unprocessed at rank {to} ({} receiver(s) pending)",
                    d.rank,
                    d.at,
                    d.epoch,
                    live.len()
                ),
            });
        }
    }
}

/// Task conservation over the raw per-rank claims.
///
/// Claims are grouped by the claimant's standing: *committing* ranks
/// (finished, not degraded, not parked) of the authoritative — highest
/// — generation are the run's answer, and a duplicate inside that group
/// is always a violation. Duplicates that involve an older generation,
/// a parked minority, or a degraded revert are the documented
/// consequence of crashes, partitions, and unilateral reverts, so they
/// are excused exactly when the plan (or the run's outcome) exhibits
/// one of those causes. A task with no live claimant at all is excused
/// only when something actually died mid-run.
fn audit_conservation(
    input: &Distribution,
    plan: &FaultPlan,
    art: &LbRunArtifacts,
    rep: &mut AuditReport,
) {
    let crashes = !plan.crashes.is_empty();
    let split = !plan.partitions.is_empty() || !plan.links.is_empty();
    let degraded_any = art.claims.iter().any(|c| c.finished && c.degraded);
    let messy = crashes || split || degraded_any;

    let authoritative_gen = art
        .claims
        .iter()
        .filter(|c| c.finished && !c.degraded && !c.parked)
        .map(|c| c.generation)
        .max();

    // task id -> claimant rank indices (over every rank, corpses too).
    let mut owners: BTreeMap<TaskId, Vec<usize>> = BTreeMap::new();
    for (p, c) in art.claims.iter().enumerate() {
        for t in &c.tasks {
            owners.entry(t.id).or_default().push(p);
        }
    }

    for rank in input.rank_ids() {
        for task in input.tasks_on(rank) {
            rep.checked_tasks += 1;
            let claimants = owners.get(&task.id).map(Vec::as_slice).unwrap_or(&[]);
            let live: Vec<usize> = claimants
                .iter()
                .copied()
                .filter(|&p| art.claims[p].finished)
                .collect();
            let authoritative: Vec<usize> = live
                .iter()
                .copied()
                .filter(|&p| {
                    let c = &art.claims[p];
                    !c.degraded && !c.parked && Some(c.generation) == authoritative_gen
                })
                .collect();
            if authoritative.len() > 1 {
                rep.violations.push(Violation {
                    invariant: Invariant::TaskConservation,
                    rank: Some(RankId::from(authoritative[1])),
                    detail: format!(
                        "task {:?} claimed by {} committing ranks {:?} of the \
                         authoritative generation {:?}",
                        task.id,
                        authoritative.len(),
                        authoritative,
                        authoritative_gen,
                    ),
                });
                continue;
            }
            if live.len() > 1 && !messy {
                rep.violations.push(Violation {
                    invariant: Invariant::TaskConservation,
                    rank: Some(RankId::from(live[1])),
                    detail: format!(
                        "task {:?} claimed by {} live ranks {:?} on a run with no \
                         crashes, partitions, or degradations to excuse it",
                        task.id,
                        live.len(),
                        live,
                    ),
                });
                continue;
            }
            if live.is_empty() {
                // Corpse-only claims (or none at all): the balancer has
                // lost the task unless something really died.
                let lost_excused = crashes || degraded_any || !art.completed;
                if !lost_excused {
                    rep.violations.push(Violation {
                        invariant: Invariant::TaskConservation,
                        rank: None,
                        detail: format!(
                            "task {:?} (home {rank}) has no live owner and nothing \
                             crashed or degraded to excuse the loss",
                            task.id,
                        ),
                    });
                }
            }
        }
    }
}

/// Epoch/generation monotonicity and quorum-before-commit, from the
/// recorded event stream. Skipped entirely when any obs ring dropped
/// events: with history missing, "regression" cannot be distinguished
/// from truncation.
fn audit_trace(cfg: &LbProtocolConfig, art: &LbRunArtifacts, rep: &mut AuditReport) {
    if art.trace.dropped_events > 0 {
        rep.trace_truncated = true;
        return;
    }
    let quorum_gated = cfg.partition.is_some();
    // last committed epoch / last seen generation, per rank.
    let mut last_epoch: BTreeMap<u32, u64> = BTreeMap::new();
    let mut last_gen: BTreeMap<u32, u64> = BTreeMap::new();
    let mut bump_gen = |rank: u32, generation: u64, what: &str, violations: &mut Vec<Violation>| {
        let prev = last_gen.entry(rank).or_insert(generation);
        if generation < *prev {
            violations.push(Violation {
                invariant: Invariant::EpochMonotonicity,
                rank: Some(RankId::from(rank as usize)),
                detail: format!(
                    "{what} carries generation {generation}, behind the rank's \
                     fenced generation {prev}"
                ),
            });
        } else {
            *prev = generation;
        }
    };
    for ev in &art.trace.events {
        match ev.kind {
            EventKind::Committed {
                epoch,
                generation,
                live,
                total,
            } => {
                rep.committed_events += 1;
                if let Some(&prev) = last_epoch.get(&ev.rank) {
                    if epoch <= prev {
                        rep.violations.push(Violation {
                            invariant: Invariant::EpochMonotonicity,
                            rank: Some(RankId::from(ev.rank as usize)),
                            detail: format!(
                                "commit epoch {epoch} does not advance past the \
                                 previous commit epoch {prev}"
                            ),
                        });
                    }
                }
                last_epoch.insert(ev.rank, epoch);
                bump_gen(ev.rank, generation, "commit", &mut rep.violations);
                if quorum_gated && 2 * u64::from(live) <= u64::from(total) {
                    rep.violations.push(Violation {
                        invariant: Invariant::QuorumBeforeCommit,
                        rank: Some(RankId::from(ev.rank as usize)),
                        detail: format!(
                            "commit at epoch {epoch} from a view with {live}/{total} \
                             live ranks (no majority)"
                        ),
                    });
                }
            }
            EventKind::ViewChange { generation, .. } => {
                bump_gen(
                    ev.rank,
                    u64::from(generation),
                    "view change",
                    &mut rep.violations,
                );
            }
            EventKind::Parked { generation } => {
                bump_gen(ev.rank, u64::from(generation), "park", &mut rep.violations);
            }
            EventKind::Healed { generation } => {
                bump_gen(ev.rank, u64::from(generation), "heal", &mut rep.violations);
            }
            _ => {}
        }
    }
}

/// First member of `acked` missing from `seen`, if any.
fn subset_violation(acked: &SeqSetView, seen: &SeqSetView) -> Option<u64> {
    for s in seen.watermark + 1..=acked.watermark {
        if !seen.contains(s) {
            return Some(s);
        }
    }
    acked.sparse.iter().copied().find(|&s| !seen.contains(s))
}

/// No-acked-then-lost: whatever `b` acknowledged to `a`, `b` must have
/// accepted — per scope: the control traffic's ledger, and each basic
/// epoch's. Compares the sender-side acked ledger against the
/// receiver-side seen ledger for every directed pair and scope that kept
/// ledgers; `delivery_pairs` counts the directed pairs.
fn audit_delivery(art: &LbRunArtifacts, rep: &mut AuditReport) {
    let seen_of = |rank: usize, scope: Option<u64>, peer: RankId| -> Option<&SeqSetView> {
        art.delivery.get(rank)?.as_ref().and_then(|da| {
            da.seen
                .binary_search_by_key(&(scope, peer), |&(s, r, _)| (s, r))
                .ok()
                .map(|i| &da.seen[i].2)
        })
    };
    // Whether `rank` closed `scope` without keeping its ledgers.
    let forgotten = |rank: usize, scope: Option<u64>| {
        let da = art.delivery.get(rank).and_then(Option::as_ref);
        matches!((scope, da.and_then(|da| da.forgotten)), (Some(e), Some(f)) if e <= f)
    };
    let mut pairs = BTreeSet::new();
    for (a, da) in art.delivery.iter().enumerate() {
        let Some(da) = da else { continue };
        for (scope, b, acked) in &da.acked {
            if forgotten(b.as_usize(), *scope) {
                continue;
            }
            pairs.insert((a, *b));
            let empty = SeqSetView::default();
            let seen = seen_of(b.as_usize(), *scope, RankId::from(a)).unwrap_or(&empty);
            if let Some(seq) = subset_violation(acked, seen) {
                let scope = match scope {
                    Some(e) => format!("epoch {e}"),
                    None => "control".to_string(),
                };
                rep.violations.push(Violation {
                    invariant: Invariant::AckedDelivery,
                    rank: Some(*b),
                    detail: format!(
                        "rank {b} acknowledged seq {seq} ({scope}) from rank {a} but \
                         never accepted it"
                    ),
                });
            }
        }
    }
    rep.delivery_pairs += pairs.len();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::CrashEvent;
    use crate::health::HealthConfig;
    use crate::reliable::RetryConfig;
    use tempered_core::rng::RngFactory;

    fn quick_cfg() -> LbProtocolConfig {
        LbProtocolConfig {
            trials: 1,
            iters: 2,
            fanout: 3,
            rounds: 4,
            ..Default::default()
        }
    }

    #[test]
    fn clean_run_audits_clean() {
        let dist = Distribution::concentrated(8, 2, 10);
        let factory = RngFactory::new(7);
        let cfg = quick_cfg().hardened(RetryConfig::default());
        let plan = FaultPlan::none();
        let art = capture_lb_run(&dist, cfg, NetworkModel::default(), &factory, plan.clone());
        let rep = audit_artifacts(&dist, &cfg, &plan, &art);
        assert!(rep.is_clean(), "violations: {:?}", rep.violations);
        assert!(rep.committed_events > 0);
        assert!(rep.delivery_pairs > 0);
        assert_eq!(rep.checked_tasks, 20);
        // Every rank learns every epoch's termination: setup has none,
        // 2 iterations × (4 gossip rounds + proposals) at most, commit.
        assert!(rep.terminations >= 8 * 3, "{}", rep.terminations);
        assert!(art.completed);
    }

    #[test]
    fn an_audited_run_times_every_epochs_detection() {
        let dist = Distribution::concentrated(8, 2, 10);
        let cfg = quick_cfg().hardened(RetryConfig::default());
        let art = capture_lb_run(
            &dist,
            cfg,
            NetworkModel::default(),
            &RngFactory::new(11),
            FaultPlan::none(),
        );
        let truth = art.termination.as_ref().expect("audited");
        let (mut entry_only, mut reply) = (0, 0);
        for e in &truth.epochs {
            let (sends, waves) = e.waves.expect("eight ranks launch a wave");
            // A two-wave epoch needs a confirming wave.
            let least = match sends {
                EpochSends::EntryOnly => {
                    entry_only += 1;
                    1
                }
                EpochSends::Replies => {
                    reply += 1;
                    2
                }
            };
            assert!(waves >= least, "{e:?}");
            assert!(e.lag.is_none_or(|lag| lag >= 0.0), "{e:?}");
        }
        // Gossip rounds and proposals are entry-only; the commit is not.
        assert_eq!(reply, 1);
        assert!(entry_only >= 2 * 2, "{entry_only}");
        // The observed run counts the same waves.
        let hist = |name| art.trace.metrics.histogram(name).map_or(0, |h| h.count);
        assert_eq!(hist("lb.td.waves.entry_only"), entry_only);
        assert_eq!(hist("lb.td.waves.reply"), reply);
    }

    #[test]
    fn a_declaration_with_a_message_unprocessed_is_a_termination_violation() {
        let (a, b) = (RankId(0), RankId(1));
        let mut ledger = TerminationLedger::default();
        ledger.sent(5, b);
        ledger.sent(5, b);
        ledger.processed(5, b, 0.25);
        // One of rank 1's two epoch-5 messages is still unprocessed.
        ledger.declared(a, 5, 1.0, &BTreeSet::new());
        // Another epoch, or a receiver the view fences, does not count.
        ledger.sent(6, a);
        ledger.declared(b, 7, 1.0, &BTreeSet::new());
        ledger.declared(a, 6, 1.0, &BTreeSet::from([a]));
        let truth = TerminationTruth::from(&Arc::new(Mutex::new(ledger)));
        assert_eq!(truth.declarations, 3);
        assert_eq!(
            truth.early,
            vec![EarlyDeclaration {
                rank: a,
                epoch: 5,
                at: 1.0,
                pending: vec![(b, 1)],
            }]
        );
        // Epoch 5 is timed from its last processed message; epochs 6 and
        // 7 processed none.
        let lags: Vec<(u64, Option<f64>)> = truth.epochs.iter().map(|e| (e.epoch, e.lag)).collect();
        assert_eq!(lags, vec![(5, Some(0.75)), (6, None), (7, None)]);
        let dist = Distribution::concentrated(2, 1, 2);
        let cfg = quick_cfg().hardened(RetryConfig::default());
        let mut art = capture_lb_run(
            &dist,
            cfg,
            NetworkModel::default(),
            &RngFactory::new(7),
            FaultPlan::none(),
        );
        art.termination = Some(truth);
        let rep = audit_artifacts(&dist, &cfg, &FaultPlan::none(), &art);
        assert!(rep.violated(Invariant::TerminationSoundness));
        assert_eq!(rep.terminations, 3);
        // A receiver the plan had crashed at that instant excuses it.
        let mut plan = FaultPlan::none();
        plan.crashes = vec![CrashEvent::with_restart(b, 0.5, 1.0)];
        let rep = audit_artifacts(&dist, &cfg, &plan, &art);
        assert!(!rep.violated(Invariant::TerminationSoundness));
    }

    #[test]
    fn crashed_run_excuses_corpse_homed_tasks() {
        let dist = Distribution::concentrated(8, 2, 10);
        let factory = RngFactory::new(7);
        let mut plan = FaultPlan::none();
        plan.crashes = vec![CrashEvent::fatal(RankId(1), 0.0)];
        let cfg = quick_cfg()
            .hardened(RetryConfig::default())
            .crash_tolerant(HealthConfig::default());
        let art = capture_lb_run(&dist, cfg, NetworkModel::default(), &factory, plan.clone());
        let rep = audit_artifacts(&dist, &cfg, &plan, &art);
        assert!(rep.is_clean(), "violations: {:?}", rep.violations);
    }

    /// The auditor over runs the simulator never saw: real threads,
    /// wall-clock stamps, whatever interleaving the scheduler produced.
    /// Conservation and the delivery ledgers are delivery-order
    /// independent by construction. The trace invariants hold here too:
    /// both are per-rank (a rank's commit epochs and fenced generations
    /// against its own earlier ones), so all they need of the clock is
    /// that one rank's stamps never run backwards — which a host's
    /// monotonic `Instant` gives them as surely as virtual time does —
    /// and the snapshot's stable sort keeps same-stamp events of a rank
    /// in the order it recorded them.
    #[test]
    fn threaded_runs_audit_clean_with_and_without_a_fatal_crash() {
        use crate::parallel::{run_parallel_with, ParallelOptions};
        use std::time::Duration;

        let dist = Distribution::concentrated(8, 2, 10);
        // Wall-clock knobs: a scheduler hiccup must not read as a loss or
        // a death (same reasoning as `tempered_bench::sockets`).
        let cfg = quick_cfg()
            .hardened(RetryConfig {
                timeout: 2e-3,
                stage_deadline: 10.0,
                ..RetryConfig::default()
            })
            .crash_tolerant(HealthConfig {
                period: 10e-3,
                suspicion_threshold: 30.0,
                startup_grace: 0.5,
            });
        let mut crashed = FaultPlan::none();
        crashed.crashes = vec![CrashEvent::fatal(RankId(7), 0.0)];
        for plan in [FaultPlan::none(), crashed] {
            let recorder = Recorder::enabled(dist.num_ranks());
            let mut ranks = LbRank::for_dist(&dist, cfg, RngFactory::new(7));
            for rank in &mut ranks {
                rank.set_recorder(recorder.clone());
            }
            let options = ParallelOptions {
                fault_plan: plan.clone(),
                recorder: recorder.clone(),
            };
            let run = run_parallel_with(ranks, 3, Duration::from_secs(20), options);
            assert!(run.completed, "crashes: {:?}", plan.crashes);
            let art = LbRunArtifacts::from_ranks(&run.ranks, recorder.snapshot(), run.completed);
            let rep = audit_artifacts(&dist, &cfg, &plan, &art);
            assert!(rep.is_clean(), "violations: {:?}", rep.violations);
            assert!(!rep.trace_truncated, "the trace invariants were checked");
            assert!(rep.committed_events > 0);
            assert!(rep.delivery_pairs > 0);
            assert_eq!(rep.checked_tasks, 20);
            let corpses = art.claims.iter().filter(|c| !c.finished).count();
            assert_eq!(corpses, plan.crashes.len());
        }
    }

    #[test]
    fn duplicated_claim_is_a_conservation_violation() {
        let dist = Distribution::concentrated(8, 2, 10);
        let factory = RngFactory::new(7);
        let cfg = quick_cfg().hardened(RetryConfig::default());
        let mut art = capture_lb_run(
            &dist,
            cfg,
            NetworkModel::default(),
            &factory,
            FaultPlan::none(),
        );
        // Forge a duplicate: rank 7 also claims rank 0's first task.
        let stolen = art.claims[0].tasks[0];
        art.claims[7].tasks.push(stolen);
        let rep = audit_artifacts(&dist, &cfg, &FaultPlan::none(), &art);
        assert!(rep.violated(Invariant::TaskConservation));
    }

    #[test]
    fn lost_task_is_a_conservation_violation() {
        let dist = Distribution::concentrated(8, 2, 10);
        let factory = RngFactory::new(7);
        let cfg = quick_cfg().hardened(RetryConfig::default());
        let mut art = capture_lb_run(
            &dist,
            cfg,
            NetworkModel::default(),
            &factory,
            FaultPlan::none(),
        );
        // Drop one task from whoever holds it.
        let victim = art.claims[0].tasks[0].id;
        for c in &mut art.claims {
            c.tasks.retain(|t| t.id != victim);
        }
        let rep = audit_artifacts(&dist, &cfg, &FaultPlan::none(), &art);
        assert!(rep.violated(Invariant::TaskConservation));
    }

    #[test]
    fn regressed_epoch_is_a_monotonicity_violation() {
        let dist = Distribution::concentrated(8, 2, 10);
        let factory = RngFactory::new(7);
        let cfg = quick_cfg().hardened(RetryConfig::default());
        let mut art = capture_lb_run(
            &dist,
            cfg,
            NetworkModel::default(),
            &factory,
            FaultPlan::none(),
        );
        // Replay rank 0's committed epoch a second time, not advanced.
        let committed = art
            .trace
            .events
            .iter()
            .find(|e| matches!(e.kind, EventKind::Committed { .. }))
            .copied()
            .expect("a commit was recorded");
        art.trace.events.push(committed);
        let rep = audit_artifacts(&dist, &cfg, &FaultPlan::none(), &art);
        assert!(rep.violated(Invariant::EpochMonotonicity));
    }

    #[test]
    fn quorumless_commit_is_a_violation() {
        let dist = Distribution::concentrated(8, 2, 10);
        let factory = RngFactory::new(7);
        let cfg = quick_cfg()
            .hardened(RetryConfig::default())
            .crash_tolerant(HealthConfig::default())
            .partition_tolerant(crate::lb::PartitionConfig::quick());
        let mut art = capture_lb_run(
            &dist,
            cfg,
            NetworkModel::default(),
            &factory,
            FaultPlan::none(),
        );
        for ev in &mut art.trace.events {
            if let EventKind::Committed { live, .. } = &mut ev.kind {
                *live = 1;
            }
        }
        let rep = audit_artifacts(&dist, &cfg, &FaultPlan::none(), &art);
        assert!(rep.violated(Invariant::QuorumBeforeCommit));
    }

    #[test]
    fn forged_ack_is_a_delivery_violation() {
        let dist = Distribution::concentrated(8, 2, 10);
        let factory = RngFactory::new(7);
        let cfg = quick_cfg().hardened(RetryConfig::default());
        let mut art = capture_lb_run(
            &dist,
            cfg,
            NetworkModel::default(),
            &factory,
            FaultPlan::none(),
        );
        // Rank 0 "hears" an ack for a seq its peer never saw.
        let da = art.delivery[0].as_mut().expect("reliable mode");
        let (_, _, acked) = da.acked.first_mut().expect("some peer acked");
        acked.sparse.push(acked.watermark + 1_000_000);
        let rep = audit_artifacts(&dist, &cfg, &FaultPlan::none(), &art);
        assert!(rep.violated(Invariant::AckedDelivery));
    }
}
