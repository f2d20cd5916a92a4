//! Seed-deterministic fault plans for the message-passing executors.
//!
//! A [`FaultPlan`] describes an adverse network for one protocol run:
//! per-message drop, duplication, reorder and heavy-tailed delay-spike
//! probabilities, per-rank straggler slowdowns, transient per-rank pause
//! windows, crash-stop failures, directed link faults and partition
//! windows. This module is what a plan *is* — the plan types, their
//! validation ([`FaultPlan::validate`], [`FaultPlan::validate_for`],
//! [`FaultPlanError`]) and the counters of what was injected
//! ([`FaultStats`]). What a plan *does* is decided in one place,
//! [`crate::emulator::LinkEmulator`], which every executor
//! ([`crate::sim::Simulator`], [`crate::parallel::run_parallel_with`],
//! the TCP driver) owns one of — so a given plan means the same thing
//! under discrete-event simulation, real threads and real sockets.
//! Membership changes between runs are not a fault: they are an elastic
//! scenario's churn timeline ([`crate::elastic::ChurnEvent`]).

use tempered_core::ids::RankId;
use tempered_obs::MetricsRegistry;

/// A transient outage: messages arriving at `rank` during
/// `[from, until)` (seconds — virtual in the simulator, wall-clock from
/// run start in the threaded executor) are held and delivered at
/// `until`. Models a rank that stops processing for a while (GC pause,
/// OS preemption, network partition healing).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PauseWindow {
    /// The paused rank.
    pub rank: RankId,
    /// Window start (inclusive).
    pub from: f64,
    /// Window end (exclusive); deferred messages land here.
    pub until: f64,
}

/// A crash-stop failure: `rank` dies at time `at` (seconds — virtual in
/// the simulator, wall-clock from run start in the threaded executor).
/// Every message addressed to the rank from then on is discarded, its
/// timers never fire, and the executors treat it as finished.
///
/// With `restart_after = Some(d)` the rank comes back at `at + d` and
/// deliveries resume. The executors model a *warm* restart — the rank's
/// in-memory protocol state survives, so a restart before the failure
/// detector fires looks like a blackout the reliable layer can mask.
/// A rank that stays dead takes its state with it: the LB layer does
/// not restore a corpse's tasks, and the survivors balance what they
/// still hold.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CrashEvent {
    /// The crashing rank.
    pub rank: RankId,
    /// Crash time (seconds, inclusive: deliveries at `at` are dropped).
    pub at: f64,
    /// Downtime before a warm restart; `None` means the rank stays dead.
    pub restart_after: Option<f64>,
}

impl CrashEvent {
    /// A rank that dies at `at` and never comes back.
    pub fn fatal(rank: RankId, at: f64) -> Self {
        CrashEvent {
            rank,
            at,
            restart_after: None,
        }
    }

    /// A rank that dies at `at` and warm-restarts `downtime` seconds
    /// later with its in-memory state intact (deliveries during the
    /// outage are lost for good).
    pub fn with_restart(rank: RankId, at: f64, downtime: f64) -> Self {
        CrashEvent {
            rank,
            at,
            restart_after: Some(downtime),
        }
    }
}

/// What a matching [`LinkFault`] does to traffic on the link.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum LinkFaultKind {
    /// The link is severed: every message on it is dropped.
    Cut,
    /// Gray link: each message is independently dropped with probability
    /// `p` (drawn from the link-fault hash stream, never the model RNG).
    Lossy {
        /// Per-message drop probability in `[0, 1]`.
        p: f64,
    },
    /// Congested link: nominal latency is multiplied by `factor` (≥ 1).
    Delay {
        /// Latency multiplier.
        factor: f64,
    },
    /// Flapping link: deterministically down for the first `duty`
    /// fraction of every `period` seconds (measured from the fault's
    /// `start`), up for the rest. No randomness — the down phases are a
    /// pure function of time.
    Flap {
        /// Flap cycle length in seconds (> 0).
        period: f64,
        /// Fraction of each cycle the link is down, in `[0, 1]`.
        duty: f64,
    },
    /// Bit-rot: each message is independently damaged in flight with
    /// probability `p`. Receivers that checksum their frames detect the
    /// damage and drop the frame ([`FaultStats::corrupted`]); protocols
    /// without a corruption model lose the message outright.
    Corrupt {
        /// Per-message corruption probability in `[0, 1]`.
        p: f64,
    },
}

/// A directed link-level fault: `kind` applies to messages sent from a
/// rank in `src` to a rank in `dst` while the send time lies in
/// `[start, end)` (seconds — virtual in the simulator, wall-clock from
/// run start in the threaded executor). An empty `src`/`dst` set acts as
/// a wildcard. Asymmetric faults are expressed by listing only one
/// direction; the reverse link stays clean unless another fault names it.
#[derive(Clone, Debug, PartialEq)]
pub struct LinkFault {
    /// Source ranks the fault applies to (empty = every rank).
    pub src: Vec<RankId>,
    /// Destination ranks the fault applies to (empty = every rank).
    pub dst: Vec<RankId>,
    /// Window start (inclusive).
    pub start: f64,
    /// Window end (exclusive); `None` means the fault never lifts.
    pub end: Option<f64>,
    /// What the fault does.
    pub kind: LinkFaultKind,
}

impl LinkFault {
    /// Whether the fault's sets match the directed link `from → to`,
    /// ignoring the time window.
    pub(crate) fn matches_link(&self, from: RankId, to: RankId) -> bool {
        (self.src.is_empty() || self.src.contains(&from))
            && (self.dst.is_empty() || self.dst.contains(&to))
    }

    /// Whether the window covers send time `now`.
    pub(crate) fn active_at(&self, now: f64) -> bool {
        now >= self.start && self.end.is_none_or(|e| now < e)
    }

    /// Whether the kind consumes draws from the link-fault hash stream.
    /// Draws are made for every message on a matching link *regardless of
    /// the window*, so the stream stays aligned however the windows are
    /// placed.
    pub(crate) fn is_probabilistic(&self) -> bool {
        matches!(
            self.kind,
            LinkFaultKind::Lossy { .. } | LinkFaultKind::Corrupt { .. }
        )
    }
}

/// A full network partition over a time window: the ranks in `side` are
/// isolated from everyone else — traffic crossing the bipartition in
/// *either* direction is cut while the send time lies in `[start, end)`.
/// Traffic within each component flows normally.
#[derive(Clone, Debug, PartialEq)]
pub struct PartitionWindow {
    /// One component of the bipartition (the other is its complement).
    pub side: Vec<RankId>,
    /// Window start (inclusive).
    pub start: f64,
    /// Window end (exclusive); `None` means the partition never heals.
    pub end: Option<f64>,
}

impl PartitionWindow {
    /// Whether the partition severs the directed link `from → to` at
    /// send time `now`.
    pub(crate) fn cuts(&self, from: RankId, to: RankId, now: f64) -> bool {
        if now < self.start || self.end.is_some_and(|e| now >= e) {
            return false;
        }
        self.side.contains(&from) != self.side.contains(&to)
    }
}

/// An invalid [`FaultPlan`] parameter, reported by [`FaultPlan::validate`].
#[derive(Clone, Debug, PartialEq)]
pub enum FaultPlanError {
    /// A per-message probability lies outside `[0, 1]`.
    ProbabilityOutOfRange {
        /// Field name (`"drop"`, `"duplicate"`, ...).
        field: &'static str,
        /// The offending value.
        value: f64,
    },
    /// `delay_spike_scale` or `reorder_factor` is below 1 or not finite.
    FactorBelowOne {
        /// Field name.
        field: &'static str,
        /// The offending value.
        value: f64,
    },
    /// A straggler latency factor is below 1 or not finite.
    StragglerBelowOne {
        /// The rank the factor applies to.
        rank: RankId,
        /// The offending factor.
        factor: f64,
    },
    /// A pause window is inverted, starts before time zero, or has a
    /// non-finite bound.
    MalformedPause(PauseWindow),
    /// A crash event has a negative or non-finite time or restart delay.
    MalformedCrash(CrashEvent),
    /// Two crash events name the same rank.
    DuplicateCrash(RankId),
    /// A link fault has an inverted or non-finite window, a probability
    /// outside `[0, 1]`, a delay factor below 1, a non-positive flap
    /// period, or a non-finite factor or period.
    MalformedLinkFault(LinkFault),
    /// A partition window is inverted, starts before time zero, or has a
    /// non-finite bound.
    MalformedPartition(PartitionWindow),
    /// A crash, straggler, pause, link fault or partition names a rank
    /// outside the run's roster `0..ranks`: it would silently apply to
    /// nobody.
    RankOutOfRange {
        /// The plan dimension naming the rank (`"crash"`, `"link"`, ...).
        what: &'static str,
        /// The offending rank.
        rank: RankId,
        /// The roster size it must lie below.
        ranks: usize,
    },
}

impl std::fmt::Display for FaultPlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultPlanError::ProbabilityOutOfRange { field, value } => {
                write!(f, "FaultPlan.{field} must be a probability, got {value}")
            }
            FaultPlanError::FactorBelowOne { field, value } => {
                write!(f, "FaultPlan.{field} must be finite and >= 1, got {value}")
            }
            FaultPlanError::StragglerBelowOne { rank, factor } => write!(
                f,
                "straggler factor for {rank} must be finite and >= 1, got {factor}"
            ),
            FaultPlanError::MalformedPause(w) => write!(
                f,
                "pause window for {} is malformed: [{}, {})",
                w.rank, w.from, w.until
            ),
            FaultPlanError::MalformedCrash(c) => write!(
                f,
                "crash of {} is malformed: at {}, restart_after {:?}",
                c.rank, c.at, c.restart_after
            ),
            FaultPlanError::DuplicateCrash(r) => {
                write!(f, "rank {r} appears in more than one crash event")
            }
            FaultPlanError::MalformedLinkFault(l) => write!(
                f,
                "link fault is malformed: [{}, {:?}) {:?}",
                l.start, l.end, l.kind
            ),
            FaultPlanError::MalformedPartition(p) => write!(
                f,
                "partition window is malformed: [{}, {:?}) side {:?}",
                p.start, p.end, p.side
            ),
            FaultPlanError::RankOutOfRange { what, rank, ranks } => write!(
                f,
                "{what} names rank {rank}, outside the run's {ranks} ranks"
            ),
        }
    }
}

impl std::error::Error for FaultPlanError {}

/// Declarative description of the faults to inject into a run.
///
/// All probabilities are per *faultable* message (see
/// [`crate::sim::Protocol::faultable`]) and must lie in `[0, 1]`.
/// [`FaultPlan::none`] — the default — injects nothing and is
/// guaranteed not to perturb the run in any way.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultPlan {
    /// Seed for the fault-decision hash stream (independent of the
    /// experiment master seed).
    pub seed: u64,
    /// Probability a message is silently dropped.
    pub drop: f64,
    /// Probability a (non-dropped) message is delivered twice.
    pub duplicate: f64,
    /// Probability of a heavy-tailed delay spike.
    pub delay_spike: f64,
    /// Spike magnitude: the latency multiplier is drawn from a truncated
    /// Pareto `scale / (1 - 0.99·u)`, i.e. in `[scale, 100·scale]`.
    pub delay_spike_scale: f64,
    /// Probability a message is deliberately held back (reordered past
    /// later traffic).
    pub reorder: f64,
    /// Latency multiplier applied to reordered messages.
    pub reorder_factor: f64,
    /// Per-rank straggler slowdowns: every message to or from the rank
    /// has its latency multiplied by the factor (≥ 1).
    pub stragglers: Vec<(RankId, f64)>,
    /// Transient per-rank outage windows.
    pub pauses: Vec<PauseWindow>,
    /// Crash-stop failures (at most one per rank).
    pub crashes: Vec<CrashEvent>,
    /// Directed link-level faults (cut, lossy, delayed, flapping,
    /// corrupting) over time windows.
    pub links: Vec<LinkFault>,
    /// Full bipartition windows (both directions across the cut are
    /// severed).
    pub partitions: Vec<PartitionWindow>,
}

impl FaultPlan {
    /// The empty plan: no faults, no perturbation.
    pub fn none() -> Self {
        FaultPlan {
            seed: 0,
            drop: 0.0,
            duplicate: 0.0,
            delay_spike: 0.0,
            delay_spike_scale: 1.0,
            reorder: 0.0,
            reorder_factor: 1.0,
            stragglers: Vec::new(),
            pauses: Vec::new(),
            crashes: Vec::new(),
            links: Vec::new(),
            partitions: Vec::new(),
        }
    }

    /// True when the plan can have no observable effect. The emulator
    /// then draws no fate at all, making a zeroed plan bit-identical to
    /// no plan.
    pub fn is_zero(&self) -> bool {
        self.drop == 0.0
            && self.duplicate == 0.0
            && self.delay_spike == 0.0
            && self.reorder == 0.0
            && self.stragglers.iter().all(|&(_, f)| f <= 1.0)
            && self.pauses.is_empty()
            && self.crashes.is_empty()
            && self.links.is_empty()
            && self.partitions.is_empty()
    }

    /// True when the plan contains no link faults and no partitions —
    /// i.e. the link layer of the emulator is inert and a legacy plan's
    /// fate stream is untouched.
    pub fn links_zero(&self) -> bool {
        self.links.is_empty() && self.partitions.is_empty()
    }

    /// Check every parameter, reporting the first offender. A plan that
    /// passes cannot hang or panic an executor: every probability lies
    /// in `[0, 1]`, every latency multiplier (`delay_spike_scale`,
    /// `reorder_factor`, straggler and link-delay factors) is finite and
    /// at least 1 — a factor below 1 can yield a negative latency, an
    /// infinite one an unreachable arrival — and every time is finite
    /// and non-negative. Whether the ranks it names exist is
    /// [`FaultPlan::validate_for`]'s check, which knows the roster.
    pub fn validate(&self) -> Result<(), FaultPlanError> {
        let time_ok = |t: f64| t >= 0.0 && t.is_finite();
        let factor_ok = |f: f64| f >= 1.0 && f.is_finite();
        let window_ok = |start: f64, end: Option<f64>| {
            time_ok(start) && end.is_none_or(|e| e >= start && e.is_finite())
        };
        for (field, value) in [
            ("drop", self.drop),
            ("duplicate", self.duplicate),
            ("delay_spike", self.delay_spike),
            ("reorder", self.reorder),
        ] {
            if !(0.0..=1.0).contains(&value) {
                return Err(FaultPlanError::ProbabilityOutOfRange { field, value });
            }
        }
        for (field, value) in [
            ("delay_spike_scale", self.delay_spike_scale),
            ("reorder_factor", self.reorder_factor),
        ] {
            if !factor_ok(value) {
                return Err(FaultPlanError::FactorBelowOne { field, value });
            }
        }
        for &(rank, factor) in &self.stragglers {
            if !factor_ok(factor) {
                return Err(FaultPlanError::StragglerBelowOne { rank, factor });
            }
        }
        for &w in &self.pauses {
            if !window_ok(w.from, Some(w.until)) {
                return Err(FaultPlanError::MalformedPause(w));
            }
        }
        let mut crashed = std::collections::BTreeSet::new();
        for &c in &self.crashes {
            if !time_ok(c.at) || !c.restart_after.is_none_or(time_ok) {
                return Err(FaultPlanError::MalformedCrash(c));
            }
            if !crashed.insert(c.rank) {
                return Err(FaultPlanError::DuplicateCrash(c.rank));
            }
        }
        for l in &self.links {
            let kind_ok = match l.kind {
                LinkFaultKind::Cut => true,
                LinkFaultKind::Lossy { p } | LinkFaultKind::Corrupt { p } => {
                    (0.0..=1.0).contains(&p)
                }
                LinkFaultKind::Delay { factor } => factor_ok(factor),
                LinkFaultKind::Flap { period, duty } => {
                    period > 0.0 && period.is_finite() && (0.0..=1.0).contains(&duty)
                }
            };
            if !window_ok(l.start, l.end) || !kind_ok {
                return Err(FaultPlanError::MalformedLinkFault(l.clone()));
            }
        }
        for p in &self.partitions {
            if !window_ok(p.start, p.end) {
                return Err(FaultPlanError::MalformedPartition(p.clone()));
            }
        }
        Ok(())
    }

    /// [`FaultPlan::validate`], then the check that needs the run's
    /// roster `0..ranks`: every rank a crash, straggler, pause, link
    /// fault or partition names must lie inside it (a rank nobody holds
    /// would otherwise make the plan a silent no-op). [`FaultPlan::load`]
    /// runs this on every plan file and prefixes the error with the path.
    pub fn validate_for(&self, ranks: usize) -> Result<(), FaultPlanError> {
        self.validate()?;
        let named = (self.crashes.iter().map(|c| ("crash", c.rank)))
            .chain(self.stragglers.iter().map(|&(r, _)| ("straggler", r)))
            .chain(self.pauses.iter().map(|w| ("pause", w.rank)))
            .chain(
                self.links
                    .iter()
                    .flat_map(|l| l.src.iter().chain(&l.dst).map(|&r| ("link fault", r))),
            )
            .chain(
                self.partitions
                    .iter()
                    .flat_map(|p| p.side.iter().map(|&r| ("partition", r))),
            );
        for (what, rank) in named {
            if rank.as_usize() >= ranks {
                return Err(FaultPlanError::RankOutOfRange { what, rank, ranks });
            }
        }
        Ok(())
    }
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::none()
    }
}

/// Counters of injected effects, reported alongside network stats.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct FaultStats {
    /// Faultable messages the emulator drew a fate for.
    pub faultable: u64,
    /// Messages dropped.
    pub dropped: u64,
    /// Messages duplicated.
    pub duplicated: u64,
    /// Messages hit by a delay spike.
    pub spiked: u64,
    /// Messages held back for reordering.
    pub reordered: u64,
    /// Messages slowed by a straggler factor.
    pub straggled: u64,
    /// Deliveries deferred past a pause window.
    pub paused: u64,
    /// Deliveries (messages and timers) discarded because the destination
    /// rank was crashed at arrival time.
    pub crash_dropped: u64,
    /// Messages severed by a link cut, flap down-phase, lossy draw, or
    /// partition window.
    pub link_cut: u64,
    /// Messages whose latency a link-level `Delay` fault inflated.
    pub link_delayed: u64,
    /// Messages damaged in flight by a `Corrupt` fault (receivers drop
    /// them on checksum mismatch).
    pub corrupted: u64,
}

impl FaultStats {
    /// Accumulate another stats block (for merging per-worker counters).
    pub fn merge(&mut self, other: &FaultStats) {
        self.faultable += other.faultable;
        self.dropped += other.dropped;
        self.duplicated += other.duplicated;
        self.spiked += other.spiked;
        self.reordered += other.reordered;
        self.straggled += other.straggled;
        self.paused += other.paused;
        self.crash_dropped += other.crash_dropped;
        self.link_cut += other.link_cut;
        self.link_delayed += other.link_delayed;
        self.corrupted += other.corrupted;
    }

    /// Add every counter to `m` under `fault.<name>` — what each executor
    /// flushes into its recorder's registry when a run ends.
    pub fn record(&self, m: &mut MetricsRegistry) {
        m.counter_add("fault.faultable", self.faultable);
        m.counter_add("fault.dropped", self.dropped);
        m.counter_add("fault.duplicated", self.duplicated);
        m.counter_add("fault.spiked", self.spiked);
        m.counter_add("fault.reordered", self.reordered);
        m.counter_add("fault.straggled", self.straggled);
        m.counter_add("fault.paused", self.paused);
        m.counter_add("fault.crash_dropped", self.crash_dropped);
        m.counter_add("fault.link_cut", self.link_cut);
        m.counter_add("fault.link_delayed", self.link_delayed);
        m.counter_add("fault.corrupted", self.corrupted);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(drop: f64, dup: f64) -> FaultPlan {
        FaultPlan {
            seed: 42,
            drop,
            duplicate: dup,
            ..FaultPlan::none()
        }
    }

    #[test]
    fn zero_plan_is_zero() {
        assert!(FaultPlan::none().is_zero());
        assert_eq!(FaultPlan::none().validate(), Ok(()));
    }

    #[test]
    fn unity_stragglers_still_count_as_zero_plan() {
        let mut p = FaultPlan::none();
        p.stragglers = vec![(RankId::new(3), 1.0)];
        assert!(p.is_zero());
        p.stragglers = vec![(RankId::new(3), 2.0)];
        assert!(!p.is_zero());
    }

    #[test]
    fn stats_merge_accumulates() {
        let mut a = FaultStats {
            faultable: 1,
            dropped: 2,
            duplicated: 3,
            spiked: 4,
            reordered: 5,
            straggled: 6,
            paused: 7,
            crash_dropped: 8,
            link_cut: 9,
            link_delayed: 10,
            corrupted: 11,
        };
        a.merge(&a.clone());
        assert_eq!(a.dropped, 4);
        assert_eq!(a.paused, 14);
        assert_eq!(a.crash_dropped, 16);
        assert_eq!(a.link_cut, 18);
        assert_eq!(a.link_delayed, 20);
        assert_eq!(a.corrupted, 22);
    }

    #[test]
    fn validate_reports_instead_of_panicking() {
        let mut p = plan(1.5, 0.0);
        assert_eq!(
            p.validate(),
            Err(FaultPlanError::ProbabilityOutOfRange {
                field: "drop",
                value: 1.5
            })
        );
        p.drop = 0.1;
        assert_eq!(p.validate(), Ok(()));
        p.crashes = vec![CrashEvent::fatal(RankId::new(1), -1.0)];
        assert!(matches!(
            p.validate(),
            Err(FaultPlanError::MalformedCrash(_))
        ));
        p.crashes = vec![
            CrashEvent::fatal(RankId::new(1), 1.0),
            CrashEvent::fatal(RankId::new(1), 2.0),
        ];
        assert_eq!(
            p.validate(),
            Err(FaultPlanError::DuplicateCrash(RankId::new(1)))
        );
    }

    #[test]
    fn crashes_make_a_plan_nonzero() {
        let mut p = FaultPlan::none();
        assert!(p.is_zero());
        p.crashes = vec![CrashEvent::fatal(RankId::new(2), 0.5)];
        assert!(!p.is_zero());
        assert_eq!(p.validate(), Ok(()));
    }

    fn link(
        src: &[u32],
        dst: &[u32],
        start: f64,
        end: Option<f64>,
        kind: LinkFaultKind,
    ) -> LinkFault {
        LinkFault {
            src: src.iter().map(|&r| RankId::new(r)).collect(),
            dst: dst.iter().map(|&r| RankId::new(r)).collect(),
            start,
            end,
            kind,
        }
    }

    #[test]
    fn link_faults_make_a_plan_nonzero_but_not_legacy_nonzero() {
        let mut p = FaultPlan::none();
        assert!(p.links_zero());
        p.links = vec![link(&[0], &[1], 0.0, None, LinkFaultKind::Cut)];
        assert!(!p.is_zero());
        assert!(!p.links_zero());
        assert_eq!(p.validate(), Ok(()));
    }

    #[test]
    fn malformed_link_faults_are_rejected() {
        let mut p = FaultPlan::none();
        p.links = vec![link(&[], &[], 2.0, Some(1.0), LinkFaultKind::Cut)];
        assert!(matches!(
            p.validate(),
            Err(FaultPlanError::MalformedLinkFault(_))
        ));
        p.links = vec![link(&[], &[], 0.0, None, LinkFaultKind::Lossy { p: 1.5 })];
        assert!(matches!(
            p.validate(),
            Err(FaultPlanError::MalformedLinkFault(_))
        ));
        p.links = vec![link(
            &[],
            &[],
            0.0,
            None,
            LinkFaultKind::Delay { factor: 0.5 },
        )];
        assert!(matches!(
            p.validate(),
            Err(FaultPlanError::MalformedLinkFault(_))
        ));
        p.links = vec![link(
            &[],
            &[],
            0.0,
            None,
            LinkFaultKind::Flap {
                period: 0.0,
                duty: 0.5,
            },
        )];
        assert!(matches!(
            p.validate(),
            Err(FaultPlanError::MalformedLinkFault(_))
        ));
        p.links.clear();
        p.partitions = vec![PartitionWindow {
            side: vec![],
            start: -1.0,
            end: None,
        }];
        assert!(matches!(
            p.validate(),
            Err(FaultPlanError::MalformedPartition(_))
        ));
    }
}
