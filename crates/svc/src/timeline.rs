//! The service timeline: phases realize, tails accumulate, balancers
//! react (or anticipate).
//!
//! Execution model per phase `p`:
//!
//! 1. shard loads for `p` realize under the placement chosen at the end
//!    of `p − 1` — the phase's bulk-synchronous cost is the max rank
//!    load, which is what the tail metrics record;
//! 2. predictive balancers observe the phase into their forecast bank
//!    (idempotent per epoch, so a following `rebalance` cannot
//!    double-count);
//! 3. if the LB schedule fires, the balancer proposes a placement for
//!    `p + 1` from whatever load estimate it believes in — last-phase
//!    observations (persistence) or per-task forecasts.
//!
//! The persistence/predictive comparison is therefore exactly the
//! paper's framing: same machinery, same schedule, different answer to
//! "what will this task cost next phase?".

use crate::scenario::SvcScenario;
use crate::workload::LOAD_QUANTUM;
use tempered_core::balancer::{
    GrapevineLb, GreedyLb, LoadBalancer, PredictiveLb, RebalanceResult, TemperedLb,
};
use tempered_core::distribution::Distribution;
use tempered_core::forecast::Holt;
use tempered_core::rng::RngFactory;
use tempered_obs::tail::{TailAccumulator, TailSummary};
use tempered_runtime::lb::LbProtocolConfig;
use tempered_runtime::DistributedLb;

/// Which balancer drives the timeline.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SvcBalancerKind {
    /// No balancing: the initial block placement rides the whole run.
    Null,
    /// Centralized greedy (the quality ceiling).
    Greedy,
    /// GrapevineLB on last-phase loads.
    Grapevine,
    /// TemperedLB on last-phase loads.
    Tempered,
    /// GrapevineLB on Holt per-task forecasts.
    PredictiveGrapevine,
    /// TemperedLB on Holt per-task forecasts.
    PredictiveTempered,
    /// TemperedLB through the full asynchronous message protocol.
    DistributedTempered,
    /// Predictive TemperedLB through the same unchanged protocol.
    DistributedPredictiveTempered,
    /// GrapevineLB through the full asynchronous message protocol.
    DistributedGrapevine,
    /// Predictive GrapevineLB through the same unchanged protocol.
    DistributedPredictiveGrapevine,
}

impl SvcBalancerKind {
    /// CSV / table label.
    pub fn name(&self) -> &'static str {
        match self {
            SvcBalancerKind::Null => "none",
            SvcBalancerKind::Greedy => "greedy",
            SvcBalancerKind::Grapevine => "grapevine",
            SvcBalancerKind::Tempered => "tempered",
            SvcBalancerKind::PredictiveGrapevine => "pred_grapevine",
            SvcBalancerKind::PredictiveTempered => "pred_tempered",
            SvcBalancerKind::DistributedTempered => "dist_tempered",
            SvcBalancerKind::DistributedPredictiveTempered => "dist_pred_tempered",
            SvcBalancerKind::DistributedGrapevine => "dist_grapevine",
            SvcBalancerKind::DistributedPredictiveGrapevine => "dist_pred_grapevine",
        }
    }

    /// The analysis-mode set the sweep runs on every generator.
    pub fn analysis_set() -> Vec<SvcBalancerKind> {
        vec![
            SvcBalancerKind::Null,
            SvcBalancerKind::Greedy,
            SvcBalancerKind::Grapevine,
            SvcBalancerKind::Tempered,
            SvcBalancerKind::PredictiveGrapevine,
            SvcBalancerKind::PredictiveTempered,
        ]
    }
}

/// Harness configuration.
#[derive(Clone, Debug)]
pub struct SvcTimelineConfig {
    /// The workload scenario.
    pub scenario: SvcScenario,
    /// The balancer under test.
    pub balancer: SvcBalancerKind,
    /// First phase the balancer may fire (default 1: after one
    /// measurement).
    pub lb_first_phase: usize,
    /// Phases between invocations (default 1: every phase — service
    /// loads drift every phase, so the schedule matches the drift).
    pub lb_period: usize,
    /// TemperedLB trials.
    pub tempered_trials: usize,
    /// TemperedLB iterations per trial.
    pub tempered_iters: usize,
    /// Phases excluded from the tail digest (default
    /// `lb_first_phase + 1`): every balancer inherits the same block
    /// placement, so the pre-LB phases would charge identical warmup
    /// costs to all of them and mask the differences the tail metrics
    /// exist to expose. Forecast banks still observe warmup phases.
    pub tail_warmup: usize,
    /// Master seed.
    pub seed: u64,
}

impl SvcTimelineConfig {
    /// Defaults over a scenario and balancer.
    pub fn new(scenario: SvcScenario, balancer: SvcBalancerKind, seed: u64) -> Self {
        SvcTimelineConfig {
            scenario,
            balancer,
            lb_first_phase: 1,
            lb_period: 1,
            tempered_trials: 4,
            tempered_iters: 8,
            tail_warmup: 2,
            seed,
        }
    }
}

/// Aggregate results of one timeline run.
#[derive(Clone, Debug)]
pub struct SvcTimeline {
    /// Balancer label.
    pub balancer: &'static str,
    /// Workload label.
    pub workload: String,
    /// Tail digest over all phases.
    pub tail: TailSummary,
    /// Per-phase imbalance `I` as realized (before that phase's LB).
    pub per_phase_imbalance: Vec<f64>,
    /// LB invocations that fired.
    pub lb_invocations: usize,
    /// Tasks migrated over the run.
    pub total_migrations: usize,
    /// Protocol messages sent (distributed kinds only; 0 otherwise).
    pub messages_sent: u64,
}

enum Balancer {
    Null,
    Plain(Box<dyn LoadBalancer>),
    Predictive(PredictiveLb<Box<dyn LoadBalancer>, Holt>),
}

impl Balancer {
    fn build(cfg: &SvcTimelineConfig) -> Balancer {
        use SvcBalancerKind as K;
        let tempered = || {
            let mut lb = TemperedLb::default();
            lb.config.trials = cfg.tempered_trials;
            lb.config.iters = cfg.tempered_iters;
            lb
        };
        let dist_tempered = || {
            DistributedLb::tempered(LbProtocolConfig {
                trials: cfg.tempered_trials,
                iters: cfg.tempered_iters,
                fanout: 4,
                rounds: 6,
                ..Default::default()
            })
        };
        // The strategy, and for the predictive kinds the name their Holt
        // forecast wrapper goes by.
        let (inner, predictive): (Box<dyn LoadBalancer>, Option<&'static str>) = match cfg.balancer
        {
            K::Null => return Balancer::Null,
            K::Greedy => (Box::new(GreedyLb), None),
            K::Grapevine => (Box::new(GrapevineLb::default()), None),
            K::Tempered => (Box::new(tempered()), None),
            K::PredictiveGrapevine => (Box::new(GrapevineLb::default()), Some("PredGrapevineLB")),
            K::PredictiveTempered => (Box::new(tempered()), Some("PredTemperedLB")),
            K::DistributedTempered => (Box::new(dist_tempered()), None),
            K::DistributedPredictiveTempered => {
                (Box::new(dist_tempered()), Some("DistPredTemperedLB"))
            }
            K::DistributedGrapevine => (Box::new(DistributedLb::grapevine()), None),
            K::DistributedPredictiveGrapevine => (
                Box::new(DistributedLb::grapevine()),
                Some("DistPredGrapevineLB"),
            ),
        };
        match predictive {
            None => Balancer::Plain(inner),
            Some(name) => {
                let mut lb = PredictiveLb::new(name, inner, Holt::default());
                lb.bank.quantum = LOAD_QUANTUM;
                Balancer::Predictive(lb)
            }
        }
    }

    /// Feed the phase into the forecast bank of predictive kinds; the
    /// per-epoch idempotence makes the later `rebalance` a no-op
    /// observer for the same phase.
    fn observe(&mut self, epoch: u64, dist: &Distribution) {
        if let Balancer::Predictive(lb) = self {
            lb.bank.observe_epoch(epoch, dist);
        }
    }

    fn rebalance(
        &mut self,
        dist: &Distribution,
        factory: &RngFactory,
        epoch: u64,
    ) -> Option<RebalanceResult> {
        match self {
            Balancer::Null => None,
            Balancer::Plain(lb) => Some(lb.rebalance(dist, factory, epoch)),
            Balancer::Predictive(lb) => Some(lb.rebalance(dist, factory, epoch)),
        }
    }
}

/// Run one service timeline end to end.
pub fn run_svc_timeline(cfg: &SvcTimelineConfig) -> SvcTimeline {
    let sc = &cfg.scenario;
    let factory = RngFactory::new(cfg.seed);
    let mut dist = sc.initial_distribution();
    let mut balancer = Balancer::build(cfg);
    let mut tail = TailAccumulator::new();
    let mut per_phase_imbalance = Vec::with_capacity(sc.phases);
    let mut lb_invocations = 0usize;
    let mut total_migrations = 0usize;
    let mut messages_sent = 0u64;

    for phase in 0..sc.phases {
        // 1. The phase realizes under the current placement.
        sc.apply_phase(&mut dist, phase as u64);
        if phase >= cfg.tail_warmup {
            let loads: Vec<f64> = dist.rank_loads().iter().map(|l| l.get()).collect();
            tail.record_phase(&loads);
        }
        per_phase_imbalance.push(dist.imbalance());

        // 2. Predictive banks absorb the measurement.
        balancer.observe(phase as u64, &dist);

        // 3. Rebalance for the next phase on schedule.
        let due = phase >= cfg.lb_first_phase
            && cfg.lb_period > 0
            && (phase - cfg.lb_first_phase).is_multiple_of(cfg.lb_period)
            && phase + 1 < sc.phases; // the last phase has no successor
        if due {
            if let Some(r) = balancer.rebalance(&dist, &factory, phase as u64) {
                dist.apply(&r.migrations)
                    .expect("balancer migrations are consistent");
                lb_invocations += 1;
                total_migrations += r.migrations.len();
                messages_sent += r.messages_sent;
            }
        }
    }

    SvcTimeline {
        balancer: cfg.balancer.name(),
        workload: sc.workload.label(),
        tail: tail.summary(),
        per_phase_imbalance,
        lb_invocations,
        total_migrations,
        messages_sent,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // 32 shards per rank: enough migratable granularity that forecast
    // quality, not placement quantization, decides the comparison.
    fn quick(balancer: SvcBalancerKind) -> SvcTimelineConfig {
        SvcTimelineConfig::new(SvcScenario::diurnal(8, 32, 48, 5), balancer, 5)
    }

    #[test]
    fn null_never_balances() {
        let t = run_svc_timeline(&quick(SvcBalancerKind::Null));
        assert_eq!(t.lb_invocations, 0);
        assert_eq!(t.total_migrations, 0);
        // 48 phases minus the default tail warmup of 2.
        assert_eq!(t.tail.phases, 46);
    }

    #[test]
    fn balancing_beats_the_block_placement() {
        let none = run_svc_timeline(&quick(SvcBalancerKind::Null));
        let tempered = run_svc_timeline(&quick(SvcBalancerKind::Tempered));
        assert!(tempered.lb_invocations > 0);
        assert!(
            tempered.tail.sum_of_max < none.tail.sum_of_max,
            "balancing must cut makespan: {} vs {}",
            tempered.tail.sum_of_max,
            none.tail.sum_of_max
        );
    }

    #[test]
    fn predictive_beats_persistence_on_diurnal_tail() {
        let twin = run_svc_timeline(&quick(SvcBalancerKind::Tempered));
        let pred = run_svc_timeline(&quick(SvcBalancerKind::PredictiveTempered));
        assert!(
            pred.tail.max_phase_time < twin.tail.max_phase_time,
            "forecasts must shave the worst phase: pred {} vs twin {}",
            pred.tail.max_phase_time,
            twin.tail.max_phase_time
        );
    }

    #[test]
    fn predictive_beats_persistence_on_flash_crowd_tail() {
        let sc = SvcScenario::flash_crowd(8, 32, 36, 5);
        let cfg = |b| SvcTimelineConfig::new(sc.clone(), b, 5);
        let twin = run_svc_timeline(&cfg(SvcBalancerKind::Tempered));
        let pred = run_svc_timeline(&cfg(SvcBalancerKind::PredictiveTempered));
        assert!(
            pred.tail.max_phase_time < twin.tail.max_phase_time,
            "forecasts must shave the crowd's peak: pred {} vs twin {}",
            pred.tail.max_phase_time,
            twin.tail.max_phase_time
        );
    }

    #[test]
    fn timelines_are_deterministic() {
        let a = run_svc_timeline(&quick(SvcBalancerKind::PredictiveGrapevine));
        let b = run_svc_timeline(&quick(SvcBalancerKind::PredictiveGrapevine));
        assert_eq!(a.tail.sum_of_max.to_bits(), b.tail.sum_of_max.to_bits());
        assert_eq!(a.total_migrations, b.total_migrations);
    }

    #[test]
    fn distributed_kinds_run_through_the_protocol() {
        let mut cfg = quick(SvcBalancerKind::DistributedPredictiveTempered);
        cfg.scenario.phases = 12;
        cfg.lb_period = 4;
        let t = run_svc_timeline(&cfg);
        assert!(t.lb_invocations > 0);
        assert!(
            t.messages_sent > 0,
            "the async protocol must actually exchange messages"
        );
    }
}
