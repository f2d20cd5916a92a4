//! Full-run harness: executes the surrogate application under one of the
//! paper's six configurations and records every per-step quantity needed
//! to regenerate Figs. 2, 3, and 4.
//!
//! Modeled execution time per phase follows the paper's structure: the
//! application is bulk-synchronous between its particle (AMT/tasked) and
//! non-particle (SPMD solver) sections, so each contributes its *maximum
//! per-rank* time:
//!
//! ```text
//! t_step = max_r(particle_r) · ovh_p(mode)
//!        + t_nonparticle · ovh_n(mode)
//!        + t_lb(step)
//! ```
//!
//! The LB schedule matches §VI-B: balancers run on the second timestep
//! and every 100th thereafter — except HierLB, which additionally runs on
//! the fourth step, preferring the most load-intensive tasks on step 2
//! and the most lightweight from step 4 on.

use crate::app::EmpireSim;
use crate::locality::measure_locality;
use crate::scenario::{BdotScenario, CostModel};
use tempered_core::balancer::{
    GrapevineLb, GreedyLb, HierConfig, HierLb, LoadBalancer, TemperedLb,
};
use tempered_core::imbalance::lower_bound_max_load;
use tempered_core::ordering::OrderingKind;
use tempered_runtime::lb::LbProtocolConfig;
use tempered_runtime::DistributedLb;

/// Which balancer an AMT configuration runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LbStrategy {
    /// AMT overheads, no balancing ("AMT without LB").
    None,
    /// The original gossip algorithm ("AMT w/GrapevineLB").
    Grapevine,
    /// Centralized greedy ("AMT w/GreedyLB").
    Greedy,
    /// Hierarchical ("AMT w/HierLB").
    Hier,
    /// This paper's balancer with the given ordering ("AMT w/TemperedLB").
    Tempered(OrderingKind),
    /// TemperedLB executed through the full asynchronous message protocol
    /// on the simulated runtime (validation mode; same algorithm).
    DistributedTempered,
}

impl LbStrategy {
    /// Label as used in the paper's figures.
    pub fn label(&self) -> String {
        match self {
            LbStrategy::None => "AMT without LB".into(),
            LbStrategy::Grapevine => "AMT w/GrapevineLB".into(),
            LbStrategy::Greedy => "AMT w/GreedyLB".into(),
            LbStrategy::Hier => "AMT w/HierLB".into(),
            LbStrategy::Tempered(o) => format!("AMT w/TemperedLB ({o})"),
            LbStrategy::DistributedTempered => "AMT w/TemperedLB (async runtime)".into(),
        }
    }
}

/// One of the paper's execution configurations.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExecutionMode {
    /// Pure MPI baseline: no overdecomposition overhead, no balancing.
    Spmd,
    /// AMT runtime with the given balancing strategy.
    Amt(LbStrategy),
}

impl ExecutionMode {
    /// The five configurations of Fig. 2/3 (TemperedLB with its best
    /// ordering, Fewest Migrations), in the paper's presentation order.
    pub fn fig2_set() -> Vec<ExecutionMode> {
        vec![
            ExecutionMode::Spmd,
            ExecutionMode::Amt(LbStrategy::None),
            ExecutionMode::Amt(LbStrategy::Grapevine),
            ExecutionMode::Amt(LbStrategy::Greedy),
            ExecutionMode::Amt(LbStrategy::Hier),
            ExecutionMode::Amt(LbStrategy::Tempered(OrderingKind::FewestMigrations)),
        ]
    }

    /// Figure label.
    pub fn label(&self) -> String {
        match self {
            ExecutionMode::Spmd => "SPMD (no AMT)".into(),
            ExecutionMode::Amt(s) => s.label(),
        }
    }
}

/// Harness configuration.
#[derive(Clone, Copy, Debug)]
pub struct TimelineConfig {
    /// Workload scenario.
    pub scenario: BdotScenario,
    /// Cost model.
    pub cost: CostModel,
    /// Execution configuration.
    pub mode: ExecutionMode,
    /// First LB step (paper: 2).
    pub lb_first_step: usize,
    /// LB period after the first invocation (paper: 100).
    pub lb_period: usize,
    /// TemperedLB trials (paper: 10).
    pub tempered_trials: usize,
    /// TemperedLB iterations per trial (paper: 8).
    pub tempered_iters: usize,
    /// Adaptive triggering (§IV/§VI-B extension): when set, the balancer
    /// runs whenever the measured imbalance exceeds this threshold
    /// (subject to `lb_min_gap`) instead of on the fixed period — "its
    /// frequency can be adjusted to match the imbalance rate".
    pub adaptive_threshold: Option<f64>,
    /// Minimum steps between adaptive invocations.
    pub lb_min_gap: usize,
    /// Master seed.
    pub seed: u64,
}

impl TimelineConfig {
    /// Paper-schedule defaults over the given scenario and mode.
    pub fn new(scenario: BdotScenario, mode: ExecutionMode, seed: u64) -> Self {
        TimelineConfig {
            scenario,
            cost: CostModel::default(),
            mode,
            lb_first_step: 2,
            lb_period: 100,
            tempered_trials: 10,
            tempered_iters: 8,
            adaptive_threshold: None,
            lb_min_gap: 10,
            seed,
        }
    }
}

/// Per-step record (one point of each Fig. 4 series).
#[derive(Clone, Copy, Debug)]
pub struct StepStats {
    /// Timestep.
    pub step: usize,
    /// Particle-section time (max over ranks, with AMT overhead).
    pub t_particle: f64,
    /// Non-particle-section time.
    pub t_nonparticle: f64,
    /// LB + migration time charged to this step.
    pub t_lb: f64,
    /// Maximum per-rank particle task load (no overheads — Fig. 4b).
    pub max_rank_load: f64,
    /// Minimum per-rank particle task load (Fig. 4b).
    pub min_rank_load: f64,
    /// Average per-rank task load.
    pub avg_rank_load: f64,
    /// Fig. 4b lower bound: `max(ℓ_ave, max task load)`.
    pub lower_bound: f64,
    /// Imbalance `I` of the per-rank task loads (Fig. 4c).
    pub imbalance: f64,
    /// Particles alive.
    pub num_particles: usize,
    /// Ghost-exchange locality of the current assignment (§V-E2 / §VII
    /// extension): fraction of color-neighbor edges kept on-rank.
    pub comm_locality: f64,
}

impl StepStats {
    /// Total step time.
    pub fn t_total(&self) -> f64 {
        self.t_particle + self.t_nonparticle + self.t_lb
    }
}

/// Aggregate results of one configuration (one Fig. 3 row).
#[derive(Clone, Debug)]
pub struct Timeline {
    /// Configuration label.
    pub label: String,
    /// Per-step statistics.
    pub steps: Vec<StepStats>,
    /// Total non-particle time `t_n`.
    pub t_n: f64,
    /// Total particle time `t_p`.
    pub t_p: f64,
    /// Total LB + migration time `t_lb`.
    pub t_lb: f64,
    /// Tasks actually migrated over the run.
    pub total_migrations: usize,
    /// LB invocations.
    pub lb_invocations: usize,
}

impl Timeline {
    /// Total execution time `t_total`.
    pub fn t_total(&self) -> f64 {
        self.t_n + self.t_p + self.t_lb
    }
}

/// HierLB keeps its own arm: it is rebuilt on every invocation, with
/// `prefer_heavy` set only on the first.
enum Balancer {
    None,
    Hier,
    Any(Box<dyn LoadBalancer>),
}

/// Run one configuration end to end.
pub fn run_timeline(cfg: &TimelineConfig) -> Timeline {
    let mut sim = EmpireSim::new(cfg.scenario, cfg.cost, cfg.seed);
    let (ovh_p, ovh_n, strategy) = match cfg.mode {
        ExecutionMode::Spmd => (1.0, 1.0, LbStrategy::None),
        ExecutionMode::Amt(s) => (
            cfg.cost.amt_particle_overhead,
            cfg.cost.amt_nonparticle_overhead,
            s,
        ),
    };
    // SPMD never balances even if a strategy were configured.
    let strategy = if cfg.mode == ExecutionMode::Spmd {
        LbStrategy::None
    } else {
        strategy
    };

    let mut balancer = match strategy {
        LbStrategy::None => Balancer::None,
        LbStrategy::Grapevine => Balancer::Any(Box::new(GrapevineLb::default())),
        LbStrategy::Greedy => Balancer::Any(Box::new(GreedyLb)),
        LbStrategy::Hier => Balancer::Hier,
        LbStrategy::Tempered(ordering) => {
            let mut lb = TemperedLb::with_ordering(ordering);
            lb.config.trials = cfg.tempered_trials;
            lb.config.iters = cfg.tempered_iters;
            Balancer::Any(Box::new(lb))
        }
        LbStrategy::DistributedTempered => {
            Balancer::Any(Box::new(DistributedLb::tempered(LbProtocolConfig {
                trials: cfg.tempered_trials,
                iters: cfg.tempered_iters,
                ..LbProtocolConfig::default()
            })))
        }
    };

    let mut steps = Vec::with_capacity(cfg.scenario.steps);
    let (mut t_n, mut t_p, mut t_lb_total) = (0.0, 0.0, 0.0);
    let mut total_migrations = 0usize;
    let mut lb_invocations = 0usize;
    let mut last_lb: Option<usize> = None;

    for step in 0..cfg.scenario.steps {
        let phase = sim.step();

        // Section times under the current assignment.
        let t_particle = sim.max_rank_particle_load() * ovh_p;
        let t_nonparticle = sim.nonparticle_time_per_rank() * ovh_n;

        // Balance between phases, using this phase's measurements
        // (principle of persistence): either on the paper's fixed
        // schedule, or adaptively when the measured imbalance crosses the
        // configured threshold.
        let due = match cfg.adaptive_threshold {
            None => lb_due(strategy, step, cfg),
            Some(threshold) => {
                strategy != LbStrategy::None
                    && step >= cfg.lb_first_step
                    && last_lb.is_none_or(|l| step - l >= cfg.lb_min_gap)
                    && sim.distribution.imbalance() > threshold
            }
        };
        let mut t_lb = 0.0;
        if due {
            last_lb = Some(step);
            let factory = *sim.factory();
            let result = match &mut balancer {
                Balancer::None => None,
                Balancer::Hier => {
                    // §VI-B: heaviest-first on the first invocation,
                    // lightest-first afterwards.
                    let mut lb = HierLb::new(HierConfig {
                        prefer_heavy: step == cfg.lb_first_step,
                        ..HierConfig::default()
                    });
                    Some(lb.rebalance(&sim.distribution, &factory, step as u64))
                }
                Balancer::Any(lb) => Some(lb.rebalance(&sim.distribution, &factory, step as u64)),
            };
            if let Some(r) = result {
                sim.distribution
                    .apply(&r.migrations)
                    .expect("balancer migrations are consistent");
                t_lb = cfg.cost.lb_fixed + r.migrations.len() as f64 * cfg.cost.per_migration;
                total_migrations += r.migrations.len();
                lb_invocations += 1;
            }
        }

        let stats = sim.distribution.statistics();
        let lower = lower_bound_max_load(stats.average, sim.distribution.max_task_load());
        let locality = measure_locality(&cfg.scenario.mesh, &sim.distribution);
        steps.push(StepStats {
            step,
            t_particle,
            t_nonparticle,
            t_lb,
            max_rank_load: stats.max.get(),
            min_rank_load: stats.min.get(),
            avg_rank_load: stats.average.get(),
            lower_bound: lower.get(),
            imbalance: stats.imbalance,
            num_particles: phase.num_particles,
            comm_locality: locality.locality(),
        });
        t_p += t_particle;
        t_n += t_nonparticle;
        t_lb_total += t_lb;
    }

    Timeline {
        label: cfg.mode.label(),
        steps,
        t_n,
        t_p,
        t_lb: t_lb_total,
        total_migrations,
        lb_invocations,
    }
}

fn lb_due(strategy: LbStrategy, step: usize, cfg: &TimelineConfig) -> bool {
    if strategy == LbStrategy::None {
        return false;
    }
    let base = step == cfg.lb_first_step
        || (step > cfg.lb_first_step && cfg.lb_period > 0 && step.is_multiple_of(cfg.lb_period));
    // HierLB's extra early invocation (lightest-first) on step first+2.
    if strategy == LbStrategy::Hier {
        return base || step == cfg.lb_first_step + 2;
    }
    base
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(mode: ExecutionMode) -> TimelineConfig {
        let mut cfg = TimelineConfig::new(BdotScenario::small(), mode, 7);
        cfg.lb_first_step = 2;
        cfg.lb_period = 30;
        cfg.tempered_trials = 2;
        cfg.tempered_iters = 4;
        cfg
    }

    #[test]
    fn spmd_never_balances() {
        let t = run_timeline(&quick(ExecutionMode::Spmd));
        assert_eq!(t.lb_invocations, 0);
        assert_eq!(t.total_migrations, 0);
        assert_eq!(t.t_lb, 0.0);
        assert_eq!(t.steps.len(), BdotScenario::small().steps);
    }

    #[test]
    fn amt_no_lb_costs_more_than_spmd() {
        let spmd = run_timeline(&quick(ExecutionMode::Spmd));
        let amt = run_timeline(&quick(ExecutionMode::Amt(LbStrategy::None)));
        assert!(amt.t_p > spmd.t_p, "AMT tasking overhead must show in t_p");
        assert!(amt.t_n > spmd.t_n);
        assert!(amt.t_total() > spmd.t_total());
    }

    #[test]
    fn tempered_beats_no_lb_and_spmd_on_particle_time() {
        let spmd = run_timeline(&quick(ExecutionMode::Spmd));
        let tempered = run_timeline(&quick(ExecutionMode::Amt(LbStrategy::Tempered(
            OrderingKind::FewestMigrations,
        ))));
        assert!(tempered.lb_invocations > 0);
        assert!(tempered.total_migrations > 0);
        assert!(
            tempered.t_p < spmd.t_p,
            "balanced particle time {} must beat SPMD {}",
            tempered.t_p,
            spmd.t_p
        );
    }

    #[test]
    fn imbalance_drops_after_first_lb() {
        let cfg = quick(ExecutionMode::Amt(LbStrategy::Greedy));
        let t = run_timeline(&cfg);
        let before = t.steps[cfg.lb_first_step - 1].imbalance;
        let after = t.steps[cfg.lb_first_step].imbalance;
        assert!(
            after < before * 0.5,
            "greedy LB must slash imbalance: {before} → {after}"
        );
    }

    #[test]
    fn hier_runs_extra_early_invocation() {
        let cfg = quick(ExecutionMode::Amt(LbStrategy::Hier));
        let t = run_timeline(&cfg);
        // Invocations: steps 2, 4, 30, 60, 90 with period 30 over 120 steps.
        assert_eq!(t.lb_invocations, 5);
        let grapevine = run_timeline(&quick(ExecutionMode::Amt(LbStrategy::Grapevine)));
        assert_eq!(grapevine.lb_invocations, 4);
    }

    #[test]
    fn max_load_never_below_lower_bound() {
        let t = run_timeline(&quick(ExecutionMode::Amt(LbStrategy::Tempered(
            OrderingKind::FewestMigrations,
        ))));
        for s in &t.steps {
            assert!(
                s.max_rank_load >= s.lower_bound - 1e-9,
                "step {}: max {} below lower bound {}",
                s.step,
                s.max_rank_load,
                s.lower_bound
            );
            assert!(s.min_rank_load <= s.max_rank_load);
        }
    }

    #[test]
    fn totals_equal_sum_of_steps() {
        let t = run_timeline(&quick(ExecutionMode::Amt(LbStrategy::Greedy)));
        let sum: f64 = t.steps.iter().map(|s| s.t_total()).sum();
        assert!((sum - t.t_total()).abs() < 1e-9);
    }

    #[test]
    fn timelines_are_deterministic() {
        let a = run_timeline(&quick(ExecutionMode::Amt(LbStrategy::Tempered(
            OrderingKind::LightestFirst,
        ))));
        let b = run_timeline(&quick(ExecutionMode::Amt(LbStrategy::Tempered(
            OrderingKind::LightestFirst,
        ))));
        assert_eq!(a.t_p, b.t_p);
        assert_eq!(a.total_migrations, b.total_migrations);
    }

    #[test]
    fn adaptive_trigger_balances_on_demand() {
        let mut adaptive = quick(ExecutionMode::Amt(LbStrategy::Greedy));
        adaptive.adaptive_threshold = Some(0.5);
        adaptive.lb_min_gap = 5;
        let ta = run_timeline(&adaptive);
        assert!(ta.lb_invocations > 0, "imbalance crosses 0.5 repeatedly");

        // An unreachable threshold never triggers.
        let mut never = adaptive;
        never.adaptive_threshold = Some(1e9);
        let tn = run_timeline(&never);
        assert_eq!(tn.lb_invocations, 0);

        // The min-gap bounds the invocation count.
        let steps = adaptive.scenario.steps;
        assert!(ta.lb_invocations <= steps / adaptive.lb_min_gap + 1);

        // Adaptive keeps the imbalance below the periodic schedule's
        // worst excursions (it reacts instead of waiting).
        let periodic = run_timeline(&quick(ExecutionMode::Amt(LbStrategy::Greedy)));
        let worst = |t: &Timeline| {
            t.steps[5..]
                .iter()
                .map(|s| s.imbalance)
                .fold(0.0f64, f64::max)
        };
        assert!(
            worst(&ta) <= worst(&periodic) + 1e-9,
            "adaptive worst-case I {} vs periodic {}",
            worst(&ta),
            worst(&periodic)
        );
    }

    #[test]
    fn distributed_tempered_strategy_runs_in_the_timeline() {
        // The timeline can drive the full asynchronous protocol as its
        // balancer; quality must match the analysis-mode strategies'
        // regime.
        let mut cfg = quick(ExecutionMode::Amt(LbStrategy::DistributedTempered));
        cfg.tempered_trials = 1;
        cfg.tempered_iters = 3;
        let t = run_timeline(&cfg);
        assert!(t.lb_invocations > 0);
        assert!(t.total_migrations > 0);
        let spmd = run_timeline(&quick(ExecutionMode::Spmd));
        assert!(
            t.t_p < spmd.t_p,
            "async-protocol balancing must still beat SPMD: {} vs {}",
            t.t_p,
            spmd.t_p
        );
    }

    #[test]
    fn balancers_trade_locality_for_balance() {
        let spmd = run_timeline(&quick(ExecutionMode::Spmd));
        let greedy = run_timeline(&quick(ExecutionMode::Amt(LbStrategy::Greedy)));
        let last = spmd.steps.len() - 1;
        // SPMD keeps the block decomposition's locality for the whole run.
        assert_eq!(spmd.steps[0].comm_locality, spmd.steps[last].comm_locality);
        // Balancing moves colors off their blocks, reducing locality.
        assert!(
            greedy.steps[last].comm_locality < spmd.steps[last].comm_locality,
            "greedy {} should cost locality vs SPMD {}",
            greedy.steps[last].comm_locality,
            spmd.steps[last].comm_locality
        );
    }

    #[test]
    fn labels_match_paper_names() {
        assert_eq!(ExecutionMode::Spmd.label(), "SPMD (no AMT)");
        assert_eq!(
            ExecutionMode::Amt(LbStrategy::Greedy).label(),
            "AMT w/GreedyLB"
        );
        assert_eq!(ExecutionMode::fig2_set().len(), 6);
    }
}
