//! The paper's evaluation as one table of experiments, plus the
//! deterministic tables pinned the same way: the service-workload sweep,
//! the modeled-cost grid every refactor must leave bit-identical, and
//! the fault-injection grids (`chaos`, `chaos_elastic`).
//!
//! [`EXPERIMENTS`] maps a name to a function `(&mut Runs, Scale) ->
//! String`; `repro <name>` writes that string to
//! `results/repro/<name>.txt` (`results/repro/quick/` under
//! `TEMPERED_QUICK`). Both directories are committed, EXPERIMENTS.md
//! quotes them, and `tests/repro.rs` plus CI's `git diff` keep all
//! three in step. Nothing here reads the environment: scale is an
//! argument.
//!
//! [`Runs`] holds the two inputs several experiments share, so Fig. 2,
//! Fig. 3 and Fig. 4 are derived from the *same* six timelines, exactly
//! as in the paper, and the §V tables from the same criterion pair.

use empire_pic::{
    run_distributed_pic, run_timeline, BdotScenario, CostModel, DistPicConfig, ExecutionMode,
    LbStrategy, StepStats, Timeline, TimelineConfig,
};
use lbaf::{
    comparison_table, fmt_sig, gossip_coverage, record_empire_trace, run_criterion_experiment,
    sweep_ablation, sweep_budget, sweep_fanout, sweep_knowledge_cap, sweep_orderings, sweep_rounds,
    sweep_threshold, ConcentratedLayout, CriterionExperiment, CriterionResult, CriterionVariant,
    Table, Trace,
};
use tempered_core::forecast::{ForecastBank, Holt};
use tempered_core::prelude::*;
use tempered_core::rng::derive_seed;
use tempered_obs::Recorder;
use tempered_runtime::{
    run_distributed_lb, run_distributed_lb_with_faults, FaultPlan, LbProtocolConfig, NetworkModel,
    RetryConfig,
};
use tempered_svc::{
    run_svc_timeline, SvcBalancerKind, SvcScenario, SvcTimeline, SvcTimelineConfig, LOAD_QUANTUM,
};

mod chaos;
use chaos::{chaos, chaos_elastic};

/// Master seed shared by all figure runs.
const FIG_SEED: u64 = 2021;

/// How large an experiment runs: the paper-shaped configuration, or a
/// reduced one for smoke tests. `bin/repro.rs` derives it once from
/// `TEMPERED_QUICK`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// 400 ranks, ×24 overdecomposition, 1400 steps; §V layouts as printed.
    Paper,
    /// Same shapes, seconds instead of minutes.
    Quick,
}

impl Scale {
    /// Where this scale's outputs live, relative to `results/`.
    pub fn dir(self) -> &'static str {
        match self {
            Scale::Paper => "repro",
            Scale::Quick => "repro/quick",
        }
    }
}

/// One regenerable artifact of the evaluation.
pub struct Experiment {
    /// Command-line name and output file stem.
    pub name: &'static str,
    /// What it regenerates.
    pub about: &'static str,
    /// Produce the artifact's text.
    pub run: fn(&mut Runs, Scale) -> String,
}

/// `name: "about"` rows → [`Experiment`]s whose `run` is the function of
/// that name, so a name cannot point at another experiment's function.
macro_rules! experiments {
    ($($name:ident: $about:literal,)*) => {
        &[$(Experiment { name: stringify!($name), about: $about, run: $name }),*]
    };
}

/// Every experiment, in EXPERIMENTS.md order.
pub const EXPERIMENTS: &[Experiment] = experiments! {
    table_vb: "§V-B table: original criterion, transfers / rejections / imbalance per iteration",
    table_vd: "§V-D table: relaxed criterion, modified CMF, per-candidate recomputation",
    table_vd_compare: "§V-D comparison: imbalance per iteration, criterion 35 vs 37",
    fig2_overall: "Fig. 2: six configurations, speedups vs SPMD",
    fig3_breakdown: "Fig. 3: t_n / t_p / t_lb / t_total and migrations per configuration",
    fig4a_timestep: "Fig. 4a: full step time per timestep",
    fig4b_loads: "Fig. 4b: max/min per-rank task load and the lower bound over time",
    fig4c_imbalance: "Fig. 4c: imbalance I over time",
    fig4d_orderings: "Fig. 4d: particle time under the three §V-E task orderings",
    sweeps: "§V ablations, gossip / budget / threshold sweeps, footnote-2 knowledge cap",
    scaling: "§IV: message cost and quality vs rank count; async makespan",
    replay: "vt → LBAF workflow: record a trace, replay every balancer per phase",
    dist_validation: "PIC as a message protocol vs the global harness",
    adaptive: "§IV/§VI-B extension: periodic vs imbalance-threshold LB triggering",
    svc_sweep: "service workload: forecast-driven vs persistence balancing, gated",
    modeled_cost: "messages / bytes / events / virtual time of one hardened LB run",
    chaos: "hardened protocol under drops × stragglers, crashes, partitions and gray links, gated",
    chaos_elastic: "planned joins, drains and autoscaling vs the threaded executor, gated",
};

/// Look an experiment up by name; an unknown name is an error that
/// lists the known ones.
pub fn find(name: &str) -> Result<&'static Experiment, String> {
    EXPERIMENTS.iter().find(|e| e.name == name).ok_or_else(|| {
        let known: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
        let known = known.join(", ");
        format!("unknown experiment {name:?}; known: {known} (or `all`)")
    })
}

/// The expensive inputs more than one experiment reads, computed on
/// first use and kept for the process. One `Runs` serves one scale.
#[derive(Default)]
pub struct Runs {
    scale: Option<Scale>,
    fig2: Option<Vec<Timeline>>,
    criterion: Option<[CriterionResult; 2]>,
}

impl Runs {
    fn pin(&mut self, scale: Scale) {
        let pinned = *self.scale.get_or_insert(scale);
        assert!(pinned == scale, "one Runs serves one scale");
    }

    /// The six Fig. 2/3 timelines (SPMD, AMT-no-LB, Grapevine, Greedy,
    /// Hier, Tempered/FewestMigrations) over the shared scenario.
    fn fig2(&mut self, scale: Scale) -> &[Timeline] {
        self.pin(scale);
        self.fig2.get_or_insert_with(|| {
            let scenario = fig_scenario(scale);
            ExecutionMode::fig2_set()
                .into_iter()
                .map(|mode| run_timeline(&fig_config(scenario, mode, scale)))
                .collect()
        })
    }

    /// The §V-B/§V-D pair on one layout: `[Original, Relaxed]`.
    fn criterion(&mut self, scale: Scale) -> &[CriterionResult; 2] {
        self.pin(scale);
        self.criterion.get_or_insert_with(|| {
            let cfg = match scale {
                Scale::Paper => CriterionExperiment::paper(),
                Scale::Quick => CriterionExperiment::small(),
            };
            [CriterionVariant::Original, CriterionVariant::Relaxed]
                .map(|variant| run_criterion_experiment(&cfg, variant))
        })
    }
}

/// The scenario behind Figs. 2–4.
fn fig_scenario(scale: Scale) -> BdotScenario {
    let mut s = BdotScenario::paper_shape();
    if scale == Scale::Quick {
        s.steps = 250;
        s.inject_base = 40;
    }
    s
}

/// Timeline configuration for one execution mode of the figure runs.
fn fig_config(scenario: BdotScenario, mode: ExecutionMode, scale: Scale) -> TimelineConfig {
    let mut cfg = TimelineConfig::new(scenario, mode, FIG_SEED);
    if scale == Scale::Quick {
        cfg.tempered_trials = 3;
        cfg.tempered_iters = 4;
        // Quick mode compresses the run 5.6x but keeps per-step physics;
        // shrink the LB period to keep the physical interval between
        // balancer invocations comparable.
        cfg.lb_period = 20;
    }
    cfg
}

const TEMPERED_FEWEST: ExecutionMode =
    ExecutionMode::Amt(LbStrategy::Tempered(OrderingKind::FewestMigrations));

/// A rendered table as the experiments print it: followed by a blank line.
fn block(t: &Table) -> String {
    t.render() + "\n"
}

/// One column of [`tabulate`]: its header and the cell it prints for a row.
type Column<'a, R> = (&'a str, &'a dyn Fn(&R) -> String);

/// A table written column-wise, so a header and its cells cannot drift
/// apart.
fn tabulate<R>(title: &str, rows: &[R], columns: &[Column<R>]) -> String {
    let headers: Vec<&str> = columns.iter().map(|(header, _)| *header).collect();
    let mut t = Table::new(title, &headers);
    for row in rows {
        t.push_row(columns.iter().map(|(_, cell)| cell(row)).collect());
    }
    block(&t)
}

/// Series down-sampler: at most `max_points` evenly spaced step indices,
/// always including the final step (figures print a readable number of
/// rows, not 1400).
fn sample_indices(len: usize, max_points: usize) -> Vec<usize> {
    if len <= max_points {
        return (0..len).collect();
    }
    let stride = len.div_ceil(max_points);
    let mut out: Vec<usize> = (0..len).step_by(stride).collect();
    if *out.last().unwrap() != len - 1 {
        out.push(len - 1);
    }
    out
}

/// One series of a Fig. 4 table: `tl`'s label (plus `suffix`) over one
/// per-step quantity.
fn column(tl: &Timeline, suffix: &str, f: impl Fn(&StepStats) -> f64) -> (String, Vec<f64>) {
    let series = tl.steps.iter().map(f).collect();
    (format!("{}{suffix}", tl.label), series)
}

/// The Fig. 4 table shape: a down-sampled `step` column and one column
/// per series (a timeline's step `i` is its `i`th entry).
fn series_table(
    title: &str,
    max_points: usize,
    columns: impl IntoIterator<Item = (String, Vec<f64>)>,
) -> String {
    let columns: Vec<_> = columns.into_iter().collect();
    let mut headers = vec!["step"];
    headers.extend(columns.iter().map(|(h, _)| h.as_str()));
    let mut t = Table::new(title, &headers);
    for i in sample_indices(columns[0].1.len(), max_points) {
        let mut row = vec![i.to_string()];
        row.extend(columns.iter().map(|(_, v)| format!("{:.3}", v[i])));
        t.push_row(row);
    }
    block(&t)
}

fn table_vb(runs: &mut Runs, scale: Scale) -> String {
    block(&runs.criterion(scale)[0].to_table())
}

fn table_vd(runs: &mut Runs, scale: Scale) -> String {
    block(&runs.criterion(scale)[1].to_table())
}

fn table_vd_compare(runs: &mut Runs, scale: Scale) -> String {
    let [original, relaxed] = runs.criterion(scale);
    block(&comparison_table(original, relaxed))
}

fn fig2_overall(runs: &mut Runs, scale: Scale) -> String {
    let timelines = runs.fig2(scale);
    let spmd = &timelines[0];
    let speedup = |spmd: f64, t: f64| format!("{:.2}x", spmd / t);
    let mut out = tabulate(
        "Fig. 2 — overall performance (modeled seconds; multipliers vs SPMD)",
        timelines,
        &[
            ("Configuration", &|tl| tl.label.clone()),
            ("Particle", &|tl| format!("{:.0}", tl.t_p)),
            ("Non-particle", &|tl| format!("{:.0}", tl.t_n)),
            ("Total", &|tl| format!("{:.0}", tl.t_total())),
            ("Total speedup", &|tl| speedup(spmd.t_total(), tl.t_total())),
            ("Particle speedup", &|tl| speedup(spmd.t_p, tl.t_p)),
        ],
    );
    // ASCII bar chart of total time, mirroring the figure.
    let max_total = timelines.iter().map(|t| t.t_total()).fold(0.0f64, f64::max);
    out += &format!("total time (each '#' ≈ {:.0}s):\n", max_total / 50.0);
    for tl in timelines {
        let bars = ((tl.t_total() / max_total) * 50.0).round() as usize;
        out += &format!("  {:<36} {}\n", tl.label, "#".repeat(bars));
    }
    out
}

fn fig3_breakdown(runs: &mut Runs, scale: Scale) -> String {
    tabulate(
        "Fig. 3 — execution time breakdown (modeled seconds)",
        runs.fig2(scale),
        &[
            ("Type", &|tl| tl.label.clone()),
            ("t_n", &|tl| format!("{:.0}", tl.t_n)),
            ("t_p", &|tl| format!("{:.0}", tl.t_p)),
            ("t_lb", &|tl| format!("{:.1}", tl.t_lb)),
            ("t_total", &|tl| format!("{:.0}", tl.t_total())),
            ("migrations", &|tl| tl.total_migrations.to_string()),
            ("LB runs", &|tl| tl.lb_invocations.to_string()),
        ],
    )
}

fn fig4a_timestep(runs: &mut Runs, scale: Scale) -> String {
    let timelines = runs.fig2(scale).iter();
    series_table(
        "Fig. 4a — full step time per timestep (modeled seconds)",
        28,
        timelines.map(|tl| column(tl, "", StepStats::t_total)),
    ) + "(spikes at LB steps are the balancer + migration + diagnostic cost)\n"
}

fn fig4b_loads(runs: &mut Runs, scale: Scale) -> String {
    // The figure shows the LB-enabled configurations: Grapevine, Greedy,
    // Hier, Tempered (indices 2..6).
    let balanced = &runs.fig2(scale)[2..];
    let mut cols = Vec::new();
    for tl in balanced {
        cols.push(column(tl, " max", |s| s.max_rank_load));
        cols.push(column(tl, " min", |s| s.min_rank_load));
    }
    // The lower bound is configuration-independent (same workload).
    let (_, bound) = column(&balanced[0], "", |s| s.lower_bound);
    cols.push(("Lower bound (max)".into(), bound));
    series_table(
        "Fig. 4b — per-rank task load extrema over time (seconds of task load)",
        24,
        cols,
    )
}

fn fig4c_imbalance(runs: &mut Runs, scale: Scale) -> String {
    let amt = &runs.fig2(scale)[1..];
    let no_lb = &amt[0].steps;
    series_table(
        "Fig. 4c — imbalance I over time",
        28,
        amt.iter().map(|tl| column(tl, "", |s| s.imbalance)),
    ) + &format!(
        "no-LB imbalance: starts {:.2}, ends {:.2}\n",
        no_lb[5.min(no_lb.len() - 1)].imbalance,
        no_lb[no_lb.len() - 1].imbalance
    )
}

fn fig4d_orderings(runs: &mut Runs, scale: Scale) -> String {
    // The Fewest Migrations run is the Fig. 2 set's TemperedLB timeline.
    let fewest = runs.fig2(scale)[5].clone();
    let scenario = fig_scenario(scale);
    let with = |ordering| {
        let mode = ExecutionMode::Amt(LbStrategy::Tempered(ordering));
        run_timeline(&fig_config(scenario, mode, scale))
    };
    let timelines = [
        with(OrderingKind::LoadDescending),
        fewest,
        with(OrderingKind::LightestFirst),
    ];
    series_table(
        "Fig. 4d — particle update time per timestep by task ordering",
        24,
        timelines.iter().map(|tl| column(tl, "", |s| s.t_particle)),
    ) + &tabulate(
        "Totals (particle time, migrations, final ghost-exchange locality)",
        &timelines,
        &[
            ("Ordering", &|tl| tl.label.clone()),
            ("t_p", &|tl| format!("{:.0}", tl.t_p)),
            ("migrations", &|tl| tl.total_migrations.to_string()),
            ("final locality", &|tl| {
                format!("{:.3}", tl.steps.last().map_or(1.0, |s| s.comm_locality))
            }),
        ],
    )
}

/// §IV: "the more scalable the load balancer, the more frequently it can
/// be invoked as workloads dynamically vary over time"; §VI-B: making LB
/// incremental means "its frequency can be adjusted to match the
/// imbalance rate". The paper's fixed 100-step schedule against an
/// imbalance-threshold trigger at several thresholds.
fn adaptive(runs: &mut Runs, scale: Scale) -> String {
    let periodic = fig_config(fig_scenario(scale), TEMPERED_FEWEST, scale);
    let mut rows = vec![(
        "periodic (paper: every 100)".to_string(),
        runs.fig2(scale)[5].clone(),
    )];
    for threshold in [1.0, 0.5, 0.25] {
        let mut cfg = periodic;
        cfg.adaptive_threshold = Some(threshold);
        rows.push((format!("adaptive I > {threshold}"), run_timeline(&cfg)));
    }
    let mean_i = |tl: &Timeline| {
        tl.steps[5..].iter().map(|s| s.imbalance).sum::<f64>() / (tl.steps.len() - 5) as f64
    };
    tabulate(
        "Periodic vs adaptive LB triggering (TemperedLB, B-Dot surrogate)",
        &rows,
        &[
            ("Schedule", &|(label, _)| label.clone()),
            ("LB runs", &|(_, tl)| tl.lb_invocations.to_string()),
            ("migrations", &|(_, tl)| tl.total_migrations.to_string()),
            ("t_p", &|(_, tl)| format!("{:.1}", tl.t_p)),
            ("t_lb", &|(_, tl)| format!("{:.2}", tl.t_lb)),
            ("t_total", &|(_, tl)| format!("{:.1}", tl.t_total())),
            ("mean I", &|(_, tl)| format!("{:.3}", mean_i(tl))),
        ],
    ) + "(adaptive triggering trades extra LB runs for lower sustained imbalance)\n"
}

/// The §V-B layout family at the paper's skew and jitter.
fn concentrated(num_ranks: usize, populated_ranks: usize, num_tasks: usize) -> ConcentratedLayout {
    ConcentratedLayout {
        num_ranks,
        populated_ranks,
        num_tasks,
        ..ConcentratedLayout::paper()
    }
}

fn sweeps(_: &mut Runs, scale: Scale) -> String {
    let layout = match scale {
        Scale::Quick => ConcentratedLayout::small(),
        // A mid-size layout: full 4096-rank sweeps would take hours for
        // little added information.
        Scale::Paper => concentrated(512, 8, 2500),
    };
    let dist = layout.build(11);
    [
        sweep_ablation(&dist, 1).to_table(),
        sweep_orderings(&dist, 1).to_table(),
        sweep_fanout(&dist, &[1, 2, 4, 6, 8], 1).to_table(),
        sweep_rounds(&dist, &[1, 2, 4, 6, 10], 1).to_table(),
        sweep_budget(&dist, &[(1, 1), (1, 4), (1, 8), (4, 4), (10, 8)], 1).to_table(),
        sweep_threshold(&dist, &[1.0, 1.05, 1.2, 1.5, 2.0], 1).to_table(),
        sweep_knowledge_cap(&dist, &[0, 256, 64, 16, 4], 1).to_table(),
        gossip_coverage(&dist, 6, 8, 1),
    ]
    .iter()
    .map(block)
    .collect()
}

/// The balancers the comparison tables run, in column order.
const BALANCERS: [&str; 4] = ["Tempered", "Grapevine", "Greedy", "Hier"];

/// Every one of [`BALANCERS`] on `dist`, TemperedLB at the given
/// `(trials, iters)` budget.
fn rebalance_all(
    dist: &Distribution,
    (trials, iters): (usize, usize),
    factory: &RngFactory,
    epoch: u64,
) -> [RebalanceResult; 4] {
    let tempered = TemperedConfig {
        trials,
        iters,
        ..TemperedConfig::default()
    };
    let balancers: [&mut dyn LoadBalancer; 4] = [
        &mut TemperedLb::new(tempered),
        &mut GrapevineLb::default(),
        &mut GreedyLb,
        &mut HierLb::default(),
    ];
    balancers.map(|b| b.rebalance(dist, factory, epoch))
}

fn scaling(_: &mut Runs, scale: Scale) -> String {
    let (sizes, async_sizes): (&[usize], &[usize]) = match scale {
        Scale::Quick => (&[64, 128], &[16, 32]),
        Scale::Paper => (&[64, 256, 1024, 4096], &[32, 64, 128, 256]),
    };
    let mut headers = vec!["P".to_string()];
    headers.extend(
        BALANCERS
            .iter()
            .flat_map(|b| [format!("{b} I"), format!("{b} msgs")]),
    );
    let headers: Vec<&str> = headers.iter().map(String::as_str).collect();
    let mut t = Table::new(
        "LB message cost and quality vs rank count (concentrated layout)",
        &headers,
    );
    for &p in sizes {
        let dist = concentrated(p, (p / 256).max(4), p * 3).build(3);
        let mut row = vec![p.to_string()];
        for r in rebalance_all(&dist, (2, 6), &RngFactory::new(3), 0) {
            row.push(format!("{:.2}", r.final_imbalance));
            row.push(r.messages_sent.to_string());
        }
        t.push_row(row);
    }

    // Async protocol modeled makespan on the simulated interconnect.
    let lb = LbProtocolConfig {
        trials: 2,
        iters: 4,
        fanout: 4,
        rounds: 6,
        ..Default::default()
    };
    let runs: Vec<_> = async_sizes
        .iter()
        .map(|&p| {
            let dist = concentrated(p, 4.max(p / 32), p * 3).build(5);
            (
                p,
                run_distributed_lb(&dist, lb, NetworkModel::default(), &RngFactory::new(5)),
            )
        })
        .collect();
    block(&t)
        + &tabulate(
            "Asynchronous protocol on the simulated interconnect",
            &runs,
            &[
                ("P", &|(p, _)| p.to_string()),
                ("final I", &|(_, out)| format!("{:.2}", out.final_imbalance)),
                ("virtual time (ms)", &|(_, out)| {
                    format!("{:.3}", out.report.finish_time * 1e3)
                }),
                ("messages", &|(_, out)| {
                    out.report.network.messages.to_string()
                }),
                ("KiB", &|(_, out)| {
                    format!("{:.0}", out.report.network.bytes as f64 / 1024.0)
                }),
            ],
        )
}

fn replay(_: &mut Runs, scale: Scale) -> String {
    let (mut scenario, steps) = match scale {
        Scale::Quick => (BdotScenario::small(), 60),
        Scale::Paper => (BdotScenario::paper_shape(), 400),
    };
    scenario.steps = steps;
    replay_table(&record_empire_trace(
        scenario,
        CostModel::default(),
        FIG_SEED,
        steps / 4,
    ))
}

/// Replay every balancer over each recorded phase of `trace` and
/// tabulate the achieved imbalance (`repro replay --trace FILE` hands a
/// parsed file straight to this).
pub fn replay_table(trace: &Trace) -> String {
    let factory = RngFactory::new(7);
    let headers = [&["Phase", "Initial"], &BALANCERS[..]].concat();
    let mut t = Table::new(
        "Balancer replay over recorded phases (imbalance I)",
        &headers,
    );
    for (i, phase) in trace.phases.iter().enumerate() {
        let dist = trace
            .distribution(i)
            .expect("a parsed or self-recorded trace reconstructs");
        let mut row = vec![phase.phase.to_string(), fmt_sig(dist.imbalance())];
        let results = rebalance_all(&dist, (4, 6), &factory, i as u64);
        row.extend(results.map(|r| fmt_sig(r.final_imbalance)));
        t.push_row(row);
    }
    block(&t)
}

/// The distributed message-protocol execution of the PIC application
/// against the global timeline harness. The no-LB runs must agree
/// bit-for-bit up to summation order (replicated injection + identical
/// kernels); the LB-enabled runs must agree in regime (different random
/// streams).
fn dist_validation(_: &mut Runs, scale: Scale) -> String {
    // Moderate scale: the distributed run simulates every message.
    let mut scenario = BdotScenario::small();
    scenario.mesh.ranks_x = 8;
    scenario.mesh.ranks_y = 8;
    scenario.steps = match scale {
        Scale::Quick => 60,
        Scale::Paper => 200,
    };
    scenario.inject_base = 60;
    let lb = LbProtocolConfig {
        trials: 3,
        iters: 4,
        fanout: 4,
        rounds: 5,
        ..Default::default()
    };
    let distributed = |lb_first_step| {
        let cost = CostModel::default();
        let cfg = DistPicConfig {
            scenario,
            cost,
            lb,
            lb_first_step,
            lb_period: 25,
        };
        run_distributed_pic(cfg, NetworkModel::default(), FIG_SEED, Recorder::disabled())
    };
    // The global harness on the distributed run's LB schedule and budget.
    let global = |mode| {
        let mut cfg = TimelineConfig::new(scenario, mode, FIG_SEED);
        cfg.lb_period = 25;
        cfg.tempered_trials = lb.trials;
        cfg.tempered_iters = lb.iters;
        run_timeline(&cfg)
    };
    // No-LB: exact agreement expected. LB: regime agreement expected.
    let (d_none, g_none) = (
        distributed(usize::MAX),
        global(ExecutionMode::Amt(LbStrategy::None)),
    );
    let (d_lb, g_lb) = (distributed(2), global(TEMPERED_FEWEST));

    let steps: Vec<usize> = (0..scenario.steps).step_by(scenario.steps / 10).collect();
    let delta = |s: &usize| (d_none.stats[*s].imbalance - g_none.steps[*s].imbalance).abs();
    let max_delta = steps.iter().map(delta).fold(0.0, f64::max);
    assert!(max_delta < 1e-9, "no-LB runs must agree");
    tabulate(
        "Imbalance I: distributed protocol vs global harness",
        &steps,
        &[
            ("step", &|s| s.to_string()),
            ("no-LB dist", &|&s| fmt_sig(d_none.stats[s].imbalance)),
            ("no-LB global", &|&s| fmt_sig(g_none.steps[s].imbalance)),
            ("|Δ|", &|s| format!("{:.2e}", delta(s))),
            ("LB dist", &|&s| fmt_sig(d_lb.stats[s].imbalance)),
            ("LB global", &|&s| fmt_sig(g_lb.steps[s].imbalance)),
        ],
    ) + &format!(
        "max no-LB deviation: {max_delta:.3e} (expected ~1e-12: same physics, different arithmetic order)\n\
         distributed run: {} colors migrated, {} messages, {:.1} MiB, {:.1} ms modeled\n",
        d_lb.colors_migrated,
        d_lb.report.network.messages,
        d_lb.report.network.bytes as f64 / (1024.0 * 1024.0),
        d_lb.report.finish_time * 1e3
    )
}

/// The service sweep's cluster: 8 ranks of 32 shards each.
const SVC_RANKS: usize = 8;
const SVC_SHARDS_PER_RANK: usize = 32;

/// Boulmier et al.'s question on the service workload: does balancing on
/// a forecast beat balancing on last phase's loads (persistence)? Every
/// analysis-mode balancer × the four `tempered-svc` generators × the
/// seed list, one multi-phase timeline per cell, reporting `I` and the
/// tail digest the predictive family is meant to move. Two gates:
///
/// 1. anticipation pays: summed over the seeds, predictive TemperedLB
///    beats its persistence twin on max phase time for the diurnal and
///    flash-crowd generators (GrapevineLB's threshold gossip is
///    noisier, so its predictive variant is reported, not gated);
/// 2. the stack survives gray links ([`svc_gray_links`]).
fn svc_sweep(_: &mut Runs, scale: Scale) -> String {
    let seeds: &[u64] = match scale {
        Scale::Quick => &[5],
        Scale::Paper => &[5, 11, 21],
    };
    let (ranks, shards) = (SVC_RANKS, SVC_SHARDS_PER_RANK);
    let mut rows: Vec<(u64, String, SvcTimeline)> = Vec::new();
    for &seed in seeds {
        for sc in [
            SvcScenario::diurnal(ranks, shards, 48, seed),
            SvcScenario::flash_crowd(ranks, shards, 36, seed),
            SvcScenario::hot_keys(ranks, shards, 40, seed),
            SvcScenario::mixed(ranks, shards, 48, seed),
        ] {
            for kind in SvcBalancerKind::analysis_set() {
                let t = run_svc_timeline(&SvcTimelineConfig::new(sc.clone(), kind, seed));
                rows.push((seed, sc.name.clone(), t));
            }
        }
    }
    let f6 = |x: f64| format!("{x:.6}");
    let mut out = tabulate(
        "Service workload: forecast-driven vs persistence balancing",
        &rows,
        &[
            ("scenario", &|(_, name, _)| name.clone()),
            ("workload", &|(.., t)| t.workload.clone()),
            ("seed", &|(seed, ..)| seed.to_string()),
            ("balancer", &|(.., t)| t.balancer.to_string()),
            ("ranks", &|_| ranks.to_string()),
            ("shards", &|_| (ranks * shards).to_string()),
            ("phases", &|(.., t)| t.tail.phases.to_string()),
            ("mean_imbalance", &|(.., t)| f6(t.tail.mean_imbalance)),
            ("max_phase_time", &|(.., t)| f6(t.tail.max_phase_time)),
            ("sum_of_max", &|(.., t)| f6(t.tail.sum_of_max)),
            ("p95_rank_load", &|(.., t)| f6(t.tail.p95_rank_load)),
            ("p99_rank_load", &|(.., t)| f6(t.tail.p99_rank_load)),
            ("lb_invocations", &|(.., t)| t.lb_invocations.to_string()),
            ("migrations", &|(.., t)| t.total_migrations.to_string()),
            ("messages", &|(.., t)| t.messages_sent.to_string()),
        ],
    );
    for scenario in ["diurnal", "flash_crowd"] {
        let total = |balancer| -> f64 {
            let cells = rows
                .iter()
                .filter(|(_, name, t)| name == scenario && t.balancer == balancer);
            cells.map(|(.., t)| t.tail.max_phase_time).sum()
        };
        let (pred, twin) = (total("pred_tempered"), total("tempered"));
        assert!(
            pred < twin,
            "pred_tempered must beat tempered on {scenario} max phase time \
             (got {pred:.3} vs {twin:.3} summed over seeds {seeds:?})"
        );
        out += &format!("gate {scenario:>12}: pred_tempered {pred:.3} < tempered {twin:.3}  ok\n");
    }
    out + &svc_gray_links(seeds[0])
}

/// One distributed predictive flash-crowd decision under the shipped
/// gray-link plan, `examples/plans/svc_flashcrowd.json`: the forecast
/// bank watches the ramp, the protocol runs on the forecast loads over
/// faulty links, and the run must complete undegraded, every task
/// accounted for and the imbalance still lowered.
fn svc_gray_links(seed: u64) -> String {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../examples/plans/svc_flashcrowd.json");
    let plan = FaultPlan::load(&path, SVC_RANKS).unwrap_or_else(|e| panic!("{e}"));
    let sc = SvcScenario::flash_crowd(SVC_RANKS, SVC_SHARDS_PER_RANK, 36, seed);
    let mut dist = sc.initial_distribution();
    let mut bank = ForecastBank::new(Holt::default());
    bank.quantum = LOAD_QUANTUM;
    // Observe through the ramp; decide at its steepest point.
    for phase in 0..=sc.phases as u64 / 3 + 3 {
        sc.apply_phase(&mut dist, phase);
        bank.observe_epoch(phase, &dist);
    }
    let forecast = bank.forecast(&dist);
    let cfg = LbProtocolConfig {
        iters: 4,
        ..LbProtocolConfig::quick()
    };
    let out = run_distributed_lb_with_faults(
        &forecast,
        cfg.hardened(RetryConfig::generous()),
        NetworkModel::default(),
        &RngFactory::new(derive_seed(seed, &[0x5EC5_96A1])),
        plan,
    );
    assert!(
        out.report.completed && out.degraded_ranks == 0,
        "gray links degrade service, not correctness: the run terminates and no rank parks"
    );
    assert_eq!(out.distribution.num_tasks(), forecast.num_tasks());
    let (before, after) = (out.initial_imbalance, out.final_imbalance);
    assert!(
        after < before,
        "the crowd decision must still balance under gray links ({before:.3} -> {after:.3})"
    );
    format!(
        "gate   gray_links: dist pred tempered I {before:.3} -> {after:.3}, {} msgs, \
         {} retransmits  ok\n",
        out.report.network.messages, out.reliable.retransmitted,
    )
}

/// The modeled cost of one hardened, fault-free LB invocation —
/// messages, bytes, events, virtual time and imbalance — which a
/// refactor must leave bit-identical: a change that moves any of them is
/// a diff of this file. Two input shapes, the hot-spot distribution and
/// the service flash crowd frozen at the steepest point of its ramp (a
/// hot hashed subset rather than a hot rank prefix), under both
/// balancers; then hotspot/tempered at the rank counts of
/// `perf_baseline`'s scaling sweep, which times these same runs.
///
/// The 16-rank svc_flash/grapevine row keeps its initial imbalance by
/// design: uncoordinated senders acting on stale estimates overshoot the
/// same few recipients, so no proposal improves the max and the
/// strict-improvement commit gate keeps the original placement — the
/// failure mode the paper motivates TemperedLB with. Pinned by
/// `crates/svc/tests/grapevine_stall.rs`.
fn modeled_cost(_: &mut Runs, scale: Scale) -> String {
    const SEED: u64 = 4242;
    let (grid, sweep): (&[usize], &[usize]) = match scale {
        Scale::Quick => (&[8, 16], &[256]),
        Scale::Paper => (&[8, 32, 128], &[256, 1024]),
    };
    let pairs = [
        ("hotspot", "tempered"),
        ("hotspot", "grapevine"),
        ("svc_flash", "tempered"),
        ("svc_flash", "grapevine"),
    ];
    let cells = grid.iter().flat_map(|&p| pairs.map(|(w, b)| (w, b, p)));
    let cells = cells.chain(sweep.iter().map(|&p| ("hotspot", "tempered", p)));
    let runs: Vec<_> = cells
        .map(|(workload, balancer, p)| {
            let dist = if workload == "hotspot" {
                Distribution::concentrated(p, (p / 8).max(2), 40)
            } else {
                let sc = SvcScenario::flash_crowd(p, 16, 36, SEED);
                let mut dist = sc.initial_distribution();
                sc.apply_phase(&mut dist, sc.phases as u64 / 3 + 3);
                dist
            };
            let cfg = if balancer == "tempered" {
                LbProtocolConfig::quick()
            } else {
                LbProtocolConfig::grapevine()
            };
            let cfg = cfg.hardened(RetryConfig::generous());
            let out =
                run_distributed_lb(&dist, cfg, NetworkModel::default(), &RngFactory::new(SEED));
            assert!(
                out.report.completed && out.degraded_ranks == 0,
                "{workload}/{balancer} at {p} ranks: a fault-free run completes undegraded"
            );
            (workload, balancer, p, dist.num_tasks(), out)
        })
        .collect();
    tabulate(
        "Modeled cost of one hardened, fault-free LB invocation (seed 4242)",
        &runs,
        &[
            ("workload", &|(w, ..)| w.to_string()),
            ("balancer", &|(_, b, ..)| b.to_string()),
            ("P", &|(_, _, p, ..)| p.to_string()),
            ("tasks", &|(.., tasks, _)| tasks.to_string()),
            ("messages", &|(.., out)| {
                out.report.network.messages.to_string()
            }),
            ("bytes", &|(.., out)| out.report.network.bytes.to_string()),
            ("events", &|(.., out)| {
                out.report.events_delivered.to_string()
            }),
            ("virtual ms", &|(.., out)| {
                format!("{:.6}", out.report.finish_time * 1e3)
            }),
            ("initial I", &|(.., out)| {
                format!("{:.4}", out.initial_imbalance)
            }),
            ("final I", &|(.., out)| {
                format!("{:.4}", out.final_imbalance)
            }),
        ],
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sample_indices_bounds() {
        assert_eq!(sample_indices(5, 10), vec![0, 1, 2, 3, 4]);
        let s = sample_indices(1400, 20);
        assert!(s.len() <= 21);
        assert_eq!(*s.first().unwrap(), 0);
        assert_eq!(*s.last().unwrap(), 1399);
        assert!(s.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn fig_scenario_paper_scale_by_default() {
        let s = fig_scenario(Scale::Paper);
        assert_eq!(s.mesh.num_ranks(), 400);
        assert_eq!(s.steps, 1400);
        assert_eq!(fig_scenario(Scale::Quick).steps, 250);
    }

    #[test]
    fn series_table_is_step_plus_one_column_per_series() {
        let mut scenario = BdotScenario::small();
        scenario.steps = 12;
        let tl = run_timeline(&TimelineConfig::new(
            scenario,
            ExecutionMode::Spmd,
            FIG_SEED,
        ));
        let cols = [
            column(&tl, " a", |s| s.imbalance),
            column(&tl, " b", StepStats::t_total),
        ];
        let text = series_table("T", 5, cols);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], "T");
        assert_eq!(
            lines[1].split_whitespace().collect::<Vec<_>>(),
            ["step", "SPMD", "(no", "AMT)", "a", "SPMD", "(no", "AMT)", "b"]
        );
        // Title, header, rule, one row per sampled step, blank line.
        assert_eq!(lines.len(), 3 + sample_indices(12, 5).len() + 1);
        assert!(lines[lines.len() - 2].trim_start().starts_with("11 "));
    }
}
