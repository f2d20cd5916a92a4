//! Shared harness for the experiment binaries and benches that
//! regenerate the paper's tables and figures.
//!
//! Every binary in `src/bin/` regenerates one artifact (see DESIGN.md §3
//! for the index). They share the scenario construction and the
//! six-configuration runner here so Fig. 2, Fig. 3, and Fig. 4 are all
//! derived from the *same* runs, exactly as in the paper.
//!
//! Scale control: the binaries run the paper-shaped scenario (400 ranks,
//! ×24 overdecomposition, 1400 steps) by default; set
//! `TEMPERED_QUICK=1` to run a reduced configuration for smoke testing.

pub mod sockets;

use empire_pic::{run_timeline, BdotScenario, ExecutionMode, LbStrategy, Timeline, TimelineConfig};
use tempered_core::ordering::OrderingKind;
use tempered_obs::MetricsRegistry;
use tempered_runtime::DistLbResult;

/// Master seed shared by all figure runs.
pub const FIG_SEED: u64 = 2021;

/// Whether quick (reduced-scale) mode was requested via `TEMPERED_QUICK`.
pub fn quick_mode() -> bool {
    std::env::var("TEMPERED_QUICK").is_ok_and(|v| v != "0" && !v.is_empty())
}

/// The scenario behind Figs. 2–4.
pub fn fig_scenario() -> BdotScenario {
    let mut s = BdotScenario::paper_shape();
    if quick_mode() {
        s.steps = 250;
        s.inject_base = 40;
    }
    s
}

/// Timeline configuration for one execution mode of the figure runs.
pub fn fig_config(scenario: BdotScenario, mode: ExecutionMode) -> TimelineConfig {
    let mut cfg = TimelineConfig::new(scenario, mode, FIG_SEED);
    if quick_mode() {
        cfg.tempered_trials = 3;
        cfg.tempered_iters = 4;
        // Quick mode compresses the run 5.6x but keeps per-step physics;
        // shrink the LB period to keep the physical interval between
        // balancer invocations comparable.
        cfg.lb_period = 20;
    }
    cfg
}

/// Run the six Fig. 2/3 configurations (SPMD, AMT-no-LB, Grapevine,
/// Greedy, Hier, Tempered/FewestMigrations) over the shared scenario.
pub fn run_fig2_timelines() -> Vec<Timeline> {
    let scenario = fig_scenario();
    ExecutionMode::fig2_set()
        .into_iter()
        .map(|mode| run_timeline(&fig_config(scenario, mode)))
        .collect()
}

/// Run the Fig. 4d ordering study: TemperedLB under the three §V-E
/// traversal orders.
pub fn run_fig4d_timelines() -> Vec<Timeline> {
    let scenario = fig_scenario();
    [
        OrderingKind::LoadDescending,
        OrderingKind::FewestMigrations,
        OrderingKind::LightestFirst,
    ]
    .into_iter()
    .map(|ordering| {
        run_timeline(&fig_config(
            scenario,
            ExecutionMode::Amt(LbStrategy::Tempered(ordering)),
        ))
    })
    .collect()
}

/// Fold the per-run counters of one distributed-LB run into a
/// [`MetricsRegistry`] under the canonical names used across the
/// experiment binaries (`lb.*`, `fault.*`, `sim.*`). Every binary that
/// tabulates repair work or fault accounting goes through this one
/// aggregation instead of plucking struct fields ad hoc.
pub fn lb_run_metrics(out: &DistLbResult) -> MetricsRegistry {
    let mut m = MetricsRegistry::default();
    out.reliable.record(&mut m);
    m.counter_add("lb.degraded_ranks", out.degraded_ranks as u64);
    m.counter_add("lb.parked_ranks", out.parked_ranks as u64);
    m.counter_add("lb.tasks_migrated", out.tasks_migrated as u64);
    out.report.faults.record(&mut m);
    m.counter_add("sim.events_delivered", out.report.events_delivered);
    m.record_network("sim.net", &out.report.network);
    m.gauge_max("sim.finish_time_s", out.report.finish_time);
    m.gauge_max("lb.initial_imbalance", out.initial_imbalance);
    m.gauge_max("lb.final_imbalance", out.final_imbalance);
    m
}

/// Format the named counters of `reg` as table cells, in order; a
/// counter that was never touched renders as `0`.
pub fn counter_cells(reg: &MetricsRegistry, keys: &[&str]) -> Vec<String> {
    keys.iter().map(|k| reg.counter(k).to_string()).collect()
}

/// Write one artifact under `results/`, creating the directory on
/// demand, and announce it on stdout. Returns the path written.
pub fn write_results(name: &str, contents: &str) -> std::path::PathBuf {
    let dir = std::path::Path::new("results");
    std::fs::create_dir_all(dir).expect("create results/");
    let path = dir.join(name);
    std::fs::write(&path, contents).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    println!("wrote {}", path.display());
    path
}

/// Series down-sampler: at most `max_points` evenly spaced step indices,
/// always including the final step (figures print a readable number of
/// rows, not 1400).
pub fn sample_indices(len: usize, max_points: usize) -> Vec<usize> {
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
    fn lb_run_metrics_covers_the_tabulated_counters() {
        use tempered_core::distribution::Distribution;
        use tempered_core::rng::RngFactory;
        use tempered_runtime::{run_distributed_lb, LbProtocolConfig, NetworkModel};

        let dist = Distribution::from_loads(vec![vec![1.0; 8], vec![], vec![], vec![]]);
        let cfg = LbProtocolConfig {
            trials: 1,
            iters: 2,
            fanout: 2,
            rounds: 2,
            ..Default::default()
        };
        let out = run_distributed_lb(&dist, cfg, NetworkModel::default(), &RngFactory::new(9));
        let reg = lb_run_metrics(&out);
        assert_eq!(reg.counter("lb.tasks_migrated"), out.tasks_migrated as u64);
        assert_eq!(
            reg.counter("sim.events_delivered"),
            out.report.events_delivered
        );
        let cells = counter_cells(&reg, &["lb.degraded_ranks", "no.such.counter"]);
        assert_eq!(cells, vec!["0".to_string(), "0".to_string()]);
    }

    #[test]
    fn fig_scenario_paper_scale_by_default() {
        // The test environment does not set TEMPERED_QUICK.
        if !quick_mode() {
            let s = fig_scenario();
            assert_eq!(s.mesh.num_ranks(), 400);
            assert_eq!(s.steps, 1400);
        }
    }
}
