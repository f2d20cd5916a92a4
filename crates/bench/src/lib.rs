//! Shared harness for the experiment binaries that regenerate the
//! paper's tables and figures and drive the chaos and scaling sweeps.
//!
//! [`repro`] is every deterministic table: the paper's evaluation, the
//! service-workload sweep and the modeled-cost grid, one table of
//! experiments behind the one `repro` binary (`repro <name>`; see
//! DESIGN.md §3 for the index), its outputs committed under
//! `results/repro/`. The other binaries in `src/bin/` each drive one
//! harness of their own.
//!
//! Scale control: experiments run the paper-shaped scenario (400 ranks,
//! ×24 overdecomposition, 1400 steps) by default; set
//! `TEMPERED_QUICK=1` to run a reduced configuration for smoke testing.

pub mod repro;
pub mod sockets;

use tempered_obs::MetricsRegistry;
use tempered_runtime::DistLbResult;

/// Whether quick (reduced-scale) mode was requested via `TEMPERED_QUICK`.
pub fn quick_mode() -> bool {
    std::env::var("TEMPERED_QUICK").is_ok_and(|v| v != "0" && !v.is_empty())
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

/// Write one artifact under `results/` (`name` may name a
/// subdirectory), creating directories on demand, and announce it on
/// stdout. Returns the path written.
pub fn write_results(name: &str, contents: &str) -> std::path::PathBuf {
    let path = std::path::Path::new("results").join(name);
    std::fs::create_dir_all(path.parent().expect("under results/")).expect("create results/");
    std::fs::write(&path, contents).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    println!("wrote {}", path.display());
    path
}

#[cfg(test)]
mod tests {
    use super::*;

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
}
