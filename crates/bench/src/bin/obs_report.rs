//! Observability report: record a traced distributed PIC run, export the
//! Chrome trace and metric dumps, and regenerate the Fig. 3-style LB
//! cost breakdown *from the recorded trace alone*.
//!
//! Run with: `cargo run --release -p tempered-bench --bin obs_report`
//! — runs a 4-rank scenario, writes `results/trace.json` (open it at
//! <https://ui.perfetto.dev>), `results/metrics.csv`, and
//! `results/metrics.json`, then re-reads the trace file and prints the
//! per-phase cost table derived from it.
//!
//! Pass a path to re-report an existing trace without running anything:
//! `cargo run -p tempered-bench --bin obs_report -- results/trace.json`

use empire_pic::{run_distributed_pic, BdotScenario, DistPicConfig, Mesh};
use lbaf::Table;
use tempered_bench::write_results;
use tempered_obs::{
    cost_breakdown, metrics_to_csv, metrics_to_json, read_chrome_trace, write_chrome_trace,
    CostBreakdown, Recorder,
};
use tempered_runtime::sim::NetworkModel;
use tempered_runtime::LbProtocolConfig;

/// Seed of the recorded demo run.
const SEED: u64 = 2021;

/// The 4-rank demo scenario: small B-Dot physics on a 2×2 rank grid so
/// the trace stays readable in Perfetto.
fn demo_config() -> DistPicConfig {
    let mut scenario = BdotScenario::small();
    scenario.mesh = Mesh {
        ranks_x: 2,
        ranks_y: 2,
        ..Mesh::small()
    };
    scenario.steps = 24;
    DistPicConfig {
        scenario,
        cost: Default::default(),
        lb: LbProtocolConfig {
            trials: 1,
            iters: 2,
            fanout: 2,
            rounds: 3,
            ..Default::default()
        },
        lb_first_step: 4,
        lb_period: 8,
    }
}

fn print_breakdown(b: &CostBreakdown) {
    let title = format!(
        "Fig. 3-style cost breakdown from the trace ({} ranks)",
        b.num_ranks
    );
    let mut t = Table::new(&title, &["group", "spans", "total_s", "max_rank_s"]);
    for row in &b.rows {
        t.push_row(vec![
            row.group.clone(),
            row.count.to_string(),
            format!("{:.6}", row.total_s),
            format!("{:.6}", row.max_rank_s),
        ]);
    }
    println!("{}", t.render());
    println!(
        "t_lb (all LB spans, summed over ranks): {:.6} s",
        b.lb_total_s()
    );
    if !b.instants.is_empty() {
        let mut t = Table::new("Instant events", &["group", "count"]);
        for (group, count) in &b.instants {
            t.push_row(vec![group.clone(), count.to_string()]);
        }
        println!("{}", t.render());
    }
}

fn main() {
    if let Some(path) = std::env::args().nth(1) {
        // Report-only mode: everything below derives from the file.
        let json = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"));
        let records = read_chrome_trace(&json).expect("parse trace");
        print_breakdown(&cost_breakdown(&records));
        return;
    }

    let cfg = demo_config();
    let num_ranks = cfg.scenario.mesh.num_ranks();
    eprintln!("obs_report: tracing a {num_ranks}-rank distributed PIC run (seed {SEED})");
    let recorder = Recorder::enabled(num_ranks);
    let out = run_distributed_pic(cfg, NetworkModel::default(), SEED, recorder.clone());
    eprintln!(
        "run complete: {} steps, {} colors migrated, {} events",
        out.stats.len(),
        out.colors_migrated,
        out.report.events_delivered
    );

    let trace = recorder.snapshot();
    assert_eq!(trace.dropped_events, 0, "ring buffers must not overflow");
    let json = write_chrome_trace(&trace);
    let path = write_results("trace.json", &json);
    write_results("metrics.csv", &metrics_to_csv(&trace.metrics));
    write_results("metrics.json", &metrics_to_json(&trace.metrics));

    // Regenerate the breakdown from the file we just wrote — the report
    // must survive the round trip through the export format.
    let json = std::fs::read_to_string(&path).expect("re-read trace.json");
    let records = read_chrome_trace(&json).expect("parse our own trace");
    let breakdown = cost_breakdown(&records);
    assert!(
        breakdown.lb_total_s() > 0.0,
        "an LB step ran, so the trace must contain LB spans"
    );
    print_breakdown(&breakdown);
}
