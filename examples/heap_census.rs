//! Who owns the heap of one hardened LB round: the simulator's heap
//! census at its largest sample and at the end of the run, one owner a
//! line (see `tempered_runtime::census`).
//!
//! The round is the benchmark's `sim_hotspot` shape — an eighth of the
//! ranks hold 40 unit tasks; 2 trials × 3 iterations, fanout 4, 5
//! rounds, hardened delivery, seed 4242 — at the rank count given as the
//! one argument:
//!
//! `cargo run --release --example heap_census -- 2048`
//!
//! The output is deterministic, so two builds compare by running this in
//! each checkout and diffing the tables.

use tempered_lb::prelude::*;
use tempered_lb::runtime::census::Owner;
use tempered_lb::runtime::reliable::RetryConfig;
use tempered_lb::runtime::{run_distributed_lb_traced, FaultPlan};
use tempered_obs::Recorder;

fn main() {
    let ranks: usize = match std::env::args().nth(1).map(|a| a.parse()) {
        Some(Ok(n)) if n >= 2 => n,
        _ => {
            eprintln!("usage: heap_census RANKS   (at least 2)");
            std::process::exit(2);
        }
    };
    let dist = Distribution::from_loads((0..ranks).map(|r| {
        if r < ranks / 8 {
            vec![1.0; 40]
        } else {
            Vec::new()
        }
    }));
    let cfg = LbProtocolConfig {
        trials: 2,
        iters: 3,
        fanout: 4,
        rounds: 5,
        ..LbProtocolConfig::default()
    }
    .hardened(RetryConfig::generous());
    let recorder = Recorder::with_capacity(ranks, 1);
    let out = run_distributed_lb_traced(
        &dist,
        cfg,
        NetworkModel::default(),
        &RngFactory::new(4242),
        FaultPlan::none(),
        recorder.clone(),
    );
    let metrics = recorder.snapshot().metrics;
    let gauge = |name: &str| metrics.gauge(name).unwrap_or(0.0) as u64;

    println!(
        "{ranks} ranks, {} events, peak sampled at event {}",
        out.report.events_delivered,
        gauge("mem.peak.event")
    );
    println!(
        "{:>16} {:>12} {:>7} {:>12}",
        "owner", "peak B", "share", "end B"
    );
    let total = gauge("mem.peak.total_bytes").max(1);
    let names = Owner::ALL.iter().map(|o| o.name()).chain(["total"]);
    for name in names {
        let peak = gauge(&format!("mem.peak.{name}_bytes"));
        let end = gauge(&format!("mem.end.{name}_bytes"));
        let share = 100.0 * peak as f64 / total as f64;
        println!("{name:>16} {peak:>12} {share:>6.1}% {end:>12}");
    }
}
