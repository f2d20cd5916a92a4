//! The asynchronous, message-driven TemperedLB protocol on the simulated
//! AMT runtime: collectives, barrier-free gossip sequenced by wave-based
//! termination detection, lazy transfer proposals, and lazy migration —
//! on both the deterministic event-driven executor and the
//! multi-threaded executor.
//!
//! Run with: `cargo run --release --example async_runtime`

use std::time::Duration;
use tempered_lb::prelude::*;
use tempered_lb::runtime::lb::LbRank;
use tempered_lb::runtime::parallel::run_parallel;

fn main() {
    let dist = Distribution::concentrated(64, 4, 60);
    let cfg = LbProtocolConfig {
        trials: 3,
        iters: 5,
        fanout: 4,
        rounds: 6,
        ..Default::default()
    };
    let factory = RngFactory::new(99);

    println!(
        "input: {} ranks, {} tasks, I = {:.2}",
        dist.num_ranks(),
        dist.num_tasks(),
        dist.imbalance()
    );
    println!();

    // --- Deterministic event-driven executor -----------------------------
    let out = run_distributed_lb(&dist, cfg, NetworkModel::default(), &factory);
    println!("event-driven executor (virtual EDR-class interconnect):");
    println!("  final imbalance   : {:.3}", out.final_imbalance);
    println!("  tasks migrated    : {}", out.tasks_migrated);
    println!("  protocol messages : {}", out.report.network.messages);
    println!(
        "  protocol volume   : {:.1} KiB",
        out.report.network.bytes as f64 / 1024.0
    );
    println!(
        "  virtual time      : {:.3} ms (modeled protocol makespan)",
        out.report.finish_time * 1e3
    );
    println!("  per-iteration imbalance (trial 0):");
    for r in out.records.iter().filter(|r| r.trial == 0) {
        println!("    iter {:>2}: I = {:.3}", r.iteration, r.imbalance);
    }
    println!();

    // --- Multi-threaded executor ------------------------------------------
    // The same protocol actors under real concurrency: termination
    // detection and epoch buffering must hold under arbitrary message
    // interleavings.
    let ranks = LbRank::for_dist(&dist, cfg, factory);
    let report = run_parallel(ranks, 8, Duration::from_secs(30));
    assert!(report.completed, "threaded run must terminate");
    let max_load: f64 = report
        .ranks
        .iter()
        .map(|r| r.final_tasks().iter().map(|t| t.load).sum::<f64>())
        .fold(0.0, f64::max);
    let avg = dist.total_load().get() / dist.num_ranks() as f64;
    println!("multi-threaded executor (8 workers, real concurrency):");
    println!("  final imbalance   : {:.3}", max_load / avg - 1.0);
    println!("  protocol messages : {}", report.network.messages);
    let total_tasks: usize = report.ranks.iter().map(|r| r.final_tasks().len()).sum();
    println!("  tasks conserved   : {total_tasks} / {}", dist.num_tasks());
}
