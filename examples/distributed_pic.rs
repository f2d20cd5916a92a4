//! The PIC application running *as a distributed protocol* on the
//! simulated AMT runtime: replicated injection, home-routed particle
//! exchange, per-step stats allreduces, embedded asynchronous TemperedLB,
//! and real particle migration — the full vt-style execution the paper's
//! EMPIRE uses, at laptop scale.
//!
//! Run with: `cargo run --release --example distributed_pic`

use tempered_lb::empire::{run_distributed_pic, BdotScenario, CostModel, DistPicConfig};
use tempered_lb::prelude::*;
use tempered_obs::Recorder;

fn main() {
    let mut scenario = BdotScenario::small();
    scenario.steps = 60;
    let cfg = DistPicConfig {
        scenario,
        cost: CostModel::default(),
        lb: LbProtocolConfig {
            iters: 4,
            ..LbProtocolConfig::quick()
        },
        lb_first_step: 4,
        lb_period: 20,
    };

    println!(
        "distributed PIC: {} ranks, x{} overdecomposition, {} steps, LB at 4 then every 20",
        cfg.scenario.mesh.num_ranks(),
        cfg.scenario.mesh.colors_per_rank(),
        cfg.scenario.steps
    );

    let run = |cfg| run_distributed_pic(cfg, NetworkModel::default(), 2021, Recorder::disabled());
    let balanced = run(cfg);
    let mut no_lb = cfg;
    no_lb.lb_first_step = usize::MAX;
    let unbalanced = run(no_lb);

    println!();
    println!(
        "{:>5} {:>12} {:>12} {:>12}",
        "step", "I (no LB)", "I (LB)", "particles"
    );
    println!("{}", "-".repeat(46));
    for s in (0..cfg.scenario.steps).step_by(6) {
        println!(
            "{:>5} {:>12.3} {:>12.3} {:>12}",
            s,
            unbalanced.stats[s].imbalance,
            balanced.stats[s].imbalance,
            balanced.stats[s].num_particles
        );
    }

    println!();
    println!("colors migrated       : {}", balanced.colors_migrated);
    println!(
        "protocol messages     : {} ({:.1} KiB)",
        balanced.report.network.messages,
        balanced.report.network.bytes as f64 / 1024.0
    );
    println!(
        "modeled protocol time : {:.2} ms over the simulated interconnect",
        balanced.report.finish_time * 1e3
    );
    println!();
    println!("Every global effect here was a message: particles crossing color");
    println!("boundaries routed through mesh-home location managers, per-step");
    println!("stats via tree allreduce, the balancer embedded as a sub-protocol,");
    println!("and task payloads fetched lazily from previous owners.");
}
