//! EMPIRE B-Dot surrogate: run the plasma workload under the paper's
//! configurations and print the Fig. 3-style breakdown plus imbalance
//! traces.
//!
//! Run with: `cargo run --release --example empire_bdot`
//! (a reduced-scale scenario so it finishes in seconds; the full
//! paper-scale harness is `cargo run --release -p tempered-bench --bin
//! repro -- fig2_overall`).

use tempered_lb::prelude::*;

fn main() {
    let scenario = BdotScenario::small();
    println!(
        "B-Dot surrogate: {} ranks, x{} overdecomposition, {} steps",
        scenario.mesh.num_ranks(),
        scenario.mesh.colors_per_rank(),
        scenario.steps
    );
    println!();

    let modes = [
        ExecutionMode::Spmd,
        ExecutionMode::Amt(LbStrategy::None),
        ExecutionMode::Amt(LbStrategy::Grapevine),
        ExecutionMode::Amt(LbStrategy::Greedy),
        ExecutionMode::Amt(LbStrategy::Tempered(OrderingKind::FewestMigrations)),
    ];

    let mut timelines: Vec<Timeline> = Vec::new();
    for mode in modes {
        let mut cfg = TimelineConfig::new(scenario, mode, 7);
        cfg.lb_period = 30;
        cfg.tempered_trials = 4;
        cfg.tempered_iters = 6;
        timelines.push(run_timeline(&cfg));
    }

    // Fig. 3-style breakdown.
    println!(
        "{:<34} {:>8} {:>8} {:>8} {:>9} {:>9}",
        "configuration", "t_n", "t_p", "t_lb", "t_total", "speedup"
    );
    println!("{}", "-".repeat(80));
    let spmd_total = timelines[0].t_total();
    for t in &timelines {
        println!(
            "{:<34} {:>8.2} {:>8.2} {:>8.3} {:>9.2} {:>8.2}x",
            t.label,
            t.t_n,
            t.t_p,
            t.t_lb,
            t.t_total(),
            spmd_total / t.t_total()
        );
    }

    // Imbalance trace (Fig. 4c flavor) at a few checkpoints.
    println!();
    println!("imbalance I over time:");
    print!("{:<34}", "configuration");
    let checkpoints: Vec<usize> = (0..scenario.steps).step_by(scenario.steps / 6).collect();
    for c in &checkpoints {
        print!(" {c:>7}");
    }
    println!();
    println!("{}", "-".repeat(34 + 8 * checkpoints.len()));
    for t in &timelines {
        print!("{:<34}", t.label);
        for &c in &checkpoints {
            print!(" {:>7.2}", t.steps[c].imbalance);
        }
        println!();
    }

    println!();
    println!("Balanced configurations keep I near 0 between LB invocations while");
    println!("the unbalanced runs track the plasma's spatial concentration.");
}
