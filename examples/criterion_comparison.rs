//! §V-B vs §V-D: the original GrapevineLB transfer criterion against the
//! paper's relaxed (provably optimal) criterion, on the concentrated
//! layout family.
//!
//! Run with: `cargo run --release --example criterion_comparison`
//! (uses the scaled-down layout; the full 2¹²-rank experiment is
//! `cargo run --release -p tempered-bench --bin repro -- table_vb table_vd`).

use tempered_lb::lbaf::{
    comparison_table, run_criterion_experiment, CriterionExperiment, CriterionVariant,
};

fn main() {
    let cfg = CriterionExperiment::small();
    println!(
        "layout: {} tasks on {} of {} ranks; k={}, f={}, h={}, {} iterations",
        cfg.layout.num_tasks,
        cfg.layout.populated_ranks,
        cfg.layout.num_ranks,
        cfg.rounds,
        cfg.fanout,
        cfg.threshold_h,
        cfg.iters,
    );
    println!();

    let original = run_criterion_experiment(&cfg, CriterionVariant::Original);
    let relaxed = run_criterion_experiment(&cfg, CriterionVariant::Relaxed);

    println!("{}", original.to_table().render());
    println!("{}", relaxed.to_table().render());
    println!("{}", comparison_table(&original, &relaxed).render());

    let io = original.rows.last().unwrap().imbalance;
    let ir = relaxed.rows.last().unwrap().imbalance;
    println!("final imbalance: original {io:.3} vs relaxed {ir:.3}");
    println!("The original criterion traps refinement in a local minimum (rejection");
    println!("rates climb to ~100% while I plateaus); the relaxed criterion keeps");
    println!("accepting the transfers that monotonically reduce the objective F.");
}
