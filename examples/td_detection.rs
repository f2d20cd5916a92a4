//! What termination detection costs per epoch in one audited LB round:
//! the waves the coordinator launched, and the lag from ground-truth
//! quiescence (the epoch's last basic message processed) to the first
//! rank learning that the epoch terminated — median and p90, for the
//! entry-only epochs (gossip rounds, transfer) and the reply epochs
//! (commit) apart (see `tempered_runtime::termination`).
//!
//! The round is the benchmark's `sim_hotspot` shape — an eighth of the
//! ranks hold 40 unit tasks; 2 trials × 3 iterations, fanout 4, 5
//! rounds, hardened delivery, seed 4242 — at the rank count given as the
//! one argument:
//!
//! `cargo run --release --example td_detection -- 2048`
//!
//! The output is deterministic, so two builds compare by running this in
//! each checkout and diffing the tables.

use tempered_lb::prelude::*;
use tempered_lb::runtime::audit::capture_lb_run;
use tempered_lb::runtime::reliable::RetryConfig;
use tempered_lb::runtime::termination::EpochSends;
use tempered_lb::runtime::FaultPlan;

/// Nearest-rank quantile `q` of sorted `values`.
fn quantile(values: &[f64], q: f64) -> f64 {
    let rank = (q * values.len() as f64).ceil() as usize;
    values[rank.clamp(1, values.len()) - 1]
}

fn main() {
    let ranks: usize = match std::env::args().nth(1).map(|a| a.parse()) {
        Some(Ok(n)) if n >= 2 => n,
        _ => {
            eprintln!("usage: td_detection RANKS   (at least 2)");
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
    let art = capture_lb_run(
        &dist,
        cfg,
        NetworkModel::default(),
        &RngFactory::new(4242),
        FaultPlan::none(),
    );
    let truth = art.termination.expect("an audited run keeps ground truth");
    assert!(
        truth.early.is_empty(),
        "an early declaration: {:?}",
        truth.early[0]
    );

    println!("{ranks} ranks, {} epochs declared", truth.epochs.len());
    println!(
        "{:>10} {:>6} {:>11} {:>8} {:>14} {:>11} {:>8}",
        "epochs", "count", "waves p50", "p90", "with traffic", "lag p50 us", "p90"
    );
    for (label, kind) in [
        ("entry-only", EpochSends::EntryOnly),
        ("reply", EpochSends::Replies),
    ] {
        let epochs: Vec<_> = truth
            .epochs
            .iter()
            .filter(|e| e.waves.is_some_and(|(sends, _)| sends == kind))
            .collect();
        if epochs.is_empty() {
            println!("{label:>10} {:>6}", 0);
            continue;
        }
        let mut waves: Vec<f64> = epochs.iter().map(|e| e.waves.unwrap().1 as f64).collect();
        waves.sort_by(f64::total_cmp);
        let mut lags: Vec<f64> = epochs
            .iter()
            .filter_map(|e| e.lag)
            .map(|s| s * 1e6)
            .collect();
        lags.sort_by(f64::total_cmp);
        let (lag50, lag90) = if lags.is_empty() {
            (f64::NAN, f64::NAN)
        } else {
            (quantile(&lags, 0.5), quantile(&lags, 0.9))
        };
        println!(
            "{label:>10} {:>6} {:>11} {:>8} {:>14} {lag50:>11.1} {lag90:>8.1}",
            epochs.len(),
            quantile(&waves, 0.5),
            quantile(&waves, 0.9),
            lags.len(),
        );
    }
}
