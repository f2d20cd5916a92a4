//! Regenerates the paper's tables and figures: `repro` lists the
//! experiments, `repro <name>…` / `repro all` run them and write
//! `results/repro/<name>.txt` (`results/repro/quick/` under
//! `TEMPERED_QUICK=1`), the committed files EXPERIMENTS.md quotes.
//! `repro replay --trace FILE` replays a `tempered-lb trace v1` file
//! instead of a self-recorded one and only prints.
//!
//! Run with: `cargo run --release -p tempered-bench --bin repro -- all`

use lbaf::Trace;
use tempered_bench::repro::{find, replay_table, Runs, Scale, EXPERIMENTS};
use tempered_bench::{quick_mode, write_results};

/// Run what `args` ask for; an `Err` is a usage error (exit 2).
fn run(args: &[&str]) -> Result<(), String> {
    let names: Vec<&str> = match args {
        [] => {
            println!("usage: repro <name>… | all | replay --trace FILE");
            for e in EXPERIMENTS {
                println!("  {:<18}{}", e.name, e.about);
            }
            return Ok(());
        }
        ["replay", "--trace", path] => {
            let trace = std::fs::read_to_string(path)
                .map_err(|e| format!("cannot read trace file: {e}"))
                .and_then(|text| Trace::parse(&text))
                .map_err(|e| format!("{path}: {e}"))?;
            print!("{}", replay_table(&trace));
            return Ok(());
        }
        ["all"] => EXPERIMENTS.iter().map(|e| e.name).collect(),
        names => names.to_vec(),
    };
    // Resolve every name before running anything.
    let experiments = names.into_iter().map(find).collect::<Result<Vec<_>, _>>()?;
    let scale = if quick_mode() {
        Scale::Quick
    } else {
        Scale::Paper
    };
    let mut runs = Runs::default();
    for e in experiments {
        let out = (e.run)(&mut runs, scale);
        print!("{out}");
        write_results(&format!("{}/{}.txt", scale.dir(), e.name), &out);
    }
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Err(e) = run(&args.iter().map(String::as_str).collect::<Vec<_>>()) {
        eprintln!("repro: {e}");
        std::process::exit(2);
    }
}
