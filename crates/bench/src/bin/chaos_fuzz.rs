//! Chaos fuzzer: randomized fault-plan search under the run-wide
//! safety auditor, with automatic counterexample shrinking.
//!
//! Where `repro chaos` sweeps hand-picked grids, this binary
//! *samples* the fault space: each case derives a seed from the master
//! seed and the case index, generates a valid workload + `FaultPlan`
//! mix (message noise, crashes, link faults, partitions — or an elastic
//! churn timeline under message noise), runs it in the deterministic
//! simulator, and audits the run against the global safety invariants (task conservation, epoch monotonicity,
//! quorum-before-commit, acked-delivery). A violating case is
//! delta-debugged down to a minimal still-failing case file that
//! replays the violation deterministically.
//!
//! Run with: `cargo run --release -p tempered-bench --bin chaos_fuzz`
//!
//! Modes:
//!
//! - default — run `--cases N` (default 500) generated cases from
//!   `--seed S` (default 0xF022); shrink and save any counterexamples
//!   under `--out DIR` (default `results/fuzz_regressions`); write
//!   `results/fuzz_summary.csv`. Exit 1 if any violation survived.
//! - `--replay <case.json> [--seed S]` — re-run one saved case
//!   (optionally under a different seed) and print the audit verdict:
//!   the one way to run a hand-written scenario under the auditor
//!   (`examples/plans/regressions/`). Exit 0 iff the outcome matches the
//!   case's `expect` field (clean when absent), 2 for a case file that
//!   does not load.
//! - `--inject-bug <name>` — self-test: plant a known artifact
//!   corruption (`lose_on_link`, `dup_on_partition`, `forge_ack`,
//!   `regress_epoch`), confirm the auditor catches it, shrink the
//!   counterexample to ≤ 5 fault events, and verify the minimized
//!   case file replays the violation deterministically.

use lbaf::Table;
use std::path::PathBuf;
use tempered_bench::write_results;
use tempered_runtime::fuzz::{gen_case, run_case, shrink, FuzzCase, InjectedBug};

/// Parsed command line. Unknown flags are usage errors (exit 2).
struct Cli {
    seed: u64,
    cases: u64,
    out: PathBuf,
    replay: Option<PathBuf>,
    seed_override: Option<u64>,
    inject_bug: Option<InjectedBug>,
    shrink_budget: usize,
}

fn usage() -> ! {
    eprintln!(
        "usage: chaos_fuzz [--seed S] [--cases N] [--out DIR] [--shrink-budget N]\n\
         \x20      chaos_fuzz --replay <case.json> [--seed S]\n\
         \x20      chaos_fuzz --inject-bug <lose_on_link|dup_on_partition|forge_ack|regress_epoch>"
    );
    std::process::exit(2);
}

fn parse_cli() -> Cli {
    let mut cli = Cli {
        seed: 0xF0_22,
        cases: 500,
        out: PathBuf::from("results/fuzz_regressions"),
        replay: None,
        seed_override: None,
        inject_bug: None,
        shrink_budget: 400,
    };
    let mut saw_seed = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |what: &str| -> String {
            args.next().unwrap_or_else(|| {
                eprintln!("chaos_fuzz: {arg} needs {what}");
                usage();
            })
        };
        match arg.as_str() {
            "--seed" => {
                let v = value("a u64 seed");
                cli.seed = v.parse().unwrap_or_else(|_| {
                    eprintln!("chaos_fuzz: bad seed {v:?}");
                    usage();
                });
                saw_seed = true;
            }
            "--cases" => {
                let v = value("a case count");
                cli.cases = v.parse().unwrap_or_else(|_| {
                    eprintln!("chaos_fuzz: bad case count {v:?}");
                    usage();
                });
            }
            "--shrink-budget" => {
                let v = value("an attempt budget");
                cli.shrink_budget = v.parse().unwrap_or_else(|_| {
                    eprintln!("chaos_fuzz: bad shrink budget {v:?}");
                    usage();
                });
            }
            "--out" => cli.out = PathBuf::from(value("a directory")),
            "--replay" => cli.replay = Some(PathBuf::from(value("a case file"))),
            "--inject-bug" => {
                let v = value("a bug name");
                cli.inject_bug = Some(InjectedBug::from_name(&v).unwrap_or_else(|| {
                    eprintln!("chaos_fuzz: unknown bug {v:?}");
                    usage();
                }));
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("chaos_fuzz: unknown argument {other:?}");
                usage();
            }
        }
    }
    if cli.replay.is_some() && saw_seed {
        cli.seed_override = Some(cli.seed);
    }
    cli
}

/// Save a counterexample case file into `out`, returning the path.
fn save_case(out: &std::path::Path, stem: &str, case: &FuzzCase) -> PathBuf {
    std::fs::create_dir_all(out)
        .unwrap_or_else(|e| panic!("chaos_fuzz: create {}: {e}", out.display()));
    let path = out.join(format!("{stem}.json"));
    std::fs::write(&path, case.to_json())
        .unwrap_or_else(|e| panic!("chaos_fuzz: write {}: {e}", path.display()));
    println!("wrote {}", path.display());
    path
}

/// `--replay`: run one saved case and check its `expect` contract.
fn replay(path: &std::path::Path, seed_override: Option<u64>) -> i32 {
    let mut case = match FuzzCase::load(path) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("chaos_fuzz: {e}");
            return 2;
        }
    };
    if let Some(seed) = seed_override {
        case.seed = seed;
    }
    let report = run_case(&case);
    println!(
        "replay {}: seed {}, {} ranks, {} fault events, {} committed events, \
         {} tasks checked, {} delivery pairs",
        path.display(),
        case.seed,
        case.ranks,
        case.fault_event_count(),
        report.committed_events,
        report.checked_tasks,
        report.delivery_pairs,
    );
    for v in &report.violations {
        println!("  {v}");
    }
    match case.expect {
        Some(inv) if report.violated(inv) => {
            println!("expected violation [{inv}] reproduced");
            0
        }
        Some(inv) => {
            eprintln!("chaos_fuzz: expected violation [{inv}] did NOT reproduce");
            1
        }
        None if report.is_clean() => {
            println!("audit clean (as expected)");
            0
        }
        None => {
            eprintln!("chaos_fuzz: case expected a clean audit but violated");
            1
        }
    }
}

/// `--inject-bug`: end-to-end pipeline self-test against a planted bug.
fn self_test(bug: InjectedBug, cli: &Cli) -> i32 {
    let invariant = bug.expected_invariant();
    println!(
        "self-test: injecting {} (expected invariant: {invariant}), master seed {}",
        bug.name(),
        cli.seed
    );
    let mut found: Option<FuzzCase> = None;
    for index in 0..cli.cases.max(500) {
        let mut case = gen_case(cli.seed, index);
        if case.elastic_steps > 0 {
            continue; // injected bugs corrupt protocol-run artifacts
        }
        case.inject_bug = Some(bug);
        if run_case(&case).violated(invariant) {
            println!("case {index} (seed {}) triggers the bug", case.seed);
            found = Some(case);
            break;
        }
    }
    let Some(case) = found else {
        eprintln!("chaos_fuzz: no generated case triggered {}", bug.name());
        return 1;
    };

    let before = case.fault_event_count();
    let shrunk = shrink(&case, invariant, cli.shrink_budget);
    println!(
        "shrunk {} -> {} fault events in {} attempts ({} accepted steps)",
        before,
        shrunk.case.fault_event_count(),
        shrunk.attempts,
        shrunk.trail.len()
    );
    if shrunk.case.fault_event_count() > 5 {
        eprintln!(
            "chaos_fuzz: minimized case still has {} fault events (> 5)",
            shrunk.case.fault_event_count()
        );
        return 1;
    }

    // The minimized case must survive a file round trip and reproduce
    // the violation twice (determinism).
    let mut minimized = shrunk.case.clone();
    minimized.expect = Some(invariant);
    let path = save_case(&cli.out, &format!("selftest_{}", bug.name()), &minimized);
    for round in 0..2 {
        let loaded = match FuzzCase::load(&path) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("chaos_fuzz: {e}");
                return 1;
            }
        };
        if !run_case(&loaded).violated(invariant) {
            eprintln!("chaos_fuzz: replay round {round} did not reproduce [{invariant}]");
            return 1;
        }
    }
    println!(
        "self-test passed: detected, shrunk to {} events, replayed deterministically \
         (repro: chaos_fuzz --replay {})",
        minimized.fault_event_count(),
        path.display()
    );
    0
}

fn main() {
    let cli = parse_cli();

    if let Some(path) = &cli.replay {
        std::process::exit(replay(path, cli.seed_override));
    }
    if let Some(bug) = cli.inject_bug {
        std::process::exit(self_test(bug, &cli));
    }

    println!(
        "chaos_fuzz: {} cases from master seed {:#x}",
        cli.cases, cli.seed
    );
    let mut summary = Table::new(
        "",
        &[
            "case",
            "seed",
            "ranks",
            "hot",
            "tasks_per_hot",
            "balancer",
            "elastic_steps",
            "fault_events",
            "committed_events",
            "checked_tasks",
            "delivery_pairs",
            "violations",
            "first_invariant",
        ],
    );
    let mut surviving = 0usize;
    let mut counterexamples: Vec<PathBuf> = Vec::new();
    for index in 0..cli.cases {
        let case = gen_case(cli.seed, index);
        let report = run_case(&case);
        let first = report
            .first_invariant()
            .map(|i| i.name())
            .unwrap_or_default();
        summary.push_row(vec![
            index.to_string(),
            case.seed.to_string(),
            case.ranks.to_string(),
            case.hot.to_string(),
            case.tasks_per_hot.to_string(),
            case.balancer.name().to_string(),
            case.elastic_steps.to_string(),
            case.fault_event_count().to_string(),
            report.committed_events.to_string(),
            report.checked_tasks.to_string(),
            report.delivery_pairs.to_string(),
            report.violations.len().to_string(),
            first.to_string(),
        ]);
        if index % 50 == 0 {
            eprintln!("case {index}/{} (seed {})", cli.cases, case.seed);
        }
        if report.is_clean() {
            continue;
        }

        surviving += 1;
        let invariant = report.first_invariant().expect("non-clean report");
        eprintln!(
            "VIOLATION at case {index} (seed {}): [{invariant}]",
            case.seed
        );
        for v in &report.violations {
            eprintln!("  {v}");
        }
        let shrunk = shrink(&case, invariant, cli.shrink_budget);
        eprintln!(
            "  shrunk {} -> {} fault events in {} attempts",
            case.fault_event_count(),
            shrunk.case.fault_event_count(),
            shrunk.attempts
        );
        let mut minimized = shrunk.case.clone();
        minimized.expect = Some(invariant);
        counterexamples.push(save_case(
            &cli.out,
            &format!("case{index:05}_{}", invariant.name()),
            &minimized,
        ));
    }

    write_results("fuzz_summary.csv", &summary.to_csv());
    if surviving == 0 {
        println!("all {} cases audited clean", cli.cases);
        std::process::exit(0);
    }
    eprintln!(
        "chaos_fuzz: {surviving} of {} cases violated an invariant; minimized \
         counterexamples:",
        cli.cases
    );
    for p in &counterexamples {
        eprintln!(
            "  {} (repro: chaos_fuzz --replay {})",
            p.display(),
            p.display()
        );
    }
    std::process::exit(1);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A case whose plan would run latency backwards is refused before
    /// anything runs: exit 2, the status `main` exits with.
    #[test]
    fn replaying_a_malformed_case_is_exit_2() {
        let dir = std::env::temp_dir().join(format!("chaos-fuzz-replay-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("negative_scale.json");
        let case = r#"{"ranks": 16, "hot": 2, "tasks_per_hot": 25,
                       "plan": {"delay_spike": 0.5, "delay_spike_scale": -10}}"#;
        std::fs::write(&path, case).unwrap();
        assert_eq!(replay(&path, None), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
