//! The benchmark of record for all three drivers of the LB protocol:
//! the discrete-event simulator, the threaded executor and the TCP
//! driver. See `README.md` next to this file for what each workload and
//! metric means; `BENCHMARK.json` at the repository root declares them.
//!
//! ```text
//! benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//! benchmark --all [--seed N] [--seconds S] [--repeat N]
//! benchmark --check BASE.json CHANGE.json
//! ```
//!
//! Everything is measured from outside, through public functions of the
//! library crates only.

mod inputs;
mod json;
mod replay;
mod report;
mod rounds;
mod spans;
mod stats;
mod workloads;

use json::{obj, Value};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;
use workloads::WORKLOADS;

const USAGE: &str = "usage:
  benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1]
      one run of one workload in this process; the last line of output is
      the JSON result BENCHMARK.json describes
  benchmark --all [--seed N] [--seconds S] [--repeat N]
      every workload, each run in a child process of its own: N untraced
      runs, then one traced run for the per-layer numbers
  benchmark --check BASE.json CHANGE.json
      compare two result files against each metric's bound
results go to results/benchmark.json and results/benchmark_layers.json";

struct Args {
    workload: Option<String>,
    all: bool,
    check: Option<(String, String)>,
    seed: u64,
    seconds: f64,
    trace: bool,
    repeat: usize,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        all: false,
        check: None,
        seed: inputs::DEFAULT_SEED,
        seconds: 25.0,
        trace: false,
        repeat: 1,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        let bad = |what: &str, v: &str| format!("{flag}: {v:?} is not {what}");
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                if !report::valid_name(&name) || !WORKLOADS.iter().any(|w| w.name == name) {
                    let known: Vec<String> = WORKLOADS
                        .iter()
                        .map(|w| format!("  {}: {}", w.name, w.why))
                        .collect();
                    return Err(format!(
                        "unknown workload {name:?}; the workloads are\n{}",
                        known.join("\n")
                    ));
                }
                args.workload = Some(name);
            }
            "--all" => args.all = true,
            "--check" => args.check = Some((value()?, value()?)),
            "--seed" => {
                let v = value()?;
                args.seed = v.parse().map_err(|_| bad("a whole number", &v))?;
            }
            "--seconds" => {
                let v = value()?;
                args.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| bad("a positive number of seconds", &v))?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(bad("0 or 1", v)),
                };
            }
            "--repeat" => {
                let v = value()?;
                args.repeat = v
                    .parse()
                    .ok()
                    .filter(|n| *n >= 1)
                    .ok_or_else(|| bad("a count of at least 1", &v))?;
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let modes = usize::from(args.workload.is_some())
        + usize::from(args.all)
        + usize::from(args.check.is_some());
    if modes != 1 {
        return Err("give exactly one of --workload, --all, --check".to_string());
    }
    Ok(args)
}

/// Write the result files: every run's metrics, and the traced runs'
/// spans. `runs` are full result objects as [`run_one`] prints them.
fn write_results(runs: &[Value]) -> std::io::Result<()> {
    let mut metrics = Vec::new();
    let mut layers = Vec::new();
    for run in runs {
        let Value::Obj(fields) = run else { continue };
        let (spans, rest): (Vec<_>, Vec<_>) =
            fields.iter().cloned().partition(|(k, _)| k == "spans");
        if let Some((_, spans)) = spans.into_iter().next() {
            layers.push(obj([
                (
                    "workload",
                    run.get("workload").cloned().unwrap_or(Value::Null),
                ),
                ("seed", run.get("seed").cloned().unwrap_or(Value::Null)),
                ("spans", spans),
            ]));
        }
        metrics.push(Value::Obj(rest));
    }
    std::fs::create_dir_all("results")?;
    // One run per line: readable, and diffs stay per run.
    let lines = |runs: &[Value]| {
        let body: Vec<String> = runs.iter().map(|r| format!("  {}", r.to_line())).collect();
        format!("{{\"runs\": [\n{}\n]}}\n", body.join(",\n"))
    };
    std::fs::write("results/benchmark.json", lines(&metrics))?;
    std::fs::write("results/benchmark_layers.json", lines(&layers))
}

/// The line on which a child hands its full result to `--all`.
const FULL_RESULT: &str = "full-result: ";

fn run_one(args: &Args, process_start: Instant) -> ExitCode {
    let name = args.workload.as_deref().expect("--workload mode");
    let result = workloads::run(name, args.seed, args.seconds, args.trace, process_start)
        .expect("workload names are checked when arguments are parsed");
    print!("{}", result.table());
    let mut full = result.to_json();
    if let (Value::Obj(fields), Some(log)) = (&mut full, &result.spans) {
        fields.push(("spans".to_string(), log.to_json()));
    }
    if let Err(e) = write_results(std::slice::from_ref(&full)) {
        eprintln!("benchmark: cannot write results: {e}");
        return ExitCode::FAILURE;
    }
    println!("{FULL_RESULT}{}", full.to_line());
    println!("{}", result.contract_line());
    if result.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// One workload run in a child process, so its memory high-water mark
/// is its own. Returns the child's full result.
fn child(name: &str, args: &Args, trace: bool) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", name])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut full = None;
    for line in stdout.lines() {
        match line.strip_prefix(FULL_RESULT) {
            Some(json) => full = Some(json::parse(json)?),
            // The contract line is for the acceptance driver, not people.
            None if line.starts_with('{') => {}
            None => println!("{line}"),
        }
    }
    let full = full.ok_or_else(|| format!("{name}: no result ({})", out.status))?;
    if !out.status.success() {
        eprintln!("benchmark: {name} failed its output checks");
    }
    Ok(full)
}

fn run_all(args: &Args) -> ExitCode {
    let mut runs = Vec::new();
    let mut ok = true;
    for w in &WORKLOADS {
        let plan = (0..args.repeat).map(|_| false).chain([true]);
        for trace in plan {
            match child(w.name, args, trace) {
                Ok(full) => {
                    ok &= full.get("correct") == Some(&Value::Bool(true));
                    runs.push(full);
                }
                Err(e) => {
                    eprintln!("benchmark: {e}");
                    ok = false;
                }
            }
        }
    }
    if let Err(e) = write_results(&runs) {
        eprintln!("benchmark: cannot write results: {e}");
        ok = false;
    }
    println!(
        "wrote results/benchmark.json and results/benchmark_layers.json ({} runs, {})",
        runs.len(),
        if ok { "all outputs verified" } else { "FAILED" }
    );
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn run_check(base: &str, change: &str) -> ExitCode {
    let load = |path: &str| {
        std::fs::read_to_string(path)
            .map_err(|e| format!("{path}: {e}"))
            .and_then(|text| json::parse(&text).map_err(|e| format!("{path}: {e}")))
    };
    match (load(base), load(change)) {
        (Ok(a), Ok(b)) => {
            let (report, pass) = report::check(&a, &b);
            print!("{report}");
            if pass {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some((base, change)) = &args.check {
        run_check(base, change)
    } else if args.all {
        run_all(&args)
    } else {
        run_one(&args, process_start)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn arguments_parse_and_reject() {
        let a = parse_args(&argv(
            "--workload sim_hotspot --seed 7 --seconds 2.5 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.workload.as_deref(), Some("sim_hotspot"));
        assert_eq!((a.seed, a.seconds, a.trace), (7, 2.5, true));
        let a = parse_args(&argv("--all")).unwrap();
        assert_eq!(
            (a.seed, a.repeat, a.trace),
            (inputs::DEFAULT_SEED, 1, false)
        );
        assert!(parse_args(&argv("--check a.json b.json"))
            .unwrap()
            .check
            .is_some());
        for bad in [
            "",
            "--all --workload sim_hotspot",
            "--workload nope",
            "--workload ../x",
            "--workload sim_hotspot --trace 2",
            "--workload sim_hotspot --seconds 0",
            "--workload sim_hotspot --seed -1",
            "--all --repeat 0",
            "--check only_one.json",
            "--frobnicate",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad:?} must be rejected");
        }
    }
}
