//! Implementation of the `tempered` command-line tool.
//!
//! The binary (`src/bin/tempered.rs`) is a thin wrapper around this
//! module so every piece — argument parsing, CSV I/O, balancer dispatch —
//! is unit-testable. The tool balances a task-to-rank assignment given as
//! CSV (`rank,task,load` per line, `#` comments allowed) and emits the
//! resulting statistics plus an optional migration plan CSV
//! (`task,from,to,load`).

use crate::prelude::*;
use std::fmt::Write as _;

/// Parsed command line.
#[derive(Clone, Debug, PartialEq)]
pub struct CliOptions {
    /// Input CSV path, or `None` to use the built-in demo workload.
    pub input: Option<String>,
    /// Balancer selection.
    pub balancer: BalancerChoice,
    /// TemperedLB trials.
    pub trials: usize,
    /// TemperedLB iterations.
    pub iters: usize,
    /// Master seed.
    pub seed: u64,
    /// Total ranks; `0` = infer as `max rank id + 1`.
    pub num_ranks: usize,
    /// Where to write the migration plan CSV (stdout section if `None`).
    pub migrations_out: Option<String>,
}

impl Default for CliOptions {
    fn default() -> Self {
        CliOptions {
            input: None,
            balancer: BalancerChoice::Tempered,
            trials: 10,
            iters: 8,
            seed: 0,
            num_ranks: 0,
            migrations_out: None,
        }
    }
}

/// Which balancer the CLI runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BalancerChoice {
    /// TemperedLB (default).
    Tempered,
    /// Original GrapevineLB.
    Grapevine,
    /// Centralized greedy.
    Greedy,
    /// Hierarchical.
    Hier,
}

impl BalancerChoice {
    fn parse(s: &str) -> Result<Self, String> {
        match s.to_ascii_lowercase().as_str() {
            "tempered" | "temperedlb" => Ok(BalancerChoice::Tempered),
            "grapevine" | "grapevinelb" => Ok(BalancerChoice::Grapevine),
            "greedy" | "greedylb" => Ok(BalancerChoice::Greedy),
            "hier" | "hierlb" | "hierarchical" => Ok(BalancerChoice::Hier),
            other => Err(format!(
                "unknown balancer '{other}' (expected tempered|grapevine|greedy|hier)"
            )),
        }
    }
}

/// Usage text.
pub const USAGE: &str = "\
tempered — distributed gossip load balancing (TemperedLB reproduction)

USAGE:
    tempered [OPTIONS]

OPTIONS:
    --input <FILE>        CSV of `rank,task,load` rows (default: demo workload)
    --balancer <NAME>     tempered | grapevine | greedy | hier  [default: tempered]
    --trials <N>          TemperedLB trials                     [default: 10]
    --iters <N>           TemperedLB iterations per trial       [default: 8]
    --ranks <N>           total ranks (default: max rank id + 1)
    --seed <N>            master seed                           [default: 0]
    --migrations <FILE>   write the migration plan CSV here
    --help                print this text
";

/// Parse CLI arguments (excluding `argv[0]`).
pub fn parse_args<I, S>(args: I) -> Result<CliOptions, String>
where
    I: IntoIterator<Item = S>,
    S: AsRef<str>,
{
    let mut opts = CliOptions::default();
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        let arg = arg.as_ref();
        let mut value = |name: &str| {
            it.next()
                .map(|v| v.as_ref().to_string())
                .ok_or_else(|| format!("{name} requires a value"))
        };
        match arg {
            "--input" => opts.input = Some(value("--input")?),
            "--balancer" => opts.balancer = BalancerChoice::parse(&value("--balancer")?)?,
            "--trials" => {
                opts.trials = value("--trials")?
                    .parse()
                    .map_err(|e| format!("--trials: {e}"))?
            }
            "--iters" => {
                opts.iters = value("--iters")?
                    .parse()
                    .map_err(|e| format!("--iters: {e}"))?
            }
            "--ranks" => {
                opts.num_ranks = value("--ranks")?
                    .parse()
                    .map_err(|e| format!("--ranks: {e}"))?
            }
            "--seed" => {
                opts.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--migrations" => opts.migrations_out = Some(value("--migrations")?),
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown argument '{other}'\n\n{USAGE}")),
        }
    }
    if opts.trials == 0 || opts.iters == 0 {
        return Err("--trials and --iters must be at least 1".into());
    }
    Ok(opts)
}

/// Parse a `rank,task,load` CSV into a [`Distribution`].
///
/// Lines starting with `#`, blank lines, and a `rank,task,load` header
/// are ignored. `num_ranks = 0` infers the rank count.
pub fn parse_loads_csv(text: &str, num_ranks: usize) -> Result<Distribution, String> {
    let mut rows: Vec<(u32, u64, f64)> = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let fields: Vec<&str> = line.split(',').map(str::trim).collect();
        if fields.len() != 3 {
            return Err(format!("line {}: expected 3 fields", lineno + 1));
        }
        if lineno == 0 && fields[0].eq_ignore_ascii_case("rank") {
            continue; // header
        }
        let rank: u32 = fields[0]
            .parse()
            .map_err(|e| format!("line {}: rank: {e}", lineno + 1))?;
        let task: u64 = fields[1]
            .parse()
            .map_err(|e| format!("line {}: task: {e}", lineno + 1))?;
        let load: f64 = fields[2]
            .parse()
            .map_err(|e| format!("line {}: load: {e}", lineno + 1))?;
        if !load.is_finite() || load < 0.0 {
            return Err(format!("line {}: load must be finite and >= 0", lineno + 1));
        }
        rows.push((rank, task, load));
    }
    if rows.is_empty() {
        return Err("no task rows found".into());
    }
    let inferred = rows.iter().map(|r| r.0 as usize + 1).max().unwrap();
    let n = if num_ranks == 0 {
        inferred
    } else if num_ranks < inferred {
        return Err(format!(
            "--ranks {num_ranks} is smaller than the largest rank id + 1 ({inferred})"
        ));
    } else {
        num_ranks
    };
    let mut dist = Distribution::new(n);
    for (rank, task, load) in rows {
        dist.insert(RankId::new(rank), Task::new(task, load))
            .map_err(|e| format!("task {task}: {e}"))?;
    }
    Ok(dist)
}

/// Render a migration plan as `task,from,to,load` CSV.
pub fn migrations_csv(migrations: &[Migration]) -> String {
    let mut out = String::from("task,from,to,load\n");
    for m in migrations {
        let _ = writeln!(out, "{},{},{},{}", m.task, m.from, m.to, m.load.get());
    }
    out
}

/// The built-in demo workload: 256 tasks concentrated on 4 of 32 ranks.
pub fn demo_distribution(seed: u64) -> Distribution {
    let factory = RngFactory::new(seed);
    use rand::Rng;
    let mut rng = factory.rank_stream(b"cli-demo", 0, 0);
    let mut dist = Distribution::new(32);
    for task in 0..256u64 {
        let rank = RankId::new((task % 4) as u32);
        let load = 0.25 + rng.gen::<f64>();
        dist.insert(rank, Task::new(task, load)).unwrap();
    }
    dist
}

/// Run the tool: returns the human-readable report and the migration CSV.
pub fn run(opts: &CliOptions, input_text: Option<&str>) -> Result<(String, String), String> {
    let dist = match input_text {
        Some(text) => parse_loads_csv(text, opts.num_ranks)?,
        None => demo_distribution(opts.seed),
    };
    let factory = RngFactory::new(opts.seed);

    let mut tempered = TemperedLb::new(TemperedConfig {
        trials: opts.trials,
        iters: opts.iters,
        ..TemperedConfig::default()
    });
    let mut grapevine = GrapevineLb::default();
    let mut greedy = GreedyLb;
    let mut hier = HierLb::default();
    let lb: &mut dyn LoadBalancer = match opts.balancer {
        BalancerChoice::Tempered => &mut tempered,
        BalancerChoice::Grapevine => &mut grapevine,
        BalancerChoice::Greedy => &mut greedy,
        BalancerChoice::Hier => &mut hier,
    };

    let name = lb.name();
    let before = dist.statistics();
    let result = lb.rebalance(&dist, &factory, 0);
    let after = result.distribution.statistics();

    let mut report = String::new();
    let _ = writeln!(report, "balancer        : {name}");
    let _ = writeln!(
        report,
        "ranks / tasks   : {} / {}",
        dist.num_ranks(),
        dist.num_tasks()
    );
    let _ = writeln!(
        report,
        "max rank load   : {:.4} -> {:.4}",
        before.max.get(),
        after.max.get()
    );
    let _ = writeln!(
        report,
        "imbalance I     : {:.4} -> {:.4}",
        before.imbalance, after.imbalance
    );
    let _ = writeln!(
        report,
        "lower bound     : {:.4}",
        lower_bound_max_load(before.average, dist.max_task_load()).get()
    );
    let _ = writeln!(report, "migrations      : {}", result.migrations.len());
    let _ = writeln!(report, "protocol msgs   : {}", result.messages_sent);

    Ok((report, migrations_csv(&result.migrations)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_defaults_and_flags() {
        let opts = parse_args(Vec::<&str>::new()).unwrap();
        assert_eq!(opts, CliOptions::default());

        let opts = parse_args([
            "--balancer",
            "greedy",
            "--trials",
            "3",
            "--iters",
            "2",
            "--seed",
            "9",
            "--ranks",
            "64",
            "--input",
            "x.csv",
            "--migrations",
            "plan.csv",
        ])
        .unwrap();
        assert_eq!(opts.balancer, BalancerChoice::Greedy);
        assert_eq!(opts.trials, 3);
        assert_eq!(opts.iters, 2);
        assert_eq!(opts.seed, 9);
        assert_eq!(opts.num_ranks, 64);
        assert_eq!(opts.input.as_deref(), Some("x.csv"));
        assert_eq!(opts.migrations_out.as_deref(), Some("plan.csv"));
    }

    #[test]
    fn rejects_bad_args() {
        assert!(parse_args(["--balancer", "magic"]).is_err());
        assert!(parse_args(["--trials"]).is_err());
        assert!(parse_args(["--trials", "0"]).is_err());
        assert!(parse_args(["--frobnicate"]).is_err());
        let help = parse_args(["--help"]).unwrap_err();
        assert!(help.contains("USAGE"));
    }

    #[test]
    fn csv_roundtrip_with_header_and_comments() {
        let text = "rank,task,load\n# hot rank\n0,0,2.0\n0,1,1.5\n1,2,0.5\n\n";
        let dist = parse_loads_csv(text, 0).unwrap();
        assert_eq!(dist.num_ranks(), 2);
        assert_eq!(dist.num_tasks(), 3);
        assert_eq!(dist.rank_load(RankId::new(0)).get(), 3.5);
    }

    #[test]
    fn csv_rejects_malformed_input() {
        assert!(parse_loads_csv("", 0).is_err());
        assert!(parse_loads_csv("1,2", 0).is_err());
        assert!(parse_loads_csv("a,b,c", 0).is_err());
        assert!(parse_loads_csv("0,0,-1.0", 0).is_err());
        assert!(parse_loads_csv("0,0,inf", 0).is_err());
        // Duplicate task id.
        assert!(parse_loads_csv("0,7,1.0\n1,7,1.0", 0).is_err());
        // Explicit rank count too small.
        assert!(parse_loads_csv("5,0,1.0", 3).is_err());
    }

    #[test]
    fn explicit_rank_count_adds_empty_ranks() {
        let dist = parse_loads_csv("0,0,1.0", 16).unwrap();
        assert_eq!(dist.num_ranks(), 16);
    }

    #[test]
    fn run_demo_improves_imbalance() {
        let opts = CliOptions {
            trials: 2,
            iters: 4,
            ..CliOptions::default()
        };
        let (report, csv) = run(&opts, None).unwrap();
        assert!(report.contains("TemperedLB"));
        assert!(csv.lines().count() > 1, "demo must produce migrations");
        // The report shows a before -> after imbalance drop.
        let line = report.lines().find(|l| l.starts_with("imbalance")).unwrap();
        let nums: Vec<f64> = line
            .split(|c: char| !c.is_ascii_digit() && c != '.')
            .filter(|s| !s.is_empty())
            .filter_map(|s| s.parse().ok())
            .collect();
        assert!(nums[0] > nums[1], "imbalance must drop: {line}");
    }

    #[test]
    fn run_on_csv_input_with_each_balancer() {
        let text = "0,0,3.0\n0,1,2.0\n0,2,1.0\n1,3,0.5\n";
        for balancer in [
            BalancerChoice::Tempered,
            BalancerChoice::Grapevine,
            BalancerChoice::Greedy,
            BalancerChoice::Hier,
        ] {
            let opts = CliOptions {
                balancer,
                trials: 2,
                iters: 3,
                num_ranks: 8,
                ..CliOptions::default()
            };
            let (report, _) = run(&opts, Some(text)).unwrap();
            assert!(report.contains("ranks / tasks   : 8 / 4"), "{report}");
        }
    }

    #[test]
    fn migrations_csv_format() {
        let m = Migration {
            task: TaskId::new(3),
            from: RankId::new(1),
            to: RankId::new(2),
            load: Load::new(0.5),
        };
        let csv = migrations_csv(&[m]);
        assert_eq!(csv, "task,from,to,load\n3,1,2,0.5\n");
    }
}
