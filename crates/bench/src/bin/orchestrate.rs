//! Multi-process chaos orchestrator: run the sockets chaos grid with one
//! OS process per rank over loopback TCP and check the committed
//! assignments against the deterministic simulator, bit for bit.
//!
//! For every (scenario × balancer) cell the orchestrator
//!
//! 1. writes the cell's [`FaultPlan`] to `results/plans/` (round-tripping
//!    it through the plan-file codec the rank processes load it with),
//! 2. computes the simulator reference with the *same* distribution,
//!    configuration, seed, and plan,
//! 3. launches `lb_rank` processes, collects their listener ports,
//!    broadcasts the port map, and waits for every surviving rank to
//!    report `DONE` under a hard deadline (killing the grid on overrun),
//! 4. optionally SIGKILLs one rank process mid-run (the `kill_rank`
//!    scenario — a real crash, not an emulated one), and
//! 5. tears down gracefully and audits the per-rank `RESULT` lines:
//!    timing-robust scenarios must match the simulator's committed
//!    assignment exactly; the kill scenario must finish on the survivor
//!    set via the quorum-restart path with no task owned twice.
//!
//! Writes `results/chaos_sockets.csv` and exits non-zero on any
//! violation.
//!
//! Usage: `orchestrate [--ranks N] [--scenario NAME] [--balancer NAME]
//!                     [--deadline secs] [--plans-dir DIR]`
//!
//! Defaults to 8 ranks (4 with `TEMPERED_QUICK=1`); `--scenario` /
//! `--balancer` restrict the grid (repeatable). The `lb_rank` binary is
//! expected next to this one (`cargo build -p tempered-bench --bins`);
//! set `TEMPERED_LB_RANK_BIN` to point elsewhere.

use lbaf::Table;
use std::collections::BTreeSet;
use std::io::{BufRead, BufReader, Write};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError};
use std::time::{Duration, Instant};
use tempered_bench::sockets::{self, RankResult};
use tempered_bench::write_results;
use tempered_core::distribution::Distribution;
use tempered_core::ids::TaskId;
use tempered_core::rng::RngFactory;
use tempered_obs::Recorder;
use tempered_runtime::lb::LbProtocolConfig;
use tempered_runtime::sim::NetworkModel;
use tempered_runtime::{run_distributed_lb_with_faults, FaultPlan};

struct Args {
    ranks: usize,
    scenarios: Vec<String>,
    balancers: Vec<String>,
    deadline: f64,
    plans_dir: PathBuf,
    elastic: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        ranks: if tempered_bench::quick_mode() { 4 } else { 8 },
        scenarios: Vec::new(),
        balancers: Vec::new(),
        deadline: 30.0,
        plans_dir: PathBuf::from("examples/plans"),
        elastic: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} expects a value"));
        match flag.as_str() {
            "--ranks" => args.ranks = value()?.parse().map_err(|e| format!("--ranks: {e}"))?,
            "--scenario" => args.scenarios.push(value()?),
            "--balancer" => args.balancers.push(value()?),
            "--deadline" => {
                args.deadline = value()?.parse().map_err(|e| format!("--deadline: {e}"))?
            }
            "--plans-dir" => args.plans_dir = PathBuf::from(value()?),
            "--elastic" => args.elastic = true,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if args.ranks < 4 {
        return Err("--ranks must be at least 4 (quorum math needs a real majority)".into());
    }
    Ok(args)
}

/// Where the rank-process binary lives: next to us unless overridden.
fn lb_rank_bin() -> Result<PathBuf, String> {
    if let Ok(path) = std::env::var("TEMPERED_LB_RANK_BIN") {
        return Ok(PathBuf::from(path));
    }
    let me = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let sibling = me.with_file_name(if cfg!(windows) {
        "lb_rank.exe"
    } else {
        "lb_rank"
    });
    if sibling.exists() {
        Ok(sibling)
    } else {
        Err(format!(
            "{} not found — build it with `cargo build -p tempered-bench --bins` \
             or set TEMPERED_LB_RANK_BIN",
            sibling.display()
        ))
    }
}

/// What one cell of the grid produced.
struct CellOutcome {
    results: Vec<Option<RankResult>>,
    failures: Vec<String>,
}

/// Per-cell protocol inputs that vary between the canonical sockets
/// grid (scenario seed, tasks rebuilt from scalars) and an elastic step
/// (per-step seed, bit-exact `--tasks` slices for the step's placement).
struct CellInputs<'a> {
    seed: u64,
    tasks: Option<&'a [String]>,
}

/// Run one cell: launch the processes, drive the stdio protocol, kill
/// the designated victim if any, and collect per-rank results.
fn run_cell(
    bin: &PathBuf,
    ranks: usize,
    balancer: &str,
    plan_path: &std::path::Path,
    kill: Option<usize>,
    deadline: Duration,
    inputs: CellInputs<'_>,
) -> CellOutcome {
    let CellInputs { seed, tasks } = inputs;
    let mut failures = Vec::new();
    let mut results: Vec<Option<RankResult>> = (0..ranks).map(|_| None).collect();
    let cutoff = Instant::now() + deadline;

    let mut children: Vec<Child> = Vec::new();
    for r in 0..ranks {
        let mut cmd = Command::new(bin);
        cmd.arg("--rank")
            .arg(r.to_string())
            .arg("--ranks")
            .arg(ranks.to_string())
            .arg("--balancer")
            .arg(balancer)
            .arg("--seed")
            .arg(seed.to_string())
            .arg("--plan")
            .arg(plan_path)
            .arg("--deadline")
            .arg(deadline.as_secs_f64().to_string());
        if let Some(tasks) = tasks {
            // Elastic fleets: the step's placement differs from the
            // canonical scenario distribution, so each process gets its
            // bit-exact task slice on the command line.
            cmd.arg("--tasks").arg(&tasks[r]);
        }
        let spawned = cmd
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn();
        match spawned {
            Ok(c) => children.push(c),
            Err(e) => {
                failures.push(format!("spawn rank {r}: {e}"));
                for c in &mut children {
                    let _ = c.kill();
                }
                return CellOutcome { results, failures };
            }
        }
    }

    // One reader thread per child funnels (rank, line) into a single
    // channel so the main loop can wait on everyone with one deadline.
    // A trailing `None` marks that child's EOF: without it, a process
    // that exits unexpectedly is invisible (the channel only
    // disconnects when *every* sender is gone) and the collection
    // loops would sit on the full run deadline.
    let (tx, rx) = channel::<(usize, Option<String>)>();
    for (r, child) in children.iter_mut().enumerate() {
        let stdout = child.stdout.take().expect("stdout was piped");
        let tx = tx.clone();
        std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines() {
                match line {
                    Ok(l) => {
                        if tx.send((r, Some(l))).is_err() {
                            return;
                        }
                    }
                    Err(_) => break,
                }
            }
            let _ = tx.send((r, None));
        });
    }
    drop(tx);

    let teardown = |children: &mut Vec<Child>| {
        for c in children.iter_mut() {
            let _ = c.kill();
            let _ = c.wait();
        }
    };

    // Ranks whose stdout hit EOF — the process is gone (or at least
    // done talking); reap it promptly instead of waiting on the
    // deadline.
    let mut exited: BTreeSet<usize> = BTreeSet::new();

    // Phase 1: collect every rank's PORT.
    let mut ports: Vec<Option<u16>> = vec![None; ranks];
    let mut seen = 0;
    while seen < ranks {
        match recv_until(&rx, cutoff) {
            Ok((r, Some(line))) => match line.strip_prefix("PORT ") {
                Some(p) => match p.trim().parse() {
                    Ok(port) => {
                        if ports[r].replace(port).is_none() {
                            seen += 1;
                        }
                    }
                    Err(e) => failures.push(format!("rank {r}: bad PORT: {e}")),
                },
                None => failures.push(format!("rank {r}: expected PORT, got {line:?}")),
            },
            Ok((r, None)) => {
                failures.push(format!("rank {r} exited before reporting a PORT"));
                teardown(&mut children);
                return CellOutcome { results, failures };
            }
            Err(e) => {
                failures.push(format!("waiting for ports: {e}"));
                teardown(&mut children);
                return CellOutcome { results, failures };
            }
        }
    }
    let peers = ports
        .iter()
        .map(|p| format!("127.0.0.1:{}", p.unwrap()))
        .collect::<Vec<_>>()
        .join(",");
    for (r, child) in children.iter_mut().enumerate() {
        let stdin = child.stdin.as_mut().expect("stdin was piped");
        if writeln!(stdin, "PEERS {peers}")
            .and_then(|_| stdin.flush())
            .is_err()
        {
            failures.push(format!("rank {r}: lost stdin before PEERS"));
        }
    }

    // Phase 2: the injected process crash, once the protocol is in
    // flight but (with overwhelming likelihood) not yet committed.
    if let Some(victim) = kill {
        std::thread::sleep(Duration::from_millis(25));
        let _ = children[victim].kill();
        let _ = children[victim].wait();
    }

    // Phase 3: every surviving rank must report DONE before the
    // deadline (parked ranks finish read-only via the park deadline, so
    // they report DONE too).
    let mut expected: BTreeSet<usize> = (0..ranks).filter(|r| Some(*r) != kill).collect();
    let mut done: BTreeSet<usize> = BTreeSet::new();
    while !done.is_superset(&expected) {
        match recv_until(&rx, cutoff) {
            Ok((r, Some(line))) if line.trim() == "DONE" => {
                done.insert(r);
            }
            Ok((r, Some(line))) => failures.push(format!("rank {r}: unexpected {line:?}")),
            Ok((r, None)) => {
                exited.insert(r);
                let _ = children[r].wait();
                if expected.contains(&r) && !done.contains(&r) {
                    // A surviving rank died before DONE: record the
                    // failure and stop waiting on it — the cell is
                    // already lost, no need to burn the deadline.
                    failures.push(format!("rank {r} exited before DONE"));
                    expected.remove(&r);
                }
            }
            Err(e) => {
                let missing: Vec<usize> = expected.difference(&done).copied().collect();
                failures.push(format!("waiting for DONE from {missing:?}: {e}"));
                teardown(&mut children);
                return CellOutcome { results, failures };
            }
        }
    }

    // Phase 4: graceful teardown — ask everyone to exit and collect the
    // RESULT lines.
    for (r, child) in children.iter_mut().enumerate() {
        if Some(r) == kill {
            continue;
        }
        if let Some(stdin) = child.stdin.as_mut() {
            let _ = writeln!(stdin, "EXIT").and_then(|_| stdin.flush());
        }
    }
    // A rank still owes a RESULT unless its stdout already hit EOF — a
    // process that exits between DONE and EXIT (instead of waiting for
    // the teardown handshake) is a failure to report, not a reason to
    // sit on the run deadline.
    let owes = |results: &Vec<Option<RankResult>>, exited: &BTreeSet<usize>| {
        expected
            .iter()
            .any(|r| results[*r].is_none() && !exited.contains(r))
    };
    while owes(&results, &exited) {
        match recv_until(&rx, cutoff) {
            Ok((r, Some(line))) => match RankResult::parse(&line) {
                Some(Ok(res)) if res.rank == r => results[r] = Some(res),
                Some(Ok(res)) => failures.push(format!("rank {r} reported as rank {}", res.rank)),
                Some(Err(e)) => failures.push(format!("rank {r}: {e}")),
                None => {}
            },
            Ok((r, None)) => {
                exited.insert(r);
                // Reap the corpse now; teardown's kill would only
                // no-op on it anyway.
                let _ = children[r].wait();
                if expected.contains(&r) && results[r].is_none() {
                    failures.push(format!(
                        "rank {r} exited between DONE and EXIT without a RESULT"
                    ));
                }
            }
            Err(e) => {
                failures.push(format!("waiting for RESULT: {e}"));
                break;
            }
        }
    }
    teardown(&mut children);
    CellOutcome { results, failures }
}

fn recv_until(
    rx: &Receiver<(usize, Option<String>)>,
    cutoff: Instant,
) -> Result<(usize, Option<String>), String> {
    let now = Instant::now();
    if now >= cutoff {
        return Err("deadline exceeded".into());
    }
    match rx.recv_timeout(cutoff - now) {
        Ok(msg) => Ok(msg),
        Err(RecvTimeoutError::Timeout) => Err("deadline exceeded".into()),
        Err(RecvTimeoutError::Disconnected) => Err("all rank processes exited".into()),
    }
}

/// Audit one fleet's `RESULT` lines: appends to `failures`, returns the
/// task ids the fleet accounts for and whether every rank matched
/// `reference` — the simulator's placement of the same run, `None` for
/// a cell whose outcome is inherently wall-clock. `skip` is the killed
/// rank, if any.
fn audit_fleet(
    results: &[Option<RankResult>],
    reference: Option<&[Vec<(TaskId, u64)>]>,
    skip: Option<usize>,
    failures: &mut Vec<String>,
) -> (Vec<u64>, bool) {
    let mut all_tasks: Vec<u64> = Vec::new();
    let mut matched = true;
    for (r, slot) in results.iter().enumerate() {
        if Some(r) == skip {
            continue;
        }
        let Some(res) = slot else {
            failures.push(format!("rank {r}: no RESULT"));
            matched = false;
            continue;
        };
        if !res.finished {
            failures.push(format!("rank {r} never finished"));
        }
        if res.degraded {
            failures.push(format!("rank {r} degraded"));
        }
        all_tasks.extend(&res.tasks);
        if let Some(placement) = reference {
            let expected = sockets::task_ids(&placement[r]);
            if res.tasks != expected {
                failures.push(format!(
                    "rank {r} diverged from the simulator: {:?} vs {expected:?}",
                    res.tasks
                ));
                matched = false;
            }
        }
    }
    // No task may be owned twice, kill scenario included (the restart
    // path re-homes from the original placement, it never clones).
    let unique: BTreeSet<u64> = all_tasks.iter().copied().collect();
    if unique.len() != all_tasks.len() {
        failures.push("a task is owned by two ranks".into());
    }
    (all_tasks, matched)
}

fn write_plan(path: &std::path::Path, plan: &FaultPlan) {
    if let Err(e) = std::fs::write(path, plan.to_json()) {
        eprintln!("orchestrate: write {}: {e}", path.display());
        std::process::exit(1);
    }
}

/// `--elastic`: a multi-step elastic timeline over real processes. The
/// timeline is `run_elastic`'s — the same step loop the simulator and
/// threaded grids run — with a fleet of `lb_rank` processes handed in as
/// its second driver: every step spawns one process per roster node (so
/// a joiner gets a fresh process the step it is admitted and a drained
/// node never gets another), ships each its bit-exact task slice via
/// `--tasks`, and must reproduce the simulator's placement bit for bit.
fn elastic_mode(args: &Args, bin: &PathBuf, plans_out: &std::path::Path) -> ! {
    use tempered_runtime::elastic::{run_elastic, ElasticScenario};
    use tempered_runtime::fault::ChurnEvent;

    let seed_ranks = args.ranks;
    let mut sc = ElasticScenario::baseline("sockets_elastic", seed_ranks, 4, sockets::SOCKETS_SEED);
    // The rank processes rebuild this configuration from `--balancer`.
    sc.cfg = sockets::balancer_config("tempered").expect("known balancer");
    // A join at step 1, a drain (with a generous deadline) at step 2 —
    // shipped on the plan's churn dimension so the same JSON drives the
    // simulator and threaded grids.
    sc.plan.churn = vec![
        ChurnEvent::join(1.0, seed_ranks as u64),
        ChurnEvent::drain(2.0, 1, Some(2.0)),
    ];
    write_plan(
        &plans_out.join(format!("sockets_elastic_{seed_ranks}.json")),
        &sc.plan,
    );
    // The per-step rank processes see no faults: churn is consumed at
    // the boundaries, never inside a protocol run.
    let clean_path = plans_out.join("sockets_elastic_step.json");
    write_plan(&clean_path, &FaultPlan::none());

    // Per step: task ids the fleet accounted for, and its failures.
    let mut fleets: Vec<(usize, Vec<String>)> = Vec::new();
    let mut fleet = |dist: &Distribution, _: LbProtocolConfig, seed: u64| {
        let ranks = dist.num_ranks();
        println!("== elastic step {}: fleet {ranks} ==", fleets.len());
        // Each process gets its slice as `id:loadbits` pairs, in the
        // distribution's own order: a rank sums its input loads in the
        // order it was handed them.
        let tasks: Vec<String> = dist
            .rank_ids()
            .map(|r| match dist.tasks_on(r) {
                [] => "-".to_string(),
                slice => slice
                    .iter()
                    .map(|t| format!("{}:{:016x}", t.id.as_u64(), t.load.get().to_bits()))
                    .collect::<Vec<_>>()
                    .join(","),
            })
            .collect();
        let cell = run_cell(
            bin,
            ranks,
            "tempered",
            &clean_path,
            None,
            Duration::from_secs_f64(args.deadline),
            CellInputs {
                seed,
                tasks: Some(&tasks),
            },
        );
        let mut failures = cell.failures;
        let (held, _) = audit_fleet(&cell.results, None, None, &mut failures);
        if held.len() != dist.num_tasks() {
            failures.push(format!(
                "{} tasks accounted for, input had {}",
                held.len(),
                dist.num_tasks()
            ));
        }
        fleets.push((held.len(), failures));
        // What the fleet committed, priced at the step's input loads. An
        // id the input never held has no load there and cannot match.
        let priced = |&id: &u64| {
            let load = dist.load_of(TaskId::new(id));
            (
                TaskId::new(id),
                load.map_or(u64::MAX, |l| l.get().to_bits()),
            )
        };
        let placement = cell
            .results
            .iter()
            .map(|slot| slot.iter().flat_map(|res| &res.tasks).map(priced).collect())
            .collect();
        Some(placement)
    };
    let out = run_elastic(&sc, Some(&mut fleet), &Recorder::disabled());

    let mut table = Table::new(
        format!("Elastic sockets timeline: {seed_ranks} seed ranks, join @1, drain @2"),
        &[
            "step",
            "ranks",
            "joined",
            "drained",
            "tasks",
            "sim_match",
            "outcome",
        ],
    );
    let mut violations = 0usize;
    for (report, (held, mut failures)) in out.steps.iter().zip(fleets) {
        if report.matched != Some(true) {
            failures.push("the fleet diverged from the simulator".into());
        }
        if !report.quorum_held {
            failures.push("the roster lost quorum".into());
        }
        let ok = failures.is_empty();
        if !ok {
            violations += 1;
            for f in &failures {
                eprintln!("VIOLATION [elastic step {}] {f}", report.step);
            }
        }
        table.push_row(vec![
            report.step.to_string(),
            report.roster.len().to_string(),
            format!("{:?}", report.joined),
            format!("{:?}", report.drained),
            held.to_string(),
            if report.matched == Some(true) {
                "yes"
            } else {
                "NO"
            }
            .to_string(),
            if ok { "ok" } else { "VIOLATION" }.to_string(),
        ]);
    }

    println!("{}", table.render());
    write_results("chaos_sockets_elastic.csv", &table.to_csv());
    if violations > 0 || out.cross_checked != out.steps.len() || out.lost_tasks > 0 {
        eprintln!("orchestrate: {violations} elastic step(s) violated their invariants");
        std::process::exit(1);
    }
    println!("elastic sockets timeline matches the simulator at every step");
    std::process::exit(0);
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("orchestrate: {e}");
            std::process::exit(2);
        }
    };
    let bin = match lb_rank_bin() {
        Ok(b) => b,
        Err(e) => {
            eprintln!("orchestrate: {e}");
            std::process::exit(2);
        }
    };
    let plans_out = PathBuf::from("results/plans");
    if let Err(e) = std::fs::create_dir_all(&plans_out) {
        eprintln!("orchestrate: create {}: {e}", plans_out.display());
        std::process::exit(1);
    }
    if args.elastic {
        elastic_mode(&args, &bin, &plans_out);
    }
    let scenarios = match sockets::scenarios(args.ranks, &args.plans_dir) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("orchestrate: {e}");
            std::process::exit(2);
        }
    };

    let dist = Distribution::concentrated(args.ranks, 2, 12);
    let total_tasks = dist.num_tasks();

    let mut table = Table::new(
        format!(
            "Sockets chaos grid: {} rank processes over loopback TCP",
            args.ranks
        ),
        &[
            "scenario",
            "balancer",
            "ranks",
            "finished",
            "parked",
            "degraded",
            "tasks",
            "msgs",
            "bytes",
            "retransmits",
            "max_wall_ms",
            "sim_match",
            "outcome",
        ],
    );
    let mut violations = 0usize;

    for scenario in &scenarios {
        if !args.scenarios.is_empty() && !args.scenarios.iter().any(|s| s == scenario.name) {
            continue;
        }
        // The rank processes re-load the plan from disk: write the
        // canonical rendering once per scenario (round-tripping the
        // codec in anger, shipped plans included).
        let plan_path = plans_out.join(format!("sockets_{}_{}.json", scenario.name, args.ranks));
        write_plan(&plan_path, &scenario.plan);

        for balancer in ["tempered", "grapevine"] {
            if !args.balancers.is_empty() && !args.balancers.iter().any(|b| b == balancer) {
                continue;
            }
            let cfg = sockets::balancer_config(balancer).expect("known balancer");
            let reference = run_distributed_lb_with_faults(
                &dist,
                cfg,
                NetworkModel::default(),
                &RngFactory::new(sockets::SOCKETS_SEED),
                scenario.plan.clone(),
            );
            let placement = reference.distribution.canonical();

            println!("== {} / {balancer} ==", scenario.name);
            let kill = scenario.kill.map(|r| r.as_usize());
            let cell = run_cell(
                &bin,
                args.ranks,
                balancer,
                &plan_path,
                kill,
                Duration::from_secs_f64(args.deadline),
                CellInputs {
                    seed: sockets::SOCKETS_SEED,
                    tasks: None,
                },
            );
            let mut failures = cell.failures;
            let (all_tasks, matched) = audit_fleet(
                &cell.results,
                scenario.bit_compare.then_some(placement.as_slice()),
                kill,
                &mut failures,
            );
            // A killed process never reports, so these are the survivors.
            let reported = || cell.results.iter().flatten();
            let finished = reported().filter(|r| r.finished).count();
            let parked = reported().filter(|r| r.parked).count();
            let degraded = reported().filter(|r| r.degraded).count();
            let msgs: u64 = reported().map(|r| r.msgs).sum();
            let bytes: u64 = reported().map(|r| r.bytes).sum();
            let retransmits: u64 = reported().map(|r| r.retransmits).sum();
            let max_wall = reported().map(|r| r.wall_ms).fold(0.0f64, f64::max);

            if kill.is_some() {
                // Quorum-restart survival: the survivors committed a
                // real assignment without parking, and no tasks beyond
                // the victim's could vanish.
                if parked != 0 {
                    failures.push(format!("{parked} survivors parked after the kill"));
                }
                if all_tasks.len() > total_tasks {
                    failures.push("more tasks than the input holds".into());
                }
            } else if scenario.bit_compare {
                if parked != reference.parked_ranks {
                    failures.push(format!(
                        "parked {} ranks, simulator parked {}",
                        parked, reference.parked_ranks
                    ));
                }
                if all_tasks.len() != total_tasks {
                    failures.push(format!(
                        "{} tasks accounted for, input had {total_tasks}",
                        all_tasks.len()
                    ));
                }
            }

            let ok = failures.is_empty();
            if !ok {
                violations += 1;
                for f in &failures {
                    eprintln!("VIOLATION [{} / {balancer}] {f}", scenario.name);
                }
            }
            table.push_row(vec![
                scenario.name.to_string(),
                balancer.to_string(),
                args.ranks.to_string(),
                finished.to_string(),
                parked.to_string(),
                degraded.to_string(),
                all_tasks.len().to_string(),
                msgs.to_string(),
                bytes.to_string(),
                retransmits.to_string(),
                format!("{max_wall:.1}"),
                if scenario.bit_compare {
                    if matched { "yes" } else { "NO" }.to_string()
                } else {
                    "-".to_string()
                },
                if ok { "ok" } else { "VIOLATION" }.to_string(),
            ]);
        }
    }

    println!("{}", table.render());
    write_results("chaos_sockets.csv", &table.to_csv());
    if violations > 0 {
        eprintln!("orchestrate: {violations} cell(s) violated their invariants");
        std::process::exit(1);
    }
    println!("all sockets chaos cells match the simulator within their guarantees");
}
