//! One rank process of the multi-process TCP chaos grid.
//!
//! Launched by `--bin orchestrate` (one process per rank), but usable by
//! hand for a loopback experiment. Speaks a line-oriented protocol on
//! stdio so the orchestrator never has to guess at timing:
//!
//! ```text
//! → PORT <p>                     the bound listener port
//! ← PEERS <addr>,<addr>,...      full port map, rank order
//! → DONE                         the protocol reached Done locally
//! ← EXIT                         tear down (keep serving until then)
//! → RESULT rank=.. finished=.. degraded=.. parked=.. msgs=.. bytes=..
//!          retransmits=.. wall_ms=.. tasks=<id,id,...>
//! ```
//!
//! The rank keeps serving acks, heartbeats, and heal traffic between
//! `DONE` and `EXIT` — that grace window is what lets slower peers
//! finish — so the orchestrator must collect `DONE` from everyone it
//! expects to finish before broadcasting `EXIT`.
//!
//! Usage:
//! `lb_rank --rank R --ranks N --balancer tempered|grapevine
//!          [--seed S] [--plan file.json] [--deadline secs]`
//!
//! The input distribution, protocol configuration, and fault plan are
//! rebuilt from these scalars via `tempered_bench::sockets`, so every
//! rank process — and the orchestrator's simulator reference — agrees
//! on the run's shape by construction.

use std::io::{BufRead, Write};
use std::net::{Ipv4Addr, SocketAddr, TcpListener};
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;
use tempered_bench::sockets;
use tempered_core::distribution::Distribution;
use tempered_core::ids::{RankId, TaskId};
use tempered_core::rng::RngFactory;
use tempered_runtime::lb::{run_socket_rank, LbRank, SocketConfig};
use tempered_runtime::FaultPlan;

struct Args {
    rank: usize,
    ranks: usize,
    balancer: String,
    seed: u64,
    plan: Option<PathBuf>,
    deadline: f64,
    /// Bit-exact task slice override (`id:loadbits,...`, `-` = empty):
    /// elastic fleets place tasks per step, so the canonical scenario
    /// distribution no longer describes them.
    tasks: Option<Vec<(TaskId, f64)>>,
}

/// Parse a `--tasks` list: comma-separated `id:hexbits` pairs where
/// `hexbits` is the task load's `f64::to_bits` in hex, or the literal
/// `-` for an empty slice. Bits, not decimal: the whole point is that
/// the spawned process prices its tasks with the orchestrator's exact
/// f64s.
fn parse_tasks(spec: &str) -> Result<Vec<(TaskId, f64)>, String> {
    if spec == "-" {
        return Ok(Vec::new());
    }
    spec.split(',')
        .map(|pair| {
            let (id, bits) = pair
                .split_once(':')
                .ok_or_else(|| format!("bad task {pair:?}, want id:loadbits"))?;
            let id: u64 = id.parse().map_err(|e| format!("task id: {e}"))?;
            let bits = u64::from_str_radix(bits, 16).map_err(|e| format!("load bits: {e}"))?;
            let load = f64::from_bits(bits);
            if !load.is_finite() || load < 0.0 {
                return Err(format!("task {id}: load {load} is not a valid load"));
            }
            Ok((TaskId::new(id), load))
        })
        .collect()
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        rank: usize::MAX,
        ranks: 0,
        balancer: String::new(),
        seed: sockets::SOCKETS_SEED,
        plan: None,
        deadline: 60.0,
        tasks: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} expects a value"));
        match flag.as_str() {
            "--rank" => args.rank = value()?.parse().map_err(|e| format!("--rank: {e}"))?,
            "--ranks" => args.ranks = value()?.parse().map_err(|e| format!("--ranks: {e}"))?,
            "--balancer" => args.balancer = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--plan" => args.plan = Some(PathBuf::from(value()?)),
            "--deadline" => {
                args.deadline = value()?.parse().map_err(|e| format!("--deadline: {e}"))?
            }
            "--tasks" => {
                args.tasks = Some(parse_tasks(&value()?).map_err(|e| format!("--tasks: {e}"))?)
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if args.ranks < 2 || args.rank >= args.ranks || args.balancer.is_empty() {
        return Err("required: --rank R --ranks N (R < N, N >= 2) --balancer NAME".into());
    }
    Ok(args)
}

fn emit(line: &str) {
    // Piped stdout is block-buffered; the orchestrator waits on whole
    // lines, so every protocol message must flush eagerly.
    let mut out = std::io::stdout().lock();
    let _ = writeln!(out, "{line}");
    let _ = out.flush();
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("lb_rank: {e}");
            return ExitCode::from(2);
        }
    };
    let cfg = match sockets::balancer_config(&args.balancer) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("lb_rank: {e}");
            return ExitCode::from(2);
        }
    };
    let plan = match &args.plan {
        Some(path) => match FaultPlan::load(path, args.ranks) {
            Ok(p) => p,
            Err(e) => {
                eprintln!("lb_rank: {e}");
                return ExitCode::from(2);
            }
        },
        None => FaultPlan::none(),
    };

    let me = RankId::from(args.rank);
    let tasks: Vec<(TaskId, f64)> = match args.tasks {
        Some(tasks) => tasks,
        None => Distribution::concentrated(args.ranks, 2, 12)
            .tasks_on(me)
            .iter()
            .map(|t| (t.id, t.load.get()))
            .collect(),
    };
    let rank = LbRank::new(me, args.ranks, tasks, cfg, RngFactory::new(args.seed));

    let listener = match TcpListener::bind((Ipv4Addr::LOCALHOST, 0)) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("lb_rank: bind: {e}");
            return ExitCode::from(1);
        }
    };
    emit(&format!("PORT {}", listener.local_addr().unwrap().port()));

    let stdin = std::io::stdin();
    let mut first = String::new();
    if stdin.lock().read_line(&mut first).is_err() {
        eprintln!("lb_rank: stdin closed before PEERS");
        return ExitCode::from(1);
    }
    let peers: Vec<SocketAddr> = match first.trim().strip_prefix("PEERS ") {
        Some(list) => match list.split(',').map(|a| a.trim().parse()).collect() {
            Ok(p) => p,
            Err(e) => {
                eprintln!("lb_rank: bad peer address: {e}");
                return ExitCode::from(1);
            }
        },
        None => {
            eprintln!("lb_rank: expected PEERS, got {:?}", first.trim());
            return ExitCode::from(1);
        }
    };
    if peers.len() != args.ranks {
        eprintln!(
            "lb_rank: PEERS lists {} addrs, want {}",
            peers.len(),
            args.ranks
        );
        return ExitCode::from(1);
    }

    // Watch for EXIT (or orchestrator death — EOF) in the background;
    // either way the run should stop and report what it has.
    let stop = Arc::new(AtomicBool::new(false));
    {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let stdin = std::io::stdin();
            let mut line = String::new();
            loop {
                line.clear();
                match stdin.lock().read_line(&mut line) {
                    Ok(0) | Err(_) => break,
                    Ok(_) if line.trim() == "EXIT" => break,
                    Ok(_) => {}
                }
            }
            stop.store(true, Ordering::SeqCst);
        });
    }

    let socket_cfg = SocketConfig {
        deadline: Duration::from_secs_f64(args.deadline),
        seed: args.seed,
        fault_plan: plan,
    };
    let report = run_socket_rank(me, rank, listener, peers, socket_cfg, stop, || {
        emit("DONE");
    });

    let result = sockets::RankResult {
        rank: me.as_usize(),
        finished: report.finished,
        degraded: report.rank.degraded(),
        parked: report.rank.parked(),
        msgs: report.network.messages,
        bytes: report.network.bytes,
        retransmits: report.rank.reliable_stats().retransmitted,
        wall_ms: report.wall_time_s * 1e3,
        tasks: sockets::task_ids(&report.rank.canonical()),
    };
    emit(&result.to_string());
    ExitCode::SUCCESS
}
