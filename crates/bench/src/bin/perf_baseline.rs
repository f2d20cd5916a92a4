//! Perf baseline: time the distributed LB protocol on the deterministic
//! simulator and emit the repo-root `BENCH_lb.json` plus
//! `results/scaling.csv` — the perf trajectory the ROADMAP asks for, so
//! hot-path work has a number to move and regressions have a number to
//! trip.
//!
//! Each cell runs the hardened protocol (reliable delivery on the
//! simulated network, the configuration the chaos grid uses) on one of
//! two input shapes — the synthetic hot-spot distribution and the
//! service flash-crowd workload (`tempered-svc`) frozen mid-ramp —
//! three times, and keeps the fastest wall
//! clock — the standard way to strip scheduler noise from a baseline.
//! Alongside wall time it records the modeled cost (messages, bytes,
//! events, virtual makespan), which must be *identical* run to run:
//! any drift there is a determinism bug, and the binary fails loudly.
//! The same holds commit to commit: before overwriting `BENCH_lb.json`
//! the binary reads it back and, for every row both files have, exits 1
//! (leaving the file alone) if a modeled-cost column moved, and prints a
//! `::warning::` if wall clock grew past 1.25× — delete the file to
//! accept an intended change of modeled cost.
//!
//! After the grid, a single-repeat scaling sweep pushes the headline
//! configuration (hotspot/tempered, hardened) through 256 → 1k → 8k →
//! 32k ranks, recording wall clock per modeled millisecond and the
//! process memory high-water mark — the curve behind the "toward 100k
//! ranks" claim — plus the two per-unit columns ROADMAP item 2's gate is
//! written in, `hwm_kb_per_rank` and `wall_us_per_event`.
//! `TEMPERED_SCALE_MAX=<ranks>` caps the sweep. After writing both files
//! the binary exits 1 if memory per rank at the largest swept rank count
//! exceeds 1.5× the 256-rank row: per-rank state that grows with the job
//! is the thing a fully distributed balancer must not have.
//!
//! Note on the 16-rank `svc_flash`/`grapevine` row: final imbalance
//! equals initial by design, not by accident. Grapevine's overloaded
//! ranks do propose transfers, but uncoordinated senders acting on
//! stale estimates overshoot the same few recipients, so no proposal
//! improves the max and the strict-improvement commit gate keeps the
//! original placement (the paper's motivating failure mode; tempered
//! breaks it). Pinned by `crates/svc/tests/grapevine_stall.rs`.
//!
//! Run with: `cargo run --release -p tempered-bench --bin perf_baseline`
//! (`TEMPERED_QUICK=1` shrinks the rank counts for smoke testing).

use std::fmt::Write as _;
use std::time::Instant;
use tempered_bench::write_results;
use tempered_core::distribution::Distribution;
use tempered_core::rng::RngFactory;
use tempered_obs::json::{self, arr, as_num, field, get, obj, Json};
use tempered_runtime::lb::LbProtocolConfig;
use tempered_runtime::sim::NetworkModel;
use tempered_runtime::{run_distributed_lb, DistLbResult, RetryConfig};
use tempered_svc::SvcScenario;

const SEED: u64 = 4242;
const REPEATS: usize = 3;
/// ROADMAP item 2: memory high-water per rank may grow at most this much
/// from the smallest swept rank count to the largest.
const HWM_PER_RANK_GATE: f64 = 1.5;

fn config(balancer: &str) -> LbProtocolConfig {
    let base = match balancer {
        "tempered" => LbProtocolConfig::quick(),
        _ => LbProtocolConfig::grapevine(),
    };
    base.hardened(RetryConfig::generous())
}

/// The service flash-crowd workload frozen at the steepest point of its
/// ramp: dyadic per-shard loads on the block placement — a realistic
/// skew shape (a hot hashed subset, not a hot rank prefix) for the
/// protocol to digest.
fn svc_flash(num_ranks: usize) -> Distribution {
    let sc = SvcScenario::flash_crowd(num_ranks, 16, 36, SEED);
    let mut dist = sc.initial_distribution();
    let mid_ramp = sc.phases as u64 / 3 + 3;
    sc.apply_phase(&mut dist, mid_ramp);
    dist
}

struct Cell {
    workload: &'static str,
    balancer: &'static str,
    ranks: usize,
    tasks: usize,
    wall_ms: f64,
    out: DistLbResult,
}

/// Process memory high-water mark from `/proc/self/status`, in KiB.
/// Cumulative over the process lifetime, so sweep rows run in ascending
/// rank order and the per-row growth is what carries the signal.
fn vm_hwm_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1).and_then(|v| v.parse().ok()))
        })
        .unwrap_or(0)
}

struct SweepRow {
    ranks: usize,
    tasks: usize,
    wall_ms: f64,
    virtual_ms: f64,
    messages: u64,
    bytes: u64,
    events: u64,
    hwm_kb: u64,
}

impl SweepRow {
    fn hwm_kb_per_rank(&self) -> f64 {
        self.hwm_kb as f64 / self.ranks as f64
    }

    fn wall_us_per_event(&self) -> f64 {
        self.wall_ms * 1e3 / self.events as f64
    }
}

/// Scaling sweep: the headline configuration (hotspot/tempered,
/// hardened reliable delivery) at rank counts well past the grid, one
/// repeat each — the shape of the curve matters here, not ±5% noise.
fn scaling_sweep() -> Vec<SweepRow> {
    let cap: usize = std::env::var("TEMPERED_SCALE_MAX")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(if tempered_bench::quick_mode() {
            256
        } else {
            32_768
        });
    let cfg = config("tempered");
    let mut rows = Vec::new();
    for &ranks in &[256usize, 1024, 8192, 32_768] {
        if ranks > cap {
            break;
        }
        let hot = (ranks / 8).max(2);
        let dist = Distribution::concentrated(ranks, hot, 40);
        let t0 = Instant::now();
        let out = run_distributed_lb(&dist, cfg, NetworkModel::default(), &RngFactory::new(SEED));
        let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
        assert_eq!(out.degraded_ranks, 0, "fault-free sweep must not degrade");
        let row = SweepRow {
            ranks,
            tasks: dist.num_tasks(),
            wall_ms,
            virtual_ms: out.report.finish_time * 1e3,
            messages: out.report.network.messages,
            bytes: out.report.network.bytes,
            events: out.report.events_delivered,
            hwm_kb: vm_hwm_kb(),
        };
        println!(
            "  scale ranks={:<6} wall={:>9.1}ms virtual={:>8.3}ms msgs={} hwm={}KiB \
             ({:.1}KiB/rank, {:.3}us/event)",
            row.ranks,
            row.wall_ms,
            row.virtual_ms,
            row.messages,
            row.hwm_kb,
            row.hwm_kb_per_rank(),
            row.wall_us_per_event()
        );
        rows.push(row);
    }
    rows
}

/// A cell of `BENCH_lb.json` as it reads in the file (`-` when absent).
fn show(v: Option<&Json>) -> String {
    match v {
        Some(Json::Str(s)) => s.clone(),
        Some(Json::Num(n)) => n.to_string(),
        Some(other) => format!("{other:?}"),
        None => "-".to_string(),
    }
}

/// The modeled-cost guard: compare the rows of `new` (the file about to
/// be written) with the same rows of `old` (the file on disk), matched on
/// `(workload, balancer, ranks)`. Returns one line per modeled-cost
/// column that differs; wall-clock regressions past 1.25× only warn,
/// because wall clock is the one column a different machine may move.
fn modeled_cost_drift(old: &str, new: &str) -> Result<Vec<String>, String> {
    let (old, new) = (json::parse(old)?, json::parse(new)?);
    let mut drift = Vec::new();
    for table in ["runs", "scaling"] {
        let rows = |doc| {
            arr(
                field(obj(doc, "BENCH_lb.json")?, table, "BENCH_lb.json")?,
                table,
            )
        };
        let id = |row| -> Vec<String> {
            let keys = ["workload", "balancer", "ranks"].iter();
            keys.filter_map(|k| get(row, k))
                .map(|v| show(Some(v)))
                .collect()
        };
        for row in rows(&new)? {
            let row = obj(row, table)?;
            let before = rows(&old)?
                .iter()
                .filter_map(|r| obj(r, table).ok())
                .find(|r| id(r) == id(row));
            let Some(before) = before else { continue };
            let label = format!("{table} {}", id(row).join("/"));
            for column in ["messages", "bytes", "events", "virtual_s", "virtual_ms"] {
                let (was, is) = (get(before, column), get(row, column));
                if was != is {
                    drift.push(format!("{label}: {column} {} -> {}", show(was), show(is)));
                }
            }
            let wall = |r| as_num(field(r, "wall_ms", table)?, "wall_ms");
            let (was, is) = (wall(before)?, wall(row)?);
            if is > 1.25 * was {
                println!("::warning::perf regression {label}: {was:.2}ms -> {is:.2}ms (>25%)");
            }
        }
    }
    Ok(drift)
}

fn main() {
    let rank_counts: &[usize] = if tempered_bench::quick_mode() {
        &[8, 16]
    } else {
        &[8, 32, 128]
    };

    let mut cells: Vec<Cell> = Vec::new();
    for &ranks in rank_counts {
        let hot = (ranks / 8).max(2);
        let shapes: [(&'static str, Distribution); 2] = [
            ("hotspot", Distribution::concentrated(ranks, hot, 40)),
            ("svc_flash", svc_flash(ranks)),
        ];
        for (workload, dist) in shapes {
            for balancer in ["tempered", "grapevine"] {
                let cfg = config(balancer);
                let mut best: Option<(f64, DistLbResult)> = None;
                for _ in 0..REPEATS {
                    let t0 = Instant::now();
                    let out = run_distributed_lb(
                        &dist,
                        cfg,
                        NetworkModel::default(),
                        &RngFactory::new(SEED),
                    );
                    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
                    assert_eq!(out.degraded_ranks, 0, "fault-free run must not degrade");
                    if let Some((_, prev)) = &best {
                        assert_eq!(
                            (prev.report.network.messages, prev.report.network.bytes),
                            (out.report.network.messages, out.report.network.bytes),
                            "modeled cost must be deterministic \
                             ({workload}/{balancer}, {ranks} ranks)"
                        );
                    }
                    match &mut best {
                        Some((w, _)) if *w <= wall_ms => {}
                        _ => best = Some((wall_ms, out)),
                    }
                }
                let (wall_ms, out) = best.expect("at least one repeat ran");
                println!(
                    "{workload:>9}/{balancer:<9} ranks={ranks:<4} wall={wall_ms:>8.2}ms msgs={} bytes={}",
                    out.report.network.messages, out.report.network.bytes
                );
                cells.push(Cell {
                    workload,
                    balancer,
                    ranks,
                    tasks: dist.num_tasks(),
                    wall_ms,
                    out,
                });
            }
        }
    }

    let sweep = scaling_sweep();

    // One object per cell under a stable schema.
    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"bench\": \"lb\",");
    let _ = writeln!(json, "  \"seed\": {SEED},");
    let _ = writeln!(
        json,
        "  \"mode\": \"{}\",",
        if tempered_bench::quick_mode() {
            "quick"
        } else {
            "full"
        }
    );
    let _ = writeln!(json, "  \"repeats\": {REPEATS},");
    json.push_str("  \"runs\": [\n");
    for (i, c) in cells.iter().enumerate() {
        let r = &c.out.report;
        let _ = write!(
            json,
            "    {{\"workload\": \"{}\", \"balancer\": \"{}\", \"ranks\": {}, \"tasks\": {}, \
             \"wall_ms\": {:.3}, \"messages\": {}, \"bytes\": {}, \"events\": {}, \
             \"virtual_s\": {:.6}, \"initial_imbalance\": {:.4}, \"final_imbalance\": {:.4}}}",
            c.workload,
            c.balancer,
            c.ranks,
            c.tasks,
            c.wall_ms,
            r.network.messages,
            r.network.bytes,
            r.events_delivered,
            r.finish_time,
            c.out.initial_imbalance,
            c.out.final_imbalance,
        );
        json.push_str(if i + 1 < cells.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ],\n  \"scaling\": [\n");
    for (i, s) in sweep.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"ranks\": {}, \"tasks\": {}, \"wall_ms\": {:.3}, \"virtual_ms\": {:.3}, \
             \"wall_per_virtual_ms\": {:.3}, \"messages\": {}, \"bytes\": {}, \"events\": {}, \
             \"vm_hwm_kb\": {}, \"hwm_kb_per_rank\": {:.1}, \"wall_us_per_event\": {:.3}}}",
            s.ranks,
            s.tasks,
            s.wall_ms,
            s.virtual_ms,
            s.wall_ms / s.virtual_ms,
            s.messages,
            s.bytes,
            s.events,
            s.hwm_kb,
            s.hwm_kb_per_rank(),
            s.wall_us_per_event(),
        );
        json.push_str(if i + 1 < sweep.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ]\n}\n");
    // The benchmark of record lives at the repo root; the sweep curve
    // goes under results/ next to the other artifacts.
    if let Ok(committed) = std::fs::read_to_string("BENCH_lb.json") {
        match modeled_cost_drift(&committed, &json) {
            Ok(drift) if drift.is_empty() => {}
            Ok(drift) => {
                eprintln!("modeled cost drifted from BENCH_lb.json (file left untouched):");
                for line in drift {
                    eprintln!("  {line}");
                }
                std::process::exit(1);
            }
            Err(e) => {
                eprintln!("BENCH_lb.json: {e}");
                std::process::exit(1);
            }
        }
    }
    std::fs::write("BENCH_lb.json", &json).expect("write BENCH_lb.json");
    println!("wrote BENCH_lb.json");

    let mut csv = String::from(
        "ranks,tasks,wall_ms,virtual_ms,wall_per_virtual_ms,messages,bytes,events,vm_hwm_kb,\
         hwm_kb_per_rank,wall_us_per_event\n",
    );
    for s in &sweep {
        let _ = writeln!(
            csv,
            "{},{},{:.3},{:.3},{:.3},{},{},{},{},{:.1},{:.3}",
            s.ranks,
            s.tasks,
            s.wall_ms,
            s.virtual_ms,
            s.wall_ms / s.virtual_ms,
            s.messages,
            s.bytes,
            s.events,
            s.hwm_kb,
            s.hwm_kb_per_rank(),
            s.wall_us_per_event(),
        );
    }
    write_results("scaling.csv", &csv);

    if let (Some(first), Some(last)) = (sweep.first(), sweep.last()) {
        let (base, top) = (first.hwm_kb_per_rank(), last.hwm_kb_per_rank());
        if top > HWM_PER_RANK_GATE * base {
            eprintln!(
                "memory per rank grew with the job: {top:.1} KiB at {} ranks against \
                 {base:.1} KiB at {} (gate {HWM_PER_RANK_GATE}x)",
                last.ranks, first.ranks
            );
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::modeled_cost_drift;

    fn doc(messages: u64, wall_ms: f64, scaling_ranks: u64) -> String {
        format!(
            r#"{{"runs": [
                {{"workload": "hotspot", "balancer": "tempered", "ranks": 8, "wall_ms": {wall_ms},
                  "messages": {messages}, "bytes": 10, "events": 20, "virtual_s": 0.000723}}
              ],
              "scaling": [{{"ranks": {scaling_ranks}, "wall_ms": 1.0, "virtual_ms": 29.817,
                            "messages": 5, "bytes": 6, "events": 7}}]}}"#
        )
    }

    #[test]
    fn shared_rows_must_agree_on_modeled_cost_only() {
        // Wall clock may move (it warns); rows only one file has are skipped.
        assert_eq!(
            modeled_cost_drift(&doc(2498, 0.5, 256), &doc(2498, 9.0, 1024)),
            Ok(vec![])
        );
        let drift = modeled_cost_drift(&doc(2498, 0.5, 256), &doc(2499, 0.5, 256)).unwrap();
        assert_eq!(drift.len(), 1, "{drift:?}");
        assert!(drift[0].contains("messages") && drift[0].contains("2499"));
        assert!(modeled_cost_drift("{", &doc(1, 1.0, 1)).is_err());
    }
}
