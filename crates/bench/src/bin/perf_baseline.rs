//! Scaling sweep: time the distributed LB protocol on the deterministic
//! simulator at 256 → 1k → 8k → 32k ranks and write
//! `results/scaling.csv` — wall clock per modeled millisecond, the
//! process memory high-water mark, and the two per-unit columns ROADMAP
//! gates are written in, `hwm_kb_per_rank` and `wall_us_per_event`: the
//! curve behind the "toward 100k ranks" claim.
//!
//! Each row is one hardened, fault-free TemperedLB invocation on the
//! hot-spot distribution, run once: the shape of the curve matters here,
//! not ±5% noise. Its modeled-cost columns (messages, bytes, events,
//! virtual time) are pinned bit for bit by `repro modeled_cost` at 256
//! and 1024 ranks; wall clock and memory are this binary's alone.
//!
//! `TEMPERED_SCALE_MAX=<ranks>` (default 32 768) caps the sweep. After
//! writing the file the binary exits 1 if memory per rank at the largest
//! swept rank count exceeds 1.5× the 256-rank row: per-rank state that
//! grows with the job is the thing a fully distributed balancer must not
//! have.
//!
//! Run with: `cargo run --release -p tempered-bench --bin perf_baseline`

use std::fmt::Write as _;
use std::time::Instant;
use tempered_bench::write_results;
use tempered_core::distribution::Distribution;
use tempered_core::rng::RngFactory;
use tempered_runtime::lb::LbProtocolConfig;
use tempered_runtime::sim::NetworkModel;
use tempered_runtime::{run_distributed_lb, RetryConfig};

const SEED: u64 = 4242;
/// ROADMAP item 2: memory high-water per rank may grow at most this much
/// from the smallest swept rank count to the largest.
const HWM_PER_RANK_GATE: f64 = 1.5;

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

/// The sweep: hotspot/tempered with hardened reliable delivery at every
/// rank count up to `cap`.
fn scaling_sweep(cap: usize) -> Vec<SweepRow> {
    let cfg = LbProtocolConfig::quick().hardened(RetryConfig::generous());
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

fn main() {
    let cap: usize = std::env::var("TEMPERED_SCALE_MAX")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(32_768);
    let sweep = scaling_sweep(cap);

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
