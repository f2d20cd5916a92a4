//! The five workloads: what each sets up, what a round is, and what an
//! untraced and a traced run of it report.

use crate::inputs;
use crate::replay;
use crate::report::RunResult;
use crate::rounds::{
    local_round, ms_since, sim_round, sim_round_observed, sim_round_traced, sockets_round,
    threads_round, threads_round_traced, Checker, Outcome, SocketsRound, Traced,
};
use crate::spans::{HandlerTimes, SpanLog, MSG_KINDS, WIRE_KINDS};
use crate::stats::{median, median_of, percentile, steady, summarize};
use std::time::Instant;
use tempered_core::balancer::LoadBalancer;
use tempered_core::distribution::Distribution;
use tempered_core::rng::{derive_seed, RngFactory};
use tempered_runtime::lb::LbProtocolConfig;
use tempered_runtime::sim::NetworkModel;
use tempered_runtime::{DistLbResult, FaultPlan, ReliableStats};

pub struct Workload {
    pub name: &'static str,
    pub ranks: usize,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "sim_hotspot",
        ranks: 2048,
        why: "headline: hardened simulator round at 2048 ranks, every sim-path layer works and reliable delivery is the largest share",
    },
    Workload {
        name: "sim_hotspot_lossy",
        ranks: 2048,
        why: "same layers used differently: 2% drop, duplicates, reorder and spikes put reliable on its retry and dedup path",
    },
    Workload {
        name: "sim_svc_raw",
        ranks: 2048,
        why: "bypasses reliable (best-effort transport) and weighs the core kernels most: 32768 dyadic-load tasks on every rank",
    },
    Workload {
        name: "threads_hotspot",
        ranks: 1024,
        why: "the threaded executor: same engine under a different driver loop, so sim-only speedups must not move it",
    },
    Workload {
        name: "sockets_hotspot",
        ranks: 4,
        why: "the TCP driver over loopback: framing, CRC, reader and writer threads, which the simulator bypasses",
    },
];

/// Ranks of the small end of the weak-scaling pair.
const SMALL_RANKS: usize = 256;
/// In an untraced run set-up is repeated at least this often, and until
/// [`SETUP_WINDOW`] seconds have passed, which gives the short set-ups
/// (threads, sockets) more repeats; [`steady`] of them is reported, so
/// one slow start does not read as a regression.
const SETUP_REPEATS: usize = 3;
const SETUP_WINDOW: f64 = 2.0;
const WORKERS: usize = 2;

/// Run rounds until `seconds` have passed and at least `min` ran.
fn timed(seconds: f64, min: usize, mut round: impl FnMut() -> f64) -> Vec<f64> {
    let t0 = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < min || t0.elapsed().as_secs_f64() < seconds {
        samples.push(round());
    }
    samples
}

/// By how many percent the median of `with` exceeds that of `without`.
fn overhead_pct(with: &[f64], without: &[f64]) -> f64 {
    let base = median(without);
    (median(with) - base) / base * 100.0
}

/// Interleaved passes of a traced run: at least two, then until
/// `seconds` have passed.
fn passes(seconds: f64) -> impl Iterator<Item = usize> {
    let t0 = Instant::now();
    (0..).take_while(move |&pass| pass < 2 || t0.elapsed().as_secs_f64() < seconds)
}

/// Repeat set-up, keeping the last state and every duration in seconds.
/// Set-up is all a run does before its first timed round: the input,
/// the checker, the simulator reference (threads, sockets) and one
/// verified warm-up round (simulator, sockets). The first repeat is
/// timed from process start, so it carries what the process paid before
/// `main`.
fn set_up<T>(process_start: Instant, mut f: impl FnMut() -> T) -> (T, Vec<f64>) {
    let mut t0 = process_start;
    let mut state = f();
    let mut durations = vec![t0.elapsed().as_secs_f64()];
    let window = Instant::now();
    while durations.len() < SETUP_REPEATS || window.elapsed().as_secs_f64() < SETUP_WINDOW {
        t0 = Instant::now();
        state = f();
        durations.push(t0.elapsed().as_secs_f64());
    }
    (state, durations)
}

/// Peak resident set of this process so far, KiB.
fn rss_hwm_kb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse().ok()
        })
        .unwrap_or(0.0)
}

/// CPU time of this process (all threads, user + system), ms. Clock
/// ticks are 10 ms on Linux, so only differences over many rounds mean
/// anything.
fn cpu_ms() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name, which may hold spaces.
    let fields: Vec<&str> = stat
        .rsplit_once(')')
        .map_or("", |(_, rest)| rest)
        .split_whitespace()
        .collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks(11) + ticks(12)) * 10.0
}

/// The end-to-end metrics every workload reports from an untraced run.
fn end_to_end(result: &mut RunResult, setups: &[f64], rounds: &[f64], checker: &Checker) {
    let s = summarize(setups);
    result.push_summary("setup_s", s.p10, s);
    let s = summarize(rounds);
    result.push_summary("round_ms_p10", s.p10, s);
    result.push("rss_hwm_kb", rss_hwm_kb());
    modeled(result, checker);
}

/// The exact metrics: modeled cost (simulator workloads only; the other
/// drivers have no modeled network) and placement quality. A run whose
/// rounds never verified has neither, and reports its failures instead.
fn modeled(result: &mut RunResult, checker: &Checker) {
    if let Some(m) = checker.pinned() {
        result.push("virtual_ms", m.virtual_s * 1e3);
        result.push("messages", m.messages as f64);
        result.push("bytes", m.bytes as f64);
    }
    if let Some(imbalance) = checker.final_imbalance() {
        result.push("final_imbalance", imbalance);
    }
}

fn absorb(result: &mut RunResult, checker: Checker) {
    result.attempted += checker.attempted;
    result.failed += checker.failed;
    result.errors.extend(checker.errors);
}

pub fn run(
    name: &str,
    seed: u64,
    seconds: f64,
    traced: bool,
    process_start: Instant,
) -> Option<RunResult> {
    let workload = WORKLOADS.iter().find(|w| w.name == name)?;
    let mut result = RunResult::new(workload.name, seed, seconds, traced);
    match (workload.name, traced) {
        ("threads_hotspot", false) => threads(&mut result, workload.ranks, process_start),
        ("threads_hotspot", true) => threads_traced(&mut result, workload.ranks),
        ("sockets_hotspot", false) => sockets(&mut result, workload.ranks, process_start),
        ("sockets_hotspot", true) => sockets_traced(&mut result, workload.ranks),
        (_, false) => sim(&mut result, workload, process_start),
        (_, true) => sim_traced(&mut result, workload),
    }
    let failed_share = result.failed as f64 / result.attempted.max(1) as f64;
    result.push("failed_share", failed_share);
    Some(result)
}

// ---- simulator workloads ------------------------------------------------

struct SimInput {
    dist: Distribution,
    cfg: LbProtocolConfig,
    plan: FaultPlan,
    /// `(svc.build_ms, core.distribution.build_ms)` where the input is
    /// the service workload.
    build_ms: Option<(f64, f64)>,
}

fn sim_input(workload: &Workload, seed: u64) -> SimInput {
    match workload.name {
        "sim_svc_raw" => {
            let t0 = Instant::now();
            let scenario = inputs::svc_scenario(workload.ranks, seed);
            let dist = inputs::svc_flash(&scenario);
            let svc_ms = ms_since(t0);
            let t0 = Instant::now();
            let rebuilt = inputs::imbalance_of(&inputs::assignment_of_dist(&dist));
            let dist_ms = ms_since(t0);
            assert!(rebuilt.is_some(), "scenario shards are unique");
            SimInput {
                dist,
                cfg: inputs::raw(),
                plan: FaultPlan::none(),
                build_ms: Some((svc_ms, dist_ms)),
            }
        }
        lossy_or_not => SimInput {
            dist: inputs::hotspot(workload.ranks),
            cfg: inputs::hardened(),
            plan: if lossy_or_not == "sim_hotspot_lossy" {
                inputs::lossy_plan()
            } else {
                FaultPlan::none()
            },
            build_ms: None,
        },
    }
}

/// Input and a checker pinned by the verified warm-up round, which
/// also lets caches and the allocator fill.
fn sim_set_up(workload: &Workload, seed: u64) -> (SimInput, Checker) {
    let input = sim_input(workload, seed);
    let mut checker = Checker::new(&input.dist);
    let (_, out) = sim_round(&input.dist, input.cfg, &input.plan, &RngFactory::new(seed));
    checker.check("warm-up", &Outcome::of_result(&out), true);
    (input, checker)
}

/// Round time at [`SMALL_RANKS`], for the weak-scaling ratio.
fn small_rounds(result: &mut RunResult, seconds: f64) -> f64 {
    let dist = inputs::hotspot(SMALL_RANKS);
    let factory = RngFactory::new(result.seed);
    let mut checker = Checker::new(&dist);
    let mut round = || {
        let (ms, out) = sim_round(&dist, inputs::hardened(), &FaultPlan::none(), &factory);
        checker.check("256-rank round", &Outcome::of_result(&out), true);
        ms
    };
    round();
    let samples = timed(seconds, 5, round);
    absorb(result, checker);
    steady(&samples)
}

fn sim(result: &mut RunResult, workload: &Workload, process_start: Instant) {
    let seed = result.seed;
    let factory = RngFactory::new(seed);
    let ((input, mut checker), setups) = set_up(process_start, || sim_set_up(workload, seed));
    // The weak-scaling pair shares the measuring window: a tenth of it
    // goes to the small size, whose rounds are a twentieth as long.
    let scaling = workload.name == "sim_hotspot";
    let small_ms = scaling.then(|| small_rounds(result, 0.1 * result.seconds));
    let share = if scaling { 0.9 } else { 1.0 };
    let rounds = timed(share * result.seconds, 3, || {
        let (ms, out) = sim_round(&input.dist, input.cfg, &input.plan, &factory);
        checker.check("round", &Outcome::of_result(&out), true);
        ms
    });
    end_to_end(result, &setups, &rounds, &checker);
    if let Some(small_ms) = small_ms {
        let ratio = steady(&rounds) / ((workload.ranks / SMALL_RANKS) as f64 * small_ms);
        result.push("weak_scaling_ratio", ratio);
    }
    absorb(result, checker);
}

/// Metrics every traced run derives from its plain and traced rounds.
fn traced_common(result: &mut RunResult, plain: &[f64], traced: &[Traced]) -> HandlerTimes {
    let traced_ms: Vec<f64> = traced.iter().map(|t| t.ms).collect();
    result.push("trace.overhead_pct", overhead_pct(&traced_ms, plain));
    // Per-round means over the traced rounds.
    let n = traced.len() as f64;
    let mut sum = HandlerTimes::default();
    for t in traced {
        sum.merge(&t.times);
    }
    result.push("lb.rank.handler_ms", sum.total().ms() / n);
    for (kind, acc) in WIRE_KINDS.iter().zip(sum.wire) {
        result.push(&format!("lb.rank.{kind}_ms"), acc.ms() / n);
        result.push(&format!("lb.rank.{kind}_n"), acc.n as f64 / n);
    }
    for (kind, acc) in MSG_KINDS.iter().zip(sum.msg) {
        result.push(&format!("lb.engine.{kind}_ms"), acc.ms() / n);
        result.push(&format!("lb.engine.{kind}_n"), acc.n as f64 / n);
    }
    sum
}

fn reliable_counters(result: &mut RunResult, r: &ReliableStats) {
    result.push("reliable.sent", r.sent as f64);
    result.push("reliable.retransmitted", r.retransmitted as f64);
    result.push(
        "reliable.duplicates_suppressed",
        r.duplicates_suppressed as f64,
    );
    result.push("reliable.gave_up", r.gave_up as f64);
    let attempts = (r.sent + r.retransmitted).max(1);
    result.push("reliable.useful_ratio", r.acked as f64 / attempts as f64);
}

/// Replay metrics of a captured corpus that every driver shares.
fn codec_metrics(result: &mut RunResult, corpus: &[crate::spans::Delivered]) {
    if let Some(c) = replay::codec(corpus) {
        result.push("lb.messages.encode_ns", c.encode_ns);
        result.push("lb.messages.decode_ns", c.decode_ns);
        result.push("lb.messages.bytes_per_frame", c.bytes_per_frame);
        result.push("crc.mb_per_s", c.crc_mb_per_s);
        result.push("lb.socket.frame_ns", c.frame_ns);
    }
}

fn sim_traced(result: &mut RunResult, workload: &Workload) {
    let factory = RngFactory::new(result.seed);
    let mut log = SpanLog::new();
    let input = sim_input(workload, result.seed);
    let SimInput {
        dist,
        cfg,
        plan,
        build_ms,
    } = &input;
    let mut checker = Checker::new(dist);
    let observe = workload.name == "sim_hotspot";

    // The warm-up round doubles as the capture round: cloning every
    // delivered frame costs a tenth of a round, so it stays out of the
    // rounds that are timed. Replay comes first, and the corpus is gone
    // before anything else is measured.
    let capture = sim_round_traced(&mut log, dist, *cfg, plan, &factory, true);
    checker.check("capture round", &capture.outcome, true);
    let wheel = replay::wheel(&capture.corpus, &NetworkModel::default(), cfg.reliability);
    result.push("wheel.push_pop_ns", wheel.push_pop_ns);
    result.push("wheel.peak_len", wheel.peak_len as f64);
    if let Some(retry) = cfg.reliability {
        let ns = replay::reliable(&capture.corpus, workload.ranks, retry);
        result.push("reliable.send_ack_ns", ns);
    }
    if let Some(g) = replay::gossip(&capture.corpus, workload.ranks) {
        result.push("core.knowledge.merge_ns_per_pair", g.merge_ns_per_pair);
        result.push("core.gossip.pairs_per_msg", g.pairs_per_msg);
        result.push("core.gossip.bytes_per_msg", g.bytes_per_msg);
    }
    if observe {
        codec_metrics(result, &capture.corpus);
    }
    drop(capture);
    let small_ms = observe.then(|| small_rounds(result, 0.0));

    // Plain, traced (and observed) rounds interleaved, so drift over the
    // run lands on all of them alike. Half the window goes here.
    let (mut plain, mut traced, mut observed) = (Vec::new(), Vec::new(), Vec::new());
    let mut last: Option<DistLbResult> = None;
    let mut events_recorded = 0;
    for _ in passes(0.5 * result.seconds) {
        let (ms, out) = sim_round(dist, *cfg, plan, &factory);
        checker.check("plain round", &Outcome::of_result(&out), true);
        plain.push(ms);
        last = Some(out);
        let t = sim_round_traced(&mut log, dist, *cfg, plan, &factory, false);
        checker.check("traced round", &t.outcome, true);
        traced.push(t);
        if observe {
            let (ms, out, events) = sim_round_observed(dist, *cfg, plan, &factory);
            checker.check("observed round", &Outcome::of_result(&out), true);
            observed.push(ms);
            events_recorded = events;
        }
    }
    let last = last.expect("at least two passes ran");
    let plain_ms = median(&plain);
    traced_common(result, &plain, &traced);

    let self_ms = median(&traced.iter().map(|t| t.self_ms).collect::<Vec<_>>());
    let events = traced[0].events as f64;
    result.push("sim.self_ms", self_ms);
    result.push("sim.events", events);
    result.push("sim.us_per_event", self_ms * 1e3 / events);
    // Self time is the round span minus its handler spans, so the two
    // sum to the round by construction. What can fail is the subtraction:
    // one thread ran every handler, so together they fit inside the round.
    for t in &traced {
        let handler_ms = t.times.total().ms();
        if handler_ms > t.ms {
            result.errors.push(format!(
                "sum check: lb.rank.handler_ms = {handler_ms:.3} ms exceeds the traced round's {:.3} ms",
                t.ms
            ));
        }
    }
    if observe {
        result.push("obs.overhead_pct", overhead_pct(&observed, &plain));
        result.push("obs.events_recorded", events_recorded as f64);
    }
    if let Some(small_ms) = small_ms {
        let ratio = steady(&plain) / ((workload.ranks / SMALL_RANKS) as f64 * small_ms);
        result.push("weak_scaling_ratio", ratio);
    }

    // Differential rounds: the same input with one layer switched off by
    // public configuration.
    let reps = 2;
    let variant = |checker: &mut Checker, cfg: LbProtocolConfig| {
        median_of(reps, || {
            let (ms, out) = sim_round(dist, cfg, &FaultPlan::none(), &factory);
            checker.check("differential round", &Outcome::of_result(&out), false);
            ms
        })
    };
    // The floor: engine, rank and kernels on the zero-latency driver,
    // best-effort delivery, no event queue.
    let local_ms = median_of(reps, || {
        let (ms, outcome) = local_round(dist, inputs::raw(), &factory);
        checker.check("local round", &outcome, false);
        ms
    });
    result.push("lb.driver.local_round_ms", local_ms);
    if !plan.is_zero() {
        let clean_ms = variant(&mut checker, *cfg);
        result.push("fault.cost_ms", plain_ms - clean_ms);
        let f = &last.report.faults;
        result.push("fault.dropped", f.dropped as f64);
        result.push("fault.duplicated", f.duplicated as f64);
        result.push("fault.reordered", f.reordered as f64);
        result.push("fault.spiked", f.spiked as f64);
    } else {
        let raw_ms = if cfg.reliability.is_some() {
            let raw_ms = variant(&mut checker, inputs::raw());
            result.push("reliable.cost_ms", plain_ms - raw_ms);
            raw_ms
        } else {
            plain_ms
        };
        result.push("sim.overhead_ms", raw_ms - local_ms);
    }
    if cfg.reliability.is_some() {
        reliable_counters(result, &last.reliable);
    }

    // The synchronous kernels on the same input, no protocol around them.
    let mut sync = inputs::sync_tempered();
    let refine_ms = median_of(reps, || {
        let t0 = Instant::now();
        std::hint::black_box(sync.rebalance(dist, &factory, 0));
        ms_since(t0)
    });
    result.push("core.refine_ms", refine_ms);
    if let Some((svc_ms, dist_ms)) = build_ms {
        result.push("svc.build_ms", *svc_ms);
        result.push("core.distribution.build_ms", *dist_ms);
    }
    modeled(result, &checker);
    absorb(result, checker);
    result.spans = Some(log);
}

// ---- threaded executor --------------------------------------------------

/// Input and a checker pinned to the simulator's placement on it. The
/// simulator's modeled cost is not pinned: it is not this driver's.
fn reference_set_up(dist: &Distribution, cfg: LbProtocolConfig, seed: u64) -> Checker {
    let mut checker = Checker::new(dist);
    let (_, out) = sim_round(dist, cfg, &FaultPlan::none(), &RngFactory::new(seed));
    let reference = Outcome {
        modeled: None,
        ..Outcome::of_result(&out)
    };
    checker.check("simulator reference", &reference, true);
    checker
}

/// The simulator reference has already run the engine over the input
/// when set-up ends, so set-up holds no threaded warm-up round. The
/// executor's first rounds in a process run in another scheduling
/// regime than its steady state (0.8 s against 2.9 s on the build
/// machine), which would make set-up bimodal; they are run afterwards,
/// untimed, so the timed rounds start in the steady state.
fn threads_set_up(ranks: usize, seed: u64) -> (Distribution, Checker) {
    let dist = inputs::hotspot(ranks);
    let checker = reference_set_up(&dist, inputs::raw(), seed);
    (dist, checker)
}

fn threads_warm_up(dist: &Distribution, checker: &mut Checker, factory: &RngFactory) {
    for _ in 0..2 {
        let (_, outcome, _) = threads_round(dist, inputs::raw(), factory, WORKERS);
        checker.check("warm-up", &outcome, true);
    }
}

fn threads(result: &mut RunResult, ranks: usize, process_start: Instant) {
    let seed = result.seed;
    let factory = RngFactory::new(seed);
    let ((dist, mut checker), setups) = set_up(process_start, || threads_set_up(ranks, seed));
    threads_warm_up(&dist, &mut checker, &factory);
    let rounds = timed(result.seconds, 3, || {
        let (ms, outcome, _) = threads_round(&dist, inputs::raw(), &factory, WORKERS);
        checker.check("round", &outcome, true);
        ms
    });
    end_to_end(result, &setups, &rounds, &checker);
    absorb(result, checker);
}

fn threads_traced(result: &mut RunResult, ranks: usize) {
    let seed = result.seed;
    let factory = RngFactory::new(seed);
    let mut log = SpanLog::new();
    let (dist, mut checker) = threads_set_up(ranks, seed);
    threads_warm_up(&dist, &mut checker, &factory);
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let (mut plain_cpu_ms, mut sent) = (0.0, 0u64);
    for _ in passes(0.7 * result.seconds) {
        let cpu0 = cpu_ms();
        let (ms, outcome, messages) = threads_round(&dist, inputs::raw(), &factory, WORKERS);
        plain_cpu_ms += cpu_ms() - cpu0;
        sent += messages;
        checker.check("plain round", &outcome, true);
        plain.push(ms);
        let t = threads_round_traced(&mut log, &dist, inputs::raw(), &factory, WORKERS);
        checker.check("traced round", &t.outcome, true);
        traced.push(t);
    }
    let plain_ms = median(&plain);
    let times = traced_common(result, &plain, &traced);
    result.push(
        "parallel.handler_ms",
        times.total().ms() / traced.len() as f64,
    );

    let one_ms = median_of(2, || {
        let (ms, outcome, _) = threads_round(&dist, inputs::raw(), &factory, 1);
        checker.check("one-worker round", &outcome, true);
        ms
    });
    result.push("parallel.one_worker_round_ms", one_ms);
    result.push("parallel.handoff_ms", plain_ms - one_ms);
    // The executor's own count, control traffic included.
    let messages = sent as f64 / plain.len() as f64;
    result.push("parallel.messages", messages);
    result.push("parallel.frames_per_s", messages / (plain_ms / 1e3));
    result.push(
        "parallel.cpu_ms_per_round",
        plain_cpu_ms / plain.len() as f64,
    );
    // Interpolated whatever the sample count: a layer metric to look
    // at, not to gate on (its summary carries `n`).
    result.push_summary(
        "parallel.round_ms_p90",
        percentile(&plain, 90.0),
        summarize(&plain),
    );
    modeled(result, &checker);
    absorb(result, checker);
    result.spans = Some(log);
}

// ---- TCP driver ---------------------------------------------------------

/// How many seeds a sockets run cycles through, round by round. A
/// 4-rank round is short enough that the protocol's random choices (who
/// gossips to whom, how many transfer handshakes follow) move its time:
/// seed to seed, run medians differed by a standard deviation of 12 %,
/// against 7 % between runs of one seed. Over this many seeds derived
/// from `--seed`, a run's median is steady where one seed's is not.
const SOCKETS_SEEDS: u64 = 16;

/// One seed of a sockets run, and the checker pinned to the simulator's
/// placement for it.
struct Lane {
    seed: u64,
    checker: Checker,
}

struct SocketsInput {
    dist: Distribution,
    lanes: Vec<Lane>,
}

impl SocketsInput {
    /// One verified round on the lane whose turn it is.
    fn round(&mut self, what: &str, turn: usize) -> SocketsRound {
        let lanes = self.lanes.len();
        let lane = &mut self.lanes[turn % lanes];
        let round = sockets_round(&self.dist, inputs::sockets_stack(), lane.seed);
        lane.checker.check(what, &round.outcome, true);
        round
    }

    /// Fold every lane's verdicts into `result`.
    fn finish(self, result: &mut RunResult) {
        for lane in self.lanes {
            absorb(result, lane.checker);
        }
    }
}

fn sockets_set_up(ranks: usize, seed: u64) -> SocketsInput {
    let dist = inputs::hotspot(ranks);
    let lanes = (0..SOCKETS_SEEDS)
        .map(|k| {
            let seed = derive_seed(seed, &[k]);
            let checker = reference_set_up(&dist, inputs::sockets_stack(), seed);
            Lane { seed, checker }
        })
        .collect();
    let mut input = SocketsInput { dist, lanes };
    input.round("warm-up", 0);
    input
}

fn sockets(result: &mut RunResult, ranks: usize, process_start: Instant) {
    let seed = result.seed;
    let (mut input, setups) = set_up(process_start, || sockets_set_up(ranks, seed));
    let mut turn = 0;
    let rounds = timed(result.seconds, 3, || {
        turn += 1;
        input.round("round", turn).ms
    });
    // The exact metrics are the first lane's.
    end_to_end(result, &setups, &rounds, &input.lanes[0].checker);
    input.finish(result);
}

fn sockets_traced(result: &mut RunResult, ranks: usize) {
    let mut input = sockets_set_up(ranks, result.seed);
    let mut log = SpanLog::new();
    // The socket driver takes `LbRank` itself, so no wrapper fits inside
    // it; a traced round is a plain round plus the outside instruments
    // (CPU clock, per-rank reports).
    let (mut plain, mut instrumented, mut teardown) = (Vec::new(), Vec::new(), Vec::new());
    let (mut cpu_total, mut sent, mut resent) = (0.0, 0u64, 0u64);
    for pass in passes(0.8 * result.seconds) {
        // Both rounds of a pass run the same lane, so the seeds do not
        // read as tracing overhead.
        plain.push(input.round("plain round", pass).ms);

        let span = log.open("round", None);
        let cpu0 = cpu_ms();
        let round = input.round("instrumented round", pass);
        cpu_total += cpu_ms() - cpu0;
        log.close(span);
        instrumented.push(round.ms);
        teardown.push(round.teardown_ms);
        for r in &round.reports {
            sent += r.network.messages;
            resent += r.rank.reliable_stats().retransmitted;
        }
    }
    let n = instrumented.len() as f64;
    let base = median(&plain);
    result.push("trace.overhead_pct", overhead_pct(&instrumented, &plain));
    result.push_summary(
        "lb.socket.round_ms_p90",
        percentile(&plain, 90.0),
        summarize(&plain),
    );
    result.push("lb.socket.teardown_ms", median(&teardown));
    result.push("lb.socket.messages", sent as f64 / n);
    result.push("lb.socket.retransmitted", resent as f64 / n);
    result.push("lb.socket.frames_per_s", sent as f64 / n / (base / 1e3));
    result.push("lb.socket.cpu_ms_per_round", cpu_total / n);

    // The frames the first lane puts on the wire, captured on the
    // simulator (same ranks, same configuration) and replayed through the
    // codec.
    let first = &mut input.lanes[0];
    let t = sim_round_traced(
        &mut log,
        &input.dist,
        inputs::sockets_stack(),
        &FaultPlan::none(),
        &RngFactory::new(first.seed),
        true,
    );
    first.checker.check("corpus round", &t.outcome, true);
    codec_metrics(result, &t.corpus);
    modeled(result, &first.checker);
    input.finish(result);
    result.spans = Some(log);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, Value};

    /// A run whose rounds fail their checks says so; it does not abort on
    /// the metrics it could not compute.
    #[test]
    fn a_failed_first_round_still_reports() {
        let dist = inputs::hotspot(4);
        let mut lost = inputs::assignment_of_dist(&dist);
        lost[0].pop();
        let mut checker = Checker::new(&dist);
        let outcome = Outcome {
            assignment: lost,
            bad_ranks: 0,
            modeled: None,
        };
        checker.check("warm-up", &outcome, true);
        let mut result = RunResult::new("sim_hotspot", 1, 1.0, false);
        end_to_end(&mut result, &[0.1], &[1.0], &checker);
        absorb(&mut result, checker);
        assert!(result
            .table()
            .contains("FAILED warm-up: tasks not conserved"));
        for line in [result.contract_line(), result.to_json().to_line()] {
            let line = parse(&line).unwrap();
            assert_eq!(line.get("correct"), Some(&Value::Bool(false)));
            assert_eq!(line.get("failed").and_then(Value::as_f64), Some(4.0));
        }
    }
}
