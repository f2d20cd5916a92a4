//! One LB round on each driver, and the checks every round must pass.
//!
//! A round is one complete LB invocation through a driver's public
//! entry point. Its wall time covers the driver call only; verification
//! runs after the clock stops, because its cost is the benchmark's and
//! not the system's.

use crate::inputs::{self, Assignment};
use crate::spans::{Delivered, HandlerTimes, SpanLog, Spanned, WIRE_KINDS};
use std::net::{Ipv4Addr, SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};
use tempered_core::distribution::Distribution;
use tempered_core::ids::RankId;
use tempered_core::rng::RngFactory;
use tempered_obs::Recorder;
use tempered_runtime::lb::{
    run_local_lb, run_socket_rank, LbProtocolConfig, LbRank, LbWire, SocketConfig, SocketRankReport,
};
use tempered_runtime::parallel::{run_parallel, ParallelReport};
use tempered_runtime::sim::{NetworkModel, Protocol, Simulator};
use tempered_runtime::{
    run_distributed_lb_traced, run_distributed_lb_with_faults, DistLbResult, FaultPlan,
};

/// How long a threaded or socket round may take before it counts as hung.
const ROUND_DEADLINE: Duration = Duration::from_secs(30);

pub fn ms_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}

/// The modeled cost of a round: what must repeat bit for bit.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Modeled {
    /// `finish_time` of the simulator.
    pub virtual_s: f64,
    pub messages: u64,
    pub bytes: u64,
}

impl Modeled {
    fn same(&self, other: &Modeled) -> bool {
        self.messages == other.messages
            && self.bytes == other.bytes
            && self.virtual_s.to_bits() == other.virtual_s.to_bits()
    }
}

/// What a round produced, in the form the checks need.
pub struct Outcome {
    pub assignment: Assignment,
    /// Ranks that degraded, parked or never finished.
    pub bad_ranks: usize,
    pub modeled: Option<Modeled>,
}

impl Outcome {
    pub fn of_result(out: &DistLbResult) -> Outcome {
        Outcome {
            assignment: inputs::assignment_of_dist(&out.distribution),
            bad_ranks: if out.report.completed {
                out.degraded_ranks + out.parked_ranks
            } else {
                out.distribution.num_ranks()
            },
            modeled: Some(Modeled {
                virtual_s: out.report.finish_time,
                messages: out.report.network.messages,
                bytes: out.report.network.bytes,
            }),
        }
    }

    pub fn of_ranks<'a>(
        ranks: impl Iterator<Item = &'a LbRank> + Clone,
        modeled: Option<Modeled>,
    ) -> Outcome {
        Outcome {
            assignment: inputs::assignment_of_ranks(ranks.clone()),
            bad_ranks: ranks
                .filter(|r| r.degraded() || r.parked() || !r.finished())
                .count(),
            modeled,
        }
    }
}

/// Output verification, accumulated over the rounds of one run.
pub struct Checker {
    ranks: usize,
    /// Every input task, sorted: what each round must hand back.
    input: Vec<(u64, u64)>,
    /// The placement every exact round must reproduce: the simulator
    /// reference on threads and sockets, round 1 on the simulator.
    reference: Option<Assignment>,
    modeled: Option<Modeled>,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
}

impl Checker {
    pub fn new(dist: &Distribution) -> Checker {
        let mut input: Vec<(u64, u64)> = inputs::assignment_of_dist(dist).concat();
        input.sort_unstable();
        Checker {
            ranks: dist.num_ranks(),
            input,
            reference: None,
            modeled: None,
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
        }
    }

    /// Pin the placement and modeled cost that exact rounds must match.
    pub fn expect(&mut self, reference: &Outcome) {
        self.reference = Some(reference.assignment.clone());
        self.modeled = reference.modeled;
    }

    /// The pinned modeled cost (virtual time, messages, bytes).
    pub fn pinned(&self) -> Option<Modeled> {
        self.modeled
    }

    /// `I` of the pinned placement; `None` while nothing is pinned (the
    /// first exact round failed conservation).
    pub fn final_imbalance(&self) -> Option<f64> {
        self.reference.as_ref().and_then(inputs::imbalance_of)
    }

    /// Check one round. Every round must conserve tasks and leave no
    /// rank degraded or parked; an `exact` round must also reproduce the
    /// pinned placement and modeled cost (the first exact round pins
    /// them if nothing has yet). A round that breaks conservation or
    /// exactness fails all of its ranks.
    pub fn check(&mut self, what: &str, outcome: &Outcome, exact: bool) {
        self.attempted += self.ranks as u64;
        let mut held: Vec<(u64, u64)> = outcome.assignment.concat();
        held.sort_unstable();
        let mut fault = None;
        if held != self.input {
            fault = Some(format!(
                "tasks not conserved ({} in, {} out)",
                self.input.len(),
                held.len()
            ));
        } else if exact {
            match &self.reference {
                None => self.expect(outcome),
                Some(r) if *r != outcome.assignment => {
                    fault = Some("placement differs from the reference".to_string());
                }
                Some(_) => {}
            }
            if let (Some(a), Some(b)) = (&self.modeled, &outcome.modeled) {
                if !a.same(b) {
                    fault = Some(format!("modeled cost drifted: {a:?} then {b:?}"));
                }
            }
        }
        match fault {
            Some(why) => {
                self.failed += self.ranks as u64;
                self.errors.push(format!("{what}: {why}"));
            }
            None if outcome.bad_ranks > 0 => {
                self.failed += outcome.bad_ranks as u64;
                self.errors.push(format!(
                    "{what}: {} rank(s) degraded, parked or unfinished",
                    outcome.bad_ranks
                ));
            }
            None => {}
        }
    }
}

// ---- simulator ----------------------------------------------------------

/// One round on the discrete-event simulator through its public entry
/// point (`run_distributed_lb` is this call with `FaultPlan::none()`).
pub fn sim_round(
    dist: &Distribution,
    cfg: LbProtocolConfig,
    plan: &FaultPlan,
    factory: &RngFactory,
) -> (f64, DistLbResult) {
    let t0 = Instant::now();
    let out =
        run_distributed_lb_with_faults(dist, cfg, NetworkModel::default(), factory, plan.clone());
    (ms_since(t0), out)
}

/// [`sim_round`] with the observability recorder switched on.
pub fn sim_round_observed(
    dist: &Distribution,
    cfg: LbProtocolConfig,
    plan: &FaultPlan,
    factory: &RngFactory,
) -> (f64, DistLbResult, u64) {
    let recorder = Recorder::enabled(dist.num_ranks());
    let t0 = Instant::now();
    let out = run_distributed_lb_traced(
        dist,
        cfg,
        NetworkModel::default(),
        factory,
        plan.clone(),
        recorder.clone(),
    );
    let ms = ms_since(t0);
    let trace = recorder.snapshot();
    (ms, out, trace.events.len() as u64 + trace.dropped_events)
}

/// The same round on the zero-latency in-process driver: engine, rank
/// and kernels with no modeled network and no event queue.
pub fn local_round(
    dist: &Distribution,
    cfg: LbProtocolConfig,
    factory: &RngFactory,
) -> (f64, Outcome) {
    let t0 = Instant::now();
    let out = run_local_lb(dist, cfg, factory);
    let ms = ms_since(t0);
    let outcome = Outcome {
        assignment: inputs::assignment_of_dist(&out.distribution),
        bad_ranks: out.degraded_ranks,
        modeled: None,
    };
    (ms, outcome)
}

/// What a traced round adds to a plain one.
pub struct Traced {
    pub ms: f64,
    pub outcome: Outcome,
    pub times: HandlerTimes,
    /// Self time of the round span: the driver loop, queue and rank
    /// construction — everything that is not a handler.
    pub self_ms: f64,
    pub events: u64,
    pub corpus: Vec<Delivered>,
}

fn wrap(ranks: Vec<LbRank>, capture: bool) -> Vec<Spanned<LbRank>> {
    ranks
        .into_iter()
        .map(|r| Spanned::new(r, capture))
        .collect()
}

/// Close a traced round: fold the per-rank handler times into child
/// spans of `round` and collect the corpus in delivery order.
fn finish_traced(
    log: &mut SpanLog,
    round: usize,
    ranks: Vec<Spanned<LbRank>>,
    modeled: Option<Modeled>,
    events: u64,
) -> Traced {
    let ms = log.close(round);
    let outcome = Outcome::of_ranks(ranks.iter().map(|s| &s.inner), modeled);
    let mut times = HandlerTimes::default();
    let mut corpus = Vec::new();
    for mut r in ranks {
        times.merge(&r.times);
        corpus.append(r.corpus.get_or_insert_with(Vec::new));
    }
    // Stable, so frames delivered at one instant stay in rank order.
    corpus.sort_by(|a, b| a.2.total_cmp(&b.2));
    for (kind, acc) in WIRE_KINDS.iter().zip(times.wire) {
        if acc.n > 0 {
            log.aggregate(&format!("lb.rank.{kind}"), round, acc.ns, acc.n);
        }
    }
    let self_ms = log.self_ns(round) as f64 / 1e6;
    Traced {
        ms,
        outcome,
        times,
        self_ms,
        events,
        corpus,
    }
}

/// A simulator round with every rank wrapped in [`Spanned`]. The
/// wrapper needs the ranks in hand, so this builds them and drives
/// `Simulator` directly — the same steps `run_distributed_lb` takes.
pub fn sim_round_traced(
    log: &mut SpanLog,
    dist: &Distribution,
    cfg: LbProtocolConfig,
    plan: &FaultPlan,
    factory: &RngFactory,
    capture: bool,
) -> Traced {
    let round = log.open("round", None);
    let ranks = wrap(inputs::build_ranks(dist, cfg, factory), capture);
    let mut sim = Simulator::new(ranks, NetworkModel::default(), factory);
    sim.set_fault_plan(plan.clone());
    let report = sim.run();
    let ranks = sim.into_ranks();
    let modeled = Modeled {
        virtual_s: report.finish_time,
        messages: report.network.messages,
        bytes: report.network.bytes,
    };
    let mut traced = finish_traced(log, round, ranks, Some(modeled), report.events_delivered);
    if !report.completed {
        traced.outcome.bad_ranks = dist.num_ranks();
    }
    traced
}

// ---- threaded executor --------------------------------------------------

fn threads_run<P>(ranks: Vec<P>, workers: usize) -> (f64, ParallelReport<P>)
where
    P: Protocol<Msg = LbWire> + Send,
{
    let t0 = Instant::now();
    let report = run_parallel(ranks, workers, ROUND_DEADLINE);
    (ms_since(t0), report)
}

/// One round on the threaded executor with `workers` worker threads;
/// also returns the messages the executor itself counted. That count is
/// not held to the simulator's: termination detection sends control
/// traffic whose volume depends on how the threads interleave. The
/// placement is.
pub fn threads_round(
    dist: &Distribution,
    cfg: LbProtocolConfig,
    factory: &RngFactory,
    workers: usize,
) -> (f64, Outcome, u64) {
    let (ms, report) = threads_run(inputs::build_ranks(dist, cfg, factory), workers);
    let mut outcome = Outcome::of_ranks(report.ranks.iter(), None);
    if !report.completed {
        outcome.bad_ranks = dist.num_ranks();
    }
    (ms, outcome, report.network.messages)
}

/// [`threads_round`] with every rank wrapped in [`Spanned`].
pub fn threads_round_traced(
    log: &mut SpanLog,
    dist: &Distribution,
    cfg: LbProtocolConfig,
    factory: &RngFactory,
    workers: usize,
) -> Traced {
    // As in the plain round, the clock starts at the driver call.
    let ranks = wrap(inputs::build_ranks(dist, cfg, factory), false);
    let round = log.open("round", None);
    let (_, report) = threads_run(ranks, workers);
    let mut traced = finish_traced(log, round, report.ranks, None, 0);
    if !report.completed {
        traced.outcome.bad_ranks = dist.num_ranks();
    }
    traced
}

// ---- TCP driver ---------------------------------------------------------

pub struct SocketsRound {
    /// Driver call to the last rank reporting Done.
    pub ms: f64,
    /// Raising `stop` to the last rank thread joined.
    pub teardown_ms: f64,
    pub outcome: Outcome,
    pub reports: Vec<SocketRankReport>,
}

/// One round over loopback TCP: one `run_socket_rank` thread per rank,
/// each with its own listener on an ephemeral port.
pub fn sockets_round(dist: &Distribution, cfg: LbProtocolConfig, seed: u64) -> SocketsRound {
    let factory = RngFactory::new(seed);
    let num_ranks = dist.num_ranks();
    let t0 = Instant::now();
    let listeners: Vec<TcpListener> = (0..num_ranks)
        .map(|_| TcpListener::bind((Ipv4Addr::LOCALHOST, 0)).expect("bind a loopback listener"))
        .collect();
    let peers: Vec<SocketAddr> = listeners
        .iter()
        .map(|l| l.local_addr().expect("listener address"))
        .collect();
    let stop = Arc::new(AtomicBool::new(false));
    let (done_tx, done_rx) = mpsc::channel::<()>();
    let ranks = inputs::build_ranks(dist, cfg, &factory);
    let mut ms = f64::NAN;
    let mut all_done = true;
    let mut torn_down = Instant::now();
    let mut reports = Vec::with_capacity(num_ranks);
    std::thread::scope(|scope| {
        let handles: Vec<_> = ranks
            .into_iter()
            .zip(listeners)
            .enumerate()
            .map(|(r, (rank, listener))| {
                let (peers, stop, done_tx) = (peers.clone(), Arc::clone(&stop), done_tx.clone());
                let socket_cfg = SocketConfig {
                    seed,
                    deadline: ROUND_DEADLINE,
                    ..SocketConfig::default()
                };
                scope.spawn(move || {
                    run_socket_rank(
                        RankId::from(r),
                        rank,
                        listener,
                        peers,
                        socket_cfg,
                        stop,
                        move || {
                            let _ = done_tx.send(());
                        },
                    )
                })
            })
            .collect();
        for _ in 0..num_ranks {
            all_done &= done_rx.recv_timeout(ROUND_DEADLINE).is_ok();
        }
        ms = ms_since(t0);
        torn_down = Instant::now();
        stop.store(true, Ordering::SeqCst);
        for h in handles {
            reports.push(h.join().expect("socket rank thread panicked"));
        }
    });
    let teardown_ms = ms_since(torn_down);
    let mut outcome = Outcome::of_ranks(reports.iter().map(|r| &r.rank), None);
    if !all_done {
        outcome.bad_ranks = num_ranks;
    }
    SocketsRound {
        ms,
        teardown_ms,
        outcome,
        reports,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(assignment: Assignment, bad_ranks: usize) -> Outcome {
        Outcome {
            assignment,
            bad_ranks,
            modeled: Some(Modeled {
                virtual_s: 1.5,
                messages: 10,
                bytes: 100,
            }),
        }
    }

    #[test]
    fn checker_counts_failed_ranks_against_attempts() {
        let dist = Distribution::from_loads(vec![vec![1.0, 2.0], vec![], vec![4.0]]);
        let good = inputs::assignment_of_dist(&dist);
        let mut c = Checker::new(&dist);
        c.check("r1", &outcome(good.clone(), 0), true);
        c.check("r2", &outcome(good.clone(), 0), true);
        assert_eq!((c.attempted, c.failed), (6, 0));

        // One degraded rank fails one rank.
        c.check("r3", &outcome(good.clone(), 1), true);
        assert_eq!((c.attempted, c.failed), (9, 1));

        // A lost task fails the whole round.
        let mut lost = good.clone();
        lost[0].pop();
        c.check("r4", &outcome(lost, 0), false);
        assert_eq!((c.attempted, c.failed), (12, 4));

        // A conserving but different placement fails exact rounds only.
        let mut moved = good.clone();
        let t = moved[0].pop().unwrap();
        moved[1].push(t);
        c.check("r5", &outcome(moved.clone(), 0), false);
        assert_eq!((c.attempted, c.failed), (15, 4));
        c.check("r6", &outcome(moved, 0), true);
        assert_eq!((c.attempted, c.failed), (18, 7));

        // Modeled-cost drift fails the whole round.
        let mut drift = outcome(good, 0);
        drift.modeled.as_mut().unwrap().messages += 1;
        c.check("r7", &drift, true);
        assert_eq!((c.attempted, c.failed), (21, 10));
        assert_eq!(c.errors.len(), 4);
    }

    #[test]
    fn drivers_agree_on_a_small_input() {
        let dist = inputs::hotspot(16);
        let factory = RngFactory::new(7);
        let (_, reference) = sim_round(&dist, inputs::raw(), &FaultPlan::none(), &factory);
        let mut c = Checker::new(&dist);
        c.expect(&Outcome::of_result(&reference));
        let mut log = SpanLog::new();
        let traced = sim_round_traced(
            &mut log,
            &dist,
            inputs::raw(),
            &FaultPlan::none(),
            &factory,
            false,
        );
        c.check("traced", &traced.outcome, true);
        let (_, threaded, _) = threads_round(&dist, inputs::raw(), &factory, 2);
        c.check("threads", &threaded, true);
        let (_, local) = local_round(&dist, inputs::raw(), &factory);
        c.check("local", &local, false);
        assert_eq!(c.failed, 0, "{:?}", c.errors);
        assert_eq!(c.final_imbalance(), Some(reference.final_imbalance));
        // One thread ran every handler, so they fit inside the round.
        assert!(traced.times.total().ms() <= traced.ms);
    }
}
