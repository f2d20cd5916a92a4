//! Zero-latency in-process driver for [`Protocol`] actors.
//!
//! [`LocalRunner`] executes a set of ranks with no modeled network at
//! all: messages deliver instantly in FIFO order, timers fire only when
//! the message queue drains. It is the minimal driver of the
//! engine/rank/driver stack — no latency model, no fault injection,
//! no network statistics — and exists for two reasons:
//!
//! 1. **Equivalence testing.** With delivery trivially reliable and
//!    ordered, an engine run here must commit the *exact* assignment the
//!    analysis-mode driver (`tempered_core::refine`) computes; the
//!    `equivalence` integration test asserts this bit for bit. A second,
//!    differently-scheduled execution (the discrete-event
//!    [`crate::sim::Simulator`] with its latency model) agreeing too is
//!    then strong evidence the protocol is timing-independent.
//! 2. **Embedding.** Applications that want a distributed balancer's
//!    exact decisions without simulating an interconnect (e.g. unit
//!    tests of higher layers) can run one synchronously in-process.
//!
//! FIFO order is a *valid* schedule of the asynchronous protocol, not a
//! cheat: the engine's canonicalization makes any delivery order commit
//! the same result, and the simulator-based chaos tests exercise the
//! adversarial orders.

use super::engine::AsyncIterationRecord;
use super::rank::LbRank;
use super::LbProtocolConfig;
use crate::reliable::ReliableStats;
use crate::sim::{Ctx, Protocol};
use crate::wheel::TimerWheel;
use std::collections::VecDeque;
use tempered_core::distribution::Distribution;
use tempered_core::ids::RankId;
use tempered_core::rng::RngFactory;

/// In-process zero-latency executor.
pub struct LocalRunner<P: Protocol> {
    ranks: Vec<P>,
    /// FIFO of in-flight messages as `(to, from, msg)`.
    queue: VecDeque<(RankId, RankId, P::Msg)>,
    /// Pending self-timers as `(rank, msg)` by fire time; equal times
    /// fire in arm order.
    timers: TimerWheel<f64, (RankId, P::Msg)>,
    now: f64,
    /// What one handler call sent and armed; drained after every call
    /// and reused by the next, as in the other two executors.
    outbox: Vec<(RankId, P::Msg, usize)>,
    armed: Vec<(f64, P::Msg)>,
}

impl<P: Protocol> LocalRunner<P> {
    /// Create a runner over `ranks` (index = rank id).
    pub fn new(ranks: Vec<P>) -> Self {
        LocalRunner {
            ranks,
            queue: VecDeque::new(),
            // The simulator's zero-latency quantum.
            timers: TimerWheel::new(1.0 / 1e-6),
            now: 0.0,
            outbox: Vec::new(),
            armed: Vec::new(),
        }
    }

    /// Run to completion. Returns `true` if every rank reported done;
    /// `false` if the system stalled (no messages, no timers, ranks
    /// still waiting — a protocol bug or an unmasked delivery failure).
    pub fn run(&mut self) -> bool {
        for i in 0..self.ranks.len() {
            self.turn(RankId::from(i), |rank, ctx| rank.on_start(ctx));
        }
        loop {
            if let Some((to, from, msg)) = self.queue.pop_front() {
                self.turn(to, |rank, ctx| rank.on_message(ctx, from, msg));
                continue;
            }
            if self.ranks.iter().all(|r| r.is_done()) {
                return true;
            }
            // Queue drained but ranks still waiting: fire the earliest
            // timer (virtual time jumps forward; ties break by arm order).
            let Some((time, (me, msg))) = self.timers.pop() else {
                return false;
            };
            self.now = time;
            self.turn(me, |rank, ctx| rank.on_message(ctx, me, msg));
        }
    }

    /// Consume the runner, returning the rank actors.
    pub fn into_ranks(self) -> Vec<P> {
        self.ranks
    }

    /// Run one handler of rank `me`, then queue what it sent and armed.
    fn turn(&mut self, me: RankId, handler: impl FnOnce(&mut P, &mut Ctx<'_, P::Msg>)) {
        let mut ctx = Ctx::new(me, self.now, &mut self.outbox, &mut self.armed);
        handler(&mut self.ranks[me.as_usize()], &mut ctx);
        for (to, msg, _bytes) in self.outbox.drain(..) {
            self.queue.push_back((to, me, msg));
        }
        for (delay, msg) in self.armed.drain(..) {
            self.timers.push(self.now + delay, (me, msg));
        }
    }
}

/// Result of a zero-latency distributed LB pass.
#[derive(Clone, Debug)]
pub struct LocalLbResult {
    /// The resulting assignment.
    pub distribution: Distribution,
    /// Imbalance of the input (as agreed by the setup allreduce).
    pub initial_imbalance: f64,
    /// Imbalance of the committed proposal.
    pub final_imbalance: f64,
    /// Real task migrations executed at commit.
    pub tasks_migrated: usize,
    /// Per-iteration records from the first rank that finished normally.
    pub records: Vec<AsyncIterationRecord>,
    /// Ranks that abandoned the protocol (always 0 here: delivery is
    /// trivially reliable).
    pub degraded_ranks: usize,
    /// Ranks that finished parked (always 0 here: nothing splits).
    pub parked_ranks: usize,
    /// Delivery-layer counters summed over ranks (all zero unless
    /// [`LbProtocolConfig::reliability`] is set).
    pub reliable: ReliableStats,
}

/// Run the asynchronous protocol over `dist` on the zero-latency
/// in-process driver. Same protocol, same engine, no modeled network.
pub fn run_local_lb(
    dist: &Distribution,
    cfg: LbProtocolConfig,
    factory: &RngFactory,
) -> LocalLbResult {
    let mut runner = LocalRunner::new(LbRank::for_dist(dist, cfg, *factory));
    let completed = runner.run();
    assert!(
        completed,
        "the zero-latency driver cannot stall on a fault-free run"
    );
    super::collapse(dist, &runner.into_ranks(), true)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Arms `.0` on start and keeps what fires, with its time, in `.1`;
    /// timer 1 arms timer 5 one second on.
    struct Arms(Vec<(f64, u32)>, Vec<(f64, u32)>);

    impl Protocol for Arms {
        type Msg = u32;
        fn on_start(&mut self, ctx: &mut Ctx<'_, u32>) {
            for &(delay, msg) in &self.0 {
                ctx.schedule(delay, msg);
            }
        }
        fn on_message(&mut self, ctx: &mut Ctx<'_, u32>, _from: RankId, msg: u32) {
            self.1.push((ctx.now(), msg));
            if msg == 1 {
                ctx.schedule(1.0, 5);
            }
        }
    }

    #[test]
    fn timers_fire_by_time_then_arm_order() {
        let armed = vec![(2.0, 0), (1.0, 1), (2.0, 2), (1.0, 3)];
        let mut runner = LocalRunner::new(vec![Arms(armed, Vec::new())]);
        assert!(!runner.run(), "a rank that never reports done stalls");
        assert_eq!(
            runner.into_ranks()[0].1,
            [(1.0, 1), (1.0, 3), (2.0, 0), (2.0, 2), (2.0, 5)]
        );
    }

    #[test]
    fn local_runner_balances_and_is_deterministic() {
        let dist = Distribution::from_loads(vec![
            vec![1.0; 40],
            vec![],
            vec![],
            vec![],
            vec![],
            vec![],
            vec![],
            vec![],
        ]);
        let cfg = LbProtocolConfig {
            trials: 2,
            iters: 4,
            fanout: 3,
            rounds: 5,
            ..Default::default()
        };
        let a = run_local_lb(&dist, cfg, &RngFactory::new(17));
        let b = run_local_lb(&dist, cfg, &RngFactory::new(17));
        assert!(a.final_imbalance < a.initial_imbalance);
        assert_eq!(a.final_imbalance.to_bits(), b.final_imbalance.to_bits());
        assert_eq!(a.tasks_migrated, b.tasks_migrated);
        assert_eq!(a.degraded_ranks, 0);
        a.distribution.check_invariants().unwrap();
        for r in a.distribution.rank_ids() {
            assert_eq!(a.distribution.rank_load(r), b.distribution.rank_load(r));
        }
    }

    #[test]
    fn local_runner_handles_single_rank() {
        let dist = Distribution::from_loads(vec![vec![1.0, 2.0, 3.0]]);
        let out = run_local_lb(&dist, LbProtocolConfig::grapevine(), &RngFactory::new(1));
        assert_eq!(out.tasks_migrated, 0);
        assert_eq!(out.distribution.num_tasks(), 3);
    }

    #[test]
    fn local_runner_with_reliability_still_completes() {
        // Retry timers get armed but the queue never starves them into
        // firing before completion; leftover timers must not stall exit.
        let dist = Distribution::from_loads(vec![vec![4.0, 1.0], vec![], vec![], vec![]]);
        let cfg = LbProtocolConfig {
            trials: 1,
            iters: 2,
            fanout: 2,
            rounds: 3,
            ..Default::default()
        }
        .hardened(crate::reliable::RetryConfig::default());
        let out = run_local_lb(&dist, cfg, &RngFactory::new(5));
        assert_eq!(out.degraded_ranks, 0);
        assert_eq!(out.distribution.num_tasks(), 2);
    }
}
