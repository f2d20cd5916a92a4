//! Multi-threaded executor for rank protocols.
//!
//! Runs the same [`Protocol`] actors as the deterministic simulator, but
//! with real concurrency: ranks are sharded across worker threads and
//! messages flow through crossbeam channels. Delivery order between ranks
//! is whatever the OS scheduler produces — exactly the nondeterminism a
//! real AMT runtime faces — which makes this executor the stress test for
//! protocol correctness: termination detection, epoch buffering, and
//! collective completion must hold under arbitrary interleavings, not
//! just the simulator's total order.
//!
//! Fault injection ([`crate::fault::FaultPlan`]) is supported through
//! [`run_parallel_with`] with the same per-message decision logic as the
//! simulator: the n-th message on a link suffers the same drop /
//! duplication / delay fate under both executors. Delay-style faults are
//! expressed in wall-clock time here (one unit of latency factor =
//! [`PARALLEL_DELAY_UNIT`]); pause windows count wall-clock seconds from
//! run start. Protocol timers ([`Ctx::schedule`]) likewise map virtual
//! seconds one-to-one onto wall-clock seconds.
//!
//! The executor stops when every rank has reported done and the channels
//! have drained. Protocols must therefore have a genuine distributed
//! termination condition (as the LB protocol does); an actor that never
//! reports done hangs the run, which tests guard with a wall-clock bound.

use crate::emulator::{wall_arrival, LinkEmulator};
use crate::fault::{FaultPlan, FaultStats};
use crate::sim::{Ctx, Protocol};
use crate::wheel::HeldQueue;
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};
use tempered_core::ids::RankId;
use tempered_obs::NetworkStats;
use tempered_obs::Recorder;

/// Wall-clock hold-back per unit of injected latency factor: a message
/// with fate `delay_factor = f` is held for `(f − 1) ×` this duration.
/// Chosen large against crossbeam channel latency (~µs) so stragglers
/// and spikes genuinely reorder traffic, small enough that tests finish.
pub const PARALLEL_DELAY_UNIT: Duration = Duration::from_micros(100);

/// Channel endpoints for one worker.
type Endpoints<M> = (Vec<Sender<Envelope<M>>>, Vec<Receiver<Envelope<M>>>);

/// Envelope routed between workers.
struct Envelope<M> {
    to: usize,
    from: RankId,
    msg: M,
    /// Earliest delivery time (fault-injected delay); `None` = now.
    not_before: Option<Instant>,
}

/// Options for [`run_parallel_with`].
#[derive(Clone, Debug, Default)]
pub struct ParallelOptions {
    /// Faults to inject; [`FaultPlan::none`] (the default) injects
    /// nothing and leaves the executor on its unfaulted fast path.
    pub fault_plan: FaultPlan,
    /// Observability recorder. Events are stamped with monotonic
    /// wall-clock seconds since executor start, so traces from this
    /// executor are *not* reproducible across runs (unlike the
    /// simulator's virtual-time traces). Disabled by default.
    pub recorder: Recorder,
}

/// Outcome of a parallel run.
pub struct ParallelReport<P> {
    /// Final protocol states, indexed by rank.
    pub ranks: Vec<P>,
    /// Aggregated network counters.
    pub network: NetworkStats,
    /// Aggregated injected-fault counters (zero without a fault plan).
    pub faults: FaultStats,
    /// Whether every rank reported done.
    pub completed: bool,
}

/// Run `ranks` across `num_threads` workers until global completion.
///
/// Rank `r` is owned by worker `r % num_threads`. Each worker processes
/// its ranks' incoming messages; sends are routed through per-worker
/// channels. `idle_timeout` bounds how long the executor waits for
/// quiescence after all ranks report done (to drain stale control
/// messages) and, as a safety valve, how long a totally silent system is
/// allowed to hang before the run is abandoned as incomplete.
pub fn run_parallel<P>(
    ranks: Vec<P>,
    num_threads: usize,
    idle_timeout: Duration,
) -> ParallelReport<P>
where
    P: Protocol + Send,
    P::Msg: Send,
{
    run_parallel_with(ranks, num_threads, idle_timeout, ParallelOptions::default())
}

/// [`run_parallel`] with explicit options (fault injection).
pub fn run_parallel_with<P>(
    ranks: Vec<P>,
    num_threads: usize,
    idle_timeout: Duration,
    options: ParallelOptions,
) -> ParallelReport<P>
where
    P: Protocol + Send,
    P::Msg: Send,
{
    let num_ranks = ranks.len();
    let workers = num_threads.clamp(1, num_ranks.max(1));
    let done_count = AtomicUsize::new(0);
    let start = Instant::now();
    // Per-worker emulators share the plan: sends from a rank are always
    // processed by its owning worker, so per-link ordinals — and hence
    // fault decisions — match the single-injector simulator exactly.
    // Crash windows count wall-clock seconds from run start, mirroring
    // the pause-window convention.
    let plan = options.fault_plan;

    let (senders, receivers): Endpoints<P::Msg> = (0..workers).map(|_| unbounded()).unzip();

    // Shard ranks: worker w owns ranks with index % workers == w.
    let mut shards: Vec<Vec<(usize, P)>> = (0..workers).map(|_| Vec::new()).collect();
    for (i, p) in ranks.into_iter().enumerate() {
        shards[i % workers].push((i, p));
    }

    let mut results: Vec<Option<(usize, P)>> = (0..num_ranks).map(|_| None).collect();
    let mut network = NetworkStats::default();
    let mut faults = FaultStats::default();
    let mut completed = true;

    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(workers);
        for (w, shard) in shards.into_iter().enumerate() {
            let senders = senders.clone();
            let rx = receivers[w].clone();
            let done_count = &done_count;
            let emulator = LinkEmulator::new(plan.clone(), options.recorder.clone());
            handles.push(scope.spawn(move || {
                let mut worker = Worker {
                    shard,
                    senders,
                    done_count,
                    done_flags: Vec::new(),
                    stats: NetworkStats::default(),
                    emulator,
                    start,
                    held: HeldQueue::new(),
                    outbox: Vec::new(),
                };
                let ok = worker.run(rx, num_ranks, idle_timeout);
                let fstats = worker.emulator.stats();
                (worker.shard, worker.stats, fstats, ok)
            }));
        }
        // Drop our copies so channels can hang up when workers finish.
        drop(senders);
        drop(receivers);
        for h in handles {
            let (shard, stats, fstats, ok) = h.join().expect("worker panicked");
            for (i, p) in shard {
                results[i] = Some((i, p));
            }
            network.merge(&stats);
            faults.merge(&fstats);
            completed &= ok;
        }
    });

    let ranks: Vec<P> = results
        .into_iter()
        .map(|slot| slot.expect("every rank returned").1)
        .collect();
    options.recorder.with_metrics(|m| {
        m.record_network("parallel.net", &network);
        faults.record(m);
        m.gauge_max("parallel.wall_time_s", start.elapsed().as_secs_f64());
    });
    ParallelReport {
        ranks,
        network,
        faults,
        completed,
    }
}

struct Worker<'a, P: Protocol> {
    shard: Vec<(usize, P)>,
    senders: Vec<Sender<Envelope<P::Msg>>>,
    done_count: &'a AtomicUsize,
    done_flags: Vec<bool>,
    stats: NetworkStats,
    emulator: LinkEmulator,
    start: Instant,
    /// Protocol timers and delay-faulted envelopes awaiting their time.
    held: HeldQueue<(usize, RankId, P::Msg)>,
    outbox: Vec<(RankId, P::Msg, usize)>,
}

impl<P> Worker<'_, P>
where
    P: Protocol + Send,
    P::Msg: Send,
{
    fn mark_done(&mut self, slot: usize) {
        if self.shard[slot].1.is_done() && !self.done_flags[slot] {
            self.done_flags[slot] = true;
            self.done_count.fetch_add(1, Ordering::SeqCst);
        }
    }

    /// Count permanently-crashed local ranks as finished: they can never
    /// report done themselves, and waiting on them would turn every fatal
    /// crash into an idle-timeout failure.
    fn sweep_crashed(&mut self) {
        if !self.emulator.has_crashes() {
            return;
        }
        let now = self.start.elapsed().as_secs_f64();
        for slot in 0..self.shard.len() {
            let me = RankId::from(self.shard[slot].0);
            if !self.done_flags[slot] && self.emulator.down_forever(me, now) {
                self.done_flags[slot] = true;
                self.done_count.fetch_add(1, Ordering::SeqCst);
            }
        }
    }

    /// Route one envelope, applying fault fates. A send can only fail
    /// after global completion, when peer workers have exited; at that
    /// point the message is stale control traffic and dropping it is
    /// correct.
    fn flush(&mut self, from: RankId) {
        let workers = self.senders.len();
        let outbox = std::mem::take(&mut self.outbox);
        for (to, msg, bytes) in outbox {
            self.stats.record(bytes);
            let t = to.as_usize();
            // Link-level fates use wall-clock seconds since run start as
            // the window clock — the threaded analogue of the simulator's
            // virtual send time (same convention as pause windows).
            let send_now = self.start.elapsed().as_secs_f64();
            let (start, sender) = (self.start, &self.senders[t % workers]);
            self.emulator.outgoing::<P>(
                from,
                to,
                msg,
                send_now,
                wall_arrival(send_now, PARALLEL_DELAY_UNIT.as_secs_f64()),
                |msg, arrival| {
                    let _ = sender.send(Envelope {
                        to: t,
                        from,
                        msg,
                        not_before: (arrival > send_now)
                            .then(|| start + Duration::from_secs_f64(arrival)),
                    });
                },
            );
        }
    }

    fn arm_timers(&mut self, me: RankId, timers: Vec<(f64, P::Msg)>) {
        let now = Instant::now();
        for (delay, msg) in timers {
            self.held.hold(
                now + Duration::from_secs_f64(delay),
                (me.as_usize(), me, msg),
            );
        }
    }

    fn deliver(&mut self, to: usize, from: RankId, msg: P::Msg) {
        // Ranks are sharded `i % workers` in ascending order, so rank
        // `to` sits at slot `to / workers` of its owning worker.
        let slot = to / self.senders.len();
        debug_assert_eq!(self.shard[slot].0, to, "routed to owning worker");
        let me = RankId::from(to);
        // Monotonic seconds since executor start: the threaded analogue
        // of the simulator's virtual clock, used for timestamps only
        // (protocols treat `now` as opaque).
        let now = self.start.elapsed().as_secs_f64();
        // Crash-stop: deliveries (messages and timers) to a down rank are
        // discarded at arrival, mirroring the simulator's pop-time check.
        if !self.emulator.admit(from, me, now) {
            return;
        }
        let mut outbox = std::mem::take(&mut self.outbox);
        let mut ctx = Ctx::for_executor(me, now, &mut outbox);
        self.shard[slot].1.on_message(&mut ctx, from, msg);
        let timers = ctx.take_timers();
        self.outbox = outbox;
        self.flush(me);
        self.arm_timers(me, timers);
        self.mark_done(slot);
    }

    /// Route one inbound envelope: hold it if a delay fate pushed its
    /// delivery time into the future, deliver it otherwise.
    fn admit_or_hold(&mut self, env: Envelope<P::Msg>) {
        match env.not_before {
            Some(when) if when > Instant::now() => {
                self.held.hold(when, (env.to, env.from, env.msg));
            }
            _ => self.deliver(env.to, env.from, env.msg),
        }
    }

    /// Deliver every held entry whose time has come; returns how many.
    fn fire_due(&mut self) -> usize {
        let mut fired = 0;
        while let Some((to, from, msg)) = self.held.pop_due(Instant::now()) {
            self.deliver(to, from, msg);
            fired += 1;
        }
        fired
    }

    fn run(
        &mut self,
        rx: Receiver<Envelope<P::Msg>>,
        num_ranks: usize,
        idle_timeout: Duration,
    ) -> bool {
        self.done_flags = self.shard.iter().map(|_| false).collect();

        // Start local ranks.
        for slot in 0..self.shard.len() {
            let me = RankId::from(self.shard[slot].0);
            let mut outbox = std::mem::take(&mut self.outbox);
            let now = self.start.elapsed().as_secs_f64();
            let mut ctx = Ctx::for_executor(me, now, &mut outbox);
            self.shard[slot].1.on_start(&mut ctx);
            let timers = ctx.take_timers();
            self.outbox = outbox;
            self.flush(me);
            self.arm_timers(me, timers);
            self.mark_done(slot);
        }

        let mut idle = Duration::ZERO;
        let tick = Duration::from_millis(1);
        loop {
            // Wake early if a held delivery comes due before the tick.
            let wait = match self.held.next_deadline() {
                Some(when) => when.saturating_duration_since(Instant::now()).min(tick),
                None => tick,
            };
            match rx.recv_timeout(wait) {
                Ok(env) => {
                    idle = Duration::ZERO;
                    self.admit_or_hold(env);
                    // Batched drain: a blocked worker typically wakes to
                    // a mailbox full of gossip, and draining it in one
                    // sweep amortizes the wake-up over every queued
                    // envelope instead of paying it per message.
                    while let Ok(env) = rx.try_recv() {
                        self.admit_or_hold(env);
                    }
                    self.fire_due();
                }
                Err(RecvTimeoutError::Timeout) => {
                    if self.fire_due() > 0 {
                        idle = Duration::ZERO;
                        continue;
                    }
                    self.sweep_crashed();
                    if self.done_count.load(Ordering::SeqCst) == num_ranks {
                        return true;
                    }
                    idle += wait.max(Duration::from_micros(1));
                    if idle >= idle_timeout {
                        // Deadlocked or livelocked protocol: give up.
                        return false;
                    }
                }
                Err(RecvTimeoutError::Disconnected) => {
                    self.sweep_crashed();
                    return self.done_count.load(Ordering::SeqCst) == num_ranks;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lb::{LbProtocolConfig, LbRank};
    use tempered_core::distribution::Distribution;
    use tempered_core::ids::TaskId;
    use tempered_core::rng::RngFactory;

    fn concentrated(num_ranks: usize, hot: usize, tasks_per_hot: usize) -> Distribution {
        let per_rank: Vec<Vec<f64>> = (0..num_ranks)
            .map(|r| {
                if r < hot {
                    vec![1.0; tasks_per_hot]
                } else {
                    vec![]
                }
            })
            .collect();
        Distribution::from_loads(per_rank)
    }

    fn build_ranks(dist: &Distribution, cfg: LbProtocolConfig, seed: u64) -> Vec<LbRank> {
        let factory = RngFactory::new(seed);
        dist.rank_ids()
            .map(|r| {
                let tasks: Vec<(TaskId, f64)> = dist
                    .tasks_on(r)
                    .iter()
                    .map(|t| (t.id, t.load.get()))
                    .collect();
                LbRank::new(r, dist.num_ranks(), tasks, cfg, factory)
            })
            .collect()
    }

    #[test]
    fn lb_protocol_completes_under_real_concurrency() {
        let dist = concentrated(24, 2, 40);
        let cfg = LbProtocolConfig {
            trials: 2,
            iters: 3,
            fanout: 4,
            rounds: 5,
            ..Default::default()
        };
        let ranks = build_ranks(&dist, cfg, 77);
        let report = run_parallel(ranks, 4, Duration::from_secs(20));
        assert!(report.completed, "protocol must terminate under threads");
        // Task conservation across the whole system.
        let total: usize = report.ranks.iter().map(|r| r.final_tasks().len()).sum();
        assert_eq!(total, dist.num_tasks());
        // Quality: the threaded run balances comparably.
        let max_load: f64 = report
            .ranks
            .iter()
            .map(|r| r.final_tasks().iter().map(|t| t.load).sum::<f64>())
            .fold(0.0, f64::max);
        let avg = dist.total_load().get() / dist.num_ranks() as f64;
        assert!(
            max_load / avg - 1.0 < 2.0,
            "imbalance after threaded LB too high: {}",
            max_load / avg - 1.0
        );
    }

    /// A protocol that never reports done: the executor must detect the
    /// hang via the idle timeout and report `completed = false` instead
    /// of blocking forever (failure injection for the watchdog path).
    #[test]
    fn hung_protocol_trips_idle_timeout() {
        struct Hang;
        impl crate::sim::Protocol for Hang {
            type Msg = ();
            fn on_start(&mut self, _ctx: &mut crate::sim::Ctx<'_, ()>) {}
            fn on_message(&mut self, _ctx: &mut crate::sim::Ctx<'_, ()>, _from: RankId, _msg: ()) {}
            fn is_done(&self) -> bool {
                false // never
            }
        }
        let report = run_parallel(vec![Hang, Hang, Hang], 2, Duration::from_millis(50));
        assert!(!report.completed, "hang must be reported, not awaited");
        assert_eq!(report.ranks.len(), 3);
    }

    #[test]
    fn single_thread_matches_multi_thread_conservation() {
        let dist = concentrated(8, 1, 16);
        let cfg = LbProtocolConfig {
            trials: 1,
            iters: 2,
            fanout: 3,
            rounds: 4,
            ..Default::default()
        };
        for threads in [1, 2, 8] {
            let ranks = build_ranks(&dist, cfg, 5);
            let report = run_parallel(ranks, threads, Duration::from_secs(20));
            assert!(report.completed, "threads={threads}");
            let total: usize = report.ranks.iter().map(|r| r.final_tasks().len()).sum();
            assert_eq!(total, dist.num_tasks(), "threads={threads}");
        }
    }

    #[test]
    fn timers_fire_under_threads() {
        struct Timed {
            fired: bool,
        }
        impl Protocol for Timed {
            type Msg = u8;
            fn on_start(&mut self, ctx: &mut Ctx<'_, u8>) {
                ctx.schedule(0.002, 9);
            }
            fn on_message(&mut self, ctx: &mut Ctx<'_, u8>, from: RankId, msg: u8) {
                assert_eq!(from, ctx.me());
                assert_eq!(msg, 9);
                self.fired = true;
            }
            fn is_done(&self) -> bool {
                self.fired
            }
        }
        let report = run_parallel(
            vec![Timed { fired: false }, Timed { fired: false }],
            2,
            Duration::from_secs(5),
        );
        assert!(report.completed);
        assert!(report.ranks.iter().all(|r| r.fired));
    }

    #[test]
    fn fatal_crash_counts_as_finished_under_threads() {
        use crate::fault::CrashEvent;
        // Rank 1 is dead from t=0 and never reports done; the executor
        // must still complete once rank 0 is done, and the ping addressed
        // to the corpse must be discarded rather than delivered.
        struct Idle {
            me: usize,
            got: bool,
        }
        impl Protocol for Idle {
            type Msg = u8;
            fn on_start(&mut self, ctx: &mut Ctx<'_, u8>) {
                if self.me == 0 {
                    ctx.send(RankId::new(1), 1, 8);
                }
            }
            fn on_message(&mut self, _: &mut Ctx<'_, u8>, _: RankId, _: u8) {
                self.got = true;
            }
            fn is_done(&self) -> bool {
                self.me == 0
            }
        }
        let report = run_parallel_with(
            vec![Idle { me: 0, got: false }, Idle { me: 1, got: false }],
            2,
            Duration::from_secs(5),
            ParallelOptions {
                fault_plan: FaultPlan {
                    crashes: vec![CrashEvent::fatal(RankId::new(1), 0.0)],
                    ..FaultPlan::none()
                },
                ..Default::default()
            },
        );
        assert!(report.completed, "dead rank must not hang the run");
        assert!(!report.ranks[1].got, "delivery to a corpse");
        assert_eq!(report.faults.crash_dropped, 1);
    }

    #[test]
    fn full_drop_is_detected_as_incomplete() {
        // Ping-pong that cannot complete when every message is dropped.
        struct Ping {
            me: usize,
            got: bool,
        }
        impl Protocol for Ping {
            type Msg = u8;
            fn on_start(&mut self, ctx: &mut Ctx<'_, u8>) {
                if self.me == 0 {
                    ctx.send(RankId::new(1), 1, 8);
                }
            }
            fn on_message(&mut self, _: &mut Ctx<'_, u8>, _: RankId, _: u8) {
                self.got = true;
            }
            fn is_done(&self) -> bool {
                self.me == 0 || self.got
            }
        }
        let report = run_parallel_with(
            vec![Ping { me: 0, got: false }, Ping { me: 1, got: false }],
            2,
            Duration::from_millis(100),
            ParallelOptions {
                fault_plan: FaultPlan {
                    drop: 1.0,
                    ..FaultPlan::none()
                },
                ..Default::default()
            },
        );
        assert!(!report.completed);
        assert_eq!(report.faults.dropped, 1);
        assert!(!report.ranks[1].got);
    }
}
