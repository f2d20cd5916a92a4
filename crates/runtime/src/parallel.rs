//! Multi-threaded executor for rank protocols.
//!
//! Runs the same [`Protocol`] actors as the deterministic simulator, but
//! with real concurrency: ranks are dealt to worker threads in blocks of
//! consecutive ids, round-robin. A message between two ranks of one
//! worker stays on that worker (its host's local queue); one for another
//! worker goes down that worker's `std::sync::mpsc` channel, which the
//! worker polls briefly before it parks (see `crate::host`: a wake-up
//! costs more than a handler). Blocks keep most hops of the
//! termination-detection ring `r → r + 1` on one worker; dealing them
//! round-robin spreads a run's low-numbered hot ranks over every worker.
//! Delivery order between ranks is whatever the OS scheduler produces —
//! exactly the nondeterminism a real AMT runtime faces — which makes this
//! executor the stress test for protocol correctness: termination
//! detection, epoch buffering, and collective completion must hold under
//! arbitrary interleavings, not just the simulator's total order.
//!
//! Fault injection ([`crate::fault::FaultPlan`]) is supported through
//! [`run_parallel_with`] with the same per-message decision logic as the
//! simulator: the n-th message on a link suffers the same drop /
//! duplication / delay fate under both executors. Delay-style faults are
//! expressed in wall-clock time here (one unit of latency factor =
//! [`PARALLEL_DELAY_UNIT`]); pause windows count wall-clock seconds from
//! run start. Protocol timers ([`crate::sim::Ctx::schedule`]) likewise map virtual
//! seconds one-to-one onto wall-clock seconds.
//!
//! The executor stops when every rank has reported done and the channels
//! have drained. Protocols must therefore have a genuine distributed
//! termination condition (as the LB protocol does); an actor that never
//! reports done hangs the run, which tests guard with a wall-clock bound.

use crate::fault::{FaultPlan, FaultStats};
use crate::host::{Channel, Host, IdleStats, Inbound, Layout};
use crate::sim::Protocol;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::time::{Duration, Instant};
use tempered_core::ids::RankId;
use tempered_obs::NetworkStats;
use tempered_obs::Recorder;

/// Wall-clock hold-back per unit of injected latency factor: a message
/// with fate `delay_factor = f` is held for `(f − 1) ×` this duration.
/// Chosen large against in-memory channel latency (~µs) so stragglers
/// and spikes genuinely reorder traffic, small enough that tests finish.
pub const PARALLEL_DELAY_UNIT: Duration = Duration::from_micros(100);

/// Consecutive ranks a worker takes at a time: large enough that nearly
/// every hop of the termination-detection ring `r → r + 1` stays on one
/// worker, small enough that a run's first ranks — where the benchmark's
/// hot ranks sit — reach every worker. A 1 024-rank, two-worker hotspot
/// round on a two-core machine measured flat from 16 to 64, slower at
/// 256 (all 128 hot ranks on one worker) and slowest at 1.
const BLOCK: usize = 64;

/// The layout of `num_ranks` ranks over at most `num_threads` workers:
/// blocks of [`BLOCK`] ranks (fewer when the ranks would not reach every
/// worker), one worker per block round-robin. Workers no block reaches
/// are left out.
fn layout(num_ranks: usize, num_threads: usize) -> Layout {
    let threads = num_threads.max(1);
    let block = BLOCK.min(num_ranks.div_ceil(threads)).max(1);
    Layout {
        block,
        hosts: num_ranks.div_ceil(block).min(threads),
    }
}

/// Channel endpoints, one pair per worker.
type Endpoints<M> = (Vec<Sender<Inbound<M>>>, Vec<Receiver<Inbound<M>>>);

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
/// Rank `r` is owned by worker `(r / B) % num_threads` for a block size
/// `B` of at most 64 ranks. Each worker processes its ranks' incoming
/// messages; a send to a rank of the same worker is delivered there, any
/// other through the owning worker's channel. `idle_timeout` bounds how
/// long the executor waits for quiescence after all ranks report done
/// (to drain stale control messages) and, as a safety valve, how long a
/// totally silent system is allowed to hang before the run is abandoned
/// as incomplete.
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
    let layout = layout(num_ranks, num_threads);
    let done_count = AtomicUsize::new(0);
    let start = Instant::now();

    let (senders, receivers): Endpoints<P::Msg> = (0..layout.hosts).map(|_| channel()).unzip();

    // Ascending order puts each rank at its slot.
    let mut shards: Vec<Vec<(usize, P)>> = (0..layout.hosts).map(|_| Vec::new()).collect();
    for (i, p) in ranks.into_iter().enumerate() {
        shards[layout.host(i)].push((i, p));
    }

    let mut results: Vec<Option<P>> = (0..num_ranks).map(|_| None).collect();
    let mut network = NetworkStats::default();
    let mut faults = FaultStats::default();
    let mut idle = IdleStats::default();
    let mut completed = true;

    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(layout.hosts);
        for (shard, inbox) in shards.into_iter().zip(receivers) {
            let senders = senders.clone();
            let done_count = &done_count;
            let mut host = Host::new(
                shard,
                layout,
                start,
                options.fault_plan.clone(),
                options.recorder.clone(),
            );
            handles.push(scope.spawn(move || {
                let mut ok = false;
                let mut channel = Channel {
                    inbox: &inbox,
                    // A send can only fail after global completion, when
                    // peer workers have exited; at that point the message
                    // is stale control traffic and dropping it is correct.
                    egress: |from, to: RankId, msg| {
                        let _ = senders[layout.host(to.as_usize())].send((from, to, msg));
                    },
                };
                host.run(
                    &mut channel,
                    // Stop once every rank has reported done and this
                    // worker has gone a tick without traffic, or give up
                    // on a deadlocked or livelocked protocol.
                    |host, idle| {
                        if idle.is_zero() {
                            return false;
                        }
                        done_count.fetch_add(host.newly_done(), Ordering::SeqCst);
                        ok = done_count.load(Ordering::SeqCst) == num_ranks;
                        ok || idle >= idle_timeout
                    },
                );
                (host.finish(), ok)
            }));
        }
        for h in handles {
            let ((shard, stats, fstats, istats), ok) = h.join().expect("worker panicked");
            for (i, p) in shard {
                results[i] = Some(p);
            }
            network.merge(&stats);
            faults.merge(&fstats);
            idle.merge(&istats);
            completed &= ok;
        }
    });

    let ranks: Vec<P> = results
        .into_iter()
        .map(|slot| slot.expect("every rank returned"))
        .collect();
    options.recorder.with_metrics(|m| {
        m.record_network("parallel.net", &network);
        m.counter_add("parallel.spins", idle.spins);
        m.counter_add("parallel.spin_hits", idle.spin_hits);
        m.counter_add("parallel.parks", idle.parks);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lb::{LbProtocolConfig, LbRank};
    use crate::sim::Ctx;
    use tempered_core::distribution::Distribution;
    use tempered_core::ids::RankId;
    use tempered_core::rng::RngFactory;

    fn lb_config() -> LbProtocolConfig {
        LbProtocolConfig::quick()
    }

    #[test]
    fn blocks_keep_the_ring_on_a_worker_and_spread_the_first_ranks() {
        for p in 1..5_000 {
            for w in 1..=8 {
                let l = layout(p, w);
                let b = l.block;
                assert_eq!(b, BLOCK.min(p.div_ceil(w)), "P={p} W={w}");
                assert!(l.hosts >= 1 && l.hosts <= w, "P={p} W={w}");
                // Each worker's slots are 0.. in ascending rank order,
                // and every worker holds at least one rank. With more than
                // one worker, a lap of the ring changes worker at every
                // block boundary and nowhere else (the wrap back to rank 0
                // may land on the worker it left).
                let mut next = vec![0; l.hosts];
                for r in 0..p {
                    let host = l.host(r);
                    assert_eq!(l.slot(r), next[host], "P={p} W={w} r={r}");
                    next[host] += 1;
                    if l.hosts > 1 && r + 1 < p {
                        let changes = host != l.host(r + 1);
                        assert_eq!(changes, (r + 1) % b == 0, "P={p} W={w} r={r}");
                    }
                }
                assert!(next.iter().all(|&n| n > 0), "P={p} W={w}: {next:?}");
                // The first eighth, where the benchmark's hot ranks sit,
                // reaches every worker once it spans a block per worker.
                if p / 8 >= w * b {
                    let mut reached = vec![false; w];
                    for r in 0..p / 8 {
                        reached[l.host(r)] = true;
                    }
                    assert!(reached.iter().all(|&x| x), "P={p} W={w}");
                }
            }
        }
        // The benchmark's shape: 1 024 ranks on two workers, the hot ones
        // at 0..127. One ring hop in 64 crosses, and the hot ranks split.
        let l = layout(1024, 2);
        let crossings = (0..1024).filter(|&r| l.host(r) != l.host((r + 1) % 1024));
        assert_eq!(crossings.count(), 16);
        assert_eq!((0..128).filter(|&r| l.host(r) == 0).count(), 64);
    }

    #[test]
    fn lb_protocol_completes_under_real_concurrency() {
        let dist = Distribution::concentrated(24, 2, 40);
        let ranks = LbRank::for_dist(&dist, lb_config(), RngFactory::new(77));
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

    /// Hand-off between workers must cost less than the work it spreads.
    /// A host that parked the instant its inbox ran dry blocked once per
    /// two or three messages and paid the kernel a wake-up for each; two
    /// workers then took three to eighteen times as long as one. With
    /// the spin, and a worker's own traffic kept off the channel, two
    /// workers take 0.85–1.19× as long as one here (twenty release runs
    /// on a shared two-core machine; 1.09–1.61× before the local queue),
    /// so the 3× bound only catches a return of the hand-off cost.
    #[test]
    fn a_second_worker_costs_less_than_the_work_it_takes() {
        let dist = Distribution::concentrated(256, 32, 40);
        // One run: how long it took, and how often its workers blocked
        // per message sent.
        let timed = |threads: usize| {
            let ranks = LbRank::for_dist(&dist, lb_config(), RngFactory::new(77));
            let recorder = Recorder::enabled(dist.num_ranks());
            let options = ParallelOptions {
                recorder: recorder.clone(),
                ..Default::default()
            };
            let began = Instant::now();
            let report = run_parallel_with(ranks, threads, Duration::from_secs(60), options);
            let took = began.elapsed();
            assert!(report.completed, "threads={threads}");
            let total: usize = report.ranks.iter().map(|r| r.final_tasks().len()).sum();
            assert_eq!(total, dist.num_tasks(), "threads={threads}");
            let mut parks = 0;
            recorder.with_metrics(|m| parks = m.counter("parallel.parks"));
            (took, parks as f64 / report.network.messages as f64)
        };
        // Best of five each, taken alternately so that a noisy stretch
        // of the machine falls on both sides.
        let (mut one_worker, mut two_workers) = (Duration::MAX, Duration::MAX);
        let mut parks_per_message = f64::MAX;
        for _ in 0..5 {
            one_worker = one_worker.min(timed(1).0);
            let (took, parks) = timed(2);
            two_workers = two_workers.min(took);
            parks_per_message = parks_per_message.min(parks);
        }
        assert!(
            parks_per_message < 0.05,
            "two workers blocked {parks_per_message:.3} times a message"
        );
        // Debug handlers are slow enough to hide hand-off, and one core
        // has no second worker to hand off to.
        let cores = std::thread::available_parallelism().map_or(1, usize::from);
        if cfg!(debug_assertions) || cores < 2 {
            return;
        }
        assert!(
            two_workers <= 3 * one_worker,
            "two workers took {two_workers:?}, one took {one_worker:?} ({cores} cores)"
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
        let dist = Distribution::concentrated(8, 1, 16);
        let cfg = LbProtocolConfig {
            trials: 1,
            iters: 2,
            fanout: 3,
            rounds: 4,
            ..Default::default()
        };
        for threads in [1, 2, 8] {
            let ranks = LbRank::for_dist(&dist, cfg, RngFactory::new(5));
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
