//! The paper's claim for TemperedLB is that it is fully distributed: no
//! rank holds state proportional to the job. Building a rank's protocol
//! actor — engine, termination detector, membership view, reliable
//! transport — must therefore allocate the same number of bytes in a
//! 256-rank job and in a million-rank one. A list of the job's ranks
//! anywhere in there — 4 B × P — fails this.
//!
//! What a rank does hold grows with the peers it actually meets, so that
//! growth is pinned too: the reliable channel's ledgers cost under 32
//! bytes per peer in each direction.
//!
//! And a whole simulated round holds what is in flight, not its history:
//! the heap high-water mark of a hardened 256-rank round is pinned, so
//! an event queue that keeps every burst's capacity, or a timer per
//! stage per rank, shows up as a failure here.
//!
//! Every byte of that peak has an owner: the simulator's heap census
//! (`tempered_runtime::census`) must account for nine tenths of what the
//! counting allocator saw, and the owners that grow with gossip —
//! knowledge sets and payloads in flight — are held to a budget, as are
//! the delivery ledgers and the scratch buffers.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::OnceLock;
use tempered_core::distribution::Distribution;
use tempered_core::ids::{RankId, TaskId};
use tempered_core::rng::RngFactory;
use tempered_obs::{MetricsRegistry, Recorder};
use tempered_runtime::census::Owner;
use tempered_runtime::lb::{run_distributed_lb, LbProtocolConfig, LbRank};
use tempered_runtime::reliable::{Payload, ReliableChannel, RetryConfig};
use tempered_runtime::{run_distributed_lb_traced, FaultPlan, NetworkModel};

thread_local! {
    /// Bytes this thread has requested from the allocator. Per thread, so
    /// the test harness's own threads cannot disturb the count.
    static REQUESTED: Cell<usize> = const { Cell::new(0) };
    /// Bytes this thread has handed back.
    static FREED: Cell<usize> = const { Cell::new(0) };
    /// The most [`live`] has been since it was last reset.
    static PEAK: Cell<isize> = const { Cell::new(0) };
}

/// Bytes this thread holds on the heap, relative to an arbitrary origin.
fn live() -> isize {
    REQUESTED.with(Cell::get) as isize - FREED.with(Cell::get) as isize
}

/// The system allocator, counting the bytes each thread asks for and
/// frees.
struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the only addition is thread-local
// counters with no destructor, which never allocate or unwind.
// `realloc` is the trait's default, built on `alloc` and `dealloc`.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        REQUESTED.with(|b| b.set(b.get() + layout.size()));
        PEAK.with(|p| p.set(p.get().max(live())));
        // SAFETY: the caller's obligations are passed through as-is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        FREED.with(|b| b.set(b.get() + layout.size()));
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Bytes allocated by constructing one hardened rank of a `num_ranks` job.
fn bytes_to_build_a_rank(num_ranks: usize) -> usize {
    let cfg = LbProtocolConfig::default().hardened(RetryConfig::default());
    let tasks: Vec<(TaskId, f64)> = (0..8u64).map(|i| (TaskId::from(i), 1.0)).collect();
    let before = REQUESTED.with(Cell::get);
    let rank = LbRank::new(RankId::new(3), num_ranks, tasks, cfg, RngFactory::new(7));
    let bytes = REQUESTED.with(Cell::get) - before;
    drop(rank);
    bytes
}

#[test]
fn building_a_rank_allocates_the_same_in_a_small_job_and_a_huge_one() {
    let small = bytes_to_build_a_rank(256);
    let huge = bytes_to_build_a_rank(1 << 20);
    assert_eq!(
        small, huge,
        "per-rank state grew with the job: {small} B at 256 ranks, {huge} B at 2^20"
    );
}

/// A control-traffic payload: its ledger lives as long as the channel.
#[derive(Clone)]
struct Control;

impl Payload for Control {
    fn basic_epoch(&self) -> Option<u64> {
        None
    }
}

#[test]
fn a_reliable_channel_holds_a_few_dozen_bytes_per_peer_it_meets() {
    // One frame each way with each of 1 000 peers, every frame in order
    // and acknowledged: the steady state of a fault-free run.
    const PEERS: u32 = 1000;
    // Slot arrays at most 3/4 full: 1 000 peers take 2 048 slots of 12
    // bytes out and 8 bytes in.
    const BUDGET: isize = 32;
    let peer = |i: u32| RankId::new(i * 7 + 1);
    let start = live();
    let mut ch: ReliableChannel<Control> = ReliableChannel::new(RetryConfig::default());
    for i in 0..PEERS {
        let (seq, _) = ch.send(peer(i), Control);
        ch.on_ack(peer(i), seq);
    }
    let outbound = live() - start;
    for i in 0..PEERS {
        assert!(ch.accept(peer(i), 1));
    }
    let inbound = live() - start - outbound;
    assert_eq!(ch.pending_count(), 0);
    let per_peer = |bytes: isize| bytes / PEERS as isize;
    assert!(
        per_peer(outbound) <= BUDGET && per_peer(inbound) <= BUDGET,
        "{} B per destination and {} B per source, budget {BUDGET} B each",
        per_peer(outbound),
        per_peer(inbound)
    );
}

/// The benchmark's hotspot: an eighth of the ranks hold 40 unit tasks.
fn hotspot(ranks: usize) -> Distribution {
    Distribution::from_loads((0..ranks).map(|r| {
        if r < ranks / 8 {
            vec![1.0; 40]
        } else {
            Vec::new()
        }
    }))
}

/// The benchmark's hardened protocol configuration.
fn hardened() -> LbProtocolConfig {
    LbProtocolConfig {
        trials: 2,
        iters: 3,
        fanout: 4,
        rounds: 5,
        ..LbProtocolConfig::default()
    }
    .hardened(RetryConfig::generous())
}

#[test]
fn a_hardened_256_rank_round_peaks_at_a_few_megabytes_of_heap() {
    const RANKS: usize = 256;
    const BUDGET: isize = 6 << 20;
    let dist = hotspot(RANKS);
    let cfg = hardened();
    let start = live();
    PEAK.with(|p| p.set(start));
    let out = run_distributed_lb(&dist, cfg, NetworkModel::default(), &RngFactory::new(4242));
    let peak = PEAK.with(Cell::get) - start;
    assert!(out.final_imbalance < out.initial_imbalance);
    assert!(
        peak <= BUDGET,
        "a {RANKS}-rank round peaked at {peak} B of live heap, budget {BUDGET} B"
    );
}

/// One observed hardened hotspot round at `ranks`: the counting
/// allocator's heap peak over the run, and the run's metrics with the
/// simulator's census gauges. The recorder is built inside the measured
/// window, since the census counts its storage.
fn observed_round(ranks: usize) -> (usize, MetricsRegistry) {
    let dist = hotspot(ranks);
    let start = live();
    PEAK.with(|p| p.set(start));
    let recorder = Recorder::with_capacity(ranks, 1);
    let out = run_distributed_lb_traced(
        &dist,
        hardened(),
        NetworkModel::default(),
        &RngFactory::new(4242),
        FaultPlan::none(),
        recorder.clone(),
    );
    let peak = (PEAK.with(Cell::get) - start) as usize;
    assert!(out.final_imbalance < out.initial_imbalance);
    (peak, recorder.snapshot().metrics)
}

/// The 2 048-rank observed round, run once for every test that reads it.
fn round_2048() -> &'static (usize, MetricsRegistry) {
    static ROUND: OnceLock<(usize, MetricsRegistry)> = OnceLock::new();
    ROUND.get_or_init(|| observed_round(2048))
}

fn gauge(m: &MetricsRegistry, name: &str) -> usize {
    m.gauge(name).unwrap_or_else(|| panic!("no gauge {name}")) as usize
}

/// The census at its peak sample, one owner a line.
fn peak_table(m: &MetricsRegistry) -> String {
    Owner::ALL
        .iter()
        .map(|o| {
            let name = o.name();
            format!(
                "{name:>16} {:>12}\n",
                gauge(m, &format!("mem.peak.{name}_bytes"))
            )
        })
        .collect()
}

#[test]
fn the_census_owns_nine_tenths_of_the_heap_peak() {
    let small = observed_round(256);
    for (ranks, (peak, metrics)) in [(256, &small), (2048, round_2048())] {
        let owned = gauge(metrics, "mem.peak.total_bytes");
        assert!(
            owned * 10 >= peak * 9,
            "{ranks} ranks: the census owns {owned} B of a {peak} B peak\n{}",
            peak_table(metrics)
        );
        assert!(
            owned <= *peak,
            "{ranks} ranks: {owned} B owned, {peak} B peak"
        );
    }
}

#[test]
fn the_end_of_a_run_holds_the_wheel_of_what_was_in_flight() {
    // 256 near-slot headers (24 B) with 17 600 entries of capacity
    // (80 B), and one stage watchdog a rank at the far level (88 B).
    let (_, metrics) = round_2048();
    assert_eq!(
        gauge(metrics, "mem.end.wheel_slots_bytes"),
        256 * 24 + 17_600 * 80
    );
    assert_eq!(gauge(metrics, "mem.end.wheel_far_bytes"), 2048 * 88);
}

#[test]
fn gossip_knowledge_and_payloads_stay_within_budget_at_the_peak() {
    // At most 1.25 times what the round measures, so a rank that keeps
    // a gossip set nobody reads shows up here.
    const KNOWLEDGE: usize = 14_500_000;
    const PAYLOADS: usize = 9_000_000;
    let (_, metrics) = round_2048();
    let knowledge = gauge(metrics, "mem.peak.knowledge_bytes");
    let payloads = gauge(metrics, "mem.peak.payloads_bytes");
    assert!(
        knowledge <= KNOWLEDGE && payloads <= PAYLOADS,
        "knowledge {knowledge} B (budget {KNOWLEDGE}), payloads {payloads} B \
         (budget {PAYLOADS})\n{}",
        peak_table(metrics)
    );
}

#[test]
fn delivery_ledgers_and_scratch_stay_within_budget_at_the_peak() {
    // At most 1.25 times what the round measures (1 068 480 B of ledgers
    // at the peak, 327 808 B at the end), so a wider ledger slot, a
    // ledger that outlives its epoch or a command buffer per rank shows
    // up here.
    const LEDGERS: usize = 1_340_000;
    const LEDGERS_AT_END: usize = 410_000;
    const SCRATCH: usize = 500_000;
    let (_, metrics) = round_2048();
    let ledgers = gauge(metrics, "mem.peak.reliable_out_bytes")
        + gauge(metrics, "mem.peak.reliable_seen_bytes");
    let at_end = gauge(metrics, "mem.end.reliable_out_bytes")
        + gauge(metrics, "mem.end.reliable_seen_bytes");
    let scratch = gauge(metrics, "mem.peak.scratch_bytes");
    assert!(
        ledgers <= LEDGERS && at_end <= LEDGERS_AT_END && scratch <= SCRATCH,
        "delivery ledgers {ledgers} B at the peak (budget {LEDGERS}) and {at_end} B \
         at the end (budget {LEDGERS_AT_END}), scratch {scratch} B (budget {SCRATCH})\n{}",
        peak_table(metrics)
    );
}
