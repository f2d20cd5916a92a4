//! The paper's claim for TemperedLB is that it is fully distributed: no
//! rank holds state proportional to the job. Building a rank's protocol
//! actor — engine, termination detector, membership view, reliable
//! transport — must therefore allocate the same number of bytes in a
//! 256-rank job and in a million-rank one. A list of the job's ranks
//! anywhere in there — 4 B × P — fails this.
//!
//! What a rank does hold grows with the peers it actually meets, so that
//! growth is pinned too: the reliable channel's ledgers cost a few dozen
//! bytes per peer in each direction.
//!
//! And a whole simulated round holds what is in flight, not its history:
//! the heap high-water mark of a hardened 256-rank round is pinned, so
//! an event queue that keeps every burst's capacity, or a timer per
//! stage per rank, shows up as a failure here.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use tempered_core::distribution::Distribution;
use tempered_core::ids::{RankId, TaskId};
use tempered_core::rng::RngFactory;
use tempered_runtime::lb::{run_distributed_lb, LbProtocolConfig, LbRank};
use tempered_runtime::reliable::{ReliableChannel, RetryConfig};
use tempered_runtime::NetworkModel;

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

#[test]
fn a_reliable_channel_holds_a_few_dozen_bytes_per_peer_it_meets() {
    // One frame each way with each of 1 000 peers, every frame in order
    // and acknowledged: the steady state of a fault-free run.
    const PEERS: u32 = 1000;
    const BUDGET: isize = 48;
    let peer = |i: u32| RankId::new(i * 7 + 1);
    let start = live();
    let mut ch: ReliableChannel<u64> = ReliableChannel::new(RetryConfig::default());
    for i in 0..PEERS {
        let (seq, _) = ch.send(peer(i), 0);
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

#[test]
fn a_hardened_256_rank_round_peaks_at_a_few_megabytes_of_heap() {
    // The benchmark's hotspot: an eighth of the ranks hold 40 unit tasks.
    const RANKS: usize = 256;
    const BUDGET: isize = 6 << 20;
    let dist = Distribution::from_loads((0..RANKS).map(|r| {
        if r < RANKS / 8 {
            vec![1.0; 40]
        } else {
            Vec::new()
        }
    }));
    let cfg = LbProtocolConfig {
        trials: 2,
        iters: 3,
        fanout: 4,
        rounds: 5,
        ..LbProtocolConfig::default()
    }
    .hardened(RetryConfig::generous());
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
