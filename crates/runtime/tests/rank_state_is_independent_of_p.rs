//! The paper's claim for TemperedLB is that it is fully distributed: no
//! rank holds state proportional to the job. Building a rank's protocol
//! actor — engine, termination detector, membership view, reliable
//! transport — must therefore allocate the same number of bytes in a
//! 256-rank job and in a million-rank one. A list of the job's ranks
//! anywhere in there — 4 B × P — fails this.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use tempered_core::ids::{RankId, TaskId};
use tempered_core::rng::RngFactory;
use tempered_runtime::lb::{LbProtocolConfig, LbRank};
use tempered_runtime::reliable::RetryConfig;

thread_local! {
    /// Bytes this thread has requested from the allocator. Per thread, so
    /// the test harness's own threads cannot disturb the count.
    static REQUESTED: Cell<usize> = const { Cell::new(0) };
}

/// The system allocator, counting the bytes each thread asks for.
struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the only addition is a thread-local
// counter with no destructor, which never allocates or unwinds.
// `realloc` is the trait's default, built on `alloc` and `dealloc`.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        REQUESTED.with(|b| b.set(b.get() + layout.size()));
        // SAFETY: the caller's obligations are passed through as-is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
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
