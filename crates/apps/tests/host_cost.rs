//! Host-cost guards that count instead of timing.
//!
//! The applications run for real inside the simulator, so what they cost
//! the host is part of every sweep: a profile of the Figure 3 pass found
//! more than half of a Barnes-Hut cell in an input generator that
//! allocated once per sort comparison, 32 suspended ranks each holding an
//! octree, and Water building a `Vec` per membership probe. These guards
//! pin the fixes by counting heap requests and live bytes through a
//! counting global allocator — no wall clock, so they are exact on a shared
//! host. A test binary of its own with one test in it: the allocator is
//! process-wide, and nothing else may allocate beside the count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use numagap_apps::barnes::BarnesConfig;
use numagap_apps::water::{needed_by, needs_contributors};
use numagap_apps::{run_app, AppId, Scale, SuiteConfig, Variant};
use numagap_net::das_spec;
use numagap_rt::Machine;

/// The system allocator, counting requests and tracking live bytes.
struct Counting;

static BLOCKS: AtomicUsize = AtomicUsize::new(0);
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// Blocks this large are rank stacks (8 MiB each, mapped and barely
/// touched); they are left out of the live-byte tally.
const STACK_SIZED: usize = 1 << 20;

fn grew(size: usize) {
    if size < STACK_SIZED {
        let live = LIVE.fetch_add(size, Ordering::Relaxed) + size;
        PEAK.fetch_max(live, Ordering::Relaxed);
    }
}

fn shrank(size: usize) {
    if size < STACK_SIZED {
        LIVE.fetch_sub(size, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters are relaxed atomics,
// which neither allocate nor unwind.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        BLOCKS.fetch_add(1, Ordering::Relaxed);
        grew(layout.size());
        // SAFETY: the caller's contract for `alloc`, passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrank(layout.size());
        // SAFETY: `ptr` came from `System` through this allocator, with
        // this layout (the caller's contract for `dealloc`).
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        BLOCKS.fetch_add(1, Ordering::Relaxed);
        shrank(layout.size());
        grew(new_size);
        // SAFETY: the caller's contract for `realloc`, passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn allocations_during<T>(work: impl FnOnce() -> T) -> (usize, T) {
    let before = BLOCKS.load(Ordering::Relaxed);
    let out = work();
    (BLOCKS.load(Ordering::Relaxed) - before, out)
}

/// The most bytes live at once while `work` ran, beyond what was live when
/// it started.
fn peak_live_during<T>(work: impl FnOnce() -> T) -> (usize, T) {
    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    let out = work();
    (PEAK.load(Ordering::Relaxed) - base, out)
}

#[test]
fn host_costs_stay_what_the_algorithms_need() {
    // The exact counts come last: while this test starts, the harness's
    // own thread is still allocating its bookkeeping for it, and a peak
    // does not notice a few hundred bytes where a count of two would.

    // ---- a suspended Barnes rank holds no tree ----
    // One Barnes-Hut/unoptimized cell on the 4x8 machine. When every rank
    // kept the whole input, its local tree and its essential tree (a boxed
    // array of eight optional nodes per internal node) alive across its
    // charges and receives, the same cell peaked at 6 809 136 live bytes;
    // it is about a million now.
    const PARENT_PEAK_BYTES: usize = 6_809_136;
    let cfg = SuiteConfig::at(Scale::Small);
    let machine = Machine::new(das_spec(4, 8, 10.0, 1.0));
    let (peak, run) =
        peak_live_during(|| run_app(AppId::Barnes, &cfg, Variant::Unoptimized, &machine));
    run.expect("the Barnes cell runs");
    assert!(
        peak * 2 <= PARENT_PEAK_BYTES,
        "a Barnes/unoptimized 4x8 cell peaked at {peak} live heap bytes"
    );

    // ---- the Barnes input: allocations do not grow with the bodies ----
    // The body vector and the sort's cached keys, whatever `n` is. Sorting
    // through an allocating key made it about 10 000 at 512 bodies and
    // 105 000 at 4 096 — per rank, per cell.
    let generate = |n| {
        let cfg = BarnesConfig {
            n,
            ..BarnesConfig::small()
        };
        allocations_during(|| cfg.generate()).0
    };
    assert_eq!(
        (generate(512), generate(4096)),
        (2, 2),
        "generate() allocations at 512 and 4 096 bodies"
    );

    // ---- Water's membership probes build nothing ----
    let members: Vec<usize> = (8..16).collect();
    for i in 0..32 {
        let (count, fetchers) = allocations_during(|| needed_by(i, 32));
        assert_eq!(count, 1, "needed_by({i}, 32) allocates its result only");
        assert!(!fetchers.is_empty());
        let (count, _) = allocations_during(|| needs_contributors(i, 32, &members));
        assert_eq!(count, 0, "needs_contributors({i}, 32, ..)");
    }
}
