//! Host-cost guards that count instead of timing.
//!
//! The applications run for real inside the simulator, so what they cost
//! the host is part of every sweep: a profile of the Figure 3 pass found
//! more than half of a Barnes-Hut cell in an input generator that
//! allocated once per sort comparison, 32 suspended ranks each holding an
//! octree, and Water building a `Vec` per membership probe; the next one
//! found every rank of a cell generating the whole input for itself, and a
//! `Vec` of tags built for every receive that names more than one. These
//! guards pin the fixes by counting heap requests and live bytes through a
//! counting global allocator — no wall clock, so they are exact on a shared
//! host. A test binary of its own with one test in it: the allocator is
//! process-wide, and nothing else may allocate beside the count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use numagap_apps::barnes::BarnesConfig;
use numagap_apps::water::{needed_by, needs_contributors};
use numagap_apps::{run_app, run_app_report, AppId, Scale, SuiteConfig, Variant};
use numagap_net::das_spec;
use numagap_rt::Machine;
use numagap_sim::{Filter, Observer, ProcId, SimTime, TagFilter};

/// The system allocator, counting requests and tracking live bytes.
struct Counting;

static BLOCKS: AtomicUsize = AtomicUsize::new(0);
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
/// Fresh blocks of exactly `WATCHED_SIZE` bytes are tallied in `WATCHED`:
/// how a cell's input, one block of a known size, is told from the rest.
/// A buffer that grows in place through that size (the kernel's held sends
/// reach 1 024 x 64 bytes in a 4x8 FFT cell) is not a copy of anything, so
/// `realloc` is not tallied.
static WATCHED_SIZE: AtomicUsize = AtomicUsize::new(0);
static WATCHED: AtomicUsize = AtomicUsize::new(0);

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
        if layout.size() == WATCHED_SIZE.load(Ordering::Relaxed) {
            WATCHED.fetch_add(1, Ordering::Relaxed);
        }
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

/// How many blocks of exactly `size` bytes `work` asked for.
fn blocks_of_size_during<T>(size: usize, work: impl FnOnce() -> T) -> (usize, T) {
    WATCHED_SIZE.store(size, Ordering::Relaxed);
    let before = WATCHED.load(Ordering::Relaxed);
    let out = work();
    WATCHED_SIZE.store(0, Ordering::Relaxed);
    (WATCHED.load(Ordering::Relaxed) - before, out)
}

/// The heap block behind a generated input.
fn block_bytes<T>(input: &Vec<T>) -> usize {
    input.capacity() * std::mem::size_of::<T>()
}

/// Rebuilds every tag-set filter a run posts, the way the rank just did:
/// the tag-set receives a cell posted, and the heap requests made while
/// building each of those filters over again.
#[derive(Default)]
struct RebuildSetFilters {
    posted: usize,
    blocks: usize,
}

impl Observer for RebuildSetFilters {
    fn on_recv_posted(&mut self, _: ProcId, filter: &Filter, _: bool, _: SimTime) {
        if let TagFilter::Set(tags) = &filter.tag {
            let (blocks, rebuilt) = allocations_during(|| Filter::one_of(tags.as_slice()));
            assert_eq!(&rebuilt, filter);
            self.posted += 1;
            self.blocks += blocks;
        }
    }
}

/// Reusing a filter (Awari posts one per message of a stage) is a copy, not
/// a clone that could allocate.
const _: () = {
    const fn assert_copy<T: Copy>() {}
    assert_copy::<Filter>();
};

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

    // ---- a value sent to many ranks is one payload ----
    // Heap requests of one cell on the 4x8 machine. A Barnes-Hut cell made
    // 13 947 (unoptimized) and 15 355 (optimized) when each export vector
    // grew by doubling, and each imported or relayed batch was cloned out
    // of the message that brought it; then 8 123 and 8 187 while every
    // bounding box and every export was a payload of its own per recipient.
    // A rank's essential sets are now one buffer per step, which every
    // message of them shares and each recipient reads by its own range.
    // Water/unoptimized made 7 668 while each recipient of a rank's
    // positions got its own copy, then 4 779 while each force message's
    // vector was cloned out of the message, its only owner.
    for (app, variant, now, before) in [
        (AppId::Barnes, Variant::Unoptimized, 2_710, 8_123),
        (AppId::Barnes, Variant::Optimized, 2_326, 8_187),
        (AppId::Water, Variant::Unoptimized, 3_787, 4_779),
    ] {
        let (blocks, run) = allocations_during(|| run_app(app, &cfg, variant, &machine));
        run.expect("the cell runs");
        assert!(
            blocks <= now,
            "{app}/{variant} 4x8 cell: {blocks} heap requests (was {before})"
        );
    }

    // ---- a cell generates its input once ----
    // `run_app` builds the input before the run and the 32 ranks read that
    // one copy, each copying out the block it owns. When every rank called
    // `generate()` for itself these counts were 32, and the ASP and FFT
    // ranks each kept their copy to the end of the run.
    for (app, input_bytes) in [
        (AppId::Barnes, block_bytes(&cfg.barnes.generate())),
        (AppId::Asp, block_bytes(&cfg.asp.generate())),
        (AppId::Fft, block_bytes(&cfg.fft.generate())),
    ] {
        for variant in [Variant::Unoptimized, Variant::Optimized] {
            let (copies, run) =
                blocks_of_size_during(input_bytes, || run_app(app, &cfg, variant, &machine));
            run.expect("the cell runs");
            assert_eq!(
                copies, 1,
                "{app}/{variant}: blocks of the input's {input_bytes} bytes in a 4x8 cell"
            );
        }
    }
    // What that is worth where the input is the application's whole state:
    // 32 held copies of the 64 KiB signal were most of the FFT cell's
    // 2 775 288-byte peak; it is 817 424 now. (At the paper's 2^20 points
    // the same cell's resident peak went from 564 MB to 68 MB.)
    const PARENT_FFT_PEAK_BYTES: usize = 2_775_288;
    let (peak, run) =
        peak_live_during(|| run_app(AppId::Fft, &cfg, Variant::Unoptimized, &machine));
    run.expect("the FFT cell runs");
    assert!(
        peak * 3 <= PARENT_FFT_PEAK_BYTES,
        "an FFT 4x8 cell peaked at {peak} live heap bytes"
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

    // ---- a receive that names several tags builds nothing ----
    // A tag set was a `Vec`: one heap request per `Filter::one_of` and per
    // clone, 14 to 19 % of all the requests of these three cells.
    for (app, variant) in [
        (AppId::Water, Variant::Optimized),
        (AppId::Asp, Variant::Unoptimized),
        (AppId::Awari, Variant::Optimized),
    ] {
        let mut rebuilt = RebuildSetFilters::default();
        run_app_report(app, &cfg, variant, &machine, Some(&mut rebuilt)).expect("the cell runs");
        assert!(
            rebuilt.posted > 100,
            "{app}/{variant} posted {} tag-set receives",
            rebuilt.posted
        );
        assert_eq!(
            rebuilt.blocks, 0,
            "{app}/{variant}: heap requests while building tag-set filters"
        );
    }

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
