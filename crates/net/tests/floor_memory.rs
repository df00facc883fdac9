//! The network's memory follows its traffic, not the square of its ranks.
//!
//! A dense floor per ordered pair was 134 MB of a 163 MB 4 096-rank run and
//! would be 2 GiB at 16 384 ranks, for machines on which a rank talks to a
//! dozen peers. Counted with a byte-counting global allocator — the harness
//! of `crates/model/tests/alloc.rs`, counting bytes as well as blocks — so
//! the guards are exact and need no quiet host. A test binary of its own
//! with one test in it: the allocator is process-wide, and nothing else may
//! allocate beside the count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use numagap_net::{das_spec, LinkParams, TwoLayerNetwork};
use numagap_sim::{Filter, Network, ProcCtx, ProcId, Sim, SimDuration, SimTime, Tag};

/// The system allocator, counting the blocks and bytes it is asked for.
struct Counting;

static BLOCKS: AtomicUsize = AtomicUsize::new(0);
static BYTES: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters are relaxed atomic adds,
// which neither allocate nor unwind.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        BLOCKS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size(), Ordering::Relaxed);
        // SAFETY: the caller's contract for `alloc`, passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        BLOCKS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size(), Ordering::Relaxed);
        // SAFETY: the caller's contract for `alloc_zeroed`, passed through.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator, with
        // this layout (the caller's contract for `dealloc`).
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        BLOCKS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(new_size, Ordering::Relaxed);
        // SAFETY: the caller's contract for `realloc`, passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// `(blocks, bytes)` requested while `work` ran.
fn requested_during<T>(work: impl FnOnce() -> T) -> (usize, usize, T) {
    let (blocks, bytes) = (
        BLOCKS.load(Ordering::Relaxed),
        BYTES.load(Ordering::Relaxed),
    );
    let out = work();
    (
        BLOCKS.load(Ordering::Relaxed) - blocks,
        BYTES.load(Ordering::Relaxed) - bytes,
        out,
    )
}

const MB: usize = 1 << 20;

/// Ranks of the skeleton run: a 128x64 machine.
const CLUSTERS: usize = 128;
const PROCS: usize = 64;
const RANKS: usize = CLUSTERS * PROCS;
const STACK_BYTES: usize = 64 * 1024;
const RING_ROUNDS: u32 = 3;
const REDUCE: Tag = Tag::app(100);
const BCAST: Tag = Tag::app(101);

/// The rank body of the `scale` sweep (`crates/bench/src/scale.rs`), on the
/// kernel's own context: ring rounds, a binomial reduce to rank 0, a
/// binomial broadcast back.
fn skeleton(ctx: &mut ProcCtx) {
    let n = ctx.nprocs();
    let me = ctx.rank();
    for round in 0..RING_ROUNDS {
        ctx.compute(SimDuration::from_micros(50));
        ctx.send(ProcId((me + 1) % n), Tag::app(round), me, 64);
        ctx.recv(Filter::tag(Tag::app(round)));
    }
    let mut span = 1;
    while span < n {
        if me & span != 0 {
            ctx.send(ProcId(me - span), REDUCE, me, 64);
            break;
        }
        if me + span < n {
            ctx.recv(Filter::tag(REDUCE));
        }
        span <<= 1;
    }
    let mut span = 1;
    while span < n {
        if me < span {
            if me + span < n {
                ctx.send(ProcId(me + span), BCAST, me, 64);
            }
        } else if me < 2 * span {
            ctx.recv(Filter::tag(BCAST));
        }
        span <<= 1;
    }
}

#[test]
fn network_memory_follows_traffic() {
    // The exact count comes last: while this test starts, the harness's own
    // thread is still allocating its bookkeeping for it, which megabyte
    // bounds do not notice and a count of zero would.

    // ---- 8 192 ranks run, in memory the traffic accounts for ----
    let (_, bytes, outcome) = requested_during(|| {
        let mut sim = Sim::new(TwoLayerNetwork::new(das_spec(CLUSTERS, PROCS, 10.0, 1.0)));
        sim.stack_size(STACK_BYTES);
        for _ in 0..RANKS {
            sim.spawn(skeleton);
        }
        sim.run().expect("the 8 192-rank skeleton runs")
    });
    // One message per rank per ring round, and one per non-root rank in
    // each tree.
    let messages = RING_ROUNDS as usize * RANKS + 2 * (RANKS - 1);
    assert_eq!(outcome.kernel_stats.messages, messages as u64);
    // The rank stacks are most of what a run asks for (mapped, barely
    // touched); a dense floor table would be another 512 MB.
    let beside_stacks = bytes.saturating_sub(RANKS * STACK_BYTES);
    assert!(
        beside_stacks < 64 * MB,
        "the 8 192-rank run requested {beside_stacks} bytes beside its stacks"
    );
    drop(outcome);

    // ---- building a 16 384-rank network asks for megabytes ----
    let (_, bytes, net) = requested_during(|| TwoLayerNetwork::new(das_spec(128, 128, 10.0, 1.0)));
    assert_eq!(net.num_procs(), 16_384);
    assert!(
        bytes < 16 * MB,
        "a 16 384-rank network requested {bytes} bytes before any message"
    );
    drop(net);

    // ---- a reset keeps what the rows grew to ----
    // Every pair of the 4x8 machine, twice; then the same stream after a
    // reset has to find room for all of it (floors, interval lists, routes)
    // without asking for a byte.
    let mut net = TwoLayerNetwork::new(das_spec(4, 8, 10.0, 1.0));
    let drive = |net: &mut TwoLayerNetwork| {
        let mut last = SimTime::ZERO;
        for i in 0..2 * 32 * 32 {
            let (src, dst) = (ProcId(i / 32 % 32), ProcId(i % 32));
            let now = SimTime::from_nanos(i as u64 * 1_000);
            last = last.max(net.transfer(src, dst, 64 + i as u64, now).arrival);
        }
        last
    };
    let first = drive(&mut net);
    net.reset(LinkParams::wide_area(10.0, 1.0));
    let (blocks, bytes, again) = requested_during(|| drive(&mut net));
    assert_eq!(again, first, "a reset network repeats the run");
    assert_eq!(
        (blocks, bytes),
        (0, 0),
        "heap requests while re-driving a stream after reset"
    );
}
