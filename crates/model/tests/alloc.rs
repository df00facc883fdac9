//! A replayed point allocates nothing. Building the network, five
//! per-op/per-message vectors and a route per WAN message used to be well
//! over 2 000 heap allocations for every point of a sweep (1 536 route
//! vectors alone on water/unopt); a [`Replayer`] keeps all of it from point
//! to point. Counted with a counting global allocator — no wall clock, so
//! the guard is exact and safe on a shared host. A test binary of its own:
//! the allocator is process-wide, and no other test may run beside the count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use numagap_apps::{AppId, Scale, SuiteConfig, Variant};
use numagap_model::{record_app, replay, Replayer};
use numagap_net::{das_spec, LinkParams};
use numagap_rt::Machine;

/// The system allocator, counting every block it hands out or regrows.
struct Counting;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a relaxed atomic add,
// which neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's contract for `alloc`, passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator, with
        // this layout (the caller's contract for `dealloc`).
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's contract for `realloc`, passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn allocations_during(work: impl FnOnce()) -> usize {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    work();
    ALLOCATIONS.load(Ordering::Relaxed) - before
}

#[test]
fn a_replayed_point_allocates_nothing_once_warm() {
    let cfg = SuiteConfig::at(Scale::Small);
    let machine = Machine::new(das_spec(4, 8, 10.0, 0.3));
    let (_, dag) =
        record_app(AppId::Water, &cfg, Variant::Unoptimized, &machine).expect("water records");
    // Ten points across the fig3 ranges, slow and fast links mixed.
    let points: Vec<LinkParams> = (0..10u32)
        .map(|i| {
            let t = f64::from(i * 7 % 10) / 9.0;
            LinkParams::wide_area(0.1 * 3000f64.powf(t), 10.0 / 300f64.powf(1.0 - t))
        })
        .collect();
    let mut replayer = Replayer::new(&dag.base_spec);

    // The warm-up: interval lists, the event heap and the scratch vectors
    // grow to what these points need, and every cluster pair's route is
    // resolved. One point does nearly all of it; a point not seen before
    // can still outgrow a link's list (a few dozen regrowths over the other
    // nine here), which is why the warm-up is one pass and not one point.
    let mut want = Vec::new();
    for &inter in &points {
        want.push(replayer.makespan(&dag, inter));
    }

    let mut got = Vec::with_capacity(100);
    let counted = allocations_during(|| {
        for i in 0..100 {
            got.push(replayer.makespan(&dag, points[i % points.len()]));
        }
    });
    assert_eq!(counted, 0, "heap allocations over 100 replayed points");
    assert!(got.iter().zip(want.iter().cycle()).all(|(g, w)| g == w));

    // The counter does count: one build-per-call `replay` is hundreds.
    let spec = dag.base_spec.clone().inter(points[0]);
    let per_fresh_replay = allocations_during(|| {
        replay(&dag, &spec);
    });
    assert!(
        per_fresh_replay > 100,
        "a fresh replay allocated {per_fresh_replay} times"
    );
}
