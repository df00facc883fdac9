//! A warm 10 000-point analytic request allocates a few dozen times, not
//! once per point. When `"points"` became a `Json` tree on the way in, the
//! tree alone was over 10 000 blocks (a `Vec` per pair), freed again before
//! the response was written. Counted with the counting global allocator of
//! `crates/model/tests/alloc.rs` — no wall clock, so the guard is exact and
//! safe on a shared host. A test binary of its own: the allocator is
//! process-wide, and no other test may run beside the count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use numagap_serve::{Service, MAX_POINTS};

/// The system allocator, counting every block it hands out or regrows, and
/// separately every regrowth of a block as large as a response body.
struct Counting;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);
static LARGE_REGROWTHS: AtomicUsize = AtomicUsize::new(0);

/// Half a megabyte: the response to 10 000 points is about a megabyte, the
/// request under 200 kB, and the point vectors 160 kB each.
const LARGE: usize = 512 << 10;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters are relaxed atomic adds,
// which neither allocate nor unwind.
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
        if layout.size() >= LARGE {
            LARGE_REGROWTHS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: the caller's contract for `realloc`, passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

#[test]
fn a_warm_analytic_batch_allocates_per_request_not_per_point() {
    // The benchmark's shape: 4 significant digits, no two points alike.
    let mut body = String::from("{\"app\": \"asp\", \"mode\": \"analytic\", \"points\": [");
    for i in 0..MAX_POINTS {
        let sep = if i == 0 { "" } else { ", " };
        body += &format!(
            "{sep}[{}, {}]",
            (1000 + i) as f64 / 40.0,
            (1 + i) as f64 / 1000.0
        );
    }
    body += "]}";
    let service = Service::new(2, 4);
    let cold = service.whatif(&body).expect("the body is valid");
    assert!(!cold.cache_hit);

    let (before, regrown) = (
        ALLOCATIONS.load(Ordering::Relaxed),
        LARGE_REGROWTHS.load(Ordering::Relaxed),
    );
    let warm = service.whatif(&body).expect("the body is valid");
    let counted = ALLOCATIONS.load(Ordering::Relaxed) - before;
    let regrown = LARGE_REGROWTHS.load(Ordering::Relaxed) - regrown;

    assert!(warm.cache_hit);
    assert_eq!(warm.body, cold.body);
    assert!(warm.body.len() > LARGE, "{} bytes", warm.body.len());
    assert!(counted <= 32, "{counted} allocations for one warm request");
    // The reserve per point still covers a line: the body is written into
    // the block it was given.
    assert_eq!(regrown, 0, "the response was regrown");
}
