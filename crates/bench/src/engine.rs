//! The parallel experiment engine: a scoped worker pool that fans
//! independent, deterministic simulation cells across OS threads.
//!
//! Every experiment in this repository is a set of *independent* simulation
//! cells — one `(app, variant, latency, bandwidth, seed)` point each — and
//! every cell is bit-for-bit deterministic on its own (the kernel runs one
//! simulated process at a time; host scheduling cannot leak in). The engine
//! exploits exactly that: workers pull cells from an atomic work index, and
//! results are written back into a slot per cell, so the collected output is
//! in *cell order* regardless of completion order. A `--jobs 8` sweep
//! therefore produces byte-identical CSV and JSON (modulo wall-clock
//! fields) to a `--jobs 1` sweep; `tests/determinism.rs` pins that.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;

/// Default worker count when `--jobs` is not given: the host's available
/// parallelism (1 when unknown).
pub fn default_jobs() -> usize {
    thread::available_parallelism().map_or(1, |n| n.get())
}

/// Runs `f` over every cell on up to `jobs` worker threads and returns the
/// results **in cell order**, not completion order.
///
/// Cells are claimed through a single atomic counter (a shared work queue —
/// cheap dynamic load balancing, since a 300 ms-latency cell simulates far
/// longer than a 0.5 ms one). When `progress` carries a label, a one-line
/// progress counter is maintained on stderr.
///
/// # Panics
///
/// A panic inside `f` is re-raised on the calling thread after the
/// remaining workers drain.
pub fn run_cells<C, R, F>(cells: &[C], jobs: usize, progress: Option<&str>, f: F) -> Vec<R>
where
    C: Sync,
    R: Send,
    F: Fn(usize, &C) -> R + Sync,
{
    run_cells_with(cells, jobs, progress, || (), |(), i, cell| f(i, cell))
}

/// [`run_cells`] with state per worker: each worker thread builds one `S`
/// with `init` and hands it to `f` for every cell it claims — a network to
/// reset rather than rebuild, a buffer to refill rather than allocate.
///
/// The state is a local of the worker's loop, so it is dropped when the
/// worker finishes *or unwinds*: a cell that panics cannot leave
/// half-updated state behind for a later batch. Which cells share a state
/// depends on how the workers raced, so `f`'s result must not depend on
/// what earlier cells left in it.
///
/// # Panics
///
/// A panic inside `init` or `f` is re-raised on the calling thread after
/// the remaining workers drain.
pub fn run_cells_with<C, R, S, I, F>(
    cells: &[C],
    jobs: usize,
    progress: Option<&str>,
    init: I,
    f: F,
) -> Vec<R>
where
    C: Sync,
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize, &C) -> R + Sync,
{
    let total = cells.len();
    let jobs = jobs.max(1).min(total.max(1));
    let next = AtomicUsize::new(0);
    let done = AtomicUsize::new(0);
    let mut slots: Vec<Option<R>> = Vec::new();
    slots.resize_with(total, || None);
    thread::scope(|s| {
        let handles: Vec<_> = (0..jobs)
            .map(|_| {
                let (next, done, init, f) = (&next, &done, &init, &f);
                s.spawn(move || {
                    let mut state = init();
                    let mut out: Vec<(usize, R)> = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= total {
                            break;
                        }
                        out.push((i, f(&mut state, i, &cells[i])));
                        let d = done.fetch_add(1, Ordering::Relaxed) + 1;
                        if let Some(label) = progress {
                            // One atomic eprint per cell; `\r` keeps it a
                            // single live line on a terminal.
                            eprint!("\r  [{label}: {d}/{total} cells]");
                        }
                    }
                    out
                })
            })
            .collect();
        let mut panic: Option<Box<dyn std::any::Any + Send>> = None;
        for h in handles {
            match h.join() {
                Ok(pairs) => {
                    for (i, r) in pairs {
                        slots[i] = Some(r);
                    }
                }
                // Keep joining so every worker finishes before unwinding.
                Err(p) => panic = Some(p),
            }
        }
        if let Some(p) = panic {
            std::panic::resume_unwind(p);
        }
    });
    if progress.is_some() && total > 0 {
        eprintln!();
    }
    slots
        .into_iter()
        .map(|r| r.expect("every claimed cell stores a result"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_cell_order() {
        let cells: Vec<usize> = (0..97).collect();
        for jobs in [1, 2, 8, 200] {
            let out = run_cells(&cells, jobs, None, |i, &c| {
                assert_eq!(i, c);
                // Stagger completion so completion order differs from cell
                // order whenever jobs > 1.
                if c % 3 == 0 {
                    thread::sleep(std::time::Duration::from_micros(200));
                }
                c * 10
            });
            assert_eq!(out, cells.iter().map(|c| c * 10).collect::<Vec<_>>());
        }
    }

    #[test]
    fn empty_and_single_cell_sets() {
        let out: Vec<u32> = run_cells(&[], 8, None, |_, c: &u32| *c);
        assert!(out.is_empty());
        let out = run_cells(&[7u32], 8, None, |_, c| c + 1);
        assert_eq!(out, vec![8]);
    }

    #[test]
    fn every_cell_runs_exactly_once() {
        let hits = AtomicUsize::new(0);
        let cells: Vec<u32> = (0..64).collect();
        let _ = run_cells(&cells, 5, None, |_, _| hits.fetch_add(1, Ordering::Relaxed));
        assert_eq!(hits.load(Ordering::Relaxed), 64);
    }

    #[test]
    fn worker_panic_propagates() {
        let cells: Vec<u32> = (0..8).collect();
        let res = std::panic::catch_unwind(|| {
            run_cells(&cells, 2, None, |_, &c| {
                assert!(c != 5, "cell 5 exploded");
                c
            })
        });
        assert!(res.is_err());
    }

    #[test]
    fn each_worker_builds_one_state_and_keeps_it_across_its_cells() {
        let cells: Vec<usize> = (0..40).collect();
        for jobs in [1, 3] {
            let built = AtomicUsize::new(0);
            // A state is its worker's number and how many cells it has seen.
            let out = run_cells_with(
                &cells,
                jobs,
                None,
                || (built.fetch_add(1, Ordering::Relaxed), 0usize),
                |(worker, seen), _, &c| {
                    *seen += 1;
                    (c, *worker, *seen)
                },
            );
            assert_eq!(built.load(Ordering::Relaxed), jobs);
            // Cell order, and each worker's count runs 1, 2, 3, ... over
            // the cells it claimed.
            let mut seen_by = vec![0usize; jobs];
            for (i, &(c, worker, seen)) in out.iter().enumerate() {
                assert_eq!(c, i);
                seen_by[worker] += 1;
                assert_eq!(seen, seen_by[worker]);
            }
        }
    }

    #[test]
    fn a_panicking_cell_drops_its_workers_state() {
        struct CountsDrops<'a>(&'a AtomicUsize);
        impl Drop for CountsDrops<'_> {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::Relaxed);
            }
        }
        let dropped = AtomicUsize::new(0);
        let cells: Vec<u32> = (0..8).collect();
        let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_cells_with(
                &cells,
                2,
                None,
                || CountsDrops(&dropped),
                |_, _, &c| assert!(c != 5, "cell 5 exploded"),
            )
        }));
        assert!(res.is_err());
        assert_eq!(dropped.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn default_jobs_is_positive() {
        assert!(default_jobs() >= 1);
    }
}
