//! Rank execution contexts: what the kernel resumes.
//!
//! Strict rendezvous means at most one rank is runnable at any instant, so
//! there is nothing to schedule: the kernel's event loop pops an event, calls
//! [`Context::resume`] on the rank it names with the completing [`Grant`],
//! and gets back the rank's next [`Request`]. The rank dispatch order *is*
//! the grant order — a pure function of the canonical `(time, seq)` event
//! order, whatever kind of context runs the rank body:
//!
//! * [`SchedMode::Fibers`] — each rank is a [`crate::fiber`] resumed and suspended
//!   on the thread that called `Sim::run`; a virtual context switch is two
//!   stack switches and no OS thread is created.
//! * [`SchedMode::LegacyThreads`] — each rank is a dedicated OS thread blocked
//!   on a channel between resumes ([`crate::handoff`]); the portable fallback
//!   and the differential oracle for the fiber mode.

use crate::handoff::ThreadCtx;
use crate::process::{Entry, Grant, Request};
use crate::ProcId;

/// How simulated ranks are given a stack to run on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedMode {
    /// Ranks are fibers resumed inline on the thread that runs the kernel.
    /// The default wherever fibers are supported (x86-64).
    Fibers,
    /// One dedicated OS thread per rank (the original model). The only mode
    /// on targets without fiber support, and the differential oracle
    /// elsewhere: virtual time must be bit-identical to the fiber mode.
    LegacyThreads,
}

/// Resolves the mode a run uses: the run's own choice, else fibers — and
/// threads regardless on a target that cannot run fibers.
pub(crate) fn resolve(requested: Option<SchedMode>) -> SchedMode {
    if crate::fiber::SUPPORTED {
        requested.unwrap_or(SchedMode::Fibers)
    } else {
        SchedMode::LegacyThreads
    }
}

/// The kernel's handle on one rank's execution context.
pub(crate) trait Context {
    /// Runs the rank with `grant` until it suspends with its next request.
    /// `Err` carries the diagnostic of a rank that ended without an `Exit`:
    /// its entry function panicked, or it unwound after a [`Grant::Abort`].
    /// A context must not be resumed again after an `Exit` or an `Err`.
    fn resume(&mut self, grant: Grant) -> Result<Request, String>;
}

/// Creates rank `id`'s execution context. The rank body starts running on
/// the first `resume`. Dropping a context whose rank is still suspended
/// mid-body resumes it one last time with [`Grant::Abort`], so every value on
/// the rank's stack is dropped — that is how an aborted run tears down.
pub(crate) fn spawn(
    mode: SchedMode,
    id: ProcId,
    nprocs: usize,
    stack_size: usize,
    entry: Entry,
) -> Box<dyn Context> {
    match mode {
        #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
        SchedMode::Fibers => Box::new(fiber_ctx::FiberCtx::spawn(id, nprocs, stack_size, entry)),
        // Threads, also for the fibers `resolve` never picks where they
        // cannot run.
        _ => Box::new(ThreadCtx::spawn(id, nprocs, stack_size, entry)),
    }
}

#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
mod fiber_ctx {
    use std::panic::{catch_unwind, AssertUnwindSafe};

    use super::Context;
    use crate::fiber::{Fiber, Suspender};
    use crate::process::{self, Entry, Grant, Port, Request};
    use crate::ProcId;

    /// What a rank fiber hands its resumer: the next request, or the panic
    /// message its body ended with.
    type Yielded = Result<Request, String>;

    struct FiberPort(Suspender<Grant, Yielded>);

    impl Port for FiberPort {
        fn exchange(&mut self, req: Request) -> Grant {
            // SAFETY: a `FiberPort` lives inside the `ProcCtx` that
            // `run_rank` keeps on the rank fiber's own stack and lends to
            // the entry function by `&mut` only, so this call is always made
            // by the rank body, on its fiber, while the kernel waits in
            // `resume`.
            unsafe { self.0.suspend(Ok(req)) }
        }
    }

    /// A rank running as a fiber on the kernel's own thread.
    pub(super) struct FiberCtx {
        fiber: Fiber<Grant, Yielded>,
        rank: usize,
    }

    impl FiberCtx {
        pub(super) fn spawn(id: ProcId, nprocs: usize, stack_size: usize, entry: Entry) -> Self {
            let fiber = Fiber::new(stack_size, move |suspender, first| {
                // The fiber body must not unwind: a panic (the user's, or
                // the abort token) ends the rank here and travels to the
                // kernel as the fiber's final value.
                catch_unwind(AssertUnwindSafe(|| {
                    let port = Box::new(FiberPort(suspender));
                    process::run_rank(id, nprocs, port, first, entry)
                }))
                .map_err(|payload| process::panic_message(&*payload))
            });
            FiberCtx { fiber, rank: id.0 }
        }
    }

    impl Context for FiberCtx {
        fn resume(&mut self, grant: Grant) -> Result<Request, String> {
            process::set_current_rank(Some(self.rank));
            self.fiber.resume(grant)
        }
    }

    impl Drop for FiberCtx {
        fn drop(&mut self) {
            if self.fiber.is_suspended() {
                // The diagnostic ("aborted by kernel") has nowhere to go.
                let _ = self.resume(Grant::Abort);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_explicit_mode_wins_and_fibers_never_leak_onto_a_fiberless_target() {
        assert_eq!(
            resolve(Some(SchedMode::LegacyThreads)),
            SchedMode::LegacyThreads
        );
        let fibers = resolve(Some(SchedMode::Fibers));
        if crate::fiber::SUPPORTED {
            assert_eq!(fibers, SchedMode::Fibers);
        } else {
            assert_eq!(fibers, SchedMode::LegacyThreads);
        }
    }
}
