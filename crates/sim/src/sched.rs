//! Rank execution contexts: what the kernel resumes.
//!
//! Strict rendezvous means at most one rank is runnable at any instant, so
//! there is nothing to schedule: the kernel's event loop pops an event, calls
//! [`Context::resume`] on the rank it names with the completing [`Grant`],
//! and gets back the rank's [`Handover`]: its next request, after the sends
//! it left in the run's [`Outbox`](crate::process::Outbox) on the way. The
//! rank dispatch order *is* the grant order — a pure function of the
//! canonical `(time, seq)` event order, whatever kind of context runs the
//! rank body. The build picks the kind; nothing at run time does:
//!
//! * on x86-64 Linux each rank is a [`crate::fiber`] resumed and suspended on
//!   the thread that called `Sim::run`; a virtual context switch is two
//!   stack switches and no OS thread is created;
//! * elsewhere each rank is a dedicated OS thread blocked on a channel
//!   between resumes ([`crate::handoff`]).
//!
//! Where both are compiled (x86-64 Linux), a unit test drives them through
//! [`Context`] with the same grants and requires the same sends and requests
//! back.

use crate::process::{Grant, Handover};

/// The kernel's handle on one rank's execution context.
pub(crate) trait Context {
    /// Runs the rank with `grant` until it suspends with its next request.
    /// `Err` carries the diagnostic of a rank that ended without an `Exit`:
    /// its entry function panicked, or it unwound after a [`Grant::Abort`].
    /// Either way, the sends it made meanwhile are in the outbox when this
    /// returns. A context must not be resumed again after an `Exit` or an
    /// `Err`.
    fn resume(&mut self, grant: Grant) -> Result<Handover, String>;

    /// Hints that the rank is resumed soon: starts loading into the cache
    /// what its next resume reads first. It changes nothing the rank or the
    /// kernel can observe, and may be called at any point of the rank's
    /// life, finished or not. A thread rank has nothing to warm: its resume
    /// wakes another OS thread, so the default does nothing.
    fn prefetch(&self) {}
}

/// The one context kind this build runs ranks on, held by value in the
/// kernel's rank slots. `RankCtx::spawn(id, nprocs, stack_size, outbox,
/// entry)` creates rank `id`'s context; the rank body starts running on the
/// first `resume`. Dropping a context whose rank is still suspended mid-body
/// resumes it one last time with [`Grant::Abort`], so every value on the
/// rank's stack is dropped — that is how an aborted run tears down.
#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
pub(crate) type RankCtx = fiber_ctx::FiberCtx;
/// The one context kind this build runs ranks on (see the fiber build's).
#[cfg(not(all(target_arch = "x86_64", target_os = "linux")))]
pub(crate) type RankCtx = crate::handoff::ThreadCtx;

#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
mod fiber_ctx {
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::Arc;

    use super::Context;
    use crate::fiber::{Fiber, Suspender};
    use crate::process::{self, Entry, Grant, Handover, Outbox, Port};
    use crate::ProcId;

    /// What a rank fiber hands its resumer: the next hand-over, or the panic
    /// message its body ended with.
    type Yielded = Result<Handover, String>;

    struct FiberPort(Suspender<Grant, Yielded>);

    impl Port for FiberPort {
        fn exchange(&mut self, handover: Handover) -> Grant {
            // SAFETY: a `FiberPort` lives inside the `ProcCtx` that
            // `run_rank` keeps on the rank fiber's own stack and lends to
            // the entry function by `&mut` only, so this call is always made
            // by the rank body, on its fiber, while the kernel waits in
            // `resume`.
            unsafe { self.0.suspend(Ok(handover)) }
        }
    }

    /// A rank running as a fiber on the kernel's own thread.
    pub(crate) struct FiberCtx {
        fiber: Fiber<Grant, Yielded>,
        rank: usize,
    }

    impl FiberCtx {
        pub(crate) fn spawn(
            id: ProcId,
            nprocs: usize,
            stack_size: usize,
            outbox: Arc<Outbox>,
            entry: Entry,
        ) -> Self {
            let fiber = Fiber::new(stack_size, move |suspender, first| {
                // The fiber body must not unwind: a panic (the user's, or
                // the abort token) ends the rank here and travels to the
                // kernel as the fiber's final value.
                catch_unwind(AssertUnwindSafe(|| {
                    let port = Box::new(FiberPort(suspender));
                    process::run_rank(id, nprocs, outbox, port, first, entry)
                }))
                .map_err(|payload| process::panic_message(&*payload))
            });
            FiberCtx { fiber, rank: id.0 }
        }
    }

    impl Context for FiberCtx {
        fn resume(&mut self, grant: Grant) -> Result<Handover, String> {
            process::set_current_rank(Some(self.rank));
            self.fiber.resume(grant)
        }

        #[inline]
        fn prefetch(&self) {
            self.fiber.prefetch();
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
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    use super::Context;
    use crate::handoff::ThreadCtx;
    use crate::message::{Filter, Tag};
    use crate::process::{Entry, Grant, Handover, Outbox, ProcCtx, Request};
    use crate::time::{SimDuration, SimTime};
    use crate::ProcId;

    type Spawner = fn(ProcId, usize, usize, Arc<Outbox>, Entry) -> Box<dyn Context>;

    /// Every context kind this host can run, by name: threads everywhere,
    /// fibers where they are compiled.
    fn kinds() -> Vec<(&'static str, Spawner)> {
        vec![
            ("threads", |id, n, stack, outbox, entry| {
                Box::new(ThreadCtx::spawn(id, n, stack, outbox, entry))
            }),
            #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
            ("fibers", |id, n, stack, outbox, entry| {
                Box::new(super::fiber_ctx::FiberCtx::spawn(
                    id, n, stack, outbox, entry,
                ))
            }),
        ]
    }

    /// A rank alone in its run, with the run's outbox.
    struct Rank {
        ctx: Box<dyn Context>,
        outbox: Arc<Outbox>,
    }

    /// What a send costs its sender in these runs.
    const SEND_NS: u64 = 2;

    fn spawn(kind: Spawner, body: impl FnOnce(&mut ProcCtx) -> u64 + Send + 'static) -> Rank {
        let outbox = Arc::new(Outbox::new(SimDuration::from_nanos(SEND_NS)));
        let entry: Entry = Box::new(move |ctx| Box::new(body(ctx)));
        Rank {
            ctx: kind(ProcId(0), 1, 64 * 1024, Arc::clone(&outbox), entry),
            outbox,
        }
    }

    impl Rank {
        /// Resumes the rank with `grant`: the sends it made, in order, then
        /// what it handed over, as comparable text.
        fn resume(&mut self, grant: Grant) -> String {
            let handed = self.ctx.resume(grant);
            let mut sends = Vec::new();
            self.outbox.swap(&mut sends);
            let mut text: Vec<String> = sends
                .iter()
                .map(|s| {
                    let value = s.payload.downcast_ref::<u64>().expect("a u64 payload");
                    format!("send {} {} {} {value}", s.dst, s.tag, s.wire_bytes)
                })
                .collect();
            text.push(describe(handed));
            text.join("; ")
        }
    }

    fn at(ns: u64) -> Grant {
        Grant::Proceed(SimTime::from_nanos(ns))
    }

    /// A hand-over as comparable text.
    fn describe(handed: Result<Handover, String>) -> String {
        let Handover { now, request } = match handed {
            Ok(handover) => handover,
            Err(message) => return format!("err {message}"),
        };
        let request = match request {
            Request::Compute(d) => format!("compute {}", d.as_nanos()),
            Request::Recv(filter) => format!("recv {filter:?}"),
            Request::TryRecv(filter) => format!("try_recv {filter:?}"),
            Request::Exit(result) => {
                format!(
                    "exit {}",
                    result.downcast_ref::<u64>().expect("a u64 result")
                )
            }
        };
        format!("{request} @{}", now.as_nanos())
    }

    struct SetOnDrop(Arc<AtomicBool>);

    impl Drop for SetOnDrop {
        fn drop(&mut self) {
            self.0.store(true, Ordering::SeqCst);
        }
    }

    #[test]
    fn threads_and_fibers_answer_the_same_grants_with_the_same_requests() {
        let mut runs = Vec::new();
        for (name, kind) in kinds() {
            // One program, granted the same instants in either context. Its
            // three sends suspend nothing: they reach the kernel together,
            // in order, with the poll that follows them.
            let mut rank = spawn(kind, |ctx| {
                ctx.compute(SimDuration::from_nanos(3));
                for (i, dst) in [0, 0, 0].into_iter().enumerate() {
                    ctx.send(
                        ProcId(dst),
                        Tag::app(5 + i as u32),
                        10 * i as u64,
                        8 + i as u64,
                    );
                }
                assert_eq!(ctx.now(), SimTime::from_nanos(10 + 3 * SEND_NS));
                assert!(ctx.try_recv(Filter::tag(Tag::app(6))).is_none());
                ctx.now().as_nanos()
            });
            let grants = [at(7), at(10), Grant::TryMsg(SimTime::from_nanos(17), None)];
            let requests: Vec<String> =
                grants.into_iter().map(|grant| rank.resume(grant)).collect();
            assert_eq!(
                requests[1],
                format!(
                    "send p0 5 8 0; send p0 6 9 10; send p0 7 10 20; try_recv {:?} @16",
                    Filter::tag(Tag::app(6))
                ),
                "{name}"
            );
            assert_eq!(requests[2], "exit 17 @17", "{name}: {requests:?}");
            runs.push(requests);

            // A panicking body ends in `Err` with its message, and what it
            // sent before it died is in the outbox.
            let mut panics = spawn(kind, |ctx| {
                ctx.compute(SimDuration::from_nanos(1));
                ctx.send(ProcId(0), Tag::app(9), 4u64, 16);
                panic!("rank exploded");
            });
            assert_eq!(panics.resume(at(0)), "compute 1 @0", "{name}");
            let ended = panics.resume(at(1));
            assert!(
                ended.starts_with("send p0 9 16 4; err ") && ended.contains("rank exploded"),
                "{name}: {ended}"
            );

            // Dropping a rank suspended mid-body aborts it: every value on
            // its stack is dropped before the drop returns.
            let dropped = Arc::new(AtomicBool::new(false));
            let local = SetOnDrop(Arc::clone(&dropped));
            let mut blocked = spawn(kind, move |ctx| {
                let _local = local;
                ctx.compute(SimDuration::from_nanos(5));
                unreachable!("resumed after the abort");
            });
            assert_eq!(blocked.resume(at(0)), "compute 5 @0", "{name}");
            assert!(!dropped.load(Ordering::SeqCst), "{name}");
            drop(blocked);
            assert!(
                dropped.load(Ordering::SeqCst),
                "{name}: a value outlived the abort"
            );
        }
        assert_eq!(runs.len(), if crate::fiber::SUPPORTED { 2 } else { 1 });
        assert!(runs.windows(2).all(|w| w[0] == w[1]), "{runs:?}");
    }
}
