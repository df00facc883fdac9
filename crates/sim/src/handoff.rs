//! The thread-backed execution context: one OS thread per rank, behind the
//! same `resume(grant) -> request` call the kernel makes on a fiber.
//!
//! This is the portable fallback (the only mode on hosts without fiber
//! support) and the differential oracle the fiber mode is checked against.
//! The rank body runs on a dedicated `simproc-{rank}` thread, joined to its
//! [`ThreadCtx`] by two `std::sync::mpsc` channels: grants one way, requests
//! the other. The protocol alternates strictly, so neither channel ever
//! holds more than one message. The rank's thread catches its own unwind and
//! returns what it has to hand over (payload bytes cloned, panic message)
//! through its `JoinHandle`; its request sender dropping *is* the hang-up.
//!
//! What keeps a kernel from blocking forever on a dead rank is channel
//! semantics, documented by std rather than proved here. The hand-rolled
//! slot this replaced had four model-checked tests; each property they
//! stated is now one of those semantics, pinned by a test below:
//!
//! * two rendezvous rounds deliver each grant exactly once (every sent
//!   value is received once, in order) —
//!   `two_resume_rounds_return_the_ranks_requests_in_order`;
//! * a hang-up always wakes a waiting kernel (dropping the sender wakes a
//!   blocked receiver) — the panicking rank of
//!   `a_rank_that_ends_hands_resume_its_exit_or_its_panic`;
//! * a pending request wins over the hang-up (a buffered message is
//!   received before the disconnect is reported) — the returning rank of
//!   the same test, whose thread ends right after publishing `Exit`;
//! * a grant racing the hang-up is delivered or reported (a send reaches a
//!   live receiver, and to a dropped one is an `Err`) —
//!   `dropping_a_context_reaps_its_thread_and_runs_the_bodys_destructors`,
//!   where `Grant::Abort` must reach a rank blocked mid-body, and the
//!   panicking rank again, which takes its grant before it dies.
//!
//! Determinism note: how long either side blocks depends on host timing,
//! but that can never change *what* is handed off or in what order —
//! virtual time is bit-identical to the fiber mode's.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::thread::JoinHandle;

use crate::message;
use crate::process::{self, Entry, Grant, Port, Request};
use crate::sched::Context;
use crate::ProcId;

struct ThreadPort {
    requests: Sender<Request>,
    grants: Receiver<Grant>,
}

impl Port for ThreadPort {
    fn exchange(&mut self, req: Request) -> Grant {
        // A kernel that dropped its ends (both at once, so a failed send
        // means a failed `recv`) is tearing the run down.
        let _ = self.requests.send(req);
        self.grants.recv().unwrap_or(Grant::Abort)
    }
}

/// A rank running on a dedicated OS thread.
pub(crate) struct ThreadCtx {
    grants: Sender<Grant>,
    requests: Receiver<Request>,
    /// `Some` until the rank's thread has been joined; yields the payload
    /// bytes the thread cloned and the panic message it ended with, if any.
    join: Option<JoinHandle<(u64, Option<String>)>>,
}

impl ThreadCtx {
    /// Spawns the rank's thread; it blocks at once, waiting for the first
    /// grant.
    pub(crate) fn spawn(id: ProcId, nprocs: usize, stack_size: usize, entry: Entry) -> Self {
        let (grants, rank_grants) = channel();
        let (rank_requests, requests) = channel();
        let join = std::thread::Builder::new()
            .name(format!("simproc-{}", id.0))
            .stack_size(stack_size)
            .spawn(move || {
                process::set_current_rank(Some(id.0));
                // Both channel ends move into the caught closure, so every
                // way it can end — `Exit` published, a user panic, an abort
                // unwind — drops them and the kernel sees the hang-up.
                let failure = catch_unwind(AssertUnwindSafe(move || {
                    let first = rank_grants.recv().unwrap_or(Grant::Abort);
                    let port = Box::new(ThreadPort {
                        requests: rank_requests.clone(),
                        grants: rank_grants,
                    });
                    let exit = process::run_rank(id, nprocs, port, first, entry);
                    let _ = rank_requests.send(exit);
                }))
                .err()
                .map(|payload| process::panic_message(&*payload));
                (message::clone_bytes(), failure)
            })
            .expect("failed to spawn simulated process thread");
        ThreadCtx {
            grants,
            requests,
            join: Some(join),
        }
    }

    /// Joins the ended thread, folds its payload-clone count into the
    /// calling (kernel) thread's, and returns its panic message if it
    /// panicked.
    fn join(&mut self) -> Option<String> {
        let (cloned, failure) = self
            .join
            .take()?
            .join()
            .expect("a rank thread catches its own panics");
        message::add_clone_bytes(cloned);
        failure
    }
}

impl Context for ThreadCtx {
    fn resume(&mut self, grant: Grant) -> Result<Request, String> {
        // A grant the rank is no longer there to take fails to send, and
        // the `recv` below then reports the same hang-up.
        let _ = self.grants.send(grant);
        match self.requests.recv() {
            Ok(exit @ Request::Exit(_)) => {
                self.join();
                Ok(exit)
            }
            Ok(request) => Ok(request),
            Err(_) => Err(self
                .join()
                .unwrap_or_else(|| "<process hung up without panicking>".to_string())),
        }
    }
}

impl Drop for ThreadCtx {
    fn drop(&mut self) {
        // Still joinable means the rank is blocked waiting for a grant (the
        // run is being torn down around it): unwind it, then reap it.
        if self.join.is_some() {
            let _ = self.grants.send(Grant::Abort);
            self.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::{SimDuration, SimTime};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    fn spawn(body: impl FnOnce(&mut process::ProcCtx) -> u64 + Send + 'static) -> ThreadCtx {
        ThreadCtx::spawn(
            ProcId(0),
            1,
            64 * 1024,
            Box::new(move |ctx| Box::new(body(ctx))),
        )
    }

    fn at(ns: u64) -> Grant {
        Grant::Proceed(SimTime::from_nanos(ns))
    }

    fn compute_ns(request: Result<Request, String>) -> u64 {
        match request {
            Ok(Request::Compute(d)) => d.as_nanos(),
            Ok(_) => panic!("not a compute request"),
            Err(message) => panic!("rank ended: {message}"),
        }
    }

    fn exit_value(request: Result<Request, String>) -> u64 {
        match request {
            Ok(Request::Exit(result)) => *result.downcast_ref().expect("a u64 result"),
            Ok(_) => panic!("not an exit"),
            Err(message) => panic!("rank ended: {message}"),
        }
    }

    struct SetOnDrop(Arc<AtomicBool>);

    impl Drop for SetOnDrop {
        fn drop(&mut self) {
            self.0.store(true, Ordering::SeqCst);
        }
    }

    #[test]
    fn two_resume_rounds_return_the_ranks_requests_in_order() {
        let mut rank = spawn(|ctx| {
            assert_eq!(ctx.now(), SimTime::from_nanos(7));
            ctx.compute(SimDuration::from_nanos(3));
            assert_eq!(ctx.now(), SimTime::from_nanos(9));
            ctx.compute(SimDuration::from_nanos(4));
            ctx.now().as_nanos()
        });
        assert_eq!(compute_ns(rank.resume(at(7))), 3);
        assert_eq!(compute_ns(rank.resume(at(9))), 4);
        assert_eq!(exit_value(rank.resume(at(11))), 11);
    }

    #[test]
    fn a_rank_that_ends_hands_resume_its_exit_or_its_panic() {
        // Returns at once: the thread ends right after publishing `Exit`,
        // and the pending request must win over the hang-up.
        let mut returns = spawn(|_| 42);
        assert_eq!(exit_value(returns.resume(at(0))), 42);
        assert!(returns.join.is_none(), "an exited rank's thread is reaped");

        // Panics after taking its second grant: the grant is delivered, and
        // the hang-up wakes the kernel with the message.
        let mut panics = spawn(|ctx| {
            ctx.compute(SimDuration::from_nanos(1));
            panic!("rank exploded");
        });
        assert_eq!(compute_ns(panics.resume(at(0))), 1);
        match panics.resume(at(1)) {
            Err(message) => assert!(message.contains("rank exploded"), "{message}"),
            Ok(_) => panic!("a panicked rank made a request"),
        }
        assert!(panics.join.is_none(), "a dead rank's thread is reaped");
    }

    #[test]
    fn dropping_a_context_reaps_its_thread_and_runs_the_bodys_destructors() {
        // Before its first resume: the body never runs, its captures drop.
        let ran = Arc::new(AtomicBool::new(false));
        let dropped = Arc::new(AtomicBool::new(false));
        let (ran2, captured) = (Arc::clone(&ran), SetOnDrop(Arc::clone(&dropped)));
        drop(spawn(move |_| {
            let _captured = captured;
            ran2.store(true, Ordering::SeqCst);
            0
        }));
        assert!(dropped.load(Ordering::SeqCst));
        assert!(!ran.load(Ordering::SeqCst));

        // Blocked mid-body: `Grant::Abort` reaches it and unwinds its frame.
        let dropped = Arc::new(AtomicBool::new(false));
        let local = SetOnDrop(Arc::clone(&dropped));
        let mut blocked = spawn(move |ctx| {
            let _local = local;
            ctx.compute(SimDuration::from_nanos(5));
            unreachable!("resumed after the abort");
        });
        assert_eq!(compute_ns(blocked.resume(at(0))), 5);
        assert!(!dropped.load(Ordering::SeqCst));
        drop(blocked);
        assert!(dropped.load(Ordering::SeqCst));
    }
}
