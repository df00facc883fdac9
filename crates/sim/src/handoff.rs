//! The thread-backed execution context: one OS thread per rank, behind the
//! same `resume(grant) -> request` call the kernel makes on a fiber.
//!
//! This is the portable fallback (the only mode on hosts without fiber
//! support) and the differential oracle the fiber mode is checked against.
//! The rank body runs on a dedicated `simproc-{rank}` thread; each
//! [`ThreadCtx::resume`] publishes the grant into a one-slot
//! `Mutex`/`Condvar` rendezvous ([`Handoff`]) and sleeps until the rank
//! publishes its next [`Request`] or its thread ends. Because the protocol
//! alternates strictly (there is never more than one outstanding request
//! *or* grant), a one-deep slot is enough; a publisher notifies only when
//! the peer has recorded itself as parked, and
//! [`crate::HotProfile::park_wakes`] counts those notifies.
//!
//! Determinism note: when a side parks depends on host timing, but that can
//! never change *what* is handed off or in what order — virtual time is
//! bit-identical to the fiber mode's.

use std::sync::Arc;
use std::thread::JoinHandle;

use crate::message;
use crate::process::{self, Entry, Grant, Port, Request};
use crate::sched::Context;
use crate::sync::{Condvar, Mutex};
use crate::ProcId;

/// The rank's thread ended: normally after publishing `Exit`, or by a panic
/// unwinding the entry function.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Hangup;

#[derive(Default)]
struct Slot {
    grant: Option<Grant>,
    request: Option<Request>,
    /// The rank's thread is parked on `to_proc`.
    proc_parked: bool,
    /// The kernel is parked on `to_kernel` waiting for this rank.
    kernel_parked: bool,
    /// The rank's thread ended; no request will ever arrive again.
    proc_gone: bool,
    /// Payload bytes the rank's thread had cloned when it ended.
    cloned: u64,
    /// Condvar notifies issued while the peer was recorded as parked.
    park_wakes: u64,
}

/// One rank's rendezvous slot, shared between the kernel's [`ThreadCtx`]
/// and the rank's thread.
struct Handoff {
    slot: Mutex<Slot>,
    to_proc: Condvar,
    to_kernel: Condvar,
}

impl Handoff {
    fn new() -> Self {
        Handoff {
            slot: Mutex::new(Slot::default()),
            to_proc: Condvar::new(),
            to_kernel: Condvar::new(),
        }
    }

    /// Kernel side: publishes a grant, waking the rank if it is parked.
    /// Returns `Err(Hangup)` if the rank's thread already ended.
    fn grant(&self, grant: Grant) -> Result<(), Hangup> {
        let mut s = self.slot.lock().expect("handoff mutex poisoned");
        if s.proc_gone {
            return Err(Hangup);
        }
        debug_assert!(s.grant.is_none(), "grant published over a pending grant");
        s.grant = Some(grant);
        if s.proc_parked {
            s.park_wakes += 1;
            self.to_proc.notify_one();
        }
        Ok(())
    }

    /// Kernel side: takes the next request, parking until there is one.
    /// Returns `Err(Hangup)` if the rank's thread ended instead.
    fn recv_request(&self) -> Result<Request, Hangup> {
        let mut s = self.slot.lock().expect("handoff mutex poisoned");
        loop {
            if let Some(req) = s.request.take() {
                return Ok(req);
            }
            if s.proc_gone {
                return Err(Hangup);
            }
            s.kernel_parked = true;
            s = self.to_kernel.wait(s).expect("handoff mutex poisoned");
            s.kernel_parked = false;
        }
    }

    /// Rank side: publishes a request, waking the kernel if it is parked.
    /// Infallible: the kernel outlives every rank thread's use of the slot.
    fn send_request(&self, request: Request) {
        let mut s = self.slot.lock().expect("handoff mutex poisoned");
        debug_assert!(
            s.request.is_none(),
            "request published over a pending request"
        );
        s.request = Some(request);
        if s.kernel_parked {
            s.park_wakes += 1;
            self.to_kernel.notify_one();
        }
    }

    /// Rank side: takes the next grant, parking until there is one.
    fn wait_grant(&self) -> Grant {
        let mut s = self.slot.lock().expect("handoff mutex poisoned");
        loop {
            if let Some(grant) = s.grant.take() {
                return grant;
            }
            s.proc_parked = true;
            s = self.to_proc.wait(s).expect("handoff mutex poisoned");
            s.proc_parked = false;
        }
    }

    /// Rank side: marks the slot dead as the thread ends (normally or by a
    /// panic), leaves the thread's payload-clone count for the kernel, and
    /// wakes a kernel waiting for a request that will never come.
    fn hangup(&self, cloned: u64) {
        // Runs from a `Drop` during unwinding: never panic here, and the
        // slot's fields are valid after every single store.
        let mut s = self.slot.lock().unwrap_or_else(|e| e.into_inner());
        s.proc_gone = true;
        s.cloned = cloned;
        if s.kernel_parked {
            s.park_wakes += 1;
            self.to_kernel.notify_one();
        }
    }
}

/// Hangs up the rank side of the handoff when dropped. Created first on the
/// rank's thread, so it fires last on every way that thread can end: normal
/// return (after `Exit` is published), a user panic unwinding the entry
/// function, or an abort unwind — waking a kernel that would otherwise park
/// forever waiting for the next request.
struct HangupGuard(Arc<Handoff>);

impl Drop for HangupGuard {
    fn drop(&mut self) {
        self.0.hangup(message::clone_bytes());
    }
}

struct ThreadPort(Arc<Handoff>);

impl Port for ThreadPort {
    fn exchange(&mut self, req: Request) -> Grant {
        self.0.send_request(req);
        self.0.wait_grant()
    }
}

/// A rank running on a dedicated OS thread.
pub(crate) struct ThreadCtx {
    handoff: Arc<Handoff>,
    /// `Some` until the rank's thread has been joined.
    join: Option<JoinHandle<()>>,
}

impl ThreadCtx {
    /// Spawns the rank's thread; it parks at once, waiting for the first
    /// grant.
    pub(crate) fn spawn(id: ProcId, nprocs: usize, stack_size: usize, entry: Entry) -> Self {
        let handoff = Arc::new(Handoff::new());
        let rank_side = Arc::clone(&handoff);
        let join = std::thread::Builder::new()
            .name(format!("simproc-{}", id.0))
            .stack_size(stack_size)
            .spawn(move || {
                let _hangup = HangupGuard(Arc::clone(&rank_side));
                process::set_current_rank(Some(id.0));
                let first = rank_side.wait_grant();
                let port = Box::new(ThreadPort(Arc::clone(&rank_side)));
                let exit = process::run_rank(id, nprocs, port, first, entry);
                rank_side.send_request(exit);
            })
            .expect("failed to spawn simulated process thread");
        ThreadCtx {
            handoff,
            join: Some(join),
        }
    }

    /// Joins the ended thread, folds its payload-clone count into the
    /// calling (kernel) thread's, and returns its panic message if it
    /// panicked.
    fn join(&mut self) -> Option<String> {
        let failure = self
            .join
            .take()?
            .join()
            .err()
            .map(|payload| process::panic_message(&*payload));
        // Also reached from `Drop`: tolerate poison (every store to the slot
        // leaves it valid) rather than panic.
        let slot = self.handoff.slot.lock().unwrap_or_else(|e| e.into_inner());
        message::add_clone_bytes(slot.cloned);
        failure
    }
}

impl Context for ThreadCtx {
    fn resume(&mut self, grant: Grant) -> Result<Request, String> {
        let request = self
            .handoff
            .grant(grant)
            .and_then(|()| self.handoff.recv_request());
        match request {
            Ok(exit @ Request::Exit(_)) => {
                self.join();
                Ok(exit)
            }
            Ok(request) => Ok(request),
            Err(Hangup) => Err(self
                .join()
                .unwrap_or_else(|| "<process hung up without panicking>".to_string())),
        }
    }

    fn park_wakes(&self) -> u64 {
        self.handoff
            .slot
            .lock()
            .expect("handoff mutex poisoned")
            .park_wakes
    }
}

impl Drop for ThreadCtx {
    fn drop(&mut self) {
        // Still joinable means the rank is parked waiting for a grant (the
        // run is being torn down around it): unwind it, then reap it.
        if self.join.is_some() {
            let _ = self.handoff.grant(Grant::Abort);
            self.join();
        }
    }
}

/// Exhaustive model checking of the handoff slot (vendored loom shim).
///
/// Run with `RUSTFLAGS='--cfg loom' cargo test -p numagap-sim --lib loom_`.
/// Each test explores **every** interleaving of lock/condvar operations
/// between the kernel side, the process side, and shutdown; the model's
/// condvars never wake spuriously, so any reliance on a racy notify shows
/// up as a deadlock with the offending schedule attached.
#[cfg(all(loom, test))]
mod loom_tests {
    use super::*;
    use crate::time::SimTime;
    use crate::SimDuration;
    use loom::sync::Arc;
    use loom::thread;

    /// No lost wakeup on the grant path, and each grant is delivered
    /// exactly once: two grant/request rounds must complete under every
    /// interleaving (a lost or doubled grant deadlocks or trips the
    /// strict-alternation debug asserts).
    #[test]
    fn loom_two_rendezvous_rounds_deliver_each_grant_once() {
        loom::model(|| {
            let h = Arc::new(Handoff::new());
            let h2 = Arc::clone(&h);
            let proc_side = thread::spawn(move || {
                let g = h2.wait_grant();
                assert!(matches!(g, Grant::Proceed(t) if t == SimTime::from_nanos(7)));
                h2.send_request(Request::Compute(SimDuration::from_nanos(3)));
                let g = h2.wait_grant();
                assert!(matches!(g, Grant::Proceed(t) if t == SimTime::from_nanos(9)));
                h2.hangup(0);
            });
            h.grant(Grant::Proceed(SimTime::from_nanos(7)))
                .expect("process alive for first grant");
            match h.recv_request() {
                Ok(Request::Compute(d)) => assert_eq!(d, SimDuration::from_nanos(3)),
                other => panic!("wrong request, ok={}", other.is_ok()),
            }
            h.grant(Grant::Proceed(SimTime::from_nanos(9)))
                .expect("process alive for second grant");
            assert!(matches!(h.recv_request(), Err(Hangup)));
            proc_side.join().expect("process side");
        });
    }

    /// Shutdown racing a parked (or parking) kernel: `hangup` must wake a
    /// kernel waiting in `recv_request` under every interleaving — the
    /// schedule where the kernel checks `proc_gone`, then the hangup lands,
    /// then the kernel parks, is the classic lost-wakeup window.
    #[test]
    fn loom_hangup_always_wakes_a_waiting_kernel() {
        loom::model(|| {
            let h = Arc::new(Handoff::new());
            let h2 = Arc::clone(&h);
            let proc_side = thread::spawn(move || h2.hangup(0));
            assert!(matches!(h.recv_request(), Err(Hangup)));
            proc_side.join().expect("process side");
        });
    }

    /// A request published right before shutdown must never be lost to the
    /// concurrent hangup: the kernel drains the pending request first and
    /// only then observes `Hangup`, whatever the interleaving.
    #[test]
    fn loom_pending_request_wins_over_hangup() {
        loom::model(|| {
            let h = Arc::new(Handoff::new());
            let h2 = Arc::clone(&h);
            let proc_side = thread::spawn(move || {
                h2.send_request(Request::Compute(SimDuration::from_nanos(1)));
                h2.hangup(0);
            });
            match h.recv_request() {
                Ok(Request::Compute(d)) => assert_eq!(d, SimDuration::from_nanos(1)),
                other => panic!("request lost to hangup, ok={}", other.is_ok()),
            }
            assert!(matches!(h.recv_request(), Err(Hangup)));
            proc_side.join().expect("process side");
        });
    }

    /// Grant racing shutdown: under every interleaving the kernel either
    /// delivers the grant to a still-live process (which then consumes it
    /// and hangs up) or observes the hangup — never a silent drop on a live
    /// receiver, never a wake for a dead one.
    #[test]
    fn loom_grant_vs_hangup_is_delivered_or_reported() {
        loom::model(|| {
            let h = Arc::new(Handoff::new());
            let h2 = Arc::clone(&h);
            let proc_side = thread::spawn(move || {
                let g = h2.wait_grant();
                assert!(matches!(g, Grant::Proceed(t) if t == SimTime::from_nanos(5)));
                h2.hangup(0);
            });
            // The process only hangs up after consuming the grant, so the
            // kernel's publish must always succeed — Err(Hangup) here would
            // mean the slot died with a waiter still parked in wait_grant.
            h.grant(Grant::Proceed(SimTime::from_nanos(5)))
                .expect("grant must reach the waiting process");
            assert!(matches!(h.recv_request(), Err(Hangup)));
            proc_side.join().expect("process side");
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimTime;
    use std::sync::Arc;

    #[test]
    fn request_and_grant_round_trip_across_threads() {
        let h = Arc::new(Handoff::new());
        let h2 = Arc::clone(&h);
        let worker = std::thread::spawn(move || {
            // Process side: wait for a grant, answer with a request.
            let g = h2.wait_grant();
            assert!(matches!(g, Grant::Proceed(t) if t == SimTime::from_nanos(7)));
            h2.send_request(Request::Compute(crate::SimDuration::from_nanos(3)));
            h2.hangup(0);
        });
        h.grant(Grant::Proceed(SimTime::from_nanos(7))).unwrap();
        match h.recv_request() {
            Ok(Request::Compute(d)) => assert_eq!(d, crate::SimDuration::from_nanos(3)),
            other => panic!("unexpected: {:?}", other.is_ok()),
        }
        assert!(matches!(h.recv_request(), Err(Hangup)));
        worker.join().unwrap();
    }

    #[test]
    fn hangup_wakes_a_parked_kernel() {
        let h = Arc::new(Handoff::new());
        let h2 = Arc::clone(&h);
        let worker = std::thread::spawn(move || {
            // Give the kernel time to park.
            std::thread::sleep(std::time::Duration::from_millis(20));
            h2.hangup(0);
        });
        assert!(matches!(h.recv_request(), Err(Hangup)));
        worker.join().unwrap();
    }

    #[test]
    fn grant_after_hangup_reports_it() {
        let h = Handoff::new();
        h.hangup(0);
        assert!(matches!(h.grant(Grant::Abort), Err(Hangup)));
    }
}
