//! Kernel event observation: the hook the communication sanitizer (and any
//! other online analysis) attaches to.
//!
//! An [`Observer`] receives a callback for every communication-relevant
//! kernel event, in the kernel's deterministic event order. When no observer
//! is installed the kernel pays a single `Option` check per event, so runs
//! without analysis are unaffected.
//!
//! Observers run inside the kernel loop, on the thread that called
//! `Sim::run`, and must not block; they should record and return. A run
//! borrows its observer: pass `&mut observer` (any `&mut O` is itself an
//! [`Observer`]), and once the run returns — `Ok` or `Err`, so an aborted
//! run (deadlock, time limit) too — the caller reads the observer directly.

use crate::message::{Filter, Message};
use crate::time::SimTime;
use crate::ProcId;

/// A sink for kernel communication events.
///
/// All methods have empty default bodies so implementors override only what
/// they need. Events arrive in deterministic simulation order: a message's
/// `on_send` always precedes its `on_recv_matched`, and `on_finish` (if the
/// run completes) follows every other event.
pub trait Observer {
    /// Process `src` executed a send of `wire_bytes` to `dst` at virtual
    /// time `now`. Fires at the moment the sending rank performs the call —
    /// in the rank's program order — *before* the message's sequence number
    /// or arrival are known: the kernel defers link booking to the end of
    /// the timestamp (see [`Observer::on_send`]). Recorders that need each
    /// send's position in its rank's op stream anchor it here and fill in
    /// the sequence number when `on_send` fires.
    fn on_send_posted(&mut self, src: ProcId, dst: ProcId, wire_bytes: u64, now: SimTime) {
        let _ = (src, dst, wire_bytes, now);
    }

    /// A message was handed to the network. `msg.seq` uniquely identifies it
    /// for later correlation with [`Observer::on_recv_matched`]. Fires when
    /// the kernel books the transfer at the timestamp boundary, in canonical
    /// `(departure, rank, send index)` order — which is each rank's program
    /// order when restricted to that rank's sends, but interleaves *across*
    /// ranks independently of execution order, and runs after any
    /// same-timestamp [`Observer::on_compute`] / [`Observer::on_recv_posted`]
    /// callbacks from the sending rank.
    fn on_send(&mut self, dst: ProcId, msg: &Message) {
        let _ = (dst, msg);
    }

    /// Process `p` finished a `compute` call spanning `[start, end]` in
    /// virtual time. Fires once per call — zero-duration computes included,
    /// because each one still costs a kernel scheduling slot, and replay
    /// tools that mirror the kernel's event order need the exact count.
    fn on_compute(&mut self, p: ProcId, start: SimTime, end: SimTime) {
        let _ = (p, start, end);
    }

    /// Process `p` posted a receive with `filter` at virtual time `now`.
    /// `blocking` distinguishes `recv` from `try_recv` polls.
    fn on_recv_posted(&mut self, p: ProcId, filter: &Filter, blocking: bool, now: SimTime) {
        let _ = (p, filter, blocking, now);
    }

    /// A posted receive on `p` matched (consumed) `msg` at virtual time
    /// `now`. Never called for `try_recv` polls that found nothing.
    fn on_recv_matched(&mut self, p: ProcId, msg: &Message, now: SimTime) {
        let _ = (p, msg, now);
    }

    /// Process `p` exited normally at virtual time `now`.
    fn on_exit(&mut self, p: ProcId, now: SimTime) {
        let _ = (p, now);
    }

    /// The run completed successfully (every process exited) at `now`.
    /// Not called when the run aborts with an error.
    fn on_finish(&mut self, now: SimTime) {
        let _ = now;
    }
}

/// A borrowed observer observes: `sim.set_observer(Box::new(&mut obs))`
/// lends `obs` to one run and leaves it with the caller afterwards.
impl<O: Observer + ?Sized> Observer for &mut O {
    fn on_send_posted(&mut self, src: ProcId, dst: ProcId, wire_bytes: u64, now: SimTime) {
        (**self).on_send_posted(src, dst, wire_bytes, now);
    }
    fn on_send(&mut self, dst: ProcId, msg: &Message) {
        (**self).on_send(dst, msg);
    }
    fn on_compute(&mut self, p: ProcId, start: SimTime, end: SimTime) {
        (**self).on_compute(p, start, end);
    }
    fn on_recv_posted(&mut self, p: ProcId, filter: &Filter, blocking: bool, now: SimTime) {
        (**self).on_recv_posted(p, filter, blocking, now);
    }
    fn on_recv_matched(&mut self, p: ProcId, msg: &Message, now: SimTime) {
        (**self).on_recv_matched(p, msg, now);
    }
    fn on_exit(&mut self, p: ProcId, now: SimTime) {
        (**self).on_exit(p, now);
    }
    fn on_finish(&mut self, now: SimTime) {
        (**self).on_finish(now);
    }
}
