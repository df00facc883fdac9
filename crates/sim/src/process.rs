//! The process-side view of the simulation: [`ProcCtx`].
//!
//! Each simulated processor is an execution context with a stack of its own
//! (see [`crate::sched`]) that the kernel resumes with a [`Grant`] and that
//! runs until it hands over its next [`Request`]. The kernel resumes exactly
//! one process at a time, which keeps the whole run deterministic regardless
//! of host scheduling.
//!
//! Only an operation whose outcome the rest of the machine decides suspends
//! the rank: compute (other ranks run meanwhile), receive, poll and exit. A
//! send does not. As in the paper's Panda layer it is asynchronous: the rank
//! pays the sender-side overhead on its own clock, leaves the message in the
//! run's [`Outbox`] and keeps running; the kernel posts the outbox, in the
//! order the rank filled it, when the rank next hands over, before it serves
//! the request. Nothing else happens in between, so the run is what it would
//! be if every send were served on the spot.

use std::any::Any;
use std::cell::Cell;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use crate::message::{Filter, Message, Payload, Tag};
use crate::time::{SimDuration, SimTime};
use crate::ProcId;

/// Requests a process hands to the kernel when it suspends.
pub(crate) enum Request {
    /// Advance this process's clock by the given amount of compute time.
    Compute(SimDuration),
    /// Block until a matching message is available.
    Recv(Filter),
    /// Poll for a matching message without blocking.
    TryRecv(Filter),
    /// The process finished with this result.
    Exit(Box<dyn Any + Send>),
}

/// What a rank hands the kernel when it suspends: its next request, and its
/// clock as it advanced on its own since the last grant (by the overhead of
/// each send in the outbox), which the kernel checks against its own.
pub(crate) struct Handover {
    pub(crate) now: SimTime,
    pub(crate) request: Request,
}

/// A send a rank made and the kernel has not posted yet.
pub(crate) struct Posted {
    pub(crate) dst: ProcId,
    pub(crate) tag: Tag,
    pub(crate) wire_bytes: u64,
    pub(crate) payload: Payload,
}

/// The sends made since the last hand-over: one buffer per run, shared by
/// its ranks and its kernel. At most one rank runs at a time and the kernel
/// waits while it does, so the buffer only ever holds the sends of the rank
/// that ran last, in the order it made them, and its lock is never
/// contended: it is only there because a rank may run on a thread of its
/// own.
pub(crate) struct Outbox {
    sends: Mutex<Vec<Posted>>,
    /// What a send costs its sender: the run's [`crate::Network::send_overhead`].
    pub(crate) send_overhead: SimDuration,
}

impl Outbox {
    pub(crate) fn new(send_overhead: SimDuration) -> Self {
        Outbox {
            sends: Mutex::new(Vec::new()),
            send_overhead,
        }
    }

    /// The buffer. A panic cannot leave it half-updated (nothing that holds
    /// the lock runs rank code), so a poisoned lock is taken as it is.
    fn sends(&self) -> MutexGuard<'_, Vec<Posted>> {
        self.sends.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Swaps the buffer with `other`: the kernel takes the posted sends and
    /// leaves its own (drained) buffer behind, so neither allocates again.
    pub(crate) fn swap(&self, other: &mut Vec<Posted>) {
        std::mem::swap(&mut *self.sends(), other);
    }
}

/// Kernel replies completing a request.
pub(crate) enum Grant {
    /// The operation completed; the process clock is now this.
    Proceed(SimTime),
    /// A `Recv` completed with this message.
    Msg(SimTime, Message),
    /// A `TryRecv` completed (possibly empty-handed).
    TryMsg(SimTime, Option<Message>),
    /// The kernel is tearing the run down (deadlock / time limit); unwind.
    Abort,
}

/// Marker panic payload used to silently unwind a process when the kernel
/// aborts a run. Never observed by user code.
pub(crate) struct AbortToken;

/// Unwinds the calling rank out of its entry function. Skips the panic hook:
/// an abort is not a bug to report, and it can run from a context's `Drop`
/// while the thread is already unwinding.
fn abort_rank() -> ! {
    std::panic::resume_unwind(Box::new(AbortToken))
}

/// A rank's type-erased entry function.
pub(crate) type Entry = Box<dyn FnOnce(&mut ProcCtx) -> Box<dyn Any + Send> + Send + 'static>;

/// The process end of the kernel rendezvous: suspends the rank with its
/// hand-over and returns the grant the kernel resumes it with. One
/// implementation per kind of execution context.
pub(crate) trait Port {
    fn exchange(&mut self, handover: Handover) -> Grant;
}

thread_local! {
    /// The rank whose code is running on this thread, published by the
    /// simulator for embedders that keep per-rank state in thread-locals.
    static CURRENT_RANK: Cell<Option<usize>> = const { Cell::new(None) };
}

/// The rank of the simulated process currently running on this thread, or
/// `None` outside a rank body. With fibers every rank of a run shares the
/// thread that called [`crate::Sim::run`], so thread-local state that belongs
/// to a rank (the runtime crate's lint sink, for example) must be keyed by
/// this rather than by the thread.
pub fn current_rank() -> Option<usize> {
    CURRENT_RANK.with(Cell::get)
}

/// Publishes the rank about to run on this thread; returns the previous one.
pub(crate) fn set_current_rank(rank: Option<usize>) -> Option<usize> {
    CURRENT_RANK.with(|c| c.replace(rank))
}

/// Runs one rank from its first grant to its `Exit` hand-over — the body
/// every execution context wraps. Unwinds on a user panic or a kernel abort.
pub(crate) fn run_rank(
    id: ProcId,
    nprocs: usize,
    outbox: Arc<Outbox>,
    port: Box<dyn Port>,
    first: Grant,
    entry: Entry,
) -> Handover {
    let mut ctx = ProcCtx {
        id,
        nprocs,
        now: SimTime::ZERO,
        outbox,
        port,
    };
    match first {
        Grant::Proceed(t) => ctx.now = t,
        Grant::Abort => abort_rank(),
        _ => unreachable!("initial grant must be a proceed"),
    }
    let request = Request::Exit(entry(&mut ctx));
    Handover {
        now: ctx.now,
        request,
    }
}

/// Renders a caught panic payload as a rank's failure diagnostic.
pub(crate) fn panic_message(payload: &(dyn Any + Send)) -> String {
    if payload.is::<AbortToken>() {
        "aborted by kernel".to_string()
    } else if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// Handle through which a simulated process interacts with the virtual world.
///
/// A `ProcCtx` is passed by the kernel to each process entry function. All of
/// its methods advance or query *virtual* time; none of them touch wall-clock
/// time.
///
/// # Examples
///
/// ```
/// use numagap_sim::{Sim, IdealNetwork, SimDuration, Tag, Filter};
///
/// let mut sim = Sim::new(IdealNetwork::instantaneous(2));
/// sim.spawn(|ctx| {
///     ctx.send(numagap_sim::ProcId(1), Tag::app(0), 123u64, 8);
/// });
/// sim.spawn(|ctx| {
///     let m = ctx.recv(Filter::tag(Tag::app(0)));
///     assert_eq!(m.expect_clone::<u64>(), 123);
/// });
/// sim.run().unwrap();
/// ```
pub struct ProcCtx {
    id: ProcId,
    nprocs: usize,
    now: SimTime,
    outbox: Arc<Outbox>,
    port: Box<dyn Port>,
}

impl std::fmt::Debug for ProcCtx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProcCtx")
            .field("rank", &self.id.0)
            .field("nprocs", &self.nprocs)
            .field("now", &self.now)
            .finish_non_exhaustive()
    }
}

impl ProcCtx {
    /// This process's rank, in `0..nprocs`.
    pub fn rank(&self) -> usize {
        self.id.0
    }

    /// This process's id.
    pub fn id(&self) -> ProcId {
        self.id
    }

    /// Total number of processes in the run.
    pub fn nprocs(&self) -> usize {
        self.nprocs
    }

    /// Current virtual time at this process.
    pub fn now(&self) -> SimTime {
        self.now
    }

    fn rendezvous(&mut self, request: Request) -> Grant {
        let now = self.now;
        match self.port.exchange(Handover { now, request }) {
            Grant::Abort => abort_rank(),
            grant => grant,
        }
    }

    /// Spends `d` of virtual CPU time.
    pub fn compute(&mut self, d: SimDuration) {
        if d.is_zero() {
            return;
        }
        match self.rendezvous(Request::Compute(d)) {
            Grant::Proceed(now) => self.now = now,
            _ => unreachable!("compute answered with a non-proceed grant"),
        }
    }

    /// Sends `value` to `dst` with matching `tag`, charging `wire_bytes` on
    /// the network. Asynchronous: returns as soon as the sender-side software
    /// overhead has been paid; delivery happens later in virtual time. The
    /// rank does not suspend (see the module docs).
    pub fn send<T: Any + Send + Sync>(&mut self, dst: ProcId, tag: Tag, value: T, wire_bytes: u64) {
        self.send_payload(dst, tag, Arc::new(value), wire_bytes);
    }

    /// Sends an already-shared payload: a value sent to many ranks is one
    /// allocation, whatever the fan-out.
    pub fn send_payload(&mut self, dst: ProcId, tag: Tag, payload: Payload, wire_bytes: u64) {
        assert!(
            dst.0 < self.nprocs,
            "send to rank {} but only {} processes exist",
            dst.0,
            self.nprocs
        );
        let send = Posted {
            dst,
            tag,
            wire_bytes,
            payload,
        };
        self.outbox.sends().push(send);
        self.now += self.outbox.send_overhead;
    }

    /// Blocks until a message matching `filter` arrives, and returns it.
    /// Messages are matched in arrival (FIFO) order.
    pub fn recv(&mut self, filter: Filter) -> Message {
        match self.rendezvous(Request::Recv(filter)) {
            Grant::Msg(now, msg) => {
                self.now = now;
                msg
            }
            _ => unreachable!("recv answered with a non-message grant"),
        }
    }

    /// Returns a matching message if one has already arrived, without
    /// blocking or advancing time (beyond receive overhead on a hit).
    pub fn try_recv(&mut self, filter: Filter) -> Option<Message> {
        match self.rendezvous(Request::TryRecv(filter)) {
            Grant::TryMsg(now, msg) => {
                self.now = now;
                msg
            }
            _ => unreachable!("try_recv answered with a non-trymsg grant"),
        }
    }

    /// Convenience: receives a message with `tag` from anyone and clones out
    /// a typed payload.
    ///
    /// # Panics
    ///
    /// Panics if the payload type does not match `T` (a protocol bug).
    pub fn recv_typed<T: Any + Send + Sync + Clone>(&mut self, tag: Tag) -> (ProcId, T) {
        let m = self.recv(Filter::tag(tag));
        let v = m.expect_clone::<T>();
        (m.src, v)
    }
}
