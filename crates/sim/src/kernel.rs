//! The discrete-event kernel: one driver of the [`EventCore`], doing the
//! per-event work of a live run — resuming ranks, mailboxes, link
//! booking, and the observer.
//!
//! Determinism: the core orders every event and every deferred booking
//! (see [`crate::equeue`]) and the kernel runs exactly one process at a
//! time, so a run's outcome depends only on its inputs — never on host
//! thread scheduling. This is verified by integration tests that compare
//! repeated runs bit-for-bit, and pinned by the golden makespan suite
//! (`tests/golden_makespan.rs`).
//!
//! The hot path is built from three pieces, each chosen for the strict
//! alternation the rendezvous protocol guarantees:
//!
//! * [`crate::sched`] — the event loop resumes the rank an event names and
//!   gets its next request back as the return value; by default the rank is
//!   a fiber on this very thread, so a virtual context switch is two stack
//!   switches and nothing is handed to another thread. A send is not a
//!   switch: the rank leaves it in the run's outbox, and the kernel posts
//!   the outbox whenever a resume returns (see [`crate::process`]). A
//!   resume of a rank that has not run for a while is cold: at 4096 ranks
//!   its fiber's control block and top stack page are out of the cache and
//!   the TLB, and those misses were about a third of a run. So after each
//!   pop the kernel peeks at the next event and has the rank it will
//!   resume prefetch its control block and the 2 KiB of stack below it
//!   ([`Context::prefetch`]), while the current event runs.
//! * [`crate::mailbox`] — one arrival-ordered queue per rank, scanned
//!   front to back; a message whose receiver is already blocked on a
//!   filter that accepts it never enters it.
//! * [`crate::equeue`] — one binary heap in `(time, tie, seq)` order, the
//!   order the what-if replayer's event loop keeps too. Its entries are
//!   keys: a delivery names its message by index into the run's in-flight
//!   slab, so a heap operation moves 40 bytes, not a whole message.
//!
//! The kernel self-profiles into [`HotProfile`]; the golden suite pins
//! those counters exactly per app cell (`tests/golden/counts.txt`).

use std::any::Any;
use std::sync::Arc;

use crate::equeue::{EventCore, TieBreak};
use crate::error::{PendingMessage, ProcFailure, SimError, WaitState};
use crate::mailbox::Mailbox;
use crate::message::{self, Filter, Message};
use crate::network::Network;
use crate::observe::Observer;
use crate::process::{self, Entry, Grant, Handover, Outbox, Posted, ProcCtx, Request};
use crate::sched::{Context, RankCtx};
use crate::time::{SimDuration, SimTime};
use crate::ProcId;

/// Per-process accounting collected by the kernel.
#[derive(Debug, Clone, Default)]
pub struct ProcStats {
    /// Virtual time spent in `compute`.
    pub compute: SimDuration,
    /// Virtual time spent paying sender-side software overhead in `send`.
    pub send_overhead: SimDuration,
    /// Virtual time spent paying receiver-side software overhead.
    pub recv_overhead: SimDuration,
    /// Virtual time spent blocked in `recv`.
    pub blocked: SimDuration,
    /// Messages sent.
    pub msgs_sent: u64,
    /// Payload bytes sent (as declared by the sender; excludes headers).
    pub bytes_sent: u64,
    /// Messages received by the application (not merely delivered).
    pub msgs_received: u64,
    /// Virtual time at which this process exited.
    pub exit_at: SimTime,
}

/// Whole-run accounting collected by the kernel.
///
/// Deterministic for a given program and spec: the benchmark pipeline
/// records these per experiment cell and compares them exactly across
/// runs, so the struct is `Copy + Eq` on purpose.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KernelStats {
    /// Total events processed.
    pub events: u64,
    /// Total messages transferred.
    pub messages: u64,
    /// Total payload bytes transferred.
    pub bytes: u64,
}

/// Cheap self-profiling counters of the kernel's own real-time hot path,
/// pinned per app cell by the golden suite (`tests/golden/counts.txt`).
///
/// Every field is a pure function of the simulated program and spec —
/// deterministic across runs, machines and rank contexts, and safe to
/// compare exactly.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HotProfile {
    /// Virtual context switches: grants a process was resumed with.
    pub switches: u64,
    /// Operations serviced for processes: each request a process suspended
    /// with, and each send it posted (a send does not suspend it).
    pub requests: u64,
    /// Constant 0: nothing measures it. It counted wakes of a parked peer
    /// when thread-backed ranks met the kernel in a hand-rolled slot; they
    /// meet in std channels now, and a fiber never had a thread to wake.
    /// Still a field only because `benchmark/src/probes.rs` reads it.
    pub park_wakes: u64,
    /// Events pushed onto the event heap.
    pub heap_pushes: u64,
    /// Events popped off the event heap.
    pub heap_pops: u64,
    /// Peak number of queued events.
    pub queue_peak: u64,
    /// Parked messages examined while matching receives.
    pub mailbox_scanned: u64,
    /// Deliveries matched directly against a blocked receiver's filter,
    /// skipping the mailbox entirely.
    pub mailbox_fast: u64,
    /// Payload bytes deep-copied out of messages by receivers
    /// (`Message::expect_clone`); the zero-copy `expect_shared` path adds
    /// nothing here.
    pub bytes_cloned: u64,
}

/// The result of a completed simulation run.
pub struct RunOutcome<N> {
    /// Virtual makespan: the latest process exit time.
    pub elapsed: SimDuration,
    /// Per-rank result slots: the entry function's return value
    /// (type-erased), or the diagnostic for a rank that panicked mid-run.
    /// Index `i` always belongs to rank `i` — a failed rank never shifts
    /// its peers' results.
    pub results: Vec<Result<Box<dyn Any + Send>, ProcFailure>>,
    /// Per-rank accounting.
    pub proc_stats: Vec<ProcStats>,
    /// Whole-run accounting.
    pub kernel_stats: KernelStats,
    /// Kernel hot-path self-profile.
    pub profile: HotProfile,
    /// The network model, returned so callers can read its statistics.
    pub network: N,
    /// Number of OS threads rank code executed on: 1 where ranks are fibers
    /// (x86-64 Linux: the thread that called [`Sim::run`]; the run created
    /// none), the rank count elsewhere (one spawned per rank, with the
    /// kernel's own thread on top).
    pub sim_threads: usize,
}

impl<N: std::fmt::Debug> std::fmt::Debug for RunOutcome<N> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RunOutcome")
            .field("elapsed", &self.elapsed)
            .field("nprocs", &self.results.len())
            .field("kernel_stats", &self.kernel_stats)
            .field("network", &self.network)
            .field("sim_threads", &self.sim_threads)
            .finish_non_exhaustive()
    }
}

#[derive(Clone)]
enum ProcState {
    /// Waiting for a scheduled `Wake` (start or end of a compute).
    Idle,
    /// Blocked in `recv` until a matching message arrives.
    Blocked(Filter),
    /// Exited (normally or by panic).
    Done,
}

struct ProcSlot {
    ctx: RankCtx,
    mailbox: Mailbox,
    state: ProcState,
    clock: SimTime,
    block_start: SimTime,
    stats: ProcStats,
    result: Option<Box<dyn Any + Send>>,
    failure: Option<ProcFailure>,
}

/// A configured simulation, ready to run.
///
/// Spawn one entry function per simulated processor with [`Sim::spawn`], then
/// call [`Sim::run`].
///
/// # Examples
///
/// ```
/// use numagap_sim::{Sim, IdealNetwork, SimDuration};
///
/// let mut sim = Sim::new(IdealNetwork::instantaneous(1));
/// sim.spawn(|ctx| {
///     ctx.compute(SimDuration::from_millis(5));
///     ctx.now().as_nanos()
/// });
/// let out = sim.run().unwrap();
/// assert_eq!(out.elapsed, SimDuration::from_millis(5));
/// ```
pub struct Sim<'o, N: Network> {
    net: N,
    entries: Vec<Entry>,
    time_limit: Option<SimTime>,
    stack_size: usize,
    observer: Option<Box<dyn Observer + 'o>>,
    tie_break: TieBreak,
}

impl<N: Network + std::fmt::Debug> std::fmt::Debug for Sim<'_, N> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sim")
            .field("network", &self.net)
            .field("spawned", &self.entries.len())
            .field("time_limit", &self.time_limit)
            .finish_non_exhaustive()
    }
}

impl<'o, N: Network> Sim<'o, N> {
    /// Creates a simulation over the given network model.
    pub fn new(net: N) -> Self {
        Sim {
            net,
            entries: Vec::new(),
            time_limit: None,
            stack_size: 8 << 20,
            observer: None,
            tie_break: TieBreak::Fifo,
        }
    }

    /// Sets the tiebreak policy for equal-timestamp events (default
    /// [`TieBreak::Fifo`], the deterministic native order).
    ///
    /// The adversarial policies only permute events that share a virtual
    /// timestamp; a program whose outcome is a pure function of its inputs
    /// must produce a bit-identical result under every policy. `numagap
    /// check --perturb` uses this hook to prove golden values are invariant
    /// under scheduler choice rather than accidents of insertion order.
    pub fn tie_break(&mut self, policy: TieBreak) -> &mut Self {
        self.tie_break = policy;
        self
    }

    /// Installs an [`Observer`] that receives every communication event of
    /// the run (sends, posted and matched receives, exits). At most one
    /// observer is active; installing a second replaces the first. Runs
    /// without an observer pay only a per-event `Option` check. Pass
    /// `Box::new(&mut observer)` to lend one for the run and read it after
    /// [`Sim::run`] returns, whether the run completed or aborted.
    pub fn set_observer(&mut self, observer: Box<dyn Observer + 'o>) -> &mut Self {
        self.observer = Some(observer);
        self
    }

    /// Aborts the run with [`SimError::TimeLimit`] if virtual time exceeds
    /// `limit`.
    pub fn time_limit(&mut self, limit: SimTime) -> &mut Self {
        self.time_limit = Some(limit);
        self
    }

    /// Sets the host stack size of every rank (default 8 MiB): the rank's
    /// fiber stack, or its thread's stack on hosts without fibers.
    /// A fiber stack is a mapping of its own with a guard page below it: a
    /// rank that overflows it kills the process with `SIGSEGV`, so size it
    /// for the deepest call chain a rank body makes. Pages a rank never
    /// touches cost address space, not memory.
    pub fn stack_size(&mut self, bytes: usize) -> &mut Self {
        self.stack_size = bytes;
        self
    }

    /// Registers the entry function for the next rank. Ranks are assigned in
    /// spawn order, starting at 0.
    ///
    /// # Panics
    ///
    /// Panics if more processes are spawned than the network has endpoints.
    pub fn spawn<F, R>(&mut self, f: F) -> ProcId
    where
        F: FnOnce(&mut ProcCtx) -> R + Send + 'static,
        R: Send + 'static,
    {
        assert!(
            self.entries.len() < self.net.num_procs(),
            "cannot spawn more than {} processes on this network",
            self.net.num_procs()
        );
        let id = ProcId(self.entries.len());
        self.entries
            .push(Box::new(move |ctx| Box::new(f(ctx)) as Box<dyn Any + Send>));
        id
    }

    /// Runs the simulation to completion.
    ///
    /// A rank that panics mid-run does not abort the machine: its result
    /// slot carries the diagnostic ([`ProcFailure`]) and every other rank
    /// keeps running. Only when the panic strands the *rest* of the machine
    /// (peers blocked forever on the dead rank) does the run fail, with
    /// [`SimError::ProcessPanicked`] naming the root cause rather than the
    /// collateral deadlock.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Deadlock`] if all live processes are blocked with
    /// no pending events, [`SimError::TimeLimit`] if the configured limit is
    /// exceeded, and [`SimError::ProcessPanicked`] if a panicking entry
    /// function halted the rest of the run.
    pub fn run(self) -> Result<RunOutcome<N>, SimError> {
        let _host = HostLocals::borrow();
        let mut core = EventCore::new(self.tie_break);
        core.reset(self.entries.len(), |rank| EventKind::Wake(ProcId(rank)));
        Kernel::start(self).run(core)
    }
}

/// The calling thread's per-rank thread-locals, borrowed for one run: ranks
/// publish themselves and count their payload clones on this thread (fibers
/// directly, rank threads when they are joined), so a run nested inside a
/// rank body, or following another on the same thread, must find the clone
/// counter at zero and leave both exactly as it found them.
struct HostLocals {
    rank: Option<usize>,
    cloned: u64,
}

impl HostLocals {
    fn borrow() -> Self {
        HostLocals {
            rank: process::current_rank(),
            cloned: message::swap_clone_bytes(0),
        }
    }
}

impl Drop for HostLocals {
    fn drop(&mut self) {
        process::set_current_rank(self.rank);
        message::swap_clone_bytes(self.cloned);
    }
}

/// What the kernel's events do: resume a rank, or hand a message in flight
/// (by its index in [`InFlight`]) to its receiver.
enum EventKind {
    Wake(ProcId),
    Deliver(usize),
}

// A heap entry is its 24-byte `(time, tie, seq)` key and this.
const _: () = assert!(std::mem::size_of::<EventKind>() <= 16);

/// The core holds each posted send's stateful network booking until the end
/// of the timestamp it was issued in (its departure and sender are the
/// core's sort key). The sender kept running, its clock advanced by
/// [`Network::send_overhead`]; what remains — link acquisition and
/// scheduling the delivery — is [`Kernel::book`]'s.
type Core = EventCore<EventKind, Posted>;

/// Booked messages not yet delivered, each with its receiver, in slots a
/// delivery frees for the next booking.
#[derive(Default)]
struct InFlight {
    slots: Vec<Option<(ProcId, Message)>>,
    free: Vec<usize>,
}

impl InFlight {
    fn insert(&mut self, dst: ProcId, msg: Message) -> usize {
        let entry = Some((dst, msg));
        match self.free.pop() {
            Some(slot) => {
                self.slots[slot] = entry;
                slot
            }
            None => {
                self.slots.push(entry);
                self.slots.len() - 1
            }
        }
    }

    /// The receiver of the message in `slot`, if one is there.
    fn receiver(&self, slot: usize) -> Option<ProcId> {
        self.slots.get(slot)?.as_ref().map(|&(dst, _)| dst)
    }

    fn take(&mut self, slot: usize) -> (ProcId, Message) {
        let entry = self.slots[slot]
            .take()
            .expect("a delivery names a message in flight");
        self.free.push(slot);
        entry
    }
}

struct Kernel<'o, N: Network> {
    net: N,
    slots: Vec<ProcSlot>,
    /// The run's one outbox, which every rank sends into.
    outbox: Arc<Outbox>,
    /// The kernel's half of the outbox's double buffer: empty between
    /// posts.
    posting: Vec<Posted>,
    in_flight: InFlight,
    msg_seq: u64,
    live: usize,
    time_limit: Option<SimTime>,
    kstats: KernelStats,
    profile: HotProfile,
    /// First rank whose panic was harvested, in detection order.
    first_failure: Option<usize>,
    observer: Option<Box<dyn Observer + 'o>>,
}

impl<'o, N: Network> Kernel<'o, N> {
    fn start(sim: Sim<'o, N>) -> Self {
        let nprocs = sim.entries.len();
        let outbox = Arc::new(Outbox::new(sim.net.send_overhead()));
        let slots = sim
            .entries
            .into_iter()
            .enumerate()
            .map(|(rank, entry)| ProcSlot {
                ctx: RankCtx::spawn(
                    ProcId(rank),
                    nprocs,
                    sim.stack_size,
                    Arc::clone(&outbox),
                    entry,
                ),
                mailbox: Mailbox::default(),
                state: ProcState::Idle,
                clock: SimTime::ZERO,
                block_start: SimTime::ZERO,
                stats: ProcStats::default(),
                result: None,
                failure: None,
            })
            .collect();
        Kernel {
            net: sim.net,
            slots,
            outbox,
            posting: Vec::new(),
            in_flight: InFlight::default(),
            msg_seq: 0,
            live: nprocs,
            time_limit: sim.time_limit,
            kstats: KernelStats::default(),
            profile: HotProfile::default(),
            first_failure: None,
            observer: sim.observer,
        }
    }

    /// Runs process `p` with `grant` until it suspends with its next
    /// request: one virtual context switch, and the only place the kernel
    /// enters rank code. The sends the rank made meanwhile are posted first,
    /// even when it died making no request: a rank that ends without an
    /// `Exit` (its entry function panicked) is harvested as failed and
    /// yields `None`.
    fn resume(&mut self, core: &mut Core, p: ProcId, grant: Grant) -> Option<Request> {
        self.profile.switches += 1;
        let handed = self.slots[p.0].ctx.resume(grant);
        self.post_sends(core, p);
        match handed {
            Ok(Handover { now, request }) => {
                debug_assert_eq!(
                    self.slots[p.0].clock, now,
                    "rank {p} handed over a clock the kernel does not hold"
                );
                self.profile.requests += 1;
                Some(request)
            }
            Err(message) => {
                self.harvest_failure(p, message);
                None
            }
        }
    }

    /// Posts the sends rank `p` left in the outbox, in the order it made
    /// them: each departs at the rank's clock, which then advances by the
    /// send overhead — as the rank's own clock did — and its booking is
    /// held to the end of the timestamp (see [`Kernel::book`]).
    fn post_sends(&mut self, core: &mut Core, p: ProcId) {
        self.outbox.swap(&mut self.posting);
        let overhead = self.outbox.send_overhead;
        let slot = &mut self.slots[p.0];
        for send in self.posting.drain(..) {
            let sent_at = slot.clock;
            if let Some(obs) = self.observer.as_mut() {
                obs.on_send_posted(p, send.dst, send.wire_bytes, sent_at);
            }
            slot.stats.msgs_sent += 1;
            slot.stats.bytes_sent += send.wire_bytes;
            slot.stats.send_overhead += overhead;
            slot.clock = sent_at + overhead;
            self.kstats.messages += 1;
            self.kstats.bytes += send.wire_bytes;
            self.profile.requests += 1;
            core.defer(sent_at, p.0, send);
        }
    }

    /// Books one deferred send, handed back by the core in canonical
    /// `(departure time, sender rank, per-rank send index)` order — a pure
    /// function of application behavior, independent of the event tiebreak
    /// policy. This is what makes virtual time invariant under schedule
    /// perturbation ([`TieBreak`]): same-instant transfers contending for a
    /// FIFO link resource are always arbitrated in the same order no matter
    /// which order the kernel happened to run their senders in. Verified
    /// end to end by the tiebreak-invariance suite and `numagap check
    /// --perturb`.
    fn book(&mut self, core: &mut Core, sent_at: SimTime, src: usize, send: Posted) {
        let (src, dst, tag, wire_bytes) = (ProcId(src), send.dst, send.tag, send.wire_bytes);
        let arrival = self.net.transfer(src, dst, wire_bytes, sent_at);
        debug_assert!(arrival >= sent_at);
        let msg = Message {
            seq: self.msg_seq,
            src,
            tag,
            wire_bytes,
            sent_at,
            arrived_at: arrival,
            payload: send.payload,
        };
        self.msg_seq += 1;
        if let Some(obs) = self.observer.as_mut() {
            obs.on_send(dst, &msg);
        }
        core.schedule(arrival, EventKind::Deliver(self.in_flight.insert(dst, msg)));
    }

    /// The event loop. Every early `return Err` below drops the kernel with
    /// ranks still suspended mid-body; dropping a live rank's context
    /// unwinds it (see [`RankCtx`]), so an aborted run still runs every
    /// destructor on every rank's stack before `Sim::run` returns.
    fn run(mut self, mut core: Core) -> Result<RunOutcome<N>, SimError> {
        // The core books held sends before it pops past their timestamp,
        // and before it reports the machine idle: a booking may schedule a
        // delivery that unblocks an otherwise "deadlocked" receiver.
        while let Some(event) = core.pop(|core, at, src, send| self.book(core, at, src, send)) {
            if let Some(limit) = self.time_limit {
                if core.now() > limit {
                    if let Some(err) = self.failure_error() {
                        return Err(err);
                    }
                    return Err(SimError::TimeLimit { limit });
                }
            }
            self.kstats.events += 1;
            self.prefetch_next(&core);
            match event {
                EventKind::Wake(p) => {
                    if matches!(self.slots[p.0].state, ProcState::Done) {
                        // A panicked process cannot leave a wake behind (it
                        // held control when it died), but stay defensive.
                        debug_assert!(false, "wake for an exited process");
                        continue;
                    }
                    let clock = self.slots[p.0].clock.max(core.now());
                    self.slots[p.0].clock = clock;
                    self.service(&mut core, p, Grant::Proceed(clock));
                }
                EventKind::Deliver(slot) => {
                    let (p, msg) = self.in_flight.take(slot);
                    self.deliver(&mut core, p, msg);
                }
            }
            if self.live == 0 {
                break;
            }
        }
        // After the `live == 0` break the last process may have exited
        // inside the current timestamp with sends still held. Book them
        // anyway so traffic statistics account every send; the deliveries
        // they schedule are never popped, so they count as no event.
        core.flush(|core, at, src, send| self.book(core, at, src, send));
        if self.live > 0 {
            // The machine halted with live processes. If a panic was
            // harvested, it is the root cause — the stranded peers are
            // collateral — so report it instead of the deadlock it caused.
            if let Some(err) = self.failure_error() {
                return Err(err);
            }
            let at = core.now();
            let procs: Vec<(usize, WaitState)> = self
                .slots
                .iter()
                .enumerate()
                .map(|(rank, s)| {
                    let state = match &s.state {
                        ProcState::Blocked(f) => WaitState::BlockedInRecv {
                            filter: *f,
                            mailbox: s
                                .mailbox
                                .iter()
                                .map(|m| PendingMessage {
                                    seq: m.seq,
                                    src: m.src.0,
                                    tag: m.tag,
                                    wire_bytes: m.wire_bytes,
                                })
                                .collect(),
                        },
                        ProcState::Done => WaitState::Exited,
                        ProcState::Idle => WaitState::Idle,
                    };
                    (rank, state)
                })
                .collect();
            let cycle = find_wait_cycle(&procs);
            return Err(SimError::Deadlock { at, procs, cycle });
        }
        if let Some(obs) = self.observer.as_mut() {
            obs.on_finish(core.now());
        }
        let elapsed = self
            .slots
            .iter()
            .map(|s| s.stats.exit_at)
            .max()
            .unwrap_or(SimTime::ZERO)
            .since(SimTime::ZERO);
        let mut profile = self.profile;
        let queue = core.counters;
        drop(core);
        profile.heap_pushes = queue.heap_pushes;
        profile.heap_pops = queue.heap_pops;
        profile.queue_peak = queue.peak_len;
        // Everything the run's ranks cloned was counted on this thread
        // (`Sim::run` zeroed the counter on entry).
        profile.bytes_cloned = message::clone_bytes();
        Ok(RunOutcome {
            elapsed,
            results: self
                .slots
                .iter_mut()
                .enumerate()
                .map(|(rank, s)| match (s.result.take(), s.failure.take()) {
                    (Some(r), _) => Ok(r),
                    (None, Some(f)) => Err(f),
                    (None, None) => Err(ProcFailure {
                        rank,
                        message: "<process exited without a result>".to_string(),
                    }),
                })
                .collect(),
            proc_stats: self.slots.iter().map(|s| s.stats.clone()).collect(),
            kernel_stats: self.kstats,
            profile,
            network: self.net,
            // Fibers all run on this thread; threads are one per rank.
            sim_threads: if crate::fiber::SUPPORTED {
                1
            } else {
                self.slots.len()
            },
        })
    }

    /// Warms the context of the rank the next event will likely resume (a
    /// wake's rank, a delivery's receiver; see [`EventCore::peek`]), so the
    /// cache misses of its resume overlap the current event.
    #[inline]
    fn prefetch_next(&self, core: &Core) {
        let next = match core.peek() {
            Some(&EventKind::Wake(p)) => Some(p),
            Some(&EventKind::Deliver(slot)) => self.in_flight.receiver(slot),
            None => None,
        };
        if let Some(slot) = next.and_then(|p| self.slots.get(p.0)) {
            slot.ctx.prefetch();
        }
    }

    /// Resumes process `p` with `grant` and services its requests until it
    /// waits on virtual time (compute, blocked recv), exits, or dies.
    fn service(&mut self, core: &mut Core, p: ProcId, mut grant: Grant) {
        loop {
            let Some(req) = self.resume(core, p, grant) else {
                return;
            };
            match req {
                Request::Compute(d) => {
                    let slot = &mut self.slots[p.0];
                    slot.stats.compute += d;
                    let start = slot.clock;
                    slot.clock += d;
                    slot.state = ProcState::Idle;
                    let wake_at = slot.clock;
                    if let Some(obs) = self.observer.as_mut() {
                        obs.on_compute(p, start, wake_at);
                    }
                    core.schedule(wake_at, EventKind::Wake(p));
                    return;
                }
                Request::Recv(filter) => {
                    let now = self.slots[p.0].clock;
                    if let Some(obs) = self.observer.as_mut() {
                        obs.on_recv_posted(p, &filter, true, now);
                    }
                    let slot = &mut self.slots[p.0];
                    if let Some(msg) = slot
                        .mailbox
                        .take(&filter, &mut self.profile.mailbox_scanned)
                    {
                        let clock = self.receive(p, now, &msg);
                        grant = Grant::Msg(clock, msg);
                    } else {
                        slot.state = ProcState::Blocked(filter);
                        slot.block_start = now;
                        return;
                    }
                }
                Request::TryRecv(filter) => {
                    let now = self.slots[p.0].clock;
                    if let Some(obs) = self.observer.as_mut() {
                        obs.on_recv_posted(p, &filter, false, now);
                    }
                    let slot = &mut self.slots[p.0];
                    let found = slot
                        .mailbox
                        .take(&filter, &mut self.profile.mailbox_scanned);
                    let clock = match &found {
                        Some(msg) => self.receive(p, now, msg),
                        None => now,
                    };
                    grant = Grant::TryMsg(clock, found);
                }
                Request::Exit(result) => {
                    let slot = &mut self.slots[p.0];
                    slot.state = ProcState::Done;
                    slot.result = Some(result);
                    slot.stats.exit_at = slot.clock;
                    let exit_at = slot.stats.exit_at;
                    if let Some(obs) = self.observer.as_mut() {
                        obs.on_exit(p, exit_at);
                    }
                    self.live -= 1;
                    return;
                }
            }
        }
    }

    fn deliver(&mut self, core: &mut Core, p: ProcId, msg: Message) {
        let slot = &mut self.slots[p.0];
        if matches!(slot.state, ProcState::Done) {
            // Late message to an exited process: dropped, like a packet to a
            // closed socket. Apps in this suite never rely on this.
            return;
        }
        if let ProcState::Blocked(filter) = &slot.state {
            // Invariant: while a process is blocked, no parked message
            // matches its filter (each was checked either when the recv was
            // posted or on its own arrival). The arriving message is
            // therefore the oldest match iff it matches at all — no mailbox
            // traffic needed.
            if filter.matches(&msg) {
                self.profile.mailbox_fast += 1;
                let resumed = slot.clock.max(core.now());
                slot.stats.blocked += resumed.since(slot.block_start);
                slot.state = ProcState::Idle;
                let clock = self.receive(p, resumed, &msg);
                self.service(core, p, Grant::Msg(clock, msg));
                return;
            }
        }
        slot.mailbox.push(msg);
    }

    /// Charges rank `p` for receiving `msg` at `at`: the receive overhead,
    /// the count, and the observer's match. Returns the rank's new clock.
    /// Every matched receive goes through here, whether it came out of the
    /// mailbox or straight from delivery.
    fn receive(&mut self, p: ProcId, at: SimTime, msg: &Message) -> SimTime {
        let o = self.net.recv_overhead();
        let slot = &mut self.slots[p.0];
        slot.clock = at + o;
        slot.stats.recv_overhead += o;
        slot.stats.msgs_received += 1;
        if let Some(obs) = self.observer.as_mut() {
            obs.on_recv_matched(p, msg, slot.clock);
        }
        slot.clock
    }

    /// Records a dead rank's panic as its own result slot and lets the rest
    /// of the machine keep running: only the owning rank fails.
    fn harvest_failure(&mut self, p: ProcId, message: String) {
        let slot = &mut self.slots[p.0];
        slot.state = ProcState::Done;
        slot.stats.exit_at = slot.clock;
        slot.failure = Some(ProcFailure { rank: p.0, message });
        self.live -= 1;
        if self.first_failure.is_none() {
            self.first_failure = Some(p.0);
        }
    }

    /// The error to report when the run halts abnormally after a panic was
    /// harvested: the panic, not its downstream symptoms.
    fn failure_error(&self) -> Option<SimError> {
        let rank = self.first_failure?;
        let failure = self.slots[rank]
            .failure
            .clone()
            .expect("first_failure names a failed slot");
        Some(SimError::ProcessPanicked {
            rank: failure.rank,
            message: failure.message,
        })
    }
}

/// Extracts a cycle from the wait-for graph of a halted run.
///
/// Each rank blocked on `recv(src=Some(s), ..)` contributes an edge
/// `rank -> s`. Out-degree is at most one, so following edges from every
/// blocked rank and watching for a revisit finds a cycle in `O(n)`.
/// Wildcard receives (`src=None`) contribute no edge — a deadlock made only
/// of wildcards has no cyclic sender structure to report.
fn find_wait_cycle(procs: &[(usize, WaitState)]) -> Vec<usize> {
    let n = procs.len();
    let mut next = vec![None; n];
    for (rank, state) in procs {
        if let WaitState::BlockedInRecv { filter, .. } = state {
            if let Some(src) = filter.src {
                if src.0 < n && !matches!(procs[src.0].1, WaitState::Exited) {
                    next[*rank] = Some(src.0);
                }
            }
        }
    }
    // Walk from each unvisited node; a node revisited within the current
    // walk closes a cycle.
    let mut color = vec![0u8; n]; // 0 = unvisited, 1 = on current walk, 2 = done
    for start in 0..n {
        if color[start] != 0 {
            continue;
        }
        let mut path = Vec::new();
        let mut cur = start;
        loop {
            if color[cur] == 1 {
                // Found a cycle: the suffix of `path` starting at `cur`.
                let pos = path
                    .iter()
                    .position(|&r| r == cur)
                    .expect("a node colored on-walk is on the current path");
                return path[pos..].to_vec();
            }
            if color[cur] == 2 {
                break;
            }
            color[cur] = 1;
            path.push(cur);
            match next[cur] {
                Some(nxt) => cur = nxt,
                None => break,
            }
        }
        for r in path {
            color[r] = 2;
        }
    }
    Vec::new()
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::message::{Payload, Tag};
    use crate::network::IdealNetwork;

    #[test]
    fn single_process_compute_advances_time() {
        let mut sim = Sim::new(IdealNetwork::instantaneous(1));
        sim.spawn(|ctx| {
            assert_eq!(ctx.now(), SimTime::ZERO);
            ctx.compute(SimDuration::from_micros(7));
            assert_eq!(ctx.now(), SimTime::ZERO + SimDuration::from_micros(7));
        });
        let out = sim.run().unwrap();
        assert_eq!(out.elapsed, SimDuration::from_micros(7));
        assert_eq!(out.proc_stats[0].compute, SimDuration::from_micros(7));
    }

    #[test]
    fn ping_pong_round_trip() {
        let lat = SimDuration::from_micros(10);
        let mut sim = Sim::new(IdealNetwork::new(2, lat));
        sim.spawn(move |ctx| {
            ctx.send(ProcId(1), Tag::app(1), 5u32, 4);
            let m = ctx.recv(Filter::tag(Tag::app(2)));
            assert_eq!(m.expect_clone::<u32>(), 6);
            ctx.now()
        });
        sim.spawn(move |ctx| {
            let m = ctx.recv(Filter::tag(Tag::app(1)));
            let v = m.expect_clone::<u32>();
            ctx.send(ProcId(0), Tag::app(2), v + 1, 4);
            ctx.now()
        });
        let out = sim.run().unwrap();
        // Two one-way latencies.
        assert_eq!(out.elapsed, lat * 2);
        assert_eq!(out.kernel_stats.messages, 2);
    }

    #[test]
    fn results_are_returned_per_rank() {
        let mut sim = Sim::new(IdealNetwork::instantaneous(3));
        for rank in 0..3usize {
            sim.spawn(move |_ctx| rank * 10);
        }
        let out = sim.run().unwrap();
        let values: Vec<usize> = out
            .results
            .into_iter()
            .map(|r| *r.unwrap().downcast::<usize>().unwrap())
            .collect();
        assert_eq!(values, vec![0, 10, 20]);
    }

    #[test]
    fn messages_queue_until_received() {
        let mut sim = Sim::new(IdealNetwork::instantaneous(2));
        sim.spawn(|ctx| {
            for i in 0..5u64 {
                ctx.send(ProcId(1), Tag::app(0), i, 8);
            }
        });
        sim.spawn(|ctx| {
            ctx.compute(SimDuration::from_millis(1));
            let mut got = Vec::new();
            for _ in 0..5 {
                got.push(ctx.recv(Filter::tag(Tag::app(0))).expect_clone::<u64>());
            }
            assert_eq!(got, vec![0, 1, 2, 3, 4], "FIFO order per sender");
        });
        sim.run().unwrap();
    }

    #[test]
    fn filter_by_source() {
        let mut sim = Sim::new(IdealNetwork::instantaneous(3));
        sim.spawn(|ctx| {
            ctx.send(ProcId(2), Tag::app(0), 100u64, 8);
        });
        sim.spawn(|ctx| {
            ctx.send(ProcId(2), Tag::app(0), 200u64, 8);
        });
        sim.spawn(|ctx| {
            // Receive specifically from rank 1 first, even though rank 0's
            // message arrives first.
            ctx.compute(SimDuration::from_millis(1));
            let m = ctx.recv(Filter::tag(Tag::app(0)).from(ProcId(1)));
            assert_eq!(m.expect_clone::<u64>(), 200);
            let m = ctx.recv(Filter::any());
            assert_eq!(m.expect_clone::<u64>(), 100);
        });
        sim.run().unwrap();
    }

    #[test]
    fn try_recv_polls_without_blocking() {
        let mut sim = Sim::new(IdealNetwork::new(2, SimDuration::from_micros(5)));
        sim.spawn(|ctx| {
            ctx.compute(SimDuration::from_micros(50));
            ctx.send(ProcId(1), Tag::app(0), (), 1);
        });
        sim.spawn(|ctx| {
            assert!(ctx.try_recv(Filter::any()).is_none());
            ctx.compute(SimDuration::from_micros(100));
            assert!(ctx.try_recv(Filter::any()).is_some());
        });
        sim.run().unwrap();
    }

    #[test]
    fn deadlock_is_detected() {
        let mut sim = Sim::new(IdealNetwork::instantaneous(2));
        sim.spawn(|ctx| {
            let _ = ctx.recv(Filter::tag(Tag::app(9)));
        });
        sim.spawn(|ctx| {
            let _ = ctx.recv(Filter::tag(Tag::app(9)));
        });
        match sim.run() {
            Err(SimError::Deadlock { procs, .. }) => {
                assert_eq!(procs.len(), 2);
            }
            other => panic!("expected deadlock, got {:?}", other.is_ok()),
        }
    }

    #[test]
    fn deadlock_reports_wait_for_cycle_and_mailbox() {
        // 0 waits on 1, 1 waits on 2, 2 waits on 0: a 3-cycle. Rank 2 also
        // has an unmatched message parked in its mailbox.
        let mut sim = Sim::new(IdealNetwork::instantaneous(3));
        sim.spawn(|ctx| {
            ctx.send(ProcId(2), Tag::app(5), 1u8, 1);
            let _ = ctx.recv(Filter::any().from(ProcId(1)));
        });
        sim.spawn(|ctx| {
            let _ = ctx.recv(Filter::any().from(ProcId(2)));
        });
        sim.spawn(|ctx| {
            ctx.compute(SimDuration::from_micros(1));
            let _ = ctx.recv(Filter::tag(Tag::app(9)).from(ProcId(0)));
        });
        match sim.run() {
            Err(SimError::Deadlock { procs, cycle, .. }) => {
                let mut c = cycle.clone();
                c.sort_unstable();
                assert_eq!(c, vec![0, 1, 2], "cycle must cover all three ranks");
                let (_, state2) = &procs[2];
                match state2 {
                    WaitState::BlockedInRecv { filter, mailbox } => {
                        assert_eq!(filter.src, Some(ProcId(0)));
                        assert_eq!(mailbox.len(), 1);
                        assert_eq!(mailbox[0].src, 0);
                        assert_eq!(mailbox[0].tag, Tag::app(5));
                    }
                    other => panic!("rank 2 should be blocked, got {other:?}"),
                }
            }
            other => panic!("expected deadlock, got ok={:?}", other.is_ok()),
        }
    }

    #[test]
    fn wait_cycle_ignores_wildcards_and_exited() {
        use crate::error::WaitState as W;
        let blocked_on = |src: usize| W::BlockedInRecv {
            filter: Filter::any().from(ProcId(src)),
            mailbox: Vec::new(),
        };
        let wildcard = W::BlockedInRecv {
            filter: Filter::any(),
            mailbox: Vec::new(),
        };
        // 1 -> 2 -> 1 cycle; 0 is a wildcard, 3 exited.
        let procs = vec![
            (0, wildcard.clone()),
            (1, blocked_on(2)),
            (2, blocked_on(1)),
            (3, W::Exited),
        ];
        let mut cycle = find_wait_cycle(&procs);
        cycle.sort_unstable();
        assert_eq!(cycle, vec![1, 2]);
        // All wildcards: no cycle to report.
        let procs = vec![(0, wildcard.clone()), (1, wildcard)];
        assert!(find_wait_cycle(&procs).is_empty());
        // An edge into an exited process is not a wait.
        let procs = vec![(0, blocked_on(1)), (1, W::Exited)];
        assert!(find_wait_cycle(&procs).is_empty());
    }

    #[test]
    fn observer_sees_the_full_event_stream() {
        #[derive(Default)]
        struct Recorder {
            events: Vec<String>,
        }
        impl Observer for Recorder {
            fn on_send(&mut self, dst: ProcId, msg: &Message) {
                self.events
                    .push(format!("send#{} {}->{}", msg.seq, msg.src.0, dst.0));
            }
            fn on_recv_posted(&mut self, p: ProcId, _f: &Filter, blocking: bool, _now: SimTime) {
                let kind = if blocking { "recv" } else { "try" };
                self.events.push(format!("{kind}@{}", p.0));
            }
            fn on_recv_matched(&mut self, p: ProcId, msg: &Message, _now: SimTime) {
                self.events.push(format!("match#{}@{}", msg.seq, p.0));
            }
            fn on_exit(&mut self, p: ProcId, _now: SimTime) {
                self.events.push(format!("exit@{}", p.0));
            }
            fn on_finish(&mut self, _now: SimTime) {
                self.events.push("finish".into());
            }
        }

        let mut recorder = Recorder::default();
        let mut sim = Sim::new(IdealNetwork::new(2, SimDuration::from_micros(1)));
        sim.set_observer(Box::new(&mut recorder));
        sim.spawn(|ctx| {
            ctx.send(ProcId(1), Tag::app(0), 1u8, 1);
        });
        sim.spawn(|ctx| {
            let _ = ctx.recv(Filter::tag(Tag::app(0)));
        });
        sim.run().unwrap();

        let log = recorder.events;
        let pos = |e: &str| {
            log.iter()
                .position(|x| x == e)
                .unwrap_or_else(|| panic!("missing event {e} in {log:?}"))
        };
        assert!(pos("send#0 0->1") < pos("match#0@1"), "{log:?}");
        assert!(pos("recv@1") < pos("match#0@1"), "{log:?}");
        assert!(pos("match#0@1") < pos("exit@1"), "{log:?}");
        assert_eq!(log.last().map(String::as_str), Some("finish"), "{log:?}");
    }

    #[test]
    fn message_seqs_are_unique_and_ordered() {
        struct Seqs(Vec<u64>);
        impl Observer for Seqs {
            fn on_send(&mut self, _dst: ProcId, msg: &Message) {
                self.0.push(msg.seq);
            }
        }
        let mut seqs = Seqs(Vec::new());
        let mut sim = Sim::new(IdealNetwork::instantaneous(2));
        sim.set_observer(Box::new(&mut seqs));
        sim.spawn(|ctx| {
            for i in 0..4u64 {
                ctx.send(ProcId(1), Tag::app(0), i, 8);
            }
        });
        sim.spawn(|ctx| {
            for _ in 0..4 {
                let _ = ctx.recv(Filter::any());
            }
        });
        sim.run().unwrap();
        assert_eq!(seqs.0, vec![0, 1, 2, 3]);
    }

    #[test]
    fn process_panic_is_reported() {
        // Rank 1 is stranded by rank 0's panic, so the run halts; the error
        // must name the panic (the root cause), not the collateral deadlock.
        let mut sim = Sim::new(IdealNetwork::instantaneous(2));
        sim.spawn(|_ctx| panic!("intentional test panic"));
        sim.spawn(|ctx| {
            let _ = ctx.recv(Filter::any());
        });
        match sim.run() {
            Err(SimError::ProcessPanicked { rank, message }) => {
                assert_eq!(rank, 0);
                assert!(message.contains("intentional"));
            }
            _ => panic!("expected panic error"),
        }
    }

    #[test]
    fn panicking_process_yields_a_diagnostic_slot_not_an_index_shift() {
        // Rank 1 panics, ranks 0 and 2 complete independently: the run
        // succeeds, rank 1's slot carries the diagnostic, and ranks 0/2
        // keep their own slots.
        let mut sim = Sim::new(IdealNetwork::instantaneous(3));
        sim.spawn(|ctx| {
            ctx.compute(SimDuration::from_micros(5));
            11u64
        });
        sim.spawn(|_ctx| -> u64 { panic!("rank 1 dies") });
        sim.spawn(|ctx| {
            ctx.compute(SimDuration::from_micros(9));
            22u64
        });
        let out = sim.run().unwrap();
        assert_eq!(out.results.len(), 3);
        assert_eq!(
            out.results[0]
                .as_ref()
                .unwrap()
                .downcast_ref::<u64>()
                .copied(),
            Some(11)
        );
        let failure = out.results[1].as_ref().unwrap_err();
        assert_eq!(failure.rank, 1);
        assert!(failure.message.contains("rank 1 dies"), "{failure:?}");
        assert_eq!(
            out.results[2]
                .as_ref()
                .unwrap()
                .downcast_ref::<u64>()
                .copied(),
            Some(22)
        );
        assert_eq!(out.elapsed, SimDuration::from_micros(9));
    }

    #[test]
    fn messages_to_a_panicked_process_are_dropped() {
        let mut sim = Sim::new(IdealNetwork::new(2, SimDuration::from_micros(1)));
        sim.spawn(|_ctx| panic!("early death"));
        sim.spawn(|ctx| {
            ctx.compute(SimDuration::from_micros(10));
            ctx.send(ProcId(0), Tag::app(0), 1u8, 1);
            7u8
        });
        let out = sim.run().unwrap();
        assert!(out.results[0].is_err());
        assert_eq!(
            out.results[1]
                .as_ref()
                .unwrap()
                .downcast_ref::<u8>()
                .copied(),
            Some(7)
        );
    }

    #[test]
    fn a_send_made_before_a_panic_is_still_delivered() {
        // Rank 0 never hands over after its send: the kernel posts it when
        // the resume that ran it reports the panic.
        let mut sim = Sim::new(IdealNetwork::new(2, SimDuration::from_micros(1)));
        sim.spawn(|ctx| {
            ctx.send(ProcId(1), Tag::app(0), 5u32, 4);
            panic!("dies after sending");
        });
        sim.spawn(|ctx| ctx.recv(Filter::tag(Tag::app(0))).expect_clone::<u32>());
        let out = sim.run().unwrap();
        let failure = out.results[0].as_ref().unwrap_err();
        assert!(
            failure.message.contains("dies after sending"),
            "{failure:?}"
        );
        let got = out.results[1].as_ref().unwrap().downcast_ref::<u32>();
        assert_eq!(got, Some(&5));
        assert_eq!(out.kernel_stats.messages, 1);
        assert_eq!(out.proc_stats[0].msgs_sent, 1);
        assert_eq!(out.elapsed, SimDuration::from_micros(1));
    }

    #[test]
    fn time_limit_aborts() {
        let mut sim = Sim::new(IdealNetwork::instantaneous(1));
        sim.time_limit(SimTime::from_nanos(100));
        sim.spawn(|ctx| loop {
            ctx.compute(SimDuration::from_secs(1));
        });
        match sim.run() {
            Err(SimError::TimeLimit { .. }) => {}
            _ => panic!("expected time limit error"),
        }
    }

    #[test]
    fn blocked_time_is_accounted() {
        let mut sim = Sim::new(IdealNetwork::instantaneous(2));
        sim.spawn(|ctx| {
            ctx.compute(SimDuration::from_millis(3));
            ctx.send(ProcId(1), Tag::app(0), (), 1);
        });
        sim.spawn(|ctx| {
            let _ = ctx.recv(Filter::any());
        });
        let out = sim.run().unwrap();
        assert_eq!(out.proc_stats[1].blocked, SimDuration::from_millis(3));
    }

    #[test]
    fn spawn_rejects_overflow() {
        let mut sim = Sim::new(IdealNetwork::instantaneous(1));
        sim.spawn(|_| ());
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            sim.spawn(|_| ());
        }));
        assert!(r.is_err());
    }

    #[test]
    fn send_to_self_is_delivered() {
        let mut sim = Sim::new(IdealNetwork::new(1, SimDuration::from_micros(1)));
        sim.spawn(|ctx| {
            ctx.send(ProcId(0), Tag::app(0), 7u8, 1);
            let m = ctx.recv(Filter::any());
            assert_eq!(m.expect_clone::<u8>(), 7);
        });
        sim.run().unwrap();
    }

    #[test]
    fn zero_compute_is_free() {
        let mut sim = Sim::new(IdealNetwork::instantaneous(1));
        sim.spawn(|ctx| {
            ctx.compute(SimDuration::ZERO);
            assert_eq!(ctx.now(), SimTime::ZERO);
        });
        let out = sim.run().unwrap();
        assert_eq!(out.elapsed, SimDuration::ZERO);
    }

    #[test]
    fn profile_counts_switches_and_clone_bytes() {
        let mut sim = Sim::new(IdealNetwork::new(2, SimDuration::from_micros(1)));
        sim.spawn(|ctx| {
            ctx.send(ProcId(1), Tag::app(0), vec![1u8; 64], 64);
        });
        sim.spawn(|ctx| {
            let m = ctx.recv(Filter::tag(Tag::app(0)));
            // One deep copy, charged at the declared wire size...
            let _v = m.expect_clone::<Vec<u8>>();
        });
        let out = sim.run().unwrap();
        assert!(out.profile.switches > 0);
        assert!(out.profile.requests > 0);
        assert_eq!(out.profile.bytes_cloned, 64);
        // ...while the zero-copy path charges nothing.
        let mut sim = Sim::new(IdealNetwork::new(2, SimDuration::from_micros(1)));
        sim.spawn(|ctx| {
            ctx.send(ProcId(1), Tag::app(0), vec![1u8; 64], 64);
        });
        sim.spawn(|ctx| {
            let m = ctx.recv(Filter::tag(Tag::app(0)));
            let v = m.expect_shared::<Vec<u8>>();
            assert_eq!(v.len(), 64);
        });
        let out = sim.run().unwrap();
        assert_eq!(out.profile.bytes_cloned, 0);
    }

    /// Rank 0 fans one shared 64 KiB block to 7 peers, `REPS` times; each
    /// peer reads it deep-copied (`expect_clone`) or zero-copy
    /// (`expect_shared`) and acks with the block's first byte.
    fn multicast(shared: bool) -> RunOutcome<IdealNetwork> {
        const BLOCK: usize = 64 * 1024;
        const REPS: u64 = 24;
        let n = 8;
        let mut sim = Sim::new(IdealNetwork::new(n, SimDuration::from_micros(2)));
        sim.spawn(move |ctx| {
            let mut acc = 0u64;
            for r in 0..REPS {
                let block: Payload = Arc::new(vec![(r & 0xff) as u8; BLOCK]);
                for dst in 1..n {
                    ctx.send_payload(ProcId(dst), Tag::app(0), block.clone(), BLOCK as u64);
                }
                // Acks are read by reference so they stay out of the clone
                // counter this test contrasts.
                for _ in 1..n {
                    let m = ctx.recv(Filter::tag(Tag::app(1)));
                    acc = acc.wrapping_add(*m.expect_ref::<u64>());
                }
            }
            acc
        });
        for _ in 1..n {
            sim.spawn(move |ctx| {
                let mut acc = 0u64;
                for _ in 0..REPS {
                    let m = ctx.recv(Filter::tag(Tag::app(0)));
                    let first = if shared {
                        m.expect_shared::<Vec<u8>>()[0]
                    } else {
                        m.expect_clone::<Vec<u8>>()[0]
                    };
                    ctx.send(ProcId(0), Tag::app(1), u64::from(first) + 1, 8);
                    acc = acc.wrapping_add(u64::from(first));
                }
                acc
            });
        }
        sim.run().unwrap()
    }

    #[test]
    fn shared_multicast_clones_nothing_and_matches_cloned_timing() {
        let cloned = multicast(false);
        let shared = multicast(true);
        // Zero-copy changes only the clone counter: virtual time, events and
        // results are identical between the two receive styles.
        assert_eq!(cloned.elapsed, shared.elapsed);
        assert_eq!(cloned.kernel_stats, shared.kernel_stats);
        let sums = |out: &RunOutcome<IdealNetwork>| -> Vec<u64> {
            out.results
                .iter()
                .map(|r| *r.as_ref().unwrap().downcast_ref::<u64>().unwrap())
                .collect()
        };
        assert_eq!(sums(&cloned), sums(&shared));
        assert_eq!(shared.profile.bytes_cloned, 0);
        // 7 receivers x 24 reps x 64 KiB deep-copied on the clone path.
        assert_eq!(cloned.profile.bytes_cloned, 7 * 24 * 64 * 1024);
    }

    #[test]
    fn profile_counts_blocked_delivery_as_fast_match() {
        let mut sim = Sim::new(IdealNetwork::new(2, SimDuration::from_micros(3)));
        sim.spawn(|ctx| {
            ctx.send(ProcId(1), Tag::app(0), (), 1);
        });
        sim.spawn(|ctx| {
            let _ = ctx.recv(Filter::tag(Tag::app(0)));
        });
        let out = sim.run().unwrap();
        assert_eq!(out.profile.mailbox_fast, 1);
    }
}
