//! Re-costs a recorded [`CommDag`] under an arbitrary interconnect spec.
//!
//! The replay is the second driver of the kernel's [`EventCore`]: the core
//! orders events, holds each send's link booking to the end of its
//! timestamp and hands the held sends back in canonical order, and numbers
//! every event — the same core, with the same rules, as a live run. The
//! driver does what a recorded rank does instead of resuming code: one rank
//! runs at a time, it keeps running through sends and already-arrived
//! receives, and it yields only on `compute` (one scheduled wake, as the
//! kernel's) and on receives whose message is still in flight. A recorded
//! message takes the sequence number the kernel gave its delivery, but
//! only a rank waiting for it needs the delivery as an event; the rest are
//! compared against the current slot where a rank receives them. A replay at
//! the recording spec therefore reproduces the recorded run bit for bit.
//! At any other spec the reference is the recording run through the kernel
//! itself, one scripted rank per op list; `tests/identity.rs` holds this
//! loop to it at every quick Figure 3 point. The loop implements only the
//! kernel's [`TieBreak::Fifo`] order, and the same test shows a recording's
//! makespan is the same under every tie-break policy.
//! The real [`TwoLayerNetwork`] serves as the cost oracle, so link
//! serialization, gateway occupancy, and WAN contention are all re-derived
//! under the new parameters rather than scaled from the recording.
//!
//! # One loop, two callers; one network, many points
//!
//! The driver is written once, `Replayer::run`, generic over a sink for the
//! per-op and per-message instants. [`replay`] runs it with the sink that
//! keeps them (the full [`Replay`] the critical-path walk reads); a sweep
//! that wants only the makespan runs it with the sink that drops them,
//! through [`Replayer::makespan`].
//!
//! A sweep also re-costs *one machine* at many points. A [`Replayer`] owns
//! what belongs to the machine rather than to the point — the network built
//! from the recording's spec, the event core and the loop's scratch vectors
//! — and puts it back in its initial state per point instead of building it
//! again: [`TwoLayerNetwork::reset`] restores every booking, floor, counter
//! and statistic (and says why nothing else needs restoring), the core and
//! the scratch are cleared to the DAG's sizes with their capacity kept, and
//! the route of each cluster pair stays resolved. Only the inter-cluster
//! link class differs between the points of a what-if sweep, so it is the
//! only per-point parameter; the machine's shape cannot disagree with the
//! recording's, because it is the recording's. After the first point a replayed point
//! allocates nothing (`tests/alloc.rs` counts).

use numagap_net::{LinkParams, TwoLayerNetwork, TwoLayerSpec};
use numagap_sim::{EventCore, Network, SimDuration, SimTime, TieBreak};

use crate::dag::{CommDag, Op};

/// The timing of one replayed run: everything the critical-path walk needs.
#[derive(Debug, Clone)]
pub struct Replay {
    /// Virtual makespan (latest rank finish).
    pub elapsed: SimDuration,
    /// Per-rank finish instants.
    pub finish: Vec<SimTime>,
    /// Per-rank, per-op end instants (`op_end[p][i]` is when op `i` of rank
    /// `p` completed; an op's start is the previous op's end, or zero).
    pub op_end: Vec<Vec<SimTime>>,
    /// Per-message send instants, indexed by sequence number.
    pub sent_at: Vec<SimTime>,
    /// Per-message arrival instants, indexed by sequence number.
    pub arrival: Vec<SimTime>,
}

/// Where the loop reports the instants only some callers keep.
trait Sink {
    /// The op rank `rank` was on ended at `at`.
    fn op_end(&mut self, rank: usize, at: SimTime);
    /// Message `seq` was handed to the network at `at`.
    fn sent(&mut self, seq: usize, at: SimTime);
}

/// Drops everything: the makespan needs only the ranks' clocks.
struct MakespanOnly;

impl Sink for MakespanOnly {
    #[inline]
    fn op_end(&mut self, _rank: usize, _at: SimTime) {}
    #[inline]
    fn sent(&mut self, _seq: usize, _at: SimTime) {}
}

/// Keeps everything, in [`Replay`]'s layout.
struct Trace {
    op_end: Vec<Vec<SimTime>>,
    sent_at: Vec<SimTime>,
}

impl Sink for Trace {
    fn op_end(&mut self, rank: usize, at: SimTime) {
        self.op_end[rank].push(at);
    }
    fn sent(&mut self, seq: usize, at: SimTime) {
        self.sent_at[seq] = at;
    }
}

/// `v` as `len` copies of `zero`, in the allocation it already has.
fn refill<T: Clone>(v: &mut Vec<T>, len: usize, zero: T) {
    v.clear();
    v.resize(len, zero);
}

/// Replays recordings made on one machine, at any inter-cluster link class,
/// reusing the network and the event loop's scratch from point to point
/// (see the module docs for what that reuse restores and why it is exact).
///
/// # Examples
///
/// ```
/// use numagap_apps::{AppId, Scale, SuiteConfig, Variant};
/// use numagap_model::{record_app, replay, Replayer};
/// use numagap_net::{das_spec, LinkParams};
/// use numagap_rt::Machine;
///
/// let machine = Machine::new(das_spec(4, 8, 10.0, 0.3));
/// let cfg = SuiteConfig::at(Scale::Small);
/// let (_, dag) = record_app(AppId::Asp, &cfg, Variant::Optimized, &machine).unwrap();
/// let mut replayer = Replayer::new(&dag.base_spec);
/// for (lat, bw) in [(0.5, 6.3), (30.0, 0.1), (0.5, 6.3)] {
///     let inter = LinkParams::wide_area(lat, bw);
///     let fresh = replay(&dag, &dag.base_spec.clone().inter(inter)).elapsed;
///     assert_eq!(replayer.makespan(&dag, inter), fresh);
/// }
/// ```
#[derive(Debug)]
pub struct Replayer {
    net: TwoLayerNetwork,
    clock: Vec<SimTime>,
    pc: Vec<usize>,
    arrival: Vec<Option<SimTime>>,
    /// The event-queue sequence number the kernel gave each message's
    /// delivery, assigned when its send executes.
    deliver_seq: Vec<u64>,
    /// A rank blocked on a not-yet-sent message parks here (at most one rank
    /// per message: the kernel matched each message to exactly one receive).
    parked: Vec<Option<usize>>,
    /// The kernel's event core, in its native order: an event wakes the
    /// rank it names, and a held send is the index of its message.
    core: EventCore<usize, usize>,
}

impl Replayer {
    /// A replayer for recordings made on `spec`'s machine — a recording's
    /// own [`CommDag::base_spec`], whose inter-cluster link class each call
    /// then replaces.
    ///
    /// # Panics
    ///
    /// As [`TwoLayerNetwork::new`], on an inconsistent spec.
    pub fn new(spec: &TwoLayerSpec) -> Self {
        Replayer {
            net: TwoLayerNetwork::new(spec.clone()),
            clock: Vec::new(),
            pc: Vec::new(),
            arrival: Vec::new(),
            deliver_seq: Vec::new(),
            parked: Vec::new(),
            core: EventCore::new(TieBreak::Fifo),
        }
    }

    /// The makespan of `dag` on this machine with `inter` as its
    /// inter-cluster link class: `replay(dag, &spec.inter(inter)).elapsed`,
    /// without building the spec, the network or the [`Replay`].
    ///
    /// # Panics
    ///
    /// As [`replay`].
    pub fn makespan(&mut self, dag: &CommDag, inter: LinkParams) -> SimDuration {
        self.run(dag, inter, &mut MakespanOnly)
    }

    /// Like [`Replayer::makespan`], keeping every instant the loop timed.
    ///
    /// # Panics
    ///
    /// As [`replay`].
    pub fn replay(&mut self, dag: &CommDag, inter: LinkParams) -> Replay {
        let mut trace = Trace {
            op_end: dag
                .ops
                .iter()
                .map(|ops| Vec::with_capacity(ops.len()))
                .collect(),
            sent_at: vec![SimTime::ZERO; dag.msgs.len()],
        };
        let elapsed = self.run(dag, inter, &mut trace);
        let arrival = self
            .arrival
            .iter()
            .zip(&trace.sent_at)
            .map(|(a, &sent)| a.unwrap_or(sent))
            .collect();
        Replay {
            elapsed,
            // A rank's clock stops at its last op.
            finish: self.clock.clone(),
            op_end: trace.op_end,
            sent_at: trace.sent_at,
            arrival,
        }
    }

    /// The event loop. Leaves each rank's finish instant in `self.clock` and
    /// each message's arrival in `self.arrival`, and returns the makespan.
    fn run<S: Sink>(&mut self, dag: &CommDag, inter: LinkParams, sink: &mut S) -> SimDuration {
        let Replayer {
            net,
            clock,
            pc,
            arrival,
            deliver_seq,
            parked,
            core,
        } = self;
        let n = dag.nprocs();
        assert_eq!(
            net.num_procs(),
            n,
            "what-if spec must keep the recorded machine shape"
        );
        net.reset(inter);
        let nmsgs = dag.msgs.len();
        refill(clock, n, SimTime::ZERO);
        refill(pc, n, 0);
        refill(arrival, nmsgs, None);
        refill(deliver_seq, nmsgs, 0);
        refill(parked, nmsgs, None);
        core.reset(n, |p| p);

        loop {
            // A held send, booked: the kernel schedules its delivery, so the
            // message takes that event's number, but only a rank parked on it
            // needs the delivery as an event here.
            let next = core.pop(|core, at, _src, seq| {
                let m = dag.msgs[seq];
                let arrives = net.transfer(m.src, m.dst, m.wire_bytes, at);
                arrival[seq] = Some(arrives);
                deliver_seq[seq] = core.reserve();
                if let Some(w) = parked[seq].take() {
                    core.schedule_reserved(arrives, deliver_seq[seq], w);
                }
            });
            let Some(p) = next else {
                break;
            };
            // Service rank `p` until it suspends (compute, undelivered recv)
            // or finishes — the same one-runner-at-a-time discipline as the
            // kernel.
            let ops = &dag.ops[p];
            while let Some(&op) = ops.get(pc[p]) {
                match op {
                    Op::Compute(d) => {
                        clock[p] += d;
                        sink.op_end(p, clock[p]);
                        pc[p] += 1;
                        core.schedule(clock[p], p);
                        break;
                    }
                    Op::Send { seq } => {
                        sink.sent(seq as usize, clock[p]);
                        core.defer(clock[p], p, seq as usize);
                        clock[p] += net.send_overhead();
                        sink.op_end(p, clock[p]);
                        pc[p] += 1;
                    }
                    Op::Recv { seq } => match arrival[seq as usize] {
                        Some(a) => {
                            let dseq = deliver_seq[seq as usize];
                            if !core.has_run(a, dseq) {
                                // The message is in the kernel's mailbox only
                                // once its delivery event has fired — which is
                                // ordered by (arrival, delivery seq), not by
                                // this rank's clock (a rank running ahead
                                // inline can pass the arrival instant without
                                // the delivery having been processed). The
                                // kernel blocks here and resumes inside the
                                // delivery event, so every earlier event — and
                                // its network transfer — happens first.
                                core.schedule_reserved(a, dseq, p);
                                break;
                            }
                            clock[p] = clock[p].max(a) + net.recv_overhead();
                            sink.op_end(p, clock[p]);
                            pc[p] += 1;
                        }
                        None => {
                            parked[seq as usize] = Some(p);
                            break;
                        }
                    },
                }
            }
        }

        for (p, ops) in dag.ops.iter().enumerate() {
            assert_eq!(
                pc[p],
                ops.len(),
                "rank {p} stalled at op {} of {} — malformed DAG",
                pc[p],
                ops.len()
            );
        }
        clock
            .iter()
            .copied()
            .max()
            .unwrap_or(SimTime::ZERO)
            .since(SimTime::ZERO)
    }
}

/// Replays `dag` under `spec` and returns the re-derived timing.
///
/// Control flow is frozen at the recording point: each rank performs exactly
/// its recorded ops, in order, with compute segments carried over verbatim
/// and all communication costs recomputed by a fresh network model.
///
/// # Panics
///
/// Panics if the DAG is malformed (a recorded receive whose producer never
/// sends, which a complete recording cannot produce), or if the
/// what-if spec's topology disagrees with the recorded rank count.
pub fn replay(dag: &CommDag, spec: &TwoLayerSpec) -> Replay {
    Replayer::new(spec).replay(dag, spec.inter)
}
