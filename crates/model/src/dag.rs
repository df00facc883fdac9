//! Recording a run's communication dependency DAG through the kernel
//! [`Observer`] hook.
//!
//! The recorder freezes each rank's behaviour into a linear list of
//! [`Op`]s on its virtual-time line — compute segments, message hand-offs,
//! and message consumptions — plus one [`MsgMeta`] per kernel message
//! sequence number. Together with the spec the run executed under, that is
//! exactly the information the replay engine — the kernel's event core
//! driven by the op lists instead of by rank code — needs to re-cost the run
//! under a different interconnect: control flow (who sends what to whom, in
//! what order) is frozen at the recording point, while every timing quantity
//! is re-derived.

use std::collections::VecDeque;

use numagap_apps::{run_app_report, summarize, AppId, AppRun, SuiteConfig, Variant};
use numagap_net::TwoLayerSpec;
use numagap_rt::Machine;
use numagap_sim::{Message, Observer, ProcId, SimDuration, SimError, SimTime};

/// One recorded operation on a rank's virtual-time line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// One `compute` call of the given duration. Independent of the
    /// interconnect. Zero-duration computes are kept: each call schedules
    /// one wake in the kernel's event core, and the replay engine schedules
    /// the same wake in the same core, so same-instant network contention
    /// resolves identically.
    Compute(SimDuration),
    /// Handed message `seq` to the network. Costs the sender the send
    /// software overhead; the message's flight is re-derived at replay.
    Send {
        /// Kernel-global message sequence number.
        seq: u64,
    },
    /// Consumed message `seq`, blocking until its arrival when necessary,
    /// then paying the receive software overhead.
    Recv {
        /// Kernel-global message sequence number.
        seq: u64,
    },
}

/// Metadata of one recorded message, indexed by kernel sequence number.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MsgMeta {
    /// Sending process.
    pub src: ProcId,
    /// Destination process.
    pub dst: ProcId,
    /// Declared payload size on the wire, headers excluded (what the kernel
    /// passes to `Network::transfer`).
    pub wire_bytes: u64,
}

/// A recorded communication dependency DAG: per-rank op lists plus message
/// metadata, with the spec and makespan of the recording run.
#[derive(Debug, Clone)]
pub struct CommDag {
    /// Per-rank operation lists, in each rank's program order.
    pub ops: Vec<Vec<Op>>,
    /// Message metadata, indexed by the kernel's dense sequence number.
    pub msgs: Vec<MsgMeta>,
    /// The interconnect spec the recording ran under.
    pub base_spec: TwoLayerSpec,
    /// The recording run's virtual makespan (for identity checks).
    pub base_elapsed: SimDuration,
}

impl CommDag {
    /// Number of ranks in the recorded run.
    pub fn nprocs(&self) -> usize {
        self.ops.len()
    }

    /// Whether message `seq` crosses a cluster boundary under the recorded
    /// topology.
    pub fn is_inter(&self, seq: u64) -> bool {
        let m = &self.msgs[seq as usize];
        self.base_spec.topology.cluster_of(m.src) != self.base_spec.topology.cluster_of(m.dst)
    }

    /// Total recorded operations across all ranks.
    pub fn total_ops(&self) -> usize {
        self.ops.iter().map(Vec::len).sum()
    }
}

/// Records a [`CommDag`] from one observed run.
///
/// Lend it to a run (`Machine::run_observed`, or `run_app_report`'s
/// observer slot); after the run completes, call [`DagRecorder::finish`] to
/// take the DAG. The kernel delivers every booked message exactly once, so
/// each recorded receive names one send; the recorder must observe the run
/// from its beginning so the kernel's message sequence numbers stay dense.
#[derive(Debug)]
pub struct DagRecorder {
    ops: Vec<Vec<Op>>,
    msgs: Vec<MsgMeta>,
    /// Per rank, op-list indices of `Op::Send` placeholders whose sequence
    /// number is still unknown. `on_send_posted` fires in the rank's program
    /// order when the send executes; the kernel books transfers (assigning
    /// sequence numbers and firing `on_send`) at the timestamp boundary in
    /// canonical `(departure, rank, send index)` order, which restricted to
    /// one rank is again that rank's program order — so resolving each
    /// rank's placeholders FIFO reconstructs the mapping exactly.
    unresolved: Vec<VecDeque<usize>>,
}

impl DagRecorder {
    /// A recorder for a machine with `nprocs` ranks.
    pub fn new(nprocs: usize) -> Self {
        DagRecorder {
            ops: vec![Vec::new(); nprocs],
            msgs: Vec::new(),
            unresolved: vec![VecDeque::new(); nprocs],
        }
    }

    /// Consumes the recorder and returns the recorded DAG, annotated with
    /// the spec and makespan of the recording run.
    ///
    /// # Panics
    ///
    /// Panics if a recorded send was never booked (the run did not
    /// complete).
    pub fn finish(self, base_spec: TwoLayerSpec, base_elapsed: SimDuration) -> CommDag {
        assert!(
            self.unresolved.iter().all(VecDeque::is_empty),
            "recorded sends were never booked — run did not complete cleanly"
        );
        CommDag {
            ops: self.ops,
            msgs: self.msgs,
            base_spec,
            base_elapsed,
        }
    }
}

impl Observer for DagRecorder {
    fn on_compute(&mut self, p: ProcId, start: SimTime, end: SimTime) {
        // One op per `compute` call, zero-duration included — the op count
        // must match the kernel's scheduling-slot count exactly for the
        // replay's event ordering to reproduce the recording.
        self.ops[p.0].push(Op::Compute(end.since(start)));
    }

    fn on_send_posted(&mut self, src: ProcId, _dst: ProcId, _wire_bytes: u64, _now: SimTime) {
        // The send's position in the rank's program order is fixed here; its
        // sequence number arrives with `on_send` when the kernel books the
        // transfer at the timestamp boundary.
        let idx = self.ops[src.0].len();
        self.ops[src.0].push(Op::Send { seq: u64::MAX });
        self.unresolved[src.0].push_back(idx);
    }

    fn on_send(&mut self, dst: ProcId, msg: &Message) {
        assert_eq!(
            msg.seq as usize,
            self.msgs.len(),
            "DAG recorder requires dense message sequence numbers \
             (observe the run from its start)"
        );
        self.msgs.push(MsgMeta {
            src: msg.src,
            dst,
            wire_bytes: msg.wire_bytes,
        });
        let idx = self.unresolved[msg.src.0]
            .pop_front()
            .expect("on_send without a preceding on_send_posted");
        self.ops[msg.src.0][idx] = Op::Send { seq: msg.seq };
    }

    fn on_recv_matched(&mut self, p: ProcId, msg: &Message, _now: SimTime) {
        // The match instant already includes blocking (if any) plus the
        // receive overhead; both are re-derived at replay, so only the
        // dependency edge is recorded. Missed `try_recv` polls cost no
        // virtual time and leave no op behind.
        self.ops[p.0].push(Op::Recv { seq: msg.seq });
    }
}

/// Runs one application with a [`DagRecorder`] attached and returns both the
/// run's measurements and the recorded DAG.
///
/// # Errors
///
/// Propagates simulator failures (deadlock, time limit, process panic).
pub fn record_app(
    app: AppId,
    cfg: &SuiteConfig,
    variant: Variant,
    machine: &Machine,
) -> Result<(AppRun, CommDag), SimError> {
    let mut recorder = DagRecorder::new(machine.spec().topology.nprocs());
    let report = run_app_report(app, cfg, variant, machine, Some(&mut recorder))?;
    let run = summarize(app, variant, report);
    let dag = recorder.finish(machine.spec().clone(), run.elapsed);
    Ok((run, dag))
}
