//! The online sanitizer: a kernel [`Observer`] that maintains per-process
//! vector clocks and checks every communication event as it happens.
//!
//! # What it checks
//!
//! - **Message races**: a source-wildcard receive whose candidate set holds
//!   two causally concurrent in-flight messages from different senders. Under
//!   a different legal interleaving the other message would have matched, so
//!   the program's result can depend on network timing. Both directions are
//!   covered: candidates already in flight when the match happens, and sends
//!   issued shortly *after* a wildcard match that could still have overtaken
//!   it (checked against a bounded window of recent wildcard matches).
//! - **Lost messages**: sent but never consumed by any receive when the run
//!   finishes. Unconsumed messages on barrier-protocol tags are classified as
//!   barrier epoch mismatches instead.
//! - **Protocol lints**: sends on reserved internal tags outside every known
//!   protocol block, and declared wire sizes wildly smaller than the actual
//!   in-memory payload (an undercharged cost model).
//!
//! # Ownership
//!
//! [`Analysis`] is the observer itself. A run borrows it, and the caller
//! reads the findings once the run returns — also when the run ended in an
//! error.

use std::collections::{BTreeMap, HashSet, VecDeque};

use numagap_rt::tags;
use numagap_rt::ReliableEnvelope;
use numagap_sim::{
    FaultEvent, FaultKind, Filter, Message, Observer, ProcId, SimError, SimTime, Tag,
};

use crate::deadlock::diagnose_sim_error;
use crate::diag::{Diagnostic, DiagnosticKind};
use crate::vclock::VectorClock;

/// How many recent wildcard matches are kept for the late-send race
/// direction. Bounded so observation stays O(window) per send.
const WILDCARD_WINDOW: usize = 64;
/// Maximum diagnostics *stored* per kind; further findings of the same kind
/// are only counted. Deduplication applies before this cap.
const MAX_STORED_PER_KIND: usize = 16;
/// Minimum estimated payload size (bytes) before the wire-size check
/// applies; tiny control messages are exempt.
const WIRE_CHECK_MIN_PAYLOAD: u64 = 64;
/// Undercharge factor: estimated payload larger than
/// `wire_bytes * factor` raises [`DiagnosticKind::WireBytesMismatch`].
const WIRE_UNDERCHARGE_FACTOR: u64 = 16;

/// A message handed to the network and not yet consumed by a receive.
#[derive(Debug)]
struct InFlight {
    src: usize,
    dst: usize,
    tag: Tag,
    wire_bytes: u64,
    sent_at: SimTime,
    /// The payload is a reliable-transport envelope (a retransmission
    /// remnant of it reaching an exited rank is transport bookkeeping, not
    /// an application defect).
    transport_env: bool,
    /// Sender's vector clock at the send (the clock the message "carries").
    clock: VectorClock,
}

/// Injected faults the sanitizer attributed to the fault plan instead of
/// raising diagnostics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounts {
    /// Messages dropped by the plan (would otherwise be lost messages).
    pub dropped: u64,
    /// Messages the plan duplicated.
    pub duplicated: u64,
    /// Messages the plan delayed past their fault-free arrival.
    pub delayed: u64,
    /// Messages still unconsumed at finish that were charged to the fault
    /// plan or the reliable transport rather than reported as lost.
    pub attributed_leftovers: u64,
}

/// A completed source-wildcard match, kept briefly for the late-send check.
#[derive(Debug)]
struct WildcardMatch {
    receiver: usize,
    filter: Filter,
    matched_src: usize,
    matched_seq: u64,
    at: SimTime,
    /// Receiver's clock just after the match (join + tick).
    recv_clock: VectorClock,
}

/// Dedup key: kind, attributed rank, and two kind-specific words.
type DedupKey = (DiagnosticKind, usize, u64, u64);

/// The sanitizer: an [`Observer`] that checks one run.
///
/// Create one per run, lend it to the simulation (directly via
/// `Sim::set_observer(Box::new(&mut analysis))` or through
/// `numagap_rt::Machine::run_observed`), and read [`Analysis::diagnostics`]
/// afterwards — the findings are there whether the run succeeded or died.
///
/// # Examples
///
/// ```
/// use numagap_analysis::Analysis;
/// use numagap_sim::{Filter, IdealNetwork, ProcId, Sim, Tag};
///
/// let mut analysis = Analysis::new(2);
/// let mut sim = Sim::new(IdealNetwork::instantaneous(2));
/// sim.set_observer(Box::new(&mut analysis));
/// sim.spawn(|ctx| ctx.send(ProcId(1), Tag::app(0), 1u8, 1));
/// sim.spawn(|ctx| {
///     let _ = ctx.recv(Filter::tag(Tag::app(0)));
/// });
/// sim.run().unwrap();
/// assert!(analysis.diagnostics().is_empty());
/// ```
#[derive(Debug)]
pub struct Analysis {
    clocks: Vec<VectorClock>,
    /// The most recently posted receive filter per rank; a rank blocked in
    /// `recv` cannot post another, so this is current for every match.
    pending: Vec<Option<Filter>>,
    inflight: BTreeMap<u64, InFlight>,
    wildcards: VecDeque<WildcardMatch>,
    diags: Vec<Diagnostic>,
    seen: HashSet<DedupKey>,
    counts: BTreeMap<DiagnosticKind, usize>,
    /// Kernel seqs of messages the fault plan duplicated or delayed: extra
    /// or late copies of these may go unconsumed without being defects.
    faulted: HashSet<u64>,
    fault_counts: FaultCounts,
    finished: bool,
}

impl Analysis {
    fn push(
        &mut self,
        kind: DiagnosticKind,
        rank: Option<usize>,
        at: Option<SimTime>,
        key: DedupKey,
        detail: String,
    ) {
        if !self.seen.insert(key) {
            return;
        }
        let count = self.counts.entry(kind).or_insert(0);
        *count += 1;
        if *count <= MAX_STORED_PER_KIND {
            self.diags.push(Diagnostic {
                kind,
                rank,
                at,
                detail,
            });
        }
    }
}

/// Best-effort size of the in-memory payload, for the wire-size lint.
/// Returns `None` for payload types it does not recognize.
fn estimate_payload_bytes(msg: &Message) -> Option<u64> {
    macro_rules! try_vec {
        ($($t:ty),*) => {$(
            if let Some(v) = msg.downcast_ref::<Vec<$t>>() {
                return Some(std::mem::size_of_val(v.as_slice()) as u64);
            }
        )*};
    }
    try_vec!(u8, u16, u32, u64, usize, i8, i16, i32, i64, f32, f64);
    if let Some(s) = msg.downcast_ref::<String>() {
        return Some(s.len() as u64);
    }
    None
}

/// Transport control and bookkeeping traffic — acknowledgements and data
/// envelopes — is invisible to the race detector. In transport mode every
/// kernel-level receive is the transport's own wildcard poll; application
/// filters are applied above the kernel, where message choice is made
/// deterministic again by per-sender in-order release.
fn is_transport_msg(msg: &Message) -> bool {
    msg.tag == tags::ACK_TAG || msg.downcast_ref::<ReliableEnvelope>().is_some()
}

/// Whether `tag` lies in the runtime-reserved space but outside every block
/// the runtime actually defines.
fn is_unknown_internal_tag(tag: Tag) -> bool {
    let raw = tag.raw();
    if raw < Tag::INTERNAL_BASE {
        return false;
    }
    let offset = raw - Tag::INTERNAL_BASE;
    offset >= tags::ACK_BLOCK + tags::BLOCK
}

fn is_barrier_tag(tag: Tag) -> bool {
    let raw = tag.raw();
    raw >= Tag::INTERNAL_BASE && raw - Tag::INTERNAL_BASE < tags::BARRIER_BLOCK + tags::BLOCK
}

impl Analysis {
    /// A sanitizer for a run over `nprocs` processes.
    pub fn new(nprocs: usize) -> Self {
        Analysis {
            clocks: vec![VectorClock::new(nprocs); nprocs],
            pending: vec![None; nprocs],
            inflight: BTreeMap::new(),
            wildcards: VecDeque::new(),
            diags: Vec::new(),
            seen: HashSet::new(),
            counts: BTreeMap::new(),
            faulted: HashSet::new(),
            fault_counts: FaultCounts::default(),
            finished: false,
        }
    }

    /// All findings recorded so far (online checks only; see
    /// [`Analysis::diagnose_error`] for post-mortem deadlock findings).
    pub fn diagnostics(&self) -> &[Diagnostic] {
        &self.diags
    }

    /// Total findings per kind, including ones beyond the storage cap.
    pub fn counts(&self) -> &BTreeMap<DiagnosticKind, usize> {
        &self.counts
    }

    /// Whether the observed run reached a clean finish (`on_finish` fired).
    pub fn run_finished(&self) -> bool {
        self.finished
    }

    /// Injected faults attributed to the network's fault plan. All zero on
    /// fault-free runs.
    pub fn fault_counts(&self) -> FaultCounts {
        self.fault_counts
    }

    /// Decomposes a run error into diagnostics: the deadlock itself (with
    /// its wait-for cycle) and any orphan receives (ranks blocked on a
    /// sender that already exited).
    pub fn diagnose_error(&self, err: &SimError) -> Vec<Diagnostic> {
        diagnose_sim_error(err)
    }
}

impl Observer for Analysis {
    fn on_send(&mut self, dst: ProcId, msg: &Message) {
        let src = msg.src.0;

        if is_unknown_internal_tag(msg.tag) {
            self.push(
                DiagnosticKind::ReservedTagMisuse,
                Some(src),
                Some(msg.sent_at),
                (
                    DiagnosticKind::ReservedTagMisuse,
                    src,
                    u64::from(msg.tag.raw()),
                    0,
                ),
                format!(
                    "send to rank {} uses internal tag {} outside every known \
                     protocol block (barrier/rpc/coll/relay/service)",
                    dst.0, msg.tag
                ),
            );
        }

        if let Some(est) = estimate_payload_bytes(msg) {
            if est >= WIRE_CHECK_MIN_PAYLOAD
                && msg.wire_bytes.saturating_mul(WIRE_UNDERCHARGE_FACTOR) < est
            {
                self.push(
                    DiagnosticKind::WireBytesMismatch,
                    Some(src),
                    Some(msg.sent_at),
                    (
                        DiagnosticKind::WireBytesMismatch,
                        src,
                        u64::from(msg.tag.raw()),
                        0,
                    ),
                    format!(
                        "send to rank {} tag {} declares {} wire bytes for a \
                         ~{} byte payload: the network model is being \
                         undercharged",
                        dst.0, msg.tag, msg.wire_bytes, est
                    ),
                );
            }
        }

        // The send is a local event: tick, then snapshot the clock the
        // message carries.
        self.clocks[src].tick(src);
        let snapshot = self.clocks[src].clone();

        // Late-send race direction: could this message have matched a recent
        // wildcard receive on `dst` under a different interleaving? Yes iff
        // the send is not causally ordered after that match.
        let mut overtakes = Vec::new();
        // Retransmissions and acks overtake freely by design, so transport
        // traffic is never a late-send race candidate.
        let race_candidate = !is_transport_msg(msg);
        for w in &self.wildcards {
            if race_candidate
                && w.receiver == dst.0
                && w.matched_src != src
                && w.filter.src.is_none()
                && w.filter.tag.accepts(msg.tag)
                && snapshot.concurrent(&w.recv_clock)
            {
                let (a, b) = (w.matched_src.min(src), w.matched_src.max(src));
                let key = (
                    DiagnosticKind::MessageRace,
                    w.receiver,
                    a as u64,
                    ((b as u64) << 32) | u64::from(msg.tag.raw()),
                );
                let detail = format!(
                    "wildcard recv on rank {} matched message #{} from rank {}, \
                     but message #{} (tag {}) from rank {} was sent concurrently \
                     and could have matched instead",
                    w.receiver, w.matched_seq, w.matched_src, msg.seq, msg.tag, src
                );
                overtakes.push((w.receiver, w.at, key, detail));
            }
        }
        for (receiver, at, key, detail) in overtakes {
            self.push(
                DiagnosticKind::MessageRace,
                Some(receiver),
                Some(at),
                key,
                detail,
            );
        }

        self.inflight.insert(
            msg.seq,
            InFlight {
                src,
                dst: dst.0,
                tag: msg.tag,
                wire_bytes: msg.wire_bytes,
                sent_at: msg.sent_at,
                transport_env: msg.downcast_ref::<ReliableEnvelope>().is_some(),
                clock: snapshot,
            },
        );
    }

    fn on_fault(&mut self, event: &FaultEvent) {
        match event.kind {
            FaultKind::Drop => {
                self.fault_counts.dropped += 1;
                // The plan ate this message: it can never be consumed, and
                // that is the plan's fault, not the application's.
                if self.inflight.remove(&event.seq).is_some() {
                    self.fault_counts.attributed_leftovers += 1;
                }
            }
            FaultKind::Duplicate => {
                self.fault_counts.duplicated += 1;
                self.faulted.insert(event.seq);
            }
            FaultKind::Delay => {
                self.fault_counts.delayed += 1;
                self.faulted.insert(event.seq);
            }
        }
    }

    fn on_recv_posted(&mut self, p: ProcId, filter: &Filter, _blocking: bool, _now: SimTime) {
        self.pending[p.0] = Some(*filter);
    }

    fn on_recv_matched(&mut self, p: ProcId, msg: &Message, now: SimTime) {
        let recvr = p.0;
        let filter = self.pending[recvr];
        let entry = self.inflight.remove(&msg.seq);
        let msg_clock = entry.as_ref().map(|e| e.clock.clone());

        let wildcard = !is_transport_msg(msg) && filter.as_ref().is_some_and(|f| f.src.is_none());
        if wildcard {
            let filter = filter.as_ref().expect("wildcard implies a pending filter");
            if let Some(mclock) = msg_clock.as_ref() {
                // At-match race direction: another in-flight message from a
                // different sender also matches the filter and is causally
                // concurrent with the matched one.
                let mut found: Vec<(u64, usize, Tag, SimTime)> = Vec::new();
                for (seq, m) in &self.inflight {
                    if m.dst == recvr
                        && m.src != msg.src.0
                        && !m.transport_env
                        && m.tag != tags::ACK_TAG
                        && filter.tag.accepts(m.tag)
                        && m.clock.concurrent(mclock)
                    {
                        found.push((*seq, m.src, m.tag, m.sent_at));
                    }
                }
                for (seq, src, tag, _sent_at) in found {
                    let (a, b) = (src.min(msg.src.0), src.max(msg.src.0));
                    let key = (
                        DiagnosticKind::MessageRace,
                        recvr,
                        a as u64,
                        ((b as u64) << 32) | u64::from(tag.raw()),
                    );
                    let detail = format!(
                        "wildcard recv on rank {} matched message #{} from \
                         rank {}, while concurrent message #{} (tag {}) from \
                         rank {} was in flight and also matched the filter",
                        recvr, msg.seq, msg.src.0, seq, tag, src
                    );
                    self.push(
                        DiagnosticKind::MessageRace,
                        Some(recvr),
                        Some(now),
                        key,
                        detail,
                    );
                }
            }
        }

        // Join the carried clock into the receiver: the match orders the
        // send before everything the receiver does next.
        if let Some(mclock) = msg_clock {
            self.clocks[recvr].join(&mclock);
        }
        self.clocks[recvr].tick(recvr);

        if wildcard {
            let recv_clock = self.clocks[recvr].clone();
            self.wildcards.push_back(WildcardMatch {
                receiver: recvr,
                filter: filter.expect("wildcard implies a pending filter"),
                matched_src: msg.src.0,
                matched_seq: msg.seq,
                at: now,
                recv_clock,
            });
            while self.wildcards.len() > WILDCARD_WINDOW {
                self.wildcards.pop_front();
            }
        }
    }

    fn on_finish(&mut self, _now: SimTime) {
        self.finished = true;
        let leftovers: Vec<(u64, usize, usize, Tag, u64, bool, SimTime)> = self
            .inflight
            .iter()
            .map(|(seq, m)| {
                (
                    *seq,
                    m.src,
                    m.dst,
                    m.tag,
                    m.wire_bytes,
                    m.transport_env,
                    m.sent_at,
                )
            })
            .collect();
        for (seq, src, dst, tag, wire_bytes, transport_env, sent_at) in leftovers {
            // Leftovers explained by the fault plan or the reliable
            // transport are attributed, not reported: an extra or delayed
            // copy of a faulted message, a retransmission that reached an
            // already-exited rank, or an ack to a finished sender.
            if self.faulted.contains(&seq) || transport_env || tag == tags::ACK_TAG {
                self.fault_counts.attributed_leftovers += 1;
                continue;
            }
            let (kind, hint) = if is_barrier_tag(tag) {
                (
                    DiagnosticKind::BarrierEpochMismatch,
                    "a barrier-protocol message nobody consumed — ranks left \
                     the barrier in different epochs",
                )
            } else {
                (DiagnosticKind::LostMessage, "sent but never received")
            };
            let key = (kind, dst, src as u64, u64::from(tag.raw()));
            let detail = format!(
                "message #{seq} from rank {src} to rank {dst} tag {tag} \
                 ({wire_bytes} B, sent at {sent_at}): {hint}"
            );
            self.push(kind, Some(dst), Some(sent_at), key, detail);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use numagap_sim::{IdealNetwork, Sim, SimDuration};

    fn run_with_analysis<F>(nprocs: usize, setup: F) -> Analysis
    where
        F: FnOnce(&mut Sim<'_, IdealNetwork>),
    {
        let mut analysis = Analysis::new(nprocs);
        let mut sim = Sim::new(IdealNetwork::new(nprocs, SimDuration::from_micros(10)));
        sim.set_observer(Box::new(&mut analysis));
        setup(&mut sim);
        let _ = sim.run();
        analysis
    }

    #[test]
    fn clean_specific_source_exchange_has_no_diagnostics() {
        let analysis = run_with_analysis(2, |sim| {
            sim.spawn(|ctx| {
                ctx.send(ProcId(1), Tag::app(0), 7u8, 1);
                let _ = ctx.recv(Filter::tag(Tag::app(1)).from(ProcId(1)));
            });
            sim.spawn(|ctx| {
                let _ = ctx.recv(Filter::tag(Tag::app(0)).from(ProcId(0)));
                ctx.send(ProcId(0), Tag::app(1), 8u8, 1);
            });
        });
        assert!(analysis.run_finished());
        assert_eq!(analysis.diagnostics(), []);
    }

    #[test]
    fn concurrent_wildcard_candidates_race() {
        // Ranks 1 and 2 both send to rank 0 with no ordering between them;
        // rank 0 receives with a source wildcard.
        let analysis = run_with_analysis(3, |sim| {
            sim.spawn(|ctx| {
                let _ = ctx.recv(Filter::tag(Tag::app(0)));
                let _ = ctx.recv(Filter::tag(Tag::app(0)));
            });
            sim.spawn(|ctx| ctx.send(ProcId(0), Tag::app(0), 1u8, 1));
            sim.spawn(|ctx| ctx.send(ProcId(0), Tag::app(0), 2u8, 1));
        });
        let diags = analysis.diagnostics();
        assert!(
            diags.iter().any(|d| d.kind == DiagnosticKind::MessageRace),
            "expected a race, got {diags:?}"
        );
    }

    #[test]
    fn causally_ordered_sends_do_not_race() {
        // Rank 1 sends, rank 0 receives (wildcard), rank 0 tells rank 2 to
        // send, rank 2 sends, rank 0 receives again: the two candidate
        // messages are causally ordered through rank 0 itself.
        let analysis = run_with_analysis(3, |sim| {
            sim.spawn(|ctx| {
                let _ = ctx.recv(Filter::tag(Tag::app(0)));
                ctx.send(ProcId(2), Tag::app(1), (), 1);
                let _ = ctx.recv(Filter::tag(Tag::app(0)));
            });
            sim.spawn(|ctx| ctx.send(ProcId(0), Tag::app(0), 1u8, 1));
            sim.spawn(|ctx| {
                let _ = ctx.recv(Filter::tag(Tag::app(1)));
                ctx.send(ProcId(0), Tag::app(0), 2u8, 1);
            });
        });
        let diags = analysis.diagnostics();
        assert!(
            !diags.iter().any(|d| d.kind == DiagnosticKind::MessageRace),
            "ordered sends must not race: {diags:?}"
        );
    }

    #[test]
    fn late_send_direction_is_caught() {
        // Rank 0's wildcard recv matches rank 1's message; rank 2 sends a
        // matching message only afterwards (in virtual time) but with no
        // causal ordering — the window check must flag it.
        let analysis = run_with_analysis(3, |sim| {
            sim.spawn(|ctx| {
                let _ = ctx.recv(Filter::tag(Tag::app(0)));
                let _ = ctx.recv(Filter::tag(Tag::app(0)));
            });
            sim.spawn(|ctx| ctx.send(ProcId(0), Tag::app(0), 1u8, 1));
            sim.spawn(|ctx| {
                // Long independent compute delays the send past the match.
                ctx.compute(SimDuration::from_millis(5));
                ctx.send(ProcId(0), Tag::app(0), 2u8, 1);
            });
        });
        let diags = analysis.diagnostics();
        assert!(
            diags.iter().any(|d| d.kind == DiagnosticKind::MessageRace),
            "late concurrent send must race: {diags:?}"
        );
    }

    #[test]
    fn lost_message_is_reported_at_finish() {
        let analysis = run_with_analysis(2, |sim| {
            sim.spawn(|ctx| ctx.send(ProcId(1), Tag::app(3), 9u8, 1));
            sim.spawn(|ctx| ctx.compute(SimDuration::from_millis(1)));
        });
        let diags = analysis.diagnostics();
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].kind, DiagnosticKind::LostMessage);
        assert_eq!(diags[0].rank, Some(1));
        assert!(diags[0].detail.contains("tag 3"), "{}", diags[0].detail);
    }

    #[test]
    fn unknown_internal_tag_is_flagged() {
        let analysis = run_with_analysis(2, |sim| {
            sim.spawn(|ctx| {
                ctx.send(
                    ProcId(1),
                    Tag::internal(tags::ACK_BLOCK + tags::BLOCK),
                    (),
                    1,
                )
            });
            sim.spawn(|ctx| {
                let _ = ctx.recv(Filter::any());
            });
        });
        let diags = analysis.diagnostics();
        assert!(
            diags
                .iter()
                .any(|d| d.kind == DiagnosticKind::ReservedTagMisuse),
            "{diags:?}"
        );
    }

    #[test]
    fn undercharged_wire_bytes_are_flagged() {
        let analysis = run_with_analysis(2, |sim| {
            sim.spawn(|ctx| {
                // 8000-byte payload declared as 4 wire bytes.
                ctx.send(ProcId(1), Tag::app(0), vec![0u64; 1000], 4);
            });
            sim.spawn(|ctx| {
                let _ = ctx.recv(Filter::any());
            });
        });
        let diags = analysis.diagnostics();
        assert!(
            diags
                .iter()
                .any(|d| d.kind == DiagnosticKind::WireBytesMismatch),
            "{diags:?}"
        );
        // An honest declaration does not trip the lint.
        let analysis = run_with_analysis(2, |sim| {
            sim.spawn(|ctx| ctx.send(ProcId(1), Tag::app(0), vec![0u64; 1000], 8000));
            sim.spawn(|ctx| {
                let _ = ctx.recv(Filter::any());
            });
        });
        assert!(analysis.diagnostics().is_empty());
    }

    #[test]
    fn dedup_and_caps_bound_storage() {
        let mut analysis = Analysis::new(2);
        let mut sim = Sim::new(IdealNetwork::instantaneous(2));
        sim.set_observer(Box::new(&mut analysis));
        // Twenty distinct lost messages on distinct tags.
        sim.spawn(|ctx| {
            for t in 0..20u32 {
                ctx.send(ProcId(1), Tag::app(t), (), 1);
            }
        });
        sim.spawn(|_| ());
        sim.run().unwrap();
        assert_eq!(analysis.diagnostics().len(), 16, "storage capped");
        assert_eq!(
            analysis.counts()[&DiagnosticKind::LostMessage],
            20,
            "counts keep the full total"
        );
    }
}
