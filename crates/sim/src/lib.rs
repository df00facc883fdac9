//! # numagap-sim — deterministic discrete-event simulation kernel
//!
//! This crate is the substrate for the reproduction of *"Sensitivity of
//! Parallel Applications to Large Differences in Bandwidth and Latency in
//! Two-Layer Interconnects"* (Plaat, Bal, Hofman, Kielmann; HPCA 1999). The
//! paper ran six parallel applications on a real 128-node testbed whose
//! inter-cluster links were slowed by delay loops; here, the whole machine is
//! simulated: every simulated processor executes the real application
//! algorithm on a stack of its own (a fiber resumed by the kernel, or an OS
//! thread where fibers are unsupported), but all of its communication and
//! computation *time* is virtual and charged by a pluggable [`Network`] cost
//! model.
//!
//! Determinism is a core guarantee: the kernel runs exactly one process at a
//! time and orders all events by `(virtual time, sequence number)` through
//! an [`EventCore`] — the same core the what-if replayer drives — so runs
//! are bit-for-bit reproducible.
//!
//! ## Quick start
//!
//! ```
//! use numagap_sim::{Sim, IdealNetwork, SimDuration, Tag, Filter, ProcId};
//!
//! let mut sim = Sim::new(IdealNetwork::new(2, SimDuration::from_micros(20)));
//! sim.spawn(|ctx| {
//!     ctx.compute(SimDuration::from_millis(1));
//!     ctx.send(ProcId(1), Tag::app(0), 99u64, 8);
//! });
//! sim.spawn(|ctx| {
//!     let m = ctx.recv(Filter::tag(Tag::app(0)));
//!     m.expect_clone::<u64>()
//! });
//! let out = sim.run().unwrap();
//! let answer = out.results[1].as_ref().unwrap();
//! assert_eq!(*answer.downcast_ref::<u64>().unwrap(), 99);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod equeue;
mod error;
mod fiber;
// The ranks' context where the build has no fibers; on x86-64 Linux only
// `sched`'s test drives it.
#[cfg_attr(
    all(target_arch = "x86_64", target_os = "linux", not(test)),
    allow(dead_code)
)]
mod handoff;
mod kernel;
mod mailbox;
mod message;
mod network;
mod observe;
mod process;
mod sched;
mod time;
mod trace;

pub use equeue::{EventCore, TieBreak};
pub use error::{format_filter, PendingMessage, ProcFailure, SimError, WaitState};
pub use kernel::{HotProfile, KernelStats, ProcStats, RunOutcome, Sim};
pub use message::{Filter, Message, Payload, Tag, TagFilter, TagSet};
pub use network::{FaultDisposition, FaultEvent, FaultKind, IdealNetwork, Network};
pub use observe::Observer;
pub use process::{current_rank, ProcCtx};
pub use time::{SimDuration, SimTime};
pub use trace::{TraceEvent, TraceLog, Tracer};

use std::fmt;

/// Identifier of a simulated processor (its rank, `0..nprocs`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ProcId(pub usize);

impl fmt::Display for ProcId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}
