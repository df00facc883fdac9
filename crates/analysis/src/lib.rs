//! # numagap-analysis — a communication sanitizer for the simulated machine
//!
//! The simulator in `numagap-sim` executes real application code over a
//! virtual-time network; this crate watches that execution and reports
//! communication defects the run itself may not expose:
//!
//! - **Message races** ([`DiagnosticKind::MessageRace`]): a source-wildcard
//!   receive whose filter could have matched two causally concurrent
//!   in-flight messages from different senders. Detected with per-process
//!   vector clocks — the classic happens-before construction, joined at
//!   every matched receive.
//! - **Lost messages** ([`DiagnosticKind::LostMessage`]) and barrier epoch
//!   mismatches: messages still in flight when the run finishes.
//! - **Deadlock diagnosis** ([`DiagnosticKind::Deadlock`],
//!   [`DiagnosticKind::OrphanReceive`]): the wait-for cycle and per-rank
//!   blocked filters, decomposed from [`numagap_sim::SimError::Deadlock`].
//! - **Protocol lints**: reserved-tag misuse, undercharged wire sizes,
//!   combining buffers left unflushed at exit (via the runtime's lint
//!   records).
//!
//! The sanitizer attaches to a run as a [`numagap_sim::Observer`] — a
//! zero-cost-when-absent hook on the kernel event stream — so applications
//! need no changes. See [`Analysis`] for the entry point and
//! `numagap check` in the CLI for the end-to-end tool.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod deadlock;
pub mod diag;
pub mod lints;
pub mod sanitizer;
pub mod vclock;

pub use deadlock::diagnose_sim_error;
pub use diag::{Diagnostic, DiagnosticKind};
pub use lints::check_rank_lints;
pub use sanitizer::{Analysis, FaultCounts};
pub use vclock::VectorClock;
