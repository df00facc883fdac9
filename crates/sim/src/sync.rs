//! Synchronization facade: `std::sync` normally, `loom` under `--cfg loom`.
//!
//! **Rule: every synchronization primitive used on the simulator's
//! kernel↔process control path must be imported from this module, never
//! from `std` directly.** A build with `RUSTFLAGS='--cfg loom'` swaps
//! these re-exports for the vendored `loom` model checker, which
//! exhaustively explores every interleaving of lock/condvar operations —
//! that is how the thread-backed context's rendezvous slot is proven
//! free of lost wakeups and deadlocks (`cargo test -p numagap-sim --lib
//! loom_` under that flag, run by CI's model-check job). A primitive that
//! bypasses the facade is invisible to the checker and voids the proof.
//!
//! Normal builds compile to direct `std` re-exports with zero overhead.

#[cfg(loom)]
pub use loom::sync::{Condvar, Mutex};

#[cfg(not(loom))]
pub use std::sync::{Condvar, Mutex};
