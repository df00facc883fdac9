//! # twolayer — facade crate for the HPCA'99 two-layer interconnect reproduction
//!
//! Re-exports the full stack so examples and downstream users need a single
//! dependency:
//!
//! * [`sim`] — deterministic discrete-event kernel
//! * [`net`] — two-layer (Myrinet/ATM-like) interconnect cost model
//! * [`rt`] — message-passing runtime (typed messages, RPC, barriers, ...),
//!   with flat vs cluster-aware (MagPIe-like) MPI collectives in [`rt::coll`]
//! * [`apps`] — the six paper applications, unoptimized and optimized
//! * [`analysis`] — the communication sanitizer (races, lost messages,
//!   deadlock wait-for diagnosis, protocol lints)
//! * [`model`] — the queries on one recorded communication DAG: what-if
//!   replay, the analytic lower bound, the critical-path tiling and the
//!   tolerable-gap thresholds

#![warn(missing_docs)]

pub use numagap_analysis as analysis;
pub use numagap_apps as apps;
pub use numagap_model as model;
pub use numagap_net as net;
pub use numagap_rt as rt;
pub use numagap_sim as sim;
