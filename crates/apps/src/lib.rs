//! # numagap-apps — the six HPCA'99 applications
//!
//! Real implementations (verifiable answers) of the paper's application
//! suite, each written against the simulated two-layer machine in an
//! *unoptimized* (uniform-network) and an *optimized* (cluster-aware)
//! variant:
//!
//! | App | Pattern | Optimization |
//! |---|---|---|
//! | `water` | all-to-half exchange | cluster position cache + reduction tree |
//! | `barnes` | BSP personalized all-to-all | per-cluster message combining, relaxed barrier |
//! | `tsp` | central work queue | per-cluster queues + work stealing |
//! | `asp` | sequencer-ordered broadcast | sequencer migration, aware multicast |
//! | `awari` | asynchronous tiny messages | second-level (cluster) combining |
//! | `fft` | personalized all-to-all transpose | none found (as in the paper) |
//!
//! Every app has a serial reference implementation its parallel checksums
//! are verified against, and a cost model charging virtual compute time
//! calibrated to the paper's medium-grain regime.

#![warn(missing_docs)]
#![allow(clippy::needless_range_loop)] // index-based numeric kernels read better
#![warn(missing_debug_implementations)]

pub mod asp;
// Two Awaris: the synthetic `awari` is the one fig3 runs; `awari_real` and
// `awari_board` build a real endgame database for ablation 6 and `awari-db`.
pub mod awari;
pub mod awari_board;
pub mod awari_real;
pub mod barnes;
pub mod common;
pub mod fft;
pub mod kernels;
pub mod suite;
pub mod tsp;
pub mod water;

pub use common::{total_checksum, total_work, RankOutput, Variant};
pub use suite::{
    checksum_ok, checksum_tolerance, run_app, run_app_observed, run_app_report, serial_checksum,
    variants, AppId, AppRun, Scale, SuiteConfig,
};
