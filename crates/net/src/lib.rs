//! # numagap-net — the two-layer interconnect cost model
//!
//! Models the DAS testbed of the HPCA'99 paper: clusters of processors joined
//! by fast Myrinet-class links, and a fully-connected, much slower wide-area
//! layer between clusters, crossed through store-and-forward gateways. The
//! *NUMA gap* — the latency/bandwidth ratio between the two layers — is the
//! quantity the reproduction sweeps.
//!
//! The model charges, per message:
//! * sender software overhead,
//! * FIFO serialization on the sender NIC and receiver NIC (intra links),
//! * for inter-cluster messages: gateway forwarding overheads and FIFO
//!   serialization + latency on each WAN link of the route (one dedicated
//!   link per cluster pair on the default full mesh; [`WanTopology`] has
//!   the other wirings),
//! * receiver software overhead (charged when the application receives).
//!
//! [`TwoLayerNetwork::idle_cost`] itemizes the same path on an idle machine
//! ([`IdleCost`]); the critical-path split and the analytic bound in
//! `numagap-model` read it rather than deriving the path a second time.
//!
//! ```
//! use numagap_net::{das_spec, numa_gap};
//!
//! let spec = das_spec(4, 8, 30.0, 0.1);
//! let (lat_gap, bw_gap) = numa_gap(&spec);
//! assert!(lat_gap > 1000.0 && bw_gap > 100.0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod floor;
mod link;
mod model;
mod presets;
mod topology;
mod wan;

pub use floor::PairFloors;
pub use link::{LinkParams, LinkState};
pub use model::{IdleCost, NetStats, TwoLayerNetwork, TwoLayerSpec};
pub use presets::{
    das_spec, numa_gap, uniform_spec, FIG1_BANDWIDTH_MBS, FIG1_LATENCY_MS,
    FIG4_FIXED_BANDWIDTH_MBS, FIG4_FIXED_LATENCY_MS, PAPER_BANDWIDTHS_MBS, PAPER_LATENCIES_MS,
};
pub use topology::Topology;
pub use wan::WanTopology;
