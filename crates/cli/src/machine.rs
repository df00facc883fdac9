//! The machine every command but `audit`, `bench`, `predict` and `serve`
//! builds from its flags, and the `info` command that prints it.

use numagap_net::{numa_gap, LinkParams, Topology, TwoLayerSpec, WanTopology};
use numagap_rt::Machine;

use crate::flags::Values;

/// Machine-shape flags shared by the machine commands.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineArgs {
    /// Number of clusters.
    pub clusters: usize,
    /// Processors per cluster.
    pub procs: usize,
    /// Explicit per-cluster sizes (`--clusters 8,8,4,2`); `None` means the
    /// symmetric `clusters x procs` layout. When set, `clusters` mirrors
    /// its length and `procs` is unused.
    pub cluster_sizes: Option<Vec<usize>>,
    /// One-way WAN latency in milliseconds.
    pub latency_ms: f64,
    /// WAN bandwidth in MByte/s.
    pub bandwidth_mbs: f64,
    /// WAN latency jitter fraction.
    pub jitter: f64,
    /// Wide-area wiring between cluster gateways (`--topology`); the
    /// default full mesh reproduces the paper's machine bit-for-bit.
    pub wan_topology: WanTopology,
}

impl Default for MachineArgs {
    fn default() -> Self {
        MachineArgs {
            clusters: 4,
            procs: 8,
            cluster_sizes: None,
            latency_ms: 10.0,
            bandwidth_mbs: 1.0,
            jitter: 0.0,
            wan_topology: WanTopology::FullMesh,
        }
    }
}

impl MachineArgs {
    /// The cluster layout these flags describe.
    pub fn topology(&self) -> Topology {
        match &self.cluster_sizes {
            Some(sizes) => Topology::new(sizes),
            None => Topology::symmetric(self.clusters, self.procs),
        }
    }

    /// Builds the interconnect spec.
    pub fn spec(&self) -> TwoLayerSpec {
        TwoLayerSpec::new(self.topology())
            .inter(LinkParams::wide_area(self.latency_ms, self.bandwidth_mbs))
            .wan_topology(self.wan_topology)
            .wan_latency_jitter(self.jitter)
    }

    /// Builds the machine.
    pub fn machine(&self) -> Machine {
        Machine::new(self.spec())
    }
}

/// Executes the `info` command.
pub(crate) fn execute_info(args: &Values) -> i32 {
    let spec = args.machine.spec();
    let (lat_gap, bw_gap) = numa_gap(&spec);
    println!(
        "machine: {} ({} processors, {} clusters)",
        spec.topology.label(),
        spec.topology.nprocs(),
        spec.topology.nclusters()
    );
    println!(
        "intra:   {} one-way, {:.1} MB/s",
        spec.intra.latency,
        spec.intra.mbytes_per_sec()
    );
    println!(
        "inter:   {} one-way, {:.2} MB/s, jitter {:.0}%",
        spec.inter.latency,
        spec.inter.mbytes_per_sec(),
        spec.wan_latency_jitter * 100.0
    );
    println!(
        "wan:     {} ({} routing node(s))",
        spec.wan_topology.label(),
        spec.wan_topology.nnodes(spec.topology.nclusters())
    );
    println!("NUMA gap: {lat_gap:.0}x latency, {bw_gap:.1}x bandwidth");
    0
}
