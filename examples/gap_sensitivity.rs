//! Gap sensitivity: reproduce (a slice of) the paper's headline experiment —
//! how one application's speedup degrades as the wide-area links get slower,
//! and how much of it the cluster-aware restructuring buys back.
//!
//! ```sh
//! cargo run --release --example gap_sensitivity
//! ```

use twolayer::apps::asp::{asp_rank, AspConfig};
use twolayer::apps::Variant;
use twolayer::net::{das_spec, numa_gap, uniform_spec};
use twolayer::rt::Machine;

fn main() {
    let cfg = AspConfig::small();

    // Baseline: the same 8 processors on a uniform all-Myrinet cluster.
    let baseline = {
        let cfg = cfg.clone();
        let matrix = cfg.generate();
        Machine::new(uniform_spec(8))
            .run(move |ctx| asp_rank(ctx, &cfg, &matrix, Variant::Unoptimized))
            .expect("baseline failed")
            .elapsed
    };
    println!("ASP on 8 processors; all-Myrinet baseline: {baseline}\n");
    println!(
        "{:>10} {:>12} {:>14} {:>14}",
        "WAN lat", "lat gap", "unoptimized", "optimized"
    );

    // Sweep the latency axis at a fixed bandwidth of 1 MByte/s (2 clusters
    // of 4 processors).
    for lat_ms in [0.5, 3.3, 10.0, 30.0, 100.0] {
        let spec = das_spec(2, 4, lat_ms, 1.0);
        let (lat_gap, _) = numa_gap(&spec);
        let machine = Machine::new(spec);
        let mut cells = Vec::new();
        for variant in [Variant::Unoptimized, Variant::Optimized] {
            let cfg = cfg.clone();
            let matrix = cfg.generate();
            let elapsed = machine
                .run(move |ctx| asp_rank(ctx, &cfg, &matrix, variant))
                .expect("run failed")
                .elapsed;
            let rel = 100.0 * baseline.as_secs_f64() / elapsed.as_secs_f64();
            cells.push(rel);
        }
        println!(
            "{:>8}ms {:>11.0}x {:>13.1}% {:>13.1}%",
            lat_ms, lat_gap, cells[0], cells[1]
        );
    }
    println!("\n(speedup relative to the uniform-interconnect baseline; the");
    println!(" sequencer-migration variant tolerates a far larger gap)");
}
