//! Execution tracing: run ASP with the recorder on and export a Chrome
//! trace. Open the output in <https://ui.perfetto.dev> or `chrome://tracing`
//! to see per-rank compute/blocked slices and message flow arrows.
//!
//! ```sh
//! cargo run --release --example trace_timeline -- target/asp_trace.json
//! # then load target/asp_trace.json in Perfetto
//! ```

use twolayer::apps::asp::{asp_rank, AspConfig};
use twolayer::apps::Variant;
use twolayer::net::das_spec;
use twolayer::rt::Machine;
use twolayer::sim::Tracer;

fn main() {
    let path = std::env::args()
        .nth(1)
        .expect("usage: trace_timeline <output.json>");
    let cfg = AspConfig::small();
    let machine = Machine::new(das_spec(2, 4, 5.0, 1.0));
    let mut tracer = Tracer::new(machine.spec().topology.nprocs());
    let matrix = cfg.generate();
    let report = machine
        .run_observed(
            move |ctx| asp_rank(ctx, &cfg, &matrix, Variant::Optimized),
            &mut tracer,
        )
        .expect("simulation failed");
    let trace = tracer.finish();

    println!("run finished in {} (virtual)", report.elapsed);
    println!(
        "trace: {} events, {} messages",
        trace.len(),
        trace.message_count()
    );
    for rank in 0..report.results.len() {
        let busy = trace.compute_time_of(rank);
        let util = 100.0 * busy.as_secs_f64() / report.elapsed.as_secs_f64();
        println!("  rank {rank}: {busy} computing ({util:.0}% utilization)");
    }

    std::fs::write(&path, trace.to_chrome_json()).expect("write trace");
    println!("\nChrome trace written to {path}");
    println!("open it in chrome://tracing or https://ui.perfetto.dev");
}
