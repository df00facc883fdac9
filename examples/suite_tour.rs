//! Suite tour: run all six applications (small scale) on a wide-area machine
//! in both variants, verify every answer against its serial reference, and
//! print a mini report.
//!
//! ```sh
//! cargo run --release --example suite_tour
//! ```

use twolayer::apps::{checksum_ok, run_app, serial_checksum, AppId, Scale, SuiteConfig, Variant};
use twolayer::net::das_spec;
use twolayer::rt::Machine;

fn main() {
    let cfg = SuiteConfig::at(Scale::Small);
    let machine = Machine::new(das_spec(4, 2, 5.0, 1.0));
    println!("all six applications on 4x2 processors, 5 ms / 1 MB/s WAN\n");
    println!(
        "{:<12} {:<12} {:>10} {:>12} {:>10}",
        "Program", "variant", "runtime", "WAN msgs", "verified"
    );
    for app in AppId::ALL {
        let expected = serial_checksum(app, &cfg);
        for variant in [Variant::Unoptimized, Variant::Optimized] {
            let run = run_app(app, &cfg, variant, &machine).expect("run failed");
            let ok = checksum_ok(app, run.checksum, expected);
            println!(
                "{:<12} {:<12} {:>10} {:>12} {:>10}",
                app.to_string(),
                variant.to_string(),
                run.elapsed.to_string(),
                run.net.inter_msgs,
                if ok { "yes" } else { "NO" }
            );
            assert!(ok, "{app}/{variant} failed verification");
        }
    }
    println!("\nevery parallel answer matches its serial reference");
}
