//! Facts about the host a result was taken on: a calibration spin, memory
//! high-water marks, core count.

use std::fs;
use std::hint::black_box;
use std::time::Instant;

/// Times a fixed integer kernel (xorshift64 stepped `CALIB_STEPS` times; each
/// step depends on the last, so it cannot be vectorised or folded away). It
/// touches no memory and calls nothing, so a change in its time between the
/// start and end of a workload is the host (frequency, a noisy neighbour),
/// never the code under test.
pub fn calib_ms() -> f64 {
    const CALIB_STEPS: u64 = 20_000_000;
    let start = Instant::now();
    let mut x = black_box(0x2545_f491_4f6c_dd1d_u64);
    for _ in 0..CALIB_STEPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    black_box(x);
    start.elapsed().as_secs_f64() * 1e3
}

fn status_kb(field: &str) -> Option<u64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Peak resident set of this process (`VmHWM`), KiB; 0 where `/proc` has no
/// such field.
pub fn peak_rss_kb() -> u64 {
    status_kb("VmHWM:").unwrap_or(0)
}

/// Resets `VmHWM` to the current resident set so a probe can read the peak
/// of one phase. Best effort: where the kernel refuses, the next reading is
/// the process-wide peak instead.
pub fn reset_peak_rss() {
    let _ = fs::write("/proc/self/clear_refs", "5");
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}
