//! Everything generated from `--seed`: the what-if point lists and the
//! probes' access patterns. The program under test only ever sees these
//! generated inputs, never the seed.

/// SplitMix64: tiny, seedable, and defined here so the streams cannot change
/// under a refactor of the repository's own RNG shim.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// `stream` separates independent consumers of one `--seed`.
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn log_uniform(&mut self, lo: f64, hi: f64) -> f64 {
        (lo.ln() + self.unit() * (hi.ln() - lo.ln())).exp()
    }
}

/// Figure 3's axis ranges: the what-if points are drawn from the same box.
const LATENCY_MS: (f64, f64) = (0.1, 300.0);
const BANDWIDTH_MBS: (f64, f64) = (0.03, 10.0);

/// `x` as a plain decimal literal with 4 significant digits, so the request
/// bytes are a pure function of the seed on every platform.
fn sig4(x: f64) -> String {
    let exp = x.log10().floor() as i32;
    let decimals = (3 - exp).max(0) as usize;
    format!("{x:.decimals$}")
}

/// One `/v1/whatif` request: the cache key fields, the mode, and `n`
/// log-uniform `(latency_ms, bandwidth_mbs)` points drawn from `seed`.
#[derive(Debug, Clone, Copy)]
pub struct WhatIfSpec {
    pub app: &'static str,
    pub variant: &'static str,
    pub mode: &'static str,
    pub points: usize,
}

impl WhatIfSpec {
    pub fn body(&self, seed: u64) -> String {
        let mut rng = Rng::new(seed, 1);
        let mut body = format!(
            "{{\"app\": \"{}\", \"variant\": \"{}\", \"scale\": \"small\", \"mode\": \"{}\", \"points\": [",
            self.app, self.variant, self.mode
        );
        for i in 0..self.points {
            if i > 0 {
                body.push_str(", ");
            }
            let lat = sig4(rng.log_uniform(LATENCY_MS.0, LATENCY_MS.1));
            let bw = sig4(rng.log_uniform(BANDWIDTH_MBS.0, BANDWIDTH_MBS.1));
            body.push_str(&format!("[{lat}, {bw}]"));
        }
        body.push_str("]}");
        body
    }
}

/// The `(latency_ms, bandwidth_mbs)` points of a generated request body,
/// parsed back from its text so in-process probes evaluate exactly the
/// numbers the server would.
pub fn points_of(body: &str) -> Vec<(f64, f64)> {
    let list = body
        .split_once("\"points\": [")
        .expect("generated body has a points array")
        .1;
    list.trim_end_matches("]}")
        .split("], [")
        .map(|pair| {
            let pair = pair.trim_matches(|c| c == '[' || c == ']');
            let (lat, bw) = pair.split_once(", ").expect("generated point is a pair");
            (
                lat.parse().expect("generated latency is a number"),
                bw.parse().expect("generated bandwidth is a number"),
            )
        })
        .collect()
}

/// One message of a network-booking probe stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Booking {
    pub src: usize,
    pub dst: usize,
    pub wire_bytes: u64,
    /// Departure time, ns; non-decreasing along the stream.
    pub at_ns: u64,
}

/// `n` bookings over a `clusters x procs` machine. `inter` picks endpoints
/// in different clusters (every message crosses the WAN) or in the same one.
/// Departures advance ~2 us per message while a 1 MB/s WAN needs ~100 us+
/// for these sizes, so inter streams run under a growing backlog.
pub fn booking_stream(
    seed: u64,
    n: usize,
    clusters: usize,
    procs: usize,
    inter: bool,
) -> Vec<Booking> {
    let mut rng = Rng::new(seed, if inter { 2 } else { 3 });
    let mut at_ns = 0;
    (0..n)
        .map(|_| {
            let c = rng.below(clusters as u64) as usize;
            let src = c * procs + rng.below(procs as u64) as usize;
            let dst = if inter {
                let other = (c + 1 + rng.below(clusters as u64 - 1) as usize) % clusters;
                other * procs + rng.below(procs as u64) as usize
            } else {
                c * procs + (src % procs + 1 + rng.below(procs as u64 - 1) as usize) % procs
            };
            at_ns += rng.below(4000);
            Booking {
                src,
                dst,
                wire_bytes: 64 + rng.below(4096),
                at_ns,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const REPLAY: WhatIfSpec = WhatIfSpec {
        app: "water",
        variant: "unopt",
        mode: "replay",
        points: 1000,
    };

    #[test]
    fn same_seed_gives_byte_identical_bodies_and_streams() {
        assert_eq!(REPLAY.body(7), REPLAY.body(7));
        assert_eq!(
            booking_stream(7, 500, 4, 8, true),
            booking_stream(7, 500, 4, 8, true)
        );
    }

    #[test]
    fn different_seeds_give_different_bodies_and_streams() {
        assert_ne!(REPLAY.body(7), REPLAY.body(8));
        assert_ne!(
            booking_stream(7, 500, 4, 8, false),
            booking_stream(8, 500, 4, 8, false)
        );
    }

    #[test]
    fn points_stay_inside_the_figure_3_box_with_four_digits() {
        let body = REPLAY.body(3);
        let points = points_of(&body);
        assert_eq!(points.len(), 1000);
        for (lat, bw) in points {
            assert!((0.1..=300.0).contains(&lat), "{lat}");
            assert!((0.03..=10.0).contains(&bw), "{bw}");
        }
        assert_eq!(sig4(123.456), "123.5");
        assert_eq!(sig4(0.031234), "0.03123");
        assert_eq!(sig4(9.99996), "10.000");
    }

    #[test]
    fn booking_streams_respect_the_layer_they_target() {
        for b in booking_stream(1, 2000, 4, 8, true) {
            assert_ne!(b.src / 8, b.dst / 8);
        }
        for b in booking_stream(1, 2000, 4, 8, false) {
            assert_eq!(b.src / 8, b.dst / 8);
            assert_ne!(b.src, b.dst);
        }
    }
}
