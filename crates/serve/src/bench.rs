//! The `serve` bench target: end-to-end throughput of the prediction
//! service, measured over real sockets.
//!
//! Each cell boots a server on an ephemeral port, POSTs one batch to
//! `/v1/whatif`, and times the whole round trip — request serialization,
//! the hardened JSON parse, cache lookup (and on cold cells the recording
//! run), point evaluation across the worker pool, and response
//! serialization. The grid crosses:
//!
//! * **batch size** — amortization of per-request overhead;
//! * **worker count** — one server instance per worker count, so the cell
//!   measures the engine fan-out at that width;
//! * **mode** — `replay` (exact, a full DAG replay per point) vs `analytic`
//!   (the compiled longest-path bound, microseconds per point);
//! * **cold vs warm** — every (batch, mode) pair gets a fresh seed
//!   namespace, so its first request records the DAG and its second is a
//!   pure cache hit. The cold/warm wall-clock gap is the recording cost the
//!   cache exists to amortize.
//!
//! Deterministic fields per record: `virtual_s` is the batch's summed
//! predicted makespan, and `checksum` fingerprints the exact response body
//! (FNV-1a, truncated to 53 bits so the f64 field holds it exactly). Both
//! are independent of worker count, cache state and host speed, so the
//! committed `BENCH_serve.json` baseline is compared exactly in CI while
//! wall clock stays advisory — the `Instant::now` stopwatch here is waived
//! as ND002 like every other bench target's.

use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::time::Instant;

use numagap_bench::json::{self, Json};
use numagap_bench::record::{BenchSummary, RunRecord};
use numagap_bench::targets::SweepOpts;
use numagap_bench::{write_csv, BenchError};

use crate::cache::fnv1a;
use crate::http::{ServeOpts, Server};

/// One grid cell: a batch POSTed once against a known cache temperature.
#[derive(Debug, Clone, Copy)]
struct Cell {
    workers: usize,
    batch: usize,
    mode: &'static str,
    warm: bool,
}

impl Cell {
    fn key(&self) -> String {
        let temp = if self.warm { "warm" } else { "cold" };
        format!(
            "serve/{}/b{}/w{}/{temp}",
            self.mode, self.batch, self.workers
        )
    }
}

/// The deterministic batch for a cell: `n` points walking the paper's
/// latency/bandwidth ranges. Plain decimal literals only, so the request
/// bytes (and therefore the recorded checksums) are reproducible from the
/// cell alone.
fn batch_points(n: usize) -> Vec<(f64, f64)> {
    (0..n)
        .map(|i| {
            let lat = 0.5 * ((i % 40) + 1) as f64; // 0.5 .. 20 ms
            let bw = 0.05 * ((i % 30) + 1) as f64; // 0.05 .. 1.5 MB/s
            (lat, bw)
        })
        .collect()
}

fn request_body(cell: Cell, scale: &str, seed: u64) -> String {
    // Water/unoptimized records the suite's densest communication DAG, so
    // the replay column reflects a realistic per-point cost (the analytic
    // column is DAG-size independent after compilation).
    let mut body = format!(
        "{{\"app\": \"water\", \"variant\": \"unopt\", \"scale\": \"{scale}\", \
         \"mode\": \"{}\", \"seed\": {seed}, \"points\": [",
        cell.mode
    );
    for (i, (lat, bw)) in batch_points(cell.batch).iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        body.push_str(&format!("[{lat}, {bw}]"));
    }
    body.push_str("]}");
    body
}

/// Minimal blocking HTTP client: one POST, reads to EOF (the server always
/// closes). Returns (status, cache header value, body).
fn post(addr: SocketAddr, path: &str, body: &str) -> Result<(u16, String, String), String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let req = format!(
        "POST {path} HTTP/1.1\r\nHost: localhost\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    stream
        .write_all(req.as_bytes())
        .map_err(|e| format!("send: {e}"))?;
    let mut raw = String::new();
    stream
        .read_to_string(&mut raw)
        .map_err(|e| format!("recv: {e}"))?;
    let (head, body) = raw
        .split_once("\r\n\r\n")
        .ok_or_else(|| format!("no header/body split in {raw:?}"))?;
    let status: u16 = head
        .lines()
        .next()
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("malformed status line in {head:?}"))?;
    let cache = head
        .lines()
        .find_map(|l| l.strip_prefix("X-Numagap-Cache: "))
        .unwrap_or("")
        .to_string();
    Ok((status, cache, body.to_string()))
}

/// Sums the `makespan_ns` fields of a response body, in seconds.
fn summed_makespan_s(body: &str) -> Result<f64, String> {
    let doc = json::parse(body).map_err(|e| format!("response body: {e}"))?;
    let points = doc
        .get("points")
        .and_then(Json::as_array)
        .ok_or("response has no points array")?;
    let mut total_ns = 0.0f64;
    for p in points {
        total_ns += p
            .get("makespan_ns")
            .and_then(Json::as_f64)
            .ok_or("point has no makespan_ns")?;
    }
    Ok(total_ns / 1e9)
}

/// 53-bit body fingerprint that an f64 record field holds exactly.
fn body_checksum(body: &str) -> f64 {
    (fnv1a(body.as_bytes()) >> 11) as f64
}

/// Runs the serve throughput sweep: boots one server per worker count,
/// POSTs every (batch, mode) twice (cold then warm), and writes `serve.csv`
/// plus `BENCH_serve.json` through the standard record pipeline.
///
/// Cells run serially on purpose: each one measures a server that is itself
/// fanning the batch across `workers` threads, so concurrent cells would
/// contend for the same cores and corrupt the wall-clock columns.
///
/// # Errors
///
/// Server boot/transport failures, non-200 responses, a warm body that
/// differs from its cold body, and artifact I/O.
pub fn run_serve_bench(opts: &SweepOpts) -> Result<BenchSummary, BenchError> {
    let scale = opts.scale.name();
    let (batches, worker_grid): (&[usize], &[usize]) = if opts.quick {
        (&[32, 256], &[1, 4])
    } else {
        (&[64, 512, 2048], &[1, 2, 8])
    };
    println!(
        "== serve: prediction service throughput (quick={} scale={scale}) ==",
        opts.quick
    );
    let t0 = Instant::now();
    let mut summary = BenchSummary::new("serve", scale, opts.quick, opts.jobs);
    let mut rows = Vec::new();
    let mut timing_rows = Vec::new();
    // (mode, warm) -> accumulated (points, wall_s) for the headline ratio.
    let mut per_point: Vec<(&str, bool, f64, f64)> = Vec::new();
    let mut seed = 0u64;

    for &workers in worker_grid {
        let mut server = Server::start(&ServeOpts {
            port: 0,
            workers,
            cache_capacity: crate::cache::DEFAULT_CACHE_CAPACITY,
            deadline_ms: 600_000,
        })
        .map_err(|e| BenchError::Sim(format!("serve bench: bind failed: {e}")))?;
        let addr = server.addr();
        for &batch in batches {
            for mode in ["analytic", "replay"] {
                // A fresh seed namespace per (workers, batch, mode) makes
                // the first POST a guaranteed miss and the second a hit.
                seed += 1;
                let body = request_body(
                    Cell {
                        workers,
                        batch,
                        mode,
                        warm: false,
                    },
                    scale,
                    seed,
                );
                let mut cold_body = String::new();
                for warm in [false, true] {
                    let cell = Cell {
                        workers,
                        batch,
                        mode,
                        warm,
                    };
                    let start = Instant::now();
                    let (status, cache, resp) = post(addr, "/v1/whatif", &body)
                        .map_err(|e| BenchError::Sim(format!("{}: {e}", cell.key())))?;
                    let wall = start.elapsed().as_secs_f64();
                    if status != 200 {
                        return Err(BenchError::Sim(format!(
                            "{}: HTTP {status}: {resp}",
                            cell.key()
                        )));
                    }
                    let expect = if warm { "hit" } else { "miss" };
                    if cache != expect {
                        return Err(BenchError::Sim(format!(
                            "{}: expected cache {expect}, server said {cache:?}",
                            cell.key()
                        )));
                    }
                    if warm && resp != cold_body {
                        return Err(BenchError::Sim(format!(
                            "{}: warm body differs from cold body",
                            cell.key()
                        )));
                    }
                    if !warm {
                        cold_body = resp.clone();
                    }
                    let virtual_s = summed_makespan_s(&resp)
                        .map_err(|e| BenchError::Sim(format!("{}: {e}", cell.key())))?;
                    let us_per_point = wall * 1e6 / batch as f64;
                    println!(
                        "  {:<28} {:>9.4}s  {:>9.1} us/point",
                        cell.key(),
                        wall,
                        us_per_point
                    );
                    // serve.csv carries only deterministic columns (CI
                    // byte-compares the serial and parallel runs); wall
                    // clock goes to serve_timing.csv and the summary.
                    rows.push(format!(
                        "{},{mode},{batch},{workers},{},{virtual_s},{}",
                        cell.key(),
                        warm as u8,
                        body_checksum(&resp),
                    ));
                    timing_rows.push(format!("{},{wall},{us_per_point}", cell.key()));
                    per_point.push((mode, warm, batch as f64, wall));
                    summary.records.push(RunRecord {
                        key: cell.key(),
                        wall_s: wall,
                        virtual_s,
                        checksum: body_checksum(&resp),
                        kernel: Default::default(),
                        intra_msgs: 0,
                        intra_bytes: 0,
                        inter_msgs: 0,
                        inter_bytes: 0,
                        seed: Some(seed),
                        profile: None,
                        sim_threads: None,
                    });
                }
            }
        }
        server.shutdown();
    }
    summary.wall_s = t0.elapsed().as_secs_f64();

    // Headline: warm per-point cost, analytic vs replay. Warm on both sides
    // so the ratio isolates evaluation (no recording, no cache fill).
    let warm_us = |want: &str| {
        let (pts, wall) = per_point
            .iter()
            .filter(|(m, warm, _, _)| *m == want && *warm)
            .fold((0.0, 0.0), |(p, w), (_, _, pts, wall)| (p + pts, w + wall));
        wall * 1e6 / pts.max(1.0)
    };
    let (a_us, r_us) = (warm_us("analytic"), warm_us("replay"));
    println!(
        "\n  warm per-point cost: analytic {a_us:.1} us, replay {r_us:.1} us \
         ({:.0}x)",
        r_us / a_us.max(1e-9)
    );

    write_csv(
        &opts.out,
        "serve.csv",
        "cell,mode,batch,workers,warm,virtual_s,checksum",
        &rows,
    )?;
    write_csv(
        &opts.out,
        "serve_timing.csv",
        "cell,wall_s,us_per_point",
        &timing_rows,
    )?;
    let path = opts.out.join("BENCH_serve.json");
    summary.write(&path)?;
    println!("  [wrote {}]", path.display());
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use numagap_apps::Scale;
    use numagap_bench::record::{compare, CompareOpts};

    #[test]
    fn serve_bench_is_deterministic_in_its_virtual_fields() {
        let dir = std::env::temp_dir().join("numagap-serve-bench-test");
        std::fs::create_dir_all(&dir).unwrap();
        let opts = SweepOpts {
            scale: Scale::Small,
            quick: true,
            jobs: 2,
            out: dir.clone(),
            progress: false,
            topology: None,
        };
        let a = run_serve_bench(&opts).unwrap();
        let b = run_serve_bench(&opts).unwrap();
        // 2 worker counts x 2 batches x 2 modes x cold/warm.
        assert_eq!(a.records.len(), 16);
        let rep = compare(
            &a,
            &b,
            &CompareOpts {
                wall_clock: false,
                ..CompareOpts::default()
            },
        );
        assert!(rep.is_clean(), "{:?}", rep.findings);
        let loaded = BenchSummary::load(&dir.join("BENCH_serve.json")).unwrap();
        assert_eq!(loaded, b);
        // Cold and warm records of one cell agree on every virtual field.
        for pair in a.records.chunks(2) {
            assert_eq!(pair[0].checksum, pair[1].checksum, "{}", pair[0].key);
            assert_eq!(pair[0].virtual_s, pair[1].virtual_s, "{}", pair[0].key);
        }
    }
}
