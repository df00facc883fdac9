//! Determinism under concurrency for the prediction service: identical
//! batches produce byte-identical response bodies at `--workers 1` and
//! `--workers 8`, cold and cached, in process and over the wire. (The
//! analytic bound's soundness across the suite is `numagap-model`'s
//! `tests/analytic.rs`.)

use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};

use numagap_bench::json::{self, push_f64, Json};
use numagap_bench::targets::paper_grid;
use numagap_serve::{ServeOpts, Server, Service};

/// One blocking request against a test server; reads to EOF (the server
/// always closes).
fn http(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String, String) {
    let mut stream = TcpStream::connect(addr).unwrap();
    let req = format!(
        "{method} {path} HTTP/1.1\r\nHost: localhost\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(req.as_bytes()).unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).unwrap();
    let (head, body) = raw.split_once("\r\n\r\n").unwrap();
    let status: u16 = head
        .lines()
        .next()
        .unwrap()
        .split_whitespace()
        .nth(1)
        .unwrap()
        .parse()
        .unwrap();
    (status, head.to_string(), body.to_string())
}

fn server_with_workers(workers: usize) -> Server {
    Server::start(&ServeOpts {
        port: 0,
        workers,
        cache_capacity: 8,
        deadline_ms: 600_000,
    })
    .unwrap()
}

/// A 1000-point batch walking the paper's latency/bandwidth ranges.
fn thousand_point_request(mode: &str) -> String {
    let mut body = format!(
        "{{\"app\": \"asp\", \"variant\": \"opt\", \"scale\": \"small\", \
         \"mode\": \"{mode}\", \"points\": ["
    );
    for i in 0..1000usize {
        if i > 0 {
            body.push(',');
        }
        let lat = 0.5 * ((i % 40) + 1) as f64;
        let bw = 0.05 * ((i % 30) + 1) as f64;
        body.push_str(&format!("[{lat}, {bw}]"));
    }
    body.push_str("]}");
    body
}

#[test]
fn thousand_point_batch_is_byte_identical_across_worker_counts_and_cache_paths() {
    let req = thousand_point_request("analytic");
    let mut bodies = Vec::new();
    for workers in [1usize, 8] {
        let mut server = server_with_workers(workers);
        let addr = server.addr();
        let (status, head, cold) = http(addr, "POST", "/v1/whatif", &req);
        assert_eq!(status, 200, "workers={workers}: {cold}");
        assert!(head.contains("X-Numagap-Cache: miss"), "{head}");
        let (status, head, warm) = http(addr, "POST", "/v1/whatif", &req);
        assert_eq!(status, 200);
        assert!(head.contains("X-Numagap-Cache: hit"), "{head}");
        assert_eq!(
            cold, warm,
            "workers={workers}: cold and cached bodies differ"
        );
        bodies.push(cold);
        server.shutdown();
    }
    assert_eq!(
        bodies[0], bodies[1],
        "1000-point bodies differ between 1 and 8 workers"
    );
    // Sanity: the body really carries all 1000 points.
    let doc = json::parse(&bodies[0]).unwrap();
    assert_eq!(doc.get("points").unwrap().as_array().unwrap().len(), 1000);
}

#[test]
fn replay_grid_batch_is_byte_identical_across_worker_counts() {
    // The fig3 quick grid as a batch: a complete 3x3 grid, so the response
    // must also carry tolerable-gap thresholds.
    let (lats, bws) = paper_grid(true);
    let mut req = String::from(
        "{\"app\": \"asp\", \"variant\": \"opt\", \"scale\": \"small\", \
         \"mode\": \"replay\", \"points\": [",
    );
    let mut first = true;
    for &lat in &lats {
        for &bw in &bws {
            if !first {
                req.push(',');
            }
            first = false;
            req.push_str(&format!("[{lat}, {bw}]"));
        }
    }
    req.push_str("]}");

    let mut bodies = Vec::new();
    for workers in [1usize, 8] {
        let mut server = server_with_workers(workers);
        let (status, _, body) = http(server.addr(), "POST", "/v1/whatif", &req);
        assert_eq!(status, 200, "workers={workers}: {body}");
        bodies.push(body);
        server.shutdown();
    }
    assert_eq!(bodies[0], bodies[1]);
    let doc = json::parse(&bodies[0]).unwrap();
    assert_ne!(
        doc.get("thresholds"),
        Some(&Json::Null),
        "a complete grid batch must report thresholds"
    );
}

/// The body `benchmark/src/inputs.rs` POSTs for `whatif_analytic_10k`:
/// 10 000 log-uniform points over Figure 3's box, 4 significant digits.
fn benchmark_analytic_body(seed: u64) -> String {
    let mut state = seed ^ 0x9e37_79b9_7f4a_7c15;
    let mut unit = || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        ((z ^ (z >> 31)) >> 11) as f64 / (1u64 << 53) as f64
    };
    let mut sig4 = |(lo, hi): (f64, f64)| {
        let x: f64 = (lo.ln() + unit() * (hi.ln() - lo.ln())).exp();
        let decimals = (3 - x.log10().floor() as i32).max(0) as usize;
        format!("{x:.decimals$}")
    };
    let points: Vec<String> = (0..10_000)
        .map(|_| {
            let lat = sig4((0.1, 300.0));
            format!("[{lat}, {}]", sig4((0.03, 10.0)))
        })
        .collect();
    format!(
        "{{\"app\": \"asp\", \"variant\": \"opt\", \"scale\": \"small\", \
         \"mode\": \"analytic\", \"points\": [{}]}}",
        points.join(", ")
    )
}

#[test]
fn the_benchmarks_speedups_print_as_fmt_prints_them() {
    let body = Service::new(2, 4)
        .whatif(&benchmark_analytic_body(0))
        .unwrap()
        .body;
    // The benchmark pins the response's FNV-1a digest at seed 0.
    let pinned = std::fs::read_to_string(
        std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../benchmark/expected/whatif_seed0.txt"),
    )
    .unwrap();
    let digest = body.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    });
    assert!(
        pinned.contains(&format!("whatif_analytic_10k {digest:016x}")),
        "{digest:016x}"
    );
    let doc = json::parse(&body).unwrap();
    let points = doc.get("points").and_then(Json::as_array).unwrap();
    assert_eq!(points.len(), 10_000);
    for point in points {
        let v = point.get("speedup_pct").and_then(Json::as_f64).unwrap();
        let mut printed = String::new();
        push_f64(&mut printed, v);
        assert_eq!(printed, format!("{v}"));
    }
}

#[test]
fn in_process_service_agrees_with_the_wire() {
    // The Service API (used by the bench target and unit tests) and the
    // HTTP path must serve the same bytes for the same request.
    let req = "{\"app\": \"fft\", \"variant\": \"unopt\", \"scale\": \"small\", \
               \"mode\": \"analytic\", \"points\": [[10.0, 0.3], [300.0, 0.03]]}";
    let service = Service::new(2, 4);
    let direct = service.whatif(req).unwrap();
    let mut server = server_with_workers(2);
    let (status, _, wire) = http(server.addr(), "POST", "/v1/whatif", req);
    assert_eq!(status, 200);
    assert_eq!(direct.body, wire);
    server.shutdown();
}
