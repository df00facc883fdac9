//! Scaling guards for the `/v1/whatif` request path: `deadline_ms` bounds
//! socket waits only, so every CPU stage of a request has to stay at most
//! O(n log n) in its points and O(bytes) in its body. Each guard times a
//! small and a large input and bounds the ratio at twice what linear work
//! would measure. The constant behind a replay request's O(n) — a point
//! costs its link bookings and event-loop steps, and not one allocation once
//! its worker's replayer is warm — is counted rather than timed, in
//! `crates/model/tests/alloc.rs`.
//!
//! A test binary of their own, and one guard at a time: the timings need a
//! core to themselves, which `cargo test` gives a binary but not a test
//! among a crate's unit tests.

use std::hint::black_box;
use std::sync::Mutex;
use std::time::Instant;

use numagap_bench::json;
use numagap_serve::{Service, MAX_POINTS};

static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

/// Fastest of five runs, seconds.
fn min_time(run: &mut impl FnMut()) -> f64 {
    (0..5)
        .map(|_| {
            let start = Instant::now();
            run();
            start.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

/// How many times longer `large` takes than `small`: the smallest of three
/// attempts, each a ratio of minima. A neighbour on the host is likelier to
/// interrupt the longer run, which only ever inflates the ratio; work that
/// really grows faster than linearly inflates every attempt.
fn time_ratio(mut small: impl FnMut(), mut large: impl FnMut()) -> f64 {
    (0..3)
        .map(|_| min_time(&mut large) / min_time(&mut small))
        .fold(f64::INFINITY, f64::min)
}

/// A free-form analytic request of `n` points, no two sharing a latency or
/// a bandwidth.
fn freeform_body(n: usize) -> String {
    let points: Vec<String> = (0..n)
        .map(|i| {
            format!(
                "[{}, {}]",
                (1000 + i) as f64 / 100.0,
                (1 + i) as f64 / 1000.0
            )
        })
        .collect();
    format!(
        "{{\"app\": \"asp\", \"mode\": \"analytic\", \"points\": [{}]}}",
        points.join(", ")
    )
}

#[test]
fn a_request_costs_in_proportion_to_its_points() {
    let _quiet = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let service = Service::new(1, 2);
    let (small, large) = (freeform_body(MAX_POINTS / 8), freeform_body(MAX_POINTS));
    service.whatif(&small).unwrap(); // records asp/opt: every timed request is a hit
    let post = |body: &str| {
        let answer = service.whatif(black_box(body)).unwrap();
        assert!(answer.cache_hit && answer.body.ends_with("\"thresholds\": null\n}\n"));
    };
    // Eight times the points is eight times the work, a little more for the
    // sort; a scan of both axes per point measures 45 or more.
    let ratio = time_ratio(|| post(&small), || post(&large));
    assert!(
        ratio < 16.0,
        "10000 / 1250 point request time ratio {ratio:.1}"
    );
}

#[test]
fn a_string_parses_in_proportion_to_its_bytes() {
    let _quiet = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    // One string is the whole document, as in a hostile `{"app": "aaa…"}`
    // body. Four times the bytes is four times the work; a scanner that
    // looks at the rest of the input per character measures 15 or more.
    let doc = |len: usize| format!("{{\"app\": \"{}\"}}", "a".repeat(len));
    let (small, large) = (doc(100 << 10), doc(400 << 10));
    let parse = |doc: &str| assert!(black_box(json::parse(black_box(doc))).is_ok());
    let ratio = time_ratio(|| parse(&small), || parse(&large));
    assert!(ratio < 8.0, "400 KB / 100 KB parse time ratio {ratio:.1}");
}
