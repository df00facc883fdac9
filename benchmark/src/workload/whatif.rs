//! The two what-if workloads: batches POSTed to an in-process
//! `numagap serve` over loopback by closed-loop clients (each connection
//! sends its next request only when the previous reply is complete).
//!
//! * `whatif_replay_1k` — 1 connection, `mode: replay`, water/unopt (the
//!   densest DAG), 1 000 points a request. Replay and link booking are
//!   nearly all of it; the kernel, fibers and apps are not touched once the
//!   cache is warm.
//! * `whatif_analytic_10k` — 2 connections, `mode: analytic`, asp/opt,
//!   10 000 points a request. Bound evaluation is a few percent; JSON
//!   parse, response formatting and socket I/O are the rest.
//!
//! The server closes every connection, so each request is a new one.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;
use std::time::Instant;

use numagap_serve::{ServeOpts, Server};

use super::{Budget, Opts};
use crate::inputs::WhatIfSpec;
use crate::probes::Probes;
use crate::report::Report;
use crate::trace::Tracer;
use crate::{oracle, stats};

/// HTTP workers and replay fan-out of the server under test. Two, on a
/// two-core host: with the clients blocked on their replies, never more
/// than two busy threads.
pub const SERVER_WORKERS: usize = 2;

/// One server port must never see more connections than this in a run:
/// every request leaves a socket in TIME_WAIT, and half the ephemeral port
/// range (28 k) is as far as a run may go towards exhausting it.
const MAX_REQUESTS: usize = 12_000;

#[derive(Debug, Clone, Copy)]
pub struct WhatIf {
    pub name: &'static str,
    pub request: WhatIfSpec,
    /// Closed-loop client connections.
    connections: usize,
    /// Fixed per workload; see `Report::timings`.
    tail_percentile: f64,
    /// Consecutive stretches of the run the tail is taken in; see
    /// `stats::quiet_percentile`.
    tail_windows: usize,
    /// Requests a run must make however short `--seconds` is.
    min_requests: usize,
    /// What the cache must say to the first request for the workload's key.
    first_cache: &'static str,
}

pub const REPLAY_1K: WhatIf = WhatIf {
    name: "whatif_replay_1k",
    request: WhatIfSpec {
        app: "water",
        variant: "unopt",
        mode: "replay",
        points: 1000,
    },
    connections: 1,
    // About 90 requests fit the 20 s a driver run measures: p90 would have
    // nine samples beyond it, one short of the rule.
    tail_percentile: 75.0,
    tail_windows: 1,
    min_requests: 12,
    first_cache: "miss",
};

pub const ANALYTIC_10K: WhatIf = WhatIf {
    name: "whatif_analytic_10k",
    request: WhatIfSpec {
        app: "asp",
        variant: "opt",
        mode: "analytic",
        points: 10_000,
    },
    connections: 2,
    // ~1 300 requests support p99 over the whole run, but slow requests
    // come in bursts of about a second (9-17 of 33 over 33 ms, then 0-3 for
    // seconds), as many as the host decides: over ten runs of one build the
    // whole-run p99 spreads 15-28 % of its median and the whole-run p90 up
    // to 24 %. Twelve windows of 100-115 requests each still support p90,
    // and their lower quartile spreads 2 % (6 % with a neighbour spinning
    // 1.2 s of every 5 on one core, where the whole-run p90 spreads 27 %).
    tail_percentile: 90.0,
    tail_windows: 12,
    min_requests: 200,
    // The committed fixtures ask about asp/opt too, so set-up's cold
    // recording of this key happens on the first fixture POST.
    first_cache: "hit",
};

const FIXTURES: [(&str, &str, &str); 2] = [
    (
        "whatif_replay",
        include_str!("../../../crates/serve/fixtures/whatif_replay.json"),
        include_str!("../../../crates/serve/fixtures/whatif_replay.expected.json"),
    ),
    (
        "whatif_analytic",
        include_str!("../../../crates/serve/fixtures/whatif_analytic.json"),
        include_str!("../../../crates/serve/fixtures/whatif_analytic.expected.json"),
    ),
];

/// One HTTP exchange and the instants its phases ended at.
#[derive(Debug)]
pub struct Exchange {
    pub status: u16,
    /// The `X-Numagap-Cache` header: `hit`, `miss`, or empty.
    cache: String,
    raw: Vec<u8>,
    body_at: usize,
    /// start, connected, request sent, first reply byte, last reply byte.
    at: [Instant; 5],
}

impl Exchange {
    fn body(&self) -> &[u8] {
        &self.raw[self.body_at..]
    }

    fn latency_ms(&self) -> f64 {
        (self.at[4] - self.at[0]).as_secs_f64() * 1e3
    }
}

fn post(addr: SocketAddr, body: &str) -> io::Result<Exchange> {
    http(addr, "POST /v1/whatif", body)
}

/// Sends one request (`route` is `"<METHOD> <path>"`) on a fresh connection
/// and reads the reply to EOF. The reply body stays as raw bytes: the client
/// shares two cores with the server it loads, so it copies and validates
/// nothing it does not have to.
pub fn http(addr: SocketAddr, route: &str, body: &str) -> io::Result<Exchange> {
    let start = Instant::now();
    let mut stream = TcpStream::connect(addr)?;
    let connected = Instant::now();
    let head = format!(
        "{route} HTTP/1.1\r\nHost: localhost\r\nContent-Length: {}\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    let sent = Instant::now();
    let mut raw = vec![0u8; 16 * 1024];
    let first = stream.read(&mut raw)?;
    let first_byte = Instant::now();
    raw.truncate(first);
    stream.read_to_end(&mut raw)?;
    let done = Instant::now();

    let malformed = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_string());
    let head_len = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(|| malformed("reply has no header/body split"))?;
    let head =
        std::str::from_utf8(&raw[..head_len]).map_err(|_| malformed("reply head is not UTF-8"))?;
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| malformed("reply has no status"))?;
    let cache = head
        .lines()
        .find_map(|l| l.strip_prefix("X-Numagap-Cache: "))
        .unwrap_or("")
        .to_string();
    Ok(Exchange {
        status,
        cache,
        body_at: head_len + 4,
        raw,
        at: [start, connected, sent, first_byte, done],
    })
}

/// A reply is right when it is HTTP 200 and byte-identical to `reference`.
fn check_reply(reply: &io::Result<Exchange>, reference: &[u8], what: &str) -> Result<(), String> {
    match reply {
        Err(e) => Err(format!("{what}: {e}")),
        Ok(x) if x.status != 200 => Err(format!(
            "{what}: HTTP {}: {}",
            x.status,
            String::from_utf8_lossy(x.body()).trim()
        )),
        Ok(x) if x.body() != reference => Err(format!(
            "{what}: body differs from the reference ({} vs {} bytes)",
            x.body().len(),
            reference.len()
        )),
        Ok(_) => Ok(()),
    }
}

/// A booted server with the workload's key recorded, and the reply every
/// later request for `body` must reproduce byte for byte.
struct Warm {
    server: Server,
    reference: Vec<u8>,
    setup_s: f64,
}

/// Everything before the first timed request: boot, the two committed
/// fixture POSTs, the cold recording of the workload's key (cache miss ->
/// apps -> rt -> sim under the DAG recorder -> analytic compile), one warm
/// request.
fn setup_once(w: &WhatIf, body: &str, seed: u64, report: &mut Report) -> Option<Warm> {
    let start = Instant::now();
    let server = match Server::start(&ServeOpts {
        port: 0,
        workers: SERVER_WORKERS,
        ..ServeOpts::default()
    }) {
        Ok(server) => server,
        Err(e) => {
            report.op(Err(format!("server did not start: {e}")));
            return None;
        }
    };
    let addr = server.addr();
    for (name, request, expected) in FIXTURES {
        report.op(check_reply(
            &post(addr, request),
            expected.as_bytes(),
            &format!("fixture {name}"),
        ));
    }

    let cold = post(addr, body);
    let reference = match &cold {
        Ok(x) if x.status == 200 => x.body().to_vec(),
        _ => Vec::new(),
    };
    report.op(check_reply(&cold, &reference, "first request").and_then(|()| {
        let points = String::from_utf8_lossy(&reference).matches("\"makespan_ns\"").count();
        let cache = cold.as_ref().map_or("", |x| x.cache.as_str());
        if points != w.request.points {
            Err(format!("first request: {points} points answered, {} asked", w.request.points))
        } else if cache != w.first_cache {
            Err(format!("first request: cache said '{cache}', expected '{}'", w.first_cache))
        } else if seed == 0 && oracle::fnv1a(&reference) != oracle::whatif_seed0_digest(w.name) {
            Err(format!(
                "first request: seed-0 response digest {:016x} is not the one in expected/whatif_seed0.txt",
                oracle::fnv1a(&reference)
            ))
        } else {
            Ok(())
        }
    }));
    let warm = post(addr, body);
    report.op(
        check_reply(&warm, &reference, "warm request").and_then(|()| {
            match warm.as_ref().map_or("", |x| x.cache.as_str()) {
                "hit" => Ok(()),
                other => Err(format!(
                    "warm request: cache said '{other}', expected a hit"
                )),
            }
        }),
    );
    Some(Warm {
        server,
        reference,
        setup_s: start.elapsed().as_secs_f64(),
    })
}

/// Closed loop: `connections` clients, each sending its next request when
/// its last reply is complete, until `seconds` have passed (and at least
/// `min_requests`, at most [`MAX_REQUESTS`], were sent). Returns each
/// request's outcome and latency, in the order the requests started.
fn closed_loop(
    addr: SocketAddr,
    body: &str,
    reference: &[u8],
    connections: usize,
    min_requests: usize,
    seconds: f64,
) -> Vec<(Result<(), String>, f64)> {
    type Started = (f64, Result<(), String>, f64);
    let sent = AtomicUsize::new(0);
    let start = Instant::now();
    thread::scope(|s| {
        let clients: Vec<_> = (0..connections)
            .map(|_| {
                s.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        let n = sent.fetch_add(1, Ordering::Relaxed);
                        let in_time = start.elapsed().as_secs_f64() < seconds;
                        if n >= MAX_REQUESTS || (n >= min_requests && !in_time) {
                            return mine;
                        }
                        let started_s = start.elapsed().as_secs_f64();
                        let reply = post(addr, body);
                        let latency = reply.as_ref().map_or(f64::NAN, Exchange::latency_ms);
                        mine.push((
                            started_s,
                            check_reply(&reply, reference, &format!("request {n}")),
                            latency,
                        ));
                    }
                })
            })
            .collect();
        let mut all: Vec<Started> = clients
            .into_iter()
            .flat_map(|c| c.join().expect("client thread panicked"))
            .collect();
        all.sort_by(|a, b| a.0.total_cmp(&b.0));
        all.into_iter()
            .map(|(_, outcome, latency)| (outcome, latency))
            .collect()
    })
}

pub fn run(w: &WhatIf, opts: &Opts, report: &mut Report) {
    let body = w.request.body(opts.seed);
    report.note(&format!(
        "{} connection(s), closed loop, {} points a request, {} request bytes from --seed {}",
        w.connections,
        w.request.points,
        body.len(),
        opts.seed
    ));
    let mut setups = Vec::new();
    let mut warm = None;
    for _ in 0..opts.setup_reps() {
        // The previous server shuts down (and joins its threads) here.
        warm = setup_once(w, &body, opts.seed, report);
        setups.extend(warm.as_ref().map(|ready| ready.setup_s));
    }
    let Some(mut warm) = warm else {
        return;
    };
    report.metric(
        "setup_s",
        stats::median(&setups),
        &format!(
            "boot + fixtures + cold recording + warm request, n={}",
            setups.len()
        ),
    );
    report.note(&format!(
        "response_digest {:016x} (FNV-1a of the response body; expected/whatif_seed0.txt pins it at --seed 0)",
        oracle::fnv1a(&warm.reference)
    ));

    let min_requests = if opts.smoke {
        w.min_requests / 4
    } else {
        w.min_requests
    };
    let timed = Instant::now();
    let outcomes = closed_loop(
        warm.server.addr(),
        &body,
        &warm.reference,
        w.connections,
        min_requests,
        opts.timed_seconds(),
    );
    let timed_s = timed.elapsed().as_secs_f64();
    warm.server.shutdown();

    let mut latencies = Vec::new();
    for (outcome, latency_ms) in outcomes {
        if outcome.is_ok() {
            latencies.push(latency_ms);
        }
        report.op(outcome);
    }
    if latencies.is_empty() {
        latencies.push(f64::NAN);
    }
    let seconds: Vec<f64> = latencies.iter().map(|ms| ms / 1e3).collect();
    report.timings(
        &seconds,
        "request, connect to last byte",
        &latencies,
        w.tail_percentile,
        w.tail_windows,
        "request",
    );
    let ladder: Vec<String> = [50.0, 75.0, 90.0, 95.0, 99.0]
        .into_iter()
        .filter(|&p| {
            stats::highest_supported_percentile(latencies.len()).is_some_and(|top| p <= top)
        })
        .map(|p| format!("p{p} {:.3}", stats::percentile(&latencies, p)))
        .collect();
    report.note(&format!(
        "latency_ms, percentiles {} requests support: {}",
        latencies.len(),
        ladder.join(", ")
    ));
    report.metric(
        "work_per_s",
        (latencies.len() * w.request.points) as f64 / timed_s,
        &format!("points answered per host second over {timed_s:.3} s"),
    );
}

/// The traced run: 20 untraced requests, 20 under spans (request ->
/// connect, send, ttfb, read), their difference, and the estimated budget
/// of a request.
pub fn run_traced(w: &WhatIf, opts: &Opts, report: &mut Report, probes: &Probes) -> Tracer {
    let requests = if opts.smoke { 3 } else { 20 };
    let body = w.request.body(opts.seed);
    let mut tracer = Tracer::new();
    let Some(mut warm) = setup_once(w, &body, opts.seed, report) else {
        return tracer;
    };
    let addr = warm.server.addr();

    let mut plain = Vec::new();
    for (outcome, latency_ms) in closed_loop(addr, &body, &warm.reference, 1, requests, 0.0) {
        report.op(outcome);
        plain.push(latency_ms);
    }
    let mut traced = Vec::new();
    for op in 1..=requests {
        let span = tracer.begin("request", op, None);
        let reply = post(addr, &body);
        if let Ok(x) = &reply {
            for (name, i) in [("connect", 0), ("send", 1), ("ttfb", 2), ("read", 3)] {
                tracer.record(name, op, span, x.at[i], x.at[i + 1]);
            }
        }
        report.op(check_reply(
            &reply,
            &warm.reference,
            &format!("traced request {op}"),
        ));
        tracer.end(span);
        traced.push(tracer.spans()[span].dur_ns() as f64 / 1e6);
    }
    warm.server.shutdown();

    let (plain_ms, traced_ms) = (stats::median(&plain), stats::median(&traced));
    report.metric(
        "trace.overhead_pct",
        100.0 * (traced_ms - plain_ms) / plain_ms,
        &format!(
            "traced {traced_ms:.3} ms vs untraced {plain_ms:.3} ms per request, n={requests} each"
        ),
    );

    let points = w.request.points as f64;
    let mut budget = Budget::default();
    budget.row(
        "serve.http_roundtrip_us (connect, accept, hand-off, close)",
        probes.get("serve.http_roundtrip_us") / 1e6,
    );
    budget.row(
        format!("{} request bytes / bench.json_parse_mb_per_s", body.len()),
        body.len() as f64 / 1e6 / probes.get("bench.json_parse_mb_per_s"),
    );
    if w.request.mode == "replay" {
        budget.row(
            format!("{points} points x model.replay_us_per_point / {SERVER_WORKERS} workers"),
            points * probes.get("model.replay_us_per_point") / 1e6 / SERVER_WORKERS as f64,
        );
    } else {
        budget.row(
            format!("{points} points x serve.analytic_bound_ns"),
            points * probes.get("serve.analytic_bound_ns") / 1e9,
        );
    }
    budget.print(
        report,
        "one traced request; unexplained is response formatting, socket I/O and fan-out",
        traced_ms / 1e3,
    );
    for name in ["connect", "send", "ttfb", "read"] {
        report.note(&format!(
            "  span {name}: {:.3} ms per request",
            tracer.total_s(name) * 1e3 / requests as f64
        ));
    }
    report.note(&format!(
        "  request self time: {:.3} ms per request",
        tracer.total_self_s("request") * 1e3 / requests as f64
    ));
    tracer
}
