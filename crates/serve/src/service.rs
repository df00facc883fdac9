//! Request handling: JSON what-if queries against the DAG cache, fanned
//! across the worker pool, with byte-identical responses at any worker
//! count.
//!
//! ## Canonical response ordering
//!
//! A batch's points are fanned across the pool with the bench crate's
//! work-index engine, which writes each result into the slot of its input
//! index — so the response lists points in request order no matter how many
//! workers raced, and the serialized body contains only deterministic
//! fields (virtual nanoseconds, exact speedup percentages; never wall
//! clock, worker counts, or cache state). Identical requests therefore
//! produce identical bytes at `--workers 1` and `--workers 8`, and on the
//! cold and cached paths.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use numagap_apps::{run_app, AppId, Scale, SuiteConfig, Variant};
use numagap_bench::json::{self, push_f64, push_u64, Json, JsonError, Parser};
use numagap_bench::{baseline_machine, engine, relative_speedup_pct, wan_machine_with};
use numagap_model::{
    gap_thresholds, record_app, AnalyticModel, GapThresholds, Replayer, TOLERABLE_SPEEDUP_PCT,
};
use numagap_net::{LinkParams, WanTopology};
use numagap_sim::SimDuration;

use crate::cache::{CacheEntry, CacheKey, DagCache};

/// Response/request schema version.
pub const SERVE_SCHEMA_VERSION: u64 = 1;

/// Maximum accepted points per batch. Matches the "thousands of grid
/// points" design target while bounding per-request memory and replay time.
pub const MAX_POINTS: usize = 10_000;

/// Clusters of the machine every query is recorded on (the paper's fig3
/// machine, like `numagap predict`).
const CLUSTERS: usize = numagap_bench::CLUSTERS;

/// Response bytes reserved per point. A line with 4-digit coordinates, a
/// 10-digit makespan and a 17-digit speedup is ~110 bytes.
const POINT_LINE_BYTES: usize = 115;

/// A client-visible request error (HTTP 400 + JSON body).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BadRequest(pub String);

impl std::fmt::Display for BadRequest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for BadRequest {}

/// Query evaluation mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Full replay through the network cost model per point (exact).
    Replay,
    /// Compiled longest-path lower bound per point (microseconds).
    Analytic,
}

impl Mode {
    fn name(self) -> &'static str {
        match self {
            Mode::Replay => "replay",
            Mode::Analytic => "analytic",
        }
    }
}

/// One parsed what-if request.
#[derive(Debug, Clone)]
pub struct WhatIfRequest {
    /// Cache key of the recording the query runs against.
    pub key: CacheKey,
    /// Evaluation mode.
    pub mode: Mode,
    /// `(latency ms, bandwidth MByte/s)` points, in request order.
    pub points: Vec<(f64, f64)>,
    /// Beside each point, where the body spells its coordinates the way `{}`
    /// would print them, as `(offset, len)`: the response copies those bytes
    /// and prints nothing (see `echo_len`). `len` 0 when it has to print.
    pub echo: Vec<[(u32, u32); 2]>,
}

/// The outcome of one handled query: the response body plus whether the
/// recording came from the cache.
#[derive(Debug, Clone)]
pub struct WhatIfResponse {
    /// Serialized JSON body (deterministic bytes).
    pub body: String,
    /// Whether the DAG cache already held the recording.
    pub cache_hit: bool,
}

/// The shared service state behind every connection handler.
#[derive(Debug)]
pub struct Service {
    cache: Mutex<DagCache>,
    workers: usize,
    /// Per [`Mode`]: requests answered, then the nanoseconds they spent in
    /// each of [`STAGES`]. Statistics only, hence `Relaxed`.
    stages: [[AtomicU64; 1 + STAGES.len()]; 2],
}

/// The stages of a request that `/v1/stats` accounts for, in the order
/// [`Service::whatif`] goes through them.
const STAGES: [&str; 5] = ["parse", "recording", "evaluate", "thresholds", "serialise"];

impl Service {
    /// A service with the given compute worker count and cache capacity.
    pub fn new(workers: usize, cache_capacity: usize) -> Self {
        Service {
            cache: Mutex::new(DagCache::new(cache_capacity)),
            workers: workers.max(1),
            stages: Default::default(),
        }
    }

    /// Worker count used to fan batches out.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Current cache counters (for `/v1/stats`).
    pub fn cache_stats(&self) -> crate::cache::CacheStats {
        self.cache().stats()
    }

    /// The cache, locked. The lock is never held across user work — a
    /// recording or a replay runs outside it — so only a bug in `DagCache`'s
    /// own few lines could panic under it. Even then the guard is recovered
    /// rather than the poison passed on to every later request: each step
    /// of a lookup or insert leaves the entry list and counters valid (at
    /// worst an entry keeps a stale LRU position or goes unevicted).
    fn cache(&self) -> MutexGuard<'_, DagCache> {
        self.cache.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Parses and answers one what-if request body.
    ///
    /// # Errors
    ///
    /// [`BadRequest`] on malformed JSON, unknown enum values, out-of-range
    /// points, or a batch past [`MAX_POINTS`]. Simulator failures while
    /// recording also surface as [`BadRequest`] (the query named an
    /// unrunnable configuration).
    pub fn whatif(&self, body: &str) -> Result<WhatIfResponse, BadRequest> {
        let mut at = [Instant::now(); 1 + STAGES.len()];
        let req = parse_request(body)?;
        at[1] = Instant::now();
        let (entry, cache_hit) = self.recording_for(&req.key)?;
        at[2] = Instant::now();
        let body = answer(&req, body, &entry, self.workers, &mut at[3..]);
        let totals = &self.stages[req.mode as usize];
        totals[0].fetch_add(1, Ordering::Relaxed);
        for (total, lap) in totals[1..].iter().zip(at.windows(2)) {
            total.fetch_add((lap[1] - lap[0]).as_nanos() as u64, Ordering::Relaxed);
        }
        Ok(WhatIfResponse { body, cache_hit })
    }

    /// Fetches the recording for `key`, recording and inserting on miss.
    ///
    /// The cache lock is never held across the recording run: concurrent
    /// misses on the same key may record twice, but recordings are
    /// deterministic, so whichever insert lands first wins and both serve
    /// identical content.
    fn recording_for(
        &self,
        key: &CacheKey,
    ) -> Result<(std::sync::Arc<CacheEntry>, bool), BadRequest> {
        if let Some(entry) = self.cache().lookup(key) {
            return Ok((entry, true));
        }
        let entry = record_entry(key)?;
        let stored = self.cache().insert(key, entry);
        Ok((stored, false))
    }
}

/// Records the DAG and baseline for one cache key.
fn record_entry(key: &CacheKey) -> Result<CacheEntry, BadRequest> {
    let cfg = SuiteConfig::at(key.scale);
    let machine = wan_machine_with(key.ref_latency_ms, key.ref_bandwidth_mbs, key.topology);
    let (run, dag) = record_app(key.app, &cfg, key.variant, &machine)
        .map_err(|e| BadRequest(format!("recording {}: {e}", key.canonical())))?;
    let baseline = run_app(key.app, &cfg, Variant::Unoptimized, &baseline_machine())
        .map_err(|e| BadRequest(format!("baseline {}: {e}", key.canonical())))?
        .elapsed;
    let analytic = AnalyticModel::compile(&dag);
    Ok(CacheEntry {
        dag,
        analytic,
        recorded: run.elapsed,
        baseline,
    })
}

/// Evaluates the batch and serializes the response body; `req` was parsed
/// from `body`. `done` is when evaluation, thresholds and the body were.
fn answer(
    req: &WhatIfRequest,
    body: &str,
    entry: &CacheEntry,
    workers: usize,
    done: &mut [Instant],
) -> String {
    let makespans: Vec<SimDuration> = match req.mode {
        // One replayer per worker for this batch: the recording's own
        // machine, reset to each point's WAN link class. It lives on the
        // worker's stack, so a panicking point takes it down with it.
        Mode::Replay => engine::run_cells_with(
            &req.points,
            workers,
            None,
            || Replayer::new(&entry.dag.base_spec),
            |replayer, _, &(lat, bw)| replayer.makespan(&entry.dag, LinkParams::wide_area(lat, bw)),
        ),
        // Analytic evaluation is microseconds per point; the engine fan-out
        // would cost more in thread handoff than it saves, and the slot
        // discipline makes the order identical either way.
        Mode::Analytic => req
            .points
            .iter()
            .map(|&(lat, bw)| entry.analytic.bound(lat, bw))
            .collect(),
    };
    done[0] = Instant::now();
    let pct: Vec<f64> = makespans
        .iter()
        .map(|&m| relative_speedup_pct(entry.baseline, m))
        .collect();
    let thresholds = grid_thresholds(&req.points, &pct);
    done[1] = Instant::now();

    // One allocation for the usual body (head and tail are ~300 bytes); a
    // longer one still grows as needed.
    let mut out = String::with_capacity(512 + req.points.len() * POINT_LINE_BYTES);
    let _ = write!(
        out,
        "{{\n  \"schema\": {},\n  \"key\": \"{}\",\n  \"digest\": \"{:016x}\",\n  \
         \"mode\": \"{}\",\n  \"tolerable_pct\": {},\n  \"recorded_ns\": {},\n  \
         \"baseline_ns\": {},\n  \"points\": [",
        SERVE_SCHEMA_VERSION,
        json::escape(&req.key.canonical()),
        req.key.digest(),
        req.mode.name(),
        TOLERABLE_SPEEDUP_PCT,
        entry.recorded.as_nanos(),
        entry.baseline.as_nanos(),
    );
    // A coordinate is usually the client's own token, copied; the speedup
    // is 17 digits that have to be worked out.
    let coordinate = |out: &mut String, value: f64, (at, len): (u32, u32)| match len {
        0 => push_f64(out, value),
        _ => out.push_str(&body[at as usize..][..len as usize]),
    };
    let mut open = "\n    {\"latency_ms\": ";
    let rows = req
        .points
        .iter()
        .zip(&req.echo)
        .zip(makespans.iter().zip(&pct));
    for ((&(lat, bw), &[lat_at, bw_at]), (&m, &p)) in rows {
        out.push_str(open);
        coordinate(&mut out, lat, lat_at);
        out.push_str(", \"bandwidth_mbs\": ");
        coordinate(&mut out, bw, bw_at);
        out.push_str(", \"makespan_ns\": ");
        push_u64(&mut out, m.as_nanos());
        out.push_str(", \"speedup_pct\": ");
        push_f64(&mut out, p);
        out.push('}');
        open = ",\n    {\"latency_ms\": ";
    }
    out.push_str("\n  ],\n  \"thresholds\": ");
    match thresholds {
        Some(t) => {
            out.push_str("{\"latency_ms\": ");
            push_opt(&mut out, t.latency_ms);
            out.push_str(", \"bandwidth_mbs\": ");
            push_opt(&mut out, t.bandwidth_mbs);
            out.push('}');
        }
        None => out.push_str("null"),
    }
    out.push_str("\n}\n");
    done[2] = Instant::now();
    out
}

/// How many leading bytes of number token `t` are what `{}` prints for its
/// value, 0 when it prints something else. They are when `t` is *canonical*
/// — `0` or `[1-9][0-9]*`, then optionally `.` and digits; no sign, no
/// exponent — and has at most 15 digits before its fraction's trailing
/// zeros, which are not echoed (docs/ARCHITECTURE.md has the proof).
fn echo_len(t: &str) -> usize {
    let t = t.as_bytes();
    let digits = |t: &[u8]| t.iter().take_while(|c| c.is_ascii_digit()).count();
    let int = digits(t);
    if int == 0 || (int > 1 && t[0] == b'0') {
        return 0;
    }
    let mut end = int;
    if int < t.len() {
        let fraction = &t[int + 1..];
        if t[int] != b'.' || fraction.is_empty() || digits(fraction) != fraction.len() {
            return 0;
        }
        // Through the last digit that is not padding, the point included.
        end += fraction
            .iter()
            .rposition(|&c| c != b'0')
            .map_or(0, |last| last + 2);
    }
    if end - usize::from(end > int) <= 15 {
        end
    } else {
        0
    }
}

/// Appends `v` as a JSON number, or `null`.
fn push_opt(out: &mut String, v: Option<f64>) {
    match v {
        Some(v) => push_f64(out, v),
        None => out.push_str("null"),
    }
}

/// Computes tolerable-gap thresholds when the submitted points form a
/// complete latency × bandwidth grid; `None` for free-form batches.
fn grid_thresholds(points: &[(f64, f64)], pct: &[f64]) -> Option<GapThresholds> {
    // A 10 000-point free-form batch costs a sort or two to turn away, not
    // a scan of both axes per point.
    let lats = axis_bits(points.iter().map(|p| p.0));
    if lats.is_empty() || !points.len().is_multiple_of(lats.len()) {
        return None;
    }
    let bws = axis_bits(points.iter().map(|p| p.1));
    if points.len() != lats.len() * bws.len() {
        return None;
    }
    let mut grid = vec![vec![f64::NAN; bws.len()]; lats.len()];
    for (&(lat, bw), &p) in points.iter().zip(pct) {
        let i = lats.binary_search(&lat.to_bits()).ok()?;
        let j = bws.binary_search(&bw.to_bits()).ok()?;
        if !grid[i][j].is_nan() {
            return None; // duplicate point: not a grid
        }
        grid[i][j] = p;
    }
    if grid.iter().flatten().any(|v| v.is_nan()) {
        return None;
    }
    // `gap_thresholds` orders the axes itself, with `total_cmp`, under which
    // values distinct by bits are distinct: its answer does not depend on
    // the order they are handed over in.
    let values = |bits: &[u64]| -> Vec<f64> { bits.iter().map(|&b| f64::from_bits(b)).collect() };
    Some(gap_thresholds(&values(&lats), &values(&bws), &grid))
}

/// The distinct values of one grid axis as sorted bit patterns, so that a
/// point finds its row and column by binary search.
fn axis_bits(values: impl Iterator<Item = f64>) -> Vec<u64> {
    let mut bits: Vec<u64> = values.map(f64::to_bits).collect();
    bits.sort_unstable();
    bits.dedup();
    bits
}

/// Parses the request body into a [`WhatIfRequest`]. `"points"` and `"ref"`
/// never become a tree; what is wrong with them is still reported where it
/// was when they did, after every other field's complaint.
fn parse_request(body: &str) -> Result<WhatIfRequest, BadRequest> {
    let mut p = Parser::new(body);
    let (mut members, mut points, mut reference) = (Vec::new(), None, None);
    let is_object = p.peek() == Some(b'{');
    let scanned = if is_object {
        // A repeated key is answered by its first value, like `Json::get`.
        p.members(|p, key| {
            match key.as_str() {
                "points" if points.is_none() => points = Some(scan_points(p, body.len())?),
                "ref" if reference.is_none() => reference = Some(scan_point(p)?),
                _ => members.push((key, p.value()?)),
            }
            Ok(())
        })
    } else {
        p.value().map(drop)
    };
    scanned
        .and_then(|()| p.finish())
        .map_err(|e| BadRequest(format!("request body: {e}")))?;
    if !is_object {
        return Err(BadRequest("request body must be a JSON object".into()));
    }
    let doc = Json::Obj(members);
    let app = match required_str(&doc, "app")? {
        "water" => AppId::Water,
        "barnes" => AppId::Barnes,
        "tsp" => AppId::Tsp,
        "asp" => AppId::Asp,
        "awari" => AppId::Awari,
        "fft" => AppId::Fft,
        other => {
            return Err(BadRequest(format!(
                "unknown app '{other}' (expected water, barnes, tsp, asp, awari, fft)"
            )))
        }
    };
    let variant = match optional_str(&doc, "variant")?.unwrap_or("opt") {
        "opt" | "optimized" => Variant::Optimized,
        "unopt" | "unoptimized" => Variant::Unoptimized,
        other => return Err(BadRequest(format!("unknown variant '{other}'"))),
    };
    let scale = optional_str(&doc, "scale")?.unwrap_or("small");
    let scale =
        Scale::from_name(scale).ok_or_else(|| BadRequest(format!("unknown scale '{scale}'")))?;
    let topology = match optional_str(&doc, "topology")? {
        None => None,
        Some(text) => {
            let t = WanTopology::parse(text).map_err(|e| BadRequest(format!("topology: {e}")))?;
            t.validate(CLUSTERS)
                .map_err(|e| BadRequest(format!("topology: {e}")))?;
            // A full mesh is the default wiring; normalizing it to `None`
            // keeps the cache key and response identical to an omitted
            // field, like the CLI's --topology handling.
            (t != WanTopology::FullMesh).then_some(t)
        }
    };
    let mode = match optional_str(&doc, "mode")?.unwrap_or("replay") {
        "replay" => Mode::Replay,
        "analytic" => Mode::Analytic,
        other => {
            return Err(BadRequest(format!(
                "unknown mode '{other}' (expected replay, analytic)"
            )))
        }
    };
    let seed = match doc.get("seed") {
        None => 0,
        Some(v) => v
            .as_u64()
            .ok_or_else(|| BadRequest("seed must be a non-negative integer".into()))?,
    };
    let ((ref_latency_ms, ref_bandwidth_mbs), _) = reference
        .unwrap_or(Ok(((10.0, 0.3), [(0, 0); 2])))
        .map_err(|e| BadRequest(format!("ref: {e}")))?;
    let (points, echo) = points
        .unwrap_or_else(|| Err("missing 'points' array".into()))
        .map_err(BadRequest)?;
    Ok(WhatIfRequest {
        key: CacheKey {
            app,
            variant,
            scale,
            topology,
            seed,
            ref_latency_ms,
            ref_bandwidth_mbs,
        },
        mode,
        points,
        echo,
    })
}

/// A point and where its coordinates are spelled, or what is wrong with it.
type Point = Result<((f64, f64), [(u32, u32); 2]), String>;
/// The same for all of `"points"`: the complaint is the first one, in the
/// order they were made in when the member was a tree.
type Points = Result<(Vec<(f64, f64)>, Vec<[(u32, u32); 2]>), String>;

/// Consumes the `"points"` member.
fn scan_points(p: &mut Parser<'_>, body_len: usize) -> Result<Points, JsonError> {
    if p.peek() != Some(b'[') {
        p.value()?;
        return Ok(Err("missing 'points' array".into()));
    }
    // No pair is shorter than `[1,1],`: room for all of them, at once.
    let room = ((body_len - p.offset()) / 6).min(MAX_POINTS);
    let (mut points, mut echo) = (Vec::with_capacity(room), Vec::with_capacity(room));
    let (mut count, mut complaint) = (0, None);
    p.elements(|p| {
        match scan_point(p)? {
            Ok((point, spelled)) if count < MAX_POINTS => {
                points.push(point);
                echo.push(spelled);
            }
            Ok(_) => {}
            Err(e) => drop(complaint.get_or_insert_with(|| format!("points[{count}]: {e}"))),
        }
        count += 1;
        Ok(())
    })?;
    Ok(match complaint {
        _ if count == 0 => Err("'points' must not be empty".into()),
        _ if count > MAX_POINTS => Err(format!(
            "batch of {count} points exceeds the {MAX_POINTS}-point cap"
        )),
        Some(complaint) => Err(complaint),
        None => Ok((points, echo)),
    })
}

/// Consumes one `[latency_ms, bandwidth_mbs]` pair.
fn scan_point(p: &mut Parser<'_>) -> Result<Point, JsonError> {
    if p.peek() != Some(b'[') {
        p.value()?;
        return Ok(Err("expected a [latency_ms, bandwidth_mbs] pair".into()));
    }
    let (mut n, mut pair) = (0, [None; 2]);
    p.elements(|p| {
        if matches!(p.peek(), Some(b'-' | b'0'..=b'9')) {
            let (token, value) = p.number()?;
            // A token past the first 4 GiB of a body is printed, not echoed.
            let at = u32::try_from(p.offset() - token.len()).ok();
            let spelled = at.map_or((0, 0), |at| (at, echo_len(token) as u32));
            if let Some(slot) = pair.get_mut(n) {
                *slot = Some((value, spelled));
            }
        } else {
            p.value()?;
        }
        n += 1;
        Ok(())
    })?;
    Ok(match (n, pair) {
        (2, [Some((lat, lat_at)), Some((bw, bw_at))]) => {
            check_point(lat, bw).map(|()| ((lat, bw), [lat_at, bw_at]))
        }
        (2, [None, _]) => Err("latency must be a number".into()),
        (2, _) => Err("bandwidth must be a number".into()),
        _ => Err(format!("expected 2 elements, got {n}")),
    })
}

fn check_point(lat: f64, bw: f64) -> Result<(), String> {
    let max_lat = LinkParams::MAX_WAN_LATENCY_MS;
    if !(0.0..=max_lat).contains(&lat) {
        return Err(format!("latency {lat} ms out of range [0, {max_lat}]"));
    }
    let min_bw = LinkParams::MIN_WAN_BANDWIDTH_MBS;
    if !(min_bw..=100_000.0).contains(&bw) {
        return Err(format!(
            "bandwidth {bw} MB/s out of range [{min_bw}, 100000]"
        ));
    }
    Ok(())
}

fn required_str<'a>(doc: &'a Json, field: &str) -> Result<&'a str, BadRequest> {
    doc.get(field)
        .and_then(Json::as_str)
        .ok_or_else(|| BadRequest(format!("missing string field '{field}'")))
}

fn optional_str<'a>(doc: &'a Json, field: &str) -> Result<Option<&'a str>, BadRequest> {
    match doc.get(field) {
        None => Ok(None),
        Some(v) => v
            .as_str()
            .map(Some)
            .ok_or_else(|| BadRequest(format!("field '{field}' must be a string"))),
    }
}

/// The `/v1/stats` body. Deliberately *not* byte-stable across requests —
/// it reports live counters; determinism guarantees apply to query bodies.
pub fn stats_body(service: &Service) -> String {
    let s = service.cache_stats();
    let mut out = format!(
        "{{\n  \"schema\": {SERVE_SCHEMA_VERSION},\n  \"workers\": {},\n  \"cache\": \
         {{\"hits\": {}, \"misses\": {}, \"evictions\": {}, \"entries\": {}, \
         \"capacity\": {}}},\n  \"stages\": {{",
        service.workers(),
        s.hits,
        s.misses,
        s.evictions,
        s.entries,
        s.capacity
    );
    for mode in [Mode::Replay, Mode::Analytic] {
        let (sep, totals) = (
            if mode == Mode::Replay { "" } else { "," },
            &service.stages[mode as usize],
        );
        let requests = totals[0].load(Ordering::Relaxed);
        let _ = write!(
            out,
            "{sep}\n    \"{}\": {{\"requests\": {requests}",
            mode.name()
        );
        for (stage, ns) in STAGES.iter().zip(&totals[1..]) {
            let _ = write!(out, ", \"{stage}_ns\": {}", ns.load(Ordering::Relaxed));
        }
        out.push('}');
    }
    out.push_str("\n  }\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_batch(mode: &str) -> String {
        format!(
            "{{\"app\": \"asp\", \"variant\": \"opt\", \"scale\": \"small\", \
             \"mode\": \"{mode}\", \"points\": [[10.0, 0.3], [0.5, 6.3]]}}"
        )
    }

    #[test]
    fn replay_and_analytic_answer_and_cache() {
        let service = Service::new(2, 4);
        let a = service.whatif(&small_batch("replay")).unwrap();
        assert!(!a.cache_hit);
        let b = service.whatif(&small_batch("replay")).unwrap();
        assert!(b.cache_hit);
        assert_eq!(a.body, b.body, "cold and cached bodies must be identical");
        let c = service.whatif(&small_batch("analytic")).unwrap();
        assert!(c.cache_hit, "mode does not change the cache key");
        assert_ne!(a.body, c.body);
        let stats = service.cache_stats();
        assert_eq!((stats.hits, stats.misses), (2, 1));
        // Bodies parse back as JSON and carry both points in request order.
        let doc = json::parse(&a.body).unwrap();
        let points = doc.get("points").unwrap().as_array().unwrap();
        assert_eq!(points.len(), 2);
        assert_eq!(points[0].get("latency_ms").unwrap().as_f64(), Some(10.0));
        assert_eq!(points[1].get("latency_ms").unwrap().as_f64(), Some(0.5));
    }

    #[test]
    fn a_panic_under_the_cache_lock_does_not_take_the_cache_down() {
        let service = Service::new(1, 4);
        service.whatif(&small_batch("analytic")).unwrap();
        std::thread::scope(|s| {
            let holder = s.spawn(|| {
                let _guard = service.cache.lock().unwrap();
                panic!("bug while holding the cache lock");
            });
            assert!(holder.join().is_err());
        });
        assert!(service.cache.is_poisoned());
        // Counters, a hit and a miss-then-insert all still work.
        assert_eq!(service.cache_stats().entries, 1);
        assert!(service.whatif(&small_batch("analytic")).unwrap().cache_hit);
        let other = small_batch("analytic").replace("\"opt\"", "\"unopt\"");
        assert!(!service.whatif(&other).unwrap().cache_hit);
        assert_eq!(service.cache_stats().entries, 2);
    }

    #[test]
    fn grid_batches_report_thresholds_freeform_do_not() {
        let service = Service::new(2, 4);
        let grid = "{\"app\": \"asp\", \"mode\": \"replay\", \"points\": \
                    [[0.5, 6.3], [0.5, 0.3], [10.0, 6.3], [10.0, 0.3]]}";
        let doc = json::parse(&service.whatif(grid).unwrap().body).unwrap();
        assert!(
            doc.get("thresholds").unwrap().get("latency_ms").is_some(),
            "2x2 grid must produce a thresholds object"
        );
        let freeform = "{\"app\": \"asp\", \"mode\": \"replay\", \"points\": \
                        [[0.5, 6.3], [10.0, 0.3]]}";
        let doc = json::parse(&service.whatif(freeform).unwrap().body).unwrap();
        assert_eq!(doc.get("thresholds"), Some(&Json::Null));
    }

    /// The scan `grid_thresholds` replaced, kept as its reference: each
    /// axis in first-seen order, found by a linear search per point.
    fn grid_thresholds_reference(points: &[(f64, f64)], pct: &[f64]) -> Option<GapThresholds> {
        let mut lats: Vec<f64> = Vec::new();
        let mut bws: Vec<f64> = Vec::new();
        for &(lat, bw) in points {
            if !lats.iter().any(|&v| v.to_bits() == lat.to_bits()) {
                lats.push(lat);
            }
            if !bws.iter().any(|&v| v.to_bits() == bw.to_bits()) {
                bws.push(bw);
            }
        }
        if lats.is_empty() || points.len() != lats.len() * bws.len() {
            return None;
        }
        let mut grid = vec![vec![f64::NAN; bws.len()]; lats.len()];
        for (&(lat, bw), &p) in points.iter().zip(pct) {
            let i = lats.iter().position(|&v| v.to_bits() == lat.to_bits())?;
            let j = bws.iter().position(|&v| v.to_bits() == bw.to_bits())?;
            if !grid[i][j].is_nan() {
                return None; // duplicate point: not a grid
            }
            grid[i][j] = p;
        }
        if grid.iter().flatten().any(|v| v.is_nan()) {
            return None;
        }
        Some(gap_thresholds(&lats, &bws, &grid))
    }

    /// Deterministic xorshift, as in the JSON parser's tests.
    fn xorshift(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    /// Log-uniform in `[lo, hi)`, rounded to 4 significant digits through
    /// its decimal spelling: the shape of the benchmark's generated points.
    fn log_uniform_sig4(state: &mut u64, lo: f64, hi: f64) -> f64 {
        let unit = (xorshift(state) >> 11) as f64 / (1u64 << 53) as f64;
        let x = (lo.ln() + unit * (hi.ln() - lo.ln())).exp();
        format!("{x:.3e}").parse().unwrap()
    }

    /// Speedups that cross the tolerable bar somewhere inside most grids:
    /// falling with latency, rising with bandwidth, plus seeded noise.
    fn synthetic_pct(points: &[(f64, f64)], state: &mut u64) -> Vec<f64> {
        points
            .iter()
            .map(|&(lat, bw)| {
                let noise = (xorshift(state) % 2000) as f64 / 100.0;
                90.0 - 12.0 * (1.0 + lat).ln() + 6.0 * bw.ln() + noise
            })
            .collect()
    }

    fn shuffle<T>(items: &mut [T], state: &mut u64) {
        for i in (1..items.len()).rev() {
            items.swap(i, (xorshift(state) % (i as u64 + 1)) as usize);
        }
    }

    /// `n` distinct axis values of the generated shape.
    fn distinct_values(state: &mut u64, n: usize, lo: f64, hi: f64) -> Vec<f64> {
        let mut values = Vec::new();
        while values.len() < n {
            let v = log_uniform_sig4(state, lo, hi);
            if !values.contains(&v) {
                values.push(v);
            }
        }
        values
    }

    /// Both detectors on `points` with seeded speedups: the reference says
    /// `is_grid`, and `grid_thresholds` says what the reference says.
    fn assert_matches_reference(name: &str, points: &[(f64, f64)], is_grid: bool, state: &mut u64) {
        let pct = synthetic_pct(points, state);
        let want = grid_thresholds_reference(points, &pct);
        assert_eq!(want.is_some(), is_grid, "{name}");
        assert_eq!(grid_thresholds(points, &pct), want, "{name}");
    }

    #[test]
    fn grid_detection_matches_the_reference_scan() {
        let mut state = 0x1234_5678_9ABC_DEF1u64;
        for (nl, nb) in [(1, 1), (1, 7), (7, 1), (2, 2), (5, 3), (12, 9), (40, 30)] {
            let mut lats = distinct_values(&mut state, nl, 0.1, 300.0);
            let bws = distinct_values(&mut state, nb, 0.03, 10.0);
            if nl >= 5 {
                // Both zeros are legal latencies, distinct by bits.
                lats[0] = 0.0;
                lats[nl - 1] = -0.0;
            }
            let row_major: Vec<(f64, f64)> = lats
                .iter()
                .flat_map(|&l| bws.iter().map(move |&b| (l, b)))
                .collect();
            let column_major: Vec<(f64, f64)> = bws
                .iter()
                .flat_map(|&b| lats.iter().map(move |&l| (l, b)))
                .collect();
            let mut shuffled = row_major.clone();
            shuffle(&mut shuffled, &mut state);
            let n = shuffled.len();
            let mut minus_one = shuffled.clone();
            minus_one.remove((xorshift(&mut state) % n as u64) as usize);
            let mut repeated = shuffled.clone();
            repeated[n / 2] = repeated[(n / 2 + 1) % n];
            for (name, points, is_grid) in [
                ("row-major", row_major, true),
                ("column-major", column_major, true),
                ("shuffled", shuffled, true),
                // One point short, a single row or column is a shorter one.
                ("minus one point", minus_one, (nl == 1) != (nb == 1)),
                // 1x1 can only repeat its point in place of itself.
                ("one point repeated", repeated, n == 1),
            ] {
                let name = format!("{nl}x{nb} {name}");
                assert_matches_reference(&name, &points, is_grid, &mut state);
            }
        }
        let freeform: Vec<(f64, f64)> = (0..MAX_POINTS)
            .map(|_| {
                (
                    log_uniform_sig4(&mut state, 0.1, 300.0),
                    log_uniform_sig4(&mut state, 0.03, 10.0),
                )
            })
            .collect();
        assert_matches_reference("10000 free-form", &freeform, false, &mut state);
        assert_matches_reference("empty", &[], false, &mut state);
    }

    /// `parse_request` as it was when the whole body became a tree, kept
    /// verbatim (but for the `echo` it never had) as its reference.
    fn parse_request_reference(body: &str) -> Result<WhatIfRequest, BadRequest> {
        let doc = json::parse(body).map_err(|e| BadRequest(format!("request body: {e}")))?;
        if !matches!(doc, Json::Obj(_)) {
            return Err(BadRequest("request body must be a JSON object".into()));
        }
        let app = match required_str(&doc, "app")? {
            "water" => AppId::Water,
            "barnes" => AppId::Barnes,
            "tsp" => AppId::Tsp,
            "asp" => AppId::Asp,
            "awari" => AppId::Awari,
            "fft" => AppId::Fft,
            other => {
                return Err(BadRequest(format!(
                    "unknown app '{other}' (expected water, barnes, tsp, asp, awari, fft)"
                )))
            }
        };
        let variant = match optional_str(&doc, "variant")?.unwrap_or("opt") {
            "opt" | "optimized" => Variant::Optimized,
            "unopt" | "unoptimized" => Variant::Unoptimized,
            other => return Err(BadRequest(format!("unknown variant '{other}'"))),
        };
        let scale = match optional_str(&doc, "scale")?.unwrap_or("small") {
            "small" => Scale::Small,
            "medium" => Scale::Medium,
            "paper" => Scale::Paper,
            other => return Err(BadRequest(format!("unknown scale '{other}'"))),
        };
        let topology = match optional_str(&doc, "topology")? {
            None => None,
            Some(text) => {
                let t =
                    WanTopology::parse(text).map_err(|e| BadRequest(format!("topology: {e}")))?;
                t.validate(CLUSTERS)
                    .map_err(|e| BadRequest(format!("topology: {e}")))?;
                // A full mesh is the default wiring; normalizing it to `None`
                // keeps the cache key and response identical to an omitted
                // field, like the CLI's --topology handling.
                (t != WanTopology::FullMesh).then_some(t)
            }
        };
        let mode = match optional_str(&doc, "mode")?.unwrap_or("replay") {
            "replay" => Mode::Replay,
            "analytic" => Mode::Analytic,
            other => {
                return Err(BadRequest(format!(
                    "unknown mode '{other}' (expected replay, analytic)"
                )))
            }
        };
        let seed = match doc.get("seed") {
            None => 0,
            Some(v) => v
                .as_u64()
                .ok_or_else(|| BadRequest("seed must be a non-negative integer".into()))?,
        };
        let (ref_latency_ms, ref_bandwidth_mbs) = match doc.get("ref") {
            None => (10.0, 0.3),
            Some(v) => parse_point_reference(v).map_err(|e| BadRequest(format!("ref: {e}")))?,
        };
        check_point(ref_latency_ms, ref_bandwidth_mbs)
            .map_err(|e| BadRequest(format!("ref: {e}")))?;
        let points_doc = doc
            .get("points")
            .and_then(Json::as_array)
            .ok_or_else(|| BadRequest("missing 'points' array".into()))?;
        if points_doc.is_empty() {
            return Err(BadRequest("'points' must not be empty".into()));
        }
        if points_doc.len() > MAX_POINTS {
            return Err(BadRequest(format!(
                "batch of {} points exceeds the {MAX_POINTS}-point cap",
                points_doc.len()
            )));
        }
        let mut points = Vec::with_capacity(points_doc.len());
        for (i, v) in points_doc.iter().enumerate() {
            let (lat, bw) =
                parse_point_reference(v).map_err(|e| BadRequest(format!("points[{i}]: {e}")))?;
            check_point(lat, bw).map_err(|e| BadRequest(format!("points[{i}]: {e}")))?;
            points.push((lat, bw));
        }
        Ok(WhatIfRequest {
            key: CacheKey {
                app,
                variant,
                scale,
                topology,
                seed,
                ref_latency_ms,
                ref_bandwidth_mbs,
            },
            mode,
            points,
            echo: Vec::new(),
        })
    }

    fn parse_point_reference(v: &Json) -> Result<(f64, f64), String> {
        let pair = v
            .as_array()
            .ok_or("expected a [latency_ms, bandwidth_mbs] pair")?;
        if pair.len() != 2 {
            return Err(format!("expected 2 elements, got {}", pair.len()));
        }
        let lat = pair[0].as_f64().ok_or("latency must be a number")?;
        let bw = pair[1].as_f64().ok_or("bandwidth must be a number")?;
        Ok((lat, bw))
    }

    /// `evaluate`, the thresholds and `serialise` as the one function they were
    /// before coordinates were echoed, kept verbatim as their reference.
    fn answer_reference(req: &WhatIfRequest, entry: &CacheEntry, workers: usize) -> String {
        let makespans: Vec<SimDuration> = match req.mode {
            // One replayer per worker for this batch: the recording's own
            // machine, reset to each point's WAN link class. It lives on the
            // worker's stack, so a panicking point takes it down with it.
            Mode::Replay => engine::run_cells_with(
                &req.points,
                workers,
                None,
                || Replayer::new(&entry.dag.base_spec),
                |replayer, _, &(lat, bw)| {
                    replayer.makespan(&entry.dag, LinkParams::wide_area(lat, bw))
                },
            ),
            // Analytic evaluation is microseconds per point; the engine fan-out
            // would cost more in thread handoff than it saves, and the slot
            // discipline makes the order identical either way.
            Mode::Analytic => req
                .points
                .iter()
                .map(|&(lat, bw)| entry.analytic.bound(lat, bw))
                .collect(),
        };
        let pct: Vec<f64> = makespans
            .iter()
            .map(|&m| relative_speedup_pct(entry.baseline, m))
            .collect();
        let thresholds = grid_thresholds(&req.points, &pct);

        // One allocation for the usual body (head and tail are ~300 bytes); a
        // longer one still grows as needed.
        let mut out = String::with_capacity(512 + req.points.len() * POINT_LINE_BYTES);
        let _ = write!(
            out,
            "{{\n  \"schema\": {},\n  \"key\": \"{}\",\n  \"digest\": \"{:016x}\",\n  \
             \"mode\": \"{}\",\n  \"tolerable_pct\": {},\n  \"recorded_ns\": {},\n  \
             \"baseline_ns\": {},\n  \"points\": [",
            SERVE_SCHEMA_VERSION,
            json::escape(&req.key.canonical()),
            req.key.digest(),
            req.mode.name(),
            TOLERABLE_SPEEDUP_PCT,
            entry.recorded.as_nanos(),
            entry.baseline.as_nanos(),
        );
        for (i, (&(lat, bw), (&m, &p))) in req
            .points
            .iter()
            .zip(makespans.iter().zip(pct.iter()))
            .enumerate()
        {
            let sep = if i + 1 < req.points.len() { "," } else { "" };
            let _ = write!(
                out,
                "\n    {{\"latency_ms\": {lat}, \"bandwidth_mbs\": {bw}, \
                 \"makespan_ns\": {}, \"speedup_pct\": {p}}}{sep}",
                m.as_nanos(),
            );
        }
        out.push_str("\n  ],\n  \"thresholds\": ");
        match thresholds {
            Some(t) => {
                out.push_str("{\"latency_ms\": ");
                push_opt(&mut out, t.latency_ms);
                out.push_str(", \"bandwidth_mbs\": ");
                push_opt(&mut out, t.bandwidth_mbs);
                out.push('}');
            }
            None => out.push_str("null"),
        }
        out.push_str("\n}\n");
        out
    }

    /// A coordinate near the benchmark's ranges, spelled one of the ways a
    /// client might spell it, a few of them not JSON or not a coordinate.
    fn spelled(state: &mut u64, bandwidth: bool) -> String {
        let (lo, hi) = if bandwidth {
            (0.03, 10.0)
        } else {
            (0.1, 300.0)
        };
        let v = log_uniform_sig4(state, lo, hi);
        let pick = |state: &mut u64, of: &[&str]| {
            of[(xorshift(state) % of.len() as u64) as usize].to_string()
        };
        match xorshift(state) % 64 {
            0..=7 => format!("{v:e}"),
            8..=15 => format!("{v:.6}"),
            16..=19 => format!("{}", v.trunc() + 1.0),
            20..=23 => format!("{:.1}", v.trunc() + 1.0),
            // Zero is a latency, not a bandwidth.
            24..=27 if bandwidth => pick(state, &["0.5", "1", "1.0", "1e0"]),
            24..=27 => pick(state, &["0", "-0", "0.0", "-0.0", "0e0"]),
            28..=33 => {
                // 15, 16 or 17 digits, the last one not a zero.
                let mut text = format!("{}.", xorshift(state) % if bandwidth { 10 } else { 300 });
                let digits = 15 + (xorshift(state) % 3) as usize;
                while text.len() < digits {
                    text.push(char::from(b'0' + (xorshift(state) % 10) as u8));
                }
                text.push(char::from(b'1' + (xorshift(state) % 9) as u8));
                text
            }
            34..=36 if format!("{v}").contains('.') => format!("{v}{}", "0".repeat(300)),
            34..=36 => format!("{v}.{}", "0".repeat(300)),
            37 => format!("0{v}"),
            38 => pick(
                state,
                &[
                    "-1", "0", "100000.1", "1e400", "1e-400", "1.", "-.5", "1.e3", "+1", "1e",
                    "--1",
                ],
            ),
            39 => pick(state, &["null", "\"10\"", "true", "[1]", "{}", "x"]),
            _ => format!("{v}"),
        }
    }

    /// A request body from the seed: mostly well-formed, every field now and
    /// then missing, repeated, misspelled or of the wrong type; the members
    /// in any order, whitespace wherever JSON allows it.
    fn seeded_body(state: &mut u64) -> String {
        const WS: [&str; 6] = ["", "", " ", "\n  ", "\t", " \r\n"];
        fn ws(state: &mut u64) -> &'static str {
            WS[(xorshift(state) % WS.len() as u64) as usize]
        }
        fn list(state: &mut u64, (open, close): (char, char), items: &[String]) -> String {
            let mut text = format!("{open}{}", ws(state));
            for (i, item) in items.iter().enumerate() {
                let sep = if i > 0 { "," } else { "" };
                text += &format!("{sep}{}{item}{}", ws(state), ws(state));
            }
            text.push(close);
            text
        }
        fn array(state: &mut u64, items: &[String]) -> String {
            list(state, ('[', ']'), items)
        }
        fn point(state: &mut u64) -> String {
            let mut pair = vec![spelled(state, false), spelled(state, true)];
            match xorshift(state) % 40 {
                0 => {
                    return ["7", "\"p\"", "null", "{\"latency_ms\": 1}"]
                        [(xorshift(state) % 4) as usize]
                        .to_string()
                }
                1 => pair.truncate((xorshift(state) % 2) as usize),
                2 => pair.push(spelled(state, true)),
                _ => {}
            }
            array(state, &pair)
        }
        fn points(state: &mut u64) -> String {
            if xorshift(state).is_multiple_of(4) {
                // A grid: every occurrence of an axis value spelled its own
                // way, all of them the same `f64`.
                let respell = |state: &mut u64, v: f64| match xorshift(state) % 3 {
                    0 => format!("{v:e}"),
                    1 => format!("{v:.6}"),
                    _ => format!("{v}"),
                };
                let (nl, nb) = (xorshift(state) % 3, xorshift(state) % 3);
                let lats = distinct_values(state, 1 + nl as usize, 0.1, 300.0);
                let bws = distinct_values(state, 1 + nb as usize, 0.03, 10.0);
                let mut cells = Vec::new();
                for &lat in &lats {
                    for &bw in &bws {
                        let pair = [respell(state, lat), respell(state, bw)];
                        cells.push(array(state, &pair));
                    }
                }
                shuffle(&mut cells, state);
                return array(state, &cells);
            }
            match xorshift(state) % 30 {
                0 => "{}".to_string(),
                1 => "3".to_string(),
                _ => {
                    let cells: Vec<String> =
                        (0..xorshift(state) % 9).map(|_| point(state)).collect();
                    array(state, &cells)
                }
            }
        }
        // Each field: how many of its values are good ones, and the values.
        let fields: [(&str, usize, &[&str]); 8] = [
            ("app", 1, &["\"asp\"", "\"nope\"", "7"]),
            (
                "variant",
                3,
                &["\"opt\"", "\"unopt\"", "\"optimized\"", "\"fast\"", "null"],
            ),
            ("scale", 1, &["\"small\"", "\"huge\"", "[]"]),
            ("mode", 2, &["\"analytic\"", "\"replay\"", "\"magic\"", "1"]),
            (
                "seed",
                3,
                &["0", "1", "1e0", "1.5", "-1", "1e300", "\"x\"", "01"],
            ),
            (
                "topology",
                2,
                &["\"mesh\"", "\"ring\"", "\"torus:9x9\"", "5"],
            ),
            (
                "ref",
                3,
                &[
                    "[10, 0.3]",
                    "[1e1, 0.30]",
                    "[5, 1]",
                    "[1]",
                    "[0, 0]",
                    "[\"a\", 1]",
                    "[1, null]",
                    "\"x\"",
                    "[1, 2, 3]",
                ],
            ),
            (
                "extra",
                3,
                &["null", "[[1, 2], {\"points\": [[1]]}]", "\"\\u00e9\\n\""],
            ),
        ];
        let mut members: Vec<String> = Vec::new();
        let mut member = |state: &mut u64, key: &str, value: String| {
            members.push(format!("\"{key}\"{}:{}{value}", ws(state), ws(state)));
        };
        for (key, good, values) in fields {
            // `app` is required; the others are there half of the time.
            let copies = match xorshift(state) % 32 {
                0 => 2,
                1 => 0,
                n if key == "app" || n % 2 == 0 => 1,
                _ => 0,
            };
            for _ in 0..copies {
                let among = if xorshift(state).is_multiple_of(32) {
                    values.len()
                } else {
                    good
                };
                let value = values[(xorshift(state) % among as u64) as usize];
                member(state, key, value.to_string());
            }
        }
        let copies = match xorshift(state) % 16 {
            0 => 0,
            1 | 2 => 2,
            _ => 1,
        };
        for _ in 0..copies {
            let value = points(state);
            member(state, "points", value);
        }
        shuffle(&mut members, state);
        format!("{}{}", ws(state), list(state, ('{', '}'), &members)) + ws(state)
    }

    /// `body` through the service and through the reference functions: the
    /// same bytes, or the same complaint. Says whether it was answered.
    fn assert_answers_as_before(service: &Service, body: &str) -> bool {
        let want = parse_request_reference(body).and_then(|req| {
            let (entry, _) = service.recording_for(&req.key)?;
            Ok(answer_reference(&req, &entry, service.workers))
        });
        let got = service.whatif(body).map(|answer| answer.body);
        assert_eq!(got, want, "{body}");
        got.is_ok()
    }

    #[test]
    fn requests_are_answered_as_they_were_when_the_body_became_a_tree() {
        let service = Service::new(2, 64);
        let mut state = 0x0DD_B1A5_ED5E_ED01u64;
        let (mut answered, mut refused) = (0, 0);
        let mut bodies: Vec<String> = (0..2000).map(|_| seeded_body(&mut state)).collect();
        // Every truncation of three bodies, and a stray byte at every
        // position of them.
        for base in [
            small_batch("analytic"),
            "{\"points\": [[1e1, 0.30], [ 10.0 ,6.3]], \"ref\": [10, 0.3], \"app\": \"asp\", \
             \"mode\": \"analytic\", \"seed\": 0}"
                .to_string(),
            "\n{\"app\":\"asp\",\"mode\":\"analytic\",\"points\":[[0.5,6.3]],\"points\":[[7,7]]}"
                .to_string(),
        ] {
            for at in 0..=base.len() {
                bodies.push(base[..at].to_string());
                const STRAY: &[u8] = b"x\"[]{},:-.e0 ";
                let stray = STRAY[(xorshift(&mut state) % STRAY.len() as u64) as usize];
                bodies.push(format!(
                    "{}{}{}",
                    &base[..at],
                    char::from(stray),
                    &base[at..]
                ));
            }
        }
        // Past the cap, with and without a bad point and a syntax error
        // behind it; nesting past the parser's limit inside a point.
        let many = "[1,1],".repeat(MAX_POINTS);
        for tail in ["[1,1]", "[1]", "[1,1],[1,x]"] {
            bodies.push(format!("{{\"app\": \"asp\", \"points\": [{many}{tail}]}}"));
        }
        bodies.push(format!(
            "{{\"app\": \"asp\", \"points\": [[1, {}1",
            "[".repeat(200)
        ));
        for body in &bodies {
            if assert_answers_as_before(&service, body) {
                answered += 1;
            } else {
                refused += 1;
            }
        }
        // Both sides of the comparison are real: neither outcome is rare.
        assert!(
            answered >= 500 && refused >= 500,
            "{answered} answered, {refused} refused"
        );
    }

    #[test]
    fn an_echoed_prefix_is_what_the_value_prints_as() {
        for (token, echoed) in [
            ("0", "0"),
            ("10", "10"),
            ("0.3", "0.3"),
            ("300", "300"),
            ("0.001", "0.001"),
            ("123456789.012345", "123456789.012345"),
            // A fraction's padding is not echoed, nor a point it leaves bare.
            ("10.0", "10"),
            ("0.30", "0.3"),
            ("0.000", "0"),
            ("1234567890.12345000", "1234567890.12345"),
            // Printed, not echoed: an exponent, a sign, 16 digits, and what
            // is not a JSON number at all.
            ("1e1", ""),
            ("-0", ""),
            ("-1.5", ""),
            ("1234567890.123456", ""),
            ("0.123456789012345", ""),
            ("01", ""),
            ("00.5", ""),
            ("1.", ""),
            (".5", ""),
            ("", ""),
            ("1.2.3", ""),
        ] {
            assert_eq!(&token[..echo_len(token)], echoed, "{token:?}");
        }
        let mut state = 0xCA90_91CA_1D16_1750u64;
        let mut echoed = 0;
        for _ in 0..200_000 {
            // Up to 17 digits, a point anywhere or nowhere, now and then a
            // sign or an exponent, leading and trailing zeros as they fall.
            let digits = 1 + (xorshift(&mut state) % 17) as usize;
            let point = (xorshift(&mut state) % (2 * digits as u64 + 2)) as usize;
            let mut token = String::new();
            for i in 0..digits {
                if i == point {
                    token.push('.');
                }
                // Zeros as often as all other digits, so that padding is common.
                let digit = if xorshift(&mut state).is_multiple_of(4) {
                    0
                } else {
                    xorshift(&mut state) % 10
                };
                token.push(char::from(b'0' + digit as u8));
            }
            match xorshift(&mut state) % 24 {
                0 => token.insert(0, '-'),
                1 => token += "e2",
                _ => {}
            }
            let len = echo_len(&token);
            if len > 0 {
                echoed += 1;
                let value: f64 = token.parse().unwrap();
                assert_eq!(format!("{value}"), token[..len], "{token}");
            }
        }
        assert!(echoed >= 50_000, "{echoed}");
    }

    #[test]
    fn bad_requests_are_typed_errors() {
        let service = Service::new(1, 2);
        for (body, want) in [
            ("", "request body"),
            ("[]", "must be a JSON object"),
            ("{}", "missing string field 'app'"),
            ("{\"app\": \"nope\", \"points\": [[1,1]]}", "unknown app"),
            ("{\"app\": \"asp\"}", "missing 'points'"),
            ("{\"app\": \"asp\", \"points\": []}", "must not be empty"),
            (
                "{\"app\": \"asp\", \"points\": [[1]]}",
                "expected 2 elements",
            ),
            ("{\"app\": \"asp\", \"points\": [[-1, 1]]}", "out of range"),
            ("{\"app\": \"asp\", \"points\": [[1, 0]]}", "out of range"),
            // Past the WAN limits virtual time overflows: a replay used to
            // panic, and an analytic bound to saturate to `u64::MAX` ns.
            (
                "{\"app\": \"asp\", \"points\": [[10, 1e-12]]}",
                "points[0]: bandwidth 0.000000000001 MB/s out of range [0.001, 100000]",
            ),
            (
                "{\"app\": \"asp\", \"mode\": \"analytic\", \"points\": [[10, 1e-12]]}",
                "out of range [0.001, 100000]",
            ),
            (
                "{\"app\": \"asp\", \"mode\": \"analytic\", \"points\": [[10, 1e-14]]}",
                "out of range [0.001, 100000]",
            ),
            (
                "{\"app\": \"asp\", \"mode\": \"analytic\", \"points\": [[1e300, 1]]}",
                "ms out of range [0, 100000]",
            ),
            (
                "{\"app\": \"asp\", \"ref\": [10, 0.0009], \"points\": [[1, 1]]}",
                "ref: bandwidth 0.0009 MB/s out of range",
            ),
            (
                "{\"app\": \"asp\", \"mode\": \"magic\", \"points\": [[1, 1]]}",
                "unknown mode",
            ),
            (
                "{\"app\": \"asp\", \"topology\": \"torus:9x9\", \"points\": [[1, 1]]}",
                "topology",
            ),
        ] {
            let err = service.whatif(body).unwrap_err();
            assert!(err.0.contains(want), "{body:?} -> {err}");
        }
    }

    #[test]
    fn oversized_batches_are_rejected_before_any_work() {
        let service = Service::new(1, 2);
        let mut body = String::from("{\"app\": \"asp\", \"points\": [");
        for i in 0..=MAX_POINTS {
            if i > 0 {
                body.push(',');
            }
            body.push_str("[1,1]");
        }
        body.push_str("]}");
        let err = service.whatif(&body).unwrap_err();
        assert!(err.0.contains("cap"), "{err}");
        assert_eq!(service.cache_stats().misses, 0, "rejected before recording");
    }
}
