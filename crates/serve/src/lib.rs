//! # numagap-serve — the batched what-if prediction service
//!
//! Turns the record/replay performance model into a long-running service:
//! `numagap serve` binds a hand-rolled HTTP/1.1 server (std only — the
//! build environment has no route to crates.io) that answers batched
//! "what if the WAN had latency L and bandwidth B?" queries without paying
//! a recording run per request.
//!
//! The queries themselves — replay, the analytic lower bound
//! ([`AnalyticModel`]) and the tolerable-gap thresholds — live in
//! `numagap_model`; this crate speaks HTTP around them. Two pieces:
//!
//! * **[`cache`]** — a content-addressed LRU cache of frozen communication
//!   DAGs, keyed by everything that determines a recording's content
//!   (app, variant, scale, WAN wiring, seed namespace, reference point).
//!   A miss records and compiles the DAG's analytic envelope; a hit replays
//!   the identical frozen DAG, so cold and cached responses are
//!   bit-identical.
//! * **[`http`] / [`service`]** — the server itself: a fixed worker pool
//!   over `std::net`, per-request wall-clock deadlines, hardened JSON in
//!   (`bench::json` with depth/number/garbage caps), and batch fan-out
//!   through the bench engine's work-index loop so response bytes are
//!   identical at any worker count.
//!
//! ## The size of a request bounds its cost
//!
//! A request is bounded in size, not in CPU time: [`MAX_HEAD_BYTES`] and
//! [`MAX_BODY_BYTES`] cap what is read, [`MAX_POINTS`] the batch, and the
//! JSON parser's depth and number-length caps the parse. The deadline acts
//! through socket timeouts, so it bounds waits only; once a body is read,
//! nothing interrupts the worker that answers it. The caps therefore mean
//! something only because every CPU stage between reading the request and
//! writing the reply (UTF-8 check, parse, analytic bound, grid detection,
//! serialisation) costs at most O(n log n) in the batch's points and
//! O(bytes) in the body; replay adds its per-point DAG walk, fanned over
//! the workers. `tests/scaling.rs` holds the stages to that. Framing is
//! strict where leniency would let two parties disagree about where a body
//! ends: a `Content-Length` that is not plain digits, or two that differ,
//! is a `400`.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cache;
pub mod http;
pub mod service;

pub use cache::{CacheEntry, CacheKey, CacheStats, DagCache, DEFAULT_CACHE_CAPACITY};
pub use http::{ServeOpts, Server, MAX_BODY_BYTES, MAX_HEAD_BYTES};
pub use numagap_model::AnalyticModel;
pub use service::{
    BadRequest, Mode, Service, WhatIfRequest, WhatIfResponse, MAX_POINTS, SERVE_SCHEMA_VERSION,
};
