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
