//! Live telemetry for the ccNUMA scaling study: a lock-cheap metrics
//! registry, a rate pipeline, and a streaming observer.
//!
//! The crate is std-only and knows nothing about simulators or sweeps —
//! it provides three mechanisms the study's binaries compose:
//!
//! * [`registry`] — named counters, gauges, and log2-bucketed histograms
//!   with an atomic hot path (handles are `Arc`s around atomics; the
//!   registry lock is touched only at registration and snapshot time).
//! * [`rate`] — an EWMA/derivative filter turning monotonic counters
//!   into per-epoch rates (events/sec, misses/sec), robust to counter
//!   resets and empty epochs.
//! * [`expo`] — Prometheus text exposition and a flat JSON rendering of
//!   a registry snapshot.
//! * [`hub`] — the observer: the process's one epoch loop (refresh, then
//!   sample), a crash-safe JSONL epoch log, and `/metrics`, `/snapshot`
//!   and `/events` (SSE) routes.
//! * [`http`] — the one HTTP server the hub and the sweep daemon run on
//!   (bounded request heads, a read timeout, SSE fan-out) and a client.
//!
//! Everything here observes; nothing feeds back. The simulation's
//! determinism guarantee (bit-identical `RunStats` with telemetry on or
//! off) is pinned by tests in the `bench` crate.

#![warn(missing_docs)]

pub mod expo;
pub mod http;
pub mod hub;
pub mod rate;
pub mod registry;

pub use rate::RateFilter;
pub use registry::{Counter, Gauge, Histogram, Registry, SampleValue};
