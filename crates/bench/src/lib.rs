//! # study-bench — harnesses regenerating the paper's tables and figures
//!
//! The [`figures`] module contains one function per table/figure; the
//! `repro` binary drives them (`repro all --quick` smoke-runs everything).
//! [`probes`] holds the raw memory-system microbenchmarks (Table 1, §6.3).
//! [`gate`] is the one harness behind the `bench` binary's three
//! pinned-matrix gates; each gate module declares only its schema and
//! measures the matrix: [`regress`] (attribution, `BENCH_attrib.json`),
//! [`critpath`] (critical path, `BENCH_critpath.json`) and [`perf`]
//! (host throughput, `BENCH_engine.json`). How each field is checked:
//!
//! | gate       | `Exact` (any change) | `Drift` (±tolerance) | `Slower` (slowdown only) |
//! |------------|----------------------|----------------------|--------------------------|
//! | `regress`  | —                    | `wall_ns`, `mem_stall_ns`, `queue_ns`, `misses`, `causes[5]` | — |
//! | `critpath` | —                    | `wall_ns`, `path[7]`, `whatif[6]` | — |
//! | `perf`     | `events`, `accesses`, `dir_txns` | — | `ns_per_event` (host CPU), relative to the matrix |
//!
//! [`live`] wires the `ccnuma-telemetry` registry, rate pipeline, and
//! streaming observer into sweeps (`bench sweep --live`, `bench top`).
//! [`daemon`] is the sweep-as-a-service front end (`bench serve` runs a
//! `ccnuma-sweepd` daemon, `bench submit` is its client).
//! [`schedsan`] folds the schedule-seed axis of `bench sanitize
//! --schedules N` back into per-cell deduplicated findings.

#![warn(missing_docs)]

pub mod critpath;
pub mod daemon;
pub mod figures;
pub mod gate;
pub mod live;
pub mod perf;
pub mod probes;
pub mod regress;
pub mod schedsan;
