//! `ccnuma-sweepd`: sweep-as-a-service.
//!
//! The in-process sweep engine ([`ccnuma-sweep`](ccnuma_sweep)) already
//! has the hard parts of a production job system — content-addressed
//! run identity, a crash-safe JSONL store, retry/quarantine, workers
//! sharing one queue — but every client pays for its own sweep. This
//! crate promotes the engine into a long-running daemon so many clients
//! share one store: a cell any client ever simulated costs every later
//! client a cache lookup instead of a simulation.
//!
//! The front end runs on [`ccnuma_telemetry::http::serve`], the one
//! std-only HTTP server the telemetry hub also runs on:
//!
//! * `POST /sweep` — body is the matrix DSL the CLI takes
//!   (`apps=fft,ocean versions=orig procs=2,4 scale=quick`); each
//!   expanded cell is answered from the store, joined onto an in-flight
//!   simulation, or enqueued on the persistent shared queue.
//!   Responds immediately with the job id and the cache/enqueue split.
//! * `GET /jobs/<id>` — full job state including every finished
//!   [`CellRecord`](ccnuma_sweep::store::CellRecord) (null for pending).
//! * `GET /jobs/<id>/events` — SSE stream of the job's typed
//!   [`ExecEvent`](ccnuma_sweep::events::ExecEvent) lifecycle frames,
//!   closing with `done` + `end` frames when the job completes.
//! * `GET /cell/<runkey>` — one record by content hash.
//! * `GET /metrics`, `/snapshot`, `/healthz` — the same observability
//!   surface the telemetry hub serves, so `bench top` works against a
//!   daemon unchanged.
//! * `POST /shutdown` — graceful stop: in-flight cells finish and are
//!   appended, the backlog is dropped (clients see incomplete jobs),
//!   the store is fsynced. An idle timeout can do the same unattended.
//!
//! The pieces: [`jobs`] (job state and its JSON), [`server`] (the
//! daemon, on `ccnuma_telemetry::http`), [`client`] (a blocking client
//! used by `bench submit` and the tests).

pub mod client;
pub mod jobs;
pub mod server;

pub use client::{JobStatus, SubmitResponse};
pub use server::{Daemon, DaemonConfig, DaemonSummary};
