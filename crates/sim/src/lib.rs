//! # ccnuma-sim — a cache-coherent NUMA multiprocessor simulator
//!
//! A discrete-event simulator of SGI Origin2000-class hardware-coherent
//! distributed-shared-memory machines, built to reproduce the scaling study
//! of Jiang & Singh, *Scaling Application Performance on Cache-coherent
//! Multiprocessors* (ISCA 1999).
//!
//! The simulator models the architectural features the paper's analysis
//! rests on:
//!
//! * **Nodes and Hubs** — two processors per node sharing a "Hub"
//!   memory/coherence controller, two nodes per router ([`config`]).
//! * **Topology** — full hypercubes up to 64 processors, four 32-processor
//!   hypercube modules joined by metarouters at 128 ([`topology`]), with
//!   configurable process→processor mappings ([`mapping`]).
//! * **Caches and coherence** — per-processor set-associative write-back L2
//!   ([`cache`]) kept coherent by a full-bit-vector directory protocol with
//!   2-hop clean and 3-hop dirty remote transactions ([`memsys`]).
//! * **NUMA pages** — first-touch / round-robin / explicit placement with
//!   per-node capacity spill and dynamic page migration ([`page`]).
//! * **Contention** — occupancy-based queueing at every Hub, memory bank,
//!   router and metarouter ([`contend`]).
//! * **Synchronization** — ticket locks, tournament and centralized
//!   barriers, built on LL/SC or at-memory fetch&op ([`config`], [`sync`]).
//! * **Prefetch** — non-binding software prefetch with late-prefetch
//!   accounting (§6.1 of the paper).
//! * **Tracing** — time- and phase-resolved execution traces with
//!   Chrome-trace/Perfetto export and machine-wide gauge sampling
//!   ([`trace`]), plus per-phase time breakdowns in [`stats`].
//! * **Attribution** — every miss classified by cause (cold / capacity /
//!   conflict / true- and false-sharing coherence) and every stalled
//!   nanosecond split into uncontended service vs. queueing per resource
//!   ([`attrib`]), down to named data ranges ([`profile`]).
//! * **Critical path** — happens-before critical-path extraction with
//!   exact per-phase attribution and what-if speedup projection
//!   ([`critpath`]), behind the observer-passive `critpath` knob.
//! * **Schedule exploration** — seeded, deterministic perturbation of the
//!   engine's scheduling choice points ([`schedule`]), turning the
//!   one-schedule sanitizer into a schedule-space explorer.
//!
//! Tracing, range attribution, the sanitizer, the critical path and the
//! live counters ([`live`]) are *observers*: the engine feeds all of them
//! through one seam, a single stream of events, each beside the
//! per-processor statistics so far, that they read and never answer, so
//! none of them can change a simulated result.
//!
//! Applications are ordinary Rust closures run on one OS thread per
//! simulated processor; they compute *real, verifiable results* on data in
//! [`shared::SharedVec`]s while the engine charges virtual time for
//! computation, memory traffic and synchronization, producing the
//! per-processor Busy / Memory / Synchronization breakdowns
//! ([`stats`]) that drive the paper's figures.
//!
//! # Quick start
//!
//! ```
//! use ccnuma_sim::prelude::*;
//!
//! // A 16-processor scaled-down Origin2000 (64 KB caches, 1 KB pages).
//! let mut m = Machine::new(MachineConfig::origin2000_scaled(16, 64 << 10))?;
//! let x = m.shared_vec::<f64>(4096, Placement::Blocked);
//! let done = m.barrier();
//!
//! let x2 = x.clone(); // handles are cheap clones over the same storage
//! let stats = m.run(move |ctx| {
//!     let x = &x2;
//!     let chunk = x.len() / ctx.nprocs();
//!     let lo = ctx.id() * chunk;
//!     for i in lo..lo + chunk {
//!         x.write(ctx, i, (i as f64).sqrt());
//!         ctx.compute_flops(1);
//!     }
//!     ctx.barrier(done);
//! })?;
//!
//! assert_eq!(x.get(4095), (4095f64).sqrt());
//! let (busy, mem, sync) = stats.avg_breakdown_pct();
//! assert!(busy + mem + sync > 99.0);
//! # Ok::<(), ccnuma_sim::error::SimError>(())
//! ```
//!
//! # Determinism
//!
//! Runs are bit-deterministic for a given program and configuration: the
//! engine processes events in virtual-time order with process-id
//! tie-breaking, and random process mappings are seeded.

#![warn(missing_docs)]

/// Content fingerprint of the simulator's *timing model*. Bump the revision
/// whenever a change alters any run's statistics for an unchanged
/// configuration (latency values, protocol hops, queueing math, cost
/// accounting, …). Persistent result caches — the sweep engine's JSONL
/// store — fold this into their run keys, so bumping it invalidates every
/// cached simulation at once.
pub const MODEL_FINGERPRINT: &str = "ccnuma-sim-model-r2";

pub mod attrib;
pub mod cache;
pub mod chrome;
pub mod config;
pub mod contend;
pub mod critpath;
pub mod ctx;
pub mod directory;
pub mod error;
pub mod json;
pub mod latency;
pub mod live;
pub mod machine;
pub mod mapping;
pub mod memsys;
pub mod page;
pub mod profile;
pub mod sanitize;
pub mod schedule;
pub mod shared;
pub mod stats;
pub mod sync;
pub mod time;
pub mod topology;
pub mod trace;

mod dense;
mod engine;
mod observe;
mod proto;

/// The types most applications need, in one import.
pub mod prelude {
    pub use crate::attrib::{LatencyBreakdown, MissCause, ResourceClass};
    pub use crate::config::{
        BarrierImpl, CacheConfig, CostModel, LockImpl, MachineConfig, MigrationConfig,
        PagePlacement,
    };
    pub use crate::critpath::{CritBuckets, CritReport};
    pub use crate::ctx::Ctx;
    pub use crate::error::SimError;
    pub use crate::latency::LatencyProfile;
    pub use crate::machine::{Machine, Placement};
    pub use crate::mapping::ProcessMapping;
    pub use crate::sanitize::{SanitizeConfig, SanitizeGranularity, SanitizeReport};
    pub use crate::schedule::{ScheduleConfig, ScheduleMode};
    pub use crate::shared::SharedVec;
    pub use crate::stats::{PhaseBreakdown, PhaseStats, ProcStats, RunStats};
    pub use crate::sync::{BarrierRef, FetchCellRef, LockRef, SemRef};
    pub use crate::topology::TopologyKind;
    pub use crate::trace::{Trace, TraceConfig};
}
