//! Live machine counters: process-wide cumulative activity totals.
//!
//! Every engine in the process folds its activity into
//! one set of global atomic counters — engine events processed, accesses,
//! hits, misses by [`MissCause`](crate::attrib::MissCause), and the exact
//! per-[`ResourceClass`](crate::attrib::ResourceClass) service/queueing
//! nanoseconds of every memory stall. An external observer (the
//! `ccnuma-telemetry` sampler) reads these on a host-time epoch and
//! differentiates them into rates: simulated-events/sec, misses/sec,
//! per-class occupancy and queue depth.
//!
//! The counters are **observer-passive by construction**: the engine only
//! ever *writes* them, and no simulation decision ever reads them back.
//! Enabling or disabling an observer therefore cannot change a single
//! simulated nanosecond — the bit-identical pin lives in
//! `crates/bench/tests/telemetry_live.rs`. They count nothing themselves:
//! every `FLUSH_EVERY` events and at run end, `LiveDelta` publishes the
//! engine's ledger ([`ProcStats`]) growth since its last flush, so the hot
//! path pays one branch per event and the live totals agree with
//! [`RunStats`](crate::stats::RunStats) by construction
//! (`crates/sim/tests/live_ledger.rs`).

use std::sync::atomic::{AtomicU64, Ordering};

use crate::observe::Event;
use crate::prof::{self, Region};
use crate::stats::ProcStats;
use crate::time::Ns;

/// Number of classified miss-cause slots mirrored live (matches
/// [`MissCause::index`](crate::attrib::MissCause::index)).
pub const LIVE_CAUSES: usize = 5;

/// Number of resource classes mirrored live (matches
/// [`ResourceClass::index`](crate::attrib::ResourceClass::index)).
pub const LIVE_CLASSES: usize = 4;

/// The process-wide cumulative counters. All values only ever grow
/// (monotonic counters); readers snapshot with [`LiveCounters::snapshot`]
/// and differentiate.
#[derive(Debug, Default)]
pub struct LiveCounters {
    /// Simulation runs started.
    pub runs_started: AtomicU64,
    /// Simulation runs finished (successfully or not, the engine flushes
    /// what it accumulated).
    pub runs_finished: AtomicU64,
    /// Engine events (thread requests) processed.
    pub events: AtomicU64,
    /// Line-granular memory accesses serviced.
    pub accesses: AtomicU64,
    /// Cache hits.
    pub hits: AtomicU64,
    /// Cache misses (local + remote clean + remote dirty).
    pub misses: AtomicU64,
    /// Classified misses by cause slot `[cold, capacity, conflict,
    /// coh-true, coh-false]`; only populated by runs with
    /// `classify_misses` enabled.
    pub miss_causes: [AtomicU64; LIVE_CAUSES],
    /// Uncontended service nanoseconds per resource class
    /// `[hub, mem, dir, net]` (the attrib taxonomy).
    pub service_ns: [AtomicU64; LIVE_CLASSES],
    /// Queueing-delay nanoseconds per resource class `[hub, mem, dir,
    /// net]`. Differentiated against host time this is the time-average
    /// number of transactions queued at the class (Little's law).
    pub queue_ns: [AtomicU64; LIVE_CLASSES],
    /// Total memory-stall nanoseconds charged.
    pub mem_stall_ns: AtomicU64,
    /// Simulated (virtual) nanoseconds completed, folded in at run end.
    pub sim_ns: AtomicU64,
}

/// A plain-integer point-in-time copy of [`LiveCounters`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct LiveSnapshot {
    /// See [`LiveCounters::runs_started`].
    pub runs_started: u64,
    /// See [`LiveCounters::runs_finished`].
    pub runs_finished: u64,
    /// See [`LiveCounters::events`].
    pub events: u64,
    /// See [`LiveCounters::accesses`].
    pub accesses: u64,
    /// See [`LiveCounters::hits`].
    pub hits: u64,
    /// See [`LiveCounters::misses`].
    pub misses: u64,
    /// See [`LiveCounters::miss_causes`].
    pub miss_causes: [u64; LIVE_CAUSES],
    /// See [`LiveCounters::service_ns`].
    pub service_ns: [u64; LIVE_CLASSES],
    /// See [`LiveCounters::queue_ns`].
    pub queue_ns: [u64; LIVE_CLASSES],
    /// See [`LiveCounters::mem_stall_ns`].
    pub mem_stall_ns: u64,
    /// See [`LiveCounters::sim_ns`].
    pub sim_ns: u64,
}

impl LiveCounters {
    /// Reads every counter (relaxed; the snapshot is not required to be a
    /// consistent cut — counters are independent monotonic series).
    pub fn snapshot(&self) -> LiveSnapshot {
        let r = |a: &AtomicU64| a.load(Ordering::Relaxed);
        LiveSnapshot {
            runs_started: r(&self.runs_started),
            runs_finished: r(&self.runs_finished),
            events: r(&self.events),
            accesses: r(&self.accesses),
            hits: r(&self.hits),
            misses: r(&self.misses),
            miss_causes: std::array::from_fn(|i| r(&self.miss_causes[i])),
            service_ns: std::array::from_fn(|i| r(&self.service_ns[i])),
            queue_ns: std::array::from_fn(|i| r(&self.queue_ns[i])),
            mem_stall_ns: r(&self.mem_stall_ns),
            sim_ns: r(&self.sim_ns),
        }
    }
}

/// The process-wide counters. Shared by every engine in the process, so
/// concurrent sweep cells aggregate naturally.
pub static LIVE: LiveCounters = LiveCounters {
    runs_started: AtomicU64::new(0),
    runs_finished: AtomicU64::new(0),
    events: AtomicU64::new(0),
    accesses: AtomicU64::new(0),
    hits: AtomicU64::new(0),
    misses: AtomicU64::new(0),
    miss_causes: [const { AtomicU64::new(0) }; LIVE_CAUSES],
    service_ns: [const { AtomicU64::new(0) }; LIVE_CLASSES],
    queue_ns: [const { AtomicU64::new(0) }; LIVE_CLASSES],
    mem_stall_ns: AtomicU64::new(0),
    sim_ns: AtomicU64::new(0),
};

/// How many engine events a [`LiveDelta`] lets pass between flushes to
/// the global atomics.
pub(crate) const FLUSH_EVERY: u64 = 4096;

/// One run's link to [`LIVE`]: the engine events since the last flush and
/// the machine totals published so far, so the event-loop hot path stays
/// free of atomic traffic.
#[derive(Debug, Default)]
pub(crate) struct LiveDelta {
    events: u64,
    published: ProcStats,
}

impl LiveDelta {
    /// The link of a run that is starting, counted in
    /// [`LiveCounters::runs_started`].
    pub(crate) fn start() -> Self {
        LIVE.runs_started.fetch_add(1, Ordering::Relaxed);
        LiveDelta::default()
    }

    /// Counts an engine event on each tick, flushing every
    /// [`FLUSH_EVERY`] events.
    #[inline]
    pub(crate) fn on(&mut self, ev: &Event, ledger: &[ProcStats]) {
        if let Event::Tick { .. } = ev {
            self.events += 1;
            if self.events >= FLUSH_EVERY {
                let _sp = prof::span(Region::LiveFlush);
                self.flush(ledger);
            }
        }
    }

    /// Flushes what is left of a run that finished at virtual time `wall`
    /// with the final `ledger` and counts it in
    /// [`LiveCounters::runs_finished`].
    pub(crate) fn finish(mut self, wall: Ns, ledger: &[ProcStats]) {
        self.flush(ledger);
        LIVE.sim_ns.fetch_add(wall, Ordering::Relaxed);
        LIVE.runs_finished.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds the events since the last flush, and the machine totals'
    /// growth since then, to the global counters.
    fn flush(&mut self, ledger: &[ProcStats]) {
        let add = |a: &AtomicU64, v: u64| {
            if v != 0 {
                a.fetch_add(v, Ordering::Relaxed);
            }
        };
        let (now, was) = (ProcStats::sum(ledger), &self.published);
        add(&LIVE.events, std::mem::take(&mut self.events));
        add(&LIVE.accesses, now.accesses() - was.accesses());
        add(&LIVE.hits, now.hits - was.hits);
        add(&LIVE.misses, now.misses() - was.misses());
        let (causes, causes_was) = (now.cause_counts(), was.cause_counts());
        for i in 0..LIVE_CAUSES {
            add(&LIVE.miss_causes[i], causes[i] - causes_was[i]);
        }
        let (bd, bd_was) = (&now.mem_breakdown, &was.mem_breakdown);
        for i in 0..LIVE_CLASSES {
            add(&LIVE.service_ns[i], bd.service[i] - bd_was.service[i]);
            add(&LIVE.queue_ns[i], bd.queue[i] - bd_was.queue[i]);
        }
        add(&LIVE.mem_stall_ns, now.mem_ns - was.mem_ns);
        self.published = now;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::contend::Contention;

    #[test]
    fn flushes_after_flush_every_ticks() {
        let contention = Contention::new(1, 1, 1);
        let ledger = [ProcStats {
            reads: 3,
            ..Default::default()
        }];
        let mut d = LiveDelta::default();
        for t in 1..=FLUSH_EVERY {
            assert_eq!(d.events, t - 1, "tick {t}");
            d.on(
                &Event::Tick {
                    t,
                    contention: &contention,
                },
                &ledger,
            );
        }
        assert_eq!(d.events, 0, "tick {FLUSH_EVERY} flushes");
        assert_eq!(d.published, ledger[0]);
    }
}
