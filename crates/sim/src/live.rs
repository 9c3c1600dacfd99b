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
//! ever *writes* them (relaxed, batched through `LiveDelta` so the hot
//! path pays one branch per event and a handful of atomic adds every
//! `FLUSH_EVERY` events), and no simulation decision ever reads them
//! back. Enabling or disabling an observer therefore cannot change a
//! single simulated nanosecond — the bit-identical pin lives in
//! `crates/bench/tests/telemetry_live.rs`.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::memsys::{AccessClass, Outcome};
use crate::observe::Event;
use crate::prof::{self, Region};
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

/// How many engine events a [`LiveDelta`] buffers before flushing to the
/// global atomics.
pub(crate) const FLUSH_EVERY: u64 = 4096;

/// Engine-local accumulation buffer: plain integers on the engine's own
/// cache lines, flushed to [`LIVE`] every [`FLUSH_EVERY`] events and at
/// run end, so the event-loop hot path stays free of atomic traffic.
#[derive(Debug, Default)]
pub(crate) struct LiveDelta {
    events: u64,
    accesses: u64,
    hits: u64,
    misses: u64,
    miss_causes: [u64; LIVE_CAUSES],
    service_ns: [u64; LIVE_CLASSES],
    queue_ns: [u64; LIVE_CLASSES],
    mem_stall_ns: u64,
    events_since_flush: u64,
}

impl LiveDelta {
    /// The buffer of a run that is starting, counted in
    /// [`LiveCounters::runs_started`].
    pub(crate) fn start() -> Self {
        LIVE.runs_started.fetch_add(1, Ordering::Relaxed);
        LiveDelta::default()
    }

    /// Counts an engine event on each tick, flushing every
    /// [`FLUSH_EVERY`] events, and every serviced access.
    #[inline]
    pub(crate) fn on(&mut self, ev: &Event) {
        match ev {
            Event::Tick { .. } if self.event() => {
                {
                    let _sp = prof::span(Region::LiveFlush);
                    self.flush();
                }
                // Piggyback the profiler's fold-to-global on the same
                // cadence so live observers see mid-run data.
                prof::flush_thread();
            }
            Event::Access(a) => self.access(a.outcome),
            _ => {}
        }
    }

    /// Flushes what is left of a run that finished at virtual time `wall`
    /// and counts it in [`LiveCounters::runs_finished`].
    pub(crate) fn finish(mut self, wall: Ns) {
        self.flush();
        LIVE.sim_ns.fetch_add(wall, Ordering::Relaxed);
        LIVE.runs_finished.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one processed engine event; returns true when the buffer is
    /// due for a [`flush`](LiveDelta::flush).
    #[inline]
    fn event(&mut self) -> bool {
        self.events += 1;
        self.events_since_flush += 1;
        self.events_since_flush >= FLUSH_EVERY
    }

    /// Counts one serviced access with its latency breakdown.
    #[inline]
    fn access(&mut self, o: &Outcome) {
        self.accesses += 1;
        self.hits += u64::from(o.class == AccessClass::Hit);
        self.misses += u64::from(!matches!(o.class, AccessClass::Hit | AccessClass::Upgrade));
        if let Some(cause) = o.miss_cause {
            self.miss_causes[cause.index()] += 1;
        }
        self.mem_stall_ns += o.latency;
        for i in 0..LIVE_CLASSES {
            self.service_ns[i] += o.breakdown.service[i];
            self.queue_ns[i] += o.breakdown.queue[i];
        }
    }

    /// Adds everything buffered to the global counters and resets the
    /// buffer.
    fn flush(&mut self) {
        let add = |a: &AtomicU64, v: &mut u64| {
            if *v != 0 {
                a.fetch_add(*v, Ordering::Relaxed);
                *v = 0;
            }
        };
        add(&LIVE.events, &mut self.events);
        add(&LIVE.accesses, &mut self.accesses);
        add(&LIVE.hits, &mut self.hits);
        add(&LIVE.misses, &mut self.misses);
        for i in 0..LIVE_CAUSES {
            add(&LIVE.miss_causes[i], &mut self.miss_causes[i]);
        }
        for i in 0..LIVE_CLASSES {
            add(&LIVE.service_ns[i], &mut self.service_ns[i]);
            add(&LIVE.queue_ns[i], &mut self.queue_ns[i]);
        }
        add(&LIVE.mem_stall_ns, &mut self.mem_stall_ns);
        self.events_since_flush = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attrib::{LatencyBreakdown, MissCause};

    #[test]
    fn delta_buffers_then_flushes_exactly() {
        let before = LIVE.snapshot();
        let mut d = LiveDelta::default();
        let mut due = false;
        for _ in 0..10 {
            due |= d.event();
        }
        assert!(!due, "10 events must not hit the {FLUSH_EVERY} threshold");
        let mut miss = Outcome::hit(45);
        miss.class = AccessClass::RemoteDirty;
        miss.miss_cause = Some(MissCause::CoherenceTrueShare);
        miss.breakdown = LatencyBreakdown {
            service: [5, 6, 7, 8],
            queue: [1, 2, 3, 4],
            other_ns: 9,
        };
        d.access(&miss);
        d.access(&Outcome::hit(0));
        d.flush();
        let after = LIVE.snapshot();
        assert_eq!(after.events - before.events, 10);
        assert_eq!(after.accesses - before.accesses, 2);
        assert_eq!(after.hits - before.hits, 1);
        assert_eq!(after.misses - before.misses, 1);
        assert_eq!(after.miss_causes[3] - before.miss_causes[3], 1);
        assert_eq!(after.service_ns[2] - before.service_ns[2], 7);
        assert_eq!(after.queue_ns[3] - before.queue_ns[3], 4);
        assert_eq!(after.mem_stall_ns - before.mem_stall_ns, 45);
    }

    #[test]
    fn event_reports_due_at_threshold() {
        let mut d = LiveDelta::default();
        for i in 1..=FLUSH_EVERY {
            let due = d.event();
            assert_eq!(due, i == FLUSH_EVERY, "event {i}");
        }
        d.flush();
        // After a flush the threshold counter restarts.
        assert!(!d.event());
    }
}
