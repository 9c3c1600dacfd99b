//! The engine's one observer seam.
//!
//! Five observers watch the engine: the event trace ([`crate::trace`]),
//! per-range attribution ([`crate::profile`]), the happens-before
//! sanitizer ([`crate::sanitize`]), the critical path
//! ([`crate::critpath`]) and the always-on live counters
//! ([`crate::live`]). They see the run only as a stream of [`Event`]s,
//! which the engine emits in simulation order, each kind from one place,
//! beside the ledger: every processor's [`ProcStats`] so far, where each
//! busy, sync and memory charge is counted once. Each observer's
//! `on(&Event, &[ProcStats])` picks the events it needs, and an observer
//! that needs a total over some stretch of the run reads it as the
//! ledger's difference between two events instead of adding charges up
//! itself. DESIGN.md's "Observers" table lists which.
//!
//! Passivity holds by construction: [`Observers::emit`] takes the event
//! and the ledger by shared reference and returns nothing, and the engine
//! reads nothing back until [`Observers::finish`], after the last
//! simulated nanosecond.
//! `tests/observers.rs` pins it once, for all observers together.

use crate::config::MachineConfig;
use crate::contend::Contention;
use crate::critpath::{CritCollector, CritReport};
use crate::engine::SyncTables;
use crate::live::LiveDelta;
use crate::memsys::{AccessKind, Outcome};
use crate::page::Addr;
use crate::profile::{Profiler, RangeProfile};
use crate::proto::MemOp;
use crate::sanitize::{SanitizeReport, Sanitizer};
use crate::stats::ProcStats;
use crate::time::Ns;
use crate::trace::{Trace, TraceBuffer};

/// Where and when a processor event happened: processor `p`, its clock
/// `t` at the start of the event, and the phase it was in.
#[derive(Debug, Clone, Copy)]
pub(crate) struct At {
    pub p: usize,
    pub t: Ns,
    pub phase: u32,
}

/// A hand-off: `from`'s release (or post) of object `id` at `release_t`
/// granted it to `at.p`, queued since `at.t`, at `grant`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Grant {
    pub at: At,
    pub id: usize,
    pub from: usize,
    pub release_t: Ns,
    pub grant: Ns,
}

/// `at.p`'s access of the line at `addr`, serviced with `outcome`.
#[derive(Clone, Copy)]
pub(crate) struct LineAccess<'a> {
    pub at: At,
    pub addr: Addr,
    pub kind: AccessKind,
    pub outcome: &'a Outcome,
}

/// One step of a run, as the observers see it. Object ids index the
/// run's lock, barrier, fetch-cell and semaphore tables.
pub(crate) enum Event<'a> {
    /// `at.p` computed for `ns`.
    Busy { at: At, ns: Ns },
    /// `at.p` spent `ns` in a synchronization operation.
    SyncOp { at: At, ns: Ns },
    /// `at.p` waited `ns` for a synchronization object.
    SyncWait { at: At, ns: Ns },
    /// One serviced line access.
    Access(LineAccess<'a>),
    /// The exact byte footprints of a request's memory operations, sent
    /// before its accesses (empty unless sanitizing).
    MemOps { at: At, ops: &'a [MemOp] },
    /// `at.p` entered phase `at.phase`.
    Phase { at: At },
    /// `at.p` took lock `id`, which was free.
    LockAcquire { at: At, id: usize },
    /// `at.p` released lock `id` at `at.t`.
    LockRelease { at: At, id: usize },
    /// A lock hand-off to a queued waiter.
    LockGrant(Grant),
    /// `at.p` arrived at barrier `id`.
    BarrierArrive { at: At, id: usize },
    /// Barrier `id` releases every `(processor, arrival)` of `arrivals` at
    /// `t`; sent before the woken processors' events.
    BarrierRelease {
        id: usize,
        arrivals: &'a [(usize, Ns)],
        t: Ns,
    },
    /// Barrier `id`'s whole episode, first arrival `from` to release `to`;
    /// sent after the woken processors' events.
    BarrierEpisode { id: usize, from: Ns, to: Ns },
    /// `at.p` did a fetch&add on cell `id`.
    FetchAdd { at: At, id: usize },
    /// `at.p` posted semaphore `id`.
    SemPost { at: At, id: usize },
    /// `at.p` passed semaphore `id`, which had a permit.
    SemAcquire { at: At, id: usize },
    /// A semaphore post waking a queued waiter.
    SemGrant(Grant),
    /// The engine is about to process an event at virtual time `t`
    /// (nondecreasing), with the memory system's resources in `contention`.
    Tick { t: Ns, contention: &'a Contention },
}

/// Every observer of one run; `None` is off.
pub(crate) struct Observers {
    live: LiveDelta,
    trace: Option<TraceBuffer>,
    ranges: Option<Profiler>,
    san: Option<Box<Sanitizer>>,
    crit: Option<Box<CritCollector>>,
}

/// The observers' reports at the end of a run.
pub(crate) struct Reports {
    pub trace: Option<Trace>,
    pub ranges: Vec<RangeProfile>,
    pub sanitize: Option<SanitizeReport>,
    pub critpath: Option<CritReport>,
}

impl Observers {
    /// The observers `cfg` switches on for a run over `sync`'s objects;
    /// per-range attribution is on when `labels` (name, base, bytes) has
    /// any labelled allocation.
    pub(crate) fn new(
        cfg: &MachineConfig,
        contention: &Contention,
        sync: &SyncTables,
        labels: &[(String, Addr, u64)],
    ) -> Self {
        let n = cfg.nprocs;
        Observers {
            live: LiveDelta::start(),
            trace: cfg
                .trace
                .enabled
                .then(|| TraceBuffer::new(cfg.trace.clone(), n, sync.locks.len(), contention)),
            ranges: (!labels.is_empty()).then(|| {
                let mut r = Profiler::default();
                for (name, base, bytes) in labels {
                    r.register(name, *base, *bytes);
                }
                r
            }),
            san: cfg.sanitize.enabled.then(|| {
                let line = cfg.cache.line_bytes as u64;
                let mut s = Sanitizer::new(n, cfg.sanitize.granularity, line);
                for (i, cell) in sync.cells.iter().enumerate() {
                    s.register_fetch_cell(i, cell.addr);
                }
                Box::new(s)
            }),
            crit: cfg.critpath.then(|| Box::new(CritCollector::new(n))),
        }
    }

    /// Hands `ev` and the `ledger` as it stands to every observer that is
    /// on.
    #[inline]
    pub(crate) fn emit(&mut self, ev: &Event, ledger: &[ProcStats]) {
        self.live.on(ev, ledger);
        if let Some(t) = &mut self.trace {
            t.on(ev, ledger);
        }
        if let Some(r) = &mut self.ranges {
            r.on(ev, ledger);
        }
        if let Some(s) = &mut self.san {
            s.on(ev, ledger);
        }
        if let Some(c) = &mut self.crit {
            c.on(ev, ledger);
        }
    }

    /// Ends a run whose last processor finished at `wall` with the final
    /// `ledger` (the trace takes a final gauge sample) and collects the
    /// reports; `phase_names` resolves interned phase ids.
    pub(crate) fn finish(
        self,
        wall: Ns,
        contention: &Contention,
        phase_names: &[String],
        ledger: &[ProcStats],
    ) -> Reports {
        self.live.finish(wall, ledger);
        let last = Event::Tick {
            t: wall,
            contention,
        };
        Reports {
            trace: self.trace.map(|mut t| {
                t.on(&last, ledger);
                t.finish(phase_names.to_vec())
            }),
            ranges: self
                .ranges
                .map_or_else(Vec::new, |r| r.into_profiles(phase_names)),
            sanitize: self.san.map(|s| s.finalize(phase_names)),
            critpath: self.crit.map(|c| c.finalize(wall, phase_names, ledger)),
        }
    }

    /// A deadlocked run produces no statistics to attach the sanitize
    /// report to, so its lints (e.g. barrier divergence) are folded into
    /// the deadlock error as this `; sanitize: ...` note, if any.
    pub(crate) fn deadlock_note(self, phase_names: &[String]) -> String {
        let lints = self
            .san
            .map_or_else(Vec::new, |s| s.finalize(phase_names).lints);
        if lints.is_empty() {
            return String::new();
        }
        let lints: Vec<String> = lints
            .iter()
            .map(|l| format!("{}: {}", l.kind.name(), l.message))
            .collect();
        format!("; sanitize: {}", lints.join("; "))
    }
}
