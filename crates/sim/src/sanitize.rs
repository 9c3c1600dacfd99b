//! Happens-before sanitizer: a dynamic race detector, lock-order
//! analyzer, and synchronization-lint pass over the simulator's event
//! stream.
//!
//! The simulator already produces everything a vector-clock
//! happens-before engine needs: per-processor memory operations with
//! exact byte ranges (from [`Ctx::record_read`](crate::ctx::Ctx::record_read)
//! / [`Ctx::record_write`](crate::ctx::Ctx::record_write)), and
//! release/acquire transitions from the synchronization tables in
//! [`sync`](crate::sync) — lock hand-offs, barrier episodes, fetch&add
//! serialization, and semaphore wakeups. The engine feeds those events to
//! a [`Sanitizer`] when `cfg.sanitize.enabled` is set, and the resulting
//! [`SanitizeReport`] lands in
//! [`RunStats::sanitize`](crate::stats::RunStats::sanitize).
//!
//! Three analyses share the one event stream:
//!
//! 1. **Race detection** with FastTrack-style epoch compression: each
//!    shadow granule usually stores a last-write epoch and a last-read
//!    epoch, promoting the read side to a full vector clock only while
//!    reads are genuinely concurrent. The
//!    [`SanitizeGranularity`] knob selects the granule size: `Word`
//!    (8 bytes, the same word footprint `attrib` uses) reports true
//!    data races only, while `Line` also flags line-granularity
//!    conflicts — the false-sharing patterns `attrib` counts as
//!    coh-false misses.
//! 2. **Lock-order analysis**: every acquisition made while other locks
//!    are held adds held→acquired edges to a directed graph; cycles in
//!    that graph are potential deadlocks even when this schedule
//!    happened not to deadlock.
//! 3. **Synchronization lints**: barrier divergence (some processors
//!    arrive at a barrier others never reach), a lock released by a
//!    processor that does not hold it, fetch&add cells also touched by
//!    plain reads/writes, and locks held across a barrier.
//!
//! The sanitizer is purely observational — it never charges virtual
//! time — so enabling it cannot change simulated results. It is also
//! fully deterministic: the engine's event order is deterministic and
//! [`Sanitizer::finalize`] sorts every finding list canonically.
//!
//! The event API is public so tests and examples can drive a
//! `Sanitizer` directly (e.g. to exercise barrier divergence, which in
//! a real run deadlocks the engine before statistics exist).

use std::collections::{BTreeMap, BTreeSet, HashMap};

use crate::observe::Event;
use crate::page::Addr;
use crate::proto::OpKind;
use crate::stats::ProcStats;

/// Shadow-memory granule size for race detection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SanitizeGranularity {
    /// 8-byte words (the footprint granularity `attrib` classifies false
    /// sharing with): conflicts must overlap on actual data to be
    /// reported, so findings are true races.
    #[default]
    Word,
    /// Whole cache lines: additionally reports unsynchronized accesses
    /// that only share a line — the false-sharing patterns `attrib`
    /// counts as coh-false misses. Expect findings on correctly
    /// synchronized programs that false-share.
    Line,
}

impl SanitizeGranularity {
    /// Lower-case name (`"word"` / `"line"`), used in exported reports.
    pub fn name(self) -> &'static str {
        match self {
            SanitizeGranularity::Word => "word",
            SanitizeGranularity::Line => "line",
        }
    }
}

/// Configuration of the happens-before sanitizer (`cfg.sanitize`).
///
/// Observational: like tracing, it is excluded from
/// [`MachineConfig::stable_fields`](crate::config::MachineConfig::stable_fields)
/// because it cannot change simulated results.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SanitizeConfig {
    /// Run the sanitizer alongside the simulation.
    pub enabled: bool,
    /// Shadow-memory granule size.
    pub granularity: SanitizeGranularity,
}

impl SanitizeConfig {
    /// Word-granularity sanitizing, enabled.
    pub fn on() -> Self {
        SanitizeConfig {
            enabled: true,
            granularity: SanitizeGranularity::Word,
        }
    }
}

/// Bytes per shadow granule at [`SanitizeGranularity::Word`].
pub const WORD_BYTES: u64 = 8;

/// A growable vector clock; absent components are zero.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct VectorClock(Vec<u64>);

impl VectorClock {
    /// Component `p`.
    pub fn get(&self, p: usize) -> u64 {
        self.0.get(p).copied().unwrap_or(0)
    }

    /// Sets component `p` to `v`, growing as needed.
    pub fn set(&mut self, p: usize, v: u64) {
        if self.0.len() <= p {
            self.0.resize(p + 1, 0);
        }
        self.0[p] = v;
    }

    /// Increments component `p`.
    pub fn tick(&mut self, p: usize) {
        self.set(p, self.get(p) + 1);
    }

    /// Pointwise maximum with `other`.
    pub fn join(&mut self, other: &VectorClock) {
        if self.0.len() < other.0.len() {
            self.0.resize(other.0.len(), 0);
        }
        for (i, &v) in other.0.iter().enumerate() {
            if v > self.0[i] {
                self.0[i] = v;
            }
        }
    }
}

/// A FastTrack epoch: clock value `clock` of processor `proc`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct EpochVal {
    proc: u32,
    clock: u64,
}

impl EpochVal {
    /// `self` happens-before (or equals) the instant described by `vc`.
    fn le(self, vc: &VectorClock) -> bool {
        self.clock <= vc.get(self.proc as usize)
    }
}

/// The read side of a shadow granule: compressed to the last epoch while
/// reads are totally ordered, promoted to a full clock when concurrent.
#[derive(Debug, Clone)]
enum ReadShadow {
    None,
    Epoch(EpochVal),
    Clock(VectorClock),
}

/// One access with recording context, phase still as an interned id.
#[derive(Debug, Clone)]
struct RawAccess {
    proc: usize,
    phase: u32,
    addr: Addr,
    bytes: u64,
    is_write: bool,
    locks: Vec<usize>,
}

impl RawAccess {
    fn resolve(&self, phase_names: &[String]) -> AccessInfo {
        AccessInfo {
            proc: self.proc,
            phase: phase_names
                .get(self.phase as usize)
                .cloned()
                .unwrap_or_else(|| format!("phase-{}", self.phase)),
            addr: self.addr,
            bytes: self.bytes,
            is_write: self.is_write,
            locks: self.locks.clone(),
        }
    }
}

/// Shadow state of one granule.
#[derive(Debug, Clone)]
struct Shadow {
    write: Option<EpochVal>,
    read: ReadShadow,
    write_ctx: Option<RawAccess>,
    /// Last read context per processor (sparse, keyed by proc). A racing
    /// write conflicts with one *specific* concurrent reader; keeping
    /// only the globally-last read would misattribute the race whenever
    /// an ordered read (often the writer's own) lands in between.
    read_ctxs: Vec<(usize, RawAccess)>,
    /// One race per granule: further conflicts on an already-reported
    /// granule are suppressed so a single racy array does not flood the
    /// report.
    reported: bool,
}

impl Default for Shadow {
    fn default() -> Self {
        Shadow {
            write: None,
            read: ReadShadow::None,
            write_ctx: None,
            read_ctxs: Vec::new(),
            reported: false,
        }
    }
}

impl Shadow {
    fn read_ctx_of(&self, p: usize) -> Option<RawAccess> {
        self.read_ctxs
            .iter()
            .find(|(q, _)| *q == p)
            .map(|(_, a)| a.clone())
    }
}

/// One access of a reported race, with full reporting context.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AccessInfo {
    /// Process id of the accessor.
    pub proc: usize,
    /// Name of the application phase the access was made in.
    pub phase: String,
    /// First byte of the recorded operation.
    pub addr: Addr,
    /// Length of the recorded operation in bytes.
    pub bytes: u64,
    /// `true` for a write, `false` for a read.
    pub is_write: bool,
    /// Lock ids held at the access, in acquisition order (the nearest
    /// enclosing lock is last).
    pub locks: Vec<usize>,
}

impl std::fmt::Display for AccessInfo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} of {:#x}+{} by proc {} in phase \"{}\" holding {:?}",
            if self.is_write { "write" } else { "read" },
            self.addr,
            self.bytes,
            self.proc,
            self.phase,
            self.locks
        )
    }
}

/// A pair of conflicting accesses with no happens-before edge between
/// them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RaceFinding {
    /// Base address of the shadow granule the conflict was detected on.
    pub addr: Addr,
    /// Granule size in bytes (8 at word granularity, the line size at
    /// line granularity).
    pub bytes: u64,
    /// The earlier access (in the engine's deterministic event order).
    pub prior: AccessInfo,
    /// The later access.
    pub current: AccessInfo,
}

/// A cycle in the lock-order graph: the locks of one strongly connected
/// component, each acquired while another member was held (in some
/// order that can deadlock).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LockCycleFinding {
    /// Lock ids on the cycle, sorted.
    pub locks: Vec<usize>,
}

/// Category of a synchronization lint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum LintKind {
    /// Some processors arrived at a barrier that others never reached.
    BarrierDivergence,
    /// A lock was released by a processor that does not hold it.
    UnlockByNonOwner,
    /// A fetch&add cell was also accessed with plain reads or writes.
    AtomicPlainMix,
    /// A processor arrived at a barrier while holding locks.
    LockAcrossBarrier,
}

impl LintKind {
    /// Short kebab-case name, used in exported reports.
    pub fn name(self) -> &'static str {
        match self {
            LintKind::BarrierDivergence => "barrier-divergence",
            LintKind::UnlockByNonOwner => "unlock-by-non-owner",
            LintKind::AtomicPlainMix => "atomic-plain-mix",
            LintKind::LockAcrossBarrier => "lock-across-barrier",
        }
    }
}

/// One synchronization lint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LintFinding {
    /// Lint category.
    pub kind: LintKind,
    /// Human-readable description with ids and context.
    pub message: String,
}

/// Everything the sanitizer found in one run. `PartialEq` so sweep
/// replay can compare reports bit-for-bit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SanitizeReport {
    /// Granule size the race detector ran at.
    pub granularity: SanitizeGranularity,
    /// Conflicting unsynchronized access pairs, one per granule,
    /// sorted by granule address.
    pub races: Vec<RaceFinding>,
    /// Lock-order cycles (potential deadlocks), sorted.
    pub lock_cycles: Vec<LockCycleFinding>,
    /// Synchronization lints, sorted by kind then message.
    pub lints: Vec<LintFinding>,
}

impl SanitizeReport {
    /// No findings of any kind.
    pub fn is_clean(&self) -> bool {
        self.races.is_empty() && self.lock_cycles.is_empty() && self.lints.is_empty()
    }

    /// `[races, lock_cycles, lints]` counts, the compact form stored in
    /// sweep cell records.
    pub fn counts(&self) -> [u64; 3] {
        [
            self.races.len() as u64,
            self.lock_cycles.len() as u64,
            self.lints.len() as u64,
        ]
    }

    /// One-line summary, e.g. `"2 race(s), 0 cycle(s), 1 lint(s)"`.
    pub fn summary(&self) -> String {
        let [r, c, l] = self.counts();
        format!("{r} race(s), {c} lock cycle(s), {l} lint(s)")
    }
}

/// The happens-before engine. Feed it the run's events (the engine does
/// this automatically when `cfg.sanitize.enabled` is set; tests may
/// drive one directly) and [`Sanitizer::finalize`] it into a
/// [`SanitizeReport`].
#[derive(Debug)]
pub struct Sanitizer {
    granularity: SanitizeGranularity,
    gbytes: u64,
    nprocs: usize,
    clocks: Vec<VectorClock>,
    /// Current interned phase id per processor.
    phase: Vec<u32>,
    /// Locks currently held per processor, in acquisition order.
    locksets: Vec<Vec<usize>>,
    lock_release: Vec<VectorClock>,
    lock_holder: Vec<Option<usize>>,
    /// Processors currently waiting in each barrier's open episode.
    barrier_arrived: Vec<Vec<usize>>,
    sem_clock: Vec<VectorClock>,
    cell_clock: Vec<VectorClock>,
    /// Granule index → fetch-cell id, for the atomic/plain-mix lint.
    cell_granules: HashMap<u64, usize>,
    shadow: HashMap<u64, Shadow>,
    raw_races: Vec<(u64, RawAccess, RawAccess)>,
    lock_edges: BTreeSet<(usize, usize)>,
    lints: Vec<LintFinding>,
}

impl Sanitizer {
    /// A sanitizer for `nprocs` processors. `line_bytes` is the
    /// coherence line size, used as the granule at
    /// [`SanitizeGranularity::Line`].
    pub fn new(nprocs: usize, granularity: SanitizeGranularity, line_bytes: u64) -> Self {
        let gbytes = match granularity {
            SanitizeGranularity::Word => WORD_BYTES,
            SanitizeGranularity::Line => line_bytes.max(WORD_BYTES),
        };
        let clocks = (0..nprocs)
            .map(|p| {
                let mut c = VectorClock::default();
                c.set(p, 1);
                c
            })
            .collect();
        Sanitizer {
            granularity,
            gbytes,
            nprocs,
            clocks,
            phase: vec![0; nprocs],
            locksets: vec![Vec::new(); nprocs],
            lock_release: Vec::new(),
            lock_holder: Vec::new(),
            barrier_arrived: Vec::new(),
            sem_clock: Vec::new(),
            cell_clock: Vec::new(),
            cell_granules: HashMap::new(),
            shadow: HashMap::new(),
            raw_races: Vec::new(),
            lock_edges: BTreeSet::new(),
            lints: Vec::new(),
        }
    }

    /// Feeds the engine's memory footprints and synchronization events
    /// into the analyses; the ledger is not read.
    pub(crate) fn on(&mut self, ev: &Event, _ledger: &[ProcStats]) {
        match *ev {
            Event::MemOps { at, ops } => {
                for op in ops.iter().filter(|op| op.kind != OpKind::Prefetch) {
                    self.access(at.p, op.addr, op.bytes, op.kind == OpKind::Write);
                }
            }
            Event::Phase { at } => self.set_phase(at.p, at.phase),
            Event::LockAcquire { at, id } => self.lock_acquire(at.p, id),
            Event::LockGrant(g) => self.lock_acquire(g.at.p, g.id),
            Event::LockRelease { at, id } => self.lock_release(at.p, id),
            Event::BarrierArrive { at, id } => self.barrier_arrive(at.p, id),
            Event::BarrierRelease { id, .. } => self.barrier_complete(id),
            Event::FetchAdd { at, id } => self.fetch_add(at.p, id),
            Event::SemPost { at, id } => self.sem_post(at.p, id),
            Event::SemAcquire { at, id } => self.sem_acquire(at.p, id),
            Event::SemGrant(g) => self.sem_acquire(g.at.p, g.id),
            _ => {}
        }
    }

    /// Registers the memory address of fetch&add cell `id` so plain
    /// accesses to it can be linted.
    pub fn register_fetch_cell(&mut self, id: usize, addr: Addr) {
        self.cell_granules.insert(addr / self.gbytes, id);
    }

    /// Sets processor `p`'s current phase id (for finding context; ids
    /// are resolved to names at [`Sanitizer::finalize`]).
    pub fn set_phase(&mut self, p: usize, phase: u32) {
        self.phase[p] = phase;
    }

    /// Records a plain read of `bytes` at `addr` by processor `p`.
    pub fn read(&mut self, p: usize, addr: Addr, bytes: u64) {
        self.access(p, addr, bytes, false);
    }

    /// Records a plain write of `bytes` at `addr` by processor `p`.
    pub fn write(&mut self, p: usize, addr: Addr, bytes: u64) {
        self.access(p, addr, bytes, true);
    }

    fn lint(&mut self, kind: LintKind, message: String) {
        let f = LintFinding { kind, message };
        if !self.lints.contains(&f) {
            self.lints.push(f);
        }
    }

    fn access(&mut self, p: usize, addr: Addr, bytes: u64, is_write: bool) {
        if bytes == 0 {
            return;
        }
        let first = addr / self.gbytes;
        let last = (addr + bytes - 1) / self.gbytes;
        for g in first..=last {
            if let Some(&cell) = self.cell_granules.get(&g) {
                self.lint(
                    LintKind::AtomicPlainMix,
                    format!(
                        "fetch cell {cell} is also accessed by a plain {} from proc {p} \
                         ({:#x}+{bytes})",
                        if is_write { "write" } else { "read" },
                        addr,
                    ),
                );
            }
            let cur = RawAccess {
                proc: p,
                phase: self.phase[p],
                addr,
                bytes,
                is_write,
                locks: self.locksets[p].clone(),
            };
            let clock = &self.clocks[p];
            let own = EpochVal {
                proc: p as u32,
                clock: clock.get(p),
            };
            let st = self.shadow.entry(g).or_default();
            // Conflict checks: a prior access races with this one when it
            // is not ordered before it by the vector clock and at least
            // one of the two writes.
            let prior: Option<RawAccess> = if is_write {
                if st.write.is_some_and(|w| !w.le(clock)) {
                    st.write_ctx.clone()
                } else {
                    match &st.read {
                        ReadShadow::Epoch(r) if !r.le(clock) => st.read_ctx_of(r.proc as usize),
                        ReadShadow::Clock(vc) => (0..self.nprocs)
                            .find(|&q| vc.get(q) > clock.get(q))
                            .and_then(|q| st.read_ctx_of(q)),
                        _ => None,
                    }
                }
            } else if st.write.is_some_and(|w| !w.le(clock)) {
                st.write_ctx.clone()
            } else {
                None
            };
            if let Some(prior) = prior {
                if !st.reported {
                    st.reported = true;
                    self.raw_races.push((g, prior, cur.clone()));
                }
            }
            // Shadow update (FastTrack): writes own the granule and clear
            // the read side (sound: any later access ordered after this
            // write is, by transitivity, ordered after everything the
            // write was ordered after); reads stay an epoch while totally
            // ordered and promote to a clock when concurrent.
            if is_write {
                st.write = Some(own);
                st.write_ctx = Some(cur);
                st.read = ReadShadow::None;
                st.read_ctxs.clear();
            } else {
                st.read = match std::mem::replace(&mut st.read, ReadShadow::None) {
                    ReadShadow::None => ReadShadow::Epoch(own),
                    ReadShadow::Epoch(r) if r.proc == own.proc || r.le(clock) => {
                        ReadShadow::Epoch(own)
                    }
                    ReadShadow::Epoch(r) => {
                        let mut vc = VectorClock::default();
                        vc.set(r.proc as usize, r.clock);
                        vc.set(p, own.clock);
                        ReadShadow::Clock(vc)
                    }
                    ReadShadow::Clock(mut vc) => {
                        vc.set(p, own.clock);
                        ReadShadow::Clock(vc)
                    }
                };
                match st.read_ctxs.iter_mut().find(|(q, _)| *q == p) {
                    Some(slot) => slot.1 = cur,
                    None => st.read_ctxs.push((p, cur)),
                }
            }
        }
    }

    fn ensure_lock(&mut self, l: usize) {
        if self.lock_release.len() <= l {
            self.lock_release.resize(l + 1, VectorClock::default());
            self.lock_holder.resize(l + 1, None);
        }
    }

    /// Records processor `p` acquiring lock `l` (call at grant time).
    pub fn lock_acquire(&mut self, p: usize, l: usize) {
        self.ensure_lock(l);
        for i in 0..self.locksets[p].len() {
            let held = self.locksets[p][i];
            if held != l {
                self.lock_edges.insert((held, l));
            }
        }
        self.locksets[p].push(l);
        self.lock_holder[l] = Some(p);
        let release = self.lock_release[l].clone();
        self.clocks[p].join(&release);
    }

    /// Records processor `p` releasing lock `l`.
    pub fn lock_release(&mut self, p: usize, l: usize) {
        self.ensure_lock(l);
        if self.lock_holder[l] == Some(p) {
            self.lock_holder[l] = None;
        } else {
            let holder = self.lock_holder[l]
                .map(|h| format!("proc {h}"))
                .unwrap_or_else(|| "nobody".into());
            self.lint(
                LintKind::UnlockByNonOwner,
                format!("lock {l} released by proc {p} but held by {holder}"),
            );
        }
        if let Some(i) = self.locksets[p].iter().rposition(|&h| h == l) {
            self.locksets[p].remove(i);
        }
        self.lock_release[l] = self.clocks[p].clone();
        self.clocks[p].tick(p);
    }

    /// Records processor `p` arriving at barrier `b`.
    pub fn barrier_arrive(&mut self, p: usize, b: usize) {
        if self.barrier_arrived.len() <= b {
            self.barrier_arrived.resize(b + 1, Vec::new());
        }
        if !self.locksets[p].is_empty() {
            self.lint(
                LintKind::LockAcrossBarrier,
                format!(
                    "proc {p} arrived at barrier {b} holding lock(s) {:?}",
                    self.locksets[p]
                ),
            );
        }
        self.barrier_arrived[b].push(p);
    }

    /// Records barrier `b` completing an episode: all processors that
    /// arrived since the last completion are mutually ordered (each
    /// post-barrier action happens-after every pre-barrier action).
    pub fn barrier_complete(&mut self, b: usize) {
        if self.barrier_arrived.len() <= b {
            return;
        }
        let arrived = std::mem::take(&mut self.barrier_arrived[b]);
        let mut joined = VectorClock::default();
        for &q in &arrived {
            joined.join(&self.clocks[q]);
        }
        for &q in &arrived {
            self.clocks[q] = joined.clone();
            self.clocks[q].tick(q);
        }
    }

    /// Records processor `p` performing a fetch&add on cell `c`. The
    /// cells serialize: each operation acquires the previous operation's
    /// release and releases to the next.
    pub fn fetch_add(&mut self, p: usize, c: usize) {
        if self.cell_clock.len() <= c {
            self.cell_clock.resize(c + 1, VectorClock::default());
        }
        let cell = self.cell_clock[c].clone();
        self.clocks[p].join(&cell);
        self.cell_clock[c] = self.clocks[p].clone();
        self.clocks[p].tick(p);
    }

    fn ensure_sem(&mut self, s: usize) {
        if self.sem_clock.len() <= s {
            self.sem_clock.resize(s + 1, VectorClock::default());
        }
    }

    /// Records processor `p` posting semaphore `s` (a release: later
    /// waiters happen-after this).
    pub fn sem_post(&mut self, p: usize, s: usize) {
        self.ensure_sem(s);
        let c = self.clocks[p].clone();
        self.sem_clock[s].join(&c);
        self.clocks[p].tick(p);
    }

    /// Records processor `p` completing a semaphore wait on `s` (an
    /// acquire, conservatively ordered after every prior post).
    pub fn sem_acquire(&mut self, p: usize, s: usize) {
        self.ensure_sem(s);
        let sem = self.sem_clock[s].clone();
        self.clocks[p].join(&sem);
    }

    /// Lints that can only be judged once the run is over (or has
    /// deadlocked): currently barrier divergence. Folded into
    /// [`Sanitizer::finalize`]; exposed for the engine's deadlock path,
    /// which has no statistics to attach a report to.
    fn end_of_run_lints(&mut self) {
        for b in 0..self.barrier_arrived.len() {
            let arrived = self.barrier_arrived[b].clone();
            if arrived.is_empty() {
                continue;
            }
            let mut missing: Vec<usize> =
                (0..self.nprocs).filter(|q| !arrived.contains(q)).collect();
            missing.sort_unstable();
            let mut arrived = arrived;
            arrived.sort_unstable();
            self.lint(
                LintKind::BarrierDivergence,
                format!(
                    "barrier {b}: proc(s) {arrived:?} arrived but proc(s) {missing:?} never did"
                ),
            );
        }
    }

    /// Strongly connected components with ≥ 2 nodes in the lock-order
    /// graph, via reachability closure (lock graphs are tiny).
    fn lock_cycles(&self) -> Vec<LockCycleFinding> {
        let nodes: BTreeSet<usize> = self.lock_edges.iter().flat_map(|&(a, b)| [a, b]).collect();
        let mut reach: BTreeMap<usize, BTreeSet<usize>> = nodes
            .iter()
            .map(|&n| {
                (
                    n,
                    self.lock_edges
                        .iter()
                        .filter(|&&(a, _)| a == n)
                        .map(|&(_, b)| b)
                        .collect(),
                )
            })
            .collect();
        // Transitive closure.
        loop {
            let mut grew = false;
            for &n in &nodes {
                let step: BTreeSet<usize> = reach[&n]
                    .iter()
                    .flat_map(|m| reach[m].iter().copied())
                    .collect();
                let set = reach.get_mut(&n).expect("node present");
                let before = set.len();
                set.extend(step);
                grew |= set.len() != before;
            }
            if !grew {
                break;
            }
        }
        let mut seen: BTreeSet<Vec<usize>> = BTreeSet::new();
        for &n in &nodes {
            if !reach[&n].contains(&n) {
                continue;
            }
            let scc: Vec<usize> = nodes
                .iter()
                .copied()
                .filter(|&m| reach[&n].contains(&m) && reach[&m].contains(&n))
                .collect();
            seen.insert(scc);
        }
        seen.into_iter()
            .map(|locks| LockCycleFinding { locks })
            .collect()
    }

    /// Consumes the sanitizer into its report. `phase_names` maps the
    /// interned phase ids seen via [`Sanitizer::set_phase`] to names
    /// (out-of-range ids render as `"phase-<id>"`).
    pub fn finalize(mut self, phase_names: &[String]) -> SanitizeReport {
        self.end_of_run_lints();
        let mut races: Vec<RaceFinding> = self
            .raw_races
            .iter()
            .map(|(g, prior, cur)| RaceFinding {
                addr: g * self.gbytes,
                bytes: self.gbytes,
                prior: prior.resolve(phase_names),
                current: cur.resolve(phase_names),
            })
            .collect();
        races.sort_by(|a, b| {
            (a.addr, a.prior.proc, a.current.proc).cmp(&(b.addr, b.prior.proc, b.current.proc))
        });
        let mut lints = std::mem::take(&mut self.lints);
        lints.sort_by(|a, b| (a.kind, &a.message).cmp(&(b.kind, &b.message)));
        SanitizeReport {
            granularity: self.granularity,
            races,
            lock_cycles: self.lock_cycles(),
            lints,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names() -> Vec<String> {
        vec!["main".to_string()]
    }

    #[test]
    fn ordered_accesses_are_clean() {
        // p0 writes, releases a lock; p1 acquires it, reads.
        let mut s = Sanitizer::new(2, SanitizeGranularity::Word, 128);
        s.lock_acquire(0, 0);
        s.write(0, 0x1000, 8);
        s.lock_release(0, 0);
        s.lock_acquire(1, 0);
        s.read(1, 0x1000, 8);
        s.lock_release(1, 0);
        let rep = s.finalize(&names());
        assert!(rep.is_clean(), "{rep:?}");
    }

    #[test]
    fn unsynchronized_write_write_races_once_per_granule() {
        let mut s = Sanitizer::new(2, SanitizeGranularity::Word, 128);
        s.write(0, 0x1000, 8);
        s.write(1, 0x1000, 8);
        s.write(1, 0x1000, 8); // second conflict on the granule: deduped
        let rep = s.finalize(&names());
        assert_eq!(rep.counts(), [1, 0, 0]);
        let r = &rep.races[0];
        assert_eq!((r.addr, r.bytes), (0x1000, 8));
        assert_eq!((r.prior.proc, r.current.proc), (0, 1));
        assert!(r.prior.is_write && r.current.is_write);
    }

    #[test]
    fn read_write_and_write_read_race() {
        let mut s = Sanitizer::new(2, SanitizeGranularity::Word, 128);
        s.read(0, 0x2000, 8);
        s.write(1, 0x2000, 8); // read-write race
        s.write(0, 0x3000, 8);
        s.read(1, 0x3000, 8); // write-read race
        let rep = s.finalize(&names());
        assert_eq!(rep.counts(), [2, 0, 0]);
        assert!(!rep.races[0].prior.is_write && rep.races[0].current.is_write);
        assert!(rep.races[1].prior.is_write && !rep.races[1].current.is_write);
    }

    #[test]
    fn disjoint_words_race_only_at_line_granularity() {
        let run = |g| {
            let mut s = Sanitizer::new(2, g, 128);
            s.write(0, 0x1000, 8);
            s.write(1, 0x1008, 8); // same 128-byte line, different word
            s.finalize(&names())
        };
        assert!(run(SanitizeGranularity::Word).is_clean());
        let line = run(SanitizeGranularity::Line);
        assert_eq!(line.counts(), [1, 0, 0]);
        assert_eq!(line.races[0].bytes, 128);
    }

    #[test]
    fn barrier_orders_and_concurrent_reads_promote() {
        let mut s = Sanitizer::new(3, SanitizeGranularity::Word, 128);
        s.write(0, 0x1000, 8);
        for p in 0..3 {
            s.barrier_arrive(p, 0);
        }
        s.barrier_complete(0);
        // Concurrent reads after the barrier: fine (and promote the
        // read shadow to a clock)...
        for p in 0..3 {
            s.read(p, 0x1000, 8);
        }
        // ...and an unordered write then races against a reader.
        s.write(0, 0x1000, 8);
        let rep = s.finalize(&names());
        assert_eq!(rep.counts(), [1, 0, 0]);
        assert!(!rep.races[0].prior.is_write && rep.races[0].current.is_write);
    }

    #[test]
    fn fetch_add_serializes_and_sem_edges_order() {
        let mut s = Sanitizer::new(2, SanitizeGranularity::Word, 128);
        s.write(0, 0x1000, 8);
        s.fetch_add(0, 0);
        s.fetch_add(1, 0);
        s.read(1, 0x1000, 8);
        s.write(0, 0x2000, 8);
        s.sem_post(0, 0);
        s.sem_acquire(1, 0);
        s.read(1, 0x2000, 8);
        assert!(s.finalize(&names()).is_clean());
    }

    #[test]
    fn lock_order_cycle_detected_without_deadlocking() {
        let mut s = Sanitizer::new(2, SanitizeGranularity::Word, 128);
        s.lock_acquire(0, 0);
        s.lock_acquire(0, 1);
        s.lock_release(0, 1);
        s.lock_release(0, 0);
        s.lock_acquire(1, 1);
        s.lock_acquire(1, 0);
        s.lock_release(1, 0);
        s.lock_release(1, 1);
        let rep = s.finalize(&names());
        assert_eq!(
            rep.lock_cycles,
            vec![LockCycleFinding { locks: vec![0, 1] }]
        );
        assert!(rep.races.is_empty() && rep.lints.is_empty());
    }

    #[test]
    fn nested_lock_order_without_cycle_is_clean() {
        let mut s = Sanitizer::new(2, SanitizeGranularity::Word, 128);
        for p in 0..2 {
            s.lock_acquire(p, 0);
            s.lock_acquire(p, 1);
            s.lock_release(p, 1);
            s.lock_release(p, 0);
        }
        assert!(s.finalize(&names()).lock_cycles.is_empty());
    }

    #[test]
    fn lints_fire_and_dedup() {
        let mut s = Sanitizer::new(2, SanitizeGranularity::Word, 128);
        s.register_fetch_cell(3, 0x8000);
        s.read(0, 0x8000, 8);
        s.read(0, 0x8000, 8); // same situation: deduped
        s.lock_release(1, 0); // never acquired
        s.lock_acquire(0, 5);
        s.barrier_arrive(0, 2);
        s.barrier_arrive(1, 2);
        s.barrier_complete(2);
        s.barrier_arrive(1, 0); // open episode at finalize: divergence
        let rep = s.finalize(&names());
        let kinds: Vec<LintKind> = rep.lints.iter().map(|l| l.kind).collect();
        assert_eq!(
            kinds,
            vec![
                LintKind::BarrierDivergence,
                LintKind::UnlockByNonOwner,
                LintKind::AtomicPlainMix,
                LintKind::LockAcrossBarrier,
            ]
        );
        assert!(rep.lints[0].message.contains("barrier 0"));
        assert!(rep.lints[0].message.contains("[1]") && rep.lints[0].message.contains("[0]"));
    }

    #[test]
    fn report_summary_and_clean() {
        let s = Sanitizer::new(1, SanitizeGranularity::Word, 128);
        let rep = s.finalize(&names());
        assert!(rep.is_clean());
        assert_eq!(rep.summary(), "0 race(s), 0 lock cycle(s), 0 lint(s)");
    }
}
