//! Critical-path profiler: *what limits scaling*, answered causally.
//!
//! Aggregate breakdowns (busy / memory / sync shares, miss-cause tables,
//! resource occupancy) say where time goes, but not which time actually
//! bounds the run: stall that overlaps other processors' useful work is
//! hidden, while the same stall on the longest dependency chain delays
//! everyone. This module captures the happens-before dependency structure
//! of a simulated execution — program order within each processor, lock
//! release→acquire handoffs, barrier episodes, semaphore post→wait
//! handoffs — walks the longest (critical) path through it, and attributes
//! every nanosecond of the path:
//!
//! * by **kind** — busy, sync operation, local/remote memory stall, or
//!   lock/barrier/semaphore *wait* (path time during which a downstream
//!   path processor was blocked on the path processor);
//! * by **phase** — the application phase each path segment ran in;
//! * by **cause and resource** — the attrib taxonomy
//!   ([`MissCause`](crate::attrib::MissCause) slots and per-resource
//!   service/queue split) for the on-path memory stall.
//!
//! The attribution *reconciles*: the buckets sum to the run's simulated
//! wall clock to the nanosecond, and the per-phase rows partition the
//! path exactly (both debug-asserted).
//!
//! On top of the captured dependency graph sits a **what-if projector**
//! ([`CritReport::whatif`]): it re-weights edge costs (`sync=0`,
//! `hub_queue=0`, `queue=0`, `remote*0.5`, `busy-only`) and replays the
//! graph forward to a projected wall clock — a causal answer to "how much
//! faster would this run be if that cost went away". The unchanged
//! (`measured`) scenario reproduces the measured wall clock exactly;
//! cost-reducing scenarios are lower-bounded by the busiest processor's
//! busy time.
//!
//! The profiler is **observer-passive**, like the sanitizer and the host
//! profiler: enabling [`MachineConfig::critpath`](crate::config::MachineConfig::critpath)
//! records dependencies on the side and never feeds back into simulated
//! timing, statistics, or run identity.

use crate::attrib::{cause_slot_name, ResourceClass, CAUSE_SLOTS};
use crate::chrome::{json_str, us, ChromeDoc};
use crate::observe::{Event, Grant};
use crate::stats::{PhaseBreakdown, ProcStats};
use crate::time::Ns;

/// Sentinel item index meaning "the beginning of time" (the referenced
/// processor had recorded nothing yet).
const NO_ITEM: u32 = u32::MAX;

/// The kind of synchronization wait a dependency edge crossed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WaitKind {
    /// Lock release → acquire handoff.
    Lock,
    /// Barrier episode: last arrival releases everyone.
    Barrier,
    /// Semaphore post → wait handoff.
    Sem,
}

impl WaitKind {
    /// Short display name (`"lock"`, `"barrier"`, `"sem"`).
    pub fn name(self) -> &'static str {
        match self {
            WaitKind::Lock => "lock",
            WaitKind::Barrier => "barrier",
            WaitKind::Sem => "sem",
        }
    }
}

/// What a recorded wait depends on.
#[derive(Debug, Clone, PartialEq)]
enum Dep {
    /// A single releaser: (processor, item index of everything it did up
    /// to the release).
    One(usize, u32),
    /// A barrier episode (index into the episode table); the effective
    /// dependency is the latest arrival.
    Episode(u32),
}

/// One barrier episode: every participant's arrival, as
/// `(processor, item index at arrival, arrival time)`. Keeping *all*
/// arrivals (not just the last) lets the what-if replay re-evaluate which
/// arrival is latest under re-weighted costs.
#[derive(Debug, Clone, PartialEq)]
struct Episode {
    deps: Vec<(usize, u32, Ns)>,
}

/// A maximal run of one processor's timeline between sync boundaries:
/// the busy / sync-op / memory time, with attrib detail, that its ledger
/// was charged over `(end_t - dur, end_t]`.
#[derive(Debug, Clone, PartialEq)]
struct Chunk {
    phase: u32,
    end_t: Ns,
    dur: Ns,
    time: PhaseBreakdown,
}

/// A blocked interval `(end_t - dur, end_t]` of one processor, ended by a
/// grant whose dependency is `dep`.
#[derive(Debug, Clone, PartialEq)]
struct Wait {
    end_t: Ns,
    dur: Ns,
    kind: WaitKind,
    dep: Dep,
}

#[derive(Debug, Clone, PartialEq)]
enum Item {
    Chunk(Chunk),
    Wait(Wait),
}

impl Item {
    fn end_t(&self) -> Ns {
        match self {
            Item::Chunk(c) => c.end_t,
            Item::Wait(w) => w.end_t,
        }
    }
}

#[derive(Debug, Clone, Default)]
struct ProcState {
    items: Vec<Item>,
    /// End of the recorded items, where the open chunk starts.
    end: Ns,
    /// The processor's ledger times at `end`.
    ledger_at_end: PhaseBreakdown,
    phase: u32,
}

impl ProcState {
    /// Closes the open chunk (if it covers any time) at `t`, where the
    /// processor's ledger reads `ledger`.
    fn close_open(&mut self, t: Ns, ledger: &ProcStats) {
        debug_assert_eq!(
            ledger.total_ns(),
            t,
            "boundary time must match the ledger's clock"
        );
        let now = ledger.times();
        let time = now.since(&std::mem::replace(&mut self.ledger_at_end, now));
        let dur = t - self.end;
        debug_assert_eq!(
            dur,
            time.total_ns(),
            "chunk duration must equal its component sum"
        );
        if dur > 0 {
            self.items.push(Item::Chunk(Chunk {
                phase: self.phase,
                end_t: t,
                dur,
                time,
            }));
        }
        self.end = t;
    }
}

/// Passive recorder of the execution's dependency structure; fed the
/// engine's observer events when [`MachineConfig::critpath`](crate::config::MachineConfig::critpath)
/// is enabled, finalized into a [`CritReport`] at the end of the run.
#[derive(Debug)]
pub struct CritCollector {
    procs: Vec<ProcState>,
    episodes: Vec<Episode>,
}

impl CritCollector {
    /// A collector for `nprocs` processors, all at time 0 in phase 0.
    pub fn new(nprocs: usize) -> Self {
        CritCollector {
            procs: vec![ProcState::default(); nprocs],
            episodes: Vec::new(),
        }
    }

    /// Records the timeline and dependency edges `ev` implies; a chunk's
    /// time is the `ledger`'s difference across it.
    pub(crate) fn on(&mut self, ev: &Event, ledger: &[ProcStats]) {
        match *ev {
            Event::Phase { at } => {
                let s = &mut self.procs[at.p];
                s.close_open(at.t, &ledger[at.p]);
                s.phase = at.phase;
            }
            Event::LockGrant(g) => self.handoff(g, WaitKind::Lock, ledger),
            Event::SemGrant(g) => self.handoff(g, WaitKind::Sem, ledger),
            Event::BarrierRelease { arrivals, t, .. } => {
                // One episode over *all* arrivals (the what-if replay
                // re-evaluates which is latest), then a wait edge for
                // every processor the release delayed.
                let deps = arrivals
                    .iter()
                    .map(|&(w, a)| (w, self.boundary(w, a, ledger), a))
                    .collect();
                self.episodes.push(Episode { deps });
                let e = Dep::Episode((self.episodes.len() - 1) as u32);
                for &(w, arrived) in arrivals.iter().filter(|&&(_, a)| t > a) {
                    self.wait(w, arrived, t, WaitKind::Barrier, e.clone(), ledger);
                }
            }
            _ => {}
        }
    }

    /// Records the release → acquire dependency edge of a hand-off that
    /// delayed its waiter.
    fn handoff(&mut self, g: Grant, kind: WaitKind, ledger: &[ProcStats]) {
        if g.grant > g.at.t {
            let rel = self.boundary(g.from, g.release_t, ledger);
            let dep = Dep::One(g.from, rel);
            self.wait(g.at.p, g.at.t, g.grant, kind, dep, ledger);
        }
    }

    /// Marks a dependency boundary on processor `p` at time `t` (a lock
    /// release, semaphore post, or barrier arrival): closes the open chunk
    /// and returns the index of the item that ends at `t` ([`NO_ITEM`] if
    /// the processor has recorded nothing yet).
    fn boundary(&mut self, p: usize, t: Ns, ledger: &[ProcStats]) -> u32 {
        let s = &mut self.procs[p];
        s.close_open(t, &ledger[p]);
        if s.items.is_empty() {
            NO_ITEM
        } else {
            (s.items.len() - 1) as u32
        }
    }

    /// Processor `p` blocked from `arrived` until `grant` (`grant >
    /// arrived`) on a `kind` wait whose releaser is `dep`.
    fn wait(
        &mut self,
        p: usize,
        arrived: Ns,
        grant: Ns,
        kind: WaitKind,
        dep: Dep,
        ledger: &[ProcStats],
    ) {
        debug_assert!(grant > arrived, "zero-length waits are not recorded");
        let s = &mut self.procs[p];
        s.close_open(arrived, &ledger[p]);
        s.items.push(Item::Wait(Wait {
            end_t: grant,
            dur: grant - arrived,
            kind,
            dep,
        }));
        s.end = grant;
        // The engine charges the wait to the ledger right after the grant.
        s.ledger_at_end.sync_wait_ns += grant - arrived;
    }

    /// Finalizes the collected dependency structure, given the final
    /// `ledger`, into a report: longest-path walk, exact attribution, and
    /// what-if projections.
    pub(crate) fn finalize(
        mut self,
        wall: Ns,
        phase_names: &[String],
        ledger: &[ProcStats],
    ) -> CritReport {
        for (s, l) in self.procs.iter_mut().zip(ledger) {
            s.close_open(l.total_ns(), l);
        }
        let max_phase = self
            .procs
            .iter()
            .flat_map(|s| s.items.iter())
            .filter_map(|it| match it {
                Item::Chunk(c) => Some(c.phase as usize + 1),
                Item::Wait(_) => None,
            })
            .max()
            .unwrap_or(1);
        let nphases = phase_names.len().max(1).max(max_phase);
        let mut rows = vec![CritBuckets::default(); nphases];
        let mut cause_ns = [0; CAUSE_SLOTS];
        let mut queue_ns = [0; 4];
        let mut service_ns = [0; 4];
        let mut segments = Vec::new();

        self.walk_path(
            wall,
            &mut rows,
            &mut cause_ns,
            &mut queue_ns,
            &mut service_ns,
            &mut segments,
        );
        segments.reverse();
        let segments = merge_segments(segments);

        let mut total = CritBuckets::default();
        for r in &rows {
            total.add(r);
        }
        debug_assert_eq!(
            total.total_ns(),
            wall,
            "critical-path attribution must sum to the wall clock"
        );

        let whatif = SCENARIOS
            .iter()
            .map(|s| WhatIf {
                name: s.name.to_string(),
                wall_ns: self.replay(s),
            })
            .collect();

        let phases = rows
            .into_iter()
            .enumerate()
            .map(|(i, path)| PhasePath {
                name: phase_names
                    .get(i)
                    .cloned()
                    .unwrap_or_else(|| format!("phase{i}")),
                path,
            })
            .collect();

        CritReport {
            wall_ns: wall,
            total,
            mem_cause_ns: cause_ns,
            mem_queue_ns: queue_ns,
            mem_service_ns: service_ns,
            phases,
            whatif,
            segments,
        }
    }

    /// Backward longest-path walk with exact attribution. `rows` is
    /// indexed by phase id; detail arrays accumulate the attrib split of
    /// on-path memory stall outside wait windows.
    #[allow(clippy::too_many_arguments)]
    fn walk_path(
        &self,
        wall: Ns,
        rows: &mut [CritBuckets],
        cause_ns: &mut [Ns; CAUSE_SLOTS],
        queue_ns: &mut [Ns; 4],
        service_ns: &mut [Ns; 4],
        segments: &mut Vec<PathSeg>,
    ) {
        if wall == 0 {
            return;
        }
        let mut p = self
            .procs
            .iter()
            .enumerate()
            .max_by_key(|(i, s)| (s.end, std::cmp::Reverse(*i)))
            .map(|(i, _)| i)
            .expect("at least one processor");
        debug_assert_eq!(self.procs[p].end, wall, "walk must start at the wall clock");
        let mut k = self.procs[p].items.len() as i64 - 1;
        let mut t = wall;
        // Active wait windows, innermost last: (window start, kind). Path
        // time inside a window is time a downstream path processor spent
        // blocked on this one.
        let mut windows: Vec<(Ns, WaitKind)> = Vec::new();
        while t > 0 {
            debug_assert!(k >= 0, "path ran out of items above time 0");
            match &self.procs[p].items[k as usize] {
                Item::Chunk(c) => {
                    debug_assert_eq!(c.end_t, t);
                    self.attribute_chunk(
                        c,
                        &mut windows,
                        rows,
                        cause_ns,
                        queue_ns,
                        service_ns,
                        segments,
                        p,
                    );
                    t -= c.dur;
                    k -= 1;
                    while windows.last().is_some_and(|w| w.0 >= t) {
                        windows.pop();
                    }
                }
                Item::Wait(w) => {
                    debug_assert_eq!(w.end_t, t);
                    windows.push((w.end_t - w.dur, w.kind));
                    let (np, nk) = match &w.dep {
                        Dep::One(proc, item) => (*proc, *item),
                        Dep::Episode(e) => {
                            let d = self.episodes[*e as usize]
                                .deps
                                .iter()
                                .max_by_key(|(proc, _, arrived)| (*arrived, *proc))
                                .expect("episodes have at least one arrival");
                            (d.0, d.1)
                        }
                    };
                    debug_assert_ne!(nk, NO_ITEM, "a positive-time wait has a real releaser");
                    p = np;
                    k = nk as i64;
                }
            }
        }
    }

    /// Attributes one traversed chunk, splitting it across active wait
    /// windows (innermost wins) and its own busy/sync/memory composition.
    #[allow(clippy::too_many_arguments)]
    fn attribute_chunk(
        &self,
        c: &Chunk,
        windows: &mut Vec<(Ns, WaitKind)>,
        rows: &mut [CritBuckets],
        cause_ns: &mut [Ns; CAUSE_SLOTS],
        queue_ns: &mut [Ns; 4],
        service_ns: &mut [Ns; 4],
        segments: &mut Vec<PathSeg>,
        proc: usize,
    ) {
        let row = &mut rows[c.phase as usize];
        let lo = c.end_t - c.dur;
        let mut cursor = c.end_t;
        while cursor > lo {
            match windows.last().copied() {
                Some((from, _)) if from >= cursor => {
                    windows.pop();
                }
                Some((from, kind)) => {
                    // The window covers (from, cursor]; the covered part of
                    // the chunk is pure path-wait time.
                    let part = cursor - from.max(lo);
                    match kind {
                        WaitKind::Lock => row.lock_wait_ns += part,
                        WaitKind::Barrier => row.barrier_wait_ns += part,
                        WaitKind::Sem => row.sem_wait_ns += part,
                    }
                    segments.push(PathSeg {
                        proc,
                        start: cursor - part,
                        end: cursor,
                        kind: match kind {
                            WaitKind::Lock => SegKind::LockWait,
                            WaitKind::Barrier => SegKind::BarrierWait,
                            WaitKind::Sem => SegKind::SemWait,
                        },
                    });
                    cursor -= part;
                    if from > lo {
                        windows.pop();
                    }
                }
                None => {
                    // No active window below `cursor`: the rest of the chunk
                    // is attributed by its own composition, scaled exactly.
                    let part = cursor - lo;
                    let t = &c.time;
                    let comp = [t.busy_ns, t.sync_op_ns, t.mem_local_ns, t.mem_remote_ns];
                    let s = split_exact(comp, c.dur, part);
                    row.busy_ns += s[0];
                    row.sync_op_ns += s[1];
                    row.mem_local_ns += s[2];
                    row.mem_remote_ns += s[3];
                    for (slot, v) in cause_ns.iter_mut().zip(&t.mem_cause_ns) {
                        *slot += scale(*v, part, c.dur);
                    }
                    for i in 0..4 {
                        queue_ns[i] += scale(t.mem_breakdown.queue[i], part, c.dur);
                        service_ns[i] += scale(t.mem_breakdown.service[i], part, c.dur);
                    }
                    segments.push(PathSeg {
                        proc,
                        start: lo,
                        end: cursor,
                        kind: SegKind::Run,
                    });
                    cursor = lo;
                }
            }
        }
    }

    /// Forward replay of the dependency graph under re-weighted costs,
    /// returning the projected wall clock. Iterates to a fixpoint so
    /// zero-cost dependency ties cannot be ordered wrongly.
    fn replay(&self, s: &Scenario) -> Ns {
        let mut order: Vec<(usize, u32)> = Vec::new();
        for (p, st) in self.procs.iter().enumerate() {
            for i in 0..st.items.len() {
                order.push((p, i as u32));
            }
        }
        order.sort_by_key(|&(p, i)| {
            let it = &self.procs[p].items[i as usize];
            let rank = match it {
                Item::Chunk(_) => 0u8,
                Item::Wait(_) => 1,
            };
            (it.end_t(), rank, p, i)
        });
        let mut new_end: Vec<Vec<Ns>> = self
            .procs
            .iter()
            .map(|st| vec![0; st.items.len()])
            .collect();
        loop {
            let mut changed = false;
            for &(p, i) in &order {
                let prev = if i == 0 {
                    0
                } else {
                    new_end[p][i as usize - 1]
                };
                let v = match &self.procs[p].items[i as usize] {
                    Item::Chunk(c) => prev + (s.cost)(c),
                    Item::Wait(w) => {
                        if s.honors_deps {
                            let at = |proc: usize, item: u32| {
                                if item == NO_ITEM {
                                    0
                                } else {
                                    new_end[proc][item as usize]
                                }
                            };
                            let dep_t = match &w.dep {
                                Dep::One(proc, item) => at(*proc, *item),
                                Dep::Episode(e) => self.episodes[*e as usize]
                                    .deps
                                    .iter()
                                    .map(|&(proc, item, _)| at(proc, item))
                                    .max()
                                    .unwrap_or(0),
                            };
                            prev.max(dep_t)
                        } else {
                            prev
                        }
                    }
                };
                if v != new_end[p][i as usize] {
                    new_end[p][i as usize] = v;
                    changed = true;
                }
            }
            if !changed {
                return new_end
                    .iter()
                    .filter_map(|v| v.last())
                    .copied()
                    .max()
                    .unwrap_or(0);
            }
        }
    }
}

/// Exact largest-remainder split: scales `parts` (which sum to `total`)
/// down to sum exactly to `want`, each scaled part ≤ its original.
fn split_exact(parts: [Ns; 4], total: Ns, want: Ns) -> [Ns; 4] {
    debug_assert!(want <= total);
    debug_assert_eq!(parts.iter().sum::<Ns>(), total);
    if want == total || total == 0 {
        return if total == 0 { [0; 4] } else { parts };
    }
    let mut s = [0u64; 4];
    let mut rem: [(u128, usize); 4] = [(0, 0); 4];
    let mut sum = 0;
    for i in 0..4 {
        let prod = parts[i] as u128 * want as u128;
        s[i] = (prod / total as u128) as u64;
        rem[i] = (prod % total as u128, i);
        sum += s[i];
    }
    // Distribute the deficit to the largest remainders (ties by index),
    // deterministically.
    rem.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
    let mut deficit = want - sum;
    for &(r, i) in &rem {
        if deficit == 0 {
            break;
        }
        if r > 0 {
            s[i] += 1;
            deficit -= 1;
        }
    }
    debug_assert_eq!(s.iter().sum::<Ns>(), want);
    s
}

/// Floor-scales one detail counter by `want / total` (detail arrays are
/// approximate under partial-chunk splits; the seven primary buckets use
/// [`split_exact`]).
fn scale(v: Ns, want: Ns, total: Ns) -> Ns {
    if total == 0 {
        0
    } else {
        (v as u128 * want as u128 / total as u128) as u64
    }
}

/// A what-if scenario: a per-chunk cost re-weighting plus whether waits
/// still honor their dependencies.
struct Scenario {
    name: &'static str,
    honors_deps: bool,
    cost: fn(&Chunk) -> Ns,
}

/// The built-in what-if scenarios, in report order.
const SCENARIOS: &[Scenario] = &[
    Scenario {
        name: "measured",
        honors_deps: true,
        cost: |c| c.dur,
    },
    Scenario {
        name: "sync=0",
        honors_deps: false,
        cost: |c| c.dur - c.time.sync_op_ns,
    },
    Scenario {
        name: "hub_queue=0",
        honors_deps: true,
        cost: |c| c.dur - c.time.mem_breakdown.queue[0],
    },
    Scenario {
        name: "queue=0",
        honors_deps: true,
        cost: |c| c.dur - c.time.mem_breakdown.queue_total(),
    },
    Scenario {
        name: "remote*0.5",
        honors_deps: true,
        cost: |c| c.dur - (c.time.mem_remote_ns - c.time.mem_remote_ns / 2),
    },
    Scenario {
        name: "busy-only",
        honors_deps: false,
        cost: |c| c.time.busy_ns,
    },
];

/// The exact seven-way partition of critical-path time.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CritBuckets {
    /// Path time computing.
    pub busy_ns: Ns,
    /// Path time in synchronization operations.
    pub sync_op_ns: Ns,
    /// Path time stalled on local-home memory accesses.
    pub mem_local_ns: Ns,
    /// Path time stalled on remote memory accesses.
    pub mem_remote_ns: Ns,
    /// Path time during which a downstream path processor was blocked on
    /// a lock this processor held.
    pub lock_wait_ns: Ns,
    /// Path time racing to a barrier other processors had reached.
    pub barrier_wait_ns: Ns,
    /// Path time holding up a semaphore waiter.
    pub sem_wait_ns: Ns,
}

impl CritBuckets {
    /// Total path time in these buckets.
    pub fn total_ns(&self) -> Ns {
        self.busy_ns + self.sync_op_ns + self.mem_local_ns + self.mem_remote_ns + self.wait_ns()
    }

    /// Total memory-stall path time (local + remote).
    pub fn mem_ns(&self) -> Ns {
        self.mem_local_ns + self.mem_remote_ns
    }

    /// Total wait-attributed path time (lock + barrier + semaphore).
    pub fn wait_ns(&self) -> Ns {
        self.lock_wait_ns + self.barrier_wait_ns + self.sem_wait_ns
    }

    /// Accumulates another partition into this one.
    pub fn add(&mut self, o: &CritBuckets) {
        self.busy_ns += o.busy_ns;
        self.sync_op_ns += o.sync_op_ns;
        self.mem_local_ns += o.mem_local_ns;
        self.mem_remote_ns += o.mem_remote_ns;
        self.lock_wait_ns += o.lock_wait_ns;
        self.barrier_wait_ns += o.barrier_wait_ns;
        self.sem_wait_ns += o.sem_wait_ns;
    }
}

/// The critical-path partition of one application phase.
#[derive(Debug, Clone, PartialEq)]
pub struct PhasePath {
    /// Phase name (phase 0 is the implicit `"main"`).
    pub name: String,
    /// This phase's share of the critical path.
    pub path: CritBuckets,
}

/// One what-if projection: the wall clock the dependency graph replays to
/// under a re-weighted cost scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct WhatIf {
    /// Scenario name (`"measured"`, `"sync=0"`, `"hub_queue=0"`,
    /// `"queue=0"`, `"remote*0.5"`, `"busy-only"`).
    pub name: String,
    /// Projected wall clock under the scenario.
    pub wall_ns: Ns,
}

/// Display category of one on-path segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SegKind {
    /// The path processor was doing its own work (busy/sync-op/memory).
    Run,
    /// A downstream path processor was blocked on a lock meanwhile.
    LockWait,
    /// Other processors were parked at a barrier meanwhile.
    BarrierWait,
    /// A semaphore waiter was blocked meanwhile.
    SemWait,
}

impl SegKind {
    /// Short display name.
    pub fn name(self) -> &'static str {
        match self {
            SegKind::Run => "on-path",
            SegKind::LockWait => "on-path lock-wait",
            SegKind::BarrierWait => "on-path barrier-wait",
            SegKind::SemWait => "on-path sem-wait",
        }
    }
}

/// One maximal on-path interval of one processor's timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PathSeg {
    /// Processor the path ran on.
    pub proc: usize,
    /// Segment start (exclusive end of the previous path segment).
    pub start: Ns,
    /// Segment end.
    pub end: Ns,
    /// Display category.
    pub kind: SegKind,
}

/// Merges adjacent same-processor same-kind segments of a time-ordered
/// segment list.
fn merge_segments(segs: Vec<PathSeg>) -> Vec<PathSeg> {
    let mut out: Vec<PathSeg> = Vec::with_capacity(segs.len());
    for s in segs {
        if let Some(last) = out.last_mut() {
            if last.proc == s.proc && last.kind == s.kind && last.end == s.start {
                last.end = s.end;
                continue;
            }
        }
        out.push(s);
    }
    out
}

/// The finalized critical-path analysis of one run: the exact path
/// partition, its attrib detail, per-phase rows, what-if projections and
/// the on-path segments for trace export.
#[derive(Debug, Clone, PartialEq)]
pub struct CritReport {
    /// The run's measured wall clock; equals `total.total_ns()` exactly.
    pub wall_ns: Ns,
    /// The whole path's partition.
    pub total: CritBuckets,
    /// On-path memory stall by miss-cause slot (outside wait windows;
    /// approximate under partial-chunk splits).
    pub mem_cause_ns: [Ns; CAUSE_SLOTS],
    /// On-path queueing delay per resource class (ditto).
    pub mem_queue_ns: [Ns; 4],
    /// On-path uncontended service time per resource class (ditto).
    pub mem_service_ns: [Ns; 4],
    /// Per-phase path partitions; their sums equal `total` exactly.
    pub phases: Vec<PhasePath>,
    /// What-if projections, in scenario order (measured first); `whatif[0]`
    /// (`"measured"`) equals `wall_ns` exactly.
    pub whatif: Vec<WhatIf>,
    /// Time-ordered on-path segments for Chrome-trace highlighting.
    pub segments: Vec<PathSeg>,
}

impl CritReport {
    /// The (busy, memory, sync) path shares in percent, folding sync ops
    /// and all waits into "sync" — comparable to
    /// [`RunStats::avg_breakdown_pct`](crate::stats::RunStats::avg_breakdown_pct),
    /// but for the path alone.
    pub fn share_pct(&self) -> (f64, f64, f64) {
        let t = self.total.total_ns() as f64;
        if t == 0.0 {
            return (0.0, 0.0, 0.0);
        }
        (
            100.0 * self.total.busy_ns as f64 / t,
            100.0 * self.total.mem_ns() as f64 / t,
            100.0 * (self.total.sync_op_ns + self.total.wait_ns()) as f64 / t,
        )
    }

    /// Compact `[busy, mem, sync]` path-nanosecond summary (the triple the
    /// sweep store records); sums to `wall_ns`.
    pub fn summary(&self) -> [Ns; 3] {
        [
            self.total.busy_ns,
            self.total.mem_ns(),
            self.total.sync_op_ns + self.total.wait_ns(),
        ]
    }

    /// Projected speedup of the named what-if scenario over the measured
    /// wall clock (1.0 if the scenario is unknown or projects zero).
    pub fn speedup(&self, scenario: &str) -> f64 {
        match self.whatif.iter().find(|w| w.name == scenario) {
            Some(w) if w.wall_ns > 0 => self.wall_ns as f64 / w.wall_ns as f64,
            _ => 1.0,
        }
    }

    /// One human-readable line: the dominant limiters of the path, e.g.
    /// `"41% barrier wait, 33% remote mem, 26% busy"`.
    pub fn headline(&self) -> String {
        let t = self.total.total_ns().max(1) as f64;
        let mut parts: Vec<(f64, String)> = vec![
            (self.total.busy_ns as f64, "busy".into()),
            (self.total.sync_op_ns as f64, "sync ops".into()),
            (self.total.mem_local_ns as f64, "local mem".into()),
            (self.total.mem_remote_ns as f64, "remote mem".into()),
            (self.total.lock_wait_ns as f64, "lock wait".into()),
            (self.total.barrier_wait_ns as f64, "barrier wait".into()),
            (self.total.sem_wait_ns as f64, "sem wait".into()),
        ];
        parts.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap());
        parts
            .iter()
            .filter(|(ns, _)| *ns > 0.0)
            .take(3)
            .map(|(ns, name)| format!("{:.0}% {name}", 100.0 * ns / t))
            .collect::<Vec<_>>()
            .join(", ")
    }

    /// Appends the on-path segments (as process `pid`) to a merged Chrome
    /// event stream, one track per processor; pairs with the trace
    /// emitters' [`write_chrome_events`](crate::trace::Trace::write_chrome_events)
    /// so a run's trace and its path highlight load side by side.
    pub fn write_chrome_events(&self, pid: u32, label: &str, first: &mut bool, out: &mut String) {
        let mut emit = |ev: String| {
            if !*first {
                out.push(',');
            }
            *first = false;
            out.push_str(&ev);
        };
        emit(format!(
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\
             \"args\":{{\"name\":{}}}}}",
            json_str(&format!("critical path: {label}"))
        ));
        let nprocs = self.segments.iter().map(|s| s.proc + 1).max().unwrap_or(0);
        for tid in 0..nprocs {
            emit(format!(
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\
                 \"args\":{{\"name\":{}}}}}",
                json_str(&format!("proc {tid}"))
            ));
        }
        for s in &self.segments {
            emit(format!(
                "{{\"name\":{},\"cat\":\"critpath\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\
                 \"pid\":{pid},\"tid\":{},\"args\":{{\"dur_ns\":{}}}}}",
                json_str(s.kind.name()),
                us(s.start),
                us(s.end - s.start),
                s.proc,
                s.end - s.start,
            ));
        }
    }

    /// The path highlight as a standalone Chrome trace-event document.
    pub fn to_chrome_json(&self, label: &str) -> String {
        let mut doc = ChromeDoc::new();
        let (first, out) = doc.parts();
        self.write_chrome_events(0, label, first, out);
        doc.finish()
    }

    /// A fixed-width text table of the path partition per phase, plus the
    /// attrib detail of on-path memory stall.
    pub fn text_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<14} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10}\n",
            "phase",
            "path_ns",
            "busy",
            "sync_op",
            "mem_loc",
            "mem_rem",
            "lock_w",
            "barr_w",
            "sem_w"
        ));
        let mut render = |name: &str, b: &CritBuckets| {
            out.push_str(&format!(
                "{:<14} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10}\n",
                name,
                b.total_ns(),
                b.busy_ns,
                b.sync_op_ns,
                b.mem_local_ns,
                b.mem_remote_ns,
                b.lock_wait_ns,
                b.barrier_wait_ns,
                b.sem_wait_ns,
            ));
        };
        for ph in &self.phases {
            if ph.path.total_ns() > 0 {
                render(&ph.name, &ph.path);
            }
        }
        render("(total)", &self.total);
        out.push_str(&format!("limiters: {}\n", self.headline()));
        let mem = self.total.mem_ns();
        if mem > 0 {
            let causes: Vec<String> = (0..CAUSE_SLOTS)
                .filter(|&i| self.mem_cause_ns[i] > 0)
                .map(|i| format!("{} {}", cause_slot_name(i), self.mem_cause_ns[i]))
                .collect();
            out.push_str(&format!(
                "on-path mem by cause (ns): {}\n",
                causes.join(", ")
            ));
            let queues: Vec<String> = ResourceClass::ALL
                .iter()
                .filter(|r| self.mem_queue_ns[r.index()] > 0)
                .map(|r| format!("{} {}", r.name(), self.mem_queue_ns[r.index()]))
                .collect();
            if !queues.is_empty() {
                out.push_str(&format!("on-path queueing (ns): {}\n", queues.join(", ")));
            }
        }
        out
    }

    /// A fixed-width text table of the what-if projections.
    pub fn whatif_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<14} {:>14} {:>9}\n",
            "scenario", "proj_wall_ns", "speedup"
        ));
        for w in &self.whatif {
            out.push_str(&format!(
                "{:<14} {:>14} {:>8.2}x\n",
                w.name,
                w.wall_ns,
                self.speedup(&w.name),
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observe::At;

    /// The phase names of a run that never calls `ctx.phase`.
    fn main_only() -> Vec<String> {
        vec!["main".to_string()]
    }

    /// Two procs, one lock handoff: p0 busy 100 then releases; p1 busy 30,
    /// waits 30→100, then busy 50. Wall = 150 via p1.
    fn lock_chain() -> CritReport {
        let mut c = CritCollector::new(2);
        let mut l = vec![ProcStats::default(); 2];
        l[0].busy_ns = 100;
        l[1].busy_ns = 30;
        let at = At {
            p: 1,
            t: 30,
            phase: 0,
        };
        let g = Grant {
            at,
            id: 0,
            from: 0,
            release_t: 100,
            grant: 100,
        };
        c.on(&Event::LockGrant(g), &l);
        l[1].sync_wait_ns = 70;
        l[1].busy_ns += 50;
        c.finalize(150, &main_only(), &l)
    }

    #[test]
    fn lock_chain_partitions_exactly() {
        let rep = lock_chain();
        assert_eq!(rep.total.total_ns(), 150);
        // p1 busy 50 (on path) + p0 split: (30,100] behind the wait window
        // → 70 lock wait; (0,30] → busy.
        assert_eq!(rep.total.lock_wait_ns, 70);
        assert_eq!(rep.total.busy_ns, 80);
        assert_eq!(rep.total.mem_ns(), 0);
        let phase_sum: Ns = rep.phases.iter().map(|p| p.path.total_ns()).sum();
        assert_eq!(phase_sum, 150);
    }

    #[test]
    fn lock_chain_whatif_bounds_hold() {
        let rep = lock_chain();
        assert_eq!(rep.whatif[0].name, "measured");
        assert_eq!(rep.whatif[0].wall_ns, 150);
        // sync=0 ignores the wait: each proc runs its own busy serially.
        let sync0 = rep.whatif.iter().find(|w| w.name == "sync=0").unwrap();
        assert_eq!(sync0.wall_ns, 100);
        // busy-only bound: the busiest processor.
        let busy = rep.whatif.iter().find(|w| w.name == "busy-only").unwrap();
        assert_eq!(busy.wall_ns, 100);
        for w in &rep.whatif {
            assert!(w.wall_ns <= rep.wall_ns, "{} exceeds measured", w.name);
            assert!(w.wall_ns >= busy.wall_ns, "{} under busy bound", w.name);
        }
    }

    #[test]
    fn barrier_episode_follows_last_arrival() {
        // Three procs arrive at 10/40/100; all released at 100.
        let mut c = CritCollector::new(3);
        let mut l = vec![ProcStats::default(); 3];
        let arrivals = [(0, 10), (1, 40), (2, 100)];
        for (p, a) in arrivals {
            l[p].busy_ns = a;
        }
        c.on(
            &Event::BarrierRelease {
                id: 0,
                arrivals: &arrivals,
                t: 100,
            },
            &l,
        );
        for ((p, a), busy) in arrivals.into_iter().zip([20, 10, 20]) {
            l[p].sync_wait_ns = 100 - a;
            l[p].busy_ns += busy;
        }
        let rep = c.finalize(120, &main_only(), &l);
        // Path: p0 (100,120] busy 20, then episode jump to p2 (the last
        // arriver). p2's (10,100] is behind p0's window → barrier wait;
        // (0,10] splits off as busy.
        assert_eq!(rep.total.total_ns(), 120);
        assert_eq!(rep.total.barrier_wait_ns, 90);
        assert_eq!(rep.total.busy_ns, 30);
        // Measured replay reproduces the wall even with the episode.
        assert_eq!(rep.whatif[0].wall_ns, 120);
        // Ideal bound is the busiest proc's busy time.
        let busy = rep.whatif.iter().find(|w| w.name == "busy-only").unwrap();
        assert_eq!(busy.wall_ns, 120);
    }

    #[test]
    fn mem_detail_lands_in_report() {
        let mut l = ProcStats {
            busy_ns: 100,
            mem_ns: 100,
            mem_remote_ns: 100,
            ..Default::default()
        };
        l.mem_cause_ns[4] = 100;
        l.mem_breakdown.queue[0] = 30;
        l.mem_breakdown.service[1] = 50;
        l.mem_breakdown.other_ns = 20;
        let rep = CritCollector::new(1).finalize(200, &main_only(), &[l]);
        assert_eq!(rep.total.mem_remote_ns, 100);
        assert_eq!(rep.mem_cause_ns[4], 100);
        assert_eq!(rep.mem_queue_ns[0], 30);
        assert_eq!(rep.mem_service_ns[1], 50);
        let hq = rep.whatif.iter().find(|w| w.name == "hub_queue=0").unwrap();
        assert_eq!(hq.wall_ns, 170);
        let rh = rep.whatif.iter().find(|w| w.name == "remote*0.5").unwrap();
        assert_eq!(rh.wall_ns, 150);
        assert!(rep.headline().contains("busy"));
    }

    #[test]
    fn phase_rows_partition_the_path() {
        let mut c = CritCollector::new(1);
        let mut l = [ProcStats {
            busy_ns: 60,
            ..Default::default()
        }];
        let at = At {
            p: 0,
            t: 60,
            phase: 1,
        };
        c.on(&Event::Phase { at }, &l);
        l[0].busy_ns += 40;
        let names = vec!["main".to_string(), "solve".to_string()];
        let rep = c.finalize(100, &names, &l);
        assert_eq!(rep.phases.len(), 2);
        assert_eq!(rep.phases[0].name, "main");
        assert_eq!(rep.phases[0].path.busy_ns, 60);
        assert_eq!(rep.phases[1].path.busy_ns, 40);
        assert_eq!(rep.total.total_ns(), 100);
    }

    #[test]
    fn segments_merge_and_order_forward() {
        let rep = lock_chain();
        assert!(!rep.segments.is_empty());
        for w in rep.segments.windows(2) {
            assert!(w[0].end <= w[1].start || w[0].start <= w[1].start);
        }
        // Segments tile the wall clock exactly.
        let covered: Ns = rep.segments.iter().map(|s| s.end - s.start).sum();
        assert_eq!(covered, 150);
        let json = rep.to_chrome_json("test");
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.ends_with("\"displayTimeUnit\":\"ns\"}"));
        assert!(json.contains("critical path: test"));
    }

    #[test]
    fn split_exact_is_exact_and_bounded() {
        let parts = [33, 33, 33, 1];
        let s = split_exact(parts, 100, 57);
        assert_eq!(s.iter().sum::<Ns>(), 57);
        for i in 0..4 {
            assert!(s[i] <= parts[i]);
        }
        assert_eq!(split_exact([10, 0, 0, 0], 10, 10), [10, 0, 0, 0]);
        assert_eq!(split_exact([0, 0, 0, 0], 0, 0), [0, 0, 0, 0]);
    }

    #[test]
    fn empty_run_yields_empty_report() {
        let rep = CritCollector::new(2).finalize(
            0,
            &main_only(),
            &[ProcStats::default(), ProcStats::default()],
        );
        assert_eq!(rep.wall_ns, 0);
        assert_eq!(rep.total.total_ns(), 0);
        assert_eq!(rep.whatif[0].wall_ns, 0);
        assert!(rep.segments.is_empty());
        assert_eq!(rep.share_pct(), (0.0, 0.0, 0.0));
        assert_eq!(rep.speedup("sync=0"), 1.0);
    }

    #[test]
    fn summary_triple_sums_to_wall() {
        let rep = lock_chain();
        let [b, m, s] = rep.summary();
        assert_eq!(b + m + s, 150);
        let (bp, mp, sp) = rep.share_pct();
        assert!((bp + mp + sp - 100.0).abs() < 1e-9);
    }
}
