//! The conservative discrete-event execution engine.
//!
//! One OS thread runs each simulated processor's application body. The
//! engine advances virtual time by processing thread requests in virtual
//! time order: a request is only processed once every unblocked thread has
//! submitted its next request (so no earlier-in-virtual-time work can still
//! appear), which makes runs deterministic regardless of host scheduling.
//!
//! All time charged to a processor flows through the `charge_*` helpers
//! into one ledger, the per-processor [`ProcStats`]; each charge is
//! counted there once. A processor's per-phase breakdown is the ledger's
//! difference between entering and leaving the phase, so the phases
//! partition the ledger by construction. Everything the optional views of
//! a run need — those charges, each access, phase changes,
//! synchronization hand-offs, the start of each event — leaves the engine
//! as one [`Event`] through the observer seam ([`crate::observe`]),
//! emitted from one place per kind beside the ledger. The engine never
//! reads an observer back, so no observer can change the run.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt;
use std::sync::mpsc::{Receiver, SyncSender};

use crate::attrib::{word_mask, MissCause, CAUSE_OTHER};
use crate::config::{BarrierImpl, LockImpl, MachineConfig};
use crate::error::SimError;
use crate::memsys::{AccessClass, AccessKind, MemorySystem, Outcome};
use crate::observe::{At, Event, Grant, LineAccess, Observers};
use crate::page::Addr;
use crate::proto::{Action, MemOp, OpKind, Reply, Request};
use crate::schedule::Perturber;
use crate::stats::{PhaseBreakdown, PhaseStats, ProcStats, RunStats};
use crate::sync::{BarrierState, LockState, SemState};
use crate::time::Ns;

/// An atomic fetch&add cell.
pub(crate) struct FetchCell {
    pub addr: Addr,
    pub value: i64,
}

/// All synchronization object state for one run.
pub(crate) struct SyncTables {
    pub locks: Vec<LockState>,
    pub barriers: Vec<BarrierState>,
    pub sems: Vec<SemState>,
    pub cells: Vec<FetchCell>,
}

/// The synchronization object a processor is parked on.
#[derive(Debug, Clone, Copy)]
enum Parked {
    Lock(usize),
    Barrier(usize),
    Semaphore(usize),
}

impl fmt::Display for Parked {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Parked::Lock(id) => write!(f, "lock {id}"),
            Parked::Barrier(id) => write!(f, "barrier {id}"),
            Parked::Semaphore(id) => write!(f, "semaphore {id}"),
        }
    }
}

/// Where a processor's thread is in its request cycle.
enum RunState {
    /// Executing application code: it owes the engine a request.
    Running,
    /// Its request waits in the heap to be processed.
    Queued(Request),
    /// Parked on a synchronization object (named in deadlock reports).
    Parked(Parked),
    /// Its `Finish` request was processed.
    Done,
}

/// A processor's control state; everything it is charged is in the ledger.
struct ProcRuntime {
    clock: Ns,
    /// Interned id of the phase this processor is currently in.
    phase: u32,
    /// The processor's ledger times when it entered that phase.
    phase_from: PhaseBreakdown,
    state: RunState,
}

pub(crate) struct Engine {
    cfg: MachineConfig,
    mem: MemorySystem,
    sync: SyncTables,
    procs: Vec<ProcRuntime>,
    /// The ledger: the only place a busy, sync or memory charge is counted.
    stats: Vec<ProcStats>,
    heap: BinaryHeap<Reverse<(Ns, usize)>>,
    reply_tx: Vec<SyncSender<Reply>>,
    req_rx: Receiver<(usize, Request)>,
    done_count: usize,
    log2p: u32,
    /// Interned phase names; id 0 is the implicit `"main"` phase.
    phase_names: Vec<String>,
    /// Per-processor, per-phase times, booked as each phase is left.
    phase_acc: Vec<Vec<PhaseBreakdown>>,
    /// Seeded schedule perturber, when `cfg.schedule` is set. Unlike the
    /// observers it changes the run, so it is engine state. All its
    /// decisions happen here on the coordinator thread, in deterministic
    /// event order, so a seed replays bit-identically; when `None` every
    /// choice point takes its default (FIFO or processor order).
    sched: Option<Box<Perturber>>,
    /// The run's observers, fed through [`Observers::emit`] only.
    obs: Observers,
}

impl Engine {
    /// An engine over `mem` and `sync`; `labels` are the labelled
    /// allocations as `(name, base, bytes)`.
    pub(crate) fn new(
        cfg: MachineConfig,
        mem: MemorySystem,
        sync: SyncTables,
        labels: &[(String, Addr, u64)],
        reply_tx: Vec<SyncSender<Reply>>,
        req_rx: Receiver<(usize, Request)>,
    ) -> Self {
        let n = cfg.nprocs;
        let sched = cfg.schedule.map(|sc| Box::new(Perturber::new(sc, n)));
        let obs = Observers::new(&cfg, &mem.contention, &sync, labels);
        Engine {
            log2p: (n.max(2) as u32).next_power_of_two().trailing_zeros(),
            cfg,
            mem,
            sync,
            procs: (0..n)
                .map(|_| ProcRuntime {
                    clock: 0,
                    phase: 0,
                    phase_from: PhaseBreakdown::default(),
                    state: RunState::Running,
                })
                .collect(),
            stats: vec![ProcStats::default(); n],
            heap: BinaryHeap::new(),
            reply_tx,
            req_rx,
            done_count: 0,
            phase_names: vec!["main".to_string()],
            phase_acc: (0..n).map(|_| vec![PhaseBreakdown::default()]).collect(),
            sched,
            obs,
        }
    }

    /// Runs the event loop to completion.
    pub(crate) fn run(mut self) -> Result<RunStats, SimError> {
        let mut events: u64 = 0;
        let n = self.procs.len();
        loop {
            // Drain already-arrived requests without blocking. An error
            // (empty or disconnected) just means nothing more has arrived;
            // disconnection is fine — final requests are already queued.
            while let Ok((p, req)) = self.req_rx.try_recv() {
                self.accept(p, req)?;
            }
            if self.done_count == n {
                break;
            }
            // Frontier: the earliest virtual time at which a still-running
            // thread could submit new work.
            let frontier = self
                .procs
                .iter()
                .filter(|p| matches!(p.state, RunState::Running))
                .map(|p| p.clock)
                .min();
            // Strict inequality: a running processor whose clock equals the
            // heap minimum could still submit a request at that same time
            // with a smaller processor id, and the (time, pid) tie must be
            // broken by the heap, not by host thread timing — otherwise
            // runs would not be bit-deterministic.
            let can_pop = match (self.heap.peek(), frontier) {
                (Some(&Reverse((t, _))), Some(f)) => t < f,
                (Some(_), None) => true,
                (None, _) => false,
            };
            if can_pop {
                let Reverse((t, mut p)) = self.heap.pop().expect("peeked");
                if let Some(sched) = self.sched.as_deref_mut() {
                    // Same-virtual-time ties otherwise resolve lowest-pid
                    // first; let the perturber pick among the tied
                    // processors instead. Entries pushed *while* handling
                    // this event can still land at time t — they contend
                    // at the next pop, exactly as under the default order.
                    if matches!(self.heap.peek(), Some(&Reverse((t2, _))) if t2 == t) {
                        let mut tied = vec![p];
                        while let Some(&Reverse((t2, q))) = self.heap.peek() {
                            if t2 != t {
                                break;
                            }
                            self.heap.pop();
                            tied.push(q);
                        }
                        let i = sched.pick_tied(&tied);
                        p = tied.swap_remove(i);
                        for q in tied {
                            self.heap.push(Reverse((t, q)));
                        }
                    }
                    sched.tick();
                }
                // Popped times are nondecreasing, so ticks drive the
                // observers' sampling clocks forward monotonically.
                let tick = Event::Tick {
                    t,
                    contention: &self.mem.contention,
                };
                self.obs.emit(&tick, &self.stats);
                self.process(p);
                events += 1;
            } else if frontier.is_some() {
                // Block until a running thread submits.
                match self.req_rx.recv() {
                    Ok((p, req)) => self.accept(p, req)?,
                    Err(_) => {
                        return Err(SimError::AppPanic(
                            "an application thread exited without finishing".into(),
                        ))
                    }
                }
            } else {
                // Nothing runnable, nothing pending: deadlock.
                let blocked: Vec<String> = self
                    .procs
                    .iter()
                    .enumerate()
                    .filter_map(|(i, p)| match p.state {
                        RunState::Parked(r) => Some(format!("proc {i} on {r}")),
                        _ => None,
                    })
                    .collect();
                let note = self.obs.deadlock_note(&self.phase_names);
                return Err(SimError::Deadlock(blocked.join(", ") + &note));
            }
        }
        let wall = self.stats.iter().map(|s| s.finish_ns).max().unwrap_or(0);
        let reports = self
            .obs
            .finish(wall, &self.mem.contention, &self.phase_names, &self.stats);
        let phases: Vec<PhaseStats> = self
            .phase_names
            .iter()
            .enumerate()
            .map(|(i, name)| PhaseStats {
                name: name.clone(),
                procs: self
                    .phase_acc
                    .iter()
                    .map(|pp| pp.get(i).copied().unwrap_or_default())
                    .collect(),
            })
            .collect();
        Ok(RunStats {
            wall_ns: wall,
            events,
            page_migrations: self.mem.page_migrations(),
            resources: self.mem.contention.summary(),
            ranges: reports.ranges,
            trace: reports.trace,
            phases,
            procs: self.stats,
            sanitize: reports.sanitize,
            critpath: reports.critpath,
        })
    }

    fn accept(&mut self, p: usize, req: Request) -> Result<(), SimError> {
        if let Action::Panic(msg) = req.action {
            return Err(SimError::AppPanic(msg));
        }
        debug_assert!(
            matches!(self.procs[p].state, RunState::Running),
            "proc {p} submitted while not running"
        );
        self.procs[p].state = RunState::Queued(req);
        self.heap.push(Reverse((self.procs[p].clock, p)));
        Ok(())
    }

    fn reply(&mut self, p: usize, value: i64) {
        self.procs[p].state = RunState::Running;
        // A send failure means the thread died; the engine will notice via
        // the request channel.
        let _ = self.reply_tx[p].send(Reply { value });
    }

    /// Interns a phase name, returning its id.
    fn intern_phase(&mut self, name: &str) -> u32 {
        if let Some(i) = self.phase_names.iter().position(|n| n == name) {
            return i as u32;
        }
        self.phase_names.push(name.to_string());
        (self.phase_names.len() - 1) as u32
    }

    /// Books `p`'s ledger times since it entered its current phase to
    /// that phase; called as the processor leaves the phase or finishes.
    fn close_phase(&mut self, p: usize) {
        let now = self.stats[p].times();
        let rt = &mut self.procs[p];
        let spent = now.since(&std::mem::replace(&mut rt.phase_from, now));
        let v = &mut self.phase_acc[p];
        let i = rt.phase as usize;
        if v.len() <= i {
            v.resize(i + 1, PhaseBreakdown::default());
        }
        v[i].add(&spent);
    }

    /// Hands `ev` to the observers beside the ledger.
    fn emit(&mut self, ev: &Event) {
        self.obs.emit(ev, &self.stats);
    }

    /// Processor `p`'s observer tag: its clock and current phase.
    fn at(&self, p: usize) -> At {
        let rt = &self.procs[p];
        At {
            p,
            t: rt.clock,
            phase: rt.phase,
        }
    }

    /// Charges `ns` of computation to `p`, advancing its clock.
    fn charge_busy(&mut self, p: usize, ns: Ns) {
        if ns == 0 {
            return;
        }
        self.emit(&Event::Busy { at: self.at(p), ns });
        self.stats[p].busy_ns += ns;
        self.procs[p].clock += ns;
    }

    /// Charges `ns` of synchronization-operation overhead to `p`,
    /// advancing its clock.
    fn charge_sync_op(&mut self, p: usize, ns: Ns) {
        if ns == 0 {
            return;
        }
        self.emit(&Event::SyncOp { at: self.at(p), ns });
        self.stats[p].sync_op_ns += ns;
        self.procs[p].clock += ns;
    }

    /// Charges `p`'s wait from its clock (where it parked) to `until`, and
    /// moves the clock there.
    fn charge_sync_wait(&mut self, p: usize, until: Ns) {
        let at = self.at(p);
        let ns = until.saturating_sub(at.t);
        if ns > 0 {
            self.emit(&Event::SyncWait { at, ns });
            self.stats[p].sync_wait_ns += ns;
        }
        self.procs[p].clock = until;
    }

    /// Charges one serviced access at `addr` to `p`, advancing its clock.
    fn charge_access(&mut self, p: usize, addr: Addr, kind: AccessKind, o: &Outcome) {
        let at = self.at(p);
        let stats = &mut self.stats[p];
        match kind {
            AccessKind::Read => stats.reads += 1,
            AccessKind::Write => stats.writes += 1,
        }
        match o.class {
            AccessClass::Hit => stats.hits += 1,
            AccessClass::LocalMiss => stats.misses_local += 1,
            AccessClass::RemoteClean => stats.misses_remote_clean += 1,
            AccessClass::RemoteDirty => stats.misses_remote_dirty += 1,
            AccessClass::Upgrade => stats.upgrades += 1,
        }
        stats.mem_ns += o.latency;
        if o.home_local {
            stats.mem_local_ns += o.latency;
        } else {
            stats.mem_remote_ns += o.latency;
        }
        stats.invals_sent += u64::from(o.invals);
        stats.writebacks += u64::from(o.writeback);
        stats.prefetch_late += u64::from(o.late_prefetch);
        stats.miss_hops += u64::from(o.hops);
        stats.mem_breakdown.add(&o.breakdown);
        let cause_slot = match o.miss_cause {
            Some(MissCause::Cold) => {
                stats.misses_cold += 1;
                MissCause::Cold.index()
            }
            Some(c @ (MissCause::CoherenceTrueShare | MissCause::CoherenceFalseShare)) => {
                stats.misses_coherence += 1;
                if c == MissCause::CoherenceFalseShare {
                    stats.misses_false_share += 1;
                }
                c.index()
            }
            Some(c @ (MissCause::Capacity | MissCause::Conflict)) => {
                stats.misses_capacity += 1;
                if c == MissCause::Conflict {
                    stats.misses_conflict += 1;
                }
                c.index()
            }
            None => CAUSE_OTHER,
        };
        stats.mem_cause_ns[cause_slot] += o.latency;
        self.procs[p].clock += o.latency;
        self.emit(&Event::Access(LineAccess {
            at,
            addr,
            kind,
            outcome: o,
        }));
    }

    fn apply_ops(&mut self, p: usize, busy: Ns, ops: &[MemOp], san: &[MemOp]) {
        self.charge_busy(p, busy);
        self.emit(&Event::MemOps {
            at: self.at(p),
            ops: san,
        });
        if ops.is_empty() {
            return;
        }
        let line_bytes = self.mem.line_bytes();
        for op in ops {
            let first = op.addr / line_bytes;
            let last = (op.addr + op.bytes - 1) / line_bytes;
            for line in first..=last {
                let addr = line * line_bytes;
                match op.kind {
                    OpKind::Read | OpKind::Write => {
                        let kind = if op.kind == OpKind::Read {
                            AccessKind::Read
                        } else {
                            AccessKind::Write
                        };
                        // The op's true byte range, clipped to this line,
                        // is the word footprint false-sharing detection
                        // runs on.
                        let mask = word_mask(addr, line_bytes, op.addr, op.addr + op.bytes);
                        let o = self
                            .mem
                            .access_masked(p, addr, kind, self.procs[p].clock, mask);
                        self.charge_access(p, addr, kind, &o);
                    }
                    OpKind::Prefetch => {
                        let (issue, _fill) = self.mem.prefetch(p, addr, self.procs[p].clock);
                        self.stats[p].prefetches += 1;
                        self.charge_busy(p, issue);
                    }
                }
            }
        }
    }

    /// Cost of an atomic RMW on `addr` under the configured lock primitive.
    fn rmw_cost(&mut self, p: usize, addr: Addr, now: Ns) -> Ns {
        match self.cfg.lock_impl {
            LockImpl::TicketLlsc => self.mem.llsc_rmw(p, addr, now).latency,
            LockImpl::TicketFetchOp => self.mem.fetchop(p, addr, now),
        }
    }

    /// Charges `p` an atomic RMW on `addr` now, as synchronization overhead.
    fn charge_atomic(&mut self, p: usize, addr: Addr) {
        let cost = self.rmw_cost(p, addr, self.procs[p].clock);
        self.stats[p].atomics += 1;
        self.charge_sync_op(p, cost);
    }

    fn process(&mut self, p: usize) {
        // Every action below leaves `p` Running (replied to), Parked or Done.
        let RunState::Queued(req) = std::mem::replace(&mut self.procs[p].state, RunState::Running)
        else {
            unreachable!("heap entry without a queued request");
        };
        self.apply_ops(p, req.busy, &req.ops, &req.san);
        match req.action {
            Action::Flush => self.reply(p, 0),
            Action::Phase(name) => {
                self.close_phase(p);
                self.procs[p].phase = self.intern_phase(&name);
                self.emit(&Event::Phase { at: self.at(p) });
                self.reply(p, 0);
            }
            Action::Finish => {
                self.close_phase(p);
                self.stats[p].finish_ns = self.procs[p].clock;
                self.procs[p].state = RunState::Done;
                self.done_count += 1;
            }
            Action::Lock(id) => {
                self.charge_atomic(p, self.sync.locks[id].addr);
                let t = self.procs[p].clock;
                if self.sync.locks[id].acquire_or_enqueue(p, t) {
                    self.emit(&Event::LockAcquire { at: self.at(p), id });
                    self.stats[p].lock_acquires += 1;
                    self.reply(p, 0);
                } else {
                    self.procs[p].state = RunState::Parked(Parked::Lock(id));
                }
            }
            Action::Unlock(id) => {
                let addr = self.sync.locks[id].addr;
                let now = self.procs[p].clock;
                // Releasing writes the lock word; usually a cache hit for
                // the holder under LL/SC, an at-memory op under fetch&op.
                let cost = match self.cfg.lock_impl {
                    LockImpl::TicketLlsc => {
                        self.mem.access(p, addr, AccessKind::Write, now).latency
                    }
                    LockImpl::TicketFetchOp => self.mem.fetchop(p, addr, now),
                };
                self.charge_sync_op(p, cost);
                let release_t = self.procs[p].clock;
                self.emit(&Event::LockRelease { at: self.at(p), id });
                // Grant order is the perturber's lock choice point: with a
                // schedule set and several waiters queued, a seeded pick
                // replaces the FIFO (ticket-order) handoff.
                let lock = &mut self.sync.locks[id];
                let idx = match self.sched.as_deref_mut() {
                    Some(sched) if lock.queue.len() > 1 => sched.pick_waiter(&lock.queue),
                    _ => 0,
                };
                if let Some((w, arrived)) = lock.release(p, idx) {
                    // The release can complete before the waiter's acquire
                    // attempt has (they overlap in virtual time); the grant
                    // happens at whichever is later.
                    let grant = release_t.max(arrived);
                    self.emit(&Event::LockGrant(Grant {
                        at: self.at(w),
                        id,
                        from: p,
                        release_t,
                        grant,
                    }));
                    // Hand off: the new holder pulls the lock line over.
                    let handoff = self.rmw_cost(w, addr, grant);
                    self.charge_sync_wait(w, grant);
                    self.stats[w].lock_acquires += 1;
                    self.charge_sync_op(w, handoff);
                    self.reply(w, 0);
                }
                self.reply(p, 0);
            }
            Action::Barrier(id) => {
                self.emit(&Event::BarrierArrive { at: self.at(p), id });
                let addr = self.sync.barriers[id].addr;
                let now = self.procs[p].clock;
                let arrive_cost = match self.cfg.barrier_impl {
                    BarrierImpl::TournamentLlsc => {
                        // log₂P stages of flag updates, mostly remote.
                        Ns::from(self.log2p)
                            * (self.cfg.latency.llsc_extra_ns
                                + self.cfg.latency.remote_clean_ns / 2)
                    }
                    BarrierImpl::CentralLlsc => self.mem.llsc_rmw(p, addr, now).latency,
                    BarrierImpl::CentralFetchOp => self.mem.fetchop(p, addr, now),
                };
                self.charge_sync_op(p, arrive_cost);
                let t = self.procs[p].clock;
                let Some(mut arrivals) = self.sync.barriers[id].arrive(p, t) else {
                    self.procs[p].state = RunState::Parked(Parked::Barrier(id));
                    return;
                };
                let release_t = arrivals.iter().map(|&(_, a)| a).max().unwrap_or(t);
                let first_t = arrivals.iter().map(|&(_, a)| a).min().unwrap_or(t);
                arrivals.sort_unstable();
                // The wake sweep below serializes the woken processors'
                // wake-up accesses through the memory system, so its
                // order is a scheduling choice point: perturb it.
                if let Some(sched) = self.sched.as_deref_mut() {
                    sched.shuffle(&mut arrivals);
                }
                self.emit(&Event::BarrierRelease {
                    id,
                    arrivals: &arrivals,
                    t: release_t,
                });
                for (w, _) in arrivals {
                    let wake_cost = match self.cfg.barrier_impl {
                        BarrierImpl::TournamentLlsc => {
                            Ns::from(self.log2p) * self.cfg.latency.link_ns
                        }
                        BarrierImpl::CentralLlsc => {
                            self.mem
                                .access(w, addr, AccessKind::Read, release_t)
                                .latency
                        }
                        BarrierImpl::CentralFetchOp => self.mem.fetchop(w, addr, release_t),
                    };
                    self.charge_sync_wait(w, release_t);
                    self.stats[w].barriers += 1;
                    self.charge_sync_op(w, wake_cost);
                    self.reply(w, 0);
                }
                // After the woken processors' events, so the trace buffer
                // sees its spans in the same order at any span cap.
                let (from, to) = (first_t, release_t);
                self.emit(&Event::BarrierEpisode { id, from, to });
            }
            Action::FetchAdd(id, delta) => {
                self.emit(&Event::FetchAdd { at: self.at(p), id });
                self.charge_atomic(p, self.sync.cells[id].addr);
                let prev = self.sync.cells[id].value;
                self.sync.cells[id].value += delta;
                self.reply(p, prev);
            }
            Action::SemWait(id) => {
                self.charge_atomic(p, self.sync.sems[id].addr);
                let t = self.procs[p].clock;
                if self.sync.sems[id].wait_or_enqueue(p, t) {
                    self.emit(&Event::SemAcquire { at: self.at(p), id });
                    self.reply(p, 0);
                } else {
                    self.procs[p].state = RunState::Parked(Parked::Semaphore(id));
                }
            }
            Action::SemPost(id, n) => {
                self.emit(&Event::SemPost { at: self.at(p), id });
                let addr = self.sync.sems[id].addr;
                self.charge_atomic(p, addr);
                let post_t = self.procs[p].clock;
                // Wake order is the perturber's semaphore choice point.
                let sem = &mut self.sync.sems[id];
                let woken = match self.sched.as_deref_mut() {
                    Some(sched) => sem.post(n, |q| sched.pick_waiter(q)),
                    None => sem.post(n, |_| 0),
                };
                for (w, arrived) in woken {
                    let grant = post_t.max(arrived);
                    self.emit(&Event::SemGrant(Grant {
                        at: self.at(w),
                        id,
                        from: p,
                        release_t: post_t,
                        grant,
                    }));
                    let wake = self.mem.access(w, addr, AccessKind::Read, grant).latency;
                    self.charge_sync_wait(w, grant);
                    self.charge_sync_op(w, wake);
                    self.reply(w, 0);
                }
                self.reply(p, 0);
            }
            Action::Panic(_) => unreachable!("handled in accept"),
        }
    }
}
