//! The per-processor execution context.
//!
//! Application bodies receive a [`Ctx`] and express their work through it:
//! computation is charged with the `compute_*` methods, memory traffic with
//! [`SharedVec`](crate::shared::SharedVec) accessors (which call back into
//! [`Ctx::record_read`]/[`Ctx::record_write`]), and coordination with
//! [`Ctx::barrier`], [`Ctx::lock`]/[`Ctx::unlock`], [`Ctx::fetch_add`] and
//! semaphores.
//!
//! Memory operations are buffered and merged client-side (adjacent
//! same-kind accesses coalesce) and flushed to the engine in batches; every
//! synchronization operation flushes first, so ordering across
//! synchronization points is exact. Calls whose reply carries nothing
//! (`flush`, `phase`, `unlock`, `sem_post`) are posted: they return without
//! waiting, up to [`MAX_OUTSTANDING`] requests ahead of the engine.

use std::cell::{Cell, RefCell};
use std::sync::mpsc::{Receiver, Sender};

use crate::config::{CostModel, MachineConfig};
use crate::page::Addr;
use crate::proto::{Action, MemOp, OpKind, Reply, Request};
use crate::sync::{BarrierRef, FetchCellRef, LockRef, SemRef};
use crate::time::Ns;

/// How many buffered memory operations trigger an automatic flush.
const FLUSH_THRESHOLD: usize = 64;

/// The most requests a processor may have outstanding: every
/// `MAX_OUTSTANDING`-th consecutive post waits for the engine's reply.
pub const MAX_OUTSTANDING: usize = 8;

/// The interface a simulated processor exposes to application code.
///
/// A `Ctx` is handed to the application body by
/// [`Machine::run`](crate::machine::Machine::run); one exists per
/// simulated processor.
pub struct Ctx {
    id: usize,
    nprocs: usize,
    line_bytes: u64,
    cost: CostModel,
    prefetch_enabled: bool,
    /// When the sanitizer is on, `san` mirrors `ops` with exact
    /// (lossless-merged) byte footprints for race detection.
    sanitize: bool,
    busy: Cell<Ns>,
    ops: RefCell<Vec<MemOp>>,
    san: RefCell<Vec<MemOp>>,
    /// Posts since the last request that waited for a reply.
    posted: Cell<usize>,
    tx: Sender<(usize, Request)>,
    rx: Receiver<Reply>,
}

impl Ctx {
    /// Processor `id`'s context on a machine configured by `cfg`.
    pub(crate) fn new(
        id: usize,
        cfg: &MachineConfig,
        tx: Sender<(usize, Request)>,
        rx: Receiver<Reply>,
    ) -> Self {
        Ctx {
            id,
            nprocs: cfg.nprocs,
            line_bytes: cfg.cache.line_bytes as u64,
            cost: cfg.cost,
            prefetch_enabled: cfg.prefetch_enabled,
            sanitize: cfg.sanitize.enabled,
            busy: Cell::new(0),
            ops: RefCell::new(Vec::with_capacity(FLUSH_THRESHOLD + 1)),
            san: RefCell::new(Vec::new()),
            posted: Cell::new(0),
            tx,
            rx,
        }
    }

    /// This processor's process id, `0..nprocs`.
    pub fn id(&self) -> usize {
        self.id
    }

    /// Number of processes in the run.
    pub fn nprocs(&self) -> usize {
        self.nprocs
    }

    /// Whether the machine configuration enables software prefetch (§6.1).
    /// Applications typically guard optional prefetch loops on this.
    pub fn prefetch_enabled(&self) -> bool {
        self.prefetch_enabled
    }

    /// The cost model, for applications that charge custom work.
    pub fn cost_model(&self) -> CostModel {
        self.cost
    }

    // ---- computation -----------------------------------------------------

    /// Charges `ns` nanoseconds of computation.
    pub fn compute_ns(&self, ns: Ns) {
        self.busy.set(self.busy.get() + ns);
    }

    /// Charges `n` floating-point operations of computation.
    pub fn compute_flops(&self, n: u64) {
        self.compute_ns(n * self.cost.flop_ns);
    }

    /// Charges `n` integer/pointer operations of computation.
    pub fn compute_ops(&self, n: u64) {
        self.compute_ns(n * self.cost.int_op_ns);
    }

    /// Charges `n` traversal/call steps of computation (irregular codes).
    pub fn compute_steps(&self, n: u64) {
        self.compute_ns(n * self.cost.step_ns);
    }

    // ---- memory ----------------------------------------------------------

    /// Records a timed read of `bytes` at `addr`. Usually called through
    /// [`SharedVec`](crate::shared::SharedVec) rather than directly.
    pub fn record_read(&self, addr: Addr, bytes: u64) {
        self.record(addr, bytes, OpKind::Read);
    }

    /// Records a timed write of `bytes` at `addr`.
    pub fn record_write(&self, addr: Addr, bytes: u64) {
        self.record(addr, bytes, OpKind::Write);
    }

    /// Records a software prefetch covering `bytes` at `addr`. No-op when
    /// prefetch is disabled in the configuration.
    pub fn record_prefetch(&self, addr: Addr, bytes: u64) {
        if self.prefetch_enabled {
            self.record(addr, bytes, OpKind::Prefetch);
        }
    }

    fn record(&self, addr: Addr, bytes: u64, kind: OpKind) {
        debug_assert!(bytes > 0);
        if self.sanitize && kind != OpKind::Prefetch {
            // Exact footprints for the sanitizer: only lossless merges
            // (containment or contiguous extension), never the covering
            // same-line merge the timing stream makes below. The flush
            // decision stays a function of `ops` alone so enabling the
            // sanitizer cannot change batching (and thus timing).
            let mut san = self.san.borrow_mut();
            match san.last_mut() {
                Some(last)
                    if last.kind == kind && addr >= last.addr && addr <= last.addr + last.bytes =>
                {
                    last.bytes = last.bytes.max(addr + bytes - last.addr);
                }
                _ => san.push(MemOp { addr, bytes, kind }),
            }
        }
        let mut ops = self.ops.borrow_mut();
        if let Some(last) = ops.last_mut() {
            if last.kind == kind {
                // Coalesce: contiguous extension or same-line repetition.
                let last_end = last.addr + last.bytes;
                if addr == last_end {
                    last.bytes += bytes;
                    return;
                }
                let line = !(self.line_bytes - 1);
                if addr >= last.addr
                    && (addr + bytes - 1) & line == (last_end - 1) & line
                    && addr & line >= last.addr & line
                {
                    last.bytes = (addr + bytes).max(last_end) - last.addr;
                    return;
                }
            }
        }
        ops.push(MemOp { addr, bytes, kind });
        if ops.len() >= FLUSH_THRESHOLD {
            drop(ops);
            self.flush();
        }
    }

    /// A request carrying all buffered work, then `action`.
    fn request(&self, action: Action, wait: bool) -> Request {
        // A full-size buffer for each new batch: regrowing one from empty
        // while batches are in flight raised peak RSS (EXPERIMENTS.md).
        let ops = if self.ops.borrow().is_empty() {
            Vec::new()
        } else {
            self.ops.replace(Vec::with_capacity(FLUSH_THRESHOLD + 1))
        };
        Request {
            busy: self.busy.replace(0),
            ops,
            san: std::mem::take(&mut *self.san.borrow_mut()),
            action,
            wait,
        }
    }

    /// Sends the buffered work and `action`; with `wait`, blocks until the engine has carried
    /// them out (and every earlier post) and returns the reply's value, else returns 0.
    fn send(&self, action: Action, wait: bool) -> i64 {
        if self.tx.send((self.id, self.request(action, wait))).is_err() {
            std::panic::panic_any(crate::proto::EngineGone);
        }
        if !wait {
            return 0;
        }
        self.posted.set(0);
        match self.rx.recv() {
            Ok(r) => r.value,
            Err(_) => std::panic::panic_any(crate::proto::EngineGone),
        }
    }

    /// Sends `action`, waiting only if it is the [`MAX_OUTSTANDING`]-th post in a row.
    fn post(&self, action: Action) {
        self.posted.set(self.posted.get() + 1);
        self.send(action, self.posted.get() == MAX_OUTSTANDING);
    }

    /// Flushes buffered computation and memory operations to the engine,
    /// advancing this processor's virtual clock. Called automatically by
    /// every synchronization operation and when the buffer fills.
    pub fn flush(&self) {
        if self.busy.get() == 0 && self.ops.borrow().is_empty() {
            return;
        }
        self.post(Action::Flush);
    }

    // ---- phases ----------------------------------------------------------

    /// Marks the start of application phase `name` on this processor.
    /// Work charged before the first marker lands in the implicit `"main"`
    /// phase. Per-phase breakdowns appear in
    /// [`RunStats::phases`](crate::stats::RunStats::phases) and, when
    /// tracing is enabled, label the exported timeline. Marking the same
    /// name again re-enters that phase (phase ids are interned by name).
    pub fn phase(&self, name: &str) {
        self.post(Action::Phase(name.to_string()));
    }

    // ---- synchronization ---------------------------------------------------

    /// Waits until every processor has arrived at barrier `b`.
    pub fn barrier(&self, b: BarrierRef) {
        self.send(Action::Barrier(b.0 as usize), true);
    }

    /// Acquires lock `l`, blocking in virtual time while it is held.
    pub fn lock(&self, l: LockRef) {
        self.send(Action::Lock(l.0 as usize), true);
    }

    /// Releases lock `l`.
    ///
    /// # Panics
    ///
    /// The simulation fails if the calling processor does not hold `l`.
    pub fn unlock(&self, l: LockRef) {
        self.post(Action::Unlock(l.0 as usize));
    }

    /// Runs `f` with lock `l` held.
    pub fn with_lock<R>(&self, l: LockRef, f: impl FnOnce() -> R) -> R {
        self.lock(l);
        let r = f();
        self.unlock(l);
        r
    }

    /// Atomically adds `delta` to fetch cell `c`, returning the previous
    /// value. The cost model follows the configured lock primitive (LL/SC
    /// read-modify-write or at-memory fetch&op).
    pub fn fetch_add(&self, c: FetchCellRef, delta: i64) -> i64 {
        self.send(Action::FetchAdd(c.0 as usize, delta), true)
    }

    /// Decrements semaphore `s`, blocking in virtual time while it is zero.
    pub fn sem_wait(&self, s: SemRef) {
        self.send(Action::SemWait(s.0 as usize), true);
    }

    /// Increments semaphore `s` by `n`, waking blocked waiters.
    pub fn sem_post(&self, s: SemRef, n: u32) {
        self.post(Action::SemPost(s.0 as usize, n));
    }

    /// Called by the runtime when the body returns or panics: sends the
    /// final request without waiting for a reply.
    pub(crate) fn finish(&self, action: Action) {
        let _ = self.tx.send((self.id, self.request(action, false)));
    }
}

impl std::fmt::Debug for Ctx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ctx")
            .field("id", &self.id)
            .field("nprocs", &self.nprocs)
            .finish()
    }
}
