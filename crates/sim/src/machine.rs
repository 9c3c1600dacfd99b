//! Building and running a simulated machine.
//!
//! [`Machine`] is the public entry point: configure it, allocate shared
//! data and synchronization objects, then [`Machine::run`] an application
//! body on every simulated processor.
//!
//! ```
//! use ccnuma_sim::machine::{Machine, Placement};
//! use ccnuma_sim::config::MachineConfig;
//!
//! let mut m = Machine::new(MachineConfig::origin2000_scaled(4, 64 << 10))?;
//! let data = m.shared_vec::<u64>(1024, Placement::Blocked);
//! let bar = m.barrier();
//! let d = data.clone();
//! let stats = m.run(move |ctx| {
//!     let data = &d;
//!     let n = data.len() / ctx.nprocs();
//!     let lo = ctx.id() * n;
//!     for i in lo..lo + n {
//!         data.write(ctx, i, i as u64);
//!     }
//!     ctx.barrier(bar);
//!     // Read a neighbour's partition: remote traffic.
//!     let peer = (ctx.id() + 1) % ctx.nprocs();
//!     let mut sum = 0;
//!     for i in peer * n..peer * n + n {
//!         sum += data.read(ctx, i);
//!     }
//!     ctx.compute_flops(sum % 3);
//! })?;
//! assert_eq!(stats.nprocs(), 4);
//! assert!(stats.total(|p| p.misses_remote_clean + p.misses_remote_dirty) > 0);
//! # Ok::<(), ccnuma_sim::error::SimError>(())
//! ```

use std::panic::{self, AssertUnwindSafe};
use std::sync::mpsc::{channel, sync_channel};
use std::sync::{Arc, Once};
use std::thread::JoinHandle;

use crate::config::MachineConfig;
use crate::ctx::Ctx;
use crate::engine::{Engine, FetchCell, SyncTables};
use crate::error::SimError;
use crate::memsys::MemorySystem;
use crate::page::Addr;
use crate::shared::{SharedVec, SimValue};
use crate::stats::RunStats;
use crate::sync::{BarrierRef, BarrierState, FetchCellRef, LockRef, LockState, SemRef, SemState};

/// Placement directive for a shared allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// Leave pages to the machine's default policy (first-touch or
    /// round-robin).
    Policy,
    /// Home every page of the allocation on one node.
    Node(usize),
    /// Split the allocation into `nprocs` contiguous shares and home each
    /// share on its process's node — the paper's "manual"/"proper"
    /// distribution for block-partitioned arrays.
    Blocked,
    /// Home consecutive pages on consecutive nodes (explicit round-robin
    /// for this allocation only).
    Interleaved,
}

use crate::proto::{Action, EngineGone};

fn install_quiet_hook() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let prev = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<EngineGone>().is_none() {
                prev(info);
            }
        }));
    });
}

struct Allocation {
    base: Addr,
    bytes: u64,
    placement: Placement,
}

/// A configured machine: shared data, synchronization objects, and the
/// ability to run one application.
///
/// Allocate everything the application needs, then call [`Machine::run`],
/// which consumes the machine. [`SharedVec`] handles stay valid after the
/// run for verification.
pub struct Machine {
    cfg: MachineConfig,
    next_addr: Addr,
    allocs: Vec<Allocation>,
    labels: Vec<(String, Addr, u64)>,
    locks: Vec<Addr>,
    barriers: Vec<Addr>,
    sems: Vec<(Addr, i64)>,
    cells: Vec<(Addr, i64)>,
}

impl Machine {
    /// Creates a machine from a configuration.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Config`] if the configuration is invalid.
    pub fn new(cfg: MachineConfig) -> Result<Self, SimError> {
        cfg.validate()?;
        Ok(Machine {
            next_addr: cfg.page_bytes as Addr, // skip page 0 (null guard)
            cfg,
            allocs: Vec::new(),
            labels: Vec::new(),
            locks: Vec::new(),
            barriers: Vec::new(),
            sems: Vec::new(),
            cells: Vec::new(),
        })
    }

    /// The machine's configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.cfg
    }

    /// Number of processors the application body will run on.
    pub fn nprocs(&self) -> usize {
        self.cfg.nprocs
    }

    fn alloc_bytes(&mut self, bytes: u64) -> Addr {
        // Page-align every allocation so placement directives are exact.
        let page = self.cfg.page_bytes as Addr;
        let base = self.next_addr;
        self.next_addr += bytes.div_ceil(page).max(1) * page;
        base
    }

    /// Allocates a shared vector of `len` elements placed per `placement`.
    pub fn shared_vec<T: SimValue>(&mut self, len: usize, placement: Placement) -> SharedVec<T> {
        let bytes = (len * std::mem::size_of::<T>().max(1)) as u64;
        let base = self.alloc_bytes(bytes.max(1));
        self.allocs.push(Allocation {
            base,
            bytes: bytes.max(1),
            placement,
        });
        SharedVec::new(len, base)
    }

    /// Like [`Machine::shared_vec`], but labels the allocation so the run's
    /// [`RunStats::ranges`](crate::stats::RunStats) attributes accesses,
    /// misses and stall time to it — the per-data-structure profiling the
    /// paper's authors lacked on the real machine (§8).
    pub fn shared_vec_labeled<T: SimValue>(
        &mut self,
        name: &str,
        len: usize,
        placement: Placement,
    ) -> SharedVec<T> {
        let v = self.shared_vec::<T>(len, placement);
        self.labels
            .push((name.to_string(), v.base_addr(), v.byte_len().max(1)));
        v
    }

    fn alloc_sync_page(&mut self) -> Addr {
        // Each sync object gets its own page, homed round-robin so lock and
        // barrier traffic spreads across nodes.
        let n_sync = self.locks.len() + self.barriers.len() + self.sems.len() + self.cells.len();
        let base = self.alloc_bytes(1);
        let node = n_sync % self.cfg.n_nodes();
        self.allocs.push(Allocation {
            base,
            bytes: self.cfg.page_bytes as u64,
            placement: Placement::Node(node),
        });
        base
    }

    /// Creates a lock.
    pub fn lock(&mut self) -> LockRef {
        let addr = self.alloc_sync_page();
        self.locks.push(addr);
        LockRef((self.locks.len() - 1) as u32)
    }

    /// Creates `n` locks (e.g. per-cell locks for tree building).
    pub fn lock_array(&mut self, n: usize) -> Vec<LockRef> {
        (0..n).map(|_| self.lock()).collect()
    }

    /// Creates a barrier over all processors.
    pub fn barrier(&mut self) -> BarrierRef {
        let addr = self.alloc_sync_page();
        self.barriers.push(addr);
        BarrierRef((self.barriers.len() - 1) as u32)
    }

    /// Creates a counting semaphore with `initial` permits.
    pub fn semaphore(&mut self, initial: i64) -> SemRef {
        let addr = self.alloc_sync_page();
        self.sems.push((addr, initial));
        SemRef((self.sems.len() - 1) as u32)
    }

    /// Creates an atomic fetch&add cell with `initial` value.
    pub fn fetch_cell(&mut self, initial: i64) -> FetchCellRef {
        let addr = self.alloc_sync_page();
        self.cells.push((addr, initial));
        FetchCellRef((self.cells.len() - 1) as u32)
    }

    fn apply_placements(&self, mem: &mut MemorySystem) {
        let n_nodes = self.cfg.n_nodes();
        let page = self.cfg.page_bytes as u64;
        for a in &self.allocs {
            match a.placement {
                Placement::Policy => {}
                Placement::Node(n) => mem.place_range(a.base, a.bytes, n % n_nodes),
                Placement::Blocked => {
                    let nprocs = self.cfg.nprocs as u64;
                    let share = (a.bytes.div_ceil(nprocs)).div_ceil(page).max(1) * page;
                    for p in 0..self.cfg.nprocs {
                        let lo = a.base + p as u64 * share;
                        if lo >= a.base + a.bytes {
                            break;
                        }
                        let len = share.min(a.base + a.bytes - lo);
                        mem.place_range(lo, len, mem.node_of(p));
                    }
                }
                Placement::Interleaved => {
                    let mut node = 0;
                    let mut addr = a.base;
                    while addr < a.base + a.bytes {
                        mem.place_range(addr, page.min(a.base + a.bytes - addr), node);
                        node = (node + 1) % n_nodes;
                        addr += page;
                    }
                }
            }
        }
    }

    /// Runs `body` on every simulated processor and returns the run's
    /// statistics. Consumes the machine; [`SharedVec`] handles remain valid
    /// for verification.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Deadlock`] if all processors block on
    /// synchronization, [`SimError::AppPanic`] if the body panics on any
    /// processor, or [`SimError::Spawn`] if the host cannot start a
    /// processor's thread.
    pub fn run<F>(self, body: F) -> Result<RunStats, SimError>
    where
        F: Fn(&Ctx) + Send + Sync + 'static,
    {
        install_quiet_hook();
        let cfg = self.cfg.clone();
        let perm = cfg
            .mapping
            .resolve(cfg.nprocs, cfg.procs_per_node)
            .map_err(crate::error::ConfigError::BadMapping)?;
        let mut mem = MemorySystem::new(&cfg, &perm);
        self.apply_placements(&mut mem);

        let sync = SyncTables {
            locks: self.locks.iter().map(|&a| LockState::new(a)).collect(),
            barriers: self
                .barriers
                .iter()
                .map(|&a| BarrierState::new(a, cfg.nprocs))
                .collect(),
            sems: self
                .sems
                .iter()
                .map(|&(a, c)| SemState::new(a, c))
                .collect(),
            cells: self
                .cells
                .iter()
                .map(|&(a, v)| FetchCell { addr: a, value: v })
                .collect(),
        };

        let (req_tx, req_rx) = channel();
        let mut reply_txs = Vec::with_capacity(cfg.nprocs);
        let body = Arc::new(body);
        let mut handles = Vec::with_capacity(cfg.nprocs);
        for p in 0..cfg.nprocs {
            let (rep_tx, rep_rx) = sync_channel(1);
            reply_txs.push(rep_tx);
            let ctx = Ctx::new(p, &cfg, req_tx.clone(), rep_rx);
            let body = Arc::clone(&body);
            let spawned = spawn_proc(p, move || {
                let result = panic::catch_unwind(AssertUnwindSafe(|| body(&ctx)));
                match result {
                    Ok(()) => ctx.finish(Action::Finish),
                    Err(e) => {
                        if e.downcast_ref::<EngineGone>().is_some() {
                            // Engine aborted; exit silently.
                            return;
                        }
                        let msg = e
                            .downcast_ref::<&str>()
                            .map(|s| s.to_string())
                            .or_else(|| e.downcast_ref::<String>().cloned())
                            .unwrap_or_else(|| "unknown panic".into());
                        ctx.finish(Action::Panic(format!("proc {p}: {msg}")));
                    }
                }
            });
            match spawned {
                Ok(handle) => handles.push(handle),
                Err(e) => {
                    // The threads already started unwind via the
                    // EngineGone sentinel once their reply senders are gone.
                    drop(reply_txs);
                    for h in handles {
                        let _ = h.join();
                    }
                    return Err(SimError::Spawn(format!("proc {p}: {e}")));
                }
            }
        }
        drop(req_tx);

        let engine = Engine::new(cfg, mem, sync, &self.labels, reply_txs.clone(), req_rx);
        let result = engine.run();
        // Unblock any still-parked threads so join cannot hang: dropping
        // the reply senders makes their next receive fail, unwinding them
        // via the EngineGone sentinel.
        drop(reply_txs);
        for h in handles {
            let _ = h.join();
        }
        result
    }
}

#[cfg(test)]
thread_local! {
    /// Test hook: `Machine::run` on this thread fails to start this
    /// processor's thread.
    static FAIL_SPAWN: std::cell::Cell<Option<usize>> = const { std::cell::Cell::new(None) };
}

/// Starts processor `p`'s thread running `f`.
fn spawn_proc(p: usize, f: impl FnOnce() + Send + 'static) -> std::io::Result<JoinHandle<()>> {
    #[cfg(test)]
    if FAIL_SPAWN.get() == Some(p) {
        return Err(std::io::Error::other("injected spawn failure"));
    }
    std::thread::Builder::new()
        .name(format!("sim-proc-{p}"))
        .stack_size(8 << 20)
        .spawn(f)
}

impl std::fmt::Debug for Machine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Machine")
            .field("nprocs", &self.cfg.nprocs)
            .field("allocs", &self.allocs.len())
            .field("locks", &self.locks.len())
            .field("barriers", &self.barriers.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicUsize, Ordering};

    use super::*;

    /// Counts the processor threads that have exited.
    struct Exits(Arc<AtomicUsize>);

    impl Drop for Exits {
        fn drop(&mut self) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }

    #[test]
    fn failed_spawn_returns_an_error_after_joining_started_threads() {
        let mut m = Machine::new(MachineConfig::origin2000(8)).unwrap();
        let b = m.barrier();
        let exits = Arc::new(AtomicUsize::new(0));
        let e = Arc::clone(&exits);
        FAIL_SPAWN.set(Some(5));
        let err = m
            .run(move |ctx| {
                let _exit = Exits(Arc::clone(&e));
                ctx.flush();
                ctx.barrier(b);
            })
            .unwrap_err();
        FAIL_SPAWN.set(None);
        assert_eq!(
            err,
            SimError::Spawn("proc 5: injected spawn failure".into())
        );
        assert_eq!(exits.load(Ordering::SeqCst), 5);
    }
}
