//! Engine ↔ processor-thread protocol (crate internal).
//!
//! Application threads send each engine-visible action as a [`Request`]
//! on one shared channel. The engine sends a [`Reply`] to a request if and
//! only if its `wait` is set, once the action completes in virtual time;
//! a request without it is posted, and its thread runs on.

use crate::page::Addr;
use crate::time::Ns;

/// Kind of a buffered memory operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum OpKind {
    Read,
    Write,
    Prefetch,
}

/// One buffered memory operation (possibly spanning multiple lines).
#[derive(Debug, Clone, Copy)]
pub(crate) struct MemOp {
    pub addr: Addr,
    pub bytes: u64,
    pub kind: OpKind,
}

/// A request from an application thread to the engine: the busy time
/// accumulated since the previous request and the buffered memory
/// operations, both applied first, then the `action`. When the sanitizer
/// is enabled, `san` holds the exact (uncoalesced) byte footprints of
/// `ops`, so race detection never sees the covering merges the timing
/// stream makes (empty when sanitizing is off).
#[derive(Debug)]
pub(crate) struct Request {
    pub busy: Ns,
    pub ops: Vec<MemOp>,
    pub san: Vec<MemOp>,
    pub action: Action,
    /// Whether the thread waits for a [`Reply`]; only this decides whether
    /// the engine sends one. Actions that can block always set it.
    pub wait: bool,
}

/// What a [`Request`] asks of the engine once its buffered work is
/// applied. Ids index the run's lock, barrier, fetch-cell and semaphore
/// tables.
#[derive(Debug)]
pub(crate) enum Action {
    /// Nothing more: the request only flushes buffered work.
    Flush,
    /// Start the named application phase; the buffered work is charged
    /// to the previous phase.
    Phase(String),
    /// Acquire a lock (blocks until granted).
    Lock(usize),
    /// Release a lock.
    Unlock(usize),
    /// Arrive at a barrier.
    Barrier(usize),
    /// Atomically add to a fetch cell; the reply carries the prior value.
    FetchAdd(usize, i64),
    /// Decrement a semaphore, blocking while it is zero.
    SemWait(usize),
    /// Increment a semaphore by `n`, waking blocked waiters.
    SemPost(usize, u32),
    /// The application body returned.
    Finish,
    /// The application body panicked; the engine aborts the run.
    Panic(String),
}

/// Engine reply unblocking a thread. `value` is meaningful only for
/// [`Action::FetchAdd`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct Reply {
    pub value: i64,
}

/// Sentinel panic payload used to silently unwind application threads when
/// the engine has already terminated (deadlock or a peer's panic). The
/// quiet panic hook suppresses its default backtrace output.
pub(crate) struct EngineGone;
