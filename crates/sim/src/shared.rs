//! Simulated shared memory holding real data.
//!
//! A [`SharedVec`] pairs host storage with a range of simulated addresses.
//! Applications read and write *real values* (so results are verifiable)
//! while every timed access is reported to the engine for cache, coherence
//! and contention simulation.
//!
//! # Safety model
//!
//! `SharedVec` uses interior mutability across threads, which run
//! concurrently between their engine requests (all of them at start and
//! after each barrier release). Host accesses are ordered by the simulated
//! synchronization: a lock, barrier, semaphore or fetch-add passes through
//! the request channel's send and receive and the engine's reply, and
//! those edges order the accesses it orders in virtual time. A program the
//! sanitizer reports as racy may see values that depend on host timing.

use std::cell::UnsafeCell;
use std::sync::Arc;

use crate::ctx::Ctx;
use crate::page::Addr;

/// Marker for element types storable in simulated shared memory.
///
/// Implemented for the plain-old-data types applications need. The trait is
/// sealed by construction (it has no methods and a blanket-usable set of
/// impls is provided here).
pub trait SimValue: Copy + Send + Sync + Default + 'static {}

impl SimValue for u8 {}
impl SimValue for u16 {}
impl SimValue for u32 {}
impl SimValue for u64 {}
impl SimValue for usize {}
impl SimValue for i8 {}
impl SimValue for i16 {}
impl SimValue for i32 {}
impl SimValue for i64 {}
impl SimValue for isize {}
impl SimValue for f32 {}
impl SimValue for f64 {}
impl SimValue for bool {}
impl<T: SimValue> SimValue for [T; 2] {}
impl<T: SimValue> SimValue for [T; 3] {}
impl<T: SimValue> SimValue for [T; 4] {}
impl<T: SimValue> SimValue for [T; 8] {}

struct SharedBuf<T> {
    cells: Box<[UnsafeCell<T>]>,
}

// SAFETY: accesses are ordered by simulated synchronization (module docs).
unsafe impl<T: Send + Sync> Sync for SharedBuf<T> {}
unsafe impl<T: Send + Sync> Send for SharedBuf<T> {}

/// A shared array in simulated memory.
///
/// Timed accessors ([`SharedVec::read`], [`SharedVec::write`]) report the
/// access to the engine; untimed accessors ([`SharedVec::get`],
/// [`SharedVec::set`]) are for setup and verification outside (or around)
/// the simulated region.
///
/// # Examples
///
/// ```
/// use ccnuma_sim::machine::{Machine, Placement};
/// use ccnuma_sim::config::MachineConfig;
/// let mut m = Machine::new(MachineConfig::origin2000_scaled(2, 64 << 10))?;
/// let v = m.shared_vec::<f64>(8, Placement::Blocked);
/// v.set(3, 2.5);
/// let v2 = v.clone();
/// let stats = m.run(move |ctx| {
///     if ctx.id() == 0 {
///         let x = v2.read(ctx, 3);
///         v2.write(ctx, 4, x * 2.0);
///     }
/// })?;
/// assert_eq!(v.get(4), 5.0);
/// assert!(stats.wall_ns > 0);
/// # Ok::<(), ccnuma_sim::error::SimError>(())
/// ```
pub struct SharedVec<T> {
    buf: Arc<SharedBuf<T>>,
    base: Addr,
}

impl<T> Clone for SharedVec<T> {
    fn clone(&self) -> Self {
        SharedVec {
            buf: Arc::clone(&self.buf),
            base: self.base,
        }
    }
}

impl<T: SimValue> SharedVec<T> {
    pub(crate) fn new(len: usize, base: Addr) -> Self {
        let cells: Vec<UnsafeCell<T>> = (0..len).map(|_| UnsafeCell::new(T::default())).collect();
        SharedVec {
            buf: Arc::new(SharedBuf {
                cells: cells.into_boxed_slice(),
            }),
            base,
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.buf.cells.len()
    }

    /// True if the vector has no elements.
    pub fn is_empty(&self) -> bool {
        self.buf.cells.is_empty()
    }

    /// Element size in simulated memory (the host size of `T`).
    pub fn stride(&self) -> u64 {
        std::mem::size_of::<T>().max(1) as u64
    }

    /// The simulated address of element `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn addr_of(&self, i: usize) -> Addr {
        assert!(
            i < self.len(),
            "index {i} out of bounds (len {})",
            self.len()
        );
        self.base + i as u64 * self.stride()
    }

    /// The simulated base address of the array.
    pub fn base_addr(&self) -> Addr {
        self.base
    }

    /// Total simulated byte length.
    pub fn byte_len(&self) -> u64 {
        self.len() as u64 * self.stride()
    }

    /// Timed read of element `i` by the calling processor.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    #[inline]
    pub fn read(&self, ctx: &Ctx, i: usize) -> T {
        ctx.record_read(self.addr_of(i), self.stride());
        unsafe { *self.buf.cells[i].get() }
    }

    /// Timed write of element `i` by the calling processor.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    #[inline]
    pub fn write(&self, ctx: &Ctx, i: usize, value: T) {
        ctx.record_write(self.addr_of(i), self.stride());
        unsafe { *self.buf.cells[i].get() = value }
    }

    /// Timed read-modify-write of element `i`.
    #[inline]
    pub fn update(&self, ctx: &Ctx, i: usize, f: impl FnOnce(T) -> T) {
        let v = self.read(ctx, i);
        self.write(ctx, i, f(v));
    }

    /// Untimed read (setup / verification).
    #[inline]
    pub fn get(&self, i: usize) -> T {
        unsafe { *self.buf.cells[i].get() }
    }

    /// Untimed write (setup / verification).
    #[inline]
    pub fn set(&self, i: usize, value: T) {
        unsafe { *self.buf.cells[i].get() = value }
    }

    /// Copies the contents into a host `Vec` (untimed).
    pub fn snapshot(&self) -> Vec<T> {
        (0..self.len()).map(|i| self.get(i)).collect()
    }

    /// Fills from a slice (untimed).
    ///
    /// # Panics
    ///
    /// Panics if `src.len() != self.len()`.
    pub fn copy_from_slice(&self, src: &[T]) {
        assert_eq!(src.len(), self.len(), "length mismatch");
        for (i, v) in src.iter().enumerate() {
            self.set(i, *v);
        }
    }

    /// Charges the timing of touching elements `start..start + n` for
    /// reading without transferring values (bulk traversal shorthand).
    pub fn touch_read(&self, ctx: &Ctx, start: usize, n: usize) {
        if n == 0 {
            return;
        }
        assert!(start + n <= self.len());
        ctx.record_read(self.addr_of(start), n as u64 * self.stride());
    }

    /// Charges the timing of writing elements `start..start + n` in bulk.
    pub fn touch_write(&self, ctx: &Ctx, start: usize, n: usize) {
        if n == 0 {
            return;
        }
        assert!(start + n <= self.len());
        ctx.record_write(self.addr_of(start), n as u64 * self.stride());
    }

    /// Issues software prefetches covering elements `start..start + n`
    /// (no-op when prefetch is disabled in the machine configuration).
    pub fn prefetch(&self, ctx: &Ctx, start: usize, n: usize) {
        if n == 0 {
            return;
        }
        assert!(start + n <= self.len());
        ctx.record_prefetch(self.addr_of(start), n as u64 * self.stride());
    }
}

impl<T: SimValue> std::fmt::Debug for SharedVec<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedVec")
            .field("base", &self.base)
            .field("len", &self.len())
            .finish()
    }
}
