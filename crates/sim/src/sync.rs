//! Synchronization object state machines (crate internal except for the
//! public handle types).
//!
//! The *timing* of synchronization (operation costs, line ping-pong,
//! invalidation storms) is charged by the engine through the memory system;
//! these structures track only the logical state: who holds a lock, who is
//! queued, who has arrived at a barrier.

use std::collections::VecDeque;

use crate::page::Addr;
use crate::time::Ns;

/// Handle to a simulated lock, created by
/// [`crate::machine::Machine::lock`]. Cheap to copy into application
/// closures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LockRef(pub(crate) u32);

/// Handle to a simulated barrier, created by
/// [`crate::machine::Machine::barrier`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BarrierRef(pub(crate) u32);

/// Handle to an atomic fetch&add cell, created by
/// [`crate::machine::Machine::fetch_cell`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FetchCellRef(pub(crate) u32);

/// Handle to a counting semaphore, created by
/// [`crate::machine::Machine::semaphore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SemRef(pub(crate) u32);

/// Lock state: holder plus FIFO (ticket-order) wait queue.
#[derive(Debug)]
pub(crate) struct LockState {
    pub addr: Addr,
    pub holder: Option<usize>,
    pub queue: VecDeque<(usize, Ns)>,
    pub acquires: u64,
}

impl LockState {
    pub fn new(addr: Addr) -> Self {
        LockState {
            addr,
            holder: None,
            queue: VecDeque::new(),
            acquires: 0,
        }
    }

    /// Attempts to acquire for `p`; on failure the processor is queued.
    pub fn acquire_or_enqueue(&mut self, p: usize, now: Ns) -> bool {
        if self.holder.is_none() {
            self.holder = Some(p);
            self.acquires += 1;
            true
        } else {
            self.queue.push_back((p, now));
            false
        }
    }

    /// Releases the lock, granting it to the waiter at queue index `idx`
    /// (who becomes holder), if any is queued: `0` is the FIFO
    /// (ticket-order) head; the schedule perturber picks others
    /// ([`crate::schedule`]).
    ///
    /// # Panics
    ///
    /// Panics if `p` is not the holder (an application bug worth failing
    /// loudly on) or `idx` is out of range.
    pub fn release(&mut self, p: usize, idx: usize) -> Option<(usize, Ns)> {
        assert_eq!(self.holder, Some(p), "unlock by non-holder {p}");
        match self.queue.remove(idx) {
            Some((next, arrived)) => {
                self.holder = Some(next);
                self.acquires += 1;
                Some((next, arrived))
            }
            None => {
                assert!(self.queue.is_empty(), "grant index {idx} out of range");
                self.holder = None;
                None
            }
        }
    }
}

/// Barrier state: arrivals accumulate until all participants are present.
#[derive(Debug)]
pub(crate) struct BarrierState {
    pub addr: Addr,
    pub participants: usize,
    pub arrived: Vec<(usize, Ns)>,
    pub episodes: u64,
}

impl BarrierState {
    pub fn new(addr: Addr, participants: usize) -> Self {
        BarrierState {
            addr,
            participants,
            arrived: Vec::new(),
            episodes: 0,
        }
    }

    /// Records an arrival; when `p` completes the episode, returns all
    /// arrivals (including `p`) and resets for the next episode.
    pub fn arrive(&mut self, p: usize, now: Ns) -> Option<Vec<(usize, Ns)>> {
        debug_assert!(
            !self.arrived.iter().any(|&(q, _)| q == p),
            "processor {p} arrived twice at one barrier episode"
        );
        self.arrived.push((p, now));
        if self.arrived.len() == self.participants {
            self.episodes += 1;
            Some(std::mem::take(&mut self.arrived))
        } else {
            None
        }
    }
}

/// Counting semaphore state.
#[derive(Debug)]
pub(crate) struct SemState {
    pub addr: Addr,
    pub count: i64,
    pub waiters: VecDeque<(usize, Ns)>,
}

impl SemState {
    pub fn new(addr: Addr, initial: i64) -> Self {
        SemState {
            addr,
            count: initial,
            waiters: VecDeque::new(),
        }
    }

    /// Attempts to decrement for `p`; on failure the processor is queued.
    pub fn wait_or_enqueue(&mut self, p: usize, now: Ns) -> bool {
        if self.count > 0 {
            self.count -= 1;
            true
        } else {
            self.waiters.push_back((p, now));
            false
        }
    }

    /// Adds `n` permits, returning the waiters that can now proceed, each
    /// chosen by `choose` (an index into the current queue): `|_| 0` wakes
    /// in FIFO order; the schedule perturber picks others
    /// ([`crate::schedule`]).
    pub fn post(
        &mut self,
        n: u32,
        mut choose: impl FnMut(&VecDeque<(usize, Ns)>) -> usize,
    ) -> Vec<(usize, Ns)> {
        self.count += i64::from(n);
        let mut woken = Vec::new();
        while self.count > 0 && !self.waiters.is_empty() {
            let idx = choose(&self.waiters);
            let w = self.waiters.remove(idx).expect("chosen index in range");
            self.count -= 1;
            woken.push(w);
        }
        woken
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lock_fifo_handoff() {
        let mut l = LockState::new(0);
        assert!(l.acquire_or_enqueue(0, 10));
        assert!(!l.acquire_or_enqueue(1, 20));
        assert!(!l.acquire_or_enqueue(2, 30));
        assert_eq!(l.release(0, 0), Some((1, 20)));
        assert_eq!(l.queue.len(), 1);
        assert_eq!(l.release(1, 0), Some((2, 30)));
        assert_eq!(l.release(2, 0), None);
        assert_eq!(l.acquires, 3);
        assert_eq!(l.holder, None);
    }

    #[test]
    #[should_panic(expected = "non-holder")]
    fn unlock_by_non_holder_panics() {
        let mut l = LockState::new(0);
        l.acquire_or_enqueue(0, 0);
        l.release(1, 0);
    }

    #[test]
    fn barrier_releases_when_full() {
        let mut b = BarrierState::new(0, 3);
        assert!(b.arrive(0, 5).is_none());
        assert!(b.arrive(2, 9).is_none());
        let all = b.arrive(1, 12).unwrap();
        assert_eq!(all, vec![(0, 5), (2, 9), (1, 12)]);
        assert_eq!(b.episodes, 1);
        // Next episode starts clean.
        assert!(b.arrive(1, 20).is_none());
    }

    #[test]
    fn lock_release_grants_chosen_waiter() {
        let mut l = LockState::new(0);
        assert!(l.acquire_or_enqueue(0, 10));
        assert!(!l.acquire_or_enqueue(1, 20));
        assert!(!l.acquire_or_enqueue(2, 30));
        // Grant the *second* waiter first; the skipped one stays queued.
        assert_eq!(l.release(0, 1), Some((2, 30)));
        assert_eq!(l.queue.len(), 1);
        assert_eq!(l.release(2, 0), Some((1, 20)));
        assert_eq!(l.release(1, 0), None);
        assert_eq!(l.acquires, 3);
        assert_eq!(l.holder, None);
    }

    #[test]
    fn semaphore_counts_and_wakes_fifo() {
        let mut s = SemState::new(0, 1);
        assert!(s.wait_or_enqueue(0, 1));
        assert!(!s.wait_or_enqueue(1, 2));
        assert!(!s.wait_or_enqueue(2, 3));
        assert_eq!(s.post(2, |_| 0), vec![(1, 2), (2, 3)]);
        assert_eq!(s.count, 0);
        // Permits beyond the queue accumulate.
        assert_eq!(s.post(1, |_| 0), vec![]);
        assert_eq!(s.count, 1);
    }

    #[test]
    fn semaphore_post_wakes_chosen_waiters() {
        let mut s = SemState::new(0, 0);
        assert!(!s.wait_or_enqueue(0, 1));
        assert!(!s.wait_or_enqueue(1, 2));
        assert!(!s.wait_or_enqueue(2, 3));
        // Wake back-of-queue first, then the (new) back again.
        let woken = s.post(2, |q| q.len() - 1);
        assert_eq!(woken, vec![(2, 3), (1, 2)]);
        assert_eq!(s.count, 0);
        assert_eq!(s.waiters.len(), 1);
    }
}
