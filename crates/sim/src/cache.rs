//! Per-processor second-level cache model.
//!
//! A set-associative, write-back cache with LRU replacement, tracking MESI
//! line states. The cache holds no data — application data lives in host
//! memory behind [`crate::shared::SharedVec`] — only tags, states and a
//! `ready_at` timestamp used to model in-flight prefetches.

use crate::config::CacheConfig;
use crate::page::Addr;
use crate::time::Ns;

/// MESI state of a cached line.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum LineState {
    /// Present, read-only, possibly shared with other caches.
    Shared,
    /// Present, clean, and the only cached copy.
    Exclusive,
    /// Present, dirty, and the only cached copy.
    Modified,
}

/// What fell out of the cache when a new line was inserted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Evicted {
    /// The line address (byte address >> line shift).
    pub line: u64,
    /// State the victim was in; `Modified` victims must be written back.
    pub state: LineState,
}

#[derive(Debug, Clone, Copy)]
struct Way {
    line: u64,
    state: LineState,
    /// Virtual time at which the line's data is actually available
    /// (later than insertion time for prefetched lines).
    ready_at: Ns,
    /// Monotone use stamp for LRU.
    stamp: u64,
}

/// A set-associative write-back cache.
///
/// # Examples
///
/// ```
/// use ccnuma_sim::cache::{Cache, LineState};
/// use ccnuma_sim::config::CacheConfig;
/// let mut c = Cache::new(CacheConfig { size_bytes: 1024, assoc: 2, line_bytes: 64 });
/// assert!(c.state_of(0).is_none());
/// c.insert(0, LineState::Exclusive, 0);
/// assert_eq!(c.state_of(0), Some(LineState::Exclusive));
/// ```
#[derive(Debug)]
pub struct Cache {
    n_sets: usize,
    assoc: usize,
    ways: Vec<Option<Way>>,
    /// Valid ways, kept as a count so [`Cache::occupancy`] scans nothing.
    occupied: usize,
    clock: u64,
}

impl Cache {
    /// Creates an empty cache with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry has zero sets or ways, or a non-power-of-two
    /// set count.
    pub fn new(cfg: CacheConfig) -> Self {
        let n_sets = cfg.n_sets();
        assert!(n_sets > 0 && cfg.assoc > 0, "cache must have sets and ways");
        assert!(n_sets.is_power_of_two(), "set count must be a power of two");
        Cache {
            n_sets,
            assoc: cfg.assoc,
            ways: vec![None; n_sets * cfg.assoc],
            occupied: 0,
            clock: 0,
        }
    }

    #[inline]
    fn set_range(&self, line: u64) -> std::ops::Range<usize> {
        let set = (line as usize) & (self.n_sets - 1);
        set * self.assoc..(set + 1) * self.assoc
    }

    /// Current state of `line`, if cached. Does not touch LRU.
    pub fn state_of(&self, line: u64) -> Option<LineState> {
        self.ways[self.set_range(line)]
            .iter()
            .flatten()
            .find(|w| w.line == line)
            .map(|w| w.state)
    }

    /// Looks up `line` for an access at `now`, updating LRU. Returns the
    /// state and the residual wait (nonzero when a prefetched line is still
    /// in flight).
    pub fn lookup(&mut self, line: u64, now: Ns) -> Option<(LineState, Ns)> {
        self.clock += 1;
        let clock = self.clock;
        let range = self.set_range(line);
        for w in self.ways[range].iter_mut().flatten() {
            if w.line == line {
                w.stamp = clock;
                let wait = w.ready_at.saturating_sub(now);
                w.ready_at = w.ready_at.min(now);
                return Some((w.state, wait));
            }
        }
        None
    }

    /// Promotes a cached line to `Modified` (write hit on E or M, or
    /// completion of an upgrade on S).
    ///
    /// # Panics
    ///
    /// Panics if the line is not cached.
    pub fn set_modified(&mut self, line: u64) {
        let range = self.set_range(line);
        for w in self.ways[range].iter_mut().flatten() {
            if w.line == line {
                w.state = LineState::Modified;
                return;
            }
        }
        panic!("set_modified on uncached line {line:#x}");
    }

    /// Inserts `line` with `state`, evicting the LRU way if the set is full.
    /// `ready_at` is when the fill completes (used by prefetch).
    pub fn insert(&mut self, line: u64, state: LineState, ready_at: Ns) -> Option<Evicted> {
        self.clock += 1;
        let clock = self.clock;
        let range = self.set_range(line);
        // Already present (e.g. prefetch raced with demand): update in place.
        for w in self.ways[range.clone()].iter_mut().flatten() {
            if w.line == line {
                w.state = state;
                w.ready_at = ready_at;
                w.stamp = clock;
                return None;
            }
        }
        // Empty way?
        let set = &mut self.ways[range];
        if let Some(slot) = set.iter_mut().find(|w| w.is_none()) {
            *slot = Some(Way {
                line,
                state,
                ready_at,
                stamp: clock,
            });
            self.occupied += 1;
            return None;
        }
        // Evict LRU.
        let victim_idx = set
            .iter()
            .enumerate()
            .min_by_key(|(_, w)| w.as_ref().map(|w| w.stamp).unwrap_or(0))
            .map(|(i, _)| i)
            .expect("nonempty set");
        let old = set[victim_idx]
            .replace(Way {
                line,
                state,
                ready_at,
                stamp: clock,
            })
            .unwrap();
        Some(Evicted {
            line: old.line,
            state: old.state,
        })
    }

    /// Downgrades `line` to `Shared` (another cache read our M/E copy).
    /// No-op if the line is not present.
    pub fn downgrade(&mut self, line: u64) {
        let range = self.set_range(line);
        for w in self.ways[range].iter_mut().flatten() {
            if w.line == line {
                w.state = LineState::Shared;
                return;
            }
        }
    }

    /// Invalidates `line`. Returns `true` if the copy was `Modified` (its
    /// data is transferred to the requester, not written back).
    pub fn invalidate(&mut self, line: u64) -> bool {
        let range = self.set_range(line);
        for slot in self.ways[range].iter_mut() {
            if let Some(w) = slot {
                if w.line == line {
                    let was_dirty = w.state == LineState::Modified;
                    *slot = None;
                    self.occupied -= 1;
                    return was_dirty;
                }
            }
        }
        false
    }

    /// Number of valid lines currently cached.
    pub fn occupancy(&self) -> usize {
        self.occupied
    }

    /// Total line capacity (sets × associativity). An eviction while
    /// `occupancy() < capacity_lines()` is a *conflict* (set pressure with
    /// room elsewhere); at full occupancy it is a *capacity* eviction.
    pub fn capacity_lines(&self) -> usize {
        self.ways.len()
    }

    /// All resident lines and their states (validation and debugging).
    pub fn resident_lines(&self) -> Vec<(u64, LineState)> {
        self.ways
            .iter()
            .flatten()
            .map(|w| (w.line, w.state))
            .collect()
    }
}

/// Byte address → line address given a line size.
#[inline]
pub fn line_of(addr: Addr, line_shift: u32) -> u64 {
    addr >> line_shift
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Cache {
        // 2 sets × 2 ways, 64-byte lines.
        Cache::new(CacheConfig {
            size_bytes: 256,
            assoc: 2,
            line_bytes: 64,
        })
    }

    #[test]
    fn miss_then_hit() {
        let mut c = small();
        assert!(c.lookup(5, 0).is_none());
        c.insert(5, LineState::Shared, 0);
        assert_eq!(c.lookup(5, 0), Some((LineState::Shared, 0)));
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = small();
        // Lines 0, 2, 4 map to set 0 (even lines).
        c.insert(0, LineState::Shared, 0);
        c.insert(2, LineState::Shared, 0);
        c.lookup(0, 0); // touch 0 so 2 becomes LRU
        let ev = c.insert(4, LineState::Shared, 0).unwrap();
        assert_eq!(ev.line, 2);
        assert!(c.state_of(0).is_some());
        assert!(c.state_of(2).is_none());
    }

    #[test]
    fn dirty_eviction_reports_modified() {
        let mut c = small();
        c.insert(0, LineState::Modified, 0);
        c.insert(2, LineState::Shared, 0);
        c.insert(4, LineState::Shared, 0); // evicts 0 (LRU)
        let ev = c.insert(6, LineState::Exclusive, 0);
        // First insert of 4 evicted line 0 (Modified).
        // We verify through a fresh sequence instead:
        let mut c = small();
        c.insert(0, LineState::Modified, 0);
        c.insert(2, LineState::Shared, 0);
        let ev2 = c.insert(4, LineState::Shared, 0).unwrap();
        assert_eq!(ev2.state, LineState::Modified);
        let _ = ev;
    }

    #[test]
    fn invalidate_reports_dirtiness() {
        let mut c = small();
        c.insert(0, LineState::Modified, 0);
        c.insert(1, LineState::Shared, 0);
        assert!(c.invalidate(0));
        assert!(!c.invalidate(1));
        assert!(!c.invalidate(99)); // absent
        assert_eq!(c.occupancy(), 0);
    }

    #[test]
    fn downgrade_makes_shared() {
        let mut c = small();
        c.insert(0, LineState::Modified, 0);
        c.downgrade(0);
        assert_eq!(c.state_of(0), Some(LineState::Shared));
        c.downgrade(42); // absent: no-op
    }

    #[test]
    fn prefetch_ready_time_reports_residual_wait() {
        let mut c = small();
        c.insert(0, LineState::Shared, 500);
        let (_, wait) = c.lookup(0, 200).unwrap();
        assert_eq!(wait, 300);
        // After the first (waited) access, the line is ready.
        let (_, wait) = c.lookup(0, 200).unwrap();
        assert_eq!(wait, 0);
    }

    #[test]
    fn set_modified_on_upgrade() {
        let mut c = small();
        c.insert(3, LineState::Shared, 0);
        c.set_modified(3);
        assert_eq!(c.state_of(3), Some(LineState::Modified));
    }

    #[test]
    #[should_panic(expected = "uncached")]
    fn set_modified_uncached_panics() {
        small().set_modified(7);
    }
}
