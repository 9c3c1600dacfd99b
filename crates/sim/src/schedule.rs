//! Seeded schedule-space exploration.
//!
//! The engine is bit-deterministic: same-virtual-time heap ties break by
//! processor id, lock grants and semaphore wakes are FIFO, and barrier
//! wake-ups run in processor order. That determinism is what makes results
//! cacheable — but it also means the happens-before sanitizer
//! ([`crate::sanitize`]) only ever observes *one* interleaving per
//! configuration, so a race that the default tie-break order happens to
//! mask is invisible.
//!
//! This module turns the engine into a schedule-space explorer in the
//! loom/shuttle tradition: a [`ScheduleConfig`] (`{seed, mode}`) installs a
//! perturber that injects randomized-but-deterministic decisions at the
//! engine's scheduling choice points:
//!
//! | choice point                 | default            | perturbed                       |
//! |------------------------------|--------------------|---------------------------------|
//! | same-time `(t, pid)` heap tie| lowest pid first   | seeded pick among the tied pids |
//! | lock grant on release        | FIFO (ticket order)| seeded pick among the waiters   |
//! | semaphore wake on post       | FIFO               | seeded pick among the waiters   |
//! | barrier wake sweep           | pid order          | seeded shuffle of the arrivals  |
//!
//! Every decision is made on the single coordinator thread, in the
//! engine's deterministic event-processing order, from a hand-rolled
//! [`SplitMix64`] stream — so a given `(program, config, seed)` replays
//! bit-identically, on any host, at any `--jobs` count. With
//! `cfg.schedule` unset every choice point takes its default column, so
//! the engine is byte-identical to an unperturbed build (pinned by test).
//!
//! [`ScheduleMode::Pct`] adds PCT-style priority scheduling: each
//! processor gets a seeded priority, choice points prefer the
//! highest-priority contender, and `k` seeded change points reassign a
//! random processor a fresh priority as the run progresses — the
//! bug-depth-directed strategy of Burckhardt et al.'s probabilistic
//! concurrency testing, adapted to a discrete-event engine.

use std::collections::VecDeque;

use crate::time::Ns;

/// How the perturber resolves scheduling choice points.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScheduleMode {
    /// Every choice point picks uniformly at random among the contenders.
    Random,
    /// PCT-style: choice points prefer the contender with the highest
    /// seeded priority; `change_points` seeded points along the run
    /// reassign a random processor a fresh priority.
    Pct {
        /// Number of seeded priority-change points.
        change_points: u32,
    },
}

/// Seeded schedule perturbation, set via `MachineConfig::schedule`.
///
/// `None` (the default) leaves the engine byte-identical to its
/// unperturbed behavior; `Some` makes the run a deterministic function of
/// the seed. Because perturbation changes simulated timings and
/// statistics, a set `schedule` joins
/// [`crate::config::MachineConfig::stable_fields`] (only when set, so
/// existing fingerprints and cached run keys stay valid).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScheduleConfig {
    /// Seed for the decision stream. Equal seeds replay bit-identically.
    pub seed: u64,
    /// Decision strategy.
    pub mode: ScheduleMode,
}

impl ScheduleConfig {
    /// Uniform-random perturbation from `seed`.
    pub fn random(seed: u64) -> Self {
        ScheduleConfig {
            seed,
            mode: ScheduleMode::Random,
        }
    }

    /// PCT-style priority perturbation from `seed` with `k` change points.
    pub fn pct(seed: u64, k: u32) -> Self {
        ScheduleConfig {
            seed,
            mode: ScheduleMode::Pct { change_points: k },
        }
    }
}

/// PCT priority changes are scheduled at seeded event indices drawn from
/// this horizon; runs shorter than the horizon simply see fewer changes.
const PCT_HORIZON: u64 = 1 << 16;

/// A SplitMix64 pseudo-random generator — the dependency-free seeded
/// stream behind the perturber. The output sequence for a given seed is
/// pinned forever (it is part of replay identity), like
/// [`crate::config::Fnv1a`].
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator whose stream is a pure function of `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    /// The next 64 pseudo-random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A value uniform in `0..n` (`n > 0`). The tiny modulo bias is
    /// irrelevant here — fairness is not required, determinism is.
    pub fn below(&mut self, n: usize) -> usize {
        debug_assert!(n > 0);
        (self.next_u64() % n as u64) as usize
    }
}

/// The engine-side decision maker. One per run, owned by the coordinator
/// thread; every method call consumes the seeded stream in deterministic
/// event order.
#[derive(Debug)]
pub(crate) struct Perturber {
    rng: SplitMix64,
    mode: ScheduleMode,
    /// Per-processor PCT priorities (higher wins). Unused in `Random`.
    prio: Vec<u64>,
    /// Remaining PCT change points, as sorted event indices (ascending).
    changes: Vec<u64>,
    /// Events processed so far (drives the change points).
    events: u64,
}

impl Perturber {
    pub fn new(cfg: ScheduleConfig, nprocs: usize) -> Self {
        let mut rng = SplitMix64::new(cfg.seed);
        let (prio, changes) = match cfg.mode {
            ScheduleMode::Random => (Vec::new(), Vec::new()),
            ScheduleMode::Pct { change_points } => {
                let prio = (0..nprocs).map(|_| rng.next_u64()).collect();
                let mut changes: Vec<u64> = (0..change_points)
                    .map(|_| rng.next_u64() % PCT_HORIZON)
                    .collect();
                // Descending, so firing points pop off the back in order.
                changes.sort_unstable_by(|a, b| b.cmp(a));
                (prio, changes)
            }
        };
        Perturber {
            rng,
            mode: cfg.mode,
            prio,
            changes,
            events: 0,
        }
    }

    /// Advances the event counter; in PCT mode, fires any due priority
    /// change points. Called once per processed engine event.
    pub fn tick(&mut self) {
        self.events += 1;
        while self.changes.last().is_some_and(|&c| c <= self.events) {
            self.changes.pop();
            let p = self.rng.below(self.prio.len().max(1));
            let fresh = self.rng.next_u64();
            if let Some(slot) = self.prio.get_mut(p) {
                *slot = fresh;
            }
        }
    }

    /// Picks the contender to run among processors tied at one virtual
    /// time, returning an index into `tied`.
    pub fn pick_tied(&mut self, tied: &[usize]) -> usize {
        self.pick_proc(tied.iter().copied(), tied.len())
    }

    /// Picks which waiter a lock release / semaphore post should grant,
    /// returning an index into the wait queue.
    pub fn pick_waiter(&mut self, queue: &VecDeque<(usize, Ns)>) -> usize {
        self.pick_proc(queue.iter().map(|&(p, _)| p), queue.len())
    }

    /// Seeded Fisher-Yates shuffle of a barrier's arrival sweep.
    pub fn shuffle(&mut self, arrivals: &mut [(usize, Ns)]) {
        for i in (1..arrivals.len()).rev() {
            let j = self.rng.below(i + 1);
            arrivals.swap(i, j);
        }
    }

    fn pick_proc(&mut self, procs: impl Iterator<Item = usize>, len: usize) -> usize {
        debug_assert!(len > 0);
        match self.mode {
            ScheduleMode::Random => self.rng.below(len),
            ScheduleMode::Pct { .. } => procs
                .enumerate()
                .max_by_key(|&(_, p)| self.prio.get(p).copied().unwrap_or(0))
                .map(|(i, _)| i)
                .unwrap_or(0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_stream_is_pinned() {
        // These values are persisted implicitly in every stored
        // schedule-exploration record: changing the generator would
        // silently re-map seeds to different interleavings.
        let mut r = SplitMix64::new(0);
        assert_eq!(r.next_u64(), 0xe220_a839_7b1d_cdaf);
        assert_eq!(r.next_u64(), 0x6e78_9e6a_a1b9_65f4);
        let mut r = SplitMix64::new(42);
        assert_eq!(r.next_u64(), 0xbdd7_3226_2feb_6e95);
    }

    #[test]
    fn below_is_in_range_and_deterministic() {
        let mut a = SplitMix64::new(7);
        let mut b = SplitMix64::new(7);
        for n in 1..50 {
            let x = a.below(n);
            assert!(x < n);
            assert_eq!(x, b.below(n));
        }
    }

    #[test]
    fn random_mode_picks_and_shuffles_deterministically() {
        let mk = || Perturber::new(ScheduleConfig::random(9), 4);
        let (mut a, mut b) = (mk(), mk());
        let tied = [3, 1, 2];
        for _ in 0..10 {
            let i = a.pick_tied(&tied);
            assert!(i < tied.len());
            assert_eq!(i, b.pick_tied(&tied));
        }
        let mut xs: Vec<(usize, Ns)> = (0..8).map(|p| (p, p as Ns)).collect();
        let mut ys = xs.clone();
        a.shuffle(&mut xs);
        b.shuffle(&mut ys);
        assert_eq!(xs, ys);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted.len(), 8, "shuffle is a permutation");
    }

    #[test]
    fn pct_mode_prefers_the_highest_priority_and_fires_changes() {
        let mut p = Perturber::new(ScheduleConfig::pct(3, 4), 4);
        let tied: Vec<usize> = (0..4).collect();
        let best = p.prio.iter().enumerate().max_by_key(|&(_, v)| v).unwrap().0;
        assert_eq!(p.pick_tied(&tied), best);
        // Same choice again: PCT consumes no randomness at choice points.
        assert_eq!(p.pick_tied(&tied), best);
        let before = p.prio.clone();
        for _ in 0..PCT_HORIZON {
            p.tick();
        }
        assert!(p.changes.is_empty(), "all change points fired");
        assert_ne!(before, p.prio, "a change point reassigned a priority");
    }

    #[test]
    fn waiter_pick_indexes_the_queue() {
        let mut p = Perturber::new(ScheduleConfig::random(1), 4);
        let q: VecDeque<(usize, Ns)> = [(2, 10), (0, 20)].into_iter().collect();
        for _ in 0..10 {
            assert!(p.pick_waiter(&q) < q.len());
        }
    }
}
