//! Execution statistics: the per-processor Busy / Memory / Synchronization
//! breakdown that drives every figure in the paper, plus event counters.

use crate::attrib::{LatencyBreakdown, CAUSE_SLOTS};
use crate::contend::ResourceTotals;
use crate::time::Ns;

/// Counters and time accumulators for one simulated processor.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct ProcStats {
    /// Time spent computing.
    pub busy_ns: Ns,
    /// Stall time on cache misses (local + remote; the paper's "Memory").
    pub mem_ns: Ns,
    /// Of `mem_ns`, stall on accesses whose home was the local node.
    pub mem_local_ns: Ns,
    /// Of `mem_ns`, stall on remote accesses (what the Origin couldn't
    /// separate; §8 calls this the machine's greatest missing feature).
    pub mem_remote_ns: Ns,
    /// Waiting at synchronization events (lock queues, barrier arrival skew).
    pub sync_wait_ns: Ns,
    /// Overhead of synchronization operations themselves.
    pub sync_op_ns: Ns,
    /// Virtual time at which this processor finished.
    pub finish_ns: Ns,

    /// Reads issued (line-granular).
    pub reads: u64,
    /// Writes issued (line-granular).
    pub writes: u64,
    /// Cache hits.
    pub hits: u64,
    /// Misses satisfied by the local node's memory.
    pub misses_local: u64,
    /// Misses satisfied by a remote home with a clean copy (2-hop).
    pub misses_remote_clean: u64,
    /// Misses requiring intervention at a dirty third node (3-hop).
    pub misses_remote_dirty: u64,
    /// Write upgrades of Shared lines.
    pub upgrades: u64,
    /// Invalidations this processor's writes sent to other caches.
    pub invals_sent: u64,
    /// Dirty lines written back on eviction.
    pub writebacks: u64,
    /// Prefetches issued.
    pub prefetches: u64,
    /// Demand accesses that found their line still in flight from a
    /// prefetch (late prefetch: partial benefit).
    pub prefetch_late: u64,
    /// Lock acquisitions.
    pub lock_acquires: u64,
    /// Barrier episodes participated in.
    pub barriers: u64,
    /// fetch&op / atomic read-modify-writes performed.
    pub atomics: u64,
    /// Misses to lines this processor never cached before
    /// (only counted when `classify_misses` is enabled).
    pub misses_cold: u64,
    /// Misses caused by another processor's invalidation (ditto).
    pub misses_coherence: u64,
    /// Misses to lines this processor once cached and then evicted —
    /// capacity/conflict misses (ditto).
    pub misses_capacity: u64,
    /// Of `misses_capacity`, misses whose eviction left free lines in other
    /// sets — pure conflict (mapping) misses (ditto).
    pub misses_conflict: u64,
    /// Of `misses_coherence`, misses where the invalidating write touched
    /// only words this processor never accessed — false sharing (ditto).
    pub misses_false_share: u64,
    /// One-way network hops traversed by this processor's misses (divide by
    /// remote misses for the average distance to data).
    pub miss_hops: u64,
    /// Exact decomposition of `mem_ns` into per-resource service/queueing;
    /// `mem_breakdown.total() == mem_ns` always holds.
    pub mem_breakdown: LatencyBreakdown,
    /// `mem_ns` split by miss cause ([`MissCause::index`](crate::attrib::MissCause::index) slots, plus
    /// [`CAUSE_OTHER`](crate::attrib::CAUSE_OTHER) for hits/upgrades/unclassified stall).
    pub mem_cause_ns: [Ns; CAUSE_SLOTS],
}

impl ProcStats {
    /// Total synchronization time (wait + operation overhead).
    pub fn sync_ns(&self) -> Ns {
        self.sync_wait_ns + self.sync_op_ns
    }

    /// Total accounted time (busy + memory + sync).
    pub fn total_ns(&self) -> Ns {
        self.busy_ns + self.mem_ns + self.sync_ns()
    }

    /// Total line-granular accesses.
    pub fn accesses(&self) -> u64 {
        self.reads + self.writes
    }

    /// All misses.
    pub fn misses(&self) -> u64 {
        self.misses_local + self.misses_remote_clean + self.misses_remote_dirty
    }

    /// Classified miss counts by [`MissCause::index`](crate::attrib::MissCause::index) slot:
    /// `[cold, capacity (excl. conflict), conflict, coh-true, coh-false]`.
    /// All zeros unless `classify_misses` was enabled. The five slots sum
    /// to [`misses`](Self::misses) when classification was on.
    pub fn cause_counts(&self) -> [u64; 5] {
        [
            self.misses_cold,
            self.misses_capacity - self.misses_conflict,
            self.misses_conflict,
            self.misses_coherence - self.misses_false_share,
            self.misses_false_share,
        ]
    }

    /// The (busy, memory, sync) shares of this processor's time, in percent.
    /// Returns zeros for an idle processor.
    pub fn breakdown_pct(&self) -> (f64, f64, f64) {
        let total = self.total_ns() as f64;
        if total == 0.0 {
            return (0.0, 0.0, 0.0);
        }
        (
            100.0 * self.busy_ns as f64 / total,
            100.0 * self.mem_ns as f64 / total,
            100.0 * self.sync_ns() as f64 / total,
        )
    }

    /// This processor's times so far, in the per-phase shape; the time
    /// charged between two readings is their difference.
    pub fn times(&self) -> PhaseBreakdown {
        PhaseBreakdown {
            busy_ns: self.busy_ns,
            mem_ns: self.mem_ns,
            mem_local_ns: self.mem_local_ns,
            mem_remote_ns: self.mem_remote_ns,
            sync_wait_ns: self.sync_wait_ns,
            sync_op_ns: self.sync_op_ns,
            mem_breakdown: self.mem_breakdown,
            mem_cause_ns: self.mem_cause_ns,
        }
    }

    /// Machine-wide totals: every counter and time of `procs` summed
    /// (`finish_ns` too, so it is processor time, not the wall clock).
    pub(crate) fn sum(procs: &[ProcStats]) -> ProcStats {
        let mut t = ProcStats::default();
        for p in procs {
            t.busy_ns += p.busy_ns;
            t.mem_ns += p.mem_ns;
            t.mem_local_ns += p.mem_local_ns;
            t.mem_remote_ns += p.mem_remote_ns;
            t.sync_wait_ns += p.sync_wait_ns;
            t.sync_op_ns += p.sync_op_ns;
            t.finish_ns += p.finish_ns;
            t.reads += p.reads;
            t.writes += p.writes;
            t.hits += p.hits;
            t.misses_local += p.misses_local;
            t.misses_remote_clean += p.misses_remote_clean;
            t.misses_remote_dirty += p.misses_remote_dirty;
            t.upgrades += p.upgrades;
            t.invals_sent += p.invals_sent;
            t.writebacks += p.writebacks;
            t.prefetches += p.prefetches;
            t.prefetch_late += p.prefetch_late;
            t.lock_acquires += p.lock_acquires;
            t.barriers += p.barriers;
            t.atomics += p.atomics;
            t.misses_cold += p.misses_cold;
            t.misses_coherence += p.misses_coherence;
            t.misses_capacity += p.misses_capacity;
            t.misses_conflict += p.misses_conflict;
            t.misses_false_share += p.misses_false_share;
            t.miss_hops += p.miss_hops;
            t.mem_breakdown.add(&p.mem_breakdown);
            for (slot, ns) in t.mem_cause_ns.iter_mut().zip(&p.mem_cause_ns) {
                *slot += ns;
            }
        }
        t
    }
}

/// One processor's time slice within one named phase. The same identity
/// as [`ProcStats`] holds per phase: `busy + mem + sync` partitions the
/// processor's time spent inside the phase.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PhaseBreakdown {
    /// Time spent computing.
    pub busy_ns: Ns,
    /// Stall time on cache misses.
    pub mem_ns: Ns,
    /// Of `mem_ns`, stall on local-home accesses.
    pub mem_local_ns: Ns,
    /// Of `mem_ns`, stall on remote accesses.
    pub mem_remote_ns: Ns,
    /// Waiting at synchronization events.
    pub sync_wait_ns: Ns,
    /// Overhead of synchronization operations themselves.
    pub sync_op_ns: Ns,
    /// Exact per-resource service/queueing decomposition of `mem_ns`.
    pub mem_breakdown: LatencyBreakdown,
    /// `mem_ns` split by miss cause (see
    /// [`ProcStats::mem_cause_ns`]).
    pub mem_cause_ns: [Ns; CAUSE_SLOTS],
}

impl PhaseBreakdown {
    /// Total synchronization time (wait + operation overhead).
    pub fn sync_ns(&self) -> Ns {
        self.sync_wait_ns + self.sync_op_ns
    }

    /// Total time spent in the phase.
    pub fn total_ns(&self) -> Ns {
        self.busy_ns + self.mem_ns + self.sync_ns()
    }

    /// Accumulates another breakdown into this one.
    pub fn add(&mut self, o: &PhaseBreakdown) {
        self.busy_ns += o.busy_ns;
        self.mem_ns += o.mem_ns;
        self.mem_local_ns += o.mem_local_ns;
        self.mem_remote_ns += o.mem_remote_ns;
        self.sync_wait_ns += o.sync_wait_ns;
        self.sync_op_ns += o.sync_op_ns;
        self.mem_breakdown.add(&o.mem_breakdown);
        for i in 0..CAUSE_SLOTS {
            self.mem_cause_ns[i] += o.mem_cause_ns[i];
        }
    }

    /// The time charged between an `earlier` reading of the same
    /// processor's [`ProcStats::times`] and this one.
    pub(crate) fn since(&self, earlier: &PhaseBreakdown) -> PhaseBreakdown {
        let mut d = *self;
        d.busy_ns -= earlier.busy_ns;
        d.mem_ns -= earlier.mem_ns;
        d.mem_local_ns -= earlier.mem_local_ns;
        d.mem_remote_ns -= earlier.mem_remote_ns;
        d.sync_wait_ns -= earlier.sync_wait_ns;
        d.sync_op_ns -= earlier.sync_op_ns;
        d.mem_breakdown.sub(&earlier.mem_breakdown);
        for i in 0..CAUSE_SLOTS {
            d.mem_cause_ns[i] -= earlier.mem_cause_ns[i];
        }
        d
    }
}

/// Per-processor time breakdown for one named application phase
/// (demarcated with [`Ctx::phase`](crate::ctx::Ctx::phase)).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseStats {
    /// Phase name; time before the first marker lands in `"main"`.
    pub name: String,
    /// Per-processor breakdowns, indexed by process id.
    pub procs: Vec<PhaseBreakdown>,
}

impl PhaseStats {
    /// Sum of all processors' breakdowns for this phase.
    pub fn total(&self) -> PhaseBreakdown {
        let mut t = PhaseBreakdown::default();
        for p in &self.procs {
            t.add(p);
        }
        t
    }

    /// The (busy, memory, sync) shares of the phase's aggregate time, in
    /// percent; zeros if no time was spent in the phase.
    pub fn breakdown_pct(&self) -> (f64, f64, f64) {
        let t = self.total();
        let total = t.total_ns() as f64;
        if total == 0.0 {
            return (0.0, 0.0, 0.0);
        }
        (
            100.0 * t.busy_ns as f64 / total,
            100.0 * t.mem_ns as f64 / total,
            100.0 * t.sync_ns() as f64 / total,
        )
    }
}

/// Result of one simulated run.
///
/// `PartialEq` compares every field — two runs of the same program on the
/// same configuration are expected to compare equal bit-for-bit (see the
/// determinism note in the crate docs); the sweep engine's replay audit
/// relies on this.
#[derive(Debug, Clone, PartialEq)]
pub struct RunStats {
    /// Per-processor statistics, indexed by process id.
    pub procs: Vec<ProcStats>,
    /// Wall-clock of the run: the latest processor finish time.
    pub wall_ns: Ns,
    /// Engine events processed (requests dispatched in virtual-time
    /// order). Deterministic for a given program and configuration, so
    /// `host time / events` gives a stable ns-per-event throughput
    /// measure (`bench perf` gates on it).
    pub events: u64,
    /// Pages migrated by the dynamic migration policy.
    pub page_migrations: u64,
    /// Aggregate occupancy/wait per resource class:
    /// hubs, memories, routers, metarouters.
    pub resources: [ResourceTotals; 4],
    /// Per-label profiles for allocations made with
    /// [`Machine::shared_vec_labeled`](crate::machine::Machine::shared_vec_labeled).
    /// Empty when nothing was labelled — and therefore also empty whenever
    /// range profiling is effectively disabled for the run, since profiling
    /// only happens for labelled allocations.
    pub ranges: Vec<crate::profile::RangeProfile>,
    /// Per-phase time breakdowns, in first-use order; phase `0` is the
    /// implicit `"main"` phase. Always collected (phase accounting is
    /// cheap); a run that never calls `ctx.phase` has the single `"main"`
    /// entry.
    pub phases: Vec<PhaseStats>,
    /// The time-resolved event trace, when
    /// [`TraceConfig::enabled`](crate::trace::TraceConfig) was set.
    pub trace: Option<crate::trace::Trace>,
    /// Findings of the happens-before sanitizer, when `cfg.sanitize` was
    /// enabled. Purely observational: two runs differing only in this
    /// field had identical simulated timing.
    pub sanitize: Option<crate::sanitize::SanitizeReport>,
    /// Critical-path analysis, when `cfg.critpath` was enabled. Purely
    /// observational, like `sanitize`: two runs differing only in this
    /// field had identical simulated timing.
    pub critpath: Option<crate::critpath::CritReport>,
}

impl RunStats {
    /// Number of processors in the run.
    pub fn nprocs(&self) -> usize {
        self.procs.len()
    }

    /// Machine-wide average breakdown in percent (busy, memory, sync),
    /// averaging each processor's shares as the paper's Figure 3 does.
    pub fn avg_breakdown_pct(&self) -> (f64, f64, f64) {
        let n = self.procs.len().max(1) as f64;
        let (mut b, mut m, mut s) = (0.0, 0.0, 0.0);
        for p in &self.procs {
            let (pb, pm, ps) = p.breakdown_pct();
            b += pb;
            m += pm;
            s += ps;
        }
        (b / n, m / n, s / n)
    }

    /// Reads a counter, or a sum of counters, off the machine-wide totals
    /// (every processor's counters summed).
    pub fn total<F: Fn(&ProcStats) -> u64>(&self, f: F) -> u64 {
        f(&ProcStats::sum(&self.procs))
    }

    /// Looks up a phase by name (e.g. `stats.phase("force-calc")`).
    pub fn phase(&self, name: &str) -> Option<&PhaseStats> {
        self.phases.iter().find(|p| p.name == name)
    }

    /// Machine-wide memory-stall decomposition: the sum of every
    /// processor's [`ProcStats::mem_breakdown`]. Its `total()` equals the
    /// summed `mem_ns` exactly.
    pub fn mem_breakdown(&self) -> LatencyBreakdown {
        ProcStats::sum(&self.procs).mem_breakdown
    }

    /// Machine-wide classified miss counts by [`MissCause::index`](crate::attrib::MissCause::index) slot
    /// (all zeros unless `classify_misses` was enabled).
    pub fn cause_counts(&self) -> [u64; 5] {
        ProcStats::sum(&self.procs).cause_counts()
    }

    /// Machine-wide memory stall by cause slot (the five [`MissCause`](crate::attrib::MissCause)s
    /// plus [`CAUSE_OTHER`](crate::attrib::CAUSE_OTHER)); sums to the machine's total `mem_ns`.
    pub fn cause_stall_ns(&self) -> [Ns; CAUSE_SLOTS] {
        ProcStats::sum(&self.procs).mem_cause_ns
    }

    /// Average one-way network hops per miss — the run's distance-to-data
    /// (local misses count as 0 hops). 0.0 when there were no misses.
    pub fn avg_miss_hops(&self) -> f64 {
        let m = ProcStats::sum(&self.procs);
        if m.misses() == 0 {
            return 0.0;
        }
        m.miss_hops as f64 / m.misses() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn proc(busy: Ns, mem: Ns, sync: Ns) -> ProcStats {
        ProcStats {
            busy_ns: busy,
            mem_ns: mem,
            sync_wait_ns: sync,
            ..Default::default()
        }
    }

    #[test]
    fn breakdown_sums_to_100() {
        let p = proc(50, 30, 20);
        let (b, m, s) = p.breakdown_pct();
        assert!((b + m + s - 100.0).abs() < 1e-9);
        assert_eq!(b, 50.0);
    }

    #[test]
    fn idle_proc_breakdown_is_zero() {
        assert_eq!(ProcStats::default().breakdown_pct(), (0.0, 0.0, 0.0));
    }

    #[test]
    fn avg_breakdown_averages_shares_not_times() {
        // One proc all-busy of 10ns, one proc all-sync of 1000ns: average of
        // *shares* is 50/0/50 regardless of magnitudes.
        let rs = RunStats {
            procs: vec![proc(10, 0, 0), proc(0, 0, 1000)],
            wall_ns: 1000,
            events: 0,
            page_migrations: 0,
            resources: Default::default(),
            ranges: Vec::new(),
            phases: Vec::new(),
            trace: None,
            sanitize: None,
            critpath: None,
        };
        let (b, m, s) = rs.avg_breakdown_pct();
        assert_eq!((b, m, s), (50.0, 0.0, 50.0));
    }

    #[test]
    fn totals_sum_counters() {
        let a = ProcStats {
            reads: 3,
            ..Default::default()
        };
        let b = ProcStats {
            reads: 4,
            ..Default::default()
        };
        let rs = RunStats {
            procs: vec![a, b],
            wall_ns: 0,
            events: 0,
            page_migrations: 0,
            resources: Default::default(),
            ranges: Vec::new(),
            phases: Vec::new(),
            trace: None,
            sanitize: None,
            critpath: None,
        };
        assert_eq!(rs.total(|p| p.reads), 7);
    }

    #[test]
    fn phase_lookup_finds_by_name() {
        let ph = |name: &str, busy: Ns| PhaseStats {
            name: name.into(),
            procs: vec![PhaseBreakdown {
                busy_ns: busy,
                ..Default::default()
            }],
        };
        let rs = RunStats {
            procs: vec![ProcStats::default()],
            wall_ns: 0,
            events: 0,
            page_migrations: 0,
            resources: Default::default(),
            ranges: Vec::new(),
            phases: vec![ph("main", 10), ph("solve", 90)],
            trace: None,
            sanitize: None,
            critpath: None,
        };
        assert_eq!(rs.phase("solve").unwrap().total().busy_ns, 90);
        assert_eq!(rs.phase("main").unwrap().procs.len(), 1);
        assert!(rs.phase("missing").is_none());
    }

    #[test]
    fn cause_counts_split_subset_counters() {
        let p = ProcStats {
            misses_cold: 3,
            misses_capacity: 10,
            misses_conflict: 4,
            misses_coherence: 7,
            misses_false_share: 2,
            ..Default::default()
        };
        assert_eq!(p.cause_counts(), [3, 6, 4, 5, 2]);
        let rs = RunStats {
            procs: vec![p.clone(), p],
            wall_ns: 0,
            events: 0,
            page_migrations: 0,
            resources: Default::default(),
            ranges: Vec::new(),
            phases: Vec::new(),
            trace: None,
            sanitize: None,
            critpath: None,
        };
        assert_eq!(rs.cause_counts(), [6, 12, 8, 10, 4]);
        assert_eq!(rs.cause_counts().iter().sum::<u64>(), 2 * (3 + 10 + 7));
    }

    #[test]
    fn run_breakdown_and_hops_aggregate() {
        let mut p = ProcStats {
            mem_ns: 100,
            misses_local: 2,
            misses_remote_clean: 2,
            miss_hops: 8,
            ..Default::default()
        };
        p.mem_breakdown.queue[0] = 60;
        p.mem_breakdown.other_ns = 40;
        let rs = RunStats {
            procs: vec![p.clone(), p],
            wall_ns: 0,
            events: 0,
            page_migrations: 0,
            resources: Default::default(),
            ranges: Vec::new(),
            phases: Vec::new(),
            trace: None,
            sanitize: None,
            critpath: None,
        };
        assert_eq!(rs.mem_breakdown().total(), rs.total(|p| p.mem_ns));
        assert_eq!(rs.mem_breakdown().queue_total(), 120);
        assert!((rs.avg_miss_hops() - 2.0).abs() < 1e-12);
        assert_eq!(
            RunStats {
                procs: vec![],
                wall_ns: 0,
                events: 0,
                page_migrations: 0,
                resources: Default::default(),
                ranges: Vec::new(),
                phases: Vec::new(),
                trace: None,
                sanitize: None,
                critpath: None,
            }
            .avg_miss_hops(),
            0.0
        );
    }

    #[test]
    fn phase_breakdown_totals_and_shares() {
        let b = PhaseBreakdown {
            busy_ns: 50,
            mem_ns: 30,
            mem_local_ns: 10,
            mem_remote_ns: 20,
            sync_wait_ns: 15,
            sync_op_ns: 5,
            ..Default::default()
        };
        assert_eq!(b.sync_ns(), 20);
        assert_eq!(b.total_ns(), 100);
        let ph = PhaseStats {
            name: "p".into(),
            procs: vec![b, b],
        };
        assert_eq!(ph.total().total_ns(), 200);
        let (bu, me, sy) = ph.breakdown_pct();
        assert!((bu - 50.0).abs() < 1e-9 && (me - 30.0).abs() < 1e-9 && (sy - 20.0).abs() < 1e-9);
        assert_eq!(
            PhaseStats {
                name: "e".into(),
                procs: vec![]
            }
            .breakdown_pct(),
            (0.0, 0.0, 0.0)
        );
    }
}
