//! Miss-cause classification and contention attribution.
//!
//! The paper never stops at "memory stall is large": every scaling anomaly
//! is explained by *which kind* of miss dominates (cold / capacity /
//! conflict vs. coherence, true vs. false sharing) and *where* the latency
//! is spent (Hub, memory bank, directory, network — occupancy vs. raw
//! transit). This module holds the vocabulary for that causal layer:
//!
//! * [`MissCause`] — the five-way miss taxonomy, including true/false
//!   sharing split by per-word access footprints on invalidated lines.
//! * [`ResourceClass`] — the four resource buckets every nanosecond of a
//!   serviced access is attributed to.
//! * [`LatencyBreakdown`] — the exact (service, queueing) split of one
//!   access's latency per resource; the sum always equals the latency
//!   charged to the processor, to the nanosecond.
//!
//! The memory system fills these in ([`crate::memsys::Outcome`]), the
//! engine accumulates them into [`crate::stats::ProcStats`] and per-phase
//! slices, and the study crates render the paper-style tables.

use crate::page::Addr;
use crate::time::Ns;

/// Why an L2 miss happened — the full taxonomy the paper's analysis uses
/// (tracked only when
/// [`MachineConfig::classify_misses`](crate::config::MachineConfig::classify_misses)
/// is set).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MissCause {
    /// First access to this line by this processor.
    Cold,
    /// The line was evicted while the whole cache was full.
    Capacity,
    /// The line was evicted from a full set while other sets had room
    /// (mapping pressure, not size pressure).
    Conflict,
    /// Invalidated by another processor's write to words this processor
    /// actually accessed — communication the algorithm asked for.
    CoherenceTrueShare,
    /// Invalidated by a write to *different* words of the same line —
    /// an artifact of line granularity (the paper's padding discussion).
    CoherenceFalseShare,
}

impl MissCause {
    /// All causes, in reporting order.
    pub const ALL: [MissCause; 5] = [
        MissCause::Cold,
        MissCause::Capacity,
        MissCause::Conflict,
        MissCause::CoherenceTrueShare,
        MissCause::CoherenceFalseShare,
    ];

    /// Stable index into per-cause arrays (see [`CAUSE_SLOTS`]).
    #[inline]
    pub const fn index(self) -> usize {
        match self {
            MissCause::Cold => 0,
            MissCause::Capacity => 1,
            MissCause::Conflict => 2,
            MissCause::CoherenceTrueShare => 3,
            MissCause::CoherenceFalseShare => 4,
        }
    }

    /// Short display name (`"cold"`, `"capacity"`, `"conflict"`,
    /// `"coh-true"`, `"coh-false"`).
    pub const fn name(self) -> &'static str {
        match self {
            MissCause::Cold => "cold",
            MissCause::Capacity => "capacity",
            MissCause::Conflict => "conflict",
            MissCause::CoherenceTrueShare => "coh-true",
            MissCause::CoherenceFalseShare => "coh-false",
        }
    }

    /// Whether this is a coherence (invalidation-induced) miss.
    #[inline]
    pub fn is_coherence(self) -> bool {
        matches!(
            self,
            MissCause::CoherenceTrueShare | MissCause::CoherenceFalseShare
        )
    }
}

/// Slots of a per-cause accumulator: the five [`MissCause`]s plus one
/// extra slot ([`CAUSE_OTHER`]) for stall that has no miss cause — cache
/// hits with residual in-flight waits, upgrades, and misses recorded while
/// classification is disabled.
pub const CAUSE_SLOTS: usize = 6;

/// Index of the "no cause" slot in a `[_; CAUSE_SLOTS]` accumulator.
pub const CAUSE_OTHER: usize = 5;

/// Display name for a cause slot, including the extra [`CAUSE_OTHER`] one.
pub const fn cause_slot_name(i: usize) -> &'static str {
    match i {
        0..=4 => MissCause::ALL[i].name(),
        _ => "(other)",
    }
}

/// The resource buckets latency is attributed to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResourceClass {
    /// A node's Hub (memory/coherence controller).
    Hub,
    /// A node's memory bank.
    Mem,
    /// Directory/protocol processing at the home (includes invalidation
    /// fan-out; in this model directory *queueing* shows up at the home
    /// Hub and memory, so this bucket is pure service time).
    Dir,
    /// Routers, metarouters and links.
    Net,
}

impl ResourceClass {
    /// All resource classes, in reporting order.
    pub const ALL: [ResourceClass; 4] = [
        ResourceClass::Hub,
        ResourceClass::Mem,
        ResourceClass::Dir,
        ResourceClass::Net,
    ];

    /// Stable index into the arrays of [`LatencyBreakdown`].
    #[inline]
    pub const fn index(self) -> usize {
        match self {
            ResourceClass::Hub => 0,
            ResourceClass::Mem => 1,
            ResourceClass::Dir => 2,
            ResourceClass::Net => 3,
        }
    }

    /// Short display name (`"hub"`, `"memory"`, `"directory"`,
    /// `"network"`).
    pub fn name(self) -> &'static str {
        match self {
            ResourceClass::Hub => "hub",
            ResourceClass::Mem => "memory",
            ResourceClass::Dir => "directory",
            ResourceClass::Net => "network",
        }
    }
}

/// Exact per-resource (service, queueing) decomposition of one access's
/// latency — or, accumulated, of a processor's whole memory stall.
///
/// Invariant, maintained by the memory system for every
/// [`Outcome`](crate::memsys::Outcome): `total() == outcome.latency`,
/// to the nanosecond. Queueing entries come straight from the contention
/// model's [`acquire`](crate::contend::Resource::acquire) waits; service
/// entries partition the uncontended restart latency plus explicit transit
/// charges.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct LatencyBreakdown {
    /// Uncontended service time per resource, indexed by
    /// [`ResourceClass::index`].
    pub service: [Ns; 4],
    /// Queueing delay per resource, indexed by [`ResourceClass::index`].
    pub queue: [Ns; 4],
    /// Latency in neither bucket: L2 hit time and residual waits on lines
    /// still in flight from a prefetch.
    pub other_ns: Ns,
}

impl LatencyBreakdown {
    /// Total uncontended service time.
    pub fn service_total(&self) -> Ns {
        self.service.iter().sum()
    }

    /// Total queueing delay.
    pub fn queue_total(&self) -> Ns {
        self.queue.iter().sum()
    }

    /// Everything: service + queueing + other. Equals the latency charged
    /// to the processor for the access(es) this breakdown covers.
    pub fn total(&self) -> Ns {
        self.service_total() + self.queue_total() + self.other_ns
    }

    /// Accumulates another breakdown into this one.
    pub fn add(&mut self, o: &LatencyBreakdown) {
        for i in 0..4 {
            self.service[i] += o.service[i];
            self.queue[i] += o.queue[i];
        }
        self.other_ns += o.other_ns;
    }

    /// The (service, queue) pair for one resource class.
    pub fn get(&self, r: ResourceClass) -> (Ns, Ns) {
        (self.service[r.index()], self.queue[r.index()])
    }
}

/// Word-granular (8-byte) access footprint of the byte range
/// `[lo, hi)` within the line starting at `line_base`, as a bit mask
/// (bit *i* = word *i* of the line; words beyond 64 clamp into bit 63).
///
/// Returns 0 when the range does not intersect the line.
pub fn word_mask(line_base: Addr, line_bytes: u64, lo: Addr, hi: Addr) -> u64 {
    let line_end = line_base + line_bytes;
    let lo = lo.max(line_base);
    let hi = hi.min(line_end);
    if lo >= hi {
        return 0;
    }
    let first = (lo - line_base) / 8;
    let last = (hi - 1 - line_base) / 8;
    let mut mask = 0u64;
    for w in first..=last {
        mask |= 1u64 << w.min(63);
    }
    mask
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breakdown_total_sums_all_buckets() {
        let mut b = LatencyBreakdown::default();
        b.service[ResourceClass::Hub.index()] = 10;
        b.queue[ResourceClass::Mem.index()] = 20;
        b.service[ResourceClass::Dir.index()] = 5;
        b.other_ns = 7;
        assert_eq!(b.service_total(), 15);
        assert_eq!(b.queue_total(), 20);
        assert_eq!(b.total(), 42);
        let mut c = b;
        c.add(&b);
        assert_eq!(c.total(), 84);
        assert_eq!(c.get(ResourceClass::Mem), (0, 40));
    }

    #[test]
    fn cause_indices_are_stable_and_named() {
        for (i, c) in MissCause::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
            assert_eq!(cause_slot_name(i), c.name());
        }
        assert_eq!(cause_slot_name(CAUSE_OTHER), "(other)");
        assert!(MissCause::CoherenceFalseShare.is_coherence());
        assert!(!MissCause::Conflict.is_coherence());
    }

    #[test]
    fn word_masks_cover_intersections() {
        // Line [0, 128): word 0 is bytes [0, 8).
        assert_eq!(word_mask(0, 128, 0, 8), 0b1);
        assert_eq!(word_mask(0, 128, 8, 16), 0b10);
        assert_eq!(word_mask(0, 128, 0, 128), 0xFFFF);
        // Disjoint byte ranges on one line → disjoint masks.
        let a = word_mask(0, 128, 0, 8);
        let b = word_mask(0, 128, 64, 72);
        assert_eq!(a & b, 0);
        // Crossing accesses clip to the line.
        assert_eq!(word_mask(128, 128, 120, 136), 0b1);
        // No intersection → empty mask.
        assert_eq!(word_mask(0, 128, 128, 256), 0);
        // Huge lines clamp into bit 63 instead of overflowing.
        assert_eq!(word_mask(0, 1024, 1016, 1024), 1u64 << 63);
    }
}
