//! Data-structure-level profiling — the tooling the paper wished the
//! Origin2000 had (§8: "the greatest missing feature of the machine is the
//! lack of tools to look more deeply into the machine's execution and
//! memory system").
//!
//! Label shared allocations with
//! [`Machine::shared_vec_labeled`](crate::machine::Machine::shared_vec_labeled)
//! and the run's [`RunStats`](crate::stats::RunStats) will carry a
//! per-label breakdown of accesses, miss classes, stall time, the
//! miss-cause mix and the label's sharing-hottest lines — the information
//! the authors had to reconstruct with `pixie`/`prof` and hand analysis
//! (e.g. attributing Barnes-Hut's 128-processor memory time to the
//! tree-build phase's cell arrays).
//!
//! Accesses that fall outside every registered range are collected under
//! an implicit `"(unattributed)"` profile, so the per-range totals always
//! reconcile with [`ProcStats`] the way trace
//! spans already do.

use std::collections::HashMap;

use crate::memsys::{AccessClass, AccessKind, Outcome};
use crate::observe::Event;
use crate::page::Addr;
use crate::prof::{self, Region};
use crate::stats::ProcStats;
use crate::time::Ns;

/// Name of the implicit catch-all profile for accesses outside every
/// registered range.
pub const UNATTRIBUTED: &str = "(unattributed)";

/// How many sharing-hot lines each profile keeps.
const TOP_LINES: usize = 8;
/// How many producer→consumer pairs each hot line keeps.
const TOP_PAIRS: usize = 4;

/// One sharing-hot cache line of a labelled range: where invalidation
/// traffic concentrates, and between whom.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct HotLine {
    /// Line-aligned byte address.
    pub line_addr: Addr,
    /// Coherence misses (true + false sharing) on this line.
    pub coherence_misses: u64,
    /// Top `(producer, consumer, count)` processor pairs: `producer`'s
    /// writes invalidated `consumer`'s copy `count` times. Sorted by count
    /// descending.
    pub pairs: Vec<(u32, u32, u64)>,
}

/// Per-label access statistics.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct RangeProfile {
    /// The label given at allocation.
    pub name: String,
    /// Line-granular reads.
    pub reads: u64,
    /// Line-granular writes.
    pub writes: u64,
    /// Cache hits.
    pub hits: u64,
    /// Misses served by the requester's own node.
    pub misses_local: u64,
    /// Misses served remotely (clean + dirty + upgrades).
    pub misses_remote: u64,
    /// Total stall time attributed to this label.
    pub stall_ns: Ns,
    /// `stall_ns` split by the application phase the accessing processor
    /// was in (phase name, stall ns), in phase-declaration order; phases
    /// that never touched the range are omitted.
    pub phase_stalls: Vec<(String, Ns)>,
    /// Classified misses by [`MissCause::index`](crate::attrib::MissCause::index)
    /// slot (`[cold, capacity, conflict, coh-true, coh-false]`); all zeros
    /// unless `classify_misses` was enabled.
    pub cause_misses: [u64; 5],
    /// The label's sharing-hottest lines, by coherence-miss count
    /// descending (at most eight; empty without `classify_misses`).
    pub sharing_hot: Vec<HotLine>,
}

impl RangeProfile {
    /// All misses.
    pub fn misses(&self) -> u64 {
        self.misses_local + self.misses_remote
    }

    /// Whether anything was ever charged to this profile.
    fn touched(&self) -> bool {
        self.reads + self.writes > 0
    }
}

/// Per-line sharing aggregation while the run is live.
#[derive(Debug, Default)]
struct LineAgg {
    misses: u64,
    pairs: HashMap<(u32, u32), u64>,
}

/// Attributes accesses to labelled address ranges.
#[derive(Debug, Default)]
pub(crate) struct Profiler {
    /// Sorted, non-overlapping (base, end, profile index).
    ranges: Vec<(Addr, Addr, usize)>,
    profiles: Vec<RangeProfile>,
    /// Per-profile stall accumulators indexed by interned phase id.
    phase_stalls: Vec<Vec<Ns>>,
    /// Per-profile, per-line sharing aggregation.
    sharing: Vec<HashMap<u64, LineAgg>>,
    /// The implicit catch-all for out-of-range accesses, with its own
    /// phase/sharing accumulators.
    unattributed: RangeProfile,
    un_phase: Vec<Ns>,
    un_sharing: HashMap<u64, LineAgg>,
}

/// Charges one serviced access into a profile and its side accumulators
/// (free function so registered and unattributed targets share it without
/// borrow gymnastics).
#[allow(clippy::too_many_arguments)]
fn charge(
    profile: &mut RangeProfile,
    phase_acc: &mut Vec<Ns>,
    sharing: &mut HashMap<u64, LineAgg>,
    proc: usize,
    addr: Addr,
    kind: AccessKind,
    outcome: &Outcome,
    phase: u32,
) {
    match kind {
        AccessKind::Read => profile.reads += 1,
        AccessKind::Write => profile.writes += 1,
    }
    match outcome.class {
        AccessClass::Hit => profile.hits += 1,
        AccessClass::LocalMiss => profile.misses_local += 1,
        AccessClass::RemoteClean | AccessClass::RemoteDirty | AccessClass::Upgrade => {
            if outcome.home_local {
                profile.misses_local += 1;
            } else {
                profile.misses_remote += 1;
            }
        }
    }
    profile.stall_ns += outcome.latency;
    if outcome.latency > 0 {
        let ph = phase as usize;
        if phase_acc.len() <= ph {
            phase_acc.resize(ph + 1, 0);
        }
        phase_acc[ph] += outcome.latency;
    }
    if let Some(cause) = outcome.miss_cause {
        profile.cause_misses[cause.index()] += 1;
        if cause.is_coherence() {
            let agg = sharing.entry(addr).or_default();
            agg.misses += 1;
            if let Some(producer) = outcome.producer {
                *agg.pairs
                    .entry((u32::from(producer), proc as u32))
                    .or_insert(0) += 1;
            }
        }
    }
}

/// Folds a live sharing aggregation into the deterministic top-K
/// [`HotLine`] list of a finished profile.
fn hot_lines(agg: HashMap<u64, LineAgg>) -> Vec<HotLine> {
    let mut lines: Vec<HotLine> = agg
        .into_iter()
        .map(|(line_addr, a)| {
            let mut pairs: Vec<(u32, u32, u64)> =
                a.pairs.into_iter().map(|((p, c), n)| (p, c, n)).collect();
            pairs.sort_by(|x, y| y.2.cmp(&x.2).then((x.0, x.1).cmp(&(y.0, y.1))));
            pairs.truncate(TOP_PAIRS);
            HotLine {
                line_addr,
                coherence_misses: a.misses,
                pairs,
            }
        })
        .collect();
    lines.sort_by(|x, y| {
        y.coherence_misses
            .cmp(&x.coherence_misses)
            .then(x.line_addr.cmp(&y.line_addr))
    });
    lines.truncate(TOP_LINES);
    lines
}

impl Profiler {
    /// Attributes each access event to its range; the ledger is not read.
    pub(crate) fn on(&mut self, ev: &Event, _ledger: &[ProcStats]) {
        if let Event::Access(a) = ev {
            let _sp = prof::span(Region::Attrib);
            self.attribute(a.at.p, a.addr, a.kind, a.outcome, a.at.phase);
        }
    }

    /// Registers `[base, base + bytes)` under `name`. Ranges come from the
    /// machine's bump allocator, so they never overlap.
    pub fn register(&mut self, name: &str, base: Addr, bytes: u64) {
        let idx = self.profiles.len();
        self.profiles.push(RangeProfile {
            name: name.to_string(),
            ..Default::default()
        });
        self.phase_stalls.push(Vec::new());
        self.sharing.push(HashMap::new());
        let pos = self.ranges.partition_point(|&(b, _, _)| b < base);
        self.ranges.insert(pos, (base, base + bytes, idx));
    }

    /// Attributes one serviced access by processor `proc`, charging the
    /// stall to its current `phase`. Accesses outside every registered
    /// range land in the implicit [`UNATTRIBUTED`] profile.
    pub fn attribute(
        &mut self,
        proc: usize,
        addr: Addr,
        kind: AccessKind,
        outcome: &Outcome,
        phase: u32,
    ) {
        let pos = self.ranges.partition_point(|&(b, _, _)| b <= addr);
        let idx = if pos > 0 {
            let (base, end, idx) = self.ranges[pos - 1];
            debug_assert!(addr >= base);
            (addr < end).then_some(idx)
        } else {
            None
        };
        match idx {
            Some(idx) => charge(
                &mut self.profiles[idx],
                &mut self.phase_stalls[idx],
                &mut self.sharing[idx],
                proc,
                addr,
                kind,
                outcome,
                phase,
            ),
            None => charge(
                &mut self.unattributed,
                &mut self.un_phase,
                &mut self.un_sharing,
                proc,
                addr,
                kind,
                outcome,
                phase,
            ),
        }
    }

    /// Consumes the profiler, returning the per-label statistics in
    /// registration order — plus the [`UNATTRIBUTED`] catch-all (last) if
    /// any access fell outside every range; `phase_names` resolves
    /// interned phase ids.
    pub fn into_profiles(mut self, phase_names: &[String]) -> Vec<RangeProfile> {
        let resolve = |acc: &[Ns]| -> Vec<(String, Ns)> {
            acc.iter()
                .enumerate()
                .filter(|&(_, &ns)| ns > 0)
                .map(|(i, &ns)| {
                    let name = phase_names
                        .get(i)
                        .cloned()
                        .unwrap_or_else(|| format!("phase {i}"));
                    (name, ns)
                })
                .collect()
        };
        let sharing = std::mem::take(&mut self.sharing);
        for ((p, acc), agg) in self
            .profiles
            .iter_mut()
            .zip(&self.phase_stalls)
            .zip(sharing)
        {
            p.phase_stalls = resolve(acc);
            p.sharing_hot = hot_lines(agg);
        }
        let mut out = self.profiles;
        if self.unattributed.touched() {
            let mut un = self.unattributed;
            un.name = UNATTRIBUTED.to_string();
            un.phase_stalls = resolve(&self.un_phase);
            un.sharing_hot = hot_lines(self.un_sharing);
            out.push(un);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attrib::MissCause;

    fn outcome(class: AccessClass, latency: Ns, home_local: bool) -> Outcome {
        let mut o = Outcome::hit(latency);
        o.class = class;
        o.home_local = home_local;
        o
    }

    #[test]
    fn attribution_respects_range_bounds() {
        let mut p = Profiler::default();
        p.register("a", 1000, 100);
        p.register("b", 2000, 100);
        p.attribute(
            0,
            1000,
            AccessKind::Read,
            &outcome(AccessClass::Hit, 0, true),
            0,
        );
        p.attribute(
            0,
            1099,
            AccessKind::Write,
            &outcome(AccessClass::LocalMiss, 42, true),
            0,
        );
        p.attribute(
            0,
            1100,
            AccessKind::Read,
            &outcome(AccessClass::Hit, 0, true),
            0,
        ); // gap
        p.attribute(
            0,
            2050,
            AccessKind::Read,
            &outcome(AccessClass::RemoteClean, 80, false),
            0,
        );
        p.attribute(
            0,
            500,
            AccessKind::Read,
            &outcome(AccessClass::Hit, 0, true),
            0,
        ); // before all
        let profs = p.into_profiles(&["main".to_string()]);
        assert_eq!(profs[0].reads, 1);
        assert_eq!(profs[0].writes, 1);
        assert_eq!(profs[0].hits, 1);
        assert_eq!(profs[0].misses_local, 1);
        assert_eq!(profs[0].stall_ns, 42);
        assert_eq!(profs[1].misses_remote, 1);
        assert_eq!(profs[1].stall_ns, 80);
    }

    #[test]
    fn out_of_range_accesses_land_in_unattributed() {
        let mut p = Profiler::default();
        p.register("a", 1000, 100);
        // One in-range, three out-of-range (before, in the gap above, and
        // far past), with stall.
        p.attribute(
            0,
            1050,
            AccessKind::Read,
            &outcome(AccessClass::LocalMiss, 10, true),
            0,
        );
        p.attribute(
            1,
            500,
            AccessKind::Read,
            &outcome(AccessClass::LocalMiss, 20, true),
            0,
        );
        p.attribute(
            1,
            1100,
            AccessKind::Write,
            &outcome(AccessClass::RemoteClean, 30, false),
            1,
        );
        p.attribute(
            2,
            9000,
            AccessKind::Read,
            &outcome(AccessClass::Hit, 0, true),
            0,
        );
        let names = ["main".to_string(), "solve".to_string()];
        let profs = p.into_profiles(&names);
        assert_eq!(profs.len(), 2);
        let un = &profs[1];
        assert_eq!(un.name, UNATTRIBUTED);
        assert_eq!(un.reads + un.writes, 3);
        assert_eq!(un.hits, 1);
        assert_eq!(un.misses_local, 1);
        assert_eq!(un.misses_remote, 1);
        assert_eq!(un.stall_ns, 50);
        assert_eq!(
            un.phase_stalls,
            vec![("main".to_string(), 20), ("solve".to_string(), 30)]
        );
        // The invariant the engine relies on: every attributed access is in
        // exactly one profile, so totals reconcile with ProcStats.
        let (acc, misses, stall): (u64, u64, Ns) = profs.iter().fold((0, 0, 0), |(a, m, s), p| {
            (a + p.reads + p.writes, m + p.misses(), s + p.stall_ns)
        });
        assert_eq!(acc, 4);
        assert_eq!(misses, 3);
        assert_eq!(stall, 60);
    }

    #[test]
    fn no_unattributed_profile_when_everything_matches() {
        let mut p = Profiler::default();
        p.register("a", 0, 4096);
        p.attribute(
            0,
            128,
            AccessKind::Read,
            &outcome(AccessClass::Hit, 0, true),
            0,
        );
        let profs = p.into_profiles(&["main".to_string()]);
        assert_eq!(profs.len(), 1);
        assert_eq!(profs[0].name, "a");
    }

    #[test]
    fn upgrades_count_by_home_locality() {
        let mut p = Profiler::default();
        p.register("x", 0, 1000);
        p.attribute(
            0,
            0,
            AccessKind::Write,
            &outcome(AccessClass::Upgrade, 30, true),
            0,
        );
        p.attribute(
            0,
            1,
            AccessKind::Write,
            &outcome(AccessClass::Upgrade, 60, false),
            0,
        );
        let profs = p.into_profiles(&["main".to_string()]);
        assert_eq!(profs[0].misses_local, 1);
        assert_eq!(profs[0].misses_remote, 1);
        assert_eq!(profs[0].misses(), 2);
    }

    #[test]
    fn registration_out_of_order_still_sorts() {
        let mut p = Profiler::default();
        p.register("high", 5000, 10);
        p.register("low", 100, 10);
        p.attribute(
            0,
            5005,
            AccessKind::Read,
            &outcome(AccessClass::Hit, 0, true),
            0,
        );
        p.attribute(
            0,
            105,
            AccessKind::Read,
            &outcome(AccessClass::Hit, 0, true),
            0,
        );
        let profs = p.into_profiles(&["main".to_string()]);
        assert_eq!(profs[0].name, "high");
        assert_eq!(profs[0].hits, 1);
        assert_eq!(profs[1].hits, 1);
    }

    #[test]
    fn stalls_split_by_phase() {
        let mut p = Profiler::default();
        p.register("grid", 0, 1000);
        p.attribute(
            0,
            0,
            AccessKind::Read,
            &outcome(AccessClass::LocalMiss, 40, true),
            0,
        );
        p.attribute(
            0,
            8,
            AccessKind::Read,
            &outcome(AccessClass::RemoteClean, 100, false),
            2,
        );
        p.attribute(
            0,
            16,
            AccessKind::Read,
            &outcome(AccessClass::Hit, 0, true),
            1,
        ); // no stall
        let names = [
            "main".to_string(),
            "smooth".to_string(),
            "restrict".to_string(),
        ];
        let profs = p.into_profiles(&names);
        assert_eq!(profs[0].stall_ns, 140);
        // Zero-stall phases are omitted; the rest resolve to names.
        assert_eq!(
            profs[0].phase_stalls,
            vec![("main".to_string(), 40), ("restrict".to_string(), 100)]
        );
    }

    #[test]
    fn cause_mix_and_sharing_hot_lines() {
        let mut p = Profiler::default();
        p.register("flags", 0, 4096);
        let coh = |producer: u8, latency: Ns| {
            let mut o = outcome(AccessClass::RemoteDirty, latency, false);
            o.miss_cause = Some(MissCause::CoherenceFalseShare);
            o.producer = Some(producer);
            o
        };
        let mut cold = outcome(AccessClass::LocalMiss, 5, true);
        cold.miss_cause = Some(MissCause::Cold);
        p.attribute(1, 128, AccessKind::Read, &cold, 0);
        // Line 0: hammered, producer 0 → consumers 1 and 2.
        for _ in 0..3 {
            p.attribute(1, 0, AccessKind::Read, &coh(0, 50), 0);
        }
        p.attribute(2, 0, AccessKind::Read, &coh(0, 50), 0);
        // Line 256: one coherence miss, producer 3 → consumer 1.
        p.attribute(1, 256, AccessKind::Read, &coh(3, 50), 0);
        let profs = p.into_profiles(&["main".to_string()]);
        let f = &profs[0];
        assert_eq!(f.cause_misses, [1, 0, 0, 0, 5]);
        assert_eq!(f.sharing_hot.len(), 2);
        assert_eq!(f.sharing_hot[0].line_addr, 0);
        assert_eq!(f.sharing_hot[0].coherence_misses, 4);
        assert_eq!(f.sharing_hot[0].pairs, vec![(0, 1, 3), (0, 2, 1)]);
        assert_eq!(f.sharing_hot[1].pairs, vec![(3, 1, 1)]);
    }
}
