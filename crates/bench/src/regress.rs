//! The attribution regression gate behind `bench regress`: runs a pinned
//! workload matrix with miss classification on, snapshots the attribution
//! metrics to `BENCH_attrib.json`, and gates changes against the committed
//! baseline with a relative tolerance (through [`crate::gate`]).
//!
//! The simulator is bit-deterministic, so the baseline is expected to match
//! exactly on an unchanged tree; the tolerance (default 2%) leaves room for
//! deliberate model tuning without churning the baseline on every commit.

use ccnuma_sim::attrib::cause_slot_name;
use ccnuma_sim::stats::RunStats;
use ccnuma_sim::time::Ns;
use scaling_study::experiments::{basic, Scale};
use scaling_study::runner::{Runner, StudyError};

use crate::gate::{Check, Entry, Field, Gate};

/// The pinned workload matrix: quick-scale basic problems on small
/// machines, chosen to exercise every miss cause (capacity/conflict from
/// radix and fft, coherence from ocean and water-nsq) in a few seconds.
pub const MATRIX_APPS: &[&str] = &["fft", "ocean", "radix", "water-nsq"];

/// Processor counts of the pinned matrix.
pub const MATRIX_PROCS: &[usize] = &[4, 8];

/// The pinned matrix points, in order: every app at every proc count.
pub fn points() -> Vec<(&'static str, usize)> {
    MATRIX_APPS
        .iter()
        .flat_map(|&id| MATRIX_PROCS.iter().map(move |&np| (id, np)))
        .collect()
}

const CAUSES: [&str; 5] = [
    cause_slot_name(0),
    cause_slot_name(1),
    cause_slot_name(2),
    cause_slot_name(3),
    cause_slot_name(4),
];

/// The `bench regress` gate: per point, the parallel wall clock, the
/// total memory stall and its queueing share (virtual ns), the data-miss
/// count, and the miss counts per cause, all within a two-sided 2%.
pub const GATE: Gate = Gate {
    verb: "regress",
    baseline: "BENCH_attrib.json",
    tolerance: 0.02,
    fields: &[
        Field::scalar("wall_ns", Check::Drift),
        Field::scalar("mem_stall_ns", Check::Drift),
        Field::scalar("queue_ns", Check::Drift),
        Field::scalar("misses", Check::Drift),
        Field::array("causes", &CAUSES, Check::Drift),
    ],
};

fn entry(app: String, problem: String, nprocs: usize, wall_ns: Ns, stats: &RunStats) -> Entry {
    Entry {
        app,
        problem,
        nprocs,
        values: vec![
            vec![wall_ns],
            vec![stats.total(|p| p.mem_ns)],
            vec![stats.mem_breakdown().queue_total()],
            vec![stats.total(|p| p.misses())],
            stats.cause_counts().to_vec(),
        ],
    }
}

/// Runs the pinned matrix and returns one entry per (app, procs) point.
///
/// # Errors
///
/// Propagates any simulation or verification failure.
pub fn measure() -> Result<Vec<Entry>, StudyError> {
    let scale = Scale::Quick;
    let mut runner = Runner::new(scale.cache_bytes());
    runner.set_attrib(true);
    let mut out = Vec::new();
    for &id in MATRIX_APPS {
        let w = basic(id, scale);
        for &np in MATRIX_PROCS {
            let rec = runner.run(w.as_ref(), np)?;
            out.push(entry(
                rec.app,
                rec.problem,
                rec.nprocs,
                rec.wall_ns,
                &rec.stats,
            ));
        }
    }
    Ok(out)
}

/// [`measure`] fanned out over the sweep engine's work-stealing pool:
/// the same pinned matrix, the same entries in the same order, but each
/// point simulated on its own host thread. The entries skip the
/// sequential baselines [`Runner`] would compute (no gate field needs
/// one), so this is strictly less work per point as well as parallel
/// across points — and still bit-identical to [`measure`], which
/// `measure_is_jobs_invariant` pins.
///
/// # Errors
///
/// Propagates the first simulation or verification failure in matrix
/// order.
pub fn measure_with_jobs(jobs: usize) -> Result<Vec<Entry>, StudyError> {
    let scale = Scale::Quick;
    let (results, _) = ccnuma_sweep::pool::run(&points(), jobs, |&(id, np)| {
        let w = basic(id, scale);
        let mut cfg = ccnuma_sim::config::MachineConfig::origin2000_scaled(np, scale.cache_bytes());
        cfg.classify_misses = true;
        let (wall_ns, stats) = scaling_study::runner::execute_workload(w.as_ref(), cfg)?;
        Ok(entry(w.name(), w.problem(), np, wall_ns, &stats))
    });
    results.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(app: &str, np: usize, wall: u64) -> Entry {
        Entry {
            app: app.into(),
            problem: "p".into(),
            nprocs: np,
            values: vec![
                vec![wall],
                vec![500],
                vec![100],
                vec![40],
                vec![10, 10, 5, 10, 5],
            ],
        }
    }

    #[test]
    fn compare_passes_identical_and_within_tolerance() {
        let base = vec![entry("fft", 4, 1_000)];
        assert!(GATE.compare(&base, &base, 0.02).is_empty());
        let mut close = base.clone();
        close[0].values[0][0] = 1_015; // +1.5% < 2%
        assert!(GATE.compare(&base, &close, 0.02).is_empty());
    }

    #[test]
    fn compare_flags_drift_and_shape_changes() {
        let base = vec![entry("fft", 4, 1_000), entry("ocean", 8, 2_000)];
        let mut cur = vec![entry("fft", 4, 1_100), entry("radix", 4, 500)];
        cur[0].values[4][4] = 20; // false-share count blew up
        let msgs = GATE.compare(&base, &cur, 0.02);
        assert!(
            msgs.iter().any(|m| m.contains("wall_ns drifted +10.00%")),
            "{msgs:?}"
        );
        assert!(
            msgs.iter().any(|m| m.contains("causes[coh-false]")),
            "{msgs:?}"
        );
        assert!(
            msgs.iter().any(|m| m.contains("ocean/p/8p: missing")),
            "{msgs:?}"
        );
        assert!(
            msgs.iter()
                .any(|m| m.contains("radix/p/4p: not in baseline")),
            "{msgs:?}"
        );
    }

    #[test]
    fn measure_covers_matrix_and_reconciles() {
        let entries = measure().unwrap();
        assert_eq!(entries.len(), MATRIX_APPS.len() * MATRIX_PROCS.len());
        for e in &entries {
            let field = |name| GATE.get(e, name)[0];
            let causes: u64 = GATE.get(e, "causes").iter().sum();
            assert_eq!(causes, field("misses"), "{}", e.key());
            assert!(field("queue_ns") <= field("mem_stall_ns"), "{}", e.key());
        }
        // Determinism: measuring again reproduces the snapshot bit-exactly.
        let again = measure().unwrap();
        assert_eq!(entries, again);
    }

    #[test]
    fn measure_is_jobs_invariant() {
        // The parallel path must reproduce the serial snapshot bit for
        // bit, in the same pinned order — otherwise routing `bench
        // regress` through the pool would churn BENCH_attrib.json.
        let serial = measure().unwrap();
        let parallel = measure_with_jobs(4).unwrap();
        assert_eq!(serial, parallel);
    }
}
