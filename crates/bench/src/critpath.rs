//! The critical-path regression gate behind `bench critpath`: runs the
//! pinned workload matrix (the same one `bench regress` uses) with
//! critical-path profiling on, snapshots each cell's on-path composition
//! and what-if projections to `BENCH_critpath.json`, and gates changes
//! against the committed baseline with a relative tolerance (through
//! [`crate::gate`]).
//!
//! The simulator — and the collector, which consumes its deterministic
//! event stream — is bit-deterministic, so the baseline is expected to
//! match exactly on an unchanged tree at any `--jobs` count; the
//! tolerance (default 2%) leaves room for deliberate model tuning.

use ccnuma_sim::critpath::CritReport;
use scaling_study::experiments::{basic, Scale};
use scaling_study::report::Table;
use scaling_study::runner::{Runner, StudyError};

use crate::gate::{Check, Entry, Field, Gate};
use crate::regress::{points, MATRIX_APPS, MATRIX_PROCS};

/// Names of the seven on-path buckets, in `path` order.
pub const PATH_NAMES: [&str; 7] = [
    "busy",
    "sync_op",
    "mem_local",
    "mem_remote",
    "lock_wait",
    "barrier_wait",
    "sem_wait",
];

/// Names of the what-if scenarios, in `whatif` order — the order
/// [`CritReport`] emits them in.
pub const SCENARIO_NAMES: [&str; 6] = [
    "measured",
    "sync=0",
    "hub_queue=0",
    "queue=0",
    "remote*0.5",
    "busy-only",
];

/// The `bench critpath` gate: per point, the parallel wall clock
/// (virtual ns), the on-path time per bucket (summing to the wall
/// clock exactly), and the projected wall clock per what-if scenario
/// (`whatif[measured]` equals the wall clock), all within a two-sided 2%.
pub const GATE: Gate = Gate {
    verb: "critpath",
    baseline: "BENCH_critpath.json",
    tolerance: 0.02,
    fields: &[
        Field::scalar("wall_ns", Check::Drift),
        Field::array("path", &PATH_NAMES, Check::Drift),
        Field::array("whatif", &SCENARIO_NAMES, Check::Drift),
    ],
};

/// On-path `(busy, memory, sync)` percentage split of a gate entry.
pub fn share_pct(e: &Entry) -> (f64, f64, f64) {
    let t = GATE.get(e, "wall_ns")[0].max(1) as f64;
    let p = GATE.get(e, "path"); // in PATH_NAMES order
    (
        100.0 * p[0] as f64 / t,
        100.0 * (p[2] + p[3]) as f64 / t,
        100.0 * (p[1] + p[4] + p[5] + p[6]) as f64 / t,
    )
}

/// Projected speedup of scenario `i` (in [`SCENARIO_NAMES`] order).
pub fn speedup(e: &Entry, i: usize) -> f64 {
    match GATE.get(e, "whatif")[i] {
        0 => 1.0,
        w => GATE.get(e, "wall_ns")[0] as f64 / w as f64,
    }
}

fn entry_from(app: String, problem: String, nprocs: usize, rep: &CritReport) -> Entry {
    let t = &rep.total;
    Entry {
        app,
        problem,
        nprocs,
        values: vec![
            vec![rep.wall_ns],
            vec![
                t.busy_ns,
                t.sync_op_ns,
                t.mem_local_ns,
                t.mem_remote_ns,
                t.lock_wait_ns,
                t.barrier_wait_ns,
                t.sem_wait_ns,
            ],
            rep.whatif.iter().map(|w| w.wall_ns).collect(),
        ],
    }
}

/// Runs the pinned matrix with critical-path profiling (and miss
/// classification, so the path's cause/resource detail is populated) and
/// returns one entry per (app, procs) point.
///
/// # Errors
///
/// Propagates any simulation or verification failure.
pub fn measure() -> Result<Vec<Entry>, StudyError> {
    let scale = Scale::Quick;
    let mut runner = Runner::new(scale.cache_bytes());
    runner.set_attrib(true);
    runner.set_critpath(true);
    let mut out = Vec::new();
    for &id in MATRIX_APPS {
        let w = basic(id, scale);
        for &np in MATRIX_PROCS {
            let rec = runner.run(w.as_ref(), np)?;
            let rep = rec
                .stats
                .critpath
                .as_ref()
                .expect("critpath enabled on every matrix run");
            out.push(entry_from(rec.app, rec.problem, rec.nprocs, rep));
        }
    }
    Ok(out)
}

/// [`measure`] fanned out over the sweep engine's work-stealing pool:
/// the same pinned matrix, the same entries in the same order, each
/// point simulated on its own host thread — and still bit-identical to
/// [`measure`], which `measure_is_jobs_invariant` pins.
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
        cfg.critpath = true;
        let (_, stats) = scaling_study::runner::execute_workload(w.as_ref(), cfg)?;
        let rep = stats
            .critpath
            .as_ref()
            .expect("critpath enabled on every matrix run");
        Ok(entry_from(w.name(), w.problem(), np, rep))
    });
    results.into_iter().collect()
}

/// Renders entries as the `bench critpath` summary table: on-path
/// shares and the headline what-if speedups per matrix point.
pub fn table(entries: &[Entry]) -> Table {
    let mut t = Table::new(
        "critical-path matrix",
        &["run", "busy", "memory", "sync", "sync=0", "remote*0.5"],
    );
    for e in entries {
        let (busy, mem, sync) = share_pct(e);
        t.row(vec![
            e.key(),
            format!("{busy:.1}%"),
            format!("{mem:.1}%"),
            format!("{sync:.1}%"),
            format!("{:.2}x", speedup(e, 1)),
            format!("{:.2}x", speedup(e, 4)),
        ]);
    }
    t
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
                vec![wall / 2, 0, wall / 8, wall / 8, 0, wall / 4, 0],
                vec![wall, wall * 3 / 4, wall, wall, wall * 7 / 8, wall / 2],
            ],
        }
    }

    #[test]
    fn compare_passes_identical_and_flags_drift() {
        let base = vec![entry("fft", 4, 1_000), entry("ocean", 8, 2_000)];
        assert!(GATE.compare(&base, &base, 0.02).is_empty());
        let mut cur = vec![entry("fft", 4, 1_000), entry("radix", 4, 500)];
        cur[0].values[1][5] = 300; // barrier-wait share grew +20%
        cur[0].values[2][1] = 600;
        let msgs = GATE.compare(&base, &cur, 0.02);
        assert!(
            msgs.iter().any(|m| m.contains("path[barrier_wait]")),
            "{msgs:?}"
        );
        assert!(
            msgs.iter().any(|m| m.contains("whatif[sync=0]")),
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
    fn shares_and_speedups_derive_from_the_entry() {
        let e = entry("fft", 4, 1_000);
        let (busy, mem, sync) = share_pct(&e);
        assert!((busy - 50.0).abs() < 1e-9);
        assert!((mem - 25.0).abs() < 1e-9);
        assert!((sync - 25.0).abs() < 1e-9);
        assert!((speedup(&e, 5) - 2.0).abs() < 1e-9, "busy-only bound");
        let t = table(&[e]);
        assert_eq!(t.len(), 1);
        assert!(t.to_csv().contains("50.0%"));
    }

    #[test]
    fn measure_covers_matrix_and_reconciles() {
        let entries = measure().unwrap();
        assert_eq!(entries.len(), MATRIX_APPS.len() * MATRIX_PROCS.len());
        for e in &entries {
            let wall = GATE.get(e, "wall_ns")[0];
            let whatif = GATE.get(e, "whatif");
            assert_eq!(
                GATE.get(e, "path").iter().sum::<u64>(),
                wall,
                "{}: path partitions the wall",
                e.key()
            );
            assert_eq!(whatif[0], wall, "{}: measured replay", e.key());
            let busy_bound = whatif[5];
            for (i, &w) in whatif.iter().enumerate() {
                assert!(w <= wall, "{}: {} ≤ measured", e.key(), SCENARIO_NAMES[i]);
                assert!(
                    w >= busy_bound,
                    "{}: {} ≥ busy bound",
                    e.key(),
                    SCENARIO_NAMES[i]
                );
            }
        }
        // Determinism: measuring again reproduces the snapshot bit-exactly.
        let again = measure().unwrap();
        assert_eq!(entries, again);
    }

    #[test]
    fn measure_is_jobs_invariant() {
        // The parallel path must reproduce the serial snapshot bit for
        // bit, in the same pinned order — otherwise routing `bench
        // critpath` through the pool would churn BENCH_critpath.json.
        let serial = measure().unwrap();
        let parallel = measure_with_jobs(4).unwrap();
        assert_eq!(serial, parallel);
    }
}
