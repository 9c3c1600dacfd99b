//! The engine-throughput gate behind `bench perf`: times the pinned
//! workload matrix in host CPU, snapshots each cell's work counts and
//! CPU nanoseconds per event to `BENCH_engine.json`, and gates changes
//! against the committed baseline with a *relative* tolerance (through
//! [`crate::gate`]).
//!
//! Unlike `bench regress` (which compares bit-deterministic simulated
//! numbers), this gate measures host throughput, which varies with the
//! host. Three things make the gate portable anyway:
//!
//! * each cell's work counts — engine events, line accesses and
//!   directory transactions — are deterministic and compared exactly
//!   ([`Check::Exact`]): a change means the engine's work changed, not
//!   the machine speed;
//! * a cell is timed in process CPU (every thread's user + system time),
//!   not on the wall clock, as the minimum over `reps` windows of at
//!   least 200 ms of CPU each, so time spent waiting for a core neither
//!   counts nor decides the verdict;
//! * ns-per-event is [`Check::Slower`]: judged *after* dividing out the
//!   matrix-wide geometric-mean speed factor between baseline and
//!   current host, so a uniformly slower runner passes, and one-sided,
//!   so only per-cell *relative slowdowns* fail.
//!
//! Where host time goes *inside* a run is simbench's per-layer metrics
//! (`simbench/`) times these counts.

use std::time::Instant;

use ccnuma_sim::config::MachineConfig;
use ccnuma_sim::json;
use ccnuma_sim::stats::RunStats;
use scaling_study::experiments::{basic, Scale};
use scaling_study::runner::{execute_workload, StudyError};

use crate::gate::{Check, Entry, Field, Gate};
use crate::regress::points;

/// The `bench perf` gate: per cell, the work counts (exact) and the
/// host CPU ns per event (one-sided, relative to the matrix). The
/// default tolerance is far looser than the accuracy gates' 2%: host
/// throughput on shared CI runners jitters by tens of percent.
pub const GATE: Gate = Gate {
    verb: "perf",
    baseline: "BENCH_engine.json",
    tolerance: 0.35,
    fields: &[
        Field::scalar("events", Check::Exact).labelled("engine events"),
        Field::scalar("accesses", Check::Exact).labelled("line accesses"),
        Field::scalar("dir_txns", Check::Exact).labelled("directory transactions"),
        Field::scalar("ns_per_event", Check::Slower).labelled("ns/event"),
    ],
};

/// Default timing windows per cell.
pub const DEFAULT_REPS: usize = 3;

/// The host CPU one timing window must cover. `USER_HZ` ticks are 10
/// ms, so tick rounding moves a window by at most 5%.
const WINDOW_NS: u64 = 200_000_000;

/// This process's CPU time so far (`/proc/self/stat` utime + stime, over
/// every thread, live or exited), in nanoseconds.
fn process_cpu_ns() -> Option<u64> {
    stat_cpu_ns(&std::fs::read_to_string("/proc/self/stat").ok()?)
}

/// utime + stime of a `/proc/<pid>/stat` line, in nanoseconds; `None`
/// if the line is malformed.
fn stat_cpu_ns(stat: &str) -> Option<u64> {
    // The command name (field 2) may hold spaces and parentheses; the
    // fields restart after its last `)`, at field 3. utime and stime
    // are fields 14 and 15, in `USER_HZ` (100 Hz) ticks.
    let mut fields = stat[stat.rfind(')')? + 1..].split_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) * 10_000_000)
}

/// Host CPU nanoseconds per call of `work(i)`, for every item `i < n`:
/// the minimum over `reps` windows, each repeating `work(i)` until the
/// process has used [`WINDOW_NS`] of CPU. Interference only ever adds
/// time, so the minimum keeps the cleanest window. Windows run round
/// robin — window `r` of every item before window `r + 1` of any — so a
/// host whose speed drifts over seconds (turbo, co-tenants) exposes
/// every item to the same fast and slow stretches. Where process CPU
/// cannot be read, a window closes on the wall clock instead, so it
/// always ends.
fn min_cpu_per_call(
    n: usize,
    reps: usize,
    mut work: impl FnMut(usize) -> Result<(), StudyError>,
) -> Result<Vec<u64>, StudyError> {
    let mut best = vec![u64::MAX; n];
    for _ in 0..reps.max(1) {
        for (i, best) in best.iter_mut().enumerate() {
            let (cpu0, wall0) = (process_cpu_ns(), Instant::now());
            let mut calls = 0u64;
            let used = loop {
                work(i)?;
                calls += 1;
                let used = match (cpu0, process_cpu_ns()) {
                    (Some(a), Some(b)) => b.saturating_sub(a),
                    _ => wall0.elapsed().as_nanos() as u64,
                };
                if used >= WINDOW_NS {
                    break used;
                }
            };
            *best = (*best).min(used / calls);
        }
    }
    Ok(best)
}

/// A cell's work counts, in [`GATE`] order: engine events, line
/// accesses (`reads + writes`) and directory transactions (`misses +
/// upgrades`).
fn work_counts(stats: &RunStats) -> [u64; 3] {
    [
        stats.events,
        stats.total(|p| p.reads + p.writes),
        stats.total(|p| p.misses() + p.upgrades),
    ]
}

/// Times the pinned matrix, one cell at a time (process CPU cannot be
/// split between cells running at once): per cell, the minimum over
/// `reps` windows of host CPU per run, divided by its event count.
///
/// # Errors
///
/// Propagates the first simulation or verification failure, and fails
/// if a cell's work counts differ between two of its runs.
pub fn measure(reps: usize) -> Result<Vec<Entry>, StudyError> {
    let scale = Scale::Quick;
    let cells: Vec<_> = points()
        .into_iter()
        .map(|(id, np)| {
            let cfg = MachineConfig::origin2000_scaled(np, scale.cache_bytes());
            (basic(id, scale), cfg)
        })
        .collect();
    let mut counts: Vec<Option<[u64; 3]>> = vec![None; cells.len()];
    let ns = min_cpu_per_call(cells.len(), reps, |i| {
        let (w, cfg) = &cells[i];
        let (_, stats) = execute_workload(w.as_ref(), cfg.clone())?;
        let now = work_counts(&stats);
        match counts[i].replace(now) {
            Some(was) if was != now => Err(StudyError::Verify(format!(
                "{}/{}/{}p: work counts [events, accesses, dir_txns] changed \
                 between runs: {was:?} then {now:?}",
                w.name(),
                w.problem(),
                cfg.nprocs
            ))),
            _ => Ok(()),
        }
    })?;
    Ok(cells
        .iter()
        .zip(counts)
        .zip(ns)
        .map(|(((w, cfg), counts), ns)| {
            let [events, accesses, dir_txns] = counts.expect("every cell ran");
            Entry {
                app: w.name(),
                problem: w.problem(),
                nprocs: cfg.nprocs,
                values: vec![
                    vec![events],
                    vec![accesses],
                    vec![dir_txns],
                    vec![ns / events.max(1)],
                ],
            }
        })
        .collect())
}

/// Serializes entries as the `BENCH_engine.json` document. The model
/// fingerprint pins which engine produced the numbers; a fingerprint
/// bump forces a baseline regeneration rather than a spurious drift
/// report.
pub fn to_json(reps: usize, entries: &[Entry]) -> String {
    let header = [
        ("model", json::quote(ccnuma_sim::MODEL_FINGERPRINT)),
        ("reps", reps.to_string()),
    ];
    GATE.to_json(&header, entries)
}

/// Parses a `BENCH_engine.json` document produced by [`to_json`];
/// returns `(model, reps, entries)`.
///
/// # Errors
///
/// Returns a description of the first malformed field found.
pub fn parse(doc: &str) -> Result<(String, usize, Vec<Entry>), String> {
    let model = json::str_field(doc, "model")?;
    let reps = json::num_field(doc, "reps")? as usize;
    Ok((model, reps, GATE.parse(doc)?))
}

/// Compares `current` against `baseline` with [`GATE`], after checking
/// that both came from the same engine model. Returns one message per
/// violation; empty means the gate passes.
pub fn compare(model: &str, baseline: &[Entry], current: &[Entry], tolerance: f64) -> Vec<String> {
    if model != ccnuma_sim::MODEL_FINGERPRINT {
        return vec![format!(
            "model fingerprint changed (baseline {model:?}, current {:?}): \
             regenerate with `bench perf`",
            ccnuma_sim::MODEL_FINGERPRINT
        )];
    }
    GATE.compare(baseline, current, tolerance)
}

/// Renders the per-cell throughput table.
pub fn table(entries: &[Entry]) -> String {
    let mut out = format!(
        "{:<38} {:>8} {:>9} {:>9} {:>9} {:>8}\n",
        "cell", "events", "accesses", "dir_txns", "ns/event", "Mev/s"
    );
    for e in entries {
        let ns = GATE.get(e, "ns_per_event")[0];
        out.push_str(&format!(
            "{:<38} {:>8} {:>9} {:>9} {:>9} {:>8.2}\n",
            e.key(),
            GATE.get(e, "events")[0],
            GATE.get(e, "accesses")[0],
            GATE.get(e, "dir_txns")[0],
            ns,
            if ns == 0 { 0.0 } else { 1e3 / ns as f64 }
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Field indices into [`Entry::values`], in [`GATE`] order.
    const EVENTS: usize = 0;
    const ACCESSES: usize = 1;
    const NS_PER_EVENT: usize = 3;

    /// A cell with `events` events, ten accesses and one directory
    /// transaction per event, and `ns` per event.
    fn entry(app: &str, np: usize, events: u64, ns: u64) -> Entry {
        Entry {
            app: app.into(),
            problem: "p".into(),
            nprocs: np,
            values: vec![vec![events], vec![10 * events], vec![events], vec![ns]],
        }
    }

    #[test]
    fn uniform_machine_slowdown_passes_the_gate() {
        let base = vec![entry("fft", 4, 100, 200), entry("ocean", 8, 300, 400)];
        // A 3x slower host, same per-cell shape: the speed factor
        // absorbs it entirely.
        let mut slow = base.clone();
        for e in &mut slow {
            e.values[NS_PER_EVENT][0] *= 3;
        }
        let msgs = compare(ccnuma_sim::MODEL_FINGERPRINT, &base, &slow, 0.05);
        assert!(msgs.is_empty(), "{msgs:?}");
    }

    #[test]
    fn per_cell_skew_and_event_changes_fail_the_gate() {
        let base = vec![
            entry("fft", 4, 100, 200),
            entry("ocean", 8, 300, 400),
            entry("radix", 4, 500, 100),
        ];
        let mut cur = base.clone();
        cur[0].values[NS_PER_EVENT][0] = 600; // 3x this cell only
        cur[1].values[EVENTS][0] = 999; // deterministic count changed
        cur[2].values[ACCESSES][0] += 1; // so is this one
        let msgs = compare(ccnuma_sim::MODEL_FINGERPRINT, &base, &cur, 0.35);
        assert!(
            msgs.iter()
                .any(|m| m.contains("fft/p/4p") && m.contains("ns/event drifted")),
            "{msgs:?}"
        );
        assert!(
            msgs.iter()
                .any(|m| m.contains("ocean/p/8p") && m.contains("events changed")),
            "{msgs:?}"
        );
        assert!(
            msgs.iter()
                .any(|m| m.contains("radix/p/4p") && m.contains("line accesses changed")),
            "{msgs:?}"
        );
    }

    #[test]
    fn one_much_faster_cell_passes_the_gate() {
        // The pinned matrix's eight cells; one runs 3x faster. Dividing
        // out the speed factor makes the other seven read 3^(1/8) - 1 =
        // 14.7% relatively slower, inside the default tolerance, and the
        // fast cell itself is no regression.
        let base: Vec<Entry> = points()
            .iter()
            .map(|&(app, np)| entry(app, np, 1_000, 9_000))
            .collect();
        let mut cur = base.clone();
        cur[5].values[NS_PER_EVENT][0] = 3_000;
        let msgs = compare(ccnuma_sim::MODEL_FINGERPRINT, &base, &cur, GATE.tolerance);
        assert!(msgs.is_empty(), "{msgs:?}");
    }

    #[test]
    fn shape_and_model_changes_are_flagged() {
        let base = vec![entry("fft", 4, 100, 200), entry("ocean", 8, 300, 400)];
        let cur = vec![entry("fft", 4, 100, 200), entry("radix", 4, 500, 100)];
        let msgs = compare(ccnuma_sim::MODEL_FINGERPRINT, &base, &cur, 0.35);
        assert!(
            msgs.iter().any(|m| m.contains("ocean/p/8p: missing")),
            "{msgs:?}"
        );
        assert!(
            msgs.iter()
                .any(|m| m.contains("radix/p/4p: not in baseline")),
            "{msgs:?}"
        );
        let msgs = compare("some-old-model", &base, &base, 0.35);
        assert_eq!(msgs.len(), 1, "{msgs:?}");
        assert!(msgs[0].contains("model fingerprint changed"), "{msgs:?}");
    }

    #[test]
    fn committed_baseline_parses_unchanged() {
        let doc = include_str!("../../../BENCH_engine.json");
        let (model, reps, entries) = parse(doc).unwrap();
        assert_eq!(model, ccnuma_sim::MODEL_FINGERPRINT);
        assert_eq!(
            to_json(reps, &entries),
            doc,
            "writer reproduces it byte for byte"
        );
    }

    #[test]
    fn measure_covers_matrix_with_deterministic_events() {
        let a = measure(1).unwrap();
        assert_eq!(a.len(), points().len());
        for e in &a {
            assert!(e.values.iter().all(|v| v[0] > 0), "{}", e.key());
        }
        // The timed field varies run to run; the work counts must not.
        let b = measure(1).unwrap();
        let counts = |v: &[Entry]| -> Vec<(String, Vec<Vec<u64>>)> {
            v.iter()
                .map(|e| (e.key(), e.values[..NS_PER_EVENT].to_vec()))
                .collect()
        };
        assert_eq!(counts(&a), counts(&b), "work counts are deterministic");
    }

    #[test]
    fn stat_reader_skips_the_command_name_and_rejects_truncation() {
        // utime 7 and stime 3 ticks of 10 ms, behind a command name
        // holding spaces and a `)`.
        let line = "1 (a b) c) R 1 1 1 0 -1 4194304 10 0 0 0 7 3 0 0 20 0 1 0 5";
        assert_eq!(stat_cpu_ns(line), Some(100_000_000));
        // A truncated line gives no reading, so windows fall back to the
        // wall clock.
        assert_eq!(
            stat_cpu_ns("1 (a b) c) R 1 1 1 0 -1 4194304 10 0 0 0 7"),
            None
        );
        assert_eq!(stat_cpu_ns("1 (a b"), None);
    }
}
