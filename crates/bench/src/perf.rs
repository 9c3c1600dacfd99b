//! The engine-throughput gate behind `bench perf`: times the pinned
//! workload matrix on the host clock, snapshots events and ns-per-event
//! to `BENCH_engine.json`, and gates changes against the committed
//! baseline with a *relative* tolerance (through [`crate::gate`]).
//!
//! Unlike `bench regress` (which compares bit-deterministic simulated
//! numbers), this gate measures wall-clock throughput, which varies
//! with the host. Two things make the gate portable anyway:
//!
//! * the per-cell engine-event count is deterministic and compared
//!   exactly ([`Check::Exact`]) — a change means the engine's work
//!   changed, not the machine speed;
//! * ns-per-event is [`Check::Slower`]: judged *after* dividing out the
//!   matrix-wide geometric-mean speed factor between baseline and
//!   current host, so a uniformly slower runner passes, and one-sided,
//!   so only per-cell *relative slowdowns* fail.

use std::time::Instant;

use ccnuma_sim::config::MachineConfig;
use ccnuma_sim::json;
use ccnuma_sim::prof::{self, HostProfile};
use scaling_study::experiments::{basic, Scale};
use scaling_study::runner::{execute_workload, StudyError};

use crate::gate::{Check, Entry, Field, Gate};
use crate::regress::points;

/// The `bench perf` gate: per cell, the engine-event count (exact) and
/// the median host ns per event (one-sided, relative to the matrix).
/// The default tolerance is far looser than the accuracy gates' 2%:
/// wall clocks on shared CI runners jitter by tens of percent.
pub const GATE: Gate = Gate {
    verb: "perf",
    baseline: "BENCH_engine.json",
    tolerance: 0.35,
    fields: &[
        Field::scalar("events", Check::Exact).labelled("engine events"),
        Field::scalar("ns_per_event", Check::Slower).labelled("ns/event"),
    ],
};

/// Default timed repetitions per cell (a discarded warmup rep runs
/// first).
pub const DEFAULT_REPS: usize = 3;

/// Optional-subsystem overhead modes measured by
/// [`measure_overheads`], in report order. `"baseline"` (all off) is
/// implicit; `"live"` runs the full telemetry wiring (registry +
/// refresher) beside an unmodified config.
pub const OVERHEAD_MODES: &[&str] = &["attrib", "trace", "sanitize", "profile", "live"];

/// One row of the subsystem-overhead report.
#[derive(Debug, Clone, PartialEq)]
pub struct OverheadEntry {
    /// Mode name (`"baseline"` or one of [`OVERHEAD_MODES`]).
    pub mode: &'static str,
    /// Summed per-cell host nanoseconds for one matrix pass.
    pub total_ns: u64,
    /// Percent overhead versus the all-off baseline pass.
    pub overhead_pct: f64,
}

/// The cell's machine config with one optional subsystem switched on.
fn mode_config(np: usize, scale: Scale, mode: &str) -> MachineConfig {
    let mut cfg = MachineConfig::origin2000_scaled(np, scale.cache_bytes());
    match mode {
        "attrib" => cfg.classify_misses = true,
        "trace" => cfg.trace = ccnuma_sim::trace::TraceConfig::on(),
        "sanitize" => cfg.sanitize.enabled = true,
        "profile" => cfg.profile = true,
        _ => {}
    }
    cfg
}

/// Times the pinned matrix: per cell, one discarded warmup rep then
/// `reps` timed reps, reporting the median. Cells fan out over `jobs`
/// host threads (each cell's reps stay on one thread).
///
/// # Errors
///
/// Propagates the first simulation or verification failure in matrix
/// order.
pub fn measure_with_jobs(jobs: usize, reps: usize) -> Result<Vec<Entry>, StudyError> {
    let scale = Scale::Quick;
    let reps = reps.max(1);
    let (results, _) = ccnuma_sweep::pool::run(&points(), jobs, |&(id, np)| {
        let w = basic(id, scale);
        let cfg = mode_config(np, scale, "baseline");
        let mut times = Vec::with_capacity(reps);
        let mut events = 0u64;
        for rep in 0..=reps {
            let t = Instant::now();
            let (_, stats) = execute_workload(w.as_ref(), cfg.clone())?;
            let dt = t.elapsed().as_nanos() as u64;
            debug_assert!(
                rep == 0 || events == stats.events,
                "events are deterministic"
            );
            events = stats.events;
            if rep > 0 {
                times.push(dt); // warmup rep discarded
            }
        }
        times.sort_unstable();
        let median = times[times.len() / 2];
        Ok(Entry {
            app: w.name(),
            problem: w.problem(),
            nprocs: np,
            values: vec![vec![events], vec![median / events.max(1)]],
        })
    });
    results.into_iter().collect()
}

/// One single-rep pass over the matrix in `mode`; returns the per-cell
/// host nanoseconds in matrix order (per-cell times keep the numbers
/// comparable at any job count, unlike the pass's wall clock).
fn matrix_pass(jobs: usize, mode: &str) -> Result<Vec<u64>, StudyError> {
    let scale = Scale::Quick;
    let (results, _) =
        ccnuma_sweep::pool::run(&points(), jobs, |&(id, np)| -> Result<u64, StudyError> {
            let w = basic(id, scale);
            let cfg = mode_config(np, scale, mode);
            let t = Instant::now();
            execute_workload(w.as_ref(), cfg)?;
            Ok(t.elapsed().as_nanos() as u64)
        });
    results.into_iter().collect()
}

/// Measures the host-time cost of each optional subsystem by comparing
/// a composite matrix pass of each mode against the all-off baseline.
/// Three defenses against host noise: the composite is the sum of
/// *per-cell minima* across passes (scheduler interference only ever
/// adds time, and taking the minimum per cell discards it cell by cell
/// instead of requiring one whole pass to get lucky end to end);
/// passes are *round-robin interleaved* — pass `i` of every mode runs
/// before pass `i+1` of any, so a machine whose speed drifts over
/// seconds (turbo, co-tenants) exposes every mode to the same fast and
/// slow windows; and the caller picks the pass count. The `"live"` row
/// runs the full telemetry wiring (registry, refresher, rate pipeline)
/// for the duration of its passes.
///
/// # Errors
///
/// Propagates the first simulation or verification failure.
pub fn measure_overheads(jobs: usize, passes: usize) -> Result<Vec<OverheadEntry>, StudyError> {
    let passes = passes.max(1);
    let n_cells = points().len();
    let mut best = vec![vec![u64::MAX; n_cells]; OVERHEAD_MODES.len() + 1];
    let fold = |best: &mut Vec<u64>, pass: Vec<u64>| {
        for (b, t) in best.iter_mut().zip(pass) {
            *b = (*b).min(t);
        }
    };
    for _ in 0..passes {
        let pass = matrix_pass(jobs, "baseline")?;
        fold(&mut best[0], pass);
        for (i, &mode) in OVERHEAD_MODES.iter().enumerate() {
            let wiring = (mode == "live")
                .then(|| crate::live::Wiring::start(std::time::Duration::from_millis(100)));
            let pass = matrix_pass(jobs, mode);
            if let Some(w) = wiring {
                w.stop();
            }
            fold(&mut best[i + 1], pass?);
        }
    }
    let base: u64 = best[0].iter().sum();
    let mut out = vec![OverheadEntry {
        mode: "baseline",
        total_ns: base,
        overhead_pct: 0.0,
    }];
    for (i, &mode) in OVERHEAD_MODES.iter().enumerate() {
        let total: u64 = best[i + 1].iter().sum();
        out.push(OverheadEntry {
            mode,
            total_ns: total,
            overhead_pct: 100.0 * (total as f64 / base.max(1) as f64 - 1.0),
        });
    }
    Ok(out)
}

/// Runs one profiled pass over the matrix (`cfg.profile = on`) and
/// hands back the drained aggregate host profile — the input for the
/// Chrome-trace and collapsed-stack exports.
///
/// # Errors
///
/// Propagates the first simulation or verification failure.
pub fn profile_matrix(jobs: usize) -> Result<HostProfile, StudyError> {
    prof::reset();
    matrix_pass(jobs, "profile")?;
    Ok(prof::take())
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
    let mut out =
        String::from("cell                                    events    ns/event      Mev/s\n");
    for e in entries {
        let ns = GATE.get(e, "ns_per_event")[0];
        out.push_str(&format!(
            "{:<38} {:>8} {:>11} {:>10.2}\n",
            e.key(),
            GATE.get(e, "events")[0],
            ns,
            if ns == 0 { 0.0 } else { 1e3 / ns as f64 }
        ));
    }
    out
}

/// Renders the subsystem-overhead table.
pub fn overhead_table(rows: &[OverheadEntry]) -> String {
    let mut out = String::from("subsystem    total host ms   overhead\n");
    for r in rows {
        out.push_str(&format!(
            "{:<12} {:>13.1} {:>+9.1}%\n",
            r.mode,
            r.total_ns as f64 / 1e6,
            r.overhead_pct
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Field indices into [`Entry::values`], in [`GATE`] order.
    const EVENTS: usize = 0;
    const NS_PER_EVENT: usize = 1;

    fn entry(app: &str, np: usize, events: u64, ns: u64) -> Entry {
        Entry {
            app: app.into(),
            problem: "p".into(),
            nprocs: np,
            values: vec![vec![events], vec![ns]],
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
        let a = measure_with_jobs(2, 1).unwrap();
        assert_eq!(a.len(), points().len());
        for e in &a {
            assert!(e.values[EVENTS][0] > 0, "{}", e.key());
            assert!(e.values[NS_PER_EVENT][0] > 0, "{}", e.key());
        }
        // The timed half varies run to run; the event counts must not.
        let b = measure_with_jobs(1, 1).unwrap();
        let events = |v: &[Entry]| -> Vec<(String, u64)> {
            v.iter().map(|e| (e.key(), e.values[EVENTS][0])).collect()
        };
        assert_eq!(events(&a), events(&b), "events are jobs- and rep-invariant");
    }
}
