//! The host profiler, end to end: the observer-passivity pin
//! (`cfg.profile` on or off, a run is bit-identical), the region
//! coverage of a profiled run, and the exports over real data.
//!
//! The profiler's aggregation pool is process-global, so every test
//! touching it serializes on `PROF_LOCK`.

use std::sync::Mutex;

use ccnuma_sim::prof::{self, Region};
use ccnuma_sweep::matrix::MatrixSpec;
use scaling_study::runner::execute_workload;

static PROF_LOCK: Mutex<()> = Mutex::new(());

/// The pin the tentpole stands on: `profile` observes host time and
/// never participates in the simulation. The same cell with the knob
/// off and on must produce bit-identical `RunStats`, the same virtual
/// wall clock, and the same `RunKey` hash — while the profiled run
/// actually collects data.
#[test]
fn profile_knob_is_observer_passive() {
    let _g = PROF_LOCK.lock().unwrap();
    let spec = MatrixSpec::parse("apps=ocean versions=orig procs=4")
        .unwrap()
        .cells()
        .remove(0);
    let w = spec.workload().unwrap();
    let cfg_off = spec.machine();
    let mut cfg_on = spec.machine();
    cfg_on.profile = true;
    assert_eq!(
        cfg_off.stable_fingerprint(),
        cfg_on.stable_fingerprint(),
        "profile is excluded from the stable fingerprint (RunKey)"
    );

    prof::reset();
    let (ns_off, stats_off) = execute_workload(w.as_ref(), cfg_off).expect("bare run");
    assert!(
        prof::snapshot().is_empty(),
        "profile off must record nothing"
    );

    let (ns_on, stats_on) = execute_workload(w.as_ref(), cfg_on).expect("profiled run");
    assert_eq!(ns_off, ns_on, "wall clock must not see the profiler");
    assert_eq!(stats_off, stats_on, "RunStats must be bit-identical");

    let p = prof::take();
    assert!(!p.is_empty(), "profile on must collect data");
    let dispatch = &p.regions[Region::EngineDispatch.index()];
    assert_eq!(
        dispatch.calls, stats_on.events,
        "one dispatch span per engine event"
    );
    let memsys = &p.regions[Region::MemsysService.index()];
    assert!(memsys.calls > 0, "memsys service spans under dispatch");
    // Self/child accounting: dispatch's self time excludes nested
    // memsys time, so it is strictly below its total.
    assert!(
        dispatch.self_ns <= dispatch.total_ns,
        "self <= total for the root region"
    );
    // Optional subsystems were off, so their regions stayed silent.
    for r in [Region::Attrib, Region::Sanitize, Region::Trace] {
        assert_eq!(p.regions[r.index()].calls, 0, "{} off", r.name());
    }
}

/// A profiled run's exports render real data: the text table names the
/// hot regions, the collapsed form has `parent;child count` lines, and
/// the Chrome trace is a complete JSON document.
#[test]
fn profiled_run_exports_render() {
    let _g = PROF_LOCK.lock().unwrap();
    let spec = MatrixSpec::parse("apps=fft versions=orig procs=4")
        .unwrap()
        .cells()
        .remove(0);
    let mut cfg = spec.machine();
    cfg.profile = true;
    prof::reset();
    execute_workload(spec.workload().unwrap().as_ref(), cfg).expect("profiled run");
    let p = prof::take();

    let table = p.text_table();
    assert!(table.contains("engine_dispatch"), "{table}");
    assert!(table.contains("memsys_service"), "{table}");

    let collapsed = p.collapsed();
    assert!(
        collapsed
            .lines()
            .any(|l| l.starts_with("engine_dispatch;memsys_service ")),
        "{collapsed}"
    );

    let chrome = p.chrome_trace();
    assert!(chrome.starts_with("{\"traceEvents\":["), "{chrome}");
    assert!(chrome.contains("\"engine_dispatch\""), "{chrome}");
    assert!(chrome.trim_end().ends_with('}'), "{chrome}");
}
