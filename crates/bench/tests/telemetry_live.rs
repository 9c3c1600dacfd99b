//! Live telemetry, end to end: the observer-passivity pin (telemetry
//! on or off, a run is bit-identical), the crash-safe epoch log, the
//! HTTP endpoints over a real sweep, and trace-gauge reconciliation.

use std::path::PathBuf;
use std::time::Duration;

use ccnuma_sweep::matrix::MatrixSpec;
use ccnuma_sweep::{sweep, SweepConfig};
use ccnuma_telemetry::hub::HubConfig;
use scaling_study::runner::execute_workload;
use study_bench::live;

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bench-telemetry-{}-{name}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The pin behind the whole design: telemetry observes and never
/// participates. The same cell, simulated with no observer and then
/// with the full stack running (epoch loop and counter mirror at a hot
/// 2 ms epoch, HTTP server, JSONL epoch log), must produce bit-identical
/// `RunStats`, the same wall clock, the same attribution JSON, and the
/// same `RunKey` hash.
#[test]
fn telemetry_is_observer_passive() {
    let spec = MatrixSpec::parse("apps=fft versions=orig procs=4 attrib=on")
        .unwrap()
        .cells()
        .remove(0);
    let key_off = spec.key().hash_hex();
    let (ns_off, stats_off) =
        execute_workload(spec.workload().unwrap().as_ref(), spec.machine()).expect("bare run");
    let attrib_off = scaling_study::report::attrib_json(&spec.label(), &stats_off);

    let log = temp_dir("passive").join("epochs.jsonl");
    let hub = live::start_hub(HubConfig {
        epoch: Duration::from_millis(2),
        addr: Some("127.0.0.1:0".into()),
        log_path: Some(log),
    })
    .expect("hub starts");
    let (ns_on, stats_on) =
        execute_workload(spec.workload().unwrap().as_ref(), spec.machine()).expect("observed run");
    let key_on = spec.key().hash_hex();
    hub.shutdown();

    assert_eq!(ns_off, ns_on, "wall clock must not see the observer");
    assert_eq!(stats_off, stats_on, "RunStats must be bit-identical");
    assert_eq!(
        attrib_off,
        scaling_study::report::attrib_json(&spec.label(), &stats_on),
        "attribution JSON must be bit-identical"
    );
    assert_eq!(key_off, key_on, "RunKey is telemetry-independent");
}

/// A real quick sweep with the epoch log on: every JSONL record must
/// parse, `seq` must be strictly increasing, `t_ms` monotone, and the
/// final record must account for every cell.
#[test]
fn live_log_is_parseable_and_monotone() {
    let dir = temp_dir("log");
    let log = dir.join("epochs.jsonl");
    let matrix = MatrixSpec::parse("apps=fft versions=orig procs=2,4").unwrap();
    let cells = matrix.cells().len();

    let hub = live::start_hub(HubConfig {
        epoch: Duration::from_millis(5),
        addr: None,
        log_path: Some(log.clone()),
    })
    .expect("hub starts");
    let mut cfg = SweepConfig {
        jobs: 2,
        store_path: dir.join("results.jsonl"),
        ..Default::default()
    };
    cfg.events = Some(live::recorder(
        hub.registry(),
        cells,
        Some(hub.handle()),
        false,
    ));
    let out = sweep(&matrix, &cfg).expect("sweep runs");
    assert_eq!(out.executed, cells);
    live::ingest_traces(hub.registry(), &out.gauges);
    hub.shutdown();

    let text = std::fs::read_to_string(&log).expect("log written");
    let lines: Vec<&str> = text.lines().collect();
    assert!(!lines.is_empty(), "at least the final epoch is logged");
    let mut prev_seq = 0u64;
    let mut prev_t = 0u64;
    for line in &lines {
        let rec = live::parse_epoch_record(line)
            .unwrap_or_else(|| panic!("unparseable epoch record: {line}"));
        assert!(rec.seq > prev_seq, "seq must strictly increase");
        assert!(rec.t_ms >= prev_t, "t_ms must be monotone");
        prev_seq = rec.seq;
        prev_t = rec.t_ms;
    }
    let last = live::last_log_record(&log).expect("final record");
    assert_eq!(
        last.get("sweep_cells_done_total{status=ok}"),
        Some(cells as f64),
        "final epoch accounts for every cell: {last:?}"
    );
    assert!(
        last.get("sim_runs_finished_total").unwrap_or(0.0) >= cells as f64,
        "sim-layer counters flowed into the same log: {last:?}"
    );
}

/// The HTTP endpoints over real sweep data: /metrics is well-formed
/// Prometheus exposition, /snapshot parses as an epoch record, and
/// both agree with what the sweep did.
#[test]
fn endpoints_serve_real_sweep_data() {
    use std::io::{Read, Write};

    let dir = temp_dir("http");
    let matrix = MatrixSpec::parse("apps=fft versions=orig procs=2").unwrap();
    let hub = live::start_hub(HubConfig {
        epoch: Duration::from_millis(5),
        addr: Some("127.0.0.1:0".into()),
        log_path: None,
    })
    .expect("hub starts");
    let addr = hub.local_addr().expect("bound");

    let mut cfg = SweepConfig {
        store_path: dir.join("results.jsonl"),
        ..Default::default()
    };
    cfg.events = Some(live::recorder(hub.registry(), 1, Some(hub.handle()), false));
    sweep(&matrix, &cfg).expect("sweep runs");
    // One epoch so the registry has mirrored the final state.
    std::thread::sleep(Duration::from_millis(30));

    let mut s = std::net::TcpStream::connect(addr).unwrap();
    write!(
        s,
        "GET /metrics HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"
    )
    .unwrap();
    let mut metrics = String::new();
    s.read_to_string(&mut metrics).unwrap();
    assert!(metrics.starts_with("HTTP/1.1 200 OK\r\n"), "{metrics}");
    assert!(
        metrics.contains("# TYPE sim_events_total counter"),
        "{metrics}"
    );
    assert!(
        metrics.contains("sweep_cells_done_total{status=\"ok\"} 1"),
        "{metrics}"
    );
    assert!(
        metrics.contains("sweep_cell_host_ms_bucket{le=\"+Inf\"} 1"),
        "{metrics}"
    );

    let snap = live::fetch_snapshot(&addr.to_string()).expect("snapshot parses");
    assert_eq!(snap.get("sweep_cells_done_total{status=ok}"), Some(1.0));
    assert!(
        snap.get("sim_accesses_total").unwrap_or(0.0) > 0.0,
        "{snap:?}"
    );

    hub.shutdown();
}

/// Trace gauges flow from a really-traced run into the registry and
/// reconcile exactly — one source of truth for occupancy numbers.
#[test]
fn trace_gauges_reconcile_from_a_real_run() {
    let dir = temp_dir("gauges");
    let matrix = MatrixSpec::parse("apps=fft versions=orig procs=4 trace=on").unwrap();
    let cfg = SweepConfig {
        store_path: dir.join("results.jsonl"),
        ..Default::default()
    };
    let out = sweep(&matrix, &cfg).expect("sweep runs");
    assert_eq!(out.gauges.len(), 1, "one traced cell hands back gauges");
    let (label, samples) = &out.gauges[0];
    assert!(!samples.is_empty(), "traced run sampled at least one epoch");

    let registry = ccnuma_telemetry::Registry::new();
    let last = live::ingest_gauges(&registry, label, samples).expect("samples ingest");
    assert_eq!(live::reconcile(&registry, label, &last), Ok(()));
}
