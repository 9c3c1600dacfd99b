//! End-to-end daemon behavior: many clients, one shared
//! content-addressed cache.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::time::Duration;

use ccnuma_sweep::matrix::MatrixSpec;
use ccnuma_sweep::store::{CellRecord, Store};
use ccnuma_sweep::{sweep, SweepConfig};
use ccnuma_sweepd::{client, Daemon, DaemonConfig};
use ccnuma_telemetry::registry::Registry;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ccnuma-sweepd-test-{}-{tag}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn start_daemon(tag: &str, workers: usize) -> (Daemon, String, PathBuf) {
    let store_path = temp_dir(tag).join("store.jsonl");
    let _ = std::fs::remove_file(&store_path);
    let daemon = Daemon::start(
        DaemonConfig {
            addr: "127.0.0.1:0".into(),
            store_path: store_path.clone(),
            workers,
            ..DaemonConfig::default()
        },
        Registry::new(),
    )
    .expect("daemon start");
    let addr = daemon.local_addr().to_string();
    (daemon, addr, store_path)
}

/// Strips host-side timing so records from different processes compare
/// on simulated results only.
fn normalize(mut rec: CellRecord) -> CellRecord {
    rec.host_ms = 0;
    rec
}

#[test]
fn two_clients_share_one_cache_and_resubmission_is_free() {
    let (daemon, addr, store_path) = start_daemon("share", 2);

    // Two overlapping matrices: fft/orig/4p is in both.
    let dsl_a = "apps=fft versions=orig procs=2,4 scale=quick";
    let dsl_b = "apps=fft,ocean versions=orig procs=4 scale=quick";
    let (st_a, st_b) = std::thread::scope(|scope| {
        let addr_a = addr.clone();
        let a = scope.spawn(move || {
            let resp = client::submit(&addr_a, dsl_a).expect("submit a");
            assert_eq!(resp.cells, 2);
            client::wait(&addr_a, resp.job, Duration::from_millis(50)).expect("wait a")
        });
        let addr_b = addr.clone();
        let b = scope.spawn(move || {
            let resp = client::submit(&addr_b, dsl_b).expect("submit b");
            assert_eq!(resp.cells, 2);
            client::wait(&addr_b, resp.job, Duration::from_millis(50)).expect("wait b")
        });
        (a.join().expect("client a"), b.join().expect("client b"))
    });
    assert!(st_a.complete && st_b.complete);
    assert!(st_a.quarantined.is_empty(), "{:?}", st_a.quarantined);
    assert!(st_b.quarantined.is_empty(), "{:?}", st_b.quarantined);

    // The overlapping cell simulated exactly once: both clients hold
    // the *same* record, bit for bit (host timing included — it is the
    // one shared simulation, not two that happened to agree).
    let rec_a = st_a.records[1].clone().expect("fft/orig/4p via client a");
    let rec_b = st_b.records[0].clone().expect("fft/orig/4p via client b");
    assert_eq!(rec_a.label, "fft/orig/4p");
    assert_eq!(rec_a, rec_b, "overlapping cell is one shared record");

    // Three distinct keys total across both matrices.
    let metrics = client::get(&addr, "/metrics").expect("metrics");
    assert!(
        metrics.contains("sweepd_cells_simulated_total 3"),
        "exactly 3 distinct cells simulated:\n{metrics}"
    );

    // Same RunKey fingerprints and simulated results as an in-process
    // sweep of the same matrix (host timing naturally differs).
    let inproc_store = temp_dir("share-inproc").join("store.jsonl");
    let _ = std::fs::remove_file(&inproc_store);
    let matrix = MatrixSpec::parse(dsl_a).unwrap();
    let inproc = sweep(
        &matrix,
        &SweepConfig {
            store_path: inproc_store,
            ..SweepConfig::default()
        },
    )
    .expect("in-process sweep");
    let daemon_records: Vec<CellRecord> = st_a
        .records
        .iter()
        .map(|r| normalize(r.clone().unwrap()))
        .collect();
    let inproc_records: Vec<CellRecord> = inproc.records.into_iter().map(normalize).collect();
    assert_eq!(
        daemon_records, inproc_records,
        "daemon serves what an in-process sweep computes"
    );

    // A record fetched by key is the same record the job carries.
    let fetched = client::cell(&addr, &rec_a.key)
        .expect("GET /cell")
        .expect("record exists");
    assert_eq!(fetched, rec_a);

    // Full resubmission of both matrices: served entirely from cache,
    // nothing new simulated.
    for dsl in [dsl_a, dsl_b] {
        let resp = client::submit(&addr, dsl).expect("resubmit");
        assert!(resp.complete, "100% cache hits: {resp:?}");
        assert_eq!((resp.cached, resp.enqueued, resp.pending), (2, 0, 0));
    }
    let metrics = client::get(&addr, "/metrics").expect("metrics");
    assert!(
        metrics.contains("sweepd_cells_simulated_total 3"),
        "resubmission simulated nothing:\n{metrics}"
    );

    // /snapshot serves the hub's epoch-record shape (what `bench top`
    // polls).
    let snap = client::get(&addr, "/snapshot").expect("snapshot");
    assert!(snap.starts_with("{\"seq\":"), "{snap}");
    assert!(snap.contains("\"metrics\":{"), "{snap}");
    assert!(
        snap.contains("\"sweepd_cells_simulated_total\":3"),
        "{snap}"
    );

    // Graceful shutdown: store fsynced, nothing torn, every record
    // reloads bit-identically.
    client::shutdown(&addr).expect("shutdown");
    let summary = daemon.join().expect("join");
    assert_eq!(summary.simulated, 3);
    // The resubmissions alone are 4 store hits; the first-pass overlap
    // adds one more *if* it landed after the shared cell finished
    // (otherwise it joined the in-flight run instead).
    assert!((4..=5).contains(&summary.cache_hits), "{summary:?}");
    assert_eq!(summary.dropped_tasks, 0);
    assert_eq!(summary.store.records, 3);

    let reloaded = Store::open(&store_path, true).expect("reload");
    assert_eq!(reloaded.dropped_lines, 0, "no torn records on exit");
    assert_eq!(reloaded.len(), 3);
    assert_eq!(reloaded.get(&rec_a.key), Some(rec_a));
}

#[test]
fn malformed_requests_get_json_errors_and_the_daemon_survives() {
    let (daemon, addr, _) = start_daemon("robust", 1);

    // Raw garbage on the socket.
    let mut s = TcpStream::connect(&addr).unwrap();
    s.write_all(b"ello\r\n\r\n").unwrap();
    let mut resp = String::new();
    s.read_to_string(&mut resp).unwrap();
    assert!(resp.starts_with("HTTP/1.1 400"), "{resp}");
    assert!(resp.contains("{\"error\":"), "{resp}");

    // Unknown path.
    let (status, body) = client::request(&addr, "GET", "/nope", "").unwrap();
    assert_eq!(status, 404, "{body}");
    assert!(body.contains("\"error\""), "{body}");

    // Unknown method.
    let (status, _) = client::request(&addr, "PUT", "/sweep", "apps=fft").unwrap();
    assert_eq!(status, 405);

    // Invalid matrix DSL.
    let (status, body) = client::request(&addr, "POST", "/sweep", "apps=nope").unwrap();
    assert_eq!(status, 400);
    assert!(body.contains("bad matrix"), "{body}");
    let (status, body) = client::request(&addr, "POST", "/sweep", "procs=zero").unwrap();
    assert_eq!(status, 400, "{body}");

    // Missing job / missing cell.
    let (status, _) = client::request(&addr, "GET", "/jobs/999", "").unwrap();
    assert_eq!(status, 404);
    let (status, _) = client::request(&addr, "GET", "/jobs/xyz", "").unwrap();
    assert_eq!(status, 404);
    let (status, _) = client::request(&addr, "GET", "/cell/feedfacefeedface", "").unwrap();
    assert_eq!(status, 404);

    // Still alive and accounting.
    assert_eq!(client::get(&addr, "/healthz").unwrap(), "ok\n");
    // One unparsable request + two invalid DSLs (404s and 405s are
    // well-formed requests, not bad ones).
    let metrics = client::get(&addr, "/metrics").unwrap();
    assert!(metrics.contains("sweepd_bad_requests_total 3"), "{metrics}");

    client::shutdown(&addr).unwrap();
    let summary = daemon.join().unwrap();
    assert_eq!(summary.jobs, 0);
}

#[test]
fn sse_streams_job_progress_and_quarantine_is_reported() {
    // Fault-inject one cell so the quarantine path shows end to end.
    let poisoned = "fft/orig/2p";
    let store_path = temp_dir("sse").join("store.jsonl");
    let _ = std::fs::remove_file(&store_path);
    let daemon = Daemon::start(
        DaemonConfig {
            addr: "127.0.0.1:0".into(),
            store_path,
            workers: 1,
            opts: ccnuma_sweep::run::RunOptions {
                inject_panic: Some(poisoned.into()),
                ..Default::default()
            },
            ..DaemonConfig::default()
        },
        Registry::new(),
    )
    .expect("daemon start");
    let addr = daemon.local_addr().to_string();

    let resp = client::submit(&addr, "apps=fft versions=orig procs=2,4 scale=quick").unwrap();

    // Subscribe to the job's SSE stream and read it to the end.
    let mut s = TcpStream::connect(&addr).unwrap();
    write!(
        s,
        "GET /jobs/{}/events HTTP/1.1\r\nHost: x\r\n\r\n",
        resp.job
    )
    .unwrap();
    let mut body = String::new();
    s.read_to_string(&mut body).expect("stream closes at end");
    assert!(body.contains("event: job"), "{body}");
    assert!(body.contains("event: done"), "{body}");
    assert!(body.contains("event: end"), "{body}");
    assert!(
        body.trim_end().ends_with("data: {}"),
        "ends with the end frame: {body}"
    );

    let st = client::wait(&addr, resp.job, Duration::from_millis(50)).unwrap();
    assert_eq!(st.quarantined, [poisoned], "poisoned cell quarantined");
    let healthy = st
        .records
        .iter()
        .flatten()
        .find(|r| r.label != poisoned)
        .expect("healthy cell");
    assert!(!healthy.status.quarantined());

    // A quarantined record is still a record: resubmission hits cache.
    let resp = client::submit(&addr, "apps=fft versions=orig procs=2,4 scale=quick").unwrap();
    assert!(resp.complete, "{resp:?}");

    client::shutdown(&addr).unwrap();
    let summary = daemon.join().unwrap();
    assert_eq!(summary.quarantined, 1);
}

#[test]
fn shutdown_mid_job_ends_its_event_stream_and_drops_the_backlog() {
    let (daemon, addr, _) = start_daemon("shutdown", 1);
    // Four full-scale cells on one worker: the job cannot finish before
    // the shutdown below lands.
    let resp = client::submit(&addr, "apps=radix versions=orig scale=full procs=2,4,8,16").unwrap();
    assert_eq!(resp.enqueued, 4, "{resp:?}");

    let mut s = TcpStream::connect(&addr).unwrap();
    write!(
        s,
        "GET /jobs/{}/events HTTP/1.1\r\nHost: x\r\n\r\n",
        resp.job
    )
    .unwrap();
    let mut stream = BufReader::new(s);
    let mut head = String::new();
    while !(head.contains("event: job\ndata: ") && head.ends_with("\n\n")) {
        let n = stream.read_line(&mut head).expect("read the job frame");
        assert!(n > 0, "stream ended before the job frame: {head}");
    }

    daemon.request_shutdown();
    let summary = daemon.join().expect("join returns");
    let mut rest = String::new();
    stream.read_to_string(&mut rest).expect("stream closes");
    assert!(!rest.contains("event: done"), "job never completed: {rest}");
    assert!(
        rest.trim_end().ends_with("event: end\ndata: {}"),
        "ends with the end frame: {rest}"
    );
    assert!(summary.dropped_tasks > 0, "{summary:?}");
}

#[test]
fn idle_timeout_shuts_the_daemon_down_unattended() {
    let store_path = temp_dir("idle").join("store.jsonl");
    let _ = std::fs::remove_file(&store_path);
    let daemon = Daemon::start(
        DaemonConfig {
            addr: "127.0.0.1:0".into(),
            store_path,
            workers: 1,
            idle_timeout: Some(Duration::from_millis(250)),
            ..DaemonConfig::default()
        },
        Registry::new(),
    )
    .expect("daemon start");
    let t0 = std::time::Instant::now();
    let summary = daemon.join().expect("join returns on its own");
    assert!(
        t0.elapsed() < Duration::from_secs(30),
        "idle timeout fired, not a hang"
    );
    assert_eq!(summary.jobs, 0);
    assert_eq!(summary.dropped_tasks, 0);
}
