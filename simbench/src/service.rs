//! The `service` workload: an in-process sweep daemon and one client
//! thread submitting a seeded stream of quick-scale jobs, one at a time.
//!
//! A job is `POST /sweep` → the `/jobs/<id>/events` stream to its `end`
//! frame → `GET /jobs/<id>` for the records → `GET /cell/<key>` for one
//! stored record. About two jobs in three resubmit an earlier job, so
//! about two thirds of cells are store hits; the rest name a fresh
//! schedule seed, so they always miss and are simulated.

use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::time::Instant;

use ccnuma_sweep::matrix::{CellSpec, MatrixSpec};
use ccnuma_sweep::store::CellStatus;
use ccnuma_sweepd::{client, Daemon, DaemonConfig};
use ccnuma_telemetry::registry::Registry;
use scaling_study::experiments::version_ids;
use splash_apps::common::XorShift;

use crate::cells::Budget;
use crate::golden::{self, Checker};
use crate::host;
use crate::span::Spans;

/// Apps of the job stream: the pinned quick matrix, whose cells stay
/// race- and deadlock-free under schedule perturbation.
const APPS: [&str; 4] = ["fft", "ocean", "radix", "water-nsq"];
const PROCS: [usize; 3] = [2, 4, 8];
/// One unperturbed cell of every app and version at 2p: the warm-up job,
/// which also computes every sequential baseline the stream needs.
pub const WARMUP_DSL: &str = "apps=fft,ocean,radix,water-nsq versions=both procs=2 scale=quick";
/// Daemon worker threads.
const WORKERS: usize = 2;
/// Jobs after which the process's peak RSS is read. The daemon keeps
/// every job it was sent, so reading it after a fixed number of jobs
/// keeps a faster daemon from looking bigger.
const RSS_JOBS: usize = 1000;

/// The seeded job stream.
#[derive(Debug)]
pub struct Stream {
    rng: XorShift,
    jobs: Vec<String>,
    next_sched: u64,
}

impl Stream {
    /// The stream for `seed`.
    pub fn new(seed: u64) -> Stream {
        Stream {
            rng: XorShift::new(seed ^ 0x5E4D_1CE5),
            jobs: Vec::new(),
            next_sched: seed.wrapping_mul(1_000_000) + 1,
        }
    }

    /// The next job's matrix DSL: two times in three an earlier job
    /// again, otherwise one app, one or two versions, one to three
    /// processor counts and a schedule seed no earlier job used.
    pub fn next_job(&mut self) -> String {
        if !self.jobs.is_empty() && self.rng.below(3) < 2 {
            let i = self.rng.below(self.jobs.len() as u64) as usize;
            return self.jobs[i].clone();
        }
        let app = APPS[self.rng.below(APPS.len() as u64) as usize];
        let mut versions = version_ids(app);
        if versions.len() > 1 && self.rng.below(2) == 0 {
            versions = vec![versions.swap_remove(self.rng.below(versions.len() as u64) as usize)];
        }
        let mut procs: Vec<usize> = PROCS
            .iter()
            .copied()
            .filter(|_| self.rng.below(2) == 0)
            .collect();
        if procs.is_empty() {
            procs.push(PROCS[self.rng.below(PROCS.len() as u64) as usize]);
        }
        let procs: Vec<String> = procs.iter().map(usize::to_string).collect();
        let dsl = format!(
            "apps={app} versions={} procs={} scale=quick sched-seed={}",
            versions.join(","),
            procs.join(","),
            self.next_sched
        );
        self.next_sched += 1;
        self.jobs.push(dsl.clone());
        dsl
    }
}

/// A running daemon on `127.0.0.1:0` with a fresh store.
pub struct Service {
    daemon: Daemon,
    addr: String,
    store: PathBuf,
}

impl Service {
    /// Starts a daemon whose store is a new file in `dir`.
    ///
    /// # Errors
    ///
    /// Opening the store or binding the listener.
    pub fn start(dir: &Path, tag: usize) -> std::io::Result<Service> {
        let store = dir.join(format!("sweepd-store-{tag}.jsonl"));
        let _ = std::fs::remove_file(&store);
        let daemon = Daemon::start(
            DaemonConfig {
                addr: "127.0.0.1:0".into(),
                store_path: store.clone(),
                workers: WORKERS,
                ..DaemonConfig::default()
            },
            Registry::new(),
        )?;
        let addr = daemon.local_addr().to_string();
        Ok(Service {
            daemon,
            addr,
            store,
        })
    }

    /// Shuts the daemon down, waits for its threads and removes the store.
    ///
    /// # Errors
    ///
    /// A failed shutdown or an incomplete job left behind.
    pub fn stop(self) -> Result<(), String> {
        self.daemon.request_shutdown();
        let summary = self
            .daemon
            .join()
            .map_err(|e| format!("daemon shutdown: {e}"))?;
        let _ = std::fs::remove_file(&self.store);
        if summary.dropped_tasks > 0 || summary.quarantined > 0 {
            return Err(format!("daemon ended with {summary:?}"));
        }
        Ok(())
    }
}

/// Client-side view of one job.
#[derive(Debug, Default)]
pub struct JobOutcome {
    /// Submit to last check, ns.
    pub wall_ns: u64,
    /// Cells in the job.
    pub cells: usize,
    /// Cells the daemon answered from its store at submit.
    pub cached: usize,
    /// Cells simulated for this job, with their engine events.
    pub fresh: Vec<(CellSpec, u64)>,
    /// Per route of a traced job, ns: submit, events, status, cell.
    pub routes_ns: [u64; 4],
    /// A failed request or check.
    pub error: Option<String>,
}

/// Per route, in request order: span name and metric name.
pub const ROUTES: [(&str, &str); 4] = [
    ("sweepd.submit", "sweepd.submit_ms"),
    ("sweepd.events", "sweepd.events_ms"),
    ("sweepd.status", "sweepd.status_ms"),
    ("sweepd.cell_get", "sweepd.cell_get_ms"),
];

/// Runs one job against the daemon and checks every answer. `seen`
/// holds the run keys answered so far, so the client knows which cells
/// must be store hits.
pub fn run_job(
    svc: &Service,
    dsl: &str,
    seen: &mut HashSet<String>,
    checker: &mut Checker,
    mut spans: Option<&mut Spans>,
    op: u64,
) -> JobOutcome {
    let t0 = Instant::now();
    if let Some(s) = spans.as_deref_mut() {
        s.begin("job", op);
    }
    let mut out = JobOutcome::default();
    if let Err(e) = job_steps(svc, dsl, seen, checker, &mut spans, op, &mut out) {
        out.error = Some(format!("job {dsl:?}: {e}"));
    }
    out.wall_ns = match spans {
        Some(s) => s.end(),
        None => t0.elapsed().as_nanos() as u64,
    };
    out
}

fn timed<R>(
    spans: &mut Option<&mut Spans>,
    out: &mut JobOutcome,
    route: usize,
    op: u64,
    f: impl FnOnce() -> R,
) -> R {
    let Some(s) = spans.as_deref_mut() else {
        return f();
    };
    s.begin(ROUTES[route].0, op);
    let r = f();
    out.routes_ns[route] = s.end();
    r
}

fn job_steps(
    svc: &Service,
    dsl: &str,
    seen: &mut HashSet<String>,
    checker: &mut Checker,
    spans: &mut Option<&mut Spans>,
    op: u64,
    out: &mut JobOutcome,
) -> Result<(), String> {
    let addr = svc.addr.as_str();
    let sub = timed(spans, out, 0, op, || client::submit(addr, dsl))?;
    let events = timed(spans, out, 1, op, || {
        client::get(addr, &format!("/jobs/{}/events", sub.job))
    })?;
    if !events.contains("event: end") {
        return Err("event stream closed without an end frame".into());
    }
    let status = timed(spans, out, 2, op, || client::job_status(addr, sub.job))?;
    let Some(first) = status.records.first().cloned().flatten() else {
        return Err("job has no records".into());
    };
    let got = timed(spans, out, 3, op, || client::cell(addr, &first.key))?;
    if got.as_ref() != Some(&first) {
        return Err(format!(
            "GET /cell/{} differs from the job's record",
            first.key
        ));
    }
    out.cells = sub.cells;
    out.cached = sub.cached;
    if !status.complete || !status.quarantined.is_empty() || status.total != sub.cells {
        return Err(format!(
            "incomplete or quarantined: {}/{} done, quarantined {:?}",
            status.done, status.total, status.quarantined
        ));
    }
    let specs = MatrixSpec::parse(dsl)?.cells();
    let mut expected_hits = 0;
    for (spec, rec) in specs.into_iter().zip(status.records) {
        let rec = rec.ok_or("missing record")?;
        if rec.status != CellStatus::Ok || rec.label != spec.label() {
            return Err(format!("{}: status {:?}", rec.label, rec.status));
        }
        checker.check(&rec.label, golden::record_digest(&rec))?;
        if seen.insert(rec.key.clone()) {
            out.fresh.push((spec, rec.events));
        } else {
            expected_hits += 1;
        }
    }
    if expected_hits != sub.cached {
        return Err(format!(
            "daemon answered {} cells from its store, expected {expected_hits}",
            sub.cached
        ));
    }
    Ok(())
}

/// Everything a service loop measured.
#[derive(Debug, Default)]
pub struct ServiceLoop {
    /// Plain (untraced) jobs: `"hit"` for jobs answered entirely from
    /// the store, `"fresh"` otherwise, and the latency in ms.
    pub job_ms: Vec<(String, f64)>,
    /// Traced jobs, as `job_ms`.
    pub traced_ms: Vec<(String, f64)>,
    /// Per-route latencies of traced jobs, ms.
    pub route_ms: [Vec<f64>; 4],
    /// Cells answered.
    pub cells: usize,
    /// Cells answered from the store at submit.
    pub cached: usize,
    /// Engine events of the cells simulated.
    pub events: u64,
    /// Fresh cells in stream order.
    pub fresh: Vec<CellSpec>,
    /// Jobs run.
    pub jobs: usize,
    /// Loop wall time, s.
    pub wall_s: f64,
    /// Process CPU over the loop, ns.
    pub cpu_ns: u64,
    /// Peak RSS of the process after `RSS_JOBS` jobs (or all, if fewer), MiB.
    pub peak_rss_mib: f64,
    /// Failures, described.
    pub errors: Vec<String>,
}

/// The closed loop: the next job is submitted when the previous one has
/// been checked. With `spans`, every other job is traced.
pub fn run_loop(
    svc: &Service,
    stream: &mut Stream,
    seen: &mut HashSet<String>,
    budget: Budget,
    checker: &mut Checker,
    mut spans: Option<&mut Spans>,
) -> ServiceLoop {
    let mut out = ServiceLoop::default();
    let cpu0 = host::process_cpu_ns();
    let t0 = Instant::now();
    while budget.more(t0, out.jobs) {
        let dsl = stream.next_job();
        let traced = spans.is_some() && out.jobs % 2 == 1;
        let sp = if traced { spans.as_deref_mut() } else { None };
        let j = run_job(svc, &dsl, seen, checker, sp, out.jobs as u64);
        out.jobs += 1;
        if out.jobs == RSS_JOBS {
            out.peak_rss_mib = host::peak_rss_mib();
        }
        if let Some(e) = j.error {
            out.errors.push(e);
            continue;
        }
        let kind = if j.cached == j.cells { "hit" } else { "fresh" };
        let sample = (kind.to_string(), j.wall_ns as f64 / 1e6);
        if traced {
            out.traced_ms.push(sample);
            for (v, ns) in out.route_ms.iter_mut().zip(j.routes_ns) {
                v.push(ns as f64 / 1e6);
            }
        } else {
            out.job_ms.push(sample);
        }
        out.cells += j.cells;
        out.cached += j.cached;
        for (spec, events) in j.fresh {
            out.events += events;
            out.fresh.push(spec);
        }
    }
    out.wall_s = t0.elapsed().as_secs_f64();
    out.cpu_ns = host::process_cpu_ns().saturating_sub(cpu0);
    if out.jobs < RSS_JOBS {
        out.peak_rss_mib = host::peak_rss_mib();
    }
    out
}
