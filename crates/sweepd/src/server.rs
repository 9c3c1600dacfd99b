//! The daemon: one shared content-addressed store, one persistent
//! queue shared by its workers, many HTTP clients.
//!
//! Every submitted matrix is expanded into cells and each cell resolved
//! one of three ways, under one state lock so concurrent clients cannot
//! race a duplicate simulation:
//!
//! 1. **Store hit** — the record is attached to the job immediately.
//! 2. **In-flight join** — another job already enqueued this key; the
//!    job is added to that key's waiter list and shares the one run.
//! 3. **Miss** — the cell is marked in-flight and pushed onto the
//!    shared [`TaskQueue`], which its workers drain first in, first out.
//!
//! Workers append finished records to the store *before* announcing
//! them (same discipline as the in-process sweep: a crash loses at most
//! the cells in flight), then fan the record out to every waiting job
//! and its SSE subscribers.

use std::collections::HashMap;
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ccnuma_sweep::events::{EventSink, ExecEvent};
use ccnuma_sweep::matrix::{CellSpec, MatrixSpec};
use ccnuma_sweep::pool::TaskQueue;
use ccnuma_sweep::run::{Executor, RunOptions};
use ccnuma_sweep::store::{Store, StoreStats};
use ccnuma_telemetry::expo;
use ccnuma_telemetry::http::{self, Request, Stop};
use ccnuma_telemetry::registry::{Counter, Gauge, Registry};

use crate::jobs::Job;

/// How the daemon listens and executes.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Listen address; use port 0 to let the OS pick.
    pub addr: String,
    /// Path of the shared JSONL store (always opened in resume mode —
    /// the whole point is accumulating results across restarts).
    pub store_path: PathBuf,
    /// Worker threads executing cells (at least one).
    pub workers: usize,
    /// Shut down after this long with no requests and no work in
    /// flight; `None` serves until `POST /shutdown`.
    pub idle_timeout: Option<Duration>,
    /// Per-cell execution options (retries, timeout, fault injection).
    pub opts: RunOptions,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        DaemonConfig {
            addr: "127.0.0.1:0".into(),
            store_path: PathBuf::from("sweepd_store.jsonl"),
            workers: 1,
            idle_timeout: None,
            opts: RunOptions::default(),
        }
    }
}

/// What the daemon did over its lifetime, reported by [`Daemon::join`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DaemonSummary {
    /// Jobs accepted.
    pub jobs: u64,
    /// Cells across all jobs.
    pub cells: u64,
    /// Cells answered from the store at submit time.
    pub cache_hits: u64,
    /// Cells simulated fresh.
    pub simulated: u64,
    /// Fresh simulations that ended quarantined.
    pub quarantined: u64,
    /// Queued tasks dropped by shutdown (their jobs stay incomplete).
    pub dropped_tasks: usize,
    /// Final store statistics.
    pub store: StoreStats,
}

/// Registered daemon-health metric handles. Counters update at the
/// event that moves them; gauges are refreshed on scrape
/// ([`Shared::refresh_gauges`]).
struct Metrics {
    requests: Counter,
    bad_requests: Counter,
    jobs: Counter,
    cells: Counter,
    cache_hits: Counter,
    enqueued: Counter,
    simulated: Counter,
    retries: Counter,
    quarantined: Counter,
    store_errors: Counter,
    queue_depth: Gauge,
    cells_running: Gauge,
    inflight: Gauge,
    jobs_active: Gauge,
    hit_ratio: Gauge,
    store_records: Gauge,
    store_bytes: Gauge,
    store_superseded: Gauge,
    uptime: Gauge,
}

impl Metrics {
    fn register(reg: &Registry) -> Metrics {
        Metrics {
            requests: reg.counter("sweepd_requests_total", "HTTP requests accepted"),
            bad_requests: reg.counter(
                "sweepd_bad_requests_total",
                "requests rejected as malformed (4xx)",
            ),
            jobs: reg.counter("sweepd_jobs_total", "sweep jobs accepted"),
            cells: reg.counter("sweepd_cells_total", "cells across all accepted jobs"),
            cache_hits: reg.counter(
                "sweepd_cache_hits_total",
                "cells answered from the store at submit time",
            ),
            enqueued: reg.counter(
                "sweepd_cells_enqueued_total",
                "cells enqueued for fresh simulation",
            ),
            simulated: reg.counter("sweepd_cells_simulated_total", "cells simulated fresh"),
            retries: reg.counter("sweepd_cell_retries_total", "per-cell attempt retries"),
            quarantined: reg.counter(
                "sweepd_cells_quarantined_total",
                "fresh simulations that ended quarantined",
            ),
            store_errors: reg.counter("sweepd_store_errors_total", "failed store appends"),
            queue_depth: gauge(reg, "sweepd_queue_depth", "tasks queued, not yet running"),
            cells_running: gauge(reg, "sweepd_cells_running", "cells executing right now"),
            inflight: gauge(
                reg,
                "sweepd_inflight_cells",
                "distinct cells enqueued or running",
            ),
            jobs_active: gauge(reg, "sweepd_jobs_active", "jobs not yet complete"),
            hit_ratio: gauge(
                reg,
                "sweepd_cache_hit_ratio",
                "lifetime cache hits / cells submitted",
            ),
            store_records: gauge(reg, "sweepd_store_records", "records in the store index"),
            store_bytes: gauge(reg, "sweepd_store_bytes", "store file size, bytes"),
            store_superseded: gauge(
                reg,
                "sweepd_store_superseded",
                "superseded lines a compaction would evict",
            ),
            uptime: gauge(reg, "sweepd_uptime_seconds", "seconds since daemon start"),
        }
    }
}

fn gauge(reg: &Registry, name: &str, help: &str) -> Gauge {
    reg.gauge(name, help)
}

/// One enqueued-or-running cell and the job slots waiting on it.
struct Inflight {
    label: String,
    /// `(job id, cell index)` pairs to fill when the record lands.
    waiters: Vec<(u64, usize)>,
}

#[derive(Default)]
struct State {
    jobs: HashMap<u64, Job>,
    next_job: u64,
    /// Key hash → the one in-flight run all waiters share.
    inflight: HashMap<String, Inflight>,
}

/// Job/inflight state plus metrics: the part the executor's event sink
/// needs, split out so the sink can hold it without a cycle through
/// [`Shared`] (which owns the executor).
struct Core {
    state: Mutex<State>,
    metrics: Metrics,
}

impl Core {
    /// Routes a typed lifecycle event from a worker to the SSE
    /// subscribers of every job waiting on that cell. `Finished` is
    /// skipped here: the task fan-out broadcasts it after the record is
    /// durably appended, so subscribers never see a finish that a crash
    /// could undo.
    fn route_event(&self, ev: &ExecEvent) {
        if matches!(ev, ExecEvent::Retried { .. }) {
            self.metrics.retries.inc();
        }
        if matches!(ev, ExecEvent::Finished { .. }) {
            return;
        }
        let frame = http::sse_frame("cell", &ev.to_json());
        let st = self.state.lock().expect("daemon state poisoned");
        let mut jobs: Vec<u64> = st
            .inflight
            .values()
            .filter(|inf| inf.label == ev.label())
            .flat_map(|inf| inf.waiters.iter().map(|&(job, _)| job))
            .collect();
        jobs.sort_unstable();
        jobs.dedup();
        for id in jobs {
            if let Some(job) = st.jobs.get(&id) {
                job.subscribers.publish(&frame);
            }
        }
    }
}

struct Shared {
    core: Arc<Core>,
    store: Store,
    executor: Executor,
    queue: TaskQueue,
    registry: Registry,
    addr: SocketAddr,
    /// Set by `POST /shutdown`, [`Daemon::request_shutdown`] or the idle
    /// timeout; once set, submissions are refused.
    stop: Stop,
    started: Instant,
    seq: AtomicU64,
    last_activity: Mutex<Instant>,
    idle_timeout: Option<Duration>,
}

impl Shared {
    fn touch(&self) {
        *self.last_activity.lock().expect("activity clock poisoned") = Instant::now();
    }

    /// Parses and admits one matrix, resolving every cell against the
    /// store and the in-flight set under one state lock. Returns the
    /// submit-response JSON.
    fn submit(self: &Arc<Self>, dsl: &str) -> Result<String, String> {
        let matrix = MatrixSpec::parse(dsl).map_err(|e| format!("bad matrix: {e}"))?;
        let cells = matrix.cells();
        let keys: Vec<String> = cells.iter().map(|c| c.key().hash_hex()).collect();
        let labels: Vec<String> = cells.iter().map(|c| c.label()).collect();
        let mut to_push: Vec<(CellSpec, String)> = Vec::new();
        let response = {
            let mut st = self.core.state.lock().expect("daemon state poisoned");
            st.next_job += 1;
            let id = st.next_job;
            let mut job = Job {
                id,
                dsl: dsl.trim().to_string(),
                labels: labels.clone(),
                keys: keys.clone(),
                records: vec![None; cells.len()],
                cached: 0,
                executed: 0,
                subscribers: Default::default(),
            };
            let mut enqueued = 0usize;
            for (i, cell) in cells.iter().enumerate() {
                if let Some(rec) = self.store.get(&keys[i]) {
                    job.records[i] = Some(rec);
                    job.cached += 1;
                } else if let Some(inf) = st.inflight.get_mut(&keys[i]) {
                    inf.waiters.push((id, i));
                } else {
                    st.inflight.insert(
                        keys[i].clone(),
                        Inflight {
                            label: labels[i].clone(),
                            waiters: vec![(id, i)],
                        },
                    );
                    to_push.push((cell.clone(), keys[i].clone()));
                    enqueued += 1;
                }
            }
            let m = &self.core.metrics;
            m.jobs.inc();
            m.cells.add(cells.len() as u64);
            m.cache_hits.add(job.cached as u64);
            m.enqueued.add(enqueued as u64);
            let pending = cells.len() - job.done();
            let resp = format!(
                "{{\"job\":{id},\"cells\":{},\"cached\":{},\"enqueued\":{enqueued},\"pending\":{pending},\"complete\":{}}}",
                cells.len(),
                job.cached,
                job.complete()
            );
            st.jobs.insert(id, job);
            resp
        };
        // Push outside the state lock: a worker could finish a task and
        // need the lock before push returns.
        for (spec, key) in to_push {
            let weak = Arc::downgrade(self);
            self.queue.push(Box::new(move || {
                if let Some(shared) = weak.upgrade() {
                    shared.run_cell_task(&spec, &key);
                }
            }));
        }
        Ok(response)
    }

    /// Worker-side execution of one deduplicated cell: simulate, append
    /// durably, then hand the record to every waiting job.
    fn run_cell_task(self: &Arc<Self>, spec: &CellSpec, key: &str) {
        let rec = self.executor.run_cell(spec);
        if let Err(e) = self.store.append(&rec) {
            eprintln!("[sweepd] store append failed for {}: {e}", rec.label);
            self.core.metrics.store_errors.inc();
        }
        let m = &self.core.metrics;
        m.simulated.inc();
        if rec.status.quarantined() {
            m.quarantined.inc();
        }
        let frame = http::sse_frame(
            "cell",
            &ExecEvent::Finished {
                label: rec.label.clone(),
                status: rec.status,
                cache_hit: false,
                attempts: rec.attempts,
                host_ms: rec.host_ms,
            }
            .to_json(),
        );
        let mut st = self.core.state.lock().expect("daemon state poisoned");
        let Some(inf) = st.inflight.remove(key) else {
            return;
        };
        for (job_id, idx) in inf.waiters {
            let Some(job) = st.jobs.get_mut(&job_id) else {
                continue;
            };
            if job.records[idx].is_none() {
                job.executed += 1;
            }
            job.records[idx] = Some(rec.clone());
            job.subscribers.publish(&frame);
            if job.complete() {
                let done = http::sse_frame("done", &job.summary_json());
                job.subscribers.publish(&done);
                job.subscribers.publish(&http::sse_frame("end", "{}"));
                job.subscribers.close();
            }
        }
        drop(st);
        self.touch();
    }

    /// Refreshes the scrape-time gauges from live state.
    fn refresh_gauges(&self) {
        let m = &self.core.metrics;
        m.queue_depth.set(self.queue.queued() as f64);
        m.cells_running.set(self.queue.running() as f64);
        {
            let st = self.core.state.lock().expect("daemon state poisoned");
            m.inflight.set(st.inflight.len() as f64);
            m.jobs_active
                .set(st.jobs.values().filter(|j| !j.complete()).count() as f64);
        }
        let cells = m.cells.get();
        let ratio = if cells == 0 {
            0.0
        } else {
            m.cache_hits.get() as f64 / cells as f64
        };
        m.hit_ratio.set(ratio);
        let s = self.store.stats();
        m.store_records.set(s.records as f64);
        m.store_bytes.set(s.bytes as f64);
        m.store_superseded.set(s.superseded as f64);
        m.uptime.set(self.started.elapsed().as_secs_f64());
    }

    /// One epoch record in the hub's shape, so `bench top --addr` can
    /// poll a daemon exactly like a telemetry hub.
    fn epoch_record(&self) -> String {
        let seq = self.seq.fetch_add(1, Ordering::SeqCst) + 1;
        expo::epoch_record(seq, self.started, &self.registry)
    }

    /// When the idle timeout would next fire: `timeout` after the last
    /// request or finished cell, or from now while work is queued or
    /// running. `None` without an idle timeout.
    fn idle_deadline(&self) -> Option<Instant> {
        let timeout = self.idle_timeout?;
        let from = if self.queue.queued() + self.queue.running() > 0 {
            Instant::now()
        } else {
            *self.last_activity.lock().expect("activity clock poisoned")
        };
        Some(from + timeout)
    }
}

/// The running daemon. Start it, then [`Daemon::join`] to serve until a
/// shutdown request (or idle timeout) and tear down cleanly.
pub struct Daemon {
    shared: Arc<Shared>,
    accept: JoinHandle<()>,
}

impl std::fmt::Debug for Daemon {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Daemon({})", self.shared.addr)
    }
}

impl Daemon {
    /// Opens the store, spawns the workers and the listener, and
    /// registers the health metrics on `registry` (pass the registry a
    /// telemetry hub samples and `bench top` sees daemon health
    /// alongside engine counters).
    ///
    /// # Errors
    ///
    /// Any I/O error opening the store or binding the listener.
    pub fn start(cfg: DaemonConfig, registry: Registry) -> std::io::Result<Daemon> {
        let store = Store::open(&cfg.store_path, true)?;
        let core = Arc::new(Core {
            state: Mutex::new(State::default()),
            metrics: Metrics::register(&registry),
        });
        let sink_core = Arc::clone(&core);
        let sink: EventSink = Arc::new(move |ev| sink_core.route_event(ev));
        let executor = Executor::new(cfg.opts.clone()).with_events(sink);
        let (listener, stop) = http::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            core,
            store,
            executor,
            queue: TaskQueue::start(cfg.workers),
            registry,
            addr,
            stop: stop.clone(),
            started: Instant::now(),
            seq: AtomicU64::new(0),
            last_activity: Mutex::new(Instant::now()),
            idle_timeout: cfg.idle_timeout,
        });
        let sh = Arc::clone(&shared);
        let accept = http::serve(listener, stop, "sweepd-http", move |req, stream| {
            handle_conn(req, stream, &sh)
        })?;
        Ok(Daemon { shared, accept })
    }

    /// The bound listen address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// Requests a graceful shutdown, exactly like `POST /shutdown`.
    pub fn request_shutdown(&self) {
        self.shared.stop.stop();
    }

    /// Serves until shutdown is requested (HTTP, [`request_shutdown`],
    /// or the idle timeout), then tears down: in-flight cells finish
    /// and are appended, the queued backlog is dropped (counted in the
    /// summary), SSE subscribers of incomplete jobs get their `end`
    /// frame, and the store is fsynced — no torn records on exit.
    ///
    /// [`request_shutdown`]: Daemon::request_shutdown
    ///
    /// # Errors
    ///
    /// Any I/O error syncing the store.
    pub fn join(self) -> std::io::Result<DaemonSummary> {
        let sh = &self.shared;
        while !sh.stop.wait_until(sh.idle_deadline()) {
            if sh.idle_deadline().is_some_and(|d| d <= Instant::now()) {
                sh.stop.stop();
            }
        }
        let _ = self.accept.join();
        // Joins the workers: running cells complete and append first.
        let dropped = self.shared.queue.shutdown();
        for job in sh
            .core
            .state
            .lock()
            .expect("daemon state poisoned")
            .jobs
            .values()
        {
            job.subscribers.publish(&http::sse_frame("end", "{}"));
            job.subscribers.close();
        }
        self.shared.store.sync()?;
        let m = &self.shared.core.metrics;
        Ok(DaemonSummary {
            jobs: m.jobs.get(),
            cells: m.cells.get(),
            cache_hits: m.cache_hits.get(),
            simulated: m.simulated.get(),
            quarantined: m.quarantined.get(),
            dropped_tasks: dropped,
            store: self.shared.store.stats(),
        })
    }
}

/// Routes one request.
fn handle_conn(req: Result<Request, String>, mut stream: TcpStream, shared: &Arc<Shared>) {
    let req = match req {
        Ok(req) => req,
        Err(e) => {
            shared.core.metrics.bad_requests.inc();
            http::respond_error(&mut stream, "400 Bad Request", &e);
            return;
        }
    };
    shared.core.metrics.requests.inc();
    shared.touch();
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => http::respond(&mut stream, "200 OK", "text/plain", "ok\n"),
        ("GET", "/metrics") => {
            shared.refresh_gauges();
            http::respond_metrics(&mut stream, &shared.registry);
        }
        ("GET", "/snapshot") => {
            shared.refresh_gauges();
            let body = format!("{}\n", shared.epoch_record());
            http::respond_json(&mut stream, "200 OK", &body);
        }
        ("POST", "/sweep") => {
            if shared.stop.is_set() {
                http::respond_error(&mut stream, "503 Service Unavailable", "shutting down");
                return;
            }
            match shared.submit(req.body.trim()) {
                Ok(json) => http::respond_json(&mut stream, "200 OK", &json),
                Err(e) => {
                    shared.core.metrics.bad_requests.inc();
                    http::respond_error(&mut stream, "400 Bad Request", &e);
                }
            }
        }
        ("POST", "/shutdown") => {
            http::respond(&mut stream, "200 OK", "text/plain", "shutting down\n");
            shared.stop.stop();
        }
        ("GET", p) if p.starts_with("/jobs/") => {
            let rest = &p["/jobs/".len()..];
            let (id_str, events) = match rest.strip_suffix("/events") {
                Some(id) => (id, true),
                None => (rest, false),
            };
            match id_str.parse::<u64>() {
                Err(_) => http::respond_error(&mut stream, "404 Not Found", "no such job"),
                Ok(id) if events => serve_job_events(stream, shared, id),
                Ok(id) => {
                    let st = shared.core.state.lock().expect("daemon state poisoned");
                    match st.jobs.get(&id) {
                        Some(job) => {
                            let body = job.to_json();
                            drop(st);
                            http::respond_json(&mut stream, "200 OK", &body);
                        }
                        None => {
                            drop(st);
                            http::respond_error(&mut stream, "404 Not Found", "no such job");
                        }
                    }
                }
            }
        }
        ("GET", p) if p.starts_with("/cell/") => {
            let key = &p["/cell/".len()..];
            match shared.store.get(key) {
                Some(rec) => http::respond_json(&mut stream, "200 OK", &rec.to_json_line()),
                None => {
                    http::respond_error(&mut stream, "404 Not Found", "no record for that key")
                }
            }
        }
        ("GET", _) => http::respond_error(
            &mut stream,
            "404 Not Found",
            "unknown path; try /healthz /metrics /snapshot /jobs/<id> /cell/<key>, POST /sweep /shutdown",
        ),
        _ => http::respond_error(&mut stream, "405 Method Not Allowed", "GET and POST only"),
    }
}

/// The per-job SSE endpoint: an initial `job` summary frame, then every
/// `cell` lifecycle frame as it happens, closed by `done` + `end` when
/// the job completes (immediately, for an already-complete job).
fn serve_job_events(mut stream: TcpStream, shared: &Shared, id: u64) {
    // Subscribe under the state lock: no frame can slip between the
    // summary we capture and the subscription.
    let sub = {
        let st = shared.core.state.lock().expect("daemon state poisoned");
        st.jobs.get(&id).map(|job| {
            let summary = job.summary_json();
            let first = http::sse_frame("job", &summary);
            if job.complete() {
                let rest = http::sse_frame("done", &summary) + &http::sse_frame("end", "{}");
                (first + &rest, None)
            } else {
                (first, Some(job.subscribers.subscribe()))
            }
        })
    };
    match sub {
        None => http::respond_error(&mut stream, "404 Not Found", "no such job"),
        // Ends when the job completes or the daemon shuts down (both
        // close the subscribers after the `end` frame), or when the
        // client disconnects.
        Some((first, rx)) => http::stream_events(&mut stream, &first, rx),
    }
}
