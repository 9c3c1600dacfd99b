//! Live-telemetry wiring for the `bench` binary: the registry schema,
//! the refresher that mirrors the process-wide live counters (sim
//! engine, sweep pool, result store) into it and differentiates them
//! into rates, the sweep lifecycle-event recorder, trace-gauge
//! ingestion, and the `bench top` snapshot readers/renderer.
//!
//! Everything here observes; the sim and sweep layers never read any
//! of these values back, so enabling the wiring cannot change a run
//! (pinned bit-identical in `tests/telemetry_live.rs`).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ccnuma_sim::json;
use ccnuma_sim::live::{LIVE_CAUSES, LIVE_CLASSES};
use ccnuma_sim::trace::GaugeSample;
use ccnuma_sweep::events::{EventSink, ExecEvent};
use ccnuma_sweep::store::CellStatus;
use ccnuma_telemetry::hub::HubHandle;
use ccnuma_telemetry::{Counter, Gauge, Histogram, RateFilter, Registry};

/// Label values for the five classified miss-cause slots (the `attrib`
/// taxonomy order).
pub const CAUSE_LABELS: [&str; LIVE_CAUSES] =
    ["cold", "capacity", "conflict", "coh_true", "coh_false"];

/// Label values for the four resource classes (the `attrib` taxonomy
/// order: hub, memory, directory, network).
pub const CLASS_LABELS: [&str; LIVE_CLASSES] = ["hub", "memory", "directory", "network"];

/// The smoothing time constant for all rate gauges, seconds.
const RATE_TAU_S: f64 = 2.0;

/// The running wiring: a registry fed by a background refresher thread
/// that mirrors the sim/pool/store live counters every epoch and
/// differentiates them into rate gauges.
pub struct Wiring {
    /// The registry every observer (hub, tests) snapshots.
    pub registry: Registry,
    stop: Arc<AtomicBool>,
    refresher: Option<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for Wiring {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Wiring({:?})", self.registry)
    }
}

/// Per-class rate state owned by the refresher.
struct ClassRates {
    service: Counter,
    queue: Counter,
    occupancy: Gauge,
    depth: Gauge,
    service_rate: RateFilter,
    queue_rate: RateFilter,
}

impl Wiring {
    /// Registers the schema and starts the refresher at the given epoch.
    pub fn start(epoch: Duration) -> Wiring {
        let epoch = if epoch.is_zero() {
            Duration::from_millis(250)
        } else {
            epoch
        };
        let r = Registry::new();

        // --- sim engine/memsys layer -------------------------------
        let runs_started = r.counter("sim_runs_started_total", "Simulation runs started");
        let runs_finished = r.counter("sim_runs_finished_total", "Simulation runs finished");
        let events = r.counter("sim_events_total", "Engine events processed");
        let accesses = r.counter("sim_accesses_total", "Line-granular memory accesses");
        let hits = r.counter("sim_hits_total", "Cache hits");
        let misses = r.counter("sim_misses_total", "Cache misses");
        let causes: Vec<Counter> = CAUSE_LABELS
            .iter()
            .map(|c| {
                r.counter_with(
                    "sim_miss_cause_total",
                    &[("cause", c)],
                    "Classified misses by cause (attrib taxonomy)",
                )
            })
            .collect();
        let stall = r.counter("sim_stall_ns_total", "Memory-stall nanoseconds charged");
        let sim_ns = r.counter("sim_time_ns_total", "Simulated nanoseconds completed");
        let ev_rate_g = r.gauge("sim_events_per_sec", "Engine events per host second (EWMA)");
        let miss_rate_g = r.gauge("sim_misses_per_sec", "Cache misses per host second (EWMA)");
        let classes: Vec<ClassRates> = CLASS_LABELS
            .iter()
            .map(|c| ClassRates {
                service: r.counter_with(
                    "sim_class_service_ns_total",
                    &[("class", c)],
                    "Uncontended service ns per resource class",
                ),
                queue: r.counter_with(
                    "sim_class_queue_ns_total",
                    &[("class", c)],
                    "Queueing-delay ns per resource class",
                ),
                occupancy: r.gauge_with(
                    "sim_class_occupancy_ns_per_sec",
                    &[("class", c)],
                    "Simulated service ns charged per host second (EWMA)",
                ),
                depth: r.gauge_with(
                    "sim_class_queue_depth",
                    &[("class", c)],
                    "Queueing delay accumulated per host time: average \
                     simulated transactions queued at the class, scaled by \
                     sim/host speed (Little's law on d(queue_ns)/dt)",
                ),
                service_rate: RateFilter::new(RATE_TAU_S),
                queue_rate: RateFilter::new(RATE_TAU_S),
            })
            .collect();

        // --- sweep pool and store layer ----------------------------
        let pool_done = r.counter("sweep_pool_tasks_done_total", "Pool tasks completed");
        let pool_steals = r.counter("sweep_pool_steals_total", "Pool steal batches");
        let store_bytes = r.counter("sweep_store_bytes_total", "Bytes appended to result stores");
        let store_recs = r.counter(
            "sweep_store_records_total",
            "Records appended to result stores",
        );

        // --- host self-profiler (ccnuma_sim::prof) -----------------
        let prof_series: Vec<(Counter, Counter, Gauge, RateFilter)> = ccnuma_sim::prof::Region::ALL
            .iter()
            .map(|reg| {
                let name = reg.name();
                (
                    r.counter_with(
                        "host_prof_self_ns_total",
                        &[("region", name)],
                        "Host nanoseconds of self time per profiled region",
                    ),
                    r.counter_with(
                        "host_prof_calls_total",
                        &[("region", name)],
                        "Profiled span entries per region",
                    ),
                    r.gauge_with(
                        "host_prof_busy_ratio",
                        &[("region", name)],
                        "Fraction of one host core spent in the region \
                         (EWMA of d(self_ns)/dt / 1e9)",
                    ),
                    RateFilter::new(RATE_TAU_S),
                )
            })
            .collect();

        // --- bench itself ------------------------------------------
        // Constant-1 gauge whose labels carry the build identity, so a
        // scraper can assert what it is talking to without parsing
        // /snapshot.
        r.gauge_with(
            "build_info",
            &[
                ("version", env!("CARGO_PKG_VERSION")),
                ("model", ccnuma_sim::MODEL_FINGERPRINT),
            ],
            "Always 1; the labels carry the crate version and the model fingerprint",
        )
        .set(1.0);
        let uptime = r.gauge("bench_uptime_seconds", "Seconds since telemetry started");
        let epochs = r.counter("bench_epochs_total", "Refresher epochs completed");

        let stop = Arc::new(AtomicBool::new(false));
        let registry = r.clone();
        let stop2 = Arc::clone(&stop);
        let refresher = std::thread::Builder::new()
            .name("bench-live-refresh".into())
            .spawn(move || {
                let t0 = Instant::now();
                let mut last = Instant::now();
                let mut ev_rate = RateFilter::new(RATE_TAU_S);
                let mut miss_rate = RateFilter::new(RATE_TAU_S);
                let mut classes = classes;
                let mut prof_series = prof_series;
                loop {
                    let stopping = stop2.load(Ordering::SeqCst);
                    let dt = last.elapsed().as_secs_f64();
                    last = Instant::now();
                    let snap = ccnuma_sim::live::LIVE.snapshot();
                    runs_started.mirror(snap.runs_started);
                    runs_finished.mirror(snap.runs_finished);
                    events.mirror(snap.events);
                    accesses.mirror(snap.accesses);
                    hits.mirror(snap.hits);
                    misses.mirror(snap.misses);
                    for (i, c) in causes.iter().enumerate() {
                        c.mirror(snap.miss_causes[i]);
                    }
                    stall.mirror(snap.mem_stall_ns);
                    sim_ns.mirror(snap.sim_ns);
                    ev_rate_g.set(ev_rate.update(snap.events, dt));
                    miss_rate_g.set(miss_rate.update(snap.misses, dt));
                    for (i, cr) in classes.iter_mut().enumerate() {
                        cr.service.mirror(snap.service_ns[i]);
                        cr.queue.mirror(snap.queue_ns[i]);
                        cr.occupancy
                            .set(cr.service_rate.update(snap.service_ns[i], dt));
                        // d(queue_ns)/dt has units sim-ns of queueing per
                        // host second; dividing by 1e9 yields queued
                        // transactions x (sim seconds / host seconds).
                        cr.depth
                            .set(cr.queue_rate.update(snap.queue_ns[i], dt) / 1e9);
                    }
                    let (prof_self, prof_calls) = ccnuma_sim::prof::cumulative();
                    for (i, (self_c, calls_c, busy_g, busy_rate)) in
                        prof_series.iter_mut().enumerate()
                    {
                        self_c.mirror(prof_self[i]);
                        calls_c.mirror(prof_calls[i]);
                        // d(self_ns)/dt is host ns of region time per host
                        // second; /1e9 yields cores busy in the region.
                        busy_g.set(busy_rate.update(prof_self[i], dt) / 1e9);
                    }
                    let pl = &ccnuma_sweep::pool::LIVE;
                    pool_done.mirror(pl.tasks_done.load(Ordering::Relaxed));
                    pool_steals.mirror(pl.steals.load(Ordering::Relaxed));
                    for (w, s) in pl.worker_steals.iter().enumerate() {
                        let v = s.load(Ordering::Relaxed);
                        if v > 0 {
                            // Lazily registered so idle worker slots do
                            // not clutter the exposition.
                            registry
                                .counter_with(
                                    "sweep_pool_worker_steals_total",
                                    &[("worker", &w.to_string())],
                                    "Steal batches per worker slot",
                                )
                                .mirror(v);
                        }
                    }
                    store_bytes
                        .mirror(ccnuma_sweep::store::LIVE_BYTES_APPENDED.load(Ordering::Relaxed));
                    store_recs
                        .mirror(ccnuma_sweep::store::LIVE_RECORDS_APPENDED.load(Ordering::Relaxed));
                    uptime.set(t0.elapsed().as_secs_f64());
                    epochs.inc();
                    if stopping {
                        return;
                    }
                    let next = last + epoch;
                    while Instant::now() < next && !stop2.load(Ordering::SeqCst) {
                        std::thread::sleep(Duration::from_millis(10).min(epoch));
                    }
                }
            })
            .expect("spawn refresher");
        Wiring {
            registry: r,
            stop,
            refresher: Some(refresher),
        }
    }

    /// Stops the refresher after one final mirror pass, so the registry
    /// holds the terminal counter state.
    pub fn stop(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.refresher.take() {
            let _ = h.join();
        }
    }

    /// Builds a sweep event sink that records per-cell lifecycle into
    /// the registry, optionally forwards each event to an SSE hub, and
    /// optionally prints a live one-line progress summary to stderr.
    pub fn event_recorder(
        &self,
        total_cells: usize,
        hub: Option<HubHandle>,
        progress: bool,
    ) -> EventSink {
        recorder(&self.registry, total_cells, hub, progress)
    }

    /// Mirrors the final epoch-sampled machine gauges of post-mortem
    /// traces into the registry (one `cell`-labeled gauge set per
    /// traced cell), asserting per-cell reconciliation along the way.
    pub fn ingest_traces(&self, gauges: &[(String, Vec<GaugeSample>)]) {
        for (label, samples) in gauges {
            if let Some(last) = ingest_gauges(&self.registry, label, samples) {
                debug_assert_eq!(
                    reconcile(&self.registry, label, &last),
                    Ok(()),
                    "trace gauges and registry must agree for {label}"
                );
            }
        }
    }

    /// Mirrors per-cell critical-path shares (and the headline `sync=0`
    /// projection) into the registry, one `cell`-labeled gauge set per
    /// profiled cell.
    pub fn ingest_critpaths(&self, reports: &[(String, ccnuma_sim::critpath::CritReport)]) {
        for (label, rep) in reports {
            ingest_critpath(&self.registry, label, rep);
        }
    }
}

/// Sets the `cell`-labeled critical-path gauges from one cell's report:
/// the busy/memory/sync on-path percentage split (which sums to 100 by
/// construction) and the projected `sync=0` speedup.
pub fn ingest_critpath(registry: &Registry, label: &str, rep: &ccnuma_sim::critpath::CritReport) {
    let (busy, mem, sync) = rep.share_pct();
    let fields: [(&str, f64); 4] = [
        ("critpath_busy_pct", busy),
        ("critpath_mem_pct", mem),
        ("critpath_sync_pct", sync),
        ("critpath_sync0_speedup", rep.speedup("sync=0")),
    ];
    for (name, v) in fields {
        registry
            .gauge_with(
                name,
                &[("cell", label)],
                "Critical-path share of the cell's simulated wall clock",
            )
            .set(v);
    }
}

/// State shared by one event-recorder closure.
struct RecorderState {
    started: Counter,
    running: Gauge,
    live_started: AtomicU64,
    live_finished: AtomicU64,
    done_ok: Counter,
    done_panic: Counter,
    done_timeout: Counter,
    done_failed: Counter,
    cache_hits: Counter,
    retries: Counter,
    host_ms: Histogram,
    total: usize,
    finished: AtomicU64,
    quarantined: AtomicU64,
    hits_seen: AtomicU64,
    hub: Option<HubHandle>,
    progress: bool,
}

/// Builds the sweep event sink over `registry`.
pub fn recorder(
    registry: &Registry,
    total_cells: usize,
    hub: Option<HubHandle>,
    progress: bool,
) -> EventSink {
    registry
        .gauge("sweep_cells_total", "Cells in the requested matrix")
        .set(total_cells as f64);
    let st = Arc::new(RecorderState {
        started: registry.counter("sweep_cells_started_total", "Cell attempts begun"),
        running: registry.gauge("sweep_cells_running", "Cells executing right now"),
        live_started: AtomicU64::new(0),
        live_finished: AtomicU64::new(0),
        done_ok: registry.counter_with(
            "sweep_cells_done_total",
            &[("status", "ok")],
            "Cells finished, by terminal status",
        ),
        done_panic: registry.counter_with(
            "sweep_cells_done_total",
            &[("status", "panic")],
            "Cells finished, by terminal status",
        ),
        done_timeout: registry.counter_with(
            "sweep_cells_done_total",
            &[("status", "timeout")],
            "Cells finished, by terminal status",
        ),
        done_failed: registry.counter_with(
            "sweep_cells_done_total",
            &[("status", "failed")],
            "Cells finished, by terminal status",
        ),
        cache_hits: registry.counter(
            "sweep_cells_cache_hits_total",
            "Cells satisfied from the store without re-running",
        ),
        retries: registry.counter("sweep_cell_retries_total", "Per-cell retry attempts"),
        host_ms: registry.histogram(
            "sweep_cell_host_ms",
            "Host milliseconds per executed cell (log2 buckets)",
        ),
        total: total_cells,
        finished: AtomicU64::new(0),
        quarantined: AtomicU64::new(0),
        hits_seen: AtomicU64::new(0),
        hub,
        progress,
    });
    Arc::new(move |ev: &ExecEvent| {
        match ev {
            ExecEvent::Started { .. } => {
                st.started.inc();
                let live = st.live_started.fetch_add(1, Ordering::SeqCst) + 1
                    - st.live_finished.load(Ordering::SeqCst);
                st.running.set(live as f64);
            }
            ExecEvent::Retried { .. } => st.retries.inc(),
            ExecEvent::Finished {
                status,
                cache_hit,
                host_ms,
                ..
            } => {
                match status {
                    CellStatus::Ok => st.done_ok.inc(),
                    CellStatus::Panicked => st.done_panic.inc(),
                    CellStatus::TimedOut => st.done_timeout.inc(),
                    CellStatus::Failed => st.done_failed.inc(),
                }
                if *cache_hit {
                    st.cache_hits.inc();
                    st.hits_seen.fetch_add(1, Ordering::SeqCst);
                } else {
                    st.host_ms.observe(*host_ms);
                    let fin = st.live_finished.fetch_add(1, Ordering::SeqCst) + 1;
                    let run = st.live_started.load(Ordering::SeqCst).saturating_sub(fin);
                    st.running.set(run as f64);
                }
                if status.quarantined() {
                    st.quarantined.fetch_add(1, Ordering::SeqCst);
                }
                let done = st.finished.fetch_add(1, Ordering::SeqCst) + 1;
                if st.progress {
                    let q = st.quarantined.load(Ordering::SeqCst);
                    let hits = st.hits_seen.load(Ordering::SeqCst);
                    // Explicit zero guard: a zero-cell matrix (or a
                    // hand-driven sink) must never put NaN in the
                    // summary line.
                    let pct = if done == 0 {
                        0.0
                    } else {
                        100.0 * hits as f64 / done as f64
                    };
                    eprintln!(
                        "[sweep] {done}/{} done, {q} quarantined, {pct:.0}% cache hits",
                        st.total
                    );
                }
            }
        }
        if let Some(h) = &st.hub {
            h.publish("cell", &ev.to_json());
        }
    })
}

/// Sets the `cell`-labeled trace gauges from the last epoch sample of a
/// post-mortem trace; asserts the series is monotone in time. Returns
/// the last sample, or `None` for gauge-less traces.
pub fn ingest_gauges(
    registry: &Registry,
    label: &str,
    samples: &[GaugeSample],
) -> Option<GaugeSample> {
    assert!(
        samples.windows(2).all(|w| w[0].t <= w[1].t),
        "trace gauge series for {label} must be monotone in virtual time"
    );
    let last = samples.last()?;
    let fields: [(&str, f64); 6] = [
        ("trace_miss_pct", last.miss_pct),
        ("trace_hub_occ_pct", last.hub_occ_pct),
        ("trace_mem_occ_pct", last.mem_occ_pct),
        ("trace_router_occ_pct", last.router_occ_pct),
        ("trace_outstanding", last.outstanding),
        ("trace_queue_pct", last.queue_pct),
    ];
    for (name, v) in fields {
        registry
            .gauge_with(
                name,
                &[("cell", label)],
                "Final epoch-sampled machine gauge from the cell's trace",
            )
            .set(v);
    }
    Some(*last)
}

/// Reconciliation: the registry's `cell`-labeled trace gauges must
/// read back exactly the values of the trace sample they were fed from
/// — one source of truth for post-mortem and live occupancy numbers.
pub fn reconcile(registry: &Registry, label: &str, sample: &GaugeSample) -> Result<(), String> {
    let check = |name: &str, want: f64| -> Result<(), String> {
        let got = registry.gauge_with(name, &[("cell", label)], "").get();
        if got == want {
            Ok(())
        } else {
            Err(format!(
                "{name}{{cell={label}}}: registry {got} != trace {want}"
            ))
        }
    };
    check("trace_miss_pct", sample.miss_pct)?;
    check("trace_hub_occ_pct", sample.hub_occ_pct)?;
    check("trace_mem_occ_pct", sample.mem_occ_pct)?;
    check("trace_router_occ_pct", sample.router_occ_pct)?;
    check("trace_outstanding", sample.outstanding)?;
    check("trace_queue_pct", sample.queue_pct)
}

// ---------------------------------------------------------------- top

/// One parsed epoch record, as served by `/snapshot` or logged to the
/// `--live-log` JSONL file.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochRecord {
    /// Epoch sequence number (strictly increasing).
    pub seq: u64,
    /// Milliseconds since the observer started.
    pub t_ms: u64,
    /// Flat series values, in emission order. `None` for JSON `null`
    /// (non-finite gauges).
    pub metrics: Vec<(String, Option<f64>)>,
}

impl EpochRecord {
    /// Looks up one series by exact key.
    pub fn get(&self, key: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(k, _)| k == key)
            .and_then(|(_, v)| *v)
    }

    /// Re-serializes the record in the exact one-line shape
    /// [`parse_epoch_record`] reads — what `bench top --json` prints, so
    /// scripts get machine-readable output without scraping the
    /// dashboard.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"seq\":{},\"t_ms\":{},\"metrics\":{{",
            self.seq, self.t_ms
        );
        for (i, (k, v)) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&json::quote(k));
            out.push(':');
            match v {
                Some(x) => out.push_str(&format!("{x}")),
                None => out.push_str("null"),
            }
        }
        out.push_str("}}");
        out
    }
}

/// Parses one epoch record line
/// (`{"seq":N,"t_ms":T,"metrics":{"k":v,...}}`). Returns `None` on any
/// malformed shape — including torn trailing JSONL lines.
pub fn parse_epoch_record(line: &str) -> Option<EpochRecord> {
    let line = line.trim();
    let rest = line.strip_prefix("{\"seq\":")?;
    let comma = rest.find(',')?;
    let seq: u64 = rest[..comma].parse().ok()?;
    let rest = rest[comma + 1..].strip_prefix("\"t_ms\":")?;
    let comma = rest.find(',')?;
    let t_ms: u64 = rest[..comma].parse().ok()?;
    let rest = rest[comma + 1..].strip_prefix("\"metrics\":{")?;
    let mut body = rest.strip_suffix("}}")?;
    let mut metrics = Vec::new();
    // `"k":v` pairs; keys are escaped strings (commas and braces allowed),
    // values are numbers or `null`, which never contain a comma.
    while !body.trim().is_empty() {
        let (key, rest) = json::string(body).ok()?;
        let rest = rest.trim_start().strip_prefix(':')?;
        let (v, tail) = rest.split_once(',').unwrap_or((rest, ""));
        let value = match v.trim() {
            "null" => None,
            v => Some(v.parse().ok()?),
        };
        metrics.push((key, value));
        body = tail;
    }
    Some(EpochRecord { seq, t_ms, metrics })
}

/// Fetches `/snapshot` from a running hub over a raw TCP GET and parses
/// the body as an epoch record.
pub fn fetch_snapshot(addr: &str) -> Result<EpochRecord, String> {
    use std::io::{Read, Write};
    let mut s = std::net::TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    s.set_read_timeout(Some(Duration::from_secs(5))).ok();
    write!(
        s,
        "GET /snapshot HTTP/1.1\r\nHost: bench\r\nConnection: close\r\n\r\n"
    )
    .map_err(|e| format!("send: {e}"))?;
    let mut buf = String::new();
    s.read_to_string(&mut buf)
        .map_err(|e| format!("read: {e}"))?;
    let body = buf
        .split_once("\r\n\r\n")
        .map(|(_, b)| b)
        .ok_or("malformed HTTP response")?;
    parse_epoch_record(body).ok_or_else(|| format!("malformed snapshot body: {body}"))
}

/// Reads the last complete epoch record of a `--live-log` JSONL file,
/// tolerating a torn final line.
pub fn last_log_record(path: &std::path::Path) -> Result<EpochRecord, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    text.lines()
        .rev()
        .find_map(parse_epoch_record)
        .ok_or_else(|| format!("{}: no complete epoch record", path.display()))
}

/// Renders the `bench top` dashboard from one epoch record.
pub fn render_top(rec: &EpochRecord) -> String {
    let g = |k: &str| rec.get(k).unwrap_or(0.0);
    let mut out = String::new();
    out.push_str(&format!(
        "epoch {}  t={:.1}s  uptime={:.1}s\n",
        rec.seq,
        rec.t_ms as f64 / 1e3,
        g("bench_uptime_seconds"),
    ));
    out.push_str(&format!(
        "sim    {:>12.0} ev/s {:>12.0} miss/s   runs {:.0}/{:.0}   sim-time {:.2}ms\n",
        g("sim_events_per_sec"),
        g("sim_misses_per_sec"),
        g("sim_runs_finished_total"),
        g("sim_runs_started_total"),
        g("sim_time_ns_total") / 1e6,
    ));
    let busy = |region: &str| g(&format!("host_prof_busy_ratio{{region={region}}}"));
    let host_total: f64 = ccnuma_sim::prof::Region::ALL
        .iter()
        .map(|r| busy(r.name()))
        .sum();
    out.push_str(&format!(
        "host   {:>8.2} core(s) profiled   engine {:.2}   memsys {:.2}   directory {:.2}\n",
        host_total,
        busy("engine_dispatch"),
        busy("memsys_service"),
        busy("directory"),
    ));
    for c in CLASS_LABELS {
        let occ = g(&format!("sim_class_occupancy_ns_per_sec{{class={c}}}"));
        let depth = g(&format!("sim_class_queue_depth{{class={c}}}"));
        out.push_str(&format!(
            "class  {c:<10} occ {:>10.0} ns/s   queue depth {:>8.3} {}\n",
            occ,
            depth,
            bar(depth, 8.0)
        ));
    }
    let done = g("sweep_cells_done_total{status=ok}")
        + g("sweep_cells_done_total{status=panic}")
        + g("sweep_cells_done_total{status=timeout}")
        + g("sweep_cells_done_total{status=failed}");
    let quarantined = done - g("sweep_cells_done_total{status=ok}");
    out.push_str(&format!(
        "sweep  {:.0}/{:.0} done ({:.0} running), {:.0} quarantined, {:.0} cache hits, {:.0} retries\n",
        done,
        g("sweep_cells_total"),
        g("sweep_cells_running"),
        quarantined,
        g("sweep_cells_cache_hits_total"),
        g("sweep_cell_retries_total"),
    ));
    out.push_str(&format!(
        "cells  host ms p50 {:.0}  p90 {:.0}  p99 {:.0}  (of {:.0} executed)\n",
        g("sweep_cell_host_ms_p50"),
        g("sweep_cell_host_ms_p90"),
        g("sweep_cell_host_ms_p99"),
        g("sweep_cell_host_ms_count"),
    ));
    out.push_str(&format!(
        "store  {:.1} KiB in {:.0} record(s), pool {:.0} task(s), {:.0} steal(s)\n",
        g("sweep_store_bytes_total") / 1024.0,
        g("sweep_store_records_total"),
        g("sweep_pool_tasks_done_total"),
        g("sweep_pool_steals_total"),
    ));
    out
}

/// A 16-cell ASCII bar for a value in `[0, max]`.
fn bar(v: f64, max: f64) -> String {
    let cells = 16usize;
    let filled = ((v / max).clamp(0.0, 1.0) * cells as f64).round() as usize;
    format!("[{}{}]", "#".repeat(filled), ".".repeat(cells - filled))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoch_record_round_trips() {
        let line = r#"{"seq":7,"t_ms":1250,"metrics":{"a_total":42,"b":1.5,"c{class=hub}":0.25,"n":null}}"#;
        let rec = parse_epoch_record(line).expect("parses");
        assert_eq!(rec.seq, 7);
        assert_eq!(rec.t_ms, 1250);
        assert_eq!(rec.get("a_total"), Some(42.0));
        assert_eq!(rec.get("b"), Some(1.5));
        assert_eq!(rec.get("c{class=hub}"), Some(0.25));
        assert_eq!(rec.get("n"), None);
        assert_eq!(rec.metrics.len(), 4);
    }

    #[test]
    fn epoch_record_reserializes_in_parseable_shape() {
        let line = r#"{"seq":7,"t_ms":1250,"metrics":{"a_total":42,"b":1.5,"c{class=hub}":0.25,"n":null}}"#;
        let rec = parse_epoch_record(line).expect("parses");
        let back = parse_epoch_record(&rec.to_json()).expect("to_json parses back");
        assert_eq!(back, rec);
    }

    #[test]
    fn control_characters_and_quotes_in_keys_survive_both_writers() {
        let key = "odd{cell=\"a,b\"}\u{1}\t";
        // As the telemetry hub writes it (`/snapshot`, `--live-log`).
        let hub_line = format!(
            "{{\"seq\":1,\"t_ms\":2,\"metrics\":{{\"{}\":3.5,\"z\":null}}}}",
            ccnuma_telemetry::expo::esc_json(key)
        );
        let rec = parse_epoch_record(&hub_line).expect("hub line parses");
        assert_eq!(rec.metrics[0], (key.to_string(), Some(3.5)));
        // As `bench top --json` re-serializes it: valid JSON, no raw
        // control characters, and the same record back.
        let line = rec.to_json();
        assert!(!line.chars().any(char::is_control), "{line:?}");
        assert_eq!(parse_epoch_record(&line), Some(rec));
    }

    #[test]
    fn critpath_gauges_mirror_the_report_shares() {
        let mut cfg = ccnuma_sim::config::MachineConfig::origin2000_scaled(2, 16 << 10);
        cfg.critpath = true;
        let m = ccnuma_sim::machine::Machine::new(cfg).unwrap();
        let stats = m.run(|ctx| ctx.compute_ops(64)).unwrap();
        let rep = stats.critpath.expect("critpath report present");
        let r = Registry::new();
        ingest_critpath(&r, "fft/orig/2p", &rep);
        let (busy, mem, sync) = rep.share_pct();
        let g = |name: &str| r.gauge_with(name, &[("cell", "fft/orig/2p")], "").get();
        assert_eq!(g("critpath_busy_pct"), busy);
        assert_eq!(g("critpath_mem_pct"), mem);
        assert_eq!(g("critpath_sync_pct"), sync);
        assert_eq!(g("critpath_sync0_speedup"), rep.speedup("sync=0"));
        assert!((busy + mem + sync - 100.0).abs() < 0.5);
    }

    #[test]
    fn torn_lines_do_not_parse() {
        assert!(parse_epoch_record("{\"seq\":3,\"t_ms\":9,\"metrics\":{\"a\":1").is_none());
        assert!(parse_epoch_record("").is_none());
        assert!(parse_epoch_record("garbage").is_none());
    }

    #[test]
    fn recorder_counts_lifecycle() {
        let r = Registry::new();
        let sink = recorder(&r, 3, None, false);
        sink(&ExecEvent::Started {
            label: "fft/orig/4p".into(),
            nprocs: 4,
        });
        sink(&ExecEvent::Retried {
            label: "fft/orig/4p".into(),
            attempt: 1,
            error: "boom".into(),
        });
        sink(&ExecEvent::Finished {
            label: "fft/orig/4p".into(),
            status: CellStatus::Ok,
            cache_hit: false,
            attempts: 2,
            host_ms: 120,
        });
        sink(&ExecEvent::Finished {
            label: "fft/orig/2p".into(),
            status: CellStatus::Ok,
            cache_hit: true,
            attempts: 0,
            host_ms: 0,
        });
        let text = ccnuma_telemetry::expo::prometheus(&r.snapshot());
        assert!(text.contains("sweep_cells_started_total 1\n"), "{text}");
        assert!(text.contains("sweep_cell_retries_total 1\n"), "{text}");
        assert!(
            text.contains("sweep_cells_done_total{status=\"ok\"} 2\n"),
            "{text}"
        );
        assert!(text.contains("sweep_cells_cache_hits_total 1\n"), "{text}");
        assert!(text.contains("sweep_cells_running 0\n"), "{text}");
        assert!(text.contains("sweep_cell_host_ms_count 1\n"), "{text}");
        assert!(text.contains("sweep_cells_total 3\n"), "{text}");
    }

    #[test]
    fn ingest_and_reconcile_trace_gauges() {
        let r = Registry::new();
        let s = GaugeSample {
            t: 1000,
            interval_ns: 500,
            miss_pct: 3.5,
            hub_occ_pct: 40.0,
            mem_occ_pct: 25.0,
            router_occ_pct: 10.0,
            outstanding: 1.25,
            coherence_pct: 0.0,
            false_share_pct: 0.0,
            queue_pct: 12.0,
        };
        let mut s2 = s;
        s2.t = 2000;
        s2.hub_occ_pct = 55.0;
        let last = ingest_gauges(&r, "fft/orig/4p", &[s, s2]).expect("has samples");
        assert_eq!(last.hub_occ_pct, 55.0, "last sample wins");
        assert_eq!(reconcile(&r, "fft/orig/4p", &last), Ok(()));
        let mut wrong = last;
        wrong.hub_occ_pct = 99.0;
        assert!(reconcile(&r, "fft/orig/4p", &wrong).is_err());
    }

    #[test]
    #[should_panic(expected = "monotone")]
    fn ingest_rejects_time_travel() {
        let r = Registry::new();
        let mk = |t| GaugeSample {
            t,
            interval_ns: 1,
            miss_pct: 0.0,
            hub_occ_pct: 0.0,
            mem_occ_pct: 0.0,
            router_occ_pct: 0.0,
            outstanding: 0.0,
            coherence_pct: 0.0,
            false_share_pct: 0.0,
            queue_pct: 0.0,
        };
        ingest_gauges(&r, "x", &[mk(5), mk(3)]);
    }

    #[test]
    fn top_renders_the_headline_numbers() {
        let rec = EpochRecord {
            seq: 4,
            t_ms: 2000,
            metrics: vec![
                ("sim_events_per_sec".into(), Some(123456.0)),
                ("sweep_cells_total".into(), Some(10.0)),
                ("sweep_cells_done_total{status=ok}".into(), Some(6.0)),
                ("sweep_cells_done_total{status=panic}".into(), Some(1.0)),
                ("sweep_cells_cache_hits_total".into(), Some(2.0)),
                (
                    "host_prof_busy_ratio{region=engine_dispatch}".into(),
                    Some(0.42),
                ),
                ("sweep_cell_host_ms_p50".into(), Some(12.0)),
                ("sweep_cell_host_ms_p90".into(), Some(80.0)),
            ],
        };
        let out = render_top(&rec);
        assert!(out.contains("epoch 4"), "{out}");
        assert!(out.contains("123456 ev/s"), "{out}");
        assert!(out.contains("7/10 done"), "{out}");
        assert!(out.contains("1 quarantined"), "{out}");
        assert!(out.contains("2 cache hits"), "{out}");
        assert!(out.contains("engine 0.42"), "{out}");
        assert!(out.contains("p50 12"), "{out}");
        assert!(out.contains("p90 80"), "{out}");
    }

    #[test]
    fn zero_cell_matrix_keeps_summary_and_top_finite() {
        // The recorder on an empty matrix, fed a stray cache-hit event:
        // nothing it exports may be NaN (flat JSON renders non-finite
        // gauges as null).
        let r = Registry::new();
        let sink = recorder(&r, 0, None, true);
        sink(&ExecEvent::Finished {
            label: "x".into(),
            status: CellStatus::Ok,
            cache_hit: true,
            attempts: 0,
            host_ms: 0,
        });
        let j = ccnuma_telemetry::expo::json(&r.snapshot());
        assert!(!j.contains("NaN") && !j.contains("null"), "{j}");

        // And the dashboard over a completely empty epoch record.
        let out = render_top(&EpochRecord {
            seq: 0,
            t_ms: 0,
            metrics: vec![],
        });
        assert!(out.contains("0/0 done"), "{out}");
        assert!(!out.contains("NaN") && !out.contains("inf"), "{out}");
    }

    #[test]
    fn wiring_mirrors_live_counters_and_stops() {
        let w = Wiring::start(Duration::from_millis(10));
        std::thread::sleep(Duration::from_millis(40));
        let reg = w.registry.clone();
        w.stop();
        let rows = reg.snapshot();
        let epochs = rows
            .iter()
            .find(|r| r.name == "bench_epochs_total")
            .expect("registered");
        match epochs.value {
            ccnuma_telemetry::SampleValue::Counter(n) => assert!(n >= 1, "epochs {n}"),
            ref v => panic!("wrong type {v:?}"),
        }
        // The build-identity series carries the crate version and model
        // fingerprint as labels and always reads 1.
        let info = rows
            .iter()
            .find(|r| r.name == "build_info")
            .expect("build_info registered");
        assert_eq!(
            info.value,
            ccnuma_telemetry::SampleValue::Gauge(1.0),
            "build_info reads 1"
        );
        let label = |k: &str| {
            info.labels
                .iter()
                .find(|(lk, _)| lk == k)
                .map(|(_, v)| v.as_str())
        };
        assert_eq!(label("version"), Some(env!("CARGO_PKG_VERSION")));
        assert_eq!(label("model"), Some(ccnuma_sim::MODEL_FINGERPRINT));
        // One self-time series per profiled region.
        let prof_rows = rows
            .iter()
            .filter(|r| r.name == "host_prof_self_ns_total")
            .count();
        assert_eq!(prof_rows, ccnuma_sim::prof::N_REGIONS);
    }
}
