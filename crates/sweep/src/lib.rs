//! `ccnuma-sweep`: a parallel, resumable experiment-orchestration
//! engine for the paper's full matrix.
//!
//! One simulation uses roughly one host core (the engine advances
//! virtual time on a coordinator thread and parks the per-processor
//! threads behind it), so the full `apps × versions × procs` matrix is
//! embarrassingly parallel across *cells*. This crate fans the cells
//! out over a std-only [pool] of workers sharing one queue,
//! identifies every cell by a [content hash](key) of everything that
//! determines its result, and appends finished cells to a [crash-safe
//! JSONL store](store) — so `--resume` re-runs exactly the cells that
//! are missing, torn, or (optionally) quarantined, and nothing else.
//!
//! The pieces:
//!
//! - [`matrix`] — the `apps × versions × procs` DSL and its expansion
//!   into concrete cells;
//! - [`key`] — content-addressed run identity ([`RunKey`](key::RunKey));
//! - [`run`] — per-cell execution with panic isolation, timeout, and
//!   retry ([`Executor`]);
//! - [`store`] — the append-only JSONL result store;
//! - [`pool`] — workers sharing one first-in, first-out queue;
//! - [`sweep`] — the driver tying them together.

pub mod events;
pub mod key;
pub mod matrix;
pub mod pool;
pub mod run;
pub mod store;

use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use matrix::{CellSpec, MatrixSpec};
use run::{Executor, RunOptions};
use store::{CellRecord, Store};

/// How a sweep should be driven.
#[derive(Clone)]
pub struct SweepConfig {
    /// Worker threads: at least one, at most one per pending cell.
    pub jobs: usize,
    /// Reuse the existing store: completed cells are skipped, missing
    /// or torn ones re-run. When false the store is truncated first.
    pub resume: bool,
    /// With `resume`, also re-run quarantined (non-`Ok`) cells instead
    /// of skipping them.
    pub retry_quarantined: bool,
    /// Path of the JSONL result store.
    pub store_path: PathBuf,
    /// Per-cell execution options (retries, timeout, fault injection).
    pub opts: RunOptions,
    /// Directory to write per-cell attribution JSON into (cells must
    /// have been swept with `attrib=on` for the counts to be classified).
    pub attrib_dir: Option<PathBuf>,
    /// Directory to write per-cell Chrome/Perfetto traces into (only
    /// cells swept with `trace=on` carry a trace).
    pub trace_dir: Option<PathBuf>,
    /// Per-cell lifecycle event sink ([`events::ExecEvent`]); called
    /// from worker threads.
    pub events: Option<events::EventSink>,
}

impl std::fmt::Debug for SweepConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SweepConfig")
            .field("jobs", &self.jobs)
            .field("resume", &self.resume)
            .field("retry_quarantined", &self.retry_quarantined)
            .field("store_path", &self.store_path)
            .field("opts", &self.opts)
            .field("attrib_dir", &self.attrib_dir)
            .field("trace_dir", &self.trace_dir)
            .field("events", &self.events.is_some())
            .finish()
    }
}

impl Default for SweepConfig {
    fn default() -> Self {
        SweepConfig {
            jobs: 1,
            resume: false,
            retry_quarantined: false,
            store_path: PathBuf::from("sweep_results.jsonl"),
            opts: RunOptions::default(),
            attrib_dir: None,
            trace_dir: None,
            events: None,
        }
    }
}

/// What a sweep did, cell by cell.
#[derive(Debug)]
pub struct SweepOutcome {
    /// Cells actually simulated this invocation.
    pub executed: usize,
    /// Cells satisfied without a fresh simulation: store hits, plus
    /// duplicates of a cell executed this invocation.
    pub cached: usize,
    /// Labels of cells whose record is quarantined (any non-`Ok`
    /// status), whether from this invocation or a previous one.
    pub quarantined: Vec<String>,
    /// One record per matrix cell, in matrix order.
    pub records: Vec<CellRecord>,
    /// Full sanitize reports of the cells *executed this invocation*
    /// with sanitizing enabled, sorted by label (cached cells only
    /// carry their counts, inside [`CellRecord::sanitize`]).
    pub sanitizes: Vec<(String, ccnuma_sim::sanitize::SanitizeReport)>,
    /// Full critical-path reports of the cells *executed this
    /// invocation* with critical-path profiling enabled, sorted by label
    /// (cached cells only carry their summary triple, inside
    /// [`CellRecord::critpath`]).
    pub critpaths: Vec<(String, ccnuma_sim::critpath::CritReport)>,
    /// Lines dropped while loading the store (torn or foreign).
    pub dropped_lines: usize,
    /// Host time spent this invocation computing sequential baselines,
    /// each once; no record's `host_ms` includes it.
    pub baseline_time: std::time::Duration,
    /// Epoch-sampled machine gauges of the cells *executed this
    /// invocation* with tracing enabled, sorted by label — the same
    /// series the per-cell trace files carry, handed back so a live
    /// observer can mirror post-mortem gauges without re-parsing files.
    pub gauges: Vec<(String, Vec<ccnuma_sim::trace::GaugeSample>)>,
}

/// Expands `matrix` into cells and runs every cell that the store does
/// not already answer for, fanned out over `cfg.jobs` workers. Each
/// finished cell is appended to the store *by the worker that ran it*,
/// before the sweep moves on — a crash loses at most the cells in
/// flight, never a completed one.
///
/// # Errors
///
/// Any I/O error opening the store or writing reports; simulation
/// failures are data ([`CellStatus`](store::CellStatus)), not errors.
pub fn sweep(matrix: &MatrixSpec, cfg: &SweepConfig) -> std::io::Result<SweepOutcome> {
    let cells = matrix.cells();
    let store = Store::open(&cfg.store_path, cfg.resume)?;

    // Partition into cached hits and pending work. Duplicate cells
    // (identical run keys, possible in hand-built specs) collapse onto
    // one pending run and share its record at stitch time.
    let keys: Vec<String> = cells.iter().map(|c| c.key().hash_hex()).collect();
    let mut pending: Vec<&CellSpec> = Vec::new();
    let mut pending_keys: std::collections::HashSet<&str> = std::collections::HashSet::new();
    let mut cached: Vec<Option<CellRecord>> = vec![None; cells.len()];
    for (i, cell) in cells.iter().enumerate() {
        let hit = store
            .get(&keys[i])
            .filter(|rec| !(cfg.retry_quarantined && rec.status.quarantined()));
        match hit {
            Some(rec) => {
                events::emit(
                    &cfg.events,
                    events::ExecEvent::Finished {
                        label: rec.label.clone(),
                        status: rec.status,
                        cache_hit: true,
                        attempts: 0,
                        host_ms: 0,
                    },
                );
                cached[i] = Some(rec);
            }
            None => {
                if pending_keys.insert(&keys[i]) {
                    pending.push(cell);
                }
            }
        }
    }
    // Longest runs first: bigger simulated machines take longer, and
    // the pool's workers take cells in this order, so starting them
    // early keeps the tail of the sweep short.
    pending.sort_by_key(|c| std::cmp::Reverse(c.nprocs));

    let total = pending.len();
    let mut executor = Executor::new(cfg.opts.clone());
    if let Some(sink) = &cfg.events {
        executor = executor.with_events(sink.clone());
    }
    let io_errors: Mutex<Vec<std::io::Error>> = Mutex::new(Vec::new());
    let sanitizes: Mutex<Vec<(String, ccnuma_sim::sanitize::SanitizeReport)>> =
        Mutex::new(Vec::new());
    let critpaths: Mutex<Vec<(String, ccnuma_sim::critpath::CritReport)>> = Mutex::new(Vec::new());
    let gauges: Mutex<Vec<(String, Vec<ccnuma_sim::trace::GaugeSample>)>> = Mutex::new(Vec::new());

    let ran = pool::run(&pending, cfg.jobs, |spec| {
        let (rec, stats) = executor.run_cell_full(spec);
        // Persist before reporting progress: once a cell is announced
        // done, a crash must not lose it.
        let sink = |res: std::io::Result<()>| {
            if let Err(e) = res {
                io_errors.lock().expect("io error list poisoned").push(e);
            }
        };
        sink(store.append(&rec));
        if let Some(stats) = &stats {
            if let Some(dir) = &cfg.attrib_dir {
                sink(write_attrib(dir, spec, stats));
            }
            if let Some(trace) = &stats.trace {
                if let Some(dir) = &cfg.trace_dir {
                    sink(write_trace(dir, spec, trace));
                }
                if !trace.gauges.is_empty() {
                    gauges
                        .lock()
                        .expect("gauge list poisoned")
                        .push((spec.label(), trace.gauges.clone()));
                }
            }
            if let Some(rep) = &stats.sanitize {
                sanitizes
                    .lock()
                    .expect("sanitize list poisoned")
                    .push((spec.label(), rep.clone()));
            }
            if let Some(rep) = &stats.critpath {
                if let Some(dir) = &cfg.trace_dir {
                    sink(write_critpath_trace(dir, spec, rep));
                }
                critpaths
                    .lock()
                    .expect("critpath list poisoned")
                    .push((spec.label(), rep.clone()));
            }
        }
        rec
    });
    if let Some(e) = io_errors
        .into_inner()
        .expect("io error list poisoned")
        .pop()
    {
        return Err(e);
    }

    // Stitch executed records back into matrix order (lookup, not
    // removal — duplicate cells share the one executed record).
    let by_key: std::collections::HashMap<String, CellRecord> =
        ran.into_iter().map(|rec| (rec.key.clone(), rec)).collect();
    let mut records = Vec::with_capacity(cells.len());
    let mut quarantined = Vec::new();
    for i in 0..cells.len() {
        let rec = match cached[i].take() {
            Some(rec) => rec,
            None => by_key
                .get(keys[i].as_str())
                .expect("every pending cell produced a record")
                .clone(),
        };
        if rec.status.quarantined() {
            quarantined.push(rec.label.clone());
        }
        records.push(rec);
    }
    // Worker completion order is scheduling-dependent; sort so the
    // outcome is identical for any `--jobs` value.
    let mut sanitizes = sanitizes.into_inner().expect("sanitize list poisoned");
    sanitizes.sort_by(|a, b| a.0.cmp(&b.0));
    let mut critpaths = critpaths.into_inner().expect("critpath list poisoned");
    critpaths.sort_by(|a, b| a.0.cmp(&b.0));
    let mut gauges = gauges.into_inner().expect("gauge list poisoned");
    gauges.sort_by(|a, b| a.0.cmp(&b.0));
    Ok(SweepOutcome {
        executed: total,
        cached: cells.len() - total,
        quarantined,
        records,
        sanitizes,
        critpaths,
        dropped_lines: store.dropped_lines,
        baseline_time: executor.baseline_time(),
        gauges,
    })
}

/// File-name-safe form of a cell label (`fft/orig[2]/4p` →
/// `fft_orig_2__4p`).
fn safe_name(label: &str) -> String {
    label
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect()
}

fn write_attrib(
    dir: &Path,
    spec: &CellSpec,
    stats: &ccnuma_sim::stats::RunStats,
) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let label = spec.label();
    let json = scaling_study::report::attrib_json(&label, stats);
    let mut f = std::fs::File::create(dir.join(format!("{}.json", safe_name(&label))))?;
    f.write_all(json.as_bytes())
}

fn write_trace(
    dir: &Path,
    spec: &CellSpec,
    trace: &ccnuma_sim::trace::Trace,
) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let label = spec.label();
    let json = ccnuma_sim::trace::chrome_trace_file(&[(label.clone(), trace)]);
    let mut f = std::fs::File::create(dir.join(format!("{}.trace.json", safe_name(&label))))?;
    f.write_all(json.as_bytes())
}

fn write_critpath_trace(
    dir: &Path,
    spec: &CellSpec,
    rep: &ccnuma_sim::critpath::CritReport,
) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let label = spec.label();
    let json = rep.to_chrome_json(&label);
    let mut f = std::fs::File::create(dir.join(format!("{}.critpath.json", safe_name(&label))))?;
    f.write_all(json.as_bytes())
}
