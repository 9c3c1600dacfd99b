//! The three cell workloads and the instrumented cell path.
//!
//! One cell is one call sequence a user of the library makes:
//! `Machine::new` → `Workload::build` → `Machine::run` → `Job::verify`,
//! then dropping the results. The plain path times the whole sequence;
//! the traced path also records one span per call and reads the calling
//! thread's scheduler counters around `Machine::run`, whose engine loop
//! runs on the calling thread.

use std::time::Instant;

use ccnuma_sim::config::MachineConfig;
use ccnuma_sim::machine::Machine;
use ccnuma_sim::stats::RunStats;
use ccnuma_sim::trace::TraceConfig;
use ccnuma_sweep::matrix::CellSpec;
use splash_apps::common::{Workload, XorShift};
use splash_apps::fft::Fft;
use splash_apps::ocean::Ocean;
use splash_apps::protein::Protein;
use splash_apps::radix::Radix;
use splash_apps::water_nsq::WaterNsq;

use crate::golden::{self, Checker};
use crate::host::{self, ThreadSample};
use crate::span::Spans;

/// Modelled cache of the full-scale machine (the paper's 4 MB, scaled).
const FULL_CACHE: usize = 64 << 10;
/// Modelled cache of the quick-scale machine.
const QUICK_CACHE: usize = 16 << 10;

/// One runnable cell.
pub struct Cell {
    /// Stable id: shape, processor count and app seed.
    pub id: String,
    /// The workload with its seed field set.
    pub workload: Box<dyn Workload>,
    /// The machine it runs on, observers included.
    pub cfg: MachineConfig,
}

impl Cell {
    /// The cell a sweep-matrix spec describes, with the spec's label as id.
    pub fn from_spec(spec: &CellSpec) -> Option<Cell> {
        Some(Cell {
            id: spec.label(),
            workload: spec.workload()?,
            cfg: spec.machine(),
        })
    }
}

/// Switches the four optional observers (miss classification, event
/// trace, sanitizer, critical path) on or off.
pub fn with_observers(mut cfg: MachineConfig, on: bool) -> MachineConfig {
    cfg.classify_misses = on;
    cfg.trace = if on {
        TraceConfig::on()
    } else {
        TraceConfig::default()
    };
    cfg.sanitize.enabled = on;
    cfg.critpath = on;
    cfg
}

/// Whether any observer is on in `cfg`.
pub fn observers_on(cfg: &MachineConfig) -> bool {
    cfg.classify_misses || cfg.trace.enabled || cfg.sanitize.enabled || cfg.critpath
}

/// A seeded value for variant `v` of input `salt`.
fn app_seed(seed: u64, salt: u64, v: u64) -> u64 {
    XorShift::new(seed ^ salt.rotate_left(17) ^ v.wrapping_mul(0x9E37_79B9)).next_u64()
}

/// The cells of a cell workload for `seed`, in the seeded order; `None`
/// for a name that is not a cell workload. The seed picks the order and
/// each app's seed field. Several app seeds per shape average out how
/// much one generated input differs from another in cost.
pub fn cells_for(workload: &str, seed: u64) -> Option<Vec<Cell>> {
    let mut cells = Vec::new();
    let mut add = |name: &str, w: Box<dyn Workload>, np: usize, cache: usize, s: u64| {
        cells.push(Cell {
            id: format!("{name}/{np}p@{s:016x}"),
            workload: w,
            cfg: with_observers(
                MachineConfig::origin2000_scaled(np, cache),
                workload == "observers",
            ),
        });
    };
    match workload {
        // Protein: about one access and one sync op per engine event, so
        // the app-thread/engine handoff dominates; 32/64p add spawn/join.
        "handoff" => {
            for np in [8, 32, 64] {
                for v in 0..4 {
                    let s = app_seed(seed, 1, v);
                    let w = Protein {
                        seed: s,
                        ..Protein::new(192)
                    };
                    add("protein192", Box::new(w), np, FULL_CACHE, s);
                }
            }
        }
        // Large Radix and FFT: ~65 accesses per event, ~18% misses, so
        // engine, memory system, directory and page table dominate.
        "miss-stream" => {
            for v in 0..2 {
                let s = app_seed(seed, 2, v);
                let r = Radix {
                    seed: s,
                    ..Radix::new(128 << 10)
                };
                add("radix128k", Box::new(r), 8, FULL_CACHE, s);
                let f = Fft {
                    seed: s,
                    ..Fft::new(16)
                };
                add("fft65536", Box::new(f), 8, FULL_CACHE, s);
            }
        }
        // The pinned quick matrix with every observer on: observer hooks
        // dominate the engine's work.
        "observers" => {
            for np in [4, 8] {
                let s = app_seed(seed, 3, np as u64);
                let f = Fft {
                    seed: s,
                    ..Fft::new(10)
                };
                add("fft1024", Box::new(f), np, QUICK_CACHE, s);
                add("ocean32", Box::new(Ocean::new(32)), np, QUICK_CACHE, 0);
                let r = Radix {
                    seed: s,
                    ..Radix::new(8 << 10)
                };
                add("radix8k", Box::new(r), np, QUICK_CACHE, s);
                let w = WaterNsq {
                    seed: s,
                    ..WaterNsq::new(128)
                };
                add("waternsq128", Box::new(w), np, QUICK_CACHE, s);
            }
        }
        _ => return None,
    }
    let mut rng = XorShift::new(seed);
    for i in (1..cells.len()).rev() {
        cells.swap(i, rng.below(i as u64 + 1) as usize);
    }
    Some(cells)
}

/// The first cell of each distinct shape (id without its app seed): the
/// warm-up set.
pub fn one_per_shape(cells: &[Cell]) -> Vec<&Cell> {
    let mut seen = std::collections::HashSet::new();
    cells.iter().filter(|c| seen.insert(shape(&c.id))).collect()
}

/// Exact work counts of runs: identical on every run of the same cells.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// Engine events.
    pub events: u64,
    /// Line-granular memory accesses.
    pub accesses: u64,
    /// Cache hits.
    pub hits: u64,
    /// Misses served by the local node.
    pub misses_local: u64,
    /// Misses served by a remote node (clean or dirty).
    pub misses_remote: u64,
    /// Invalidations sent.
    pub invals: u64,
    /// Dirty-line writebacks.
    pub writebacks: u64,
    /// Lock acquires, barrier episodes and atomics.
    pub sync_ops: u64,
}

impl Counts {
    fn of(s: &RunStats) -> Counts {
        Counts {
            events: s.events,
            accesses: s.total(|p| p.accesses()),
            hits: s.total(|p| p.hits),
            misses_local: s.total(|p| p.misses_local),
            misses_remote: s.total(|p| p.misses_remote_clean + p.misses_remote_dirty),
            invals: s.total(|p| p.invals_sent),
            writebacks: s.total(|p| p.writebacks),
            sync_ops: s.total(|p| p.lock_acquires + p.barriers + p.atomics),
        }
    }

    /// Adds another set of counts.
    pub fn add(&mut self, o: &Counts) {
        self.events += o.events;
        self.accesses += o.accesses;
        self.hits += o.hits;
        self.misses_local += o.misses_local;
        self.misses_remote += o.misses_remote;
        self.invals += o.invals;
        self.writebacks += o.writebacks;
        self.sync_ops += o.sync_ops;
    }
}

/// Host-side split of one traced cell, in ns.
#[derive(Debug, Clone, Copy, Default)]
pub struct Split {
    /// `Machine::new`.
    pub new_ns: u64,
    /// `Workload::build`.
    pub build_ns: u64,
    /// `Machine::run`.
    pub run_ns: u64,
    /// `Job::verify`.
    pub verify_ns: u64,
    /// Dropping the run's statistics.
    pub teardown_ns: u64,
    /// Calling-thread counters over `Machine::run`: the coordinator.
    pub coord: ThreadSample,
    /// Calling-thread CPU over the whole cell.
    pub thread_cpu_ns: u64,
    /// Whole-process CPU over the whole cell.
    pub process_cpu_ns: u64,
}

/// What one cell run produced.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Host wall time of the cell, ns.
    pub wall_ns: u64,
    /// Digest of every simulated counter.
    pub digest: u64,
    /// Digest of the observer-independent simulated results.
    pub timing_digest: u64,
    /// Digest of the simulated fields a store record carries.
    pub record_digest: u64,
    /// Exact work counts.
    pub counts: Counts,
    /// The host split, on the traced path.
    pub split: Option<Split>,
    /// A simulation or verification failure.
    pub error: Option<String>,
}

/// Times `f`, as a span when tracing.
fn step<R>(
    spans: &mut Option<&mut Spans>,
    name: &'static str,
    op: u64,
    f: impl FnOnce() -> R,
) -> (R, u64) {
    match spans.as_deref_mut() {
        Some(s) => {
            s.begin(name, op);
            let r = f();
            (r, s.end())
        }
        None => (f(), 0),
    }
}

/// Runs one cell on `cfg`: plain when `spans` is `None`, traced otherwise.
pub fn run_cell(
    w: &dyn Workload,
    cfg: MachineConfig,
    mut spans: Option<&mut Spans>,
    op: u64,
) -> Outcome {
    let traced = spans.is_some();
    let t0 = Instant::now();
    let (cpu0, th0) = if traced {
        (host::process_cpu_ns(), ThreadSample::now())
    } else {
        Default::default()
    };
    if let Some(s) = spans.as_deref_mut() {
        s.begin("cell", op);
    }
    let mut out = Outcome::default();
    let mut split = Split::default();
    let (machine, ns) = step(&mut spans, "machine.new", op, || Machine::new(cfg));
    split.new_ns = ns;
    match machine {
        Err(e) => out.error = Some(format!("Machine::new: {e}")),
        Ok(mut machine) => {
            let (job, ns) = step(&mut spans, "apps.build", op, || w.build(&mut machine));
            split.build_ns = ns;
            let body = job.body;
            let before = if traced {
                ThreadSample::now()
            } else {
                ThreadSample::default()
            };
            let (run, ns) = step(&mut spans, "machine.run", op, move || {
                machine.run(move |ctx| body(ctx))
            });
            split.run_ns = ns;
            if traced {
                split.coord = ThreadSample::now().since(&before);
            }
            match run {
                Err(e) => out.error = Some(format!("Machine::run: {e}")),
                Ok(stats) => {
                    let (verified, ns) = step(&mut spans, "apps.verify", op, job.verify);
                    split.verify_ns = ns;
                    if let Err(e) = verified {
                        out.error = Some(format!("Job::verify: {e}"));
                    }
                    step(&mut spans, "check", op, || {
                        out.digest = golden::stats_digest(&stats);
                        out.timing_digest = golden::timing_digest(&stats);
                        out.record_digest = golden::stats_record_digest(&stats);
                        out.counts = Counts::of(&stats);
                    });
                    split.teardown_ns = step(&mut spans, "machine.teardown", op, || drop(stats)).1;
                }
            }
        }
    }
    out.wall_ns = match spans {
        Some(s) => s.end(),
        None => t0.elapsed().as_nanos() as u64,
    };
    if traced {
        split.thread_cpu_ns = ThreadSample::now().since(&th0).cpu_ns;
        split.process_cpu_ns = host::process_cpu_ns().saturating_sub(cpu0);
        out.split = Some(split);
    }
    out
}

/// Stop condition of a closed loop: at least `min_ops` operations, and
/// until `seconds` have passed.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    /// Seconds to keep measuring.
    pub seconds: f64,
    /// Operations to run whatever the time.
    pub min_ops: usize,
}

impl Budget {
    /// Whether a loop that started at `t0` and ran `ops` should go on.
    pub fn more(&self, t0: Instant, ops: usize) -> bool {
        ops < self.min_ops || t0.elapsed().as_secs_f64() < self.seconds
    }
}

/// The shape of a cell: its id without the app seed.
pub fn shape(id: &str) -> &str {
    id.split('@').next().unwrap_or(id)
}

/// Everything the untraced loop measured.
#[derive(Debug, Default)]
pub struct PlainLoop {
    /// Per cell: its shape and host wall time, ms.
    pub cell_ms: Vec<(String, f64)>,
    /// Engine events over all cells.
    pub events: u64,
    /// Loop wall time, s.
    pub wall_s: f64,
    /// Process CPU over the loop, ns.
    pub cpu_ns: u64,
    /// Failures, described.
    pub errors: Vec<String>,
}

/// Checks an outcome, returning the failure it represents, if any.
pub fn verdict(
    cell: &Cell,
    o: &Outcome,
    checker: &mut Checker,
    record_level: bool,
) -> Option<String> {
    if let Some(e) = &o.error {
        return Some(format!("{}: {e}", cell.id));
    }
    let digest = if record_level {
        o.record_digest
    } else {
        o.digest
    };
    checker.check(&cell.id, digest).err()
}

/// The closed loop with tracing off: one cell at a time, cycling through
/// `cells` in order.
pub fn plain_loop(cells: &[Cell], budget: Budget, checker: &mut Checker) -> PlainLoop {
    let mut out = PlainLoop::default();
    let cpu0 = host::process_cpu_ns();
    let t0 = Instant::now();
    while budget.more(t0, out.cell_ms.len()) {
        let cell = &cells[out.cell_ms.len() % cells.len()];
        let o = run_cell(cell.workload.as_ref(), cell.cfg.clone(), None, 0);
        out.cell_ms
            .push((shape(&cell.id).to_string(), o.wall_ns as f64 / 1e6));
        out.events += o.counts.events;
        out.errors.extend(verdict(cell, &o, checker, false));
    }
    out.wall_s = t0.elapsed().as_secs_f64();
    out.cpu_ns = host::process_cpu_ns().saturating_sub(cpu0);
    out
}

/// Everything the traced loop measured.
#[derive(Debug, Default)]
pub struct TracedLoop {
    /// Splits of the traced runs (observers as the workload sets them).
    pub splits: Vec<Split>,
    /// Engine events of the traced runs.
    pub events: u64,
    /// Per step: traced wall time over plain wall time of the same cell.
    pub trace_ratio: Vec<f64>,
    /// Per cell: (wall ms, coordinator CPU ms) with observers on, then off.
    pub observer_pairs: Vec<[(f64, f64); 2]>,
    /// Work counts summed over each distinct cell once.
    pub counts: Counts,
    /// Operations run.
    pub ops: usize,
    /// Failures, described.
    pub errors: Vec<String>,
}

/// The traced loop. Each step runs one cell three times back to back:
/// traced and plain (for the tracing overhead), then traced with the
/// observers switched (for the observer overhead). Switching observers
/// must not change simulated timing; that is checked too.
pub fn traced_loop(
    cells: &[Cell],
    budget: Budget,
    checker: &mut Checker,
    record_level: bool,
    spans: &mut Spans,
    first_op: u64,
) -> TracedLoop {
    let mut out = TracedLoop::default();
    let t0 = Instant::now();
    let mut i = 0;
    while budget.more(t0, i) {
        let cell = &cells[i % cells.len()];
        let op = first_op + i as u64;
        let w = cell.workload.as_ref();
        // Alternate which of the pair goes first, so neither always runs
        // on a cache the other warmed.
        let (traced, plain) = if i % 2 == 0 {
            let t = run_cell(w, cell.cfg.clone(), Some(spans), op);
            (t, run_cell(w, cell.cfg.clone(), None, op))
        } else {
            let p = run_cell(w, cell.cfg.clone(), None, op);
            (run_cell(w, cell.cfg.clone(), Some(spans), op), p)
        };
        let on = observers_on(&cell.cfg);
        let switched = run_cell(w, with_observers(cell.cfg.clone(), !on), Some(spans), op);
        out.ops += 3;
        for o in [&traced, &plain] {
            out.errors.extend(verdict(cell, o, checker, record_level));
        }
        if let Some(e) = &switched.error {
            out.errors
                .push(format!("{} (observers switched): {e}", cell.id));
        } else if switched.timing_digest != traced.timing_digest {
            out.errors.push(format!(
                "{}: switching observers changed simulated timing",
                cell.id
            ));
        }
        if i < cells.len() {
            out.counts.add(&traced.counts);
        }
        let point = |o: &Outcome| {
            let coord = o.split.map_or(0, |s| s.coord.cpu_ns);
            (o.wall_ns as f64 / 1e6, coord as f64 / 1e6)
        };
        out.observer_pairs.push(if on {
            [point(&traced), point(&switched)]
        } else {
            [point(&switched), point(&traced)]
        });
        if let Some(s) = traced.split {
            out.splits.push(s);
            out.events += traced.counts.events;
        }
        out.trace_ratio
            .push(traced.wall_ns as f64 / plain.wall_ns.max(1) as f64);
        i += 1;
    }
    out
}
