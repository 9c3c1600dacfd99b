//! `simbench`: the host-time benchmark of the simulator.
//!
//! ```text
//! simbench --workload <handoff|miss-stream|observers|service> [--seed N]
//!          [--seconds S] [--trace 0|1]
//! simbench --smoke [--seed N]     # every workload, a few cells or jobs
//! simbench --bless                # regenerate golden.txt
//! ```
//!
//! Each run sets up (input generation, one warm-up cell of each shape or
//! a warm daemon) five times and reports the median set-up time, then
//! runs one closed loop for `--seconds`. It prints every metric as
//! `name value unit n=<samples>`, and as its last line one JSON object:
//! end-to-end metrics with `--trace 0`, per-layer metrics with
//! `--trace 1`. Simulated results are checked on every cell; any failure
//! makes the exit code 1. See README.md.

mod cells;
mod golden;
mod host;
mod probe;
mod service;
mod span;
mod stats;

use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use ccnuma_sweep::matrix::MatrixSpec;

use cells::{Budget, Cell, TracedLoop};
use golden::Checker;
use service::{Service, ServiceLoop, Stream};
use span::Spans;
use stats::{median, mix_quantile, Metric};

const WORKLOADS: [&str; 4] = ["handoff", "miss-stream", "observers", "service"];
const DEFAULT_SECONDS: f64 = 25.0;
/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Jobs of the daemon probe a traced cell workload runs.
const PROBE_JOBS: usize = 24;
/// Fresh cells a traced service run replays in-process.
const REPLAY_CELLS: usize = 12;
/// Seeds `--bless` writes golden digests for.
const BLESS_SEEDS: u64 = 10;
/// Fresh service cells per seed with a golden digest.
const GOLDEN_SERVICE_CELLS: usize = 24;

#[derive(Debug)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    bless: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        smoke: false,
        bless: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = Some(value()?),
            "--seed" => a.seed = value()?.parse().map_err(|_| "bad --seed")?,
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|_| "bad --seconds")?;
                if !(0.0..=3600.0).contains(&a.seconds) {
                    return Err("--seconds must be within 0..=3600".into());
                }
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--smoke" => a.smoke = true,
            "--bless" => a.bless = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if let Some(w) = &a.workload {
        if !WORKLOADS.contains(&w.as_str()) {
            return Err(format!("unknown workload {w:?} ({})", WORKLOADS.join(", ")));
        }
    } else if !a.smoke && !a.bless {
        return Err("--workload is required".into());
    }
    Ok(a)
}

/// How much one run does.
#[derive(Debug, Clone, Copy)]
struct Plan {
    seconds: f64,
    /// Cap on the minimum operation count (the smoke run's few cells).
    few: Option<usize>,
    setups: usize,
    trace: bool,
}

impl Plan {
    /// The primary loop: `--seconds`, and at least `natural_min` ops (the
    /// smoke run's few instead).
    fn budget(&self, natural_min: usize) -> Budget {
        Budget {
            seconds: self.seconds,
            min_ops: self.few.unwrap_or(natural_min),
        }
    }

    /// A secondary loop of `n` ops, fewer in the smoke run.
    fn fixed(&self, n: usize) -> Budget {
        Budget {
            seconds: 0.0,
            min_ops: self.few.map_or(n, |f| f.min(n)),
        }
    }
}

/// What one run produced.
#[derive(Debug, Default)]
struct Report {
    metrics: Vec<Metric>,
    attempted: usize,
    errors: Vec<String>,
}

impl Report {
    fn ops(&mut self, n: usize, errors: impl IntoIterator<Item = String>) {
        self.attempted += n;
        self.errors.extend(errors);
    }

    /// Records a metric; a value that could not be measured (no samples)
    /// is reported as 0.
    fn push(&mut self, name: &'static str, value: f64, unit: &'static str, samples: usize) {
        self.metrics.push(Metric {
            name,
            value: if value.is_finite() { value } else { 0.0 },
            unit,
            samples,
        });
    }
}

fn run_dir() -> PathBuf {
    let base = std::env::current_exe()
        .ok()
        .and_then(|p| p.parent().map(Path::to_path_buf))
        .unwrap_or_else(|| PathBuf::from("."));
    base.join(format!("simbench-run-{}", std::process::id()))
}

/// Digest of the seeded input list, for comparing runs.
fn input_list_digest(workload: &str, seed: u64) -> u64 {
    let list: Vec<String> = match cells::cells_for(workload, seed) {
        Some(cells) => cells.into_iter().map(|c| c.id).collect(),
        None => {
            let mut s = Stream::new(seed);
            (0..16).map(|_| s.next_job()).collect()
        }
    };
    golden::fnv64(list.join("\n").as_bytes())
}

fn run(workload: &str, seed: u64, plan: Plan, dir: &Path) -> Report {
    let mut r = Report::default();
    println!(
        "workload {workload} seed {seed} inputs {:016x}",
        input_list_digest(workload, seed)
    );
    let mut checker = match Checker::new(workload, seed) {
        Ok(c) => c,
        Err(e) => {
            r.ops(1, [e]);
            return r;
        }
    };
    if workload == "service" {
        run_service(seed, plan, dir, &mut checker, &mut r);
    } else {
        run_cells(workload, seed, plan, dir, &mut checker, &mut r);
    }
    r
}

/// Builds the cell list and runs one warm-up cell of each shape.
fn cell_setup(workload: &str, seed: u64, checker: &mut Checker, r: &mut Report) -> Vec<Cell> {
    let cells = cells::cells_for(workload, seed).expect("cell workload");
    for c in cells::one_per_shape(&cells) {
        let o = cells::run_cell(c.workload.as_ref(), c.cfg.clone(), None, 0);
        r.ops(1, cells::verdict(c, &o, checker, false));
    }
    cells
}

fn run_cells(
    workload: &str,
    seed: u64,
    plan: Plan,
    dir: &Path,
    checker: &mut Checker,
    r: &mut Report,
) {
    let mut setup_s = Vec::new();
    let mut cells = Vec::new();
    for _ in 0..plan.setups {
        let t = Instant::now();
        cells = cell_setup(workload, seed, checker, r);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let budget = plan.budget(cells.len());
    if !plan.trace {
        let lp = cells::plain_loop(&cells, budget, checker);
        r.ops(lp.cell_ms.len(), lp.errors);
        let totals = Totals {
            cells: lp.cell_ms.len(),
            events: lp.events,
            wall_s: lp.wall_s,
            cpu_ns: lp.cpu_ns,
            peak_rss_mib: host::peak_rss_mib(),
        };
        end_to_end(r, &setup_s, &lp.cell_ms, &totals);
        return;
    }
    let mut spans = Spans::new();
    let tl = cells::traced_loop(&cells, budget, checker, false, &mut spans, 0);
    r.ops(tl.ops, tl.errors.clone());
    let overhead = 100.0 * (median(&tl.trace_ratio) - 1.0);
    // The daemon layers, from a short fixed-length job stream.
    let sl = match start_service(dir, 0, checker, r) {
        Some(svc) => serve(
            svc,
            seed,
            plan.fixed(PROBE_JOBS),
            checker,
            Some(&mut spans),
            r,
        ),
        None => ServiceLoop::default(),
    };
    per_layer(r, &tl, &sl, overhead, &spans, seed, dir);
    write_trace(r, &spans, dir, workload, seed);
}

/// A daemon with a fresh store that has run its warm-up job, and the run
/// keys that job answered.
struct Warm(Service, HashSet<String>);

fn start_service(dir: &Path, tag: usize, checker: &mut Checker, r: &mut Report) -> Option<Warm> {
    match Service::start(dir, tag) {
        Ok(svc) => {
            let mut seen = HashSet::new();
            let w = service::run_job(&svc, service::WARMUP_DSL, &mut seen, checker, None, 0);
            r.ops(1, w.error);
            Some(Warm(svc, seen))
        }
        Err(e) => {
            r.ops(1, [format!("daemon start: {e}")]);
            None
        }
    }
}

/// Runs the seeded job stream against a warm daemon, then stops it.
fn serve(
    Warm(svc, mut seen): Warm,
    seed: u64,
    budget: Budget,
    checker: &mut Checker,
    spans: Option<&mut Spans>,
    r: &mut Report,
) -> ServiceLoop {
    let sl = service::run_loop(
        &svc,
        &mut Stream::new(seed),
        &mut seen,
        budget,
        checker,
        spans,
    );
    r.ops(sl.jobs, sl.errors.clone());
    if let Err(e) = svc.stop() {
        r.errors.push(e);
    }
    sl
}

fn run_service(seed: u64, plan: Plan, dir: &Path, checker: &mut Checker, r: &mut Report) {
    let mut setup_s = Vec::new();
    let mut warm: Option<Warm> = None;
    for k in 0..plan.setups {
        let t = Instant::now();
        if let Some(w) = start_service(dir, k, checker, r) {
            setup_s.push(t.elapsed().as_secs_f64());
            if let Some(Warm(old, _)) = warm.replace(w) {
                if let Err(e) = old.stop() {
                    r.errors.push(e);
                }
            }
        }
    }
    let Some(warm) = warm else { return };
    let mut spans = Spans::new();
    let traced = plan.trace.then_some(&mut spans);
    let sl = serve(warm, seed, plan.budget(1), checker, traced, r);
    if !plan.trace {
        let totals = Totals {
            cells: sl.cells,
            events: sl.events,
            wall_s: sl.wall_s,
            cpu_ns: sl.cpu_ns,
            peak_rss_mib: sl.peak_rss_mib,
        };
        end_to_end(r, &setup_s, &sl.job_ms, &totals);
        return;
    }
    // Traced against plain jobs of the same kind (hit or fresh).
    let plain = stats::shape_medians(&sl.job_ms);
    let logs: Vec<f64> = stats::shape_medians(&sl.traced_ms)
        .iter()
        .filter_map(|(k, t)| Some((t / plain.get(k)?).ln()))
        .collect();
    let overhead = 100.0 * ((logs.iter().sum::<f64>() / logs.len() as f64).exp() - 1.0);
    // The cell layers, from an in-process replay of the first fresh
    // cells: each must reproduce the daemon's record exactly.
    let replay: Vec<Cell> = sl
        .fresh
        .iter()
        .take(REPLAY_CELLS)
        .filter_map(Cell::from_spec)
        .collect();
    let tl = if replay.is_empty() {
        TracedLoop::default()
    } else {
        let budget = plan.fixed(replay.len());
        cells::traced_loop(&replay, budget, checker, true, &mut spans, 1 << 32)
    };
    r.ops(tl.ops, tl.errors.clone());
    per_layer(r, &tl, &sl, overhead, &spans, seed, dir);
    write_trace(r, &spans, dir, "service", seed);
}

/// What an untraced loop did, for the throughput and resource metrics.
struct Totals {
    cells: usize,
    events: u64,
    wall_s: f64,
    cpu_ns: u64,
    peak_rss_mib: f64,
}

/// The end-to-end metrics: set-up, per-operation latency (`op_ms` holds
/// each operation's shape and wall time), throughput and resources.
fn end_to_end(r: &mut Report, setup_s: &[f64], op_ms: &[(String, f64)], t: &Totals) {
    let n = op_ms.len();
    r.push("setup_s", median(setup_s), "s", setup_s.len());
    r.push("latency_ms_p50", mix_quantile(op_ms, 0.5), "ms", n);
    r.push("latency_ms_p90", mix_quantile(op_ms, 0.9), "ms", n);
    r.push("cells_per_s", t.cells as f64 / t.wall_s, "1/s", t.cells);
    r.push(
        "sim_events_per_s",
        t.events as f64 / t.wall_s,
        "1/s",
        t.cells,
    );
    let cpu_ms = t.cpu_ns as f64 / 1e6 / t.cells as f64;
    r.push("cpu_ms_per_cell", cpu_ms, "ms", t.cells);
    r.push("peak_rss_mib", t.peak_rss_mib, "MiB", 1);
}

/// The per-layer metrics: cell rows from `tl`, daemon rows from `sl`, and
/// the fixed-input replays.
fn per_layer(
    r: &mut Report,
    tl: &TracedLoop,
    sl: &ServiceLoop,
    trace_overhead_pct: f64,
    spans: &Spans,
    seed: u64,
    dir: &Path,
) {
    let n = tl.splits.len();
    let mut split_ms = |name, f: fn(&cells::Split) -> u64| {
        let v: Vec<f64> = tl.splits.iter().map(|s| f(s) as f64 / 1e6).collect();
        r.push(name, median(&v), "ms", n);
    };
    split_ms("apps.build_ms", |s| s.build_ns);
    split_ms("machine.run_ms", |s| s.run_ns);
    split_ms("apps.verify_ms", |s| s.verify_ns);
    split_ms("machine.teardown_ms", |s| s.teardown_ns);
    split_ms("engine.coord_cpu_ms", |s| s.coord.cpu_ns);
    split_ms("engine.coord_runq_ms", |s| s.coord.runq_ns);
    split_ms("engine.coord_blocked_ms", |s| {
        s.run_ns.saturating_sub(s.coord.cpu_ns + s.coord.runq_ns)
    });
    let new_us: Vec<f64> = tl.splits.iter().map(|s| s.new_ns as f64 / 1e3).collect();
    r.push("machine.new_us", median(&new_us), "us", n);
    let sum = |f: fn(&cells::Split) -> u64| tl.splits.iter().map(f).sum::<u64>() as f64;
    let kevents = tl.events.max(1) as f64 / 1e3;
    r.push(
        "engine.vcsw_per_kevent",
        sum(|s| s.coord.vcsw) / kevents,
        "1/kevent",
        n,
    );
    r.push(
        "engine.ivcsw_per_kevent",
        sum(|s| s.coord.ivcsw) / kevents,
        "1/kevent",
        n,
    );
    let app_cpu = sum(|s| s.process_cpu_ns.saturating_sub(s.thread_cpu_ns));
    r.push("ctx.app_cpu_ms", app_cpu / 1e6 / n.max(1) as f64, "ms", n);
    let pairs = tl.observer_pairs.len();
    let pick = |f: fn(&[(f64, f64); 2]) -> f64| -> f64 {
        median(&tl.observer_pairs.iter().map(f).collect::<Vec<_>>())
    };
    let extra = pick(|p| p[0].1 - p[1].1);
    r.push("observers.extra_coord_cpu_ms", extra, "ms", pairs);
    let overhead = 100.0 * (pick(|p| p[0].0 / p[1].0) - 1.0);
    r.push("observers.overhead_pct", overhead, "%", pairs);
    let traced_ops = n + sl.traced_ms.len();
    r.push("trace.coverage_pct", spans.coverage_pct(), "%", traced_ops);
    r.push("trace.overhead_pct", trace_overhead_pct, "%", traced_ops);

    let c = &tl.counts;
    let per = |a: u64, b: u64| a as f64 / b.max(1) as f64;
    for (name, v) in [
        ("engine.events", c.events),
        ("memsys.accesses", c.accesses),
        ("memsys.misses_local", c.misses_local),
        ("memsys.misses_remote", c.misses_remote),
        ("memsys.invals", c.invals),
        ("memsys.writebacks", c.writebacks),
    ] {
        r.push(name, v as f64, "count", 1);
    }
    r.push(
        "memsys.accesses_per_event",
        per(c.accesses, c.events),
        "ratio",
        1,
    );
    r.push("memsys.hit_ratio", per(c.hits, c.accesses), "ratio", 1);
    r.push("sync.ops_per_event", per(c.sync_ops, c.events), "ratio", 1);

    let batches = probe::BATCHES;
    let [hit, miss, dirty] = probe::memsys();
    r.push("memsys.hit_ns", hit, "ns", batches);
    r.push("memsys.local_miss_ns", miss, "ns", batches);
    r.push("memsys.remote_dirty_ns", dirty, "ns", batches);
    match probe::matrix(seed) {
        Ok(us) => r.push("matrix.expand_us", us, "us", batches),
        Err(e) => r.ops(1, [e]),
    }
    match probe::store(dir) {
        Ok(s) => {
            r.push("store.open_ms", s.open_ms, "ms", batches);
            r.push("store.get_us", s.get_us, "us", batches);
            r.push("store.append_us", s.append_us, "us", batches);
        }
        Err(e) => r.ops(1, [e]),
    }
    r.push(
        "store.hit_ratio",
        per(sl.cached as u64, sl.cells as u64),
        "ratio",
        sl.cells,
    );
    for ((_, name), v) in service::ROUTES.iter().zip(&sl.route_ms) {
        r.push(name, median(v), "ms", v.len());
    }
    let hits: Vec<f64> = sl
        .job_ms
        .iter()
        .filter(|j| j.0 == "hit")
        .map(|j| j.1)
        .collect();
    r.push("sweepd.hit_job_ms", median(&hits), "ms", hits.len());
}

/// Prints the self-time table and writes the spans as a Chrome trace
/// beside the run directory.
fn write_trace(r: &mut Report, spans: &Spans, dir: &Path, workload: &str, seed: u64) {
    print!("{}", spans.table());
    let path = dir
        .parent()
        .unwrap_or(dir)
        .join(format!("simbench-{workload}-s{seed}.trace.json"));
    match std::fs::write(&path, spans.chrome_json()) {
        Ok(()) => println!("chrome trace {}", path.display()),
        Err(e) => r.ops(1, [format!("writing {}: {e}", path.display())]),
    }
}

fn print_report(r: &Report) {
    for m in &r.metrics {
        println!("{} {} {} n={}", m.name, m.value, m.unit, m.samples);
    }
    let failed = r.errors.len();
    println!(
        "failed_ratio {} ratio n={}",
        failed as f64 / r.attempted.max(1) as f64,
        r.attempted
    );
    for e in r.errors.iter().take(20) {
        eprintln!("FAILED: {e}");
    }
}

/// Regenerates `golden.txt` from in-process runs.
fn bless() -> Result<(), String> {
    let mut out = String::from("# simbench golden digests: model workload seed cell digest\n");
    let model = ccnuma_sim::MODEL_FINGERPRINT;
    for seed in 1..=BLESS_SEEDS {
        for w in WORKLOADS {
            let cells: Vec<Cell> = match cells::cells_for(w, seed) {
                Some(c) => c,
                None => golden_service_cells(seed)?,
            };
            for c in &cells {
                let o = cells::run_cell(c.workload.as_ref(), c.cfg.clone(), None, 0);
                if let Some(e) = o.error {
                    return Err(format!("{w} seed {seed} {}: {e}", c.id));
                }
                let d = if w == "service" {
                    o.record_digest
                } else {
                    o.digest
                };
                out.push_str(&format!("{model} {w} {seed} {} {d:016x}\n", c.id));
            }
            eprintln!("blessed {w} seed {seed}: {} cells", cells.len());
        }
    }
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("golden.txt");
    std::fs::write(&path, out).map_err(|e| format!("writing {}: {e}", path.display()))
}

/// The warm-up cells and the first fresh cells of the service stream.
fn golden_service_cells(seed: u64) -> Result<Vec<Cell>, String> {
    let mut specs = MatrixSpec::parse(service::WARMUP_DSL)?.cells();
    let warm = specs.len();
    let mut stream = Stream::new(seed);
    let mut labels: HashSet<String> = specs.iter().map(|s| s.label()).collect();
    while specs.len() < warm + GOLDEN_SERVICE_CELLS {
        for spec in MatrixSpec::parse(&stream.next_job())?.cells() {
            if labels.insert(spec.label()) {
                specs.push(spec);
            }
        }
    }
    Ok(specs.iter().filter_map(Cell::from_spec).collect())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("simbench: {e}");
            eprintln!(
                "usage: simbench --workload <{}> [--seed N] [--seconds S] [--trace 0|1] | --smoke [--seed N] | --bless",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    if args.bless {
        return match bless() {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("simbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let dir = run_dir();
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("simbench: creating {}: {e}", dir.display());
        return ExitCode::FAILURE;
    }
    let mut failed = 0;
    let mut last = Report::default();
    if args.smoke {
        for w in WORKLOADS {
            for trace in [false, true] {
                let plan = Plan {
                    seconds: 0.0,
                    few: Some(if w == "service" { 4 } else { 2 }),
                    setups: 1,
                    trace,
                };
                let r = run(w, args.seed, plan, &dir);
                print_report(&r);
                failed += r.errors.len();
                last.attempted += r.attempted;
            }
        }
    } else {
        let w = args.workload.as_deref().expect("checked in parse_args");
        let plan = Plan {
            seconds: args.seconds,
            few: None,
            setups: if args.trace { 1 } else { SETUPS },
            trace: args.trace,
        };
        last = run(w, args.seed, plan, &dir);
        print_report(&last);
        failed = last.errors.len();
    }
    let _ = std::fs::remove_dir_all(&dir);
    println!(
        "{}",
        stats::json_line(failed == 0, last.attempted.max(1), failed, &last.metrics)
    );
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
