//! `bench` — attribution regression harness and matrix sweep driver.
//!
//! ```text
//! bench regress  [--check] [--baseline <file>] [--tolerance <pct>] [--jobs <n>]
//!                [--telemetry]
//! bench critpath [--check] [--baseline <file>] [--tolerance <pct>] [--jobs <n>]
//! bench perf     [--check] [--baseline <file>] [--tolerance <pct>] [--reps <k>]
//!                [--json <file>] [--no-overhead]
//!
//! The three gates share one harness (study_bench::gate): each runs the
//! pinned workload matrix and writes its baseline file, or with --check
//! compares against it. Fields are judged Exact (any change fails),
//! Drift (a relative change beyond the tolerance either way fails) or
//! Slower (only a relative slowdown fails, after dividing out the
//! matrix-wide machine-speed factor):
//!
//!   gate      baseline             Exact    Drift                     Slower
//!   regress   BENCH_attrib.json    -        wall_ns mem_stall_ns      -
//!                                           queue_ns misses causes[5]
//!   critpath  BENCH_critpath.json  -        wall_ns path[7] whatif[6] -
//!   perf      BENCH_engine.json    events   -                         ns_per_event
//!                                  accesses
//!                                  dir_txns
//!
//! regress             the attribution snapshot (miss classification on)
//! critpath            the critical-path snapshot (profiler on); also
//!                     prints the on-path busy/memory/sync split and the
//!                     headline what-if speedups
//! perf                host throughput, one cell at a time: each cell's
//!                     work counts (engine events, line accesses,
//!                     directory transactions) and its host CPU per
//!                     event, the minimum over --reps windows of at least
//!                     200 ms of process CPU; also measures the host-CPU
//!                     overhead of each optional subsystem (attrib,
//!                     trace, sanitize, live) against an all-off pass
//! --check             compare against the baseline instead of
//!                     overwriting it; exit 1 on a violation (the fresh
//!                     measurement lands in BENCH_*.current.json)
//! --baseline <file>   baseline path (default: the gate's file above)
//! --tolerance <pct>   allowed relative change per field (default 2.0);
//!                     perf: allowed relative slowdown of a cell's
//!                     ns/event after dividing out the machine-speed
//!                     factor (default 35.0)
//! --jobs <n>          (regress, critpath) simulate matrix points on n
//!                     host threads (default 1; the output is
//!                     bit-identical at any job count)
//! --telemetry         (regress) measure with the full live-telemetry
//!                     observer running (registry, rate pipeline,
//!                     loopback HTTP server); with --check this is the
//!                     observer-passivity gate — results must stay
//!                     bit-identical
//! --reps <k>          (perf) timing windows per cell and per overhead
//!                     mode (default 3); the minimum counts
//! --json <file>       (perf) also write the full report (entries +
//!                     overhead rows) to <file>
//! --no-overhead       (perf) skip the subsystem-overhead passes
//!
//! bench sweep [key=value ...] [--jobs <n>] [--store <file>] [--resume]
//!             [--retry-quarantined] [--retries <n>] [--timeout-s <s>]
//!             [--attrib-dir <dir>] [--trace-dir <dir>]
//!             [--inject-panic <label>] [--require-cached] [--quiet]
//!
//! sweep               expand an apps × versions × procs matrix and run
//!                     every cell, appending results to a crash-safe JSONL
//!                     store keyed by content hash
//!   key=value ...     matrix DSL, e.g.:
//!                       apps=fft,ocean versions=orig procs=2,4,8
//!                       scale=quick sizes=sweep attrib=on trace=on
//!                     defaults: scale=quick apps=all versions=both
//!                     procs=scale sizes=basic attrib=off trace=off
//! --jobs <n>          worker threads (default 1)
//! --store <file>      JSONL result store (default sweep_results.jsonl)
//! --resume            skip cells whose key hash is already in the store
//! --retry-quarantined with --resume, also re-run non-ok cells
//! --retries <n>       extra attempts after a panic/timeout (default 0)
//! --timeout-s <s>     per-attempt wall-clock budget in seconds
//! --attrib-dir <dir>  write per-cell attribution JSON here (use attrib=on)
//! --trace-dir <dir>   write per-cell Chrome traces here (use trace=on)
//! --inject-panic <l>  make the cell labelled <l> panic (fault injection)
//! --require-cached    exit 2 if any cell had to execute (CI resume check)
//! --quiet             suppress per-cell progress lines
//! --live <addr>       serve live telemetry over HTTP while the sweep
//!                     runs: /metrics (Prometheus text), /snapshot
//!                     (JSON epoch record), /events (SSE epoch samples
//!                     + per-cell lifecycle events); e.g. 127.0.0.1:9100
//! --live-log <file>   append one JSON epoch record per sampling epoch
//!                     to <file> (crash-safe JSONL, `bench top --log`
//!                     renders it)
//! --epoch-ms <n>      telemetry sampling period (default 250)
//!
//! bench top (--addr <host:port> | --log <file>) [--watch] [--json]
//!           [--interval-ms <n>] [--count <n>]
//!
//! top                 render a terminal dashboard from a live /snapshot
//!                     endpoint or a --live-log JSONL file; one-shot by
//!                     default, --watch redraws every --interval-ms
//!                     (default 1000) until --count frames (default: no
//!                     limit)
//! --json              print the raw epoch record as one JSON line
//!                     instead of the dashboard (same shape as the
//!                     --live-log JSONL and /snapshot body)
//!
//! bench serve [--addr <host:port>] [--store <file>] [--jobs <n>]
//!             [--idle-timeout-s <s>] [--retries <n>] [--timeout-s <s>]
//!             [--epoch-ms <n>]
//!
//! serve               run the sweep daemon: a long-lived server that
//!                     accepts matrix submissions from many clients over
//!                     HTTP, deduplicates cells against one shared
//!                     content-addressed store, and streams per-job
//!                     progress over SSE. Routes: POST /sweep (matrix
//!                     DSL body), GET /jobs/<id>, GET /jobs/<id>/events,
//!                     GET /cell/<key>, GET /healthz /metrics /snapshot,
//!                     POST /shutdown. `bench top --addr` works against
//!                     it directly
//! --addr <host:port>  listen address (default 127.0.0.1:9900)
//! --store <file>      shared JSONL result store (default
//!                     sweepd_store.jsonl); resumed on restart
//! --jobs <n>          simulation worker threads (default 1)
//! --idle-timeout-s <s> shut down after <s> seconds with no requests
//!                     and no running work
//! --retries / --timeout-s   per-cell run options, as for sweep
//! --epoch-ms <n>      telemetry sampling period (default 250)
//!
//! bench submit --server <host:port> [key=value ...] [--wait] [--poll-ms <n>]
//!
//! submit              submit a matrix to a running daemon; with --wait,
//!                     poll until every cell has a record and print the
//!                     per-cell table (exit 1 if any cell quarantined)
//!
//! bench sanitize [key=value ...] [--jobs <n>] [--store <file>] [--resume]
//!                [--retries <n>] [--timeout-s <s>] [--out <file>] [--quiet]
//!                [--schedules <n>] [--seed-base <s>]
//!
//! sanitize            run the matrix through the happens-before sanitizer
//!                     and gate on its findings: exit 1 if any cell has
//!                     races, lock cycles, or lints; exit 2 if any cell
//!                     is quarantined or lost its report (infrastructure,
//!                     not verdict)
//!   key=value ...     matrix DSL, appended to the default
//!                     `scale=quick procs=1,4,16`; `sanitize=on` is forced
//! --schedules <n>     run every cell under n seeded schedule
//!                     perturbations (seeds base..base+n-1; DSL
//!                     `schedules=n`); findings are deduplicated across
//!                     seeds and reported with the seeds exposing them
//! --seed-base <s>     first schedule seed (default 1; DSL `sched-seed=s`)
//! --out <file>        write a findings JSON document (counts per cell
//!                     plus every full report) to <file>
//!                     (other flags as for sweep)
//!
//! exit status: 0 clean; 1 quarantined cells, drift, or sanitizer
//! findings (sanitize: findings only); 2 usage, a --require-cached miss,
//! or sanitize infrastructure failures (quarantined / missing reports).
//! ```

use std::path::PathBuf;
use std::time::Duration;

use ccnuma_sim::json;
use ccnuma_sweep::matrix::MatrixSpec;
use ccnuma_sweep::{sweep, SweepConfig};
use ccnuma_telemetry::hub::{Hub, HubConfig};
use study_bench::gate::{Entry, Gate};
use study_bench::{critpath, live, perf, regress, schedsan};

fn usage(code: i32) -> ! {
    eprintln!(
        "usage: bench regress [--check] [--baseline <file>] [--tolerance <pct>] [--jobs <n>]\n\
         \x20                  [--telemetry]"
    );
    eprintln!(
        "       bench critpath [--check] [--baseline <file>] [--tolerance <pct>] [--jobs <n>]"
    );
    eprintln!(
        "       bench perf [--check] [--baseline <file>] [--tolerance <pct>] [--reps <k>]\n\
         \x20                  [--json <file>] [--no-overhead]"
    );
    eprintln!(
        "       bench sweep [key=value ...] [--jobs <n>] [--store <file>] [--resume]\n\
         \x20                  [--retry-quarantined] [--retries <n>] [--timeout-s <s>]\n\
         \x20                  [--attrib-dir <dir>] [--trace-dir <dir>]\n\
         \x20                  [--inject-panic <label>] [--require-cached] [--quiet]\n\
         \x20                  [--live <addr>] [--live-log <file>] [--epoch-ms <n>]"
    );
    eprintln!(
        "       bench serve [--addr <host:port>] [--store <file>] [--jobs <n>]\n\
         \x20                  [--idle-timeout-s <s>] [--retries <n>] [--timeout-s <s>]\n\
         \x20                  [--epoch-ms <n>]"
    );
    eprintln!("       bench submit --server <host:port> [key=value ...] [--wait] [--poll-ms <n>]");
    eprintln!(
        "       bench sanitize [key=value ...] [--jobs <n>] [--store <file>] [--resume]\n\
         \x20                  [--retries <n>] [--timeout-s <s>] [--out <file>] [--quiet]\n\
         \x20                  [--schedules <n>] [--seed-base <s>]"
    );
    eprintln!(
        "       bench top (--addr <host:port> | --log <file>) [--watch] [--json]\n\
         \x20                  [--interval-ms <n>] [--count <n>]"
    );
    std::process::exit(code);
}

fn fail(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(1);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("regress") => cmd_gate(&regress::GATE, &args[1..]),
        Some("critpath") => cmd_gate(&critpath::GATE, &args[1..]),
        Some("perf") => cmd_gate(&perf::GATE, &args[1..]),
        Some("sweep") => cmd_sweep(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("submit") => cmd_submit(&args[1..]),
        Some("sanitize") => cmd_sanitize(&args[1..]),
        Some("top") => cmd_top(&args[1..]),
        Some("--help" | "-h") => usage(0),
        _ => usage(2),
    }
}

fn parse_count(it: &mut std::slice::Iter<'_, String>, flag: &str) -> usize {
    match it.next().map(|v| v.parse::<usize>()) {
        Some(Ok(n)) if n >= 1 => n,
        _ => {
            eprintln!("error: {flag} needs a positive integer");
            usage(2);
        }
    }
}

/// `bench regress|critpath|perf`: measure the pinned matrix for `gate`,
/// then write its baseline or, with `--check`, gate against it.
fn cmd_gate(gate: &Gate, args: &[String]) -> ! {
    let is_perf = gate.verb == "perf";
    let mut check = false;
    let mut baseline = gate.baseline.to_string();
    let mut tolerance = 100.0 * gate.tolerance;
    let mut jobs = 1;
    let mut telemetry = false;
    let mut reps = perf::DEFAULT_REPS;
    let mut json_out: Option<PathBuf> = None;
    let mut overhead = true;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--check" => check = true,
            "--baseline" => match it.next() {
                Some(f) => baseline = f.clone(),
                None => usage(2),
            },
            "--tolerance" => match it.next().map(|t| t.parse::<f64>()) {
                Some(Ok(t)) if t >= 0.0 => tolerance = t,
                _ => usage(2),
            },
            "--jobs" if !is_perf => jobs = parse_count(&mut it, "--jobs"),
            "--telemetry" if gate.verb == "regress" => telemetry = true,
            "--reps" if is_perf => reps = parse_count(&mut it, "--reps"),
            "--json" if is_perf => match it.next() {
                Some(f) => json_out = Some(PathBuf::from(f)),
                None => usage(2),
            },
            "--no-overhead" if is_perf => overhead = false,
            "--help" | "-h" => usage(0),
            other => {
                eprintln!("error: unexpected argument {other:?}");
                usage(2);
            }
        }
    }

    let current = match gate.verb {
        "regress" => measure_regress(jobs, telemetry),
        "critpath" => measure_critpath(jobs),
        _ => measure_perf(reps, overhead, json_out),
    };
    let render = |entries: &[Entry]| {
        if is_perf {
            perf::to_json(reps, entries)
        } else {
            gate.to_json(&[], entries)
        }
    };

    if !check {
        if let Err(e) = std::fs::write(&baseline, render(&current)) {
            fail(&format!("cannot write {baseline}: {e}"));
        }
        eprintln!("[bench] wrote baseline {baseline}");
        std::process::exit(0);
    }

    let doc = match std::fs::read_to_string(&baseline) {
        Ok(d) => d,
        Err(e) => fail(&format!(
            "cannot read baseline {baseline}: {e} (generate it with `bench {}`)",
            gate.verb
        )),
    };
    let compared = if is_perf {
        perf::parse(&doc)
            .map(|(model, _, base)| perf::compare(&model, &base, &current, tolerance / 100.0))
    } else {
        gate.parse(&doc)
            .map(|base| gate.compare(&base, &current, tolerance / 100.0))
    };
    let msgs = match compared {
        Ok(m) => m,
        Err(e) => fail(&format!("malformed baseline {baseline}: {e}")),
    };
    let (noun, relative, problems) = if is_perf {
        ("cells", " (relative)", "violation(s)")
    } else {
        ("points", "", "drift(s)")
    };
    if msgs.is_empty() {
        eprintln!(
            "[bench] OK: {} {noun} within {tolerance}%{relative} of {baseline}",
            current.len()
        );
        std::process::exit(0);
    }
    let current_path = format!("{baseline}.current.json");
    let current_path = current_path.replace(".json.current.json", ".current.json");
    if let Err(e) = std::fs::write(&current_path, render(&current)) {
        eprintln!("warning: cannot write {current_path}: {e}");
    } else {
        eprintln!("[bench] fresh measurement written to {current_path}");
    }
    eprintln!("[bench] FAIL: {} {problems} vs {baseline}:", msgs.len());
    for m in &msgs {
        eprintln!("  {m}");
    }
    std::process::exit(1);
}

/// The pinned matrix's shape, for progress lines.
fn pinned_matrix() -> String {
    format!(
        "{} apps x {} proc counts",
        regress::MATRIX_APPS.len(),
        regress::MATRIX_PROCS.len()
    )
}

/// `bench regress`: the attribution snapshot, optionally with the whole
/// live-telemetry observer stack running.
fn measure_regress(jobs: usize, telemetry: bool) -> Vec<Entry> {
    eprintln!(
        "[bench] measuring the pinned matrix ({}, {jobs} job(s))...",
        pinned_matrix()
    );
    // With --telemetry the whole observer stack runs during the
    // measurement: the registry refresher, the rate pipeline, and the
    // HTTP/SSE server on a loopback port. The comparison is then the
    // observer-passivity gate: telemetry on or off, the attribution
    // numbers must be bit-identical.
    let observer = telemetry.then(|| {
        let wiring = live::Wiring::start(Duration::from_millis(100));
        let hub = Hub::start(
            wiring.registry.clone(),
            HubConfig {
                epoch: Duration::from_millis(100),
                addr: Some("127.0.0.1:0".into()),
                log_path: None,
            },
        )
        .unwrap_or_else(|e| fail(&format!("cannot start telemetry hub: {e}")));
        eprintln!(
            "[bench] telemetry observer live at http://{}/metrics",
            hub.local_addr().expect("hub bound")
        );
        (wiring, hub)
    });
    let t0 = std::time::Instant::now();
    let current = regress::measure_with_jobs(jobs)
        .unwrap_or_else(|e| fail(&format!("measurement failed: {e}")));
    if let Some((wiring, hub)) = observer {
        wiring.stop();
        hub.shutdown();
    }
    eprintln!(
        "[bench] measured {} points in {:.1?}",
        current.len(),
        t0.elapsed()
    );
    current
}

/// `bench critpath`: the critical-path snapshot, plus its share table.
fn measure_critpath(jobs: usize) -> Vec<Entry> {
    eprintln!(
        "[bench] profiling the pinned matrix ({}, {jobs} job(s))...",
        pinned_matrix()
    );
    let t0 = std::time::Instant::now();
    let current = critpath::measure_with_jobs(jobs)
        .unwrap_or_else(|e| fail(&format!("measurement failed: {e}")));
    eprintln!(
        "[bench] profiled {} points in {:.1?}",
        current.len(),
        t0.elapsed()
    );
    eprint!("{}", critpath::table(&current));
    current
}

/// `bench perf`: the throughput snapshot, plus the subsystem-overhead
/// passes and the optional full report.
fn measure_perf(reps: usize, overhead: bool, json_out: Option<PathBuf>) -> Vec<Entry> {
    eprintln!(
        "[bench] timing the pinned matrix ({}, min of {reps} CPU window(s) per cell)...",
        pinned_matrix()
    );
    let t0 = std::time::Instant::now();
    let current = perf::measure(reps).unwrap_or_else(|e| fail(&format!("measurement failed: {e}")));
    eprintln!(
        "[bench] measured {} cells in {:.1?}",
        current.len(),
        t0.elapsed()
    );
    print!("{}", perf::table(&current));

    let overheads = overhead.then(|| {
        eprintln!(
            "[bench] measuring optional-subsystem overhead (min of {reps} CPU window(s) per mode)..."
        );
        let rows = perf::measure_overheads(reps)
            .unwrap_or_else(|e| fail(&format!("overhead measurement failed: {e}")));
        print!("{}", perf::overhead_table(&rows));
        rows
    });

    if let Some(path) = &json_out {
        let mut doc = perf::to_json(reps, &current)
            .trim_end()
            .strip_suffix('}')
            .expect("to_json ends with }")
            .trim_end()
            .to_string();
        if let Some(rows) = &overheads {
            doc.push_str(",\n  \"overheads\": [");
            for (i, r) in rows.iter().enumerate() {
                if i > 0 {
                    doc.push(',');
                }
                doc.push_str(&format!(
                    "\n    {{\"mode\": {}, \"total_ns\": {}, \"overhead_pct\": {:.3}}}",
                    json::quote(r.mode),
                    r.total_ns,
                    r.overhead_pct
                ));
            }
            doc.push_str("\n  ]");
        }
        doc.push_str("\n}\n");
        if let Err(e) = std::fs::write(path, doc) {
            fail(&format!("cannot write {}: {e}", path.display()));
        }
        eprintln!("[bench] wrote perf report to {}", path.display());
    }
    current
}

fn cmd_sweep(args: &[String]) -> ! {
    let mut dsl: Vec<&str> = Vec::new();
    let mut cfg = SweepConfig::default();
    let mut require_cached = false;
    let mut quiet = false;
    let mut live_addr: Option<String> = None;
    let mut live_log: Option<PathBuf> = None;
    let mut epoch = Duration::from_millis(250);
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--jobs" => cfg.jobs = parse_count(&mut it, "--jobs"),
            "--store" => match it.next() {
                Some(f) => cfg.store_path = PathBuf::from(f),
                None => usage(2),
            },
            "--resume" => cfg.resume = true,
            "--retry-quarantined" => cfg.retry_quarantined = true,
            "--retries" => match it.next().map(|v| v.parse::<u32>()) {
                Some(Ok(n)) => cfg.opts.retries = n,
                _ => usage(2),
            },
            "--timeout-s" => match it.next().map(|v| v.parse::<u64>()) {
                Some(Ok(s)) if s >= 1 => cfg.opts.timeout = Some(Duration::from_secs(s)),
                _ => usage(2),
            },
            "--attrib-dir" => match it.next() {
                Some(d) => cfg.attrib_dir = Some(PathBuf::from(d)),
                None => usage(2),
            },
            "--trace-dir" => match it.next() {
                Some(d) => cfg.trace_dir = Some(PathBuf::from(d)),
                None => usage(2),
            },
            "--inject-panic" => match it.next() {
                Some(l) => cfg.opts.inject_panic = Some(l.clone()),
                None => usage(2),
            },
            "--require-cached" => require_cached = true,
            "--quiet" => quiet = true,
            "--live" => match it.next() {
                Some(a) => live_addr = Some(a.clone()),
                None => usage(2),
            },
            "--live-log" => match it.next() {
                Some(f) => live_log = Some(PathBuf::from(f)),
                None => usage(2),
            },
            "--epoch-ms" => {
                epoch = Duration::from_millis(parse_count(&mut it, "--epoch-ms") as u64)
            }
            "--help" | "-h" => usage(0),
            other if other.starts_with("--") => {
                eprintln!("error: unknown flag {other:?}");
                usage(2);
            }
            tok => dsl.push(tok),
        }
    }
    if cfg.retry_quarantined && !cfg.resume {
        eprintln!("error: --retry-quarantined only makes sense with --resume");
        usage(2);
    }

    let matrix = match MatrixSpec::parse(&dsl.join(" ")) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("error: bad matrix: {e}");
            usage(2);
        }
    };
    let cells = matrix.cells();
    eprintln!(
        "[sweep] {} cell(s), {} job(s), store {}",
        cells.len(),
        cfg.jobs,
        cfg.store_path.display()
    );

    // The observer stack. The wiring (registry + refresher) always
    // runs so per-cell lifecycle lands in one registry; the hub (HTTP
    // server and/or JSONL epoch log) only when asked for. Progress now
    // comes from the event recorder — one line per finished cell —
    // instead of the sweep driver's ETA lines, so the same summary is
    // printed with or without --live.
    let wiring = live::Wiring::start(epoch);
    let hub = if live_addr.is_some() || live_log.is_some() {
        let hub = Hub::start(
            wiring.registry.clone(),
            HubConfig {
                epoch,
                addr: live_addr,
                log_path: live_log,
            },
        )
        .unwrap_or_else(|e| fail(&format!("cannot start telemetry hub: {e}")));
        if let Some(addr) = hub.local_addr() {
            eprintln!("[sweep] live telemetry at http://{addr}/metrics | /snapshot | /events");
        }
        Some(hub)
    } else {
        None
    };
    cfg.events = Some(wiring.event_recorder(cells.len(), hub.as_ref().map(|h| h.handle()), !quiet));

    let t0 = std::time::Instant::now();
    let out = match sweep(&matrix, &cfg) {
        Ok(o) => o,
        Err(e) => fail(&format!("sweep failed: {e}")),
    };

    // Teardown order: ingest post-mortem trace gauges and critical-path
    // shares first so the final epoch sample (taken by hub.shutdown)
    // carries them, then a final counter mirror, then the hub's last
    // sample + `end` frame.
    wiring.ingest_traces(&out.gauges);
    wiring.ingest_critpaths(&out.critpaths);
    wiring.stop();
    if let Some(hub) = hub {
        hub.shutdown();
    }

    if out.dropped_lines > 0 {
        eprintln!(
            "[sweep] dropped {} torn/foreign store line(s); their cells re-ran",
            out.dropped_lines
        );
    }
    eprintln!(
        "[sweep] done in {:.1?}: {} cell(s) — executed {}, cached {}, quarantined {}, steals {}",
        t0.elapsed(),
        out.records.len(),
        out.executed,
        out.cached,
        out.quarantined.len(),
        out.steals,
    );
    if !out.quarantined.is_empty() {
        for label in &out.quarantined {
            let rec = out
                .records
                .iter()
                .find(|r| &r.label == label)
                .expect("quarantined label has a record");
            eprintln!(
                "[sweep] quarantined: {label} ({}{})",
                rec.status.name(),
                rec.error
                    .as_deref()
                    .map(|e| format!(": {e}"))
                    .unwrap_or_default()
            );
        }
        std::process::exit(1);
    }
    if require_cached && out.executed > 0 {
        eprintln!(
            "error: --require-cached, but {} cell(s) executed (resume cache miss)",
            out.executed
        );
        std::process::exit(2);
    }
    std::process::exit(0);
}

/// `bench serve`: run the sweep daemon until shutdown.
fn cmd_serve(args: &[String]) -> ! {
    if args.iter().any(|a| a == "--help" || a == "-h") {
        usage(0);
    }
    let opts = match study_bench::daemon::ServeOpts::parse(args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            usage(2);
        }
    };
    std::process::exit(study_bench::daemon::serve(opts));
}

/// `bench submit`: submit a matrix to a running daemon.
fn cmd_submit(args: &[String]) -> ! {
    if args.iter().any(|a| a == "--help" || a == "-h") {
        usage(0);
    }
    let opts = match study_bench::daemon::SubmitOpts::parse(args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            usage(2);
        }
    };
    std::process::exit(study_bench::daemon::submit(opts));
}

/// `bench top`: render the live dashboard from a `/snapshot` endpoint
/// or a `--live-log` JSONL file.
fn cmd_top(args: &[String]) -> ! {
    let mut addr: Option<String> = None;
    let mut log: Option<PathBuf> = None;
    let mut watch = false;
    let mut json = false;
    let mut interval = Duration::from_millis(1000);
    let mut count: Option<usize> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--addr" => match it.next() {
                Some(a) => addr = Some(a.clone()),
                None => usage(2),
            },
            "--log" => match it.next() {
                Some(f) => log = Some(PathBuf::from(f)),
                None => usage(2),
            },
            "--watch" => watch = true,
            "--json" => json = true,
            "--interval-ms" => {
                interval = Duration::from_millis(parse_count(&mut it, "--interval-ms") as u64)
            }
            "--count" => count = Some(parse_count(&mut it, "--count")),
            "--help" | "-h" => usage(0),
            other => {
                eprintln!("error: unexpected argument {other:?}");
                usage(2);
            }
        }
    }
    let fetch: Box<dyn Fn() -> Result<live::EpochRecord, String>> = match (&addr, &log) {
        (Some(a), None) => {
            let a = a.clone();
            Box::new(move || live::fetch_snapshot(&a))
        }
        (None, Some(p)) => {
            let p = p.clone();
            Box::new(move || live::last_log_record(&p))
        }
        _ => {
            eprintln!("error: top needs exactly one of --addr or --log");
            usage(2);
        }
    };

    let mut frames = 0usize;
    loop {
        match fetch() {
            Ok(rec) => {
                if json {
                    // Machine-readable one-shot / per-frame output: the
                    // epoch record in the exact JSONL shape the log and
                    // /snapshot use.
                    println!("{}", rec.to_json());
                } else {
                    if watch {
                        // Clear the screen and home the cursor between frames.
                        print!("\x1b[2J\x1b[H");
                    }
                    print!("{}", live::render_top(&rec));
                }
            }
            Err(e) if watch => eprintln!("[top] {e}"),
            Err(e) => fail(&e),
        }
        frames += 1;
        if !watch || count.is_some_and(|n| frames >= n) {
            std::process::exit(0);
        }
        std::thread::sleep(interval);
    }
}

/// `bench sanitize`: sweep the matrix with the happens-before sanitizer
/// on and gate on what it finds.
fn cmd_sanitize(args: &[String]) -> ! {
    let mut dsl: Vec<&str> = Vec::new();
    let mut cfg = SweepConfig {
        progress: true,
        store_path: PathBuf::from("sanitize_results.jsonl"),
        ..Default::default()
    };
    let mut out_path: Option<PathBuf> = None;
    let mut schedules: Option<u32> = None;
    let mut seed_base: Option<u64> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--jobs" => cfg.jobs = parse_count(&mut it, "--jobs"),
            "--store" => match it.next() {
                Some(f) => cfg.store_path = PathBuf::from(f),
                None => usage(2),
            },
            "--resume" => cfg.resume = true,
            "--retries" => match it.next().map(|v| v.parse::<u32>()) {
                Some(Ok(n)) => cfg.opts.retries = n,
                _ => usage(2),
            },
            "--timeout-s" => match it.next().map(|v| v.parse::<u64>()) {
                Some(Ok(s)) if s >= 1 => cfg.opts.timeout = Some(Duration::from_secs(s)),
                _ => usage(2),
            },
            "--out" => match it.next() {
                Some(f) => out_path = Some(PathBuf::from(f)),
                None => usage(2),
            },
            "--schedules" => match it.next().map(|v| v.parse::<u32>()) {
                Some(Ok(n)) if n >= 1 => schedules = Some(n),
                _ => usage(2),
            },
            "--seed-base" => match it.next().map(|v| v.parse::<u64>()) {
                Some(Ok(s)) => seed_base = Some(s),
                _ => usage(2),
            },
            "--quiet" => cfg.progress = false,
            "--help" | "-h" => usage(0),
            other if other.starts_with("--") => {
                eprintln!("error: unknown flag {other:?}");
                usage(2);
            }
            tok => dsl.push(tok),
        }
    }

    // Defaults first so the user's tokens override them; `sanitize=on`
    // (and the schedule flags, which are just DSL spellings) last so
    // they cannot be turned off — a clean exit must mean the sanitizer
    // actually looked at what was asked for.
    let mut dsl = format!("scale=quick procs=1,4,16 {} sanitize=on", dsl.join(" "));
    if let Some(n) = schedules {
        dsl.push_str(&format!(" schedules={n}"));
    }
    if let Some(s) = seed_base {
        dsl.push_str(&format!(" sched-seed={s}"));
    }
    let matrix = match MatrixSpec::parse(&dsl) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("error: bad matrix: {e}");
            usage(2);
        }
    };
    let cells = matrix.cells();
    eprintln!(
        "[sanitize] {} cell(s), {} job(s), store {}",
        cells.len(),
        cfg.jobs,
        cfg.store_path.display()
    );
    let t0 = std::time::Instant::now();
    let out = match sweep(&matrix, &cfg) {
        Ok(o) => o,
        Err(e) => fail(&format!("sweep failed: {e}")),
    };
    eprintln!(
        "[sanitize] done in {:.1?}: executed {}, cached {}, quarantined {}",
        t0.elapsed(),
        out.executed,
        out.cached,
        out.quarantined.len(),
    );

    // Per-cell verdicts. A missing count on an ok cell cannot happen
    // (sanitize=on is part of the run key), but if it ever does it must
    // read as a failure, not a silent pass.
    let mut missing = 0usize;
    for rec in &out.records {
        if rec.sanitize.is_none() && rec.status == ccnuma_sweep::store::CellStatus::Ok {
            eprintln!("[sanitize] {}: ok cell carries no report", rec.label);
            missing += 1;
        }
    }

    // Fold the schedule-seed axis: one row per base cell, findings
    // deduplicated across seeds with the seeds that exposed them.
    let seeded = matrix.schedules > 0 || matrix.sched_seed.is_some();
    let seed_rows = schedsan::seed_rows(&out.records);
    let dirty = seed_rows
        .iter()
        .filter(|r| r.seeds_with_findings > 0)
        .count();
    if seeded {
        println!("{}", schedsan::seed_table(&seed_rows));
    } else {
        let mut rows = Vec::new();
        for rec in &out.records {
            if let Some(counts) = rec.sanitize {
                rows.push((rec.app.clone(), rec.version.clone(), rec.nprocs, counts));
            }
        }
        println!("{}", scaling_study::report::sanitize_table(&rows));
    }

    if let Some(path) = &out_path {
        if let Err(e) = std::fs::write(path, findings_json(&dsl, &out)) {
            fail(&format!("cannot write {}: {e}", path.display()));
        }
        eprintln!(
            "[sanitize] wrote findings ({} full report(s)) to {}",
            out.sanitizes.len(),
            path.display()
        );
    }

    let fmt_seeds = |seeds: &[Option<u64>]| {
        seeds
            .iter()
            .map(|s| s.map_or("default".into(), |s| s.to_string()))
            .collect::<Vec<_>>()
            .join(",")
    };
    for g in schedsan::group(&out.sanitizes) {
        if g.is_clean() {
            continue;
        }
        let [r, c, l] = g.counts();
        eprintln!(
            "[sanitize] {}: {r} race(s), {c} lock cycle(s), {l} lint(s) \
             across {} of {} schedule(s)",
            g.label,
            g.seeds_with_findings().len(),
            g.seeds_run.len(),
        );
        for f in &g.races {
            let r = &f.finding;
            eprintln!(
                "  race on {:#x}+{}: {} vs {} [seeds {}]",
                r.addr,
                r.bytes,
                r.prior,
                r.current,
                fmt_seeds(&f.seeds)
            );
        }
        for f in &g.cycles {
            eprintln!(
                "  lock cycle: {:?} [seeds {}]",
                f.finding.locks,
                fmt_seeds(&f.seeds)
            );
        }
        for f in &g.lints {
            eprintln!(
                "  {}: {} [seeds {}]",
                f.finding.kind.name(),
                f.finding.message,
                fmt_seeds(&f.seeds)
            );
        }
    }
    if !out.quarantined.is_empty() {
        for label in &out.quarantined {
            eprintln!("[sanitize] quarantined: {label}");
        }
    }
    // Infrastructure failures (a cell that never produced a verdict)
    // exit 2; sanitizer findings — a real verdict — exit 1. Infra wins
    // when both happen: the finding list is incomplete.
    if missing > 0 || !out.quarantined.is_empty() {
        eprintln!(
            "[sanitize] FAIL (infrastructure): {missing} missing report(s), {} quarantined \
             ({dirty} cell(s) with findings so far)",
            out.quarantined.len()
        );
        std::process::exit(2);
    }
    if dirty > 0 {
        eprintln!("[sanitize] FAIL: {dirty} cell(s) with findings");
        std::process::exit(1);
    }
    eprintln!(
        "[sanitize] OK: {} cell(s) race-free{}",
        seed_rows.len(),
        if seeded {
            format!(
                " across {} schedule run(s)",
                seed_rows.iter().map(|r| r.seeds_run).sum::<usize>()
            )
        } else {
            String::new()
        }
    );
    std::process::exit(0);
}

/// The `--out` findings document: counts per cell plus every full
/// report produced this invocation.
fn findings_json(dsl: &str, out: &ccnuma_sweep::SweepOutcome) -> String {
    let mut s = String::from("{\n  \"version\": 1,\n");
    s.push_str(&format!("  \"matrix\": {},\n", json::quote(dsl)));
    s.push_str("  \"cells\": [");
    for (i, rec) in out.records.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let counts = rec
            .sanitize
            .map(|[r, c, l]| format!("[{r}, {c}, {l}]"))
            .unwrap_or_else(|| "null".into());
        s.push_str(&format!(
            "\n    {{\"label\": {}, \"status\": \"{}\", \"sanitize\": {counts}}}",
            json::quote(&rec.label),
            rec.status.name()
        ));
    }
    s.push_str("\n  ],\n  \"reports\": [");
    for (i, (label, rep)) in out.sanitizes.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push('\n');
        s.push_str(scaling_study::report::sanitize_json(label, rep).trim_end());
    }
    s.push_str("\n  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn findings_document_escapes_a_tab_in_the_matrix() {
        // The DSL parser splits on any whitespace, so a tab-separated
        // matrix runs fine; the document must still be valid JSON.
        let dsl = "scale=quick procs=1,4,16 apps=fft\tversions=orig sanitize=on";
        let out = ccnuma_sweep::SweepOutcome {
            executed: 0,
            cached: 0,
            quarantined: Vec::new(),
            records: Vec::new(),
            sanitizes: Vec::new(),
            critpaths: Vec::new(),
            dropped_lines: 0,
            steals: 0,
            gauges: Vec::new(),
        };
        let doc = findings_json(dsl, &out);
        assert!(!doc.contains('\t'), "{doc:?}");
        assert_eq!(json::str_field(&doc, "matrix").as_deref(), Ok(dsl));
        assert_eq!(json::num_field(&doc, "version"), Ok(1));
    }
}
