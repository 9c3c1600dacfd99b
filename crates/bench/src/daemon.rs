//! `bench serve` / `bench submit` — the sweep-as-a-service front end.
//!
//! `serve` runs a [`ccnuma_sweepd::Daemon`] on the registry of a bench
//! live-telemetry hub (no listener, no log: just the epoch loop), so the
//! daemon's own health (queue depth, in-flight cells, cache-hit ratio,
//! store size) is served from the same registry as the simulator
//! counters and `bench top --addr` works against it unchanged. `submit`
//! is the thin client: POST a matrix DSL, optionally wait for
//! completion, print the per-cell table.

use std::path::PathBuf;
use std::time::Duration;

use ccnuma_sweep::store::CellRecord;
use ccnuma_sweepd::{client, Daemon, DaemonConfig};
use ccnuma_telemetry::hub::HubConfig;

use crate::live;

/// Parsed `bench serve` flags.
#[derive(Debug, Clone)]
pub struct ServeOpts {
    /// Daemon configuration (address, store, workers, idle timeout,
    /// per-cell run options).
    pub cfg: DaemonConfig,
    /// Telemetry sampling period of the epoch loop.
    pub epoch: Duration,
}

impl ServeOpts {
    /// Parses `bench serve` arguments. `Err` is a usage message.
    pub fn parse(args: &[String]) -> Result<ServeOpts, String> {
        let mut cfg = DaemonConfig {
            addr: "127.0.0.1:9900".into(),
            store_path: PathBuf::from("sweepd_store.jsonl"),
            ..DaemonConfig::default()
        };
        let mut epoch = Duration::from_millis(250);
        let mut it = args.iter();
        while let Some(a) = it.next() {
            match a.as_str() {
                "--addr" => cfg.addr = it.next().ok_or("--addr needs host:port")?.clone(),
                "--store" => {
                    cfg.store_path = PathBuf::from(it.next().ok_or("--store needs a path")?)
                }
                "--jobs" => cfg.workers = parse_count(it.next(), "--jobs")?,
                "--idle-timeout-s" => {
                    cfg.idle_timeout = Some(Duration::from_secs(parse_count(
                        it.next(),
                        "--idle-timeout-s",
                    )? as u64))
                }
                "--retries" => {
                    cfg.opts.retries = it
                        .next()
                        .and_then(|v| v.parse().ok())
                        .ok_or("--retries needs an integer")?
                }
                "--timeout-s" => {
                    cfg.opts.timeout = Some(Duration::from_secs(parse_count(
                        it.next(),
                        "--timeout-s",
                    )? as u64))
                }
                "--epoch-ms" => {
                    epoch = Duration::from_millis(parse_count(it.next(), "--epoch-ms")? as u64)
                }
                other => return Err(format!("unexpected argument {other:?}")),
            }
        }
        Ok(ServeOpts { cfg, epoch })
    }
}

/// Parsed `bench submit` flags.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SubmitOpts {
    /// Daemon address, `host:port`.
    pub server: String,
    /// Matrix DSL tokens, joined with spaces (empty = default matrix).
    pub dsl: String,
    /// Poll until the job completes and print the per-cell table.
    pub wait: bool,
    /// Poll period while waiting.
    pub poll: Duration,
}

impl SubmitOpts {
    /// Parses `bench submit` arguments. `Err` is a usage message.
    pub fn parse(args: &[String]) -> Result<SubmitOpts, String> {
        let mut server: Option<String> = None;
        let mut dsl: Vec<&str> = Vec::new();
        let mut wait = false;
        let mut poll = Duration::from_millis(500);
        let mut it = args.iter();
        while let Some(a) = it.next() {
            match a.as_str() {
                "--server" => server = Some(it.next().ok_or("--server needs host:port")?.clone()),
                "--wait" => wait = true,
                "--poll-ms" => {
                    poll = Duration::from_millis(parse_count(it.next(), "--poll-ms")? as u64)
                }
                other if other.starts_with("--") => return Err(format!("unknown flag {other:?}")),
                tok => dsl.push(tok),
            }
        }
        Ok(SubmitOpts {
            server: server.ok_or("submit needs --server <host:port>")?,
            dsl: dsl.join(" "),
            wait,
            poll,
        })
    }
}

fn parse_count(v: Option<&String>, flag: &str) -> Result<usize, String> {
    match v.map(|v| v.parse::<usize>()) {
        Some(Ok(n)) if n >= 1 => Ok(n),
        _ => Err(format!("{flag} needs a positive integer")),
    }
}

/// Runs the daemon until shutdown (POST /shutdown, or the idle timeout).
/// Returns the process exit code.
pub fn serve(opts: ServeOpts) -> i32 {
    let cfg = HubConfig {
        epoch: opts.epoch,
        ..HubConfig::default()
    };
    let hub = match live::start_hub(cfg) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("error: cannot start telemetry: {e}");
            return 1;
        }
    };
    let store = opts.cfg.store_path.clone();
    let daemon = match Daemon::start(opts.cfg, hub.registry().clone()) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("error: cannot start sweepd: {e}");
            hub.shutdown();
            return 1;
        }
    };
    eprintln!(
        "[serve] sweepd at http://{}/healthz | /metrics | /snapshot, store {} — \
         POST /sweep to submit, POST /shutdown to stop",
        daemon.local_addr(),
        store.display()
    );
    let summary = match daemon.join() {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: daemon failed: {e}");
            hub.shutdown();
            return 1;
        }
    };
    hub.shutdown();
    eprintln!(
        "[serve] stopped: {} job(s), {} cell(s) — {} cache hit(s), {} simulated, \
         {} quarantined, {} dropped; store {} record(s), {} byte(s)",
        summary.jobs,
        summary.cells,
        summary.cache_hits,
        summary.simulated,
        summary.quarantined,
        summary.dropped_tasks,
        summary.store.records,
        summary.store.bytes,
    );
    0
}

/// Submits a matrix to a running daemon. Returns the process exit code:
/// 0 clean, 1 on transport errors or (with `--wait`) quarantined cells.
pub fn submit(opts: SubmitOpts) -> i32 {
    let resp = match client::submit(&opts.server, &opts.dsl) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return 1;
        }
    };
    println!(
        "[submit] job {}: {} cell(s) — cached {}, enqueued {}, pending {}",
        resp.job, resp.cells, resp.cached, resp.enqueued, resp.pending
    );
    if !opts.wait {
        println!(
            "[submit] follow with: GET http://{}/jobs/{} (or /jobs/{}/events for SSE)",
            opts.server, resp.job, resp.job
        );
        return 0;
    }
    let st = match client::wait(&opts.server, resp.job, opts.poll) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: {e}");
            return 1;
        }
    };
    print!(
        "{}",
        record_table(st.records.iter().flatten(), st.cached, st.executed)
    );
    if st.quarantined.is_empty() {
        0
    } else {
        for label in &st.quarantined {
            eprintln!("[submit] quarantined: {label}");
        }
        1
    }
}

/// Renders the per-cell result table a waited `submit` prints: one line
/// per record plus the cached/executed summary.
pub fn record_table<'a>(
    records: impl Iterator<Item = &'a CellRecord>,
    cached: usize,
    executed: usize,
) -> String {
    let mut out = format!(
        "{:<24} {:>8} {:>12} {:>12} {:>10}\n",
        "cell", "status", "wall_ms", "misses", "key"
    );
    let mut n = 0usize;
    for rec in records {
        n += 1;
        out.push_str(&format!(
            "{:<24} {:>8} {:>12.3} {:>12} {:>10}\n",
            rec.label,
            rec.status.name(),
            rec.wall_ns as f64 / 1e6,
            rec.misses,
            &rec.key[..rec.key.len().min(10)],
        ));
    }
    out.push_str(&format!(
        "[submit] complete: {n} cell(s) — {cached} from cache, {executed} executed\n"
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn serve_flags_parse_into_the_daemon_config() {
        let o = ServeOpts::parse(&sv(&[
            "--addr",
            "127.0.0.1:7777",
            "--store",
            "s.jsonl",
            "--jobs",
            "4",
            "--idle-timeout-s",
            "30",
            "--retries",
            "2",
            "--epoch-ms",
            "100",
        ]))
        .unwrap();
        assert_eq!(o.cfg.addr, "127.0.0.1:7777");
        assert_eq!(o.cfg.store_path, PathBuf::from("s.jsonl"));
        assert_eq!(o.cfg.workers, 4);
        assert_eq!(o.cfg.idle_timeout, Some(Duration::from_secs(30)));
        assert_eq!(o.cfg.opts.retries, 2);
        assert_eq!(o.epoch, Duration::from_millis(100));

        assert!(ServeOpts::parse(&sv(&["--jobs", "zero"])).is_err());
        assert!(ServeOpts::parse(&sv(&["--bogus"])).is_err());
    }

    #[test]
    fn submit_flags_require_a_server_and_collect_the_dsl() {
        let o = SubmitOpts::parse(&sv(&[
            "--server",
            "127.0.0.1:9900",
            "apps=fft",
            "--wait",
            "procs=2,4",
        ]))
        .unwrap();
        assert_eq!(o.server, "127.0.0.1:9900");
        assert_eq!(o.dsl, "apps=fft procs=2,4");
        assert!(o.wait);

        assert!(SubmitOpts::parse(&sv(&["apps=fft"])).is_err(), "no server");
        assert!(SubmitOpts::parse(&sv(&["--server", "x", "--nope"])).is_err());
    }

    #[test]
    fn record_table_lines_up_and_counts() {
        let rec = CellRecord {
            key: "deadbeefdeadbeef".into(),
            label: "fft/orig/4p".into(),
            app: "fft".into(),
            version: "orig".into(),
            problem: "2^10 points".into(),
            nprocs: 4,
            scale: "quick".into(),
            status: ccnuma_sweep::store::CellStatus::Ok,
            attempts: 1,
            host_ms: 12,
            wall_ns: 1_500_000,
            seq_ns: 3000,
            busy_ns: 2000,
            mem_ns: 700,
            sync_ns: 300,
            misses: 42,
            events: 5150,
            causes: [0; 5],
            sanitize: None,
            critpath: None,
            error: None,
        };
        let t = record_table([&rec].into_iter(), 1, 0);
        assert!(t.contains("fft/orig/4p"), "{t}");
        assert!(t.contains("1.500"), "{t}");
        assert!(t.contains("deadbeefde"), "{t}");
        assert!(t.contains("1 cell(s) — 1 from cache, 0 executed"), "{t}");
    }
}
