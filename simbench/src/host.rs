//! Host-side readings from `/proc`: on-CPU and run-queue time and context
//! switches of the calling thread, CPU time and peak RSS of the process.
//! Every reader returns zeros where the file is missing (off Linux), so
//! the benchmark still runs; only the derived per-layer numbers go flat.

use std::fs;

/// One reading of the calling thread's scheduler counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct ThreadSample {
    /// Nanoseconds on CPU (`/proc/thread-self/schedstat`, field 1).
    pub cpu_ns: u64,
    /// Nanoseconds runnable but waiting on a run queue (field 2).
    pub runq_ns: u64,
    /// Voluntary context switches (`/proc/thread-self/status`).
    pub vcsw: u64,
    /// Involuntary context switches.
    pub ivcsw: u64,
}

impl ThreadSample {
    /// Reads the calling thread's counters.
    pub fn now() -> ThreadSample {
        let mut s = ThreadSample::default();
        if let Ok(text) = fs::read_to_string("/proc/thread-self/schedstat") {
            let mut it = text.split_whitespace().map(|v| v.parse().unwrap_or(0));
            s.cpu_ns = it.next().unwrap_or(0);
            s.runq_ns = it.next().unwrap_or(0);
        }
        if let Ok(text) = fs::read_to_string("/proc/thread-self/status") {
            s.vcsw = status_field(&text, "voluntary_ctxt_switches:");
            s.ivcsw = status_field(&text, "nonvoluntary_ctxt_switches:");
        }
        s
    }

    /// Counter increase from `earlier` to `self`.
    pub fn since(&self, earlier: &ThreadSample) -> ThreadSample {
        ThreadSample {
            cpu_ns: self.cpu_ns.saturating_sub(earlier.cpu_ns),
            runq_ns: self.runq_ns.saturating_sub(earlier.runq_ns),
            vcsw: self.vcsw.saturating_sub(earlier.vcsw),
            ivcsw: self.ivcsw.saturating_sub(earlier.ivcsw),
        }
    }
}

fn status_field(text: &str, key: &str) -> u64 {
    text.lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// User plus system CPU time of the whole process, every thread included
/// (`/proc/self/stat` fields 14 and 15), in nanoseconds. The kernel
/// reports clock ticks of `USER_HZ`, which is 100 on every Linux ABI.
pub fn process_cpu_ns() -> u64 {
    const NS_PER_TICK: u64 = 10_000_000;
    let Ok(text) = fs::read_to_string("/proc/self/stat") else {
        return 0;
    };
    // The command name (field 2) may contain spaces; fields restart
    // after its closing parenthesis, at field 3.
    let Some(rest) = text.rfind(')').map(|i| &text[i + 1..]) else {
        return 0;
    };
    let fields: Vec<u64> = rest
        .split_whitespace()
        .map(|v| v.parse().unwrap_or(0))
        .collect();
    match (fields.get(11), fields.get(12)) {
        (Some(u), Some(s)) => (u + s) * NS_PER_TICK,
        _ => 0,
    }
}

/// Peak resident set size of the process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    fs::read_to_string("/proc/self/status")
        .map(|t| status_field(&t, "VmHWM:") as f64 / 1024.0)
        .unwrap_or(0.0)
}
