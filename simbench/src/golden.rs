//! Output checks: digests of simulated results, the committed golden
//! digests, and the within-run repeat check.
//!
//! A cell's digest covers what the simulation computed — `wall_ns`,
//! `events` and every [`ProcStats`] counter — and none of the host time.
//! Golden digests are keyed by [`ccnuma_sim::MODEL_FINGERPRINT`], so a
//! model change must regenerate them (`simbench --bless`) in its own
//! change; a change that only makes the simulator faster must leave every
//! digest as it is.

use std::collections::HashMap;

use ccnuma_sim::stats::RunStats;
use ccnuma_sweep::store::CellRecord;

/// The committed golden digests: `model workload seed cell digest` lines.
pub const GOLDEN: &str = include_str!("../golden.txt");

/// Seeds whose golden digests must exist for the current model; any
/// other seed is checked against its own first run only.
pub const REQUIRED_SEEDS: [u64; 2] = [1, 2];

/// 64-bit FNV-1a.
pub fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Digest of a whole run: wall time, events and every processor counter.
pub fn stats_digest(stats: &RunStats) -> u64 {
    fnv64(format!("{}|{}|{:?}", stats.wall_ns, stats.events, stats.procs).as_bytes())
}

/// Digest of the observer-independent part of a run: timing and event
/// counts, which switching observers on or off must not change.
pub fn timing_digest(stats: &RunStats) -> u64 {
    let procs: Vec<[u64; 5]> = stats
        .procs
        .iter()
        .map(|p| {
            [
                p.busy_ns,
                p.mem_ns,
                p.sync_wait_ns,
                p.sync_op_ns,
                p.finish_ns,
            ]
        })
        .collect();
    fnv64(format!("{}|{}|{procs:?}", stats.wall_ns, stats.events).as_bytes())
}

/// Digest of the simulated fields a stored record carries (the sweep
/// daemon hands back records, not full statistics).
pub fn record_digest(r: &CellRecord) -> u64 {
    fields_digest([
        r.wall_ns, r.events, r.busy_ns, r.mem_ns, r.sync_ns, r.misses,
    ])
}

/// The same digest computed in-process from a run's statistics, summed
/// the way [`CellRecord::set_stats`] sums them.
pub fn stats_record_digest(s: &RunStats) -> u64 {
    fields_digest([
        s.wall_ns,
        s.events,
        s.total(|p| p.busy_ns),
        s.total(|p| p.mem_ns),
        s.total(|p| p.sync_ns()),
        s.total(|p| p.misses()),
    ])
}

fn fields_digest(fields: [u64; 6]) -> u64 {
    fnv64(format!("{fields:?}").as_bytes())
}

/// Checks digests for one workload and seed: against the golden file
/// where it has the cell, and always against the cell's first digest in
/// this run.
#[derive(Debug)]
pub struct Checker {
    golden: HashMap<String, u64>,
    seen: HashMap<String, u64>,
}

impl Checker {
    /// The checker for `workload` at `seed`.
    ///
    /// # Errors
    ///
    /// A required seed without golden digests for the current model.
    pub fn new(workload: &str, seed: u64) -> Result<Checker, String> {
        let model = ccnuma_sim::MODEL_FINGERPRINT;
        let seed_s = seed.to_string();
        let mut golden = HashMap::new();
        for line in GOLDEN.lines().filter(|l| !l.starts_with('#')) {
            let f: Vec<&str> = line.split_whitespace().collect();
            if let [m, w, s, cell, digest] = f[..] {
                if m == model && w == workload && s == seed_s {
                    let d = u64::from_str_radix(digest, 16)
                        .map_err(|_| format!("bad golden digest line {line:?}"))?;
                    golden.insert(cell.to_string(), d);
                }
            }
        }
        if golden.is_empty() && REQUIRED_SEEDS.contains(&seed) {
            return Err(format!(
                "no golden digests for model {model} workload {workload} seed {seed}: \
                 regenerate them with `simbench --bless`"
            ));
        }
        Ok(Checker {
            golden,
            seen: HashMap::new(),
        })
    }

    /// Compares one cell's digest with its golden and first-seen digests.
    ///
    /// # Errors
    ///
    /// Describes the mismatch.
    pub fn check(&mut self, cell: &str, digest: u64) -> Result<(), String> {
        if let Some(&g) = self.golden.get(cell) {
            if g != digest {
                return Err(format!(
                    "{cell}: digest {digest:016x} differs from golden {g:016x}"
                ));
            }
        }
        let first = *self.seen.entry(cell.to_string()).or_insert(digest);
        if first != digest {
            return Err(format!(
                "{cell}: digest {digest:016x} differs from its first run {first:016x}"
            ));
        }
        Ok(())
    }
}
