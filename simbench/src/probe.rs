//! Fixed-input replays of single layers, run in every traced run: the
//! memory system's three access paths, the result store and the matrix
//! expander. Each times public calls in batches and reports the median
//! batch's per-call time.

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use ccnuma_sim::config::MachineConfig;
use ccnuma_sim::memsys::{AccessKind, MemorySystem};
use ccnuma_sweep::matrix::MatrixSpec;
use ccnuma_sweep::store::{CellRecord, CellStatus, Store};

use crate::golden::fnv64;
use crate::service::Stream;
use crate::stats::median;

/// Timed batches per replay; each replay reports the median batch.
pub const BATCHES: usize = 7;

/// Median over batches of the mean ns per call of `f`.
fn per_call_ns(calls: usize, mut f: impl FnMut(usize)) -> f64 {
    let mut batches = Vec::with_capacity(BATCHES);
    let mut i = 0;
    for _ in 0..BATCHES {
        let t = Instant::now();
        for _ in 0..calls {
            f(i);
            i += 1;
        }
        batches.push(t.elapsed().as_nanos() as f64 / calls as f64);
    }
    median(&batches)
}

/// ns per `MemorySystem::access` on the three paths the paper's Table 1
/// measures: a cache hit, a streaming local miss, and a remote-dirty line
/// bouncing between writers on different nodes.
pub fn memsys() -> [f64; 3] {
    let fresh = || {
        let cfg = MachineConfig::origin2000_scaled(8, 64 << 10);
        let perm: Vec<usize> = (0..8).collect();
        MemorySystem::new(&cfg, &perm)
    };
    let mut mem = fresh();
    mem.access(0, 0x1000, AccessKind::Read, 0);
    let hit = per_call_ns(20_000, |i| {
        black_box(mem.access(0, 0x1000, AccessKind::Read, 1000 + 10 * i as u64));
    });
    let mut mem = fresh();
    let miss = per_call_ns(20_000, |i| {
        black_box(mem.access(0, 128 * (i as u64 + 1), AccessKind::Read, 1000 * i as u64));
    });
    let mut mem = fresh();
    let dirty = per_call_ns(20_000, |i| {
        black_box(mem.access((2 * i) % 8, 0x8000, AccessKind::Write, 2000 * i as u64));
    });
    [hit, miss, dirty]
}

fn probe_record(i: usize) -> CellRecord {
    let n = i as u64;
    CellRecord {
        key: format!("{:016x}", fnv64(&n.to_le_bytes())),
        label: format!("probe/orig/{i}p"),
        app: "probe".into(),
        version: "orig".into(),
        problem: "store probe".into(),
        nprocs: 1 + i % 8,
        scale: "quick".into(),
        status: CellStatus::Ok,
        attempts: 1,
        host_ms: n,
        wall_ns: 1_000_000 + n,
        seq_ns: 4_000_000 + n,
        busy_ns: 600_000 + n,
        mem_ns: 300_000 + n,
        sync_ns: 100_000 + n,
        misses: 5_000 + n,
        events: 700 + n,
        causes: [n, 1, 2, 3, 4],
        sanitize: None,
        critpath: None,
        error: None,
    }
}

/// Store probe results.
#[derive(Debug, Clone, Copy)]
pub struct StoreTimes {
    /// `Store::open` of the probe file, ms.
    pub open_ms: f64,
    /// `Store::get` per call, µs.
    pub get_us: f64,
    /// `Store::append` per call, µs.
    pub append_us: f64,
}

/// Appends 1,792 records to a fresh store in `dir`, reopens it, and
/// reads every record back; every record must round-trip.
///
/// # Errors
///
/// Store I/O failures or a record that does not read back equal.
pub fn store(dir: &Path) -> Result<StoreTimes, String> {
    const PER_BATCH: usize = 256;
    let path = dir.join("store-probe.jsonl");
    let io = |e: std::io::Error| format!("store probe: {e}");
    let records: Vec<CellRecord> = (0..PER_BATCH * BATCHES).map(probe_record).collect();
    let store = Store::open(&path, false).map_err(io)?;
    let mut failed = None;
    let append_us = per_call_ns(PER_BATCH, |i| {
        if let Err(e) = store.append(&records[i]) {
            failed = Some(e);
        }
    }) / 1e3;
    drop(store);
    if let Some(e) = failed {
        return Err(io(e));
    }
    let mut opens = Vec::with_capacity(BATCHES);
    let mut store = None;
    for _ in 0..BATCHES {
        let t = Instant::now();
        store = Some(Store::open(&path, true).map_err(io)?);
        opens.push(t.elapsed().as_secs_f64() * 1e3);
    }
    let store = store.expect("opened at least once");
    let mut wrong = 0;
    let get_us = per_call_ns(PER_BATCH, |i| {
        if store.get(&records[i].key).as_ref() != Some(&records[i]) {
            wrong += 1;
        }
    }) / 1e3;
    let _ = std::fs::remove_file(&path);
    if wrong > 0 {
        return Err(format!(
            "store probe: {wrong} records did not read back equal"
        ));
    }
    Ok(StoreTimes {
        open_ms: median(&opens),
        get_us,
        append_us,
    })
}

/// µs per `MatrixSpec::parse` + `cells()` + run key of every cell, over
/// the first 64 jobs of the service stream for `seed`.
///
/// # Errors
///
/// A job the parser rejects.
pub fn matrix(seed: u64) -> Result<f64, String> {
    let mut stream = Stream::new(seed);
    let jobs: Vec<String> = (0..64).map(|_| stream.next_job()).collect();
    for dsl in &jobs {
        MatrixSpec::parse(dsl)?;
    }
    Ok(per_call_ns(jobs.len(), |i| {
        let spec = MatrixSpec::parse(&jobs[i % jobs.len()]).expect("parsed above");
        for cell in spec.cells() {
            black_box(cell.key().hash_hex());
        }
    }) / 1e3)
}
