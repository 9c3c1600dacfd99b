//! The crash-safe JSONL result store.
//!
//! One line per finished cell, appended atomically (a single
//! `write_all` of the whole line on a file opened in append mode,
//! flushed before the append returns). A crash can therefore lose at
//! most the line being written; on load, any unterminated or
//! unparsable trailing line is dropped and counted, and `--resume`
//! simply re-runs the cells whose keys are missing — torn-write
//! recovery costs exactly the torn cell, nothing else.

use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, RwLock};

use ccnuma_sim::json::{self, esc};
use ccnuma_sim::stats::RunStats;
use ccnuma_sim::time::Ns;

/// Terminal state of one cell attempt sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellStatus {
    /// Ran and verified.
    Ok,
    /// Panicked on every attempt — quarantined.
    Panicked,
    /// Exceeded the per-run timeout on every attempt — quarantined.
    TimedOut,
    /// Deterministic simulation or verification failure — quarantined.
    Failed,
}

impl CellStatus {
    /// Wire name stored in the JSONL line.
    pub fn name(self) -> &'static str {
        match self {
            CellStatus::Ok => "ok",
            CellStatus::Panicked => "panic",
            CellStatus::TimedOut => "timeout",
            CellStatus::Failed => "failed",
        }
    }

    fn from_name(s: &str) -> Option<Self> {
        Some(match s {
            "ok" => CellStatus::Ok,
            "panic" => CellStatus::Panicked,
            "timeout" => CellStatus::TimedOut,
            "failed" => CellStatus::Failed,
            _ => return None,
        })
    }

    /// Whether the cell is quarantined (any terminal state but [`Ok`]:
    /// resume will not re-run it unless quarantine retry is requested).
    ///
    /// [`Ok`]: CellStatus::Ok
    pub fn quarantined(self) -> bool {
        self != CellStatus::Ok
    }
}

/// One finished cell, as persisted in the store.
#[derive(Debug, Clone, PartialEq)]
pub struct CellRecord {
    /// [`RunKey::hash_hex`](crate::key::RunKey::hash_hex) — the cache key.
    pub key: String,
    /// Human label (`"fft/orig/4p"`).
    pub label: String,
    /// Application id.
    pub app: String,
    /// Version id.
    pub version: String,
    /// Problem description.
    pub problem: String,
    /// Simulated processor count.
    pub nprocs: usize,
    /// Scale name (`"quick"`/`"full"`).
    pub scale: String,
    /// Terminal status.
    pub status: CellStatus,
    /// Attempts consumed (1 unless retries happened).
    pub attempts: u32,
    /// Host-side wall clock spent on the cell, milliseconds.
    pub host_ms: u64,
    /// Simulated parallel wall-clock (0 unless `status == Ok`).
    pub wall_ns: Ns,
    /// Simulated sequential baseline (0 unless `status == Ok`).
    pub seq_ns: Ns,
    /// Total busy time across processors.
    pub busy_ns: Ns,
    /// Total memory-stall time across processors.
    pub mem_ns: Ns,
    /// Total synchronization time across processors.
    pub sync_ns: Ns,
    /// Total data misses.
    pub misses: u64,
    /// Engine events processed (deterministic; 0 for failed cells and
    /// for records written by older store versions).
    pub events: u64,
    /// Classified miss counts `[cold, capacity, conflict, coh-true,
    /// coh-false]`; zeros unless the cell ran with attribution.
    pub causes: [u64; 5],
    /// Sanitizer finding counts `[races, lock_cycles, lints]`; `None`
    /// unless the cell ran with sanitizing enabled.
    pub sanitize: Option<[u64; 3]>,
    /// Critical-path summary `[busy_ns, mem_ns, sync_ns]` (the on-path
    /// triple, summing to `wall_ns`); `None` unless the cell ran with
    /// critical-path profiling enabled.
    pub critpath: Option<[u64; 3]>,
    /// Failure description for quarantined cells.
    pub error: Option<String>,
}

impl CellRecord {
    /// Speedup over the sequential baseline (0.0 for failed cells).
    pub fn speedup(&self) -> f64 {
        if self.wall_ns == 0 {
            0.0
        } else {
            self.seq_ns as f64 / self.wall_ns as f64
        }
    }

    /// Fills the statistics fields from a finished run.
    pub fn set_stats(&mut self, wall_ns: Ns, seq_ns: Ns, stats: &RunStats) {
        self.wall_ns = wall_ns;
        self.seq_ns = seq_ns;
        self.busy_ns = stats.total(|p| p.busy_ns);
        self.mem_ns = stats.total(|p| p.mem_ns);
        self.sync_ns = stats.total(|p| p.sync_ns());
        self.misses = stats.total(|p| p.misses());
        self.events = stats.events;
        self.causes = stats.cause_counts();
        self.sanitize = stats.sanitize.as_ref().map(|r| r.counts());
        self.critpath = stats.critpath.as_ref().map(|r| r.summary());
    }

    /// Serializes the record as one JSON line (no trailing newline).
    pub fn to_json_line(&self) -> String {
        let mut s = format!(
            "{{\"key\": \"{}\", \"label\": \"{}\", \"app\": \"{}\", \"version\": \"{}\", \
             \"problem\": \"{}\", \"nprocs\": {}, \"scale\": \"{}\", \"status\": \"{}\", \
             \"attempts\": {}, \"host_ms\": {}, \"wall_ns\": {}, \"seq_ns\": {}, \
             \"busy_ns\": {}, \"mem_ns\": {}, \"sync_ns\": {}, \"misses\": {}, \
             \"events\": {}, \"causes\": [{}]",
            esc(&self.key),
            esc(&self.label),
            esc(&self.app),
            esc(&self.version),
            esc(&self.problem),
            self.nprocs,
            esc(&self.scale),
            self.status.name(),
            self.attempts,
            self.host_ms,
            self.wall_ns,
            self.seq_ns,
            self.busy_ns,
            self.mem_ns,
            self.sync_ns,
            self.misses,
            self.events,
            self.causes
                .iter()
                .map(|n| n.to_string())
                .collect::<Vec<_>>()
                .join(", "),
        );
        if let Some([r, c, l]) = self.sanitize {
            s.push_str(&format!(", \"sanitize\": [{r}, {c}, {l}]"));
        }
        if let Some([b, m, y]) = self.critpath {
            s.push_str(&format!(", \"critpath\": [{b}, {m}, {y}]"));
        }
        if let Some(e) = &self.error {
            s.push_str(&format!(", \"error\": \"{}\"", esc(e)));
        }
        s.push('}');
        s
    }

    /// Parses one JSONL line produced by [`CellRecord::to_json_line`].
    ///
    /// # Errors
    ///
    /// Describes the first malformed field.
    pub fn parse_line(line: &str) -> Result<CellRecord, String> {
        fn counts<const N: usize>(line: &str, key: &str) -> Result<[u64; N], String> {
            json::u64_array(line, key)?
                .try_into()
                .map_err(|v: Vec<u64>| format!("expected {N} {key} values, got {}", v.len()))
        }
        let line = line.trim();
        if !line.starts_with('{') || !line.ends_with('}') {
            return Err("not a JSON object line".into());
        }
        let status_name = json::str_field(line, "status")?;
        let status = CellStatus::from_name(&status_name)
            .ok_or_else(|| format!("unknown status {status_name:?}"))?;
        // The two optional arrays are absent unless their observer ran.
        let optional = |key: &str| {
            line.contains(&format!("\"{key}\":"))
                .then(|| counts::<3>(line, key))
                .transpose()
        };
        Ok(CellRecord {
            key: json::str_field(line, "key")?,
            label: json::str_field(line, "label")?,
            app: json::str_field(line, "app")?,
            version: json::str_field(line, "version")?,
            problem: json::str_field(line, "problem")?,
            nprocs: json::num_field(line, "nprocs")? as usize,
            scale: json::str_field(line, "scale")?,
            status,
            attempts: json::num_field(line, "attempts")? as u32,
            host_ms: json::num_field(line, "host_ms")?,
            wall_ns: json::num_field(line, "wall_ns")?,
            seq_ns: json::num_field(line, "seq_ns")?,
            busy_ns: json::num_field(line, "busy_ns")?,
            mem_ns: json::num_field(line, "mem_ns")?,
            sync_ns: json::num_field(line, "sync_ns")?,
            misses: json::num_field(line, "misses")?,
            // Absent in stores written before the field existed.
            events: json::num_field(line, "events").unwrap_or(0),
            causes: counts::<5>(line, "causes")?,
            sanitize: optional("sanitize")?,
            critpath: optional("critpath")?,
            error: json::str_field(line, "error").ok(),
        })
    }
}

/// Statistics of one [`Store::compact`] pass.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CompactStats {
    /// Records kept (one per distinct key).
    pub kept: usize,
    /// Superseded records dropped (older lines for a re-written key).
    pub superseded_dropped: usize,
    /// Torn or unparsable lines dropped.
    pub torn_dropped: usize,
    /// File size before the rewrite, bytes.
    pub bytes_before: u64,
    /// File size after the rewrite, bytes.
    pub bytes_after: u64,
}

/// A point-in-time summary of the store, cheap enough to poll from a
/// metrics scrape.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct StoreStats {
    /// Distinct records in the live index.
    pub records: usize,
    /// Current file size, bytes (includes superseded lines until the
    /// next [`Store::compact`]).
    pub bytes: u64,
    /// Lines dropped at load (torn tail or foreign garbage).
    pub dropped_lines: usize,
    /// Records superseded since load or the last compaction: older
    /// lines for keys that were appended again, i.e. how many lines a
    /// compaction would evict.
    pub superseded: usize,
}

/// The open store: a live in-memory index over [`RunKey`] hashes (built
/// at load, kept current by [`Store::append`]) plus an append handle
/// shared by the worker threads.
///
/// [`RunKey`]: crate::key::RunKey
#[derive(Debug)]
pub struct Store {
    path: PathBuf,
    records: RwLock<HashMap<String, CellRecord>>,
    /// Lines dropped at load: a torn trailing write or foreign garbage.
    pub dropped_lines: usize,
    /// Superseded lines accumulated since load or the last compaction.
    superseded: AtomicUsize,
    file: Mutex<File>,
}

impl Store {
    /// Opens `path` for appending, first reading every complete record.
    /// With `resume` false the file is truncated instead — a fresh sweep.
    ///
    /// A trailing line without `\n` is treated as torn: it is dropped,
    /// and the file is truncated back to the last complete line so that
    /// records appended during the resume start on a fresh line (the
    /// cell the fragment named re-runs). Interior unparsable lines are
    /// dropped the same way; both are counted in
    /// [`Store::dropped_lines`].
    ///
    /// # Errors
    ///
    /// Any I/O error opening or reading the file.
    pub fn open(path: &Path, resume: bool) -> std::io::Result<Store> {
        let mut records = HashMap::new();
        let mut dropped = 0;
        let mut superseded = 0;
        // Byte length to cut the file back to before the first append:
        // a torn trailing line must be physically removed, or the next
        // appended record would be concatenated onto the fragment and
        // both would be lost (or worse, mis-parsed as one merged record).
        let mut truncate_to = None;
        if resume {
            match std::fs::read_to_string(path) {
                Ok(content) => {
                    let mut rest = content.as_str();
                    while let Some(nl) = rest.find('\n') {
                        let line = &rest[..nl];
                        rest = &rest[nl + 1..];
                        if line.trim().is_empty() {
                            continue;
                        }
                        match CellRecord::parse_line(line) {
                            Ok(rec) => {
                                // Last record wins; the shadowed line
                                // stays in the file until a compaction.
                                if records.insert(rec.key.clone(), rec).is_some() {
                                    superseded += 1;
                                }
                            }
                            Err(_) => dropped += 1,
                        }
                    }
                    if !rest.is_empty() {
                        // No trailing newline: a torn final write.
                        if !rest.trim().is_empty() {
                            dropped += 1;
                        }
                        truncate_to = Some((content.len() - rest.len()) as u64);
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                Err(e) => return Err(e),
            }
        }
        if !resume {
            match std::fs::remove_file(path) {
                Ok(()) => {}
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                Err(e) => return Err(e),
            }
        }
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        if let Some(len) = truncate_to {
            file.set_len(len)?;
        }
        Ok(Store {
            path: path.to_path_buf(),
            records: RwLock::new(records),
            dropped_lines: dropped,
            superseded: AtomicUsize::new(superseded),
            file: Mutex::new(file),
        })
    }

    /// The store's file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The record indexed for `key_hex`, if any. Returns a clone so the
    /// index lock is never held across caller work.
    pub fn get(&self, key_hex: &str) -> Option<CellRecord> {
        self.records
            .read()
            .expect("store index lock poisoned")
            .get(key_hex)
            .cloned()
    }

    /// Number of distinct records in the live index.
    pub fn len(&self) -> usize {
        self.records
            .read()
            .expect("store index lock poisoned")
            .len()
    }

    /// Whether the index holds no records.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Appends one record: a single `write_all` of the full line plus
    /// newline on an append-mode file, flushed before returning, so a
    /// concurrent crash can tear at most this line.
    ///
    /// # Errors
    ///
    /// Any I/O error writing the line.
    ///
    /// # Panics
    ///
    /// Panics if another thread panicked while holding the append lock.
    pub fn append(&self, rec: &CellRecord) -> std::io::Result<()> {
        let mut line = rec.to_json_line();
        line.push('\n');
        let mut f = self.file.lock().expect("store append lock poisoned");
        f.write_all(line.as_bytes())?;
        f.flush()?;
        // The file write committed; keep the live index current so a
        // long-running server answers for this key without reloading.
        // Lock order is always file → records (compact and stats agree).
        if self
            .records
            .write()
            .expect("store index lock poisoned")
            .insert(rec.key.clone(), rec.clone())
            .is_some()
        {
            self.superseded.fetch_add(1, Ordering::Relaxed);
        }
        LIVE_BYTES_APPENDED.fetch_add(line.len() as u64, Ordering::Relaxed);
        LIVE_RECORDS_APPENDED.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Rewrites the JSONL file keeping exactly one line per key — the
    /// newest — and dropping torn or foreign lines, then atomically
    /// replaces the original (write temp in the same directory, fsync,
    /// rename). Appends are blocked for the duration; the append handle
    /// is re-opened on the new file so later appends land there and not
    /// on the unlinked inode.
    ///
    /// Kept records preserve the file order of their first occurrence,
    /// so compacting an already-compact store is byte-identical.
    ///
    /// # Errors
    ///
    /// Any I/O error reading, writing, or renaming; the original file is
    /// untouched unless the rename succeeded.
    pub fn compact(&self) -> std::io::Result<CompactStats> {
        let mut file = self.file.lock().expect("store append lock poisoned");
        let content = match std::fs::read_to_string(&self.path) {
            Ok(c) => c,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => String::new(),
            Err(e) => return Err(e),
        };
        let bytes_before = content.len() as u64;
        // Re-parse the file rather than dumping the index: the file is
        // the source of truth, and this pass also counts what it evicts.
        let mut order: Vec<String> = Vec::new();
        let mut latest: HashMap<String, CellRecord> = HashMap::new();
        let mut superseded_dropped = 0;
        let mut torn_dropped = 0;
        // `lines()` also yields a torn trailing fragment (no `\n`);
        // it fails to parse and is dropped, like interior garbage.
        for line in content.lines() {
            if line.trim().is_empty() {
                continue;
            }
            match CellRecord::parse_line(line) {
                Ok(rec) => {
                    let key = rec.key.clone();
                    if latest.insert(key.clone(), rec).is_some() {
                        superseded_dropped += 1;
                    } else {
                        order.push(key);
                    }
                }
                Err(_) => torn_dropped += 1,
            }
        }
        let mut body = String::with_capacity(content.len());
        for key in &order {
            body.push_str(&latest[key].to_json_line());
            body.push('\n');
        }
        // Temp file in the same directory so the rename cannot cross a
        // filesystem boundary (rename is only atomic within one).
        let tmp = self.path.with_extension("compact.tmp");
        {
            let mut out = File::create(&tmp)?;
            out.write_all(body.as_bytes())?;
            out.sync_all()?;
        }
        std::fs::rename(&tmp, &self.path)?;
        *file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&self.path)?;
        *self.records.write().expect("store index lock poisoned") = latest;
        self.superseded.store(0, Ordering::Relaxed);
        Ok(CompactStats {
            kept: order.len(),
            superseded_dropped,
            torn_dropped,
            bytes_before,
            bytes_after: body.len() as u64,
        })
    }

    /// Current store statistics: index size, file bytes, and eviction
    /// counters (how much a [`Store::compact`] would reclaim).
    pub fn stats(&self) -> StoreStats {
        let bytes = {
            let f = self.file.lock().expect("store append lock poisoned");
            f.metadata().map(|m| m.len()).unwrap_or(0)
        };
        StoreStats {
            records: self.len(),
            bytes,
            dropped_lines: self.dropped_lines,
            superseded: self.superseded.load(Ordering::Relaxed),
        }
    }

    /// Forces the appended records to stable storage (`fsync`); the
    /// daemon calls this once on graceful shutdown.
    ///
    /// # Errors
    ///
    /// Any I/O error syncing the file.
    pub fn sync(&self) -> std::io::Result<()> {
        self.file
            .lock()
            .expect("store append lock poisoned")
            .sync_all()
    }
}

/// Process-wide bytes appended to any store, for live observers (the
/// telemetry registry mirrors this into `sweep_store_bytes_total`).
pub static LIVE_BYTES_APPENDED: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

/// Process-wide records appended to any store, for live observers.
pub static LIVE_RECORDS_APPENDED: std::sync::atomic::AtomicU64 =
    std::sync::atomic::AtomicU64::new(0);

#[cfg(test)]
mod tests {
    use super::*;

    fn record(key: &str, status: CellStatus) -> CellRecord {
        CellRecord {
            key: key.into(),
            label: "fft/orig/4p".into(),
            app: "fft".into(),
            version: "orig".into(),
            problem: "2^10 \"points\"".into(),
            nprocs: 4,
            scale: "quick".into(),
            status,
            attempts: 2,
            host_ms: 17,
            wall_ns: 1000,
            seq_ns: 3000,
            busy_ns: 2000,
            mem_ns: 700,
            sync_ns: 300,
            misses: 42,
            events: 5150,
            causes: [10, 9, 8, 7, 8],
            sanitize: if status == CellStatus::Ok {
                Some([2, 0, 1])
            } else {
                None
            },
            critpath: if status == CellStatus::Ok {
                Some([600, 250, 150])
            } else {
                None
            },
            error: if status == CellStatus::Ok {
                None
            } else {
                Some("boom \"quoted\"".into())
            },
        }
    }

    #[test]
    fn record_round_trips_through_jsonl() {
        for status in [
            CellStatus::Ok,
            CellStatus::Panicked,
            CellStatus::TimedOut,
            CellStatus::Failed,
        ] {
            let r = record("abc123", status);
            let back = CellRecord::parse_line(&r.to_json_line()).unwrap();
            assert_eq!(back, r);
        }
    }

    #[test]
    fn control_characters_round_trip_on_one_line() {
        let mut r = record("ctl", CellStatus::Failed);
        r.error = Some("panicked at 'boom':\n\tline two\r\u{1}end".into());
        r.problem = "multi\nline \"problem\"".into();
        let line = r.to_json_line();
        assert!(!line.contains('\n'), "record must stay on one line: {line}");
        assert!(!line.contains('\r'), "record must stay on one line: {line}");
        assert_eq!(CellRecord::parse_line(&line).unwrap(), r);
    }

    #[test]
    fn append_after_torn_tail_starts_on_a_fresh_line() {
        let dir = std::env::temp_dir().join(format!(
            "ccnuma-sweep-store-test-{}-torn-append",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("results.jsonl");
        let _ = std::fs::remove_file(&path);

        let store = Store::open(&path, false).unwrap();
        store.append(&record("aaa", CellStatus::Ok)).unwrap();
        store.append(&record("bbb", CellStatus::Ok)).unwrap();
        drop(store);

        // Tear the second record mid-line, as a crash during its append
        // would.
        let content = std::fs::read_to_string(&path).unwrap();
        let torn = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
        torn.set_len((content.trim_end().len() - 15) as u64)
            .unwrap();
        drop(torn);

        // Resume over the torn store and append the re-run cell — it
        // must not be concatenated onto the torn fragment.
        let store = Store::open(&path, true).unwrap();
        assert_eq!(store.dropped_lines, 1);
        assert_eq!(store.len(), 1);
        store.append(&record("bbb", CellStatus::Ok)).unwrap();
        drop(store);

        let store = Store::open(&path, true).unwrap();
        assert_eq!(store.dropped_lines, 0, "no torn fragment left behind");
        assert_eq!(store.len(), 2);
        assert_eq!(store.get("aaa"), Some(record("aaa", CellStatus::Ok)));
        assert_eq!(store.get("bbb"), Some(record("bbb", CellStatus::Ok)));
    }

    #[test]
    fn old_lines_without_events_still_parse() {
        let mut r = record("old", CellStatus::Ok);
        let line = r.to_json_line().replace("\"events\": 5150, ", "");
        let back = CellRecord::parse_line(&line).unwrap();
        r.events = 0;
        assert_eq!(back, r, "missing events field defaults to 0");
    }

    #[test]
    fn speedup_is_zero_for_failed_cells() {
        let mut r = record("k", CellStatus::Panicked);
        r.wall_ns = 0;
        assert_eq!(r.speedup(), 0.0);
        assert_eq!(record("k", CellStatus::Ok).speedup(), 3.0);
    }

    fn temp_store_path(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "ccnuma-sweep-store-test-{}-{tag}",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("results.jsonl");
        let _ = std::fs::remove_file(&path);
        path
    }

    #[test]
    fn compact_keeps_one_record_per_key_and_drops_torn_lines() {
        let path = temp_store_path("compact");
        // Build a dirty file by hand: a superseded "aaa" (appended
        // twice, second wins), interior garbage, and a torn tail.
        let mut body = String::new();
        let mut stale = record("aaa", CellStatus::Panicked);
        stale.attempts = 9;
        body.push_str(&stale.to_json_line());
        body.push('\n');
        body.push_str(&record("bbb", CellStatus::Ok).to_json_line());
        body.push('\n');
        body.push_str("not json at all\n");
        body.push_str(&record("aaa", CellStatus::Ok).to_json_line());
        body.push('\n');
        let torn = record("ccc", CellStatus::Ok).to_json_line();
        body.push_str(&torn[..torn.len() / 2]); // no newline: torn write
        std::fs::write(&path, &body).unwrap();

        let store = Store::open(&path, true).unwrap();
        assert_eq!(store.len(), 2);
        assert_eq!(store.dropped_lines, 2, "garbage line + torn tail");
        assert_eq!(store.stats().superseded, 1, "older aaa line is shadowed");

        let stats = store.compact().unwrap();
        assert_eq!(stats.kept, 2);
        assert_eq!(stats.superseded_dropped, 1);
        // The torn tail was already truncated away at open; compaction
        // only finds the interior garbage line.
        assert_eq!(stats.torn_dropped, 1);
        assert!(
            stats.bytes_after < stats.bytes_before,
            "compaction reclaims bytes: {stats:?}"
        );
        assert_eq!(store.stats().superseded, 0, "eviction debt cleared");
        // The last-written record won, in the index and on disk.
        assert_eq!(store.get("aaa"), Some(record("aaa", CellStatus::Ok)));
        drop(store);

        // Reload: clean file, identical records, nothing dropped.
        let reloaded = Store::open(&path, true).unwrap();
        assert_eq!(reloaded.dropped_lines, 0);
        assert_eq!(reloaded.len(), 2);
        assert_eq!(reloaded.get("aaa"), Some(record("aaa", CellStatus::Ok)));
        assert_eq!(reloaded.get("bbb"), Some(record("bbb", CellStatus::Ok)));

        // Compacting an already-compact store is byte-identical (stable
        // record order), and the temp file never lingers.
        let before = std::fs::read_to_string(&path).unwrap();
        let stats = reloaded.compact().unwrap();
        assert_eq!(stats.superseded_dropped + stats.torn_dropped, 0);
        assert_eq!(std::fs::read_to_string(&path).unwrap(), before);
        assert!(
            !path.with_extension("compact.tmp").exists(),
            "temp file is renamed away, not left behind"
        );
    }

    #[test]
    fn appends_after_compact_land_in_the_new_file() {
        // The rename unlinks the old inode; if the append handle were
        // not re-opened, later appends would vanish with it.
        let path = temp_store_path("compact-append");
        let store = Store::open(&path, false).unwrap();
        store.append(&record("aaa", CellStatus::Failed)).unwrap();
        store.append(&record("aaa", CellStatus::Ok)).unwrap();
        assert_eq!(store.stats().superseded, 1);
        let stats = store.compact().unwrap();
        assert_eq!((stats.kept, stats.superseded_dropped), (1, 1));
        store.append(&record("bbb", CellStatus::Ok)).unwrap();
        assert_eq!(store.len(), 2);
        drop(store);

        let reloaded = Store::open(&path, true).unwrap();
        assert_eq!(reloaded.len(), 2, "post-compact append persisted");
        assert_eq!(reloaded.get("aaa"), Some(record("aaa", CellStatus::Ok)));
        assert_eq!(reloaded.get("bbb"), Some(record("bbb", CellStatus::Ok)));
    }

    #[test]
    fn append_keeps_the_live_index_current() {
        let path = temp_store_path("live-index");
        let store = Store::open(&path, false).unwrap();
        assert_eq!(store.get("aaa"), None);
        store.append(&record("aaa", CellStatus::Ok)).unwrap();
        assert_eq!(
            store.get("aaa"),
            Some(record("aaa", CellStatus::Ok)),
            "get answers from the index without a reload"
        );
        let stats = store.stats();
        assert_eq!(stats.records, 1);
        assert!(stats.bytes > 0);
        assert_eq!(stats.superseded, 0);
    }

    #[test]
    fn quarantine_covers_all_non_ok_states() {
        assert!(!CellStatus::Ok.quarantined());
        assert!(CellStatus::Panicked.quarantined());
        assert!(CellStatus::TimedOut.quarantined());
        assert!(CellStatus::Failed.quarantined());
    }
}
