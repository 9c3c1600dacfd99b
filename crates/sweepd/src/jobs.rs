//! Job state: one submitted matrix, its expanded cells, and the records
//! filled in as the store answers or the workers finish.
//!
//! A job never owns work — cells are deduplicated across jobs by run
//! key, so two jobs naming the same cell share one simulation. The job
//! just tracks which of *its* slots are filled and streams progress to
//! its SSE subscribers.

use ccnuma_sweep::store::CellRecord;
use ccnuma_telemetry::http::Subscribers;

use ccnuma_sim::json;

/// One submitted sweep request.
#[derive(Debug)]
pub struct Job {
    /// Daemon-assigned id, dense from 1.
    pub id: u64,
    /// The matrix DSL as submitted (trimmed).
    pub dsl: String,
    /// Cell labels, in matrix order.
    pub labels: Vec<String>,
    /// Cell run-key hashes, in matrix order.
    pub keys: Vec<String>,
    /// Finished records (`None` while the cell is pending), in matrix
    /// order. Duplicates of one key within a job share the same record.
    pub records: Vec<Option<CellRecord>>,
    /// Cells answered from the store at submit time.
    pub cached: usize,
    /// Cells filled by a simulation that finished after submit (its own
    /// or another job's — shared cells count for every waiter).
    pub executed: usize,
    /// SSE subscribers to this job's progress frames.
    pub subscribers: Subscribers,
}

impl Job {
    /// Total cells in the matrix.
    pub fn total(&self) -> usize {
        self.labels.len()
    }

    /// Cells with a record.
    pub fn done(&self) -> usize {
        self.records.iter().filter(|r| r.is_some()).count()
    }

    /// Whether every cell has a record.
    pub fn complete(&self) -> bool {
        self.records.iter().all(|r| r.is_some())
    }

    /// Labels of quarantined (non-`Ok`) cells, in matrix order.
    pub fn quarantined(&self) -> Vec<&str> {
        self.records
            .iter()
            .flatten()
            .filter(|r| r.status.quarantined())
            .map(|r| r.label.as_str())
            .collect()
    }

    /// The summary object: everything but the records.
    pub fn summary_json(&self) -> String {
        let quarantined: Vec<String> = self.quarantined().iter().map(|l| json::quote(l)).collect();
        format!(
            "{{\"job\":{},\"dsl\":{},\"total\":{},\"cached\":{},\"executed\":{},\"done\":{},\"complete\":{},\"quarantined\":[{}]}}",
            self.id,
            json::quote(&self.dsl),
            self.total(),
            self.cached,
            self.executed,
            self.done(),
            self.complete(),
            quarantined.join(",")
        )
    }

    /// The full object: the summary plus a `records` array in matrix
    /// order, `null` for pending cells. Each record is the store's own
    /// JSONL rendering, so clients reuse
    /// [`CellRecord::parse_line`](CellRecord::parse_line) to read them
    /// and a served record is byte-identical to the stored line.
    pub fn to_json(&self) -> String {
        let mut s = self.summary_json();
        s.pop(); // strip the closing brace to extend the object
        s.push_str(",\"records\":[");
        for (i, rec) in self.records.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            match rec {
                Some(r) => s.push_str(&r.to_json_line()),
                None => s.push_str("null"),
            }
        }
        s.push_str("]}");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccnuma_sweep::store::CellStatus;

    fn record(key: &str, label: &str, status: CellStatus) -> CellRecord {
        CellRecord {
            key: key.into(),
            label: label.into(),
            app: "fft".into(),
            version: "orig".into(),
            problem: "2^10 points".into(),
            nprocs: 4,
            scale: "quick".into(),
            status,
            attempts: 1,
            host_ms: 12,
            wall_ns: 1000,
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
        }
    }

    fn job() -> Job {
        Job {
            id: 3,
            dsl: "apps=fft versions=orig procs=2,4".into(),
            labels: vec!["fft/orig/2p".into(), "fft/orig/4p".into()],
            keys: vec!["aaa".into(), "bbb".into()],
            records: vec![None, None],
            cached: 0,
            executed: 0,
            subscribers: Subscribers::default(),
        }
    }

    #[test]
    fn progress_counts_follow_the_records() {
        let mut j = job();
        assert_eq!((j.total(), j.done()), (2, 0));
        assert!(!j.complete());
        j.records[1] = Some(record("bbb", "fft/orig/4p", CellStatus::Ok));
        assert_eq!(j.done(), 1);
        j.records[0] = Some(record("aaa", "fft/orig/2p", CellStatus::Panicked));
        assert!(j.complete());
        assert_eq!(j.quarantined(), ["fft/orig/2p"]);
    }

    #[test]
    fn json_carries_records_in_matrix_order_with_null_gaps() {
        let mut j = job();
        j.records[1] = Some(record("bbb", "fft/orig/4p", CellStatus::Ok));
        let json = j.to_json();
        assert!(json.starts_with("{\"job\":3,"), "{json}");
        assert!(json.contains("\"total\":2,\"cached\":0"), "{json}");
        assert!(json.contains("\"records\":[null,{"), "{json}");
        assert!(json.contains("\"label\": \"fft/orig/4p\""), "{json}");
        // The embedded record is exactly the store line.
        let line = record("bbb", "fft/orig/4p", CellStatus::Ok).to_json_line();
        assert!(json.contains(&line), "{json}");
        assert!(json.ends_with("]}"), "{json}");
    }
}
