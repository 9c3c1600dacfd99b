//! A small blocking client for the daemon, used by `bench submit` and
//! the integration tests: raw `TcpStream` HTTP plus parsers for the
//! daemon's JSON shapes (records are parsed by the store's own
//! [`CellRecord::parse_line`], so a fetched record round-trips
//! bit-identically).

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use ccnuma_sim::json;
use ccnuma_sweep::store::CellRecord;

/// What `POST /sweep` answered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SubmitResponse {
    /// Daemon-assigned job id.
    pub job: u64,
    /// Cells in the expanded matrix.
    pub cells: usize,
    /// Cells answered from the store immediately.
    pub cached: usize,
    /// Cells enqueued for fresh simulation by *this* job.
    pub enqueued: usize,
    /// Cells still pending (enqueued here or joined onto another job's
    /// in-flight run).
    pub pending: usize,
    /// Whether the job was complete at submit time (100% cache hits).
    pub complete: bool,
}

/// One `GET /jobs/<id>` answer.
#[derive(Debug, Clone, PartialEq)]
pub struct JobStatus {
    /// Job id.
    pub job: u64,
    /// Total cells.
    pub total: usize,
    /// Cells answered from the store at submit time.
    pub cached: usize,
    /// Cells filled by simulations finishing after submit.
    pub executed: usize,
    /// Cells with a record.
    pub done: usize,
    /// Whether every cell has a record.
    pub complete: bool,
    /// Labels of quarantined cells.
    pub quarantined: Vec<String>,
    /// Records in matrix order, `None` while pending.
    pub records: Vec<Option<CellRecord>>,
}

/// One raw HTTP round trip. Returns `(status code, body)`.
///
/// # Errors
///
/// Connection or read failures, or an unparsable response head.
pub fn request(addr: &str, method: &str, path: &str, body: &str) -> Result<(u16, String), String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connecting to {addr}: {e}"))?;
    let _ = stream.set_read_timeout(Some(Duration::from_secs(120)));
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: sweepd\r\nConnection: close\r\nContent-Length: {}\r\n\r\n",
        body.len()
    );
    stream
        .write_all(head.as_bytes())
        .and_then(|()| stream.write_all(body.as_bytes()))
        .map_err(|e| format!("sending request: {e}"))?;
    let mut raw = String::new();
    stream
        .read_to_string(&mut raw)
        .map_err(|e| format!("reading response: {e}"))?;
    let status: u16 = raw
        .strip_prefix("HTTP/1.1 ")
        .and_then(|r| r.split_whitespace().next())
        .and_then(|c| c.parse().ok())
        .ok_or_else(|| format!("unparsable response head: {:?}", raw.lines().next()))?;
    let body = match raw.find("\r\n\r\n") {
        Some(i) => raw[i + 4..].to_string(),
        None => String::new(),
    };
    Ok((status, body))
}

/// A GET returning the body on 200, or the error body otherwise.
///
/// # Errors
///
/// Transport failures or a non-200 status.
pub fn get(addr: &str, path: &str) -> Result<String, String> {
    let (status, body) = request(addr, "GET", path, "")?;
    if status == 200 {
        Ok(body)
    } else {
        Err(format!("GET {path}: {status}: {}", body.trim()))
    }
}

/// Submits one matrix-DSL string.
///
/// # Errors
///
/// Transport failures or a daemon rejection (bad DSL, shutting down).
pub fn submit(addr: &str, dsl: &str) -> Result<SubmitResponse, String> {
    let (status, body) = request(addr, "POST", "/sweep", dsl)?;
    if status != 200 {
        return Err(format!("submit rejected ({status}): {}", body.trim()));
    }
    Ok(SubmitResponse {
        job: json::num_field(&body, "job")?,
        cells: json::num_field(&body, "cells")? as usize,
        cached: json::num_field(&body, "cached")? as usize,
        enqueued: json::num_field(&body, "enqueued")? as usize,
        pending: json::num_field(&body, "pending")? as usize,
        complete: json::bool_field(&body, "complete")?,
    })
}

/// Fetches one job's full state.
///
/// # Errors
///
/// Transport failures, 404, or a malformed body.
pub fn job_status(addr: &str, id: u64) -> Result<JobStatus, String> {
    let body = get(addr, &format!("/jobs/{id}"))?;
    parse_job_status(&body)
}

/// Polls `GET /jobs/<id>` every `poll` until the job is complete.
/// Transient transport errors are retried; a run of consecutive
/// failures (daemon gone) aborts.
///
/// # Errors
///
/// Persistent transport failure or a daemon-side 404.
pub fn wait(addr: &str, id: u64, poll: Duration) -> Result<JobStatus, String> {
    let mut consecutive_errors = 0u32;
    loop {
        match job_status(addr, id) {
            Ok(st) if st.complete => return Ok(st),
            Ok(_) => consecutive_errors = 0,
            Err(e) if e.contains("404") => return Err(e),
            Err(e) => {
                consecutive_errors += 1;
                if consecutive_errors >= 20 {
                    return Err(format!("daemon unreachable while waiting: {e}"));
                }
            }
        }
        std::thread::sleep(poll);
    }
}

/// Fetches one record by run-key hash; `Ok(None)` on 404.
///
/// # Errors
///
/// Transport failures or a malformed record body.
pub fn cell(addr: &str, key_hex: &str) -> Result<Option<CellRecord>, String> {
    let (status, body) = request(addr, "GET", &format!("/cell/{key_hex}"), "")?;
    match status {
        200 => CellRecord::parse_line(body.trim()).map(Some),
        404 => Ok(None),
        s => Err(format!("GET /cell/{key_hex}: {s}: {}", body.trim())),
    }
}

/// Requests a graceful shutdown.
///
/// # Errors
///
/// Transport failures or a non-200 status.
pub fn shutdown(addr: &str) -> Result<(), String> {
    let (status, body) = request(addr, "POST", "/shutdown", "")?;
    if status == 200 {
        Ok(())
    } else {
        Err(format!("shutdown rejected ({status}): {}", body.trim()))
    }
}

/// Parses the `GET /jobs/<id>` body.
///
/// # Errors
///
/// Describes the first malformed field.
pub fn parse_job_status(body: &str) -> Result<JobStatus, String> {
    // Scalar fields live before the records array; records reuse some
    // field names (`label`, ...) so scope the scalar search to the head.
    let records_at = body.find("\"records\":[");
    let head = &body[..records_at.unwrap_or(body.len())];
    let records = match records_at {
        None => Vec::new(),
        Some(at) => json::objects(&body[at + "\"records\":[".len()..])?
            .into_iter()
            .map(|rec| rec.map(CellRecord::parse_line).transpose())
            .collect::<Result<_, _>>()?,
    };
    Ok(JobStatus {
        job: json::num_field(head, "job")?,
        total: json::num_field(head, "total")? as usize,
        cached: json::num_field(head, "cached")? as usize,
        executed: json::num_field(head, "executed")? as usize,
        done: json::num_field(head, "done")? as usize,
        complete: json::bool_field(head, "complete")?,
        quarantined: json::str_array(head, "quarantined")?,
        records,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccnuma_sweep::store::CellStatus;

    fn record(key: &str, status: CellStatus) -> CellRecord {
        CellRecord {
            key: key.into(),
            label: "fft/orig/4p".into(),
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
            error: if status == CellStatus::Ok {
                None
            } else {
                // Braces and brackets inside the string must not break
                // the object scanner.
                Some("panicked at {index: [3]} \"boom\"".into())
            },
        }
    }

    #[test]
    fn job_status_round_trips_through_the_job_json() {
        let ok = record("aaa", CellStatus::Ok);
        let bad = record("bbb", CellStatus::Panicked);
        let body = format!(
            "{{\"job\":7,\"dsl\":\"apps=fft\",\"total\":3,\"cached\":1,\"executed\":1,\"done\":2,\"complete\":false,\"quarantined\":[\"fft/orig/4p\"],\"records\":[{},null,{}]}}",
            ok.to_json_line(),
            bad.to_json_line()
        );
        let st = parse_job_status(&body).unwrap();
        assert_eq!((st.job, st.total, st.cached), (7, 3, 1));
        assert_eq!((st.executed, st.done, st.complete), (1, 2, false));
        assert_eq!(st.quarantined, ["fft/orig/4p"]);
        assert_eq!(st.records.len(), 3);
        assert_eq!(st.records[0], Some(ok));
        assert_eq!(st.records[1], None);
        assert_eq!(st.records[2], Some(bad), "braces in errors survive");
    }

    #[test]
    fn empty_and_missing_record_arrays_parse() {
        let body = "{\"job\":1,\"dsl\":\"\",\"total\":0,\"cached\":0,\"executed\":0,\"done\":0,\"complete\":true,\"quarantined\":[],\"records\":[]}";
        let st = parse_job_status(body).unwrap();
        assert!(st.complete);
        assert!(st.records.is_empty());
        assert!(st.quarantined.is_empty());
    }

    #[test]
    fn malformed_bodies_are_errors() {
        assert!(parse_job_status("{}").is_err());
        assert!(parse_job_status(
            "{\"job\":1,\"total\":0,\"cached\":0,\"executed\":0,\"done\":0,\"complete\":maybe"
        )
        .is_err());
        let truncated = "{\"job\":1,\"total\":1,\"cached\":0,\"executed\":0,\"done\":0,\"complete\":false,\"quarantined\":[],\"records\":[{\"key\": \"x";
        assert!(parse_job_status(truncated).is_err());
    }
}
