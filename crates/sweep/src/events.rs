//! Typed execution events: the executor and driver announce per-cell
//! lifecycle transitions (start, retry, finish, cache hit) on a caller-
//! supplied sink instead of being invisible until the store is re-read.
//!
//! The sink is a plain callback so the sweep crate stays free of any
//! telemetry dependency — `bench` subscribes one that updates its
//! registry and streams SSE `cell` events; tests subscribe a collector.
//! Sinks are called from worker threads, concurrently; they must be
//! cheap and must not panic.

use std::sync::Arc;

use crate::store::CellStatus;

/// One per-cell lifecycle transition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecEvent {
    /// An attempt of this cell has begun executing on a worker.
    Started {
        /// Cell label (`fft/orig/4p`).
        label: String,
        /// Simulated processor count, for sizing displays.
        nprocs: usize,
    },
    /// A retryable failure; another attempt follows immediately.
    Retried {
        /// Cell label.
        label: String,
        /// The attempt number that just failed (1-based).
        attempt: u32,
        /// Why it failed.
        error: String,
    },
    /// The cell reached a terminal record.
    Finished {
        /// Cell label.
        label: String,
        /// Terminal status.
        status: CellStatus,
        /// True when the record came from the store (or a duplicate
        /// executed in this invocation) without a fresh simulation.
        cache_hit: bool,
        /// Attempts consumed (0 for cache hits).
        attempts: u32,
        /// Host milliseconds spent (0 for cache hits).
        host_ms: u64,
    },
}

impl ExecEvent {
    /// The cell label this event concerns.
    pub fn label(&self) -> &str {
        match self {
            ExecEvent::Started { label, .. }
            | ExecEvent::Retried { label, .. }
            | ExecEvent::Finished { label, .. } => label,
        }
    }

    /// A compact JSON rendering (used verbatim as SSE `cell` event
    /// payloads).
    pub fn to_json(&self) -> String {
        use ccnuma_sim::json::esc;
        match self {
            ExecEvent::Started { label, nprocs } => format!(
                "{{\"kind\":\"started\",\"label\":\"{}\",\"nprocs\":{}}}",
                esc(label),
                nprocs
            ),
            ExecEvent::Retried {
                label,
                attempt,
                error,
            } => format!(
                "{{\"kind\":\"retried\",\"label\":\"{}\",\"attempt\":{},\"error\":\"{}\"}}",
                esc(label),
                attempt,
                esc(error)
            ),
            ExecEvent::Finished {
                label,
                status,
                cache_hit,
                attempts,
                host_ms,
            } => format!(
                "{{\"kind\":\"finished\",\"label\":\"{}\",\"status\":\"{}\",\"cache_hit\":{},\"attempts\":{},\"host_ms\":{}}}",
                esc(label),
                status.name(),
                cache_hit,
                attempts,
                host_ms
            ),
        }
    }
}

/// The subscriber type: called from worker threads, possibly
/// concurrently.
pub type EventSink = Arc<dyn Fn(&ExecEvent) + Send + Sync>;

/// Invokes the sink if one is installed.
pub(crate) fn emit(sink: &Option<EventSink>, ev: ExecEvent) {
    if let Some(s) = sink {
        s(&ev);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escapes_labels_and_errors() {
        let ev = ExecEvent::Retried {
            label: "fft/orig/4p".into(),
            attempt: 2,
            error: "panicked: \"boom\"\nline2".into(),
        };
        let j = ev.to_json();
        assert!(j.contains("\"attempt\":2"), "{j}");
        assert!(j.contains("\\\"boom\\\"\\nline2"), "{j}");
        assert_eq!(ev.label(), "fft/orig/4p");
    }

    #[test]
    fn finished_event_round_trips_status_names() {
        let ev = ExecEvent::Finished {
            label: "lu/opt/8p".into(),
            status: CellStatus::TimedOut,
            cache_hit: true,
            attempts: 0,
            host_ms: 0,
        };
        let j = ev.to_json();
        assert!(
            j.contains("\"status\":\"timeout\"") || j.contains("\"status\":\"timed_out\""),
            "uses CellStatus::name(): {j}"
        );
        assert!(j.contains("\"cache_hit\":true"), "{j}");
    }
}
