//! Rendering a registry snapshot: Prometheus text exposition format and
//! a flat JSON object.

use std::time::Instant;

use crate::registry::{Registry, SampleRow, SampleValue, HIST_BUCKETS};

/// Escapes a HELP text: backslash and newline.
fn esc_help(s: &str) -> String {
    s.replace('\\', "\\\\").replace('\n', "\\n")
}

/// Escapes a label value: backslash, double quote, newline.
fn esc_label(s: &str) -> String {
    s.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// Renders `{k="v",...}` for a label set (empty string for no labels),
/// with `extra` appended last (used for histogram `le`).
fn label_block(labels: &[(String, String)], extra: Option<(&str, &str)>) -> String {
    let mut parts: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", esc_label(v)))
        .collect();
    if let Some((k, v)) = extra {
        parts.push(format!("{k}=\"{}\"", esc_label(v)));
    }
    if parts.is_empty() {
        String::new()
    } else {
        format!("{{{}}}", parts.join(","))
    }
}

/// Formats a gauge value the way Prometheus expects.
fn fmt_f64(v: f64) -> String {
    if v.is_nan() {
        "NaN".into()
    } else if v.is_infinite() {
        if v > 0.0 {
            "+Inf".into()
        } else {
            "-Inf".into()
        }
    } else {
        format!("{v}")
    }
}

/// Renders a snapshot in the Prometheus text exposition format
/// (version 0.0.4): `# HELP` / `# TYPE` once per metric base name,
/// histogram buckets cumulative with a final `+Inf`, plus `_sum` and
/// `_count` series.
pub fn prometheus(rows: &[SampleRow]) -> String {
    let mut out = String::new();
    let mut seen: Vec<&str> = Vec::new();
    for row in rows {
        if !seen.contains(&row.name.as_str()) {
            seen.push(&row.name);
            let ty = match row.value {
                SampleValue::Counter(_) => "counter",
                SampleValue::Gauge(_) => "gauge",
                SampleValue::Histogram(_) => "histogram",
            };
            out.push_str(&format!("# HELP {} {}\n", row.name, esc_help(&row.help)));
            out.push_str(&format!("# TYPE {} {}\n", row.name, ty));
        }
        match &row.value {
            SampleValue::Counter(v) => {
                out.push_str(&format!(
                    "{}{} {}\n",
                    row.name,
                    label_block(&row.labels, None),
                    v
                ));
            }
            SampleValue::Gauge(v) => {
                out.push_str(&format!(
                    "{}{} {}\n",
                    row.name,
                    label_block(&row.labels, None),
                    fmt_f64(*v)
                ));
            }
            SampleValue::Histogram(h) => {
                let mut cum = 0u64;
                for (i, &c) in h.buckets.iter().enumerate() {
                    cum += c;
                    let le = if i < HIST_BUCKETS {
                        format!("{}", 1u64 << i)
                    } else {
                        "+Inf".to_string()
                    };
                    out.push_str(&format!(
                        "{}_bucket{} {}\n",
                        row.name,
                        label_block(&row.labels, Some(("le", &le))),
                        cum
                    ));
                }
                out.push_str(&format!(
                    "{}_sum{} {}\n",
                    row.name,
                    label_block(&row.labels, None),
                    h.sum
                ));
                out.push_str(&format!(
                    "{}_count{} {}\n",
                    row.name,
                    label_block(&row.labels, None),
                    cum
                ));
            }
        }
    }
    out
}

/// Escapes a JSON string body.
pub fn esc_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// The flat series key used in JSON renderings: the base name, plus
/// `{k=v,...}` when the series is labeled.
pub fn series_key(name: &str, labels: &[(String, String)]) -> String {
    if labels.is_empty() {
        name.to_string()
    } else {
        let parts: Vec<String> = labels.iter().map(|(k, v)| format!("{k}={v}")).collect();
        format!("{}{{{}}}", name, parts.join(","))
    }
}

/// One epoch record, `{"seq":N,"t_ms":T,"metrics":{...}}`: a fresh
/// [`json`] snapshot of `registry`, stamped `T` ms after `started`. The
/// hub and the sweep daemon both serve it at `/snapshot`.
pub fn epoch_record(seq: u64, started: Instant, registry: &Registry) -> String {
    let t_ms = started.elapsed().as_millis() as u64;
    let metrics = json(&registry.snapshot());
    format!("{{\"seq\":{seq},\"t_ms\":{t_ms},\"metrics\":{metrics}}}")
}

/// Renders a snapshot as one flat JSON object: `"name{k=v}" -> number`.
/// Histograms flatten to `_sum`, `_count`, and interpolated `_p50` /
/// `_p90` / `_p99` entries (see
/// [`HistSnapshot::quantile`](crate::registry::HistSnapshot::quantile)).
/// The object's key order is the registry's registration order.
pub fn json(rows: &[SampleRow]) -> String {
    let mut parts: Vec<String> = Vec::with_capacity(rows.len());
    for row in rows {
        let key = series_key(&row.name, &row.labels);
        match &row.value {
            SampleValue::Counter(v) => {
                parts.push(format!("\"{}\":{}", esc_json(&key), v));
            }
            SampleValue::Gauge(v) => {
                let num = if v.is_finite() {
                    format!("{v}")
                } else {
                    "null".to_string() // JSON has no NaN/Inf
                };
                parts.push(format!("\"{}\":{}", esc_json(&key), num));
            }
            SampleValue::Histogram(h) => {
                parts.push(format!("\"{}_sum\":{}", esc_json(&key), h.sum));
                parts.push(format!("\"{}_count\":{}", esc_json(&key), h.count()));
                for (tag, q) in [("p50", 0.5), ("p90", 0.9), ("p99", 0.99)] {
                    parts.push(format!("\"{}_{}\":{}", esc_json(&key), tag, h.quantile(q)));
                }
            }
        }
    }
    format!("{{{}}}", parts.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;

    #[test]
    fn exposition_has_help_type_and_values() {
        let r = Registry::new();
        r.counter("sim_events_total", "Engine events processed")
            .add(42);
        r.gauge("sweep_running", "Cells running now").set(3.0);
        let text = prometheus(&r.snapshot());
        assert!(text.contains("# HELP sim_events_total Engine events processed\n"));
        assert!(text.contains("# TYPE sim_events_total counter\n"));
        assert!(text.contains("sim_events_total 42\n"));
        assert!(text.contains("# TYPE sweep_running gauge\n"));
        assert!(text.contains("sweep_running 3\n"));
    }

    #[test]
    fn labeled_series_share_one_help_block() {
        let r = Registry::new();
        r.counter_with("cells_total", &[("status", "ok")], "Cells by status")
            .add(5);
        r.counter_with("cells_total", &[("status", "panicked")], "Cells by status")
            .add(1);
        let text = prometheus(&r.snapshot());
        assert_eq!(text.matches("# HELP cells_total").count(), 1);
        assert!(text.contains("cells_total{status=\"ok\"} 5\n"));
        assert!(text.contains("cells_total{status=\"panicked\"} 1\n"));
    }

    #[test]
    fn label_values_are_escaped() {
        let r = Registry::new();
        r.counter_with("weird_total", &[("app", "a\"b\\c\nd")], "odd labels")
            .add(1);
        let text = prometheus(&r.snapshot());
        assert!(
            text.contains("weird_total{app=\"a\\\"b\\\\c\\nd\"} 1\n"),
            "got: {text}"
        );
    }

    #[test]
    fn histogram_buckets_are_cumulative_and_end_at_inf() {
        let r = Registry::new();
        let h = r.histogram("lat_ns", "latency");
        h.observe(1); // bucket le=1
        h.observe(3); // bucket le=4
        h.observe(3);
        let text = prometheus(&r.snapshot());
        assert!(text.contains("# TYPE lat_ns histogram\n"));
        assert!(text.contains("lat_ns_bucket{le=\"1\"} 1\n"));
        assert!(text.contains("lat_ns_bucket{le=\"2\"} 1\n"), "cumulative");
        assert!(text.contains("lat_ns_bucket{le=\"4\"} 3\n"));
        assert!(text.contains("lat_ns_bucket{le=\"8\"} 3\n"), "cumulative");
        assert!(text.contains("lat_ns_bucket{le=\"+Inf\"} 3\n"));
        assert!(text.contains("lat_ns_sum 7\n"));
        assert!(text.contains("lat_ns_count 3\n"));
        // Cumulativity across every consecutive pair of bucket lines.
        let counts: Vec<u64> = text
            .lines()
            .filter(|l| l.starts_with("lat_ns_bucket"))
            .map(|l| l.rsplit(' ').next().unwrap().parse().unwrap())
            .collect();
        assert!(counts.windows(2).all(|w| w[0] <= w[1]), "{counts:?}");
    }

    #[test]
    fn json_is_flat_and_parsable_shape() {
        let r = Registry::new();
        r.counter("a_total", "a").add(7);
        r.gauge("b", "b").set(1.5);
        r.histogram("h", "h").observe(10);
        let j = json(&r.snapshot());
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert!(j.contains("\"a_total\":7"));
        assert!(j.contains("\"b\":1.5"));
        assert!(j.contains("\"h_sum\":10"));
        assert!(j.contains("\"h_count\":1"));
        // One observation of 10 sits in the (8, 16] bucket; its quantiles
        // interpolate inside it.
        assert!(j.contains("\"h_p50\":12"), "got: {j}");
        assert!(j.contains("\"h_p90\":"));
        assert!(j.contains("\"h_p99\":"));
    }
}
