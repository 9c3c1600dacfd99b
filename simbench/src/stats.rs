//! Quantiles and the metric report.

use std::collections::BTreeMap;

/// The `q` quantile of `xs` by linear interpolation between order
/// statistics; 0 for no samples.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median of `xs`.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// The `q` quantile of latencies from a mix of operation shapes (cells of
/// one app, size and processor count; or hit and fresh jobs). Each
/// latency is taken relative to its shape's median, and the quantile of
/// those ratios is scaled by the geometric mean of the shape medians.
/// A plain quantile of the pooled latencies would fall into the gap
/// between two shapes' clusters and jump with every run.
pub fn mix_quantile(samples: &[(String, f64)], q: f64) -> f64 {
    let medians = shape_medians(samples);
    let scale = (medians.values().map(|m| m.ln()).sum::<f64>() / medians.len() as f64).exp();
    let relative: Vec<f64> = samples
        .iter()
        .map(|(k, v)| v / medians[k.as_str()])
        .collect();
    scale * quantile(&relative, q)
}

/// The median latency of each shape.
pub fn shape_medians(samples: &[(String, f64)]) -> BTreeMap<&str, f64> {
    let mut by_shape: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for (shape, v) in samples {
        by_shape.entry(shape).or_default().push(*v);
    }
    by_shape.into_iter().map(|(k, v)| (k, median(&v))).collect()
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Samples behind the value.
    pub samples: usize,
}

/// The report's last line: the result object.
pub fn json_line(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}
