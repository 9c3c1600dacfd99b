//! Smoke test of the benchmark binary: `simbench --smoke` runs a few cells
//! or jobs of every workload, untraced and traced.

use std::collections::BTreeMap;
use std::process::Command;
use std::sync::OnceLock;

/// Work counts that must repeat exactly for the same seed.
const EXACT: [&str; 9] = [
    "engine.events",
    "memsys.accesses",
    "memsys.accesses_per_event",
    "memsys.hit_ratio",
    "memsys.misses_local",
    "memsys.misses_remote",
    "memsys.invals",
    "memsys.writebacks",
    "sync.ops_per_event",
];

fn smoke(seed: u64) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_simbench"))
        .args(["--smoke", "--seed", &seed.to_string()])
        .output()
        .expect("run simbench");
    assert!(
        out.status.success(),
        "simbench --smoke --seed {seed} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 output")
}

fn seed1() -> &'static str {
    static OUT: OnceLock<String> = OnceLock::new();
    OUT.get_or_init(|| smoke(1))
}

/// Output lines grouped by workload (its untraced and traced runs).
fn by_workload(out: &str) -> BTreeMap<String, Vec<String>> {
    let mut groups: BTreeMap<String, Vec<String>> = BTreeMap::new();
    let mut current = None;
    for line in out.lines() {
        if let Some(rest) = line.strip_prefix("workload ") {
            current = rest.split_whitespace().next().map(str::to_string);
        }
        if let Some(w) = &current {
            groups.entry(w.clone()).or_default().push(line.to_string());
        }
    }
    groups
}

/// `(name, unit)` of every metric `BENCHMARK.json` names.
fn benchmark_metrics() -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = std::fs::read_to_string(path).expect("read BENCHMARK.json");
    let field = |obj: &str, key: &str| -> Option<String> {
        let pat = format!("\"{key}\": \"");
        let at = obj.find(&pat)? + pat.len();
        Some(obj[at..].split('"').next()?.to_string())
    };
    doc.split('{')
        .filter_map(|obj| Some((field(obj, "name")?, field(obj, "unit")?)))
        .collect()
}

#[test]
fn every_benchmark_metric_is_printed_with_its_unit_and_nothing_fails() {
    let metrics = benchmark_metrics();
    assert!(metrics.len() > 10, "parsed {metrics:?}");
    let groups = by_workload(seed1());
    assert_eq!(groups.len(), 4, "{:?}", groups.keys());
    for (workload, lines) in &groups {
        for (name, unit) in &metrics {
            let found = lines.iter().any(|l| {
                let f: Vec<&str> = l.split_whitespace().collect();
                f.len() >= 3 && f[0] == name && f[2] == unit && f[1].parse::<f64>().is_ok()
            });
            assert!(found, "{workload}: no `{name} <value> {unit}` line");
        }
        let ratios: Vec<&String> = lines
            .iter()
            .filter(|l| l.starts_with("failed_ratio "))
            .collect();
        assert_eq!(ratios.len(), 2, "{workload}: {ratios:?}");
        for l in ratios {
            assert!(l.starts_with("failed_ratio 0 "), "{workload}: {l}");
        }
    }
}

#[test]
fn a_seed_repeats_its_inputs_and_work_counts_and_another_seed_does_not() {
    let pick = |out: &str| -> Vec<String> {
        out.lines()
            .filter(|l| {
                l.starts_with("workload ") || EXACT.iter().any(|m| l.starts_with(&format!("{m} ")))
            })
            .map(str::to_string)
            .collect()
    };
    let first = pick(seed1());
    assert!(first.len() >= 4 + 4 * EXACT.len(), "{first:?}");
    assert_eq!(first, pick(&smoke(1)), "seed 1 twice");
    let inputs = |out: &str| -> Vec<String> {
        out.lines()
            .filter(|l| l.starts_with("workload "))
            .map(str::to_string)
            .collect()
    };
    let (one, two) = (inputs(seed1()), inputs(&smoke(2)));
    assert_eq!(one.len(), two.len());
    for (a, b) in one.iter().zip(&two) {
        let input = |l: &str| l.rsplit(' ').next().unwrap_or_default().to_string();
        assert_ne!(input(a), input(b), "seeds 1 and 2 share inputs: {a} / {b}");
    }
}
