//! Plain-text tables and CSV emission for the experiment harnesses —
//! mirrors the rows and series the paper reports.

use std::fmt;

use ccnuma_sim::json;

/// A simple aligned text table.
#[derive(Debug, Clone)]
pub struct Table {
    /// Table caption.
    pub title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table with a title and column headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row.
    ///
    /// # Panics
    ///
    /// Panics if the cell count differs from the header count.
    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        assert_eq!(cells.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(cells);
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The table rendered as RFC-4180-ish CSV (header line included).
    pub fn to_csv(&self) -> String {
        let field = |s: &str| {
            if s.contains([',', '"', '\n']) {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_string()
            }
        };
        let mut out = String::new();
        out.push_str(
            &self
                .headers
                .iter()
                .map(|h| field(h))
                .collect::<Vec<_>>()
                .join(","),
        );
        out.push('\n');
        for r in &self.rows {
            out.push_str(&r.iter().map(|c| field(c)).collect::<Vec<_>>().join(","));
            out.push('\n');
        }
        out
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        writeln!(f, "== {} ==", self.title)?;
        let line = |f: &mut fmt::Formatter<'_>, cells: &[String]| -> fmt::Result {
            let mut parts = Vec::with_capacity(cells.len());
            for (i, c) in cells.iter().enumerate() {
                parts.push(format!("{:<width$}", c, width = widths[i]));
            }
            writeln!(f, "| {} |", parts.join(" | "))
        };
        line(f, &self.headers)?;
        let sep: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
        writeln!(f, "|-{}-|", sep.join("-|-"))?;
        for row in &self.rows {
            line(f, row)?;
        }
        Ok(())
    }
}

/// Formats a fraction as a percentage with one decimal, e.g. `"61.3%"`.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", 100.0 * x)
}

/// Formats a float with two decimals.
pub fn f2(x: f64) -> String {
    format!("{x:.2}")
}

/// Renders a per-processor breakdown "continuum" (Figures 5–8 of the
/// paper) as compact text: processors are bucketed into `buckets` groups
/// and each group shows its average busy/memory/sync split.
pub fn breakdown_continuum(stats: &ccnuma_sim::stats::RunStats, buckets: usize) -> Table {
    let mut t = Table::new(
        format!("per-processor time breakdown ({} procs)", stats.nprocs()),
        &["procs", "busy", "memory", "sync"],
    );
    let n = stats.procs.len();
    let buckets = buckets.max(1).min(n.max(1));
    for b in 0..buckets {
        let lo = b * n / buckets;
        let hi = ((b + 1) * n / buckets).max(lo + 1).min(n);
        let (mut busy, mut mem, mut sync) = (0.0, 0.0, 0.0);
        for p in &stats.procs[lo..hi] {
            let (pb, pm, ps) = p.breakdown_pct();
            busy += pb;
            mem += pm;
            sync += ps;
        }
        let k = (hi - lo) as f64;
        t.row(vec![
            format!("{lo}-{}", hi - 1),
            format!("{:.1}%", busy / k),
            format!("{:.1}%", mem / k),
            format!("{:.1}%", sync / k),
        ]);
    }
    t
}

/// Renders the per-data-structure profile of a run (the pixie/prof analog
/// the paper's authors lacked; see
/// [`ccnuma_sim::profile`]).
pub fn range_profile_table(stats: &ccnuma_sim::stats::RunStats) -> Table {
    let mut t = Table::new(
        "per-data-structure profile",
        &[
            "structure",
            "reads",
            "writes",
            "hits",
            "local misses",
            "remote misses",
            "stall",
        ],
    );
    for r in &stats.ranges {
        t.row(vec![
            r.name.clone(),
            r.reads.to_string(),
            r.writes.to_string(),
            r.hits.to_string(),
            r.misses_local.to_string(),
            r.misses_remote.to_string(),
            ccnuma_sim::time::Span(r.stall_ns).to_string(),
        ]);
    }
    t
}

/// Renders a run's per-phase busy/memory/sync breakdown (aggregated over
/// processors), with memory stall split local/remote.
pub fn phase_breakdown_table(stats: &ccnuma_sim::stats::RunStats) -> Table {
    let mut t = Table::new(
        "per-phase time breakdown",
        &[
            "phase",
            "busy",
            "memory",
            "mem local",
            "mem remote",
            "sync",
            "share",
        ],
    );
    let grand: u64 = stats.phases.iter().map(|p| p.total().total_ns()).sum();
    for ph in &stats.phases {
        let tot = ph.total();
        if tot.total_ns() == 0 {
            continue;
        }
        let span = |ns| ccnuma_sim::time::Span(ns).to_string();
        t.row(vec![
            ph.name.clone(),
            span(tot.busy_ns),
            span(tot.mem_ns),
            span(tot.mem_local_ns),
            span(tot.mem_remote_ns),
            span(tot.sync_ns()),
            pct(tot.total_ns() as f64 / grand.max(1) as f64),
        ]);
    }
    t
}

/// Renders the memory-stall attribution of a run: for each machine
/// resource, the uncontended service time vs. the queueing delay charged to
/// it, plus the residual ("other": L2 hit time and prefetch overlap). The
/// rows sum to the run's total memory stall exactly.
pub fn stall_attribution_table(stats: &ccnuma_sim::stats::RunStats) -> Table {
    use ccnuma_sim::attrib::ResourceClass;
    let mut t = Table::new(
        "memory-stall attribution (service vs queueing)",
        &["resource", "service", "queueing", "total", "share"],
    );
    let bd = stats.mem_breakdown();
    let grand = stats.total(|p| p.mem_ns).max(1);
    let span = |ns| ccnuma_sim::time::Span(ns).to_string();
    for r in ResourceClass::ALL {
        let (s, q) = bd.get(r);
        t.row(vec![
            r.name().to_string(),
            span(s),
            span(q),
            span(s + q),
            pct((s + q) as f64 / grand as f64),
        ]);
    }
    t.row(vec![
        "other (hit/overlap)".into(),
        span(bd.other_ns),
        span(0),
        span(bd.other_ns),
        pct(bd.other_ns as f64 / grand as f64),
    ]);
    t
}

/// Renders the miss-cause mix of a run: counts and stall time per cause
/// (cold, capacity, conflict, true sharing, false sharing), plus the stall
/// charged to unclassified accesses (hits, upgrades, and everything when
/// classification is off).
pub fn miss_cause_table(stats: &ccnuma_sim::stats::RunStats) -> Table {
    use ccnuma_sim::attrib::{MissCause, CAUSE_OTHER};
    let mut t = Table::new(
        "miss-cause mix",
        &["cause", "misses", "share", "stall", "stall share"],
    );
    let counts = stats.cause_counts();
    let stall = stats.cause_stall_ns();
    let misses = stats.total(|p| p.misses()).max(1);
    let grand: u64 = stall.iter().sum::<u64>().max(1);
    let span = |ns| ccnuma_sim::time::Span(ns).to_string();
    for c in MissCause::ALL {
        t.row(vec![
            c.name().to_string(),
            counts[c.index()].to_string(),
            pct(counts[c.index()] as f64 / misses as f64),
            span(stall[c.index()]),
            pct(stall[c.index()] as f64 / grand as f64),
        ]);
    }
    t.row(vec![
        "other (hit/upgrade)".into(),
        "-".into(),
        "-".into(),
        span(stall[CAUSE_OTHER]),
        pct(stall[CAUSE_OTHER] as f64 / grand as f64),
    ]);
    t
}

/// Renders the sharing-hottest cache lines of the labelled data structures:
/// for each hot line, its coherence-miss count and the top
/// producer→consumer processor pairs observed on it.
pub fn sharing_hot_table(stats: &ccnuma_sim::stats::RunStats) -> Table {
    let mut t = Table::new(
        "sharing-hot lines",
        &["structure", "line", "coh misses", "producer→consumer"],
    );
    for r in &stats.ranges {
        for h in &r.sharing_hot {
            let pairs = h
                .pairs
                .iter()
                .map(|(prod, cons, n)| format!("p{prod}→p{cons}×{n}"))
                .collect::<Vec<_>>()
                .join(", ");
            t.row(vec![
                r.name.clone(),
                format!("{:#x}", h.line_addr),
                h.coherence_misses.to_string(),
                pairs,
            ]);
        }
    }
    t
}

/// Renders the per-phase attribution: memory stall, the queueing slice of
/// it, and the stall charged to each miss cause — the cause × phase plane
/// of the attribution cube.
pub fn phase_attribution_table(stats: &ccnuma_sim::stats::RunStats) -> Table {
    use ccnuma_sim::attrib::MissCause;
    let mut headers = vec!["phase", "memory", "queueing"];
    headers.extend(MissCause::ALL.iter().map(|c| c.name()));
    let mut t = Table::new("per-phase stall attribution", &headers);
    let span = |ns| ccnuma_sim::time::Span(ns).to_string();
    for ph in &stats.phases {
        let tot = ph.total();
        if tot.mem_ns == 0 {
            continue;
        }
        let mut row = vec![
            ph.name.clone(),
            span(tot.mem_ns),
            span(tot.mem_breakdown.queue_total()),
        ];
        row.extend(
            MissCause::ALL
                .iter()
                .map(|c| span(tot.mem_cause_ns[c.index()])),
        );
        t.row(row);
    }
    t
}

/// Serializes a run's attribution data — stall breakdown by resource,
/// miss-cause mix, and per-structure sharing hot spots — as a small
/// self-contained JSON document (no external dependencies).
pub fn attrib_json(label: &str, stats: &ccnuma_sim::stats::RunStats) -> String {
    use ccnuma_sim::attrib::{MissCause, ResourceClass, CAUSE_OTHER};
    let bd = stats.mem_breakdown();
    let counts = stats.cause_counts();
    let stall = stats.cause_stall_ns();
    let mut s = String::with_capacity(1024);
    s.push_str("{\n");
    s.push_str(&format!(
        "  \"version\": 1,\n  \"label\": \"{}\",\n",
        json::esc(label)
    ));
    s.push_str(&format!("  \"wall_ns\": {},\n", stats.wall_ns));
    s.push_str(&format!(
        "  \"mem_stall_ns\": {},\n",
        stats.total(|p| p.mem_ns)
    ));
    s.push_str(&format!(
        "  \"avg_miss_hops\": {:.4},\n",
        stats.avg_miss_hops()
    ));
    s.push_str("  \"resources\": {");
    for (i, r) in ResourceClass::ALL.iter().enumerate() {
        let (sv, q) = bd.get(*r);
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!(
            "\n    \"{}\": {{\"service_ns\": {sv}, \"queue_ns\": {q}}}",
            r.name()
        ));
    }
    s.push_str(&format!("\n  }},\n  \"other_ns\": {},\n", bd.other_ns));
    s.push_str("  \"causes\": {");
    for (i, c) in MissCause::ALL.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!(
            "\n    \"{}\": {{\"misses\": {}, \"stall_ns\": {}}}",
            c.name(),
            counts[c.index()],
            stall[c.index()]
        ));
    }
    s.push_str(&format!(
        "\n  }},\n  \"unclassified_stall_ns\": {},\n",
        stall[CAUSE_OTHER]
    ));
    s.push_str("  \"ranges\": [");
    for (i, r) in stats.ranges.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!(
            "\n    {{\"name\": \"{}\", \"stall_ns\": {}, \"cause_misses\": [{}], \"hot_lines\": [",
            json::esc(&r.name),
            r.stall_ns,
            r.cause_misses
                .iter()
                .map(|n| n.to_string())
                .collect::<Vec<_>>()
                .join(", ")
        ));
        for (j, h) in r.sharing_hot.iter().enumerate() {
            if j > 0 {
                s.push(',');
            }
            let pairs = h
                .pairs
                .iter()
                .map(|(p, c, n)| format!("[{p}, {c}, {n}]"))
                .collect::<Vec<_>>()
                .join(", ");
            s.push_str(&format!(
                "\n      {{\"line\": {}, \"coherence_misses\": {}, \"pairs\": [{pairs}]}}",
                h.line_addr, h.coherence_misses
            ));
        }
        s.push_str("]}");
    }
    s.push_str("\n  ]\n}\n");
    s
}

/// Renders sanitizer findings per experiment cell as a table: one row
/// per `(app, version, procs)` with the `[races, lock cycles, lints]`
/// counts and a pass/FAIL verdict.
pub fn sanitize_table(rows: &[(String, String, usize, [u64; 3])]) -> Table {
    let mut t = Table::new(
        "sanitize findings",
        &[
            "app", "version", "procs", "races", "cycles", "lints", "verdict",
        ],
    );
    for (app, version, procs, [races, cycles, lints]) in rows {
        let clean = races + cycles + lints == 0;
        t.row(vec![
            app.clone(),
            version.clone(),
            procs.to_string(),
            races.to_string(),
            cycles.to_string(),
            lints.to_string(),
            if clean { "pass" } else { "FAIL" }.to_string(),
        ]);
    }
    t
}

/// Serializes one run's [`SanitizeReport`](ccnuma_sim::sanitize::SanitizeReport)
/// as a small self-contained JSON document (hand-rolled, like
/// [`attrib_json`]; the workspace takes no serde dependency).
pub fn sanitize_json(label: &str, rep: &ccnuma_sim::sanitize::SanitizeReport) -> String {
    let access = |a: &ccnuma_sim::sanitize::AccessInfo| {
        format!(
            "{{\"proc\": {}, \"phase\": \"{}\", \"addr\": {}, \"bytes\": {}, \
             \"is_write\": {}, \"locks\": [{}]}}",
            a.proc,
            json::esc(&a.phase),
            a.addr,
            a.bytes,
            a.is_write,
            a.locks
                .iter()
                .map(|l| l.to_string())
                .collect::<Vec<_>>()
                .join(", ")
        )
    };
    let mut s = String::with_capacity(512);
    s.push_str("{\n");
    s.push_str(&format!(
        "  \"version\": 1,\n  \"label\": \"{}\",\n",
        json::esc(label)
    ));
    s.push_str(&format!(
        "  \"granularity\": \"{}\",\n",
        rep.granularity.name()
    ));
    s.push_str("  \"races\": [");
    for (i, r) in rep.races.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!(
            "\n    {{\"addr\": {}, \"bytes\": {}, \"prior\": {}, \"current\": {}}}",
            r.addr,
            r.bytes,
            access(&r.prior),
            access(&r.current)
        ));
    }
    s.push_str("\n  ],\n  \"lock_cycles\": [");
    for (i, c) in rep.lock_cycles.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!(
            "\n    [{}]",
            c.locks
                .iter()
                .map(|l| l.to_string())
                .collect::<Vec<_>>()
                .join(", ")
        ));
    }
    s.push_str("\n  ],\n  \"lints\": [");
    for (i, l) in rep.lints.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!(
            "\n    {{\"kind\": \"{}\", \"message\": \"{}\"}}",
            l.kind.name(),
            json::esc(&l.message)
        ));
    }
    s.push_str("\n  ]\n}\n");
    s
}

/// Renders critical-path shares per experiment cell as a table: one row
/// per labelled run with the on-path busy / memory / sync split, the
/// dominant limiter, and the ideal-sync speedup projection.
pub fn critpath_table(rows: &[(String, ccnuma_sim::critpath::CritReport)]) -> Table {
    let mut t = Table::new(
        "critical-path shares",
        &["run", "busy", "memory", "sync", "limiter", "sync=0 speedup"],
    );
    for (label, rep) in rows {
        let (busy, mem, sync) = rep.share_pct();
        let limiter = rep
            .headline()
            .split(',')
            .next()
            .unwrap_or_default()
            .trim()
            .to_string();
        t.row(vec![
            label.clone(),
            format!("{busy:.1}%"),
            format!("{mem:.1}%"),
            format!("{sync:.1}%"),
            limiter,
            format!("{:.2}x", rep.speedup("sync=0")),
        ]);
    }
    t
}

/// Renders one run's what-if projections as a table: the projected wall
/// clock and speedup of each re-weighted cost scenario.
pub fn whatif_table(label: &str, rep: &ccnuma_sim::critpath::CritReport) -> Table {
    let mut t = Table::new(
        format!("what-if projections ({label})"),
        &["scenario", "wall (us)", "speedup"],
    );
    for w in &rep.whatif {
        t.row(vec![
            w.name.clone(),
            format!("{:.3}", w.wall_ns as f64 / 1000.0),
            format!("{:.2}x", rep.speedup(&w.name)),
        ]);
    }
    t
}

/// Serializes one run's [`CritReport`](ccnuma_sim::critpath::CritReport)
/// as a small self-contained JSON document (hand-rolled, like
/// [`attrib_json`]; the workspace takes no serde dependency).
pub fn critpath_json(label: &str, rep: &ccnuma_sim::critpath::CritReport) -> String {
    let buckets = |b: &ccnuma_sim::critpath::CritBuckets| {
        format!(
            "{{\"busy_ns\": {}, \"sync_op_ns\": {}, \"mem_local_ns\": {},              \"mem_remote_ns\": {}, \"lock_wait_ns\": {}, \"barrier_wait_ns\": {},              \"sem_wait_ns\": {}}}",
            b.busy_ns,
            b.sync_op_ns,
            b.mem_local_ns,
            b.mem_remote_ns,
            b.lock_wait_ns,
            b.barrier_wait_ns,
            b.sem_wait_ns
        )
    };
    let nums = |ns: &[u64]| {
        ns.iter()
            .map(|n| n.to_string())
            .collect::<Vec<_>>()
            .join(", ")
    };
    let mut s = String::with_capacity(1024);
    s.push_str("{\n");
    s.push_str(&format!(
        "  \"version\": 1,\n  \"label\": \"{}\",\n  \"wall_ns\": {},\n",
        json::esc(label),
        rep.wall_ns
    ));
    s.push_str(&format!("  \"total\": {},\n", buckets(&rep.total)));
    s.push_str(&format!(
        "  \"mem_cause_ns\": [{}],\n  \"mem_queue_ns\": [{}],\n  \"mem_service_ns\": [{}],\n",
        nums(&rep.mem_cause_ns),
        nums(&rep.mem_queue_ns),
        nums(&rep.mem_service_ns)
    ));
    s.push_str("  \"phases\": [");
    for (i, ph) in rep.phases.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!(
            "\n    {{\"name\": \"{}\", \"path\": {}}}",
            json::esc(&ph.name),
            buckets(&ph.path)
        ));
    }
    s.push_str("\n  ],\n  \"whatif\": [");
    for (i, w) in rep.whatif.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!(
            "\n    {{\"scenario\": \"{}\", \"wall_ns\": {}}}",
            json::esc(&w.name),
            w.wall_ns
        ));
    }
    s.push_str("\n  ]\n}\n");
    s
}

/// Renders a trace's machine-wide gauge time series (miss rate, resource
/// occupancies, outstanding misses) as a table, one row per sample —
/// mainly useful via [`Table::to_csv`].
pub fn gauge_table(trace: &ccnuma_sim::trace::Trace) -> Table {
    let mut t = Table::new(
        "machine gauges",
        &[
            "t_us",
            "interval_us",
            "miss %",
            "hub occ %",
            "mem occ %",
            "router occ %",
            "outstanding",
        ],
    );
    for g in &trace.gauges {
        t.row(vec![
            format!("{:.3}", g.t as f64 / 1000.0),
            format!("{:.3}", g.interval_ns as f64 / 1000.0),
            format!("{:.2}", g.miss_pct),
            format!("{:.2}", g.hub_occ_pct),
            format!("{:.2}", g.mem_occ_pct),
            format!("{:.2}", g.router_occ_pct),
            format!("{:.2}", g.outstanding),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_aligns_columns() {
        let mut t = Table::new("demo", &["app", "speedup"]);
        t.row(vec!["fft".into(), "61.10".into()]);
        t.row(vec!["water-nsq".into(), "9.00".into()]);
        let s = t.to_string();
        assert!(s.contains("== demo =="));
        // All data lines have the same width.
        let lens: Vec<usize> = s.lines().skip(1).map(|l| l.chars().count()).collect();
        assert!(lens.windows(2).all(|w| w[0] == w[1]), "{s}");
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn arity_mismatch_panics() {
        Table::new("t", &["a", "b"]).row(vec!["x".into()]);
    }

    #[test]
    fn csv_escapes() {
        let mut t = Table::new("t", &["a", "b"]);
        t.row(vec!["x,y".into(), "say \"hi\"".into()]);
        let csv = t.to_csv();
        assert_eq!(csv.lines().nth(1).unwrap(), "\"x,y\",\"say \"\"hi\"\"\"");
    }

    #[test]
    fn csv_escapes_newlines_and_quoted_headers() {
        let mut t = Table::new("t", &["plain", "has,comma"]);
        t.row(vec!["line1\nline2".into(), "ok".into()]);
        let csv = t.to_csv();
        // Header with a comma is quoted; embedded newline is kept inside
        // one quoted field (so the record spans two physical lines).
        assert_eq!(csv, "plain,\"has,comma\"\n\"line1\nline2\",ok\n");
    }

    #[test]
    fn empty_table_renders_headers_only() {
        let t = Table::new("empty", &["a", "b"]);
        assert!(t.is_empty());
        assert_eq!(t.len(), 0);
        assert_eq!(t.to_csv(), "a,b\n");
        let s = t.to_string();
        assert!(s.contains("== empty =="));
        assert!(s.contains("| a | b |"));
        // Title, header line, separator — and nothing else.
        assert_eq!(s.lines().count(), 3);
    }

    #[test]
    fn helpers_format() {
        assert_eq!(pct(0.613), "61.3%");
        assert_eq!(f2(1.005), "1.00");
    }

    #[test]
    fn continuum_buckets() {
        use ccnuma_sim::stats::{ProcStats, RunStats};
        let procs: Vec<ProcStats> = (0..8)
            .map(|i| ProcStats {
                busy_ns: 100 - i,
                mem_ns: i,
                ..Default::default()
            })
            .collect();
        let rs = RunStats {
            procs,
            wall_ns: 100,
            page_migrations: 0,
            resources: Default::default(),
            ranges: Vec::new(),
            phases: Vec::new(),
            trace: None,
            sanitize: None,
            critpath: None,
            events: 0,
        };
        let t = breakdown_continuum(&rs, 4);
        assert_eq!(t.len(), 4);
        let t1 = breakdown_continuum(&rs, 100); // clamped to nprocs
        assert_eq!(t1.len(), 8);
    }

    fn attrib_stats() -> ccnuma_sim::stats::RunStats {
        use ccnuma_sim::attrib::LatencyBreakdown;
        use ccnuma_sim::profile::{HotLine, RangeProfile};
        use ccnuma_sim::stats::{ProcStats, RunStats};
        let mut p = ProcStats {
            misses_local: 10,
            misses_remote_clean: 5,
            misses_cold: 6,
            misses_capacity: 5,
            misses_conflict: 2,
            misses_coherence: 4,
            misses_false_share: 1,
            miss_hops: 30,
            mem_ns: 1_000,
            ..Default::default()
        };
        p.mem_breakdown = LatencyBreakdown {
            service: [100, 200, 300, 50],
            queue: [40, 60, 0, 25],
            other_ns: 225,
        };
        p.mem_cause_ns = [100, 200, 300, 150, 50, 200];
        let range = RangeProfile {
            name: "grid".into(),
            stall_ns: 800,
            cause_misses: [6, 3, 2, 3, 1],
            sharing_hot: vec![HotLine {
                line_addr: 0x1080,
                coherence_misses: 4,
                pairs: vec![(0, 1, 3), (0, 2, 1)],
            }],
            ..Default::default()
        };
        RunStats {
            procs: vec![p],
            wall_ns: 5_000,
            page_migrations: 0,
            resources: Default::default(),
            ranges: vec![range],
            phases: Vec::new(),
            trace: None,
            sanitize: None,
            critpath: None,
            events: 0,
        }
    }

    #[test]
    fn stall_attribution_sums_cover_mem_stall() {
        let rs = attrib_stats();
        let t = stall_attribution_table(&rs);
        assert_eq!(t.len(), 5, "four resources plus the other row");
        let s = t.to_string();
        // 100+40 hub, 200+60 memory, 300 directory, 50+25 network, 225 other
        // — shares of the 1000 ns stall.
        assert!(s.contains("14.0%"), "{s}");
        assert!(s.contains("22.5%"), "{s}");
    }

    #[test]
    fn miss_cause_table_splits_refined_counters() {
        let rs = attrib_stats();
        let t = miss_cause_table(&rs);
        let csv = t.to_csv();
        // cold 6, capacity 5-2=3, conflict 2, coh-true 4-1=3, coh-false 1.
        assert!(csv.contains("cold,6,"), "{csv}");
        assert!(csv.contains("capacity,3,"), "{csv}");
        assert!(csv.contains("conflict,2,"), "{csv}");
        assert!(csv.contains("coh-true,3,"), "{csv}");
        assert!(csv.contains("coh-false,1,"), "{csv}");
    }

    #[test]
    fn sharing_hot_table_formats_pairs() {
        let rs = attrib_stats();
        let t = sharing_hot_table(&rs);
        assert_eq!(t.len(), 1);
        let s = t.to_string();
        assert!(s.contains("grid") && s.contains("0x1080"), "{s}");
        assert!(s.contains("p0→p1×3, p0→p2×1"), "{s}");
    }

    #[test]
    fn attrib_json_is_structurally_sound() {
        let rs = attrib_stats();
        let j = attrib_json("fft/2^14 points/8p", &rs);
        assert!(j.contains("\"version\": 1"));
        assert!(j.contains("\"label\": \"fft/2^14 points/8p\""));
        assert!(j.contains("\"hub\": {\"service_ns\": 100, \"queue_ns\": 40}"));
        assert!(j.contains("\"cold\": {\"misses\": 6, \"stall_ns\": 100}"));
        assert!(j.contains("\"cause_misses\": [6, 3, 2, 3, 1]"));
        assert!(j.contains("\"pairs\": [[0, 1, 3], [0, 2, 1]]"));
        // Balanced braces/brackets (no nested strings with braces here).
        let bal = |open, close| j.matches(open).count() == j.matches(close).count();
        assert!(bal('{', '}') && bal('[', ']'), "{j}");
    }

    #[test]
    fn phase_table_skips_empty_phases() {
        use ccnuma_sim::stats::{PhaseBreakdown, PhaseStats, ProcStats, RunStats};
        let ph = |name: &str, busy: u64| PhaseStats {
            name: name.into(),
            procs: vec![PhaseBreakdown {
                busy_ns: busy,
                ..Default::default()
            }],
        };
        let rs = RunStats {
            procs: vec![ProcStats::default()],
            wall_ns: 0,
            page_migrations: 0,
            resources: Default::default(),
            ranges: Vec::new(),
            phases: vec![ph("main", 0), ph("solve", 300), ph("reduce", 100)],
            trace: None,
            sanitize: None,
            critpath: None,
            events: 0,
        };
        let t = phase_breakdown_table(&rs);
        assert_eq!(t.len(), 2, "the empty main phase is omitted");
        let csv = t.to_csv();
        assert!(csv.contains("solve") && csv.contains("75.0%"), "{csv}");
    }

    #[test]
    fn sanitize_table_verdicts_and_csv_escaping() {
        let rows = vec![
            ("fft".to_string(), "base".to_string(), 4, [0u64, 0, 0]),
            (
                "water,nsq".to_string(),
                "opt \"v2\"".to_string(),
                16,
                [2, 0, 1],
            ),
        ];
        let t = sanitize_table(&rows);
        assert_eq!(t.len(), 2);
        let csv = t.to_csv();
        let mut lines = csv.lines().skip(1);
        assert_eq!(lines.next().unwrap(), "fft,base,4,0,0,0,pass");
        // App/version cells with commas and quotes survive round-trip
        // escaping; nonzero counts flip the verdict.
        assert_eq!(
            lines.next().unwrap(),
            "\"water,nsq\",\"opt \"\"v2\"\"\",16,2,0,1,FAIL"
        );
    }

    #[test]
    fn sanitize_json_shape() {
        use ccnuma_sim::sanitize::{
            AccessInfo, LintFinding, LintKind, RaceFinding, SanitizeGranularity, SanitizeReport,
        };
        let acc = |proc, is_write| AccessInfo {
            proc,
            phase: "solve".into(),
            addr: 0x400,
            bytes: 8,
            is_write,
            locks: vec![1],
        };
        let rep = SanitizeReport {
            granularity: SanitizeGranularity::Word,
            races: vec![RaceFinding {
                addr: 0x400,
                bytes: 8,
                prior: acc(0, true),
                current: acc(1, false),
            }],
            lock_cycles: Vec::new(),
            lints: vec![LintFinding {
                kind: LintKind::AtomicPlainMix,
                message: "cell 0 at 0x80 \"mixed\"".into(),
            }],
        };
        let json = sanitize_json("fft/2^14 points/4p", &rep);
        assert!(json.contains("\"version\": 1"));
        assert!(json.contains("\"granularity\": \"word\""));
        assert!(json.contains("\"proc\": 0"));
        assert!(json.contains("\"locks\": [1]"));
        assert!(json.contains("\"kind\": \"atomic-plain-mix\""));
        // Embedded quotes in lint messages are escaped.
        assert!(json.contains("\\\"mixed\\\""), "{json}");
        assert!(json.contains("\"lock_cycles\": ["));
    }

    fn crit_report() -> ccnuma_sim::critpath::CritReport {
        use ccnuma_sim::critpath::{CritBuckets, CritReport, PhasePath, WhatIf};
        let total = CritBuckets {
            busy_ns: 400,
            sync_op_ns: 50,
            mem_local_ns: 100,
            mem_remote_ns: 150,
            lock_wait_ns: 100,
            barrier_wait_ns: 150,
            sem_wait_ns: 50,
        };
        CritReport {
            wall_ns: 1000,
            total,
            mem_cause_ns: [0; ccnuma_sim::attrib::CAUSE_SLOTS],
            mem_queue_ns: [0; 4],
            mem_service_ns: [0; 4],
            phases: vec![PhasePath {
                name: "solve \"fine\"".into(),
                path: total,
            }],
            whatif: vec![
                WhatIf {
                    name: "measured".into(),
                    wall_ns: 1000,
                },
                WhatIf {
                    name: "sync=0".into(),
                    wall_ns: 500,
                },
            ],
            segments: Vec::new(),
        }
    }

    #[test]
    fn critpath_table_shares_and_speedup() {
        let rows = vec![("fft/orig/4p".to_string(), crit_report())];
        let t = critpath_table(&rows);
        assert_eq!(t.len(), 1);
        let csv = t.to_csv();
        let line = csv.lines().nth(1).unwrap();
        assert!(line.starts_with("fft/orig/4p,40.0%,25.0%,35.0%"), "{line}");
        assert!(line.ends_with("2.00x"), "{line}");
    }

    #[test]
    fn whatif_table_lists_every_scenario() {
        let t = whatif_table("fft/orig/4p", &crit_report());
        assert_eq!(t.len(), 2);
        let csv = t.to_csv();
        assert!(csv.contains("measured,1.000,1.00x"), "{csv}");
        assert!(csv.contains("sync=0,0.500,2.00x"), "{csv}");
    }

    #[test]
    fn critpath_json_shape() {
        let json = critpath_json("fft/2^14 points/4p", &crit_report());
        assert!(json.contains("\"version\": 1"));
        assert!(json.contains("\"wall_ns\": 1000"));
        assert!(json.contains("\"busy_ns\": 400"));
        assert!(json.contains("\"scenario\": \"sync=0\""));
        // Embedded quotes in phase names are escaped.
        assert!(json.contains("\\\"fine\\\""), "{json}");
        assert!(json.contains("\"mem_cause_ns\": [0, 0, 0, 0, 0, 0]"));
    }
}
