//! In-memory span recorder for the traced run. Each span is one call into
//! a layer's public function, made by this benchmark; spans of one cell or
//! job share an operation id. Spans are written as Chrome-trace JSON at
//! exit, and their self times give the per-layer table.

use std::collections::BTreeMap;
use std::time::Instant;

use ccnuma_sim::chrome::{self, ChromeDoc};

/// One finished (or open) span.
#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    op: u64,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

/// The recorder: a flat span list plus the stack of open spans.
#[derive(Debug)]
pub struct Spans {
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    /// An empty recorder; timestamps count from now.
    pub fn new() -> Spans {
        Spans {
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str, op: u64) {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            op,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span and returns its duration in ns.
    ///
    /// # Panics
    ///
    /// Panics if no span is open: begin/end pairs are a programming
    /// contract of this benchmark.
    pub fn end(&mut self) -> u64 {
        let i = self.open.pop().expect("span end without begin");
        let end = self.now_ns();
        self.spans[i].end_ns = end;
        end - self.spans[i].start_ns
    }

    /// Per-name self time in ns (duration minus the time its children
    /// cover), and the total duration of root spans.
    fn self_times(&self) -> (BTreeMap<&'static str, u64>, u64) {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut rows: BTreeMap<&'static str, u64> = BTreeMap::new();
        let mut roots = 0;
        for (s, child) in self.spans.iter().zip(child_ns) {
            let dur = s.end_ns - s.start_ns;
            *rows.entry(s.name).or_default() += dur.saturating_sub(child);
            if s.parent.is_none() {
                roots += dur;
            }
        }
        (rows, roots)
    }

    /// Percentage of root-span time covered by child spans: how much of
    /// each measured cell or job the named layer rows account for.
    pub fn coverage_pct(&self) -> f64 {
        let (mut roots, mut covered) = (0u64, 0u64);
        for s in &self.spans {
            let dur = s.end_ns - s.start_ns;
            match s.parent {
                None => roots += dur,
                Some(p) if self.spans[p].parent.is_none() => covered += dur,
                Some(_) => {}
            }
        }
        if roots == 0 {
            return 0.0;
        }
        100.0 * covered as f64 / roots as f64
    }

    /// The per-layer self-time table, one row per span name.
    pub fn table(&self) -> String {
        let (rows, roots) = self.self_times();
        let mut out = format!("{:<24} {:>12} {:>8}\n", "span (self time)", "ms", "% root");
        for (name, ns) in &rows {
            out.push_str(&format!(
                "{name:<24} {:>12.3} {:>8.2}\n",
                *ns as f64 / 1e6,
                100.0 * *ns as f64 / roots.max(1) as f64
            ));
        }
        out
    }

    /// The spans as a Chrome trace-event document.
    pub fn chrome_json(&self) -> String {
        let mut doc = ChromeDoc::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            doc.event(&format!(
                "{{\"name\":{},\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{},\"dur\":{},\
                 \"args\":{{\"id\":{i},\"parent\":{parent},\"op\":{}}}}}",
                chrome::json_str(s.name),
                chrome::us(s.start_ns),
                chrome::us(s.end_ns - s.start_ns),
                s.op
            ));
        }
        doc.finish()
    }
}
