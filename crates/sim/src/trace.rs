//! Time- and phase-resolved tracing.
//!
//! When enabled via [`TraceConfig`], the engine records what each simulated
//! processor was doing at every point of virtual time — computing, stalled
//! on local or remote memory, waiting at synchronization — together with
//! instantaneous events (page migrations, invalidation bursts, late
//! prefetches) and machine-wide gauges sampled on a fixed virtual-time
//! epoch (miss rate, hub/memory/router occupancy, outstanding misses),
//! in the spirit of NUMAscope-style hardware event sampling.
//!
//! The buffer is bounded: when the span count exceeds the configured cap,
//! adjacent same-kind spans are merged with an exponentially growing merge
//! gap, and when the gauge series exceeds its cap the sampling epoch is
//! doubled and adjacent samples are averaged pairwise. Merging preserves
//! the per-(processor, kind, phase) duration totals *exactly* — only the
//! visual resolution degrades — so an exported trace always reconciles
//! with [`ProcStats`].
//!
//! The result is a [`Trace`], exportable as Chrome trace-event JSON
//! (loadable in Perfetto or `chrome://tracing`).

use crate::chrome::{json_str, us, ChromeDoc};
use crate::contend::Contention;
use crate::memsys::Outcome;
use crate::observe::{At, Event};
use crate::prof::{self, Region};
use crate::stats::ProcStats;
use crate::time::Ns;

/// Tracing knobs, carried on [`MachineConfig`](crate::config::MachineConfig).
///
/// Tracing is off by default and adds near-zero overhead when disabled:
/// the engine then builds no trace buffer at all.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceConfig {
    /// Master switch.
    pub enabled: bool,
    /// Soft cap on buffered interval events across all processors; when
    /// exceeded, spans are compacted by merging (totals are preserved).
    pub max_spans: usize,
    /// Cap on buffered instant events; further instants are counted in
    /// [`Trace::dropped_instants`] rather than stored.
    pub max_instants: usize,
    /// Cap on the gauge time series; when exceeded, the sampling epoch
    /// doubles and adjacent samples are averaged pairwise.
    pub max_gauge_samples: usize,
    /// Virtual-time gauge sampling epoch; `0` picks a default (4096 ns)
    /// that then adapts to the cap.
    pub gauge_epoch_ns: Ns,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            enabled: false,
            max_spans: 1 << 18,
            max_instants: 1 << 15,
            max_gauge_samples: 1024,
            gauge_epoch_ns: 0,
        }
    }
}

impl TraceConfig {
    /// A default configuration with tracing switched on.
    pub fn on() -> Self {
        TraceConfig {
            enabled: true,
            ..Default::default()
        }
    }
}

/// What a processor was doing over an interval of virtual time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// Executing application code.
    Busy,
    /// Stalled on a memory access whose home was the local node.
    MemLocal,
    /// Stalled on a remote memory access.
    MemRemote,
    /// Waiting for a sync object (lock queue, barrier arrival skew).
    SyncWait,
    /// Performing a synchronization operation (RMW, flag update, wake).
    SyncOp,
    /// Holding a lock (overlaps the above; drawn on the machine track).
    LockHold,
    /// A whole-machine barrier episode, first arrival to release.
    Barrier,
}

impl SpanKind {
    /// Coarse category used for reconciliation against
    /// [`ProcStats`]: `busy`, `mem` or `sync`.
    /// Lock-hold and barrier-episode spans are annotations, not time
    /// charges, and report `overlay`.
    pub fn category(self) -> &'static str {
        match self {
            SpanKind::Busy => "busy",
            SpanKind::MemLocal | SpanKind::MemRemote => "mem",
            SpanKind::SyncWait | SpanKind::SyncOp => "sync",
            SpanKind::LockHold | SpanKind::Barrier => "overlay",
        }
    }

    fn name(self) -> &'static str {
        match self {
            SpanKind::Busy => "busy",
            SpanKind::MemLocal => "mem-local",
            SpanKind::MemRemote => "mem-remote",
            SpanKind::SyncWait => "sync-wait",
            SpanKind::SyncOp => "sync-op",
            SpanKind::LockHold => "lock-hold",
            SpanKind::Barrier => "barrier",
        }
    }
}

/// One interval event. After compaction a span may cover several merged
/// intervals: `dur` is the exact sum of merged durations, while
/// `[start, end]` is their convex hull (so `dur ≤ end - start`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Interned phase id (index into [`Trace::phase_names`]).
    pub phase: u32,
    /// What the processor was doing.
    pub kind: SpanKind,
    /// Start of the (merged) interval.
    pub start: Ns,
    /// End of the (merged) interval.
    pub end: Ns,
    /// Exact accumulated duration of the merged intervals.
    pub dur: Ns,
    /// Object id for `LockHold` / `Barrier` spans, `0` otherwise.
    pub obj: u32,
}

/// Kinds of instantaneous events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InstantKind {
    /// The dynamic placement policy migrated a page.
    PageMigration,
    /// A write invalidated ≥ 2 peer caches at once.
    InvalBurst,
    /// A demand access caught its line still in flight from a prefetch.
    LatePrefetch,
}

impl InstantKind {
    fn name(self) -> &'static str {
        match self {
            InstantKind::PageMigration => "page-migration",
            InstantKind::InvalBurst => "inval-burst",
            InstantKind::LatePrefetch => "late-prefetch",
        }
    }
}

/// One instantaneous event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Instant {
    /// Processor on which the event occurred.
    pub proc: u32,
    /// Virtual time of the event.
    pub t: Ns,
    /// What happened.
    pub kind: InstantKind,
    /// Event magnitude (invalidation count for `InvalBurst`, else 0).
    pub value: u32,
}

/// One epoch sample of machine-wide gauges. Rates are normalized over the
/// interval since the previous sample (`interval_ns`), which grows when
/// the series is downsampled.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GaugeSample {
    /// Sample time (end of the interval).
    pub t: Ns,
    /// Length of the interval this sample summarizes.
    pub interval_ns: Ns,
    /// Cache miss rate over the interval, percent of accesses.
    pub miss_pct: f64,
    /// Mean hub occupancy over the interval, percent.
    pub hub_occ_pct: f64,
    /// Mean memory/directory occupancy over the interval, percent.
    pub mem_occ_pct: f64,
    /// Mean router occupancy over the interval, percent.
    pub router_occ_pct: f64,
    /// Mean number of outstanding misses (memory stall ns per ns).
    pub outstanding: f64,
    /// Coherence misses over the interval, percent of misses (zero unless
    /// `classify_misses` was enabled).
    pub coherence_pct: f64,
    /// False-sharing misses over the interval, percent of misses (ditto).
    pub false_share_pct: f64,
    /// Share of the interval's memory stall spent queueing for contended
    /// resources, percent.
    pub queue_pct: f64,
}

/// Cumulative machine counters at a sample point; the buffer
/// differentiates them into per-interval rates.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct GaugeTotals {
    pub accesses: u64,
    pub misses: u64,
    pub mem_stall_ns: Ns,
    /// Cumulative busy ns of hubs, memories, routers.
    pub busy_ns: [Ns; 3],
    /// Cumulative coherence misses (zero unless classification is on).
    pub coherence_misses: u64,
    /// Cumulative false-sharing misses (ditto).
    pub false_share_misses: u64,
    /// Cumulative queueing delay inside the memory stall.
    pub queue_wait_ns: Ns,
}

impl GaugeTotals {
    /// The machine's counters now: access totals from the `ledger`,
    /// resource busy times from `contention`.
    fn read(ledger: &[ProcStats], contention: &Contention) -> Self {
        let m = ProcStats::sum(ledger);
        let r = contention.summary();
        GaugeTotals {
            accesses: m.accesses(),
            misses: m.misses(),
            mem_stall_ns: m.mem_ns,
            busy_ns: [r[0].busy_ns, r[1].busy_ns, r[2].busy_ns],
            coherence_misses: m.misses_coherence,
            false_share_misses: m.misses_false_share,
            queue_wait_ns: m.mem_breakdown.queue_total(),
        }
    }
}

const DEFAULT_EPOCH_NS: Ns = 4096;
/// Initial merge gap once compaction starts (then grows 4× per pass).
const FIRST_MERGE_GAP: Ns = 1024;

/// The bounded recording buffer, fed by the engine's observer events.
pub(crate) struct TraceBuffer {
    cfg: TraceConfig,
    /// Per-track open span awaiting a possible merge; index `nprocs` is
    /// the synthetic machine track (barrier episodes).
    open: Vec<Option<Span>>,
    spans: Vec<Vec<Span>>,
    total_spans: usize,
    since_compact: usize,
    merge_gap: Ns,
    instants: Vec<Instant>,
    dropped_instants: u64,
    gauges: Vec<GaugeSample>,
    epoch: Ns,
    next_sample: Ns,
    last_t: Ns,
    last: GaugeTotals,
    /// Instance counts of hubs, memories, routers (occupancy denominators).
    counts: [u64; 3],
    /// Virtual time each lock was last acquired, for lock-hold spans.
    held_since: Vec<Ns>,
}

impl TraceBuffer {
    /// A buffer for `nprocs` processors and `nlocks` locks on a machine
    /// with `contention`'s hubs, memories and routers.
    pub(crate) fn new(
        cfg: TraceConfig,
        nprocs: usize,
        nlocks: usize,
        contention: &Contention,
    ) -> Self {
        let tracks = nprocs + 1;
        let epoch = if cfg.gauge_epoch_ns == 0 {
            DEFAULT_EPOCH_NS
        } else {
            cfg.gauge_epoch_ns
        };
        TraceBuffer {
            open: vec![None; tracks],
            spans: vec![Vec::new(); tracks],
            total_spans: 0,
            since_compact: 0,
            merge_gap: 0,
            instants: Vec::new(),
            dropped_instants: 0,
            gauges: Vec::new(),
            epoch,
            next_sample: epoch,
            last_t: 0,
            last: GaugeTotals::default(),
            counts: [&contention.hubs, &contention.mems, &contention.routers]
                .map(|r| r.len() as u64),
            held_since: vec![0; nlocks],
            cfg,
        }
    }

    /// Records the spans and instants `ev` implies, and a gauge sample
    /// off the `ledger` when one is due.
    pub(crate) fn on(&mut self, ev: &Event, ledger: &[ProcStats]) {
        match *ev {
            Event::Busy { at, ns } => self.span(at.p, at.phase, SpanKind::Busy, at.t, ns, 0),
            Event::SyncOp { at, ns } => self.span(at.p, at.phase, SpanKind::SyncOp, at.t, ns, 0),
            Event::SyncWait { at, ns } => {
                self.span(at.p, at.phase, SpanKind::SyncWait, at.t, ns, 0)
            }
            Event::Access(a) => self.access(a.at, a.outcome),
            Event::LockAcquire { at, id } => self.held_since[id] = at.t,
            Event::LockGrant(g) => self.held_since[g.id] = g.grant,
            Event::LockRelease { at, id } => {
                let from = self.held_since[id];
                let dur = at.t.saturating_sub(from);
                self.span(at.p, at.phase, SpanKind::LockHold, from, dur, id as u32);
            }
            Event::BarrierEpisode { id, from, to } => {
                let machine = self.open.len() - 1;
                let dur = to.saturating_sub(from);
                self.span(machine, 0, SpanKind::Barrier, from, dur, id as u32);
            }
            Event::Tick { t, contention } => {
                if let Some(at) = self.gauge_due(t) {
                    let _sp = prof::span(Region::Trace);
                    self.push_gauge(at, GaugeTotals::read(ledger, contention));
                }
            }
            _ => {}
        }
    }

    /// One access: its memory span and any instants.
    fn access(&mut self, at: At, o: &Outcome) {
        let kind = if o.home_local {
            SpanKind::MemLocal
        } else {
            SpanKind::MemRemote
        };
        self.span(at.p, at.phase, kind, at.t, o.latency, 0);
        if o.migrated {
            self.instant(at.p, at.t, InstantKind::PageMigration, 0);
        }
        if o.invals >= 2 {
            self.instant(at.p, at.t, InstantKind::InvalBurst, o.invals);
        }
        if o.late_prefetch {
            self.instant(at.p, at.t, InstantKind::LatePrefetch, 0);
        }
    }

    /// Records an interval on a processor track (or the machine track,
    /// index `nprocs`) for object `obj` (`0` if none). Zero-duration
    /// intervals are dropped.
    fn span(&mut self, track: usize, phase: u32, kind: SpanKind, start: Ns, dur: Ns, obj: u32) {
        if dur == 0 {
            return;
        }
        let end = start + dur;
        if let Some(o) = &mut self.open[track] {
            if o.kind == kind
                && o.phase == phase
                && o.obj == obj
                && start <= o.end.saturating_add(self.merge_gap)
            {
                o.dur += dur;
                o.end = o.end.max(end);
                return;
            }
            let closed = self.open[track].take().expect("just matched");
            self.spans[track].push(closed);
            self.total_spans += 1;
            self.since_compact += 1;
        }
        self.open[track] = Some(Span {
            phase,
            kind,
            start,
            end,
            dur,
            obj,
        });
        if self.total_spans >= self.cfg.max_spans && self.since_compact >= self.cfg.max_spans / 4 {
            self.compact();
        }
    }

    /// Coarsens the buffer: time is cut into windows of width `merge_gap`
    /// (which grows 4× per pass so repeated passes keep shrinking the
    /// buffer) and within a window all spans of the same (kind, phase,
    /// object) collapse into one. This shrinks even strictly alternating
    /// busy/mem streams, and duration totals are preserved exactly.
    fn compact(&mut self) {
        self.merge_gap = if self.merge_gap == 0 {
            FIRST_MERGE_GAP
        } else {
            self.merge_gap.saturating_mul(4)
        };
        let w = self.merge_gap;
        let mut total = 0;
        for v in &mut self.spans {
            let mut out: Vec<Span> = Vec::with_capacity(v.len() / 2 + 1);
            let mut cur_w = None;
            let mut bucket: Vec<Span> = Vec::new();
            for s in v.drain(..) {
                let sw = s.start / w;
                if cur_w != Some(sw) {
                    bucket.sort_by_key(|b| b.start);
                    out.append(&mut bucket);
                    cur_w = Some(sw);
                }
                match bucket
                    .iter_mut()
                    .find(|b| b.kind == s.kind && b.phase == s.phase && b.obj == s.obj)
                {
                    Some(b) => {
                        b.dur += s.dur;
                        b.start = b.start.min(s.start);
                        b.end = b.end.max(s.end);
                    }
                    None => bucket.push(s),
                }
            }
            bucket.sort_by_key(|b| b.start);
            out.append(&mut bucket);
            total += out.len();
            *v = out;
        }
        self.total_spans = total;
        self.since_compact = 0;
    }

    fn instant(&mut self, proc: usize, t: Ns, kind: InstantKind, value: u32) {
        if self.instants.len() >= self.cfg.max_instants {
            self.dropped_instants += 1;
        } else {
            self.instants.push(Instant {
                proc: proc as u32,
                t,
                kind,
                value,
            });
        }
    }

    /// Returns the gauge sample point due at or before `now`, if any.
    /// Called with the (nondecreasing) virtual time of each tick; the
    /// resource totals are gathered only when a sample is due.
    fn gauge_due(&self, now: Ns) -> Option<Ns> {
        if now < self.next_sample {
            return None;
        }
        // Largest epoch boundary ≤ now; one sample summarizes the whole
        // interval since the previous one (event gaps longer than an epoch
        // yield one wide sample rather than a run of empty ones).
        Some(now - now % self.epoch)
    }

    /// Pushes a gauge sample at boundary `t` (from [`Self::gauge_due`]),
    /// differentiating the cumulative `totals` against the previous sample.
    fn push_gauge(&mut self, t: Ns, totals: GaugeTotals) {
        let dt = t.saturating_sub(self.last_t);
        if dt == 0 {
            return;
        }
        let d_acc = totals.accesses - self.last.accesses;
        let d_miss = totals.misses - self.last.misses;
        let miss_pct = if d_acc == 0 {
            0.0
        } else {
            100.0 * d_miss as f64 / d_acc as f64
        };
        let occ = |i: usize| {
            let busy = totals.busy_ns[i] - self.last.busy_ns[i];
            100.0 * busy as f64 / (dt as f64 * self.counts[i].max(1) as f64)
        };
        let of_misses = |d: u64| {
            if d_miss == 0 {
                0.0
            } else {
                100.0 * d as f64 / d_miss as f64
            }
        };
        let d_stall = totals.mem_stall_ns - self.last.mem_stall_ns;
        let queue_pct = if d_stall == 0 {
            0.0
        } else {
            100.0 * (totals.queue_wait_ns - self.last.queue_wait_ns) as f64 / d_stall as f64
        };
        self.gauges.push(GaugeSample {
            t,
            interval_ns: dt,
            miss_pct,
            hub_occ_pct: occ(0),
            mem_occ_pct: occ(1),
            router_occ_pct: occ(2),
            outstanding: d_stall as f64 / dt as f64,
            coherence_pct: of_misses(totals.coherence_misses - self.last.coherence_misses),
            false_share_pct: of_misses(totals.false_share_misses - self.last.false_share_misses),
            queue_pct,
        });
        self.last_t = t;
        self.last = totals;
        self.next_sample = t + self.epoch;
        if self.gauges.len() > self.cfg.max_gauge_samples {
            self.downsample_gauges();
        }
    }

    /// Halves the gauge series by time-weighted pairwise averaging and
    /// doubles the epoch.
    fn downsample_gauges(&mut self) {
        self.epoch = self.epoch.saturating_mul(2);
        let mut out = Vec::with_capacity(self.gauges.len() / 2 + 1);
        let mut it = self.gauges.chunks_exact(2);
        for pair in &mut it {
            let (a, b) = (pair[0], pair[1]);
            let (wa, wb) = (a.interval_ns as f64, b.interval_ns as f64);
            let w = wa + wb;
            let avg = |x: f64, y: f64| (x * wa + y * wb) / w;
            out.push(GaugeSample {
                t: b.t,
                interval_ns: a.interval_ns + b.interval_ns,
                miss_pct: avg(a.miss_pct, b.miss_pct),
                hub_occ_pct: avg(a.hub_occ_pct, b.hub_occ_pct),
                mem_occ_pct: avg(a.mem_occ_pct, b.mem_occ_pct),
                router_occ_pct: avg(a.router_occ_pct, b.router_occ_pct),
                outstanding: avg(a.outstanding, b.outstanding),
                coherence_pct: avg(a.coherence_pct, b.coherence_pct),
                false_share_pct: avg(a.false_share_pct, b.false_share_pct),
                queue_pct: avg(a.queue_pct, b.queue_pct),
            });
        }
        out.extend(it.remainder().iter().copied());
        self.gauges = out;
    }

    /// Closes open spans and yields the finished trace.
    pub(crate) fn finish(mut self, phase_names: Vec<String>) -> Trace {
        for (track, open) in self.open.iter_mut().enumerate() {
            if let Some(s) = open.take() {
                self.spans[track].push(s);
            }
        }
        Trace {
            phase_names,
            spans: self.spans,
            instants: self.instants,
            gauges: self.gauges,
            dropped_instants: self.dropped_instants,
        }
    }
}

/// A finished time- and phase-resolved trace of one run.
///
/// Track `i < nprocs` holds processor `i`'s spans; the final track is the
/// synthetic machine track carrying barrier episodes.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Trace {
    /// Interned phase names; span `phase` fields index into this.
    pub phase_names: Vec<String>,
    /// Per-track interval events, in start order.
    pub spans: Vec<Vec<Span>>,
    /// Instantaneous events, in record order.
    pub instants: Vec<Instant>,
    /// Machine-wide gauge time series.
    pub gauges: Vec<GaugeSample>,
    /// Instants dropped once `max_instants` was reached.
    pub dropped_instants: u64,
}

impl Trace {
    /// Number of processor tracks (excludes the machine track).
    pub fn nprocs(&self) -> usize {
        self.spans.len().saturating_sub(1)
    }

    /// Exact total duration recorded for `proc` in a category
    /// (`"busy"`, `"mem"` or `"sync"`); reconciles with
    /// [`ProcStats`] by construction.
    pub fn category_total(&self, proc: usize, category: &str) -> Ns {
        self.spans[proc]
            .iter()
            .filter(|s| s.kind.category() == category)
            .map(|s| s.dur)
            .sum()
    }

    /// Per-phase (busy, mem, sync) totals summed over all processors,
    /// in [`Trace::phase_names`] order.
    pub fn phase_totals(&self) -> Vec<(String, [Ns; 3])> {
        let mut acc = vec![[0; 3]; self.phase_names.len()];
        for track in self.spans.iter().take(self.nprocs()) {
            for s in track {
                let slot = match s.kind.category() {
                    "busy" => 0,
                    "mem" => 1,
                    "sync" => 2,
                    _ => continue,
                };
                acc[s.phase as usize][slot] += s.dur;
            }
        }
        self.phase_names.iter().cloned().zip(acc).collect()
    }

    /// Serializes the trace as Chrome trace-event JSON (object form),
    /// loadable in Perfetto or `chrome://tracing`.
    pub fn to_chrome_json(&self, label: &str) -> String {
        let mut doc = ChromeDoc::new();
        {
            let (first, out) = doc.parts();
            self.write_chrome_events(0, label, first, out);
        }
        doc.finish()
    }

    /// Appends this trace's events (as process `pid`) to a merged event
    /// stream; used to bundle several runs into one trace file.
    pub fn write_chrome_events(&self, pid: u32, label: &str, first: &mut bool, out: &mut String) {
        let mut emit = |ev: String| {
            if !*first {
                out.push(',');
            }
            *first = false;
            out.push_str(&ev);
        };
        emit(format!(
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\
             \"args\":{{\"name\":{}}}}}",
            json_str(label)
        ));
        let nprocs = self.nprocs();
        for tid in 0..self.spans.len() {
            let name = if tid == nprocs {
                "machine".to_string()
            } else {
                format!("proc {tid}")
            };
            emit(format!(
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\
                 \"args\":{{\"name\":{}}}}}",
                json_str(&name)
            ));
        }
        for (tid, track) in self.spans.iter().enumerate() {
            for s in track {
                let name = match s.kind {
                    SpanKind::LockHold => format!("lock {}", s.obj),
                    SpanKind::Barrier => format!("barrier {}", s.obj),
                    _ => self
                        .phase_names
                        .get(s.phase as usize)
                        .cloned()
                        .unwrap_or_else(|| "?".into()),
                };
                emit(format!(
                    "{{\"name\":{},\"cat\":{},\"ph\":\"X\",\"ts\":{},\"dur\":{},\
                     \"pid\":{pid},\"tid\":{tid},\"args\":{{\"kind\":\"{}\",\"dur_ns\":{}}}}}",
                    json_str(&name),
                    json_str(s.kind.category()),
                    us(s.start),
                    us(s.end - s.start),
                    s.kind.name(),
                    s.dur,
                ));
            }
        }
        for i in &self.instants {
            emit(format!(
                "{{\"name\":{},\"ph\":\"i\",\"s\":\"t\",\"ts\":{},\"pid\":{pid},\
                 \"tid\":{},\"args\":{{\"value\":{}}}}}",
                json_str(i.kind.name()),
                us(i.t),
                i.proc,
                i.value,
            ));
        }
        for g in &self.gauges {
            emit(format!(
                "{{\"name\":\"miss rate %\",\"ph\":\"C\",\"ts\":{},\"pid\":{pid},\"tid\":0,\
                 \"args\":{{\"pct\":{:.3}}}}}",
                us(g.t),
                g.miss_pct
            ));
            emit(format!(
                "{{\"name\":\"occupancy %\",\"ph\":\"C\",\"ts\":{},\"pid\":{pid},\"tid\":0,\
                 \"args\":{{\"hub\":{:.3},\"mem\":{:.3},\"router\":{:.3}}}}}",
                us(g.t),
                g.hub_occ_pct,
                g.mem_occ_pct,
                g.router_occ_pct
            ));
            emit(format!(
                "{{\"name\":\"outstanding misses\",\"ph\":\"C\",\"ts\":{},\"pid\":{pid},\
                 \"tid\":0,\"args\":{{\"avg\":{:.3}}}}}",
                us(g.t),
                g.outstanding
            ));
            emit(format!(
                "{{\"name\":\"miss causes %\",\"ph\":\"C\",\"ts\":{},\"pid\":{pid},\"tid\":0,\
                 \"args\":{{\"coherence\":{:.3},\"false_share\":{:.3}}}}}",
                us(g.t),
                g.coherence_pct,
                g.false_share_pct
            ));
            emit(format!(
                "{{\"name\":\"stall queueing %\",\"ph\":\"C\",\"ts\":{},\"pid\":{pid},\"tid\":0,\
                 \"args\":{{\"pct\":{:.3}}}}}",
                us(g.t),
                g.queue_pct
            ));
        }
    }
}

/// Bundles several labelled traces into one Chrome trace file, one trace
/// per process row.
pub fn chrome_trace_file(traces: &[(String, &Trace)]) -> String {
    let mut doc = ChromeDoc::new();
    {
        let (first, out) = doc.parts();
        for (pid, (label, trace)) in traces.iter().enumerate() {
            trace.write_chrome_events(pid as u32, label, first, out);
        }
    }
    doc.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn buf(max_spans: usize) -> TraceBuffer {
        let cfg = TraceConfig {
            enabled: true,
            max_spans,
            ..Default::default()
        };
        TraceBuffer::new(cfg, 2, 0, &Contention::new(2, 2, 1))
    }

    #[test]
    fn adjacent_same_kind_spans_merge_and_preserve_totals() {
        let mut b = buf(1 << 18);
        // Two immediately adjacent busy spans merge; the mem span between
        // different kinds never merges.
        b.span(0, 0, SpanKind::Busy, 0, 50, 0);
        b.span(0, 0, SpanKind::Busy, 50, 30, 0);
        b.span(0, 0, SpanKind::MemLocal, 80, 20, 0);
        b.span(0, 0, SpanKind::Busy, 100, 10, 0);
        let t = b.finish(vec!["main".into()]);
        assert_eq!(t.spans[0].len(), 3);
        assert_eq!(
            t.spans[0][0],
            Span {
                phase: 0,
                kind: SpanKind::Busy,
                start: 0,
                end: 80,
                dur: 80,
                obj: 0
            }
        );
        assert_eq!(t.category_total(0, "busy"), 90);
        assert_eq!(t.category_total(0, "mem"), 20);
    }

    #[test]
    fn phase_change_breaks_merging() {
        let mut b = buf(1 << 18);
        b.span(0, 0, SpanKind::Busy, 0, 50, 0);
        b.span(0, 1, SpanKind::Busy, 50, 30, 0);
        let t = b.finish(vec!["main".into(), "solve".into()]);
        assert_eq!(t.spans[0].len(), 2);
        let totals = t.phase_totals();
        assert_eq!(totals[0], ("main".into(), [50, 0, 0]));
        assert_eq!(totals[1], ("solve".into(), [30, 0, 0]));
    }

    #[test]
    fn compaction_bounds_spans_and_preserves_duration_totals() {
        let mut b = buf(64);
        // Alternate busy/mem far apart so nothing merges until compaction
        // grows the gap.
        let mut t = 0;
        for i in 0..10_000u64 {
            let kind = if i % 2 == 0 {
                SpanKind::Busy
            } else {
                SpanKind::MemRemote
            };
            b.span(0, 0, kind, t, 10, 0);
            t += 100_000;
        }
        let tr = b.finish(vec!["main".into()]);
        assert!(tr.spans[0].len() <= 64 + 16, "got {}", tr.spans[0].len());
        assert_eq!(tr.category_total(0, "busy"), 5_000 * 10);
        assert_eq!(tr.category_total(0, "mem"), 5_000 * 10);
    }

    #[test]
    fn instants_cap_counts_drops() {
        let cfg = TraceConfig {
            enabled: true,
            max_instants: 4,
            ..Default::default()
        };
        let mut b = TraceBuffer::new(cfg, 1, 0, &Contention::new(1, 1, 1));
        for i in 0..10 {
            b.instant(0, i, InstantKind::LatePrefetch, 0);
        }
        let t = b.finish(vec!["main".into()]);
        assert_eq!(t.instants.len(), 4);
        assert_eq!(t.dropped_instants, 6);
    }

    #[test]
    fn gauges_downsample_by_doubling_epoch() {
        let cfg = TraceConfig {
            enabled: true,
            max_gauge_samples: 8,
            gauge_epoch_ns: 100,
            ..Default::default()
        };
        let mut b = TraceBuffer::new(cfg, 1, 0, &Contention::new(1, 1, 1));
        let mut totals = GaugeTotals::default();
        for step in 1..=32u64 {
            let now = step * 100;
            if let Some(t) = b.gauge_due(now) {
                totals.accesses += 10;
                totals.misses += 2;
                totals.mem_stall_ns += 50;
                b.push_gauge(t, totals);
            }
        }
        let t = b.finish(vec!["main".into()]);
        assert!(t.gauges.len() <= 8);
        // Miss rate is 20% in every interval; averaging preserves it.
        for g in &t.gauges {
            assert!((g.miss_pct - 20.0).abs() < 1e-9);
        }
        // Intervals tile the sampled range exactly.
        let covered: Ns = t.gauges.iter().map(|g| g.interval_ns).sum();
        assert_eq!(covered, 3200);
    }

    #[test]
    fn chrome_json_is_structurally_sound() {
        let mut b = buf(1 << 10);
        b.span(0, 0, SpanKind::Busy, 0, 1500, 0);
        b.span(1, 0, SpanKind::MemRemote, 1500, 333, 0);
        b.span(2, 0, SpanKind::Barrier, 0, 2000, 7);
        b.instant(1, 200, InstantKind::InvalBurst, 3);
        let t = b.finish(vec!["ph\"ase\n".into()]);
        let json = t.to_chrome_json("test run");
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.ends_with('}'));
        assert!(json.contains("\"ph\\\"ase\\n\""));
        assert!(json.contains("\"barrier 7\""));
        assert!(json.contains("\"ts\":1.500")); // 1500 ns = 1.5 µs
        assert!(json.contains("\"inval-burst\""));
        // Balanced braces/brackets outside strings ⇒ parses as one object.
        let (mut depth, mut in_str, mut esc) = (0i64, false, false);
        for c in json.chars() {
            if in_str {
                if esc {
                    esc = false;
                } else if c == '\\' {
                    esc = true;
                } else if c == '"' {
                    in_str = false;
                }
                continue;
            }
            match c {
                '"' => in_str = true,
                '{' | '[' => depth += 1,
                '}' | ']' => depth -= 1,
                _ => {}
            }
            assert!(depth >= 0);
        }
        assert_eq!(depth, 0);
        assert!(!in_str);
    }
}
