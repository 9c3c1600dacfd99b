//! Host-side self-profiler: scoped spans over *host* (wall-clock) time.
//!
//! Everything else in the simulator measures *simulated* nanoseconds;
//! this module measures where the Rust process itself spends time while
//! producing them — the observability layer ROADMAP item 1's hot-path
//! overhaul is gated on. Spans are enum-keyed (no strings on the hot
//! path), thread-local (no atomics or locks per span), and cost two
//! monotonic clock reads each; with profiling disabled a span is a
//! single thread-local flag check. Regions that fire per cache-line
//! transaction are duration-sampled (`SAMPLE_SHIFT`) so the clock
//! reads never outweigh the work being measured — call counts stay
//! exact, durations become scaled 1-in-2^k estimates.
//!
//! The engine opens a [`ThreadScope`] per run from `cfg.profile` and wraps
//! its hot-path regions in [`span`] guards; closing the scope at run end
//! folds the thread's aggregates into the process-wide pool
//! ([`flush_thread`]). Observers read the pool with [`take`]/[`snapshot`]
//! (resettable, for `bench perf` measurement windows).
//!
//! Profiling is an *observer*: it never touches simulated state, so
//! [`crate::stats::RunStats`] is bit-identical with it on or off — the
//! same passivity contract tracing and sanitizing obey, pinned by a
//! test in the bench crate.

use crate::chrome::{us, ChromeDoc};
use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::sync::Mutex;
use std::time::Instant;

/// Number of profiled regions.
pub const N_REGIONS: usize = 7;

/// Maximum span nesting depth (the engine uses 3).
const MAX_DEPTH: usize = 8;

/// Per-region deterministic sampling shift: a region with shift `k`
/// times one span in `2^k` and scales the measured duration back up by
/// `2^k`; call counts stay exact. This is what keeps the profiler under
/// its overhead budget on regions that fire per cache-line transaction
/// (sub-microsecond bodies, ~10x the event rate) — timing every one
/// would cost more than the work being measured. Unsampled regions
/// (shift 0) are timed exactly.
const SAMPLE_SHIFT: [u32; N_REGIONS] = [
    0, // EngineDispatch: once per event, timed exactly.
    0, // MemsysService: once per request batch, timed exactly.
    6, // Directory: per line transaction (~8x the event rate), 1-in-64.
    0, // Trace
    0, // Attrib
    0, // Sanitize
    0, // LiveFlush
];

/// The profiled regions of the engine hot path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Region {
    /// One engine event: popping a request and dispatching it.
    EngineDispatch = 0,
    /// Applying a request's memory ops (cache/directory/contention walk
    /// plus the engine's per-access accounting).
    MemsysService = 1,
    /// The directory transaction of a miss or upgrade (nested inside
    /// [`Region::MemsysService`]). Fires per cache-line transaction, so
    /// it is *sampled* (see `SAMPLE_SHIFT`): calls are exact, times
    /// are 1-in-64 estimates scaled back up.
    Directory = 2,
    /// Event-trace capture (gauge sampling epochs).
    Trace = 3,
    /// Per-range attribution of serviced accesses.
    Attrib = 4,
    /// Happens-before sanitizer shadow-memory updates.
    Sanitize = 5,
    /// Flushing buffered deltas into the process-wide live counters.
    LiveFlush = 6,
}

impl Region {
    /// All regions, in index order.
    pub const ALL: [Region; N_REGIONS] = [
        Region::EngineDispatch,
        Region::MemsysService,
        Region::Directory,
        Region::Trace,
        Region::Attrib,
        Region::Sanitize,
        Region::LiveFlush,
    ];

    /// Stable array index.
    #[inline]
    pub const fn index(self) -> usize {
        self as usize
    }

    /// Stable snake_case name (used in exports and telemetry labels).
    pub const fn name(self) -> &'static str {
        match self {
            Region::EngineDispatch => "engine_dispatch",
            Region::MemsysService => "memsys_service",
            Region::Directory => "directory",
            Region::Trace => "trace",
            Region::Attrib => "attrib",
            Region::Sanitize => "sanitize",
            Region::LiveFlush => "live_flush",
        }
    }
}

/// Reads the raw span clock: TSC ticks on x86_64 (a fraction of the
/// cost of `clock_gettime`, which dominates span overhead otherwise),
/// nanoseconds since the thread epoch elsewhere. Raw units are
/// converted to nanoseconds at [`flush_thread`] using the ratio of the
/// thread's `Instant`-measured lifetime to its raw-measured lifetime —
/// exact on the fallback (ratio 1), and a constant-frequency-TSC
/// calibration on x86_64.
#[inline]
fn raw_now(epoch: &Instant) -> u64 {
    #[cfg(target_arch = "x86_64")]
    {
        let _ = epoch;
        // SAFETY: RDTSC has no preconditions; it only reads the
        // time-stamp counter.
        unsafe { core::arch::x86_64::_rdtsc() }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        epoch.elapsed().as_nanos() as u64
    }
}

/// One open span on the thread-local stack.
#[derive(Clone, Copy, Default)]
struct Frame {
    region: u8,
    /// Sampling shift of the region (duration is scaled by `1 << shift`).
    shift: u32,
    /// Start time in raw clock units ([`raw_now`]).
    start: u64,
    /// Raw clock units consumed by already-closed child spans.
    child: u64,
    /// Call-path key: 8 bits per level, `region index + 1` per byte,
    /// outermost level in the lowest byte.
    path: u64,
}

/// Per-thread aggregation state. Timed quantities (`total_raw`,
/// `self_raw`, path times) accumulate in raw clock units and are
/// converted to nanoseconds at [`flush_thread`].
struct TlAgg {
    /// Thread birth, the calibration anchor for raw→ns conversion.
    epoch: Instant,
    /// [`raw_now`] at `epoch`.
    epoch_raw: u64,
    depth: usize,
    stack: [Frame; MAX_DEPTH],
    /// Timed (on-sample) closes per region.
    calls: [u64; N_REGIONS],
    /// Timed opens per region — subtracted from [`TICKS`] at flush to
    /// derive how many off-sample opens to add to the call counts.
    timed_opens: [u64; N_REGIONS],
    total_raw: [u64; N_REGIONS],
    self_raw: [u64; N_REGIONS],
    /// Call-path key → (self raw, calls): the collapsed-flamegraph data.
    /// A linear-scan vec, not a map — the engine produces a handful of
    /// distinct paths and consecutive closes usually repeat one, so the
    /// `path_hint` cache makes the hot-path update a single compare.
    paths: Vec<(u64, u64, u64)>,
    path_hint: usize,
}

impl TlAgg {
    fn new() -> Self {
        let epoch = Instant::now();
        TlAgg {
            epoch,
            epoch_raw: raw_now(&epoch),
            depth: 0,
            stack: [Frame::default(); MAX_DEPTH],
            calls: [0; N_REGIONS],
            timed_opens: [0; N_REGIONS],
            total_raw: [0; N_REGIONS],
            self_raw: [0; N_REGIONS],
            paths: Vec::new(),
            path_hint: 0,
        }
    }
}

thread_local! {
    /// Checked on every `span()` call; the only cost when profiling is off.
    static ENABLED: Cell<bool> = const { Cell::new(false) };
    /// Per-region span-open counters driving [`SAMPLE_SHIFT`]. Outside
    /// `TL` so the off-sample fast path is two `Cell` operations with
    /// no `RefCell` borrow.
    static TICKS: [Cell<u64>; N_REGIONS] = const { [const { Cell::new(0) }; N_REGIONS] };
    static TL: RefCell<TlAgg> = RefCell::new(TlAgg::new());
}

/// Process-wide pool the per-thread aggregates fold into.
#[derive(Default)]
struct Pool {
    calls: [u64; N_REGIONS],
    total_ns: [u64; N_REGIONS],
    self_ns: [u64; N_REGIONS],
    paths: HashMap<u64, (u64, u64)>,
}

static POOL: Mutex<Option<Pool>> = Mutex::new(None);

/// Enables or disables span recording on the calling thread.
#[inline]
pub fn set_thread_enabled(on: bool) {
    ENABLED.with(|e| e.set(on));
}

/// Whether the calling thread is recording spans.
#[inline]
pub fn thread_enabled() -> bool {
    ENABLED.with(|e| e.get())
}

/// Enables profiling on this thread for the lifetime of the returned
/// scope (a no-op scope when `on` is false). Dropping it flushes the
/// thread's aggregates and disables recording, on every exit path.
pub fn thread_scope(on: bool) -> ThreadScope {
    if on {
        set_thread_enabled(true);
    }
    ThreadScope { active: on }
}

/// See [`thread_scope`].
pub struct ThreadScope {
    active: bool,
}

impl Drop for ThreadScope {
    fn drop(&mut self) {
        if self.active {
            set_thread_enabled(false);
            flush_thread();
        }
    }
}

/// Opens a scoped span; close it by dropping the guard. When profiling
/// is disabled on this thread the guard is inert and the call is a
/// single thread-local flag check.
#[inline]
pub fn span(region: Region) -> SpanGuard {
    if !ENABLED.with(|e| e.get()) {
        return SpanGuard { active: false };
    }
    let r = region.index();
    let shift = SAMPLE_SHIFT[r];
    if shift != 0 {
        // Off-sample opens are counted (at flush, from the tick) but
        // never timed — no clock read, no stack frame, no `RefCell`
        // borrow. The 1-in-2^shift on-sample opens stand in for them
        // when durations are scaled at close.
        let off = TICKS.with(|t| {
            let tick = t[r].get();
            t[r].set(tick.wrapping_add(1));
            tick & ((1u64 << shift) - 1) != 0
        });
        if off {
            return SpanGuard { active: false };
        }
    }
    TL.with(|tl| {
        let mut tl = tl.borrow_mut();
        if tl.depth >= MAX_DEPTH {
            return SpanGuard { active: false };
        }
        let now = raw_now(&tl.epoch);
        let parent_path = if tl.depth == 0 {
            0
        } else {
            tl.stack[tl.depth - 1].path
        };
        let depth = tl.depth;
        tl.stack[depth] = Frame {
            region: region as u8,
            shift,
            start: now,
            child: 0,
            path: (parent_path << 8) | (region.index() as u64 + 1),
        };
        tl.depth += 1;
        tl.timed_opens[r] += 1;
        SpanGuard { active: true }
    })
}

/// Closes its span on drop.
pub struct SpanGuard {
    active: bool,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if !self.active {
            return;
        }
        TL.with(|tl| {
            let mut tl = tl.borrow_mut();
            debug_assert!(tl.depth > 0, "span guard dropped with empty stack");
            let now = raw_now(&tl.epoch);
            tl.depth -= 1;
            let f = tl.stack[tl.depth];
            // Scale a sampled duration up to estimate the off-sample
            // opens this span stands in for.
            let dur = now.saturating_sub(f.start) << f.shift;
            let own = dur.saturating_sub(f.child);
            let r = f.region as usize;
            tl.calls[r] += 1;
            tl.total_raw[r] += dur;
            tl.self_raw[r] += own;
            let hint = tl.path_hint;
            let idx = if hint < tl.paths.len() && tl.paths[hint].0 == f.path {
                hint
            } else if let Some(i) = tl.paths.iter().position(|p| p.0 == f.path) {
                i
            } else {
                tl.paths.push((f.path, 0, 0));
                tl.paths.len() - 1
            };
            tl.path_hint = idx;
            tl.paths[idx].1 += own;
            // Path calls are estimates for sampled regions (scaled like
            // durations); the per-region `calls` array stays exact.
            tl.paths[idx].2 += 1 << f.shift;
            if tl.depth > 0 {
                let d = tl.depth;
                // Children of a sampled parent inherit its scaling via
                // `dur`; parents see an unbiased estimate either way.
                tl.stack[d - 1].child = tl.stack[d - 1].child.saturating_add(dur);
            }
        });
    }
}

/// Folds the calling thread's closed-span aggregates into the process
/// pool, then resets them. Raw clock units are converted to nanoseconds
/// here, calibrated against the thread's `Instant`-measured lifetime;
/// off-sample opens of sampled regions are folded into the call counts.
/// Open spans are unaffected (their data is recorded when they close).
/// Cheap when the thread has recorded nothing.
pub fn flush_thread() {
    TL.with(|tl| {
        let mut tl = tl.borrow_mut();
        let extra: [u64; N_REGIONS] = {
            let tl = &*tl;
            TICKS.with(|t| std::array::from_fn(|r| t[r].take().saturating_sub(tl.timed_opens[r])))
        };
        if tl.calls.iter().all(|&c| c == 0) && extra.iter().all(|&c| c == 0) {
            return;
        }
        // Lifetime calibration: the TSC frequency is constant, so the
        // whole-lifetime ns/raw ratio converts any window's raw sums.
        // On the non-TSC fallback raw *is* ns and the ratio is ~1.
        let elapsed_ns = tl.epoch.elapsed().as_nanos() as u64;
        let elapsed_raw = raw_now(&tl.epoch).saturating_sub(tl.epoch_raw);
        let factor = if elapsed_raw == 0 {
            1.0
        } else {
            elapsed_ns as f64 / elapsed_raw as f64
        };
        let to_ns = |raw: u64| (raw as f64 * factor) as u64;
        let mut pool = POOL.lock().expect("prof pool lock poisoned");
        let pool = pool.get_or_insert_with(Pool::default);
        for (r, extra) in extra.iter().enumerate() {
            pool.calls[r] += tl.calls[r] + extra;
            pool.total_ns[r] += to_ns(tl.total_raw[r]);
            pool.self_ns[r] += to_ns(tl.self_raw[r]);
        }
        for &(path, raw, calls) in tl.paths.iter() {
            let e = pool.paths.entry(path).or_insert((0, 0));
            e.0 += to_ns(raw);
            e.1 += calls;
        }
        tl.calls = [0; N_REGIONS];
        tl.timed_opens = [0; N_REGIONS];
        tl.total_raw = [0; N_REGIONS];
        tl.self_raw = [0; N_REGIONS];
        tl.paths.clear();
        tl.path_hint = 0;
    });
}

/// Aggregated per-region timings.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RegionStat {
    /// Spans closed.
    pub calls: u64,
    /// Inclusive nanoseconds (self + children).
    pub total_ns: u64,
    /// Exclusive nanoseconds.
    pub self_ns: u64,
}

/// One call path with its exclusive time: the collapsed-flamegraph row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathStat {
    /// Outermost region first.
    pub path: Vec<Region>,
    /// Exclusive nanoseconds spent at exactly this path.
    pub self_ns: u64,
    /// Spans closed at exactly this path.
    pub calls: u64,
}

/// A snapshot of the process-wide profile pool.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HostProfile {
    /// Per-region aggregates, indexed by [`Region::index`].
    pub regions: [RegionStat; N_REGIONS],
    /// Per-call-path exclusive times, sorted by path.
    pub paths: Vec<PathStat>,
}

fn decode_path(mut key: u64) -> Vec<Region> {
    let mut rev = Vec::new();
    while key != 0 {
        let idx = ((key & 0xff) - 1) as usize;
        rev.push(Region::ALL[idx]);
        key >>= 8;
    }
    rev.reverse();
    rev
}

fn profile_from_pool(pool: &Pool) -> HostProfile {
    let mut regions = [RegionStat::default(); N_REGIONS];
    for (r, stat) in regions.iter_mut().enumerate() {
        *stat = RegionStat {
            calls: pool.calls[r],
            total_ns: pool.total_ns[r],
            self_ns: pool.self_ns[r],
        };
    }
    let mut paths: Vec<PathStat> = pool
        .paths
        .iter()
        .map(|(&key, &(self_ns, calls))| PathStat {
            path: decode_path(key),
            self_ns,
            calls,
        })
        .collect();
    paths.sort_by(|a, b| a.path.cmp(&b.path));
    HostProfile { regions, paths }
}

/// Copies the process pool without resetting it.
pub fn snapshot() -> HostProfile {
    let pool = POOL.lock().expect("prof pool lock poisoned");
    match pool.as_ref() {
        Some(p) => profile_from_pool(p),
        None => HostProfile::default(),
    }
}

/// Drains the process pool: returns everything accumulated since the
/// last `take`/[`reset`] and clears it. `bench perf` brackets measurement
/// windows with this.
pub fn take() -> HostProfile {
    let mut pool = POOL.lock().expect("prof pool lock poisoned");
    match pool.take() {
        Some(p) => profile_from_pool(&p),
        None => HostProfile::default(),
    }
}

/// Clears the process pool.
pub fn reset() {
    let _ = take();
}

/// A node of the reconstructed call tree.
struct TreeNode {
    region: Region,
    self_ns: u64,
    calls: u64,
    children: Vec<TreeNode>,
}

impl TreeNode {
    fn total_ns(&self) -> u64 {
        self.self_ns + self.children.iter().map(|c| c.total_ns()).sum::<u64>()
    }
}

/// Builds the call tree for the given path prefix depth.
fn build_tree(paths: &[PathStat], prefix: &mut Vec<Region>) -> Vec<TreeNode> {
    let depth = prefix.len();
    let mut nodes: Vec<TreeNode> = Vec::new();
    for p in paths {
        if p.path.len() < depth + 1 || p.path[..depth] != prefix[..] {
            continue;
        }
        let head = p.path[depth];
        if p.path.len() == depth + 1 {
            nodes.push(TreeNode {
                region: head,
                self_ns: p.self_ns,
                calls: p.calls,
                children: Vec::new(),
            });
        } else if !nodes.iter().any(|n| n.region == head) {
            // A path whose intermediate node closed no spans itself
            // (possible after a mid-span flush): synthesize it.
            nodes.push(TreeNode {
                region: head,
                self_ns: 0,
                calls: 0,
                children: Vec::new(),
            });
        }
    }
    nodes.sort_by_key(|n| n.region);
    nodes.dedup_by(|b, a| {
        if a.region == b.region {
            a.self_ns += b.self_ns;
            a.calls += b.calls;
            true
        } else {
            false
        }
    });
    for n in &mut nodes {
        prefix.push(n.region);
        n.children = build_tree(paths, prefix);
        prefix.pop();
    }
    nodes
}

impl HostProfile {
    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.regions.iter().all(|r| r.calls == 0)
    }

    /// Total exclusive nanoseconds across all regions (the profiled
    /// share of host time).
    pub fn total_self_ns(&self) -> u64 {
        self.regions.iter().map(|r| r.self_ns).sum()
    }

    /// A fixed-width text table: region, calls, inclusive/exclusive
    /// milliseconds, and the exclusive share of profiled time.
    pub fn text_table(&self) -> String {
        let grand = self.total_self_ns().max(1);
        let mut out = String::new();
        out.push_str(&format!(
            "{:<16} {:>12} {:>12} {:>12} {:>7}\n",
            "region", "calls", "total_ms", "self_ms", "self%"
        ));
        for r in Region::ALL {
            let s = &self.regions[r.index()];
            if s.calls == 0 {
                continue;
            }
            out.push_str(&format!(
                "{:<16} {:>12} {:>12.3} {:>12.3} {:>6.1}%\n",
                r.name(),
                s.calls,
                s.total_ns as f64 / 1e6,
                s.self_ns as f64 / 1e6,
                100.0 * s.self_ns as f64 / grand as f64,
            ));
        }
        out
    }

    /// Collapsed (folded-stack) flamegraph lines: `a;b;c <self_ns>`,
    /// one per call path, loadable by standard flamegraph tooling.
    pub fn collapsed(&self) -> String {
        let mut out = String::new();
        for p in &self.paths {
            if p.self_ns == 0 && p.calls == 0 {
                continue;
            }
            let names: Vec<&str> = p.path.iter().map(|r| r.name()).collect();
            out.push_str(&format!("{} {}\n", names.join(";"), p.self_ns));
        }
        out
    }

    /// Chrome trace-event JSON (object form, loadable in Perfetto): the
    /// call-path tree synthesized as nested `X` events on one track —
    /// aggregate durations laid out on a synthetic timeline, children
    /// packed from their parent's start.
    pub fn chrome_trace(&self) -> String {
        let mut doc = ChromeDoc::new();
        doc.process_name(0, "host profile (aggregate)");
        let roots = build_tree(&self.paths, &mut Vec::new());
        let mut cursor = 0u64;
        for root in &roots {
            emit_chrome(root, cursor, &mut doc);
            cursor += root.total_ns();
        }
        doc.finish()
    }
}

fn emit_chrome(node: &TreeNode, start: u64, doc: &mut ChromeDoc) {
    doc.event(&format!(
        "{{\"name\":\"{}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":0,\"tid\":0,\
         \"args\":{{\"calls\":{},\"self_ns\":{}}}}}",
        node.region.name(),
        us(start),
        us(node.total_ns()),
        node.calls,
        node.self_ns,
    ));
    let mut cursor = start;
    for c in &node.children {
        emit_chrome(c, cursor, doc);
        cursor += c.total_ns();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The pool and thread flags are process-wide; tests that touch
    /// them serialize here so parallel test threads don't interleave.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn locked() -> std::sync::MutexGuard<'static, ()> {
        TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disabled_spans_record_nothing() {
        let _l = locked();
        reset();
        set_thread_enabled(false);
        {
            let _a = span(Region::EngineDispatch);
            let _b = span(Region::MemsysService);
        }
        flush_thread();
        assert!(take().is_empty());
    }

    #[test]
    fn nested_spans_split_self_and_child_time() {
        let _l = locked();
        reset();
        let scope = thread_scope(true);
        for _ in 0..10 {
            let _e = span(Region::EngineDispatch);
            {
                let _m = span(Region::MemsysService);
                // Innermost is an *unsampled* region so the self/total
                // arithmetic below is exact (Directory is sampled).
                let _d = span(Region::Trace);
            }
        }
        drop(scope); // flushes and disables
        let p = take();
        let e = p.regions[Region::EngineDispatch.index()];
        let m = p.regions[Region::MemsysService.index()];
        let d = p.regions[Region::Trace.index()];
        assert_eq!(e.calls, 10);
        assert_eq!(m.calls, 10);
        assert_eq!(d.calls, 10);
        // Inclusive time nests: parent >= child, self = total - children
        // (to within the +/-2ns truncation of per-accumulator raw->ns
        // conversion at flush).
        assert!(e.total_ns >= m.total_ns);
        assert!(m.total_ns >= d.total_ns);
        let near = |a: u64, b: u64| (a as i128 - b as i128).abs() <= 2;
        assert!(near(e.self_ns, e.total_ns - m.total_ns), "{e:?} vs {m:?}");
        assert!(near(m.self_ns, m.total_ns - d.total_ns), "{m:?} vs {d:?}");
        // Three call paths, outermost first.
        let paths: Vec<Vec<Region>> = p.paths.iter().map(|ps| ps.path.clone()).collect();
        assert!(paths.contains(&vec![Region::EngineDispatch]));
        assert!(paths.contains(&vec![Region::EngineDispatch, Region::MemsysService]));
        assert!(paths.contains(&vec![
            Region::EngineDispatch,
            Region::MemsysService,
            Region::Trace
        ]));
        assert!(!thread_enabled(), "scope drop disables the thread");
    }

    #[test]
    fn take_drains_the_pool() {
        let _l = locked();
        reset();
        {
            let _scope = thread_scope(true);
            let _s = span(Region::Trace);
        }
        let p = take();
        assert_eq!(p.regions[Region::Trace.index()].calls, 1);
        assert!(take().is_empty(), "take drains the pool");
    }

    #[test]
    fn exports_render_every_path() {
        let _l = locked();
        reset();
        {
            let _scope = thread_scope(true);
            let _e = span(Region::EngineDispatch);
            let _m = span(Region::MemsysService);
        }
        let p = take();
        let table = p.text_table();
        assert!(table.contains("engine_dispatch"), "{table}");
        assert!(table.contains("memsys_service"), "{table}");
        let folded = p.collapsed();
        assert!(
            folded.contains("engine_dispatch;memsys_service "),
            "{folded}"
        );
        let chrome = p.chrome_trace();
        assert!(chrome.starts_with("{\"traceEvents\":["), "{chrome}");
        assert!(chrome.contains("\"name\":\"engine_dispatch\""), "{chrome}");
        assert!(chrome.contains("\"name\":\"memsys_service\""), "{chrome}");
        assert!(chrome.ends_with("\"displayTimeUnit\":\"ns\"}"), "{chrome}");
    }

    #[test]
    fn deep_nesting_is_clamped_not_corrupted() {
        let _l = locked();
        reset();
        {
            let _scope = thread_scope(true);
            // Open more spans than MAX_DEPTH; the excess are inert.
            let _guards: Vec<SpanGuard> = (0..MAX_DEPTH + 3)
                .map(|_| span(Region::MemsysService))
                .collect();
        }
        let p = take();
        assert_eq!(
            p.regions[Region::MemsysService.index()].calls,
            MAX_DEPTH as u64
        );
    }

    #[test]
    fn sampled_region_counts_exactly_and_estimates_time() {
        let _l = locked();
        reset();
        let n = 130u64; // ticks 0..130: on-sample at 0, 64, 128.
        {
            let _scope = thread_scope(true);
            for _ in 0..n {
                let _d = span(Region::Directory);
            }
        }
        let p = take();
        let d = p.regions[Region::Directory.index()];
        assert_eq!(d.calls, n, "off-sample opens still count");
        assert!(d.total_ns > 0, "on-sample opens are timed");
        let path = p
            .paths
            .iter()
            .find(|ps| ps.path == vec![Region::Directory])
            .expect("sampled path recorded");
        // 3 timed closes, each standing in for 64 opens.
        assert_eq!(path.calls, 3 * 64, "path calls are scaled estimates");
    }
}
