//! Machine configuration.
//!
//! [`MachineConfig`] describes one concrete CC-NUMA machine: its size and
//! node structure, cache geometry, page size and placement policy, latency
//! profile, interconnect topology, process mapping, and synchronization
//! primitives. Presets reproduce the paper's machines
//! ([`MachineConfig::origin2000`]) and experiment variants build on them by
//! mutating fields.

use crate::error::ConfigError;
use crate::latency::LatencyProfile;
use crate::mapping::ProcessMapping;
use crate::sanitize::SanitizeConfig;
use crate::schedule::ScheduleConfig;
use crate::time::Ns;
use crate::topology::TopologyKind;
use crate::trace::TraceConfig;

/// Maximum number of simulated processors (directory sharer sets are `u128`).
pub const MAX_PROCS: usize = 128;

/// A 64-bit FNV-1a streaming hash — the dependency-free content hash
/// behind [`MachineConfig::stable_fingerprint`] and the sweep engine's
/// run keys. Unlike [`std::hash::DefaultHasher`], its output is pinned:
/// it will never change across Rust releases, so hashes can be persisted.
#[derive(Debug, Clone)]
pub struct Fnv1a(u64);

impl Fnv1a {
    /// The standard FNV-1a offset basis.
    pub fn new() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    /// Absorbs `bytes` into the hash.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The current hash value.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Self::new()
    }
}

/// Geometry of the per-processor second-level cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: usize,
    /// Set associativity (ways).
    pub assoc: usize,
    /// Line (block) size in bytes; also the coherence granularity.
    pub line_bytes: usize,
}

impl CacheConfig {
    /// The Origin2000's 4 MB, 2-way, 128-byte-line L2.
    pub fn origin2000() -> Self {
        CacheConfig {
            size_bytes: 4 << 20,
            assoc: 2,
            line_bytes: 128,
        }
    }

    /// A geometrically scaled-down cache (same associativity and line size)
    /// used by the experiment harnesses together with scaled problem sizes.
    pub fn scaled(size_bytes: usize) -> Self {
        CacheConfig {
            size_bytes,
            ..Self::origin2000()
        }
    }

    /// Number of sets.
    pub fn n_sets(&self) -> usize {
        self.size_bytes / (self.assoc * self.line_bytes)
    }
}

/// Default home-node policy for pages that were not explicitly placed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PagePlacement {
    /// A page's home is the node of the first processor to touch it
    /// (spilling to other nodes when the toucher's memory is full).
    FirstTouch,
    /// Pages are distributed round-robin across nodes.
    RoundRobin,
}

/// Dynamic page-migration policy (§6.2). When enabled, the simulator keeps
/// per-page, per-node access counters (as the Origin2000's protocol does)
/// and migrates a page to a remote node once that node's misses exceed the
/// home node's by `threshold`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MigrationConfig {
    /// Excess remote-access count that triggers migration.
    pub threshold: u32,
    /// Minimum interval between migrations of the same page, in accesses.
    pub cooldown: u32,
}

impl Default for MigrationConfig {
    fn default() -> Self {
        MigrationConfig {
            threshold: 64,
            cooldown: 256,
        }
    }
}

/// Lock algorithm + primitive (§6.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LockImpl {
    /// Ticket lock built from LL/SC (the paper's default choice).
    TicketLlsc,
    /// Ticket lock built on the Hub's at-memory uncached fetch&op.
    TicketFetchOp,
}

/// Barrier algorithm + primitive (§6.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BarrierImpl {
    /// Tournament barrier using LL/SC flags (the paper's default choice).
    TournamentLlsc,
    /// Centralized counter barrier using LL/SC (arrivals serialize on one
    /// cache line).
    CentralLlsc,
    /// Centralized counter barrier using at-memory fetch&op.
    CentralFetchOp,
}

/// Conversion factors from abstract work units to busy nanoseconds.
///
/// Applications charge computation through [`crate::ctx::Ctx::compute_flops`]
/// and friends; this model converts counts to time so that sequential
/// execution times land in plausible regimes for a 195 MHz R10000.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CostModel {
    /// Nanoseconds per floating-point operation.
    pub flop_ns: Ns,
    /// Nanoseconds per integer/pointer operation.
    pub int_op_ns: Ns,
    /// Fixed overhead charged per function-call-ish unit of work, used by
    /// irregular applications for traversal steps.
    pub step_ns: Ns,
}

impl Default for CostModel {
    fn default() -> Self {
        // ~5 cycles per algorithmic flop and ~2 per integer op: calibrated
        // against the paper's Table-2 sequential times (e.g. FFT 2²⁰ at
        // 2.63 s ⇒ ≈25 ns per 5·n·log₂n flop), which fold address
        // arithmetic, loads/stores and pipeline stalls into the counts.
        CostModel {
            flop_ns: 25,
            int_op_ns: 10,
            step_ns: 30,
        }
    }
}

/// Complete description of a simulated machine.
///
/// Construct via a preset and adjust fields:
///
/// ```
/// use ccnuma_sim::config::MachineConfig;
/// let mut cfg = MachineConfig::origin2000(32);
/// cfg.prefetch_enabled = true;
/// cfg.validate().unwrap();
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct MachineConfig {
    /// Number of application processes / simulated processors.
    pub nprocs: usize,
    /// Processors per node sharing a Hub (Origin: 2; §7.2 studies 1).
    pub procs_per_node: usize,
    /// Nodes attached to each router (Origin: 2).
    pub nodes_per_router: usize,
    /// L2 cache geometry.
    pub cache: CacheConfig,
    /// Virtual-memory page size in bytes (Origin: 16 KB).
    pub page_bytes: usize,
    /// Main memory capacity per node in bytes. First-touch placement spills
    /// past this limit, reproducing the Ocean superlinearity effect (§4.1).
    pub mem_per_node_bytes: usize,
    /// Latency and occupancy parameters.
    pub latency: LatencyProfile,
    /// Interconnect shape; `None` selects the Origin default for the size
    /// (full hypercube up to 16 routers, 8-router metarouter modules above).
    pub topology: Option<TopologyKind>,
    /// Assignment of processes to physical processors.
    pub mapping: ProcessMapping,
    /// Default placement policy for unplaced pages.
    pub placement: PagePlacement,
    /// Dynamic page migration, if enabled.
    pub migration: Option<MigrationConfig>,
    /// Lock implementation.
    pub lock_impl: LockImpl,
    /// Barrier implementation.
    pub barrier_impl: BarrierImpl,
    /// Whether applications should issue software prefetches (§6.1).
    /// Applications consult this flag; prefetch calls are no-ops when false.
    pub prefetch_enabled: bool,
    /// Classify misses into cold / coherence / capacity (the tooling the
    /// paper's authors lacked). Costs extra host memory per touched line;
    /// off by default.
    pub classify_misses: bool,
    /// Computation cost model.
    pub cost: CostModel,
    /// Time-resolved event tracing (off by default; see
    /// [`TraceConfig`]).
    pub trace: TraceConfig,
    /// Happens-before race detection, lock-order analysis and
    /// synchronization lints (off by default; see
    /// [`SanitizeConfig`]).
    pub sanitize: SanitizeConfig,
    /// Critical-path profiling (off by default; see [`crate::critpath`]).
    /// Captures the run's happens-before dependency structure and reports
    /// what the longest path is made of, plus what-if speedup projections.
    /// Observer-passive: never changes simulated timing or statistics.
    pub critpath: bool,
    /// Seeded schedule perturbation (off by default; see
    /// [`crate::schedule`]). Unlike the observational knobs above, a set
    /// schedule *changes* the run's results — it joins
    /// [`MachineConfig::stable_fields`], but only when set, so existing
    /// fingerprints stay valid.
    pub schedule: Option<ScheduleConfig>,
}

impl MachineConfig {
    /// An SGI Origin2000 with `nprocs` processors and the paper's default
    /// settings (manual placement falls back to first-touch; ticket lock and
    /// tournament barrier on LL/SC; no prefetch; no migration).
    pub fn origin2000(nprocs: usize) -> Self {
        MachineConfig {
            nprocs,
            procs_per_node: 2,
            nodes_per_router: 2,
            cache: CacheConfig::origin2000(),
            page_bytes: 16 << 10,
            mem_per_node_bytes: 512 << 20,
            latency: LatencyProfile::origin2000(),
            topology: None,
            mapping: ProcessMapping::Linear,
            placement: PagePlacement::FirstTouch,
            migration: None,
            lock_impl: LockImpl::TicketLlsc,
            barrier_impl: BarrierImpl::TournamentLlsc,
            prefetch_enabled: false,
            classify_misses: false,
            cost: CostModel::default(),
            trace: TraceConfig::default(),
            sanitize: SanitizeConfig::default(),
            critpath: false,
            schedule: None,
        }
    }

    /// A scaled-down Origin2000 for fast experimentation: `cache_bytes` L2,
    /// 1 KB pages, and the memory system sped up by the square root of the
    /// cache-scale factor, everything else as [`MachineConfig::origin2000`].
    ///
    /// Problem sizes in the experiment harnesses shrink together with the
    /// cache. For near-neighbour applications, communication scales with
    /// partition *surface* while computation scales with *volume*, so a
    /// 1/k cache-and-problem scale inflates communication-to-computation
    /// by about √k; dividing all latencies by √k restores the paper's
    /// regimes (synchronization costs scale with them automatically).
    pub fn origin2000_scaled(nprocs: usize, cache_bytes: usize) -> Self {
        let full = CacheConfig::origin2000().size_bytes;
        let k = (full / cache_bytes.max(1)).max(1) as u64;
        let sqrt_k = (k as f64).sqrt().round().max(1.0) as u64;
        MachineConfig {
            cache: CacheConfig::scaled(cache_bytes),
            page_bytes: 1 << 10,
            mem_per_node_bytes: cache_bytes * 128,
            latency: LatencyProfile::origin2000().scaled_by(sqrt_k),
            ..Self::origin2000(nprocs)
        }
    }

    /// A shared-virtual-memory cluster of `nprocs` uniprocessor
    /// workstations (§5.2 of the paper, machinery of \[6\]): coherence at
    /// *page* granularity (the line size equals the page size), remote data
    /// replicated in main memory (the "cache" is DRAM-sized, so capacity
    /// evictions of replicated pages are rare), software-handler latencies,
    /// and very expensive synchronization.
    pub fn svm_cluster(nprocs: usize) -> Self {
        MachineConfig {
            nprocs,
            procs_per_node: 1,
            nodes_per_router: 2,
            cache: CacheConfig {
                size_bytes: 64 << 20,
                assoc: 2,
                line_bytes: 4 << 10,
            },
            page_bytes: 4 << 10,
            mem_per_node_bytes: 256 << 20,
            latency: LatencyProfile::svm_cluster(),
            topology: Some(TopologyKind::Ideal),
            mapping: ProcessMapping::Linear,
            placement: PagePlacement::FirstTouch,
            migration: None,
            lock_impl: LockImpl::TicketLlsc,
            barrier_impl: BarrierImpl::CentralLlsc,
            prefetch_enabled: false,
            classify_misses: false,
            cost: CostModel::default(),
            trace: TraceConfig::default(),
            sanitize: SanitizeConfig::default(),
            critpath: false,
            schedule: None,
        }
    }

    /// Number of nodes.
    pub fn n_nodes(&self) -> usize {
        self.nprocs.div_ceil(self.procs_per_node)
    }

    /// The topology kind in effect (resolving the `None` default).
    pub fn topology_kind(&self) -> TopologyKind {
        self.topology.unwrap_or_else(|| {
            let routers = self.n_nodes().div_ceil(self.nodes_per_router);
            if routers <= 16 {
                TopologyKind::FullHypercube
            } else {
                TopologyKind::MetaModules {
                    routers_per_module: 8,
                }
            }
        })
    }

    /// The semantically relevant fields of this configuration as sorted
    /// `key=value` lines — the canonical form behind
    /// [`MachineConfig::stable_fingerprint`].
    ///
    /// Everything that can change a run's *results* is included: machine
    /// shape, cache geometry, paging, latencies, topology, mapping,
    /// placement/migration, synchronization primitives, prefetch, miss
    /// classification (it adds counters to the stats), and the cost model.
    /// Tracing, sanitizing and critical-path profiling are excluded —
    /// they observe a run without perturbing it. A set
    /// [`MachineConfig::schedule`] *is* included (it changes results),
    /// but only when set, so unset-schedule fingerprints are unchanged.
    pub fn stable_fields(&self) -> Vec<(String, String)> {
        let l = &self.latency;
        let mut kv: Vec<(String, String)> = vec![
            ("nprocs".into(), self.nprocs.to_string()),
            ("procs_per_node".into(), self.procs_per_node.to_string()),
            ("nodes_per_router".into(), self.nodes_per_router.to_string()),
            ("cache.size_bytes".into(), self.cache.size_bytes.to_string()),
            ("cache.assoc".into(), self.cache.assoc.to_string()),
            ("cache.line_bytes".into(), self.cache.line_bytes.to_string()),
            ("page_bytes".into(), self.page_bytes.to_string()),
            (
                "mem_per_node_bytes".into(),
                self.mem_per_node_bytes.to_string(),
            ),
            ("latency.name".into(), l.name.to_string()),
            ("latency.l2_hit_ns".into(), l.l2_hit_ns.to_string()),
            ("latency.local_ns".into(), l.local_ns.to_string()),
            (
                "latency.remote_clean_ns".into(),
                l.remote_clean_ns.to_string(),
            ),
            (
                "latency.remote_dirty_ns".into(),
                l.remote_dirty_ns.to_string(),
            ),
            ("latency.link_ns".into(), l.link_ns.to_string()),
            ("latency.metarouter_ns".into(), l.metarouter_ns.to_string()),
            ("latency.hub_occ_ns".into(), l.hub_occ_ns.to_string()),
            ("latency.mem_occ_ns".into(), l.mem_occ_ns.to_string()),
            ("latency.router_occ_ns".into(), l.router_occ_ns.to_string()),
            (
                "latency.metarouter_occ_ns".into(),
                l.metarouter_occ_ns.to_string(),
            ),
            ("latency.inval_ns".into(), l.inval_ns.to_string()),
            ("latency.llsc_extra_ns".into(), l.llsc_extra_ns.to_string()),
            ("latency.fetchop_ns".into(), l.fetchop_ns.to_string()),
            (
                "latency.prefetch_issue_ns".into(),
                l.prefetch_issue_ns.to_string(),
            ),
            (
                "latency.page_migrate_ns".into(),
                l.page_migrate_ns.to_string(),
            ),
            ("topology".into(), format!("{:?}", self.topology_kind())),
            ("mapping".into(), format!("{:?}", self.mapping)),
            ("placement".into(), format!("{:?}", self.placement)),
            ("migration".into(), format!("{:?}", self.migration)),
            ("lock_impl".into(), format!("{:?}", self.lock_impl)),
            ("barrier_impl".into(), format!("{:?}", self.barrier_impl)),
            ("prefetch_enabled".into(), self.prefetch_enabled.to_string()),
            ("classify_misses".into(), self.classify_misses.to_string()),
            ("cost.flop_ns".into(), self.cost.flop_ns.to_string()),
            ("cost.int_op_ns".into(), self.cost.int_op_ns.to_string()),
            ("cost.step_ns".into(), self.cost.step_ns.to_string()),
        ];
        // Only when set: an unset schedule contributes nothing, so every
        // fingerprint computed before the field existed stays valid.
        if let Some(s) = &self.schedule {
            kv.push(("schedule".into(), format!("{s:?}")));
        }
        kv.sort();
        kv
    }

    /// A stable content fingerprint of the configuration: a 64-bit FNV-1a
    /// hash over the sorted `key=value` lines of
    /// [`MachineConfig::stable_fields`], rendered as 16 hex digits.
    ///
    /// Because the lines are sorted by key before hashing, the fingerprint
    /// is a pure function of the *set* of field values — reordering the
    /// struct's declaration (or this method's pushes) cannot change it.
    /// Result caches (the `sweep` engine's JSONL store) key on this.
    pub fn stable_fingerprint(&self) -> String {
        let mut h = Fnv1a::new();
        for (k, v) in self.stable_fields() {
            h.update(k.as_bytes());
            h.update(b"=");
            h.update(v.as_bytes());
            h.update(b"\n");
        }
        format!("{:016x}", h.finish())
    }

    /// Checks the configuration for consistency.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] if any field is out of range (zero sizes,
    /// more than [`MAX_PROCS`] processors, non-power-of-two geometry, or an
    /// invalid process mapping).
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.nprocs == 0 || self.nprocs > MAX_PROCS {
            return Err(ConfigError::BadProcCount(self.nprocs));
        }
        if self.procs_per_node == 0 || self.nodes_per_router == 0 {
            return Err(ConfigError::BadNodeShape);
        }
        if !self.page_bytes.is_power_of_two() || !self.cache.line_bytes.is_power_of_two() {
            return Err(ConfigError::NotPowerOfTwo);
        }
        if self.page_bytes < self.cache.line_bytes {
            return Err(ConfigError::PageSmallerThanLine);
        }
        if self.cache.assoc == 0
            || self.cache.size_bytes == 0
            || !self
                .cache
                .size_bytes
                .is_multiple_of(self.cache.assoc * self.cache.line_bytes)
            || !self.cache.n_sets().is_power_of_two()
        {
            return Err(ConfigError::BadCacheGeometry);
        }
        if self.mem_per_node_bytes < self.page_bytes {
            return Err(ConfigError::BadMemoryCapacity);
        }
        self.mapping
            .resolve(self.nprocs, self.procs_per_node)
            .map_err(ConfigError::BadMapping)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn origin_presets_validate() {
        for p in [1, 2, 17, 32, 64, 96, 128] {
            MachineConfig::origin2000(p).validate().unwrap();
            MachineConfig::origin2000_scaled(p, 64 << 10)
                .validate()
                .unwrap();
        }
    }

    #[test]
    fn topology_defaults_switch_at_scale() {
        assert_eq!(
            MachineConfig::origin2000(64).topology_kind(),
            TopologyKind::FullHypercube
        );
        assert_eq!(
            MachineConfig::origin2000(128).topology_kind(),
            TopologyKind::MetaModules {
                routers_per_module: 8
            }
        );
        assert_eq!(
            MachineConfig::origin2000(96).topology_kind(),
            TopologyKind::MetaModules {
                routers_per_module: 8
            }
        );
    }

    #[test]
    fn validation_rejects_bad_shapes() {
        let mut c = MachineConfig::origin2000(0);
        assert!(c.validate().is_err());
        c = MachineConfig::origin2000(129);
        assert!(c.validate().is_err());
        c = MachineConfig::origin2000(4);
        c.page_bytes = 100; // not a power of two
        assert!(c.validate().is_err());
        c = MachineConfig::origin2000(4);
        c.page_bytes = 64; // smaller than the 128-byte line
        assert!(c.validate().is_err());
        c = MachineConfig::origin2000(4);
        c.cache.assoc = 0;
        assert!(c.validate().is_err());
        c = MachineConfig::origin2000(4);
        c.cache.size_bytes = 3 << 20; // 3 MB 2-way/128B → 12288 sets, not pow2
        assert!(c.validate().is_err());
    }

    #[test]
    fn validation_rejects_bad_mapping() {
        let mut c = MachineConfig::origin2000(4);
        c.mapping = crate::mapping::ProcessMapping::Explicit(vec![0, 0, 1, 2]);
        assert!(c.validate().is_err());
    }

    #[test]
    fn svm_cluster_preset_validates_and_is_page_grained() {
        for np in [1, 8, 16] {
            let cfg = MachineConfig::svm_cluster(np);
            cfg.validate().unwrap();
            assert_eq!(
                cfg.cache.line_bytes, cfg.page_bytes,
                "SVM coherence is page-grained"
            );
            assert_eq!(cfg.procs_per_node, 1, "uniprocessor workstations");
            // Software handlers: orders of magnitude above hardware DSM.
            assert!(
                cfg.latency.remote_clean_ns > 50 * LatencyProfile::origin2000().remote_clean_ns
            );
        }
    }

    #[test]
    fn stable_fingerprint_tracks_semantic_fields_only() {
        let a = MachineConfig::origin2000(8);
        let mut b = MachineConfig::origin2000(8);
        assert_eq!(a.stable_fingerprint(), b.stable_fingerprint());
        // Tracing is observational: it must not change the fingerprint.
        b.trace = crate::trace::TraceConfig::on();
        assert_eq!(a.stable_fingerprint(), b.stable_fingerprint());
        // So is sanitizing: it never charges virtual time.
        b.sanitize = crate::sanitize::SanitizeConfig::on();
        assert_eq!(a.stable_fingerprint(), b.stable_fingerprint());
        b.critpath = true;
        assert_eq!(a.stable_fingerprint(), b.stable_fingerprint());
        // Schedule perturbation changes results: it must change the
        // fingerprint, and different seeds/modes must differ.
        let mut s1 = MachineConfig::origin2000(8);
        s1.schedule = Some(crate::schedule::ScheduleConfig::random(1));
        let mut s2 = MachineConfig::origin2000(8);
        s2.schedule = Some(crate::schedule::ScheduleConfig::random(2));
        let mut s3 = MachineConfig::origin2000(8);
        s3.schedule = Some(crate::schedule::ScheduleConfig::pct(1, 8));
        assert_ne!(a.stable_fingerprint(), s1.stable_fingerprint());
        assert_ne!(s1.stable_fingerprint(), s2.stable_fingerprint());
        assert_ne!(s1.stable_fingerprint(), s3.stable_fingerprint());
        // Anything that changes results must change the fingerprint.
        for (i, mutate) in [
            (&|c: &mut MachineConfig| c.nprocs = 16) as &dyn Fn(&mut MachineConfig),
            &|c| c.cache.size_bytes = 1 << 20,
            &|c| c.prefetch_enabled = true,
            &|c| c.classify_misses = true,
            &|c| c.placement = PagePlacement::RoundRobin,
            &|c| c.migration = Some(MigrationConfig::default()),
            &|c| c.lock_impl = LockImpl::TicketFetchOp,
            &|c| c.cost.flop_ns = 1,
        ]
        .iter()
        .enumerate()
        {
            let mut m = MachineConfig::origin2000(8);
            mutate(&mut m);
            assert_ne!(
                a.stable_fingerprint(),
                m.stable_fingerprint(),
                "mutation {i} did not change the fingerprint"
            );
        }
    }

    #[test]
    fn stable_fields_are_sorted_and_fnv_is_pinned() {
        let fields = MachineConfig::origin2000(8).stable_fields();
        let keys: Vec<&String> = fields.iter().map(|(k, _)| k).collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted, "stable_fields must come out sorted");
        // The FNV-1a constants are pinned forever: hashes are persisted in
        // sweep result stores across sessions and toolchains.
        let mut h = Fnv1a::new();
        h.update(b"hello");
        assert_eq!(h.finish(), 0xa430_d846_80aa_bd0b);
        assert_eq!(Fnv1a::new().finish(), 0xcbf2_9ce4_8422_2325);
    }

    #[test]
    fn unset_schedule_keeps_the_historical_fingerprint() {
        // Pinned from before the `schedule` field existed: an unset
        // schedule must hash to the exact fingerprint older stores hold.
        assert_eq!(
            MachineConfig::origin2000(8).stable_fingerprint(),
            "6970d5c91ddd77d5"
        );
    }

    #[test]
    fn node_count_rounds_up() {
        assert_eq!(MachineConfig::origin2000(5).n_nodes(), 3);
        let mut c = MachineConfig::origin2000(8);
        c.procs_per_node = 1;
        assert_eq!(c.n_nodes(), 8);
    }

    #[test]
    fn cache_set_count() {
        assert_eq!(CacheConfig::origin2000().n_sets(), 16384);
        assert_eq!(CacheConfig::scaled(64 << 10).n_sets(), 256);
    }
}
