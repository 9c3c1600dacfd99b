//! Running workloads on simulated machines with cached sequential
//! baselines — the measurement harness of the study.

use std::collections::HashMap;

use ccnuma_sim::config::MachineConfig;
use ccnuma_sim::critpath::CritReport;
use ccnuma_sim::error::SimError;
use ccnuma_sim::machine::Machine;
use ccnuma_sim::sanitize::SanitizeReport;
use ccnuma_sim::stats::RunStats;
use ccnuma_sim::time::Ns;
use ccnuma_sim::trace::{Trace, TraceConfig};
use splash_apps::common::Workload;

use crate::metrics;

/// An error while running a study measurement.
#[derive(Debug)]
#[non_exhaustive]
pub enum StudyError {
    /// The simulation failed (configuration, deadlock, panic).
    Sim(SimError),
    /// The workload ran but produced a wrong result.
    Verify(String),
}

impl std::fmt::Display for StudyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StudyError::Sim(e) => write!(f, "simulation failed: {e}"),
            StudyError::Verify(msg) => write!(f, "result verification failed: {msg}"),
        }
    }
}

impl std::error::Error for StudyError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StudyError::Sim(e) => Some(e),
            StudyError::Verify(_) => None,
        }
    }
}

impl From<SimError> for StudyError {
    fn from(e: SimError) -> Self {
        StudyError::Sim(e)
    }
}

/// One verified measurement.
#[derive(Debug, Clone)]
pub struct RunRecord {
    /// Workload name (e.g. `"fft"`, `"barnes/merge"`).
    pub app: String,
    /// Problem description (e.g. `"2^14 points"`).
    pub problem: String,
    /// Processors used.
    pub nprocs: usize,
    /// Parallel wall-clock (virtual ns).
    pub wall_ns: Ns,
    /// Sequential baseline wall-clock (virtual ns).
    pub seq_ns: Ns,
    /// Full per-processor statistics of the parallel run.
    pub stats: RunStats,
}

impl RunRecord {
    /// Speedup over the sequential baseline.
    pub fn speedup(&self) -> f64 {
        metrics::speedup(self.seq_ns, self.wall_ns)
    }

    /// Parallel efficiency (speedup / processors).
    pub fn efficiency(&self) -> f64 {
        metrics::efficiency(self.seq_ns, self.wall_ns, self.nprocs)
    }
}

/// The measurement harness: builds machines, runs workloads, verifies
/// results, and caches sequential baselines per (workload name, problem,
/// [`sequential_config`] fingerprint).
#[derive(Debug)]
pub struct Runner {
    /// Cache size of the scaled machine (see
    /// [`MachineConfig::origin2000_scaled`]).
    cache_bytes: usize,
    baselines: HashMap<(String, String, String), Ns>,
    /// When set, parallel runs are traced with this configuration and the
    /// resulting traces collected in [`Runner::traces`].
    trace: Option<TraceConfig>,
    traces: Vec<(String, Trace)>,
    /// When true, parallel runs classify misses and each run's attribution
    /// JSON is collected in `attribs`.
    attrib: bool,
    attribs: Vec<(String, String)>,
    /// When true, parallel runs race-check their event stream and each
    /// run's [`SanitizeReport`] is collected in `sanitizes`.
    sanitize: bool,
    sanitizes: Vec<(String, SanitizeReport)>,
    /// When true, parallel runs profile their critical path and each
    /// run's [`CritReport`] is collected in `critpaths`.
    critpath: bool,
    critpaths: Vec<(String, CritReport)>,
    /// When set, parallel runs execute under the seeded schedule
    /// perturbation; sequential baselines always stay unperturbed.
    schedule_seed: Option<u64>,
}

impl Runner {
    /// A runner whose machines use `cache_bytes` of L2 per processor.
    pub fn new(cache_bytes: usize) -> Self {
        Runner {
            cache_bytes,
            baselines: HashMap::new(),
            trace: None,
            traces: Vec::new(),
            attrib: false,
            attribs: Vec::new(),
            sanitize: false,
            sanitizes: Vec::new(),
            critpath: false,
            critpaths: Vec::new(),
            schedule_seed: None,
        }
    }

    /// Enables (or, with `None`, disables) event tracing of parallel runs.
    /// Each traced run's [`Trace`] is collected under a
    /// `"app/problem/NNp"` label; drain them with [`Runner::take_traces`].
    /// Sequential baseline runs are never traced.
    pub fn set_trace(&mut self, trace: Option<TraceConfig>) {
        self.trace = trace;
    }

    /// Whether event tracing of parallel runs is currently enabled.
    pub fn trace_enabled(&self) -> bool {
        self.trace.is_some()
    }

    /// The traces collected so far, labelled `"app/problem/NNp"`, without
    /// draining them.
    pub fn traces(&self) -> &[(String, Trace)] {
        &self.traces
    }

    /// Takes the traces collected so far, labelled `"app/problem/NNp"`.
    pub fn take_traces(&mut self) -> Vec<(String, Trace)> {
        std::mem::take(&mut self.traces)
    }

    /// Enables (or disables) miss-classification and stall attribution of
    /// parallel runs. While enabled, every parallel run forces
    /// [`MachineConfig::classify_misses`] and its attribution JSON (see
    /// [`crate::report::attrib_json`]) is collected under an
    /// `"app/problem/NNp"` label; drain them with [`Runner::take_attribs`].
    pub fn set_attrib(&mut self, on: bool) {
        self.attrib = on;
    }

    /// Whether stall attribution of parallel runs is currently enabled.
    pub fn attrib_enabled(&self) -> bool {
        self.attrib
    }

    /// Takes the attribution JSON documents collected so far, labelled
    /// `"app/problem/NNp"`.
    pub fn take_attribs(&mut self) -> Vec<(String, String)> {
        std::mem::take(&mut self.attribs)
    }

    /// Enables (or disables) happens-before sanitizing of parallel runs.
    /// While enabled, every parallel run forces
    /// [`MachineConfig::sanitize`] on and the resulting
    /// [`SanitizeReport`] is collected under an `"app/problem/NNp"`
    /// label; drain them with [`Runner::take_sanitizes`]. Sanitizing is
    /// observational: it never changes simulated timing.
    pub fn set_sanitize(&mut self, on: bool) {
        self.sanitize = on;
    }

    /// Whether happens-before sanitizing of parallel runs is enabled.
    pub fn sanitize_enabled(&self) -> bool {
        self.sanitize
    }

    /// Takes the sanitize reports collected so far, labelled
    /// `"app/problem/NNp"`.
    pub fn take_sanitizes(&mut self) -> Vec<(String, SanitizeReport)> {
        std::mem::take(&mut self.sanitizes)
    }

    /// Enables (or disables) critical-path profiling of parallel runs.
    /// While enabled, every parallel run forces
    /// [`MachineConfig::critpath`] on and the resulting [`CritReport`]
    /// is collected under an `"app/problem/NNp"` label; drain them with
    /// [`Runner::take_critpaths`]. Profiling is observational: it never
    /// changes simulated timing.
    pub fn set_critpath(&mut self, on: bool) {
        self.critpath = on;
    }

    /// Whether critical-path profiling of parallel runs is enabled.
    pub fn critpath_enabled(&self) -> bool {
        self.critpath
    }

    /// Takes the critical-path reports collected so far, labelled
    /// `"app/problem/NNp"`.
    pub fn take_critpaths(&mut self) -> Vec<(String, CritReport)> {
        std::mem::take(&mut self.critpaths)
    }

    /// Sets (or, with `None`, clears) the schedule-perturbation seed.
    /// While set, every parallel run executes under
    /// [`ScheduleConfig::random`](ccnuma_sim::schedule::ScheduleConfig::random)
    /// with this seed — a different but bit-reproducible interleaving.
    /// Sequential baselines are never perturbed: speedups stay measured
    /// against the one unperturbed denominator.
    pub fn set_schedule_seed(&mut self, seed: Option<u64>) {
        self.schedule_seed = seed;
    }

    /// The schedule-perturbation seed currently applied to parallel runs.
    pub fn schedule_seed(&self) -> Option<u64> {
        self.schedule_seed
    }

    /// The default scaled machine configuration for `nprocs` processors.
    pub fn machine_for(&self, nprocs: usize) -> MachineConfig {
        MachineConfig::origin2000_scaled(nprocs, self.cache_bytes)
    }

    /// Runs `workload` on a machine configured by `cfg`, verifying the
    /// result.
    ///
    /// # Errors
    ///
    /// Returns [`StudyError::Sim`] on simulation failure and
    /// [`StudyError::Verify`] if the computed result is wrong.
    pub fn run_on(
        &mut self,
        workload: &dyn Workload,
        cfg: MachineConfig,
    ) -> Result<RunRecord, StudyError> {
        let seq_ns = self.sequential_ns(workload, &cfg)?;
        let mut cfg = cfg;
        if let Some(tc) = &self.trace {
            cfg.trace = tc.clone();
        }
        if self.attrib {
            cfg.classify_misses = true;
        }
        if self.sanitize {
            cfg.sanitize.enabled = true;
        }
        if self.critpath {
            cfg.critpath = true;
        }
        if let Some(seed) = self.schedule_seed {
            cfg.schedule = Some(ccnuma_sim::schedule::ScheduleConfig::random(seed));
        }
        let (wall_ns, mut stats) = Self::execute(workload, cfg.clone())?;
        let label = format!("{}/{}/{}p", workload.name(), workload.problem(), cfg.nprocs);
        if let Some(trace) = stats.trace.take() {
            self.traces.push((label.clone(), trace));
        }
        if self.attrib {
            let json = crate::report::attrib_json(&label, &stats);
            self.attribs.push((label.clone(), json));
        }
        if let Some(rep) = stats.sanitize.clone() {
            self.sanitizes.push((label.clone(), rep));
        }
        if let Some(rep) = stats.critpath.clone() {
            self.critpaths.push((label, rep));
        }
        Ok(RunRecord {
            app: workload.name(),
            problem: workload.problem(),
            nprocs: cfg.nprocs,
            wall_ns,
            seq_ns,
            stats,
        })
    }

    /// Runs `workload` on the default scaled machine with `nprocs`
    /// processors.
    ///
    /// # Errors
    ///
    /// As [`Runner::run_on`].
    pub fn run(&mut self, workload: &dyn Workload, nprocs: usize) -> Result<RunRecord, StudyError> {
        self.run_on(workload, self.machine_for(nprocs))
    }

    /// The cached sequential (1-processor) baseline for `workload` on a
    /// machine like `cfg`, run on [`sequential_config`]`(cfg)`.
    ///
    /// # Errors
    ///
    /// As [`Runner::run_on`].
    pub fn sequential_ns(
        &mut self,
        workload: &dyn Workload,
        cfg: &MachineConfig,
    ) -> Result<Ns, StudyError> {
        let seq_cfg = sequential_config(cfg);
        let key = (
            workload.name(),
            workload.problem(),
            seq_cfg.stable_fingerprint(),
        );
        if let Some(&ns) = self.baselines.get(&key) {
            return Ok(ns);
        }
        let (ns, _) = Self::execute(workload, seq_cfg)?;
        self.baselines.insert(key, ns);
        Ok(ns)
    }

    fn execute(workload: &dyn Workload, cfg: MachineConfig) -> Result<(Ns, RunStats), StudyError> {
        execute_workload(workload, cfg)
    }
}

/// The machine a sequential baseline for `cfg` runs on: one processor,
/// linearly mapped, with no schedule perturbation (the baseline is the one
/// unperturbed denominator every seed of a cell shares) and no observers
/// (they never change its time). Baseline caches key on the workload's
/// name and problem and this config's
/// [`stable_fingerprint`](MachineConfig::stable_fingerprint), which
/// covers everything else that can change a uniprocessor run.
pub fn sequential_config(cfg: &MachineConfig) -> MachineConfig {
    let mut seq = cfg.clone();
    seq.nprocs = 1;
    seq.mapping = ccnuma_sim::mapping::ProcessMapping::Linear;
    seq.schedule = None;
    seq.trace.enabled = false;
    seq.sanitize.enabled = false;
    seq.critpath = false;
    seq
}

/// Runs `workload` once on a machine configured by `cfg`, verifying the
/// computed result, and returns the wall-clock and full statistics.
///
/// This is the stateless core of [`Runner::run_on`] — it needs no `&mut
/// Runner`, holds no caches, and everything it touches is plain data, so
/// parallel drivers (the `sweep` engine) can call it concurrently from
/// many host threads, constructing the workload inside each worker.
///
/// # Errors
///
/// Returns [`StudyError::Sim`] on simulation failure and
/// [`StudyError::Verify`] if the computed result is wrong.
pub fn execute_workload(
    workload: &dyn Workload,
    cfg: MachineConfig,
) -> Result<(Ns, RunStats), StudyError> {
    let mut machine = Machine::new(cfg)?;
    let job = workload.build(&mut machine);
    let body = job.body;
    let stats = machine.run(move |ctx| body(ctx))?;
    (job.verify)().map_err(StudyError::Verify)?;
    Ok((stats.wall_ns, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use splash_apps::fft::Fft;
    use splash_apps::sor::Sor;

    #[test]
    fn run_produces_sane_speedup() {
        let mut r = Runner::new(64 << 10);
        let rec = r.run(&Fft::new(14), 8).unwrap();
        assert!(rec.speedup() > 1.5, "speedup {}", rec.speedup());
        assert!(rec.efficiency() <= 1.5);
        assert_eq!(rec.nprocs, 8);
        assert_eq!(rec.app, "fft");
    }

    #[test]
    fn baselines_are_cached() {
        let mut r = Runner::new(64 << 10);
        let w = Sor::new(16);
        let cfg = r.machine_for(4);
        let a = r.sequential_ns(&w, &cfg).unwrap();
        let before = r.baselines.len();
        let b = r.sequential_ns(&w, &cfg).unwrap();
        assert_eq!(a, b);
        assert_eq!(r.baselines.len(), before);
    }

    #[test]
    fn different_machines_get_different_baselines() {
        let mut r = Runner::new(64 << 10);
        let w = Sor::new(16);
        let cfg_a = r.machine_for(4);
        let mut cfg_b = cfg_a.clone();
        cfg_b.cache = ccnuma_sim::config::CacheConfig::scaled(16 << 10);
        r.sequential_ns(&w, &cfg_a).unwrap();
        r.sequential_ns(&w, &cfg_b).unwrap();
        assert_eq!(r.baselines.len(), 2);
    }

    #[test]
    fn cost_model_is_part_of_the_baseline_key() {
        let mut r = Runner::new(64 << 10);
        let w = Sor::new(16);
        let cfg_a = r.machine_for(4);
        let mut cfg_b = cfg_a.clone();
        cfg_b.cost.flop_ns = 1;
        let a = r.sequential_ns(&w, &cfg_a).unwrap();
        let b = r.sequential_ns(&w, &cfg_b).unwrap();
        assert_eq!(r.baselines.len(), 2);
        assert!(
            b < a,
            "a cheaper flop must shorten the baseline: {b} vs {a}"
        );
    }

    #[test]
    fn attrib_collects_labelled_json() {
        let mut r = Runner::new(64 << 10);
        assert!(!r.attrib_enabled());
        r.set_attrib(true);
        let w = Sor::new(16);
        r.run(&w, 4).unwrap();
        let attribs = r.take_attribs();
        assert_eq!(attribs.len(), 1);
        let (label, json) = &attribs[0];
        assert!(
            label.starts_with("sor/") && label.ends_with("/4p"),
            "{label}"
        );
        assert!(json.contains("\"version\": 1"));
        assert!(json.contains("\"resources\""));
        // Classification was forced on: the causes section carries counts.
        assert!(json.contains("\"cold\""), "{json}");
        // Drained: a second take returns nothing.
        assert!(r.take_attribs().is_empty());
    }

    #[test]
    fn verification_failures_surface() {
        use splash_apps::common::Job;
        struct Broken;
        impl Workload for Broken {
            fn name(&self) -> String {
                "broken".into()
            }
            fn problem(&self) -> String {
                "n/a".into()
            }
            fn build(&self, _m: &mut Machine) -> Job {
                Job::new(|_ctx| {}, || Err("intentionally wrong".into()))
            }
        }
        let mut r = Runner::new(64 << 10);
        match r.run(&Broken, 2) {
            Err(StudyError::Verify(msg)) => assert!(msg.contains("intentionally")),
            other => panic!("expected verify error, got {other:?}"),
        }
    }
}
