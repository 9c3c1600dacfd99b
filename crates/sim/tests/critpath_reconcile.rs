//! Critical-path profiler integration tests: on a real machine run the
//! attributed path must sum to the simulated wall clock to the
//! nanosecond, per-phase rows must partition the path exactly, the
//! what-if projector must bound the measured wall from below, and
//! reports must be bit-deterministic across repeated runs.

use ccnuma_sim::config::MachineConfig;
use ccnuma_sim::critpath::CritReport;
use ccnuma_sim::machine::{Machine, Placement};
use ccnuma_sim::stats::RunStats;

fn cfg(nprocs: usize) -> MachineConfig {
    let mut c = MachineConfig::origin2000_scaled(nprocs, 16 << 10);
    c.classify_misses = true;
    c.critpath = true;
    c
}

/// A small phased workload exercising every dependency-edge source:
/// private compute plus shared-array traffic, a barrier between
/// phases, a contended lock in the reduction, and a semaphore hand-off
/// from proc 0 to everyone else.
fn workload(c: MachineConfig) -> RunStats {
    let mut m = Machine::new(c).unwrap();
    let x = m.shared_vec::<u64>(64, Placement::Blocked);
    let l = m.lock();
    let b = m.barrier();
    let s = m.semaphore(0);
    let x2 = x.clone();
    m.run(move |ctx| {
        ctx.phase("produce");
        for i in 0..16 {
            let idx = (ctx.id() * 7 + i) % 64;
            x2.write(ctx, idx, idx as u64);
            ctx.compute_ops(8 + ctx.id() as u64);
        }
        ctx.barrier(b);
        ctx.phase("reduce");
        for _ in 0..4 {
            ctx.with_lock(l, || x2.update(ctx, 0, |v| v + 1));
            ctx.compute_ops(2);
        }
        if ctx.id() == 0 {
            ctx.sem_post(s, (ctx.nprocs() - 1) as u32);
        } else {
            ctx.sem_wait(s);
            let _ = x2.read(ctx, 1);
        }
        ctx.barrier(b);
    })
    .unwrap()
}

fn report(nprocs: usize) -> (RunStats, CritReport) {
    let stats = workload(cfg(nprocs));
    let rep = stats.critpath.clone().expect("critpath report present");
    (stats, rep)
}

/// The attributed path sums to the simulated wall clock to the
/// nanosecond, and per-phase rows partition it exactly.
#[test]
fn path_partitions_wall_exactly() {
    let (stats, rep) = report(4);
    assert!(stats.wall_ns > 0);
    assert_eq!(rep.wall_ns, stats.wall_ns);
    assert_eq!(rep.total.total_ns(), stats.wall_ns, "path sums to wall");
    let mut phase_sum = 0;
    for ph in &rep.phases {
        phase_sum += ph.path.total_ns();
    }
    assert_eq!(phase_sum, stats.wall_ns, "phase rows partition the path");
    assert!(rep.phases.iter().any(|p| p.name == "produce"));
    assert!(rep.phases.iter().any(|p| p.name == "reduce"));
    // The workload has real contention: some sync wait must be on-path.
    assert!(rep.total.wait_ns() > 0, "{}", rep.text_table());
    // Detail arrays never exceed the buckets they refine.
    let cause: u64 = rep.mem_cause_ns.iter().sum();
    assert!(cause <= rep.total.mem_ns());
    let qs: u64 = rep.mem_queue_ns.iter().sum::<u64>() + rep.mem_service_ns.iter().sum::<u64>();
    assert!(qs <= rep.total.mem_ns());
    // The [busy, mem, sync] summary triple partitions the wall too.
    assert_eq!(rep.summary().iter().sum::<u64>(), stats.wall_ns);
}

/// On-path segments tile `[0, wall]` contiguously in forward time
/// order, and the Chrome export renders them.
#[test]
fn segments_tile_the_wall() {
    let (stats, rep) = report(4);
    assert!(!rep.segments.is_empty());
    assert_eq!(rep.segments[0].start, 0);
    assert_eq!(rep.segments.last().unwrap().end, stats.wall_ns);
    for w in rep.segments.windows(2) {
        assert_eq!(w[0].end, w[1].start, "segments are contiguous");
    }
    let json = rep.to_chrome_json("test");
    assert!(json.starts_with("{\"traceEvents\":["));
    assert!(json.contains("critical path"));
}

/// The what-if projector brackets reality: replaying unchanged costs
/// reproduces the measured wall exactly, every cost reduction can only
/// help, and nothing beats the pure-compute lower bound.
#[test]
fn whatif_bounds_hold() {
    let (stats, rep) = report(8);
    let wall = |name: &str| {
        rep.whatif
            .iter()
            .find(|w| w.name == name)
            .unwrap_or_else(|| panic!("scenario {name}: {}", rep.whatif_table()))
            .wall_ns
    };
    assert_eq!(wall("measured"), stats.wall_ns, "replay reproduces wall");
    let busy_bound = stats.procs.iter().map(|p| p.busy_ns).max().unwrap();
    for w in &rep.whatif {
        assert!(
            w.wall_ns <= stats.wall_ns,
            "{}: projection ≤ measured",
            w.name
        );
        assert!(
            w.wall_ns >= busy_bound,
            "{}: projection ≥ busy bound",
            w.name
        );
        assert!(rep.speedup(&w.name) >= 1.0);
    }
    // Removing sync cannot be worse than halving remote latency alone
    // in this sync-heavy workload; both are genuine reductions.
    assert!(wall("sync=0") < stats.wall_ns);
    assert!(wall("hub_queue=0") <= stats.wall_ns);
    assert!(wall("queue=0") <= wall("hub_queue=0"));
}

/// Reports are bit-deterministic across repeated runs.
#[test]
fn reports_are_deterministic() {
    let reps: Vec<CritReport> = (0..3).map(|_| report(4).1).collect();
    assert_eq!(reps[0], reps[1]);
    assert_eq!(reps[1], reps[2]);
}

/// The headline names the dominant limiter and the shares it quotes
/// are consistent with the bucket totals.
#[test]
fn headline_and_tables_render() {
    let (_, rep) = report(4);
    let head = rep.headline();
    assert!(head.contains('%'), "{head}");
    let table = rep.text_table();
    assert!(table.contains("busy"), "{table}");
    let (busy, mem, sync) = rep.share_pct();
    assert!(
        (busy + mem + sync - 100.0).abs() < 0.5,
        "{busy} {mem} {sync}"
    );
}
