//! The live counters publish the engine's ledger, so a run moves them by
//! exactly its `RunStats` totals, with or without observers, and its
//! phases partition each processor's `ProcStats`. This file holds one
//! test so that its process's `LIVE` counters see nothing else.

use ccnuma_sim::live::LIVE;
use ccnuma_sim::prelude::*;

/// Four processors walk one more line than a set holds while their caches
/// are nearly empty (conflict misses), stream a private block twice the
/// cache size (cold and capacity misses), then bump private words of a
/// shared line and a lock-held counter on another (false and true
/// sharing): every miss cause, and more engine events than the 4096
/// between two live flushes.
fn run(observers: bool) -> RunStats {
    let mut c = MachineConfig::origin2000_scaled(4, 16 << 10);
    c.classify_misses = true;
    c.trace.enabled = observers;
    c.sanitize.enabled = observers;
    c.critpath = observers;
    let words = |bytes: usize| bytes / std::mem::size_of::<u64>();
    let block = words(2 * c.cache.size_bytes);
    let way = words(c.cache.size_bytes / c.cache.assoc);
    let assoc = c.cache.assoc;
    let mut m = Machine::new(c).unwrap();
    let big = m.shared_vec::<u64>(4 * block, Placement::Blocked);
    let hot = m.shared_vec::<u64>(64, Placement::Blocked);
    let l = m.lock();
    let b = m.barrier();
    m.run(move |ctx| {
        let mine = ctx.id() * block;
        ctx.phase("conflict");
        for _ in 0..2 {
            for k in 0..=assoc {
                let _ = big.read(ctx, mine + k * way);
            }
            ctx.flush();
        }
        ctx.phase("stream");
        for _ in 0..2 {
            big.touch_write(ctx, mine, block);
            ctx.barrier(b);
        }
        ctx.phase("share");
        for _ in 0..600 {
            hot.update(ctx, ctx.id(), |v| v + 1);
            ctx.with_lock(l, || hot.update(ctx, 32, |v| v + 1));
            ctx.compute_ops(3);
        }
        ctx.barrier(b);
    })
    .unwrap()
}

#[test]
fn live_counters_and_phases_read_the_ledger() {
    for observers in [false, true] {
        let was = LIVE.snapshot();
        let stats = run(observers);
        let now = LIVE.snapshot();
        assert!(
            stats.events > 4096,
            "{} events cross no flush",
            stats.events
        );
        let causes = stats.cause_counts();
        assert!(
            causes.iter().all(|&c| c > 0),
            "every cause occurs: {causes:?}"
        );

        assert_eq!(now.runs_started - was.runs_started, 1);
        assert_eq!(now.runs_finished - was.runs_finished, 1);
        assert_eq!(now.events - was.events, stats.events);
        assert_eq!(now.accesses - was.accesses, stats.total(|p| p.accesses()));
        assert_eq!(now.hits - was.hits, stats.total(|p| p.hits));
        assert_eq!(now.misses - was.misses, stats.total(|p| p.misses()));
        for (i, c) in causes.iter().enumerate() {
            assert_eq!(now.miss_causes[i] - was.miss_causes[i], *c, "cause {i}");
        }
        let bd = stats.mem_breakdown();
        for i in 0..4 {
            assert_eq!(
                now.service_ns[i] - was.service_ns[i],
                bd.service[i],
                "class {i}"
            );
            assert_eq!(now.queue_ns[i] - was.queue_ns[i], bd.queue[i], "class {i}");
        }
        assert_eq!(
            now.mem_stall_ns - was.mem_stall_ns,
            stats.total(|p| p.mem_ns)
        );
        assert_eq!(now.sim_ns - was.sim_ns, stats.wall_ns);

        assert_eq!(stats.phases.len(), 4, "main plus three named phases");
        for (p, ledger) in stats.procs.iter().enumerate() {
            let mut phases = PhaseBreakdown::default();
            for ph in &stats.phases {
                phases.add(&ph.procs[p]);
            }
            assert_eq!(phases, ledger.times(), "proc {p}, observers {observers}");
        }
    }
}
