//! Observer passivity, pinned once at the engine's observer seam: switching
//! the trace, the sanitizer, the critical path or per-range attribution on
//! (alone or together, under the default schedule or a seeded one) leaves
//! a run's statistics bit-identical. The Chrome-trace bytes of traced runs
//! are pinned by digest, so a span, instant or gauge that moves fails here.

use ccnuma_sim::prelude::*;

/// Four processors with `[trace, sanitize, critpath]` switched on per `on`.
fn cfg(on: [bool; 3], schedule: Option<ScheduleConfig>) -> MachineConfig {
    let mut c = MachineConfig::origin2000_scaled(4, 16 << 10);
    c.classify_misses = true;
    c.trace.enabled = on[0];
    c.sanitize.enabled = on[1];
    c.critpath = on[2];
    c.schedule = schedule;
    c
}

/// Phases, a barrier, a contended lock and a semaphore hand-off from
/// proc 0 to everyone else; `labelled` turns on per-range attribution.
fn workload(c: MachineConfig, labelled: bool) -> RunStats {
    let mut m = Machine::new(c).unwrap();
    let x = if labelled {
        m.shared_vec_labeled::<u64>("x", 64, Placement::Blocked)
    } else {
        m.shared_vec::<u64>(64, Placement::Blocked)
    };
    let l = m.lock();
    let b = m.barrier();
    let s = m.semaphore(0);
    m.run(move |ctx| {
        ctx.phase("produce");
        for i in 0..16 {
            let idx = (ctx.id() * 7 + i) % 64;
            x.write(ctx, idx, idx as u64);
            ctx.compute_ops(8 + ctx.id() as u64);
        }
        ctx.barrier(b);
        ctx.phase("reduce");
        for _ in 0..4 {
            ctx.with_lock(l, || x.update(ctx, 0, |v| v + 1));
            ctx.compute_ops(2);
        }
        if ctx.id() == 0 {
            ctx.sem_post(s, (ctx.nprocs() - 1) as u32);
        } else {
            ctx.sem_wait(s);
            let _ = x.read(ctx, 1);
        }
        ctx.barrier(b);
    })
    .unwrap()
}

#[test]
fn observers_never_change_the_run() {
    for schedule in [None, Some(ScheduleConfig::random(7))] {
        let off = workload(cfg([false; 3], schedule), false);
        assert!(off.trace.is_none() && off.sanitize.is_none() && off.critpath.is_none());
        for (on, labelled) in [
            ([true, false, false], false),
            ([false, true, false], false),
            ([false, false, true], false),
            ([true; 3], false),
            ([false; 3], true),
            ([true; 3], true),
        ] {
            let mut run = workload(cfg(on, schedule), labelled);
            assert_eq!(run.trace.take().is_some(), on[0]);
            assert_eq!(run.sanitize.take().is_some(), on[1]);
            assert_eq!(run.critpath.take().is_some(), on[2]);
            assert_eq!(std::mem::take(&mut run.ranges).is_empty(), !labelled);
            assert_eq!(run, off, "{on:?}, labelled {labelled}, under {schedule:?}");
        }
    }
}

/// Twelve rounds of uneven work, each ending at a barrier.
fn barrier_rounds(c: MachineConfig) -> RunStats {
    let mut m = Machine::new(c).unwrap();
    let x = m.shared_vec::<u64>(64, Placement::Blocked);
    let b = m.barrier();
    m.run(move |ctx| {
        for r in 0..12 {
            for i in 0..2 + (ctx.id() + r) % 3 {
                let idx = (ctx.id() * 7 + i + r) % 64;
                x.write(ctx, idx, idx as u64);
                ctx.compute_ops(8 + ctx.id() as u64);
            }
            ctx.barrier(b);
        }
    })
    .unwrap()
}

/// FNV-1a digests of Chrome-trace exports, with the default buffer and
/// with caps small enough to compact spans and downsample gauges. At a
/// 28-span cap the barrier rounds compact inside barrier releases, so
/// even the order of spans across tracks is pinned.
#[test]
fn trace_bytes_are_pinned() {
    let phased: fn(MachineConfig) -> RunStats = |c| workload(c, false);
    for (run, cap, want) in [
        (phased, None, 0xe4ea_d822_01a4_1b61_u64),
        (phased, Some(64), 0x43be_3231_b25d_19f9),
        (barrier_rounds, Some(28), 0x8129_e58d_b6a4_61db),
    ] {
        let mut c = cfg([true, false, false], None);
        if let Some(max_spans) = cap {
            (c.trace.max_spans, c.trace.max_gauge_samples) = (max_spans, 4);
        }
        let json = run(c).trace.unwrap().to_chrome_json("observers");
        let digest = json.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        });
        assert_eq!(digest, want, "trace bytes moved (span cap {cap:?})");
    }
}
