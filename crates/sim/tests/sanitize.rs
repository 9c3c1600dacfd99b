//! Sanitizer integration tests: planted races in real machine runs must
//! be reported exactly (no false negatives, no extras), and reports must
//! be bit-deterministic across repeated runs.

use ccnuma_sim::config::MachineConfig;
use ccnuma_sim::machine::{Machine, Placement};
use ccnuma_sim::sanitize::{LintKind, SanitizeGranularity, SanitizeReport};
use ccnuma_sim::stats::RunStats;

fn cfg(nprocs: usize) -> MachineConfig {
    let mut c = MachineConfig::origin2000_scaled(nprocs, 16 << 10);
    c.sanitize.enabled = true;
    c
}

/// Two processors increment the same counter word with plain
/// read-modify-writes and no synchronization: exactly one race, on the
/// counter's word, between a write and a conflicting access.
fn racy_counter(c: MachineConfig) -> (RunStats, u64) {
    let mut m = Machine::new(c).unwrap();
    let x = m.shared_vec::<u64>(1, Placement::Blocked);
    let addr = x.addr_of(0);
    let x2 = x.clone();
    let stats = m
        .run(move |ctx| {
            ctx.phase("bump");
            for _ in 0..4 {
                x2.update(ctx, 0, |v| v + 1);
                ctx.compute_ops(1);
            }
        })
        .unwrap();
    (stats, addr)
}

#[test]
fn planted_counter_race_is_reported_exactly() {
    let (stats, addr) = racy_counter(cfg(2));
    let rep = stats.sanitize.expect("sanitize report present");
    assert_eq!(rep.races.len(), 1, "one race per granule: {:#?}", rep.races);
    let r = &rep.races[0];
    assert_eq!(r.addr, addr & !7, "race lands on the counter's word");
    assert_eq!(r.bytes, 8);
    assert!(r.current.is_write || r.prior.is_write);
    assert_ne!(r.prior.proc, r.current.proc);
    assert_eq!(r.prior.phase, "bump");
    assert_eq!(r.current.phase, "bump");
    assert!(r.prior.locks.is_empty() && r.current.locks.is_empty());
    assert!(rep.lock_cycles.is_empty());
    assert!(rep.lints.is_empty());
    assert!(!rep.is_clean());
    assert_eq!(rep.counts(), [1, 0, 0]);
}

#[test]
fn lock_protected_counter_is_clean() {
    let mut m = Machine::new(cfg(4)).unwrap();
    let x = m.shared_vec::<u64>(1, Placement::Blocked);
    let l = m.lock();
    let x2 = x.clone();
    let stats = m
        .run(move |ctx| {
            for _ in 0..4 {
                ctx.with_lock(l, || x2.update(ctx, 0, |v| v + 1));
            }
        })
        .unwrap();
    assert_eq!(x.get(0), 16);
    let rep = stats.sanitize.unwrap();
    assert!(rep.is_clean(), "{}", rep.summary());
}

/// Adjacent words of one cache line written by different processors:
/// false sharing, not a race. Word granularity stays clean; line
/// granularity flags the line (the knob that separates the two).
#[test]
fn false_sharing_flagged_only_at_line_granularity() {
    let run = |granularity| {
        let mut c = cfg(2);
        c.sanitize.granularity = granularity;
        let mut m = Machine::new(c).unwrap();
        let x = m.shared_vec::<u64>(2, Placement::Blocked);
        let x2 = x.clone();
        m.run(move |ctx| {
            x2.write(ctx, ctx.id(), ctx.id() as u64);
        })
        .unwrap()
        .sanitize
        .unwrap()
    };
    let word = run(SanitizeGranularity::Word);
    assert!(word.is_clean(), "disjoint words: {:#?}", word.races);
    let line = run(SanitizeGranularity::Line);
    assert_eq!(line.races.len(), 1, "same line: {:#?}", line.races);
    assert_eq!(line.races[0].bytes, 128, "origin line size");
}

/// Arriving at a barrier while holding a lock is linted (and only
/// linted — the run itself completes).
#[test]
fn lock_across_barrier_is_linted() {
    let mut m = Machine::new(cfg(2)).unwrap();
    let l = m.lock();
    let b = m.barrier();
    let stats = m
        .run(move |ctx| {
            if ctx.id() == 0 {
                ctx.lock(l);
            }
            ctx.barrier(b);
            if ctx.id() == 0 {
                ctx.unlock(l);
            }
        })
        .unwrap();
    let rep = stats.sanitize.unwrap();
    assert_eq!(rep.lints.len(), 1, "{:#?}", rep.lints);
    assert_eq!(rep.lints[0].kind, LintKind::LockAcrossBarrier);
    assert!(
        rep.lints[0].message.contains("proc 0"),
        "{}",
        rep.lints[0].message
    );
}

/// Reports are bit-deterministic across repeated runs.
#[test]
fn reports_are_deterministic() {
    let reps: Vec<SanitizeReport> = (0..3)
        .map(|_| racy_counter(cfg(4)).0.sanitize.unwrap())
        .collect();
    assert_eq!(reps[0], reps[1]);
    assert_eq!(reps[1], reps[2]);
    assert!(!reps[0].races.is_empty());
}

/// Semaphore hand-off publishes writes: a producer/consumer pipeline is
/// race-free under sem_post/sem_wait ordering alone.
#[test]
fn semaphore_handoff_is_clean() {
    let mut m = Machine::new(cfg(2)).unwrap();
    let x = m.shared_vec::<u64>(8, Placement::Blocked);
    let s = m.semaphore(0);
    let x2 = x.clone();
    let stats = m
        .run(move |ctx| {
            if ctx.id() == 0 {
                for i in 0..8 {
                    x2.write(ctx, i, i as u64 * 3);
                }
                ctx.sem_post(s, 1);
            } else {
                ctx.sem_wait(s);
                for i in 0..8 {
                    assert_eq!(x2.read(ctx, i), i as u64 * 3);
                }
            }
        })
        .unwrap();
    let rep = stats.sanitize.unwrap();
    assert!(rep.is_clean(), "{}", rep.summary());
}
