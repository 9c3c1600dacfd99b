//! Behavioural integration tests for the simulation engine: correctness of
//! synchronization, determinism, failure handling, and first-order NUMA
//! performance effects.

use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use ccnuma_sim::config::{LockImpl, MachineConfig, PagePlacement};
use ccnuma_sim::ctx::{Ctx, MAX_OUTSTANDING};
use ccnuma_sim::error::SimError;
use ccnuma_sim::machine::{Machine, Placement};
use ccnuma_sim::mapping::ProcessMapping;
use ccnuma_sim::sync::SemRef;

fn cfg(nprocs: usize) -> MachineConfig {
    MachineConfig::origin2000_scaled(nprocs, 64 << 10)
}

#[test]
fn lock_serializes_critical_sections() {
    let mut m = Machine::new(cfg(8)).unwrap();
    let counter = m.shared_vec::<u64>(1, Placement::Node(0));
    let l = m.lock();
    let c = counter.clone();
    let stats = m
        .run(move |ctx| {
            for _ in 0..50 {
                ctx.lock(l);
                let v = c.read(ctx, 0);
                ctx.compute_ops(1);
                c.write(ctx, 0, v + 1);
                ctx.unlock(l);
            }
        })
        .unwrap();
    // 8 procs × 50 increments, fully serialized by the lock.
    assert_eq!(counter.get(0), 400);
    assert_eq!(stats.total(|p| p.lock_acquires), 400);
    // Contended locking must show up as synchronization wait.
    assert!(stats.total(|p| p.sync_wait_ns) > 0);
}

#[test]
fn fetch_add_distributes_unique_tickets() {
    let mut m = Machine::new(cfg(8)).unwrap();
    let tickets = m.shared_vec::<i64>(80, Placement::Interleaved);
    let next = m.fetch_cell(0);
    let t = tickets.clone();
    m.run(move |ctx| loop {
        let i = ctx.fetch_add(next, 1);
        if i >= 80 {
            break;
        }
        t.write(ctx, i as usize, i + 1);
    })
    .unwrap();
    // Every ticket taken exactly once.
    for i in 0..80 {
        assert_eq!(tickets.get(i), i as i64 + 1, "ticket {i}");
    }
}

#[test]
fn semaphore_producer_consumer() {
    let mut m = Machine::new(cfg(4)).unwrap();
    let q = m.shared_vec::<u64>(64, Placement::Node(0));
    let items = m.semaphore(0);
    let head = m.fetch_cell(0);
    let qc = q.clone();
    m.run(move |ctx| {
        if ctx.id() == 0 {
            // Producer: publish 63 items (other procs consume 21 each).
            for i in 0..63 {
                qc.write(ctx, i, (i + 1) as u64);
                ctx.sem_post(items, 1);
            }
        } else {
            for _ in 0..21 {
                ctx.sem_wait(items);
                let slot = ctx.fetch_add(head, 1) as usize;
                let v = qc.read(ctx, slot);
                assert!(v > 0, "consumed an unpublished slot");
            }
        }
    })
    .unwrap();
}

#[test]
fn deadlock_is_reported_not_hung() {
    let mut m = Machine::new(cfg(2)).unwrap();
    let l = m.lock();
    let err = m
        .run(move |ctx| {
            if ctx.id() == 0 {
                ctx.lock(l); // holds forever
                ctx.compute_ns(10);
                // never unlocks; proc 1 blocks, proc 0 finishes.
            } else {
                ctx.lock(l);
            }
        })
        .unwrap_err();
    match err {
        SimError::Deadlock(who) => assert!(who.contains("lock 0"), "{who}"),
        other => panic!("expected deadlock, got {other}"),
    }
}

#[test]
fn app_panic_is_reported_not_hung() {
    let mut m = Machine::new(cfg(4)).unwrap();
    let b = m.barrier();
    let err = m
        .run(move |ctx| {
            if ctx.id() == 2 {
                panic!("boom on proc 2");
            }
            ctx.barrier(b); // other procs park here
        })
        .unwrap_err();
    match err {
        SimError::AppPanic(msg) => assert!(msg.contains("boom"), "{msg}"),
        other => panic!("expected panic, got {other}"),
    }
}

/// Makes `n` requests that need no reply, cycling through the posted
/// kinds: a flush of buffered work, a phase marker and a post to the
/// processor's own semaphore in `sems`.
fn post_run(ctx: &Ctx, sems: &[SemRef], n: usize) {
    let sem = sems[ctx.id()];
    for j in 0..n {
        match j % 3 {
            0 => {
                ctx.compute_ns(10 + j as u64);
                ctx.flush();
            }
            1 => ctx.phase(if j % 2 == 0 { "even" } else { "odd" }),
            _ => ctx.sem_post(sem, 1),
        }
    }
}

/// Counts the application threads that have left their body, by
/// returning or by unwinding.
struct Exits(Arc<AtomicUsize>);

impl Drop for Exits {
    fn drop(&mut self) {
        self.0.fetch_add(1, Ordering::SeqCst);
    }
}

#[test]
fn app_panic_after_posts_is_reported_at_128_procs() {
    let mut m = Machine::new(cfg(128)).unwrap();
    let b = m.barrier();
    let s: Vec<SemRef> = (0..128).map(|_| m.semaphore(0)).collect();
    let exits = Arc::new(AtomicUsize::new(0));
    let e = Arc::clone(&exits);
    let err = m
        .run(move |ctx| {
            let _exit = Exits(Arc::clone(&e));
            if ctx.id() == 77 {
                post_run(ctx, &s, 3 * MAX_OUTSTANDING);
                panic!("boom after posts on proc 77");
            }
            ctx.barrier(b); // the other 127 park here
        })
        .unwrap_err();
    match err {
        SimError::AppPanic(msg) => {
            assert!(msg.contains("proc 77: boom after posts"), "{msg}")
        }
        other => panic!("expected panic, got {other}"),
    }
    // `run` returned only after joining every thread.
    assert_eq!(exits.load(Ordering::SeqCst), 128);
}

#[test]
fn deadlock_after_posts_names_every_blocked_proc_at_128() {
    let mut m = Machine::new(cfg(128)).unwrap();
    let l = m.lock();
    let s: Vec<SemRef> = (0..128).map(|_| m.semaphore(0)).collect();
    let exits = Arc::new(AtomicUsize::new(0));
    let e = Arc::clone(&exits);
    let err = m
        .run(move |ctx| {
            let _exit = Exits(Arc::clone(&e));
            post_run(ctx, &s, 3 * MAX_OUTSTANDING);
            if ctx.id() == 0 {
                ctx.lock(l); // holds forever
                post_run(ctx, &s, 3 * MAX_OUTSTANDING);
            } else {
                // A request is ordered by its start time, so flush the
                // compute before locking to let proc 0 win the lock.
                ctx.compute_ns(1_000_000);
                ctx.flush();
                ctx.lock(l);
            }
        })
        .unwrap_err();
    let SimError::Deadlock(who) = err else {
        panic!("expected deadlock, got {err}");
    };
    for p in 1..128 {
        assert!(who.contains(&format!("proc {p} on lock 0")), "{who}");
    }
    assert!(!who.contains("proc 0 on"), "{who}");
    assert_eq!(exits.load(Ordering::SeqCst), 128);
}

#[test]
fn unlock_by_non_holder_after_posts_fails_the_run_at_128_procs() {
    let mut m = Machine::new(cfg(128)).unwrap();
    let l = m.lock();
    let s: Vec<SemRef> = (0..128).map(|_| m.semaphore(0)).collect();
    let run = panic::catch_unwind(AssertUnwindSafe(move || {
        m.run(move |ctx| {
            post_run(ctx, &s, 3 * MAX_OUTSTANDING);
            if ctx.id() == 5 {
                ctx.unlock(l); // never locked
            }
            post_run(ctx, &s, 3 * MAX_OUTSTANDING);
        })
    }));
    let payload = run.expect_err("the run must fail");
    let msg = payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_default();
    assert!(msg.contains("unlock by non-holder 5"), "{msg}");
}

#[test]
fn long_runs_of_posts_stay_bounded_at_128_procs() {
    // The engine debug-asserts on every arrival that no processor has more
    // than MAX_OUTSTANDING requests outstanding; tests run with debug
    // assertions on.
    let mut m = Machine::new(cfg(128)).unwrap();
    let s: Vec<SemRef> = (0..128).map(|_| m.semaphore(0)).collect();
    let stats = m
        .run(move |ctx| post_run(ctx, &s, 10 * MAX_OUTSTANDING))
        .unwrap();
    // Every post was carried out: a flush or phase change each, and the
    // semaphore posts' atomics.
    let posts = (10 * MAX_OUTSTANDING) as u64;
    let sem_posts = (0..posts).filter(|j| j % 3 == 2).count() as u64;
    assert_eq!(stats.total(|p| p.atomics), 128 * sem_posts);
    assert_eq!(stats.events, 128 * (posts + 1));
}

#[test]
fn runs_are_deterministic() {
    let run_once = || {
        let mut m = Machine::new(cfg(8)).unwrap();
        let x = m.shared_vec::<u64>(512, Placement::Blocked);
        let b = m.barrier();
        let l = m.lock();
        let total = m.shared_vec::<u64>(1, Placement::Node(0));
        let (x2, t2) = (x.clone(), total.clone());
        let stats = m
            .run(move |ctx| {
                let n = x2.len() / ctx.nprocs();
                let lo = ctx.id() * n;
                let mut acc = 0;
                for i in lo..lo + n {
                    x2.write(ctx, i, (i * 3) as u64);
                    acc += (i * 3) as u64;
                }
                ctx.barrier(b);
                let peer = (ctx.id() + 3) % ctx.nprocs();
                for i in peer * n..peer * n + n {
                    acc = acc.wrapping_add(x2.read(ctx, i));
                }
                ctx.compute_flops(acc % 7);
                ctx.lock(l);
                t2.update(ctx, 0, |v| v.wrapping_add(acc));
                ctx.unlock(l);
            })
            .unwrap();
        (stats.wall_ns, total.get(0), stats.total(|p| p.misses()))
    };
    let a = run_once();
    let b = run_once();
    assert_eq!(a, b, "simulation must be bit-deterministic");
}

#[test]
fn remote_traffic_costs_more_than_local() {
    // Same program, once with data blocked (local) and once all on node 0.
    let run = |placement: Placement| {
        let mut m = Machine::new(cfg(16)).unwrap();
        let x = m.shared_vec::<f64>(16 * 512, placement);
        let x2 = x.clone();
        let stats = m
            .run(move |ctx| {
                let n = x2.len() / ctx.nprocs();
                let lo = ctx.id() * n;
                for i in lo..lo + n {
                    x2.write(ctx, i, 1.0);
                }
            })
            .unwrap();
        stats.wall_ns
    };
    let local = run(Placement::Blocked);
    let remote = run(Placement::Node(0));
    assert!(
        remote > local * 3 / 2,
        "all-on-node-0 ({remote}) should be well above blocked ({local})"
    );
}

#[test]
fn first_touch_localizes_after_warmup() {
    let mut c = cfg(8);
    c.placement = PagePlacement::FirstTouch;
    let mut m = Machine::new(c).unwrap();
    let x = m.shared_vec::<u64>(8 * 256, Placement::Policy);
    let b = m.barrier();
    let x2 = x.clone();
    let stats = m
        .run(move |ctx| {
            let n = x2.len() / ctx.nprocs();
            let lo = ctx.id() * n;
            // First touch my partition → pages home locally.
            for i in lo..lo + n {
                x2.write(ctx, i, 0);
            }
            ctx.barrier(b);
            for i in lo..lo + n {
                x2.update(ctx, i, |v| v + 1);
            }
        })
        .unwrap();
    // Post-warm-up accesses are hits or local (upgrades count separately).
    assert_eq!(
        stats.total(|p| p.misses_remote_clean + p.misses_remote_dirty),
        0
    );
}

#[test]
fn random_mapping_changes_timing_not_results() {
    let run = |mapping: ProcessMapping| {
        let mut c = cfg(16);
        c.mapping = mapping;
        let mut m = Machine::new(c).unwrap();
        let x = m.shared_vec::<u64>(16 * 128, Placement::Blocked);
        let b = m.barrier();
        let x2 = x.clone();
        let stats = m
            .run(move |ctx| {
                let n = x2.len() / ctx.nprocs();
                let lo = ctx.id() * n;
                for i in lo..lo + n {
                    x2.write(ctx, i, i as u64);
                }
                ctx.barrier(b);
                // Read the next process's partition (neighbour traffic).
                let peer = (ctx.id() + 1) % ctx.nprocs();
                let mut s = 0;
                for i in peer * n..peer * n + n {
                    s += x2.read(ctx, i);
                }
                ctx.compute_ops(s % 2);
            })
            .unwrap();
        (stats.wall_ns, x.snapshot())
    };
    let (_, data_linear) = run(ProcessMapping::Linear);
    let (_, data_random) = run(ProcessMapping::Random { seed: 42 });
    assert_eq!(
        data_linear, data_random,
        "results must not depend on mapping"
    );
}

#[test]
fn fetchop_primitive_reduces_lock_overhead_under_contention() {
    let run = |imp: LockImpl| {
        let mut c = cfg(8);
        c.lock_impl = imp;
        let mut m = Machine::new(c).unwrap();
        let l = m.lock();
        let stats = m
            .run(move |ctx| {
                for _ in 0..100 {
                    ctx.lock(l);
                    ctx.compute_ns(50);
                    ctx.unlock(l);
                }
            })
            .unwrap();
        stats.total(|p| p.sync_op_ns)
    };
    let llsc = run(LockImpl::TicketLlsc);
    let fo = run(LockImpl::TicketFetchOp);
    // The at-memory primitive avoids line ping-pong between contending
    // processors (§6.3: measurable on microbenchmarks).
    assert!(fo < llsc, "fetch&op {fo} should beat LL/SC {llsc} here");
}

#[test]
fn prefetch_reduces_memory_stall() {
    let run = |pf: bool| {
        let mut c = cfg(8);
        c.prefetch_enabled = pf;
        let mut m = Machine::new(c).unwrap();
        let x = m.shared_vec::<f64>(8 * 512, Placement::Blocked);
        let b = m.barrier();
        let x2 = x.clone();
        let stats = m
            .run(move |ctx| {
                let n = x2.len() / ctx.nprocs();
                let lo = ctx.id() * n;
                for i in lo..lo + n {
                    x2.write(ctx, i, 1.0);
                }
                ctx.barrier(b);
                // Stream a remote partition, prefetching well ahead.
                let peer = (ctx.id() + ctx.nprocs() / 2) % ctx.nprocs();
                let base = peer * n;
                x2.prefetch(ctx, base, n);
                ctx.compute_flops(200); // give prefetches time to land
                let mut s = 0.0;
                for i in base..base + n {
                    s += x2.read(ctx, i);
                    ctx.compute_flops(4);
                }
                assert!(s > 0.0);
            })
            .unwrap();
        stats.total(|p| p.mem_ns)
    };
    let without = run(false);
    let with = run(true);
    assert!(
        with < without,
        "prefetch {with} should reduce stall vs {without}"
    );
}

#[test]
fn single_proc_machine_works_and_is_all_busy_or_mem() {
    let mut m = Machine::new(cfg(1)).unwrap();
    let x = m.shared_vec::<u64>(256, Placement::Policy);
    let x2 = x.clone();
    let stats = m
        .run(move |ctx| {
            for i in 0..x2.len() {
                x2.write(ctx, i, i as u64);
                ctx.compute_ops(2);
            }
        })
        .unwrap();
    let p = &stats.procs[0];
    assert_eq!(p.sync_ns(), 0);
    assert!(p.busy_ns > 0 && p.mem_ns > 0);
    assert_eq!(p.misses_remote_clean + p.misses_remote_dirty, 0);
}

#[test]
fn labeled_ranges_attribute_traffic() {
    let mut m = Machine::new(cfg(4)).unwrap();
    let hot = m.shared_vec_labeled::<u64>("hot", 512, Placement::Node(0));
    let cold = m.shared_vec_labeled::<u64>("cold", 512, Placement::Node(1));
    let (h, c) = (hot.clone(), cold.clone());
    let stats = m
        .run(move |ctx| {
            for i in 0..h.len() {
                h.write(ctx, i, i as u64);
            }
            if ctx.id() == 0 {
                let mut s = 0;
                for i in 0..c.len() {
                    s += c.read(ctx, i);
                }
                ctx.compute_ops(s % 2);
            }
        })
        .unwrap();
    assert_eq!(stats.ranges.len(), 2);
    let hotp = &stats.ranges[0];
    let coldp = &stats.ranges[1];
    assert_eq!(hotp.name, "hot");
    assert_eq!(coldp.name, "cold");
    // All four procs wrote "hot"; only proc 0 read "cold".
    assert!(hotp.writes > coldp.reads);
    assert_eq!(coldp.writes, 0);
    assert!(hotp.stall_ns > 0 && coldp.stall_ns > 0);
}

#[test]
fn miss_classification_partitions_all_misses() {
    let mut c = cfg(4);
    c.classify_misses = true;
    let mut m = Machine::new(c).unwrap();
    // Working set larger than the 64KB cache to force capacity misses,
    // plus cross-proc writes for coherence misses.
    let x = m.shared_vec::<u64>(4 * 16384, Placement::Blocked); // 128 KB per proc
    let b = m.barrier();
    let x2 = x.clone();
    let stats = m
        .run(move |ctx| {
            let n = x2.len() / ctx.nprocs();
            let lo = ctx.id() * n;
            for round in 0..3u64 {
                for i in lo..lo + n {
                    x2.update(ctx, i, |v| v + round);
                }
                ctx.barrier(b);
                // Touch a neighbour's first lines → later coherence misses
                // for the neighbour.
                let peer = (ctx.id() + 1) % ctx.nprocs();
                let mut s = 0;
                for i in peer * n..peer * n + 64 {
                    s += x2.read(ctx, i);
                }
                ctx.compute_ops(s % 2);
                ctx.barrier(b);
            }
        })
        .unwrap();
    let classified = stats.total(|p| p.misses_cold + p.misses_coherence + p.misses_capacity);
    // Upgrades transfer no data and are not classified.
    let misses = stats.total(|p| p.misses());
    assert_eq!(classified, misses, "every data miss must be classified");
    assert!(stats.total(|p| p.misses_cold) > 0);
    assert!(stats.total(|p| p.misses_capacity) > 0);
    assert!(stats.total(|p| p.misses_coherence) > 0);
}

#[test]
fn classification_off_counts_nothing() {
    let mut m = Machine::new(cfg(2)).unwrap();
    let x = m.shared_vec::<u64>(256, Placement::Blocked);
    let x2 = x.clone();
    let stats = m
        .run(move |ctx| {
            for i in 0..x2.len() {
                x2.update(ctx, i, |v| v + 1);
            }
        })
        .unwrap();
    assert_eq!(
        stats.total(|p| p.misses_cold + p.misses_coherence + p.misses_capacity),
        0
    );
    assert!(stats.total(|p| p.misses()) > 0);
}
