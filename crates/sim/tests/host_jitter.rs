//! Host-timing independence: a run's simulated result must not depend on
//! when the host happens to schedule the application threads.
//!
//! Each body below takes an arrival ticket from a shared atomic before
//! every `Ctx` call and, under a jitter seed, sleeps 0–50 µs or yields at
//! seeded random points between calls. No engine knob is involved: the
//! application threads make the jitter themselves. Under each of
//! [`SEEDS`] seeds the threads therefore reach the engine in a different
//! host order, and the run's `RunStats` and the application's outputs
//! must still equal those of the run without jitter. The tickets prove
//! that the jitter really reorders the host: the test counts the
//! distinct arrival orders it produced.

use std::collections::HashSet;
use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use ccnuma_sim::config::{Fnv1a, MachineConfig};
use ccnuma_sim::ctx::{Ctx, MAX_OUTSTANDING};
use ccnuma_sim::machine::{Machine, Placement};
use ccnuma_sim::stats::{PhaseStats, ProcStats, RunStats};
use ccnuma_sim::sync::SemRef;

/// Jitter seeds per body and processor count.
const SEEDS: u64 = 20;
/// Distinct host arrival orders the seeds must produce, at least.
const MIN_ORDERS: usize = 10;
const PHASES: [&str; 3] = ["alpha", "beta", "gamma"];

/// What the host did: the arrival tickets of every `Ctx` call, in order,
/// and the fetch-add tickets the bodies drew.
#[derive(Default)]
struct HostLog {
    next: AtomicUsize,
    order: Vec<AtomicU32>,
    tickets: Mutex<Vec<i64>>,
}

impl HostLog {
    fn new(capacity: usize) -> Arc<Self> {
        Arc::new(HostLog {
            order: (0..capacity).map(|_| AtomicU32::new(0)).collect(),
            ..HostLog::default()
        })
    }

    /// A digest of the host arrival order.
    fn order_digest(&self) -> u64 {
        let n = self.next.load(Ordering::SeqCst);
        assert!(n <= self.order.len(), "arrival log overflowed: {n} calls");
        let mut h = Fnv1a::new();
        for slot in &self.order[..n] {
            h.update(&slot.load(Ordering::SeqCst).to_le_bytes());
        }
        h.finish()
    }
}

/// One processor thread's host side: it logs its arrival before each
/// `Ctx` call and, under a jitter seed, sometimes sleeps or yields.
struct Host {
    log: Arc<HostLog>,
    p: u32,
    rng: Option<u64>,
}

impl Host {
    fn new(log: &Arc<HostLog>, ctx: &Ctx, seed: Option<u64>) -> Self {
        let p = ctx.id() as u32;
        Host {
            log: Arc::clone(log),
            p,
            rng: seed.map(|s| (s << 16 ^ u64::from(p)).wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1),
        }
    }

    /// Call before every `Ctx` call.
    fn step(&mut self) {
        let t = self.log.next.fetch_add(1, Ordering::SeqCst);
        if let Some(slot) = self.log.order.get(t) {
            slot.store(self.p, Ordering::SeqCst);
        }
        let Some(s) = self.rng.as_mut() else { return };
        *s ^= *s << 13;
        *s ^= *s >> 7;
        *s ^= *s << 17;
        match *s % 8 {
            0 => std::thread::yield_now(),
            1 | 2 => std::thread::sleep(Duration::from_micros((*s >> 8) % 51)),
            _ => {}
        }
    }

    fn ticket(&self, t: i64) -> i64 {
        self.log.tickets.lock().unwrap().push(t);
        t
    }
}

/// The parts of a run that must not depend on host timing.
#[derive(Debug, PartialEq)]
struct Outcome {
    wall_ns: u64,
    events: u64,
    procs: Vec<ProcStats>,
    phases: Vec<PhaseStats>,
    output: Vec<u64>,
    tickets: Vec<i64>,
}

impl Outcome {
    fn new(stats: RunStats, output: Vec<u64>, log: &HostLog) -> Self {
        Outcome {
            wall_ns: stats.wall_ns,
            events: stats.events,
            procs: stats.procs,
            phases: stats.phases,
            output,
            tickets: std::mem::take(&mut *log.tickets.lock().unwrap()),
        }
    }
}

fn machine(nprocs: usize) -> Machine {
    Machine::new(MachineConfig::origin2000_scaled(nprocs, 16 << 10)).unwrap()
}

#[derive(Debug, Clone, Copy)]
enum Body {
    /// Critical sections under two locks, through `with_lock`.
    Locks,
    /// Barrier-separated phases reading a neighbour's partition.
    Barriers,
    /// A token passed around a ring of semaphores.
    SemChain,
    /// Protein's shape: a `fetch_add` work cursor, per-item semaphores
    /// ordering dependent items, and `sem_post`.
    Protein,
    /// Runs of more than three times `MAX_OUTSTANDING` requests that need
    /// no reply (`flush`, `phase`, `sem_post`), each ended by a `fetch_add`.
    Poster,
}

/// Runs `body` on `nprocs` processors, with host jitter under `seed`.
/// Returns the outcome and a digest of the host arrival order.
fn run(body: Body, nprocs: usize, seed: Option<u64>) -> (Outcome, u64) {
    let log = HostLog::new(4096 * nprocs);
    let lg = Arc::clone(&log);
    let mut m = machine(nprocs);
    let (stats, output) = match body {
        Body::Locks => {
            let rounds = 6;
            let locks = m.lock_array(2);
            // Per lock: a cursor, then the order in which processors held it.
            let region = 1 + nprocs * rounds;
            let seq = m.shared_vec::<u64>(2 * region, Placement::Node(0));
            let s = seq.clone();
            let stats = m.run(move |ctx| {
                let mut h = Host::new(&lg, ctx, seed);
                let p = ctx.id();
                for r in 0..rounds {
                    h.step();
                    ctx.compute_ops(10 + ((p * 7 + r * 3) % 17) as u64);
                    let k = (p + r) % 2;
                    h.step();
                    ctx.with_lock(locks[k], || {
                        h.step();
                        let n = s.read(ctx, k * region);
                        h.step();
                        s.write(ctx, k * region + 1 + n as usize, p as u64 + 1);
                        h.step();
                        s.write(ctx, k * region, n + 1);
                    });
                }
            });
            (stats, seq.snapshot())
        }
        Body::Barriers => {
            let per = 8;
            let x = m.shared_vec::<u64>(nprocs * per, Placement::Blocked);
            let b = m.barrier();
            let x2 = x.clone();
            let stats = m.run(move |ctx| {
                let mut h = Host::new(&lg, ctx, seed);
                let (p, n) = (ctx.id(), ctx.nprocs());
                for r in 0..4 {
                    h.step();
                    ctx.phase(PHASES[r % 3]);
                    let peer = (p + 1 + r) % n;
                    let mut acc = 0;
                    for i in 0..per {
                        h.step();
                        acc += x2.read(ctx, peer * per + i);
                    }
                    h.step();
                    ctx.barrier(b);
                    for i in 0..per {
                        h.step();
                        x2.write(ctx, p * per + i, acc + (i + r) as u64);
                    }
                    h.step();
                    ctx.compute_flops(acc % 13);
                    h.step();
                    ctx.barrier(b);
                }
            });
            (stats, x.snapshot())
        }
        Body::SemChain => {
            let rounds = 3;
            let sems: Vec<SemRef> = (0..nprocs)
                .map(|i| m.semaphore(i64::from(i == 0)))
                .collect();
            let seq = m.shared_vec::<u64>(1 + nprocs * rounds, Placement::Node(0));
            let s = seq.clone();
            let stats = m.run(move |ctx| {
                let mut h = Host::new(&lg, ctx, seed);
                let (p, n) = (ctx.id(), ctx.nprocs());
                for r in 0..rounds {
                    h.step();
                    ctx.compute_ops(5 + ((p + r) % 7) as u64);
                    h.step();
                    ctx.sem_wait(sems[p]);
                    h.step();
                    let k = s.read(ctx, 0);
                    h.step();
                    s.write(ctx, 1 + k as usize, p as u64 + 1);
                    h.step();
                    s.write(ctx, 0, k + 1);
                    h.step();
                    ctx.sem_post(sems[(p + 1) % n], 1);
                }
            });
            (stats, seq.snapshot())
        }
        Body::Protein => {
            let items = 6 * nprocs;
            let dep = 3;
            let cursor = m.fetch_cell(0);
            let done: Vec<SemRef> = (0..items).map(|_| m.semaphore(0)).collect();
            let owner = m.shared_vec::<u64>(items, Placement::Interleaved);
            let o = owner.clone();
            let stats = m.run(move |ctx| {
                let mut h = Host::new(&lg, ctx, seed);
                let p = ctx.id();
                loop {
                    h.step();
                    let i = h.ticket(ctx.fetch_add(cursor, 1)) as usize;
                    if i >= items {
                        break;
                    }
                    if i >= dep {
                        h.step();
                        ctx.sem_wait(done[i - dep]);
                    }
                    h.step();
                    o.write(ctx, i, p as u64 + 1);
                    h.step();
                    ctx.compute_ops(20 + (i % 11) as u64);
                    h.step();
                    ctx.sem_post(done[i], 1);
                }
            });
            (stats, owner.snapshot())
        }
        Body::Poster => {
            let rounds = 3;
            let posts = 3 * MAX_OUTSTANDING + 2;
            let sem = m.semaphore(0);
            let cell = m.fetch_cell(0);
            let who = m.shared_vec::<u64>(rounds * nprocs, Placement::Interleaved);
            let w = who.clone();
            let stats = m.run(move |ctx| {
                let mut h = Host::new(&lg, ctx, seed);
                let p = ctx.id();
                for r in 0..rounds {
                    for j in 0..posts {
                        h.step();
                        match j % 3 {
                            0 => {
                                ctx.compute_ops(3 + j as u64);
                                h.step();
                                ctx.flush();
                            }
                            1 => ctx.phase(PHASES[(j / 3 + r) % 3]),
                            _ => ctx.sem_post(sem, 1),
                        }
                    }
                    h.step();
                    let t = h.ticket(ctx.fetch_add(cell, 1));
                    h.step();
                    w.write(ctx, t as usize, p as u64 + 1);
                }
            });
            (stats, who.snapshot())
        }
    };
    let stats = stats.unwrap_or_else(|e| panic!("{body:?} at {nprocs}p: {e}"));
    let mut out = Outcome::new(stats, output, &log);
    // Fetch-add tickets are unique and without gaps in any run.
    out.tickets.sort_unstable();
    let want: Vec<i64> = (0..out.tickets.len() as i64).collect();
    assert_eq!(out.tickets, want, "{body:?} at {nprocs}p, seed {seed:?}");
    (out, log.order_digest())
}

fn check(body: Body) {
    for nprocs in [4, 32] {
        let (want, _) = run(body, nprocs, None);
        let mut orders = HashSet::new();
        for seed in 1..=SEEDS {
            let (got, order) = run(body, nprocs, Some(seed));
            assert!(
                got == want,
                "{body:?} at {nprocs}p: jitter seed {seed} changed the run\n\
                 without jitter: {want:?}\nwith jitter:    {got:?}"
            );
            orders.insert(order);
        }
        assert!(
            orders.len() >= MIN_ORDERS,
            "{body:?} at {nprocs}p: {SEEDS} jitter seeds gave only {} distinct host arrival orders",
            orders.len()
        );
    }
}

#[test]
fn lock_heavy_body_ignores_host_timing() {
    check(Body::Locks);
}

#[test]
fn barrier_phased_body_ignores_host_timing() {
    check(Body::Barriers);
}

#[test]
fn semaphore_chain_ignores_host_timing() {
    check(Body::SemChain);
}

#[test]
fn protein_shaped_body_ignores_host_timing() {
    check(Body::Protein);
}

#[test]
fn long_runs_of_posts_ignore_host_timing() {
    check(Body::Poster);
}
