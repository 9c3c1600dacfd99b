//! Randomized property tests over the simulator's core data structures and
//! the applications' algorithmic kernels, driven by the workspace's own
//! seeded [`XorShift`] generator so the suite is deterministic and needs no
//! external property-testing dependency.

use ccnuma_repro::ccnuma_sim::cache::{Cache, LineState};
use ccnuma_repro::ccnuma_sim::config::{CacheConfig, MachineConfig};
use ccnuma_repro::ccnuma_sim::machine::{Machine, Placement};
use ccnuma_repro::ccnuma_sim::mapping::ProcessMapping;
use ccnuma_repro::ccnuma_sim::memsys::{AccessClass, AccessKind, MemorySystem};
use ccnuma_repro::ccnuma_sim::page::PageTable;
use ccnuma_repro::ccnuma_sim::topology::{Topology, TopologyKind};
use ccnuma_repro::splash_apps::common::{chunk_range, Cx, XorShift};
use ccnuma_repro::splash_apps::fft::fft_inplace;

#[test]
fn chunk_ranges_partition_exactly() {
    let mut rng = XorShift::new(11);
    for _ in 0..64 {
        let n = rng.below(500) as usize;
        let p = 1 + rng.below(39) as usize;
        let mut covered = vec![0u8; n];
        for i in 0..p {
            for j in chunk_range(n, p, i) {
                covered[j] += 1;
            }
        }
        assert!(covered.iter().all(|&c| c == 1), "n={n} p={p}");
    }
}

#[test]
fn topology_routes_are_symmetric_and_bounded() {
    let mut rng = XorShift::new(12);
    for _ in 0..64 {
        let nodes = 1 + rng.below(63) as usize;
        let a = rng.below(64) as usize % nodes;
        let b = rng.below(64) as usize % nodes;
        for kind in [
            TopologyKind::FullHypercube,
            TopologyKind::MetaModules {
                routers_per_module: 8,
            },
            TopologyKind::Ideal,
        ] {
            let t = Topology::new(kind, nodes, 2);
            let ab = t.route(a, b);
            let ba = t.route(b, a);
            assert_eq!(ab.hops, ba.hops);
            assert!(ab.hops <= 16);
            if a == b {
                assert_eq!(ab.hops, 0);
            }
        }
    }
}

#[test]
fn mappings_are_always_permutations() {
    let mut rng = XorShift::new(13);
    for _ in 0..64 {
        let nprocs = 1 + rng.below(128) as usize;
        let seed = rng.next_u64();
        for mapping in [ProcessMapping::Linear, ProcessMapping::Random { seed }] {
            let perm = mapping.resolve(nprocs, 2).unwrap();
            let mut seen = vec![false; nprocs];
            for &s in &perm {
                assert!(!seen[s], "nprocs={nprocs} seed={seed}");
                seen[s] = true;
            }
        }
    }
}

#[test]
fn cache_occupancy_never_exceeds_capacity() {
    let mut rng = XorShift::new(14);
    for _ in 0..64 {
        let cfg = CacheConfig {
            size_bytes: 2048,
            assoc: 2,
            line_bytes: 64,
        };
        let capacity = cfg.size_bytes / cfg.line_bytes;
        let mut c = Cache::new(cfg);
        let n = 1 + rng.below(299);
        for _ in 0..n {
            let line = rng.below(512);
            if rng.below(4) == 0 {
                c.invalidate(line);
                assert!(c.state_of(line).is_none());
            } else {
                let state = if rng.below(2) == 1 {
                    LineState::Modified
                } else {
                    LineState::Shared
                };
                c.insert(line, state, 0);
                // An inserted line is immediately visible.
                assert!(c.state_of(line).is_some());
            }
            // Inserts into full sets evict; the kept count must track it.
            assert_eq!(c.occupancy(), c.resident_lines().len());
            assert!(c.occupancy() <= capacity);
        }
    }
}

#[test]
fn first_touch_page_homes_are_stable() {
    use ccnuma_repro::ccnuma_sim::config::PagePlacement;
    let mut rng = XorShift::new(15);
    for _ in 0..64 {
        let mut t = PageTable::new(1024, 8, 1 << 30, PagePlacement::FirstTouch, None);
        let mut homes = std::collections::HashMap::new();
        let n = 1 + rng.below(199);
        for _ in 0..n {
            let page = rng.below(64);
            let node = rng.below(8) as usize;
            let addr = page * 1024 + 17;
            let h = t.home_of(addr, node);
            let prev = homes.entry(page).or_insert(h);
            assert_eq!(*prev, h, "page home moved without migration");
        }
    }
}

#[test]
fn coherence_keeps_readers_consistent_with_writes() {
    // Model check: after any interleaving of writes by 4 procs to 8
    // lines, a read by any proc returns without panicking and hits or
    // misses coherently (a second read by the same proc always hits).
    let mut rng = XorShift::new(16);
    for _ in 0..64 {
        let cfg = MachineConfig::origin2000_scaled(4, 16 << 10);
        let perm: Vec<usize> = (0..4).collect();
        let mut mem = MemorySystem::new(&cfg, &perm);
        let mut now = 0;
        let writes = 1 + rng.below(59);
        for _ in 0..writes {
            now += 1000;
            let p = rng.below(4) as usize;
            let line = rng.below(8);
            mem.access(p, line * 128, AccessKind::Write, now);
        }
        for p in 0..4 {
            for line in 0..8u64 {
                now += 1000;
                mem.access(p, line * 128, AccessKind::Read, now);
                now += 1000;
                let again = mem.access(p, line * 128, AccessKind::Read, now);
                assert_eq!(again.class, AccessClass::Hit);
            }
        }
    }
}

#[test]
fn fft_is_linear() {
    // FFT(c·x) = c·FFT(x): checks the kernel used by every FFT run.
    let mut rng = XorShift::new(17);
    for _ in 0..64 {
        let scale = rng.range_f64(0.1, 10.0);
        let n = 64;
        let x: Vec<Cx> = (0..n)
            .map(|i| Cx::new((i as f64).sin(), (i as f64 * 0.7).cos()))
            .collect();
        let mut a = x.clone();
        fft_inplace(&mut a);
        let mut b: Vec<Cx> = x
            .iter()
            .map(|v| Cx::new(v.re * scale, v.im * scale))
            .collect();
        fft_inplace(&mut b);
        for i in 0..n {
            assert!((b[i].re - a[i].re * scale).abs() < 1e-9 * (1.0 + a[i].re.abs()));
            assert!((b[i].im - a[i].im * scale).abs() < 1e-9 * (1.0 + a[i].im.abs()));
        }
    }
}

// Whole-application properties are more expensive: fewer cases.

#[test]
fn radix_sorts_arbitrary_inputs() {
    let mut rng = XorShift::new(18);
    for _ in 0..8 {
        let mut app = ccnuma_repro::splash_apps::radix::Radix::new(1500);
        app.seed = rng.next_u64();
        let np = 1 + rng.below(8) as usize;
        let mut m = Machine::new(MachineConfig::origin2000_scaled(np, 16 << 10)).unwrap();
        let job = ccnuma_repro::splash_apps::common::Workload::build(&app, &mut m);
        let body = job.body;
        m.run(move |ctx| body(ctx)).unwrap();
        assert!((job.verify)().is_ok());
    }
}

#[test]
fn sample_sort_sorts_arbitrary_inputs() {
    let mut rng = XorShift::new(19);
    for _ in 0..8 {
        let mut app = ccnuma_repro::splash_apps::sample_sort::SampleSort::new(1500);
        app.seed = rng.next_u64();
        let np = 1 + rng.below(8) as usize;
        let mut m = Machine::new(MachineConfig::origin2000_scaled(np, 16 << 10)).unwrap();
        let job = ccnuma_repro::splash_apps::common::Workload::build(&app, &mut m);
        let body = job.body;
        m.run(move |ctx| body(ctx)).unwrap();
        assert!((job.verify)().is_ok());
    }
}

#[test]
fn shared_memory_roundtrips_any_data() {
    let mut rng = XorShift::new(20);
    for _ in 0..8 {
        let len = 1 + rng.below(199) as usize;
        let data: Vec<u64> = (0..len).map(|_| rng.next_u64()).collect();
        let np = 1 + rng.below(4) as usize;
        let mut m = Machine::new(MachineConfig::origin2000_scaled(np, 16 << 10)).unwrap();
        let v = m.shared_vec::<u64>(data.len(), Placement::Interleaved);
        v.copy_from_slice(&data);
        let v2 = v.clone();
        let n = data.len();
        m.run(move |ctx| {
            // Every proc reads everything; proc 0 rewrites incremented.
            let mut acc = 0u64;
            for i in 0..n {
                acc = acc.wrapping_add(v2.read(ctx, i));
            }
            ctx.compute_ops(acc % 3);
            if ctx.id() == 0 {
                for i in 0..n {
                    let x = v2.read(ctx, i);
                    v2.write(ctx, i, x.wrapping_add(1));
                }
            }
        })
        .unwrap();
        for (i, d) in data.iter().enumerate() {
            assert_eq!(v.get(i), d.wrapping_add(1));
        }
    }
}
