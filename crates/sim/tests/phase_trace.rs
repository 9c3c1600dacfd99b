//! End-to-end checks of phase accounting and the tracing subsystem on a
//! real multi-phase, multi-processor run: the per-phase breakdown must
//! partition each processor's time exactly, the trace's per-category
//! totals must reconcile with [`ProcStats`], and the Chrome trace-event
//! export must be structurally sound and deterministic.

use ccnuma_sim::prelude::*;

fn run_phased(nprocs: usize) -> RunStats {
    let mut cfg = MachineConfig::origin2000_scaled(nprocs, 16 << 10);
    cfg.trace = TraceConfig::on();
    let mut m = Machine::new(cfg).unwrap();
    let n = 64 * nprocs;
    let data = m.shared_vec::<u64>(n, Placement::Blocked);
    let acc = m.shared_vec::<u64>(1, Placement::Policy);
    let bar = m.barrier();
    let lk = m.lock();
    let nprocs_u = nprocs;
    m.run(move |ctx| {
        let chunk = n / nprocs_u;
        let lo = ctx.id() * chunk;
        ctx.phase("init");
        for i in lo..lo + chunk {
            data.write(ctx, i, i as u64);
        }
        ctx.barrier(bar);
        ctx.phase("work");
        let peer = (ctx.id() + 1) % nprocs_u;
        let mut s = 0u64;
        for i in peer * chunk..(peer + 1) * chunk {
            s += data.read(ctx, i);
            ctx.compute_flops(2);
        }
        ctx.with_lock(lk, || {
            let cur = acc.read(ctx, 0);
            acc.write(ctx, 0, cur + s);
        });
        ctx.barrier(bar);
        ctx.phase("reduce");
        let total = acc.read(ctx, 0);
        ctx.compute_ops(total % 7 + 1);
    })
    .unwrap()
}

#[test]
fn phases_partition_each_processor_exactly() {
    let stats = run_phased(4);
    let names: Vec<&str> = stats.phases.iter().map(|p| p.name.as_str()).collect();
    assert_eq!(names, ["main", "init", "work", "reduce"]);
    for (p, ps) in stats.procs.iter().enumerate() {
        let mut sum = PhaseBreakdown::default();
        for ph in &stats.phases {
            sum.add(&ph.procs[p]);
        }
        assert_eq!(sum.total_ns(), ps.total_ns(), "proc {p} phase partition");
        assert_eq!(sum.busy_ns, ps.busy_ns, "proc {p} busy");
        assert_eq!(sum.mem_ns, ps.mem_ns, "proc {p} mem");
        assert_eq!(sum.mem_local_ns, ps.mem_local_ns, "proc {p} mem local");
        assert_eq!(sum.mem_remote_ns, ps.mem_remote_ns, "proc {p} mem remote");
        assert_eq!(sum.sync_wait_ns, ps.sync_wait_ns, "proc {p} sync wait");
        assert_eq!(sum.sync_op_ns, ps.sync_op_ns, "proc {p} sync op");
    }
    // The lookup helper finds every phase, and the work phase did the
    // reads (each processor scanned a peer's block).
    assert!(stats.phase("work").is_some());
    assert!(stats.phase("nonesuch").is_none());
    let work = stats.phase("work").unwrap().total();
    assert!(work.mem_ns > 0, "work phase has memory stall");
}

#[test]
fn trace_reconciles_with_proc_stats() {
    let stats = run_phased(4);
    let trace = stats.trace.as_ref().expect("tracing was enabled");
    assert_eq!(trace.nprocs(), 4);
    for (p, ps) in stats.procs.iter().enumerate() {
        assert_eq!(trace.category_total(p, "busy"), ps.busy_ns, "proc {p} busy");
        assert_eq!(trace.category_total(p, "mem"), ps.mem_ns, "proc {p} mem");
        assert_eq!(
            trace.category_total(p, "sync"),
            ps.sync_ns(),
            "proc {p} sync"
        );
    }
    // Per-phase busy/mem/sync totals from the trace agree with the
    // RunStats averages within 1% (they are exact by construction; the
    // tolerance covers only f64 rounding).
    let grand: u64 = stats.procs.iter().map(|p| p.total_ns()).sum();
    let mut busy = 0u64;
    let mut mem = 0u64;
    let mut sync = 0u64;
    for (_, [b, m, s]) in trace.phase_totals() {
        busy += b;
        mem += m;
        sync += s;
    }
    assert_eq!(
        busy + mem + sync,
        grand,
        "trace phase totals partition the run"
    );
    let (ab, am, asy) = stats.avg_breakdown_pct();
    let tb = 100.0 * busy as f64 / grand as f64;
    let tm = 100.0 * mem as f64 / grand as f64;
    let ts = 100.0 * sync as f64 / grand as f64;
    // avg_breakdown_pct averages per-processor shares while the trace
    // ratio is time-weighted; on this balanced SPMD program they agree
    // closely.
    assert!((ab - tb).abs() < 1.0, "busy {ab:.2}% vs trace {tb:.2}%");
    assert!((am - tm).abs() < 1.0, "mem {am:.2}% vs trace {tm:.2}%");
    assert!((asy - ts).abs() < 1.0, "sync {asy:.2}% vs trace {ts:.2}%");
}

#[test]
fn chrome_export_is_sound_and_deterministic() {
    let a = run_phased(2);
    let b = run_phased(2);
    let ja = a.trace.as_ref().unwrap().to_chrome_json("phase-trace");
    let jb = b.trace.as_ref().unwrap().to_chrome_json("phase-trace");
    assert_eq!(ja, jb, "same program, same trace");
    assert!(ja.starts_with("{\"traceEvents\":["));
    assert!(ja.ends_with('}'));
    for needle in [
        "\"ph\":\"X\"",
        "\"ph\":\"M\"",
        "thread_name",
        "\"init\"",
        "\"work\"",
        "\"reduce\"",
    ] {
        assert!(ja.contains(needle), "missing {needle}");
    }
    // Balanced braces/brackets outside of string literals.
    let (mut depth, mut in_str, mut esc) = (0i64, false, false);
    for c in ja.chars() {
        if esc {
            esc = false;
        } else if in_str {
            match c {
                '\\' => esc = true,
                '"' => in_str = false,
                _ => {}
            }
        } else {
            match c {
                '"' => in_str = true,
                '{' | '[' => depth += 1,
                '}' | ']' => depth -= 1,
                _ => {}
            }
            assert!(depth >= 0);
        }
    }
    assert_eq!(depth, 0, "unbalanced JSON nesting");
    assert!(!in_str, "unterminated string");
}

#[test]
fn tracing_is_opt_in() {
    let cfg = MachineConfig::origin2000_scaled(2, 16 << 10);
    assert!(!cfg.trace.enabled, "tracing must be opt-in");
    let mut m = Machine::new(cfg).unwrap();
    let bar = m.barrier();
    let stats = m.run(move |ctx| ctx.barrier(bar)).unwrap();
    assert!(stats.trace.is_none());
}
