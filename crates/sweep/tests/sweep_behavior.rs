//! End-to-end behavior of the sweep engine: caching, resume, torn-write
//! recovery, quarantine, and deterministic replay.

use std::io::{Read, Seek, SeekFrom, Write};
use std::path::PathBuf;

use ccnuma_sweep::key::RunKey;
use ccnuma_sweep::matrix::MatrixSpec;
use ccnuma_sweep::run::RunOptions;
use ccnuma_sweep::store::{CellStatus, Store};
use ccnuma_sweep::{sweep, SweepConfig};
use scaling_study::runner::execute_workload;

fn temp_store(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ccnuma-sweep-test-{}-{name}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join("results.jsonl")
}

#[test]
fn golden_run_key_hash_is_pinned() {
    // A fully literal key: if this hash ever changes, every existing
    // result store on disk silently invalidates — that must be a
    // deliberate decision (bump ccnuma_sim::MODEL_FINGERPRINT instead).
    let key = RunKey {
        app: "fft".into(),
        version: "orig".into(),
        problem: "2^10 points".into(),
        nprocs: 4,
        scale: "quick".into(),
        machine: "00112233aabbccdd".into(),
        sim: "ccnuma-sim-model-r2".into(),
        attrib: false,
        sanitize: false,
        critpath: false,
        sched_seed: None,
    };
    assert_eq!(key.hash_hex(), "ddc0dcc6b56be4f7");

    // Sanitizing is part of the identity (it adds counts to the stored
    // record), but only when on — off hashes to the pre-sanitize key.
    let sanitized = RunKey {
        sanitize: true,
        ..key.clone()
    };
    assert_ne!(sanitized.hash_hex(), key.hash_hex());

    // Critical-path profiling follows the same rule: part of the
    // identity only when on, so pre-critpath stores stay valid.
    let profiled = RunKey {
        critpath: true,
        ..key.clone()
    };
    assert_ne!(profiled.hash_hex(), key.hash_hex());
    assert_ne!(profiled.hash_hex(), sanitized.hash_hex());

    // A schedule-perturbation seed is part of the identity the same way:
    // only when set, and every seed gets its own key.
    let seeded = RunKey {
        sched_seed: Some(3),
        ..key.clone()
    };
    assert_ne!(seeded.hash_hex(), key.hash_hex());
    assert_ne!(
        seeded.hash_hex(),
        RunKey {
            sched_seed: Some(4),
            ..key.clone()
        }
        .hash_hex()
    );

    // And the hash is a function of the field *set*, not field order:
    // hashing the reversed field list gives the same digest.
    let mut fields = key.fields();
    fields.reverse();
    assert_eq!(
        format!("{:016x}", ccnuma_sweep::key::hash_fields(&fields)),
        key.hash_hex()
    );
}

#[test]
fn replay_of_one_key_is_bit_identical() {
    // Two independent executions of the same cell must agree on every
    // bit of RunStats — the property that makes key-hash caching sound.
    let spec = MatrixSpec::parse("apps=fft versions=orig procs=4")
        .unwrap()
        .cells()
        .remove(0);
    let (ns_a, stats_a) =
        execute_workload(spec.workload().unwrap().as_ref(), spec.machine()).expect("first run");
    let (ns_b, stats_b) =
        execute_workload(spec.workload().unwrap().as_ref(), spec.machine()).expect("second run");
    assert_eq!(ns_a, ns_b, "wall clock must replay exactly");
    assert_eq!(stats_a, stats_b, "full statistics must replay exactly");
}

#[test]
fn fresh_sweep_then_resume_hits_cache_completely() {
    let path = temp_store("resume");
    let matrix = MatrixSpec::parse("apps=fft versions=orig procs=2,4").unwrap();
    let cfg = SweepConfig {
        jobs: 2,
        store_path: path.clone(),
        ..Default::default()
    };
    let first = sweep(&matrix, &cfg).unwrap();
    assert_eq!(first.executed, 2);
    assert_eq!(first.cached, 0);
    assert!(first.quarantined.is_empty(), "{:?}", first.quarantined);
    // Both processor counts share one sequential baseline, timed apart
    // from either cell's host_ms.
    assert!(first.baseline_time > std::time::Duration::ZERO);

    let resumed = sweep(
        &matrix,
        &SweepConfig {
            resume: true,
            ..cfg
        },
    )
    .unwrap();
    assert_eq!(resumed.executed, 0, "resume must re-run nothing");
    assert_eq!(resumed.cached, 2);
    assert_eq!(resumed.baseline_time, std::time::Duration::ZERO);
    assert_eq!(resumed.records, first.records, "cached records identical");
}

#[test]
fn duplicate_cells_in_a_hand_built_matrix_run_once() {
    // The DSL dedups apps/procs, but a hand-built spec can still carry
    // duplicates; they must collapse onto one run, not panic the stitch.
    let path = temp_store("dup");
    let mut matrix = MatrixSpec::parse("apps=fft versions=orig procs=4").unwrap();
    matrix.apps = vec!["fft".into(), "fft".into()];
    let out = sweep(
        &matrix,
        &SweepConfig {
            store_path: path,
            ..Default::default()
        },
    )
    .unwrap();
    assert_eq!(out.records.len(), 2, "one record per matrix cell");
    assert_eq!(out.executed, 1, "duplicate cells collapse onto one run");
    assert_eq!(out.cached, 1);
    assert_eq!(out.records[0], out.records[1]);
}

#[test]
fn torn_trailing_write_recovers_and_reruns_only_that_cell() {
    let path = temp_store("torn");
    let matrix = MatrixSpec::parse("apps=fft versions=orig procs=2,4,8").unwrap();
    let cfg = SweepConfig {
        jobs: 1,
        store_path: path.clone(),
        ..Default::default()
    };
    let first = sweep(&matrix, &cfg).unwrap();
    assert_eq!(first.executed, 3);

    // Tear the final record: chop the file mid-line, as a crash during
    // the last append would.
    let mut f = std::fs::OpenOptions::new()
        .read(true)
        .write(true)
        .open(&path)
        .unwrap();
    let mut content = String::new();
    f.read_to_string(&mut content).unwrap();
    let keep = content.trim_end().len() - 20;
    f.set_len(keep as u64).unwrap();
    f.seek(SeekFrom::End(0)).unwrap();
    f.flush().unwrap();

    let store = Store::open(&path, true).unwrap();
    assert_eq!(store.dropped_lines, 1, "exactly the torn line is dropped");
    assert_eq!(store.len(), 2);
    drop(store);

    let resumed = sweep(
        &matrix,
        &SweepConfig {
            resume: true,
            ..cfg.clone()
        },
    )
    .unwrap();
    assert_eq!(resumed.executed, 1, "only the torn cell re-runs");
    assert_eq!(resumed.cached, 2);
    // host_ms is host wall-clock and naturally varies between the runs;
    // everything simulated must recover bit-identically.
    let strip_host = |recs: &[ccnuma_sweep::store::CellRecord]| {
        recs.iter()
            .cloned()
            .map(|mut r| {
                r.host_ms = 0;
                r
            })
            .collect::<Vec<_>>()
    };
    assert_eq!(
        strip_host(&resumed.records),
        strip_host(&first.records),
        "recovered to the same state"
    );

    // The record appended during the resume must land on its own line
    // (not glued onto the torn fragment): a further resume reloads all
    // three cells and re-runs nothing.
    let reloaded = sweep(
        &matrix,
        &SweepConfig {
            resume: true,
            ..cfg
        },
    )
    .unwrap();
    assert_eq!(reloaded.executed, 0, "re-appended record reloads cleanly");
    assert_eq!(reloaded.cached, 3);
    assert_eq!(
        reloaded.dropped_lines, 0,
        "torn fragment was truncated away"
    );
}

#[test]
fn injected_panic_is_quarantined_without_aborting_the_sweep() {
    let path = temp_store("panic");
    let matrix = MatrixSpec::parse("apps=fft versions=orig procs=2,4").unwrap();
    let poisoned = matrix.cells()[0].label();
    let cfg = SweepConfig {
        jobs: 2,
        store_path: path.clone(),
        opts: RunOptions {
            retries: 1,
            timeout: None,
            inject_panic: Some(poisoned.clone()),
        },
        ..Default::default()
    };
    let out = sweep(&matrix, &cfg).unwrap();
    assert_eq!(out.executed, 2, "the healthy cell still runs");
    assert_eq!(out.quarantined, vec![poisoned.clone()]);
    let bad = out.records.iter().find(|r| r.label == poisoned).unwrap();
    assert_eq!(bad.status, CellStatus::Panicked);
    assert_eq!(bad.attempts, 2, "initial try + 1 retry");
    let good = out.records.iter().find(|r| r.label != poisoned).unwrap();
    assert_eq!(good.status, CellStatus::Ok);

    // A plain resume skips the quarantined cell; retry_quarantined
    // re-runs it (now without the fault) and it heals.
    let resumed = sweep(
        &matrix,
        &SweepConfig {
            resume: true,
            opts: RunOptions::default(),
            ..cfg.clone()
        },
    )
    .unwrap();
    assert_eq!(resumed.executed, 0, "quarantine is sticky on plain resume");
    assert_eq!(resumed.quarantined, vec![poisoned.clone()]);

    let healed = sweep(
        &matrix,
        &SweepConfig {
            resume: true,
            retry_quarantined: true,
            opts: RunOptions::default(),
            ..cfg
        },
    )
    .unwrap();
    assert_eq!(healed.executed, 1, "only the quarantined cell re-runs");
    assert!(healed.quarantined.is_empty());
    assert!(healed.records.iter().all(|r| r.status == CellStatus::Ok));
}

#[test]
fn sanitize_outcome_is_identical_across_job_counts() {
    // The sanitizer consumes the engine's deterministic event stream, so
    // its output must not depend on how cells are scheduled over host
    // threads: `--jobs 1` and `--jobs 3` agree bit-for-bit.
    let matrix = MatrixSpec::parse("apps=fft,radix versions=orig procs=2,4 sanitize=on").unwrap();
    let run = |name: &str, jobs: usize| {
        sweep(
            &matrix,
            &SweepConfig {
                jobs,
                store_path: temp_store(name),
                ..Default::default()
            },
        )
        .unwrap()
    };
    let serial = run("san-jobs1", 1);
    let parallel = run("san-jobs3", 3);
    assert_eq!(serial.executed, 4);
    let strip_host = |recs: &[ccnuma_sweep::store::CellRecord]| {
        recs.iter()
            .cloned()
            .map(|mut r| {
                r.host_ms = 0;
                r
            })
            .collect::<Vec<_>>()
    };
    assert_eq!(strip_host(&serial.records), strip_host(&parallel.records));
    assert_eq!(serial.sanitizes, parallel.sanitizes, "full reports agree");
    assert_eq!(serial.sanitizes.len(), 4);
    assert!(
        serial.records.iter().all(|r| r.sanitize.is_some()),
        "every cell carries counts"
    );
}

#[test]
fn critpath_outcome_is_identical_across_job_counts() {
    // The critical-path collector consumes the engine's deterministic
    // event stream, so its output must not depend on scheduling either:
    // `--jobs 1` and `--jobs 3` agree bit-for-bit, reports included.
    let matrix = MatrixSpec::parse("apps=fft,radix versions=orig procs=2,4 critpath=on").unwrap();
    let run = |name: &str, jobs: usize| {
        sweep(
            &matrix,
            &SweepConfig {
                jobs,
                store_path: temp_store(name),
                ..Default::default()
            },
        )
        .unwrap()
    };
    let serial = run("cp-jobs1", 1);
    let parallel = run("cp-jobs3", 3);
    assert_eq!(serial.executed, 4);
    let strip_host = |recs: &[ccnuma_sweep::store::CellRecord]| {
        recs.iter()
            .cloned()
            .map(|mut r| {
                r.host_ms = 0;
                r
            })
            .collect::<Vec<_>>()
    };
    assert_eq!(strip_host(&serial.records), strip_host(&parallel.records));
    assert_eq!(serial.critpaths, parallel.critpaths, "full reports agree");
    assert_eq!(serial.critpaths.len(), 4);
    for r in &serial.records {
        let [busy, mem, sync] = r.critpath.expect("every cell carries a path summary");
        assert_eq!(
            busy + mem + sync,
            r.wall_ns,
            "{}: path sums to wall",
            r.label
        );
    }
}

#[test]
fn attrib_and_trace_sweeps_write_reports() {
    let base =
        std::env::temp_dir().join(format!("ccnuma-sweep-test-{}-reports", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    std::fs::create_dir_all(&base).unwrap();
    let matrix = MatrixSpec::parse("apps=fft versions=orig procs=4 attrib=on trace=on").unwrap();
    let cfg = SweepConfig {
        jobs: 1,
        store_path: base.join("results.jsonl"),
        attrib_dir: Some(base.join("attrib")),
        trace_dir: Some(base.join("trace")),
        ..Default::default()
    };
    let out = sweep(&matrix, &cfg).unwrap();
    assert_eq!(out.executed, 1);
    assert!(
        out.records[0].causes.iter().sum::<u64>() > 0,
        "attrib counts"
    );
    let attrib = std::fs::read_to_string(base.join("attrib/fft_orig_4p.json")).unwrap();
    assert!(attrib.contains("\"cold\""), "{attrib}");
    let trace = std::fs::read_to_string(base.join("trace/fft_orig_4p.trace.json")).unwrap();
    assert!(trace.contains("traceEvents"), "trace file is chrome format");

    // Resumed cached cells re-emit nothing (trace is observational).
    std::fs::remove_dir_all(base.join("trace")).unwrap();
    let resumed = sweep(
        &matrix,
        &SweepConfig {
            resume: true,
            ..cfg
        },
    )
    .unwrap();
    assert_eq!(resumed.executed, 0);
    assert!(!base.join("trace").exists(), "cached cells write no trace");
}
