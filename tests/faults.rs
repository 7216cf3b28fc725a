//! Fault isolation end to end: a deterministic fault plan degrades the
//! suite the same way serially and under `--jobs N`, transient faults
//! retry to byte-identical documents, strict runs stop with a typed
//! error, and a poisoned trace-store lock is recovered, not fatal.
//!
//! Every test arms its own [`FaultPlan`]; the arm gate serialises them
//! so plans never overlap within the process.

use bench::fault::{self, FaultKind, FaultPlan, Site};
use bench::registry::RunCtx;
use bench::sched::{drive, run_suite, RetryPolicy, SuiteOptions};
use bench::Error;
use std::fs;
use std::path::PathBuf;
use std::time::Duration;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("faults_it_{tag}"));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn opts(jobs: usize) -> SuiteOptions {
    SuiteOptions::new(jobs, RunCtx::with_instructions(2_000))
        .keep_going(true)
        .with_timeout(None)
}

fn fast_retry(mut o: SuiteOptions) -> SuiteOptions {
    o.retry = RetryPolicy {
        max_retries: 3,
        backoff: Duration::ZERO,
    };
    o
}

/// One panic plus one retry-exhausting I/O fault, pinned to run sites
/// (run-site shots are claimed per experiment id, so the same failures
/// fire regardless of schedule). Fresh per run: shot counters deplete.
fn degraded_plan() -> FaultPlan {
    FaultPlan::new()
        .with(Site::Run, "fig2", FaultKind::Panic, 1)
        .with(Site::Run, "victim", FaultKind::Io, u32::MAX)
}

#[test]
fn serial_and_parallel_degraded_runs_are_byte_identical() {
    let serial_dir = tmp_dir("serial");
    let parallel_dir = tmp_dir("parallel");

    let serial = {
        let _armed = fault::arm(degraded_plan());
        drive("all", &fast_retry(opts(1)), &serial_dir).expect("keep-going run returns Ok")
    };
    let parallel = {
        let _armed = fault::arm(degraded_plan());
        drive("all", &fast_retry(opts(4)), &parallel_dir).expect("keep-going run returns Ok")
    };

    assert_eq!(serial.run.document(), parallel.run.document());
    let m_serial = serial.manifest.expect("full runs write a manifest");
    let m_parallel = parallel.manifest.expect("full runs write a manifest");
    assert_eq!(m_serial.to_json(), m_parallel.to_json());
    let on_disk = fs::read_to_string(serial_dir.join(report::MANIFEST_NAME)).unwrap();
    assert_eq!(on_disk, m_serial.to_json());

    // Exactly the two faulted experiments failed; everything else ran.
    let statuses = &m_serial.statuses;
    assert_eq!(statuses.len(), bench::registry::all().len());
    let failed: Vec<&str> = statuses
        .iter()
        .filter(|s| s.status != "ok")
        .map(|s| s.id.as_str())
        .collect();
    assert_eq!(failed, ["fig2", "victim"]);
    assert!(serial.run.document().contains("Suite failures"));
    assert!(serial.run.document().contains("fig2: failed — panicked"));
    // Failed experiments write no artifacts.
    assert!(!serial_dir.join("fig2.csv").exists());
    assert!(serial_dir.join("fig1.csv").exists());

    let _ = fs::remove_dir_all(&serial_dir);
    let _ = fs::remove_dir_all(&parallel_dir);
}

#[test]
fn transient_faults_retry_to_a_byte_identical_document() {
    let selection = bench::registry::matching("fig2").unwrap();
    let clean = {
        let _armed = fault::arm(FaultPlan::new());
        run_suite(&selection, &fast_retry(opts(1)))
    };
    let retried = {
        let _armed = fault::arm(FaultPlan::new().with(Site::Run, "fig2", FaultKind::Io, 2));
        run_suite(&selection, &fast_retry(opts(1)))
    };
    assert_eq!(retried.outcomes[0].status(), "retried(2)");
    assert!(retried.degraded());
    assert!(!retried.has_failures());
    assert_eq!(clean.document(), retried.document());
}

#[test]
fn strict_runs_stop_with_a_typed_error() {
    let dir = tmp_dir("strict");
    let _armed = fault::arm(FaultPlan::new().with(Site::Run, "fig2", FaultKind::Panic, 1));
    let err = drive("fig2", &fast_retry(opts(1)).keep_going(false), &dir).unwrap_err();
    match err {
        Error::Experiment { id, failure } => {
            assert_eq!(id, "fig2");
            assert_eq!(failure.status(), "failed");
        }
        other => panic!("expected experiment failure, got {other}"),
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn a_poisoned_store_lock_is_recovered_and_retried() {
    // fig1 reads the memoised SPEC working set; an injected fault at the
    // lock site unwinds while the store mutex is held, poisoning it. The
    // retry must recover the lock (clearing the wedged map) and succeed.
    let before = bench::tracestore::poison_recoveries();
    let selection = bench::registry::matching("fig1").unwrap();
    let run = {
        let _armed = fault::arm(FaultPlan::new().with(Site::Lock, "fig1", FaultKind::Io, 1));
        run_suite(&selection, &fast_retry(opts(1)))
    };
    assert!(
        !run.has_failures(),
        "lock fault should be retried, got {}",
        run.outcomes[0].status()
    );
    assert_eq!(run.outcomes[0].status(), "retried(1)");
    assert!(
        bench::tracestore::poison_recoveries() > before,
        "the poisoned store mutex was recovered"
    );
}
