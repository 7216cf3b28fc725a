//! Per-experiment trace-store accounting of the suite scheduler.
//!
//! This binary holds exactly one test so the process-wide store
//! counters see no traffic but its own. Two experiments run side by
//! side (`jobs = 2`), held together at their start and end so each one's
//! lookups fall inside the other's run. Each row must still count only
//! its own lookups, and the rows must sum to the suite totals.

use bench::registry::{ExpReport, Experiment, RunCtx};
use bench::sched::{run_suite, RetryPolicy, SuiteOptions};
use bench::tracestore::{self, StoreCounts};
use simtrace::workload::builtin;
use std::sync::{Condvar, Mutex};
use std::time::Duration;

/// Blocks until `n` arrivals in all have reached a meeting point, so the
/// two experiments are both running between their first and second
/// meeting. Panics instead of hanging if the other never comes.
fn meet(n: u32) {
    static ARRIVED: Mutex<u32> = Mutex::new(0);
    static MET: Condvar = Condvar::new();
    let mut arrived = ARRIVED.lock().expect("no holder panics");
    *arrived += 1;
    MET.notify_all();
    let (arrived, timeout) = MET
        .wait_timeout_while(arrived, Duration::from_secs(30), |a| *a < n)
        .expect("no holder panics");
    assert!(
        !timeout.timed_out(),
        "only {arrived} of {n} arrivals: the experiments did not overlap"
    );
}

/// Looks up `name`'s trace `lookups` times on the experiment's own
/// thread, the first a miss.
fn lookups(name: &str, lookups: usize) -> ExpReport {
    let spec = builtin(name).expect("a builtin");
    meet(2);
    tracestore::workload_trace(spec, 0x5C09_E5ED, 2_000);
    for _ in 1..lookups {
        tracestore::workload_trace(spec, 0x5C09_E5ED, 1_000);
    }
    meet(4);
    ExpReport::text_only(format!("{name}\n"))
}

const fn experiment(id: &'static str, run: fn(&RunCtx) -> ExpReport) -> Experiment {
    Experiment {
        id,
        title: id,
        tags: &["attribution"],
        traces: &[],
        module: module_path!(),
        cost: 0,
        run,
    }
}

static LEFT: Experiment = experiment("left", |_| lookups("ear", 4));
static RIGHT: Experiment = experiment("right", |_| lookups("doduc", 2));

#[test]
fn concurrent_rows_sum_to_the_suite_totals() {
    let opts = SuiteOptions {
        jobs: 2,
        ctx: RunCtx::with_instructions(1_000),
        keep_going: false,
        timeout: None,
        retry: RetryPolicy {
            max_retries: 0,
            backoff: Duration::ZERO,
        },
    };
    let run = run_suite(&[&LEFT, &RIGHT], &opts);
    let rows: Vec<_> = run.outcomes.iter().map(|o| (o.id, o.store)).collect();
    let traces = |hits, misses| StoreCounts {
        trace_hits: hits,
        trace_misses: misses,
        ..StoreCounts::default()
    };
    assert_eq!(rows, [("left", traces(3, 1)), ("right", traces(1, 1))]);
    assert_eq!(run.store, traces(4, 2), "the suite totals");
}
