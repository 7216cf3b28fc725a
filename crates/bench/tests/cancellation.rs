//! Experiments that loop over programs or design points stop at an
//! expired deadline before their next item, on their own thread.
//!
//! This binary holds exactly one test so the process-wide store
//! counters see no traffic but its own.

use bench::common::{phi_matrix, PhiPoint};
use bench::{assumptions, fault, tracestore};
use simcpu::StallFeature;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Runs `work` under an already-expired deadline and asserts that it
/// unwinds with [`fault::DeadlineExceeded`].
fn unwinds_at_the_deadline(what: &str, work: impl FnOnce()) {
    let payload = catch_unwind(AssertUnwindSafe(|| {
        let _scope = fault::enter_until("expired", Some(Instant::now()));
        work();
    }))
    .expect_err(what);
    assert!(
        payload.is::<fault::DeadlineExceeded>(),
        "{what}: {}",
        fault::panic_text(&*payload)
    );
}

#[test]
fn expired_deadlines_stop_the_experiment_loops_before_any_lookup() {
    let before = tracestore::counters();
    unwinds_at_the_deadline("assumptions::run", || {
        assumptions::run(10_000);
    });
    let points: [PhiPoint; 2] = [(StallFeature::FullStall, 8), (StallFeature::BusLocked, 8)];
    unwinds_at_the_deadline("phi_matrix", || {
        phi_matrix(&points, 32, 4, 10_000);
    });
    assert_eq!(tracestore::counters(), before, "no store lookup ran");
}
