//! Every trace-driven (`measured`) experiment honours its deadline: under
//! an expired one, its `run` unwinds with [`fault::DeadlineExceeded`]
//! instead of finishing past it.
//!
//! This binary holds exactly one test, apart from `cancellation.rs`,
//! whose store counters must see no lookup while these runs make some.

use bench::fault;
use bench::registry::{self, RunCtx};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

#[test]
fn every_measured_experiment_unwinds_at_an_expired_deadline() {
    let ctx = RunCtx::with_instructions(20_000);
    let measured: Vec<_> = registry::all()
        .iter()
        .filter(|e| e.tags.contains(&"measured"))
        .collect();
    assert!(
        measured.len() >= 20,
        "{} measured experiments",
        measured.len()
    );
    for exp in measured {
        let payload = catch_unwind(AssertUnwindSafe(|| {
            let _scope = fault::enter_until(exp.id, Some(Instant::now()));
            (exp.run)(&ctx)
        }))
        .expect_err(exp.id);
        assert!(
            payload.is::<fault::DeadlineExceeded>(),
            "{}: {}",
            exp.id,
            fault::panic_text(&*payload)
        );
    }
}
