//! The store's observability snapshot must never wait on a cold build.
//!
//! A cold trace lookup generates inside its key claim, outside the map
//! lock, so `tracestore::stats()` (the `/stats` endpoint and the
//! scheduler footer) answers while the generation is still running.
//! This binary holds exactly one test: fault plans are process-wide.

use bench::fault::{self, FaultKind, FaultPlan, Site};
use bench::tracestore;
use simtrace::workload::builtin;
use std::time::{Duration, Instant};

const LEN: usize = 10_000;

#[test]
fn stats_answer_during_a_cold_generation() {
    std::thread::scope(|s| {
        let generator = s.spawn(|| {
            let _scope = fault::enter("probe");
            let slow = FaultKind::Delay(Duration::from_millis(1_500));
            let _armed = fault::arm(FaultPlan::new().with(Site::Extract, "probe", slow, 1));
            tracestore::workload_trace(builtin("ear").unwrap(), 0x57A7, LEN).len()
        });
        // Let the generator reach its (delayed) build.
        std::thread::sleep(Duration::from_millis(200));
        let started = Instant::now();
        let during = tracestore::stats();
        let waited = started.elapsed();
        assert!(
            waited < Duration::from_millis(500),
            "stats() waited {waited:?} behind a cold generation"
        );
        assert_eq!(during.trace_bytes, 0, "nothing is materialised yet");
        assert_eq!(generator.join().unwrap(), LEN);
    });
    let after = tracestore::stats();
    assert_eq!(after.counts.trace_misses, 1);
    assert_eq!(after.trace_bytes, (LEN * simtrace::INSTR_BYTES) as u64);
}
