//! Request-coalescing contract of the trace store.
//!
//! This binary holds exactly one test so the process-wide store
//! counters see no traffic but its own: N concurrent lookups of one
//! cold key must pay exactly one build (the key gate), with every other
//! lookup served as a memo hit after blocking — never a duplicated
//! pass. All three tiers (timelines, histograms, traces) share the
//! contract.

use bench::tracestore::{self, StoreCounts};
use simcache::CacheConfig;
use simtrace::spec92::Spec92Program;
use simtrace::workload::builtin_spec;
use std::sync::{Arc, Barrier};

const THREADS: usize = 8;

/// Runs `lookup` on `THREADS` threads released together, returning
/// every result and the store counter increments of the race.
fn race<T: Send>(lookup: impl Fn() -> T + Sync) -> (Vec<T>, StoreCounts) {
    let before = tracestore::counters();
    let barrier = Barrier::new(THREADS);
    let results = std::thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                s.spawn(|| {
                    barrier.wait();
                    lookup()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    (results, tracestore::counters().since(&before))
}

#[test]
fn concurrent_same_key_lookups_extract_once() {
    let cache = CacheConfig::new(8 * 1024, 32, 2).expect("valid cache");
    let ear = builtin_spec(Spec92Program::Ear);
    let seed = 0xC0A1_E5CE; // unique to this binary: counters are all ours
    let hits = (THREADS - 1) as u64;

    // Timelines: N threads race one cold key.
    let (timelines, delta) = race(|| tracestore::workload_timeline(ear, seed, 200_000, &cache));
    assert_eq!(
        delta.timeline_misses, 1,
        "one cold key must cost exactly one extraction"
    );
    assert_eq!(
        delta.timeline_hits, hits,
        "every other lookup must be served from the memo"
    );
    assert!(
        timelines.iter().all(|t| Arc::ptr_eq(t, &timelines[0])),
        "all callers share one allocation"
    );

    // Histograms: same discipline on the reuse-distance fold path.
    let (hists, delta) =
        race(|| tracestore::workload_histograms(ear, seed, 200_000, 8, 128, 1 << 14, 40_000));
    assert_eq!(delta.hist_misses, 1, "one fold for N concurrent requests");
    assert_eq!(delta.hist_hits, hits);
    assert!(hists.iter().all(|h| Arc::ptr_eq(h, &hists[0])));

    // Traces: one generation, one materialisation every caller shares.
    // Raced last, so the folds above never found this trace resident.
    let (traces, delta) = race(|| tracestore::workload_trace(ear, seed, 200_000));
    assert_eq!(
        delta.trace_misses, 1,
        "one generation for N concurrent requests"
    );
    assert_eq!(delta.trace_hits, hits);
    assert!(traces.iter().all(|t| t.as_ptr() == traces[0].as_ptr()));

    // Waits are timing-dependent (a late arrival can re-probe without
    // ever blocking), but the counter must stay within the racers.
    let waits = tracestore::stats().coalesced_waits;
    assert!(
        waits <= 3 * hits,
        "at most N-1 waiters per cold key, got {waits}"
    );
}
