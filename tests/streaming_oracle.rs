//! Streaming-vs-monolithic oracle: the chunked pipeline (`bench::stream`,
//! the streaming trace store, the streaming sweep engine) must be
//! byte-identical to the whole-trace paths — serially, under `--jobs N`,
//! and with an armed fault plan degrading the run. "Byte-identical"
//! is literal: suite documents and CSV artifacts are compared as
//! rendered bytes, folded stats as exact values.

use bench::fault::{self, FaultKind, FaultPlan, Site};
use bench::registry::RunCtx;
use bench::sched::{run_suite, RetryPolicy, SuiteOptions};
use bench::stream::{self, ChunkSink, Source};
use bench::sweep::{artifact, run_sweep, SWEEP_SEED};
use simcache::explore::{hit_ratio_grid_replay, GridSpec};
use simcache::stackdist::StackDistSweep;
use simcache::Simulated;
use simcpu::{MissTimeline, MissTimelineBuilder};
use simtrace::workload::{builtin, WorkloadSpec};
use simtrace::Instr;
use std::time::Duration;

const N: usize = 6_000;

fn opts(jobs: usize) -> SuiteOptions {
    let mut o = SuiteOptions::new(jobs, RunCtx::with_instructions(2_000))
        .keep_going(true)
        .with_timeout(None);
    o.retry = RetryPolicy {
        max_retries: 3,
        backoff: Duration::ZERO,
    };
    o
}

/// Folds the first `N` instructions of `spec` through `sinks`, from
/// the materialised `trace` or from the generator.
fn fold_n<S: ChunkSink>(
    resident: bool,
    trace: &[Instr],
    spec: &WorkloadSpec,
    chunk: usize,
    sinks: &mut [S],
) {
    let source = if resident {
        Source::Resident(trace)
    } else {
        Source::Generated(spec.compile(SWEEP_SEED).take(N))
    };
    stream::fold(source, chunk, sinks);
}

#[test]
fn streaming_sweep_matches_per_config_replay() {
    // The whole-trace oracles are the independent per-configuration
    // replay and the monolithic timeline extraction, not another fold:
    // agreement here checks the chunked driver end to end, not merely
    // that two code paths share bugs.
    let grid = GridSpec {
        cache_sizes: vec![1024, 4096, 16 * 1024],
        line_sizes: vec![16, 32, 64],
        assocs: vec![1, 2],
        warmup: 1_000,
    };
    let cache = bench::common::figure1_cache(32);
    let workloads = [builtin("swm256").unwrap(), builtin("doduc").unwrap()];
    let two_way = GridSpec {
        assocs: vec![2],
        ..grid.clone()
    };
    for ws in run_sweep(&workloads, &two_way, N) {
        let replay = hit_ratio_grid_replay(&two_way, || ws.workload.compile(SWEEP_SEED).take(N));
        assert_eq!(ws.points, replay.unwrap(), "{}", ws.workload.label());
    }
    // The driver's matrix: resident slice or generator; one sink (the
    // serial loop) or several (the parallel loop, given two CPUs); chunk
    // sizes from one instruction to the whole trace.
    for spec in workloads {
        let trace: Vec<Instr> = spec.compile(SWEEP_SEED).take(N).collect();
        let replay = hit_ratio_grid_replay(&grid, || trace.iter().copied()).unwrap();
        let timeline = MissTimeline::extract(cache, trace.iter().copied());
        for chunk in [1, 257, 4_096, N] {
            for resident in [true, false] {
                let at = format!("{} chunk={chunk} resident={resident}", spec.label());
                let mut sweeps = grid.sweeps().unwrap();
                let mut builder = MissTimelineBuilder::new(cache);
                let mut sinks: Vec<&mut dyn ChunkSink> =
                    sweeps.iter_mut().map(|s| s as &mut dyn ChunkSink).collect();
                sinks.push(&mut builder);
                fold_n(resident, &trace, spec, chunk, &mut sinks);
                let points = Simulated::from_sweeps(sweeps).points(&grid).unwrap();
                assert_eq!(points, replay, "{at}, several sinks");
                assert_eq!(builder.finish(), timeline, "{at}, several sinks");

                let mut sweeps = grid.sweeps().unwrap();
                for sweep in &mut sweeps {
                    fold_n(resident, &trace, spec, chunk, std::slice::from_mut(sweep));
                }
                let points = Simulated::from_sweeps(sweeps).points(&grid).unwrap();
                assert_eq!(points, replay, "{at}, one sink");
                let mut builder = MissTimelineBuilder::new(cache);
                fold_n(resident, &trace, spec, chunk, &mut [&mut builder]);
                assert_eq!(builder.finish(), timeline, "{at}, one sink");
            }
        }
    }
}

#[test]
fn streaming_timeline_matches_whole_trace_extraction() {
    let cache = bench::common::figure1_cache(32);
    let seed = 0x04AC1E;
    let whole: Vec<Instr> = builtin("ear").unwrap().compile(seed).take(N).collect();
    let oracle = MissTimeline::extract(cache, whole.iter().copied());
    // Cold store lookup streams chunk by chunk — identical timeline.
    let streamed = bench::tracestore::workload_timeline(
        simtrace::workload::builtin("ear").unwrap(),
        seed,
        N,
        &cache,
    );
    assert_eq!(*streamed, oracle);
    // A mixed one-pass fold extracts the same timeline again.
    let mut builder = MissTimelineBuilder::new(cache);
    let mut sweep = StackDistSweep::new(32, 5, 2, 1_000).unwrap();
    stream::fold(
        Source::Generated(builtin("ear").unwrap().compile(seed).take(N)),
        1_024,
        &mut [&mut builder as &mut dyn ChunkSink, &mut sweep],
    );
    assert_eq!(builder.finish(), oracle);
}

#[test]
fn streamed_suite_documents_match_serially_and_in_parallel() {
    // fig1 exercises the streaming timeline store, sweep the streaming
    // fold engine; their documents and artifacts must not depend on the
    // worker count.
    let selection: Vec<_> = bench::registry::all()
        .iter()
        .filter(|e| e.id == "fig1" || e.id == "sweep" || e.id == "fig6")
        .collect();
    assert_eq!(selection.len(), 3);
    let serial = {
        let _armed = fault::arm(FaultPlan::new());
        run_suite(&selection, &opts(1))
    };
    let parallel = {
        let _armed = fault::arm(FaultPlan::new());
        run_suite(&selection, &opts(4))
    };
    assert!(!serial.has_failures() && !parallel.has_failures());
    assert_eq!(serial.document(), parallel.document());
}

#[test]
fn streamed_suite_survives_an_armed_fault_plan_byte_identically() {
    // Faults at the store's lock and extract sites unwind inside the
    // streaming paths; retries must recover to the clean document under
    // any worker count.
    let plan = || {
        FaultPlan::new()
            .with(Site::Lock, "fig1", FaultKind::Io, 1)
            .with(Site::Extract, "sweep", FaultKind::Io, 1)
    };
    let selection: Vec<_> = bench::registry::all()
        .iter()
        .filter(|e| e.id == "fig1" || e.id == "sweep")
        .collect();
    let clean = {
        let _armed = fault::arm(FaultPlan::new());
        run_suite(&selection, &opts(1))
    };
    let faulted_serial = {
        let _armed = fault::arm(plan());
        run_suite(&selection, &opts(1))
    };
    let faulted_parallel = {
        let _armed = fault::arm(plan());
        run_suite(&selection, &opts(4))
    };
    assert!(!faulted_serial.has_failures(), "faults retried, not fatal");
    assert!(faulted_serial.degraded());
    assert_eq!(clean.document(), faulted_serial.document());
    assert_eq!(clean.document(), faulted_parallel.document());
}

#[test]
fn folds_and_artifacts_are_chunk_size_invariant() {
    // Chunk partitioning must be invisible in every folded stat:
    // compare streamed folds at several chunk sizes, driven through
    // the pipeline directly, against the whole-trace oracle.
    let whole: Vec<Instr> = builtin("nasa7")
        .unwrap()
        .compile(SWEEP_SEED)
        .take(N)
        .collect();
    let mut oracle = StackDistSweep::new_range(32, 4, 7, 2, 500).unwrap();
    for instr in &whole {
        oracle.process(*instr);
    }
    for chunk in [64, 977, N + 1] {
        let mut folded = [StackDistSweep::new_range(32, 4, 7, 2, 500).unwrap()];
        stream::fold(
            Source::Generated(builtin("nasa7").unwrap().compile(SWEEP_SEED).take(N)),
            chunk,
            &mut folded,
        );
        for k in 4..=7 {
            assert_eq!(
                folded[0].stats(k, 2),
                oracle.stats(k, 2),
                "chunk={chunk} k={k}"
            );
        }
    }
    // And the rendered CSV artifact (what the manifest hashes) is
    // stable across repeated streamed runs.
    let grid = GridSpec {
        cache_sizes: vec![1024, 4096],
        line_sizes: vec![16, 32],
        assocs: vec![2],
        warmup: 500,
    };
    let reference = artifact(&run_sweep(&[builtin("nasa7").unwrap()], &grid, N));
    let again = artifact(&run_sweep(&[builtin("nasa7").unwrap()], &grid, N));
    assert_eq!(format!("{reference:?}"), format!("{again:?}"));
}
