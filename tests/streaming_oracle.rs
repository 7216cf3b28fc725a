//! Streaming-vs-monolithic oracle: the chunked pipeline (`bench::stream`,
//! the streaming trace store, the streaming sweep engine) must be
//! byte-identical to the whole-trace paths — serially, under `--jobs N`,
//! and with an armed fault plan degrading the run. "Byte-identical"
//! is literal: suite documents and CSV artifacts are compared as
//! rendered bytes, folded stats as exact values.

use bench::fault::{self, FaultKind, FaultPlan, Site};
use bench::registry::RunCtx;
use bench::sched::{run_suite, RetryPolicy, SuiteOptions};
use bench::stream::{self, FoldOut, FoldSink};
use bench::sweep::{artifact, run_sweep, SweepGrid, SWEEP_SEED};
use simcache::explore::hit_ratio_grid_replay;
use simcache::stackdist::StackDistSweep;
use simcpu::{MissTimeline, MissTimelineBuilder};
use simtrace::spec92::{spec92_trace, Spec92Program};
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

#[test]
fn streaming_sweep_matches_per_config_replay() {
    // The whole-trace oracle is the independent per-configuration
    // replay, not another sweep: agreement here checks the chunked
    // fold end to end, not merely that two code paths share bugs.
    let grid = SweepGrid {
        cache_sizes: vec![1024, 4096, 16 * 1024],
        line_sizes: vec![16, 32, 64],
        assoc: 2,
        warmup: 1_000,
    };
    let programs = [Spec92Program::Swm256, Spec92Program::Doduc];
    for ws in run_sweep(&programs, &grid, N) {
        let replay = hit_ratio_grid_replay(
            &grid.cache_sizes,
            &grid.line_sizes,
            grid.assoc,
            || spec92_trace(ws.program, SWEEP_SEED).take(N),
            grid.warmup,
        )
        .unwrap();
        assert_eq!(ws.points, replay, "{}", ws.program);
    }
}

#[test]
fn streaming_timeline_matches_whole_trace_extraction() {
    let cache = bench::common::figure1_cache(32);
    let seed = 0x04AC1E;
    let whole: Vec<Instr> = spec92_trace(Spec92Program::Ear, seed).take(N).collect();
    let oracle = MissTimeline::extract(cache, whole.iter().copied());
    // Cold store lookup streams chunk by chunk — identical timeline.
    let streamed = bench::tracestore::workload_timeline(
        simtrace::workload::builtin_spec(Spec92Program::Ear),
        seed,
        N,
        &cache,
    );
    assert_eq!(*streamed, oracle);
    // A mixed one-pass pipeline folds the same timeline again.
    let out = stream::broadcast(
        spec92_trace(Spec92Program::Ear, seed).take(N),
        1_024,
        vec![
            FoldSink::Timeline(MissTimelineBuilder::new(cache)),
            FoldSink::Sweep(StackDistSweep::new(32, 5, 2, 1_000).unwrap()),
        ],
    );
    match &out[0] {
        FoldOut::Timeline(t) => assert_eq!(*t, oracle),
        _ => panic!("sink order preserved"),
    }
}

#[test]
fn streamed_suite_documents_match_serially_and_in_parallel() {
    // fig1 exercises the streaming timeline store, sweep the streaming
    // fold engine; their documents and artifacts must not depend on the
    // worker count.
    let selection: Vec<_> = bench::registry::all()
        .into_iter()
        .filter(|e| e.id() == "fig1" || e.id() == "sweep" || e.id() == "fig6")
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
        .into_iter()
        .filter(|e| e.id() == "fig1" || e.id() == "sweep")
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
    // Chunk partitioning (the REPRO_STREAM_CHUNK knob) must be
    // invisible in every folded stat: compare broadcast folds at
    // several chunk sizes against the whole-trace oracle. Env vars are
    // process-global, so the sizes are driven through the pipeline
    // directly rather than by mutating the environment.
    let whole: Vec<Instr> = spec92_trace(Spec92Program::Nasa7, SWEEP_SEED)
        .take(N)
        .collect();
    let mut oracle = StackDistSweep::new_range(32, 4, 7, 2, 500).unwrap();
    for instr in &whole {
        oracle.process(*instr);
    }
    for chunk in [64, 977, N + 1] {
        let folded = stream::broadcast(
            spec92_trace(Spec92Program::Nasa7, SWEEP_SEED).take(N),
            chunk,
            vec![StackDistSweep::new_range(32, 4, 7, 2, 500).unwrap()],
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
    let grid = SweepGrid {
        cache_sizes: vec![1024, 4096],
        line_sizes: vec![16, 32],
        assoc: 2,
        warmup: 500,
    };
    let reference = artifact(&run_sweep(&[Spec92Program::Nasa7], &grid, N));
    let again = artifact(&run_sweep(&[Spec92Program::Nasa7], &grid, N));
    assert_eq!(format!("{reference:?}"), format!("{again:?}"));
}
