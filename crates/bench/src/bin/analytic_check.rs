//! Analytic-backend accuracy gate: the closed-form miss-ratio backend
//! must track the simulator within its stated tolerance.
//!
//! ```text
//! analytic_check [--instructions N]
//! ```
//!
//! Three checks, across all six SPEC92 proxies:
//!
//! 1. **Fully-associative exactness** — Mattson inclusion makes the
//!    histogram prefix an *exact* answer, so the analytic FA LRU hit
//!    ratio must be bit-equal to `Cache` replay (not merely close).
//! 2. **Set-conflict tolerance** — over the Figure-6 comparison grid
//!    (7 capacities × 5 line sizes × associativity 1/2/4) the analytic
//!    binomial set-conflict model must stay within
//!    [`SET_CONFLICT_TOLERANCE`] of the stack-distance sweeps.
//! 3. **Dense-walk exactness** — on the paper-scale
//!    [`DenseGrid::standard`], the cut [`dense_best`] walk must return
//!    exactly what the uncut reference walk [`dense_best_uncut`]
//!    returns (geometry and hit-ratio bits) at targets 0.8, 0.9, 0.95
//!    and one ulp above the proxy's fully-associative ceiling.
//!
//! Exit codes: `0` success, `1` tolerance or exactness violation, `2`
//! bad usage. Wired into tier-1 as `./ci.sh analytic`.

use bench::grid::{self, dense_best, DenseGrid, GridSpec};
use simcache::explore::measure_dcache;
use simcache::hitratio::SET_CONFLICT_TOLERANCE;
use simcache::CacheConfig;
use simtrace::workload::builtins;
use std::process::ExitCode;
use tradeoff::api::dense_best_uncut;

fn usage() -> ExitCode {
    eprintln!("usage: analytic_check [--instructions N]");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut instructions: usize = 120_000;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--instructions" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) if n > 0 => instructions = n,
                _ => return usage(),
            },
            _ => return usage(),
        }
    }
    let warmup = instructions as u64 / 5;
    let mut failed = false;

    // Gate 1: FA LRU bit-exactness against Cache replay.
    for workload in builtins() {
        let analytic = grid::build_analytic(workload, instructions, warmup);
        let trace =
            bench::tracestore::workload_trace(workload, bench::sweep::SWEEP_SEED, instructions);
        for (line_bytes, lines) in [(16u64, 8u32), (32, 64), (64, 256)] {
            let cfg = CacheConfig::new(line_bytes * u64::from(lines), line_bytes, lines)
                .expect("valid fully-associative geometry");
            let measured = measure_dcache(cfg, trace.iter().copied(), warmup).hit_ratio();
            let closed = analytic
                .fa_hit_ratio(line_bytes, u64::from(lines))
                .expect("folded line size");
            if closed != measured {
                eprintln!(
                    "analytic_check: FAIL: {} FA L={line_bytes} cap={lines}: \
                     analytic {closed} != replay {measured} (must be bit-equal)",
                    workload.label()
                );
                failed = true;
            }
        }
    }
    println!(
        "analytic_check: FA LRU bit-exact vs Cache replay across {} proxies",
        builtins().len()
    );

    // Gate 2: set-conflict model within tolerance on the comparison grid.
    let spec = GridSpec::comparison(warmup);
    let workloads: Vec<_> = builtins().iter().collect();
    let results = grid::compare(&workloads, &spec, instructions);
    let mut global_max = 0.0f64;
    for wg in &results {
        let max = wg.max_delta();
        global_max = global_max.max(max);
        println!(
            "analytic_check: {:<8} max |ΔHR| {:.4} mean {:.4} over {} points",
            wg.workload.label(),
            max,
            wg.mean_delta(),
            wg.points.len()
        );
        if max > SET_CONFLICT_TOLERANCE {
            eprintln!(
                "analytic_check: FAIL: {} max |ΔHR| {:.4} exceeds tolerance {}",
                wg.workload.label(),
                max,
                SET_CONFLICT_TOLERANCE
            );
            failed = true;
        }
    }

    // Gate 3: the cut dense walk against the uncut reference walk.
    let dense = DenseGrid::standard();
    let mut cases = 0;
    for workload in builtins() {
        let analytic = grid::build_analytic(workload, instructions, warmup);
        let ceiling = dense
            .line_sizes
            .iter()
            .map(|&line| {
                analytic
                    .fa_hit_ratio(line, u64::MAX)
                    .expect("folded line size")
            })
            .fold(0.0, f64::max);
        for target in [0.8, 0.9, 0.95, ceiling.next_up()] {
            let cut = dense_best(&analytic, &dense, target);
            let uncut = dense_best_uncut(&analytic, &dense, target);
            if cut != uncut {
                eprintln!(
                    "analytic_check: FAIL: {} dense grid at target {target}: \
                     cut walk {cut:?} != uncut walk {uncut:?}",
                    workload.label()
                );
                failed = true;
            }
            cases += 1;
        }
    }
    println!(
        "analytic_check: dense_best equal to the uncut walk in {cases} cases \
         on the {}-point standard grid",
        dense.points()
    );

    if failed {
        return ExitCode::FAILURE;
    }
    println!(
        "analytic_check: OK — global max |ΔHR| {global_max:.4} ≤ {SET_CONFLICT_TOLERANCE} \
         over {} grid points",
        results.iter().map(|w| w.points.len()).sum::<usize>()
    );
    ExitCode::SUCCESS
}
