//! Shared experiment plumbing.

use simcache::CacheConfig;
use simcpu::{Cpu, CpuConfig, MissTimeline, SimResult, StallFeature, TimelineCpu};
use simmem::{BusWidth, MemoryTiming};
use simtrace::spec92::Spec92Program;
use simtrace::workload::builtin_spec;
use std::path::PathBuf;

use crate::tracestore::{self, SPEC_SEED};

/// Where experiment CSVs land (`results/` at the workspace root).
pub fn results_dir() -> PathBuf {
    PathBuf::from(std::env::var("REPRO_RESULTS_DIR").unwrap_or_else(|_| "results".to_string()))
}

/// Instructions per SPEC92 proxy run. The paper used 50 M per program;
/// the proxies converge much faster, and the `REPRO_INSTRUCTIONS`
/// environment variable can raise this for high-fidelity runs.
pub fn instructions_per_run() -> usize {
    std::env::var("REPRO_INSTRUCTIONS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(120_000)
}

/// The paper's Figure 1 cache: 8 KB, two-way, write-allocate.
///
/// # Panics
///
/// Panics only if the constant geometry were invalid (it is not).
pub fn figure1_cache(line_bytes: u64) -> CacheConfig {
    CacheConfig::new(8 * 1024, line_bytes, 2).expect("valid 8KB cache")
}

fn spec_config(stall: StallFeature, line_bytes: u64, bus_bytes: u64, beta_m: u64) -> CpuConfig {
    CpuConfig::baseline(
        figure1_cache(line_bytes),
        MemoryTiming::new(BusWidth::new(bus_bytes).expect("valid bus"), beta_m),
    )
    .with_stall(stall)
}

/// Runs one SPEC92 proxy point through the miss-event timeline engine:
/// the memoised trace is generated once, the cache is simulated once per
/// (program, line size), and each timing point is an `O(misses)` replay
/// bit-identical to the full simulation (`tests/timeline_oracle.rs`).
/// Falls back to [`run_spec_oracle`] for configurations the timeline
/// cannot replay exactly.
pub fn run_spec(
    program: Spec92Program,
    stall: StallFeature,
    line_bytes: u64,
    bus_bytes: u64,
    beta_m: u64,
    instructions: usize,
) -> SimResult {
    let cfg = spec_config(stall, line_bytes, bus_bytes, beta_m);
    let timeline =
        tracestore::workload_timeline(builtin_spec(program), SPEC_SEED, instructions, &cfg.dcache);
    match TimelineCpu::new(&timeline, cfg) {
        Ok(replay) => replay.run(),
        Err(_) => run_spec_oracle(program, stall, line_bytes, bus_bytes, beta_m, instructions),
    }
}

/// Runs one SPEC92 proxy point through the full CPU simulation — the
/// oracle path [`run_spec`] is asserted against, and the fallback for
/// any configuration the timeline rejects.
pub fn run_spec_oracle(
    program: Spec92Program,
    stall: StallFeature,
    line_bytes: u64,
    bus_bytes: u64,
    beta_m: u64,
    instructions: usize,
) -> SimResult {
    let cfg = spec_config(stall, line_bytes, bus_bytes, beta_m);
    let trace = tracestore::workload_trace(builtin_spec(program), SPEC_SEED, instructions);
    Cpu::new(cfg).run(trace.iter().copied())
}

/// One (stall feature, β_m) point of a φ sweep.
pub type PhiPoint = (StallFeature, u64);

/// Measures SPEC92-average stalling factors for a whole batch of
/// (feature, β_m) points sharing one (line size, bus width): the six
/// timelines are extracted once and every `points × programs` replay
/// fans out over the [`crate::exec`] pool. This is the engine behind
/// Figure 1 / EXP-NB class sweeps — adding a point costs `O(misses)`,
/// not a fresh trace + cache + CPU simulation.
pub fn phi_matrix(
    points: &[PhiPoint],
    line_bytes: u64,
    bus_bytes: u64,
    instructions: usize,
) -> Vec<f64> {
    let cache = figure1_cache(line_bytes);
    // One cache pass per program (memoised across calls), in parallel.
    let timelines = crate::exec::parallel_map(&Spec92Program::ALL, |&p| {
        tracestore::workload_timeline(builtin_spec(p), SPEC_SEED, instructions, &cache)
    });
    let jobs: Vec<(usize, Spec92Program, std::sync::Arc<MissTimeline>)> = points
        .iter()
        .enumerate()
        .flat_map(|(i, _)| {
            Spec92Program::ALL
                .iter()
                .zip(&timelines)
                .map(move |(&p, tl)| (i, p, std::sync::Arc::clone(tl)))
        })
        .collect();
    let phis = crate::exec::parallel_map(&jobs, |(i, program, timeline)| {
        let (stall, beta_m) = points[*i];
        let cfg = spec_config(stall, line_bytes, bus_bytes, beta_m);
        match TimelineCpu::new(timeline, cfg) {
            Ok(replay) => replay.run().phi(),
            Err(_) => {
                run_spec_oracle(*program, stall, line_bytes, bus_bytes, beta_m, instructions).phi()
            }
        }
    });
    let per_point = Spec92Program::ALL.len();
    phis.chunks(per_point)
        .map(|chunk| chunk.iter().sum::<f64>() / per_point as f64)
        .collect()
}

/// Measures the SPEC92-average stalling factor `φ` for a feature, the
/// quantity Figure 1 plots (as a percentage of `L/D`).
///
/// One point of [`phi_matrix`]; batch callers should use that directly.
pub fn average_phi(
    stall: StallFeature,
    line_bytes: u64,
    bus_bytes: u64,
    beta_m: u64,
    instructions: usize,
) -> f64 {
    phi_matrix(&[(stall, beta_m)], line_bytes, bus_bytes, instructions)[0]
}

/// Measures the SPEC92-average flush ratio `α` at the Figure 1 cache.
///
/// `α = writebacks / fills` is a property of the cache's event sequence
/// alone, so it reads straight off the memoised timelines — the timing
/// parameters only select which (identical) event stream would have been
/// simulated.
pub fn average_alpha(line_bytes: u64, _bus_bytes: u64, _beta_m: u64, instructions: usize) -> f64 {
    let cache = figure1_cache(line_bytes);
    let alphas = crate::exec::parallel_map(&Spec92Program::ALL, |&p| {
        let stats =
            *tracestore::workload_timeline(builtin_spec(p), SPEC_SEED, instructions, &cache)
                .stats();
        stats.flush_ratio()
    });
    alphas.iter().sum::<f64>() / alphas.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_spec_produces_activity() {
        let r = run_spec(
            Spec92Program::Ear,
            StallFeature::FullStall,
            32,
            4,
            8,
            10_000,
        );
        assert_eq!(r.instructions, 10_000);
        assert!(r.dcache.fills > 0);
        assert!(r.cycles > r.instructions);
    }

    #[test]
    fn run_spec_is_bit_identical_to_the_oracle() {
        for stall in [
            StallFeature::BusLocked,
            StallFeature::NonBlocking { mshrs: 4 },
        ] {
            let fast = run_spec(Spec92Program::Doduc, stall, 32, 4, 15, 8_000);
            let slow = run_spec_oracle(Spec92Program::Doduc, stall, 32, 4, 15, 8_000);
            assert_eq!(fast, slow, "{stall}");
        }
    }

    #[test]
    fn average_phi_fs_equals_chunks() {
        let phi = average_phi(StallFeature::FullStall, 32, 4, 8, 5_000);
        assert!((phi - 8.0).abs() < 1e-9, "FS φ must be L/D: {phi}");
    }

    #[test]
    fn average_phi_ordering() {
        let bl = average_phi(StallFeature::BusLocked, 32, 4, 8, 20_000);
        let bnl3 = average_phi(StallFeature::BusNotLocked3, 32, 4, 8, 20_000);
        assert!(bl >= bnl3, "BL {bl} < BNL3 {bnl3}");
        assert!((1.0..=8.0).contains(&bl));
    }

    #[test]
    fn phi_matrix_matches_pointwise_average_phi() {
        let points = [
            (StallFeature::BusLocked, 8),
            (StallFeature::BusNotLocked3, 8),
            (StallFeature::BusLocked, 22),
        ];
        let batch = phi_matrix(&points, 32, 4, 10_000);
        for (point, batched) in points.iter().zip(&batch) {
            let single = average_phi(point.0, 32, 4, point.1, 10_000);
            assert_eq!(*batched, single, "{point:?}");
        }
    }

    #[test]
    fn average_alpha_is_a_fraction() {
        let a = average_alpha(32, 4, 8, 10_000);
        assert!((0.0..=1.0).contains(&a), "α = {a}");
    }

    #[test]
    fn average_alpha_matches_full_simulation() {
        let direct = run_spec_oracle(
            Spec92Program::Swm256,
            StallFeature::FullStall,
            32,
            4,
            8,
            10_000,
        )
        .alpha();
        let cache = figure1_cache(32);
        let timeline = tracestore::workload_timeline(
            builtin_spec(Spec92Program::Swm256),
            SPEC_SEED,
            10_000,
            &cache,
        );
        assert_eq!(timeline.stats().flush_ratio(), direct);
    }
}
