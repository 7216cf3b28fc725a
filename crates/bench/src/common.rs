//! Shared experiment plumbing.

use simcache::CacheConfig;
use simcpu::{Cpu, CpuConfig, MissTimeline, SimResult, StallFeature, TimelineCpu};
use simmem::{BusWidth, MemoryTiming};
use simtrace::workload::{builtins, WorkloadSpec};
use std::env::VarError;
use std::path::PathBuf;

use crate::tracestore::{self, SPEC_SEED};

/// Reads the environment setting `name`: `Ok(None)` when it is unset,
/// `Ok(Some(v))` when `parse` accepts its value. Every `REPRO_*`
/// variable is read here and nowhere else.
///
/// # Errors
///
/// A set value that `parse` rejects (or that is not Unicode) is the
/// error `NAME="value" is not <expected>`, never a silent default.
pub fn setting<T>(
    name: &str,
    expected: &str,
    parse: impl FnOnce(&str) -> Option<T>,
) -> Result<Option<T>, String> {
    match std::env::var(name) {
        Err(VarError::NotPresent) => Ok(None),
        Err(VarError::NotUnicode(v)) => Err(format!("{name}={v:?} is not {expected}")),
        Ok(v) => parse(&v)
            .map(Some)
            .ok_or_else(|| format!("{name}={v:?} is not {expected}")),
    }
}

fn results_dir_setting() -> Result<Option<PathBuf>, String> {
    setting("REPRO_RESULTS_DIR", "a directory path", |v| {
        Some(PathBuf::from(v))
    })
}

/// Where experiment CSVs land: `REPRO_RESULTS_DIR`, else `results/` at
/// the workspace root.
///
/// # Panics
///
/// Panics naming the variable if it is not Unicode; binaries run
/// [`check_settings`] at startup and exit with a usage error instead.
pub fn results_dir() -> PathBuf {
    results_dir_setting()
        .unwrap_or_else(|e| panic!("{e}"))
        .unwrap_or_else(|| PathBuf::from("results"))
}

/// Instructions per SPEC92 proxy run. The paper used 50 M per program;
/// the proxies converge much faster, and the `REPRO_INSTRUCTIONS`
/// environment variable can raise this for high-fidelity runs.
///
/// # Errors
///
/// A set but malformed `REPRO_INSTRUCTIONS` is an error naming the
/// variable, never a silent fallback to the default length.
pub fn instructions_per_run() -> Result<usize, String> {
    let n = setting(
        "REPRO_INSTRUCTIONS",
        "an instruction count (a non-negative integer)",
        |v| v.parse().ok(),
    )?;
    Ok(n.unwrap_or(120_000))
}

/// Validates every setting the binaries read — `REPRO_INSTRUCTIONS`,
/// `REPRO_RESULTS_DIR`, `REPRO_JOBS`, `REPRO_EXP_TIMEOUT`,
/// `REPRO_TRACE_BUDGET` and `REPRO_FAULTS` — and arms the
/// `REPRO_FAULTS` plan into the slot `crate::fault::arm` uses. Every binary calls
/// it first, so a malformed value is a usage error naming the variable
/// before anything runs, binds or writes, not a panic mid-run or a
/// silent default.
///
/// # Errors
///
/// The first malformed setting, by name.
pub fn check_settings() -> Result<(), String> {
    instructions_per_run()?;
    results_dir_setting()?;
    crate::sched::jobs_setting()?;
    crate::sched::timeout_setting()?;
    crate::tracestore::budget_setting()?;
    if let Some(plan) = crate::fault::plan_setting()?.filter(|p| !p.is_empty()) {
        crate::fault::install(plan);
    }
    Ok(())
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
///
/// # Panics
///
/// Panics on an invalid timing configuration, as `Cpu::new` would.
pub fn run_spec(
    workload: &WorkloadSpec,
    stall: StallFeature,
    line_bytes: u64,
    bus_bytes: u64,
    beta_m: u64,
    instructions: usize,
) -> SimResult {
    let cfg = spec_config(stall, line_bytes, bus_bytes, beta_m);
    let timeline = tracestore::workload_timeline(workload, SPEC_SEED, instructions, &cfg.dcache);
    TimelineCpu::new(&timeline, cfg)
        .expect("a Figure-1 baseline replays exactly")
        .run()
}

/// Runs one SPEC92 proxy point through the full CPU simulation — the
/// oracle path [`run_spec`] is asserted against.
pub fn run_spec_oracle(
    workload: &WorkloadSpec,
    stall: StallFeature,
    line_bytes: u64,
    bus_bytes: u64,
    beta_m: u64,
    instructions: usize,
) -> SimResult {
    let cfg = spec_config(stall, line_bytes, bus_bytes, beta_m);
    let trace = tracestore::workload_trace(workload, SPEC_SEED, instructions);
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
    let timelines = crate::exec::parallel_map(builtins(), |spec| {
        tracestore::workload_timeline(spec, SPEC_SEED, instructions, &cache)
    });
    let jobs: Vec<(PhiPoint, &MissTimeline)> = points
        .iter()
        .flat_map(|&point| timelines.iter().map(move |tl| (point, &**tl)))
        .collect();
    let phis = crate::exec::parallel_map(&jobs, |&((stall, beta_m), timeline)| {
        let cfg = spec_config(stall, line_bytes, bus_bytes, beta_m);
        TimelineCpu::new(timeline, cfg)
            .expect("a Figure-1 baseline replays exactly")
            .run()
            .phi()
    });
    let per_point = builtins().len();
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

#[cfg(test)]
mod tests {
    use super::*;
    use simtrace::workload::builtin;

    #[test]
    fn run_spec_produces_activity() {
        let r = run_spec(
            builtin("ear").unwrap(),
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
            let doduc = builtin("doduc").unwrap();
            let fast = run_spec(doduc, stall, 32, 4, 15, 8_000);
            let slow = run_spec_oracle(doduc, stall, 32, 4, 15, 8_000);
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
    fn timeline_flush_ratio_matches_full_simulation() {
        let swm256 = builtin("swm256").unwrap();
        let direct = run_spec_oracle(swm256, StallFeature::FullStall, 32, 4, 8, 10_000).alpha();
        let cache = figure1_cache(32);
        let timeline = tracestore::workload_timeline(swm256, SPEC_SEED, 10_000, &cache);
        assert_eq!(timeline.stats().flush_ratio(), direct);
    }
}
