//! EXP-GRID — the closed-form miss-ratio backend on dense design grids.
//!
//! The sweep engine already answers Figure-6-style grids in one pass
//! per line size, but it still *simulates*: every additional set count
//! or associativity costs tree updates per reference. The analytic
//! backend ([`simcache::Analytic`]) inverts the cost structure — one
//! streaming reuse-distance fold per workload ([`tracestore`]
//! memoises it), after which any (size × line × assoc) point is a
//! histogram walk, independent of trace length. This experiment:
//!
//! 1. runs both backends over the Figure-6 comparison grid (7 cache
//!    sizes × 5 line sizes × associativity 1/2/4) and reports the
//!    per-workload divergence against the pinned
//!    [`simcache::hitratio::SET_CONFLICT_TOLERANCE`];
//! 2. answers a *dense* grid no simulator pass here could touch —
//!    every set count from 1 to [`DenseGrid::standard`]'s cap,
//!    including the non-power-of-two geometries replay cannot even
//!    express — and reports the cheapest geometry per workload
//!    reaching a target hit ratio.

use crate::registry::{ExpReport, Experiment};
use crate::sweep::SWEEP_SEED;
use crate::tracestore;
use report::{Artifact, Table};
use simcache::hitratio::SET_CONFLICT_TOLERANCE;
use simcache::{Analytic, HitRatioBackend, Simulated};
use simtrace::workload::{builtins, WorkloadSpec};

// The grid shapes (and the dense-grid search) are owned by the typed
// query API so the CLI, the query server and this experiment provably
// answer from one definition; this module re-exports them under their
// historical paths.
pub use tradeoff::api::{dense_best, DenseBest, DenseGrid, GridSpec, HIST_DISTANCE_CAP};

/// Builds the simulated backend for one workload: the grid's sweeps
/// ([`GridSpec::sweeps`]), folded side by side over shared reference
/// batches cut from the chunked generator
/// ([`tracestore::fold_workload_batches`]).
///
/// # Panics
///
/// Panics if a grid combination is not a valid sweep geometry.
pub fn build_simulated(workload: &WorkloadSpec, spec: &GridSpec, instructions: usize) -> Simulated {
    let mut sweeps = spec.sweeps().expect("valid grid");
    tracestore::fold_workload_batches(workload, SWEEP_SEED, instructions, spec.warmup, &mut sweeps);
    Simulated::from_sweeps(sweeps)
}

/// Builds the analytic backend for one workload from the memoised
/// reuse-distance fold: all power-of-two line sizes 8–128 B in one
/// pass, [`HIST_DISTANCE_CAP`] distance buckets, shared process-wide
/// through [`tracestore::workload_histograms`].
pub fn build_analytic(workload: &WorkloadSpec, instructions: usize, warmup: u64) -> Analytic {
    let hists = tracestore::workload_histograms(
        workload,
        SWEEP_SEED,
        instructions,
        8,
        128,
        HIST_DISTANCE_CAP,
        warmup,
    );
    Analytic::from_histograms(&hists)
}

/// One grid point answered by both backends.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GridPoint {
    /// Cache capacity in bytes.
    pub cache_bytes: u64,
    /// Line size in bytes.
    pub line_bytes: u64,
    /// Associativity.
    pub assoc: u32,
    /// Simulated hit ratio.
    pub sim: f64,
    /// Analytic hit ratio.
    pub analytic: f64,
}

impl GridPoint {
    /// Absolute backend divergence.
    pub fn delta(&self) -> f64 {
        (self.sim - self.analytic).abs()
    }
}

/// One workload's comparison grid, points in (cache, line, assoc)
/// order.
#[derive(Debug, Clone)]
pub struct WorkloadGrid {
    /// The workload.
    pub workload: &'static WorkloadSpec,
    /// Points answered by both backends.
    pub points: Vec<GridPoint>,
}

impl WorkloadGrid {
    /// Largest backend divergence across the grid.
    pub fn max_delta(&self) -> f64 {
        self.points.iter().map(GridPoint::delta).fold(0.0, f64::max)
    }

    /// Mean backend divergence across the grid.
    pub fn mean_delta(&self) -> f64 {
        if self.points.is_empty() {
            return 0.0;
        }
        self.points.iter().map(GridPoint::delta).sum::<f64>() / self.points.len() as f64
    }
}

/// Answers the comparison grid with both backends for every workload.
///
/// # Panics
///
/// Panics if a grid combination is outside either backend's coverage.
pub fn compare(
    workloads: &[&'static WorkloadSpec],
    spec: &GridSpec,
    instructions: usize,
) -> Vec<WorkloadGrid> {
    workloads
        .iter()
        .map(|&workload| {
            let sim = build_simulated(workload, spec, instructions)
                .points(spec)
                .expect("comparison grid covered by sweeps");
            let analytic = build_analytic(workload, instructions, spec.warmup);
            let points = sim
                .into_iter()
                .map(|p| GridPoint {
                    cache_bytes: p.cache_bytes,
                    line_bytes: p.line_bytes,
                    assoc: p.assoc,
                    sim: p.hit_ratio,
                    analytic: analytic
                        .hit_ratio(p.cache_bytes, p.line_bytes, p.assoc)
                        .expect("comparison grid covered by histograms"),
                })
                .collect();
            WorkloadGrid { workload, points }
        })
        .collect()
}

/// Renders the backend-agreement table: per-workload max and mean
/// divergence against the pinned tolerance.
pub fn render(results: &[WorkloadGrid], spec: &GridSpec) -> String {
    let mut t = Table::new(["program", "max |ΔHR|", "mean |ΔHR|", "within tolerance"]);
    for wg in results {
        t.row([
            wg.workload.label(),
            format!("{:.4}", wg.max_delta()),
            format!("{:.4}", wg.mean_delta()),
            (wg.max_delta() <= SET_CONFLICT_TOLERANCE).to_string(),
        ]);
    }
    format!(
        "Simulated vs analytic backend over the comparison grid \
         ({} points/workload, tolerance {SET_CONFLICT_TOLERANCE}):\n{}",
        spec.points(),
        t.render()
    )
}

/// The full comparison grid as a typed `grid.csv` artifact.
pub fn artifact(results: &[WorkloadGrid]) -> Artifact {
    let mut rows = Vec::new();
    for wg in results {
        for p in &wg.points {
            rows.push(vec![
                wg.workload.label(),
                p.cache_bytes.to_string(),
                p.line_bytes.to_string(),
                p.assoc.to_string(),
                format!("{:.6}", p.sim),
                format!("{:.6}", p.analytic),
                format!("{:.6}", p.delta()),
            ]);
        }
    }
    Artifact::csv(
        "grid.csv",
        &[
            "program",
            "cache_bytes",
            "line_bytes",
            "assoc",
            "sim_hit_ratio",
            "analytic_hit_ratio",
            "abs_delta",
        ],
        rows,
    )
}

/// Renders the dense-grid capacity-planning table: per workload, the
/// cheapest geometry reaching `target_hr`.
pub fn dense_render(
    workloads: &[&WorkloadSpec],
    grid: &DenseGrid,
    instructions: usize,
    warmup: u64,
    target_hr: f64,
) -> String {
    let mut t = Table::new(["program", "cache", "geometry", "hit ratio"]);
    for &workload in workloads {
        let analytic = build_analytic(workload, instructions, warmup);
        let row = match dense_best(&analytic, grid, target_hr) {
            Some(b) => [
                workload.label(),
                format!("{} B", b.cache_bytes),
                format!("{} sets × {} B × {}-way", b.sets, b.line_bytes, b.assoc),
                format!("{:.4}", b.hit_ratio),
            ],
            None => [
                workload.label(),
                "-".to_string(),
                "unreachable".to_string(),
                "-".to_string(),
            ],
        };
        t.row(row);
    }
    format!(
        "\nCheapest geometry reaching HR ≥ {target_hr} on the dense analytic grid \
         ({} points/workload, {} total — set counts 1..={}, closed form, no simulation):\n{}",
        grid.points(),
        grid.points() * workloads.len(),
        grid.max_sets,
        t.render()
    )
}

/// Registry entry for this experiment.
pub const EXP: Experiment = Experiment {
    id: "grid",
    title: "Analytic miss-ratio grid",
    tags: &["extension", "measured", "engine", "analytic"],
    traces: &[],
    module: module_path!(),
    cost: 104,
    run: |ctx| {
        let instructions = ctx.instructions;
        let warmup = instructions as u64 / 5;
        let spec = GridSpec::comparison(warmup);
        let workloads: Vec<_> = builtins().iter().collect();
        let results = compare(&workloads, &spec, instructions);
        let mut out = render(&results, &spec);
        // The dense sweep's cost is trace-length independent; what the
        // short (CI fault/registry) suites need to bound is the
        // comparison sweeps above, so only full-scale runs walk the
        // million-point grid.
        let dense = if instructions >= 100_000 {
            DenseGrid::standard()
        } else {
            DenseGrid::small()
        };
        out.push_str(&dense_render(&workloads, &dense, instructions, warmup, 0.9));
        ExpReport {
            section: out,
            artifacts: vec![artifact(&results)],
        }
    },
};

#[cfg(test)]
mod tests {
    use super::*;
    use simtrace::workload::builtin;

    fn small_spec() -> GridSpec {
        GridSpec {
            cache_sizes: vec![1024, 4096],
            line_sizes: vec![16, 32],
            assocs: vec![1, 2],
            warmup: 500,
        }
    }

    #[test]
    fn both_backends_answer_every_point_within_tolerance() {
        let spec = small_spec();
        let results = compare(&[builtin("ear").unwrap()], &spec, 6_000);
        assert_eq!(results.len(), 1);
        assert_eq!(results[0].points.len(), spec.points());
        for p in &results[0].points {
            assert!((0.0..=1.0).contains(&p.sim));
            assert!((0.0..=1.0).contains(&p.analytic));
        }
        assert!(
            results[0].max_delta() <= SET_CONFLICT_TOLERANCE,
            "max delta {} exceeds tolerance",
            results[0].max_delta()
        );
        assert!(results[0].mean_delta() <= results[0].max_delta());
    }

    #[test]
    fn render_and_artifact_cover_the_grid() {
        let spec = small_spec();
        let results = compare(&[builtin("ear").unwrap()], &spec, 4_000);
        let text = render(&results, &spec);
        assert!(text.contains("ear"));
        assert!(text.contains("tolerance"));
        let a = artifact(&results);
        assert_eq!(a.name, "grid.csv");
        match &a.kind {
            report::ArtifactKind::Csv { rows, .. } => assert_eq!(rows.len(), spec.points()),
            other => panic!("expected CSV artifact, got {other:?}"),
        }
    }

    #[test]
    fn dense_best_finds_a_minimal_geometry() {
        let analytic = build_analytic(builtin("ear").unwrap(), 6_000, 1_000);
        let grid = DenseGrid::small();
        let best = dense_best(&analytic, &grid, 0.5).expect("ear reaches 50% somewhere");
        assert!(best.hit_ratio >= 0.5);
        assert_eq!(
            best.cache_bytes,
            best.sets * best.line_bytes * u64::from(best.assoc)
        );
        // An impossible target is reported as unreachable, not panicked.
        assert!(dense_best(&analytic, &grid, 1.1).is_none());
        let text = dense_render(&[builtin("ear").unwrap()], &grid, 6_000, 1_000, 0.5);
        assert!(text.contains("ear"));
        assert!(text.contains("sets ×"));
    }

    #[test]
    fn dense_grid_reaches_a_million_points() {
        let std = DenseGrid::standard();
        assert_eq!(std.points(), 166_720);
        assert!(std.points() * 6 >= 1_000_000, "six proxies cross 1M points");
    }
}
