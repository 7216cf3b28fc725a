//! EXP-SW — the single-pass design-space sweep engine.
//!
//! The Figure-6-style question — "how does the hit ratio move across
//! the whole (cache size × line size) grid for each workload?" — used
//! to cost one full trace replay per grid point. The sweep engine
//! answers it with one [`StackDistSweep`](simcache::StackDistSweep)
//! pass per line size (`O(|lines| · N)` instead of
//! `O(|sizes| · |lines| · N)`): the grid is a [`GridSpec`], folded by
//! [`grid::build_simulated`] through the chunked [`stream`](crate::stream)
//! driver, so the sweep runs paper-scale traces without paper-scale
//! memory.

use crate::grid;
use crate::registry::{ExpReport, Experiment};
use report::{Artifact, Table};
use simcache::explore::HitRatioPoint;
use simtrace::workload::{builtins, WorkloadSpec};
use smithval::TableModel;
use tradeoff::api::GridSpec;

/// Trace seed shared with the line-size experiment, so the sweep's
/// numbers are directly comparable to `linesize.csv`.
pub const SWEEP_SEED: u64 = 7;

/// The Figure-6-flavoured grid: 1 KB – 64 KB, 8 B – 128 B lines,
/// two-way.
pub fn figure6(warmup: u64) -> GridSpec {
    GridSpec {
        assocs: vec![2],
        ..GridSpec::comparison(warmup)
    }
}

/// One workload's measured grid, points in (cache size, line size)
/// order.
#[derive(Debug, Clone)]
pub struct WorkloadSweep {
    /// The workload.
    pub workload: &'static WorkloadSpec,
    /// Measured grid points.
    pub points: Vec<HitRatioPoint>,
}

/// Sweeps the grid for every workload ([`grid::build_simulated`]):
/// each trace streams through the generate→fold pipeline without ever
/// being pinned, so peak trace-resident memory is a few streamed
/// chunks no matter how long the trace is.
///
/// # Panics
///
/// Panics if a grid combination is not a valid sweep geometry.
pub fn run_sweep(
    workloads: &[&'static WorkloadSpec],
    grid: &GridSpec,
    instructions: usize,
) -> Vec<WorkloadSweep> {
    workloads
        .iter()
        .map(|&workload| WorkloadSweep {
            workload,
            points: grid::build_simulated(workload, grid, instructions)
                .points(grid)
                .expect("grid covered by its sweeps"),
        })
        .collect()
}

/// Converts one workload's measured points at `cache_bytes` into a
/// [`TableModel`], the bridge from the sweep engine into the Smith /
/// Figure 6 line-size methodology (`smithval`): the panels can then run
/// on *measured* miss ratios instead of the calibrated analytic model.
///
/// Returns `None` when the sweep has no points at that cache size.
pub fn measured_model(sweep: &WorkloadSweep, cache_bytes: u64) -> Option<TableModel> {
    let points: Vec<(f64, f64)> = sweep
        .points
        .iter()
        .filter(|p| p.cache_bytes == cache_bytes)
        .map(|p| (p.line_bytes as f64, 1.0 - p.hit_ratio))
        .collect();
    if points.is_empty() {
        None
    } else {
        Some(TableModel::new(cache_bytes as f64, points))
    }
}

/// The line size with the highest hit ratio at `cache_bytes`.
pub fn best_line(sweep: &WorkloadSweep, cache_bytes: u64) -> Option<u64> {
    sweep
        .points
        .iter()
        .filter(|p| p.cache_bytes == cache_bytes)
        .max_by(|a, b| a.hit_ratio.total_cmp(&b.hit_ratio))
        .map(|p| p.line_bytes)
}

/// Renders the sweep as a best-line-per-capacity table.
pub fn render(results: &[WorkloadSweep], grid: &GridSpec) -> String {
    let mut header = vec!["program".to_string()];
    header.extend(
        grid.cache_sizes
            .iter()
            .map(|c| format!("best L @ {}K", c / 1024)),
    );
    let mut t = Table::new(header);
    for ws in results {
        let mut row = vec![ws.workload.label()];
        for &c in &grid.cache_sizes {
            row.push(match best_line(ws, c) {
                Some(l) => format!("{l} B"),
                None => "-".to_string(),
            });
        }
        t.row(row);
    }
    format!(
        "Hit-ratio-optimal line size per capacity ({} grid points/workload, single-pass sweep):\n{}",
        grid.points(),
        t.render()
    )
}

/// The full measured grid as a typed `sweep.csv` artifact.
pub fn artifact(results: &[WorkloadSweep]) -> Artifact {
    let mut rows = Vec::new();
    for ws in results {
        for p in &ws.points {
            rows.push(vec![
                ws.workload.label(),
                p.cache_bytes.to_string(),
                p.line_bytes.to_string(),
                format!("{:.6}", p.hit_ratio),
                format!("{:.6}", p.flush_ratio),
            ]);
        }
    }
    Artifact::csv(
        "sweep.csv",
        &[
            "program",
            "cache_bytes",
            "line_bytes",
            "hit_ratio",
            "flush_ratio",
        ],
        rows,
    )
}

/// Smith-selector agreement on *measured* miss ratios: for each
/// workload, feed its 16 KB sweep row into the Figure 6 panels as a
/// [`TableModel`] and check that Smith's Eq. 16 and the paper's Eq. 19
/// choose the same line size — the agreement must hold for any model,
/// measured tables included.
pub fn measured_validation(results: &[WorkloadSweep]) -> String {
    let cache_bytes = 16 * 1024;
    let mut t = Table::new(["program", "Smith Eq.16", "ours Eq.19", "agree"]);
    for ws in results {
        let Some(model) = measured_model(ws, cache_bytes) else {
            continue;
        };
        let Ok(validations) = smithval::validate_all_panels(&model) else {
            continue;
        };
        // Panel (a) is the canonical 16 KB configuration.
        for v in validations.iter().filter(|v| v.panel.starts_with("(a)")) {
            t.row([
                ws.workload.label(),
                format!("{} B", v.smith_line),
                format!("{} B", v.eq19_line),
                v.selectors_agree.to_string(),
            ]);
        }
    }
    format!(
        "\nSelector agreement on measured 16 KB miss ratios:\n{}",
        t.render()
    )
}

/// Registry entry for this experiment.
pub const EXP: Experiment = Experiment {
    id: "sweep",
    title: "Design-space sweep",
    tags: &["extension", "measured", "engine"],
    traces: &[],
    module: module_path!(),
    cost: 34,
    run: |ctx| {
        let instructions = ctx.instructions;
        let grid = figure6(instructions as u64 / 5);
        let workloads: Vec<_> = builtins().iter().collect();
        let results = run_sweep(&workloads, &grid, instructions);
        let mut out = render(&results, &grid);
        out.push_str(&measured_validation(&results));
        ExpReport {
            section: out,
            artifacts: vec![artifact(&results)],
        }
    },
};

#[cfg(test)]
mod tests {
    use super::*;
    use simcache::explore::hit_ratio_grid_replay;
    use simtrace::workload::builtin;

    fn small_grid() -> GridSpec {
        GridSpec {
            cache_sizes: vec![1024, 4096],
            line_sizes: vec![16, 32],
            assocs: vec![2],
            warmup: 1_000,
        }
    }

    #[test]
    fn sweep_matches_per_config_replay_exactly() {
        let grid = small_grid();
        let workloads = [builtin("ear").unwrap(), builtin("nasa7").unwrap()];
        let n = 8_000;
        let results = run_sweep(&workloads, &grid, n);
        for ws in &results {
            let replay =
                hit_ratio_grid_replay(&grid, || ws.workload.compile(SWEEP_SEED).take(n)).unwrap();
            assert_eq!(ws.points, replay, "{}", ws.workload.label());
        }
    }

    #[test]
    fn grid_points_and_order() {
        let grid = small_grid();
        let results = run_sweep(&[builtin("ear").unwrap()], &grid, 2_000);
        assert_eq!(results.len(), 1);
        let points = &results[0].points;
        assert_eq!(points.len(), grid.points());
        assert_eq!(points[0].cache_bytes, 1024);
        assert_eq!(points[0].line_bytes, 16);
        assert_eq!(points[1].line_bytes, 32);
        assert_eq!(points[2].cache_bytes, 4096);
    }

    #[test]
    fn render_lists_programs_and_artifact_covers_grid() {
        let grid = small_grid();
        let results = run_sweep(&[builtin("ear").unwrap()], &grid, 2_000);
        let text = render(&results, &grid);
        assert!(text.contains("ear"));
        assert!(text.contains("best L @ 1K"));
        let a = artifact(&results);
        assert_eq!(a.name, "sweep.csv");
        match &a.kind {
            report::ArtifactKind::Csv { rows, .. } => assert_eq!(rows.len(), grid.points()),
            other => panic!("expected CSV artifact, got {other:?}"),
        }
    }

    #[test]
    fn measured_model_bridges_into_smithval() {
        use smithval::MissRatioModel;
        let grid = figure6(500);
        let results = run_sweep(&[builtin("ear").unwrap()], &grid, 4_000);
        let model = measured_model(&results[0], 16 * 1024).expect("16 KB row exists");
        assert_eq!(model.points().len(), grid.line_sizes.len());
        for p in &results[0].points {
            if p.cache_bytes == 16 * 1024 {
                let m = model.miss_ratio(16.0 * 1024.0, p.line_bytes as f64);
                assert!(
                    (m - (1.0 - p.hit_ratio)).abs() < 1e-12,
                    "L={}",
                    p.line_bytes
                );
            }
        }
        assert!(
            measured_model(&results[0], 3).is_none(),
            "no points at 3 bytes"
        );
        let text = measured_validation(&results);
        assert!(text.contains("ear"));
        assert!(
            !text.contains("false"),
            "selectors must agree on measured tables:\n{text}"
        );
    }

    #[test]
    fn figure6_grid_shape() {
        let g = figure6(0);
        assert_eq!(g.assocs, [2]);
        assert_eq!(g.cache_sizes.first(), Some(&1024));
        assert_eq!(g.cache_sizes.last(), Some(&(64 * 1024)));
        assert_eq!(g.points(), 35);
    }
}
