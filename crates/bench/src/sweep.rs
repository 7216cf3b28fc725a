//! EXP-SW — the single-pass design-space sweep engine.
//!
//! The Figure-6-style question — "how does the hit ratio move across
//! the whole (cache size × line size) grid for each workload?" — used
//! to cost one full trace replay per grid point. The sweep engine
//! answers it with one [`StackDistSweep`] pass per line size
//! (`O(|lines| · N)` instead of `O(|sizes| · |lines| · N)`), fed by the
//! chunked [`stream`] pipeline: the trace is generated (or folded from
//! the store) in bounded blocks and broadcast to every line-size sink,
//! so the sweep runs paper-scale traces without paper-scale memory.

use crate::registry::{ExpReport, Experiment, RunCtx};
use crate::stream;
use report::{Artifact, Table};
use simcache::explore::HitRatioPoint;
use simcache::stackdist::StackDistSweep;
use simtrace::spec92::Spec92Program;
use smithval::TableModel;
use std::path::Path;

/// Trace seed shared with the line-size experiment, so the sweep's
/// numbers are directly comparable to `linesize.csv`.
pub const SWEEP_SEED: u64 = 7;

/// The (cache size × line size) grid one sweep covers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepGrid {
    /// Cache capacities in bytes (powers of two).
    pub cache_sizes: Vec<u64>,
    /// Line sizes in bytes (powers of two).
    pub line_sizes: Vec<u64>,
    /// Fixed associativity.
    pub assoc: u32,
    /// Instructions excluded from statistics.
    pub warmup: u64,
}

impl SweepGrid {
    /// The Figure-6-flavoured default grid: 1 KB – 64 KB, 8 B – 128 B
    /// lines, two-way.
    pub fn figure6(warmup: u64) -> Self {
        SweepGrid {
            cache_sizes: (0..=6).map(|i| 1024u64 << i).collect(),
            line_sizes: vec![8, 16, 32, 64, 128],
            assoc: 2,
            warmup,
        }
    }

    /// Grid points per workload.
    pub fn points(&self) -> usize {
        self.cache_sizes.len() * self.line_sizes.len()
    }

    /// Smallest set count any configuration of this grid needs at `line_bytes`.
    fn min_sets(&self, line_bytes: u64) -> u64 {
        self.cache_sizes
            .iter()
            .map(|&c| c / (line_bytes * u64::from(self.assoc)))
            .min()
            .expect("grid has cache sizes")
    }

    /// Largest set count any configuration of this grid needs at `line_bytes`.
    fn max_sets(&self, line_bytes: u64) -> u64 {
        self.cache_sizes
            .iter()
            .map(|&c| c / (line_bytes * u64::from(self.assoc)))
            .max()
            .expect("grid has cache sizes")
    }
}

/// One workload's measured grid, points in (cache size, line size)
/// order like [`simcache::explore::hit_ratio_grid`].
#[derive(Debug, Clone)]
pub struct WorkloadSweep {
    /// The workload.
    pub program: Spec92Program,
    /// Measured grid points.
    pub points: Vec<HitRatioPoint>,
}

/// Sweeps the grid for every workload, streaming: each workload's trace
/// is chunked ([`stream`]) into one [`StackDistSweep`] sink per line
/// size — already-materialised traces are folded in place
/// ([`stream::fold_slice`]), cold ones run the generate→fold pipeline
/// ([`stream::broadcast`]) without ever pinning the full trace, so peak
/// trace-resident memory is a few `REPRO_STREAM_CHUNK` blocks no matter
/// how long the trace is.
///
/// # Panics
///
/// Panics if a grid combination is not a valid cache geometry.
pub fn run_sweep(
    programs: &[Spec92Program],
    grid: &SweepGrid,
    instructions: usize,
) -> Vec<WorkloadSweep> {
    let chunk = stream::chunk_instructions();
    let sweeps: Vec<Vec<StackDistSweep>> = programs
        .iter()
        .map(|&program| {
            let sinks: Vec<StackDistSweep> = grid
                .line_sizes
                .iter()
                .map(|&line_bytes| {
                    StackDistSweep::new_range(
                        line_bytes,
                        grid.min_sets(line_bytes).trailing_zeros(),
                        grid.max_sets(line_bytes).trailing_zeros(),
                        grid.assoc,
                        grid.warmup,
                    )
                    .expect("valid grid line size")
                })
                .collect();
            let spec = simtrace::workload::builtin_spec(program);
            match crate::tracestore::resident_workload_trace(spec, SWEEP_SEED, instructions) {
                Some(trace) => stream::fold_slice(trace.instrs(), chunk, sinks),
                None => {
                    stream::broadcast(spec.compile(SWEEP_SEED).take(instructions), chunk, sinks)
                }
            }
        })
        .collect();

    programs
        .iter()
        .enumerate()
        .map(|(pi, &program)| {
            let mut points = Vec::with_capacity(grid.points());
            for &cache_bytes in &grid.cache_sizes {
                for (li, &line_bytes) in grid.line_sizes.iter().enumerate() {
                    let sweep = &sweeps[pi][li];
                    let sets = cache_bytes / (line_bytes * u64::from(grid.assoc));
                    let stats = sweep.stats(sets.trailing_zeros(), grid.assoc);
                    points.push(HitRatioPoint {
                        cache_bytes,
                        line_bytes,
                        hit_ratio: stats.hit_ratio(),
                        flush_ratio: stats.flush_ratio(),
                    });
                }
            }
            WorkloadSweep { program, points }
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
pub fn render(results: &[WorkloadSweep], grid: &SweepGrid) -> String {
    let mut header = vec!["program".to_string()];
    header.extend(
        grid.cache_sizes
            .iter()
            .map(|c| format!("best L @ {}K", c / 1024)),
    );
    let mut t = Table::new(header);
    for ws in results {
        let mut row = vec![ws.program.to_string()];
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
                ws.program.to_string(),
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
                ws.program.to_string(),
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
pub struct Exp;

impl Experiment for Exp {
    fn id(&self) -> &'static str {
        "sweep"
    }
    fn title(&self) -> &'static str {
        "Design-space sweep"
    }
    fn tags(&self) -> &'static [&'static str] {
        &["extension", "measured", "engine"]
    }
    fn depends_on_traces(&self) -> &'static [&'static str] {
        &[crate::registry::traces::SWEEP7]
    }
    fn module(&self) -> &'static str {
        module_path!()
    }
    fn run(&self, ctx: &RunCtx) -> ExpReport {
        let instructions = ctx.instructions;
        let grid = SweepGrid::figure6(instructions as u64 / 5);
        let results = run_sweep(&Spec92Program::ALL, &grid, instructions);
        let mut out = render(&results, &grid);
        out.push_str(&measured_validation(&results));
        ExpReport {
            section: out,
            artifacts: vec![artifact(&results)],
        }
    }
}

/// Entry point shared by the binary and the `run_all` driver.
pub fn main_report() -> String {
    crate::registry::main_report(&Exp)
}

/// Timing comparison between the per-configuration replay and the
/// single-pass sweep on the same grid, as recorded in
/// `BENCH_sweep.json` by the `sweep` benchmark.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepBenchResult {
    /// Grid points measured.
    pub grid_points: usize,
    /// Trace length in instructions.
    pub instructions: usize,
    /// Wall-clock seconds for the per-configuration replay grid.
    pub replay_secs: f64,
    /// Wall-clock seconds for the single-pass sweep grid.
    pub sweep_secs: f64,
}

impl SweepBenchResult {
    /// Replay time over sweep time.
    pub fn speedup(&self) -> f64 {
        self.replay_secs / self.sweep_secs
    }

    /// Grid points per second through the sweep engine.
    pub fn points_per_sec(&self) -> f64 {
        self.grid_points as f64 / self.sweep_secs
    }

    /// Serialises the record as a small JSON document.
    pub fn to_json(&self) -> String {
        format!(
            "{{\n  \"benchmark\": \"figure6_grid\",\n  \"grid_points\": {},\n  \"instructions\": {},\n  \"replay_secs\": {:.6},\n  \"sweep_secs\": {:.6},\n  \"speedup\": {:.2},\n  \"points_per_sec\": {:.1}\n}}\n",
            self.grid_points,
            self.instructions,
            self.replay_secs,
            self.sweep_secs,
            self.speedup(),
            self.points_per_sec(),
        )
    }

    /// Writes the JSON record to `path`.
    ///
    /// # Errors
    ///
    /// Propagates the I/O error on failure.
    pub fn write_json(&self, path: &Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_json())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcache::explore::hit_ratio_grid_replay;
    use simtrace::spec92::spec92_trace;

    fn small_grid() -> SweepGrid {
        SweepGrid {
            cache_sizes: vec![1024, 4096],
            line_sizes: vec![16, 32],
            assoc: 2,
            warmup: 1_000,
        }
    }

    #[test]
    fn sweep_matches_per_config_replay_exactly() {
        let grid = small_grid();
        let programs = [Spec92Program::Ear, Spec92Program::Nasa7];
        let n = 8_000;
        let results = run_sweep(&programs, &grid, n);
        for ws in &results {
            let replay = hit_ratio_grid_replay(
                &grid.cache_sizes,
                &grid.line_sizes,
                grid.assoc,
                || spec92_trace(ws.program, SWEEP_SEED).take(n),
                grid.warmup,
            )
            .unwrap();
            assert_eq!(ws.points, replay, "{}", ws.program);
        }
    }

    #[test]
    fn grid_points_and_order() {
        let grid = small_grid();
        let results = run_sweep(&[Spec92Program::Ear], &grid, 2_000);
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
        let results = run_sweep(&[Spec92Program::Ear], &grid, 2_000);
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
    fn bench_record_round_trips_the_numbers() {
        let r = SweepBenchResult {
            grid_points: 35,
            instructions: 60_000,
            replay_secs: 7.0,
            sweep_secs: 0.5,
        };
        assert!((r.speedup() - 14.0).abs() < 1e-12);
        assert!((r.points_per_sec() - 70.0).abs() < 1e-9);
        let json = r.to_json();
        for key in [
            "grid_points",
            "replay_secs",
            "sweep_secs",
            "speedup",
            "points_per_sec",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
    }

    #[test]
    fn measured_model_bridges_into_smithval() {
        use smithval::MissRatioModel;
        let grid = SweepGrid::figure6(500);
        let results = run_sweep(&[Spec92Program::Ear], &grid, 4_000);
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
        let g = SweepGrid::figure6(0);
        assert_eq!(g.cache_sizes.first(), Some(&1024));
        assert_eq!(g.cache_sizes.last(), Some(&(64 * 1024)));
        assert_eq!(g.points(), 35);
    }
}
