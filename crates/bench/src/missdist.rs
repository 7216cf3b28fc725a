//! EXP-X9 — inter-miss distance profiles: why Figure 1 looks the way it
//! does.
//!
//! Eq. 8 computes the BNL1 stalling factor from `ΔC`, the instruction
//! distance between a miss and the next access that collides with the
//! in-flight line. The stalling factors of Figure 1 are therefore a
//! direct function of each program's inter-miss distance distribution:
//! short distances (vectorizable sweeps missing once per line) keep the
//! partially-stalling features near full stalling; long distances
//! (irregular codes) let them recover the fill latency. This experiment
//! prints the measured distributions and correlates their medians with
//! the measured `φ(BL)`.

use crate::common::figure1_cache;
use crate::fault;
use crate::registry::{ExpReport, Experiment};
use report::Table;
use simcpu::{Cpu, CpuConfig, SimResult, StallFeature};
use simmem::{BusWidth, MemoryTiming};
use simtrace::workload::{builtins, WorkloadSpec};

/// Per-program distance profile and stalling factor.
#[derive(Debug, Clone, PartialEq)]
pub struct DistanceProfile {
    /// Workload.
    pub workload: &'static WorkloadSpec,
    /// The power-of-two histogram (see `SimResult::miss_distance_hist`).
    pub hist: [u64; 20],
    /// Median inter-miss distance in instructions.
    pub median: Option<f64>,
    /// Measured φ under bus-locked stalling.
    pub phi_bl: f64,
}

fn simulate(workload: &WorkloadSpec, stall: StallFeature, beta: u64, n: usize) -> SimResult {
    let cfg = CpuConfig::baseline(
        figure1_cache(32),
        MemoryTiming::new(BusWidth::new(4).expect("valid bus"), beta),
    )
    .with_stall(stall);
    Cpu::new(cfg).run(workload.compile(0x0D15).take(n))
}

/// Weighted mean of the histogram's bucket midpoints — a tie-free
/// summary for comparisons (the median is bucket-quantised).
pub fn mean_distance(hist: &[u64; 20]) -> f64 {
    let total: u64 = hist.iter().sum();
    if total == 0 {
        return 0.0;
    }
    hist.iter()
        .enumerate()
        .map(|(i, &c)| c as f64 * 1.5 * (1u64 << i) as f64)
        .sum::<f64>()
        / total as f64
}

/// Measures the profile for every proxy.
pub fn run(beta: u64, instructions: usize) -> Vec<DistanceProfile> {
    builtins()
        .iter()
        .map(|workload| {
            fault::check_deadline();
            let fs = simulate(workload, StallFeature::FullStall, beta, instructions);
            let bl = simulate(workload, StallFeature::BusLocked, beta, instructions);
            DistanceProfile {
                workload,
                hist: fs.miss_distance_hist,
                median: fs.median_miss_distance(),
                phi_bl: bl.phi(),
            }
        })
        .collect()
}

/// Renders the table plus a compact per-program sparkline.
pub fn render(rows: &[DistanceProfile]) -> String {
    let mut t = Table::new([
        "program",
        "distance histogram (1→512K instr)",
        "median ΔC",
        "φ(BL)",
    ]);
    for r in rows {
        let spark = report::chart::sparkline(&r.hist);
        t.row([
            r.workload.label(),
            format!("[{spark}]"),
            r.median.map_or("—".to_string(), |m| format!("{m:.0}")),
            format!("{:.2}", r.phi_bl),
        ]);
    }
    format!(
        "Inter-miss distance profiles (8K 2-way, L=32, D=4, β=8):\n{}\
         Short distances → the fill is still in flight when the next access lands →\n\
         high φ; Figure 1's high BL/BNL1 percentages come from the left-heavy rows.\n",
        t.render()
    )
}

/// Registry entry for this experiment.
pub const EXP: Experiment = Experiment {
    id: "missdist",
    title: "Miss-distance profiles",
    tags: &["extension", "measured"],
    traces: &[],
    module: module_path!(),
    cost: 29,
    run: |ctx| ExpReport::text_only(render(&run(8, ctx.instructions))),
};

#[cfg(test)]
mod tests {
    use super::*;
    use simtrace::workload::builtin;

    #[test]
    fn histogram_counts_fills_minus_one() {
        let fs = simulate(builtin("ear").unwrap(), StallFeature::FullStall, 8, 20_000);
        let total: u64 = fs.miss_distance_hist.iter().sum();
        assert_eq!(total, fs.dcache.fills - 1);
    }

    #[test]
    fn streaming_programs_have_short_distances() {
        let rows = run(8, 30_000);
        let mean =
            |p: &str| mean_distance(&rows.iter().find(|r| r.workload.label() == p).unwrap().hist);
        // Stencil sweeps miss every line → shorter distances than the
        // loop-nest code.
        assert!(mean("swm256") < mean("ear"));
    }

    #[test]
    fn short_distances_mean_high_phi() {
        // The extremes of the mean-distance ranking must order φ(BL)
        // correctly: the shortest-distance program stalls at least as
        // much as the longest-distance one.
        let rows = run(8, 30_000);
        let key = |r: &DistanceProfile| mean_distance(&r.hist);
        let shortest = rows
            .iter()
            .min_by(|a, b| key(a).total_cmp(&key(b)))
            .unwrap();
        let longest = rows
            .iter()
            .max_by(|a, b| key(a).total_cmp(&key(b)))
            .unwrap();
        assert!(
            shortest.phi_bl >= longest.phi_bl,
            "{}(ΔC={:.1}, φ={}) vs {}(ΔC={:.1}, φ={})",
            shortest.workload.label(),
            key(shortest),
            shortest.phi_bl,
            longest.workload.label(),
            key(longest),
            longest.phi_bl
        );
    }

    #[test]
    fn render_has_sparklines() {
        let text = render(&run(8, 10_000));
        assert!(text.contains('['));
        assert!(text.contains("φ(BL)"));
    }
}
