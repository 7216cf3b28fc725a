//! EXP-F3/F4/F5 — Figures 3–5: the unified comparison.
//!
//! For a full-blocking, non-pipelined baseline at base HR 95 % and
//! α = 0.5, plot the hit ratio traded by each feature against the
//! non-pipelined memory cycle time:
//!
//! * Figure 3: L = 8, D = 4, q = 2, with the BNL1 stalling factor
//!   measured from the SPEC92 proxies;
//! * Figure 4: the same with L = 32;
//! * Figure 5: L = 32 with BNL3 instead of BNL1.
//!
//! The BNL φ is *measured* per β_m by trace-driven simulation, exactly as
//! the paper does, then fed to the analytic equivalence.

use crate::common::average_phi;
use crate::registry::{ExpReport, Experiment, RunCtx};
use report::{Artifact, Chart};
use simcpu::StallFeature;
use tradeoff::equiv::traded_hit_ratio;
use tradeoff::{HitRatio, Machine, SystemConfig, TradeoffError};

/// Which unified figure to produce.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UnifiedConfig {
    /// Figure number (3, 4 or 5) — controls the title and CSV name.
    pub figure: u32,
    /// Line size in bytes.
    pub line_bytes: u64,
    /// The BNL variant whose measured φ is plotted.
    pub bnl: StallFeature,
}

/// Figure 3's configuration.
pub const FIG3: UnifiedConfig = UnifiedConfig {
    figure: 3,
    line_bytes: 8,
    bnl: StallFeature::BusNotLocked1,
};
/// Figure 4's configuration.
pub const FIG4: UnifiedConfig = UnifiedConfig {
    figure: 4,
    line_bytes: 32,
    bnl: StallFeature::BusNotLocked1,
};
/// Figure 5's configuration.
pub const FIG5: UnifiedConfig = UnifiedConfig {
    figure: 5,
    line_bytes: 32,
    bnl: StallFeature::BusNotLocked3,
};

/// One feature curve of a unified figure.
#[derive(Debug, Clone)]
pub struct FeatureCurve {
    /// Legend label.
    pub name: String,
    /// `(β_m, ΔHR %)` points.
    pub points: Vec<(f64, f64)>,
}

/// Computes the four curves of a unified figure.
///
/// # Errors
///
/// Propagates model-validation errors.
pub fn run(
    cfg: UnifiedConfig,
    betas: &[u64],
    instructions: usize,
) -> Result<Vec<FeatureCurve>, TradeoffError> {
    let hr = HitRatio::new(0.95)?;
    let base = SystemConfig::full_stalling(0.5);
    let chunks = (cfg.line_bytes / 4) as f64;

    let mut pipelined = Vec::new();
    let mut bus = Vec::new();
    let mut wbuf = Vec::new();
    let mut bnl = Vec::new();
    for &beta in betas {
        let machine = Machine::new(4.0, cfg.line_bytes as f64, beta as f64)?;
        let dhr = |enh: &SystemConfig| -> Result<f64, TradeoffError> {
            Ok(100.0 * traded_hit_ratio(&machine, &base, enh, hr)?)
        };
        pipelined.push((beta as f64, dhr(&base.with_pipelined_memory(2.0))?));
        bus.push((beta as f64, dhr(&base.with_bus_factor(2.0))?));
        wbuf.push((beta as f64, dhr(&base.with_write_buffers())?));
        // Measure the BNL stalling factor at this β_m, clamped into the
        // admissible band in case of sampling noise.
        let phi = average_phi(cfg.bnl, cfg.line_bytes, 4, beta, instructions).clamp(1.0, chunks);
        bnl.push((beta as f64, dhr(&base.with_partial_stall(phi))?));
    }
    Ok(vec![
        FeatureCurve {
            name: "pipelined mem".into(),
            points: pipelined,
        },
        FeatureCurve {
            name: "doubling bus".into(),
            points: bus,
        },
        FeatureCurve {
            name: "write buffers".into(),
            points: wbuf,
        },
        FeatureCurve {
            name: format!("{}", cfg.bnl),
            points: bnl,
        },
    ])
}

/// The figures' β_m sweep.
pub fn default_betas() -> Vec<u64> {
    vec![2, 3, 4, 5, 6, 8, 10, 12, 14, 16, 18, 20]
}

/// Renders a unified figure's chart.
pub fn render(cfg: UnifiedConfig, curves: &[FeatureCurve]) -> String {
    let mut chart = Chart::new(
        format!(
            "Figure {} — unified tradeoff (L={}, D=4, q=2, base HR 95%, α=0.5)",
            cfg.figure, cfg.line_bytes
        ),
        "non-pipelined beta_m (cycles per 4 bytes)",
        "traded HR %",
        60,
        16,
    );
    for c in curves {
        chart.series(c.name.clone(), c.points.clone());
    }
    chart.render()
}

/// A figure's series as its typed `fig{N}.csv` artifact.
pub fn artifact(cfg: UnifiedConfig, curves: &[FeatureCurve]) -> Artifact {
    let mut rows = Vec::new();
    for c in curves {
        for &(beta, dhr) in &c.points {
            rows.push(vec![c.name.clone(), format!("{beta}"), format!("{dhr:.4}")]);
        }
    }
    Artifact::csv(
        format!("fig{}.csv", cfg.figure),
        &["feature", "beta_m", "traded_hr_pct"],
        rows,
    )
}

/// One unified figure's registry report.
fn report(cfg: UnifiedConfig, ctx: &RunCtx) -> ExpReport {
    let curves = run(cfg, &default_betas(), ctx.instructions).expect("canonical parameters valid");
    ExpReport {
        section: render(cfg, &curves),
        artifacts: vec![artifact(cfg, &curves)],
    }
}

/// Figure 3's registry entry.
pub const EXP3: Experiment = Experiment {
    id: "fig3",
    title: "Figure 3",
    tags: &["paper", "figure", "measured"],
    traces: &[crate::registry::traces::SPEC_L8],
    module: module_path!(),
    cost: 51,
    run: |ctx| report(FIG3, ctx),
};
/// Figure 4's registry entry.
pub const EXP4: Experiment = Experiment {
    id: "fig4",
    title: "Figure 4",
    tags: &["paper", "figure", "measured"],
    traces: &[crate::registry::traces::SPEC_L32],
    module: module_path!(),
    cost: 14,
    run: |ctx| report(FIG4, ctx),
};
/// Figure 5's registry entry.
pub const EXP5: Experiment = Experiment {
    id: "fig5",
    title: "Figure 5",
    tags: &["paper", "figure", "measured"],
    traces: &[crate::registry::traces::SPEC_L32],
    module: module_path!(),
    cost: 15,
    run: |ctx| report(FIG5, ctx),
};

#[cfg(test)]
mod tests {
    use super::*;

    fn by_name<'a>(curves: &'a [FeatureCurve], n: &str) -> &'a FeatureCurve {
        curves
            .iter()
            .find(|c| c.name == n)
            .unwrap_or_else(|| panic!("missing {n}"))
    }

    #[test]
    fn figure3_orderings_hold() {
        let curves = run(FIG3, &[2, 4, 8, 16, 20], 15_000).unwrap();
        let pipe = by_name(&curves, "pipelined mem");
        let bus = by_name(&curves, "doubling bus");
        let wb = by_name(&curves, "write buffers");
        let bnl1 = by_name(&curves, "BNL1");
        // Pipelined meets the x-axis at β = q = 2.
        assert!(pipe.points[0].1.abs() < 1e-9);
        for i in 0..pipe.points.len() {
            // For L/D = 2 pipelining never beats doubling the bus.
            assert!(pipe.points[i].1 <= bus.points[i].1 + 1e-9, "β index {i}");
            // Ranking: bus > write buffers > BNL1.
            assert!(bus.points[i].1 > wb.points[i].1, "β index {i}");
            assert!(wb.points[i].1 >= bnl1.points[i].1 - 1e-9, "β index {i}");
        }
    }

    #[test]
    fn figure4_pipelining_crosses_bus() {
        let curves = run(FIG4, &[2, 3, 4, 6, 8, 12], 15_000).unwrap();
        let pipe = by_name(&curves, "pipelined mem");
        let bus = by_name(&curves, "doubling bus");
        // Below the crossover (β = 3) the bus wins; at β = 6 pipelining
        // wins (crossover ≈ 4.67 for L/D = 8, q = 2).
        let idx = |b: f64| pipe.points.iter().position(|p| p.0 == b).unwrap();
        assert!(pipe.points[idx(3.0)].1 < bus.points[idx(3.0)].1);
        assert!(pipe.points[idx(6.0)].1 > bus.points[idx(6.0)].1);
        assert!(pipe.points[idx(12.0)].1 > bus.points[idx(12.0)].1);
    }

    #[test]
    fn figure5_bnl3_beats_bnl1_at_small_beta() {
        let b1 = run(FIG4, &[4], 20_000).unwrap();
        let b3 = run(FIG5, &[4], 20_000).unwrap();
        let bnl1 = by_name(&b1, "BNL1").points[0].1;
        let bnl3 = by_name(&b3, "BNL3").points[0].1;
        assert!(
            bnl3 >= bnl1,
            "BNL3 {bnl3} should trade at least as much as BNL1 {bnl1}"
        );
    }

    #[test]
    fn render_and_artifact_name_track_the_figure() {
        let curves = run(FIG3, &[2, 8], 5_000).unwrap();
        let text = render(FIG3, &curves);
        assert!(text.contains("Figure 3"));
        assert_eq!(artifact(FIG3, &curves).name, "fig3.csv");
        assert_eq!(artifact(FIG5, &curves).name, "fig5.csv");
    }
}
