//! EXP-F1 — Figure 1: stalling factors of BL/BNL1/BNL2/BNL3 versus
//! memory cycle time, averaged over the six SPEC92 proxies.
//!
//! Paper setting: 8 KB two-way write-allocate data cache, L = 32 B,
//! D = 4 B, stalling factor reported as a percentage of `L/D`.

use crate::common::{phi_matrix, PhiPoint};
use crate::registry::{ExpReport, Experiment};
use report::{Artifact, Chart};
use simcpu::StallFeature;

/// The β_m sweep of the figure.
pub const BETAS: [u64; 7] = [4, 8, 15, 22, 30, 40, 50];

/// One measured curve.
#[derive(Debug, Clone)]
pub struct PhiCurve {
    /// The stalling feature measured.
    pub feature: StallFeature,
    /// `(β_m, φ as % of L/D)` points.
    pub points: Vec<(f64, f64)>,
}

/// Runs the sweep for the four measured features.
///
/// All `features × β_m` points are batched through one
/// [`phi_matrix`] call: the per-program trace and cache work is shared
/// by every curve (the timelines are extracted once) and the per-point
/// replays fan out over the worker pool together.
pub fn run(line_bytes: u64, bus_bytes: u64, instructions: usize) -> Vec<PhiCurve> {
    let chunks = (line_bytes / bus_bytes) as f64;
    let points: Vec<PhiPoint> = StallFeature::MEASURED
        .iter()
        .flat_map(|&feature| BETAS.iter().map(move |&beta| (feature, beta)))
        .collect();
    let phis = phi_matrix(&points, line_bytes, bus_bytes, instructions);
    StallFeature::MEASURED
        .iter()
        .enumerate()
        .map(|(f, &feature)| {
            let points = BETAS
                .iter()
                .enumerate()
                .map(|(b, &beta)| {
                    let phi = phis[f * BETAS.len() + b];
                    (beta as f64, 100.0 * phi / chunks)
                })
                .collect();
            PhiCurve { feature, points }
        })
        .collect()
}

/// Renders the figure's chart.
pub fn render(curves: &[PhiCurve]) -> String {
    let mut chart = Chart::new(
        "Figure 1 — stalling factor (% of L/D) vs memory cycle time",
        "beta_m (cycles per 4 bytes)",
        "phi %",
        60,
        16,
    );
    for c in curves {
        chart.series(c.feature.to_string(), c.points.clone());
    }
    chart.render()
}

/// The figure's series as a typed `fig1.csv` artifact.
pub fn artifact(curves: &[PhiCurve]) -> Artifact {
    let mut rows = Vec::new();
    for c in curves {
        for &(beta, pct) in &c.points {
            rows.push(vec![
                c.feature.to_string(),
                format!("{beta}"),
                format!("{pct:.2}"),
            ]);
        }
    }
    Artifact::csv("fig1.csv", &["feature", "beta_m", "phi_pct_of_LD"], rows)
}

/// Registry entry for this experiment.
pub const EXP: Experiment = Experiment {
    id: "fig1",
    title: "Figure 1",
    tags: &["paper", "figure", "measured"],
    traces: &[crate::registry::traces::SPEC_L32],
    module: module_path!(),
    run: |ctx| {
        let curves = run(32, 4, ctx.instructions);
        ExpReport {
            section: render(&curves),
            artifacts: vec![artifact(&curves)],
        }
    },
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::RunCtx;

    #[test]
    fn curves_reproduce_figure1_shape() {
        let curves = run(32, 4, 20_000);
        let by_name = |n: &str| {
            curves
                .iter()
                .find(|c| c.feature.to_string() == n)
                .unwrap_or_else(|| panic!("missing {n}"))
        };
        let bl = by_name("BL");
        let bnl1 = by_name("BNL1");
        let bnl3 = by_name("BNL3");

        // Ordering at every β: BL ≥ BNL1 ≥ BNL3.
        for i in 0..BETAS.len() {
            assert!(bl.points[i].1 + 1e-9 >= bnl1.points[i].1, "β index {i}");
            assert!(bnl1.points[i].1 + 1e-9 >= bnl3.points[i].1, "β index {i}");
        }
        // Rising trend with β_m (compare first and last point).
        assert!(bl.points.last().unwrap().1 > bl.points[0].1);
        // The paper's headline: BNL3 gives ~20–30 % reduction at small
        // β_m, i.e. its φ stays well below 100 % of L/D at β_m ≤ 15.
        assert!(bnl3.points[1].1 < 90.0, "BNL3 at β=8: {}", bnl3.points[1].1);
        // All percentages in [12.5, 100] (φ ∈ [1, L/D]).
        for c in &curves {
            for &(_, pct) in &c.points {
                assert!(
                    (12.5 - 1e-6..=100.0 + 1e-6).contains(&pct),
                    "{}: {pct}",
                    c.feature
                );
            }
        }
    }

    #[test]
    fn render_contains_legend_and_artifact_carries_rows() {
        let curves = run(32, 4, 5_000);
        let text = render(&curves);
        assert!(text.contains("BNL2"));
        let a = artifact(&curves);
        assert_eq!(a.name, "fig1.csv");
        match &a.kind {
            report::ArtifactKind::Csv { header, rows } => {
                assert_eq!(header, &["feature", "beta_m", "phi_pct_of_LD"]);
                assert_eq!(rows.len(), 4 * BETAS.len());
            }
            other => panic!("expected CSV artifact, got {other:?}"),
        }
    }

    #[test]
    fn registry_run_matches_legacy_composition() {
        let ctx = RunCtx::with_instructions(5_000);
        let report = (EXP.run)(&ctx);
        let curves = run(32, 4, 5_000);
        assert_eq!(report.section, render(&curves));
        assert_eq!(report.artifacts, vec![artifact(&curves)]);
    }
}
