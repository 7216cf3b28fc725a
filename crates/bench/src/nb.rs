//! EXP-X16 — the non-blocking cache the paper did not simulate.
//!
//! Section 5.3: "The stalling factor for the non-blocking cache was not
//! evaluated from the simulation." Our simulator supports NB with
//! configurable MSHRs, so this experiment completes the measurement: NB's
//! φ versus memory cycle time and MSHR count, and where NB would slot
//! into the Figures 3–5 ranking.

use crate::common::{phi_matrix, PhiPoint};
use crate::registry::{ExpReport, Experiment};
use report::{Chart, Table};
use simcpu::StallFeature;
use tradeoff::equiv::traded_hit_ratio;
use tradeoff::{HitRatio, Machine, SystemConfig, TradeoffError};

/// The β_m grid of the measurement.
pub const BETAS: [u64; 5] = [4, 8, 15, 25, 40];

/// The MSHR counts of the measurement.
pub const MSHR_COUNTS: [u32; 4] = [1, 2, 4, 8];

/// Measured NB φ per (MSHR count, β_m).
///
/// One [`phi_matrix`] batch covers the whole grid: a single timeline
/// per program serves every MSHR count and β, so the 20 points cost six
/// cache passes plus 120 `O(misses)` replays.
pub fn phi_grid(instructions: usize) -> Vec<(u32, Vec<(f64, f64)>)> {
    let points: Vec<PhiPoint> = MSHR_COUNTS
        .into_iter()
        .flat_map(|mshrs| {
            BETAS
                .iter()
                .map(move |&beta| (StallFeature::NonBlocking { mshrs }, beta))
        })
        .collect();
    let phis = phi_matrix(&points, 32, 4, instructions);
    MSHR_COUNTS
        .into_iter()
        .enumerate()
        .map(|(m, mshrs)| {
            let pts = BETAS
                .iter()
                .enumerate()
                .map(|(b, &beta)| (beta as f64, phis[m * BETAS.len() + b]))
                .collect();
            (mshrs, pts)
        })
        .collect()
}

/// Renders the φ chart plus the ranking insertion at β = 8.
///
/// # Errors
///
/// Propagates model-validation errors.
pub fn report(instructions: usize) -> Result<String, TradeoffError> {
    let grid = phi_grid(instructions);
    let mut chart = Chart::new(
        "NB stalling factor vs memory cycle time (SPEC92 proxies, 8K 2-way, L=32, D=4)",
        "beta_m",
        "phi",
        56,
        12,
    );
    for (mshrs, pts) in &grid {
        chart.series(format!("{mshrs} MSHR"), pts.clone());
    }

    // Insert NB into the β = 8 ranking with the paper's standard features.
    let machine = Machine::new(4.0, 32.0, 8.0)?;
    let base = SystemConfig::full_stalling(0.5);
    let hr = HitRatio::new(0.95)?;
    let nb_phi = grid
        .iter()
        .find(|(m, _)| *m == 4)
        .and_then(|(_, pts)| pts.iter().find(|(b, _)| *b == 8.0))
        .map(|&(_, phi)| phi)
        .expect("grid covers 4 MSHRs at β = 8");
    let mut t = Table::new(["feature", "ΔHR at β=8, HR=95%"]);
    let mut entries = vec![
        (
            "doubling bus".to_string(),
            traded_hit_ratio(&machine, &base, &base.with_bus_factor(2.0), hr)?,
        ),
        (
            "write buffers".to_string(),
            traded_hit_ratio(&machine, &base, &base.with_write_buffers(), hr)?,
        ),
        (
            format!("NB cache, 4 MSHRs (measured φ = {nb_phi:.2})"),
            traded_hit_ratio(
                &machine,
                &base,
                &base.with_partial_stall(nb_phi.clamp(0.0, 8.0)),
                hr,
            )?,
        ),
    ];
    entries.sort_by(|a, b| b.1.total_cmp(&a.1));
    for (name, dhr) in entries {
        t.row([name, format!("{:+.2}%", 100.0 * dhr)]);
    }
    Ok(format!(
        "{}\nWhere NB lands in the paper's ranking:\n{}\
         The paper predicted NB's benefit is limited unless multiple outstanding\n\
         misses are supported — the MSHR series above measures exactly that.\n",
        chart.render(),
        t.render()
    ))
}

/// Registry entry for this experiment.
pub const EXP: Experiment = Experiment {
    id: "nb",
    title: "Non-blocking cache",
    tags: &["extension", "measured"],
    traces: &[crate::registry::traces::SPEC_L32],
    module: module_path!(),
    run: |ctx| ExpReport::text_only(report(ctx.instructions).expect("canonical parameters valid")),
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn more_mshrs_never_raise_phi() {
        let grid = phi_grid(15_000);
        for i in 0..BETAS.len() {
            let phis: Vec<f64> = grid.iter().map(|(_, pts)| pts[i].1).collect();
            for w in phis.windows(2) {
                assert!(w[1] <= w[0] + 0.05, "β index {i}: {phis:?}");
            }
        }
    }

    #[test]
    fn nb_phi_stays_in_table2_band() {
        for (mshrs, pts) in phi_grid(10_000) {
            for (beta, phi) in pts {
                assert!(
                    (0.0..=8.0 + 1e-9).contains(&phi),
                    "{mshrs} MSHRs at β={beta}: φ={phi}"
                );
            }
        }
    }

    #[test]
    fn report_ranks_nb() {
        let text = report(10_000).unwrap();
        assert!(text.contains("NB cache"));
        assert!(text.contains("doubling bus"));
    }
}
