//! EXP-X6 — flush-ratio (α) sensitivity ablation.
//!
//! Every figure of the paper fixes `α = 0.5` "considering the average
//! situation". This ablation sweeps α and reports how each conclusion
//! moves: the hit ratio each feature trades, the feature ranking, and
//! the pipelining crossover. The headline: the ranking is α-stable, but
//! the *write buffers* curve scales almost linearly in α (their whole
//! value is hiding flushes), and the pipelining crossover versus write
//! buffers shifts with α while the one versus bus doubling does not.

use crate::registry::{ExpReport, Experiment};
use report::{Chart, Table};
use tradeoff::crossover::{pipelined_vs_double_bus, pipelined_vs_write_buffers};
use tradeoff::equiv::traded_hit_ratio;
use tradeoff::{HitRatio, Machine, SystemConfig, TradeoffError};

/// The α grid of the ablation.
pub const ALPHAS: [f64; 6] = [0.0, 0.2, 0.4, 0.5, 0.6, 0.8];

/// ΔHR per feature at one α.
#[derive(Debug, Clone, PartialEq)]
pub struct AlphaPoint {
    /// Flush ratio.
    pub alpha: f64,
    /// ΔHR of doubling the bus.
    pub bus: f64,
    /// ΔHR of write buffers.
    pub write_buffers: f64,
    /// ΔHR of pipelined memory (q = 2).
    pub pipelined: f64,
}

/// Sweeps α at a fixed machine point.
///
/// # Errors
///
/// Propagates model-validation errors.
pub fn run(machine: &Machine, base_hr: HitRatio) -> Result<Vec<AlphaPoint>, TradeoffError> {
    ALPHAS
        .iter()
        .map(|&alpha| {
            let base = SystemConfig::full_stalling(alpha);
            Ok(AlphaPoint {
                alpha,
                bus: traded_hit_ratio(machine, &base, &base.with_bus_factor(2.0), base_hr)?,
                write_buffers: traded_hit_ratio(
                    machine,
                    &base,
                    &base.with_write_buffers(),
                    base_hr,
                )?,
                pipelined: traded_hit_ratio(
                    machine,
                    &base,
                    &base.with_pipelined_memory(2.0),
                    base_hr,
                )?,
            })
        })
        .collect()
}

/// Renders the ablation chart plus the crossover-shift table.
///
/// # Errors
///
/// Propagates model-validation errors.
pub fn report() -> Result<String, TradeoffError> {
    let machine = Machine::new(4.0, 32.0, 8.0)?;
    let hr = HitRatio::new(0.95)?;
    let points = run(&machine, hr)?;

    let mut chart = Chart::new(
        "ΔHR vs flush ratio α (L=32, D=4, β=8, HR=95%)",
        "alpha",
        "traded HR %",
        50,
        12,
    );
    chart.series(
        "doubling bus",
        points.iter().map(|p| (p.alpha, 100.0 * p.bus)).collect(),
    );
    chart.series(
        "write buffers",
        points
            .iter()
            .map(|p| (p.alpha, 100.0 * p.write_buffers))
            .collect(),
    );
    chart.series(
        "pipelined",
        points
            .iter()
            .map(|p| (p.alpha, 100.0 * p.pipelined))
            .collect(),
    );

    let mut t = Table::new([
        "alpha",
        "β* pipelined vs bus",
        "β* pipelined vs write buffers",
    ]);
    for &alpha in &ALPHAS {
        let vs_bus =
            pipelined_vs_double_bus(8.0, 2.0).map_or("never".to_string(), |b| format!("{b:.2}"));
        let vs_wb = pipelined_vs_write_buffers(8.0, 2.0, alpha)
            .map_or("never".to_string(), |b| format!("{b:.2}"));
        t.row([format!("{alpha}"), vs_bus, vs_wb]);
    }
    Ok(format!(
        "{}\nCrossover shifts with α:\n{}",
        chart.render(),
        t.render()
    ))
}

/// Registry entry for this experiment.
pub const EXP: Experiment = Experiment {
    id: "alpha",
    title: "Flush-ratio ablation",
    tags: &["paper", "analytic"],
    traces: &[],
    module: module_path!(),
    cost: 0,
    run: |_| ExpReport::text_only(report().expect("canonical parameters valid")),
};

#[cfg(test)]
mod tests {
    use super::*;

    fn points() -> Vec<AlphaPoint> {
        run(
            &Machine::new(4.0, 32.0, 8.0).unwrap(),
            HitRatio::new(0.95).unwrap(),
        )
        .unwrap()
    }

    #[test]
    fn write_buffers_worth_nothing_without_flushes() {
        let p0 = &points()[0];
        assert_eq!(p0.alpha, 0.0);
        assert!(
            p0.write_buffers.abs() < 1e-12,
            "no flushes → nothing to hide"
        );
    }

    #[test]
    fn write_buffer_value_grows_with_alpha() {
        let ps = points();
        for w in ps.windows(2) {
            assert!(w[1].write_buffers > w[0].write_buffers);
        }
    }

    #[test]
    fn ranking_bus_over_write_buffers_is_alpha_stable() {
        for p in points() {
            assert!(p.bus > p.write_buffers, "α={}", p.alpha);
        }
    }

    #[test]
    fn bus_crossover_is_alpha_independent() {
        // (1 + α) cancels in the pipelined-vs-bus equality.
        let b = pipelined_vs_double_bus(8.0, 2.0).unwrap();
        assert!((b - 14.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn wbuf_crossover_moves_with_alpha() {
        let at = |a: f64| pipelined_vs_write_buffers(8.0, 2.0, a).unwrap();
        assert!(at(0.8) > at(0.2));
    }

    #[test]
    fn report_renders_chart_and_table() {
        let text = report().unwrap();
        assert!(text.contains("flush ratio"));
        assert!(text.contains("Crossover shifts"));
    }
}
