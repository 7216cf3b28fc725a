//! EXP-X3 — the Section 6 extension: multiple instruction issue.
//!
//! The paper closes by asking how its results change when throughput
//! exceeds one instruction per cycle. Two views:
//!
//! 1. Analytic: the hit ratio each feature trades versus issue width
//!    (`r_w = (G_b − 1/w)/(G_e − 1/w)`), showing hit ratio growing more
//!    precious as width grows.
//! 2. Simulated: the issue-width-capable CPU simulator versus the
//!    generalised Eq. 2, closing the loop for `w ∈ {1, 2, 4, 8}`.

use crate::common::figure1_cache;
use crate::fault;
use crate::registry::{ExpReport, Experiment};
use report::Table;
use simcpu::{predict_cycles_multiissue, Cpu, CpuConfig};
use simmem::{BusWidth, MemoryTiming};
use simtrace::workload::{builtin, WorkloadSpec};
use tradeoff::multiissue::{miss_traffic_ratio_limit, traded_hit_ratio_w};
use tradeoff::{HitRatio, Machine, SystemConfig, TradeoffError};

/// The analytic table: ΔHR per feature across issue widths.
///
/// # Errors
///
/// Propagates model-validation errors.
pub fn analytic_table(beta_m: f64) -> Result<String, TradeoffError> {
    let machine = Machine::new(4.0, 32.0, beta_m)?;
    let base = SystemConfig::full_stalling(0.5);
    let hr = HitRatio::new(0.95)?;
    let features = [
        ("doubling bus", base.with_bus_factor(2.0)),
        ("write buffers", base.with_write_buffers()),
        ("pipelined memory (q=2)", base.with_pipelined_memory(2.0)),
    ];
    let mut t = Table::new(["feature", "w=1", "w=2", "w=4", "w=8", "w→∞ limit"]);
    for (name, enh) in features {
        let mut row = vec![name.to_string()];
        for w in [1u32, 2, 4, 8] {
            row.push(format!(
                "{:.3}%",
                100.0 * traded_hit_ratio_w(&machine, &base, &enh, hr, w)?
            ));
        }
        let limit = (miss_traffic_ratio_limit(&machine, &base, &enh)? - 1.0) * hr.miss_ratio();
        row.push(format!("{:.3}%", 100.0 * limit));
        t.row(row);
    }
    Ok(t.render())
}

/// One simulated validation row.
#[derive(Debug, Clone, PartialEq)]
pub struct WidthValidation {
    /// Issue width simulated.
    pub width: u32,
    /// Simulated cycles.
    pub simulated: u64,
    /// Generalised Eq. 2 prediction (analytic base term).
    pub predicted: f64,
    /// Relative error.
    pub rel_error: f64,
}

/// Simulates one proxy across issue widths and checks the generalised
/// model.
pub fn simulate_widths(workload: &WorkloadSpec, instructions: usize) -> Vec<WidthValidation> {
    [1u32, 2, 4, 8]
        .into_iter()
        .map(|width| {
            fault::check_deadline();
            let cfg = CpuConfig::baseline(
                figure1_cache(32),
                MemoryTiming::new(BusWidth::new(4).expect("valid bus"), 8),
            )
            .with_issue_width(width);
            let r = Cpu::new(cfg).run(workload.compile(0xD0D0).take(instructions));
            let predicted = predict_cycles_multiissue(&r, width);
            WidthValidation {
                width,
                simulated: r.cycles,
                predicted,
                rel_error: (predicted - r.cycles as f64).abs() / r.cycles as f64,
            }
        })
        .collect()
}

/// Registry entry for this experiment.
pub const EXP: Experiment = Experiment {
    id: "mi",
    title: "Multi-issue extension",
    tags: &["extension", "measured"],
    traces: &[],
    module: module_path!(),
    cost: 8,
    run: |ctx| {
        let mut out = String::new();
        out.push_str("Hit ratio traded per feature vs issue width (L=32, D=4, β=8, HR=95%):\n");
        out.push_str(&analytic_table(8.0).expect("canonical parameters valid"));
        out.push('\n');

        let mut t = Table::new(["program", "w", "simulated", "Eq.2(w) predicted", "rel err"]);
        for p in ["ear", "swm256"] {
            // The width ladder replays the trace once per w; the clamp
            // keeps the suite's wall-clock in check.
            let workload = builtin(p).expect("a builtin proxy");
            for v in simulate_widths(workload, ctx.instructions.min(60_000)) {
                t.row([
                    p.to_string(),
                    v.width.to_string(),
                    v.simulated.to_string(),
                    format!("{:.0}", v.predicted),
                    format!("{:.2e}", v.rel_error),
                ]);
            }
        }
        out.push_str("Generalised Eq. 2 vs issue-width simulation:\n");
        out.push_str(&t.render());
        ExpReport::text_only(out)
    },
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn analytic_table_renders_limits() {
        let text = analytic_table(8.0).unwrap();
        assert!(text.contains("w→∞ limit"));
        assert!(text.contains("doubling bus"));
    }

    #[test]
    fn generalized_model_tracks_simulation_within_issue_rounding() {
        for v in simulate_widths(builtin("ear").unwrap(), 20_000) {
            assert!(v.rel_error < 0.05, "w={}: err {}", v.width, v.rel_error);
        }
    }

    #[test]
    fn wider_issue_means_fewer_cycles_and_higher_memory_share() {
        let vs = simulate_widths(builtin("swm256").unwrap(), 20_000);
        for pair in vs.windows(2) {
            assert!(pair[1].simulated <= pair[0].simulated);
        }
        // Width-8 cycles are dominated by the (width-independent) memory
        // stalls, so speedup saturates well below 8×.
        let speedup = vs[0].simulated as f64 / vs[3].simulated as f64;
        assert!(speedup < 4.0, "speedup {speedup} should be memory-bound");
    }
}
