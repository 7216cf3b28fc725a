//! EXP-X4 — pricing next-line prefetching in the paper's currency.
//!
//! The paper's related work (Chen & Baer; Tullsen & Eggers) debates
//! whether prefetching caches beat non-blocking ones; the unified
//! methodology can settle such questions by converting *any* feature —
//! including ones the paper did not price — into an equivalent hit-ratio
//! gain. Since `dX/dHR = −refs·(G − 1)`, the cycles a feature saves
//! convert to
//!
//! ```text
//! ΔHR_equiv = (X_without − X_with) / (refs · (G − 1))
//! ```
//!
//! which lines up directly against the Figure 3–5 curves.

use crate::common::figure1_cache;
use crate::registry::{ExpReport, Experiment};
use report::Table;
use simcpu::{Cpu, CpuConfig, Prefetch, SimResult};
use simmem::{BusWidth, MemoryTiming};
use simtrace::workload::{builtins, WorkloadSpec};
use tradeoff::equiv::traded_hit_ratio;
use tradeoff::{HitRatio, Machine, SystemConfig, TradeoffError};

/// The measured worth of prefetching on one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct PrefetchWorth {
    /// Workload.
    pub workload: &'static WorkloadSpec,
    /// Cycles without prefetching.
    pub cycles_plain: u64,
    /// Cycles with next-line prefetching.
    pub cycles_prefetch: u64,
    /// The equivalent hit-ratio gain (may be negative when prefetching
    /// hurts).
    pub hit_ratio_worth: f64,
    /// Memory-traffic inflation: (demand + prefetch fills) / demand fills
    /// of the plain run.
    pub traffic_factor: f64,
}

fn simulate(workload: &WorkloadSpec, prefetch: Prefetch, beta: u64, n: usize) -> SimResult {
    let cfg = CpuConfig::baseline(
        figure1_cache(32),
        MemoryTiming::new(BusWidth::new(4).expect("valid bus"), beta),
    )
    .with_prefetch(prefetch);
    Cpu::new(cfg).run(workload.compile(0xFE7C).take(n))
}

/// Measures the worth of next-line prefetching per program.
///
/// # Errors
///
/// Propagates model-validation errors (degenerate measured α).
pub fn run(beta: u64, instructions: usize) -> Result<Vec<PrefetchWorth>, TradeoffError> {
    let mut out = Vec::new();
    for workload in builtins() {
        let plain = simulate(workload, Prefetch::None, beta, instructions);
        let pf = simulate(workload, Prefetch::NextLine, beta, instructions);
        let machine = Machine::new(4.0, 32.0, beta as f64)?;
        let base = SystemConfig::full_stalling(plain.alpha().clamp(0.0, 1.0));
        let g = base.delay_per_missed_line(&machine)?;
        let refs = plain.dcache.accesses() as f64;
        let hit_ratio_worth = (plain.cycles as f64 - pf.cycles as f64) / (refs * (g - 1.0));
        let traffic_factor =
            (pf.dcache.fills + pf.dcache.prefetch_fills) as f64 / plain.dcache.fills.max(1) as f64;
        out.push(PrefetchWorth {
            workload,
            cycles_plain: plain.cycles,
            cycles_prefetch: pf.cycles,
            hit_ratio_worth,
            traffic_factor,
        });
    }
    Ok(out)
}

/// Renders the comparison against the paper's priced features.
///
/// # Errors
///
/// Propagates model-validation errors.
pub fn report(beta: u64, instructions: usize) -> Result<String, TradeoffError> {
    let rows = run(beta, instructions)?;
    let machine = Machine::new(4.0, 32.0, beta as f64)?;
    let base = SystemConfig::full_stalling(0.5);
    let hr = HitRatio::new(0.90)?;
    let bus = traded_hit_ratio(&machine, &base, &base.with_bus_factor(2.0), hr)?;
    let wb = traded_hit_ratio(&machine, &base, &base.with_write_buffers(), hr)?;

    let mut t = Table::new([
        "program",
        "cycles (no pf)",
        "cycles (pf)",
        "worth (ΔHR)",
        "traffic ×",
    ]);
    for r in &rows {
        t.row([
            r.workload.label(),
            r.cycles_plain.to_string(),
            r.cycles_prefetch.to_string(),
            format!("{:+.2}%", 100.0 * r.hit_ratio_worth),
            format!("{:.2}", r.traffic_factor),
        ]);
    }
    Ok(format!(
        "Next-line prefetch priced in hit ratio (8K 2-way, L=32, D=4, β={beta}).\n\
         For scale at HR=90%: doubling bus is worth {:+.2}%, write buffers {:+.2}%.\n{}",
        100.0 * bus,
        100.0 * wb,
        t.render()
    ))
}

/// Registry entry for this experiment.
pub const EXP: Experiment = Experiment {
    id: "prefetch",
    title: "Prefetch pricing",
    tags: &["extension", "measured"],
    traces: &[],
    module: module_path!(),
    cost: 36,
    run: |ctx| {
        ExpReport::text_only(report(8, ctx.instructions).expect("canonical parameters valid"))
    },
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefetch_helps_streaming_programs() {
        let rows = run(8, 40_000).unwrap();
        let by = |p: &str| rows.iter().find(|r| r.workload.label() == p).unwrap();
        // swm256/hydro2d are stride-dominated: prefetching must pay.
        assert!(by("swm256").hit_ratio_worth > 0.0, "{:?}", by("swm256"));
        assert!(by("hydro2d").hit_ratio_worth > 0.0);
    }

    #[test]
    fn prefetch_inflates_traffic() {
        for r in run(8, 30_000).unwrap() {
            assert!(r.traffic_factor > 1.0, "{:?}", r);
            assert!(r.traffic_factor < 3.0, "{:?}", r);
        }
    }

    #[test]
    fn report_renders_scale_anchors() {
        let text = report(8, 20_000).unwrap();
        assert!(text.contains("doubling bus"));
        assert!(text.contains("traffic ×"));
    }
}
