//! EXP-X15 — auditing the paper's Section 3.1 assumptions.
//!
//! The model rests on five hardware assumptions; two are directly
//! testable by relaxing them in the simulator:
//!
//! * **Assumption 1** (separate instruction and data buses): we give the
//!   I-cache misses the *data* bus instead and measure the contention.
//! * **Assumption 5** (equal read and write memory cycles): we make
//!   writes 2× slower and measure the flush-term inflation.
//!
//! The punchline is quantitative: how much each dated assumption is
//! worth, in CPI, on the SPEC92 proxies — and therefore how much caution
//! the analytic numbers deserve on machines that violate them.

use crate::fault;
use crate::registry::{ExpReport, Experiment};
use crate::tracestore;
use report::Table;
use simcache::CacheConfig;
use simcpu::{Cpu, CpuConfig, SimResult};
use simmem::{BusWidth, MemoryTiming};
use simtrace::workload::{builtins, WorkloadSpec};

/// The three variants per workload.
#[derive(Debug, Clone, PartialEq)]
pub struct AssumptionRow {
    /// Workload.
    pub workload: &'static WorkloadSpec,
    /// The paper's assumptions hold.
    pub baseline: SimResult,
    /// Assumption 1 relaxed: one shared external bus.
    pub shared_bus: SimResult,
    /// Assumption 5 relaxed: writes at 2×β_m.
    pub slow_writes: SimResult,
}

fn simulate(workload: &WorkloadSpec, shared: bool, slow_writes: bool, n: usize) -> SimResult {
    let mut timing = MemoryTiming::new(BusWidth::new(4).expect("valid bus"), 8);
    if slow_writes {
        timing = timing.with_write_beta(16);
    }
    let mut cfg = CpuConfig::baseline(
        CacheConfig::new(8 * 1024, 32, 2).expect("valid dcache"),
        timing,
    )
    .with_icache(CacheConfig::new(8 * 1024, 32, 1).expect("valid icache"));
    if shared {
        cfg = cfg.with_shared_bus();
    }
    // The I-cache makes timing cache-history-dependent, so this
    // experiment keeps the full simulator — but the trace itself is
    // materialised once per program and shared by the three variants.
    let trace = tracestore::workload_trace(workload, 0xA55E, n);
    Cpu::new(cfg).run(trace.iter().copied())
}

/// Runs the audit for every proxy: each program runs its three variants
/// in order, so the first materialises the shared trace and the other
/// two hit it. Each program is a cancellation point
/// ([`fault::check_deadline`]).
pub fn run(instructions: usize) -> Vec<AssumptionRow> {
    builtins()
        .iter()
        .map(|workload| {
            fault::check_deadline();
            AssumptionRow {
                workload,
                baseline: simulate(workload, false, false, instructions),
                shared_bus: simulate(workload, true, false, instructions),
                slow_writes: simulate(workload, false, true, instructions),
            }
        })
        .collect()
}

/// Renders the audit table.
pub fn render(rows: &[AssumptionRow]) -> String {
    let mut t = Table::new([
        "program",
        "CPI (assumptions hold)",
        "CPI shared bus (Δ%)",
        "CPI writes 2× (Δ%)",
    ]);
    for r in rows {
        let base = r.baseline.cpi();
        let pct = |x: f64| 100.0 * (x - base) / base;
        t.row([
            r.workload.label(),
            format!("{base:.3}"),
            format!(
                "{:.3} ({:+.1}%)",
                r.shared_bus.cpi(),
                pct(r.shared_bus.cpi())
            ),
            format!(
                "{:.3} ({:+.1}%)",
                r.slow_writes.cpi(),
                pct(r.slow_writes.cpi())
            ),
        ]);
    }
    format!(
        "Auditing Section 3.1's assumptions (8K I + 8K D, L=32, D=4, β=8):\n{}\
         Assumption 1 (split buses) costs little when the I-cache runs hot;\n\
         assumption 5 (symmetric cycles) matters in proportion to the flush ratio α —\n\
         both are quantified here rather than taken on faith.\n",
        t.render()
    )
}

/// Registry entry for this experiment.
pub const EXP: Experiment = Experiment {
    id: "assumptions",
    title: "Assumption audit",
    tags: &["extension", "measured", "validation"],
    traces: &[],
    module: module_path!(),
    cost: 46,
    run: |ctx| ExpReport::text_only(render(&run(ctx.instructions))),
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relaxing_assumptions_never_speeds_things_up() {
        for r in run(25_000) {
            assert!(
                r.shared_bus.cycles >= r.baseline.cycles,
                "{}",
                r.workload.label()
            );
            assert!(
                r.slow_writes.cycles >= r.baseline.cycles,
                "{}",
                r.workload.label()
            );
        }
    }

    #[test]
    fn slow_writes_cost_scales_with_flush_ratio() {
        let rows = run(30_000);
        let inflation = |p: &str| {
            let r = rows.iter().find(|r| r.workload.label() == p).unwrap();
            r.slow_writes.cycles as f64 / r.baseline.cycles as f64
        };
        // ear flushes nearly every fill (α ≈ 0.9); doduc barely (α ≈ 0.3).
        assert!(
            inflation("ear") > inflation("doduc"),
            "ear {} vs doduc {}",
            inflation("ear"),
            inflation("doduc")
        );
    }

    #[test]
    fn identity_survives_relaxed_assumptions() {
        for r in run(15_000) {
            for v in [&r.baseline, &r.shared_bus, &r.slow_writes] {
                assert!(simcpu::validation_error(v) < 1e-9, "{}", r.workload.label());
            }
        }
    }

    #[test]
    fn render_quantifies_both_assumptions() {
        let text = render(&run(10_000));
        assert!(text.contains("shared bus"));
        assert!(text.contains("writes 2×"));
    }
}
