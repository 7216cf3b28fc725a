//! EXP-X5 — write-miss policy ablation: write-allocate versus
//! write-around.
//!
//! The paper's model covers both policies (Section 3.1): under
//! write-allocate the write misses join `R` and `W = 0`; under
//! write-around they form the `W·β_m` term and do not fill lines. Which
//! wins is workload-dependent — allocation pays when written lines are
//! re-referenced, write-around pays when stores scatter. The experiment
//! measures both on every proxy and confirms the model tracks each run
//! exactly.

use crate::common::figure1_cache;
use crate::fault;
use crate::registry::{ExpReport, Experiment};
use report::Table;
use simcache::WriteMiss;
use simcpu::{validation_error, Cpu, CpuConfig, SimResult};
use simmem::{BusWidth, MemoryTiming};
use simtrace::workload::{builtins, WorkloadSpec};

/// The two policies, measured on one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct PolicyComparison {
    /// Workload.
    pub workload: &'static WorkloadSpec,
    /// Write-allocate run.
    pub allocate: SimResult,
    /// Write-around run.
    pub around: SimResult,
}

impl PolicyComparison {
    /// The winning policy's name.
    pub fn winner(&self) -> &'static str {
        if self.allocate.cycles <= self.around.cycles {
            "allocate"
        } else {
            "around"
        }
    }
}

fn simulate(workload: &WorkloadSpec, policy: WriteMiss, beta: u64, n: usize) -> SimResult {
    let cfg = CpuConfig::baseline(
        figure1_cache(32).with_write_miss(policy),
        MemoryTiming::new(BusWidth::new(4).expect("valid bus"), beta),
    );
    Cpu::new(cfg).run(workload.compile(0x3A3A).take(n))
}

/// Runs the comparison over all proxies.
pub fn run(beta: u64, instructions: usize) -> Vec<PolicyComparison> {
    builtins()
        .iter()
        .map(|workload| {
            fault::check_deadline();
            PolicyComparison {
                workload,
                allocate: simulate(workload, WriteMiss::Allocate, beta, instructions),
                around: simulate(workload, WriteMiss::Around, beta, instructions),
            }
        })
        .collect()
}

/// Renders the ablation table.
pub fn render(rows: &[PolicyComparison]) -> String {
    let mut t = Table::new([
        "program",
        "allocate cycles",
        "around cycles",
        "winner",
        "W (around)",
        "model err (both)",
    ]);
    for r in rows {
        let err = validation_error(&r.allocate).max(validation_error(&r.around));
        t.row([
            r.workload.label(),
            r.allocate.cycles.to_string(),
            r.around.cycles.to_string(),
            r.winner().to_string(),
            r.around.dcache.write_arounds.to_string(),
            format!("{err:.1e}"),
        ]);
    }
    format!(
        "Write-miss policy ablation (8K 2-way, L=32, D=4, β=8):\n{}",
        t.render()
    )
}

/// Registry entry for this experiment.
pub const EXP: Experiment = Experiment {
    id: "writemiss",
    title: "Write-miss policy ablation",
    tags: &["extension", "measured"],
    traces: &[],
    module: module_path!(),
    cost: 30,
    run: |ctx| ExpReport::text_only(render(&run(8, ctx.instructions))),
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_exact_under_both_policies() {
        for r in run(8, 20_000) {
            assert!(
                validation_error(&r.allocate) < 1e-9,
                "{}",
                r.workload.label()
            );
            assert!(validation_error(&r.around) < 1e-9, "{}", r.workload.label());
        }
    }

    #[test]
    fn around_produces_w_term_allocate_does_not() {
        for r in run(8, 20_000) {
            assert_eq!(r.allocate.dcache.write_arounds, 0, "{}", r.workload.label());
            assert!(r.around.dcache.write_arounds > 0, "{}", r.workload.label());
        }
    }

    #[test]
    fn allocation_wins_on_store_reuse_workloads() {
        // The stencil codes re-read what they wrote: write-allocate must
        // win there. Hydro2d's margin is thin (~0.05%), so give the
        // comparison enough instructions to converge.
        let rows = run(8, 80_000);
        let by = |p: &str| rows.iter().find(|r| r.workload.label() == p).unwrap();
        assert_eq!(by("swm256").winner(), "allocate");
        assert_eq!(by("hydro2d").winner(), "allocate");
    }

    #[test]
    fn render_lists_all_programs() {
        let text = render(&run(8, 5_000));
        for p in builtins() {
            assert!(text.contains(&p.label()));
        }
    }
}
