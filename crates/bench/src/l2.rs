//! EXP-X7 — second-level cache extension: does an L2 change the paper's
//! conclusions?
//!
//! A 1994-vintage system saw raw memory on every miss; adding an L2
//! shrinks the *effective* memory cycle time the L1 misses observe. The
//! unified methodology predicts exactly what should happen: features
//! whose value grows with β_m (pipelining past its crossover) lose
//! appeal, and the bus-doubling/write-buffer curves move toward their
//! small-β_m ends. The experiment measures the effective per-miss
//! service with and without an L2 and re-evaluates the feature ranking
//! at the effective point.

use crate::common::figure1_cache;
use crate::registry::{ExpReport, Experiment};
use report::Table;
use simcache::CacheConfig;
use simcpu::{Cpu, CpuConfig, L2Config, SimResult};
use simmem::{BusWidth, MemoryTiming};
use simtrace::workload::{builtins, WorkloadSpec};
use tradeoff::crossover::pipelined_vs_double_bus;
use tradeoff::{HitRatio, Machine, SystemConfig, TradeoffError};

/// Measurements for one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct L2Worth {
    /// Workload.
    pub workload: &'static WorkloadSpec,
    /// Cycles without an L2.
    pub cycles_flat: u64,
    /// Cycles with the L2.
    pub cycles_l2: u64,
    /// Effective memory cycle time seen by L1 misses, without L2
    /// (`miss_stall / (fills · L/D)`).
    pub beta_eff_flat: f64,
    /// Effective memory cycle time with the L2.
    pub beta_eff_l2: f64,
    /// L2 local hit ratio.
    pub l2_hit_ratio: f64,
}

fn simulate(workload: &WorkloadSpec, l2: Option<L2Config>, beta: u64, n: usize) -> SimResult {
    let mut cfg = CpuConfig::baseline(
        figure1_cache(32),
        MemoryTiming::new(BusWidth::new(4).expect("valid bus"), beta),
    );
    if let Some(l2) = l2 {
        cfg = cfg.with_l2(l2);
    }
    Cpu::new(cfg).run(workload.compile(0x12E2).take(n))
}

/// The canonical L2 of the experiment: 128 KB 4-way at β = 2.
///
/// # Panics
///
/// Panics only if the constant geometry were invalid (it is not).
pub fn canonical_l2() -> L2Config {
    L2Config::new(CacheConfig::new(128 * 1024, 32, 4).expect("valid L2"), 2)
}

fn beta_eff(r: &SimResult) -> f64 {
    let chunks = (r.line_bytes / 4) as f64;
    if r.dcache.fills == 0 {
        0.0
    } else {
        r.miss_stall_cycles as f64 / (r.dcache.fills as f64 * chunks)
    }
}

/// Runs the comparison for all proxies.
pub fn run(beta: u64, instructions: usize) -> Vec<L2Worth> {
    builtins()
        .iter()
        .map(|workload| {
            let flat = simulate(workload, None, beta, instructions);
            let l2 = simulate(workload, Some(canonical_l2()), beta, instructions);
            L2Worth {
                workload,
                cycles_flat: flat.cycles,
                cycles_l2: l2.cycles,
                beta_eff_flat: beta_eff(&flat),
                beta_eff_l2: beta_eff(&l2),
                l2_hit_ratio: l2.l2.map_or(0.0, |s| s.hit_ratio()),
            }
        })
        .collect()
}

/// Renders the table plus the crossover implication.
///
/// # Errors
///
/// Propagates model-validation errors.
pub fn report(beta: u64, instructions: usize) -> Result<String, TradeoffError> {
    let rows = run(beta, instructions);
    let mut t = Table::new([
        "program",
        "cycles (flat)",
        "cycles (+L2)",
        "β_eff flat",
        "β_eff +L2",
        "L2 HR",
    ]);
    let mut avg_eff = 0.0;
    for r in &rows {
        avg_eff += r.beta_eff_l2;
        t.row([
            r.workload.label(),
            r.cycles_flat.to_string(),
            r.cycles_l2.to_string(),
            format!("{:.2}", r.beta_eff_flat),
            format!("{:.2}", r.beta_eff_l2),
            format!("{:.1}%", 100.0 * r.l2_hit_ratio),
        ]);
    }
    avg_eff /= rows.len() as f64;

    // The ranking implication: re-evaluate the pipelining-vs-bus
    // comparison at the effective memory cycle time.
    let crossover = pipelined_vs_double_bus(8.0, 2.0).expect("L/D = 8 has a crossover");
    let machine = Machine::new(4.0, 32.0, avg_eff.max(1.1))?;
    let base = SystemConfig::full_stalling(0.5);
    let hr = HitRatio::new(0.95)?;
    let pipe =
        tradeoff::equiv::traded_hit_ratio(&machine, &base, &base.with_pipelined_memory(2.0), hr)?;
    let bus = tradeoff::equiv::traded_hit_ratio(&machine, &base, &base.with_bus_factor(2.0), hr)?;
    let verdict = if avg_eff < crossover {
        format!(
            "below the pipelining crossover ({crossover:.2}): doubling the bus \
             ({:.2}%) again beats pipelined memory ({:.2}%)",
            100.0 * bus,
            100.0 * pipe
        )
    } else {
        format!("still above the pipelining crossover ({crossover:.2}): pipelining keeps winning")
    };
    Ok(format!(
        "Second-level cache extension (8K L1 + 128K L2 @ β=2, memory β={beta}):\n{}\n\
         Average effective memory cycle seen by L1 misses drops to {avg_eff:.2} — {verdict}.\n",
        t.render()
    ))
}

/// Registry entry for this experiment.
pub const EXP: Experiment = Experiment {
    id: "l2",
    title: "L2 extension",
    tags: &["extension", "measured"],
    traces: &[],
    module: module_path!(),
    cost: 31,
    run: |ctx| {
        ExpReport::text_only(report(8, ctx.instructions).expect("canonical parameters valid"))
    },
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn l2_always_helps_and_shrinks_beta_eff() {
        for r in run(8, 30_000) {
            assert!(r.cycles_l2 <= r.cycles_flat, "{:?}", r);
            assert!(r.beta_eff_l2 < r.beta_eff_flat, "{:?}", r);
            assert!(r.l2_hit_ratio > 0.0, "{:?}", r);
        }
    }

    #[test]
    fn flat_beta_eff_matches_fs_definition() {
        // Without an L2, FS makes every miss cost exactly (L/D)·β_m, so
        // the effective β is β_m (up to queueing from flushes).
        for r in run(8, 20_000) {
            assert!(r.beta_eff_flat >= 8.0 - 1e-9, "{:?}", r);
            assert!(r.beta_eff_flat < 10.0, "{:?}", r);
        }
    }

    #[test]
    fn report_states_the_crossover_verdict() {
        let text = report(8, 15_000).unwrap();
        assert!(text.contains("crossover"));
        assert!(text.contains("β_eff"));
    }
}
