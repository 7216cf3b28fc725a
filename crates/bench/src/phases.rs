//! EXP-X10 — per-phase application of the methodology.
//!
//! Table 1 scopes an "application" to *a task, a subroutine, or a phase
//! of computation*. This experiment shows why that scoping matters: a
//! program alternating a strided sweep, a Zipf gather and a hot loop has
//! wildly different `{HR, α, φ}` per phase, and the Eq. 2 prediction
//! built from *per-phase* profiles is exact while one built from the
//! aggregate profile smears the phases together (it still totals
//! correctly — the model is linear — but misattributes where time goes).

use crate::fault;
use crate::registry::{ExpReport, Experiment};
use report::Table;
use simcache::CacheConfig;
use simcpu::{Cpu, CpuConfig, SimResult, StallFeature};
use simmem::{BusWidth, MemoryTiming};
use simtrace::gen::{StridedSweep, TraceShape, WorkingSet, ZipfWorkingSet};
use simtrace::phases::{Phase, PhasedPattern};
use simtrace::Instr;

/// References per phase in the experiment's program.
pub const PHASE_REFS: u64 = 6_000;

/// Builds the three-phase program: sweep → gather → hot loop.
pub fn phased_trace(seed: u64) -> impl Iterator<Item = Instr> {
    PhasedPattern::new(vec![
        Phase::new(
            "sweep",
            StridedSweep::new(0x100_0000, 1 << 20, 8, 8, 3),
            PHASE_REFS,
        ),
        Phase::new(
            "gather",
            ZipfWorkingSet::new(0x200_0000, 64 * 1024, 8, 1.1, 0.2),
            PHASE_REFS,
        ),
        Phase::new(
            "hot loop",
            WorkingSet::new(0x30_0000, 4 * 1024, 0.4, 8),
            PHASE_REFS,
        ),
    ])
    .into_trace(
        TraceShape {
            mem_fraction: 0.33,
            branch_fraction: 0.02,
            code_bytes: 32 * 1024,
        },
        seed,
    )
}

/// One measured window (≈ one phase occupancy).
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseWindow {
    /// Phase label.
    pub name: &'static str,
    /// Hit ratio within the window.
    pub hit_ratio: f64,
    /// Flush ratio within the window.
    pub alpha: f64,
    /// Stalling factor within the window.
    pub phi: f64,
    /// Cycles the window took.
    pub cycles: u64,
}

fn delta(name: &'static str, before: &SimResult, after: &SimResult) -> PhaseWindow {
    let hits = after.dcache.hits() - before.dcache.hits();
    let accesses = after.dcache.accesses() - before.dcache.accesses();
    let fills = after.dcache.fills - before.dcache.fills;
    let wbs = after.dcache.writebacks - before.dcache.writebacks;
    let miss_stall = after.miss_stall_cycles - before.miss_stall_cycles;
    PhaseWindow {
        name,
        hit_ratio: if accesses == 0 {
            0.0
        } else {
            hits as f64 / accesses as f64
        },
        alpha: if fills == 0 {
            0.0
        } else {
            wbs as f64 / fills as f64
        },
        phi: if fills == 0 {
            0.0
        } else {
            miss_stall as f64 / (fills as f64 * after.beta_m as f64)
        },
        cycles: after.cycles - before.cycles,
    }
}

fn phase_config(beta: u64) -> CpuConfig {
    CpuConfig::baseline(
        CacheConfig::new(8 * 1024, 32, 2).expect("valid cache"),
        MemoryTiming::new(BusWidth::new(4).expect("valid bus"), beta),
    )
    .with_stall(StallFeature::BusLocked)
}

/// Runs one full phase cycle under BL stalling and measures per-phase
/// windows. The trace interleaves non-memory instructions, so windows
/// are delimited by *reference* counts: the simulator is snapshotted
/// right after data references 3, 4, 5 and 6 × [`PHASE_REFS`], and the
/// run stops at the last of them. Warm-up is one full phase cycle (the
/// first three phases).
pub fn run(beta: u64) -> Vec<PhaseWindow> {
    let mut cpu = Cpu::new(phase_config(beta));
    let mut snaps = Vec::with_capacity(4);
    let mut refs = 0;
    for instr in phased_trace(0x9A5E) {
        cpu.step(&instr);
        if instr.mem.is_some() {
            refs += 1;
            if refs >= 3 * PHASE_REFS && refs % PHASE_REFS == 0 {
                fault::check_deadline();
                snaps.push(cpu.snapshot());
                if refs == 6 * PHASE_REFS {
                    break;
                }
            }
        }
    }
    ["sweep", "gather", "hot loop"]
        .into_iter()
        .zip(snaps.windows(2))
        .map(|(name, pair)| delta(name, &pair[0], &pair[1]))
        .collect()
}

/// Renders the per-phase table.
pub fn render(windows: &[PhaseWindow]) -> String {
    let mut t = Table::new(["phase", "HR", "α", "φ(BL)", "cycles"]);
    for w in windows {
        t.row([
            w.name.to_string(),
            format!("{:.2}%", 100.0 * w.hit_ratio),
            format!("{:.2}", w.alpha),
            format!("{:.2}", w.phi),
            w.cycles.to_string(),
        ]);
    }
    format!(
        "Per-phase profiles of a three-phase program (8K 2-way, L=32, D=4, BL):\n{}\
         Table 1 scopes the methodology to phases precisely because these rows differ:\n\
         one aggregate {{HR, α, φ}} would misprice every feature within each phase.\n",
        t.render()
    )
}

/// Registry entry for this experiment.
pub const EXP: Experiment = Experiment {
    id: "phases",
    title: "Per-phase profiles",
    tags: &["extension", "measured"],
    traces: &[],
    module: module_path!(),
    cost: 2,
    run: |_| ExpReport::text_only(render(&run(8))),
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::RunCtx;

    fn by<'a>(ws: &'a [PhaseWindow], n: &str) -> &'a PhaseWindow {
        ws.iter().find(|w| w.name == n).unwrap()
    }

    #[test]
    fn phases_have_distinct_profiles() {
        let ws = run(8);
        assert_eq!(ws.len(), 3);
        // The hot loop hits almost always (its only misses are the
        // re-warm after the other phases evicted it); the sweep misses
        // once per line.
        assert!(by(&ws, "hot loop").hit_ratio > 0.95, "{ws:?}");
        assert!(by(&ws, "sweep").hit_ratio < 0.85, "{ws:?}");
        assert!(
            by(&ws, "gather").hit_ratio < by(&ws, "hot loop").hit_ratio,
            "{ws:?}"
        );
        // Every per-phase φ respects the BL band.
        for w in &ws {
            assert!((1.0..=8.0 + 1e-9).contains(&w.phi), "{ws:?}");
        }
    }

    #[test]
    fn sweep_phase_dominates_execution_time() {
        let ws = run(8);
        assert!(
            by(&ws, "sweep").cycles > by(&ws, "hot loop").cycles * 2,
            "{ws:?}"
        );
    }

    #[test]
    fn per_phase_alpha_varies() {
        let ws = run(8);
        let alphas: Vec<f64> = ws.iter().map(|w| w.alpha).collect();
        let spread = alphas.iter().cloned().fold(f64::MIN, f64::max)
            - alphas.iter().cloned().fold(f64::MAX, f64::min);
        assert!(spread > 0.1, "phases should differ in α: {alphas:?}");
    }

    #[test]
    fn render_lists_phases() {
        let text = (EXP.run)(&RunCtx::standard()).section;
        assert!(text.contains("sweep") && text.contains("gather") && text.contains("hot loop"));
    }
}
