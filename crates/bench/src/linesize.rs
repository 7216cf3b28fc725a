//! EXP-X2 — Section 5.4.1: when to use a larger line size.
//!
//! Two complementary views:
//!
//! 1. Analytic: the minimum hit-ratio gain `ΔEHR` a larger line must
//!    deliver (Eq. 14), swept over line size and memory speed.
//! 2. Simulated: hit ratios *measured* by the cache simulator on a SPEC92
//!    proxy feed the optimal-line selectors, closing the loop between
//!    substrate and model.

use crate::registry::{ExpReport, Experiment, RunCtx};
use report::{Artifact, Table};
use simcache::explore::hit_ratio_grid;
use simtrace::spec92::Spec92Program;
use tradeoff::linesize::{
    miss_count_ratio, optimal_line_eq19, optimal_line_smith, required_hit_gain, FillTiming,
    LineCandidate,
};
use tradeoff::{HitRatio, TradeoffError};

/// The analytic ΔEHR table: rows are larger lines, columns are `c`
/// values, base line 8 B at hit ratio `hr0`.
///
/// # Errors
///
/// Propagates model-validation errors.
pub fn required_gain_table(hr0: f64, beta: f64, cs: &[f64]) -> Result<String, TradeoffError> {
    let hr0 = HitRatio::new(hr0)?;
    let mut header = vec!["L* (bytes)".to_string()];
    header.extend(cs.iter().map(|c| format!("ΔEHR @ c={c}")));
    let mut t = Table::new(header);
    for l_star in [16.0, 32.0, 64.0, 128.0] {
        let mut row = vec![format!("{l_star}")];
        for &c in cs {
            let timing = FillTiming::new(c, beta)?;
            let r = miss_count_ratio(&timing, 4.0, 8.0, l_star, 0.5, 0.5)?;
            row.push(format!("{:.3}%", 100.0 * required_hit_gain(r, hr0)));
        }
        t.row(row);
    }
    Ok(t.render())
}

/// The simulated view: measure hit ratios across line sizes on a proxy
/// workload, then let both selectors pick the optimal line.
///
/// Returns `(candidates, smith's pick, eq19's pick)`.
///
/// # Errors
///
/// Propagates cache-configuration and model errors (stringified).
pub fn simulated_selection(
    program: Spec92Program,
    cache_bytes: u64,
    instructions: usize,
    timing: &FillTiming,
) -> Result<(Vec<LineCandidate>, f64, f64), String> {
    let lines = [8u64, 16, 32, 64, 128];
    // The trace comes from the shared store at the sweep seed, so this
    // experiment and the design-space sweep share one materialisation.
    let trace = crate::tracestore::workload_trace(
        simtrace::workload::builtin_spec(program),
        crate::sweep::SWEEP_SEED,
        instructions,
    );
    let points = hit_ratio_grid(
        &[cache_bytes],
        &lines,
        2,
        || trace.iter().copied(),
        instructions as u64 / 5,
    )
    .map_err(|e| e.to_string())?;
    let candidates: Vec<LineCandidate> = points
        .iter()
        .map(|p| {
            Ok(LineCandidate {
                line_bytes: p.line_bytes as f64,
                hit_ratio: HitRatio::new(p.hit_ratio).map_err(|e| e.to_string())?,
            })
        })
        .collect::<Result<_, String>>()?;
    let smith = optimal_line_smith(timing, 4.0, &candidates).map_err(|e| e.to_string())?;
    let ours = optimal_line_eq19(timing, 4.0, &candidates).map_err(|e| e.to_string())?;
    Ok((candidates, smith.line_bytes, ours.line_bytes))
}

/// Builds the full section plus the typed `linesize.csv` artifact.
///
/// # Panics
///
/// Panics if the canonical parameters were invalid (they are not).
pub fn report(instructions: usize) -> ExpReport {
    let mut out = String::new();
    out.push_str("Required hit-ratio gain ΔEHR over an 8-byte line (HR₀ = 95%, β = 1):\n");
    out.push_str(
        &required_gain_table(0.95, 1.0, &[2.0, 5.0, 10.0, 20.0])
            .expect("canonical parameters valid"),
    );
    out.push('\n');

    let timing = FillTiming::new(7.0, 1.0).expect("valid timing");
    let mut t = Table::new(["program", "measured HR by line", "Smith pick", "Eq.19 pick"]);
    let mut rows_csv = Vec::new();
    for p in [
        Spec92Program::Nasa7,
        Spec92Program::Doduc,
        Spec92Program::Ear,
    ] {
        match simulated_selection(p, 8 * 1024, instructions, &timing) {
            Ok((cands, smith, ours)) => {
                let hrs: Vec<String> = cands
                    .iter()
                    .map(|c| format!("{}B:{:.1}%", c.line_bytes, 100.0 * c.hit_ratio.value()))
                    .collect();
                for c in &cands {
                    rows_csv.push(vec![
                        p.to_string(),
                        format!("{}", c.line_bytes),
                        format!("{:.4}", c.hit_ratio.value()),
                    ]);
                }
                t.row([
                    p.to_string(),
                    hrs.join(" "),
                    format!("{smith} B"),
                    format!("{ours} B"),
                ]);
            }
            Err(e) => {
                t.row([
                    p.to_string(),
                    format!("error: {e}"),
                    String::new(),
                    String::new(),
                ]);
            }
        }
    }
    out.push_str("Optimal line from *measured* hit ratios (8K two-way, c=7, β=1):\n");
    out.push_str(&t.render());
    ExpReport {
        section: out,
        artifacts: vec![Artifact::csv(
            "linesize.csv",
            &["program", "line_bytes", "hit_ratio"],
            rows_csv,
        )],
    }
}

/// Registry entry for this experiment.
pub struct Exp;

impl Experiment for Exp {
    fn id(&self) -> &'static str {
        "linesize"
    }
    fn title(&self) -> &'static str {
        "Line-size analysis"
    }
    fn tags(&self) -> &'static [&'static str] {
        &["paper", "measured", "analytic"]
    }
    fn depends_on_traces(&self) -> &'static [&'static str] {
        &[crate::registry::traces::SWEEP7]
    }
    fn module(&self) -> &'static str {
        module_path!()
    }
    fn run(&self, ctx: &RunCtx) -> ExpReport {
        report(ctx.instructions.min(60_000))
    }
}

/// Entry point shared by the binary and the `run_all` driver.
///
/// # Panics
///
/// Panics if the canonical parameters were invalid (they are not).
pub fn main_report() -> String {
    crate::registry::main_report(&Exp)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn required_gain_falls_with_latency() {
        // At higher c the transfer overhead of a big line matters less,
        // so the required gain falls.
        let hr0 = HitRatio::new(0.95).unwrap();
        let gain_at = |c: f64| {
            let t = FillTiming::new(c, 2.0).unwrap();
            let r = miss_count_ratio(&t, 4.0, 8.0, 64.0, 0.5, 0.5).unwrap();
            required_hit_gain(r, hr0)
        };
        assert!(gain_at(2.0) > gain_at(20.0));
    }

    #[test]
    fn selectors_agree_on_measured_curves() {
        // The paper's validation, but on hit ratios measured by our own
        // cache simulator rather than a parametric model.
        for (c, beta) in [(3.0, 0.5), (7.0, 1.0), (15.0, 2.0)] {
            let timing = FillTiming::new(c, beta).unwrap();
            let (_, smith, ours) =
                simulated_selection(Spec92Program::Nasa7, 8 * 1024, 40_000, &timing).unwrap();
            assert_eq!(smith, ours, "selectors disagree at c={c} β={beta}");
        }
    }

    #[test]
    fn strided_program_prefers_large_lines_when_bus_is_fast() {
        let timing = FillTiming::new(20.0, 0.5).unwrap();
        let (_, smith, _) =
            simulated_selection(Spec92Program::Swm256, 8 * 1024, 40_000, &timing).unwrap();
        assert!(
            smith >= 32.0,
            "sequential code with cheap transfer wants big lines: {smith}"
        );
    }

    #[test]
    fn table_renders() {
        let text = required_gain_table(0.95, 1.0, &[2.0, 10.0]).unwrap();
        assert!(text.contains("ΔEHR @ c=2"));
        assert!(text.contains("128"));
    }
}
