//! EXP-EX1 — Example 1 (Section 5.2): the Short & Levy case study.
//!
//! Short & Levy's trace-driven data gives a full-blocking cache 91 % hit
//! ratio at 8 KB and 95.5 % at 32 KB. The paper's claim:
//!
//! * Case 1: a 64-bit-bus processor with the 8 KB cache performs like a
//!   32-bit-bus processor with the 32 KB cache.
//! * Case 2: a 64-bit bus with 32 KB performs like a 32-bit bus with
//!   128 KB.

use crate::registry::{ExpReport, Experiment};
use report::Table;
use tradeoff::equiv::hit_gain_equivalent;
use tradeoff::{HitRatio, Machine, SystemConfig, TradeoffError};

/// One equivalence case.
#[derive(Debug, Clone, PartialEq)]
pub struct CaseResult {
    /// Case label.
    pub name: String,
    /// Hit ratio of the small cache (64-bit side).
    pub small_hr: f64,
    /// Hit ratio the 32-bit side needs for equal performance (model).
    pub required_hr: f64,
    /// The measured hit ratio of the bigger cache (from Short & Levy).
    pub bigger_cache_hr: f64,
}

impl CaseResult {
    /// Whether the model's requirement is met by the bigger cache within
    /// `tol` (absolute hit-ratio difference).
    pub fn holds_within(&self, tol: f64) -> bool {
        (self.required_hr - self.bigger_cache_hr).abs() <= tol
    }
}

/// Evaluates both cases across a β_m sweep and returns the results at
/// each β.
///
/// # Errors
///
/// Propagates model-validation errors.
pub fn run(betas: &[f64]) -> Result<Vec<(f64, Vec<CaseResult>)>, TradeoffError> {
    // Short & Levy hit ratios: 8K → 91 %, 32K → 95.5 %; the paper's
    // Case 2 extrapolates 128 K with the same ΔHR law.
    let base = SystemConfig::full_stalling(0.5);
    let doubled = base.with_bus_factor(2.0);
    let mut out = Vec::new();
    for &beta in betas {
        let machine = Machine::new(4.0, 32.0, beta)?;
        let mut cases = Vec::new();
        for (name, small_hr, big_hr) in [
            ("Case 1: 64-bit+8K vs 32-bit+32K", 0.91, 0.955),
            ("Case 2: 64-bit+32K vs 32-bit+128K", 0.955, 0.9775),
        ] {
            let hr2 = HitRatio::new(small_hr)?;
            // Eq. 7: the hit-ratio increase equal to doubling the bus.
            let gain = hit_gain_equivalent(&machine, &base, &doubled, hr2)?;
            cases.push(CaseResult {
                name: name.to_string(),
                small_hr,
                required_hr: small_hr + gain,
                bigger_cache_hr: big_hr,
            });
        }
        out.push((beta, cases));
    }
    Ok(out)
}

/// Renders the case-study table.
pub fn render(results: &[(f64, Vec<CaseResult>)]) -> String {
    let mut t = Table::new([
        "beta_m",
        "case",
        "HR small cache",
        "HR needed (32-bit)",
        "HR bigger cache",
        "holds (±1%)",
    ]);
    for (beta, cases) in results {
        for c in cases {
            t.row([
                format!("{beta}"),
                c.name.clone(),
                format!("{:.2}%", 100.0 * c.small_hr),
                format!("{:.2}%", 100.0 * c.required_hr),
                format!("{:.2}%", 100.0 * c.bigger_cache_hr),
                c.holds_within(0.01).to_string(),
            ]);
        }
    }
    format!(
        "Example 1 — Short & Levy case study (L=32, D=4→8, α=0.5)\n{}",
        t.render()
    )
}

/// Registry entry for this experiment.
pub const EXP: Experiment = Experiment {
    id: "example1",
    title: "Example 1",
    tags: &["paper", "analytic"],
    traces: &[],
    module: module_path!(),
    run: |_| {
        let results = run(&[4.0, 8.0, 16.0, 32.0]).expect("canonical parameters valid");
        ExpReport::text_only(render(&results))
    },
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::RunCtx;

    #[test]
    fn case1_holds_for_moderate_memory_cycles() {
        // 91 % + gain ≈ 95.5 %: the gain law gives 0.5–0.6 of (1−HR) =
        // 4.5–5.4 %; Short & Levy's 4.5 % jump matches at the slow end.
        let results = run(&[8.0, 16.0, 32.0]).unwrap();
        for (beta, cases) in &results {
            assert!(
                cases[0].holds_within(0.012),
                "β={beta}: required {:.4} vs measured 0.955",
                cases[0].required_hr
            );
        }
    }

    #[test]
    fn case2_holds_for_moderate_memory_cycles() {
        let results = run(&[8.0, 16.0, 32.0]).unwrap();
        for (beta, cases) in &results {
            assert!(
                cases[1].holds_within(0.012),
                "β={beta}: required {:.4} vs 0.9775",
                cases[1].required_hr
            );
        }
    }

    #[test]
    fn gain_is_within_paper_band() {
        // 0.5(1−HR) ≤ gain ≤ 0.6(1−HR) for L ≥ 2D, α = 0.5.
        let results = run(&[2.0, 8.0, 64.0]).unwrap();
        for (_, cases) in &results {
            for c in cases {
                let gain = c.required_hr - c.small_hr;
                let miss = 1.0 - c.small_hr;
                assert!(gain >= 0.5 * miss - 1e-9 && gain <= 0.6 * miss + 1e-9);
            }
        }
    }

    #[test]
    fn render_mentions_both_cases() {
        let text = (EXP.run)(&RunCtx::standard()).section;
        assert!(text.contains("Case 1") && text.contains("Case 2"));
    }
}
