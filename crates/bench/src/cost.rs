//! EXP-X8 — pins versus silicon: the abstract's cost implications,
//! quantified.
//!
//! Section 5.2 observes that doubling a *small* cache is cheap silicon
//! while doubling the bus costs pins — but for a *large* cache the bus
//! is the better deal because it trades for a huge SRAM increment. This
//! experiment makes that concrete: for each base cache size it finds the
//! equal-performance pair `(2D, C) ≡ (D, C′)` via the equivalence law
//! plus a hit-ratio-versus-size model, then prices both sides in pins
//! and SRAM bits.

use crate::registry::{ExpReport, Experiment};
use report::Table;
use smithval::{DesignTargetModel, MissRatioModel};
use tradeoff::cost::{equivalent_cache_size, CacheAreaModel, PinModel};
use tradeoff::equiv::hit_gain_equivalent;
use tradeoff::{HitRatio, Machine, SystemConfig, TradeoffError};

/// One row of the pins-versus-silicon comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct CostRow {
    /// Cache size of the 64-bit-bus design.
    pub small_cache: u64,
    /// Its hit ratio under the model.
    pub small_hr: f64,
    /// The cache the 32-bit-bus design needs for equal performance.
    pub equivalent_cache: Option<u64>,
    /// Extra pins the 64-bit bus costs.
    pub extra_pins: u64,
    /// Extra SRAM kilobits the bigger cache costs.
    pub extra_kbits: Option<f64>,
}

/// Builds the comparison over a range of base cache sizes.
///
/// # Errors
///
/// Propagates model-validation errors.
pub fn run(beta_m: f64, line_bytes: u64) -> Result<Vec<CostRow>, TradeoffError> {
    let model = DesignTargetModel::default();
    let machine = Machine::new(4.0, line_bytes as f64, beta_m)?;
    let base = SystemConfig::full_stalling(0.5);
    let doubled = base.with_bus_factor(2.0);
    let area = CacheAreaModel::default();
    let pins = PinModel::default();

    let mut rows = Vec::new();
    for exp in 12..=18 {
        let small_cache = 1u64 << exp; // 4K .. 256K
        let small_hr = model.hit_ratio(small_cache as f64, line_bytes as f64);
        let hr2 = HitRatio::new(small_hr)?;
        // Eq. 7: the hit-ratio increase the 32-bit design needs.
        let gain = hit_gain_equivalent(&machine, &base, &doubled, hr2)?;
        let target = small_hr + gain;
        let equivalent_cache = equivalent_cache_size(
            |c| model.hit_ratio(c, line_bytes as f64),
            target,
            small_cache,
            1 << 24,
        );
        let extra_kbits = equivalent_cache
            .map(|c| {
                let big = area.bits(c, line_bytes, 2)?.total();
                let small = area.bits(small_cache, line_bytes, 2)?.total();
                Ok::<f64, TradeoffError>((big - small) as f64 / 1024.0)
            })
            .transpose()?;
        rows.push(CostRow {
            small_cache,
            small_hr,
            equivalent_cache,
            extra_pins: pins.doubling_cost(4),
            extra_kbits,
        });
    }
    Ok(rows)
}

/// Renders the table with the Section 5.2 reading.
pub fn render(rows: &[CostRow]) -> String {
    let mut t = Table::new([
        "64-bit design",
        "HR (model)",
        "32-bit needs",
        "extra pins (64-bit)",
        "extra SRAM (32-bit)",
    ]);
    for r in rows {
        t.row([
            format!("{}K + 64-bit", r.small_cache / 1024),
            format!("{:.2}%", 100.0 * r.small_hr),
            r.equivalent_cache
                .map_or("beyond 16M".to_string(), |c| format!("{}K", c / 1024)),
            format!("+{}", r.extra_pins),
            r.extra_kbits
                .map_or("—".to_string(), |k| format!("+{k:.0} Kbit")),
        ]);
    }
    format!(
        "Pins vs silicon for equal performance (L=32, β=8, α=0.5, design-target HR curve):\n{}\
         Reading: each row's two designs perform identically; small caches make the SRAM\n\
         column cheap (buy silicon, save pins), large caches make it enormous (buy pins).\n",
        t.render()
    )
}

/// Registry entry for this experiment.
pub const EXP: Experiment = Experiment {
    id: "cost",
    title: "Pins vs silicon",
    tags: &["paper", "analytic"],
    traces: &[],
    module: module_path!(),
    cost: 0,
    run: |_| ExpReport::text_only(render(&run(8.0, 32).expect("canonical parameters valid"))),
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::RunCtx;

    #[test]
    fn equivalent_cache_grows_superlinearly() {
        let rows = run(8.0, 32).unwrap();
        // The cache-size multiple needed to match the bus grows with the
        // base size (Section 5.2's "more advantageous when the cache is
        // large").
        let multiples: Vec<f64> = rows
            .iter()
            .filter_map(|r| r.equivalent_cache.map(|c| c as f64 / r.small_cache as f64))
            .collect();
        assert!(multiples.len() >= 3, "most rows should resolve");
        assert!(
            multiples.last().unwrap() >= multiples.first().unwrap(),
            "{multiples:?}"
        );
        // Every resolved multiple is at least 2× (doubling the cache is
        // never enough on this curve's flat end... but at least 2×).
        for m in &multiples {
            assert!(*m >= 2.0, "{multiples:?}");
        }
    }

    #[test]
    fn pins_cost_is_constant_sram_cost_grows() {
        let rows = run(8.0, 32).unwrap();
        let kbits: Vec<f64> = rows.iter().filter_map(|r| r.extra_kbits).collect();
        for w in kbits.windows(2) {
            assert!(
                w[1] >= w[0],
                "SRAM increments grow with base size: {kbits:?}"
            );
        }
        for r in &rows {
            assert_eq!(r.extra_pins, 32);
        }
    }

    #[test]
    fn render_mentions_both_currencies() {
        let text = (EXP.run)(&RunCtx::standard()).section;
        assert!(text.contains("extra pins"));
        assert!(text.contains("SRAM"));
    }
}
