//! EXP-T2 / EXP-T3 — Tables 2 and 3: stalling-factor bounds and the
//! per-feature miss-traffic ratios of the write-allocate model.

use crate::registry::{ExpReport, Experiment};
use report::Table;
use tradeoff::equiv::miss_traffic_ratio;
use tradeoff::stall::StallKind;
use tradeoff::{Machine, SystemConfig, TradeoffError};

/// Renders Table 2 (stalling features and φ bounds) for a given `L/D`.
pub fn table2(chunks: f64) -> String {
    let mut t = Table::new(["feature", "description", "stalling factor φ"]);
    for kind in StallKind::ALL {
        let (lo, hi) = kind.phi_bounds(chunks);
        let desc = match kind {
            StallKind::Fs => "full stalling",
            StallKind::Bl => "bus-locked",
            StallKind::Bnl1 => "bus-not-locked (line conflict → completion)",
            StallKind::Bnl2 => "bus-not-locked (chunk miss → completion)",
            StallKind::Bnl3 => "bus-not-locked (wait for chunk only)",
            StallKind::Nb => "non-blocking",
        };
        let range = if (lo - hi).abs() < f64::EPSILON {
            format!("φ = {lo}")
        } else {
            format!("{lo} ≤ φ ≤ {hi}")
        };
        t.row([kind.to_string(), desc.to_string(), range]);
    }
    t.render()
}

/// One row of Table 3: a feature and its miss-traffic ratio `r`.
#[derive(Debug, Clone, PartialEq)]
pub struct Table3Row {
    /// Feature name.
    pub feature: String,
    /// The closed-form expression (for the report).
    pub expression: String,
    /// `r` evaluated at the given machine.
    pub r: f64,
}

/// Computes Table 3's ratios at a concrete machine point (`α = α′`).
///
/// `phi_ps` is the partially-stalling feature's measured φ.
///
/// # Errors
///
/// Propagates model-validation errors.
pub fn table3_rows(
    machine: &Machine,
    alpha: f64,
    phi_ps: f64,
    q: f64,
) -> Result<Vec<Table3Row>, TradeoffError> {
    let base = SystemConfig::full_stalling(alpha);
    let rows = vec![
        Table3Row {
            feature: "doubling bus".into(),
            expression: "((L/D)(1+α)β − 1) / ((L/2D)(1+α)β − 1)".into(),
            r: miss_traffic_ratio(machine, &base, &base.with_bus_factor(2.0))?,
        },
        Table3Row {
            feature: "partially stalling (BL, BNL)".into(),
            expression: "((L/D)(1+α)β − 1) / ((φ + (L/D)α)β − 1)".into(),
            r: miss_traffic_ratio(machine, &base, &base.with_partial_stall(phi_ps))?,
        },
        Table3Row {
            feature: "write buffers".into(),
            expression: "((L/D)(1+α)β − 1) / ((L/D)β − 1)".into(),
            r: miss_traffic_ratio(machine, &base, &base.with_write_buffers())?,
        },
        Table3Row {
            feature: "pipelined memory".into(),
            expression: "((L/D)(1+α)β − 1) / ((1+α)β_p − 1),  β_p = β + q(L/D − 1)".into(),
            r: miss_traffic_ratio(machine, &base, &base.with_pipelined_memory(q))?,
        },
    ];
    Ok(rows)
}

/// Renders Table 3 at the canonical point (L = 32, D = 4, β_m = 8,
/// α = 0.5, φ = 0.85·L/D, q = 2).
///
/// # Errors
///
/// Propagates model-validation errors.
pub fn table3() -> Result<String, TradeoffError> {
    let machine = Machine::new(4.0, 32.0, 8.0)?;
    let rows = table3_rows(&machine, 0.5, 0.85 * 8.0, 2.0)?;
    let mut t = Table::new([
        "feature",
        "ratio of cache misses r",
        "r @ (L=32,D=4,β=8,α=.5)",
    ]);
    for row in &rows {
        t.row([
            row.feature.clone(),
            row.expression.clone(),
            format!("{:.3}", row.r),
        ]);
    }
    Ok(t.render())
}

/// Registry entry for this experiment.
pub const EXP: Experiment = Experiment {
    id: "table23",
    title: "Tables 2 and 3",
    tags: &["paper", "table", "analytic"],
    traces: &[],
    module: module_path!(),
    cost: 0,
    run: |_| {
        ExpReport::text_only(format!(
            "Table 2 (L/D = 8):\n{}\nTable 3 (write allocate):\n{}",
            table2(8.0),
            table3().expect("canonical parameters valid")
        ))
    },
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::RunCtx;

    #[test]
    fn table2_lists_all_features() {
        let text = table2(8.0);
        for name in ["FS", "BL", "BNL1", "BNL2", "BNL3", "NB"] {
            assert!(text.contains(name), "missing {name}");
        }
        assert!(text.contains("φ = 8"));
        assert!(text.contains("0 ≤ φ ≤ 8"));
    }

    #[test]
    fn table3_values_hand_checked() {
        let machine = Machine::new(4.0, 32.0, 8.0).unwrap();
        let rows = table3_rows(&machine, 0.5, 6.8, 2.0).unwrap();
        let by = |n: &str| rows.iter().find(|r| r.feature.starts_with(n)).unwrap().r;
        // bus: (96−1)/(48−1) = 95/47.
        assert!((by("doubling bus") - 95.0 / 47.0).abs() < 1e-12);
        // write buffers: 95/63.
        assert!((by("write buffers") - 95.0 / 63.0).abs() < 1e-12);
        // pipelined: β_p = 22, (96−1)/(33−1).
        assert!((by("pipelined") - 95.0 / 32.0).abs() < 1e-12);
        // partial: (95)/((6.8·8 + 4·8) − 1) = 95/(86.4 − 1).
        assert!((by("partially") - 95.0 / 85.4).abs() < 1e-12);
    }

    #[test]
    fn all_ratios_at_least_one() {
        let machine = Machine::new(4.0, 32.0, 8.0).unwrap();
        for row in table3_rows(&machine, 0.5, 7.0, 2.0).unwrap() {
            assert!(row.r >= 1.0, "{}: r = {}", row.feature, row.r);
        }
    }

    #[test]
    fn report_renders_both_tables() {
        let text = (EXP.run)(&RunCtx::standard()).section;
        assert!(text.contains("Table 2"));
        assert!(text.contains("Table 3"));
        assert!(text.contains("β_p = β + q(L/D − 1)"));
    }
}
