//! Executable summary of the paper: every headline claim of Chen &
//! Somani (ISCA 1994), asserted through the public API. Read this file
//! next to EXPERIMENTS.md — each test is one claim.

use smithval::{validate_all_panels, DesignTargetModel};
use tradeoff::crossover::pipelined_vs_double_bus;
use tradeoff::equiv::{equivalent_hit_ratio, hit_gain_equivalent, traded_hit_ratio};
use unified_tradeoff::prelude::*;

fn fs(alpha: f64) -> SystemConfig {
    SystemConfig::full_stalling(alpha)
}

/// §4.1: "the performance loss due to reducing the hit ratio of a
/// blocking cache from HR to a value in the range from 2HR − 1 to
/// 2.5HR − 1.5 can be compensated by doubling the data bus width."
#[test]
fn claim_bus_doubling_compensates_2hr_minus_1_to_2_5hr_minus_1_5() {
    let hr = HitRatio::new(0.95).unwrap();
    // Upper end of the range: β_m = 2 (the design limit), L = 2D.
    let m2 = Machine::new(4.0, 8.0, 2.0).unwrap();
    let hr2 = equivalent_hit_ratio(&m2, &fs(0.5), &fs(0.5).with_bus_factor(2.0), hr).unwrap();
    assert!((hr2.value() - (2.5 * 0.95 - 1.5)).abs() < 1e-12);
    // Lower end: β_m → ∞.
    let m_inf = Machine::new(4.0, 8.0, 1e9).unwrap();
    let hr2 = equivalent_hit_ratio(&m_inf, &fs(0.5), &fs(0.5).with_bus_factor(2.0), hr).unwrap();
    assert!((hr2.value() - (2.0 * 0.95 - 1.0)).abs() < 1e-6);
}

/// §1: "the performance loss due to reducing cache hit ratio from 0.95
/// to 0.9 or from 0.98 to 0.96 can be compensated by doubling the
/// external data bus of a processor."
#[test]
fn claim_95_to_90_and_98_to_96() {
    let m = Machine::new(4.0, 8.0, 1e9).unwrap();
    for (hr1, hr2_expected) in [(0.95, 0.90), (0.98, 0.96)] {
        let hr2 = equivalent_hit_ratio(
            &m,
            &fs(0.5),
            &fs(0.5).with_bus_factor(2.0),
            HitRatio::new(hr1).unwrap(),
        )
        .unwrap();
        assert!(
            (hr2.value() - hr2_expected).abs() < 1e-6,
            "{hr1} → {}",
            hr2.value()
        );
    }
}

/// §6 bullet 1: "increasing the cache hit ratio at HR by a value in the
/// range 0.5(1 − HR) to 0.6(1 − HR) is the same as ... doubling the
/// data bus width" (for L ≥ 2D, α = 0.5).
#[test]
fn claim_gain_band_half_to_point_six() {
    let hr = HitRatio::new(0.9).unwrap();
    let lo = hit_gain_equivalent(
        &Machine::new(4.0, 8.0, 1e9).unwrap(),
        &fs(0.5),
        &fs(0.5).with_bus_factor(2.0),
        hr,
    )
    .unwrap();
    let hi = hit_gain_equivalent(
        &Machine::new(4.0, 8.0, 2.0).unwrap(),
        &fs(0.5),
        &fs(0.5).with_bus_factor(2.0),
        hr,
    )
    .unwrap();
    assert!((lo - 0.5 * 0.1).abs() < 1e-6, "large-β end: {lo}");
    assert!((hi - 0.6 * 0.1).abs() < 1e-12, "β = 2 end: {hi}");
}

/// §6 bullet 2: "the three best architectural features in order of
/// priority ... are doubling the bus width, providing the read-bypassing
/// write buffers, and the use of a cache with a bus-not-locked" —
/// stable over β_m and line size (non-pipelined substrate).
#[test]
fn claim_feature_ranking() {
    let hr = HitRatio::new(0.95).unwrap();
    for l in [8.0, 16.0, 32.0] {
        for beta in [2.0, 4.0, 8.0, 16.0] {
            let m = Machine::new(4.0, l, beta).unwrap();
            let bus = traded_hit_ratio(&m, &fs(0.5), &fs(0.5).with_bus_factor(2.0), hr).unwrap();
            let wb = traded_hit_ratio(&m, &fs(0.5), &fs(0.5).with_write_buffers(), hr).unwrap();
            // Figure 1: BNL1's measured φ sits at 80–95 % of L/D.
            let bnl = traded_hit_ratio(
                &m,
                &fs(0.5),
                &fs(0.5).with_partial_stall(0.85 * l / 4.0),
                hr,
            )
            .unwrap();
            assert!(bus > wb, "L={l} β={beta}");
            assert!(wb > bnl, "L={l} β={beta}");
        }
    }
}

/// §6 bullet 4: "the pipelined memory system helps to improve
/// performance most when the memory cycle time is larger than about
/// five clock cycles (for L/D > 2 and q = 2)" — and never for L/D = 2.
#[test]
fn claim_pipelining_crossover() {
    let beta_star = pipelined_vs_double_bus(8.0, 2.0).unwrap();
    assert!(beta_star > 4.0 && beta_star < 6.0, "β* = {beta_star}");
    assert_eq!(pipelined_vs_double_bus(2.0, 2.0), None);
    // And the ΔHR curves actually cross there.
    let hr = HitRatio::new(0.95).unwrap();
    for (beta, pipe_wins) in [(4.0, false), (6.0, true)] {
        let m = Machine::new(4.0, 32.0, beta).unwrap();
        let pipe = traded_hit_ratio(&m, &fs(0.5), &fs(0.5).with_pipelined_memory(2.0), hr).unwrap();
        let bus = traded_hit_ratio(&m, &fs(0.5), &fs(0.5).with_bus_factor(2.0), hr).unwrap();
        assert_eq!(pipe > bus, pipe_wins, "β = {beta}");
    }
}

/// §5.4.2: "The optimal line sizes determined by Eq. (19) exactly match
/// with those of Smith's work. This result validates our tradeoff
/// methodology."
#[test]
fn claim_smith_validation() {
    for v in validate_all_panels(&DesignTargetModel::default()).unwrap() {
        assert!(v.selectors_agree, "{}", v.panel);
        assert!(v.matches_paper, "{}", v.panel);
    }
}

/// Example 1: "a processor with a 64-bit bus and an 8K cache and a
/// processor with a 32-bit bus and a 32K cache have the same execution
/// time" (91 % vs 95.5 % hit ratios from Short & Levy).
#[test]
fn claim_example_1() {
    let m = Machine::new(4.0, 32.0, 8.0).unwrap();
    let gain = hit_gain_equivalent(
        &m,
        &fs(0.5),
        &fs(0.5).with_bus_factor(2.0),
        HitRatio::new(0.91).unwrap(),
    )
    .unwrap();
    assert!(
        (0.91 + gain - 0.955).abs() < 0.005,
        "required {}",
        0.91 + gain
    );
}

/// §6 bullet 3: "if ... subsequent load/store accesses are only stalled
/// by the latency of the requested data [BNL3], then the read miss
/// latency of a full blocking cache can be reduced by 20–30% for a
/// memory cycle time of less than 15 clock cycles."
#[test]
fn claim_bnl3_reduction_band() {
    let mut reductions = Vec::new();
    for beta in [8u64, 12] {
        let run = |stall: StallFeature| -> f64 {
            let mut total = 0.0;
            for p in simtrace::workload::builtins() {
                let cfg = CpuConfig::baseline(
                    CacheConfig::new(8 * 1024, 32, 2).unwrap(),
                    MemoryTiming::new(BusWidth::new(4).unwrap(), beta),
                )
                .with_stall(stall);
                total += Cpu::new(cfg).run(p.compile(2).take(40_000)).phi();
            }
            total / 6.0
        };
        let fs_phi = run(StallFeature::FullStall);
        let bnl3_phi = run(StallFeature::BusNotLocked3);
        reductions.push(1.0 - bnl3_phi / fs_phi);
    }
    for r in &reductions {
        assert!(
            (0.08..=0.40).contains(r),
            "BNL3 read-miss reduction {r:.2} outside the plausible band (paper: 20–30 %)"
        );
    }
}

/// §4.5: the model "is based on the equivalence of the mean memory delay
/// time" — equal mean access time ⟺ equal execution time.
#[test]
fn claim_mean_delay_equivalence() {
    let m = Machine::new(4.0, 32.0, 8.0).unwrap();
    let base = fs(0.5);
    let enh = base.with_bus_factor(2.0);
    let hr1 = HitRatio::new(0.95).unwrap();
    let hr2 = equivalent_hit_ratio(&m, &base, &enh, hr1).unwrap();
    let t1 = mean_access_time(&m, &base, hr1).unwrap();
    let t2 = mean_access_time(&m, &enh, hr2).unwrap();
    assert!(
        (t1 - t2).abs() < 1e-9,
        "mean delays must match: {t1} vs {t2}"
    );
}
