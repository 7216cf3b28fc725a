//! Closing the loop: Eq. 2 versus the cycle-accurate simulation.
//!
//! The whole methodology rests on the CPU-time model
//!
//! ```text
//! X = (E − Λm − W) + Λm·φ·β_m + flushes·(L/D)·β_m + W·β_m
//! ```
//!
//! (Eq. 2, with write-around `W`; under write-allocate `W = 0`). Given the
//! *measured* `{Λm, φ, flushes, W}` of a run, [`predict_cycles`] evaluates
//! the model and [`validation_error`] reports its relative deviation from
//! the simulated cycle count. By construction of the simulator's stall
//! accounting the deviation is zero up to integer rounding — this is the
//! reproduction of the paper's Section 4.5 claim that the model captures
//! mean memory delay exactly.

use crate::result::SimResult;

/// Evaluates Eq. 2 on the measured profile of `r`.
///
/// Uses the run's own measured stalling factor and flush count, so this
/// is the analytic model with perfectly-known inputs.
pub fn predict_cycles(r: &SimResult) -> f64 {
    let fills = r.dcache.fills as f64;
    let beta = r.beta_m as f64;
    // For single issue this equals E − Λm − W analytically; the simulator
    // reports it exactly so the identity also covers wide issue.
    let base = r.base_cycles as f64;
    let miss_term = fills * r.phi() * beta;
    let flush_term = r.flush_stall_cycles as f64; // flushes·(L/D)β_m when unbuffered
    let write_term = r.write_stall_cycles as f64;
    let ifetch_term = r.ifetch_stall_cycles as f64;
    base + miss_term + flush_term + write_term + ifetch_term
}

/// Relative error between Eq. 2's prediction and the simulated cycles.
///
/// Returns 0 for an empty run.
pub fn validation_error(r: &SimResult) -> f64 {
    if r.cycles == 0 {
        return 0.0;
    }
    (predict_cycles(r) - r.cycles as f64).abs() / r.cycles as f64
}

/// The Section 6 extension: Eq. 2 generalised to issue width `w`,
/// evaluated analytically as `(E − Λm − W)/w + stalls`.
///
/// Unlike [`predict_cycles`], the base term here is the analytic
/// `(E − Λm − W)/w`, so the prediction carries only issue-group rounding
/// error against the simulation (bounded by one cycle per stall event).
pub fn predict_cycles_multiissue(r: &SimResult, issue_width: u32) -> f64 {
    let e = r.instructions as f64;
    let fills = r.dcache.fills as f64;
    let w_ops = r.dcache.write_arounds as f64;
    let base = (e - fills - w_ops) / f64::from(issue_width.max(1));
    base + r.miss_stall_cycles as f64
        + r.flush_stall_cycles as f64
        + r.write_stall_cycles as f64
        + r.ifetch_stall_cycles as f64
}

#[cfg(test)]
mod tests {
    use crate::config::{CpuConfig, StallFeature, WriteBufferConfig};
    use crate::cpu::Cpu;
    use simcache::{CacheConfig, WriteMiss};
    use simmem::{BusWidth, MemoryTiming};
    use simtrace::workload::builtin;

    use super::*;

    fn run(stall: StallFeature, wb: bool, write_miss: WriteMiss, beta: u64) -> SimResult {
        let mut cfg = CpuConfig::baseline(
            CacheConfig::new(8 * 1024, 32, 2)
                .unwrap()
                .with_write_miss(write_miss),
            MemoryTiming::new(BusWidth::new(4).unwrap(), beta),
        )
        .with_stall(stall);
        if wb {
            cfg = cfg.with_write_buffer(WriteBufferConfig::default());
        }
        Cpu::new(cfg).run(builtin("wave5").unwrap().compile(11).take(25_000))
    }

    #[test]
    fn model_matches_simulation_exactly_across_features() {
        for stall in [
            StallFeature::FullStall,
            StallFeature::BusLocked,
            StallFeature::BusNotLocked1,
            StallFeature::BusNotLocked2,
            StallFeature::BusNotLocked3,
            StallFeature::NonBlocking { mshrs: 4 },
        ] {
            for wb in [false, true] {
                for wm in [WriteMiss::Allocate, WriteMiss::Around] {
                    let r = run(stall, wb, wm, 8);
                    let err = validation_error(&r);
                    assert!(err < 1e-9, "{stall} wb={wb} {wm:?}: error {err}");
                }
            }
        }
    }

    #[test]
    fn model_matches_across_memory_speeds() {
        for beta in [2, 4, 10, 20, 40] {
            let r = run(StallFeature::BusLocked, false, WriteMiss::Allocate, beta);
            assert!(validation_error(&r) < 1e-9, "β={beta}");
        }
    }

    #[test]
    fn empty_run_has_zero_error() {
        let r = SimResult::default();
        assert_eq!(validation_error(&r), 0.0);
    }

    #[test]
    fn multiissue_prediction_tracks_simulation() {
        use crate::config::CpuConfig;
        use simcache::CacheConfig;
        for width in [1u32, 2, 4] {
            let cfg = CpuConfig::baseline(
                CacheConfig::new(8 * 1024, 32, 2).unwrap(),
                MemoryTiming::new(BusWidth::new(4).unwrap(), 8),
            )
            .with_issue_width(width);
            let r = Cpu::new(cfg).run(builtin("ear").unwrap().compile(4).take(30_000));
            // The exact identity (measured base) holds for every width...
            assert!(validation_error(&r) < 1e-9, "width {width}");
            // ...and the analytic base term is within issue-rounding.
            let analytic = predict_cycles_multiissue(&r, width);
            let rel = (analytic - r.cycles as f64).abs() / r.cycles as f64;
            assert!(rel < 0.05, "width {width}: analytic off by {rel}");
        }
    }

    #[test]
    fn wider_issue_reduces_cycles_but_not_stalls() {
        use crate::config::CpuConfig;
        use simcache::CacheConfig;
        let run = |width: u32| {
            let cfg = CpuConfig::baseline(
                CacheConfig::new(8 * 1024, 32, 2).unwrap(),
                MemoryTiming::new(BusWidth::new(4).unwrap(), 8),
            )
            .with_issue_width(width);
            Cpu::new(cfg).run(builtin("nasa7").unwrap().compile(4).take(30_000))
        };
        let w1 = run(1);
        let w4 = run(4);
        assert!(w4.cycles < w1.cycles);
        assert!(w4.base_cycles < w1.base_cycles);
        // Memory stalls do not shrink with issue width — that is exactly
        // why memory features are worth more on wide-issue machines.
        assert!(w4.miss_stall_cycles >= w1.miss_stall_cycles / 2);
    }
}
