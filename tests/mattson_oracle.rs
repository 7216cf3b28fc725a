//! Cross-validation oracle: Mattson's stack algorithm (reuse-distance
//! profile in `simtrace`) must predict the fully-associative LRU cache
//! simulator (`simcache`) *exactly*, reference for reference — and the
//! single-pass [`StackDistSweep`] must reproduce per-configuration
//! `Cache` replays bit for bit across whole geometry grids.

use proptest::prelude::*;
use simcache::explore::{hit_ratio_grid_replay, measure_dcache, GridSpec};
use simtrace::gen::{PatternTrace, StridedSweep, TraceShape, ZipfWorkingSet};
use simtrace::reuse::ReuseProfile;
use simtrace::workload::builtin;
use unified_tradeoff::prelude::*;

mod common;

fn fa_lru(lines: u64) -> Cache {
    Cache::new(CacheConfig::new(lines * 32, 32, lines as u32).expect("fully associative"))
}

fn check_exact(trace: &[Instr], capacities: &[usize]) {
    let profile = ReuseProfile::from_trace(trace.iter().copied(), 32, 512);
    for &lines in capacities {
        let mut cache = fa_lru(lines as u64);
        let (mut hits, mut refs) = (0u64, 0u64);
        for i in trace {
            if let Some(m) = i.mem {
                refs += 1;
                if cache.access(m.op, m.addr).hit {
                    hits += 1;
                }
            }
        }
        let simulated = hits as f64 / refs as f64;
        let predicted = profile.lru_hit_ratio(lines);
        assert!(
            (simulated - predicted).abs() < 1e-12,
            "k={lines}: simulator {simulated} vs Mattson {predicted}"
        );
    }
}

#[test]
fn mattson_predicts_the_simulator_on_zipf_reuse() {
    let trace: Vec<Instr> = PatternTrace::new(
        ZipfWorkingSet::new(0, 4 * 1024, 8, 1.0, 0.2),
        TraceShape::default(),
        3,
    )
    .take(20_000)
    .collect();
    check_exact(&trace, &[4, 8, 16, 32, 64]);
}

#[test]
fn mattson_predicts_the_simulator_on_strided_sweeps() {
    let trace: Vec<Instr> = PatternTrace::new(
        StridedSweep::new(0, 8 * 1024, 8, 8, 3),
        TraceShape::default(),
        5,
    )
    .take(15_000)
    .collect();
    check_exact(&trace, &[2, 16, 128, 256, 512]);
}

#[test]
fn mattson_predicts_the_simulator_on_a_spec_proxy() {
    let trace: Vec<Instr> = builtin("ear").unwrap().compile(11).take(15_000).collect();
    check_exact(&trace, &[8, 64, 256]);
}

/// Replays every `(2^k sets, assoc)` geometry of the grid through a
/// live `Cache` and demands the one-pass sweep agrees on the *complete*
/// statistics — same integer counters, and hit/flush ratios within
/// 1e-12 (they are the same division, so in practice identical bits).
fn check_sweep_exact(trace: &[Instr], line_bytes: u64, warmup: u64) {
    let max_assoc = 4;
    let sweep = StackDistSweep::run(line_bytes, 7, max_assoc, warmup, trace.iter().copied())
        .expect("valid sweep geometry");
    for k in [0u32, 2, 5, 7] {
        for assoc in [1u32, 2, 4] {
            let cache_bytes = (1u64 << k) * line_bytes * u64::from(assoc);
            let cfg = CacheConfig::new(cache_bytes, line_bytes, assoc).expect("valid config");
            let replay = measure_dcache(cfg, trace.iter().copied(), warmup);
            let swept = sweep.stats_for(&cfg).expect("geometry covered");
            assert_eq!(swept, replay, "L={line_bytes} sets=2^{k} assoc={assoc}");
            assert!((swept.hit_ratio() - replay.hit_ratio()).abs() < 1e-12);
            assert!((swept.flush_ratio() - replay.flush_ratio()).abs() < 1e-12);
        }
    }
}

#[test]
fn sweep_matches_replay_on_zipf_reuse() {
    let trace: Vec<Instr> = PatternTrace::new(
        ZipfWorkingSet::new(0, 16 * 1024, 8, 1.0, 0.25),
        TraceShape::default(),
        17,
    )
    .take(20_000)
    .collect();
    check_sweep_exact(&trace, 16, 4_000);
    check_sweep_exact(&trace, 32, 4_000);
}

#[test]
fn sweep_matches_replay_on_strided_sweeps() {
    let trace: Vec<Instr> = PatternTrace::new(
        StridedSweep::new(0, 32 * 1024, 8, 12, 9),
        TraceShape::default(),
        23,
    )
    .take(15_000)
    .collect();
    check_sweep_exact(&trace, 32, 2_500);
}

#[test]
fn sweep_matches_replay_on_spec_proxies() {
    for (program, seed) in [("ear", 29), ("hydro2d", 31)] {
        let trace: Vec<Instr> = builtin(program)
            .unwrap()
            .compile(seed)
            .take(15_000)
            .collect();
        // Both with and without a warm-up window.
        check_sweep_exact(&trace, 32, 3_000);
        check_sweep_exact(&trace, 32, 0);
    }
}

#[test]
fn set_associativity_only_loses_against_full_associativity() {
    // A set-associative cache of the same capacity can only do worse
    // than the Mattson bound (conflict misses), never better.
    let trace: Vec<Instr> = builtin("doduc").unwrap().compile(13).take(20_000).collect();
    let profile = ReuseProfile::from_trace(trace.iter().copied(), 32, 512);
    for (lines, assoc) in [(64u64, 2u32), (256, 2), (256, 4)] {
        let mut cache = Cache::new(CacheConfig::new(lines * 32, 32, assoc).expect("valid"));
        let (mut hits, mut refs) = (0u64, 0u64);
        for i in &trace {
            if let Some(m) = i.mem {
                refs += 1;
                if cache.access(m.op, m.addr).hit {
                    hits += 1;
                }
            }
        }
        let simulated = hits as f64 / refs as f64;
        let bound = profile.lru_hit_ratio(lines as usize);
        assert!(
            simulated <= bound + 1e-12,
            "{lines} lines {assoc}-way: {simulated} beat the FA bound {bound}"
        );
    }
}

/// Up to `max_len - 1` distinct powers of two `2^k`, `k` drawn from
/// `exponents`, in random order.
fn powers(exponents: std::ops::Range<u32>, max_len: usize) -> impl Strategy<Value = Vec<u64>> {
    proptest::collection::vec(exponents, 1..max_len).prop_map(|ks| {
        let mut out: Vec<u64> = Vec::new();
        for k in ks {
            if !out.contains(&(1 << k)) {
                out.push(1 << k);
            }
        }
        out
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Whole workloads on random grids: a random spec compiled at a
    /// random seed (up to 20 k instructions), folded once through
    /// `GridSpec::sweeps`, answers every (cache, line, assoc) point
    /// exactly as a live `Cache` replay of that configuration does.
    /// Every capacity holds a full set of the widest line at the widest
    /// associativity, so every drawn grid is valid.
    #[test]
    fn random_specs_sweep_like_per_config_replay(
        json in common::spec_json(),
        seed in any::<u64>(),
        len in 1usize..20_001,
        cache_sizes in powers(10..16, 5),
        line_sizes in powers(3..8, 4),
        assocs in powers(0..4, 4),
        warmup_pct in prop_oneof![Just(0u64), 1u64..100, 100u64..130],
    ) {
        let spec = WorkloadSpec::from_json(&json).expect("generated specs are valid");
        let trace: Vec<Instr> = spec.compile(seed).take(len).collect();
        let grid = GridSpec {
            cache_sizes,
            line_sizes,
            assocs: assocs.into_iter().map(|a| a as u32).collect(),
            warmup: len as u64 * warmup_pct / 100,
        };
        let swept = grid
            .simulate(&trace)
            .expect("valid grid")
            .points(&grid)
            .expect("every point covered");
        let replayed = hit_ratio_grid_replay(&grid, || trace.iter().copied()).expect("valid grid");
        prop_assert_eq!(
            swept,
            replayed,
            "spec={} seed={:#x} len={} grid={:?}",
            json.render(),
            seed,
            len,
            grid
        );
    }
}
