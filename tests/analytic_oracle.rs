//! Closed-form backend oracle: the [`Analytic`] hit-ratio backend built
//! from streaming reuse-distance histograms must be *bit-exact* against
//! live `Cache` replay for fully-associative LRU geometries (Mattson
//! inclusion makes the histogram prefix an exact answer, not an
//! estimate), stay within [`SET_CONFLICT_TOLERANCE`] of the
//! [`StackDistSweep`] simulator for set-associative geometries, and be
//! invariant to how the trace was chunked on its way in.

use bench::stream;
use proptest::prelude::*;
use simcache::explore::measure_dcache;
use simcache::hitratio::{Analytic, HitRatioBackend, Simulated, SET_CONFLICT_TOLERANCE};
use simcache::stackdist::StackDistSweep;
use simcache::CacheConfig;
use simtrace::instr::MemRef;
use simtrace::reusehist::ReuseHistograms;
use simtrace::workload::{builtin, WorkloadSpec};
use simtrace::{Instr, RefCutter};
use tradeoff::api::{dense_best, dense_best_uncut, DenseGrid, HIST_DISTANCE_CAP};

mod common;

/// A random reference stream over a bounded address space — small
/// enough that capacities in the test grid actually see reuse.
fn streams() -> impl Strategy<Value = Vec<(bool, u64)>> {
    proptest::collection::vec((any::<bool>(), 0u64..16 * 1024), 1..600)
}

fn instrs(stream: &[(bool, u64)]) -> Vec<Instr> {
    stream
        .iter()
        .enumerate()
        .map(|(i, &(is_store, addr))| {
            let addr = addr & !3; // 4-byte aligned
            let m = if is_store {
                MemRef::store(addr, 4)
            } else {
                MemRef::load(addr, 4)
            };
            Instr::mem((i as u64) * 4, m)
        })
        .collect()
}

/// Traces for the fully-associative check: a raw reference stream, or
/// a random workload spec compiled at a random seed (up to 20 k
/// instructions).
fn fa_traces() -> impl Strategy<Value = Vec<Instr>> {
    prop_oneof![
        streams().prop_map(|stream| instrs(&stream)),
        (common::spec_json(), any::<u64>(), 1usize..20_001).prop_map(|(json, seed, len)| {
            WorkloadSpec::from_json(&json)
                .expect("generated specs are valid")
                .compile(seed)
                .take(len)
                .collect()
        }),
    ]
}

proptest! {
    /// Fully-associative LRU: the analytic backend and a live `Cache`
    /// replay are the same integer division — equality is `==` on the
    /// floats, no tolerance.
    #[test]
    fn analytic_fa_lru_is_bit_equal_to_replay(trace in fa_traces()) {
        let mut fold = ReuseHistograms::new(16, 64, 4_096, 0);
        fold.process_slice(&trace);
        let analytic = Analytic::from_histograms(&fold);
        for (line_bytes, lines) in [(16u64, 4u32), (16, 64), (32, 16), (64, 8)] {
            let cfg = CacheConfig::new(line_bytes * u64::from(lines), line_bytes, lines)
                .expect("fully associative");
            let replay = measure_dcache(cfg, trace.iter().copied(), 0).hit_ratio();
            let closed = analytic
                .fa_hit_ratio(line_bytes, u64::from(lines))
                .expect("covered granularity");
            prop_assert!(
                closed == replay,
                "L={line_bytes} cap={lines}: analytic {closed} != replay {replay}"
            );
        }
    }

    /// The `HitRatioBackend` entry point routes `sets == 1` geometries
    /// through the same exact fully-associative path.
    #[test]
    fn backend_trait_is_exact_for_single_set_geometries(stream in streams()) {
        let trace = instrs(&stream);
        let mut fold = ReuseHistograms::new(32, 32, 4_096, 0);
        fold.process_slice(&trace);
        let analytic = Analytic::from_histograms(&fold);
        for assoc in [2u32, 8, 32] {
            let cache_bytes = 32 * u64::from(assoc); // sets == 1
            let cfg = CacheConfig::new(cache_bytes, 32, assoc).expect("valid");
            let replay = measure_dcache(cfg, trace.iter().copied(), 0).hit_ratio();
            let closed = analytic.hit_ratio(cache_bytes, 32, assoc).expect("covered");
            prop_assert!(
                closed == replay,
                "assoc={assoc}: analytic {closed} != replay {replay}"
            );
        }
    }
}

/// A random dense-grid shape: up to 300 sets and 16 ways over a
/// non-empty subset of the five line sizes, in shuffled order (the
/// position of a line in `line_sizes` breaks capacity ties).
fn dense_grids() -> impl Strategy<Value = DenseGrid> {
    (
        1u64..=300,
        1u32..=16,
        1u32..32,
        proptest::collection::vec(any::<u32>(), 5),
    )
        .prop_map(|(max_sets, max_assoc, mask, keys)| {
            let mut lines: Vec<(u32, u64)> = [8u64, 16, 32, 64, 128]
                .into_iter()
                .enumerate()
                .filter(|&(i, _)| mask & (1 << i) != 0)
                .map(|(i, line)| (keys[i], line))
                .collect();
            lines.sort_unstable();
            DenseGrid {
                line_sizes: lines.into_iter().map(|(_, line)| line).collect(),
                max_sets,
                max_assoc,
            }
        })
}

/// Targets at which the cut walk's exits are tight: each line's
/// fully-associative ceiling and one ulp either side, beside 0 and 1.
fn edge_targets(analytic: &Analytic, grid: &DenseGrid) -> Vec<f64> {
    let mut targets = vec![0.0, 1.0];
    for &line in &grid.line_sizes {
        let ceiling = analytic.fa_hit_ratio(line, u64::MAX).expect("folded line");
        targets.extend([ceiling.next_down(), ceiling, ceiling.next_up()]);
    }
    targets
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// [`dense_best`] walks coarse lines first and cuts every line's
    /// walk short; on analytic backends from random workload specs and
    /// random grid shapes it must return exactly what the uncut
    /// reference walk returns, ties and misses included.
    #[test]
    fn dense_best_cut_walk_matches_the_uncut_walk(
        json in common::spec_json(),
        seed in any::<u64>(),
        len in 1usize..20_001,
        grid in dense_grids(),
        target_hr in 0.0f64..1.0,
    ) {
        let trace: Vec<Instr> = WorkloadSpec::from_json(&json)
            .expect("generated specs are valid")
            .compile(seed)
            .take(len)
            .collect();
        let mut fold = ReuseHistograms::new(8, 128, HIST_DISTANCE_CAP, len as u64 / 5);
        fold.process_slice(&trace);
        let analytic = Analytic::from_histograms(&fold);
        let mut targets = edge_targets(&analytic, &grid);
        targets.push(target_hr);
        for target in targets {
            prop_assert_eq!(
                dense_best(&analytic, &grid, target),
                dense_best_uncut(&analytic, &grid, target),
                "grid {:?} target {}", grid, target
            );
        }
    }
}

/// The analytic backend of `loads`, one 4-byte load per instruction,
/// with the first `warmup` references excluded.
fn analytic_of(loads: impl Iterator<Item = u64>, warmup: u64) -> Analytic {
    let trace: Vec<Instr> = loads
        .enumerate()
        .map(|(i, addr)| Instr::mem(i as u64 * 4, MemRef::load(addr, 4)))
        .collect();
    let mut fold = ReuseHistograms::new(8, 128, HIST_DISTANCE_CAP, warmup);
    fold.process_slice(&trace);
    Analytic::from_histograms(&fold)
}

/// Geometries that tie on capacity across line sizes: the cut walk
/// meets the coarse ones first, and the uncut walk's choice must still
/// win.
#[test]
fn dense_best_breaks_equal_capacity_ties_like_the_uncut_walk() {
    // A loop over 64 bytes reaches its every-reuse ceiling at 64 B of
    // capacity at each line size up to 64 B: the first listed wins, at
    // every order of the lines.
    let analytic = analytic_of((0..4_000u64).map(|i| (i % 16) * 4), 400);
    let target = analytic.fa_hit_ratio(8, u64::MAX).expect("folded line");
    for line_sizes in [
        vec![8u64, 16, 32, 64, 128],
        vec![128, 64, 32, 16, 8],
        vec![32, 8, 64, 16],
    ] {
        let grid = DenseGrid {
            line_sizes,
            max_sets: 16,
            max_assoc: 8,
        };
        let first_tied = grid.line_sizes.iter().copied().find(|&line| line <= 64);
        let want = dense_best_uncut(&analytic, &grid, target).expect("reachable");
        assert_eq!(want.cache_bytes, 64, "{grid:?}");
        assert_eq!(Some(want.line_bytes), first_tied, "{grid:?}");
        assert_eq!(dense_best(&analytic, &grid, target), Some(want), "{grid:?}");
    }

    // A cycle over three 32 B lines: one 64 B line hits a third of the
    // references, two 32 B ways none (LRU thrash), and two 32 B sets
    // direct-mapped about a fifth under the model. Listed first, the
    // 32 B line's two-set point ties the 64 B line's one-way point at
    // the one-way capacity the cut walk has already reached.
    let analytic = analytic_of((0..3_000u64).map(|i| (i % 3) * 32), 300);
    let grid = DenseGrid {
        line_sizes: vec![32, 64],
        max_sets: 8,
        max_assoc: 4,
    };
    let want = dense_best_uncut(&analytic, &grid, 0.15).expect("reachable");
    assert_eq!(
        (want.cache_bytes, want.line_bytes, want.sets, want.assoc),
        (64, 32, 2, 1)
    );
    assert_eq!(dense_best(&analytic, &grid, 0.15), Some(want));
}

/// A cyclic sweep whose every reuse spans the same ~1 000 distinct
/// lines leaves hit ratios of order `e^-130` at the smallest geometries
/// the bucketed walk does not skip. At a target that small the answer
/// sits where the skip's threshold bites, so the cut walk's shortened
/// way counts must not move the threshold.
#[test]
fn dense_best_keeps_the_full_width_conflict_skip() {
    let analytic = analytic_of((0..30_000u64).map(|i| (i % 1_000) * 128), 2_000);
    let grid = DenseGrid {
        line_sizes: vec![8, 16, 32, 64, 128],
        max_sets: 300,
        max_assoc: 16,
    };
    let target = f64::MIN_POSITIVE;
    let want = dense_best_uncut(&analytic, &grid, target).expect("reachable");
    assert!(want.hit_ratio < 1e-40, "{want:?}");
    assert_eq!(dense_best(&analytic, &grid, target), Some(want));
}

/// Set-associative geometries: the binomial set-conflict model carries
/// a stated tolerance, checked here against the exact simulator across
/// seeded SPEC92 proxies and a grid of real geometries.
#[test]
fn set_conflict_model_tracks_the_sweep_within_tolerance() {
    const N: usize = 6_000;
    const WARMUP: u64 = 1_200;
    for (program, seed) in [("nasa7", 7u64), ("ear", 11), ("swm256", 3), ("hydro2d", 31)] {
        let trace: Vec<Instr> = builtin(program).unwrap().compile(seed).take(N).collect();
        let mut fold = ReuseHistograms::new(16, 64, 1 << 14, WARMUP);
        fold.process_slice(&trace);
        let analytic = Analytic::from_histograms(&fold);
        let simulated = Simulated::from_sweeps(
            [16u64, 32, 64]
                .iter()
                .map(|&line| {
                    StackDistSweep::run(line, 7, 4, WARMUP, trace.iter().copied())
                        .expect("valid sweep geometry")
                })
                .collect(),
        );
        for line_bytes in [16u64, 32, 64] {
            for sets_log2 in [1u32, 3, 5, 7] {
                for assoc in [1u32, 2, 4] {
                    let cache_bytes = (1u64 << sets_log2) * line_bytes * u64::from(assoc);
                    let sim = simulated
                        .hit_ratio(cache_bytes, line_bytes, assoc)
                        .expect("sweep covers the grid");
                    let closed = analytic
                        .hit_ratio(cache_bytes, line_bytes, assoc)
                        .expect("histograms cover the grid");
                    let delta = (sim - closed).abs();
                    assert!(
                        delta <= SET_CONFLICT_TOLERANCE,
                        "{program} L={line_bytes} sets=2^{sets_log2} assoc={assoc}: \
                         |{closed} - {sim}| = {delta} exceeds {SET_CONFLICT_TOLERANCE}"
                    );
                }
            }
        }
    }
}

/// The histogram fold is chunk-invariant end to end through the
/// streaming driver: any chunk partition, folded
/// from the materialised slice or from the generator, yields bit-identical
/// profiles — and therefore a bit-identical analytic backend.
#[test]
fn chunked_histogram_folds_are_bit_identical_to_whole_trace() {
    const N: usize = 9_000;
    let doduc = builtin("doduc").unwrap();
    let trace: Vec<Instr> = doduc.compile(13).take(N).collect();
    let mut whole = ReuseHistograms::new(8, 128, 4_096, 2_000);
    whole.process_slice(&trace);
    let reference = Analytic::from_histograms(&whole);

    for chunk in [1usize, 117, 2_000, 4_096, N + 1] {
        let mut sliced = ReuseHistograms::new(8, 128, 4_096, 2_000);
        let cut = || RefCutter::new(2_000, 0);
        stream::fold_batches(trace.iter().copied(), chunk, cut(), sliced.parts_mut());
        let mut streamed = ReuseHistograms::new(8, 128, 4_096, 2_000);
        stream::fold_batches(
            doduc.compile(13).take(N),
            chunk,
            cut(),
            streamed.parts_mut(),
        );
        for line in whole.line_sizes() {
            assert_eq!(sliced.profile(line), whole.profile(line), "chunk={chunk}");
            assert_eq!(streamed.profile(line), whole.profile(line), "chunk={chunk}");
            assert_eq!(sliced.set_mass(line), whole.set_mass(line), "chunk={chunk}");
        }
        // Same histograms → same closed-form answers.
        let rebuilt = Analytic::from_histograms(&sliced);
        for (line, lines) in [(16u64, 32u64), (32, 128), (64, 64)] {
            assert_eq!(
                rebuilt.fa_hit_ratio(line, lines).expect("covered"),
                reference.fa_hit_ratio(line, lines).expect("covered"),
                "chunk={chunk} L={line} cap={lines}"
            );
        }
    }
}
