//! Closed-form backend oracle: the [`Analytic`] hit-ratio backend built
//! from streaming reuse-distance histograms must be *bit-exact* against
//! live `Cache` replay for fully-associative LRU geometries (Mattson
//! inclusion makes the histogram prefix an exact answer, not an
//! estimate), stay within [`SET_CONFLICT_TOLERANCE`] of the
//! [`StackDistSweep`] simulator for set-associative geometries, and be
//! invariant to how the trace was chunked on its way in.

use bench::stream::{self, Source};
use proptest::prelude::*;
use simcache::explore::measure_dcache;
use simcache::hitratio::{Analytic, HitRatioBackend, Simulated, SET_CONFLICT_TOLERANCE};
use simcache::stackdist::StackDistSweep;
use simcache::CacheConfig;
use simtrace::instr::MemRef;
use simtrace::reusehist::ReuseHistograms;
use simtrace::workload::builtin;
use simtrace::Instr;

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

proptest! {
    /// Fully-associative LRU: the analytic backend and a live `Cache`
    /// replay are the same integer division — equality is `==` on the
    /// floats, no tolerance.
    #[test]
    fn analytic_fa_lru_is_bit_equal_to_replay(stream in streams()) {
        let trace = instrs(&stream);
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
/// streaming driver: any `REPRO_STREAM_CHUNK`-style partition, folded
/// from the resident slice or from the generator, yields bit-identical
/// profiles — and therefore a bit-identical analytic backend.
#[test]
fn chunked_histogram_folds_are_bit_identical_to_whole_trace() {
    const N: usize = 9_000;
    let trace: Vec<Instr> = builtin("doduc").unwrap().compile(13).take(N).collect();
    let mut whole = ReuseHistograms::new(8, 128, 4_096, 2_000);
    whole.process_slice(&trace);
    let reference = Analytic::from_histograms(&whole);

    for chunk in [1usize, 117, 2_000, 4_096, N + 1] {
        let mut sliced = ReuseHistograms::new(8, 128, 4_096, 2_000);
        stream::fold(Source::resident(&trace), chunk, &mut [&mut sliced]);
        let mut streamed = ReuseHistograms::new(8, 128, 4_096, 2_000);
        stream::fold(
            Source::Generated(trace.iter().copied()),
            chunk,
            &mut [&mut streamed],
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
