//! Reuse-distance fold oracle: every statistic of the streaming
//! [`ReuseDistCounter`] and of the multi-granularity [`ReuseHistograms`]
//! fold must equal a naive unbounded LRU stack's, for every line size in
//! 8–128 B, however the trace is chunked and wherever the warm-up
//! boundary falls.
//!
//! The generated streams mix a hot set, a sequential sweep and a sparse
//! footprint. The sparse arm is large enough that the counter's slot
//! timeline grows past its initial capacity and compacts at least three
//! times (the test checks both); the small arm stays at the initial
//! capacity and compacts every thousand or so line changes.

use bench::stream;
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use simtrace::instr::MemRef;
use simtrace::reusehist::SET_CLASS_LOG2;
use simtrace::workload::WorkloadSpec;
use simtrace::{Instr, RefCutter, ReuseDistCounter, ReuseHistograms, ReuseProfile};

mod common;

const LINE_SIZES: [u64; 5] = [8, 16, 32, 64, 128];

/// The counters that the warm-up snapshot freezes, plus the stack's
/// line-changing accesses (each takes a fresh slot in the counter's
/// timeline, so they measure compaction coverage).
#[derive(Debug, Clone, Default)]
struct Totals {
    hist: Vec<u64>,
    cold: u64,
    total: u64,
    moves: u64,
}

/// A naive unbounded LRU stack at one line granularity: the reuse
/// distance of a reference is the depth of its line in the stack.
struct Stack {
    /// Least recent first, so the most recent line is `lines.last()`.
    lines: Vec<u64>,
    now: Totals,
    set_mass: Vec<u64>,
    last: Option<u64>,
}

impl Stack {
    fn new(max_distance: usize) -> Self {
        Stack {
            lines: Vec::new(),
            now: Totals {
                hist: vec![0; max_distance + 1],
                ..Totals::default()
            },
            set_mass: vec![0; 1 << SET_CLASS_LOG2],
            last: None,
        }
    }

    fn access(&mut self, line: u64) {
        let t = &mut self.now;
        t.total += 1;
        if self.last != Some(line) {
            t.moves += 1;
        }
        self.last = Some(line);
        match self.lines.iter().rposition(|&l| l == line) {
            Some(pos) => {
                let depth = self.lines.len() - 1 - pos;
                let open = t.hist.len() - 1;
                t.hist[depth.min(open)] += 1;
                self.lines.remove(pos);
            }
            None => {
                t.cold += 1;
                self.set_mass[(line % (1 << SET_CLASS_LOG2)) as usize] += 1;
            }
        }
        self.lines.push(line);
    }
}

/// One generated case: the knobs of a mixed reference stream.
#[derive(Debug, Clone)]
struct Case {
    seed: u64,
    len: usize,
    /// Lines in the hot set, 8 B apart.
    hot: u64,
    /// Lines in the sparse footprint, one per 256 B block.
    sparse: u64,
    /// Percent of references to the sparse footprint.
    sparse_pct: u64,
    /// Histogram buckets (small caps exercise the open bucket).
    max_distance: usize,
    /// Warm-up length as a percent of `len` (0: none; over 100: past
    /// the end of the trace).
    warmup_pct: usize,
    /// Positions at which the trace is split into chunks.
    cuts: Vec<usize>,
}

fn cases() -> impl Strategy<Value = Case> {
    let footprint = prop_oneof![
        (1u64..64, 5u64..20),     // small: compacts at the initial capacity
        (150u64..300, 25u64..50), // large: grows past 1 024 slots
    ];
    (
        any::<u64>(),
        40_000usize..55_000,
        4u64..32,
        footprint,
        prop_oneof![16usize..64, 1024usize..4096],
        prop_oneof![1usize..100, Just(0), 101usize..130],
        proptest::collection::vec(0usize..55_000, 0..24),
    )
        .prop_map(
            |(seed, len, hot, (sparse, sparse_pct), max_distance, warmup_pct, cuts)| Case {
                seed,
                len,
                hot,
                sparse,
                sparse_pct,
                max_distance,
                warmup_pct,
                cuts,
            },
        )
}

/// SplitMix64: the stream's deterministic source of randomness.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The case's trace: one in ten instructions touches no memory; the
/// rest go to the hot set, the sparse footprint (at an offset inside
/// each 256 B block that varies from block to block, so coarse lines
/// stay distinct) or a sequential sweep over 512 B.
fn trace(case: &Case) -> Vec<Instr> {
    let mut rng = case.seed;
    let mut sweep = 0u64;
    (0..case.len as u64)
        .map(|i| {
            let r = next(&mut rng);
            let addr = match r % 100 {
                0..=9 => return Instr::plain(i * 4),
                p if p < 10 + case.sparse_pct => {
                    let block = (r >> 32) % case.sparse;
                    (1 << 24) + block * 256 + block % 8 * 24
                }
                p if p < 95 => (1 << 12) + (r >> 32) % case.hot * 8,
                _ => {
                    sweep = (sweep + 8) % 512;
                    (1 << 30) + sweep
                }
            };
            Instr::mem(i * 4, MemRef::load(addr, 4))
        })
        .collect()
}

/// Feeds `trace` through one stack per line size; returns the stacks
/// and, if the trace reached `warmup`, their totals at that moment.
fn oracle(trace: &[Instr], max_distance: usize, warmup: usize) -> (Vec<Stack>, Vec<Totals>) {
    let mut stacks: Vec<Stack> = LINE_SIZES
        .iter()
        .map(|_| Stack::new(max_distance))
        .collect();
    let mut base = Vec::new();
    for (i, instr) in trace.iter().enumerate() {
        if let Some(m) = instr.mem {
            for (stack, &line) in stacks.iter_mut().zip(&LINE_SIZES) {
                stack.access(m.addr.raw() / line);
            }
        }
        if i + 1 == warmup {
            base = stacks.iter().map(|s| s.now.clone()).collect();
        }
    }
    (stacks, base)
}

/// Checks the fold against the stacks and their warm-up totals `base`
/// (empty if the trace never reached the warm-up): each line size's
/// post-warm-up histogram, cold and total counts, and its whole-trace
/// residue footprint.
fn check_fold(
    fold: &ReuseHistograms,
    stacks: &[Stack],
    base: &[Totals],
    max_distance: usize,
) -> Result<(), TestCaseError> {
    for (i, (stack, &line)) in stacks.iter().zip(&LINE_SIZES).enumerate() {
        let then = base.get(i).cloned().unwrap_or_else(|| Totals {
            hist: vec![0; max_distance + 1],
            ..Totals::default()
        });
        let now = &stack.now;
        let hist = now
            .hist
            .iter()
            .zip(&then.hist)
            .map(|(a, b)| a - b)
            .collect();
        let want =
            ReuseProfile::from_parts(line, hist, now.cold - then.cold, now.total - then.total);
        prop_assert_eq!(fold.profile(line), Some(want), "line={}", line);
        prop_assert!(
            fold.set_mass(line) == Some(&stack.set_mass[..]),
            "set_mass differs at line={line}"
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The fold, chunked at random with the warm-up boundary inside a
    /// chunk, passes [`check_fold`]; a single counter per line size, fed
    /// the whole trace, reports every whole-trace statistic of its
    /// stack.
    #[test]
    fn fold_and_counter_match_a_naive_lru_stack(case in cases()) {
        let trace = trace(&case);
        let warmup = case.len * case.warmup_pct / 100;
        let mut cuts: Vec<usize> = case
            .cuts
            .iter()
            .map(|&c| c % case.len)
            .filter(|&c| c != warmup)
            .collect();
        cuts.extend([0, case.len]);
        cuts.sort_unstable();
        cuts.dedup();

        let mut fold = ReuseHistograms::new(8, 128, case.max_distance, warmup as u64);
        for w in cuts.windows(2) {
            fold.process_slice(&trace[w[0]..w[1]]);
        }
        let (stacks, base) = oracle(&trace, case.max_distance, warmup);
        check_fold(&fold, &stacks, &base, case.max_distance)
            .map_err(|e| TestCaseError::fail(format!("{e}\ncase={case:?}")))?;
        for (stack, &line) in stacks.iter().zip(&LINE_SIZES) {
            let now = &stack.now;
            let mut counter = ReuseDistCounter::new(case.max_distance);
            for m in trace.iter().filter_map(|i| i.mem) {
                counter.access(m.addr.raw() / line);
            }
            prop_assert_eq!(counter.histogram(), &now.hist[..], "line={}", line);
            prop_assert_eq!(counter.cold(), now.cold, "line={}", line);
            prop_assert_eq!(counter.total(), now.total, "line={}", line);
            prop_assert_eq!(counter.distinct_lines(), stack.lines.len(), "line={}", line);
            prop_assert!(counter.set_mass() == &stack.set_mass[..], "line={line}");
            if case.sparse >= 150 {
                // Past 128 live lines the timeline outgrows its initial
                // 1 024 slots. Every line-changing access takes a slot,
                // and no compaction leaves more than 16 slots per
                // distinct line: more than 48 moves per distinct line
                // force at least three compactions.
                prop_assert!(now.cold > 128, "line={line}: {} distinct lines", now.cold);
                prop_assert!(
                    now.moves > 3 * 16 * now.cold,
                    "line={line}: {} moves over {} distinct lines",
                    now.moves,
                    now.cold
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Whole workloads, not just the mixed stream above: a random spec
    /// compiled at a random seed (up to 20 k instructions), folded in
    /// random chunks, passes [`check_fold`].
    #[test]
    fn random_specs_fold_like_a_naive_lru_stack(
        json in common::spec_json(),
        seed in any::<u64>(),
        len in 1usize..20_001,
        max_distance in prop_oneof![16usize..64, 1024usize..4096],
        warmup_pct in prop_oneof![1usize..100, Just(0), 101usize..130],
        chunk_len in 1usize..5_000,
    ) {
        let spec = WorkloadSpec::from_json(&json).expect("generated specs are valid");
        let trace: Vec<Instr> = spec.compile(seed).take(len).collect();
        let warmup = len * warmup_pct / 100;
        let mut fold = ReuseHistograms::new(8, 128, max_distance, warmup as u64);
        for chunk in trace.chunks(chunk_len) {
            fold.process_slice(chunk);
        }
        let (stacks, base) = oracle(&trace, max_distance, warmup);
        check_fold(&fold, &stacks, &base, max_distance)
            .map_err(|e| TestCaseError::fail(format!("{e}\nspec={} seed={seed:#x} len={len}", json.render())))?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The batched fold (`stream::fold_batches`): a random spec's
    /// trace, sliced or generated, cut into random chunks whose
    /// reference batches every line size folds, passes [`check_fold`].
    #[test]
    fn random_specs_fold_in_reference_batches_like_a_naive_lru_stack(
        json in common::spec_json(),
        seed in any::<u64>(),
        len in 1usize..20_001,
        max_distance in prop_oneof![16usize..64, 1024usize..4096],
        warmup_pct in prop_oneof![1usize..100, Just(0), 101usize..130],
        chunk_len in 1usize..5_000,
        sliced in any::<bool>(),
    ) {
        let spec = WorkloadSpec::from_json(&json).expect("generated specs are valid");
        let trace: Vec<Instr> = spec.compile(seed).take(len).collect();
        let warmup = len * warmup_pct / 100;
        let mut fold = ReuseHistograms::new(8, 128, max_distance, warmup as u64);
        let cut = RefCutter::new(warmup as u64, 0);
        if sliced {
            stream::fold_batches(trace.iter().copied(), chunk_len, cut, fold.parts_mut());
        } else {
            stream::fold_batches(spec.compile(seed).take(len), chunk_len, cut, fold.parts_mut());
        }
        prop_assert_eq!(fold.instructions(), len as u64);
        let (stacks, base) = oracle(&trace, max_distance, warmup);
        check_fold(&fold, &stacks, &base, max_distance)
            .map_err(|e| TestCaseError::fail(format!("{e}\nspec={} seed={seed:#x} len={len}", json.render())))?;
    }
}
