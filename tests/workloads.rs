//! Workload-spec contract tests: canonical round-tripping, content-hash
//! stability, and bit-identity of the six built-in SPEC92 proxy specs
//! (the committed `workloads/<name>.json` files) against the
//! hand-written constructors the proxies were first defined with. This
//! file is those constructors' only home.
//!
//! The trace store keys every memo entry on `WorkloadSpec::id()`, so
//! these properties are what keep `results/manifest.json` stable across
//! the declarative-workload refactor: same canonical bytes → same hash
//! → same traces → same artifacts.

use common::spec_json;
use proptest::prelude::*;
use simtrace::gen::{LoopNest, PatternTrace, StridedSweep, TraceShape, WorkingSet, ZipfWorkingSet};
use simtrace::mix::{MixtureBuilder, MixtureTrace};
use simtrace::workload::{builtin, builtins, WorkloadSpec};
use simtrace::Instr;

mod common;

/// The pinned content hashes of the six built-in proxy specs. These are
/// SHA-256 over the canonical JSON rendering; a drift here means every
/// memoised trace, timeline and histogram key changes — treat it as a
/// breaking change, not a test to update casually.
const PINNED_IDS: [(&str, &str); 6] = [
    (
        "nasa7",
        "e21ad3515398eceefa55cec28c57471be6a702f9e295a6594458d790c80a3777",
    ),
    (
        "swm256",
        "11418866e49fadc7cf86b4b286ac3a019024c954881a51543b00b4223116ded4",
    ),
    (
        "wave5",
        "cd42325165379beefbd5e9f22bda5da81236ff7ab9a3ca2e330c65dd1933ce9f",
    ),
    (
        "ear",
        "79d97484ce91b4f02ae3ec035608cecae5b814670d972b403619453e925f92e7",
    ),
    (
        "doduc",
        "09b0b284f1075a65b25dbd01e94a4f8e7a882dfe941a9c4310449bac84e36e21",
    ),
    (
        "hydro2d",
        "d51134785f3247abc5f39fec8cdab1071fe542e110350b0ccec92d6ab0de4de2",
    ),
];

#[test]
fn builtin_content_hashes_are_pinned() {
    assert_eq!(builtins().len(), PINNED_IDS.len());
    for (name, id) in PINNED_IDS {
        let spec = builtin(name).expect(name);
        assert_eq!(spec.id().hex(), id, "{name}: content hash drifted");
        assert_eq!(spec.label(), name);
        // Hashing is a pure function of the canonical bytes: a
        // re-parsed copy has the same identity.
        let reparsed = WorkloadSpec::from_json(&spec.to_json()).expect(name);
        assert_eq!(reparsed.id(), spec.id());
    }
}

/// The reference proxies, in the order whose index each one mixes into
/// its seed.
const LEGACY_PROXIES: [&str; 6] = ["nasa7", "swm256", "wave5", "ear", "doduc", "hydro2d"];

/// The hand-written reference constructor of one SPEC92 proxy: the same
/// generator tree its spec file declares, built directly from the
/// `simtrace::gen` primitives. Mixing the proxy's index into the seed
/// keeps the six decorrelated under one experiment seed; the spec files
/// carry that mix as their `seed_mix`.
///
/// Each proxy replaces a program whose trace is not redistributable by
/// a stream with the program's qualitative locality signature, tuned so
/// that the paper's 8 KB/32 B/2-way cache lands in the 88–99 % hit-ratio
/// band with per-program spread in flush ratio and miss spacing.
fn legacy_trace(name: &str, seed: u64) -> PatternTrace<MixtureTrace> {
    let index = LEGACY_PROXIES.iter().position(|&p| p == name).expect(name) as u64;
    let seed = seed ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let mib = 1u64 << 20;
    let shape = |mem_fraction, branch_fraction, code_kib: u64| TraceShape {
        mem_fraction,
        branch_fraction,
        code_bytes: code_kib * 1024,
    };
    match name {
        // Vectorizable numeric kernels: long unit-stride sweeps, a
        // blocked kernel reusing a small sub-matrix, heavy-tailed index
        // tables and scalar locals.
        "nasa7" => MixtureBuilder::new()
            .component(0.16, StridedSweep::new(0x10_0000, 2 * mib, 8, 8, 5))
            .component(
                0.42,
                LoopNest::new(
                    vec![
                        StridedSweep::new(0x60_0000, 3 * 1024, 8, 8, 0),
                        StridedSweep::new(0x60_0C00, 3 * 1024, 8, 8, 3),
                    ],
                    384,
                ),
            )
            .component(0.18, ZipfWorkingSet::new(0x68_0000, 16 * 1024, 8, 1.2, 0.1))
            .component(0.24, WorkingSet::new(0x7F_0000, 2048, 0.4, 8))
            .into_trace(shape(0.34, 0.02, 32), seed),
        // Shallow-water stencil: concurrent store-heavy streams, a 12 K
        // previous-row reuse that fits 32 K but thrashes 8 K, and hot
        // scalars.
        "swm256" => MixtureBuilder::new()
            .component(0.22, StridedSweep::new(0x100_0000, 4 * mib, 8, 8, 3))
            .component(0.14, StridedSweep::new(0x200_0000, 4 * mib, 8, 8, 3))
            .component(0.18, StridedSweep::new(0x100_0000, 12 * 1024, 8, 8, 0))
            .component(0.46, WorkingSet::new(0x7F_0000, 3 * 1024, 0.5, 8))
            .into_trace(shape(0.40, 0.01, 16), seed),
        // Plasma code: Zipf particle gathers, regular field sweeps and
        // hot auxiliary tables.
        "wave5" => MixtureBuilder::new()
            .component(
                0.32,
                ZipfWorkingSet::new(0x300_0000, 96 * 1024, 8, 1.3, 0.35),
            )
            .component(0.24, StridedSweep::new(0x400_0000, mib, 8, 8, 4))
            .component(0.44, WorkingSet::new(0x7E_0000, 4 * 1024, 0.2, 8))
            .into_trace(shape(0.32, 0.04, 96), seed),
        // Cochlea filter cascade: a tight loop nest with strong temporal
        // reuse and an occasional spill to a history buffer.
        "ear" => MixtureBuilder::new()
            .component(
                0.78,
                LoopNest::new(
                    vec![
                        StridedSweep::new(0x50_0000, 2 * 1024, 4, 4, 4),
                        StridedSweep::new(0x50_0800, 2 * 1024, 4, 4, 0),
                        StridedSweep::new(0x50_1000, 2 * 1024, 4, 4, 2),
                    ],
                    256,
                ),
            )
            .component(0.06, StridedSweep::new(0x58_0000, mib / 2, 8, 8, 3))
            .component(0.16, WorkingSet::new(0x7D_0000, 2048, 0.3, 4))
            .into_trace(shape(0.28, 0.03, 24), seed),
        // Monte-Carlo: read-mostly Zipf cross-section tables, hot
        // constants and rare cold event records.
        "doduc" => MixtureBuilder::new()
            .component(
                0.48,
                ZipfWorkingSet::new(0x500_0000, 64 * 1024, 8, 1.2, 0.08),
            )
            .component(0.46, WorkingSet::new(0x40_0000, 3 * 1024, 0.15, 8))
            .component(0.06, StridedSweep::new(0x600_0000, 4 * mib, 8, 8, 2))
            .into_trace(shape(0.25, 0.08, 192), seed),
        // 2-D hydrodynamics: two alternating row sweeps with store-back,
        // a 10 K neighbour-row reuse and hot column temporaries.
        "hydro2d" => MixtureBuilder::new()
            .component(0.20, StridedSweep::new(0x800_0000, 2 * mib, 8, 8, 2))
            .component(0.14, StridedSweep::new(0x900_0000, 2 * mib, 8, 8, 2))
            .component(0.16, StridedSweep::new(0x800_0000, 10 * 1024, 8, 8, 0))
            .component(0.50, WorkingSet::new(0x7C_0000, 2048, 0.5, 8))
            .into_trace(shape(0.38, 0.015, 20), seed),
        _ => unreachable!("{name} is in LEGACY_PROXIES"),
    }
}

#[test]
fn builtins_are_bit_identical_to_the_legacy_constructors() {
    let names: Vec<String> = builtins().iter().map(WorkloadSpec::label).collect();
    assert_eq!(names, LEGACY_PROXIES, "builtins keep the paper's order");
    for spec in builtins() {
        let name = spec.label();
        for seed in [0u64, 7, 0xDEAD_BEEF] {
            let legacy: Vec<Instr> = legacy_trace(&name, seed).take(4_000).collect();
            let compiled: Vec<Instr> = spec.compile(seed).take(4_000).collect();
            assert_eq!(compiled, legacy, "{name} diverged at seed {seed:#x}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// parse → canonical render → parse is a fixed point: the second
    /// parse reproduces the canonical bytes and the content hash.
    #[test]
    fn canonical_form_is_a_round_trip_fixed_point(json in spec_json()) {
        let spec = WorkloadSpec::from_json(&json).expect("generated specs are valid");
        let canonical = spec.canonical_json().render();
        let reparsed = WorkloadSpec::from_json_str(&canonical).expect("canonical form parses");
        prop_assert_eq!(reparsed.canonical_json().render(), canonical.clone());
        prop_assert_eq!(reparsed.id(), spec.id());
        // The full form (with name) parses back to an equal spec.
        let full = WorkloadSpec::from_json_str(&spec.to_json().render()).unwrap();
        prop_assert_eq!(&full, &spec);
        prop_assert_eq!(full.label(), spec.label());
    }

    /// The name never enters the identity, and the identity is what the
    /// trace store keys on.
    #[test]
    fn names_are_labels_not_identities(json in spec_json()) {
        let spec = WorkloadSpec::from_json(&json).unwrap();
        let mut renamed = spec.clone();
        renamed.name = Some("somebody-else".to_string());
        prop_assert_eq!(renamed.id(), spec.id());
        let mut anon = spec.clone();
        anon.name = None;
        prop_assert_eq!(anon.id(), spec.id());
    }

    /// Compiled specs are deterministic in the seed and chunking never
    /// changes the stream (the contract the streaming pipeline needs).
    #[test]
    fn compilation_is_deterministic_and_chunk_invariant(
        json in spec_json(),
        seed in any::<u64>(),
        chunk_len in 1usize..700,
    ) {
        let spec = WorkloadSpec::from_json(&json).unwrap();
        let len = 1_500;
        let whole: Vec<Instr> = spec.compile(seed).take(len).collect();
        let again: Vec<Instr> = spec.compile(seed).take(len).collect();
        prop_assert_eq!(&again, &whole, "same seed, same stream");
        let mut chunked = Vec::with_capacity(len);
        spec.chunks(seed, len, chunk_len)
            .for_each_chunk(|c| chunked.extend_from_slice(c));
        prop_assert_eq!(chunked, whole, "chunking changed the stream");
    }
}
