//! Property tests for the chunked-generation determinism contract
//! (`simtrace::chunk` module docs): for every built-in SPEC92 proxy
//! and arbitrary chunk sizes, the chunked stream is bit-identical to
//! the monolithic one. The streaming pipeline (`bench::stream`) leans
//! on exactly these properties.

use proptest::prelude::*;
use simtrace::workload::{builtins, WorkloadSpec};
use simtrace::Instr;

fn program() -> impl Strategy<Value = &'static WorkloadSpec> {
    (0..builtins().len()).prop_map(|i| &builtins()[i])
}

fn mono(program: &WorkloadSpec, seed: u64, len: usize) -> Vec<Instr> {
    program.compile(seed).take(len).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Concatenating the chunks reproduces the monolithic trace exactly,
    /// whatever the chunk size — including sizes larger than the trace.
    #[test]
    fn chunked_is_bit_identical_to_monolithic(
        program in program(),
        seed in any::<u64>(),
        len in 1usize..3_000,
        chunk_len in 1usize..4_096,
    ) {
        let want = mono(program, seed, len);
        let mut got = Vec::with_capacity(len);
        program.chunks(seed, len, chunk_len)
            .for_each_chunk(|c| got.extend_from_slice(c));
        prop_assert_eq!(got, want);
    }

    /// Every chunk respects the size bound, only the final chunk may be
    /// short, and the produced counter accounts for every instruction.
    #[test]
    fn chunk_sizes_and_accounting_hold(
        program in program(),
        seed in any::<u64>(),
        len in 1usize..3_000,
        chunk_len in 1usize..512,
    ) {
        let mut chunks = program.chunks(seed, len, chunk_len);
        let mut buf = Vec::new();
        let mut sizes = Vec::new();
        while chunks.next_chunk_into(&mut buf) {
            sizes.push(buf.len());
        }
        prop_assert_eq!(sizes.iter().sum::<usize>(), len);
        prop_assert_eq!(chunks.produced(), len as u64);
        let (last, full) = sizes.split_last().expect("len >= 1 gives a chunk");
        prop_assert!(full.iter().all(|&s| s == chunk_len), "only the last chunk may be short");
        prop_assert!(*last >= 1 && *last <= chunk_len);
    }
}
