//! Bounded-memory chunked trace generation.
//!
//! The paper's evaluation runs ~50 M instructions per program; at the
//! pinned 24 bytes/instruction (see [`crate::instr`]) a materialised
//! trace of that length costs 1.2 GB — and the methodology only ever
//! consumes *folds* of the stream (hit ratios, flush ratios, miss
//! timelines), never random access. [`ChunkedTrace`] turns any
//! deterministic generator into a sequence of bounded blocks so a
//! 50 M–1 B instruction trace is produced in `chunk_len`-sized pieces
//! with one reusable buffer, instead of one `Vec<Instr>`.
//!
//! # Determinism contract
//!
//! The proxy generators are stateful lazy streams seeded once, so a
//! chunk's content is a function of the *carried resume state* — the
//! generator after the previous chunk — not of the chunk index alone.
//! Concatenating the chunks of
//! [`WorkloadSpec::chunks`](crate::workload::WorkloadSpec::chunks)
//! reproduces the monolithic `spec.compile(seed).take(n)` stream
//! exactly, for any chunk size (asserted by
//! `tests/chunk_properties.rs`).
//!
//! Consumers fold chunks in order (`StackDistSweep::process_slice`,
//! `MissTimelineBuilder::process_slice`, or any slice loop); because
//! every consumer of one stream sees the identical ordered chunk
//! sequence, chunked and parallel folds are bit-identical to the
//! monolithic path (see `bench::stream`).

use crate::instr::Instr;

/// Default instructions per chunk: 64 Ki instructions ≈ 1.5 MB of
/// buffered trace — large enough to amortise per-chunk overhead, small
/// enough that a handful of in-flight chunks stay cache- and
/// RSS-friendly.
pub const DEFAULT_CHUNK_INSTRUCTIONS: usize = 64 * 1024;

/// Adapts a deterministic instruction stream into bounded chunks.
///
/// The wrapped iterator *is* the resume state: after `next_chunk_into`
/// returns, the `ChunkedTrace` is positioned exactly after the chunk it
/// produced, so continuing extends the stream without gaps or repeats.
///
/// ```
/// use simtrace::chunk::ChunkedTrace;
/// use simtrace::workload::builtin;
///
/// let ear = builtin("ear").unwrap();
/// let mono: Vec<_> = ear.compile(7).take(10_000).collect();
/// let mut chunks = ChunkedTrace::new(ear.compile(7).take(10_000), 4096);
/// let mut streamed = Vec::new();
/// let mut buf = Vec::new();
/// while chunks.next_chunk_into(&mut buf) {
///     streamed.extend_from_slice(&buf);
/// }
/// assert_eq!(streamed, mono);
/// assert_eq!(chunks.produced(), 10_000);
/// ```
#[derive(Debug, Clone)]
pub struct ChunkedTrace<I> {
    source: I,
    chunk_len: usize,
    produced: u64,
}

impl<I: Iterator<Item = Instr>> ChunkedTrace<I> {
    /// Wraps `source`, emitting chunks of at most `chunk_len`
    /// instructions.
    ///
    /// # Panics
    ///
    /// Panics if `chunk_len` is zero.
    pub fn new(source: I, chunk_len: usize) -> Self {
        assert!(chunk_len > 0, "chunk length must be at least 1");
        ChunkedTrace {
            source,
            chunk_len,
            produced: 0,
        }
    }

    /// Instructions emitted across all chunks so far.
    pub fn produced(&self) -> u64 {
        self.produced
    }

    /// Fills `buf` with the next chunk (clearing it first) and returns
    /// `true`, or returns `false` when the stream is exhausted (leaving
    /// `buf` empty). The final chunk may be shorter than `chunk_len`.
    pub fn next_chunk_into(&mut self, buf: &mut Vec<Instr>) -> bool {
        buf.clear();
        buf.extend(self.source.by_ref().take(self.chunk_len));
        self.produced += buf.len() as u64;
        !buf.is_empty()
    }

    /// Folds every remaining chunk through `f`, reusing one buffer.
    pub fn for_each_chunk(mut self, mut f: impl FnMut(&[Instr])) {
        let mut buf = Vec::with_capacity(self.chunk_len);
        while self.next_chunk_into(&mut buf) {
            f(&buf);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{builtin, WorkloadSpec};

    fn spec(name: &str) -> &'static WorkloadSpec {
        builtin(name).expect("a builtin proxy")
    }

    fn mono(n: usize) -> Vec<Instr> {
        spec("nasa7").compile(42).take(n).collect()
    }

    #[test]
    fn chunks_concatenate_to_the_monolithic_trace() {
        let want = mono(10_000);
        for chunk_len in [1, 7, 1024, 10_000, 65_536] {
            let mut got = Vec::new();
            spec("nasa7")
                .chunks(42, 10_000, chunk_len)
                .for_each_chunk(|c| got.extend_from_slice(c));
            assert_eq!(got, want, "chunk_len={chunk_len}");
        }
    }

    #[test]
    fn produced_counts_every_instruction() {
        let mut chunks = spec("ear").chunks(1, 5_000, 999);
        let mut buf = Vec::new();
        let mut n = 0usize;
        while chunks.next_chunk_into(&mut buf) {
            assert!(buf.len() <= 999);
            n += buf.len();
        }
        assert_eq!(n, 5_000);
        assert_eq!(chunks.produced(), 5_000);
        assert!(!chunks.next_chunk_into(&mut buf), "stream stays exhausted");
    }

    #[test]
    #[should_panic(expected = "chunk length")]
    fn zero_chunk_len_is_rejected() {
        let _ = ChunkedTrace::new(std::iter::empty::<Instr>(), 0);
    }
}
