//! The chunked generate→fold driver: paper-scale traces without
//! paper-scale memory.
//!
//! Every fold the methodology needs — a [`StackDistSweep`] per line
//! size, a [`MissTimelineBuilder`] per cache, multi-granularity
//! [`ReuseHistograms`] — consumes the trace strictly in order. [`fold`]
//! feeds one deterministic chunk sequence to any number of borrowed
//! [`ChunkSink`]s, taking the chunks from a resident trace slice or
//! from the chunked generator ([`Source`]). It runs one serial loop
//! when only one worker is available, or one `std::thread::scope` loop
//! (the source on the calling thread, one consumer per sink behind a
//! bounded channel) when cores allow. Either way each sink sees the
//! identical ordered chunk sequence, so the folded results are
//! **bit-identical** to the monolithic whole-trace path — asserted by
//! `tests/streaming_oracle.rs` — and peak trace-resident memory is a
//! few chunks, not the trace length.
//!
//! Production folds use [`chunk_instructions`] chunks; the determinism
//! contract that makes any other length give the same answer is
//! documented in `DESIGN.md` §12.

use crate::{exec, fault};
use simcache::stackdist::StackDistSweep;
use simcpu::MissTimelineBuilder;
use simtrace::chunk::{ChunkedTrace, DEFAULT_CHUNK_INSTRUCTIONS};
use simtrace::{Instr, ReuseHistograms};
use std::sync::mpsc;
use std::sync::Arc;

/// Chunks a producer may hold in flight per sink (bounded channel
/// depth): with the producer's scratch chunk this caps trace-resident
/// bytes at `(IN_FLIGHT_CHUNKS + 1) × chunk × 24 B` per sink fan-out.
const IN_FLIGHT_CHUNKS: usize = 2;

/// Instructions per streamed chunk: always
/// [`DEFAULT_CHUNK_INSTRUCTIONS`]. Every fold, artifact and manifest
/// hash is invariant to the chunk length (`DESIGN.md` §12), so it is a
/// constant, not a setting.
pub fn chunk_instructions() -> usize {
    DEFAULT_CHUNK_INSTRUCTIONS
}

/// An order-sensitive fold over a chunked instruction stream.
///
/// Implementations must be pure folds of the chunk sequence: feeding
/// the same chunks in the same order must produce the same state
/// regardless of thread interleaving — that is the entire determinism
/// argument of the parallel loop.
pub trait ChunkSink: Send {
    /// Folds one chunk (chunks arrive in stream order, back to back).
    fn consume(&mut self, chunk: &[Instr]);
}

impl ChunkSink for StackDistSweep {
    fn consume(&mut self, chunk: &[Instr]) {
        self.process_slice(chunk);
    }
}

impl ChunkSink for MissTimelineBuilder {
    fn consume(&mut self, chunk: &[Instr]) {
        self.process_slice(chunk);
    }
}

impl ChunkSink for ReuseHistograms {
    fn consume(&mut self, chunk: &[Instr]) {
        self.process_slice(chunk);
    }
}

/// Collects the stream: the sink that materialises a trace.
impl ChunkSink for Vec<Instr> {
    fn consume(&mut self, chunk: &[Instr]) {
        self.extend_from_slice(chunk);
    }
}

/// A borrowed sink, so one pass can fold sinks of different types
/// (`&mut [&mut dyn ChunkSink]`) while the caller keeps owning them.
impl<S: ChunkSink + ?Sized> ChunkSink for &mut S {
    fn consume(&mut self, chunk: &[Instr]) {
        (**self).consume(chunk);
    }
}

/// Where a fold's chunks come from.
#[derive(Debug)]
pub enum Source<'a, I> {
    /// A materialised trace, folded in place: no copy, no generation.
    Resident(&'a [Instr]),
    /// A deterministic generator, cut into chunks as it runs.
    Generated(I),
}

impl<'a> Source<'a, std::iter::Empty<Instr>> {
    /// A resident trace with no generator behind it.
    pub fn resident(trace: &'a [Instr]) -> Self {
        Source::Resident(trace)
    }
}

impl<I: Iterator<Item = Instr>> Source<'_, I> {
    /// Calls `f` on every `chunk_len`-instruction chunk in stream order
    /// (the last may be shorter). A resident trace and the generator it
    /// was materialised from yield the same chunks.
    fn for_each_chunk(self, chunk_len: usize, f: impl FnMut(&[Instr])) {
        match self {
            Source::Resident(trace) => trace.chunks(chunk_len).for_each(f),
            Source::Generated(gen) => ChunkedTrace::new(gen, chunk_len).for_each_chunk(f),
        }
    }
}

/// Folds `source` through every sink in `chunk_len`-instruction chunks.
///
/// With more than one sink and more than one worker available
/// ([`exec::worker_count`]), the source runs on the calling thread and
/// each sink folds on its own scoped thread behind a bounded channel
/// (generate→fold pipelining plus sink fan-out); otherwise everything
/// runs serially. Both loops deliver the identical chunk sequence to
/// every sink, so the results are independent of the schedule.
///
/// # Panics
///
/// Propagates a panic from any sink, and panics if `chunk_len` is 0.
/// Each chunk is a cancellation point ([`fault::check_deadline`]).
pub fn fold<I, S>(source: Source<'_, I>, chunk_len: usize, sinks: &mut [S])
where
    I: Iterator<Item = Instr>,
    S: ChunkSink,
{
    assert!(chunk_len > 0, "chunk length must be at least 1");
    if sinks.len() <= 1 || exec::worker_count(sinks.len()) <= 1 {
        source.for_each_chunk(chunk_len, |chunk| {
            fault::check_deadline();
            for sink in sinks.iter_mut() {
                sink.consume(chunk);
            }
        });
        return;
    }

    // Consumers inherit the spawner's fault scope (experiment and
    // deadline) so faults and cancellation reach every fold.
    let inherited = fault::scope();
    std::thread::scope(|scope| {
        let (senders, consumers): (Vec<_>, Vec<_>) = sinks
            .iter_mut()
            .map(|sink| {
                let (tx, rx) = mpsc::sync_channel::<Arc<[Instr]>>(IN_FLIGHT_CHUNKS);
                let inherited = inherited.clone();
                let consumer = scope.spawn(move || {
                    let _scope = fault::enter_shared(inherited);
                    while let Ok(chunk) = rx.recv() {
                        sink.consume(&chunk);
                    }
                });
                (tx, consumer)
            })
            .unzip();
        source.for_each_chunk(chunk_len, |chunk| {
            fault::check_deadline();
            let shared: Arc<[Instr]> = Arc::from(chunk);
            for tx in &senders {
                // A closed channel means that consumer panicked; keep
                // feeding the others, the join below re-raises it.
                let _ = tx.send(Arc::clone(&shared));
            }
        });
        drop(senders);
        for consumer in consumers {
            consumer
                .join()
                .unwrap_or_else(|p| std::panic::resume_unwind(p));
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcpu::MissTimeline;
    use simtrace::workload::builtin;

    const N: usize = 12_000;

    fn source() -> impl Iterator<Item = Instr> {
        builtin("swm256").unwrap().compile(7).take(N)
    }

    fn sweep_sink() -> StackDistSweep {
        StackDistSweep::new(32, 6, 2, 2_000).expect("valid sweep")
    }

    #[test]
    fn resident_and_generated_folds_match_the_monolithic_path() {
        let mono = StackDistSweep::run(32, 6, 2, 2_000, source()).unwrap();
        let data: Vec<Instr> = source().collect();
        for chunk in [257, 4_096, N] {
            let mut resident = [sweep_sink(), sweep_sink()];
            fold(Source::resident(&data), chunk, &mut resident);
            let mut generated = [sweep_sink(), sweep_sink()];
            fold(Source::Generated(source()), chunk, &mut generated);
            for sweep in resident.iter().chain(&generated) {
                for k in 0..=6 {
                    assert_eq!(sweep.stats(k, 2), mono.stats(k, 2), "chunk={chunk} k={k}");
                }
            }
        }
    }

    #[test]
    fn mixed_sinks_fold_in_one_pass() {
        let cache = simcache::CacheConfig::new(8 * 1024, 32, 2).unwrap();
        let mut sweep = sweep_sink();
        let mut timeline = MissTimelineBuilder::new(cache);
        let mut trace = Vec::new();
        fold(
            Source::Generated(source()),
            1_024,
            &mut [&mut sweep as &mut dyn ChunkSink, &mut timeline, &mut trace],
        );
        assert_eq!(sweep.instructions(), N as u64);
        assert_eq!(timeline.finish(), MissTimeline::extract(cache, source()));
        assert_eq!(trace, source().collect::<Vec<_>>());
    }

    #[test]
    fn histogram_sink_folds_chunk_invariantly() {
        let mut whole = ReuseHistograms::new(8, 128, 4_096, 2_000);
        let data: Vec<Instr> = source().collect();
        whole.process_slice(&data);
        for chunk in [333, 8_192, N] {
            let mut hist = ReuseHistograms::new(8, 128, 4_096, 2_000);
            fold(Source::Generated(source()), chunk, &mut [&mut hist]);
            for line in whole.line_sizes() {
                assert_eq!(
                    hist.profile(line),
                    whole.profile(line),
                    "chunk={chunk} line={line}"
                );
                assert_eq!(hist.set_mass(line), whole.set_mass(line));
            }
        }
    }
}
