//! The chunked generate→fold pipeline: paper-scale traces without
//! paper-scale memory.
//!
//! Every fold the methodology needs — a [`StackDistSweep`] per line
//! size, a [`MissTimeline`] per cache — consumes the trace strictly in
//! order. This module broadcasts one deterministic chunk stream
//! ([`simtrace::chunk::ChunkedTrace`]) to any number of [`ChunkSink`]s:
//! serially when only one worker is available, or as a rayon-free
//! `std::thread::scope` pipeline (producer thread + one consumer per
//! sink, bounded channels) when cores allow. Either way each sink sees
//! the identical ordered chunk sequence, so the folded results are
//! **bit-identical** to the monolithic whole-trace path — asserted by
//! `tests/streaming_oracle.rs` — and peak trace-resident memory is a
//! few chunks, not the trace length.
//!
//! The chunk size comes from `REPRO_STREAM_CHUNK` (instructions,
//! default [`simtrace::chunk::DEFAULT_CHUNK_INSTRUCTIONS`]); the
//! determinism contract is documented in `DESIGN.md` §12.

use crate::{exec, fault};
use simcache::stackdist::StackDistSweep;
use simcpu::{MissTimeline, MissTimelineBuilder};
use simtrace::chunk::{ChunkedTrace, DEFAULT_CHUNK_INSTRUCTIONS};
use simtrace::{Instr, ReuseHistograms};
use std::sync::mpsc;
use std::sync::Arc;

/// Chunks a producer may hold in flight per sink (bounded channel
/// depth): with the producer's scratch chunk this caps trace-resident
/// bytes at `(IN_FLIGHT_CHUNKS + 1) × chunk × 24 B` per sink fan-out.
const IN_FLIGHT_CHUNKS: usize = 2;

/// Instructions per streamed chunk: `REPRO_STREAM_CHUNK`, defaulting to
/// [`DEFAULT_CHUNK_INSTRUCTIONS`].
pub fn chunk_instructions() -> usize {
    std::env::var("REPRO_STREAM_CHUNK")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or(DEFAULT_CHUNK_INSTRUCTIONS)
}

/// An order-sensitive fold over a chunked instruction stream.
///
/// Implementations must be pure folds of the chunk sequence: feeding
/// the same chunks in the same order must produce the same output
/// regardless of thread interleaving — that is the entire determinism
/// argument of the parallel pipeline.
pub trait ChunkSink: Send {
    /// The folded result.
    type Out: Send;
    /// Folds one chunk (chunks arrive in stream order, back to back).
    fn consume(&mut self, chunk: &[Instr]);
    /// Seals the fold.
    fn finish(self) -> Self::Out;
}

impl ChunkSink for StackDistSweep {
    type Out = StackDistSweep;
    fn consume(&mut self, chunk: &[Instr]) {
        self.process_slice(chunk);
    }
    fn finish(self) -> StackDistSweep {
        self
    }
}

impl ChunkSink for MissTimelineBuilder {
    type Out = MissTimeline;
    fn consume(&mut self, chunk: &[Instr]) {
        self.process_slice(chunk);
    }
    fn finish(self) -> MissTimeline {
        MissTimelineBuilder::finish(self)
    }
}

impl ChunkSink for ReuseHistograms {
    type Out = ReuseHistograms;
    fn consume(&mut self, chunk: &[Instr]) {
        self.process_slice(chunk);
    }
    fn finish(self) -> ReuseHistograms {
        self
    }
}

/// A heterogeneous sink for pipelines folding sweeps and timelines out
/// of one generation pass (the `stream_smoke` shape).
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub enum FoldSink {
    /// Folds into a [`StackDistSweep`].
    Sweep(StackDistSweep),
    /// Folds into a [`MissTimeline`].
    Timeline(MissTimelineBuilder),
    /// Folds into multi-granularity [`ReuseHistograms`] (the analytic
    /// hit-ratio backend's input).
    Hist(ReuseHistograms),
}

/// The result of one [`FoldSink`].
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub enum FoldOut {
    /// A finished sweep.
    Sweep(StackDistSweep),
    /// A finished timeline.
    Timeline(MissTimeline),
    /// Finished reuse-distance histograms.
    Hist(ReuseHistograms),
}

impl FoldOut {
    /// Unwraps a sweep result.
    ///
    /// # Panics
    ///
    /// Panics if this fold produced a timeline.
    pub fn into_sweep(self) -> StackDistSweep {
        match self {
            FoldOut::Sweep(s) => s,
            _ => panic!("fold did not produce a sweep"),
        }
    }

    /// Unwraps a timeline result.
    ///
    /// # Panics
    ///
    /// Panics if this fold did not produce a timeline.
    pub fn into_timeline(self) -> MissTimeline {
        match self {
            FoldOut::Timeline(t) => t,
            _ => panic!("fold did not produce a timeline"),
        }
    }

    /// Unwraps a histograms result.
    ///
    /// # Panics
    ///
    /// Panics if this fold did not produce histograms.
    pub fn into_histograms(self) -> ReuseHistograms {
        match self {
            FoldOut::Hist(h) => h,
            _ => panic!("fold did not produce histograms"),
        }
    }
}

impl ChunkSink for FoldSink {
    type Out = FoldOut;
    fn consume(&mut self, chunk: &[Instr]) {
        match self {
            FoldSink::Sweep(s) => s.process_slice(chunk),
            FoldSink::Timeline(t) => t.process_slice(chunk),
            FoldSink::Hist(h) => h.process_slice(chunk),
        }
    }
    fn finish(self) -> FoldOut {
        match self {
            FoldSink::Sweep(s) => FoldOut::Sweep(s),
            FoldSink::Timeline(t) => FoldOut::Timeline(t.finish()),
            FoldSink::Hist(h) => FoldOut::Hist(h),
        }
    }
}

/// Streams `source` through every sink in `chunk_len`-instruction
/// blocks and returns the folded results in sink order.
///
/// With more than one worker available ([`exec::worker_count`]), the
/// generator runs on the calling thread and each sink folds on its own
/// scoped thread behind a bounded channel (generate→fold pipelining
/// plus sink fan-out); otherwise everything runs serially on one
/// reused buffer. Both paths deliver the identical chunk sequence to
/// every sink, so the results are independent of the schedule.
///
/// # Panics
///
/// Propagates a panic from any sink, and panics if `chunk_len` is 0.
/// Each chunk is a cancellation point ([`fault::check_deadline`]).
pub fn broadcast<I, S>(source: I, chunk_len: usize, sinks: Vec<S>) -> Vec<S::Out>
where
    I: Iterator<Item = Instr>,
    S: ChunkSink,
{
    let mut chunks = ChunkedTrace::new(source, chunk_len);
    if exec::worker_count(sinks.len()) <= 1 || sinks.len() <= 1 {
        let mut sinks = sinks;
        let mut buf = Vec::with_capacity(chunk_len);
        while chunks.next_chunk_into(&mut buf) {
            fault::check_deadline();
            for sink in &mut sinks {
                sink.consume(&buf);
            }
        }
        return sinks.into_iter().map(ChunkSink::finish).collect();
    }

    // Consumers inherit the spawner's fault scope (experiment and
    // deadline) so faults and cancellation reach every fold.
    let inherited = fault::scope();
    std::thread::scope(|scope| {
        let mut senders = Vec::with_capacity(sinks.len());
        let handles: Vec<_> = sinks
            .into_iter()
            .map(|mut sink| {
                let (tx, rx) = mpsc::sync_channel::<Arc<Vec<Instr>>>(IN_FLIGHT_CHUNKS);
                senders.push(tx);
                let inherited = inherited.clone();
                scope.spawn(move || {
                    let _scope = fault::enter_shared(inherited);
                    while let Ok(chunk) = rx.recv() {
                        sink.consume(&chunk);
                    }
                    sink.finish()
                })
            })
            .collect();
        let mut buf = Vec::with_capacity(chunk_len);
        while chunks.next_chunk_into(&mut buf) {
            fault::check_deadline();
            let shared = Arc::new(std::mem::replace(&mut buf, Vec::with_capacity(chunk_len)));
            for tx in &senders {
                // A closed channel means that consumer panicked; keep
                // feeding the others, the join below re-raises it.
                let _ = tx.send(Arc::clone(&shared));
            }
        }
        drop(senders);
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
            .collect()
    })
}

/// Folds an already-materialised trace through every sink in
/// `chunk_len` blocks — the warm-store fast path: no copy, no
/// generation, same chunk boundaries (hence bit-identical folds) as
/// [`broadcast`] over the equivalent generator, and the same per-chunk
/// cancellation point.
pub fn fold_slice<S: ChunkSink>(data: &[Instr], chunk_len: usize, sinks: Vec<S>) -> Vec<S::Out> {
    assert!(chunk_len > 0, "chunk length must be at least 1");
    if exec::worker_count(sinks.len()) <= 1 || sinks.len() <= 1 {
        let mut sinks = sinks;
        for chunk in data.chunks(chunk_len) {
            fault::check_deadline();
            for sink in &mut sinks {
                sink.consume(chunk);
            }
        }
        return sinks.into_iter().map(ChunkSink::finish).collect();
    }
    let inherited = fault::scope();
    std::thread::scope(|scope| {
        let handles: Vec<_> = sinks
            .into_iter()
            .map(|mut sink| {
                let inherited = inherited.clone();
                scope.spawn(move || {
                    let _scope = fault::enter_shared(inherited);
                    for chunk in data.chunks(chunk_len) {
                        fault::check_deadline();
                        sink.consume(chunk);
                    }
                    sink.finish()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use simtrace::workload::builtin;

    const N: usize = 12_000;

    fn source() -> impl Iterator<Item = Instr> {
        builtin("swm256").unwrap().compile(7).take(N)
    }

    fn sweep_sink() -> StackDistSweep {
        StackDistSweep::new(32, 6, 2, 2_000).expect("valid sweep")
    }

    #[test]
    fn broadcast_folds_match_the_monolithic_path() {
        let mono = StackDistSweep::run(32, 6, 2, 2_000, source()).unwrap();
        for chunk in [257, 4_096, N] {
            let folded = broadcast(source(), chunk, vec![sweep_sink(), sweep_sink()]);
            assert_eq!(folded.len(), 2);
            for sweep in &folded {
                for k in 0..=6 {
                    assert_eq!(sweep.stats(k, 2), mono.stats(k, 2), "chunk={chunk} k={k}");
                }
            }
        }
    }

    #[test]
    fn mixed_sinks_fold_in_one_pass() {
        let cache = simcache::CacheConfig::new(8 * 1024, 32, 2).unwrap();
        let out = broadcast(
            source(),
            1_024,
            vec![
                FoldSink::Sweep(sweep_sink()),
                FoldSink::Timeline(MissTimelineBuilder::new(cache)),
            ],
        );
        let [sweep, timeline]: [FoldOut; 2] = out.try_into().expect("two folds");
        let sweep = sweep.into_sweep();
        let timeline = timeline.into_timeline();
        assert_eq!(sweep.instructions(), N as u64);
        assert_eq!(timeline.instructions(), N as u64);
        assert_eq!(timeline, MissTimeline::extract(cache, source()));
    }

    #[test]
    fn histogram_sink_folds_chunk_invariantly() {
        let mut whole = ReuseHistograms::new(8, 128, 4_096, 2_000);
        let data: Vec<Instr> = source().collect();
        whole.process_slice(&data);
        for chunk in [333, 8_192, N] {
            let out = broadcast(
                source(),
                chunk,
                vec![FoldSink::Hist(ReuseHistograms::new(8, 128, 4_096, 2_000))],
            );
            let [hist]: [FoldOut; 1] = out.try_into().expect("one fold");
            let hist = hist.into_histograms();
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

    #[test]
    fn fold_slice_matches_broadcast() {
        let data: Vec<Instr> = source().collect();
        let via_slice = fold_slice(&data, 999, vec![sweep_sink()]);
        let via_stream = broadcast(source(), 999, vec![sweep_sink()]);
        for k in 0..=6 {
            assert_eq!(via_slice[0].stats(k, 2), via_stream[0].stats(k, 2));
        }
    }

    #[test]
    fn chunk_instructions_defaults_sanely() {
        // Do not touch the env var (tests run in-process, in parallel);
        // whatever it is set to, the result is positive.
        assert!(chunk_instructions() > 0);
    }
}
