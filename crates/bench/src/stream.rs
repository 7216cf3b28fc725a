//! The chunked generate→fold driver: paper-scale traces without
//! paper-scale memory.
//!
//! Every fold the methodology needs — a [`StackDistSweep`] per line
//! size, a [`MissTimelineBuilder`] per cache, multi-granularity
//! [`simtrace::ReuseHistograms`] — consumes the trace strictly in
//! order. [`fold`] feeds one deterministic chunk sequence to any number
//! of borrowed [`ChunkSink`]s, taking the chunks from a resident trace
//! slice or from the chunked generator ([`Source`]). A generated source
//! counts as one worker and each sink as one more: when only one can
//! run it takes one serial loop, otherwise one `std::thread::scope`
//! loop (the source on the calling thread, one consumer per sink behind
//! a bounded channel), so a generator pipelines into even a single
//! sink, and a reuse-histogram fold fans out as one sink per line size
//! ([`simtrace::ReuseHistograms::parts_mut`]). Either way each sink
//! sees the identical ordered chunk sequence, so the folded results are
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
use simtrace::{GranularityFold, Instr};
use std::ops::Deref;
use std::sync::mpsc;
use std::sync::Arc;

/// Chunks a producer may queue per sink (bounded channel depth). The
/// sinks share each generated chunk, so with the one the slowest
/// consumer holds and the one being generated at most
/// `IN_FLIGHT_CHUNKS + 2` chunks are alive, however many sinks there
/// are: about 1.5 MB at the default chunk length.
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

/// One granularity of a reuse-histogram fold: passing
/// [`simtrace::ReuseHistograms::parts_mut`] as the sinks folds the line
/// sizes on separate threads.
impl ChunkSink for GranularityFold {
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
/// A generated source counts as one worker and every sink as one more.
/// When more than one of them can run ([`exec::worker_count`]), the
/// source runs on the calling thread and each sink folds on its own
/// scoped thread behind a bounded channel: generate→fold pipelining
/// plus sink fan-out, so even one sink over a generator keeps two cores
/// busy. Otherwise (one sink over a resident trace, or one core)
/// everything runs serially. Both loops deliver the identical chunk
/// sequence to every sink, so the results are independent of the
/// schedule.
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
    let generator = usize::from(matches!(source, Source::Generated(_)));
    let workers = exec::worker_count(sinks.len() + generator);
    fold_on(workers, source, chunk_len, sinks);
}

/// [`fold`] with its worker count given: the serial loop for one
/// worker, the parallel loop for more.
fn fold_on<I, S>(workers: usize, source: Source<'_, I>, chunk_len: usize, sinks: &mut [S])
where
    I: Iterator<Item = Instr>,
    S: ChunkSink,
{
    assert!(chunk_len > 0, "chunk length must be at least 1");
    if workers <= 1 {
        source.for_each_chunk(chunk_len, |chunk| {
            fault::check_deadline();
            for sink in sinks.iter_mut() {
                sink.consume(chunk);
            }
        });
        return;
    }
    match source {
        // The trace outlives the scope, so consumers borrow its
        // sub-slices: a resident fan-out copies nothing.
        Source::Resident(trace) => fan_out(trace.chunks(chunk_len), sinks),
        // Each chunk is generated into its own buffer, which the
        // consumers share.
        Source::Generated(gen) => {
            let mut chunks = ChunkedTrace::new(gen, chunk_len);
            let generated = std::iter::from_fn(|| {
                let mut buf = Vec::with_capacity(chunk_len);
                chunks.next_chunk_into(&mut buf).then(|| Arc::new(buf))
            });
            fan_out(generated, sinks);
        }
    }
}

/// The parallel loop: pulls `chunks` on the calling thread and hands
/// each to every sink's scoped consumer thread, each behind a bounded
/// channel.
fn fan_out<C, S>(chunks: impl Iterator<Item = C>, sinks: &mut [S])
where
    C: Deref + Clone + Send,
    C::Target: AsRef<[Instr]>,
    S: ChunkSink,
{
    // Consumers inherit the spawner's fault scope (experiment and
    // deadline) so faults and cancellation reach every fold.
    let inherited = fault::scope();
    std::thread::scope(|scope| {
        let (senders, consumers): (Vec<_>, Vec<_>) = sinks
            .iter_mut()
            .map(|sink| {
                let (tx, rx) = mpsc::sync_channel::<C>(IN_FLIGHT_CHUNKS);
                let inherited = inherited.clone();
                let consumer = scope.spawn(move || {
                    let _scope = fault::enter_shared(inherited);
                    for chunk in rx {
                        sink.consume((*chunk).as_ref());
                    }
                });
                (tx, consumer)
            })
            .unzip();
        for chunk in chunks {
            fault::check_deadline();
            // A closed channel means that consumer panicked: keep
            // feeding the others, and stop once none is left. The join
            // below re-raises the panic.
            let mut delivered = false;
            for tx in &senders {
                delivered |= tx.send(chunk.clone()).is_ok();
            }
            if !delivered {
                break;
            }
        }
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
    use simtrace::ReuseHistograms;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicUsize, Ordering};

    const N: usize = 12_000;

    /// The serial loop and the parallel loop, whatever the host's core
    /// count.
    const LOOPS: [usize; 2] = [1, 2];

    fn source() -> impl Iterator<Item = Instr> {
        builtin("swm256").unwrap().compile(7).take(N)
    }

    /// The same stream, resident and generated.
    fn sources(data: &[Instr]) -> [Source<'_, impl Iterator<Item = Instr>>; 2] {
        [Source::Resident(data), Source::Generated(source())]
    }

    fn sweep_sink() -> StackDistSweep {
        StackDistSweep::new(32, 6, 2, 2_000).expect("valid sweep")
    }

    #[test]
    fn resident_and_generated_folds_match_the_monolithic_path() {
        let mono = StackDistSweep::run(32, 6, 2, 2_000, source()).unwrap();
        let data: Vec<Instr> = source().collect();
        for workers in LOOPS {
            for chunk in [257, 4_096, N] {
                for source in sources(&data) {
                    let mut sweeps = [sweep_sink(), sweep_sink()];
                    fold_on(workers, source, chunk, &mut sweeps);
                    for sweep in &sweeps {
                        for k in 0..=6 {
                            assert_eq!(
                                sweep.stats(k, 2),
                                mono.stats(k, 2),
                                "workers={workers} chunk={chunk} k={k}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn mixed_sinks_fold_in_one_pass() {
        let cache = simcache::CacheConfig::new(8 * 1024, 32, 2).unwrap();
        for workers in LOOPS {
            let mut sweep = sweep_sink();
            let mut timeline = MissTimelineBuilder::new(cache);
            let mut trace = Vec::new();
            fold_on(
                workers,
                Source::Generated(source()),
                1_024,
                &mut [&mut sweep as &mut dyn ChunkSink, &mut timeline, &mut trace],
            );
            assert_eq!(sweep.instructions(), N as u64);
            assert_eq!(timeline.finish(), MissTimeline::extract(cache, source()));
            assert_eq!(trace, source().collect::<Vec<_>>());
        }
    }

    #[test]
    fn histogram_parts_folded_apart_match_one_serial_fold() {
        // The warm-up boundary (5 000) falls inside a chunk at every
        // length but N.
        const WARMUP: u64 = 5_000;
        let data: Vec<Instr> = source().collect();
        let mut serial = ReuseHistograms::new(8, 128, 4_096, WARMUP);
        serial.process_slice(&data);
        for workers in LOOPS {
            for chunk in [333, 4_096, N] {
                for source in sources(&data) {
                    let mut hists = ReuseHistograms::new(8, 128, 4_096, WARMUP);
                    fold_on(workers, source, chunk, hists.parts_mut());
                    assert_eq!(hists.instructions(), N as u64);
                    assert_eq!(hists.bytes(), serial.bytes(), "workers={workers}");
                    for line in serial.line_sizes() {
                        assert_eq!(
                            hists.profile(line),
                            serial.profile(line),
                            "workers={workers} chunk={chunk} line={line}"
                        );
                        assert_eq!(hists.set_mass(line), serial.set_mass(line));
                    }
                }
            }
        }
    }

    #[test]
    fn one_sink_over_a_generator_folds_pipelined() {
        let cache = simcache::CacheConfig::new(8 * 1024, 32, 2).unwrap();
        for workers in LOOPS {
            let mut timeline = MissTimelineBuilder::new(cache);
            fold_on(
                workers,
                Source::Generated(source()),
                1_000,
                &mut [&mut timeline],
            );
            assert_eq!(timeline.finish(), MissTimeline::extract(cache, source()));
            let mut trace = Vec::new();
            fold_on(
                workers,
                Source::Generated(source()),
                1_000,
                &mut [&mut trace],
            );
            assert_eq!(trace, source().collect::<Vec<_>>());
        }
    }

    /// Panics on its third chunk.
    struct Exploding(usize);

    impl ChunkSink for Exploding {
        fn consume(&mut self, _: &[Instr]) {
            self.0 += 1;
            assert!(self.0 < 3, "sink exploded");
        }
    }

    #[test]
    fn a_panicking_sink_is_reraised_and_stops_the_generator() {
        let generated = AtomicUsize::new(0);
        let counted = source().inspect(|_| {
            generated.fetch_add(1, Ordering::Relaxed);
        });
        let payload = catch_unwind(AssertUnwindSafe(|| {
            fold_on(2, Source::Generated(counted), 1_000, &mut [Exploding(0)]);
        }))
        .unwrap_err();
        assert_eq!(fault::panic_text(&*payload), "sink exploded");
        assert!(
            generated.load(Ordering::Relaxed) < N,
            "generation stops once no sink is left"
        );
    }

    #[test]
    fn an_expired_deadline_unwinds_the_pipelined_fold_typed() {
        let _scope = fault::enter_until("expired", Some(std::time::Instant::now()));
        let mut trace = Vec::new();
        let payload = catch_unwind(AssertUnwindSafe(|| {
            fold_on(2, Source::Generated(source()), 1_000, &mut [&mut trace]);
        }))
        .unwrap_err();
        assert!(payload.is::<fault::DeadlineExceeded>());
        assert!(trace.is_empty(), "no chunk was delivered");
    }
}
