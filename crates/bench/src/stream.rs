//! The chunked generate→fold driver: paper-scale traces without
//! paper-scale memory.
//!
//! Every fold the methodology needs — a [`StackDistSweep`] per line
//! size, a [`MissTimelineBuilder`] per cache, multi-granularity
//! [`ReuseHistograms`] — consumes the trace strictly in order. An
//! instruction stream (a compiled generator, or a materialised trace's
//! `iter().copied()`) is cut into one deterministic sequence of items,
//! and every borrowed [`ChunkSink`] sees each item in order. [`fold`]
//! hands out instruction chunks, which the timeline builder reads;
//! [`fold_batches`] cuts them once more into [`RefBatch`]es (a run's
//! data addresses and store bits, extracted once on the stream's
//! thread) and hands each batch to every sweep and every granularity
//! part of a [`ReuseHistograms`]. Both run the same two loops, generic
//! over the item: the stream counts as one worker and each sink as one
//! more; when only one can run they take the serial loop, otherwise the
//! `std::thread::scope` loop (the stream on the calling thread, one
//! consumer per sink behind a bounded channel), so a generator
//! pipelines into even a single sink and the sweeps and histogram parts
//! fold side by side. The consumers only fold: cancellation
//! ([`fault::check_deadline`]) is checked on the calling thread, once
//! per chunk. Chunks and reference batches live in buffers allocated
//! once and recycled once every sink has dropped them. Either way each
//! sink sees the identical ordered item sequence, so the folded results
//! are **bit-identical** to the monolithic whole-trace path — asserted
//! by `tests/streaming_oracle.rs` — and peak trace-resident memory is a
//! few buffers, not the trace length.
//!
//! Production folds use [`chunk_instructions`] chunks and
//! [`RefBatch::REFS`]-reference batches; the determinism contract that
//! makes any other length give the same answer is documented in
//! `DESIGN.md` §12.

use crate::fault;
use simcache::stackdist::StackDistSweep;
use simcpu::MissTimelineBuilder;
use simtrace::chunk::{ChunkedTrace, DEFAULT_CHUNK_INSTRUCTIONS};
use simtrace::{GranularityFold, Instr, RefBatch, RefCutter};
use std::borrow::Borrow;
use std::sync::mpsc;
use std::sync::Arc;

/// Items a producer may queue per sink (bounded channel depth). The
/// sinks share each item, so with the one the slowest consumer holds
/// and the one being produced at most `IN_FLIGHT_CHUNKS + 2` buffers
/// are alive, however many sinks there are: 1.5 MB of instruction
/// chunks at the default chunk length, or 2.03 MB of reference batches
/// (four of [`RefBatch::REFS`] addresses and their store bits, 520 KB
/// each) plus the one chunk being cut.
const IN_FLIGHT_CHUNKS: usize = 2;

/// Instructions per streamed chunk: always
/// [`DEFAULT_CHUNK_INSTRUCTIONS`]. Every fold, artifact and manifest
/// hash is invariant to the chunk length (`DESIGN.md` §12), so it is a
/// constant, not a setting.
pub fn chunk_instructions() -> usize {
    DEFAULT_CHUNK_INSTRUCTIONS
}

/// An order-sensitive fold over a chunked stream of `C` items:
/// instruction chunks by default, [`RefBatch`]es for sweeps and the
/// granularity parts of a histogram fold.
///
/// Implementations must be pure folds of the item sequence: feeding
/// the same items in the same order must produce the same state
/// regardless of thread interleaving — that is the entire determinism
/// argument of the parallel loop.
pub trait ChunkSink<C: ?Sized = [Instr]>: Send {
    /// Folds one item (items arrive in stream order, back to back).
    fn consume(&mut self, chunk: &C);
}

impl ChunkSink for MissTimelineBuilder {
    fn consume(&mut self, chunk: &[Instr]) {
        self.process_slice(chunk);
    }
}

/// One line size of a grid: [`fold_batches`] hands every sweep the
/// same reference batches.
impl ChunkSink<RefBatch> for StackDistSweep {
    fn consume(&mut self, batch: &RefBatch) {
        self.fold(batch);
    }
}

/// One granularity of a reuse-histogram fold, fed like a sweep.
impl ChunkSink<RefBatch> for GranularityFold {
    fn consume(&mut self, batch: &RefBatch) {
        self.fold(batch);
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
impl<C: ?Sized, S: ChunkSink<C> + ?Sized> ChunkSink<C> for &mut S {
    fn consume(&mut self, chunk: &C) {
        (**self).consume(chunk);
    }
}

/// Worker threads a fold of `sinks` sinks can use: the stream counts
/// as one worker and every sink as one more, never more than the host
/// has CPUs ([`crate::common::host_cpus`]).
fn workers(sinks: usize) -> usize {
    crate::common::host_cpus().min(sinks + 1)
}

/// `trace` cut into `chunk_len`-instruction chunks in stream order (the
/// last may be shorter), each built into a recycled buffer that the
/// consumers share. Each chunk is a cancellation point
/// ([`fault::check_deadline`]), checked on the thread that pulls it.
///
/// # Panics
///
/// Panics if `chunk_len` is 0.
fn chunks<I: Iterator<Item = Instr>>(
    trace: I,
    chunk_len: usize,
) -> impl Iterator<Item = Arc<Vec<Instr>>> {
    let mut chunks = ChunkedTrace::new(trace, chunk_len);
    let mut pool = Recycler::default();
    std::iter::from_fn(move || {
        fault::check_deadline();
        pool.next(
            || Vec::with_capacity(chunk_len),
            |buf| chunks.next_chunk_into(buf),
        )
    })
}

/// Buffers shared out as `Arc`s and refilled once every holder has
/// dropped its handle, so a fold allocates each in-flight buffer once,
/// at full size. The serial loop drops an item before it pulls the
/// next, so it cycles one buffer; the parallel loop's bounded channels
/// keep the pool at `IN_FLIGHT_CHUNKS + 2` buffers.
struct Recycler<T> {
    pool: Vec<Arc<T>>,
}

impl<T> Default for Recycler<T> {
    fn default() -> Self {
        Recycler { pool: Vec::new() }
    }
}

impl<T> Recycler<T> {
    /// Refills a free buffer (or a new one from `make`) through `fill`
    /// and shares it, or returns `None` when `fill` reports the stream
    /// is done.
    fn next(
        &mut self,
        make: impl FnOnce() -> T,
        fill: impl FnOnce(&mut T) -> bool,
    ) -> Option<Arc<T>> {
        let free = match self.pool.iter_mut().position(|b| Arc::get_mut(b).is_some()) {
            Some(free) => free,
            None => {
                self.pool.push(Arc::new(make()));
                self.pool.len() - 1
            }
        };
        let buf = Arc::get_mut(&mut self.pool[free]).expect("no other holder");
        fill(buf).then(|| Arc::clone(&self.pool[free]))
    }
}

/// Cuts `chunks` into reference batches of at most `refs` addresses
/// through `cut`. A batch spans chunk boundaries, so batches depend on
/// the stream alone, not on how it was chunked.
fn batches(
    mut chunks: impl Iterator<Item = Arc<Vec<Instr>>>,
    mut cut: RefCutter,
    refs: usize,
) -> impl Iterator<Item = Arc<RefBatch>> {
    let mut pool = Recycler::default();
    let (mut pending, mut at) = (None::<Arc<Vec<Instr>>>, 0);
    std::iter::from_fn(move || {
        pool.next(
            || RefBatch::with_capacity(refs),
            |batch| {
                batch.clear();
                loop {
                    if pending.as_ref().is_none_or(|chunk| at == chunk.len()) {
                        // Drop the spent chunk first, so the generator
                        // refills its buffer instead of allocating.
                        drop(pending.take());
                        pending = chunks.next();
                        at = 0;
                    }
                    let Some(chunk) = &pending else { break };
                    at += cut.fill(batch, &chunk[at..]);
                    if at < chunk.len() {
                        break;
                    }
                }
                batch.instructions() > 0
            },
        )
    })
}

/// Folds `trace` through every sink in `chunk_len`-instruction chunks.
///
/// When more than one worker can run ([`workers`]), the stream runs on
/// the calling thread and each sink folds on its own scoped thread
/// behind a bounded channel: generate→fold pipelining plus sink
/// fan-out, so even one sink keeps two cores busy. On one core
/// everything runs serially. Both loops deliver the identical chunk
/// sequence to every sink, so the results are independent of the
/// schedule.
///
/// # Panics
///
/// Propagates a panic from any sink, and panics if `chunk_len` is 0.
/// Each chunk is a cancellation point ([`fault::check_deadline`]).
pub fn fold<I, S>(trace: I, chunk_len: usize, sinks: &mut [S])
where
    I: Iterator<Item = Instr>,
    S: ChunkSink,
{
    drive(workers(sinks.len()), chunks(trace, chunk_len), sinks);
}

/// Folds `trace` through every sink in reference batches cut by `cut`:
/// the calling thread extracts the data addresses and store bits of
/// each run of the stream once, into a [`RefBatch::REFS`]-reference
/// batch, and every sink folds that batch — on its own thread when more
/// than one worker can run, as in [`fold`]. Sweeps and histogram parts
/// may share one pass (as `&mut dyn ChunkSink<RefBatch>`) when they
/// share a warm-up. The result is bit-identical to
/// [`StackDistSweep::process_slice`] and
/// `ReuseHistograms::process_slice` over the same stream, and a fold
/// may continue sinks that already hold instructions when `cut` starts
/// where they stopped.
///
/// # Panics
///
/// As [`fold`], and if a sink was set up for another warm-up than
/// `cut`'s.
pub fn fold_batches<I, S>(trace: I, chunk_len: usize, cut: RefCutter, sinks: &mut [S])
where
    I: Iterator<Item = Instr>,
    S: ChunkSink<RefBatch>,
{
    fold_batches_on(
        workers(sinks.len()),
        RefBatch::REFS,
        trace,
        chunk_len,
        cut,
        sinks,
    );
}

/// [`fold_batches`] with its worker count and batch length given.
fn fold_batches_on<I, S>(
    workers: usize,
    refs: usize,
    trace: I,
    chunk_len: usize,
    cut: RefCutter,
    sinks: &mut [S],
) where
    I: Iterator<Item = Instr>,
    S: ChunkSink<RefBatch>,
{
    drive(workers, batches(chunks(trace, chunk_len), cut, refs), sinks);
}

/// The two loops of every fold, generic over the item: the serial loop
/// for one worker, the parallel loop ([`fan_out`]) for more. `items`
/// is pulled on the calling thread either way.
fn drive<X, T, S>(workers: usize, items: impl Iterator<Item = Arc<X>>, sinks: &mut [S])
where
    X: Borrow<T> + Send + Sync,
    T: ?Sized,
    S: ChunkSink<T>,
{
    if workers <= 1 {
        for item in items {
            for sink in sinks.iter_mut() {
                sink.consume((*item).borrow());
            }
        }
    } else {
        fan_out(items, sinks);
    }
}

/// The parallel loop: pulls `items` on the calling thread and hands
/// each to every sink's scoped consumer thread, each behind a bounded
/// channel.
fn fan_out<X, T, S>(items: impl Iterator<Item = Arc<X>>, sinks: &mut [S])
where
    X: Borrow<T> + Send + Sync,
    T: ?Sized,
    S: ChunkSink<T>,
{
    std::thread::scope(|scope| {
        let (senders, consumers): (Vec<_>, Vec<_>) = sinks
            .iter_mut()
            .map(|sink| {
                let (tx, rx) = mpsc::sync_channel::<Arc<X>>(IN_FLIGHT_CHUNKS);
                let consumer = scope.spawn(move || {
                    for item in rx {
                        sink.consume((*item).borrow());
                    }
                });
                (tx, consumer)
            })
            .unzip();
        for item in items {
            // A closed channel means that consumer panicked: keep
            // feeding the others, and stop once none is left. The join
            // below re-raises the panic.
            let mut delivered = false;
            for tx in &senders {
                delivered |= tx.send(Arc::clone(&item)).is_ok();
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
    use simcache::explore::{hit_ratio_grid_replay, GridSpec};
    use simcache::Simulated;
    use simcpu::MissTimeline;
    use simtrace::workload::builtin;
    use simtrace::ReuseHistograms;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicUsize, Ordering};

    const N: usize = 12_000;

    /// The serial loop and the parallel loop, whatever the host's core
    /// count.
    const LOOPS: [usize; 2] = [1, 2];

    /// [`fold`] with its worker count given.
    fn fold_on<I, S>(workers: usize, trace: I, chunk_len: usize, sinks: &mut [S])
    where
        I: Iterator<Item = Instr>,
        S: ChunkSink,
    {
        drive(workers, chunks(trace, chunk_len), sinks);
    }

    fn source() -> impl Iterator<Item = Instr> {
        builtin("swm256").unwrap().compile(7).take(N)
    }

    fn sweep_sink() -> StackDistSweep {
        StackDistSweep::new(32, 6, 2, 2_000).expect("valid sweep")
    }

    #[test]
    fn batched_folds_match_the_monolithic_path() {
        let mono = StackDistSweep::run(32, 6, 2, 2_000, source()).unwrap();
        for workers in LOOPS {
            for chunk in [257, 4_096, N] {
                let mut sweeps = [sweep_sink(), sweep_sink()];
                let cut = RefCutter::new(2_000, 0);
                fold_batches_on(workers, 1_000, source(), chunk, cut, &mut sweeps);
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

    #[test]
    fn mixed_sinks_fold_in_two_passes() {
        let cache = simcache::CacheConfig::new(8 * 1024, 32, 2).unwrap();
        for workers in LOOPS {
            let mut timeline = MissTimelineBuilder::new(cache);
            let mut trace = Vec::new();
            fold_on(
                workers,
                source(),
                1_024,
                &mut [&mut timeline as &mut dyn ChunkSink, &mut trace],
            );
            let mut sweep = sweep_sink();
            let cut = RefCutter::new(2_000, 0);
            fold_batches_on(workers, 1_000, source(), 1_024, cut, &mut [&mut sweep]);
            assert_eq!(sweep.instructions(), N as u64);
            assert_eq!(timeline.finish(), MissTimeline::extract(cache, source()));
            assert_eq!(trace, source().collect::<Vec<_>>());
        }
    }

    #[test]
    fn sweeps_and_histogram_parts_folded_apart_match_the_oracles() {
        // swm256 with 8 192 instructions that make no data reference
        // spliced in at 4 096: chunks of 333 and of 4 096 instructions
        // include some with no reference at all.
        let mut data: Vec<Instr> = source().collect();
        data.splice(4_096..4_096, (0..8_192u64).map(|i| Instr::plain(i * 4)));
        let n = data.len();
        // The instruction that makes the 1 000th reference: a warm-up
        // there ends at the last reference of the first 1 000-reference
        // batch.
        let (thousandth, _) = data
            .iter()
            .enumerate()
            .filter(|(_, i)| i.mem.is_some())
            .nth(999)
            .expect("swm256 makes a thousand references");
        // Inside a batch, at a batch's last reference, at instruction 0
        // and past the end of the trace.
        for warmup in [15_000, thousandth as u64 + 1, 0, n as u64 + 1] {
            let grid = GridSpec {
                cache_sizes: vec![1024, 8 * 1024],
                line_sizes: vec![16, 32, 64],
                assocs: vec![1, 2, 4],
                warmup,
            };
            let replay = hit_ratio_grid_replay(&grid, || data.iter().copied()).unwrap();
            // One instruction at a time: every instruction its own batch.
            let mut serial = ReuseHistograms::new(8, 128, 4_096, warmup);
            for &i in &data {
                serial.process(i);
            }
            for workers in LOOPS {
                // Batch boundaries that do not line up with the chunks.
                for (chunk, refs) in [
                    (333, 1_000),
                    (4_096, 1_000),
                    (4_096, 4_000),
                    (n, RefBatch::REFS),
                ] {
                    let mut sweeps = grid.sweeps().unwrap();
                    let mut hists = ReuseHistograms::new(8, 128, 4_096, warmup);
                    let mut sinks: Vec<&mut dyn ChunkSink<RefBatch>> = sweeps
                        .iter_mut()
                        .map(|s| s as &mut dyn ChunkSink<RefBatch>)
                        .collect();
                    sinks.extend(
                        hists
                            .parts_mut()
                            .iter_mut()
                            .map(|p| p as &mut dyn ChunkSink<RefBatch>),
                    );
                    let cut = RefCutter::new(warmup, 0);
                    let trace = data.iter().copied();
                    fold_batches_on(workers, refs, trace, chunk, cut, &mut sinks);
                    drop(sinks);
                    let at = format!("warmup={warmup} workers={workers} chunk={chunk} refs={refs}");
                    let points = Simulated::from_sweeps(sweeps).points(&grid).unwrap();
                    assert_eq!(points, replay, "{at}");
                    assert_eq!(hists.instructions(), n as u64, "{at}");
                    assert_eq!(hists.bytes(), serial.bytes(), "{at}");
                    for line in serial.line_sizes() {
                        assert_eq!(
                            hists.profile(line),
                            serial.profile(line),
                            "{at} line={line}"
                        );
                        assert_eq!(hists.set_mass(line), serial.set_mass(line), "{at}");
                    }
                }
            }
        }
    }

    #[test]
    fn a_batched_fold_continues_sinks_already_fed() {
        let data: Vec<Instr> = source().collect();
        let mut whole = ReuseHistograms::new(8, 128, 4_096, 5_000);
        whole.process_slice(&data);
        let mono = StackDistSweep::run(32, 6, 2, 5_000, data.iter().copied()).unwrap();
        for workers in LOOPS {
            let mut hists = ReuseHistograms::new(8, 128, 4_096, 5_000);
            hists.process_slice(&data[..3_000]);
            let mut sweep = StackDistSweep::new(32, 6, 2, 5_000).unwrap();
            sweep.process_slice(&data[..3_000]);
            let mut sinks: Vec<&mut dyn ChunkSink<RefBatch>> = vec![&mut sweep];
            sinks.extend(
                hists
                    .parts_mut()
                    .iter_mut()
                    .map(|p| p as &mut dyn ChunkSink<RefBatch>),
            );
            fold_batches_on(
                workers,
                1_000,
                data[3_000..].iter().copied(),
                333,
                RefCutter::new(5_000, 3_000),
                &mut sinks,
            );
            assert_eq!(hists.instructions(), N as u64);
            for line in whole.line_sizes() {
                assert_eq!(hists.profile(line), whole.profile(line), "line={line}");
            }
            assert_eq!(sweep.instructions(), N as u64);
            for k in 0..=6 {
                assert_eq!(sweep.stats(k, 2), mono.stats(k, 2), "k={k}");
            }
        }
    }

    #[test]
    fn one_sink_over_a_generator_folds_pipelined() {
        let cache = simcache::CacheConfig::new(8 * 1024, 32, 2).unwrap();
        for workers in LOOPS {
            let mut timeline = MissTimelineBuilder::new(cache);
            fold_on(workers, source(), 1_000, &mut [&mut timeline]);
            assert_eq!(timeline.finish(), MissTimeline::extract(cache, source()));
            let mut trace = Vec::new();
            fold_on(workers, source(), 1_000, &mut [&mut trace]);
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
            fold_on(2, counted, 1_000, &mut [Exploding(0)]);
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
            fold_on(2, source(), 1_000, &mut [&mut trace]);
        }))
        .unwrap_err();
        assert!(payload.is::<fault::DeadlineExceeded>());
        assert!(trace.is_empty(), "no chunk was delivered");
    }
}
