//! Streaming reuse-distance histograms in `O(refs · log distinct)`.
//!
//! [`crate::reuse::ReuseProfile`]'s original stack walk paid
//! `O(distinct lines)` per reference (`Vec::remove` on the LRU stack).
//! This module replaces the stack with Mattson's classic tree
//! formulation: every line's *last-access time* occupies a slot on a
//! timeline, and the reuse distance of an access is simply the number
//! of live slots **after** the line's previous slot. Slots are assigned
//! in order, so the timeline only has to remember which assigned slots
//! have been *retired* (their line has moved on): live slots through
//! `s` are `s + 1` less the retired ones. Retired slots are bits of a
//! bitmap, and a Fenwick tree counts them per 64-slot word, so a reuse
//! costs one word-tree prefix walk plus one masked popcount, then one
//! bit flip and one word-tree update to retire the old slot; a cold
//! line takes a fresh slot and touches no tree at all. Slots are
//! recycled by periodic compaction, which needs no sort: a live slot's
//! new rank is its slot less the retired slots before it. Capacity
//! stays at least eight times the live lines, so compactions are rare
//! and the amortised cost stays `O(log n)` per access.
//!
//! [`ReuseHistograms`] folds every power-of-two line granularity the
//! design grid will ever ask about in one pass of the trace, as a list
//! of independent [`GranularityFold`] parts: each owns one
//! [`ReuseDistCounter`], its instruction count and its warm-up
//! snapshot. Parts read [`RefBatch`]es, not instructions: a
//! [`RefCutter`] extracts a run's data addresses once, with a store bit
//! per reference (which these parts ignore and `StackDistSweep` reads),
//! the run's instruction count and the reference index where the
//! warm-up ends, and every part folds the same batch. `process_slice`
//! cuts a slice into batches and walks each through the parts in turn,
//! and `process` folds its one reference without a batch; a chunked
//! fold can instead run the parts side by side on separate threads,
//! since they share nothing. The fold is invariant to how the stream is
//! cut (`process_slice` over any partition, and batches of any length,
//! are bit-identical to per-instruction feeding) and mirrors
//! `StackDistSweep`'s warm-up snapshot contract exactly: totals are
//! frozen when the instruction count reaches `warmup`, the tree state
//! (cache contents) survives, and the post-warm-up histogram is the
//! difference — so the analytic backend built on top agrees with the
//! simulated sweep on warmed statistics.
//!
//! The line map, the slot timeline and the warm-up snapshot matter only
//! while folding, and they grow with the distinct lines seen. The
//! analytic backend reads only each granularity's post-warm-up
//! histogram and residue counts, so [`ReuseHistograms::finish`] keeps
//! just those, plus `cold` and `total`: a finished 8–128 B fold at the
//! 16 384-bucket cap holds 1.31 MB, however long its trace.

use crate::instr::Instr;

/// Open-addressing `line → slot` map with a multiply-xorshift hash and
/// linear probing. The standard library map's SipHash dominates the
/// counter's inner loop; lines are already well-mixed integers, so a
/// single multiply is enough. Keys are stored `+1` so `0` can mark an
/// empty bucket.
#[derive(Debug, Clone)]
struct LineMap {
    keys: Vec<u64>,
    vals: Vec<u32>,
    len: usize,
}

impl LineMap {
    const SEED: u64 = 0x9E37_79B9_7F4A_7C15;

    fn new() -> Self {
        LineMap {
            keys: vec![0; 1024],
            vals: vec![0; 1024],
            len: 0,
        }
    }

    /// A map of no buckets and no allocation: what a finished counter
    /// keeps.
    fn empty() -> Self {
        LineMap {
            keys: Vec::new(),
            vals: Vec::new(),
            len: 0,
        }
    }

    #[inline]
    fn bucket(&self, key: u64) -> usize {
        let h = key.wrapping_mul(Self::SEED);
        ((h ^ (h >> 29)) as usize) & (self.keys.len() - 1)
    }

    /// Points `line` at `slot` and returns the slot it pointed at
    /// before, or `None` if `line` was unseen — one probe for the
    /// lookup and the update.
    #[inline]
    fn replace(&mut self, line: u64, slot: u32) -> Option<u32> {
        let key = line + 1;
        let mask = self.keys.len() - 1;
        let mut i = self.bucket(key);
        loop {
            let k = self.keys[i];
            if k == key {
                return Some(std::mem::replace(&mut self.vals[i], slot));
            }
            if k == 0 {
                self.keys[i] = key;
                self.vals[i] = slot;
                self.len += 1;
                if self.len * 4 > self.keys.len() * 3 {
                    self.grow();
                }
                return None;
            }
            i = (i + 1) & mask;
        }
    }

    fn grow(&mut self) {
        let old_keys = std::mem::replace(&mut self.keys, vec![0; 0]);
        let old_vals = std::mem::take(&mut self.vals);
        self.keys = vec![0; old_keys.len() * 2];
        self.vals = vec![0; old_keys.len() * 2];
        self.len = 0;
        for (k, v) in old_keys.into_iter().zip(old_vals) {
            if k != 0 {
                self.replace(k - 1, v);
            }
        }
    }

    /// Rewrites every stored slot through `f` (used by compaction).
    fn remap(&mut self, f: impl Fn(u32) -> u32) {
        for (k, v) in self.keys.iter().zip(self.vals.iter_mut()) {
            if *k != 0 {
                *v = f(*v);
            }
        }
    }

    fn bytes(&self) -> usize {
        self.keys.len() * (std::mem::size_of::<u64>() + std::mem::size_of::<u32>())
    }
}

/// The slot timeline: which assigned slots have been retired.
///
/// Slots are assigned in order; an assigned slot is *live* while it holds
/// some line's most recent access and *retired* once that line moves on
/// to a fresher slot. Slot `s` is bit `s % 64` of `retired[s / 64]`;
/// `words` is a Fenwick tree, 1-indexed, over the retired count of each
/// bitmap word. Capacity is `64 × retired.len()` slots.
#[derive(Debug, Clone)]
struct Timeline {
    retired: Vec<u64>,
    words: Vec<u32>,
}

impl Timeline {
    /// A timeline of `cap` slots (a multiple of 64), none retired.
    fn new(cap: usize) -> Self {
        let mut t = Timeline {
            retired: Vec::new(),
            words: Vec::new(),
        };
        t.reset(cap);
        t
    }

    /// A timeline of no slots and no allocation: what a finished
    /// counter keeps.
    fn empty() -> Self {
        Timeline {
            retired: Vec::new(),
            words: Vec::new(),
        }
    }

    fn cap(&self) -> usize {
        self.retired.len() * 64
    }

    /// Resizes to `cap` slots with none retired.
    fn reset(&mut self, cap: usize) {
        self.retired.clear();
        self.retired.resize(cap / 64, 0);
        self.words.clear();
        self.words.resize(cap / 64 + 1, 0);
    }

    /// Retired slots in `0..=slot`.
    #[inline]
    fn retired_through(&self, slot: usize) -> usize {
        let word = slot / 64;
        let mut i = word;
        let mut sum = 0u32;
        while i > 0 {
            sum += self.words[i];
            i -= i & i.wrapping_neg();
        }
        let below = self.retired[word] & (u64::MAX >> (63 - slot % 64));
        sum as usize + below.count_ones() as usize
    }

    /// Retires the live `slot`.
    #[inline]
    fn retire(&mut self, slot: usize) {
        self.retired[slot / 64] |= 1 << (slot % 64);
        let mut i = slot / 64 + 1;
        while i < self.words.len() {
            self.words[i] += 1;
            i += i & i.wrapping_neg();
        }
    }

    /// Maps each live slot to its rank among the live slots — its slot
    /// after a compaction: the slot minus the retired slots before it.
    fn ranks(&self) -> impl Fn(u32) -> u32 + '_ {
        let before: Vec<u32> = self
            .retired
            .iter()
            .scan(0u32, |seen, w| {
                let base = *seen;
                *seen += w.count_ones();
                Some(base)
            })
            .collect();
        move |slot| {
            let (word, bit) = (slot as usize / 64, slot % 64);
            slot - before[word] - (self.retired[word] & ((1u64 << bit) - 1)).count_ones()
        }
    }

    fn bytes(&self) -> usize {
        self.retired.len() * std::mem::size_of::<u64>()
            + self.words.len() * std::mem::size_of::<u32>()
    }
}

/// An exact single-granularity Mattson reuse-distance counter,
/// `O(log distinct-lines)` amortised per reference.
///
/// Feed it line numbers in trace order via [`ReuseDistCounter::access`];
/// the histogram and cold-miss counters are those of a naive unbounded
/// LRU stack, bit for bit.
///
/// Slots and retired counts are `u32`, so the timeline holds at most
/// 2^31 slots; with capacity kept at eight slots per live line, one
/// counter handles up to 2^28 distinct lines and panics beyond that.
#[derive(Debug, Clone)]
pub struct ReuseDistCounter {
    /// `hist[d]` = references at distance exactly `d`; last bucket open.
    hist: Vec<u64>,
    cold: u64,
    total: u64,
    /// Distinct-line footprint over `line mod 2^SET_CLASS_LOG2` — the
    /// bit-selection set-index residues, each line counted once (on its
    /// cold first touch). Power-of-two strides and aligned arrays pile
    /// footprint onto a subset of residue classes, which is exactly the
    /// aliasing an aggregate distance histogram cannot see; the
    /// analytic backend turns this concentration into an *effective*
    /// set count. Footprint (not access) mass is the right statistic:
    /// conflicts are between resident lines, and weighting by access
    /// count lets a few hot lines masquerade as heavy aliasing.
    set_mass: Vec<u64>,
    map: LineMap,
    /// Assigned slots that no line's most recent access holds any more.
    timeline: Timeline,
    /// Next unassigned slot; slots `0..next_slot` have been issued.
    next_slot: usize,
    /// Live (assigned, unretired) slots — equals the number of distinct
    /// lines seen.
    live: usize,
    /// Most recently accessed line (`u64::MAX` before the first access)
    /// — repeated touches of the top-of-stack line are distance 0 and
    /// skip the timeline entirely.
    last_line: u64,
}

/// Residue classes tracked for set-utilization statistics: enough for
/// every set count up to 2^14 (a 4 MB direct-mapped cache of 256-byte
/// lines); coarser moduli fold down by halving.
pub const SET_CLASS_LOG2: u32 = 14;

impl ReuseDistCounter {
    const INITIAL_SLOTS: usize = 1024;
    /// Compaction keeps at least this many slots per live line.
    const SLACK: usize = 8;
    /// Slots and retired counts are `u32`.
    const MAX_SLOTS: usize = 1 << 31;

    /// A counter whose histogram caps at `max_distance` (larger
    /// distances land in the final, open bucket).
    ///
    /// # Panics
    ///
    /// Panics if `max_distance` is zero.
    pub fn new(max_distance: usize) -> Self {
        assert!(max_distance > 0, "need at least one distance bucket");
        ReuseDistCounter {
            hist: vec![0; max_distance + 1],
            cold: 0,
            total: 0,
            set_mass: vec![0; 1 << SET_CLASS_LOG2],
            map: LineMap::new(),
            timeline: Timeline::new(Self::INITIAL_SLOTS),
            next_slot: 0,
            live: 0,
            last_line: u64::MAX,
        }
    }

    /// Records one reference to `line`, updating the histogram.
    ///
    /// # Panics
    ///
    /// Panics if the counter would need more than 2^31 slots (more than
    /// 2^28 distinct lines).
    #[inline]
    pub fn access(&mut self, line: u64) {
        self.total += 1;
        if line == self.last_line {
            // Top-of-stack touch: distance 0 by definition, and the
            // line's slot is already the most recent one, so the
            // timeline needs no update.
            self.hist[0] += 1;
            return;
        }
        self.last_line = line;
        // Allocate before the lookup: compaction (inside `alloc_slot`)
        // ranks the live slots through the map, and it may remap the
        // line's slot.
        let fresh = self.alloc_slot();
        match self.map.replace(line, fresh as u32) {
            Some(slot) => {
                // Every live slot after the line's previous one holds a
                // line touched since — the reuse distance. Slots are
                // assigned in order, so the live slots through `slot` are
                // the assigned ones less the retired ones.
                let slot = slot as usize;
                let live_through = slot + 1 - self.timeline.retired_through(slot);
                let distance = self.live - live_through;
                let last = self.hist.len() - 1;
                self.hist[distance.min(last)] += 1;
                self.timeline.retire(slot);
            }
            None => {
                // A cold line only takes the fresh slot, which is live
                // as assigned: the timeline does not change.
                self.cold += 1;
                self.set_mass[(line & ((1 << SET_CLASS_LOG2) - 1)) as usize] += 1;
                self.live += 1;
            }
        }
    }

    #[inline]
    fn alloc_slot(&mut self) -> usize {
        if self.next_slot == self.timeline.cap() {
            self.compact();
        }
        let slot = self.next_slot;
        self.next_slot += 1;
        slot
    }

    /// Reassigns the `live` slots to `0..live` (preserving order) and
    /// clears the timeline's retirements. Runs when the timeline is
    /// exhausted; capacity doubles until it holds `SLACK` slots per
    /// live line, so at least `7/8` of the slots are free after a
    /// compaction and the amortised cost stays `O(log n)` per access.
    fn compact(&mut self) {
        let mut cap = self.timeline.cap();
        while self.live * Self::SLACK > cap {
            cap *= 2;
        }
        assert!(
            cap <= Self::MAX_SLOTS,
            "reuse timeline needs {cap} slots, past the 2^31 that u32 slots and retired \
             counts allow ({} distinct lines; at most 2^28 fit)",
            self.live
        );
        self.map.remap(self.timeline.ranks());
        self.timeline.reset(cap);
        self.next_slot = self.live;
    }

    /// Total references counted.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Cold (first-touch) references.
    pub fn cold(&self) -> u64 {
        self.cold
    }

    /// Distinct-line footprint per `line mod 2^SET_CLASS_LOG2` residue
    /// class (each line counted once, at its first touch).
    pub fn set_mass(&self) -> &[u64] {
        &self.set_mass
    }

    /// Distinct lines seen.
    pub fn distinct_lines(&self) -> usize {
        self.live
    }

    /// The histogram (`[d]` = references at distance `d`, last bucket
    /// open).
    pub fn histogram(&self) -> &[u64] {
        &self.hist
    }

    /// Approximate heap footprint, for cache-budget accounting: the
    /// histogram, the residue counts, the line map, the bitmap and the
    /// word tree.
    pub fn bytes(&self) -> usize {
        (self.hist.len() + self.set_mass.len()) * std::mem::size_of::<u64>()
            + self.map.bytes()
            + self.timeline.bytes()
    }
}

/// Post-warm-up totals of one granularity, frozen Mattson state.
#[derive(Debug, Clone, PartialEq, Eq)]
struct HistTotals {
    hist: Vec<u64>,
    cold: u64,
    total: u64,
}

/// A run of a trace's data references, extracted once and shared by
/// every fold of a pass: the byte addresses in trace order, one store
/// bit per reference, the instructions the run spans, and where in it
/// the warm-up instruction count is reached.
///
/// A [`RefCutter`] fills it; the buffers are allocated at full size once
/// and refilled in place, so a fold that recycles its batches never
/// regrows one. A full batch holds 8 bytes of address per reference and
/// one store bit, in `u64` words beside the addresses: 520 KB at
/// [`RefBatch::REFS`] references. [`GranularityFold`]s read the
/// addresses only; `StackDistSweep`s read the store bits too.
#[derive(Debug)]
pub struct RefBatch {
    addrs: Vec<u64>,
    /// Reference `i` is a store iff bit `i % 64` of `stores[i / 64]` is
    /// set.
    stores: Vec<u64>,
    /// References the batch holds at most.
    cap: usize,
    /// Instructions the run spans, references or not.
    instrs: u64,
    /// References before the warm-up boundary, when the run reaches it.
    warm_at: Option<usize>,
    /// The warm-up the batch was cut for.
    warmup: u64,
}

impl RefBatch {
    /// References per production batch: 64 Ki addresses, 512 KB, plus
    /// 8 KB of store bits.
    pub const REFS: usize = 1 << 16;

    /// An empty batch of at most `cap` references.
    ///
    /// # Panics
    ///
    /// Panics if `cap` is zero.
    pub fn with_capacity(cap: usize) -> Self {
        assert!(cap > 0, "a batch holds at least one reference");
        RefBatch {
            addrs: Vec::with_capacity(cap),
            stores: Vec::with_capacity(cap.div_ceil(64)),
            cap,
            instrs: 0,
            warm_at: None,
            warmup: 0,
        }
    }

    /// Empties the batch, keeping its buffers.
    pub fn clear(&mut self) {
        self.addrs.clear();
        self.stores.clear();
        self.instrs = 0;
        self.warm_at = None;
    }

    /// Instructions the batch spans.
    pub fn instructions(&self) -> u64 {
        self.instrs
    }

    /// The data addresses, in trace order.
    pub fn addrs(&self) -> &[u64] {
        &self.addrs
    }

    /// The store bits: reference `i` is a store iff bit `i % 64` of
    /// word `i / 64` is set.
    pub fn stores(&self) -> &[u64] {
        &self.stores
    }

    /// References before the warm-up boundary, when the batch reaches
    /// it: a fold snapshots its totals after that many references.
    pub fn warm_at(&self) -> Option<usize> {
        self.warm_at
    }

    /// The warm-up the batch was cut for.
    pub fn warmup(&self) -> u64 {
        self.warmup
    }
}

/// Cuts an instruction stream into [`RefBatch`]es. It tracks the stream
/// position, so each batch records where the warm-up count falls in it.
#[derive(Debug)]
pub struct RefCutter {
    warmup: u64,
    /// Instructions cut so far.
    seen: u64,
}

impl RefCutter {
    /// A cutter for folds warmed up over `warmup` instructions,
    /// `seen` instructions into the stream.
    pub fn new(warmup: u64, seen: u64) -> Self {
        RefCutter { warmup, seen }
    }

    /// Appends the data references at the front of `instrs` to `batch`
    /// and returns how many instructions it took: all of them, unless
    /// the batch filled up, in which case it ends just before the first
    /// reference that does not fit.
    pub fn fill(&mut self, batch: &mut RefBatch, instrs: &[Instr]) -> usize {
        batch.warmup = self.warmup;
        for (taken, instr) in instrs.iter().enumerate() {
            if let Some(m) = instr.mem {
                let i = batch.addrs.len();
                if i == batch.cap {
                    return taken;
                }
                if i.is_multiple_of(64) {
                    batch.stores.push(0);
                }
                batch.stores[i / 64] |= u64::from(m.op.is_store()) << (i % 64);
                batch.addrs.push(m.addr.raw());
            }
            batch.instrs += 1;
            self.seen += 1;
            if self.seen == self.warmup {
                batch.warm_at = Some(batch.addrs.len());
            }
        }
        instrs.len()
    }

    /// Cuts all of `instrs` into batches, through one buffer of at most
    /// [`RefBatch::REFS`] references, and hands each to `fold` in order:
    /// the serial form of a batched fold.
    pub fn fold_slice(&mut self, instrs: &[Instr], mut fold: impl FnMut(&RefBatch)) {
        let mut batch = RefBatch::with_capacity(instrs.len().clamp(1, RefBatch::REFS));
        let mut rest = instrs;
        while !rest.is_empty() {
            batch.clear();
            rest = &rest[self.fill(&mut batch, rest)..];
            fold(&batch);
        }
    }
}

/// One line granularity of a [`ReuseHistograms`] fold: a
/// [`ReuseDistCounter`] over `address >> line_shift`, with its own
/// instruction count and its own warm-up snapshot.
///
/// Granularities share no state, so a chunked driver may fold each
/// part on its own thread (`bench::stream::fold_batches` hands every
/// part the same [`RefBatch`]es): fed the same batches, or any other
/// cut of the same stream, a part ends in exactly the state
/// [`ReuseHistograms::process_slice`] leaves it in.
#[derive(Debug, Clone)]
pub struct GranularityFold {
    line_shift: u32,
    /// Once finished, the counter holds the post-warm-up totals and no
    /// line map or slot timeline.
    counter: ReuseDistCounter,
    warm_base: Option<HistTotals>,
    instrs: u64,
    warmup: u64,
    /// [`ReuseHistograms::finish`] has run; folding now panics.
    finished: bool,
}

impl GranularityFold {
    fn new(line_shift: u32, max_distance: usize, warmup: u64) -> Self {
        GranularityFold {
            line_shift,
            counter: ReuseDistCounter::new(max_distance),
            warm_base: None,
            instrs: 0,
            warmup,
            finished: false,
        }
    }

    fn line_bytes(&self) -> u64 {
        1 << self.line_shift
    }

    /// Folds the next batch of the stream. Any cut of the stream gives
    /// the same state: the snapshot is taken at the batch's warm-up
    /// mark, after the references of the instructions before it.
    ///
    /// # Panics
    ///
    /// Panics if the batch was cut for a different warm-up, or if the
    /// fold is finished.
    pub fn fold(&mut self, batch: &RefBatch) {
        self.check_unfinished();
        assert_eq!(
            batch.warmup, self.warmup,
            "reference batch cut for another warm-up"
        );
        let (head, tail) = batch.addrs.split_at(batch.warm_at.unwrap_or(0));
        self.access(head);
        if batch.warm_at.is_some() {
            self.snapshot();
        }
        self.access(tail);
        self.instrs += batch.instrs;
    }

    /// Folds one instruction, the batch-free form of [`Self::fold`].
    fn step(&mut self, instr: &Instr) {
        self.check_unfinished();
        if let Some(m) = instr.mem {
            self.counter.access(m.addr.raw() >> self.line_shift);
        }
        self.instrs += 1;
        if self.instrs == self.warmup {
            self.snapshot();
        }
    }

    /// Freezes the totals: the warm-up ends here.
    fn snapshot(&mut self) {
        self.warm_base = Some(HistTotals {
            hist: self.counter.hist.clone(),
            cold: self.counter.cold,
            total: self.counter.total,
        });
    }

    fn access(&mut self, addrs: &[u64]) {
        let shift = self.line_shift;
        for &addr in addrs {
            self.counter.access(addr >> shift);
        }
    }

    fn check_unfinished(&self) {
        assert!(!self.finished, "folding into a finished reuse histogram");
    }

    /// The post-warm-up totals: the warm-up snapshot (when one was
    /// taken) subtracted from the counter's.
    fn post_warmup(&self) -> HistTotals {
        let c = &self.counter;
        match &self.warm_base {
            Some(base) => HistTotals {
                hist: c
                    .hist
                    .iter()
                    .zip(&base.hist)
                    .map(|(now, then)| now - then)
                    .collect(),
                cold: c.cold - base.cold,
                total: c.total - base.total,
            },
            None => HistTotals {
                hist: c.hist.clone(),
                cold: c.cold,
                total: c.total,
            },
        }
    }

    /// Keeps only what [`Self::profile`] and the residue counts read:
    /// the counter's totals become the post-warm-up ones, and the line
    /// map, the slot timeline and the warm-up snapshot go.
    fn finish(&mut self) {
        if self.finished {
            return;
        }
        let HistTotals { hist, cold, total } = self.post_warmup();
        let c = &mut self.counter;
        (c.hist, c.cold, c.total) = (hist, cold, total);
        c.map = LineMap::empty();
        c.timeline = Timeline::empty();
        self.warm_base = None;
        self.finished = true;
    }

    /// The post-warm-up reuse profile.
    fn profile(&self) -> crate::reuse::ReuseProfile {
        let HistTotals { hist, cold, total } = self.post_warmup();
        crate::reuse::ReuseProfile::from_parts(self.line_bytes(), hist, cold, total)
    }

    /// Approximate heap footprint: the counter plus the warm-up
    /// snapshot's histogram; exactly the histogram and the residue
    /// counts once finished.
    fn bytes(&self) -> usize {
        let base = self.warm_base.as_ref().map_or(0, |b| b.hist.len());
        self.counter.bytes() + base * std::mem::size_of::<u64>()
    }
}

/// One streaming pass, every power-of-two line granularity.
///
/// A [`bench`-style](crate::chunk) chunk fold: feed instructions via
/// [`ReuseHistograms::process_slice`] (any chunking — the result is
/// bit-identical), or hand the per-granularity
/// [`ReuseHistograms::parts_mut`] to `bench::stream::fold_batches`,
/// which folds them apart over shared [`RefBatch`]es, and read
/// per-granularity [`crate::ReuseProfile`]s back with
/// [`ReuseHistograms::profile`]. Warm-up follows the `StackDistSweep`
/// contract: the histogram snapshot is taken the moment the instruction
/// count reaches `warmup`, tree state survives, and
/// [`ReuseHistograms::profile`] reports post-warm-up counts.
///
/// [`ReuseHistograms::finish`] ends the fold: every part then keeps
/// only its post-warm-up histogram, `cold`, `total` and residue counts,
/// `(max_distance + 1 + 2^SET_CLASS_LOG2) × 8` bytes whatever the
/// trace's length, and folding into it panics. Every reader answers
/// as before; a memo holds finished folds.
#[derive(Debug, Clone)]
pub struct ReuseHistograms {
    /// One fold per granularity, ascending line size; never empty.
    parts: Vec<GranularityFold>,
}

impl ReuseHistograms {
    /// Bookkeeping [`ReuseHistograms::bytes`] charges once per fold on
    /// top of its parts: a fixed figure rather than `size_of::<Self>()`,
    /// so trace-store budgets and `/stats` do not move with the
    /// struct's layout.
    pub const OVERHEAD_BYTES: usize = 80;

    /// Counters for every power-of-two line size in
    /// `min_line_bytes..=max_line_bytes`, each with `max_distance`
    /// histogram buckets, statistics frozen at `warmup` instructions.
    ///
    /// # Panics
    ///
    /// Panics if the line bounds are not powers of two, are out of
    /// order, or `max_distance` is zero.
    pub fn new(min_line_bytes: u64, max_line_bytes: u64, max_distance: usize, warmup: u64) -> Self {
        assert!(
            min_line_bytes.is_power_of_two() && max_line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        assert!(
            min_line_bytes <= max_line_bytes,
            "line size bounds out of order"
        );
        let min_shift = min_line_bytes.trailing_zeros();
        let max_shift = max_line_bytes.trailing_zeros();
        ReuseHistograms {
            parts: (min_shift..=max_shift)
                .map(|shift| GranularityFold::new(shift, max_distance, warmup))
                .collect(),
        }
    }

    /// Feeds one instruction (the scalar mirror of
    /// [`ReuseHistograms::process_slice`]): every granularity folds its
    /// one reference directly, with no batch.
    pub fn process(&mut self, instr: Instr) {
        for part in &mut self.parts {
            part.step(&instr);
        }
    }

    /// Feeds a block of instructions, bit-identical to per-instruction
    /// [`ReuseHistograms::process`] calls (including a warm-up boundary
    /// inside the slice): the slice is cut into [`RefBatch`]es through
    /// one buffer, and each batch is folded by every granularity in
    /// turn.
    pub fn process_slice(&mut self, instrs: &[Instr]) {
        let parts = &mut self.parts;
        RefCutter::new(parts[0].warmup, parts[0].instrs).fold_slice(instrs, |batch| {
            for part in parts.iter_mut() {
                part.fold(batch);
            }
        });
    }

    /// The per-granularity folds, ascending line size. A driver that
    /// feeds every part the batches of one [`RefCutter`] over the
    /// stream leaves the fold exactly as
    /// [`ReuseHistograms::process_slice`] would.
    pub fn parts_mut(&mut self) -> &mut [GranularityFold] {
        &mut self.parts
    }

    /// Ends the fold, keeping only what the readers read: each part's
    /// line map, slot timeline and warm-up snapshot are dropped.
    /// [`Self::profile`], [`Self::set_mass`] and the other readers
    /// answer exactly as before; folding afterwards panics. Finishing
    /// twice is a no-op.
    pub fn finish(&mut self) {
        for part in &mut self.parts {
            part.finish();
        }
    }

    /// Whether [`Self::finish`] has run.
    pub fn is_finished(&self) -> bool {
        self.parts[0].finished
    }

    /// The part folding `line_bytes`, or `None` for a granularity
    /// outside the folded range.
    fn part(&self, line_bytes: u64) -> Option<&GranularityFold> {
        if !line_bytes.is_power_of_two() {
            return None;
        }
        let idx = line_bytes
            .trailing_zeros()
            .checked_sub(self.parts[0].line_shift)?;
        self.parts.get(idx as usize)
    }

    /// Instructions folded so far.
    pub fn instructions(&self) -> u64 {
        self.parts[0].instrs
    }

    /// The configured warm-up length.
    pub fn warmup(&self) -> u64 {
        self.parts[0].warmup
    }

    /// Histogram bucket cap shared by every granularity.
    pub fn max_distance(&self) -> usize {
        self.parts[0].counter.hist.len() - 1
    }

    /// The line granularities folded, ascending.
    pub fn line_sizes(&self) -> Vec<u64> {
        self.parts.iter().map(GranularityFold::line_bytes).collect()
    }

    /// The post-warm-up reuse profile at `line_bytes`, or `None` if the
    /// granularity is outside the folded range. Mirrors
    /// `StackDistSweep::stats`: the warm-up snapshot (when one was
    /// taken) is subtracted from the totals.
    pub fn profile(&self, line_bytes: u64) -> Option<crate::reuse::ReuseProfile> {
        Some(self.part(line_bytes)?.profile())
    }

    /// The distinct-line footprint over set-index residues
    /// (`line mod 2^SET_CLASS_LOG2`) at `line_bytes`, or `None` for an
    /// unfolded granularity. Deliberately *not* warm-up-diffed: lines
    /// first touched during warm-up still occupy sets afterwards, so
    /// the set-conflict model wants the whole footprint.
    pub fn set_mass(&self, line_bytes: u64) -> Option<&[u64]> {
        Some(self.part(line_bytes)?.counter.set_mass())
    }

    /// Approximate heap footprint across all granularities, for the
    /// trace-store byte budget: once finished, exactly the kept arrays
    /// plus [`Self::OVERHEAD_BYTES`].
    pub fn bytes(&self) -> usize {
        let parts: usize = self.parts.iter().map(GranularityFold::bytes).sum();
        parts + Self::OVERHEAD_BYTES
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instr::MemRef;
    use crate::reuse::ReuseProfile;
    use crate::workload::builtin;

    fn loads(addrs: &[u64]) -> Vec<Instr> {
        addrs
            .iter()
            .enumerate()
            .map(|(i, &a)| Instr::mem((i as u64) * 4, MemRef::load(a, 4)))
            .collect()
    }

    #[test]
    fn counter_matches_hand_checked_stack() {
        // Lines at 32 B: A B A C B A → cold 3, distances 1, 2, 2.
        let mut c = ReuseDistCounter::new(8);
        for addr in [0x00u64, 0x20, 0x00, 0x40, 0x20, 0x00] {
            c.access(addr >> 5);
        }
        assert_eq!(c.cold(), 3);
        assert_eq!(c.histogram()[1], 1);
        assert_eq!(c.histogram()[2], 2);
        assert_eq!(c.total(), 6);
        assert_eq!(c.distinct_lines(), 3);
    }

    /// A naive unbounded LRU stack: the reuse distance of a reference
    /// is the depth of its line in the stack. Returns the histogram
    /// (capped at `cap`, last bucket open) and the cold count — the
    /// independent oracle for the counter (`ReuseProfile::from_trace`
    /// wraps the counter, so it cannot be one).
    fn naive_stack(lines: impl IntoIterator<Item = u64>, cap: usize) -> (Vec<u64>, u64) {
        let mut stack: Vec<u64> = Vec::new();
        let mut hist = vec![0u64; cap + 1];
        let mut cold = 0u64;
        for l in lines {
            match stack.iter().position(|&x| x == l) {
                Some(pos) => {
                    hist[pos.min(cap)] += 1;
                    stack.remove(pos);
                }
                None => cold += 1,
            }
            stack.insert(0, l);
        }
        (hist, cold)
    }

    /// The data-reference lines of `trace` at `line_bytes`.
    fn lines(trace: &[Instr], line_bytes: u64) -> Vec<u64> {
        trace
            .iter()
            .filter_map(|i| i.mem)
            .map(|m| m.addr.line(line_bytes).raw())
            .collect()
    }

    #[test]
    fn counter_survives_compaction() {
        // Enough slot churn to force several compactions and growth
        // past the initial 1024 slots, against a naive stack.
        let lines: Vec<u64> = (0..40_000u64).map(|i| (i * 2654435761) % 4096).collect();
        let mut c = ReuseDistCounter::new(512);
        for &l in &lines {
            c.access(l);
        }
        let (hist, cold) = naive_stack(lines.iter().copied(), 512);
        assert_eq!(c.histogram(), &hist[..]);
        assert_eq!(c.cold(), cold);
        assert_eq!(c.total(), lines.len() as u64);
        assert!(c.timeline.cap() > ReuseDistCounter::INITIAL_SLOTS);
    }

    #[test]
    fn compaction_during_a_reuse_access_keeps_distances_exact() {
        // nasa7's strided doubles force compactions while reuses are in
        // flight. Regression: compaction once rebuilt the tree from a
        // map entry whose mark had already been retired, resurrecting
        // the stale mark and silently shifting every later distance
        // down by one.
        let trace: Vec<Instr> = builtin("nasa7").unwrap().compile(7).take(20_000).collect();
        let cap = 1 << 14;
        let mut fold = ReuseHistograms::new(8, 128, cap, 0);
        fold.process_slice(&trace);
        for line in [8u64, 16, 64] {
            let (hist, cold) = naive_stack(lines(&trace, line), cap);
            let p = fold.profile(line).unwrap();
            assert_eq!(p.histogram(), &hist[..], "line={line}");
            assert_eq!(p.cold(), cold, "line={line}");
        }
    }

    #[test]
    fn fold_matches_per_granularity_naive_stacks() {
        let trace: Vec<Instr> = builtin("ear").unwrap().compile(99).take(8_000).collect();
        let mut fold = ReuseHistograms::new(8, 128, 256, 0);
        fold.process_slice(&trace);
        for line in [8u64, 16, 32, 64, 128] {
            let got = fold.profile(line).expect("granularity folded");
            let lines = lines(&trace, line);
            let total = lines.len() as u64;
            let (hist, cold) = naive_stack(lines, 256);
            let want = ReuseProfile::from_parts(line, hist, cold, total);
            assert_eq!(got, want, "line={line}");
        }
        assert_eq!(fold.profile(4), None);
        assert_eq!(fold.profile(256), None);
        assert_eq!(fold.profile(48), None, "non-power-of-two");
        assert_eq!(fold.set_mass(256), None);
    }

    #[test]
    fn chunked_fold_is_bit_identical() {
        let trace: Vec<Instr> = builtin("wave5").unwrap().compile(3).take(6_000).collect();
        let mut whole = ReuseHistograms::new(16, 64, 128, 2_000);
        whole.process_slice(&trace);
        for chunk_len in [1usize, 7, 333, 1999, 2000, 2001, 6_000] {
            let mut chunked = ReuseHistograms::new(16, 64, 128, 2_000);
            for chunk in trace.chunks(chunk_len) {
                chunked.process_slice(chunk);
            }
            for line in [16u64, 32, 64] {
                assert_eq!(
                    chunked.profile(line),
                    whole.profile(line),
                    "chunk_len={chunk_len} line={line}"
                );
            }
        }
        // Scalar feeding is the same fold too.
        let mut scalar = ReuseHistograms::new(16, 64, 128, 2_000);
        for &i in &trace {
            scalar.process(i);
        }
        assert_eq!(scalar.profile(32), whole.profile(32));
    }

    #[test]
    fn batches_end_before_the_first_reference_that_does_not_fit() {
        // References at the even instructions, 64 B apart.
        let trace: Vec<Instr> = (0..10u64)
            .map(|i| match i % 2 {
                0 => Instr::mem(i * 4, MemRef::load(i * 32, 4)),
                _ => Instr::plain(i * 4),
            })
            .collect();
        let mut cut = RefCutter::new(6, 0);
        let mut batch = RefBatch::with_capacity(3);
        // Three references, then the plain instruction 5; instruction 6
        // holds the fourth reference.
        assert_eq!(cut.fill(&mut batch, &trace), 6);
        assert_eq!(batch.addrs, [0, 64, 128]);
        assert_eq!(batch.instructions(), 6);
        assert_eq!(batch.warm_at, Some(3), "warm-up after the last reference");
        batch.clear();
        assert_eq!(cut.fill(&mut batch, &trace[6..]), 4);
        assert_eq!(batch.addrs, [192, 256]);
        assert_eq!((batch.instructions(), batch.warm_at), (4, None));
        assert_eq!(batch.addrs.capacity(), 3, "refilled in place");
    }

    #[test]
    fn store_bits_follow_their_references() {
        // 150 references across three store-bit words, a store at every
        // third, with plain instructions between some of them.
        let trace: Vec<Instr> = (0..200u64)
            .map(|i| match (i % 4, i % 3) {
                (3, _) => Instr::plain(i * 4),
                (_, 0) => Instr::mem(i * 4, MemRef::store(i * 8, 4)),
                _ => Instr::mem(i * 4, MemRef::load(i * 8, 4)),
            })
            .collect();
        let mut batch = RefBatch::with_capacity(200);
        for _ in 0..2 {
            // The second fill reuses the cleared buffers.
            batch.clear();
            assert_eq!(RefCutter::new(0, 0).fill(&mut batch, &trace), 200);
            let refs: Vec<bool> = trace
                .iter()
                .filter_map(|i| i.mem)
                .map(|m| m.op.is_store())
                .collect();
            assert_eq!(batch.addrs().len(), refs.len());
            assert_eq!(batch.stores().len(), refs.len().div_ceil(64));
            for (r, &store) in refs.iter().enumerate() {
                assert_eq!(
                    batch.stores()[r / 64] >> (r % 64) & 1 == 1,
                    store,
                    "ref {r}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "reference batch cut for another warm-up")]
    fn a_batch_cut_for_another_warm_up_is_refused() {
        let mut batch = RefBatch::with_capacity(4);
        RefCutter::new(5, 0).fill(&mut batch, &loads(&[0x00, 0x20]));
        ReuseHistograms::new(32, 32, 8, 6).parts_mut()[0].fold(&batch);
    }

    #[test]
    fn warmup_freezes_totals_but_not_tree_state() {
        // One line touched only during warm-up, re-touched after: the
        // post-warm-up profile must see a *reuse* (warm tree state), not
        // a cold miss, and count only post-warm-up references.
        let trace = loads(&[0x00, 0x20, 0x40, 0x00]);
        let mut fold = ReuseHistograms::new(32, 32, 8, 3);
        fold.process_slice(&trace);
        let p = fold.profile(32).unwrap();
        assert_eq!(p.total(), 1);
        assert_eq!(p.cold(), 0, "line A is warm, not cold");
        assert_eq!(p.histogram()[2], 1, "B and C touched since A");
    }

    #[test]
    fn warmup_longer_than_trace_counts_everything() {
        let trace = loads(&[0x00, 0x20, 0x00]);
        let mut fold = ReuseHistograms::new(32, 32, 8, 1_000);
        fold.process_slice(&trace);
        let p = fold.profile(32).unwrap();
        assert_eq!(p.total(), 3);
        assert_eq!(p.cold(), 2);
    }

    #[test]
    fn distances_beyond_the_cap_land_in_the_open_bucket() {
        // 8 distinct lines cycled twice at cap 4: wrap distances are 7,
        // beyond the cap.
        let addrs: Vec<u64> = (0..16u64).map(|i| (i % 8) * 32).collect();
        let mut c = ReuseDistCounter::new(4);
        for &a in &addrs {
            c.access(a >> 5);
        }
        assert_eq!(c.cold(), 8);
        assert_eq!(c.histogram()[4], 8, "open bucket collects the tail");
    }

    #[test]
    #[should_panic(expected = "past the 2^31 that u32 slots and retired counts allow")]
    fn timeline_growth_past_the_u32_slot_domain_panics() {
        // One live line more than 2^28 needs 2^32 slots at eight per
        // line; the map stays empty, so the check runs without the
        // memory such a footprint would take.
        let mut c = ReuseDistCounter::new(8);
        c.live = (1 << 28) + 1;
        c.compact();
    }

    #[test]
    fn bytes_accounts_for_growth() {
        let mut fold = ReuseHistograms::new(8, 64, 1024, 0);
        let before = fold.bytes();
        let trace: Vec<Instr> = builtin("nasa7").unwrap().compile(5).take(20_000).collect();
        fold.process_slice(&trace);
        assert!(fold.bytes() >= before);
        assert!(fold.bytes() > 4 * 1025 * 8, "histograms alone exceed this");
    }

    #[test]
    fn bytes_counts_the_grown_bitmap_and_word_tree() {
        let mut c = ReuseDistCounter::new(64);
        let fresh = c.bytes();
        for i in 0..40_000u64 {
            c.access(i % 5_000 * 3);
        }
        let cap = c.timeline.cap();
        assert!(cap >= ReuseDistCounter::SLACK * c.distinct_lines());
        assert!(
            cap > ReuseDistCounter::INITIAL_SLOTS,
            "the fold grew the timeline"
        );
        // One bit per slot, plus one `u32` word-tree node per 64 slots
        // and the tree's unused node 0.
        let timeline = |slots: usize| slots / 8 + (slots / 64 + 1) * 4;
        let map_growth = c.map.bytes() - LineMap::new().bytes();
        assert_eq!(
            c.bytes() - fresh,
            timeline(cap) - timeline(ReuseDistCounter::INITIAL_SLOTS) + map_growth
        );
    }
}
