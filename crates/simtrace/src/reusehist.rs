//! Streaming reuse-distance histograms in `O(refs · log distinct)`.
//!
//! [`crate::reuse::ReuseProfile`]'s original stack walk paid
//! `O(distinct lines)` per reference (`Vec::remove` on the LRU stack).
//! This module replaces the stack with Mattson's classic tree
//! formulation: every line's *last-access time* occupies a slot on a
//! timeline, and the reuse distance of an access is simply the number
//! of live slots **after** the line's previous slot. The timeline keeps
//! its hot state in cache: live slots are bits of a bitmap, and a
//! Fenwick tree counts marks per 64-slot word, so a distance is one
//! word-tree prefix plus one masked popcount, and a move is two bit
//! flips plus (only when the two slots sit in different words) two
//! word-tree updates. Slots are recycled by periodic compaction, which
//! needs no sort: a live slot's new rank is the prefix popcount of the
//! bitmap up to it. Capacity stays at least eight times the live lines,
//! so compactions are rare and the amortised cost stays `O(log n)` per
//! access.
//!
//! [`ReuseHistograms`] runs one [`ReuseDistCounter`] per power-of-two
//! line granularity over a single pass of the trace — the halving of a
//! line deterministically splits its reuse stream, so every granularity
//! the design grid will ever ask about is folded at once. The fold is
//! chunk-invariant (`process_slice` over any partition is bit-identical
//! to per-instruction feeding) and mirrors
//! `StackDistSweep`'s warm-up snapshot contract exactly: totals are
//! frozen when the instruction count reaches `warmup`, the tree state
//! (cache contents) survives, and the post-warm-up histogram is the
//! difference — so the analytic backend built on top agrees with the
//! simulated sweep on warmed statistics.

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

/// The slot timeline: which slots hold some line's most recent access.
///
/// Slot `s` is bit `s % 64` of `marks[s / 64]`; `words` is a Fenwick
/// tree, 1-indexed, over the mark count of each bitmap word. Capacity
/// is `64 × marks.len()` slots.
#[derive(Debug, Clone)]
struct Timeline {
    marks: Vec<u64>,
    words: Vec<u32>,
}

impl Timeline {
    /// An unmarked timeline of `cap` slots (a multiple of 64).
    fn new(cap: usize) -> Self {
        let mut t = Timeline {
            marks: Vec::new(),
            words: Vec::new(),
        };
        t.refill(0, cap);
        t
    }

    fn cap(&self) -> usize {
        self.marks.len() * 64
    }

    /// Resizes to `cap` slots with exactly slots `0..live` marked.
    fn refill(&mut self, live: usize, cap: usize) {
        let n = cap / 64;
        self.marks.clear();
        self.marks.resize(n, 0);
        self.marks[..live / 64].fill(u64::MAX);
        if !live.is_multiple_of(64) {
            self.marks[live / 64] = (1u64 << (live % 64)) - 1;
        }
        // Node i covers words (i - lowbit(i), i], i.e. slots
        // [64 (i - lowbit), 64 i): its count is the part of `0..live`
        // inside that range.
        self.words.clear();
        self.words.extend((0..=n).map(|i| {
            let from = 64 * (i - (i & i.wrapping_neg()));
            live.min(64 * i).saturating_sub(from) as u32
        }));
    }

    #[inline]
    fn word_add(&mut self, word: usize, delta: i32) {
        let mut i = word + 1;
        while i < self.words.len() {
            self.words[i] = self.words[i].wrapping_add(delta as u32);
            i += i & i.wrapping_neg();
        }
    }

    /// Marks in slots `0..=slot`.
    #[inline]
    fn marks_through(&self, slot: usize) -> usize {
        let word = slot / 64;
        let mut i = word;
        let mut sum = 0u32;
        while i > 0 {
            sum += self.words[i];
            i -= i & i.wrapping_neg();
        }
        let below = self.marks[word] & (u64::MAX >> (63 - slot % 64));
        sum as usize + below.count_ones() as usize
    }

    /// Marks the unmarked `slot`.
    #[inline]
    fn mark(&mut self, slot: usize) {
        self.marks[slot / 64] |= 1 << (slot % 64);
        self.word_add(slot / 64, 1);
    }

    /// Moves the mark at `from` to the unmarked slot `to`; the word
    /// tree only changes when the two slots sit in different words.
    #[inline]
    fn shift(&mut self, from: usize, to: usize) {
        self.marks[from / 64] &= !(1 << (from % 64));
        self.marks[to / 64] |= 1 << (to % 64);
        if from / 64 != to / 64 {
            self.word_add(from / 64, -1);
            self.word_add(to / 64, 1);
        }
    }

    /// Maps each marked slot to its rank among the marks — its slot
    /// after a compaction: the marks in the words before its own, plus
    /// those below it in its word.
    fn ranks(&self) -> impl Fn(u32) -> u32 + '_ {
        let before: Vec<u32> = self
            .marks
            .iter()
            .scan(0u32, |seen, w| {
                let base = *seen;
                *seen += w.count_ones();
                Some(base)
            })
            .collect();
        move |slot| {
            let (word, bit) = (slot as usize / 64, slot % 64);
            before[word] + (self.marks[word] & ((1u64 << bit) - 1)).count_ones()
        }
    }

    fn bytes(&self) -> usize {
        self.marks.len() * std::mem::size_of::<u64>()
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
/// Slots and mark counts are `u32`, so the timeline holds at most
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
    /// Live slots: a mark means "some line's most recent access lives
    /// in this slot".
    timeline: Timeline,
    /// Next unassigned slot; slots `0..next_slot` have been issued.
    next_slot: usize,
    /// Marked (live) slots — equals the number of distinct lines seen.
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
    /// Slots and mark counts are `u32`.
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
            // line's slot is already the most recent mark, so the
            // timeline needs no update.
            self.hist[0] += 1;
            return;
        }
        self.last_line = line;
        // Allocate before touching any mark: compaction (inside
        // `alloc_slot`) ranks exactly the marked slots and rewrites the
        // map through those ranks, so the marks must still describe
        // every live line when it runs — and it may remap the line's
        // slot, so the lookup comes after.
        let fresh = self.alloc_slot();
        match self.map.replace(line, fresh as u32) {
            Some(slot) => {
                // Every mark after the line's previous slot is a line
                // touched since — the reuse distance.
                let distance = self.live - self.timeline.marks_through(slot as usize);
                let last = self.hist.len() - 1;
                self.hist[distance.min(last)] += 1;
                self.timeline.shift(slot as usize, fresh);
            }
            None => {
                self.cold += 1;
                self.set_mass[(line & ((1 << SET_CLASS_LOG2) - 1)) as usize] += 1;
                self.timeline.mark(fresh);
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

    /// Reassigns the `live` marked slots to `0..live` (preserving
    /// order) and refills the timeline. Runs when the timeline is
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
            "reuse timeline needs {cap} slots, past the 2^31 that u32 slots and mark \
             counts allow ({} distinct lines; at most 2^28 fit)",
            self.live
        );
        self.map.remap(self.timeline.ranks());
        self.timeline.refill(self.live, cap);
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

/// One streaming pass, every power-of-two line granularity.
///
/// A [`bench`-style](crate::chunk) chunk fold: feed instructions via
/// [`ReuseHistograms::process_slice`] (any chunking — the result is
/// bit-identical) and read per-granularity [`crate::ReuseProfile`]s
/// back with [`ReuseHistograms::profile`]. Warm-up follows the
/// `StackDistSweep` contract: the histogram snapshot is taken the
/// moment the instruction count reaches `warmup`, tree state survives,
/// and [`ReuseHistograms::profile`] reports post-warm-up counts.
#[derive(Debug, Clone)]
pub struct ReuseHistograms {
    min_line_shift: u32,
    counters: Vec<ReuseDistCounter>,
    warm_base: Option<Vec<HistTotals>>,
    instrs: u64,
    warmup: u64,
    max_distance: usize,
}

impl ReuseHistograms {
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
        let counters = (min_shift..=max_shift)
            .map(|_| ReuseDistCounter::new(max_distance))
            .collect();
        ReuseHistograms {
            min_line_shift: min_shift,
            counters,
            warm_base: None,
            instrs: 0,
            warmup,
            max_distance,
        }
    }

    /// Feeds one instruction (the scalar mirror of
    /// [`ReuseHistograms::process_slice`]).
    pub fn process(&mut self, instr: Instr) {
        self.process_slice(std::slice::from_ref(&instr));
    }

    /// Feeds a block of instructions, bit-identical to per-instruction
    /// [`ReuseHistograms::process`] calls (including a warm-up boundary
    /// inside the slice).
    pub fn process_slice(&mut self, instrs: &[Instr]) {
        let mut rest = instrs;
        if self.warm_base.is_none() && self.warmup > self.instrs {
            let until = (self.warmup - self.instrs) as usize;
            if until <= rest.len() {
                let (head, tail) = rest.split_at(until);
                self.burst(head);
                self.snapshot();
                rest = tail;
            }
        }
        self.burst(rest);
    }

    fn burst(&mut self, instrs: &[Instr]) {
        let shift = self.min_line_shift;
        for instr in instrs {
            if let Some(m) = instr.mem {
                let base = m.addr.raw() >> shift;
                for (i, counter) in self.counters.iter_mut().enumerate() {
                    counter.access(base >> i);
                }
            }
        }
        self.instrs += instrs.len() as u64;
    }

    fn snapshot(&mut self) {
        self.warm_base = Some(
            self.counters
                .iter()
                .map(|c| HistTotals {
                    hist: c.hist.clone(),
                    cold: c.cold,
                    total: c.total,
                })
                .collect(),
        );
    }

    /// The counter index folding `line_bytes`, or `None` for a
    /// granularity outside the folded range.
    fn index(&self, line_bytes: u64) -> Option<usize> {
        if !line_bytes.is_power_of_two() {
            return None;
        }
        let idx = line_bytes
            .trailing_zeros()
            .checked_sub(self.min_line_shift)? as usize;
        (idx < self.counters.len()).then_some(idx)
    }

    /// Instructions folded so far.
    pub fn instructions(&self) -> u64 {
        self.instrs
    }

    /// The configured warm-up length.
    pub fn warmup(&self) -> u64 {
        self.warmup
    }

    /// Histogram bucket cap shared by every granularity.
    pub fn max_distance(&self) -> usize {
        self.max_distance
    }

    /// The line granularities folded, ascending.
    pub fn line_sizes(&self) -> Vec<u64> {
        (0..self.counters.len() as u32)
            .map(|i| 1u64 << (self.min_line_shift + i))
            .collect()
    }

    /// The post-warm-up reuse profile at `line_bytes`, or `None` if the
    /// granularity is outside the folded range. Mirrors
    /// `StackDistSweep::stats`: the warm-up snapshot (when one was
    /// taken) is subtracted from the totals.
    pub fn profile(&self, line_bytes: u64) -> Option<crate::reuse::ReuseProfile> {
        let idx = self.index(line_bytes)?;
        let counter = &self.counters[idx];
        let (hist, cold, total) = match self.warm_base.as_ref().map(|b| &b[idx]) {
            Some(base) => {
                let hist = counter
                    .hist
                    .iter()
                    .zip(&base.hist)
                    .map(|(now, then)| now - then)
                    .collect();
                (hist, counter.cold - base.cold, counter.total - base.total)
            }
            None => (counter.hist.clone(), counter.cold, counter.total),
        };
        Some(crate::reuse::ReuseProfile::from_parts(
            line_bytes, hist, cold, total,
        ))
    }

    /// The distinct-line footprint over set-index residues
    /// (`line mod 2^SET_CLASS_LOG2`) at `line_bytes`, or `None` for an
    /// unfolded granularity. Deliberately *not* warm-up-diffed: lines
    /// first touched during warm-up still occupy sets afterwards, so
    /// the set-conflict model wants the whole footprint.
    pub fn set_mass(&self, line_bytes: u64) -> Option<&[u64]> {
        Some(self.counters[self.index(line_bytes)?].set_mass())
    }

    /// Approximate heap footprint across all granularities, for the
    /// trace-store byte budget.
    pub fn bytes(&self) -> usize {
        let counters: usize = self.counters.iter().map(ReuseDistCounter::bytes).sum();
        let base = self
            .warm_base
            .as_ref()
            .map(|b| {
                b.iter()
                    .map(|t| t.hist.len() * std::mem::size_of::<u64>())
                    .sum()
            })
            .unwrap_or(0);
        counters + base + std::mem::size_of::<Self>()
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
    #[should_panic(expected = "past the 2^31 that u32 slots and mark counts allow")]
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
