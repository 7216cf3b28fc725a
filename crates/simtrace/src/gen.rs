//! Composable synthetic reference-pattern generators.
//!
//! Each generator implements [`AccessPattern`], producing an endless stream
//! of data references with a particular locality signature. Patterns are
//! lifted into full instruction traces (interleaving non-memory
//! instructions and synthesizing a program counter stream) by
//! [`PatternTrace`].
//!
//! All generators are deterministic given their seed, so every experiment
//! in the benchmark harness is exactly reproducible.

use crate::addr::Addr;
use crate::instr::{Instr, MemOp, MemRef};
use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};
use serde::{Deserialize, Serialize};

/// A source of data memory references.
///
/// Implementors are infinite: `next_ref` must always produce a reference.
/// Finiteness is imposed at the trace level with [`Iterator::take`].
pub trait AccessPattern {
    /// Produces the next data reference.
    fn next_ref(&mut self, rng: &mut SmallRng) -> MemRef;
}

/// Boxed patterns forward, so hand-built trees of mixed pattern types
/// compose exactly like concrete ones — the box adds no RNG draws.
impl AccessPattern for Box<dyn AccessPattern + Send> {
    fn next_ref(&mut self, rng: &mut SmallRng) -> MemRef {
        self.as_mut().next_ref(rng)
    }
}

/// A Bernoulli draw as one integer compare, fixed at construction.
///
/// `rng.gen_bool(p)` draws `k = next_u64() >> 11` and answers
/// `k · 2^-53 < p`. Scaling by a power of two is exact, so for the
/// integer `k` that is `k < ceil(p · 2^53)`: the same draw gives the
/// same answer without a float conversion per reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Threshold(u64);

impl Threshold {
    /// The threshold of probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`, as `gen_bool` would on every
    /// draw.
    pub(crate) fn new(p: f64) -> Threshold {
        assert!((0.0..=1.0).contains(&p), "p = {p} outside [0, 1]");
        Threshold((p * (1u64 << 53) as f64).ceil() as u64)
    }

    /// Draws once: `true` exactly when `rng.gen_bool(p)` would be.
    #[inline]
    pub(crate) fn draw(self, rng: &mut SmallRng) -> bool {
        self.passes(rng.next_u64() >> 11)
    }

    /// The answer for the draw's top 53 bits `k`.
    #[inline]
    fn passes(self, k: u64) -> bool {
        k < self.0
    }
}

/// A store decision drawn against `store`.
#[inline]
fn op(store: Threshold, rng: &mut SmallRng) -> MemOp {
    if store.draw(rng) {
        MemOp::Store
    } else {
        MemOp::Load
    }
}

/// Sequentially sweeps one or more arrays with a fixed element stride,
/// optionally writing every `store_period`-th element.
///
/// This is the locality signature of vectorizable scientific code
/// (the paper's nasa7/swm256 class): near-perfect spatial locality, very
/// little temporal reuse, and misses that arrive at regular instruction
/// distances — which is exactly what makes the BNL features stall.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StridedSweep {
    base: u64,
    region_bytes: u64,
    /// The stride reduced modulo the region, so the cursor wraps with
    /// one compare.
    step: u64,
    elem_size: u8,
    store_period: u32,
    cursor: u64,
    /// Accesses made, wrapping at 2^32.
    count: u32,
    /// `count % store_period`, kept without a division.
    phase: u32,
}

impl StridedSweep {
    /// Creates a sweep over `region_bytes` starting at `base`, moving
    /// `stride` bytes per access (wrapping at `base + region_bytes`),
    /// with every `store_period`-th access a store (0 = never store).
    ///
    /// # Panics
    ///
    /// Panics if `stride` is zero or `region_bytes` is zero.
    pub fn new(
        base: u64,
        region_bytes: u64,
        stride: u64,
        elem_size: u8,
        store_period: u32,
    ) -> Self {
        assert!(stride > 0, "stride must be positive");
        assert!(region_bytes > 0, "region must be non-empty");
        StridedSweep {
            base,
            region_bytes,
            step: stride % region_bytes,
            elem_size,
            store_period,
            cursor: 0,
            count: 0,
            phase: 0,
        }
    }
}

impl AccessPattern for StridedSweep {
    #[inline]
    fn next_ref(&mut self, _rng: &mut SmallRng) -> MemRef {
        let addr = Addr::new(self.base + self.cursor);
        // `cursor` and `step` are below the region, so one subtraction
        // is the modulo.
        self.cursor += self.step;
        if self.cursor >= self.region_bytes {
            self.cursor -= self.region_bytes;
        }
        self.count = self.count.wrapping_add(1);
        // The count's wrap to 0 is a multiple of every period, too.
        self.phase = self.phase.wrapping_add(1);
        if self.phase == self.store_period || self.count == 0 {
            self.phase = 0;
        }
        let op = if self.store_period > 0 && self.phase == 0 {
            MemOp::Store
        } else {
            MemOp::Load
        };
        MemRef {
            op,
            addr,
            size: self.elem_size,
        }
    }
}

/// Follows a fixed random permutation through a region — a linked-list /
/// pointer-chasing signature with essentially no spatial locality.
///
/// Stands in for irregular integer code; its misses are far apart in line
/// space, so partially-stalling caches recover almost the entire fill
/// latency on it.
#[derive(Debug, Clone)]
pub struct PointerChase {
    base: u64,
    /// Node index permutation: `next[i]` is the node visited after node `i`.
    next: Vec<u32>,
    node_bytes: u64,
    current: u32,
    store: Threshold,
}

impl PointerChase {
    /// Builds a chase over `nodes` nodes of `node_bytes` bytes each,
    /// visiting them in a seeded random cyclic order.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is zero or `store_fraction` is outside `[0, 1]`.
    pub fn new(base: u64, nodes: u32, node_bytes: u64, store_fraction: f64, seed: u64) -> Self {
        assert!(nodes > 0, "need at least one node");
        assert!(
            (0.0..=1.0).contains(&store_fraction),
            "store fraction must be in [0, 1]"
        );
        let mut rng = SmallRng::seed_from_u64(seed);
        // Sattolo's algorithm: a single cycle through all nodes.
        let mut perm: Vec<u32> = (0..nodes).collect();
        for i in (1..nodes as usize).rev() {
            let j = rng.gen_range(0..i);
            perm.swap(i, j);
        }
        let mut next = vec![0u32; nodes as usize];
        for w in 0..nodes as usize {
            next[perm[w] as usize] = perm[(w + 1) % nodes as usize];
        }
        PointerChase {
            base,
            next,
            node_bytes,
            current: 0,
            store: Threshold::new(store_fraction),
        }
    }
}

impl AccessPattern for PointerChase {
    #[inline]
    fn next_ref(&mut self, rng: &mut SmallRng) -> MemRef {
        let addr = Addr::new(self.base + self.current as u64 * self.node_bytes);
        self.current = self.next[self.current as usize];
        MemRef {
            op: op(self.store, rng),
            addr,
            size: 4,
        }
    }
}

/// Uniform random references within a working set, with a configurable
/// store fraction — the classic "working set" temporal-locality model.
///
/// With a working set smaller than the cache this produces a very high hit
/// ratio; larger working sets dial the hit ratio down smoothly, which is
/// how the experiments position workloads at a chosen base hit ratio.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WorkingSet {
    base: u64,
    /// Slot width: the operand size, at least one byte.
    elem: u64,
    /// Slots in the set: its size over `elem`, at least one.
    slots: u64,
    store: Threshold,
    elem_size: u8,
}

impl WorkingSet {
    /// Creates a uniform working-set pattern over `bytes` bytes at
    /// `base`, each reference a store with probability `store_fraction`.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is zero or `store_fraction` is outside `[0, 1]`.
    pub fn new(base: u64, bytes: u64, store_fraction: f64, elem_size: u8) -> Self {
        assert!(bytes > 0, "working set must be non-empty");
        assert!(
            (0.0..=1.0).contains(&store_fraction),
            "store fraction must be in [0, 1]"
        );
        let elem = u64::from(elem_size.max(1));
        WorkingSet {
            base,
            elem,
            slots: (bytes / elem).max(1),
            store: Threshold::new(store_fraction),
            elem_size,
        }
    }
}

impl AccessPattern for WorkingSet {
    #[inline]
    fn next_ref(&mut self, rng: &mut SmallRng) -> MemRef {
        let addr = Addr::new(self.base + rng.gen_range(0..self.slots) * self.elem);
        MemRef {
            op: op(self.store, rng),
            addr,
            size: self.elem_size,
        }
    }
}

/// Zipf-distributed references over a region: slot `i` is referenced
/// with probability ∝ `1/(i+1)^s`.
///
/// Real programs' reuse follows heavy-tailed laws, which makes the miss
/// ratio fall smoothly (roughly as a power law) with cache size — the
/// curve shape behind the paper's Example 1 (91 % at 8 K → 95.5 % at
/// 32 K). Uniform working sets cannot produce that shape; this generator
/// can.
#[derive(Debug, Clone)]
pub struct ZipfWorkingSet {
    base: u64,
    /// Slot width: the operand size, at least one byte.
    elem: u64,
    elem_size: u8,
    store: Threshold,
    /// Cumulative probability per slot, for inverse-CDF sampling.
    cdf: Vec<f64>,
    /// `guide[b]` is the first slot whose cumulative probability reaches
    /// the bucket edge `b / buckets`, so a draw in bucket `b` selects a
    /// slot in `guide[b] ..= guide[b + 1]` ([`Self::rank`]).
    guide: Vec<u32>,
    /// The guide's bucket count, a power of two: `u · buckets` and every
    /// bucket edge are exact.
    buckets: f64,
}

/// Slots per Zipf guide bucket, on average: a draw searches about this
/// many cumulative probabilities (one or two cache lines), and building
/// the guide costs a small part of building the CDF.
const GUIDE_SLOTS: usize = 16;

impl ZipfWorkingSet {
    /// Creates a Zipf pattern over `slots` elements of `elem_size` bytes
    /// with exponent `s` (typical programs: 0.6–1.3).
    ///
    /// Slot `i` lives at `base + i·elem_size`: popular data is laid out
    /// contiguously (allocation order), so rank popularity also produces
    /// the spatial clustering real heaps show.
    ///
    /// # Panics
    ///
    /// Panics if `slots` is zero, `s` is not finite and positive, or
    /// `store_fraction` is outside `[0, 1]`.
    pub fn new(base: u64, slots: u32, elem_size: u8, s: f64, store_fraction: f64) -> Self {
        assert!(slots > 0, "need at least one slot");
        assert!(s.is_finite() && s > 0.0, "zipf exponent must be positive");
        assert!(
            (0.0..=1.0).contains(&store_fraction),
            "store fraction must be in [0, 1]"
        );
        let mut cdf = Vec::with_capacity(slots as usize);
        let mut total = 0.0;
        for i in 0..slots {
            total += 1.0 / f64::from(i + 1).powf(s);
            cdf.push(total);
        }
        for v in &mut cdf {
            *v /= total;
        }
        let buckets = ((slots as usize).next_power_of_two() / GUIDE_SLOTS).max(1);
        let guide = guide(&cdf, buckets);
        let elem = u64::from(elem_size.max(1));
        ZipfWorkingSet {
            base,
            elem,
            elem_size,
            store: Threshold::new(store_fraction),
            cdf,
            guide,
            buckets: buckets as f64,
        }
    }

    /// Number of slots.
    pub fn slots(&self) -> u32 {
        self.cdf.len() as u32
    }

    /// The slot a uniform draw `u` in `[0, 1)` selects, before clamping:
    /// exactly `cdf.partition_point(|&c| c < u)`, searched only inside
    /// the bracket of `u`'s guide bucket.
    #[inline]
    fn rank(&self, u: f64) -> usize {
        let b = (u * self.buckets) as usize;
        let (lo, hi) = (self.guide[b] as usize, self.guide[b + 1] as usize);
        lo + self.cdf[lo..hi].partition_point(|&c| c < u)
    }
}

/// The guide of `cdf` over `buckets` buckets, a power of two: entry `b`
/// is the first slot whose cumulative probability reaches `b / buckets`
/// (an exact edge), or `cdf.len()` past the last. One walk over the CDF
/// fills it, each edge in order.
fn guide(cdf: &[f64], buckets: usize) -> Vec<u32> {
    let mut slot = 0;
    (0..=buckets)
        .map(|b| {
            let edge = b as f64 / buckets as f64;
            while cdf.get(slot).is_some_and(|&c| c < edge) {
                slot += 1;
            }
            slot as u32
        })
        .collect()
}

impl AccessPattern for ZipfWorkingSet {
    #[inline]
    fn next_ref(&mut self, rng: &mut SmallRng) -> MemRef {
        let rank = self.rank(rng.gen()).min(self.cdf.len() - 1);
        let addr = Addr::new(self.base + rank as u64 * self.elem);
        MemRef {
            op: op(self.store, rng),
            addr,
            size: self.elem_size,
        }
    }
}

/// A two-level working set: a small hot region receiving most references
/// and a large cold region receiving the rest.
///
/// This produces the LRU-friendly skewed reuse of typical compiled code and
/// lets experiments target a hit ratio by sizing the cold region.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HotCold {
    hot: WorkingSet,
    cold: WorkingSet,
    /// Draws `true` for a reference to the hot region.
    to_hot: Threshold,
}

impl HotCold {
    /// Creates a hot/cold pattern sending each reference to `hot` with
    /// probability `hot_fraction`, to `cold` otherwise.
    ///
    /// # Panics
    ///
    /// Panics if `hot_fraction` is outside `[0, 1]`.
    pub fn new(hot: WorkingSet, cold: WorkingSet, hot_fraction: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&hot_fraction),
            "hot fraction must be in [0, 1]"
        );
        HotCold {
            hot,
            cold,
            to_hot: Threshold::new(hot_fraction),
        }
    }
}

impl AccessPattern for HotCold {
    #[inline]
    fn next_ref(&mut self, rng: &mut SmallRng) -> MemRef {
        if self.to_hot.draw(rng) {
            self.hot.next_ref(rng)
        } else {
            self.cold.next_ref(rng)
        }
    }
}

/// Repeated sweeps over a set of arrays, one array after another — a loop
/// nest signature with both spatial locality (within an array) and temporal
/// locality (arrays revisited every outer iteration).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LoopNest {
    arrays: Vec<StridedSweep>,
    /// References issued from the current array before moving on.
    pub burst: u32,
    current: usize,
    issued: u32,
}

impl LoopNest {
    /// Creates a loop nest cycling through `arrays`, issuing `burst`
    /// references from each before moving to the next.
    ///
    /// # Panics
    ///
    /// Panics if `arrays` is empty or `burst` is zero.
    pub fn new(arrays: Vec<StridedSweep>, burst: u32) -> Self {
        assert!(!arrays.is_empty(), "loop nest needs at least one array");
        assert!(burst > 0, "burst must be positive");
        LoopNest {
            arrays,
            burst,
            current: 0,
            issued: 0,
        }
    }
}

impl AccessPattern for LoopNest {
    #[inline]
    fn next_ref(&mut self, rng: &mut SmallRng) -> MemRef {
        let r = self.arrays[self.current].next_ref(rng);
        self.issued += 1;
        if self.issued >= self.burst {
            self.issued = 0;
            self.current = (self.current + 1) % self.arrays.len();
        }
        r
    }
}

/// Parameters shaping how a data-reference pattern is lifted into a full
/// instruction trace.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TraceShape {
    /// Fraction of instructions that perform a data reference.
    ///
    /// The paper's SPEC92 mixes are around 0.25–0.40.
    pub mem_fraction: f64,
    /// Probability that an instruction is a taken branch to a random
    /// location within the code region (drives the instruction cache).
    pub branch_fraction: f64,
    /// Size of the synthetic code region in bytes.
    pub code_bytes: u64,
}

impl Default for TraceShape {
    fn default() -> Self {
        TraceShape {
            mem_fraction: 0.3,
            branch_fraction: 0.05,
            code_bytes: 64 * 1024,
        }
    }
}

impl TraceShape {
    /// Validates the shape parameters.
    ///
    /// # Errors
    ///
    /// Returns a message when a fraction is outside `[0, 1]` or the code
    /// region is empty.
    pub fn validate(&self) -> Result<(), String> {
        if !(0.0..=1.0).contains(&self.mem_fraction) {
            return Err(format!("mem_fraction {} outside [0, 1]", self.mem_fraction));
        }
        if !(0.0..=1.0).contains(&self.branch_fraction) {
            return Err(format!(
                "branch_fraction {} outside [0, 1]",
                self.branch_fraction
            ));
        }
        if self.code_bytes < 4 {
            return Err("code region must hold at least one instruction".to_string());
        }
        Ok(())
    }
}

/// Lifts an [`AccessPattern`] into an infinite instruction trace.
///
/// # Example
///
/// ```
/// use simtrace::gen::{PatternTrace, TraceShape, WorkingSet};
///
/// let ws = WorkingSet::new(0, 4096, 0.3, 4);
/// let trace: Vec<_> = PatternTrace::new(ws, TraceShape::default(), 7).take(100).collect();
/// assert_eq!(trace.len(), 100);
/// ```
#[derive(Debug, Clone)]
pub struct PatternTrace<P> {
    pattern: P,
    rng: SmallRng,
    pc: u64,
    code_bytes: u64,
    /// Instruction slots in the code region, the range of a branch
    /// target.
    code_slots: u64,
    branch: Threshold,
    mem: Threshold,
}

impl<P: AccessPattern> PatternTrace<P> {
    /// Creates a trace from `pattern` with the given shape and seed.
    ///
    /// # Panics
    ///
    /// Panics if `shape` fails validation; use [`TraceShape::validate`] to
    /// check fallibly.
    pub fn new(pattern: P, shape: TraceShape, seed: u64) -> Self {
        shape.validate().expect("invalid trace shape");
        PatternTrace {
            pattern,
            rng: SmallRng::seed_from_u64(seed),
            pc: 0,
            code_bytes: shape.code_bytes,
            code_slots: shape.code_bytes / 4,
            branch: Threshold::new(shape.branch_fraction),
            mem: Threshold::new(shape.mem_fraction),
        }
    }
}

impl<P: AccessPattern> Iterator for PatternTrace<P> {
    type Item = Instr;

    #[inline]
    fn next(&mut self) -> Option<Instr> {
        let pc = Addr::new(self.pc);
        // Advance the synthetic program counter. It stays below
        // `code_bytes` (at least 4), so one subtraction is the modulo.
        if self.branch.draw(&mut self.rng) {
            self.pc = self.rng.gen_range(0..self.code_slots) * 4;
        } else {
            self.pc += 4;
            if self.pc >= self.code_bytes {
                self.pc -= self.code_bytes;
            }
        }
        let mem = if self.mem.draw(&mut self.rng) {
            Some(self.pattern.next_ref(&mut self.rng))
        } else {
            None
        };
        Some(Instr { pc, mem })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(42)
    }

    #[test]
    fn strided_sweep_is_strided_and_wraps() {
        let mut s = StridedSweep::new(0x1000, 64, 16, 4, 0);
        let mut r = rng();
        let a: Vec<u64> = (0..6).map(|_| s.next_ref(&mut r).addr.raw()).collect();
        assert_eq!(a, vec![0x1000, 0x1010, 0x1020, 0x1030, 0x1000, 0x1010]);
    }

    #[test]
    fn strided_sweep_store_period() {
        let mut s = StridedSweep::new(0, 1024, 4, 4, 4);
        let mut r = rng();
        let ops: Vec<bool> = (0..8).map(|_| s.next_ref(&mut r).op.is_store()).collect();
        assert_eq!(
            ops,
            vec![false, false, false, true, false, false, false, true]
        );
    }

    #[test]
    #[should_panic(expected = "stride must be positive")]
    fn strided_sweep_rejects_zero_stride() {
        StridedSweep::new(0, 64, 0, 4, 0);
    }

    #[test]
    fn pointer_chase_visits_every_node_once_per_cycle() {
        let mut p = PointerChase::new(0, 64, 16, 0.0, 9);
        let mut r = rng();
        let mut seen = std::collections::HashSet::new();
        for _ in 0..64 {
            assert!(
                seen.insert(p.next_ref(&mut r).addr.raw()),
                "node revisited within a cycle"
            );
        }
        assert_eq!(seen.len(), 64);
        // Next 64 revisit the same set.
        for _ in 0..64 {
            assert!(seen.contains(&p.next_ref(&mut r).addr.raw()));
        }
    }

    #[test]
    fn pointer_chase_is_deterministic_per_seed() {
        let mut a = PointerChase::new(0, 32, 8, 0.0, 5);
        let mut b = PointerChase::new(0, 32, 8, 0.0, 5);
        let mut r1 = rng();
        let mut r2 = rng();
        for _ in 0..100 {
            assert_eq!(a.next_ref(&mut r1), b.next_ref(&mut r2));
        }
    }

    #[test]
    fn working_set_stays_in_bounds() {
        let mut w = WorkingSet::new(0x8000, 256, 0.5, 8);
        let mut r = rng();
        for _ in 0..1000 {
            let m = w.next_ref(&mut r);
            assert!(m.addr.raw() >= 0x8000 && m.addr.raw() < 0x8000 + 256);
            assert_eq!(m.addr.raw() % 8, 0);
        }
    }

    #[test]
    fn working_set_store_fraction_zero_and_one() {
        let mut r = rng();
        let mut never = WorkingSet::new(0, 64, 0.0, 4);
        let mut always = WorkingSet::new(0, 64, 1.0, 4);
        for _ in 0..50 {
            assert!(never.next_ref(&mut r).op.is_load());
            assert!(always.next_ref(&mut r).op.is_store());
        }
    }

    #[test]
    fn hot_cold_splits_regions() {
        let hot = WorkingSet::new(0, 64, 0.0, 4);
        let cold = WorkingSet::new(0x1_0000, 64, 0.0, 4);
        let mut hc = HotCold::new(hot, cold, 0.9);
        let mut r = rng();
        let hits = (0..10_000)
            .filter(|_| hc.next_ref(&mut r).addr.raw() < 0x1_0000)
            .count();
        assert!(
            (8_500..=9_500).contains(&hits),
            "hot fraction far from 0.9: {hits}"
        );
    }

    #[test]
    fn loop_nest_cycles_arrays() {
        let a = StridedSweep::new(0, 1024, 4, 4, 0);
        let b = StridedSweep::new(0x10_000, 1024, 4, 4, 0);
        let mut nest = LoopNest::new(vec![a, b], 3);
        let mut r = rng();
        let regions: Vec<bool> = (0..9)
            .map(|_| nest.next_ref(&mut r).addr.raw() >= 0x10_000)
            .collect();
        assert_eq!(
            regions,
            vec![false, false, false, true, true, true, false, false, false]
        );
    }

    #[test]
    fn zipf_prefers_low_ranks() {
        let mut z = ZipfWorkingSet::new(0, 1024, 8, 1.0, 0.0);
        let mut r = rng();
        let mut counts = std::collections::HashMap::new();
        for _ in 0..20_000 {
            *counts.entry(z.next_ref(&mut r).addr.raw()).or_insert(0u32) += 1;
        }
        // Rank 0 (at the region base) must be the most frequent slot.
        assert_eq!(
            counts.iter().max_by_key(|(_, &c)| c).map(|(&a, _)| a),
            Some(0),
            "rank 0 lives at the base address"
        );
        let hottest = *counts.values().max().unwrap();
        assert!(hottest > 2_000, "rank-0 share too small: {hottest}");
        assert!(
            counts.len() > 100,
            "tail should still be touched: {}",
            counts.len()
        );
    }

    #[test]
    fn zipf_stays_in_region_and_aligned() {
        let mut z = ZipfWorkingSet::new(0x1000, 256, 8, 0.8, 0.5);
        let mut r = rng();
        for _ in 0..5_000 {
            let m = z.next_ref(&mut r);
            assert!(m.addr.raw() >= 0x1000 && m.addr.raw() < 0x1000 + 256 * 8);
            assert_eq!(m.addr.raw() % 8, 0);
        }
    }

    #[test]
    fn zipf_is_deterministic_given_the_rng() {
        let mut a = ZipfWorkingSet::new(0, 64, 4, 1.0, 0.0);
        let mut b = ZipfWorkingSet::new(0, 64, 4, 1.0, 0.0);
        let mut r1 = rng();
        let mut r2 = rng();
        for _ in 0..200 {
            assert_eq!(a.next_ref(&mut r1), b.next_ref(&mut r2));
        }
    }

    #[test]
    #[should_panic(expected = "zipf exponent")]
    fn zipf_rejects_bad_exponent() {
        ZipfWorkingSet::new(0, 64, 4, 0.0, 0.0);
    }

    #[test]
    fn threshold_draws_equal_gen_bool() {
        let ulp = 1.0 / (1u64 << 53) as f64;
        let mut picks = SmallRng::seed_from_u64(3);
        let random: Vec<f64> = (0..16).map(|_| picks.gen()).collect();
        for p in [0.0, ulp, 0.5, 1.0 - ulp, 1.0, 0.3, 0.1, 2.0 / 3.0]
            .into_iter()
            .chain(random)
        {
            let threshold = Threshold::new(p);
            let (mut a, mut b) = (rng(), rng());
            for i in 0..20_000 {
                assert_eq!(threshold.draw(&mut a), b.gen_bool(p), "p = {p}, draw {i}");
            }
        }
        // The answer flips exactly where `k · 2^-53 < p` does; sampled
        // draws almost never land on that edge, so test it directly.
        for p in [0.0, ulp, 0.3, 0.5, 2.0 / 3.0, 1.0 - ulp, 1.0]
            .into_iter()
            .chain((0..64).map(|_| picks.gen::<f64>()))
        {
            let threshold = Threshold::new(p);
            let edge = threshold.0;
            for k in [0, edge.saturating_sub(1), edge, edge + 1, (1 << 53) - 1] {
                let k = k.min((1 << 53) - 1);
                assert_eq!(
                    threshold.passes(k),
                    (k as f64) * ulp < p,
                    "p = {p}, k = {k}"
                );
            }
        }
        // The two ends are certain, whatever the draw.
        assert_eq!(Threshold::new(0.0), Threshold(0));
        assert_eq!(Threshold::new(1.0), Threshold(1 << 53));
        assert_eq!(Threshold::new(ulp), Threshold(1));
    }

    #[test]
    #[should_panic(expected = "outside [0, 1]")]
    fn threshold_rejects_a_probability_out_of_range() {
        Threshold::new(f64::NAN);
    }

    #[test]
    #[should_panic(expected = "store fraction")]
    fn pointer_chase_rejects_a_bad_store_fraction() {
        PointerChase::new(0, 16, 8, 1.5, 1);
    }

    /// The guided search is exactly the plain binary search it replaces,
    /// at every bucket edge, one ulp either side of it and in between.
    #[test]
    fn guided_zipf_rank_is_the_partition_point() {
        let mut draws = SmallRng::seed_from_u64(7);
        for (slots, exponents) in [
            (1, &[1.0][..]),
            (2, &[0.5, 1.0]),
            (3, &[1.3]),
            (7, &[0.1, 2.0]),
            (1000, &[0.6, 1.2]),
            (4097, &[1.0]),
            (98_304, &[1.3]),
            (1 << 20, &[0.9]),
        ] {
            for &s in exponents {
                let z = ZipfWorkingSet::new(0, slots, 8, s, 0.0);
                assert_eq!(z.guide.len() as f64, z.buckets + 1.0);
                let check = |u: f64| {
                    assert_eq!(
                        z.rank(u),
                        z.cdf.partition_point(|&c| c < u),
                        "slots {slots}, s {s}, u {u:e}"
                    );
                };
                for b in 0..=z.buckets as u64 {
                    let edge = b as f64 / z.buckets;
                    for u in [edge.next_down(), edge, edge.next_up()] {
                        if (0.0..1.0).contains(&u) {
                            check(u);
                        }
                    }
                }
                for _ in 0..10_000 {
                    check(draws.gen());
                }
            }
        }
    }

    /// Cumulative probabilities that land exactly on bucket edges, which
    /// a Zipf CDF rarely does: each edge's bracket still starts at the
    /// first slot reaching it.
    #[test]
    fn guide_brackets_start_at_slots_on_an_edge() {
        let mut z = ZipfWorkingSet::new(0, 1, 8, 1.0, 0.0);
        z.cdf = vec![0.125, 0.25, 0.25, 0.5, 0.625, 0.75, 1.0];
        z.buckets = 4.0;
        z.guide = guide(&z.cdf, 4);
        assert_eq!(z.guide, [0, 1, 3, 5, 6]);
        for i in 0..=64 {
            let edge = f64::from(i) / 64.0;
            for u in [edge.next_down(), edge, edge.next_up()] {
                if (0.0..1.0).contains(&u) {
                    assert_eq!(z.rank(u), z.cdf.partition_point(|&c| c < u), "u {u}");
                }
            }
        }
    }

    /// A strided sweep's store pattern, including across the access
    /// count's wrap at 2^32, is `count % store_period == 0`.
    #[test]
    fn strided_store_period_follows_the_wrapping_count() {
        for period in [0u32, 1, 3, 7] {
            let mut s = StridedSweep::new(0, 64, 8, 8, period);
            let start = u32::MAX - 20;
            s.count = start;
            s.phase = if period == 0 { start } else { start % period };
            let mut r = rng();
            for i in 1..=40u32 {
                let count = start.wrapping_add(i);
                assert_eq!(
                    s.next_ref(&mut r).op.is_store(),
                    period > 0 && count.is_multiple_of(period),
                    "period {period}, count {count}"
                );
            }
        }
    }

    #[test]
    fn zipf_higher_exponent_concentrates_references() {
        let footprint = |s_exp: f64| {
            let mut z = ZipfWorkingSet::new(0, 32 * 1024, 8, s_exp, 0.0);
            let mut r = rng();
            let mut lines = std::collections::HashSet::new();
            for _ in 0..20_000 {
                lines.insert(z.next_ref(&mut r).addr.raw() / 32);
            }
            lines.len()
        };
        assert!(
            footprint(1.3) < footprint(0.7),
            "heavier tail → wider footprint"
        );
    }

    #[test]
    fn pattern_trace_respects_mem_fraction() {
        let ws = WorkingSet::new(0, 4096, 0.3, 4);
        let shape = TraceShape {
            mem_fraction: 0.25,
            ..TraceShape::default()
        };
        let n = 40_000;
        let mems = PatternTrace::new(ws, shape, 3)
            .take(n)
            .filter(|i: &Instr| i.mem.is_some())
            .count();
        let frac = mems as f64 / n as f64;
        assert!(
            (frac - 0.25).abs() < 0.02,
            "mem fraction {frac} far from 0.25"
        );
    }

    /// The trace's draws, program counter and sweep cursor follow the
    /// `gen_bool` and modulo arithmetic they replace, for code regions
    /// and strides that are not multiples of anything convenient.
    #[test]
    fn pattern_trace_walks_like_its_modulo_reference() {
        for (code_bytes, branch_fraction, mem_fraction, region, stride) in [
            (4, 0.0, 1.0, 64, 8),
            (10, 0.05, 0.4, 100, 250),
            (1026, 0.3, 0.0, 24, 24),
            (4096, 1.0, 0.7, 1_000, 7),
        ] {
            let shape = TraceShape {
                mem_fraction,
                branch_fraction,
                code_bytes,
            };
            let sweep = StridedSweep::new(0x100, region, stride, 8, 3);
            let trace = PatternTrace::new(sweep, shape, 11);
            let mut r = SmallRng::seed_from_u64(11);
            let (mut pc, mut cursor, mut count) = (0u64, 0u64, 0u32);
            for instr in trace.take(5_000) {
                assert_eq!(instr.pc.raw(), pc, "code_bytes {code_bytes}");
                if r.gen_bool(branch_fraction) {
                    pc = r.gen_range(0..code_bytes / 4) * 4;
                } else {
                    pc = (pc + 4) % code_bytes;
                }
                let want = r.gen_bool(mem_fraction).then(|| {
                    let addr = 0x100 + cursor;
                    cursor = (cursor + stride) % region;
                    count += 1;
                    (addr, count.is_multiple_of(3))
                });
                let got = instr.mem.map(|m| (m.addr.raw(), m.op.is_store()));
                assert_eq!(got, want, "stride {stride} over {region}");
            }
        }
    }

    #[test]
    fn pattern_trace_pcs_stay_in_code_region() {
        let ws = WorkingSet::new(0, 4096, 0.3, 4);
        let shape = TraceShape {
            code_bytes: 1024,
            ..TraceShape::default()
        };
        for i in PatternTrace::new(ws, shape, 3).take(5_000) {
            assert!(i.pc.raw() < 1024);
            assert_eq!(i.pc.raw() % 4, 0);
        }
    }

    #[test]
    fn trace_shape_validation() {
        assert!(TraceShape::default().validate().is_ok());
        assert!(TraceShape {
            mem_fraction: 1.5,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(TraceShape {
            branch_fraction: -0.1,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(TraceShape {
            code_bytes: 2,
            ..Default::default()
        }
        .validate()
        .is_err());
    }
}
