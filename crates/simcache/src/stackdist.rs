//! Single-pass multi-configuration sweep via generalized stack
//! simulation over set-indexed stacks.
//!
//! Replaying a trace once per cache configuration makes a design-space
//! sweep cost `O(|sizes| × |assocs| × N)`. Mattson's stack algorithm
//! observes that for LRU the resident set of a small cache is always a
//! subset of a larger one's, so one pass computes *all* capacities at
//! once; Hill & Smith's all-associativity extension does the same for
//! set-indexed caches. This module implements that extension for
//! bit-selected sets: one pass over the trace yields, for a fixed line
//! size, the **exact** hit and writeback counts of every configuration
//! `(sets = 2^k ≤ 2^kmax, assoc ≤ max_assoc)` under the default policy
//! triple (LRU, write-back, write-allocate) — bit-identical to replaying
//! the trace through [`crate::Cache`].
//!
//! # Set-indexed stacks
//!
//! Lines map to sets by bit selection: with `2^k` sets, line `x` lands
//! in set `x mod 2^k`. The set-local stack distance `d_k` decides
//! hit-or-miss via `d_k < A`, and no tracked associativity exceeds
//! `max_assoc` — so only the top `max_assoc` positions of each set's
//! LRU stack are ever observable, and the engine stores those: per
//! level, per set, a row of resident lines in MRU order, with clean
//! thresholds in a parallel array (structure-of-arrays: the depth scan
//! touches lines only). Every level's rows sit in one array. A row is
//! `max_assoc` rounded up to a power of two wide (at most
//! [`MAX_SWEEP_ASSOC`] = 64), and the walk is monomorphised over that
//! width, so the scan, the writeback walk and the row move are
//! fixed-length loops the compiler unrolls, with no variable-length
//! copy. An access scans the row, charges depths at or beyond
//! `max_assoc` as "missed everywhere tracked" (the capped distance),
//! moves the shallower entries down one slot, and reinserts `x` at the
//! front — one or two cache lines touched per level, no pointer
//! chasing, no hash lookups. Each access costs
//! `O((kmax − kmin + 1) · width)` — independent of the reuse distance —
//! against the naive single-stack walk's `O(reuse distance)`. Lines
//! falling off a row, or sitting in its slots past `max_assoc`, lose
//! nothing observable: a reload from below the cap behaves identically
//! to a cold fetch in every tracked configuration.
//!
//! # Reference batches
//!
//! The sweep reads the trace as [`RefBatch`]es: a run's data addresses
//! with one store bit each, cut once by a [`RefCutter`] and shared by
//! every sweep of a grid (and by the reuse-histogram parts), so a fold
//! reads 8-byte addresses instead of re-scanning 24-byte instructions
//! once per line size. [`StackDistSweep::fold`] takes the next batch of
//! the stream, [`StackDistSweep::process_slice`] cuts a slice into
//! batches, and [`StackDistSweep::process`] walks one instruction's
//! reference directly; every cut gives the same state.
//!
//! # Exact writebacks
//!
//! During the walk at level `k`, the line at set position `j < d_k` is
//! exactly the line evicted by this access from config
//! `(2^k sets, A = j + 1)` — that config misses (since `d_k ≥ j + 1`)
//! and its LRU victim is position `j`. Whether the eviction writes back
//! is determined by the victim's *clean threshold* `M_k(y)`: the
//! largest set-local depth at which `y` was loaded since it was last
//! stored (`∞` if never stored, `0` right after a store). A load deeper
//! than the associativity refetches the line clean, so `y` is dirty in
//! `(2^k, A)` iff `A > M_k(y)` — dirtiness is monotone in `A` and one
//! threshold per level captures it for every associativity.
//!
//! # Warm-up
//!
//! [`crate::explore::measure_dcache`] resets statistics once the
//! instruction count reaches `warmup` (cache contents survive). The
//! sweep mirrors that exactly by snapshotting its counters at the same
//! instant and subtracting the snapshot at query time — including the
//! corner where the trace is shorter than the warm-up, in which case no
//! reset ever happens and all accesses count.
//!
//! ```
//! use simcache::stackdist::StackDistSweep;
//! use simcache::{explore::measure_dcache, CacheConfig};
//! use simtrace::gen::{PatternTrace, TraceShape, WorkingSet};
//!
//! let trace = || {
//!     PatternTrace::new(WorkingSet::new(0, 8 * 1024, 0.3, 4), TraceShape::default(), 1)
//!         .take(20_000)
//! };
//! // One pass answers every power-of-two geometry at L = 32...
//! let sweep = StackDistSweep::run(32, 8, 4, 1_000, trace())?;
//! // ...bit-identical to a dedicated replay per configuration.
//! let cfg = CacheConfig::new(8 * 1024, 32, 2)?;
//! assert_eq!(sweep.stats_for(&cfg).unwrap(), measure_dcache(cfg, trace(), 1_000));
//! # Ok::<(), simcache::ConfigError>(())
//! ```

use crate::config::{CacheConfig, ConfigError, Replacement, WriteMiss, WritePolicy};
use crate::stats::CacheStats;
use simtrace::{Instr, RefBatch, RefCutter};
use std::fmt;
use std::ops::Range;

/// Threshold sentinel marking an unoccupied row slot. Live thresholds
/// are capped at `max_assoc ≤ 64`, so the value cannot collide.
const EMPTY_M: u8 = u8::MAX;

/// The widest associativity a sweep tracks: rows are monomorphised
/// over power-of-two widths up to 64.
pub const MAX_SWEEP_ASSOC: u32 = 64;

/// Why a sweep cannot answer for a particular configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SweepQueryError {
    /// The configuration's line size differs from the sweep's.
    LineMismatch {
        /// Line size the sweep was run with.
        sweep: u64,
        /// Line size of the queried configuration.
        queried: u64,
    },
    /// The configuration uses a policy other than LRU + write-back +
    /// write-allocate (the only triple with the LRU inclusion property
    /// the single-pass algorithm relies on).
    UnsupportedPolicy,
    /// The configuration needs a set count outside the sweep's range.
    SetsOutOfRange {
        /// Sets required by the configuration.
        sets: u64,
        /// Smallest set count the sweep covers.
        min_sets: u64,
        /// Largest set count the sweep covers.
        max_sets: u64,
    },
    /// The configuration needs more ways than the sweep tracked.
    AssocOutOfRange {
        /// Ways required by the configuration.
        assoc: u32,
        /// Largest associativity the sweep covers.
        max_assoc: u32,
    },
}

impl fmt::Display for SweepQueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SweepQueryError::LineMismatch { sweep, queried } => {
                write!(f, "sweep ran with {sweep}B lines, queried for {queried}B")
            }
            SweepQueryError::UnsupportedPolicy => {
                f.write_str("single-pass sweep covers LRU + write-back + write-allocate only")
            }
            SweepQueryError::SetsOutOfRange {
                sets,
                min_sets,
                max_sets,
            } => {
                write!(
                    f,
                    "configuration needs {sets} sets, sweep covers {min_sets}..={max_sets}"
                )
            }
            SweepQueryError::AssocOutOfRange { assoc, max_assoc } => {
                write!(
                    f,
                    "configuration needs {assoc} ways, sweep covers up to {max_assoc}"
                )
            }
        }
    }
}

impl std::error::Error for SweepQueryError {}

/// Returns `true` when [`StackDistSweep`] can reproduce this
/// configuration's statistics exactly (policy-wise; geometry is checked
/// per query).
pub fn fast_path_supported(cfg: &CacheConfig) -> bool {
    cfg.replacement == Replacement::Lru
        && cfg.write_policy == WritePolicy::WriteBack
        && cfg.write_miss == WriteMiss::Allocate
}

#[derive(Debug, Clone, Default)]
struct Counters {
    /// `hist[op][lvl * (max_assoc + 1) + d]`: accesses of `op` (0 load,
    /// 1 store) whose set-local stack distance at level `lvl` is `d`
    /// (`d = max_assoc` buckets "at least `max_assoc`, or cold").
    hist: [Vec<u64>; 2],
    /// `wb[lvl * max_assoc + j]`: writebacks of config
    /// `(2^(kmin + lvl) sets, j + 1 ways)`.
    wb: Vec<u64>,
}

impl Counters {
    fn new(levels: usize, max_assoc: u32) -> Self {
        Counters {
            hist: [
                vec![0; levels * (max_assoc as usize + 1)],
                vec![0; levels * (max_assoc as usize + 1)],
            ],
            wb: vec![0; levels * max_assoc as usize],
        }
    }
}

/// A single-pass exact sweep over every power-of-two LRU configuration
/// at one line size. See the [module docs](self) for the algorithm.
///
/// The per-set stacks are stored structure-of-arrays: the depth scan —
/// the hottest loop of the whole sweep — touches only the contiguous
/// `u64` line array, and the clean thresholds live in a parallel `u8`
/// array read only on the writeback walk and the reinsert.
#[derive(Debug, Clone)]
pub struct StackDistSweep {
    line_bytes: u64,
    line_shift: u32,
    kmin: u32,
    kmax: u32,
    max_assoc: u32,
    /// Slots per row: `max_assoc` rounded up to a power of two.
    width: usize,
    warmup: u64,
    instrs: u64,
    /// Truncated per-set LRU stacks, lines only, every level in one
    /// array: level `k` keeps its set `s`'s top `width` resident lines,
    /// MRU first, in row `2^k − 2^kmin + s` (at
    /// `lines[row * width..][..width]`).
    lines: Vec<u64>,
    /// Clean thresholds `M_k` parallel to `lines` (the line is dirty in
    /// `(2^k, A)` iff `A > m`; `EMPTY_M` marks an unoccupied slot;
    /// live thresholds at `max_assoc` mean "clean everywhere tracked").
    marks: Vec<u8>,
    totals: Counters,
    /// Totals frozen when `instrs` reached `warmup` (the moment
    /// `measure_dcache` resets its statistics).
    warm_base: Option<Counters>,
}

impl StackDistSweep {
    /// Creates a sweep covering sets `1..=2^max_sets_log2` and
    /// associativities `1..=max_assoc` at the given line size, with the
    /// first `warmup` instructions excluded from statistics.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::NotPowerOfTwo`] for an invalid line size
    /// and [`ConfigError::AssocOutOfRange`] when `max_assoc` is zero or
    /// above [`MAX_SWEEP_ASSOC`].
    ///
    /// # Panics
    ///
    /// Panics if `max_sets_log2` exceeds 63.
    pub fn new(
        line_bytes: u64,
        max_sets_log2: u32,
        max_assoc: u32,
        warmup: u64,
    ) -> Result<Self, ConfigError> {
        Self::new_range(line_bytes, 0, max_sets_log2, max_assoc, warmup)
    }

    /// Like [`StackDistSweep::new`], but only tracking set counts
    /// `2^min_sets_log2..=2^max_sets_log2`. Skipping levels a grid will
    /// never query cuts the per-access work proportionally.
    ///
    /// # Errors
    ///
    /// The same as [`StackDistSweep::new`].
    ///
    /// # Panics
    ///
    /// Panics on the same bounds as [`StackDistSweep::new`], or when
    /// `min_sets_log2 > max_sets_log2`.
    pub fn new_range(
        line_bytes: u64,
        min_sets_log2: u32,
        max_sets_log2: u32,
        max_assoc: u32,
        warmup: u64,
    ) -> Result<Self, ConfigError> {
        if line_bytes == 0 || !line_bytes.is_power_of_two() {
            return Err(ConfigError::NotPowerOfTwo {
                what: "line size",
                value: line_bytes,
            });
        }
        if !(1..=MAX_SWEEP_ASSOC).contains(&max_assoc) {
            return Err(ConfigError::AssocOutOfRange {
                assoc: max_assoc,
                max: MAX_SWEEP_ASSOC,
            });
        }
        assert!(max_sets_log2 < 64, "set count must fit an u64");
        assert!(min_sets_log2 <= max_sets_log2, "empty set-count range");
        let levels = (max_sets_log2 - min_sets_log2 + 1) as usize;
        let width = max_assoc.next_power_of_two() as usize;
        let slots = ((2usize << max_sets_log2) - (1usize << min_sets_log2)) * width;
        Ok(StackDistSweep {
            line_bytes,
            line_shift: line_bytes.trailing_zeros(),
            kmin: min_sets_log2,
            kmax: max_sets_log2,
            max_assoc,
            width,
            warmup,
            instrs: 0,
            lines: vec![0; slots],
            marks: vec![EMPTY_M; slots],
            totals: Counters::new(levels, max_assoc),
            warm_base: None,
        })
    }

    /// Builds a sweep and processes an entire trace through it.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::NotPowerOfTwo`] for an invalid line size.
    pub fn run(
        line_bytes: u64,
        max_sets_log2: u32,
        max_assoc: u32,
        warmup: u64,
        trace: impl IntoIterator<Item = Instr>,
    ) -> Result<Self, ConfigError> {
        let mut sweep = Self::new(line_bytes, max_sets_log2, max_assoc, warmup)?;
        for instr in trace {
            sweep.process(instr);
        }
        Ok(sweep)
    }

    /// The line size this sweep was run with.
    pub fn line_bytes(&self) -> u64 {
        self.line_bytes
    }

    /// The smallest set count covered (`2^min_sets_log2`).
    pub fn min_sets(&self) -> u64 {
        1u64 << self.kmin
    }

    /// The largest set count covered (`2^max_sets_log2`).
    pub fn max_sets(&self) -> u64 {
        1u64 << self.kmax
    }

    /// The largest associativity covered.
    pub fn max_assoc(&self) -> u32 {
        self.max_assoc
    }

    /// Feeds one instruction: its reference, if any, is walked
    /// directly, with no batch. Non-memory instructions advance the
    /// warm-up clock only, exactly like
    /// [`crate::explore::measure_dcache`].
    pub fn process(&mut self, instr: Instr) {
        if let Some(m) = instr.mem {
            self.walk(&[m.addr.raw()], &[u64::from(m.op.is_store())], 0..1);
        }
        self.instrs += 1;
        if self.instrs == self.warmup {
            self.warm_base = Some(self.totals.clone());
        }
    }

    /// Feeds a block of instructions, bit-identical to calling
    /// [`StackDistSweep::process`] per instruction (including the exact
    /// warm-up snapshot instant, which may fall inside the slice): the
    /// slice is cut into [`RefBatch`]es through one buffer and each is
    /// [folded](StackDistSweep::fold).
    pub fn process_slice(&mut self, instrs: &[Instr]) {
        RefCutter::new(self.warmup, self.instrs).fold_slice(instrs, |batch| self.fold(batch));
    }

    /// Folds the next reference batch of the stream. Any cut of the
    /// stream gives the same state: the warm-up snapshot is taken at
    /// the batch's warm-up mark, after the references of the
    /// instructions before it.
    ///
    /// # Panics
    ///
    /// Panics if the batch was cut for a different warm-up.
    pub fn fold(&mut self, batch: &RefBatch) {
        assert_eq!(
            batch.warmup(),
            self.warmup,
            "reference batch cut for another warm-up"
        );
        let (addrs, stores) = (batch.addrs(), batch.stores());
        let at = batch.warm_at().unwrap_or(0);
        self.walk(addrs, stores, 0..at);
        if batch.warm_at().is_some() {
            self.warm_base = Some(self.totals.clone());
        }
        self.walk(addrs, stores, at..addrs.len());
        self.instrs += batch.instructions();
    }

    /// Walks references `refs` of `addrs` (store bits in `stores`, one
    /// per reference) through the stacks, at the row width fixed at
    /// construction.
    fn walk(&mut self, addrs: &[u64], stores: &[u64], refs: Range<usize>) {
        match self.width {
            1 => self.walk_rows::<1>(addrs, stores, refs),
            2 => self.walk_rows::<2>(addrs, stores, refs),
            4 => self.walk_rows::<4>(addrs, stores, refs),
            8 => self.walk_rows::<8>(addrs, stores, refs),
            16 => self.walk_rows::<16>(addrs, stores, refs),
            32 => self.walk_rows::<32>(addrs, stores, refs),
            _ => self.walk_rows::<64>(addrs, stores, refs),
        }
    }

    /// The walk at a compile-time row width `W`: every scan, writeback
    /// walk and row move is over a fixed-length array.
    fn walk_rows<const W: usize>(&mut self, addrs: &[u64], stores: &[u64], refs: Range<usize>) {
        debug_assert_eq!(W, self.width);
        let shift = self.line_shift;
        for i in refs {
            let store = (stores[i / 64] >> (i % 64)) & 1 != 0;
            self.access::<W>(store, addrs[i] >> shift);
        }
    }

    #[inline(always)]
    fn access<const W: usize>(&mut self, store: bool, x: u64) {
        let levels = (self.kmax - self.kmin + 1) as usize;
        let max_a = self.max_assoc as usize;
        let Counters { hist, wb } = &mut self.totals;
        let hist = &mut hist[usize::from(store)];
        let kmin = self.kmin;
        // The first slot of `x`'s row at level `k`.
        let row =
            |k: u32| ((1usize << k) - (1usize << kmin) + (x & ((1u64 << k) - 1)) as usize) * W;

        for lvl in 0..levels {
            let k = kmin + lvl as u32;
            let at = row(k);
            let row_lines: &mut [u64; W] = (&mut self.lines[at..][..W])
                .try_into()
                .expect("rows are W wide");
            let row_marks: &mut [u8; W] = (&mut self.marks[at..][..W])
                .try_into()
                .expect("rows are W wide");

            // Depth scan: the MRU slot is checked first (the dominant,
            // perfectly-predicted case), then the rest of the row in a
            // branch-light reverse pass — no early exit, so the
            // fixed-length equality scan over the line array unrolls;
            // the lowest matching position wins. Empty slots
            // (m = EMPTY_M) never match.
            let depth = if row_lines[0] == x && row_marks[0] != EMPTY_M {
                0
            } else {
                let mut d = W; // Not in the row.
                for j in (1..W).rev() {
                    if row_lines[j] == x && row_marks[j] != EMPTY_M {
                        d = j;
                    }
                }
                d
            };

            // MRU shortcut: MRU in this set implies MRU in every
            // refinement of it (no access touched this set since `x`,
            // so none touched any subset either). Distance 0 from here
            // down: no scans, no writebacks, no shifting — only a
            // store's thresholds change (a load's `max(m, 0)` is a
            // no-op).
            if depth == 0 {
                for l2 in lvl..levels {
                    hist[l2 * (max_a + 1)] += 1;
                }
                if store {
                    for k2 in k..=self.kmax {
                        self.marks[row(k2)] = 0;
                    }
                }
                return;
            }

            // Depths at or beyond `max_a` (the row may be wider) miss in
            // every tracked configuration: the capped distance.
            let capped = depth.min(max_a);

            // Position j < capped is the line evicted from config
            // (2^k sets, j + 1 ways) by this access (which misses
            // there, since depth ≥ j + 1): charge its clean threshold.
            // Branchless — empty slots never satisfy j ≥ EMPTY_M.
            for j in 0..capped {
                wb[lvl * max_a + j] += u64::from(j >= usize::from(row_marks[j]));
            }
            hist[lvl * (max_a + 1) + capped] += 1;

            // Reinsert x at the MRU position: a store makes the line
            // dirty at depth 0; a load refetches it clean anywhere
            // deeper than the last store's reach, with depths at or
            // beyond the cap pinned to `max_a` ("clean everywhere
            // tracked" — indistinguishable from a cold fetch).
            let m = if store {
                0
            } else if depth < max_a {
                row_marks[depth].max(depth as u8)
            } else {
                max_a as u8
            };
            // Slots 0..depth move down one (the last slot's line falls
            // off when x was not in the row): a fixed-width pass, no
            // variable-length copy.
            for j in (1..W).rev() {
                if j <= depth {
                    row_lines[j] = row_lines[j - 1];
                    row_marks[j] = row_marks[j - 1];
                }
            }
            row_lines[0] = x;
            row_marks[0] = m;
        }
    }

    /// Post-warm-up statistics of config `(2^sets_log2 sets, assoc
    /// ways)`, bit-identical to replaying the trace through
    /// [`crate::Cache`] with the default policies.
    ///
    /// # Panics
    ///
    /// Panics when the geometry is outside the sweep's coverage; use
    /// [`StackDistSweep::stats_for`] for a checked query.
    pub fn stats(&self, sets_log2: u32, assoc: u32) -> CacheStats {
        assert!(
            (self.kmin..=self.kmax).contains(&sets_log2),
            "sets 2^{sets_log2} outside sweep range 2^{}..=2^{}",
            self.kmin,
            self.kmax
        );
        assert!(
            assoc >= 1 && assoc <= self.max_assoc,
            "assoc {assoc} outside sweep range 1..={}",
            self.max_assoc
        );
        let lvl = (sets_log2 - self.kmin) as usize;
        let a = assoc as usize;
        let count = |sel: fn(&Counters) -> &Vec<u64>, idx: usize| -> u64 {
            let total = sel(&self.totals)[idx];
            match &self.warm_base {
                Some(base) => total - sel(base)[idx],
                None => total,
            }
        };
        let hist_base = lvl * (self.max_assoc as usize + 1);
        let sum_hits =
            |op: usize| -> u64 { (0..a).map(|d| count(hist_sel(op), hist_base + d)).sum() };
        let sum_all = |op: usize| -> u64 {
            (0..=self.max_assoc as usize)
                .map(|d| count(hist_sel(op), hist_base + d))
                .sum()
        };
        let load_hits = sum_hits(0);
        let store_hits = sum_hits(1);
        let load_misses = sum_all(0) - load_hits;
        let store_misses = sum_all(1) - store_hits;
        CacheStats {
            load_hits,
            load_misses,
            store_hits,
            store_misses,
            // Write-allocate: every miss fills.
            fills: load_misses + store_misses,
            writebacks: count(|c| &c.wb, lvl * self.max_assoc as usize + (a - 1)),
            write_arounds: 0,
            write_throughs: 0,
            prefetch_fills: 0,
        }
    }

    /// Checked query: the statistics this sweep implies for `cfg`.
    ///
    /// # Errors
    ///
    /// Returns a [`SweepQueryError`] when `cfg` uses a different line
    /// size, a non-default policy, or geometry beyond the sweep's
    /// coverage.
    pub fn stats_for(&self, cfg: &CacheConfig) -> Result<CacheStats, SweepQueryError> {
        if cfg.line_bytes() != self.line_bytes {
            return Err(SweepQueryError::LineMismatch {
                sweep: self.line_bytes,
                queried: cfg.line_bytes(),
            });
        }
        if !fast_path_supported(cfg) {
            return Err(SweepQueryError::UnsupportedPolicy);
        }
        let sets = cfg.num_sets();
        if sets < self.min_sets() || sets > self.max_sets() {
            return Err(SweepQueryError::SetsOutOfRange {
                sets,
                min_sets: self.min_sets(),
                max_sets: self.max_sets(),
            });
        }
        if cfg.assoc() > self.max_assoc {
            return Err(SweepQueryError::AssocOutOfRange {
                assoc: cfg.assoc(),
                max_assoc: self.max_assoc,
            });
        }
        Ok(self.stats(sets.trailing_zeros(), cfg.assoc()))
    }

    /// Instructions processed so far (memory-referencing or not).
    pub fn instructions(&self) -> u64 {
        self.instrs
    }
}

fn hist_sel(op: usize) -> fn(&Counters) -> &Vec<u64> {
    match op {
        0 => |c: &Counters| &c.hist[0],
        _ => |c: &Counters| &c.hist[1],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::Cache;
    use crate::explore::measure_dcache;
    use simtrace::gen::{PatternTrace, StridedSweep, TraceShape, WorkingSet, ZipfWorkingSet};
    use simtrace::{Addr, MemOp, MemRef};

    fn mem(op: MemOp, addr: u64) -> Instr {
        Instr {
            pc: Addr::new(0),
            mem: Some(MemRef {
                op,
                addr: Addr::new(addr),
                size: 4,
            }),
        }
    }

    /// Replays `trace` per config and checks the sweep agrees exactly.
    fn assert_exact(trace: &[Instr], line_bytes: u64, kmax: u32, max_assoc: u32, warmup: u64) {
        let sweep = StackDistSweep::run(line_bytes, kmax, max_assoc, warmup, trace.iter().copied())
            .expect("valid sweep");
        for k in 0..=kmax {
            for assoc in 1..=max_assoc {
                if !assoc.is_power_of_two() {
                    continue; // CacheConfig insists on pow2 ways.
                }
                let size = (1u64 << k) * line_bytes * u64::from(assoc);
                let cfg = CacheConfig::new(size, line_bytes, assoc).expect("valid cfg");
                let replay = measure_dcache(cfg, trace.iter().copied(), warmup);
                let swept = sweep.stats(k, assoc);
                assert_eq!(swept, replay, "2^{k} sets × {assoc} ways, L={line_bytes}");
            }
        }
    }

    #[test]
    fn tiny_handwritten_trace_matches_replay() {
        let t = [
            mem(MemOp::Load, 0x000),
            mem(MemOp::Store, 0x040),
            mem(MemOp::Load, 0x080),
            mem(MemOp::Load, 0x000),
            mem(MemOp::Store, 0x0C0),
            mem(MemOp::Load, 0x040),
            mem(MemOp::Load, 0x100),
            mem(MemOp::Store, 0x000),
            mem(MemOp::Load, 0x140),
            mem(MemOp::Load, 0x040),
        ];
        assert_exact(&t, 32, 3, 4, 0);
    }

    #[test]
    fn working_set_trace_matches_replay_all_geometries() {
        let trace: Vec<Instr> = PatternTrace::new(
            WorkingSet::new(0, 4 * 1024, 0.3, 4),
            TraceShape::default(),
            11,
        )
        .take(20_000)
        .collect();
        assert_exact(&trace, 32, 5, 4, 0);
    }

    #[test]
    fn zipf_trace_matches_replay_with_warmup() {
        let trace: Vec<Instr> = PatternTrace::new(
            ZipfWorkingSet::new(0, 16 * 1024, 8, 1.2, 0.2),
            TraceShape::default(),
            5,
        )
        .take(15_000)
        .collect();
        assert_exact(&trace, 16, 6, 2, 3_000);
    }

    #[test]
    fn strided_trace_matches_replay() {
        let trace: Vec<Instr> = PatternTrace::new(
            StridedSweep::new(0, 1 << 16, 4, 4, 0),
            TraceShape::default(),
            3,
        )
        .take(12_000)
        .collect();
        assert_exact(&trace, 64, 4, 2, 1_000);
    }

    #[test]
    fn warmup_longer_than_trace_counts_everything() {
        // measure_dcache never resets when the trace is shorter than the
        // warm-up; the sweep must mirror that.
        let t = [mem(MemOp::Load, 0x000), mem(MemOp::Load, 0x000)];
        let sweep = StackDistSweep::run(32, 2, 2, 1_000, t.iter().copied()).unwrap();
        let cfg = CacheConfig::new(256, 32, 2).unwrap();
        let replay = measure_dcache(cfg, t.iter().copied(), 1_000);
        assert_eq!(sweep.stats_for(&cfg).unwrap(), replay);
        assert_eq!(replay.accesses(), 2, "nothing was discarded");
    }

    #[test]
    fn dirty_line_from_warmup_writes_back_after_warmup() {
        // The store happens inside the warm-up window; its writeback
        // lands after it and must still be counted.
        let t = [
            mem(MemOp::Store, 0x000), // dirty A (warm-up)
            mem(MemOp::Load, 0x100),  // same set in a 1-set cache
            mem(MemOp::Load, 0x200),  // evicts A → writeback (counted)
        ];
        let sweep = StackDistSweep::run(32, 0, 2, 1, t.iter().copied()).unwrap();
        let cfg = CacheConfig::new(64, 32, 2).unwrap();
        let replay = measure_dcache(cfg, t.iter().copied(), 1);
        let swept = sweep.stats_for(&cfg).unwrap();
        assert_eq!(swept, replay);
        assert_eq!(swept.writebacks, 1);
    }

    #[test]
    fn load_refetch_cleans_the_line() {
        // Store A, thrash it out of the 1-way cache, load it back: the
        // reloaded copy is clean, so its next eviction must not write
        // back in the 1-way config — while wider configs, where A never
        // left, still see it dirty.
        let t = [
            mem(MemOp::Store, 0x000), // A dirty
            mem(MemOp::Load, 0x100),  // B: evicts A in (1 set, 1 way) → wb
            mem(MemOp::Load, 0x000),  // A back, clean in 1-way
            mem(MemOp::Load, 0x100),  // B: evicts A again → clean now
            mem(MemOp::Load, 0x000),
        ];
        assert_exact(&t, 32, 2, 4, 0);
        let sweep = StackDistSweep::run(32, 0, 4, 0, t.iter().copied()).unwrap();
        assert_eq!(
            sweep.stats(0, 1).writebacks,
            1,
            "only the first eviction is dirty"
        );
        // In the 4-way config nothing is ever evicted.
        assert_eq!(sweep.stats(0, 4).writebacks, 0);
    }

    #[test]
    fn direct_mapped_conflicts_match_cache() {
        // The cache.rs thrashing scenario: two lines in the same set of
        // a direct-mapped cache never hit.
        let mut t = Vec::new();
        for _ in 0..10 {
            t.push(mem(MemOp::Load, 0));
            t.push(mem(MemOp::Load, 32 * 32)); // same set, different tag
        }
        let sweep = StackDistSweep::run(32, 5, 2, 0, t.iter().copied()).unwrap();
        let dm = sweep.stats(5, 1);
        assert_eq!(dm.hits(), 0, "direct-mapped thrash");
        let two_way = sweep.stats(4, 2);
        assert_eq!(two_way.misses(), 2, "two ways resolve the conflict");
    }

    #[test]
    fn non_power_of_two_assoc_queries_work() {
        // The sweep answers any assoc ≤ max_assoc, including non-pow2
        // (useful for curves); LRU hit counts must be monotone in ways.
        let t: Vec<Instr> = PatternTrace::new(
            WorkingSet::new(0, 2 * 1024, 0.2, 4),
            TraceShape::default(),
            9,
        )
        .take(5_000)
        .collect();
        let sweep = StackDistSweep::run(32, 0, 3, 0, t.iter().copied()).unwrap();
        let s2 = sweep.stats(0, 2);
        let s3 = sweep.stats(0, 3);
        assert!(
            s3.hits() >= s2.hits(),
            "more ways cannot hit less under LRU"
        );
    }

    #[test]
    fn rejects_bad_line_and_config_mismatches() {
        assert!(matches!(
            StackDistSweep::new(24, 3, 2, 0),
            Err(ConfigError::NotPowerOfTwo { .. })
        ));
        for assoc in [0, MAX_SWEEP_ASSOC + 1] {
            assert_eq!(
                StackDistSweep::new(32, 0, assoc, 0).err(),
                Some(ConfigError::AssocOutOfRange {
                    assoc,
                    max: MAX_SWEEP_ASSOC
                })
            );
        }
        let sweep = StackDistSweep::new(32, 3, 2, 0).unwrap();
        let other_line = CacheConfig::new(1024, 16, 2).unwrap();
        assert!(matches!(
            sweep.stats_for(&other_line),
            Err(SweepQueryError::LineMismatch { .. })
        ));
        let fifo = CacheConfig::new(1024, 32, 2)
            .unwrap()
            .with_replacement(Replacement::Fifo);
        assert_eq!(
            sweep.stats_for(&fifo),
            Err(SweepQueryError::UnsupportedPolicy)
        );
        let too_many_sets = CacheConfig::new(32 * 1024, 32, 2).unwrap();
        assert!(matches!(
            sweep.stats_for(&too_many_sets),
            Err(SweepQueryError::SetsOutOfRange { .. })
        ));
        let too_wide = CacheConfig::new(1024, 32, 4).unwrap();
        assert!(matches!(
            sweep.stats_for(&too_wide),
            Err(SweepQueryError::AssocOutOfRange { .. })
        ));
    }

    #[test]
    fn range_restricted_sweep_matches_full_sweep() {
        let trace: Vec<Instr> = PatternTrace::new(
            WorkingSet::new(0, 4 * 1024, 0.3, 4),
            TraceShape::default(),
            13,
        )
        .take(10_000)
        .collect();
        let full = StackDistSweep::run(32, 6, 2, 500, trace.iter().copied()).unwrap();
        let mut narrow = StackDistSweep::new_range(32, 3, 6, 2, 500).unwrap();
        for i in &trace {
            narrow.process(*i);
        }
        for k in 3..=6 {
            for a in 1..=2 {
                assert_eq!(
                    narrow.stats(k, a),
                    full.stats(k, a),
                    "2^{k} sets × {a} ways"
                );
            }
        }
        // Below the tracked range the checked query is rejected.
        let small = CacheConfig::new(32 * 4 * 2, 32, 2).unwrap(); // 4 sets < 2^3
        assert!(matches!(
            narrow.stats_for(&small),
            Err(SweepQueryError::SetsOutOfRange { .. })
        ));
        assert_eq!(narrow.min_sets(), 8);
    }

    #[test]
    fn process_slice_matches_per_instruction_processing() {
        let trace: Vec<Instr> = PatternTrace::new(
            ZipfWorkingSet::new(0, 8 * 1024, 8, 1.1, 0.3),
            TraceShape::default(),
            17,
        )
        .take(9_000)
        .collect();
        // Warm-up falls inside a chunk; chunk sizes straddle the
        // 64-reference store-bit words.
        for chunk in [1usize, 13, 64, 200, 4_096, 9_000] {
            let mut scalar = StackDistSweep::new(32, 5, 4, 2_500).unwrap();
            for i in &trace {
                scalar.process(*i);
            }
            let mut sliced = StackDistSweep::new(32, 5, 4, 2_500).unwrap();
            for piece in trace.chunks(chunk) {
                sliced.process_slice(piece);
            }
            assert_eq!(sliced.instructions(), scalar.instructions());
            for k in 0..=5 {
                for a in 1..=4 {
                    assert_eq!(
                        sliced.stats(k, a),
                        scalar.stats(k, a),
                        "chunk={chunk} 2^{k} sets × {a} ways"
                    );
                }
            }
        }
    }

    #[test]
    fn batches_fold_like_per_instruction_processing() {
        let trace: Vec<Instr> = PatternTrace::new(
            ZipfWorkingSet::new(0, 8 * 1024, 8, 1.1, 0.3),
            TraceShape::default(),
            19,
        )
        .take(6_000)
        .collect();
        let mut scalar = StackDistSweep::new(32, 5, 4, 2_500).unwrap();
        for i in &trace {
            scalar.process(*i);
        }
        // Batches of 100 references: the warm-up lands inside one.
        let mut batched = StackDistSweep::new(32, 5, 4, 2_500).unwrap();
        let mut cut = RefCutter::new(2_500, 0);
        let mut batch = RefBatch::with_capacity(100);
        let mut rest = &trace[..];
        while !rest.is_empty() {
            batch.clear();
            rest = &rest[cut.fill(&mut batch, rest)..];
            batched.fold(&batch);
        }
        assert_eq!(batched.instructions(), scalar.instructions());
        for k in 0..=5 {
            for a in 1..=4 {
                assert_eq!(batched.stats(k, a), scalar.stats(k, a), "2^{k} × {a}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "reference batch cut for another warm-up")]
    fn a_batch_cut_for_another_warm_up_is_refused() {
        let mut batch = RefBatch::with_capacity(4);
        RefCutter::new(5, 0).fill(&mut batch, &[mem(MemOp::Load, 0), mem(MemOp::Store, 32)]);
        StackDistSweep::new(32, 2, 2, 6).unwrap().fold(&batch);
    }

    #[test]
    fn rows_wider_than_max_assoc_stay_exact() {
        // Rows round `max_assoc` up to a power of two; the slots past
        // it must not show in any tracked configuration.
        let trace: Vec<Instr> = PatternTrace::new(
            WorkingSet::new(0, 4 * 1024, 0.4, 4),
            TraceShape::default(),
            27,
        )
        .take(12_000)
        .collect();
        for max_assoc in [3, 5, 6, 7, 64] {
            assert_exact(&trace, 32, 4, max_assoc, 1_500);
            let width = max_assoc.next_power_of_two();
            let narrow = StackDistSweep::run(32, 4, max_assoc, 1_500, trace.iter().copied());
            let wide = StackDistSweep::run(32, 4, width, 1_500, trace.iter().copied());
            let (narrow, wide) = (narrow.unwrap(), wide.unwrap());
            for k in 0..=4 {
                for a in 1..=max_assoc {
                    assert_eq!(
                        narrow.stats(k, a),
                        wide.stats(k, a),
                        "{max_assoc}: 2^{k} × {a}"
                    );
                }
            }
        }
    }

    #[test]
    fn accessors_report_coverage() {
        let sweep = StackDistSweep::new(64, 4, 8, 100).unwrap();
        assert_eq!(sweep.line_bytes(), 64);
        assert_eq!(sweep.max_sets(), 16);
        assert_eq!(sweep.max_assoc(), 8);
        assert_eq!(sweep.instructions(), 0);
    }

    #[test]
    fn matches_cache_outcome_stream() {
        // Beyond aggregate stats: cross-check hit/miss access by access
        // against a live Cache for one config.
        let trace: Vec<Instr> = PatternTrace::new(
            WorkingSet::new(0, 4 * 1024, 0.4, 4),
            TraceShape::default(),
            21,
        )
        .take(4_000)
        .collect();
        let cfg = CacheConfig::new(2 * 1024, 32, 2).unwrap();
        let mut cache = Cache::new(cfg);
        let mut sweep = StackDistSweep::new(32, cfg.num_sets().trailing_zeros(), 2, 0).unwrap();
        let mut hits_replay = 0u64;
        for i in &trace {
            if let Some(m) = i.mem {
                if cache.access(m.op, m.addr).hit {
                    hits_replay += 1;
                }
            }
            sweep.process(*i);
        }
        assert_eq!(sweep.stats_for(&cfg).unwrap().hits(), hits_replay);
    }
}
