//! The core set-associative cache model.

use crate::config::{CacheConfig, Replacement, WriteMiss, WritePolicy};
use crate::stats::CacheStats;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use simtrace::{Addr, LineAddr, MemOp};

/// What one access did to the cache and to memory traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessOutcome {
    /// Whether the access hit.
    pub hit: bool,
    /// The line the access touched.
    pub line: LineAddr,
    /// A line fill was started (read miss, or write miss under
    /// write-allocate).
    pub filled: bool,
    /// A dirty victim must be written back to memory.
    pub writeback: Option<LineAddr>,
    /// The access was a store sent around the cache (write-around miss).
    pub write_around: bool,
    /// The access was a store propagated to memory by write-through.
    pub write_through: bool,
}

impl AccessOutcome {
    /// Returns `true` when the access needs any memory traffic at all.
    pub fn uses_memory(&self) -> bool {
        self.filled || self.writeback.is_some() || self.write_around || self.write_through
    }
}

#[derive(Debug, Clone, Copy)]
struct Way {
    tag: u64,
    dirty: bool,
    use_stamp: u64,
    fill_stamp: u64,
}

#[derive(Debug, Clone)]
struct Set {
    ways: Vec<Option<Way>>,
    plru: u128,
}

/// A single set-associative cache.
///
/// See the crate-level docs for an example.
#[derive(Debug, Clone)]
pub struct Cache {
    cfg: CacheConfig,
    sets: Vec<Set>,
    stats: CacheStats,
    stamp: u64,
    rng: SmallRng,
    // Geometry is all powers of two; the hot path indexes with shifts
    // and masks instead of division.
    line_shift: u32,
    set_shift: u32,
    set_mask: u64,
}

impl Cache {
    /// Creates an empty (all-invalid) cache.
    ///
    /// # Panics
    ///
    /// Panics if tree-PLRU replacement is requested with more than 64
    /// ways (the tree state is bounded).
    pub fn new(cfg: CacheConfig) -> Self {
        assert!(
            cfg.replacement != Replacement::TreePlru || cfg.assoc() <= 64,
            "tree-PLRU supports at most 64 ways"
        );
        let sets = (0..cfg.num_sets())
            .map(|_| Set {
                ways: vec![None; cfg.assoc() as usize],
                plru: 0,
            })
            .collect();
        Cache {
            cfg,
            sets,
            stats: CacheStats::new(),
            stamp: 0,
            rng: SmallRng::seed_from_u64(cfg.seed),
            line_shift: cfg.line_bytes().trailing_zeros(),
            set_shift: cfg.num_sets().trailing_zeros(),
            set_mask: cfg.num_sets() - 1,
        }
    }

    /// The configuration this cache was built with.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Resets the statistics without touching cache contents (useful for
    /// warm-up periods).
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::new();
    }

    #[inline]
    fn line_addr(&self, addr: Addr) -> LineAddr {
        LineAddr::new(addr.raw() >> self.line_shift)
    }

    #[inline]
    fn set_and_tag(&self, line: LineAddr) -> (usize, u64) {
        (
            (line.raw() & self.set_mask) as usize,
            line.raw() >> self.set_shift,
        )
    }

    /// Index of the valid way holding `tag`, if any.
    #[inline]
    fn find_way(ways: &[Option<Way>], tag: u64) -> Option<usize> {
        ways.iter()
            .position(|w| matches!(w, Some(w) if w.tag == tag))
    }

    /// Returns `true` if the line holding `addr` is resident.
    pub fn contains(&self, addr: Addr) -> bool {
        let (set_idx, tag) = self.set_and_tag(self.line_addr(addr));
        self.sets[set_idx]
            .ways
            .iter()
            .flatten()
            .any(|w| w.tag == tag)
    }

    /// Returns `true` if the line holding `addr` is resident and dirty.
    pub fn is_dirty(&self, addr: Addr) -> bool {
        let (set_idx, tag) = self.set_and_tag(self.line_addr(addr));
        self.sets[set_idx]
            .ways
            .iter()
            .flatten()
            .any(|w| w.tag == tag && w.dirty)
    }

    /// Number of currently valid lines.
    pub fn resident_lines(&self) -> u64 {
        self.sets
            .iter()
            .map(|s| s.ways.iter().flatten().count() as u64)
            .sum()
    }

    /// Invalidates every line, returning how many dirty lines were dropped.
    ///
    /// No writebacks are generated; callers modelling a flush should use
    /// [`Cache::flush_all`].
    pub fn invalidate_all(&mut self) -> u64 {
        let mut dirty = 0;
        for set in &mut self.sets {
            for way in &mut set.ways {
                if matches!(way, Some(w) if w.dirty) {
                    dirty += 1;
                }
                *way = None;
            }
            set.plru = 0;
        }
        dirty
    }

    /// Writes back every dirty line (marking it clean) and returns the
    /// written-back line addresses.
    pub fn flush_all(&mut self) -> Vec<LineAddr> {
        let mut flushed = Vec::new();
        let set_shift = self.set_shift;
        for (set_idx, set) in self.sets.iter_mut().enumerate() {
            for way in set.ways.iter_mut().flatten() {
                if way.dirty {
                    way.dirty = false;
                    flushed.push(LineAddr::new((way.tag << set_shift) | set_idx as u64));
                }
            }
        }
        self.stats.writebacks += flushed.len() as u64;
        flushed
    }

    /// Performs one access and returns its outcome.
    ///
    /// Operand size is assumed not to straddle a line (the trace
    /// generators align operands), so a single line is touched.
    #[inline]
    pub fn access(&mut self, op: MemOp, addr: Addr) -> AccessOutcome {
        self.stamp += 1;
        let line = self.line_addr(addr);
        let (set_idx, tag) = self.set_and_tag(line);
        let assoc = self.cfg.assoc() as usize;

        // Hit path.
        if let Some(way_idx) = Self::find_way(&self.sets[set_idx].ways, tag) {
            let stamp = self.stamp;
            let write_through;
            {
                let set = &mut self.sets[set_idx];
                let way = set.ways[way_idx].as_mut().expect("hit way is valid");
                way.use_stamp = stamp;
                write_through = match (op, self.cfg.write_policy) {
                    (MemOp::Store, WritePolicy::WriteBack) => {
                        way.dirty = true;
                        false
                    }
                    (MemOp::Store, WritePolicy::WriteThrough) => true,
                    (MemOp::Load, _) => false,
                };
                if self.cfg.replacement == Replacement::TreePlru {
                    Self::plru_touch(&mut set.plru, way_idx, assoc);
                }
            }
            match op {
                MemOp::Load => self.stats.load_hits += 1,
                MemOp::Store => self.stats.store_hits += 1,
            }
            if write_through {
                self.stats.write_throughs += 1;
            }
            return AccessOutcome {
                hit: true,
                line,
                filled: false,
                writeback: None,
                write_around: false,
                write_through,
            };
        }

        // Miss path.
        match op {
            MemOp::Load => self.stats.load_misses += 1,
            MemOp::Store => self.stats.store_misses += 1,
        }

        if op.is_store() && self.cfg.write_miss == WriteMiss::Around {
            // Write-around: no allocation; the store itself travels to
            // memory (one `W` event).
            self.stats.write_arounds += 1;
            return AccessOutcome {
                hit: false,
                line,
                filled: false,
                writeback: None,
                write_around: true,
                write_through: false,
            };
        }

        // Allocate a way (read miss, or write miss under write-allocate).
        let victim_idx = self.pick_victim(set_idx);
        let set_shift = self.set_shift;
        let stamp = self.stamp;
        let set = &mut self.sets[set_idx];
        let writeback = set.ways[victim_idx]
            .filter(|w| w.dirty)
            .map(|w| LineAddr::new((w.tag << set_shift) | set_idx as u64));
        let dirty_after_fill = op.is_store() && self.cfg.write_policy == WritePolicy::WriteBack;
        set.ways[victim_idx] = Some(Way {
            tag,
            dirty: dirty_after_fill,
            use_stamp: stamp,
            fill_stamp: stamp,
        });
        if self.cfg.replacement == Replacement::TreePlru {
            Self::plru_touch(&mut set.plru, victim_idx, assoc);
        }

        self.stats.fills += 1;
        if writeback.is_some() {
            self.stats.writebacks += 1;
        }
        let write_through = op.is_store() && self.cfg.write_policy == WritePolicy::WriteThrough;
        if write_through {
            self.stats.write_throughs += 1;
        }
        AccessOutcome {
            hit: false,
            line,
            filled: true,
            writeback,
            write_around: false,
            write_through,
        }
    }

    fn pick_victim(&mut self, set_idx: usize) -> usize {
        // Invalid ways first.
        if let Some(idx) = self.sets[set_idx].ways.iter().position(Option::is_none) {
            return idx;
        }
        let assoc = self.cfg.assoc() as usize;
        let set = &self.sets[set_idx];
        match self.cfg.replacement {
            Replacement::Lru => (0..assoc)
                .min_by_key(|&i| set.ways[i].expect("all ways valid").use_stamp)
                .expect("associativity is positive"),
            Replacement::Fifo => (0..assoc)
                .min_by_key(|&i| set.ways[i].expect("all ways valid").fill_stamp)
                .expect("associativity is positive"),
            Replacement::Random => self.rng.gen_range(0..assoc),
            Replacement::TreePlru => Self::plru_victim(set.plru, assoc),
        }
    }

    /// Updates the PLRU tree so the path to `way` points *away* from it.
    ///
    /// The tree is stored as a heap in the bits of `plru`: node 1 is the
    /// root, node `n` has children `2n` (left, bit = 0) and `2n + 1`
    /// (right, bit = 1).
    fn plru_touch(plru: &mut u128, way: usize, assoc: usize) {
        if assoc <= 1 {
            return;
        }
        let mut node = 1usize;
        let mut levels = assoc.trailing_zeros();
        while levels > 0 {
            levels -= 1;
            let right = (way >> levels) & 1;
            // Point the bit at the *other* child.
            if right == 1 {
                *plru &= !(1u128 << node);
            } else {
                *plru |= 1u128 << node;
            }
            node = node * 2 + right;
        }
    }

    /// Follows the PLRU tree bits to the pseudo-least-recently-used way.
    fn plru_victim(plru: u128, assoc: usize) -> usize {
        if assoc <= 1 {
            return 0;
        }
        let mut node = 1usize;
        let mut way = 0usize;
        let mut levels = assoc.trailing_zeros();
        while levels > 0 {
            levels -= 1;
            let bit = ((plru >> node) & 1) as usize;
            way = (way << 1) | bit;
            node = node * 2 + bit;
        }
        way
    }

    /// Brings the line containing `addr` into the cache *without* a
    /// demand access — the insertion half of a next-line prefetcher.
    ///
    /// Returns `None` when the line is already resident (no traffic);
    /// otherwise returns the dirty victim that must be written back, if
    /// any. Prefetched lines are clean and counted in
    /// [`CacheStats::prefetch_fills`], not in `fills`, so demand-miss
    /// accounting (and the measured `φ`) stays untouched.
    pub fn prefetch(&mut self, addr: Addr) -> Option<Option<LineAddr>> {
        let line = self.line_addr(addr);
        let (set_idx, tag) = self.set_and_tag(line);
        if Self::find_way(&self.sets[set_idx].ways, tag).is_some() {
            return None;
        }
        self.stamp += 1;
        let assoc = self.cfg.assoc() as usize;
        let victim_idx = self.pick_victim(set_idx);
        let set_shift = self.set_shift;
        let stamp = self.stamp;
        let set = &mut self.sets[set_idx];
        let writeback = set.ways[victim_idx]
            .filter(|w| w.dirty)
            .map(|w| LineAddr::new((w.tag << set_shift) | set_idx as u64));
        set.ways[victim_idx] = Some(Way {
            tag,
            dirty: false,
            use_stamp: stamp,
            fill_stamp: stamp,
        });
        if self.cfg.replacement == Replacement::TreePlru {
            Self::plru_touch(&mut set.plru, victim_idx, assoc);
        }
        self.stats.prefetch_fills += 1;
        if writeback.is_some() {
            self.stats.writebacks += 1;
        }
        Some(writeback)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(size: u64, line: u64, assoc: u32) -> CacheConfig {
        CacheConfig::new(size, line, assoc).expect("valid config")
    }

    fn load(c: &mut Cache, a: u64) -> AccessOutcome {
        c.access(MemOp::Load, Addr::new(a))
    }

    fn store(c: &mut Cache, a: u64) -> AccessOutcome {
        c.access(MemOp::Store, Addr::new(a))
    }

    #[test]
    fn cold_miss_then_hit_same_line() {
        let mut c = Cache::new(cfg(1024, 32, 2));
        assert!(!load(&mut c, 0x100).hit);
        assert!(load(&mut c, 0x11F).hit);
        assert!(!load(&mut c, 0x120).hit);
        assert_eq!(c.stats().load_hits, 1);
        assert_eq!(c.stats().load_misses, 2);
    }

    #[test]
    fn hits_plus_misses_equals_accesses() {
        let mut c = Cache::new(cfg(512, 32, 2));
        for i in 0..1000u64 {
            load(&mut c, (i * 13) % 4096);
        }
        assert_eq!(c.stats().accesses(), 1000);
        assert_eq!(c.stats().hits() + c.stats().misses(), 1000);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        // 2 ways, 1 set (fully associative 64B cache, 32B lines).
        let mut c = Cache::new(cfg(64, 32, 2));
        load(&mut c, 0x000); // line A
        load(&mut c, 0x020); // line B
        load(&mut c, 0x000); // touch A: B is LRU
        let out = load(&mut c, 0x040); // line C evicts B
        assert!(!out.hit);
        assert!(c.contains(Addr::new(0x000)), "A should survive");
        assert!(!c.contains(Addr::new(0x020)), "B should be evicted");
    }

    #[test]
    fn fifo_evicts_oldest_fill() {
        let mut c = Cache::new(cfg(64, 32, 2).with_replacement(Replacement::Fifo));
        load(&mut c, 0x000); // A filled first
        load(&mut c, 0x020); // B
        load(&mut c, 0x000); // touching A does not matter for FIFO
        load(&mut c, 0x040); // C evicts A
        assert!(!c.contains(Addr::new(0x000)));
        assert!(c.contains(Addr::new(0x020)));
    }

    #[test]
    fn tree_plru_is_exact_lru_for_two_ways() {
        let mut plru_cache = Cache::new(cfg(64, 32, 2).with_replacement(Replacement::TreePlru));
        let mut lru_cache = Cache::new(cfg(64, 32, 2));
        let pattern = [0x000u64, 0x020, 0x000, 0x040, 0x020, 0x060, 0x000];
        for a in pattern {
            let p = load(&mut plru_cache, a).hit;
            let l = load(&mut lru_cache, a).hit;
            assert_eq!(p, l, "PLRU and LRU diverged at {a:#x}");
        }
    }

    #[test]
    fn random_replacement_is_reproducible() {
        let mk = || {
            Cache::new(
                cfg(128, 32, 4)
                    .with_replacement(Replacement::Random)
                    .with_seed(9),
            )
        };
        let mut a = mk();
        let mut b = mk();
        for i in 0..2000u64 {
            let addr = (i * 97) % 8192;
            assert_eq!(load(&mut a, addr).hit, load(&mut b, addr).hit);
        }
    }

    #[test]
    fn writeback_on_dirty_eviction() {
        let mut c = Cache::new(cfg(64, 32, 2));
        store(&mut c, 0x000); // A dirty (write-allocate fill)
        load(&mut c, 0x020); // B
        let out = load(&mut c, 0x040); // evicts A (LRU) → writeback
        assert_eq!(out.writeback, Some(Addr::new(0x000).line(32)));
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn clean_eviction_has_no_writeback() {
        let mut c = Cache::new(cfg(64, 32, 2));
        load(&mut c, 0x000);
        load(&mut c, 0x020);
        let out = load(&mut c, 0x040);
        assert_eq!(out.writeback, None);
        assert_eq!(c.stats().writebacks, 0);
    }

    #[test]
    fn write_allocate_fills_on_store_miss() {
        let mut c = Cache::new(cfg(1024, 32, 2));
        let out = store(&mut c, 0x100);
        assert!(!out.hit && out.filled && !out.write_around);
        assert!(c.contains(Addr::new(0x100)));
        assert!(c.is_dirty(Addr::new(0x100)));
        assert_eq!(c.stats().fills, 1);
    }

    #[test]
    fn write_around_does_not_allocate() {
        let mut c = Cache::new(cfg(1024, 32, 2).with_write_miss(WriteMiss::Around));
        let out = store(&mut c, 0x100);
        assert!(!out.hit && !out.filled && out.write_around);
        assert!(!c.contains(Addr::new(0x100)));
        assert_eq!(c.stats().write_arounds, 1);
        // A subsequent load still misses.
        assert!(!load(&mut c, 0x100).hit);
    }

    #[test]
    fn write_through_never_dirties() {
        let mut c = Cache::new(cfg(1024, 32, 2).with_write_policy(WritePolicy::WriteThrough));
        store(&mut c, 0x100);
        store(&mut c, 0x104);
        assert!(!c.is_dirty(Addr::new(0x100)));
        assert_eq!(c.stats().write_throughs, 2);
        // Eviction of a write-through line produces no writeback.
        let mut tiny = Cache::new(
            CacheConfig::new(64, 32, 2)
                .unwrap()
                .with_write_policy(WritePolicy::WriteThrough),
        );
        store(&mut tiny, 0x000);
        load(&mut tiny, 0x020);
        let out = load(&mut tiny, 0x040);
        assert_eq!(out.writeback, None);
    }

    #[test]
    fn store_hit_dirties_write_back_line() {
        let mut c = Cache::new(cfg(1024, 32, 2));
        load(&mut c, 0x100);
        assert!(!c.is_dirty(Addr::new(0x100)));
        store(&mut c, 0x104);
        assert!(c.is_dirty(Addr::new(0x100)));
    }

    #[test]
    fn flush_all_cleans_dirty_lines() {
        let mut c = Cache::new(cfg(1024, 32, 2));
        store(&mut c, 0x000);
        store(&mut c, 0x100);
        load(&mut c, 0x200);
        let flushed = c.flush_all();
        assert_eq!(flushed.len(), 2);
        assert!(!c.is_dirty(Addr::new(0x000)));
        assert_eq!(c.stats().writebacks, 2);
        assert!(c.flush_all().is_empty(), "second flush finds nothing dirty");
    }

    #[test]
    fn invalidate_all_empties_cache() {
        let mut c = Cache::new(cfg(1024, 32, 2));
        store(&mut c, 0x000);
        load(&mut c, 0x100);
        let dropped_dirty = c.invalidate_all();
        assert_eq!(dropped_dirty, 1);
        assert_eq!(c.resident_lines(), 0);
        assert!(!c.contains(Addr::new(0x000)));
    }

    #[test]
    fn fills_bounded_by_capacity_for_resident_working_set() {
        // Working set fits: after the cold pass everything hits.
        let mut c = Cache::new(cfg(4096, 32, 2));
        for round in 0..3 {
            for i in 0..64u64 {
                let hit = load(&mut c, i * 32).hit;
                assert_eq!(hit, round > 0, "round {round} line {i}");
            }
        }
        assert_eq!(c.stats().fills, 64);
        assert_eq!(c.resident_lines(), 64);
    }

    #[test]
    fn direct_mapped_conflict_thrashing() {
        // Two lines mapping to the same set of a direct-mapped cache
        // alternate and never hit.
        let c_cfg = cfg(1024, 32, 1);
        let sets = c_cfg.num_sets(); // 32
        let mut c = Cache::new(c_cfg);
        let a = 0u64;
        let b = sets * 32; // same set, different tag
        for _ in 0..10 {
            assert!(!load(&mut c, a).hit);
            assert!(!load(&mut c, b).hit);
        }
    }

    #[test]
    fn two_way_resolves_that_conflict() {
        let c_cfg = cfg(1024, 32, 2);
        let sets = c_cfg.num_sets(); // 16
        let mut c = Cache::new(c_cfg);
        let a = 0u64;
        let b = sets * 32;
        load(&mut c, a);
        load(&mut c, b);
        for _ in 0..10 {
            assert!(load(&mut c, a).hit);
            assert!(load(&mut c, b).hit);
        }
    }

    #[test]
    fn uses_memory_flags() {
        let mut c = Cache::new(cfg(64, 32, 2));
        assert!(load(&mut c, 0).uses_memory()); // fill
        assert!(!load(&mut c, 0).uses_memory()); // pure hit
    }

    #[test]
    fn reset_stats_keeps_contents() {
        let mut c = Cache::new(cfg(1024, 32, 2));
        load(&mut c, 0x100);
        c.reset_stats();
        assert_eq!(c.stats().accesses(), 0);
        assert!(load(&mut c, 0x100).hit, "contents survive reset");
    }

    #[test]
    fn prefetch_inserts_clean_line() {
        let mut c = Cache::new(cfg(1024, 32, 2));
        assert_eq!(c.prefetch(Addr::new(0x100)), Some(None));
        assert!(c.contains(Addr::new(0x100)));
        assert!(!c.is_dirty(Addr::new(0x100)));
        assert!(load(&mut c, 0x100).hit, "prefetched line hits on demand");
        assert_eq!(c.stats().prefetch_fills, 1);
        assert_eq!(c.stats().fills, 0, "prefetches are not demand fills");
    }

    #[test]
    fn prefetch_of_resident_line_is_a_no_op() {
        let mut c = Cache::new(cfg(1024, 32, 2));
        load(&mut c, 0x100);
        assert_eq!(c.prefetch(Addr::new(0x104)), None);
        assert_eq!(c.stats().prefetch_fills, 0);
    }

    #[test]
    fn prefetch_evicting_dirty_line_reports_writeback() {
        let mut c = Cache::new(cfg(64, 32, 2));
        store(&mut c, 0x000);
        load(&mut c, 0x020);
        // Set is full; prefetching a third line evicts LRU (the dirty
        // store line).
        let wb = c.prefetch(Addr::new(0x040)).expect("line not resident");
        assert_eq!(wb, Some(Addr::new(0x000).line(32)));
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn plru_victim_covers_all_ways_over_time() {
        // With 4 ways and accesses cycling 5 lines in one set, every way
        // must eventually be chosen as a victim (no way is starved).
        let c_cfg = cfg(128, 32, 4); // 1 set
        let mut c = Cache::new(c_cfg.with_replacement(Replacement::TreePlru));
        let mut evictions = std::collections::HashSet::new();
        for i in 0..200u64 {
            let addr = (i % 5) * 32;
            let before: Vec<u64> = (0..5)
                .map(|k| k * 32)
                .filter(|&a| c.contains(Addr::new(a)))
                .collect();
            let out = load(&mut c, addr);
            if out.filled {
                for a in before {
                    if !c.contains(Addr::new(a)) {
                        evictions.insert(a);
                    }
                }
            }
        }
        assert!(
            evictions.len() >= 4,
            "evictions spread across ways: {evictions:?}"
        );
    }
}
