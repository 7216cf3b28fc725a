//! Design-space exploration helpers.
//!
//! The line-size experiments (paper Section 5.4 and Figure 6) need hit
//! ratios as a function of cache size, line size and associativity for
//! a fixed workload, with an optional warm-up period excluded from the
//! statistics so cold-start misses do not bias small sweeps.
//!
//! A [`GridSpec`] describes such a grid. [`GridSpec::sweeps`] builds one
//! [`StackDistSweep`] per line size, so any fold of the trace through
//! them answers the whole grid in `O(|lines| · N)` trace work instead
//! of the naive `O(|sizes| · |lines| · |assocs| · N)`;
//! [`Simulated::points`] reads the points back out. The
//! per-configuration replay survives as [`hit_ratio_grid_replay`], the
//! reference implementation the sweeps are validated against.

use crate::cache::Cache;
use crate::config::{CacheConfig, ConfigError};
use crate::hitratio::Simulated;
use crate::stackdist::StackDistSweep;
use crate::stats::CacheStats;
use serde::{Deserialize, Serialize};
use simtrace::{Instr, RefCutter};

/// One point of a hit-ratio sweep.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HitRatioPoint {
    /// Cache capacity in bytes.
    pub cache_bytes: u64,
    /// Line size in bytes.
    pub line_bytes: u64,
    /// Associativity.
    pub assoc: u32,
    /// Data-cache hit ratio measured after warm-up.
    pub hit_ratio: f64,
    /// Measured flush ratio `α` (writebacks per fill).
    pub flush_ratio: f64,
}

impl HitRatioPoint {
    /// The point `stats` measure for `cfg`.
    pub fn new(cfg: &CacheConfig, stats: &CacheStats) -> Self {
        HitRatioPoint {
            cache_bytes: cfg.size_bytes(),
            line_bytes: cfg.line_bytes(),
            assoc: cfg.assoc(),
            hit_ratio: stats.hit_ratio(),
            flush_ratio: stats.flush_ratio(),
        }
    }
}

/// Runs the data references of `trace` through a cache and returns the
/// post-warm-up statistics.
///
/// `warmup` instructions are executed first with statistics discarded.
pub fn measure_dcache(
    cfg: CacheConfig,
    trace: impl IntoIterator<Item = Instr>,
    warmup: u64,
) -> CacheStats {
    let mut cache = Cache::new(cfg);
    let mut n = 0u64;
    for instr in trace {
        if let Some(m) = instr.mem {
            cache.access(m.op, m.addr);
        }
        n += 1;
        if n == warmup {
            cache.reset_stats();
        }
    }
    *cache.stats()
}

/// A (cache size × line size × associativity) hit-ratio grid: LRU,
/// write-back, write-allocate throughout — exactly the single-pass
/// sweep's domain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GridSpec {
    /// Cache capacities in bytes (powers of two).
    pub cache_sizes: Vec<u64>,
    /// Line sizes in bytes (powers of two).
    pub line_sizes: Vec<u64>,
    /// Associativities.
    pub assocs: Vec<u32>,
    /// Instructions excluded from statistics.
    pub warmup: u64,
}

impl GridSpec {
    /// The comparison grid: Figure-6 capacities and line sizes crossed
    /// with associativity 1/2/4 — 105 points per workload.
    pub fn comparison(warmup: u64) -> Self {
        GridSpec {
            cache_sizes: (0..=6).map(|i| 1024u64 << i).collect(),
            line_sizes: vec![8, 16, 32, 64, 128],
            assocs: vec![1, 2, 4],
            warmup,
        }
    }

    /// Grid points per workload.
    pub fn points(&self) -> usize {
        self.cache_sizes.len() * self.line_sizes.len() * self.assocs.len()
    }

    /// Smallest set count any configuration needs at `line_bytes`.
    pub fn min_sets(&self, line_bytes: u64) -> u64 {
        let amax = u64::from(*self.assocs.iter().max().expect("grid has assocs"));
        self.cache_sizes
            .iter()
            .map(|&c| c / (line_bytes * amax))
            .min()
            .expect("grid has cache sizes")
    }

    /// Largest set count any configuration needs at `line_bytes`.
    pub fn max_sets(&self, line_bytes: u64) -> u64 {
        let amin = u64::from(*self.assocs.iter().min().expect("grid has assocs"));
        self.cache_sizes
            .iter()
            .map(|&c| c / (line_bytes * amin))
            .max()
            .expect("grid has cache sizes")
    }

    /// Every configuration of the grid, in (cache, line, assoc) order.
    pub(crate) fn configs(&self) -> impl Iterator<Item = Result<CacheConfig, ConfigError>> + '_ {
        self.cache_sizes.iter().flat_map(move |&cache_bytes| {
            self.line_sizes.iter().flat_map(move |&line_bytes| {
                self.assocs
                    .iter()
                    .map(move |&assoc| CacheConfig::new(cache_bytes, line_bytes, assoc))
            })
        })
    }

    /// One [`StackDistSweep`] per line size, each tracking exactly the
    /// set counts and the widest associativity the grid queries: one
    /// fold of the trace through them answers every point.
    ///
    /// # Errors
    ///
    /// The first [`ConfigError`] of an invalid combination in grid
    /// order (for example a line larger than a way), the same error
    /// [`hit_ratio_grid_replay`] reports; then
    /// [`ConfigError::AssocOutOfRange`] for an associativity wider than
    /// a sweep tracks.
    pub fn sweeps(&self) -> Result<Vec<StackDistSweep>, ConfigError> {
        for cfg in self.configs() {
            cfg?;
        }
        if self.points() == 0 {
            return Ok(Vec::new());
        }
        let amax = *self.assocs.iter().max().expect("grid has assocs");
        self.line_sizes
            .iter()
            .map(|&line_bytes| {
                StackDistSweep::new_range(
                    line_bytes,
                    self.min_sets(line_bytes).trailing_zeros(),
                    self.max_sets(line_bytes).trailing_zeros(),
                    amax,
                    self.warmup,
                )
            })
            .collect()
    }

    /// Folds a whole materialised trace through [`GridSpec::sweeps`] in
    /// one serial walk: each reference batch is cut once and folded by
    /// every sweep in turn.
    ///
    /// # Errors
    ///
    /// As [`GridSpec::sweeps`].
    ///
    /// # Example
    ///
    /// ```
    /// use simcache::explore::GridSpec;
    /// use simtrace::gen::{PatternTrace, TraceShape, WorkingSet};
    ///
    /// let grid = GridSpec {
    ///     cache_sizes: vec![4096, 8192],
    ///     line_sizes: vec![16, 32],
    ///     assocs: vec![2],
    ///     warmup: 2_000,
    /// };
    /// let trace: Vec<_> =
    ///     PatternTrace::new(WorkingSet::new(0, 16 * 1024, 0.3, 4), TraceShape::default(), 1)
    ///         .take(20_000)
    ///         .collect();
    /// let points = grid.simulate(&trace)?.points(&grid)?;
    /// assert_eq!(points.len(), 4);
    /// // Bigger cache, same line: hit ratio must not fall.
    /// assert!(points[2].hit_ratio >= points[0].hit_ratio - 0.01);
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    pub fn simulate(&self, trace: &[Instr]) -> Result<Simulated, ConfigError> {
        let mut sweeps = self.sweeps()?;
        RefCutter::new(self.warmup, 0).fold_slice(trace, |batch| {
            for sweep in &mut sweeps {
                sweep.fold(batch);
            }
        });
        Ok(Simulated::from_sweeps(sweeps))
    }
}

/// Reference implementation of the grid: replays the trace once per
/// configuration through a live [`Cache`], in (cache, line, assoc)
/// order.
///
/// Costs `O(|configs| · N)` trace work against the sweeps'
/// `O(|lines| · N)`; kept as the oracle the single-pass engine is
/// validated against.
///
/// # Errors
///
/// Returns the first [`ConfigError`] produced by an invalid combination.
pub fn hit_ratio_grid_replay<T, F>(
    grid: &GridSpec,
    mut make_trace: F,
) -> Result<Vec<HitRatioPoint>, ConfigError>
where
    T: IntoIterator<Item = Instr>,
    F: FnMut() -> T,
{
    grid.configs()
        .map(|cfg| {
            let cfg = cfg?;
            let stats = measure_dcache(cfg, make_trace(), grid.warmup);
            Ok(HitRatioPoint::new(&cfg, &stats))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use simtrace::gen::{PatternTrace, StridedSweep, TraceShape, WorkingSet};

    fn ws_trace(bytes: u64, n: usize) -> impl Iterator<Item = Instr> {
        PatternTrace::new(WorkingSet::new(0, bytes, 0.3, 4), TraceShape::default(), 7).take(n)
    }

    fn grid(cache_sizes: &[u64], line_sizes: &[u64], assoc: u32, warmup: u64) -> GridSpec {
        GridSpec {
            cache_sizes: cache_sizes.to_vec(),
            line_sizes: line_sizes.to_vec(),
            assocs: vec![assoc],
            warmup,
        }
    }

    /// The grid's points from one serial sweep pass.
    fn swept(grid: &GridSpec, trace: impl Iterator<Item = Instr>) -> Vec<HitRatioPoint> {
        let trace: Vec<Instr> = trace.collect();
        grid.simulate(&trace).unwrap().points(grid).unwrap()
    }

    #[test]
    fn fitting_working_set_hits_after_warmup() {
        let cfg = CacheConfig::new(16 * 1024, 32, 2).unwrap();
        let stats = measure_dcache(cfg, ws_trace(8 * 1024, 100_000), 50_000);
        assert!(
            stats.hit_ratio() > 0.999,
            "resident set should hit: {}",
            stats.hit_ratio()
        );
    }

    #[test]
    fn oversized_working_set_misses_more() {
        let cfg = CacheConfig::new(4 * 1024, 32, 2).unwrap();
        let small = measure_dcache(cfg, ws_trace(2 * 1024, 50_000), 10_000);
        let large = measure_dcache(cfg, ws_trace(64 * 1024, 50_000), 10_000);
        assert!(small.hit_ratio() > large.hit_ratio() + 0.2);
    }

    #[test]
    fn hit_ratio_grows_with_cache_size() {
        let g = grid(&[2048, 8192, 32768], &[32], 2, 10_000);
        let points = swept(&g, ws_trace(16 * 1024, 60_000));
        assert!(points[0].hit_ratio < points[1].hit_ratio);
        assert!(points[1].hit_ratio <= points[2].hit_ratio + 1e-9);
    }

    #[test]
    fn larger_lines_help_strided_code() {
        let strided = PatternTrace::new(
            StridedSweep::new(0, 1 << 20, 4, 4, 0),
            TraceShape::default(),
            3,
        )
        .take(60_000);
        let points = swept(&grid(&[8192], &[8, 64], 2, 5_000), strided);
        // A unit-stride sweep misses once per line: larger lines mean
        // fewer misses.
        assert!(
            points[1].hit_ratio > points[0].hit_ratio + 0.05,
            "64B {} vs 8B {}",
            points[1].hit_ratio,
            points[0].hit_ratio
        );
    }

    #[test]
    fn grid_propagates_config_errors() {
        let g = grid(&[64], &[64], 2, 0);
        assert!(matches!(g.sweeps(), Err(ConfigError::LineTooLarge { .. })));
        assert_eq!(
            g.sweeps().err(),
            hit_ratio_grid_replay(&g, || ws_trace(128, 10)).err()
        );
    }

    #[test]
    fn too_wide_grid_is_a_typed_error() {
        // 2 sets of 65 536 ways: a valid cache, but wider than the
        // sweep's widest row.
        let g = grid(&[1 << 20], &[8], 1 << 16, 0);
        assert!(CacheConfig::new(1 << 20, 8, 1 << 16).is_ok());
        assert_eq!(
            g.sweeps().err(),
            Some(ConfigError::AssocOutOfRange {
                assoc: 1 << 16,
                max: crate::stackdist::MAX_SWEEP_ASSOC,
            })
        );
    }

    #[test]
    fn grid_sweeps_are_bit_identical_to_replay() {
        let g = GridSpec {
            cache_sizes: vec![1024, 4096, 16 * 1024],
            line_sizes: vec![16, 32, 64],
            assocs: vec![1, 2, 4],
            warmup: 5_000,
        };
        let fast = swept(&g, ws_trace(8 * 1024, 30_000));
        let replay = hit_ratio_grid_replay(&g, || ws_trace(8 * 1024, 30_000)).unwrap();
        // Same counters, same divisions: the f64s must be identical,
        // not merely close.
        assert_eq!(fast, replay);
        assert_eq!(fast.len(), g.points());
    }

    #[test]
    fn empty_grid_yields_no_points() {
        for g in [grid(&[], &[32], 2, 0), grid(&[1024], &[], 2, 0)] {
            assert_eq!(swept(&g, ws_trace(128, 10)), vec![]);
        }
    }

    #[test]
    fn comparison_grid_shape() {
        let g = GridSpec::comparison(0);
        assert_eq!(g.points(), 7 * 5 * 3);
        // Smallest geometry: 1 KB of 128 B lines 4-way = 2 sets;
        // largest: 64 KB of 8 B lines direct-mapped = 8192 sets.
        assert_eq!(g.min_sets(128), 2);
        assert_eq!(g.max_sets(8), 8192);
    }

    #[test]
    fn warmup_zero_counts_everything() {
        let cfg = CacheConfig::new(1024, 32, 2).unwrap();
        let stats = measure_dcache(cfg, ws_trace(512, 1_000), 0);
        assert!(stats.accesses() > 0);
        assert!(stats.misses() > 0, "cold misses counted when warmup is 0");
    }
}
