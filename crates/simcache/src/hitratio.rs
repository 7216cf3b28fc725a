//! Hit-ratio backends: simulated sweeps and the closed-form
//! reuse-distance model behind one trait.
//!
//! The methodology prices every architectural feature in units of cache
//! hit ratio, so answering `(cache, line, assoc) → hit ratio` is the
//! hot path of the whole system. [`HitRatioBackend`] abstracts the two
//! ways to answer it:
//!
//! * [`Simulated`] — the exact [`StackDistSweep`] engine: one pass over
//!   the trace per line size, every covered geometry bit-identical to
//!   [`crate::Cache`] replay.
//! * [`Analytic`] — no simulation at all: a reuse-distance histogram
//!   per line size (one streaming
//!   [`ReuseHistograms`](simtrace::ReuseHistograms) pass per workload,
//!   memoised upstream) answers **fully-associative LRU exactly** (a
//!   cache of `k` lines hits precisely the references with reuse
//!   distance `< k` — Mattson 1970) and set-associative geometries via
//!   the *binomial set-conflict model*: the `d` distinct lines between
//!   consecutive touches of a line land in its set
//!   `Binomial(d, 1/sets)`-distributed, so the reference hits with
//!   probability `P[B(d, 1/sets) ≤ assoc − 1]`. The model is standard
//!   in the analytical-cache literature ("A Fast Analytical Model of
//!   Fully Associative Caches", PAPERS.md). One correction: uniform
//!   placement over-counts sets when the workload's footprint aliases —
//!   power-of-two strides and aligned arrays concentrate lines on a
//!   subset of set-index residues. The backend therefore measures the
//!   *collision factor* `κ = S · Σ g_c²` (the inverse participation
//!   ratio of the distinct-line footprint over residue classes `g_c`,
//!   `κ = 1` for a uniform footprint) and runs the binomial with
//!   `S_eff = S / κ` effective sets. The residual error against the
//!   simulated sweep is bounded by [`SET_CONFLICT_TOLERANCE`], enforced
//!   by `./ci.sh analytic` and `tests/analytic_oracle.rs` across the
//!   SPEC92 proxies.
//!
//! The payoff is asymptotic: after the single histogram pass, every
//! additional geometry costs `O(window)` floats (exact) or `O(assoc)`
//! per point on the log-bucketed path ([`Resolution::Bucketed`]) — a
//! million-point design grid evaluates in less time than the simulated
//! backend needs for the 35-point Figure-6 grid.

use crate::config::CacheConfig;
use crate::explore::{GridSpec, HitRatioPoint};
use crate::stackdist::StackDistSweep;
use crate::stats::CacheStats;
use simtrace::ReuseHistograms;
use std::fmt;

/// Maximum |analytic − simulated| hit-ratio error of the set-conflict
/// model on set-associative geometries. Measured across the six SPEC92
/// proxies over lines 8–128 B, caches 1–64 KB, associativity 1–4
/// (warmed, 120 k instructions): worst case 0.17 (nasa7,
/// direct-mapped, small lines — the proxies' power-of-two strides are
/// adversarial for bit-selection indexing), mean |Δ| 0.025. Pinned at
/// 0.20 with margin and asserted by `./ci.sh analytic` and the oracle
/// tests; fully-associative queries are exact, not toleranced.
pub const SET_CONFLICT_TOLERANCE: f64 = 0.20;

/// Why a backend could not answer a hit-ratio query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BackendError {
    /// The backend holds no data at the queried line granularity.
    UnknownLineSize {
        /// The granularity asked for.
        line_bytes: u64,
    },
    /// The geometry itself is malformed or outside the backend's
    /// coverage.
    Geometry {
        /// Human-readable cause.
        reason: String,
    },
}

impl fmt::Display for BackendError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BackendError::UnknownLineSize { line_bytes } => {
                write!(f, "no data at line size {line_bytes} B")
            }
            BackendError::Geometry { reason } => write!(f, "unsupported geometry: {reason}"),
        }
    }
}

impl std::error::Error for BackendError {}

/// A source of cache hit ratios over the (size, line, assoc) design
/// space for one fixed workload.
pub trait HitRatioBackend {
    /// A short stable name (`"sim"` / `"analytic"`) for reports.
    fn name(&self) -> &'static str;

    /// The data-cache hit ratio of an LRU write-back write-allocate
    /// cache of `cache_bytes` with `line_bytes` lines and `assoc` ways
    /// (`sets = cache / (line × assoc)`).
    ///
    /// # Errors
    ///
    /// [`BackendError`] when the geometry is malformed or outside the
    /// backend's coverage.
    fn hit_ratio(&self, cache_bytes: u64, line_bytes: u64, assoc: u32)
        -> Result<f64, BackendError>;
}

fn derive_sets(cache_bytes: u64, line_bytes: u64, assoc: u32) -> Result<u64, BackendError> {
    if assoc == 0 {
        return Err(BackendError::Geometry {
            reason: "associativity must be at least 1".into(),
        });
    }
    if line_bytes == 0 || !line_bytes.is_power_of_two() {
        return Err(BackendError::Geometry {
            reason: format!("line size {line_bytes} is not a power of two"),
        });
    }
    let way_bytes = line_bytes * u64::from(assoc);
    if cache_bytes == 0 || !cache_bytes.is_multiple_of(way_bytes) {
        return Err(BackendError::Geometry {
            reason: format!(
                "cache size {cache_bytes} is not a multiple of line × assoc = {way_bytes}"
            ),
        });
    }
    Ok(cache_bytes / way_bytes)
}

/// The simulated backend: per-line-size [`StackDistSweep`]s, exact by
/// construction for every geometry within their coverage.
#[derive(Debug)]
pub struct Simulated {
    sweeps: Vec<StackDistSweep>,
}

impl Simulated {
    /// Wraps finished sweeps (one per line size of interest).
    pub fn from_sweeps(sweeps: Vec<StackDistSweep>) -> Self {
        Simulated { sweeps }
    }

    /// The line granularities covered.
    pub fn line_sizes(&self) -> Vec<u64> {
        self.sweeps.iter().map(StackDistSweep::line_bytes).collect()
    }

    /// The full post-warm-up statistics for a geometry, when covered.
    ///
    /// # Errors
    ///
    /// [`BackendError`] when no sweep covers `cfg`.
    pub fn stats(&self, cfg: &CacheConfig) -> Result<CacheStats, BackendError> {
        let sweep = self
            .sweeps
            .iter()
            .find(|s| s.line_bytes() == cfg.line_bytes())
            .ok_or(BackendError::UnknownLineSize {
                line_bytes: cfg.line_bytes(),
            })?;
        sweep.stats_for(cfg).map_err(|e| BackendError::Geometry {
            reason: e.to_string(),
        })
    }

    /// Every point of `grid`, in (cache, line, assoc) order — the
    /// order [`hit_ratio_grid_replay`](crate::explore::hit_ratio_grid_replay)
    /// measures them in.
    ///
    /// # Errors
    ///
    /// [`BackendError`] when a point is malformed or no sweep covers it.
    pub fn points(&self, grid: &GridSpec) -> Result<Vec<HitRatioPoint>, BackendError> {
        grid.configs()
            .map(|cfg| {
                let cfg = cfg.map_err(|e| BackendError::Geometry {
                    reason: e.to_string(),
                })?;
                Ok(HitRatioPoint::new(&cfg, &self.stats(&cfg)?))
            })
            .collect()
    }
}

impl HitRatioBackend for Simulated {
    fn name(&self) -> &'static str {
        "sim"
    }

    fn hit_ratio(
        &self,
        cache_bytes: u64,
        line_bytes: u64,
        assoc: u32,
    ) -> Result<f64, BackendError> {
        derive_sets(cache_bytes, line_bytes, assoc)?;
        let cfg = CacheConfig::new(cache_bytes, line_bytes, assoc).map_err(|e| {
            BackendError::Geometry {
                reason: e.to_string(),
            }
        })?;
        Ok(self.stats(&cfg)?.hit_ratio())
    }
}

/// Precision of an [`Analytic`] bulk evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Resolution {
    /// Walk the full histogram: `O(min(cap, conflict window))` per
    /// (line, sets) pair. What the agreement checks use.
    Exact,
    /// Walk ~100 log-spaced buckets (exact below distance 64,
    /// quarter-octave means above): `O(assoc)` per point, for dense
    /// million-point grids. Agrees with [`Resolution::Exact`] to well
    /// under the set-conflict tolerance.
    Bucketed,
}

/// One log-compressed histogram cell: `count` references at mean
/// reuse distance `mean`.
#[derive(Debug, Clone, Copy)]
struct Bucket {
    mean: f64,
    count: f64,
}

/// Distances below this are kept as individual (exact) buckets on the
/// bucketed path; above, quarter-octave cells.
const BUCKET_EXACT_BELOW: usize = 64;
/// Cells per octave above [`BUCKET_EXACT_BELOW`].
const BUCKETS_PER_OCTAVE: usize = 4;
/// Conflict-probability floor: once `P[B(d, p) ≤ assoc − 1]` drops
/// below this the remaining histogram tail cannot move the hit ratio
/// (it is monotonically decreasing in `d`), so the exact walk stops.
const CDF_FLOOR: f64 = 1e-15;

#[derive(Debug, Clone)]
struct AnalyticLine {
    line_bytes: u64,
    total: u64,
    /// Collision factor `κ` of the distinct-line footprint at every
    /// power-of-two set-index modulus: `kappa[k]` is the inverse
    /// participation ratio `2^k · Σ g_c²` of the footprint mass over
    /// `line mod 2^k` residue classes, `k ≤ SET_CLASS_LOG2`. A uniform
    /// footprint gives `κ = 1`; aliased footprints (power-of-two
    /// strides, aligned arrays) give `κ > 1` and shrink the effective
    /// set count `S_eff = S / κ` the binomial runs with. Empty when no
    /// footprint statistics were supplied (pure binomial, `κ = 1`).
    kappa: Vec<f64>,
    /// Post-warm-up reuse-distance histogram; the final bucket is open
    /// (distances ≥ cap) and always counts as a miss — a conservative
    /// floor for capacities beyond the cap.
    hist: Vec<u64>,
    /// `prefix[k]` = references with distance `< k` = exact hits of a
    /// fully-associative LRU cache of `k` lines, `k ≤ cap`.
    prefix: Vec<u64>,
    buckets: Vec<Bucket>,
}

impl AnalyticLine {
    /// Effective set count the binomial model runs with at `sets`
    /// physical sets: `S / κ`, with `κ` read at the largest
    /// power-of-two modulus `≤ min(sets, 2^SET_CLASS_LOG2)` (exact for
    /// the power-of-two set counts real bit-selection hardware has;
    /// nearest-modulus approximation off the dyadic lattice).
    fn eff_sets(&self, sets: u64) -> f64 {
        if self.kappa.is_empty() {
            return sets as f64;
        }
        let level = (u64::BITS - 1 - sets.leading_zeros()).min(self.kappa.len() as u32 - 1);
        (sets as f64 / self.kappa[level as usize]).max(1.0)
    }
}

/// `κ` at every power-of-two modulus `2^0 ..= 2^SET_CLASS_LOG2` from a
/// distinct-line footprint over `2^SET_CLASS_LOG2` residue classes.
fn kappa_pyramid(set_mass: &[u64]) -> Vec<f64> {
    if set_mass.is_empty() || set_mass.iter().all(|&m| m == 0) {
        return Vec::new();
    }
    assert!(
        set_mass.len().is_power_of_two(),
        "footprint must cover a power-of-two residue range"
    );
    let levels = set_mass.len().trailing_zeros() as usize + 1;
    let mut folded = set_mass.to_vec();
    let total: f64 = set_mass.iter().map(|&m| m as f64).sum();
    let mut out = vec![1.0; levels];
    for level in (0..levels).rev() {
        let classes = 1usize << level;
        if classes < folded.len() {
            for c in 0..classes {
                folded[c] += folded[c + classes];
            }
            folded.truncate(classes);
        }
        let sq: f64 = folded.iter().map(|&m| (m as f64) * (m as f64)).sum();
        out[level] = (classes as f64 * sq / (total * total)).max(1.0);
    }
    out
}

fn build_buckets(hist: &[u64]) -> Vec<Bucket> {
    let cap = hist.len() - 1;
    let mut out = Vec::new();
    for (d, &h) in hist.iter().enumerate().take(cap.min(BUCKET_EXACT_BELOW)) {
        if h > 0 {
            out.push(Bucket {
                mean: d as f64,
                count: h as f64,
            });
        }
    }
    let mut lo = BUCKET_EXACT_BELOW;
    while lo < cap {
        let hi = (lo * 2).min(cap);
        for s in 0..BUCKETS_PER_OCTAVE {
            let from = lo + (hi - lo) * s / BUCKETS_PER_OCTAVE;
            let to = lo + (hi - lo) * (s + 1) / BUCKETS_PER_OCTAVE;
            if from == to {
                continue;
            }
            let mut count = 0u64;
            let mut weighted = 0.0f64;
            for (d, &h) in hist.iter().enumerate().take(to).skip(from) {
                count += h;
                weighted += d as f64 * h as f64;
            }
            if count > 0 {
                out.push(Bucket {
                    mean: weighted / count as f64,
                    count: count as f64,
                });
            }
        }
        lo = hi;
    }
    out
}

/// The closed-form backend: per-line-size reuse-distance histograms,
/// zero further trace work per query.
#[derive(Debug, Clone)]
pub struct Analytic {
    lines: Vec<AnalyticLine>,
}

impl Analytic {
    /// Builds the backend from a finished streaming histogram fold
    /// (one line entry per folded granularity, post-warm-up), using
    /// each granularity's distinct-line footprint residues
    /// ([`ReuseHistograms::set_mass`]) for the collision-factor
    /// correction.
    pub fn from_histograms(hists: &ReuseHistograms) -> Self {
        let lines = hists
            .line_sizes()
            .into_iter()
            .map(|l| {
                let p = hists.profile(l).expect("folded granularity");
                let set_mass = hists.set_mass(l).expect("folded granularity");
                let hist = p.histogram().to_vec();
                let cap = hist.len() - 1;
                let mut prefix = Vec::with_capacity(cap + 1);
                let mut sum = 0u64;
                prefix.push(0);
                for &h in &hist[..cap] {
                    sum += h;
                    prefix.push(sum);
                }
                AnalyticLine {
                    line_bytes: p.line_bytes(),
                    total: p.total(),
                    kappa: kappa_pyramid(set_mass),
                    buckets: build_buckets(&hist),
                    hist,
                    prefix,
                }
            })
            .collect();
        Analytic { lines }
    }

    /// The line granularities covered.
    pub fn line_sizes(&self) -> Vec<u64> {
        self.lines.iter().map(|l| l.line_bytes).collect()
    }

    /// Histogram cap (largest exactly-resolved reuse distance + 1) at
    /// `line_bytes`.
    ///
    /// # Errors
    ///
    /// [`BackendError::UnknownLineSize`] when the granularity was not
    /// folded.
    pub fn distance_cap(&self, line_bytes: u64) -> Result<usize, BackendError> {
        Ok(self.line(line_bytes)?.hist.len() - 1)
    }

    fn line(&self, line_bytes: u64) -> Result<&AnalyticLine, BackendError> {
        self.lines
            .iter()
            .find(|l| l.line_bytes == line_bytes)
            .ok_or(BackendError::UnknownLineSize { line_bytes })
    }

    /// Exact fully-associative LRU hit ratio of a cache holding `lines`
    /// lines: `hits(< lines) / total`, the same integer division
    /// [`CacheStats::hit_ratio`] performs, so the value is bit-equal to
    /// `Cache` replay. Capacities beyond the histogram cap saturate at
    /// the cap (a conservative lower bound).
    ///
    /// # Errors
    ///
    /// [`BackendError::UnknownLineSize`] when the granularity was not
    /// folded.
    pub fn fa_hit_ratio(&self, line_bytes: u64, lines: u64) -> Result<f64, BackendError> {
        let line = self.line(line_bytes)?;
        if line.total == 0 {
            return Ok(0.0);
        }
        let k = (lines as usize).min(line.prefix.len() - 1);
        Ok(line.prefix[k] as f64 / line.total as f64)
    }

    /// Set-conflict model hit ratios for `assoc = 1..=max_assoc` at
    /// fixed `(line_bytes, sets)` — the bulk query dense grids use,
    /// since every associativity of a (line, sets) pair falls out of
    /// one histogram walk.
    ///
    /// # Errors
    ///
    /// [`BackendError`] on an unknown granularity, `sets == 0` or
    /// `max_assoc == 0`.
    pub fn conflict_curve(
        &self,
        line_bytes: u64,
        sets: u64,
        max_assoc: u32,
        resolution: Resolution,
    ) -> Result<Vec<f64>, BackendError> {
        if sets == 0 || max_assoc == 0 {
            return Err(BackendError::Geometry {
                reason: "need at least one set and one way".into(),
            });
        }
        let line = self.line(line_bytes)?;
        if line.total == 0 {
            return Ok(vec![0.0; max_assoc as usize]);
        }
        if sets == 1 {
            // Fully associative at every assoc: exact integer path.
            return Ok((1..=u64::from(max_assoc))
                .map(|a| {
                    let k = (a as usize).min(line.prefix.len() - 1);
                    line.prefix[k] as f64 / line.total as f64
                })
                .collect());
        }
        let eff = line.eff_sets(sets);
        let hits = match resolution {
            Resolution::Exact => curve_exact(line, eff, max_assoc as usize),
            Resolution::Bucketed => curve_bucketed(line, eff, max_assoc as usize),
        };
        Ok(hits.into_iter().map(|h| h / line.total as f64).collect())
    }
}

/// Full-resolution conflict walk: for every distance `d`, advance the
/// truncated `Binomial(d, 1/S_eff)` pmf by one trial (`O(assoc)`) and
/// credit `hist[d] · P[B ≤ a]` to every associativity `a + 1`. Stops
/// once the conflict probability drops below [`CDF_FLOOR`] — it is
/// monotonically decreasing in `d`, so the remaining tail cannot move
/// the hit ratio.
fn curve_exact(line: &AnalyticLine, eff_sets: f64, amax: usize) -> Vec<f64> {
    let cap = line.hist.len() - 1;
    let p = (1.0 / eff_sets).min(1.0);
    let q = 1.0 - p;
    let mut hits = vec![0.0f64; amax];
    let mut pmf = vec![0.0f64; amax];
    pmf[0] = 1.0;
    for (d, &h) in line.hist.iter().enumerate().take(cap) {
        if h > 0 {
            let h = h as f64;
            let mut running = 0.0;
            for (a, hit) in hits.iter_mut().enumerate() {
                // `a + 1` ways hit iff at most `a` of the `d`
                // intervening lines landed in the set; for d ≤ a that
                // holds with certainty.
                if d <= a {
                    *hit += h;
                } else {
                    running += pmf[a];
                    *hit += h * running;
                }
            }
        }
        let mut cdf = 0.0;
        for &mass in pmf.iter() {
            cdf += mass;
        }
        if cdf < CDF_FLOOR {
            break;
        }
        for j in (1..amax).rev() {
            pmf[j] = pmf[j].mul_add(q, pmf[j - 1] * p);
        }
        pmf[0] *= q;
    }
    hits
}

/// Log-bucketed conflict walk: `O(assoc)` per bucket with a Chernoff
/// skip for buckets whose expected conflicts already swamp the widest
/// associativity.
fn curve_bucketed(line: &AnalyticLine, eff_sets: f64, amax: usize) -> Vec<f64> {
    let p = (1.0 / eff_sets).min(1.0);
    let q = 1.0 - p;
    let lnq = q.ln();
    let mut hits = vec![0.0f64; amax];
    for b in &line.buckets {
        let lam = b.mean * p;
        if lam > amax as f64 + 10.0 * lam.sqrt() + 10.0 {
            // P[B(mean, p) ≤ amax − 1] < e^{-50}: the bucket cannot
            // contribute a hit at any tracked associativity.
            continue;
        }
        let mut pmf = (b.mean * lnq).exp();
        let mut cdf = pmf;
        for (a, hit) in hits.iter_mut().enumerate() {
            if a > 0 && q > 0.0 {
                let trials_left = b.mean - (a as f64 - 1.0);
                pmf = if trials_left > 0.0 {
                    pmf * trials_left * p / (a as f64 * q)
                } else {
                    0.0
                };
                cdf += pmf;
            }
            // `mean ≤ a` interferers fit in `a + 1` ways with
            // certainty — also the numerically safe path when
            // `S_eff → 1` drives `q^mean` to underflow.
            *hit += b.count
                * if b.mean <= a as f64 {
                    1.0
                } else {
                    cdf.min(1.0)
                };
        }
    }
    hits
}

impl HitRatioBackend for Analytic {
    fn name(&self) -> &'static str {
        "analytic"
    }

    fn hit_ratio(
        &self,
        cache_bytes: u64,
        line_bytes: u64,
        assoc: u32,
    ) -> Result<f64, BackendError> {
        let sets = derive_sets(cache_bytes, line_bytes, assoc)?;
        if sets == 1 {
            return self.fa_hit_ratio(line_bytes, u64::from(assoc));
        }
        Ok(*self
            .conflict_curve(line_bytes, sets, assoc, Resolution::Exact)?
            .last()
            .expect("assoc ≥ 1"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::measure_dcache;
    use simtrace::workload::builtin;
    use simtrace::{Instr, ReuseHistograms};

    fn trace(n: usize) -> Vec<Instr> {
        builtin("ear").unwrap().compile(11).take(n).collect()
    }

    fn analytic(trace: &[Instr], warmup: u64) -> Analytic {
        let mut fold = ReuseHistograms::new(8, 128, 1 << 14, warmup);
        fold.process_slice(trace);
        Analytic::from_histograms(&fold)
    }

    #[test]
    fn fully_associative_is_bit_exact_vs_cache_replay() {
        let t = trace(12_000);
        for warmup in [0u64, 2_400] {
            let a = analytic(&t, warmup);
            for (cache, line) in [(1024u64, 32u64), (4096, 32), (4096, 8), (16384, 128)] {
                let assoc = (cache / line) as u32;
                let cfg = CacheConfig::new(cache, line, assoc).expect("fully associative");
                let replay = measure_dcache(cfg, t.iter().copied(), warmup);
                let got = a.hit_ratio(cache, line, assoc).expect("covered");
                assert_eq!(
                    got,
                    replay.hit_ratio(),
                    "cache={cache} line={line} warmup={warmup}"
                );
            }
        }
    }

    #[test]
    fn simulated_backend_matches_its_own_sweep() {
        let t = trace(8_000);
        let sweep = StackDistSweep::run(32, 7, 4, 1_600, t.iter().copied()).expect("valid sweep");
        let sim = Simulated::from_sweeps(vec![sweep]);
        assert_eq!(sim.name(), "sim");
        for (cache, assoc) in [(1024u64, 1u32), (2048, 2), (8192, 4)] {
            let cfg = CacheConfig::new(cache, 32, assoc).expect("valid");
            let want = measure_dcache(cfg, t.iter().copied(), 1_600).hit_ratio();
            let got = sim.hit_ratio(cache, 32, assoc).expect("covered");
            assert_eq!(got, want, "cache={cache} assoc={assoc}");
        }
        assert!(matches!(
            sim.hit_ratio(1024, 64, 2),
            Err(BackendError::UnknownLineSize { line_bytes: 64 })
        ));
    }

    #[test]
    fn set_conflict_model_tracks_the_sweep() {
        let t = trace(20_000);
        let warmup = 4_000;
        let a = analytic(&t, warmup);
        let sweep = StackDistSweep::run(32, 10, 4, warmup, t.iter().copied()).expect("valid sweep");
        let sim = Simulated::from_sweeps(vec![sweep]);
        let mut worst = 0.0f64;
        for size_log2 in 10..=15 {
            for assoc in [1u32, 2, 4] {
                let cache = 1u64 << size_log2;
                let want = sim.hit_ratio(cache, 32, assoc).expect("covered");
                let got = a.hit_ratio(cache, 32, assoc).expect("covered");
                worst = worst.max((got - want).abs());
            }
        }
        assert!(
            worst <= SET_CONFLICT_TOLERANCE,
            "set-conflict model drift {worst} exceeds tolerance"
        );
    }

    #[test]
    fn bucketed_resolution_tracks_exact() {
        let t = trace(20_000);
        let a = analytic(&t, 0);
        for sets in [2u64, 16, 256, 1024] {
            let exact = a
                .conflict_curve(32, sets, 8, Resolution::Exact)
                .expect("covered");
            let bucketed = a
                .conflict_curve(32, sets, 8, Resolution::Bucketed)
                .expect("covered");
            for (e, b) in exact.iter().zip(&bucketed) {
                assert!(
                    (e - b).abs() < 5e-3,
                    "sets={sets}: exact {e} vs bucketed {b}"
                );
            }
        }
    }

    #[test]
    fn curves_are_monotone_in_associativity_and_sets() {
        let t = trace(10_000);
        let a = analytic(&t, 0);
        for sets in [1u64, 2, 64] {
            let curve = a
                .conflict_curve(32, sets, 16, Resolution::Exact)
                .expect("covered");
            for w in curve.windows(2) {
                assert!(w[1] >= w[0] - 1e-12, "assoc-monotone at sets={sets}");
            }
        }
        // More sets (same assoc) never hurts under the model.
        let hr_small = a.hit_ratio(1024, 32, 2).expect("covered");
        let hr_big = a.hit_ratio(8192, 32, 2).expect("covered");
        assert!(hr_big >= hr_small);
    }

    #[test]
    fn infinite_sets_recover_every_tracked_reuse() {
        let t = trace(6_000);
        let a = analytic(&t, 0);
        let curve = a
            .conflict_curve(32, 1 << 40, 1, Resolution::Exact)
            .expect("covered");
        // With astronomically many sets nothing conflicts: every
        // reference whose distance fits the histogram hits even with
        // one way.
        let cap = a.distance_cap(32).expect("covered");
        let fa = a.fa_hit_ratio(32, cap as u64).expect("covered");
        assert!((curve[0] - fa).abs() < 1e-9);
    }

    #[test]
    fn malformed_geometries_are_rejected() {
        let a = analytic(&trace(1_000), 0);
        assert!(matches!(
            a.hit_ratio(1000, 32, 2),
            Err(BackendError::Geometry { .. })
        ));
        assert!(matches!(
            a.hit_ratio(1024, 48, 2),
            Err(BackendError::Geometry { .. })
        ));
        assert!(matches!(
            a.hit_ratio(1024, 32, 0),
            Err(BackendError::Geometry { .. })
        ));
        assert!(matches!(
            a.hit_ratio(1024, 256, 2),
            Err(BackendError::UnknownLineSize { line_bytes: 256 })
        ));
        let err = BackendError::Geometry { reason: "x".into() };
        assert!(err.to_string().contains("unsupported geometry"));
    }
}
