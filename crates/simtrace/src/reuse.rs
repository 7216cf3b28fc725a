//! Reuse-distance analysis (Mattson's stack algorithm).
//!
//! The reuse distance of a reference is the number of *distinct* lines
//! touched since the previous touch of the same line. Its distribution
//! fully determines the hit ratio of every fully-associative LRU cache
//! at once (Mattson et al., 1970): a cache of `k` lines hits exactly the
//! references with distance `< k`. The experiments use this both as a
//! locality fingerprint of the proxies and as a cross-validation oracle
//! for the cache simulator.

use crate::instr::Instr;
use serde::{Deserialize, Serialize};

/// The reuse-distance profile of a reference stream, at line
/// granularity.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReuseProfile {
    line_bytes: u64,
    /// `histogram[d]` counts references with reuse distance exactly `d`
    /// (capped at the last bucket).
    histogram: Vec<u64>,
    /// First-touch (cold) references.
    cold: u64,
    /// Total data references analysed.
    total: u64,
}

impl ReuseProfile {
    /// Computes the profile of a trace's data references.
    ///
    /// `max_distance` caps the histogram (distances beyond it land in
    /// the final bucket). Distances come from the Fenwick-tree Mattson
    /// counter ([`crate::reusehist::ReuseDistCounter`]), so the cost is
    /// `O(refs · log distinct-lines)` — paper-scale traces profile in
    /// seconds where the old exact-stack walk
    /// (`O(refs × distinct-lines)`) needed hours.
    ///
    /// # Panics
    ///
    /// Panics if `line_bytes` is not a power of two or `max_distance`
    /// is zero.
    pub fn from_trace(
        trace: impl IntoIterator<Item = Instr>,
        line_bytes: u64,
        max_distance: usize,
    ) -> Self {
        assert!(
            line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        let mut counter = crate::reusehist::ReuseDistCounter::new(max_distance);
        for instr in trace {
            let Some(m) = instr.mem else { continue };
            counter.access(m.addr.line(line_bytes).raw());
        }
        ReuseProfile {
            line_bytes,
            histogram: counter.histogram().to_vec(),
            cold: counter.cold(),
            total: counter.total(),
        }
    }

    /// Assembles a profile from already-counted parts (the
    /// [`crate::reusehist::ReuseHistograms`] fold uses this to hand out
    /// per-granularity post-warm-up profiles).
    ///
    /// # Panics
    ///
    /// Panics if `line_bytes` is not a power of two, the histogram is
    /// empty, or the counts are inconsistent (histogram + cold ≠
    /// total).
    pub fn from_parts(line_bytes: u64, histogram: Vec<u64>, cold: u64, total: u64) -> Self {
        assert!(
            line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        assert!(!histogram.is_empty(), "need at least one distance bucket");
        let counted: u64 = histogram.iter().sum();
        assert!(
            counted + cold == total,
            "histogram ({counted}) + cold ({cold}) must equal total ({total})"
        );
        ReuseProfile {
            line_bytes,
            histogram,
            cold,
            total,
        }
    }

    /// The line granularity the profile was computed at.
    pub fn line_bytes(&self) -> u64 {
        self.line_bytes
    }

    /// Total references analysed.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Cold (first-touch) references.
    pub fn cold(&self) -> u64 {
        self.cold
    }

    /// The raw histogram (`[d] = refs at distance d`, last bucket open).
    pub fn histogram(&self) -> &[u64] {
        &self.histogram
    }

    /// Mattson: the hit ratio of a fully-associative LRU cache holding
    /// `lines` lines — the fraction of references with distance
    /// `< lines` (cold misses never hit).
    pub fn lru_hit_ratio(&self, lines: usize) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let hits: u64 = self.histogram.iter().take(lines).sum();
        hits as f64 / self.total as f64
    }

    /// The smallest fully-associative LRU capacity (in lines) reaching
    /// `target` hit ratio, or `None` if even an infinite cache (bounded
    /// by compulsory misses) cannot. A single prefix-sum scan of the
    /// histogram.
    pub fn capacity_for(&self, target: f64) -> Option<usize> {
        if self.total == 0 {
            // No references: the hit ratio is 0 at every capacity.
            return (target <= 0.0).then_some(1);
        }
        let mut hits = 0u64;
        for (bucket, &h) in self.histogram.iter().enumerate() {
            hits += h;
            if hits as f64 / self.total as f64 >= target {
                return Some(bucket + 1);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instr::MemRef;

    fn loads(addrs: &[u64]) -> Vec<Instr> {
        addrs
            .iter()
            .enumerate()
            .map(|(i, &a)| Instr::mem((i as u64) * 4, MemRef::load(a, 4)))
            .collect()
    }

    #[test]
    fn distances_hand_checked() {
        // Lines: A B A C B A (32-byte lines).
        let trace = loads(&[0x00, 0x20, 0x00, 0x40, 0x20, 0x00]);
        let p = ReuseProfile::from_trace(trace, 32, 8);
        assert_eq!(p.cold(), 3);
        // A at distance 1 (B between), B at distance 2 (C, A), A at 2 (C? →
        // stack after C: [B, A, C]; B touch: distance 2; stack [A, C, B];
        // A: distance 2.
        assert_eq!(p.histogram()[1], 1);
        assert_eq!(p.histogram()[2], 2);
        assert_eq!(p.total(), 6);
    }

    #[test]
    fn repeated_single_line_is_all_distance_zero() {
        let p = ReuseProfile::from_trace(loads(&[0x10; 100]), 32, 4);
        assert_eq!(p.cold(), 1);
        assert_eq!(p.histogram()[0], 99);
        assert!((p.lru_hit_ratio(1) - 0.99).abs() < 1e-12);
    }

    #[test]
    fn mattson_inclusion_hit_ratio_is_monotone() {
        let addrs: Vec<u64> = (0..500u64).map(|i| (i * 7919) % 2048).collect();
        let p = ReuseProfile::from_trace(loads(&addrs), 32, 128);
        let mut prev = 0.0;
        for k in 1..=128 {
            let hr = p.lru_hit_ratio(k);
            assert!(hr >= prev);
            prev = hr;
        }
    }

    #[test]
    fn capacity_for_inverts_hit_ratio() {
        let addrs: Vec<u64> = (0..400u64).map(|i| (i % 40) * 32).collect();
        let p = ReuseProfile::from_trace(loads(&addrs), 32, 64);
        // 40 resident lines: distance 39 for every wrap access.
        assert_eq!(p.capacity_for(0.8), Some(40));
        assert_eq!(
            p.capacity_for(0.999),
            None,
            "compulsory misses bound the ceiling"
        );
    }

    #[test]
    fn from_parts_round_trips() {
        let addrs: Vec<u64> = (0..300u64).map(|i| (i % 17) * 64).collect();
        let p = ReuseProfile::from_trace(loads(&addrs), 64, 32);
        let rebuilt =
            ReuseProfile::from_parts(p.line_bytes(), p.histogram().to_vec(), p.cold(), p.total());
        assert_eq!(rebuilt, p);
    }

    #[test]
    #[should_panic(expected = "must equal total")]
    fn from_parts_rejects_inconsistent_counts() {
        ReuseProfile::from_parts(32, vec![1, 2], 0, 7);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_line_size_panics() {
        ReuseProfile::from_trace(loads(&[0]), 24, 4);
    }
}
