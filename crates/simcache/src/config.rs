//! Cache configuration and validation.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Replacement policy for a set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum Replacement {
    /// Least-recently-used (exact stack algorithm).
    #[default]
    Lru,
    /// First-in-first-out (victim is the oldest *fill*).
    Fifo,
    /// Uniform random victim (seeded, reproducible).
    Random,
    /// Tree pseudo-LRU (the common hardware approximation).
    TreePlru,
}

impl fmt::Display for Replacement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Replacement::Lru => f.write_str("LRU"),
            Replacement::Fifo => f.write_str("FIFO"),
            Replacement::Random => f.write_str("random"),
            Replacement::TreePlru => f.write_str("tree-PLRU"),
        }
    }
}

/// Write-hit policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum WritePolicy {
    /// Dirty lines accumulate in the cache and are flushed on eviction
    /// (the paper's model: flushes contribute the `α(R/D)βm` term).
    #[default]
    WriteBack,
    /// Every store is propagated to memory immediately; no dirty lines.
    WriteThrough,
}

impl fmt::Display for WritePolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WritePolicy::WriteBack => f.write_str("write-back"),
            WritePolicy::WriteThrough => f.write_str("write-through"),
        }
    }
}

/// Write-miss policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum WriteMiss {
    /// Fetch the line on a write miss (write misses join `R`; `W = 0`).
    #[default]
    Allocate,
    /// Send the write around the cache (write misses form the `W` term).
    Around,
}

impl fmt::Display for WriteMiss {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WriteMiss::Allocate => f.write_str("write-allocate"),
            WriteMiss::Around => f.write_str("write-around"),
        }
    }
}

/// Errors from cache-configuration validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// A geometry parameter was zero or not a power of two.
    NotPowerOfTwo {
        /// Which parameter failed.
        what: &'static str,
        /// The offending value.
        value: u64,
    },
    /// The line size exceeds the cache size divided by associativity.
    LineTooLarge {
        /// Requested line size in bytes.
        line_bytes: u64,
        /// Cache capacity of a single way in bytes.
        way_bytes: u64,
    },
    /// A single-pass sweep cannot track this associativity: it needs
    /// at least one way, and its clean thresholds are 16-bit.
    AssocOutOfRange {
        /// Requested associativity.
        assoc: u32,
        /// Widest associativity a sweep tracks.
        max: u32,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::NotPowerOfTwo { what, value } => {
                write!(f, "{what} must be a non-zero power of two, got {value}")
            }
            ConfigError::LineTooLarge {
                line_bytes,
                way_bytes,
            } => {
                write!(f, "line size {line_bytes} exceeds way capacity {way_bytes}")
            }
            ConfigError::AssocOutOfRange { assoc, max } => {
                write!(f, "a sweep tracks 1..={max} ways, got {assoc}")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// Geometry and policy of one cache.
///
/// Construct with [`CacheConfig::new`] (validated) and refine with the
/// `with_*` builder methods.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct CacheConfig {
    size_bytes: u64,
    line_bytes: u64,
    assoc: u32,
    /// Replacement policy.
    pub replacement: Replacement,
    /// Write-hit policy.
    pub write_policy: WritePolicy,
    /// Write-miss policy.
    pub write_miss: WriteMiss,
    /// Seed for the random replacement policy.
    pub seed: u64,
}

impl CacheConfig {
    /// Creates a configuration with LRU, write-back, write-allocate
    /// defaults (the paper's baseline data cache).
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if any geometry parameter is zero or not a
    /// power of two, if the line does not fit a way, or if the
    /// associativity exceeds the number of lines.
    pub fn new(size_bytes: u64, line_bytes: u64, assoc: u32) -> Result<Self, ConfigError> {
        fn pow2(what: &'static str, v: u64) -> Result<(), ConfigError> {
            if v == 0 || !v.is_power_of_two() {
                Err(ConfigError::NotPowerOfTwo { what, value: v })
            } else {
                Ok(())
            }
        }
        pow2("cache size", size_bytes)?;
        pow2("line size", line_bytes)?;
        pow2("associativity", u64::from(assoc))?;
        let way_bytes = size_bytes / u64::from(assoc);
        if line_bytes > way_bytes {
            return Err(ConfigError::LineTooLarge {
                line_bytes,
                way_bytes,
            });
        }
        Ok(CacheConfig {
            size_bytes,
            line_bytes,
            assoc,
            replacement: Replacement::Lru,
            write_policy: WritePolicy::WriteBack,
            write_miss: WriteMiss::Allocate,
            seed: 0x5EED,
        })
    }

    /// Sets the replacement policy.
    pub fn with_replacement(mut self, replacement: Replacement) -> Self {
        self.replacement = replacement;
        self
    }

    /// Sets the write-hit policy.
    pub fn with_write_policy(mut self, write_policy: WritePolicy) -> Self {
        self.write_policy = write_policy;
        self
    }

    /// Sets the write-miss policy.
    pub fn with_write_miss(mut self, write_miss: WriteMiss) -> Self {
        self.write_miss = write_miss;
        self
    }

    /// Sets the seed for random replacement.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Total capacity in bytes.
    pub fn size_bytes(&self) -> u64 {
        self.size_bytes
    }

    /// Line size in bytes (`L`).
    pub fn line_bytes(&self) -> u64 {
        self.line_bytes
    }

    /// Associativity (ways per set).
    pub fn assoc(&self) -> u32 {
        self.assoc
    }

    /// Number of sets.
    pub fn num_sets(&self) -> u64 {
        self.size_bytes / self.line_bytes / u64::from(self.assoc)
    }

    /// Total number of lines.
    pub fn num_lines(&self) -> u64 {
        self.size_bytes / self.line_bytes
    }
}

impl fmt::Display for CacheConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}KB {}-way L={}B {} {} {}",
            self.size_bytes / 1024,
            self.assoc,
            self.line_bytes,
            self.replacement,
            self.write_policy,
            self.write_miss
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn valid_config_geometry() {
        let c = CacheConfig::new(8 * 1024, 32, 2).unwrap();
        assert_eq!(c.num_sets(), 128);
        assert_eq!(c.num_lines(), 256);
        assert_eq!(c.size_bytes(), 8192);
    }

    #[test]
    fn direct_mapped_and_fully_associative() {
        let dm = CacheConfig::new(4096, 16, 1).unwrap();
        assert_eq!(dm.num_sets(), 256);
        let fa = CacheConfig::new(4096, 16, 256).unwrap();
        assert_eq!(fa.num_sets(), 1);
    }

    #[test]
    fn rejects_non_power_of_two() {
        assert!(matches!(
            CacheConfig::new(3000, 32, 2),
            Err(ConfigError::NotPowerOfTwo {
                what: "cache size",
                ..
            })
        ));
        assert!(matches!(
            CacheConfig::new(4096, 24, 2),
            Err(ConfigError::NotPowerOfTwo {
                what: "line size",
                ..
            })
        ));
        assert!(matches!(
            CacheConfig::new(4096, 32, 3),
            Err(ConfigError::NotPowerOfTwo {
                what: "associativity",
                ..
            })
        ));
        assert!(CacheConfig::new(0, 32, 2).is_err());
    }

    #[test]
    fn rejects_line_bigger_than_way() {
        assert!(matches!(
            CacheConfig::new(1024, 1024, 2),
            Err(ConfigError::LineTooLarge { .. })
        ));
    }

    #[test]
    fn rejects_excess_associativity() {
        // assoc 64 over 32 lines means a line no longer fits one way.
        assert!(matches!(
            CacheConfig::new(1024, 32, 64),
            Err(ConfigError::LineTooLarge { .. })
        ));
    }

    #[test]
    fn builder_methods_set_policies() {
        let c = CacheConfig::new(4096, 32, 2)
            .unwrap()
            .with_replacement(Replacement::Fifo)
            .with_write_policy(WritePolicy::WriteThrough)
            .with_write_miss(WriteMiss::Around)
            .with_seed(7);
        assert_eq!(c.replacement, Replacement::Fifo);
        assert_eq!(c.write_policy, WritePolicy::WriteThrough);
        assert_eq!(c.write_miss, WriteMiss::Around);
        assert_eq!(c.seed, 7);
    }

    #[test]
    fn errors_display() {
        let e = CacheConfig::new(3000, 32, 2).unwrap_err();
        assert!(e.to_string().contains("power of two"));
    }

    #[test]
    fn config_display_mentions_geometry() {
        let c = CacheConfig::new(8192, 32, 2).unwrap();
        let s = c.to_string();
        assert!(s.contains("8KB") && s.contains("2-way") && s.contains("L=32B"));
    }
}
