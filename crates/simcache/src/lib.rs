//! Set-associative cache simulator.
//!
//! This crate is the trace-driven substrate behind the paper's measured
//! quantities: it produces hit ratios (`HR`), write-back flush ratios (`α`)
//! and per-miss events that the CPU timing simulator turns into stalling
//! factors (`φ`). It models:
//!
//! * arbitrary power-of-two geometry (size, line, associativity),
//! * LRU / FIFO / random / tree-PLRU replacement,
//! * write-back and write-through policies,
//! * write-allocate and write-around miss handling (both modes appear in
//!   the paper's equations — write-around contributes the `W` term, while
//!   write-allocate folds write misses into `R`),
//! * split instruction/data configurations,
//! * single-pass hit-ratio grids: an [`explore::GridSpec`] builds one
//!   [`StackDistSweep`] per line size, and one fold of the trace
//!   answers every (size × line × assoc) point exactly.
//!
//! # Example
//!
//! ```
//! use simcache::{Cache, CacheConfig};
//! use simtrace::{Addr, MemOp};
//!
//! let cfg = CacheConfig::new(8 * 1024, 32, 2)?;
//! let mut cache = Cache::new(cfg);
//! let first = cache.access(MemOp::Load, Addr::new(0x1000));
//! assert!(!first.hit);
//! let second = cache.access(MemOp::Load, Addr::new(0x1004));
//! assert!(second.hit); // same 32-byte line
//! # Ok::<(), simcache::ConfigError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod config;
pub mod explore;
pub mod hitratio;
pub mod sector;
pub mod split;
pub mod stackdist;
pub mod stats;
pub mod victim;

pub use cache::{AccessOutcome, Cache};
pub use config::{CacheConfig, ConfigError, Replacement, WriteMiss, WritePolicy};
pub use hitratio::{Analytic, BackendError, HitRatioBackend, Resolution, Simulated};
pub use sector::{SectorCache, SectorConfig, SectorOutcome};
pub use split::SplitCache;
pub use stackdist::{StackDistSweep, SweepQueryError};
pub use stats::CacheStats;
pub use victim::{VictimCache, VictimOutcome, VictimStats};
