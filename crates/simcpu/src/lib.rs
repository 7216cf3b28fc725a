//! Trace-driven in-order CPU timing simulator.
//!
//! Implements the paper's processor model (Section 3): a pipelined RISC
//! core retiring one instruction per cycle except when the memory
//! hierarchy stalls it. The simulator's job is to *measure* the three
//! quantities the analytic tradeoff model consumes:
//!
//! * the data-cache hit ratio `HR`,
//! * the flush ratio `α` (dirty writebacks per fill),
//! * the stalling factor `φ` of the configured stalling feature
//!   (Table 2 / Eq. 8) — full-stalling (FS), bus-locked (BL), the three
//!   bus-not-locked variants (BNL1/2/3) and non-blocking (NB).
//!
//! It also validates the methodology end to end: plugging the measured
//! `{HR, α, φ}` back into Eq. 2 must reproduce the simulated cycle count
//! (see [`validate`]).
//!
//! # Example
//!
//! ```
//! use simcache::CacheConfig;
//! use simcpu::{Cpu, CpuConfig, StallFeature};
//! use simmem::{BusWidth, MemoryTiming};
//! use simtrace::workload;
//!
//! let cfg = CpuConfig::baseline(
//!     CacheConfig::new(8 * 1024, 32, 2)?,
//!     MemoryTiming::new(BusWidth::new(4).map_err(|e| e.to_string())?, 8),
//! )
//! .with_stall(StallFeature::FullStall);
//! let result = Cpu::new(cfg).run(workload::builtin("ear").unwrap().compile(1).take(50_000));
//! assert!(result.cycles >= result.instructions);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod cpu;
pub mod events;
pub mod result;
pub mod validate;

pub use config::{CpuConfig, L2Config, Prefetch, StallFeature, WriteBufferConfig};
pub use cpu::Cpu;
pub use events::{MissTimeline, MissTimelineBuilder, TimelineCpu};
pub use result::{MeasuredProfile, SimResult};
pub use validate::{predict_cycles, predict_cycles_multiissue, validation_error};
