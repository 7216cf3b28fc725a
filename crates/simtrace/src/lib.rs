//! Memory-reference trace model and synthetic workload generators.
//!
//! The ISCA-1994 tradeoff methodology of Chen & Somani extracts three things
//! from an address trace: the cache hit ratio, the dirty-line flush ratio
//! `α`, and the *stalling factor* `φ` (a function of the instruction
//! distance between a cache miss and the next access that touches the
//! in-flight line). All three are statistical properties of the reference
//! stream, so the paper's SPEC92 traces — which are not redistributable —
//! can be substituted by synthetic streams with controlled spatial and
//! temporal locality. This crate provides:
//!
//! * a compact instruction/reference representation ([`Instr`], [`MemRef`]),
//! * composable, deterministic generators ([`gen`]),
//! * declarative workload specs ([`workload`]): JSON-described generator
//!   trees with a stable content hash, among them the six built-in SPEC92
//!   *proxy* workloads mirroring the programs the paper simulated
//!   (nasa7, swm256, wave5, ear, doduc, hydro2d),
//! * streaming statistics ([`stats`]) and a compact binary trace encoding
//!   ([`encode`]) for recording and replaying traces.
//!
//! # Example
//!
//! ```
//! use simtrace::workload;
//!
//! let trace = workload::builtin("ear").unwrap().compile(0xC0FFEE).take(10_000);
//! let stats = simtrace::stats::TraceStats::from_trace(trace);
//! assert_eq!(stats.instructions, 10_000);
//! assert!(stats.data_refs() > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod addr;
pub mod chunk;
pub mod din;
pub mod encode;
pub mod gen;
pub mod instr;
pub mod mix;
pub mod phases;
pub mod reuse;
pub mod reusehist;
pub mod stats;
pub mod workload;

pub use addr::{Addr, LineAddr};
pub use chunk::ChunkedTrace;
pub use instr::{Instr, MemOp, MemRef, INSTR_BYTES};
pub use mix::{MixtureBuilder, MixtureTrace};
pub use phases::{Phase, PhasedPattern};
pub use reuse::ReuseProfile;
pub use reusehist::{GranularityFold, RefBatch, RefCutter, ReuseDistCounter, ReuseHistograms};
pub use stats::TraceStats;
pub use workload::{WorkloadId, WorkloadSpec};

/// A trace is any iterator over instructions.
///
/// The blanket implementation means every generator in this crate — and any
/// plain `Vec<Instr>` iterator — is a `Trace` automatically.
pub trait Trace: Iterator<Item = Instr> {}

impl<T: Iterator<Item = Instr>> Trace for T {}
