//! # unified-tradeoff
//!
//! A full reproduction of **"A Unified Architectural Tradeoff
//! Methodology"** (Chung-Ho Chen and Arun K. Somani, ISCA 1994) as a Rust
//! workspace: the analytic tradeoff model *and* the trace-driven
//! simulation substrate the paper's measured quantities come from.
//!
//! The paper prices every memory-hierarchy feature in a single currency —
//! cache hit ratio — via the equivalence of mean memory delay. This crate
//! re-exports the whole workspace:
//!
//! | crate | contents |
//! |---|---|
//! | [`tradeoff`] | the paper's model: Eq. 2 execution time, the `ΔHR = (r − 1)(1 − HR)` equivalence, line-size selection, crossovers, ranking |
//! | [`simtrace`] | declarative workload specs and trace generators; the six SPEC92 proxies are built-in specs |
//! | [`simcache`] | set-associative cache simulator (LRU/FIFO/random/PLRU, write policies) |
//! | [`simmem`] | bus/memory timing, pipelined fills, read-bypassing write buffers |
//! | [`simcpu`] | in-order CPU timing simulator measuring stalling factors `φ` |
//! | [`smithval`] | Smith (1987) line-size methodology and the Figure 6 validation |
//! | [`report`] | ASCII charts / tables / CSV for the experiment binaries |
//!
//! # Quick start
//!
//! How much cache hit ratio is a 64-bit bus worth on a 32-bit design?
//!
//! ```
//! use unified_tradeoff::prelude::*;
//!
//! let machine = Machine::new(4.0, 32.0, 8.0)?; // D=4B, L=32B, β_m=8
//! let base = SystemConfig::full_stalling(0.5);
//! let hr = HitRatio::new(0.95)?;
//!
//! let dhr = tradeoff::equiv::traded_hit_ratio(
//!     &machine, &base, &base.with_bus_factor(2.0), hr)?;
//! println!("doubling the bus is worth {:.2} % hit ratio", 100.0 * dhr);
//! assert!(dhr > 0.0);
//! # Ok::<(), tradeoff::TradeoffError>(())
//! ```
//!
//! And the measured side — run a workload through the cycle-accurate
//! simulator and extract the paper's `{HR, α, φ}`:
//!
//! ```
//! use unified_tradeoff::prelude::*;
//!
//! let cfg = CpuConfig::baseline(
//!     CacheConfig::new(8 * 1024, 32, 2)?,
//!     MemoryTiming::new(BusWidth::new(4).map_err(|e| e.to_string())?, 8),
//! ).with_stall(StallFeature::BusNotLocked3);
//! let result = Cpu::new(cfg).run(
//!     simtrace::workload::builtin("ear").unwrap().compile(7).take(20_000));
//! println!("HR {:.3}, α {:.3}, φ {:.2}", result.dcache.hit_ratio(),
//!          result.alpha(), result.phi());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! See `DESIGN.md` for the experiment index and `EXPERIMENTS.md` for the
//! paper-versus-measured record. Each figure/table is a registered
//! experiment in the `bench` crate, run by the generic `exp` binary
//! (`cargo run -p bench --release --bin exp -- fig3`, etc.) or by
//! `tradeoff-cli experiments run`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod server;

pub use report;
pub use simcache;
pub use simcpu;
pub use simmem;
pub use simtrace;
pub use smithval;
pub use tradeoff;

/// The most commonly used types, in one import.
pub mod prelude {
    pub use report::{Chart, Table};
    pub use simcache::{Cache, CacheConfig, Replacement, StackDistSweep, WriteMiss, WritePolicy};
    pub use simcpu::{
        Cpu, CpuConfig, L2Config, MissTimeline, Prefetch, SimResult, StallFeature, TimelineCpu,
        WriteBufferConfig,
    };
    pub use simmem::{BusWidth, FillSchedule, MemoryTiming, WriteBuffer};
    pub use simtrace::workload::{builtin, builtins, WorkloadSpec};
    pub use simtrace::{Addr, Instr, MemOp, MemRef};
    pub use smithval::{DesignTargetModel, MissRatioModel, TableModel};
    pub use tradeoff::{
        execution_time, mean_access_time, AppSignature, FlushRatio, HitRatio, Machine, StallSpec,
        SystemConfig, TradeoffError,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn prelude_exposes_both_sides() {
        // Analytic side.
        let m = Machine::new(4.0, 32.0, 8.0).unwrap();
        let sys = SystemConfig::full_stalling(0.5);
        assert!(mean_access_time(&m, &sys, HitRatio::new(0.95).unwrap()).unwrap() > 1.0);
        // Simulated side.
        let cfg = CpuConfig::baseline(
            CacheConfig::new(4096, 32, 2).unwrap(),
            MemoryTiming::new(BusWidth::new(4).unwrap(), 4),
        );
        let r = Cpu::new(cfg).run(builtin("doduc").unwrap().compile(1).take(2_000));
        assert_eq!(r.instructions, 2_000);
    }
}
