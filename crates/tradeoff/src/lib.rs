//! The unified architectural tradeoff methodology of Chen & Somani
//! (ISCA 1994).
//!
//! Every architectural feature that shortens mean memory delay — a wider
//! external data bus, a partially-stalling cache, read-bypassing write
//! buffers, a pipelined memory system, a different line size — is priced
//! in a single currency: **cache hit ratio**. Two systems running the same
//! application perform identically exactly when their mean memory delay
//! per reference is equal (Section 4.5), which reduces every comparison to
//! one number per system: the *delay per missed line*
//!
//! ```text
//! G = φ·β_m + α·(L/D)·β_m        (G = (1 + α)·β_p   when pipelined)
//! ```
//!
//! and one law: for equal performance the miss-traffic ratio between the
//! baseline and the enhanced system is `r = (G_base − 1) / (G_enh − 1)`
//! (Eq. 3), and the hit ratio the enhancement buys is
//! `ΔHR = (r − 1)(1 − HR)` (Eq. 6).
//!
//! # Quick start
//!
//! ```
//! use tradeoff::{HitRatio, Machine, SystemConfig};
//!
//! // 32-byte lines on a 4-byte bus, memory cycle 8 CPU clocks.
//! let machine = Machine::new(4.0, 32.0, 8.0)?;
//! let base = SystemConfig::full_stalling(0.5);     // α = 0.5
//! let doubled = base.with_bus_factor(2.0);
//!
//! // How much hit ratio does doubling the bus buy at HR = 95 %?
//! let dhr = tradeoff::equiv::traded_hit_ratio(&machine, &base, &doubled, HitRatio::new(0.95)?)?;
//! assert!(dhr > 0.04 && dhr < 0.08); // roughly 5–7.5 % — Figure 3's "doubling bus" curve
//! # Ok::<(), tradeoff::TradeoffError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod api;
pub mod cost;
pub mod crossover;
pub mod equiv;
pub mod error;
pub mod exec;
pub mod linesize;
pub mod multiissue;
pub mod params;
pub mod ranking;
pub mod stall;
pub mod system;

pub use error::TradeoffError;
pub use exec::{execution_time, mean_access_time, AppSignature};
pub use params::{FlushRatio, HitRatio, Machine};
pub use system::{StallSpec, SystemConfig};
