//! Memory-system timing substrate.
//!
//! Models the parts of the paper's hardware below the caches:
//!
//! * the external data bus of width `D` bytes ([`BusWidth`]),
//! * a memory with cycle time `β_m` per `D`-byte transfer, optionally
//!   pipelined with issue interval `q` ([`MemoryTiming`]),
//! * the chunk-by-chunk delivery schedule of a line fill, critical word
//!   first ([`FillSchedule`], stamped from a per-timing [`FillShape`]) —
//!   the information the BL/BNL2/BNL3 stalling features key off,
//! * a read-bypassing write buffer ([`WriteBuffer`]) that hides the
//!   `α(R/D)β_m` flush term of Eq. 2.
//!
//! All times are in CPU clock cycles, matching the paper's normalisation
//! (`β_m` is "memory cycle time per `D` bytes" in CPU cycles).
//!
//! # Example
//!
//! ```
//! use simmem::{BusWidth, MemoryTiming};
//!
//! let timing = MemoryTiming::new(BusWidth::new(4)?, 8); // D = 4 B, β_m = 8
//! assert_eq!(timing.line_fill_time(32), 64);            // (L/D)·β_m
//! let pipelined = timing.pipelined(2);
//! assert_eq!(pipelined.line_fill_time(32), 8 + 2 * 7);  // β_m + q(L/D − 1)
//! # Ok::<(), simmem::TimingError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fill;
pub mod timing;
pub mod wbuf;

pub use fill::{FillSchedule, FillShape};
pub use timing::{BusWidth, MemoryTiming, TimingError};
pub use wbuf::{BypassMode, WriteBuffer};
