//! Bus width and memory cycle timing.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Errors from timing-parameter validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TimingError {
    /// The bus width was not a power of two in the supported range.
    BadBusWidth(u64),
    /// A cycle count parameter was zero.
    ZeroCycles(&'static str),
    /// A line size was not a positive multiple of the bus width.
    BadLine {
        /// Offending line size in bytes.
        line_bytes: u64,
        /// Bus width in bytes.
        bus_bytes: u64,
    },
}

impl fmt::Display for TimingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TimingError::BadBusWidth(d) => {
                write!(
                    f,
                    "bus width must be a power of two in 1..=64 bytes, got {d}"
                )
            }
            TimingError::ZeroCycles(what) => write!(f, "{what} must be at least one cycle"),
            TimingError::BadLine {
                line_bytes,
                bus_bytes,
            } => {
                write!(
                    f,
                    "line size {line_bytes} is not a positive multiple of bus width {bus_bytes}"
                )
            }
        }
    }
}

impl std::error::Error for TimingError {}

/// External data bus width `D` in bytes.
///
/// The paper restricts `D ∈ {4, 8, 16, 32}`; this type accepts any power
/// of two from 1 to 64 so ablations can step outside the paper's set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct BusWidth(u64);

impl BusWidth {
    /// The paper's canonical widths.
    pub const PAPER_SET: [BusWidth; 4] = [BusWidth(4), BusWidth(8), BusWidth(16), BusWidth(32)];

    /// Creates a bus width.
    ///
    /// # Errors
    ///
    /// Returns [`TimingError::BadBusWidth`] unless `bytes` is a power of
    /// two in `1..=64`.
    pub fn new(bytes: u64) -> Result<Self, TimingError> {
        if bytes.is_power_of_two() && (1..=64).contains(&bytes) {
            Ok(BusWidth(bytes))
        } else {
            Err(TimingError::BadBusWidth(bytes))
        }
    }

    /// Width in bytes.
    pub const fn bytes(self) -> u64 {
        self.0
    }

    /// Width in bits (as quoted in the paper's prose, e.g. "a 32-bit bus").
    pub const fn bits(self) -> u64 {
        self.0 * 8
    }

    /// The doubled bus, the paper's headline feature.
    ///
    /// # Errors
    ///
    /// Returns [`TimingError::BadBusWidth`] when doubling would exceed the
    /// supported range.
    pub fn doubled(self) -> Result<Self, TimingError> {
        BusWidth::new(self.0 * 2)
    }
}

impl fmt::Display for BusWidth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}-bit", self.bits())
    }
}

impl TryFrom<u64> for BusWidth {
    type Error = TimingError;

    fn try_from(bytes: u64) -> Result<Self, Self::Error> {
        BusWidth::new(bytes)
    }
}

/// Memory timing: `β_m` cycles per `D`-byte transfer, optionally pipelined.
///
/// In a pipelined memory system a new `D`-byte request can issue every `q`
/// cycles while each individual request still takes `β_m` (paper Eq. 9:
/// `β_p = β_m + q(L/D − 1)` per `L`-byte line).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct MemoryTiming {
    bus: BusWidth,
    beta_m: u64,
    /// Pipelined issue interval `q`; `None` means non-pipelined.
    q: Option<u64>,
    /// Write-cycle time per chunk; `None` = same as reads (the paper's
    /// assumption 5).
    beta_write: Option<u64>,
}

impl MemoryTiming {
    /// Creates a non-pipelined memory.
    ///
    /// # Panics
    ///
    /// Panics if `beta_m` is zero; use [`MemoryTiming::try_new`] to check
    /// fallibly.
    pub fn new(bus: BusWidth, beta_m: u64) -> Self {
        Self::try_new(bus, beta_m).expect("beta_m must be positive")
    }

    /// Fallible constructor.
    ///
    /// # Errors
    ///
    /// Returns [`TimingError::ZeroCycles`] if `beta_m` is zero.
    pub fn try_new(bus: BusWidth, beta_m: u64) -> Result<Self, TimingError> {
        if beta_m == 0 {
            return Err(TimingError::ZeroCycles("beta_m"));
        }
        Ok(MemoryTiming {
            bus,
            beta_m,
            q: None,
            beta_write: None,
        })
    }

    /// Returns a pipelined variant with issue interval `q`.
    ///
    /// # Panics
    ///
    /// Panics if `q` is zero.
    pub fn pipelined(mut self, q: u64) -> Self {
        assert!(q > 0, "pipeline issue interval must be positive");
        self.q = Some(q);
        self
    }

    /// Page-mode DRAM: the first chunk of a line pays the full row access
    /// `row_miss`, subsequent same-row chunks stream at `row_hit`.
    ///
    /// Timing-wise this is *exactly* the paper's pipelined memory with
    /// `β_m = row_miss` and `q = row_hit` — fast-page-mode DRAM is one
    /// physical realisation of Eq. 9, which is why the pipelined curves
    /// of Figures 3–5 also describe page-mode parts.
    ///
    /// # Panics
    ///
    /// Panics if `row_hit` is zero or exceeds `row_miss`.
    pub fn page_mode(bus: BusWidth, row_miss: u64, row_hit: u64) -> Self {
        assert!(row_hit > 0, "row-hit time must be positive");
        assert!(
            row_hit <= row_miss,
            "row hits cannot be slower than row misses"
        );
        MemoryTiming::new(bus, row_miss).pipelined(row_hit)
    }

    /// The bus width `D`.
    pub fn bus(&self) -> BusWidth {
        self.bus
    }

    /// `β_m` in CPU cycles.
    pub fn beta_m(&self) -> u64 {
        self.beta_m
    }

    /// The pipelined issue interval `q`, if pipelined.
    pub fn q(&self) -> Option<u64> {
        self.q
    }

    /// Returns the same memory with a doubled bus.
    ///
    /// # Errors
    ///
    /// Propagates [`TimingError::BadBusWidth`] from [`BusWidth::doubled`].
    pub fn with_doubled_bus(&self) -> Result<Self, TimingError> {
        Ok(MemoryTiming {
            bus: self.bus.doubled()?,
            beta_m: self.beta_m,
            q: self.q,
            beta_write: self.beta_write,
        })
    }

    /// Number of bus chunks in an `line_bytes`-byte line.
    ///
    /// # Panics
    ///
    /// Panics (debug) if the line is not a positive multiple of `D`; use
    /// [`MemoryTiming::check_line`] to validate fallibly.
    pub fn chunks_per_line(&self, line_bytes: u64) -> u64 {
        debug_assert!(self.check_line(line_bytes).is_ok());
        (line_bytes / self.bus.bytes()).max(1)
    }

    /// Validates a line size against the bus width.
    ///
    /// A line narrower than the bus is allowed (a single chunk fetches
    /// it), but a line that is not a multiple of `D` is not.
    ///
    /// # Errors
    ///
    /// Returns [`TimingError::BadLine`] on a zero line or a line that is
    /// neither a divisor nor a multiple of the bus width.
    pub fn check_line(&self, line_bytes: u64) -> Result<(), TimingError> {
        let d = self.bus.bytes();
        if line_bytes == 0 || (!line_bytes.is_multiple_of(d) && !d.is_multiple_of(line_bytes)) {
            return Err(TimingError::BadLine {
                line_bytes,
                bus_bytes: d,
            });
        }
        Ok(())
    }

    /// Cycles to transfer a whole line: the paper's `(L/D)β_m`, or
    /// `β_p = β_m + q(L/D − 1)` when pipelined (Eq. 9).
    pub fn line_fill_time(&self, line_bytes: u64) -> u64 {
        let chunks = self.chunks_per_line(line_bytes);
        match self.q {
            None => chunks * self.beta_m,
            Some(q) => self.beta_m + q * (chunks - 1),
        }
    }

    /// Cycle (relative to fill start) at which chunk `i` (0-based, in
    /// delivery order) has fully arrived.
    pub fn chunk_arrival(&self, i: u64) -> u64 {
        match self.q {
            None => (i + 1) * self.beta_m,
            Some(q) => self.beta_m + i * q,
        }
    }

    /// Relaxes the paper's assumption 5 (equal read and write cycle
    /// times): writes take `beta_write` cycles per chunk instead.
    ///
    /// # Panics
    ///
    /// Panics if `beta_write` is zero.
    pub fn with_write_beta(mut self, beta_write: u64) -> Self {
        assert!(beta_write > 0, "write cycle time must be positive");
        self.beta_write = Some(beta_write);
        self
    }

    /// The write-cycle time per chunk (`β_w`, defaulting to `β_m`).
    pub fn beta_write(&self) -> u64 {
        self.beta_write.unwrap_or(self.beta_m)
    }

    /// Cycles to write a whole line back to memory.
    ///
    /// Follows the same pipelining shape as reads, with the write cycle
    /// time substituted.
    pub fn line_write_time(&self, line_bytes: u64) -> u64 {
        let chunks = self.chunks_per_line(line_bytes);
        let bw = self.beta_write();
        match self.q {
            None => chunks * bw,
            Some(q) => bw + q.min(bw) * (chunks - 1),
        }
    }

    /// Cycles for a single `D`-byte write — the service time of a
    /// write-around store under asymmetric timing.
    pub fn single_write_time(&self) -> u64 {
        self.beta_write()
    }
}

impl fmt::Display for MemoryTiming {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.q {
            None => write!(f, "{} bus, βm={}", self.bus, self.beta_m),
            Some(q) => write!(f, "{} bus, βm={} pipelined q={}", self.bus, self.beta_m, q),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bus_width_validation() {
        assert!(BusWidth::new(4).is_ok());
        assert!(BusWidth::new(64).is_ok());
        assert_eq!(BusWidth::new(0), Err(TimingError::BadBusWidth(0)));
        assert_eq!(BusWidth::new(12), Err(TimingError::BadBusWidth(12)));
        assert_eq!(BusWidth::new(128), Err(TimingError::BadBusWidth(128)));
    }

    #[test]
    fn bus_width_units() {
        let d = BusWidth::new(4).unwrap();
        assert_eq!(d.bytes(), 4);
        assert_eq!(d.bits(), 32);
        assert_eq!(d.to_string(), "32-bit");
    }

    #[test]
    fn doubling() {
        let d = BusWidth::new(4).unwrap();
        assert_eq!(d.doubled().unwrap().bytes(), 8);
        assert!(BusWidth::new(64).unwrap().doubled().is_err());
    }

    #[test]
    fn paper_set_is_valid() {
        for d in BusWidth::PAPER_SET {
            assert!(BusWidth::new(d.bytes()).is_ok());
        }
    }

    #[test]
    fn non_pipelined_fill_time_is_chunks_times_beta() {
        let t = MemoryTiming::new(BusWidth::new(4).unwrap(), 10);
        assert_eq!(t.chunks_per_line(32), 8);
        assert_eq!(t.line_fill_time(32), 80);
        assert_eq!(t.line_fill_time(4), 10);
    }

    #[test]
    fn pipelined_fill_time_matches_eq9() {
        let t = MemoryTiming::new(BusWidth::new(4).unwrap(), 10).pipelined(2);
        // β_p = β_m + q(L/D − 1) = 10 + 2·7 = 24
        assert_eq!(t.line_fill_time(32), 24);
        // L = D: pipelining does not help a single chunk.
        assert_eq!(t.line_fill_time(4), 10);
    }

    #[test]
    fn pipelining_with_q_equals_beta_is_non_pipelined() {
        let base = MemoryTiming::new(BusWidth::new(4).unwrap(), 6);
        let piped = base.pipelined(6);
        assert_eq!(base.line_fill_time(64), piped.line_fill_time(64));
    }

    #[test]
    fn chunk_arrivals_are_monotonic_and_end_at_fill_time() {
        for t in [
            MemoryTiming::new(BusWidth::new(4).unwrap(), 7),
            MemoryTiming::new(BusWidth::new(4).unwrap(), 7).pipelined(2),
        ] {
            let chunks = t.chunks_per_line(32);
            let mut prev = 0;
            for i in 0..chunks {
                let a = t.chunk_arrival(i);
                assert!(a > prev);
                prev = a;
            }
            assert_eq!(prev, t.line_fill_time(32));
        }
    }

    #[test]
    fn line_validation() {
        let t = MemoryTiming::new(BusWidth::new(8).unwrap(), 5);
        assert!(t.check_line(32).is_ok());
        assert!(t.check_line(8).is_ok());
        assert!(
            t.check_line(4).is_ok(),
            "line narrower than bus is one chunk"
        );
        assert!(t.check_line(12).is_err());
        assert!(t.check_line(0).is_err());
        assert_eq!(t.chunks_per_line(4), 1);
    }

    #[test]
    fn doubled_bus_halves_fill_time() {
        let t = MemoryTiming::new(BusWidth::new(4).unwrap(), 10);
        let t2 = t.with_doubled_bus().unwrap();
        assert_eq!(t2.line_fill_time(32), t.line_fill_time(32) / 2);
    }

    #[test]
    fn zero_beta_rejected() {
        assert!(MemoryTiming::try_new(BusWidth::new(4).unwrap(), 0).is_err());
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_q_panics() {
        MemoryTiming::new(BusWidth::new(4).unwrap(), 5).pipelined(0);
    }

    #[test]
    fn asymmetric_write_timing() {
        let t = MemoryTiming::new(BusWidth::new(4).unwrap(), 8).with_write_beta(12);
        assert_eq!(t.beta_write(), 12);
        assert_eq!(t.single_write_time(), 12);
        assert_eq!(t.line_write_time(32), 8 * 12);
        // Reads untouched.
        assert_eq!(t.line_fill_time(32), 64);
        // Default: assumption 5 holds.
        let sym = MemoryTiming::new(BusWidth::new(4).unwrap(), 8);
        assert_eq!(sym.line_write_time(32), sym.line_fill_time(32));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_write_beta_panics() {
        MemoryTiming::new(BusWidth::new(4).unwrap(), 8).with_write_beta(0);
    }

    #[test]
    fn page_mode_is_eq9_in_disguise() {
        let bus = BusWidth::new(4).unwrap();
        let dram = MemoryTiming::page_mode(bus, 10, 2);
        let piped = MemoryTiming::new(bus, 10).pipelined(2);
        for line in [8u64, 32, 64] {
            assert_eq!(dram.line_fill_time(line), piped.line_fill_time(line));
        }
        // First chunk at row-miss, each further chunk one row-hit later.
        assert_eq!(dram.chunk_arrival(0), 10);
        assert_eq!(dram.chunk_arrival(1), 12);
    }

    #[test]
    #[should_panic(expected = "cannot be slower")]
    fn page_mode_rejects_inverted_times() {
        MemoryTiming::page_mode(BusWidth::new(4).unwrap(), 5, 10);
    }

    #[test]
    fn display_mentions_parameters() {
        let t = MemoryTiming::new(BusWidth::new(4).unwrap(), 5).pipelined(2);
        let s = t.to_string();
        assert!(s.contains("βm=5") && s.contains("q=2"));
    }
}
