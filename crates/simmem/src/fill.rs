//! Line-fill schedules: who arrives when during a miss.
//!
//! A fill delivers the line's `L/D` bus chunks starting with the chunk the
//! missing access asked for (critical word first), then wrapping around
//! the line. The schedule answers the questions the stalling features ask:
//!
//! * BL / BNL1: *when is the whole line in?* ([`FillSchedule::complete_at`])
//! * BNL2 / BNL3: *when does the chunk holding address X arrive?*
//!   ([`FillSchedule::chunk_available_at`])

use crate::timing::MemoryTiming;
use serde::{Deserialize, Serialize};
use simtrace::{Addr, LineAddr};

/// The part of a fill's schedule that depends only on the memory timing
/// and the line size: computed once per (timing, line) pair, then
/// stamped onto each miss by [`FillShape::schedule`].
///
/// Line and bus sizes are powers of two, so the shape is a set of
/// shifts and masks. A replay that launches many fills under one timing
/// builds its shape once; [`FillSchedule::new`] is the one-shot form.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FillShape {
    line_shift: u32,
    chunk_shift: u32,
    /// `chunks − 1`: the chunk count is a power of two.
    chunk_mask: u64,
    beta_m: u64,
    step: u64,
    /// Cycles from the critical chunk's arrival to completion:
    /// `chunk_mask · step`.
    tail: u64,
}

impl FillShape {
    /// The shape of every fill of a `line_bytes`-byte line under
    /// `timing`.
    ///
    /// # Panics
    ///
    /// Panics (debug) if `line_bytes` is not a valid power-of-two line
    /// for `timing`.
    pub fn new(timing: &MemoryTiming, line_bytes: u64) -> Self {
        debug_assert!(timing.check_line(line_bytes).is_ok());
        debug_assert!(line_bytes.is_power_of_two());
        let chunk_bytes = timing.bus().bytes().min(line_bytes);
        let chunk_shift = chunk_bytes.trailing_zeros();
        let chunk_mask = (line_bytes >> chunk_shift) - 1;
        let step = timing.q().unwrap_or(timing.beta_m());
        FillShape {
            line_shift: line_bytes.trailing_zeros(),
            chunk_shift,
            chunk_mask,
            beta_m: timing.beta_m(),
            step,
            tail: chunk_mask * step,
        }
    }

    /// The schedule of a fill of the line containing `miss_addr`,
    /// starting at absolute cycle `start`.
    #[inline]
    pub fn schedule(&self, miss_addr: Addr, start: u64) -> FillSchedule {
        let critical_at = start + self.beta_m;
        FillSchedule {
            line: LineAddr::new(miss_addr.raw() >> self.line_shift),
            line_shift: self.line_shift,
            chunk_shift: self.chunk_shift,
            chunk_mask: self.chunk_mask,
            critical_chunk: (miss_addr.raw() >> self.chunk_shift) & self.chunk_mask,
            critical_at,
            step: self.step,
            complete_at: critical_at + self.tail,
        }
    }
}

/// The delivery schedule of one in-flight line fill.
///
/// Line and bus sizes are powers of two, so every question is a shift
/// and a mask. The `i`-th delivered chunk arrives at
/// `critical_at + i·step` (`step` is `β_m`, or `q` when pipelined), and
/// the completion cycle, which the stalling features ask for on every
/// access, is computed once at construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FillSchedule {
    line: LineAddr,
    line_shift: u32,
    chunk_shift: u32,
    /// `chunks − 1`: the chunk count is a power of two.
    chunk_mask: u64,
    critical_chunk: u64,
    critical_at: u64,
    step: u64,
    complete_at: u64,
}

impl FillSchedule {
    /// Starts a fill at absolute cycle `start` for the line containing
    /// `miss_addr`: the one-shot form of [`FillShape::schedule`].
    ///
    /// # Panics
    ///
    /// Panics (debug) if `line_bytes` is not a valid power-of-two line
    /// for `timing`.
    pub fn new(timing: &MemoryTiming, line_bytes: u64, miss_addr: Addr, start: u64) -> Self {
        FillShape::new(timing, line_bytes).schedule(miss_addr, start)
    }

    /// The line being filled.
    pub fn line(&self) -> LineAddr {
        self.line
    }

    /// Number of bus chunks in the line.
    pub fn chunks(&self) -> u64 {
        self.chunk_mask + 1
    }

    /// Absolute cycle the *critical* (requested) chunk arrives.
    ///
    /// This is when a BL / BNL processor resumes after the triggering
    /// miss: `start + β_m`.
    pub fn critical_arrives_at(&self) -> u64 {
        self.critical_at
    }

    /// Absolute cycle the whole line is in the cache.
    pub fn complete_at(&self) -> u64 {
        self.complete_at
    }

    /// Returns `true` once the fill has fully completed at `cycle`.
    pub fn is_complete(&self, cycle: u64) -> bool {
        cycle >= self.complete_at
    }

    /// Absolute cycle the chunk containing `addr` arrives.
    ///
    /// Chunks are delivered critical-word-first in wrap-around order.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not within the line being filled.
    pub fn chunk_available_at(&self, addr: Addr) -> u64 {
        assert!(self.covers(addr), "address outside the in-flight line");
        let chunk = (addr.raw() >> self.chunk_shift) & self.chunk_mask;
        let delivery_index = chunk.wrapping_sub(self.critical_chunk) & self.chunk_mask;
        self.critical_at + delivery_index * self.step
    }

    /// Returns `true` if the chunk containing `addr` has arrived by
    /// `cycle`.
    pub fn chunk_available(&self, addr: Addr, cycle: u64) -> bool {
        cycle >= self.chunk_available_at(addr)
    }

    /// Returns `true` if `addr` falls inside the line being filled.
    pub fn covers(&self, addr: Addr) -> bool {
        addr.raw() >> self.line_shift == self.line.raw()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timing::BusWidth;

    fn timing(beta: u64) -> MemoryTiming {
        MemoryTiming::new(BusWidth::new(4).unwrap(), beta)
    }

    #[test]
    fn critical_word_first_ordering() {
        // Miss on the third chunk (offset 8) of a 16-byte line.
        let f = FillSchedule::new(&timing(10), 16, Addr::new(0x108), 100);
        assert_eq!(f.critical_arrives_at(), 110);
        // Delivery order: chunk 2, 3, 0, 1.
        assert_eq!(f.chunk_available_at(Addr::new(0x108)), 110);
        assert_eq!(f.chunk_available_at(Addr::new(0x10C)), 120);
        assert_eq!(f.chunk_available_at(Addr::new(0x100)), 130);
        assert_eq!(f.chunk_available_at(Addr::new(0x104)), 140);
        assert_eq!(f.complete_at(), 140);
    }

    #[test]
    fn complete_equals_start_plus_fill_time() {
        let t = timing(7);
        let f = FillSchedule::new(&t, 32, Addr::new(0x0), 50);
        assert_eq!(f.complete_at(), 50 + t.line_fill_time(32));
        assert!(!f.is_complete(f.complete_at() - 1));
        assert!(f.is_complete(f.complete_at()));
    }

    #[test]
    fn pipelined_schedule_compresses_tail() {
        let t = timing(10).pipelined(2);
        let f = FillSchedule::new(&t, 32, Addr::new(0x0), 0);
        assert_eq!(f.critical_arrives_at(), 10);
        assert_eq!(f.complete_at(), 10 + 2 * 7);
        // Second chunk arrives only q after the first.
        assert_eq!(f.chunk_available_at(Addr::new(0x4)), 12);
    }

    #[test]
    fn covers_only_its_line() {
        let f = FillSchedule::new(&timing(5), 32, Addr::new(0x40), 0);
        assert!(f.covers(Addr::new(0x5F)));
        assert!(!f.covers(Addr::new(0x60)));
        assert!(!f.covers(Addr::new(0x3F)));
    }

    #[test]
    #[should_panic(expected = "outside the in-flight line")]
    fn chunk_query_outside_line_panics() {
        let f = FillSchedule::new(&timing(5), 32, Addr::new(0x40), 0);
        f.chunk_available_at(Addr::new(0x100));
    }

    #[test]
    fn single_chunk_line() {
        let f = FillSchedule::new(&timing(9), 4, Addr::new(0x10), 3);
        assert_eq!(f.chunks(), 1);
        assert_eq!(f.critical_arrives_at(), 12);
        assert_eq!(f.complete_at(), 12);
    }

    /// The shift-and-mask schedule, one-shot and stamped from a
    /// [`FillShape`], against the plain division formulas it replaces,
    /// for every line size and bus width, with and without pipelining.
    #[test]
    fn shift_arithmetic_matches_the_division_formulas() {
        for line in [4u64, 8, 16, 32, 64, 128] {
            for bus in [1u64, 2, 4, 8, 16, 32, 64] {
                for q in [None, Some(3)] {
                    let mut t = MemoryTiming::new(BusWidth::new(bus).unwrap(), 7);
                    if let Some(q) = q {
                        t = t.pipelined(q);
                    }
                    let chunk = bus.min(line);
                    let chunks = (line / chunk).max(1);
                    let offset = |i: u64| match q {
                        None => (i + 1) * 7,
                        Some(q) => 7 + i * q,
                    };
                    // One shape stamps every miss, as a replay uses it.
                    let shape = FillShape::new(&t, line);
                    let base = 0x3000 + 5 * line;
                    // Every byte of the line, so a miss on every chunk.
                    for miss in (0..line).map(|o| Addr::new(base + o)) {
                        let start = 11 + miss.raw() % 5;
                        let f = shape.schedule(miss, start);
                        assert_eq!(f, FillSchedule::new(&t, line, miss, start));
                        let critical = (miss.raw() % line) / chunk;
                        assert_eq!(f.chunks(), chunks);
                        assert_eq!(f.critical_arrives_at(), start + offset(0));
                        assert_eq!(f.complete_at(), start + offset(chunks - 1));
                        for a in (base - line..base + 2 * line).map(Addr::new) {
                            let inside = a.raw() / line == miss.raw() / line;
                            assert_eq!(f.covers(a), inside, "L={line} D={bus} {a}");
                            if inside {
                                let c = (a.raw() % line) / chunk;
                                let at = start + offset((c + chunks - critical) % chunks);
                                assert_eq!(f.chunk_available_at(a), at, "L={line} D={bus} {a}");
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn all_chunks_arrive_by_completion() {
        let t = timing(6);
        let f = FillSchedule::new(&t, 32, Addr::new(0x214), 77);
        for off in (0..32).step_by(4) {
            let a = Addr::new(0x200 + off);
            assert!(f.chunk_available_at(a) <= f.complete_at());
            assert!(f.chunk_available_at(a) >= f.critical_arrives_at());
        }
    }
}
