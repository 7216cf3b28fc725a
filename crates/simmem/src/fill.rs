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

/// The delivery schedule of one in-flight line fill.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FillSchedule {
    line: LineAddr,
    line_bytes: u64,
    chunk_bytes: u64,
    start: u64,
    critical_chunk: u64,
    beta_m: u64,
    q: Option<u64>,
}

impl FillSchedule {
    /// Starts a fill at absolute cycle `start` for the line containing
    /// `miss_addr`.
    ///
    /// # Panics
    ///
    /// Panics (debug) if `line_bytes` is not a valid line for `timing`.
    pub fn new(timing: &MemoryTiming, line_bytes: u64, miss_addr: Addr, start: u64) -> Self {
        debug_assert!(timing.check_line(line_bytes).is_ok());
        let chunk_bytes = timing.bus().bytes().min(line_bytes);
        FillSchedule {
            line: miss_addr.line(line_bytes),
            line_bytes,
            chunk_bytes,
            start,
            critical_chunk: miss_addr.chunk_in_line(line_bytes, chunk_bytes),
            beta_m: timing.beta_m(),
            q: timing.q(),
        }
    }

    /// The line being filled.
    pub fn line(&self) -> LineAddr {
        self.line
    }

    /// Number of bus chunks in the line.
    pub fn chunks(&self) -> u64 {
        (self.line_bytes / self.chunk_bytes).max(1)
    }

    fn arrival_offset(&self, delivery_index: u64) -> u64 {
        match self.q {
            None => (delivery_index + 1) * self.beta_m,
            Some(q) => self.beta_m + delivery_index * q,
        }
    }

    /// Absolute cycle the *critical* (requested) chunk arrives.
    ///
    /// This is when a BL / BNL processor resumes after the triggering
    /// miss: `start + β_m`.
    pub fn critical_arrives_at(&self) -> u64 {
        self.start + self.arrival_offset(0)
    }

    /// Absolute cycle the whole line is in the cache.
    pub fn complete_at(&self) -> u64 {
        self.start + self.arrival_offset(self.chunks() - 1)
    }

    /// Returns `true` once the fill has fully completed at `cycle`.
    pub fn is_complete(&self, cycle: u64) -> bool {
        cycle >= self.complete_at()
    }

    /// Absolute cycle the chunk containing `addr` arrives.
    ///
    /// Chunks are delivered critical-word-first in wrap-around order.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not within the line being filled.
    pub fn chunk_available_at(&self, addr: Addr) -> u64 {
        assert_eq!(
            addr.line(self.line_bytes),
            self.line,
            "address outside the in-flight line"
        );
        let chunk = addr.chunk_in_line(self.line_bytes, self.chunk_bytes);
        let chunks = self.chunks();
        let delivery_index = (chunk + chunks - self.critical_chunk) % chunks;
        self.start + self.arrival_offset(delivery_index)
    }

    /// Returns `true` if the chunk containing `addr` has arrived by
    /// `cycle`.
    pub fn chunk_available(&self, addr: Addr, cycle: u64) -> bool {
        cycle >= self.chunk_available_at(addr)
    }

    /// Returns `true` if `addr` falls inside the line being filled.
    pub fn covers(&self, addr: Addr) -> bool {
        addr.line(self.line_bytes) == self.line
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
