//! The in-order timing simulator.
//!
//! # Timing accounting
//!
//! The simulator is built so the paper's Eq. 2 is an *identity* over a
//! finished run:
//!
//! ```text
//! cycles = (E − Λm − W) + miss_stall + flush_stall + write_stall + ifetch_stall
//! ```
//!
//! where `Λm` counts data-cache line fills and `W` write-around stores.
//! Every instruction advances the clock by one base cycle; every further
//! advancement is charged to exactly one stall account, and the base cycle
//! of a fill-triggering (resp. write-around) instruction is re-charged to
//! the miss (resp. write) account because Eq. 2's `(E − Λm)` term excludes
//! those instructions. Consequently the measured stalling factor
//! `φ = miss_stall / (Λm β_m)` equals `L/D` exactly for a full-stalling
//! cache and has minimum 1 for BL/BNL, exactly as Table 2 requires.

use crate::config::{CpuConfig, Prefetch, StallFeature};
use crate::result::SimResult;
use simcache::Cache;
use simmem::{BusWidth, FillSchedule, MemoryTiming, WriteBuffer};
use simtrace::{Addr, Instr, MemOp, MemRef};
use std::collections::VecDeque;

/// The simulator.
///
/// Create one per run; it accumulates state and statistics across
/// [`Cpu::step`] calls and is consumed by [`Cpu::finish`].
#[derive(Debug)]
pub struct Cpu {
    cfg: CpuConfig,
    dcache: Cache,
    icache: Option<Cache>,
    l2: Option<Cache>,
    l2_timing: Option<MemoryTiming>,
    l2_free_at: u64,
    wbuf: Option<WriteBuffer>,
    fills: VecDeque<FillSchedule>,
    pf_fills: VecDeque<FillSchedule>,
    /// Prefetched lines not yet referenced (tagged prefetch trigger).
    pf_tagged: std::collections::HashSet<u64>,
    last_fill_instr: Option<u64>,
    miss_distance_hist: [u64; 20],
    cycle: u64,
    mem_free_at: u64,
    instructions: u64,
    issue_slots: u32,
    base_cycles: u64,
    miss_stall: u64,
    flush_stall: u64,
    write_stall: u64,
    ifetch_stall: u64,
}

impl Cpu {
    /// Builds a CPU from its configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid; use
    /// [`CpuConfig::validate`] to check fallibly.
    pub fn new(cfg: CpuConfig) -> Self {
        cfg.validate().expect("invalid CPU configuration");
        let wbuf = cfg
            .write_buffer
            .map(|wc| WriteBuffer::new(wc.capacity, cfg.timing.beta_m(), wc.mode));
        let l2_timing = cfg.l2.map(|l2| {
            MemoryTiming::new(
                BusWidth::new(cfg.timing.bus().bytes()).expect("validated bus"),
                l2.beta_l2,
            )
        });
        Cpu {
            dcache: Cache::new(cfg.dcache),
            icache: cfg.icache.map(Cache::new),
            l2: cfg.l2.map(|l2| Cache::new(l2.cache)),
            l2_timing,
            l2_free_at: 0,
            wbuf,
            fills: VecDeque::new(),
            pf_fills: VecDeque::new(),
            pf_tagged: std::collections::HashSet::new(),
            last_fill_instr: None,
            miss_distance_hist: [0; 20],
            cycle: 0,
            mem_free_at: 0,
            instructions: 0,
            issue_slots: 0,
            base_cycles: 0,
            miss_stall: 0,
            flush_stall: 0,
            write_stall: 0,
            ifetch_stall: 0,
            cfg,
        }
    }

    /// Current cycle count.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Runs an entire trace and returns the result.
    pub fn run(mut self, trace: impl IntoIterator<Item = Instr>) -> SimResult {
        for instr in trace {
            self.step(&instr);
        }
        self.finish()
    }

    /// Executes one instruction.
    pub fn step(&mut self, instr: &Instr) {
        self.instructions += 1;
        // Base execution: `issue_width` instructions share one cycle.
        self.issue_slots += 1;
        let advanced = self.issue_slots >= self.cfg.issue_width;
        if advanced {
            self.issue_slots = 0;
            self.cycle += 1;
            self.base_cycles += 1;
        }

        let cycle_at_entry = self.cycle;
        self.fetch(instr);
        self.retire_fills();

        if let Some(mref) = instr.mem {
            self.data_access(mref, advanced);
        }
        if self.cycle != cycle_at_entry {
            // Any stall breaks the current issue group.
            self.issue_slots = 0;
        }
    }

    /// A snapshot of the accumulated result without ending the run —
    /// used for windowed / per-phase measurement.
    pub fn snapshot(&self) -> SimResult {
        SimResult {
            cycles: self.cycle,
            instructions: self.instructions,
            base_cycles: self.base_cycles,
            dcache: *self.dcache.stats(),
            icache: self.icache.as_ref().map(|c| *c.stats()),
            l2: self.l2.as_ref().map(|c| *c.stats()),
            wbuf: self.wbuf.as_ref().map(|w| *w.stats()),
            miss_stall_cycles: self.miss_stall,
            flush_stall_cycles: self.flush_stall,
            write_stall_cycles: self.write_stall,
            ifetch_stall_cycles: self.ifetch_stall,
            line_bytes: self.cfg.dcache.line_bytes(),
            beta_m: self.cfg.timing.beta_m(),
            miss_distance_hist: self.miss_distance_hist,
        }
    }

    /// Finishes the run and returns the accumulated result.
    pub fn finish(self) -> SimResult {
        SimResult {
            cycles: self.cycle,
            instructions: self.instructions,
            dcache: *self.dcache.stats(),
            icache: self.icache.as_ref().map(|c| *c.stats()),
            l2: self.l2.as_ref().map(|c| *c.stats()),
            wbuf: self.wbuf.as_ref().map(|w| *w.stats()),
            base_cycles: self.base_cycles,
            miss_stall_cycles: self.miss_stall,
            flush_stall_cycles: self.flush_stall,
            write_stall_cycles: self.write_stall,
            ifetch_stall_cycles: self.ifetch_stall,
            line_bytes: self.cfg.dcache.line_bytes(),
            beta_m: self.cfg.timing.beta_m(),
            miss_distance_hist: self.miss_distance_hist,
        }
    }

    /// Instruction fetch through the (full-blocking) I-cache — on its own
    /// bus by default (paper Section 3.3: two separate buses), or
    /// contending with data traffic when `shared_bus` is set.
    fn fetch(&mut self, instr: &Instr) {
        let Some(ic) = &mut self.icache else { return };
        let out = ic.access(MemOp::Load, instr.pc);
        if out.filled {
            let fill = self
                .cfg
                .timing
                .line_fill_time(self.cfg.icache.expect("icache cfg").line_bytes());
            let wait = if self.cfg.shared_bus {
                // Queue behind in-flight data traffic on the one bus.
                let start = self.cycle.max(self.mem_free_at);
                self.mem_free_at = start + fill;
                (start + fill) - self.cycle
            } else {
                fill
            };
            self.cycle += wait;
            self.ifetch_stall += wait;
        }
    }

    fn retire_fills(&mut self) {
        let now = self.cycle;
        while matches!(self.fills.front(), Some(f) if f.is_complete(now)) {
            self.fills.pop_front();
        }
        while matches!(self.pf_fills.front(), Some(f) if f.is_complete(now)) {
            self.pf_fills.pop_front();
        }
    }

    /// Max outstanding fills the stalling feature supports.
    fn mshrs(&self) -> usize {
        match self.cfg.stall {
            StallFeature::NonBlocking { mshrs } => mshrs as usize,
            _ => 1,
        }
    }

    fn data_access(&mut self, mref: MemRef, advanced: bool) {
        self.prefetch_wait(mref);
        self.conflict_stall(mref);
        self.retire_fills();

        let out = self.dcache.access(mref.op, mref.addr);

        if out.write_around {
            self.write_around(advanced);
            return;
        }
        if out.hit {
            // Tagged prefetch: the first demand reference to a
            // prefetched line triggers the next prefetch, keeping a
            // stream pipelined without a demand miss in between.
            if self.cfg.prefetch == Prefetch::NextLine && self.pf_tagged.remove(&out.line.raw()) {
                self.issue_prefetch(mref);
            }
            if out.write_through {
                self.write_through_hit();
            }
            return;
        }

        // A miss that allocates: wait for an MSHR, then start the fill.
        debug_assert!(out.filled, "non-hit non-write-around access must fill");
        if self.fills.len() >= self.mshrs() {
            let free_at = self.fills.front().expect("fills non-empty").complete_at();
            if free_at > self.cycle {
                self.miss_stall += free_at - self.cycle;
                self.cycle = free_at;
            }
            self.fills.pop_front();
        }

        // Record the inter-miss instruction distance (Eq. 8's ΔC).
        if let Some(last) = self.last_fill_instr {
            let bucket = SimResult::distance_bucket(self.instructions - last);
            self.miss_distance_hist[bucket] += 1;
        }
        self.last_fill_instr = Some(self.instructions);

        // The memory request issues in the instruction's own cycle.
        let issue = if advanced { self.cycle - 1 } else { self.cycle };
        let read_bypass_delay = self.wbuf.as_mut().map_or(0, |wb| wb.read_delay(issue));
        let sched = self.start_fill(mref.addr, issue + read_bypass_delay);

        let resume = match self.cfg.stall {
            StallFeature::FullStall => sched.complete_at(),
            StallFeature::BusLocked
            | StallFeature::BusNotLocked1
            | StallFeature::BusNotLocked2
            | StallFeature::BusNotLocked3 => sched.critical_arrives_at(),
            StallFeature::NonBlocking { .. } => self.cycle,
        };
        let end = resume.max(self.cycle);
        // Charge the advancement plus the instruction's re-based cycle
        // (the base cycle moves from the E − Λm account to the miss
        // account; with wide issue the instruction may not have had one).
        self.miss_stall += end - self.cycle + u64::from(advanced);
        self.base_cycles -= u64::from(advanced);
        self.cycle = end;

        self.handle_flush(&sched, out.writeback);
        if self.cfg.prefetch == Prefetch::NextLine {
            self.issue_prefetch(mref);
        }
        self.fills.push_back(sched);
    }

    /// Any access touching a line still streaming in from a *prefetch*
    /// waits for its chunk — regardless of the stalling feature, since
    /// the data simply is not there yet.
    fn prefetch_wait(&mut self, mref: MemRef) {
        let now = self.cycle;
        if let Some(f) = self
            .pf_fills
            .iter()
            .find(|f| !f.is_complete(now) && f.covers(mref.addr))
        {
            let until = f.chunk_available_at(mref.addr).max(now);
            if until > now {
                self.miss_stall += until - now;
                self.cycle = until;
            }
        }
    }

    /// Launches a next-line prefetch behind the demand fill.
    fn issue_prefetch(&mut self, mref: MemRef) {
        let line_bytes = self.cfg.dcache.line_bytes();
        let next = mref
            .addr
            .line(line_bytes)
            .base(line_bytes)
            .wrapping_add(line_bytes);
        let Some(writeback) = self.dcache.prefetch(next) else {
            return; // already resident (possibly by an earlier prefetch)
        };
        self.pf_tagged.insert(next.line(line_bytes).raw());
        if self.pf_tagged.len() > 4096 {
            // Stale tags (evicted before first use) are harmless; bound
            // the set anyway.
            self.pf_tagged.clear();
        }
        let sched = self.start_fill(next, self.cycle);
        if let Some(victim) = writeback {
            // The victim's flush rides behind the prefetch; it is never
            // on the processor's critical path.
            let service = self.victim_flush_service(victim.base(line_bytes), sched.complete_at());
            match &mut self.wbuf {
                Some(wb) => {
                    let stall = wb.enqueue(sched.complete_at(), service);
                    self.mem_free_at += stall;
                }
                None => {
                    self.mem_free_at += service;
                }
            }
        }
        self.pf_fills.push_back(sched);
        if self.pf_fills.len() > 4 {
            self.pf_fills.pop_front();
        }
    }

    /// Schedules a line fill for `addr`, sourcing it from the L2 when one
    /// is present and hits, otherwise from memory, and accounting the
    /// relevant port occupancies. `gate` is the earliest cycle the
    /// request may issue.
    fn start_fill(&mut self, addr: Addr, gate: u64) -> FillSchedule {
        let line_bytes = self.cfg.dcache.line_bytes();
        let (l2_hit, l2_victim_dirty) = match &mut self.l2 {
            Some(l2) => {
                let out = l2.access(MemOp::Load, addr);
                (out.hit, out.writeback.is_some())
            }
            None => {
                let start = gate.max(self.mem_free_at);
                let sched = FillSchedule::new(&self.cfg.timing, line_bytes, addr, start);
                self.mem_free_at = sched.complete_at();
                if let Some(wb) = &mut self.wbuf {
                    wb.occupy(start, sched.complete_at() - start);
                }
                return sched;
            }
        };
        if l2_hit {
            let timing = self.l2_timing.expect("l2 present implies timing");
            let start = gate.max(self.l2_free_at);
            let sched = FillSchedule::new(&timing, line_bytes, addr, start);
            self.l2_free_at = sched.complete_at();
            sched
        } else {
            // The L2 missed and filled from memory (its state is already
            // updated by the probe); a dirty L2 victim drains to memory
            // off the critical path.
            let start = gate.max(self.mem_free_at).max(self.l2_free_at);
            let sched = FillSchedule::new(&self.cfg.timing, line_bytes, addr, start);
            self.mem_free_at = sched.complete_at();
            self.l2_free_at = sched.complete_at();
            if let Some(wb) = &mut self.wbuf {
                wb.occupy(start, sched.complete_at() - start);
            }
            if l2_victim_dirty {
                self.mem_free_at += self.cfg.timing.line_write_time(line_bytes);
            }
            sched
        }
    }

    /// The service time of writing a victim line one level down: into
    /// the L2 when present (updating its state), else to memory.
    fn victim_flush_service(&mut self, victim_base: Addr, at: u64) -> u64 {
        let line_bytes = self.cfg.dcache.line_bytes();
        match &mut self.l2 {
            Some(l2) => {
                let out = l2.access(MemOp::Store, victim_base);
                let timing = self.l2_timing.expect("l2 present implies timing");
                if !out.hit {
                    // Inclusion slipped (the L2 evicted the line earlier):
                    // the write-allocate pull from memory rides the
                    // memory port off the critical path.
                    self.mem_free_at =
                        self.mem_free_at.max(at) + self.cfg.timing.line_fill_time(line_bytes);
                }
                if out.writeback.is_some() {
                    self.mem_free_at =
                        self.mem_free_at.max(at) + self.cfg.timing.line_write_time(line_bytes);
                }
                timing.line_fill_time(line_bytes)
            }
            None => self.cfg.timing.line_write_time(line_bytes),
        }
    }

    /// Stalls imposed by an in-flight fill *before* the access proceeds.
    fn conflict_stall(&mut self, mref: MemRef) {
        let now = self.cycle;
        let mut stall_until = now;
        match self.cfg.stall {
            StallFeature::FullStall => {}
            StallFeature::BusLocked => {
                // Any load/store while the line streams in waits for
                // completion.
                if let Some(f) = self.fills.front() {
                    if !f.is_complete(now) {
                        stall_until = f.complete_at();
                    }
                }
            }
            StallFeature::BusNotLocked1 => {
                if let Some(f) = self.fills.front() {
                    if !f.is_complete(now) {
                        let second_miss = !f.covers(mref.addr) && !self.dcache.contains(mref.addr);
                        if f.covers(mref.addr) || second_miss {
                            stall_until = f.complete_at();
                        }
                    }
                }
            }
            StallFeature::BusNotLocked2 => {
                if let Some(f) = self.fills.front() {
                    if !f.is_complete(now) {
                        if f.covers(mref.addr) {
                            if !f.chunk_available(mref.addr, now) {
                                stall_until = f.complete_at();
                            }
                        } else if !self.dcache.contains(mref.addr) {
                            stall_until = f.complete_at();
                        }
                    }
                }
            }
            StallFeature::BusNotLocked3 => {
                if let Some(f) = self.fills.front() {
                    if !f.is_complete(now) {
                        if f.covers(mref.addr) {
                            stall_until = f.chunk_available_at(mref.addr).max(now);
                        } else if !self.dcache.contains(mref.addr) {
                            stall_until = f.complete_at();
                        }
                    }
                }
            }
            StallFeature::NonBlocking { .. } => {
                // Accesses to any in-flight line wait for their chunk;
                // other lines proceed (misses gated by MSHR count later).
                if let Some(f) = self
                    .fills
                    .iter()
                    .find(|f| !f.is_complete(now) && f.covers(mref.addr))
                {
                    stall_until = f.chunk_available_at(mref.addr).max(now);
                }
            }
        }
        if stall_until > now {
            self.miss_stall += stall_until - now;
            self.cycle = stall_until;
        }
    }

    /// A write-around store miss: one `D`-byte transfer to memory.
    fn write_around(&mut self, advanced: bool) {
        let service = self.cfg.timing.single_write_time();
        let rebase = u64::from(advanced);
        self.base_cycles -= rebase;
        match &mut self.wbuf {
            Some(wb) => {
                // Posted write: only a full buffer stalls the CPU. The
                // re-base moves the W instruction's cycle here (module
                // docs).
                let stall = wb.enqueue(self.cycle, service);
                self.write_stall += stall + rebase;
                self.cycle += stall;
            }
            None => {
                let issue = if advanced { self.cycle - 1 } else { self.cycle };
                let start = issue.max(self.mem_free_at);
                let end = (start + service).max(self.cycle);
                self.write_stall += end - self.cycle + rebase;
                self.mem_free_at = start + service;
                self.cycle = end;
            }
        }
    }

    /// A write-through store hit: the store data travels to memory but
    /// the instruction keeps its base cycle (it is not a `W` miss).
    fn write_through_hit(&mut self) {
        let service = self.cfg.timing.single_write_time();
        match &mut self.wbuf {
            Some(wb) => {
                let stall = wb.enqueue(self.cycle, service);
                self.write_stall += stall;
                self.cycle += stall;
            }
            None => {
                let start = self.cycle.max(self.mem_free_at);
                let end = start + service;
                self.write_stall += end - self.cycle;
                self.mem_free_at = end;
                self.cycle = end;
            }
        }
    }

    /// Dirty-victim flush, posted after the fill completes (Section 5.3).
    fn handle_flush(&mut self, sched: &FillSchedule, victim: Option<simtrace::LineAddr>) {
        let Some(victim) = victim else { return };
        let line_bytes = self.cfg.dcache.line_bytes();
        let service = self.victim_flush_service(victim.base(line_bytes), sched.complete_at());
        match &mut self.wbuf {
            Some(wb) => {
                // Hidden from the CPU; back-pressure delays the memory
                // port, not the pipeline.
                let stall = wb.enqueue(sched.complete_at(), service);
                self.mem_free_at += stall;
            }
            None => {
                self.flush_stall += service;
                self.cycle += service;
                self.mem_free_at = self.mem_free_at.max(sched.complete_at()) + service;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::WriteBufferConfig;
    use simcache::{CacheConfig, WriteMiss, WritePolicy};
    use simmem::{BusWidth, MemoryTiming};

    const BETA: u64 = 8;
    const LINE: u64 = 32; // L/D = 8 with a 4-byte bus

    fn timing() -> MemoryTiming {
        MemoryTiming::new(BusWidth::new(4).unwrap(), BETA)
    }

    fn config(stall: StallFeature) -> CpuConfig {
        CpuConfig::baseline(CacheConfig::new(8 * 1024, LINE, 2).unwrap(), timing())
            .with_stall(stall)
    }

    fn load(a: u64) -> Instr {
        Instr::mem(0u64, MemRef::load(a, 4))
    }

    fn store(a: u64) -> Instr {
        Instr::mem(0u64, MemRef::store(a, 4))
    }

    fn plain() -> Instr {
        Instr::plain(0u64)
    }

    fn eq2_identity(r: &SimResult) {
        let base = r.instructions - r.dcache.fills - r.dcache.write_arounds;
        assert_eq!(
            r.cycles,
            base + r.miss_stall_cycles
                + r.flush_stall_cycles
                + r.write_stall_cycles
                + r.ifetch_stall_cycles,
            "Eq. 2 identity violated: {r:?}"
        );
    }

    #[test]
    fn full_stall_phi_is_exactly_line_over_bus() {
        let trace = vec![load(0x1000), plain(), plain(), load(0x2000)];
        let r = Cpu::new(config(StallFeature::FullStall)).run(trace);
        // Two misses at (L/D)β = 64 cycles each, two plain cycles.
        assert_eq!(r.cycles, 64 + 1 + 1 + 64);
        assert!((r.phi() - 8.0).abs() < 1e-12, "φ = {}", r.phi());
        eq2_identity(&r);
    }

    #[test]
    fn bus_locked_resumes_at_critical_word() {
        // One isolated miss: BL pays only β_m.
        let r = Cpu::new(config(StallFeature::BusLocked)).run(vec![load(0x1000)]);
        assert_eq!(r.cycles, BETA);
        assert!((r.phi() - 1.0).abs() < 1e-12);
        eq2_identity(&r);
    }

    #[test]
    fn bus_locked_blocks_all_accesses_during_fill() {
        let mut cpu = Cpu::new(config(StallFeature::BusLocked));
        cpu.step(&load(0x1000)); // miss: fill 0..64, resume at 8
        assert_eq!(cpu.cycle(), 8);
        cpu.step(&load(0x1004)); // same line, still filling: wait to 64
        assert_eq!(cpu.cycle(), 64);
        let r = cpu.finish();
        eq2_identity(&r);
    }

    #[test]
    fn bnl1_allows_hits_to_other_lines() {
        let mut cpu = Cpu::new(config(StallFeature::BusNotLocked1));
        // Prime line B so it is resident (BNL resumes at critical word).
        cpu.step(&load(0x2000));
        assert_eq!(cpu.cycle(), 8);
        for _ in 0..64 {
            cpu.step(&plain()); // first fill completes meanwhile
        }
        let t = cpu.cycle();
        cpu.step(&load(0x1000)); // miss on line A, resumes at +β
        assert_eq!(cpu.cycle(), t + BETA);
        cpu.step(&load(0x2004)); // hit on resident line B: no stall
        assert_eq!(cpu.cycle(), t + BETA + 1);
        cpu.step(&load(0x1004)); // in-flight line A: stall until complete
        assert_eq!(cpu.cycle(), t + 64);
        let r = cpu.finish();
        eq2_identity(&r);
    }

    #[test]
    fn bus_locked_vs_bnl1_on_other_line_hit() {
        // BL stalls the other-line hit, BNL1 does not.
        let run = |stall| {
            let mut cpu = Cpu::new(config(stall));
            cpu.step(&load(0x2000));
            for _ in 0..64 {
                cpu.step(&plain());
            }
            cpu.step(&load(0x1000)); // miss, fill in flight
            cpu.step(&load(0x2004)); // hit other line
            cpu.cycle()
        };
        assert!(run(StallFeature::BusLocked) > run(StallFeature::BusNotLocked1));
    }

    #[test]
    fn bnl2_stalls_to_completion_when_chunk_missing() {
        let mut cpu = Cpu::new(config(StallFeature::BusNotLocked2));
        cpu.step(&load(0x1000)); // fill at 0; chunk 0 at 8, chunk 1 at 16...
        assert_eq!(cpu.cycle(), 8);
        // At cycle 9 chunk 1 (0x1004) is not there: stall to completion.
        cpu.step(&load(0x1004));
        assert_eq!(cpu.cycle(), 64);
        let r = cpu.finish();
        eq2_identity(&r);
    }

    #[test]
    fn bnl2_no_stall_when_chunk_already_arrived() {
        let mut cpu = Cpu::new(config(StallFeature::BusNotLocked2));
        cpu.step(&load(0x1000)); // resumes at 8
        for _ in 0..10 {
            cpu.step(&plain()); // cycle 18; chunk 1 arrived at 16
        }
        cpu.step(&load(0x1004));
        assert_eq!(
            cpu.cycle(),
            19,
            "arrived chunk satisfies the access with no stall"
        );
    }

    #[test]
    fn bnl3_waits_only_for_the_chunk() {
        let mut cpu = Cpu::new(config(StallFeature::BusNotLocked3));
        cpu.step(&load(0x1000)); // chunks at 8, 16, 24, ...
        assert_eq!(cpu.cycle(), 8);
        cpu.step(&load(0x1004)); // chunk 1 at 16: stall 9 → 16 (hit proceeds within the stall)
        assert_eq!(cpu.cycle(), 16);
        let r = cpu.finish();
        eq2_identity(&r);
        assert!(r.phi() < 8.0);
    }

    #[test]
    fn bnl3_second_access_to_critical_chunk_is_free() {
        let mut cpu = Cpu::new(config(StallFeature::BusNotLocked3));
        cpu.step(&load(0x1000));
        cpu.step(&load(0x1000)); // critical chunk already arrived
        assert_eq!(cpu.cycle(), 9);
    }

    #[test]
    fn non_blocking_load_miss_does_not_stall() {
        let mut cpu = Cpu::new(config(StallFeature::NonBlocking { mshrs: 4 }));
        cpu.step(&load(0x1000));
        assert_eq!(cpu.cycle(), 1, "NB hides the load miss");
        let r = cpu.finish();
        eq2_identity(&r);
        assert!(r.phi() <= 1.0 / BETA as f64 + 1e-12);
    }

    #[test]
    fn non_blocking_mshr_exhaustion_stalls() {
        let mut cpu = Cpu::new(config(StallFeature::NonBlocking { mshrs: 1 }));
        cpu.step(&load(0x1000)); // occupies the only MSHR; fill 0..64
        cpu.step(&load(0x2000)); // must wait for the first fill to retire
        assert!(
            cpu.cycle() >= 64,
            "second miss waits for MSHR: {}",
            cpu.cycle()
        );
        let r = cpu.finish();
        eq2_identity(&r);
    }

    #[test]
    fn non_blocking_overlaps_independent_misses() {
        // With 2 MSHRs, two back-to-back misses overlap their fills; with
        // 1 they serialise on the memory port.
        let run = |mshrs| {
            let mut cpu = Cpu::new(config(StallFeature::NonBlocking { mshrs }));
            cpu.step(&load(0x1000));
            cpu.step(&load(0x2000));
            // Touch both lines afterwards to expose fill completion times.
            cpu.step(&load(0x1004));
            cpu.step(&load(0x2004));
            cpu.cycle()
        };
        assert!(run(2) <= run(1));
    }

    #[test]
    fn ordering_fs_ge_bl_ge_bnl1_ge_bnl3_ge_nb() {
        use simtrace::workload::builtin;
        let run = |stall| {
            Cpu::new(config(stall))
                .run(builtin("swm256").unwrap().compile(42).take(30_000))
                .cycles
        };
        let fs = run(StallFeature::FullStall);
        let bl = run(StallFeature::BusLocked);
        let bnl1 = run(StallFeature::BusNotLocked1);
        let bnl2 = run(StallFeature::BusNotLocked2);
        let bnl3 = run(StallFeature::BusNotLocked3);
        let nb = run(StallFeature::NonBlocking { mshrs: 8 });
        assert!(fs >= bl, "FS {fs} < BL {bl}");
        assert!(bl >= bnl1, "BL {bl} < BNL1 {bnl1}");
        assert!(bnl1 >= bnl2, "BNL1 {bnl1} < BNL2 {bnl2}");
        assert!(bnl2 >= bnl3, "BNL2 {bnl2} < BNL3 {bnl3}");
        assert!(bnl3 >= nb, "BNL3 {bnl3} < NB {nb}");
    }

    #[test]
    fn flush_stalls_without_write_buffer() {
        // Dirty a line, evict it: the writeback costs (L/D)β extra.
        let cfg = CpuConfig::baseline(CacheConfig::new(64, 32, 1).unwrap(), timing());
        let mut cpu = Cpu::new(cfg);
        cpu.step(&store(0x0)); // miss, fill (64), dirty
        let after_store = cpu.cycle();
        assert_eq!(after_store, 64);
        cpu.step(&load(0x40)); // same set: evicts dirty line → fill + flush
        assert_eq!(cpu.cycle(), after_store + 64 + 64);
        let r = cpu.finish();
        assert_eq!(r.flush_stall_cycles, 64);
        eq2_identity(&r);
    }

    #[test]
    fn write_buffer_hides_flushes() {
        let base = CpuConfig::baseline(CacheConfig::new(64, 32, 1).unwrap(), timing());
        let with_wb = base.with_write_buffer(WriteBufferConfig::default());
        let trace: Vec<Instr> = (0..200u64)
            .map(|i| {
                if i % 2 == 0 {
                    store((i % 8) * 0x40)
                } else {
                    load(((i + 1) % 8) * 0x40)
                }
            })
            .collect();
        let slow = Cpu::new(base).run(trace.clone());
        let fast = Cpu::new(with_wb).run(trace);
        assert!(slow.flush_stall_cycles > 0);
        assert_eq!(fast.flush_stall_cycles, 0, "ideal buffer hides all flushes");
        assert!(fast.cycles < slow.cycles);
        eq2_identity(&slow);
        eq2_identity(&fast);
    }

    #[test]
    fn write_around_store_costs_beta() {
        let cfg = CpuConfig::baseline(
            CacheConfig::new(8 * 1024, LINE, 2)
                .unwrap()
                .with_write_miss(WriteMiss::Around),
            timing(),
        );
        let r = Cpu::new(cfg).run(vec![store(0x1000), plain()]);
        // Store miss around: β cycles; plain: 1.
        assert_eq!(r.cycles, BETA + 1);
        assert_eq!(r.dcache.write_arounds, 1);
        eq2_identity(&r);
    }

    #[test]
    fn write_through_store_hit_pays_transfer() {
        let cfg = CpuConfig::baseline(
            CacheConfig::new(8 * 1024, LINE, 2)
                .unwrap()
                .with_write_policy(WritePolicy::WriteThrough)
                .with_write_miss(WriteMiss::Around),
            timing(),
        );
        let mut cpu = Cpu::new(cfg);
        cpu.step(&load(0x1000)); // prime the line (64 cycles)
        let t = cpu.cycle();
        cpu.step(&store(0x1004)); // hit, but writes through: 1 + β
        assert_eq!(cpu.cycle(), t + 1 + BETA);
        let r = cpu.finish();
        eq2_identity(&r);
    }

    #[test]
    fn icache_misses_add_fetch_stalls() {
        let cfg =
            config(StallFeature::FullStall).with_icache(CacheConfig::new(4096, 32, 1).unwrap());
        // 64 sequential instructions: one I-miss per 8 instructions.
        let trace: Vec<Instr> = (0..64u64).map(|i| Instr::plain(i * 4)).collect();
        let r = Cpu::new(cfg).run(trace);
        assert_eq!(r.ifetch_stall_cycles, 8 * 64); // 8 line fills × 64 cycles
        assert_eq!(r.cycles, 64 + 512);
        eq2_identity(&r);
    }

    #[test]
    fn hits_cost_one_cycle() {
        let mut cpu = Cpu::new(config(StallFeature::FullStall));
        cpu.step(&load(0x1000));
        let t = cpu.cycle();
        for i in 0..7 {
            cpu.step(&load(0x1000 + i * 4));
        }
        assert_eq!(cpu.cycle(), t + 7);
    }

    #[test]
    fn pipelined_memory_shortens_fs_misses() {
        let mut cfg = config(StallFeature::FullStall);
        cfg.timing = timing().pipelined(2);
        let r = Cpu::new(cfg).run(vec![load(0x1000)]);
        // β_p = 8 + 2·7 = 22 instead of 64.
        assert_eq!(r.cycles, 22);
        eq2_identity(&r);
    }

    #[test]
    fn identity_holds_on_spec_proxies() {
        for p in simtrace::workload::builtins() {
            for stall in [
                StallFeature::FullStall,
                StallFeature::BusLocked,
                StallFeature::BusNotLocked1,
                StallFeature::BusNotLocked2,
                StallFeature::BusNotLocked3,
                StallFeature::NonBlocking { mshrs: 4 },
            ] {
                let r = Cpu::new(config(stall)).run(p.compile(3).take(20_000));
                eq2_identity(&r);
                let hi = (LINE / 4) as f64 + 1e-9;
                assert!(
                    r.phi() >= 0.0 && r.phi() <= hi,
                    "{} {stall}: φ={} out of range",
                    p.label(),
                    r.phi()
                );
            }
        }
    }

    #[test]
    fn phi_bounds_per_feature() {
        use simtrace::workload::builtin;
        let run = |stall| {
            Cpu::new(config(stall))
                .run(builtin("hydro2d").unwrap().compile(9).take(30_000))
                .phi()
        };
        let ld = (LINE / 4) as f64;
        assert!((run(StallFeature::FullStall) - ld).abs() < 1e-9);
        let bl = run(StallFeature::BusLocked);
        assert!((1.0..=ld + 1e-9).contains(&bl), "BL φ = {bl}");
        let bnl3 = run(StallFeature::BusNotLocked3);
        assert!(bnl3 <= bl + 1e-9);
        let nb = run(StallFeature::NonBlocking { mshrs: 8 });
        assert!(nb <= bnl3 + 1e-9, "NB φ = {nb} > BNL3 φ = {bnl3}");
    }

    #[test]
    fn write_buffer_read_bypass_chunk_mode_delays_reads() {
        use simmem::BypassMode;
        let mk = |mode| {
            CpuConfig::baseline(CacheConfig::new(64, 32, 1).unwrap(), timing())
                .with_write_buffer(WriteBufferConfig { capacity: 2, mode })
        };
        let trace: Vec<Instr> = (0..100u64)
            .map(|i| {
                if i % 2 == 0 {
                    store((i % 6) * 0x40)
                } else {
                    load(((i + 3) % 6) * 0x40)
                }
            })
            .collect();
        let ideal = Cpu::new(mk(BypassMode::Ideal)).run(trace.clone());
        let chunky = Cpu::new(mk(BypassMode::ChunkGranular)).run(trace);
        assert!(chunky.cycles >= ideal.cycles);
    }

    #[test]
    fn next_line_prefetch_accelerates_streaming() {
        use crate::config::Prefetch;
        // Streaming loads with compute in between: one load per 8
        // instructions, so a 64-cycle line fill can hide behind 64
        // cycles of work.
        let mut trace = Vec::new();
        let mut pc = 0u64;
        for i in 0..4096u64 {
            trace.push(Instr::mem(pc, MemRef::load(0x10_0000 + i * 4, 4)));
            pc += 4;
            for _ in 0..7 {
                trace.push(Instr::plain(pc));
                pc += 4;
            }
        }
        let run = |prefetch| {
            Cpu::new(config(StallFeature::FullStall).with_prefetch(prefetch))
                .run(trace.iter().copied())
        };
        let plain = run(Prefetch::None);
        let pf = run(Prefetch::NextLine);
        assert!(
            pf.cycles * 3 < plain.cycles * 2,
            "prefetch should cut streaming time by ≥ a third: {} vs {}",
            pf.cycles,
            plain.cycles
        );
        assert!(pf.dcache.hit_ratio() > plain.dcache.hit_ratio());
        assert!(pf.dcache.prefetch_fills > 100);
        eq2_identity(&pf);
    }

    #[test]
    fn prefetched_line_access_waits_for_arrival() {
        use crate::config::Prefetch;
        let mut cpu = Cpu::new(config(StallFeature::FullStall).with_prefetch(Prefetch::NextLine));
        cpu.step(&load(0x1000)); // miss: fill 0..64; prefetch 0x1020 in 64..128
        assert_eq!(cpu.cycle(), 64);
        // Touch the prefetched line immediately: its first chunk arrives
        // at 64 + β = 72 (critical chunk of the prefetch schedule).
        cpu.step(&load(0x1020));
        assert_eq!(cpu.cycle(), 72);
        let r = cpu.finish();
        eq2_identity(&r);
    }

    #[test]
    fn prefetch_useless_on_pointer_chase_but_sound() {
        use crate::config::Prefetch;
        // Far-apart lines with no sequential pattern: prefetches are
        // wasted bus work, but correctness and the identity must hold.
        let trace: Vec<Instr> = (0..2000u64)
            .map(|i| Instr::mem(i * 4, MemRef::load(((i * 7919) % 0x100_0000) & !3, 4)))
            .collect();
        let run = |prefetch| {
            Cpu::new(config(StallFeature::FullStall).with_prefetch(prefetch))
                .run(trace.iter().copied())
        };
        let plain = run(Prefetch::None);
        let pf = run(Prefetch::NextLine);
        eq2_identity(&pf);
        // Wasted prefetches double the bus traffic in the worst case —
        // the Tullsen & Eggers caution the paper cites. The slowdown is
        // bounded by 2× plus small queueing effects.
        assert!(pf.cycles as f64 <= plain.cycles as f64 * 2.15);
        assert!(
            pf.cycles >= plain.cycles,
            "prefetch cannot help a pure chase"
        );
    }

    #[test]
    fn prefetch_identity_on_spec_proxies() {
        use crate::config::Prefetch;
        use simtrace::workload::builtin;
        for p in ["swm256", "doduc"] {
            for stall in [StallFeature::FullStall, StallFeature::BusNotLocked3] {
                let r = Cpu::new(config(stall).with_prefetch(Prefetch::NextLine))
                    .run(builtin(p).unwrap().compile(3).take(20_000));
                eq2_identity(&r);
            }
        }
    }

    #[test]
    fn l2_hit_shortens_the_miss() {
        use crate::config::L2Config;
        let l2 = L2Config::new(CacheConfig::new(64 * 1024, LINE, 4).unwrap(), 2);
        let mut cpu = Cpu::new(config(StallFeature::FullStall).with_l2(l2));
        // Cold: both levels miss → full memory fill (64 cycles).
        cpu.step(&load(0x1000));
        assert_eq!(cpu.cycle(), 64);
        // Evict the line from the tiny... the L1 is 8K, so force an L1
        // conflict: the L1 is 2-way with 128 sets; three lines in one set
        // evict the first.
        let set_stride = 128 * LINE; // same L1 set, different tags
        cpu.step(&load(0x1000 + set_stride));
        cpu.step(&load(0x1000 + 2 * set_stride));
        let t = cpu.cycle();
        // Now 0x1000 is out of L1 but still in L2: refill at β_l2 = 2 →
        // 8 chunks × 2 = 16 cycles instead of 64.
        cpu.step(&load(0x1000));
        assert_eq!(cpu.cycle(), t + 16);
        let r = cpu.finish();
        eq2_identity(&r);
        assert_eq!(r.l2.expect("l2 stats").load_hits, 1);
    }

    #[test]
    fn l2_reduces_cycles_on_spec_proxies() {
        use crate::config::L2Config;
        use simtrace::workload::builtin;
        let run = |with_l2: bool| {
            let mut cfg = config(StallFeature::FullStall);
            if with_l2 {
                cfg = cfg.with_l2(L2Config::new(
                    CacheConfig::new(128 * 1024, LINE, 4).unwrap(),
                    2,
                ));
            }
            Cpu::new(cfg).run(builtin("doduc").unwrap().compile(5).take(30_000))
        };
        let without = run(false);
        let with = run(true);
        assert!(
            with.cycles < without.cycles,
            "L2 must help: {} vs {}",
            with.cycles,
            without.cycles
        );
        eq2_identity(&with);
    }

    #[test]
    fn l2_identity_across_features_and_options() {
        use crate::config::{L2Config, Prefetch};
        use simtrace::workload::builtin;
        for stall in [StallFeature::FullStall, StallFeature::BusNotLocked3] {
            for pf in [Prefetch::None, Prefetch::NextLine] {
                let cfg = config(stall)
                    .with_l2(L2Config::new(
                        CacheConfig::new(64 * 1024, LINE, 4).unwrap(),
                        2,
                    ))
                    .with_prefetch(pf)
                    .with_write_buffer(WriteBufferConfig::default());
                let r = Cpu::new(cfg).run(builtin("wave5").unwrap().compile(6).take(15_000));
                eq2_identity(&r);
            }
        }
    }

    #[test]
    fn shared_bus_makes_fetches_contend_with_data() {
        // An I-miss right after a data miss queues behind it on a shared
        // bus but proceeds in parallel on split buses.
        let mk = |shared: bool| {
            let mut cfg =
                config(StallFeature::FullStall).with_icache(CacheConfig::new(4096, 32, 1).unwrap());
            if shared {
                cfg = cfg.with_shared_bus();
            }
            cfg
        };
        let trace: Vec<Instr> = (0..64u64)
            .map(|i| {
                if i % 8 == 0 {
                    Instr::mem(i * 4, MemRef::load(0x10_0000 + i * 64, 4))
                } else {
                    Instr::plain(i * 4)
                }
            })
            .collect();
        let split = Cpu::new(mk(false)).run(trace.iter().copied());
        let shared = Cpu::new(mk(true)).run(trace.iter().copied());
        assert!(
            shared.cycles > split.cycles,
            "bus contention must cost cycles: {} vs {}",
            shared.cycles,
            split.cycles
        );
        eq2_identity(&shared);
    }

    #[test]
    fn asymmetric_write_timing_slows_flushes_only() {
        let slow_writes = MemoryTiming::new(BusWidth::new(4).unwrap(), BETA).with_write_beta(16);
        let cfg = CpuConfig::baseline(CacheConfig::new(64, 32, 1).unwrap(), slow_writes);
        let mut cpu = Cpu::new(cfg);
        cpu.step(&store(0x0)); // fill 64 (reads unchanged)
        assert_eq!(cpu.cycle(), 64);
        cpu.step(&load(0x40)); // evict dirty: fill 64 + flush 8×16
        assert_eq!(cpu.cycle(), 64 + 64 + 128);
        let r = cpu.finish();
        assert_eq!(r.flush_stall_cycles, 128);
        eq2_identity(&r);
    }

    #[test]
    fn longer_memory_cycle_increases_bl_stalling_factor() {
        use simtrace::workload::builtin;
        let run = |beta| {
            let cfg = CpuConfig::baseline(
                CacheConfig::new(8 * 1024, LINE, 2).unwrap(),
                MemoryTiming::new(BusWidth::new(4).unwrap(), beta),
            )
            .with_stall(StallFeature::BusLocked);
            Cpu::new(cfg)
                .run(builtin("swm256").unwrap().compile(5).take(30_000))
                .phi()
        };
        // More memory latency → more overlap conflicts → higher φ
        // (Figure 1's upward trend).
        assert!(run(32) > run(4), "φ(32) = {} vs φ(4) = {}", run(32), run(4));
    }
}
