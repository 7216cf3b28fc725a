//! The miss-event timeline engine: O(misses) φ/cycle replay.
//!
//! The cache's hit/miss/fill/write-back sequence depends only on the
//! trace and the cache geometry — never on the timing model. One pass of
//! the trace through a bare [`Cache`] therefore suffices to record a
//! compact [`MissTimeline`] — the fill events (Eq. 8's ΔC sequence) plus
//! the hit accesses between them — after which a [`TimelineCpu`] can
//! replay *only that event stream* to produce the exact [`SimResult`] of
//! [`Cpu::run`](crate::Cpu::run) for **any** stalling feature, `β_m`,
//! bus width, pipelining `q` or write-buffer setting, in
//! `O(events + conflicted hits)` instead of `O(instructions)` per point.
//!
//! # Why the hits must be kept
//!
//! Timing is *not* purely a function of the misses: a hit issued while a
//! line streams in pays a conflict stall under BL/BNL/NB (Table 2). The
//! timeline therefore records every hit between fills (an [`Echo`]), and
//! the replay walks an event's echoes only while a fill is still in
//! flight — the first echo past the fill's completion fence ends the
//! scan, so the replayed work is `O(events)` in practice while storage
//! stays shared across every (feature × β_m × bus) point.
//!
//! # Exactness and scope
//!
//! The replay is **bit-identical** to [`Cpu::run`](crate::Cpu::run)
//! (asserted by `tests/timeline_oracle.rs` and the unit tests below)
//! whenever the timing model is history-free with respect to the cache
//! state: no instruction cache, no L2, no prefetching, single issue, and
//! a write-back write-allocate data cache (so every miss allocates and
//! hits stay hits regardless of timing). [`TimelineCpu::new`] admits
//! exactly that subset; callers keep `Cpu::run` as the oracle and
//! fall back to it otherwise, as `simcache::explore::hit_ratio_grid_replay`
//! is the oracle of the stack-distance sweeps.

use crate::config::{CpuConfig, Prefetch, StallFeature};
use crate::result::SimResult;
use simcache::{Cache, CacheConfig, CacheStats, WriteMiss, WritePolicy};
use simmem::{FillSchedule, MemoryTiming, WriteBuffer};
use simtrace::{Addr, Instr};
use std::collections::VecDeque;

/// One allocating fill: the timeline's unit of timing work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MissEvent {
    /// 1-based index of the missing instruction (ΔC follows from
    /// consecutive events' differences).
    pub instr: u64,
    /// Full byte address of the miss. The byte address (not a chunk
    /// index) must be stored because the critical-word-first delivery
    /// order depends on the bus width, which is unknown until replay.
    pub addr: Addr,
    /// The miss was a store (write-allocate pulls the line either way).
    pub store: bool,
    /// A dirty victim must be flushed behind this fill.
    pub writeback: bool,
    /// Start of this event's echo range in [`MissTimeline`]'s echo list.
    pub echo_start: u32,
}

/// A hit access between two fills ("echo" of the surrounding misses):
/// timing-relevant only while a fill is in flight.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Echo {
    /// 1-based index of the instruction performing the access.
    pub instr: u64,
    /// Full byte address (chunk index depends on the replay bus width).
    pub addr: Addr,
    /// The access was a store.
    pub store: bool,
}

impl Echo {
    fn from_ref(instr: u64, addr: Addr, store: bool) -> Self {
        Echo { instr, addr, store }
    }
}

/// Streaming timeline extraction: feed instructions (or whole chunks)
/// as they are generated, then [`finish`](MissTimelineBuilder::finish).
///
/// This is the chunked-pipeline face of [`MissTimeline::extract`]: the
/// builder carries the live cache state between chunks, so feeding the
/// same stream in any chunking produces a bit-identical timeline — and
/// a 50 M-instruction trace never needs to exist in memory; only the
/// O(misses) events and O(conflictable hits) echoes accumulate.
#[derive(Debug, Clone)]
pub struct MissTimelineBuilder {
    cache: CacheConfig,
    sim: Cache,
    events: Vec<MissEvent>,
    echo_instrs: Vec<u64>,
    echo_addrs: Vec<Addr>,
    echo_stores: Vec<bool>,
    prelude: Vec<Echo>,
    miss_distance_hist: [u64; 20],
    last_fill_instr: Option<u64>,
    instructions: u64,
}

impl MissTimelineBuilder {
    /// Starts an extraction under `cache`.
    ///
    /// # Panics
    ///
    /// Panics if [`MissTimeline::supports_cache`] rejects `cache`.
    pub fn new(cache: CacheConfig) -> Self {
        assert!(
            MissTimeline::supports_cache(&cache),
            "timeline extraction needs a write-back write-allocate cache"
        );
        MissTimelineBuilder {
            cache,
            sim: Cache::new(cache),
            events: Vec::new(),
            echo_instrs: Vec::new(),
            echo_addrs: Vec::new(),
            echo_stores: Vec::new(),
            prelude: Vec::new(),
            miss_distance_hist: [0u64; 20],
            last_fill_instr: None,
            instructions: 0,
        }
    }

    /// Feeds one instruction.
    ///
    /// # Panics
    ///
    /// Panics if the stream holds ≥ 2³² hit accesses (the echo index is
    /// compact).
    pub fn process(&mut self, instr: &Instr) {
        self.instructions += 1;
        let Some(mref) = instr.mem else { return };
        let out = self.sim.access(mref.op, mref.addr);
        if out.filled {
            if let Some(last) = self.last_fill_instr {
                self.miss_distance_hist[SimResult::distance_bucket(self.instructions - last)] += 1;
            }
            self.last_fill_instr = Some(self.instructions);
            let echo_start =
                u32::try_from(self.echo_instrs.len()).expect("echo index fits in 32 bits");
            self.events.push(MissEvent {
                instr: self.instructions,
                addr: mref.addr,
                store: mref.op.is_store(),
                writeback: out.writeback.is_some(),
                echo_start,
            });
        } else {
            debug_assert!(out.hit, "a write-allocate access either hits or fills");
            if self.events.is_empty() {
                // Hits before the first fill can never stall.
                self.prelude.push(Echo::from_ref(
                    self.instructions,
                    mref.addr,
                    mref.op.is_store(),
                ));
            } else {
                self.echo_instrs.push(self.instructions);
                self.echo_addrs.push(mref.addr);
                self.echo_stores.push(mref.op.is_store());
            }
        }
    }

    /// Feeds one chunk — the unit a streaming pipeline delivers.
    pub fn process_slice(&mut self, instrs: &[Instr]) {
        for instr in instrs {
            self.process(instr);
        }
    }

    /// Instructions fed so far.
    pub fn instructions(&self) -> u64 {
        self.instructions
    }

    /// Seals the extraction into an immutable [`MissTimeline`].
    pub fn finish(self) -> MissTimeline {
        MissTimeline {
            cache: self.cache,
            instructions: self.instructions,
            events: self.events,
            echo_instrs: self.echo_instrs,
            echo_addrs: self.echo_addrs,
            echo_stores: self.echo_stores,
            prelude: self.prelude,
            stats: *self.sim.stats(),
            miss_distance_hist: self.miss_distance_hist,
        }
    }
}

/// The complete timing-relevant record of one (trace, cache config)
/// pair: extract once, replay for every timing model.
///
/// Echoes are stored structure-of-arrays: the replay's fence scan reads
/// only the sorted instruction-index array (enabling the binary-search
/// window cut in [`TimelineCpu::run`]), addresses are touched only for
/// echoes that actually stall-check, and the store flags only by the
/// marks walk — 17 bytes per echo instead of a 24-byte record.
#[derive(Debug, Clone, PartialEq)]
pub struct MissTimeline {
    cache: CacheConfig,
    instructions: u64,
    events: Vec<MissEvent>,
    /// Echo instruction indices (ascending); event `i`'s echoes occupy
    /// `echo_instrs[events[i].echo_start .. events[i+1].echo_start]`
    /// (through the end of the list for the last event).
    echo_instrs: Vec<u64>,
    /// Echo byte addresses, parallel to `echo_instrs`.
    echo_addrs: Vec<Addr>,
    /// Echo store flags, parallel to `echo_instrs`.
    echo_stores: Vec<bool>,
    /// Hits before the first fill; they can never stall.
    prelude: Vec<Echo>,
    stats: CacheStats,
    miss_distance_hist: [u64; 20],
}

impl MissTimeline {
    /// Whether a cache configuration admits timing-free extraction: the
    /// hit/miss outcome of every access must be independent of when the
    /// accesses happen, which holds for write-back write-allocate caches
    /// (every miss allocates; no write-around / write-through traffic).
    pub fn supports_cache(cfg: &CacheConfig) -> bool {
        cfg.write_policy == WritePolicy::WriteBack && cfg.write_miss == WriteMiss::Allocate
    }

    /// Runs `trace` through the cache exactly once and records the
    /// timeline. Equivalent to driving a [`MissTimelineBuilder`] over
    /// the same stream (the streaming form for chunked pipelines).
    ///
    /// # Panics
    ///
    /// Panics if [`MissTimeline::supports_cache`] rejects `cache`, or if
    /// the trace holds ≥ 2³² hit accesses (the echo index is compact).
    pub fn extract(cache: CacheConfig, trace: impl IntoIterator<Item = Instr>) -> Self {
        let mut builder = MissTimelineBuilder::new(cache);
        for instr in trace {
            builder.process(&instr);
        }
        builder.finish()
    }

    /// The cache configuration the timeline was extracted under.
    pub fn cache(&self) -> &CacheConfig {
        &self.cache
    }

    /// Instructions in the recorded trace.
    pub fn instructions(&self) -> u64 {
        self.instructions
    }

    /// Number of fill events recorded.
    pub fn event_count(&self) -> usize {
        self.events.len()
    }

    /// The fill events, in trace order.
    pub fn events(&self) -> &[MissEvent] {
        &self.events
    }

    /// Final cache statistics of the recorded run (timing-independent,
    /// so they are shared verbatim by every replay).
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Total data references in the recorded trace.
    pub fn references(&self) -> u64 {
        self.stats.accesses()
    }

    /// Approximate heap footprint, for the trace-store byte budget.
    pub fn bytes(&self) -> usize {
        use std::mem::size_of;
        self.events.len() * size_of::<MissEvent>()
            + self.echo_instrs.len() * size_of::<u64>()
            + self.echo_addrs.len() * size_of::<Addr>()
            + self.echo_stores.len() * size_of::<bool>()
            + self.prelude.len() * size_of::<Echo>()
            + size_of::<Self>()
    }

    /// Replays the timeline under `cfg` and returns the exact
    /// [`SimResult`] of the equivalent full simulation.
    ///
    /// # Panics
    ///
    /// Panics when [`TimelineCpu::new`] rejects `cfg`; check first and
    /// fall back to [`Cpu::run`](crate::Cpu::run).
    pub fn replay(&self, cfg: &CpuConfig) -> SimResult {
        TimelineCpu::new(self, *cfg)
            .expect("unsupported configuration for timeline replay")
            .run()
    }
}

/// Replays a [`MissTimeline`] under one timing configuration.
///
/// Construction validates the configuration; [`TimelineCpu::run`]
/// produces the final [`SimResult`] and
/// [`TimelineCpu::run_with_marks`] additionally snapshots the
/// accumulated result at given data-reference counts (the windowed /
/// per-phase measurement [`Cpu::snapshot`](crate::Cpu::snapshot)
/// provides in the full simulator).
#[derive(Debug, Clone)]
pub struct TimelineCpu<'a> {
    timeline: &'a MissTimeline,
    cfg: CpuConfig,
}

/// Scalar replay state: everything `Cpu` tracks that timing depends on.
struct ReplayState {
    cycle: u64,
    /// Instructions accounted into `cycle` so far.
    instr: u64,
    mem_free_at: u64,
    fills: VecDeque<FillSchedule>,
    wbuf: Option<WriteBuffer>,
    miss_stall: u64,
    flush_stall: u64,
}

impl ReplayState {
    fn new(cfg: &CpuConfig) -> Self {
        ReplayState {
            cycle: 0,
            instr: 0,
            mem_free_at: 0,
            fills: VecDeque::new(),
            wbuf: cfg
                .write_buffer
                .map(|wc| WriteBuffer::new(wc.capacity, cfg.timing.beta_m(), wc.mode)),
            miss_stall: 0,
            flush_stall: 0,
        }
    }

    /// Advances the clock by the base cycle of every instruction up to
    /// and including `to` (one cycle each at single issue).
    fn advance(&mut self, to: u64) {
        debug_assert!(to >= self.instr);
        self.cycle += to - self.instr;
        self.instr = to;
    }

    /// Drops completed fills from the front — the lazy equivalent of
    /// `Cpu::retire_fills` (fills complete in FIFO order because the
    /// memory port serialises their schedules).
    fn retire_fills(&mut self) {
        let now = self.cycle;
        while matches!(self.fills.front(), Some(f) if f.is_complete(now)) {
            self.fills.pop_front();
        }
    }

    /// `Cpu::conflict_stall`, with the residency question answered by
    /// the timeline instead of the cache: an echo's line is always
    /// resident, an event's never is.
    fn conflict_stall(&mut self, stall: StallFeature, addr: Addr, resident: bool) {
        let now = self.cycle;
        let mut stall_until = now;
        match stall {
            StallFeature::FullStall => {}
            StallFeature::BusLocked => {
                if let Some(f) = self.fills.front() {
                    if !f.is_complete(now) {
                        stall_until = f.complete_at();
                    }
                }
            }
            StallFeature::BusNotLocked1 => {
                if let Some(f) = self.fills.front() {
                    if !f.is_complete(now) {
                        let second_miss = !f.covers(addr) && !resident;
                        if f.covers(addr) || second_miss {
                            stall_until = f.complete_at();
                        }
                    }
                }
            }
            StallFeature::BusNotLocked2 => {
                if let Some(f) = self.fills.front() {
                    if !f.is_complete(now) {
                        if f.covers(addr) {
                            if !f.chunk_available(addr, now) {
                                stall_until = f.complete_at();
                            }
                        } else if !resident {
                            stall_until = f.complete_at();
                        }
                    }
                }
            }
            StallFeature::BusNotLocked3 => {
                if let Some(f) = self.fills.front() {
                    if !f.is_complete(now) {
                        if f.covers(addr) {
                            stall_until = f.chunk_available_at(addr).max(now);
                        } else if !resident {
                            stall_until = f.complete_at();
                        }
                    }
                }
            }
            StallFeature::NonBlocking { .. } => {
                if let Some(f) = self
                    .fills
                    .iter()
                    .find(|f| !f.is_complete(now) && f.covers(addr))
                {
                    stall_until = f.chunk_available_at(addr).max(now);
                }
            }
        }
        if stall_until > now {
            self.miss_stall += stall_until - now;
            self.cycle = stall_until;
        }
    }

    /// One hit access at instruction `instr`: base cycle plus any
    /// fill-conflict stall.
    fn process_echo(&mut self, stall: StallFeature, instr: u64, addr: Addr) {
        self.advance(instr);
        self.retire_fills();
        self.conflict_stall(stall, addr, true);
    }

    /// One fill event: conflict stall, MSHR wait, fill launch, resume
    /// rule and posted flush — exactly `Cpu::data_access`'s miss path.
    fn process_event(&mut self, cfg: &CpuConfig, mshrs: usize, event: &MissEvent) {
        self.advance(event.instr);
        self.retire_fills();
        self.conflict_stall(cfg.stall, event.addr, false);
        self.retire_fills();

        if self.fills.len() >= mshrs {
            let free_at = self.fills.front().expect("fills non-empty").complete_at();
            if free_at > self.cycle {
                self.miss_stall += free_at - self.cycle;
                self.cycle = free_at;
            }
            self.fills.pop_front();
        }

        let line_bytes = cfg.dcache.line_bytes();
        let issue = self.cycle - 1;
        let read_bypass_delay = self.wbuf.as_mut().map_or(0, |wb| wb.read_delay(issue));
        let start = (issue + read_bypass_delay).max(self.mem_free_at);
        let sched = FillSchedule::new(&cfg.timing, line_bytes, event.addr, start);
        self.mem_free_at = sched.complete_at();
        if let Some(wb) = &mut self.wbuf {
            wb.occupy(start, sched.complete_at() - start);
        }

        let resume = match cfg.stall {
            StallFeature::FullStall => sched.complete_at(),
            StallFeature::BusLocked
            | StallFeature::BusNotLocked1
            | StallFeature::BusNotLocked2
            | StallFeature::BusNotLocked3 => sched.critical_arrives_at(),
            StallFeature::NonBlocking { .. } => self.cycle,
        };
        let end = resume.max(self.cycle);
        self.miss_stall += end - self.cycle + 1;
        self.cycle = end;

        if event.writeback {
            self.handle_flush(&cfg.timing, line_bytes, sched.complete_at());
        }
        self.fills.push_back(sched);
    }

    fn handle_flush(&mut self, timing: &MemoryTiming, line_bytes: u64, fill_complete: u64) {
        let service = timing.line_write_time(line_bytes);
        match &mut self.wbuf {
            Some(wb) => {
                let stall = wb.enqueue(fill_complete, service);
                self.mem_free_at += stall;
            }
            None => {
                self.flush_stall += service;
                self.cycle += service;
                self.mem_free_at = self.mem_free_at.max(fill_complete) + service;
            }
        }
    }

    /// Earliest cycle from which no in-flight fill can stall anything:
    /// fills complete in FIFO order, so the back completes last.
    fn fill_fence(&self) -> u64 {
        self.fills.back().map_or(0, FillSchedule::complete_at)
    }

    /// Walks one event's echo window, stall-checking only echoes that
    /// can still conflict with an in-flight fill.
    ///
    /// An echo stall-checks only while a fill is in flight: echo `e`
    /// stalls iff `cycle + (e.instr − instr) < fence`. Between stalls
    /// the lag (`cycle − instr`) is constant, so the whole eligible
    /// window is one binary-search cut on the sorted echo index array;
    /// a stall grows the lag, shrinking the cutoff, and the walk
    /// resumes with a fresh cut. Fills only retire during echoes, so
    /// the fence never moves.
    fn scan_echoes(
        &mut self,
        stall: StallFeature,
        echo_instrs: &[u64],
        echo_addrs: &[Addr],
        start: usize,
        end: usize,
    ) {
        let fence = self.fill_fence();
        let mut j = start;
        while j < end && fence > self.cycle {
            let cutoff = self.instr + (fence - self.cycle);
            let upto = j + echo_instrs[j..end].partition_point(|&e| e < cutoff);
            if upto == j {
                break;
            }
            let lag = self.cycle - self.instr;
            let mut next = upto;
            for jj in j..upto {
                self.process_echo(stall, echo_instrs[jj], echo_addrs[jj]);
                if self.cycle - self.instr != lag {
                    next = jj + 1;
                    break;
                }
            }
            // Lag unchanged: every echo past the cut fails the
            // original per-echo break condition too.
            if next == upto && self.cycle - self.instr == lag {
                break;
            }
            j = next;
        }
    }
}

impl<'a> TimelineCpu<'a> {
    /// Binds a timeline to a timing configuration.
    ///
    /// # Errors
    ///
    /// Returns a description of the first unsupported aspect when the
    /// replay could not be exact (caller should use `Cpu::run`).
    pub fn new(timeline: &'a MissTimeline, cfg: CpuConfig) -> Result<Self, String> {
        if cfg.dcache != timeline.cache {
            return Err("configuration's data cache differs from the timeline's".to_string());
        }
        if cfg.icache.is_some() {
            return Err("instruction caches make timing cache-history-dependent".to_string());
        }
        if cfg.l2.is_some() {
            return Err("an L2 holds timing-dependent state".to_string());
        }
        if cfg.prefetch != Prefetch::None {
            return Err("prefetching changes the cache's fill sequence".to_string());
        }
        if cfg.issue_width != 1 {
            return Err("issue grouping couples base cycles to stall history".to_string());
        }
        cfg.validate()?;
        Ok(TimelineCpu { timeline, cfg })
    }

    fn echo_bounds(&self, index: usize) -> (usize, usize) {
        let events = &self.timeline.events;
        let start = events[index].echo_start as usize;
        let end = events
            .get(index + 1)
            .map_or(self.timeline.echo_instrs.len(), |next| {
                next.echo_start as usize
            });
        (start, end)
    }

    fn mshrs(&self) -> usize {
        match self.cfg.stall {
            StallFeature::NonBlocking { mshrs } => mshrs as usize,
            _ => 1,
        }
    }

    /// Replays the event stream and returns the exact final result.
    pub fn run(&self) -> SimResult {
        let mut st = ReplayState::new(&self.cfg);
        let mshrs = self.mshrs();
        // FS never stalls an in-between hit (the fill always completed
        // at resume time), so its echoes need no walking at all.
        let scan = self.cfg.stall != StallFeature::FullStall;
        let echo_instrs = &self.timeline.echo_instrs;
        let echo_addrs = &self.timeline.echo_addrs;
        for (i, event) in self.timeline.events.iter().enumerate() {
            st.process_event(&self.cfg, mshrs, event);
            if scan {
                let (start, end) = self.echo_bounds(i);
                st.scan_echoes(self.cfg.stall, echo_instrs, echo_addrs, start, end);
            }
        }
        st.advance(self.timeline.instructions);
        self.result(&st, self.timeline.stats, self.timeline.miss_distance_hist)
    }

    /// Replays the event stream, snapshotting the accumulated result
    /// after the `m`-th data reference for each mark `m` (ascending), as
    /// `Cpu::snapshot` would at the same reference boundaries. Returns
    /// the snapshots and the final result.
    ///
    /// Unlike [`TimelineCpu::run`], every reference is walked (the marks
    /// are counted in references), so this costs `O(references)` — still
    /// without any cache work.
    ///
    /// # Panics
    ///
    /// Panics if `marks` is not ascending or exceeds the total number of
    /// data references in the timeline.
    pub fn run_with_marks(&self, marks: &[u64]) -> (Vec<SimResult>, SimResult) {
        assert!(
            marks.windows(2).all(|w| w[0] < w[1]),
            "marks must be strictly ascending"
        );
        let mut st = ReplayState::new(&self.cfg);
        let mshrs = self.mshrs();
        let mut snapshots = Vec::with_capacity(marks.len());
        let mut next_mark = marks.iter().copied().peekable();
        let mut refs = 0u64;
        let mut stats = CacheStats::default();
        let mut hist = [0u64; 20];
        let mut last_fill_instr = None;

        let mut after_ref =
            |st: &ReplayState, stats: &CacheStats, hist: &[u64; 20], refs: &mut u64| {
                *refs += 1;
                if next_mark.peek() == Some(refs) {
                    next_mark.next();
                    snapshots.push(self.result(st, *stats, *hist));
                }
            };

        for echo in &self.timeline.prelude {
            st.advance(echo.instr);
            if echo.store {
                stats.store_hits += 1;
            } else {
                stats.load_hits += 1;
            }
            after_ref(&st, &stats, &hist, &mut refs);
        }
        for (i, event) in self.timeline.events.iter().enumerate() {
            st.process_event(&self.cfg, mshrs, event);
            if let Some(last) = last_fill_instr {
                hist[SimResult::distance_bucket(event.instr - last)] += 1;
            }
            last_fill_instr = Some(event.instr);
            if event.store {
                stats.store_misses += 1;
            } else {
                stats.load_misses += 1;
            }
            stats.fills += 1;
            stats.writebacks += u64::from(event.writeback);
            after_ref(&st, &stats, &hist, &mut refs);
            let (start, end) = self.echo_bounds(i);
            for j in start..end {
                st.process_echo(
                    self.cfg.stall,
                    self.timeline.echo_instrs[j],
                    self.timeline.echo_addrs[j],
                );
                if self.timeline.echo_stores[j] {
                    stats.store_hits += 1;
                } else {
                    stats.load_hits += 1;
                }
                after_ref(&st, &stats, &hist, &mut refs);
            }
        }
        assert!(
            next_mark.peek().is_none(),
            "marks exceed the timeline's {refs} data references"
        );
        st.advance(self.timeline.instructions);
        debug_assert_eq!(stats, self.timeline.stats);
        let final_result = self.result(&st, stats, hist);
        (snapshots, final_result)
    }

    fn result(&self, st: &ReplayState, dcache: CacheStats, hist: [u64; 20]) -> SimResult {
        SimResult {
            cycles: st.cycle,
            instructions: st.instr,
            base_cycles: st.instr - dcache.fills,
            dcache,
            icache: None,
            l2: None,
            wbuf: st.wbuf.as_ref().map(|w| *w.stats()),
            miss_stall_cycles: st.miss_stall,
            flush_stall_cycles: st.flush_stall,
            write_stall_cycles: 0,
            ifetch_stall_cycles: 0,
            line_bytes: self.cfg.dcache.line_bytes(),
            beta_m: self.cfg.timing.beta_m(),
            miss_distance_hist: hist,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::WriteBufferConfig;
    use crate::Cpu;
    use simmem::{BusWidth, BypassMode};
    use simtrace::workload::builtin;

    const N: usize = 12_000;

    fn cache() -> CacheConfig {
        CacheConfig::new(8 * 1024, 32, 2).unwrap()
    }

    fn all_stalls() -> Vec<StallFeature> {
        vec![
            StallFeature::FullStall,
            StallFeature::BusLocked,
            StallFeature::BusNotLocked1,
            StallFeature::BusNotLocked2,
            StallFeature::BusNotLocked3,
            StallFeature::NonBlocking { mshrs: 1 },
            StallFeature::NonBlocking { mshrs: 4 },
        ]
    }

    fn trace(name: &str) -> Vec<Instr> {
        builtin(name)
            .unwrap()
            .compile(0xDEAD_BEEF)
            .take(N)
            .collect()
    }

    #[test]
    fn replay_is_bit_identical_across_features_and_betas() {
        let tl = MissTimeline::extract(cache(), trace("ear"));
        for stall in all_stalls() {
            for beta in [2u64, 8, 30] {
                let cfg = CpuConfig::baseline(
                    cache(),
                    MemoryTiming::new(BusWidth::new(4).unwrap(), beta),
                )
                .with_stall(stall);
                assert!(TimelineCpu::new(&tl, cfg).is_ok());
                let fast = tl.replay(&cfg);
                let slow = Cpu::new(cfg).run(trace("ear"));
                assert_eq!(fast, slow, "{stall} β={beta}");
            }
        }
    }

    #[test]
    fn replay_matches_across_bus_widths_and_pipelining() {
        let tl = MissTimeline::extract(cache(), trace("swm256"));
        for bus in [4u64, 8, 16] {
            for q in [None, Some(2)] {
                let mut timing = MemoryTiming::new(BusWidth::new(bus).unwrap(), 8);
                if let Some(q) = q {
                    timing = timing.pipelined(q);
                }
                let cfg =
                    CpuConfig::baseline(cache(), timing).with_stall(StallFeature::BusNotLocked3);
                let fast = tl.replay(&cfg);
                let slow = Cpu::new(cfg).run(trace("swm256"));
                assert_eq!(fast, slow, "bus={bus} q={q:?}");
            }
        }
    }

    #[test]
    fn replay_matches_with_write_buffers_and_write_beta() {
        let tl = MissTimeline::extract(cache(), trace("hydro2d"));
        for mode in [BypassMode::Ideal, BypassMode::ChunkGranular] {
            for capacity in [1usize, 4] {
                let timing = MemoryTiming::new(BusWidth::new(4).unwrap(), 8).with_write_beta(16);
                let cfg = CpuConfig::baseline(cache(), timing)
                    .with_stall(StallFeature::BusLocked)
                    .with_write_buffer(WriteBufferConfig { capacity, mode });
                let fast = tl.replay(&cfg);
                let slow = Cpu::new(cfg).run(trace("hydro2d"));
                assert_eq!(fast, slow, "{mode:?} cap={capacity}");
            }
        }
    }

    #[test]
    fn one_timeline_serves_every_timing_point() {
        // The whole point: extract once, replay 6 features × 3 β.
        let tl = MissTimeline::extract(cache(), trace("doduc"));
        let mut distinct = std::collections::HashSet::new();
        for stall in all_stalls() {
            for beta in [4u64, 15, 40] {
                let cfg = CpuConfig::baseline(
                    cache(),
                    MemoryTiming::new(BusWidth::new(4).unwrap(), beta),
                )
                .with_stall(stall);
                distinct.insert(tl.replay(&cfg).cycles);
            }
        }
        assert!(
            distinct.len() > 10,
            "timing points must differ: {distinct:?}"
        );
    }

    #[test]
    fn unsupported_configurations_are_rejected() {
        let tl = MissTimeline::extract(cache(), trace("ear"));
        let base = CpuConfig::baseline(cache(), MemoryTiming::new(BusWidth::new(4).unwrap(), 8));
        let rejects = |cfg: CpuConfig| TimelineCpu::new(&tl, cfg).is_err();
        assert!(!rejects(base));
        assert!(rejects(
            base.with_icache(CacheConfig::new(4096, 32, 1).unwrap())
        ));
        assert!(rejects(base.with_issue_width(2)));
        assert!(rejects(base.with_prefetch(Prefetch::NextLine)));
        assert!(rejects(base.with_l2(crate::config::L2Config::new(
            CacheConfig::new(64 * 1024, 32, 4).unwrap(),
            2
        ))));
        let other_cache = CpuConfig::baseline(
            CacheConfig::new(4 * 1024, 32, 2).unwrap(),
            MemoryTiming::new(BusWidth::new(4).unwrap(), 8),
        );
        assert!(rejects(other_cache));
    }

    #[test]
    fn extraction_rejects_write_around_caches() {
        let cfg = cache().with_write_miss(WriteMiss::Around);
        assert!(!MissTimeline::supports_cache(&cfg));
    }

    #[test]
    fn marks_reproduce_cpu_snapshots() {
        let trace = trace("wave5");
        let tl = MissTimeline::extract(cache(), trace.iter().copied());
        let cfg = CpuConfig::baseline(cache(), MemoryTiming::new(BusWidth::new(4).unwrap(), 8))
            .with_stall(StallFeature::BusLocked);
        let total_refs = tl.references();
        let marks = [total_refs / 4, total_refs / 2, total_refs];
        let (snaps, fin) = TimelineCpu::new(&tl, cfg).unwrap().run_with_marks(&marks);

        // Oracle: step the full simulator to the same reference counts.
        let mut cpu = Cpu::new(cfg);
        let mut refs = 0u64;
        let mut mark_iter = marks.iter().copied().peekable();
        let mut oracle = Vec::new();
        for instr in &trace {
            cpu.step(instr);
            if instr.mem.is_some() {
                refs += 1;
                if mark_iter.peek() == Some(&refs) {
                    mark_iter.next();
                    oracle.push(cpu.snapshot());
                }
            }
        }
        assert_eq!(snaps, oracle);
        assert_eq!(fin, cpu.finish());
    }

    #[test]
    fn empty_and_missless_traces_replay() {
        let tl = MissTimeline::extract(cache(), std::iter::empty());
        let cfg = CpuConfig::baseline(cache(), MemoryTiming::new(BusWidth::new(4).unwrap(), 8));
        let r = tl.replay(&cfg);
        assert_eq!(r.cycles, 0);
        assert_eq!(r, Cpu::new(cfg).run(std::iter::empty()));

        // All instructions hit one line after the first fill.
        let warm: Vec<Instr> = (0..100u64)
            .map(|i| Instr::mem(i * 4, simtrace::MemRef::load(0x1000 + (i % 8) * 4, 4)))
            .collect();
        let tl = MissTimeline::extract(cache(), warm.iter().copied());
        assert_eq!(tl.event_count(), 1);
        let r = tl.replay(&cfg);
        assert_eq!(r, Cpu::new(cfg).run(warm.iter().copied()));
    }

    #[test]
    fn byte_footprint_counts_events_and_echoes() {
        let empty = MissTimeline::extract(cache(), std::iter::empty());
        use std::mem::size_of;
        assert_eq!(empty.bytes(), size_of::<MissTimeline>());
        let tl = MissTimeline::extract(cache(), trace("ear"));
        let echoes = tl.echo_instrs.len();
        assert!(tl.event_count() > 0 && echoes > 0);
        assert_eq!(
            tl.bytes() - empty.bytes(),
            tl.event_count() * size_of::<MissEvent>()
                + echoes * (size_of::<u64>() + size_of::<Addr>() + size_of::<bool>())
                + tl.prelude.len() * size_of::<Echo>()
        );
    }
}
