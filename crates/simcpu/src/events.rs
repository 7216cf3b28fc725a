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
//! # Which hits are kept, and why that is exact
//!
//! Timing is *not* purely a function of the misses: a hit issued while a
//! line streams in pays a conflict stall under BL/BNL/NB (Table 2). A
//! hit recorded after the first fill is an *echo*, and the timeline
//! keeps exactly the echoes that some replay could stall:
//!
//! * the first echo after each event — BL stalls any access while the
//!   fill is in flight, and that first access waits the fill out, so no
//!   later echo of the event can find it in flight;
//! * every echo on the line of one of the last
//!   [`MissTimeline::MAX_MSHRS`] fills — BNL1–3 stall a hit only on the
//!   in-flight fill's line, NB only on the line of one of at most
//!   `mshrs` outstanding fills, and those are always the most recent
//!   ones (the memory port completes fills in FIFO order).
//!
//! Dropping any other echo is exact: it cannot stall, and the clock
//! advance and fill retirement it would have done are recomputed
//! lazily at the next access the replay processes. [`TimelineCpu::new`]
//! refuses NB with more MSHRs than the timeline covers.
//!
//! # The replay loop
//!
//! [`TimelineCpu::run`] matches the stalling feature once and runs one
//! loop instantiated for it (a const parameter), so the conflict check,
//! the resume rule and the echo walk are compiled per feature and no
//! access re-matches the feature. In-flight fills sit in a fixed ring of
//! [`MissTimeline::MAX_MSHRS`] slots, and each fill's schedule is
//! stamped from a [`FillShape`] computed once per replay. The loop walks
//! an event's kept echoes only while a fill is still in flight — the
//! first echo past the newest fill's completion fence ends the walk —
//! and FS, whose fills always complete before the processor resumes,
//! walks none. A replay therefore costs its events plus the echoes that
//! issue while a fill is in flight; under NB some fill nearly always is,
//! so NB's walk is bound by its stalls rather than by its events.
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
use simmem::{FillSchedule, FillShape, WriteBuffer};
use simtrace::{Addr, Instr};

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
    /// A dirty victim must be flushed behind this fill.
    pub writeback: bool,
    /// Start of this event's echo range in [`MissTimeline`]'s echo list.
    pub echo_start: u32,
}

/// Streaming timeline extraction: feed instructions (or whole chunks)
/// as they are generated, then [`finish`](MissTimelineBuilder::finish).
///
/// This is the chunked-pipeline face of [`MissTimeline::extract`]: the
/// builder carries the live cache state between chunks, so feeding the
/// same stream in any chunking produces a bit-identical timeline — and
/// a 50 M-instruction trace never needs to exist in memory; only the
/// O(misses) events and the echoes that can stall accumulate (module
/// docs).
#[derive(Debug, Clone)]
pub struct MissTimelineBuilder {
    cache: CacheConfig,
    sim: Cache,
    line_shift: u32,
    events: Vec<MissEvent>,
    echo_offsets: Vec<u32>,
    echo_addrs: Vec<Addr>,
    /// Line indices of the last `MAX_MSHRS` fills, fill `i` in slot
    /// `i % MAX_MSHRS`. `u64::MAX` stands for "no fill yet"; should a
    /// real line have that index, its echoes are merely kept, which is
    /// always exact.
    recent_lines: [u64; MissTimeline::MAX_MSHRS as usize],
    /// No echo has followed the last event yet.
    first_echo_pending: bool,
    miss_distance_hist: [u64; 20],
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
            line_shift: cache.line_bytes().trailing_zeros(),
            events: Vec::new(),
            echo_offsets: Vec::new(),
            echo_addrs: Vec::new(),
            recent_lines: [u64::MAX; MissTimeline::MAX_MSHRS as usize],
            first_echo_pending: false,
            miss_distance_hist: [0u64; 20],
            instructions: 0,
        }
    }

    /// Feeds one instruction.
    ///
    /// # Panics
    ///
    /// Panics if the timeline keeps ≥ 2³² echoes (the echo index is
    /// compact), or if a kept echo lies 2³² or more instructions after
    /// its event (its offset is a `u32`).
    pub fn process(&mut self, instr: &Instr) {
        self.instructions += 1;
        let Some(mref) = instr.mem else { return };
        let out = self.sim.access(mref.op, mref.addr);
        if out.filled {
            if let Some(last) = self.events.last() {
                self.miss_distance_hist
                    [SimResult::distance_bucket(self.instructions - last.instr)] += 1;
            }
            let echo_start =
                u32::try_from(self.echo_offsets.len()).expect("echo index fits in 32 bits");
            let slot = self.events.len() % self.recent_lines.len();
            self.recent_lines[slot] = mref.addr.raw() >> self.line_shift;
            self.events.push(MissEvent {
                instr: self.instructions,
                addr: mref.addr,
                writeback: out.writeback.is_some(),
                echo_start,
            });
            self.first_echo_pending = true;
        } else {
            debug_assert!(out.hit, "a write-allocate access either hits or fills");
            // Hits before the first fill can never stall; nor can the
            // echoes the module docs rule out.
            let Some(event) = self.events.last() else {
                return;
            };
            let line = mref.addr.raw() >> self.line_shift;
            if self.first_echo_pending || self.recent_lines.contains(&line) {
                self.first_echo_pending = false;
                let offset = u32::try_from(self.instructions - event.instr)
                    .expect("echo offset fits in 32 bits");
                self.echo_offsets.push(offset);
                self.echo_addrs.push(mref.addr);
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

    /// Seals the extraction into an immutable [`MissTimeline`], its
    /// arrays shrunk to fit (pushing leaves up to twice their length
    /// allocated).
    pub fn finish(mut self) -> MissTimeline {
        self.events.shrink_to_fit();
        self.echo_offsets.shrink_to_fit();
        self.echo_addrs.shrink_to_fit();
        MissTimeline {
            cache: self.cache,
            instructions: self.instructions,
            events: self.events,
            echo_offsets: self.echo_offsets,
            echo_addrs: self.echo_addrs,
            stats: *self.sim.stats(),
            miss_distance_hist: self.miss_distance_hist,
        }
    }
}

/// The complete timing-relevant record of one (trace, cache config)
/// pair: extract once, replay for every timing model.
///
/// Only the echoes that can stall are kept: the first hit after each
/// fill, and every hit on the line of one of the last
/// [`MAX_MSHRS`](Self::MAX_MSHRS) fills. Any other hit finds no fill in
/// flight on its line under every feature a [`TimelineCpu`] accepts,
/// and the replay recomputes its clock advance at the next kept access,
/// so dropping it is exact (module docs). Hits before the first fill
/// can never stall and are not stored either.
///
/// Echoes are stored structure-of-arrays: the replay's fence check reads
/// the offset array, and addresses are touched only for echoes that
/// actually stall-check — 12 bytes per echo.
#[derive(Debug, Clone, PartialEq)]
pub struct MissTimeline {
    cache: CacheConfig,
    instructions: u64,
    events: Vec<MissEvent>,
    /// Echo instruction indices as offsets from their event's (ascending
    /// within an event); event `i`'s echoes occupy
    /// `echo_offsets[events[i].echo_start .. events[i+1].echo_start]`
    /// (through the end of the list for the last event).
    echo_offsets: Vec<u32>,
    /// Echo byte addresses, parallel to `echo_offsets`.
    echo_addrs: Vec<Addr>,
    stats: CacheStats,
    miss_distance_hist: [u64; 20],
}

impl MissTimeline {
    /// The most outstanding fills a replay may track: the timeline keeps
    /// the echoes on the lines of this many most recent fills, so
    /// [`TimelineCpu::new`] refuses NB with more MSHRs. It covers every
    /// MSHR count the experiments and the query API ask for (up to 8).
    pub const MAX_MSHRS: u32 = 8;

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
    /// Panics if [`MissTimeline::supports_cache`] rejects `cache`, or as
    /// [`MissTimelineBuilder::process`] does.
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

    /// Heap footprint — every allocated array element, not just the
    /// used ones — for the trace-store byte budget.
    pub fn bytes(&self) -> usize {
        use std::mem::size_of;
        self.events.capacity() * size_of::<MissEvent>()
            + self.echo_offsets.capacity() * size_of::<u32>()
            + self.echo_addrs.capacity() * size_of::<Addr>()
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
/// produces the final [`SimResult`].
#[derive(Debug, Clone)]
pub struct TimelineCpu<'a> {
    timeline: &'a MissTimeline,
    cfg: CpuConfig,
}

/// The stalling features as the replay loop's const parameter:
/// [`TimelineCpu::run`] matches [`StallFeature`] once and runs the loop
/// instantiated for that feature, so no access re-matches it.
const FS: u8 = 0;
const BL: u8 = 1;
const BNL1: u8 = 2;
const BNL2: u8 = 3;
const BNL3: u8 = 4;
const NB: u8 = 5;

/// Slots in the fill ring: the most fills a replay can have
/// outstanding.
const RING: usize = MissTimeline::MAX_MSHRS as usize;

/// The in-flight fills, oldest first, in a fixed ring. Every feature but
/// NB holds at most one fill, and [`TimelineCpu::new`] refuses NB with
/// more than [`RING`] MSHRs, so a push never finds the ring full.
struct FillRing {
    slots: [FillSchedule; RING],
    head: usize,
    len: usize,
}

impl FillRing {
    /// An empty ring; `filler` only initialises the slots, none of which
    /// is read before a push writes it.
    fn new(filler: FillSchedule) -> Self {
        FillRing {
            slots: [filler; RING],
            head: 0,
            len: 0,
        }
    }

    fn front(&self) -> Option<&FillSchedule> {
        (self.len > 0).then(|| &self.slots[self.head])
    }

    fn pop_front(&mut self) {
        debug_assert!(self.len > 0);
        self.head = (self.head + 1) % RING;
        self.len -= 1;
    }

    fn push_back(&mut self, fill: FillSchedule) {
        debug_assert!(self.len < RING, "fill ring overflow");
        self.slots[(self.head + self.len) % RING] = fill;
        self.len += 1;
    }

    fn iter(&self) -> impl Iterator<Item = &FillSchedule> {
        (0..self.len).map(move |i| &self.slots[(self.head + i) % RING])
    }

    /// Drops completed fills from the front — the lazy equivalent of
    /// `Cpu::retire_fills` (fills complete in FIFO order because the
    /// memory port serialises their schedules).
    fn retire(&mut self, now: u64) {
        while matches!(self.front(), Some(f) if f.is_complete(now)) {
            self.pop_front();
        }
    }

    /// Earliest cycle from which no in-flight fill can stall anything:
    /// the newest fill completes last.
    fn fence(&self) -> u64 {
        match self.len {
            0 => 0,
            n => self.slots[(self.head + n - 1) % RING].complete_at(),
        }
    }
}

/// Scalar replay state: everything `Cpu` tracks that timing depends on,
/// plus the configuration's per-fill constants, computed once.
struct ReplayState {
    cycle: u64,
    /// Instructions accounted into `cycle` so far.
    instr: u64,
    mem_free_at: u64,
    fills: FillRing,
    wbuf: Option<WriteBuffer>,
    miss_stall: u64,
    flush_stall: u64,
    shape: FillShape,
    /// Cycles to write a dirty victim back.
    flush_service: u64,
    mshrs: usize,
}

impl ReplayState {
    fn new(cfg: &CpuConfig) -> Self {
        let line_bytes = cfg.dcache.line_bytes();
        let shape = FillShape::new(&cfg.timing, line_bytes);
        ReplayState {
            cycle: 0,
            instr: 0,
            mem_free_at: 0,
            fills: FillRing::new(shape.schedule(Addr::new(0), 0)),
            wbuf: cfg
                .write_buffer
                .map(|wc| WriteBuffer::new(wc.capacity, cfg.timing.beta_m(), wc.mode)),
            miss_stall: 0,
            flush_stall: 0,
            shape,
            flush_service: cfg.timing.line_write_time(line_bytes),
            mshrs: match cfg.stall {
                StallFeature::NonBlocking { mshrs } => mshrs as usize,
                _ => 1,
            },
        }
    }

    /// Advances the clock by the base cycle of every instruction up to
    /// and including `to` (one cycle each at single issue).
    #[inline(always)]
    fn advance(&mut self, to: u64) {
        debug_assert!(to >= self.instr);
        self.cycle += to - self.instr;
        self.instr = to;
    }

    /// `Cpu::conflict_stall` for feature `F`, with the residency
    /// question answered by the timeline instead of the cache: an echo's
    /// line is always resident, an event's never is. Completed fills
    /// need no retiring first: every feature but NB holds at most one
    /// fill, and every feature skips a completed one.
    #[inline(always)]
    fn conflict_stall<const F: u8>(&mut self, addr: Addr, resident: bool) {
        if F == FS {
            return;
        }
        let now = self.cycle;
        let stall_until = if F == NB {
            match self
                .fills
                .iter()
                .find(|f| !f.is_complete(now) && f.covers(addr))
            {
                Some(f) => f.chunk_available_at(addr),
                None => return,
            }
        } else {
            let Some(f) = self.fills.front() else { return };
            if f.is_complete(now) {
                return;
            }
            let covers = f.covers(addr);
            match F {
                BL => f.complete_at(),
                BNL1 if covers || !resident => f.complete_at(),
                BNL2 if covers && !f.chunk_available(addr, now) => f.complete_at(),
                BNL3 if covers => f.chunk_available_at(addr),
                BNL2 | BNL3 if !covers && !resident => f.complete_at(),
                _ => return,
            }
        };
        if stall_until > now {
            self.miss_stall += stall_until - now;
            self.cycle = stall_until;
        }
    }

    /// One fill event: conflict stall, MSHR wait, fill launch, resume
    /// rule and posted flush — exactly `Cpu::data_access`'s miss path.
    #[inline(always)]
    fn event<const F: u8>(&mut self, event: &MissEvent) {
        self.advance(event.instr);
        self.conflict_stall::<F>(event.addr, false);
        self.fills.retire(self.cycle);

        if self.fills.len >= self.mshrs {
            let free_at = self.fills.front().expect("fills non-empty").complete_at();
            if free_at > self.cycle {
                self.miss_stall += free_at - self.cycle;
                self.cycle = free_at;
            }
            self.fills.pop_front();
        }

        let issue = self.cycle - 1;
        let read_bypass_delay = self.wbuf.as_mut().map_or(0, |wb| wb.read_delay(issue));
        let start = (issue + read_bypass_delay).max(self.mem_free_at);
        let sched = self.shape.schedule(event.addr, start);
        self.mem_free_at = sched.complete_at();
        if let Some(wb) = &mut self.wbuf {
            wb.occupy(start, sched.complete_at() - start);
        }

        let resume = match F {
            FS => sched.complete_at(),
            NB => self.cycle,
            _ => sched.critical_arrives_at(),
        };
        let end = resume.max(self.cycle);
        self.miss_stall += end - self.cycle + 1;
        self.cycle = end;

        if event.writeback {
            self.flush(sched.complete_at());
        }
        self.fills.push_back(sched);
    }

    fn flush(&mut self, fill_complete: u64) {
        match &mut self.wbuf {
            Some(wb) => {
                let stall = wb.enqueue(fill_complete, self.flush_service);
                self.mem_free_at += stall;
            }
            None => {
                self.flush_stall += self.flush_service;
                self.cycle += self.flush_service;
                self.mem_free_at = self.mem_free_at.max(fill_complete) + self.flush_service;
            }
        }
    }

    /// Walks one event's echoes (offsets from the event at instruction
    /// `base`), stall-checking each while a fill is still in flight.
    ///
    /// Echo `e` can stall only if it issues before the fence, the
    /// newest fill's completion: `cycle + (e.instr − instr) < fence`.
    /// Offsets ascend and a stall only delays the clock, so the first
    /// echo past the fence ends the walk, and the echoes after it need
    /// no clock advance: the next access the replay processes catches
    /// the clock up. No fill starts during the walk, so the fence never
    /// moves.
    #[inline(always)]
    fn echoes<const F: u8>(&mut self, base: u64, offsets: &[u32], addrs: &[Addr]) {
        let fence = self.fills.fence();
        for (&offset, &addr) in offsets.iter().zip(addrs) {
            let instr = base + u64::from(offset);
            if self.cycle + (instr - self.instr) >= fence {
                break;
            }
            self.advance(instr);
            self.conflict_stall::<F>(addr, true);
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
        if let StallFeature::NonBlocking { mshrs } = cfg.stall {
            if mshrs > MissTimeline::MAX_MSHRS {
                return Err(format!(
                    "timelines keep the echoes of at most {} outstanding fills",
                    MissTimeline::MAX_MSHRS
                ));
            }
        }
        cfg.validate()?;
        Ok(TimelineCpu { timeline, cfg })
    }

    /// Replays the event stream and returns the exact final result.
    pub fn run(&self) -> SimResult {
        match self.cfg.stall {
            StallFeature::FullStall => self.replay::<FS>(),
            StallFeature::BusLocked => self.replay::<BL>(),
            StallFeature::BusNotLocked1 => self.replay::<BNL1>(),
            StallFeature::BusNotLocked2 => self.replay::<BNL2>(),
            StallFeature::BusNotLocked3 => self.replay::<BNL3>(),
            StallFeature::NonBlocking { .. } => self.replay::<NB>(),
        }
    }

    /// The replay loop, instantiated once per stalling feature `F`.
    fn replay<const F: u8>(&self) -> SimResult {
        let tl = self.timeline;
        let mut st = ReplayState::new(&self.cfg);
        for (i, event) in tl.events.iter().enumerate() {
            st.event::<F>(event);
            // FS never stalls an in-between hit (the fill always
            // completed at resume time), so its echoes need no walking.
            if F != FS {
                let start = event.echo_start as usize;
                let end = tl
                    .events
                    .get(i + 1)
                    .map_or(tl.echo_offsets.len(), |next| next.echo_start as usize);
                st.echoes::<F>(
                    event.instr,
                    &tl.echo_offsets[start..end],
                    &tl.echo_addrs[start..end],
                );
            }
        }
        st.advance(tl.instructions);
        let dcache = tl.stats;
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
            miss_distance_hist: tl.miss_distance_hist,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::WriteBufferConfig;
    use crate::Cpu;
    use simmem::{BusWidth, BypassMode, MemoryTiming};
    use simtrace::workload::builtin;
    use std::collections::VecDeque;

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

    /// A stream of misses to fresh lines, each followed by a store to an
    /// earlier fill's line (an echo that also dirties it, so evictions
    /// write back) and a non-memory instruction. In the first half the
    /// store hits the line missed 1–7 fills earlier, still in flight
    /// under enough MSHRs, so NB's conflict check finds fills at every
    /// ring position; in the second half it hits the line missed eight
    /// fills earlier, which has always completed, so the processor runs
    /// ahead until every MSHR is busy. 900 fills wrap an 8-slot ring's
    /// head over 100 times.
    fn ring_wrapping_trace() -> Vec<Instr> {
        (0..900u64)
            .flat_map(|k| {
                let pc = k * 12;
                let back = if k < 450 { 1 + k % 7 } else { 8 };
                let echo = 0x10_0000 + k.saturating_sub(back) * 32 + (k % 8) * 4;
                [
                    Instr::mem(pc, simtrace::MemRef::load(0x10_0000 + k * 32 + 8, 4)),
                    Instr::mem(pc + 4, simtrace::MemRef::store(echo, 4)),
                    Instr::plain(pc + 8),
                ]
            })
            .collect()
    }

    #[test]
    fn fill_ring_wraps_exactly_at_every_mshr_count() {
        let trace = ring_wrapping_trace();
        let tl = MissTimeline::extract(cache(), trace.iter().copied());
        assert_eq!(tl.event_count(), 900);
        let buffers = [
            None,
            Some(WriteBufferConfig {
                capacity: 2,
                mode: BypassMode::ChunkGranular,
            }),
        ];
        for wbuf in buffers {
            let mut last_cycles = u64::MAX;
            for mshrs in 1..=MissTimeline::MAX_MSHRS {
                // β = 40: a fill takes 320 cycles, so misses three
                // instructions apart keep every MSHR busy.
                let mut cfg =
                    CpuConfig::baseline(cache(), MemoryTiming::new(BusWidth::new(4).unwrap(), 40))
                        .with_stall(StallFeature::NonBlocking { mshrs });
                if let Some(wb) = wbuf {
                    cfg = cfg.with_write_buffer(wb);
                }
                let fast = tl.replay(&cfg);
                assert_eq!(
                    fast,
                    Cpu::new(cfg).run(trace.iter().copied()),
                    "NB({mshrs}) {wbuf:?}"
                );
                // Each added MSHR saves cycles, so the last slot of
                // every ring size was outstanding.
                assert!(fast.cycles < last_cycles, "NB({mshrs}) {wbuf:?}");
                last_cycles = fast.cycles;
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
    fn only_echoes_that_can_stall_are_kept() {
        // The keep rule restated naively: after the first fill, a hit is
        // kept if it is the first since the last fill or if its line was
        // one of the last `MAX_MSHRS` fills.
        let trace = trace("nasa7");
        let tl = MissTimeline::extract(cache(), trace.iter().copied());
        let mut sim = Cache::new(cache());
        let mut recent: VecDeque<u64> = VecDeque::new();
        let (mut kept, mut hits_after_fill, mut first) = (Vec::new(), 0usize, false);
        for (i, instr) in trace.iter().enumerate() {
            let Some(mref) = instr.mem else { continue };
            let line = mref.addr.raw() / 32;
            if sim.access(mref.op, mref.addr).filled {
                recent.push_back(line);
                if recent.len() > MissTimeline::MAX_MSHRS as usize {
                    recent.pop_front();
                }
                first = true;
            } else if !recent.is_empty() {
                hits_after_fill += 1;
                if std::mem::take(&mut first) || recent.contains(&line) {
                    kept.push((i as u64 + 1, mref.addr));
                }
            }
        }
        let mut stored = Vec::new();
        for (e, event) in tl.events.iter().enumerate() {
            let end = tl
                .events
                .get(e + 1)
                .map_or(tl.echo_offsets.len(), |n| n.echo_start as usize);
            for j in event.echo_start as usize..end {
                stored.push((
                    event.instr + u64::from(tl.echo_offsets[j]),
                    tl.echo_addrs[j],
                ));
            }
        }
        assert_eq!(stored, kept);
        assert!(
            kept.len() < hits_after_fill && kept.len() >= tl.event_count() / 2,
            "{} of {hits_after_fill} hits kept over {} events",
            kept.len(),
            tl.event_count()
        );
    }

    #[test]
    fn byte_footprint_counts_events_and_echoes() {
        let empty = MissTimeline::extract(cache(), std::iter::empty());
        use std::mem::size_of;
        assert_eq!(empty.bytes(), size_of::<MissTimeline>());
        let tl = MissTimeline::extract(cache(), trace("ear"));
        let echoes = tl.echo_offsets.len();
        assert!(tl.event_count() > 0 && echoes > 0);
        // `finish` shrinks the arrays, so the footprint is exact: 12
        // bytes per echo.
        assert_eq!(size_of::<u32>() + size_of::<Addr>(), 12);
        assert_eq!(
            tl.bytes() - empty.bytes(),
            tl.event_count() * size_of::<MissEvent>()
                + echoes * (size_of::<u32>() + size_of::<Addr>())
        );
    }

    #[test]
    fn byte_footprint_counts_every_allocated_element() {
        use std::mem::size_of;
        let mut tl = MissTimeline::extract(cache(), trace("ear"));
        let shrunk = tl.bytes();
        // Arrays grown past their length, as pushing leaves them.
        tl.events.reserve_exact(tl.events.len());
        tl.echo_offsets.reserve_exact(tl.echo_offsets.len() + 7);
        tl.echo_addrs.reserve_exact(3);
        assert!(tl.events.capacity() > tl.events.len());
        assert_eq!(
            tl.bytes(),
            size_of::<MissTimeline>()
                + tl.events.capacity() * size_of::<MissEvent>()
                + tl.echo_offsets.capacity() * size_of::<u32>()
                + tl.echo_addrs.capacity() * size_of::<Addr>()
        );
        assert!(tl.bytes() > shrunk);
    }
}
