//! Process-wide memoised traces, miss timelines and reuse histograms.
//!
//! Every φ/α experiment used to regenerate its SPEC92 proxy trace — and
//! re-simulate the cache — once *per timing point* (168 times for
//! Figure 1 alone), even though both depend only on (program, seed,
//! length) and (…, cache geometry) respectively. This store materialises
//! each trace once into a shared allocation and memoises each extracted
//! [`MissTimeline`] and [`ReuseHistograms`] fold, so a β-sweep costs one
//! trace generation plus one cache pass, after which every point is an
//! `O(misses)` replay.
//!
//! Workload identity is the declarative spec hash: every tier keys on
//! `(`[`WorkloadId`]`, seed, …)`, so a built-in proxy
//! ([`simtrace::workload::builtin`]) and an inline spec with the
//! same canonical form share one entry.
//!
//! The three tiers are one generic [`Memo`] each. A lookup probes the
//! map, and a miss claims its key (concurrent misses on the same key
//! wait for the claimer instead of duplicating the work), then builds
//! the value outside the map lock. Every tier is byte-accounted and
//! LRU-evicted under one shared cap: set `REPRO_TRACE_BUDGET` (bytes,
//! with optional `k`/`m`/`g` suffix; anything else is rejected by
//! [`budget_setting`]) to bound the sum of all three.
//!
//! Traces of different lengths share one backing: the generators are
//! deterministic lazy streams, so the `n`-instruction trace is a
//! prefix of the `m ≥ n` one (asserted in the tests below). The trace
//! tier keeps the longest materialisation per (workload, seed) and
//! hands out prefix views.
//!
//! Timelines, histograms and sweeps are folded *streamingly*: the
//! chunked generator feeds the fold directly, timelines in instruction
//! chunks through [`fold_workload`], sweeps and histograms in reference
//! batches through [`fold_workload_batches`]. Fold-only experiments
//! thus keep a few chunks of instructions resident (see `DESIGN.md`
//! §12). Only [`workload_trace`] pins full traces.

use crate::error::lock_recovering;
use crate::fault::{self, Site};
use crate::stream::{self, ChunkSink};
use simcache::CacheConfig;
use simcpu::{MissTimeline, MissTimelineBuilder};
use simtrace::workload::{WorkloadId, WorkloadSpec};
use simtrace::{Instr, RefBatch, RefCutter, ReuseHistograms, INSTR_BYTES};
use std::collections::{HashMap, HashSet};
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};

/// Seed used by every `run_spec`-style experiment.
pub const SPEC_SEED: u64 = 0xDEAD_BEEF;

/// A snapshot of the store's hit/miss counters — the scheduler's first
/// observability hook: a "hit" hands back a memoised allocation, a
/// "miss" pays a trace generation or a cache-simulation pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreCounts {
    /// Trace lookups served from the store.
    pub trace_hits: u64,
    /// Trace lookups that (re)generated instructions.
    pub trace_misses: u64,
    /// Timeline lookups served from the store.
    pub timeline_hits: u64,
    /// Timeline lookups that ran a cache-simulation pass.
    pub timeline_misses: u64,
    /// Histogram lookups served from the store.
    pub hist_hits: u64,
    /// Histogram lookups that ran a reuse-distance fold.
    pub hist_misses: u64,
}

impl StoreCounts {
    /// Counter increments since an `earlier` snapshot.
    #[must_use]
    pub fn since(&self, earlier: &StoreCounts) -> StoreCounts {
        StoreCounts {
            trace_hits: self.trace_hits - earlier.trace_hits,
            trace_misses: self.trace_misses - earlier.trace_misses,
            timeline_hits: self.timeline_hits - earlier.timeline_hits,
            timeline_misses: self.timeline_misses - earlier.timeline_misses,
            hist_hits: self.hist_hits - earlier.hist_hits,
            hist_misses: self.hist_misses - earlier.hist_misses,
        }
    }

    /// One-line human summary.
    pub fn summary(&self) -> String {
        format!(
            "traces {} hit / {} miss, timelines {} hit / {} miss, histograms {} hit / {} miss",
            self.trace_hits,
            self.trace_misses,
            self.timeline_hits,
            self.timeline_misses,
            self.hist_hits,
            self.hist_misses
        )
    }
}

/// The lookups made under experiment `exp`'s fault scope
/// ([`fault::enter`]), on any thread that carried that scope, since the
/// process started. The scheduler charges an experiment the change over
/// its run, so concurrent experiments' counts stay apart.
pub fn counters_for(exp: &str) -> StoreCounts {
    let s = store();
    let (trace_hits, trace_misses) = s.traces.charged_to(exp);
    let (timeline_hits, timeline_misses) = s.timelines.charged_to(exp);
    let (hist_hits, hist_misses) = s.hists.charged_to(exp);
    StoreCounts {
        trace_hits,
        trace_misses,
        timeline_hits,
        timeline_misses,
        hist_hits,
        hist_misses,
    }
}

/// The current process-wide counter values.
pub fn counters() -> StoreCounts {
    let s = store();
    StoreCounts {
        trace_hits: s.traces.hits.load(Ordering::Relaxed),
        trace_misses: s.traces.misses.load(Ordering::Relaxed),
        timeline_hits: s.timelines.hits.load(Ordering::Relaxed),
        timeline_misses: s.timelines.misses.load(Ordering::Relaxed),
        hist_hits: s.hists.hits.load(Ordering::Relaxed),
        hist_misses: s.hists.misses.load(Ordering::Relaxed),
    }
}

/// A full observability snapshot of the store: hit/miss counters plus
/// eviction, coalescing, residency and recovery state. This is the one
/// accessor the scheduler footer and the query server's `/stats`
/// endpoint both read — ad-hoc counter plumbing goes through here.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Stats {
    /// Hit/miss counters per store.
    pub counts: StoreCounts,
    /// Materialised traces evicted by the `REPRO_TRACE_BUDGET` cap.
    pub trace_evictions: u64,
    /// Memoised histograms evicted by the budget cap.
    pub hist_evictions: u64,
    /// Lookups (any tier) that blocked on another thread's in-flight
    /// build of the same key instead of duplicating the work.
    pub coalesced_waits: u64,
    /// Bytes of trace data currently materialised.
    pub trace_bytes: u64,
    /// Bytes of reuse-histogram state currently memoised.
    pub hist_bytes: u64,
    /// Store locks recovered from poison: a worker panicked (or was
    /// fault-injected) while holding one.
    pub poison_recoveries: u64,
    /// Memoised timelines evicted by the budget cap.
    pub timeline_evictions: u64,
    /// Bytes of miss-timeline state currently memoised.
    pub timeline_bytes: u64,
}

impl Stats {
    /// One-line human summary for the scheduler footer.
    pub fn summary(&self) -> String {
        format!(
            "{}; evictions {} trace / {} hist, coalesced waits {}, resident {} B traces + {} B hists + {} B timelines, poison recoveries {}, timeline evictions {}",
            self.counts.summary(),
            self.trace_evictions,
            self.hist_evictions,
            self.coalesced_waits,
            self.trace_bytes,
            self.hist_bytes,
            self.timeline_bytes,
            self.poison_recoveries,
            self.timeline_evictions
        )
    }
}

/// The current process-wide [`Stats`] snapshot. Counter fields are
/// monotonic; the residency byte fields reflect this instant. Takes no
/// map lock, so it answers even while a cold build is running.
pub fn stats() -> Stats {
    let s = store();
    Stats {
        counts: counters(),
        trace_evictions: s.traces.evictions.load(Ordering::Relaxed),
        hist_evictions: s.hists.evictions.load(Ordering::Relaxed),
        coalesced_waits: s.traces.waits.load(Ordering::Relaxed)
            + s.timelines.waits.load(Ordering::Relaxed)
            + s.hists.waits.load(Ordering::Relaxed),
        trace_bytes: s.traces.bytes(),
        hist_bytes: s.hists.bytes(),
        poison_recoveries: s.traces.recoveries() + s.timelines.recoveries() + s.hists.recoveries(),
        timeline_evictions: s.timelines.evictions.load(Ordering::Relaxed),
        timeline_bytes: s.timelines.bytes(),
    }
}

/// A shared trace prefix: cheap to clone, derefs to the instructions.
#[derive(Debug, Clone)]
pub struct TraceHandle {
    data: Arc<Vec<Instr>>,
    len: usize,
}

impl TraceHandle {
    /// The instructions of this prefix.
    pub fn instrs(&self) -> &[Instr] {
        &self.data[..self.len]
    }
}

impl std::ops::Deref for TraceHandle {
    type Target = [Instr];
    fn deref(&self) -> &[Instr] {
        self.instrs()
    }
}

/// Parses a byte count with an optional `k`/`m`/`g` (×1024) suffix,
/// case-insensitively: `"8m"` → 8 MiB.
fn parse_bytes(s: &str) -> Option<u64> {
    let t = s.trim().to_ascii_lowercase();
    let (digits, mult) = match t.strip_suffix(['k', 'm', 'g']) {
        Some(d) => {
            let mult = match t.as_bytes()[t.len() - 1] {
                b'k' => 1u64 << 10,
                b'm' => 1 << 20,
                _ => 1 << 30,
            };
            (d, mult)
        }
        None => (t.as_str(), 1),
    };
    digits.trim().parse::<u64>().ok()?.checked_mul(mult)
}

/// The `REPRO_TRACE_BUDGET` byte cap over all three tiers, `None` when
/// unset.
///
/// # Errors
///
/// A set but malformed value is an error naming the variable, never a
/// silent "no cap".
pub fn budget_setting() -> Result<Option<u64>, String> {
    crate::common::setting(
        "REPRO_TRACE_BUDGET",
        "a byte count (digits with an optional k/m/g suffix)",
        parse_bytes,
    )
}

/// What one tier may hold under the `REPRO_TRACE_BUDGET` cap (unset =
/// no cap): the cap minus the `others` bytes the other tiers hold.
///
/// # Panics
///
/// Panics naming the variable if it is malformed; binaries run
/// [`crate::common::check_settings`] at startup and exit with a usage
/// error instead.
fn room(others: u64) -> Option<u64> {
    let budget = budget_setting().unwrap_or_else(|e| panic!("{e}"))?;
    Some(budget.saturating_sub(others))
}

/// Resident bytes of a memoised value — what the budget cap counts.
trait Footprint {
    fn footprint(&self) -> u64;
}

impl Footprint for Vec<Instr> {
    fn footprint(&self) -> u64 {
        (self.len() * INSTR_BYTES) as u64
    }
}

impl Footprint for MissTimeline {
    fn footprint(&self) -> u64 {
        self.bytes() as u64
    }
}

impl Footprint for ReuseHistograms {
    fn footprint(&self) -> u64 {
        self.bytes() as u64
    }
}

/// Coalesces concurrent misses on one memo key — the warm-key
/// discipline `sched` applies between experiments, generalised to any
/// lookup path (the query server's concurrent requests in particular).
///
/// The first thread to miss claims the key and pays the build; every
/// other thread arriving before the claim is released blocks on the
/// condvar instead of duplicating the pass, then re-probes the memo.
/// The claim is released by an RAII guard, so a claimer that unwinds
/// (fault injection panics mid-extract) can never wedge its waiters —
/// they wake, find the memo still cold, and one of them claims in turn.
struct KeyGate<K> {
    in_flight: Mutex<HashSet<K>>,
    released: Condvar,
}

impl<K: Eq + Hash + Clone> KeyGate<K> {
    /// Claims `key` for this thread, or blocks until the current
    /// holder releases it and returns `None` (the caller re-probes the
    /// memo before trying again).
    fn claim(&self, key: K) -> Option<KeyClaim<'_, K>> {
        let (mut set, _) = lock_recovering(&self.in_flight);
        if set.insert(key.clone()) {
            return Some(KeyClaim { gate: self, key });
        }
        while set.contains(&key) {
            set = self
                .released
                .wait(set)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
        None
    }
}

/// An exclusive in-flight claim on one key; dropping it (normally or
/// during unwinding) releases the key and wakes every waiter.
struct KeyClaim<'a, K: Eq + Hash> {
    gate: &'a KeyGate<K>,
    key: K,
}

impl<K: Eq + Hash> Drop for KeyClaim<'_, K> {
    fn drop(&mut self) {
        let (mut set, _) = lock_recovering(&self.gate.in_flight);
        set.remove(&self.key);
        self.gate.released.notify_all();
    }
}

/// One memoised value plus its LRU stamp.
struct Slot<V> {
    value: Arc<V>,
    last_use: u64,
}

/// One bounded, coalescing memo tier: a map from key to shared value,
/// a [`KeyGate`] so each cold key is built once, LRU stamps and a
/// running byte total for budget eviction, and the tier's counters.
///
/// The byte total only changes under the map lock, but is read
/// lock-free — by [`stats`] and by the other tiers' budget checks.
struct Memo<K, V> {
    map: Mutex<HashMap<K, Slot<V>>>,
    gate: KeyGate<K>,
    tick: AtomicU64,
    bytes: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    /// Hits and misses per experiment, charged to the fault scope of
    /// the thread that looked up.
    charged: Mutex<HashMap<Arc<str>, (u64, u64)>>,
    evictions: AtomicU64,
    waits: AtomicU64,
    recoveries: AtomicU64,
}

impl<K: Eq + Hash + Clone, V: Footprint> Memo<K, V> {
    fn new() -> Self {
        Memo {
            map: Mutex::default(),
            gate: KeyGate {
                in_flight: Mutex::default(),
                released: Condvar::new(),
            },
            tick: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            charged: Mutex::default(),
            evictions: AtomicU64::new(0),
            waits: AtomicU64::new(0),
            recoveries: AtomicU64::new(0),
        }
    }

    /// Bytes this tier holds right now.
    fn bytes(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed)
    }

    fn recoveries(&self) -> u64 {
        self.recoveries.load(Ordering::Relaxed)
    }

    /// Counts a hit (`true`) or a miss, globally and against the
    /// current experiment scope, if any.
    fn count(&self, hit: bool) {
        let counter = if hit { &self.hits } else { &self.misses };
        counter.fetch_add(1, Ordering::Relaxed);
        if let Some(exp) = fault::current() {
            // Every update leaves the map valid, so a poisoned lock
            // holds nothing to recover from.
            let (mut charged, _) = lock_recovering(&self.charged);
            let (hits, misses) = charged.entry(exp).or_default();
            *if hit { hits } else { misses } += 1;
        }
    }

    /// The hits and misses charged to experiment `exp`.
    fn charged_to(&self, exp: &str) -> (u64, u64) {
        let (charged, _) = lock_recovering(&self.charged);
        charged.get(exp).copied().unwrap_or_default()
    }

    /// Locks the map, recovering from poison: a holder that died
    /// mid-insert may have left a half-written entry, so the recovered
    /// map is cleared (and its byte total reset) and every entry is
    /// rebuilt on demand — one panicked worker must never wedge later
    /// lookups.
    fn lock(&self) -> MutexGuard<'_, HashMap<K, Slot<V>>> {
        let (mut map, recovered) = lock_recovering(&self.map);
        if recovered {
            map.clear();
            self.bytes.store(0, Ordering::Relaxed);
            self.recoveries.fetch_add(1, Ordering::Relaxed);
        }
        map
    }

    /// The value under `key` if one is memoised and `fits`, counted as
    /// a hit with its LRU stamp refreshed.
    fn hit(
        &self,
        map: &mut HashMap<K, Slot<V>>,
        key: &K,
        fits: impl Fn(&V) -> bool,
    ) -> Option<Arc<V>> {
        let slot = map.get_mut(key).filter(|s| fits(&s.value))?;
        slot.last_use = self.tick.fetch_add(1, Ordering::Relaxed) + 1;
        self.count(true);
        Some(Arc::clone(&slot.value))
    }

    /// [`Memo::hit`] under a fresh lock: a probe that never builds.
    fn probe(&self, key: &K, fits: impl Fn(&V) -> bool) -> Option<Arc<V>> {
        self.hit(&mut self.lock(), key, fits)
    }

    /// The value under `key` if it `fits`; otherwise exactly one of the
    /// concurrent callers runs `build` (outside the map lock) and
    /// memoises its result, which every waiter then shares. `room` is
    /// the tier's byte allowance, read at insert time.
    fn get(
        &self,
        key: K,
        fits: impl Fn(&V) -> bool,
        build: impl FnOnce() -> V,
        room: impl Fn() -> Option<u64>,
    ) -> Arc<V> {
        let _claim = loop {
            {
                let mut map = self.lock();
                // Fires with the lock held: an injected fault here
                // poisons it, exercising the recovery in `lock`.
                fault::check_or_unwind(Site::Lock);
                if let Some(value) = self.hit(&mut map, &key, &fits) {
                    return value;
                }
            }
            if let Some(claim) = self.gate.claim(key.clone()) {
                break claim;
            }
            self.waits.fetch_add(1, Ordering::Relaxed);
        };
        // The claim may postdate another holder's insert — re-check.
        if let Some(value) = self.probe(&key, &fits) {
            return value;
        }
        fault::check_or_unwind(Site::Extract);
        self.count(false);
        let value = Arc::new(build());
        self.insert(key, Arc::clone(&value), room);
        value
    }

    /// Memoises `value` under `key` (replacing a shorter trace prefix),
    /// then evicts this tier's least-recently-used entries — never `key`
    /// itself, which the caller is handing out — until its byte total
    /// fits `room()`. Outstanding `Arc` handles keep evicted values
    /// alive; eviction only drops the memo's reference.
    fn insert(&self, key: K, value: Arc<V>, room: impl Fn() -> Option<u64>) {
        // Read before locking, so a malformed budget panics without
        // poisoning the map; `room` counts only the other tiers' bytes.
        let room = room();
        let mut map = self.lock();
        let added = value.footprint();
        let last_use = self.tick.fetch_add(1, Ordering::Relaxed) + 1;
        if let Some(old) = map.insert(key.clone(), Slot { value, last_use }) {
            self.bytes
                .fetch_sub(old.value.footprint(), Ordering::Relaxed);
        }
        self.bytes.fetch_add(added, Ordering::Relaxed);
        let Some(room) = room else { return };
        while self.bytes() > room {
            let victim = map
                .iter()
                .filter(|(k, _)| **k != key)
                .min_by_key(|(_, s)| s.last_use)
                .map(|(k, _)| k.clone());
            let Some(evicted) = victim.and_then(|k| map.remove(&k)) else {
                break;
            };
            self.bytes
                .fetch_sub(evicted.value.footprint(), Ordering::Relaxed);
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }
}

type TraceKey = (WorkloadId, u64);
type TimelineKey = (WorkloadId, u64, usize, CacheConfig);
/// (workload, seed, len, min line, max line, max distance, warm-up).
type HistKey = (WorkloadId, u64, usize, u64, u64, usize, u64);

/// The three memo tiers under one process-wide owner.
struct Store {
    traces: Memo<TraceKey, Vec<Instr>>,
    timelines: Memo<TimelineKey, MissTimeline>,
    hists: Memo<HistKey, ReuseHistograms>,
}

fn store() -> &'static Store {
    static STORE: OnceLock<Store> = OnceLock::new();
    STORE.get_or_init(|| Store {
        traces: Memo::new(),
        timelines: Memo::new(),
        hists: Memo::new(),
    })
}

/// The first `len` instructions of a workload, materialised at most
/// once per (workload identity, seed) process-wide, generated chunk by
/// chunk through [`stream::fold`] (so each chunk is a cancellation
/// point).
pub fn workload_trace(spec: &WorkloadSpec, seed: u64, len: usize) -> TraceHandle {
    let s = store();
    let data = s.traces.get(
        (spec.id(), seed),
        |t| t.len() >= len,
        || {
            let mut instrs = Vec::with_capacity(len);
            stream::fold(
                spec.compile(seed).take(len),
                stream::chunk_instructions(),
                &mut [&mut instrs],
            );
            instrs
        },
        || room(s.timelines.bytes() + s.hists.bytes()),
    );
    TraceHandle { data, len }
}

/// Folds the workload's first `len` instructions through `sinks`
/// ([`stream::fold`]) without pinning them: they are generated chunk
/// by chunk, a few [`stream::chunk_instructions`] blocks resident at a
/// time.
pub fn fold_workload<S: ChunkSink>(spec: &WorkloadSpec, seed: u64, len: usize, sinks: &mut [S]) {
    let trace = spec.compile(seed).take(len);
    stream::fold(trace, stream::chunk_instructions(), sinks);
}

/// Folds the workload's first `len` instructions through `sinks` in
/// reference batches cut for a `warmup`-instruction warm-up
/// ([`stream::fold_batches`]), generated as in [`fold_workload`]:
/// sweeps and histogram parts never materialise instructions.
pub fn fold_workload_batches<S: ChunkSink<RefBatch>>(
    spec: &WorkloadSpec,
    seed: u64,
    len: usize,
    warmup: u64,
    sinks: &mut [S],
) {
    let trace = spec.compile(seed).take(len);
    let cut = RefCutter::new(warmup, 0);
    stream::fold_batches(trace, stream::chunk_instructions(), cut, sinks);
}

/// The [`MissTimeline`] of a workload prefix under `cache`, extracted
/// at most once per (workload identity, seed, length, cache geometry)
/// process-wide. Extraction streams the trace ([`fold_workload`]) — a
/// timeline lookup never materialises instructions.
pub fn workload_timeline(
    spec: &WorkloadSpec,
    seed: u64,
    len: usize,
    cache: &CacheConfig,
) -> Arc<MissTimeline> {
    let s = store();
    s.timelines.get(
        (spec.id(), seed, len, *cache),
        |_| true,
        || {
            let mut builder = MissTimelineBuilder::new(*cache);
            fold_workload(spec, seed, len, &mut [&mut builder]);
            builder.finish()
        },
        || room(s.traces.bytes() + s.hists.bytes()),
    )
}

/// The [`ReuseHistograms`] of a workload prefix, folded at most once
/// per (workload identity, seed, length, line range, distance cap,
/// warm-up) process-wide. The fold streams the trace
/// ([`fold_workload_batches`]) — a histogram lookup never materialises
/// instructions — extracting each run's references once and folding
/// the line sizes side by side.
#[allow(clippy::too_many_arguments)]
pub fn workload_histograms(
    spec: &WorkloadSpec,
    seed: u64,
    len: usize,
    min_line: u64,
    max_line: u64,
    max_distance: usize,
    warmup: u64,
) -> Arc<ReuseHistograms> {
    let s = store();
    let key = (
        spec.id(),
        seed,
        len,
        min_line,
        max_line,
        max_distance,
        warmup,
    );
    s.hists.get(
        key,
        |_| true,
        || {
            let mut hists = ReuseHistograms::new(min_line, max_line, max_distance, warmup);
            fold_workload_batches(spec, seed, len, warmup, hists.parts_mut());
            hists
        },
        || room(s.traces.bytes() + s.timelines.bytes()),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::figure1_cache;
    use simtrace::workload::builtin;

    fn id_of(name: &str) -> WorkloadId {
        builtin(name).unwrap().id()
    }

    /// A timeline folded through [`fold_workload`], outside the memo.
    fn extract(spec: &WorkloadSpec, seed: u64, len: usize, cache: &CacheConfig) -> MissTimeline {
        let mut builder = MissTimelineBuilder::new(*cache);
        fold_workload(spec, seed, len, &mut [&mut builder]);
        builder.finish()
    }

    #[test]
    fn longer_traces_extend_shorter_ones() {
        let short: Vec<Instr> = builtin("ear").unwrap().compile(7).take(2_000).collect();
        let long: Vec<Instr> = builtin("ear").unwrap().compile(7).take(5_000).collect();
        assert_eq!(
            short[..],
            long[..2_000],
            "proxy traces must be prefix-stable"
        );
    }

    #[test]
    fn store_shares_one_backing_across_lengths() {
        let nasa7 = builtin("nasa7").unwrap();
        let a = workload_trace(nasa7, 99, 1_000);
        let b = workload_trace(nasa7, 99, 3_000);
        let c = workload_trace(nasa7, 99, 2_000);
        assert_eq!(a.instrs(), &b.instrs()[..1_000]);
        assert_eq!(c.instrs(), &b.instrs()[..2_000]);
        // After the 3 000-instruction materialisation, shorter requests
        // alias the same allocation.
        assert!(Arc::ptr_eq(&b.data, &c.data));
        assert_eq!(a.len(), 1_000);
    }

    #[test]
    fn timelines_are_memoised_and_match_direct_extraction() {
        let cache = figure1_cache(32);
        let ear = builtin("ear").unwrap();
        let first = workload_timeline(ear, 42, 4_000, &cache);
        let second = workload_timeline(ear, 42, 4_000, &cache);
        assert!(
            Arc::ptr_eq(&first, &second),
            "second lookup must hit the memo"
        );
        let direct = MissTimeline::extract(cache, builtin("ear").unwrap().compile(42).take(4_000));
        assert_eq!(*first, direct);
        assert!(stats().timeline_bytes >= first.footprint());
    }

    #[test]
    fn byte_suffixes_parse() {
        assert_eq!(parse_bytes("1024"), Some(1024));
        assert_eq!(parse_bytes("4k"), Some(4096));
        assert_eq!(parse_bytes("2M"), Some(2 << 20));
        assert_eq!(parse_bytes(" 1g "), Some(1 << 30));
        assert_eq!(parse_bytes(""), None);
        assert_eq!(parse_bytes("twelve"), None);
        assert_eq!(parse_bytes("k"), None);
    }

    fn trace_of(n_instrs: usize) -> Vec<Instr> {
        vec![Instr::plain(0u64); n_instrs]
    }

    #[test]
    fn memo_budget_evicts_least_recently_used_first() {
        let key = |seed| (id_of("nasa7"), seed);
        let memo = Memo::new();
        let one = trace_of(100).footprint(); // 2400 B
        for seed in 1..=3 {
            memo.insert(key(seed), Arc::new(trace_of(100)), || None);
        }
        assert_eq!(memo.lock().len(), 3, "an unset budget never evicts");
        assert_eq!(memo.bytes(), 3 * one);
        // A hit refreshes the stamp: 1 becomes the most recent, 2 the
        // oldest.
        assert!(memo.probe(&key(1), |_| true).is_some());
        // Budget for two entries: the inserted 4 plus the most recent
        // other (1) stay; the oldest two (2, then 3) go first.
        memo.insert(key(4), Arc::new(trace_of(100)), || Some(2 * one));
        let map = memo.lock();
        assert!(map.contains_key(&key(1)) && map.contains_key(&key(4)));
        assert!(!map.contains_key(&key(2)) && !map.contains_key(&key(3)));
        drop(map);
        assert_eq!(memo.evictions.load(Ordering::Relaxed), 2);
        assert_eq!(memo.bytes(), 2 * one);
        // Unset budget still never evicts.
        memo.insert(key(5), Arc::new(trace_of(100)), || None);
        assert_eq!(memo.lock().len(), 3);
    }

    #[test]
    fn memo_budget_never_evicts_the_entry_being_handed_out() {
        let key = |seed| (id_of("ear"), seed);
        let memo = Memo::new();
        memo.insert(key(1), Arc::new(trace_of(1_000)), || None);
        let held = memo.probe(&key(1), |_| true).expect("memoised");
        // A budget that fits nothing: everything but the inserted key is
        // evicted, and outstanding handles keep their backing alive.
        let kept = Arc::new(trace_of(1_000));
        memo.insert(key(2), Arc::clone(&kept), || Some(0));
        let map = memo.lock();
        assert!(map.contains_key(&key(2)), "the handed-out entry survives");
        assert_eq!(map.len(), 1);
        drop(map);
        assert_eq!(memo.bytes(), kept.footprint());
        assert_eq!(held.len(), 1_000);
    }

    #[test]
    fn memo_budget_bounds_timelines() {
        let cache = figure1_cache(32);
        let key = |seed| (id_of("ear"), seed, 4_000, cache);
        let extract =
            |seed| MissTimeline::extract(cache, builtin("ear").unwrap().compile(seed).take(4_000));
        let (first, second) = (extract(1), extract(2));
        let fits_one = first.footprint().max(second.footprint());
        assert!(fits_one < first.footprint() + second.footprint());
        let memo = Memo::new();
        memo.insert(key(1), Arc::new(first), || Some(fits_one));
        memo.insert(key(2), Arc::new(second), || Some(fits_one));
        let map = memo.lock();
        assert!(!map.contains_key(&key(1)) && map.contains_key(&key(2)));
        drop(map);
        assert_eq!(memo.evictions.load(Ordering::Relaxed), 1);
        assert!(memo.bytes() <= fits_one);
    }

    #[test]
    fn memo_replaces_a_value_that_does_not_fit() {
        let memo: Memo<u64, Vec<Instr>> = Memo::new();
        let at_least = |n: usize| move |t: &Vec<Instr>| t.len() >= n;
        memo.get(7, at_least(10), || trace_of(10), || None);
        let longer = memo.get(7, at_least(20), || trace_of(20), || None);
        let shorter = memo.get(7, at_least(15), || unreachable!("fits"), || None);
        assert!(Arc::ptr_eq(&longer, &shorter), "shorter requests alias it");
        assert_eq!(memo.misses.load(Ordering::Relaxed), 2);
        assert_eq!(memo.hits.load(Ordering::Relaxed), 1);
        assert_eq!(
            memo.bytes(),
            longer.footprint(),
            "the replaced value's bytes are released"
        );
    }

    #[test]
    fn memo_poison_recovery_clears_the_map_and_its_bytes() {
        let memo: Memo<u64, Vec<Instr>> = Memo::new();
        memo.insert(1, Arc::new(trace_of(10)), || None);
        let _ = std::thread::scope(|s| {
            s.spawn(|| {
                let _map = memo.lock();
                panic!("holder dies mid-insert");
            })
            .join()
        });
        assert!(memo.lock().is_empty());
        assert_eq!(memo.bytes(), 0);
        assert_eq!(memo.recoveries(), 1);
    }

    #[test]
    fn memo_a_cancelled_claimant_releases_its_key() {
        let cache = figure1_cache(32);
        let ear = builtin("ear").unwrap();
        let (seed, len) = (0x5EED_0006, 20_000);
        let key = (ear.id(), seed, len, cache);
        let memo = Memo::new();
        let (claimed, on_claim) = std::sync::mpsc::channel();
        let waited = std::thread::scope(|s| {
            let claimant = s.spawn(|| {
                let deadline = std::time::Instant::now() + std::time::Duration::from_millis(50);
                let _scope = fault::enter_until("cancelled", Some(deadline));
                memo.get(
                    key,
                    |_| true,
                    || {
                        claimed.send(()).unwrap();
                        // Outlast the deadline: the build's first chunk
                        // is then its cancellation point.
                        std::thread::sleep(std::time::Duration::from_millis(100));
                        extract(ear, seed, len, &cache)
                    },
                    || None,
                )
            });
            on_claim.recv().unwrap();
            // Blocks on the claimant's key until the unwind releases it.
            let waiter =
                s.spawn(|| memo.get(key, |_| true, || extract(ear, seed, len, &cache), || None));
            let payload = claimant.join().unwrap_err();
            assert!(payload.is::<fault::DeadlineExceeded>());
            waiter.join().unwrap()
        });
        let direct = MissTimeline::extract(cache, builtin("ear").unwrap().compile(seed).take(len));
        assert_eq!(*waited, direct);
        assert_eq!(memo.recoveries(), 0, "a cancelled build poisons nothing");
        assert_eq!(memo.misses.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn byte_accounting_tracks_materialisations() {
        let seed = 0x5EED_0002;
        let before = stats().trace_bytes;
        let t = workload_trace(builtin("hydro2d").unwrap(), seed, 1_000);
        let after = stats().trace_bytes;
        assert_eq!(after - before, (1_000 * INSTR_BYTES) as u64);
        assert_eq!(t.data.footprint(), (1_000 * INSTR_BYTES) as u64);
    }

    #[test]
    fn histograms_are_memoised_and_match_a_direct_fold() {
        let seed = 0x5EED_0004;
        let ear = builtin("ear").unwrap();
        let first = workload_histograms(ear, seed, 4_000, 8, 64, 512, 800);
        let second = workload_histograms(ear, seed, 4_000, 8, 64, 512, 800);
        assert!(
            Arc::ptr_eq(&first, &second),
            "second lookup must hit the memo"
        );
        let mut direct = ReuseHistograms::new(8, 64, 512, 800);
        let trace: Vec<Instr> = builtin("ear").unwrap().compile(seed).take(4_000).collect();
        direct.process_slice(&trace);
        for line in [8, 16, 32, 64] {
            assert_eq!(first.profile(line), direct.profile(line), "line={line}");
        }
        assert!(stats().hist_bytes > 0);
    }

    #[test]
    fn streaming_extraction_matches_whole_trace_extraction() {
        let cache = figure1_cache(32);
        let seed = 0x5EED_0003;
        let spec = builtin("swm256").unwrap();
        let streamed = extract(spec, seed, 6_000, &cache);
        let direct =
            MissTimeline::extract(cache, builtin("swm256").unwrap().compile(seed).take(6_000));
        assert_eq!(streamed, direct);
    }

    #[test]
    fn inline_specs_share_entries_with_the_builtin_of_equal_identity() {
        let seed = 0x5EED_0005;
        let named = builtin("doduc").unwrap();
        let mut anon = named.clone();
        anon.name = None; // a different label, the same canonical form
        let a = workload_trace(named, seed, 1_500);
        let b = workload_trace(&anon, seed, 1_500);
        assert!(Arc::ptr_eq(&a.data, &b.data), "one entry per identity");
    }
}
