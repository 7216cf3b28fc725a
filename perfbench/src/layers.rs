//! Spans around the calls into each layer, recorded from the
//! benchmark's own code.
//!
//! Two instruments:
//!
//! * [`Probe`] is a [`Workloads`] provider for `tradeoff::api::dispatch`.
//!   Everything a query needs from the trace layers passes through it,
//!   so timing its methods splits a dispatch into store lookups (or
//!   generation and folds) and the evaluation dispatch does itself.
//!   In [`Mode::Fold`] it folds from scratch the way the server's store
//!   does on a miss, walking the chunked trace and timing the fold
//!   callback apart from the whole walk, which separates generation
//!   from folding.
//! * [`probe_rates`] runs every fold layer once over a workload's own
//!   inputs and reports each layer's throughput, whether or not the
//!   workload's end-to-end path exercises it.

use crate::stats::median;
use bench::queryenv::StoreWorkloads;
use bench::tracestore;
use simcache::{Analytic, Cache, CacheConfig, Simulated, StackDistSweep};
use simcpu::{Cpu, CpuConfig, MissTimeline, MissTimelineBuilder, StallFeature};
use simmem::{BusWidth, MemoryTiming};
use simtrace::{Instr, ReuseHistograms, WorkloadSpec};
use std::hint::black_box;
use std::sync::{Arc, Mutex};
use std::time::Instant;
use tradeoff::api::{
    dense_best, dispatch, DenseGrid, ExperimentInfo, GridSpec, QueryRequest, Workloads, GRID_SEED,
};

/// Time and work inside a provider, accumulated across calls.
#[derive(Debug, Clone, Copy, Default)]
pub struct Spans {
    /// Trace generation: the chunked walk minus its fold callbacks.
    pub gen_s: f64,
    /// Reuse-histogram folds.
    pub reusehist_s: f64,
    /// Stack-distance sweep folds.
    pub stackdist_s: f64,
    /// Miss-timeline extraction folds.
    pub extract_s: f64,
    /// Memoised lookups through the trace store.
    pub store_s: f64,
}

impl Spans {
    /// Everything the provider did: the part of a dispatch that is not
    /// the dispatch's own evaluation.
    pub fn total(&self) -> f64 {
        self.gen_s + self.reusehist_s + self.stackdist_s + self.extract_s + self.store_s
    }
}

/// How a [`Probe`] answers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Through the process-wide trace store, as the server does.
    Store,
    /// By folding from scratch every time, as a store miss does.
    Fold,
}

/// A span-recording [`Workloads`] provider.
#[derive(Debug)]
pub struct Probe {
    mode: Mode,
    spans: Mutex<Spans>,
}

impl Probe {
    pub fn new(mode: Mode) -> Probe {
        Probe {
            mode,
            spans: Mutex::new(Spans::default()),
        }
    }

    /// The spans recorded so far; resets them.
    pub fn take(&self) -> Spans {
        std::mem::take(&mut *self.spans.lock().expect("span lock: a probe call panicked"))
    }

    fn record(&self, f: impl FnOnce(&mut Spans)) {
        f(&mut self.spans.lock().expect("span lock: a probe call panicked"));
    }

    fn stored<T>(&self, lookup: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = lookup();
        let s = start.elapsed().as_secs_f64();
        self.record(|sp| sp.store_s += s);
        out
    }
}

/// Walks `len` instructions of `spec` at `seed` chunk by chunk, timing
/// `fold` separately from the walk. Returns (generation s, fold s).
pub fn walk(
    spec: &WorkloadSpec,
    seed: u64,
    len: usize,
    mut fold: impl FnMut(&[Instr]),
) -> (f64, f64) {
    let mut fold_s = 0.0;
    let start = Instant::now();
    spec.chunks(seed, len, bench::stream::chunk_instructions())
        .for_each_chunk(|chunk| {
            let t = Instant::now();
            fold(chunk);
            fold_s += t.elapsed().as_secs_f64();
        });
    (start.elapsed().as_secs_f64() - fold_s, fold_s)
}

/// The comparison-grid sweeps the simulated backend folds (one per line
/// size), exactly as the store's `build_simulated` sets them up.
fn grid_sweeps(grid: &GridSpec) -> Vec<StackDistSweep> {
    let amax = *grid.assocs.iter().max().expect("grid has assocs");
    grid.line_sizes
        .iter()
        .map(|&line| {
            StackDistSweep::new_range(
                line,
                grid.min_sets(line).trailing_zeros(),
                grid.max_sets(line).trailing_zeros(),
                amax,
                grid.warmup,
            )
            .expect("valid grid line size")
        })
        .collect()
}

impl Workloads for Probe {
    fn histograms(
        &self,
        spec: &WorkloadSpec,
        seed: u64,
        len: usize,
        min_line: u64,
        max_line: u64,
        max_distance: usize,
        warmup: u64,
    ) -> Arc<ReuseHistograms> {
        if self.mode == Mode::Store {
            return self.stored(|| {
                StoreWorkloads.histograms(spec, seed, len, min_line, max_line, max_distance, warmup)
            });
        }
        let mut hists = ReuseHistograms::new(min_line, max_line, max_distance, warmup);
        let (gen, fold) = walk(spec, seed, len, |c| hists.process_slice(c));
        self.record(|sp| {
            sp.gen_s += gen;
            sp.reusehist_s += fold;
        });
        Arc::new(hists)
    }

    fn simulated_grid(
        &self,
        spec: &WorkloadSpec,
        grid: &GridSpec,
        instructions: usize,
    ) -> Simulated {
        // The store never memoises sweeps: both modes fold.
        let mut sweeps = grid_sweeps(grid);
        let (gen, fold) = walk(spec, GRID_SEED, instructions, |c| {
            for s in &mut sweeps {
                s.process_slice(c);
            }
        });
        self.record(|sp| {
            sp.gen_s += gen;
            sp.stackdist_s += fold;
        });
        Simulated::from_sweeps(sweeps)
    }

    fn timeline(
        &self,
        spec: &WorkloadSpec,
        seed: u64,
        len: usize,
        cache: &CacheConfig,
    ) -> Arc<MissTimeline> {
        if self.mode == Mode::Store {
            return self.stored(|| StoreWorkloads.timeline(spec, seed, len, cache));
        }
        let mut builder = MissTimelineBuilder::new(*cache);
        let (gen, fold) = walk(spec, seed, len, |c| builder.process_slice(c));
        self.record(|sp| {
            sp.gen_s += gen;
            sp.extract_s += fold;
        });
        Arc::new(builder.finish())
    }

    fn experiments(&self) -> Vec<ExperimentInfo> {
        StoreWorkloads.experiments()
    }
}

/// One input of a workload: a spec, its seed and its length.
pub type Input = (WorkloadSpec, u64, usize);

/// Per-layer throughput over a workload's inputs.
#[derive(Debug, Clone, Copy, Default)]
pub struct Rates {
    pub gen_minstr_per_s: f64,
    pub reusehist_mrefs_per_s: f64,
    pub stackdist_mrefs_per_s: f64,
    pub analytic_mpoints_per_s: f64,
    pub extract_mrefs_per_s: f64,
    pub replay_us: f64,
    pub cache_mrefs_per_s: f64,
    pub cpu_minstr_per_s: f64,
    /// Median trace-store hit lookup (a memoised timeline).
    pub store_hit_us: f64,
}

/// The cache every probe extracts, replays and simulates: the paper's
/// Figure-1 data cache (8 KB, 32 B lines, 2-way).
fn probe_cache() -> CacheConfig {
    CacheConfig::new(8 * 1024, 32, 2).expect("valid 8 KB cache")
}

fn probe_cpu() -> CpuConfig {
    let bus = BusWidth::new(4).expect("valid bus width");
    CpuConfig::baseline(probe_cache(), MemoryTiming::new(bus, 8))
        .with_stall(StallFeature::FullStall)
}

/// Runs every layer over `inputs`: one chunked walk per input feeds the
/// reuse-histogram fold, the comparison-grid sweeps, timeline
/// extraction, `Cache` replay and `Cpu::run` stepping, each timed on its
/// own; then the closed-form walk over `dense`, timeline replay, and
/// trace-store hits on the first input.
pub fn probe_rates(inputs: &[Input], dense: &DenseGrid) -> Rates {
    let (mut gen_s, mut instrs, mut refs) = (0.0, 0u64, 0u64);
    let (mut hist_s, mut sweep_s, mut extract_s, mut cache_s, mut cpu_s) =
        (0.0, 0.0, 0.0, 0.0, 0.0);
    let (mut analytic_s, mut points) = (0.0, 0u64);
    let mut replays = Vec::new();
    for (spec, seed, len) in inputs {
        let warmup = *len as u64 / 5;
        let mut hists = ReuseHistograms::new(8, 128, tradeoff::api::HIST_DISTANCE_CAP, warmup);
        let mut sweeps = grid_sweeps(&GridSpec::comparison(warmup));
        let mut builder = MissTimelineBuilder::new(probe_cache());
        let mut cache = Cache::new(probe_cache());
        let mut cpu = Cpu::new(probe_cpu());
        let folds_before = hist_s + sweep_s + extract_s + cache_s + cpu_s;
        let start = Instant::now();
        spec.chunks(*seed, *len, bench::stream::chunk_instructions())
            .for_each_chunk(|c| {
                refs += c.iter().filter(|i| i.mem.is_some()).count() as u64;
                timed(&mut hist_s, || hists.process_slice(c));
                timed(&mut sweep_s, || {
                    for s in &mut sweeps {
                        s.process_slice(c);
                    }
                });
                timed(&mut extract_s, || builder.process_slice(c));
                timed(&mut cache_s, || {
                    for m in c.iter().filter_map(|i| i.mem) {
                        black_box(cache.access(m.op, m.addr));
                    }
                });
                timed(&mut cpu_s, || {
                    for i in c {
                        cpu.step(i);
                    }
                });
            });
        let folds = hist_s + sweep_s + extract_s + cache_s + cpu_s - folds_before;
        gen_s += start.elapsed().as_secs_f64() - folds;
        instrs += *len as u64;
        black_box(cpu.finish());
        black_box(Simulated::from_sweeps(sweeps));

        let t = Instant::now();
        let analytic = Analytic::from_histograms(&hists);
        black_box(dense_best(&analytic, dense, 0.9));
        analytic_s += t.elapsed().as_secs_f64();
        points += dense.points() as u64;

        let timeline = builder.finish();
        for _ in 0..15 {
            let t = Instant::now();
            black_box(timeline.replay(&probe_cpu()));
            replays.push(t.elapsed().as_secs_f64() * 1e6);
        }
    }
    let mrate = |n: u64, s: f64| n as f64 / s / 1e6;
    Rates {
        gen_minstr_per_s: mrate(instrs, gen_s),
        reusehist_mrefs_per_s: mrate(refs, hist_s),
        stackdist_mrefs_per_s: mrate(refs, sweep_s),
        analytic_mpoints_per_s: mrate(points, analytic_s),
        extract_mrefs_per_s: mrate(refs, extract_s),
        replay_us: median(&replays).unwrap_or(f64::NAN),
        cache_mrefs_per_s: mrate(refs, cache_s),
        cpu_minstr_per_s: mrate(instrs, cpu_s),
        store_hit_us: store_hit_us(&inputs[0]),
    }
}

/// Adds the time `f` takes to `total`.
fn timed(total: &mut f64, f: impl FnOnce()) {
    let t = Instant::now();
    f();
    *total += t.elapsed().as_secs_f64();
}

/// Median time of a memoised timeline lookup (the hit path every hot
/// `simulate` takes), after one lookup that fills the entry.
fn store_hit_us((spec, seed, len): &Input) -> f64 {
    let cache = probe_cache();
    black_box(tracestore::workload_timeline(spec, *seed, *len, &cache));
    let hits: Vec<f64> = (0..200)
        .map(|_| {
            let t = Instant::now();
            black_box(tracestore::workload_timeline(spec, *seed, *len, &cache));
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median(&hits).unwrap_or(f64::NAN)
}

/// One request through the API in-process, span by span.
#[derive(Debug, Clone)]
pub struct Call {
    pub kind: &'static str,
    pub parse_s: f64,
    pub dispatch_s: f64,
    pub render_s: f64,
    /// What the provider did inside `dispatch_s`.
    pub spans: Spans,
    /// The rendered reply, as the server would send it.
    pub body: String,
}

impl Call {
    pub fn total(&self) -> f64 {
        self.parse_s + self.dispatch_s + self.render_s
    }

    /// Dispatch time not spent in the provider: the evaluation itself
    /// (replay, closed-form walks, grid searches).
    pub fn eval_s(&self) -> f64 {
        self.dispatch_s - self.spans.total()
    }
}

/// Parses, dispatches and renders `request` through `probe`.
pub fn call(request: &str, probe: &Probe) -> Result<Call, String> {
    let t0 = Instant::now();
    let req = QueryRequest::from_json_str(request).map_err(|e| e.message)?;
    let t1 = Instant::now();
    let resp = dispatch(&req, probe).map_err(|e| e.message)?;
    let t2 = Instant::now();
    let body = format!("{}\n", resp.to_json_string());
    let t3 = Instant::now();
    Ok(Call {
        kind: req.kind(),
        parse_s: (t1 - t0).as_secs_f64(),
        dispatch_s: (t2 - t1).as_secs_f64(),
        render_s: (t3 - t2).as_secs_f64(),
        spans: probe.take(),
        body,
    })
}

/// The API layer over a workload's requests.
pub struct ApiLedger {
    /// Per request, its median pass by total time.
    pub calls: Vec<Call>,
    /// `tradeoff.api.{parse,dispatch,render}_us`: medians over every
    /// call of every pass.
    pub summary: [f64; 3],
    /// `tradeoff.api.dispatch_us.<kind>` medians.
    pub by_kind: Vec<crate::Metric>,
}

/// Runs every request `passes` times in-process. In [`Mode::Store`] a
/// first, untimed pass fills the process-wide store, so the timed
/// passes take the hit path the server takes after its warm-up.
pub fn api_ledger(requests: &[String], mode: Mode, passes: usize) -> Result<ApiLedger, String> {
    let probe = Probe::new(mode);
    if mode == Mode::Store {
        for r in requests {
            call(r, &probe)?;
        }
    }
    let mut runs: Vec<Vec<Call>> = vec![Vec::new(); requests.len()];
    for _ in 0..passes {
        for (r, calls) in requests.iter().zip(&mut runs) {
            calls.push(call(r, &probe)?);
        }
    }
    let us = |f: fn(&Call) -> f64| {
        median(
            &runs
                .iter()
                .flatten()
                .map(|c| f(c) * 1e6)
                .collect::<Vec<_>>(),
        )
        .unwrap_or(f64::NAN)
    };
    let summary = [us(|c| c.parse_s), us(|c| c.dispatch_s), us(|c| c.render_s)];
    let mut kinds: Vec<&str> = runs.iter().flatten().map(|c| c.kind).collect();
    kinds.sort_unstable();
    kinds.dedup();
    let by_kind = kinds
        .into_iter()
        .map(|kind| {
            let xs: Vec<f64> = runs
                .iter()
                .flatten()
                .filter(|c| c.kind == kind)
                .map(|c| c.dispatch_s * 1e6)
                .collect();
            crate::metric(
                format!("tradeoff.api.dispatch_us.{kind}"),
                median(&xs).unwrap_or(f64::NAN),
                "us",
            )
        })
        .collect();
    let calls = runs
        .into_iter()
        .map(|mut calls| {
            calls.sort_by(|a, b| a.total().total_cmp(&b.total()));
            calls.swap_remove(calls.len() / 2)
        })
        .collect();
    Ok(ApiLedger {
        calls,
        summary,
        by_kind,
    })
}
