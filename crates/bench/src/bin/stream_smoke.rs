//! Streaming-pipeline smoke: runs a Figure-1 φ batch through the
//! chunked generate→fold pipeline, then a Figure-6 sweep grid and the
//! analytic backend's 8–128 B reuse histograms through one batched
//! pass, checks peak RSS stayed bounded (the point of streaming), then
//! verifies the folded numbers byte-identically against the
//! materialise-then-scan oracle.
//!
//! ```text
//! stream_smoke [--instructions N] [--rss-limit-mb MB]
//! ```
//!
//! Defaults: 1 M instructions, 256 MB ceiling. The RSS check reads
//! `VmHWM` from `/proc/self/status` *before* the oracle pass (which
//! deliberately materialises the whole trace and would dominate the
//! high-water mark). Exit codes: `0` success, `1` RSS ceiling or
//! oracle mismatch, `2` bad usage.
//!
//! Wired into tier-1 as `./ci.sh stream`.

use bench::stream::{self, ChunkSink};
use simcache::explore::{hit_ratio_grid_replay, GridSpec, HitRatioPoint};
use simcache::Simulated;
use simcpu::{Cpu, CpuConfig, MissTimeline, MissTimelineBuilder, StallFeature, TimelineCpu};
use simmem::{BusWidth, MemoryTiming};
use simtrace::workload::{builtin, CompiledTrace};
use simtrace::{Instr, RefBatch, RefCutter, ReuseHistograms, INSTR_BYTES};
use std::process::ExitCode;
use tradeoff::api::HIST_DISTANCE_CAP;

const SEED: u64 = 7;
const LINES: [u64; 5] = [8, 16, 32, 64, 128];
const ASSOC: u32 = 2;
const BETAS: [u64; 3] = [4, 22, 50];

/// The streamed workload: the nasa7 proxy at the smoke's seed.
fn nasa7() -> CompiledTrace {
    builtin("nasa7").expect("nasa7 is a builtin").compile(SEED)
}

fn usage() -> ExitCode {
    eprintln!("usage: stream_smoke [--instructions N] [--rss-limit-mb MB]");
    ExitCode::from(2)
}

/// Peak resident set size in bytes (`VmHWM`), or `None` off-Linux.
fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

/// Every stall feature: FS, Figure 1's measured four, and NB from one
/// MSHR up to the most a timeline replays.
fn phi_points() -> Vec<(StallFeature, u64)> {
    let nb = [1, 4, MissTimeline::MAX_MSHRS].map(|mshrs| StallFeature::NonBlocking { mshrs });
    std::iter::once(StallFeature::FullStall)
        .chain(StallFeature::MEASURED)
        .chain(nb)
        .flat_map(|f| BETAS.iter().map(move |&b| (f, b)))
        .collect()
}

fn phi_cache() -> simcache::CacheConfig {
    simcache::CacheConfig::new(8 * 1024, 32, ASSOC).expect("valid 8KB cache")
}

fn config(stall: StallFeature, beta: u64) -> CpuConfig {
    CpuConfig::baseline(
        phi_cache(),
        MemoryTiming::new(BusWidth::new(4).expect("valid bus"), beta),
    )
    .with_stall(stall)
}

/// The smoke's Figure-6 grid: two-way, 20 % warm-up.
fn grid(n: usize) -> GridSpec {
    GridSpec {
        cache_sizes: (0..=6).map(|i| 1024u64 << i).collect(),
        line_sizes: LINES.to_vec(),
        assocs: vec![ASSOC],
        warmup: n as u64 / 5,
    }
}

/// The reuse histograms the analytic backend reads, over the smoke's
/// line sizes and warm-up.
fn histograms(grid: &GridSpec) -> ReuseHistograms {
    ReuseHistograms::new(
        LINES[0],
        LINES[LINES.len() - 1],
        HIST_DISTANCE_CAP,
        grid.warmup,
    )
}

/// Two streamed passes: φ values from a timeline sink's `O(misses)`
/// replays, then grid points from five sweeps and reuse histograms
/// from their line-size parts, all folded from shared reference
/// batches under the grid's warm-up.
fn streamed(
    grid: &GridSpec,
    n: usize,
    chunk: usize,
) -> (Vec<HitRatioPoint>, Vec<f64>, ReuseHistograms) {
    let mut timeline = MissTimelineBuilder::new(phi_cache());
    stream::fold(nasa7().take(n), chunk, &mut [&mut timeline]);
    let timeline: MissTimeline = timeline.finish();
    let phis = phi_points()
        .iter()
        .map(|&(stall, beta)| {
            TimelineCpu::new(&timeline, config(stall, beta))
                .expect("timeline supports the φ configs")
                .run()
                .phi()
        })
        .collect();
    // The batched pass then runs without the timeline resident, so
    // the peak is the larger pass, not the two together.
    drop(timeline);
    let mut sweeps = grid.sweeps().expect("valid grid");
    let mut hists = histograms(grid);
    let mut sinks: Vec<&mut dyn ChunkSink<RefBatch>> = sweeps
        .iter_mut()
        .map(|s| s as &mut dyn ChunkSink<RefBatch>)
        .collect();
    sinks.extend(
        hists
            .parts_mut()
            .iter_mut()
            .map(|p| p as &mut dyn ChunkSink<RefBatch>),
    );
    let cut = RefCutter::new(grid.warmup, 0);
    stream::fold_batches(nasa7().take(n), chunk, cut, &mut sinks);
    drop(sinks);
    let points = Simulated::from_sweeps(sweeps)
        .points(grid)
        .expect("grid covered by its sweeps");
    (points, phis, hists)
}

fn main() -> ExitCode {
    let mut instructions: usize = 1_000_000;
    let mut rss_limit_mb: u64 = 256;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let value = |a: Option<String>| a.ok_or(());
        match arg.as_str() {
            "--instructions" => match value(args.next()).and_then(|v| v.parse().map_err(|_| ())) {
                Ok(n) if n > 0 => instructions = n,
                _ => return usage(),
            },
            "--rss-limit-mb" => match value(args.next()).and_then(|v| v.parse().map_err(|_| ())) {
                Ok(mb) => rss_limit_mb = mb,
                _ => return usage(),
            },
            _ => return usage(),
        }
    }

    let grid = grid(instructions);
    let chunk = stream::chunk_instructions();
    let (points, phis, hists) = streamed(&grid, instructions, chunk);

    // RSS gate first: the oracle pass below materialises the whole
    // trace on purpose and would swamp the high-water mark.
    let peak = peak_rss_bytes();
    match peak {
        Some(bytes) => {
            let limit = rss_limit_mb * 1024 * 1024;
            println!(
                "stream_smoke: {} instr in {}-instr chunks ({} KB/chunk), {} grid + {} φ points + {} reuse histograms, peak RSS {:.1} MB (limit {} MB)",
                instructions,
                chunk,
                chunk * INSTR_BYTES / 1024,
                points.len(),
                phis.len(),
                LINES.len(),
                bytes as f64 / (1024.0 * 1024.0),
                rss_limit_mb,
            );
            if bytes > limit {
                eprintln!(
                    "stream_smoke: FAIL: peak RSS {bytes} B exceeds {limit} B — streaming is not bounding memory"
                );
                return ExitCode::FAILURE;
            }
        }
        None => println!("stream_smoke: /proc/self/status unavailable, skipping RSS ceiling"),
    }

    // Oracle gate: materialise-then-scan must agree byte for byte.
    let whole: Vec<Instr> = nasa7().take(instructions).collect();
    let oracle_grid = hit_ratio_grid_replay(&grid, || whole.iter().copied()).expect("valid grid");
    if points != oracle_grid {
        eprintln!("stream_smoke: FAIL: streamed grid diverged from the replay oracle");
        return ExitCode::FAILURE;
    }
    for (&(stall, beta), &phi) in phi_points().iter().zip(&phis) {
        let oracle = Cpu::new(config(stall, beta))
            .run(whole.iter().copied())
            .phi();
        if phi != oracle {
            eprintln!(
                "stream_smoke: FAIL: φ diverged at ({stall:?}, β={beta}): streamed {phi}, oracle {oracle}"
            );
            return ExitCode::FAILURE;
        }
    }
    let mut oracle_hists = histograms(&grid);
    oracle_hists.process_slice(&whole);
    for line in LINES {
        if hists.profile(line) != oracle_hists.profile(line)
            || hists.set_mass(line) != oracle_hists.set_mass(line)
        {
            eprintln!(
                "stream_smoke: FAIL: reuse histogram diverged at {line} B lines from the serial fold"
            );
            return ExitCode::FAILURE;
        }
    }
    println!("stream_smoke: OK — streamed folds byte-identical to the materialised oracle");
    ExitCode::SUCCESS
}
