//! Streaming-pipeline smoke: runs a Figure-6 sweep grid and a Figure-1
//! φ batch through the chunked generate→fold pipeline, checks peak RSS
//! stayed bounded (the point of streaming), then verifies the folded
//! numbers byte-identically against the materialise-then-scan oracle.
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

use bench::stream::{self, FoldOut, FoldSink};
use simcache::explore::{hit_ratio_grid_replay, HitRatioPoint};
use simcache::stackdist::StackDistSweep;
use simcpu::{Cpu, CpuConfig, MissTimeline, MissTimelineBuilder, StallFeature, TimelineCpu};
use simmem::{BusWidth, MemoryTiming};
use simtrace::workload::{builtin, CompiledTrace};
use simtrace::{Instr, INSTR_BYTES};
use std::process::ExitCode;

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

fn sizes() -> Vec<u64> {
    (0..=6).map(|i| 1024u64 << i).collect()
}

fn phi_points() -> Vec<(StallFeature, u64)> {
    StallFeature::MEASURED
        .iter()
        .flat_map(|&f| BETAS.iter().map(move |&b| (f, b)))
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

fn grid_from_sweeps(sweeps: &[StackDistSweep], sizes: &[u64]) -> Vec<HitRatioPoint> {
    let mut points = Vec::with_capacity(sizes.len() * LINES.len());
    for &cache_bytes in sizes {
        for (li, &line_bytes) in LINES.iter().enumerate() {
            let sets = cache_bytes / (line_bytes * u64::from(ASSOC));
            let stats = sweeps[li].stats(sets.trailing_zeros(), ASSOC);
            points.push(HitRatioPoint {
                cache_bytes,
                line_bytes,
                hit_ratio: stats.hit_ratio(),
                flush_ratio: stats.flush_ratio(),
            });
        }
    }
    points
}

/// One streamed pass: grid points from five sweep sinks, φ values from
/// a timeline sink's `O(misses)` replays.
fn streamed(n: usize, sizes: &[u64], chunk: usize) -> (Vec<HitRatioPoint>, Vec<f64>) {
    let warmup = n as u64 / 5;
    let min_sets = |l: u64| {
        sizes
            .iter()
            .map(|&c| c / (l * u64::from(ASSOC)))
            .min()
            .unwrap()
    };
    let max_sets = |l: u64| {
        sizes
            .iter()
            .map(|&c| c / (l * u64::from(ASSOC)))
            .max()
            .unwrap()
    };
    let mut sinks: Vec<FoldSink> = LINES
        .iter()
        .map(|&l| {
            FoldSink::Sweep(
                StackDistSweep::new_range(
                    l,
                    min_sets(l).trailing_zeros(),
                    max_sets(l).trailing_zeros(),
                    ASSOC,
                    warmup,
                )
                .expect("valid sweep"),
            )
        })
        .collect();
    sinks.push(FoldSink::Timeline(MissTimelineBuilder::new(phi_cache())));
    let mut out = stream::broadcast(nasa7().take(n), chunk, sinks);
    let timeline: MissTimeline = out.pop().expect("timeline sink").into_timeline();
    let sweeps: Vec<StackDistSweep> = out.into_iter().map(FoldOut::into_sweep).collect();
    let phis = phi_points()
        .iter()
        .map(|&(stall, beta)| {
            TimelineCpu::new(&timeline, config(stall, beta))
                .expect("timeline supports the φ configs")
                .run()
                .phi()
        })
        .collect();
    (grid_from_sweeps(&sweeps, sizes), phis)
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

    let sizes = sizes();
    let chunk = stream::chunk_instructions();
    let (grid, phis) = streamed(instructions, &sizes, chunk);

    // RSS gate first: the oracle pass below materialises the whole
    // trace on purpose and would swamp the high-water mark.
    let peak = peak_rss_bytes();
    match peak {
        Some(bytes) => {
            let limit = rss_limit_mb * 1024 * 1024;
            println!(
                "stream_smoke: {} instr in {}-instr chunks ({} KB/chunk), {} grid + {} φ points, peak RSS {:.1} MB (limit {} MB)",
                instructions,
                chunk,
                chunk * INSTR_BYTES / 1024,
                grid.len(),
                phis.len(),
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
    let oracle_grid = hit_ratio_grid_replay(
        &sizes,
        &LINES,
        ASSOC,
        || whole.iter().copied(),
        instructions as u64 / 5,
    )
    .expect("valid grid");
    if grid != oracle_grid {
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
    println!("stream_smoke: OK — streamed folds byte-identical to the materialised oracle");
    ExitCode::SUCCESS
}
