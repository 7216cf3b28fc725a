//! Line-size advisor: pick the optimal cache line for a workload and a
//! memory technology, from *measured* hit ratios.
//!
//! Reproduces the Section 5.4 methodology as a practical tool: sweep line
//! sizes through the cache simulator, then evaluate Smith's criterion
//! (Eq. 16) and the paper's Eq. 19 — which must agree — across a grid of
//! memory technologies, reporting the optimum and the bus-speed range
//! where it stays beneficial.
//!
//! Run with `cargo run --release --example line_size_advisor`.

use bench::stream;
use simcache::explore::GridSpec;
use simtrace::RefCutter;
use tradeoff::linesize::{
    beneficial_bus_speeds, optimal_line_eq19, optimal_line_smith, FillTiming, LineCandidate,
};
use unified_tradeoff::prelude::*;

const CACHE_BYTES: u64 = 16 * 1024;
const INSTRUCTIONS: usize = 120_000;

fn measured_candidates(program: &WorkloadSpec) -> Vec<LineCandidate> {
    let grid = GridSpec {
        cache_sizes: vec![CACHE_BYTES],
        line_sizes: vec![8, 16, 32, 64, 128],
        assocs: vec![2],
        warmup: INSTRUCTIONS as u64 / 5,
    };
    // One streamed pass of the generated trace answers every line size.
    let mut sweeps = grid.sweeps().expect("valid geometry");
    stream::fold_batches(
        program.compile(0xBEEF).take(INSTRUCTIONS),
        stream::chunk_instructions(),
        RefCutter::new(grid.warmup, 0),
        &mut sweeps,
    );
    simcache::Simulated::from_sweeps(sweeps)
        .points(&grid)
        .expect("grid covered by its sweeps")
        .into_iter()
        .map(|p| LineCandidate {
            line_bytes: p.line_bytes as f64,
            hit_ratio: HitRatio::new(p.hit_ratio).expect("simulator returns a valid ratio"),
        })
        .collect()
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let program = builtin("nasa7").expect("a builtin proxy");
    let candidates = measured_candidates(program);

    println!("Measured hit ratios for {} (16K two-way):", program.label());
    let mut t = Table::new(["line", "hit ratio"]);
    for c in &candidates {
        t.row([format!("{} B", c.line_bytes), format!("{}", c.hit_ratio)]);
    }
    println!("{}", t.render());

    // Advise across memory technologies (c = latency cycles incl. hit,
    // β = cycles per 4-byte transfer).
    let mut advice = Table::new(["technology (c, β)", "Smith Eq.16", "paper Eq.19", "agree"]);
    for (c, beta) in [(3.0, 0.5), (5.0, 1.0), (9.0, 2.0), (17.0, 4.0), (33.0, 8.0)] {
        let timing = FillTiming::new(c, beta)?;
        let smith = optimal_line_smith(&timing, 4.0, &candidates)?;
        let ours = optimal_line_eq19(&timing, 4.0, &candidates)?;
        advice.row([
            format!("({c}, {beta})"),
            format!("{} B", smith.line_bytes),
            format!("{} B", ours.line_bytes),
            (smith.line_bytes == ours.line_bytes).to_string(),
        ]);
    }
    println!("Optimal line size by memory technology:");
    println!("{}", advice.render());

    // The beneficial bus-speed range of the largest line (Figure 6's
    // positive region).
    let base = candidates[0];
    let big = *candidates.last().expect("candidates non-empty");
    let betas: Vec<f64> = (1..=16).map(|i| i as f64 * 0.5).collect();
    let good = beneficial_bus_speeds(
        |b| 6.0 * b + 1.0,
        &betas,
        4.0,
        base.line_bytes,
        base.hit_ratio,
        big.line_bytes,
        big.hit_ratio,
    )?;
    match (good.first(), good.last()) {
        (Some(lo), Some(hi)) => println!(
            "A {} B line beats {} B for normalized bus speeds β ∈ [{lo}, {hi}] \
             (360ns+15ns/B-class memory).",
            big.line_bytes, base.line_bytes
        ),
        _ => println!(
            "A {} B line never beats {} B on this workload/technology.",
            big.line_bytes, base.line_bytes
        ),
    }
    Ok(())
}
