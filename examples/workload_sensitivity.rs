//! Workload sensitivity: measure `{HR, α, φ}` per program and rank
//! features per workload.
//!
//! The paper's figures use SPEC92 *averages*; this example shows what the
//! methodology says per program — vectorizable codes (high α, regular
//! miss spacing) price features differently from irregular ones.
//!
//! Run with `cargo run --release --example workload_sensitivity`.

use unified_tradeoff::prelude::*;

const INSTRUCTIONS: usize = 120_000;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let timing = MemoryTiming::new(BusWidth::new(4).map_err(|e| e.to_string())?, 8);
    let dcache = CacheConfig::new(8 * 1024, 32, 2)?;

    let mut profile_table = Table::new([
        "program",
        "HR",
        "α (measured)",
        "φ(BNL1)",
        "φ(BNL3)",
        "CPI (FS)",
    ]);
    let mut ranking_table = Table::new(["program", "best feature", "2nd", "3rd"]);

    for program in builtins() {
        // Measure the full profile under three stalling features.
        let run = |stall: StallFeature| {
            Cpu::new(CpuConfig::baseline(dcache, timing).with_stall(stall))
                .run(program.compile(0xFEED).take(INSTRUCTIONS))
        };
        let fs = run(StallFeature::FullStall);
        let bnl1 = run(StallFeature::BusNotLocked1);
        let bnl3 = run(StallFeature::BusNotLocked3);

        profile_table.row([
            program.label(),
            format!("{:.2}%", 100.0 * fs.dcache.hit_ratio()),
            format!("{:.3}", fs.alpha()),
            format!("{:.2}", bnl1.phi()),
            format!("{:.2}", bnl3.phi()),
            format!("{:.3}", fs.cpi()),
        ]);

        // Feed the measured numbers into the analytic ranking.
        let machine = Machine::new(4.0, 32.0, 8.0)?;
        let base = SystemConfig::full_stalling(fs.alpha().clamp(0.0, 1.0));
        let hr = HitRatio::new(fs.dcache.hit_ratio())?;
        let candidates =
            tradeoff::ranking::paper_candidates(&base, bnl1.phi().clamp(1.0, 8.0), 2.0);
        let ranked = tradeoff::ranking::rank_features(&machine, &base, hr, &candidates)?;
        ranking_table.row([
            program.label(),
            format!("{}", ranked[0]),
            format!("{}", ranked[1]),
            format!("{}", ranked[2]),
        ]);
    }

    println!("Measured application profiles (8K 2-way, L=32, D=4, β=8):");
    println!("{}", profile_table.render());
    println!("Feature ranking per workload (hit ratio each feature is worth):");
    println!("{}", ranking_table.render());
    Ok(())
}
