//! Trace recording and replay: one reference stream, many machines.
//!
//! The paper's methodology compares *configurations on identical
//! applications*; this example shows the supporting workflow — record a
//! workload once into the compact `.utt` format, then replay the exact
//! same stream through several hardware configurations, including a
//! round-trip through the Dinero `.din` interchange format for use with
//! external tools.
//!
//! Run with `cargo run --release --example trace_replay`.

use simtrace::din::{write_din, DinReader};
use simtrace::encode::TraceBuffer;
use std::io::BufReader;
use unified_tradeoff::prelude::*;

const INSTRUCTIONS: usize = 60_000;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Record the workload once.
    let dir = std::env::temp_dir().join("unified-tradeoff-replay");
    let path = dir.join("wave5.utt");
    let buf = TraceBuffer::encode(builtin("wave5").unwrap().compile(0x7EA5).take(INSTRUCTIONS));
    buf.save(&path)?;
    println!(
        "recorded {} instructions into {} ({} bytes, {:.2} B/instr)\n",
        buf.len(),
        path.display(),
        buf.byte_len(),
        buf.byte_len() as f64 / buf.len() as f64
    );

    // 2. Replay the identical stream through four configurations.
    let loaded = TraceBuffer::load(&path)?;
    let trace: Vec<Instr> = loaded.iter().collect::<Result<_, _>>()?;
    let mut table = Table::new(["configuration", "cycles", "CPI", "HR", "φ"]);
    let configs: [(&str, StallFeature, u64); 4] = [
        ("full stalling, 32-bit bus", StallFeature::FullStall, 4),
        ("full stalling, 64-bit bus", StallFeature::FullStall, 8),
        ("bus-locked, 32-bit bus", StallFeature::BusLocked, 4),
        ("BNL3, 32-bit bus", StallFeature::BusNotLocked3, 4),
    ];
    for (name, stall, bus) in configs {
        let cfg = CpuConfig::baseline(
            CacheConfig::new(8 * 1024, 32, 2)?,
            MemoryTiming::new(BusWidth::new(bus).map_err(|e| e.to_string())?, 8),
        )
        .with_stall(stall);
        let r = Cpu::new(cfg).run(trace.iter().copied());
        table.row([
            name.to_string(),
            r.cycles.to_string(),
            format!("{:.3}", r.cpi()),
            format!("{:.2}%", 100.0 * r.dcache.hit_ratio()),
            format!("{:.2}", r.phi()),
        ]);
    }
    println!("identical stream, four machines:");
    println!("{}", table.render());

    // 3. Interchange: export to .din (Dinero's format) and re-import.
    let din_path = dir.join("wave5.din");
    write_din(std::fs::File::create(&din_path)?, trace.iter().copied())?;
    let reimported: Vec<Instr> = DinReader::new(BufReader::new(std::fs::File::open(&din_path)?))
        .collect::<Result<_, _>>()?;
    let refs_out = trace.iter().filter(|i| i.mem.is_some()).count();
    let refs_in = reimported.iter().filter(|i| i.mem.is_some()).count();
    println!(
        "din round trip via {}: {refs_out} data references exported, {refs_in} re-imported.",
        din_path.display()
    );
    assert_eq!(refs_out, refs_in);

    std::fs::remove_dir_all(&dir)?;
    Ok(())
}
