//! Diagnostic: per-proxy cache behaviour at the paper's Figure 1 cache
//! (8 KB two-way, L = 32, D = 4, β = 8) and at 32 KB for the
//! size-sensitivity the Example 1 case study relies on.

use report::Table;
use simcache::CacheConfig;
use simcpu::{Cpu, CpuConfig, StallFeature};
use simmem::{BusWidth, MemoryTiming};
use simtrace::workload::{builtins, WorkloadSpec};

fn measure(workload: &WorkloadSpec, cache_bytes: u64, instructions: usize) -> simcpu::SimResult {
    let cfg = CpuConfig::baseline(
        CacheConfig::new(cache_bytes, 32, 2).expect("valid cache"),
        MemoryTiming::new(BusWidth::new(4).expect("valid bus"), 8),
    )
    .with_stall(StallFeature::FullStall);
    Cpu::new(cfg).run(workload.compile(0xDEAD_BEEF).take(instructions))
}

fn main() {
    let n: usize = std::env::args()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .unwrap_or(150_000);
    let mut t = Table::new([
        "program", "HR @8K", "HR @32K", "HR @128K", "α @8K", "mem frac",
    ]);
    for p in builtins() {
        let r8 = measure(p, 8 * 1024, n);
        let r32 = measure(p, 32 * 1024, n);
        let r128 = measure(p, 128 * 1024, n);
        t.row([
            p.label(),
            format!("{:.2}%", 100.0 * r8.dcache.hit_ratio()),
            format!("{:.2}%", 100.0 * r32.dcache.hit_ratio()),
            format!("{:.2}%", 100.0 * r128.dcache.hit_ratio()),
            format!("{:.3}", r8.alpha()),
            format!(
                "{:.3}",
                r8.dcache.accesses() as f64 / r8.instructions as f64
            ),
        ]);
    }
    println!("{}", t.render());
}
