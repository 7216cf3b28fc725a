//! EXP-X11 — sector caches: large-line tag economy at small-line
//! traffic.
//!
//! Alpert & Flynn (the paper's related work) argue larger lines amortise
//! tag silicon; Smith's criterion says slow buses punish large-line
//! traffic. A sector cache takes both sides: one tag per 64-byte block,
//! 8-byte sub-block fills. This experiment measures hit ratio, memory
//! traffic and mean access time for three equal-data-capacity designs —
//! conventional small lines, conventional large lines, and the sector
//! organisation — and prices their silicon with the cost model.

use crate::registry::{ExpReport, Experiment};
use report::Table;
use simcache::{Cache, CacheConfig, SectorCache, SectorConfig};
use simtrace::workload::{builtin, WorkloadSpec};
use tradeoff::cost::CacheAreaModel;
use tradeoff::TradeoffError;

/// Measured behaviour of one organisation on one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct OrgResult {
    /// Organisation label.
    pub name: String,
    /// Hit ratio.
    pub hit_ratio: f64,
    /// Bytes fetched from memory.
    pub read_bytes: u64,
    /// Bytes written back.
    pub write_bytes: u64,
    /// Mean memory access time per reference (cycles).
    pub mean_access: f64,
    /// Total SRAM bits (data + tags + status).
    pub sram_bits: u64,
}

/// Memory technology for the mean-access-time computation: latency `c`
/// cycles plus `beta` cycles per `bus_bytes` transferred.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SectorTech {
    /// Access latency in cycles (includes the hit cycle).
    pub c: f64,
    /// Cycles per bus chunk.
    pub beta: f64,
    /// Bus width in bytes.
    pub bus_bytes: f64,
}

impl SectorTech {
    fn transfer(&self, bytes: f64) -> f64 {
        self.beta * (bytes / self.bus_bytes).max(1.0)
    }
}

fn conventional(
    name: &str,
    cache_bytes: u64,
    line_bytes: u64,
    workload: &WorkloadSpec,
    n: usize,
    tech: SectorTech,
) -> Result<OrgResult, TradeoffError> {
    let mut cache = Cache::new(CacheConfig::new(cache_bytes, line_bytes, 2).expect("valid"));
    for instr in workload.compile(0x5EC7).take(n) {
        if let Some(m) = instr.mem {
            cache.access(m.op, m.addr);
        }
    }
    let s = cache.stats();
    let accesses = s.accesses() as f64;
    let per_miss = tech.c - 1.0 + tech.transfer(line_bytes as f64);
    let flush = s.writebacks as f64 * tech.transfer(line_bytes as f64);
    let mean_access = 1.0 + (s.misses() as f64 * per_miss + flush) / accesses;
    let bits = CacheAreaModel::default().bits(cache_bytes, line_bytes, 2)?;
    Ok(OrgResult {
        name: name.to_string(),
        hit_ratio: s.hit_ratio(),
        read_bytes: s.read_bytes(line_bytes),
        write_bytes: s.flush_bytes(line_bytes),
        mean_access,
        sram_bits: bits.total(),
    })
}

fn sector(
    cache_bytes: u64,
    block: u64,
    sub: u64,
    workload: &WorkloadSpec,
    n: usize,
    tech: SectorTech,
) -> Result<OrgResult, TradeoffError> {
    let cfg = SectorConfig::new(cache_bytes, block, sub, 2).expect("valid sector");
    let mut cache = SectorCache::new(cfg);
    for instr in workload.compile(0x5EC7).take(n) {
        if let Some(m) = instr.mem {
            cache.access(m.op, m.addr);
        }
    }
    let s = cache.stats();
    let accesses = s.accesses() as f64;
    let per_miss = tech.c - 1.0 + tech.transfer(sub as f64);
    let flush = cache.sector_stats().subblock_writebacks as f64 * tech.transfer(sub as f64);
    let mean_access = 1.0 + (s.misses() as f64 * per_miss + flush) / accesses;
    // Silicon: data + one tag per block + valid/dirty bit per sub-block.
    let blocks = cache_bytes / block;
    let sets = cfg.num_sets();
    let tag_bits = 32 - block.trailing_zeros() - sets.trailing_zeros();
    let sram_bits =
        cache_bytes * 8 + blocks * u64::from(tag_bits) + blocks * 2 * u64::from(cfg.subblocks());
    Ok(OrgResult {
        name: format!("sector {block}B/{sub}B"),
        hit_ratio: s.hit_ratio(),
        read_bytes: cache.read_bytes(),
        write_bytes: cache.writeback_bytes(),
        mean_access,
        sram_bits,
    })
}

/// Runs the three organisations on one workload.
///
/// # Errors
///
/// Propagates cost-model errors.
pub fn run(workload: &WorkloadSpec, n: usize) -> Result<Vec<OrgResult>, TradeoffError> {
    let tech = SectorTech {
        c: 7.0,
        beta: 2.0,
        bus_bytes: 8.0,
    };
    Ok(vec![
        conventional("conventional 8B lines", 8 * 1024, 8, workload, n, tech)?,
        conventional("conventional 64B lines", 8 * 1024, 64, workload, n, tech)?,
        sector(8 * 1024, 64, 8, workload, n, tech)?,
    ])
}

/// Renders the comparison for a few workloads.
///
/// # Errors
///
/// Propagates cost-model errors.
pub fn report(n: usize) -> Result<String, TradeoffError> {
    let mut out = String::new();
    for program in ["nasa7", "doduc"] {
        let rows = run(builtin(program).expect("a builtin proxy"), n)?;
        let mut t = Table::new([
            "organisation",
            "HR",
            "read traffic",
            "mean access",
            "SRAM Kbit",
        ]);
        for r in &rows {
            t.row([
                r.name.clone(),
                format!("{:.2}%", 100.0 * r.hit_ratio),
                format!("{} KB", r.read_bytes / 1024),
                format!("{:.3}", r.mean_access),
                format!("{:.1}", r.sram_bits as f64 / 1024.0),
            ]);
        }
        out.push_str(&format!(
            "{program} (8K data, c=7, β=2/8B bus):\n{}\n",
            t.render()
        ));
    }
    out.push_str(
        "The sector organisation keeps the 64B design's tag budget while fetching 8B\n\
         sub-blocks: tag silicon of the large line, traffic near the small line.\n",
    );
    Ok(out)
}

/// Registry entry for this experiment.
pub const EXP: Experiment = Experiment {
    id: "sector",
    title: "Sector caches",
    tags: &["extension", "measured"],
    traces: &[],
    module: module_path!(),
    run: |ctx| ExpReport::text_only(report(ctx.instructions).expect("canonical parameters valid")),
};

#[cfg(test)]
mod tests {
    use super::*;

    fn by<'a>(rows: &'a [OrgResult], prefix: &str) -> &'a OrgResult {
        rows.iter().find(|r| r.name.starts_with(prefix)).unwrap()
    }

    #[test]
    fn sector_has_large_line_tag_budget() {
        let rows = run(builtin("nasa7").unwrap(), 20_000).unwrap();
        let small = by(&rows, "conventional 8B");
        let large = by(&rows, "conventional 64B");
        let sect = by(&rows, "sector");
        // Tag budgets: small lines burn far more SRAM than 64B tags;
        // the sector sits near the 64B design.
        assert!(small.sram_bits > large.sram_bits);
        assert!(sect.sram_bits < small.sram_bits);
        let large_overhead = large.sram_bits - 8 * 1024 * 8;
        let sect_overhead = sect.sram_bits - 8 * 1024 * 8;
        assert!(
            (sect_overhead as f64) < 2.5 * large_overhead as f64,
            "sector overhead {sect_overhead} vs 64B overhead {large_overhead}"
        );
    }

    #[test]
    fn sector_traffic_well_below_large_lines_on_irregular_code() {
        let rows = run(builtin("doduc").unwrap(), 30_000).unwrap();
        let large = by(&rows, "conventional 64B");
        let sect = by(&rows, "sector");
        assert!(
            (sect.read_bytes as f64) < 0.6 * large.read_bytes as f64,
            "sector {} vs 64B {}",
            sect.read_bytes,
            large.read_bytes
        );
    }

    #[test]
    fn mean_access_times_are_sane() {
        for program in ["nasa7", "ear"] {
            for r in run(builtin(program).unwrap(), 20_000).unwrap() {
                assert!(r.mean_access >= 1.0, "{}: {}", r.name, r.mean_access);
                assert!(r.mean_access < 20.0, "{}: {}", r.name, r.mean_access);
            }
        }
    }

    #[test]
    fn report_renders_both_programs() {
        let text = report(10_000).unwrap();
        assert!(text.contains("nasa7") && text.contains("doduc"));
        assert!(text.contains("sector 64B/8B"));
    }
}
