//! EXP-X17 — reuse-distance fingerprints of the proxy workloads.
//!
//! The hit-ratio-versus-size curves every tradeoff in the paper leans on
//! are one integral away from the reuse-distance distribution (Mattson).
//! This experiment prints each proxy's distance profile, the
//! fully-associative capacity needed for 90 % / 95 % hit ratios, and the
//! Mattson-predicted hit ratio at the paper's 8 KB operating point.

use crate::fault;
use crate::registry::{ExpReport, Experiment};
use report::{chart::sparkline, Table};
use simtrace::reuse::ReuseProfile;
use simtrace::workload::{builtins, WorkloadSpec};

/// Distances are bucketed logarithmically for display.
fn log_buckets(hist: &[u64]) -> Vec<u64> {
    let mut out = vec![0u64; 12];
    for (d, &count) in hist.iter().enumerate() {
        let bucket = (usize::BITS - d.max(1).leading_zeros()) as usize;
        out[bucket.min(11)] += count;
    }
    out
}

/// One proxy's fingerprint.
#[derive(Debug, Clone, PartialEq)]
pub struct ReuseRow {
    /// Workload.
    pub workload: &'static WorkloadSpec,
    /// The profile (line granularity 32 B, distances capped at 4096).
    pub profile: ReuseProfile,
}

/// Profiles every proxy.
pub fn run(instructions: usize) -> Vec<ReuseRow> {
    builtins()
        .iter()
        .map(|workload| {
            fault::check_deadline();
            ReuseRow {
                workload,
                profile: ReuseProfile::from_trace(
                    workload.compile(0x2E05E).take(instructions),
                    32,
                    4096,
                ),
            }
        })
        .collect()
}

/// Renders the fingerprint table.
pub fn render(rows: &[ReuseRow]) -> String {
    let mut t = Table::new([
        "program",
        "distance profile (log₂ buckets)",
        "lines for 90%",
        "lines for 95%",
        "Mattson HR @256 lines",
    ]);
    for r in rows {
        let fmt_cap = |target: f64| {
            r.profile
                .capacity_for(target)
                .map_or("—".to_string(), |k| k.to_string())
        };
        t.row([
            r.workload.label(),
            format!("[{}]", sparkline(&log_buckets(r.profile.histogram()))),
            fmt_cap(0.90),
            fmt_cap(0.95),
            format!("{:.2}%", 100.0 * r.profile.lru_hit_ratio(256)),
        ]);
    }
    format!(
        "Reuse-distance fingerprints (32 B lines; 256 lines = the paper's 8 KB):\n{}\
         The 90%→95% capacity jump is the cache-size currency of Example 1, read\n\
         straight off the reuse distribution.\n",
        t.render()
    )
}

/// Registry entry for this experiment.
pub const EXP: Experiment = Experiment {
    id: "reuse",
    title: "Reuse-distance fingerprints",
    tags: &["extension", "measured"],
    traces: &[],
    module: module_path!(),
    cost: 12,
    run: |ctx| ExpReport::text_only(render(&run(ctx.instructions))),
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiles_cover_all_references() {
        for r in run(10_000) {
            let total = r.profile.cold() + r.profile.histogram().iter().sum::<u64>();
            assert_eq!(total, r.profile.total(), "{}", r.workload.label());
        }
    }

    #[test]
    fn reuse_heavy_ear_needs_fewer_lines_than_streaming_swm() {
        let rows = run(20_000);
        let cap = |p: &str| {
            rows.iter()
                .find(|r| r.workload.label() == p)
                .unwrap()
                .profile
                .capacity_for(0.90)
                .unwrap_or(usize::MAX)
        };
        assert!(cap("ear") < cap("swm256"));
    }

    #[test]
    fn mattson_at_256_lines_tracks_measured_8k_hit_ratios() {
        // The FA Mattson number tracks the 2-way measured hit ratio at
        // the same capacity. It is NOT a strict upper bound across
        // mappings: on cyclic sweeps (ear) full associativity lets LRU
        // thrash the whole loop while set partitioning protects part of
        // it, so the 2-way cache can legitimately edge past the FA
        // number by a little.
        use simcache::{Cache, CacheConfig};
        for r in run(15_000) {
            let mut cache = Cache::new(CacheConfig::new(8 * 1024, 32, 2).unwrap());
            for i in r.workload.compile(0x2E05E).take(15_000) {
                if let Some(m) = i.mem {
                    cache.access(m.op, m.addr);
                }
            }
            let measured = cache.stats().hit_ratio();
            let mattson = r.profile.lru_hit_ratio(256);
            assert!(
                (measured - mattson).abs() < 0.12,
                "{}: Mattson {mattson} far from measured {measured}",
                r.workload.label()
            );
        }
    }

    #[test]
    fn render_shows_capacities() {
        let text = render(&run(8_000));
        assert!(text.contains("lines for 95%"));
    }
}
