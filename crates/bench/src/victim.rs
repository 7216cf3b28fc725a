//! EXP-X12 — victim caches: hit ratio bought with four lines of
//! fully-associative silicon (Jouppi, the paper's reference 7).
//!
//! The methodology's currency makes the comparison direct: the victim
//! buffer's effective-hit-ratio gain over a direct-mapped cache lands on
//! the same axis as the Figure 3–5 feature curves and as doubling the
//! associativity.

use crate::registry::{ExpReport, Experiment};
use report::Table;
use simcache::{Cache, CacheConfig, VictimCache};
use simtrace::workload::{builtins, WorkloadSpec};

/// One workload's comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct VictimRow {
    /// Workload.
    pub workload: &'static WorkloadSpec,
    /// Hit ratio of the plain direct-mapped cache.
    pub dm_hr: f64,
    /// Effective hit ratio with a 4-line victim buffer.
    pub victim_hr: f64,
    /// Hit ratio of a 2-way cache of the same capacity.
    pub two_way_hr: f64,
    /// Fraction of direct-mapped misses the buffer recovered.
    pub recovery: f64,
}

/// Runs the comparison at one cache size.
pub fn run(cache_bytes: u64, victim_lines: usize, instructions: usize) -> Vec<VictimRow> {
    builtins()
        .iter()
        .map(|workload| {
            let dm_cfg = CacheConfig::new(cache_bytes, 32, 1).expect("valid");
            let mut dm = Cache::new(dm_cfg);
            let mut vc = VictimCache::new(dm_cfg, victim_lines);
            let mut two_way = Cache::new(CacheConfig::new(cache_bytes, 32, 2).expect("valid"));
            for instr in workload.compile(0x71C7).take(instructions) {
                if let Some(m) = instr.mem {
                    dm.access(m.op, m.addr);
                    vc.access(m.op, m.addr);
                    two_way.access(m.op, m.addr);
                }
            }
            VictimRow {
                workload,
                dm_hr: dm.stats().hit_ratio(),
                victim_hr: vc.effective_hit_ratio(),
                two_way_hr: two_way.stats().hit_ratio(),
                recovery: vc.victim_stats().recovery_ratio(),
            }
        })
        .collect()
}

/// Renders the table.
pub fn render(rows: &[VictimRow]) -> String {
    let mut t = Table::new([
        "program",
        "direct-mapped",
        "+4-line victim",
        "2-way",
        "misses recovered",
    ]);
    for r in rows {
        t.row([
            r.workload.label(),
            format!("{:.2}%", 100.0 * r.dm_hr),
            format!("{:.2}%", 100.0 * r.victim_hr),
            format!("{:.2}%", 100.0 * r.two_way_hr),
            format!("{:.1}%", 100.0 * r.recovery),
        ]);
    }
    format!(
        "Victim buffer as hit-ratio currency (8K, L=32):\n{}\
         Four fully-associative lines recover a slice of the conflict misses —\n\
         worth comparing directly against the Figure 3–5 feature curves.\n",
        t.render()
    )
}

/// Registry entry for this experiment.
pub const EXP: Experiment = Experiment {
    id: "victim",
    title: "Victim buffers",
    tags: &["extension", "measured"],
    traces: &[],
    module: module_path!(),
    cost: 15,
    run: |ctx| ExpReport::text_only(render(&run(8 * 1024, 4, ctx.instructions))),
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn victim_buffer_never_hurts_and_sometimes_helps() {
        let rows = run(8 * 1024, 4, 40_000);
        let mut helped = 0;
        for r in &rows {
            assert!(r.victim_hr >= r.dm_hr - 1e-12, "{:?}", r);
            if r.victim_hr > r.dm_hr + 1e-4 {
                helped += 1;
            }
        }
        assert!(
            helped >= 3,
            "the buffer should help several workloads: {rows:?}"
        );
    }

    #[test]
    fn two_way_upper_bounds_most_of_the_gain() {
        // Jouppi's observation: a small victim buffer approaches (but
        // does not generally exceed) doubling the associativity.
        let rows = run(8 * 1024, 4, 40_000);
        let exceeded = rows
            .iter()
            .filter(|r| r.victim_hr > r.two_way_hr + 0.01)
            .count();
        assert!(exceeded <= 1, "victim ≫ 2-way should be rare: {rows:?}");
    }

    #[test]
    fn recovery_is_a_fraction() {
        for r in run(8 * 1024, 4, 20_000) {
            assert!((0.0..=1.0).contains(&r.recovery), "{r:?}");
        }
    }

    #[test]
    fn render_lists_all_programs() {
        let text = render(&run(8 * 1024, 4, 10_000));
        for p in builtins() {
            assert!(text.contains(&p.label()));
        }
    }
}
