//! EXP-X13 — associativity and replacement policy, priced in hit-ratio
//! currency.
//!
//! The paper holds the cache organisation fixed (two-way LRU) and varies
//! everything around it; this ablation turns the dial the paper left
//! alone. Doubling associativity is "worth" whatever hit ratio it buys —
//! directly comparable to the Figure 3–5 features — and the replacement
//! policy's effect shows how much of that worth is LRU-specific.

use crate::registry::{ExpReport, Experiment};
use report::Table;
use simcache::{Cache, CacheConfig, Replacement};
use simtrace::workload::{builtins, WorkloadSpec};

/// The 8 KB, 32-byte-line cache at one (associativity, policy) point.
fn config(assoc: u32, replacement: Replacement) -> CacheConfig {
    CacheConfig::new(8 * 1024, 32, assoc)
        .expect("valid cache")
        .with_replacement(replacement)
}

/// Hit ratio of one (associativity, policy) point on one workload: the
/// reference [`study`]'s one-pass replay must agree with.
pub fn hit_ratio(
    workload: &WorkloadSpec,
    assoc: u32,
    replacement: Replacement,
    instructions: usize,
) -> f64 {
    let mut cache = Cache::new(config(assoc, replacement));
    for instr in workload.compile(0xA550).take(instructions) {
        if let Some(m) = instr.mem {
            cache.access(m.op, m.addr);
        }
    }
    cache.stats().hit_ratio()
}

/// The associativities of the LRU ladder.
pub const LADDER: [u32; 4] = [1, 2, 4, 8];

/// The policies of the 2-way spread; its LRU cache is the ladder's.
pub const POLICIES: [Replacement; 4] = [
    Replacement::Lru,
    Replacement::Fifo,
    Replacement::Random,
    Replacement::TreePlru,
];

/// One workload's rows: LRU hit ratios at each [`LADDER`] width, and
/// the 2-way hit ratio under each of [`POLICIES`].
#[derive(Debug, Clone, PartialEq)]
pub struct AssocRow {
    /// Workload.
    pub workload: &'static WorkloadSpec,
    /// LRU hit ratio at 1, 2, 4 and 8 ways.
    pub ladder: Vec<f64>,
    /// 2-way hit ratio under each of [`POLICIES`], in order.
    pub spread: Vec<f64>,
}

/// Both tables for every builtin: each workload's seven distinct
/// caches (the four LRU widths, then FIFO, random and tree-PLRU at two
/// ways) replay one generator pass side by side. Each value equals
/// [`hit_ratio`] at its point.
pub fn study(instructions: usize) -> Vec<AssocRow> {
    builtins()
        .iter()
        .map(|workload| {
            let mut caches: Vec<Cache> = LADDER
                .iter()
                .map(|&a| config(a, Replacement::Lru))
                .chain(POLICIES[1..].iter().map(|&r| config(2, r)))
                .map(Cache::new)
                .collect();
            for instr in workload.compile(0xA550).take(instructions) {
                if let Some(m) = instr.mem {
                    for cache in &mut caches {
                        cache.access(m.op, m.addr);
                    }
                }
            }
            let hrs: Vec<f64> = caches.iter().map(|c| c.stats().hit_ratio()).collect();
            let (ladder, others) = hrs.split_at(LADDER.len());
            // The spread's LRU column is the ladder's 2-way cache.
            AssocRow {
                workload,
                ladder: ladder.to_vec(),
                spread: [&ladder[1..2], others].concat(),
            }
        })
        .collect()
}

/// Renders both tables.
pub fn render(rows: &[AssocRow]) -> String {
    let mut a = Table::new(["program", "1-way", "2-way", "4-way", "8-way", "ΔHR 1→2-way"]);
    for r in rows {
        let hrs = &r.ladder;
        a.row([
            r.workload.label(),
            format!("{:.2}%", 100.0 * hrs[0]),
            format!("{:.2}%", 100.0 * hrs[1]),
            format!("{:.2}%", 100.0 * hrs[2]),
            format!("{:.2}%", 100.0 * hrs[3]),
            format!("{:+.2}%", 100.0 * (hrs[1] - hrs[0])),
        ]);
    }
    let mut b = Table::new(["program", "LRU", "FIFO", "random", "tree-PLRU"]);
    for r in rows {
        let mut row = vec![r.workload.label()];
        row.extend(r.spread.iter().map(|h| format!("{:.2}%", 100.0 * h)));
        b.row(row);
    }
    format!(
        "Associativity ladder (8K, L=32, LRU):\n{}\n\
         Replacement policy at 2-way (8K, L=32):\n{}\
         The 1→2-way ΔHR column lands on the same axis as Figures 3–5: on several\n\
         workloads one extra way is worth more than the BNL feature and rivals the\n\
         write buffers.\n",
        a.render(),
        b.render()
    )
}

/// Registry entry for this experiment.
pub const EXP: Experiment = Experiment {
    id: "assoc",
    title: "Associativity & replacement",
    tags: &["extension", "measured"],
    traces: &[],
    module: module_path!(),
    cost: 23,
    run: |ctx| ExpReport::text_only(render(&study(ctx.instructions))),
};

#[cfg(test)]
mod tests {
    use super::*;
    use simtrace::workload::builtin;

    #[test]
    fn associativity_mostly_helps_modulo_lru_cyclic_thrash() {
        // LRU is not a stack algorithm across associativities: cyclic
        // sweeps slightly larger than a set's share (ear's loop nest)
        // genuinely lose hit ratio as ways grow. Allow that pathology a
        // bounded 3 % while requiring the direct-mapped → 2-way step to
        // help or be neutral everywhere.
        for r in study(30_000) {
            let (p, hrs) = (r.workload, &r.ladder);
            assert!(
                hrs[1] >= hrs[0] - 0.005,
                "{}: 2-way must not lose to 1-way: {hrs:?}",
                p.label()
            );
            for w in hrs.windows(2) {
                assert!(w[1] >= w[0] - 0.03, "{}: {hrs:?}", p.label());
            }
        }
    }

    #[test]
    fn lru_beats_random_on_reuse_heavy_code() {
        let ear = builtin("ear").unwrap();
        let lru = hit_ratio(ear, 2, Replacement::Lru, 30_000);
        let rand = hit_ratio(ear, 2, Replacement::Random, 30_000);
        assert!(lru >= rand - 0.005, "LRU {lru} vs random {rand}");
    }

    #[test]
    fn plru_tracks_lru_closely_at_two_way() {
        // Tree-PLRU with two ways *is* LRU.
        for p in ["nasa7", "doduc"] {
            let lru = hit_ratio(builtin(p).unwrap(), 2, Replacement::Lru, 20_000);
            let plru = hit_ratio(builtin(p).unwrap(), 2, Replacement::TreePlru, 20_000);
            assert!((lru - plru).abs() < 1e-12, "{p}: {lru} vs {plru}");
        }
    }

    #[test]
    fn render_contains_both_tables() {
        let text = render(&study(10_000));
        assert!(text.contains("1-way") && text.contains("tree-PLRU"));
    }

    #[test]
    fn one_pass_rows_equal_per_point_replays() {
        let n = 20_000;
        for r in study(n) {
            for (&a, &hr) in LADDER.iter().zip(&r.ladder) {
                assert_eq!(hr, hit_ratio(r.workload, a, Replacement::Lru, n), "{a}-way");
            }
            assert_eq!(r.spread.len(), POLICIES.len());
            for (&policy, &hr) in POLICIES.iter().zip(&r.spread) {
                assert_eq!(hr, hit_ratio(r.workload, 2, policy, n), "{policy:?}");
            }
        }
    }
}
