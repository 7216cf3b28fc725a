//! The benchmark's inputs, generated from its `--seed`.
//!
//! The seed chooses values (β, hit ratios, targets, workload seeds and
//! each inline spec's `seed_mix`) but never the shape of the work: the
//! same query kinds, workloads and instruction counts run at every seed,
//! so runs at different seeds cost the same and their figures can be
//! compared, while a held-out seed still asks questions no earlier run
//! asked (new spec identities, so cold store keys).

use report::Json;
use simtrace::workload::WorkloadSpec;
use std::path::Path;

/// The seed the pinned reply digests were taken at.
pub const DEFAULT_SEED: u64 = 0;

/// The six built-in SPEC92 proxies, in registry order.
pub const BUILTINS: [&str; 6] = ["nasa7", "doduc", "ear", "hydro2d", "swm256", "wave5"];

/// Every stalling feature the `simulate` query accepts.
pub const STALLS: [&str; 6] = ["fs", "bl", "bnl1", "bnl2", "bnl3", "nb"];

/// Instructions per `simulate` in the hot mix: long enough that a cold
/// extraction is clearly visible in `setup_s`, short enough that the
/// warm-up stays around a second.
pub const HOT_INSTRUCTIONS: u64 = 200_000;

/// SplitMix64: a tiny, well-mixed deterministic generator.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }

    /// Uniform in `[lo, hi)`, rounded to three decimals so request
    /// bodies stay short and readable.
    pub fn frac(&mut self, lo: f64, hi: f64) -> f64 {
        let u = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        ((lo + (hi - lo) * u) * 1000.0).round() / 1000.0
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

/// A wire request: the `"query"` discriminator, then `pairs`.
fn q(kind: &str, pairs: Vec<(&str, Json)>) -> String {
    let mut all = vec![("query", Json::str(kind))];
    all.extend(pairs);
    Json::obj(all).render()
}

fn num(x: impl Into<f64>) -> Json {
    Json::num(x)
}

/// The `serve_hot` query mix: every built-in under every stalling
/// feature at three β values (one memoised timeline per built-in), the
/// closed-form kinds, and small analytic grids. Shuffled so the two
/// clients see every kind interleaved.
pub fn hot_mix(seed: u64) -> Vec<String> {
    let mut rng = Rng::new(seed ^ 0x5E7E_0407);
    let sim_seed = rng.range(1, 1 << 20);
    let mut betas = Vec::new();
    while betas.len() < 3 {
        let b = rng.range(4, 32);
        if !betas.contains(&b) {
            betas.push(b);
        }
    }
    let mut mix = Vec::new();
    for program in BUILTINS {
        for stall in STALLS {
            for &beta in &betas {
                mix.push(q(
                    "simulate",
                    vec![
                        ("program", Json::str(program)),
                        ("instructions", num(HOT_INSTRUCTIONS as f64)),
                        ("stall", Json::str(stall)),
                        ("beta", num(beta as f64)),
                        ("seed", num(sim_seed as f64)),
                    ],
                ));
            }
        }
    }
    for &beta in &betas {
        mix.push(q(
            "price",
            vec![
                ("hr", num(rng.frac(0.85, 0.99))),
                ("beta", num(beta as f64)),
                ("alpha", num(rng.frac(0.2, 0.8))),
            ],
        ));
    }
    for chunks in [4.0, 8.0] {
        mix.push(q(
            "crossover",
            vec![
                ("chunks", num(chunks)),
                ("q", num(rng.range(2, 4) as f64)),
                ("alpha", num(rng.frac(0.2, 0.8))),
            ],
        ));
    }
    for _ in 0..2 {
        let curve = [8.0, 16.0, 32.0, 64.0, 128.0]
            .iter()
            .enumerate()
            .map(|(i, &line)| {
                let hr = 0.80 + 0.03 * i as f64 + rng.frac(0.0, 0.02);
                Json::Arr(vec![num(line), num(hr)])
            })
            .collect();
        mix.push(q(
            "linesize",
            vec![
                ("c", num(rng.frac(2.0, 8.0))),
                ("beta", num(rng.frac(0.5, 2.0))),
                ("curve", Json::Arr(curve)),
            ],
        ));
    }
    for _ in 0..2 {
        mix.push(q(
            "design",
            vec![
                ("hr", num(rng.frac(0.9, 0.99))),
                ("target", num(rng.frac(1.5, 3.0))),
            ],
        ));
    }
    for program in ["doduc", "ear", "wave5"] {
        mix.push(q(
            "grid",
            vec![
                ("backend", Json::str("analytic")),
                ("instructions", num(HOT_INSTRUCTIONS as f64)),
                ("target", num(rng.frac(0.8, 0.95))),
                ("sets", num(64)),
                ("assoc", num(8)),
                ("programs", Json::Arr(vec![Json::str(program)])),
            ],
        ));
    }
    rng.shuffle(&mut mix);
    mix
}

/// One cold query of the `plan_cold` plan.
#[derive(Debug, Clone, Copy)]
pub enum Cold {
    /// Analytic dense grid: reuse-histogram fold + closed-form walk.
    Analytic { sets: u64, assoc: u32 },
    /// Simulated comparison grid: stack-distance sweeps.
    Sim,
    /// φ point: timeline extraction + replay.
    Simulate { stall: &'static str },
}

/// The plan: (query, spec file under `workloads/`, instructions), from
/// builtin-shaped footprints at 1 M instructions to the multi-programmed
/// and phased specs at 4 M and 10 M. Nine queries whose cold latencies
/// fall into well-separated bands, so the median query of a run (the
/// `nasa7` simulated grid) is the same query at every seed and
/// `latency_p50_ms` does not hop between bands.
pub const PLAN: [(Cold, &str, u64); 9] = [
    (
        Cold::Analytic {
            sets: 512,
            assoc: 16,
        },
        "ear",
        1_000_000,
    ),
    (Cold::Sim, "doduc", 1_000_000),
    (Cold::Simulate { stall: "bl" }, "doduc", 1_000_000),
    (Cold::Simulate { stall: "bnl2" }, "hydro2d", 2_000_000),
    (
        Cold::Analytic {
            sets: 1024,
            assoc: 16,
        },
        "multiprog-interleave",
        4_000_000,
    ),
    (Cold::Simulate { stall: "nb" }, "swm256", 10_000_000),
    (Cold::Sim, "nasa7", 2_000_000),
    (
        Cold::Analytic {
            sets: 2084,
            assoc: 16,
        },
        "phase-chase",
        10_000_000,
    ),
    (Cold::Simulate { stall: "fs" }, "wave5", 10_000_000),
];

/// Reads the plan's specs from `workloads/`.
pub fn plan_specs(root: &Path) -> Result<Vec<WorkloadSpec>, String> {
    PLAN.iter()
        .map(|(_, file, _)| {
            let path = root.join("workloads").join(format!("{file}.json"));
            let text =
                std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
            WorkloadSpec::from_json_str(&text).map_err(|e| format!("{}: {e}", path.display()))
        })
        .collect()
}

/// The plan at `seed`: every spec gets a `seed_mix` drawn from the
/// seed, so a held-out seed asks about workloads no earlier run saw.
/// Returns the specs as sent and the request bodies.
pub fn cold_plan(specs: &[WorkloadSpec], seed: u64) -> (Vec<WorkloadSpec>, Vec<String>) {
    let mut rng = Rng::new(seed ^ 0xC01D_0000);
    let mut sent = Vec::new();
    let mut bodies = Vec::new();
    for ((cold, _, instructions), spec) in PLAN.iter().zip(specs) {
        let mut spec = spec.clone();
        spec.seed_mix = rng.next_u64();
        let workload = spec.to_json();
        let body = match *cold {
            Cold::Analytic { sets, assoc } => q(
                "grid",
                vec![
                    ("backend", Json::str("analytic")),
                    ("instructions", num(*instructions as f64)),
                    ("target", num(rng.frac(0.85, 0.95))),
                    ("sets", num(sets as f64)),
                    ("assoc", num(assoc)),
                    ("programs", Json::Arr(Vec::new())),
                    ("workloads", Json::Arr(vec![workload])),
                ],
            ),
            Cold::Sim => q(
                "grid",
                vec![
                    ("backend", Json::str("sim")),
                    ("instructions", num(*instructions as f64)),
                    ("programs", Json::Arr(Vec::new())),
                    ("workloads", Json::Arr(vec![workload])),
                ],
            ),
            Cold::Simulate { stall } => q(
                "simulate",
                vec![
                    ("workload", workload),
                    ("instructions", num(*instructions as f64)),
                    ("stall", Json::str(stall)),
                    ("beta", num(rng.range(4, 32) as f64)),
                    ("seed", num(rng.range(1, 1 << 20) as f64)),
                ],
            ),
        };
        sent.push(spec);
        bodies.push(body);
    }
    (sent, bodies)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tradeoff::api::QueryRequest;

    #[test]
    fn every_hot_request_parses_and_the_mix_is_seed_shaped() {
        for seed in [DEFAULT_SEED, 1, 99] {
            let mix = hot_mix(seed);
            assert_eq!(mix.len(), 6 * 6 * 3 + 3 + 2 + 2 + 2 + 3);
            for body in &mix {
                QueryRequest::from_json_str(body).unwrap_or_else(|e| panic!("{body}: {e:?}"));
            }
        }
        assert_eq!(hot_mix(5), hot_mix(5));
        assert_ne!(hot_mix(5), hot_mix(6));
    }

    #[test]
    fn cold_plans_parse_and_never_repeat_a_spec() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
        let specs = plan_specs(&root).unwrap();
        let (a, bodies) = cold_plan(&specs, 3);
        let (b, _) = cold_plan(&specs, 4);
        let (c, _) = cold_plan(&specs, 5);
        for body in &bodies {
            QueryRequest::from_json_str(body).unwrap_or_else(|e| panic!("{body}: {e:?}"));
        }
        let mut ids: Vec<_> = a.iter().chain(&b).chain(&c).map(WorkloadSpec::id).collect();
        let n = ids.len();
        ids.sort_by_key(|id| id.hex());
        ids.dedup();
        assert_eq!(ids.len(), n, "every query and seed gets a fresh identity");
        assert_eq!(cold_plan(&specs, 3).1, bodies);
    }
}
