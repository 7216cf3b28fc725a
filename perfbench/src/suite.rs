//! `suite`: one full registry run per sample, as the paper-reproduction
//! user runs it (`run_all`, two jobs, default 120 k instructions, a
//! fresh process so every memo starts cold).

use crate::layers::{api_ledger, probe_rates, Mode};
use crate::parse::{self, Footer};
use crate::stats::{median, percentile, relative_spread, residual};
use crate::{binary, metric, proc, Ctx, Outcome};
use bench::registry::RunCtx;
use bench::sched::{drive, SuiteOptions};
use bench::tracestore::{self, SPEC_SEED};
use simtrace::workload::builtins;
use std::path::Path;
use std::time::{Duration, Instant};
use tradeoff::api::DenseGrid;

/// Cross-experiment parallelism: the host's two CPUs.
const JOBS: usize = 2;

/// Trace-store totals of a clean suite run at the default length
/// (trace, timeline, histogram hits and misses). The scheduler's
/// warm-key discipline makes them exact under any job count.
const STORE_TOTALS: [u64; 6] = [12, 9, 240, 12, 6, 6];

/// Spawns of the registry listing whose median is `setup_s`.
const SETUP_SPAWNS: usize = 15;

/// Stops a run that the time budget alone would let grow without end.
const MAX_SUITES: u64 = 60;

/// Process start plus registry construction: `exp list`, the suite
/// runner's cheapest complete invocation.
fn setup_s(ctx: &Ctx) -> Result<f64, String> {
    let mut samples = Vec::new();
    for i in 0..SETUP_SPAWNS {
        let mut cmd = binary(ctx, "exp");
        cmd.arg("list");
        let (exit, wall, _) = proc::run_captured(cmd, &ctx.tmp, &format!("list{i}"))?;
        if exit.code != Some(0) {
            return Err(format!("exp list exited with {:?}", exit.code));
        }
        samples.push(wall.as_secs_f64());
    }
    Ok(median(&samples).expect("setup samples"))
}

/// Why a suite run's answer is wrong, if it is.
fn check(ctx: &Ctx, results: &Path, footer: &Footer) -> Option<String> {
    let committed = std::fs::read(ctx.root.join("results/manifest.json")).ok()?;
    if std::fs::read(results.join("manifest.json")).ok().as_ref() != Some(&committed) {
        return Some("manifest.json differs from results/manifest.json".to_string());
    }
    if footer.store != STORE_TOTALS || footer.coalesced_waits != 0 {
        return Some(format!(
            "store totals {:?} with {} coalesced waits, want {STORE_TOTALS:?} and 0",
            footer.store, footer.coalesced_waits
        ));
    }
    if let Some(bad) = footer.experiments.iter().find(|e| e.status != "ok") {
        return Some(format!("experiment {} is {}", bad.id, bad.status));
    }
    None
}

/// One `run_all` process: (its exit record, wall s, footer), or why its
/// answer is wrong.
fn one_suite(ctx: &Ctx, i: u64) -> Result<Result<(proc::Exit, f64, Footer), String>, String> {
    let results = ctx.tmp.join(format!("results{i}"));
    std::fs::create_dir_all(&results).map_err(|e| e.to_string())?;
    let mut cmd = binary(ctx, "run_all");
    cmd.env("REPRO_JOBS", JOBS.to_string())
        .env("REPRO_RESULTS_DIR", &results);
    let (exit, wall, err) = proc::run_captured(cmd, &ctx.tmp, &format!("suite{i}"))?;
    let text = std::fs::read_to_string(err).map_err(|e| e.to_string())?;
    let verdict = match (exit.code, parse::footer(&text)) {
        (Some(0), Ok(footer)) => match check(ctx, &results, &footer) {
            None => Ok((exit, wall.as_secs_f64(), footer)),
            Some(why) => Err(why),
        },
        (code, footer) => Err(format!("run_all exited with {code:?} ({:?})", footer.err())),
    };
    let _ = std::fs::remove_dir_all(&results);
    Ok(verdict)
}

/// `run_all` processes back to back until the budget is spent.
struct Suites {
    walls: Vec<f64>,
    /// CPU seconds (user + system) of each `run_all` process.
    cpu_s: Vec<f64>,
    /// Every experiment's wall time in ms, from the footers.
    exp_ms: Vec<f64>,
    rss_mb: Vec<f64>,
    /// Experiments per suite.
    experiments: u64,
    attempted: u64,
    failed: u64,
}

impl Suites {
    fn run(ctx: &Ctx, budget: Duration) -> Result<Suites, String> {
        let mut s = Suites {
            walls: Vec::new(),
            cpu_s: Vec::new(),
            exp_ms: Vec::new(),
            rss_mb: Vec::new(),
            experiments: 0,
            attempted: 0,
            failed: 0,
        };
        let start = Instant::now();
        while s.attempted == 0 || (start.elapsed() < budget && s.attempted < MAX_SUITES) {
            s.attempted += 1;
            match one_suite(ctx, s.attempted)? {
                Ok((exit, wall, footer)) => {
                    s.walls.push(wall);
                    s.cpu_s.push(exit.cpu_s);
                    s.rss_mb.push(exit.rss_mb);
                    s.experiments = footer.experiments.len() as u64;
                    s.exp_ms
                        .extend(footer.experiments.iter().map(|e| e.wall_s * 1e3));
                }
                Err(why) => {
                    eprintln!("perfbench: suite {}: {why}", s.attempted);
                    s.failed += 1;
                }
            }
        }
        Ok(s)
    }

    fn wall(&self) -> f64 {
        median(&self.walls).unwrap_or(f64::NAN)
    }
}

/// The untraced run. A suite is the request: its latency is the
/// `run_all` wall time, and `qps` counts experiments per second.
pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let setup = setup_s(ctx)?;
    let s = Suites::run(ctx, ctx.seconds)?;
    let wall = s.wall();
    // The tail a suite user waits on is its slowest experiments: the
    // 99th percentile of every experiment's wall time across the run.
    let p99_ms = percentile(&s.exp_ms, 99.0).unwrap_or(f64::NAN);
    Ok(Outcome {
        correct: s.failed == 0,
        attempted: s.attempted * s.experiments.max(1),
        failed: s.failed * s.experiments.max(1),
        samples: s.walls.len() as u64,
        metrics: vec![
            metric("setup_s", setup, "s"),
            metric("wall_s", wall, "s"),
            metric("qps", s.experiments as f64 / wall, "1/s"),
            metric("latency_p50_ms", wall * 1e3, "ms"),
            metric("latency_p99_ms", p99_ms, "ms"),
            metric("rss_peak_mb", median(&s.rss_mb).unwrap_or(f64::NAN), "MB"),
        ],
        ledger: vec![
            metric(
                "spread.wall_s",
                relative_spread(&s.walls).unwrap_or(f64::NAN),
                "ratio",
            ),
            metric("run_all.cpu_s", median(&s.cpu_s).unwrap_or(f64::NAN), "s"),
            metric(
                "experiments.latency_p50_ms",
                median(&s.exp_ms).unwrap_or(f64::NAN),
                "ms",
            ),
        ],
    })
}

/// The traced run: the same suite in-process through `sched`, whose
/// outcomes are the experiment spans; `report` is the manifest write;
/// then the API over the suite's memo and the layer probes over the
/// suite's inputs.
pub fn traced(ctx: &Ctx) -> Result<Outcome, String> {
    let untraced = Suites::run(ctx, ctx.seconds / 2)?;
    let results = ctx.tmp.join("results-traced");
    std::fs::create_dir_all(&results).map_err(|e| e.to_string())?;
    let opts = SuiteOptions::new(JOBS, RunCtx::standard());
    let start = Instant::now();
    let outcome = drive("all", &opts, &results).map_err(|e| e.to_string())?;
    let total = start.elapsed().as_secs_f64();
    let run = &outcome.run;
    let report_s = total - run.wall.as_secs_f64();
    let st = tracestore::stats();
    let counts = run.store;
    let footer = Footer {
        experiments: run
            .outcomes
            .iter()
            .map(|o| parse::ExpRow {
                id: o.id.to_string(),
                status: o.status(),
                wall_s: o.wall.as_secs_f64(),
            })
            .collect(),
        store: [
            counts.trace_hits,
            counts.trace_misses,
            counts.timeline_hits,
            counts.timeline_misses,
            counts.hist_hits,
            counts.hist_misses,
        ],
        coalesced_waits: st.coalesced_waits,
        evictions: st.trace_evictions + st.hist_evictions,
    };
    let wrong = check(ctx, &results, &footer);
    if let Some(why) = &wrong {
        eprintln!("perfbench: traced suite: {why}");
    }
    let exp_total: f64 = footer.experiments.iter().map(|e| e.wall_s).sum();

    // The suite's questions asked through the API against its warm memo:
    // the registry listing, and the grid experiment's analytic grid and a
    // φ point per built-in at the suite's length.
    let mut requests = vec![r#"{"query":"experiments"}"#.to_string()];
    for spec in builtins() {
        let name = spec.label();
        requests.push(format!(r#"{{"query":"grid","programs":["{name}"]}}"#));
        requests.push(format!(
            r#"{{"query":"simulate","program":"{name}","instructions":120000}}"#
        ));
    }
    let api = api_ledger(&requests, Mode::Store, 5)?;

    let inputs: Vec<_> = builtins()
        .iter()
        .map(|s| (s.clone(), SPEC_SEED, 120_000))
        .collect();
    let rates = probe_rates(&inputs, &DenseGrid::standard());

    let mut ledger = vec![
        metric("traced.wall_s", total, "s"),
        metric(
            "bench.sched.parallel_efficiency",
            exp_total / (run.wall.as_secs_f64() * JOBS as f64),
            "ratio",
        ),
        metric("report.manifest_s", report_s, "s"),
    ];
    let mut slowest = footer.experiments.clone();
    slowest.sort_by(|a, b| b.wall_s.total_cmp(&a.wall_s));
    for e in slowest.iter().take(5) {
        ledger.push(metric(format!("bench.sched.exp.{}_s", e.id), e.wall_s, "s"));
    }
    ledger.extend(api.by_kind);

    let overhead = total - untraced.wall();
    let attempted = 1 + untraced.attempted;
    let failed = u64::from(wrong.is_some()) + untraced.failed;
    let mut metrics = crate::layer_metrics(&rates, &footer_counts(&footer), &api.summary);
    metrics.extend([
        metric(
            "residual_s",
            residual(total, &[exp_total / JOBS as f64, report_s]),
            "s",
        ),
        metric("tracing_overhead.wall_s", overhead, "s"),
        metric("tracing_overhead.latency_p50_ms", overhead * 1e3, "ms"),
        metric("error_rate", failed as f64 / attempted as f64, "ratio"),
    ]);
    Ok(Outcome {
        correct: failed == 0,
        attempted,
        failed,
        samples: footer.experiments.len() as u64,
        metrics,
        ledger,
    })
}

fn footer_counts(f: &Footer) -> parse::ServerCounts {
    parse::ServerCounts {
        trace_hits: f.store[0],
        trace_misses: f.store[1],
        timeline_hits: f.store[2],
        timeline_misses: f.store[3],
        hist_hits: f.store[4],
        hist_misses: f.store[5],
        coalesced_waits: f.coalesced_waits,
        evictions: f.evictions,
        ..parse::ServerCounts::default()
    }
}
