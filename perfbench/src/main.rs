//! The repository benchmark: drives the release binaries as users run
//! them, checks every answer it times, and with `--trace 1` attributes
//! the time to layers by calling each layer from its own code.
//!
//! ```text
//! perfbench --workload suite|serve_hot|plan_cold --seed N --seconds S --trace 0|1
//! ```
//!
//! Run it through `perfbench/run.sh` from the repository root, which
//! builds the binaries first. The last line of stdout is the result
//! record; the line before it is the full ledger with its stamp.

mod http;
mod layers;
mod mix;
mod parse;
mod plan;
mod proc;
mod serve;
mod stats;
mod suite;

use report::Json;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Duration;

/// What one run knows about its environment and inputs.
pub struct Ctx {
    /// Directory holding `run_all`, `tradeoff-server` and `tradeoff-cli`.
    pub bin: PathBuf,
    /// The repository checkout (the working directory).
    pub root: PathBuf,
    /// Scratch directory for this run, removed at exit.
    pub tmp: PathBuf,
    pub seed: u64,
    pub seconds: Duration,
}

/// One reported figure.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// A workload's result: the record's metrics plus the ledger lines that
/// only the ledger carries.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Samples behind the timings (requests, experiments or queries).
    pub samples: u64,
    pub metrics: Vec<Metric>,
    pub ledger: Vec<Metric>,
}

/// The per-layer metrics every traced run reports, in the order
/// `BENCHMARK.json` lists them; the workload adds `residual_s`, the
/// tracing overhead and `error_rate`.
pub fn layer_metrics(r: &layers::Rates, c: &parse::ServerCounts, api: &[f64; 3]) -> Vec<Metric> {
    let count = |name: &str, n: u64| metric(format!("bench.tracestore.{name}"), n as f64, "count");
    vec![
        metric("simtrace.gen.minstr_per_s", r.gen_minstr_per_s, "Minstr/s"),
        metric(
            "simtrace.reusehist.mrefs_per_s",
            r.reusehist_mrefs_per_s,
            "Mref/s",
        ),
        metric(
            "simcache.stackdist.mrefs_per_s",
            r.stackdist_mrefs_per_s,
            "Mref/s",
        ),
        metric(
            "simcache.analytic.mpoints_per_s",
            r.analytic_mpoints_per_s,
            "Mpoint/s",
        ),
        metric(
            "simcpu.timeline.extract.mrefs_per_s",
            r.extract_mrefs_per_s,
            "Mref/s",
        ),
        metric("simcpu.timeline.replay_us", r.replay_us, "us"),
        metric("simcache.cache.mrefs_per_s", r.cache_mrefs_per_s, "Mref/s"),
        metric("simcpu.cpu.minstr_per_s", r.cpu_minstr_per_s, "Minstr/s"),
        count("trace_hits", c.trace_hits),
        count("trace_misses", c.trace_misses),
        count("timeline_hits", c.timeline_hits),
        count("timeline_misses", c.timeline_misses),
        count("hist_hits", c.hist_hits),
        count("hist_misses", c.hist_misses),
        count("coalesced_waits", c.coalesced_waits),
        count("evictions", c.evictions),
        metric("bench.tracestore.hit_us", r.store_hit_us, "us"),
        metric("tradeoff.api.parse_us", api[0], "us"),
        metric("tradeoff.api.dispatch_us", api[1], "us"),
        metric("tradeoff.api.render_us", api[2], "us"),
    ]
}

/// A command for one of the release binaries, run from the checkout.
pub fn binary(ctx: &Ctx, name: &str) -> Command {
    let mut cmd = Command::new(ctx.bin.join(name));
    cmd.current_dir(&ctx.root);
    cmd
}

/// The replies every server answer must equal byte for byte: what
/// `tradeoff-cli query --json` answers to each request. At
/// [`mix::DEFAULT_SEED`] they must also hash to `pinned`, so a change
/// that alters the CLI's answers too cannot pass unnoticed.
pub fn expected(
    ctx: &Ctx,
    workload: &str,
    requests: &[String],
    pinned: &str,
) -> Result<Vec<String>, String> {
    let answers: Vec<String> = cli_answers(ctx, requests)
        .into_iter()
        .collect::<Result<_, _>>()?;
    let got = digest(
        requests
            .iter()
            .map(String::as_str)
            .zip(answers.iter().map(String::as_str)),
    );
    eprintln!("perfbench: {workload} digest {got}");
    if ctx.seed == mix::DEFAULT_SEED && got != pinned {
        return Err(format!("replies drifted from the pinned digest: {got}"));
    }
    Ok(answers)
}

/// Answers every request with `tradeoff-cli query --json`, two processes
/// at a time.
fn cli_answers(ctx: &Ctx, requests: &[String]) -> Vec<Result<String, String>> {
    let next = std::sync::atomic::AtomicUsize::new(0);
    let answers = std::sync::Mutex::new(vec![Err("not run".to_string()); requests.len()]);
    std::thread::scope(|s| {
        for _ in 0..2 {
            s.spawn(|| loop {
                let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                let Some(req) = requests.get(i) else { break };
                let answer = binary(ctx, "tradeoff-cli")
                    .args(["query", "--json", req])
                    .output()
                    .map_err(|e| format!("spawning tradeoff-cli: {e}"))
                    .and_then(|out| {
                        if out.status.success() {
                            String::from_utf8(out.stdout).map_err(|e| e.to_string())
                        } else {
                            Err(format!("tradeoff-cli exited with {}", out.status))
                        }
                    });
                answers.lock().expect("answer lock")[i] = answer;
            });
        }
    });
    answers.into_inner().expect("answer lock")
}

/// SHA-256 over `request\nreply\n` pairs: the pinned identity of a set
/// of answers.
fn digest<'a>(pairs: impl IntoIterator<Item = (&'a str, &'a str)>) -> String {
    let mut text = String::new();
    for (req, reply) in pairs {
        text.push_str(req);
        text.push('\n');
        text.push_str(reply.trim_end());
        text.push('\n');
    }
    report::sha256_hex(text.as_bytes())
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: mix::DEFAULT_SEED,
        seconds: 10,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(key) = it.next() {
        let value = it.next().ok_or(format!("{key} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{key}: bad number {value:?}"))
        };
        match key.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?.max(1),
            "--trace" => args.trace = number()? == 1,
            other => return Err(format!("unknown option {other}")),
        }
    }
    Ok(args)
}

/// Output of a short command, or `"unknown"`.
fn probe_output(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

fn run(args: &Args, ctx: &Ctx) -> Result<Outcome, String> {
    match (args.workload.as_str(), args.trace) {
        ("suite", false) => suite::run(ctx),
        ("suite", true) => suite::traced(ctx),
        ("serve_hot", false) => serve::run(ctx),
        ("serve_hot", true) => serve::traced(ctx),
        ("plan_cold", false) => plan::run(ctx),
        ("plan_cold", true) => plan::traced(ctx),
        (other, _) => Err(format!(
            "unknown workload {other:?} (want suite, serve_hot or plan_cold)"
        )),
    }
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let root = std::env::current_dir().expect("a working directory");
    let bin = std::env::var_os("PERFBENCH_BIN")
        .map(PathBuf::from)
        .unwrap_or_else(|| root.join(".bench_build/release"));
    let tmp = root.join(format!(".bench_build/perfbench-tmp-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&tmp) {
        eprintln!("perfbench: {}: {e}", tmp.display());
        std::process::exit(1);
    }
    let ctx = Ctx {
        bin,
        root,
        tmp,
        seed: args.seed,
        seconds: Duration::from_secs(args.seconds),
    };
    let result = run(&args, &ctx);
    let _ = std::fs::remove_dir_all(&ctx.tmp);
    let outcome = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            std::process::exit(1);
        }
    };
    // A metric with no finite value (every sample failed) has no
    // number to report: the run fails instead of printing a record.
    if let Some(m) = outcome.metrics.iter().find(|m| !m.value.is_finite()) {
        eprintln!("perfbench: {}: {} is {}", args.workload, m.name, m.value);
        std::process::exit(1);
    }
    print_outcome(&args, &ctx.root, &outcome);
}

fn metrics_json(metrics: &[Metric]) -> Json {
    Json::Obj(
        metrics
            .iter()
            .map(|m| {
                (
                    m.name.clone(),
                    Json::obj(vec![
                        ("value", Json::num(m.value)),
                        ("unit", Json::str(m.unit)),
                    ]),
                )
            })
            .collect(),
    )
}

fn print_outcome(args: &Args, root: &Path, o: &Outcome) {
    for m in o.metrics.iter().chain(&o.ledger) {
        eprintln!("{:<44} {:>14.6} {}", m.name, m.value, m.unit);
    }
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let stamp = Json::obj(vec![
        (
            "git_sha",
            Json::str(probe_output(
                "git",
                &["-C", &root.to_string_lossy(), "rev-parse", "HEAD"],
            )),
        ),
        ("rustc", Json::str(probe_output("rustc", &["-V"]))),
        ("nproc", Json::num(nproc as f64)),
        ("workload", Json::str(&args.workload)),
        ("seed", Json::num(args.seed as f64)),
        ("seconds", Json::num(args.seconds as f64)),
        ("trace", Json::Bool(args.trace)),
        ("samples", Json::num(o.samples as f64)),
    ]);
    let ledger = Json::obj(vec![
        ("stamp", stamp),
        ("metrics", metrics_json(&o.metrics)),
        ("ledger", metrics_json(&o.ledger)),
    ]);
    println!("{}", ledger.render());
    let record = Json::obj(vec![
        ("correct", Json::Bool(o.correct)),
        ("attempted", Json::num(o.attempted as f64)),
        ("failed", Json::num(o.failed as f64)),
        ("metrics", metrics_json(&o.metrics)),
    ]);
    println!("{}", record.render());
}
