//! `plan_cold`: the capacity-planning user with a new workload. One
//! client sends, in sequence, analytic grids, simulated grids and φ
//! points over inline specs from `workloads/`, each with a `seed_mix`
//! no earlier query used, to a fresh server per round. Every query
//! misses the store: generation, the reuse-histogram fold, the
//! stack-distance sweeps and timeline extraction do the work, HTTP
//! almost none.

use crate::http::Session;
use crate::layers::{api_ledger, probe_rates, Mode};
use crate::mix::{cold_plan, plan_specs, Cold, PLAN};
use crate::parse::{self, ServerCounts};
use crate::proc::Server;
use crate::stats::{median, percentile, relative_spread, residual};
use crate::{expected, metric, Ctx, Outcome};
use std::time::Instant;
use tradeoff::api::DenseGrid;

/// Server request timeout, seconds: well above the slowest query's cold
/// time, so a `504` means a regression and not a harness artefact.
const REQUEST_TIMEOUT_S: u64 = 120;

/// Extra spawn-to-first-`/stats` samples per run, on top of one per
/// round, for a steadier `setup_s` median.
const EXTRA_SETUPS: usize = 12;

/// Instructions per input of the layer probes.
const PROBE_INSTRUCTIONS: usize = 500_000;

/// SHA-256 of round 0's request/reply pairs at [`mix::DEFAULT_SEED`].
const PINNED_DIGEST: &str = "7d2a6159dbf0b22683732055f470c537ec739abb417390eb99ddafe60c4f1473";

/// One round: the requests sent and what came back.
struct Round {
    replies: Vec<Result<String, String>>,
    latencies_s: Vec<f64>,
    wall_s: f64,
    setup_s: f64,
    rss_mb: f64,
    /// Per-query count deltas (traced rounds) or one delta for the
    /// whole round.
    counts: Vec<ServerCounts>,
    /// Count deltas over the whole round.
    total: ServerCounts,
}

/// Spawns a server, sends the plan on one connection and stops the
/// server. `per_query` takes a `/stats` snapshot around every query
/// instead of around the round.
fn round(ctx: &Ctx, requests: &[String], per_query: bool) -> Result<Round, String> {
    let server = Server::spawn(&ctx.bin, &ctx.tmp, REQUEST_TIMEOUT_S)?;
    let mut session = Session::new(server.addr);
    let mut last = parse::fetch_stats(&mut session)?;
    let setup_s = server.spawned.elapsed().as_secs_f64();
    let first = last;
    let (mut replies, mut latencies_s, mut counts) = (Vec::new(), Vec::new(), Vec::new());
    let start = Instant::now();
    for req in requests {
        let t = Instant::now();
        let reply = session.call("POST", "/query", req);
        latencies_s.push(t.elapsed().as_secs_f64());
        replies.push(reply.and_then(|r| match r.status {
            200 => Ok(r.body),
            status => Err(format!("HTTP {status}: {}", r.body.trim_end())),
        }));
        if per_query {
            let now = parse::fetch_stats(&mut session)?;
            counts.push(now.since(&last));
            last = now;
        }
    }
    let wall_s = start.elapsed().as_secs_f64();
    let total = if per_query {
        last
    } else {
        parse::fetch_stats(&mut session)?
    }
    .since(&first);
    if !per_query {
        counts.push(total);
    }
    session.close();
    let rss_mb = server.stop()?.rss_mb;
    Ok(Round {
        replies,
        latencies_s,
        wall_s,
        setup_s,
        rss_mb,
        counts,
        total,
    })
}

/// The misses each query of the plan must cause: one histogram fold per
/// analytic grid, one timeline extraction per φ point, and none in any
/// tier for a simulated grid (sweeps are never memoised, so each one
/// folds).
fn want_counts(kinds: impl Iterator<Item = Cold>) -> ServerCounts {
    let mut c = ServerCounts::default();
    for kind in kinds {
        match kind {
            Cold::Analytic { .. } => c.hist_misses += 1,
            Cold::Simulate { .. } => c.timeline_misses += 1,
            Cold::Sim => {}
        }
    }
    c
}

/// Why a round's program-side counts are wrong, if they are.
fn check_counts(r: &Round) -> Option<String> {
    let wants: Vec<ServerCounts> = if r.counts.len() == PLAN.len() {
        PLAN.iter()
            .map(|p| want_counts(std::iter::once(p.0)))
            .collect()
    } else {
        vec![want_counts(PLAN.iter().map(|p| p.0))]
    };
    r.counts.iter().zip(&wants).find_map(|(got, want)| {
        let misses = (got.trace_misses, got.timeline_misses, got.hist_misses);
        let wanted = (0, want.timeline_misses, want.hist_misses);
        (misses != wanted || got.coalesced_waits != 0).then(|| {
            format!(
                "store misses {misses:?} and {} coalesced waits, want {wanted:?} and 0",
                got.coalesced_waits
            )
        })
    })
}

/// Replies of a round that are not a 200 with the CLI's answer.
fn wrong_replies(r: &Round, want: &[String]) -> u64 {
    r.replies
        .iter()
        .zip(want)
        .filter(|(reply, want)| !matches!(reply, Ok(body) if body.trim_end() == want.trim_end()))
        .count() as u64
}

/// Spawn-to-first-`/stats` of servers that do nothing else.
fn idle_setups(ctx: &Ctx) -> Result<Vec<f64>, String> {
    (0..EXTRA_SETUPS)
        .map(|_| {
            let server = Server::spawn(&ctx.bin, &ctx.tmp, REQUEST_TIMEOUT_S)?;
            parse::fetch_stats(&mut Session::new(server.addr))?;
            let s = server.spawned.elapsed().as_secs_f64();
            server.stop()?;
            Ok(s)
        })
        .collect()
}

/// The untraced run: the seed's plan, each round on a fresh server (so
/// every query misses again), until the budget is spent. Every reply is
/// checked against the CLI's answer to the same request.
pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let (_, requests) = cold_plan(&plan_specs(&ctx.root)?, ctx.seed);
    let want = expected(ctx, "plan_cold", &requests, PINNED_DIGEST)?;
    let mut setups = idle_setups(ctx)?;
    let start = Instant::now();
    let mut rounds = Vec::new();
    while rounds.is_empty() || start.elapsed() < ctx.seconds {
        rounds.push(round(ctx, &requests, false)?);
    }
    let failed: u64 = rounds.iter().map(|r| wrong_replies(r, &want)).sum();
    let wrong_counts = rounds.iter().find_map(check_counts);
    if let Some(why) = &wrong_counts {
        eprintln!("perfbench: plan_cold: {why}");
    }
    setups.extend(rounds.iter().map(|r| r.setup_s));
    let mut ledger = per_query_ms(&rounds);
    let medians: Vec<f64> = ledger.iter().map(|m| m.value).collect();
    let walls: Vec<f64> = rounds.iter().map(|r| r.wall_s).collect();
    let wall = median(&walls).expect("rounds");
    if let Some(spread) = relative_spread(&walls) {
        ledger.push(metric("spread.wall_s", spread, "ratio"));
    }
    let queries = (rounds.len() * PLAN.len()) as u64;
    Ok(Outcome {
        correct: failed == 0 && wrong_counts.is_none(),
        attempted: queries,
        failed,
        samples: queries,
        metrics: vec![
            metric("setup_s", median(&setups).expect("setups"), "s"),
            metric("wall_s", wall, "s"),
            metric("qps", PLAN.len() as f64 / wall, "1/s"),
            metric("latency_p50_ms", median(&medians).expect("queries"), "ms"),
            metric(
                "latency_p99_ms",
                percentile(&medians, 99.0).expect("queries"),
                "ms",
            ),
            metric(
                "rss_peak_mb",
                median(&rounds.iter().map(|r| r.rss_mb).collect::<Vec<_>>()).expect("rounds"),
                "MB",
            ),
        ],
        ledger,
    })
}

/// Each query's latency: its median over the rounds, or infinite when
/// any round failed it (a failure misses every latency limit).
fn per_query_ms(rounds: &[Round]) -> Vec<crate::Metric> {
    PLAN.iter()
        .enumerate()
        .map(|(i, (_, file, n))| {
            let xs: Vec<f64> = rounds
                .iter()
                .map(|r| match r.replies[i] {
                    Ok(_) => r.latencies_s[i] * 1e3,
                    Err(_) => f64::INFINITY,
                })
                .collect();
            metric(
                format!("plan.{i}.{file}.{}m_ms", n / 1_000_000),
                median(&xs).expect("rounds"),
                "ms",
            )
        })
        .collect()
}

/// The traced run: one untraced round, one round with a `/stats`
/// snapshot around every query, that round's queries dispatched
/// in-process through a provider that folds from scratch and times
/// generation apart from each fold, and layer probes over the plan's
/// specs.
pub fn traced(ctx: &Ctx) -> Result<Outcome, String> {
    let specs = plan_specs(&ctx.root)?;
    let (sent, requests) = cold_plan(&specs, ctx.seed);
    let want = expected(ctx, "plan_cold", &requests, PINNED_DIGEST)?;
    let plain = round(ctx, &requests, false)?;
    let traced = round(ctx, &requests, true)?;
    let mut failed = wrong_replies(&plain, &want) + wrong_replies(&traced, &want);
    let wrong_counts = check_counts(&plain).or_else(|| check_counts(&traced));
    if let Some(why) = &wrong_counts {
        eprintln!("perfbench: plan_cold: {why}");
    }

    let api = api_ledger(&requests, Mode::Fold, 1)?;
    for (call, reply) in api.calls.iter().zip(&traced.replies) {
        if reply.as_deref().map(str::trim_end) != Ok(call.body.trim_end()) {
            failed += 1;
        }
    }
    let e2e: f64 = traced.latencies_s.iter().sum();
    let sum = |f: fn(&crate::layers::Call) -> f64| api.calls.iter().map(f).sum::<f64>();
    let parse_s = sum(|c| c.parse_s);
    let gen_s = sum(|c| c.spans.gen_s);
    let reusehist_s = sum(|c| c.spans.reusehist_s);
    let stackdist_s = sum(|c| c.spans.stackdist_s);
    let extract_s = sum(|c| c.spans.extract_s);
    let eval_s = sum(|c| c.eval_s());
    let render_s = sum(|c| c.render_s);

    let inputs: Vec<_> = sent
        .into_iter()
        .map(|s| (s, 1, PROBE_INSTRUCTIONS))
        .collect();
    let rates = probe_rates(&inputs, &DenseGrid::standard());

    let counts = traced.total;
    // Two rounds over HTTP and one in-process.
    let attempted = 3 * PLAN.len() as u64;
    let p50 = |r: &Round| median(&r.latencies_s).expect("queries") * 1e3;
    let mut metrics = crate::layer_metrics(&rates, &counts, &api.summary);
    let layers = [
        parse_s,
        gen_s,
        reusehist_s,
        stackdist_s,
        extract_s,
        eval_s,
        render_s,
    ];
    metrics.extend([
        metric("residual_s", residual(e2e, &layers), "s"),
        metric("tracing_overhead.wall_s", traced.wall_s - plain.wall_s, "s"),
        metric(
            "tracing_overhead.latency_p50_ms",
            p50(&traced) - p50(&plain),
            "ms",
        ),
        metric("error_rate", failed as f64 / attempted as f64, "ratio"),
    ]);
    let mut ledger = vec![
        metric(
            "server.overhead_us",
            (e2e - sum(|c| c.total())) / PLAN.len() as f64 * 1e6,
            "us",
        ),
        metric("server.sheds", counts.sheds as f64, "count"),
        metric(
            "server.deadline_timeouts",
            counts.deadline_timeouts as f64,
            "count",
        ),
        metric(
            "server.panics_contained",
            counts.panics_contained as f64,
            "count",
        ),
        metric("self_s.http_round", e2e, "s"),
        metric("self_s.parse", parse_s, "s"),
        metric("self_s.gen", gen_s, "s"),
        metric("self_s.reusehist", reusehist_s, "s"),
        metric("self_s.stackdist", stackdist_s, "s"),
        metric("self_s.extract", extract_s, "s"),
        metric("self_s.eval", eval_s, "s"),
        metric("self_s.render", render_s, "s"),
    ];
    ledger.extend(api.by_kind);
    Ok(Outcome {
        correct: failed == 0 && wrong_counts.is_none(),
        attempted,
        failed,
        samples: PLAN.len() as u64,
        metrics,
        ledger,
    })
}
