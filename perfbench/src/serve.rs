//! `serve_hot`: a warmed `tradeoff-server --threads 2` under a closed
//! loop of two keep-alive clients sending memoised queries — the CLI and
//! scripts, each waiting for its reply. Every store lookup is a hit, so
//! HTTP, API parse/dispatch/render, the store's hit path and timeline
//! replay carry the load and no fold runs.

use crate::http::Session;
use crate::layers::{api_ledger, probe_rates, Mode};
use crate::mix::{self, hot_mix, HOT_INSTRUCTIONS};
use crate::parse::{self, ServerCounts};
use crate::proc::Server;
use crate::stats::{median, percentile, relative_spread, residual};
use crate::{expected, metric, Ctx, Metric, Outcome};
use simtrace::workload::builtin;
use std::time::{Duration, Instant};
use tradeoff::api::DenseGrid;

/// Client connections: one per CPU of the host, matching the server's
/// two workers.
const CLIENTS: usize = 2;

/// Server lifetimes per untraced run; `setup_s` and `rss_peak_mb` are
/// medians over them.
const SEGMENTS: u32 = 3;

/// Every this many requests a client asks `GET /stats` instead.
const STATS_EVERY: usize = 40;

/// SHA-256 of the mix's request/reply pairs at [`mix::DEFAULT_SEED`].
const PINNED_DIGEST: &str = "d67d319b660e9e699250f7119299a5ffd5a7d3aa945e004860ca8f5eb7b9b132";

/// A reply counts as a success only if it is a 200 with the expected
/// body.
fn matches(reply: &Result<crate::http::Reply, String>, want: &str) -> bool {
    matches!(reply, Ok(r) if r.status == 200 && r.body.trim_end() == want.trim_end())
}

/// One request of the measured loop.
struct Sample {
    /// Index into the mix; `None` for `GET /stats`.
    index: Option<usize>,
    latency_s: f64,
    ok: bool,
}

/// What one client saw in a measured phase.
#[derive(Default)]
struct ClientLog {
    samples: Vec<Sample>,
    /// Time per full pass over the mix.
    passes: Vec<f64>,
    reconnects: u64,
}

/// One closed-loop client: starts at `offset` in the mix and cycles
/// until `stop`, timing each request from its first send.
fn client(
    server: &Server,
    mix: &[String],
    want: &[String],
    offset: usize,
    stop: Instant,
) -> ClientLog {
    let mut session = Session::new(server.addr);
    let mut log = ClientLog::default();
    let mut pass_start = Instant::now();
    let (mut requests, mut queries) = (0usize, 0usize);
    while Instant::now() < stop {
        requests += 1;
        let t = Instant::now();
        let (index, ok) = if requests % STATS_EVERY == 0 {
            let reply = session.call("GET", "/stats", "");
            (
                None,
                reply.is_ok_and(|r| r.status == 200 && parse::stats(&r.body).is_ok()),
            )
        } else {
            let index = (offset + queries) % mix.len();
            let reply = session.call("POST", "/query", &mix[index]);
            (Some(index), matches(&reply, &want[index]))
        };
        log.samples.push(Sample {
            index,
            latency_s: t.elapsed().as_secs_f64(),
            ok,
        });
        if index.is_some() {
            queries += 1;
            if queries % mix.len() == 0 {
                log.passes.push(pass_start.elapsed().as_secs_f64());
                pass_start = Instant::now();
            }
        }
    }
    log.reconnects = session.reconnects();
    log
}

/// A spawned, warmed server: (server, set-up seconds, warm-up failures).
fn warmed(ctx: &Ctx, mix: &[String], want: &[String]) -> Result<(Server, f64, u64), String> {
    let server = Server::spawn(&ctx.bin, &ctx.tmp, 60)?;
    let mut session = Session::new(server.addr);
    let failed = mix
        .iter()
        .zip(want)
        .filter(|(req, want)| !matches(&session.call("POST", "/query", req), want))
        .count() as u64;
    // An idle keep-alive connection would hold a worker until the idle
    // timeout and leave one worker for two clients.
    session.close();
    let setup = server.spawned.elapsed().as_secs_f64();
    Ok((server, setup, failed))
}

/// The closed loop for `budget`: (client logs, counts during it).
fn measure(
    server: &Server,
    mix: &[String],
    want: &[String],
    budget: Duration,
) -> Result<(Vec<ClientLog>, ServerCounts), String> {
    let before = parse::fetch_stats(&mut Session::new(server.addr))?;
    let stop = Instant::now() + budget;
    let logs = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|k| s.spawn(move || client(server, mix, want, k * mix.len() / CLIENTS, stop)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect::<Vec<_>>()
    });
    let after = parse::fetch_stats(&mut Session::new(server.addr))?;
    Ok((logs, after.since(&before)))
}

/// Why the measured phase's program-side counts are wrong, if they are.
fn check_counts(c: &ServerCounts) -> Option<String> {
    (c.misses() != 0 || c.coalesced_waits != 0 || c.sheds != 0 || c.deadline_timeouts != 0)
        .then(|| format!("hot phase counts {c:?}: want no misses, waits, sheds or timeouts"))
}

/// Latency figures over a set of client logs.
struct Loop {
    latencies_ms: Vec<f64>,
    /// The same latencies split by mix entry.
    by_query_ms: Vec<Vec<f64>>,
    passes: Vec<f64>,
    ok: u64,
    attempted: u64,
    seconds: f64,
    reconnects: u64,
}

impl Loop {
    fn new(logs: &[ClientLog], queries: usize, seconds: f64) -> Loop {
        let samples = || logs.iter().flat_map(|l| &l.samples);
        let mut latencies_ms = Vec::new();
        let mut by_query_ms = vec![Vec::new(); queries];
        for s in samples() {
            // A failed request misses every latency limit.
            let ms = if s.ok {
                s.latency_s * 1e3
            } else {
                f64::INFINITY
            };
            latencies_ms.push(ms);
            if let Some(i) = s.index {
                by_query_ms[i].push(ms);
            }
        }
        Loop {
            latencies_ms,
            by_query_ms,
            passes: logs.iter().flat_map(|l| l.passes.iter().copied()).collect(),
            ok: samples().filter(|s| s.ok).count() as u64,
            attempted: samples().count() as u64,
            seconds,
            reconnects: logs.iter().map(|l| l.reconnects).sum(),
        }
    }

    /// Each mix entry's median round trip, for the entries sent.
    fn query_medians_ms(&self) -> Vec<f64> {
        self.by_query_ms
            .iter()
            .filter_map(|xs| median(xs))
            .collect()
    }
}

/// The untraced run: [`SEGMENTS`] server lifetimes, each spawned,
/// warmed with one pass and then loaded for a third of the budget.
pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mix = hot_mix(ctx.seed);
    let want = expected(ctx, "serve_hot", &mix, PINNED_DIGEST)?;
    let (mut setups, mut rss, mut logs) = (Vec::new(), Vec::new(), Vec::new());
    let (mut failed, mut wrong_counts) = (0, None);
    let budget = ctx.seconds / SEGMENTS;
    for _ in 0..SEGMENTS {
        let (server, setup, warm_failed) = warmed(ctx, &mix, &want)?;
        failed += warm_failed;
        setups.push(setup);
        let (segment, counts) = measure(&server, &mix, &want, budget)?;
        wrong_counts = wrong_counts.or(check_counts(&counts));
        logs.extend(segment);
        rss.push(server.stop()?.rss_mb);
    }
    if let Some(why) = &wrong_counts {
        eprintln!("perfbench: serve_hot: {why}");
    }
    let l = Loop::new(&logs, mix.len(), budget.as_secs_f64() * f64::from(SEGMENTS));
    failed += l.attempted - l.ok;
    Ok(Outcome {
        correct: failed == 0 && wrong_counts.is_none(),
        attempted: l.attempted + mix.len() as u64 * u64::from(SEGMENTS),
        failed,
        samples: l.attempted,
        metrics: vec![
            metric("setup_s", median(&setups).expect("segments"), "s"),
            metric("wall_s", median(&l.passes).unwrap_or(f64::NAN), "s"),
            metric("qps", l.ok as f64 / l.seconds, "1/s"),
            metric(
                "latency_p50_ms",
                median(&l.latencies_ms).unwrap_or(f64::NAN),
                "ms",
            ),
            // The tail of the mix, each query at its median round trip.
            // The tail of single requests on this closed loop follows the
            // host's scheduler more than the server: on a shared 2-CPU
            // host it moved 17 % (IQR/median) between runs of the same
            // code where this moves 2 %, so it is a ledger line.
            metric(
                "latency_p99_ms",
                percentile(&l.query_medians_ms(), 99.0).unwrap_or(f64::NAN),
                "ms",
            ),
            metric("rss_peak_mb", median(&rss).expect("segments"), "MB"),
        ],
        ledger: vec![
            metric(
                "request.latency_p99_ms",
                percentile(&l.latencies_ms, 99.0).unwrap_or(f64::NAN),
                "ms",
            ),
            metric("server.reconnects", l.reconnects as f64, "count"),
            metric(
                "spread.wall_s",
                relative_spread(&l.passes).unwrap_or(f64::NAN),
                "ratio",
            ),
        ],
    })
}

/// The traced run: one server lifetime measured untraced and then
/// traced (per-request spans by mix index, and a `/stats` snapshot
/// around the phase); the mix dispatched in-process through a
/// span-recording provider over the store; layer probes over the six
/// built-ins at the mix's length.
pub fn traced(ctx: &Ctx) -> Result<Outcome, String> {
    let mix = hot_mix(ctx.seed);
    let want = expected(ctx, "serve_hot", &mix, PINNED_DIGEST)?;
    let (server, _, mut failed) = warmed(ctx, &mix, &want)?;
    let half = ctx.seconds / 2;
    let (plain_logs, _) = measure(&server, &mix, &want, half)?;
    let (logs, counts) = measure(&server, &mix, &want, half)?;
    server.stop()?;
    let plain = Loop::new(&plain_logs, mix.len(), half.as_secs_f64());
    let traced = Loop::new(&logs, mix.len(), half.as_secs_f64());
    failed += plain.attempted - plain.ok + traced.attempted - traced.ok;
    let wrong_counts = check_counts(&counts);

    let api = api_ledger(&mix, Mode::Store, 5)?;
    let wrong_bodies = api
        .calls
        .iter()
        .zip(&want)
        .filter(|(c, w)| c.body.trim_end() != w.trim_end())
        .count() as u64;
    failed += wrong_bodies;
    // Median round trip per mix entry, against its in-process spans.
    let e2e: f64 = traced.query_medians_ms().iter().sum::<f64>() / 1e3;
    let in_process: f64 = api.calls.iter().map(|c| c.total()).sum();
    let layer_s = |f: fn(&crate::layers::Call) -> f64| api.calls.iter().map(f).sum::<f64>();
    let parse_s = layer_s(|c| c.parse_s);
    let store_s = layer_s(|c| c.spans.store_s);
    let eval_s = layer_s(|c| c.eval_s());
    let render_s = layer_s(|c| c.render_s);

    let inputs: Vec<_> = mix::BUILTINS
        .iter()
        .map(|name| {
            (
                builtin(name).expect("builtin").clone(),
                1,
                HOT_INSTRUCTIONS as usize,
            )
        })
        .collect();
    let dense = DenseGrid {
        line_sizes: vec![8, 16, 32, 64, 128],
        max_sets: 64,
        max_assoc: 8,
    };
    let rates = probe_rates(&inputs, &dense);

    // Warm-up pass, both measured phases, and the in-process pass.
    let attempted = plain.attempted + traced.attempted + 2 * mix.len() as u64;
    let mut metrics = crate::layer_metrics(&rates, &counts, &api.summary);
    let p50 = |l: &Loop| median(&l.latencies_ms).unwrap_or(f64::NAN);
    let pass = |l: &Loop| median(&l.passes).unwrap_or(f64::NAN);
    metrics.extend([
        metric(
            "residual_s",
            residual(e2e, &[parse_s, store_s, eval_s, render_s]),
            "s",
        ),
        metric("tracing_overhead.wall_s", pass(&traced) - pass(&plain), "s"),
        metric(
            "tracing_overhead.latency_p50_ms",
            p50(&traced) - p50(&plain),
            "ms",
        ),
        metric("error_rate", failed as f64 / attempted as f64, "ratio"),
    ]);
    let mut ledger: Vec<Metric> = vec![
        metric(
            "server.overhead_us",
            (e2e - in_process) / mix.len() as f64 * 1e6,
            "us",
        ),
        metric(
            "server.reconnects",
            (plain.reconnects + traced.reconnects) as f64,
            "count",
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
        metric("traced.qps", traced.ok as f64 / traced.seconds, "1/s"),
        metric("traced.latency_p50_ms", p50(&traced), "ms"),
        metric("self_s.http_pass", e2e, "s"),
        metric("self_s.parse", parse_s, "s"),
        metric("self_s.store", store_s, "s"),
        metric("self_s.eval", eval_s, "s"),
        metric("self_s.render", render_s, "s"),
    ];
    ledger.extend(api.by_kind);
    if let Some(why) = &wrong_counts {
        eprintln!("perfbench: serve_hot: {why}");
    }
    Ok(Outcome {
        correct: failed == 0 && wrong_counts.is_none(),
        attempted,
        failed,
        samples: traced.attempted,
        metrics,
        ledger,
    })
}
