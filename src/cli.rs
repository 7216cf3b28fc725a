//! Implementation of the `tradeoff` command-line tool.
//!
//! The binary (`src/bin/tradeoff-cli.rs`) is a thin wrapper; everything
//! here is plain functions over a typed [`Command`] so the behaviour is
//! unit tested. Every query subcommand is a thin formatter over
//! [`tradeoff::api::dispatch`] — the same call that answers the
//! `tradeoff-server` endpoints — so CLI and server answers are
//! byte-derived from one code path. Subcommands:
//!
//! * `price` — the hit ratio each feature is worth at a design point;
//! * `crossover` — where pipelined memory starts to win;
//! * `linesize` — optimal line size for a measured hit-ratio curve;
//! * `simulate` — run a SPEC92 proxy through the cycle-accurate
//!   simulator (memoised timeline replay, bit-identical to a full run);
//! * `design` — enumerate bus/buffer/pipeline configurations meeting a
//!   mean-access-time target at minimum pin cost;
//! * `grid` — answer a (size × line × assoc) hit-ratio grid with the
//!   simulated or the closed-form analytic backend;
//! * `workloads` — list, show or validate workload specs;
//! * `query` — raw wire-format access: dispatch a JSON request locally,
//!   or act as a client against a running `tradeoff-server`.
//!
//! The paper experiments have their own front-end, the `bench` crate's
//! `exp` binary (`exp list|run|verify|<id>`).
//!
//! Option parsing converts `--key value` pairs to a JSON object and
//! lets [`QueryRequest::from_json`] validate it, so unknown flags and
//! malformed values are rejected by the same strict schema the server
//! enforces — always as bad usage (exit 2), never as a failure.

use crate::server;
use bench::grid;
use bench::queryenv::StoreWorkloads;
use report::{Json, Table};
use std::collections::BTreeMap;
use tradeoff::api::{
    self, ApiError, ApiErrorKind, DenseGrid, GridQuery, GridRows, QueryRequest, QueryResponse,
    WorkloadsResponse,
};
use tradeoff::linesize::LineCandidate;
use tradeoff::HitRatio;

/// A parsed `--key value` option map.
pub type Options = BTreeMap<String, String>;

/// A typed CLI failure carrying the exit code the binary maps it to:
/// `2` for bad usage (unknown subcommand, malformed options or values),
/// `1` for a failed answer (a backend error, an unreachable server).
#[derive(Debug)]
pub enum CliError {
    /// Bad usage — exit 2.
    Usage(String),
    /// The query could not be answered — exit 1.
    Failure(String),
}

impl CliError {
    /// The process exit code this error maps to.
    pub fn exit_code(&self) -> i32 {
        match self {
            CliError::Failure(_) => 1,
            CliError::Usage(_) => 2,
        }
    }

    /// The user-facing message (stderr).
    pub fn message(&self) -> &str {
        match self {
            CliError::Usage(m) | CliError::Failure(m) => m,
        }
    }
}

/// Maps a typed API error onto the CLI's exit-code scheme: bad requests
/// are usage (exit 2), backend failures are failures (exit 1).
fn from_api(e: ApiError) -> CliError {
    match e.kind {
        ApiErrorKind::BadRequest => CliError::Usage(e.message),
        ApiErrorKind::Internal => CliError::Failure(e.message),
    }
}

/// One fully parsed CLI invocation.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// `help` / `--help` / `-h`: print usage.
    Help,
    /// A classic subcommand: dispatch the typed request and render the
    /// human-readable report.
    Report(QueryRequest),
    /// `query --json …` without `--server`: dispatch locally, print the
    /// wire-format JSON response.
    Wire(QueryRequest),
    /// `query --server …`: client call against a running server.
    Client {
        /// `host:port` of the server.
        addr: String,
        /// What to ask it.
        call: ClientCall,
        /// Transient-failure retries (`--retries`, default 3): connect
        /// failures and `503 overloaded` are retried with jittered
        /// backoff, honouring the server's `Retry-After`.
        retries: u32,
    },
}

/// A client-mode call against a running `tradeoff-server`.
#[derive(Debug, Clone, PartialEq)]
pub enum ClientCall {
    /// `POST /query` with the request text, sent as typed once it has
    /// parsed locally.
    Query(String),
    /// `GET /stats`.
    Stats,
    /// `GET /experiments`.
    Experiments,
    /// `POST /shutdown` — graceful stop, with the server's shutdown
    /// token when it was started with one.
    Shutdown {
        /// Value of `--token`, sent as `{"token": …}` in the body.
        token: Option<String>,
    },
}

/// Splits `--key value` pairs into an option map.
fn parse_opts<'a>(args: impl Iterator<Item = &'a String>) -> Result<Options, String> {
    let mut it = args;
    let mut opts = Options::new();
    while let Some(key) = it.next() {
        let key = key
            .strip_prefix("--")
            .ok_or(format!("expected --option, got {key:?}"))?;
        let value = it.next().ok_or(format!("--{key} needs a value"))?;
        opts.insert(key.to_string(), value.clone());
    }
    Ok(opts)
}

/// Parses raw arguments into a typed [`Command`].
///
/// # Errors
///
/// [`CliError::Usage`] when the subcommand is missing or unknown, an
/// option is malformed, or a value fails the query schema.
pub fn parse_args(args: &[String]) -> Result<Command, CliError> {
    let cmd = args.first().ok_or_else(|| CliError::Usage(usage()))?;
    match cmd.as_str() {
        "workloads" => parse_workloads(&args[1..]),
        "query" => parse_query(&args[1..]),
        "help" | "--help" | "-h" => Ok(Command::Help),
        "price" | "crossover" | "linesize" | "simulate" | "design" | "grid" => {
            let opts = parse_opts(args[1..].iter()).map_err(CliError::Usage)?;
            Ok(Command::Report(query_from_options(cmd, &opts)?))
        }
        other => Err(CliError::Usage(format!(
            "unknown subcommand {other:?}\n{}",
            usage()
        ))),
    }
}

/// Builds a typed query from a subcommand name and its option map by
/// round-tripping through the wire schema: the map becomes a JSON
/// object and [`QueryRequest::from_json`] applies the same strict
/// validation the server does (unknown keys rejected, exit 2).
fn query_from_options(cmd: &str, opts: &Options) -> Result<QueryRequest, CliError> {
    let mut fields = vec![("query".to_string(), Json::str(cmd))];
    for (key, value) in opts {
        // `--workload-file F` reads an inline spec; the wire field is
        // `workload` (simulate) or the one-element `workloads` array
        // (grid), so the strict schema still does the validation.
        if key == "workload-file" {
            let spec = read_spec_file(value)?;
            let (field, json) = match cmd {
                "grid" => ("workloads", Json::Arr(vec![spec])),
                _ => ("workload", spec),
            };
            fields.push((field.to_string(), json));
            continue;
        }
        let json = match key.as_str() {
            "curve" => {
                let curve = parse_curve(value).map_err(CliError::Usage)?;
                Json::Arr(
                    curve
                        .iter()
                        .map(|c| {
                            Json::Arr(vec![
                                Json::num(c.line_bytes),
                                Json::num(c.hit_ratio.value()),
                            ])
                        })
                        .collect(),
                )
            }
            "programs" => Json::Arr(
                value
                    .split(',')
                    .filter(|s| !s.is_empty())
                    .map(Json::str)
                    .collect(),
            ),
            _ => match value.parse::<f64>() {
                Ok(n) if n.is_finite() => Json::num(n),
                _ => Json::str(value.as_str()),
            },
        };
        fields.push((key.clone(), json));
    }
    QueryRequest::from_json(&Json::Obj(fields)).map_err(from_api)
}

/// Reads and parses a JSON workload-spec file into a [`Json`] value.
fn read_spec_file(path: &str) -> Result<Json, CliError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| CliError::Usage(format!("reading {path}: {e}")))?;
    Json::parse(&text).map_err(|e| CliError::Usage(format!("{path}: {e}")))
}

/// Parses the `query` subcommand: local wire dispatch or client mode.
fn parse_query(args: &[String]) -> Result<Command, CliError> {
    // `--shutdown` is a bare flag; the option grammar is strictly
    // `--key value` pairs, so strip it before parsing.
    let shutdown = args.iter().any(|a| a == "--shutdown");
    let mut opts =
        parse_opts(args.iter().filter(|a| *a != "--shutdown")).map_err(CliError::Usage)?;
    let server = opts.remove("server");
    let json = opts.remove("json");
    let get = opts.remove("get");
    let token = opts.remove("token");
    let retries = opts.remove("retries");
    if let Some(stray) = opts.keys().next() {
        return Err(CliError::Usage(format!(
            "query does not take --{stray}\n{}",
            usage()
        )));
    }
    if token.is_some() && !shutdown {
        return Err(CliError::Usage(
            "--token only applies to --shutdown".to_string(),
        ));
    }
    if retries.is_some() && server.is_none() {
        return Err(CliError::Usage(
            "--retries only applies to --server mode".to_string(),
        ));
    }
    let retries: u32 = match retries {
        Some(v) => v
            .parse()
            .map_err(|_| CliError::Usage(format!("--retries: not an integer: {v:?}")))?,
        None => DEFAULT_RETRIES,
    };
    // A request is validated here, so a bad one is usage (exit 2) before
    // any connection; client mode then forwards the text it checked.
    let request = json
        .map(|text| QueryRequest::from_json_str(&text).map(|req| (text, req)))
        .transpose()
        .map_err(from_api)?;
    let call = match (shutdown, get, request) {
        (true, None, None) => ClientCall::Shutdown { token },
        (false, Some(what), None) => match what.as_str() {
            "stats" => ClientCall::Stats,
            "experiments" => ClientCall::Experiments,
            other => {
                return Err(CliError::Usage(format!(
                    "--get wants stats or experiments, got {other:?}"
                )))
            }
        },
        (false, None, Some((text, req))) => match server {
            Some(addr) => {
                return Ok(Command::Client {
                    addr,
                    call: ClientCall::Query(text),
                    retries,
                })
            }
            None => return Ok(Command::Wire(req)),
        },
        _ => {
            return Err(CliError::Usage(format!(
            "query needs exactly one of --json REQUEST, --get stats|experiments or --shutdown\n{}",
            usage()
        )))
        }
    };
    // Everything but a local --json dispatch needs a server to talk to.
    let addr = server.ok_or_else(|| {
        CliError::Usage("--get and --shutdown need --server HOST:PORT".to_string())
    })?;
    Ok(Command::Client {
        addr,
        call,
        retries,
    })
}

/// Parses the `workloads` subcommand: catalogue access routed through
/// the same wire schema the server answers (`list` is the default
/// action; `show` wants a built-in name, `validate` an inline spec
/// file).
fn parse_workloads(args: &[String]) -> Result<Command, CliError> {
    let (action, rest) = match args.split_first() {
        Some((a, rest)) => (a.as_str(), rest),
        None => ("list", args),
    };
    let mut opts = parse_opts(rest.iter()).map_err(CliError::Usage)?;
    let mut fields = vec![
        ("query".to_string(), Json::str("workloads")),
        ("action".to_string(), Json::str(action)),
    ];
    match action {
        "list" => {}
        "show" => {
            let name = opts.remove("name").ok_or_else(|| {
                CliError::Usage(format!("workloads show needs --name NAME\n{}", usage()))
            })?;
            fields.push(("name".to_string(), Json::str(name)));
        }
        "validate" => {
            let file = opts.remove("file").ok_or_else(|| {
                CliError::Usage(format!(
                    "workloads validate needs --file SPEC.json\n{}",
                    usage()
                ))
            })?;
            fields.push(("workload".to_string(), read_spec_file(&file)?));
        }
        other => {
            return Err(CliError::Usage(format!(
                "unknown workloads action {other:?}\n{}",
                usage()
            )))
        }
    }
    if let Some(stray) = opts.keys().next() {
        return Err(CliError::Usage(format!(
            "workloads {action} does not take --{stray}\n{}",
            usage()
        )));
    }
    Ok(Command::Report(
        QueryRequest::from_json(&Json::Obj(fields)).map_err(from_api)?,
    ))
}

fn usage() -> String {
    "usage: tradeoff <price|crossover|linesize|simulate|design|grid|query|workloads> [--option value]...\n\
     \n\
     price       --bus 4 --line 32 --beta 8 --hr 0.95 [--alpha 0.5] [--q 2] [--width 1]\n\
     crossover   --chunks 8 --q 2 [--alpha 0.5]\n\
     linesize    --c 7 --beta 1 --bus 4 --curve 8:0.90,16:0.94,32:0.96,64:0.97\n\
     simulate    --program ear | --workload-file SPEC.json\n\
     \u{20}           [--instructions 100000] [--stall fs|bl|bnl1|bnl2|bnl3|nb]\n\
     \u{20}           [--cache 8192] [--line 32] [--bus 4] [--beta 8]\n\
     design      --hr 0.95 --target 3.5 [--line 32] [--beta 8] [--alpha 0.5]\n\
     grid        [--backend sim|analytic] [--instructions 120000] [--target 0.9]\n\
     \u{20}           [--sets 2084] [--assoc 16]  (dense bounds, analytic backend only)\n\
     \u{20}           [--programs ear,doduc] [--workload-file SPEC.json]\n\
     query       --json REQUEST            (dispatch locally, print wire JSON)\n\
     query       --server HOST:PORT --json REQUEST | --get stats|experiments\n\
     \u{20}           | --shutdown [--token TOKEN]   [--retries N (default 3)]\n\
     workloads   list | show --name NAME | validate --file SPEC.json\n\
     \n\
     exit codes: 0 ok, 1 failure, 2 bad usage"
        .to_string()
}

/// Runs one CLI invocation, keeping the typed [`CliError`] so the
/// binary can map failures to distinct exit codes.
///
/// # Errors
///
/// [`CliError::Usage`] on bad arguments, [`CliError::Failure`] when a
/// backend or the server call fails.
pub fn run_cli(args: &[String]) -> Result<String, CliError> {
    match parse_args(args)? {
        Command::Help => Ok(usage()),
        Command::Report(req) => {
            let started = std::time::Instant::now();
            let resp = api::dispatch(&req, &StoreWorkloads).map_err(from_api)?;
            Ok(render(&req, &resp, started.elapsed().as_secs_f64()))
        }
        Command::Wire(req) => {
            let resp = api::dispatch(&req, &StoreWorkloads).map_err(from_api)?;
            Ok(resp.to_json_string())
        }
        Command::Client {
            addr,
            call,
            retries,
        } => client(&addr, &call, retries),
    }
}

/// Default `--retries` for client mode, matching
/// `bench::sched::RetryPolicy`'s transient budget.
const DEFAULT_RETRIES: u32 = 3;

/// How long to wait before retry number `attempt`: the server's
/// `Retry-After` hint when it gave one (capped so a pessimistic server
/// cannot stall the CLI), otherwise linear backoff plus a little jitter
/// so synchronised retriers spread out — `sched::RetryPolicy`'s
/// discipline applied to the wire.
fn retry_pause(attempt: u32, retry_after: Option<u64>) -> std::time::Duration {
    if let Some(secs) = retry_after {
        return std::time::Duration::from_secs(secs).min(std::time::Duration::from_secs(2));
    }
    let jitter_ms = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| u64::from(d.subsec_nanos()) % 25)
        .unwrap_or(0);
    std::time::Duration::from_millis(50 * u64::from(attempt) + jitter_ms)
}

/// Performs one client-mode call against a running server, riding out
/// transient failures: connect/protocol errors and `503 overloaded`
/// responses are retried up to `retries` times with bounded jittered
/// backoff (honouring `Retry-After`), mirroring the scheduler's
/// transient-retry semantics. The 200 body is returned without its
/// trailing newline, so `println!` in the binary reproduces the server
/// bytes exactly — and matches what the same request prints via local
/// dispatch.
fn client(addr: &str, call: &ClientCall, retries: u32) -> Result<String, CliError> {
    let (method, path, body) = match call {
        ClientCall::Query(text) => ("POST", "/query", Some(text.clone())),
        ClientCall::Stats => ("GET", "/stats", None),
        ClientCall::Experiments => ("GET", "/experiments", None),
        ClientCall::Shutdown { token } => (
            "POST",
            "/shutdown",
            token
                .as_ref()
                .map(|t| Json::obj(vec![("token", Json::str(t.as_str()))]).render()),
        ),
    };
    let mut attempt = 0u32;
    loop {
        match server::http_request(addr, method, path, body.as_deref()) {
            Ok(reply) if reply.status == 503 && attempt < retries => {
                attempt += 1;
                std::thread::sleep(retry_pause(attempt, reply.retry_after));
            }
            Err(_) if attempt < retries => {
                attempt += 1;
                std::thread::sleep(retry_pause(attempt, None));
            }
            Ok(reply) => {
                let body = reply.body.trim_end_matches('\n').to_string();
                return match reply.status {
                    200 => Ok(body),
                    400..=499 => Err(CliError::Usage(body)),
                    _ => Err(CliError::Failure(body)),
                };
            }
            Err(summary) => return Err(CliError::Failure(summary)),
        }
    }
}

/// Renders the human-readable report for a dispatched query — the
/// formats the pre-API CLI printed, reproduced from the typed response.
fn render(req: &QueryRequest, resp: &QueryResponse, secs: f64) -> String {
    match resp {
        QueryResponse::Price(r) => {
            let q = &r.query;
            let mut t = Table::new(["feature", "worth (ΔHR)", "equal-performance HR"]);
            for f in &r.features {
                t.row([
                    f.feature.clone(),
                    format!("{:+.3}%", 100.0 * f.delta_hr),
                    format!("{:.2}%", 100.0 * f.equal_performance_hr),
                ]);
            }
            format!(
                "Design point: D={}B L={}B β_m={} α={} HR={:.2}% issue width {}\n{}",
                q.bus,
                q.line,
                q.beta,
                q.alpha,
                100.0 * q.hr,
                q.width,
                t.render()
            )
        }
        QueryResponse::Crossover(r) => {
            let q = &r.query;
            let fmt = |x: Option<f64>| x.map_or("never".to_string(), |b| format!("β_m > {b:.2}"));
            format!(
                "L/D = {}, q = {}, α = {}:\n  pipelined beats doubling bus: {}\n  pipelined beats write buffers: {}\n",
                q.chunks,
                q.q,
                q.alpha,
                fmt(r.vs_double_bus),
                fmt(r.vs_write_buffers)
            )
        }
        QueryResponse::Linesize(r) => {
            let q = &r.query;
            format!(
                "fill time c={} β={}, D={}B:\n  Smith (Eq. 16): {} B\n  paper (Eq. 19): {} B\n  agree: {}\n",
                q.c, q.beta, q.bus, r.smith_line_bytes, r.eq19_line_bytes, r.agree
            )
        }
        QueryResponse::Design(r) => {
            let q = &r.query;
            if r.feasible.is_empty() {
                return format!(
                    "No configuration reaches a mean access time of {} at HR {:.2}% — \
                     raise the hit ratio or relax the target.\n",
                    q.target,
                    100.0 * q.hr
                );
            }
            let mut t = Table::new([
                "pins",
                "bus",
                "write buffers",
                "pipelined",
                "mean access time",
            ]);
            for row in &r.feasible {
                t.row([
                    row.pins.to_string(),
                    format!("{}-bit", row.bus as u64 * 8),
                    row.write_buffers.to_string(),
                    row.pipelined.to_string(),
                    format!("{:.3}", row.mean_access_time),
                ]);
            }
            format!(
                "Configurations meeting mean access time ≤ {} at HR {:.2}% (fewest pins first):\n{}",
                q.target,
                100.0 * q.hr,
                t.render()
            )
        }
        QueryResponse::Simulate(r) => {
            let q = &r.query;
            let stall =
                api::parse_stall(&q.stall).map_or_else(|_| q.stall.clone(), |s| s.to_string());
            format!(
                "{} × {} instructions, {stall}, {}B cache, L={}, D={}, β={}:\n  \
                 {} cycles / {} instr (CPI {:.3}), HR {:.4}, φ {:.2}, α {:.3}\n",
                q.workload.label(),
                q.instructions,
                q.cache,
                q.line,
                q.bus,
                q.beta,
                r.cycles,
                q.instructions,
                r.cpi,
                r.hit_ratio,
                r.phi,
                r.alpha
            )
        }
        QueryResponse::Grid(r) => {
            let rate = r.points as f64 / secs;
            match &r.rows {
                GridRows::Sim(rows) => {
                    let mut t = Table::new(["program", "best HR", "geometry"]);
                    for row in rows {
                        t.row([
                            row.program.clone(),
                            format!("{:.4}", row.best_hit_ratio),
                            format!(
                                "{} B, {} B lines, {}-way",
                                row.cache_bytes, row.line_bytes, row.assoc
                            ),
                        ]);
                    }
                    format!(
                        "backend sim: {} grid points in {secs:.2}s ({rate:.0} points/s)\n{}",
                        r.points,
                        t.render()
                    )
                }
                GridRows::Dense(rows) => {
                    let gq = match req {
                        QueryRequest::Grid(gq) => gq.clone(),
                        _ => GridQuery::default(),
                    };
                    let dense = DenseGrid {
                        max_sets: gq.max_sets,
                        max_assoc: gq.max_assoc,
                        ..DenseGrid::standard()
                    };
                    format!(
                        "backend analytic: {} grid points in {secs:.2}s ({rate:.0} points/s, \
                         including one histogram fold per proxy)\n{}",
                        r.points,
                        grid::dense_render(rows, &dense, r.target.unwrap_or(gq.target))
                    )
                }
            }
        }
        // No human subcommand asks for the registry listing (`exp list`
        // prints it); `query --json` carries its wire form.
        QueryResponse::Experiments(_) => resp.to_json_string(),
        QueryResponse::Workloads(r) => match r {
            WorkloadsResponse::List(infos) => {
                let mut t = Table::new(["name", "id"]);
                for i in infos {
                    t.row([i.name.clone(), i.id.clone()]);
                }
                t.render()
            }
            WorkloadsResponse::Show { name, id, spec } => {
                format!("{name} ({id}):\n{}\n", spec.to_json().render())
            }
            WorkloadsResponse::Validated { id, label } => {
                format!("valid: {label} ({id})\n")
            }
        },
    }
}

/// Parses a `8:0.90,16:0.94` hit-ratio curve.
///
/// # Errors
///
/// Returns a message for malformed pairs.
pub fn parse_curve(spec: &str) -> Result<Vec<LineCandidate>, String> {
    spec.split(',')
        .map(|pair| {
            let (l, h) = pair
                .split_once(':')
                .ok_or(format!("bad curve entry {pair:?}"))?;
            let line_bytes: f64 = l
                .trim()
                .parse()
                .map_err(|_| format!("bad line size {l:?}"))?;
            let hr: f64 = h
                .trim()
                .parse()
                .map_err(|_| format!("bad hit ratio {h:?}"))?;
            Ok(LineCandidate {
                line_bytes,
                hit_ratio: HitRatio::new(hr).map_err(|e| e.to_string())?,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    fn go(s: &str) -> Result<String, CliError> {
        run_cli(&argv(s))
    }

    #[test]
    fn parse_args_builds_typed_commands() {
        let Command::Report(QueryRequest::Price(p)) =
            parse_args(&argv("price --hr 0.95 --beta 8")).unwrap()
        else {
            panic!("expected a price report command");
        };
        assert_eq!(p.hr, 0.95);
        assert_eq!(p.beta, 8.0);
        assert_eq!(p.bus, 4.0, "defaults fill unspecified flags");
        assert_eq!(parse_args(&argv("help")).unwrap(), Command::Help);
    }

    #[test]
    fn parse_args_rejects_malformed() {
        for bad in [
            "",
            "price hr 0.95",
            "price --hr",
            "price --hr 0.95 --frob 1",
        ] {
            let err = parse_args(&argv(bad)).unwrap_err();
            assert_eq!(err.exit_code(), 2, "{bad:?} must be usage, not failure");
        }
        assert!(parse_args(&argv("price --frob 1"))
            .unwrap_err()
            .message()
            .contains("frob"));
    }

    #[test]
    fn price_reports_features() {
        let out = go("price --hr 0.95").unwrap();
        assert!(out.contains("doubling bus"));
        assert!(out.contains("write buffers"));
        assert!(out.contains("pipelined memory"));
        assert!(out.contains("HR=95.00%"), "{out}");
    }

    #[test]
    fn price_requires_hr() {
        let err = go("price").unwrap_err();
        assert_eq!(err.exit_code(), 2);
        assert!(err.message().contains("hr"));
    }

    #[test]
    fn crossover_matches_closed_form() {
        let out = go("crossover --chunks 8 --q 2").unwrap();
        assert!(out.contains("β_m > 4.67"));
        let never = go("crossover --chunks 2 --q 2").unwrap();
        assert!(never.contains("never"));
    }

    #[test]
    fn linesize_selects_and_agrees() {
        let out = go("linesize --c 7 --beta 1 --curve 8:0.90,16:0.94,32:0.962,64:0.97,128:0.972")
            .unwrap();
        assert!(out.contains("agree: true"));
    }

    #[test]
    fn curve_parsing_errors() {
        assert!(parse_curve("8:0.9,16").is_err());
        assert!(parse_curve("x:0.9").is_err());
        assert!(parse_curve("8:1.5").is_err());
        assert_eq!(parse_curve("8:0.9,16:0.95").unwrap().len(), 2);
    }

    #[test]
    fn simulate_runs_a_proxy() {
        let out = go("simulate --program ear --instructions 5000 --stall bnl3").unwrap();
        assert!(out.contains("ear"));
        assert!(out.contains("CPI"));
    }

    #[test]
    fn simulate_rejects_unknowns() {
        assert_eq!(go("simulate --program quake").unwrap_err().exit_code(), 2);
        assert_eq!(
            go("simulate --program ear --stall warp")
                .unwrap_err()
                .exit_code(),
            2
        );
    }

    #[test]
    fn design_finds_configurations_or_says_why_not() {
        let ok = go("design --hr 0.95 --target 5.0").unwrap();
        assert!(ok.contains("pins"), "{ok}");
        let nope = go("design --hr 0.5 --target 1.1").unwrap();
        assert!(nope.contains("No configuration"), "{nope}");
    }

    #[test]
    fn grid_runs_both_backends() {
        let sim = go("grid --backend sim --instructions 4000").unwrap();
        assert!(sim.contains("backend sim"), "{sim}");
        assert!(sim.contains("ear"));
        assert!(sim.contains("points/s"));
        let ana =
            go("grid --backend analytic --instructions 4000 --sets 32 --assoc 4 --target 0.5")
                .unwrap();
        assert!(ana.contains("backend analytic"), "{ana}");
        assert!(ana.contains("sets ×"), "{ana}");
    }

    #[test]
    fn grid_rejects_unknown_backend_as_usage() {
        // The satellite fix: a bad flag value is exit 2, not 1.
        let err = go("grid --backend magic").unwrap_err();
        assert_eq!(err.exit_code(), 2);
        assert!(err.message().contains("magic"), "{}", err.message());
    }

    #[test]
    fn help_and_unknown() {
        assert!(go("help").unwrap().contains("usage"));
        assert_eq!(go("frobnicate").unwrap_err().exit_code(), 2);
    }

    #[test]
    fn query_wire_output_is_the_dispatch_wire_form() {
        let req_text = r#"{"query":"crossover","chunks":8}"#;
        let out = run_cli(&[
            "query".to_string(),
            "--json".to_string(),
            req_text.to_string(),
        ])
        .unwrap();
        let req = QueryRequest::from_json_str(req_text).unwrap();
        let direct = api::dispatch(&req, &StoreWorkloads)
            .unwrap()
            .to_json_string();
        assert_eq!(out, direct, "CLI wire mode must be dispatch, verbatim");
        assert!(
            out.starts_with(r#"{"ok":true,"query":"crossover""#),
            "{out}"
        );
    }

    #[test]
    fn query_subcommand_validates_its_grammar() {
        // No action at all.
        assert_eq!(go("query").unwrap_err().exit_code(), 2);
        // --get and --shutdown need a server.
        assert_eq!(go("query --get stats").unwrap_err().exit_code(), 2);
        assert_eq!(go("query --shutdown").unwrap_err().exit_code(), 2);
        // Unknown --get target.
        assert_eq!(
            go("query --server 127.0.0.1:1 --get frob")
                .unwrap_err()
                .exit_code(),
            2
        );
        // Stray options are rejected.
        assert_eq!(go("query --frob 1").unwrap_err().exit_code(), 2);
        // Malformed request JSON is usage, not failure.
        let err = run_cli(&[
            "query".to_string(),
            "--json".to_string(),
            "{nope".to_string(),
        ])
        .unwrap_err();
        assert_eq!(err.exit_code(), 2);
        // Client mode forwards the request text it validated, verbatim,
        // and a bad request is usage before any connection is tried.
        let text = r#"{"query": "crossover", "chunks": 8}"#;
        let cmd =
            parse_args(&["query", "--server", "127.0.0.1:9", "--json", text].map(String::from))
                .unwrap();
        assert_eq!(
            cmd,
            Command::Client {
                addr: "127.0.0.1:9".to_string(),
                call: ClientCall::Query(text.to_string()),
                retries: 3,
            }
        );
        let err = go(r#"query --server 127.0.0.1:9 --json {"query":"price"}"#).unwrap_err();
        assert_eq!(err.exit_code(), 2, "{}", err.message());
        assert!(err.message().contains("\"hr\""), "{}", err.message());
        // A client call parses into a typed command.
        let cmd = parse_args(&[
            "query".to_string(),
            "--server".to_string(),
            "127.0.0.1:7878".to_string(),
            "--shutdown".to_string(),
        ])
        .unwrap();
        assert_eq!(
            cmd,
            Command::Client {
                addr: "127.0.0.1:7878".to_string(),
                call: ClientCall::Shutdown { token: None },
                retries: 3,
            }
        );
        // --token rides along with --shutdown, and only with it.
        let cmd = parse_args(&argv(
            "query --server 127.0.0.1:7878 --shutdown --token s3cret",
        ))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Client {
                addr: "127.0.0.1:7878".to_string(),
                call: ClientCall::Shutdown {
                    token: Some("s3cret".to_string()),
                },
                retries: 3,
            }
        );
        let err = go("query --server 127.0.0.1:1 --get stats --token x").unwrap_err();
        assert_eq!(err.exit_code(), 2);
        assert!(err.message().contains("token"), "{}", err.message());
        // --retries parses in server mode and is rejected elsewhere.
        let cmd = parse_args(&argv(
            "query --server 127.0.0.1:7878 --get stats --retries 0",
        ))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Client {
                addr: "127.0.0.1:7878".to_string(),
                call: ClientCall::Stats,
                retries: 0,
            }
        );
        assert_eq!(
            go(r#"query --json {"query":"experiments"} --retries 2"#)
                .unwrap_err()
                .exit_code(),
            2,
            "--retries without --server is a usage error"
        );
        assert_eq!(
            go("query --server 127.0.0.1:1 --get stats --retries nope")
                .unwrap_err()
                .exit_code(),
            2
        );
    }

    #[test]
    fn client_mode_reports_connection_failures_as_failures() {
        // Nothing listens on a fresh ephemeral port that we bind and
        // immediately close — keep the OS from having a listener there.
        let err = go("query --server 127.0.0.1:9 --get stats").unwrap_err();
        assert_eq!(err.exit_code(), 1, "{}", err.message());
    }

    #[test]
    fn workloads_subcommand_lists_shows_and_validates() {
        let list = go("workloads").unwrap();
        for name in ["nasa7", "swm256", "wave5", "ear", "doduc", "hydro2d"] {
            assert!(list.contains(name), "missing {name} in {list}");
        }
        assert_eq!(go("workloads list").unwrap(), list);

        let shown = go("workloads show --name ear").unwrap();
        assert!(shown.contains("\"kind\""), "{shown}");
        assert!(shown.contains("ear ("), "{shown}");
        assert_eq!(
            go("workloads show --name quake").unwrap_err().exit_code(),
            2
        );
        assert_eq!(go("workloads show").unwrap_err().exit_code(), 2);
        assert_eq!(go("workloads frobnicate").unwrap_err().exit_code(), 2);
        assert_eq!(
            go("workloads list --name x").unwrap_err().exit_code(),
            2,
            "stray workloads flags are usage errors"
        );

        let dir = std::env::temp_dir().join("cli_workloads_validate_test");
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("spec.json");
        std::fs::write(
            &file,
            r#"{"name":"tiny","pattern":{"kind":"working_set","base":0,"bytes":4096,"store_fraction":0.2,"elem_size":8}}"#,
        )
        .unwrap();
        let out = go(&format!("workloads validate --file {}", file.display())).unwrap();
        assert!(out.contains("valid: tiny"), "{out}");
        std::fs::write(&file, r#"{"pattern":{"kind":"warp"}}"#).unwrap();
        let err = go(&format!("workloads validate --file {}", file.display())).unwrap_err();
        assert_eq!(err.exit_code(), 2);
        let err = go("workloads validate --file /no/such/spec.json").unwrap_err();
        assert_eq!(err.exit_code(), 2);
        assert!(err.message().contains("reading"), "{}", err.message());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn workload_file_answers_like_the_inline_wire_form() {
        // `simulate --workload-file F` must be the same dispatch as the
        // wire request carrying the parsed spec inline.
        let dir = std::env::temp_dir().join("cli_workload_file_test");
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("spec.json");
        let spec = r#"{"name":"probe","pattern":{"kind":"strided","base":0,"region_bytes":8192,"stride":16,"elem_size":8,"store_period":4}}"#;
        std::fs::write(&file, spec).unwrap();
        let via_file = go(&format!(
            "simulate --workload-file {} --instructions 4000",
            file.display()
        ))
        .unwrap();
        let req_text = format!(r#"{{"query":"simulate","workload":{spec},"instructions":4000}}"#);
        let req = QueryRequest::from_json_str(&req_text).unwrap();
        let resp = api::dispatch(&req, &StoreWorkloads).unwrap();
        assert_eq!(via_file, render(&req, &resp, 0.0));
        assert!(via_file.contains("probe"), "{via_file}");

        let grid = go(&format!(
            "grid --backend analytic --instructions 4000 --workload-file {} \
             --sets 16 --assoc 2 --target 0.5",
            file.display()
        ))
        .unwrap();
        assert!(grid.contains("probe"), "{grid}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn experiments_is_not_a_subcommand() {
        // The registry's front-end is the `exp` binary; the CLI answers
        // queries only.
        for args in [
            "experiments",
            "experiments list",
            "experiments run --filter fig2",
        ] {
            let err = go(args).unwrap_err();
            assert_eq!(err.exit_code(), 2, "{args:?}");
            assert!(err.message().contains("unknown subcommand"), "{args:?}");
        }
    }

    #[test]
    fn cli_errors_map_to_distinct_exit_codes() {
        let usage = go("frobnicate").unwrap_err();
        assert_eq!(usage.exit_code(), 2);
        let failure = CliError::Failure("server unreachable".into());
        assert_eq!(failure.exit_code(), 1);
        assert_eq!(failure.message(), "server unreachable");
    }
}
