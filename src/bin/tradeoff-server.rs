//! The `tradeoff-server` binary: a long-running HTTP/JSON query
//! service over the typed `tradeoff::api` dispatch, keeping the trace
//! store warm across requests.
//!
//! ```text
//! tradeoff-server [--addr 127.0.0.1:7878] [--threads N] [--addr-file PATH]
//!                 [--queue N] [--max-inflight N] [--request-timeout SECS]
//!                 [--idle-timeout SECS] [--max-requests N]
//!                 [--shutdown-token TOKEN]
//! ```
//!
//! Endpoints: `POST /query`, `GET /experiments`, `GET /stats`,
//! `POST /shutdown` (token-guarded when `--shutdown-token` is set,
//! loopback-only otherwise). Overload policy: beyond `--max-inflight`
//! connections the acceptor sheds with `503`; over the `--queue`
//! watermark only cheap requests are admitted. `--request-timeout`
//! bounds each request (header-overridable downward), `--idle-timeout`
//! reaps idle and slow-loris connections, `--max-requests` caps one
//! keep-alive connection. Exit codes: `0` after a graceful shutdown,
//! `1` on bind or I/O failure, `2` on bad usage (including a malformed
//! setting that `bench::common::check_settings` validates).

use std::time::Duration;
use unified_tradeoff::server::{serve, ServerConfig};

fn usage() -> String {
    "usage: tradeoff-server [--addr HOST:PORT] [--threads N] [--addr-file PATH]\n\
     \u{20}                      [--queue N] [--max-inflight N]\n\
     \u{20}                      [--request-timeout SECS] [--idle-timeout SECS]\n\
     \u{20}                      [--max-requests N] [--shutdown-token TOKEN]\n\
     \n\
     Serves POST /query, GET /experiments, GET /stats and POST /shutdown\n\
     over the typed tradeoff::api dispatch. Bind port 0 for an ephemeral\n\
     port; --addr-file records the actual bound address after startup.\n\
     Overload policy: --max-inflight caps concurrent connections (beyond\n\
     it the acceptor sheds 503 + Retry-After); over the --queue dispatch\n\
     watermark expensive queries (simulate/grid) are shed while cheap\n\
     ones are admitted. --request-timeout SECS bounds each request from\n\
     its first byte (0 disables; clients may lower it per request via\n\
     X-Request-Timeout-Ms), --idle-timeout reaps idle keep-alive and\n\
     slow-loris peers, --max-requests caps requests per connection.\n\
     With --shutdown-token, POST /shutdown must carry {\"token\": …};\n\
     without it, only loopback peers may stop the server.\n\
     Exit codes: 0 graceful shutdown, 1 I/O failure, 2 bad usage"
        .to_string()
}

fn parse_secs(key: &str, value: &str) -> Result<Duration, String> {
    let secs: f64 = value
        .parse()
        .map_err(|_| format!("{key}: not a number of seconds: {value:?}"))?;
    if !secs.is_finite() || secs < 0.0 {
        return Err(format!("{key}: must be a finite non-negative number"));
    }
    Ok(Duration::from_secs_f64(secs))
}

fn parse(args: &[String]) -> Result<ServerConfig, String> {
    let mut cfg = ServerConfig::default();
    let mut it = args.iter();
    while let Some(key) = it.next() {
        if key == "--help" || key == "-h" || key == "help" {
            return Err(usage());
        }
        let value = it.next().ok_or(format!("{key} needs a value"))?;
        match key.as_str() {
            "--addr" => cfg.addr = value.clone(),
            "--threads" => {
                cfg.threads = value
                    .parse()
                    .map_err(|_| format!("--threads: not an integer: {value:?}"))?;
                if cfg.threads == 0 {
                    return Err("--threads must be at least 1".to_string());
                }
            }
            "--queue" => {
                cfg.queue = value
                    .parse()
                    .map_err(|_| format!("--queue: not an integer: {value:?}"))?;
            }
            "--max-inflight" => {
                cfg.max_inflight = value
                    .parse()
                    .map_err(|_| format!("--max-inflight: not an integer: {value:?}"))?;
                if cfg.max_inflight == 0 {
                    return Err("--max-inflight must be at least 1".to_string());
                }
            }
            "--request-timeout" => cfg.request_timeout = parse_secs(key, value)?,
            "--idle-timeout" => {
                cfg.idle_timeout = parse_secs(key, value)?;
                if cfg.idle_timeout.is_zero() {
                    return Err("--idle-timeout must be positive".to_string());
                }
            }
            "--max-requests" => {
                cfg.max_requests_per_conn = value
                    .parse()
                    .map_err(|_| format!("--max-requests: not an integer: {value:?}"))?;
                if cfg.max_requests_per_conn == 0 {
                    return Err("--max-requests must be at least 1".to_string());
                }
            }
            "--addr-file" => cfg.addr_file = Some(std::path::PathBuf::from(value)),
            "--shutdown-token" => cfg.shutdown_token = Some(value.clone()),
            other => return Err(format!("unknown option {other:?}\n{}", usage())),
        }
    }
    Ok(cfg)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match bench::common::check_settings().and_then(|()| parse(&args)) {
        Ok(cfg) => cfg,
        Err(message) => {
            eprintln!("{message}");
            std::process::exit(2);
        }
    };
    if let Err(e) = serve(&cfg) {
        eprintln!("tradeoff-server: {e}");
        std::process::exit(1);
    }
}
