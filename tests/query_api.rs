//! One-dispatch-path contract: for every supported query shape, the
//! CLI's wire mode, the CLI's human report, and a direct
//! `tradeoff::api::dispatch` call agree — plus a binary-level audit of
//! the exit-code mapping.

use bench::queryenv::StoreWorkloads;
use std::process::Command;
use tradeoff::api::{dispatch, QueryRequest};
use unified_tradeoff::cli::run_cli;

/// Every query shape, as wire requests.
const REQUESTS: [&str; 11] = [
    r#"{"query":"price","hr":0.95}"#,
    r#"{"query":"crossover","chunks":8}"#,
    r#"{"query":"linesize","c":7,"beta":1,"curve":[[8,0.90],[16,0.94],[32,0.962],[64,0.97],[128,0.972]]}"#,
    r#"{"query":"design","hr":0.95,"target":5.0}"#,
    r#"{"query":"simulate","program":"ear","instructions":5000,"stall":"bnl3"}"#,
    r#"{"query":"simulate","workload":{"name":"probe","pattern":{"kind":"working_set","base":0,"bytes":8192,"store_fraction":0.25,"elem_size":8}},"instructions":5000}"#,
    r#"{"query":"grid","backend":"analytic","instructions":4000,"sets":32,"assoc":4,"target":0.5,"programs":["ear"]}"#,
    r#"{"query":"experiments"}"#,
    r#"{"query":"workloads"}"#,
    r#"{"query":"workloads","action":"show","name":"ear"}"#,
    r#"{"query":"workloads","action":"validate","workload":{"pattern":{"kind":"strided","base":0,"region_bytes":4096,"stride":8,"elem_size":8,"store_period":3}}}"#,
];

#[test]
fn every_query_shape_is_answered_by_the_same_dispatch_call() {
    for req_text in REQUESTS {
        let req = QueryRequest::from_json_str(req_text).expect(req_text);
        let direct = dispatch(&req, &StoreWorkloads)
            .expect(req_text)
            .to_json_string();
        let via_cli = run_cli(&[
            "query".to_string(),
            "--json".to_string(),
            req_text.to_string(),
        ])
        .expect(req_text);
        assert_eq!(via_cli, direct, "wire divergence for {req_text}");
        // The wire form is stable JSON that parses back.
        let value = report::Json::parse(&direct).expect(req_text);
        assert_eq!(value.get("ok").and_then(report::Json::as_bool), Some(true));
        assert_eq!(
            value.get("query").and_then(report::Json::as_str),
            Some(req.kind())
        );
    }
}

#[test]
fn human_subcommands_ride_the_typed_requests() {
    // Same request, two frontends: `--key value` flags and wire JSON
    // must parse to the same typed request.
    let flags = run_cli(&[
        "crossover".to_string(),
        "--chunks".to_string(),
        "8".to_string(),
    ])
    .unwrap();
    assert!(flags.contains("β_m > 4.67"), "{flags}");
    let wire_req = QueryRequest::from_json_str(r#"{"query":"crossover","chunks":8}"#).unwrap();
    let from_flags = match unified_tradeoff::cli::parse_args(&[
        "crossover".to_string(),
        "--chunks".to_string(),
        "8".to_string(),
    ])
    .unwrap()
    {
        unified_tradeoff::cli::Command::Report(req) => req,
        other => panic!("expected a report command, got {other:?}"),
    };
    assert_eq!(from_flags, wire_req);
}

/// Runs the CLI binary, returning its exit code.
fn cli_code(args: &[&str]) -> i32 {
    Command::new(env!("CARGO_BIN_EXE_tradeoff-cli"))
        .args(args)
        .output()
        .expect("cli binary runs")
        .status
        .code()
        .unwrap_or(-1)
}

#[test]
fn binary_exit_codes_follow_the_documented_scheme() {
    // 0: success.
    assert_eq!(cli_code(&["crossover", "--chunks", "8"]), 0);
    // 2: bad usage — unknown subcommand, missing required flag,
    // unknown flag, and (the satellite fix) unknown flag *values*.
    assert_eq!(cli_code(&["frobnicate"]), 2);
    assert_eq!(cli_code(&["price"]), 2);
    assert_eq!(cli_code(&["price", "--hr", "0.95", "--frob", "1"]), 2);
    assert_eq!(cli_code(&["grid", "--backend", "magic"]), 2);
    assert_eq!(cli_code(&["simulate", "--program", "quake"]), 2);
    assert_eq!(
        cli_code(&["experiments", "run", "--filter", "no-such-tag"]),
        2
    );
    // A malformed trace length is rejected by name, not replaced by the
    // default length.
    let out = Command::new(env!("CARGO_BIN_EXE_tradeoff-cli"))
        .args(["experiments", "run", "--filter", "xover", "--results-dir"])
        .arg(std::env::temp_dir().join("repro-malformed-instructions"))
        .env("REPRO_INSTRUCTIONS", "12x")
        .output()
        .expect("cli binary runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("REPRO_INSTRUCTIONS=\"12x\""));
    // So are a malformed chunk length and trace budget, at startup and
    // in both binaries, instead of a silent default or "no cap".
    for (var, value) in [
        ("REPRO_STREAM_CHUNK", "64k"),
        ("REPRO_STREAM_CHUNK", "0"),
        ("REPRO_TRACE_BUDGET", "8MB"),
    ] {
        for (bin, args) in [
            (
                env!("CARGO_BIN_EXE_tradeoff-cli"),
                &["crossover", "--chunks", "8"][..],
            ),
            (
                env!("CARGO_BIN_EXE_tradeoff-server"),
                &["--addr", "127.0.0.1:0"][..],
            ),
        ] {
            let out = Command::new(bin)
                .args(args)
                .env(var, value)
                .output()
                .expect("binary runs");
            assert_eq!(out.status.code(), Some(2), "{bin} {var}={value}");
            let named = format!("{var}={value:?}");
            assert!(
                String::from_utf8_lossy(&out.stderr).contains(&named),
                "{bin}: stderr must name {named}"
            );
        }
    }
    // 1: failure class — client mode against a dead port.
    assert_eq!(
        cli_code(&["query", "--server", "127.0.0.1:9", "--get", "stats"]),
        1
    );
}
