//! One-dispatch-path contract: for every supported query shape, the
//! CLI's wire mode, the CLI's human report, and a direct
//! `tradeoff::api::dispatch` call agree; the memoising store answers
//! what the from-scratch reference does — plus a binary-level audit of
//! the exit-code mapping.

use bench::queryenv::StoreWorkloads;
use proptest::prelude::*;
use simtrace::WorkloadSpec;
use std::process::Command;
use tradeoff::api::{dispatch, GridQuery, QueryRequest, SimulateQuery, Uncached, WorkloadRef};
use unified_tradeoff::cli::run_cli;

mod common;

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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Store against reference: a random spec at a random seed, asked
    /// as a φ point and as a small analytic grid at two lengths, renders
    /// the same JSON through the memoising `StoreWorkloads` as through
    /// the from-scratch `Uncached`. The second length catches a memo
    /// key that ignores the length.
    #[test]
    fn random_specs_answer_alike_from_the_store_and_from_scratch(
        json in common::spec_json(),
        seed in any::<u64>(),
        short in 1usize..10_001,
        extra in 1usize..10_001,
        stall in prop_oneof![Just("fs"), Just("bl"), Just("bnl3"), Just("nb")],
    ) {
        let spec = WorkloadSpec::from_json(&json).expect("generated specs are valid");
        for len in [short, short + extra] {
            let simulate = QueryRequest::Simulate(SimulateQuery {
                workload: WorkloadRef::Inline(spec.clone()),
                instructions: len,
                stall: stall.to_string(),
                seed,
                ..SimulateQuery::default()
            });
            let grid = QueryRequest::Grid(GridQuery {
                instructions: len,
                max_sets: 64,
                max_assoc: 4,
                workloads: vec![spec.clone()],
                ..GridQuery::default()
            });
            for req in [simulate, grid] {
                let stored = dispatch(&req, &StoreWorkloads).expect("valid query");
                let reference = dispatch(&req, &Uncached).expect("valid query");
                prop_assert_eq!(
                    stored.to_json_string(),
                    reference.to_json_string(),
                    "{} len={} spec={}",
                    req.kind(),
                    len,
                    json.render()
                );
            }
        }
    }
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
    // The experiments are `exp`'s: here they are an unknown subcommand.
    assert_eq!(cli_code(&["experiments", "run", "--filter", "fig2"]), 2);
    // A malformed setting is rejected by name at startup, in both
    // binaries: a trace length instead of the default length, a trace
    // budget instead of a silent "no cap", a fault plan instead of a
    // panic at the first fault check or a server that binds and then
    // drops connections.
    let addr_file = std::env::temp_dir().join(format!("rejected-addr-{}", std::process::id()));
    let addr_arg = addr_file.to_str().expect("UTF-8 temp path");
    for (var, value) in [
        ("REPRO_INSTRUCTIONS", "12x"),
        ("REPRO_TRACE_BUDGET", "8MB"),
        ("REPRO_FAULTS", "bogus"),
        ("REPRO_FAULTS", "run:fig2:explode"),
        ("REPRO_FAULTS", "run:fig2:io:*"),
    ] {
        for (bin, args) in [
            (
                env!("CARGO_BIN_EXE_tradeoff-cli"),
                &["crossover", "--chunks", "8"][..],
            ),
            (
                env!("CARGO_BIN_EXE_tradeoff-server"),
                &["--addr", "127.0.0.1:0", "--addr-file", addr_arg][..],
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
    assert!(!addr_file.exists(), "a rejected server never binds");
    // 1: failure class — client mode against a dead port.
    assert_eq!(
        cli_code(&["query", "--server", "127.0.0.1:9", "--get", "stats"]),
        1
    );
}
