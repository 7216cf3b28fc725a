//! End-to-end tests of the `tradeoff-server` binary: ephemeral-port
//! startup, CLI/server byte parity, request coalescing under
//! concurrency, `/stats` accounting, and graceful shutdown.

use report::Json;
use std::io::{Read, Write};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};
use unified_tradeoff::server::{http_call, http_request, HttpClient};

/// A running server child, killed on drop so a failing assertion never
/// leaks the process.
struct ServerGuard {
    child: Child,
    addr: String,
}

impl Drop for ServerGuard {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn spawn_server(tag: &str) -> ServerGuard {
    spawn_server_with(tag, &[])
}

fn spawn_server_with(tag: &str, extra: &[&str]) -> ServerGuard {
    spawn_server_env(tag, extra, &[])
}

/// Spawns the server binary with extra flags and environment (the
/// fault-injection tests arm `REPRO_FAULTS` in the child only, so the
/// test process itself stays unfaulted).
fn spawn_server_env(tag: &str, extra: &[&str], envs: &[(&str, &str)]) -> ServerGuard {
    let dir =
        std::env::temp_dir().join(format!("tradeoff_server_e2e_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    let addr_file = dir.join("addr");
    let mut command = Command::new(env!("CARGO_BIN_EXE_tradeoff-server"));
    command
        .args([
            "--addr",
            "127.0.0.1:0",
            "--threads",
            "4",
            "--addr-file",
            addr_file.to_str().unwrap(),
        ])
        .args(extra)
        .stdout(Stdio::null())
        .stderr(Stdio::null());
    for (key, value) in envs {
        command.env(key, value);
    }
    let child = command.spawn().expect("server binary spawns");
    let deadline = Instant::now() + Duration::from_secs(30);
    let addr = loop {
        if let Ok(text) = std::fs::read_to_string(&addr_file) {
            let text = text.trim();
            if !text.is_empty() {
                break text.to_string();
            }
        }
        assert!(Instant::now() < deadline, "server never wrote its address");
        std::thread::sleep(Duration::from_millis(10));
    };
    ServerGuard { child, addr }
}

/// Runs the CLI binary and returns (exit code, stdout).
fn cli(args: &[&str]) -> (i32, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_tradeoff-cli"))
        .args(args)
        .output()
        .expect("cli binary runs");
    (
        out.status.code().unwrap_or(-1),
        String::from_utf8(out.stdout).expect("utf-8 stdout"),
    )
}

/// A simulate request: its answer requires a timeline extraction, so N
/// concurrent copies exercise the store's key-gate coalescing.
const SIMULATE: &str =
    r#"{"query":"simulate","program":"ear","instructions":50000,"stall":"bnl3"}"#;

#[test]
fn concurrent_queries_coalesce_onto_one_extraction_and_match_the_cli() {
    let server = spawn_server("coalesce");
    let addr = server.addr.clone();

    // A fresh server has done no store work: counters start at zero.
    let (status, body) = http_call(&addr, "GET", "/stats", None).unwrap();
    assert_eq!(status, 200);
    let stats = Json::parse(body.trim()).unwrap();
    let store = stats.get("store").unwrap();
    assert_eq!(store.get("timeline_misses").unwrap().as_u64(), Some(0));

    // N concurrent POST /query sharing one trace key.
    const N: usize = 6;
    let bodies: Vec<String> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..N)
            .map(|_| {
                let addr = addr.clone();
                s.spawn(move || {
                    let (status, body) =
                        http_call(&addr, "POST", "/query", Some(SIMULATE)).unwrap();
                    assert_eq!(status, 200, "{body}");
                    body
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for b in &bodies[1..] {
        assert_eq!(b, &bodies[0], "all concurrent answers are identical");
    }

    // The acceptance criterion: exactly one extraction for the shared
    // key, every other request served from the memo.
    let (_, body) = http_call(&addr, "GET", "/stats", None).unwrap();
    let stats = Json::parse(body.trim()).unwrap();
    let store = stats.get("store").unwrap();
    assert_eq!(
        store.get("timeline_misses").unwrap().as_u64(),
        Some(1),
        "N concurrent same-key queries must trigger exactly one extraction: {body}"
    );
    assert_eq!(
        store.get("timeline_hits").unwrap().as_u64(),
        Some((N - 1) as u64)
    );

    // Server latency accounting saw every request.
    let server_stats = stats.get("server").unwrap();
    assert!(server_stats.get("requests").unwrap().as_u64().unwrap() >= (N + 2) as u64);
    let query_stats = server_stats.get("queries").unwrap().get("query").unwrap();
    assert_eq!(query_stats.get("count").unwrap().as_u64(), Some(N as u64));
    assert!(query_stats.get("max_micros").unwrap().as_u64().unwrap() > 0);

    // Byte parity with the CLI, both modes: local dispatch and client.
    let (code, local) = cli(&["query", "--json", SIMULATE]);
    assert_eq!(code, 0);
    assert_eq!(
        local, bodies[0],
        "POST /query body and CLI stdout must be byte-identical"
    );
    let (code, remote) = cli(&["query", "--server", &addr, "--json", SIMULATE]);
    assert_eq!(code, 0);
    assert_eq!(remote, bodies[0]);

    // GET /experiments is the experiments query verbatim.
    let (status, listing) = http_call(&addr, "GET", "/experiments", None).unwrap();
    assert_eq!(status, 200);
    let (code, cli_listing) = cli(&["query", "--json", r#"{"query":"experiments"}"#]);
    assert_eq!(code, 0);
    assert_eq!(listing, cli_listing);

    // Typed errors reach the client with usage-class exit codes.
    let (code, _) = cli(&[
        "query",
        "--server",
        &addr,
        "--json",
        r#"{"query":"simulate","program":"quake"}"#,
    ]);
    assert_eq!(code, 2, "a server-rejected request is bad usage");
}

/// An inline custom spec — not one of the six builtins.
const INLINE_SIMULATE: &str = r#"{"query":"simulate","workload":{"name":"custom-probe","seed_mix":"0xfeed","pattern":{"kind":"mixture","components":[{"weight":3,"pattern":{"kind":"working_set","base":0,"bytes":16384,"store_fraction":0.3,"elem_size":8}},{"weight":1,"pattern":{"kind":"strided","base":1048576,"region_bytes":65536,"stride":64,"elem_size":8,"store_period":5}}]}},"instructions":30000}"#;

#[test]
fn inline_specs_answer_identically_over_http_and_cli() {
    let server = spawn_server("inline");
    let addr = server.addr.clone();

    // The acceptance criterion: an inline custom spec answers
    // byte-identically via `tradeoff-cli query --json` and POST /query.
    let (status, http_body) = http_call(&addr, "POST", "/query", Some(INLINE_SIMULATE)).unwrap();
    assert_eq!(status, 200, "{http_body}");
    assert!(http_body.contains(r#""query":"simulate""#), "{http_body}");
    let (code, cli_body) = cli(&["query", "--json", INLINE_SIMULATE]);
    assert_eq!(code, 0);
    assert_eq!(
        cli_body, http_body,
        "inline-spec answers must be byte-identical across frontends"
    );

    // The workloads catalogue is served through the same dispatch.
    let (status, listing) =
        http_call(&addr, "POST", "/query", Some(r#"{"query":"workloads"}"#)).unwrap();
    assert_eq!(status, 200);
    assert!(listing.contains("hydro2d"), "{listing}");

    let (code, _) = cli(&["query", "--server", &addr, "--shutdown"]);
    assert_eq!(code, 0);
}

#[test]
fn shutdown_token_gates_remote_stops() {
    let mut server = spawn_server_with("token", &["--shutdown-token", "s3cret"]);
    let addr = server.addr.clone();

    // Without the token the stop is refused — 403, usage-class exit.
    let (status, body) = http_call(&addr, "POST", "/shutdown", None).unwrap();
    assert_eq!(status, 403, "{body}");
    assert!(body.contains("forbidden"), "{body}");
    let (code, _) = cli(&["query", "--server", &addr, "--shutdown"]);
    assert_eq!(code, 2, "a refused shutdown is usage-class at the CLI");
    let (status, body) =
        http_call(&addr, "POST", "/shutdown", Some(r#"{"token":"wrong"}"#)).unwrap();
    assert_eq!(status, 403, "{body}");

    // A malformed body is a 400 that names the problem, not a 403.
    for (request, names) in [
        (r#"{"token": "s3cret""#, "malformed JSON"),
        (
            r#"{"token": "s3cret", "force": true}"#,
            r#"\"force\" is an unknown key"#,
        ),
        (r#"{"token": 5}"#, r#"\"token\" must be a string"#),
    ] {
        let (status, body) = http_call(&addr, "POST", "/shutdown", Some(request)).unwrap();
        assert_eq!(status, 400, "{request}: {body}");
        assert!(body.contains("bad-request"), "{body}");
        assert!(body.contains(names), "{request}: {body}");
    }

    // The server kept serving through all of that.
    let (status, _) = http_call(&addr, "GET", "/stats", None).unwrap();
    assert_eq!(status, 200);

    // With the token the stop drains and the process exits 0.
    let (code, _) = cli(&[
        "query",
        "--server",
        &addr,
        "--shutdown",
        "--token",
        "s3cret",
    ]);
    assert_eq!(code, 0);
    let deadline = Instant::now() + Duration::from_secs(30);
    let status = loop {
        if let Some(status) = server.child.try_wait().expect("child pollable") {
            break status;
        }
        assert!(
            Instant::now() < deadline,
            "server did not stop after an authorised shutdown"
        );
        std::thread::sleep(Duration::from_millis(10));
    };
    assert!(status.success(), "authorised shutdown exits 0: {status:?}");
}

#[test]
fn shutdown_drains_and_exits_zero() {
    let mut server = spawn_server("shutdown");
    let addr = server.addr.clone();

    // Put real work through first so the drain has something behind it.
    let (status, _) = http_call(&addr, "POST", "/query", Some(SIMULATE)).unwrap();
    assert_eq!(status, 200);

    let (code, _) = cli(&["query", "--server", &addr, "--shutdown"]);
    assert_eq!(code, 0);

    let deadline = Instant::now() + Duration::from_secs(30);
    let status = loop {
        if let Some(status) = server.child.try_wait().expect("child pollable") {
            break status;
        }
        assert!(
            Instant::now() < deadline,
            "server did not stop after shutdown"
        );
        std::thread::sleep(Duration::from_millis(10));
    };
    assert!(
        status.success(),
        "graceful shutdown must exit 0: {status:?}"
    );

    // The listener is gone: a follow-up call fails client-side.
    let mut err = String::new();
    let failed = http_call(&addr, "GET", "/stats", None).is_err() || {
        // A TIME_WAIT race can still accept; tolerate either refusal
        // or an immediately closed connection.
        err.clear();
        std::net::TcpStream::connect(&addr)
            .and_then(|mut s| s.read_to_string(&mut err))
            .map(|n| n == 0)
            .unwrap_or(true)
    };
    assert!(failed, "no server should answer after shutdown");
}

/// A cheap analytic query, used where the test wants a fast round trip.
const PRICE: &str = r#"{"query":"price","hr":0.95}"#;

/// Fetches the parsed `/stats` document.
fn stats_doc(addr: &str) -> Json {
    let (status, body) = http_call(addr, "GET", "/stats", None).unwrap();
    assert_eq!(status, 200, "{body}");
    Json::parse(body.trim()).expect("stats is valid JSON")
}

#[test]
fn a_poisoned_query_answers_500_and_leaves_the_pool_intact() {
    // One armed handler panic, two workers: the first query is
    // poisoned, everything after it must still be served by a
    // full-size pool.
    let server = spawn_server_env(
        "panic",
        &["--threads", "2"],
        &[("REPRO_FAULTS", "dispatch:serve:panic:1")],
    );
    let addr = server.addr.clone();

    let (status, body) = http_call(&addr, "POST", "/query", Some(PRICE)).unwrap();
    assert_eq!(status, 500, "{body}");
    assert!(body.contains("internal"), "{body}");
    assert!(body.contains("panicked"), "{body}");

    // The regression: capacity is intact. Both workers still answer,
    // and /stats asserts the pool invariant.
    for _ in 0..4 {
        let (status, body) = http_call(&addr, "POST", "/query", Some(PRICE)).unwrap();
        assert_eq!(
            status, 200,
            "a poisoned query must not shrink the pool: {body}"
        );
    }
    let stats = stats_doc(&addr);
    let srv = stats.get("server").unwrap();
    assert_eq!(srv.get("panics_contained").unwrap().as_u64(), Some(1));
    let pool = srv.get("pool").unwrap();
    assert_eq!(
        pool.get("alive").unwrap().as_u64(),
        pool.get("size").unwrap().as_u64(),
        "pool size is an invariant: {stats:?}"
    );
    assert_eq!(pool.get("size").unwrap().as_u64(), Some(2));
}

#[test]
fn a_hung_handler_answers_504_deadline_exceeded() {
    // One armed 60 s hang against a 500 ms request budget: the deadline
    // cuts the handler's sleep short and it answers 504 instead of
    // wedging a worker.
    let server = spawn_server_env(
        "hang",
        &["--threads", "2", "--request-timeout", "0.5"],
        &[("REPRO_FAULTS", "dispatch:serve:delay60000:1")],
    );
    let addr = server.addr.clone();

    let started = Instant::now();
    let (status, body) = http_call(&addr, "POST", "/query", Some(PRICE)).unwrap();
    assert_eq!(status, 504, "{body}");
    assert!(body.contains("deadline-exceeded"), "{body}");
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "the 504 must arrive at the deadline, not after the hang"
    );

    // The worker that hit the hang is still serving.
    let (status, _) = http_call(&addr, "POST", "/query", Some(PRICE)).unwrap();
    assert_eq!(status, 200);
    let stats = stats_doc(&addr);
    let srv = stats.get("server").unwrap();
    assert!(srv.get("deadline_timeouts").unwrap().as_u64().unwrap() >= 1);
    let pool = srv.get("pool").unwrap();
    assert_eq!(
        pool.get("alive").unwrap().as_u64(),
        pool.get("size").unwrap().as_u64()
    );
}

/// The server child's OS thread count (`Threads:` in its
/// `/proc/<pid>/status`).
#[cfg(target_os = "linux")]
fn server_threads(server: &ServerGuard) -> u64 {
    let status = std::fs::read_to_string(format!("/proc/{}/status", server.child.id()))
        .expect("server status readable");
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|n| n.trim().parse().ok())
        .expect("Threads: line")
}

#[cfg(target_os = "linux")]
#[test]
fn cancelled_work_frees_its_thread() {
    let server = spawn_server_with("cancel", &["--threads", "2"]);
    let addr = server.addr.clone();
    let (status, _) = http_call(&addr, "POST", "/query", Some(PRICE)).unwrap();
    assert_eq!(status, 200);
    let idle = server_threads(&server);

    // A cold 50 M-instruction extraction takes seconds; its budget is
    // 100 ms. Cancellation must stop the work itself, not just answer.
    let heavy = r#"{"query":"simulate","program":"ear","instructions":50000000}"#;
    let mut client = HttpClient::connect(&addr).unwrap();
    let reply = client
        .call_with_headers(
            "POST",
            "/query",
            Some(heavy),
            "X-Request-Timeout-Ms: 100\r\n",
        )
        .unwrap();
    assert_eq!(reply.status, 504, "{}", reply.body);
    assert!(reply.body.contains("deadline-exceeded"), "{}", reply.body);
    let answered = Instant::now();
    while server_threads(&server) != idle {
        assert!(
            answered.elapsed() < Duration::from_secs(1),
            "{} threads a second after the 504, {idle} when idle",
            server_threads(&server)
        );
        std::thread::sleep(Duration::from_millis(10));
    }

    let (status, body) = http_call(&addr, "POST", "/query", Some(SIMULATE)).unwrap();
    assert_eq!(status, 200, "{body}");
}

#[test]
fn the_deadline_header_lowers_the_budget_per_request() {
    // A generous server budget, but the client asks for 1 ms and hits
    // an armed 2 s slow-read: only this request times out.
    let server = spawn_server_env(
        "hdr",
        &["--threads", "2"],
        &[("REPRO_FAULTS", "dispatch:serve:delay2000:1")],
    );
    let addr = server.addr.clone();

    let mut client = HttpClient::connect(&addr).unwrap();
    let reply = client
        .call_with_headers("POST", "/query", Some(PRICE), "X-Request-Timeout-Ms: 1\r\n")
        .unwrap();
    assert_eq!(reply.status, 504, "{}", reply.body);

    // Without the header the same budget-free request succeeds.
    let (status, _) = http_call(&addr, "POST", "/query", Some(PRICE)).unwrap();
    assert_eq!(status, 200);
}

#[test]
fn keepalive_connections_are_reused_and_counted() {
    let server = spawn_server("keepalive");
    let addr = server.addr.clone();

    const CALLS: usize = 5;
    let mut client = HttpClient::connect(&addr).unwrap();
    let first = client.call("POST", "/query", Some(PRICE)).unwrap();
    assert_eq!(first.status, 200, "{}", first.body);
    for _ in 1..CALLS {
        let again = client.call("POST", "/query", Some(PRICE)).unwrap();
        assert_eq!(again.status, 200);
        assert_eq!(again.body, first.body, "keep-alive answers are stable");
    }

    let stats = stats_doc(&addr);
    let conns = stats.get("server").unwrap().get("connections").unwrap();
    assert!(
        conns.get("keepalive_reuses").unwrap().as_u64().unwrap() >= (CALLS - 1) as u64,
        "{stats:?}"
    );
    // One persistent connection carried all five queries.
    assert!(
        conns.get("accepted").unwrap().as_u64().unwrap() <= 3,
        "{stats:?}"
    );
}

#[test]
fn cli_retries_ride_out_accept_sheds_until_success() {
    // The first two accepted connections are shed with 503 +
    // Retry-After; a retrying CLI client must land on the third
    // attempt and still get byte-identical output.
    let server = spawn_server_env(
        "retry",
        &["--threads", "2"],
        &[("REPRO_FAULTS", "accept:serve:io:2")],
    );
    let addr = server.addr.clone();

    let (code, remote) = cli(&[
        "query",
        "--server",
        &addr,
        "--retries",
        "4",
        "--json",
        PRICE,
    ]);
    assert_eq!(code, 0, "retries must ride out the sheds: {remote}");
    let (code, local) = cli(&["query", "--json", PRICE]);
    assert_eq!(code, 0);
    assert_eq!(remote, local, "retried answers keep byte parity");

    let stats = stats_doc(&addr);
    let srv = stats.get("server").unwrap();
    let overload = srv.get("overload").unwrap();
    assert_eq!(overload.get("sheds_accept").unwrap().as_u64(), Some(2));

    // With retries disabled the same shed is a hard failure.
    let server2 = spawn_server_env(
        "retry0",
        &["--threads", "2"],
        &[("REPRO_FAULTS", "accept:serve:io:1")],
    );
    let (code, _) = cli(&[
        "query",
        "--server",
        &server2.addr,
        "--retries",
        "0",
        "--json",
        PRICE,
    ]);
    assert_eq!(code, 1, "a shed without retries is a failure-class exit");
}

#[test]
fn a_slow_loris_peer_is_reaped_by_the_idle_deadline() {
    let server = spawn_server_with("loris", &["--threads", "2", "--idle-timeout", "0.3"]);
    let addr = server.addr.clone();

    // Trickle half a request, then stall past the idle gap.
    let mut stream = std::net::TcpStream::connect(&addr).unwrap();
    stream
        .write_all(b"POST /query HTTP/1.1\r\nContent-Le")
        .unwrap();
    stream.flush().unwrap();
    std::thread::sleep(Duration::from_millis(1200));

    // The server closed on us without a response…
    let _ = stream.set_read_timeout(Some(Duration::from_secs(5)));
    let mut buf = Vec::new();
    let n = stream.read_to_end(&mut buf).unwrap_or(0);
    assert_eq!(n, 0, "a reaped connection gets no bytes: {buf:?}");

    // …and no worker was consumed: the pool still answers instantly.
    let (status, _) = http_call(&addr, "POST", "/query", Some(PRICE)).unwrap();
    assert_eq!(status, 200);
    let stats = stats_doc(&addr);
    let conns = stats.get("server").unwrap().get("connections").unwrap();
    assert!(
        conns.get("reaped").unwrap().as_u64().unwrap() >= 1,
        "{stats:?}"
    );
}

#[test]
fn overload_sheds_expensive_queries_with_retry_after() {
    // One worker, zero queue watermark: concurrent expensive queries
    // must produce at least one deterministic 503 with Retry-After
    // while the server keeps answering cheap requests.
    let server = spawn_server_with("overload", &["--threads", "1", "--queue", "0"]);
    let addr = server.addr.clone();

    const N: usize = 6;
    let outcomes: Vec<(u16, Option<u64>, String)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..N)
            .map(|i| {
                let addr = addr.clone();
                s.spawn(move || {
                    // Distinct instruction counts: no store coalescing,
                    // every query is real work.
                    let body = format!(
                        r#"{{"query":"simulate","program":"ear","instructions":{}}}"#,
                        30_000 + 1_000 * i
                    );
                    let reply = http_request(&addr, "POST", "/query", Some(&body)).unwrap();
                    (reply.status, reply.retry_after, reply.body)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let sheds: Vec<_> = outcomes.iter().filter(|(s, _, _)| *s == 503).collect();
    let served = outcomes.iter().filter(|(s, _, _)| *s == 200).count();
    assert!(served >= 1, "someone must be served: {outcomes:?}");
    assert!(!sheds.is_empty(), "someone must be shed: {outcomes:?}");
    for (_, retry_after, body) in &sheds {
        assert_eq!(*retry_after, Some(1), "sheds carry Retry-After: {body}");
        assert!(body.contains("overloaded"), "{body}");
    }

    // Cheap requests are admitted even under the same pressure.
    let stats = stats_doc(&addr);
    let srv = stats.get("server").unwrap();
    let overload = srv.get("overload").unwrap();
    assert_eq!(
        overload.get("sheds_dispatch").unwrap().as_u64(),
        Some(sheds.len() as u64),
        "{stats:?}"
    );
}
