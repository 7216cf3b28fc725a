//! `tradeoff-server`: the long-running HTTP/JSON query service.
//!
//! A std-only HTTP/1.1 server (hand-rolled over [`std::net::TcpListener`]
//! — the workspace's vendored deps are offline stand-ins, so there is no
//! hyper/axum to lean on) that keeps the `bench` trace store warm across
//! requests and answers the typed query API:
//!
//! * `POST /query` — one [`tradeoff::api::QueryRequest`] in, one
//!   response (or typed error) out. The body is byte-identical to what
//!   `tradeoff-cli query --json …` prints for the same request: both are
//!   `dispatch(req, &StoreWorkloads)` plus [`report::Json::render`].
//! * `GET /experiments` — the registry listing, same bytes as a
//!   `{"query":"experiments"}` query.
//! * `GET /stats` — request/latency counters, the overload/deadline/
//!   containment counters, and the full [`bench::tracestore::Stats`]
//!   snapshot.
//! * `POST /shutdown` — graceful stop: the acceptor closes, queued and
//!   in-flight requests drain, workers join, `serve` returns. Guarded:
//!   with `--shutdown-token` set every caller must present the token in
//!   the body (`{"token": …}`); without one, only loopback peers may
//!   stop the server. A body is read strictly (malformed JSON, an
//!   unknown key or a non-string token is a 400 naming the problem);
//!   refusals are 403, and either way the server keeps serving.
//!
//! # Overload and failure policy
//!
//! The serving path carries the batch suite's robustness discipline
//! (PR 4) end to end — see `DESIGN.md` §16:
//!
//! * **Admission control.** In-flight connections are capped at
//!   `--max-inflight`; beyond the cap the acceptor sheds with a canned
//!   `503 overloaded` + `Retry-After` without reading the request.
//!   Below the cap, a dispatch-queue watermark (`--queue`) sheds only
//!   *expensive* queries (`simulate`/`grid`); cheap requests (`/stats`,
//!   `/experiments`, analytic queries) are always admitted so the
//!   server stays observable under load.
//! * **Deadlines.** Every request gets a budget (`--request-timeout`,
//!   overridable *downward* per request via `X-Request-Timeout-Ms`)
//!   measured from its first byte, and is the [`bench::fault`] deadline
//!   of the inline dispatch: the query's work stops at its next trace
//!   chunk past it and answers `504 deadline-exceeded`, so
//!   no work outlives its answer or escapes `--max-inflight`.
//! * **Panic containment.** Dispatch runs under `catch_unwind`: a
//!   panicking query answers `500 internal` and the pool keeps its
//!   size — an invariant `/stats` exposes as `pool.size`/`pool.alive`.
//! * **Keep-alive.** Connections persist (`Connection: keep-alive`)
//!   with an idle deadline (`--idle-timeout`), a per-connection request
//!   cap (`--max-requests`), and slow-loris reaping: a peer trickling
//!   bytes slower than the idle gap is disconnected mid-request.
//! * **Fault injection.** The serve path evaluates `bench::fault` sites
//!   `accept`, `read`, `dispatch` and `write` under the pseudo
//!   experiment id `serve`, so `REPRO_FAULTS=dispatch:serve:panic` (and
//!   friends) exercise every policy above deterministically —
//!   `./ci.sh chaos` is the gate.
//!
//! Requests are handled by a small worker pool; concurrent queries that
//! miss on the same trace-store key block on one extraction (the
//! store's key gates — `sched`'s warm-key discipline generalised to the
//! request path) instead of folding the workload N times. See
//! `DESIGN.md` §14.

use bench::fault::{self, Site};
use bench::queryenv::StoreWorkloads;
use bench::tracestore;
use report::json::Fields;
use report::Json;
use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::Mutex;
use std::time::{Duration, Instant};
use tradeoff::api::{dispatch, ApiError, QueryRequest};

/// Largest request body the server will read.
pub const MAX_BODY_BYTES: usize = 1 << 20;

/// Largest HTTP header block the server will buffer before deciding the
/// peer is not speaking HTTP.
pub const MAX_HEAD_BYTES: usize = 8192;

/// Socket timeout for writes and for the one-shot client.
const IO_TIMEOUT: Duration = Duration::from_secs(10);

/// Blocking-read poll granularity: how often a worker re-checks the
/// idle and request deadlines while waiting for bytes.
const POLL_INTERVAL: Duration = Duration::from_millis(25);

/// Server configuration, parsed from `tradeoff-server` flags.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Address to bind (`127.0.0.1:7878` by default; use port `0` for
    /// an ephemeral port).
    pub addr: String,
    /// Worker threads handling requests.
    pub threads: usize,
    /// Dispatch-queue watermark: when more than this many accepted
    /// connections are waiting for a worker, *expensive* queries
    /// (`simulate`/`grid`) are shed with `503 overloaded`. Cheap
    /// requests are always admitted.
    pub queue: usize,
    /// Hard cap on in-flight connections. At the cap the acceptor sheds
    /// new connections with a canned `503` without reading them.
    pub max_inflight: usize,
    /// Per-request deadline, measured from the request's first byte.
    /// Zero disables the budget (the idle gap still applies). Clients
    /// may lower (never raise) it per request via `X-Request-Timeout-Ms`.
    pub request_timeout: Duration,
    /// Keep-alive idle deadline: how long a connection may sit without
    /// sending the next request's first byte, and the largest silent
    /// gap tolerated mid-request (the slow-loris reaper).
    pub idle_timeout: Duration,
    /// Requests served per connection before the server closes it.
    pub max_requests_per_conn: usize,
    /// When set, the actual bound address is written here after bind —
    /// how ephemeral-port callers (tests, scripts) learn the port.
    pub addr_file: Option<std::path::PathBuf>,
    /// `POST /shutdown` authorisation. When set, every shutdown request
    /// (loopback included) must carry `{"token": …}` matching this
    /// value; when unset, only loopback peers may stop the server.
    /// Either way a refused shutdown is a 403, never a stop.
    pub shutdown_token: Option<String>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:7878".to_string(),
            threads: std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(4)
                .clamp(2, 8),
            queue: 64,
            max_inflight: 256,
            request_timeout: Duration::from_secs(10),
            idle_timeout: Duration::from_secs(5),
            max_requests_per_conn: 100,
            addr_file: None,
            shutdown_token: None,
        }
    }
}

/// Latency accumulator for one query kind.
#[derive(Debug, Clone, Copy, Default)]
struct KindStats {
    count: u64,
    total_micros: u64,
    max_micros: u64,
}

/// Live queue-depth gauges shared by the acceptor and the workers.
#[derive(Debug, Default)]
struct Gauges {
    /// Accepted connections waiting for a worker.
    queued: AtomicU64,
    /// Accepted connections not yet finished (queued + being served).
    inflight: AtomicU64,
}

/// RAII increment of `Gauges::inflight`, decremented when the
/// connection is fully done — however it ends, including a contained
/// worker panic (the guard travels with the stream through the queue).
#[derive(Debug)]
struct InflightGuard<'a> {
    gauges: &'a Gauges,
}

impl InflightGuard<'_> {
    fn new(gauges: &Gauges) -> InflightGuard<'_> {
        gauges.inflight.fetch_add(1, Ordering::SeqCst);
        InflightGuard { gauges }
    }
}

impl Drop for InflightGuard<'_> {
    fn drop(&mut self) {
        self.gauges.inflight.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Process-wide request counters backing `GET /stats`.
#[derive(Debug)]
struct ServerStats {
    pool_size: u64,
    workers_alive: AtomicU64,
    requests: AtomicU64,
    errors: AtomicU64,
    accepted: AtomicU64,
    keepalive_reuses: AtomicU64,
    idle_closes: AtomicU64,
    reaped: AtomicU64,
    sheds_accept: AtomicU64,
    sheds_dispatch: AtomicU64,
    deadline_timeouts: AtomicU64,
    panics_contained: AtomicU64,
    write_failures_2xx: AtomicU64,
    write_failures_4xx: AtomicU64,
    write_failures_5xx: AtomicU64,
    by_kind: Mutex<BTreeMap<String, KindStats>>,
}

impl ServerStats {
    fn new(pool_size: usize) -> ServerStats {
        ServerStats {
            pool_size: pool_size as u64,
            workers_alive: AtomicU64::new(0),
            requests: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            accepted: AtomicU64::new(0),
            keepalive_reuses: AtomicU64::new(0),
            idle_closes: AtomicU64::new(0),
            reaped: AtomicU64::new(0),
            sheds_accept: AtomicU64::new(0),
            sheds_dispatch: AtomicU64::new(0),
            deadline_timeouts: AtomicU64::new(0),
            panics_contained: AtomicU64::new(0),
            write_failures_2xx: AtomicU64::new(0),
            write_failures_4xx: AtomicU64::new(0),
            write_failures_5xx: AtomicU64::new(0),
            by_kind: Mutex::new(BTreeMap::new()),
        }
    }

    fn record(&self, kind: &str, elapsed: Duration, ok: bool) {
        self.requests.fetch_add(1, Ordering::Relaxed);
        if !ok {
            self.errors.fetch_add(1, Ordering::Relaxed);
        }
        let micros = u64::try_from(elapsed.as_micros()).unwrap_or(u64::MAX);
        let mut map = self
            .by_kind
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let e = map.entry(kind.to_string()).or_default();
        e.count += 1;
        e.total_micros += micros;
        e.max_micros = e.max_micros.max(micros);
    }

    /// A response the worker could not (fully) write: counted by status
    /// class instead of dropped on the floor.
    fn record_write_failure(&self, status: u16) {
        let counter = match status {
            200..=299 => &self.write_failures_2xx,
            400..=499 => &self.write_failures_4xx,
            _ => &self.write_failures_5xx,
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// The `/stats` document: server request/latency counters, the
    /// overload/deadline/containment counters, and the trace store's
    /// full observability snapshot.
    fn to_json(&self, gauges: &Gauges) -> Json {
        let n = |a: &AtomicU64| Json::num(a.load(Ordering::Relaxed) as f64);
        let map = self
            .by_kind
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let queries = map
            .iter()
            .map(|(kind, s)| {
                (
                    kind.clone(),
                    Json::obj(vec![
                        ("count", Json::num(s.count as f64)),
                        ("total_micros", Json::num(s.total_micros as f64)),
                        ("max_micros", Json::num(s.max_micros as f64)),
                        (
                            "mean_micros",
                            Json::num(
                                s.total_micros.checked_div(s.count).unwrap_or_default() as f64
                            ),
                        ),
                    ]),
                )
            })
            .collect::<Vec<_>>();
        drop(map);
        let st = tracestore::stats();
        Json::obj(vec![
            ("ok", Json::Bool(true)),
            (
                "server",
                Json::obj(vec![
                    ("requests", n(&self.requests)),
                    ("errors", n(&self.errors)),
                    (
                        "pool",
                        Json::obj(vec![
                            ("size", Json::num(self.pool_size as f64)),
                            ("alive", n(&self.workers_alive)),
                        ]),
                    ),
                    (
                        "connections",
                        Json::obj(vec![
                            ("accepted", n(&self.accepted)),
                            ("keepalive_reuses", n(&self.keepalive_reuses)),
                            ("idle_closes", n(&self.idle_closes)),
                            ("reaped", n(&self.reaped)),
                            ("queued", n(&gauges.queued)),
                            ("inflight", n(&gauges.inflight)),
                        ]),
                    ),
                    (
                        "overload",
                        Json::obj(vec![
                            ("sheds_accept", n(&self.sheds_accept)),
                            ("sheds_dispatch", n(&self.sheds_dispatch)),
                        ]),
                    ),
                    ("deadline_timeouts", n(&self.deadline_timeouts)),
                    ("panics_contained", n(&self.panics_contained)),
                    (
                        "write_failures",
                        Json::obj(vec![
                            ("2xx", n(&self.write_failures_2xx)),
                            ("4xx", n(&self.write_failures_4xx)),
                            ("5xx", n(&self.write_failures_5xx)),
                        ]),
                    ),
                    ("queries", Json::Obj(queries)),
                ]),
            ),
            (
                "store",
                Json::obj(vec![
                    ("trace_hits", Json::num(st.counts.trace_hits as f64)),
                    ("trace_misses", Json::num(st.counts.trace_misses as f64)),
                    ("timeline_hits", Json::num(st.counts.timeline_hits as f64)),
                    (
                        "timeline_misses",
                        Json::num(st.counts.timeline_misses as f64),
                    ),
                    ("hist_hits", Json::num(st.counts.hist_hits as f64)),
                    ("hist_misses", Json::num(st.counts.hist_misses as f64)),
                    ("trace_evictions", Json::num(st.trace_evictions as f64)),
                    ("hist_evictions", Json::num(st.hist_evictions as f64)),
                    ("coalesced_waits", Json::num(st.coalesced_waits as f64)),
                    ("trace_bytes", Json::num(st.trace_bytes as f64)),
                    ("hist_bytes", Json::num(st.hist_bytes as f64)),
                    ("poison_recoveries", Json::num(st.poison_recoveries as f64)),
                    (
                        "timeline_evictions",
                        Json::num(st.timeline_evictions as f64),
                    ),
                    ("timeline_bytes", Json::num(st.timeline_bytes as f64)),
                ]),
            ),
        ])
    }
}

/// One parsed request head: everything above the body, as the server
/// understands it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Head {
    /// Request method (`GET`, `POST`, …) verbatim.
    pub method: String,
    /// Request path verbatim.
    pub path: String,
    /// Declared body length (absent `Content-Length` means `0`).
    pub content_length: usize,
    /// Whether the connection persists after the response: HTTP/1.1
    /// defaults to `true`, HTTP/1.0 to `false`, and a `Connection`
    /// header overrides either way.
    pub keep_alive: bool,
    /// `X-Request-Timeout-Ms`: the client's *downward* override of the
    /// server's request budget.
    pub timeout_ms: Option<u64>,
}

/// Parses one HTTP request head from the front of `buf`.
///
/// Returns `Ok(None)` when the header block is not yet complete (the
/// caller should read more bytes), or `Ok(Some((head, consumed)))`
/// where `consumed` is the offset of the first body byte.
///
/// # Errors
///
/// A message for malformed input — a bad request line, a header line
/// without `:`, an unparsable or conflicting `Content-Length`, a bad
/// `X-Request-Timeout-Ms`, a body beyond [`MAX_BODY_BYTES`], or a
/// header block beyond [`MAX_HEAD_BYTES`]. All map to `400`.
pub fn parse_head(buf: &[u8]) -> Result<Option<(Head, usize)>, String> {
    let Some(head_end) = buf.windows(4).position(|w| w == b"\r\n\r\n") else {
        if buf.len() > MAX_HEAD_BYTES {
            return Err(format!("header block exceeds {MAX_HEAD_BYTES} bytes"));
        }
        return Ok(None);
    };
    let consumed = head_end + 4;
    if consumed > MAX_HEAD_BYTES {
        return Err(format!("header block exceeds {MAX_HEAD_BYTES} bytes"));
    }
    let text = std::str::from_utf8(&buf[..head_end])
        .map_err(|_| "header block is not UTF-8".to_string())?;
    let mut lines = text.split('\n').map(|l| l.trim_end_matches('\r'));
    let request_line = lines.next().unwrap_or_default();
    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or_default().to_string();
    let path = parts.next().unwrap_or_default().to_string();
    let version = parts.next().unwrap_or_default();
    if method.is_empty() || path.is_empty() {
        return Err("malformed request line".to_string());
    }
    let mut head = Head {
        method,
        path,
        content_length: 0,
        keep_alive: version != "HTTP/1.0",
        timeout_ms: None,
    };
    let mut seen_length: Option<usize> = None;
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(format!("header line without a colon: {line:?}"));
        };
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            let length: usize = value
                .parse()
                .map_err(|_| "bad Content-Length".to_string())?;
            if seen_length.is_some_and(|prev| prev != length) {
                return Err("conflicting Content-Length headers".to_string());
            }
            seen_length = Some(length);
            head.content_length = length;
        } else if name.eq_ignore_ascii_case("connection") {
            if value.eq_ignore_ascii_case("close") {
                head.keep_alive = false;
            } else if value.eq_ignore_ascii_case("keep-alive") {
                head.keep_alive = true;
            }
        } else if name.eq_ignore_ascii_case("x-request-timeout-ms") {
            head.timeout_ms = Some(
                value
                    .parse()
                    .map_err(|_| "bad X-Request-Timeout-Ms".to_string())?,
            );
        }
    }
    if head.content_length > MAX_BODY_BYTES {
        return Err(format!("body exceeds {MAX_BODY_BYTES} bytes"));
    }
    Ok(Some((head, consumed)))
}

/// One parsed HTTP request (head folded down to what routing needs).
struct Request {
    method: String,
    path: String,
    body: String,
}

/// How one attempt to receive a request off a connection ended.
enum Recv {
    /// A complete request; `started` is when its first byte arrived.
    Request {
        head: Head,
        body: String,
        started: Instant,
    },
    /// No request started within the idle deadline: clean close.
    IdleClosed,
    /// The peer closed cleanly between requests.
    Eof,
    /// Mid-request deadline blown (request budget, or a silent gap
    /// beyond the idle timeout — the slow-loris case): close without a
    /// response.
    Reaped,
    /// The peer vanished or an injected read fault cut it off.
    Disconnected,
    /// Unparsable bytes: answer 400 and close.
    Malformed(String),
}

/// Receives one request, honouring the idle deadline (before the first
/// byte and between reads) and the request budget (from the first
/// byte). `carry` holds bytes pipelined past the previous request and
/// persists across calls on a keep-alive connection. The `read` fault
/// site fires when a request's first byte arrives off the socket.
fn recv_request(
    stream: &mut TcpStream,
    carry: &mut Vec<u8>,
    idle: Duration,
    budget: Option<Duration>,
) -> Recv {
    let opened = Instant::now();
    let mut started: Option<Instant> = (!carry.is_empty()).then_some(opened);
    let mut last_byte = opened;
    let mut head: Option<(Head, usize)> = None;
    loop {
        if head.is_none() && !carry.is_empty() {
            match parse_head(carry) {
                Err(message) => return Recv::Malformed(message),
                Ok(Some(parsed)) => head = Some(parsed),
                Ok(None) => {}
            }
        }
        if let Some((h, consumed)) = head.take() {
            let total = consumed + h.content_length;
            if carry.len() >= total {
                let body_bytes: Vec<u8> = carry.drain(..total).skip(consumed).collect();
                let Ok(body) = String::from_utf8(body_bytes) else {
                    return Recv::Malformed("body is not UTF-8".to_string());
                };
                return Recv::Request {
                    head: h,
                    body,
                    started: started.unwrap_or(opened),
                };
            }
            head = Some((h, consumed));
        }
        let now = Instant::now();
        match started {
            Some(first) => {
                let budget_blown = budget.is_some_and(|b| now.duration_since(first) >= b);
                if budget_blown || now.duration_since(last_byte) >= idle {
                    return Recv::Reaped;
                }
            }
            None => {
                if now.duration_since(opened) >= idle {
                    return Recv::IdleClosed;
                }
            }
        }
        let mut chunk = [0u8; 4096];
        match stream.read(&mut chunk) {
            Ok(0) => {
                return if started.is_none() && carry.is_empty() {
                    Recv::Eof
                } else {
                    Recv::Disconnected
                };
            }
            Ok(n) => {
                let first_byte = started.is_none();
                carry.extend_from_slice(&chunk[..n]);
                last_byte = Instant::now();
                if first_byte {
                    started = Some(last_byte);
                    // The serve-path slow-read / cut-read fault site: a
                    // delay consumes the request budget (ending in 504
                    // or a reap), an io fault models a mid-body
                    // disconnect.
                    if fault::check(Site::Read).is_err() {
                        return Recv::Disconnected;
                    }
                }
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                continue;
            }
            Err(_) => return Recv::Disconnected,
        }
    }
}

/// Combines the server budget with the client's header override —
/// downward only: the header can shorten the budget, never extend it.
fn effective_budget(server: Duration, header_ms: Option<u64>) -> Option<Duration> {
    let server = (!server.is_zero()).then_some(server);
    let header = header_ms.map(Duration::from_millis);
    match (server, header) {
        (Some(s), Some(h)) => Some(s.min(h)),
        (Some(s), None) => Some(s),
        (None, h) => h,
    }
}

/// Expensive queries — the ones load shedding refuses under a dispatch
/// backlog. Everything else (analytic closed forms, listings) is cheap
/// enough to always admit.
fn expensive(req: &QueryRequest) -> bool {
    matches!(req, QueryRequest::Simulate(_) | QueryRequest::Grid(_))
}

fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        403 => "Forbidden",
        404 => "Not Found",
        405 => "Method Not Allowed",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Internal Server Error",
    }
}

/// Renders a wire error body in the API's shape:
/// `{"ok":false,"error":{"kind":…,"message":…}}`.
fn wire_error(kind: &str, message: &str) -> String {
    let err = Json::obj(vec![
        ("ok", Json::Bool(false)),
        (
            "error",
            Json::obj(vec![
                ("kind", Json::str(kind)),
                ("message", Json::str(message)),
            ]),
        ),
    ]);
    format!("{}\n", err.render())
}

/// Writes one HTTP/1.1 response. Returns `false` when the write failed
/// (the connection is dead and must be dropped); failures are counted
/// per status class instead of silently swallowed. The `write` fault
/// site (experiment id `serve`) injects exactly such failures.
fn respond(
    stream: &mut TcpStream,
    status: u16,
    body: &str,
    keep_alive: bool,
    retry_after: Option<u64>,
    stats: &ServerStats,
) -> bool {
    let retry = retry_after
        .map(|secs| format!("Retry-After: {secs}\r\n"))
        .unwrap_or_default();
    let connection = if keep_alive { "keep-alive" } else { "close" };
    let msg = format!(
        "HTTP/1.1 {status} {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\n{retry}Connection: {connection}\r\n\r\n{body}",
        reason(status),
        body.len(),
    );
    let wrote = fault::check(Site::Write)
        .and_then(|()| stream.write_all(msg.as_bytes()))
        .and_then(|()| stream.flush());
    match wrote {
        Ok(()) => true,
        Err(_) => {
            stats.record_write_failure(status);
            false
        }
    }
}

/// Checks a `POST /shutdown` against the auth policy. With a configured
/// token, *every* caller — loopback included — must present it in the
/// body as `{"token": …}`, which keeps the refusal path testable end to
/// end. Without one, only loopback peers may stop the server, so a
/// `--addr 0.0.0.0` deployment is not stoppable by any host that can
/// reach the port. A body, when present, is read strictly: malformed
/// JSON, an unknown key or a non-string token is a 400 naming the
/// problem; a refused stop is a 403.
fn shutdown_allowed(
    body: &str,
    peer: Option<&SocketAddr>,
    token: Option<&str>,
) -> Result<(), (u16, String)> {
    let body = body.trim();
    let presented = if body.is_empty() {
        None
    } else {
        let bad = |message: String| (400, wire_error("bad-request", &message));
        let json = Json::parse(body).map_err(|e| bad(format!("shutdown: malformed JSON: {e}")))?;
        Fields::new(&json, "shutdown", &["token"])
            .and_then(|f| f.opt::<&str>("token").map(|t| t.map(str::to_string)))
            .map_err(bad)?
    };
    let forbidden = |message: &str| Err((403, wire_error("forbidden", message)));
    match token {
        Some(expected) if presented.as_deref() == Some(expected) => Ok(()),
        Some(_) => forbidden("shutdown requires the configured token"),
        None if peer.is_some_and(|p| p.ip().is_loopback()) => Ok(()),
        None => forbidden("shutdown without a configured --shutdown-token is loopback-only"),
    }
}

/// One routed response, ready to write.
struct Outcome {
    status: u16,
    body: String,
    /// Which `/stats` latency bucket the request lands in.
    kind: &'static str,
    /// The request asked for (and was allowed) shutdown.
    shutdown: bool,
    /// `Retry-After` seconds, set on shed responses.
    retry_after: Option<u64>,
}

impl Outcome {
    fn plain(status: u16, body: String, kind: &'static str) -> Outcome {
        Outcome {
            status,
            body,
            kind,
            shutdown: false,
            retry_after: None,
        }
    }
}

/// Runs `dispatch` inline under `catch_unwind`, with the request's
/// deadline as the fault scope's: past it the work cancels itself at
/// its next trace chunk and unwinds with
/// [`fault::DeadlineExceeded`], answered `504 deadline-exceeded`. Any
/// other panic answers `500 internal`, and the pool keeps its size. A
/// budget already spent answers `504` without dispatching. The
/// `dispatch` fault site fires inside the guarded region.
fn dispatch_guarded(
    req: &QueryRequest,
    deadline: Option<Instant>,
    stats: &ServerStats,
) -> (u16, String) {
    let timed_out = |when: &str| {
        stats.deadline_timeouts.fetch_add(1, Ordering::Relaxed);
        let message = format!("request deadline expired {when} dispatch");
        (504, wire_error("deadline-exceeded", &message))
    };
    if deadline.is_some_and(|d| Instant::now() >= d) {
        return timed_out("before");
    }
    let result = catch_unwind(AssertUnwindSafe(|| {
        let _scope = fault::enter_until("serve", deadline);
        fault::check(Site::Dispatch)
            .map_err(|e| ApiError::internal(format!("injected dispatch fault: {e}")))
            .and_then(|()| dispatch(req, &StoreWorkloads))
    }));
    let err = match result {
        Ok(Ok(resp)) => return (200, format!("{}\n", resp.to_json_string())),
        Ok(Err(err)) => err,
        Err(payload) if payload.is::<fault::DeadlineExceeded>() => return timed_out("during"),
        Err(payload) => {
            // The handler panicked; the worker survives it.
            stats.panics_contained.fetch_add(1, Ordering::Relaxed);
            ApiError::internal(format!(
                "query handler panicked: {}",
                fault::panic_text(payload.as_ref())
            ))
        }
    };
    (
        err.kind.http_status(),
        format!("{}\n", err.to_json().render()),
    )
}

/// Routes one request under the overload and deadline policy.
fn route(
    req: &Request,
    peer: Option<&SocketAddr>,
    token: Option<&str>,
    overloaded: bool,
    deadline: Option<Instant>,
    stats: &ServerStats,
) -> Outcome {
    match (req.method.as_str(), req.path.as_str()) {
        ("POST", "/query") => {
            let query = match QueryRequest::from_json_str(&req.body) {
                Ok(query) => query,
                Err(err) => {
                    return Outcome::plain(
                        err.kind.http_status(),
                        format!("{}\n", err.to_json().render()),
                        "query",
                    )
                }
            };
            if overloaded && expensive(&query) {
                stats.sheds_dispatch.fetch_add(1, Ordering::Relaxed);
                return Outcome {
                    status: 503,
                    body: wire_error(
                        "overloaded",
                        "dispatch queue over its watermark; retry after backoff",
                    ),
                    kind: "shed",
                    shutdown: false,
                    retry_after: Some(1),
                };
            }
            let (status, body) = dispatch_guarded(&query, deadline, stats);
            Outcome::plain(status, body, "query")
        }
        ("GET", "/experiments") => {
            let (status, body) = dispatch_guarded(&QueryRequest::Experiments, deadline, stats);
            Outcome::plain(status, body, "experiments")
        }
        // Body filled by the caller so the response counts itself.
        ("GET", "/stats") => Outcome::plain(200, String::new(), "stats"),
        ("POST", "/shutdown") => match shutdown_allowed(&req.body, peer, token) {
            Ok(()) => Outcome {
                status: 200,
                body: format!("{}\n", Json::obj(vec![("ok", Json::Bool(true))]).render()),
                kind: "shutdown",
                shutdown: true,
                retry_after: None,
            },
            Err((status, body)) => Outcome::plain(status, body, "shutdown"),
        },
        (_, "/query" | "/experiments" | "/stats" | "/shutdown") => {
            let err =
                ApiError::bad_request(format!("method {} not allowed on {}", req.method, req.path));
            Outcome::plain(405, format!("{}\n", err.to_json().render()), "error")
        }
        _ => {
            let err = ApiError::bad_request(format!("no such endpoint {}", req.path));
            Outcome::plain(404, format!("{}\n", err.to_json().render()), "error")
        }
    }
}

/// Serves one connection until it closes: the keep-alive loop. Returns
/// `true` when a request asked for (and was allowed) shutdown.
fn handle_connection(
    mut stream: TcpStream,
    cfg: &ServerConfig,
    stats: &ServerStats,
    gauges: &Gauges,
    shutdown: &AtomicBool,
) -> bool {
    let _ = stream.set_read_timeout(Some(POLL_INTERVAL));
    let _ = stream.set_write_timeout(Some(IO_TIMEOUT));
    let peer = stream.peer_addr().ok();
    let mut carry = Vec::new();
    let mut served = 0usize;
    let read_budget = (!cfg.request_timeout.is_zero()).then_some(cfg.request_timeout);
    loop {
        match recv_request(&mut stream, &mut carry, cfg.idle_timeout, read_budget) {
            Recv::IdleClosed => {
                stats.idle_closes.fetch_add(1, Ordering::Relaxed);
                return false;
            }
            Recv::Eof | Recv::Disconnected => return false,
            Recv::Reaped => {
                stats.reaped.fetch_add(1, Ordering::Relaxed);
                return false;
            }
            Recv::Malformed(message) => {
                let err = ApiError::bad_request(message);
                let body = format!("{}\n", err.to_json().render());
                respond(&mut stream, 400, &body, false, None, stats);
                stats.record("error", Duration::ZERO, false);
                return false;
            }
            Recv::Request {
                head,
                body,
                started,
            } => {
                served += 1;
                if served > 1 {
                    stats.keepalive_reuses.fetch_add(1, Ordering::Relaxed);
                }
                let req = Request {
                    method: head.method.clone(),
                    path: head.path.clone(),
                    body,
                };
                let deadline = effective_budget(cfg.request_timeout, head.timeout_ms)
                    .map(|budget| started + budget);
                let overloaded = gauges.queued.load(Ordering::SeqCst) > cfg.queue as u64;
                let mut out = route(
                    &req,
                    peer.as_ref(),
                    cfg.shutdown_token.as_deref(),
                    overloaded,
                    deadline,
                    stats,
                );
                // /stats renders after the request is recorded, so the
                // response counts itself and reflects the freshest
                // store snapshot.
                stats.record(out.kind, started.elapsed(), out.status < 400);
                if out.kind == "stats" && out.status == 200 {
                    out.body = format!("{}\n", stats.to_json(gauges).render());
                }
                // Persist only while the server is healthy: a backlog
                // or a pending shutdown frees the worker instead.
                let keep = head.keep_alive
                    && !out.shutdown
                    && served < cfg.max_requests_per_conn.max(1)
                    && gauges.queued.load(Ordering::Relaxed) == 0
                    && !shutdown.load(Ordering::SeqCst);
                let wrote = respond(
                    &mut stream,
                    out.status,
                    &out.body,
                    keep,
                    out.retry_after,
                    stats,
                );
                if out.shutdown {
                    return true;
                }
                if !keep || !wrote {
                    return false;
                }
            }
        }
    }
}

/// Runs the server until a `POST /shutdown` arrives: binds, reports the
/// address (stderr + optional `--addr-file`), then serves on a worker
/// pool under the overload policy described in the module docs. Returns
/// after every queued and in-flight request has drained and all workers
/// have joined.
///
/// # Errors
///
/// Propagates bind/address-file I/O errors; per-connection errors are
/// answered with typed HTTP errors and never end the server.
pub fn serve(cfg: &ServerConfig) -> std::io::Result<()> {
    let listener = TcpListener::bind(&cfg.addr)?;
    let local = listener.local_addr()?;
    if let Some(path) = &cfg.addr_file {
        std::fs::write(path, format!("{local}\n"))?;
    }
    let threads = cfg.threads.max(1);
    eprintln!("tradeoff-server listening on {local} ({threads} workers)");

    let shutdown = AtomicBool::new(false);
    let stats = ServerStats::new(threads);
    let gauges = Gauges::default();
    // Capacity max_inflight: the acceptor sheds at that many in-flight
    // connections, so a send can never block.
    let (tx, rx) = mpsc::sync_channel::<(TcpStream, InflightGuard)>(cfg.max_inflight.max(1));
    let rx = Mutex::new(rx);

    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    // Serve-path faults target the pseudo experiment `serve`.
                    let _scope = fault::enter("serve");
                    stats.workers_alive.fetch_add(1, Ordering::SeqCst);
                    loop {
                        // Hold the receiver lock only while dequeuing.
                        let next = {
                            let guard =
                                rx.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
                            guard.recv()
                        };
                        let Ok((stream, inflight)) = next else {
                            break; // channel closed and drained: exit
                        };
                        gauges.queued.fetch_sub(1, Ordering::SeqCst);
                        // The last line of containment: nothing that
                        // unwinds out of a connection may shrink the pool.
                        let stop = catch_unwind(AssertUnwindSafe(|| {
                            handle_connection(stream, cfg, &stats, &gauges, &shutdown)
                        }))
                        .unwrap_or(false);
                        drop(inflight);
                        if stop {
                            shutdown.store(true, Ordering::SeqCst);
                            // Wake the blocking acceptor with a throwaway
                            // connection so it observes the flag.
                            let _ = TcpStream::connect(local);
                        }
                    }
                    stats.workers_alive.fetch_sub(1, Ordering::SeqCst);
                })
            })
            .collect();

        // The acceptor evaluates the `accept` fault site under `serve` too.
        let accept_scope = fault::enter("serve");
        for stream in listener.incoming() {
            if shutdown.load(Ordering::SeqCst) {
                break;
            }
            let Ok(mut stream) = stream else { continue };
            stats.accepted.fetch_add(1, Ordering::Relaxed);
            let at_cap = gauges.inflight.load(Ordering::SeqCst) >= cfg.max_inflight.max(1) as u64;
            // An injected accept fault forces the shed path deterministically.
            if at_cap || fault::check(Site::Accept).is_err() {
                stats.sheds_accept.fetch_add(1, Ordering::Relaxed);
                stats.record("shed", Duration::ZERO, false);
                let _ = stream.set_write_timeout(Some(Duration::from_secs(1)));
                let body = wire_error("overloaded", "server at max in-flight connections");
                respond(&mut stream, 503, &body, false, Some(1), &stats);
                continue;
            }
            let inflight = InflightGuard::new(&gauges);
            gauges.queued.fetch_add(1, Ordering::SeqCst);
            if tx.send((stream, inflight)).is_err() {
                break; // only possible once shutdown closed the channel
            }
        }
        drop(accept_scope);

        // Close the channel: workers finish whatever is queued, then exit.
        drop(tx);
        for w in workers {
            let _ = w.join();
        }
    });
    eprintln!("tradeoff-server: drained and stopped");
    Ok(())
}

/// One parsed HTTP response from the server.
#[derive(Debug, Clone)]
pub struct HttpReply {
    /// HTTP status code.
    pub status: u16,
    /// `Retry-After` seconds, present on shed (`503`) responses.
    pub retry_after: Option<u64>,
    /// Response body.
    pub body: String,
}

/// Reads one HTTP response (status line, `Content-Length`-framed body)
/// from `stream`, carrying pipelined leftovers in `carry`.
fn read_reply(stream: &mut TcpStream, carry: &mut Vec<u8>) -> Result<HttpReply, String> {
    let head_end = loop {
        if let Some(pos) = carry.windows(4).position(|w| w == b"\r\n\r\n") {
            break pos;
        }
        let mut chunk = [0u8; 4096];
        match stream.read(&mut chunk) {
            Ok(0) => return Err("connection closed mid-response".to_string()),
            Ok(n) => carry.extend_from_slice(&chunk[..n]),
            Err(e) => return Err(format!("reading response: {e}")),
        }
    };
    let consumed = head_end + 4;
    let text = std::str::from_utf8(&carry[..head_end])
        .map_err(|_| "response head is not UTF-8".to_string())?;
    let mut lines = text.split('\n').map(|l| l.trim_end_matches('\r'));
    let status: u16 = lines
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or("malformed status line")?;
    let mut content_length = 0usize;
    let mut retry_after = None;
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            continue;
        };
        if name.eq_ignore_ascii_case("content-length") {
            content_length = value
                .trim()
                .parse()
                .map_err(|_| "bad response Content-Length".to_string())?;
        } else if name.eq_ignore_ascii_case("retry-after") {
            retry_after = value.trim().parse().ok();
        }
    }
    let total = consumed + content_length;
    while carry.len() < total {
        let mut chunk = [0u8; 4096];
        match stream.read(&mut chunk) {
            Ok(0) => return Err("connection closed mid-body".to_string()),
            Ok(n) => carry.extend_from_slice(&chunk[..n]),
            Err(e) => return Err(format!("reading response body: {e}")),
        }
    }
    let body_bytes: Vec<u8> = carry.drain(..total).skip(consumed).collect();
    let body =
        String::from_utf8(body_bytes).map_err(|_| "response body is not UTF-8".to_string())?;
    Ok(HttpReply {
        status,
        retry_after,
        body,
    })
}

/// A one-shot HTTP/1.1 client call (`Connection: close`), returning the
/// full reply including any `Retry-After` — what the CLI's retrying
/// `--server` mode is built on.
///
/// # Errors
///
/// Returns a message on connection or protocol failure.
pub fn http_request(
    addr: &str,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> Result<HttpReply, String> {
    HttpClient::connect(addr)?.send(method, path, body, "", "close")
}

/// A minimal HTTP/1.1 client call — what `tradeoff-cli query --server`
/// and the integration tests use to talk to the server.
///
/// # Errors
///
/// Returns a message on connection or protocol failure.
pub fn http_call(
    addr: &str,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> Result<(u16, String), String> {
    http_request(addr, method, path, body).map(|reply| (reply.status, reply.body))
}

/// An HTTP/1.1 client connection: many keep-alive calls on one TCP
/// stream (the keep-alive tests), or one `Connection: close` call
/// ([`http_request`]).
#[derive(Debug)]
pub struct HttpClient {
    stream: TcpStream,
    carry: Vec<u8>,
    addr: SocketAddr,
}

impl HttpClient {
    /// Connects to `addr`.
    ///
    /// # Errors
    ///
    /// Returns a message when the address is bad or unreachable.
    pub fn connect(addr: &str) -> Result<HttpClient, String> {
        let addr: SocketAddr = addr
            .parse()
            .map_err(|e| format!("bad server address {addr:?}: {e}"))?;
        let stream = TcpStream::connect_timeout(&addr, IO_TIMEOUT)
            .map_err(|e| format!("connecting to {addr}: {e}"))?;
        let _ = stream.set_read_timeout(Some(IO_TIMEOUT));
        let _ = stream.set_write_timeout(Some(IO_TIMEOUT));
        Ok(HttpClient {
            stream,
            carry: Vec::new(),
            addr,
        })
    }

    /// Sends one request on the persistent connection and reads its
    /// reply.
    ///
    /// # Errors
    ///
    /// Returns a message on connection or protocol failure (including
    /// the server closing the connection, e.g. at its per-connection
    /// request cap — reconnect and retry in that case).
    pub fn call(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> Result<HttpReply, String> {
        self.call_with_headers(method, path, body, "")
    }

    /// [`HttpClient::call`] with extra raw header lines (each ending in
    /// `\r\n`) — how tests exercise `X-Request-Timeout-Ms` and friends.
    ///
    /// # Errors
    ///
    /// As for [`HttpClient::call`].
    pub fn call_with_headers(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
        extra_headers: &str,
    ) -> Result<HttpReply, String> {
        self.send(method, path, body, extra_headers, "keep-alive")
    }

    fn send(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
        extra_headers: &str,
        connection: &str,
    ) -> Result<HttpReply, String> {
        let body = body.unwrap_or("");
        let request = format!(
            "{method} {path} HTTP/1.1\r\nHost: {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\n{extra_headers}Connection: {connection}\r\n\r\n{body}",
            self.addr,
            body.len(),
        );
        self.stream
            .write_all(request.as_bytes())
            .map_err(|e| format!("sending request: {e}"))?;
        read_reply(&mut self.stream, &mut self.carry)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spawn_server() -> (SocketAddr, std::thread::JoinHandle<()>) {
        let dir = std::env::temp_dir().join(format!(
            "tradeoff_server_unit_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::create_dir_all(&dir);
        let addr_file = dir.join("addr");
        let _ = std::fs::remove_file(&addr_file);
        let cfg = ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            threads: 2,
            addr_file: Some(addr_file.clone()),
            ..ServerConfig::default()
        };
        let handle = std::thread::spawn(move || serve(&cfg).expect("server runs"));
        let addr = loop {
            if let Ok(text) = std::fs::read_to_string(&addr_file) {
                if let Ok(addr) = text.trim().parse() {
                    break addr;
                }
            }
            std::thread::sleep(Duration::from_millis(5));
        };
        (addr, handle)
    }

    #[test]
    fn parse_head_handles_the_http_it_will_meet() {
        // A bare GET: complete head, no body, HTTP/1.1 keeps alive.
        let (head, consumed) = parse_head(b"GET /stats HTTP/1.1\r\nHost: x\r\n\r\n")
            .unwrap()
            .unwrap();
        assert_eq!(
            (head.method.as_str(), head.path.as_str()),
            ("GET", "/stats")
        );
        assert_eq!((head.content_length, head.keep_alive), (0, true));
        assert_eq!(consumed, 32);

        // POST with a body and explicit close.
        let buf = b"POST /query HTTP/1.1\r\nContent-Length: 4\r\nConnection: close\r\n\r\nbody";
        let (head, consumed) = parse_head(buf).unwrap().unwrap();
        assert_eq!((head.content_length, head.keep_alive), (4, false));
        assert_eq!(&buf[consumed..], b"body");

        // HTTP/1.0 defaults to close; keep-alive opts back in.
        let (head, _) = parse_head(b"GET / HTTP/1.0\r\n\r\n").unwrap().unwrap();
        assert!(!head.keep_alive);
        let (head, _) = parse_head(b"GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n")
            .unwrap()
            .unwrap();
        assert!(head.keep_alive);

        // The deadline override header parses.
        let (head, _) = parse_head(b"GET / HTTP/1.1\r\nX-Request-Timeout-Ms: 250\r\n\r\n")
            .unwrap()
            .unwrap();
        assert_eq!(head.timeout_ms, Some(250));

        // Incomplete heads ask for more bytes.
        assert_eq!(parse_head(b"GET /stats HTTP/1.1\r\nHost:").unwrap(), None);
        assert_eq!(parse_head(b"").unwrap(), None);

        // Malformed input is a typed refusal, never a panic.
        assert!(parse_head(b"\r\n\r\n").is_err(), "empty request line");
        assert!(parse_head(b"GET / HTTP/1.1\r\nno colon here\r\n\r\n").is_err());
        assert!(parse_head(b"GET / HTTP/1.1\r\nContent-Length: nope\r\n\r\n").is_err());
        assert!(
            parse_head(b"GET / HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 3\r\n\r\n")
                .is_err(),
            "conflicting lengths"
        );
        let oversized = format!(
            "GET / HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        );
        assert!(parse_head(oversized.as_bytes()).is_err(), "oversized body");
        let endless = vec![b'a'; MAX_HEAD_BYTES + 1];
        assert!(parse_head(&endless).is_err(), "oversized head");
    }

    #[test]
    fn deadlines_compose_downward_only() {
        let ten = Duration::from_secs(10);
        assert_eq!(effective_budget(ten, None), Some(ten));
        // The header can shorten…
        assert_eq!(
            effective_budget(ten, Some(250)),
            Some(Duration::from_millis(250))
        );
        // …but never extend.
        assert_eq!(effective_budget(ten, Some(60_000)), Some(ten));
        // A zero server budget disables it; the header may still bound.
        assert_eq!(effective_budget(Duration::ZERO, None), None);
        assert_eq!(
            effective_budget(Duration::ZERO, Some(100)),
            Some(Duration::from_millis(100))
        );
    }

    #[test]
    fn only_simulation_backed_queries_are_expensive() {
        let cheap = QueryRequest::from_json_str(r#"{"query":"price","hr":0.95}"#).unwrap();
        assert!(!expensive(&cheap));
        assert!(!expensive(&QueryRequest::Experiments));
        let sim = QueryRequest::from_json_str(
            r#"{"query":"simulate","program":"ear","instructions":1000}"#,
        )
        .unwrap();
        assert!(expensive(&sim));
    }

    #[test]
    fn overload_sheds_expensive_queries_but_admits_cheap_ones() {
        let stats = ServerStats::new(2);
        let cheap = Request {
            method: "POST".to_string(),
            path: "/query".to_string(),
            body: r#"{"query":"price","hr":0.95}"#.to_string(),
        };
        let out = route(&cheap, None, None, true, None, &stats);
        assert_eq!(out.status, 200, "cheap queries ride through overload");

        let sim = Request {
            method: "POST".to_string(),
            path: "/query".to_string(),
            body: r#"{"query":"simulate","program":"ear","instructions":1000}"#.to_string(),
        };
        let out = route(&sim, None, None, true, None, &stats);
        assert_eq!(out.status, 503);
        assert_eq!(out.retry_after, Some(1), "sheds carry Retry-After");
        assert!(out.body.contains("overloaded"), "{}", out.body);
        assert_eq!(stats.sheds_dispatch.load(Ordering::Relaxed), 1);

        // Unloaded, the same expensive query dispatches.
        let out = route(&sim, None, None, false, None, &stats);
        assert_eq!(out.status, 200, "{}", out.body);
    }

    #[test]
    fn expired_deadlines_answer_504_without_dispatching() {
        let stats = ServerStats::new(2);
        let req = Request {
            method: "POST".to_string(),
            path: "/query".to_string(),
            body: r#"{"query":"price","hr":0.95}"#.to_string(),
        };
        let out = route(&req, None, None, false, Some(Instant::now()), &stats);
        assert_eq!(out.status, 504);
        assert!(out.body.contains("deadline-exceeded"), "{}", out.body);
        assert_eq!(stats.deadline_timeouts.load(Ordering::Relaxed), 1);

        // /stats ignores the deadline: observability never times out.
        let req = Request {
            method: "GET".to_string(),
            path: "/stats".to_string(),
            body: String::new(),
        };
        let out = route(&req, None, None, false, Some(Instant::now()), &stats);
        assert_eq!(out.status, 200);
    }

    #[test]
    fn shutdown_auth_policy_gates_the_route() {
        let stats = ServerStats::new(2);
        let shutdown_req = |body: &str| Request {
            method: "POST".to_string(),
            path: "/shutdown".to_string(),
            body: body.to_string(),
        };
        let route_plain = |req: &Request, peer: Option<&SocketAddr>, token: Option<&str>| {
            route(req, peer, token, false, None, &stats)
        };
        let local: SocketAddr = "127.0.0.1:50000".parse().unwrap();
        let remote: SocketAddr = "192.0.2.7:50000".parse().unwrap();

        // No token configured: loopback may stop, remote peers may not.
        let out = route_plain(&shutdown_req(""), Some(&local), None);
        assert_eq!((out.status, out.shutdown), (200, true));
        let out = route_plain(&shutdown_req(""), Some(&remote), None);
        assert_eq!((out.status, out.shutdown), (403, false));
        assert_eq!(out.kind, "shutdown");
        assert!(out.body.contains("loopback-only"), "{}", out.body);
        // An unknown peer (socket gone) is treated as remote.
        let out = route_plain(&shutdown_req(""), None, None);
        assert_eq!((out.status, out.shutdown), (403, false));

        // Token configured: required from everyone, loopback included.
        let token = Some("s3cret");
        let out = route_plain(&shutdown_req(""), Some(&local), token);
        assert_eq!((out.status, out.shutdown), (403, false));
        assert!(out.body.contains("forbidden"), "{}", out.body);
        let out = route_plain(&shutdown_req(r#"{"token":"wrong"}"#), Some(&local), token);
        assert_eq!((out.status, out.shutdown), (403, false));
        let out = route_plain(&shutdown_req(r#"{"token":"s3cret"}"#), Some(&remote), token);
        assert_eq!((out.status, out.shutdown), (200, true));

        // A body is read strictly: a malformed one is a 400 naming the
        // problem, never a stop and never a misleading 403.
        for (body, names) in [
            (r#"{"token":"s3cret""#, "malformed JSON"),
            (r#"{"tokn":"s3cret"}"#, r#""tokn" is an unknown key"#),
            (r#"{"token":5}"#, r#""token" must be a string"#),
            (r#"["s3cret"]"#, "must be a JSON object"),
        ] {
            for t in [token, None] {
                let out = route_plain(&shutdown_req(body), Some(&local), t);
                assert_eq!((out.status, out.shutdown), (400, false), "{body}");
                let reply = Json::parse(&out.body).unwrap();
                let error = reply.get("error").unwrap();
                assert_eq!(
                    error.get("kind").and_then(Json::as_str),
                    Some("bad-request")
                );
                let message = error.get("message").and_then(Json::as_str).unwrap();
                assert!(message.starts_with("shutdown"), "{message}");
                assert!(message.contains(names), "{body}: {message}");
            }
        }

        // The guard never leaks into other endpoints.
        let req = Request {
            method: "GET".to_string(),
            path: "/stats".to_string(),
            body: String::new(),
        };
        let out = route_plain(&req, Some(&remote), token);
        assert_eq!((out.status, out.shutdown), (200, false));
    }

    #[test]
    fn serves_queries_stats_and_shuts_down() {
        let (addr, handle) = spawn_server();
        let addr_s = addr.to_string();

        // A query answer comes straight from dispatch.
        let req = r#"{"query": "price", "hr": 0.95}"#;
        let (status, body) = http_call(&addr_s, "POST", "/query", Some(req)).unwrap();
        assert_eq!(status, 200);
        assert!(body.starts_with(r#"{"ok":true,"query":"price""#), "{body}");
        assert!(body.ends_with('\n'));

        // Bad requests map to 400 with the typed error JSON.
        let (status, body) = http_call(&addr_s, "POST", "/query", Some("{nope")).unwrap();
        assert_eq!(status, 400);
        assert!(body.contains("bad-request"), "{body}");

        // Unknown endpoints and wrong methods are typed errors too.
        let (status, _) = http_call(&addr_s, "GET", "/nope", None).unwrap();
        assert_eq!(status, 404);
        let (status, _) = http_call(&addr_s, "GET", "/query", None).unwrap();
        assert_eq!(status, 405);

        // /experiments is the experiments query verbatim.
        let (status, body) = http_call(&addr_s, "GET", "/experiments", None).unwrap();
        assert_eq!(status, 200);
        assert!(body.contains(r#""query":"experiments""#), "{body}");
        assert!(body.contains("fig1"), "{body}");

        // /stats carries server latency counters, the robustness
        // counters, and the store snapshot.
        let (status, body) = http_call(&addr_s, "GET", "/stats", None).unwrap();
        assert_eq!(status, 200);
        let stats = Json::parse(body.trim()).expect("stats is valid JSON");
        let server = stats.get("server").expect("server section");
        assert!(server.get("requests").unwrap().as_u64().unwrap() >= 5);
        assert!(server.get("errors").unwrap().as_u64().unwrap() >= 3);
        let pool = server.get("pool").expect("pool section");
        assert_eq!(pool.get("size").unwrap().as_u64(), Some(2));
        assert_eq!(
            pool.get("alive").unwrap().as_u64(),
            Some(2),
            "the pool invariant: alive == size while serving"
        );
        let overload = server.get("overload").expect("overload section");
        assert_eq!(overload.get("sheds_accept").unwrap().as_u64(), Some(0));
        assert_eq!(server.get("panics_contained").unwrap().as_u64(), Some(0));
        assert_eq!(server.get("deadline_timeouts").unwrap().as_u64(), Some(0));
        let conns = server.get("connections").expect("connections section");
        assert!(conns.get("accepted").unwrap().as_u64().unwrap() >= 5);
        let wf = server.get("write_failures").expect("write_failures");
        assert_eq!(wf.get("5xx").unwrap().as_u64(), Some(0));
        let store = stats.get("store").expect("store section");
        for key in [
            "trace_hits",
            "trace_misses",
            "hist_misses",
            "coalesced_waits",
            "trace_bytes",
            "poison_recoveries",
        ] {
            assert!(store.get(key).is_some(), "missing store.{key}");
        }

        // Graceful shutdown: the call returns, then serve() drains.
        let (status, body) = http_call(&addr_s, "POST", "/shutdown", None).unwrap();
        assert_eq!(status, 200);
        assert!(body.contains("true"), "{body}");
        handle.join().expect("server thread joins cleanly");
    }

    #[test]
    fn keepalive_connections_serve_many_requests_on_one_stream() {
        let (addr, handle) = spawn_server();
        let addr_s = addr.to_string();

        let mut client = HttpClient::connect(&addr_s).unwrap();
        let first = client
            .call("POST", "/query", Some(r#"{"query":"price","hr":0.95}"#))
            .unwrap();
        assert_eq!(first.status, 200);
        for _ in 0..3 {
            let again = client
                .call("POST", "/query", Some(r#"{"query":"price","hr":0.95}"#))
                .unwrap();
            assert_eq!(again.body, first.body, "keep-alive answers are stable");
        }
        let reply = client.call("GET", "/stats", None).unwrap();
        let stats = Json::parse(reply.body.trim()).unwrap();
        let conns = stats.get("server").unwrap().get("connections").unwrap();
        assert!(
            conns.get("keepalive_reuses").unwrap().as_u64().unwrap() >= 4,
            "{}",
            reply.body
        );

        let (status, _) = http_call(&addr_s, "POST", "/shutdown", None).unwrap();
        assert_eq!(status, 200);
        handle.join().expect("server thread joins cleanly");
    }
}
