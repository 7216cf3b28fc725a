//! The typed query API every front end dispatches through.
//!
//! The paper's methodology is a *design-time oracle*: given a machine
//! point `{D, L, β_m, q}` and a workload, what are φ, ΔHR and the
//! feature ranking? This module makes that question a first-class,
//! serialisable value: a [`QueryRequest`] goes in, one pure
//! [`dispatch`] call answers it, and a [`QueryResponse`] (or a typed
//! [`ApiError`]) comes out. The `tradeoff` CLI renders the response as
//! tables; the `tradeoff-server` binary writes it straight onto an HTTP
//! connection — both are thin formatters over the *same* `dispatch`,
//! so a served answer is byte-derived from the CLI's code path (pinned
//! by the workspace's server integration tests).
//!
//! Trace-backed queries (the miss-ratio grids, the φ point queries)
//! depend on workload folds that a long-running process should memoise.
//! `dispatch` therefore takes a [`Workloads`] provider: the `bench`
//! crate's trace store implements it with process-wide memoisation and
//! request coalescing, while [`Uncached`] recomputes from scratch
//! (useful for tests and one-shot embedding). Dispatch itself stays
//! pure — deterministic output, no I/O, no global state.
//!
//! The wire format is flat JSON with a `"query"` discriminator, e.g.
//! `{"query": "price", "hr": 0.95}`. Unknown keys and unknown
//! discriminators are rejected (`bad-request`), mirroring the CLI's
//! strict flag validation and its usage exit code.

use crate::cost::PinModel;
use crate::linesize::{optimal_line_eq19, optimal_line_smith, FillTiming, LineCandidate};
use crate::{mean_access_time, HitRatio, Machine, SystemConfig};
use report::Json;
use simcache::{Analytic, CacheConfig, Resolution, Simulated};
use simcpu::{CpuConfig, MissTimeline, StallFeature, TimelineCpu};
use simmem::{BusWidth, MemoryTiming};
use simtrace::workload::{self, WorkloadSpec};
use simtrace::ReuseHistograms;
use std::sync::Arc;

/// Seed every grid-style query folds workloads under — the same seed
/// the `bench` sweep experiments use, so a server answering queries
/// shares its memoised folds with suite runs (asserted in `bench`).
pub const GRID_SEED: u64 = 7;

/// Default seed for φ point queries (`simulate`), matching the
/// historical CLI behaviour.
pub const SIMULATE_SEED: u64 = 1;

/// Reuse-distance histogram depth shared by every analytic build: deep
/// enough that the largest comparison-grid cache (64 KB of 8 B lines =
/// 8192 lines) never saturates.
pub const HIST_DISTANCE_CAP: usize = 1 << 14;

/// Line-size range folded into every reuse-distance histogram request.
pub const HIST_LINE_RANGE: (u64, u64) = (8, 128);

/// Upper bound on `instructions` any query may ask for — long enough
/// for paper-scale folds, short enough that one request cannot pin a
/// server for minutes.
pub const MAX_INSTRUCTIONS: usize = 100_000_000;

/// Upper bounds on the dense grid a single query may walk.
pub const MAX_DENSE_SETS: u64 = 1 << 20;
/// Companion associativity bound for [`MAX_DENSE_SETS`].
pub const MAX_DENSE_ASSOC: u32 = 64;

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// How a query failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ApiErrorKind {
    /// The request was malformed or out of range — the caller's fault.
    /// HTTP 400, CLI usage exit (2).
    BadRequest,
    /// The engine could not answer a well-formed request — the
    /// server's fault. HTTP 500, CLI failure exit (1).
    Internal,
}

impl ApiErrorKind {
    /// The wire keyword (`bad-request` / `internal`).
    pub fn name(self) -> &'static str {
        match self {
            ApiErrorKind::BadRequest => "bad-request",
            ApiErrorKind::Internal => "internal",
        }
    }

    /// The HTTP status code a server maps this kind to.
    pub fn http_status(self) -> u16 {
        match self {
            ApiErrorKind::BadRequest => 400,
            ApiErrorKind::Internal => 500,
        }
    }

    /// The process exit code the CLI maps this kind to (matching the
    /// historical scheme: 2 bad usage, 1 failure).
    pub fn exit_code(self) -> i32 {
        match self {
            ApiErrorKind::BadRequest => 2,
            ApiErrorKind::Internal => 1,
        }
    }
}

/// A typed query failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ApiError {
    /// Classification (drives HTTP status and CLI exit code).
    pub kind: ApiErrorKind,
    /// Human-readable cause.
    pub message: String,
}

impl ApiError {
    /// A caller-fault error.
    pub fn bad_request(message: impl Into<String>) -> ApiError {
        ApiError {
            kind: ApiErrorKind::BadRequest,
            message: message.into(),
        }
    }

    /// An engine-fault error.
    pub fn internal(message: impl Into<String>) -> ApiError {
        ApiError {
            kind: ApiErrorKind::Internal,
            message: message.into(),
        }
    }

    /// The error's wire form: `{"ok":false,"error":{...}}`.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("ok", Json::Bool(false)),
            (
                "error",
                Json::obj(vec![
                    ("kind", Json::str(self.kind.name())),
                    ("message", Json::str(&self.message)),
                ]),
            ),
        ])
    }
}

impl std::fmt::Display for ApiError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.kind.name(), self.message)
    }
}

impl std::error::Error for ApiError {}

fn bad<T>(message: impl Into<String>) -> Result<T, ApiError> {
    Err(ApiError::bad_request(message))
}

// ---------------------------------------------------------------------------
// Grid specifications (shared with `bench::grid`, which re-exports them)
// ---------------------------------------------------------------------------

/// The (cache size × line size × associativity) grid the simulated
/// backend answers, defined next to the sweeps it builds.
pub use simcache::explore::GridSpec;

/// The dense analytic-only grid: every set count `1..=max_sets` (most
/// are not powers of two — geometries trace replay cannot even
/// express) crossed with every line size and associativity
/// `1..=max_assoc`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DenseGrid {
    /// Line sizes in bytes (powers of two).
    pub line_sizes: Vec<u64>,
    /// Every set count `1..=max_sets` is evaluated.
    pub max_sets: u64,
    /// Every associativity `1..=max_assoc` is evaluated.
    pub max_assoc: u32,
}

impl DenseGrid {
    /// The paper-scale dense grid: 5 line sizes × 2084 set counts × 16
    /// ways = 166 720 points per workload, 1 000 320 across the six
    /// proxies.
    pub fn standard() -> Self {
        DenseGrid {
            line_sizes: vec![8, 16, 32, 64, 128],
            max_sets: 2084,
            max_assoc: 16,
        }
    }

    /// A debug-friendly slice of the dense grid for short suites.
    pub fn small() -> Self {
        DenseGrid {
            line_sizes: vec![8, 16, 32, 64, 128],
            max_sets: 64,
            max_assoc: 8,
        }
    }

    /// Grid points per workload.
    pub fn points(&self) -> usize {
        self.line_sizes.len() * self.max_sets as usize * self.max_assoc as usize
    }
}

/// The cheapest geometry on the dense grid reaching a target hit ratio.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DenseBest {
    /// Total capacity in bytes (`sets × line × assoc`).
    pub cache_bytes: u64,
    /// Line size in bytes.
    pub line_bytes: u64,
    /// Set count (need not be a power of two).
    pub sets: u64,
    /// Associativity.
    pub assoc: u32,
    /// The analytic hit ratio at that geometry.
    pub hit_ratio: f64,
}

/// Walks the whole dense grid for one workload and returns the
/// smallest-capacity geometry whose analytic hit ratio reaches
/// `target_hr` (ties resolved by walk order: line, then sets, then
/// assoc). Bucketed resolution: one `conflict_curve` per (line, sets)
/// answers all `max_assoc` ways at once.
///
/// # Panics
///
/// Panics when a requested line size was not folded into `analytic`.
pub fn dense_best(analytic: &Analytic, grid: &DenseGrid, target_hr: f64) -> Option<DenseBest> {
    let mut best: Option<DenseBest> = None;
    for &line_bytes in &grid.line_sizes {
        for sets in 1..=grid.max_sets {
            let curve = analytic
                .conflict_curve(line_bytes, sets, grid.max_assoc, Resolution::Bucketed)
                .expect("dense grid line sizes are folded");
            for (ai, &hit_ratio) in curve.iter().enumerate() {
                if hit_ratio < target_hr {
                    continue;
                }
                let assoc = ai as u32 + 1;
                let cache_bytes = sets * line_bytes * u64::from(assoc);
                if best.is_none_or(|b| cache_bytes < b.cache_bytes) {
                    best = Some(DenseBest {
                        cache_bytes,
                        line_bytes,
                        sets,
                        assoc,
                        hit_ratio,
                    });
                }
            }
        }
    }
    best
}

// ---------------------------------------------------------------------------
// The workload provider
// ---------------------------------------------------------------------------

/// A registered experiment, as listed by the `experiments` query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExperimentInfo {
    /// Registry id (`fig1`, `grid`, …).
    pub id: String,
    /// Human-readable section title.
    pub title: String,
    /// Filter tags.
    pub tags: Vec<String>,
    /// Shared trace-store keys the experiment warms.
    pub traces: Vec<String>,
}

/// Supplies the workload-derived state trace-backed queries need.
///
/// [`dispatch`] never generates or folds traces itself — it asks this
/// provider, so a long-running process can memoise folds across
/// requests (the `bench` trace store does, with same-key coalescing)
/// while tests and one-shot embedders use [`Uncached`].
pub trait Workloads: Sync {
    /// Reuse-distance histograms of a workload prefix (the analytic
    /// backend's input). The spec's content identity plus the scalar
    /// parameters are the memoisation key.
    #[allow(clippy::too_many_arguments)]
    fn histograms(
        &self,
        spec: &WorkloadSpec,
        seed: u64,
        len: usize,
        min_line: u64,
        max_line: u64,
        max_distance: usize,
        warmup: u64,
    ) -> Arc<ReuseHistograms>;

    /// A simulated hit-ratio backend covering `grid` for one workload,
    /// folded under the provider's canonical sweep seed
    /// ([`GRID_SEED`]).
    fn simulated_grid(
        &self,
        spec: &WorkloadSpec,
        grid: &GridSpec,
        instructions: usize,
    ) -> Simulated;

    /// The miss-event timeline of a workload prefix under `cache` (the
    /// φ point query's input). The spec's content identity plus the
    /// scalar parameters are the memoisation key.
    fn timeline(
        &self,
        spec: &WorkloadSpec,
        seed: u64,
        len: usize,
        cache: &CacheConfig,
    ) -> Arc<MissTimeline>;

    /// The registered experiments, in registry order. Providers without
    /// a registry (like [`Uncached`]) return an empty list.
    fn experiments(&self) -> Vec<ExperimentInfo> {
        Vec::new()
    }
}

/// A provider that recomputes everything from scratch on every call —
/// no memoisation, no shared state. The reference implementation the
/// memoising providers are tested against.
#[derive(Debug, Clone, Copy, Default)]
pub struct Uncached;

impl Workloads for Uncached {
    fn histograms(
        &self,
        spec: &WorkloadSpec,
        seed: u64,
        len: usize,
        min_line: u64,
        max_line: u64,
        max_distance: usize,
        warmup: u64,
    ) -> Arc<ReuseHistograms> {
        let mut hists = ReuseHistograms::new(min_line, max_line, max_distance, warmup);
        let trace: Vec<simtrace::Instr> = spec.compile(seed).take(len).collect();
        hists.process_slice(&trace);
        Arc::new(hists)
    }

    fn simulated_grid(
        &self,
        spec: &WorkloadSpec,
        grid: &GridSpec,
        instructions: usize,
    ) -> Simulated {
        let trace: Vec<simtrace::Instr> = spec.compile(GRID_SEED).take(instructions).collect();
        grid.simulate(&trace).expect("valid grid")
    }

    fn timeline(
        &self,
        spec: &WorkloadSpec,
        seed: u64,
        len: usize,
        cache: &CacheConfig,
    ) -> Arc<MissTimeline> {
        Arc::new(MissTimeline::extract(*cache, spec.compile(seed).take(len)))
    }
}

// ---------------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------------

/// The `price` query: what is each feature worth in hit ratio at a
/// design point?
#[derive(Debug, Clone, PartialEq)]
pub struct PriceQuery {
    /// Bus width `D` in bytes.
    pub bus: f64,
    /// Line size `L` in bytes.
    pub line: f64,
    /// Memory cycle time `β_m`.
    pub beta: f64,
    /// Baseline hit ratio.
    pub hr: f64,
    /// Dirty-flush ratio `α`.
    pub alpha: f64,
    /// Pipelining depth `q` priced for pipelined memory.
    pub q: f64,
    /// Issue width `w`.
    pub width: u32,
}

impl Default for PriceQuery {
    fn default() -> Self {
        PriceQuery {
            bus: 4.0,
            line: 32.0,
            beta: 8.0,
            hr: 0.95,
            alpha: 0.5,
            q: 2.0,
            width: 1,
        }
    }
}

/// The `crossover` query: where does pipelined memory start to win?
#[derive(Debug, Clone, PartialEq)]
pub struct CrossoverQuery {
    /// Transfer chunks per line (`L/D`).
    pub chunks: f64,
    /// Pipelining depth `q`.
    pub q: f64,
    /// Dirty-flush ratio `α`.
    pub alpha: f64,
}

/// The `linesize` query: optimal line size for a measured curve.
#[derive(Debug, Clone, PartialEq)]
pub struct LinesizeQuery {
    /// Fill-time constant `c`.
    pub c: f64,
    /// Fill-time slope `β`.
    pub beta: f64,
    /// Bus width `D` in bytes.
    pub bus: f64,
    /// `(line bytes, hit ratio)` candidates.
    pub curve: Vec<(f64, f64)>,
}

/// The `design` query: enumerate configurations meeting a mean-access-
/// time target at minimum pin cost.
#[derive(Debug, Clone, PartialEq)]
pub struct DesignQuery {
    /// Hit ratio the memory system runs at.
    pub hr: f64,
    /// Mean access time to meet.
    pub target: f64,
    /// Line size `L` in bytes.
    pub line: f64,
    /// Memory cycle time `β_m`.
    pub beta: f64,
    /// Dirty-flush ratio `α`.
    pub alpha: f64,
}

/// How a query names its workload: a built-in name or an inline
/// declarative spec.
#[derive(Debug, Clone, PartialEq)]
pub enum WorkloadRef {
    /// A built-in named workload (`ear`, `nasa7`, …) — wire key
    /// `"program"`.
    Named(String),
    /// An inline [`WorkloadSpec`] — wire key `"workload"`.
    Inline(WorkloadSpec),
}

impl WorkloadRef {
    /// The human-facing label (the name, or `spec:<hash>` for
    /// anonymous inline specs).
    pub fn label(&self) -> String {
        match self {
            WorkloadRef::Named(name) => name.clone(),
            WorkloadRef::Inline(spec) => spec.label(),
        }
    }

    /// Resolves to the spec this reference denotes.
    ///
    /// # Errors
    ///
    /// [`ApiErrorKind::BadRequest`] when a named workload is not a
    /// built-in.
    pub fn resolve(&self) -> Result<&WorkloadSpec, ApiError> {
        match self {
            WorkloadRef::Named(name) => workload::builtin(name)
                .ok_or_else(|| ApiError::bad_request(format!("unknown program {name:?}"))),
            WorkloadRef::Inline(spec) => Ok(spec),
        }
    }
}

/// The `simulate` query: a φ point — run one workload at one machine
/// configuration and report the measured `{HR, α, φ, CPI}`.
#[derive(Debug, Clone, PartialEq)]
pub struct SimulateQuery {
    /// The workload: a built-in name or an inline spec.
    pub workload: WorkloadRef,
    /// Instructions to run.
    pub instructions: usize,
    /// Stalling feature keyword (`fs`, `bl`, `bnl1..3`, `nb`).
    pub stall: String,
    /// Data-cache capacity in bytes.
    pub cache: u64,
    /// Line size in bytes.
    pub line: u64,
    /// Bus width in bytes.
    pub bus: u64,
    /// Memory cycle time `β_m`.
    pub beta: u64,
    /// Workload seed.
    pub seed: u64,
}

impl Default for SimulateQuery {
    fn default() -> Self {
        SimulateQuery {
            workload: WorkloadRef::Named(String::new()),
            instructions: 100_000,
            stall: "fs".to_string(),
            cache: 8 * 1024,
            line: 32,
            bus: 4,
            beta: 8,
            seed: SIMULATE_SEED,
        }
    }
}

/// Which hit-ratio backend a `grid` query uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GridBackend {
    /// Single-pass stack-distance sweeps over the comparison grid.
    Sim,
    /// Closed-form reuse-histogram walks over the dense grid.
    Analytic,
}

impl GridBackend {
    /// The wire keyword.
    pub fn name(self) -> &'static str {
        match self {
            GridBackend::Sim => "sim",
            GridBackend::Analytic => "analytic",
        }
    }
}

/// The `grid` query: answer a hit-ratio design grid.
#[derive(Debug, Clone, PartialEq)]
pub struct GridQuery {
    /// Backend choice.
    pub backend: GridBackend,
    /// Trace length per workload.
    pub instructions: usize,
    /// Target hit ratio for the analytic capacity search.
    pub target: f64,
    /// Dense-grid set-count bound (analytic backend).
    pub max_sets: u64,
    /// Dense-grid associativity bound (analytic backend).
    pub max_assoc: u32,
    /// Built-in workload names to answer for; empty (with no inline
    /// `workloads` either) means all six proxies.
    pub programs: Vec<String>,
    /// Inline workload specs to answer for, in addition to `programs`.
    pub workloads: Vec<WorkloadSpec>,
}

impl Default for GridQuery {
    fn default() -> Self {
        GridQuery {
            backend: GridBackend::Analytic,
            instructions: 120_000,
            target: 0.9,
            max_sets: 2084,
            max_assoc: 16,
            programs: Vec::new(),
            workloads: Vec::new(),
        }
    }
}

/// What the `workloads` query asks for.
#[derive(Debug, Clone, PartialEq)]
pub enum WorkloadsQuery {
    /// List the built-in named specs.
    List,
    /// Show one built-in spec by name.
    Show {
        /// The built-in name.
        name: String,
    },
    /// Validate an inline spec and report its identity. An invalid
    /// spec is rejected at parse time (`bad-request`), so dispatching
    /// this always reports a valid spec.
    Validate(WorkloadSpec),
}

/// One typed query — the single entry point of the service.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryRequest {
    /// Feature pricing at a design point.
    Price(PriceQuery),
    /// Pipelined-memory crossover thresholds.
    Crossover(CrossoverQuery),
    /// Optimal line-size selection.
    Linesize(LinesizeQuery),
    /// Minimum-pin design search.
    Design(DesignQuery),
    /// One φ point through the timeline engine.
    Simulate(SimulateQuery),
    /// A hit-ratio design grid.
    Grid(GridQuery),
    /// The experiment registry listing.
    Experiments,
    /// Workload catalogue: list/show built-ins, validate inline specs.
    Workloads(WorkloadsQuery),
}

impl QueryRequest {
    /// The wire discriminator (`price`, `grid`, …).
    pub fn kind(&self) -> &'static str {
        match self {
            QueryRequest::Price(_) => "price",
            QueryRequest::Crossover(_) => "crossover",
            QueryRequest::Linesize(_) => "linesize",
            QueryRequest::Design(_) => "design",
            QueryRequest::Simulate(_) => "simulate",
            QueryRequest::Grid(_) => "grid",
            QueryRequest::Experiments => "experiments",
            QueryRequest::Workloads(_) => "workloads",
        }
    }

    /// Parses a request from its wire JSON text.
    ///
    /// # Errors
    ///
    /// [`ApiErrorKind::BadRequest`] on malformed JSON, an unknown
    /// `"query"` discriminator, unknown keys, or out-of-range values.
    pub fn from_json_str(text: &str) -> Result<QueryRequest, ApiError> {
        let value =
            Json::parse(text).map_err(|e| ApiError::bad_request(format!("bad JSON: {e}")))?;
        QueryRequest::from_json(&value)
    }

    /// Parses a request from a decoded JSON value.
    ///
    /// # Errors
    ///
    /// Same conditions as [`QueryRequest::from_json_str`].
    pub fn from_json(value: &Json) -> Result<QueryRequest, ApiError> {
        if value.as_obj().is_none() {
            return bad("request must be a JSON object");
        }
        let kind = value
            .get("query")
            .and_then(Json::as_str)
            .ok_or_else(|| ApiError::bad_request("missing \"query\" discriminator"))?;
        let p = Params { obj: value };
        match kind {
            "price" => {
                p.check_keys(&["bus", "line", "beta", "hr", "alpha", "q", "width"])?;
                let d = PriceQuery::default();
                Ok(QueryRequest::Price(PriceQuery {
                    bus: p.f64("bus", Some(d.bus))?,
                    line: p.f64("line", Some(d.line))?,
                    beta: p.f64("beta", Some(d.beta))?,
                    hr: p.f64("hr", None)?,
                    alpha: p.f64("alpha", Some(d.alpha))?,
                    q: p.f64("q", Some(d.q))?,
                    width: p.u32("width", d.width)?,
                }))
            }
            "crossover" => {
                p.check_keys(&["chunks", "q", "alpha"])?;
                Ok(QueryRequest::Crossover(CrossoverQuery {
                    chunks: p.f64("chunks", None)?,
                    q: p.f64("q", Some(2.0))?,
                    alpha: p.f64("alpha", Some(0.5))?,
                }))
            }
            "linesize" => {
                p.check_keys(&["c", "beta", "bus", "curve"])?;
                let curve = value
                    .get("curve")
                    .ok_or_else(|| ApiError::bad_request("missing required \"curve\""))?;
                let pairs = curve
                    .as_arr()
                    .ok_or_else(|| ApiError::bad_request("\"curve\" must be an array"))?;
                let mut parsed = Vec::with_capacity(pairs.len());
                for pair in pairs {
                    let two = pair.as_arr().filter(|a| a.len() == 2).ok_or_else(|| {
                        ApiError::bad_request("curve entries must be [line_bytes, hit_ratio]")
                    })?;
                    let line = two[0]
                        .as_f64()
                        .ok_or_else(|| ApiError::bad_request("bad curve line size"))?;
                    let hr = two[1]
                        .as_f64()
                        .ok_or_else(|| ApiError::bad_request("bad curve hit ratio"))?;
                    parsed.push((line, hr));
                }
                Ok(QueryRequest::Linesize(LinesizeQuery {
                    c: p.f64("c", None)?,
                    beta: p.f64("beta", None)?,
                    bus: p.f64("bus", Some(4.0))?,
                    curve: parsed,
                }))
            }
            "design" => {
                p.check_keys(&["hr", "target", "line", "beta", "alpha"])?;
                Ok(QueryRequest::Design(DesignQuery {
                    hr: p.f64("hr", None)?,
                    target: p.f64("target", None)?,
                    line: p.f64("line", Some(32.0))?,
                    beta: p.f64("beta", Some(8.0))?,
                    alpha: p.f64("alpha", Some(0.5))?,
                }))
            }
            "simulate" => {
                p.check_keys(&[
                    "program",
                    "workload",
                    "instructions",
                    "stall",
                    "cache",
                    "line",
                    "bus",
                    "beta",
                    "seed",
                ])?;
                let d = SimulateQuery::default();
                let workload = parse_workload_ref(value)?;
                Ok(QueryRequest::Simulate(SimulateQuery {
                    workload,
                    instructions: p.u64("instructions", Some(d.instructions as u64))? as usize,
                    stall: p.str_or("stall", &d.stall)?.to_string(),
                    cache: p.u64("cache", Some(d.cache))?,
                    line: p.u64("line", Some(d.line))?,
                    bus: p.u64("bus", Some(d.bus))?,
                    beta: p.u64("beta", Some(d.beta))?,
                    seed: p.u64("seed", Some(d.seed))?,
                }))
            }
            "grid" => {
                p.check_keys(&[
                    "backend",
                    "instructions",
                    "target",
                    "sets",
                    "assoc",
                    "programs",
                    "workloads",
                ])?;
                let d = GridQuery::default();
                let backend = match p.str_or("backend", "analytic")? {
                    "sim" => GridBackend::Sim,
                    "analytic" => GridBackend::Analytic,
                    other => {
                        return bad(format!("unknown backend {other:?} (want sim or analytic)"))
                    }
                };
                let programs = match value.get("programs") {
                    None => Vec::new(),
                    Some(list) => {
                        let items = list.as_arr().ok_or_else(|| {
                            ApiError::bad_request("\"programs\" must be an array")
                        })?;
                        items
                            .iter()
                            .map(|i| {
                                i.as_str().map(str::to_string).ok_or_else(|| {
                                    ApiError::bad_request("program names must be strings")
                                })
                            })
                            .collect::<Result<Vec<_>, _>>()?
                    }
                };
                let workloads = match value.get("workloads") {
                    None => Vec::new(),
                    Some(list) => {
                        let items = list.as_arr().ok_or_else(|| {
                            ApiError::bad_request("\"workloads\" must be an array")
                        })?;
                        items
                            .iter()
                            .map(|i| WorkloadSpec::from_json(i).map_err(ApiError::bad_request))
                            .collect::<Result<Vec<_>, _>>()?
                    }
                };
                Ok(QueryRequest::Grid(GridQuery {
                    backend,
                    instructions: p.u64("instructions", Some(d.instructions as u64))? as usize,
                    target: p.f64("target", Some(d.target))?,
                    max_sets: p.u64("sets", Some(d.max_sets))?,
                    max_assoc: p.u32("assoc", d.max_assoc)?,
                    programs,
                    workloads,
                }))
            }
            "experiments" => {
                p.check_keys(&[])?;
                Ok(QueryRequest::Experiments)
            }
            "workloads" => {
                p.check_keys(&["action", "name", "workload"])?;
                let action = p.str_or("action", "list")?;
                match action {
                    "list" => Ok(QueryRequest::Workloads(WorkloadsQuery::List)),
                    "show" => Ok(QueryRequest::Workloads(WorkloadsQuery::Show {
                        name: p.required_str("name")?.to_string(),
                    })),
                    "validate" => {
                        let spec = value.get("workload").ok_or_else(|| {
                            ApiError::bad_request("validate needs an inline \"workload\"")
                        })?;
                        Ok(QueryRequest::Workloads(WorkloadsQuery::Validate(
                            WorkloadSpec::from_json(spec).map_err(ApiError::bad_request)?,
                        )))
                    }
                    other => bad(format!(
                        "unknown action {other:?} (want list, show or validate)"
                    )),
                }
            }
            other => bad(format!("unknown query {other:?}")),
        }
    }

    /// The request's canonical wire form (every field explicit).
    pub fn to_json(&self) -> Json {
        let kind = ("query", Json::str(self.kind()));
        match self {
            QueryRequest::Price(q) => Json::obj(vec![
                kind,
                ("bus", Json::num(q.bus)),
                ("line", Json::num(q.line)),
                ("beta", Json::num(q.beta)),
                ("hr", Json::num(q.hr)),
                ("alpha", Json::num(q.alpha)),
                ("q", Json::num(q.q)),
                ("width", Json::num(q.width)),
            ]),
            QueryRequest::Crossover(q) => Json::obj(vec![
                kind,
                ("chunks", Json::num(q.chunks)),
                ("q", Json::num(q.q)),
                ("alpha", Json::num(q.alpha)),
            ]),
            QueryRequest::Linesize(q) => Json::obj(vec![
                kind,
                ("c", Json::num(q.c)),
                ("beta", Json::num(q.beta)),
                ("bus", Json::num(q.bus)),
                (
                    "curve",
                    Json::Arr(
                        q.curve
                            .iter()
                            .map(|&(l, h)| Json::Arr(vec![Json::num(l), Json::num(h)]))
                            .collect(),
                    ),
                ),
            ]),
            QueryRequest::Design(q) => Json::obj(vec![
                kind,
                ("hr", Json::num(q.hr)),
                ("target", Json::num(q.target)),
                ("line", Json::num(q.line)),
                ("beta", Json::num(q.beta)),
                ("alpha", Json::num(q.alpha)),
            ]),
            QueryRequest::Simulate(q) => {
                let workload = match &q.workload {
                    WorkloadRef::Named(name) => ("program", Json::str(name)),
                    WorkloadRef::Inline(spec) => ("workload", spec.to_json()),
                };
                Json::obj(vec![
                    kind,
                    workload,
                    ("instructions", Json::num(q.instructions as f64)),
                    ("stall", Json::str(&q.stall)),
                    ("cache", Json::num(q.cache as f64)),
                    ("line", Json::num(q.line as f64)),
                    ("bus", Json::num(q.bus as f64)),
                    ("beta", Json::num(q.beta as f64)),
                    ("seed", Json::num(q.seed as f64)),
                ])
            }
            QueryRequest::Grid(q) => {
                let mut pairs = vec![
                    kind,
                    ("backend", Json::str(q.backend.name())),
                    ("instructions", Json::num(q.instructions as f64)),
                    ("target", Json::num(q.target)),
                    ("sets", Json::num(q.max_sets as f64)),
                    ("assoc", Json::num(q.max_assoc)),
                    (
                        "programs",
                        Json::Arr(q.programs.iter().map(Json::str).collect()),
                    ),
                ];
                if !q.workloads.is_empty() {
                    pairs.push((
                        "workloads",
                        Json::Arr(q.workloads.iter().map(WorkloadSpec::to_json).collect()),
                    ));
                }
                Json::obj(pairs)
            }
            QueryRequest::Experiments => Json::obj(vec![kind]),
            QueryRequest::Workloads(q) => match q {
                WorkloadsQuery::List => Json::obj(vec![kind, ("action", Json::str("list"))]),
                WorkloadsQuery::Show { name } => Json::obj(vec![
                    kind,
                    ("action", Json::str("show")),
                    ("name", Json::str(name)),
                ]),
                WorkloadsQuery::Validate(spec) => Json::obj(vec![
                    kind,
                    ("action", Json::str("validate")),
                    ("workload", spec.to_json()),
                ]),
            },
        }
    }
}

/// Extracts the workload reference of a `simulate`-style request:
/// exactly one of `"program"` (a built-in name) or `"workload"` (an
/// inline spec object).
fn parse_workload_ref(value: &Json) -> Result<WorkloadRef, ApiError> {
    match (value.get("program"), value.get("workload")) {
        (Some(_), Some(_)) => bad("give either \"program\" or \"workload\", not both"),
        (Some(name), None) => Ok(WorkloadRef::Named(
            name.as_str()
                .ok_or_else(|| ApiError::bad_request("\"program\" must be a string"))?
                .to_string(),
        )),
        (None, Some(spec)) => Ok(WorkloadRef::Inline(
            WorkloadSpec::from_json(spec).map_err(ApiError::bad_request)?,
        )),
        (None, None) => bad("missing required \"program\" (or inline \"workload\")"),
    }
}

/// Strict field extraction over a request object.
struct Params<'a> {
    obj: &'a Json,
}

impl Params<'_> {
    /// Rejects keys outside `allowed` (plus the discriminator).
    fn check_keys(&self, allowed: &[&str]) -> Result<(), ApiError> {
        for key in self.obj.keys() {
            if key != "query" && !allowed.contains(&key) {
                return bad(format!("unknown key {key:?}"));
            }
        }
        Ok(())
    }

    fn f64(&self, key: &str, default: Option<f64>) -> Result<f64, ApiError> {
        match self.obj.get(key) {
            Some(v) => v
                .as_f64()
                .ok_or_else(|| ApiError::bad_request(format!("\"{key}\" must be a number"))),
            None => {
                default.ok_or_else(|| ApiError::bad_request(format!("missing required \"{key}\"")))
            }
        }
    }

    fn u64(&self, key: &str, default: Option<u64>) -> Result<u64, ApiError> {
        match self.obj.get(key) {
            Some(v) => v.as_u64().ok_or_else(|| {
                ApiError::bad_request(format!("\"{key}\" must be a non-negative integer"))
            }),
            None => {
                default.ok_or_else(|| ApiError::bad_request(format!("missing required \"{key}\"")))
            }
        }
    }

    /// [`Params::u64`], rejecting values that do not fit a `u32`
    /// instead of truncating them.
    fn u32(&self, key: &str, default: u32) -> Result<u32, ApiError> {
        let v = self.u64(key, Some(u64::from(default)))?;
        u32::try_from(v)
            .map_err(|_| ApiError::bad_request(format!("\"{key}\" must be at most {}", u32::MAX)))
    }

    fn required_str(&self, key: &str) -> Result<&str, ApiError> {
        self.obj
            .get(key)
            .and_then(Json::as_str)
            .ok_or_else(|| ApiError::bad_request(format!("missing required \"{key}\"")))
    }

    fn str_or<'s>(&'s self, key: &str, default: &'s str) -> Result<&'s str, ApiError> {
        match self.obj.get(key) {
            Some(v) => v
                .as_str()
                .ok_or_else(|| ApiError::bad_request(format!("\"{key}\" must be a string"))),
            None => Ok(default),
        }
    }
}

// ---------------------------------------------------------------------------
// Responses
// ---------------------------------------------------------------------------

/// One feature's price in hit ratio.
#[derive(Debug, Clone, PartialEq)]
pub struct FeatureWorth {
    /// Feature name (`doubling bus`, `write buffers`, `pipelined memory`).
    pub feature: String,
    /// ΔHR the feature is worth at the design point.
    pub delta_hr: f64,
    /// The hit ratio at which the unenhanced system performs equally.
    pub equal_performance_hr: f64,
}

/// Answer to a [`PriceQuery`].
#[derive(Debug, Clone, PartialEq)]
pub struct PriceResponse {
    /// The design point echoed back.
    pub query: PriceQuery,
    /// Per-feature worth, in canonical feature order.
    pub features: Vec<FeatureWorth>,
    /// Feature names ranked by descending ΔHR.
    pub ranking: Vec<String>,
}

/// Answer to a [`CrossoverQuery`].
#[derive(Debug, Clone, PartialEq)]
pub struct CrossoverResponse {
    /// The query echoed back.
    pub query: CrossoverQuery,
    /// β_m above which pipelined memory beats doubling the bus, when
    /// a crossover exists.
    pub vs_double_bus: Option<f64>,
    /// β_m above which pipelined memory beats write buffers.
    pub vs_write_buffers: Option<f64>,
}

/// Answer to a [`LinesizeQuery`].
#[derive(Debug, Clone, PartialEq)]
pub struct LinesizeResponse {
    /// The query echoed back.
    pub query: LinesizeQuery,
    /// Smith's (Eq. 16) optimal line size.
    pub smith_line_bytes: f64,
    /// The paper's (Eq. 19) optimal line size.
    pub eq19_line_bytes: f64,
    /// Whether the two methodologies agree.
    pub agree: bool,
}

/// One feasible configuration from a [`DesignQuery`].
#[derive(Debug, Clone, PartialEq)]
pub struct DesignRow {
    /// Package pins the bus costs.
    pub pins: u64,
    /// Bus width in bytes.
    pub bus: f64,
    /// Whether write buffers are enabled.
    pub write_buffers: bool,
    /// Whether pipelined memory is enabled.
    pub pipelined: bool,
    /// Mean access time at this configuration.
    pub mean_access_time: f64,
}

/// Answer to a [`DesignQuery`].
#[derive(Debug, Clone, PartialEq)]
pub struct DesignResponse {
    /// The query echoed back.
    pub query: DesignQuery,
    /// Feasible configurations, fewest pins first; empty when the
    /// target is unreachable.
    pub feasible: Vec<DesignRow>,
}

/// Answer to a [`SimulateQuery`]: the measured φ point.
#[derive(Debug, Clone, PartialEq)]
pub struct SimulateResponse {
    /// The query echoed back (with defaults resolved).
    pub query: SimulateQuery,
    /// Total execution cycles.
    pub cycles: u64,
    /// Cycles per instruction.
    pub cpi: f64,
    /// Data-cache hit ratio.
    pub hit_ratio: f64,
    /// The measured stalling factor φ.
    pub phi: f64,
    /// The measured dirty-flush ratio α.
    pub alpha: f64,
}

/// One workload's best point on the simulated comparison grid.
#[derive(Debug, Clone, PartialEq)]
pub struct SimGridRow {
    /// Workload name.
    pub program: String,
    /// Best hit ratio found on the grid.
    pub best_hit_ratio: f64,
    /// Capacity of the best geometry.
    pub cache_bytes: u64,
    /// Line size of the best geometry.
    pub line_bytes: u64,
    /// Associativity of the best geometry.
    pub assoc: u32,
}

/// One workload's cheapest target-reaching geometry on the dense grid.
#[derive(Debug, Clone, PartialEq)]
pub struct DenseGridRow {
    /// Workload name.
    pub program: String,
    /// The cheapest geometry reaching the target, when one exists.
    pub best: Option<DenseBest>,
}

/// Backend-specific grid rows.
#[derive(Debug, Clone, PartialEq)]
pub enum GridRows {
    /// Simulated comparison-grid bests.
    Sim(Vec<SimGridRow>),
    /// Dense-grid capacity planning.
    Dense(Vec<DenseGridRow>),
}

/// Answer to a [`GridQuery`].
#[derive(Debug, Clone, PartialEq)]
pub struct GridResponse {
    /// Backend that answered.
    pub backend: GridBackend,
    /// Trace length per workload.
    pub instructions: usize,
    /// Grid points answered (all workloads).
    pub points: usize,
    /// The analytic search target, when that backend ran.
    pub target: Option<f64>,
    /// Per-workload results.
    pub rows: GridRows,
}

/// Answer to the `experiments` query.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentsResponse {
    /// Registered experiments, registry order.
    pub experiments: Vec<ExperimentInfo>,
}

/// One catalogue entry in a `workloads list` answer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkloadInfo {
    /// The built-in name.
    pub name: String,
    /// The spec's content hash (full hex).
    pub id: String,
}

/// Answer to a `workloads` query.
#[derive(Debug, Clone, PartialEq)]
pub enum WorkloadsResponse {
    /// The built-in catalogue.
    List(Vec<WorkloadInfo>),
    /// One built-in spec in full.
    Show {
        /// The built-in name.
        name: String,
        /// The spec's content hash (full hex).
        id: String,
        /// The spec itself.
        spec: WorkloadSpec,
    },
    /// An inline spec checked out valid.
    Validated {
        /// The spec's content hash (full hex).
        id: String,
        /// The spec's human-facing label.
        label: String,
    },
}

/// One typed answer.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryResponse {
    /// Feature pricing.
    Price(PriceResponse),
    /// Crossover thresholds.
    Crossover(CrossoverResponse),
    /// Line-size selection.
    Linesize(LinesizeResponse),
    /// Design search.
    Design(DesignResponse),
    /// φ point.
    Simulate(SimulateResponse),
    /// Grid answers.
    Grid(GridResponse),
    /// Experiment listing.
    Experiments(ExperimentsResponse),
    /// Workload catalogue answers.
    Workloads(WorkloadsResponse),
}

fn opt_num(v: Option<f64>) -> Json {
    v.map_or(Json::Null, Json::num)
}

impl QueryResponse {
    /// The wire discriminator this response answers.
    pub fn kind(&self) -> &'static str {
        match self {
            QueryResponse::Price(_) => "price",
            QueryResponse::Crossover(_) => "crossover",
            QueryResponse::Linesize(_) => "linesize",
            QueryResponse::Design(_) => "design",
            QueryResponse::Simulate(_) => "simulate",
            QueryResponse::Grid(_) => "grid",
            QueryResponse::Experiments(_) => "experiments",
            QueryResponse::Workloads(_) => "workloads",
        }
    }

    /// The response's wire form: `{"ok":true,"query":…,"result":{…}}`.
    pub fn to_json(&self) -> Json {
        let result = match self {
            QueryResponse::Price(r) => Json::obj(vec![
                ("bus", Json::num(r.query.bus)),
                ("line", Json::num(r.query.line)),
                ("beta", Json::num(r.query.beta)),
                ("hr", Json::num(r.query.hr)),
                ("alpha", Json::num(r.query.alpha)),
                ("q", Json::num(r.query.q)),
                ("width", Json::num(r.query.width)),
                (
                    "features",
                    Json::Arr(
                        r.features
                            .iter()
                            .map(|f| {
                                Json::obj(vec![
                                    ("feature", Json::str(&f.feature)),
                                    ("delta_hr", Json::num(f.delta_hr)),
                                    ("equal_performance_hr", Json::num(f.equal_performance_hr)),
                                ])
                            })
                            .collect(),
                    ),
                ),
                (
                    "ranking",
                    Json::Arr(r.ranking.iter().map(Json::str).collect()),
                ),
            ]),
            QueryResponse::Crossover(r) => Json::obj(vec![
                ("chunks", Json::num(r.query.chunks)),
                ("q", Json::num(r.query.q)),
                ("alpha", Json::num(r.query.alpha)),
                ("vs_double_bus", opt_num(r.vs_double_bus)),
                ("vs_write_buffers", opt_num(r.vs_write_buffers)),
            ]),
            QueryResponse::Linesize(r) => Json::obj(vec![
                ("c", Json::num(r.query.c)),
                ("beta", Json::num(r.query.beta)),
                ("bus", Json::num(r.query.bus)),
                ("smith_line_bytes", Json::num(r.smith_line_bytes)),
                ("eq19_line_bytes", Json::num(r.eq19_line_bytes)),
                ("agree", Json::Bool(r.agree)),
            ]),
            QueryResponse::Design(r) => Json::obj(vec![
                ("hr", Json::num(r.query.hr)),
                ("target", Json::num(r.query.target)),
                (
                    "feasible",
                    Json::Arr(
                        r.feasible
                            .iter()
                            .map(|row| {
                                Json::obj(vec![
                                    ("pins", Json::num(row.pins as f64)),
                                    ("bus", Json::num(row.bus)),
                                    ("write_buffers", Json::Bool(row.write_buffers)),
                                    ("pipelined", Json::Bool(row.pipelined)),
                                    ("mean_access_time", Json::num(row.mean_access_time)),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ]),
            QueryResponse::Simulate(r) => Json::obj(vec![
                match &r.query.workload {
                    WorkloadRef::Named(name) => ("program", Json::str(name)),
                    WorkloadRef::Inline(spec) => ("workload", spec.to_json()),
                },
                ("instructions", Json::num(r.query.instructions as f64)),
                ("stall", Json::str(&r.query.stall)),
                ("cache", Json::num(r.query.cache as f64)),
                ("line", Json::num(r.query.line as f64)),
                ("bus", Json::num(r.query.bus as f64)),
                ("beta", Json::num(r.query.beta as f64)),
                ("seed", Json::num(r.query.seed as f64)),
                ("cycles", Json::num(r.cycles as f64)),
                ("cpi", Json::num(r.cpi)),
                ("hit_ratio", Json::num(r.hit_ratio)),
                ("phi", Json::num(r.phi)),
                ("alpha", Json::num(r.alpha)),
            ]),
            QueryResponse::Grid(r) => {
                let rows = match &r.rows {
                    GridRows::Sim(rows) => Json::Arr(
                        rows.iter()
                            .map(|row| {
                                Json::obj(vec![
                                    ("program", Json::str(&row.program)),
                                    ("best_hit_ratio", Json::num(row.best_hit_ratio)),
                                    ("cache_bytes", Json::num(row.cache_bytes as f64)),
                                    ("line_bytes", Json::num(row.line_bytes as f64)),
                                    ("assoc", Json::num(row.assoc)),
                                ])
                            })
                            .collect(),
                    ),
                    GridRows::Dense(rows) => Json::Arr(
                        rows.iter()
                            .map(|row| {
                                let mut pairs = vec![("program", Json::str(&row.program))];
                                match &row.best {
                                    Some(b) => {
                                        pairs.push(("reachable", Json::Bool(true)));
                                        pairs
                                            .push(("cache_bytes", Json::num(b.cache_bytes as f64)));
                                        pairs.push(("sets", Json::num(b.sets as f64)));
                                        pairs.push(("line_bytes", Json::num(b.line_bytes as f64)));
                                        pairs.push(("assoc", Json::num(b.assoc)));
                                        pairs.push(("hit_ratio", Json::num(b.hit_ratio)));
                                    }
                                    None => pairs.push(("reachable", Json::Bool(false))),
                                }
                                Json::obj(pairs)
                            })
                            .collect(),
                    ),
                };
                let mut pairs = vec![
                    ("backend", Json::str(r.backend.name())),
                    ("instructions", Json::num(r.instructions as f64)),
                    ("points", Json::num(r.points as f64)),
                ];
                if let Some(target) = r.target {
                    pairs.push(("target", Json::num(target)));
                }
                pairs.push(("rows", rows));
                Json::obj(pairs)
            }
            QueryResponse::Experiments(r) => Json::obj(vec![(
                "experiments",
                Json::Arr(
                    r.experiments
                        .iter()
                        .map(|e| {
                            Json::obj(vec![
                                ("id", Json::str(&e.id)),
                                ("title", Json::str(&e.title)),
                                ("tags", Json::Arr(e.tags.iter().map(Json::str).collect())),
                                (
                                    "traces",
                                    Json::Arr(e.traces.iter().map(Json::str).collect()),
                                ),
                            ])
                        })
                        .collect(),
                ),
            )]),
            QueryResponse::Workloads(r) => match r {
                WorkloadsResponse::List(infos) => Json::obj(vec![(
                    "workloads",
                    Json::Arr(
                        infos
                            .iter()
                            .map(|w| {
                                Json::obj(vec![
                                    ("name", Json::str(&w.name)),
                                    ("id", Json::str(&w.id)),
                                ])
                            })
                            .collect(),
                    ),
                )]),
                WorkloadsResponse::Show { name, id, spec } => Json::obj(vec![
                    ("name", Json::str(name)),
                    ("id", Json::str(id)),
                    ("spec", spec.to_json()),
                ]),
                WorkloadsResponse::Validated { id, label } => Json::obj(vec![
                    ("valid", Json::Bool(true)),
                    ("id", Json::str(id)),
                    ("label", Json::str(label)),
                ]),
            },
        };
        Json::obj(vec![
            ("ok", Json::Bool(true)),
            ("query", Json::str(self.kind())),
            ("result", result),
        ])
    }

    /// The response's wire text (no trailing newline).
    pub fn to_json_string(&self) -> String {
        self.to_json().render()
    }
}

// ---------------------------------------------------------------------------
// Dispatch
// ---------------------------------------------------------------------------

/// Parses a stalling-feature keyword (`fs`, `bl`, `bnl1..3`, `nb`).
///
/// # Errors
///
/// [`ApiErrorKind::BadRequest`] for unknown keywords.
pub fn parse_stall(name: &str) -> Result<StallFeature, ApiError> {
    Ok(match name {
        "fs" => StallFeature::FullStall,
        "bl" => StallFeature::BusLocked,
        "bnl1" => StallFeature::BusNotLocked1,
        "bnl2" => StallFeature::BusNotLocked2,
        "bnl3" => StallFeature::BusNotLocked3,
        "nb" => StallFeature::NonBlocking { mshrs: 4 },
        other => return bad(format!("unknown stalling feature {other:?}"))?,
    })
}

/// Resolves a grid query's workload set: named built-ins plus inline
/// specs; both empty means all six built-in proxies.
fn resolve_workloads<'a>(
    names: &[String],
    inline: &'a [WorkloadSpec],
) -> Result<Vec<&'a WorkloadSpec>, ApiError> {
    if names.is_empty() && inline.is_empty() {
        return Ok(workload::builtins().iter().collect());
    }
    let mut specs: Vec<&'a WorkloadSpec> = Vec::with_capacity(names.len() + inline.len());
    for name in names {
        specs.push(
            workload::builtin(name)
                .ok_or_else(|| ApiError::bad_request(format!("unknown program {name:?}")))?,
        );
    }
    specs.extend(inline);
    Ok(specs)
}

/// Answers one typed query. This is the single evaluation path: the
/// CLI's subcommands and the server's `POST /query` both call it, so
/// their answers are byte-derived from the same computation.
///
/// # Errors
///
/// [`ApiErrorKind::BadRequest`] for out-of-range or inconsistent
/// parameters; [`ApiErrorKind::Internal`] when a backend rejects a
/// request it should have covered.
pub fn dispatch(req: &QueryRequest, env: &dyn Workloads) -> Result<QueryResponse, ApiError> {
    match req {
        QueryRequest::Price(q) => price(q),
        QueryRequest::Crossover(q) => crossover(q),
        QueryRequest::Linesize(q) => linesize(q),
        QueryRequest::Design(q) => design(q),
        QueryRequest::Simulate(q) => simulate(q, env),
        QueryRequest::Grid(q) => grid(q, env),
        QueryRequest::Experiments => Ok(QueryResponse::Experiments(ExperimentsResponse {
            experiments: env.experiments(),
        })),
        QueryRequest::Workloads(q) => workloads_query(q),
    }
}

fn workloads_query(q: &WorkloadsQuery) -> Result<QueryResponse, ApiError> {
    let resp = match q {
        WorkloadsQuery::List => WorkloadsResponse::List(
            workload::builtins()
                .iter()
                .map(|s| WorkloadInfo {
                    name: s.label(),
                    id: s.id().hex(),
                })
                .collect(),
        ),
        WorkloadsQuery::Show { name } => {
            let spec = workload::builtin(name)
                .ok_or_else(|| ApiError::bad_request(format!("unknown workload {name:?}")))?;
            WorkloadsResponse::Show {
                name: name.clone(),
                id: spec.id().hex(),
                spec: spec.clone(),
            }
        }
        WorkloadsQuery::Validate(spec) => WorkloadsResponse::Validated {
            id: spec.id().hex(),
            label: spec.label(),
        },
    };
    Ok(QueryResponse::Workloads(resp))
}

/// [`dispatch`] against the [`Uncached`] provider — convenient for
/// one-shot embedding and tests.
///
/// # Errors
///
/// As [`dispatch`].
pub fn dispatch_uncached(req: &QueryRequest) -> Result<QueryResponse, ApiError> {
    dispatch(req, &Uncached)
}

fn price(q: &PriceQuery) -> Result<QueryResponse, ApiError> {
    let hr = HitRatio::new(q.hr).map_err(|e| ApiError::bad_request(e.to_string()))?;
    let machine =
        Machine::new(q.bus, q.line, q.beta).map_err(|e| ApiError::bad_request(e.to_string()))?;
    let base = SystemConfig::full_stalling(q.alpha);
    let features = [
        ("doubling bus", base.with_bus_factor(2.0)),
        ("write buffers", base.with_write_buffers()),
        ("pipelined memory", base.with_pipelined_memory(q.q)),
    ];
    let mut rows = Vec::with_capacity(features.len());
    for (name, enh) in features {
        let dhr = crate::multiissue::traded_hit_ratio_w(&machine, &base, &enh, hr, q.width)
            .map_err(|e| ApiError::bad_request(e.to_string()))?;
        rows.push(FeatureWorth {
            feature: name.to_string(),
            delta_hr: dhr,
            equal_performance_hr: (hr.value() - dhr).max(0.0),
        });
    }
    let mut ranked: Vec<&FeatureWorth> = rows.iter().collect();
    ranked.sort_by(|a, b| b.delta_hr.total_cmp(&a.delta_hr));
    let ranking = ranked.iter().map(|f| f.feature.clone()).collect();
    Ok(QueryResponse::Price(PriceResponse {
        query: q.clone(),
        features: rows,
        ranking,
    }))
}

fn crossover(q: &CrossoverQuery) -> Result<QueryResponse, ApiError> {
    if !(q.chunks.is_finite() && q.chunks > 0.0) {
        return bad("\"chunks\" must be positive");
    }
    Ok(QueryResponse::Crossover(CrossoverResponse {
        query: q.clone(),
        vs_double_bus: crate::crossover::pipelined_vs_double_bus(q.chunks, q.q),
        vs_write_buffers: crate::crossover::pipelined_vs_write_buffers(q.chunks, q.q, q.alpha),
    }))
}

fn linesize(q: &LinesizeQuery) -> Result<QueryResponse, ApiError> {
    let curve: Vec<LineCandidate> = q
        .curve
        .iter()
        .map(|&(line_bytes, hr)| {
            Ok(LineCandidate {
                line_bytes,
                hit_ratio: HitRatio::new(hr).map_err(|e| ApiError::bad_request(e.to_string()))?,
            })
        })
        .collect::<Result<_, ApiError>>()?;
    let timing = FillTiming::new(q.c, q.beta).map_err(|e| ApiError::bad_request(e.to_string()))?;
    let smith = optimal_line_smith(&timing, q.bus, &curve)
        .map_err(|e| ApiError::bad_request(e.to_string()))?;
    let ours = optimal_line_eq19(&timing, q.bus, &curve)
        .map_err(|e| ApiError::bad_request(e.to_string()))?;
    Ok(QueryResponse::Linesize(LinesizeResponse {
        query: q.clone(),
        smith_line_bytes: smith.line_bytes,
        eq19_line_bytes: ours.line_bytes,
        agree: smith.line_bytes == ours.line_bytes,
    }))
}

fn design(q: &DesignQuery) -> Result<QueryResponse, ApiError> {
    let hr = HitRatio::new(q.hr).map_err(|e| ApiError::bad_request(e.to_string()))?;
    let pins = PinModel::default();
    let mut feasible = Vec::new();
    for bus in [4.0, 8.0, 16.0] {
        if q.line < bus {
            continue;
        }
        let machine =
            Machine::new(bus, q.line, q.beta).map_err(|e| ApiError::bad_request(e.to_string()))?;
        for buffered in [false, true] {
            for piped in [false, true] {
                let mut sys = SystemConfig::full_stalling(q.alpha);
                if buffered {
                    sys = sys.with_write_buffers();
                }
                if piped {
                    sys = sys.with_pipelined_memory(2.0);
                }
                let t = mean_access_time(&machine, &sys, hr)
                    .map_err(|e| ApiError::bad_request(e.to_string()))?;
                if t <= q.target {
                    feasible.push(DesignRow {
                        pins: pins.pins(bus as u64),
                        bus,
                        write_buffers: buffered,
                        pipelined: piped,
                        mean_access_time: t,
                    });
                }
            }
        }
    }
    feasible.sort_by(|a, b| {
        a.pins
            .cmp(&b.pins)
            .then(a.mean_access_time.total_cmp(&b.mean_access_time))
    });
    Ok(QueryResponse::Design(DesignResponse {
        query: q.clone(),
        feasible,
    }))
}

fn simulate(q: &SimulateQuery, env: &dyn Workloads) -> Result<QueryResponse, ApiError> {
    let spec = q.workload.resolve()?;
    let stall = parse_stall(&q.stall)?;
    if q.instructions == 0 || q.instructions > MAX_INSTRUCTIONS {
        return bad(format!(
            "\"instructions\" must be in 1..={MAX_INSTRUCTIONS}"
        ));
    }
    let cache =
        CacheConfig::new(q.cache, q.line, 2).map_err(|e| ApiError::bad_request(e.to_string()))?;
    let bus = BusWidth::new(q.bus).map_err(|e| ApiError::bad_request(e.to_string()))?;
    let cfg = CpuConfig::baseline(cache, MemoryTiming::new(bus, q.beta)).with_stall(stall);
    cfg.validate().map_err(ApiError::bad_request)?;
    if !MissTimeline::supports_cache(&cache) {
        return bad("cache configuration does not admit timeline extraction");
    }
    let timeline = env.timeline(spec, q.seed, q.instructions, &cache);
    let r = TimelineCpu::new(&timeline, cfg)
        .map_err(|_| ApiError::internal("timeline replay rejected a baseline configuration"))?
        .run();
    Ok(QueryResponse::Simulate(SimulateResponse {
        query: q.clone(),
        cycles: r.cycles,
        cpi: r.cpi(),
        hit_ratio: r.dcache.hit_ratio(),
        phi: r.phi(),
        alpha: r.alpha(),
    }))
}

fn grid(q: &GridQuery, env: &dyn Workloads) -> Result<QueryResponse, ApiError> {
    if q.instructions == 0 || q.instructions > MAX_INSTRUCTIONS {
        return bad(format!(
            "\"instructions\" must be in 1..={MAX_INSTRUCTIONS}"
        ));
    }
    let specs = resolve_workloads(&q.programs, &q.workloads)?;
    let warmup = q.instructions as u64 / 5;
    match q.backend {
        GridBackend::Sim => {
            let grid = GridSpec::comparison(warmup);
            let mut rows = Vec::with_capacity(specs.len());
            for &spec in &specs {
                let points = env
                    .simulated_grid(spec, &grid, q.instructions)
                    .points(&grid)
                    .map_err(|e| ApiError::internal(e.to_string()))?;
                // The first point of the highest hit ratio, in grid order.
                let best = points
                    .iter()
                    .reduce(|b, p| if p.hit_ratio > b.hit_ratio { p } else { b })
                    .expect("comparison grid is nonempty");
                rows.push(SimGridRow {
                    program: spec.label(),
                    best_hit_ratio: best.hit_ratio,
                    cache_bytes: best.cache_bytes,
                    line_bytes: best.line_bytes,
                    assoc: best.assoc,
                });
            }
            Ok(QueryResponse::Grid(GridResponse {
                backend: GridBackend::Sim,
                instructions: q.instructions,
                points: grid.points() * specs.len(),
                target: None,
                rows: GridRows::Sim(rows),
            }))
        }
        GridBackend::Analytic => {
            if q.max_sets == 0 || q.max_sets > MAX_DENSE_SETS {
                return bad(format!("\"sets\" must be in 1..={MAX_DENSE_SETS}"));
            }
            if q.max_assoc == 0 || q.max_assoc > MAX_DENSE_ASSOC {
                return bad(format!("\"assoc\" must be in 1..={MAX_DENSE_ASSOC}"));
            }
            let dense = DenseGrid {
                line_sizes: vec![8, 16, 32, 64, 128],
                max_sets: q.max_sets,
                max_assoc: q.max_assoc,
            };
            let (min_line, max_line) = HIST_LINE_RANGE;
            let mut rows = Vec::with_capacity(specs.len());
            for &spec in &specs {
                let hists = env.histograms(
                    spec,
                    GRID_SEED,
                    q.instructions,
                    min_line,
                    max_line,
                    HIST_DISTANCE_CAP,
                    warmup,
                );
                let analytic = Analytic::from_histograms(&hists);
                rows.push(DenseGridRow {
                    program: spec.label(),
                    best: dense_best(&analytic, &dense, q.target),
                });
            }
            Ok(QueryResponse::Grid(GridResponse {
                backend: GridBackend::Analytic,
                instructions: q.instructions,
                points: dense.points() * specs.len(),
                target: Some(q.target),
                rows: GridRows::Dense(rows),
            }))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn price_requests_round_trip_and_dispatch() {
        let req = QueryRequest::from_json_str("{\"query\": \"price\", \"hr\": 0.95}").unwrap();
        assert_eq!(req.kind(), "price");
        let round = QueryRequest::from_json(&req.to_json()).unwrap();
        assert_eq!(round, req);
        let resp = dispatch_uncached(&req).unwrap();
        let QueryResponse::Price(p) = &resp else {
            panic!("wrong response kind");
        };
        assert_eq!(p.features.len(), 3);
        assert_eq!(p.ranking.len(), 3);
        assert!(p.features.iter().all(|f| f.delta_hr.is_finite()));
        let wire = resp.to_json_string();
        assert!(
            wire.starts_with("{\"ok\":true,\"query\":\"price\""),
            "{wire}"
        );
    }

    #[test]
    fn unknown_keys_and_kinds_are_bad_requests() {
        for bad in [
            "{\"query\": \"price\", \"hr\": 0.9, \"frobnicate\": 1}",
            "{\"query\": \"teleport\"}",
            "{\"hr\": 0.9}",
            "[1,2]",
            "{\"query\": \"price\"", // malformed JSON
        ] {
            let err = QueryRequest::from_json_str(bad).unwrap_err();
            assert_eq!(err.kind, ApiErrorKind::BadRequest, "{bad}");
            assert_eq!(err.kind.exit_code(), 2);
            assert_eq!(err.kind.http_status(), 400);
        }
    }

    #[test]
    fn oversized_u32_fields_are_rejected_not_truncated() {
        // 2^32 + 1 must be refused, not wrapped to 1.
        for (wire, key) in [
            (
                "{\"query\":\"grid\",\"backend\":\"analytic\",\"assoc\":4294967297,\"programs\":[\"ear\"],\"instructions\":20000}",
                "assoc",
            ),
            ("{\"query\":\"price\",\"hr\":0.95,\"width\":4294967297}", "width"),
        ] {
            let err = QueryRequest::from_json_str(wire).unwrap_err();
            assert_eq!(err.kind, ApiErrorKind::BadRequest, "{wire}");
            assert_eq!(err.kind.http_status(), 400);
            assert_eq!(err.kind.exit_code(), 2);
            assert!(err.message.contains(&format!("\"{key}\"")), "{err}");
        }
    }

    #[test]
    fn missing_required_fields_are_reported_by_name() {
        let err = QueryRequest::from_json_str("{\"query\": \"price\"}").unwrap_err();
        assert!(err.message.contains("hr"), "{err}");
        let err = QueryRequest::from_json_str("{\"query\": \"simulate\"}").unwrap_err();
        assert!(err.message.contains("program"), "{err}");
    }

    #[test]
    fn crossover_matches_the_closed_form() {
        let req = QueryRequest::Crossover(CrossoverQuery {
            chunks: 8.0,
            q: 2.0,
            alpha: 0.5,
        });
        let QueryResponse::Crossover(c) = dispatch_uncached(&req).unwrap() else {
            panic!("wrong kind");
        };
        let beta = c.vs_double_bus.expect("crossover exists at L/D=8");
        assert!((beta - 4.67).abs() < 0.01, "{beta}");
        let never = QueryRequest::Crossover(CrossoverQuery {
            chunks: 2.0,
            q: 2.0,
            alpha: 0.5,
        });
        let QueryResponse::Crossover(c) = dispatch_uncached(&never).unwrap() else {
            panic!("wrong kind");
        };
        assert_eq!(c.vs_double_bus, None);
    }

    #[test]
    fn linesize_agrees_like_the_cli_did() {
        let req = QueryRequest::Linesize(LinesizeQuery {
            c: 7.0,
            beta: 1.0,
            bus: 4.0,
            curve: vec![
                (8.0, 0.90),
                (16.0, 0.94),
                (32.0, 0.962),
                (64.0, 0.97),
                (128.0, 0.972),
            ],
        });
        let QueryResponse::Linesize(r) = dispatch_uncached(&req).unwrap() else {
            panic!("wrong kind");
        };
        assert!(r.agree);
        assert_eq!(r.smith_line_bytes, r.eq19_line_bytes);
    }

    #[test]
    fn design_search_orders_by_pins() {
        let req = QueryRequest::Design(DesignQuery {
            hr: 0.95,
            target: 5.0,
            line: 32.0,
            beta: 8.0,
            alpha: 0.5,
        });
        let QueryResponse::Design(r) = dispatch_uncached(&req).unwrap() else {
            panic!("wrong kind");
        };
        assert!(!r.feasible.is_empty());
        assert!(r.feasible.windows(2).all(|w| w[0].pins <= w[1].pins));
        let hopeless = QueryRequest::Design(DesignQuery {
            hr: 0.5,
            target: 1.1,
            line: 32.0,
            beta: 8.0,
            alpha: 0.5,
        });
        let QueryResponse::Design(r) = dispatch_uncached(&hopeless).unwrap() else {
            panic!("wrong kind");
        };
        assert!(r.feasible.is_empty());
    }

    #[test]
    fn simulate_replays_a_phi_point() {
        let req = QueryRequest::Simulate(SimulateQuery {
            workload: WorkloadRef::Named("ear".to_string()),
            instructions: 5_000,
            stall: "bnl3".to_string(),
            ..SimulateQuery::default()
        });
        let QueryResponse::Simulate(r) = dispatch_uncached(&req).unwrap() else {
            panic!("wrong kind");
        };
        assert!(r.cycles > 5_000);
        assert!(r.cpi > 1.0);
        assert!((0.0..=1.0).contains(&r.hit_ratio));
        assert!(r.phi > 0.0);
        // Unknown program / stall are caller faults.
        let bad = QueryRequest::Simulate(SimulateQuery {
            workload: WorkloadRef::Named("quake".to_string()),
            ..SimulateQuery::default()
        });
        assert_eq!(
            dispatch_uncached(&bad).unwrap_err().kind,
            ApiErrorKind::BadRequest
        );
    }

    #[test]
    fn grid_answers_both_backends() {
        let sim = QueryRequest::Grid(GridQuery {
            backend: GridBackend::Sim,
            instructions: 4_000,
            programs: vec!["ear".to_string()],
            ..GridQuery::default()
        });
        let QueryResponse::Grid(g) = dispatch_uncached(&sim).unwrap() else {
            panic!("wrong kind");
        };
        assert_eq!(g.points, 105);
        let GridRows::Sim(rows) = &g.rows else {
            panic!("wrong rows");
        };
        assert_eq!(rows.len(), 1);
        assert!((0.0..=1.0).contains(&rows[0].best_hit_ratio));

        let ana = QueryRequest::Grid(GridQuery {
            backend: GridBackend::Analytic,
            instructions: 4_000,
            target: 0.5,
            max_sets: 32,
            max_assoc: 4,
            programs: vec!["ear".to_string()],
            workloads: Vec::new(),
        });
        let QueryResponse::Grid(g) = dispatch_uncached(&ana).unwrap() else {
            panic!("wrong kind");
        };
        assert_eq!(g.points, 5 * 32 * 4);
        let GridRows::Dense(rows) = &g.rows else {
            panic!("wrong rows");
        };
        let best = rows[0].best.expect("ear reaches 0.5");
        assert_eq!(
            best.cache_bytes,
            best.sets * best.line_bytes * u64::from(best.assoc)
        );
    }

    #[test]
    fn grid_bounds_are_enforced() {
        let huge = QueryRequest::Grid(GridQuery {
            max_sets: MAX_DENSE_SETS + 1,
            ..GridQuery::default()
        });
        assert_eq!(
            dispatch_uncached(&huge).unwrap_err().kind,
            ApiErrorKind::BadRequest
        );
        let zero = QueryRequest::Grid(GridQuery {
            instructions: 0,
            ..GridQuery::default()
        });
        assert_eq!(
            dispatch_uncached(&zero).unwrap_err().kind,
            ApiErrorKind::BadRequest
        );
        let unknown = QueryRequest::Grid(GridQuery {
            programs: vec!["quake".to_string()],
            ..GridQuery::default()
        });
        assert_eq!(
            dispatch_uncached(&unknown).unwrap_err().kind,
            ApiErrorKind::BadRequest
        );
    }

    #[test]
    fn experiments_listing_is_empty_uncached() {
        let QueryResponse::Experiments(r) = dispatch_uncached(&QueryRequest::Experiments).unwrap()
        else {
            panic!("wrong kind");
        };
        assert!(r.experiments.is_empty());
    }

    #[test]
    fn every_request_shape_round_trips_through_json() {
        let reqs = vec![
            QueryRequest::Price(PriceQuery::default()),
            QueryRequest::Crossover(CrossoverQuery {
                chunks: 8.0,
                q: 2.0,
                alpha: 0.5,
            }),
            QueryRequest::Linesize(LinesizeQuery {
                c: 7.0,
                beta: 1.0,
                bus: 4.0,
                curve: vec![(8.0, 0.9), (16.0, 0.95)],
            }),
            QueryRequest::Design(DesignQuery {
                hr: 0.95,
                target: 3.5,
                line: 32.0,
                beta: 8.0,
                alpha: 0.5,
            }),
            QueryRequest::Simulate(SimulateQuery {
                workload: WorkloadRef::Named("ear".to_string()),
                ..SimulateQuery::default()
            }),
            QueryRequest::Simulate(SimulateQuery {
                workload: WorkloadRef::Inline(workload::builtin("ear").unwrap().clone()),
                ..SimulateQuery::default()
            }),
            QueryRequest::Grid(GridQuery::default()),
            QueryRequest::Grid(GridQuery {
                workloads: vec![workload::builtin("doduc").unwrap().clone()],
                ..GridQuery::default()
            }),
            QueryRequest::Experiments,
            QueryRequest::Workloads(WorkloadsQuery::List),
            QueryRequest::Workloads(WorkloadsQuery::Show {
                name: "ear".to_string(),
            }),
            QueryRequest::Workloads(WorkloadsQuery::Validate(
                workload::builtin("wave5").unwrap().clone(),
            )),
        ];
        for req in reqs {
            let wire = req.to_json().render();
            let back = QueryRequest::from_json_str(&wire).unwrap();
            assert_eq!(back, req, "round-trip of {wire}");
        }
    }

    #[test]
    fn error_wire_form_is_stable() {
        let err = ApiError::bad_request("nope");
        assert_eq!(
            err.to_json().render(),
            "{\"ok\":false,\"error\":{\"kind\":\"bad-request\",\"message\":\"nope\"}}"
        );
        assert_eq!(ApiErrorKind::Internal.http_status(), 500);
        assert_eq!(ApiErrorKind::Internal.exit_code(), 1);
    }

    #[test]
    fn dense_best_matches_field_arithmetic() {
        let env = Uncached;
        let hists = env.histograms(
            workload::builtin("ear").unwrap(),
            GRID_SEED,
            6_000,
            8,
            128,
            HIST_DISTANCE_CAP,
            1_000,
        );
        let analytic = Analytic::from_histograms(&hists);
        let grid = DenseGrid::small();
        let best = dense_best(&analytic, &grid, 0.5).expect("ear reaches 50%");
        assert!(best.hit_ratio >= 0.5);
        assert_eq!(
            best.cache_bytes,
            best.sets * best.line_bytes * u64::from(best.assoc)
        );
        assert!(dense_best(&analytic, &grid, 1.1).is_none());
    }
}
