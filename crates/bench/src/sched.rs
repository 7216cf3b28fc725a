//! Cross-experiment scheduler with fault isolation.
//!
//! Experiments are cheap to re-point (the [`crate::tracestore`]
//! memoises traces and timelines) and each runs its own loop on one
//! thread. This module is the one layer of experiment parallelism:
//! whole experiments run concurrently on scoped threads, by default
//! one per CPU, subject to one ordering constraint — experiments that
//! declare the same shared trace-store working set
//! ([`Experiment::traces`]) do not *extract* it
//! concurrently. The first holder of a key runs to completion (warming
//! the store); every later holder then hits the memoised entries. Keys
//! nobody shares impose no ordering at all.
//!
//! Every experiment executes *contained*: a panic is caught and becomes
//! a typed [`ExpFailure`] outcome instead of tearing down the pool, an
//! optional per-experiment deadline (`REPRO_EXP_TIMEOUT` seconds, off
//! by default) turns hangs into `timed-out` outcomes, and transient
//! (injected or I/O) errors are retried under a bounded backoff policy.
//! The deadline is cooperative (see [`fault`]): the experiment stops at
//! its next trace chunk or loop item past it and leaves no thread
//! behind.
//! A strict run stops scheduling at the first failure; `keep_going`
//! completes every runnable experiment and records per-experiment
//! statuses in the manifest. With no faults armed and no experiment
//! failing, output is byte-identical to an uncontained run.
//!
//! The suite document is assembled in registry order regardless of
//! completion order, so serial and `--jobs N` runs are byte-identical
//! (asserted by `tests/manifest.rs`, and under an armed fault plan by
//! `tests/faults.rs`).

use crate::common::setting;
use crate::error::{Error, ExpFailure, FailureKind};
use crate::fault::{self, Site};
use crate::registry::{self, ExpReport, Experiment, RunCtx};
use crate::tracestore::{self, StoreCounts};
use report::manifest::{Manifest, StatusEntry, MANIFEST_NAME};
use report::Artifact;
use std::cmp::Reverse;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// The per-experiment deadline, `REPRO_EXP_TIMEOUT` in (possibly
/// fractional) seconds: `None` when unset or non-positive.
///
/// # Errors
///
/// A set value that is not a number of seconds (`5s`, `NaN`, `inf`)
/// is an error naming the variable, never a silent "no deadline".
pub fn timeout_setting() -> Result<Option<Duration>, String> {
    let limit = setting(
        "REPRO_EXP_TIMEOUT",
        "a deadline (seconds, fractional allowed)",
        |v| match v.parse::<f64>() {
            Ok(secs) if secs <= 0.0 => Some(None),
            Ok(secs) => Duration::try_from_secs_f64(secs).ok().map(Some),
            Err(_) => None,
        },
    )?;
    Ok(limit.flatten())
}

/// `run_all`'s concurrent experiments, `REPRO_JOBS`: the host's CPU
/// count when unset ([`crate::common::host_cpus`]), and `0` or `1`
/// both mean serial.
///
/// # Errors
///
/// A set value that is not a non-negative integer is an error naming
/// the variable.
pub fn jobs_setting() -> Result<usize, String> {
    let jobs = setting("REPRO_JOBS", "a job count (a non-negative integer)", |v| {
        v.parse().ok()
    })?;
    Ok(jobs.unwrap_or_else(crate::common::host_cpus))
}

/// Bounded retry-with-backoff for transient failures (injected I/O
/// faults, artifact write errors). Attempt `n`'s pause is `n × backoff`
/// — linear, bounded, and long enough for the transient cause (a busy
/// file, a mid-flight recovery) to clear.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Retries after the first attempt (0 = fail fast).
    pub max_retries: u32,
    /// Base pause between attempts.
    pub backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_retries: 3,
            backoff: Duration::from_millis(25),
        }
    }
}

impl RetryPolicy {
    fn pause(&self, attempt: u32) {
        let d = self.backoff * attempt;
        if !d.is_zero() {
            std::thread::sleep(d);
        }
    }
}

/// How a suite run should execute.
#[derive(Debug, Clone)]
pub struct SuiteOptions {
    /// Concurrent experiments; `0` or `1` means serial.
    pub jobs: usize,
    /// The per-experiment run context.
    pub ctx: RunCtx,
    /// Complete all runnable experiments instead of stopping the suite
    /// at the first failure (`--keep-going`).
    pub keep_going: bool,
    /// Per-experiment deadline (default: `REPRO_EXP_TIMEOUT`).
    pub timeout: Option<Duration>,
    /// Transient-failure retry policy.
    pub retry: RetryPolicy,
}

impl SuiteOptions {
    /// `jobs`-way execution at context `ctx`, strict (not keep-going),
    /// deadline from `REPRO_EXP_TIMEOUT`, default retry policy.
    ///
    /// # Panics
    ///
    /// Panics naming the variable if `REPRO_EXP_TIMEOUT` is malformed;
    /// binaries run [`crate::common::check_settings`] at startup and
    /// exit with a usage error instead.
    pub fn new(jobs: usize, ctx: RunCtx) -> SuiteOptions {
        SuiteOptions {
            jobs,
            ctx,
            keep_going: false,
            timeout: timeout_setting().unwrap_or_else(|e| panic!("{e}")),
            retry: RetryPolicy::default(),
        }
    }

    /// Sets keep-going mode (builder style).
    #[must_use]
    pub fn keep_going(mut self, yes: bool) -> SuiteOptions {
        self.keep_going = yes;
        self
    }

    /// Sets the per-experiment deadline (builder style).
    #[must_use]
    pub fn with_timeout(mut self, timeout: Option<Duration>) -> SuiteOptions {
        self.timeout = timeout;
        self
    }
}

/// A contained experiment's successful product.
#[derive(Debug, Clone)]
pub struct ExpOutput {
    /// Rendered terminal section.
    pub section: String,
    /// Typed artifacts the experiment produced.
    pub artifacts: Vec<Artifact>,
    /// Transient-failure retries spent before succeeding.
    pub retries: u32,
}

/// One experiment's result plus its observability record.
#[derive(Debug, Clone)]
pub struct ExpOutcome {
    /// Experiment id.
    pub id: &'static str,
    /// Section title.
    pub title: &'static str,
    /// The contained result: output, or a typed failure.
    pub result: Result<ExpOutput, ExpFailure>,
    /// Wall-clock time of the `run` call (including retries).
    pub wall: Duration,
    /// The trace-store lookups this run made, on any thread working in
    /// its fault scope ([`tracestore::counters_for`]); exact under any
    /// job count, so a suite's rows sum to its totals.
    pub store: StoreCounts,
}

impl ExpOutcome {
    /// The manifest status keyword: `ok`, `retried(n)`, `failed` or
    /// `timed-out`.
    pub fn status(&self) -> String {
        match &self.result {
            Ok(out) if out.retries == 0 => "ok".to_string(),
            Ok(out) => format!("retried({})", out.retries),
            Err(f) => f.status().to_string(),
        }
    }
}

/// A completed suite run, outcomes in registry order. A strict
/// (non-keep-going) run that hit a failure holds only the outcomes
/// attempted before it stopped.
#[derive(Debug, Clone)]
pub struct SuiteRun {
    /// Per-experiment outcomes, in the order the selection was given.
    pub outcomes: Vec<ExpOutcome>,
    /// Wall-clock time of the whole suite.
    pub wall: Duration,
    /// Total trace-store activity across the suite.
    pub store: StoreCounts,
}

impl SuiteRun {
    /// The suite report: every successful section under its banner,
    /// byte-identical to the historical serial `run_all` output when
    /// nothing failed; a degraded run appends a deterministic failure
    /// section (failed experiments excluded, in selection order).
    pub fn document(&self) -> String {
        let mut out = String::new();
        for o in &self.outcomes {
            if let Ok(output) = &o.result {
                out.push_str(&format!(
                    "================ {} ================\n{}\n",
                    o.title, output.section
                ));
            }
        }
        if self.has_failures() {
            out.push_str("================ Suite failures ================\n");
            for o in self.failures() {
                let f = o.result.as_ref().expect_err("failures() yields failures");
                out.push_str(&format!("{}: {} — {f}\n", o.id, f.status()));
            }
            out.push('\n');
        }
        out
    }

    /// All artifacts produced by successful experiments, outcome order.
    pub fn artifacts(&self) -> Vec<Artifact> {
        self.outcomes
            .iter()
            .filter_map(|o| o.result.as_ref().ok())
            .flat_map(|out| out.artifacts.iter().cloned())
            .collect()
    }

    /// Outcomes that ended in a typed failure, in selection order.
    pub fn failures(&self) -> impl Iterator<Item = &ExpOutcome> {
        self.outcomes.iter().filter(|o| o.result.is_err())
    }

    /// True when any experiment failed or timed out.
    pub fn has_failures(&self) -> bool {
        self.failures().next().is_some()
    }

    /// True when any experiment's status is not plain `ok` (failures
    /// *and* retried successes) — the trigger for recording statuses in
    /// the manifest.
    pub fn degraded(&self) -> bool {
        self.outcomes.iter().any(|o| o.status() != "ok")
    }

    /// Per-experiment manifest status entries, in outcome order.
    pub fn statuses(&self) -> Vec<StatusEntry> {
        self.outcomes
            .iter()
            .map(|o| StatusEntry {
                id: o.id.to_string(),
                status: o.status(),
            })
            .collect()
    }

    /// A deterministic multi-line failure summary for stderr (and exit
    /// messages): one line per failed experiment.
    pub fn failure_summary(&self) -> String {
        let mut out = format!(
            "suite: {} of {} attempted experiments failed\n",
            self.failures().count(),
            self.outcomes.len()
        );
        for o in self.failures() {
            let f = o.result.as_ref().expect_err("failures() yields failures");
            out.push_str(&format!("  {}: {} — {f}\n", o.id, f.status()));
        }
        out
    }

    /// The observability footer: per-experiment status, wall clock and
    /// trace-store activity, plus suite totals. Printed to stderr by
    /// the drivers so stdout stays deterministic.
    pub fn footer(&self) -> String {
        let mut t = report::Table::new([
            "experiment",
            "status",
            "wall",
            "traces h/m",
            "timelines h/m",
            "hists h/m",
        ]);
        for o in &self.outcomes {
            t.row([
                o.id.to_string(),
                o.status(),
                format!("{:.3}s", o.wall.as_secs_f64()),
                format!("{}/{}", o.store.trace_hits, o.store.trace_misses),
                format!("{}/{}", o.store.timeline_hits, o.store.timeline_misses),
                format!("{}/{}", o.store.hist_hits, o.store.hist_misses),
            ]);
        }
        // The process-wide store snapshot — the same accessor the query
        // server's /stats endpoint reports, resident bytes per tier
        // included.
        format!(
            "suite: {} experiments in {:.3}s; trace store: {}\n{}store stats: {}\n",
            self.outcomes.len(),
            self.wall.as_secs_f64(),
            self.store.summary(),
            t.render(),
            tracestore::stats().summary()
        )
    }
}

/// One contained attempt on the current thread: marks the experiment
/// for fault targeting (under the `opts.timeout` deadline), fires the
/// `run` injection site, and catches any unwind as the failure it
/// stands for — a [`fault::TransientUnwind`] (injected I/O raised inside
/// an infallible call chain) is a retryable [`FailureKind::Transient`],
/// a [`fault::DeadlineExceeded`] a timeout, anything else a panic.
fn attempt_contained(
    exp: &Experiment,
    opts: &SuiteOptions,
) -> Result<ExpReport, (FailureKind, String)> {
    let deadline = opts.timeout.map(|limit| Instant::now() + limit);
    let _scope = fault::enter_until(exp.id, deadline);
    catch_unwind(AssertUnwindSafe(|| {
        // Inside the containment boundary: a panic-kind fault at the
        // run site must be caught like any experiment panic, and an
        // I/O-kind one unwinds as a retryable TransientUnwind.
        fault::check_or_unwind(Site::Run);
        (exp.run)(&opts.ctx)
    }))
    .map_err(
        |payload| match payload.downcast::<fault::TransientUnwind>() {
            Ok(transient) => (FailureKind::Transient, transient.0),
            Err(p) if p.is::<fault::DeadlineExceeded>() => (
                FailureKind::TimedOut {
                    limit: opts.timeout.unwrap_or_default(),
                },
                String::new(),
            ),
            Err(p) => (FailureKind::Panicked, fault::panic_text(p.as_ref())),
        },
    )
}

fn run_one(exp: &Experiment, opts: &SuiteOptions) -> ExpOutcome {
    let before = tracestore::counters_for(exp.id);
    let start = Instant::now();
    let mut retries = 0u32;
    let result = loop {
        match attempt_contained(exp, opts) {
            Ok(report) => {
                break Ok(ExpOutput {
                    section: report.section,
                    artifacts: report.artifacts,
                    retries,
                })
            }
            Err((FailureKind::Transient, _)) if retries < opts.retry.max_retries => {
                retries += 1;
                opts.retry.pause(retries);
            }
            Err((kind, message)) => {
                break Err(ExpFailure {
                    kind,
                    message,
                    retries,
                })
            }
        }
    };
    ExpOutcome {
        id: exp.id,
        title: exp.title,
        result,
        wall: start.elapsed(),
        store: tracestore::counters_for(exp.id).since(&before),
    }
}

#[derive(Clone, Copy, PartialEq)]
enum KeyState {
    Warming,
    Warm,
}

/// True when every shared trace key of `exp` is either warm or free to
/// be claimed (no other in-flight experiment is extracting it).
fn eligible(keys: &HashMap<&'static str, KeyState>, exp: &Experiment) -> bool {
    exp.traces
        .iter()
        .all(|k| keys.get(k) != Some(&KeyState::Warming))
}

/// Runs `exps` contained and returns their outcomes in input order; a
/// strict (non-keep-going) run stops starting new experiments after the
/// first failure, so its outcome list may be a subset of the selection.
///
/// One loop serves every job count: the calling thread owns the
/// bookkeeping and, while fewer than `max(jobs, 1)` experiments run,
/// starts the costliest eligible one ([`Experiment::cost`], equal costs
/// in input order) on a scoped thread, longest-processing-time first.
/// Finished outcomes come back over a channel. Experiment panics are
/// contained by [`run_one`]; a panic outside it is re-raised on the
/// caller.
pub fn run_suite(exps: &[&Experiment], opts: &SuiteOptions) -> SuiteRun {
    let suite_before = tracestore::counters();
    let suite_start = Instant::now();
    let mut started = vec![false; exps.len()];
    let mut keys = HashMap::new();
    let mut slots: Vec<Option<ExpOutcome>> = (0..exps.len()).map(|_| None).collect();
    let (done_tx, done_rx) = mpsc::channel();
    std::thread::scope(|scope| {
        let mut running = 0;
        let mut stopped = false;
        loop {
            while !stopped && running < opts.jobs.max(1) {
                let next = (0..exps.len())
                    .filter(|&i| !started[i] && eligible(&keys, exps[i]))
                    .max_by_key(|&i| (exps[i].cost, Reverse(i)));
                // Nothing unstarted is eligible: the next completion
                // may release a warming key.
                let Some(i) = next else { break };
                started[i] = true;
                for key in exps[i].traces {
                    keys.entry(*key).or_insert(KeyState::Warming);
                }
                let done = done_tx.clone();
                scope.spawn(move || {
                    let outcome = catch_unwind(AssertUnwindSafe(|| run_one(exps[i], opts)));
                    done.send((i, outcome))
                        .expect("the receiver outlives the scope");
                });
                running += 1;
            }
            if running == 0 {
                break;
            }
            let (i, outcome) = done_rx.recv().expect("a running experiment reports back");
            running -= 1;
            let outcome = outcome.unwrap_or_else(|payload| std::panic::resume_unwind(payload));
            stopped |= outcome.result.is_err() && !opts.keep_going;
            // Even a failed holder marks its keys warm: a wedged key
            // would block every later sharer, and the store re-extracts
            // on demand anyway.
            for key in exps[i].traces {
                keys.insert(*key, KeyState::Warm);
            }
            slots[i] = Some(outcome);
        }
    });
    SuiteRun {
        outcomes: slots.into_iter().flatten().collect(),
        wall: suite_start.elapsed(),
        store: tracestore::counters().since(&suite_before),
    }
}

/// The outcome of a [`drive`] call.
#[derive(Debug, Clone)]
pub struct DriveOutcome {
    /// The run itself.
    pub run: SuiteRun,
    /// Manifest written alongside the artifacts (full-suite runs only).
    pub manifest: Option<Manifest>,
}

/// Writes one rendered payload with transient-failure retries, firing
/// the `write` injection site under `exp`'s identity.
fn write_with_retry(
    path: &Path,
    payload: &str,
    exp: &str,
    retry: &RetryPolicy,
) -> Result<(), Error> {
    let _scope = fault::enter(exp);
    let mut retries = 0u32;
    loop {
        let outcome =
            fault::check(Site::Write).and_then(|()| report::write_artifact(path, payload));
        match outcome {
            Ok(()) => return Ok(()),
            Err(_) if retries < retry.max_retries => {
                retries += 1;
                retry.pause(retries);
            }
            Err(source) => {
                return Err(Error::Write {
                    path: path.to_path_buf(),
                    source,
                })
            }
        }
    }
}

/// The suite run behind the `exp` and `run_all` binaries: select by
/// filter, run with `jobs`-way parallelism, write artifacts under
/// `results_dir`.
///
/// A full-registry selection also writes `run_all_report.txt` (the
/// suite document) and `manifest.json` with per-artifact content
/// hashes — plus per-experiment statuses whenever the run degraded;
/// filtered selections write only their own artifacts, leaving the
/// committed manifest authoritative.
///
/// # Errors
///
/// [`Error::NoMatch`] when the filter matches nothing,
/// [`Error::Experiment`] when a strict run stopped at a failure, and
/// [`Error::Write`] when an artifact could not be written even after
/// retries. A keep-going run with failures returns `Ok` — callers
/// inspect [`SuiteRun::has_failures`] for the exit status.
pub fn drive(filter: &str, opts: &SuiteOptions, results_dir: &Path) -> Result<DriveOutcome, Error> {
    let selection = registry::matching(filter)?;
    let full = selection.len() == registry::all().len();
    let run = run_suite(&selection, opts);
    if !opts.keep_going {
        if let Some(o) = run.failures().next() {
            return Err(Error::Experiment {
                id: o.id.to_string(),
                failure: o.result.as_ref().expect_err("failure outcome").clone(),
            });
        }
    }
    for o in &run.outcomes {
        if let Ok(output) = &o.result {
            for a in &output.artifacts {
                write_with_retry(&results_dir.join(&a.name), &a.render(), o.id, &opts.retry)?;
            }
        }
    }
    let manifest = if full {
        let mut artifacts = run.artifacts();
        artifacts.push(Artifact::text("run_all_report.txt", run.document()));
        let statuses = if run.degraded() {
            run.statuses()
        } else {
            Vec::new()
        };
        let manifest = Manifest::from_artifacts(&artifacts).with_statuses(statuses);
        write_with_retry(
            &results_dir.join("run_all_report.txt"),
            &run.document(),
            "suite",
            &opts.retry,
        )?;
        write_with_retry(
            &results_dir.join(MANIFEST_NAME),
            &manifest.to_json(),
            "suite",
            &opts.retry,
        )?;
        Some(manifest)
    } else {
        None
    };
    Ok(DriveOutcome { run, manifest })
}

/// The one ending of both suite runners, `exp run` and `run_all`:
/// [`drive`], then the suite document on stdout and the footer and any
/// failure summary on stderr, so stdout stays deterministic.
///
/// Returns the process exit code: `0` success, `1` one or more
/// experiments failed, else the driver error's [`Error::exit_code`].
pub fn run_and_report(filter: &str, opts: &SuiteOptions, results_dir: &Path) -> i32 {
    match drive(filter, opts, results_dir) {
        Ok(outcome) => {
            print!("{}", outcome.run.document());
            eprintln!("{}", outcome.run.footer());
            if outcome.run.has_failures() {
                eprintln!("{}", outcome.run.failure_summary());
                1
            } else {
                0
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            e.exit_code()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultKind, FaultPlan};

    /// A fake experiment's run: a tiny sleep widens the race window
    /// the warm-key constraint must close.
    fn fake_section(id: &str) -> ExpReport {
        std::thread::sleep(Duration::from_millis(2));
        fault::check_or_unwind(Site::Extract);
        ExpReport::text_only(format!("section {id}\n"))
    }

    const fn fake(
        id: &'static str,
        traces: &'static [&'static str],
        run: fn(&RunCtx) -> ExpReport,
    ) -> Experiment {
        costed(id, traces, 0, run)
    }

    const fn costed(
        id: &'static str,
        traces: &'static [&'static str],
        cost: u32,
        run: fn(&RunCtx) -> ExpReport,
    ) -> Experiment {
        Experiment {
            id,
            title: id,
            tags: &["fake"],
            traces,
            module: module_path!(),
            cost,
            run,
        }
    }

    static FAKES: [Experiment; 4] = [
        fake("a", &["k"], |_| fake_section("a")),
        fake("b", &["k"], |_| fake_section("b")),
        fake("c", &[], |_| fake_section("c")),
        fake("d", &["k"], |_| fake_section("d")),
    ];

    fn fakes() -> Vec<&'static Experiment> {
        FAKES.iter().collect()
    }

    fn opts(jobs: usize) -> SuiteOptions {
        SuiteOptions {
            jobs,
            ctx: RunCtx::with_instructions(100),
            keep_going: false,
            timeout: None,
            retry: RetryPolicy {
                max_retries: 3,
                backoff: Duration::ZERO,
            },
        }
    }

    #[test]
    fn parallel_outcomes_keep_input_order() {
        // Empty plan: injects nothing, but holds the arm gate so a
        // concurrently running fault test cannot reach these fakes.
        let _armed = fault::arm(FaultPlan::new());
        let run = run_suite(&fakes(), &opts(4));
        let ids: Vec<_> = run.outcomes.iter().map(|o| o.id).collect();
        assert_eq!(ids, ["a", "b", "c", "d"]);
        assert!(run
            .document()
            .contains("================ a ================"));
        assert!(!run.has_failures());
        assert!(!run.degraded());
    }

    /// Run intervals of the [`WARMING`] fakes, by id.
    static INTERVALS: std::sync::Mutex<Vec<(&str, Instant, Instant)>> =
        std::sync::Mutex::new(Vec::new());

    fn timed_section(id: &'static str) -> ExpReport {
        let start = Instant::now();
        std::thread::sleep(Duration::from_millis(20));
        INTERVALS.lock().unwrap().push((id, start, Instant::now()));
        ExpReport::text_only(format!("section {id}\n"))
    }

    static WARMING: [Experiment; 4] = [
        fake("w0", &["w"], |_| timed_section("w0")),
        fake("w1", &["w"], |_| timed_section("w1")),
        fake("free", &[], |_| timed_section("free")),
        fake("w2", &["w"], |_| timed_section("w2")),
    ];

    #[test]
    fn later_holders_of_a_key_start_after_the_first_ends() {
        let _armed = fault::arm(FaultPlan::new());
        let run = run_suite(&WARMING.iter().collect::<Vec<_>>(), &opts(4));
        assert!(!run.has_failures());
        let intervals = INTERVALS.lock().unwrap().clone();
        let of = |id| {
            intervals
                .iter()
                .find(|(i, _, _)| *i == id)
                .map(|&(_, start, end)| (start, end))
                .expect("every fake ran")
        };
        let first_end = of("w0").1;
        for later in ["w1", "w2"] {
            assert!(
                of(later).0 >= first_end,
                "{later} started while w0 was still warming the key"
            );
        }
    }

    /// Run intervals of the [`COSTED`] fakes, in the order they ended.
    static COSTED_RUNS: std::sync::Mutex<Vec<(&str, Instant, Instant)>> =
        std::sync::Mutex::new(Vec::new());

    fn costed_section(id: &'static str) -> ExpReport {
        let start = Instant::now();
        std::thread::sleep(Duration::from_millis(20));
        COSTED_RUNS
            .lock()
            .unwrap()
            .push((id, start, Instant::now()));
        ExpReport::text_only(format!("section {id}\n"))
    }

    /// Registry order `cheap, tie1, warm, big, tie2, hot`; `warm` and
    /// `hot` share a key, and `warm` is costlier than every free fake.
    static COSTED: [Experiment; 6] = [
        costed("cheap", &[], 1, |_| costed_section("cheap")),
        costed("tie1", &[], 5, |_| costed_section("tie1")),
        costed("warm", &["k"], 9, |_| costed_section("warm")),
        costed("big", &[], 7, |_| costed_section("big")),
        costed("tie2", &[], 5, |_| costed_section("tie2")),
        costed("hot", &["k"], 20, |_| costed_section("hot")),
    ];

    /// Runs the [`COSTED`] fakes at `jobs` and returns their run
    /// intervals sorted by start, with the outcome ids.
    fn costed_run(jobs: usize) -> (Vec<(&'static str, Instant, Instant)>, Vec<&'static str>) {
        COSTED_RUNS.lock().unwrap().clear();
        let run = run_suite(&COSTED.iter().collect::<Vec<_>>(), &opts(jobs));
        assert!(!run.has_failures());
        let mut runs = COSTED_RUNS.lock().unwrap().clone();
        runs.sort_by_key(|&(_, start, _)| start);
        (runs, run.outcomes.iter().map(|o| o.id).collect())
    }

    #[test]
    fn the_costliest_eligible_experiment_starts_first() {
        let _armed = fault::arm(FaultPlan::new());
        let registry_order = ["cheap", "tie1", "warm", "big", "tie2", "hot"];

        // Serial: by cost, equal costs in registry order.
        let (runs, ids) = costed_run(1);
        let starts: Vec<_> = runs.iter().map(|r| r.0).collect();
        assert_eq!(starts, ["hot", "warm", "big", "tie1", "tie2", "cheap"]);
        assert_eq!(ids, registry_order);

        // Two jobs: `hot` claims the key, so the costlier `warm` waits
        // for it to end while the costliest free fake takes the other
        // slot. (Only the first two starts are pinned, as a set: later
        // starts depend on which sleeper ends first.)
        let (runs, ids) = costed_run(2);
        let of = |id| *runs.iter().find(|r| r.0 == id).expect("every fake ran");
        let mut first_two = [runs[0].0, runs[1].0];
        first_two.sort_unstable();
        assert_eq!(first_two, ["big", "hot"], "{runs:?}");
        assert!(
            of("warm").1 >= of("hot").2,
            "warm started while hot held the key"
        );
        assert!(
            of("tie1").1 <= of("tie2").1,
            "equal costs start in registry order"
        );
        assert_eq!(ids, registry_order);
    }

    #[test]
    fn serial_and_parallel_documents_match() {
        let _armed = fault::arm(FaultPlan::new());
        let serial = run_suite(&fakes(), &opts(1));
        let parallel = run_suite(&fakes(), &opts(3));
        assert_eq!(serial.document(), parallel.document());
    }

    #[test]
    fn footer_lists_every_experiment() {
        let _armed = fault::arm(FaultPlan::new());
        let run = run_suite(&fakes(), &opts(1));
        let footer = run.footer();
        for id in ["a", "b", "c", "d"] {
            assert!(footer.contains(id), "footer missing {id}:\n{footer}");
        }
        assert!(footer.contains("trace store:"));
        assert!(footer.contains("ok"));
        assert!(
            footer.contains("store stats:")
                && footer.contains("evictions")
                && footer.contains(" B traces + ")
                && footer.contains("coalesced waits")
                && footer.contains("poison recoveries"),
            "footer must include the full store stats line:\n{footer}"
        );
        assert_eq!(
            footer.matches("resident").count(),
            1,
            "one residency report"
        );
    }

    #[test]
    fn a_panicking_experiment_is_contained_not_fatal() {
        let _armed = fault::arm(FaultPlan::new().with(Site::Run, "b", FaultKind::Panic, 1));
        let run = run_suite(&fakes(), &opts(4).keep_going(true));
        assert_eq!(run.outcomes.len(), 4, "pool survived the panic");
        let statuses: Vec<String> = run.outcomes.iter().map(|o| o.status()).collect();
        assert_eq!(statuses, ["ok", "failed", "ok", "ok"]);
        let doc = run.document();
        assert!(!doc.contains("section b\n"), "failed section excluded");
        assert!(doc.contains("Suite failures"));
        assert!(doc.contains("b: failed — panicked: injected panic"));
    }

    #[test]
    fn strict_mode_stops_scheduling_after_a_failure() {
        let _armed = fault::arm(FaultPlan::new().with(Site::Run, "b", FaultKind::Panic, 1));
        let run = run_suite(&fakes(), &opts(1));
        assert_eq!(run.outcomes.len(), 2, "a ran, b failed, c/d never started");
        assert_eq!(run.outcomes[1].status(), "failed");
    }

    #[test]
    fn transient_faults_are_retried_to_success() {
        let _armed = fault::arm(FaultPlan::new().with(Site::Run, "c", FaultKind::Io, 2));
        let run = run_suite(&fakes(), &opts(1));
        assert_eq!(run.outcomes[2].status(), "retried(2)");
        assert!(!run.has_failures());
        assert!(run.degraded(), "retried successes count as degraded");
        // The document is byte-identical to an unfaulted run: the
        // experiment *succeeded*.
        let clean = run_suite(&fakes(), &opts(1));
        assert_eq!(run.document(), clean.document());
    }

    #[test]
    fn exhausted_retries_become_a_transient_failure() {
        let _armed = fault::arm(FaultPlan::new().with(Site::Run, "c", FaultKind::Io, 99));
        let run = run_suite(&fakes(), &opts(1).keep_going(true));
        assert_eq!(run.outcomes[2].status(), "failed");
        let f = run.outcomes[2].result.as_ref().unwrap_err();
        assert_eq!(f.retries, 3);
        assert!(f.message.contains("injected i/o fault"));
    }

    #[test]
    fn transient_unwinds_from_inner_code_are_retryable() {
        // The Extract-site fault raised *inside* Fake::run unwinds as
        // TransientUnwind, which containment must classify as
        // retryable rather than a panic.
        let _armed = fault::arm(FaultPlan::new().with(Site::Extract, "d", FaultKind::Io, 1));
        let run = run_suite(&fakes(), &opts(1));
        assert_eq!(run.outcomes[3].status(), "retried(1)");
    }

    #[test]
    fn the_watchdog_times_a_hung_experiment_out() {
        let _armed = fault::arm(FaultPlan::new().with(
            Site::Run,
            "c",
            FaultKind::Delay(Duration::from_secs(60)),
            1,
        ));
        let started = Instant::now();
        let run = run_suite(
            &fakes(),
            &SuiteOptions {
                timeout: Some(Duration::from_millis(100)),
                ..opts(2).keep_going(true)
            },
        );
        // The deadline cancels the 60 s sleep itself: run_suite returns
        // with no thread left sleeping it out.
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "the hang was not cut short: {:?}",
            started.elapsed()
        );
        assert_eq!(run.outcomes[2].status(), "timed-out");
        assert_eq!(
            run.outcomes.iter().filter(|o| o.result.is_ok()).count(),
            3,
            "the hang cost one experiment, not the suite"
        );
        assert!(run.document().contains("c: timed-out"));
    }
}
