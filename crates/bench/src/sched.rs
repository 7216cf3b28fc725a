//! Cross-experiment scheduler with fault isolation.
//!
//! PR 1/2 made individual experiments parallel *inside* (the
//! [`crate::exec`] pool fans points over cores) and cheap to re-point
//! (the [`crate::tracestore`] memoises traces and timelines). This
//! module adds the layer above: whole experiments run concurrently over
//! a worker pool, subject to one ordering constraint — experiments that
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
//! its next trace chunk or pool job past it and leaves no thread behind.
//! A strict run stops scheduling at the first failure; `keep_going`
//! completes every runnable experiment and records per-experiment
//! statuses in the manifest. With no faults armed and no experiment
//! failing, output is byte-identical to an uncontained run.
//!
//! The suite document is assembled in registry order regardless of
//! completion order, so serial and `--jobs N` runs are byte-identical
//! (asserted by `tests/manifest.rs`, and under an armed fault plan by
//! `tests/faults.rs`).

use crate::error::{lock_recovering, Error, ExpFailure, FailureKind};
use crate::fault::{self, Site};
use crate::registry::{self, ExpReport, Experiment, RunCtx};
use crate::tracestore::{self, StoreCounts};
use report::manifest::{Manifest, StatusEntry, MANIFEST_NAME};
use report::Artifact;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// Environment variable holding the per-experiment deadline in
/// (possibly fractional) seconds. Unset or non-positive disables it.
pub const ENV_TIMEOUT: &str = "REPRO_EXP_TIMEOUT";

/// The per-experiment deadline, [`ENV_TIMEOUT`]: `None` when unset or
/// non-positive.
///
/// # Errors
///
/// A set value that is not a number of seconds (`5s`, `NaN`, `inf`)
/// is an error naming the variable, never a silent "no deadline".
pub fn timeout_setting() -> Result<Option<Duration>, String> {
    let Ok(v) = std::env::var(ENV_TIMEOUT) else {
        return Ok(None);
    };
    match v.parse::<f64>() {
        Ok(secs) if secs <= 0.0 => Some(None),
        Ok(secs) => Duration::try_from_secs_f64(secs).ok().map(Some),
        Err(_) => None,
    }
    .ok_or_else(|| format!("{ENV_TIMEOUT}={v:?} is not a deadline (seconds, fractional allowed)"))
}

/// `run_all`'s concurrent experiments, `REPRO_JOBS`: `1` when unset,
/// and `0` or `1` both mean serial.
///
/// # Errors
///
/// A set value that is not a non-negative integer is an error naming
/// the variable.
pub fn jobs_setting() -> Result<usize, String> {
    match std::env::var("REPRO_JOBS") {
        Err(_) => Ok(1),
        Ok(v) => v
            .parse()
            .map_err(|_| format!("REPRO_JOBS={v:?} is not a job count (a non-negative integer)")),
    }
}

/// `run_all`'s keep-going switch, `REPRO_KEEP_GOING`: `0` or unset is
/// off, `1` is on.
///
/// # Errors
///
/// Any other value is an error naming the variable.
pub fn keep_going_setting() -> Result<bool, String> {
    match std::env::var("REPRO_KEEP_GOING").as_deref() {
        Err(_) | Ok("0") => Ok(false),
        Ok("1") => Ok(true),
        Ok(v) => Err(format!("REPRO_KEEP_GOING={v:?} is not 0 or 1")),
    }
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
    /// Per-experiment deadline (default: [`ENV_TIMEOUT`]).
    pub timeout: Option<Duration>,
    /// Transient-failure retry policy.
    pub retry: RetryPolicy,
}

impl SuiteOptions {
    /// `jobs`-way execution at context `ctx`, strict (not keep-going),
    /// deadline from [`ENV_TIMEOUT`], default retry policy.
    ///
    /// # Panics
    ///
    /// Panics naming the variable if [`ENV_TIMEOUT`] is malformed;
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
    /// Trace-store activity during the run (exact when serial; under
    /// `--jobs N` concurrent experiments share the global counters, so
    /// per-experiment deltas are attributions, not isolates).
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
        let mut out = format!(
            "suite: {} experiments in {:.3}s; trace store: {}\n{}",
            self.outcomes.len(),
            self.wall.as_secs_f64(),
            self.store.summary(),
            t.render()
        );
        // Byte accounting of what is still materialised: per-entry
        // sizes plus the total the REPRO_TRACE_BUDGET cap acts on.
        let entries = tracestore::resident_entries();
        out.push_str(&format!(
            "trace store resident: {} bytes in {} traces",
            tracestore::bytes_resident(),
            entries.len()
        ));
        for (name, seed, bytes) in entries {
            out.push_str(&format!("\n  {name}@{seed:#x}: {bytes} bytes"));
        }
        // The process-wide store snapshot — the same accessor the query
        // server's /stats endpoint reports.
        out.push_str(&format!(
            "\nstore stats: {}\n",
            tracestore::stats().summary()
        ));
        out
    }
}

/// One attempt's failure, before the retry policy decides its fate.
enum AttemptError {
    /// Retryable: injected I/O fault or an I/O-like unwind.
    Transient(String),
    /// Fatal: the experiment (or an extraction it ran) panicked.
    Panicked(String),
    /// Fatal: the deadline passed and cancelled the attempt.
    TimedOut(Duration),
}

/// One contained attempt on the current thread: marks the experiment
/// for fault targeting (under the `opts.timeout` deadline), fires the
/// `run` injection site, and catches any unwind — a
/// [`fault::TransientUnwind`] (injected I/O raised inside an infallible
/// call chain) stays retryable, a [`fault::DeadlineExceeded`] is a
/// timeout, anything else is a panic.
fn attempt_contained(exp: &Experiment, opts: &SuiteOptions) -> Result<ExpReport, AttemptError> {
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
            Ok(transient) => AttemptError::Transient(transient.0),
            Err(p) if p.is::<fault::DeadlineExceeded>() => {
                AttemptError::TimedOut(opts.timeout.unwrap_or_default())
            }
            Err(p) => AttemptError::Panicked(fault::panic_text(p.as_ref())),
        },
    )
}

fn run_one(exp: &Experiment, opts: &SuiteOptions) -> ExpOutcome {
    let before = tracestore::counters();
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
            Err(AttemptError::Transient(message)) => {
                if retries < opts.retry.max_retries {
                    retries += 1;
                    opts.retry.pause(retries);
                } else {
                    break Err(ExpFailure {
                        kind: FailureKind::Transient,
                        message,
                        retries,
                    });
                }
            }
            Err(AttemptError::Panicked(message)) => {
                break Err(ExpFailure {
                    kind: FailureKind::Panicked,
                    message,
                    retries,
                })
            }
            Err(AttemptError::TimedOut(limit)) => {
                break Err(ExpFailure {
                    kind: FailureKind::TimedOut { limit },
                    message: String::new(),
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
        store: tracestore::counters().since(&before),
    }
}

#[derive(Clone, Copy, PartialEq)]
enum KeyState {
    Warming,
    Warm,
}

struct SchedState {
    started: Vec<bool>,
    keys: HashMap<&'static str, KeyState>,
}

/// True when every shared trace key of `exp` is either warm or free to
/// be claimed (no other in-flight experiment is extracting it).
fn eligible(state: &SchedState, exp: &Experiment) -> bool {
    exp.traces
        .iter()
        .all(|k| state.keys.get(k) != Some(&KeyState::Warming))
}

/// Runs `exps` contained and returns their outcomes in input order; a
/// strict (non-keep-going) run stops claiming new experiments after the
/// first failure, so its outcome list may be a prefix of the selection.
pub fn run_suite(exps: &[&Experiment], opts: &SuiteOptions) -> SuiteRun {
    let suite_before = tracestore::counters();
    let suite_start = Instant::now();
    let outcomes: Vec<ExpOutcome> = if opts.jobs <= 1 || exps.len() <= 1 {
        let mut outcomes = Vec::with_capacity(exps.len());
        for e in exps {
            let outcome = run_one(e, opts);
            let failed = outcome.result.is_err();
            outcomes.push(outcome);
            if failed && !opts.keep_going {
                break;
            }
        }
        outcomes
    } else {
        run_parallel(exps, opts)
    };
    SuiteRun {
        outcomes,
        wall: suite_start.elapsed(),
        store: tracestore::counters().since(&suite_before),
    }
}

fn run_parallel(exps: &[&Experiment], opts: &SuiteOptions) -> Vec<ExpOutcome> {
    let workers = opts.jobs.min(exps.len());
    let state = Mutex::new(SchedState {
        started: vec![false; exps.len()],
        keys: HashMap::new(),
    });
    let wake = Condvar::new();
    let abort = AtomicBool::new(false);
    let slots: Mutex<Vec<Option<ExpOutcome>>> = Mutex::new((0..exps.len()).map(|_| None).collect());

    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let state = &state;
                let wake = &wake;
                let slots = &slots;
                let abort = &abort;
                scope.spawn(move || loop {
                    let claimed = {
                        let (mut st, _) = lock_recovering(state);
                        loop {
                            if abort.load(Ordering::SeqCst) || st.started.iter().all(|&s| s) {
                                break None;
                            }
                            let next =
                                (0..exps.len()).find(|&i| !st.started[i] && eligible(&st, exps[i]));
                            match next {
                                Some(i) => {
                                    st.started[i] = true;
                                    for key in exps[i].traces {
                                        st.keys.entry(key).or_insert(KeyState::Warming);
                                    }
                                    break Some(i);
                                }
                                // Everything unstarted is blocked on a
                                // warming key; a completion will wake us.
                                None => {
                                    st = match wake.wait(st) {
                                        Ok(guard) => guard,
                                        Err(poisoned) => {
                                            state.clear_poison();
                                            poisoned.into_inner()
                                        }
                                    };
                                }
                            }
                        }
                    };
                    let Some(i) = claimed else { break };
                    let outcome = run_one(exps[i], opts);
                    if outcome.result.is_err() && !opts.keep_going {
                        abort.store(true, Ordering::SeqCst);
                    }
                    lock_recovering(slots).0[i] = Some(outcome);
                    let (mut st, _) = lock_recovering(state);
                    // Even a failed holder marks its keys warm: a
                    // wedged key would deadlock every later sharer,
                    // and the store re-extracts on demand anyway.
                    for key in exps[i].traces {
                        st.keys.insert(key, KeyState::Warm);
                    }
                    drop(st);
                    wake.notify_all();
                })
            })
            .collect();
        for h in handles {
            if let Err(payload) = h.join() {
                // Scheduler-code panics (never experiment panics —
                // those are contained) are real bugs: propagate.
                std::panic::resume_unwind(payload);
            }
        }
    });

    slots
        .into_inner()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .into_iter()
        .flatten()
        .collect()
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

/// The driver shared by the `exp` / `run_all` binaries and the
/// `tradeoff experiments run` subcommand: select by filter, run with
/// `jobs`-way parallelism, write artifacts under `results_dir`.
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
        Experiment {
            id,
            title: id,
            tags: &["fake"],
            traces,
            module: module_path!(),
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
            footer.contains("trace store resident:") && footer.contains("bytes in"),
            "footer must report resident trace bytes:\n{footer}"
        );
        assert!(
            footer.contains("store stats:")
                && footer.contains("evictions")
                && footer.contains("coalesced waits")
                && footer.contains("poison recoveries"),
            "footer must include the full store stats line:\n{footer}"
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
