//! Deterministic fault injection for the experiment pipeline.
//!
//! Every failure path the scheduler claims to survive — a panicking
//! experiment, a transient I/O error, a hung extraction, a poisoned
//! store lock — must itself be exercisable in CI, repeatably. This
//! module provides that: named injection *sites* threaded through the
//! pipeline call [`check`] (or [`check_or_unwind`]) with a thread-local
//! notion of the *current experiment*, and an armed [`FaultPlan`]
//! decides, deterministically, whether that call raises a panic,
//! returns an injected I/O error, or stalls.
//!
//! Plans are armed either programmatically ([`arm`], used by the test
//! suite) or from the `REPRO_FAULTS` environment variable (used by
//! `ci.sh faults`). Because specs are keyed by experiment id and carry
//! their own shot counters, which *attempts* fail is independent of
//! worker scheduling — a faulted suite degrades to the same document
//! and manifest serially and under `--jobs N`.
//!
//! Plan grammar (comma-separated specs):
//!
//! ```text
//! REPRO_FAULTS = spec[,spec]*
//! spec         = <site>:<exp>:<kind>[:<times>]
//! site         = extract | run | write | lock | accept | read | dispatch
//! kind         = panic | io | delay<millis>
//! ```
//!
//! e.g. `run:fig2:panic,run:nb:io:2,run:victim:delay60000`. `<exp>` is
//! an experiment id (or `*` for any); `<times>` bounds how often the
//! spec fires (default 1), after which it is inert — so `io:2` makes
//! the first two attempts fail and lets the bounded-retry policy
//! succeed on the third.
//!
//! The `accept`, `read` and `dispatch` sites thread the same harness
//! through `tradeoff-server`'s request path (scoped under the pseudo
//! experiment id `serve`): `accept:serve:io` forces the acceptor to
//! shed connections with `503`, `read:serve:delay…` simulates a slow
//! peer eating the request deadline, `dispatch:serve:panic` poisons a
//! handler to exercise per-request panic containment, and
//! `dispatch:serve:delay…` hangs one until its deadline cancels it
//! with a `504`. `./ci.sh chaos` floods a server under such a plan.
//!
//! The scope also carries an optional deadline (the server's request
//! budget, the scheduler's `REPRO_EXP_TIMEOUT`). Cancellation is
//! cooperative: the work calls [`check_deadline`] at each streamed
//! trace chunk, each [`crate::exec`] job and in a `delay` fault's
//! sleep, which past the deadline unwinds with [`DeadlineExceeded`].
//! Cancelled work overruns by at most one 64 K-instruction chunk or one
//! pool job, and no thread outlives it.

use crate::error::lock_recovering;
use std::cell::RefCell;
use std::io;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

/// Environment variable holding the fault plan.
pub const ENV_PLAN: &str = "REPRO_FAULTS";

/// A named injection point in the pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Site {
    /// Trace / timeline extraction ([`crate::tracestore`]).
    Extract,
    /// The experiment `run` call itself ([`crate::sched`]).
    Run,
    /// Artifact and manifest writes ([`crate::sched::drive`]).
    Write,
    /// While *holding* a trace-store lock — a panic here poisons the
    /// mutex, exercising poison recovery.
    Lock,
    /// The server's accept loop (`tradeoff-server`): an `io` fault here
    /// forces the next connection to be shed with a `503`.
    Accept,
    /// Reading a request off a connection: `delay` simulates a slow
    /// peer (eats the request deadline), `io` a mid-body disconnect.
    Read,
    /// Request dispatch on a server worker: `panic` exercises
    /// per-request containment, `delay` the `504` deadline.
    Dispatch,
}

impl Site {
    /// The grammar keyword of this site.
    pub fn name(self) -> &'static str {
        match self {
            Site::Extract => "extract",
            Site::Run => "run",
            Site::Write => "write",
            Site::Lock => "lock",
            Site::Accept => "accept",
            Site::Read => "read",
            Site::Dispatch => "dispatch",
        }
    }

    fn parse(text: &str) -> Option<Site> {
        Some(match text {
            "extract" => Site::Extract,
            "run" => Site::Run,
            "write" => Site::Write,
            "lock" => Site::Lock,
            "accept" => Site::Accept,
            "read" => Site::Read,
            "dispatch" => Site::Dispatch,
            _ => return None,
        })
    }
}

/// What an armed spec does when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Raise a plain panic (a *fatal* failure: never retried).
    Panic,
    /// Raise an injected I/O error (a *transient* failure: retried
    /// under the scheduler's bounded-backoff policy).
    Io,
    /// Sleep for the given duration, cut short by the scope's deadline
    /// (with `REPRO_EXP_TIMEOUT` this exercises cancellation).
    Delay(Duration),
}

/// One armed fault: fires `times` times at (site, experiment).
#[derive(Debug)]
pub struct FaultSpec {
    /// Where it fires.
    pub site: Site,
    /// Which experiment id it targets (`*` for any).
    pub exp: String,
    /// What happens.
    pub kind: FaultKind,
    remaining: AtomicU32,
}

impl FaultSpec {
    /// A spec firing `times` times.
    pub fn new(site: Site, exp: &str, kind: FaultKind, times: u32) -> FaultSpec {
        FaultSpec {
            site,
            exp: exp.to_string(),
            kind,
            remaining: AtomicU32::new(times),
        }
    }

    fn matches(&self, site: Site, exp: &str) -> bool {
        self.site == site && (self.exp == "*" || self.exp == exp)
    }

    /// Atomically claims one shot; false once exhausted.
    fn claim(&self) -> bool {
        self.remaining
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
            .is_ok()
    }
}

/// A deterministic set of armed faults.
#[derive(Debug, Default)]
pub struct FaultPlan {
    specs: Vec<FaultSpec>,
}

impl FaultPlan {
    /// The empty plan (injects nothing).
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// Adds a spec (builder style).
    #[must_use]
    pub fn with(mut self, site: Site, exp: &str, kind: FaultKind, times: u32) -> FaultPlan {
        self.specs.push(FaultSpec::new(site, exp, kind, times));
        self
    }

    /// Parses the `REPRO_FAULTS` grammar (see the module docs).
    ///
    /// # Errors
    ///
    /// Returns a message naming the malformed spec.
    pub fn parse(text: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::new();
        for spec in text.split(',').filter(|s| !s.trim().is_empty()) {
            let parts: Vec<&str> = spec.trim().split(':').collect();
            let (site, exp, kind) = match parts.as_slice() {
                [site, exp, kind] | [site, exp, kind, _] => (site, exp, kind),
                _ => {
                    return Err(format!(
                        "bad fault spec {spec:?}: want site:exp:kind[:times]"
                    ))
                }
            };
            let site = Site::parse(site).ok_or(format!("bad fault site {site:?} in {spec:?}"))?;
            let kind = if let Some(ms) = kind.strip_prefix("delay") {
                let ms: u64 = ms
                    .parse()
                    .map_err(|_| format!("bad delay millis in {spec:?}"))?;
                FaultKind::Delay(Duration::from_millis(ms))
            } else {
                match *kind {
                    "panic" => FaultKind::Panic,
                    "io" => FaultKind::Io,
                    other => return Err(format!("bad fault kind {other:?} in {spec:?}")),
                }
            };
            let times = match parts.get(3) {
                Some(n) => n
                    .parse()
                    .map_err(|_| format!("bad fire count in {spec:?}"))?,
                None => 1,
            };
            plan.specs.push(FaultSpec::new(site, exp, kind, times));
        }
        Ok(plan)
    }

    /// True when the plan has no specs.
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }

    fn fire(&self, site: Site, exp: &str) -> io::Result<()> {
        for spec in &self.specs {
            if !spec.matches(site, exp) || !spec.claim() {
                continue;
            }
            match spec.kind {
                FaultKind::Panic => {
                    panic!("injected panic at site {} in experiment {exp}", site.name())
                }
                FaultKind::Io => {
                    return Err(io::Error::other(format!(
                        "injected i/o fault at site {} in experiment {exp}",
                        site.name()
                    )))
                }
                FaultKind::Delay(d) => {
                    let end = Instant::now() + d;
                    let until = deadline().map_or(end, |dl| dl.min(end));
                    std::thread::sleep(until.saturating_duration_since(Instant::now()));
                    check_deadline();
                }
            }
        }
        Ok(())
    }
}

/// Panic payload used to unwind an injected (or real) I/O error out of
/// an infallible call chain; the scheduler downcasts it back into a
/// *transient* failure eligible for retry, unlike a plain panic.
#[derive(Debug)]
pub struct TransientUnwind(pub String);

/// The message of a caught panic payload: the `&str` or `String` a
/// `panic!` carries, or a placeholder for any other payload type.
pub fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

/// Unwind payload of [`check_deadline`]: the scope's deadline passed
/// and the work stopped. The server answers it `504`, the scheduler
/// records `timed-out`.
#[derive(Debug)]
pub struct DeadlineExceeded;

/// A thread's fault scope: the experiment it runs for and the deadline
/// its work must meet. Cloned into pool workers so both follow the
/// work across threads.
#[derive(Debug, Clone, Default)]
pub struct Scope {
    exp: Option<Arc<str>>,
    deadline: Option<Instant>,
}

thread_local! {
    static CURRENT: RefCell<Scope> = RefCell::default();
}

/// Scope guard restoring the previous scope on drop.
#[derive(Debug)]
pub struct ExpScope {
    prev: Scope,
}

impl Drop for ExpScope {
    fn drop(&mut self) {
        CURRENT.with(|c| *c.borrow_mut() = std::mem::take(&mut self.prev));
    }
}

/// Marks this thread as running experiment `id` until the guard drops,
/// keeping the enclosing deadline.
pub fn enter(id: &str) -> ExpScope {
    enter_until(id, deadline())
}

/// [`enter`] with its own `deadline` (`None` lifts any enclosing one).
pub fn enter_until(id: &str, deadline: Option<Instant>) -> ExpScope {
    enter_shared(Scope {
        exp: Some(Arc::from(id)),
        deadline,
    })
}

/// Enters a scope taken from another thread with [`scope`] — how
/// [`crate::exec`] and [`crate::stream`] workers inherit their
/// spawner's experiment and deadline.
pub fn enter_shared(scope: Scope) -> ExpScope {
    ExpScope {
        prev: CURRENT.with(|c| c.replace(scope)),
    }
}

/// This thread's scope, for a spawned worker to [`enter_shared`].
pub fn scope() -> Scope {
    CURRENT.with(|c| c.borrow().clone())
}

/// The experiment this thread is currently running for, if any.
pub fn current() -> Option<Arc<str>> {
    CURRENT.with(|c| c.borrow().exp.clone())
}

/// The deadline this thread's work must meet, if any.
fn deadline() -> Option<Instant> {
    CURRENT.with(|c| c.borrow().deadline)
}

/// The cancellation point: unwinds with [`DeadlineExceeded`] once this
/// thread's scope deadline has passed, a no-op otherwise (and without
/// reading the clock when no deadline is set). The unwind goes through
/// [`std::panic::resume_unwind`], so the panic hook prints nothing.
pub fn check_deadline() {
    if deadline().is_some_and(|d| Instant::now() >= d) {
        std::panic::resume_unwind(Box::new(DeadlineExceeded));
    }
}

fn armed() -> &'static Mutex<Option<Arc<FaultPlan>>> {
    static ARMED: OnceLock<Mutex<Option<Arc<FaultPlan>>>> = OnceLock::new();
    ARMED.get_or_init(Mutex::default)
}

/// Fast path for the unfaulted case: checked before touching the
/// arming mutex, so hot extraction paths stay lock-free when no plan
/// was ever armed via the API.
static API_ARMED: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);

fn env_plan() -> Option<Arc<FaultPlan>> {
    static ENV: OnceLock<Option<Arc<FaultPlan>>> = OnceLock::new();
    ENV.get_or_init(|| {
        let text = std::env::var(ENV_PLAN).ok()?;
        match FaultPlan::parse(&text) {
            Ok(plan) if plan.is_empty() => None,
            Ok(plan) => Some(Arc::new(plan)),
            // A typo'd plan must not silently run the suite unfaulted.
            Err(e) => panic!("{ENV_PLAN}: {e}"),
        }
    })
    .clone()
}

fn active() -> Option<Arc<FaultPlan>> {
    if API_ARMED.load(Ordering::Acquire) {
        let (guard, _) = lock_recovering(armed());
        if let Some(plan) = guard.clone() {
            return Some(plan);
        }
    }
    env_plan()
}

/// Evaluates site `site` for the current experiment: returns the
/// injected I/O error, panics, or delays per the armed plan; a no-op
/// when nothing is armed or no spec matches.
///
/// # Errors
///
/// The injected I/O error of a matching `io` spec.
pub fn check(site: Site) -> io::Result<()> {
    let Some(plan) = active() else { return Ok(()) };
    let Some(exp) = current() else { return Ok(()) };
    plan.fire(site, &exp)
}

/// [`check`] for infallible call chains (trace extraction, lock
/// acquisition): an injected I/O error unwinds as [`TransientUnwind`],
/// which the scheduler catches and treats as retryable.
pub fn check_or_unwind(site: Site) {
    if let Err(e) = check(site) {
        std::panic::panic_any(TransientUnwind(e.to_string()));
    }
}

/// An armed plan; dropping it disarms. Holding it also serialises
/// fault-using tests (the arming gate is process-wide).
#[derive(Debug)]
pub struct Armed {
    _gate: MutexGuard<'static, ()>,
}

impl Drop for Armed {
    fn drop(&mut self) {
        let (mut guard, _) = lock_recovering(armed());
        *guard = None;
        API_ARMED.store(false, Ordering::Release);
    }
}

/// Arms `plan` process-wide until the returned guard drops. Intended
/// for tests: the guard serialises concurrent armers so two tests
/// cannot see each other's faults.
pub fn arm(plan: FaultPlan) -> Armed {
    static GATE: Mutex<()> = Mutex::new(());
    let (gate, _) = lock_recovering(&GATE);
    let (mut guard, _) = lock_recovering(armed());
    *guard = Some(Arc::new(plan));
    drop(guard);
    API_ARMED.store(true, Ordering::Release);
    Armed { _gate: gate }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_the_documented_grammar() {
        let plan =
            FaultPlan::parse("run:fig2:panic, run:nb:io:2 ,extract:sweep:delay250,lock:*:io")
                .unwrap();
        assert_eq!(plan.specs.len(), 4);
        let serve = FaultPlan::parse("accept:serve:io:2,read:serve:delay1500,dispatch:serve:panic")
            .unwrap();
        assert_eq!(serve.specs[0].site, Site::Accept);
        assert_eq!(serve.specs[1].site, Site::Read);
        assert_eq!(serve.specs[2].site, Site::Dispatch);
        assert_eq!(plan.specs[0].site, Site::Run);
        assert_eq!(plan.specs[0].kind, FaultKind::Panic);
        assert_eq!(plan.specs[1].remaining.load(Ordering::SeqCst), 2);
        assert_eq!(
            plan.specs[2].kind,
            FaultKind::Delay(Duration::from_millis(250))
        );
        assert_eq!(plan.specs[3].exp, "*");
        assert!(FaultPlan::parse("").unwrap().is_empty());
    }

    #[test]
    fn parse_rejects_malformed_specs() {
        for bad in [
            "run:fig2",
            "orbit:fig2:panic",
            "run:fig2:explode",
            "run:fig2:delayxx",
            "run:fig2:io:many",
        ] {
            assert!(FaultPlan::parse(bad).is_err(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn specs_fire_exactly_times_then_go_inert() {
        let plan = FaultPlan::new().with(Site::Run, "nb", FaultKind::Io, 2);
        assert!(plan.fire(Site::Run, "nb").is_err());
        assert!(plan.fire(Site::Run, "nb").is_err());
        assert!(
            plan.fire(Site::Run, "nb").is_ok(),
            "exhausted spec is inert"
        );
        assert!(plan.fire(Site::Run, "fig1").is_ok(), "other ids unaffected");
        assert!(
            plan.fire(Site::Write, "nb").is_ok(),
            "other sites unaffected"
        );
    }

    #[test]
    fn check_uses_the_thread_local_experiment() {
        let _armed = arm(FaultPlan::new().with(Site::Run, "fig9", FaultKind::Io, 1));
        assert!(check(Site::Run).is_ok(), "no current experiment, no fire");
        {
            let _scope = enter("fig9");
            let err = check(Site::Run).unwrap_err();
            assert!(err.to_string().contains("injected i/o fault"));
            assert!(check(Site::Run).is_ok(), "single shot spent");
        }
        assert!(current().is_none(), "scope restored on drop");
    }

    #[test]
    fn scopes_nest_and_restore() {
        let outer = enter("outer");
        {
            let _inner = enter("inner");
            assert_eq!(current().as_deref(), Some("inner"));
        }
        assert_eq!(current().as_deref(), Some("outer"));
        drop(outer);
        assert!(current().is_none());
    }

    #[test]
    fn a_passed_deadline_unwinds_and_cuts_a_delay_short() {
        let _armed = arm(FaultPlan::new().with(
            Site::Run,
            "slow",
            FaultKind::Delay(Duration::from_secs(60)),
            1,
        ));
        check_deadline(); // no deadline: a no-op
        let started = Instant::now();
        let payload = std::panic::catch_unwind(|| {
            let _scope = enter_until("slow", Some(started + Duration::from_millis(50)));
            {
                let _nested = enter("nested");
                assert!(deadline().is_some(), "enter keeps the deadline");
            }
            let _ = check(Site::Run);
        })
        .unwrap_err();
        assert!(payload.is::<DeadlineExceeded>());
        assert!(
            started.elapsed() < Duration::from_secs(10),
            "sleep cut short"
        );
        assert!(current().is_none(), "scope restored by the unwind");
        check_deadline(); // and the deadline went with it
    }

    #[test]
    fn check_or_unwind_raises_a_transient_payload() {
        let _armed = arm(FaultPlan::new().with(Site::Extract, "x", FaultKind::Io, 1));
        let _scope = enter("x");
        let payload = std::panic::catch_unwind(|| check_or_unwind(Site::Extract)).unwrap_err();
        let transient = payload
            .downcast_ref::<TransientUnwind>()
            .expect("typed payload");
        assert!(transient.0.contains("injected i/o fault"));
    }
}
